//! Heap allocations on the controller's per-access hot path.
//!
//! Once every line a workload touches has been written, a read or a write
//! to one of them has nothing to allocate: the tree geometry, the
//! ancestral path, the pads and the MACs all fit on the stack. A counting
//! global allocator pins this, so a future `Vec` or clone of heap-backed
//! state on the access path fails here rather than silently costing an
//! allocation per memory access.
//!
//! Writes may still allocate on the rare events that grow controller state
//! (an AMNT subtree transition, a counter overflow's re-encryption burst),
//! so writes are held to an average, and reads to zero.
//!
//! The counting allocator lives in this integration test binary because
//! the library is `#![forbid(unsafe_code)]` and `GlobalAlloc` needs
//! `unsafe`. Allocations are counted per thread, so tests running on other
//! threads never land in a measuring window.

use amnt_core::{AmntConfig, ProtocolKind, SecureMemory, SecureMemoryConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator, counting every allocation.
struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: pure pass-through to `System`. The counter is a `const`-initialised
// thread-local `Cell`, so bumping it never allocates, and `try_with` skips
// the count instead of panicking once the thread's locals are torn down.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many heap allocations it performed on this
/// thread.
fn allocs_during<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCS.with(Cell::get);
    std::hint::black_box(f());
    ALLOCS.with(Cell::get) - before
}

/// One key per page over a 64 MiB device whose counter lines outnumber
/// the metadata cache, as in the key-value example: reads walk the tree
/// and drain the verify queue, writes update paths and evict dirty nodes.
const CAPACITY: u64 = 64 * 1024 * 1024;
const KEYS: u64 = 4096;
const OPS: u64 = 2000;

fn key_addr(key: u64) -> u64 {
    key * 4096
}

/// A multiplicative walk over the keys, so consecutive ops land on
/// unrelated pages and subtree regions.
fn key_of(op: u64) -> u64 {
    op.wrapping_mul(2_654_435_761) % KEYS
}

/// A controller with every key written once.
fn prefilled(kind: ProtocolKind) -> (SecureMemory, u64) {
    let mut mem = SecureMemory::new(SecureMemoryConfig::with_capacity(CAPACITY), kind)
        .expect("valid geometry");
    let mut t = 0;
    for key in 0..KEYS {
        t = mem
            .write_block(t, key_addr(key), &[key as u8; 64])
            .expect("prefill write");
    }
    (mem, t)
}

fn check_protocol(kind: ProtocolKind) {
    let (mut mem, mut t) = prefilled(kind);
    let reads = allocs_during(|| {
        for op in 0..OPS {
            let (_, done) = mem.read_block(t, key_addr(key_of(op))).expect("read");
            t = done;
        }
    });
    assert_eq!(reads, 0, "{kind:?}: {reads} allocations over {OPS} reads");
    let writes = allocs_during(|| {
        for op in 0..OPS {
            let key = key_of(op + OPS);
            t = mem
                .write_block(t, key_addr(key), &[op as u8; 64])
                .expect("write");
        }
    });
    let per_write = writes as f64 / OPS as f64;
    assert!(
        per_write < 0.1,
        "{kind:?}: {writes} allocations over {OPS} writes to written lines ({per_write:.3} each)"
    );
}

#[test]
fn reads_and_rewrites_do_not_allocate_under_amnt() {
    check_protocol(ProtocolKind::Amnt(AmntConfig::default()));
}

#[test]
fn reads_and_rewrites_do_not_allocate_under_strict() {
    check_protocol(ProtocolKind::Strict);
}
