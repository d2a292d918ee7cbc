//! Allocation-freedom of the MAC hot paths.
//!
//! The controller computes one `mac64_parts` per verified line and one
//! `mac64_batch` per drained verify-queue batch; none of them may touch the
//! heap. A counting global allocator pins this: any future "convenience"
//! concatenation buffer or `Vec` in the hot path fails these tests rather
//! than silently costing an allocation per memory access.
//!
//! The counting allocator lives here (an integration test binary) because
//! the library itself is `#![forbid(unsafe_code)]`; implementing
//! `GlobalAlloc` requires `unsafe`, and confining it to the test keeps that
//! guarantee intact.
//!
//! Allocations are counted per thread: the test harness and tests running
//! alongside allocate on their own threads, and must not land in another
//! test's measuring window.

// The workspace lint table denies `unsafe_code`; `GlobalAlloc` is an
// unsafe trait.
#![allow(unsafe_code)]

use amnt_crypto::{mac64_batch, HmacSha256, DATA_MAC_MSG_LEN, LANES};
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

#[test]
fn mac64_parts_is_allocation_free() {
    let hmac = HmacSha256::new(b"hot-path-key");
    let ct = [0xC7u8; 64];
    let addr = 0x440u64.to_le_bytes();
    let major = 9u64.to_le_bytes();
    // The controller's exact data-MAC shape: ct ‖ tag ‖ addr ‖ major ‖ minor.
    let parts: [&[u8]; 5] = [&ct, b"data", &addr, &major, &[3u8]];
    // Warm once (lazy test-harness state must not be charged to the MAC).
    let warm = hmac.mac64_parts(&parts);
    let n = allocs_during(|| {
        let mut acc = 0u64;
        for _ in 0..100 {
            acc ^= hmac.mac64_parts(std::hint::black_box(&parts));
        }
        acc
    });
    assert_eq!(n, 0, "mac64_parts allocated on the hot path");
    assert_eq!(warm, hmac.mac64_parts(&parts));
}

#[test]
fn mac64_and_full_mac_are_allocation_free() {
    let hmac = HmacSha256::new(b"hot-path-key");
    let msg = [0x11u8; DATA_MAC_MSG_LEN];
    let _ = hmac.mac(&msg);
    let n = allocs_during(|| (hmac.mac64(std::hint::black_box(&msg)), hmac.mac(&msg)));
    assert_eq!(n, 0, "scalar MAC allocated on the hot path");
}

#[test]
fn mac64_batch_is_allocation_free() {
    let hmac = HmacSha256::new(b"hot-path-key");
    let msgs = [[0x42u8; DATA_MAC_MSG_LEN]; LANES];
    let items: [(&HmacSha256, &[u8]); LANES] = core::array::from_fn(|i| (&hmac, &msgs[i][..]));
    let _ = mac64_batch(&items);
    let n = allocs_during(|| {
        let mut acc = 0u64;
        for _ in 0..20 {
            acc ^= mac64_batch(std::hint::black_box(&items))[0];
        }
        acc
    });
    assert_eq!(n, 0, "mac64_batch allocated on the hot path");
    // Ragged widths (chunk-padding path) must not allocate either.
    let short: [(&HmacSha256, &[u8]); 3] = core::array::from_fn(|i| (&hmac, &msgs[i][..]));
    assert_eq!(allocs_during(|| mac64_batch(&short)), 0);
}
