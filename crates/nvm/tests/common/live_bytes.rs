//! A pass-through global allocator that tracks this thread's live heap
//! bytes and their high-water mark.
//!
//! Heap-bound tests include this file as a module (`#[path]` from other
//! crates' test binaries): it lives in integration test binaries because
//! the libraries are `#![forbid(unsafe_code)]` and implementing
//! `GlobalAlloc` requires `unsafe`.

// The workspace lint table denies `unsafe_code`; `GlobalAlloc` is an
// unsafe trait.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator, tracking this thread's live bytes.
struct LiveBytes;

thread_local! {
    /// Bytes allocated minus bytes freed by this thread.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The most `LIVE` has read since the last [`peak_during`] began.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn track(delta: i64) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: pure pass-through to `System`. The tallies are `const`-initialised
// thread-local `Cell`s, so updating them never allocates, and `try_with`
// skips the update instead of panicking once the thread's locals are torn
// down. `realloc` keeps its default, which goes through `alloc` and
// `dealloc`, so a growing copy counts both buffers at once.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as i64);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

/// This thread's live heap bytes.
pub fn live() -> i64 {
    LIVE.with(Cell::get)
}

/// Runs `f` and returns its result with the most live bytes this thread
/// held during the call above what it held when the call began.
#[allow(dead_code)] // not every including binary measures a peak
pub fn peak_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let start = live();
    PEAK.with(|peak| peak.set(start));
    let result = f();
    let peak = PEAK.with(Cell::get);
    (result, (peak - start) as usize)
}
