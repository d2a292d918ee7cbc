//! Host memory of aging follows the pages it releases.
//!
//! `MemoryManager::age` draws each 16-page run's fate as it allocates: a
//! surviving run goes straight into the background process's `FrameMap`
//! (about 9 B a page), and only released pages wait in a list (8 B each)
//! for the shuffled free. This test bounds the live-byte peak during
//! `age` on an 8 GiB manager at the default aging (80% occupancy, 60%
//! churn). Holding every allocated page in a list before drawing, plus a
//! release list reserved at the same size, peaks at about 22 B per
//! allocated page and fails it.
//!
//! Live bytes are tracked per thread by the pass-through global allocator
//! in amnt-nvm's `tests/common/live_bytes.rs`.

#[path = "../../nvm/tests/common/live_bytes.rs"]
mod live_bytes;

use amnt_os::{AllocPolicy, MemoryManager, PAGE_SIZE};

/// Peak bytes aging may hold per page it allocates.
const PER_AGED_PAGE: usize = 14;

#[test]
fn aging_peaks_at_most_fourteen_bytes_per_allocated_page() {
    let pages = (8 << 30) / PAGE_SIZE;
    let aged = (pages as f64 * 0.8) as usize;
    let mut mm = MemoryManager::new(pages, AllocPolicy::Standard);
    let ((), peak) = live_bytes::peak_during(|| mm.age(0xA6E, 0.8, 0.6));
    eprintln!(
        "aging {aged} of {pages} pages: peak {peak} live bytes ({:.2} B per aged page)",
        peak as f64 / aged as f64
    );
    assert!(
        peak <= aged * PER_AGED_PAGE,
        "aging peaked at {peak} live bytes, over {PER_AGED_PAGE} B x {aged} aged pages"
    );
}
