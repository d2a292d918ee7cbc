//! Host memory of the OS model follows the pages mapped.
//!
//! A process's page table and the buddy's allocation records are
//! `FrameMap`s: 8 B of frame number and 1 B of order per mapped page, plus
//! a group's mask, pointer and B-tree share per 64 pages. This test bounds
//! the live bytes of a fresh 8 GiB `MemoryManager` after it maps 40,960
//! pages (160 MiB, the footprint of the `xz` model). Two hash tables, one
//! per record, cost about 55 B per page and fail it.
//!
//! Live bytes are tracked per thread by the pass-through global allocator
//! in amnt-nvm's `tests/common/live_bytes.rs`.

#[path = "../../nvm/tests/common/live_bytes.rs"]
mod live_bytes;

use amnt_os::{AllocPolicy, MemoryManager, PAGE_SIZE};

/// Bytes a mapped page may cost, the manager's fixed state included.
const PER_PAGE: usize = 20;

#[test]
fn mapped_pages_cost_at_most_twenty_bytes_each() {
    const PAGES: u64 = 40_960;
    let before = live_bytes::live();
    let mut mm = MemoryManager::new((8 << 30) / PAGE_SIZE, AllocPolicy::Standard);
    for page in 0..PAGES {
        mm.translate(1, page * PAGE_SIZE).unwrap();
    }
    let live = (live_bytes::live() - before) as usize;
    assert_eq!(mm.resident_pages(1), PAGES as usize);
    eprintln!(
        "{PAGES} mapped pages: {live} live bytes ({:.2} B each)",
        live as f64 / PAGES as f64
    );
    assert!(
        live <= PAGES as usize * PER_PAGE,
        "{live} live bytes exceed {PER_PAGE} B x {PAGES} mapped pages"
    );
}
