//! Host memory of the touched-tree walks follows one level of the closure.
//!
//! The O(touched) walks read the touched counter frames, seed from the
//! bottom level's parent list (one `u64` per bottom node, 1 B per touched
//! counter) and go up one level at a time; `verify_touched` also holds the
//! level below's recomputed images (72 B per bottom node, 9 B per touched
//! counter). These tests bound each walk's peak live bytes above what it
//! started with, on a device with kv_read's shape: 1,024 dense counter
//! frames, 65,536 touched counters. A per-counter list, or an image map of
//! the whole closure, fails them.
//!
//! Peak live bytes are tracked per thread by the pass-through global
//! allocator in amnt-nvm's `tests/common/live_bytes.rs`.

#[path = "../../nvm/tests/common/live_bytes.rs"]
mod live_bytes;

use amnt_bmt::{Bmt, BmtGeometry, NodeId};
use amnt_nvm::{Nvm, NvmConfig};
use live_bytes::peak_during;

/// Counter frames written, 64 counters each.
const FRAMES: u64 = 1024;
const TOUCHED: u64 = FRAMES * 64;

/// A 1 GiB tree whose first 65,536 counters are written (every counter of
/// the first 1,024 counter frames), built once so the stored nodes exist.
fn dense_device() -> (Bmt, Nvm, [u8; 64]) {
    let geometry = BmtGeometry::new(1 << 30).expect("1 GiB");
    let bmt = Bmt::new(geometry, b"heap key");
    let mut nvm = Nvm::new(NvmConfig::gib(2));
    for index in 0..TOUCHED {
        let addr = bmt.geometry().counter_addr(index);
        nvm.write_block(addr, &[index as u8 | 1; 64]).unwrap();
    }
    assert_eq!(bmt.touched_counters(&nvm).len() as u64, TOUCHED);
    let (root, _) = bmt.build_touched(&mut nvm).unwrap();
    (bmt, nvm, root)
}

/// Checks `peak` against `per_counter` bytes for each of `counters`.
fn check(walk: &str, peak: usize, counters: u64, per_counter: u64) {
    let bound = counters * per_counter;
    eprintln!(
        "{walk}: peak {peak} B above start over {counters} touched counters \
         ({:.2} B each), bound {bound} B",
        peak as f64 / counters as f64
    );
    assert!(
        peak as u64 <= bound,
        "{walk}: peak {peak} B exceeds {per_counter} B x {counters} touched counters"
    );
}

#[test]
fn verify_touched_holds_one_level_of_images() {
    let (bmt, mut nvm, root) = dense_device();
    let (verdict, peak) = peak_during(|| bmt.verify_touched(&mut nvm, &root));
    assert!(verdict.unwrap(), "clean device verifies");
    // The bottom level's images and their parent list, with room for the
    // level above.
    check("verify_touched", peak, TOUCHED, 16);
}

#[test]
fn build_touched_holds_the_parent_list() {
    let (bmt, mut nvm, root) = dense_device();
    // The stored nodes exist already, so rewriting them adds no lines.
    let (rebuilt, peak) = peak_during(|| bmt.build_touched(&mut nvm));
    assert_eq!(rebuilt.unwrap().0, root);
    // The parent list, twice over while it grows.
    check("build_touched", peak, TOUCHED, 4);
}

#[test]
fn rebuild_subtree_touched_follows_the_subtree() {
    let (bmt, mut nvm, _) = dense_device();
    // AMNT's default subtree level, on the first of its 64 regions.
    let subtree = NodeId { level: 3, index: 0 };
    let counters = bmt.geometry().subtree_counters(subtree);
    assert!(
        counters.end <= TOUCHED,
        "every counter of the subtree is touched"
    );
    let inside = counters.end - counters.start;
    let (rebuilt, peak) = peak_during(|| bmt.rebuild_subtree_touched(&mut nvm, subtree));
    let (image, recomputed) = rebuilt.unwrap();
    assert_eq!(image, bmt.compute_node(&mut nvm, subtree).unwrap());
    // Its 4,096 counters' 512 bottom nodes, 64 and 8 above them, and the
    // subtree root.
    assert_eq!(recomputed, 512 + 64 + 8 + 1);
    // The subtree's own parent list, twice over while it grows: the
    // device's other touched counters cost nothing.
    check("rebuild_subtree_touched", peak, inside, 4);
}
