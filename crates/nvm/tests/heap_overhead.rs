//! Host memory of the device's frame store follows its payload.
//!
//! A touched frame stores only its written 64 B lines, with no spare
//! capacity, and touched frames sit 64 to a B-tree entry. These tests pin
//! what the store may cost beyond its payload: a frame's line mask and line
//! pointer, and a group's share of the B-tree. A line store that grows by
//! doubling, or a map with one B-tree entry per frame, fails them.
//!
//! Live heap bytes are tracked per thread by the pass-through global
//! allocator in `common/live_bytes.rs`.

#[path = "common/live_bytes.rs"]
mod live_bytes;

use amnt_nvm::{Nvm, NvmConfig, BLOCK_SIZE, FRAME_SIZE};
use amnt_prng::Rng;
use std::collections::BTreeSet;
use std::mem::size_of;

/// Frames per group, one B-tree entry each.
const GROUP: u64 = 64;
/// A stored line.
const LINE: usize = size_of::<[u8; BLOCK_SIZE]>();
/// A frame's line mask and the pointer to its lines, held in its group.
const PER_FRAME: usize = size_of::<u64>() + size_of::<Box<[[u8; BLOCK_SIZE]]>>();
/// A group's B-tree entry: its key, its frame mask and the pointer to its
/// frames. A B-tree node other than the root is at least 5/11 full, so a
/// node costs at most 2.2 entries per entry held, and the inner nodes above
/// the leaves less than one more.
const GROUP_ENTRY: usize = size_of::<u64>() + size_of::<u64>() + size_of::<Box<[()]>>();
const PER_GROUP: usize = 3 * GROUP_ENTRY;

/// Writes one line at each `(frame, line)` on a fresh device of
/// `capacity_gib`, then checks the live bytes that added against the
/// payload plus the per-frame and per-group allowances.
fn check_store(shape: &str, capacity_gib: u64, writes: &[(u64, u64)]) {
    let lines: BTreeSet<(u64, u64)> = writes.iter().copied().collect();
    let frames: BTreeSet<u64> = lines.iter().map(|&(frame, _)| frame).collect();
    let groups: BTreeSet<u64> = frames.iter().map(|frame| frame / GROUP).collect();
    let mut nvm = Nvm::new(NvmConfig::gib(capacity_gib));
    let before = live_bytes::live();
    for &(frame, line) in writes {
        let addr = frame * FRAME_SIZE as u64 + line * BLOCK_SIZE as u64;
        nvm.write_block(addr, &[line as u8 | 1; BLOCK_SIZE])
            .unwrap();
    }
    let live = (live_bytes::live() - before) as usize;
    let payload = lines.len() * LINE;
    let allowance = frames.len() * PER_FRAME + groups.len() * PER_GROUP;
    eprintln!(
        "{shape}: {} lines, {} frames, {} groups: {live} live bytes, {payload} payload, \
         {} allowed",
        lines.len(),
        frames.len(),
        groups.len(),
        payload + allowance
    );
    assert_eq!(nvm.resident_frames(), frames.len(), "{shape}");
    assert!(
        live >= payload,
        "{shape}: {live} live bytes hold {payload} bytes of lines"
    );
    assert!(
        live <= payload + allowance,
        "{shape}: {live} live bytes exceed {payload} of lines + {allowance} allowed"
    );
}

#[test]
fn full_groups_of_single_line_frames() {
    // kv_read's shape: every frame of 64 consecutive groups holds one line.
    let writes: Vec<(u64, u64)> = (0..64 * GROUP).map(|frame| (frame, frame % 64)).collect();
    check_store("64 full groups of 1-line frames", 1, &writes);
}

#[test]
fn frames_filled_past_half_in_random_line_order() {
    // 33 of 64 lines: one past the point where a doubling store holds 64.
    let mut rng = Rng::seed_from_u64(0x33);
    let mut writes = Vec::new();
    for frame in 1000..1256 {
        let mut order: [u64; 64] = core::array::from_fn(|line| line as u64);
        rng.shuffle(&mut order);
        writes.extend(order.iter().take(33).map(|&line| (frame, line)));
    }
    check_store("256 frames of 33 lines", 1, &writes);
}

#[test]
fn single_line_frames_scattered_over_two_tib() {
    let mut rng = Rng::seed_from_u64(0x2_7B);
    let frames_2tib = (2u64 << 40) / FRAME_SIZE as u64;
    let writes: Vec<(u64, u64)> = (0..512)
        .map(|_| (rng.gen_range(0..frames_2tib), rng.gen_range(0..64)))
        .collect();
    check_store("512 scattered 1-line frames", 2048, &writes);
}
