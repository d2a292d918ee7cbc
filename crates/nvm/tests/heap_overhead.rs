//! Host memory of the device's frame store follows its payload.
//!
//! A touched frame stores only its non-zero lines, with no spare capacity,
//! and touched frames sit 64 to a B-tree entry. A frame of full lines
//! stores 64 B per line; a frame whose lines are mostly zero words stores
//! one word-mask byte per line and 8 B per non-zero word instead. These
//! tests pin what the store may cost beyond its payload: a frame's line
//! mask and pointer, a word mask per line of a word-sparse frame, and a
//! group's share of the B-tree. A store that grows by doubling, keeps a
//! whole 64 B per line of a mostly-zero frame, or uses one B-tree entry per
//! frame fails them.
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

/// A word-sparse frame's word mask for one stored line.
const PER_LINE: usize = size_of::<u8>();
/// A non-zero word of a word-sparse frame.
const WORD: usize = size_of::<u64>();

/// Writes `block(frame, line)` at each `(frame, line)` of `writes` on a
/// fresh device of `capacity_gib`, then checks the live bytes that added
/// against the payload plus the per-line, per-frame and per-group
/// allowances. `per_line` is what the layout charges a stored line besides
/// its payload, and `payload` counts a distinct line's payload bytes.
fn check(
    shape: &str,
    capacity_gib: u64,
    writes: &[(u64, u64)],
    block: impl Fn(u64, u64) -> [u8; BLOCK_SIZE],
    per_line: usize,
    payload: impl Fn(&[u8; BLOCK_SIZE]) -> usize,
) {
    let lines: BTreeSet<(u64, u64)> = writes.iter().copied().collect();
    let frames: BTreeSet<u64> = lines.iter().map(|&(frame, _)| frame).collect();
    let groups: BTreeSet<u64> = frames.iter().map(|frame| frame / GROUP).collect();
    let mut nvm = Nvm::new(NvmConfig::gib(capacity_gib));
    let before = live_bytes::live();
    for &(frame, line) in writes {
        let addr = frame * FRAME_SIZE as u64 + line * BLOCK_SIZE as u64;
        nvm.write_block(addr, &block(frame, line)).unwrap();
    }
    let live = (live_bytes::live() - before) as usize;
    let payload: usize = lines
        .iter()
        .map(|&(frame, line)| payload(&block(frame, line)))
        .sum();
    let allowance = lines.len() * per_line + frames.len() * PER_FRAME + groups.len() * PER_GROUP;
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

/// [`check`] for full lines: 64 B of payload each, nothing more per line.
fn check_store(shape: &str, capacity_gib: u64, writes: &[(u64, u64)]) {
    let block = |_, line| [line as u8 | 1; BLOCK_SIZE];
    check(shape, capacity_gib, writes, block, 0, |_| LINE);
}

/// [`check`] for lines of mostly zero words: 8 B of payload per non-zero
/// word, and a word-mask byte per line.
fn check_sparse_store(
    shape: &str,
    writes: &[(u64, u64)],
    block: impl Fn(u64, u64) -> [u8; BLOCK_SIZE],
) {
    let words = |line: &[u8; BLOCK_SIZE]| {
        let nonzero = line
            .chunks(WORD)
            .filter(|word| word.iter().any(|&b| b != 0));
        nonzero.count() * WORD
    };
    check(shape, 1, writes, block, PER_LINE, words);
}

/// Line `line` of frame `frame` with its words `words` non-zero and its
/// other words zero.
fn words_at(frame: u64, line: u64, words: impl IntoIterator<Item = u64>) -> [u8; BLOCK_SIZE] {
    let mut block = [0; BLOCK_SIZE];
    for word in words {
        let value = ((frame * 64 + line) * 8 + word).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let at = word as usize * WORD;
        block[at..at + WORD].copy_from_slice(&value.to_le_bytes());
    }
    block
}

/// Every line of the first 1,024 frames: 16 full groups.
fn every_line() -> Vec<(u64, u64)> {
    (0..16 * GROUP)
        .flat_map(|frame| (0..64).map(move |line| (frame, line)))
        .collect()
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

#[test]
fn hmac_frames_of_one_word_lines() {
    // kv_read's HMAC shape: one key per page, so of a page's eight HMAC
    // lines only the first holds a MAC, in its first word.
    let writes: Vec<(u64, u64)> = (0..16 * GROUP)
        .flat_map(|frame| (0..8).map(move |page| (frame, page * 8)))
        .collect();
    check_sparse_store("1024 HMAC frames", &writes, |frame, line| {
        words_at(frame, line, [0])
    });
}

#[test]
fn counter_frames_of_one_word_lines() {
    // kv_read's counter shape: each page's counter line holds one non-zero
    // word.
    check_sparse_store("1024 counter frames", &every_line(), |frame, line| {
        words_at(frame, line, [1])
    });
}

#[test]
fn frames_mixing_full_and_one_word_lines() {
    // Eight full lines beside 56 one-word lines: 120 words, stored
    // word-sparse in 1,024 B where dense takes 4,096 B.
    check_sparse_store(
        "1024 mixed frames",
        &every_line(),
        |frame, line| match line {
            0..8 => words_at(frame, line, 0..8),
            _ => words_at(frame, line, [line % 8]),
        },
    );
}
