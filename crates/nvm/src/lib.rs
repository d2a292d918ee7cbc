//! # amnt-nvm
//!
//! A byte-addressable storage-class-memory (SCM/PCM) device model.
//!
//! The device is *functional* — it stores real bytes, sparsely — and counts
//! traffic. It is untimed: media latency (Table 1's 305 ns read, 391 ns
//! write) is charged by the controller's `MemTiming` and `MemoryTimeline`
//! in `amnt-core`. Crucially it is *non-volatile*: [`Nvm::crash`] leaves the
//! media intact and only bumps a generation counter; volatility lives in the
//! caches and controller registers built on top.
//!
//! ## Storage
//!
//! A 4 KiB frame is touched on its first write and stores only its
//! non-zero 64 B lines, with no spare capacity, in whichever of two layouts
//! is smaller for its content. *Dense*, the layout of ciphertext, keeps 64 B
//! per stored line. *Word-sparse*, the layout of counter and HMAC lines
//! that a sparse page write leaves mostly zero, keeps one word-mask byte
//! per stored line and only the non-zero 8 B words. Touched frames live in
//! a [`FrameMap`]: one B-tree entry per 64 consecutive frames, holding a
//! presence mask and the present frames in order. Host memory therefore
//! follows the content: the smaller of 64 B per non-zero line and 1 B per
//! non-zero line plus 8 B per non-zero word, 24 B per touched frame (its
//! line mask and line pointer), and a 32 B B-tree entry plus its share of
//! the tree's nodes per group of 64 frames. Reads, images and the touched
//! set do not depend on the layout.
//!
//! [`FrameMap`] is public because other sparse per-frame records share its
//! shape: the controller's wear ledger in `amnt-core`, and `amnt-os`'s page
//! tables (by virtual page number) and buddy allocation records (by
//! physical frame number).
//! [`FrameMap::remove`] shrinks a group to fit and drops a group it empties.
//!
//! ## Example
//!
//! ```
//! use amnt_nvm::{Nvm, NvmConfig};
//!
//! let mut nvm = Nvm::new(NvmConfig::gib(1));
//! nvm.write_block(0x40, &[7u8; 64])?;
//! nvm.crash(); // power failure: media survives
//! assert_eq!(nvm.read_block(0x40)?, [7u8; 64]);
//! # Ok::<(), amnt_nvm::NvmError>(())
//! ```

#![forbid(unsafe_code)]
// Engine code reports through amnt-trace, never stdout or stderr
// (DESIGN.md §2b).
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

use std::collections::VecDeque;
use std::fmt;

mod fault;
mod frame_map;
use fault::FaultAction;
pub use fault::{CrashWriteMode, FaultPlan, TornHalf, WriteClass};
use frame_map::bit;
pub use frame_map::FrameMap;
use std::ops::Range;

/// Size of a memory block (cache line) in bytes.
pub const BLOCK_SIZE: usize = 64;
/// Size of a backing frame in bytes — the granule of *touch*. A frame is
/// touched once any byte in it is written; sparse consumers (the
/// O(touched) recovery paths) partition the address space at this granule
/// via [`Nvm::touched_frames`]. Storage is finer: a frame holds only its
/// non-zero [`BLOCK_SIZE`] lines, whole or as their non-zero 8 B words
/// (see the crate docs), and frames are grouped 64 to an entry of a
/// [`FrameMap`] keyed by frame index (`addr / FRAME_SIZE`).
pub const FRAME_SIZE: usize = 4096;

const _: () = assert!(
    FRAME_SIZE / BLOCK_SIZE == u64::BITS as usize,
    "one mask bit per line"
);

/// Bytes per word: the granule the word-sparse layout stores or drops.
const WORD: usize = 8;

/// One touched frame: its non-zero lines in line order, in whichever of two
/// layouts is smaller.
///
/// - *Dense*: each stored line's [`BLOCK_SIZE`] bytes.
/// - *Word-sparse*: one word-mask byte per stored line (bit `j` set when
///   the line's 8 B word `j` is non-zero), packed ahead of the stored
///   lines' non-zero words.
///
/// A frame is word-sparse only when that is strictly smaller, so the
/// stored length tells the layouts apart: `64 * lines` bytes is dense, and
/// anything shorter is word-sparse. An all-zero line is not stored, so a
/// frame written only with zeros stays touched and stores nothing.
#[derive(Debug, Clone, Default)]
struct Frame {
    /// Bit `i` set when line `i` holds a non-zero byte.
    lines: u64,
    /// The stored lines in one of the two layouts, with no spare capacity.
    bytes: Box<[u8]>,
}

/// Where a stored line sits in its frame's bytes.
enum Stored {
    /// The line's [`BLOCK_SIZE`] bytes.
    Dense(Range<usize>),
    /// The line's word mask, and its non-zero words in word order.
    Sparse(u8, Range<usize>),
}

impl Frame {
    /// Number of stored lines.
    fn count(&self) -> usize {
        self.lines.count_ones() as usize
    }

    /// Whether the frame holds the dense layout.
    fn dense(&self) -> bool {
        self.bytes.len() == self.count() * BLOCK_SIZE
    }

    /// Where line `line` is stored, or `None` if it reads as zero.
    fn locate(&self, line: u32) -> Option<Stored> {
        if self.lines & bit(line) == 0 {
            return None;
        }
        let rank = (self.lines & bit(line).wrapping_sub(1)).count_ones() as usize;
        if self.dense() {
            let at = rank * BLOCK_SIZE;
            return Some(Stored::Dense(at..at + BLOCK_SIZE));
        }
        let mask = *self.bytes.get(rank)?;
        let at = self.count() + WORD * self.words_before(rank);
        Some(Stored::Sparse(
            mask,
            at..at + WORD * mask.count_ones() as usize,
        ))
    }

    /// The words a word-sparse frame keeps for its first `rank` lines: the
    /// set bits of their word masks, read eight masks at a time. A stored
    /// line keeps at least one word, so the eight bytes from the group of
    /// masks that holds mask `rank` on are in range.
    fn words_before(&self, rank: usize) -> usize {
        let groups = self.bytes.as_chunks::<WORD>().0;
        let (whole, part) = (rank / WORD, rank % WORD);
        let low = groups.get(whole).map_or(0, |group| {
            u64::from_le_bytes(*group) & bit(8 * part as u32).wrapping_sub(1)
        });
        let below = groups
            .iter()
            .take(whole)
            .map(|group| u64::from_le_bytes(*group));
        below
            .chain([low])
            .map(|masks| masks.count_ones() as usize)
            .sum()
    }

    /// Copies the frame's bytes from `offset` on into `out`; lines not
    /// stored read as zero.
    fn copy_out(&self, offset: usize, out: &mut [u8]) {
        let mut rest = out;
        for (line, within, take) in pieces(offset as u64, rest.len(), BLOCK_SIZE) {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(take);
            match self.locate(line as u32) {
                Some(Stored::Dense(at)) => {
                    let piece = at.start + within..at.start + within + take;
                    match self.bytes.get(piece) {
                        Some(bytes) => head.copy_from_slice(bytes),
                        None => head.fill(0),
                    }
                }
                Some(Stored::Sparse(mask, at)) => {
                    let mut words = self.bytes.get(at).unwrap_or_default();
                    if take == BLOCK_SIZE {
                        head.fill(0);
                        unpack(mask, &mut words, head);
                    } else {
                        let mut line = [0u8; BLOCK_SIZE];
                        unpack(mask, &mut words, &mut line);
                        match line.get(within..within + take) {
                            Some(bytes) => head.copy_from_slice(bytes),
                            None => head.fill(0),
                        }
                    }
                }
                None => head.fill(0),
            }
            rest = tail;
        }
    }

    /// Writes `data` into the frame from `offset` on, one line at a time
    /// (see [`Frame::store`]).
    fn copy_in(&mut self, offset: usize, data: &[u8]) {
        let mut rest = data;
        for (line, within, take) in pieces(offset as u64, rest.len(), BLOCK_SIZE) {
            let (head, tail) = rest.split_at(take);
            let mut merged = [0u8; BLOCK_SIZE];
            let new = match head.first_chunk::<BLOCK_SIZE>() {
                Some(whole) => whole,
                None => {
                    self.copy_out(line as usize * BLOCK_SIZE, &mut merged);
                    if let Some(bytes) = merged.get_mut(within..within + take) {
                        bytes.copy_from_slice(head);
                    }
                    &merged
                }
            };
            self.store(line as u32, new);
            rest = tail;
        }
    }

    /// Makes line `line` read `new`. A write that keeps the line's
    /// zero-word pattern updates it in place and keeps the layout. So does
    /// one that leaves a dense frame's line non-zero, except that the frame
    /// is decided again if a word turned zero. Any other write splices the
    /// line in, out or over (see [`Frame::splice`]).
    fn store(&mut self, line: u32, new: &[u8; BLOCK_SIZE]) {
        let mask = word_mask(new);
        match self.locate(line) {
            None if mask == 0 => {}
            None => self.splice(line, new, mask, 0),
            Some(Stored::Dense(at)) => {
                let Some(stored) = self.bytes.get_mut(at) else {
                    return;
                };
                let old = word_mask(stored);
                if mask == 0 {
                    self.splice(line, new, mask, old);
                } else {
                    stored.copy_from_slice(new);
                    if mask & old != old {
                        self.settle(false);
                    }
                }
            }
            Some(Stored::Sparse(old, at)) => {
                if mask != old {
                    self.splice(line, new, mask, old);
                } else if let Some(stored) = self.bytes.get_mut(at) {
                    let slots = stored.as_chunks_mut::<WORD>().0.iter_mut();
                    let words = new.as_chunks::<WORD>().0.iter().filter(|w| nonzero(w));
                    for (slot, word) in slots.zip(words) {
                        *slot = *word;
                    }
                }
            }
        }
    }

    /// Replaces line `line`, stored with word mask `old` (0: not stored),
    /// by `new` with word mask `mask`, resizing the frame's bytes to fit
    /// exactly in the current layout; then switches the frame to the other
    /// layout if that is now the smaller. A full line keeps a dense frame
    /// dense.
    fn splice(&mut self, line: u32, new: &[u8; BLOCK_SIZE], mask: u8, old: u8) {
        let rank = (self.lines & bit(line).wrapping_sub(1)).count_ones() as usize;
        let had = usize::from(old != 0);
        let keeps = usize::from(mask != 0);
        let sparse = !self.dense();
        let at = if sparse {
            self.count() + WORD * self.words_before(rank)
        } else {
            rank * BLOCK_SIZE
        };
        let mut bytes = std::mem::take(&mut self.bytes).into_vec();
        if sparse {
            let (packed, len) = pack(new);
            bytes.reserve_exact(
                (keeps + len).saturating_sub(had + WORD * old.count_ones() as usize),
            );
            // The words sit past the masks, so they go first.
            replace(
                &mut bytes,
                at..at + WORD * old.count_ones() as usize,
                &packed[..len],
            );
            replace(&mut bytes, rank..rank + had, &[mask][..keeps]);
        } else {
            bytes.reserve_exact((keeps * BLOCK_SIZE).saturating_sub(had * BLOCK_SIZE));
            replace(
                &mut bytes,
                at..at + had * BLOCK_SIZE,
                &new[..keeps * BLOCK_SIZE],
            );
        }
        self.bytes = bytes.into_boxed_slice();
        if mask == 0 {
            self.lines &= !bit(line);
        } else {
            self.lines |= bit(line);
        }
        if sparse || mask != u8::MAX {
            self.settle(sparse);
        }
    }

    /// Switches a frame that holds the word-sparse layout if `sparse`, and
    /// the dense one otherwise, to the other layout if that is the smaller.
    fn settle(&mut self, sparse: bool) {
        let n = self.count();
        let words = if sparse {
            self.bytes.len().saturating_sub(n) / WORD
        } else {
            self.bytes
                .chunks_exact(BLOCK_SIZE)
                .map(|line| word_mask(line).count_ones() as usize)
                .sum()
        };
        if sparse_is_smaller(n, words) != sparse {
            self.bytes = if sparse {
                densify(&self.bytes, n)
            } else {
                sparsify(&self.bytes, words)
            };
        }
    }
}

/// The dense layout of the word-sparse `bytes` of `lines` stored lines.
fn densify(bytes: &[u8], lines: usize) -> Box<[u8]> {
    let (masks, mut words) = bytes.split_at(lines.min(bytes.len()));
    let mut dense = vec![0u8; lines * BLOCK_SIZE].into_boxed_slice();
    for (&mask, line) in masks.iter().zip(dense.chunks_exact_mut(BLOCK_SIZE)) {
        unpack(mask, &mut words, line);
    }
    dense
}

/// The word-sparse layout of the dense `bytes`, whose lines hold `words`
/// non-zero words.
fn sparsify(bytes: &[u8], words: usize) -> Box<[u8]> {
    let lines = bytes.as_chunks::<BLOCK_SIZE>().0;
    let mut packed = vec![0u8; lines.len() + WORD * words].into_boxed_slice();
    let (masks, rest) = packed.split_at_mut(lines.len());
    let mut slots = rest.as_chunks_mut::<WORD>().0.iter_mut();
    for (mask, line) in masks.iter_mut().zip(lines) {
        *mask = word_mask(line);
        for word in line.as_chunks::<WORD>().0.iter().filter(|w| nonzero(w)) {
            if let Some(slot) = slots.next() {
                *slot = *word;
            }
        }
    }
    packed
}

/// Whether the word-sparse layout of `lines` stored lines holding `words`
/// non-zero words is strictly smaller than the dense one.
fn sparse_is_smaller(lines: usize, words: usize) -> bool {
    lines + WORD * words < BLOCK_SIZE * lines
}

/// Whether an 8 B word is non-zero.
fn nonzero(word: &[u8; WORD]) -> bool {
    u64::from_ne_bytes(*word) != 0
}

/// A line's word mask: bit `j` set when its word `j` is non-zero.
fn word_mask(line: &[u8]) -> u8 {
    let words = line.as_chunks::<WORD>().0.iter();
    (0..)
        .zip(words)
        .fold(0, |mask, (j, word)| mask | u8::from(nonzero(word)) << j)
}

/// `line`'s non-zero words packed to the front, and their length in bytes.
fn pack(line: &[u8; BLOCK_SIZE]) -> ([u8; BLOCK_SIZE], usize) {
    let mut packed = [0u8; BLOCK_SIZE];
    let mut slots = packed.as_chunks_mut::<WORD>().0.iter_mut();
    let mut len = 0;
    for word in line.as_chunks::<WORD>().0.iter().filter(|w| nonzero(w)) {
        if let Some(slot) = slots.next() {
            *slot = *word;
            len += WORD;
        }
    }
    (packed, len)
}

/// Fills the words of the zeroed `line` that its word mask `mask` keeps
/// from the front of `words`, and moves `words` past them.
fn unpack(mask: u8, words: &mut &[u8], line: &mut [u8]) {
    let slots = line.as_chunks_mut::<WORD>().0;
    let mut rest = mask;
    while rest != 0 {
        let slot = slots.get_mut(rest.trailing_zeros() as usize);
        rest &= rest - 1;
        if let (Some(slot), Some((word, tail))) = (slot, words.split_first_chunk::<WORD>()) {
            *slot = *word;
            *words = tail;
        }
    }
}

/// Replaces `range` of `bytes` (clamped to its length) by `with`, moving
/// the bytes after it once.
fn replace(bytes: &mut Vec<u8>, range: Range<usize>, with: &[u8]) {
    let len = bytes.len();
    let (start, end) = (range.start.min(len), range.end.min(len));
    let resized = len - (end - start) + with.len();
    if resized > len {
        bytes.resize(resized, 0);
    }
    bytes.copy_within(end..len, start + with.len());
    bytes.truncate(resized);
    if let Some(at) = bytes.get_mut(start..start + with.len()) {
        at.copy_from_slice(with);
    }
}

/// Cuts the byte span `[start, start + len)` at every multiple of
/// `granule`, yielding `(start / granule, start % granule, length)` for
/// each piece in address order.
fn pieces(start: u64, len: usize, granule: usize) -> impl Iterator<Item = (u64, usize, usize)> {
    let granule = granule as u64;
    let end = start.saturating_add(len as u64);
    let mut at = start;
    std::iter::from_fn(move || {
        (at < end).then(|| {
            let within = at % granule;
            let take = (end - at).min(granule - within);
            let piece = (at / granule, within as usize, take as usize);
            at += take;
            piece
        })
    })
}

/// Device geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NvmConfig {
    /// Device capacity in bytes.
    pub capacity_bytes: u64,
}

impl NvmConfig {
    /// A device of `gib` GiB.
    pub fn gib(gib: u64) -> Self {
        NvmConfig {
            capacity_bytes: gib * 1024 * 1024 * 1024,
        }
    }

    /// The paper's default 8 GiB PCM device (Table 1).
    pub fn paper_default() -> Self {
        Self::gib(8)
    }
}

impl Default for NvmConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Errors returned by device accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NvmError {
    /// The access falls (partly) outside the device.
    OutOfBounds {
        /// Requested address.
        addr: u64,
        /// Requested length.
        len: usize,
        /// Device capacity.
        capacity: u64,
    },
    /// A block access was not 64-byte aligned.
    Misaligned {
        /// Requested address.
        addr: u64,
    },
    /// Power failed at (or before) this access: an armed [`FaultPlan`] cut
    /// power, and the device fail-stops until [`Nvm::crash`] power-cycles
    /// it. Surfacing the failure on every access guarantees an interrupted
    /// operation cannot silently keep mutating the media.
    PowerFailure {
        /// Address of the access the failure surfaced on.
        addr: u64,
    },
}

impl fmt::Display for NvmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NvmError::OutOfBounds {
                addr,
                len,
                capacity,
            } => write!(
                f,
                "access of {len} bytes at {addr:#x} exceeds device capacity {capacity:#x}"
            ),
            NvmError::Misaligned { addr } => {
                write!(f, "block access at {addr:#x} is not 64-byte aligned")
            }
            NvmError::PowerFailure { addr } => {
                write!(f, "power failed during the access at {addr:#x}")
            }
        }
    }
}

impl std::error::Error for NvmError {}

/// Traffic counters for the device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NvmStats {
    /// Block/byte-range reads issued.
    pub reads: u64,
    /// Block/byte-range writes issued.
    pub writes: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
}

/// The SCM device.
///
/// See the crate-level docs for the modelling contract and an example.
#[derive(Debug, Clone, Default)]
pub struct Nvm {
    config: NvmConfig,
    /// Touched frames keyed by frame index (`addr / FRAME_SIZE`), each
    /// holding only its non-zero lines. Ordered so touched-frame enumeration
    /// is deterministic regardless of touch order.
    frames: FrameMap<Frame>,
    stats: NvmStats,
    /// Bumped on every crash; lets tests assert they really crossed one.
    generation: u64,
    /// Fault plan armed for this power cycle, consulted once per
    /// device-write ordinal.
    fault: Option<FaultPlan>,
    /// Device-write ordinals consumed since the plan was armed.
    fault_seq: u64,
    /// Class the controller declared for writes currently being issued
    /// (protocol-ordered vs eviction writeback); see [`Nvm::set_write_class`].
    write_class: WriteClass,
    /// Ordinals (current domain) consumed by eviction-class writes, recorded
    /// while a plan is armed so sweeps can enumerate them as their own
    /// crash-point class.
    evict_seqs: Vec<u64>,
    /// Set once an armed plan cuts power: every access fails until
    /// [`Nvm::crash`] power-cycles the device.
    powered_off: bool,
    /// Nesting depth of [`Nvm::begin_atomic`] groups.
    group_depth: u32,
    /// Whether the current atomic group already consumed its ordinal.
    group_charged: bool,
    /// Pre-images journaled for the currently open atomic group.
    open_group: Vec<(u64, Vec<u8>)>,
    /// Bounded undo journal of recent writes (newest at the back), one entry
    /// per device-write ordinal — the modelled write-pending queue. Only
    /// populated while a fault plan is armed.
    journal: VecDeque<Vec<(u64, Vec<u8>)>>,
    /// Whether the last crash interrupted in-flight work (a power failure
    /// surfaced mid-write, or the WPQ tail was dropped) — the NVDIMM-style
    /// "dirty shutdown" flag recovery consults.
    dirty_shutdown: bool,
    /// Trace-layer sink (disabled by default): device traffic counters,
    /// WPQ-journal enqueue/drain counters, and fault-strike records. Counts
    /// independently of [`NvmStats`] so the tracer can reset it without
    /// disturbing artifact-visible statistics.
    trace: amnt_trace::CompTrace,
}

/// Modelled write-pending-queue depth: the undo journal keeps at most this
/// many device-write ordinals; older writes have drained to the media.
const JOURNAL_DEPTH: usize = 128;

impl Nvm {
    /// Creates a device; all bytes read as zero until written.
    pub fn new(config: NvmConfig) -> Self {
        Nvm {
            config,
            frames: FrameMap::default(),
            stats: NvmStats::default(),
            generation: 0,
            fault: None,
            fault_seq: 0,
            write_class: WriteClass::Protocol,
            evict_seqs: Vec::new(),
            powered_off: false,
            group_depth: 0,
            group_charged: false,
            open_group: Vec::new(),
            journal: VecDeque::new(),
            dirty_shutdown: false,
            trace: amnt_trace::CompTrace::default(),
        }
    }

    /// The device configuration.
    pub fn config(&self) -> NvmConfig {
        self.config
    }

    /// Traffic statistics.
    pub fn stats(&self) -> &NvmStats {
        &self.stats
    }

    /// Resets traffic statistics (e.g. at a region-of-interest boundary).
    pub fn reset_stats(&mut self) {
        self.stats = NvmStats::default();
    }

    /// How many crashes this device has survived.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Power failure: media persists, generation bumps.
    ///
    /// Volatile state (caches, on-chip volatile registers) is owned by the
    /// layers above and must be cleared by them.
    ///
    /// If a [`FaultPlan`] is armed, it may drop the journaled
    /// write-pending-queue tail (newest writes undone first), and the
    /// device then power-cycles — accesses work again — with the plan
    /// disarmed and the ordinal counter restarted at zero. To fault the next
    /// power cycle (the recovery procedure), arm a plan on the crashed
    /// device. The dirty-shutdown flag records whether this crash
    /// interrupted in-flight work (see [`Nvm::dirty_shutdown`]).
    pub fn crash(&mut self) {
        let mut dropped = 0usize;
        if let Some(plan) = self.fault.take() {
            let tail = plan.drop_wpq_tail;
            // A torn or rejected write already landed its partial effects;
            // the open-group journal (if an atomic group was cut short) and
            // the committed journal both hold undo candidates. The open
            // group is newest, so it is undone first.
            if tail > 0 && !self.open_group.is_empty() {
                let group = std::mem::take(&mut self.open_group);
                self.record_wpq_drop(&group, dropped as u64);
                self.undo_group(group);
                dropped += 1;
            }
            while dropped < tail {
                match self.journal.pop_back() {
                    Some(group) => {
                        self.record_wpq_drop(&group, dropped as u64);
                        self.undo_group(group);
                        dropped += 1;
                    }
                    None => break,
                }
            }
        }
        self.dirty_shutdown = self.powered_off || dropped > 0;
        self.journal.clear();
        self.open_group.clear();
        self.group_depth = 0;
        self.group_charged = false;
        self.powered_off = false;
        self.fault_seq = 0;
        self.write_class = WriteClass::Protocol;
        self.evict_seqs.clear();
        self.generation += 1;
    }

    /// Undoes one journaled ordinal: restores pre-images newest-first.
    fn undo_group(&mut self, group: Vec<(u64, Vec<u8>)>) {
        for (addr, pre) in group.into_iter().rev() {
            self.poke(addr, &pre);
        }
    }

    /// Whether the last [`Nvm::crash`] interrupted in-flight work: a power
    /// failure surfaced mid-write, or part of the write-pending queue was
    /// lost. Mirrors the NVDIMM dirty-shutdown count; recovery uses it to
    /// decide whether the ordered-write-through invariants may have been
    /// violated mid-operation.
    pub fn dirty_shutdown(&self) -> bool {
        self.dirty_shutdown
    }

    // ------------------------------------------------------------------
    // Fault plan plumbing
    // ------------------------------------------------------------------

    /// Arms `plan` for the rest of this power cycle: from now on every
    /// device-write ordinal consults it and recent writes are journaled for
    /// WPQ-tail drops. Resets the ordinal counter. The next [`Nvm::crash`]
    /// disarms it. Armed on a device that [`Nvm::crash`] just power-cycled,
    /// the plan faults that power cycle's writes from ordinal 0 — a
    /// recovery run next makes recovery's first write ordinal 0.
    pub fn arm_fault_hook(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
        self.fault_seq = 0;
        self.write_class = WriteClass::Protocol;
        self.evict_seqs.clear();
        self.powered_off = false;
    }

    /// Whether a fault plan is currently armed.
    pub fn fault_armed(&self) -> bool {
        self.fault.is_some()
    }

    /// Whether an armed plan has cut power (accesses currently fail).
    pub fn powered_off(&self) -> bool {
        self.powered_off
    }

    /// Device-write ordinals consumed since the plan was armed (an atomic
    /// group counts once). The crash-point coordinate system of
    /// [`FaultPlan`]. Restarts at zero on every [`Nvm::crash`], so a plan
    /// armed after a crash counts the *recovery-phase* domain. Ordinals are
    /// scoped to this device: two devices consume ordinals independently.
    pub fn device_write_ordinals(&self) -> u64 {
        self.fault_seq
    }

    /// Declares the class of the writes the controller is about to issue
    /// (sticky until changed; reset to [`WriteClass::Protocol`] on arm and
    /// on crash). Purely observational: fault decisions never depend on it.
    pub fn set_write_class(&mut self, class: WriteClass) {
        self.write_class = class;
    }

    /// Ordinals in the current domain consumed by [`WriteClass::Eviction`]
    /// writes, in consumption order. Empty unless a plan is armed.
    pub fn eviction_write_ordinals(&self) -> &[u64] {
        &self.evict_seqs
    }

    /// Byte-exact image of the persisted media: every touched frame's base
    /// byte address and 4 KiB contents (unwritten lines read as zero),
    /// sorted, with all-zero frames normalised away — two devices with
    /// equal images serve identical bytes at every address. The idempotence
    /// sweeps compare post-recovery media states with this.
    pub fn media_image(&self) -> Vec<(u64, Vec<u8>)> {
        // FrameMap iteration is already sorted by frame index, and a frame
        // stores only its non-zero lines, so one storing none is all zero.
        self.frames
            .iter()
            .filter(|(_, frame)| frame.lines != 0)
            .map(|(index, frame)| {
                let mut image = vec![0u8; FRAME_SIZE];
                frame.copy_out(0, &mut image);
                (index * FRAME_SIZE as u64, image)
            })
            .collect()
    }

    /// Deterministic enumeration of every touched (backed) frame: ordered
    /// base byte addresses, ascending. A frame is *touched* once any byte in
    /// it has ever been written (even with zeros); untouched frames read as
    /// zero and never appear here. This is the contract the O(touched)
    /// recovery paths scan instead of the address space.
    pub fn touched_frames(&self) -> impl Iterator<Item = u64> + '_ {
        self.frames
            .iter()
            .map(|(index, _)| index * FRAME_SIZE as u64)
    }

    /// [`Nvm::touched_frames`] restricted to base addresses in
    /// `[start, end)`. `start` need not be frame-aligned: a frame whose base
    /// lies below `start` but which overlaps it is included, since bytes in
    /// `[start, end)` may live there. An empty or reversed range
    /// (`end <= start`) yields nothing.
    pub fn touched_frames_in(&self, start: u64, end: u64) -> impl Iterator<Item = u64> + '_ {
        let frames = if end <= start {
            0..0
        } else {
            start / FRAME_SIZE as u64..end.div_ceil(FRAME_SIZE as u64)
        };
        self.frames
            .range(frames)
            .map(|(index, _)| index * FRAME_SIZE as u64)
    }

    /// Whether the frame containing `addr` is backed (has ever been written).
    pub fn frame_touched(&self, addr: u64) -> bool {
        self.frames.contains(addr / FRAME_SIZE as u64)
    }

    /// Opens an atomic write group: until the matching [`Nvm::end_atomic`],
    /// all writes share one device-write ordinal — they persist or fail as
    /// a unit (a hardware write transaction, e.g. page re-encryption). A
    /// torn fault at the group's ordinal degrades to a clean power-off:
    /// atomic groups never tear. Groups nest; only the outermost brackets.
    pub fn begin_atomic(&mut self) {
        self.group_depth += 1;
    }

    /// Closes an atomic write group (see [`Nvm::begin_atomic`]).
    pub fn end_atomic(&mut self) {
        self.group_depth = self.group_depth.saturating_sub(1);
        if self.group_depth == 0 {
            self.group_charged = false;
            if !self.open_group.is_empty() {
                let group = std::mem::take(&mut self.open_group);
                self.journal_push(group);
            }
        }
    }

    /// Appends one undo entry, bounding the journal to the WPQ depth.
    fn journal_push(&mut self, group: Vec<(u64, Vec<u8>)>) {
        if self.trace.enabled() {
            self.trace.bump("wpq_enqueues");
        }
        self.journal.push_back(group);
        if self.journal.len() > JOURNAL_DEPTH {
            // The oldest write has drained out of the WPQ to the media.
            self.journal.pop_front();
            if self.trace.enabled() {
                self.trace.bump("wpq_drains");
            }
        }
    }

    /// Records one WPQ-tail drop strike (kind 3) for the trace layer.
    fn record_wpq_drop(&mut self, group: &[(u64, Vec<u8>)], drop_index: u64) {
        if self.trace.enabled() {
            self.trace.bump("wpq_dropped");
            let addr = group.first().map(|(a, _)| *a).unwrap_or(0);
            self.trace.strike(drop_index, 3, addr);
        }
    }

    /// Records the pre-image of an imminent write while a plan is armed.
    fn journal_record(&mut self, addr: u64, len: usize) {
        let mut pre = vec![0u8; len];
        self.peek(addr, &mut pre);
        if self.group_depth > 0 {
            self.open_group.push((addr, pre));
        } else {
            self.journal_push(vec![(addr, pre)]);
        }
    }

    /// Raw media restore used by crash modelling: rewinds `addr` to a
    /// pre-crash image with no stats, no ordinal, and no fault-plan
    /// interaction. Rolling back dirty cached lines models *volatility* —
    /// bytes that never actually persisted — not device traffic, so it
    /// counts as no write and no armed plan can cut or journal it.
    pub fn rollback_bytes(&mut self, addr: u64, data: &[u8]) {
        self.poke(addr, data);
    }

    /// Raw media read: no stats, no fault interaction (internal/test use).
    fn peek(&self, addr: u64, buf: &mut [u8]) {
        let mut rest = buf;
        for (index, offset, take) in pieces(addr, rest.len(), FRAME_SIZE) {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(take);
            match self.frames.get(index) {
                Some(frame) => frame.copy_out(offset, head),
                None => head.fill(0),
            }
            rest = tail;
        }
    }

    /// Raw media write: no stats, no fault interaction (internal/test use).
    fn poke(&mut self, addr: u64, data: &[u8]) {
        let mut rest = data;
        for (index, offset, take) in pieces(addr, rest.len(), FRAME_SIZE) {
            let (head, tail) = rest.split_at(take);
            self.frames
                .get_or_insert_default(index)
                .copy_in(offset, head);
            rest = tail;
        }
    }

    fn check(&self, addr: u64, len: usize) -> Result<(), NvmError> {
        if addr
            .checked_add(len as u64)
            .is_none_or(|end| end > self.config.capacity_bytes)
        {
            return Err(NvmError::OutOfBounds {
                addr,
                len,
                capacity: self.config.capacity_bytes,
            });
        }
        Ok(())
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// [`NvmError::OutOfBounds`] if the range exceeds the device, or
    /// [`NvmError::PowerFailure`] once an armed fault plan has cut power.
    pub fn read_bytes(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), NvmError> {
        self.check(addr, buf.len())?;
        if self.powered_off {
            return Err(NvmError::PowerFailure { addr });
        }
        self.stats.reads += 1;
        self.stats.bytes_read += buf.len() as u64;
        if self.trace.enabled() {
            self.trace.bump("device_reads");
        }
        self.peek(addr, buf);
        Ok(())
    }

    /// Writes `data` starting at `addr`. The write is durable immediately:
    /// timing effects (write queues, persist stalls) are modelled by the
    /// memory controller, not the media.
    ///
    /// # Errors
    ///
    /// [`NvmError::OutOfBounds`] if the range exceeds the device, or
    /// [`NvmError::PowerFailure`] when an armed fault plan cuts power at (or
    /// before) this write.
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) -> Result<(), NvmError> {
        self.check(addr, data.len())?;
        if let Some(plan) = self.fault {
            if self.powered_off {
                return Err(NvmError::PowerFailure { addr });
            }
            // Inside an atomic group only the first write consults the plan;
            // the rest of the group rides on the same ordinal.
            let action = if self.group_depth > 0 && self.group_charged {
                FaultAction::Apply
            } else {
                let seq = self.fault_seq;
                self.fault_seq += 1;
                if self.write_class == WriteClass::Eviction {
                    self.evict_seqs.push(seq);
                }
                if self.group_depth > 0 {
                    self.group_charged = true;
                }
                plan.action(seq)
            };
            match action {
                FaultAction::Apply => self.journal_record(addr, data.len()),
                FaultAction::PowerOff => {
                    self.powered_off = true;
                    if self.trace.enabled() {
                        self.trace.strike(self.fault_seq - 1, 0, addr);
                    }
                    return Err(NvmError::PowerFailure { addr });
                }
                FaultAction::Torn(half) => {
                    if self.group_depth > 0 {
                        // Atomic groups never tear: the transaction aborts
                        // wholesale before any byte lands.
                        self.powered_off = true;
                        if self.trace.enabled() {
                            self.trace.strike(self.fault_seq - 1, 0, addr);
                        }
                        return Err(NvmError::PowerFailure { addr });
                    }
                    if self.trace.enabled() {
                        let kind = match half {
                            TornHalf::First => 1,
                            TornHalf::Last => 2,
                        };
                        self.trace.strike(self.fault_seq - 1, kind, addr);
                    }
                    self.journal_record(addr, data.len());
                    let mut merged = vec![0u8; data.len()];
                    self.peek(addr, &mut merged);
                    for (i, b) in data.iter().enumerate() {
                        let line_off = ((addr + i as u64) % BLOCK_SIZE as u64) as usize;
                        let survives = match half {
                            TornHalf::First => line_off < BLOCK_SIZE / 2,
                            TornHalf::Last => line_off >= BLOCK_SIZE / 2,
                        };
                        if survives {
                            merged[i] = *b;
                        }
                    }
                    self.stats.writes += 1;
                    self.stats.bytes_written += data.len() as u64;
                    if self.trace.enabled() {
                        self.trace.bump("device_writes");
                    }
                    self.poke(addr, &merged);
                    self.powered_off = true;
                    return Err(NvmError::PowerFailure { addr });
                }
            }
        }
        self.stats.writes += 1;
        self.stats.bytes_written += data.len() as u64;
        if self.trace.enabled() {
            self.trace.bump("device_writes");
        }
        self.poke(addr, data);
        Ok(())
    }

    /// Reads the 64-byte block at `addr`.
    ///
    /// # Errors
    ///
    /// [`NvmError::Misaligned`] if `addr` is not 64-byte aligned, or
    /// [`NvmError::OutOfBounds`].
    pub fn read_block(&mut self, addr: u64) -> Result<[u8; BLOCK_SIZE], NvmError> {
        if !addr.is_multiple_of(BLOCK_SIZE as u64) {
            return Err(NvmError::Misaligned { addr });
        }
        let mut out = [0u8; BLOCK_SIZE];
        self.read_bytes(addr, &mut out)?;
        Ok(out)
    }

    /// Writes the 64-byte block at `addr`.
    ///
    /// # Errors
    ///
    /// [`NvmError::Misaligned`] if `addr` is not 64-byte aligned, or
    /// [`NvmError::OutOfBounds`].
    pub fn write_block(&mut self, addr: u64, data: &[u8; BLOCK_SIZE]) -> Result<(), NvmError> {
        if !addr.is_multiple_of(BLOCK_SIZE as u64) {
            return Err(NvmError::Misaligned { addr });
        }
        self.write_bytes(addr, data)
    }

    /// Reads a little-endian `u64` at `addr`.
    ///
    /// # Errors
    ///
    /// [`NvmError::OutOfBounds`] if the range exceeds the device.
    pub fn read_u64(&mut self, addr: u64) -> Result<u64, NvmError> {
        let mut buf = [0u8; 8];
        self.read_bytes(addr, &mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    /// Writes a little-endian `u64` at `addr`.
    ///
    /// # Errors
    ///
    /// [`NvmError::OutOfBounds`] if the range exceeds the device.
    pub fn write_u64(&mut self, addr: u64, value: u64) -> Result<(), NvmError> {
        self.write_bytes(addr, &value.to_le_bytes())
    }

    /// Flips one bit on the media — an *active physical attack* (splicing /
    /// corruption) helper for integrity tests. Out-of-bounds addresses panic
    /// since this is test machinery.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the device.
    pub fn tamper_flip_bit(&mut self, addr: u64, bit: u8) {
        assert!(
            addr < self.config.capacity_bytes,
            "tamper address out of range"
        );
        // Raw media access: attacks are not device traffic and never
        // interact with an armed fault plan or the undo journal.
        let mut byte = [0u8];
        self.peek(addr, &mut byte);
        byte[0] ^= 1 << (bit % 8);
        self.poke(addr, &byte);
    }

    /// Number of 4 KiB frames touched so far. Host memory follows the
    /// content, not this count: a touched frame stores only its non-zero
    /// lines, whole or as their non-zero words, plus 24 B of mask and
    /// pointer, and shares one B-tree entry with the other touched frames
    /// of its group of 64 (see the crate docs).
    pub fn resident_frames(&self) -> usize {
        self.frames.len()
    }

    /// The trace-layer sink: device-traffic counters, WPQ-journal
    /// enqueue/drain counters, and fault-strike records. Disabled by default.
    pub fn trace(&self) -> &amnt_trace::CompTrace {
        &self.trace
    }

    /// Enables or disables trace-layer recording for this device.
    pub fn set_tracing(&mut self, on: bool) {
        self.trace.set_enabled(on);
    }

    /// Drains the recorded fault strikes (counters are untouched) so the
    /// controller can promote them to timestamped trace events exactly once.
    pub fn take_trace_strikes(&mut self) -> Vec<amnt_trace::StrikeRecord> {
        self.trace.take_strikes()
    }

    /// Clears trace-layer counters and strike records (keeps the enabled
    /// flag); used when the tracer resets at region-of-interest starts.
    pub fn reset_trace(&mut self) {
        self.trace.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_filled_until_written() {
        let mut nvm = Nvm::new(NvmConfig::gib(1));
        assert_eq!(nvm.read_block(0).unwrap(), [0u8; 64]);
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut nvm = Nvm::new(NvmConfig::gib(1));
        let data: [u8; 64] = core::array::from_fn(|i| i as u8);
        nvm.write_block(0x1000, &data).unwrap();
        assert_eq!(nvm.read_block(0x1000).unwrap(), data);
    }

    #[test]
    fn data_survives_crash() {
        let mut nvm = Nvm::new(NvmConfig::gib(1));
        nvm.write_block(0x40, &[9u8; 64]).unwrap();
        nvm.crash();
        assert_eq!(nvm.generation(), 1);
        assert_eq!(nvm.read_block(0x40).unwrap(), [9u8; 64]);
    }

    #[test]
    fn devices_have_independent_ordinal_domains() {
        // Two devices: ordinals advance independently, and a power cycle
        // restarts one device's domain.
        let mut a = Nvm::new(NvmConfig::gib(1));
        let mut b = Nvm::new(NvmConfig::gib(1));
        a.arm_fault_hook(FaultPlan::count_only());
        b.arm_fault_hook(FaultPlan::count_only());
        for i in 0..5u64 {
            a.write_block(i * 64, &[1u8; 64]).unwrap();
        }
        b.write_block(0, &[2u8; 64]).unwrap();
        assert_eq!(a.device_write_ordinals(), 5);
        assert_eq!(b.device_write_ordinals(), 1, "b counts alone");
        b.crash();
        assert_eq!(b.device_write_ordinals(), 0, "ordinal domain restarts");
        assert_eq!(a.device_write_ordinals(), 5, "a is untouched");
    }

    #[test]
    fn cross_frame_access() {
        let mut nvm = Nvm::new(NvmConfig::gib(1));
        let addr = 4096 - 32; // straddles two frames
        let data = [0xAB; 64];
        nvm.write_bytes(addr, &data).unwrap();
        let mut back = [0u8; 64];
        nvm.read_bytes(addr, &mut back).unwrap();
        assert_eq!(back, data);
        assert_eq!(nvm.resident_frames(), 2);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut nvm = Nvm::new(NvmConfig::gib(1));
        let cap = nvm.config().capacity_bytes;
        assert!(matches!(
            nvm.write_block(cap, &[0; 64]),
            Err(NvmError::OutOfBounds { .. })
        ));
        assert!(nvm.read_u64(cap - 4).is_err());
        // Boundary-exact access is fine.
        assert!(nvm.read_block(cap - 64).is_ok());
    }

    #[test]
    fn misaligned_block_rejected() {
        let mut nvm = Nvm::new(NvmConfig::gib(1));
        assert_eq!(
            nvm.read_block(0x41).unwrap_err(),
            NvmError::Misaligned { addr: 0x41 }
        );
        assert!(nvm.write_block(0x20, &[0; 64]).is_err());
    }

    #[test]
    fn stats_count_traffic() {
        let mut nvm = Nvm::new(NvmConfig::gib(1));
        nvm.write_block(0, &[1; 64]).unwrap();
        nvm.read_block(0).unwrap();
        nvm.read_u64(8).unwrap();
        let s = nvm.stats();
        assert_eq!(s.writes, 1);
        assert_eq!(s.reads, 2);
        assert_eq!(s.bytes_written, 64);
        assert_eq!(s.bytes_read, 72);
    }

    #[test]
    fn tamper_flips_exactly_one_bit() {
        let mut nvm = Nvm::new(NvmConfig::gib(1));
        nvm.write_block(0, &[0u8; 64]).unwrap();
        let before = *nvm.stats();
        nvm.tamper_flip_bit(3, 5);
        assert_eq!(*nvm.stats(), before, "attacks are not device traffic");
        let block = nvm.read_block(0).unwrap();
        assert_eq!(block[3], 1 << 5);
        assert!(block.iter().enumerate().all(|(i, b)| i == 3 || *b == 0));
    }

    #[test]
    fn u64_roundtrip() {
        let mut nvm = Nvm::new(NvmConfig::gib(1));
        nvm.write_u64(0x123, 0xdead_beef_cafe_f00d).unwrap();
        assert_eq!(nvm.read_u64(0x123).unwrap(), 0xdead_beef_cafe_f00d);
    }

    #[test]
    fn crash_after_k_fail_stops_until_power_cycle() {
        let mut nvm = Nvm::new(NvmConfig::gib(1));
        nvm.arm_fault_hook(FaultPlan::crash_after(2));
        nvm.write_block(0, &[1; 64]).unwrap();
        nvm.write_block(64, &[2; 64]).unwrap();
        // The third write is where power fails: nothing lands.
        assert_eq!(
            nvm.write_block(128, &[3; 64]),
            Err(NvmError::PowerFailure { addr: 128 })
        );
        assert!(nvm.powered_off());
        // Fail-stop: reads and further writes also fail.
        assert!(matches!(
            nvm.read_block(0),
            Err(NvmError::PowerFailure { .. })
        ));
        assert!(nvm.write_block(192, &[4; 64]).is_err());
        nvm.crash();
        assert!(nvm.dirty_shutdown());
        assert!(!nvm.fault_armed());
        // Power restored; the surviving prefix is intact, the cut write is not.
        assert_eq!(nvm.read_block(0).unwrap(), [1; 64]);
        assert_eq!(nvm.read_block(64).unwrap(), [2; 64]);
        assert_eq!(nvm.read_block(128).unwrap(), [0; 64]);
        // A later clean crash clears the dirty-shutdown flag.
        nvm.crash();
        assert!(!nvm.dirty_shutdown());
    }

    #[test]
    fn torn_write_persists_exactly_one_half_per_line() {
        for (half, lo, hi) in [(TornHalf::First, 0xAB, 0x00), (TornHalf::Last, 0x00, 0xAB)] {
            let mut nvm = Nvm::new(NvmConfig::gib(1));
            nvm.arm_fault_hook(FaultPlan::torn_after(0, half));
            assert!(nvm.write_block(64, &[0xAB; 64]).is_err());
            nvm.crash();
            let block = nvm.read_block(64).unwrap();
            assert!(block[..32].iter().all(|&b| b == lo), "{half:?}: {block:?}");
            assert!(block[32..].iter().all(|&b| b == hi), "{half:?}: {block:?}");
        }
    }

    #[test]
    fn torn_write_tears_every_overlapped_line_of_a_span() {
        let mut nvm = Nvm::new(NvmConfig::gib(1));
        nvm.arm_fault_hook(FaultPlan::torn_after(0, TornHalf::First));
        // A 128-byte span covering two whole lines: each line keeps only its
        // own first half.
        assert!(nvm.write_bytes(0, &[0xCD; 128]).is_err());
        nvm.crash();
        for line in 0..2u64 {
            let block = nvm.read_block(line * 64).unwrap();
            assert!(block[..32].iter().all(|&b| b == 0xCD));
            assert!(block[32..].iter().all(|&b| b == 0));
        }
    }

    #[test]
    fn dropped_wpq_tail_undoes_the_newest_writes() {
        let mut nvm = Nvm::new(NvmConfig::gib(1));
        nvm.write_block(0, &[1; 64]).unwrap();
        nvm.arm_fault_hook(FaultPlan::drop_tail(2));
        nvm.write_block(0, &[2; 64]).unwrap();
        nvm.write_block(64, &[3; 64]).unwrap();
        nvm.write_block(128, &[4; 64]).unwrap();
        nvm.crash();
        assert!(nvm.dirty_shutdown());
        // The two newest writes rolled back; the oldest survived.
        assert_eq!(nvm.read_block(0).unwrap(), [2; 64]);
        assert_eq!(nvm.read_block(64).unwrap(), [0; 64]);
        assert_eq!(nvm.read_block(128).unwrap(), [0; 64]);
    }

    #[test]
    fn atomic_group_consumes_one_ordinal_and_never_tears() {
        // All-or-nothing under a clean crash at the group's ordinal.
        let mut nvm = Nvm::new(NvmConfig::gib(1));
        nvm.arm_fault_hook(FaultPlan::crash_after(1));
        nvm.write_block(0, &[1; 64]).unwrap(); // ordinal 0
        nvm.begin_atomic(); // ordinal 1: the crash ordinal
        let r1 = nvm.write_block(64, &[2; 64]);
        let r2 = nvm.write_block(128, &[3; 64]);
        nvm.end_atomic();
        assert!(r1.is_err() && r2.is_err());
        nvm.crash();
        assert_eq!(nvm.read_block(64).unwrap(), [0; 64]);
        assert_eq!(nvm.read_block(128).unwrap(), [0; 64]);

        // Past the crash ordinal the whole group lands and counts once.
        let mut nvm = Nvm::new(NvmConfig::gib(1));
        nvm.arm_fault_hook(FaultPlan::count_only());
        nvm.begin_atomic();
        nvm.write_block(0, &[7; 64]).unwrap();
        nvm.write_block(64, &[8; 64]).unwrap();
        nvm.end_atomic();
        assert_eq!(nvm.device_write_ordinals(), 1);

        // A torn fault at the group ordinal degrades to clean power-off.
        let mut nvm = Nvm::new(NvmConfig::gib(1));
        nvm.arm_fault_hook(FaultPlan::torn_after(0, TornHalf::First));
        nvm.begin_atomic();
        assert!(nvm.write_block(0, &[9; 64]).is_err());
        nvm.end_atomic();
        nvm.crash();
        assert_eq!(nvm.read_block(0).unwrap(), [0; 64]);
    }

    #[test]
    fn wpq_tail_drop_undoes_an_atomic_group_as_a_unit() {
        let mut nvm = Nvm::new(NvmConfig::gib(1));
        nvm.arm_fault_hook(FaultPlan::drop_tail(1));
        nvm.write_block(0, &[1; 64]).unwrap();
        nvm.begin_atomic();
        nvm.write_block(64, &[2; 64]).unwrap();
        nvm.write_block(128, &[3; 64]).unwrap();
        nvm.end_atomic();
        nvm.crash();
        // Dropping one ordinal removed the whole group, not half of it.
        assert_eq!(nvm.read_block(0).unwrap(), [1; 64]);
        assert_eq!(nvm.read_block(64).unwrap(), [0; 64]);
        assert_eq!(nvm.read_block(128).unwrap(), [0; 64]);
    }

    #[test]
    fn tamper_ignores_fault_state() {
        let mut nvm = Nvm::new(NvmConfig::gib(1));
        nvm.arm_fault_hook(FaultPlan::count_only());
        nvm.tamper_flip_bit(5, 0);
        assert_eq!(
            nvm.device_write_ordinals(),
            0,
            "attacks consume no ordinals"
        );
        assert_eq!(nvm.read_block(0).unwrap()[5], 1);
    }

    #[test]
    fn a_plan_lasts_one_power_cycle_and_one_armed_after_a_crash_cuts_the_next() {
        let mut nvm = Nvm::new(NvmConfig::gib(1));
        nvm.arm_fault_hook(FaultPlan::crash_after(1));
        nvm.write_block(0, &[1; 64]).unwrap();
        assert!(
            nvm.write_block(64, &[2; 64]).is_err(),
            "mutation cut at ordinal 1"
        );
        nvm.crash();
        // The crash disarmed the plan: the next power cycle runs unfaulted.
        assert!(!nvm.fault_armed());
        assert!(nvm.dirty_shutdown());
        nvm.write_block(64, &[2; 64]).unwrap();
        assert_eq!(nvm.device_write_ordinals(), 0, "no plan, no ordinals");
        nvm.crash();
        // Armed on the crashed device, a plan counts from that power
        // cycle's first write: here the very first write is the cut.
        nvm.arm_fault_hook(FaultPlan::crash_after(0));
        assert!(
            nvm.write_block(128, &[3; 64]).is_err(),
            "recovery cut at ordinal 0"
        );
        assert_eq!(nvm.device_write_ordinals(), 1);
        assert_eq!(nvm.read_block(64), Err(NvmError::PowerFailure { addr: 64 }));
        nvm.crash();
        // And the next crash disarms again.
        assert!(!nvm.fault_armed());
        assert!(nvm.dirty_shutdown());
        assert_eq!(nvm.read_block(128).unwrap(), [0; 64]);
        nvm.write_block(128, &[3; 64]).unwrap();
        assert_eq!(nvm.read_block(128).unwrap(), [3; 64]);
    }

    #[test]
    fn eviction_class_ordinals_are_recorded_per_domain() {
        let mut nvm = Nvm::new(NvmConfig::gib(1));
        nvm.arm_fault_hook(FaultPlan::count_only());
        nvm.write_block(0, &[1; 64]).unwrap();
        nvm.set_write_class(WriteClass::Eviction);
        nvm.write_block(64, &[2; 64]).unwrap();
        nvm.write_block(128, &[3; 64]).unwrap();
        nvm.set_write_class(WriteClass::Protocol);
        nvm.write_block(192, &[4; 64]).unwrap();
        assert_eq!(nvm.eviction_write_ordinals(), &[1, 2]);
        nvm.crash();
        // A crash starts a fresh domain: class resets, records clear.
        assert_eq!(nvm.eviction_write_ordinals(), &[] as &[u64]);
        nvm.arm_fault_hook(FaultPlan::count_only());
        nvm.write_block(0, &[5; 64]).unwrap();
        assert_eq!(nvm.eviction_write_ordinals(), &[] as &[u64]);
    }

    #[test]
    fn address_math_near_u64_max_rejects_without_wrapping() {
        let mut nvm = Nvm::new(NvmConfig::gib(1));
        // addr + len overflows u64: must be OutOfBounds, not a wrapped hit.
        let mut buf = [0u8; 64];
        assert!(matches!(
            nvm.read_bytes(u64::MAX - 16, &mut buf),
            Err(NvmError::OutOfBounds { .. })
        ));
        assert!(matches!(
            nvm.write_bytes(u64::MAX, &[1, 2, 3]),
            Err(NvmError::OutOfBounds { .. })
        ));
        // Exactly at the overflow boundary: addr + len == u64::MAX + 1.
        assert!(matches!(
            nvm.write_bytes(u64::MAX - 63, &[0u8; 64]),
            Err(NvmError::OutOfBounds { .. })
        ));
        // Zero-length access at u64::MAX: end == u64::MAX > capacity.
        assert!(nvm.read_bytes(u64::MAX, &mut []).is_err());
        // Zero-length access exactly at capacity is in bounds.
        let cap = nvm.config().capacity_bytes;
        assert!(nvm.read_bytes(cap, &mut []).is_ok());
        assert_eq!(
            nvm.resident_frames(),
            0,
            "rejected accesses materialize nothing"
        );
    }

    #[test]
    fn never_touched_frames_read_zero_across_crash_and_stay_unmaterialized() {
        let mut nvm = Nvm::new(NvmConfig::gib(1));
        nvm.write_block(0x40, &[7u8; 64]).unwrap();
        nvm.crash();
        // A never-touched frame reads zero after the crash...
        assert_eq!(nvm.read_block(0x8000).unwrap(), [0u8; 64]);
        // ...and the read did not materialize it.
        assert_eq!(nvm.resident_frames(), 1);
        assert!(nvm.frame_touched(0x40));
        assert!(!nvm.frame_touched(0x8000));
    }

    #[test]
    fn rollback_bytes_on_unmaterialized_frame_backs_it() {
        let mut nvm = Nvm::new(NvmConfig::gib(1));
        assert_eq!(nvm.resident_frames(), 0);
        nvm.rollback_bytes(0x2000, &[5u8; 16]);
        assert!(nvm.frame_touched(0x2000));
        let mut buf = [0u8; 16];
        nvm.read_bytes(0x2000, &mut buf).unwrap();
        assert_eq!(buf, [5u8; 16]);
        // Rolling back an all-zero image also backs the frame (the frame
        // was written to at some point pre-crash, so it counts as touched).
        nvm.rollback_bytes(0x5000, &[0u8; 64]);
        assert!(nvm.frame_touched(0x5000));
        assert_eq!(nvm.resident_frames(), 2);
    }

    #[test]
    fn touched_frames_enumerate_in_address_order_regardless_of_touch_order() {
        let mut nvm = Nvm::new(NvmConfig::gib(1));
        for addr in [0x9000u64, 0x1000, 0x40_0000, 0x3000] {
            nvm.write_block(addr, &[1u8; 64]).unwrap();
        }
        let bases: Vec<u64> = nvm.touched_frames().collect();
        assert_eq!(bases, vec![0x1000, 0x3000, 0x9000, 0x40_0000]);
        // Ranged enumeration clips to overlap, end-exclusive.
        let mid: Vec<u64> = nvm.touched_frames_in(0x1040, 0x9001).collect();
        assert_eq!(mid, vec![0x1000, 0x3000, 0x9000]);
        let none: Vec<u64> = nvm.touched_frames_in(0x4000, 0x9000).collect();
        assert_eq!(none, vec![] as Vec<u64>);
        // Empty and reversed ranges yield nothing rather than panicking.
        assert_eq!(nvm.touched_frames_in(0x3000, 0x1000).count(), 0);
        assert_eq!(nvm.touched_frames_in(0x1040, 0x1040).count(), 0);
        assert_eq!(nvm.touched_frames_in(u64::MAX, 0).count(), 0);
    }

    #[test]
    fn media_images_compare_byte_exactly() {
        let mut a = Nvm::new(NvmConfig::gib(1));
        let mut b = Nvm::new(NvmConfig::gib(1));
        a.write_block(0x40, &[7; 64]).unwrap();
        b.write_block(0x40, &[7; 64]).unwrap();
        // Touching a frame with zeros must not distinguish the images.
        b.write_block(0x9000, &[0; 64]).unwrap();
        assert_eq!(a.media_image(), b.media_image());
        b.write_block(0x9000, &[1; 64]).unwrap();
        assert_ne!(a.media_image(), b.media_image());
        // Entries are keyed by base byte address, like `touched_frames`.
        let bases: Vec<u64> = b.media_image().into_iter().map(|(base, _)| base).collect();
        assert_eq!(bases, vec![0, 0x9000]);
    }

    /// Flat reference for the frame store: the bytes of a small window and
    /// the frames ever written in it, plus each frame's layout at the last
    /// check and how many checks found a frame switched, by operation kind.
    #[derive(Default)]
    struct Model {
        bytes: Vec<u8>,
        touched: std::collections::BTreeSet<u64>,
        sparse: std::collections::BTreeMap<u64, bool>,
        /// `[to word-sparse, to dense]` per operation kind.
        switches: std::collections::BTreeMap<&'static str, [usize; 2]>,
    }

    impl Model {
        fn span(&self, addr: u64, len: usize) -> Vec<u8> {
            self.bytes[addr as usize..addr as usize + len].to_vec()
        }

        fn put(&mut self, addr: u64, data: &[u8]) {
            self.bytes[addr as usize..addr as usize + data.len()].copy_from_slice(data);
            self.touched.extend(
                addr / FRAME_SIZE as u64..(addr + data.len() as u64).div_ceil(FRAME_SIZE as u64),
            );
        }

        /// Checks every observable of `nvm` against the model, and each
        /// frame's storage against the one layout its content allows: it
        /// stores exactly its non-zero lines, in the smaller layout, with
        /// every word it keeps non-zero and nothing spare. A frame whose
        /// layout differs from the last check counts as switched by `kind`.
        fn check(&mut self, nvm: &mut Nvm, kind: &'static str, step: &str) {
            for (index, frame) in nvm.frames.iter() {
                let masks: Vec<u8> = self
                    .span(index * FRAME_SIZE as u64, FRAME_SIZE)
                    .chunks_exact(BLOCK_SIZE)
                    .map(word_mask)
                    .collect();
                let lines = (0..).zip(&masks).filter(|(_, &m)| m != 0);
                let lines = lines.fold(0u64, |all, (line, _)| all | 1 << line);
                assert_eq!(frame.lines, lines, "{step}: frame {index} lines");
                let masks: Vec<u8> = masks.into_iter().filter(|&m| m != 0).collect();
                let words = masks.iter().map(|m| m.count_ones() as usize).sum();
                let sparse = sparse_is_smaller(masks.len(), words);
                if sparse {
                    let (stored, kept) = frame.bytes.split_at(masks.len());
                    assert_eq!(stored, masks, "{step}: frame {index} word masks");
                    assert_eq!(kept.len(), WORD * words, "{step}: frame {index} words");
                    assert!(
                        kept.as_chunks::<WORD>().0.iter().all(nonzero),
                        "{step}: frame {index} keeps a zero word"
                    );
                } else {
                    assert_eq!(
                        frame.bytes.len(),
                        BLOCK_SIZE * masks.len(),
                        "{step}: frame {index} dense"
                    );
                }
                if self
                    .sparse
                    .insert(index, sparse)
                    .is_some_and(|was| was != sparse)
                {
                    self.switches.entry(kind).or_default()[usize::from(!sparse)] += 1;
                }
            }
            let frames: Vec<u64> = self.touched.iter().map(|f| f * FRAME_SIZE as u64).collect();
            assert_eq!(
                nvm.touched_frames().collect::<Vec<_>>(),
                frames,
                "{step}: touched"
            );
            assert_eq!(nvm.resident_frames(), frames.len(), "{step}: resident");
            let image: Vec<(u64, Vec<u8>)> = frames
                .iter()
                .map(|&base| (base, self.span(base, FRAME_SIZE)))
                .filter(|(_, bytes)| bytes.iter().any(|&b| b != 0))
                .collect();
            assert!(nvm.media_image() == image, "{step}: media image");
            if !nvm.powered_off() {
                let mut back = vec![0u8; self.bytes.len()];
                nvm.read_bytes(0, &mut back).unwrap();
                assert!(back == self.bytes, "{step}: read-back");
            }
        }
    }

    /// A span of 1..=200 random bytes in a `window`-byte device prefix;
    /// half of them end within 200 bytes past a frame boundary, so they
    /// usually cross it.
    fn draw_span(rng: &mut amnt_prng::Rng, window: u64) -> (u64, Vec<u8>) {
        let mut data = vec![0u8; rng.gen_range_usize(1..201)];
        rng.fill_bytes(&mut data);
        let len = data.len() as u64;
        let addr = if rng.gen_bool(0.5) {
            let boundary = rng.gen_range(1..window / FRAME_SIZE as u64) * FRAME_SIZE as u64;
            boundary - rng.gen_range(1..len + 1)
        } else {
            rng.gen_range(0..window - len + 1)
        };
        (addr, data)
    }

    /// Half the spans from [`draw_span`]; the other half placed the same
    /// way, but with each 8 B device word they cover zero with probability
    /// 3/4, or, one in four, all zero, clearing words and whole lines. So
    /// frames cross the dense/word-sparse switch both ways.
    fn draw_sparse_span(rng: &mut amnt_prng::Rng, window: u64) -> (u64, Vec<u8>) {
        let (addr, mut data) = draw_span(rng, window);
        if rng.gen_bool(0.5) {
            return (addr, data);
        }
        let clear = rng.gen_bool(0.25);
        let mut zero = clear;
        for (at, byte) in (addr..).zip(&mut data) {
            if !clear && (at == addr || at % WORD as u64 == 0) {
                zero = rng.gen_bool(0.75);
            }
            if zero {
                *byte = 0;
            }
        }
        (addr, data)
    }

    /// Drives a device and a [`Model`] through 10 rounds of 300 random
    /// operations with spans from `draw`, checking after each one, and
    /// returns the layout switches seen.
    fn run_against_reference(
        seed: u64,
        draw: fn(&mut amnt_prng::Rng, u64) -> (u64, Vec<u8>),
    ) -> std::collections::BTreeMap<&'static str, [usize; 2]> {
        const WINDOW: u64 = 16 * FRAME_SIZE as u64;
        let mut rng = amnt_prng::Rng::seed_from_u64(seed);
        let mut switches = std::collections::BTreeMap::new();
        for round in 0..10 {
            let mut nvm = Nvm::new(NvmConfig::gib(1));
            let mut model = Model {
                bytes: vec![0; WINDOW as usize],
                switches,
                ..Model::default()
            };
            for op in 0..300 {
                let step = format!("round {round} op {op}");
                let kind = match rng.gen_range(0..10) {
                    0..=4 => {
                        let (addr, data) = draw(&mut rng, WINDOW);
                        nvm.write_bytes(addr, &data).unwrap();
                        model.put(addr, &data);
                        "write"
                    }
                    5 | 6 => {
                        let (addr, data) = draw(&mut rng, WINDOW);
                        nvm.rollback_bytes(addr, &data);
                        model.put(addr, &data);
                        "rollback"
                    }
                    7 => {
                        let addr = rng.gen_range(0..WINDOW);
                        let bit = rng.gen_range_u32(0..8) as u8;
                        nvm.tamper_flip_bit(addr, bit);
                        model.put(addr, &[model.span(addr, 1)[0] ^ 1 << bit]);
                        "tamper"
                    }
                    _ => {
                        // An armed episode: some writes apply, the next may be
                        // cut cleanly or torn, and the crash may drop the
                        // newest journaled writes.
                        let applied = rng.gen_range(0..5);
                        let cut = match rng.gen_range(0..4) {
                            0 => None,
                            1 => Some(CrashWriteMode::Clean),
                            2 => Some(CrashWriteMode::Torn(TornHalf::First)),
                            _ => Some(CrashWriteMode::Torn(TornHalf::Last)),
                        };
                        let drop = rng.gen_range_usize(0..4);
                        nvm.arm_fault_hook(FaultPlan {
                            crash_after: cut.map(|_| applied),
                            mode: cut.unwrap_or(CrashWriteMode::Clean),
                            drop_wpq_tail: drop,
                        });
                        let mut journal = Vec::new();
                        for w in 0..applied {
                            let (addr, data) = draw(&mut rng, WINDOW);
                            journal.push((addr, model.span(addr, data.len())));
                            nvm.write_bytes(addr, &data).unwrap();
                            model.put(addr, &data);
                            model.check(&mut nvm, "write", &format!("{step} write {w}"));
                        }
                        if let Some(mode) = cut {
                            let (addr, data) = draw(&mut rng, WINDOW);
                            let pre = model.span(addr, data.len());
                            assert!(nvm.write_bytes(addr, &data).is_err(), "{step}: cut");
                            if let CrashWriteMode::Torn(half) = mode {
                                let lands = |a: u64| (a % 64 < 32) == (half == TornHalf::First);
                                let torn: Vec<u8> = (addr..)
                                    .zip(data.iter().zip(&pre))
                                    .map(|(a, (&new, &old))| if lands(a) { new } else { old })
                                    .collect();
                                model.put(addr, &torn);
                                journal.push((addr, pre));
                            }
                            model.check(&mut nvm, "torn", &format!("{step} cut"));
                        }
                        nvm.crash();
                        for (addr, pre) in journal.iter().rev().take(drop) {
                            model.put(*addr, pre);
                        }
                        "wpq undo"
                    }
                };
                model.check(&mut nvm, kind, &step);
            }
            switches = model.switches;
        }
        switches
    }

    #[test]
    fn line_store_matches_a_flat_reference_under_writes_rollbacks_tampers_and_crashes() {
        run_against_reference(0x4E_0004, draw_span);
    }

    #[test]
    fn frame_layouts_switch_both_ways_and_match_a_flat_reference_under_sparse_content() {
        let switches = run_against_reference(0x4E_0005, draw_sparse_span);
        eprintln!("layout switches [to word-sparse, to dense]: {switches:?}");
        // A flip switches a frame only at the threshold; see
        // `a_flipped_bit_switches_a_frame_at_the_threshold_both_ways`.
        for kind in ["write", "rollback", "torn", "wpq undo"] {
            let [to_sparse, to_dense] = switches.get(kind).copied().unwrap_or_default();
            assert!(
                to_sparse > 0 && to_dense > 0,
                "{kind}: {to_sparse} switches to word-sparse, {to_dense} to dense"
            );
        }
    }

    #[test]
    fn a_flipped_bit_switches_a_frame_at_the_threshold_both_ways() {
        let mut nvm = Nvm::new(NvmConfig::gib(1));
        // One line with seven non-zero words: 1 + 56 bytes word-sparse,
        // against 64 dense.
        let mut line = [0x5Au8; BLOCK_SIZE];
        line[24..32].fill(0);
        nvm.write_block(0x40, &line).unwrap();
        let stored = |nvm: &Nvm| nvm.frames.get(0).map(|frame| frame.bytes.len());
        assert_eq!(stored(&nvm), Some(1 + 7 * WORD));
        // Eight words: 65 bytes word-sparse, so dense.
        nvm.tamper_flip_bit(0x40 + 27, 3);
        assert_eq!(stored(&nvm), Some(BLOCK_SIZE));
        line[27] = 1 << 3;
        assert_eq!(nvm.read_block(0x40).unwrap(), line);
        nvm.tamper_flip_bit(0x40 + 27, 3);
        assert_eq!(stored(&nvm), Some(1 + 7 * WORD));
        line[27] = 0;
        assert_eq!(nvm.read_block(0x40).unwrap(), line);
        // Clearing the line stores nothing, and the frame stays touched.
        nvm.write_block(0x40, &[0; BLOCK_SIZE]).unwrap();
        assert_eq!(stored(&nvm), Some(0));
        assert_eq!(nvm.touched_frames().collect::<Vec<_>>(), [0]);
    }
}
