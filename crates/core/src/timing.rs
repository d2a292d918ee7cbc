//! Banked-media timing with a bounded persist queue.
//!
//! All PCM traffic flows through a [`MemoryTimeline`]. Reads put the core on
//! the critical path (the caller waits for the returned completion). Writes
//! may be *posted* (lazy writebacks — the core does not wait) or *persists*
//! (crash-consistency traffic — the caller may need the completion time to
//! chain ordered persists or to wait for durability). A bounded in-flight
//! write queue back-pressures the core when persistence traffic outruns the
//! media, which is precisely how strict-style protocols hurt write-intensive
//! workloads.

use crate::config::{MemTiming, WriteQueueConfig};
use amnt_nvm::{FrameMap, FRAME_SIZE};
use std::collections::VecDeque;

/// Per-frame media write-endurance accounting.
///
/// PCM cells wear out with writes; crash-consistency protocols that
/// write-through metadata concentrate wear on counters and tree nodes (the
/// "write-friendly" concern behind SecNVM-style designs, paper ref 42). The
/// timeline counts every media write per 4 KiB frame.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WearSummary {
    /// Frames written at least once.
    pub frames_touched: u64,
    /// Total frame-write events.
    pub total_writes: u64,
    /// Writes to the most-written frame.
    pub max_writes: u64,
    /// Mean writes over touched frames.
    pub mean_writes: f64,
    /// Max / mean — the hot-spotting factor wear levelling must absorb.
    pub imbalance: f64,
}

fn summarize(values: impl Iterator<Item = u64>) -> WearSummary {
    let mut frames_touched = 0u64;
    let mut total_writes = 0u64;
    let mut max_writes = 0u64;
    for n in values {
        frames_touched += 1;
        total_writes += n;
        max_writes = max_writes.max(n);
    }
    let mean_writes = if frames_touched == 0 {
        0.0
    } else {
        total_writes as f64 / frames_touched as f64
    };
    WearSummary {
        frames_touched,
        total_writes,
        max_writes,
        mean_writes,
        imbalance: if mean_writes > 0.0 {
            max_writes as f64 / mean_writes
        } else {
            0.0
        },
    }
}

/// Traffic and stall accounting for the memory timeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimelineStats {
    /// Media reads issued.
    pub reads: u64,
    /// Media writes issued (posted + persist).
    pub writes: u64,
    /// Cycles the core was stalled on a full write queue.
    pub queue_stall_cycles: u64,
    /// Cycles accesses waited on busy banks.
    pub bank_wait_cycles: u64,
}

/// The shared memory timeline.
#[derive(Debug, Clone)]
pub struct MemoryTimeline {
    timing: MemTiming,
    bank_free: Vec<u64>,
    bank_mask: u64,
    /// Completion times of in-flight writes (bounded FIFO).
    inflight: VecDeque<u64>,
    depth: usize,
    stats: TimelineStats,
    /// Deepest the in-flight queue has been since the last harvest. Lives
    /// outside [`TimelineStats`] (which is snapshot into artifacts and must
    /// not grow fields) — this is trace-layer data only.
    wpq_high_water: usize,
    /// The endurance ledger: media writes per written frame, keyed by
    /// frame index (`addr / FRAME_SIZE`). It holds 8 B per written frame,
    /// 64 frames to a B-tree entry, and enumerates in address order, which
    /// the range summaries walk.
    wear: FrameMap<u64>,
}

impl MemoryTimeline {
    /// Creates a timeline over `banks` independent banks.
    pub fn new(timing: MemTiming, queue: WriteQueueConfig) -> Self {
        let banks = queue.banks.max(1).next_power_of_two();
        MemoryTimeline {
            timing,
            bank_free: vec![0; banks],
            bank_mask: banks as u64 - 1,
            inflight: VecDeque::with_capacity(queue.depth + 1),
            depth: queue.depth.max(1),
            stats: TimelineStats::default(),
            wpq_high_water: 0,
            wear: FrameMap::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &TimelineStats {
        &self.stats
    }

    /// Resets statistics but not bank state.
    pub fn reset_stats(&mut self) {
        self.stats = TimelineStats::default();
    }

    #[inline]
    fn bank_of(&self, addr: u64) -> usize {
        // Interleave at line granularity.
        ((addr >> 6) & self.bank_mask) as usize
    }

    fn retire(&mut self, now: u64) {
        while let Some(&front) = self.inflight.front() {
            if front <= now {
                self.inflight.pop_front();
            } else {
                break;
            }
        }
    }

    /// Issues a media read of the line at `addr` at time `now`; returns the
    /// completion time. The caller is expected to wait for it.
    pub fn read(&mut self, now: u64, addr: u64) -> u64 {
        self.stats.reads += 1;
        let bank = self.bank_of(addr);
        debug_assert!(bank < self.bank_free.len());
        let start = now.max(self.bank_free[bank]);
        self.stats.bank_wait_cycles += start - now;
        let done = start + self.timing.pcm_read;
        self.bank_free[bank] = done;
        done
    }

    /// Issues a media write of the line at `addr`. `not_before` lets callers
    /// chain *ordered* persists (a child must be durable before its parent
    /// is written). Returns `(completion, stall)` where `stall` is the
    /// back-pressure delay (queue full) the core must absorb at issue time.
    pub fn write(&mut self, now: u64, addr: u64, not_before: u64) -> (u64, u64) {
        self.retire(now);
        let mut stall = 0;
        if self.inflight.len() >= self.depth {
            // The queue is non-empty here by the length check; if-let keeps
            // the back-pressure path panic-free (lint R1).
            if let Some(&front) = self.inflight.front() {
                stall = front.saturating_sub(now);
                self.retire(now + stall);
            }
        }
        self.stats.queue_stall_cycles += stall;
        self.stats.writes += 1;
        *self.wear.get_or_insert_default(addr / FRAME_SIZE as u64) += 1;
        let issue = (now + stall).max(not_before);
        let bank = self.bank_of(addr);
        debug_assert!(bank < self.bank_free.len());
        let start = issue.max(self.bank_free[bank]);
        self.stats.bank_wait_cycles += start - issue;
        let done = start + self.timing.pcm_write;
        self.bank_free[bank] = done;
        // Keep the FIFO ordered by completion so front() is the earliest.
        let pos = self.inflight.partition_point(|&t| t <= done);
        self.inflight.insert(pos, done);
        if self.inflight.len() > self.wpq_high_water {
            self.wpq_high_water = self.inflight.len();
        }
        (done, stall)
    }

    /// Deepest the in-flight write queue has been since the last
    /// [`MemoryTimeline::take_wpq_high_water`] (trace-layer observability).
    pub fn wpq_high_water(&self) -> usize {
        self.wpq_high_water
    }

    /// Returns the high-water mark and re-seeds it with the current queue
    /// depth, starting a fresh observation window (e.g. one trace epoch).
    pub fn take_wpq_high_water(&mut self) -> usize {
        let hw = self.wpq_high_water;
        self.wpq_high_water = self.inflight.len();
        hw
    }

    /// The configured timing parameters.
    pub fn timing(&self) -> MemTiming {
        self.timing
    }

    /// Media-write count of the frame containing `addr`.
    pub fn wear_of(&self, addr: u64) -> u64 {
        self.wear
            .get(addr / FRAME_SIZE as u64)
            .copied()
            .unwrap_or(0)
    }

    /// Endurance summary over every written frame.
    pub fn wear_summary(&self) -> WearSummary {
        summarize(self.wear.iter().map(|(_, &n)| n))
    }

    /// Endurance summary restricted to addresses in `[from, to)`.
    pub fn wear_summary_range(&self, from: u64, to: u64) -> WearSummary {
        let frames = from / FRAME_SIZE as u64..to.div_ceil(FRAME_SIZE as u64);
        summarize(self.wear.range(frames).map(|(_, &n)| n))
    }

    /// Drops all in-flight writes and bank reservations (crash).
    pub fn reset(&mut self) {
        self.bank_free.fill(0);
        self.inflight.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timeline(banks: usize, depth: usize) -> MemoryTimeline {
        MemoryTimeline::new(MemTiming::default(), WriteQueueConfig { banks, depth })
    }

    #[test]
    fn read_latency_is_media_latency_when_idle() {
        let mut t = timeline(8, 32);
        let done = t.read(100, 0x1000);
        assert_eq!(done, 100 + 610);
    }

    #[test]
    fn same_bank_reads_serialize() {
        let mut t = timeline(8, 32);
        let a = t.read(0, 0x0);
        // Same bank (same line address modulo banks*64).
        let b = t.read(0, 8 * 64);
        assert_eq!(b, a + 610);
        assert_eq!(t.stats().bank_wait_cycles, 610);
    }

    #[test]
    fn different_banks_overlap() {
        let mut t = timeline(8, 32);
        let a = t.read(0, 0x0);
        let b = t.read(0, 0x40);
        assert_eq!(a, 610);
        assert_eq!(b, 610);
    }

    #[test]
    fn posted_writes_do_not_stall_until_queue_full() {
        let mut t = timeline(1, 4);
        let mut total_stall = 0;
        for i in 0..4 {
            let (_, stall) = t.write(0, i * 64, 0);
            total_stall += stall;
        }
        assert_eq!(total_stall, 0);
        // Fifth write at time 0 must wait for the first to retire (782).
        let (_, stall) = t.write(0, 4 * 64, 0);
        assert_eq!(stall, 782);
    }

    #[test]
    fn ordered_persist_chains_serialize() {
        let mut t = timeline(8, 32);
        let (done1, _) = t.write(0, 0x0, 0);
        let (done2, _) = t.write(0, 0x40, done1);
        assert_eq!(done1, 782);
        assert!(done2 >= done1 + 782, "parent persists after child durable");
    }

    #[test]
    fn queue_drains_with_time() {
        let mut t = timeline(1, 2);
        t.write(0, 0, 0);
        t.write(0, 64, 0);
        // Far in the future both have retired: no stall.
        let (_, stall) = t.write(1_000_000, 128, 0);
        assert_eq!(stall, 0);
    }

    #[test]
    fn wpq_high_water_tracks_and_reseeds() {
        let mut t = timeline(8, 32);
        t.write(0, 0, 0);
        t.write(0, 64, 0);
        t.write(0, 128, 0);
        assert_eq!(t.wpq_high_water(), 3);
        // Taking returns the mark and re-seeds with the *current* depth.
        assert_eq!(t.take_wpq_high_water(), 3);
        assert_eq!(t.wpq_high_water(), 3, "all three still in flight");
        // Once the queue drains, a fresh window starts lower.
        t.write(1_000_000, 192, 0);
        t.take_wpq_high_water();
        assert_eq!(t.wpq_high_water(), 1);
    }

    #[test]
    fn reset_clears_reservations() {
        let mut t = timeline(1, 1);
        t.write(0, 0, 0);
        t.reset();
        let done = t.read(0, 0);
        assert_eq!(done, 610);
    }
}

#[cfg(test)]
mod wear_tests {
    use super::*;

    #[test]
    fn wear_counts_media_writes_per_frame() {
        let mut t = MemoryTimeline::new(MemTiming::default(), WriteQueueConfig::default());
        for _ in 0..10 {
            t.write(0, 64, 0);
        }
        t.write(0, 8192, 0);
        t.read(0, 64); // reads do not wear
        assert_eq!(t.wear_of(0), 10);
        assert_eq!(t.wear_of(8192), 1);
        assert_eq!(t.wear_of(4096), 0);
        let s = t.wear_summary();
        assert_eq!(s.frames_touched, 2);
        assert_eq!(s.total_writes, 11);
        assert_eq!(s.max_writes, 10);
        assert!((s.mean_writes - 5.5).abs() < 1e-9);
    }

    #[test]
    fn wear_range_restricts() {
        let mut t = MemoryTimeline::new(MemTiming::default(), WriteQueueConfig::default());
        t.write(0, 0, 0);
        t.write(0, 1 << 20, 0);
        t.write(0, 1 << 20, 0);
        assert_eq!(t.wear_summary_range(0, 4096).total_writes, 1);
        assert_eq!(
            t.wear_summary_range(1 << 20, (1 << 20) + 4096).total_writes,
            2
        );
        assert_eq!(t.wear_summary_range(8192, 16384).frames_touched, 0);
    }

    #[test]
    fn wear_ledger_matches_a_btree_map_reference() {
        use std::collections::BTreeMap;
        // Frames on 64-frame group boundaries, the top frame of a 2 TiB
        // device and the top frame of the 64-bit address space.
        let edges = [0u64, 63, 64, 65, 127, 128, (1 << 29) - 1, u64::MAX / 4096];
        let mut rng = amnt_prng::Rng::seed_from_u64(0x3EA2);
        let mut t = MemoryTimeline::new(MemTiming::default(), WriteQueueConfig::default());
        let mut reference = BTreeMap::new();
        for _ in 0..2000 {
            let edge = edges[rng.gen_range_usize(0..edges.len())];
            let frame = match rng.gen_range(0..3) {
                0 => edge,
                1 => (edge + rng.gen_range(0..3)).saturating_sub(rng.gen_range(0..3)),
                _ => rng.gen_range(0..1024),
            }
            .min(u64::MAX / 4096);
            t.write(0, frame * 4096 + rng.gen_range(0..4096), 0);
            *reference.entry(frame).or_insert(0u64) += 1;
        }
        let want = |from: u64, to: u64| {
            let frames = from / 4096..to.div_ceil(4096);
            summarize(
                reference
                    .iter()
                    .filter(|(f, _)| frames.contains(f))
                    .map(|(_, &n)| n),
            )
        };
        let mut ranges = vec![(0, u64::MAX), (64 * 4096, 64 * 4096), (0x41_040, 0x41_040)];
        for &edge in &edges {
            let at = edge * 4096;
            let up = |bytes: u64| at.saturating_add(bytes);
            ranges.extend([
                (at, at),                                     // empty
                (up(4096), at),                               // reversed
                (up(100), up(5000)),                          // unaligned, in one group
                (at / (64 * 4096) * 64 * 4096, up(4096)),     // group start to edge
                (at.saturating_sub(3 * 4096), up(70 * 4096)), // across groups
            ]);
        }
        for (from, to) in ranges {
            assert_eq!(
                t.wear_summary_range(from, to),
                want(from, to),
                "[{from:#x}, {to:#x})"
            );
        }
        assert_eq!(t.wear_summary(), summarize(reference.values().copied()));
        for (&frame, &n) in &reference {
            assert_eq!(t.wear_of(frame * 4096 + 4095), n, "frame {frame}");
        }
        assert_eq!(
            t.wear_of(66 * 4096),
            reference.get(&66).copied().unwrap_or(0)
        );
    }
}
