//! Sparse TB-address hot-set generation for paper-scale recovery runs.
//!
//! A terabyte-class device can only be simulated functionally if the
//! workload touches a *small* set of frames; everything else must stay
//! unmaterialized. [`SparseHotSet`] places a hot span deep in the address
//! space — aligned to its own size, so it tiles whole BMT subtrees — and
//! yields deterministic block-granular write addresses concentrated on it.

use crate::gen::{BLOCK, PAGE};
use amnt_prng::Rng;

/// A seeded generator of block addresses over a huge sparse address space:
/// a page-aligned hot span (most traffic) plus a thin uniform cold scatter.
///
/// # Examples
///
/// ```
/// use amnt_workloads::SparseHotSet;
///
/// const TB: u64 = 1 << 40;
/// let gen = SparseHotSet::new(7, 2 * TB, 64 << 20);
/// assert_eq!(gen.hot_base() % gen.hot_bytes(), 0, "span tiles subtrees");
/// let addrs: Vec<u64> = gen.clone().take(1000).collect();
/// assert_eq!(addrs, gen.take(1000).collect::<Vec<u64>>(), "deterministic");
/// ```
#[derive(Debug, Clone)]
pub struct SparseHotSet {
    rng: Rng,
    seed: u64,
    capacity: u64,
    hot_base: u64,
    hot_bytes: u64,
    /// Probability an address lands in the hot span (the rest is a uniform
    /// cold scatter over the whole device).
    hot_prob: f64,
}

impl SparseHotSet {
    /// Creates a generator over `capacity_bytes` of address space with a
    /// `hot_bytes` hot span, deterministically from `seed`.
    ///
    /// The span is placed near the middle of the device, aligned down to a
    /// multiple of its own (page-rounded) size, so that at any BMT level
    /// whose coverage divides the span size the span covers whole subtrees.
    ///
    /// # Panics
    ///
    /// Panics if `hot_bytes` is zero or exceeds `capacity_bytes`, or if
    /// either is not page-aligned — generator construction is test/bench
    /// setup, not a crash path.
    pub fn new(seed: u64, capacity_bytes: u64, hot_bytes: u64) -> Self {
        assert!(hot_bytes > 0 && hot_bytes <= capacity_bytes);
        assert!(capacity_bytes.is_multiple_of(PAGE) && hot_bytes.is_multiple_of(PAGE));
        let mid = capacity_bytes / 2;
        let hot_base = mid - (mid % hot_bytes);
        SparseHotSet {
            rng: Rng::seed_from_u64(seed ^ 0x5bad_5eed_c0ff_ee00),
            seed,
            capacity: capacity_bytes,
            hot_base,
            hot_bytes,
            hot_prob: 0.9,
        }
    }

    /// Base byte address of the hot span.
    pub fn hot_base(&self) -> u64 {
        self.hot_base
    }

    /// Size of the hot span in bytes.
    pub fn hot_bytes(&self) -> u64 {
        self.hot_bytes
    }

    /// Every page of the hot span, in a seeded shuffled order — full, dense
    /// coverage for workloads that must touch the whole span exactly once
    /// (e.g. the simulated Table 4 recovery column, whose extrapolation
    /// assumes a contiguous touched counter range).
    pub fn hot_pages_shuffled(&self) -> Vec<u64> {
        let mut pages: Vec<u64> = (0..self.hot_bytes / PAGE)
            .map(|i| self.hot_base + i * PAGE)
            .collect();
        // Fisher–Yates on a derived stream: independent of how much of the
        // iterator side has been consumed.
        let mut rng = Rng::seed_from_u64(self.seed ^ 0x0dd5_4aff_1e00_0001);
        for i in (1..pages.len()).rev() {
            let j = rng.gen_range(0..(i as u64 + 1)) as usize;
            pages.swap(i, j);
        }
        pages
    }
}

impl Iterator for SparseHotSet {
    type Item = u64;

    /// The next block-aligned address: hot-span with probability
    /// `hot_prob`, otherwise uniform over the whole device.
    fn next(&mut self) -> Option<u64> {
        let addr = if self.rng.gen_bool(self.hot_prob) {
            self.hot_base + self.rng.gen_range(0..self.hot_bytes / BLOCK) * BLOCK
        } else {
            self.rng.gen_range(0..self.capacity / BLOCK) * BLOCK
        };
        Some(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TB: u64 = 1 << 40;

    #[test]
    fn hot_span_is_aligned_and_in_bounds() {
        let g = SparseHotSet::new(1, 2 * TB, 64 << 20);
        assert_eq!(g.hot_base() % g.hot_bytes(), 0);
        assert!(g.hot_base() + g.hot_bytes() <= 2 * TB);
        // Deep in the device: past the first quarter.
        assert!(g.hot_base() >= TB / 2);
    }

    #[test]
    fn traffic_concentrates_on_the_hot_span() {
        let g = SparseHotSet::new(2, 2 * TB, 16 << 20);
        let (lo, hi) = (g.hot_base(), g.hot_base() + g.hot_bytes());
        let addrs: Vec<u64> = g.take(10_000).collect();
        let hot = addrs.iter().filter(|&&a| a >= lo && a < hi).count();
        assert!(hot > 8_500, "hot {hot}/10000");
        assert!(addrs.iter().all(|a| a % BLOCK == 0 && *a < 2 * TB));
    }

    #[test]
    fn shuffled_pages_cover_the_span_exactly_once() {
        let g = SparseHotSet::new(3, TB, 1 << 20);
        let pages = g.hot_pages_shuffled();
        assert_eq!(pages.len(), (1 << 20) / PAGE as usize);
        let mut sorted = pages.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), pages.len(), "no duplicates");
        assert_eq!(sorted.first(), Some(&g.hot_base()));
        assert_ne!(pages, sorted, "order is shuffled");
        // Deterministic and consumption-independent.
        let mut g2 = SparseHotSet::new(3, TB, 1 << 20);
        let _ = g2.next();
        assert_eq!(g2.hot_pages_shuffled(), pages);
    }

    #[test]
    fn distinct_seeds_distinct_streams() {
        let a: Vec<u64> = SparseHotSet::new(1, TB, 1 << 20).take(100).collect();
        let b: Vec<u64> = SparseHotSet::new(2, TB, 1 << 20).take(100).collect();
        assert_ne!(a, b);
    }
}
