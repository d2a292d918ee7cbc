//! # amnt-prng
//!
//! A deterministic, dependency-free pseudo-random number generator for the
//! whole workspace: seeded trace generation (`amnt-workloads`), system aging
//! (`amnt-os`), and randomized-but-reproducible tests everywhere else.
//!
//! The workspace must build with zero external crates (no network registry
//! at build time), and — more importantly — the simulator's correctness
//! argument requires *bit-identical replay*: the same seed must produce the
//! same trace on every run, every platform, and every toolchain. `rand`'s
//! `StdRng` explicitly does **not** promise cross-version stability, so even
//! with a registry available it would be the wrong tool. This module pins
//! the exact algorithms instead:
//!
//! * [`SplitMix64`] — the standard 64-bit seeding sequence (Steele et al.),
//!   used to expand one `u64` seed into generator state.
//! * [`Rng`] — xoshiro256\*\* 1.0 (Blackman & Vigna), a small, fast,
//!   well-tested generator; plus the sampling helpers the workspace needs
//!   (`gen_range`, `gen_bool`, `shuffle`, `fill_bytes`).
//!
//! Both algorithms are public-domain reference constructions; the outputs
//! here are fixed forever by the known-answer tests at the bottom of this
//! file.
//!
//! ```
//! use amnt_prng::Rng;
//!
//! let mut a = Rng::seed_from_u64(42);
//! let mut b = Rng::seed_from_u64(42);
//! assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
//! let roll = a.gen_range(0..6) + 1;
//! assert!((1..=6).contains(&roll));
//! ```

#![forbid(unsafe_code)]

use std::ops::Range;

/// SplitMix64: a tiny, fast generator whose main job here is turning one
/// `u64` seed into well-distributed state words for [`Rng`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256\*\* 1.0: the workspace's general-purpose deterministic RNG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Seeds the generator from a single `u64` via [`SplitMix64`], matching
    /// the reference seeding recommendation.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        // An all-zero state is the one fixed point; SplitMix64 cannot
        // produce four zero outputs in a row, but be defensive anyway.
        if s == [0; 4] {
            return Rng {
                s: [0x9E37_79B9_7F4A_7C15, 1, 2, 3],
            };
        }
        Rng { s }
    }

    /// The next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform `f64` in `[0, 1)` (53 bits of precision).
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p.clamp(0.0, 1.0)
    }

    /// A uniform `u64` in `[range.start, range.end)`.
    ///
    /// Uses the widening-multiply reduction (Lemire); for the range sizes in
    /// this workspace the residual bias is below 2⁻⁴⁰ and irrelevant — what
    /// matters is that the mapping is fixed and platform-independent.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range(&mut self, range: Range<u64>) -> u64 {
        assert!(range.start < range.end, "gen_range on empty range");
        let span = range.end - range.start;
        let hi = ((self.next_u64() as u128 * span as u128) >> 64) as u64;
        range.start + hi
    }

    /// A uniform `u32` in `[range.start, range.end)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range_u32(&mut self, range: Range<u32>) -> u32 {
        self.gen_range(range.start as u64..range.end as u64) as u32
    }

    /// A uniform `usize` in `[range.start, range.end)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range_usize(&mut self, range: Range<usize>) -> usize {
        self.gen_range(range.start as u64..range.end as u64) as usize
    }

    /// Fills `buf` with uniform bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&bytes[..n]);
        }
    }

    /// A uniform byte array (convenience over [`Rng::fill_bytes`]).
    pub fn gen_array<const N: usize>(&mut self) -> [u8; N] {
        let mut out = [0u8; N];
        self.fill_bytes(&mut out);
        out
    }

    /// An in-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(0..(i as u64 + 1)) as usize;
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_known_answers() {
        // Reference test vectors for seed 0 (Vigna's splitmix64.c): pinning
        // these forever means any algorithm change breaks replay loudly.
        let mut sm = SplitMix64::new(0);
        assert_eq!(sm.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(sm.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(sm.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn xoshiro_is_deterministic_and_seed_sensitive() {
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        let mut c = Rng::seed_from_u64(8);
        let xs: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..64).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn gen_range_stays_in_bounds_and_covers() {
        let mut rng = Rng::seed_from_u64(3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.gen_range(5..15);
            assert!((5..15).contains(&v));
            seen[(v - 5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "1000 draws must cover 10 buckets");
    }

    #[test]
    fn gen_f64_is_unit_interval() {
        let mut rng = Rng::seed_from_u64(11);
        for _ in 0..1000 {
            let f = rng.gen_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = Rng::seed_from_u64(9);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2700..3300).contains(&hits), "got {hits}");
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from_u64(5);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "a 100-element shuffle is a non-identity w.h.p.");
    }

    #[test]
    fn fill_bytes_fills_odd_lengths() {
        let mut rng = Rng::seed_from_u64(2);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
        let arr: [u8; 16] = Rng::seed_from_u64(2).gen_array();
        assert_eq!(&arr[..8], &buf[..8], "same seed prefix agrees");
    }

    #[test]
    fn streams_differ_across_helpers_but_replay_exactly() {
        let mut a = Rng::seed_from_u64(99);
        let trace: (u64, f64, bool, u64) = (
            a.next_u64(),
            a.gen_f64(),
            a.gen_bool(0.5),
            a.gen_range(0..1_000_000),
        );
        let mut b = Rng::seed_from_u64(99);
        let again = (
            b.next_u64(),
            b.gen_f64(),
            b.gen_bool(0.5),
            b.gen_range(0..1_000_000),
        );
        assert_eq!(trace, again);
    }
}
