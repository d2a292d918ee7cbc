//! Split encryption counters.
//!
//! To balance cache efficiency and storage, counter-mode encryption uses a
//! *split counter* per 4 KiB page: one 8-byte major counter shared by the
//! page plus sixty-four 7-bit minor counters, one per 64-byte block
//! (paper §2.1, Table 1: "64-ary counters"). The whole structure bit-packs
//! into exactly one 64-byte memory block: 64 × 7 bits = 56 bytes of minors
//! plus the 8-byte major.

/// Number of minor counters (blocks per page).
pub const MINORS_PER_BLOCK: usize = 64;
/// Maximum value of a 7-bit minor counter.
pub const MINOR_MAX: u8 = 0x7f;
/// Encoded size in bytes.
pub const COUNTER_BLOCK_SIZE: usize = 64;

/// A page's split counter: one major plus 64 seven-bit minors.
///
/// # Examples
///
/// ```
/// use amnt_bmt::{CounterBlock, IncrementOutcome};
///
/// let mut c = CounterBlock::new();
/// assert_eq!(c.increment(5), IncrementOutcome::MinorBumped);
/// assert_eq!(c.minor(5), 1);
/// let bytes = c.encode();
/// assert_eq!(CounterBlock::decode(&bytes), c);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CounterBlock {
    major: u64,
    minors: [u8; MINORS_PER_BLOCK],
}

/// Result of bumping a minor counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncrementOutcome {
    /// The minor counter was incremented in place.
    MinorBumped,
    /// The minor overflowed: the major was incremented and *all* minors were
    /// reset. Every block in the page must be re-encrypted under the new
    /// major counter.
    MajorOverflow,
}

impl Default for CounterBlock {
    fn default() -> Self {
        Self::new()
    }
}

impl CounterBlock {
    /// A zeroed counter block (fresh page).
    pub fn new() -> Self {
        CounterBlock {
            major: 0,
            minors: [0; MINORS_PER_BLOCK],
        }
    }

    /// The page-wide major counter.
    pub fn major(&self) -> u64 {
        self.major
    }

    /// The minor counter for block `slot` (0..64).
    ///
    /// # Panics
    ///
    /// Panics if `slot >= 64`.
    pub fn minor(&self, slot: usize) -> u8 {
        debug_assert!(slot < MINORS_PER_BLOCK);
        self.minors[slot]
    }

    /// Increments the minor counter for `slot`.
    ///
    /// On overflow of the 7-bit minor, bumps the major and resets all minors
    /// (the caller must re-encrypt the page) and reports
    /// [`IncrementOutcome::MajorOverflow`].
    ///
    /// # Panics
    ///
    /// Panics if `slot >= 64`.
    pub fn increment(&mut self, slot: usize) -> IncrementOutcome {
        debug_assert!(slot < MINORS_PER_BLOCK);
        if self.minors[slot] >= MINOR_MAX {
            self.major = self.major.wrapping_add(1);
            self.minors = [0; MINORS_PER_BLOCK];
            IncrementOutcome::MajorOverflow
        } else {
            self.minors[slot] += 1;
            IncrementOutcome::MinorBumped
        }
    }

    /// Serializes into the packed 64-byte wire format: 56 bytes of 7-bit
    /// minors (little-endian bit order) followed by the little-endian major.
    pub fn encode(&self) -> [u8; COUNTER_BLOCK_SIZE] {
        let mut out = [0u8; COUNTER_BLOCK_SIZE];
        for (slot, &minor) in self.minors.iter().enumerate() {
            let bit_pos = slot * 7;
            let byte = bit_pos / 8;
            let shift = bit_pos % 8;
            let val = (minor as u16) << shift;
            out[byte] |= (val & 0xff) as u8;
            if shift > 1 {
                out[byte + 1] |= (val >> 8) as u8;
            }
        }
        out[56..64].copy_from_slice(&self.major.to_le_bytes());
        out
    }

    /// Deserializes the packed 64-byte wire format.
    pub fn decode(bytes: &[u8; COUNTER_BLOCK_SIZE]) -> Self {
        let mut minors = [0u8; MINORS_PER_BLOCK];
        for (slot, minor) in minors.iter_mut().enumerate() {
            let bit_pos = slot * 7;
            let byte = bit_pos / 8;
            let shift = bit_pos % 8;
            debug_assert!(byte < 56);
            let lo = bytes[byte] as u16;
            let hi = if byte + 1 < 56 {
                bytes[byte + 1] as u16
            } else {
                0
            };
            *minor = (((lo | (hi << 8)) >> shift) & 0x7f) as u8;
        }
        // A fold rather than a fallible slice-to-array conversion: decode
        // runs on the recovery path, which must stay panic-free (lint R1).
        let major = bytes[56..64]
            .iter()
            .rev()
            .fold(0u64, |acc, &b| (acc << 8) | u64::from(b));
        CounterBlock { major, minors }
    }

    /// Whether every counter is zero (fresh page).
    pub fn is_zero(&self) -> bool {
        self.major == 0 && self.minors.iter().all(|&m| m == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_block_is_zero() {
        let c = CounterBlock::new();
        assert!(c.is_zero());
        assert_eq!(c.encode(), [0u8; 64]);
    }

    #[test]
    fn increment_bumps_one_slot() {
        let mut c = CounterBlock::new();
        assert_eq!(c.increment(10), IncrementOutcome::MinorBumped);
        assert_eq!(c.minor(10), 1);
        assert_eq!(c.minor(9), 0);
        assert_eq!(c.major(), 0);
    }

    #[test]
    fn minor_overflow_resets_page() {
        let mut c = CounterBlock::new();
        for _ in 0..127 {
            assert_eq!(c.increment(0), IncrementOutcome::MinorBumped);
        }
        assert_eq!(c.minor(0), 127);
        c.increment(1);
        assert_eq!(c.increment(0), IncrementOutcome::MajorOverflow);
        assert_eq!(c.major(), 1);
        assert_eq!(c.minor(0), 0);
        assert_eq!(c.minor(1), 0, "overflow resets every minor");
    }

    #[test]
    fn encode_is_exactly_64_bytes_with_major_at_tail() {
        let mut c = CounterBlock::new();
        c.major = 0x1122_3344_5566_7788;
        let bytes = c.encode();
        assert_eq!(&bytes[56..], &0x1122_3344_5566_7788u64.to_le_bytes());
    }

    #[test]
    fn known_packing_of_slot_zero_and_one() {
        let mut c = CounterBlock::new();
        c.minors[0] = 0x7f;
        c.minors[1] = 0x01;
        let bytes = c.encode();
        // Slot 0 occupies bits 0..7, slot 1 bits 7..14.
        assert_eq!(bytes[0], 0xff);
        assert_eq!(bytes[1], 0x00);
        assert_eq!(CounterBlock::decode(&bytes), c);
    }

    #[test]
    fn distinct_minors_do_not_interfere() {
        let mut c = CounterBlock::new();
        for slot in 0..MINORS_PER_BLOCK {
            c.minors[slot] = (slot as u8 * 3 + 1) & 0x7f;
        }
        let round = CounterBlock::decode(&c.encode());
        assert_eq!(round, c);
    }

    // Seeded deterministic property loops (amnt-prng replaces proptest: the
    // workspace builds offline, and failures replay exactly).

    #[test]
    fn encode_decode_roundtrip() {
        let mut rng = amnt_prng::Rng::seed_from_u64(0xC0DE_0001);
        for _ in 0..256 {
            let mut c = CounterBlock::new();
            c.major = rng.next_u64();
            for i in 0..32 {
                let m = (rng.next_u64() & 0x7f) as u8;
                c.minors[i * 2] = m;
                c.minors[i * 2 + 1] = m.wrapping_mul(5) & 0x7f;
            }
            assert_eq!(CounterBlock::decode(&c.encode()), c);
        }
    }

    #[test]
    fn increments_commute_across_distinct_slots() {
        let mut rng = amnt_prng::Rng::seed_from_u64(0xC0DE_0002);
        for _ in 0..256 {
            let a = rng.gen_range_usize(0..64);
            let b = rng.gen_range_usize(0..64);
            if a == b {
                continue;
            }
            let na = rng.gen_range(1..100);
            let nb = rng.gen_range(1..100);
            let mut c1 = CounterBlock::new();
            for _ in 0..na {
                c1.increment(a);
            }
            for _ in 0..nb {
                c1.increment(b);
            }
            let mut c2 = CounterBlock::new();
            for _ in 0..nb {
                c2.increment(b);
            }
            for _ in 0..na {
                c2.increment(a);
            }
            assert_eq!(c1, c2);
        }
    }

    #[test]
    fn encoding_is_injective_on_slots() {
        let zero = CounterBlock::new();
        for slot in 0..64 {
            for v in [1u8, 2, 63, 127] {
                let mut c = CounterBlock::new();
                c.minors[slot] = v;
                assert_ne!(c.encode(), zero.encode());
            }
        }
    }
}
