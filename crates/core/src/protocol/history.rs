//! The AMNT hot-region history buffer (paper §4.2).
//!
//! A small on-chip structure tracking the most recent data writes at
//! subtree-region granularity. Each entry pairs a region index with a
//! saturating counter; a head-max invariant (the head always holds the
//! largest counter) is maintained with a single swap per update, so the
//! buffer is never fully sorted — exactly the paper's "two cache accesses,
//! one add, one comparator" design. With 64 entries of (6-bit index, 6-bit
//! counter) the structure costs 768 bits = 96 bytes of volatile on-chip
//! space (Table 3).

/// One history-buffer entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    region: u64,
    count: u32,
}

/// The hot-region tracking buffer.
///
/// # Examples
///
/// ```
/// use amnt_core::HistoryBuffer;
///
/// let mut hb = HistoryBuffer::new(64);
/// for _ in 0..10 { hb.record(3); }
/// hb.record(7);
/// assert_eq!(hb.hottest(), Some(3));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryBuffer {
    entries: Vec<Entry>,
    capacity: usize,
    /// Counters saturate at `2^ceil(log2(capacity)) - 1` (the paper's
    /// log2(n)-bit counters).
    saturation: u32,
}

impl HistoryBuffer {
    /// Creates a buffer with `capacity` entries (the paper uses 64).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "history buffer needs at least one entry");
        let bits = usize::BITS - (capacity - 1).leading_zeros();
        HistoryBuffer {
            entries: Vec::with_capacity(capacity),
            capacity,
            saturation: (1u32 << bits.max(1)) - 1,
        }
    }

    /// Records a data write to `region`.
    ///
    /// Scans for the region's entry (allocating one if absent, replacing the
    /// coldest non-head entry when full), increments its saturating counter,
    /// and swaps it to the head if it now strictly exceeds the head's count
    /// — ties keep the incumbent head, which avoids gratuitous subtree
    /// movement.
    pub fn record(&mut self, region: u64) {
        if let Some(pos) = self.entries.iter().position(|e| e.region == region) {
            debug_assert!(pos < self.entries.len());
            self.entries[pos].count = (self.entries[pos].count + 1).min(self.saturation);
            if pos != 0 && self.entries[pos].count > self.entries[0].count {
                self.entries.swap(0, pos);
            }
            return;
        }
        let entry = Entry { region, count: 1 };
        if self.entries.len() < self.capacity {
            self.entries.push(entry);
        } else {
            // Replace the coldest non-head victim.
            let victim = self
                .entries
                .iter()
                .enumerate()
                .skip(1)
                .min_by_key(|(_, e)| e.count)
                .map(|(i, _)| i)
                .unwrap_or(0);
            debug_assert!(victim < self.entries.len());
            self.entries[victim] = entry;
        }
        // A fresh count of 1 can only beat an empty head.
        if self.entries[0].count < 1 && self.entries.len() > 1 {
            let last = self.entries.len() - 1;
            self.entries.swap(0, last);
        }
    }

    /// The hottest region (the head), if any write has been recorded.
    pub fn hottest(&self) -> Option<u64> {
        self.entries
            .first()
            .filter(|e| e.count > 0)
            .map(|e| e.region)
    }

    /// Zeroes all counters, keeping region tags, and pins `incumbent` at the
    /// head so ties keep the current subtree root (paper §4.2). Called at
    /// the end of each tracking interval.
    pub fn start_interval(&mut self, incumbent: Option<u64>) {
        for e in &mut self.entries {
            e.count = 0;
        }
        if let Some(region) = incumbent {
            match self.entries.iter().position(|e| e.region == region) {
                Some(pos) => self.entries.swap(0, pos),
                None => {
                    let entry = Entry { region, count: 0 };
                    if self.entries.len() < self.capacity {
                        self.entries.push(entry);
                        let last = self.entries.len() - 1;
                        self.entries.swap(0, last);
                    } else {
                        self.entries[0] = entry;
                    }
                }
            }
        }
    }

    /// Number of occupied entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries are occupied.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// On-chip cost in bits: `n * 2 * log2(n)` (Table 3's 768 bits for 64).
    pub fn storage_bits(&self) -> usize {
        let bits = (usize::BITS - (self.capacity - 1).leading_zeros()).max(1) as usize;
        self.capacity * 2 * bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_buffer_has_no_hottest() {
        let hb = HistoryBuffer::new(64);
        assert_eq!(hb.hottest(), None);
        assert!(hb.is_empty());
    }

    #[test]
    fn head_tracks_the_maximum() {
        let mut hb = HistoryBuffer::new(8);
        hb.record(1);
        hb.record(2);
        hb.record(2);
        assert_eq!(hb.hottest(), Some(2));
        hb.record(1);
        // Tie: incumbent head (2) stays.
        assert_eq!(hb.hottest(), Some(2));
        hb.record(1);
        assert_eq!(hb.hottest(), Some(1));
    }

    #[test]
    fn counters_saturate() {
        let mut hb = HistoryBuffer::new(64);
        for _ in 0..1000 {
            hb.record(5);
        }
        // 64 entries => 6-bit counters => saturation at 63.
        hb.record(9);
        assert_eq!(hb.hottest(), Some(5));
    }

    #[test]
    fn full_buffer_replaces_coldest_non_head() {
        // Capacity 8 => 3-bit counters saturating at 7; stay below that.
        let mut hb = HistoryBuffer::new(8);
        for r in 0..8 {
            for _ in 0..=(r.min(6)) {
                hb.record(r);
            }
        }
        assert_eq!(hb.hottest(), Some(6), "first region to reach count 7 leads");
        // Region 9 must evict a coldest non-head entry (region 0, count 1).
        hb.record(9);
        assert_eq!(hb.len(), 8);
        hb.record(0);
        // 0 was evicted, so recording it again evicts the new coldest.
        assert_eq!(hb.len(), 8);
        assert_eq!(hb.hottest(), Some(6), "head untouched by replacement");
    }

    #[test]
    fn start_interval_zeroes_and_pins_incumbent() {
        let mut hb = HistoryBuffer::new(8);
        for _ in 0..5 {
            hb.record(2);
        }
        hb.start_interval(Some(2));
        assert_eq!(hb.hottest(), None, "all counters zeroed");
        // One write to a different region now beats the zeroed incumbent.
        hb.record(4);
        assert_eq!(hb.hottest(), Some(4));
    }

    #[test]
    fn incumbent_wins_ties_after_interval_reset() {
        let mut hb = HistoryBuffer::new(8);
        hb.start_interval(Some(7));
        hb.record(7);
        hb.record(3);
        // 7 and 3 both have count 1; incumbent at head stays.
        assert_eq!(hb.hottest(), Some(7));
    }

    #[test]
    fn paper_storage_cost_is_96_bytes() {
        let hb = HistoryBuffer::new(64);
        assert_eq!(hb.storage_bits(), 768);
        assert_eq!(hb.storage_bits() / 8, 96);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_panics() {
        HistoryBuffer::new(0);
    }
}
