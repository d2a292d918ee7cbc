//! Log2-bucket histograms with deterministic integer percentiles.

/// A histogram over `u64` samples with one bucket per bit length: bucket 0
/// holds the value 0, bucket `b ≥ 1` holds values in `[2^(b-1), 2^b)`.
///
/// Everything is integer arithmetic, so percentile summaries are exactly
/// reproducible across hosts. A percentile answers with the *upper bound* of
/// the bucket the rank falls in (clamped to the exact observed maximum),
/// which errs pessimistic by at most 2× — the right bias for tail-latency
/// reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    counts: [u64; 65],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            counts: [0; 65],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

/// Bucket index of `value`: its bit length.
#[inline]
fn bucket_of(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

impl LogHistogram {
    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.counts[bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        if value > self.max {
            self.max = value;
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample recorded (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Integer mean (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The value at percentile `p` (0–100): the upper bound of the bucket
    /// containing the `ceil(p/100 · count)`-th smallest sample, clamped to
    /// the observed maximum. Returns 0 when empty.
    pub fn percentile(&self, p: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (self.count * p.min(100)).div_ceil(100).max(1);
        let mut seen = 0u64;
        for (b, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                if b == 0 {
                    return 0;
                }
                // Upper bound of bucket b is 2^b - 1 (saturating at u64::MAX).
                let upper = if b >= 64 { u64::MAX } else { (1u64 << b) - 1 };
                return upper.min(self.max);
            }
        }
        self.max
    }

    /// Per-bucket counts (index = bit length of the values it holds).
    pub fn buckets(&self) -> &[u64; 65] {
        &self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LogHistogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(50), 0);
        assert_eq!(h.mean(), 0);
    }

    #[test]
    fn buckets_split_by_bit_length() {
        let mut h = LogHistogram::default();
        for v in [0, 1, 2, 3, 4, 7, 8, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.buckets()[0], 1); // 0
        assert_eq!(h.buckets()[1], 1); // 1
        assert_eq!(h.buckets()[2], 2); // 2, 3
        assert_eq!(h.buckets()[3], 2); // 4, 7
        assert_eq!(h.buckets()[4], 1); // 8
        assert_eq!(h.buckets()[64], 1); // u64::MAX
    }

    #[test]
    fn summary_stats() {
        let mut h = LogHistogram::default();
        for v in [10, 20, 30, 40] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 100);
        assert_eq!(h.mean(), 25);
        assert_eq!(h.max(), 40);
    }

    #[test]
    fn percentiles_are_bucket_upper_bounds_clamped_to_max() {
        let mut h = LogHistogram::default();
        // 9 samples of 100 (bucket 7: [64,128)), 1 sample of 1000 (bucket 10).
        for _ in 0..9 {
            h.record(100);
        }
        h.record(1000);
        assert_eq!(h.percentile(50), 127);
        assert_eq!(h.percentile(90), 127);
        assert_eq!(h.percentile(99), 1000, "tail clamps to the exact max");
        assert_eq!(h.percentile(100), 1000);
    }

    #[test]
    fn single_sample_percentiles() {
        let mut h = LogHistogram::default();
        h.record(610);
        for p in [0, 1, 50, 99, 100] {
            assert_eq!(h.percentile(p), 610);
        }
    }

    #[test]
    fn p50_of_uniform_two_values() {
        let mut h = LogHistogram::default();
        for _ in 0..50 {
            h.record(4); // bucket 3, upper bound 7
        }
        for _ in 0..50 {
            h.record(1 << 20);
        }
        assert_eq!(h.percentile(50), 7);
        assert_eq!(h.percentile(90), 1 << 20);
    }
}
