//! Order statistics over host samples and mergeable log2 histograms.

use amnt_trace::LogHistogram;

/// Median of `values` (mean of the middle pair for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0–100) of integer samples; 0 when empty.
pub fn percentile(samples: &[u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Sum of several [`LogHistogram`]s (the engine's histograms do not merge),
/// with the same bucketed percentile rule, so a merged percentile is exact
/// and repeats bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hist {
    counts: [u64; 65],
    count: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: [0; 65],
            count: 0,
            max: 0,
        }
    }
}

impl Hist {
    /// Adds every sample of `h`.
    pub fn merge(&mut self, h: &LogHistogram) {
        for (acc, n) in self.counts.iter_mut().zip(h.buckets()) {
            *acc += n;
        }
        self.count += h.count();
        self.max = self.max.max(h.max());
    }

    /// Samples merged so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Upper bound of the bucket holding the `p`-th percentile sample,
    /// clamped to the maximum ([`LogHistogram::percentile`]'s rule).
    pub fn percentile(&self, p: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (self.count * p.min(100)).div_ceil(100).max(1);
        let mut seen = 0;
        for (b, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = if b >= 64 { u64::MAX } else { (1u64 << b) - 1 };
                return upper.min(self.max);
            }
        }
        self.max
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), 50);
        assert_eq!(percentile(&s, 99.0), 99);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn merged_hist_matches_single_hist() {
        let (mut a, mut b, mut all) = (
            LogHistogram::default(),
            LogHistogram::default(),
            LogHistogram::default(),
        );
        for v in 0..500u64 {
            let x = v * v % 1777;
            if v % 3 == 0 {
                a.record(x)
            } else {
                b.record(x)
            }
            all.record(x);
        }
        let mut h = Hist::default();
        h.merge(&a);
        h.merge(&b);
        for p in [50, 90, 99] {
            assert_eq!(h.percentile(p), all.percentile(p));
        }
    }
}
