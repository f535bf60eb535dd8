//! Log2-bucketed cycle histograms.
//!
//! Bucket `i` holds values whose bit length is `i` — i.e. bucket 0 is the
//! value 0, bucket 1 is {1}, bucket 2 is {2,3}, bucket 3 is {4..7}, and so
//! on up to bucket 64. Percentiles are answered with the *upper bound* of
//! the bucket the rank falls in, which over-estimates by at most 2× — the
//! right bias for cost reporting (never under-claim a tail).
//!
//! Recording is O(1) with no allocation, so histograms stay enabled even
//! when event tracing is off: they replace the monitors' old flat exit
//! counters.

use crate::event::ExitCause;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CycleHist {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for CycleHist {
    fn default() -> Self {
        CycleHist {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl CycleHist {
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Inclusive upper bound of a bucket (what percentiles report).
    fn bucket_hi(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// `p` in `0..=100`. Returns the upper bound of the bucket containing the
    /// given rank; exact `min`/`max` are reported at the extremes.
    pub fn percentile(&self, p: u32) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if p == 0 {
            return self.min();
        }
        if p >= 100 {
            return self.max;
        }
        // rank: 1-based index of the sample the percentile refers to.
        self.value_at_rank((self.count * p as u64).div_ceil(100).max(1))
    }

    /// Per-mille percentile, for sub-percent tails: `p` in `0..=1000`.
    pub fn permille(&self, p: u32) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if p == 0 {
            return self.min();
        }
        if p >= 1000 {
            return self.max;
        }
        self.value_at_rank((self.count * p as u64).div_ceil(1000).max(1))
    }

    fn value_at_rank(&self, rank: u64) -> u64 {
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Don't report beyond the observed maximum.
                return Self::bucket_hi(i).min(self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.percentile(50)
    }

    pub fn p99(&self) -> u64 {
        self.percentile(99)
    }

    pub fn p999(&self) -> u64 {
        self.permille(999)
    }

    /// Raw log2 bucket counts (bucket `i` holds values of bit length `i`);
    /// the substrate for external exposition formats.
    pub fn buckets(&self) -> &[u64; 65] {
        &self.buckets
    }

    /// Inclusive upper bound of bucket `i`, for exposition labels.
    pub fn bucket_bound(i: usize) -> u64 {
        Self::bucket_hi(i)
    }

    pub fn merge(&mut self, other: &CycleHist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// One histogram per exit cause — the replacement for the monitors' flat
/// `exits_*` counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExitHists {
    hists: [CycleHist; ExitCause::COUNT],
}

impl ExitHists {
    pub fn record(&mut self, cause: ExitCause, cycles: u64) {
        self.hists[cause.index()].record(cycles);
    }

    pub fn get(&self, cause: ExitCause) -> &CycleHist {
        &self.hists[cause.index()]
    }

    pub fn iter(&self) -> impl Iterator<Item = (ExitCause, &CycleHist)> {
        ExitCause::ALL.iter().map(move |&c| (c, self.get(c)))
    }

    /// Total number of recorded exits across all causes.
    pub fn total_count(&self) -> u64 {
        self.hists.iter().map(|h| h.count()).sum()
    }

    /// Total monitor cycles across all causes.
    pub fn total_cycles(&self) -> u64 {
        self.hists.iter().map(|h| h.sum()).sum()
    }

    /// Snapshot of per-cause counts, for delta-based reporting.
    pub fn counts(&self) -> [u64; ExitCause::COUNT] {
        let mut out = [0; ExitCause::COUNT];
        for (i, h) in self.hists.iter().enumerate() {
            out[i] = h.count();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_and_percentiles() {
        let mut h = CycleHist::new();
        for v in [0u64, 1, 2, 3, 4, 700, 700, 700, 700, 700] {
            h.record(v);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 700);
        // Rank 5 (p50) falls in the bucket of 4 (bucket 3, hi=7).
        assert_eq!(h.p50(), 7);
        // p99 → rank 10 → bucket of 700 (512..1023), capped at observed max.
        assert_eq!(h.p99(), 700);
        assert_eq!(h.percentile(0), 0);
        assert_eq!(h.percentile(100), 700);
    }

    #[test]
    fn empty_hist_is_all_zero() {
        let h = CycleHist::new();
        assert_eq!(
            (h.count(), h.min(), h.max(), h.mean(), h.p50(), h.p99()),
            (0, 0, 0, 0, 0, 0)
        );
        assert_eq!(h.p999(), 0);
    }

    #[test]
    fn p999_resolves_sub_percent_tails() {
        // 10_000 samples, 11 outliers: p99's rank (9900) lands in the small
        // bucket, p99.9's rank (9990) lands in the outlier bucket.
        let mut h = CycleHist::new();
        for _ in 0..9_989 {
            h.record(10);
        }
        for _ in 0..11 {
            h.record(100_000);
        }
        assert_eq!(h.p99(), 15); // bucket hi of 10 is 15
        assert_eq!(h.p999(), 100_000); // capped at observed max
        assert_eq!(h.permille(1000), 100_000);
        assert_eq!(h.permille(0), 10);
    }

    #[test]
    fn single_value() {
        let mut h = CycleHist::new();
        h.record(640);
        assert_eq!(h.p50(), 640); // capped at max
        assert_eq!(h.p99(), 640);
        assert_eq!(h.mean(), 640);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = CycleHist::new();
        let mut b = CycleHist::new();
        a.record(10);
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 1000);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            // Splitting a sample stream at any point and merging the two
            // halves is indistinguishable from recording the whole stream —
            // the invariant that lets `CycleHist` aggregates be sharded.
            #[test]
            fn merge_of_splits_equals_whole(
                values in proptest::collection::vec(any::<u64>(), 0..64),
                split in 0usize..64,
            ) {
                let split = split.min(values.len());
                let mut whole = CycleHist::new();
                for &v in &values {
                    whole.record(v);
                }
                let mut a = CycleHist::new();
                let mut b = CycleHist::new();
                for &v in &values[..split] {
                    a.record(v);
                }
                for &v in &values[split..] {
                    b.record(v);
                }
                a.merge(&b);
                prop_assert_eq!(a, whole);
            }
        }
    }

    #[test]
    fn exit_hists_by_cause() {
        let mut e = ExitHists::default();
        e.record(ExitCause::Mmio, 990);
        e.record(ExitCause::Mmio, 990);
        e.record(ExitCause::Privileged, 790);
        assert_eq!(e.get(ExitCause::Mmio).count(), 2);
        assert_eq!(e.get(ExitCause::Privileged).count(), 1);
        assert_eq!(e.get(ExitCause::Shadow).count(), 0);
        assert_eq!(e.total_count(), 3);
        assert_eq!(e.total_cycles(), 990 + 990 + 790);
    }
}
