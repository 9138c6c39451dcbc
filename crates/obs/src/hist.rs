//! Log2-bucketed latency histograms.
//!
//! Bucket `i` holds durations `d` (nanoseconds) with `bucket_of(d) == i`:
//! bucket 0 is `d == 0`, bucket `i ≥ 1` is `2^(i-1) <= d < 2^i`, and the
//! last bucket absorbs everything above. With fixed bucket edges the merge
//! is an elementwise sum — associative and commutative — so per-shard and
//! per-thread histograms roll up into fleet totals exactly, in any order.

/// Number of buckets: 0, then one per power of two up to `2^62`+.
pub const N_BUCKETS: usize = 64;

/// A mergeable latency histogram with exact count / sum / max side-stats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Occupancy per log2 bucket (see module docs for the edges).
    buckets: Vec<u64>,
    count: u64,
    total_ns: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for a duration (see module docs).
pub fn bucket_of(ns: u64) -> usize {
    ((u64::BITS - ns.leading_zeros()) as usize).min(N_BUCKETS - 1)
}

/// Inclusive upper edge of a bucket (`u64::MAX` for the last).
pub fn bucket_upper_ns(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= N_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

impl LatencyHistogram {
    pub fn new() -> Self {
        Self { buckets: vec![0; N_BUCKETS], count: 0, total_ns: 0, max_ns: 0 }
    }

    /// Records one duration.
    pub fn record(&mut self, ns: u64) {
        self.buckets[bucket_of(ns)] += 1;
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Folds another histogram in (exact: bucket sums, count sum, max).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn total_ns(&self) -> u64 {
        self.total_ns
    }

    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// The bucket occupancies (length [`N_BUCKETS`]).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0 ..= 1.0`): the upper
    /// edge of the first bucket whose cumulative count reaches `q·count`.
    /// Exact to within one power of two; 0 on an empty histogram.
    pub fn quantile_upper_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= target {
                // Never report past the observed maximum (the last occupied
                // bucket's edge can wildly overshoot it).
                return bucket_upper_ns(i).min(self.max_ns);
            }
        }
        self.max_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), N_BUCKETS - 1);
        // Every bucket's upper edge maps back into the bucket.
        for i in 0..N_BUCKETS - 1 {
            assert_eq!(bucket_of(bucket_upper_ns(i)), i, "bucket {i}");
        }
    }

    #[test]
    fn record_and_merge_agree_with_bulk() {
        let ds = [0u64, 1, 5, 17, 900, 1024, 65_000, 1_000_000];
        let mut whole = LatencyHistogram::new();
        let mut left = LatencyHistogram::new();
        let mut right = LatencyHistogram::new();
        for (i, &d) in ds.iter().enumerate() {
            whole.record(d);
            if i % 2 == 0 { left.record(d) } else { right.record(d) }
        }
        let mut merged = left.clone();
        merged.merge(&right);
        assert_eq!(merged, whole);
        assert_eq!(whole.count(), ds.len() as u64);
        assert_eq!(whole.total_ns(), ds.iter().sum::<u64>());
        assert_eq!(whole.max_ns(), 1_000_000);
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds() {
        let mut h = LatencyHistogram::new();
        for _ in 0..90 {
            h.record(100); // bucket 7, upper edge 127
        }
        for _ in 0..10 {
            h.record(10_000); // bucket 14, upper edge 16383
        }
        assert_eq!(h.quantile_upper_ns(0.5), 127);
        assert!(h.quantile_upper_ns(0.99) >= 10_000);
        assert_eq!(h.quantile_upper_ns(1.0), 10_000, "capped at the observed max");
        assert_eq!(LatencyHistogram::new().quantile_upper_ns(0.5), 0);
    }
}
