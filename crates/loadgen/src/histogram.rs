//! A dependency-free log-bucketed latency histogram.
//!
//! Values are nanoseconds in `u64`. The first 16 buckets are exact;
//! above that, each power-of-two range splits into 16 linear
//! sub-buckets, so the relative quantization error is bounded by
//! 1/16 ≈ 6% while the whole table stays under 1000 counters — small
//! enough to live per worker and merge at the end of a run.

use std::time::Duration;

/// Sub-buckets per power-of-two range (and the exact-bucket cutoff).
const SUB: usize = 16;
/// Index one past the largest representable bucket (major 63).
const BUCKETS: usize = SUB * (64 - 3);

/// A mergeable latency histogram over nanosecond values.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for a nanosecond value.
fn index_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let major = 63 - v.leading_zeros() as usize; // >= 4
    let sub = ((v >> (major - 4)) & 0xF) as usize;
    SUB * (major - 3) + sub
}

/// Lower bound and width of bucket `idx`, inverting [`index_of`].
fn bucket_range(idx: usize) -> (u64, u64) {
    if idx < SUB {
        return (idx as u64, 1);
    }
    let major = idx / SUB + 3;
    let sub = (idx % SUB) as u64;
    let width = 1u64 << (major - 4);
    ((SUB as u64 + sub) * width, width)
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: vec![0; BUCKETS],
            count: 0,
            max: 0,
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, d: Duration) {
        self.record_ns(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Records one latency sample in nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        self.buckets[index_of(ns)] += 1;
        self.count += 1;
        self.max = self.max.max(ns);
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact maximum recorded, nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max
    }

    /// The value at quantile `q ∈ [0, 1]`, nanoseconds, reported as the
    /// midpoint of the bucket holding that rank (so within ~6% of the
    /// true sample). `q = 1` returns the exact maximum.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, width) = bucket_range(idx);
                return (lo + width / 2).min(self.max);
            }
        }
        self.max
    }

    /// Median, nanoseconds.
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 99th percentile, nanoseconds.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// 99.9th percentile, nanoseconds.
    pub fn p999(&self) -> u64 {
        self.percentile(0.999)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_and_range_invert_each_other() {
        for v in [0u64, 1, 15, 16, 17, 100, 1023, 1024, 1 << 20, u64::MAX] {
            let idx = index_of(v);
            let (lo, width) = bucket_range(idx);
            // `v - lo < width` avoids overflow at the top bucket.
            assert!(
                lo <= v && v - lo < width,
                "v={v} idx={idx} lo={lo} width={width}"
            );
        }
    }

    #[test]
    fn quantiles_track_exact_values_within_bucket_error() {
        let mut h = LatencyHistogram::new();
        let mut values: Vec<u64> = (1..=10_000u64).map(|i| i * 997).collect();
        for &v in &values {
            h.record_ns(v);
        }
        values.sort_unstable();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * values.len() as f64).ceil() as usize).max(1);
            let exact = values[rank - 1] as f64;
            let got = h.percentile(q) as f64;
            assert!(
                (got - exact).abs() / exact < 0.07,
                "q={q}: got {got}, exact {exact}"
            );
        }
        assert_eq!(h.percentile(1.0), *values.last().unwrap());
        assert_eq!(h.count(), 10_000);
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut whole = LatencyHistogram::new();
        for i in 0..5000u64 {
            let v = i * i + 17;
            if i % 2 == 0 {
                a.record_ns(v);
            } else {
                b.record_ns(v);
            }
            whole.record_ns(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.max_ns(), whole.max_ns());
        for q in [0.5, 0.99, 0.999] {
            assert_eq!(a.percentile(q), whole.percentile(q));
        }
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.percentile(1.0), 0);
    }

    #[test]
    fn ordered_percentiles() {
        let mut h = LatencyHistogram::new();
        for i in 0..100_000u64 {
            h.record_ns(i % 7919 * 1000);
        }
        assert!(h.p50() <= h.p99());
        assert!(h.p99() <= h.p999());
        assert!(h.p999() <= h.max_ns());
    }
}
