//! Block aggregation: the `X^(m)` construction of Section 3.2.
//!
//! For a series `X_1, X_2, …` and aggregation level `m`, the aggregated
//! series is `X^(m)_k = (X_{km-m+1} + … + X_{km}) / m` — non-overlapping
//! block means. The paper aggregates 10-second availability measurements
//! with `m = 30` to obtain 5-minute average availability (Tables 4–6,
//! Figure 4). For self-similar series the variance of `X^(m)` decays like
//! `m^(2H-2)`, more slowly than the `1/m` of short-range-dependent series.

use crate::series::Series;

/// Non-overlapping block means of `values` with block length `m`.
///
/// Any trailing partial block is discarded, matching the paper's
/// construction (`k` runs over whole blocks only).
///
/// # Examples
///
/// ```
/// use nws_timeseries::aggregate_mean;
///
/// // 10-second measurements -> 30-second block means (m = 3).
/// let x = [0.9, 0.8, 1.0, 0.2, 0.3, 0.4, 0.99];
/// assert_eq!(aggregate_mean(&x, 3), vec![0.9, 0.3]);
/// ```
///
/// # Panics
///
/// Panics if `m == 0`.
pub fn aggregate_mean(values: &[f64], m: usize) -> Vec<f64> {
    assert!(m > 0, "aggregation level m must be positive");
    values
        .chunks_exact(m)
        .map(|block| block.iter().sum::<f64>() / m as f64)
        .collect()
}

/// Aggregates a [`Series`] into block means of `m` consecutive observations.
///
/// The timestamp of each aggregated point is the timestamp of the *last*
/// observation in its block, so a forecast of the aggregated series made "at"
/// a block's timestamp only uses data available by then.
///
/// # Panics
///
/// Panics if `m == 0`.
pub fn aggregate_series(series: &Series, m: usize) -> Series {
    assert!(m > 0, "aggregation level m must be positive");
    let mut out = Series::with_capacity(format!("{}^({m})", series.name()), series.len() / m);
    let times = series.times();
    let values = series.values();
    for (k, block) in values.chunks_exact(m).enumerate() {
        let t = times[k * m + m - 1];
        let mean = block.iter().sum::<f64>() / m as f64;
        out.push(t, mean).expect("block timestamps are increasing");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_mean_blocks() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        assert_eq!(aggregate_mean(&v, 2), vec![1.5, 3.5, 5.5]);
        assert_eq!(aggregate_mean(&v, 3), vec![2.0, 5.0]);
        assert_eq!(aggregate_mean(&v, 7), vec![4.0]);
        assert_eq!(aggregate_mean(&v, 8), Vec::<f64>::new());
    }

    #[test]
    fn aggregate_mean_m1_is_identity() {
        let v = [0.25, 0.5, 0.75];
        assert_eq!(aggregate_mean(&v, 1), v.to_vec());
    }

    #[test]
    #[should_panic(expected = "aggregation level m must be positive")]
    fn aggregate_mean_rejects_zero_m() {
        aggregate_mean(&[1.0], 0);
    }

    #[test]
    fn aggregate_series_stamps_block_end() {
        let s = Series::from_values("a", 0.0, 10.0, [1.0, 2.0, 3.0, 4.0]).unwrap();
        let agg = aggregate_series(&s, 2);
        assert_eq!(agg.values(), &[1.5, 3.5]);
        // Block of t=0,10 stamped at 10; block of t=20,30 stamped at 30.
        assert_eq!(agg.times(), &[10.0, 30.0]);
        assert_eq!(agg.name(), "a^(2)");
    }

    #[test]
    fn aggregate_series_drops_partial_tail() {
        let s = Series::from_values("a", 0.0, 1.0, [1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        let agg = aggregate_series(&s, 2);
        assert_eq!(agg.len(), 2);
    }

    #[test]
    fn variance_of_aggregate_of_iid_decays_like_one_over_m() {
        // For i.i.d.-ish data the block-mean variance should shrink by ~m.
        // Use a deterministic pseudo-random-looking sequence.
        let mut state: u64 = 0x9E3779B97F4A7C15;
        let v: Vec<f64> = (0..4000)
            .map(|_| {
                // SplitMix64 step: high-quality, dependency-free pseudo-noise.
                state = state.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^= z >> 31;
                (z >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect();
        let var = |x: &[f64]| {
            let m = x.iter().sum::<f64>() / x.len() as f64;
            x.iter().map(|&a| (a - m) * (a - m)).sum::<f64>() / x.len() as f64
        };
        let v10 = aggregate_mean(&v, 10);
        let ratio = var(&v) / var(&v10);
        // Short-range data: ratio near 10 (generous tolerance).
        assert!(ratio > 4.0 && ratio < 25.0, "ratio = {ratio}");
    }
}
