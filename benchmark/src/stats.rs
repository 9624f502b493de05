//! Order statistics: one quantile estimator (across the ops of a pass,
//! the passes of a run, and for `compare` the runs of a set), the
//! quiet-decile mean a run reports, and the bracketed `setup_s`
//! selection.

/// Sorts a sample in place, ascending, NaN-free by construction (every
/// value here is a measured duration or rate).
pub fn sort(values: &mut [f64]) {
    values.sort_unstable_by(f64::total_cmp);
}

/// The `q`-quantile of an ascending-sorted sample, linearly
/// interpolated between the two nearest order statistics (`q = 0` is
/// the minimum, `q = 1` the maximum). Panics on an empty sample: every
/// caller has at least one pass.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Which direction of a per-pass figure is the good one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How a per-pass figure spread across the passes of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub p10: f64,
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
    pub p90: f64,
}

impl Spread {
    pub fn of(values: &[f64]) -> Self {
        let mut v = values.to_vec();
        sort(&mut v);
        Spread {
            p10: quantile(&v, 0.10),
            p25: quantile(&v, 0.25),
            p50: quantile(&v, 0.50),
            p75: quantile(&v, 0.75),
            p90: quantile(&v, 0.90),
        }
    }
}

/// The quiet-decile mean of a per-pass figure: the mean of the best
/// tenth of the passes (at least two) — the lowest times, the highest
/// rates. Interference on this machine only ever slows a pass, so the
/// best passes are the undisturbed ones; averaging a tenth of them
/// rather than taking the single best evens out the error of the
/// calibration spins beside each pass.
pub fn quiet_mean(values: &[f64], better: Better) -> f64 {
    assert!(!values.is_empty(), "quiet mean of an empty sample");
    let mut v = values.to_vec();
    sort(&mut v);
    if better == Better::Higher {
        v.reverse();
    }
    let keep = values.len().div_ceil(10).max(2).min(values.len());
    v[..keep].iter().sum::<f64>() / keep as f64
}

/// `setup_s` from the bracketed set-up samples (three before the
/// passes, three after): the second-fastest, which discards one lucky
/// outlier and every sample a slow regime inflated.
pub fn select_setup(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "no set-up was timed");
    let mut v = samples.to_vec();
    sort(&mut v);
    v[1.min(v.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile(&v, 0.0), 10.0);
        assert_eq!(quantile(&v, 0.25), 20.0);
        assert_eq!(quantile(&v, 0.5), 30.0);
        assert_eq!(quantile(&v, 1.0), 50.0);
        assert!((quantile(&v, 0.9) - 46.0).abs() < 1e-12);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn quiet_mean_averages_the_best_tenth_of_the_passes() {
        // Twenty passes: the best tenth is the best two.
        let mut times: Vec<f64> = (0..20).map(|i| 1.0 + f64::from(i) * 0.1).collect();
        times.swap(0, 13);
        assert!((quiet_mean(&times, Better::Lower) - 1.05).abs() < 1e-12);
        assert!((quiet_mean(&times, Better::Higher) - 2.85).abs() < 1e-12);
        // Interference slows a third of the passes; the figure holds.
        let quiet = [1.00, 1.01, 1.02, 1.00, 1.03, 1.01, 1.02, 1.00, 1.01];
        let mut disturbed = quiet.to_vec();
        disturbed.extend([1.9, 2.2, 1.7]);
        assert_eq!(
            quiet_mean(&quiet, Better::Lower),
            quiet_mean(&disturbed, Better::Lower)
        );
        // Never fewer than two passes, never more than there are.
        assert_eq!(quiet_mean(&[3.0, 1.0, 2.0], Better::Lower), 1.5);
        assert_eq!(quiet_mean(&[7.0], Better::Higher), 7.0);
    }

    #[test]
    fn setup_is_the_second_fastest_of_the_bracket() {
        assert_eq!(select_setup(&[0.61, 0.52, 0.95, 0.50, 0.55, 0.70]), 0.52);
        assert_eq!(select_setup(&[0.8]), 0.8);
        assert_eq!(select_setup(&[0.9, 0.7]), 0.9);
    }
}
