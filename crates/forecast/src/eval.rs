//! Offline evaluation of forecasting performance.
//!
//! The paper reports two error forms (Section 3):
//!
//! - **one-step-ahead prediction error** (Eq. 5):
//!   `|forecast_{t|t−1} − measurement_t|` — how well the *next measurement*
//!   is predicted (Tables 3 and 5);
//! - **true forecasting error** (Eq. 4):
//!   `|forecast_{t|t−1} − test-process observation_t|` — the error a
//!   scheduler would actually see (Tables 2 and 6), which folds in
//!   measurement error.
//!
//! [`evaluate_one_step`] replays a recorded series through a forecaster and
//! reports both metrics; the true-error variant needs the caller to supply
//! the paired oracle observations since they come from a separate process.

use crate::panel::PredictorBank;

/// Result of replaying a series through a forecaster.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalReport {
    /// Number of scored forecasts (series length minus warm-up).
    pub n: usize,
    /// Mean absolute one-step-ahead prediction error (Eq. 5).
    pub mae: f64,
    /// Root mean squared one-step error.
    pub rmse: f64,
    /// Mean error (signed bias).
    pub bias: f64,
    /// Largest absolute error.
    pub max_abs: f64,
}

/// Replays `values` through `forecaster`, scoring each live forecast
/// against the measurement that follows it. Returns `None` if fewer than
/// two values are supplied (no forecast can be scored).
pub fn evaluate_one_step(forecaster: &mut PredictorBank, values: &[f64]) -> Option<EvalReport> {
    let mut abs_sum = 0.0;
    let mut sq_sum = 0.0;
    let mut err_sum = 0.0;
    let mut max_abs: f64 = 0.0;
    let mut n = 0usize;
    for &v in values {
        if let Some(f) = forecaster.forecast() {
            let e = f.value - v;
            abs_sum += e.abs();
            sq_sum += e * e;
            err_sum += e;
            max_abs = max_abs.max(e.abs());
            n += 1;
        }
        forecaster.update(v);
    }
    if n == 0 {
        return None;
    }
    let nf = n as f64;
    Some(EvalReport {
        n,
        mae: abs_sum / nf,
        rmse: (sq_sum / nf).sqrt(),
        bias: err_sum / nf,
        max_abs,
    })
}

/// Scores forecasts against a *separate* paired oracle: at each index `i`,
/// the forecaster (already fed `history[..i]` measurements via this
/// function) forecasts, the forecast is compared with `oracle[i]`, and the
/// measurement `measurements[i]` is then absorbed.
///
/// This is the paper's Eq. 4 protocol: forecasts come from the measurement
/// series, errors are taken against the test-process observations.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn evaluate_true_error(
    forecaster: &mut PredictorBank,
    measurements: &[f64],
    oracle: &[f64],
) -> Option<EvalReport> {
    assert_eq!(
        measurements.len(),
        oracle.len(),
        "measurement/oracle pairs must align"
    );
    let mut abs_sum = 0.0;
    let mut sq_sum = 0.0;
    let mut err_sum = 0.0;
    let mut max_abs: f64 = 0.0;
    let mut n = 0usize;
    for (&m, &o) in measurements.iter().zip(oracle) {
        if let Some(f) = forecaster.forecast() {
            let e = f.value - o;
            abs_sum += e.abs();
            sq_sum += e * e;
            err_sum += e;
            max_abs = max_abs.max(e.abs());
            n += 1;
        }
        forecaster.update(m);
    }
    if n == 0 {
        return None;
    }
    let nf = n as f64;
    Some(EvalReport {
        n,
        mae: abs_sum / nf,
        rmse: (sq_sum / nf).sqrt(),
        bias: err_sum / nf,
        max_abs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_series_has_zero_error() {
        let mut nws = PredictorBank::nws_default();
        let r = evaluate_one_step(&mut nws, &[0.5; 100]).unwrap();
        assert_eq!(r.n, 99); // first value cannot be scored
        assert!(r.mae < 1e-9);
        assert!(r.rmse < 1e-9);
        assert_eq!(r.max_abs, r.max_abs.abs());
    }

    #[test]
    fn degenerate_inputs() {
        let mut nws = PredictorBank::nws_default();
        assert!(evaluate_one_step(&mut nws, &[]).is_none());
        let mut nws = PredictorBank::nws_default();
        assert!(evaluate_one_step(&mut nws, &[1.0]).is_none());
    }

    #[test]
    fn rmse_dominates_mae() {
        let mut nws = PredictorBank::nws_default();
        let vals: Vec<f64> = (0..200).map(|i| ((i * 17) % 13) as f64 / 13.0).collect();
        let r = evaluate_one_step(&mut nws, &vals).unwrap();
        assert!(r.rmse >= r.mae);
        assert!(r.max_abs >= r.rmse);
    }

    #[test]
    fn true_error_reflects_oracle_offset() {
        // Measurements are constant 0.5; the oracle sits at 0.8: the true
        // error converges to the 0.3 offset while one-step error is ~0.
        let measurements = vec![0.5; 200];
        let oracle = vec![0.8; 200];
        let mut nws = PredictorBank::nws_default();
        let r = evaluate_true_error(&mut nws, &measurements, &oracle).unwrap();
        assert!((r.mae - 0.3).abs() < 1e-6, "true MAE = {}", r.mae);
        assert!((r.bias + 0.3).abs() < 1e-6, "bias = {}", r.bias);
        let mut nws = PredictorBank::nws_default();
        let one_step = evaluate_one_step(&mut nws, &measurements).unwrap();
        assert!(one_step.mae < 1e-9);
    }

    #[test]
    #[should_panic(expected = "align")]
    fn mismatched_pairs_panic() {
        let mut nws = PredictorBank::nws_default();
        evaluate_true_error(&mut nws, &[0.1], &[0.1, 0.2]);
    }
}
