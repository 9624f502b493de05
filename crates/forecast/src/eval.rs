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
//! scores the first form; the second needs the paired test-process
//! observations, which the experiment tables collect and score themselves.

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
}
