//! Autoregressive prediction via Levinson–Durbin.
//!
//! The NWS "borrowed heavily from methodologies used by the digital signal
//! processing community" (Section 3, citing Haddad & Parsons). The
//! canonical DSP one-step predictor is an **AR(p) model** fit by solving
//! the Yule–Walker equations with the Levinson–Durbin recursion — O(p²)
//! per fit, far cheaper than a full regression, and refit only
//! periodically over a sliding window.
//!
//! [`ArPredictor`] implements exactly that: it keeps a window of recent
//! measurements, refits the AR coefficients every `refit_every`
//! observations from the window's sample autocovariances, and predicts
//! `x̂_{t+1} = μ + Σ a_i (x_{t+1−i} − μ)`.

use crate::kernels::{fit_ar, model_horizon, model_step, newest_first};
use crate::methods::Predictor;
use nws_timeseries::SlidingWindow;

/// Solves the Yule–Walker equations for AR coefficients using the
/// Levinson–Durbin recursion.
///
/// `autocov[k]` must hold the autocovariance at lag `k` for
/// `k = 0..=order`. Returns the `order` AR coefficients, or `None` when
/// the system is degenerate (zero variance or a non-positive-definite
/// covariance sequence, e.g. from numerically inconsistent inputs).
pub fn levinson_durbin(autocov: &[f64], order: usize) -> Option<Vec<f64>> {
    let mut a = vec![0.0f64; order];
    let mut prev = vec![0.0f64; order];
    levinson_durbin_into(autocov, order, &mut a, &mut prev).then_some(a)
}

/// The recursion itself, writing into caller-provided buffers so periodic
/// refits allocate nothing. `a` and `prev` must both hold exactly `order`
/// elements; `a` receives the coefficients on success and is unspecified on
/// failure. Returns whether the fit succeeded.
pub(crate) fn levinson_durbin_into(
    autocov: &[f64],
    order: usize,
    a: &mut [f64],
    prev: &mut [f64],
) -> bool {
    if autocov.len() < order + 1 || autocov[0] <= 0.0 {
        return false;
    }
    a.fill(0.0); // current coefficients a_1..a_p
    let mut e = autocov[0]; // prediction error variance
    for k in 0..order {
        let mut acc = autocov[k + 1];
        for j in 0..k {
            acc -= a[j] * autocov[k - j];
        }
        if e <= 0.0 {
            return false;
        }
        let reflection = acc / e;
        if !reflection.is_finite() || reflection.abs() > 1.0 + 1e-9 {
            // Non-stationary fit; bail out rather than predict explosively.
            return false;
        }
        // Update coefficients (Levinson step).
        prev.copy_from_slice(a);
        a[k] = reflection;
        for j in 0..k {
            a[j] = prev[j] - reflection * prev[k - 1 - j];
        }
        e *= 1.0 - reflection * reflection;
    }
    true
}

/// A sliding-window AR(p) one-step predictor.
#[derive(Debug, Clone)]
pub struct ArPredictor {
    order: usize,
    window: SlidingWindow,
    refit_every: usize,
    since_refit: usize,
    /// Fitted AR coefficients (empty until the first successful fit).
    coefficients: Vec<f64>,
    /// Window mean at fit time.
    mean: f64,
    /// Refit scratch, preallocated so periodic fits are allocation-free:
    /// autocovariances up to lag `order`, and the two Levinson buffers.
    autocov: Vec<f64>,
    lev_a: Vec<f64>,
    lev_prev: Vec<f64>,
}

impl ArPredictor {
    /// Creates an AR(`order`) predictor over a window of `window_len`
    /// measurements, refitting every `refit_every` observations.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < order`, `window_len >= 4 * order`, and
    /// `refit_every > 0`.
    pub fn new(order: usize, window_len: usize, refit_every: usize) -> Self {
        assert!(order > 0, "order must be positive");
        assert!(
            window_len >= 4 * order,
            "window must be at least 4x the order for a stable fit"
        );
        assert!(refit_every > 0, "refit cadence must be positive");
        Self {
            order,
            window: SlidingWindow::new(window_len),
            refit_every,
            since_refit: 0,
            coefficients: Vec::with_capacity(order),
            mean: 0.0,
            autocov: vec![0.0; order + 1],
            lev_a: vec![0.0; order],
            lev_prev: vec![0.0; order],
        }
    }

    /// The fitted AR coefficients (empty before the first fit).
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    fn refit(&mut self) {
        let n = self.window.len();
        if n < 4 * self.order {
            return;
        }
        let window = &self.window;
        if let Some(mean) = fit_ar(
            n,
            |t| window.get(t).expect("t in range"),
            self.order,
            &mut self.autocov,
            &mut self.lev_a,
            &mut self.lev_prev,
        ) {
            self.coefficients.clear();
            self.coefficients.extend_from_slice(&self.lev_a);
            self.mean = mean;
        }
        // On a degenerate fit the previous model (or none) is kept.
    }
}

impl Predictor for ArPredictor {
    fn name(&self) -> String {
        format!("ar({})", self.order)
    }

    fn observe(&mut self, value: f64) {
        self.window.push(value);
        self.since_refit += 1;
        if self.since_refit >= self.refit_every && self.window.len() >= 4 * self.order {
            self.since_refit = 0;
            self.refit();
        }
    }

    fn predict(&self) -> Option<f64> {
        if self.coefficients.is_empty() {
            // Fall back to the window mean until a model exists.
            return self.window.mean();
        }
        let n = self.window.len();
        if n < self.order {
            return self.window.mean();
        }
        Some(model_step(
            self.mean,
            &self.coefficients,
            newest_first(&self.window),
            &[],
            &[],
        ))
    }

    fn reset(&mut self) {
        self.window.clear();
        self.coefficients.clear();
        self.since_refit = 0;
        self.mean = 0.0;
    }

    fn note_gap(&mut self) {
        // Autocovariance fits assume contiguous samples: drop the window
        // so no lag ever spans the gap. The fitted model is kept — it
        // resumes predicting once `order` fresh values accumulate.
        self.window.clear();
        self.since_refit = 0;
    }

    fn predict_horizon(&self, k: usize) -> Option<Vec<f64>> {
        if self.coefficients.is_empty() || self.window.len() < self.order {
            // No model (or not enough fresh lags): flat extension of the
            // fallback mean, matching `predict`.
            let v = self.predict()?;
            return Some(vec![v; k]);
        }
        // Iterated forecasting: most-recent-first lag buffer seeded from
        // the window; each step's prediction becomes the next step's lag.
        Some(model_horizon(
            self.mean,
            &self.coefficients,
            newest_first(&self.window).take(self.order).collect(),
            &[],
            Vec::new(),
            0,
            k,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nws_stats::Rng;

    #[test]
    fn levinson_durbin_solves_known_ar1() {
        // AR(1) with coefficient phi: autocov(k) = phi^k * var.
        let phi: f64 = 0.6;
        let var = 2.0;
        let autocov: Vec<f64> = (0..=3).map(|k| var * phi.powi(k)).collect();
        let a = levinson_durbin(&autocov, 1).expect("solvable");
        assert!((a[0] - phi).abs() < 1e-12);
        // Higher-order fit of an AR(1): extra coefficients near zero.
        let a3 = levinson_durbin(&autocov, 3).expect("solvable");
        assert!((a3[0] - phi).abs() < 1e-9);
        assert!(a3[1].abs() < 1e-9 && a3[2].abs() < 1e-9);
    }

    #[test]
    fn levinson_durbin_rejects_degenerate_input() {
        assert!(levinson_durbin(&[0.0, 0.0], 1).is_none()); // zero variance
        assert!(levinson_durbin(&[1.0], 1).is_none()); // too few lags
                                                       // |reflection| > 1 (inconsistent autocovariance): refuse.
        assert!(levinson_durbin(&[1.0, 1.5], 1).is_none());
    }

    #[test]
    fn ar_predictor_learns_ar2_process() {
        // x_t = 0.5 x_{t-1} + 0.3 x_{t-2} + noise, mean-zero.
        let mut rng = Rng::new(7);
        let mut x1 = 0.0f64;
        let mut x2 = 0.0f64;
        let mut f = ArPredictor::new(2, 200, 25);
        let mut abs_err = 0.0;
        let mut n = 0;
        for i in 0..4000 {
            let noise = 0.1 * rng.next_standard_normal();
            let x = 0.5 * x1 + 0.3 * x2 + noise;
            if i > 1000 {
                if let Some(p) = f.predict() {
                    abs_err += (p - x).abs();
                    n += 1;
                }
            }
            f.observe(x);
            x2 = x1;
            x1 = x;
        }
        let mae = abs_err / n as f64;
        // The optimal predictor's MAE is E|noise| = 0.1 * sqrt(2/pi) ~ 0.08.
        assert!(mae < 0.1, "AR(2) MAE = {mae}");
        let c = f.coefficients();
        assert!((c[0] - 0.5).abs() < 0.15, "a1 = {}", c[0]);
        assert!((c[1] - 0.3).abs() < 0.15, "a2 = {}", c[1]);
    }

    #[test]
    fn ar_predictor_handles_constant_series() {
        let mut f = ArPredictor::new(3, 50, 10);
        for _ in 0..100 {
            f.observe(0.42);
        }
        // Degenerate (zero-variance) fits are refused; the fallback mean
        // prediction is exact.
        let p = f.predict().expect("window non-empty");
        assert!((p - 0.42).abs() < 1e-9);
    }

    #[test]
    fn ar_predictor_beats_last_value_on_ar1() {
        let mut rng = Rng::new(9);
        let mut x = 0.0f64;
        let mut ar = ArPredictor::new(1, 100, 20);
        let mut last: Option<f64> = None;
        let (mut ar_err, mut last_err) = (0.0, 0.0);
        let mut n = 0;
        for i in 0..3000 {
            let next = 0.4 * x + 0.2 * rng.next_standard_normal();
            if i > 500 {
                if let Some(p) = ar.predict() {
                    ar_err += (p - next).abs();
                }
                if let Some(l) = last {
                    last_err += (l - next).abs();
                }
                n += 1;
            }
            ar.observe(next);
            last = Some(next);
            x = next;
        }
        assert!(n > 0);
        assert!(
            ar_err < last_err * 0.95,
            "AR {ar_err} should beat last-value {last_err} on mean-reverting data"
        );
    }

    #[test]
    fn reset_clears_model() {
        let mut f = ArPredictor::new(2, 40, 5);
        for i in 0..60 {
            f.observe((i as f64 * 0.3).sin());
        }
        assert!(!f.coefficients().is_empty());
        f.reset();
        assert!(f.coefficients().is_empty());
        assert_eq!(f.predict(), None);
    }

    #[test]
    #[should_panic(expected = "window must be at least")]
    fn undersized_window_panics() {
        ArPredictor::new(10, 20, 5);
    }
}
