//! Online ARMA(p, q) forecasting.
//!
//! Sandholm's study of computational-demand forecasting shows low-order
//! ARMA models tracking grid workloads where pure AR models lag: the
//! moving-average terms absorb the shock structure the AR part cannot.
//! This module brings that model into the panel with the same cost
//! discipline as [`ArPredictor`](crate::ArPredictor):
//!
//! - the **AR side** is refit every `refit_every` observations from the
//!   sliding window's sample autocovariances via the shared
//!   Levinson–Durbin kernel (O(p²) per refit, allocation-free);
//! - the **MA side** is adapted *online*: each arriving measurement
//!   yields an innovation `e_t = x_t − x̂_t`, and the θ coefficients
//!   follow a normalized LMS gradient step on that innovation against
//!   the lagged innovations that produced the forecast — no batch
//!   maximum-likelihood pass, O(q) per observation.
//!
//! The one-step forecast is the textbook ARMA predictor
//!
//! ```text
//! x̂_{t+1} = μ + Σᵢ aᵢ (x_{t+1−i} − μ) + Σⱼ θⱼ e_{t+1−j}
//! ```
//!
//! and multi-step horizons iterate it with future innovations set to
//! their expectation (zero).
//!
//! Gap semantics follow the AR predictor: a gap clears the measurement
//! window *and* the innovation history (neither lags nor innovations may
//! span a gap), keeps the fitted model, and resumes once enough fresh
//! values accumulate.

use crate::kernels::{absorb_innovation, fit_ar, model_horizon, model_step, newest_first};
use crate::methods::Predictor;
use nws_timeseries::SlidingWindow;

/// A sliding-window ARMA(p, q) one-step predictor with online parameter
/// refresh.
#[derive(Debug, Clone)]
pub struct Arma {
    p: usize,
    q: usize,
    window: SlidingWindow,
    refit_every: usize,
    since_refit: usize,
    /// Fitted AR coefficients (empty until the first successful fit).
    ar: Vec<f64>,
    /// MA coefficients, adapted online (zero-initialized).
    theta: Vec<f64>,
    /// Window mean at fit time.
    mean: f64,
    /// Most-recent-first ring of the last `q` innovations.
    resid: Vec<f64>,
    /// Innovations currently held (≤ `q`; cleared by gaps).
    resid_len: usize,
    /// Running innovation-power estimate for the normalized step.
    power: f64,
    /// Refit scratch (see [`ArPredictor`](crate::ArPredictor)).
    autocov: Vec<f64>,
    lev_a: Vec<f64>,
    lev_prev: Vec<f64>,
}

impl Arma {
    /// Creates an ARMA(`p`, `q`) predictor over a window of `window_len`
    /// measurements, refitting the AR side every `refit_every`
    /// observations.
    ///
    /// # Panics
    ///
    /// Panics unless `p > 0`, `q > 0`, `window_len >= 4 * p`, and
    /// `refit_every > 0`.
    pub fn new(p: usize, q: usize, window_len: usize, refit_every: usize) -> Self {
        assert!(p > 0, "AR order must be positive");
        assert!(
            q > 0,
            "MA order must be positive (use ArPredictor for q = 0)"
        );
        assert!(
            window_len >= 4 * p,
            "window must be at least 4x the AR order for a stable fit"
        );
        assert!(refit_every > 0, "refit cadence must be positive");
        Self {
            p,
            q,
            window: SlidingWindow::new(window_len),
            refit_every,
            since_refit: 0,
            ar: Vec::with_capacity(p),
            theta: vec![0.0; q],
            mean: 0.0,
            resid: vec![0.0; q],
            resid_len: 0,
            power: 1.0,
            autocov: vec![0.0; p + 1],
            lev_a: vec![0.0; p],
            lev_prev: vec![0.0; p],
        }
    }

    /// The fitted AR coefficients (empty before the first fit).
    pub fn ar_coefficients(&self) -> &[f64] {
        &self.ar
    }

    /// The current MA coefficients.
    pub fn ma_coefficients(&self) -> &[f64] {
        &self.theta
    }

    fn refit(&mut self) {
        let n = self.window.len();
        if n < 4 * self.p {
            return;
        }
        let window = &self.window;
        if let Some(mean) = fit_ar(
            n,
            |t| window.get(t).expect("t in range"),
            self.p,
            &mut self.autocov,
            &mut self.lev_a,
            &mut self.lev_prev,
        ) {
            self.ar.clear();
            self.ar.extend_from_slice(&self.lev_a);
            self.mean = mean;
        }
        // On a degenerate fit the previous model (or none) is kept.
    }

    /// The model-based one-step forecast, or `None` when the AR side is
    /// unfit or the window holds fewer than `p` fresh lags.
    fn model_predict(&self) -> Option<f64> {
        if self.ar.is_empty() {
            return None;
        }
        let n = self.window.len();
        if n < self.p {
            return None;
        }
        Some(model_step(
            self.mean,
            &self.ar,
            newest_first(&self.window),
            &self.theta,
            &self.resid[..self.resid_len],
        ))
    }
}

impl Predictor for Arma {
    fn name(&self) -> String {
        format!("arma({},{})", self.p, self.q)
    }

    fn observe(&mut self, value: f64) {
        // Score the standing model forecast first: its innovation drives
        // the θ gradient and enters the residual ring.
        if let Some(pred) = self.model_predict() {
            absorb_innovation(
                value - pred,
                &mut self.theta,
                &mut self.resid,
                &mut self.resid_len,
                &mut self.power,
            );
        }
        self.window.push(value);
        self.since_refit += 1;
        if self.since_refit >= self.refit_every && self.window.len() >= 4 * self.p {
            self.since_refit = 0;
            self.refit();
        }
    }

    fn predict(&self) -> Option<f64> {
        // Fall back to the window mean until a model exists, exactly as
        // the AR predictor does.
        self.model_predict().or_else(|| self.window.mean())
    }

    fn reset(&mut self) {
        self.window.clear();
        self.ar.clear();
        self.theta.fill(0.0);
        self.mean = 0.0;
        self.resid.fill(0.0);
        self.resid_len = 0;
        self.power = 1.0;
        self.since_refit = 0;
    }

    fn note_gap(&mut self) {
        // Neither measurement lags nor innovations may span a gap; the
        // fitted a/θ (and μ) survive.
        self.window.clear();
        self.resid.fill(0.0);
        self.resid_len = 0;
        self.since_refit = 0;
    }

    fn predict_horizon(&self, k: usize) -> Option<Vec<f64>> {
        if self.ar.is_empty() || self.window.len() < self.p {
            let v = self.predict()?;
            return Some(vec![v; k]);
        }
        // Future innovations are zero in expectation: the residual ring
        // shifts zeros in as the horizon advances.
        Some(model_horizon(
            self.mean,
            &self.ar,
            newest_first(&self.window).take(self.p).collect(),
            &self.theta,
            self.resid.clone(),
            self.resid_len,
            k,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nws_stats::Rng;

    #[test]
    fn arma_learns_ar1_process_at_least_as_well_as_mean() {
        let mut rng = Rng::new(11);
        let mut x = 0.0f64;
        let mut f = Arma::new(1, 1, 120, 25);
        let (mut model_err, mut mean_err) = (0.0, 0.0);
        let mut running = 0.0;
        let mut n = 0u64;
        for i in 0..4000 {
            let next = 0.6 * x + 0.15 * rng.next_standard_normal();
            if i > 1000 {
                if let Some(p) = f.predict() {
                    model_err += (p - next).abs();
                    // `running` sums the `i` values observed so far.
                    mean_err += (running / f64::from(i) - next).abs();
                    n += 1;
                }
            }
            f.observe(next);
            running += next;
            x = next;
        }
        assert!(n > 0);
        assert!(
            model_err < mean_err * 0.95,
            "ARMA {model_err} should beat the running mean {mean_err}"
        );
    }

    #[test]
    fn ma_terms_help_on_an_ma_process() {
        // Pure MA(1): x_t = e_t + 0.7 e_{t-1}. An AR(1) fit approximates
        // it; the θ update should pull the combined model closer.
        let mut rng = Rng::new(23);
        let mut prev_e = 0.0f64;
        let mut arma = Arma::new(1, 1, 160, 20);
        let mut ar = crate::ar::ArPredictor::new(1, 160, 20);
        let (mut arma_err, mut ar_err) = (0.0, 0.0);
        for i in 0..8000 {
            let e = 0.2 * rng.next_standard_normal();
            let x = e + 0.7 * prev_e;
            prev_e = e;
            if i > 2000 {
                if let (Some(pa), Some(pr)) = (arma.predict(), ar.predict()) {
                    arma_err += (pa - x).abs();
                    ar_err += (pr - x).abs();
                }
            }
            arma.observe(x);
            ar.observe(x);
        }
        assert!(
            arma_err < ar_err * 1.02,
            "ARMA {arma_err} should not trail AR {ar_err} on MA data"
        );
        assert!(
            arma.ma_coefficients()[0] > 0.05,
            "θ1 = {} should move toward the true 0.7",
            arma.ma_coefficients()[0]
        );
    }

    #[test]
    fn constant_series_is_exact() {
        let mut f = Arma::new(2, 1, 40, 10);
        for _ in 0..100 {
            f.observe(0.42);
        }
        let p = f.predict().expect("window non-empty");
        assert!((p - 0.42).abs() < 1e-9);
    }

    #[test]
    fn gap_clears_lags_and_innovations_but_keeps_model() {
        let mut rng = Rng::new(5);
        let mut f = Arma::new(2, 2, 60, 10);
        let mut x = 0.5f64;
        for _ in 0..200 {
            x = 0.5 + 0.8 * (x - 0.5) + 0.05 * (rng.next_f64() - 0.5);
            f.observe(x);
        }
        assert!(!f.ar_coefficients().is_empty());
        f.note_gap();
        assert!(!f.ar_coefficients().is_empty(), "model survives the gap");
        assert_eq!(f.predict(), None, "no fresh lags yet");
        f.observe(0.5);
        assert!(f.predict().is_some(), "window mean bridges the refill");
    }

    #[test]
    fn horizon_converges_to_the_fitted_mean() {
        let mut rng = Rng::new(17);
        let mut f = Arma::new(1, 1, 120, 20);
        let mut x = 0.5f64;
        for _ in 0..500 {
            x = 0.5 + 0.7 * (x - 0.5) + 0.08 * (rng.next_f64() - 0.5);
            f.observe(x);
        }
        let h = f.predict_horizon(64).expect("model fit");
        assert_eq!(h.len(), 64);
        assert_eq!(h[0], f.predict().unwrap(), "step 1 matches one-step");
        // With |a| < 1 the iteration settles geometrically on the fitted
        // mean: late steps move far less than early ones.
        let first_step = (h[1] - h[0]).abs();
        let last_step = (h[63] - h[62]).abs();
        assert!(
            last_step <= first_step.max(1e-12) && last_step < 1e-3,
            "horizon should settle: first step {first_step}, last step {last_step}"
        );
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut f = Arma::new(1, 1, 40, 5);
        for i in 0..80 {
            f.observe((i as f64 * 0.3).sin());
        }
        f.reset();
        assert!(f.ar_coefficients().is_empty());
        assert_eq!(f.ma_coefficients(), &[0.0]);
        assert_eq!(f.predict(), None);
    }

    #[test]
    #[should_panic(expected = "MA order")]
    fn zero_q_panics() {
        Arma::new(1, 0, 40, 5);
    }
}
