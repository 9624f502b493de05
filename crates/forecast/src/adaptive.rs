//! Adaptive predictors: self-tuning members of the NWS panel.

use crate::kernels::{sgd_predict, sgd_step, trigg_leach_gain, trigg_leach_step, AdjustedWindow};
use crate::methods::Predictor;
use nws_timeseries::SlidingWindow;

/// A sliding-window mean whose window length adapts to the series.
///
/// Every eight observations the predictor compares the recent one-step
/// error that a half-length and a double-length window *would* have
/// incurred (both are maintained as shadow sums) against the current
/// window's error, and moves to whichever was best. This is the
/// "adjusted" window scheme from the NWS forecaster family: long windows
/// win on slowly varying series, short ones after regime changes.
///
/// The three candidate suffix sums are maintained as rolling sums (add the
/// incoming value, subtract the value sliding out of that suffix), so an
/// observation costs O(1) instead of three O(window) rescans. The sums are
/// recomputed exactly whenever the window length changes and periodically
/// in between to bound floating-point drift.
#[derive(Debug)]
pub struct AdaptiveWindowMean {
    /// One shared buffer sized to `max_len`; each candidate length reads a
    /// suffix of it.
    window: SlidingWindow,
    state: AdjustedWindow,
}

impl AdaptiveWindowMean {
    /// Creates an adaptive window constrained to `[min_len, max_len]`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < min_len <= max_len`.
    pub fn new(min_len: usize, max_len: usize) -> Self {
        let state = AdjustedWindow::new(min_len, max_len);
        Self {
            window: SlidingWindow::new(max_len),
            state,
        }
    }

    /// The window length currently in use.
    pub fn current_len(&self) -> usize {
        self.state.current_len()
    }
}

impl Predictor for AdaptiveWindowMean {
    fn name(&self) -> String {
        format!(
            "adj_mean({}-{})",
            self.state.min_len(),
            self.state.max_len()
        )
    }

    fn observe(&mut self, value: f64) {
        let at = |window: &SlidingWindow, i| window.get(i).expect("suffix index is in range");
        self.state
            .roll(value, self.window.len(), |i| at(&self.window, i));
        self.window.push(value);
        self.state
            .review(self.window.len(), |i| at(&self.window, i));
    }

    fn predict(&self) -> Option<f64> {
        self.state.predict(self.window.len())
    }

    fn reset(&mut self) {
        *self = AdaptiveWindowMean::new(self.state.min_len(), self.state.max_len());
    }

    fn note_gap(&mut self) {
        self.window.clear();
        self.state.note_gap();
    }
}

/// Exponential smoothing with a Trigg–Leach adaptive gain.
///
/// The gain is `|smoothed error| / smoothed |error|`: when forecast errors
/// keep the same sign (the series has shifted level) the ratio approaches 1
/// and the smoother chases; when errors alternate (noise around a stable
/// level) the ratio falls and the smoother steadies.
#[derive(Debug, Clone)]
pub struct AdaptiveExpSmoothing {
    phi: f64,
    state: Option<f64>,
    smoothed_err: f64,
    smoothed_abs_err: f64,
}

impl AdaptiveExpSmoothing {
    /// Creates the smoother; `phi ∈ (0, 1)` controls how fast the gain
    /// itself adapts (classically 0.2).
    pub fn new(phi: f64) -> Self {
        assert!(phi > 0.0 && phi < 1.0, "phi must be in (0, 1)");
        Self {
            phi,
            state: None,
            smoothed_err: 0.0,
            smoothed_abs_err: 0.0,
        }
    }

    /// The current adaptive gain in `[0, 1]`.
    pub fn gain(&self) -> f64 {
        trigg_leach_gain(self.smoothed_err, self.smoothed_abs_err)
    }
}

impl Predictor for AdaptiveExpSmoothing {
    fn name(&self) -> String {
        format!("adapt_exp({})", self.phi)
    }

    fn observe(&mut self, value: f64) {
        self.state = Some(match self.state {
            None => value,
            Some(s) => trigg_leach_step(
                self.phi,
                s,
                &mut self.smoothed_err,
                &mut self.smoothed_abs_err,
                value,
            ),
        });
    }

    fn predict(&self) -> Option<f64> {
        self.state
    }

    fn reset(&mut self) {
        self.state = None;
        self.smoothed_err = 0.0;
        self.smoothed_abs_err = 0.0;
    }
}

/// A stochastic-gradient AR(1) predictor: `x̂_{t+1} = w·x_t + b`, with
/// `(w, b)` descended on the squared one-step error.
///
/// This is the "stochastic gradient" member of the NWS panel — the only
/// one that can exploit lag-1 *structure* (e.g. mean reversion) instead of
/// just local level.
#[derive(Debug, Clone)]
pub struct StochasticGradient {
    eta: f64,
    w: f64,
    b: f64,
    last: Option<f64>,
}

impl StochasticGradient {
    /// Creates the predictor with learning rate `eta` (classically small,
    /// e.g. 0.01–0.1 for series in `[0, 1]`).
    pub fn new(eta: f64) -> Self {
        assert!(eta > 0.0 && eta < 1.0, "eta must be in (0, 1)");
        Self {
            eta,
            w: 1.0, // start as the last-value predictor
            b: 0.0,
            last: None,
        }
    }

    /// Current AR(1) coefficients `(w, b)`.
    pub fn coefficients(&self) -> (f64, f64) {
        (self.w, self.b)
    }
}

impl Predictor for StochasticGradient {
    fn name(&self) -> String {
        format!("sgd_ar1({})", self.eta)
    }

    fn observe(&mut self, value: f64) {
        if let Some(prev) = self.last {
            sgd_step(self.eta, &mut self.w, &mut self.b, prev, value);
        }
        self.last = Some(value);
    }

    fn predict(&self) -> Option<f64> {
        self.last.map(|x| sgd_predict(self.w, self.b, x))
    }

    fn reset(&mut self) {
        self.w = 1.0;
        self.b = 0.0;
        self.last = None;
    }

    fn note_gap(&mut self) {
        // The lag-1 link across the gap is meaningless; keep the learned
        // AR(1) coefficients but wait for a fresh anchor value.
        self.last = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_window_shrinks_on_level_shift() {
        let mut f = AdaptiveWindowMean::new(2, 64);
        // Long stable stretch: window should grow.
        for _ in 0..200 {
            f.observe(0.8);
        }
        let grown = f.current_len();
        assert!(grown > 8, "window stayed at {grown}");
        // Step change with noise alternation: shorter window wins.
        for i in 0..200 {
            f.observe(if i % 2 == 0 { 0.1 } else { 0.3 });
        }
        let p = f.predict().unwrap();
        assert!((p - 0.2).abs() < 0.15, "prediction {p} stuck on old level");
    }

    #[test]
    fn adaptive_window_stays_in_bounds() {
        let mut f = AdaptiveWindowMean::new(4, 16);
        for i in 0..500 {
            f.observe((i as f64).sin());
            let l = f.current_len();
            assert!((4..=16).contains(&l), "len = {l}");
        }
    }

    #[test]
    fn adaptive_exp_gain_rises_on_level_shift() {
        let mut f = AdaptiveExpSmoothing::new(0.2);
        for _ in 0..50 {
            f.observe(0.5);
        }
        let calm_gain = f.gain();
        for _ in 0..10 {
            f.observe(0.9); // persistent one-sided errors
        }
        let chase_gain = f.gain();
        assert!(
            chase_gain > calm_gain,
            "gain should rise: {calm_gain} -> {chase_gain}"
        );
        // And the state should have moved most of the way to 0.9.
        assert!(f.predict().unwrap() > 0.7);
    }

    #[test]
    fn adaptive_exp_gain_falls_on_alternating_noise() {
        let mut f = AdaptiveExpSmoothing::new(0.2);
        f.observe(0.5);
        for i in 0..200 {
            f.observe(if i % 2 == 0 { 0.4 } else { 0.6 });
        }
        assert!(f.gain() < 0.35, "gain = {}", f.gain());
        assert!((f.predict().unwrap() - 0.5).abs() < 0.12);
    }

    #[test]
    fn sgd_learns_mean_reversion() {
        // x_{t+1} = 0.5·x_t + 0.25 + noise: the innovations keep the input
        // persistently exciting, and SGD converges to the AR coefficients
        // in expectation.
        let mut f = StochasticGradient::new(0.05);
        let mut rng = nws_stats::Rng::new(91);
        let mut x: f64 = 0.9;
        for _ in 0..20_000 {
            f.observe(x);
            x = 0.5 * x + 0.25 + 0.2 * (rng.next_f64() - 0.5);
        }
        let (w, b) = f.coefficients();
        assert!((w - 0.5).abs() < 0.15, "w = {w}");
        assert!((b - 0.25).abs() < 0.1, "b = {b}");
    }

    #[test]
    fn sgd_starts_as_last_value() {
        let mut f = StochasticGradient::new(0.05);
        f.observe(0.7);
        assert_eq!(f.predict(), Some(0.7));
    }

    #[test]
    fn all_reset_cleanly() {
        let mut a = AdaptiveWindowMean::new(2, 8);
        let mut e = AdaptiveExpSmoothing::new(0.2);
        let mut s = StochasticGradient::new(0.05);
        for v in [0.1, 0.9, 0.4] {
            a.observe(v);
            e.observe(v);
            s.observe(v);
        }
        a.reset();
        e.reset();
        s.reset();
        assert_eq!(a.predict(), None);
        assert_eq!(e.predict(), None);
        assert_eq!(s.predict(), None);
    }

    #[test]
    #[should_panic(expected = "window bounds")]
    fn bad_bounds_panic() {
        AdaptiveWindowMean::new(0, 4);
    }
}
