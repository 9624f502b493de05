//! The basic one-step-ahead predictors of the NWS panel.
//!
//! Each predictor consumes measurements one at a time ([`Predictor::observe`])
//! and offers a forecast of the *next* measurement ([`Predictor::predict`]).
//! "Briefly summarized, each method uses a 'sliding window' over previous
//! measurements to compute a one-step-ahead forecast based either on some
//! estimate of the mean or median of those measurements."

pub use crate::kernels::ewma_step;
use crate::kernels::{median_of_sorted, sorted_slide, trimmed_mean_of_sorted};
use nws_timeseries::SlidingWindow;

/// A streaming predictor: one-step-ahead by contract, multi-step by
/// extension ([`Predictor::predict_horizon`]).
pub trait Predictor: std::fmt::Debug + Send {
    /// Short display name, e.g. `"sw_mean(20)"`.
    fn name(&self) -> String;

    /// Feeds the next measurement into the predictor's state.
    fn observe(&mut self, value: f64);

    /// The current forecast for the next (not yet seen) measurement, or
    /// `None` before the predictor has enough history.
    fn predict(&self) -> Option<f64>;

    /// Resets the predictor to its initial state.
    fn reset(&mut self);

    /// Notes a gap in the measurement stream (a slot with no reading).
    ///
    /// Window-based predictors age out their history rather than bridge
    /// the gap — the values on the far side describe a workload that may
    /// have changed entirely (most drastically across a host reboot).
    /// Level-tracking predictors (smoothers, means of everything) keep
    /// their state: their estimate is still the best guess for what comes
    /// after the gap. The default is therefore a no-op.
    fn note_gap(&mut self) {}

    /// Forecasts the next `k` measurements, or `None` before the
    /// predictor has enough history.
    ///
    /// Level and window predictors have no dynamics: their best `h`-step
    /// guess is the one-step forecast held flat, which is the default.
    /// Model-based predictors (AR, ARMA) override this with iterated
    /// forecasting — predictions feed back as pseudo-lags, so horizons
    /// decay toward the fitted mean instead of freezing at one step.
    fn predict_horizon(&self, k: usize) -> Option<Vec<f64>> {
        let v = self.predict()?;
        Some(vec![v; k])
    }
}

/// Predicts that the next value equals the most recent one.
#[derive(Debug, Clone, Default)]
pub struct LastValue {
    last: Option<f64>,
}

impl LastValue {
    /// Creates the predictor.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Predictor for LastValue {
    fn name(&self) -> String {
        "last".into()
    }

    fn observe(&mut self, value: f64) {
        self.last = Some(value);
    }

    fn predict(&self) -> Option<f64> {
        self.last
    }

    fn reset(&mut self) {
        self.last = None;
    }
}

/// Predicts the mean of the entire measurement history (O(1) state).
#[derive(Debug, Clone, Default)]
pub struct RunningMean {
    sum: f64,
    count: u64,
}

impl RunningMean {
    /// Creates the predictor.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Predictor for RunningMean {
    fn name(&self) -> String {
        "run_mean".into()
    }

    fn observe(&mut self, value: f64) {
        self.sum += value;
        self.count += 1;
    }

    fn predict(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum / self.count as f64)
        }
    }

    fn reset(&mut self) {
        self.sum = 0.0;
        self.count = 0;
    }
}

/// Predicts the mean of the last `k` measurements.
#[derive(Debug, Clone)]
pub struct SlidingMean {
    window: SlidingWindow,
    k: usize,
}

impl SlidingMean {
    /// Creates a sliding mean over `k` measurements.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        Self {
            window: SlidingWindow::new(k),
            k,
        }
    }
}

impl Predictor for SlidingMean {
    fn name(&self) -> String {
        format!("sw_mean({})", self.k)
    }

    fn observe(&mut self, value: f64) {
        self.window.push(value);
    }

    fn predict(&self) -> Option<f64> {
        self.window.mean()
    }

    fn reset(&mut self) {
        self.window.clear();
    }

    fn note_gap(&mut self) {
        self.window.clear();
    }
}

/// The last `k` measurements twice over: in arrival order (to know what
/// leaves) and in ascending order, slid by one evict and one insert on
/// every observation (O(k) compares and moves, no comparison sort).
#[derive(Debug, Clone)]
struct SortedWindow {
    window: SlidingWindow,
    /// `k` slots; the first `window.len()` hold the window's values in
    /// ascending order.
    sorted: Vec<f64>,
}

impl SortedWindow {
    fn new(k: usize) -> Self {
        Self {
            window: SlidingWindow::new(k),
            sorted: vec![0.0; k],
        }
    }

    fn push(&mut self, value: f64) {
        let len = self.window.len();
        let evicted = self.window.push(value);
        sorted_slide(&mut self.sorted, len, evicted, value);
    }

    fn ascending(&self) -> &[f64] {
        &self.sorted[..self.window.len()]
    }

    fn clear(&mut self) {
        self.window.clear();
    }
}

/// Predicts the median of the last `k` measurements — robust to the
/// spikes a run-queue series is full of.
///
/// The window is kept sorted as it slides, so a prediction is an O(1)
/// index into the middle instead of an O(k log k) copy-and-sort per call.
#[derive(Debug, Clone)]
pub struct SlidingMedian {
    window: SortedWindow,
    k: usize,
}

impl SlidingMedian {
    /// Creates a sliding median over `k` measurements.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        Self {
            window: SortedWindow::new(k),
            k,
        }
    }
}

impl Predictor for SlidingMedian {
    fn name(&self) -> String {
        format!("sw_median({})", self.k)
    }

    fn observe(&mut self, value: f64) {
        self.window.push(value);
    }

    fn predict(&self) -> Option<f64> {
        median_of_sorted(self.window.ascending())
    }

    fn reset(&mut self) {
        self.window.clear();
    }

    fn note_gap(&mut self) {
        self.window.clear();
    }
}

/// Predicts the α-trimmed mean of the last `k` measurements (a compromise
/// between the mean's efficiency and the median's robustness).
///
/// Like [`SlidingMedian`] it keeps the window sorted as it slides, so a
/// prediction is an O(k) sum over the kept middle slice instead of an
/// O(k log k) copy-and-sort per call — and allocates nothing once warm.
#[derive(Debug, Clone)]
pub struct TrimmedMean {
    window: SortedWindow,
    k: usize,
    alpha: f64,
}

impl TrimmedMean {
    /// Creates an α-trimmed sliding mean.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `alpha ∉ [0, 0.5)`.
    pub fn new(k: usize, alpha: f64) -> Self {
        assert!((0.0..0.5).contains(&alpha), "alpha must be in [0, 0.5)");
        Self {
            window: SortedWindow::new(k),
            k,
            alpha,
        }
    }
}

impl Predictor for TrimmedMean {
    fn name(&self) -> String {
        format!("trim_mean({},{})", self.k, self.alpha)
    }

    fn observe(&mut self, value: f64) {
        self.window.push(value);
    }

    fn predict(&self) -> Option<f64> {
        trimmed_mean_of_sorted(self.window.ascending(), self.alpha)
    }

    fn reset(&mut self) {
        self.window.clear();
    }

    fn note_gap(&mut self) {
        self.window.clear();
    }
}

/// Exponential smoothing with a fixed gain:
/// `forecast ← gain·x + (1 − gain)·forecast`.
///
/// The NWS runs a bank of these across gains; small gains track slowly
/// varying series, large gains chase recent changes.
#[derive(Debug, Clone)]
pub struct ExpSmoothing {
    gain: f64,
    state: Option<f64>,
}

impl ExpSmoothing {
    /// Creates a smoother with `gain ∈ (0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics for gains outside `(0, 1]`.
    pub fn new(gain: f64) -> Self {
        assert!(gain > 0.0 && gain <= 1.0, "gain must be in (0, 1]");
        Self { gain, state: None }
    }

    /// The gains of the standard NWS smoothing bank.
    pub const BANK_GAINS: [f64; 7] = [0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 0.9];

    /// The standard NWS gain bank.
    pub fn bank() -> Vec<ExpSmoothing> {
        Self::BANK_GAINS.map(ExpSmoothing::new).into()
    }
}

impl Predictor for ExpSmoothing {
    fn name(&self) -> String {
        format!("exp_smooth({})", self.gain)
    }

    fn observe(&mut self, value: f64) {
        self.state = Some(match self.state {
            None => value,
            Some(s) => ewma_step(s, self.gain, value),
        });
    }

    fn predict(&self) -> Option<f64> {
        self.state
    }

    fn reset(&mut self) {
        self.state = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(f: &mut dyn Predictor, values: &[f64]) {
        for &v in values {
            f.observe(v);
        }
    }

    #[test]
    fn all_start_with_no_prediction() {
        let fs: Vec<Box<dyn Predictor>> = vec![
            Box::new(LastValue::new()),
            Box::new(RunningMean::new()),
            Box::new(SlidingMean::new(3)),
            Box::new(SlidingMedian::new(3)),
            Box::new(TrimmedMean::new(5, 0.2)),
            Box::new(ExpSmoothing::new(0.5)),
        ];
        for f in &fs {
            assert_eq!(f.predict(), None, "{} predicted too early", f.name());
        }
    }

    #[test]
    fn last_value_tracks() {
        let mut f = LastValue::new();
        feed(&mut f, &[0.3, 0.7]);
        assert_eq!(f.predict(), Some(0.7));
    }

    #[test]
    fn running_mean_is_cumulative() {
        let mut f = RunningMean::new();
        feed(&mut f, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(f.predict(), Some(2.5));
    }

    #[test]
    fn sliding_mean_forgets() {
        let mut f = SlidingMean::new(2);
        feed(&mut f, &[10.0, 1.0, 3.0]);
        assert_eq!(f.predict(), Some(2.0));
    }

    #[test]
    fn sliding_median_resists_outliers() {
        let mut f = SlidingMedian::new(5);
        feed(&mut f, &[0.5, 0.5, 0.5, 0.5, 99.0]);
        assert_eq!(f.predict(), Some(0.5));
    }

    #[test]
    fn trimmed_mean_between_mean_and_median() {
        let data = [0.4, 0.5, 0.6, 0.5, 5.0];
        let mut mean = SlidingMean::new(5);
        let mut med = SlidingMedian::new(5);
        let mut trim = TrimmedMean::new(5, 0.2);
        feed(&mut mean, &data);
        feed(&mut med, &data);
        feed(&mut trim, &data);
        let (m, d, t) = (
            mean.predict().unwrap(),
            med.predict().unwrap(),
            trim.predict().unwrap(),
        );
        assert!(d <= t && t <= m, "median {d} <= trimmed {t} <= mean {m}");
    }

    #[test]
    fn exp_smoothing_geometry() {
        let mut f = ExpSmoothing::new(0.5);
        feed(&mut f, &[1.0]);
        assert_eq!(f.predict(), Some(1.0)); // initialized to first value
        f.observe(0.0);
        assert_eq!(f.predict(), Some(0.5));
        f.observe(0.0);
        assert_eq!(f.predict(), Some(0.25));
    }

    #[test]
    fn exp_smoothing_bank_covers_gain_range() {
        let bank = ExpSmoothing::bank();
        assert!(bank.len() >= 5);
        assert!(bank.first().unwrap().gain < 0.1);
        assert!(bank.last().unwrap().gain > 0.8);
    }

    #[test]
    fn constant_series_predicted_exactly_by_all() {
        let mut fs: Vec<Box<dyn Predictor>> = vec![
            Box::new(LastValue::new()),
            Box::new(RunningMean::new()),
            Box::new(SlidingMean::new(4)),
            Box::new(SlidingMedian::new(4)),
            Box::new(TrimmedMean::new(4, 0.1)),
            Box::new(ExpSmoothing::new(0.3)),
        ];
        for f in fs.iter_mut() {
            feed(f.as_mut(), &[0.42; 20]);
            let p = f.predict().unwrap();
            assert!((p - 0.42).abs() < 1e-12, "{}: {p}", f.name());
        }
    }

    #[test]
    fn reset_clears_state() {
        let mut f = SlidingMean::new(3);
        feed(&mut f, &[1.0, 2.0]);
        f.reset();
        assert_eq!(f.predict(), None);
        let mut e = ExpSmoothing::new(0.2);
        e.observe(1.0);
        e.reset();
        assert_eq!(e.predict(), None);
    }

    #[test]
    fn names_are_distinct_and_parameterized() {
        assert_eq!(SlidingMean::new(20).name(), "sw_mean(20)");
        assert_ne!(SlidingMean::new(5).name(), SlidingMean::new(10).name());
        assert_eq!(ExpSmoothing::new(0.5).name(), "exp_smooth(0.5)");
    }

    #[test]
    #[should_panic(expected = "gain")]
    fn bad_gain_panics() {
        ExpSmoothing::new(0.0);
    }

    #[test]
    fn gaps_age_out_windows_but_keep_levels() {
        // Window predictors forget across a gap…
        let mut sw = SlidingMean::new(5);
        let mut med = SlidingMedian::new(5);
        let mut trim = TrimmedMean::new(5, 0.2);
        for f in [&mut sw as &mut dyn Predictor, &mut med, &mut trim] {
            feed(f, &[0.9, 0.9, 0.9]);
            f.note_gap();
            assert_eq!(f.predict(), None, "{} bridged the gap", f.name());
            f.observe(0.2);
            let p = f.predict().unwrap();
            assert!((p - 0.2).abs() < 1e-12, "{}: {p}", f.name());
        }
        // …level predictors bridge it.
        let mut last = LastValue::new();
        let mut run = RunningMean::new();
        let mut exp = ExpSmoothing::new(0.3);
        for f in [&mut last as &mut dyn Predictor, &mut run, &mut exp] {
            feed(f, &[0.6, 0.6]);
            f.note_gap();
            assert_eq!(f.predict(), Some(0.6), "{} lost its level", f.name());
        }
    }
}
