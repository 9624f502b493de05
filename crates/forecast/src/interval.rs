//! Prediction intervals from online error quantiles.
//!
//! The NWS papers report mean errors, but a scheduler acting on a forecast
//! wants to know *how wrong it might be*: "the CPU will be 60 % available,
//! and with 90 % confidence at least 45 %". This module adds that on top of
//! any point forecaster by tracking the empirical quantiles of its one-step
//! errors with the **P² algorithm** (Jain & Chlamtac 1985) — O(1) memory
//! and time per observation, no stored history, matching the NWS's
//! cheap-streaming design constraints.

/// Streaming quantile estimator (the P² algorithm).
///
/// Maintains five markers that track the `q`-quantile of everything
/// observed so far using piecewise-parabolic interpolation. Accuracy is
/// typically within a couple of percent of the exact empirical quantile
/// after a few dozen observations.
#[derive(Debug, Clone)]
pub struct P2Quantile {
    q: f64,
    /// Marker heights (estimates of the quantile curve).
    heights: [f64; 5],
    /// Actual marker positions (1-based counts).
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Desired-position increments per observation.
    increments: [f64; 5],
    /// Initial observations until the markers are seeded.
    warmup: Vec<f64>,
}

impl P2Quantile {
    /// Creates an estimator for the `q`-quantile, `q ∈ (0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics for `q` outside `(0, 1)`.
    pub fn new(q: f64) -> Self {
        assert!(q > 0.0 && q < 1.0, "quantile must be in (0, 1)");
        Self {
            q,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            warmup: Vec::with_capacity(5),
        }
    }

    /// The target quantile.
    pub fn q(&self) -> f64 {
        self.q
    }

    /// Number of observations consumed.
    pub fn count(&self) -> usize {
        if self.warmup.len() < 5 {
            self.warmup.len()
        } else {
            self.positions[4] as usize
        }
    }

    /// Feeds one observation.
    pub fn observe(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "quantile inputs must be finite");
        if self.warmup.len() < 5 {
            self.warmup.push(x);
            if self.warmup.len() == 5 {
                self.warmup.sort_by(|a, b| a.total_cmp(b));
                for (h, w) in self.heights.iter_mut().zip(&self.warmup) {
                    *h = *w;
                }
            }
            return;
        }
        // Locate the cell containing x and clamp the extreme markers.
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            let mut cell = 0;
            for i in 0..4 {
                if x >= self.heights[i] && x < self.heights[i + 1] {
                    cell = i;
                    break;
                }
            }
            cell
        };
        for p in self.positions.iter_mut().skip(k + 1) {
            *p += 1.0;
        }
        for (d, inc) in self.desired.iter_mut().zip(&self.increments) {
            *d += inc;
        }
        // Adjust the three interior markers.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let right_gap = self.positions[i + 1] - self.positions[i];
            let left_gap = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && right_gap > 1.0) || (d <= -1.0 && left_gap < -1.0) {
                let s = d.signum();
                let candidate = self.parabolic(i, s);
                self.heights[i] =
                    if self.heights[i - 1] < candidate && candidate < self.heights[i + 1] {
                        candidate
                    } else {
                        self.linear(i, s)
                    };
                self.positions[i] += s;
            }
        }
    }

    fn parabolic(&self, i: usize, s: f64) -> f64 {
        let h = &self.heights;
        let p = &self.positions;
        h[i] + s / (p[i + 1] - p[i - 1])
            * ((p[i] - p[i - 1] + s) * (h[i + 1] - h[i]) / (p[i + 1] - p[i])
                + (p[i + 1] - p[i] - s) * (h[i] - h[i - 1]) / (p[i] - p[i - 1]))
    }

    fn linear(&self, i: usize, s: f64) -> f64 {
        let j = (i as f64 + s) as usize;
        self.heights[i]
            + s * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }

    /// The current quantile estimate, or `None` before five observations.
    pub fn estimate(&self) -> Option<f64> {
        if self.warmup.len() < 5 {
            // Fall back to the exact small-sample quantile.
            if self.warmup.is_empty() {
                return None;
            }
            let mut v = self.warmup.clone();
            v.sort_by(|a, b| a.total_cmp(b));
            let idx = ((v.len() - 1) as f64 * self.q).round() as usize;
            return Some(v[idx]);
        }
        Some(self.heights[2])
    }
}

/// A symmetric-coverage prediction interval around a point forecast.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictionInterval {
    /// The point forecast.
    pub forecast: f64,
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
    /// Nominal two-sided coverage, e.g. 0.9.
    pub coverage: f64,
}

/// Wraps one-step errors of any forecaster into prediction intervals.
///
/// Feed it the pairs `(forecast, actual)` you already produce while
/// forecasting; ask for the interval around the next point forecast. The
/// bounds come from the tracked error quantiles
/// `[q_(α/2), q_(1−α/2)]`, so coverage is calibrated against the
/// *observed* error distribution — no Gaussian assumption, which matters
/// because availability errors are skewed and heavy-tailed.
#[derive(Debug, Clone)]
pub struct IntervalTracker {
    lower: P2Quantile,
    upper: P2Quantile,
    coverage: f64,
    clamp_unit: bool,
}

impl IntervalTracker {
    /// Creates a tracker for the given two-sided coverage (e.g. `0.9`).
    ///
    /// # Panics
    ///
    /// Panics for coverage outside `(0, 1)`.
    pub fn new(coverage: f64) -> Self {
        assert!(coverage > 0.0 && coverage < 1.0, "coverage in (0, 1)");
        let alpha = 1.0 - coverage;
        Self {
            lower: P2Quantile::new(alpha / 2.0),
            upper: P2Quantile::new(1.0 - alpha / 2.0),
            coverage,
            clamp_unit: true,
        }
    }

    /// Disables clamping of the interval to `[0, 1]` (availability series
    /// want it; generic series may not).
    pub fn without_unit_clamp(mut self) -> Self {
        self.clamp_unit = false;
        self
    }

    /// Records one scored forecast. A pair without a finite error (a NaN
    /// or infinite forecast or actual) carries no measurement and is
    /// ignored.
    pub fn record(&mut self, forecast: f64, actual: f64) {
        let err = actual - forecast;
        if !err.is_finite() {
            return;
        }
        self.lower.observe(err);
        self.upper.observe(err);
    }

    /// Number of recorded errors.
    pub fn count(&self) -> usize {
        self.lower.count()
    }

    /// The interval around `forecast`, or `None` before any errors have
    /// been recorded.
    pub fn interval(&self, forecast: f64) -> Option<PredictionInterval> {
        let lo_err = self.lower.estimate()?;
        let hi_err = self.upper.estimate()?;
        let (mut lo, mut hi) = (forecast + lo_err, forecast + hi_err);
        if lo > hi {
            std::mem::swap(&mut lo, &mut hi);
        }
        if self.clamp_unit {
            lo = lo.clamp(0.0, 1.0);
            hi = hi.clamp(0.0, 1.0);
        }
        Some(PredictionInterval {
            forecast,
            lo,
            hi,
            coverage: self.coverage,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nws_stats::Rng;

    #[test]
    fn p2_matches_exact_quantile_on_uniform() {
        let mut est = P2Quantile::new(0.9);
        let mut rng = Rng::new(11);
        let mut all = Vec::new();
        for _ in 0..20_000 {
            let x = rng.next_f64();
            est.observe(x);
            all.push(x);
        }
        all.sort_by(|a, b| a.total_cmp(b));
        let exact = all[(all.len() as f64 * 0.9) as usize];
        let approx = est.estimate().expect("warm");
        assert!(
            (approx - exact).abs() < 0.02,
            "p2 {approx} vs exact {exact}"
        );
    }

    #[test]
    fn p2_median_of_normal_is_mean() {
        let mut est = P2Quantile::new(0.5);
        let mut rng = Rng::new(13);
        for _ in 0..20_000 {
            est.observe(3.0 + rng.next_standard_normal());
        }
        let m = est.estimate().expect("warm");
        assert!((m - 3.0).abs() < 0.05, "median = {m}");
    }

    #[test]
    fn p2_small_sample_fallback() {
        let mut est = P2Quantile::new(0.5);
        assert_eq!(est.estimate(), None);
        est.observe(1.0);
        assert_eq!(est.estimate(), Some(1.0));
        est.observe(3.0);
        est.observe(2.0);
        // Exact small-sample median of {1,2,3}.
        assert_eq!(est.estimate(), Some(2.0));
    }

    #[test]
    fn p2_extremes_track_min_max() {
        let mut lo = P2Quantile::new(0.01);
        let mut hi = P2Quantile::new(0.99);
        let mut rng = Rng::new(17);
        for _ in 0..5_000 {
            let x = rng.next_f64();
            lo.observe(x);
            hi.observe(x);
        }
        assert!(lo.estimate().expect("warm") < 0.06);
        assert!(hi.estimate().expect("warm") > 0.94);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn p2_rejects_degenerate_q() {
        P2Quantile::new(1.0);
    }

    #[test]
    fn interval_achieves_nominal_coverage() {
        // Forecast a noisy constant with the true mean; check the 90%
        // interval covers ~90% of subsequent actuals.
        let mut tracker = IntervalTracker::new(0.9).without_unit_clamp();
        let mut rng = Rng::new(19);
        let forecast = 0.5;
        // Warm the tracker.
        for _ in 0..2_000 {
            let actual = forecast + 0.1 * rng.next_standard_normal();
            tracker.record(forecast, actual);
        }
        let mut covered = 0;
        let n = 5_000;
        for _ in 0..n {
            let actual = forecast + 0.1 * rng.next_standard_normal();
            let iv = tracker.interval(forecast).expect("warm");
            if (iv.lo..=iv.hi).contains(&actual) {
                covered += 1;
            }
            tracker.record(forecast, actual);
        }
        let coverage = covered as f64 / n as f64;
        assert!(
            (coverage - 0.9).abs() < 0.03,
            "empirical coverage = {coverage}"
        );
    }

    #[test]
    fn interval_handles_skewed_errors() {
        // Asymmetric errors: the interval must be asymmetric too.
        let mut tracker = IntervalTracker::new(0.8).without_unit_clamp();
        let mut rng = Rng::new(23);
        for _ in 0..5_000 {
            // Errors in [0, 0.5): actual always >= forecast.
            tracker.record(0.4, 0.4 + 0.5 * rng.next_f64());
        }
        let iv = tracker.interval(0.4).expect("warm");
        assert!(iv.lo >= 0.4 - 0.02, "lo = {}", iv.lo);
        assert!(iv.hi > 0.7, "hi = {}", iv.hi);
    }

    #[test]
    fn unit_clamp_bounds_availability_intervals() {
        let mut tracker = IntervalTracker::new(0.9);
        for _ in 0..100 {
            tracker.record(0.95, 1.0);
            tracker.record(0.95, 0.9);
        }
        let iv = tracker.interval(0.99).expect("warm");
        assert!(iv.hi <= 1.0);
        assert!(iv.lo >= 0.0);
    }

    #[test]
    fn non_finite_pairs_are_ignored() {
        let mut tracker = IntervalTracker::new(0.9);
        for i in 0..20 {
            tracker.record(0.5, 0.4 + 0.01 * f64::from(i));
        }
        let before = tracker.interval(0.5);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            tracker.record(0.5, bad);
            tracker.record(bad, 0.5);
        }
        assert_eq!(tracker.count(), 20);
        assert_eq!(tracker.interval(0.5), before);
    }

    #[test]
    fn empty_tracker_returns_none() {
        let tracker = IntervalTracker::new(0.9);
        assert!(tracker.interval(0.5).is_none());
        assert_eq!(tracker.count(), 0);
    }
}
