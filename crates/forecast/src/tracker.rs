//! Per-predictor forecasting-error bookkeeping.
//!
//! The NWS "dynamically chooses the \[method\] that has been most accurate
//! over the recent set of measurements" — so each forecaster's one-step
//! errors are recorded both cumulatively and over a recent window.
//!
//! [`ErrorTracker`] is that record for one standalone forecaster (the
//! transfer-time panel in `nws-net` keeps one per member). The
//! [`PredictorBank`](crate::PredictorBank) keeps the same sums for all its
//! members in one slot-major matrix instead; both score through the same
//! kernel.

use crate::kernels::error_terms;
use nws_timeseries::SlidingWindow;

/// Accumulates one-step forecasting errors for a single predictor.
#[derive(Debug, Clone)]
pub struct ErrorTracker {
    abs_sum: f64,
    sq_sum: f64,
    count: u64,
    recent_abs: SlidingWindow,
}

impl ErrorTracker {
    /// Creates a tracker whose "recent" horizon is `recent_window`
    /// forecasts.
    ///
    /// # Panics
    ///
    /// Panics if `recent_window == 0`.
    pub fn new(recent_window: usize) -> Self {
        Self {
            abs_sum: 0.0,
            sq_sum: 0.0,
            count: 0,
            recent_abs: SlidingWindow::new(recent_window),
        }
    }

    /// Records one scored forecast against the measurement that arrived.
    pub fn record(&mut self, forecast: f64, actual: f64) {
        let (abs, sq) = error_terms(forecast, actual);
        self.abs_sum += abs;
        self.sq_sum += sq;
        self.count += 1;
        self.recent_abs.push(abs);
    }

    /// Number of forecasts scored.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Cumulative mean absolute error.
    pub fn mae(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.abs_sum / self.count as f64)
        }
    }

    /// Cumulative mean squared error.
    pub fn mse(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sq_sum / self.count as f64)
        }
    }

    /// Mean absolute error over the recent window only.
    pub fn recent_mae(&self) -> Option<f64> {
        self.recent_abs.mean()
    }

    /// The raw sums behind the means: `(abs_sum, sq_sum, count)`.
    ///
    /// Error tables built from many trackers (one per fleet host) merge
    /// these sums exactly, where merging the already-divided means would
    /// not.
    pub fn totals(&self) -> (f64, f64, u64) {
        (self.abs_sum, self.sq_sum, self.count)
    }

    /// Clears all recorded errors.
    pub fn reset(&mut self) {
        self.abs_sum = 0.0;
        self.sq_sum = 0.0;
        self.count = 0;
        self.recent_abs.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tracker_reports_none() {
        let t = ErrorTracker::new(4);
        assert_eq!(t.mae(), None);
        assert_eq!(t.mse(), None);
        assert_eq!(t.recent_mae(), None);
        assert_eq!(t.count(), 0);
    }

    #[test]
    fn mae_and_mse_accumulate() {
        let mut t = ErrorTracker::new(8);
        t.record(0.5, 0.4); // err 0.1
        t.record(0.5, 0.8); // err -0.3
        assert!((t.mae().unwrap() - 0.2).abs() < 1e-12);
        assert!((t.mse().unwrap() - (0.01 + 0.09) / 2.0).abs() < 1e-12);
        assert_eq!(t.count(), 2);
    }

    #[test]
    fn recent_window_forgets_old_errors() {
        let mut t = ErrorTracker::new(2);
        t.record(1.0, 0.0); // err 1.0 — will scroll out
        t.record(0.5, 0.5); // err 0
        t.record(0.5, 0.5); // err 0
        assert_eq!(t.recent_mae(), Some(0.0));
        // Cumulative still remembers.
        assert!((t.mae().unwrap() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_everything() {
        let mut t = ErrorTracker::new(4);
        t.record(1.0, 0.0);
        t.reset();
        assert_eq!(t.count(), 0);
        assert_eq!(t.mae(), None);
        assert_eq!(t.recent_mae(), None);
    }
}
