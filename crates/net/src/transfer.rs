//! Transfer-time prediction: regressing file-transfer durations on the
//! monitored link *and* endpoint CPU conditions.
//!
//! Vazhkudai & Schopf showed that predicting data-transfer times from
//! bandwidth probes alone leaves accuracy on the table: the endpoint's
//! CPU load modulates achievable throughput (TCP processing, disk I/O,
//! checksumming all compete with the host's other work), so regressing
//! observed transfer times on *both* the latest bandwidth probe and the
//! CPU-availability forecast beats the univariate fit. This module
//! reproduces that comparison as a prediction scenario in the NWS
//! panel's Table 2/3 shape:
//!
//! - `last-transfer` — the previous transfer's duration (the NWS
//!   last-value baseline);
//! - `mean-transfer` — the running mean of all durations;
//! - `regress-bandwidth` — ordinary least squares of duration on the
//!   bandwidth-only estimate `bytes / bw` over a sliding window;
//! - `regress-bandwidth-cpu` — the bivariate fit adding the endpoint's
//!   CPU availability ([`nws_stats::linear_fit2`]).
//!
//! Each simulated transfer's ground-truth duration couples the probed
//! bandwidth with the endpoint availability: a host at availability `a`
//! sustains only a `0.4 + 0.6·a` fraction of the link's measured
//! bandwidth (transfers are never fully CPU-bound, hence the 0.4
//! floor). The regression predictors see the current probe and the
//! current availability — exactly what an NWS client holds when it asks
//! "how long will this transfer take?" — while the two baselines see
//! only past durations. Every predictor is scored against every
//! realized duration, and [`TransferScenario::error_table`] reports
//! the CPU panel's mergeable [`ErrorRow`]s.

use nws_forecast::ErrorRow;
use nws_stats::{linear_fit, linear_fit2};
use std::sync::Arc;

/// Fraction of link bandwidth a fully loaded endpoint still sustains.
const CPU_FLOOR: f64 = 0.4;

/// Guard against zero/negative probed bandwidth.
const MIN_BANDWIDTH: f64 = 1e-9;

/// Panel member names, in [`TransferScenario::error_table`] row order.
pub const TRANSFER_METHODS: [&str; 4] = [
    "last-transfer",
    "mean-transfer",
    "regress-bandwidth",
    "regress-bandwidth-cpu",
];

/// One predictor's scored one-step errors: the raw sums behind its MAE
/// and MSE, which merge exactly across scenarios.
#[derive(Debug, Clone, Default)]
struct ErrorTracker {
    abs_sum: f64,
    sq_sum: f64,
    count: u64,
}

impl ErrorTracker {
    /// Records one scored forecast against the value that arrived.
    fn record(&mut self, forecast: f64, actual: f64) {
        let err = forecast - actual;
        self.abs_sum += err.abs();
        self.sq_sum += err * err;
        self.count += 1;
    }

    /// The error-table row for the predictor called `name`.
    fn row(&self, name: &Arc<str>) -> ErrorRow {
        ErrorRow {
            name: Arc::clone(name),
            scored: self.count,
            abs_sum: self.abs_sum,
            sq_sum: self.sq_sum,
        }
    }
}

/// The transfer-time prediction scenario: four predictors racing over a
/// stream of (bandwidth probe, CPU availability) pairs.
#[derive(Debug)]
pub struct TransferScenario {
    /// Transfer size in the bandwidth probe's byte unit.
    file_bytes: f64,
    /// Sliding-window length for the regression fits.
    window: usize,
    /// Recent bandwidth-only estimates `bytes / bw`, oldest first.
    x1: Vec<f64>,
    /// Recent endpoint availabilities, aligned with `x1`.
    cpu: Vec<f64>,
    /// Recent realized durations, aligned with `x1`.
    durations: Vec<f64>,
    /// Previous transfer's duration (the last-value baseline).
    last: Option<f64>,
    /// Running sum/count of all durations (the mean baseline).
    sum: f64,
    count: u64,
    trackers: Vec<ErrorTracker>,
    names: Vec<Arc<str>>,
    observed: u64,
}

impl TransferScenario {
    /// Creates the scenario for transfers of `file_bytes` (same unit as
    /// the bandwidth probes feed in), fitting regressions over the last
    /// `window` transfers.
    ///
    /// # Panics
    ///
    /// Panics if `file_bytes` is not positive or `window < 3` (an OLS
    /// plane needs three points).
    pub fn new(file_bytes: f64, window: usize) -> Self {
        assert!(file_bytes > 0.0, "transfers must carry bytes");
        assert!(window >= 3, "regressions need a window of at least 3");
        Self {
            file_bytes,
            window,
            x1: Vec::with_capacity(window),
            cpu: Vec::with_capacity(window),
            durations: Vec::with_capacity(window),
            last: None,
            sum: 0.0,
            count: 0,
            trackers: vec![ErrorTracker::default(); TRANSFER_METHODS.len()],
            names: TRANSFER_METHODS.iter().map(|n| Arc::from(*n)).collect(),
            observed: 0,
        }
    }

    /// The ground-truth duration of a transfer over a link probing
    /// `bandwidth` while the endpoint sits at `cpu` availability.
    pub fn actual_duration(&self, bandwidth: f64, cpu: f64) -> f64 {
        let bw = bandwidth.max(MIN_BANDWIDTH);
        let cpu_factor = CPU_FLOOR + (1.0 - CPU_FLOOR) * cpu.clamp(0.0, 1.0);
        self.file_bytes / (bw * cpu_factor)
    }

    /// Each predictor's standing forecast of the *next* transfer's
    /// duration, given the latest bandwidth probe and availability
    /// forecast, in [`TRANSFER_METHODS`] order. `None` entries have not
    /// warmed up yet.
    pub fn predictions(&self, bandwidth: f64, cpu: f64) -> [Option<f64>; 4] {
        let x1_now = self.file_bytes / bandwidth.max(MIN_BANDWIDTH);
        let mean = (self.count > 0).then(|| self.sum / self.count as f64);
        let reg_bw = linear_fit(&self.x1, &self.durations).map(|fit| fit.predict(x1_now).max(0.0));
        let reg_bw_cpu = linear_fit2(&self.x1, &self.cpu, &self.durations)
            .map(|fit| fit.predict(x1_now, cpu.clamp(0.0, 1.0)).max(0.0));
        [self.last, mean, reg_bw, reg_bw_cpu]
    }

    /// Simulates one transfer: scores every warm predictor against the
    /// realized duration, absorbs the observation, and returns the
    /// realized duration.
    pub fn observe(&mut self, bandwidth: f64, cpu: f64) -> f64 {
        let cpu = cpu.clamp(0.0, 1.0);
        let actual = self.actual_duration(bandwidth, cpu);
        let predictions = self.predictions(bandwidth, cpu);
        for (tracker, pred) in self.trackers.iter_mut().zip(predictions) {
            if let Some(p) = pred {
                tracker.record(p, actual);
            }
        }
        if self.x1.len() == self.window {
            self.x1.remove(0);
            self.cpu.remove(0);
            self.durations.remove(0);
        }
        self.x1.push(self.file_bytes / bandwidth.max(MIN_BANDWIDTH));
        self.cpu.push(cpu);
        self.durations.push(actual);
        self.last = Some(actual);
        self.sum += actual;
        self.count += 1;
        self.observed += 1;
        actual
    }

    /// Transfers observed so far.
    pub fn observations(&self) -> u64 {
        self.observed
    }

    /// The per-predictor error table, one row per [`TRANSFER_METHODS`]
    /// entry, carrying raw sums so rows merge exactly across scenarios.
    pub fn error_table(&self) -> Vec<ErrorRow> {
        self.names
            .iter()
            .zip(&self.trackers)
            .map(|(name, t)| t.row(name))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic stream of (bandwidth, cpu) pairs with genuinely
    /// independent variation in both.
    fn stream(seed: u64, n: usize) -> Vec<(f64, f64)> {
        let mut state = seed.max(1);
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| {
                let bw = 2.0 + 8.0 * next(); // 2–10 MB/s
                let cpu = 0.1 + 0.85 * next(); // 0.1–0.95 availability
                (bw, cpu)
            })
            .collect()
    }

    #[test]
    fn empty_tracker_scores_nothing() {
        let row = ErrorTracker::default().row(&Arc::from("p"));
        assert_eq!((row.scored, row.abs_sum, row.sq_sum), (0, 0.0, 0.0));
        assert!(row.mae().is_nan() && row.mse().is_nan());
    }

    #[test]
    fn tracker_mae_and_mse_accumulate() {
        let mut t = ErrorTracker::default();
        t.record(0.5, 0.4); // err 0.1
        t.record(0.5, 0.8); // err -0.3
        let row = t.row(&Arc::from("p"));
        assert!((row.mae() - 0.2).abs() < 1e-12);
        assert!((row.mse() - (0.01 + 0.09) / 2.0).abs() < 1e-12);
        assert_eq!(row.scored, 2);
    }

    #[test]
    fn duration_couples_bandwidth_and_cpu() {
        let s = TransferScenario::new(100.0, 10);
        let fast = s.actual_duration(10.0, 1.0);
        let loaded = s.actual_duration(10.0, 0.0);
        assert!((fast - 10.0).abs() < 1e-12, "idle endpoint: bytes / bw");
        assert!(
            (loaded - 25.0).abs() < 1e-12,
            "loaded endpoint sustains the 0.4 floor"
        );
        assert!(s.actual_duration(5.0, 1.0) > fast, "slower link, longer");
    }

    #[test]
    fn cpu_aware_regression_beats_bandwidth_only() {
        let mut s = TransferScenario::new(100.0, 40);
        for (bw, cpu) in stream(7, 500) {
            s.observe(bw, cpu);
        }
        let table = s.error_table();
        assert_eq!(table.len(), 4);
        let mae: Vec<f64> = table.iter().map(|r| r.mae()).collect();
        // Regressions see the current probe; baselines do not.
        assert!(
            mae[3] < mae[2],
            "cpu-aware fit must beat bandwidth-only: {mae:?}"
        );
        assert!(
            mae[2] < mae[0] && mae[2] < mae[1],
            "probing beats history-only baselines: {mae:?}"
        );
        for row in &table {
            assert!(row.scored > 400, "{} barely scored", row.name);
        }
    }

    #[test]
    fn scenario_is_deterministic() {
        let run = || {
            let mut s = TransferScenario::new(64.0, 24);
            for (bw, cpu) in stream(99, 300) {
                s.observe(bw, cpu);
            }
            s.error_table()
                .iter()
                .map(|r| (r.abs_sum.to_bits(), r.sq_sum.to_bits(), r.scored))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn predictions_warm_up_in_stages() {
        let mut s = TransferScenario::new(10.0, 5);
        assert_eq!(s.predictions(5.0, 0.5), [None; 4]);
        s.observe(5.0, 0.5);
        let p = s.predictions(5.0, 0.5);
        assert!(p[0].is_some() && p[1].is_some(), "baselines warm first");
        assert!(p[2].is_none() && p[3].is_none(), "fits need 2–3 points");
        for (bw, cpu) in stream(3, 10) {
            s.observe(bw, cpu);
        }
        assert!(s.predictions(5.0, 0.5).iter().all(Option::is_some));
        assert_eq!(s.observations(), 11);
    }
}
