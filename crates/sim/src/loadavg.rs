//! Kernel load-average computation.
//!
//! Unix samples the run-queue length every 5 seconds and folds it into
//! exponentially smoothed averages over 1-, 5- and 15-minute horizons:
//!
//! `load ← load·e^(−T/τ) + n·(1 − e^(−T/τ))`
//!
//! with sample period `T = 5 s` and `τ ∈ {60, 300, 900}`. The paper's
//! Eq. 1 sensor reads the 1-minute average; its smoothing lag relative to
//! instantaneous occupancy is one of the measurement-error sources the
//! paper quantifies ("Fearing load average to be insensitive to short-term
//! load variability…").

use crate::LOAD_SAMPLE_PERIOD;

/// The classical 1/5/15-minute exponentially smoothed load averages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadAverage {
    one: f64,
    five: f64,
    fifteen: f64,
    exp_one: f64,
    exp_five: f64,
    exp_fifteen: f64,
}

impl Default for LoadAverage {
    fn default() -> Self {
        Self::new()
    }
}

impl LoadAverage {
    /// Creates a load average starting at zero (an idle, freshly booted
    /// host).
    pub fn new() -> Self {
        let decay = |tau: f64| (-LOAD_SAMPLE_PERIOD / tau).exp();
        Self {
            one: 0.0,
            five: 0.0,
            fifteen: 0.0,
            exp_one: decay(60.0),
            exp_five: decay(300.0),
            exp_fifteen: decay(900.0),
        }
    }

    /// Folds in one 5-second run-queue sample of `n` runnable processes.
    pub fn sample(&mut self, n: usize) {
        let n = n as f64;
        self.one = self.one * self.exp_one + n * (1.0 - self.exp_one);
        self.five = self.five * self.exp_five + n * (1.0 - self.exp_five);
        self.fifteen = self.fifteen * self.exp_fifteen + n * (1.0 - self.exp_fifteen);
    }

    /// The 1-minute load average (what `uptime` reports first and what the
    /// NWS sensor uses).
    pub fn one_minute(&self) -> f64 {
        self.one
    }

    /// The 5-minute load average.
    pub fn five_minute(&self) -> f64 {
        self.five
    }

    /// The 15-minute load average.
    pub fn fifteen_minute(&self) -> f64 {
        self.fifteen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn settle(la: &mut LoadAverage, n: usize, seconds: f64) {
        let samples = (seconds / LOAD_SAMPLE_PERIOD) as usize;
        for _ in 0..samples {
            la.sample(n);
        }
    }

    #[test]
    fn starts_at_zero() {
        let la = LoadAverage::new();
        assert_eq!(la.one_minute(), 0.0);
        assert_eq!(la.five_minute(), 0.0);
        assert_eq!(la.fifteen_minute(), 0.0);
    }

    #[test]
    fn converges_to_constant_run_queue() {
        let mut la = LoadAverage::new();
        settle(&mut la, 2, 4.0 * 3600.0);
        assert!((la.one_minute() - 2.0).abs() < 1e-6);
        assert!((la.five_minute() - 2.0).abs() < 1e-3);
        assert!((la.fifteen_minute() - 2.0).abs() < 1e-2);
    }

    #[test]
    fn one_minute_reacts_faster_than_fifteen() {
        let mut la = LoadAverage::new();
        settle(&mut la, 1, 60.0);
        assert!(la.one_minute() > la.five_minute());
        assert!(la.five_minute() > la.fifteen_minute());
        // After one minute, ~63% of a step is absorbed into the 1-min avg.
        assert!((la.one_minute() - (1.0 - (-1.0f64).exp())).abs() < 0.02);
    }

    #[test]
    fn smoothing_lag_matches_time_constant() {
        // 95% settle time of the 1-minute average is 60·ln 20 ≈ 3 minutes.
        let mut la = LoadAverage::new();
        settle(&mut la, 1, 180.0);
        assert!((la.one_minute() - 0.95).abs() < 0.01);
    }

    #[test]
    fn decays_when_queue_empties() {
        let mut la = LoadAverage::new();
        settle(&mut la, 4, 3600.0);
        settle(&mut la, 0, 60.0);
        assert!(la.one_minute() < 4.0 * 0.4);
        assert!(la.fifteen_minute() > 3.5);
    }
}
