//! Dataset collection: the monitoring runs all tables/figures share.
//!
//! Every host's trace is a pure function of its own derived seed, so the
//! collectors below fan out over hosts with [`nws_runtime::parallel_map`]:
//! the outputs are bit-identical to a sequential run at any thread count.

use crate::monitor::{Monitor, MonitorConfig, MonitorOutput};
use nws_runtime::{host_seed, parallel_map};
use nws_sim::{HostProfile, Seconds};
use nws_timeseries::Series;

/// Global experiment parameters.
///
/// The defaults reproduce the paper's protocol (24-hour traces, a one-week
/// trace for the Hurst analysis). [`ExperimentConfig::quick`] shrinks
/// everything for fast tests — the *shapes* still hold at that scale, the
/// statistics are just noisier.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// Base seed; per-host seeds derive from it.
    pub seed: u64,
    /// Monitored span for the 24-hour experiments (Tables 1–6).
    pub duration: Seconds,
    /// Monitored span for the self-similarity analysis (Figure 3, Table 4
    /// column 2) — the paper used one week.
    pub hurst_duration: Seconds,
    /// Cadence of the 10-second test process (Tables 1–3).
    pub short_test_period: Seconds,
    /// Warm-up before recording.
    pub warmup: Seconds,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            seed: 1998,
            duration: 24.0 * 3600.0,
            hurst_duration: 7.0 * 24.0 * 3600.0,
            short_test_period: 600.0,
            warmup: 1800.0,
        }
    }
}

impl ExperimentConfig {
    /// A reduced configuration for unit/integration tests: one simulated
    /// hour of monitoring and a 6-hour Hurst trace.
    pub fn quick() -> Self {
        Self {
            duration: 3600.0,
            hurst_duration: 6.0 * 3600.0,
            short_test_period: 300.0,
            warmup: 600.0,
            ..Self::default()
        }
    }

    fn short_monitor(&self) -> MonitorConfig {
        MonitorConfig {
            duration: self.duration,
            warmup: self.warmup,
            test_period: Some(self.short_test_period),
            ..MonitorConfig::default()
        }
    }

    fn medium_monitor(&self) -> MonitorConfig {
        MonitorConfig {
            duration: self.duration,
            warmup: self.warmup,
            test_period: Some(3600.0_f64.min(self.duration / 2.0)),
            test_duration: nws_sensors::TEST_DURATION_MEDIUM.min(self.duration / 12.0),
            ..MonitorConfig::default()
        }
    }
}

/// Runs the short-test (10 s) monitor over all six hosts — the dataset
/// behind Tables 1–5 and Figures 1–2.
pub fn short_dataset(cfg: &ExperimentConfig) -> Vec<MonitorOutput> {
    let monitor = Monitor::new(cfg.short_monitor());
    parallel_map(HostProfile::all().to_vec(), |p| {
        let mut host = p.build(host_seed(cfg.seed, p.name()));
        monitor.run(&mut host)
    })
}

/// Runs the medium-term monitor (5-minute test process hourly) over all six
/// hosts — the dataset behind Table 6 and Figure 4.
pub fn medium_dataset(cfg: &ExperimentConfig) -> Vec<MonitorOutput> {
    let monitor = Monitor::new(cfg.medium_monitor());
    parallel_map(HostProfile::all().to_vec(), |p| {
        // Distinct sub-seed so the medium traces are not the identical
        // realization as the short ones (a different day of monitoring).
        let mut host = p.build(host_seed(cfg.seed, p.name()).wrapping_add(0x5EED));
        monitor.run(&mut host)
    })
}

/// Collects week-long load-average availability series for every host, with
/// the test process disabled (the paper's pox plots come from plain
/// measurement traces).
pub fn weekly_load_series(cfg: &ExperimentConfig) -> Vec<Series> {
    let monitor = Monitor::new(MonitorConfig {
        duration: cfg.hurst_duration,
        warmup: cfg.warmup,
        test_period: None,
        ..MonitorConfig::default()
    });
    parallel_map(HostProfile::all().to_vec(), |p| {
        let mut host = p.build(host_seed(cfg.seed, p.name()).wrapping_add(0x7DA));
        monitor.run(&mut host).series.load
    })
}

/// All three datasets collected concurrently: the 18 monitoring runs
/// (6 hosts × {short, medium, weekly}) are independent, so they share one
/// work queue instead of running dataset-by-dataset.
///
/// The week-long Hurst traces dominate the wall clock, so they are queued
/// first; results are reassembled per dataset in host order, making the
/// output identical to calling the three collectors back to back.
pub fn all_datasets(
    cfg: &ExperimentConfig,
) -> (Vec<MonitorOutput>, Vec<MonitorOutput>, Vec<Series>) {
    enum Job {
        Short(HostProfile),
        Medium(HostProfile),
        Weekly(HostProfile),
    }
    enum Out {
        Monitor(Box<MonitorOutput>),
        Load(Series),
    }

    let short_monitor = Monitor::new(cfg.short_monitor());
    let medium_monitor = Monitor::new(cfg.medium_monitor());
    let weekly_monitor = Monitor::new(MonitorConfig {
        duration: cfg.hurst_duration,
        warmup: cfg.warmup,
        test_period: None,
        ..MonitorConfig::default()
    });

    let profiles = HostProfile::all();
    let mut jobs: Vec<Job> = Vec::with_capacity(3 * profiles.len());
    jobs.extend(profiles.iter().map(|p| Job::Weekly(*p)));
    jobs.extend(profiles.iter().map(|p| Job::Short(*p)));
    jobs.extend(profiles.iter().map(|p| Job::Medium(*p)));

    let outs = parallel_map(jobs, |job| match job {
        Job::Short(p) => {
            let mut host = p.build(host_seed(cfg.seed, p.name()));
            Out::Monitor(Box::new(short_monitor.run(&mut host)))
        }
        Job::Medium(p) => {
            let mut host = p.build(host_seed(cfg.seed, p.name()).wrapping_add(0x5EED));
            Out::Monitor(Box::new(medium_monitor.run(&mut host)))
        }
        Job::Weekly(p) => {
            let mut host = p.build(host_seed(cfg.seed, p.name()).wrapping_add(0x7DA));
            Out::Load(weekly_monitor.run(&mut host).series.load)
        }
    });

    let n = profiles.len();
    let mut weekly = Vec::with_capacity(n);
    let mut short = Vec::with_capacity(n);
    let mut medium = Vec::with_capacity(n);
    for out in outs {
        match out {
            Out::Load(s) => weekly.push(s),
            Out::Monitor(m) if short.len() < n => short.push(*m),
            Out::Monitor(m) => medium.push(*m),
        }
    }
    (short, medium, weekly)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_dataset_covers_all_hosts() {
        let cfg = ExperimentConfig::quick();
        let data = short_dataset(&cfg);
        assert_eq!(data.len(), 6);
        for out in &data {
            assert_eq!(out.series.load.len(), 360); // 3600 s / 10 s
            assert!(!out.tests.is_empty());
        }
        let names: Vec<&str> = data.iter().map(|o| o.host.as_str()).collect();
        assert_eq!(names, nws_sim::UCSD_HOST_NAMES.to_vec());
    }

    #[test]
    fn datasets_are_deterministic() {
        let cfg = ExperimentConfig::quick();
        let a = short_dataset(&cfg);
        let b = short_dataset(&cfg);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.series.load.values(), y.series.load.values());
        }
    }

    #[test]
    fn medium_dataset_uses_long_tests() {
        let cfg = ExperimentConfig::quick();
        let data = medium_dataset(&cfg);
        for out in &data {
            for t in &out.tests {
                assert!(t.duration >= 100.0, "medium test too short");
            }
        }
    }

    #[test]
    fn all_datasets_matches_individual_collectors() {
        let cfg = ExperimentConfig::quick();
        let (short, medium, weekly) = all_datasets(&cfg);
        let short_ref = short_dataset(&cfg);
        let medium_ref = medium_dataset(&cfg);
        let weekly_ref = weekly_load_series(&cfg);
        assert_eq!(short.len(), short_ref.len());
        for (a, b) in short.iter().zip(&short_ref) {
            assert_eq!(a.host, b.host);
            assert_eq!(a.series.load.values(), b.series.load.values());
        }
        for (a, b) in medium.iter().zip(&medium_ref) {
            assert_eq!(a.host, b.host);
            assert_eq!(a.series.load.values(), b.series.load.values());
        }
        for (a, b) in weekly.iter().zip(&weekly_ref) {
            assert_eq!(a.values(), b.values());
        }
    }

    #[test]
    fn weekly_series_have_expected_length() {
        let cfg = ExperimentConfig::quick();
        let series = weekly_load_series(&cfg);
        assert_eq!(series.len(), 6);
        for s in &series {
            assert_eq!(s.len(), (cfg.hurst_duration / 10.0) as usize);
        }
    }
}
