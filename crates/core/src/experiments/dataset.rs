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

    /// One host's monitoring run of one kind — the one place each kind's
    /// monitor schedule and seed salt are written.
    fn collect(&self, kind: Kind, p: HostProfile) -> MonitorOutput {
        let mut config = MonitorConfig {
            duration: self.duration,
            warmup: self.warmup,
            ..MonitorConfig::default()
        };
        // Distinct sub-seeds so the medium and weekly traces are not the
        // identical realization as the short ones (a different day of
        // monitoring).
        let salt = match kind {
            Kind::Short => {
                config.test_period = Some(self.short_test_period);
                0
            }
            Kind::Medium => {
                config.test_period = Some(3600.0_f64.min(self.duration / 2.0));
                config.test_duration = nws_sensors::TEST_DURATION_MEDIUM.min(self.duration / 12.0);
                0x5EED
            }
            Kind::Weekly => {
                config.duration = self.hurst_duration;
                config.test_period = None;
                0x7DA
            }
        };
        let mut host = p.build(host_seed(self.seed, p.name()).wrapping_add(salt));
        Monitor::new(config).run(&mut host)
    }

    /// One kind of run over all six hosts, in host order.
    fn dataset(&self, kind: Kind) -> Vec<MonitorOutput> {
        parallel_map(HostProfile::all().to_vec(), |p| self.collect(kind, p))
    }
}

/// The three monitoring runs every host gets.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// 10 s test process: Tables 1–5, Figures 1–2.
    Short,
    /// 5-minute test process hourly: Table 6, Figure 4.
    Medium,
    /// Week-long trace, test process disabled: the pox plots.
    Weekly,
}

/// Runs the short-test (10 s) monitor over all six hosts — the dataset
/// behind Tables 1–5 and Figures 1–2.
pub fn short_dataset(cfg: &ExperimentConfig) -> Vec<MonitorOutput> {
    cfg.dataset(Kind::Short)
}

/// Runs the medium-term monitor (5-minute test process hourly) over all six
/// hosts — the dataset behind Table 6 and Figure 4.
pub fn medium_dataset(cfg: &ExperimentConfig) -> Vec<MonitorOutput> {
    cfg.dataset(Kind::Medium)
}

/// Collects week-long load-average availability series for every host, with
/// the test process disabled (the paper's pox plots come from plain
/// measurement traces).
pub fn weekly_load_series(cfg: &ExperimentConfig) -> Vec<Series> {
    let runs = cfg.dataset(Kind::Weekly);
    runs.into_iter().map(|run| run.series.load).collect()
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
    let profiles = HostProfile::all();
    let jobs: Vec<(Kind, HostProfile)> = [Kind::Weekly, Kind::Short, Kind::Medium]
        .iter()
        .flat_map(|kind| profiles.iter().map(move |p| (*kind, *p)))
        .collect();
    let mut runs = parallel_map(jobs, |(kind, p)| cfg.collect(kind, p)).into_iter();
    let n = profiles.len();
    let weekly = runs.by_ref().take(n).map(|run| run.series.load).collect();
    let short = runs.by_ref().take(n).collect();
    (short, runs.collect(), weekly)
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
