//! Dataset collection: the monitoring runs all tables/figures share.
//!
//! Every run is a [`GridMonitor`] over one host — the loop that is
//! journaled, replicated and served elsewhere — with its ground-truth
//! lane on where a table needs the test process. Warm-up is slots run
//! before the recorded window; the memory retains both, so the archive's
//! forecasts are exactly a fresh bank fed its stored series.
//!
//! Every host's trace is a pure function of its own derived seed, so the
//! collectors below fan out over hosts with [`nws_runtime::parallel_map`]:
//! the outputs are bit-identical to a sequential run at any thread count.

use nws_grid::{
    GridMonitor, GridMonitorConfig, MemoryConfig, Metric, TestObservation, TestSchedule,
};
use nws_runtime::{parallel_map, Cadence};
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

/// The paper's three methods, in column order, with their series suffix.
const METHODS: [(Metric, &str); 3] = [
    (Metric::CpuAvailabilityLoad, "load"),
    (Metric::CpuAvailabilityVmstat, "vmstat"),
    (Metric::CpuAvailabilityHybrid, "hybrid"),
];

/// Measurement slots in a span of simulated time.
fn slots(span: Seconds) -> u64 {
    (span / Cadence::PAPER.measurement_period).floor() as u64
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

    /// The paper's 10-second test process on this configuration's cadence.
    pub(crate) fn short_tests(&self) -> TestSchedule {
        TestSchedule {
            period: self.short_test_period,
            duration: nws_sensors::TEST_DURATION_SHORT,
        }
    }

    /// Monitors one host, seeded `host_seed(base, name)`, for the warm-up
    /// and then `duration` seconds, its memory retaining every slot.
    fn monitor(
        &self,
        p: HostProfile,
        base: u64,
        duration: Seconds,
        config: GridMonitorConfig,
    ) -> GridMonitor {
        let total = slots(self.warmup) + slots(duration);
        let memory = MemoryConfig {
            retain: total as usize,
        };
        let mut grid = GridMonitor::new(&[p], base, GridMonitorConfig { memory, ..config });
        grid.run_steps(total);
        grid
    }

    /// [`ExperimentConfig::monitor`], cut to its recorded window.
    pub(crate) fn run(
        &self,
        p: HostProfile,
        base: u64,
        duration: Seconds,
        config: GridMonitorConfig,
    ) -> HostRun {
        HostRun::recorded(&self.monitor(p, base, duration, config), slots(self.warmup))
    }

    /// One host's monitoring run of one kind — the one place each kind's
    /// schedule and seed salt are written.
    fn grid(&self, kind: Kind, p: HostProfile) -> GridMonitor {
        // Distinct sub-seeds so the medium and weekly traces are not the
        // identical realization as the short ones (a different day of
        // monitoring).
        let (salt, duration, ground_truth) = match kind {
            Kind::Short => (0, self.duration, Some(self.short_tests())),
            Kind::Medium => (
                0x5EED,
                self.duration,
                Some(TestSchedule {
                    period: 3600.0_f64.min(self.duration / 2.0),
                    duration: nws_sensors::TEST_DURATION_MEDIUM.min(self.duration / 12.0),
                }),
            ),
            Kind::Weekly => (0x7DA, self.hurst_duration, None),
        };
        let config = GridMonitorConfig {
            ground_truth,
            ..GridMonitorConfig::default()
        };
        self.monitor(p, self.seed ^ salt, duration, config)
    }

    fn collect(&self, kind: Kind, p: HostProfile) -> HostRun {
        HostRun::recorded(&self.grid(kind, p), slots(self.warmup))
    }

    /// One kind of run over all six hosts, in host order.
    fn dataset(&self, kind: Kind) -> Vec<HostRun> {
        parallel_map(HostProfile::all().to_vec(), |p| self.collect(kind, p))
    }
}

/// The three measurement series a monitored host produces.
#[derive(Debug, Clone)]
pub struct MethodSeries {
    /// Eq. 1 (load average) availability series.
    pub load: Series,
    /// Eq. 2 (vmstat) availability series.
    pub vmstat: Series,
    /// NWS hybrid availability series.
    pub hybrid: Series,
}

impl MethodSeries {
    /// The series in paper column order, with display names.
    pub fn columns(&self) -> [(&'static str, &Series); 3] {
        [
            ("load-average", &self.load),
            ("vmstat", &self.vmstat),
            ("nws-hybrid", &self.hybrid),
        ]
    }
}

/// One host's monitoring run over its recorded window.
#[derive(Debug, Clone)]
pub struct HostRun {
    /// Host display name.
    pub host: String,
    /// The three measurement series, as the archive stored them.
    pub series: MethodSeries,
    /// The ground-truth tests launched inside the window.
    pub tests: Vec<TestObservation>,
}

impl HostRun {
    /// The recorded window of a one-host monitor: every stored reading
    /// and every test launched from slot `warmup` on.
    fn recorded(grid: &GridMonitor, warmup: u64) -> HostRun {
        let (host, _) = grid.hosts().next().expect("one monitored host");
        // Slot `warmup` is stored at the end of its period; anything
        // earlier is warm-up.
        let cut = Cadence::PAPER.slot_time(warmup) + Cadence::PAPER.measurement_period / 2.0;
        let [load, vmstat, hybrid] = METHODS.map(|(metric, suffix)| {
            let id = grid.registry().lookup(host, metric).expect("registered");
            let stored = grid.memory().series(id, format!("{host}/{suffix}"));
            stored.slice_interval(cut, f64::INFINITY)
        });
        let tests = grid.ground_truth().next().expect("one monitored host");
        HostRun {
            host: host.to_string(),
            series: MethodSeries {
                load,
                vmstat,
                hybrid,
            },
            tests: tests.iter().filter(|t| t.slot >= warmup).copied().collect(),
        }
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
pub fn short_dataset(cfg: &ExperimentConfig) -> Vec<HostRun> {
    cfg.dataset(Kind::Short)
}

/// Runs the medium-term monitor (5-minute test process hourly) over all six
/// hosts — the dataset behind Table 6 and Figure 4.
pub fn medium_dataset(cfg: &ExperimentConfig) -> Vec<HostRun> {
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
pub fn all_datasets(cfg: &ExperimentConfig) -> (Vec<HostRun>, Vec<HostRun>, Vec<Series>) {
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
    use nws_forecast::PredictorBank;

    #[test]
    fn all_datasets_matches_individual_collectors() {
        let cfg = ExperimentConfig::quick();
        let (short, medium, weekly) = all_datasets(&cfg);
        let names: Vec<&str> = short.iter().map(|o| o.host.as_str()).collect();
        assert_eq!(names, nws_sim::UCSD_HOST_NAMES.to_vec());
        for run in &short {
            assert_eq!(run.series.load.len(), 360); // 3600 s / 10 s
            assert!(!run.tests.is_empty());
        }
        for t in medium.iter().flat_map(|run| &run.tests) {
            assert!(t.duration >= 100.0, "medium test too short");
        }
        for s in &weekly {
            assert_eq!(s.len(), (cfg.hurst_duration / 10.0) as usize);
        }
        // The shared queue collects exactly the per-dataset runs — and a
        // second collection of the same config repeats them.
        let individual = short_dataset(&cfg).into_iter().chain(medium_dataset(&cfg));
        for (a, b) in short.iter().chain(&medium).zip(individual) {
            assert_eq!(a.host, b.host);
            assert_eq!(a.series.load.values(), b.series.load.values());
            assert_eq!(a.tests, b.tests);
        }
        for (a, b) in weekly.iter().zip(&weekly_load_series(&cfg)) {
            assert_eq!(a.values(), b.values());
        }
    }

    /// Serve what we scored: at every recorded launch of every short run
    /// and one medium run, the standing forecasts the lane recorded (what
    /// Table 2 scores) are bit for bit a fresh panel fed the archive's
    /// stored series through the launch slot — the forecaster a client
    /// asking the archive is answered from.
    #[test]
    fn table2_scores_the_forecaster_clients_are_answered_from() {
        let cfg = ExperimentConfig::quick();
        let short = HostProfile::all().into_iter().zip(short_dataset(&cfg));
        let kongo = (HostProfile::Kongo, medium_dataset(&cfg).pop().expect("six"));
        let runs = short
            .map(|run| (Kind::Short, run))
            .chain([(Kind::Medium, kongo)]);
        for (kind, (p, run)) in runs {
            let grid = cfg.grid(kind, p);
            assert_eq!(HostRun::recorded(&grid, slots(cfg.warmup)).tests, run.tests);
            assert!(!run.tests.is_empty(), "{}: no recorded launches", p.name());
            for (m, (metric, _)) in METHODS.into_iter().enumerate() {
                let id = grid
                    .registry()
                    .lookup(p.name(), metric)
                    .expect("registered");
                let stored = grid.memory().values(id);
                // A clean run stores one reading per slot, in slot order.
                assert_eq!(stored.len() as u64, grid.slots());
                let mut bank = PredictorBank::nws_default();
                let mut fed = 0;
                for t in &run.tests {
                    let through = t.slot as usize + 1;
                    stored[fed..through].iter().for_each(|&v| bank.observe(v));
                    fed = through;
                    let fresh = bank.forecast().map(|f| f.value.to_bits());
                    let served = t.forecast[m].map(f64::to_bits);
                    assert_eq!(served, fresh, "{} {metric:?} at slot {}", p.name(), t.slot);
                }
            }
        }
    }
}
