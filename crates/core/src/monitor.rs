//! The NWS CPU monitor loop.
//!
//! Reproduces the measurement protocol of Section 2:
//!
//! - every 10 s, each of the three methods (load average, vmstat, hybrid)
//!   produces one availability measurement;
//! - once a minute the hybrid runs its 1.5 s probe, re-selects its passive
//!   method, and refreshes its bias;
//! - on a configurable schedule, a full-priority CPU-bound **test process**
//!   runs for 10 s (Tables 1–3) or 5 min (Table 6) and records the
//!   availability it actually obtained, paired with "the measurement taken
//!   most immediately before the test process executes";
//! - sensing continues *during* test-process execution — the paper's
//!   Figure 4 explicitly shows the periodic signature of the 5-minute test
//!   process in the measurement series.

use nws_sensors::{
    HybridConfig, HybridSensor, LoadAvgSensor, VmstatSensor, MEASUREMENT_PERIOD, PROBE_PERIOD,
};
use nws_sim::{Host, ProcessSpec, Seconds};
use nws_timeseries::Series;

/// Sensor readings taken immediately before a test-process run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PriorReadings {
    /// Last Eq. 1 (load average) measurement before the test.
    pub load: f64,
    /// Last Eq. 2 (vmstat) measurement before the test.
    pub vmstat: f64,
    /// Last hybrid measurement before the test.
    pub hybrid: f64,
}

/// One ground-truth observation from the test process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TestObservation {
    /// Simulation time at which the test process started.
    pub start: Seconds,
    /// Wall-clock duration of the run.
    pub duration: Seconds,
    /// Availability the test process observed (CPU time / wall time).
    pub value: f64,
    /// The sensor readings taken most immediately before the run.
    pub prior: PriorReadings,
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

/// Everything one monitoring run produces.
#[derive(Debug, Clone)]
pub struct MonitorOutput {
    /// Host display name.
    pub host: String,
    /// The three measurement series.
    pub series: MethodSeries,
    /// Ground-truth test-process observations.
    pub tests: Vec<TestObservation>,
    /// `(time, occupancy)` for every hybrid probe run.
    pub probes: Vec<(Seconds, f64)>,
}

/// Monitor schedule and sensor configuration. Measurements and probes run
/// on the paper's cadence ([`MEASUREMENT_PERIOD`], [`PROBE_PERIOD`]).
#[derive(Debug, Clone, Copy)]
pub struct MonitorConfig {
    /// Total monitored span (seconds of simulation after warm-up).
    pub duration: Seconds,
    /// Warm-up before recording starts (lets load averages and workloads
    /// reach steady state).
    pub warmup: Seconds,
    /// Test-process cadence; `None` disables ground-truth runs.
    pub test_period: Option<Seconds>,
    /// Test-process duration (paper: 10 s short, 300 s medium).
    pub test_duration: Seconds,
    /// Hybrid sensor configuration.
    pub hybrid: HybridConfig,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        Self {
            duration: 24.0 * 3600.0,
            warmup: 1800.0,
            test_period: Some(600.0),
            test_duration: nws_sensors::TEST_DURATION_SHORT,
            hybrid: HybridConfig::default(),
        }
    }
}

impl MonitorConfig {
    /// A short configuration for unit/integration tests (minutes, not
    /// hours).
    pub fn test_scale() -> Self {
        Self {
            duration: 1800.0,
            warmup: 300.0,
            test_period: Some(300.0),
            ..Self::default()
        }
    }

    /// The medium-term (Table 6 / Figure 4) schedule: a 5-minute test
    /// process once an hour.
    pub fn medium_term() -> Self {
        Self {
            test_period: Some(3600.0),
            test_duration: nws_sensors::TEST_DURATION_MEDIUM,
            ..Self::default()
        }
    }

    fn validate(&self) {
        assert!(self.duration > 0.0, "duration must be positive");
        assert!(self.warmup >= 0.0, "warmup must be non-negative");
        if let Some(tp) = self.test_period {
            assert!(
                tp >= self.test_duration,
                "test period must cover the test duration"
            );
        }
        assert!(self.test_duration > 0.0);
    }
}

/// The NWS CPU monitor: drives a host and collects series + ground truth.
#[derive(Debug)]
pub struct Monitor {
    config: MonitorConfig,
}

impl Monitor {
    /// Creates a monitor with the given schedule.
    ///
    /// # Panics
    ///
    /// Panics on an inconsistent configuration (see [`MonitorConfig`]).
    pub fn new(config: MonitorConfig) -> Self {
        config.validate();
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &MonitorConfig {
        &self.config
    }

    /// Runs the monitor against `host`, consuming
    /// `warmup + duration` seconds of simulation time.
    pub fn run(&self, host: &mut Host) -> MonitorOutput {
        let cfg = &self.config;
        let mut load_sensor = LoadAvgSensor::new();
        let mut vmstat_sensor = VmstatSensor::new();
        let mut hybrid_sensor = HybridSensor::new(cfg.hybrid);

        host.advance_to(cfg.warmup);
        let t0 = host.now();
        let slots = (cfg.duration / MEASUREMENT_PERIOD).floor() as u64;
        let probe_every = (PROBE_PERIOD / MEASUREMENT_PERIOD).round().max(1.0) as u64;
        let test_every = cfg
            .test_period
            .map(|tp| (tp / MEASUREMENT_PERIOD).round().max(1.0) as u64);

        let mut out = MonitorOutput {
            host: host.name().to_string(),
            series: MethodSeries {
                load: Series::with_capacity(format!("{}/load", host.name()), slots as usize),
                vmstat: Series::with_capacity(format!("{}/vmstat", host.name()), slots as usize),
                hybrid: Series::with_capacity(format!("{}/hybrid", host.name()), slots as usize),
            },
            tests: Vec::new(),
            probes: Vec::new(),
        };

        // State of an in-flight test process.
        struct RunningTest {
            pid: nws_sim::Pid,
            start: Seconds,
            deadline: Seconds,
            /// Sensor readings taken immediately before the launch.
            prior: PriorReadings,
        }
        let mut running_test: Option<RunningTest> = None;
        // Updated every slot; read when a test process launches. The
        // initializer is dead in practice (a measurement always precedes
        // the first test) but keeps the flow simple.
        #[allow(unused_assignments)]
        let mut last = PriorReadings {
            load: 1.0,
            vmstat: 1.0,
            hybrid: 1.0,
        };

        for k in 0..slots {
            let slot_time = t0 + k as f64 * MEASUREMENT_PERIOD;
            // Finish a test whose deadline falls at or before this slot:
            // advance to exactly the deadline so the observed wall time is
            // exactly the test duration.
            if let Some(rt) = &running_test {
                if rt.deadline <= slot_time + 1e-9 {
                    host.advance_to(rt.deadline);
                    let stats = host
                        .kill(rt.pid)
                        .expect("test process alive until deadline");
                    out.tests.push(TestObservation {
                        start: rt.start,
                        duration: cfg.test_duration,
                        value: stats.occupancy(),
                        prior: rt.prior,
                    });
                    running_test = None;
                }
            }
            host.advance_to(slot_time);

            // The three measurements for this slot.
            let load_val = load_sensor.measure(host);
            let vmstat_val = vmstat_sensor.measure(host);
            let hybrid_val = if k % probe_every == 0 {
                let v = hybrid_sensor.measure_with_probe(host);
                let probe = hybrid_sensor.last_probe_value().expect("probe just ran");
                out.probes.push((slot_time, probe));
                v
            } else {
                hybrid_sensor.measure(host)
            };
            out.series
                .load
                .push(slot_time, load_val)
                .expect("slot times increase");
            out.series
                .vmstat
                .push(slot_time, vmstat_val)
                .expect("slot times increase");
            out.series
                .hybrid
                .push(slot_time, hybrid_val)
                .expect("slot times increase");
            last = PriorReadings {
                load: load_val,
                vmstat: vmstat_val,
                hybrid: hybrid_val,
            };

            // Launch a test process right after the slot's measurements —
            // "we use the measurement taken most immediately before the
            // test process executes".
            if let Some(every) = test_every {
                let is_test_slot = k % every == every / 2; // offset into the period
                if is_test_slot && running_test.is_none() {
                    let start = host.now();
                    let pid = host.spawn(ProcessSpec::cpu_bound("test-process"));
                    running_test = Some(RunningTest {
                        pid,
                        start,
                        deadline: start + cfg.test_duration,
                        prior: last,
                    });
                }
            }
        }
        // Close out a test that is still in flight at the end of the run.
        if let Some(rt) = running_test {
            host.advance_to(rt.deadline);
            if let Some(stats) = host.kill(rt.pid) {
                out.tests.push(TestObservation {
                    start: rt.start,
                    duration: cfg.test_duration,
                    value: stats.occupancy(),
                    prior: rt.prior,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nws_sim::HostProfile;

    #[test]
    fn produces_aligned_series_and_tests() {
        let mut host = HostProfile::Thing1.build(5);
        let monitor = Monitor::new(MonitorConfig::test_scale());
        let out = monitor.run(&mut host);
        let n = out.series.load.len();
        assert_eq!(out.series.vmstat.len(), n);
        assert_eq!(out.series.hybrid.len(), n);
        assert_eq!(n, 180); // 1800 s / 10 s
        assert!(!out.tests.is_empty());
        assert!(!out.probes.is_empty());
        // Probes once a minute.
        assert_eq!(out.probes.len(), 30);
        for &p in out
            .series
            .load
            .values()
            .iter()
            .chain(out.series.hybrid.values())
        {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn test_observations_carry_prior_readings() {
        let mut host = HostProfile::Gremlin.build(9);
        let monitor = Monitor::new(MonitorConfig::test_scale());
        let out = monitor.run(&mut host);
        for t in &out.tests {
            assert!((0.0..=1.0).contains(&t.value));
            assert!((0.0..=1.0).contains(&t.prior.load));
            assert!((0.0..=1.0).contains(&t.prior.vmstat));
            assert!((0.0..=1.0).contains(&t.prior.hybrid));
            assert_eq!(t.duration, 10.0);
            // The prior reading was taken at or before the test start.
            let idx = out.series.load.index_at_or_before(t.start).unwrap();
            let reading = out.series.load.get(idx).unwrap();
            assert!((reading.value - t.prior.load).abs() < 1e-12);
        }
    }

    #[test]
    fn disabled_tests_yield_no_observations() {
        let mut host = HostProfile::Thing1.build(5);
        let cfg = MonitorConfig {
            test_period: None,
            ..MonitorConfig::test_scale()
        };
        let out = Monitor::new(cfg).run(&mut host);
        assert!(out.tests.is_empty());
        assert_eq!(out.series.load.len(), 180);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut host = HostProfile::Thing2.build(123);
            Monitor::new(MonitorConfig::test_scale()).run(&mut host)
        };
        let a = run();
        let b = run();
        assert_eq!(a.series.load.values(), b.series.load.values());
        assert_eq!(a.series.hybrid.values(), b.series.hybrid.values());
        assert_eq!(a.tests.len(), b.tests.len());
        for (x, y) in a.tests.iter().zip(&b.tests) {
            assert_eq!(x.value, y.value);
        }
    }

    #[test]
    fn medium_term_schedule_runs_five_minute_tests() {
        let mut host = HostProfile::Thing1.build(5);
        let cfg = MonitorConfig {
            duration: 2.0 * 3600.0,
            warmup: 300.0,
            ..MonitorConfig::medium_term()
        };
        let out = Monitor::new(cfg).run(&mut host);
        assert_eq!(out.tests.len(), 2); // one per hour
        for t in &out.tests {
            assert_eq!(t.duration, 300.0);
        }
        // Sensing continued during the 5-minute tests: full series length.
        assert_eq!(out.series.load.len(), 720);
    }

    #[test]
    #[should_panic(expected = "test period must cover")]
    fn invalid_schedule_panics() {
        Monitor::new(MonitorConfig {
            test_period: Some(5.0),
            test_duration: 10.0,
            ..MonitorConfig::default()
        });
    }
}
