//! The NWS hybrid sensor: passive methods + an active probe + bias.
//!
//! The hybrid computes the load-average and vmstat availabilities every
//! 10 s and runs a short (1.5 s) full-priority CPU-bound **probe** once a
//! minute. The probe's `cpu_time / wall_time` ratio is what a real new
//! process would actually have obtained, so:
//!
//! - the passive method that lands *closest* to the probe is selected to
//!   generate measurements until the next probe, and
//! - the difference `probe − method` is carried forward as a **bias**,
//!   correcting for load the passive methods cannot see — most importantly
//!   `nice`-level background processes, which occupy the run queue but
//!   yield instantly to full-priority work.
//!
//! The hybrid is a host's one sensor set: it reads its Eq. 1 and Eq. 2
//! sensors once per measurement, and [`HybridSensor::readings`] hands
//! back what they read, so a monitor stores the readings it combined.
//!
//! The bias is also the hybrid's Achilles' heel (kongo): when a
//! *long-running full-priority* job is resident, a 1.5 s probe preempts it
//! (the job's decayed priority loses to the fresh probe) and measures an
//! almost-free CPU, so the bias wrongly inflates every subsequent reading.

use crate::loadavg_sensor::LoadAvgSensor;
use crate::vmstat_sensor::VmstatSensor;
use nws_runtime::Cadence;
use nws_sim::{Host, TICK};
use std::sync::Arc;

/// Which passive method the hybrid currently trusts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Method {
    /// The Eq. 1 load-average method.
    #[default]
    LoadAverage,
    /// The Eq. 2 vmstat method.
    Vmstat,
}

/// EWMA gain for bias updates. A single 1.5 s probe is a noisy sample of
/// availability; smoothing the bias across probes damps that noise while
/// still converging on persistent skews (the `nice`-load correction)
/// within a few minutes — spread across the paper cadence's 5-probe bias
/// window.
const BIAS_GAIN: f64 = Cadence::PAPER.bias_gain();

/// Wall-clock cap on one probe run, in seconds (the probe spins for
/// `probe_duration` seconds of *CPU*; under contention its wall time
/// stretches up to this cap).
const PROBE_MAX_WALL: f64 = 8.0;

/// How many times a failed probe attempt is retried before the cycle is
/// abandoned and the sensor falls back to its passive reading.
const PROBE_RETRIES: u32 = 2;

/// Wall-clock pause between probe retries (seconds, on the simulator's
/// 100 ms tick grid).
const PROBE_BACKOFF: f64 = 0.5;

/// Tunables for the hybrid sensor.
#[derive(Debug, Clone, Copy)]
pub struct HybridConfig {
    /// Probe duration in seconds (paper: 1.5), at most one measurement
    /// period (10 s).
    pub probe_duration: f64,
    /// Whether to apply the probe bias (the paper's design). Disabling it
    /// is the ablation that shows bias rescuing conundrum and sinking
    /// kongo.
    pub apply_bias: bool,
}

impl Default for HybridConfig {
    fn default() -> Self {
        Self {
            probe_duration: crate::PROBE_DURATION,
            apply_bias: true,
        }
    }
}

/// What happened to one probe cycle run under fault injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeOutcome {
    /// Probe attempts that failed (each consumed wall-clock time).
    pub failed_attempts: u32,
    /// Whether a probe ultimately ran. When `false` the returned value is
    /// the passive fallback.
    pub succeeded: bool,
}

/// The NWS hybrid CPU availability sensor.
#[derive(Debug, Clone)]
pub struct HybridSensor {
    config: HybridConfig,
    load: LoadAvgSensor,
    vmstat: VmstatSensor,
    /// The Eq. 1 and Eq. 2 availabilities the last measurement read.
    readings: [Option<f64>; 2],
    chosen: Method,
    bias: f64,
    probes_run: u64,
    last_probe_value: Option<f64>,
    /// Interned probe process name so periodic probes spawn allocation-free.
    probe_name: Arc<str>,
}

impl Default for HybridSensor {
    fn default() -> Self {
        Self::new(HybridConfig::default())
    }
}

impl HybridSensor {
    /// Creates the sensor.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < probe_duration <= 10` s, one measurement period,
    /// and a whole number of the simulator's 100 ms ticks: a NaN or
    /// infinite probe would never end, and a failed attempt advances the
    /// host by the nominal duration, which [`Host::advance`] takes only
    /// on the tick grid.
    pub fn new(config: HybridConfig) -> Self {
        let period = Cadence::PAPER.measurement_period;
        let d = config.probe_duration;
        let ticks = (d / TICK).round();
        assert!(
            d > 0.0 && d <= period && ticks >= 1.0 && (d - ticks * TICK).abs() < 1e-6,
            "probe duration must be in (0, {period}] s and a multiple of the {TICK} s tick, got {d}"
        );
        Self {
            config,
            load: LoadAvgSensor::new(),
            vmstat: VmstatSensor::new(),
            readings: [None; 2],
            chosen: Method::default(),
            bias: 0.0,
            probes_run: 0,
            last_probe_value: None,
            probe_name: Arc::from("nws-probe"),
        }
    }

    /// The currently selected passive method.
    pub fn chosen_method(&self) -> Method {
        self.chosen
    }

    /// The current bias correction.
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// How many probes have been run.
    pub fn probes_run(&self) -> u64 {
        self.probes_run
    }

    /// The most recent probe occupancy, if any.
    pub fn last_probe_value(&self) -> Option<f64> {
        self.last_probe_value
    }

    /// The Eq. 1 (load average) and Eq. 2 (vmstat) availabilities the
    /// last measurement read, in that order: the readings it combined.
    /// `None` marks a source it did not read — dropped, or nothing
    /// measured since creation or [`HybridSensor::reset`].
    pub fn readings(&self) -> [Option<f64>; 2] {
        self.readings
    }

    /// Forgets all learned state, as after a host reboot: the vmstat
    /// differencing, the method choice, and the probe bias all describe
    /// the pre-reboot workload. The next probe re-anchors the bias.
    pub fn reset(&mut self) {
        self.vmstat.reset();
        self.readings = [None; 2];
        self.chosen = Method::default();
        self.bias = 0.0;
        self.probes_run = 0;
        self.last_probe_value = None;
    }

    /// Takes one *passive* measurement (no probe): reads both methods,
    /// reports the chosen one plus bias.
    pub fn measure(&mut self, host: &Host) -> f64 {
        let (l, v) = self.read(host);
        self.combine(l, v)
    }

    /// Takes one passive measurement while zero or more passive sources
    /// are dropped by fault injection.
    ///
    /// Returns `None` when both sources are lost — the slot is an
    /// explicit gap. When only the *chosen* method's source is lost, the
    /// surviving sensor's raw value is substituted without bias (the
    /// cross-sensor fallback; the second tuple element is `true`). A
    /// dropped sensor is genuinely not read, so its internal state (the
    /// vmstat differencing interval) spans the outage naturally.
    pub fn measure_degraded(
        &mut self,
        host: &Host,
        drop_load: bool,
        drop_vmstat: bool,
    ) -> Option<(f64, bool)> {
        let l = (!drop_load).then(|| self.load.measure(host));
        let v = (!drop_vmstat).then(|| self.vmstat.measure(host));
        self.readings = [l, v];
        let (chosen, other) = match self.chosen {
            Method::LoadAverage => (l, v),
            Method::Vmstat => (v, l),
        };
        match (chosen, other) {
            (Some(raw), _) => Some((self.apply_bias_to(raw), false)),
            (None, Some(raw)) => Some((raw.clamp(0.0, 1.0), true)),
            (None, None) => None,
        }
    }

    /// One probe cycle with no failing attempt and no deadline: see
    /// [`HybridSensor::measure_with_probe_retries`].
    pub fn measure_with_probe(&mut self, host: &mut Host) -> f64 {
        self.measure_with_probe_retries(host, 0, f64::INFINITY).0
    }

    /// Runs one probe cycle, advancing the simulation by its wall time:
    /// reads both passive sensors once, at the slot instant, then lets the
    /// first `failing_attempts` probe attempts fail (each taking
    /// `probe_duration` of wall-clock, then a half-second backoff) within
    /// two retries and `deadline` (absolute simulation time). A probe that
    /// runs re-selects the reading closest to it and refreshes the bias.
    /// Returns the chosen slot-instant reading plus bias — for an
    /// abandoned cycle, the passive measurement.
    pub fn measure_with_probe_retries(
        &mut self,
        host: &mut Host,
        failing_attempts: u32,
        deadline: f64,
    ) -> (f64, ProbeOutcome) {
        let (l, v) = self.read(host);
        let mut failed = 0u32;
        let probe = loop {
            if host.now() + self.config.probe_duration > deadline + 1e-9 {
                // No room for another attempt before the deadline.
                break None;
            }
            if failed >= failing_attempts {
                break Some(host.run_cpu_limited_probe(
                    Arc::clone(&self.probe_name),
                    self.config.probe_duration,
                    PROBE_MAX_WALL.max(self.config.probe_duration),
                ));
            }
            // This attempt fails: the probe process hangs/dies for its
            // nominal duration before the failure is detected.
            host.advance(self.config.probe_duration);
            failed += 1;
            if failed > PROBE_RETRIES {
                // Retry budget exhausted — abandon the cycle.
                break None;
            }
            host.advance(PROBE_BACKOFF);
        };
        if let Some(probe) = probe {
            self.probes_run += 1;
            self.last_probe_value = Some(probe);
            // Adopt whichever method agreed best with the probe.
            let (method, raw) = if (l - probe).abs() <= (v - probe).abs() {
                (Method::LoadAverage, l)
            } else {
                (Method::Vmstat, v)
            };
            // Anchor the bias outright on the first probe or when the
            // method choice flips (the stored EWMA belongs to the other
            // method's skew); otherwise fold the new sample into the EWMA.
            if self.probes_run == 1 || method != self.chosen {
                self.bias = probe - raw;
            } else {
                self.bias += BIAS_GAIN * ((probe - raw) - self.bias);
            }
            self.chosen = method;
        }
        let outcome = ProbeOutcome {
            failed_attempts: failed,
            succeeded: probe.is_some(),
        };
        (self.combine(l, v), outcome)
    }

    /// Reads both passive sensors once and keeps what they read.
    fn read(&mut self, host: &Host) -> (f64, f64) {
        let l = self.load.measure(host);
        let v = self.vmstat.measure(host);
        self.readings = [Some(l), Some(v)];
        (l, v)
    }

    fn apply_bias_to(&self, raw: f64) -> f64 {
        if self.config.apply_bias {
            (raw + self.bias).clamp(0.0, 1.0)
        } else {
            raw.clamp(0.0, 1.0)
        }
    }

    fn combine(&self, load_avail: f64, vmstat_avail: f64) -> f64 {
        let raw = match self.chosen {
            Method::LoadAverage => load_avail,
            Method::Vmstat => vmstat_avail,
        };
        self.apply_bias_to(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nws_faults::MAX_PROBE_ATTEMPTS;
    use nws_sim::workload::{LongRunningHog, NiceSoaker};
    use nws_sim::Host;
    use proptest::prelude::*;

    fn settled_host_with_soaker(seed: u64) -> Host {
        let mut h = Host::new("conundrum-like", seed);
        let rng = h.fork_rng("soaker");
        h.add_workload(Box::new(NiceSoaker::new("bg", 600.0, 0.0, rng)));
        h.advance(900.0);
        h
    }

    #[test]
    fn bias_sees_through_nice_load() {
        // The conundrum scenario: passive methods read ~0.5, probe ~1.0,
        // bias lifts subsequent measurements to ~1.0.
        let mut h = settled_host_with_soaker(1);
        let mut s = HybridSensor::default();
        // Warm the vmstat differencing.
        s.measure(&h);
        h.advance(10.0);
        let passive = s.measure(&h);
        assert!((passive - 0.5).abs() < 0.1, "passive = {passive}");
        let with_probe = s.measure_with_probe(&mut h);
        assert!(with_probe > 0.9, "after probe = {with_probe}");
        assert!(s.bias() > 0.35, "bias = {}", s.bias());
        // Subsequent passive measurements carry the bias.
        h.advance(10.0);
        let next = s.measure(&h);
        assert!(next > 0.9, "biased passive = {next}");
    }

    #[test]
    fn bias_can_be_disabled() {
        let mut h = settled_host_with_soaker(2);
        let mut s = HybridSensor::new(HybridConfig {
            apply_bias: false,
            ..HybridConfig::default()
        });
        s.measure(&h);
        h.advance(10.0);
        let _ = s.measure_with_probe(&mut h);
        h.advance(10.0);
        let next = s.measure(&h);
        // Without bias the hybrid is as blind as the passive methods.
        assert!((next - 0.5).abs() < 0.15, "unbiased = {next}");
    }

    #[test]
    fn probe_fooled_by_long_running_job() {
        // The kongo scenario: probe preempts the decayed resident job and
        // reports ~full availability; the bias then *inflates* readings.
        let mut h = Host::new("kongo-like", 3);
        h.add_workload(Box::new(LongRunningHog::new("res", 0.0, 0.0)));
        h.advance(900.0);
        let mut s = HybridSensor::default();
        s.measure(&h);
        h.advance(10.0);
        let m = s.measure_with_probe(&mut h);
        assert!(m > 0.8, "hybrid reads {m} — probe should have been fooled");
        // Ground truth for a 10s test process is ~0.5-0.7: the hybrid is
        // far off, exactly the paper's Table 1 kongo row.
        h.advance(30.0);
        let truth = h.run_occupancy_process("test", 10.0);
        assert!(m - truth > 0.2, "m = {m}, truth = {truth}");
    }

    #[test]
    fn method_selection_tracks_probe_agreement() {
        let mut h = Host::new("idle", 4);
        h.advance(300.0);
        let mut s = HybridSensor::default();
        s.measure(&h);
        h.advance(10.0);
        let _ = s.measure_with_probe(&mut h);
        assert_eq!(s.probes_run(), 1);
        assert!(s.last_probe_value().unwrap() > 0.9);
        // On an idle machine both methods read ~1.0 and agree with the
        // probe; the tie goes to load average.
        assert_eq!(s.chosen_method(), Method::LoadAverage);
        assert!(s.bias().abs() < 0.1);
    }

    #[test]
    fn measurement_is_clamped() {
        let mut h = Host::new("idle", 5);
        h.advance(60.0);
        let mut s = HybridSensor::default();
        s.measure(&h);
        h.advance(10.0);
        let _ = s.measure_with_probe(&mut h);
        h.advance(10.0);
        let m = s.measure(&h);
        assert!((0.0..=1.0).contains(&m));
    }

    #[test]
    #[should_panic(expected = "probe duration")]
    fn zero_probe_duration_panics() {
        HybridSensor::new(HybridConfig {
            probe_duration: 0.0,
            ..HybridConfig::default()
        });
    }

    #[test]
    fn zero_failing_attempts_is_exactly_measure_with_probe() {
        let make = |seed| {
            let mut h = settled_host_with_soaker(seed);
            let mut s = HybridSensor::default();
            s.measure(&h);
            h.advance(10.0);
            (h, s)
        };
        let (mut h1, mut s1) = make(7);
        let (mut h2, mut s2) = make(7);
        let a = s1.measure_with_probe(&mut h1);
        let deadline = h2.now() + 10.0;
        let (b, outcome) = s2.measure_with_probe_retries(&mut h2, 0, deadline);
        assert_eq!(a, b);
        assert_eq!(h1.now(), h2.now());
        assert_eq!(s1.bias(), s2.bias());
        assert!(outcome.succeeded);
        assert_eq!(outcome.failed_attempts, 0);
    }

    /// Probe durations for the construction property: the edges, the
    /// tick grid, hundredths (nine in ten off the grid) and any bits.
    fn probe_durations() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(-1.5),
            Just(-0.0),
            Just(0.0),
            Just(5e-324),
            Just(f64::MIN_POSITIVE),
            Just(0.05),
            Just(0.25),
            Just(1.55),
            Just(1.5 + 1e-5),
            Just(9.95),
            Just(10.0),
            Just(10.000_000_000_000_002),
            Just(1e300),
            Just(f64::MAX),
            (1u64..101).prop_map(|tenths| tenths as f64 / 10.0),
            (1u64..1001).prop_map(|hundredths| hundredths as f64 / 100.0),
            any::<u64>().prop_map(f64::from_bits),
        ]
    }

    /// A probe duration outside `(0, 10]` s or off the 100 ms tick grid
    /// is refused at construction with the documented panic, and one
    /// inside runs a probe cycle to its end with no failed attempt, one,
    /// and [`MAX_PROBE_ATTEMPTS`]: NaN, ±∞, negatives, zeros, subnormals,
    /// huge and off-grid values never reach the simulator's tick-counting
    /// probe loop or its tick-grid advance.
    fn a_probe_duration_is_refused_or_runs(d: f64) -> TestCaseResult {
        let tenths = (d * 10.0).round();
        let valid = d > 0.0 && d <= 10.0 && tenths >= 1.0 && (d - tenths / 10.0).abs() < 1e-6;
        let config = HybridConfig {
            probe_duration: d,
            ..HybridConfig::default()
        };
        if let Err(panic) = std::panic::catch_unwind(|| HybridSensor::new(config)) {
            prop_assert!(!valid, "refused {d}");
            let msg = panic.downcast_ref::<String>().map_or("", String::as_str);
            prop_assert!(
                msg.starts_with("probe duration must be in (0, 10] s"),
                "{msg}"
            );
            return Ok(());
        }
        prop_assert!(valid, "accepted {d}");
        for failing in [0, 1, MAX_PROBE_ATTEMPTS] {
            let mut s = HybridSensor::new(config);
            let mut h = Host::new("edge", 1);
            h.advance(60.0);
            let (v, outcome) = s.measure_with_probe_retries(&mut h, failing, f64::INFINITY);
            prop_assert!((0.0..=1.0).contains(&v), "{d}, {failing} failing: {v}");
            prop_assert_eq!(outcome.failed_attempts, failing.min(1 + PROBE_RETRIES));
            prop_assert_eq!(outcome.succeeded, failing <= PROBE_RETRIES);
            prop_assert_eq!(s.probes_run(), u64::from(outcome.succeeded));
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn a_probe_duration_is_refused_at_construction_or_runs(d in probe_durations()) {
            a_probe_duration_is_refused_or_runs(d)?;
        }
    }

    // The construction property at 4,096 cases. Run with
    // `cargo test --release -p nws-sensors -- --ignored`.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        #[ignore = "4,096 cases; run with --ignored"]
        fn a_probe_duration_is_refused_at_construction_or_runs_at_4096_cases(
            d in probe_durations(),
        ) {
            a_probe_duration_is_refused_or_runs(d)?;
        }
    }

    #[test]
    fn a_failed_probe_cycle_keeps_the_slot_instant_readings() {
        // A twin sensor on a twin host reads at the slot instant; the
        // probe cycle's failed attempts and backoff move the clock, but
        // its readings and (when abandoned) its value are the twin's.
        for failing in [1, 2, 10] {
            let make = || {
                let mut h = settled_host_with_soaker(13);
                let mut s = HybridSensor::default();
                s.measure(&h);
                h.advance(10.0);
                (h, s)
            };
            let (mut h, mut s) = make();
            let (twin_h, mut twin) = make();
            let passive = twin.measure(&twin_h);
            let t0 = h.now();
            let (value, outcome) = s.measure_with_probe_retries(&mut h, failing, t0 + 10.0);
            assert!(h.now() > t0, "the failed attempts took time");
            assert_eq!(outcome.failed_attempts, failing.min(1 + PROBE_RETRIES));
            assert_eq!(outcome.succeeded, failing <= PROBE_RETRIES);
            assert_eq!(s.readings(), twin.readings(), "{failing} failing");
            assert!(s.readings().iter().all(Option::is_some));
            if !outcome.succeeded {
                assert_eq!(value, passive, "{failing} failing");
            }
        }
    }

    #[test]
    fn readings_are_what_the_last_measurement_read() {
        let mut h = settled_host_with_soaker(14);
        let mut s = HybridSensor::default();
        assert_eq!(s.readings(), [None, None]);
        let mut twin = (LoadAvgSensor::new(), VmstatSensor::new());
        let v = s.measure(&h);
        let (l, m) = (twin.0.measure(&h), twin.1.measure(&h));
        assert_eq!(s.readings(), [Some(l), Some(m)]);
        assert_eq!(v, l.clamp(0.0, 1.0), "the default method, unbiased yet");
        h.advance(10.0);
        s.measure_degraded(&h, false, true);
        assert_eq!(s.readings(), [Some(twin.0.measure(&h)), None]);
        h.advance(10.0);
        assert!(s.measure_degraded(&h, true, true).is_none());
        assert_eq!(s.readings(), [None, None]);
        s.measure(&h);
        s.reset();
        assert_eq!(s.readings(), [None, None]);
    }

    #[test]
    fn failed_attempts_consume_time_then_retry_succeeds() {
        let mut h = settled_host_with_soaker(8);
        let mut s = HybridSensor::default();
        s.measure(&h);
        h.advance(10.0);
        let t0 = h.now();
        let (_, outcome) = s.measure_with_probe_retries(&mut h, 1, t0 + 30.0);
        assert!(outcome.succeeded);
        assert_eq!(outcome.failed_attempts, 1);
        assert_eq!(s.probes_run(), 1);
        // One failed attempt (1.5 s) + backoff (0.5 s) + the real probe.
        assert!(
            h.now() - t0 >= 1.5 + 0.5 + 1.5 - 1e-9,
            "t = {}",
            h.now() - t0
        );
    }

    #[test]
    fn exhausted_retries_abandon_and_fall_back_to_passive() {
        let mut h = settled_host_with_soaker(9);
        let mut s = HybridSensor::default();
        s.measure(&h);
        h.advance(10.0);
        let deadline = h.now() + 60.0;
        let (value, outcome) = s.measure_with_probe_retries(&mut h, 10, deadline);
        assert!(!outcome.succeeded);
        // Budget: initial attempt + PROBE_RETRIES retries, all failed.
        assert_eq!(outcome.failed_attempts, 1 + PROBE_RETRIES);
        assert_eq!(s.probes_run(), 0, "no probe ever ran");
        assert!((0.0..=1.0).contains(&value));
    }

    #[test]
    fn deadline_abandons_before_starting_an_attempt() {
        let mut h = settled_host_with_soaker(10);
        let mut s = HybridSensor::default();
        s.measure(&h);
        h.advance(10.0);
        let t0 = h.now();
        // Deadline too tight for even one probe attempt.
        let (_, outcome) = s.measure_with_probe_retries(&mut h, 0, t0 + 1.0);
        assert!(!outcome.succeeded);
        assert_eq!(outcome.failed_attempts, 0);
        assert_eq!(h.now(), t0, "abandoning must not advance time");
    }

    #[test]
    fn degraded_measure_gap_and_cross_fallback() {
        let mut h = settled_host_with_soaker(11);
        let mut s = HybridSensor::default();
        s.measure(&h);
        h.advance(10.0);
        // Both sources lost: explicit gap.
        assert!(s.measure_degraded(&h, true, true).is_none());
        // Chosen defaults to load-average; losing vmstat keeps the biased
        // chosen-method path.
        let (v, crossed) = s.measure_degraded(&h, false, true).expect("load survives");
        assert!(!crossed);
        assert!((0.0..=1.0).contains(&v));
        // Losing the chosen source crosses to the survivor, biasless.
        h.advance(10.0);
        let (v2, crossed2) = s
            .measure_degraded(&h, true, false)
            .expect("vmstat survives");
        assert!(crossed2);
        assert!((0.0..=1.0).contains(&v2));
        // Nothing dropped behaves exactly like measure().
        let mut s2 = s.clone();
        h.advance(10.0);
        let a = s.measure(&h);
        let b = s2.measure_degraded(&h, false, false).unwrap();
        assert_eq!((a, false), b);
    }

    #[test]
    fn reset_forgets_bias_and_method() {
        let mut h = settled_host_with_soaker(12);
        let mut s = HybridSensor::default();
        s.measure(&h);
        h.advance(10.0);
        let _ = s.measure_with_probe(&mut h);
        assert!(s.bias().abs() > 0.0);
        s.reset();
        assert_eq!(s.bias(), 0.0);
        assert_eq!(s.probes_run(), 0);
        assert_eq!(s.chosen_method(), Method::default());
        assert!(s.last_probe_value().is_none());
        // The next probe re-anchors the bias outright (first-probe rule).
        h.advance(10.0);
        let _ = s.measure_with_probe(&mut h);
        assert_eq!(s.probes_run(), 1);
    }
}
