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
use crate::{HostView, ProbeHost};
use nws_runtime::Cadence;
use nws_sim::TICK;
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
    /// infinite probe would never end, and a failed attempt waits the
    /// nominal duration, which the simulator's [`ProbeHost::wait`] takes
    /// only on the tick grid.
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

    /// Takes one passive measurement while zero or more passive sources
    /// are dropped by fault injection (`(false, false)` drops none).
    ///
    /// Returns `None` when both sources are lost — the slot is an
    /// explicit gap. When only the *chosen* method's source is lost, the
    /// surviving sensor's raw value is substituted without bias (the
    /// cross-sensor fallback; the second tuple element is `true`). A
    /// dropped sensor is genuinely not read, so its internal state (the
    /// vmstat differencing interval) spans the outage naturally.
    pub fn measure_degraded<H: HostView + ?Sized>(
        &mut self,
        host: &H,
        drop_load: bool,
        drop_vmstat: bool,
    ) -> Option<(f64, bool)> {
        self.readings = [
            (!drop_load).then(|| self.load.measure(host)),
            (!drop_vmstat).then(|| self.vmstat.measure(host)),
        ];
        self.combine()
    }

    /// Runs one probe cycle, letting the host's time pass by its wall
    /// time: reads both passive sensors once, at the slot instant, then
    /// lets the first `failing_attempts` probe attempts fail (each taking
    /// `probe_duration` of wall-clock, then a half-second backoff) within
    /// two retries and `deadline` (absolute host time). A probe that runs
    /// re-selects the reading closest to it and refreshes the bias.
    /// Returns the chosen slot-instant reading plus bias — for an
    /// abandoned cycle, the passive measurement. `(0, f64::INFINITY)` is
    /// the plain cycle: no failing attempt and no deadline.
    pub fn measure_with_probe_retries<H: ProbeHost + ?Sized>(
        &mut self,
        host: &mut H,
        failing_attempts: u32,
        deadline: f64,
    ) -> (f64, ProbeOutcome) {
        self.measure_degraded(&*host, false, false);
        let [Some(l), Some(v)] = self.readings else {
            unreachable!("a probe cycle reads both sources")
        };
        let d = self.config.probe_duration;
        let mut failed = 0u32;
        let probe = loop {
            if host.now() + d > deadline + 1e-9 {
                // No room for another attempt before the deadline.
                break None;
            }
            if failed >= failing_attempts {
                break Some(host.probe(&self.probe_name, d, PROBE_MAX_WALL.max(d)));
            }
            // This attempt fails: the probe process hangs/dies for its
            // nominal duration before the failure is detected.
            host.wait(d);
            failed += 1;
            if failed > PROBE_RETRIES {
                // Retry budget exhausted — abandon the cycle.
                break None;
            }
            host.wait(PROBE_BACKOFF);
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
        let (value, _) = self.combine().expect("both sources were read above");
        (value, outcome)
    }

    /// The chosen method's last reading plus bias; the other one's, raw,
    /// when only it was read (`true`); `None` when neither was.
    fn combine(&self) -> Option<(f64, bool)> {
        let [l, v] = self.readings;
        let (chosen, other) = match self.chosen {
            Method::LoadAverage => (l, v),
            Method::Vmstat => (v, l),
        };
        match (chosen, other) {
            (Some(raw), _) if self.config.apply_bias => {
                Some(((raw + self.bias).clamp(0.0, 1.0), false))
            }
            (Some(raw), _) => Some((raw.clamp(0.0, 1.0), false)),
            (None, Some(raw)) => Some((raw.clamp(0.0, 1.0), true)),
            (None, None) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::availability_from_load;
    use nws_faults::MAX_PROBE_ATTEMPTS;
    use nws_sim::workload::{LongRunningHog, NiceSoaker};
    use nws_sim::{Accounting, Host};
    use proptest::prelude::*;

    fn settled_host_with_soaker(seed: u64) -> Host {
        let mut h = Host::new("conundrum-like", seed);
        let rng = h.fork_rng("soaker");
        h.add_workload(Box::new(NiceSoaker::new("bg", 600.0, 0.0, rng)));
        h.advance(900.0);
        h
    }

    /// One passive measurement with no source dropped.
    fn passive<H: HostView + ?Sized>(s: &mut HybridSensor, host: &H) -> f64 {
        s.measure_degraded(host, false, false).expect("both read").0
    }

    /// One probe cycle with no failing attempt and no deadline.
    fn probed<H: ProbeHost + ?Sized>(s: &mut HybridSensor, host: &mut H) -> f64 {
        s.measure_with_probe_retries(host, 0, f64::INFINITY).0
    }

    /// A host in virtual time whose readings and probe the test sets: the
    /// load and run queue per CPU are fields, every second that passes is
    /// user time, and a probe takes `probe_wall` seconds and returns
    /// `probe`. Waits and probes only add multiples of a quarter second,
    /// so its clock is exact.
    #[derive(Debug, Clone)]
    struct Scripted {
        now: f64,
        load: f64,
        run_queue: f64,
        probe: f64,
        probe_wall: f64,
        probes: u32,
    }

    impl Scripted {
        fn new(probe_wall: f64) -> Self {
            Self {
                now: 3600.0,
                load: 1.0,
                run_queue: 1.0,
                probe: 0.75,
                probe_wall,
                probes: 0,
            }
        }
    }

    impl HostView for Scripted {
        fn load_one_minute(&self) -> f64 {
            self.load
        }
        fn accounting(&self) -> Accounting {
            Accounting {
                user: self.now,
                sys: 0.0,
                idle: 0.0,
            }
        }
        fn run_queue(&self) -> f64 {
            self.run_queue
        }
    }

    impl ProbeHost for Scripted {
        fn now(&self) -> f64 {
            self.now
        }
        fn probe(&mut self, name: &Arc<str>, cpu: f64, max_wall: f64) -> f64 {
            assert_eq!(&**name, "nws-probe");
            assert!(cpu <= self.probe_wall && self.probe_wall <= max_wall);
            self.probes += 1;
            self.now += self.probe_wall;
            self.probe
        }
        fn wait(&mut self, dt: f64) {
            self.now += dt;
        }
    }

    /// One probe cycle over a [`Scripted`] host: what it shows, the load
    /// per CPU, the probe's result, the method the cycle adopts, whether
    /// it anchors the bias (else folds it in at [`BIAS_GAIN`]), and what
    /// the biased value clamps to, if it does.
    type Cycle = (&'static str, f64, f64, Method, bool, Option<f64>);

    /// Cycles in order on one sensor, with one competitor in the run
    /// queue, so Eq. 2 reads 0.5 throughout.
    const CYCLES: [Cycle; 7] = [
        // Eq. 1 reads 0.25: 0.05 from the probe against 0.2.
        ("first probe anchors", 3.0, 0.3, LOAD, true, None),
        ("same method folds", 3.0, 0.35, LOAD, false, None),
        // Eq. 1 reads 0.5, as Eq. 2 does.
        ("a tie goes to load", 1.0, 0.0, LOAD, false, None),
        // Eq. 1 reads 0.05 and the bias stays below -0.05.
        ("clamp at 0", 19.0, 0.0, LOAD, false, Some(0.0)),
        // Eq. 1 reads 1.0: 0.4 from the probe against 0.1.
        ("flip re-anchors", 0.0, 0.6, VMSTAT, true, None),
        // Eq. 1 reads 0.8: 0.15 from the probe against 0.45.
        ("flip back re-anchors", 0.25, 0.95, LOAD, true, None),
        // Eq. 1 reads 1.0 and the bias stays above 0.
        ("clamp at 1", 0.0, 1.0, LOAD, false, Some(1.0)),
    ];
    const LOAD: Method = Method::LoadAverage;
    const VMSTAT: Method = Method::Vmstat;

    #[test]
    fn the_selection_and_bias_rule_over_a_scripted_host() {
        for apply_bias in [true, false] {
            let mut s = HybridSensor::new(HybridConfig {
                apply_bias,
                ..HybridConfig::default()
            });
            let mut h = Scripted::new(1.5);
            for (what, load, probe, method, anchors, clamp) in CYCLES {
                (h.load, h.probe) = (load, probe);
                let before = s.bias();
                let (value, outcome) = s.measure_with_probe_retries(&mut h, 0, f64::INFINITY);
                assert!(outcome.succeeded, "{what}");
                let [Some(l), Some(v)] = s.readings() else {
                    panic!("{what}: a probe cycle reads both sources");
                };
                assert_eq!((l, v), (availability_from_load(load), 0.5), "{what}");
                let raw = if method == LOAD { l } else { v };
                let bias = if anchors {
                    probe - raw
                } else {
                    before + BIAS_GAIN * ((probe - raw) - before)
                };
                assert_eq!(s.chosen_method(), method, "{what}");
                assert_eq!(s.bias(), bias, "{what}");
                assert_eq!(s.last_probe_value(), Some(probe), "{what}");
                if apply_bias {
                    let unclamped = raw + bias;
                    assert_eq!(value, clamp.unwrap_or(unclamped), "{what}: {raw} + {bias}");
                    assert_eq!(clamp.is_some(), !(0.0..=1.0).contains(&unclamped), "{what}");
                } else {
                    assert_eq!(value, raw, "{what}: the bias is not applied");
                }
                // A passive read at the same instant reports the same value.
                assert_eq!(passive(&mut s, &h), value, "{what}");
            }
            assert_eq!(s.probes_run(), CYCLES.len() as u64);
        }
    }

    #[test]
    fn bias_sees_through_nice_load() {
        // The conundrum scenario: passive methods read ~0.5, probe ~1.0,
        // bias lifts subsequent measurements to ~1.0.
        let mut h = settled_host_with_soaker(1);
        let mut s = HybridSensor::default();
        // Warm the vmstat differencing.
        passive(&mut s, &h);
        h.advance(10.0);
        let passive_value = passive(&mut s, &h);
        assert!(
            (passive_value - 0.5).abs() < 0.1,
            "passive = {passive_value}"
        );
        let with_probe = probed(&mut s, &mut h);
        assert!(with_probe > 0.9, "after probe = {with_probe}");
        assert!(s.bias() > 0.35, "bias = {}", s.bias());
        // Subsequent passive measurements carry the bias.
        h.advance(10.0);
        let next = passive(&mut s, &h);
        assert!(next > 0.9, "biased passive = {next}");
    }

    #[test]
    fn bias_can_be_disabled() {
        let mut h = settled_host_with_soaker(2);
        let mut s = HybridSensor::new(HybridConfig {
            apply_bias: false,
            ..HybridConfig::default()
        });
        passive(&mut s, &h);
        h.advance(10.0);
        let _ = probed(&mut s, &mut h);
        h.advance(10.0);
        let next = passive(&mut s, &h);
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
        passive(&mut s, &h);
        h.advance(10.0);
        let m = probed(&mut s, &mut h);
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
        passive(&mut s, &h);
        h.advance(10.0);
        let _ = probed(&mut s, &mut h);
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
        passive(&mut s, &h);
        h.advance(10.0);
        let _ = probed(&mut s, &mut h);
        h.advance(10.0);
        let m = passive(&mut s, &h);
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
                passive(&mut s, &h);
                h.advance(10.0);
                (h, s)
            };
            let (mut h, mut s) = make();
            let (twin_h, mut twin) = make();
            let passive = passive(&mut twin, &twin_h);
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
        let v = passive(&mut s, &h);
        let (l, m) = (twin.0.measure(&h), twin.1.measure(&h));
        assert_eq!(s.readings(), [Some(l), Some(m)]);
        assert_eq!(v, l.clamp(0.0, 1.0), "the default method, unbiased yet");
        h.advance(10.0);
        s.measure_degraded(&h, false, true);
        assert_eq!(s.readings(), [Some(twin.0.measure(&h)), None]);
        h.advance(10.0);
        assert!(s.measure_degraded(&h, true, true).is_none());
        assert_eq!(s.readings(), [None, None]);
        passive(&mut s, &h);
        s.reset();
        assert_eq!(s.readings(), [None, None]);
    }

    #[test]
    fn failed_attempts_consume_time_then_retry_succeeds() {
        let mut h = Scripted::new(2.0);
        let mut s = HybridSensor::default();
        let t0 = h.now;
        let (_, outcome) = s.measure_with_probe_retries(&mut h, 1, t0 + 30.0);
        assert!(outcome.succeeded);
        assert_eq!(outcome.failed_attempts, 1);
        assert_eq!((s.probes_run(), h.probes), (1, 1));
        // One failed attempt (1.5 s) + backoff (0.5 s) + the probe's wall.
        assert_eq!(h.now - t0, 1.5 + 0.5 + 2.0);
    }

    #[test]
    fn exhausted_retries_abandon_and_fall_back_to_passive() {
        let mut h = Scripted::new(2.0);
        let mut s = HybridSensor::default();
        let mut twin = s.clone();
        let t0 = h.now;
        let (value, outcome) = s.measure_with_probe_retries(&mut h, 10, t0 + 60.0);
        assert!(!outcome.succeeded);
        // Budget: initial attempt + PROBE_RETRIES retries, all failed, the
        // last without a backoff after it.
        assert_eq!(outcome.failed_attempts, 1 + PROBE_RETRIES);
        assert_eq!(h.now - t0, 3.0 * (1.5 + 0.5) - 0.5);
        assert_eq!((s.probes_run(), h.probes), (0, 0), "no probe ever ran");
        h.now = t0;
        assert_eq!(value, passive(&mut twin, &h));
    }

    #[test]
    fn deadline_abandons_before_starting_an_attempt() {
        let mut h = Scripted::new(2.0);
        let mut s = HybridSensor::default();
        let t0 = h.now;
        // Deadline too tight for even one probe attempt.
        let (_, outcome) = s.measure_with_probe_retries(&mut h, 0, t0 + 1.0);
        assert!(!outcome.succeeded);
        assert_eq!(outcome.failed_attempts, 0);
        assert_eq!(h.now, t0, "abandoning must not advance time");
        assert_eq!(h.probes, 0);
    }

    /// A probe cycle over a [`Scripted`] host spends exactly its failed
    /// attempts, each a probe duration and a backoff (less the last
    /// backoff when the retry budget runs out), plus the probe's wall;
    /// it starts an attempt only with room for it before the deadline,
    /// and abandons only when the budget or that room runs out.
    fn a_probe_cycle_spends_exact_time(
        d: f64,
        failing: u32,
        wall: f64,
        slack: f64,
    ) -> TestCaseResult {
        let mut s = HybridSensor::new(HybridConfig {
            probe_duration: d,
            ..HybridConfig::default()
        });
        let mut h = Scripted::new(wall);
        let t0 = h.now;
        let (value, outcome) = s.measure_with_probe_retries(&mut h, failing, t0 + slack);
        let (failed, ok) = (outcome.failed_attempts, outcome.succeeded);
        let exhausted = failed > PROBE_RETRIES;
        let attempts = f64::from(failed) * (d + PROBE_BACKOFF);
        let elapsed =
            attempts - if exhausted { PROBE_BACKOFF } else { 0.0 } + if ok { wall } else { 0.0 };
        prop_assert!(
            h.now - t0 == elapsed,
            "{d} s, {failing} failing, {wall} s wall: {} s",
            h.now - t0
        );
        prop_assert_eq!(h.probes, u32::from(ok));
        prop_assert_eq!(s.probes_run(), u64::from(ok));
        prop_assert!((0.0..=1.0).contains(&value));
        prop_assert!(failed <= failing.min(1 + PROBE_RETRIES));
        if failed > 0 {
            // The last failed attempt started with room before the deadline.
            prop_assert!(attempts - PROBE_BACKOFF <= slack);
        }
        if ok {
            prop_assert_eq!(failed, failing);
            prop_assert!(attempts + d <= slack);
        } else if !exhausted {
            prop_assert!(attempts + d > slack, "abandoned with room left");
        }
        if slack == f64::INFINITY {
            prop_assert_eq!(failed, failing.min(1 + PROBE_RETRIES));
            prop_assert_eq!(ok, failing <= PROBE_RETRIES);
        }
        Ok(())
    }

    /// Probe durations on the half second in `(0, 10]`, failing attempts
    /// up to one past [`MAX_PROBE_ATTEMPTS`], a probe wall from the
    /// duration up to the cap in quarter seconds, and a deadline slack in
    /// quarter seconds up to 40 s or none.
    fn probe_cycles() -> impl Strategy<Value = (f64, u32, f64, f64)> {
        (
            1u32..21,
            0..MAX_PROBE_ATTEMPTS + 2,
            0u32..33,
            prop_oneof![
                Just(f64::INFINITY),
                (0u32..161).prop_map(|q| f64::from(q) * 0.25)
            ],
        )
            .prop_map(|(halves, failing, quarters, slack)| {
                let d = f64::from(halves) * 0.5;
                let wall = (d + f64::from(quarters) * 0.25).min(PROBE_MAX_WALL.max(d));
                (d, failing, wall, slack)
            })
    }

    proptest! {
        #[test]
        fn probe_cycles_spend_exact_time_over_a_scripted_host(c in probe_cycles()) {
            a_probe_cycle_spends_exact_time(c.0, c.1, c.2, c.3)?;
        }
    }

    // The scripted-host retry property at 4,096 cases. Run with
    // `cargo test --release -p nws-sensors -- --ignored`.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        #[ignore = "4,096 cases; run with --ignored"]
        fn probe_cycles_spend_exact_time_over_a_scripted_host_at_4096_cases(
            c in probe_cycles(),
        ) {
            a_probe_cycle_spends_exact_time(c.0, c.1, c.2, c.3)?;
        }
    }

    #[test]
    fn degraded_measure_gap_and_cross_fallback() {
        let mut h = settled_host_with_soaker(11);
        let mut s = HybridSensor::default();
        passive(&mut s, &h);
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
        // Nothing dropped reports the chosen method's reading.
        h.advance(10.0);
        let (v3, crossed3) = s.measure_degraded(&h, false, false).unwrap();
        assert_eq!(
            (v3, crossed3),
            (s.readings()[0].unwrap().clamp(0.0, 1.0), false)
        );
    }

    #[test]
    fn reset_forgets_bias_and_method() {
        let mut h = settled_host_with_soaker(12);
        let mut s = HybridSensor::default();
        passive(&mut s, &h);
        h.advance(10.0);
        let _ = probed(&mut s, &mut h);
        assert!(s.bias().abs() > 0.0);
        s.reset();
        assert_eq!(s.bias(), 0.0);
        assert_eq!(s.probes_run(), 0);
        assert_eq!(s.chosen_method(), Method::default());
        assert!(s.last_probe_value().is_none());
        // The next probe re-anchors the bias outright (first-probe rule).
        h.advance(10.0);
        let _ = probed(&mut s, &mut h);
        assert_eq!(s.probes_run(), 1);
    }
}
