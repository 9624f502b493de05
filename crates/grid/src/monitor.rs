//! `GridMonitor`: the whole weather service over a fleet of hosts.
//!
//! The monitor is a client of the deterministic event engine
//! ([`nws_runtime::Engine`]): each host is one engine shard — a
//! [`Source`] producing one `SlotRecord` per measurement slot — and
//! the [`Archive`] (registry + memory + forecast service) is the commit
//! [`Stage`] absorbing those events slot-major in host-registration
//! order. Timing comes from the shared [`Cadence`]; batching, ordering,
//! and backpressure live in the engine, not here.
//!
//! Beyond the fault-free lockstep flow, the monitor threads a
//! [`FaultPlan`] through the measurement path: hosts suffer sensor
//! dropouts, failed probes (retried with backoff under a per-slot
//! deadline), outages with reboots, and delayed deliveries (a
//! [`DelayLine`] event transform redelivers held-back measurements at
//! commit time) — and every slot still resolves to either a stored
//! reading or an explicit gap in the [`Archive`].
//! Because each host's fault stream is a pure function of the plan seed
//! and the host name, and the engine commits slot-major in registration
//! order, runs are bit-identical at any `--threads` setting and any
//! batch window.
//!
//! # The ground-truth lane
//!
//! With [`GridMonitorConfig::ground_truth`] set, each host also runs the
//! paper's *test process* — a full-priority CPU-bound process launched
//! right after a slot's readings on a fixed schedule, killed at its
//! deadline — and records what it obtained as a [`TestObservation`]
//! beside the readings committed for the launch slot and the archive's
//! standing forecasts at that instant. Sensing continues while a test
//! runs (the paper's Figure 4 signature). The lane is unserved: nothing
//! from it enters the memory, the journal or the wire, and a reboot
//! during a test loses that observation with the kernel it ran on.

use crate::archive::Archive;
use crate::memory::{Memory, MemoryConfig};
use crate::registry::{Registry, ResourceId};
use crate::service::ForecastService;
use crate::wal::{CheckpointReport, SnapshotStore, Wal, WalError};
use nws_faults::{DelayLine, FaultPlan, FaultStats, HostFaults, SlotFaults};
use nws_runtime::{host_seed, Cadence, Engine, EngineConfig, Source, Stage};
use nws_sensors::{HybridConfig, HybridSensor, ProbeOutcome};
use nws_sim::{Host, HostProfile, Pid, ProcessSpec, Seconds};

/// Grid monitor configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct GridMonitorConfig {
    /// Memory retention per series.
    pub memory: MemoryConfig,
    /// Every host's hybrid sensor tunables.
    pub hybrid: HybridConfig,
    /// The ground-truth lane's schedule; `None` (the default) runs no
    /// test process.
    pub ground_truth: Option<TestSchedule>,
}

/// The test-process schedule: a run of `duration` seconds launched once
/// every `period` seconds (paper: 10 s every 10 min for Tables 1–3, 5 min
/// hourly for Table 6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TestSchedule {
    /// Seconds between launches.
    pub period: Seconds,
    /// Wall-clock length of one run.
    pub duration: Seconds,
}

/// One run of the test process: what it obtained, and what the system
/// said about the host when it started. Methods are in registration
/// order — load average, vmstat, hybrid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TestObservation {
    /// The slot right after whose readings the test launched.
    pub slot: u64,
    /// Simulation time the test process started.
    pub start: Seconds,
    /// Wall-clock length of the run.
    pub duration: Seconds,
    /// Availability the test process obtained (CPU time / wall time).
    pub value: f64,
    /// The readings committed for the launch slot — "the measurement
    /// taken most immediately before the test process executes"; `None`
    /// where that reading was lost or is still in flight.
    pub prior: [Option<f64>; 3],
    /// The archive's standing forecasts at launch: what a client asking
    /// then would have been answered.
    pub forecast: [Option<f64>; 3],
}

/// The produce side of the ground-truth lane: the schedule and the test
/// in flight.
struct Lane {
    /// Slots between launches.
    every: u64,
    duration: Seconds,
    /// The running test process and its deadline.
    running: Option<(Pid, Seconds)>,
}

impl Lane {
    /// Ends the test in flight if its deadline falls at or before
    /// `target`: advances the host to exactly the deadline, so the run
    /// lasts its duration, and returns what the test obtained.
    fn finish_due(&mut self, host: &mut Host, target: Seconds) -> Option<f64> {
        let (pid, deadline) = self.running?;
        if deadline > target + 1e-9 {
            return None;
        }
        self.running = None;
        host.advance_to(deadline);
        host.kill(pid).map(|stats| stats.occupancy())
    }

    /// Launches a test right after `slot`'s readings when the schedule
    /// is due and none is in flight; returns its start time.
    fn launch_due(&mut self, host: &mut Host, slot: u64) -> Option<Seconds> {
        if self.running.is_some() || slot % self.every != self.every / 2 {
            return None;
        }
        let start = host.now();
        let pid = host.spawn(ProcessSpec::cpu_bound("test-process"));
        self.running = Some((pid, start + self.duration));
        Some(start)
    }
}

/// A measurement held back by a delivery fault: what arrives when the
/// [`DelayLine`] redelivers it.
#[derive(Debug, Clone, Copy)]
struct PendingDelivery {
    id: ResourceId,
    t: Seconds,
    value: f64,
}

/// One engine shard: a host, its one sensor set, and its fault stream.
struct MonitoredHost {
    host: Host,
    hybrid_sensor: HybridSensor,
    ids: [ResourceId; 4], // load, vmstat, hybrid, load1 (registry order)
    /// This host's deterministic fault stream.
    faults: HostFaults,
    /// Measurements delayed in flight, redelivered at commit time.
    pending: DelayLine<PendingDelivery>,
    /// What the fault layer did to this host and how it was absorbed.
    stats: FaultStats,
    /// The ground-truth lane, when configured.
    lane: Option<Lane>,
    /// The test launched and not yet ended (its `value` is filled in
    /// when it ends).
    launched: Option<TestObservation>,
    /// Ended tests, in launch order.
    tests: Vec<TestObservation>,
}

impl Source for MonitoredHost {
    type Event = SlotRecord;

    /// Sensing side of the engine contract: advances the host simulator
    /// and takes all four readings. Reads only measurement state (host,
    /// sensors, fault stream) — never the delivery state (`pending`,
    /// `stats`) the commit stage mutates.
    fn produce(&mut self, slot: u64) -> SlotRecord {
        measure_host(self, slot)
    }
}

/// Everything one host produced for one slot: the measurement time, one
/// optional reading per series (`None` = the reading was lost), and the
/// faults that shaped it. Produced thread-side, committed sequentially.
struct SlotRecord {
    t: Seconds,
    /// load, vmstat, hybrid, load1 — `None` marks an explicit gap.
    values: [Option<f64>; 4],
    faults: SlotFaults,
    /// Probe-cycle outcome (probe slots only).
    probe: Option<ProbeOutcome>,
    /// The hybrid served this slot via the cross-sensor fallback.
    cross_fallback: bool,
    /// What the test that ended before this slot's readings obtained.
    test_ended: Option<f64>,
    /// Start of the test launched after this slot's readings.
    test_started: Option<Seconds>,
}

/// Advances one host to the given slot's measurement time and takes all
/// four readings, consulting the host's fault stream first. Touches only
/// this host's state, so batches of slots can run on different hosts
/// concurrently. With an inert fault stream every branch below reduces to
/// the fault-free measurement path, bit for bit.
fn measure_host(mh: &mut MonitoredHost, slot: u64) -> SlotRecord {
    let period = Cadence::PAPER.measurement_period;
    let probe_slot = slot.is_multiple_of(Cadence::PAPER.probe_every());
    let target = (slot + 1) as f64 * period;
    let f = mh.faults.slot(slot, probe_slot);
    if f.outage && !f.reboot {
        // Powered off: the simulator does not advance; the slot is a gap
        // on every series at its nominal timestamp.
        return SlotRecord {
            t: target,
            values: [None; 4],
            faults: f,
            probe: None,
            cross_fallback: false,
            test_ended: None,
            test_started: None,
        };
    }
    if f.reboot {
        // The host came back up at the start of this slot with a fresh
        // kernel; stateful sensors must not difference across the boot.
        // (An overrunning probe can leave the clock past the nominal boot
        // time — boot "now" in that case rather than in the past.)
        mh.host
            .power_cycle_until((target - period).max(mh.host.now()));
        mh.hybrid_sensor.reset();
        // A test in flight died with the kernel: it yields no observation.
        if let Some(lane) = &mut mh.lane {
            lane.running = None;
        }
    }
    let test_ended = (mh.lane.as_mut()).and_then(|lane| lane.finish_due(&mut mh.host, target));
    mh.host.advance_to(target);
    let t = mh.host.now();
    let (hybrid_avail, probe, cross_fallback) = if probe_slot {
        // The probe is an independent active measurement; it must finish
        // (including retries and backoff) before the next slot's time.
        let deadline = target + period;
        let (v, outcome) = mh.hybrid_sensor.measure_with_probe_retries(
            &mut mh.host,
            f.failed_probe_attempts,
            deadline,
        );
        (Some(v), Some(outcome), false)
    } else {
        match mh
            .hybrid_sensor
            .measure_degraded(&mh.host, f.drop_load, f.drop_vmstat)
        {
            Some((v, cross)) => (Some(v), None, cross),
            None => (None, None, false),
        }
    };
    // The readings the hybrid took this slot. A probe cycle reads both
    // sources to weigh them against the probe; a dropped one goes unstored.
    let [load, vmstat] = mh.hybrid_sensor.readings();
    let load = load.filter(|_| !f.drop_load);
    let vmstat = vmstat.filter(|_| !f.drop_vmstat);
    let load1 = mh.host.load_average().one_minute();
    let test_started = (mh.lane.as_mut()).and_then(|lane| lane.launch_due(&mut mh.host, slot));
    SlotRecord {
        t,
        values: [load, vmstat, hybrid_avail, Some(load1)],
        faults: f,
        probe,
        cross_fallback,
        test_ended,
        test_started,
    }
}

/// The engine's commit stage: the archive absorbing each host's slot
/// events in canonical order.
impl Stage<MonitoredHost> for Archive {
    /// Commits one host's slot: releases delay-line deliveries that are
    /// now due, then stores this slot's readings or records explicit
    /// gaps. The engine calls this slot-major in host-registration
    /// order — from `step()` and `run_steps()` alike — so the shared
    /// state evolves identically at any thread count.
    fn commit(&mut self, _shard: usize, mh: &mut MonitoredHost, slot: u64, rec: &SlotRecord) {
        mh.stats.slots += 1;
        // Late deliveries land before the current slot's readings; whether
        // the memory still accepts them depends on what arrived in between.
        let stats = &mut mh.stats;
        mh.pending.release(slot, |p| {
            if self.reading(p.id, p.t, p.value).is_stored() {
                stats.late_delivered += 1;
            } else {
                stats.late_dropped += 1;
            }
        });
        let f = &rec.faults;
        if f.reboot {
            mh.stats.reboots += 1;
        }
        // A powered-off slot's record is empty — no readings, no probe —
        // so below it resolves to four gaps like any other lost reading.
        if f.outage && !f.reboot {
            mh.stats.outage_slots += 1;
        } else if f.delay_slots > 0 {
            mh.stats.delayed += 1;
        }
        if let Some(p) = rec.probe {
            mh.stats.probe_attempts_failed += u64::from(p.failed_attempts);
            if !p.succeeded {
                mh.stats.probes_abandoned += 1;
            }
        }
        if rec.cross_fallback {
            mh.stats.fallback_cross += 1;
        }
        for (&id, v) in mh.ids.iter().zip(rec.values) {
            match v {
                // On time: stored, or refused because a late delivery
                // overtook it — never a gap.
                Some(value) if f.delay_slots == 0 => {
                    if self.reading(id, rec.t, value).is_stored() {
                        mh.stats.delivered += 1;
                    }
                }
                // Lost or in flight: the slot resolves to a gap *now*; a
                // reading in flight is redelivered by the delay line when
                // its due slot commits.
                _ => {
                    self.gap(id, rec.t);
                    mh.stats.gaps += 1;
                    if let Some(value) = v {
                        let t = rec.t;
                        mh.pending
                            .admit(slot + f.delay_slots, PendingDelivery { id, t, value });
                    }
                }
            }
        }
        // The ground-truth lane: an ended test completes the observation
        // its launch opened (a test lost to a reboot never ends, and the
        // next launch replaces it); a launch records what the archive
        // holds right after this slot's readings.
        if let Some(value) = rec.test_ended {
            if let Some(test) = mh.launched.take() {
                mh.tests.push(TestObservation { value, ..test });
            }
        }
        if let (Some(start), Some(lane)) = (rec.test_started, &mh.lane) {
            let methods = [mh.ids[0], mh.ids[1], mh.ids[2]];
            mh.launched = Some(TestObservation {
                slot,
                start,
                duration: lane.duration,
                value: f64::NAN,
                prior: methods.map(|id| {
                    let latest = self.memory().latest(id);
                    latest.filter(|p| p.time == rec.t).map(|p| p.value)
                }),
                forecast: methods.map(|id| self.forecasts().forecast(id).map(|a| a.forecast.value)),
            });
        }
    }
}

/// The weather service: hosts + sensors + registry + memory + forecasts,
/// advanced together in lockstep.
///
/// # Examples
///
/// ```
/// use nws_grid::{GridMonitor, Metric};
///
/// let mut grid = GridMonitor::ucsd(7);
/// grid.run_steps(30); // five simulated minutes on the 10 s cadence
/// let id = grid
///     .registry()
///     .lookup("gremlin", Metric::CpuAvailabilityHybrid)
///     .unwrap();
/// let answer = grid.forecasts().forecast(id).unwrap();
/// assert!((0.0..=1.0).contains(&answer.forecast.value));
/// ```
pub struct GridMonitor {
    archive: Archive,
    /// The event engine owning the per-host shards and the slot clock.
    engine: Engine<MonitoredHost>,
}

impl GridMonitor {
    /// Creates a monitor over the given host profiles, all seeded from
    /// `base_seed`, with no fault injection.
    pub fn new(profiles: &[HostProfile], base_seed: u64, config: GridMonitorConfig) -> Self {
        Self::with_faults(profiles, base_seed, config, FaultPlan::none())
    }

    /// Creates a monitor whose measurement path is subjected to the given
    /// fault plan. [`FaultPlan::none()`] reproduces the fault-free
    /// monitor bit for bit.
    pub fn with_faults(
        profiles: &[HostProfile],
        base_seed: u64,
        config: GridMonitorConfig,
        plan: FaultPlan,
    ) -> Self {
        if let Some(s) = config.ground_truth {
            assert!(s.duration > 0.0, "test duration must be positive");
            assert!(
                s.period >= s.duration,
                "test period must cover the test duration"
            );
        }
        let mut archive = Archive::new(config.memory);
        let hosts: Vec<MonitoredHost> = profiles
            .iter()
            .map(|p| MonitoredHost {
                host: p.build(host_seed(base_seed, p.name())),
                hybrid_sensor: HybridSensor::new(config.hybrid),
                ids: archive.register_host(p.name()),
                faults: plan.host_faults(p.name()),
                pending: DelayLine::new(),
                stats: FaultStats::default(),
                lane: config.ground_truth.map(|s| Lane {
                    every: (s.period / Cadence::PAPER.measurement_period)
                        .round()
                        .max(1.0) as u64,
                    duration: s.duration,
                    running: None,
                }),
                launched: None,
                tests: Vec::new(),
            })
            .collect();
        Self {
            archive,
            engine: Engine::new(hosts, EngineConfig::default()),
        }
    }

    /// The six-UCSD-host grid of the paper.
    pub fn ucsd(base_seed: u64) -> Self {
        Self::new(&HostProfile::all(), base_seed, GridMonitorConfig::default())
    }

    /// Everything the sensors have published: registry, memory and
    /// forecasts as the one unit the serving layer reads.
    pub fn archive(&self) -> &Archive {
        &self.archive
    }

    /// The name service.
    pub fn registry(&self) -> &Registry {
        self.archive.registry()
    }

    /// The measurement memory.
    pub fn memory(&self) -> &Memory {
        self.archive.memory()
    }

    /// The forecast service.
    pub fn forecasts(&self) -> &ForecastService {
        self.archive.forecasts()
    }

    /// Attaches a write-ahead log — see [`Archive::attach_journal`].
    /// Attach before the first step for a log that rebuilds the full
    /// state from genesis.
    pub fn attach_journal(&mut self, wal: Wal) {
        self.archive.attach_journal(wal);
    }

    /// The attached journal, if any — what the serving layer streams to
    /// replicas.
    pub fn journal(&self) -> Option<&Wal> {
        self.archive.journal()
    }

    /// Checkpoints the memory into `store` and rotates the journal up
    /// to the snapshot's covered offset — see [`Archive::checkpoint`].
    pub fn checkpoint(
        &mut self,
        store: &SnapshotStore,
        seq: u64,
    ) -> Result<CheckpointReport, WalError> {
        self.archive.checkpoint(store, seq)
    }

    /// Aggregate fault/survival statistics across the fleet.
    pub fn fault_stats(&self) -> FaultStats {
        let mut total = FaultStats::default();
        for mh in self.engine.sources() {
            total.merge(&mh.stats);
        }
        total
    }

    /// Measurement slots taken so far.
    pub fn slots(&self) -> u64 {
        self.engine.slot()
    }

    /// Changes the engine's batch window (slots buffered per host before
    /// the commit barrier). Output-invariant; exposed for benchmarks.
    pub fn set_batch_slots(&mut self, batch_slots: usize) {
        self.engine.set_batch_slots(batch_slots);
    }

    /// Current simulation time in seconds (slots × measurement period);
    /// the "now" a serving layer judges staleness against.
    pub fn now(&self) -> Seconds {
        Cadence::PAPER.slot_time(self.slots())
    }

    /// Advances every host by one measurement period and publishes one
    /// measurement (or explicit gap) per registered series.
    pub fn step(&mut self) {
        self.run_steps(1);
    }

    /// Runs `n` measurement slots through the event engine.
    ///
    /// The engine fans production out host-by-host across worker threads
    /// in bounded batches (host simulators, sensors, and fault streams
    /// share no state) and commits the buffered slot records to the
    /// archive slot-major in host-registration order — the canonical
    /// event order — so memory contents, gap records, and forecast
    /// state are bit-identical at any thread count and any batch
    /// window.
    pub fn run_steps(&mut self, n: u64) {
        self.engine.run(n, &mut self.archive);
    }

    /// Every monitored host with the id of its hybrid-availability
    /// series, in registration order — the rows of
    /// [`Archive::host_rows`].
    pub fn hosts(&self) -> impl ExactSizeIterator<Item = (&str, ResourceId)> {
        self.archive.hosts()
    }

    /// Every host's ended ground-truth tests in launch order, hosts in
    /// registration order — empty without
    /// [`GridMonitorConfig::ground_truth`].
    pub fn ground_truth(&self) -> impl ExactSizeIterator<Item = &[TestObservation]> {
        self.engine.sources().iter().map(|mh| mh.tests.as_slice())
    }
}

impl std::fmt::Debug for GridMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GridMonitor")
            .field("hosts", &self.engine.sources().len())
            .field("slots", &self.slots())
            .field("resources", &self.registry().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::{best_row, HostStatus};
    use crate::registry::Metric;
    use nws_faults::FaultRates;
    use std::collections::HashMap;

    #[test]
    fn registers_four_series_per_host() {
        let gm = GridMonitor::ucsd(1);
        assert_eq!(gm.registry().len(), 24);
        assert!(gm
            .registry()
            .lookup("kongo", Metric::CpuAvailabilityHybrid)
            .is_some());
    }

    #[test]
    fn steps_publish_measurements_and_forecasts() {
        let mut gm = GridMonitor::new(
            &[HostProfile::Thing1, HostProfile::Gremlin],
            7,
            GridMonitorConfig::default(),
        );
        gm.run_steps(30); // five minutes
        assert_eq!(gm.slots(), 30);
        // No ground-truth lane configured: no test observations.
        assert!(gm.ground_truth().all(<[_]>::is_empty));
        let id = gm
            .registry()
            .lookup("thing1", Metric::CpuAvailabilityHybrid)
            .expect("registered");
        assert_eq!(gm.memory().len(id), 30);
        let answer = gm.forecasts().forecast(id).expect("forecaster live");
        assert!((0.0..=1.0).contains(&answer.forecast.value));
        assert_eq!(answer.observations, 30);
        assert_eq!(answer.confidence, 1.0);
    }

    /// Where the placement rule sends the next task among `rows`.
    fn best<'r, 'a>(rows: &'r [HostStatus<'a>]) -> Option<&'r HostStatus<'a>> {
        best_row(rows.iter().map(|r| {
            let forecast = r.forecast.as_ref().map(|a| a.forecast.value);
            (r, r.degraded, forecast)
        }))
    }

    #[test]
    fn host_rows_report_every_host() {
        let mut gm = GridMonitor::ucsd(3);
        gm.run_steps(12);
        assert!((gm.now() - 120.0).abs() < 1e-9);
        let rows: Vec<_> = gm.archive().host_rows(gm.now()).collect();
        assert_eq!(rows.len(), 6);
        for h in &rows {
            assert!(h.latest.is_some(), "{} has no measurement", h.host);
            assert!(h.forecast.is_some(), "{} has no forecast", h.host);
            assert!(!h.degraded, "{} degraded on a clean run", h.host);
        }
        let best = best(&rows).expect("forecasts live");
        assert!(!best.host.is_empty());
    }

    #[test]
    fn memory_eviction_bounds_history() {
        let mut gm = GridMonitor::new(
            &[HostProfile::Gremlin],
            9,
            GridMonitorConfig {
                memory: MemoryConfig { retain: 10 },
                ..GridMonitorConfig::default()
            },
        );
        gm.run_steps(25);
        let id = gm
            .registry()
            .lookup("gremlin", Metric::LoadAverage)
            .expect("registered");
        assert_eq!(gm.memory().len(id), 10);
    }

    #[test]
    fn batched_run_matches_sequential_stepping() {
        // step() n times (always sequential) vs run_steps(n) (batched when
        // threads allow): memory contents must be bit-identical.
        let collect = |batched: bool| {
            let mut gm = GridMonitor::ucsd(11);
            if batched {
                nws_runtime::set_threads(Some(4));
                gm.run_steps(24);
                nws_runtime::set_threads(None);
            } else {
                for _ in 0..24 {
                    gm.step();
                }
            }
            let mut all = Vec::new();
            for mh in gm.engine.sources() {
                for id in mh.ids {
                    let points: Vec<(f64, f64)> = gm.memory().with_series(id, |times, values| {
                        times.zip(values.iter().copied()).collect()
                    });
                    let forecast = gm.forecasts().forecast(id).map(|a| a.forecast.value);
                    all.push((points, forecast));
                }
            }
            all
        };
        assert_eq!(collect(true), collect(false));
    }

    #[test]
    fn deterministic_across_instances() {
        let run = || {
            let mut gm = GridMonitor::ucsd(42);
            gm.run_steps(18);
            (gm.archive().host_rows(gm.now()))
                .map(|h| h.latest.expect("measured"))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn best_host_skips_non_finite_forecasts() {
        let mut gm = GridMonitor::ucsd(3);
        gm.run_steps(6);
        let mut rows: Vec<_> = gm.archive().host_rows(gm.now()).collect();
        // Corrupt one host's forecast: placement must skip it, not panic.
        rows[0].forecast.as_mut().unwrap().forecast.value = f64::NAN;
        let placed = best(&rows).expect("five finite forecasts remain");
        assert_ne!(placed.host, rows[0].host);
        // All degraded: no best host, still no panic.
        for h in &mut rows {
            h.degraded = true;
        }
        assert!(best(&rows).is_none());
    }

    #[test]
    fn none_plan_matches_fault_free_monitor_bit_for_bit() {
        let dump = |gm: &GridMonitor| {
            let mut all = Vec::new();
            for mh in gm.engine.sources() {
                for id in mh.ids {
                    let pts: Vec<(f64, f64)> = gm.memory().with_series(id, |times, values| {
                        times.zip(values.iter().copied()).collect()
                    });
                    all.push((pts, gm.forecasts().forecast(id).map(|a| a.forecast.value)));
                }
            }
            all
        };
        let mut plain = GridMonitor::ucsd(21);
        plain.run_steps(36);
        let mut none = GridMonitor::with_faults(
            &HostProfile::all(),
            21,
            GridMonitorConfig::default(),
            FaultPlan::none(),
        );
        none.run_steps(36);
        assert_eq!(dump(&plain), dump(&none));
        assert_eq!(none.fault_stats().gaps, 0);
        assert_eq!(none.fault_stats().delivered, 36 * 6 * 4);
    }

    #[test]
    fn faulted_run_is_bit_identical_across_thread_counts() {
        // The tentpole determinism guarantee: same seed + same FaultPlan
        // => identical series, gap records, and stats at any --threads.
        let run = |threads: Option<usize>| {
            nws_runtime::set_threads(threads);
            let mut gm = GridMonitor::with_faults(
                &HostProfile::all(),
                77,
                GridMonitorConfig::default(),
                FaultPlan::seeded(5, FaultRates::uniform(0.15)),
            );
            gm.run_steps(90);
            nws_runtime::set_threads(None);
            let mut series = Vec::new();
            for mh in gm.engine.sources() {
                for id in mh.ids {
                    let pts: Vec<(f64, f64)> = gm.memory().with_series(id, |times, values| {
                        times.zip(values.iter().copied()).collect()
                    });
                    series.push((pts, gm.memory().gaps(id), gm.memory().dropped(id)));
                }
            }
            (series, gm.fault_stats())
        };
        let (s1, st1) = run(Some(1));
        let (s4, st4) = run(Some(4));
        assert_eq!(s1, s4);
        assert_eq!(st1, st4);
        assert!(st1.gaps > 0, "0.15 intensity must produce gaps");
    }

    #[test]
    fn every_slot_resolves_to_reading_or_gap_under_heavy_faults() {
        let mut gm = GridMonitor::with_faults(
            &HostProfile::all(),
            13,
            GridMonitorConfig::default(),
            FaultPlan::seeded(99, FaultRates::uniform(0.4)),
        );
        gm.run_steps(120);
        let stats = gm.fault_stats();
        assert_eq!(stats.slots, 120 * 6);
        // Per host-slot, each of the 4 series resolves on time to either
        // a stored reading or an explicit gap (late arrivals resolve
        // *their* slot's gap retroactively, not the current one).
        assert_eq!(
            stats.delivered + stats.gaps,
            stats.slots * 4,
            "every series-slot must resolve on time or as a gap"
        );
        assert!(stats.reboots > 0, "outages at 0.4 intensity reboot");
        assert!(stats.probe_attempts_failed > 0);
        assert!(stats.delayed > 0);
        for mh in gm.engine.sources() {
            for id in mh.ids {
                assert!(
                    gm.memory().len(id) + gm.memory().gap_count(id) > 0,
                    "series must not be empty"
                );
            }
        }
    }

    #[test]
    fn outage_degrades_host_and_best_host_excludes_it() {
        // A plan with outages long enough to blow the staleness bound.
        let rates = FaultRates {
            outage: 0.08,
            outage_slots: (20, 30), // 200–300 s >> 120 s bound
            ..FaultRates::none()
        };
        let mut gm = GridMonitor::with_faults(
            &HostProfile::all(),
            31,
            GridMonitorConfig::default(),
            FaultPlan::seeded(8, rates),
        );
        // Step until some host is mid-outage at the current slot.
        let mut saw_degraded = false;
        for _ in 0..240 {
            gm.step();
            let rows: Vec<_> = gm.archive().host_rows(gm.now()).collect();
            if rows.iter().any(|h| h.degraded) {
                saw_degraded = true;
                for h in rows.iter().filter(|h| h.degraded) {
                    assert!(h.forecast.is_some(), "forecast survives outage");
                    let staleness = h.staleness.expect("measured before the outage");
                    assert!(staleness > 120.0, "staleness = {staleness}");
                }
                if let Some(placed) = best(&rows) {
                    assert!(!placed.degraded);
                }
                break;
            }
        }
        assert!(saw_degraded, "8%/slot outage rate over 40 min");
        assert!(gm.fault_stats().outage_slots > 0);
    }

    #[test]
    fn delayed_deliveries_arrive_late_or_drop_deterministically() {
        let rates = FaultRates {
            delay: 0.3,
            delay_slots: (1, 4),
            ..FaultRates::none()
        };
        let mut gm = GridMonitor::with_faults(
            &[HostProfile::Gremlin],
            17,
            GridMonitorConfig::default(),
            FaultPlan::seeded(2, rates),
        );
        gm.run_steps(200);
        let st = gm.fault_stats();
        assert!(st.delayed > 0, "30% delay rate over 200 slots");
        assert!(st.gaps >= st.delayed * 4, "delayed slots gap all series");
        // A delayed reading only survives if nothing newer was stored
        // first; with on-time neighbors almost always present, most drop.
        assert!(st.late_delivered + st.late_dropped > 0);
        assert!(gm.memory().total_dropped() >= st.late_dropped);
    }

    /// Runs the six UCSD hosts for `slots` under a seeded fault plan with
    /// the bias off, and counts the host-slots where the load, vmstat and
    /// hybrid readings are all stored, and how many of those store a
    /// hybrid equal to neither passive reading bit for bit.
    fn hybrid_off_its_readings(fault_seed: u64, intensity: f64, slots: u64) -> (usize, usize) {
        let config = GridMonitorConfig {
            hybrid: HybridConfig {
                apply_bias: false,
                ..HybridConfig::default()
            },
            ..GridMonitorConfig::default()
        };
        let plan = FaultPlan::seeded(fault_seed, FaultRates::uniform(intensity));
        let mut gm = GridMonitor::with_faults(&HostProfile::all(), 1998, config, plan);
        gm.run_steps(slots);
        let (mut all_three, mut off) = (0, 0);
        for mh in gm.engine.sources() {
            let [load, vmstat, hybrid] = [0, 1, 2].map(|m| {
                gm.memory().with_series(mh.ids[m], |times, values| {
                    let bits = values.iter().map(|v| v.to_bits());
                    times.map(f64::to_bits).zip(bits).collect::<HashMap<_, _>>()
                })
            });
            for (t, h) in &hybrid {
                if let (Some(l), Some(v)) = (load.get(t), vmstat.get(t)) {
                    all_three += 1;
                    off += usize::from(h != l && h != v);
                }
            }
        }
        (all_three, off)
    }

    #[test]
    fn the_hybrid_stores_one_of_the_passive_readings_stored_beside_it() {
        // Failed probe attempts and dropped sources at every rate: the
        // hybrid combines the very readings the memory holds.
        for (fault_seed, intensity) in [(5, 0.05), (5, 0.2), (11, 0.12)] {
            let (all_three, off) = hybrid_off_its_readings(fault_seed, intensity, 720);
            assert!(all_three > 1_000, "{all_three} host-slots");
            assert_eq!(
                off, 0,
                "plan {fault_seed} at {intensity}: {off} of {all_three}"
            );
        }
    }

    #[test]
    #[ignore = "wide: 32 fault seeds over a simulated six hours each"]
    fn the_hybrid_stores_one_of_the_passive_readings_over_32_fault_seeds() {
        for fault_seed in 0..32 {
            let intensity = [0.05, 0.1, 0.2, 0.4][fault_seed as usize % 4];
            let (all_three, off) = hybrid_off_its_readings(fault_seed, intensity, 2_160);
            assert!(all_three > 0, "plan {fault_seed} at {intensity}");
            assert_eq!(
                off, 0,
                "plan {fault_seed} at {intensity}: {off} of {all_three}"
            );
        }
    }

    fn lane(period: Seconds, duration: Seconds) -> GridMonitorConfig {
        GridMonitorConfig {
            ground_truth: Some(TestSchedule { period, duration }),
            ..GridMonitorConfig::default()
        }
    }

    #[test]
    fn lane_series_line_up_and_each_prior_is_its_launch_slots_reading() {
        let mut gm = GridMonitor::new(&[HostProfile::Gremlin], 9, lane(300.0, 10.0));
        gm.run_steps(180);
        let mh = &gm.engine.sources()[0];
        for id in mh.ids {
            assert_eq!(gm.memory().len(id), 180);
        }
        assert_eq!(mh.hybrid_sensor.probes_run(), 30); // one a minute
        assert!(!mh.tests.is_empty());
        for t in &mh.tests {
            assert!((0.0..=1.0).contains(&t.value));
            assert_eq!(t.duration, 10.0);
            // A clean run stores one reading per slot, in slot order.
            let at = t.slot as usize;
            for (m, &id) in mh.ids[..3].iter().enumerate() {
                assert_eq!(t.prior[m], Some(gm.memory().values(id)[at]));
                let time = gm.memory().tail(id, usize::MAX).0.nth(at);
                assert!(time.expect("a reading per slot") <= t.start);
                assert!((0.0..=1.0).contains(&gm.memory().values(id)[at]));
            }
        }
    }

    #[test]
    fn medium_schedule_runs_five_minute_tests_hourly() {
        let mut gm = GridMonitor::new(&[HostProfile::Thing1], 5, lane(3600.0, 300.0));
        gm.run_steps(750); // five minutes, then two hours
        let tests = gm.ground_truth().next().expect("one host");
        assert_eq!(tests.len(), 2);
        assert!(tests.iter().all(|t| t.duration == 300.0));
        // Sensing continued during the 5-minute tests: full series length.
        let id = gm.engine.sources()[0].ids[0];
        assert_eq!(gm.memory().len(id), 750);
    }

    #[test]
    #[should_panic(expected = "test period must cover")]
    fn invalid_schedule_panics_at_construction() {
        GridMonitor::new(&[HostProfile::Thing1], 1, lane(5.0, 10.0));
    }

    #[test]
    fn lane_under_faults_loses_tests_to_reboots_and_replays_across_threads() {
        // A 10 s test launched at slot k (k ≡ 3 mod 6) ends before slot
        // k + 1's readings — unless the host goes down at k + 1, which
        // power-cycles the kernel the test ran on.
        let slots = 720; // two hours
        let plan = FaultPlan::seeded(23, FaultRates::uniform(0.3));
        let run = |threads| {
            nws_runtime::set_threads(Some(threads));
            let mut gm = GridMonitor::with_faults(&HostProfile::all(), 5, lane(60.0, 10.0), plan);
            gm.run_steps(slots);
            nws_runtime::set_threads(None);
            gm.ground_truth().map(<[_]>::to_vec).collect::<Vec<_>>()
        };
        let observed = run(1);
        assert_eq!(observed, run(4));
        let mut lost = 0;
        for (p, tests) in HostProfile::all().iter().zip(&observed) {
            let mut stream = plan.host_faults(p.name());
            let faults: Vec<SlotFaults> = (0..slots)
                .map(|s| stream.slot(s, s.is_multiple_of(6)))
                .collect();
            let launched = (3..slots - 1)
                .step_by(6)
                .filter(|&k| !faults[k as usize].outage || faults[k as usize].reboot);
            let (kept, dropped): (Vec<u64>, Vec<u64>) =
                launched.partition(|&k| !faults[k as usize + 1].outage);
            lost += dropped.len();
            assert_eq!(tests.iter().map(|t| t.slot).collect::<Vec<_>>(), kept);
            for t in tests {
                assert!((0.0..=1.0).contains(&t.value), "{}: {}", p.name(), t.value);
            }
            for w in tests.windows(2) {
                assert!(w[0].start + w[0].duration <= w[1].start, "overlap");
            }
        }
        assert!(
            lost > 0,
            "0.3 intensity over two hours must down a host mid-test"
        );
    }
}
