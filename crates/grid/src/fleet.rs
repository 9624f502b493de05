//! Fleet-scale monitoring: synthetic hosts, one forecast each, and the
//! fleet-wide best host.
//!
//! The six-host [`GridMonitor`](crate::GridMonitor) runs full kernel
//! simulations — the fidelity the paper's tables need, at ~100 scheduler
//! ticks per measurement slot per host. This module is the scale
//! counterpart: a [`FleetMonitor`] drives 10⁴–10⁵ *synthetic* hosts
//! ([`SyntheticHost`]) through the same deterministic event engine and
//! the same sharded columnar [`Memory`], so engine throughput and
//! fleet-wide queries can be measured at sizes the kernel simulation
//! cannot reach.
//!
//! # Per-host forecasting
//!
//! Every fleet host carries a forecaster chosen by
//! [`FleetConfig::panel`]:
//!
//! - [`FleetPanel::Ewma`] (the default) keeps one dense `f64` per host
//!   and steps it through the canonical exponential-smoothing kernel
//!   ([`nws_forecast::ewma_step`] — the same expression
//!   `ExpSmoothing::observe` evaluates), so steady state allocates
//!   nothing and a 100k-host fleet costs 800 KB of forecast state;
//! - [`FleetPanel::Bank`] runs a full [`PredictorBank`] per host —
//!   any [`PanelSpec`] subset up to the extended panel v2 — with the
//!   same dynamic best-predictor selection and gap semantics as the
//!   per-host `ForecastService` path, plus per-predictor error tables
//!   ([`FleetMonitor::quality_table`]) for Table 2/3-style reporting at
//!   fleet scale.
//!
//! # Rosters and faults
//!
//! [`FleetRoster`] picks what the hosts replay: the synthetic AR(1)
//! model of PR 6, or a recorded trace mixture (each host loops one of a
//! set of availability traces at a seeded phase offset — the UCSD
//! profile traces via `nws_sim::ucsd_availability_traces`). A seeded
//! [`FaultPlan`] applies per-host outage/dropout streams at fleet scale:
//! a faulted slot records no measurement, window predictors age out
//! (gap semantics), and the host's last standing forecast stays in the
//! best-host race. [`FaultPlan::none`] draws nothing and leaves every
//! artifact bit-identical to the fault-free fleet.
//!
//! # Best host
//!
//! Nothing asks for the fleet-wide answer while a run is in progress, so
//! no commit maintains it: [`FleetMonitor::run_steps`] ends with one pass
//! over the per-host forecasts in host order, among hosts with at least
//! one reading, keeping the first maximum, and
//! [`FleetMonitor::best_host`] reads that cached answer in O(1). Ties
//! go to the lower host index, so the answer does not depend on commit
//! order. Hosts are also grouped into racks of
//! [`FleetConfig::rack_size`] ([`FleetMonitor::rack_count`]) — the NWS's
//! per-LAN name servers — but that grouping is reported, not computed
//! on.
//!
//! # Determinism
//!
//! Each host's trajectory is a pure function of `(index, seed)`, fault
//! streams are pure functions of `(plan seed, host name)`, and the
//! best-host pass reads the committed forecasts in host order. The
//! commit stage is shard-local ([`Stage::SHARD_LOCAL`]): a commit writes
//! only its host's memory column, forecast and bank, plus counters (the
//! memory's global revision — the fleet attaches no journal — and the
//! event and gap counts). So the engine commits each round shard-major,
//! one host's [`FleetConfig::batch_slots`] slots back to back while its
//! bank is in cache, and the result is the state the slot-major order
//! gives. A fleet run is therefore bit-identical at any thread count and
//! any batch size, which [`FleetMonitor::fingerprint`] pins cheaply and
//! `tests/fleet_model.rs` holds against `batch_slots = 1` (slot-major by
//! construction).

use crate::memory::{Memory, MemoryConfig};
use crate::registry::ResourceId;
use nws_faults::{FaultPlan, HostFaults};
use nws_forecast::{ewma_step, ErrorRow, PanelSpec, PredictorBank};
use nws_runtime::{Cadence, Engine, EngineConfig, Fnv1a, Source, Stage};
use nws_sim::{synthetic_host_name, SyntheticHost};
use std::sync::Arc;

/// Which forecaster each fleet host runs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum FleetPanel {
    /// One dense EWMA per host — the zero-allocation default,
    /// bit-identical to the PR 6 fleet.
    #[default]
    Ewma,
    /// A [`PredictorBank`] per host, built from the spec, with dynamic
    /// best-predictor selection and per-predictor error tracking.
    Bank(PanelSpec),
}

/// EWMA gain of the dense per-host availability forecaster (the
/// [`FleetPanel::Ewma`] lane).
const EWMA_GAIN: f64 = 0.25;

/// Fleet sizing and tuning.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Hosts in the fleet.
    pub hosts: usize,
    /// Hosts per rack: the grouping [`FleetMonitor::rack_count`]
    /// reports. No computation depends on it.
    pub rack_size: usize,
    /// Measurements retained per host series. Fleet memory is sized for
    /// recent-window forecasting, not day-long archives, so the default
    /// is far below the single-host default of 8 640.
    pub retain: usize,
    /// Base seed for the synthetic roster.
    pub seed: u64,
    /// Engine batch window: slots produced per commit barrier, and how
    /// many consecutive slots one host's forecaster runs before the
    /// commit moves to the next host. Outputs do not depend on it.
    pub batch_slots: usize,
    /// Per-host forecaster selection.
    pub panel: FleetPanel,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            hosts: 1024,
            rack_size: 64,
            retain: 64,
            seed: 4242,
            batch_slots: 64,
            panel: FleetPanel::Ewma,
        }
    }
}

/// What the fleet hosts replay.
#[derive(Debug, Clone, Default)]
pub enum FleetRoster {
    /// Synthetic AR(1) hosts with regime shifts (PR 6's roster).
    #[default]
    Synthetic,
    /// Each host loops one of the availability traces (host `i` takes
    /// trace `i % traces.len()` at a seeded phase offset), so a fleet of
    /// any size replays a real workload mixture.
    TraceMixture(Vec<Vec<f64>>),
}

/// The availability process one fleet shard replays.
#[derive(Debug)]
enum HostModel {
    /// Synthetic AR(1) with regime shifts.
    Synthetic(SyntheticHost),
    /// Looping replay of a recorded availability trace.
    Trace {
        levels: Arc<[f64]>,
        /// Next sample to replay.
        pos: usize,
    },
}

impl HostModel {
    fn step(&mut self) -> f64 {
        match self {
            HostModel::Synthetic(host) => host.step(),
            HostModel::Trace { levels, pos } => {
                let v = levels[*pos];
                *pos = (*pos + 1) % levels.len();
                v
            }
        }
    }
}

/// One measurement slot's outcome on one host: the availability reading,
/// or a gap when the fault plan took the slot out.
#[derive(Debug, Clone, Copy)]
pub struct FleetSample {
    /// Measured availability (meaningless when `gap`).
    value: f64,
    /// The measurement was lost (host outage or sensor dropout).
    gap: bool,
}

/// One fleet shard: a host model plus its seeded fault stream behind the
/// engine's [`Source`] contract.
#[derive(Debug)]
struct FleetShard {
    host: HostModel,
    faults: HostFaults,
}

impl Source for FleetShard {
    type Event = FleetSample;

    fn produce(&mut self, slot: u64) -> FleetSample {
        // The host's clock advances whether or not the measurement
        // survives; a faulted slot loses the reading, not the time. A
        // non-finite reading (a recorded trace can carry one) is no
        // measurement either.
        let value = self.host.step();
        let sf = self.faults.slot(slot, false);
        FleetSample {
            value,
            gap: sf.outage || sf.drop_load || !value.is_finite(),
        }
    }
}

/// Per-host forecast state: the dense EWMA lane or a bank per host.
enum ForecastLane {
    Ewma,
    Bank(Vec<PredictorBank>),
}

/// The commit side: sharded memory ingest, per-host forecasts, and the
/// event and gap counts.
struct FleetStage<'a> {
    memory: &'a mut Memory,
    forecasts: &'a mut [f64],
    lane: &'a mut ForecastLane,
    events: &'a mut u64,
    gaps: &'a mut u64,
}

impl Stage<FleetShard> for FleetStage<'_> {
    /// A commit writes its shard's memory column, forecast and bank, and
    /// bumps counters: the memory's global revision (no journal records
    /// its order) and the event and gap counts. The best host is found
    /// after the run.
    const SHARD_LOCAL: bool = true;

    fn commit(&mut self, shard: usize, _source: &mut FleetShard, slot: u64, event: &FleetSample) {
        if event.gap {
            // Gap-aware semantics: no measurement is stored, window
            // predictors age out, and level predictors (the EWMA lane)
            // keep their estimate; the host's forecast stays standing.
            if let ForecastLane::Bank(banks) = self.lane {
                banks[shard].note_gap();
            }
            *self.gaps += 1;
            return;
        }
        let availability = event.value;
        let id = ResourceId(shard as u64);
        let first_reading = self.memory.is_empty(id);
        self.memory
            .append(id, Cadence::PAPER.slot_time(slot), availability);
        let forecast = &mut self.forecasts[shard];
        match self.lane {
            ForecastLane::Ewma => {
                // The host's first reading initializes (slot 0, or later
                // when a fault plan took its early slots); the rest step
                // the shared EWMA kernel (the exact PR 6 arithmetic —
                // `ewma_step` is the expression the old inline kernel
                // evaluated).
                *forecast = if first_reading {
                    availability
                } else {
                    ewma_step(*forecast, EWMA_GAIN, availability)
                };
            }
            ForecastLane::Bank(banks) => {
                let bank = &mut banks[shard];
                bank.observe(availability);
                *forecast = bank
                    .predicted_value()
                    .expect("a bank that just observed can predict");
            }
        }
        *self.events += 1;
    }
}

/// The first maximum forecast in host order among hosts with at least
/// one reading. Strict `>` from −∞ keeps ties on the lower index, and a
/// NaN or −∞ forecast never wins.
fn best_reported(memory: &Memory, forecasts: &[f64]) -> Option<(usize, f64)> {
    let mut best = None;
    let mut key = f64::NEG_INFINITY;
    for (host, &forecast) in forecasts.iter().enumerate() {
        if forecast > key && !memory.is_empty(ResourceId(host as u64)) {
            best = Some((host, forecast));
            key = forecast;
        }
    }
    best
}

/// The fleet: an engine over host shards plus the state the commit
/// stage maintains.
pub struct FleetMonitor {
    config: FleetConfig,
    engine: Engine<FleetShard>,
    memory: Memory,
    /// Per-host availability forecast (dense; both lanes keep it).
    forecasts: Vec<f64>,
    lane: ForecastLane,
    /// The best host as of the end of the last run.
    best: Option<(usize, f64)>,
    events: u64,
    /// Slots lost to the fault plan (0 without one).
    gaps: u64,
}

impl FleetMonitor {
    /// Builds the default fleet: synthetic roster, no faults.
    ///
    /// # Panics
    ///
    /// Panics if `hosts` or `rack_size` is zero.
    pub fn new(config: FleetConfig) -> Self {
        Self::with_roster(config, FleetRoster::Synthetic, &FaultPlan::none())
    }

    /// Builds the fleet over a roster with a fault plan. Host `i`'s fault
    /// stream derives from its display name
    /// ([`synthetic_host_name`]), so the same plan hits the same hosts at
    /// any fleet size ordering.
    ///
    /// # Panics
    ///
    /// Panics if `hosts` or `rack_size` is zero, or the trace mixture is
    /// empty / contains an empty trace.
    pub fn with_roster(config: FleetConfig, roster: FleetRoster, faults: &FaultPlan) -> Self {
        assert!(config.hosts > 0, "fleet needs at least one host");
        assert!(config.rack_size > 0, "racks must hold at least one host");
        let traces: Vec<Arc<[f64]>> = match &roster {
            FleetRoster::Synthetic => Vec::new(),
            FleetRoster::TraceMixture(traces) => {
                assert!(!traces.is_empty(), "trace mixture needs at least one trace");
                traces
                    .iter()
                    .map(|t| {
                        assert!(!t.is_empty(), "cannot replay an empty trace");
                        Arc::from(t.as_slice())
                    })
                    .collect()
            }
        };
        let shards: Vec<FleetShard> = (0..config.hosts as u64)
            .map(|i| {
                let host = if traces.is_empty() {
                    HostModel::Synthetic(SyntheticHost::new(i, config.seed))
                } else {
                    let levels = Arc::clone(&traces[(i as usize) % traces.len()]);
                    // Seeded phase offset, so hosts sharing a trace
                    // don't move in lockstep.
                    let seed = SyntheticHost::index_seed(i, config.seed);
                    let pos = (seed % levels.len() as u64) as usize;
                    HostModel::Trace { levels, pos }
                };
                FleetShard {
                    host,
                    faults: faults.host_faults(&synthetic_host_name(i as usize)),
                }
            })
            .collect();
        let engine = Engine::new(
            shards,
            EngineConfig {
                batch_slots: config.batch_slots,
            },
        );
        let lane = match config.panel {
            FleetPanel::Ewma => ForecastLane::Ewma,
            FleetPanel::Bank(spec) => ForecastLane::Bank(vec![spec.build(); config.hosts]),
        };
        Self {
            config,
            engine,
            memory: Memory::new(MemoryConfig {
                retain: config.retain,
            }),
            forecasts: vec![0.0; config.hosts],
            lane,
            best: None,
            events: 0,
            gaps: 0,
        }
    }

    /// Runs `slots` measurement slots through the engine, then finds the
    /// best host once.
    pub fn run_steps(&mut self, slots: u64) {
        let mut stage = FleetStage {
            memory: &mut self.memory,
            forecasts: &mut self.forecasts,
            lane: &mut self.lane,
            events: &mut self.events,
            gaps: &mut self.gaps,
        };
        self.engine.run(slots, &mut stage);
        self.best = best_reported(&self.memory, &self.forecasts);
    }

    /// The fleet-wide best host `(index, forecast availability)` as of
    /// the end of the last [`run_steps`](Self::run_steps): the highest
    /// forecast among hosts with at least one reading, the lowest index
    /// on ties, `None` while no host has reported. An O(1) read of the
    /// answer that run computed.
    pub fn best_host(&self) -> Option<(usize, f64)> {
        self.best
    }

    /// Host count.
    pub fn hosts(&self) -> usize {
        self.config.hosts
    }

    /// Rack count: hosts in racks of [`FleetConfig::rack_size`], the
    /// last one possibly partial.
    pub fn rack_count(&self) -> usize {
        self.config.hosts.div_ceil(self.config.rack_size)
    }

    /// Events committed so far (gap slots are not events).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Measurement slots lost to the fault plan so far.
    pub fn gaps(&self) -> u64 {
        self.gaps
    }

    /// Slots completed so far.
    pub fn slots(&self) -> u64 {
        self.engine.slot()
    }

    /// The current availability forecast for one host; it stands through
    /// gaps. It is 0.0 until the host's first reading, and such a host
    /// never wins [`best_host`](Self::best_host).
    pub fn forecast(&self, host: usize) -> f64 {
        self.forecasts[host]
    }

    /// The measurement store.
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// The fleet-wide per-predictor error table: every host bank's rows
    /// merged exactly (raw error sums, in panel order). Empty on the
    /// [`FleetPanel::Ewma`] lane, which tracks no per-member errors.
    pub fn quality_table(&self) -> Vec<ErrorRow> {
        let ForecastLane::Bank(banks) = &self.lane else {
            return Vec::new();
        };
        let (first, rest) = banks.split_first().expect("a fleet has at least one host");
        let mut merged = first.error_table();
        for bank in rest {
            bank.merge_errors_into(&mut merged);
        }
        merged
    }

    /// FNV-1a over every forecast's bits, the event count, and the best
    /// host — a cheap bit-identity pin for cross-thread/batch checks.
    /// Fault-plan runs additionally mix the gap count; fault-free runs
    /// hash exactly the PR 6 stream.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        for f in &self.forecasts {
            h.word(f.to_bits());
        }
        h.word(self.events);
        if self.gaps > 0 {
            h.word(self.gaps);
        }
        if let Some((host, key)) = self.best_host() {
            h.word(host as u64);
            h.word(key.to_bits());
        }
        h.finish()
    }
}

impl std::fmt::Debug for FleetMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetMonitor")
            .field("hosts", &self.config.hosts)
            .field("racks", &self.rack_count())
            .field("slots", &self.engine.slot())
            .field("events", &self.events)
            .field("gaps", &self.gaps)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nws_faults::FaultRates;

    #[test]
    fn fleet_runs_and_serves_best_host() {
        let mut fleet = FleetMonitor::new(FleetConfig {
            hosts: 130,
            rack_size: 32,
            ..FleetConfig::default()
        });
        assert_eq!(fleet.rack_count(), 5, "129/32 racks plus the remainder");
        fleet.run_steps(50);
        assert_eq!(fleet.events(), 130 * 50);
        assert_eq!(fleet.slots(), 50);
        let (best, key) = fleet.best_host().expect("fleet has hosts");
        assert!(best < 130);
        assert!((0.0..=1.0).contains(&key));
        // The answer really is the global argmax of the forecasts.
        let scan = (0..130)
            .map(|h| (h, fleet.forecast(h)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(b.0.cmp(&a.0)))
            .unwrap();
        assert_eq!((best, key), scan);
        // Memory holds every host's series under its dense id.
        assert_eq!(fleet.memory().len(ResourceId(0)), 50);
        assert_eq!(fleet.memory().len(ResourceId(129)), 50);
    }

    #[test]
    fn fleet_is_bit_identical_across_threads_and_batches() {
        let run = |threads: usize, batch: usize| {
            nws_runtime::set_threads(Some(threads));
            let mut fleet = FleetMonitor::new(FleetConfig {
                hosts: 96,
                rack_size: 16,
                batch_slots: batch,
                ..FleetConfig::default()
            });
            fleet.run_steps(75);
            nws_runtime::set_threads(None);
            fleet.fingerprint()
        };
        let reference = run(1, 64);
        for threads in [1, 4] {
            for batch in [1, 16, 64] {
                assert_eq!(
                    run(threads, batch),
                    reference,
                    "threads={threads} batch={batch}"
                );
            }
        }
    }

    #[test]
    fn ewma_only_bank_matches_the_dense_ewma_lane_bit_for_bit() {
        let base = FleetConfig {
            hosts: 40,
            rack_size: 8,
            ..FleetConfig::default()
        };
        // Fault-free, and under a plan that takes slot 0 from some hosts:
        // their first reading arrives later and must still initialize.
        let faulted = FaultPlan::seeded(3, FaultRates::uniform(0.3));
        for faults in [FaultPlan::none(), faulted] {
            let run = |panel| {
                let config = FleetConfig { panel, ..base };
                let mut fleet = FleetMonitor::with_roster(config, FleetRoster::Synthetic, &faults);
                fleet.run_steps(1);
                assert_eq!(fleet.gaps() > 0, !faults.is_none());
                fleet.run_steps(59);
                fleet
            };
            let dense = run(FleetPanel::Ewma);
            let bank = run(FleetPanel::Bank(PanelSpec::EwmaOnly { gain: EWMA_GAIN }));
            for h in 0..40 {
                assert_eq!(
                    dense.forecast(h).to_bits(),
                    bank.forecast(h).to_bits(),
                    "host {h}"
                );
            }
            assert_eq!(dense.best_host(), bank.best_host());
        }
    }

    #[test]
    fn panel_fleet_is_bit_identical_across_threads_and_batches() {
        // The full satellite matrix: panel-backed fleet over a trace
        // mixture with a live fault plan, threads {1, 4} × batch {1, 64}.
        let traces = vec![
            (0..97)
                .map(|i| 0.3 + 0.4 * ((i % 13) as f64 / 13.0))
                .collect::<Vec<f64>>(),
            (0..61)
                .map(|i| 0.8 - 0.5 * ((i % 7) as f64 / 7.0))
                .collect(),
            (0..41)
                .map(|i| 0.5 + 0.3 * ((i % 5) as f64 / 5.0))
                .collect(),
        ];
        let run = |threads: usize, batch: usize| {
            nws_runtime::set_threads(Some(threads));
            let mut fleet = FleetMonitor::with_roster(
                FleetConfig {
                    hosts: 72,
                    rack_size: 16,
                    batch_slots: batch,
                    panel: FleetPanel::Bank(PanelSpec::Extended),
                    ..FleetConfig::default()
                },
                FleetRoster::TraceMixture(traces.clone()),
                &FaultPlan::seeded(0xFEE7, FaultRates::uniform(0.15)),
            );
            fleet.run_steps(80);
            nws_runtime::set_threads(None);
            assert!(fleet.gaps() > 0, "the fault plan must bite");
            (fleet.fingerprint(), fleet.events(), fleet.gaps())
        };
        let reference = run(1, 64);
        for threads in [1, 4] {
            for batch in [1, 64] {
                assert_eq!(
                    run(threads, batch),
                    reference,
                    "threads={threads} batch={batch}"
                );
            }
        }
    }

    #[test]
    fn fault_free_plan_is_bit_identical_to_no_plan() {
        let cfg = FleetConfig {
            hosts: 48,
            rack_size: 16,
            ..FleetConfig::default()
        };
        let mut a = FleetMonitor::new(cfg);
        let mut b = FleetMonitor::with_roster(cfg, FleetRoster::Synthetic, &FaultPlan::none());
        a.run_steps(40);
        b.run_steps(40);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(b.gaps(), 0);
    }

    #[test]
    fn trace_roster_replays_the_mixture() {
        let traces = vec![vec![0.25; 10], vec![0.75; 10]];
        let mut fleet = FleetMonitor::with_roster(
            FleetConfig {
                hosts: 8,
                rack_size: 4,
                ..FleetConfig::default()
            },
            FleetRoster::TraceMixture(traces),
            &FaultPlan::none(),
        );
        fleet.run_steps(30);
        // Even hosts replay the 0.25 trace, odd hosts the 0.75 trace;
        // constant traces pin the EWMA exactly.
        for h in 0..8 {
            let want = if h % 2 == 0 { 0.25 } else { 0.75 };
            assert!(
                (fleet.forecast(h) - want).abs() < 1e-12,
                "host {h}: {}",
                fleet.forecast(h)
            );
        }
        let (best, key) = fleet.best_host().unwrap();
        assert_eq!(best, 1, "first odd host wins on the low-index tie-break");
        assert!((key - 0.75).abs() < 1e-12);
    }

    #[test]
    fn non_finite_trace_samples_are_gaps_on_both_lanes() {
        // A recorded trace with holes, one of them leading.
        let mut trace: Vec<f64> = (0..40).map(|i| 0.3 + 0.01 * (i % 7) as f64).collect();
        trace[0] = f64::NAN;
        trace[13] = f64::INFINITY;
        trace[14] = f64::NEG_INFINITY;
        for panel in [FleetPanel::Ewma, FleetPanel::Bank(PanelSpec::Nws1999)] {
            let mut fleet = FleetMonitor::with_roster(
                FleetConfig {
                    hosts: 6,
                    rack_size: 4,
                    panel,
                    ..FleetConfig::default()
                },
                FleetRoster::TraceMixture(vec![trace.clone()]),
                &FaultPlan::none(),
            );
            fleet.run_steps(80);
            assert_eq!(
                fleet.gaps(),
                6 * 6,
                "three holes a lap, two laps, six hosts"
            );
            assert_eq!(fleet.events() + fleet.gaps(), 6 * 80);
            for h in 0..6 {
                assert!(fleet.forecast(h).is_finite(), "{panel:?} host {h}");
                assert_eq!(fleet.memory().len(ResourceId(h as u64)), 64);
            }
            for row in fleet.quality_table() {
                assert!(row.mae().is_finite(), "{} was poisoned", row.name);
            }
        }
    }

    #[test]
    fn quality_table_aggregates_across_hosts() {
        let mut fleet = FleetMonitor::with_roster(
            FleetConfig {
                hosts: 12,
                rack_size: 4,
                panel: FleetPanel::Bank(PanelSpec::Extended),
                ..FleetConfig::default()
            },
            FleetRoster::Synthetic,
            &FaultPlan::none(),
        );
        fleet.run_steps(120);
        let table = fleet.quality_table();
        assert_eq!(
            table.len(),
            PanelSpec::Extended.build().panel_len(),
            "one row per panel member"
        );
        // Every member scored on every host for (almost) every slot.
        for row in &table {
            assert!(row.scored > 0, "{} never scored", row.name);
            assert!(row.mae().is_finite());
            assert!(row.mse().is_finite());
        }
        // EWMA lane tracks no per-member errors.
        let mut ewma = FleetMonitor::new(FleetConfig::default());
        ewma.run_steps(5);
        assert!(ewma.quality_table().is_empty());
    }
}
