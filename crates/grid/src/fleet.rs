//! Fleet-scale monitoring: synthetic hosts, one forecast each, and the
//! fleet-wide best host.
//!
//! The six-host [`GridMonitor`](crate::GridMonitor) runs full kernel
//! simulations, the fidelity the paper's tables need. A [`FleetMonitor`]
//! is the scale counterpart: it drives 10⁴–10⁵ *synthetic* hosts
//! ([`SyntheticHost`]) through the same event engine into the same
//! [`Archive`], so throughput and fleet-wide queries can be measured at
//! sizes the kernel simulation cannot reach.
//!
//! # Per-host forecasting
//!
//! Host `i` is the archive's series `ResourceId(i)`. A slot's reading
//! commits through [`Archive::reading`], a lost slot through
//! [`Archive::gap`], both stamped at the slot's end as the grid's are.
//! The archive's forecaster store runs the [`PanelSpec`] in
//! [`FleetConfig::panel`] (default: the one-member exponential smoother
//! [`PanelSpec::EwmaOnly`], gain 0.25; the benchmark runs the 1999
//! panel), one bank per host, without prediction intervals. The best-host
//! pass and [`FleetMonitor::fingerprint`] read its standing forecasts.
//!
//! # Rosters and faults
//!
//! [`FleetRoster`] picks what the hosts replay: the synthetic AR(1)
//! model, or a trace mixture (each host loops one of a set of
//! availability traces at a seeded phase offset, e.g.
//! `nws_sim::ucsd_availability_traces`). A seeded [`FaultPlan`] applies
//! per-host outage/dropout streams, and a faulted slot is a gap;
//! [`FaultPlan::none`] leaves every artifact bit-identical to no plan.
//!
//! # Best host
//!
//! No commit maintains the fleet-wide answer: [`FleetMonitor::run_steps`]
//! ends with one pass of the archive's placement rule ([`best_row`])
//! over the standing forecasts of hosts the archive does not mark
//! degraded at the fleet's clock, in host order, so a tie goes to the
//! lower index; [`FleetMonitor::best_host`] reads that answer. Racks of
//! [`FleetConfig::rack_size`] hosts (the NWS's per-LAN name servers) are
//! reported, not computed on.
//!
//! # Determinism
//!
//! A host's trajectory is a pure function of `(index, seed)`, its fault
//! stream of `(plan seed, host name)`. A commit writes only its host's
//! memory column and forecaster row (and bumps the memory's revision
//! count; no journal is attached), so the archive is a shard-local
//! stage for the fleet ([`Stage::SHARD_LOCAL`]): the engine commits one
//! host's [`FleetConfig::batch_slots`] slots back to back while its bank
//! is in cache, reaching the state the slot-major order gives. A run is
//! bit-identical at any thread count and batch size;
//! `tests/fleet_model.rs` holds every output against `batch_slots = 1`
//! and pins four fingerprints and one quality table to goldens.

use crate::archive::{best_row, Archive};
use crate::memory::MemoryConfig;
use crate::registry::ResourceId;
use nws_faults::{FaultPlan, HostFaults};
use nws_forecast::PanelSpec;
use nws_runtime::{Cadence, Engine, EngineConfig, Fnv1a, Source, Stage};
use nws_sim::{synthetic_host_name, SyntheticHost};
use std::sync::Arc;

/// Which forecaster each fleet host runs. Every host runs a bank; the
/// enum keeps its one variant because the benchmark's fleet workloads
/// name `FleetPanel::Bank`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FleetPanel {
    /// A [`PredictorBank`](nws_forecast::PredictorBank) per host, built
    /// from the spec, with dynamic best-predictor selection and
    /// per-predictor error tracking.
    Bank(PanelSpec),
}

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
            panel: FleetPanel::Bank(PanelSpec::EwmaOnly { gain: 0.25 }),
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

/// One fleet shard: a host model plus its seeded fault stream behind the
/// engine's [`Source`] contract.
#[derive(Debug)]
struct FleetShard {
    host: HostModel,
    faults: HostFaults,
}

impl Source for FleetShard {
    /// The slot's availability reading, NaN when the slot is a gap: 8
    /// bytes in the engine's per-shard arenas, where `Option<f64>`
    /// takes 16.
    type Event = f64;

    fn produce(&mut self, slot: u64) -> f64 {
        // The host's clock advances whether or not the reading survives:
        // a faulted slot, or a non-finite reading (a recorded trace can
        // carry one), loses the reading, not the time.
        let value = self.host.step();
        let sf = self.faults.slot(slot, false);
        if sf.outage || sf.drop_load {
            f64::NAN
        } else {
            value
        }
    }
}

/// The commit side: a host's reading or gap, stamped at the slot's end.
impl Stage<FleetShard> for Archive {
    /// A commit writes only its host's memory column and forecaster row
    /// (and bumps the unjournaled memory's revision count).
    const SHARD_LOCAL: bool = true;

    fn commit(&mut self, shard: usize, _source: &mut FleetShard, slot: u64, &value: &f64) {
        let (id, time) = (ResourceId(shard as u64), Cadence::PAPER.slot_time(slot + 1));
        if value.is_finite() {
            self.reading(id, time, value);
        } else {
            self.gap(id, time);
        }
    }
}

/// The fleet: an engine over host shards plus the archive it commits
/// into.
pub struct FleetMonitor {
    config: FleetConfig,
    engine: Engine<FleetShard>,
    /// One series per host, under the host's dense id; none registered.
    archive: Archive,
    /// The best host as of the end of the last run.
    best: Option<(usize, f64)>,
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
                let empty = traces.iter().any(Vec::is_empty);
                assert!(!empty, "cannot replay an empty trace");
                traces.iter().map(|t| Arc::from(t.as_slice())).collect()
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
        let (batch_slots, retain) = (config.batch_slots, config.retain);
        let FleetPanel::Bank(spec) = config.panel;
        let mut archive = Archive::with_panel(MemoryConfig { retain }, spec, None);
        archive.reserve(config.hosts);
        Self {
            config,
            engine: Engine::new(shards, EngineConfig { batch_slots }),
            archive,
            best: None,
        }
    }

    /// Runs `slots` measurement slots through the engine, then finds the
    /// best host once.
    pub fn run_steps(&mut self, slots: u64) {
        self.engine.run(slots, &mut self.archive);
        let (archive, now) = (&self.archive, Cadence::PAPER.slot_time(self.slots()));
        let hosts = archive.forecasts().standing().iter().enumerate();
        self.best = best_row(hosts.map(|(host, &forecast)| {
            let degraded = archive.degraded(ResourceId(host as u64), now);
            ((host, forecast), degraded, Some(forecast))
        }));
    }

    /// The fleet-wide best host `(index, forecast availability)` as of
    /// the last [`run_steps`](Self::run_steps): the highest forecast
    /// among hosts the archive does not mark degraded at the fleet's
    /// clock, the lowest index on ties, `None` while every host is.
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

    /// Readings committed so far: the store's observation count.
    pub fn events(&self) -> u64 {
        self.archive.forecasts().observations()
    }

    /// Slots lost to faults so far: every change the archive counted
    /// that was not a reading.
    pub fn gaps(&self) -> u64 {
        self.archive.revision() - self.events()
    }

    /// Slots completed so far.
    pub fn slots(&self) -> u64 {
        self.engine.slot()
    }

    /// One host's standing forecast in the store, refreshed by readings
    /// and gaps alike; 0.0 until its first reading.
    pub fn forecast(&self, host: usize) -> f64 {
        self.archive.forecasts().standing()[host]
    }

    /// The archive the fleet commits into, one series per host.
    pub fn archive(&self) -> &Archive {
        &self.archive
    }

    /// FNV-1a over every forecast's bits, the event count, and the best
    /// host — a cheap bit-identity pin for cross-thread/batch checks.
    /// Fault-plan runs additionally mix the gap count; fault-free runs
    /// hash exactly the PR 6 stream.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        for f in self.archive.forecasts().standing() {
            h.word(f.to_bits());
        }
        let (events, gaps) = (self.events(), self.gaps());
        h.word(events);
        if gaps > 0 {
            h.word(gaps);
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
            .field("events", &self.events())
            .field("gaps", &self.gaps())
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
        assert_eq!(fleet.archive().memory().len(ResourceId(0)), 50);
        assert_eq!(fleet.archive().memory().len(ResourceId(129)), 50);
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
    fn non_finite_trace_samples_are_gaps_on_either_panel() {
        // A recorded trace with holes, one of them leading.
        let mut trace: Vec<f64> = (0..40).map(|i| 0.3 + 0.01 * (i % 7) as f64).collect();
        trace[0] = f64::NAN;
        trace[13] = f64::INFINITY;
        trace[14] = f64::NEG_INFINITY;
        for panel in [
            FleetConfig::default().panel,
            FleetPanel::Bank(PanelSpec::Nws1999),
        ] {
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
                assert_eq!(fleet.archive().memory().len(ResourceId(h as u64)), 64);
            }
            for row in fleet.archive().forecasts().quality_table() {
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
        let table = fleet.archive().forecasts().quality_table();
        assert_eq!(
            table.len(),
            PanelSpec::Extended.members().len(),
            "one row per panel member"
        );
        // Every member scored on every host for (almost) every slot.
        for row in &table {
            assert!(row.scored > 0, "{} never scored", row.name);
            assert!(row.mae().is_finite());
            assert!(row.mse().is_finite());
        }
        // The default one-member bank reports its one member.
        let mut ewma = FleetMonitor::new(FleetConfig {
            hosts: 3,
            ..FleetConfig::default()
        });
        ewma.run_steps(5);
        let table = ewma.archive().forecasts().quality_table();
        assert_eq!(table.len(), 1);
        assert_eq!(
            table[0].scored,
            3 * 4,
            "every observe after the first is scored"
        );
    }
}
