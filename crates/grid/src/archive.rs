//! The archive: name service + persistent memory + forecaster, as the
//! one unit sensors publish into.
//!
//! The paper's claim is about *error* — measurement error against
//! forecast error — so what is forecast must be exactly what is stored.
//! [`Archive`] is the only code that touches the [`Memory`] and the
//! [`ForecastService`] together, and it has two transitions:
//!
//! - a **reading** reaches the forecaster iff the memory stored it
//!   (a late, duplicate or non-finite one reaches neither);
//! - a **gap** reaches both.
//!
//! A primary commits through [`Archive::reading`] / [`Archive::gap`],
//! which journal what they did; a replica, or a recovery from genesis,
//! runs [`Archive::apply`] over that journal — the same transitions
//! without the journaling — and so ends in the same state by
//! construction, forecaster included. Everything that reads the pair
//! together goes through here as well: the change counter
//! ([`Archive::revision`]), the per-host status rows
//! ([`Archive::host_rows`]) and the placement rule ([`best_row`]).

use crate::memory::{Memory, MemoryConfig, StoreOutcome};
use crate::registry::{Metric, Registry, ResourceId};
use crate::service::{ForecastAnswer, ForecastService};
use crate::wal::{CheckpointReport, SnapshotStore, Wal, WalError, WalRecord};
use nws_timeseries::Seconds;

/// Two-sided coverage of the prediction intervals an archive's
/// forecasts carry.
const INTERVAL_COVERAGE: f64 = 0.9;

/// A host whose hybrid forecast is missing, or staler than this many
/// seconds, is *degraded*: still reported, never placed on.
pub const STALENESS_BOUND: Seconds = 120.0;

/// One host as of some instant: what a snapshot row is built from.
#[derive(Debug, Clone)]
pub struct HostStatus<'a> {
    /// Host name.
    pub host: &'a str,
    /// Latest hybrid availability measurement.
    pub latest: Option<f64>,
    /// Standing hybrid availability forecast, its staleness judged
    /// against the instant asked about.
    pub forecast: Option<ForecastAnswer>,
    /// No forecast, or one staler than [`STALENESS_BOUND`].
    pub degraded: bool,
}

/// The placement rule: among rows that are not degraded and carry a
/// finite forecast, the highest forecast wins. Rows come as
/// `(row, degraded, forecast)`, whatever the row type — stale and
/// non-finite forecasts are skipped, not trusted or panicked over.
pub fn best_row<R>(rows: impl IntoIterator<Item = (R, bool, Option<f64>)>) -> Option<R> {
    rows.into_iter()
        .filter(|(_, degraded, _)| !degraded)
        .filter_map(|(row, _, f)| f.filter(|f| f.is_finite()).map(|f| (row, f)))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(row, _)| row)
}

/// Registry, memory and forecast service, kept in step.
#[derive(Debug)]
pub struct Archive {
    registry: Registry,
    memory: Memory,
    forecasts: ForecastService,
    /// The hybrid-availability series of every host registered through
    /// [`Archive::register_host`], in registration order.
    hosts: Vec<ResourceId>,
}

impl Archive {
    /// An empty archive retaining `memory.retain` points per series.
    pub fn new(memory: MemoryConfig) -> Self {
        Self {
            registry: Registry::new(),
            memory: Memory::new(memory),
            forecasts: ForecastService::new(INTERVAL_COVERAGE),
            hosts: Vec::new(),
        }
    }

    /// Registers one series.
    pub fn register(&mut self, host: impl Into<String>, metric: Metric) -> ResourceId {
        self.registry.register(host, metric)
    }

    /// Registers a monitored host's four CPU series — load, vmstat,
    /// hybrid, 1-minute load average, always in that order, so a
    /// replica registering the same hosts resolves the ids in the
    /// primary's journal identically.
    pub fn register_host(&mut self, host: &str) -> [ResourceId; 4] {
        let ids = [
            self.registry.register(host, Metric::CpuAvailabilityLoad),
            self.registry.register(host, Metric::CpuAvailabilityVmstat),
            self.registry.register(host, Metric::CpuAvailabilityHybrid),
            self.registry.register(host, Metric::LoadAverage),
        ];
        // Listed once, however its series came to be registered.
        if !self.hosts.contains(&ids[2]) {
            self.hosts.push(ids[2]);
        }
        ids
    }

    /// Every registered host with the id of its hybrid-availability
    /// series, in registration order.
    pub fn hosts(&self) -> impl ExactSizeIterator<Item = (&str, ResourceId)> {
        self.hosts.iter().map(|&id| {
            let info = self.registry.info(id).expect("hosts are registered");
            (info.host.as_str(), id)
        })
    }

    /// Commits one reading: stored, then forecast — or neither.
    pub fn reading(&mut self, id: ResourceId, time: Seconds, value: f64) -> StoreOutcome {
        self.reading_as(id, time, value, value)
    }

    /// [`Archive::reading`] for a series forecast on another scale than
    /// it is stored on (link bandwidth: stored in bytes/second,
    /// forecast as a fraction of capacity): the forecaster observes
    /// `observed` iff the memory stored `stored`.
    pub fn reading_as(
        &mut self,
        id: ResourceId,
        time: Seconds,
        stored: f64,
        observed: f64,
    ) -> StoreOutcome {
        let outcome = self.memory.append(id, time, stored);
        if outcome.is_stored() {
            self.forecasts.observe(id, time, observed);
        }
        outcome
    }

    /// Commits one gap: the slot at `time` produced no measurement for
    /// this series, and both the memory and the forecaster are told.
    pub fn gap(&mut self, id: ResourceId, time: Seconds) {
        self.memory.record_gap(id, time);
        self.forecasts.note_gap(id, time);
    }

    /// Applies one journaled record without journaling it again: the
    /// reading, gap or counted drop a primary committed. An archive fed
    /// a primary's whole journal in order equals the primary —
    /// [`Memory::fingerprint`], every forecast, [`Archive::revision`].
    pub fn apply(&mut self, rec: &WalRecord) {
        if self.memory.replay(rec) {
            match *rec {
                WalRecord::Append { id, time, value } => self.forecasts.observe(id, time, value),
                WalRecord::Gap { id, time } => self.forecasts.note_gap(id, time),
                WalRecord::Drop { .. } => {}
            }
        }
    }

    /// Change counter over everything archived: any stored reading or
    /// gap moves it, nothing else does. A cached answer computed at one
    /// value stays right until the value (or the clock staleness is
    /// judged against) moves.
    pub fn revision(&self) -> u64 {
        (self.memory.global_revision()).wrapping_add(self.forecasts.global_revision())
    }

    /// Every host's latest hybrid measurement and standing forecast,
    /// with staleness — and so `degraded` — judged against `now`.
    pub fn host_rows(&self, now: Seconds) -> impl ExactSizeIterator<Item = HostStatus<'_>> {
        self.hosts().map(move |(host, id)| {
            let forecast = self.forecasts.forecast_at(id, now);
            HostStatus {
                host,
                latest: self.memory.latest(id).map(|p| p.value),
                degraded: forecast
                    .as_ref()
                    .is_none_or(|a| a.staleness > STALENESS_BOUND),
                forecast,
            }
        })
    }

    /// The name service.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The measurement memory.
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// The forecast service.
    pub fn forecasts(&self) -> &ForecastService {
        &self.forecasts
    }

    /// Attaches a write-ahead log: every reading, gap and counted drop
    /// committed from here on is journaled in commit order (see
    /// [`crate::wal`]). Attach before the first commit for a log that
    /// rebuilds the archive from genesis.
    pub fn attach_journal(&mut self, wal: Wal) {
        self.memory.attach_journal(wal);
    }

    /// The attached journal, if any — what a primary streams to its
    /// replicas.
    pub fn journal(&self) -> Option<&Wal> {
        self.memory.journal()
    }

    /// Checkpoints the memory into `store` and rotates the journal up
    /// to the offset the snapshot covers — see [`Memory::checkpoint`].
    /// The snapshot holds the memory only: restoring it brings back
    /// every stored measurement, gap and counter, but not the
    /// forecaster, whose state is rebuilt only by [`Archive::apply`]
    /// over a journal that reaches back to genesis.
    pub fn checkpoint(
        &mut self,
        store: &SnapshotStore,
        seq: u64,
    ) -> Result<CheckpointReport, WalError> {
        self.memory.checkpoint(store, seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hosts_register_four_series_in_order_once() {
        let mut a = Archive::new(MemoryConfig { retain: 16 });
        let ids = a.register_host("thing1");
        assert_eq!(ids, [0, 1, 2, 3].map(ResourceId));
        assert_eq!(a.register_host("thing1"), ids, "idempotent");
        let gremlin = a.register_host("gremlin");
        assert_eq!(a.registry().len(), 8);
        // A host one of whose series was registered singly, before another
        // host, is still listed when it registers as a host.
        let lone = a.register("kongo", Metric::CpuAvailabilityHybrid);
        let beowulf = a.register_host("beowulf");
        let kongo = a.register_host("kongo");
        assert_eq!((kongo[2], a.register_host("kongo")), (lone, kongo));
        let hosts: Vec<_> = a.hosts().collect();
        let expected = [("thing1", ids[2]), ("gremlin", gremlin[2])];
        assert_eq!(hosts[..2], expected);
        assert_eq!(hosts[2..], [("beowulf", beowulf[2]), ("kongo", lone)]);
    }

    #[test]
    fn rows_degrade_on_staleness_and_placement_skips_them() {
        let mut a = Archive::new(MemoryConfig { retain: 16 });
        let [.., fresh, _] = a.register_host("fresh");
        let [.., stale, _] = a.register_host("stale");
        a.register_host("cold");
        a.reading(stale, 10.0, 0.9);
        a.reading(fresh, 100.0, 0.4);
        let rows: Vec<_> = a.host_rows(100.0 + STALENESS_BOUND).collect();
        let seen: Vec<_> = rows.iter().map(|r| (r.host, r.degraded)).collect();
        assert_eq!(seen, [("fresh", false), ("stale", true), ("cold", true)]);
        assert_eq!(rows[1].latest, Some(0.9), "degraded rows still report");
        assert!(rows[2].forecast.is_none() && rows[2].latest.is_none());
        let key = |r: &HostStatus<'_>| r.forecast.as_ref().map(|f| f.forecast.value);
        let best = best_row(rows.iter().map(|r| (r, r.degraded, key(r))));
        assert_eq!(best.expect("one fresh host").host, "fresh");
        // Non-finite forecasts are skipped; nothing left means no host.
        assert_eq!(best_row([("nan", false, Some(f64::NAN))]), None);
        assert_eq!(
            best_row([("a", false, Some(0.2)), ("b", false, Some(0.7))]),
            Some("b")
        );
        assert_eq!(best_row([("a", true, Some(0.2)), ("b", false, None)]), None);
    }
}
