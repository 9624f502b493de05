//! The query cache: revision-validated answers for the hot read path.
//!
//! Between two sensor ticks nothing about a forecast can change, so the
//! server remembers the encoded answer it gave and the revision counter
//! it was computed at. A later query compares one integer: equal means
//! serve the cached reply (a hit), moved means recompute (a miss after
//! an invalidation). The grid bumps the counters on every measurement
//! append and recorded gap — see `Memory::revision` and
//! `ForecastService::revision` in `nws-grid`.

use nws_grid::ResourceId;
use nws_wire::{ForecastReply, SnapshotReply};
use std::collections::BTreeMap;

/// One cached per-resource forecast answer.
#[derive(Debug, Clone)]
struct CachedForecast {
    /// `ForecastService` revision the answer was computed at.
    revision: u64,
    reply: ForecastReply,
}

/// Revision-validated cache of forecast and snapshot answers, plus the
/// hit/miss accounting the `Stats` request reports.
#[derive(Debug, Default)]
pub struct QueryCache {
    forecasts: BTreeMap<ResourceId, CachedForecast>,
    /// Whole-grid snapshot, keyed by the monitor-wide revision.
    snapshot: Option<(u64, SnapshotReply)>,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

impl QueryCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up the cached forecast for a resource if it is still
    /// current at `revision`; stale entries are discarded (and counted
    /// as invalidations). Hands back a reference, so a cached answer is
    /// encoded without cloning its strings.
    pub fn forecast_ref(&mut self, id: ResourceId, revision: u64) -> Option<&ForecastReply> {
        if self
            .forecasts
            .get(&id)
            .is_some_and(|c| c.revision == revision)
        {
            self.hits += 1;
            return self.stored_forecast(id);
        }
        if self.forecasts.remove(&id).is_some() {
            self.invalidations += 1;
        }
        self.misses += 1;
        None
    }

    /// The stored forecast for a resource, if any, without revision
    /// validation or hit/miss accounting. For servers that have just
    /// probed (or just stored) and need the reference back.
    pub fn stored_forecast(&self, id: ResourceId) -> Option<&ForecastReply> {
        self.forecasts.get(&id).map(|c| &c.reply)
    }

    /// Stores a freshly computed forecast answer.
    pub fn store_forecast(&mut self, id: ResourceId, revision: u64, reply: ForecastReply) {
        self.forecasts
            .insert(id, CachedForecast { revision, reply });
    }

    /// Looks up the cached snapshot if it is still current, by
    /// reference, so read paths that only inspect the rows (best-host
    /// selection) never clone the whole reply.
    pub fn snapshot_ref(&mut self, revision: u64) -> Option<&SnapshotReply> {
        if self
            .snapshot
            .as_ref()
            .is_some_and(|(rev, _)| *rev == revision)
        {
            self.hits += 1;
            return self.stored_snapshot();
        }
        if self.snapshot.take().is_some() {
            self.invalidations += 1;
        }
        self.misses += 1;
        None
    }

    /// The stored snapshot, if any, without revision validation or
    /// hit/miss accounting. For servers that have just probed (or just
    /// stored) and need the reference back.
    pub fn stored_snapshot(&self) -> Option<&SnapshotReply> {
        self.snapshot.as_ref().map(|(_, reply)| reply)
    }

    /// Stores a freshly computed snapshot.
    pub fn store_snapshot(&mut self, revision: u64, reply: SnapshotReply) {
        self.snapshot = Some((revision, reply));
    }

    /// Answers served from cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Answers that had to be computed.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Cached answers discarded because their revision moved.
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(host: &str, value: f64) -> ForecastReply {
        ForecastReply {
            host: host.into(),
            value,
            method: "mean".into(),
            interval: None,
            observations: 1,
            staleness: 0.0,
            confidence: 1.0,
        }
    }

    #[test]
    fn hit_while_revision_holds_then_invalidate() {
        let mut c = QueryCache::new();
        let id = ResourceId(3);
        assert!(c.forecast_ref(id, 5).is_none(), "cold cache misses");
        c.store_forecast(id, 5, reply("kongo", 0.5));
        assert_eq!(c.forecast_ref(id, 5).expect("hit").value, 0.5);
        assert_eq!(c.forecast_ref(id, 5).expect("hit").value, 0.5);
        assert_eq!((c.hits(), c.misses(), c.invalidations()), (2, 1, 0));
        // Revision moved: the entry is discarded, not served.
        assert!(c.forecast_ref(id, 6).is_none());
        assert_eq!((c.hits(), c.misses(), c.invalidations()), (2, 2, 1));
        assert!(c.stored_forecast(id).is_none());
        // And it stays gone (no double-invalidation accounting).
        assert!(c.forecast_ref(id, 6).is_none());
        assert_eq!((c.hits(), c.misses(), c.invalidations()), (2, 3, 1));
    }

    #[test]
    fn snapshot_cache_follows_the_same_protocol() {
        let mut c = QueryCache::new();
        let snap = SnapshotReply {
            time: 120.0,
            hosts: Vec::new(),
        };
        assert!(c.snapshot_ref(1).is_none());
        c.store_snapshot(1, snap.clone());
        assert_eq!(c.snapshot_ref(1).expect("hit"), &snap);
        assert!(c.snapshot_ref(2).is_none(), "stale snapshot invalidated");
        assert_eq!((c.hits(), c.misses(), c.invalidations()), (1, 2, 1));
    }

    #[test]
    fn resources_are_cached_independently() {
        let mut c = QueryCache::new();
        c.store_forecast(ResourceId(1), 10, reply("a", 0.1));
        c.store_forecast(ResourceId(2), 20, reply("b", 0.2));
        assert_eq!(c.forecast_ref(ResourceId(1), 10).expect("hit").value, 0.1);
        assert!(c.forecast_ref(ResourceId(2), 21).is_none(), "b moved on");
        assert_eq!(
            c.forecast_ref(ResourceId(1), 10)
                .expect("still valid")
                .value,
            0.1
        );
        assert_eq!((c.hits(), c.misses(), c.invalidations()), (2, 1, 1));
    }
}
