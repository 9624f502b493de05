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
use std::collections::btree_map::{BTreeMap, Entry};

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

    /// The forecast for a resource as of `revision`: the cached answer
    /// if it is still current (a hit), otherwise whatever `build`
    /// computes, stored for the next query (a miss; a stale entry is
    /// discarded first and counted as an invalidation). A failed build
    /// is still a miss and leaves nothing cached. Hands back a
    /// reference, so an answer is encoded without cloning its strings.
    pub fn forecast_or_insert_with<E>(
        &mut self,
        id: ResourceId,
        revision: u64,
        build: impl FnOnce() -> Result<ForecastReply, E>,
    ) -> Result<&ForecastReply, E> {
        match self.forecasts.entry(id) {
            Entry::Occupied(current) if current.get().revision == revision => {
                self.hits += 1;
                Ok(&current.into_mut().reply)
            }
            Entry::Occupied(stale) => {
                self.invalidations += 1;
                self.misses += 1;
                match build() {
                    Ok(reply) => {
                        let cached = stale.into_mut();
                        *cached = CachedForecast { revision, reply };
                        Ok(&cached.reply)
                    }
                    Err(e) => {
                        stale.remove();
                        Err(e)
                    }
                }
            }
            Entry::Vacant(vacant) => {
                self.misses += 1;
                let reply = build()?;
                Ok(&vacant.insert(CachedForecast { revision, reply }).reply)
            }
        }
    }

    /// The whole-grid snapshot as of `revision`, by the same protocol,
    /// by reference, so read paths that only inspect the rows (best-host
    /// selection) never clone the whole reply.
    pub fn snapshot_or_insert_with(
        &mut self,
        revision: u64,
        build: impl FnOnce() -> SnapshotReply,
    ) -> &SnapshotReply {
        if (self.snapshot.as_ref()).is_some_and(|(rev, _)| *rev == revision) {
            self.hits += 1;
        } else {
            if self.snapshot.take().is_some() {
                self.invalidations += 1;
            }
            self.misses += 1;
        }
        // Current or empty by now, so `build` runs on a miss only.
        &self.snapshot.get_or_insert_with(|| (revision, build())).1
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

    /// One query: the value served, building `value` on a miss.
    fn forecast(c: &mut QueryCache, id: u64, revision: u64, value: f64) -> f64 {
        let build = || Ok::<_, ()>(reply("kongo", value));
        let served = c.forecast_or_insert_with(ResourceId(id), revision, build);
        served.expect("built").value
    }

    #[test]
    fn hit_while_revision_holds_then_invalidate() {
        let mut c = QueryCache::new();
        let cold = c.forecast_or_insert_with(ResourceId(3), 5, || Err("cold"));
        assert_eq!(cold.err(), Some("cold"), "cold cache misses");
        assert_eq!(
            forecast(&mut c, 3, 5, 0.5),
            0.5,
            "a failed build stores nothing"
        );
        assert_eq!(forecast(&mut c, 3, 5, 0.9), 0.5);
        assert_eq!(forecast(&mut c, 3, 5, 0.9), 0.5);
        assert_eq!((c.hits(), c.misses(), c.invalidations()), (2, 2, 0));
        // Revision moved: the entry is discarded, not served.
        let moved = c.forecast_or_insert_with(ResourceId(3), 6, || Err("cold"));
        assert_eq!(moved.err(), Some("cold"));
        assert_eq!((c.hits(), c.misses(), c.invalidations()), (2, 3, 1));
        // And it stays gone (no double-invalidation accounting).
        assert_eq!(forecast(&mut c, 3, 6, 0.7), 0.7);
        assert_eq!((c.hits(), c.misses(), c.invalidations()), (2, 4, 1));
    }

    #[test]
    fn snapshot_cache_follows_the_same_protocol() {
        let mut c = QueryCache::new();
        let snap = |time| SnapshotReply {
            time,
            hosts: Vec::new(),
        };
        assert_eq!(c.snapshot_or_insert_with(1, || snap(120.0)), &snap(120.0));
        assert_eq!(c.snapshot_or_insert_with(1, || snap(0.0)), &snap(120.0));
        let rebuilt = c.snapshot_or_insert_with(2, || snap(130.0));
        assert_eq!(rebuilt, &snap(130.0), "stale snapshot invalidated");
        assert_eq!((c.hits(), c.misses(), c.invalidations()), (1, 2, 1));
    }

    #[test]
    fn resources_are_cached_independently() {
        let mut c = QueryCache::new();
        assert_eq!(forecast(&mut c, 1, 10, 0.1), 0.1);
        assert_eq!(forecast(&mut c, 2, 20, 0.2), 0.2);
        assert_eq!(forecast(&mut c, 1, 10, 0.0), 0.1);
        assert_eq!(forecast(&mut c, 2, 21, 0.3), 0.3, "b moved on");
        assert_eq!(forecast(&mut c, 1, 10, 0.0), 0.1, "still valid");
        assert_eq!((c.hits(), c.misses(), c.invalidations()), (2, 3, 1));
    }
}
