//! Server-side state and request dispatch.
//!
//! [`GridState`] puts a [`QueryCache`] and the request accounting in
//! front of a grid monitor and answers each decoded [`Request`] through
//! the one request policy in [`crate::policy`]. Dispatch is pure with
//! respect to the grid's seed and the request sequence: the same
//! requests against the same grid state produce byte-identical
//! responses on every transport and at every thread count (the grid's
//! parallel advance is itself bit-deterministic).

use crate::cache::QueryCache;
use crate::policy::{Core, Served, View};
use nws_grid::GridMonitor;
use nws_wire::{append_response_frame, Request, Response};

/// Anything that can answer a decoded request — the primary
/// ([`GridState`]) and read replicas
/// ([`ReplicaState`](crate::ReplicaState)) both implement it, so the
/// TCP server, the epoll reactor, and the in-memory transport serve
/// either one through the same machinery.
pub trait Dispatch: Send {
    /// Turns one decoded request into a response.
    fn dispatch(&mut self, req: &Request) -> Response;

    /// Appends the complete response frame (header + payload) for
    /// `req` to `out` without clearing it — the write-queue form every
    /// transport serves through, so replies to pipelined requests
    /// stack up in request order. The default builds the [`Response`]
    /// and encodes it; [`GridState`] and
    /// [`ReplicaState`](crate::ReplicaState) encode straight from
    /// borrowed state instead. The appended bytes *and* every
    /// observable state change must be identical to the default — the
    /// equivalence tests pin both.
    fn dispatch_frame(&mut self, req: &Request, out: &mut Vec<u8>) {
        let resp = self.dispatch(req);
        append_response_frame(out, &resp);
    }
}

/// The primary: the live monitor, judged against its own clock.
impl Served for GridMonitor {
    fn view(&self) -> View<'_> {
        View {
            archive: self.archive(),
            cold: "has no measurements yet",
            now: self.now(),
            slots: self.slots(),
            journal: self.journal().ok_or("no journal attached to this server"),
        }
    }
}

/// The state a forecast server fronts: the grid, the cache, and the
/// request accounting.
pub struct GridState {
    core: Core<GridMonitor>,
}

impl GridState {
    /// Wraps a grid monitor for serving.
    pub fn new(grid: GridMonitor) -> Self {
        Self {
            core: Core::new(grid),
        }
    }

    /// The grid being served.
    pub fn grid(&self) -> &GridMonitor {
        &self.core.state
    }

    /// Advances the simulated grid by `steps` measurement slots. Every
    /// slot bumps the revision counters, so cached answers computed
    /// before the tick stop validating — the measurement-append
    /// invalidation the cache is built around.
    pub fn tick(&mut self, steps: u64) {
        self.core.state.run_steps(steps);
    }

    /// The cache (for tests and reporting).
    pub fn cache(&self) -> &QueryCache {
        &self.core.cache
    }

    /// Answers one request. Batches are answered element-wise in
    /// order; everything else is a single reply.
    pub fn dispatch(&mut self, req: &Request) -> Response {
        self.core.dispatch(req)
    }
}

impl Dispatch for GridState {
    fn dispatch(&mut self, req: &Request) -> Response {
        self.core.dispatch(req)
    }

    fn dispatch_frame(&mut self, req: &Request, out: &mut Vec<u8>) {
        self.core.dispatch_frame(req, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InMemoryTransport, ReplicaState};
    use nws_sim::HostProfile;
    use nws_wire::{ErrorCode, MAX_BATCH, MAX_HORIZON};
    use std::sync::{Arc, Mutex};

    fn warm_state() -> GridState {
        let mut grid = GridMonitor::new(
            &[HostProfile::Thing1, HostProfile::Gremlin],
            7,
            nws_grid::GridMonitorConfig::default(),
        );
        grid.run_steps(30);
        GridState::new(grid)
    }

    #[test]
    fn forecast_is_served_and_cached_between_ticks() {
        let mut st = warm_state();
        let req = Request::Forecast {
            host: "thing1".into(),
        };
        let a = st.dispatch(&req);
        let b = st.dispatch(&req);
        assert_eq!(a, b, "same tick, same answer");
        assert_eq!(st.cache().hits(), 1);
        assert_eq!(st.cache().misses(), 1);
        match a {
            Response::Forecast(r) => {
                assert!((0.0..=1.0).contains(&r.value));
                assert_eq!(r.observations, 30);
                assert!(!r.method.is_empty());
            }
            other => panic!("wrong reply: {other:?}"),
        }
    }

    #[test]
    fn tick_invalidates_and_answers_move() {
        let mut st = warm_state();
        let req = Request::Forecast {
            host: "gremlin".into(),
        };
        let before = st.dispatch(&req);
        st.tick(1);
        let after = st.dispatch(&req);
        assert_eq!(st.cache().invalidations(), 1);
        match (before, after) {
            (Response::Forecast(b), Response::Forecast(a)) => {
                assert_eq!(a.observations, b.observations + 1);
            }
            other => panic!("wrong replies: {other:?}"),
        }
    }

    #[test]
    fn unknown_and_cold_hosts_get_typed_errors() {
        let mut st = warm_state();
        match st.dispatch(&Request::Forecast {
            host: "zardoz".into(),
        }) {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::UnknownHost),
            other => panic!("wrong reply: {other:?}"),
        }
        let cold = GridMonitor::new(
            &[HostProfile::Kongo],
            3,
            nws_grid::GridMonitorConfig::default(),
        );
        let mut st = GridState::new(cold);
        match st.dispatch(&Request::Forecast {
            host: "kongo".into(),
        }) {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::ColdForecast),
            other => panic!("wrong reply: {other:?}"),
        }
    }

    #[test]
    fn snapshot_best_host_and_series_tail_agree_with_the_grid() {
        let mut st = warm_state();
        let snap = match st.dispatch(&Request::Snapshot) {
            Response::Snapshot(s) => s,
            other => panic!("wrong reply: {other:?}"),
        };
        assert_eq!(snap.hosts.len(), 2);
        assert!(snap.hosts.iter().all(|h| !h.degraded));
        let grid_best = st.grid().snapshot().best_host().expect("warm").host.clone();
        match st.dispatch(&Request::BestHost) {
            Response::BestHost(Some(row)) => assert_eq!(row.host, grid_best),
            other => panic!("wrong reply: {other:?}"),
        }
        match st.dispatch(&Request::SeriesTail {
            host: "thing1".into(),
            n: 5,
        }) {
            Response::SeriesTail(t) => {
                assert_eq!(t.points.len(), 5);
                assert!(t.points.windows(2).all(|w| w[0].time < w[1].time));
            }
            other => panic!("wrong reply: {other:?}"),
        }
    }

    #[test]
    fn batch_answers_in_order_and_counts_each_item() {
        let mut st = warm_state();
        let resp = st.dispatch(&Request::Batch(vec![
            Request::Forecast {
                host: "thing1".into(),
            },
            Request::Forecast {
                host: "thing1".into(),
            },
            Request::Stats,
        ]));
        match resp {
            Response::Batch(items) => {
                assert_eq!(items.len(), 3);
                assert_eq!(items[0], items[1], "second item hits the cache");
                match &items[2] {
                    Response::Stats(s) => {
                        assert_eq!(s.requests, 3);
                        assert_eq!(s.cache_hits, 1);
                        assert_eq!(s.hosts, 2);
                        assert_eq!(s.slots, 30);
                    }
                    other => panic!("wrong reply: {other:?}"),
                }
            }
            other => panic!("wrong reply: {other:?}"),
        }
    }

    #[test]
    fn dispatch_frame_matches_the_response_reference_path() {
        // Two identically seeded states: one served through the
        // zero-copy frame path, one through the Response reference
        // path. Every reply must be byte-identical AND the two states
        // must agree on all observable accounting afterwards (the
        // final Stats reply carries the counters). The same for two
        // replicas synced from a third primary, which refuse `WalSince`.
        let build = || {
            let mut grid = GridMonitor::new(
                &[HostProfile::Thing1, HostProfile::Gremlin],
                7,
                nws_grid::GridMonitorConfig::default(),
            );
            grid.attach_journal(nws_grid::Wal::new());
            grid.run_steps(30);
            GridState::new(grid)
        };
        let mut fast = build();
        let mut slow = build();
        let mut feed = InMemoryTransport::new(Arc::new(Mutex::new(build())));
        let replica = || ReplicaState::new(&["thing1", "gremlin"], Default::default());
        let (mut fast_replica, mut slow_replica) = (replica(), replica());
        let wal_end = slow.grid().journal().expect("attached").len() as u64;
        let vocabulary = vec![
            Request::Forecast {
                host: "thing1".into(),
            },
            Request::Forecast {
                host: "thing1".into(), // cache hit
            },
            Request::Forecast {
                host: "zardoz".into(), // unknown host
            },
            Request::Snapshot,
            Request::Snapshot, // cache hit
            Request::BestHost,
            Request::SeriesTail {
                host: "gremlin".into(),
                n: 5,
            },
            Request::SeriesTail {
                host: "zardoz".into(),
                n: 5,
            },
            Request::WalSince {
                offset: 0,
                max: 256,
            },
            Request::WalSince {
                offset: wal_end + 1, // past the end
                max: 256,
            },
            Request::ForecastHorizon {
                host: "thing1".into(),
                k: 12,
            },
            Request::ForecastHorizon {
                host: "zardoz".into(), // unknown host
                k: 12,
            },
            Request::ForecastHorizon {
                host: "thing1".into(),
                k: 0, // degenerate horizon
            },
            Request::Batch(vec![
                Request::Forecast {
                    host: "gremlin".into(),
                },
                Request::Stats,
                Request::BestHost,
            ]),
            Request::Batch(vec![Request::Batch(vec![])]), // nested
            Request::Batch(vec![Request::Stats; MAX_BATCH + 1]), // oversized
            Request::Stats,                               // final accounting pin
        ];
        fn diff<D: Dispatch>(fast: &mut D, slow: &mut D, vocabulary: &[Request], pass: usize) {
            for req in vocabulary {
                let mut fast_bytes = vec![0xA5]; // dirty prefix: append semantics
                fast.dispatch_frame(req, &mut fast_bytes);
                let resp = slow.dispatch(req);
                let mut slow_bytes = vec![0xA5];
                append_response_frame(&mut slow_bytes, &resp);
                assert_eq!(fast_bytes, slow_bytes, "pass {pass}: {req:?}");
            }
        }
        for pass in 0..2 {
            for replica in [&mut fast_replica, &mut slow_replica] {
                replica.sync(&mut feed).expect("sync");
            }
            diff(&mut fast, &mut slow, &vocabulary, pass);
            diff(&mut fast_replica, &mut slow_replica, &vocabulary, pass);
            // Tick between passes so invalidation/recompute paths are
            // compared too, not just the warm-cache ones.
            fast.tick(1);
            slow.tick(1);
            feed.state().lock().unwrap().tick(1);
        }
    }

    #[test]
    fn forecast_horizon_is_served_capped_and_typed() {
        let mut st = warm_state();
        let resp = st.dispatch(&Request::ForecastHorizon {
            host: "thing1".into(),
            k: 16,
        });
        let horizon = match resp {
            Response::ForecastHorizon(h) => h,
            other => panic!("wrong reply: {other:?}"),
        };
        assert_eq!(horizon.host, "thing1");
        assert_eq!(horizon.steps.len(), 16);
        assert!(!horizon.method.is_empty());
        // Step 1 agrees with the one-step forecast endpoint.
        match st.dispatch(&Request::Forecast {
            host: "thing1".into(),
        }) {
            Response::Forecast(f) => {
                assert_eq!(f.value, horizon.steps[0]);
                assert_eq!(f.method, horizon.method);
            }
            other => panic!("wrong reply: {other:?}"),
        }
        // Oversized horizons are capped at the protocol bound, not errored.
        match st.dispatch(&Request::ForecastHorizon {
            host: "thing1".into(),
            k: 10_000,
        }) {
            Response::ForecastHorizon(h) => assert_eq!(h.steps.len(), MAX_HORIZON),
            other => panic!("wrong reply: {other:?}"),
        }
        // Zero steps and unknown hosts are typed errors.
        match st.dispatch(&Request::ForecastHorizon {
            host: "thing1".into(),
            k: 0,
        }) {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::BadRequest),
            other => panic!("wrong reply: {other:?}"),
        }
        match st.dispatch(&Request::ForecastHorizon {
            host: "zardoz".into(),
            k: 4,
        }) {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::UnknownHost),
            other => panic!("wrong reply: {other:?}"),
        }
    }

    #[test]
    fn wal_since_without_a_journal_is_a_typed_error() {
        let mut st = warm_state();
        match st.dispatch(&Request::WalSince {
            offset: 0,
            max: 1024,
        }) {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::BadRequest),
            other => panic!("wrong reply: {other:?}"),
        }
    }

    #[test]
    fn wal_since_streams_the_journal_in_bounded_chunks() {
        let mut grid = GridMonitor::new(
            &[HostProfile::Thing1, HostProfile::Gremlin],
            7,
            nws_grid::GridMonitorConfig::default(),
        );
        grid.attach_journal(nws_grid::Wal::new());
        grid.run_steps(30);
        let full = grid.journal().expect("attached").bytes().to_vec();
        assert!(!full.is_empty());
        let mut st = GridState::new(grid);
        let mut got = Vec::new();
        loop {
            let resp = st.dispatch(&Request::WalSince {
                offset: got.len() as u64,
                max: 256,
            });
            let chunk = match resp {
                Response::WalChunk(c) => c,
                other => panic!("wrong reply: {other:?}"),
            };
            assert_eq!(chunk.total, full.len() as u64);
            assert!(chunk.bytes.len() <= 256 + nws_grid::wal::MAX_RECORD_FRAME);
            got.extend_from_slice(&chunk.bytes);
            if got.len() as u64 >= chunk.total {
                break;
            }
            assert!(!chunk.bytes.is_empty(), "no progress before the end");
        }
        assert_eq!(got, full, "chunks concatenate to the exact journal");
        // An offset past the end is a typed error, not a panic.
        match st.dispatch(&Request::WalSince {
            offset: full.len() as u64 + 1,
            max: 256,
        }) {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::BadRequest),
            other => panic!("wrong reply: {other:?}"),
        }
    }
}
