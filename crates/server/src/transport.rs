//! Transport abstraction: the same request/response exchange over TCP
//! or entirely in memory.
//!
//! [`InMemoryTransport`] routes every call through the *exact* frame
//! codec the TCP path uses — encode, frame, decode, dispatch, encode,
//! frame, decode — just with a `Vec<u8>` standing in for the socket.
//! Frames are split where they lie ([`split_frame`]), as the reactor
//! splits its input buffer: the bytes are exactly those a socket would
//! carry, only the copies into fresh buffers are skipped. That makes
//! "TCP and in-memory answers are byte-identical" a testable property
//! rather than a hope.

use crate::state::{Dispatch, GridState};
use nws_wire::{
    encode_request_frame, split_frame, ErrorReply, ForecastReply, FrameKind, HorizonReply, HostRow,
    Request, Response, SeriesTailReply, SnapshotReply, StatsReply, WalChunkReply, WireError,
};
use std::fmt;
use std::sync::{Arc, Mutex};

/// Everything that can go wrong talking to a forecast server.
#[derive(Debug)]
pub enum ServeError {
    /// Encoding, decoding, or I/O failed.
    Wire(WireError),
    /// The server answered with a typed error frame.
    Remote(ErrorReply),
    /// The server answered with the wrong response variant.
    Unexpected(&'static str),
    /// The in-memory server's state lock is poisoned: a thread panicked
    /// holding it, so nothing is dispatched against that state.
    Poisoned,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Wire(e) => write!(f, "wire error: {e}"),
            ServeError::Remote(e) => write!(f, "server error {:?}: {}", e.code, e.message),
            ServeError::Unexpected(what) => write!(f, "unexpected response variant: {what}"),
            ServeError::Poisoned => f.write_str("server state lock poisoned"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<WireError> for ServeError {
    fn from(e: WireError) -> Self {
        ServeError::Wire(e)
    }
}

/// A way to exchange one request for one response with a forecast
/// server. Implemented by [`NwsClient`](crate::NwsClient) (TCP, over
/// one server or a ring of replicas) and [`InMemoryTransport`] (no
/// sockets).
pub trait Transport {
    /// Sends one request and returns the decoded response together
    /// with the raw response payload bytes, for byte-level comparisons
    /// across transports.
    fn call_raw(&mut self, req: &Request) -> Result<(Response, Vec<u8>), ServeError>;

    /// Sends one request and returns the decoded response.
    fn call(&mut self, req: &Request) -> Result<Response, ServeError> {
        self.call_raw(req).map(|(resp, _)| resp)
    }

    /// Typed forecast query.
    fn forecast(&mut self, host: &str) -> Result<ForecastReply, ServeError> {
        match self.call(&Request::Forecast {
            host: host.to_string(),
        })? {
            Response::Forecast(r) => Ok(r),
            Response::Error(e) => Err(ServeError::Remote(e)),
            _ => Err(ServeError::Unexpected("forecast")),
        }
    }

    /// Typed whole-grid snapshot query.
    fn snapshot(&mut self) -> Result<SnapshotReply, ServeError> {
        match self.call(&Request::Snapshot)? {
            Response::Snapshot(r) => Ok(r),
            Response::Error(e) => Err(ServeError::Remote(e)),
            _ => Err(ServeError::Unexpected("snapshot")),
        }
    }

    /// Typed best-host query.
    fn best_host(&mut self) -> Result<Option<HostRow>, ServeError> {
        match self.call(&Request::BestHost)? {
            Response::BestHost(r) => Ok(r),
            Response::Error(e) => Err(ServeError::Remote(e)),
            _ => Err(ServeError::Unexpected("best host")),
        }
    }

    /// Typed series-tail query.
    fn series_tail(&mut self, host: &str, n: u32) -> Result<SeriesTailReply, ServeError> {
        match self.call(&Request::SeriesTail {
            host: host.to_string(),
            n,
        })? {
            Response::SeriesTail(r) => Ok(r),
            Response::Error(e) => Err(ServeError::Remote(e)),
            _ => Err(ServeError::Unexpected("series tail")),
        }
    }

    /// Typed server-statistics query.
    fn stats(&mut self) -> Result<StatsReply, ServeError> {
        match self.call(&Request::Stats)? {
            Response::Stats(r) => Ok(r),
            Response::Error(e) => Err(ServeError::Remote(e)),
            _ => Err(ServeError::Unexpected("stats")),
        }
    }

    /// Typed journal-chunk query: the replication pull. `max` is
    /// clamped server-side to at most
    /// [`MAX_WAL_CHUNK`](nws_wire::MAX_WAL_CHUNK) bytes.
    fn wal_since(&mut self, offset: u64, max: u32) -> Result<WalChunkReply, ServeError> {
        match self.call(&Request::WalSince { offset, max })? {
            Response::WalChunk(r) => Ok(r),
            Response::Error(e) => Err(ServeError::Remote(e)),
            _ => Err(ServeError::Unexpected("wal chunk")),
        }
    }

    /// Typed multi-step forecast query. `k` is clamped server-side to
    /// at most [`MAX_HORIZON`](nws_wire::MAX_HORIZON) steps.
    fn forecast_horizon(&mut self, host: &str, k: u32) -> Result<HorizonReply, ServeError> {
        match self.call(&Request::ForecastHorizon {
            host: host.to_string(),
            k,
        })? {
            Response::ForecastHorizon(r) => Ok(r),
            Response::Error(e) => Err(ServeError::Remote(e)),
            _ => Err(ServeError::Unexpected("forecast horizon")),
        }
    }
}

/// The socket-free transport: frames requests into a buffer, decodes
/// them back, dispatches against any shared [`Dispatch`] state (the
/// primary [`GridState`] by default), and frames the response the same
/// way the socket server does.
pub struct InMemoryTransport<D: Dispatch = GridState> {
    state: Arc<Mutex<D>>,
    /// Reusable "wire" for the request frame, mirroring the client's
    /// per-connection encode scratch.
    wire: Vec<u8>,
    /// Reusable buffer for the response frame, mirroring the server's.
    back: Vec<u8>,
}

impl<D: Dispatch> InMemoryTransport<D> {
    /// Wraps shared server state.
    pub fn new(state: Arc<Mutex<D>>) -> Self {
        Self {
            state,
            wire: Vec::new(),
            back: Vec::new(),
        }
    }

    /// The shared state (for advancing the grid mid-test).
    pub fn state(&self) -> &Arc<Mutex<D>> {
        &self.state
    }
}

impl<D: Dispatch> Transport for InMemoryTransport<D> {
    fn call_raw(&mut self, req: &Request) -> Result<(Response, Vec<u8>), ServeError> {
        // Client side: frame the request into the "wire".
        encode_request_frame(&mut self.wire, req);
        // Server side: decode in place, dispatch straight into the
        // response frame buffer — the same zero-copy path the socket
        // servers serve through.
        let decoded = match split_frame(&self.wire)? {
            (FrameKind::Request, payload) => Request::decode(payload)?,
            (FrameKind::Response, _) => return Err(WireError::BadKind(1).into()),
        };
        self.back.clear();
        (self.state.lock().map_err(|_| ServeError::Poisoned)?)
            .dispatch_frame(&decoded, &mut self.back);
        // Client side again: decode the response; its payload is the
        // one copy, because the caller keeps it.
        match split_frame(&self.back)? {
            (FrameKind::Response, payload) => Ok((Response::decode(payload)?, payload.to_vec())),
            (FrameKind::Request, _) => Err(WireError::BadKind(0).into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nws_grid::{GridMonitor, GridMonitorConfig};
    use nws_sim::HostProfile;

    fn warm_transport() -> InMemoryTransport {
        let mut grid = GridMonitor::new(
            &[HostProfile::Thing1, HostProfile::Thing2],
            11,
            GridMonitorConfig::default(),
        );
        grid.run_steps(40);
        InMemoryTransport::new(Arc::new(Mutex::new(GridState::new(grid))))
    }

    #[test]
    fn typed_helpers_round_trip_through_the_codec() {
        let mut t = warm_transport();
        let fc = t.forecast("thing1").expect("warm host");
        assert!((0.0..=1.0).contains(&fc.value));
        let snap = t.snapshot().expect("snapshot");
        assert_eq!(snap.hosts.len(), 2);
        let best = t.best_host().expect("ok").expect("warm grid has a best");
        assert!(snap.hosts.iter().any(|h| h.host == best.host));
        let tail = t.series_tail("thing2", 8).expect("tail");
        assert_eq!(tail.points.len(), 8);
        let stats = t.stats().expect("stats");
        assert_eq!(stats.requests, 5);
        assert!(stats.cache_hits + stats.cache_misses > 0);
    }

    #[test]
    fn remote_errors_surface_as_serve_errors() {
        let mut t = warm_transport();
        match t.forecast("nonesuch") {
            Err(ServeError::Remote(e)) => {
                assert_eq!(e.code, nws_wire::ErrorCode::UnknownHost)
            }
            other => panic!("wrong result: {other:?}"),
        }
    }

    #[test]
    fn raw_payloads_are_deterministic_for_a_fixed_state() {
        let mut a = warm_transport();
        let mut b = warm_transport();
        for req in [
            Request::Forecast {
                host: "thing1".into(),
            },
            Request::Snapshot,
            Request::BestHost,
            Request::SeriesTail {
                host: "thing2".into(),
                n: 16,
            },
            Request::Stats,
        ] {
            let (_, pa) = a.call_raw(&req).expect("a");
            let (_, pb) = b.call_raw(&req).expect("b");
            assert_eq!(pa, pb, "payload bytes differ for {req:?}");
        }
    }

    #[test]
    fn a_poisoned_state_lock_is_a_typed_error_not_a_panic() {
        let mut t = warm_transport();
        assert!(t.stats().is_ok());
        let held = Arc::clone(t.state());
        let poisoner = std::thread::spawn(move || {
            let _guard = held.lock();
            panic!("a thread dies holding the state lock");
        });
        assert!(poisoner.join().is_err());
        assert!(t.state().is_poisoned());
        for _ in 0..2 {
            assert!(matches!(t.forecast("thing1"), Err(ServeError::Poisoned)));
        }
        let err = t.call(&Request::Stats).expect_err("poisoned");
        assert_eq!(err.to_string(), "server state lock poisoned");
    }
}
