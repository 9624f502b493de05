//! `serve_socket`: the epoll reactor on loopback, one event loop, one
//! client thread, one connection, no ticks.
//!
//! The grid behind the server never advances, so every query after the
//! warm-up is a cache hit and dispatch is ~0.5 µs of a ~30 µs round
//! trip: syscalls, wake-ups, the reactor's state machine and framing
//! are the op. Reactor, zero-copy and allocation work shows here; lock,
//! cache and tick work must not.
//!
//! One pass replays the same seeded script twice: an open-loop latency
//! phase (seeded Poisson schedule at a fixed 20,000 requests/s, latency
//! charged from each request's due time, generator lateness reported)
//! and a closed-loop throughput phase (32 requests in flight). An op is
//! one request → last-reply-byte exchange.

use crate::affinity::spawning_on_server_cpu;
use crate::harness::{PassSample, Rig, RunConfig, Workload};
use crate::trace::{Tracer, ROOT};
use crate::workloads::client::Client;
use crate::workloads::serving::{is_error, warm_state, Inputs, ReplyHash, Script, ERROR_TAG};
use nws_server::{
    Dispatch, GridState, InMemoryTransport, ReactorConfig, ReactorServer, ServerConfig, Transport,
};
use nws_wire::{encode_request_frame, read_request, Response, HEADER_LEN};
use std::sync::Arc;
use std::time::Instant;

/// The fixed open-loop rate: well under the server's capacity, so the
/// latency phase measures service and wake-up time, not a backlog.
pub const OPEN_LOOP_RPS: f64 = 20_000.0;
const PIPELINE_DEPTH: usize = 32;
/// Times the script is replayed in one throughput phase, so the phase
/// lasts about as long as the latency phase.
const THR_REPLAYS: u64 = 3;

/// One event loop, placed on the server CPU.
pub fn reactor_config() -> ReactorConfig {
    ReactorConfig {
        server: ServerConfig {
            max_connections: 8,
            ..ServerConfig::default()
        },
        event_loops: 1,
        ..ReactorConfig::default()
    }
}

fn reactor(state: GridState) -> ReactorServer {
    spawning_on_server_cpu(|| ReactorServer::spawn(state, reactor_config()))
        .expect("bind a loopback port")
}

pub struct ServeSocket {
    server: ReactorServer,
    client: Client,
    /// Replies of the verification replay, hashed in order.
    verified: Option<Result<ReplyHash, String>>,
}

impl ServeSocket {
    /// Replays the script at the pipeline depth, handing every reply
    /// payload to `on_reply`; returns how many replies arrived.
    fn replay(
        &mut self,
        script: &Script,
        mut on_reply: impl FnMut(&[u8]),
    ) -> (u64, Result<(), String>) {
        let mut replies = 0;
        let outcome = self.client.closed_loop(script, PIPELINE_DEPTH, |payload| {
            replies += 1;
            on_reply(payload);
        });
        (replies, outcome)
    }
}

pub struct Evidence {
    verified: Result<ReplyHash, String>,
    script_fingerprint: u64,
    schedule_fingerprint: u64,
    hits: u64,
    misses: u64,
}

impl Workload for ServeSocket {
    const NAME: &'static str = "serve_socket";
    const PASSES: usize = 56;
    type Inputs = Inputs;
    type Evidence = Evidence;

    fn inputs(cfg: &RunConfig) -> Inputs {
        Inputs::generate(
            cfg.seed,
            cfg.size(32_000, 2_000),
            cfg.size(4_000, 500),
            OPEN_LOOP_RPS,
        )
    }

    fn setup(cfg: &RunConfig, inputs: &Inputs) -> Self {
        let server = reactor(warm_state(cfg));
        let client = Client::connect(server.addr()).expect("connect to the reactor");
        let mut this = Self {
            server,
            client,
            verified: None,
        };
        // Warm: connection open, every cache row filled, buffers grown.
        let (_, outcome) = this.replay(&inputs.script, |_| {});
        outcome.expect("warm-up replay over loopback");
        this
    }

    fn before_passes(&mut self, inputs: &Inputs) {
        let mut hash = ReplyHash::new();
        let mut bad = None;
        let (_, outcome) = self.replay(&inputs.script, |payload| {
            match Response::decode(payload) {
                Ok(resp) if !is_error(&resp) => {}
                Ok(_) => bad = Some("the server answered with a typed error".to_string()),
                Err(e) => bad = Some(format!("a reply did not decode: {e}")),
            }
            hash.add(payload);
        });
        self.verified = Some(match (outcome, bad) {
            (Err(e), _) | (Ok(()), Some(e)) => Err(e),
            (Ok(()), None) => Ok(hash),
        });
    }

    /// Open loop.
    fn latency_phase(&mut self, inputs: &Inputs, sample: &mut PassSample) {
        let lat_n = inputs.due_ns.len() as u64;
        let mut lat_failed = 0u64;
        let mut answered = 0u64;
        let outcome = self.client.open_loop(
            &inputs.script,
            &inputs.due_ns,
            |late_ns| sample.late_us.push(late_ns as f64 / 1e3),
            |_, latency_ns, payload| {
                answered += 1;
                if payload.first() == Some(&ERROR_TAG) {
                    lat_failed += 1;
                } else {
                    sample.lat_us.push(latency_ns as f64 / 1e3);
                }
            },
        );
        if outcome.is_err() {
            lat_failed += lat_n - answered;
        }
        sample.attempted += lat_n;
        sample.failed += lat_failed;
    }

    /// Closed loop at the pipeline depth.
    fn throughput_phase(&mut self, inputs: &Inputs, sample: &mut PassSample) {
        let script = &inputs.script;
        let thr_n = script.len() as u64 * THR_REPLAYS;
        let mut thr_failed = 0u64;
        let mut answered = 0u64;
        let t = Instant::now();
        for _ in 0..THR_REPLAYS {
            let (replies, outcome) = self.replay(script, |payload| {
                if payload.first() == Some(&ERROR_TAG) {
                    thr_failed += 1;
                }
            });
            answered += replies;
            if outcome.is_err() {
                break;
            }
        }
        sample.secs = t.elapsed().as_secs_f64();
        thr_failed += thr_n - answered;
        sample.ops = thr_n - thr_failed;
        sample.attempted += thr_n;
        sample.failed += thr_failed;
    }

    fn finish(mut self, inputs: &Inputs) -> Evidence {
        let (hits, misses) = {
            let state = self.server.state().lock().expect("server state");
            (state.cache().hits(), state.cache().misses())
        };
        self.server.shutdown();
        Evidence {
            verified: self.verified.take().expect("before_passes ran"),
            script_fingerprint: inputs.script.fingerprint,
            schedule_fingerprint: inputs.schedule_fingerprint,
            hits,
            misses,
        }
    }

    fn check(
        fresh: Self,
        inputs: &Inputs,
        evidence: &Evidence,
        exact: &mut Vec<(String, String)>,
    ) -> Result<(), String> {
        exact.push((
            "script".into(),
            format!("{:016x}", evidence.script_fingerprint),
        ));
        exact.push((
            "schedule".into(),
            format!("{:016x}", evidence.schedule_fingerprint),
        ));
        let over_socket = evidence.verified.clone()?;
        exact.push(("reply_bytes".into(), format!("{:016x}", over_socket.hash)));
        // With no ticks the only misses are the first touch of each row.
        if evidence.misses > evidence.hits / 1000 {
            return Err(format!(
                "the cache should always hit here: {} hits, {} misses",
                evidence.hits, evidence.misses
            ));
        }
        // The same script through the socket-free transport over an
        // independent, identically warmed state.
        let mut in_memory = InMemoryTransport::new(Arc::clone(fresh.server.state()));
        let mut replayed = ReplyHash::new();
        for req in &inputs.script.requests {
            let (_, payload) = in_memory
                .call_raw(req)
                .map_err(|e| format!("in-memory replay: {e}"))?;
            replayed.add(&payload);
        }
        if replayed != over_socket {
            return Err(format!(
                "reply bytes over the socket ({over_socket:?}) differ from the in-memory replay ({replayed:?})"
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The traced rig

struct Names {
    op: u16,
    encode: u16,
    round_trip: u16,
    decode_request: u16,
    lock: u16,
    dispatch: u16,
    decode_response: u16,
}

/// Depth-1 exchanges over the socket, each followed by a replay of the
/// server's in-memory part (decode → lock → `dispatch_frame`) on the
/// very state the reactor serves from. The replay's spans are recorded
/// as children of the round trip, re-based to its start: the server did
/// that work somewhere inside the round trip, and what the children do
/// not cover is the socket's share.
pub struct ServeSocketRig {
    inner: ServeSocket,
    script: Script,
    names: Option<Names>,
    wire: Vec<u8>,
    back: Vec<u8>,
    mismatches: u64,
    errors: u64,
}

impl Rig for ServeSocketRig {
    const NAME: &'static str = "serve_socket";
    const PASSES: usize = 28;

    fn new(cfg: &RunConfig) -> Self {
        // Depth-1 exchanges only: a shorter script, no open-loop phase.
        let inputs = Inputs::generate(cfg.seed, cfg.size(4_000, 500), 0, OPEN_LOOP_RPS);
        let inner = ServeSocket::setup(cfg, &inputs);
        Self {
            inner,
            script: inputs.script,
            names: None,
            wire: Vec::new(),
            back: Vec::new(),
            mismatches: 0,
            errors: 0,
        }
    }

    fn plain_pass(&mut self) -> u64 {
        let mut replies = 0;
        let outcome = self
            .inner
            .client
            .closed_loop(&self.script, 1, |_| replies += 1);
        if outcome.is_err() {
            self.errors += 1;
        }
        replies
    }

    fn hand_pass(&mut self, tracer: &mut Tracer) -> u64 {
        let n = self.names.get_or_insert_with(|| Names {
            op: tracer.name("harness.op"),
            encode: tracer.name("wire.encode_request"),
            round_trip: tracer.name("transport.round_trip"),
            decode_request: tracer.name("wire.decode_request"),
            lock: tracer.name("server.lock"),
            dispatch: tracer.name("server.dispatch_frame"),
            decode_response: tracer.name("wire.decode_response"),
        });
        let state = Arc::clone(self.inner.server.state());
        let mut payload_copy = Vec::new();
        for (i, req) in self.script.requests.iter().enumerate() {
            let op = i as u32;
            let t0 = tracer.now();
            encode_request_frame(&mut self.wire, req);
            let t1 = tracer.now();
            let outcome = self.inner.client.round_trip(&self.wire, |payload| {
                payload_copy.clear();
                payload_copy.extend_from_slice(payload);
            });
            let t2 = tracer.now();
            let decoded = Response::decode(&payload_copy);
            let t3 = tracer.now();
            if outcome.is_err() || !decoded.is_ok_and(|r| !is_error(&r)) {
                self.errors += 1;
                continue;
            }
            // The server's side of that round trip, replayed.
            let r0 = tracer.now();
            let request = read_request(&mut self.wire.as_slice());
            let r1 = tracer.now();
            let mut guard = state.lock().expect("server state");
            let r2 = tracer.now();
            self.back.clear();
            if let Ok(request) = &request {
                guard.dispatch_frame(request, &mut self.back);
            }
            drop(guard);
            let r3 = tracer.now();
            if self.back.get(HEADER_LEN..) != Some(payload_copy.as_slice()) {
                self.mismatches += 1;
            }
            let root = tracer.record(n.op, ROOT, op, t0, t3);
            tracer.record(n.encode, root, op, t0, t1);
            let rt = tracer.record(n.round_trip, root, op, t1, t2);
            tracer.record(n.decode_request, rt, op, t1, t1 + (r1 - r0));
            tracer.record(n.lock, rt, op, t1 + (r1 - r0), t1 + (r2 - r0));
            tracer.record(n.dispatch, rt, op, t1 + (r2 - r0), t1 + (r3 - r0));
            tracer.record(n.decode_response, root, op, t2, t3);
        }
        self.script.len() as u64
    }

    fn same_computation(&mut self, exact: &mut Vec<(String, String)>) -> Result<(), String> {
        exact.push(("script".into(), format!("{:016x}", self.script.fingerprint)));
        self.inner.server.shutdown();
        if self.errors > 0 {
            return Err(format!("{} exchanges failed", self.errors));
        }
        if self.mismatches > 0 {
            return Err(format!(
                "{} replayed replies differ from the bytes the socket delivered",
                self.mismatches
            ));
        }
        Ok(())
    }
}
