//! `serve_live`: queries beside writes on the same state, no sockets.
//!
//! An `InMemoryTransport` client (decode → dispatch → encode is the
//! whole op) runs closed-loop at depth 1 while a ticker thread drives
//! `TickDriver::advance(10.0)` — one measurement slot on all six hosts
//! — every millisecond of wall time. Every tick invalidates the cache
//! and holds the state lock, so `op_p99_us` is lock wait plus tick hold
//! and `op_p50_us` is wire plus dispatch: a read-view refactor or a
//! cache deletion moves this workload and leaves `serve_socket` flat.
//!
//! One pass is a latency phase followed by a block-timed closed-loop
//! throughput phase over the same seeded script. The latency phase is
//! open loop — a seeded Poisson schedule at a fixed 200,000 requests/s,
//! latency charged from each request's due time — because a closed loop
//! at 0.3 µs an op hides the lock: measured that way `op_p99_us` read
//! 1.3 µs while ticks held the lock 8 % of the time (one op waits out
//! each 90 µs tick; the 2,600 others that millisecond never see it).

use crate::affinity;
use crate::harness::{PassSample, Rig, RunConfig, Workload};
use crate::trace::{Tracer, ROOT};
use crate::workloads::serving::{is_error, warm_state, Inputs, Script};
use nws_server::{Dispatch, GridState, InMemoryTransport, TickDriver, Transport};
use nws_wire::{encode_request_frame, read_request, read_response};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Wall time between ticks.
const TICK_EVERY: Duration = Duration::from_millis(1);
/// The fixed open-loop rate of the latency phase: a twelfth of what the
/// transport sustains, so latency is service plus lock wait, not queue.
const OPEN_LOOP_RPS: f64 = 200_000.0;

/// What the ticker thread did: how many slots it delivered and how long
/// each `advance` (lock wait plus tick) took, µs.
pub struct Ticked {
    pub ticks: u64,
    pub hold_us: Vec<f32>,
}

/// The ticker thread: one `advance(10.0)` per millisecond, on an
/// absolute schedule (a late tick does not push the later ones back,
/// and a stall is skipped rather than caught up in a burst).
pub struct Ticker {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<Ticked>>,
}

impl Ticker {
    pub fn start(state: Arc<Mutex<GridState>>) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            affinity::pin_server();
            let mut driver = TickDriver::virtual_time(state);
            let mut hold_us = Vec::new();
            let start = Instant::now();
            let mut due = 0u32;
            // `stop` publishes nothing: the join hands the result over.
            while !flag.load(Ordering::Relaxed) {
                let t = Instant::now();
                driver.advance(10.0);
                hold_us.push(t.elapsed().as_nanos() as f32 / 1e3);
                let elapsed = start.elapsed();
                due = (due + 1).max((elapsed.as_nanos() / TICK_EVERY.as_nanos()) as u32);
                if let Some(wait) = (TICK_EVERY * due).checked_sub(elapsed) {
                    std::thread::sleep(wait);
                }
            }
            Ticked {
                ticks: driver.ticked(),
                hold_us,
            }
        });
        Self {
            stop,
            thread: Some(thread),
        }
    }

    pub fn stop(mut self) -> Ticked {
        self.halt().expect("stop consumes the ticker")
    }

    fn halt(&mut self) -> Option<Ticked> {
        self.stop.store(true, Ordering::Relaxed);
        self.thread
            .take()
            .map(|t| t.join().expect("ticker thread panicked"))
    }
}

impl Drop for Ticker {
    fn drop(&mut self) {
        self.halt();
    }
}

pub struct ServeLive {
    thr_ops: usize,
    state: Arc<Mutex<GridState>>,
    transport: InMemoryTransport,
    /// Running from set-up until [`ServeLive::stop_ticker`].
    ticker: Option<Ticker>,
}

pub struct Evidence {
    ticks: u64,
    memory: u64,
}

impl ServeLive {
    fn stop_ticker(&mut self) -> Ticked {
        self.ticker
            .take()
            .expect("the ticker is stopped once")
            .stop()
    }

    /// One exchange; whether it produced a decodable, non-error reply.
    fn call(&mut self, script: &Script, i: usize) -> bool {
        let req = &script.requests[i % script.len()];
        matches!(self.transport.call_raw(req), Ok((resp, _)) if !is_error(&resp))
    }
}

impl Workload for ServeLive {
    const NAME: &'static str = "serve_live";
    const PASSES: usize = 80;
    type Inputs = Inputs;
    type Evidence = Evidence;

    fn inputs(cfg: &RunConfig) -> Inputs {
        let requests = cfg.size(20_000, 2_000);
        Inputs::generate(cfg.seed, requests, requests, OPEN_LOOP_RPS)
    }

    fn setup(cfg: &RunConfig, inputs: &Inputs) -> Self {
        let script = &inputs.script;
        let state = Arc::new(Mutex::new(warm_state(cfg)));
        let mut this = Self {
            thr_ops: cfg.size(400_000, 8_000),
            transport: InMemoryTransport::new(Arc::clone(&state)),
            ticker: Some(Ticker::start(Arc::clone(&state))),
            state,
        };
        // Warm: transport buffers grown, every reply kind served once.
        for i in 0..script.len() {
            assert!(this.call(script, i), "warm-up exchange failed");
        }
        this
    }

    /// Open loop, spinning until each request is due.
    fn latency_phase(&mut self, inputs: &Inputs, sample: &mut PassSample) {
        let script = &inputs.script;
        let start = Instant::now();
        for (i, &due) in inputs.due_ns.iter().enumerate() {
            let mut now = start.elapsed().as_nanos() as u64;
            while now < due {
                std::hint::spin_loop();
                now = start.elapsed().as_nanos() as u64;
            }
            sample.late_us.push((now - due) as f64 / 1e3);
            if self.call(script, i) {
                let done = start.elapsed().as_nanos() as u64;
                sample.lat_us.push((done - due) as f64 / 1e3);
            } else {
                sample.failed += 1;
            }
        }
        sample.attempted += inputs.due_ns.len() as u64;
    }

    /// Closed loop, depth 1.
    fn throughput_phase(&mut self, inputs: &Inputs, sample: &mut PassSample) {
        let script = &inputs.script;
        let mut thr_failed = 0u64;
        let t = Instant::now();
        for i in 0..self.thr_ops {
            if !self.call(script, i) {
                thr_failed += 1;
            }
        }
        sample.secs = t.elapsed().as_secs_f64();
        sample.ops = self.thr_ops as u64 - thr_failed;
        sample.failed += thr_failed;
        sample.attempted += self.thr_ops as u64;
    }

    fn finish(mut self, _inputs: &Inputs) -> Evidence {
        let ticked = self.stop_ticker();
        let memory = self
            .state
            .lock()
            .expect("server state")
            .grid()
            .memory()
            .fingerprint();
        Evidence {
            ticks: ticked.ticks,
            memory,
        }
    }

    fn check(
        mut fresh: Self,
        inputs: &Inputs,
        evidence: &Evidence,
        exact: &mut Vec<(String, String)>,
    ) -> Result<(), String> {
        exact.push((
            "script".into(),
            format!("{:016x}", inputs.script.fingerprint),
        ));
        exact.push((
            "schedule".into(),
            format!("{:016x}", inputs.schedule_fingerprint),
        ));
        // The tick count follows wall time, so the memory fingerprint is
        // checked, not pinned: a single-threaded replay of exactly that
        // many ticks on an independent instance must land on it.
        let already = fresh.stop_ticker().ticks;
        let more = evidence
            .ticks
            .checked_sub(already)
            .ok_or("the replay instance ticked past the run it replays")?;
        let mut state = fresh.state.lock().expect("server state");
        state.tick(more);
        if state.grid().memory().fingerprint() != evidence.memory {
            return Err(format!(
                "memory after {} concurrent ticks differs from a single-thread replay",
                evidence.ticks
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The traced rig

struct Names {
    batch: u16,
    encode: u16,
    decode_request: u16,
    dispatch: u16,
    decode_response: u16,
}

/// Ops per traced batch: each of `call_raw`'s steps is run for the
/// whole batch between two clock reads, so a span is microseconds long
/// where a single step (tens of nanoseconds) would be mostly clock.
const BATCH: usize = 16;
/// Times the script is replayed in one pass of the rig, so a pass is
/// long enough (~0.1 s) for the spread across passes to mean something.
const RIG_REPLAYS: usize = 12;

/// `InMemoryTransport::call_raw` taken apart: the same steps on the
/// same shared state, beside the same ticker. Taking the lock is part
/// of the dispatch span (`server.lock_wait_*` times it on its own).
pub struct ServeLiveRig {
    inner: ServeLive,
    inputs: Inputs,
    names: Option<Names>,
    wires: Vec<Vec<u8>>,
    backs: Vec<Vec<u8>>,
    errors: u64,
}

impl Rig for ServeLiveRig {
    const NAME: &'static str = "serve_live";
    /// Five spans a batch at two million ops a second: 75,000 a pass,
    /// 1.5 million a run.
    const PASSES: usize = 20;

    fn new(cfg: &RunConfig) -> Self {
        let inputs = ServeLive::inputs(cfg);
        Self {
            inner: ServeLive::setup(cfg, &inputs),
            inputs,
            names: None,
            wires: vec![Vec::new(); BATCH],
            backs: vec![Vec::new(); BATCH],
            errors: 0,
        }
    }

    fn plain_pass(&mut self) -> u64 {
        let ops = self.inputs.script.len() * RIG_REPLAYS;
        for i in 0..ops {
            if !self.inner.call(&self.inputs.script, i) {
                self.errors += 1;
            }
        }
        ops as u64
    }

    fn hand_pass(&mut self, tracer: &mut Tracer) -> u64 {
        let n = self.names.get_or_insert_with(|| Names {
            batch: tracer.name("harness.batch"),
            encode: tracer.name("wire.encode_request"),
            decode_request: tracer.name("wire.decode_request"),
            dispatch: tracer.name("server.dispatch_frame"),
            decode_response: tracer.name("wire.decode_response"),
        });
        let mut decoded = Vec::with_capacity(BATCH);
        let requests = &self.inputs.script.requests;
        let replayed = (0..RIG_REPLAYS).flat_map(|_| requests.chunks(BATCH));
        for (b, batch) in replayed.enumerate() {
            let op = b as u32;
            let t0 = tracer.now();
            for (wire, req) in self.wires.iter_mut().zip(batch) {
                encode_request_frame(wire, req);
            }
            let t1 = tracer.now();
            decoded.clear();
            for wire in &self.wires[..batch.len()] {
                decoded.push(read_request(&mut wire.as_slice()));
            }
            let t2 = tracer.now();
            for (back, request) in self.backs.iter_mut().zip(&decoded) {
                back.clear();
                if let Ok(request) = request {
                    self.inner
                        .state
                        .lock()
                        .expect("server state")
                        .dispatch_frame(request, back);
                }
            }
            let t3 = tracer.now();
            for back in &self.backs[..batch.len()] {
                let reply = read_response(&mut back.as_slice());
                if !reply.is_ok_and(|(resp, _)| !is_error(&resp)) {
                    self.errors += 1;
                }
            }
            let t4 = tracer.now();
            let root = tracer.record(n.batch, ROOT, op, t0, t4);
            tracer.record(n.encode, root, op, t0, t1);
            tracer.record(n.decode_request, root, op, t1, t2);
            tracer.record(n.dispatch, root, op, t2, t3);
            tracer.record(n.decode_response, root, op, t3, t4);
        }
        (requests.len() * RIG_REPLAYS) as u64
    }

    fn same_computation(&mut self, exact: &mut Vec<(String, String)>) -> Result<(), String> {
        let script = &self.inputs.script;
        exact.push(("script".into(), format!("{:016x}", script.fingerprint)));
        if self.errors > 0 {
            return Err(format!("{} exchanges failed", self.errors));
        }
        // With the ticker stopped the state holds still, and the steps
        // taken by hand must return byte for byte what the transport
        // does.
        self.inner.stop_ticker();
        let (wire, back) = (&mut self.wires[0], &mut self.backs[0]);
        for req in script.requests.iter().take(500) {
            encode_request_frame(wire, req);
            let decoded = read_request(&mut wire.as_slice()).map_err(|e| e.to_string())?;
            back.clear();
            self.inner
                .state
                .lock()
                .expect("server state")
                .dispatch_frame(&decoded, back);
            let (_, by_hand) = read_response(&mut back.as_slice()).map_err(|e| e.to_string())?;
            let (_, by_transport) = self
                .inner
                .transport
                .call_raw(req)
                .map_err(|e| e.to_string())?;
            if by_hand != by_transport {
                return Err("hand-driven reply bytes differ from the transport's".into());
            }
        }
        Ok(())
    }
}
