//! What both `serve_*` workloads share: the warmed grid behind the
//! server, the seeded request script, and reply checking.

use crate::harness::RunConfig;
use crate::workloads::ingest_grid::DAY_SLOTS;
use nws_grid::GridMonitor;
use nws_loadgen::{fnv1a, ArrivalSchedule, InterArrival, MixRatios, RequestStream};
use nws_server::GridState;
use nws_sim::HostProfile;
use nws_wire::{append_request_frame, Request, Response, HEADER_LEN};

/// Slots the grid behind the server is warmed for: one simulated day,
/// which fills every memory ring (`retain` = 8,640).
pub fn warm_slots(cfg: &RunConfig) -> u64 {
    cfg.size(DAY_SLOTS, 720) as u64
}

/// The six UCSD hosts warmed one simulated day, wrapped for serving.
pub fn warm_state(cfg: &RunConfig) -> GridState {
    let mut grid = GridMonitor::ucsd(cfg.seed);
    grid.run_steps(warm_slots(cfg));
    GridState::new(grid)
}

/// A seeded request script in `RequestStream`'s default mix
/// (60/10/10/15/5 forecast/snapshot/best-host/tail/batch, tails of 16
/// points, batches of 4), with every request pre-framed so the client
/// sends slices of one buffer.
pub struct Script {
    pub requests: Vec<Request>,
    /// All request frames back to back.
    pub frames: Vec<u8>,
    /// `frames[bounds[i]..bounds[i + 1]]` is request `i`.
    pub bounds: Vec<usize>,
    /// `RequestStream::fingerprint()` after the last draw.
    pub fingerprint: u64,
}

impl Script {
    pub fn generate(seed: u64, n: usize) -> Self {
        let hosts: Vec<String> = HostProfile::all()
            .iter()
            .map(|p| p.name().to_string())
            .collect();
        let mut stream = RequestStream::new(seed, &hosts, MixRatios::default(), 16, 4);
        let requests = stream.take(n);
        let mut frames = Vec::new();
        let mut bounds = vec![0];
        for req in &requests {
            append_request_frame(&mut frames, req);
            bounds.push(frames.len());
        }
        Self {
            requests,
            frames,
            bounds,
            fingerprint: stream.fingerprint(),
        }
    }

    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// The frames of requests `from..to`, contiguous.
    pub fn slice(&self, from: usize, to: usize) -> &[u8] {
        &self.frames[self.bounds[from]..self.bounds[to]]
    }
}

/// A seeded Poisson arrival schedule at a fixed rate: when each request
/// of an open-loop phase is due, ns from the phase's start, and the
/// schedule's fingerprint.
pub fn open_loop_schedule(rps: f64, seed: u64, requests: usize) -> (Vec<u64>, u64) {
    let schedule = ArrivalSchedule::generate(InterArrival::poisson(rps), seed, requests);
    let due_ns = schedule
        .offsets()
        .iter()
        .map(|s| (s * 1e9) as u64)
        .collect();
    (due_ns, schedule.fingerprint())
}

/// Everything a `serve_*` workload generates from the seed: the script
/// both phases replay and the latency phase's arrival schedule.
pub struct Inputs {
    pub script: Script,
    /// When each request of the latency phase is due, ns from its start.
    pub due_ns: Vec<u64>,
    pub schedule_fingerprint: u64,
}

impl Inputs {
    pub fn generate(seed: u64, script_len: usize, open_loop_requests: usize, rps: f64) -> Self {
        let (due_ns, schedule_fingerprint) = open_loop_schedule(rps, seed, open_loop_requests);
        Self {
            script: Script::generate(seed, script_len),
            due_ns,
            schedule_fingerprint,
        }
    }
}

/// A running FNV-1a over reply payloads in order, chained the way
/// `RequestStream` chains its draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplyHash {
    pub hash: u64,
    pub replies: u64,
    pub bytes: u64,
}

impl ReplyHash {
    pub fn new() -> Self {
        Self {
            hash: fnv1a(&[]),
            replies: 0,
            bytes: 0,
        }
    }

    pub fn add(&mut self, payload: &[u8]) {
        self.hash = fnv1a(&self.hash.to_le_bytes()) ^ fnv1a(payload);
        self.replies += 1;
        self.bytes += (payload.len() + HEADER_LEN) as u64;
    }
}

/// Whether a decoded reply (or any element of a batch) is a typed
/// error: every script request names a warm, known host, so none may.
pub fn is_error(resp: &Response) -> bool {
    match resp {
        Response::Error(_) => true,
        Response::Batch(items) => items.iter().any(is_error),
        _ => false,
    }
}

/// First payload byte of a `Response::Error` frame — the cheap check
/// the timed passes make on every reply without decoding it.
pub const ERROR_TAG: u8 = 6;
