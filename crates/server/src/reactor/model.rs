//! A seeded model of one connection: [`Conn`] over [`Window`], a
//! scripted byte stream, under a virtual clock — no sockets, no sleeps.
//! The model plays the event loop: it reports readiness as
//! level-triggered epoll would, closes a connection whose step failed
//! or that is [`Conn::done`], and sweeps at its earliest deadline. After
//! every step it checks
//!
//! - each reply frame the socket took against a twin [`GridState`] fed
//!   the same requests in the same order (and, at the close, the frames
//!   still queued too), so the twin stays in step across cases;
//! - the connection's earliest deadline against the one the deadline
//!   rules give from what the stream saw: bytes read, replies produced,
//!   bytes the socket took and push-backs;
//! - the write buffer's bound and the input buffer's, and that every
//!   complete frame read is answered unless the backlog cap holds it.

use super::*;
use nws_grid::{GridMonitor, GridMonitorConfig};
use nws_sim::HostProfile;
use nws_stats::Rng;
use nws_wire::{append_request_frame, MAGIC, MAX_BATCH, VERSION};
use std::collections::VecDeque;
use std::io;

const SEED: u64 = 0x5EED_C044;

/// Steps a wake may take beyond one per read its queued fragments
/// take: one for room the peer gave before the wake (after any step
/// either nothing is unsent or the socket pushed back), and one for the
/// read that finds the end of the stream.
const WAKE_SLACK: usize = 2;

/// Request bytes a flooding peer keeps queued at each wake: more than
/// a largest frame plus a read, so a step that read until the socket
/// ran dry would grow the input buffer past its bound.
const FLOOD: usize = 65 * READ_CHUNK;

/// Seeded cases the default run draws; the ignored run draws more.
const CASES: u64 = 256;
const CASES_LONG: u64 = 4_096;

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

/// How the peer's write side ends once the server has read its bytes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum End {
    Open,
    Eof,
    Reset,
}

/// The server's end of a scripted connection.
struct Window {
    /// What the peer sent and the server has not read: one read takes
    /// at most one fragment.
    incoming: VecDeque<Vec<u8>>,
    end: End,
    /// Bytes the socket takes before it pushes back.
    room: usize,
    /// Bytes the socket took that the peer has not checked yet.
    taken: Vec<u8>,
    read_total: u64,
    taken_total: u64,
    /// A write met `WouldBlock` since the model last cleared this.
    pushed_back: bool,
}

impl Window {
    /// The reads the queued fragments take: one per [`READ_CHUNK`] or
    /// part of one.
    fn reads_queued(&self) -> usize {
        self.incoming
            .iter()
            .map(|f| f.len().div_ceil(READ_CHUNK))
            .sum()
    }

    fn queued(&self) -> usize {
        self.incoming.iter().map(Vec::len).sum()
    }
}

impl Read for Window {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let Some(front) = self.incoming.front_mut() else {
            return match self.end {
                End::Open => Err(io::ErrorKind::WouldBlock.into()),
                End::Eof => Ok(0),
                End::Reset => Err(io::ErrorKind::ConnectionReset.into()),
            };
        };
        let n = front.len().min(buf.len());
        buf[..n].copy_from_slice(&front[..n]);
        front.drain(..n);
        if front.is_empty() {
            self.incoming.pop_front();
        }
        self.read_total += n as u64;
        Ok(n)
    }
}

impl Write for Window {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.end == End::Reset {
            return Err(io::ErrorKind::BrokenPipe.into());
        }
        let n = self.room.min(buf.len());
        if n == 0 {
            self.pushed_back = true;
            return Err(io::ErrorKind::WouldBlock.into());
        }
        self.taken.extend_from_slice(&buf[..n]);
        self.room -= n;
        self.taken_total += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Why a modelled connection closed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Closed {
    /// Hung up with every reply sent.
    Done,
    /// A step failed: the peer reset.
    Failed,
    /// The sweep found a deadline passed: the idle cut, the whole-frame
    /// budget, the stall timer or a refusal's budget.
    Idle,
    Frame,
    Stall,
    Refusal,
}

const CLOSES: [Closed; 6] = [
    Closed::Done,
    Closed::Failed,
    Closed::Idle,
    Closed::Frame,
    Closed::Stall,
    Closed::Refusal,
];

/// What the cases reached, summed over a run.
#[derive(Debug, Default)]
struct Seen {
    cases: u64,
    replies: u64,
    compactions: u64,
    at_cap: u64,
    at_frame_bound: u64,
    at_max_batch: u64,
    refused_whole: u64,
    /// Sends that end inside a frame.
    fragmented: u64,
    /// Sends made with two or more requests unanswered.
    pipelined: u64,
    half_closes: u64,
    resets: u64,
    malformed: u64,
    closes: [u64; 6],
}

/// The server's state and its twin, fed the same requests in the same
/// order.
struct Pair {
    state: Mutex<GridState>,
    twin: GridState,
}

impl Pair {
    fn warm(hosts: &[HostProfile], steps: u64) -> Self {
        let warm = || {
            let mut grid = GridMonitor::new(hosts, 21, GridMonitorConfig::default());
            grid.run_steps(steps);
            GridState::new(grid)
        };
        Self {
            state: Mutex::new(warm()),
            twin: warm(),
        }
    }
}

/// One connection under a virtual clock, and the peer's end of it.
struct Model<'a> {
    conn: Conn<Window>,
    config: ServerConfig,
    state: &'a Mutex<GridState>,
    twin: &'a mut GridState,
    shutdown: AtomicBool,
    now: Instant,
    admitted: bool,
    /// epoll reports a reset as `EPOLLERR|EPOLLHUP`; otherwise only the
    /// read sees it.
    reset_is_hangup: bool,
    /// Every request byte the peer queued, the end of each frame in
    /// them, and how many it has sent.
    outbox: Vec<u8>,
    ends: Vec<usize>,
    sent: usize,
    /// Requests sent whose replies have not been checked, oldest first.
    asked: VecDeque<Request>,
    /// The one error frame owed after the last request's reply: a
    /// refusal's `Overloaded`, a malformed frame's `BadRequest`.
    owed: Option<ErrorCode>,
    replies: usize,
    want: Vec<u8>,
    /// The deadline rules, from what the stream saw: the idle cut runs
    /// from `quiet`, the whole-frame budget from `frame`, and while
    /// replies are unsent only the stall timer runs.
    quiet: Instant,
    frame: Instant,
    stall: Option<Instant>,
    produced: u64,
    /// Why and when the connection closed.
    closed: Option<(Closed, Instant)>,
    seen: &'a mut Seen,
}

impl<'a> Model<'a> {
    fn new(
        pair: &'a mut Pair,
        config: ServerConfig,
        admitted: bool,
        now: Instant,
        seen: &'a mut Seen,
    ) -> Self {
        seen.cases += 1;
        let window = Window {
            incoming: VecDeque::new(),
            end: End::Open,
            room: 0,
            taken: Vec::new(),
            read_total: 0,
            taken_total: 0,
            pushed_back: false,
        };
        let mut model = Self {
            conn: Conn::new(window, admitted, now, &config),
            config,
            state: &pair.state,
            twin: &mut pair.twin,
            shutdown: AtomicBool::new(false),
            now,
            admitted,
            reset_is_hangup: true,
            outbox: Vec::new(),
            ends: Vec::new(),
            sent: 0,
            asked: VecDeque::new(),
            owed: (!admitted).then_some(ErrorCode::Overloaded),
            replies: 0,
            want: Vec::new(),
            quiet: now,
            frame: now,
            stall: (!admitted).then(|| now + REFUSAL_DEADLINE),
            produced: 0,
            closed: None,
            seen,
        };
        // Admission pushes the refusal, if any, before registering.
        model.act(|m| m.conn.flush(&m.config, m.now));
        model
    }

    /// Queues a request for the peer to send.
    fn ask(&mut self, req: Request) {
        append_request_frame(&mut self.outbox, &req);
        self.ends.push(self.outbox.len());
        self.asked.push_back(req);
    }

    /// Queues bytes that end the stream with a malformed frame.
    fn ask_malformed(&mut self, bytes: &[u8]) {
        self.outbox.extend_from_slice(bytes);
        self.ends.push(self.outbox.len());
        self.owed = Some(ErrorCode::BadRequest);
    }

    /// Queued bytes not sent yet.
    fn unsent_by_peer(&self) -> &[u8] {
        &self.outbox[self.sent..]
    }

    /// Whole frames sent.
    fn frames_sent(&self) -> usize {
        self.ends.partition_point(|&end| end <= self.sent)
    }

    /// Sends up to `n` queued bytes as one fragment.
    fn send(&mut self, n: usize) {
        let n = n.min(self.outbox.len() - self.sent);
        let window = &mut self.conn.stream;
        if n > 0 && window.end == End::Open {
            let fragment = self.outbox[self.sent..self.sent + n].to_vec();
            window.incoming.push_back(fragment);
            self.sent += n;
            let mid_frame = self.ends.binary_search(&self.sent).is_err();
            let pipelined = self.frames_sent() >= self.replies + 2;
            self.seen.fragmented += u64::from(mid_frame);
            self.seen.pipelined += u64::from(pipelined);
        }
    }

    /// The peer reads: the socket takes `n` more bytes.
    fn read(&mut self, n: usize) {
        let room = &mut self.conn.stream.room;
        *room = room.saturating_add(n);
    }

    fn half_close(&mut self) {
        if self.conn.stream.end == End::Open {
            self.conn.stream.end = End::Eof;
            self.seen.half_closes += 1;
        }
    }

    fn reset(&mut self) {
        let window = &mut self.conn.stream;
        if window.end != End::Reset {
            window.incoming.clear();
            window.end = End::Reset;
            self.sent = self.outbox.len();
            self.seen.resets += 1;
        }
    }

    /// One epoll wake at `at`: a step while the stream is ready for
    /// what the connection waits on (level-triggered: again while it
    /// stays ready), then the sweep. A step reads once, so the wake ends
    /// within the reads its queued fragments take plus [`WAKE_SLACK`].
    fn wake(&mut self, at: Instant) {
        assert!(at >= self.now, "the clock ran backwards");
        self.now = at;
        let steps = self.conn.stream.reads_queued() + WAKE_SLACK;
        for _ in 0..steps {
            if self.closed.is_some() {
                return;
            }
            let bits = self.ready();
            if bits == 0 {
                break;
            }
            let conn = &self.conn;
            let moves = conn.in_pos > 0 && conn.in_pos < conn.in_end;
            if bits & EPOLLIN != 0 && conn.reading() && moves {
                self.seen.compactions += 1;
            }
            self.act(|m| m.conn.step(bits, m.state, &m.config, &m.shutdown, m.now));
        }
        assert_eq!(
            self.ready(),
            0,
            "a wake left the stream ready after {steps} steps"
        );
        if self.closed.is_none() && self.conn.earliest_deadline() <= self.now {
            self.close(self.expiry());
        }
    }

    /// The events epoll would report for the connection's interest.
    fn ready(&self) -> u32 {
        if self.closed.is_some() {
            return 0;
        }
        let (want, window) = (self.conn.wanted_interest(), &self.conn.stream);
        let mut bits = 0;
        if want & EPOLLIN != 0 && (!window.incoming.is_empty() || window.end != End::Open) {
            bits |= EPOLLIN;
        }
        if want & EPOLLOUT != 0 && (window.room > 0 || window.end == End::Reset) {
            bits |= EPOLLOUT;
        }
        if window.end == End::Reset && self.reset_is_hangup {
            bits |= EPOLLERR | EPOLLHUP;
        }
        bits
    }

    /// Runs `op` on the connection, then moves the deadlines the way
    /// the rules say for what the stream saw, checks the replies the
    /// socket took, and closes or checks the connection's deadline.
    fn act(&mut self, op: impl FnOnce(&mut Self) -> io::Result<()>) {
        self.conn.stream.pushed_back = false;
        let (read, taken) = (self.conn.stream.read_total, self.conn.stream.taken_total);
        let result = op(self);
        let now = self.now;
        let window = &self.conn.stream;
        if window.read_total > read {
            self.quiet = now;
        }
        let produced = window.taken_total + self.conn.unsent() as u64;
        if produced > self.produced {
            self.produced = produced;
            self.frame = now;
        }
        let took = window.taken_total > taken;
        if window.pushed_back && (self.stall.is_none() || took && self.admitted) {
            self.stall = Some(now + WRITE_TIMEOUT);
        }
        if self.conn.unsent() == 0 && self.stall.take().is_some() {
            self.quiet = now;
            self.frame = now;
        }
        let mut taken = std::mem::take(&mut self.conn.stream.taken);
        let checked = self.check(&taken);
        taken.drain(..checked);
        self.conn.stream.taken = taken;
        if self.conn.unsent() >= BACKLOG_CAP {
            self.seen.at_cap += 1;
        }
        assert!(
            self.conn.out.len() < 3 * MAX_FRAME + HEADER_LEN,
            "write buffer holds {} B",
            self.conn.out.len()
        );
        assert!(
            self.conn.inbuf.len() < HEADER_LEN + MAX_FRAME + READ_CHUNK,
            "input buffer holds {} B",
            self.conn.inbuf.len()
        );
        if result.is_err() {
            self.close(Closed::Failed);
        } else if self.conn.done() {
            self.close(Closed::Done);
        } else {
            let unparsed = &self.conn.inbuf[self.conn.in_pos..self.conn.in_end];
            assert!(
                !self.conn.reading() || matches!(split_frame(unparsed), Err(WireError::Truncated)),
                "a complete frame read, unanswered below the backlog cap"
            );
            assert_eq!(
                self.conn.earliest_deadline(),
                self.deadline(),
                "deadline after {:?} of virtual time",
                self.now - self.quiet.min(self.frame)
            );
        }
    }

    fn deadline(&self) -> Instant {
        self.stall.unwrap_or_else(|| {
            (self.quiet + self.config.read_timeout).min(self.frame + self.config.request_deadline)
        })
    }

    fn expiry(&self) -> Closed {
        match self.stall {
            Some(_) if self.admitted => Closed::Stall,
            Some(_) => Closed::Refusal,
            None if self.quiet + self.config.read_timeout <= self.deadline() => Closed::Idle,
            None => Closed::Frame,
        }
    }

    /// Checks each whole reply frame at the front of `bytes` against
    /// the twin's reply to the oldest unanswered request, or against
    /// the error frame owed once every request is answered. Returns the
    /// bytes checked.
    fn check(&mut self, bytes: &[u8]) -> usize {
        let mut used = 0;
        loop {
            let payload = match split_frame(&bytes[used..]) {
                Ok((FrameKind::Response, payload)) => payload,
                Err(WireError::Truncated) => return used,
                other => panic!("reply {}: not a response frame: {other:?}", self.replies),
            };
            let frame = &bytes[used..used + HEADER_LEN + payload.len()];
            if let Some(req) = self.asked.pop_front() {
                self.want.clear();
                self.twin.dispatch_frame(&req, &mut self.want);
                assert!(frame == self.want, "reply {} to {req:?}", self.replies);
                if payload.len() > MAX_FRAME - MAX_BATCH * 16 {
                    self.seen.at_frame_bound += 1;
                }
                if let Request::Batch(items) = &req {
                    self.seen.at_max_batch += u64::from(items.len() == MAX_BATCH);
                    let refused = payload.len() < 1024
                        && matches!(Response::decode(payload), Ok(Response::Error(_)));
                    self.seen.refused_whole += u64::from(refused);
                }
            } else {
                let owed = self.owed.take();
                match Response::decode(payload) {
                    Ok(Response::Error(e)) if Some(e.code) == owed => {}
                    other => panic!("reply {} owed {owed:?}, got {other:?}", self.replies),
                }
            }
            self.replies += 1;
            self.seen.replies += 1;
            used += frame.len();
        }
    }

    /// Closes the connection: the frames it still held count as
    /// produced, so they are checked too and the twin stays in step.
    fn close(&mut self, why: Closed) {
        let mut rest = std::mem::take(&mut self.conn.stream.taken);
        rest.extend_from_slice(&self.conn.out[self.conn.out_pos..]);
        let checked = self.check(&rest);
        assert_eq!(checked, rest.len(), "a partial frame at the close");
        match why {
            Closed::Done => {
                assert!(self.asked.is_empty(), "closed with requests unanswered");
                assert_eq!(self.owed, None, "closed without the error frame");
            }
            Closed::Failed => assert_eq!(self.conn.stream.end, End::Reset, "a step failed"),
            _ => {}
        }
        self.asked.clear();
        self.closed = Some((why, self.now));
        self.seen.closes[why as usize] += 1;
    }

    /// Lets `gap` of virtual time pass, sweeping at any deadline in it.
    fn pass(&mut self, gap: Duration) {
        let until = self.now + gap;
        while self.closed.is_none() && self.conn.earliest_deadline() <= until {
            self.wake(self.conn.earliest_deadline().max(self.now));
        }
        self.now = until;
    }

    /// Runs the clock forward until a deadline closes the connection.
    fn run_out(&mut self) -> (Closed, Instant) {
        loop {
            if let Some(closed) = self.closed {
                return closed;
            }
            self.wake(self.conn.earliest_deadline().max(self.now));
        }
    }

    /// Tops the stream up to `budget` queued bytes of pipelined small
    /// requests, in fragments of 1 to `cut` bytes.
    fn flood(&mut self, budget: usize, cut: u64, rng: &mut Rng, vocabulary: &Vocabulary) {
        let mut queued = self.conn.stream.queued();
        while queued < budget {
            let n = (budget - queued).min(1 + rng.below(cut) as usize);
            while self.unsent_by_peer().len() < n {
                self.ask(vocabulary.draw(rng, 0.0));
            }
            self.send(n);
            queued += n;
        }
    }

    /// One turn of a peer that reads `n` bytes: a wake now, then `gap`
    /// of virtual time.
    fn turn(&mut self, n: usize, gap: Duration) {
        self.read(n);
        self.wake(self.now);
        self.pass(gap);
    }
}

/// Host names the vocabulary asks about.
const HOSTS: [&str; 2] = ["thing1", "gremlin"];

fn tail(n: u32) -> Request {
    Request::SeriesTail {
        host: HOSTS[0].into(),
        n,
    }
}

/// The requests a seeded case draws from: cheap ones, every typed
/// error, and the bulky ones at each bound.
struct Vocabulary {
    small: Vec<Request>,
    bulky: Vec<Request>,
}

impl Vocabulary {
    /// Finds, on both states of `pair` in step, the longest tail of
    /// which [`MAX_BATCH`] fit one frame.
    fn new(pair: &mut Pair) -> Self {
        let mut small = vec![Request::Snapshot, Request::BestHost, Request::Stats];
        for host in HOSTS {
            let host = host.to_string();
            small.push(Request::Forecast { host: host.clone() });
            small.push(Request::SeriesTail {
                host: host.clone(),
                n: 24,
            });
            small.push(Request::ForecastHorizon { host, k: 24 });
        }
        small.push(Request::ForecastHorizon {
            host: "zardoz".into(),
            k: 8,
        });
        small.push(Request::ForecastHorizon {
            host: HOSTS[0].into(),
            k: 0,
        });
        small.push(Request::WalSince {
            offset: 0,
            max: 4096,
        });
        // A batch's payload is its header and its replies' payloads,
        // and a tail's grows by the same bytes per point.
        let payload_len = |pair: &mut Pair, n: u32| {
            let mut reply = Vec::new();
            pair.twin.dispatch_frame(&tail(n), &mut reply);
            let mut same = Vec::new();
            let mut state = pair.state.lock().expect("a fresh state lock");
            state.dispatch_frame(&tail(n), &mut same);
            assert_eq!(reply, same);
            reply.len() - HEADER_LEN
        };
        let one = payload_len(pair, 1);
        let per_point = payload_len(pair, 2) - one;
        let fit = (MAX_FRAME - nws_wire::BATCH_HEADER_LEN) / MAX_BATCH;
        let longest = 1 + (fit - one) / per_point;
        let longest = u32::try_from(longest).expect("a tail length");
        // Weighted: the two batches at the frame bound cost a frame each.
        let forecast = Request::Forecast {
            host: HOSTS[1].into(),
        };
        let forecasts = Request::Batch(vec![forecast; MAX_BATCH]);
        let bulky = vec![
            tail(1_000),
            tail(1_000),
            tail(1_000),
            forecasts.clone(),
            forecasts,
            Request::Batch(vec![tail(longest); MAX_BATCH]),
            Request::Batch(vec![tail(longest + 1); MAX_BATCH]),
        ];
        Self { small, bulky }
    }

    fn draw(&self, rng: &mut Rng, bulky: f64) -> Request {
        let from = if rng.chance(bulky) {
            &self.bulky
        } else {
            &self.small
        };
        from[rng.below(from.len() as u64) as usize].clone()
    }
}

/// A frame the server must refuse with one `BadRequest`: an unknown
/// request tag, a response frame, a batch one past [`MAX_BATCH`], a
/// header claiming more than [`MAX_FRAME`], or a bad magic.
fn malformed(rng: &mut Rng) -> Vec<u8> {
    let frame = |kind: u8, payload: &[u8]| {
        let mut bytes = MAGIC.to_be_bytes().to_vec();
        bytes.extend_from_slice(&[VERSION, kind]);
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes
    };
    match rng.below(5) {
        0 => frame(0, &[0xFF]),
        1 => {
            let mut reply = Vec::new();
            append_response_frame(&mut reply, &Response::Batch(Vec::new()));
            frame(1, &reply[HEADER_LEN..])
        }
        2 => {
            let mut payload = vec![5];
            payload.extend_from_slice(&(MAX_BATCH as u32 + 1).to_le_bytes());
            payload.extend_from_slice(&[4; MAX_BATCH + 1]);
            frame(0, &payload)
        }
        3 => {
            let mut bytes = frame(0, &[]);
            bytes[4..].copy_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
            bytes
        }
        _ => {
            let mut bytes = frame(0, &[4]);
            bytes[0] ^= 0xFF;
            bytes
        }
    }
}

/// Runs `cases` seeded cases over one pair of states and returns what
/// they reached. Each case draws the deadlines, admission, its
/// requests (a few, or hundreds of small ones), a malformed last
/// frame, how the bytes are cut and paced, the pipelining depth, how
/// much the peer reads per turn and whether it stops, and how the
/// stream ends: open, half-closed or reset.
fn seeded_cases(cases: u64) -> Seen {
    let mut pair = Pair::warm(&[HostProfile::Thing1, HostProfile::Gremlin], 1_200);
    let vocabulary = Vocabulary::new(&mut pair);
    let mut seen = Seen::default();
    let origin = Instant::now();
    for case in 0..cases {
        let mut rng = Rng::new(SEED ^ case);
        let run = || seeded_case(&mut rng, &mut pair, &vocabulary, &mut seen, origin);
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
            .unwrap_or_else(|_| panic!("seeded case {case} failed"));
    }
    seen
}

fn seeded_case(
    rng: &mut Rng,
    pair: &mut Pair,
    vocabulary: &Vocabulary,
    seen: &mut Seen,
    now: Instant,
) {
    let read_timeout = ms([100, 1_000, 5_000][rng.below(3) as usize]);
    let config = ServerConfig {
        read_timeout,
        request_deadline: read_timeout * (2 + rng.below(3) as u32) / 2,
        max_connections: 1,
    };
    let admitted = !rng.chance(0.08);
    let mut m = Model::new(pair, config, admitted, now, seen);
    m.reset_is_hangup = rng.chance(0.5);
    let requests = match admitted {
        false => 0,
        true if rng.chance(0.1) => 300 + rng.below(500),
        true => 1 + rng.below(24),
    };
    let bulky = match requests {
        0..=100 => [0.0, 0.05, 0.15][rng.below(3) as usize],
        _ => 0.0,
    };
    for _ in 0..requests {
        m.ask(vocabulary.draw(rng, bulky));
    }
    if admitted && rng.chance(0.2) {
        m.ask_malformed(&malformed(rng));
        m.seen.malformed += 1;
    }
    let frames = requests as usize + usize::from(m.owed.is_some());
    // Hundreds of requests cut anywhere move partial frames to the front.
    let cut = match requests {
        0..=100 => [0, 64, 4_096][rng.below(3) as usize],
        _ => [64, 4_096][rng.below(2) as usize],
    };
    let depth = if rng.chance(0.3) {
        usize::MAX
    } else {
        1 + rng.below(12) as usize
    };
    let reads = [usize::MAX, 64 * 1024, 512, 16][rng.below(4) as usize];
    // Half the refused peers stop reading early, so the refusal budget
    // runs out as often as the socket takes the whole refusal.
    let stop_reading = match admitted {
        true => rng.chance(0.1).then(|| rng.below(64)),
        false => rng.chance(0.5).then(|| rng.below(4)),
    };
    let trickle = admitted && rng.chance(0.1);
    let ending = rng.below(10);
    let reset_at = (ending < 2).then(|| rng.below(1 + 2 * frames as u64));

    for turn in 0u64.. {
        assert!(turn < 200_000, "case did not end");
        if m.closed.is_some() {
            return;
        }
        // Send the rest of the frame being written, or a cut of it and
        // what follows, while fewer than `depth` requests are unanswered.
        let blocked = m.frames_sent() >= m.replies.saturating_add(depth);
        if !blocked && !m.unsent_by_peer().is_empty() {
            let n = match (trickle, cut) {
                (true, _) => 1,
                (false, 0) => m.ends[m.frames_sent()] - m.sent,
                (false, cut) => 1 + rng.below(cut) as usize,
            };
            m.send(n);
        }
        let reading = stop_reading.is_none_or(|stop| turn < stop);
        if reading {
            m.read(1 + rng.below(reads.min(1 << 40) as u64) as usize);
        }
        if reset_at == Some(turn) {
            m.reset();
        } else if m.unsent_by_peer().is_empty() && (2..5).contains(&ending) {
            m.half_close();
        }
        let now = m.now;
        m.wake(now);
        // Nothing left for the peer to do: only a deadline can end it.
        let blocked = m.frames_sent() >= m.replies.saturating_add(depth);
        let idle = blocked || m.unsent_by_peer().is_empty();
        if idle && (!reading || m.conn.unsent() == 0) && reset_at.is_none_or(|at| at < turn) {
            m.run_out();
            return;
        }
        let gap = if trickle {
            read_timeout.mul_f64(0.3 + 0.6 * rng.next_f64())
        } else if rng.chance(0.03) {
            ms(rng.below(2 * 10_000))
        } else {
            Duration::from_micros(rng.below(3_000))
        };
        m.pass(gap);
    }
}

#[test]
fn seeded_cases_match_the_twin_and_the_deadline_rules() {
    let seen = seeded_cases(CASES);
    eprintln!("{seen:#?}");
    let Seen {
        compactions,
        at_cap,
        at_frame_bound,
        at_max_batch,
        refused_whole,
        fragmented,
        pipelined,
        half_closes,
        resets,
        malformed,
        closes,
        ..
    } = seen;
    for (what, count) in [
        ("input compaction", compactions),
        ("a backlog at the cap", at_cap),
        ("a reply at the frame bound", at_frame_bound),
        ("a batch at MAX_BATCH", at_max_batch),
        ("a batch refused whole", refused_whole),
        ("a request sent in fragments", fragmented),
        ("pipelined requests", pipelined),
        ("a half-close", half_closes),
        ("a reset", resets),
        ("a malformed frame", malformed),
    ] {
        assert!(count > 0, "no case reached {what}");
    }
    for (why, count) in CLOSES.iter().zip(closes) {
        assert!(count > 0, "no case closed as {why:?}");
    }
}

#[test]
#[ignore = "the 4,096-case run of the model test above"]
fn seeded_cases_match_the_twin_and_the_deadline_rules_at_length() {
    let seen = seeded_cases(CASES_LONG);
    assert_eq!(seen.cases, CASES_LONG);
}

#[test]
fn a_flooding_peer_gets_one_read_a_step_and_every_frame_answered() {
    let mut pair = Pair::warm(&[HostProfile::Thing1, HostProfile::Gremlin], 120);
    let vocabulary = Vocabulary::new(&mut pair);
    let mut rng = Rng::new(SEED);
    // A peer that reads every reply, and one whose 64 KiB a wake leave
    // the backlog at the cap, so reading pauses with the flood queued.
    for (reads, wakes) in [(usize::MAX, 2), (64 * 1024, 6)] {
        let mut seen = Seen::default();
        let config = ServerConfig::default();
        let mut m = Model::new(&mut pair, config, true, Instant::now(), &mut seen);
        for wake in 0..wakes {
            m.flood(FLOOD, 4_096, &mut rng, &vocabulary);
            m.read(reads);
            m.wake(m.now);
            assert_eq!(m.closed, None, "wake {wake}");
            m.pass(ms(1));
        }
        let capped = m.seen.at_cap > 0;
        assert_eq!(capped, reads != usize::MAX, "the backlog cap");
        // The flood stops: every request is answered before the close.
        m.send(usize::MAX);
        m.half_close();
        while m.closed.is_none() {
            m.turn(usize::MAX, ms(1));
        }
        assert_eq!(m.closed.map(|(why, _)| why), Some(Closed::Done));
    }
}

/// One host warmed a day: 8,640 points per series, so a full tail is a
/// ~138 KB reply.
fn day_warm() -> Pair {
    Pair::warm(&[HostProfile::Thing1], 8_640)
}

#[test]
fn four_hundred_pipelined_day_tails_reach_a_peer_reading_64_kb_every_20_ms() {
    // ~55 MB of replies at 3.2 MB/s: ~17 s, past the idle cut and the
    // stall timer (5 s each), but the socket takes bytes every 20 ms,
    // so the server must keep sending. Each tail is one point shorter
    // than the last, so a reordered reply cannot match.
    const TAILS: u32 = 400;
    let mut pair = day_warm();
    let mut seen = Seen::default();
    let start = Instant::now();
    let config = ServerConfig::default();
    let mut m = Model::new(&mut pair, config, true, start, &mut seen);
    for i in 0..TAILS {
        m.ask(tail(8_640 - i));
    }
    m.send(usize::MAX);
    while m.replies < TAILS as usize {
        assert_eq!(m.closed, None, "cut after {} replies", m.replies);
        m.turn(64 * 1024, ms(20));
    }
    let delivered = m.now;
    assert!(delivered - start > Duration::from_secs(15));
    // The peer then goes quiet: the idle cut runs from the drain.
    let (why, at) = m.run_out();
    assert_eq!(why, Closed::Idle);
    assert!(at - delivered <= config.read_timeout);
}

#[test]
fn a_refusal_keeps_its_budget_while_the_socket_takes_bytes() {
    let mut pair = Pair::warm(&[HostProfile::Thing1], 60);
    for admitted in [false, true] {
        let mut seen = Seen::default();
        let start = Instant::now();
        let mut m = Model::new(
            &mut pair,
            ServerConfig::default(),
            admitted,
            start,
            &mut seen,
        );
        if admitted {
            m.ask(tail(60));
            m.send(usize::MAX);
        }
        // The socket takes 4 bytes every 50 ms, never a whole reply.
        for _ in 0..10 {
            m.turn(4, ms(50));
        }
        assert!(m.conn.stream.taken_total >= 20, "admitted: {admitted}");
        if admitted {
            assert_eq!(m.replies, 0);
            // Re-armed at the last write the socket took.
            assert_eq!(m.closed, None);
            let last = start + ms(450);
            assert_eq!(m.conn.earliest_deadline(), last + WRITE_TIMEOUT);
        } else {
            assert_eq!(m.closed, Some((Closed::Refusal, start + REFUSAL_DEADLINE)));
        }
    }
}

#[test]
fn a_backlog_that_never_drains_keeps_the_write_buffer_bounded() {
    // A peer that keeps pipelining while it reads slower than the
    // server answers: the socket takes bytes every round, but the
    // unsent replies never run out, so `out` is never cleared. Each
    // round sends one request (a ~138 KB reply) and reads 32 KB; 256
    // rounds with the backlog never drained move 8 MiB through `out`,
    // whose bound every step checks.
    let mut pair = day_warm();
    let mut seen = Seen::default();
    let mut m = Model::new(
        &mut pair,
        ServerConfig::default(),
        true,
        Instant::now(),
        &mut seen,
    );
    let mut undrained = 0;
    for round in 0.. {
        assert!(round < 4_096, "the backlog kept draining");
        m.ask(tail(8_640));
        m.send(usize::MAX);
        m.turn(32 * 1024, ms(10));
        assert_eq!(m.closed, None, "round {round}");
        let held = m.conn.out.len();
        assert!(
            held < 3 * MAX_FRAME,
            "round {round}: write buffer holds {held} B"
        );
        undrained = if m.conn.unsent() > 0 {
            undrained + 1
        } else {
            0
        };
        if undrained == 256 {
            break;
        }
    }
    assert!(m.replies > 0, "no whole reply arrived");
}
