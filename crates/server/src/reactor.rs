//! The socket server: an epoll reactor serving thousands of
//! mostly-idle connections on a small fixed number of threads.
//!
//! [`ReactorServer`] speaks the wire protocol in front of any shared
//! [`Dispatch`] state — the primary [`GridState`] by default, or a
//! [`ReplicaState`](crate::ReplicaState) fed from a primary's journal.
//! A small fixed pool of event-loop threads is the whole server: each
//! loop holds the nonblocking listener in its own epoll set, and
//! whichever loop wakes accepts, admission-gates and then owns the
//! connection. Every socket is nonblocking behind raw `epoll` — no
//! extra crates, just thin `extern "C"` wrappers over the three
//! syscalls `std` does not expose. Connections cost buffers, not
//! threads, so the connection cap is an admission policy rather than a
//! thread budget.
//!
//! A connection is its two buffers, its deadlines and one `hangup`
//! flag: once set, nothing more is read or dispatched and the
//! connection closes as soon as its queued bytes are sent. Every epoll
//! event on a connection runs the same step — one read, dispatch every
//! complete frame, flush, then close or sync the epoll interest — and
//! one interest rule derives what to wait for from the flag and the
//! unsent bytes. EPOLLIN is level-triggered, so bytes a step leaves
//! wake the loop again, and a peer that writes as fast as the loop
//! reads cannot hold it. The connection is the core and the event loop
//! its shell: the core is generic over its byte stream and never reads
//! the clock, and the shell owns epoll, accepting, the slab and the one
//! clock read per wake that every step, accept and sweep in the wake
//! shares. A seeded model test drives the core over a scripted stream
//! in virtual time. Frames are split where they lie in the input buffer
//! by the wire crate's [`split_frame`], the parser the socket-free
//! [`InMemoryTransport`](crate::InMemoryTransport) runs too, so the two
//! stay byte-identical (the tests pin this, pipelined, fragmented and
//! replica traffic included).
//!
//! Pipelining falls out of the design: complete frames are dispatched
//! in arrival order and their replies appended to the connection's one
//! write buffer, encoded zero-copy ([`Dispatch::dispatch_frame`]), so
//! replies never reorder. Dispatch pauses while [`MAX_FRAME`] bytes of
//! replies are unsent, and reading pauses with it, so a peer that
//! pipelines requests without reading the replies is held back by TCP
//! flow control rather than by server memory.
//!
//! The defences against hostile peers are reactor-native:
//!
//! - the idle cut ([`ServerConfig::read_timeout`]), the whole-frame
//!   budget ([`ServerConfig::request_deadline`]) and the stalled-writer
//!   deadline live on the connection, and once per tick each loop
//!   **sweeps** its connections and closes every one past its earliest
//!   deadline, so a peer trickling one byte at a time runs out of wall
//!   clock instead of resetting the idle timer with every byte. While
//!   any reply byte is unsent only the stalled-writer deadline runs, and
//!   every write the socket takes moves it on, so a peer reading a long
//!   backlog slowly gets all of it; the other two restart once the
//!   backlog drains;
//! - the connection cap ([`ServerConfig::max_connections`]) is an
//!   **accept gate**: an over-cap connection is born hung up with a
//!   typed `Overloaded` frame queued under a tight deadline, so a peer
//!   that never reads its refusal cannot stall the loop;
//! - a malformed frame is answered with one typed `BadRequest` frame
//!   and hangs the connection up: the stream can no longer be trusted
//!   to be frame-aligned.

use crate::state::{Dispatch, GridState};
use nws_wire::{
    append_response_frame, split_frame, ErrorCode, ErrorReply, FrameKind, Request, Response,
    WireError, HEADER_LEN, MAX_FRAME,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a connection's queued replies may sit unaccepted by the
/// socket before the server gives the connection up.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Unsent reply bytes at which a connection stops reading and
/// dispatching. One reply is at most one frame, so the unsent bytes
/// stay below twice this plus a header.
const BACKLOG_CAP: usize = MAX_FRAME;

/// Deadlines and the connection cap of a [`ReactorServer`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// How long a connection may sit idle between requests before the
    /// server hangs up.
    pub read_timeout: Duration,
    /// Wall-clock budget for receiving one complete request frame.
    /// Every byte resets the idle cut, so a peer trickling one byte per
    /// `read_timeout` window could hold a connection forever; this
    /// deadline caps the whole frame. Keep it at or above
    /// `read_timeout` or idle keep-alive connections will be cut early.
    pub request_deadline: Duration,
    /// Connections served concurrently; excess connections are
    /// answered with a typed `Overloaded` frame and closed.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            read_timeout: Duration::from_secs(5),
            request_deadline: Duration::from_secs(10),
            // Every admitted connection is served through the one
            // shared state lock, so the gate admits about as many as
            // the runtime's configured parallelism keeps busy and
            // answers the rest with a prompt `Overloaded` a failover
            // client can act on (never below two, so one slow client
            // can't lock everyone else out in single-threaded runs).
            max_connections: nws_runtime::threads().max(2),
        }
    }
}

/// Admission counters, shared with the server handle so a load harness
/// can watch admission while traffic runs: `accepted`/`active` move at
/// admission, `refused` at the gate.
#[derive(Debug, Default)]
struct ServeCounters {
    /// Connections admitted to service.
    accepted: AtomicU64,
    /// Connections turned away at the cap with a typed `Overloaded`.
    refused: AtomicU64,
    /// Connections being served right now.
    active: AtomicUsize,
}

impl ServeCounters {
    /// The accept gate: counts the connection into `active` while that
    /// is below `cap`, and says whether it did. One compare-and-swap
    /// decides, so loops accepting at once never admit past the cap.
    fn admit(&self, cap: usize) -> bool {
        let admitted = self
            .active
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < cap).then_some(n + 1)
            })
            .is_ok();
        if admitted {
            self.accepted.fetch_add(1, Ordering::SeqCst);
        } else {
            self.refused.fetch_add(1, Ordering::SeqCst);
        }
        admitted
    }
}

/// Thin wrappers over the three epoll syscalls. `std` links libc on
/// every supported platform, so the symbols are already in the
/// process; declaring them here keeps the crate dependency-free.
mod sys {
    use std::io;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;

    const EPOLL_CLOEXEC: i32 = 0o2000000;

    /// The kernel's `struct epoll_event`. Packed on x86-64 (the kernel
    /// ABI has no padding there); naturally aligned everywhere else.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    }

    fn cvt(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    /// An epoll instance. Closing is handled by the wrapped
    /// [`OwnedFd`].
    pub struct Poller {
        ep: OwnedFd,
    }

    impl Poller {
        pub fn new() -> io::Result<Self> {
            // SAFETY: epoll_create1 takes no pointers; a negative
            // return is mapped to errno.
            let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            Ok(Self {
                // SAFETY: fd was just returned by the kernel and is
                // owned by nothing else.
                ep: unsafe { OwnedFd::from_raw_fd(fd) },
            })
        }

        fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            let mut ev = EpollEvent {
                events,
                data: token,
            };
            // SAFETY: `ev` is a valid epoll_event for the duration of
            // the call; the kernel copies it before returning.
            cvt(unsafe { epoll_ctl(self.ep.as_raw_fd(), op, fd, &mut ev) })?;
            Ok(())
        }

        pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, events, token)
        }

        pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, events, token)
        }

        pub fn delete(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        /// Waits at most `timeout_ms` for events, filling `events` from
        /// the front. Returns the number of events.
        pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
            loop {
                // SAFETY: the pointer/length pair describes `events`,
                // which outlives the call.
                let n = unsafe {
                    epoll_wait(
                        self.ep.as_raw_fd(),
                        events.as_mut_ptr(),
                        events.len() as i32,
                        timeout_ms,
                    )
                };
                match cvt(n) {
                    Ok(n) => return Ok(n as usize),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            }
        }
    }
}

use sys::{EpollEvent, Poller, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};

/// Token reserved for the listener in every loop's epoll set.
const LISTENER_TOKEN: u64 = u64::MAX;

/// How many bytes one nonblocking read asks for.
const READ_CHUNK: usize = 16 * 1024;

/// The write budget for one refusal frame: the refusal is best-effort,
/// and the close is the real signal.
const REFUSAL_DEADLINE: Duration = Duration::from_millis(250);

/// How often an event loop sweeps its connections' deadlines, and the
/// longest it sleeps in `epoll_wait`: deadlines fire within one tick
/// of their due time, and shutdown is seen within one tick.
const TIMER_TICK: Duration = Duration::from_millis(10);

/// How long an event loop keeps polling past its last event while
/// traffic is dense, and the longest blocking wait that still counts as
/// dense. It must exceed the peer's turnaround, from the loop's last
/// reply to the peer's next request, or the loop stops just before the
/// next request and sleeps anyway. Measured on a 2-vCPU VM serving the
/// benchmark's 32-deep loopback pipeline (`serve_socket`), against the
/// loop that always blocked: 30 µs raised throughput unevenly (+12 to
/// +27 % over three runs), 50 µs by +17 to +36 % in each of ten, and
/// 100 µs by +23 to +40 % in each of eight; this is the smallest budget
/// that held the gain in every run. A constant, not a setting: it
/// follows the peer's turnaround, which an operator cannot know, and a
/// loop polls at most this long after each wake that found events.
const SPIN: Duration = Duration::from_micros(50);

/// Tunables for [`ReactorServer`]: its deadlines and connection cap,
/// plus the number of event loops.
#[derive(Debug, Clone, Copy)]
pub struct ReactorConfig {
    /// Deadlines and the connection cap (`read_timeout` is the idle
    /// cut, `request_deadline` the whole-frame budget). The default cap
    /// is small; raise it into the thousands to hold many mostly-idle
    /// connections.
    pub server: ServerConfig,
    /// Event-loop threads. Each accepts for itself and serves what it
    /// accepted. Defaults to the runtime thread count, clamped
    /// to at most 4 — event loops are I/O-bound and a handful covers
    /// tens of thousands of connections.
    pub event_loops: usize,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        Self {
            server: ServerConfig::default(),
            event_loops: nws_runtime::threads().clamp(1, 4),
        }
    }
}

/// One connection: its buffers, its deadlines and whether it has hung
/// up. It is generic over its byte stream and never reads the clock:
/// every method that moves a deadline takes `now` from its caller, so
/// the event loop reads the time once per wake and a test can drive a
/// connection over a scripted stream in virtual time.
struct Conn<S> {
    stream: S,
    /// No more reads or dispatch: close once `out` has been sent.
    hangup: bool,
    /// Events currently registered with epoll; 0 until registered.
    interest: u32,
    /// Buffered request bytes `in_pos..in_end`: `in_pos` marks the
    /// dispatched prefix, `in_end` the end of the data. Past it the
    /// buffer keeps the zeroed room earlier reads were given, so a read
    /// zeroes only bytes no read had before. Under `HEADER_LEN +
    /// MAX_FRAME + READ_CHUNK` bytes: a step that reads finds at most one
    /// partial frame unparsed.
    inbuf: Vec<u8>,
    in_pos: usize,
    in_end: usize,
    /// Reply frames in arrival order; `out_pos` marks the prefix the
    /// socket has taken. Cleared once the socket takes it all; a taken
    /// prefix of [`BACKLOG_CAP`] bytes or more is dropped at push-back.
    out: Vec<u8>,
    out_pos: usize,
    /// Idle cut: reset on every successful read, and restarted when a
    /// backlog of replies drains.
    idle_at: Instant,
    /// Whole-frame budget: reset at each request boundary, and restarted
    /// when a backlog of replies drains.
    frame_at: Instant,
    /// Stalled-writer deadline: armed at the first push-back from the
    /// socket, re-armed each time the socket takes bytes before pushing
    /// back (except on a refusal, whose budget is fixed), cleared when
    /// `out` drains whole. While it is armed it is the
    /// only deadline: a peer reading a long backlog is slow, not idle,
    /// and is cut only after `WRITE_TIMEOUT` in which it took nothing.
    write_at: Option<Instant>,
    /// This connection holds a slot in `ServeCounters::active`.
    counted: bool,
}

impl<S: Read + Write> Conn<S> {
    /// A freshly accepted connection, admitted or not. A refused one is
    /// born hung up with the typed `Overloaded` frame queued under a
    /// tight budget, so the refusal takes the same flush-then-register
    /// path as any reply: it is best-effort, the close is the real
    /// signal, and the budget holds however much of the frame the
    /// socket takes.
    fn new(stream: S, admitted: bool, now: Instant, config: &ServerConfig) -> Self {
        let mut out = Vec::new();
        if !admitted {
            let refusal = Response::Error(ErrorReply {
                code: ErrorCode::Overloaded,
                message: "server at connection capacity".to_string(),
            });
            append_response_frame(&mut out, &refusal);
        }
        Self {
            stream,
            hangup: !admitted,
            interest: 0,
            inbuf: Vec::new(),
            in_pos: 0,
            in_end: 0,
            out,
            out_pos: 0,
            idle_at: now + config.read_timeout,
            frame_at: now + config.request_deadline,
            write_at: (!admitted).then(|| now + REFUSAL_DEADLINE),
            counted: admitted,
        }
    }

    fn earliest_deadline(&self) -> Instant {
        self.write_at
            .unwrap_or_else(|| self.idle_at.min(self.frame_at))
    }

    fn unsent(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Whether the connection takes more requests: it has not hung up
    /// and its unsent replies are under the cap.
    fn reading(&self) -> bool {
        !self.hangup && self.unsent() < BACKLOG_CAP
    }

    /// Whether the connection is over: it has hung up and the socket
    /// has taken every reply.
    fn done(&self) -> bool {
        self.hangup && self.unsent() == 0
    }

    /// The one interest rule: readable while [`Conn::reading`],
    /// writable while any reply byte is unsent.
    fn wanted_interest(&self) -> u32 {
        let mut want = if self.unsent() > 0 { EPOLLOUT } else { 0 };
        if self.reading() {
            want |= EPOLLIN | EPOLLRDHUP;
        }
        want
    }

    /// One epoll event's work at `now`: one read (if `bits` say
    /// readable), dispatch the complete frames and push the replies. An
    /// error means close now, sending nothing more: the socket failed or
    /// hung up, the peer reset, shutdown began, or the state lock is
    /// poisoned.
    fn step<D: Dispatch>(
        &mut self,
        bits: u32,
        state: &Mutex<D>,
        config: &ServerConfig,
        shutdown: &AtomicBool,
        now: Instant,
    ) -> std::io::Result<()> {
        if bits & (EPOLLERR | EPOLLHUP) != 0 {
            // EPOLLHUP with a reply queued usually means the peer closed
            // its read side after we saw it: a hung-up connection gives
            // its queue one last push.
            if self.hangup {
                let _ = self.flush(config, now);
            }
            return Err(std::io::ErrorKind::ConnectionReset.into());
        }
        let readable = bits & (EPOLLIN | EPOLLRDHUP) != 0;
        let eof = readable && self.reading() && self.read_once(config.read_timeout, now)?;
        let dispatched_all = self.dispatch(state, config, shutdown, now)?;
        // The peer half-closed its write side: answer what it pipelined,
        // then leave. Frames still held back by the cap come first; the
        // level-triggered EPOLLIN reports the EOF again once reading
        // resumes.
        if eof && dispatched_all {
            self.hangup = true;
        }
        Ok(())
    }

    /// Moves the unparsed bytes to the front and reads once behind them;
    /// `Ok(true)` if the peer has half-closed. An interrupted read is
    /// retried on the next wake. Every byte read resets the idle cut.
    fn read_once(&mut self, read_timeout: Duration, now: Instant) -> std::io::Result<bool> {
        use std::io::ErrorKind::{Interrupted, WouldBlock};
        if self.in_pos > 0 {
            self.inbuf.copy_within(self.in_pos..self.in_end, 0);
            self.in_end -= self.in_pos;
            self.in_pos = 0;
        }
        let end = self.in_end + READ_CHUNK;
        if self.inbuf.len() < end {
            self.inbuf.resize(end, 0);
        }
        match self.stream.read(&mut self.inbuf[self.in_end..end]) {
            Ok(0) => Ok(true),
            Ok(n) => {
                self.in_end += n;
                self.idle_at = now + read_timeout;
                Ok(false)
            }
            Err(e) if matches!(e.kind(), WouldBlock | Interrupted) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Dispatches the complete frames in arrival order, appending each
    /// reply to `out`, while the unsent replies are under the cap —
    /// pushing them at the socket each time they reach it — then pushes
    /// the rest. Returns whether every complete frame was dispatched.
    fn dispatch<D: Dispatch>(
        &mut self,
        state: &Mutex<D>,
        config: &ServerConfig,
        shutdown: &AtomicBool,
        now: Instant,
    ) -> std::io::Result<bool> {
        while !self.hangup {
            if self.unsent() >= BACKLOG_CAP {
                self.flush(config, now)?;
                if self.unsent() >= BACKLOG_CAP {
                    // Held back until EPOLLOUT finds room.
                    return Ok(false);
                }
            }
            let frame = match split_frame(&self.inbuf[self.in_pos..self.in_end]) {
                // Reading a header or a payload: wait for the rest. The
                // whole-frame budget armed at the last request boundary
                // keeps counting.
                Err(WireError::Truncated) => break,
                Err(e) => Err(e),
                // Same refusal (and the same "wait for the full payload
                // first" behavior) as `read_request`.
                Ok((FrameKind::Response, _)) => Err(WireError::BadKind(1)),
                Ok((FrameKind::Request, payload)) => {
                    Request::decode(payload).map(|req| (req, HEADER_LEN + payload.len()))
                }
            };
            match frame {
                Ok((req, frame_len)) => {
                    if shutdown.load(Ordering::SeqCst) {
                        // Hang up without answering once shutdown
                        // begins, the way a killed process would.
                        return Err(std::io::ErrorKind::ConnectionAborted.into());
                    }
                    // A thread that panicked holding the lock may have
                    // left the state half-updated: close rather than
                    // serve from it.
                    let mut state = state.lock().map_err(|_| std::io::ErrorKind::Other)?;
                    state.dispatch_frame(&req, &mut self.out);
                    self.in_pos += frame_len;
                    // Request boundary: a fresh whole-frame budget.
                    self.frame_at = now + config.request_deadline;
                }
                Err(e) => {
                    // A typed refusal, then the hang-up: the stream can
                    // no longer be trusted to be frame-aligned.
                    let resp = Response::Error(ErrorReply {
                        code: ErrorCode::BadRequest,
                        message: format!("malformed request: {e}"),
                    });
                    append_response_frame(&mut self.out, &resp);
                    self.hangup = true;
                }
            }
        }
        self.flush(config, now)?;
        Ok(true)
    }

    /// Pushes the unsent replies at the socket until it pushes back,
    /// arming the stalled-writer deadline if it does — afresh if the
    /// socket took bytes first, unless the connection is a refusal,
    /// which keeps its fixed budget. On push-back a sent prefix of
    /// [`BACKLOG_CAP`] bytes or more is dropped, so a peer that keeps
    /// the backlog from ever draining holds `out` under three frames.
    /// Once the socket has taken everything the buffer is cleared and
    /// the deadline disarmed, and if it was armed the idle cut and the
    /// whole-frame budget restart: they were paused while the backlog
    /// drained.
    fn flush(&mut self, config: &ServerConfig, now: Instant) -> std::io::Result<()> {
        let mut took = false;
        while self.unsent() > 0 {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.out_pos += n;
                    took = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    // A refusal (never counted) keeps its fixed budget.
                    if self.write_at.is_none() || (took && self.counted) {
                        self.write_at = Some(now + WRITE_TIMEOUT);
                    }
                    if self.out_pos >= BACKLOG_CAP {
                        self.out.drain(..self.out_pos);
                        self.out_pos = 0;
                    }
                    return Ok(());
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.out_pos = 0;
        if self.write_at.take().is_some() {
            self.idle_at = now + config.read_timeout;
            self.frame_at = now + config.request_deadline;
        }
        Ok(())
    }
}

/// Whether an event loop blocks in `epoll_wait` or keeps polling.
/// Traffic is dense when the last blocking wait returned events after
/// sleeping less than [`SPIN`]; while it is, and less than `SPIN` has
/// passed since the last event, the loop polls with a zero timeout, so
/// a peer pipelining requests never waits on the loop's wake-up. In
/// every other case the loop blocks for up to [`TIMER_TICK`], so an idle
/// or sparsely fed loop never spins. Like [`Conn`] it never reads the
/// clock: the loop feeds it every wake.
#[derive(Debug, Default)]
struct Pace {
    /// The last blocking wait returned events after sleeping less than
    /// `SPIN`.
    dense: bool,
    /// When the last wait that returned events woke.
    last_event: Option<Instant>,
}

impl Pace {
    /// The timeout of the next wait at `now`: zero while traffic is
    /// dense and the last event is less than `SPIN` old, else a tick.
    fn timeout(&self, now: Instant) -> Duration {
        let recent = self
            .last_event
            .is_some_and(|at| now.saturating_duration_since(at) < SPIN);
        if self.dense && recent {
            Duration::ZERO
        } else {
            TIMER_TICK
        }
    }

    /// A wait woke at `now`, with or without events; `slept` is how long
    /// a blocking wait slept, `None` for a poll. Only a blocking wait
    /// decides whether traffic is dense.
    fn woke(&mut self, now: Instant, slept: Option<Duration>, events: bool) {
        if let Some(slept) = slept {
            self.dense = events && slept < SPIN;
        }
        if events {
            self.last_event = Some(now);
        }
    }
}

struct EventLoop<D: Dispatch> {
    poller: Poller,
    /// The one listener, shared by every loop.
    listener: Arc<TcpListener>,
    /// Whether the listener is in `poller`'s set. A failed accept takes
    /// it out until the next sweep.
    listening: bool,
    state: Arc<Mutex<D>>,
    counters: Arc<ServeCounters>,
    shutdown: Arc<AtomicBool>,
    config: ReactorConfig,
    conns: Vec<Option<Conn<TcpStream>>>,
    free: Vec<usize>,
    /// Slots closed during the current event batch, merged into `free`
    /// only after it: a later event in the batch may still carry a
    /// closed slot's token, so an accept mid-batch must not hand that
    /// slot to a new connection.
    freed: Vec<usize>,
}

impl<D: Dispatch> EventLoop<D> {
    /// The shell around the connections: waits on epoll as [`Pace`]
    /// says, blocking or polling, and reads the clock once per wake for
    /// every accept, step and sweep in it (and once more before each
    /// blocking wait, to time its sleep). Shutdown and the sweep are
    /// checked on every wake, polls included.
    fn run(mut self) {
        let mut events = vec![EpollEvent { events: 0, data: 0 }; 256];
        let mut pace = Pace::default();
        let mut now = Instant::now();
        let mut next_sweep = now + TIMER_TICK;
        // Checked before each wait too: a flag set during a step must not
        // wait out a blocking wait's tick.
        while !self.shutdown.load(Ordering::SeqCst) {
            let timeout = pace.timeout(now);
            let blocked_at = (!timeout.is_zero()).then(Instant::now);
            let Ok(n) = self.poller.wait(&mut events, timeout.as_millis() as i32) else {
                break;
            };
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            now = Instant::now();
            pace.woke(now, blocked_at.map(|at| now - at), n > 0);
            for ev in &events[..n] {
                let (token, bits) = (ev.data, ev.events);
                if token == LISTENER_TOKEN {
                    self.accept_all(now);
                } else {
                    self.handle_event(token as usize, bits, now);
                }
            }
            if now >= next_sweep {
                self.sweep(now);
                next_sweep = now + TIMER_TICK;
            }
            self.free.append(&mut self.freed);
            if n == 0 && timeout.is_zero() {
                std::thread::yield_now();
            }
        }
        // Shutdown: drop every connection — to clients this looks like
        // a crash.
    }

    /// Closes every connection past its earliest deadline, and puts
    /// back a listener a failed accept took out.
    fn sweep(&mut self, now: Instant) {
        for slot in 0..self.conns.len() {
            let due = self.conns[slot]
                .as_ref()
                .is_some_and(|c| c.earliest_deadline() <= now);
            if due {
                // Deadlines close silently: the peer reads an EOF, not
                // an excuse.
                self.close(slot);
            }
        }
        if !self.listening {
            let fd = self.listener.as_raw_fd();
            self.listening = self.poller.add(fd, EPOLLIN, LISTENER_TOKEN).is_ok();
        }
    }

    /// Accepts until the backlog runs dry. Any other accept error —
    /// a full fd table (`EMFILE`/`ENFILE`), a peer reset before accept
    /// (`ECONNABORTED`) — ends only this round: the listener leaves the
    /// epoll set until the next sweep, so a backlog that cannot be
    /// accepted does not spin the loop.
    fn accept_all(&mut self, now: Instant) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => self.admit(stream, now),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    if self.poller.delete(self.listener.as_raw_fd()).is_ok() {
                        self.listening = false;
                    }
                    return;
                }
            }
        }
    }

    /// Gates a freshly accepted connection, pushes its refusal if it
    /// has one, and puts it in this loop's slab.
    fn admit(&mut self, stream: TcpStream, now: Instant) {
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let admitted = self.counters.admit(self.config.server.max_connections);
        let mut conn = Conn::new(stream, admitted, now, &self.config.server);
        let open = conn.flush(&self.config.server, now).is_ok();
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        self.conns[slot] = Some(conn);
        self.settle(slot, open);
    }

    /// Runs the step for one epoll event on a connection.
    fn handle_event(&mut self, slot: usize, bits: u32, now: Instant) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return; // closed earlier in this batch, or never a slot
        };
        let stepped = conn.step(bits, &self.state, &self.config.server, &self.shutdown, now);
        self.settle(slot, stepped.is_ok());
    }

    /// Ends a step: closes the connection if it failed or is
    /// [`Conn::done`], and otherwise brings its epoll interest in line
    /// with [`Conn::wanted_interest`], registering it on its first
    /// step. `epoll_ctl` runs only when the interest changes.
    fn settle(&mut self, slot: usize, open: bool) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        if open && !conn.done() {
            let want = conn.wanted_interest();
            if want == conn.interest {
                return;
            }
            let fd = conn.stream.as_raw_fd();
            let synced = if conn.interest == 0 {
                self.poller.add(fd, want, slot as u64)
            } else {
                self.poller.modify(fd, want, slot as u64)
            };
            if synced.is_ok() {
                conn.interest = want;
                return;
            }
        }
        self.close(slot);
    }

    fn close(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].take() {
            if conn.interest != 0 {
                let _ = self.poller.delete(conn.stream.as_raw_fd());
            }
            if conn.counted {
                self.counters.active.fetch_sub(1, Ordering::SeqCst);
            }
            // The TcpStream drops (and closes) here.
            self.freed.push(slot);
        }
    }
}

/// A running forecast server bound to a local port: spawn it over any
/// [`Dispatch`] state, read its admission counters, shut it down. It
/// holds thousands of concurrent connections on `event_loops` threads.
pub struct ReactorServer<D: Dispatch + 'static = GridState> {
    addr: SocketAddr,
    state: Arc<Mutex<D>>,
    shutdown: Arc<AtomicBool>,
    counters: Arc<ServeCounters>,
    threads: Vec<JoinHandle<()>>,
}

impl<D: Dispatch + 'static> ReactorServer<D> {
    /// Spawns the reactor on an OS-assigned localhost port.
    pub fn spawn(state: D, config: ReactorConfig) -> std::io::Result<Self> {
        Self::spawn_shared(Arc::new(Mutex::new(state)), config)
    }

    /// Spawns the reactor over state shared with the caller.
    pub fn spawn_shared(state: Arc<Mutex<D>>, config: ReactorConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let listener = Arc::new(listener);
        let shutdown = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(ServeCounters::default());
        // Every loop is set up before any thread starts, so a failure
        // leaves nothing running.
        let loops = (0..config.event_loops.max(1))
            .map(|_| {
                let poller = Poller::new()?;
                poller.add(listener.as_raw_fd(), EPOLLIN, LISTENER_TOKEN)?;
                Ok(EventLoop {
                    poller,
                    listener: Arc::clone(&listener),
                    listening: true,
                    state: Arc::clone(&state),
                    counters: Arc::clone(&counters),
                    shutdown: Arc::clone(&shutdown),
                    config,
                    conns: Vec::new(),
                    free: Vec::new(),
                    freed: Vec::new(),
                })
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        let threads = loops
            .into_iter()
            .map(|ev| std::thread::spawn(move || ev.run()))
            .collect();
        Ok(Self {
            addr,
            state,
            shutdown,
            counters,
            threads,
        })
    }

    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state, for ticking the grid or reading cache stats
    /// while the server runs.
    pub fn state(&self) -> &Arc<Mutex<D>> {
        &self.state
    }

    /// Connections admitted to service so far.
    pub fn accepted(&self) -> u64 {
        self.counters.accepted.load(Ordering::SeqCst)
    }

    /// Connections turned away at the cap with a typed `Overloaded`.
    pub fn refused(&self) -> u64 {
        self.counters.refused.load(Ordering::SeqCst)
    }

    /// Connections being served right now.
    pub fn active_connections(&self) -> usize {
        self.counters.active.load(Ordering::SeqCst)
    }

    /// Stops the event loops and joins them; each sees the flag before
    /// its next wait and on every wake, polls included, so within one
    /// tick, and the listener closes with the last. Open
    /// connections are dropped, so a shutdown looks like a crash to
    /// connected clients.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
    }
}

impl<D: Dispatch + 'static> Drop for ReactorServer<D> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The one-loop [`ReactorServer`] under the name of the
/// thread-per-connection server it replaced. It exists only because
/// the benchmark's `server.threaded_ops_per_s` cell still spawns a
/// server by this name, and it goes together with that cell.
pub struct NwsServer;

impl NwsServer {
    /// A [`ReactorServer`] with one event loop and the given deadlines
    /// and connection cap.
    pub fn spawn_shared<D: Dispatch + 'static>(
        state: Arc<Mutex<D>>,
        server: ServerConfig,
    ) -> std::io::Result<ReactorServer<D>> {
        ReactorServer::spawn_shared(
            state,
            ReactorConfig {
                server,
                event_loops: 1,
            },
        )
    }
}

#[cfg(test)]
mod model;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Transport;
    use crate::{ClientConfig, NwsClient};
    use nws_grid::{GridMonitor, GridMonitorConfig};
    use nws_sim::HostProfile;

    fn warm_reactor(config: ReactorConfig) -> ReactorServer {
        let mut grid = GridMonitor::new(
            &[HostProfile::Thing1, HostProfile::Gremlin],
            21,
            GridMonitorConfig::default(),
        );
        grid.run_steps(50);
        ReactorServer::spawn(GridState::new(grid), config).expect("bind localhost")
    }

    /// The default reactor with every connection over capacity.
    fn refusing_reactor() -> ReactorServer {
        warm_reactor(ReactorConfig {
            server: ServerConfig {
                max_connections: 0,
                ..ServerConfig::default()
            },
            ..ReactorConfig::default()
        })
    }

    #[test]
    fn serves_typed_queries_over_tcp() {
        let server = warm_reactor(ReactorConfig::default());
        let mut client =
            NwsClient::connect(server.addr(), ClientConfig::default()).expect("connect");
        let fc = client.forecast("thing1").expect("forecast");
        assert!((0.0..=1.0).contains(&fc.value));
        let snap = client.snapshot().expect("snapshot");
        assert_eq!(snap.hosts.len(), 2);
        let stats = client.stats().expect("stats");
        assert!(stats.requests >= 2);
        assert_eq!(server.accepted(), 1);
        assert_eq!(server.refused(), 0);
    }

    #[test]
    fn malformed_frames_get_an_error_frame_not_a_hang() {
        let server = warm_reactor(ReactorConfig::default());
        let mut raw = TcpStream::connect(server.addr()).expect("connect");
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // Valid header, garbage payload: tag 0xFF is no known request.
        let mut frame = Vec::new();
        frame.extend_from_slice(&nws_wire::MAGIC.to_be_bytes());
        frame.push(nws_wire::VERSION);
        frame.push(0); // request kind
        frame.extend_from_slice(&1u32.to_le_bytes());
        frame.push(0xFF);
        raw.write_all(&frame).unwrap();
        let mut reply = Vec::new();
        raw.read_to_end(&mut reply)
            .expect("server answers then closes");
        let mut rest = reply.as_slice();
        let (resp, _) = nws_wire::read_response(&mut rest).expect("error frame");
        match resp {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::BadRequest),
            other => panic!("wrong reply: {other:?}"),
        }
        assert!(rest.is_empty(), "one error frame, then EOF");
    }

    #[test]
    fn accept_gate_refuses_with_a_typed_overloaded_frame() {
        let server = refusing_reactor();
        let mut client =
            NwsClient::connect(server.addr(), ClientConfig::default()).expect("connect");
        match client.forecast("thing1") {
            Err(crate::ServeError::Remote(e)) => {
                assert_eq!(e.code, ErrorCode::Overloaded);
                assert!(e.message.contains("capacity"));
            }
            other => panic!("expected typed refusal, got {other:?}"),
        }
        assert_eq!(server.refused(), 1);
        assert_eq!(server.accepted(), 0);
        assert_eq!(server.active_connections(), 0);
    }

    #[test]
    fn a_poisoned_state_lock_closes_each_connection_and_keeps_accepting() {
        let server = warm_reactor(ReactorConfig {
            event_loops: 1,
            ..ReactorConfig::default()
        });
        let state = Arc::clone(server.state());
        let poisoner = std::thread::spawn(move || {
            let _held = state.lock();
            panic!("a thread dies holding the state lock");
        });
        assert!(poisoner.join().is_err());
        assert!(server.state().is_poisoned());
        let mut request = Vec::new();
        nws_wire::append_request_frame(&mut request, &Request::Stats);
        // One loop serves both in turn: the first close must leave it
        // accepting.
        for attempt in 0..2 {
            let mut raw = TcpStream::connect(server.addr()).expect("connect");
            raw.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            raw.write_all(&request).expect("send a request");
            let mut reply = Vec::new();
            raw.read_to_end(&mut reply)
                .unwrap_or_else(|e| panic!("connection {attempt}: no EOF: {e}"));
            assert!(reply.is_empty(), "connection {attempt} was answered");
        }
        let deadline = Instant::now() + Duration::from_secs(2);
        while server.active_connections() != 0 {
            assert!(
                Instant::now() < deadline,
                "a closed connection kept its slot"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(server.accepted(), 2);
    }

    #[test]
    fn refusal_is_prompt_even_against_a_peer_that_never_reads() {
        let server = refusing_reactor();
        // A hostile peer: connects, never reads its refusal. The next
        // refusal must not wait on this socket's write path.
        let _hostile = TcpStream::connect(server.addr()).expect("connect");
        std::thread::sleep(Duration::from_millis(50));
        let started = Instant::now();
        let mut client = NwsClient::connect(server.addr(), quick()).expect("connect");
        match client.call(&Request::Stats) {
            Ok(Response::Error(e)) => assert_eq!(e.code, ErrorCode::Overloaded),
            other => panic!("wrong result: {other:?}"),
        }
        assert!(
            started.elapsed() < Duration::from_millis(500),
            "refusal took {:?}",
            started.elapsed()
        );
    }

    /// A client that fails fast: no retries, a 2 s I/O budget.
    fn quick() -> ClientConfig {
        ClientConfig {
            retries: 0,
            io_timeout: Duration::from_secs(2),
            ..ClientConfig::default()
        }
    }

    #[test]
    fn connection_churn_under_a_tight_cap() {
        for event_loops in [1, 4] {
            churn_under_a_tight_cap(event_loops);
        }
    }

    fn churn_under_a_tight_cap(event_loops: usize) {
        let server = warm_reactor(ReactorConfig {
            server: ServerConfig {
                max_connections: 2,
                ..ServerConfig::default()
            },
            event_loops,
        });
        let quick = quick();
        // Two idle holders pin the cap.
        let mut hold_a = NwsClient::connect(server.addr(), quick).expect("holder a");
        let mut hold_b = NwsClient::connect(server.addr(), quick).expect("holder b");
        hold_a.stats().expect("holders are live");
        hold_b.stats().expect("holders are live");
        // A third connection is refused with the typed overload close.
        let mut third = NwsClient::connect(server.addr(), quick).expect("connect");
        match third.call(&Request::Stats) {
            Ok(Response::Error(e)) => assert_eq!(e.code, ErrorCode::Overloaded),
            other => panic!("wrong result: {other:?}"),
        }
        // Releasing a holder frees a slot; fresh connections serve again.
        drop(hold_a);
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            let mut retry = NwsClient::connect(server.addr(), quick).expect("connect");
            match retry.call(&Request::Stats) {
                Ok(Response::Stats(_)) => break,
                Ok(Response::Error(e)) if e.code == ErrorCode::Overloaded => {
                    // The freed slot lags the socket close until the
                    // event loop sees the hangup.
                    assert!(Instant::now() < deadline, "slot never freed");
                    std::thread::sleep(Duration::from_millis(20));
                }
                other => panic!("wrong result: {other:?}"),
            }
        }
        // Rapid sequential churn: every connect-call-drop cycle serves.
        for _ in 0..20 {
            let mut c = NwsClient::connect(server.addr(), quick).expect("connect");
            let deadline = Instant::now() + Duration::from_secs(2);
            loop {
                match c.call(&Request::Stats) {
                    Ok(Response::Stats(_)) => break,
                    Ok(Response::Error(e)) if e.code == ErrorCode::Overloaded => {
                        assert!(Instant::now() < deadline, "churn wedged the server");
                        std::thread::sleep(Duration::from_millis(10));
                        c = NwsClient::connect(server.addr(), quick).expect("reconnect");
                    }
                    other => panic!("wrong result: {other:?}"),
                }
            }
        }
        // Every churned slot is released and reused: the count settles
        // back to the one remaining holder.
        let deadline = Instant::now() + Duration::from_secs(2);
        while server.active_connections() != 1 {
            assert!(
                Instant::now() < deadline,
                "{} connections still active",
                server.active_connections()
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        hold_b.stats().expect("the holder outlived the churn");
        assert!(server.accepted() >= 23, "churn cycles were served");
        assert!(server.refused() >= 1, "the cap actually fired");
    }

    #[test]
    fn admission_is_exact_when_four_loops_accept_a_burst() {
        const CLIENTS: usize = 32;
        const CAP: usize = 4;
        let server = warm_reactor(ReactorConfig {
            server: ServerConfig {
                max_connections: CAP,
                ..ServerConfig::default()
            },
            event_loops: 4,
        });
        let addr = server.addr();
        let start = Arc::new(std::sync::Barrier::new(CLIENTS));
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    let mut client = NwsClient::connect(addr, quick()).expect("connect");
                    let reply = client.call(&Request::Stats);
                    (client, reply)
                })
            })
            .collect();
        // Every client is held, so no admitted slot frees up mid-burst.
        let clients: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        let served = clients
            .iter()
            .filter(|(_, r)| matches!(r, Ok(Response::Stats(_))))
            .count();
        let refused = clients
            .iter()
            .filter(|(_, r)| matches!(r, Ok(Response::Error(e)) if e.code == ErrorCode::Overloaded))
            .count();
        assert_eq!((served, refused), (CAP, CLIENTS - CAP));
        assert_eq!(server.accepted(), CAP as u64);
        assert_eq!(server.active_connections(), CAP);
        assert_eq!(server.refused(), (CLIENTS - CAP) as u64);
    }

    fn us(n: u64) -> Duration {
        Duration::from_micros(n)
    }

    #[test]
    fn a_gap_longer_than_spin_blocks() {
        let t0 = Instant::now();
        let mut pace = Pace::default();
        pace.woke(t0, Some(us(5)), true);
        assert_eq!(pace.timeout(t0), Duration::ZERO, "dense: poll");
        // An empty poll keeps the last event's time.
        pace.woke(t0 + SPIN / 2, None, false);
        assert_eq!(
            pace.timeout(t0 + SPIN - Duration::from_nanos(1)),
            Duration::ZERO
        );
        assert_eq!(pace.timeout(t0 + SPIN), TIMER_TICK, "the gap reached SPIN");
        // The wait that ends the gap slept SPIN: its events are not dense.
        pace.woke(t0 + SPIN * 2, Some(SPIN), true);
        assert_eq!(pace.timeout(t0 + SPIN * 2), TIMER_TICK);
        // A poll that finds events moves the last event on.
        pace.woke(t0 + SPIN * 3, Some(us(1)), true);
        pace.woke(t0 + SPIN * 3 + SPIN / 2, None, true);
        assert_eq!(pace.timeout(t0 + SPIN * 4), Duration::ZERO);
    }

    /// What [`drive`] saw.
    #[derive(Debug, Default)]
    struct Driven {
        /// Time spent in zero-timeout polls.
        polling: Duration,
        /// Blocking waits.
        blocks: u32,
        /// Waits that returned events.
        woke_to_events: u32,
        /// The latest a poll began after the last event.
        past_last: Duration,
    }

    /// One virtual poll: an `epoll_wait` of zero plus a yield.
    const POLL: Duration = Duration::from_micros(1);

    /// Drives a [`Pace`] as `EventLoop::run` does, in virtual time, over
    /// events arriving at `arrivals` (ascending offsets from the start)
    /// until `end`: a poll takes [`POLL`], and a blocking wait wakes at
    /// the next arrival or when its timeout runs out.
    fn drive(arrivals: &[Duration], end: Duration) -> Driven {
        let t0 = Instant::now();
        let mut pace = Pace::default();
        let mut driven = Driven::default();
        let (mut t, mut next, mut last_event) = (Duration::ZERO, 0, None);
        while t < end {
            let timeout = pace.timeout(t0 + t);
            let woke = if timeout.is_zero() {
                if let Some(last) = last_event {
                    driven.past_last = driven.past_last.max(t - last);
                }
                driven.polling += POLL;
                t + POLL
            } else {
                driven.blocks += 1;
                arrivals
                    .get(next)
                    .map_or(t + timeout, |&at| at.clamp(t, t + timeout))
            };
            let mut events = false;
            while arrivals.get(next).is_some_and(|&at| at <= woke) {
                next += 1;
                events = true;
            }
            let slept = (!timeout.is_zero()).then(|| woke - t);
            pace.woke(t0 + woke, slept, events);
            if events {
                driven.woke_to_events += 1;
                last_event = Some(woke);
            }
            t = woke;
        }
        driven
    }

    #[test]
    fn idle_and_sparse_loops_never_poll() {
        let idle = drive(&[], Duration::from_secs(1));
        assert_eq!(idle.polling, Duration::ZERO);
        assert_eq!(idle.blocks, 100, "one wait a tick");
        // One request every 5 ms.
        let sparse: Vec<_> = (1..200).map(|i| us(5_000 * i)).collect();
        let sparse = drive(&sparse, Duration::from_secs(1));
        assert_eq!(sparse.polling, Duration::ZERO);
        assert_eq!(sparse.woke_to_events, 199);
    }

    #[test]
    fn dense_traffic_spins_at_most_spin_past_the_last_event() {
        // A peer answering every 10 µs for 10 ms, then silence.
        let burst: Vec<_> = (1..=1_000).map(|i| us(10 * i)).collect();
        let driven = drive(&burst, Duration::from_millis(50));
        assert!(driven.past_last < SPIN, "{driven:?}");
        // It blocked once to learn the traffic was dense, and once the
        // burst ended, once a tick: from 10.05 ms to 50 ms, four ticks.
        assert_eq!(driven.blocks, 1 + 4, "{driven:?}");
        assert!(driven.polling >= Duration::from_millis(10), "{driven:?}");
        assert!(
            driven.polling <= Duration::from_millis(10) + SPIN + POLL,
            "{driven:?}"
        );
    }

    #[test]
    fn polling_stays_within_spin_of_an_event_over_seeded_schedules() {
        let mut rng = nws_stats::Rng::new(0x5EED_5B1D);
        for case in 0..256 {
            // Runs of gaps around SPIN, between runs of sparse ones.
            let mut arrivals = Vec::new();
            let mut at = Duration::ZERO;
            while at < Duration::from_millis(100) {
                let scale = [SPIN / 4, SPIN, SPIN * 2, TIMER_TICK][rng.below(4) as usize];
                for _ in 0..rng.below(40) {
                    at += Duration::from_nanos(1 + rng.below(scale.as_nanos() as u64));
                    arrivals.push(at);
                }
            }
            let driven = drive(&arrivals, at + Duration::from_millis(20));
            assert!(driven.past_last < SPIN, "case {case}: {driven:?}");
            // Every poll began within SPIN of an event: at most a budget
            // and one poll of polling per wake that found events.
            let bound = (SPIN + POLL) * driven.woke_to_events;
            assert!(driven.polling <= bound, "case {case}: {driven:?}");
        }
    }

    #[test]
    fn shutdown_returns_within_a_tick_and_a_spin_while_a_client_pipelines() {
        let server = warm_reactor(ReactorConfig {
            event_loops: 1,
            ..ReactorConfig::default()
        });
        let mut batch = Vec::new();
        for _ in 0..32 {
            nws_wire::append_request_frame(&mut batch, &Request::Stats);
        }
        let batches = Arc::new(AtomicU64::new(0));
        let mut raw = TcpStream::connect(server.addr()).expect("connect");
        raw.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let counted = Arc::clone(&batches);
        // Pipelines 32 requests at a time until the server drops it.
        let client = std::thread::spawn(move || loop {
            if raw.write_all(&batch).is_err() {
                return;
            }
            for _ in 0..32 {
                if nws_wire::read_response(&mut raw).is_err() {
                    return;
                }
            }
            counted.fetch_add(1, Ordering::SeqCst);
        });
        let deadline = Instant::now() + Duration::from_secs(5);
        while batches.load(Ordering::SeqCst) < 50 {
            assert!(Instant::now() < deadline, "the client never got going");
            std::thread::sleep(Duration::from_millis(1));
        }
        // Shut down from a thread of its own, so a loop that never
        // checks the flag fails the test instead of hanging it.
        let (done, took) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut server = server;
            let started = Instant::now();
            server.shutdown();
            let _ = done.send(started.elapsed());
        });
        let took = took
            .recv_timeout(Duration::from_secs(5))
            .expect("shutdown returned");
        assert!(took < TIMER_TICK + SPIN, "shutdown took {took:?}");
        client.join().expect("the client sees the close");
    }

    /// How long a step takes to dispatch [`READ_CHUNK`] bytes of `Stats`
    /// requests (1,820 frames), doubled: 1.3–2.1 ms in a debug build on
    /// 2 vCPUs (0.19–0.36 ms in release).
    const STEP_SLACK: Duration = Duration::from_millis(4);

    #[test]
    fn a_flooding_peer_shares_its_loop_and_shutdown_stays_prompt() {
        let server = warm_reactor(ReactorConfig {
            event_loops: 1,
            ..ReactorConfig::default()
        });
        let mut batch = Vec::new();
        for _ in 0..32 {
            nws_wire::append_request_frame(&mut batch, &Request::Stats);
        }
        let flood = TcpStream::connect(server.addr()).expect("connect");
        flood
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let (mut writer, mut reader) = (flood.try_clone().expect("clone"), flood);
        let stop = Arc::new(AtomicBool::new(false));
        let replied = Arc::new(AtomicU64::new(0));
        // Writes requests and never waits for their replies.
        let writing = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) && writer.write_all(&batch).is_ok() {}
            })
        };
        // Drains the replies until the server drops the connection.
        let reading = {
            let replied = Arc::clone(&replied);
            std::thread::spawn(move || {
                let mut buf = vec![0; 64 * 1024];
                while let Ok(n @ 1..) = reader.read(&mut buf) {
                    replied.fetch_add(n as u64, Ordering::SeqCst);
                }
            })
        };
        let deadline = Instant::now() + Duration::from_secs(5);
        while replied.load(Ordering::SeqCst) < 1 << 20 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        // A second connection on the same loop, while the flood runs.
        let started = Instant::now();
        let probe = NwsClient::connect(server.addr(), quick()).and_then(|mut c| c.stats());
        let probe_took = started.elapsed();
        let (done, took) = std::sync::mpsc::channel();
        let stopping = std::thread::spawn(move || {
            let mut server = server;
            let started = Instant::now();
            server.shutdown();
            let _ = done.send(started.elapsed());
        });
        // Stop the flood only after the wait, so a loop the flood holds
        // fails the test instead of hanging it.
        let took = took.recv_timeout(Duration::from_secs(5));
        stop.store(true, Ordering::SeqCst);
        writing.join().expect("the writer");
        reading.join().expect("the reader");
        stopping.join().expect("the shutdown");
        assert!(replied.load(Ordering::SeqCst) >= 1 << 20, "no flood");
        // 4–6 ms here; 0.43–2.0 s when a step read until `EAGAIN`.
        assert!(probe.is_ok(), "the second connection: {probe:?}");
        assert!(probe_took < Duration::from_millis(100), "{probe_took:?}");
        let took = took.expect("shutdown returned");
        assert!(
            took < TIMER_TICK + SPIN + STEP_SLACK,
            "shutdown took {took:?}"
        );
    }

    #[test]
    fn shutdown_joins_all_threads() {
        let mut server = warm_reactor(ReactorConfig::default());
        let addr = server.addr();
        let mut client = NwsClient::connect(addr, ClientConfig::default()).expect("connect");
        client.forecast("gremlin").expect("forecast");
        server.shutdown();
        // Idempotent: a second shutdown (and the later Drop) is a no-op.
        server.shutdown();
        // The listener is gone: a fresh connection is refused, or (from
        // a stale backlog) reads EOF or an error — never data.
        if let Ok(mut stream) = TcpStream::connect(addr) {
            stream
                .set_read_timeout(Some(Duration::from_millis(300)))
                .unwrap();
            let mut buf = [0u8; 1];
            assert!(matches!(stream.read(&mut buf), Ok(0) | Err(_)));
        }
    }
}
