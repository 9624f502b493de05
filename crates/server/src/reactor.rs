//! The socket server: an epoll reactor serving thousands of
//! mostly-idle connections on a small fixed number of threads.
//!
//! [`ReactorServer`] speaks the wire protocol in front of any shared
//! [`Dispatch`] state — the primary [`GridState`] by default, or a
//! [`ReplicaState`](crate::ReplicaState) fed from a primary's journal.
//! One listener thread accepts and admission-gates, a small fixed pool
//! of event-loop threads own the connections (sharded by file
//! descriptor), and every socket is nonblocking behind raw `epoll` — no
//! extra crates, just thin `extern "C"` wrappers over the three
//! syscalls `std` does not expose. Connections cost buffers, not
//! threads, so the connection cap is an admission policy rather than a
//! thread budget.
//!
//! Per connection the reactor runs a tiny state machine —
//! reading-header → reading-payload → dispatching → writing — layered
//! over the wire crate's buffered-frame parser [`split_frame`], which
//! decodes each frame where it lies in the input buffer — the parser
//! the socket-free [`InMemoryTransport`](crate::InMemoryTransport) runs
//! too, so the two stay byte-identical (the tests pin this, pipelined
//! and replica traffic included).
//!
//! The defences against hostile peers are reactor-native:
//!
//! - the idle cut ([`ServerConfig::read_timeout`]), the whole-frame
//!   budget ([`ServerConfig::request_deadline`]) and the stalled-writer
//!   deadline are **timer-wheel** expirations, so a peer trickling one
//!   byte at a time runs out of wall clock instead of resetting the
//!   idle timer with every byte;
//! - the connection cap ([`ServerConfig::max_connections`]) is an
//!   **accept gate**: over-cap connections get a typed `Overloaded`
//!   frame, written nonblocking by an event loop under a tight budget,
//!   then closed — a peer that never reads its refusal cannot stall
//!   the listener;
//! - a malformed frame is answered with one typed `BadRequest` frame,
//!   then the connection closes: the stream can no longer be trusted
//!   to be frame-aligned.
//!
//! Pipelining falls out of the design: every complete frame buffered
//! on a connection is dispatched in arrival order and the replies are
//! appended to a per-connection write queue, so many requests can be
//! in flight on one socket and replies never reorder. Replies are
//! encoded zero-copy ([`Dispatch::dispatch_frame`]) straight into that
//! queue, and the flush path uses a vectored write when a freshly
//! encoded reply would otherwise have to be copied behind an
//! undrained queue tail.

use crate::state::{Dispatch, GridState};
use nws_wire::{
    append_response_frame, split_frame, ErrorCode, ErrorReply, FrameKind, Request, Response,
    WireError, HEADER_LEN,
};
use std::collections::VecDeque;
use std::io::{IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a connection's queued replies may sit unaccepted by the
/// socket before the server gives the connection up.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

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

/// The typed refusal an over-capacity connection is answered with.
fn overload_response() -> Response {
    Response::Error(ErrorReply {
        code: ErrorCode::Overloaded,
        message: "server at connection capacity".to_string(),
    })
}

/// Thin wrappers over the epoll/eventfd syscalls. `std` links libc on
/// every supported platform, so the symbols are already in the
/// process; declaring them here keeps the crate dependency-free.
mod sys {
    use std::fs::File;
    use std::io::{self, Read, Write};
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
    const EFD_CLOEXEC: i32 = 0o2000000;
    const EFD_NONBLOCK: i32 = 0o4000;

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
        fn eventfd(initval: u32, flags: i32) -> i32;
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

        /// Waits for events, filling `events` from the front. Returns
        /// the number of events. `timeout_ms` of `None` blocks until
        /// an event (or a wake) arrives.
        pub fn wait(
            &self,
            events: &mut [EpollEvent],
            timeout_ms: Option<i32>,
        ) -> io::Result<usize> {
            loop {
                // SAFETY: the pointer/length pair describes `events`,
                // which outlives the call.
                let n = unsafe {
                    epoll_wait(
                        self.ep.as_raw_fd(),
                        events.as_mut_ptr(),
                        events.len() as i32,
                        timeout_ms.unwrap_or(-1),
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

    /// An eventfd used to kick an event loop out of `epoll_wait` —
    /// for shutdown and for handing freshly accepted connections over.
    /// Wrapped in a [`File`] so reads and writes go through `std`'s
    /// plain fd I/O (`&File` implements `Read`/`Write`).
    pub struct WakeFd {
        file: File,
    }

    impl WakeFd {
        pub fn new() -> io::Result<Self> {
            // SAFETY: eventfd takes no pointers; a negative return is
            // mapped to errno.
            let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
            // SAFETY: fresh fd, owned by nothing else.
            let owned = unsafe { OwnedFd::from_raw_fd(fd) };
            Ok(Self {
                file: File::from(owned),
            })
        }

        pub fn as_raw_fd(&self) -> RawFd {
            self.file.as_raw_fd()
        }

        /// Bumps the counter; wakes any epoll waiting on this fd. A
        /// full counter (EAGAIN) already means a wake is pending, so
        /// the result is ignored.
        pub fn wake(&self) {
            let _ = (&self.file).write(&1u64.to_ne_bytes());
        }

        /// Clears the counter so the next `wake` edge is observable.
        pub fn drain(&self) {
            let mut buf = [0u8; 8];
            let _ = (&self.file).read(&mut buf);
        }
    }
}

use sys::{EpollEvent, Poller, WakeFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};

/// Token reserved for the per-loop wake eventfd.
const WAKE_TOKEN: u64 = u64::MAX;

/// How many bytes one nonblocking read asks for.
const READ_CHUNK: usize = 16 * 1024;

/// Consumed-prefix length past which the input buffer is compacted.
const COMPACT_THRESHOLD: usize = 8 * 1024;

/// The write budget for one refusal frame: the refusal is best-effort,
/// and the close is the real signal.
const REFUSAL_DEADLINE: Duration = Duration::from_millis(250);

/// Timer-wheel granularity, and the longest an event loop sleeps in
/// `epoll_wait`: deadlines fire within one tick of their due time.
const TIMER_TICK: Duration = Duration::from_millis(10);

/// Tunables for [`ReactorServer`]: its deadlines and connection cap,
/// plus the number of event loops.
#[derive(Debug, Clone, Copy)]
pub struct ReactorConfig {
    /// Deadlines and the connection cap (`read_timeout` is the idle
    /// cut, `request_deadline` the whole-frame budget). The default cap
    /// is small; raise it into the thousands to hold many mostly-idle
    /// connections.
    pub server: ServerConfig,
    /// Event-loop threads. Connections are sharded across them by
    /// file descriptor. Defaults to the runtime thread count, clamped
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

/// A hashed timer wheel: coarse-grained deadline scheduling in O(1)
/// arm and O(slots touched) advance. Entries are only *hints* to
/// re-check a connection around its deadline; the precise deadlines
/// live on the connection, so a deadline that moved later is simply
/// re-armed when its stale entry fires (lazy cancellation), and a
/// closed slot is recognized by its generation counter.
struct TimerWheel {
    slots: Vec<Vec<WheelEntry>>,
    tick: Duration,
    epoch: Instant,
    /// Ticks fully processed.
    cursor: u64,
}

#[derive(Clone, Copy)]
struct WheelEntry {
    tick: u64,
    slot: usize,
    gen: u64,
}

impl TimerWheel {
    fn new(tick: Duration, slots: usize, epoch: Instant) -> Self {
        Self {
            slots: (0..slots).map(|_| Vec::new()).collect(),
            tick: tick.max(Duration::from_millis(1)),
            epoch,
            cursor: 0,
        }
    }

    /// The tick at (or just after) `when`, never in the past.
    fn tick_for(&self, when: Instant) -> u64 {
        let dt = when.saturating_duration_since(self.epoch);
        let t = (dt.as_nanos() / self.tick.as_nanos()) as u64 + 1;
        t.max(self.cursor + 1)
    }

    /// Schedules a check of `(slot, gen)` at `when`; returns the tick
    /// the entry landed on.
    fn arm(&mut self, when: Instant, slot: usize, gen: u64) -> u64 {
        let tick = self.tick_for(when);
        let idx = (tick % self.slots.len() as u64) as usize;
        self.slots[idx].push(WheelEntry { tick, slot, gen });
        tick
    }

    /// Advances the wheel to `now`, moving every due entry into `due`
    /// as `(slot, gen, tick)`. Entries from future wheel rounds that
    /// share a bucket stay in place.
    fn advance_into(&mut self, now: Instant, due: &mut Vec<(usize, u64, u64)>) {
        let elapsed = now.saturating_duration_since(self.epoch);
        let target = (elapsed.as_nanos() / self.tick.as_nanos()) as u64;
        while self.cursor < target {
            self.cursor += 1;
            let idx = (self.cursor % self.slots.len() as u64) as usize;
            let bucket = &mut self.slots[idx];
            let mut i = 0;
            while i < bucket.len() {
                if bucket[i].tick <= self.cursor {
                    let e = bucket.swap_remove(i);
                    due.push((e.slot, e.gen, e.tick));
                } else {
                    i += 1;
                }
            }
        }
    }
}

/// How a freshly accepted connection enters an event loop.
enum Admission {
    /// Under the cap: serve requests.
    Serve,
    /// Over the cap: write the typed `Overloaded` frame, then close.
    Refuse,
}

/// What a connection is doing.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// The request/reply cycle.
    Serving,
    /// Flushing a refusal or a malformed-request error frame; close as
    /// soon as the queue drains. No further reads are processed.
    Draining,
}

/// One connection's state: buffers, phase, and deadlines.
struct Conn {
    stream: TcpStream,
    phase: Phase,
    /// Distinguishes this occupant of the slab slot from earlier ones,
    /// so stale timer entries can't touch a reused slot.
    gen: u64,
    /// Events currently registered with epoll.
    interest: u32,
    /// Buffered request bytes; `in_pos` marks the consumed prefix.
    inbuf: Vec<u8>,
    in_pos: usize,
    /// The write queue: reply frames not yet accepted by the socket.
    pending: Vec<u8>,
    pending_pos: usize,
    /// Replies encoded since the last flush — written straight from
    /// here (vectored with the queue tail) in the common case, folded
    /// into `pending` only when the socket pushes back.
    fresh: Vec<u8>,
    /// Peer half-closed its write side; close once replies drain.
    eof: bool,
    /// Idle cut: reset on every successful read.
    idle_at: Instant,
    /// Whole-frame budget: reset at each request boundary.
    frame_at: Instant,
    /// Armed while the write queue is nonempty.
    write_at: Option<Instant>,
    /// Wheel tick of the soonest scheduled check, for dedupe.
    armed_tick: u64,
    /// This connection holds a slot in `ServeCounters::active`.
    counted: bool,
}

impl Conn {
    fn earliest_deadline(&self) -> Instant {
        let mut earliest = self.idle_at.min(self.frame_at);
        if let Some(w) = self.write_at {
            earliest = earliest.min(w);
        }
        earliest
    }

    fn has_backlog(&self) -> bool {
        self.pending.len() > self.pending_pos || !self.fresh.is_empty()
    }

    /// Pushes queued reply bytes into the socket; `Ok(true)` when
    /// everything has been written. Uses one plain write when only one
    /// span exists and one vectored write when a fresh reply sits
    /// behind an undrained queue tail — the fresh bytes are only
    /// memcpy'd into the queue if the socket refuses them.
    fn flush(&mut self) -> std::io::Result<bool> {
        loop {
            let a_len = self.pending.len() - self.pending_pos;
            let b_len = self.fresh.len();
            if a_len == 0 && b_len == 0 {
                self.pending.clear();
                self.pending_pos = 0;
                return Ok(true);
            }
            let res = if a_len == 0 {
                self.stream.write(&self.fresh)
            } else if b_len == 0 {
                self.stream.write(&self.pending[self.pending_pos..])
            } else {
                self.stream.write_vectored(&[
                    IoSlice::new(&self.pending[self.pending_pos..]),
                    IoSlice::new(&self.fresh),
                ])
            };
            match res {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    let from_a = n.min(a_len);
                    self.pending_pos += from_a;
                    let from_b = n - from_a;
                    if self.pending_pos == self.pending.len() && b_len > 0 {
                        // Queue drained mid-write: the unwritten tail
                        // of `fresh` becomes the queue without a copy.
                        std::mem::swap(&mut self.pending, &mut self.fresh);
                        self.fresh.clear();
                        self.pending_pos = from_b;
                    } else {
                        debug_assert_eq!(from_b, 0);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if !self.fresh.is_empty() {
                        if self.pending_pos == self.pending.len() {
                            std::mem::swap(&mut self.pending, &mut self.fresh);
                            self.pending_pos = 0;
                        } else {
                            self.pending.extend_from_slice(&self.fresh);
                        }
                        self.fresh.clear();
                    }
                    return Ok(false);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// The channel a listener hands accepted sockets over on, one per
/// event loop.
struct LoopShared {
    wake: WakeFd,
    inbox: Mutex<VecDeque<(TcpStream, Admission)>>,
}

/// Why a connection is being torn down.
enum Close {
    /// Hang up with nothing more to say (peer gone, deadline hit,
    /// shutdown).
    Silent,
    /// An error frame is queued; drain it, then hang up.
    AfterDrain,
}

struct EventLoop<D: Dispatch> {
    poller: Poller,
    shared: Arc<LoopShared>,
    state: Arc<Mutex<D>>,
    counters: Arc<ServeCounters>,
    shutdown: Arc<AtomicBool>,
    config: ReactorConfig,
    wheel: TimerWheel,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Slots closed during the current event batch; merged into `free`
    /// only after the batch, so a stale event in the same batch cannot
    /// reach a recycled slot.
    freed: Vec<usize>,
    next_gen: u64,
}

impl<D: Dispatch> EventLoop<D> {
    fn run(mut self) {
        let mut events = vec![EpollEvent { events: 0, data: 0 }; 256];
        let mut due: Vec<(usize, u64, u64)> = Vec::new();
        let tick_ms = TIMER_TICK.as_millis() as i32;
        while let Ok(n) = self.poller.wait(&mut events, Some(tick_ms)) {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            for ev in &events[..n] {
                let token = ev.data;
                let bits = ev.events;
                if token == WAKE_TOKEN {
                    self.shared.wake.drain();
                    continue;
                }
                self.handle_event(token as usize, bits);
            }
            self.register_arrivals();
            let now = Instant::now();
            self.wheel.advance_into(now, &mut due);
            for (slot, gen, tick) in due.drain(..) {
                self.handle_timer(slot, gen, tick, now);
            }
            self.free.append(&mut self.freed);
        }
        // Shutdown: drop every connection — to clients this looks like
        // a crash.
    }

    /// Moves freshly accepted connections from the inbox into the
    /// slab and registers them with epoll.
    fn register_arrivals(&mut self) {
        loop {
            let next = self
                .shared
                .inbox
                .lock()
                .expect("inbox poisoned")
                .pop_front();
            let Some((stream, admission)) = next else {
                return;
            };
            let now = Instant::now();
            let gen = self.next_gen;
            self.next_gen += 1;
            let (phase, counted) = match admission {
                Admission::Serve => (Phase::Serving, true),
                Admission::Refuse => (Phase::Draining, false),
            };
            let mut conn = Conn {
                stream,
                phase,
                gen,
                interest: 0,
                inbuf: Vec::new(),
                in_pos: 0,
                pending: Vec::new(),
                pending_pos: 0,
                fresh: Vec::new(),
                eof: false,
                idle_at: now + self.config.server.read_timeout,
                frame_at: now + self.config.server.request_deadline,
                write_at: None,
                armed_tick: 0,
                counted,
            };
            if let Admission::Refuse = admission {
                // The refusal is best-effort with a tight budget,
                // written from the event loop itself.
                append_response_frame(&mut conn.fresh, &overload_response());
                conn.idle_at = now + REFUSAL_DEADLINE;
                conn.frame_at = conn.idle_at;
                if matches!(conn.flush(), Ok(true) | Err(_)) {
                    // Written whole (or the peer is already gone):
                    // close without ever registering.
                    if conn.counted {
                        self.counters.active.fetch_sub(1, Ordering::SeqCst);
                    }
                    continue;
                }
            }
            let slot = match self.free.pop() {
                Some(s) => s,
                None => {
                    self.conns.push(None);
                    self.conns.len() - 1
                }
            };
            let interest = match conn.phase {
                Phase::Serving => EPOLLIN | EPOLLRDHUP,
                Phase::Draining => EPOLLOUT,
            };
            conn.interest = interest;
            let fd = conn.stream.as_raw_fd();
            if self.poller.add(fd, interest, slot as u64).is_err() {
                if conn.counted {
                    self.counters.active.fetch_sub(1, Ordering::SeqCst);
                }
                self.free.push(slot);
                continue;
            }
            self.conns[slot] = Some(conn);
            self.schedule(slot);
        }
    }

    /// Re-arms the wheel for a connection's earliest deadline, unless
    /// an earlier-or-equal check is already scheduled.
    fn schedule(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        let when = conn.earliest_deadline();
        let tick = self.wheel.tick_for(when);
        if conn.armed_tick > self.wheel.cursor && conn.armed_tick <= tick {
            return;
        }
        conn.armed_tick = self.wheel.arm(when, slot, conn.gen);
    }

    fn handle_timer(&mut self, slot: usize, gen: u64, tick: u64, now: Instant) {
        let Some(conn) = self.conns.get(slot).and_then(|c| c.as_ref()) else {
            return;
        };
        if conn.gen != gen || conn.armed_tick != tick {
            return; // superseded or recycled
        }
        if conn.earliest_deadline() <= now {
            // Deadlines close silently: the peer reads an EOF, not an
            // excuse.
            self.close(slot);
        } else {
            self.schedule(slot);
        }
    }

    fn handle_event(&mut self, slot: usize, bits: u32) {
        let Some(conn) = self.conns.get(slot).and_then(|c| c.as_ref()) else {
            return; // closed earlier in this batch, or never a slot
        };
        if bits & (EPOLLERR | EPOLLHUP) != 0 {
            // On a draining connection give the queue one last push —
            // EPOLLHUP with a refusal queued usually means the peer
            // closed its read side after we saw it.
            if conn.phase == Phase::Draining {
                if let Some(c) = self.conns[slot].as_mut() {
                    let _ = c.flush();
                }
            }
            self.close(slot);
            return;
        }
        match conn.phase {
            Phase::Draining => {
                if bits & (EPOLLOUT | EPOLLIN | EPOLLRDHUP) != 0 {
                    self.drain_step(slot);
                }
            }
            Phase::Serving => {
                let mut closing: Option<Close> = None;
                if bits & (EPOLLIN | EPOLLRDHUP) != 0 {
                    closing = self.readable(slot);
                }
                if closing.is_none() && self.conns[slot].is_some() {
                    closing = self.flush_and_update(slot);
                }
                match closing {
                    Some(Close::Silent) => self.close(slot),
                    Some(Close::AfterDrain) => {
                        if let Some(c) = self.conns[slot].as_mut() {
                            c.phase = Phase::Draining;
                            if !c.has_backlog() {
                                self.close(slot);
                            } else {
                                self.update_interest(slot);
                            }
                        }
                    }
                    None => {}
                }
            }
        }
    }

    /// One readable step: pull bytes, then dispatch every complete
    /// frame in arrival order (pipelining), appending replies to the
    /// write queue in the same order.
    fn readable(&mut self, slot: usize) -> Option<Close> {
        let now = Instant::now();
        // Read until the socket runs dry.
        {
            let conn = self.conns[slot].as_mut()?;
            loop {
                let old = conn.inbuf.len();
                conn.inbuf.resize(old + READ_CHUNK, 0);
                match conn.stream.read(&mut conn.inbuf[old..]) {
                    Ok(0) => {
                        conn.inbuf.truncate(old);
                        conn.eof = true;
                        break;
                    }
                    Ok(n) => {
                        conn.inbuf.truncate(old + n);
                        conn.idle_at = now + self.config.server.read_timeout;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        conn.inbuf.truncate(old);
                        break;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
                        conn.inbuf.truncate(old);
                    }
                    Err(_) => {
                        conn.inbuf.truncate(old);
                        return Some(Close::Silent);
                    }
                }
            }
        }
        // Dispatch complete frames.
        let malformed = self.process_frames(slot);
        let conn = self.conns[slot].as_mut()?;
        if let Some(e) = malformed {
            // A typed refusal, then close: the stream can no longer be
            // trusted to be frame-aligned.
            let resp = Response::Error(ErrorReply {
                code: ErrorCode::BadRequest,
                message: format!("malformed request: {e}"),
            });
            append_response_frame(&mut conn.fresh, &resp);
            return Some(Close::AfterDrain);
        }
        if conn.eof {
            // Peer half-closed: answer what was pipelined, then leave.
            return Some(Close::AfterDrain);
        }
        // Compact the consumed prefix once it is worth the memmove.
        if conn.in_pos == conn.inbuf.len() {
            conn.inbuf.clear();
            conn.in_pos = 0;
        } else if conn.in_pos > COMPACT_THRESHOLD {
            conn.inbuf.drain(..conn.in_pos);
            conn.in_pos = 0;
        }
        None
    }

    /// Dispatches every complete frame buffered on `slot`. Returns the
    /// wire error of the first malformed frame, if any.
    fn process_frames(&mut self, slot: usize) -> Option<WireError> {
        loop {
            let (req, frame_len) = {
                let conn = self.conns[slot].as_ref()?;
                match split_frame(&conn.inbuf[conn.in_pos..]) {
                    // Reading-header or reading-payload state: wait for
                    // the rest. The whole-frame budget armed at the last
                    // request boundary keeps counting.
                    Err(WireError::Truncated) => return None,
                    Err(e) => return Some(e),
                    // Same refusal (and the same "wait for the full
                    // payload first" behavior) as `read_request`.
                    Ok((FrameKind::Response, _)) => return Some(WireError::BadKind(1)),
                    Ok((FrameKind::Request, payload)) => match Request::decode(payload) {
                        Ok(req) => (req, HEADER_LEN + payload.len()),
                        Err(e) => return Some(e),
                    },
                }
            };
            if self.shutdown.load(Ordering::SeqCst) {
                // Hang up without answering once shutdown begins, the
                // way a killed process would.
                let conn = self.conns[slot].as_mut()?;
                conn.eof = true;
                conn.fresh.clear();
                conn.pending.clear();
                conn.pending_pos = 0;
                return None;
            }
            {
                let conn = self.conns[slot].as_mut()?;
                let mut state = self.state.lock().expect("server state poisoned");
                state.dispatch_frame(&req, &mut conn.fresh);
                drop(state);
                conn.in_pos += frame_len;
                // Request boundary: a fresh whole-frame budget.
                conn.frame_at = Instant::now() + self.config.server.request_deadline;
            }
        }
    }

    /// Flushes after serving; manages EPOLLOUT interest and the write
    /// deadline.
    fn flush_and_update(&mut self, slot: usize) -> Option<Close> {
        let conn = self.conns[slot].as_mut()?;
        match conn.flush() {
            Ok(true) => {
                conn.write_at = None;
                if conn.eof {
                    return Some(Close::Silent);
                }
            }
            Ok(false) => {
                if conn.write_at.is_none() {
                    conn.write_at = Some(Instant::now() + WRITE_TIMEOUT);
                }
            }
            Err(_) => return Some(Close::Silent),
        }
        self.update_interest(slot);
        self.schedule(slot);
        None
    }

    /// Syncs epoll interest with the connection's phase and backlog.
    fn update_interest(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        let desired = match conn.phase {
            Phase::Serving => {
                let mut d = EPOLLIN | EPOLLRDHUP;
                if conn.has_backlog() {
                    d |= EPOLLOUT;
                }
                d
            }
            Phase::Draining => EPOLLOUT,
        };
        if desired != conn.interest {
            let fd = conn.stream.as_raw_fd();
            if self.poller.modify(fd, desired, slot as u64).is_ok() {
                conn.interest = desired;
            }
        }
    }

    /// One step of draining a refusal/error frame.
    fn drain_step(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        match conn.flush() {
            Ok(true) | Err(_) => self.close(slot),
            Ok(false) => {
                self.update_interest(slot);
                self.schedule(slot);
            }
        }
    }

    fn close(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].take() {
            let _ = self.poller.delete(conn.stream.as_raw_fd());
            if conn.counted {
                self.counters.active.fetch_sub(1, Ordering::SeqCst);
            }
            // The TcpStream drops (and closes) here.
            self.freed.push(slot);
        }
    }
}

fn run_listener(
    listener: TcpListener,
    poller: Poller,
    wake: Arc<WakeFd>,
    loops: Vec<Arc<LoopShared>>,
    counters: Arc<ServeCounters>,
    shutdown: Arc<AtomicBool>,
    config: ReactorConfig,
) {
    const LISTENER_TOKEN: u64 = 0;
    if poller
        .add(listener.as_raw_fd(), EPOLLIN, LISTENER_TOKEN)
        .is_err()
        || poller.add(wake.as_raw_fd(), EPOLLIN, WAKE_TOKEN).is_err()
    {
        return;
    }
    let mut events = vec![EpollEvent { events: 0, data: 0 }; 64];
    loop {
        let n = match poller.wait(&mut events, None) {
            Ok(n) => n,
            Err(_) => return,
        };
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let mut accept_ready = false;
        for ev in &events[..n] {
            match ev.data {
                WAKE_TOKEN => wake.drain(),
                _ => accept_ready = true,
            }
        }
        if !accept_ready {
            continue;
        }
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // The accept gate: admission control happens here,
                    // in the reactor, and the refusal frame is written
                    // by an event loop — never a detached thread.
                    let over =
                        counters.active.load(Ordering::SeqCst) >= config.server.max_connections;
                    let admission = if over {
                        counters.refused.fetch_add(1, Ordering::SeqCst);
                        Admission::Refuse
                    } else {
                        counters.accepted.fetch_add(1, Ordering::SeqCst);
                        counters.active.fetch_add(1, Ordering::SeqCst);
                        Admission::Serve
                    };
                    // Shard by fd: cheap, stable, and uniform enough —
                    // fds are densely recycled integers.
                    let li = (stream.as_raw_fd() as usize) % loops.len();
                    loops[li]
                        .inbox
                        .lock()
                        .expect("inbox poisoned")
                        .push_back((stream, admission));
                    loops[li].wake.wake();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }
}

/// A running forecast server bound to a local port: spawn it over any
/// [`Dispatch`] state, read its admission counters, shut it down. It
/// holds thousands of concurrent connections on `1 + event_loops`
/// threads.
pub struct ReactorServer<D: Dispatch + 'static = GridState> {
    addr: SocketAddr,
    state: Arc<Mutex<D>>,
    shutdown: Arc<AtomicBool>,
    counters: Arc<ServeCounters>,
    listener_wake: Arc<WakeFd>,
    loops: Vec<Arc<LoopShared>>,
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
        let shutdown = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(ServeCounters::default());
        let n_loops = config.event_loops.max(1);
        let listener_poller = Poller::new()?;
        let listener_wake = Arc::new(WakeFd::new()?);
        let mut loops = Vec::with_capacity(n_loops);
        let mut loop_pollers = Vec::with_capacity(n_loops);
        for _ in 0..n_loops {
            let shared = Arc::new(LoopShared {
                wake: WakeFd::new()?,
                inbox: Mutex::new(VecDeque::new()),
            });
            let poller = Poller::new()?;
            poller.add(shared.wake.as_raw_fd(), EPOLLIN, WAKE_TOKEN)?;
            loops.push(shared);
            loop_pollers.push(poller);
        }
        let mut threads = Vec::with_capacity(n_loops + 1);
        let epoch = Instant::now();
        for (shared, poller) in loops.iter().cloned().zip(loop_pollers) {
            let ev = EventLoop {
                poller,
                shared,
                state: Arc::clone(&state),
                counters: Arc::clone(&counters),
                shutdown: Arc::clone(&shutdown),
                config,
                wheel: TimerWheel::new(TIMER_TICK, 512, epoch),
                conns: Vec::new(),
                free: Vec::new(),
                freed: Vec::new(),
                next_gen: 1,
            };
            threads.push(std::thread::spawn(move || ev.run()));
        }
        {
            let loops = loops.clone();
            let counters = Arc::clone(&counters);
            let shutdown = Arc::clone(&shutdown);
            let wake = Arc::clone(&listener_wake);
            threads.push(std::thread::spawn(move || {
                run_listener(
                    listener,
                    listener_poller,
                    wake,
                    loops,
                    counters,
                    shutdown,
                    config,
                )
            }));
        }
        Ok(Self {
            addr,
            state,
            shutdown,
            counters,
            listener_wake,
            loops,
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

    /// Stops the listener and the event loops and joins them. Open
    /// connections are dropped, so a shutdown looks like a crash to
    /// connected clients.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.listener_wake.wake();
        for l in &self.loops {
            l.wake.wake();
        }
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
    fn wheel_fires_once_per_arm_and_keeps_future_rounds() {
        let epoch = Instant::now();
        let mut wheel = TimerWheel::new(Duration::from_millis(10), 8, epoch);
        // Two entries 8 slots apart share a bucket; advancing past the
        // first must not spill the second.
        let near = wheel.arm(epoch + Duration::from_millis(20), 1, 7);
        let far = wheel.arm(epoch + Duration::from_millis(100), 2, 9);
        assert_eq!(far - near, 8, "chosen to collide in one bucket");
        let mut due = Vec::new();
        wheel.advance_into(epoch + Duration::from_millis(40), &mut due);
        assert_eq!(due, vec![(1, 7, near)]);
        due.clear();
        wheel.advance_into(epoch + Duration::from_millis(120), &mut due);
        assert_eq!(due, vec![(2, 9, far)]);
        due.clear();
        wheel.advance_into(epoch + Duration::from_millis(200), &mut due);
        assert!(due.is_empty(), "entries fire exactly once");
    }

    #[test]
    fn wheel_never_arms_in_the_past() {
        let epoch = Instant::now();
        let mut wheel = TimerWheel::new(Duration::from_millis(10), 8, epoch);
        let mut due = Vec::new();
        wheel.advance_into(epoch + Duration::from_millis(55), &mut due);
        // A deadline already in the past lands on the next tick, not a
        // tick the cursor has already passed (which would never fire).
        let t = wheel.arm(epoch, 3, 1);
        assert!(t > wheel.cursor);
        wheel.advance_into(epoch + Duration::from_millis(75), &mut due);
        assert_eq!(due, vec![(3, 1, t)]);
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
    fn refusal_is_prompt_even_against_a_peer_that_never_reads() {
        let server = refusing_reactor();
        // A hostile peer: connects, never reads its refusal. The next
        // refusal must not wait on this socket's write path.
        let _hostile = TcpStream::connect(server.addr()).expect("connect");
        std::thread::sleep(Duration::from_millis(50));
        let started = Instant::now();
        let mut client = NwsClient::connect(
            server.addr(),
            ClientConfig {
                retries: 0,
                io_timeout: Duration::from_secs(2),
                ..ClientConfig::default()
            },
        )
        .expect("connect");
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

    #[test]
    fn connection_churn_under_a_tight_cap() {
        let server = warm_reactor(ReactorConfig {
            server: ServerConfig {
                max_connections: 2,
                ..ServerConfig::default()
            },
            ..ReactorConfig::default()
        });
        let quick = ClientConfig {
            retries: 0,
            io_timeout: Duration::from_secs(2),
            ..ClientConfig::default()
        };
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
