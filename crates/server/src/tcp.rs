//! The TCP server: a threaded `std::net` listener speaking the wire
//! protocol in front of any shared [`Dispatch`] state — the primary
//! [`GridState`] by default, or a [`ReplicaState`](crate::ReplicaState)
//! fed from a primary's journal.
//!
//! One thread per live connection, bounded by
//! [`ServerConfig::max_connections`] (derived from the deterministic
//! runtime's thread count by default), with per-connection read/write
//! deadlines so a stalled peer cannot pin a handler thread forever.

use crate::state::{Dispatch, GridState};
use nws_wire::{
    encode_response_frame, read_request, write_response, ErrorCode, ErrorReply, Response, WireError,
};
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a single response write may take before the server gives
/// the connection up — on the threaded server a socket write timeout,
/// on the reactor the stalled-writer deadline.
pub(crate) const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Tunables for [`NwsServer`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// How long a connection may sit idle between requests before the
    /// server hangs up.
    pub read_timeout: Duration,
    /// Wall-clock budget for receiving one complete request frame.
    /// `read_timeout` bounds each read(2), so a peer trickling one
    /// byte per timeout window could pin a handler thread forever;
    /// this deadline caps the whole frame. Keep it at or above
    /// `read_timeout` or idle keep-alive connections will be cut early.
    pub request_deadline: Duration,
    /// Connections served concurrently; excess connections are
    /// answered and closed immediately.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            read_timeout: Duration::from_secs(5),
            request_deadline: Duration::from_secs(10),
            // Bound in-flight work by the runtime's configured
            // parallelism (never below two, so one slow client can't
            // starve the server in single-threaded runs).
            max_connections: nws_runtime::threads().max(2),
        }
    }
}

/// Accept-loop counters, shared with the server handle so a load
/// harness can watch admission behavior while traffic runs. The
/// threaded server and the epoll reactor keep them the same way:
/// `accepted`/`active` move at admission, `refused` at the cap.
#[derive(Debug, Default)]
pub struct ServeCounters {
    /// Connections admitted to service.
    pub(crate) accepted: AtomicU64,
    /// Connections turned away at the cap with a typed `Overloaded`.
    pub(crate) refused: AtomicU64,
    /// Connections being served right now.
    pub(crate) active: AtomicUsize,
}

/// The typed refusal an over-capacity connection is answered with —
/// shared by the threaded server's detached refusal path and the
/// reactor's accept gate, so the refusal bytes are identical.
pub(crate) fn overload_response() -> Response {
    Response::Error(ErrorReply {
        code: ErrorCode::Overloaded,
        message: "server at connection capacity".to_string(),
    })
}

/// A running forecast server bound to a local port, generic over what
/// it serves (the primary grid by default).
pub struct NwsServer<D: Dispatch + 'static = GridState> {
    addr: SocketAddr,
    state: Arc<Mutex<D>>,
    shutdown: Arc<AtomicBool>,
    counters: Arc<ServeCounters>,
    accept_thread: Option<JoinHandle<()>>,
}

impl<D: Dispatch + 'static> NwsServer<D> {
    /// Spawns the accept loop on an OS-assigned localhost port.
    pub fn spawn(state: D, config: ServerConfig) -> std::io::Result<Self> {
        Self::spawn_shared(Arc::new(Mutex::new(state)), config)
    }

    /// Spawns the accept loop over state shared with the caller (so a
    /// driver can keep ticking the grid while the server runs).
    pub fn spawn_shared(state: Arc<Mutex<D>>, config: ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        // Poll the shutdown flag between accepts instead of blocking
        // forever in accept(2).
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(ServeCounters::default());
        let accept_thread = {
            let state = Arc::clone(&state);
            let shutdown = Arc::clone(&shutdown);
            let counters = Arc::clone(&counters);
            std::thread::spawn(move || accept_loop(listener, state, shutdown, counters, config))
        };
        Ok(Self {
            addr,
            state,
            shutdown,
            counters,
            accept_thread: Some(accept_thread),
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

    /// Connections admitted to a handler thread so far.
    pub fn accepted(&self) -> u64 {
        self.counters.accepted.load(Ordering::SeqCst)
    }

    /// Connections turned away at the cap with a typed `Overloaded`.
    pub fn refused(&self) -> u64 {
        self.counters.refused.load(Ordering::SeqCst)
    }

    /// Handler threads serving connections right now.
    pub fn active_connections(&self) -> usize {
        self.counters.active.load(Ordering::SeqCst)
    }

    /// Stops accepting and joins the accept thread. Handler threads
    /// for already-open connections hang up at their next request
    /// boundary (or drain on their read deadlines if idle), so a
    /// shutdown looks like a crash to connected clients.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

impl<D: Dispatch + 'static> Drop for NwsServer<D> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop<D: Dispatch + 'static>(
    listener: TcpListener,
    state: Arc<Mutex<D>>,
    shutdown: Arc<AtomicBool>,
    counters: Arc<ServeCounters>,
    config: ServerConfig,
) {
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                if counters.active.load(Ordering::SeqCst) >= config.max_connections {
                    // Over the in-flight bound: refuse politely, but
                    // never from this thread — a peer that connects and
                    // then refuses to read could otherwise stall the
                    // accept loop for a full write timeout.
                    counters.refused.fetch_add(1, Ordering::SeqCst);
                    std::thread::spawn(move || refuse(stream));
                    continue;
                }
                counters.accepted.fetch_add(1, Ordering::SeqCst);
                counters.active.fetch_add(1, Ordering::SeqCst);
                let state = Arc::clone(&state);
                let counters = Arc::clone(&counters);
                let shutdown = Arc::clone(&shutdown);
                std::thread::spawn(move || {
                    handle_conn(stream, state, shutdown, config);
                    counters.active.fetch_sub(1, Ordering::SeqCst);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
}

/// Answers one over-capacity connection with a typed `Overloaded`
/// frame, then closes. Runs on a short-lived detached thread with its
/// own tight write deadline: the refusal is best-effort, and the close
/// is the real signal.
fn refuse(stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let mut w = BufWriter::new(stream);
    if write_response(&mut w, &overload_response()).is_ok() {
        let _ = w.flush();
    }
}

/// A [`TcpStream`] reader that layers a per-request wall-clock
/// deadline on top of the per-read timeout. Each `read` narrows the
/// socket timeout to whatever is left of the armed budget, so a peer
/// trickling a frame one byte at a time runs out of wall clock instead
/// of resetting the idle timer with every byte.
struct DeadlineStream {
    stream: TcpStream,
    per_read: Duration,
    deadline: Instant,
}

impl DeadlineStream {
    fn new(stream: TcpStream, per_read: Duration) -> Self {
        Self {
            stream,
            per_read,
            deadline: Instant::now(),
        }
    }

    /// Starts a fresh budget; called at each request boundary.
    fn arm(&mut self, budget: Duration) {
        self.deadline = Instant::now() + budget;
    }
}

impl Read for DeadlineStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let remaining = self.deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "request deadline exceeded",
            ));
        }
        // Never pass a zero timeout: that would mean "block forever".
        let slice = remaining.min(self.per_read).max(Duration::from_millis(1));
        self.stream.set_read_timeout(Some(slice))?;
        self.stream.read(buf)
    }
}

/// Serves one connection: read a request frame, dispatch, write the
/// response frame, repeat until the peer hangs up, idles past the read
/// deadline, or sends a malformed frame.
fn handle_conn<D: Dispatch>(
    stream: TcpStream,
    state: Arc<Mutex<D>>,
    shutdown: Arc<AtomicBool>,
    config: ServerConfig,
) {
    if stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_err() {
        return;
    }
    let reader_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = BufReader::new(DeadlineStream::new(reader_stream, config.read_timeout));
    let mut writer = BufWriter::new(stream);
    // One encode scratch per connection: every reply frame is built in
    // this buffer, so steady-state serving does not allocate per reply.
    let mut scratch = Vec::new();
    loop {
        // Arm the whole-frame budget at the request boundary. An idle
        // keep-alive peer is still cut by the per-read timeout first
        // (the deadline is the larger of the two by default); only a
        // byte-trickling writer feels the difference.
        reader.get_mut().arm(config.request_deadline);
        let req = match read_request(&mut reader) {
            Ok(req) => req,
            Err(WireError::Truncated) | Err(WireError::Io(_)) => {
                // Peer hung up or idled out; nothing more to say.
                return;
            }
            Err(e) => {
                // Protocol violation: answer with a typed error frame,
                // then close — the stream can no longer be trusted to
                // be frame-aligned.
                let resp = Response::Error(ErrorReply {
                    code: ErrorCode::BadRequest,
                    message: format!("malformed request: {e}"),
                });
                encode_response_frame(&mut scratch, &resp);
                if writer.write_all(&scratch).is_ok() {
                    let _ = writer.flush();
                }
                return;
            }
        };
        if shutdown.load(Ordering::SeqCst) {
            // The server is going down: hang up without answering, the
            // way a killed process would.
            return;
        }
        scratch.clear();
        state
            .lock()
            .expect("server state poisoned")
            .dispatch_frame(&req, &mut scratch);
        if writer.write_all(&scratch).is_err() || writer.flush().is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Transport;
    use crate::{ClientConfig, NwsClient};
    use nws_grid::{GridMonitor, GridMonitorConfig};
    use nws_sim::HostProfile;
    use nws_wire::Request;

    fn warm_server(config: ServerConfig) -> NwsServer {
        let mut grid = GridMonitor::new(
            &[HostProfile::Thing1, HostProfile::Gremlin],
            21,
            GridMonitorConfig::default(),
        );
        grid.run_steps(50);
        NwsServer::spawn(GridState::new(grid), config).expect("bind localhost")
    }

    #[test]
    fn serves_typed_queries_over_tcp() {
        let server = warm_server(ServerConfig::default());
        let mut client =
            NwsClient::connect(server.addr(), ClientConfig::default()).expect("connect");
        let fc = client.forecast("thing1").expect("forecast");
        assert!((0.0..=1.0).contains(&fc.value));
        let snap = client.snapshot().expect("snapshot");
        assert_eq!(snap.hosts.len(), 2);
        let stats = client.stats().expect("stats");
        assert!(stats.requests >= 2);
    }

    #[test]
    fn malformed_frames_get_an_error_frame_not_a_hang() {
        use std::io::{Read, Write};
        let server = warm_server(ServerConfig::default());
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
        let (resp, _) = nws_wire::read_response(&mut reply.as_slice()).expect("error frame");
        match resp {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::BadRequest),
            other => panic!("wrong reply: {other:?}"),
        }
    }

    #[test]
    fn connection_cap_refuses_politely() {
        let server = warm_server(ServerConfig {
            max_connections: 0, // everything is over capacity
            ..ServerConfig::default()
        });
        let mut client = NwsClient::connect(
            server.addr(),
            ClientConfig {
                retries: 0,
                ..ClientConfig::default()
            },
        )
        .expect("connect");
        match client.call(&Request::Stats) {
            Ok(Response::Error(e)) => {
                assert_eq!(e.code, ErrorCode::Overloaded);
                assert!(e.message.contains("capacity"));
            }
            other => panic!("wrong result: {other:?}"),
        }
        assert!(server.refused() >= 1);
        assert_eq!(server.accepted(), 0);
    }

    #[test]
    fn refusal_is_prompt_even_against_a_peer_that_never_reads() {
        let server = warm_server(ServerConfig {
            max_connections: 0,
            ..ServerConfig::default()
        });
        // A hostile peer: connects, never reads its refusal. With the
        // refusal on a detached thread, the accept loop must keep
        // serving other refusals promptly instead of blocking on this
        // socket's write path.
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
        let server = warm_server(ServerConfig {
            max_connections: 2,
            ..ServerConfig::default()
        });
        let quick = ClientConfig {
            retries: 0,
            io_timeout: Duration::from_secs(2),
            ..ClientConfig::default()
        };
        // Two idle holders pin the cap.
        let hold_a = NwsClient::connect(server.addr(), quick).expect("holder a");
        let mut hold_b = NwsClient::connect(server.addr(), quick).expect("holder b");
        hold_b.stats().expect("holders are live");
        std::thread::sleep(Duration::from_millis(50));
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
                    // The freed slot may lag the socket close a moment.
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
        assert!(server.accepted() >= 20, "churn cycles were served");
        assert!(server.refused() >= 1, "the cap actually fired");
    }

    #[test]
    fn shutdown_joins_and_frees_the_port() {
        let mut server = warm_server(ServerConfig::default());
        let addr = server.addr();
        server.shutdown();
        // The accept loop is gone; a fresh connection gets no answer.
        match TcpStream::connect(addr) {
            Err(_) => {}
            Ok(stream) => {
                // Connection may still be accepted by the OS backlog,
                // but no handler will ever answer; a read must fail or
                // return EOF rather than data.
                use std::io::Read;
                stream
                    .set_read_timeout(Some(Duration::from_millis(300)))
                    .unwrap();
                let mut buf = [0u8; 1];
                let mut s = stream;
                assert!(matches!(s.read(&mut buf), Ok(0) | Err(_)));
            }
        }
    }
}
