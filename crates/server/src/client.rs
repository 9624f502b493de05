//! The typed TCP client: one call loop over a ring of endpoints — a
//! primary and its replicas, or the one server [`NwsClient::connect`]
//! dials.
//!
//! A forecast query is idempotent, so a failed exchange (an idled-out
//! connection, a restarted or dead server) is safely resent. A call
//! makes up to `retries + 1` passes over the ring from the preferred
//! endpoint, trying each endpoint once per pass. A transport failure or
//! a typed `Overloaded` refusal counts against the endpoint and moves
//! on; any other reply, typed errors ([`ServeError::Remote`]) included,
//! returns at once and makes its endpoint the preferred one. A pass
//! that no endpoint answers returns its last refusal if it met one, and
//! is retried otherwise, after the one wait: seeded, capped backoff.

use crate::transport::{ServeError, Transport};
use nws_wire::{encode_request_frame, read_response, ErrorCode, Request, Response, WireError};
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Tunables for [`NwsClient`].
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// Socket read/write deadline per exchange.
    pub io_timeout: Duration,
    /// Further passes over the endpoint ring when no endpoint answers.
    pub retries: u32,
    /// Delay before the first retry; doubles every retry after that.
    pub backoff_base: Duration,
    /// Ceiling the doubling saturates at.
    pub backoff_cap: Duration,
    /// Seed for the deterministic jitter stream. Give each client of a
    /// fleet its own seed so their retry schedules decorrelate.
    pub backoff_seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            io_timeout: Duration::from_secs(5),
            retries: 2,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_secs(1),
            backoff_seed: 0x5EED_BACC_0FF5_EED5,
        }
    }
}

/// Capped exponential backoff with a seeded, deterministic jitter
/// stream: attempt `n` waits `min(cap, base * 2^n) * u` where `u` is
/// drawn from `[0.5, 1.0)` by an xorshift64* generator. Two schedules
/// built from the same seed produce identical delays.
#[derive(Debug, Clone)]
pub(crate) struct Backoff {
    base: Duration,
    cap: Duration,
    state: u64,
}

impl Backoff {
    /// Builds a schedule; a zero seed is remapped so the generator
    /// never sticks at its one fixed point.
    pub(crate) fn new(base: Duration, cap: Duration, seed: u64) -> Self {
        Self {
            base,
            cap,
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// The next jitter factor in `[0.5, 1.0)` (xorshift64*).
    fn jitter(&mut self) -> f64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        let bits = x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11;
        0.5 + 0.5 * (bits as f64 / (1u64 << 53) as f64)
    }

    /// The delay to wait before retry number `attempt` (0-based).
    /// Advances the jitter stream exactly once per call.
    pub(crate) fn delay(&mut self, attempt: u32) -> Duration {
        let unjittered = (self.base.as_nanos() as f64) * 2f64.powi(attempt.min(63) as i32);
        let capped = unjittered.min(self.cap.as_nanos() as f64);
        Duration::from_nanos((capped * self.jitter()) as u64)
    }
}

/// A typed forecast client over a ring of one or more endpoints.
pub struct NwsClient {
    endpoints: Vec<Endpoint>,
    config: ClientConfig,
    /// Index of the endpoint answering calls right now.
    preferred: usize,
    /// Calls answered by an endpoint other than the one they started at.
    failovers: u64,
    /// Retry passes: each follows a pass no endpoint answered.
    reconnects: u64,
    /// Retry delays; the jitter stream runs on across calls.
    backoff: Backoff,
    /// Reused request-frame buffer: no allocation per exchange.
    scratch: Vec<u8>,
}

/// One endpoint of the ring and its health.
struct Endpoint {
    addr: SocketAddr,
    conn: Option<Conn>,
    /// Transport failures and refusals since its last answer.
    failures: u32,
}

impl Endpoint {
    fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            conn: None,
            failures: 0,
        }
    }
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl NwsClient {
    /// Dials one server and verifies the connection can be set up.
    pub fn connect(addr: SocketAddr, config: ClientConfig) -> Result<Self, ServeError> {
        let mut client = Self::over(&[addr], config);
        client.endpoints[0].conn = Some(dial(addr, config.io_timeout)?);
        Ok(client)
    }

    /// A client over `addrs`, primary first. Nothing is dialed until
    /// the first call.
    ///
    /// # Panics
    ///
    /// Panics if `addrs` is empty.
    pub fn over(addrs: &[SocketAddr], config: ClientConfig) -> Self {
        assert!(!addrs.is_empty(), "a client needs at least one endpoint");
        Self {
            endpoints: addrs.iter().map(|&addr| Endpoint::new(addr)).collect(),
            config,
            preferred: 0,
            failovers: 0,
            reconnects: 0,
            backoff: Backoff::new(config.backoff_base, config.backoff_cap, config.backoff_seed),
            scratch: Vec::new(),
        }
    }

    /// The endpoint currently answering calls.
    pub fn preferred(&self) -> SocketAddr {
        self.endpoints[self.preferred].addr
    }

    /// Calls that had to fail over to another endpoint.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// Retry passes performed so far, each after a backoff wait.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Transport failures and refusals recorded against each endpoint
    /// since its last answer, in constructor order.
    pub fn health(&self) -> Vec<u32> {
        self.endpoints.iter().map(|e| e.failures).collect()
    }

    /// Repoints endpoint `idx` at a new address — the operator move
    /// after a replica restarts on a fresh socket. Drops the slot's
    /// connection and clears its health; the preference order is
    /// unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range for the ring.
    pub fn set_endpoint(&mut self, idx: usize, addr: SocketAddr) {
        self.endpoints[idx] = Endpoint::new(addr);
    }
}

fn dial(addr: SocketAddr, io_timeout: Duration) -> Result<Conn, ServeError> {
    let stream = TcpStream::connect(addr).map_err(WireError::Io)?;
    stream
        .set_read_timeout(Some(io_timeout))
        .and_then(|()| stream.set_write_timeout(Some(io_timeout)))
        .map_err(WireError::Io)?;
    Ok(Conn {
        reader: BufReader::new(stream.try_clone().map_err(WireError::Io)?),
        writer: BufWriter::new(stream),
    })
}

/// One request/response exchange of an encoded request frame.
fn exchange(conn: &mut Conn, frame: &[u8]) -> Result<(Response, Vec<u8>), ServeError> {
    conn.writer.write_all(frame).map_err(WireError::from)?;
    conn.writer.flush().map_err(WireError::from)?;
    Ok(read_response(&mut conn.reader)?)
}

/// Whether a reply is the accept gate's refusal.
fn overloaded(resp: &Response) -> bool {
    matches!(resp, Response::Error(e) if e.code == ErrorCode::Overloaded)
}

impl Transport for NwsClient {
    fn call_raw(&mut self, req: &Request) -> Result<(Response, Vec<u8>), ServeError> {
        encode_request_frame(&mut self.scratch, req);
        let (n, start) = (self.endpoints.len(), self.preferred);
        let timeout = self.config.io_timeout;
        // The wait after a pass doubles with its index, per call.
        let mut pass = 0u32;
        loop {
            let mut refusal = None;
            for step in 0..n {
                let idx = (start + step) % n;
                let ep = &mut self.endpoints[idx];
                let conn = ep.conn.take().map_or_else(|| dial(ep.addr, timeout), Ok);
                match conn.and_then(|mut conn| Ok((exchange(&mut conn, &self.scratch)?, conn))) {
                    Ok((reply, conn)) if !overloaded(&reply.0) => {
                        ep.conn = Some(conn);
                        ep.failures = 0;
                        self.failovers += u64::from(idx != start);
                        self.preferred = idx;
                        return Ok(reply);
                    }
                    // The server is at capacity and closes right after
                    // its refusal: let the next endpoint absorb the call.
                    Ok((reply, _)) => {
                        ep.failures += 1;
                        refusal = Some(reply);
                    }
                    // Down or broken: the connection is dropped. The
                    // last endpoint's failure ends the last pass.
                    Err(e) => {
                        ep.failures += 1;
                        if pass == self.config.retries && step + 1 == n && refusal.is_none() {
                            return Err(e);
                        }
                    }
                }
            }
            if let Some(reply) = refusal {
                return Ok(reply);
            }
            self.reconnects += 1;
            std::thread::sleep(self.backoff.delay(pass));
            pass += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor::{ReactorConfig, ReactorServer, ServerConfig};
    use crate::state::GridState;
    use nws_grid::{GridMonitor, GridMonitorConfig};
    use nws_sim::HostProfile;

    fn warm_server(server: ServerConfig) -> ReactorServer {
        let mut grid = GridMonitor::new(
            &[HostProfile::Thing1, HostProfile::Thing2],
            31,
            GridMonitorConfig::default(),
        );
        grid.run_steps(40);
        let config = ReactorConfig {
            server,
            ..ReactorConfig::default()
        };
        ReactorServer::spawn(GridState::new(grid), config).expect("bind localhost")
    }

    #[test]
    fn reconnects_after_the_server_idles_out_the_connection() {
        // A tiny read deadline makes the server hang up on any pause.
        let server = warm_server(ServerConfig {
            read_timeout: Duration::from_millis(50),
            ..ServerConfig::default()
        });
        let mut client =
            NwsClient::connect(server.addr(), ClientConfig::default()).expect("connect");
        let first = client.forecast("thing1").expect("first call");
        // Outlive the server's read deadline; the old stream is dead.
        std::thread::sleep(Duration::from_millis(200));
        let second = client.forecast("thing1").expect("retried call");
        assert_eq!(first, second, "idempotent query, cached answer");
        assert!(client.reconnects() >= 1, "the retry path must have fired");
    }

    #[test]
    fn typed_errors_are_not_retried() {
        let server = warm_server(ServerConfig::default());
        let mut client =
            NwsClient::connect(server.addr(), ClientConfig::default()).expect("connect");
        match client.forecast("nonesuch") {
            Err(ServeError::Remote(e)) => {
                assert_eq!(e.code, nws_wire::ErrorCode::UnknownHost);
            }
            other => panic!("wrong result: {other:?}"),
        }
        assert_eq!(client.reconnects(), 0);
    }

    #[test]
    fn backoff_is_capped_exponential_with_seeded_jitter() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(160);
        let mut a = Backoff::new(base, cap, 99);
        let mut b = Backoff::new(base, cap, 99);
        let mut c = Backoff::new(base, cap, 7);
        let da: Vec<_> = (0..8).map(|i| a.delay(i)).collect();
        let db: Vec<_> = (0..8).map(|i| b.delay(i)).collect();
        let dc: Vec<_> = (0..8).map(|i| c.delay(i)).collect();
        assert_eq!(da, db, "same seed, same schedule");
        assert_ne!(da, dc, "different seeds decorrelate");
        for (i, d) in da.iter().enumerate() {
            let unjittered = base.saturating_mul(1 << i).min(cap);
            assert!(*d < unjittered, "attempt {i}: {d:?} over ceiling");
            assert!(*d >= unjittered / 2, "attempt {i}: {d:?} under half");
        }
        // Late attempts saturate in the cap's jitter band.
        assert!(da[7] >= cap / 2 && da[7] < cap);
    }

    #[test]
    fn retries_against_a_dead_server_actually_wait() {
        let mut server = warm_server(ServerConfig::default());
        let config = ClientConfig {
            io_timeout: Duration::from_millis(500),
            retries: 2,
            backoff_base: Duration::from_millis(20),
            backoff_cap: Duration::from_millis(100),
            ..ClientConfig::default()
        };
        let mut client = NwsClient::connect(server.addr(), config).expect("connect");
        server.shutdown();
        drop(server);
        std::thread::sleep(Duration::from_millis(50));
        let started = std::time::Instant::now();
        assert!(client.stats().is_err(), "server is gone");
        let waited = started.elapsed();
        // Two retry delays at the bottom of the jitter band:
        // 20/2 + 40/2 = 30 ms of mandatory waiting.
        assert!(waited >= Duration::from_millis(30), "waited {waited:?}");
    }

    #[test]
    fn connect_to_a_dead_port_fails_cleanly() {
        let addr = {
            let server = warm_server(ServerConfig::default());
            server.addr()
            // Server dropped (and shut down) here.
        };
        std::thread::sleep(Duration::from_millis(50));
        match NwsClient::connect(
            addr,
            ClientConfig {
                retries: 0,
                ..ClientConfig::default()
            },
        ) {
            Err(ServeError::Wire(_)) => {}
            Ok(mut c) => {
                // The OS may still complete the handshake from a stale
                // backlog; the first actual exchange must then fail.
                assert!(c.stats().is_err());
            }
            Err(e) => panic!("unexpected error variant: {e}"),
        }
    }
}

/// The ring over several endpoints.
#[cfg(test)]
mod failover {
    use super::*;
    use crate::reactor::{ReactorConfig, ReactorServer, ServerConfig};
    use crate::state::GridState;
    use nws_grid::{GridMonitor, GridMonitorConfig};
    use nws_sim::HostProfile;
    use std::time::Duration;

    fn quick_config() -> ClientConfig {
        ClientConfig {
            io_timeout: Duration::from_millis(500),
            retries: 0,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(5),
            ..ClientConfig::default()
        }
    }

    fn warm_server() -> ReactorServer {
        let mut grid = GridMonitor::new(
            &[HostProfile::Thing1, HostProfile::Thing2],
            31,
            GridMonitorConfig::default(),
        );
        grid.run_steps(40);
        ReactorServer::spawn(GridState::new(grid), ReactorConfig::default()).expect("bind")
    }

    #[test]
    fn healthy_primary_answers_without_failover() {
        let server = warm_server();
        let mut client = NwsClient::over(&[server.addr()], quick_config());
        let fc = client.forecast("thing1").expect("forecast");
        assert!((0.0..=1.0).contains(&fc.value));
        assert_eq!(client.failovers(), 0);
        assert_eq!(client.health(), vec![0]);
    }

    /// A dead endpoint no other server can take: a listener held and
    /// never accepted on, so the kernel completes the handshake but
    /// nothing answers, and the exchange fails at the client's
    /// `io_timeout`. (A server shut down frees its port, which the next
    /// server bound in the same test binary may be handed.)
    fn dead_endpoint() -> std::net::TcpListener {
        std::net::TcpListener::bind("127.0.0.1:0").expect("bind")
    }

    #[test]
    fn dead_primary_fails_over_to_the_replica_and_sticks() {
        let dead = dead_endpoint();
        let dead_addr = dead.local_addr().expect("an address");
        let replica = warm_server(); // stands in for a caught-up replica
        let mut client = NwsClient::over(&[dead_addr, replica.addr()], quick_config());
        let fc = client.forecast("thing1").expect("served by the replica");
        assert!((0.0..=1.0).contains(&fc.value));
        assert_eq!(client.failovers(), 1);
        assert_eq!(client.preferred(), replica.addr());
        assert!(client.health()[0] >= 1, "primary marked unhealthy");
        // The next call goes straight to the replica: no new failover.
        client.stats().expect("stats");
        assert_eq!(client.failovers(), 1);
    }

    #[test]
    fn all_endpoints_dead_is_an_error_not_a_hang() {
        let (a, b) = (dead_endpoint(), dead_endpoint());
        let addrs = [a.local_addr(), b.local_addr()].map(|addr| addr.expect("an address"));
        let mut client = NwsClient::over(&addrs, quick_config());
        match client.stats() {
            Err(ServeError::Wire(_)) => {}
            other => panic!("wrong result: {other:?}"),
        }
        assert!(client.health().iter().all(|&f| f >= 1));
    }

    #[test]
    fn overloaded_primary_fails_over_to_the_replica() {
        let mut grid = GridMonitor::new(
            &[HostProfile::Thing1, HostProfile::Thing2],
            31,
            GridMonitorConfig::default(),
        );
        grid.run_steps(40);
        // A primary with no capacity refuses everything with a typed
        // Overloaded; the client should absorb that on the replica.
        let primary = ReactorServer::spawn(
            GridState::new(grid),
            ReactorConfig {
                server: ServerConfig {
                    max_connections: 0,
                    ..ServerConfig::default()
                },
                ..ReactorConfig::default()
            },
        )
        .expect("bind");
        let replica = warm_server();
        let mut client = NwsClient::over(&[primary.addr(), replica.addr()], quick_config());
        let fc = client.forecast("thing1").expect("served by the replica");
        assert!((0.0..=1.0).contains(&fc.value));
        assert_eq!(client.failovers(), 1);
        assert_eq!(client.preferred(), replica.addr());
    }

    #[test]
    fn a_repointed_replica_slot_catches_the_next_failover() {
        let primary = warm_server();
        let doomed = warm_server();
        let mut client = NwsClient::over(&[primary.addr(), doomed.addr()], quick_config());
        client.stats().expect("primary serves");
        // The replica dies and comes back on a fresh socket; the
        // operator repoints slot 1 before anything else goes wrong.
        drop(doomed);
        let restarted = warm_server();
        client.set_endpoint(1, restarted.addr());
        assert_eq!(client.health(), vec![0, 0], "repointing clears health");
        // Now the primary dies too: the failover must land on the
        // restarted replica, not the stale address.
        drop(primary);
        std::thread::sleep(Duration::from_millis(50));
        client.stats().expect("served by the restarted replica");
        assert_eq!(client.failovers(), 1);
        assert_eq!(client.preferred(), restarted.addr());
    }

    #[test]
    fn typed_errors_do_not_trigger_failover() {
        let s1 = warm_server();
        let s2 = warm_server();
        let mut client = NwsClient::over(&[s1.addr(), s2.addr()], quick_config());
        match client.forecast("nonesuch") {
            Err(ServeError::Remote(e)) => {
                assert_eq!(e.code, nws_wire::ErrorCode::UnknownHost)
            }
            other => panic!("wrong result: {other:?}"),
        }
        assert_eq!(client.failovers(), 0);
        assert_eq!(client.preferred(), s1.addr());
    }

    /// A server that refuses every connection with a typed `Overloaded`.
    fn refusing_server() -> ReactorServer {
        let mut grid = GridMonitor::new(
            &[HostProfile::Thing1, HostProfile::Thing2],
            31,
            GridMonitorConfig::default(),
        );
        grid.run_steps(40);
        let config = ReactorConfig {
            server: ServerConfig {
                max_connections: 0,
                ..ServerConfig::default()
            },
            ..ReactorConfig::default()
        };
        ReactorServer::spawn(GridState::new(grid), config).expect("bind")
    }

    /// Retries on, and each wait between passes at least 1 s.
    fn slow_backoff() -> ClientConfig {
        ClientConfig {
            retries: 2,
            backoff_base: Duration::from_secs(2),
            backoff_cap: Duration::from_secs(2),
            ..quick_config()
        }
    }

    #[test]
    fn a_primary_that_dies_mid_session_fails_over_without_a_wait() {
        let primary = warm_server();
        let replica = warm_server();
        let mut client = NwsClient::over(&[primary.addr(), replica.addr()], slow_backoff());
        client.stats().expect("primary serves");
        // The primary dies with the client's connection to it open.
        drop(primary);
        std::thread::sleep(Duration::from_millis(50));
        let started = std::time::Instant::now();
        client.stats().expect("served by the replica");
        let waited = started.elapsed();
        assert!(waited < Duration::from_secs(1), "failover took {waited:?}");
        assert_eq!(client.failovers(), 1);
        assert_eq!(client.preferred(), replica.addr());
        assert_eq!(client.reconnects(), 0, "no retry pass was needed");
    }

    #[test]
    fn a_ring_that_refuses_everywhere_answers_the_refusal_after_one_pass() {
        let a = refusing_server();
        let b = refusing_server();
        let mut client = NwsClient::over(&[a.addr(), b.addr()], slow_backoff());
        let started = std::time::Instant::now();
        match client.stats() {
            Err(ServeError::Remote(e)) => assert_eq!(e.code, nws_wire::ErrorCode::Overloaded),
            other => panic!("wrong result: {other:?}"),
        }
        let waited = started.elapsed();
        assert!(waited < Duration::from_secs(1), "refusal took {waited:?}");
        assert_eq!(client.health(), vec![1, 1]);
        assert_eq!(client.reconnects(), 0, "no retry pass");
        assert_eq!(client.failovers(), 0);
    }
}
