//! The typed TCP client, with retry-and-reconnect behind capped
//! exponential backoff.
//!
//! A forecast query is idempotent, so a failed exchange — the server
//! idled out the connection, the process restarted, a write hit a dead
//! socket — is safely retried on a fresh connection. The client
//! remembers the address, tears down the stream on any wire-level
//! failure, and redials up to [`ClientConfig::retries`] times before
//! giving up. Successive retries within one call wait
//! `min(backoff_cap, backoff_base << attempt)` scaled by a seeded
//! jitter factor in `[0.5, 1.0)`, so a thundering herd of clients
//! hammering a restarting server decorrelates deterministically (the
//! jitter stream is a pure function of [`ClientConfig::backoff_seed`]).
//! Typed server errors ([`ServeError::Remote`]) are *not* retried: the
//! exchange worked, the answer just wasn't the happy path.

use crate::transport::{ServeError, Transport};
use nws_wire::{encode_request_frame, read_response, Request, Response, WireError};
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Tunables for [`NwsClient`].
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// Socket read/write deadline per exchange.
    pub io_timeout: Duration,
    /// Reconnect-and-resend attempts after a failed exchange.
    pub retries: u32,
    /// Delay before the first retry; doubles every attempt after that.
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
pub struct Backoff {
    base: Duration,
    cap: Duration,
    state: u64,
}

impl Backoff {
    /// Builds a schedule; a zero seed is remapped so the generator
    /// never sticks at its one fixed point.
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Self {
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

    /// A schedule from client tunables.
    pub fn from_config(config: &ClientConfig) -> Self {
        Self::new(config.backoff_base, config.backoff_cap, config.backoff_seed)
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
    pub fn delay(&mut self, attempt: u32) -> Duration {
        let unjittered = (self.base.as_nanos() as f64) * 2f64.powi(attempt.min(63) as i32);
        let capped = unjittered.min(self.cap.as_nanos() as f64);
        Duration::from_nanos((capped * self.jitter()) as u64)
    }
}

/// A connected forecast client.
pub struct NwsClient {
    addr: SocketAddr,
    config: ClientConfig,
    conn: Option<Conn>,
    /// Exchanges that needed at least one reconnect.
    reconnects: u64,
    /// The retry-delay schedule; its jitter stream persists across
    /// calls so repeated failures keep decorrelating.
    backoff: Backoff,
    /// Request frames are encoded into this reusable scratch, so a
    /// steady stream of queries does not allocate per exchange.
    scratch: Vec<u8>,
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl NwsClient {
    /// Dials the server and verifies the connection can be set up.
    pub fn connect(addr: SocketAddr, config: ClientConfig) -> Result<Self, ServeError> {
        let mut client = Self {
            addr,
            config,
            conn: None,
            reconnects: 0,
            backoff: Backoff::from_config(&config),
            scratch: Vec::new(),
        };
        client.conn = Some(client.dial()?);
        Ok(client)
    }

    /// Reconnect-and-resend cycles performed so far.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    fn dial(&self) -> Result<Conn, ServeError> {
        let stream =
            TcpStream::connect(self.addr).map_err(|e| ServeError::Wire(WireError::Io(e)))?;
        stream
            .set_read_timeout(Some(self.config.io_timeout))
            .and_then(|()| stream.set_write_timeout(Some(self.config.io_timeout)))
            .map_err(|e| ServeError::Wire(WireError::Io(e)))?;
        let reader_stream = stream
            .try_clone()
            .map_err(|e| ServeError::Wire(WireError::Io(e)))?;
        Ok(Conn {
            reader: BufReader::new(reader_stream),
            writer: BufWriter::new(stream),
        })
    }

    /// One request/response exchange on the current connection. The
    /// request frame arrives pre-encoded in the caller's scratch buffer.
    fn exchange(conn: &mut Conn, frame: &[u8]) -> Result<(Response, Vec<u8>), ServeError> {
        conn.writer.write_all(frame).map_err(WireError::from)?;
        conn.writer.flush().map_err(WireError::from)?;
        Ok(read_response(&mut conn.reader)?)
    }
}

impl Transport for NwsClient {
    fn call_raw(&mut self, req: &Request) -> Result<(Response, Vec<u8>), ServeError> {
        encode_request_frame(&mut self.scratch, req);
        let mut attempts_left = self.config.retries + 1;
        // Retry index within this call: the delay doubles with it, but
        // a later healthy call starts over at the base delay.
        let mut attempt = 0u32;
        loop {
            attempts_left -= 1;
            if self.conn.is_none() {
                match self.dial() {
                    Ok(c) => self.conn = Some(c),
                    Err(_) if attempts_left > 0 => {
                        self.reconnects += 1;
                        std::thread::sleep(self.backoff.delay(attempt));
                        attempt += 1;
                        continue;
                    }
                    Err(e) => return Err(e),
                }
            }
            let conn = self.conn.as_mut().expect("connection just ensured");
            match Self::exchange(conn, &self.scratch) {
                Ok(ok) => return Ok(ok),
                // Transport-level failure: the connection is suspect.
                // Drop it and retry on a fresh one if budget remains.
                Err(ServeError::Wire(_)) if attempts_left > 0 => {
                    self.conn = None;
                    self.reconnects += 1;
                    std::thread::sleep(self.backoff.delay(attempt));
                    attempt += 1;
                }
                Err(e) => {
                    self.conn = None;
                    return Err(e);
                }
            }
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
