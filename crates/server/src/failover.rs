//! Client-side failover across a replica set.
//!
//! A [`FailoverClient`] holds an ordered endpoint list — primary
//! first, replicas after — and routes each call to its current
//! preferred endpoint. A transport-level failure marks the endpoint
//! unhealthy and moves on to the next in ring order, dialing lazily;
//! only when every endpoint has failed for one call does the caller
//! see an error. Typed server errors pass straight through: the
//! exchange worked, so the endpoint is healthy and stays preferred.
//!
//! Each endpoint's underlying [`NwsClient`] keeps its own capped
//! exponential backoff, seeded per endpoint from
//! [`ClientConfig::backoff_seed`] xor the endpoint index, so a fleet
//! of failover clients sharing a config still decorrelates.

use crate::client::{ClientConfig, NwsClient};
use crate::transport::{ServeError, Transport};
use nws_wire::{Request, Response, WireError};
use std::net::SocketAddr;

/// Health bookkeeping for one endpoint of the set.
struct Endpoint {
    addr: SocketAddr,
    client: Option<NwsClient>,
    /// Transport failures since the last successful exchange.
    consecutive_failures: u32,
}

/// A typed client that fails over across an ordered replica set.
pub struct FailoverClient {
    endpoints: Vec<Endpoint>,
    config: ClientConfig,
    /// Index of the endpoint answering calls right now.
    preferred: usize,
    /// Calls that had to leave their first endpoint.
    failovers: u64,
}

impl FailoverClient {
    /// Builds a client over `addrs` (primary first). Nothing is dialed
    /// until the first call.
    pub fn new(addrs: &[SocketAddr], config: ClientConfig) -> Self {
        assert!(
            !addrs.is_empty(),
            "a replica set needs at least one endpoint"
        );
        let endpoints = addrs
            .iter()
            .map(|&addr| Endpoint {
                addr,
                client: None,
                consecutive_failures: 0,
            })
            .collect();
        Self {
            endpoints,
            config,
            preferred: 0,
            failovers: 0,
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

    /// Repoints endpoint `idx` at a new address — the operator move
    /// after a replica restarts on a fresh socket. Drops the slot's
    /// connection and clears its health; the preference order is
    /// unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range for the replica set.
    pub fn set_endpoint(&mut self, idx: usize, addr: SocketAddr) {
        let ep = &mut self.endpoints[idx];
        ep.addr = addr;
        ep.client = None;
        ep.consecutive_failures = 0;
    }

    /// Transport failures recorded against each endpoint since its
    /// last successful exchange, in constructor order.
    pub fn health(&self) -> Vec<u32> {
        self.endpoints
            .iter()
            .map(|e| e.consecutive_failures)
            .collect()
    }

    /// One attempt against endpoint `idx`: dial if needed, exchange.
    fn try_endpoint(
        &mut self,
        idx: usize,
        req: &Request,
    ) -> Result<(Response, Vec<u8>), ServeError> {
        // Each endpoint's client gets its own jitter stream.
        let mut config = self.config;
        config.backoff_seed ^= idx as u64;
        let ep = &mut self.endpoints[idx];
        if ep.client.is_none() {
            ep.client = Some(NwsClient::connect(ep.addr, config)?);
        }
        let client = ep.client.as_mut().expect("just ensured");
        client.call_raw(req)
    }
}

impl Transport for FailoverClient {
    fn call_raw(&mut self, req: &Request) -> Result<(Response, Vec<u8>), ServeError> {
        let n = self.endpoints.len();
        let start = self.preferred;
        let mut last_err = None;
        for step in 0..n {
            let idx = (start + step) % n;
            match self.try_endpoint(idx, req) {
                Ok((Response::Error(e), _)) if e.code == nws_wire::ErrorCode::Overloaded => {
                    // The server is at capacity and closes right after
                    // the refusal frame — drop the connection and let a
                    // replica absorb the call. Only if every endpoint
                    // is saturated does the caller see the overload.
                    let ep = &mut self.endpoints[idx];
                    ep.client = None;
                    ep.consecutive_failures += 1;
                    last_err = Some(ServeError::Remote(e));
                }
                Ok(ok) => {
                    self.endpoints[idx].consecutive_failures = 0;
                    if idx != start {
                        self.failovers += 1;
                    }
                    self.preferred = idx;
                    return Ok(ok);
                }
                Err(ServeError::Wire(e)) => {
                    // This endpoint is down or unreachable; drop its
                    // connection, mark it, move along the ring.
                    let ep = &mut self.endpoints[idx];
                    ep.client = None;
                    ep.consecutive_failures += 1;
                    last_err = Some(ServeError::Wire(e));
                }
                // The endpoint answered: a typed error or a wrong
                // variant is an application-level answer, not a health
                // signal worth leaving the endpoint over.
                Err(e) => return Err(e),
            }
        }
        Err(last_err.unwrap_or(ServeError::Wire(WireError::Truncated)))
    }
}

#[cfg(test)]
mod tests {
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
        let mut client = FailoverClient::new(&[server.addr()], quick_config());
        let fc = client.forecast("thing1").expect("forecast");
        assert!((0.0..=1.0).contains(&fc.value));
        assert_eq!(client.failovers(), 0);
        assert_eq!(client.health(), vec![0]);
    }

    #[test]
    fn dead_primary_fails_over_to_the_replica_and_sticks() {
        let dead = warm_server();
        let dead_addr = dead.addr();
        drop(dead); // shut down: the primary is gone
        std::thread::sleep(Duration::from_millis(50));
        let replica = warm_server(); // stands in for a caught-up replica
        let mut client = FailoverClient::new(&[dead_addr, replica.addr()], quick_config());
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
        let (a, b) = {
            let s1 = warm_server();
            let s2 = warm_server();
            (s1.addr(), s2.addr())
        };
        std::thread::sleep(Duration::from_millis(50));
        let mut client = FailoverClient::new(&[a, b], quick_config());
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
        let mut client = FailoverClient::new(&[primary.addr(), replica.addr()], quick_config());
        let fc = client.forecast("thing1").expect("served by the replica");
        assert!((0.0..=1.0).contains(&fc.value));
        assert_eq!(client.failovers(), 1);
        assert_eq!(client.preferred(), replica.addr());
    }

    #[test]
    fn a_repointed_replica_slot_catches_the_next_failover() {
        let primary = warm_server();
        let doomed = warm_server();
        let mut client = FailoverClient::new(&[primary.addr(), doomed.addr()], quick_config());
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
        let mut client = FailoverClient::new(&[s1.addr(), s2.addr()], quick_config());
        match client.forecast("nonesuch") {
            Err(ServeError::Remote(e)) => {
                assert_eq!(e.code, nws_wire::ErrorCode::UnknownHost)
            }
            other => panic!("wrong result: {other:?}"),
        }
        assert_eq!(client.failovers(), 0);
        assert_eq!(client.preferred(), s1.addr());
    }
}
