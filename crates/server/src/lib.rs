//! The forecast-serving subsystem: the NWS query path, reproduced.
//!
//! The paper's measurements exist to be *served* — the real Network
//! Weather Service runs sensors, memories, and forecasters as separate
//! processes that clients query over the network. This crate puts that
//! query path in front of the reproduction's [`GridMonitor`]:
//!
//! - [`GridState`] — the primary's server-side state: a grid monitor
//!   behind a [`QueryCache`] of per-resource forecast answers,
//!   invalidated by the revision counters the grid's memory and
//!   forecast service bump on every measurement append. Repeated
//!   queries between 10-second sensor ticks are O(1) cache hits.
//! - [`Dispatch`] — what every transport serves through. Behind it the
//!   request *policy* (lookups, cache protocol, accounting, bounds,
//!   error codes) is written once, answering in borrowed
//!   [`nws_wire::ReplyRef`]s out of an [`nws_grid::Archive`] — the one
//!   the primary's monitor commits into or the one a replica replays
//!   into — plus the three things the two answer differently (the
//!   clock, the journal, the cold-host wording). Snapshot rows and the
//!   best host are the archive's own rows and placement rule, mapped
//!   into wire rows; a reply is then rendered either straight
//!   to frame bytes ([`Dispatch::dispatch_frame`]) or to an owned
//!   [`nws_wire::Response`] ([`Dispatch::dispatch`], the reference the
//!   byte path is diffed against). A reply that would not fit one frame
//!   is refused whole with a typed error.
//! - [`NwsServer`] — a threaded `std::net::TcpListener` server speaking
//!   the [`nws_wire`] protocol, with per-connection read/write deadlines
//!   and an in-flight connection bound derived from [`nws_runtime`].
//! - [`ReactorServer`] — the same protocol and semantics on an epoll
//!   reactor: one listener plus a small pool of event loops serving
//!   thousands of concurrent, pipelined connections with zero-copy
//!   replies; deadlines become timer-wheel expirations and the
//!   connection cap becomes an accept gate.
//! - [`NwsClient`] — a typed client with retry-and-reconnect behind
//!   capped exponential backoff and seeded deterministic jitter.
//! - [`Transport`] / [`InMemoryTransport`] — the same codec and
//!   dispatch path without sockets, so tests and the determinism suite
//!   can compare answers bit for bit against the TCP path.
//! - [`ReplicaState`] — a read replica: an archive rebuilt byte-for-byte
//!   by [`nws_grid::Archive::apply`] over the primary's write-ahead log,
//!   streamed over the wire protocol's `WalSince`/`WalChunk` frames,
//!   plus the replication cursor. It answers through the same request
//!   policy as the primary, so the two cannot drift apart.
//! - [`FailoverClient`] — a typed client over an ordered replica set
//!   with per-endpoint health tracking: transport failures rotate to
//!   the next endpoint, typed server errors do not.
//!
//! [`GridMonitor`]: nws_grid::GridMonitor

#![deny(clippy::undocumented_unsafe_blocks, unsafe_op_in_unsafe_fn)]

mod cache;
mod client;
mod driver;
mod failover;
mod policy;
mod reactor;
mod replica;
mod state;
mod tcp;
mod transport;

pub use cache::QueryCache;
pub use client::{Backoff, ClientConfig, NwsClient};
pub use driver::TickDriver;
pub use failover::FailoverClient;
pub use reactor::{ReactorConfig, ReactorServer};
pub use replica::{ReplicaError, ReplicaState};
pub use state::{Dispatch, GridState};
pub use tcp::{NwsServer, ServerConfig};
pub use transport::{InMemoryTransport, ServeError, Transport};
