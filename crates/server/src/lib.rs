//! The forecast-serving subsystem: the NWS query path, reproduced.
//!
//! The paper's measurements exist to be *served* — the real Network
//! Weather Service runs sensors, memories, and forecasters as separate
//! processes that clients query over the network. This crate puts that
//! query path in front of the reproduction's [`GridMonitor`]:
//!
//! - [`GridState`] — the primary's server-side state: a grid monitor
//!   behind a [`QueryCache`] of per-resource forecast answers,
//!   invalidated by the revision counters the grid's memory bumps on
//!   every measurement append and gap. Repeated
//!   queries between 10-second sensor ticks are O(1) cache hits.
//! - [`Dispatch`] — what every transport serves through. Behind it the
//!   request *policy* (lookups, cache protocol, accounting, bounds,
//!   error codes) is written once, answering in borrowed
//!   [`nws_wire::ReplyRef`]s out of an [`nws_grid::Archive`] — the one
//!   the primary's monitor commits into or the one a replica replays
//!   into — plus the three things the two answer differently (the
//!   slot count, the journal, the cold-host wording). Snapshot rows and the
//!   best host are the archive's own rows and placement rule, mapped
//!   into wire rows; a reply is then rendered either straight
//!   to frame bytes ([`Dispatch::dispatch_frame`]) or to an owned
//!   [`nws_wire::Response`] ([`Dispatch::dispatch`], the reference the
//!   byte path is diffed against). A reply that would not fit one frame
//!   is refused whole with a typed error.
//! - [`ReactorServer`] — the socket server: an epoll reactor speaking
//!   the [`nws_wire`] protocol, a small pool of event loops that each
//!   accept for themselves, serving thousands of concurrent, pipelined
//!   connections with zero-copy replies. Each loop sweeps its idle,
//!   whole-frame and stalled-writer deadlines once per tick, and an
//!   accept gate answers
//!   connections past the cap (derived from [`nws_runtime`]) with a
//!   typed `Overloaded`.
//! - [`NwsClient`] — a typed client over an ordered ring of endpoints
//!   (one server, or a primary and its replicas) with per-endpoint
//!   health: transport failures and `Overloaded` refusals move to the
//!   next endpoint, typed server errors do not, and a pass no endpoint
//!   answers is retried behind capped exponential backoff with seeded
//!   deterministic jitter.
//! - [`Transport`] / [`InMemoryTransport`] — the same codec and
//!   dispatch path without sockets, so tests and the determinism suite
//!   can compare answers bit for bit against the socket path.
//! - [`ReplicaState`] — a read replica: an archive rebuilt byte-for-byte
//!   by [`nws_grid::Archive::apply`] over the primary's write-ahead log,
//!   streamed over the wire protocol's `WalSince`/`WalChunk` frames,
//!   plus the replication cursor. It answers through the same request
//!   policy as the primary, so the two cannot drift apart.
//!
//! [`GridMonitor`]: nws_grid::GridMonitor

#![deny(clippy::undocumented_unsafe_blocks, unsafe_op_in_unsafe_fn)]

mod cache;
mod client;
mod driver;
mod policy;
mod reactor;
mod replica;
mod state;
mod transport;

pub use cache::QueryCache;
pub use client::{ClientConfig, NwsClient};
pub use driver::TickDriver;
pub use reactor::{NwsServer, ReactorConfig, ReactorServer, ServerConfig};
pub use replica::{ReplicaError, ReplicaState};
pub use state::{Dispatch, GridState};
pub use transport::{InMemoryTransport, ServeError, Transport};
