//! Seeded inputs for driving the serving tier.
//!
//! A closed-loop client — send, wait, measure, repeat — is
//! self-throttling: when the server stalls, the client stops sending,
//! so the stall charges only one request with extra latency and the
//! histogram stays rosy. That is *coordinated omission*. Real grid
//! clients do not coordinate with the server: queries arrive on their
//! own clock, bursty and heavy-tailed like the CPU availability signal
//! the paper forecasts. This crate supplies what an open-loop driver
//! (the `benchmark` crate's serving workloads) needs to load the server
//! that way, and the hostile clients the serving tests aim at it:
//!
//! - [`arrivals`] precomputes a virtual arrival timeline from a seeded
//!   inter-arrival distribution (exponential, or Pareto for the
//!   self-similar story) *before* any request is sent, so a driver can
//!   charge each request from its virtual arrival and queueing delay
//!   the server causes is measured, not hidden.
//! - [`mix`] draws a deterministic stream of typed queries in
//!   configurable ratios over the full vocabulary.
//! - [`personas`] are adversarial clients — partial frames, oversize
//!   length claims, byte-trickling slow writers — that must trip the
//!   server's deadline and cap handling without hurting healthy peers.
//! - [`histogram`] is a dependency-free log-bucketed latency histogram
//!   with bounded relative error, mergeable across workers.

#![forbid(unsafe_code)]

pub mod arrivals;
pub mod histogram;
pub mod mix;
pub mod personas;

pub use arrivals::{ArrivalSchedule, InterArrival};
pub use histogram::LatencyHistogram;
pub use mix::{MixRatios, QueryKind, RequestStream};
pub use personas::PersonaReport;

/// FNV-1a over a byte slice: the repo's standard order-sensitive
/// fingerprint for determinism checks.
pub use nws_stats::fnv1a;
