//! Workload generator and latency harness for the serving tier.
//!
//! The serving experiments before this crate measured latency with a
//! single closed-loop client: send, wait, measure, repeat. A closed
//! loop is self-throttling — when the server stalls, the client stops
//! sending, so the stall charges only one request with extra latency
//! and the histogram stays rosy. That is *coordinated omission*. Real
//! grid clients do not coordinate with the server: queries arrive on
//! their own clock, bursty and heavy-tailed like the CPU availability
//! signal the paper forecasts.
//!
//! This crate measures the server the way traffic actually hits it:
//!
//! - [`arrivals`] precomputes a virtual arrival timeline from a seeded
//!   inter-arrival distribution (exponential, or Pareto for the
//!   self-similar story) *before* any request is sent. The open-loop
//!   runner charges each request from its virtual arrival time, so
//!   queueing delay the server causes is measured, not hidden.
//! - [`mix`] draws a deterministic stream of typed queries in
//!   configurable ratios over the full vocabulary.
//! - [`histogram`] is a dependency-free log-bucketed latency histogram
//!   with bounded relative error, mergeable across workers.
//! - [`runner`] drives any [`nws_server::Transport`] open-loop or
//!   closed-loop and binary-searches the max sustainable request rate.
//! - [`mod@soak`] runs the open-loop schedule with latencies bucketed into
//!   fixed time windows keyed by virtual arrival — a p50/p99 series
//!   over time that exposes trends a whole-run histogram averages away.
//! - [`mod@churn`] sweeps the *connection-arrival* rate: connections come
//!   and go open-loop on their own schedule, each issuing a short
//!   burst, so the accept path is measured per connection the way the
//!   request path is measured per request.
//! - [`personas`] are adversarial clients — partial frames, oversize
//!   length claims, byte-trickling slow writers — that must trip the
//!   server's deadline and cap handling without hurting healthy peers.

#![forbid(unsafe_code)]

pub mod arrivals;
pub mod churn;
pub mod histogram;
pub mod mix;
pub mod personas;
pub mod runner;
pub mod soak;

pub use arrivals::{ArrivalSchedule, InterArrival};
pub use churn::{churn, ChurnConnect, ChurnOutcome};
pub use histogram::LatencyHistogram;
pub use mix::{MixRatios, QueryKind, RequestStream};
pub use personas::PersonaReport;
pub use runner::{closed_loop, max_sustainable_rps, open_loop, LoadOutcome, RateProbe, RateSearch};
pub use soak::{soak, SoakOutcome, SoakWindow};

/// FNV-1a over a byte slice: the repo's standard order-sensitive
/// fingerprint for determinism checks in committed artifacts.
pub use nws_stats::fnv1a;
