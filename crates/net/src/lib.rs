//! Simulated wide-area network links and the NWS network sensors.
//!
//! The paper's CPU sensor is one half of the Network Weather Service; the
//! other half measures and forecasts **network** performance between grid
//! sites (the NWS papers it cites as \[29\], \[30\]). This crate supplies that
//! half over a simulated substrate:
//!
//! - [`link`] — a wide-area link modeled as a processor-sharing queue:
//!   background *cross-traffic* arrives as Poisson flows with heavy-tailed
//!   (Pareto) sizes, so the link's available bandwidth is a
//!   long-range-dependent series, in line with the self-similar-traffic
//!   literature the paper cites (Leland et al., Willinger et al., Crovella
//!   & Bestavros);
//! - [`sensors`] — the two NWS network sensors: a **bandwidth sensor**
//!   that times a fixed-size probe transfer (the NWS used 64 KB … 1 MB
//!   TCP transfers) and a **latency sensor** that times a small-message
//!   round trip;
//! - [`monitor`] — `LinkMonitor`, the 10-second measurement loop plus NWS
//!   forecasting over a set of links — the network counterpart of the CPU
//!   `GridMonitor`.

#![forbid(unsafe_code)]

pub mod link;
pub mod monitor;
pub mod sensors;
pub mod transfer;

pub use link::{Link, LinkConfig};
pub use monitor::{LinkMonitor, LinkReport, LinkSample, PROBE_BYTES, PROBE_PERIOD};
pub use sensors::{BandwidthSensor, LatencySensor};
pub use transfer::{TransferScenario, TRANSFER_METHODS};

/// Seconds (simulation time).
pub type Seconds = f64;

/// Bytes per second.
pub type Bandwidth = f64;
