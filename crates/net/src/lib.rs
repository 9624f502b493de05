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
//! - [`monitor`] — `LinkMonitor`, the 2-minute probe loop over a set of
//!   links, scoring the NWS forecaster on each link's bandwidth series
//!   (`repro net`);
//! - [`transfer`] — `TransferScenario`, file-transfer durations predicted
//!   from bandwidth alone and from bandwidth plus endpoint CPU
//!   availability (the fleet quality sweep's `transfer-time` scenario).

#![forbid(unsafe_code)]

pub mod link;
pub mod monitor;
pub mod sensors;
pub mod transfer;

pub use link::{Link, LinkConfig};
pub use monitor::LinkMonitor;
pub use sensors::{BandwidthSensor, LatencySensor};
pub use transfer::TransferScenario;

pub use nws_timeseries::Seconds;

/// Bytes per second.
pub type Bandwidth = f64;
