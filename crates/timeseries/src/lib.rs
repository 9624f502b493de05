//! Timestamped time-series support for the NWS CPU availability study.
//!
//! The paper treats histories of CPU availability measurements as statistical
//! time series: sensors emit a reading every 10 seconds, forecasters consume
//! the resulting series one value at a time, and the self-similarity analysis
//! aggregates the series into block means (the `X^(m)` construction of
//! Section 3.2).
//!
//! This crate provides the shared container ([`Series`]), block aggregation
//! ([`aggregate`]), sliding windows ([`window`]), summary statistics
//! ([`summary`]) and a small CSV reader/writer ([`csv`]) used by every other
//! crate in the workspace.

#![forbid(unsafe_code)]

pub mod aggregate;
pub mod csv;
pub mod series;
pub mod summary;
pub mod window;

pub use aggregate::{aggregate_mean, aggregate_series, hourly_block_means, resample};
pub use series::{Series, SeriesError, TimePoint};
pub use summary::{summarize, Summary};
pub use window::{rolling_sum_step, SlidingWindow, WindowIter, SUM_REFRESH_INTERVAL};

/// Seconds, the time unit used throughout the workspace.
///
/// Simulation time starts at `0.0`; wall-clock traces use seconds since their
/// own epoch. All cadences in the paper (10 s measurement interval, 1.5 s
/// probe, 5 min aggregation, 24 h traces) are expressible exactly enough in
/// `f64` seconds.
pub type Seconds = f64;
