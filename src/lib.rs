//! `nws` — umbrella crate for the NWS CPU availability prediction
//! reproduction (Wolski, Spring & Hayes, HPDC 1999).
//!
//! This crate re-exports the workspace's public API under one roof so the
//! examples and integration tests can `use nws::…`. See the individual
//! crates for the substance:
//!
//! - [`forecast`] — the NWS forecaster panel with dynamic predictor
//!   selection (the paper's primary contribution).
//! - [`sensors`] — the three CPU availability sensors (load average,
//!   vmstat, hybrid probe) and the test process.
//! - [`sim`] — the time-shared Unix host simulator the sensors run against.
//! - [`stats`] — autocorrelation, R/S analysis, Hurst estimation,
//!   fractional Gaussian noise, FFT, RNG, distributions.
//! - [`timeseries`] — series container, aggregation, summaries, CSV.
//! - [`core`] — the monitoring pipeline and the drivers that regenerate
//!   every table and figure in the paper.
//! - [`sched`] — the motivating application: dynamic scheduling with
//!   forecast-derived expansion factors.
//! - [`grid`] — a miniature Network Weather Service: registry, measurement
//!   memory, and forecast service over a fleet of monitored hosts.
//! - [`runtime`] — deterministic parallel execution (`parallel_map`,
//!   thread-count resolution) used by the experiment drivers.
//! - [`faults`] — deterministic, seeded fault injection (sensor
//!   dropouts, probe failures, host outages, delayed delivery) threaded
//!   through the grid measurement path.
//! - [`wire`] — the dependency-free length-prefixed binary protocol the
//!   forecast-serving subsystem speaks.
//! - [`server`] — the serving subsystem itself: TCP server, typed
//!   client with retry-and-reconnect, revision-validated query cache,
//!   and a socket-free in-memory transport for determinism tests.
//! - [`loadgen`] — coordinated-omission-free workload generator and
//!   latency harness: open-loop arrival schedules, mixed query
//!   streams, log-bucketed histograms, and adversarial personas.

#![forbid(unsafe_code)]

pub use nws_core as core;
pub use nws_faults as faults;
pub use nws_forecast as forecast;
pub use nws_grid as grid;
pub use nws_loadgen as loadgen;
pub use nws_runtime as runtime;
pub use nws_sched as sched;
pub use nws_sensors as sensors;
pub use nws_server as server;
pub use nws_sim as sim;
pub use nws_stats as stats;
pub use nws_timeseries as timeseries;
pub use nws_wire as wire;
