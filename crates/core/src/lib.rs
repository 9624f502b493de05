//! `nws-core` — the monitoring pipeline and paper experiment drivers.
//!
//! This crate glues the substrates together into the system the paper
//! describes:
//!
//! - [`experiments`] regenerates **every table and figure**: Tables 1–6
//!   and Figures 1–4, plus the ablations described in `DESIGN.md`. Its
//!   datasets are [`nws_grid::GridMonitor`] runs — the three sensors on
//!   their 10-second cadence, the hybrid's 1.5 s probe once a minute, and
//!   the ground-truth test process on the monitor's lane — so the series
//!   and forecasts the tables score are the ones the archive stores and
//!   serves.
//! - [`report`] renders results as aligned text tables and CSV.
//! - [`plot`] renders quick ASCII time-series/scatter plots for the
//!   figures.
//! - [`paper`] records the paper's published numbers so reports can print
//!   paper-vs-measured side by side.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod paper;
pub mod plot;
pub mod report;

pub use experiments::{ExperimentConfig, HostRun, MethodSeries};
