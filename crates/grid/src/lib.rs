//! A miniature Network Weather Service.
//!
//! The paper's CPU sensor is one component of the NWS, "a distributed,
//! on-line performance forecasting system" (Section 1). The full system —
//! described in the companion NWS papers the text cites (\[29\], \[30\],
//! \[31\]) — has four parts:
//!
//! 1. **sensors** that produce timestamped measurements,
//! 2. a **name service / registry** where monitored resources are
//!    published and discovered,
//! 3. **persistent-state memories** that store bounded measurement
//!    histories, and
//! 4. **forecasters** that turn a stored history into a prediction on
//!    demand.
//!
//! This crate reproduces that architecture in-process over simulated
//! hosts:
//!
//! - [`registry`] — resource naming and discovery;
//! - [`memory`] — bounded ring-buffer series storage with the NWS
//!   `extract`-style query API, journaled by [`wal`];
//! - [`service`] — the forecaster store of both monitors: one
//!   [`PredictorBank`] per series, dense by id, optional intervals;
//! - [`archive`] — [`Archive`], the unit those three form: what sensors
//!   publish into, a primary journals from, a replica replays into and
//!   the serving layer reads. It is the only code that touches memory
//!   and forecaster together, so the rule that ties them (a reading
//!   reaches the forecaster iff the memory stored it, a gap reaches
//!   both), the four-series registration order, the change counter, the
//!   degraded/staleness test and the placement rule (highest fresh
//!   forecast, first registered on a tie) are each written once, there;
//! - [`monitor`] — `GridMonitor`, which drives simulated hosts through
//!   the event engine on the 10-second NWS cadence into its archive —
//!   the "computational grid weather map" a scheduler like
//!   [`nws_sched`](https://docs.rs/nws-sched) consumes, and, with its
//!   ground-truth lane on, the test-process observations the paper's
//!   tables are scored against;
//! - [`fleet`] — the 10⁵-host engine, committing into an archive too.
//!
//! [`PredictorBank`]: nws_forecast::PredictorBank

#![forbid(unsafe_code)]

pub mod archive;
pub mod fleet;
pub mod memory;
pub mod monitor;
pub mod registry;
pub mod service;
pub mod wal;

pub use archive::{best_row, Archive, HostStatus, STALENESS_BOUND};
pub use fleet::{FleetConfig, FleetMonitor, FleetPanel, FleetRoster};
pub use memory::{Memory, MemoryConfig, StoreOutcome, Times};
pub use monitor::{GridMonitor, GridMonitorConfig, TestObservation, TestSchedule};
pub use registry::{Metric, Registry, ResourceId, ResourceInfo};
pub use service::{ForecastAnswer, ForecastService};
pub use wal::{
    recover_memory_rotated, CheckpointReport, RecoveryReport, RecoverySource, Replay,
    SnapshotStore, Wal, WalError, WalRecord,
};
