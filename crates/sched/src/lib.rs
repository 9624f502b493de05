//! Dynamic application scheduling on forecasted CPU availability.
//!
//! The paper's motivation (Sections 1 and 4): an application scheduler on a
//! computational grid "must make a prediction of what performance will be
//! available from each" shared resource; availability percentages are used
//! as **expansion factors** to estimate process execution times, and the
//! paper cites application-level scheduling work (\[2\], \[24\]) where better
//! predictions produced >100 % performance gains.
//!
//! This crate closes that loop over the simulated UCSD hosts:
//!
//! - [`expansion`] — the expansion-factor model: a task needing `w` seconds
//!   of CPU on an unloaded machine takes `w / availability` seconds when
//!   only an `availability` fraction of time slices is obtainable.
//! - [`policy`] — task-placement policies: NWS-forecast-driven, raw
//!   load-average-driven, round-robin, and random.
//! - [`experiment`] — a bag-of-tasks scheduling experiment that executes
//!   the chosen placements on live simulated hosts and compares makespans,
//!   reproducing the qualitative claim that forecast-driven scheduling
//!   beats static and naive-dynamic policies.

#![forbid(unsafe_code)]

pub mod data_aware;
pub mod expansion;
pub mod experiment;
pub mod policy;
pub mod workqueue;

pub use data_aware::{run_data_sched_experiment, DataPolicy, DataSchedConfig, DataTask};
pub use expansion::{expansion_factor, predicted_runtime};
pub use experiment::{run_scheduling_experiment, SchedulingOutcome, TaskBag};
pub use policy::{Placement, Policy};
pub use workqueue::{compare_static_vs_dynamic, run_workqueue, QueueOrder, WorkQueueOutcome};
