//! CPU availability sensors — the measurement half of the paper.
//!
//! Section 2 evaluates three ways of measuring the CPU fraction a newly
//! created, full-priority Unix process could obtain:
//!
//! 1. [`LoadAvgSensor`] (Eq. 1): reads the 1-minute Unix load average and
//!    reports `1 / (load + 1)` — the fair share of a CPU with `load`
//!    runnable competitors.
//! 2. [`VmstatSensor`] (Eq. 2): reads user/sys/idle occupancy and the
//!    run-queue length and reports
//!    `idle + user/(rp+1) + w·sys/(rp+1)` with `w = user`, the rationale
//!    being that a new process is entitled to all idle time, a fair share
//!    of user time, and a share of system time proportional to how much of
//!    the system time is serving user processes (rather than, say, gateway
//!    packet interrupts).
//! 3. [`HybridSensor`]: computes both of the above every 10 s, runs a 1.5 s
//!    full-priority CPU **probe** once a minute, adopts whichever passive
//!    method lands closest to the probe, and carries the probe-minus-method
//!    difference forward as a **bias** — the only way to see through
//!    `nice`-level background load.
//!
//! The ground-truth oracle all three are scored against is the paper's
//! *test process*: a 10-second (or 5-minute) full-priority CPU-bound
//! process whose `cpu_time / wall_time` ratio defines measurement error
//! (Eq. 3) — [`nws_sim::Host::run_occupancy_process`] run for
//! [`TEST_DURATION_SHORT`] or [`TEST_DURATION_MEDIUM`].
//!
//! The [`proc`] module applies the same two passive formulas to a live
//! Linux host via `/proc/loadavg` and `/proc/stat`, so the library is
//! usable as a real monitor, not only against the simulator.

#![forbid(unsafe_code)]

pub mod hybrid;
pub mod loadavg_sensor;
pub mod proc;
pub mod vmstat_sensor;

pub use hybrid::{HybridConfig, HybridSensor, Method, ProbeOutcome};
pub use loadavg_sensor::{availability_from_load, LoadAvgSensor};
pub use vmstat_sensor::{availability_from_vmstat, VmstatReading, VmstatSensor};

use nws_runtime::Cadence;

/// Hybrid probe cadence: once per minute (from [`Cadence::PAPER`]).
pub const PROBE_PERIOD: f64 = Cadence::PAPER.probe_period;

/// Hybrid probe duration: 1.5 s ("the shortest probe duration that is
/// useful"); overhead `1.5/60 = 2.5 %` (from [`Cadence::PAPER`]).
pub const PROBE_DURATION: f64 = Cadence::PAPER.probe_duration;

/// Duration of the short test process (Tables 1–3).
pub const TEST_DURATION_SHORT: f64 = 10.0;

/// Duration of the medium-term test process (Table 6): 5 minutes.
pub const TEST_DURATION_MEDIUM: f64 = 300.0;
