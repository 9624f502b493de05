//! A discrete-time, time-shared Unix host simulator.
//!
//! The paper measures CPU availability on six production Unix machines at
//! UCSD in August 1998. We do not have those machines, so this crate builds
//! the closest mechanistic substitute: a simulator of a single-CPU Unix host
//! running a **4.3BSD-style decay-priority scheduler**, the scheduler family
//! all of the paper's observations are about.
//!
//! The fidelity requirements come straight from Section 2 of the paper:
//!
//! - **Load average** must be an exponentially smoothed 5-second sampling of
//!   run-queue length (so the `uptime` sensor sees the same smoothing lag a
//!   real kernel imposes).
//! - **`nice` processes** must occupy the run queue (inflating load average
//!   and vmstat occupancy) while being instantly preempted by full-priority
//!   work — this produces the *conundrum* pathology, where load average and
//!   vmstat report ~33 % error but the probe-based hybrid sensor is right.
//! - **Long-running full-priority processes** must suffer priority decay
//!   (`p_cpu` accumulation), so that a short, fresh probe preempts them and
//!   overestimates availability while a 10-second test process ends up
//!   time-sharing — the *kongo* pathology, where the hybrid errs by ~41 %.
//! - **user/sys/idle accounting** must be tick-accurate so the `vmstat`
//!   sensor (Eq. 2) sees realistic occupancy fractions, including kernel
//!   interrupt (system) time that is not attributable to any process.
//!
//! The simulation advances in fixed 100 ms scheduling quanta ([`TICK`]),
//! each going whole to one process, to interrupt work, or to idle: every
//! host has one CPU, like the machines the paper measured.
//! Workload generators ([`workload`]) spawn and control processes; the six
//! UCSD host profiles are in [`profiles`].
//!
//! Every quantum is simulated, but the host is event-driven about its
//! workloads: each says when it next acts ([`Workload::next_due`]), the
//! host polls them only at ticks where one is due, and the kernel runs the
//! quanta in between as one quiet stretch on a fixed run queue
//! (`Kernel::run_quiet`). On most quanta of a profile host nothing but
//! the kernel moves, so most are never polled; the outputs are bit for bit
//! those of polling every workload on every tick.

#![forbid(unsafe_code)]

pub mod host;
pub mod kernel;
pub mod loadavg;
pub mod process;
pub mod profiles;
pub mod trace;
pub mod workload;

pub use host::Host;
pub use kernel::{Accounting, Kernel, ProcessStats, ProcessView};
pub use loadavg::LoadAverage;
pub use process::{Pid, ProcessSpec};
pub use profiles::{
    synthetic_host_name, synthetic_roster, ucsd_availability_traces, ucsd_hosts, HostProfile,
    SyntheticHost, UCSD_HOST_NAMES,
};
pub use trace::{record_load_trace, LoadTrace, TraceReplay};
pub use workload::{
    BatchArrivals, Diurnal, GatewayInterrupts, InteractiveSessions, LongRunningHog, NiceSoaker,
    Workload,
};

/// Seconds (simulation time).
pub type Seconds = f64;

/// One scheduling quantum: 100 ms, the classical Unix time slice.
pub const TICK: Seconds = 0.1;

/// Ticks per second.
pub const TICKS_PER_SECOND: u64 = 10;

/// `p_cpu` increment per tick of CPU consumed.
///
/// 4.3BSD increments `p_cpu` once per 10 ms clock interrupt; one 100 ms
/// quantum therefore adds 10.
pub const PCPU_PER_TICK: f64 = 10.0;

/// The base user-mode priority (`PUSER` in 4.3BSD).
pub const PUSER: f64 = 50.0;

/// Kernel load-average sampling period (seconds), as in 4.3BSD.
pub const LOAD_SAMPLE_PERIOD: Seconds = 5.0;

/// Anti-starvation limit in ticks: a runnable process that has waited this
/// long runs regardless of priority (Solaris TS `ts_maxwait`-style aging).
/// At 10 ticks (one second) a fully starved `nice +19` process obtains
/// roughly a 9 % CPU share under saturating full-priority load.
pub const STARVATION_TICKS: u64 = 10;
