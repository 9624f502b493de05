//! Stochastic workload generators.
//!
//! The six UCSD hosts in the paper are production machines under live
//! departmental load. These generators synthesize that load mechanistically:
//!
//! - [`InteractiveSessions`] — the workhorse. Poisson arrivals of user
//!   sessions, each alternating **Pareto-distributed CPU bursts** with
//!   Pareto think times. A superposition of heavy-tailed on/off sources has
//!   long-range-dependent aggregate load with `H = (3 − α)/2` (Willinger et
//!   al., the paper's reference \[28\]) — this is where the reproduction's
//!   H ≈ 0.7 availability traces come from.
//! - [`BatchArrivals`] — fire-and-forget CPU-bound jobs with heavy-tailed
//!   service demand (compute servers like *beowulf*).
//! - [`NiceSoaker`] — a `nice +19` background cycle-soaker with a duty
//!   cycle (*conundrum*).
//! - [`LongRunningHog`] — a persistent full-priority CPU-bound job
//!   (*kongo*).
//! - [`GatewayInterrupts`] — kernel interrupt load that consumes quanta as
//!   unattributable system time (the departmental-gateway anecdote under
//!   Eq. 2).

use crate::kernel::Kernel;
use crate::process::{Pid, ProcessSpec};
use crate::Seconds;
use nws_stats::{Distribution, Exponential, Pareto, Rng};
use std::sync::Arc;

/// A source of load on a simulated host, polled at every tick at or after
/// its [`Workload::next_due`].
///
/// `Send` is a supertrait so whole hosts (which own boxed workloads) can be
/// moved onto worker threads by the parallel experiment drivers.
pub trait Workload: std::fmt::Debug + Send {
    /// Display name (for traces and debugging).
    fn name(&self) -> &str;

    /// The earliest simulation time at which [`Workload::on_tick`] can do
    /// anything: at every tick whose [`Kernel::now`] is before it,
    /// `on_tick` must leave the source and the kernel untouched (no
    /// spawn, kill or (un)block, no random draw). The host runs the
    /// kernel through such ticks without polling. Read it off the source's
    /// own `now >= x` tests; `kernel.now()` means "poll me now".
    fn next_due(&self, kernel: &Kernel) -> Seconds;

    /// Called at a tick, before the kernel dispatches. The workload may
    /// spawn, kill, or (un)block its processes.
    fn on_tick(&mut self, kernel: &mut Kernel);

    /// Called after the host's kernel reboots, with `now` the boot time:
    /// every process the workload spawned is gone, so it must drop its
    /// stale [`Pid`]s and re-establish itself on subsequent ticks. Nothing
    /// ran while the host was dark, so nothing scheduled for the outage
    /// may fire at boot. The default is a no-op for stateless sources.
    fn on_reboot(&mut self, _now: Seconds) {}
}

// ---------------------------------------------------------------------------
// Interactive sessions
// ---------------------------------------------------------------------------

/// Sinusoidal day/night modulation of arrival rates.
///
/// Real departmental load has diurnal structure (the paper's Figure 1
/// traces run noon → noon with visible day/night phases). Arrival
/// *thinning*: an arrival drawn from the base Poisson process is kept with
/// probability `(1 + amplitude·sin(2π(t − phase)/period)) / (1 + amplitude)`,
/// which modulates the effective rate without touching the stream of draws
/// (so determinism and Little's-law priming stay valid for the mean rate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Diurnal {
    /// Cycle length in seconds (86 400 for a day).
    pub period: Seconds,
    /// Modulation depth in `[0, 1]`: 0 = flat, 1 = rate swings between 0
    /// and 2× the mean.
    pub amplitude: f64,
    /// Time of the rate peak within the cycle (seconds).
    pub peak_at: Seconds,
}

impl Diurnal {
    /// A standard working-day pattern: 24 h period, peak mid-afternoon.
    pub fn working_day(amplitude: f64) -> Self {
        assert!((0.0..=1.0).contains(&amplitude), "amplitude in [0, 1]");
        Self {
            period: 86_400.0,
            amplitude,
            peak_at: 15.0 * 3600.0, // 3 pm
        }
    }

    /// Acceptance probability for an arrival at time `t` (thinning).
    pub fn keep_probability(&self, t: Seconds) -> f64 {
        let phase = 2.0 * std::f64::consts::PI * (t - self.peak_at) / self.period;
        (1.0 + self.amplitude * phase.cos()) / (1.0 + self.amplitude)
    }
}

/// Configuration for [`InteractiveSessions`].
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Mean seconds between session arrivals (Poisson process).
    pub arrival_mean: Seconds,
    /// CPU burst length distribution (seconds). Heavy-tailed for
    /// self-similar aggregate load.
    pub burst: Pareto,
    /// Think time distribution (seconds).
    pub think: Pareto,
    /// Mean number of bursts per session (geometric).
    pub bursts_per_session: f64,
    /// Fraction of burst CPU charged as system time.
    pub sys_fraction: f64,
    /// Hard cap on concurrently active sessions.
    pub max_concurrent: usize,
    /// Fraction of an active burst actually spent on-CPU. Real interactive
    /// CPU consumption is interleaved with I/O, page waits, and user
    /// round-trips at the sub-second scale, so session processes keep a low
    /// `p_cpu` (their priority decays back toward fresh during every
    /// micro-sleep). That is precisely why a fresh full-priority probe
    /// *shares* with them instead of preempting them outright — the kongo
    /// pathology requires a truly CPU-bound resident (duty 1.0, no
    /// micro-sleeps).
    pub duty: f64,
    /// Mean length (seconds) of one on-CPU micro-slice inside a burst. The
    /// matching micro-sleep mean is derived from `duty`.
    pub micro_on_mean: f64,
    /// Optional day/night arrival modulation.
    pub diurnal: Option<Diurnal>,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            arrival_mean: 400.0,
            // α = 1.6 → implied Hurst (3 − 1.6)/2 = 0.7.
            burst: Pareto::new(1.6, 1.0).with_cap(900.0),
            think: Pareto::new(1.5, 5.0).with_cap(3600.0),
            bursts_per_session: 20.0,
            sys_fraction: 0.15,
            max_concurrent: 12,
            duty: 0.6,
            micro_on_mean: 0.6,
            diurnal: None,
        }
    }
}

#[derive(Debug)]
struct Session {
    pid: Pid,
    /// Simulation time of the next burst/think toggle.
    next_toggle: Seconds,
    /// True while in a CPU burst.
    bursting: bool,
    /// Bursts remaining before the session ends.
    bursts_left: u32,
    /// True while in the on-CPU half of the current micro-cycle.
    micro_on: bool,
    /// Simulation time of the next micro-cycle flip.
    micro_next: Seconds,
}

/// Poisson arrivals of interactive user sessions with Pareto on/off cycles.
#[derive(Debug)]
pub struct InteractiveSessions {
    name: String,
    /// Interned spawn name (`{name}-session`) so steady-state arrivals
    /// allocate nothing.
    session_name: Arc<str>,
    cfg: SessionConfig,
    rng: Rng,
    next_arrival: Seconds,
    sessions: Vec<Session>,
    /// Sessions to spawn on the first tick so the host starts in steady
    /// state rather than empty (session lifetimes are hours; without
    /// priming, a day-long trace would begin with an unrepresentative
    /// cold-start ramp).
    pending_initial: usize,
    primed: bool,
}

impl InteractiveSessions {
    /// Creates the workload. `rng` should be a stream forked for this
    /// source.
    pub fn new(name: impl Into<String>, cfg: SessionConfig, mut rng: Rng) -> Self {
        let first = Exponential::with_mean(cfg.arrival_mean).sample(&mut rng);
        // Little's law: steady-state session count = arrival rate × mean
        // session lifetime.
        let burst_mean = cfg.burst.mean().unwrap_or(0.0);
        let think_mean = cfg.think.mean().unwrap_or(0.0);
        let lifetime = cfg.bursts_per_session * (burst_mean + think_mean);
        let expected = (lifetime / cfg.arrival_mean).round() as usize;
        let name = name.into();
        Self {
            session_name: format!("{name}-session").into(),
            name,
            pending_initial: expected.min(cfg.max_concurrent),
            primed: false,
            cfg,
            rng,
            next_arrival: first,
            sessions: Vec::new(),
        }
    }

    /// Number of currently active sessions (bursting or thinking).
    pub fn active_sessions(&self) -> usize {
        self.sessions.len()
    }

    fn draw_bursts(&mut self) -> u32 {
        // Geometric with the configured mean, at least 1.
        let p = 1.0 / self.cfg.bursts_per_session.max(1.0);
        let u = self.rng.next_f64_open();
        ((u.ln() / (1.0 - p).ln()).ceil() as u32).max(1)
    }
}

impl Workload for InteractiveSessions {
    fn name(&self) -> &str {
        &self.name
    }

    fn next_due(&self, kernel: &Kernel) -> Seconds {
        if !self.primed {
            return kernel.now();
        }
        let micro = self.cfg.duty < 1.0;
        let mut due = self.next_arrival;
        for s in &self.sessions {
            due = due.min(s.next_toggle);
            if micro && s.bursting {
                due = due.min(s.micro_next);
            }
        }
        due
    }

    fn on_tick(&mut self, kernel: &mut Kernel) {
        let now = kernel.now();
        // Steady-state priming: spawn the expected session population with
        // randomized phase on the very first tick.
        if !self.primed {
            self.primed = true;
            let burst_mean = self.cfg.burst.mean().unwrap_or(1.0);
            let think_mean = self.cfg.think.mean().unwrap_or(1.0);
            let burst_frac = burst_mean / (burst_mean + think_mean).max(1e-9);
            for _ in 0..self.pending_initial {
                let bursts = self.draw_bursts();
                let bursting = self.rng.chance(burst_frac);
                let pid = kernel.spawn(
                    ProcessSpec::cpu_bound(Arc::clone(&self.session_name))
                        .with_sys_fraction(self.cfg.sys_fraction),
                );
                // Residual phase time: uniform fraction of a fresh draw.
                let phase = if bursting {
                    self.cfg.burst.sample(&mut self.rng)
                } else {
                    self.cfg.think.sample(&mut self.rng)
                } * self.rng.next_f64();
                kernel.set_runnable(pid, bursting);
                self.sessions.push(Session {
                    pid,
                    next_toggle: now + phase.max(crate::TICK),
                    bursting,
                    bursts_left: bursts.max(2),
                    micro_on: bursting,
                    micro_next: now,
                });
            }
        }
        // Session arrivals (with optional diurnal thinning).
        while self.next_arrival <= now {
            self.next_arrival +=
                Exponential::with_mean(self.cfg.arrival_mean).sample(&mut self.rng);
            if let Some(d) = self.cfg.diurnal {
                if !self.rng.chance(d.keep_probability(now)) {
                    continue; // thinned away: off-peak hours
                }
            }
            if self.sessions.len() >= self.cfg.max_concurrent {
                continue; // drop the arrival: the lab is full
            }
            let bursts = self.draw_bursts();
            let pid = kernel.spawn(
                ProcessSpec::cpu_bound(Arc::clone(&self.session_name))
                    .with_sys_fraction(self.cfg.sys_fraction),
            );
            let burst_len = self.cfg.burst.sample(&mut self.rng);
            self.sessions.push(Session {
                pid,
                next_toggle: now + burst_len,
                bursting: true,
                bursts_left: bursts,
                micro_on: true,
                micro_next: now,
            });
        }
        // On/off toggles and session departures.
        let mut i = 0;
        while i < self.sessions.len() {
            let due = self.sessions[i].next_toggle <= now;
            if !due {
                i += 1;
                continue;
            }
            let s = &mut self.sessions[i];
            if s.bursting {
                s.bursts_left = s.bursts_left.saturating_sub(1);
                if s.bursts_left == 0 {
                    kernel.kill(s.pid);
                    self.sessions.swap_remove(i);
                    continue;
                }
                kernel.set_runnable(s.pid, false);
                s.bursting = false;
                s.next_toggle = now + self.cfg.think.sample(&mut self.rng);
            } else {
                kernel.set_runnable(s.pid, true);
                s.bursting = true;
                s.next_toggle = now + self.cfg.burst.sample(&mut self.rng);
            }
            i += 1;
        }
        // Sub-second I/O interleaving: inside a burst the process alternates
        // on-CPU micro-slices with micro-sleeps so that its duty cycle is
        // `duty` and its `p_cpu` decays between slices.
        if self.cfg.duty < 1.0 {
            let on_mean = self.cfg.micro_on_mean.max(crate::TICK);
            let off_mean = (on_mean * (1.0 - self.cfg.duty) / self.cfg.duty).max(crate::TICK);
            for s in &mut self.sessions {
                if !s.bursting {
                    continue;
                }
                if now >= s.micro_next {
                    s.micro_on = !s.micro_on;
                    kernel.set_runnable(s.pid, s.micro_on);
                    let mean = if s.micro_on { on_mean } else { off_mean };
                    s.micro_next = now + Exponential::with_mean(mean).sample(&mut self.rng);
                }
            }
        }
    }

    fn on_reboot(&mut self, now: Seconds) {
        // All session processes died with the kernel; users log back in
        // through the ordinary arrival process (no re-priming — a freshly
        // booted host genuinely starts empty). Arrivals are Poisson, hence
        // memoryless: a fresh draw from the boot instant is the process as
        // it runs from boot, where the stale `next_arrival` would replay
        // every arrival of the outage at once.
        self.sessions.clear();
        self.next_arrival =
            now + Exponential::with_mean(self.cfg.arrival_mean).sample(&mut self.rng);
    }
}

// ---------------------------------------------------------------------------
// Batch arrivals
// ---------------------------------------------------------------------------

/// Configuration for [`BatchArrivals`].
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Mean seconds between job arrivals.
    pub arrival_mean: Seconds,
    /// CPU demand distribution (seconds of CPU per job).
    pub demand: Pareto,
    /// Nice value for the jobs.
    pub nice: u8,
    /// Fraction of CPU charged as system time.
    pub sys_fraction: f64,
    /// Hard cap on jobs in the system.
    pub max_concurrent: usize,
    /// On-CPU duty cycle (I/O interleaving; see [`SessionConfig::duty`]).
    /// Compute jobs are more CPU-bound than interactive sessions but still
    /// fault and read inputs.
    pub duty: f64,
    /// Mean on-CPU micro-slice length (seconds).
    pub micro_on_mean: f64,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            arrival_mean: 900.0,
            demand: Pareto::new(1.3, 20.0).with_cap(3600.0),
            nice: 0,
            sys_fraction: 0.05,
            max_concurrent: 6,
            duty: 0.8,
            micro_on_mean: 1.0,
        }
    }
}

#[derive(Debug)]
struct BatchJob {
    pid: Pid,
    micro_on: bool,
    micro_next: Seconds,
}

/// Poisson arrivals of CPU-bound batch jobs; the kernel reaps each job when
/// its (heavy-tailed) CPU demand is met.
#[derive(Debug)]
pub struct BatchArrivals {
    name: String,
    /// Interned spawn name (`{name}-job`) so steady-state arrivals
    /// allocate nothing.
    job_name: Arc<str>,
    cfg: BatchConfig,
    rng: Rng,
    next_arrival: Seconds,
    jobs: Vec<BatchJob>,
    completed_jobs: u64,
    completed_cpu: Seconds,
}

impl BatchArrivals {
    /// Creates the workload.
    pub fn new(name: impl Into<String>, cfg: BatchConfig, mut rng: Rng) -> Self {
        let first = Exponential::with_mean(cfg.arrival_mean).sample(&mut rng);
        let name = name.into();
        Self {
            job_name: format!("{name}-job").into(),
            name,
            cfg,
            rng,
            next_arrival: first,
            jobs: Vec::new(),
            completed_jobs: 0,
            completed_cpu: 0.0,
        }
    }

    /// Jobs reaped so far (their completion records are consumed by the
    /// workload itself — fire-and-forget jobs have no other collector).
    pub fn completed_jobs(&self) -> u64 {
        self.completed_jobs
    }

    /// Total CPU time consumed by reaped jobs.
    pub fn completed_cpu(&self) -> Seconds {
        self.completed_cpu
    }
}

impl Workload for BatchArrivals {
    fn name(&self) -> &str {
        &self.name
    }

    fn next_due(&self, kernel: &Kernel) -> Seconds {
        // A reaped job must be pruned before the micro loop draws for it.
        if self.jobs.iter().any(|j| !kernel.is_alive(j.pid)) {
            return kernel.now();
        }
        let mut due = self.next_arrival;
        if self.cfg.duty < 1.0 {
            for j in &self.jobs {
                due = due.min(j.micro_next);
            }
        }
        due
    }

    fn on_tick(&mut self, kernel: &mut Kernel) {
        let now = kernel.now();
        // Prune finished jobs (the kernel reaps at the CPU limit) and
        // consume their completion records: fire-and-forget jobs have no
        // other collector, and without this the kernel's completed list
        // grows without bound over a long monitoring run.
        for j in &self.jobs {
            if !kernel.is_alive(j.pid) {
                if let Some(stats) = kernel.remove_completed(j.pid) {
                    self.completed_jobs += 1;
                    self.completed_cpu += stats.cpu_time;
                }
            }
        }
        self.jobs.retain(|j| kernel.is_alive(j.pid));
        // I/O interleaving for running jobs (micro on/off cycles).
        if self.cfg.duty < 1.0 {
            let on_mean = self.cfg.micro_on_mean.max(crate::TICK);
            let off_mean = (on_mean * (1.0 - self.cfg.duty) / self.cfg.duty).max(crate::TICK);
            for j in &mut self.jobs {
                if now >= j.micro_next {
                    j.micro_on = !j.micro_on;
                    kernel.set_runnable(j.pid, j.micro_on);
                    let mean = if j.micro_on { on_mean } else { off_mean };
                    j.micro_next = now + Exponential::with_mean(mean).sample(&mut self.rng);
                }
            }
        }
        while self.next_arrival <= now {
            self.next_arrival +=
                Exponential::with_mean(self.cfg.arrival_mean).sample(&mut self.rng);
            if self.jobs.len() >= self.cfg.max_concurrent {
                continue;
            }
            let demand = self.cfg.demand.sample(&mut self.rng).max(crate::TICK);
            let pid = kernel.spawn(
                ProcessSpec::cpu_bound(Arc::clone(&self.job_name))
                    .with_nice(self.cfg.nice)
                    .with_sys_fraction(self.cfg.sys_fraction)
                    .with_cpu_limit(demand),
            );
            self.jobs.push(BatchJob {
                pid,
                micro_on: true,
                micro_next: now,
            });
        }
    }

    fn on_reboot(&mut self, now: Seconds) {
        // In-flight jobs are lost; new arrivals repopulate the queue,
        // drawn afresh from the boot instant as for sessions.
        self.jobs.clear();
        self.next_arrival =
            now + Exponential::with_mean(self.cfg.arrival_mean).sample(&mut self.rng);
    }
}

// ---------------------------------------------------------------------------
// Nice soaker (conundrum)
// ---------------------------------------------------------------------------

/// A `nice +19` background cycle-soaker with an on/off duty cycle.
///
/// "On conundrum, a background process was running with Unix nice priority
/// of 19 in an attempt to use otherwise unused CPU cycles" — it inflates
/// load average and vmstat occupancy but is invisible to any full-priority
/// probe or test process, which preempt it instantly.
#[derive(Debug)]
pub struct NiceSoaker {
    name: String,
    rng: Rng,
    on_mean: Seconds,
    off_mean: Seconds,
    pid: Option<Pid>,
    on: bool,
    next_toggle: Seconds,
}

impl NiceSoaker {
    /// Creates a soaker that is on for ~`on_mean` seconds then pauses for
    /// ~`off_mean` seconds (both exponential). Use `off_mean = 0` for an
    /// always-on soaker.
    pub fn new(name: impl Into<String>, on_mean: Seconds, off_mean: Seconds, rng: Rng) -> Self {
        assert!(on_mean > 0.0, "on_mean must be positive");
        assert!(off_mean >= 0.0, "off_mean must be non-negative");
        Self {
            name: name.into(),
            rng,
            on_mean,
            off_mean,
            pid: None,
            on: false,
            next_toggle: 0.0,
        }
    }
}

impl Workload for NiceSoaker {
    fn name(&self) -> &str {
        &self.name
    }

    fn next_due(&self, kernel: &Kernel) -> Seconds {
        match self.pid {
            None => kernel.now(),
            Some(_) => self.next_toggle,
        }
    }

    fn on_tick(&mut self, kernel: &mut Kernel) {
        let now = kernel.now();
        let pid = *self.pid.get_or_insert_with(|| {
            kernel.spawn(
                ProcessSpec::cpu_bound(format!("{}-soaker", self.name))
                    .with_nice(19)
                    .sleeping(),
            )
        });
        if now >= self.next_toggle {
            if self.on && self.off_mean > 0.0 {
                self.on = false;
                kernel.set_runnable(pid, false);
                self.next_toggle =
                    now + Exponential::with_mean(self.off_mean).sample(&mut self.rng);
            } else {
                self.on = true;
                kernel.set_runnable(pid, true);
                self.next_toggle = now + Exponential::with_mean(self.on_mean).sample(&mut self.rng);
            }
        }
    }

    fn on_reboot(&mut self, _now: Seconds) {
        // The soaker respawns (sleeping) on the next tick and resumes its
        // duty cycle from the off state.
        self.pid = None;
        self.on = false;
    }
}

// ---------------------------------------------------------------------------
// Long-running hog (kongo)
// ---------------------------------------------------------------------------

/// A persistent, full-priority, CPU-bound job.
///
/// "During the monitor period, a long-running, full-priority process was
/// executing on kongo." Its accumulated `p_cpu` means any *fresh* short
/// process (like the 1.5 s NWS probe) preempts it cleanly, while a
/// 10-second test process ends up time-sharing — the mechanism behind the
/// hybrid sensor's 41 % error on kongo.
#[derive(Debug)]
pub struct LongRunningHog {
    name: String,
    start_at: Seconds,
    sys_fraction: f64,
    pid: Option<Pid>,
}

impl LongRunningHog {
    /// Creates a hog that starts running at `start_at` seconds and never
    /// stops.
    pub fn new(name: impl Into<String>, start_at: Seconds, sys_fraction: f64) -> Self {
        Self {
            name: name.into(),
            start_at,
            sys_fraction,
            pid: None,
        }
    }
}

impl Workload for LongRunningHog {
    fn name(&self) -> &str {
        &self.name
    }

    fn next_due(&self, _kernel: &Kernel) -> Seconds {
        match self.pid {
            None => self.start_at,
            Some(_) => Seconds::INFINITY,
        }
    }

    fn on_tick(&mut self, kernel: &mut Kernel) {
        if self.pid.is_none() && kernel.now() >= self.start_at {
            self.pid = Some(
                kernel.spawn(
                    ProcessSpec::cpu_bound(format!("{}-hog", self.name))
                        .with_sys_fraction(self.sys_fraction),
                ),
            );
        }
    }

    fn on_reboot(&mut self, _now: Seconds) {
        // The hog is restarted (cron / user re-launch) on the next tick.
        self.pid = None;
    }
}

// ---------------------------------------------------------------------------
// Gateway interrupts
// ---------------------------------------------------------------------------

/// Kernel interrupt load: a slowly varying per-tick probability that the
/// quantum is consumed by unattributable system time.
///
/// Models the paper's gateway anecdote: "if a machine is used as a network
/// gateway … user-level processes may be denied CPU time as the kernel
/// services network-level packet interrupts."
#[derive(Debug)]
pub struct GatewayInterrupts {
    name: String,
    rng: Rng,
    lo: f64,
    hi: f64,
    redraw_every: Seconds,
    next_redraw: Seconds,
}

impl GatewayInterrupts {
    /// Creates interrupt load whose intensity is redrawn uniformly from
    /// `[lo, hi)` every `redraw_every` seconds.
    pub fn new(name: impl Into<String>, lo: f64, hi: f64, redraw_every: Seconds, rng: Rng) -> Self {
        assert!((0.0..1.0).contains(&lo) && lo < hi && hi < 1.0, "bad range");
        assert!(redraw_every > 0.0);
        Self {
            name: name.into(),
            rng,
            lo,
            hi,
            redraw_every,
            next_redraw: 0.0,
        }
    }
}

impl Workload for GatewayInterrupts {
    fn name(&self) -> &str {
        &self.name
    }

    fn next_due(&self, _kernel: &Kernel) -> Seconds {
        self.next_redraw
    }

    fn on_tick(&mut self, kernel: &mut Kernel) {
        if kernel.now() >= self.next_redraw {
            let p = self.rng.range_f64(self.lo, self.hi);
            kernel.set_interrupt_probability(p);
            self.next_redraw = kernel.now() + self.redraw_every;
        }
    }

    fn on_reboot(&mut self, _now: Seconds) {
        // The reboot quiesced the kernel's interrupt probability; force a
        // redraw on the next tick so gateway duty resumes immediately.
        self.next_redraw = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TICK;

    fn run(workloads: &mut [Box<dyn Workload>], kernel: &mut Kernel, seconds: f64) {
        let ticks = (seconds / TICK).round() as u64;
        for _ in 0..ticks {
            for w in workloads.iter_mut() {
                w.on_tick(kernel);
            }
            kernel.tick();
        }
    }

    #[test]
    fn interactive_sessions_generate_load() {
        let mut k = Kernel::new(1);
        let cfg = SessionConfig {
            arrival_mean: 60.0,
            ..SessionConfig::default()
        };
        let mut ws: Vec<Box<dyn Workload>> =
            vec![Box::new(InteractiveSessions::new("ix", cfg, Rng::new(11)))];
        run(&mut ws, &mut k, 1800.0);
        let a = k.accounting();
        // Some CPU was consumed, some idleness remains.
        assert!(a.user + a.sys > 30.0, "used = {}", a.user + a.sys);
        assert!(a.idle > 30.0, "idle = {}", a.idle);
    }

    #[test]
    fn sessions_respect_concurrency_cap() {
        let mut k = Kernel::new(1);
        let cfg = SessionConfig {
            arrival_mean: 1.0, // flood
            max_concurrent: 3,
            ..SessionConfig::default()
        };
        let mut w = InteractiveSessions::new("ix", cfg, Rng::new(13));
        for _ in 0..((600.0 / TICK) as u64) {
            w.on_tick(&mut k);
            k.tick();
        }
        assert!(w.active_sessions() <= 3);
        assert!(k.process_count() <= 3);
    }

    #[test]
    fn sessions_eventually_depart() {
        let mut k = Kernel::new(1);
        let cfg = SessionConfig {
            arrival_mean: 1e12, // no further arrivals after warm start
            bursts_per_session: 2.0,
            ..SessionConfig::default()
        };
        let mut w = InteractiveSessions::new("ix", cfg, Rng::new(17));
        // Force one arrival by setting next_arrival to 0 via a fresh struct:
        w.next_arrival = 0.0;
        for _ in 0..((7200.0 / TICK) as u64) {
            w.on_tick(&mut k);
            k.tick();
            if w.active_sessions() == 0 && k.now() > 10.0 {
                break;
            }
        }
        assert_eq!(w.active_sessions(), 0, "session never departed");
        assert_eq!(k.process_count(), 0);
    }

    #[test]
    fn batch_jobs_complete() {
        let mut k = Kernel::new(1);
        let cfg = BatchConfig {
            arrival_mean: 120.0,
            demand: Pareto::new(1.5, 5.0).with_cap(60.0),
            ..BatchConfig::default()
        };
        let mut w = BatchArrivals::new("batch", cfg, Rng::new(19));
        for _ in 0..((3600.0 / TICK) as u64) {
            w.on_tick(&mut k);
            k.tick();
        }
        // One extra tick so the workload consumes any record reaped on
        // the final kernel tick.
        w.on_tick(&mut k);
        assert!(w.completed_jobs() > 0, "no batch job completed in an hour");
        // Pareto demand has scale 5.0, so every job consumed at least that.
        assert!(w.completed_cpu() >= w.completed_jobs() as f64 * (5.0 - TICK));
        // The workload consumed every record: nothing left behind to leak.
        assert!(k.drain_completed().is_empty());
    }

    #[test]
    fn nice_soaker_keeps_load_but_yields() {
        let mut k = Kernel::new(1);
        let mut ws: Vec<Box<dyn Workload>> =
            vec![Box::new(NiceSoaker::new("bg", 100.0, 0.0, Rng::new(23)))];
        run(&mut ws, &mut k, 600.0);
        // Always-on soaker drives load average to ~1.
        assert!((k.load_average().one_minute() - 1.0).abs() < 0.1);
        // Full-priority work preempts it (modulo the anti-starvation
        // sliver the kernel grants the soaker).
        let fg = k.spawn(ProcessSpec::cpu_bound("fg"));
        run(&mut ws, &mut k, 10.0);
        assert!(k.cpu_time(fg).unwrap() > 8.5);
    }

    #[test]
    fn soaker_duty_cycle_reduces_mean_load() {
        let mut k = Kernel::new(5);
        let mut ws: Vec<Box<dyn Workload>> =
            vec![Box::new(NiceSoaker::new("bg", 200.0, 100.0, Rng::new(29)))];
        run(&mut ws, &mut k, 4.0 * 3600.0);
        let a = k.accounting();
        let busy = (a.user + a.sys) / a.total();
        assert!(busy > 0.4 && busy < 0.9, "busy = {busy}");
    }

    #[test]
    fn hog_starts_at_configured_time() {
        let mut k = Kernel::new(1);
        let mut ws: Vec<Box<dyn Workload>> = vec![Box::new(LongRunningHog::new("res", 50.0, 0.0))];
        run(&mut ws, &mut k, 49.0);
        assert_eq!(k.process_count(), 0);
        run(&mut ws, &mut k, 100.0);
        assert_eq!(k.process_count(), 1);
        // Hog owns the machine.
        let a = k.accounting();
        assert!(a.user > 95.0, "user = {}", a.user);
    }

    #[test]
    fn gateway_interrupts_consume_sys_time() {
        let mut k = Kernel::new(1);
        let mut ws: Vec<Box<dyn Workload>> = vec![Box::new(GatewayInterrupts::new(
            "gw",
            0.2,
            0.4,
            60.0,
            Rng::new(31),
        ))];
        run(&mut ws, &mut k, 600.0);
        let a = k.accounting();
        let sys_frac = a.sys / a.total();
        assert!((0.1..0.5).contains(&sys_frac), "sys = {sys_frac}");
    }

    #[test]
    fn diurnal_keep_probability_shape() {
        let d = Diurnal::working_day(1.0);
        // Peak at 3pm: probability 1; trough at 3am: probability ~0.
        assert!((d.keep_probability(15.0 * 3600.0) - 1.0).abs() < 1e-9);
        assert!(d.keep_probability(3.0 * 3600.0) < 0.01);
        // Flat modulation keeps everything.
        let flat = Diurnal::working_day(0.0);
        for h in 0..24 {
            assert!((flat.keep_probability(h as f64 * 3600.0) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn diurnal_sessions_are_busier_at_peak() {
        // Two identical hosts, one sampled across day vs night windows.
        let cfg = SessionConfig {
            arrival_mean: 120.0,
            bursts_per_session: 3.0,
            burst: Pareto::new(1.8, 60.0).with_cap(600.0),
            think: Pareto::new(1.8, 60.0).with_cap(600.0),
            max_concurrent: 30,
            diurnal: Some(Diurnal::working_day(0.9)),
            ..SessionConfig::default()
        };
        let mut k = Kernel::new(1);
        let mut w = InteractiveSessions::new("ix", cfg, Rng::new(11));
        // Advance to 3 pm and count accumulated busy time over 2 h.
        let advance_to = |k: &mut Kernel, w: &mut InteractiveSessions, t: f64| {
            while k.now() < t {
                w.on_tick(k);
                k.tick();
            }
        };
        advance_to(&mut k, &mut w, 14.0 * 3600.0);
        let a0 = k.accounting();
        advance_to(&mut k, &mut w, 16.0 * 3600.0);
        let day_busy = k.accounting().since(&a0);
        advance_to(&mut k, &mut w, 26.0 * 3600.0); // 2 am next day
        let a1 = k.accounting();
        advance_to(&mut k, &mut w, 28.0 * 3600.0); // 4 am
        let night_busy = k.accounting().since(&a1);
        let day = day_busy.user + day_busy.sys;
        let night = night_busy.user + night_busy.sys;
        assert!(
            day > night * 1.5,
            "day busy {day:.0}s should dominate night busy {night:.0}s"
        );
    }
}
