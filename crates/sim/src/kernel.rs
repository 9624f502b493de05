//! The simulated kernel: scheduler, accounting, and load bookkeeping.
//!
//! One [`Kernel`] models one single-CPU host. Time advances in fixed
//! [`TICK`]-length quanta. Each tick the kernel:
//!
//! 1. samples the run queue into the load averages (every 5 s),
//! 2. decays every process's `p_cpu` (every 1 s) by the 4.3BSD law
//!    `p_cpu ← p_cpu · (2·load)/(2·load + 1) + nice`,
//! 3. optionally consumes the quantum with kernel interrupt work
//!    (network gateway behaviour — charged as system time); otherwise
//! 4. gives the quantum to one runnable process: one that has waited
//!    [`STARVATION_TICKS`] if there is any, else the *numerically
//!    smallest* priority `PUSER + p_cpu/4 + 2·nice`, ties going to the
//!    least recently run (round-robin) and, among those, to the earliest
//!    slot of the process table. With nothing runnable the quantum idles.
//!
//! There is one CPU, as on every machine the paper measured
//! (shared-memory multiprocessors are its stated future work).
//!
//! Those four steps are the kernel's one tick body, in
//! `Kernel::run_quiet`. Between two workload polls nothing outside the
//! kernel spawns, kills or (un)blocks a process, so the runnable set stays
//! fixed until the kernel itself reaps one: a *quiet stretch* collects the
//! runnable slots once and runs quantum after quantum on that fixed run
//! queue, stopping right after a reap. [`Kernel::tick`] is the
//! one-quantum stretch, and `Kernel::first_tick_at` tells the host how
//! long a stretch may be.
//!
//! This is the mechanism behind both priority pathologies in the paper:
//! a `nice +19` soaker sits in the run queue but always loses to
//! full-priority work (conundrum), and a long-running job accumulates
//! `p_cpu` so any fresh short process preempts it (kongo).

use crate::loadavg::LoadAverage;
use crate::process::{Pid, Process, ProcessSpec};
use crate::{Seconds, PCPU_PER_TICK, STARVATION_TICKS, TICK, TICKS_PER_SECOND};
use nws_stats::Rng;
use std::sync::Arc;

/// Cumulative CPU-time accounting, the counters `vmstat` reports.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Accounting {
    /// Seconds of CPU spent in user mode.
    pub user: Seconds,
    /// Seconds of CPU spent in system mode (syscalls + interrupts).
    pub sys: Seconds,
    /// Seconds of CPU spent idle.
    pub idle: Seconds,
}

impl Accounting {
    /// Total accounted time.
    pub fn total(&self) -> Seconds {
        self.user + self.sys + self.idle
    }

    /// Element-wise difference `self − earlier`; used by sensors to obtain
    /// occupancy fractions over their sampling interval.
    pub fn since(&self, earlier: &Accounting) -> Accounting {
        Accounting {
            user: self.user - earlier.user,
            sys: self.sys - earlier.sys,
            idle: self.idle - earlier.idle,
        }
    }
}

/// A `ps`-style view of one live process.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessView {
    /// The process id.
    pub pid: Pid,
    /// Display name from the spawn spec.
    pub name: Arc<str>,
    /// The nice value.
    pub nice: u8,
    /// Whether the process is currently runnable.
    pub runnable: bool,
    /// Recent-CPU estimate (the scheduler's `p_cpu`).
    pub p_cpu: f64,
    /// The dispatch priority derived from it (smaller runs first).
    pub priority: f64,
    /// Total CPU time consumed (seconds).
    pub cpu_time: Seconds,
    /// Wall-clock age (seconds).
    pub age: Seconds,
}

/// Final statistics for a process that exited or was killed.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessStats {
    /// The process id.
    pub pid: Pid,
    /// Display name from the spawn spec.
    pub name: Arc<str>,
    /// Total CPU time consumed (seconds).
    pub cpu_time: Seconds,
    /// Wall-clock lifetime (seconds).
    pub wall_time: Seconds,
    /// The nice value the process ran with.
    pub nice: u8,
}

impl ProcessStats {
    /// CPU occupancy over the process lifetime: `cpu_time / wall_time`.
    ///
    /// This is exactly what the paper's probe and test processes report
    /// (`getrusage` CPU time over elapsed wall-clock time).
    pub fn occupancy(&self) -> f64 {
        if self.wall_time <= 0.0 {
            0.0
        } else {
            (self.cpu_time / self.wall_time).clamp(0.0, 1.0)
        }
    }
}

/// A simulated uniprocessor Unix kernel.
#[derive(Debug)]
pub struct Kernel {
    tick_count: u64,
    next_pid: u64,
    procs: Vec<Process>,
    loadavg: LoadAverage,
    accounting: Accounting,
    /// Per-tick probability that kernel interrupt work consumes the quantum.
    interrupt_prob: f64,
    rng: Rng,
    completed: Vec<ProcessStats>,
    /// The runnable slots of the current `Kernel::run_quiet` stretch,
    /// kept between stretches so none allocates after warm-up.
    run_queue: Vec<usize>,
}

impl Kernel {
    /// Creates an idle kernel. `seed` drives only kernel-internal
    /// randomness (interrupt arrivals).
    pub fn new(seed: u64) -> Self {
        Self {
            tick_count: 0,
            next_pid: 1,
            procs: Vec::new(),
            loadavg: LoadAverage::new(),
            accounting: Accounting::default(),
            interrupt_prob: 0.0,
            rng: Rng::new(seed),
            completed: Vec::new(),
            run_queue: Vec::new(),
        }
    }

    /// Current simulation time in seconds.
    pub fn now(&self) -> Seconds {
        self.tick_count as Seconds * TICK
    }

    /// Number of elapsed ticks.
    pub fn tick_count(&self) -> u64 {
        self.tick_count
    }

    /// The first tick, not before the current one, at which [`Kernel::now`]
    /// reads at least `t`: the smallest `k ≥ tick_count` with
    /// `k as f64 * TICK >= t`. This is the float test workloads make
    /// through `now()`, so it is `ceil(t / TICK)` moved by the one step
    /// either way that rounding can put it off. An infinite `t` (or one
    /// past every tick) gives `u64::MAX`.
    pub(crate) fn first_tick_at(&self, t: Seconds) -> u64 {
        let reached = |k: u64| k as Seconds * TICK >= t;
        // `as` saturates: NaN and negatives give 0, +∞ gives u64::MAX.
        let mut k = ((t / TICK).ceil() as u64).max(self.tick_count);
        while k > self.tick_count && reached(k - 1) {
            k -= 1;
        }
        while !reached(k) && k < u64::MAX {
            k += 1;
        }
        k
    }

    /// Spawns a process and returns its pid.
    pub fn spawn(&mut self, spec: ProcessSpec) -> Pid {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        self.procs.push(Process {
            pid,
            name: spec.name,
            nice: spec.nice.min(19),
            sys_fraction: spec.sys_fraction,
            cpu_limit: spec.cpu_limit,
            runnable: spec.runnable,
            p_cpu: 0.0,
            cpu_time: 0.0,
            last_run_tick: self.tick_count,
            spawned_at: self.now(),
        });
        pid
    }

    /// Kills a process, returning its final statistics if it was alive.
    pub fn kill(&mut self, pid: Pid) -> Option<ProcessStats> {
        let idx = self.procs.iter().position(|p| p.pid == pid)?;
        let p = self.procs.swap_remove(idx);
        Some(self.stats_of(&p))
    }

    fn stats_of(&self, p: &Process) -> ProcessStats {
        ProcessStats {
            pid: p.pid,
            name: Arc::clone(&p.name),
            cpu_time: p.cpu_time,
            wall_time: self.now() - p.spawned_at,
            nice: p.nice,
        }
    }

    /// Marks a process runnable (`true`) or sleeping (`false`).
    /// Returns `false` if the pid is not alive.
    pub fn set_runnable(&mut self, pid: Pid, runnable: bool) -> bool {
        match self.procs.iter_mut().find(|p| p.pid == pid) {
            Some(p) => {
                p.runnable = runnable;
                true
            }
            None => false,
        }
    }

    /// True if the process exists (has neither exited nor been killed).
    pub fn is_alive(&self, pid: Pid) -> bool {
        self.procs.iter().any(|p| p.pid == pid)
    }

    /// CPU time consumed so far by a live process.
    pub fn cpu_time(&self, pid: Pid) -> Option<Seconds> {
        self.procs.iter().find(|p| p.pid == pid).map(|p| p.cpu_time)
    }

    /// Number of live processes.
    pub fn process_count(&self) -> usize {
        self.procs.len()
    }

    /// Instantaneous run-queue length (runnable processes, all priorities —
    /// Unix counts `nice` jobs too, which is central to the conundrum
    /// pathology).
    pub fn runnable_count(&self) -> usize {
        self.procs.iter().filter(|p| p.runnable).count()
    }

    /// The kernel's load averages.
    pub fn load_average(&self) -> &LoadAverage {
        &self.loadavg
    }

    /// Cumulative user/sys/idle accounting.
    pub fn accounting(&self) -> Accounting {
        self.accounting
    }

    /// Sets the per-tick probability that interrupt handling consumes the
    /// quantum (system time not attributable to any process). Models the
    /// network-gateway behaviour discussed under Eq. 2 in the paper.
    ///
    /// # Panics
    ///
    /// Panics unless `p ∈ [0, 1)`.
    pub fn set_interrupt_probability(&mut self, p: f64) {
        assert!((0.0..1.0).contains(&p), "interrupt probability in [0,1)");
        self.interrupt_prob = p;
    }

    /// Drains the list of processes that hit their CPU limit and exited.
    pub fn drain_completed(&mut self) -> Vec<ProcessStats> {
        std::mem::take(&mut self.completed)
    }

    /// Removes and returns the completion record of one specific process,
    /// leaving other completions for their owners.
    pub fn remove_completed(&mut self, pid: Pid) -> Option<ProcessStats> {
        let idx = self.completed.iter().position(|s| s.pid == pid)?;
        Some(self.completed.swap_remove(idx))
    }

    /// A `ps`-style listing of every live process, ordered by pid.
    pub fn process_table(&self) -> Vec<ProcessView> {
        let now = self.now();
        let mut table: Vec<ProcessView> = self
            .procs
            .iter()
            .map(|p| ProcessView {
                pid: p.pid,
                name: Arc::clone(&p.name),
                nice: p.nice,
                runnable: p.runnable,
                p_cpu: p.p_cpu,
                priority: p.priority(),
                cpu_time: p.cpu_time,
                age: now - p.spawned_at,
            })
            .collect();
        table.sort_by_key(|v| v.pid);
        table
    }

    /// Advances the simulation by exactly one quantum: the one-quantum
    /// `Kernel::run_quiet`.
    pub fn tick(&mut self) {
        self.run_quiet(1);
    }

    /// Runs up to `n` quanta on a fixed run queue, stopping right after a
    /// quantum that reaps a process.
    ///
    /// The runnable slots are collected once, in table order, and every
    /// quantum picks among them. That is exact as long as nothing outside
    /// the kernel spawns, kills or (un)blocks a process meanwhile — which
    /// holds between two workload polls — and a reap, the one change the
    /// kernel makes itself, ends the stretch.
    pub(crate) fn run_quiet(&mut self, n: u64) {
        let mut queue = std::mem::take(&mut self.run_queue);
        queue.clear();
        queue.extend((0..self.procs.len()).filter(|&i| self.procs[i].runnable));
        for _ in 0..n {
            // 5-second kernel load sampling, offset by 2.5 s from
            // whole-second boundaries so that sensor-driven activity that
            // is phase-locked to 10-second measurement slots (the NWS
            // probe, test processes) is sampled in proportion to its true
            // occupancy rather than aliased.
            if self.tick_count % (TICKS_PER_SECOND * 5) == TICKS_PER_SECOND * 5 / 2 {
                self.loadavg.sample(queue.len());
            }
            // Once-per-second p_cpu decay (the digital filter of 4.3BSD).
            if self.tick_count.is_multiple_of(TICKS_PER_SECOND) {
                let load = self.loadavg.one_minute();
                let decay = (2.0 * load) / (2.0 * load + 1.0);
                for p in &mut self.procs {
                    p.p_cpu = p.p_cpu * decay + p.nice as f64;
                }
            }
            let mut reaped = false;
            // Interrupt work may consume the quantum.
            if self.interrupt_prob > 0.0 && self.rng.chance(self.interrupt_prob) {
                self.accounting.sys += TICK;
            } else if let Some(idx) = self.pick(&queue) {
                let p = &mut self.procs[idx];
                p.cpu_time += TICK;
                p.p_cpu += PCPU_PER_TICK;
                p.last_run_tick = self.tick_count;
                self.accounting.user += TICK * (1.0 - p.sys_fraction);
                self.accounting.sys += TICK * p.sys_fraction;
                if matches!(p.cpu_limit, Some(limit) if p.cpu_time >= limit - 1e-9) {
                    let done = self.procs.swap_remove(idx);
                    let stats = self.stats_of_after_tick(&done);
                    self.completed.push(stats);
                    reaped = true;
                }
            } else {
                self.accounting.idle += TICK;
            }
            self.tick_count += 1;
            if reaped {
                break;
            }
        }
        self.run_queue = queue;
    }

    /// The table slot, among the runnable slots `queue` (ascending), of
    /// the process this quantum goes to: a starved one first, then
    /// smallest priority, round-robin tiebreak via least-recently-run;
    /// among full ties the earliest slot, because `min_by` keeps the first
    /// of equal minima.
    ///
    /// A runnable process that has not run for STARVATION_TICKS is
    /// dispatched regardless of priority (the Solaris TS `ts_maxwait`
    /// kicker; 4.3BSD achieves the same through event-priority boosts).
    /// This is why a `nice +19` soaker still obtains a sliver of CPU under
    /// full-priority load — and why the paper's test process observes
    /// ~85-90% (not 100%) availability on conundrum.
    fn pick(&self, queue: &[usize]) -> Option<usize> {
        let starved = |p: &Process| self.tick_count - p.last_run_tick >= STARVATION_TICKS;
        queue.iter().copied().min_by(|&a, &b| {
            let (a, b) = (&self.procs[a], &self.procs[b]);
            (starved(b).cmp(&starved(a)))
                .then_with(|| a.priority().total_cmp(&b.priority()))
                .then(a.last_run_tick.cmp(&b.last_run_tick))
        })
    }

    /// Stats for a process reaped inside the current tick (the quantum it
    /// just consumed counts toward its wall time).
    fn stats_of_after_tick(&self, p: &Process) -> ProcessStats {
        ProcessStats {
            pid: p.pid,
            name: Arc::clone(&p.name),
            cpu_time: p.cpu_time,
            wall_time: (self.tick_count + 1) as Seconds * TICK - p.spawned_at,
            nice: p.nice,
        }
    }

    /// Advances by `n` ticks.
    pub fn run_ticks(&mut self, n: u64) {
        let end = self.tick_count + n;
        while self.tick_count < end {
            self.run_quiet(end - self.tick_count);
        }
    }

    /// Reboots the kernel: every process is lost, accounting counters and
    /// load averages restart from zero, interrupt sources are quiesced.
    ///
    /// The clock (`tick_count`) and the pid counter survive — simulation
    /// time is monotonic across the whole grid, and pids are never reused
    /// so stale [`Pid`]s held by workloads simply read as dead.
    pub fn reboot(&mut self) {
        self.procs.clear();
        self.completed.clear();
        self.loadavg = LoadAverage::new();
        self.accounting = Accounting::default();
        self.interrupt_prob = 0.0;
    }

    /// Jumps the clock forward by `n` ticks without running the scheduler
    /// or accumulating accounting — the host is powered off and nothing
    /// happens. Used to model the dark span of an outage.
    pub fn skip_ticks(&mut self, n: u64) {
        self.tick_count += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ticks(seconds: f64) -> u64 {
        (seconds / TICK).round() as u64
    }

    #[test]
    fn idle_kernel_accumulates_idle_time() {
        let mut k = Kernel::new(1);
        k.run_ticks(ticks(10.0));
        let a = k.accounting();
        assert!((a.idle - 10.0).abs() < 1e-9);
        assert_eq!(a.user, 0.0);
        assert!((k.now() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn single_cpu_bound_process_gets_all_cpu() {
        let mut k = Kernel::new(1);
        let pid = k.spawn(ProcessSpec::cpu_bound("hog"));
        k.run_ticks(ticks(10.0));
        assert!((k.cpu_time(pid).unwrap() - 10.0).abs() < 1e-9);
        assert!((k.accounting().user - 10.0).abs() < 1e-9);
    }

    #[test]
    fn two_equal_processes_share_fairly() {
        let mut k = Kernel::new(1);
        let a = k.spawn(ProcessSpec::cpu_bound("a"));
        let b = k.spawn(ProcessSpec::cpu_bound("b"));
        k.run_ticks(ticks(60.0));
        let ta = k.cpu_time(a).unwrap();
        let tb = k.cpu_time(b).unwrap();
        assert!((ta + tb - 60.0).abs() < 1e-6);
        assert!((ta - tb).abs() < 2.0, "ta={ta}, tb={tb}");
    }

    #[test]
    fn nice_process_yields_to_full_priority() {
        let mut k = Kernel::new(1);
        let soaker = k.spawn(ProcessSpec::cpu_bound("soaker").with_nice(19));
        // Let the soaker run (and accumulate load) for a while.
        k.run_ticks(ticks(120.0));
        let before = k.cpu_time(soaker).unwrap();
        // A full-priority job arrives: it gets nearly all CPU; the soaker
        // keeps only its anti-starvation sliver (~1 tick per second).
        let fg = k.spawn(ProcessSpec::cpu_bound("fg"));
        k.run_ticks(ticks(10.0));
        let fg_time = k.cpu_time(fg).unwrap();
        let soaker_gain = k.cpu_time(soaker).unwrap() - before;
        assert!(fg_time > 8.5, "fg only got {fg_time}s of 10");
        assert!(soaker_gain < 1.5, "soaker stole {soaker_gain}s");
        assert!(
            soaker_gain > 0.3,
            "anti-starvation aging should grant the soaker a sliver, got {soaker_gain}s"
        );
    }

    #[test]
    fn long_running_job_is_preempted_by_fresh_process() {
        // The kongo mechanism: the resident hog's p_cpu is high, so a fresh
        // short probe wins the CPU almost exclusively.
        let mut k = Kernel::new(1);
        let hog = k.spawn(ProcessSpec::cpu_bound("resident"));
        k.run_ticks(ticks(600.0));
        let hog_before = k.cpu_time(hog).unwrap();
        let probe = k.spawn(ProcessSpec::cpu_bound("probe").with_cpu_limit(1.5));
        let start = k.now();
        // Run until the probe exits.
        while k.is_alive(probe) && k.now() - start < 10.0 {
            k.tick();
        }
        let elapsed = k.now() - start;
        // The fresh probe runs at ~full speed: 1.5s of CPU in ~1.5-2s wall.
        assert!(elapsed < 2.5, "probe took {elapsed}s wall for 1.5s CPU");
        let hog_gain = k.cpu_time(hog).unwrap() - hog_before;
        assert!(hog_gain <= elapsed - 1.5 + 0.2, "hog gained {hog_gain}");
    }

    #[test]
    fn ten_second_test_process_shares_with_resident_job() {
        // …but a 10s test process cannot stay ahead: its own p_cpu catches
        // up and it ends up sharing. Occupancy lands strictly between the
        // probe's (~1.0) and the fair share (~0.5).
        let mut k = Kernel::new(1);
        let _hog = k.spawn(ProcessSpec::cpu_bound("resident"));
        k.run_ticks(ticks(600.0));
        let test = k.spawn(ProcessSpec::cpu_bound("test").with_cpu_limit(10.0));
        let start = k.now();
        while k.is_alive(test) && k.now() - start < 60.0 {
            k.tick();
        }
        let stats = k
            .drain_completed()
            .into_iter()
            .find(|s| &*s.name == "test")
            .expect("test process completed");
        let occ = stats.cpu_time / (k.now() - start);
        assert!(occ > 0.52 && occ < 0.95, "test occupancy = {occ}");
    }

    #[test]
    fn load_average_tracks_run_queue() {
        let mut k = Kernel::new(1);
        let _a = k.spawn(ProcessSpec::cpu_bound("a"));
        let _b = k.spawn(ProcessSpec::cpu_bound("b"));
        k.run_ticks(ticks(900.0));
        assert!((k.load_average().one_minute() - 2.0).abs() < 0.05);
    }

    #[test]
    fn cpu_limit_reaps_process_and_reports_stats() {
        let mut k = Kernel::new(1);
        let pid = k.spawn(ProcessSpec::cpu_bound("batch").with_cpu_limit(2.0));
        k.run_ticks(ticks(5.0));
        assert!(!k.is_alive(pid));
        let done = k.drain_completed();
        assert_eq!(done.len(), 1);
        assert!((done[0].cpu_time - 2.0).abs() < TICK);
        assert!((done[0].occupancy() - 1.0).abs() < 0.06);
        // Remaining time was idle.
        assert!((k.accounting().idle - 3.0).abs() < 0.2);
    }

    #[test]
    fn sys_fraction_accounting() {
        let mut k = Kernel::new(1);
        let _p = k.spawn(ProcessSpec::cpu_bound("syscalls").with_sys_fraction(0.25));
        k.run_ticks(ticks(40.0));
        let a = k.accounting();
        assert!((a.user - 30.0).abs() < 1e-6);
        assert!((a.sys - 10.0).abs() < 1e-6);
    }

    #[test]
    fn interrupt_load_is_system_time_nobody_owns() {
        let mut k = Kernel::new(7);
        k.set_interrupt_probability(0.5);
        let pid = k.spawn(ProcessSpec::cpu_bound("victim"));
        k.run_ticks(ticks(100.0));
        let a = k.accounting();
        // About half the quanta were stolen by interrupts.
        assert!((a.sys / 100.0 - 0.5).abs() < 0.1, "sys = {}", a.sys);
        // The victim got the rest.
        assert!((k.cpu_time(pid).unwrap() - a.user).abs() < 1e-6);
    }

    #[test]
    fn sleeping_processes_do_not_run_or_count() {
        let mut k = Kernel::new(1);
        let pid = k.spawn(ProcessSpec::cpu_bound("sleeper").sleeping());
        k.run_ticks(ticks(10.0));
        assert_eq!(k.cpu_time(pid), Some(0.0));
        assert_eq!(k.runnable_count(), 0);
        k.set_runnable(pid, true);
        assert_eq!(k.runnable_count(), 1);
        k.run_ticks(ticks(1.0));
        assert!(k.cpu_time(pid).unwrap() > 0.9);
    }

    #[test]
    fn kill_returns_stats_once() {
        let mut k = Kernel::new(1);
        let pid = k.spawn(ProcessSpec::cpu_bound("x"));
        k.run_ticks(ticks(3.0));
        let stats = k.kill(pid).unwrap();
        assert!((stats.cpu_time - 3.0).abs() < 1e-9);
        assert!((stats.wall_time - 3.0).abs() < 1e-9);
        assert!(k.kill(pid).is_none());
        assert!(!k.is_alive(pid));
    }

    #[test]
    fn accounting_totals_equal_elapsed_time() {
        let mut k = Kernel::new(3);
        k.set_interrupt_probability(0.1);
        let _a = k.spawn(ProcessSpec::cpu_bound("a").with_sys_fraction(0.2));
        let b = k.spawn(ProcessSpec::cpu_bound("b").sleeping());
        k.run_ticks(ticks(30.0));
        k.set_runnable(b, true);
        k.run_ticks(ticks(30.0));
        let a = k.accounting();
        assert!((a.total() - 60.0).abs() < 1e-6, "total = {}", a.total());
    }

    impl Kernel {
        /// The tick as it was written when dispatch served a CPU count:
        /// collect every runnable slot, stable-sort by the three keys,
        /// keep as many as there are free CPUs (one, or none after an
        /// interrupt). The oracle for [`Kernel::pick`].
        fn tick_by_sort(&mut self) {
            if self.tick_count % (TICKS_PER_SECOND * 5) == TICKS_PER_SECOND * 5 / 2 {
                let n = self.runnable_count();
                self.loadavg.sample(n);
            }
            if self.tick_count.is_multiple_of(TICKS_PER_SECOND) {
                let load = self.loadavg.one_minute();
                let decay = (2.0 * load) / (2.0 * load + 1.0);
                for p in &mut self.procs {
                    p.p_cpu = p.p_cpu * decay + p.nice as f64;
                }
            }
            let mut cpus_free = 1;
            if self.interrupt_prob > 0.0 && self.rng.chance(self.interrupt_prob) {
                self.accounting.sys += TICK;
                cpus_free -= 1;
            }
            let now_tick = self.tick_count;
            let mut dispatch: Vec<usize> = (0..self.procs.len())
                .filter(|&i| self.procs[i].runnable)
                .collect();
            dispatch.sort_by(|&a, &b| {
                let pa = &self.procs[a];
                let pb = &self.procs[b];
                let sa = now_tick - pa.last_run_tick >= STARVATION_TICKS;
                let sb = now_tick - pb.last_run_tick >= STARVATION_TICKS;
                sb.cmp(&sa).then_with(|| {
                    pa.priority()
                        .total_cmp(&pb.priority())
                        .then(pa.last_run_tick.cmp(&pb.last_run_tick))
                })
            });
            dispatch.truncate(cpus_free);
            let mut finished = Vec::new();
            for &idx in &dispatch {
                let p = &mut self.procs[idx];
                p.cpu_time += TICK;
                p.p_cpu += PCPU_PER_TICK;
                p.last_run_tick = self.tick_count;
                self.accounting.user += TICK * (1.0 - p.sys_fraction);
                self.accounting.sys += TICK * p.sys_fraction;
                if matches!(p.cpu_limit, Some(limit) if p.cpu_time >= limit - 1e-9) {
                    finished.push(idx);
                }
            }
            self.accounting.idle += TICK * (cpus_free - dispatch.len()) as f64;
            for idx in finished {
                let proc_rec = self.procs.swap_remove(idx);
                let stats = self.stats_of_after_tick(&proc_rec);
                self.completed.push(stats);
            }
            self.tick_count += 1;
        }
    }

    #[test]
    fn pick_matches_the_sorted_dispatch_bit_for_bit() {
        // The op kinds and ranges of `tests/invariants.rs` scripts, plus
        // interrupt load and batches of identical specs spawned on one
        // tick, so that all three keys tie and only table order decides.
        for seed in 0..64 {
            let mut script = Rng::new(seed).fork("script");
            let (mut picked, mut sorted) = (Kernel::new(seed), Kernel::new(seed));
            let mut pids = Vec::new();
            for _ in 0..40 {
                match script.below(7) {
                    0 | 1 => {
                        let mut spec = ProcessSpec::cpu_bound("scripted")
                            .with_nice(script.below(20) as u8)
                            .with_sys_fraction(script.below(10) as f64 / 10.0);
                        if script.chance(0.5) {
                            spec = spec.with_cpu_limit(1.0 + script.below(29) as f64);
                        }
                        let batch = if script.chance(0.5) {
                            1
                        } else {
                            2 + script.below(4)
                        };
                        for _ in 0..batch {
                            pids.push(picked.spawn(spec.clone()));
                            sorted.spawn(spec.clone());
                        }
                    }
                    2 => {
                        if !pids.is_empty() {
                            let pid = pids.remove(0);
                            assert_eq!(picked.kill(pid), sorted.kill(pid));
                        }
                    }
                    3 | 4 => {
                        let runnable = script.chance(0.5);
                        if let Some(&pid) = pids.get(script.below(8) as usize) {
                            picked.set_runnable(pid, runnable);
                            sorted.set_runnable(pid, runnable);
                        }
                    }
                    5 => {
                        let p = script.below(6) as f64 / 10.0;
                        picked.set_interrupt_probability(p);
                        sorted.set_interrupt_probability(p);
                    }
                    _ => {
                        let n = (1 + script.below(29)) * TICKS_PER_SECOND;
                        picked.run_ticks(n);
                        (0..n).for_each(|_| sorted.tick_by_sort());
                        assert_eq!(picked.process_table(), sorted.process_table(), "{seed}");
                        assert_eq!(picked.accounting(), sorted.accounting(), "{seed}");
                        assert_eq!(picked.drain_completed(), sorted.drain_completed(), "{seed}");
                    }
                }
            }
        }
    }

    #[test]
    fn first_tick_at_matches_a_linear_scan() {
        for k in [0, 1, 9, 10, 50, 864_000, 1u64 << 40] {
            let on_grid = k as Seconds * TICK;
            for t in [on_grid.next_down(), on_grid, on_grid.next_up()] {
                for start in [k.saturating_sub(3), k, k + 2] {
                    let mut kernel = Kernel::new(1);
                    kernel.skip_ticks(start);
                    let scan = (start..).find(|&j| j as Seconds * TICK >= t).unwrap();
                    assert_eq!(kernel.first_tick_at(t), scan, "k = {k}, t = {t:e}");
                }
            }
        }
        let kernel = Kernel::new(1);
        assert_eq!(kernel.first_tick_at(Seconds::INFINITY), u64::MAX);
        assert_eq!(kernel.first_tick_at(-1.0), 0);
    }

    #[test]
    fn process_table_reflects_scheduler_state() {
        let mut k = Kernel::new(1);
        let hog = k.spawn(ProcessSpec::cpu_bound("hog"));
        let idle = k.spawn(ProcessSpec::cpu_bound("idle").sleeping().with_nice(19));
        k.run_ticks(ticks(30.0));
        let table = k.process_table();
        assert_eq!(table.len(), 2);
        let hog_row = table.iter().find(|v| v.pid == hog).expect("listed");
        let idle_row = table.iter().find(|v| v.pid == idle).expect("listed");
        assert!(hog_row.runnable && !idle_row.runnable);
        assert!((hog_row.cpu_time - 30.0).abs() < 1e-9);
        assert_eq!(idle_row.cpu_time, 0.0);
        // The running hog's accumulated p_cpu puts its priority above the
        // sleeping process's nice-laden but idle one? Both visible anyway:
        assert!(hog_row.p_cpu > 0.0);
        assert!(hog_row.priority > crate::PUSER);
        assert!((hog_row.age - 30.0).abs() < 1e-9);
    }

    #[test]
    fn occupancy_clamps_degenerate_wall_time() {
        let s = ProcessStats {
            pid: Pid(1),
            name: "z".into(),
            cpu_time: 1.0,
            wall_time: 0.0,
            nice: 0,
        };
        assert_eq!(s.occupancy(), 0.0);
    }
}
