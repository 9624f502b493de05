//! A simulated host: kernel + workload sources + the probe/test API.

use crate::kernel::{Accounting, Kernel, ProcessStats};
use crate::loadavg::LoadAverage;
use crate::process::{Pid, ProcessSpec};
use crate::workload::Workload;
use crate::{Seconds, TICK};
use nws_stats::Rng;

/// One simulated time-shared Unix host under stochastic load.
///
/// A `Host` owns a [`Kernel`] and a set of [`Workload`] sources, advances
/// them together in 100 ms quanta, and offers the two active measurement
/// operations the paper uses:
///
/// - [`Host::run_occupancy_process`] — spawn a full-priority CPU-bound
///   process for a fixed wall-clock duration and report the fraction of the
///   CPU it obtained (the paper's 10 s / 5 min *test process*);
/// - [`Host::run_cpu_limited_probe`] — spin for a fixed amount of *CPU*
///   time and report CPU/wall (the NWS hybrid sensor's 1.5 s *probe*).
///
/// # Examples
///
/// ```
/// use nws_sim::{Host, ProcessSpec};
///
/// let mut host = Host::new("box", 42);
/// host.kernel_mut().spawn(ProcessSpec::cpu_bound("background"));
/// host.advance(600.0);
/// // One resident CPU-bound job: load average reads ~1 and a 10-second
/// // test process obtains roughly its fair-to-favoured share.
/// assert!((host.load_average().one_minute() - 1.0).abs() < 0.1);
/// let occ = host.run_occupancy_process("test", 10.0);
/// assert!(occ > 0.4 && occ < 0.95, "occ = {occ}");
/// ```
#[derive(Debug)]
pub struct Host {
    name: String,
    kernel: Kernel,
    workloads: Vec<Box<dyn Workload>>,
    rng: Rng,
}

impl Host {
    /// Creates an idle host. All randomness (kernel interrupts and any
    /// workloads added later via [`Host::fork_rng`]) derives from `seed`.
    pub fn new(name: impl Into<String>, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let kernel_seed = rng.fork("kernel").next_u64();
        Self {
            name: name.into(),
            kernel: Kernel::new(kernel_seed),
            workloads: Vec::new(),
            rng,
        }
    }

    /// The host's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Derives a deterministic RNG stream for a workload source.
    pub fn fork_rng(&mut self, label: &str) -> Rng {
        self.rng.fork(label)
    }

    /// Attaches a workload source.
    pub fn add_workload(&mut self, workload: Box<dyn Workload>) {
        self.workloads.push(workload);
    }

    /// Current simulation time (seconds).
    pub fn now(&self) -> Seconds {
        self.kernel.now()
    }

    /// Read-only access to the kernel (load averages, accounting, …).
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Mutable access to the kernel, for spawning ad-hoc processes.
    pub fn kernel_mut(&mut self) -> &mut Kernel {
        &mut self.kernel
    }

    /// The kernel's load averages.
    pub fn load_average(&self) -> &LoadAverage {
        self.kernel.load_average()
    }

    /// Cumulative user/sys/idle accounting.
    pub fn accounting(&self) -> Accounting {
        self.kernel.accounting()
    }

    /// Instantaneous run-queue length.
    pub fn runnable_count(&self) -> usize {
        self.kernel.runnable_count()
    }

    /// Advances the simulation by `dt` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not a non-negative multiple of the 100 ms quantum
    /// (all the paper's cadences are).
    pub fn advance(&mut self, dt: Seconds) {
        assert!(dt >= 0.0, "cannot advance backwards");
        let ticks = (dt / TICK).round();
        assert!(
            (dt - ticks * TICK).abs() < 1e-6,
            "dt = {dt}s is not a multiple of the {TICK}s quantum"
        );
        for _ in 0..ticks as u64 {
            for w in &mut self.workloads {
                w.on_tick(&mut self.kernel);
            }
            self.kernel.tick();
        }
    }

    /// Advances the simulation to absolute time `t` (no-op if in the past).
    pub fn advance_to(&mut self, t: Seconds) {
        let dt = t - self.now();
        if dt > 0.0 {
            // Round to the tick grid.
            let ticks = (dt / TICK).round();
            self.advance(ticks * TICK);
        }
    }

    /// Runs a full-priority CPU-bound process for `duration` wall-clock
    /// seconds and returns the fraction of the CPU it obtained — the
    /// paper's probe (1.5 s) and test process (10 s / 5 min) primitive.
    ///
    /// The simulation advances by exactly `duration`.
    pub fn run_occupancy_process(
        &mut self,
        name: impl Into<std::sync::Arc<str>>,
        duration: Seconds,
    ) -> f64 {
        assert!(duration > 0.0);
        let pid = self.kernel.spawn(ProcessSpec::cpu_bound(name));
        self.advance(duration);
        let stats = self
            .kernel
            .kill(pid)
            .expect("occupancy process still alive at deadline");
        stats.occupancy()
    }

    /// Runs a full-priority process that spins for `cpu_time` seconds of
    /// CPU and reports `cpu_time / wall_time` — the NWS probe primitive
    /// ("reports the ratio of the CPU time it used to the wall-clock time
    /// that passed"). The wall time stretches under contention, so a busy
    /// host yields a low ratio. `max_wall` bounds the wait; if the budget
    /// is not consumed by then, the ratio over the elapsed wall is
    /// reported.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < cpu_time <= max_wall`.
    pub fn run_cpu_limited_probe(
        &mut self,
        name: impl Into<std::sync::Arc<str>>,
        cpu_time: Seconds,
        max_wall: Seconds,
    ) -> f64 {
        assert!(cpu_time > 0.0 && cpu_time <= max_wall, "bad probe budget");
        let pid = self
            .kernel
            .spawn(ProcessSpec::cpu_bound(name).with_cpu_limit(cpu_time));
        let start = self.now();
        while self.kernel.is_alive(pid) && self.now() - start < max_wall - 1e-9 {
            self.advance(TICK);
        }
        let stats = self
            .kernel
            .remove_completed(pid)
            .or_else(|| self.kernel.kill(pid))
            .expect("probe either completed or is still alive");
        stats.occupancy()
    }

    /// Power-cycles the host: the kernel reboots (processes lost,
    /// counters zeroed), the clock jumps to absolute time `t` (the dark
    /// span of the outage — nothing runs, nothing is accounted), and
    /// every workload is told to forget its dead processes so it
    /// re-establishes itself on subsequent ticks.
    ///
    /// # Panics
    ///
    /// Panics if `t` is in the past or not on the tick grid.
    pub fn power_cycle_until(&mut self, t: Seconds) {
        let dt = t - self.now();
        assert!(dt >= 0.0, "cannot reboot into the past");
        let ticks = (dt / TICK).round();
        assert!(
            (dt - ticks * TICK).abs() < 1e-6,
            "reboot target {t}s is not on the {TICK}s tick grid"
        );
        self.kernel.reboot();
        self.kernel.skip_ticks(ticks as u64);
        for w in &mut self.workloads {
            w.on_reboot();
        }
    }

    /// Spawns an ad-hoc process (passthrough to the kernel).
    pub fn spawn(&mut self, spec: ProcessSpec) -> Pid {
        self.kernel.spawn(spec)
    }

    /// Kills an ad-hoc process (passthrough to the kernel).
    pub fn kill(&mut self, pid: Pid) -> Option<ProcessStats> {
        self.kernel.kill(pid)
    }

    /// Drains the kernel's completed-process list.
    pub fn drain_completed(&mut self) -> Vec<ProcessStats> {
        self.kernel.drain_completed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{LongRunningHog, NiceSoaker};

    #[test]
    fn idle_host_gives_probe_full_cpu() {
        let mut h = Host::new("idle", 1);
        h.advance(60.0);
        let occ = h.run_occupancy_process("probe", 1.5);
        assert!((occ - 1.0).abs() < 0.08, "occ = {occ}");
    }

    #[test]
    fn advance_rejects_subtick_steps() {
        let mut h = Host::new("x", 1);
        h.advance(0.1); // ok
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            h.advance(0.05);
        }));
        assert!(res.is_err());
    }

    #[test]
    fn advance_to_is_idempotent_for_past_times() {
        let mut h = Host::new("x", 1);
        h.advance_to(10.0);
        let t = h.now();
        h.advance_to(5.0);
        assert_eq!(h.now(), t);
    }

    #[test]
    fn conundrum_mechanism_probe_sees_through_nice_load() {
        let mut h = Host::new("conundrum", 2);
        let rng = h.fork_rng("soaker");
        h.add_workload(Box::new(NiceSoaker::new("bg", 300.0, 0.0, rng)));
        h.advance(600.0);
        // Load average says the machine is busy…
        assert!(h.load_average().one_minute() > 0.9);
        // …but a full-priority probe gets nearly everything.
        let occ = h.run_occupancy_process("probe", 1.5);
        assert!(occ > 0.9, "probe occupancy = {occ}");
    }

    #[test]
    fn kongo_mechanism_probe_overestimates_test_underneath() {
        let mut h = Host::new("kongo", 3);
        h.add_workload(Box::new(LongRunningHog::new("res", 0.0, 0.0)));
        h.advance(900.0);
        let probe = h.run_occupancy_process("probe", 1.5);
        h.advance(60.0);
        let test = h.run_occupancy_process("test", 10.0);
        // The fresh 1.5s probe preempts the priority-decayed hog…
        assert!(probe > 0.85, "probe = {probe}");
        // …while the 10s test process ends up sharing.
        assert!(test < probe - 0.2, "test = {test}, probe = {probe}");
        assert!(test > 0.4, "test = {test}");
    }

    #[test]
    fn occupancy_process_advances_time() {
        let mut h = Host::new("x", 1);
        let t0 = h.now();
        let _ = h.run_occupancy_process("p", 10.0);
        assert!((h.now() - t0 - 10.0).abs() < 1e-9);
    }

    #[test]
    fn power_cycle_clears_processes_and_jumps_clock() {
        let mut h = Host::new("x", 1);
        h.kernel_mut().spawn(ProcessSpec::cpu_bound("victim"));
        h.advance(120.0);
        assert_eq!(h.kernel().process_count(), 1);
        h.power_cycle_until(300.0);
        assert_eq!(h.now(), 300.0);
        assert_eq!(h.kernel().process_count(), 0);
        // Fresh-boot counters: no accounting, empty load averages.
        assert_eq!(h.accounting().total(), 0.0);
        assert_eq!(h.load_average().one_minute(), 0.0);
        // The clock stays monotonic and keeps advancing normally.
        h.advance(60.0);
        assert_eq!(h.now(), 360.0);
        assert!((h.accounting().total() - 60.0).abs() < 1e-6);
    }

    #[test]
    fn workloads_reestablish_after_power_cycle() {
        let mut h = Host::new("kongo", 3);
        h.add_workload(Box::new(LongRunningHog::new("res", 0.0, 0.0)));
        h.advance(300.0);
        assert_eq!(h.kernel().process_count(), 1);
        h.power_cycle_until(600.0);
        assert_eq!(h.kernel().process_count(), 0);
        // The hog restarts on the next ticks and owns the machine again.
        h.advance(60.0);
        assert_eq!(h.kernel().process_count(), 1);
        assert!(h.accounting().user > 55.0);
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn power_cycle_rejects_past_target() {
        let mut h = Host::new("x", 1);
        h.advance(100.0);
        h.power_cycle_until(50.0);
    }
}
