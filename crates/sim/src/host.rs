//! A simulated host: kernel + workload sources + the probe/test API.
//!
//! The host advances by events. Each workload says when it next acts
//! ([`Workload::next_due`]); the host polls every workload only at a tick
//! where one of them is due, and runs the kernel through the stretch up
//! to the next due tick as one quiet run (`Kernel::run_quiet`). The
//! result is bit for bit that of polling every workload on every tick:
//! at the ticks skipped, every `on_tick` would have been a no-op.

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
        self.run_to(self.kernel.tick_count() + ticks as u64, None);
    }

    /// Runs the host up to tick `end` — or, when `watch` names a process,
    /// until right after the tick that reaps it, whichever comes first.
    ///
    /// At a tick where some workload is due, every workload is polled in
    /// order and the kernel runs one quantum; otherwise the kernel runs
    /// quietly up to the first due tick. A watched process can only leave
    /// the table by a kernel reap (nothing else polled here kills it), and
    /// a reap ends every quiet stretch, so checking after each step stops
    /// at the reaping tick exactly.
    fn run_to(&mut self, end: u64, watch: Option<Pid>) {
        while self.kernel.tick_count() < end {
            let due = (self.workloads.iter())
                .map(|w| w.next_due(&self.kernel))
                .fold(Seconds::INFINITY, Seconds::min);
            if due <= self.now() {
                for w in &mut self.workloads {
                    w.on_tick(&mut self.kernel);
                }
                self.kernel.tick();
            } else {
                let stop = self.kernel.first_tick_at(due).min(end);
                self.kernel.run_quiet(stop - self.kernel.tick_count());
            }
            if watch.is_some_and(|pid| !self.kernel.is_alive(pid)) {
                return;
            }
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
    /// Panics unless `0 < cpu_time <= max_wall < ∞`: the wall bound is
    /// counted out tick by tick, so an infinite one would never be reached.
    pub fn run_cpu_limited_probe(
        &mut self,
        name: impl Into<std::sync::Arc<str>>,
        cpu_time: Seconds,
        max_wall: Seconds,
    ) -> f64 {
        assert!(
            cpu_time > 0.0 && cpu_time <= max_wall && max_wall.is_finite(),
            "bad probe budget"
        );
        let pid = self
            .kernel
            .spawn(ProcessSpec::cpu_bound(name).with_cpu_limit(cpu_time));
        // The wall bound as a tick: the first tick at which the elapsed
        // wall, read through `now()` as at every tick, reaches it.
        let start = self.now();
        let mut end = self.kernel.tick_count();
        while end as Seconds * TICK - start < max_wall - 1e-9 {
            end += 1;
        }
        self.run_to(end, Some(pid));
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
    /// every workload is told the boot time and to forget its dead
    /// processes, so it re-establishes itself on subsequent ticks.
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
        let boot = self.now();
        for w in &mut self.workloads {
            w.on_reboot(boot);
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
    fn a_probe_budget_that_is_not_finite_panics_instead_of_counting_forever() {
        let inf = f64::INFINITY;
        for (cpu, wall) in [(1.5, inf), (inf, inf), (f64::NAN, 8.0), (1.5, f64::NAN)] {
            let res = std::panic::catch_unwind(|| {
                Host::new("x", 1).run_cpu_limited_probe("probe", cpu, wall)
            });
            let panic = res.expect_err("a budget that is not finite is refused");
            assert_eq!(panic.downcast_ref::<&str>(), Some(&"bad probe budget"));
        }
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
    fn reboot_does_not_replay_the_arrivals_of_the_outage() {
        for profile in crate::profiles::HostProfile::all() {
            for outage_hours in [0.5, 2.0, 6.0] {
                let mut h = profile.build(7);
                h.advance(3600.0);
                h.power_cycle_until(h.now() + outage_hours * 3600.0);
                h.advance(TICK);
                let backlog: Vec<_> = (h.kernel.process_table().into_iter())
                    .filter(|v| v.name.ends_with("-session") || v.name.ends_with("-job"))
                    .map(|v| v.name)
                    .collect();
                assert!(
                    backlog.is_empty(),
                    "{} after {outage_hours} h dark: {backlog:?}",
                    profile.name()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn power_cycle_rejects_past_target() {
        let mut h = Host::new("x", 1);
        h.advance(100.0);
        h.power_cycle_until(50.0);
    }

    // -----------------------------------------------------------------------
    // The event-driven advance against the polling loop it replaced.

    impl Host {
        /// One tick as the host ran before it was event-driven: every
        /// workload polled, then one quantum. The oracle for `run_to`.
        fn poll_tick(&mut self) {
            for w in &mut self.workloads {
                w.on_tick(&mut self.kernel);
            }
            self.kernel.tick();
        }
    }

    /// One operation of a scripted run, applied alike to an event-driven
    /// host and to its polling twin.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Advance(Seconds),
        Probe {
            max_wall: Seconds,
        },
        Occupancy(Seconds),
        Reboot {
            outage_ticks: u64,
        },
        Spawn {
            nice: u8,
            limit: Option<u8>,
            sleeping: bool,
        },
        KillOldest,
    }

    impl Step {
        fn draw(script: &mut Rng) -> Step {
            match script.below(12) {
                0..=3 => Step::Advance(10.0),
                4 | 5 => Step::Advance(60.0),
                6 => Step::Advance(TICK),
                // Bounds that bind often, so the wall predicate is pinned
                // where `now() - start` rounds to either side of them.
                7 => Step::Probe {
                    max_wall: [1.5, 1.6, 1.7, 2.0, 3.0, 8.0][script.below(6) as usize],
                },
                8 => Step::Occupancy([1.5, 10.0][script.below(2) as usize]),
                9 => Step::Reboot {
                    outage_ticks: script.below(36_000),
                },
                10 => Step::Spawn {
                    nice: script.below(20) as u8,
                    limit: script.chance(0.5).then(|| 1 + script.below(20) as u8),
                    sleeping: script.chance(0.25),
                },
                _ => Step::KillOldest,
            }
        }

        /// Applies the step; `polling` selects the oracle. Returns what
        /// the step reported, for comparison.
        fn apply(self, h: &mut Host, polling: bool, adhoc: &mut Vec<Pid>) -> String {
            let ticks = |dt: Seconds| (dt / TICK).round() as u64;
            match self {
                Step::Advance(dt) if polling => (0..ticks(dt)).for_each(|_| h.poll_tick()),
                Step::Advance(dt) => h.advance(dt),
                Step::Probe { max_wall } if polling => {
                    // The probe loop as it was: one polled tick at a time.
                    let spec = ProcessSpec::cpu_bound("probe").with_cpu_limit(1.5);
                    let pid = h.kernel.spawn(spec);
                    let start = h.now();
                    while h.kernel.is_alive(pid) && h.now() - start < max_wall - 1e-9 {
                        h.poll_tick();
                    }
                    let stats = (h.kernel.remove_completed(pid)).or_else(|| h.kernel.kill(pid));
                    return format!("{:?}", stats.map(|s| s.occupancy().to_bits()));
                }
                Step::Probe { max_wall } => {
                    let occ = h.run_cpu_limited_probe("probe", 1.5, max_wall);
                    return format!("{:?}", Some(occ.to_bits()));
                }
                Step::Occupancy(d) if polling => {
                    let pid = h.kernel.spawn(ProcessSpec::cpu_bound("test"));
                    (0..ticks(d)).for_each(|_| h.poll_tick());
                    return format!("{:?}", h.kernel.kill(pid).map(|s| s.occupancy().to_bits()));
                }
                Step::Occupancy(d) => {
                    let occ = h.run_occupancy_process("test", d);
                    return format!("{:?}", Some(occ.to_bits()));
                }
                Step::Reboot { outage_ticks } => {
                    let boot = h.kernel.tick_count() + outage_ticks;
                    h.power_cycle_until(boot as Seconds * TICK);
                    adhoc.clear();
                }
                Step::Spawn {
                    nice,
                    limit,
                    sleeping,
                } => {
                    let mut spec = ProcessSpec::cpu_bound("adhoc").with_nice(nice);
                    if let Some(l) = limit {
                        spec = spec.with_cpu_limit(f64::from(l));
                    }
                    if sleeping {
                        spec = spec.sleeping();
                    }
                    adhoc.push(h.spawn(spec));
                }
                Step::KillOldest => {
                    if !adhoc.is_empty() {
                        return format!("{:?}", h.kill(adhoc.remove(0)));
                    }
                }
            }
            String::new()
        }
    }

    /// Everything the simulator exposes, floats as bits.
    fn observable(h: &mut Host) -> String {
        let a = h.accounting();
        let la = h.load_average();
        let load = [la.one_minute(), la.five_minute(), la.fifteen_minute()];
        format!(
            "now {:x}\nacct {:x?}\nload {:x?}\ntable {:?}\ncompleted {:?}",
            h.now().to_bits(),
            [a.user, a.sys, a.idle].map(f64::to_bits),
            load.map(f64::to_bits),
            h.kernel.process_table(),
            h.drain_completed(),
        )
    }

    /// Runs `steps` on an event-driven host and on its polling twin,
    /// requiring every step's report and every observable to match.
    fn assert_twins_agree(build: impl Fn() -> Host, steps: impl IntoIterator<Item = Step>) {
        let (mut event, mut polling) = (build(), build());
        let (mut event_adhoc, mut polling_adhoc) = (Vec::new(), Vec::new());
        for (i, step) in steps.into_iter().enumerate() {
            let got = step.apply(&mut event, false, &mut event_adhoc);
            let want = step.apply(&mut polling, true, &mut polling_adhoc);
            let at = format!("{} step {i} ({step:?})", event.name());
            assert_eq!(got, want, "{at}");
            assert_eq!(observable(&mut event), observable(&mut polling), "{at}");
        }
    }

    /// A host carrying one of every workload source, each tuned to act
    /// often: sessions and batch jobs with micro-sleeps, a duty-cycled
    /// soaker, a hog that starts mid-run, gateway interrupts and a trace
    /// replay whose updates fall between slot boundaries.
    fn every_source(seed: u64) -> Host {
        use crate::trace::{LoadTrace, TraceReplay};
        use crate::workload::{
            BatchArrivals, BatchConfig, Diurnal, GatewayInterrupts, InteractiveSessions,
            SessionConfig,
        };
        use nws_stats::Pareto;
        let mut h = Host::new("every-source", seed);
        let rng = h.fork_rng("sessions");
        let sessions = SessionConfig {
            arrival_mean: 90.0,
            burst: Pareto::new(1.8, 5.0).with_cap(300.0),
            think: Pareto::new(1.8, 10.0).with_cap(600.0),
            bursts_per_session: 4.0,
            max_concurrent: 6,
            diurnal: Some(Diurnal::working_day(0.5)),
            ..SessionConfig::default()
        };
        h.add_workload(Box::new(InteractiveSessions::new("ix", sessions, rng)));
        let rng = h.fork_rng("batch");
        let batch = BatchConfig {
            arrival_mean: 150.0,
            demand: Pareto::new(1.5, 2.0).with_cap(60.0),
            nice: 4,
            max_concurrent: 3,
            duty: 0.5,
            micro_on_mean: 0.5,
            ..BatchConfig::default()
        };
        h.add_workload(Box::new(BatchArrivals::new("batch", batch, rng)));
        let rng = h.fork_rng("soaker");
        h.add_workload(Box::new(NiceSoaker::new("bg", 120.0, 60.0, rng)));
        h.add_workload(Box::new(LongRunningHog::new("hog", 900.0, 0.05)));
        let rng = h.fork_rng("gateway");
        h.add_workload(Box::new(GatewayInterrupts::new("gw", 0.01, 0.1, 90.0, rng)));
        let mut rng = h.fork_rng("trace");
        let levels = (0..200).map(|_| rng.below(4) as u32).collect();
        let trace = LoadTrace {
            start: 0.0,
            interval: 2.7,
            levels,
        };
        h.add_workload(Box::new(TraceReplay::new("replay", trace)));
        h
    }

    /// The hosts under test: the six profiles, then `every_source`.
    const HOSTS: usize = 7;

    fn build(host: usize, seed: u64) -> Host {
        match crate::profiles::HostProfile::all().get(host) {
            Some(profile) => profile.build(seed),
            None => every_source(seed),
        }
    }

    #[test]
    fn event_advance_matches_the_polling_loop_bit_for_bit() {
        for host in 0..HOSTS {
            for seed in 0..16 {
                let mut script = Rng::new(seed).fork(&format!("script{host}"));
                let steps: Vec<Step> = std::iter::once(Step::Advance(600.0))
                    .chain((0..48).map(|_| Step::draw(&mut script)))
                    .collect();
                assert_twins_agree(|| build(host, seed), steps);
            }
        }
    }

    #[test]
    fn on_tick_before_next_due_is_a_no_op() {
        let mut checked = std::collections::BTreeMap::<String, u64>::new();
        for host in 0..HOSTS {
            for seed in 0..3 {
                let mut h = build(host, seed);
                let name = h.name().to_string();
                let mut pick = Rng::new(seed).fork("ticks");
                for tick in 0..36_000u64 {
                    if tick == 18_000 {
                        h.power_cycle_until(h.now() + 1800.0);
                    }
                    let check = pick.chance(0.1);
                    for w in &mut h.workloads {
                        if !(check && w.next_due(&h.kernel) > h.kernel.now()) {
                            w.on_tick(&mut h.kernel);
                            continue;
                        }
                        let seen = |w: &dyn Workload, k: &Kernel| {
                            (format!("{w:?}"), k.process_table(), k.accounting())
                        };
                        let before = seen(&**w, &h.kernel);
                        w.on_tick(&mut h.kernel);
                        let after = seen(&**w, &h.kernel);
                        assert_eq!(
                            before,
                            after,
                            "{name} seed {seed} tick {tick}: {}",
                            w.name()
                        );
                        let kind = format!("{w:?}");
                        *checked
                            .entry(kind[..kind.find(' ').unwrap()].into())
                            .or_default() += 1;
                    }
                    h.kernel.tick();
                }
            }
        }
        let kinds: Vec<&str> = checked.keys().map(String::as_str).collect();
        assert_eq!(
            kinds,
            [
                "BatchArrivals",
                "GatewayInterrupts",
                "InteractiveSessions",
                "LongRunningHog",
                "NiceSoaker",
                "TraceReplay"
            ],
            "every source must be checked before its due time: {checked:?}"
        );
    }

    #[test]
    #[ignore = "a simulated day per profile; run in release with --ignored"]
    fn event_advance_matches_the_polling_loop_over_a_day() {
        for host in 0..HOSTS {
            let mut script = Rng::new(7).fork(&format!("day{host}"));
            let mut steps = Vec::new();
            for slot in 0..8_640u64 {
                steps.push(Step::Advance(10.0));
                if slot % 6 == 0 {
                    steps.push(Step::Probe { max_wall: 8.0 });
                }
                // A reboot every three hours on average, dark for up to one.
                if script.chance(1.0 / 1_080.0) {
                    steps.push(Step::Reboot {
                        outage_ticks: script.below(36_000),
                    });
                }
            }
            assert_twins_agree(|| build(host, 7), steps);
        }
    }
}
