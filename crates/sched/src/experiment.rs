//! The scheduling experiment: forecast-driven placement vs baselines.
//!
//! Protocol (per policy, over the six simulated UCSD hosts):
//!
//! 1. **Measurement phase** — a [`GridMonitor`] over the six hosts runs a
//!    10-minute warm-up plus a configurable span (all three sensors,
//!    probes, no test processes); the NWS policies read the archive's
//!    standing hybrid and load-average forecasts — what a client asking
//!    the weather service would be answered — while the load-average
//!    policy keeps the latest Eq. 1 reading.
//! 2. **Placement** — the policy assigns a bag of CPU-bound tasks to hosts
//!    (greedy LPT under the expansion-factor model for the informed
//!    policies).
//! 3. **Execution** — hosts are rebuilt from the same seeds (identical
//!    background-load realizations), fast-forwarded to the scheduling
//!    instant, and the assigned tasks run to completion. The reported
//!    makespan is the wall-clock time until the last task finishes.
//!
//! The qualitative expectation from the paper: the forecast-driven policy
//! beats uninformed placement outright, and beats raw load average wherever
//! load average misrepresents obtainable CPU (conundrum's `nice` load).

use crate::policy::{place, Placement, Policy};
use nws_grid::{GridMonitor, GridMonitorConfig, Metric};
use nws_runtime::{host_seed, parallel_map, Cadence};
use nws_sim::{Host, HostProfile, ProcessSpec, Seconds};
use nws_stats::Rng;

/// A bag of independent CPU-bound tasks.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskBag {
    /// CPU-seconds of work per task.
    pub works: Vec<f64>,
}

impl TaskBag {
    /// Generates `n` tasks with work uniform in `[lo, hi)` CPU-seconds.
    pub fn generate(n: usize, lo: f64, hi: f64, rng: &mut Rng) -> Self {
        assert!(lo > 0.0 && lo < hi, "bad work range");
        Self {
            works: (0..n).map(|_| rng.range_f64(lo, hi)).collect(),
        }
    }

    /// Total CPU-seconds in the bag.
    pub fn total_work(&self) -> f64 {
        self.works.iter().sum()
    }
}

/// Experiment parameters.
#[derive(Debug, Clone, Copy)]
pub struct SchedConfig {
    /// Base seed (hosts, task generation, random policy).
    pub seed: u64,
    /// Number of tasks in the bag.
    pub n_tasks: usize,
    /// Task work range (CPU-seconds).
    pub work_range: (f64, f64),
    /// Length of the NWS measurement phase before scheduling.
    pub monitor_span: Seconds,
    /// Hard cap on execution-phase simulation time.
    pub max_execution: Seconds,
}

impl Default for SchedConfig {
    fn default() -> Self {
        Self {
            seed: 424242,
            n_tasks: 36,
            work_range: (30.0, 240.0),
            monitor_span: 1800.0,
            max_execution: 24.0 * 3600.0,
        }
    }
}

impl SchedConfig {
    /// A reduced configuration for tests.
    pub fn quick() -> Self {
        Self {
            n_tasks: 12,
            work_range: (10.0, 60.0),
            monitor_span: 900.0,
            max_execution: 2.0 * 3600.0,
            ..Self::default()
        }
    }
}

/// The result of running one policy.
#[derive(Debug, Clone)]
pub struct SchedulingOutcome {
    /// The policy.
    pub policy: Policy,
    /// Observed makespan (seconds of simulated wall-clock).
    pub makespan: Seconds,
    /// The policy's own predicted makespan (0 for uninformed policies).
    pub predicted_makespan: Seconds,
    /// Tasks assigned per host, in UCSD host order.
    pub tasks_per_host: Vec<usize>,
    /// The availability estimates the policy used (1.0 for uninformed).
    pub availabilities: Vec<f64>,
}

/// Seconds every host runs before the measurement phase's span starts.
const WARMUP: Seconds = 600.0;

/// Runs the measurement phase on every host and returns
/// `(hybrid_forecasts, load_forecasts, latest_load_availabilities)`.
pub(crate) fn gather_estimates(cfg: &SchedConfig) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let hosts = HostProfile::all();
    let mut grid = GridMonitor::new(&hosts, cfg.seed, GridMonitorConfig::default());
    grid.run_steps(((WARMUP + cfg.monitor_span) / Cadence::PAPER.measurement_period) as u64);
    let id = |host: &str, metric| grid.registry().lookup(host, metric).expect("registered");
    let forecast = |host: &str, metric| {
        let answer = grid.forecasts().forecast(id(host, metric));
        answer.map_or(1.0, |a| a.forecast.value).clamp(0.0, 1.0)
    };
    let latest = |host: &str| {
        let point = grid.memory().latest(id(host, Metric::CpuAvailabilityLoad));
        point.expect("measured").value
    };
    let per_host = |f: &dyn Fn(&str) -> f64| hosts.iter().map(|p| f(p.name())).collect();
    (
        per_host(&|h| forecast(h, Metric::CpuAvailabilityHybrid)),
        per_host(&|h| forecast(h, Metric::CpuAvailabilityLoad)),
        per_host(&latest),
    )
}

/// Executes a placement against freshly rebuilt hosts and returns the
/// observed makespan.
pub(crate) fn execute_placement(
    cfg: &SchedConfig,
    bag: &TaskBag,
    placement: &Placement,
) -> Seconds {
    // Hosts execute their task shares independently; the makespan is a
    // max-reduction over per-host completion times, so order is irrelevant
    // and the per-host simulations fan out across worker threads.
    let jobs: Vec<(usize, HostProfile)> = HostProfile::all().iter().copied().enumerate().collect();
    let completions = parallel_map(jobs, |(h, p)| {
        let mut host: Host = p.build(host_seed(cfg.seed, p.name()));
        // Fast-forward to the scheduling instant (warmup + measurement).
        host.advance_to(WARMUP + cfg.monitor_span);
        let start = host.now();
        let pids: Vec<_> = bag
            .works
            .iter()
            .zip(&placement.assignment)
            .filter(|(_, &a)| a == h)
            .map(|(&w, _)| host.spawn(ProcessSpec::cpu_bound("grid-task").with_cpu_limit(w)))
            .collect();
        if pids.is_empty() {
            return 0.0;
        }
        let deadline = start + cfg.max_execution;
        while pids.iter().any(|&pid| host.kernel().is_alive(pid)) && host.now() < deadline {
            host.advance(1.0);
        }
        host.now() - start
    });
    completions.into_iter().fold(0.0, f64::max)
}

/// Runs the full experiment: every policy over the same task bag and the
/// same host realizations.
pub fn run_scheduling_experiment(cfg: &SchedConfig) -> Vec<SchedulingOutcome> {
    let mut rng = Rng::new(cfg.seed ^ 0x5CED);
    let bag = TaskBag::generate(cfg.n_tasks, cfg.work_range.0, cfg.work_range.1, &mut rng);
    let (hybrid_fc, load_fc, loads) = gather_estimates(cfg);
    let n_hosts = HostProfile::all().len();
    Policy::all()
        .iter()
        .map(|&policy| {
            let availabilities: Vec<f64> = match policy {
                Policy::NwsForecast => hybrid_fc.clone(),
                Policy::NwsLoadForecast => load_fc.clone(),
                Policy::LoadAverage => loads.clone(),
                Policy::RoundRobin | Policy::Random => vec![1.0; n_hosts],
            };
            let mut policy_rng = Rng::new(cfg.seed ^ 0xD1CE);
            let placement = place(policy, &bag.works, &availabilities, &mut policy_rng);
            let makespan = execute_placement(cfg, &bag, &placement);
            let mut tasks_per_host = vec![0usize; n_hosts];
            for &a in &placement.assignment {
                tasks_per_host[a] += 1;
            }
            SchedulingOutcome {
                policy,
                makespan,
                predicted_makespan: placement.predicted_makespan,
                tasks_per_host,
                availabilities,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_bag_generation() {
        let mut rng = Rng::new(9);
        let bag = TaskBag::generate(50, 10.0, 20.0, &mut rng);
        assert_eq!(bag.works.len(), 50);
        assert!(bag.works.iter().all(|&w| (10.0..20.0).contains(&w)));
        assert!(bag.total_work() > 500.0 && bag.total_work() < 1000.0);
    }

    #[test]
    #[should_panic(expected = "bad work range")]
    fn bad_range_panics() {
        TaskBag::generate(1, 5.0, 5.0, &mut Rng::new(1));
    }

    #[test]
    fn experiment_runs_all_policies() {
        let outcomes = run_scheduling_experiment(&SchedConfig::quick());
        assert_eq!(outcomes.len(), 5);
        for o in &outcomes {
            assert!(o.makespan > 0.0, "{}: zero makespan", o.policy.name());
            assert_eq!(o.tasks_per_host.iter().sum::<usize>(), 12);
        }
    }

    #[test]
    fn forecast_policy_beats_uninformed_baselines() {
        let outcomes = run_scheduling_experiment(&SchedConfig::quick());
        let get = |p: Policy| {
            outcomes
                .iter()
                .find(|o| o.policy == p)
                .expect("policy present")
                .makespan
        };
        let nws = get(Policy::NwsForecast);
        let rr = get(Policy::RoundRobin);
        let rand = get(Policy::Random);
        assert!(
            nws <= rr * 1.05,
            "nws {nws} should not lose to round-robin {rr}"
        );
        assert!(nws < rand * 1.05, "nws {nws} vs random {rand}");
    }

    #[test]
    fn forecast_sees_conundrums_true_availability() {
        // The hybrid-based forecast should rate conundrum (index 2) much
        // higher than load-average-based estimates do.
        let cfg = SchedConfig::quick();
        let (hybrid_fc, load_fc, _loads) = gather_estimates(&cfg);
        assert!(
            hybrid_fc[2] > load_fc[2] + 0.2,
            "conundrum: hybrid {} vs load {}",
            hybrid_fc[2],
            load_fc[2]
        );
    }

    #[test]
    fn deterministic() {
        let a = run_scheduling_experiment(&SchedConfig::quick());
        let b = run_scheduling_experiment(&SchedConfig::quick());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.makespan, y.makespan);
            assert_eq!(x.tasks_per_host, y.tasks_per_host);
        }
    }
}
