//! Dynamic self-scheduling: a pull-based work queue over live hosts.
//!
//! Static placement commits to forecasts once; the classic alternative
//! (used alongside static strategies in the AppLeS work the paper
//! motivates) is **self-scheduling**: tasks sit in a central queue and
//! each host pulls a new task the moment it finishes its previous one.
//! Slow or suddenly-loaded hosts automatically take fewer tasks, at the
//! cost of losing the lookahead that forecast-driven placement exploits
//! (a long task can still land on a slow host near the end and stretch
//! the makespan).
//!
//! [`run_workqueue`] executes a task bag this way over the simulated
//! hosts, advancing all of them in lockstep; [`compare_static_vs_dynamic`]
//! pits it against the static forecast placement of
//! [`crate::experiment`] on identical workload realizations.

use crate::experiment::{execute_placement, gather_estimates, SchedConfig, TaskBag};
use crate::policy::{place, Policy};
use nws_runtime::host_seed;
use nws_sim::{Host, HostProfile, Pid, ProcessSpec, Seconds};
use nws_stats::Rng;

/// How tasks are ordered in the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueOrder {
    /// Longest task first (the standard self-scheduling heuristic: big
    /// tasks early so they cannot straggle at the end).
    LongestFirst,
    /// Submission order.
    Fifo,
}

/// Result of a work-queue run.
#[derive(Debug, Clone)]
pub struct WorkQueueOutcome {
    /// Observed makespan (seconds).
    pub makespan: Seconds,
    /// Tasks completed per host, in UCSD host order.
    pub tasks_per_host: Vec<usize>,
}

/// Executes `bag` over the six UCSD hosts with pull-based self-scheduling.
///
/// All hosts advance in one-second lockstep from the same warmed-up state
/// used by the static experiment, so outcomes are directly comparable.
pub fn run_workqueue(cfg: &SchedConfig, bag: &TaskBag, order: QueueOrder) -> WorkQueueOutcome {
    let profiles = HostProfile::all();
    let mut hosts: Vec<Host> = profiles
        .iter()
        .map(|p| {
            let mut h = p.build(host_seed(cfg.seed, p.name()));
            h.advance_to(600.0 + cfg.monitor_span);
            h
        })
        .collect();
    let start: Vec<Seconds> = hosts.iter().map(Host::now).collect();

    // The queue, longest-first or FIFO.
    let mut queue: Vec<f64> = bag.works.clone();
    if order == QueueOrder::LongestFirst {
        queue.sort_by(|a, b| a.total_cmp(b)); // pop() takes the back
    } else {
        queue.reverse(); // pop() then yields submission order
    }

    let mut running: Vec<Option<Pid>> = vec![None; hosts.len()];
    let mut done_per_host = vec![0usize; hosts.len()];
    let mut makespan: Seconds = 0.0;
    let deadline = cfg.max_execution;
    loop {
        let mut all_idle = true;
        for (i, host) in hosts.iter_mut().enumerate() {
            // Reap a finished task.
            if let Some(pid) = running[i] {
                if !host.kernel().is_alive(pid) {
                    running[i] = None;
                    done_per_host[i] += 1;
                    makespan = makespan.max(host.now() - start[i]);
                }
            }
            // Pull the next task.
            if running[i].is_none() {
                if let Some(work) = queue.pop() {
                    let pid = host.spawn(ProcessSpec::cpu_bound("wq-task").with_cpu_limit(work));
                    running[i] = Some(pid);
                }
            }
            if running[i].is_some() {
                all_idle = false;
            }
        }
        if all_idle && queue.is_empty() {
            break;
        }
        if hosts[0].now() - start[0] > deadline {
            break;
        }
        for host in hosts.iter_mut() {
            host.advance(1.0);
        }
    }
    WorkQueueOutcome {
        makespan,
        tasks_per_host: done_per_host,
    }
}

/// Static forecast placement vs dynamic self-scheduling on one bag.
#[derive(Debug, Clone)]
pub struct StaticVsDynamic {
    /// Makespan of static hybrid-forecast LPT placement.
    pub static_makespan: Seconds,
    /// Makespan of the longest-first work queue.
    pub dynamic_makespan: Seconds,
    /// Dynamic tasks per host.
    pub dynamic_tasks_per_host: Vec<usize>,
}

/// Runs both strategies over identical realizations.
pub fn compare_static_vs_dynamic(cfg: &SchedConfig) -> StaticVsDynamic {
    let mut rng = Rng::new(cfg.seed ^ 0x5CED);
    let bag = TaskBag::generate(cfg.n_tasks, cfg.work_range.0, cfg.work_range.1, &mut rng);

    // Static: hybrid-forecast LPT — the main experiment's own estimator
    // and executor, so this is its `NwsForecast` row by construction.
    let (forecasts, _, _) = gather_estimates(cfg);
    let mut policy_rng = Rng::new(cfg.seed ^ 0xD1CE);
    let placement = place(Policy::NwsForecast, &bag.works, &forecasts, &mut policy_rng);
    let static_makespan = execute_placement(cfg, &bag, &placement);

    let dynamic = run_workqueue(cfg, &bag, QueueOrder::LongestFirst);
    StaticVsDynamic {
        static_makespan,
        dynamic_makespan: dynamic.makespan,
        dynamic_tasks_per_host: dynamic.tasks_per_host,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> SchedConfig {
        SchedConfig::quick()
    }

    #[test]
    fn workqueue_completes_every_task() {
        let cfg = quick();
        let mut rng = Rng::new(cfg.seed ^ 0x5CED);
        let bag = TaskBag::generate(cfg.n_tasks, cfg.work_range.0, cfg.work_range.1, &mut rng);
        let out = run_workqueue(&cfg, &bag, QueueOrder::LongestFirst);
        assert_eq!(out.tasks_per_host.iter().sum::<usize>(), cfg.n_tasks);
        assert!(out.makespan > 0.0);
    }

    #[test]
    fn faster_hosts_pull_more_tasks() {
        let cfg = quick();
        let mut rng = Rng::new(cfg.seed ^ 0x5CED);
        let bag = TaskBag::generate(24, 10.0, 40.0, &mut rng);
        let out = run_workqueue(&cfg, &bag, QueueOrder::LongestFirst);
        // gremlin (index 4, nearly idle) should complete at least as many
        // tasks as busy thing2 (index 0).
        assert!(
            out.tasks_per_host[4] >= out.tasks_per_host[0],
            "tasks/host = {:?}",
            out.tasks_per_host
        );
    }

    #[test]
    fn queue_order_changes_outcomes_but_not_completion() {
        // A bag with one giant task exposes self-scheduling's blind spot:
        // the order decides WHEN the giant is pulled, but never WHICH host
        // pulls it — pull-based scheduling cannot steer big tasks toward
        // fast hosts the way guided placement can.
        let cfg = quick();
        let mut works = vec![15.0; 11];
        works.push(400.0);
        let bag = TaskBag { works };
        let lf = run_workqueue(&cfg, &bag, QueueOrder::LongestFirst);
        let ff = run_workqueue(&cfg, &bag, QueueOrder::Fifo);
        for out in [&lf, &ff] {
            assert_eq!(out.tasks_per_host.iter().sum::<usize>(), 12);
            // The giant (400 CPU-s) bounds the makespan from below even on
            // an idle host, and a saturated host cannot stretch it beyond
            // ~3x expansion plus the small tasks.
            assert!(out.makespan >= 400.0, "makespan = {}", out.makespan);
            assert!(out.makespan < 2000.0, "makespan = {}", out.makespan);
        }
        // Longest-first hands the giant to the first idle host (host 0);
        // FIFO leaves it for whoever frees up last.
        assert_ne!(
            (lf.makespan, lf.tasks_per_host.clone()),
            (ff.makespan, ff.tasks_per_host.clone()),
            "orders should produce observably different schedules"
        );
    }

    #[test]
    fn static_and_dynamic_are_comparable() {
        let r = compare_static_vs_dynamic(&quick());
        assert!(r.static_makespan > 0.0 && r.dynamic_makespan > 0.0);
        // Neither strategy should be catastrophically worse on a calm bag.
        let ratio = r.dynamic_makespan / r.static_makespan;
        assert!(
            (0.4..2.5).contains(&ratio),
            "static {} vs dynamic {}",
            r.static_makespan,
            r.dynamic_makespan
        );
        assert_eq!(
            r.dynamic_tasks_per_host.iter().sum::<usize>(),
            quick().n_tasks
        );
        let experiment = crate::experiment::run_scheduling_experiment(&quick());
        let nws = experiment.iter().find(|o| o.policy == Policy::NwsForecast);
        assert_eq!(r.static_makespan, nws.expect("policy present").makespan);
    }
}
