//! Data-aware scheduling: placement that weighs *transfer* time as well as
//! compute time.
//!
//! The application-level scheduling work the paper motivates (AppLeS — its
//! references \[2\] and \[24\], a gene-sequence-library comparison) placed work
//! by predicting **both** halves of each task's completion time:
//!
//! `completion(task, host) = input_bytes / bandwidth(host) + cpu_seconds / availability(host)`
//!
//! using NWS forecasts for the bandwidth and availability terms. This
//! module reproduces that formulation end to end: forecast-driven
//! placement, then execution against live simulated hosts *and* links,
//! with a compute-only baseline that ignores the network (the classic
//! mistake on a grid where the fastest CPU sits behind the slowest path).

use crate::expansion::predicted_runtime;
use nws_net::{Link, LinkConfig};
use nws_runtime::host_seed;
use nws_sim::{Host, HostProfile, ProcessSpec, Seconds};
use nws_stats::Rng;

/// A task with an input data set that must be staged to its host before
/// compute begins.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataTask {
    /// CPU demand (seconds on an unloaded host).
    pub cpu_seconds: f64,
    /// Input payload staged over the host's link (bytes).
    pub input_bytes: f64,
}

/// One grid site: a host profile behind a network path.
#[derive(Debug, Clone)]
pub struct Site {
    /// Host name (one of the UCSD profiles).
    pub profile: HostProfile,
    /// The path from the data repository to this site.
    pub link: LinkConfig,
}

/// The experiment's placement policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataPolicy {
    /// Predict transfer + compute with forecasts (the AppLeS way).
    TransferAware,
    /// Predict compute only; ignore the network.
    ComputeOnly,
    /// Deal tasks out cyclically.
    RoundRobin,
}

impl DataPolicy {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            DataPolicy::TransferAware => "transfer-aware",
            DataPolicy::ComputeOnly => "compute-only",
            DataPolicy::RoundRobin => "round-robin",
        }
    }

    /// All policies, in report order.
    pub fn all() -> [DataPolicy; 3] {
        [
            DataPolicy::TransferAware,
            DataPolicy::ComputeOnly,
            DataPolicy::RoundRobin,
        ]
    }
}

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct DataSchedConfig {
    /// Base seed.
    pub seed: u64,
    /// The sites (host + path).
    pub sites: Vec<Site>,
    /// The task bag.
    pub tasks: Vec<DataTask>,
    /// Warmup before estimates are taken / execution starts.
    pub warmup: Seconds,
    /// Hard cap on execution simulation.
    pub max_execution: Seconds,
}

impl DataSchedConfig {
    /// The default scenario: a fast host behind a slow WAN path versus
    /// slower hosts on good paths — the configuration where network-blind
    /// placement fails. Tasks move 128–256 MB each (gene-library-sized
    /// inputs, as in the paper's reference \[24\]) and need 40–120 CPU-s, so
    /// staging dominates on the WAN path.
    pub fn demo(seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0xDA7A);
        let tasks = (0..24)
            .map(|_| DataTask {
                cpu_seconds: rng.range_f64(40.0, 120.0),
                input_bytes: rng.range_f64(1.28e8, 2.56e8),
            })
            .collect();
        Self {
            seed,
            sites: vec![
                // gremlin: nearly idle CPU but behind the congested WAN.
                Site {
                    profile: HostProfile::Gremlin,
                    link: LinkConfig::wan_10mbit(),
                },
                // thing1: moderately loaded, on the LAN.
                Site {
                    profile: HostProfile::Thing1,
                    link: LinkConfig::lan_100mbit(),
                },
                // thing2: busy, on the LAN.
                Site {
                    profile: HostProfile::Thing2,
                    link: LinkConfig::lan_100mbit(),
                },
            ],
            tasks,
            warmup: 1800.0,
            max_execution: 24.0 * 3600.0,
        }
    }
}

/// Outcome of one policy run.
#[derive(Debug, Clone)]
pub struct DataSchedOutcome {
    /// The policy.
    pub policy: DataPolicy,
    /// Observed makespan (seconds).
    pub makespan: Seconds,
    /// Tasks per site.
    pub tasks_per_site: Vec<usize>,
    /// The per-site `(availability, bandwidth)` estimates used
    /// (1.0/capacity for the uninformed policy).
    pub estimates: Vec<(f64, f64)>,
}

fn site_seed(base: u64, idx: usize, what: &str) -> u64 {
    host_seed(base, what) ^ (idx as u64).wrapping_mul(0x9E37_79B9)
}

/// Measures availability (mean of recent Eq. 1 readings) and achievable
/// bandwidth (mean of probe transfers) per site during a warmup window.
fn gather_estimates(cfg: &DataSchedConfig) -> Vec<(f64, f64)> {
    cfg.sites
        .iter()
        .enumerate()
        .map(|(i, site)| {
            let mut host = site.profile.build(site_seed(cfg.seed, i, "host"));
            host.advance(cfg.warmup);
            let mut sensor = nws_sensors::LoadAvgSensor::new();
            let mut avail = 0.0;
            for _ in 0..30 {
                host.advance(10.0);
                avail += sensor.measure(&host);
            }
            avail /= 30.0;
            let mut link = Link::new("path", site.link.clone(), site_seed(cfg.seed, i, "link"));
            link.advance(cfg.warmup.min(600.0));
            let mut bw_sensor = nws_net::BandwidthSensor::new(1.0e6);
            let mut bw = 0.0;
            for _ in 0..5 {
                bw += bw_sensor.measure(&mut link);
                link.advance(30.0);
            }
            (avail, bw / 5.0)
        })
        .collect()
}

/// Greedy minimum-completion-time placement under the given estimates.
fn place(policy: DataPolicy, tasks: &[DataTask], estimates: &[(f64, f64)]) -> Vec<usize> {
    let n_sites = estimates.len();
    let mut assignment = vec![0usize; tasks.len()];
    match policy {
        DataPolicy::RoundRobin => {
            for (i, a) in assignment.iter_mut().enumerate() {
                *a = i % n_sites;
            }
        }
        DataPolicy::TransferAware | DataPolicy::ComputeOnly => {
            // LPT by predicted total demand.
            let cost = |t: &DataTask, s: usize| -> f64 {
                let (avail, bw) = estimates[s];
                let compute = predicted_runtime(t.cpu_seconds, avail);
                match policy {
                    DataPolicy::TransferAware => compute + t.input_bytes / bw.max(1.0),
                    _ => compute,
                }
            };
            let mut order: Vec<usize> = (0..tasks.len()).collect();
            order.sort_by(|&a, &b| tasks[b].cpu_seconds.total_cmp(&tasks[a].cpu_seconds));
            let mut finish = vec![0.0f64; n_sites];
            for &t in &order {
                let (best, best_finish) = (0..n_sites)
                    .map(|s| (s, finish[s] + cost(&tasks[t], s)))
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    .expect("at least one site");
                finish[best] = best_finish;
                assignment[t] = best;
            }
        }
    }
    assignment
}

/// Executes a placement: per site, inputs stage serially over the link and
/// tasks compute (in staging order) on the live host. Returns the
/// makespan.
fn execute(cfg: &DataSchedConfig, assignment: &[usize]) -> Seconds {
    let mut makespan: Seconds = 0.0;
    for (s, site) in cfg.sites.iter().enumerate() {
        let mut host: Host = site.profile.build(site_seed(cfg.seed, s, "host"));
        host.advance(cfg.warmup);
        let mut link = Link::new("path", site.link.clone(), site_seed(cfg.seed, s, "link"));
        link.advance(cfg.warmup.min(600.0));
        let t0 = host.now();
        // Stage all inputs serially; remember each task's data-ready time.
        let mut ready: Vec<(Seconds, f64)> = Vec::new(); // (ready time, cpu work)
        let mut link_clock = 0.0;
        for (t, task) in cfg.tasks.iter().enumerate() {
            if assignment[t] == s {
                link_clock += link.transfer(task.input_bytes);
                ready.push((link_clock, task.cpu_seconds));
            }
        }
        if ready.is_empty() {
            continue;
        }
        // Compute in staging order on the live host.
        let mut site_finish: Seconds = 0.0;
        for (ready_at, cpu) in ready {
            let start = host.now().max(t0 + ready_at);
            host.advance_to(start);
            let pid = host.spawn(ProcessSpec::cpu_bound("data-task").with_cpu_limit(cpu));
            let deadline = host.now() + cfg.max_execution;
            while host.kernel().is_alive(pid) && host.now() < deadline {
                host.advance(1.0);
            }
            site_finish = host.now() - t0;
        }
        makespan = makespan.max(site_finish);
    }
    makespan
}

/// Runs the data-aware scheduling experiment over every policy.
pub fn run_data_sched_experiment(cfg: &DataSchedConfig) -> Vec<DataSchedOutcome> {
    assert!(!cfg.sites.is_empty(), "need at least one site");
    assert!(!cfg.tasks.is_empty(), "need at least one task");
    let estimates = gather_estimates(cfg);
    DataPolicy::all()
        .iter()
        .map(|&policy| {
            let used: Vec<(f64, f64)> = match policy {
                DataPolicy::RoundRobin => {
                    cfg.sites.iter().map(|s| (1.0, s.link.capacity)).collect()
                }
                _ => estimates.clone(),
            };
            let assignment = place(policy, &cfg.tasks, &used);
            let makespan = execute(cfg, &assignment);
            let mut tasks_per_site = vec![0usize; cfg.sites.len()];
            for &a in &assignment {
                tasks_per_site[a] += 1;
            }
            DataSchedOutcome {
                policy,
                makespan,
                tasks_per_site,
                estimates: used,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> DataSchedConfig {
        let mut cfg = DataSchedConfig::demo(11);
        cfg.tasks.truncate(9);
        cfg.warmup = 600.0;
        cfg
    }

    #[test]
    fn all_policies_run_and_assign_everything() {
        let outcomes = run_data_sched_experiment(&quick_cfg());
        assert_eq!(outcomes.len(), 3);
        for o in &outcomes {
            assert!(o.makespan > 0.0);
            assert_eq!(o.tasks_per_site.iter().sum::<usize>(), 9);
        }
    }

    #[test]
    fn transfer_aware_beats_compute_only() {
        // The demo scenario is built so the idle CPU hides behind the slow
        // path: ignoring the network must cost real makespan.
        let outcomes = run_data_sched_experiment(&quick_cfg());
        let get = |p: DataPolicy| {
            outcomes
                .iter()
                .find(|o| o.policy == p)
                .expect("policy present")
                .makespan
        };
        let aware = get(DataPolicy::TransferAware);
        let blind = get(DataPolicy::ComputeOnly);
        assert!(
            aware < blind * 0.9,
            "transfer-aware {aware} should clearly beat compute-only {blind}"
        );
    }

    #[test]
    fn compute_only_overloads_the_remote_fast_host() {
        let outcomes = run_data_sched_experiment(&quick_cfg());
        let blind = outcomes
            .iter()
            .find(|o| o.policy == DataPolicy::ComputeOnly)
            .expect("policy present");
        let aware = outcomes
            .iter()
            .find(|o| o.policy == DataPolicy::TransferAware)
            .expect("policy present");
        // Site 0 is the idle-but-remote host: compute-only sends more
        // work there than the transfer-aware policy does.
        assert!(
            blind.tasks_per_site[0] > aware.tasks_per_site[0],
            "blind {:?} vs aware {:?}",
            blind.tasks_per_site,
            aware.tasks_per_site
        );
    }

    #[test]
    fn deterministic() {
        let a = run_data_sched_experiment(&quick_cfg());
        let b = run_data_sched_experiment(&quick_cfg());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.makespan, y.makespan);
            assert_eq!(x.tasks_per_site, y.tasks_per_site);
        }
    }
}
