//! Workload profiles for the six UCSD hosts of the paper.
//!
//! "The hosts thing1, thing2, and conundrum are interactive workstations
//! used for research by graduate students, while beowulf, gremlin, and
//! kongo are general departmental servers available to faculty and
//! students." Each profile below synthesizes the load pattern the paper
//! attributes to its host; the two priority pathologies (conundrum's
//! `nice +19` soaker, kongo's long-running full-priority job) are modeled
//! mechanistically so the sensor errors *emerge* from scheduler behaviour.

use crate::host::Host;
use crate::workload::{
    BatchArrivals, BatchConfig, Diurnal, GatewayInterrupts, InteractiveSessions, LongRunningHog,
    NiceSoaker, SessionConfig,
};
use nws_stats::Pareto;

/// The six hosts of Tables 1–6, in the paper's row order.
pub const UCSD_HOST_NAMES: [&str; 6] = [
    "thing2",
    "thing1",
    "conundrum",
    "beowulf",
    "gremlin",
    "kongo",
];

/// A named host workload profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostProfile {
    /// Busy interactive graduate-student workstation.
    Thing2,
    /// Moderately loaded interactive workstation.
    Thing1,
    /// Workstation with a `nice +19` background cycle-soaker.
    Conundrum,
    /// Departmental compute server: batch jobs + gateway interrupt load.
    Beowulf,
    /// Lightly loaded departmental server.
    Gremlin,
    /// Server running a long-lived full-priority CPU-bound job.
    Kongo,
}

impl HostProfile {
    /// The profile's canonical host name.
    pub fn name(&self) -> &'static str {
        match self {
            HostProfile::Thing2 => "thing2",
            HostProfile::Thing1 => "thing1",
            HostProfile::Conundrum => "conundrum",
            HostProfile::Beowulf => "beowulf",
            HostProfile::Gremlin => "gremlin",
            HostProfile::Kongo => "kongo",
        }
    }

    /// Looks a profile up by host name (case-sensitive).
    pub fn by_name(name: &str) -> Option<HostProfile> {
        Some(match name {
            "thing2" => HostProfile::Thing2,
            "thing1" => HostProfile::Thing1,
            "conundrum" => HostProfile::Conundrum,
            "beowulf" => HostProfile::Beowulf,
            "gremlin" => HostProfile::Gremlin,
            "kongo" => HostProfile::Kongo,
            _ => return None,
        })
    }

    /// All six profiles in the paper's row order.
    pub fn all() -> [HostProfile; 6] {
        [
            HostProfile::Thing2,
            HostProfile::Thing1,
            HostProfile::Conundrum,
            HostProfile::Beowulf,
            HostProfile::Gremlin,
            HostProfile::Kongo,
        ]
    }

    /// Builds the host with its workload attached. `seed` controls every
    /// stochastic choice; the same `(profile, seed)` pair reproduces the
    /// same trace bit-for-bit.
    pub fn build(&self, seed: u64) -> Host {
        let mut host = Host::new(self.name(), seed);
        // Interactive load is modeled as sessions whose active phases last
        // minutes (so the 1-minute load average is a meaningful predictor)
        // but whose CPU consumption inside a phase is interleaved with I/O
        // at the sub-second scale (duty ~0.3, 0.4 s micro-slices) — real
        // editors, compiles and simulations, not synthetic spin loops.
        let session = |arrival_mean: f64, bursts: f64, max: usize, duty: f64| SessionConfig {
            arrival_mean,
            // Tail index α = 1.8: a superposition of these on/off phases has
            // implied Hurst (3 − α)/2 = 0.6; load-average smoothing and the
            // small-sample bias of R/S land the measured estimates near the
            // paper's 0.7.
            burst: Pareto::new(1.8, 120.0).with_cap(7200.0), // mean ≈ 4.5 min
            think: Pareto::new(1.8, 240.0).with_cap(10800.0), // mean ≈ 9 min
            bursts_per_session: bursts,
            sys_fraction: 0.15,
            max_concurrent: max,
            duty,
            micro_on_mean: 1.0,
            // Grad-student diurnal rhythm: the paper's traces run noon to
            // noon with visible day/night structure (Figure 1).
            diurnal: Some(Diurnal::working_day(0.5)),
        };
        // Background daemon churn common to every Unix host: frequent,
        // tiny, full-priority jobs (cron, mail delivery, shell commands).
        // This fast, memoryless component is what keeps the measured Hurst
        // parameter in the paper's 0.7–0.8 band instead of saturating — the
        // availability series mixes slow session persistence with fast
        // daemon noise, exactly the "short-term self-similarity" structure
        // the paper cites from Gribble et al.
        {
            let rng = host.fork_rng("daemons");
            host.add_workload(Box::new(BatchArrivals::new(
                format!("{}-daemons", self.name()),
                BatchConfig {
                    arrival_mean: 120.0,
                    demand: Pareto::new(1.5, 0.4).with_cap(5.0),
                    nice: 0,
                    sys_fraction: 0.4,
                    max_concurrent: 3,
                    duty: 1.0,
                    micro_on_mean: 0.4,
                },
                rng,
            )));
        }
        match self {
            HostProfile::Thing2 => {
                // Busy workstation: many concurrent sessions.
                let rng = host.fork_rng("sessions");
                host.add_workload(Box::new(InteractiveSessions::new(
                    "thing2-users",
                    session(600.0, 8.0, 12, 0.32),
                    rng,
                )));
            }
            HostProfile::Thing1 => {
                // Moderate workstation.
                let rng = host.fork_rng("sessions");
                host.add_workload(Box::new(InteractiveSessions::new(
                    "thing1-users",
                    session(1450.0, 8.0, 8, 0.25),
                    rng,
                )));
            }
            HostProfile::Conundrum => {
                // The nice +19 soaker, plus sparse real use.
                let rng = host.fork_rng("soaker");
                host.add_workload(Box::new(NiceSoaker::new("conundrum-bg", 600.0, 0.0, rng)));
                let rng = host.fork_rng("sessions");
                host.add_workload(Box::new(InteractiveSessions::new(
                    "conundrum-users",
                    session(10800.0, 8.0, 3, 0.25),
                    rng,
                )));
            }
            HostProfile::Beowulf => {
                // Compute server: batch jobs, moderate sessions, NFS/gateway
                // interrupt load.
                let rng = host.fork_rng("batch");
                host.add_workload(Box::new(BatchArrivals::new(
                    "beowulf-batch",
                    BatchConfig {
                        arrival_mean: 1200.0,
                        demand: Pareto::new(1.3, 60.0).with_cap(2400.0),
                        nice: 0,
                        sys_fraction: 0.08,
                        max_concurrent: 3,
                        duty: 0.4,
                        micro_on_mean: 0.5,
                    },
                    rng,
                )));
                let rng = host.fork_rng("sessions");
                host.add_workload(Box::new(InteractiveSessions::new(
                    "beowulf-users",
                    session(2600.0, 8.0, 6, 0.25),
                    rng,
                )));
                let rng = host.fork_rng("gateway");
                host.add_workload(Box::new(GatewayInterrupts::new(
                    "beowulf-gw",
                    0.01,
                    0.06,
                    300.0,
                    rng,
                )));
            }
            HostProfile::Gremlin => {
                // Lightly loaded server.
                let rng = host.fork_rng("sessions");
                host.add_workload(Box::new(InteractiveSessions::new(
                    "gremlin-users",
                    session(5200.0, 8.0, 5, 0.2),
                    rng,
                )));
                let rng = host.fork_rng("batch");
                host.add_workload(Box::new(BatchArrivals::new(
                    "gremlin-batch",
                    BatchConfig {
                        arrival_mean: 5400.0,
                        demand: Pareto::new(1.4, 30.0).with_cap(900.0),
                        nice: 0,
                        sys_fraction: 0.05,
                        max_concurrent: 2,
                        duty: 0.4,
                        micro_on_mean: 0.5,
                    },
                    rng,
                )));
            }
            HostProfile::Kongo => {
                // The resident long-running full-priority job, plus sparse
                // interactive use.
                host.add_workload(Box::new(LongRunningHog::new("kongo-res", 0.0, 0.05)));
                let rng = host.fork_rng("sessions");
                host.add_workload(Box::new(InteractiveSessions::new(
                    "kongo-users",
                    session(3000.0, 8.0, 3, 0.25),
                    rng,
                )));
            }
        }
        host
    }
}

/// Builds all six UCSD hosts with per-host seeds derived from `base_seed`.
pub fn ucsd_hosts(base_seed: u64) -> Vec<Host> {
    HostProfile::all()
        .iter()
        .map(|p| p.build(nws_stats::host_seed(base_seed, p.name())))
        .collect()
}

/// A synthetic fleet host: a statistical stand-in for one monitored
/// machine, cheap enough to instantiate by the hundred thousand.
///
/// The full kernel simulation behind [`HostProfile::build`] runs 100
/// scheduler quanta per measurement slot, of which the workloads are
/// polled at a few (per slot, over a day with a probe every sixth slot:
/// thing2 12.3, thing1 5.0, conundrum 1.1, beowulf 9.9, gremlin 1.6,
/// kongo 2.3) — ideal for fidelity at six hosts, hopeless for a
/// 10⁵-host sweep. Each synthetic host instead
/// draws CPU availability from an AR(1) process with occasional regime
/// shifts, anchored at one of six long-run levels spanning the UCSD
/// machines (busy workstation ≈ 0.35 through idle server ≈ 0.9). State
/// is a few words, stepping is a handful of arithmetic ops, and the
/// trajectory is a pure function of `(index, base_seed)` — the
/// determinism contract the event engine needs.
#[derive(Debug, Clone)]
pub struct SyntheticHost {
    /// xorshift64* RNG state (never zero).
    rng: u64,
    /// Long-run availability level of the current regime.
    level: f64,
    /// Current availability value.
    value: f64,
}

/// Long-run availability anchors, one per UCSD profile archetype,
/// in [`HostProfile::all`] order.
const SYNTHETIC_LEVELS: [f64; 6] = [0.35, 0.55, 0.45, 0.6, 0.9, 0.5];

impl SyntheticHost {
    /// AR(1) pull toward the regime level per 10-second slot.
    const PHI: f64 = 0.9;
    /// Innovation scale.
    const SIGMA: f64 = 0.05;
    /// Expected slots between regime shifts (~1 h at the paper cadence).
    const SHIFT_EVERY: f64 = 360.0;

    /// The seed of roster position `index` under `base_seed`: FNV-1a
    /// over the index word, XOR the base, so every position walks an
    /// independent trajectory.
    pub fn index_seed(index: u64, base_seed: u64) -> u64 {
        let mut h = nws_stats::Fnv1a::new();
        h.word(index);
        h.finish() ^ base_seed
    }

    /// The host at `index` in the roster seeded by `base_seed`.
    pub fn new(index: u64, base_seed: u64) -> Self {
        let rng = Self::index_seed(index, base_seed).max(1);
        let level = SYNTHETIC_LEVELS[(index % 6) as usize];
        Self {
            rng,
            level,
            value: level,
        }
    }

    /// Next raw RNG draw (xorshift64*).
    fn next_u64(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform draw in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Advances one measurement slot and returns the availability in
    /// `[0, 1]`.
    pub fn step(&mut self) -> f64 {
        if self.next_f64() < 1.0 / Self::SHIFT_EVERY {
            // Regime shift: re-anchor near the profile level.
            self.level = (SYNTHETIC_LEVELS[(self.next_u64() % 6) as usize]
                + 0.2 * (self.next_f64() - 0.5))
                .clamp(0.05, 0.98);
        }
        let noise = 2.0 * (self.next_f64() - 0.5);
        self.value = (self.level + Self::PHI * (self.value - self.level) + Self::SIGMA * noise)
            .clamp(0.0, 1.0);
        self.value
    }
}

/// The display name of roster slot `index` (`fleet-000042`-style;
/// generated on demand so a 10⁵-host roster carries no name storage).
pub fn synthetic_host_name(index: usize) -> String {
    format!("fleet-{index:06}")
}

/// A synthetic roster of `n` hosts cycling the six profile archetypes.
pub fn synthetic_roster(n: usize, base_seed: u64) -> Vec<SyntheticHost> {
    (0..n as u64)
        .map(|i| SyntheticHost::new(i, base_seed))
        .collect()
}

/// Records one availability trace per UCSD profile host: each host is
/// built from `base_seed`, warmed past its load-average spin-up, sampled
/// at the paper's 10-second cadence for `samples` slots, and each
/// run-queue level is mapped through Eq. 1 — a new process joining `r`
/// runnable competitors receives `1 / (1 + r)` of the CPU.
///
/// The result is the fleet tier's trace-mixture roster: six real
/// workload shapes (interactive sessions, batch hogs, self-similar
/// on/off sources) a fleet of any size can replay.
pub fn ucsd_availability_traces(base_seed: u64, samples: usize) -> Vec<Vec<f64>> {
    ucsd_hosts(base_seed)
        .into_iter()
        .map(|mut host| {
            // Let sessions spawn and the load average settle before
            // recording, as the paper's traces start on warm machines.
            host.advance(600.0);
            crate::trace::record_load_trace(&mut host, 10.0, samples)
                .levels
                .iter()
                .map(|&l| 1.0 / (1.0 + f64::from(l)))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn availability_traces_are_deterministic_and_in_range() {
        let a = ucsd_availability_traces(7, 50);
        let b = ucsd_availability_traces(7, 50);
        assert_eq!(a, b);
        assert_eq!(a.len(), 6, "one trace per UCSD profile");
        for trace in &a {
            assert_eq!(trace.len(), 50);
            assert!(trace.iter().all(|v| (0.0..=1.0).contains(v)));
        }
        // The profiles are genuinely different workloads: the busiest
        // and idlest machines must not record the same mean availability.
        let means: Vec<f64> = a
            .iter()
            .map(|t| t.iter().sum::<f64>() / t.len() as f64)
            .collect();
        let lo = means.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = means.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(hi - lo > 0.05, "means: {means:?}");
    }

    #[test]
    fn names_round_trip() {
        for p in HostProfile::all() {
            assert_eq!(HostProfile::by_name(p.name()), Some(p));
        }
        assert_eq!(HostProfile::by_name("nonesuch"), None);
    }

    #[test]
    fn row_order_matches_paper() {
        let names: Vec<&str> = HostProfile::all().iter().map(|p| p.name()).collect();
        assert_eq!(names, UCSD_HOST_NAMES.to_vec());
    }

    #[test]
    fn builds_are_deterministic() {
        let mut a = HostProfile::Thing1.build(99);
        let mut b = HostProfile::Thing1.build(99);
        a.advance(1800.0);
        b.advance(1800.0);
        assert_eq!(a.accounting(), b.accounting());
        assert_eq!(a.load_average().one_minute(), b.load_average().one_minute());
    }

    #[test]
    fn seeds_differentiate_traces() {
        let mut a = HostProfile::Thing2.build(1);
        let mut b = HostProfile::Thing2.build(2);
        a.advance(3600.0);
        b.advance(3600.0);
        assert_ne!(a.accounting(), b.accounting());
    }

    #[test]
    fn kongo_is_saturated_conundrum_is_nice_loaded() {
        let probe_mean = |host: &mut crate::host::Host| {
            let mut acc = 0.0;
            for _ in 0..5 {
                acc += host.run_cpu_limited_probe("probe", 1.5, 8.0);
                host.advance(60.0);
            }
            acc / 5.0
        };
        let mut kongo = HostProfile::Kongo.build(7);
        kongo.advance(1800.0);
        assert!(kongo.load_average().one_minute() > 0.9);
        // The probe still sees a mostly-available CPU (priority decay of
        // the resident job); individual probes can be disturbed by daemon
        // churn, so average a handful.
        // Far above the ~0.5 fair share the load average implies (the
        // anti-starvation sliver and session churn cost the probe a bit).
        let occ = probe_mean(&mut kongo);
        assert!(occ > 0.65, "kongo probe = {occ}");

        let mut con = HostProfile::Conundrum.build(7);
        con.advance(1800.0);
        // The soaker is on (probe preempts it) or off (idle): both ways
        // the probe sees freedom.
        let occ = probe_mean(&mut con);
        assert!(occ > 0.7, "conundrum probe = {occ}");
    }

    #[test]
    fn ucsd_hosts_builds_all_six() {
        let hosts = ucsd_hosts(42);
        assert_eq!(hosts.len(), 6);
        let names: Vec<&str> = hosts.iter().map(|h| h.name()).collect();
        assert_eq!(names, UCSD_HOST_NAMES.to_vec());
    }

    #[test]
    fn synthetic_hosts_are_deterministic_and_bounded() {
        let mut a = SyntheticHost::new(17, 4242);
        let mut b = SyntheticHost::new(17, 4242);
        let mut c = SyntheticHost::new(18, 4242);
        let mut diverged = false;
        for _ in 0..2000 {
            let va = a.step();
            assert_eq!(va.to_bits(), b.step().to_bits());
            assert!((0.0..=1.0).contains(&va));
            if va.to_bits() != c.step().to_bits() {
                diverged = true;
            }
        }
        assert!(diverged, "distinct indices must walk distinct trajectories");
    }

    #[test]
    fn synthetic_roster_shapes() {
        let roster = synthetic_roster(13, 7);
        assert_eq!(roster.len(), 13);
        assert_eq!(synthetic_host_name(42), "fleet-000042");
        // Regime anchors cycle the six archetypes: hosts 0 and 6 share a
        // level but not a trajectory.
        let mut h0 = SyntheticHost::new(0, 7);
        let mut h6 = SyntheticHost::new(6, 7);
        assert_ne!(h0.step().to_bits(), h6.step().to_bits());
    }
}
