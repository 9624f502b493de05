//! Property-based invariants of the host simulator.

use nws_sim::{Host, HostProfile, Kernel, ProcessSpec};
use proptest::prelude::*;

/// A tiny random workload script interpreted against a kernel.
#[derive(Debug, Clone)]
enum Op {
    Spawn {
        nice: u8,
        sys_frac: u8,
        limit: Option<u8>,
    },
    KillOldest,
    Sleep {
        idx: u8,
    },
    Wake {
        idx: u8,
    },
    Run {
        seconds: u8,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..20, 0u8..10, proptest::option::of(1u8..30)).prop_map(|(nice, sys_frac, limit)| {
            Op::Spawn {
                nice,
                sys_frac,
                limit,
            }
        }),
        Just(Op::KillOldest),
        (0u8..8).prop_map(|idx| Op::Sleep { idx }),
        (0u8..8).prop_map(|idx| Op::Wake { idx }),
        (1u8..30).prop_map(|seconds| Op::Run { seconds }),
    ]
}

fn run_script(kernel: &mut Kernel, script: &[Op]) {
    let mut pids = Vec::new();
    for op in script {
        match op {
            Op::Spawn {
                nice,
                sys_frac,
                limit,
            } => {
                let mut spec = ProcessSpec::cpu_bound("scripted")
                    .with_nice(*nice)
                    .with_sys_fraction(f64::from(*sys_frac) / 10.0);
                if let Some(l) = limit {
                    spec = spec.with_cpu_limit(f64::from(*l));
                }
                pids.push(kernel.spawn(spec));
            }
            Op::KillOldest => {
                if !pids.is_empty() {
                    let pid = pids.remove(0);
                    let _ = kernel.kill(pid);
                }
            }
            Op::Sleep { idx } => {
                if let Some(&pid) = pids.get(*idx as usize) {
                    kernel.set_runnable(pid, false);
                }
            }
            Op::Wake { idx } => {
                if let Some(&pid) = pids.get(*idx as usize) {
                    kernel.set_runnable(pid, true);
                }
            }
            Op::Run { seconds } => {
                kernel.run_ticks(u64::from(*seconds) * 10);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn accounting_always_totals_elapsed_cpu_time(
        script in proptest::collection::vec(op_strategy(), 1..40),
        seed in any::<u64>(),
    ) {
        let mut k = Kernel::new(seed);
        run_script(&mut k, &script);
        let elapsed = k.now();
        let a = k.accounting();
        prop_assert!((a.total() - elapsed).abs() < 1e-6,
            "total {} != elapsed {elapsed}", a.total());
        prop_assert!(a.user >= -1e-12 && a.sys >= -1e-12 && a.idle >= -1e-12);
    }

    #[test]
    fn run_queue_never_exceeds_live_processes(
        script in proptest::collection::vec(op_strategy(), 1..40),
        seed in any::<u64>(),
    ) {
        let mut k = Kernel::new(seed);
        run_script(&mut k, &script);
        prop_assert!(k.runnable_count() <= k.process_count());
        // Load averages are bounded by the all-time max run queue, which is
        // bounded by the number of spawns.
        prop_assert!(k.load_average().one_minute() >= 0.0);
        prop_assert!(k.load_average().one_minute() <= script.len() as f64);
    }

    #[test]
    fn cpu_time_is_conserved(
        script in proptest::collection::vec(op_strategy(), 1..40),
        seed in any::<u64>(),
    ) {
        // Sum of CPU time over live + completed processes never exceeds
        // the busy time the kernel accounted.
        let mut k = Kernel::new(seed);
        run_script(&mut k, &script);
        let a = k.accounting();
        let live: f64 = (1..=200)
            .filter_map(|i| k.cpu_time(nws_sim::Pid(i)))
            .sum();
        let done: f64 = k.drain_completed().iter().map(|s| s.cpu_time).sum();
        // Killed processes' time stays inside user+sys accounting even
        // though we no longer see the processes, so <= is the invariant.
        prop_assert!(live + done <= a.user + a.sys + 1e-6,
            "live {live} + done {done} > busy {}", a.user + a.sys);
    }

    #[test]
    fn scripts_replay_deterministically(
        script in proptest::collection::vec(op_strategy(), 1..25),
        seed in any::<u64>(),
    ) {
        let run = |s: &[Op]| {
            let mut k = Kernel::new(seed);
            run_script(&mut k, s);
            (k.now(), k.accounting(), k.runnable_count())
        };
        prop_assert_eq!(run(&script), run(&script));
    }

    #[test]
    fn profile_hosts_never_produce_negative_or_nan_state(
        seed in any::<u64>(),
        minutes in 1u64..30,
    ) {
        let mut host: Host = HostProfile::Thing2.build(seed);
        host.advance(minutes as f64 * 60.0);
        let a = host.accounting();
        prop_assert!(a.user.is_finite() && a.sys.is_finite() && a.idle.is_finite());
        prop_assert!(a.user >= 0.0 && a.sys >= 0.0 && a.idle >= 0.0);
        let l = host.load_average();
        prop_assert!(l.one_minute() >= 0.0 && l.one_minute() < 50.0);
        prop_assert!(l.fifteen_minute() >= 0.0);
    }
}
