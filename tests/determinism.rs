//! Reproducibility guarantees: every experiment is a pure function of its
//! seed. This is what lets the repro harness regenerate the tables
//! bit-identically.

use nws::core::experiments::{
    all_datasets, medium_dataset, short_dataset, table1_from, weekly_load_series, ExperimentConfig,
};
use nws::sched::experiment::{run_scheduling_experiment, SchedConfig};
use nws::sim::HostProfile;
use nws::stats::{DaviesHarte, Hosking, Rng};

#[test]
fn tables_are_bit_identical_across_runs() {
    let cfg = ExperimentConfig::quick();
    let a = table1_from(&short_dataset(&cfg));
    let b = table1_from(&short_dataset(&cfg));
    assert_eq!(a, b);
}

#[test]
fn seeds_change_values_but_not_shape() {
    let t_a = table1_from(&short_dataset(&ExperimentConfig {
        seed: 1,
        ..ExperimentConfig::quick()
    }));
    let t_b = table1_from(&short_dataset(&ExperimentConfig {
        seed: 2,
        ..ExperimentConfig::quick()
    }));
    // Different realizations...
    assert_ne!(t_a, t_b);
    // ...same qualitative structure: both pathologies in both runs.
    for t in [&t_a, &t_b] {
        let con = t.row("conundrum").expect("row exists");
        assert!(con.load > con.hybrid);
        let kongo = t.row("kongo").expect("row exists");
        assert!(kongo.hybrid > kongo.load);
    }
}

#[test]
fn host_traces_replay_exactly() {
    let run = |seed| {
        let mut h = HostProfile::Thing2.build(seed);
        h.advance(3600.0);
        (
            h.load_average().one_minute(),
            h.accounting().user,
            h.runnable_count(),
        )
    };
    assert_eq!(run(99), run(99));
    assert_ne!(run(99), run(100));
}

#[test]
fn fgn_generators_replay_exactly() {
    let dh = DaviesHarte::new(0.72).expect("valid H");
    assert_eq!(
        dh.sample(512, &mut Rng::new(5)).expect("sample"),
        dh.sample(512, &mut Rng::new(5)).expect("sample")
    );
    let ho = Hosking::new(0.72).expect("valid H");
    assert_eq!(
        ho.sample(256, &mut Rng::new(5)).expect("sample"),
        ho.sample(256, &mut Rng::new(5)).expect("sample")
    );
}

#[test]
fn parallel_datasets_are_bit_identical_to_sequential() {
    // The experiment drivers fan out over hosts through nws-runtime;
    // ordered result reassembly must make thread count unobservable.
    // Exercised at 1 worker (guaranteed sequential fallback) vs 4.
    let cfg = ExperimentConfig::quick();
    let collect = |threads: usize| {
        nws::runtime::set_threads(Some(threads));
        let short = short_dataset(&cfg);
        let medium = medium_dataset(&cfg);
        let weekly = weekly_load_series(&cfg);
        let (short_c, medium_c, weekly_c) = all_datasets(&cfg);
        nws::runtime::set_threads(None);
        (short, medium, weekly, short_c, medium_c, weekly_c)
    };
    let seq = collect(1);
    let par = collect(4);

    for (outs_seq, outs_par) in [
        (&seq.0, &par.0),
        (&seq.1, &par.1),
        (&seq.3, &par.3),
        (&seq.4, &par.4),
    ] {
        assert_eq!(outs_seq.len(), outs_par.len());
        for (a, b) in outs_seq.iter().zip(outs_par.iter()) {
            assert_eq!(a.host, b.host);
            assert_eq!(a.series.load.values(), b.series.load.values());
            assert_eq!(a.series.vmstat.values(), b.series.vmstat.values());
            assert_eq!(a.series.hybrid.values(), b.series.hybrid.values());
            assert_eq!(a.tests.len(), b.tests.len());
            for (ta, tb) in a.tests.iter().zip(b.tests.iter()) {
                assert_eq!(ta.value, tb.value);
                assert_eq!(ta.prior, tb.prior);
                assert_eq!(ta.forecast, tb.forecast);
            }
        }
    }
    for (ws, wp) in [(&seq.2, &par.2), (&seq.5, &par.5)] {
        for (a, b) in ws.iter().zip(wp.iter()) {
            assert_eq!(a.values(), b.values());
        }
    }
}

#[test]
fn faulted_grid_replays_bit_identically_across_thread_counts() {
    // The fault-injection layer must not break the thread-count
    // guarantee: the same seed and the same FaultPlan produce identical
    // measurement series, gap records, and fault statistics whether the
    // fleet runs on one worker or four.
    use nws::faults::{FaultPlan, FaultRates};
    use nws::grid::{GridMonitor, GridMonitorConfig, Metric};

    let run = |threads: usize| {
        nws::runtime::set_threads(Some(threads));
        let mut gm = GridMonitor::with_faults(
            &HostProfile::all(),
            4242,
            GridMonitorConfig::default(),
            FaultPlan::seeded(17, FaultRates::uniform(0.12)),
        );
        gm.run_steps(120);
        nws::runtime::set_threads(None);
        let mut out = Vec::new();
        for p in HostProfile::all() {
            let id = gm
                .registry()
                .lookup(p.name(), Metric::CpuAvailabilityHybrid)
                .expect("registered");
            let pts: Vec<(f64, f64)> = gm.memory().with_series(id, |times, values| {
                times.iter().copied().zip(values.iter().copied()).collect()
            });
            out.push((pts, gm.memory().gaps(id), gm.memory().dropped(id)));
        }
        (out, gm.fault_stats())
    };
    let (series1, stats1) = run(1);
    let (series4, stats4) = run(4);
    assert_eq!(series1, series4);
    assert_eq!(stats1, stats4);
    assert!(stats1.gaps > 0, "nonzero intensity must produce gaps");
}

#[test]
fn scheduling_experiment_replays_exactly() {
    let a = run_scheduling_experiment(&SchedConfig::quick());
    let b = run_scheduling_experiment(&SchedConfig::quick());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.policy, y.policy);
        assert_eq!(x.makespan, y.makespan);
        assert_eq!(x.availabilities, y.availabilities);
    }
}
