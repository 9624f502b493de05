//! Experiments beyond the paper's tables: ablations, sweeps, seed
//! robustness, the scheduling study, host-load statistics and the
//! fault-injection sweep. Each prints a table and writes its CSV.

use crate::cli::Tier;
use crate::write_artifact;
use nws_core::experiments::{
    aggregation_sweep, bias_ablation, forecaster_ablation, horizon_sweep, load_statistics,
    probe_duration_sweep, seed_robustness, sweep_dataset, ExperimentConfig,
};
use nws_core::report::pct;
use nws_sched::experiment::{run_scheduling_experiment, SchedConfig};
use nws_sched::workqueue::compare_static_vs_dynamic;
use nws_sim::HostProfile;
use std::fmt::Write as _;

/// Runs one of the extension experiments by name.
pub fn run(name: &str, cfg: &ExperimentConfig, tier: Tier) {
    match name {
        "ablation" => run_ablations(cfg),
        "sweep" => run_sweeps(cfg),
        "robustness" => run_robustness(cfg),
        "sched" => run_sched(tier),
        "loadstats" => run_loadstats(cfg),
        "faults" => run_faults(cfg, tier),
        other => unreachable!("{other} is not an extension experiment"),
    }
}

fn run_loadstats(cfg: &ExperimentConfig) {
    println!("\nHost-load statistics (Dinda-O'Halloran style, raw 1-min load average)");
    println!(
        "{:<11} {:>6} {:>6} {:>6} {:>6} | {:>6} {:>6} {:>6} {:>6} | {:>5} {:>5} {:>5}",
        "host",
        "mean",
        "std",
        "max",
        "med",
        "r(1)",
        "r(6)",
        "r(30)",
        "r(360)",
        "H_rs",
        "H_av",
        "H_pg"
    );
    let mut csv = String::from(
        "host,n,mean,std,max,median,acf_10s,acf_1m,acf_5m,acf_1h,hurst_rs,hurst_av,hurst_pg\n",
    );
    for r in load_statistics(cfg) {
        println!(
            "{:<11} {:>6.2} {:>6.2} {:>6.2} {:>6.2} | {:>6.2} {:>6.2} {:>6.2} {:>6.2} | {:>5.2} {:>5.2} {:>5.2}",
            r.host, r.mean, r.std_dev, r.max, r.median,
            r.acf[0], r.acf[1], r.acf[2], r.acf[3],
            r.hurst.0, r.hurst.1, r.hurst.2
        );
        let _ = writeln!(
            csv,
            "{},{},{},{},{},{},{},{},{},{},{},{},{}",
            r.host,
            r.n,
            r.mean,
            r.std_dev,
            r.max,
            r.median,
            r.acf[0],
            r.acf[1],
            r.acf[2],
            r.acf[3],
            r.hurst.0,
            r.hurst.1,
            r.hurst.2
        );
    }
    write_artifact("loadstats.csv", &csv);
}

/// The `faults` experiment: sweeps fault intensity over the six-host grid
/// and reports how the measurement path degrades — gap fraction, forecast
/// error on the surviving hybrid series, divergence from the fault-free
/// run (matched by timestamp), and degraded-mode reporting at the end.
fn run_faults(cfg: &ExperimentConfig, tier: Tier) {
    use nws_faults::{FaultPlan, FaultRates};
    use nws_forecast::{evaluate_one_step, PredictorBank};
    use nws_grid::{GridMonitor, Metric};
    use std::collections::BTreeMap;

    // Half an hour, one hour, six hours of 10 s slots.
    let steps: u64 = tier.pick(180, 360, 2160);
    let rates: &[f64] = if tier == Tier::Full {
        &[0.0, 0.02, 0.05, 0.1, 0.2]
    } else {
        &[0.0, 0.05, 0.2]
    };
    let profiles = HostProfile::all();
    println!(
        "\nFault-injection sweep: {} hosts, {} slots ({} simulated minutes) per intensity",
        profiles.len(),
        steps,
        steps * 10 / 60
    );
    println!(
        "{:>6} {:>9} {:>7} {:>7} {:>8} {:>8} {:>9} {:>9} {:>9} {:>5}",
        "rate",
        "delivered",
        "gaps",
        "reboot",
        "late ok",
        "late x",
        "mae",
        "diverge",
        "conf",
        "degr"
    );
    let mut csv = String::from(
        "fault_rate,slots,delivered,gaps,gap_fraction,outage_slots,reboots,\
         probe_attempts_failed,probes_abandoned,fallback_cross,delayed,\
         late_delivered,late_dropped,hybrid_mae,divergence_vs_clean,\
         mean_confidence,degraded_hosts\n",
    );
    // Fault-free reference: hybrid series keyed by timestamp bits, used to
    // measure how far faulted runs drift on the slots both still measured.
    let mut clean: Vec<BTreeMap<u64, f64>> = Vec::new();
    for &rate in rates {
        let mut gm = GridMonitor::with_faults(
            &profiles,
            cfg.seed,
            nws_grid::GridMonitorConfig::default(),
            FaultPlan::seeded(cfg.seed ^ 0xFA17, FaultRates::uniform(rate)),
        );
        gm.run_steps(steps);
        let stats = gm.fault_stats();
        let (mut mae_sum, mut mae_n) = (0.0, 0u32);
        let (mut div_sum, mut div_n) = (0.0, 0u64);
        let mut series_maps: Vec<BTreeMap<u64, f64>> = Vec::new();
        for (i, p) in profiles.iter().enumerate() {
            let id = gm
                .registry()
                .lookup(p.name(), Metric::CpuAvailabilityHybrid)
                .expect("registered");
            let (values, map): (Vec<f64>, BTreeMap<u64, f64>) =
                gm.memory().with_series(id, |times, vals| {
                    (
                        vals.to_vec(),
                        times.zip(vals).map(|(t, v)| (t.to_bits(), *v)).collect(),
                    )
                });
            if let Some(r) = evaluate_one_step(&mut PredictorBank::nws_default(), &values) {
                mae_sum += r.mae;
                mae_n += 1;
            }
            if let Some(c) = clean.get(i) {
                for (t, v) in &map {
                    if let Some(cv) = c.get(t) {
                        div_sum += (v - cv).abs();
                        div_n += 1;
                    }
                }
            }
            series_maps.push(map);
        }
        if clean.is_empty() {
            clean = series_maps;
        }
        let rows = || gm.archive().host_rows(gm.now());
        let degraded = rows().filter(|h| h.degraded).count();
        let (conf_sum, conf_n) = rows()
            .filter_map(|h| h.forecast)
            .fold((0.0, 0u32), |(s, n), a| (s + a.confidence, n + 1));
        let mae = mae_sum / f64::from(mae_n.max(1));
        let divergence = if div_n > 0 {
            div_sum / div_n as f64
        } else {
            0.0
        };
        let confidence = conf_sum / f64::from(conf_n.max(1));
        let gap_fraction = stats.gaps as f64 / (stats.slots * 4) as f64;
        println!(
            "{:>6.2} {:>9} {:>7} {:>7} {:>8} {:>8} {:>8.1}% {:>8.3} {:>9.2} {:>5}",
            rate,
            stats.delivered,
            stats.gaps,
            stats.reboots,
            stats.late_delivered,
            stats.late_dropped,
            mae * 100.0,
            divergence,
            confidence,
            degraded
        );
        let _ = writeln!(
            csv,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            rate,
            stats.slots,
            stats.delivered,
            stats.gaps,
            gap_fraction,
            stats.outage_slots,
            stats.reboots,
            stats.probe_attempts_failed,
            stats.probes_abandoned,
            stats.fallback_cross,
            stats.delayed,
            stats.late_delivered,
            stats.late_dropped,
            mae,
            divergence,
            confidence,
            degraded
        );
    }
    write_artifact("faults_sweep.csv", &csv);
}

fn run_sweeps(cfg: &ExperimentConfig) {
    let out = sweep_dataset(cfg, HostProfile::Thing2);

    println!(
        "
Extension: one-step error vs aggregation level (thing2)"
    );
    println!(
        "{:>6} {:>8} {:>8} {:>8} {:>8} {:>7}",
        "m", "span", "load", "vmstat", "hybrid", "n"
    );
    let mut csv = String::from(
        "m,span_s,load_mae,vmstat_mae,hybrid_mae,n
",
    );
    for p in aggregation_sweep(&out, &[1, 2, 3, 6, 12, 30, 60, 180]) {
        println!(
            "{:>6} {:>7.0}s {:>8} {:>8} {:>8} {:>7}",
            p.m,
            p.span,
            pct(p.mae[0]),
            pct(p.mae[1]),
            pct(p.mae[2]),
            p.n
        );
        let _ = writeln!(
            csv,
            "{},{},{},{},{},{}",
            p.m, p.span, p.mae[0], p.mae[1], p.mae[2], p.n
        );
    }
    write_artifact("sweep_aggregation.csv", &csv);

    println!(
        "
Extension: forecast error vs horizon (thing2)"
    );
    println!(
        "{:>6} {:>8} {:>8} {:>8} {:>8}",
        "k", "lead", "load", "vmstat", "hybrid"
    );
    let mut csv = String::from(
        "k,lead_s,load_mae,vmstat_mae,hybrid_mae
",
    );
    for p in horizon_sweep(&out, &[1, 2, 3, 6, 12, 30, 60, 180, 360]) {
        println!(
            "{:>6} {:>7.0}s {:>8} {:>8} {:>8}",
            p.k,
            p.lead,
            pct(p.mae[0]),
            pct(p.mae[1]),
            pct(p.mae[2])
        );
        let _ = writeln!(
            csv,
            "{},{},{},{},{}",
            p.k, p.lead, p.mae[0], p.mae[1], p.mae[2]
        );
    }
    write_artifact("sweep_horizon.csv", &csv);
}

fn run_robustness(cfg: &ExperimentConfig) {
    println!(
        "
Extension: Table 1 across 8 seeds (mean +/- std per cell)"
    );
    let seeds: Vec<u64> = (0..8).map(|i| cfg.seed.wrapping_add(i * 7919)).collect();
    let rows = seed_robustness(cfg, &seeds);
    println!(
        "{:<11} {:>16} {:>16} {:>16}",
        "host", "load avg", "vmstat", "nws hybrid"
    );
    let mut csv = String::from(
        "host,load_mean,load_std,vmstat_mean,vmstat_std,hybrid_mean,hybrid_std
",
    );
    for r in &rows {
        let fmt = |(m, s): (f64, f64)| format!("{} +/- {:.1}%", pct(m), s * 100.0);
        println!(
            "{:<11} {:>16} {:>16} {:>16}",
            r.host,
            fmt(r.cells[0]),
            fmt(r.cells[1]),
            fmt(r.cells[2])
        );
        let _ = writeln!(
            csv,
            "{},{},{},{},{},{},{}",
            r.host,
            r.cells[0].0,
            r.cells[0].1,
            r.cells[1].0,
            r.cells[1].1,
            r.cells[2].0,
            r.cells[2].1
        );
    }
    write_artifact("robustness_table1.csv", &csv);
}

fn run_ablations(cfg: &ExperimentConfig) {
    println!("\nAblation 1: dynamic predictor selection vs fixed predictors (thing1, load avg)");
    let ab = forecaster_ablation(cfg, HostProfile::Thing1);
    let mut fixed = ab.fixed.clone();
    fixed.sort_by(|a, b| a.1.total_cmp(&b.1));
    let mut csv = String::from("method,mae\n");
    let _ = writeln!(csv, "nws-dynamic,{}", ab.dynamic);
    println!("  {:<22} {}", "nws-dynamic", pct(ab.dynamic));
    for (name, mae) in &fixed {
        println!("  {:<22} {}", name, pct(*mae));
        let _ = writeln!(csv, "{name},{mae}");
    }
    write_artifact("ablation_forecasters.csv", &csv);

    println!("\nAblation 2: probe bias on/off");
    let mut csv = String::from("host,with_bias,without_bias\n");
    for host in [
        HostProfile::Conundrum,
        HostProfile::Kongo,
        HostProfile::Thing1,
    ] {
        let b = bias_ablation(cfg, host);
        println!(
            "  {:<10} with bias {}  without bias {}",
            b.host,
            pct(b.with_bias),
            pct(b.without_bias)
        );
        let _ = writeln!(csv, "{},{},{}", b.host, b.with_bias, b.without_bias);
    }
    write_artifact("ablation_bias.csv", &csv);

    println!("\nAblation 3: probe duration sweep on kongo (error vs intrusiveness)");
    let sweep = probe_duration_sweep(cfg, HostProfile::Kongo, &[0.5, 1.0, 1.5, 3.0, 5.0, 10.0]);
    let mut csv = String::from("probe_duration_s,hybrid_error,overhead\n");
    for p in &sweep {
        println!(
            "  probe {:>4.1}s  error {}  overhead {}",
            p.probe_duration,
            pct(p.hybrid_error),
            pct(p.overhead)
        );
        let _ = writeln!(
            csv,
            "{},{},{}",
            p.probe_duration, p.hybrid_error, p.overhead
        );
    }
    write_artifact("ablation_probe_duration.csv", &csv);
}

fn run_sched(tier: Tier) {
    println!("\nScheduling experiment: bag-of-tasks over the six hosts");
    let cfg = if tier == Tier::Full {
        SchedConfig::default()
    } else {
        SchedConfig::quick()
    };
    let outcomes = run_scheduling_experiment(&cfg);
    let best = outcomes
        .iter()
        .map(|o| o.makespan)
        .fold(f64::INFINITY, f64::min);
    let mut csv = String::from("policy,makespan_s,predicted_s,slowdown_vs_best\n");
    for o in &outcomes {
        println!(
            "  {:<14} makespan {:>8.0}s  (x{:.2} vs best)  tasks/host {:?}",
            o.policy.name(),
            o.makespan,
            o.makespan / best,
            o.tasks_per_host
        );
        let _ = writeln!(
            csv,
            "{},{},{},{}",
            o.policy.name(),
            o.makespan,
            o.predicted_makespan,
            o.makespan / best
        );
    }
    write_artifact("sched_experiment.csv", &csv);

    // Static placement vs dynamic self-scheduling on the same bag.
    let cmp = compare_static_vs_dynamic(&cfg);
    println!(
        "  static forecast LPT {:>6.0}s vs dynamic work-queue {:>6.0}s  (dynamic tasks/host {:?})",
        cmp.static_makespan, cmp.dynamic_makespan, cmp.dynamic_tasks_per_host
    );
}
