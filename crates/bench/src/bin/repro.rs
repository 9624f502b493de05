//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--quick] [--smoke] [--seed N] [--threads N] <experiment>...
//! experiments: table1 table2 table3 table4 table5 table6
//!              fig1 fig2 fig3 fig4 ablation sweep robustness
//!              sched datasched net loadstats faults perf serve fleet
//!              durability load all
//! ```
//!
//! Tables are printed with the paper's published value in parentheses next
//! to each measured cell; every artifact is also written as CSV under
//! `results/` (override with `NWS_RESULTS_DIR`).
//!
//! Experiment drivers fan out over hosts/seeds/sweep points through
//! `nws-runtime`; `--threads N` (or the `NWS_THREADS` environment
//! variable) pins the worker count, and `--threads 1` forces fully
//! sequential execution. Results are bit-identical at any thread count.
//! Per-stage wall-clock timings are written to `BENCH_repro.json` after
//! every run; the `perf` experiment runs a representative timing suite
//! without printing the tables.

use nws_bench::alloc_counter::{self, AllocSnapshot, CountingAllocator};
use nws_bench::write_artifact;
use nws_core::experiments::{
    aggregation_sweep, all_datasets, bias_ablation, fig1_from, fig2_from, fig3_from, fig4_from,
    forecaster_ablation, horizon_sweep, load_statistics, medium_dataset, probe_duration_sweep,
    seed_robustness, short_dataset, sweep_dataset, table1_from, table2_from, table3_from,
    table4_from, table5_from, table6_from, weekly_load_series, ExperimentConfig,
};
use nws_core::monitor::MonitorOutput;
use nws_core::paper;
use nws_core::plot::{ascii_scatter, ascii_series};
use nws_core::report::{
    method_table_to_csv, pct, render_method_table, render_table4, table4_to_csv,
};
use nws_net::LinkMonitor;
use nws_sched::data_aware::{run_data_sched_experiment, DataSchedConfig};
use nws_sched::experiment::{run_scheduling_experiment, SchedConfig};
use nws_sched::workqueue::compare_static_vs_dynamic;
use nws_sim::HostProfile;
use nws_timeseries::csv::series_to_csv;
use std::collections::BTreeSet;
use std::fmt::Write as _;

// Counted pass-through to the system allocator, so the perf suite can
// report allocation counts next to wall-clock timings.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

struct Args {
    quick: bool,
    smoke: bool,
    seed: Option<u64>,
    threads: Option<usize>,
    /// Which socket transport the `load` experiment drives: "threaded",
    /// "reactor", or "all" (both, the default — and what CI diffs).
    transport: String,
    /// `fleet --quality`: run the forecast-quality sweep (per-predictor
    /// MAE/MSE error tables over three prediction scenarios) instead of
    /// the scaling sweep.
    quality: bool,
    experiments: BTreeSet<String>,
}

fn parse_args() -> Args {
    let mut quick = false;
    let mut smoke = false;
    let mut seed = None;
    let mut threads = None;
    let mut transport = String::from("all");
    let mut quality = false;
    let mut experiments = BTreeSet::new();
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--smoke" => {
                // CI-sized runs: quick datasets plus the smallest sweep
                // grids, meant for cross-thread-count diffing.
                smoke = true;
                quick = true;
            }
            "--seed" => {
                let v = iter.next().unwrap_or_else(|| usage("--seed needs a value"));
                seed = Some(v.parse().unwrap_or_else(|_| usage("bad seed")));
            }
            "--threads" => {
                let v = iter
                    .next()
                    .unwrap_or_else(|| usage("--threads needs a value"));
                let n: usize = v.parse().unwrap_or_else(|_| usage("bad thread count"));
                if n == 0 {
                    usage("thread count must be positive");
                }
                threads = Some(n);
            }
            "--transport" => {
                let v = iter
                    .next()
                    .unwrap_or_else(|| usage("--transport needs a value"));
                if !["threaded", "reactor", "all"].contains(&v.as_str()) {
                    usage("transport must be threaded, reactor, or all");
                }
                transport = v;
            }
            "--quality" => quality = true,
            "--help" | "-h" => usage(""),
            other if other.starts_with('-') => usage(&format!("unknown flag {other}")),
            other => {
                experiments.insert(other.to_string());
            }
        }
    }
    if experiments.is_empty() {
        experiments.insert("all".to_string());
    }
    const KNOWN: &[&str] = &[
        "table1",
        "table2",
        "table3",
        "table4",
        "table5",
        "table6",
        "fig1",
        "fig2",
        "fig3",
        "fig4",
        "ablation",
        "sweep",
        "robustness",
        "sched",
        "datasched",
        "net",
        "loadstats",
        "faults",
        "perf",
        "serve",
        "fleet",
        "durability",
        "load",
        "all",
    ];
    for exp in &experiments {
        if !KNOWN.contains(&exp.as_str()) {
            usage(&format!("unknown experiment {exp}"));
        }
    }
    Args {
        quick,
        smoke,
        seed,
        threads,
        transport,
        quality,
        experiments,
    }
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: repro [--quick] [--smoke] [--seed N] [--threads N] \
         [--transport threaded|reactor|all] [--quality] <experiment>...\n\
         experiments: table1 table2 table3 table4 table5 table6\n\
         \x20            fig1 fig2 fig3 fig4 ablation sweep robustness\n\
         \x20            sched datasched net loadstats faults perf serve fleet\n\
         \x20            durability load all"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}

/// Runs `f`, recording its wall-clock time under `name` for
/// `BENCH_repro.json`.
fn timed<T>(stages: &mut Vec<(String, f64)>, name: &str, f: impl FnOnce() -> T) -> T {
    let t0 = std::time::Instant::now();
    let out = f();
    stages.push((name.to_string(), t0.elapsed().as_secs_f64() * 1e3));
    out
}

/// Writes the per-stage timing artifact (hand-rolled JSON; stage names are
/// plain identifiers, so no escaping is needed).
fn write_bench_artifact(stages: &[(String, f64)], quick: bool) {
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"threads\": {},", nws_runtime::threads());
    let _ = writeln!(json, "  \"hosts\": {},", HostProfile::all().len());
    let _ = writeln!(json, "  \"quick\": {quick},");
    json.push_str("  \"stages_ms\": {\n");
    for (i, (name, ms)) in stages.iter().enumerate() {
        let comma = if i + 1 < stages.len() { "," } else { "" };
        let _ = writeln!(json, "    \"{name}\": {ms:.3}{comma}");
    }
    json.push_str("  },\n");
    let total: f64 = stages.iter().map(|(_, ms)| ms).sum();
    let _ = writeln!(json, "  \"total_ms\": {total:.3}");
    json.push_str("}\n");
    write_artifact("BENCH_repro.json", &json);
}

/// Caches the expensive dataset collections across experiments.
#[derive(Default)]
struct Datasets {
    short: Option<Vec<MonitorOutput>>,
    medium: Option<Vec<MonitorOutput>>,
    weekly: Option<Vec<nws_timeseries::Series>>,
}

impl Datasets {
    fn short(&mut self, cfg: &ExperimentConfig) -> &Vec<MonitorOutput> {
        self.short.get_or_insert_with(|| {
            eprintln!("collecting 24h short-test dataset (6 hosts)...");
            short_dataset(cfg)
        })
    }

    fn medium(&mut self, cfg: &ExperimentConfig) -> &Vec<MonitorOutput> {
        self.medium.get_or_insert_with(|| {
            eprintln!("collecting 24h medium-term dataset (6 hosts)...");
            medium_dataset(cfg)
        })
    }

    fn weekly(&mut self, cfg: &ExperimentConfig) -> &Vec<nws_timeseries::Series> {
        self.weekly.get_or_insert_with(|| {
            eprintln!("collecting week-long load traces (6 hosts)...");
            weekly_load_series(cfg)
        })
    }
}

fn main() {
    let args = parse_args();
    nws_runtime::set_threads(args.threads);
    let mut cfg = if args.quick {
        ExperimentConfig::quick()
    } else {
        ExperimentConfig::default()
    };
    if let Some(seed) = args.seed {
        cfg.seed = seed;
    }
    let run_all = args.experiments.contains("all");
    let want = |name: &str| run_all || args.experiments.contains(name);
    let mut data = Datasets::default();
    let mut stages: Vec<(String, f64)> = Vec::new();

    if run_all {
        // Every dataset will be needed; collect all 18 monitoring runs
        // (6 hosts x short/medium/weekly) through one shared work queue
        // instead of dataset-by-dataset.
        timed(&mut stages, "datasets", || {
            eprintln!(
                "collecting all datasets concurrently (18 runs, {} threads)...",
                nws_runtime::threads()
            );
            let (short, medium, weekly) = all_datasets(&cfg);
            data.short = Some(short);
            data.medium = Some(medium);
            data.weekly = Some(weekly);
        });
    }

    if want("table1") {
        timed(&mut stages, "table1", || {
            let t = table1_from(data.short(&cfg));
            println!("\n{}", render_method_table(&t, Some(&paper::TABLE1)));
            write_artifact("table1.csv", &method_table_to_csv(&t));
        });
    }
    if want("table2") {
        timed(&mut stages, "table2", || {
            let t = table2_from(data.short(&cfg));
            println!("\n{}", render_method_table(&t, Some(&paper::TABLE2)));
            write_artifact("table2.csv", &method_table_to_csv(&t));
        });
    }
    if want("table3") {
        timed(&mut stages, "table3", || {
            let t = table3_from(data.short(&cfg));
            println!("\n{}", render_method_table(&t, Some(&paper::TABLE3)));
            write_artifact("table3.csv", &method_table_to_csv(&t));
        });
    }
    if want("table4") {
        timed(&mut stages, "table4", || {
            data.short(&cfg);
            data.weekly(&cfg);
            let rows = table4_from(
                data.short.as_ref().expect("just collected"),
                data.weekly.as_ref().expect("just collected"),
            );
            println!("\n{}", render_table4(&rows, true));
            write_artifact("table4.csv", &table4_to_csv(&rows));
        });
    }
    if want("table5") {
        timed(&mut stages, "table5", || {
            let t = table5_from(data.short(&cfg));
            println!("\n{}", render_method_table(&t, Some(&paper::TABLE5)));
            write_artifact("table5.csv", &method_table_to_csv(&t));
        });
    }
    if want("table6") {
        timed(&mut stages, "table6", || {
            let t = table6_from(data.medium(&cfg));
            println!("\n{}", render_method_table(&t, Some(&paper::TABLE6)));
            write_artifact("table6.csv", &method_table_to_csv(&t));
        });
    }
    if want("fig1") {
        timed(&mut stages, "fig1", || {
            let f = fig1_from(data.short(&cfg));
            println!("\n{}", f.title);
            for (host, series) in &f.series {
                println!("{}", ascii_series(series, 100, 12));
                write_artifact(&format!("fig1_{host}.csv"), &series_to_csv(series));
            }
        });
    }
    if want("fig2") {
        timed(&mut stages, "fig2", || {
            let f = fig2_from(data.short(&cfg));
            println!("\n{}", f.title);
            for (host, series) in &f.series {
                println!("{}", ascii_series(series, 100, 12));
                write_artifact(&format!("fig2_{host}.csv"), &series_to_csv(series));
            }
        });
    }
    if want("fig3") {
        timed(&mut stages, "fig3", || {
            let figs = fig3_from(data.weekly(&cfg), &nws_sim::UCSD_HOST_NAMES);

            println!("\nFigure 3: R/S pox plots (Unix load average, one week)");
            for fig in &figs {
                let pts: Vec<(f64, f64)> =
                    fig.points.iter().map(|p| (p.log10_d, p.log10_rs)).collect();
                println!(
                    "{}",
                    ascii_scatter(
                        &format!("{}  H = {:.2}", fig.host, fig.estimate.h),
                        &pts,
                        Some((fig.estimate.fit.slope, fig.estimate.fit.intercept)),
                        80,
                        20,
                    )
                );
                let mut csv = String::from("log10_d,log10_rs\n");
                for p in &fig.points {
                    let _ = writeln!(csv, "{},{}", p.log10_d, p.log10_rs);
                }
                write_artifact(&format!("fig3_{}.csv", fig.host), &csv);
            }
        });
    }
    if want("fig4") {
        timed(&mut stages, "fig4", || {
            let f = fig4_from(data.medium(&cfg));
            println!("\n{}", f.title);
            for (host, series) in &f.series {
                println!("{}", ascii_series(series, 100, 12));
                write_artifact(&format!("fig4_{host}.csv"), &series_to_csv(series));
            }
        });
    }
    if want("ablation") {
        timed(&mut stages, "ablation", || run_ablations(&cfg));
    }
    if want("sweep") {
        timed(&mut stages, "sweep", || run_sweeps(&cfg));
    }
    if want("robustness") {
        timed(&mut stages, "robustness", || run_robustness(&cfg));
    }
    if want("sched") {
        timed(&mut stages, "sched", || run_sched(args.quick));
    }
    if want("datasched") {
        timed(&mut stages, "datasched", || run_data_sched(&cfg));
    }
    if want("net") {
        timed(&mut stages, "net", || run_net(&cfg));
    }
    if want("loadstats") {
        timed(&mut stages, "loadstats", || run_loadstats(&cfg));
    }
    if want("faults") {
        timed(&mut stages, "faults", || {
            run_faults(&cfg, args.quick, args.smoke)
        });
    }
    // `perf` is a pure timing suite; it is only run when asked for by name
    // (it would double-run stages under `all`).
    if !run_all && args.experiments.contains("perf") {
        run_perf(&cfg, args.quick, args.smoke, &mut stages);
    }
    // `serve` spins up real sockets and load-generator threads, so like
    // `perf` it only runs when asked for by name.
    if !run_all && args.experiments.contains("serve") {
        timed(&mut stages, "serve", || {
            run_serve(&cfg, args.quick, args.smoke)
        });
    }
    // `fleet` sweeps synthetic rosters to six-figure host counts, so like
    // `perf` it only runs when asked for by name.
    if !run_all && args.experiments.contains("fleet") {
        timed(&mut stages, "fleet", || {
            run_fleet(cfg.seed, args.quick, args.smoke, args.quality)
        });
    }
    // `durability` replays seeded crash plans and spins real sockets for
    // the failover phase, so like `perf` it only runs when asked for by
    // name.
    if !run_all && args.experiments.contains("durability") {
        timed(&mut stages, "durability", || {
            run_durability(&cfg, args.quick, args.smoke)
        });
    }
    // `load` saturates real sockets with open-loop traffic, so like
    // `perf` it only runs when asked for by name.
    if !run_all && args.experiments.contains("load") {
        timed(&mut stages, "load", || {
            run_load(&cfg, args.quick, args.smoke, &args.transport)
        });
    }

    write_bench_artifact(&stages, args.quick);
    eprintln!(
        "wrote BENCH_repro.json ({} stages, {} threads)",
        stages.len(),
        nws_runtime::threads()
    );
}

/// The `perf` experiment: times representative stages of the pipeline
/// (dataset collection, grid fleet monitoring, scheduling) without
/// printing their tables, then runs the tracked kernel benchmark —
/// naive-vs-fast ACF and Hurst kernels, columnar-store ingest, the
/// extract-vs-borrowed read path, driver access patterns, and the serving
/// hot path — writing `BENCH_perf.json` at the repository root. Stage
/// timings land in `BENCH_repro.json` like any other stage's.
fn run_perf(cfg: &ExperimentConfig, quick: bool, smoke: bool, stages: &mut Vec<(String, f64)>) {
    println!(
        "\nperf: timing suite ({} threads over {} hosts)",
        nws_runtime::threads(),
        HostProfile::all().len()
    );
    timed(stages, "perf_datasets", || {
        let (short, medium, weekly) = all_datasets(cfg);
        std::hint::black_box((short.len(), medium.len(), weekly.len()))
    });
    let grid = timed(stages, "perf_grid_fleet", || {
        let mut grid = nws_grid::GridMonitor::ucsd(cfg.seed);
        let steps = if quick { 360 } else { 8640 };
        grid.run_steps(steps);
        grid
    });
    timed(stages, "perf_sched", || {
        let scfg = if quick {
            SchedConfig::quick()
        } else {
            SchedConfig::default()
        };
        std::hint::black_box(run_scheduling_experiment(&scfg).len())
    });
    let json = timed(stages, "perf_kernels", || {
        perf_kernels(cfg, quick, smoke, grid)
    });
    // The kernel baseline is tracked in version control, so unlike the
    // per-run artifacts under `results/` it lands at the repository root.
    match std::fs::write("BENCH_perf.json", &json) {
        Ok(()) => eprintln!("wrote BENCH_perf.json"),
        Err(e) => eprintln!("warning: cannot write BENCH_perf.json: {e}"),
    }
    for (name, ms) in stages.iter() {
        if name.starts_with("perf_") {
            println!("  {name:<18} {ms:>10.1} ms");
        }
    }
}

/// Deterministic AR(1) series with LCG noise: cheap to generate and
/// autocorrelated enough that the ACF/Hurst kernels do representative work.
fn synth_series(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = nws_stats::Rng::new(seed);
    let mut x = 0.5f64;
    (0..n)
        .map(|_| {
            x = 0.9 * x + 0.1 * rng.next_f64();
            x
        })
        .collect()
}

/// Best-of-`reps` wall-clock milliseconds for `f`.
fn best_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Wall-clock milliseconds plus allocator counters for one run of `f`.
fn timed_allocs<T>(f: impl FnOnce() -> T) -> (T, f64, AllocSnapshot) {
    let t0 = std::time::Instant::now();
    let (out, delta) = alloc_counter::measure(f);
    (out, t0.elapsed().as_secs_f64() * 1e3, delta)
}

/// The tracked kernel benchmark behind `BENCH_perf.json`.
///
/// Every section pairs the production path against the retained naive
/// reference on identical inputs, so the artifact records both the speedup
/// and the numerical agreement. The schema (key set and nesting) is
/// identical across tiers — smoke/quick runs only shrink the problem
/// sizes — which is what lets CI diff a fresh smoke artifact against the
/// committed full-tier baseline structurally.
fn perf_kernels(
    cfg: &ExperimentConfig,
    quick: bool,
    smoke: bool,
    grid: nws_grid::GridMonitor,
) -> String {
    use nws_grid::Metric;
    use nws_server::{GridState, InMemoryTransport, Transport};
    use nws_stats::{
        aggregated_variance_hurst, aggregated_variance_hurst_naive, autocovariance_fft,
        autocovariance_naive, clamped_autocorrelation, hurst_rs, pox_plot, pox_plot_naive,
    };
    use nws_wire::{Request, Response};
    use std::sync::{Arc, Mutex};

    let tier = if smoke {
        "smoke"
    } else if quick {
        "quick"
    } else {
        "full"
    };
    let lag = 360usize;
    println!("\nperf: tracked kernel benchmark (tier {tier}) -> BENCH_perf.json");

    // --- ACF: O(n*lag) direct sums vs the Wiener-Khinchin FFT path.
    let acf_sizes: &[usize] = if smoke {
        &[1024, 4096]
    } else if quick {
        &[4096, 16384]
    } else {
        &[4096, 16384, 100_000]
    };
    let mut acf_entries = Vec::new();
    for (i, &n) in acf_sizes.iter().enumerate() {
        let x = synth_series(n, cfg.seed.wrapping_add(i as u64));
        let l = lag.min(n.saturating_sub(2));
        let naive_ms = best_ms(3, || autocovariance_naive(&x, l));
        let fft_ms = best_ms(3, || autocovariance_fft(&x, l));
        let a = autocovariance_naive(&x, l).expect("non-degenerate series");
        let b = autocovariance_fft(&x, l).expect("non-degenerate series");
        let max_abs_diff = a
            .iter()
            .zip(&b)
            .map(|(p, q)| (p - q).abs())
            .fold(0.0f64, f64::max);
        let speedup = naive_ms / fft_ms.max(1e-9);
        println!(
            "  acf    n={n:<7} lag={l:<4} naive {naive_ms:>9.3} ms  fft {fft_ms:>8.3} ms  \
             speedup {speedup:>6.2}x  maxdiff {max_abs_diff:.2e}"
        );
        acf_entries.push(format!(
            "    {{ \"n\": {n}, \"lag\": {l}, \"naive_ms\": {naive_ms:.4}, \"fft_ms\": {fft_ms:.4}, \
             \"speedup\": {speedup:.3}, \"max_abs_diff\": {max_abs_diff:.3e} }}"
        ));
    }

    // --- Hurst: per-segment rescans vs the shared prefix-sum pass.
    let hn = if smoke {
        8192
    } else if quick {
        16384
    } else {
        131_072
    };
    let hx = synth_series(hn, cfg.seed ^ 0x4852);
    let pox_naive_ms = best_ms(3, || pox_plot_naive(&hx, 10));
    let pox_fast_ms = best_ms(3, || pox_plot(&hx, 10));
    let pox_points = pox_plot(&hx, 10).len();
    let av_naive_ms = best_ms(3, || aggregated_variance_hurst_naive(&hx));
    let av_fast_ms = best_ms(3, || aggregated_variance_hurst(&hx));
    println!(
        "  pox    n={hn:<7} naive {pox_naive_ms:>9.3} ms  fast {pox_fast_ms:>8.3} ms  \
         speedup {:>6.2}x  ({pox_points} points)",
        pox_naive_ms / pox_fast_ms.max(1e-9)
    );
    println!(
        "  aggvar n={hn:<7} naive {av_naive_ms:>9.3} ms  fast {av_fast_ms:>8.3} ms  \
         speedup {:>6.2}x",
        av_naive_ms / av_fast_ms.max(1e-9)
    );

    // --- Ingest: steady-state appends into the columnar ring at the
    // paper's retention (24 h of 10 s measurements).
    let appends: usize = if smoke {
        40_000
    } else if quick {
        200_000
    } else {
        2_000_000
    };
    let retain = 8640usize;
    let series_count = 4usize;
    let (_, ingest_ms, ingest_allocs) = timed_allocs(|| {
        let mut mem = nws_grid::Memory::new(nws_grid::MemoryConfig { retain });
        for i in 0..appends {
            let id = nws_grid::ResourceId((i % series_count) as u64);
            mem.append(id, (i / series_count) as f64 * 10.0, 0.5);
        }
        std::hint::black_box(mem.global_revision())
    });
    let ns_per_append = ingest_ms * 1e6 / appends as f64;
    println!(
        "  ingest {appends} appends x {series_count} series (retain {retain}): \
         {ingest_ms:.1} ms = {ns_per_append:.1} ns/append, {} allocs",
        ingest_allocs.calls
    );

    // --- Read path: an owned extract (one Vec<TimePoint> per access, as
    // the drivers used before the columnar store; rebuilt locally since
    // the shim left the Memory API) vs the borrowed-slice accessors.
    let profiles = HostProfile::all();
    let ids: Vec<nws_grid::ResourceId> = profiles
        .iter()
        .map(|p| {
            grid.registry()
                .lookup(p.name(), Metric::CpuAvailabilityHybrid)
                .expect("hybrid series registered")
        })
        .collect();
    let points_per_read = grid.memory().len(ids[0]);
    let reads = if smoke { 50 } else { 200 };
    // The owned extract shape is benchmarked on purpose: it IS the
    // pre-refactor reference the borrowed path is measured against.
    let owned_extract = |id: nws_grid::ResourceId| -> Vec<nws_timeseries::TimePoint> {
        let (times, values) = grid.memory().tail(id, usize::MAX);
        times
            .iter()
            .zip(values)
            .map(|(&t, &v)| nws_timeseries::TimePoint::new(t, v))
            .collect()
    };
    let (extract_sum, extract_ms, extract_allocs) = timed_allocs(|| {
        let mut acc = 0.0f64;
        for _ in 0..reads {
            for &id in &ids {
                let pts = owned_extract(id);
                acc += pts.last().map(|p| p.value).unwrap_or(0.0);
            }
        }
        acc
    });
    let (borrowed_sum, borrowed_ms, borrowed_allocs) = timed_allocs(|| {
        let mut acc = 0.0f64;
        for _ in 0..reads {
            for &id in &ids {
                acc += grid
                    .memory()
                    .with_series(id, |_, v| v.last().copied().unwrap_or(0.0));
            }
        }
        acc
    });
    assert_eq!(
        extract_sum.to_bits(),
        borrowed_sum.to_bits(),
        "read paths disagree"
    );
    let read_alloc_reduction = extract_allocs.calls as f64 / borrowed_allocs.calls.max(1) as f64;
    println!(
        "  read   {} series reads of {points_per_read} points: extract {extract_ms:.2} ms / \
         {} allocs, borrowed {borrowed_ms:.2} ms / {} allocs ({read_alloc_reduction:.0}x fewer)",
        reads * ids.len(),
        extract_allocs.calls,
        borrowed_allocs.calls
    );

    // --- Driver access patterns: the Fig. 2 / Fig. 3 / Table 4 kernel
    // pipelines over the warmed grid, measured three ways:
    //
    //   naive    extract() copies + naive kernels  (the pre-refactor shape)
    //   extract  extract() copies + fast kernels   (isolates kernel gains)
    //   current  borrowed slices  + fast kernels   (the production shape)
    //
    // `speedup` compares naive vs current end to end;
    // `access_alloc_reduction` compares extract vs current under the SAME
    // kernel, so it counts exactly the allocations the borrowed-slice
    // store eliminated (the fast kernels' own scratch buffers cancel out).
    let mut driver_entries = Vec::new();
    let mut driver_bench = |name: &str,
                            current: &mut dyn FnMut() -> usize,
                            extract_fast: &mut dyn FnMut() -> usize,
                            naive: &mut dyn FnMut() -> usize| {
        let (cur_out, current_ms, current_allocs) = timed_allocs(&mut *current);
        let (ext_out, extract_ms, extract_allocs) = timed_allocs(&mut *extract_fast);
        let (nav_out, naive_ms, naive_allocs) = timed_allocs(&mut *naive);
        std::hint::black_box((cur_out, ext_out, nav_out));
        let speedup = naive_ms / current_ms.max(1e-9);
        let access_allocs_saved = extract_allocs.calls.saturating_sub(current_allocs.calls);
        let access_bytes_saved = extract_allocs.bytes.saturating_sub(current_allocs.bytes);
        let access_alloc_reduction =
            extract_allocs.calls as f64 / current_allocs.calls.max(1) as f64;
        println!(
            "  {name:<6} naive {naive_ms:>8.3} ms / {:>4} allocs   current {current_ms:>8.3} ms \
             / {:>4} allocs   ({speedup:.2}x time; borrowed slices save {access_allocs_saved} \
             allocs / {access_bytes_saved} B = {access_alloc_reduction:.2}x)",
            naive_allocs.calls, current_allocs.calls
        );
        driver_entries.push(format!(
            "    {{ \"driver\": \"{name}\", \"n\": {points_per_read}, \
             \"naive_ms\": {naive_ms:.4}, \"naive_allocs\": {}, \"naive_bytes\": {}, \
             \"extract_ms\": {extract_ms:.4}, \"extract_allocs\": {}, \"extract_bytes\": {}, \
             \"current_ms\": {current_ms:.4}, \"current_allocs\": {}, \"current_bytes\": {}, \
             \"speedup\": {speedup:.3}, \"access_allocs_saved\": {access_allocs_saved}, \
             \"access_bytes_saved\": {access_bytes_saved}, \
             \"access_alloc_reduction\": {access_alloc_reduction:.3} }}",
            naive_allocs.calls,
            naive_allocs.bytes,
            extract_allocs.calls,
            extract_allocs.bytes,
            current_allocs.calls,
            current_allocs.bytes
        ));
    };
    let extracted_values = |id: nws_grid::ResourceId| -> Vec<f64> {
        let pts = owned_extract(id);
        pts.iter().map(|p| p.value).collect()
    };
    driver_bench(
        "fig2",
        &mut || {
            ids.iter()
                .map(|&id| {
                    grid.memory().with_series(id, |_, v| {
                        clamped_autocorrelation(v, lag)
                            .map(|r| r.len())
                            .unwrap_or(0)
                    })
                })
                .sum()
        },
        &mut || {
            ids.iter()
                .map(|&id| {
                    let v = extracted_values(id);
                    clamped_autocorrelation(&v, lag)
                        .map(|r| r.len())
                        .unwrap_or(0)
                })
                .sum()
        },
        &mut || {
            ids.iter()
                .map(|&id| {
                    let v = extracted_values(id);
                    let l = lag.min(v.len().saturating_sub(2));
                    autocovariance_naive(&v, l).map(|g| g.len()).unwrap_or(0)
                })
                .sum()
        },
    );
    driver_bench(
        "fig3",
        &mut || {
            ids.iter()
                .map(|&id| grid.memory().with_series(id, |_, v| pox_plot(v, 10).len()))
                .sum()
        },
        &mut || {
            ids.iter()
                .map(|&id| pox_plot(&extracted_values(id), 10).len())
                .sum()
        },
        &mut || {
            ids.iter()
                .map(|&id| pox_plot_naive(&extracted_values(id), 10).len())
                .sum()
        },
    );
    driver_bench(
        "table4",
        &mut || {
            ids.iter()
                .map(|&id| {
                    grid.memory().with_series(id, |_, v| {
                        let h = hurst_rs(v, 10).map(|e| e.points.len()).unwrap_or(0);
                        let a = aggregated_variance_hurst(v)
                            .map(|e| e.points.len())
                            .unwrap_or(0);
                        h + a
                    })
                })
                .sum()
        },
        &mut || {
            ids.iter()
                .map(|&id| {
                    let v = extracted_values(id);
                    let h = hurst_rs(&v, 10).map(|e| e.points.len()).unwrap_or(0);
                    let a = aggregated_variance_hurst(&v)
                        .map(|e| e.points.len())
                        .unwrap_or(0);
                    h + a
                })
                .sum()
        },
        &mut || {
            ids.iter()
                .map(|&id| {
                    let v = extracted_values(id);
                    let h = pox_plot_naive(&v, 10).len();
                    let a = aggregated_variance_hurst_naive(&v)
                        .map(|e| e.points.len())
                        .unwrap_or(0);
                    h + a
                })
                .sum()
        },
    );

    // --- Engine tick throughput: the deterministic event engine driving
    // the full six-host measurement pipeline (sensing → memory →
    // forecasts) across thread counts and batch windows. Every cell
    // commits identical events in identical order — the sweep measures
    // scheduling cost, not different work.
    let engine_steps: u64 = if smoke {
        120
    } else if quick {
        360
    } else {
        1_080
    };
    let engine_host_count = profiles.len() as u64;
    let prev_threads = nws_runtime::threads();
    let mut engine_entries = Vec::new();
    // Each cell warms its grid first (event arenas, measurement rings,
    // forecaster scratch all reach steady capacity), then times repeated
    // steady-state windows, keeping the best wall clock and the lowest
    // allocation count — the stable quantities a tracked baseline wants.
    let engine_reps = if smoke { 2 } else { 7 };
    for bench_threads in [1usize, 4] {
        for batch_slots in [1usize, 16, 64] {
            nws_runtime::set_threads(Some(bench_threads));
            let mut engine_grid = nws_grid::GridMonitor::new(
                &profiles,
                cfg.seed,
                nws_grid::GridMonitorConfig {
                    batch_slots,
                    ..nws_grid::GridMonitorConfig::default()
                },
            );
            engine_grid.run_steps(engine_steps.min(130));
            let warmed = engine_grid.slots();
            let mut tick_ms = f64::INFINITY;
            let mut steady_allocs = u64::MAX;
            for _ in 0..engine_reps {
                let (_, ms, allocs) = timed_allocs(|| {
                    engine_grid.run_steps(engine_steps);
                    engine_grid.slots()
                });
                tick_ms = tick_ms.min(ms);
                steady_allocs = steady_allocs.min(allocs.calls);
            }
            assert_eq!(
                engine_grid.slots(),
                warmed + engine_reps as u64 * engine_steps,
                "engine ran every slot"
            );
            let events = engine_steps * engine_host_count;
            let events_per_sec = events as f64 / (tick_ms / 1e3).max(1e-9);
            let allocs_per_event = steady_allocs as f64 / events as f64;
            println!(
                "  engine threads={bench_threads} batch={batch_slots:<2}: {events} events in \
                 {tick_ms:>7.2} ms = {events_per_sec:>8.0} events/s ({steady_allocs} allocs = \
                 {allocs_per_event:.3}/event)"
            );
            engine_entries.push(format!(
                "    {{ \"threads\": {bench_threads}, \"batch_slots\": {batch_slots}, \
                 \"slots\": {engine_steps}, \"hosts\": {engine_host_count}, \
                 \"events\": {events}, \"ms\": {tick_ms:.4}, \
                 \"events_per_sec\": {events_per_sec:.0}, \"allocs\": {steady_allocs}, \
                 \"allocs_per_event\": {allocs_per_event:.4} }}"
            ));
        }
    }
    nws_runtime::set_threads(Some(prev_threads));

    // --- Fleet scaling: the same engine over synthetic rosters from
    // tens to (full tier) a hundred thousand hosts, with hierarchical
    // best-host aggregation. Deterministic outputs land in the entries;
    // the standalone `repro fleet` experiment writes the identity CSV.
    let (fleet_entries, _fleet_csv) = fleet_sweep(cfg.seed, quick, smoke);

    // --- Forecast quality: the panel-v2 error tables (per-predictor
    // MAE/MSE) over the three prediction scenarios. Deterministic, not
    // timing — the artifact tracks accuracy next to speed.
    let (quality_entries, _quality_csv) = fleet_quality(cfg.seed, quick, smoke);

    // --- Durability: WAL replay and snapshot recovery over a journaled
    // reference run. Both recovery paths must land on the live run's
    // exact memory fingerprint; the artifact tracks how fast they get
    // there.
    let dur_steps: u64 = if smoke {
        120
    } else if quick {
        360
    } else {
        1_080
    };
    let mut dur_grid = nws_grid::GridMonitor::ucsd(cfg.seed);
    dur_grid.attach_journal(nws_grid::Wal::new());
    dur_grid.run_steps(dur_steps / 2);
    let dur_snap = dur_grid.memory().snapshot_bytes();
    dur_grid.run_steps(dur_steps - dur_steps / 2);
    let dur_wal = dur_grid
        .journal()
        .expect("journal attached")
        .bytes()
        .to_vec();
    let dur_golden = dur_grid.memory().fingerprint();
    let mem_config = nws_grid::GridMonitorConfig::default().memory;
    let genesis_ms = best_ms(3, || {
        nws_grid::recover_memory(mem_config, None, &dur_wal, |_| {})
    });
    let (genesis_mem, genesis_report) =
        nws_grid::recover_memory(mem_config, None, &dur_wal, |_| {});
    assert_eq!(
        genesis_mem.fingerprint(),
        dur_golden,
        "genesis recovery diverged from the live run"
    );
    let snap_ms = best_ms(3, || {
        nws_grid::recover_memory(mem_config, Some(&dur_snap), &dur_wal, |_| {})
    });
    let (snap_mem, snap_report) =
        nws_grid::recover_memory(mem_config, Some(&dur_snap), &dur_wal, |_| {});
    assert_eq!(
        snap_mem.fingerprint(),
        dur_golden,
        "snapshot recovery diverged from the live run"
    );
    let dur_records = genesis_report.replayed;
    let records_per_sec = dur_records as f64 / (genesis_ms / 1e3).max(1e-9);
    println!(
        "  durab  {dur_records} records / {} B journal: genesis {genesis_ms:>7.2} ms \
         ({records_per_sec:.0} rec/s), snapshot+suffix {snap_ms:>7.2} ms \
         (replayed {})",
        dur_wal.len(),
        snap_report.replayed
    );

    // --- Serving hot path: the in-memory transport (full codec, no
    // sockets) over the warmed grid, with the per-connection scratch
    // buffers and the revision-keyed query cache in play.
    let reqs = if smoke {
        300
    } else if quick {
        1_000
    } else {
        5_000
    };
    let hosts: Vec<String> = profiles.iter().map(|p| p.name().to_string()).collect();
    let mut transport = InMemoryTransport::new(Arc::new(Mutex::new(GridState::new(grid))));
    let (_, serve_ms, serve_allocs) = timed_allocs(|| {
        let mut ok = 0usize;
        for i in 0..reqs {
            let host = hosts[i % hosts.len()].clone();
            let req = match i % 4 {
                0 => Request::Snapshot,
                1 => Request::BestHost,
                2 => Request::Forecast { host },
                _ => Request::SeriesTail { host, n: 32 },
            };
            match transport.call(&req).expect("in-memory serve") {
                Response::Error(e) => panic!("serve error: {}", e.message),
                _ => ok += 1,
            }
        }
        std::hint::black_box(ok)
    });
    let us_per_request = serve_ms * 1e3 / reqs as f64;
    let allocs_per_request = serve_allocs.calls as f64 / reqs as f64;
    println!(
        "  serve  {reqs} in-memory requests: {serve_ms:.2} ms = {us_per_request:.2} us/req, \
         {allocs_per_request:.1} allocs/req"
    );

    // --- Assemble the artifact (hand-rolled JSON, fixed key set).
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema_version\": 1,");
    let _ = writeln!(json, "  \"tier\": \"{tier}\",");
    let _ = writeln!(json, "  \"threads\": {},", nws_runtime::threads());
    let _ = writeln!(json, "  \"acf\": [");
    let _ = writeln!(json, "{}", acf_entries.join(",\n"));
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"hurst\": {{");
    let _ = writeln!(
        json,
        "    \"pox_plot\": {{ \"n\": {hn}, \"min_d\": 10, \"naive_ms\": {pox_naive_ms:.4}, \
         \"fast_ms\": {pox_fast_ms:.4}, \"speedup\": {:.3}, \"points\": {pox_points} }},",
        pox_naive_ms / pox_fast_ms.max(1e-9)
    );
    let _ = writeln!(
        json,
        "    \"aggregated_variance\": {{ \"n\": {hn}, \"naive_ms\": {av_naive_ms:.4}, \
         \"fast_ms\": {av_fast_ms:.4}, \"speedup\": {:.3} }}",
        av_naive_ms / av_fast_ms.max(1e-9)
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(
        json,
        "  \"ingest\": {{ \"appends\": {appends}, \"series\": {series_count}, \
         \"retain\": {retain}, \"ms\": {ingest_ms:.4}, \"ns_per_append\": {ns_per_append:.2}, \
         \"allocs\": {} }},",
        ingest_allocs.calls
    );
    let _ = writeln!(
        json,
        "  \"memory_read\": {{ \"reads\": {}, \"points_per_read\": {points_per_read}, \
         \"extract_ms\": {extract_ms:.4}, \"extract_allocs\": {}, \
         \"borrowed_ms\": {borrowed_ms:.4}, \"borrowed_allocs\": {}, \
         \"alloc_reduction\": {read_alloc_reduction:.1} }},",
        reads * ids.len(),
        extract_allocs.calls,
        borrowed_allocs.calls
    );
    let _ = writeln!(json, "  \"drivers\": [");
    let _ = writeln!(json, "{}", driver_entries.join(",\n"));
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"engine\": [");
    let _ = writeln!(json, "{}", engine_entries.join(",\n"));
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"fleet\": [");
    let _ = writeln!(json, "{}", fleet_entries.join(",\n"));
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"forecast_quality\": [");
    let _ = writeln!(json, "{}", quality_entries.join(",\n"));
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"durability\": {{ \"steps\": {dur_steps}, \"wal_bytes\": {}, \
         \"records\": {dur_records}, \"snapshot_bytes\": {}, \
         \"genesis_recover_ms\": {genesis_ms:.4}, \"records_per_sec\": {records_per_sec:.0}, \
         \"snapshot_recover_ms\": {snap_ms:.4}, \"snapshot_replayed\": {} }},",
        dur_wal.len(),
        dur_snap.len(),
        snap_report.replayed
    );
    let _ = writeln!(
        json,
        "  \"serve\": {{ \"requests\": {reqs}, \"ms\": {serve_ms:.4}, \
         \"us_per_request\": {us_per_request:.3}, \"allocs_per_request\": {allocs_per_request:.2} }}"
    );
    json.push_str("}\n");
    json
}

/// Host counts swept by the fleet benchmark at each tier.
fn fleet_host_counts(quick: bool, smoke: bool) -> &'static [usize] {
    if smoke {
        &[10, 100, 1_000]
    } else if quick {
        &[10, 100, 1_000, 10_000]
    } else {
        &[10, 100, 1_000, 10_000, 100_000]
    }
}

/// Sweeps `FleetMonitor` across the tier's host counts, printing one row
/// per cell. Returns the JSON entries for the `fleet` section of
/// `BENCH_perf.json` plus a CSV of the deterministic columns only
/// (winners and fingerprints, no timings), which `repro fleet` writes so
/// CI can byte-diff runs at different thread counts.
fn fleet_sweep(seed: u64, quick: bool, smoke: bool) -> (Vec<String>, String) {
    use nws_grid::{FleetConfig, FleetMonitor};

    let reps = if smoke { 2 } else { 3 };
    let mut entries = Vec::new();
    let mut csv =
        String::from("hosts,racks,slots,events,best_host,best_forecast_bits,fingerprint\n");
    for &hosts in fleet_host_counts(quick, smoke) {
        // Warm past one retain window plus one ring doubling so the
        // measured window touches no growth paths: rings, arenas, and
        // the forecaster table are all at final capacity afterwards.
        let warmup: u64 = 130;
        let measure: u64 = (400_000 / hosts as u64).clamp(4, 400);
        let (mut fleet, _build_ms, build_allocs) = timed_allocs(|| {
            let mut fleet = FleetMonitor::new(FleetConfig {
                hosts,
                seed,
                ..FleetConfig::default()
            });
            fleet.run_steps(warmup);
            fleet
        });
        let bytes_per_host = build_allocs.bytes as f64 / hosts as f64;
        let mut cell_ms = f64::INFINITY;
        let mut steady_allocs = u64::MAX;
        for _ in 0..reps {
            let (_, ms, allocs) = timed_allocs(|| {
                fleet.run_steps(measure);
                fleet.slots()
            });
            cell_ms = cell_ms.min(ms);
            steady_allocs = steady_allocs.min(allocs.calls);
        }
        let events = hosts as u64 * measure;
        let events_per_sec = events as f64 / (cell_ms / 1e3).max(1e-9);
        let allocs_per_event = steady_allocs as f64 / events as f64;
        let (best_host, best_forecast) = fleet.best_host().expect("non-empty fleet");
        let fingerprint = fleet.fingerprint();
        let racks = fleet.rack_count();
        println!(
            "  fleet {hosts:>6} hosts / {racks:>4} racks: {events:>7} events in \
             {cell_ms:>8.2} ms = {events_per_sec:>9.0} events/s ({allocs_per_event:.3} \
             allocs/event, {bytes_per_host:.0} B/host, best {best_host} @ {best_forecast:.4})"
        );
        entries.push(format!(
            "    {{ \"hosts\": {hosts}, \"racks\": {racks}, \"slots\": {measure}, \
             \"events\": {events}, \"ms\": {cell_ms:.4}, \
             \"events_per_sec\": {events_per_sec:.0}, \"allocs\": {steady_allocs}, \
             \"allocs_per_event\": {allocs_per_event:.4}, \
             \"build_bytes_per_host\": {bytes_per_host:.0}, \
             \"best_host\": {best_host}, \"best_forecast\": {best_forecast:.6}, \
             \"fingerprint\": \"{fingerprint:#018x}\" }}"
        ));
        let _ = writeln!(
            csv,
            "{hosts},{racks},{},{},{best_host},{:#018x},{fingerprint:#018x}",
            fleet.slots(),
            fleet.events(),
            best_forecast.to_bits(),
        );
    }
    (entries, csv)
}

/// The standalone `fleet` experiment: runs the sweep at the current
/// thread setting and writes the deterministic columns to
/// `results/fleet_sweep.csv`, the artifact CI diffs across thread counts.
/// With `--quality` it runs the forecast-quality sweep instead and
/// writes `results/fleet_quality.csv`.
fn run_fleet(seed: u64, quick: bool, smoke: bool, quality: bool) {
    if quality {
        println!(
            "\n== fleet forecast quality sweep (threads={}) ==",
            nws_runtime::threads()
        );
        let (_entries, csv) = fleet_quality(seed, quick, smoke);
        write_artifact("fleet_quality.csv", &csv);
        return;
    }
    println!(
        "\n== fleet scaling sweep (threads={}) ==",
        nws_runtime::threads()
    );
    let (_entries, csv) = fleet_sweep(seed, quick, smoke);
    write_artifact("fleet_sweep.csv", &csv);
}

/// The forecast-quality sweep behind `repro fleet --quality` and the
/// `forecast_quality` section of `BENCH_perf.json`: the full predictor
/// panel (dynamic-selection members plus the ARMA pair) races over
/// three prediction scenarios, reporting Table 2/3-shaped per-predictor
/// MAE/MSE rows.
///
/// 1. `synthetic-ar1` — the fleet's AR(1)-style synthetic rosters, the
///    panel scored on every host of an `Extended`-panel fleet;
/// 2. `trace-mixture` — the same fleet replaying UCSD availability
///    traces (Eq. 1 of the simulated workstation mixes) under a seeded
///    fault plan, so the panel is scored across gaps;
/// 3. `transfer-time` — the Vazhkudai–Schopf scenario: predicting
///    file-transfer durations over monitored links, where regressing on
///    bandwidth *and* endpoint CPU beats bandwidth alone.
///
/// Every number is a pure function of the seed — byte-identical at any
/// thread count — so `results/fleet_quality.csv` is CI-diffable.
fn fleet_quality(seed: u64, quick: bool, smoke: bool) -> (Vec<String>, String) {
    use nws_faults::{FaultPlan, FaultRates};
    use nws_forecast::PanelSpec;
    use nws_grid::{FleetConfig, FleetMonitor, FleetPanel, FleetRoster};
    use nws_net::TransferScenario;
    use nws_sim::ucsd_availability_traces;

    let (hosts, steps) = if smoke {
        (32usize, 160u64)
    } else if quick {
        (64, 240)
    } else {
        (128, 480)
    };
    let transfers = if smoke {
        160
    } else if quick {
        320
    } else {
        640
    };
    let panel_config = |hosts: usize| FleetConfig {
        hosts,
        seed,
        panel: FleetPanel::Bank(PanelSpec::Extended),
        ..FleetConfig::default()
    };
    let mut scenarios: Vec<(&'static str, Vec<nws_forecast::ErrorRow>)> = Vec::new();

    // Scenario 1: synthetic AR(1)-style rosters, fault-free.
    let mut fleet = FleetMonitor::with_roster(
        panel_config(hosts),
        FleetRoster::Synthetic,
        &FaultPlan::none(),
    );
    fleet.run_steps(steps);
    scenarios.push(("synthetic-ar1", fleet.quality_table()));

    // Scenario 2: hosts replay UCSD availability traces at seeded phase
    // offsets, under a fleet-scale fault plan (outages and lost
    // measurements become forecaster gaps).
    let traces = ucsd_availability_traces(seed ^ 0x7ACE, steps as usize + 64);
    let mut fleet = FleetMonitor::with_roster(
        panel_config(hosts),
        FleetRoster::TraceMixture(traces),
        &FaultPlan::seeded(seed ^ 0xFA17, FaultRates::uniform(0.05)),
    );
    fleet.run_steps(steps);
    let gaps = fleet.gaps();
    assert!(gaps > 0, "the fault plan must produce gaps at fleet scale");
    scenarios.push(("trace-mixture", fleet.quality_table()));

    // Scenario 3: transfer times over the demo link grid, each link's
    // endpoint following its own availability trace.
    let mut links = LinkMonitor::demo_grid(seed);
    let cpu = ucsd_availability_traces(seed ^ 0x00C4, transfers);
    let mut transfer = TransferScenario::new(4.0 * 1024.0 * 1024.0, 30);
    let mut cpu_steps: Vec<_> = cpu.iter().map(|trace| trace.iter()).collect();
    for _ in 0..transfers {
        let samples = links.probe_cycle();
        for (steps, sample) in cpu_steps.iter_mut().zip(samples) {
            let availability = *steps.next().expect("trace covers every cycle");
            if let Some(s) = sample {
                transfer.observe(s.bandwidth, availability);
            }
        }
    }
    scenarios.push(("transfer-time", transfer.error_table()));

    println!(
        "  {hosts} hosts x {steps} slots per fleet scenario, {} gap(s) under faults, \
         {} transfers over {} links",
        gaps,
        transfer.observations(),
        links.len()
    );
    let mut entries = Vec::new();
    let mut csv = String::from("scenario,predictor,scored,mae,mse\n");
    println!(
        "  {:<14} {:<22} {:>7} {:>10} {:>10}",
        "scenario", "predictor", "scored", "mae", "mse"
    );
    for (name, rows) in &scenarios {
        assert!(!rows.is_empty(), "{name} produced no error rows");
        for row in rows {
            let (mae, mse) = if row.scored == 0 {
                (0.0, 0.0)
            } else {
                (row.mae(), row.mse())
            };
            println!(
                "  {name:<14} {:<22} {:>7} {mae:>10.4} {mse:>10.4}",
                row.name, row.scored
            );
            // Shortest-round-trip float formatting: full precision, and
            // deterministic, so the CSV byte-diffs across thread counts.
            let _ = writeln!(csv, "{name},{},{},{mae},{mse}", row.name, row.scored);
            entries.push(format!(
                "    {{ \"scenario\": \"{name}\", \"predictor\": \"{}\", \"scored\": {}, \
                 \"mae\": {mae:.6}, \"mse\": {mse:.6} }}",
                row.name, row.scored
            ));
        }
    }
    (entries, csv)
}

/// The `durability` experiment: a crash-recovery sweep plus a serving
/// availability phase.
///
/// Phase 1 grows a journaled reference run, then kills it at fixed
/// fractions and at every cut a seeded [`nws_faults::CrashPlan`]
/// produces — clean kills, torn final records, truncated snapshots — and
/// proves each
/// recovery (replay the valid prefix, resume over the rest of the
/// journal) lands on the live run's exact memory fingerprint. The
/// deterministic columns (cut offsets, bytes kept, records replayed,
/// fingerprints) go to `results/durability_sweep.csv`, which CI
/// byte-diffs across thread counts; recovery wall-clock is printed only.
///
/// Phase 2 spins up a TCP primary, replicates its journal into a
/// [`nws_server::ReplicaState`] over the wire protocol, serves the
/// replica on a second socket, and drives a
/// [`nws_server::FailoverClient`] through a mid-stream
/// primary kill: every request must be answered, and the failover count
/// and post-kill latency are reported.
fn run_durability(cfg: &ExperimentConfig, quick: bool, smoke: bool) {
    use nws_faults::{CrashKind, CrashPlan};
    use nws_grid::wal::replay;
    use nws_grid::{recover_memory, GridMonitor, GridMonitorConfig, RecoverySource, Wal};
    use nws_server::{
        ClientConfig, FailoverClient, GridState, NwsClient, NwsServer, ReplicaState, ServerConfig,
        Transport,
    };
    use std::time::Instant;

    let steps: u64 = if smoke {
        120
    } else if quick {
        240
    } else {
        720
    };
    let crash_rounds = if smoke { 6 } else { 12 };
    println!(
        "\n== durability: crash-recovery sweep ({steps} slots, {} hosts, \
         {crash_rounds} seeded crashes) ==",
        HostProfile::all().len()
    );

    // The golden journaled run, with a snapshot captured halfway.
    let mut gm = GridMonitor::ucsd(cfg.seed);
    gm.attach_journal(Wal::new());
    gm.run_steps(steps / 2);
    let snapshot = gm.memory().snapshot_bytes();
    gm.run_steps(steps - steps / 2);
    let golden = gm.memory().fingerprint();
    let wal = gm.journal().expect("journal attached").bytes().to_vec();
    let mem_config = GridMonitorConfig::default().memory;

    // The crash schedule: fixed kill fractions plus the seeded plan.
    let mut cuts: Vec<(String, &'static str, usize)> = [0.25f64, 0.50, 0.99]
        .iter()
        .map(|&f| {
            (
                format!("fraction_{f:.2}"),
                "clean_kill",
                (wal.len() as f64 * f) as usize,
            )
        })
        .collect();
    let mut plan = CrashPlan::seeded(cfg.seed ^ 0xC4A5);
    for i in 0..crash_rounds {
        let event = plan.next_event();
        let kind = match event.kind {
            CrashKind::CleanKill => "clean_kill",
            CrashKind::TornRecord => "torn_record",
            CrashKind::TruncatedSnapshot => "truncated_snapshot",
        };
        cuts.push((format!("plan_{i}"), kind, event.cut_at(wal.len())));
    }
    cuts.push(("snapshot_suffix".to_string(), "snapshot", wal.len()));

    let mut csv = String::from(
        "scenario,kind,cut_bytes,valid_bytes,replayed,torn_tail,source,fingerprint,matches\n",
    );
    let mut worst_recover_ms = 0.0f64;
    for (scenario, kind, cut) in &cuts {
        let t0 = Instant::now();
        let (mut mem, report) = match *kind {
            // A half-written snapshot: recovery must reject it and fall
            // back to genesis replay of the full journal.
            "truncated_snapshot" => {
                let snap_cut = (*cut).min(snapshot.len().saturating_sub(1));
                recover_memory(mem_config, Some(&snapshot[..snap_cut]), &wal, |_| {})
            }
            // An intact snapshot plus the journal suffix.
            "snapshot" => recover_memory(mem_config, Some(&snapshot), &wal, |_| {}),
            // A kill at `cut`: replay whatever survived, torn tail and
            // all, then resume over the rest of the golden journal (the
            // deterministic restart re-run).
            _ => recover_memory(mem_config, None, &wal[..*cut], |_| {}),
        };
        let torn = report.tail_error.is_some();
        if matches!(*kind, "clean_kill" | "torn_record") {
            let resumed = replay(&wal, report.valid_wal_len, |rec| mem.apply(rec));
            assert!(resumed.error.is_none(), "golden journal replays cleanly");
        }
        let recover_ms = t0.elapsed().as_secs_f64() * 1e3;
        worst_recover_ms = worst_recover_ms.max(recover_ms);
        let fingerprint = mem.fingerprint();
        let matches = fingerprint == golden;
        assert!(
            matches,
            "{scenario} ({kind}, cut {cut}) did not recover the golden state"
        );
        let source = match report.source {
            RecoverySource::Genesis => "genesis",
            RecoverySource::Snapshot { .. } => "snapshot",
        };
        println!(
            "  {scenario:<16} {kind:<18} cut {cut:>7} B -> kept {:>7} B, replayed {:>5}, \
             {source:<8} {recover_ms:>7.2} ms  ok",
            report.valid_wal_len, report.replayed
        );
        let _ = writeln!(
            csv,
            "{scenario},{kind},{cut},{},{},{torn},{source},{fingerprint:#018x},{matches}",
            report.valid_wal_len, report.replayed
        );
    }
    write_artifact("durability_sweep.csv", &csv);
    println!(
        "  all {} recoveries bit-identical (golden {golden:#018x}); worst recovery \
         {worst_recover_ms:.2} ms",
        cuts.len()
    );

    // --- Phase 2: serving availability through replica churn and a
    // primary kill. A seeded CrashPlan places a replica kill inside the
    // first half of the request stream; the replica restarts a window
    // later (fresh state, re-synced over the wire, fresh socket), and
    // the primary dies at the halfway mark — so the failover target is
    // the *restarted* replica. Every request must still be answered.
    let requests = if smoke { 40 } else { 200 };
    let mut churn = CrashPlan::seeded(cfg.seed ^ 0x5EC0);
    let replica_kill_at = requests / 8 + churn.next_event().cut_at(requests / 8);
    let replica_restart_at = replica_kill_at + requests / 8;
    let primary_kill_at = requests / 2;
    assert!(
        replica_restart_at < primary_kill_at,
        "the replica must be back before the primary dies"
    );
    println!(
        "\n== durability: failover availability ({requests} requests; replica killed at \
         {replica_kill_at}, restarted at {replica_restart_at}, primary killed at \
         {primary_kill_at}) =="
    );
    let mut gm = GridMonitor::ucsd(cfg.seed);
    gm.attach_journal(Wal::new());
    gm.run_steps(steps.min(240));
    let hosts: Vec<String> = HostProfile::all()
        .iter()
        .map(|p| p.name().to_string())
        .collect();
    let host_refs: Vec<&str> = HostProfile::all().iter().map(|p| p.name()).collect();
    let expected_fingerprint = gm.memory().fingerprint();

    let mut primary =
        NwsServer::spawn(GridState::new(gm), ServerConfig::default()).expect("bind primary");
    let mut feed = NwsClient::connect(primary.addr(), ClientConfig::default()).expect("connect");
    let mut replica = ReplicaState::new(&host_refs, GridMonitorConfig::default());
    let sync_t0 = Instant::now();
    replica.sync(&mut feed).expect("replicate over tcp");
    let sync_ms = sync_t0.elapsed().as_secs_f64() * 1e3;
    drop(feed);
    assert!(replica.synced(), "replica caught up to the primary");
    assert_eq!(
        replica.memory().fingerprint(),
        expected_fingerprint,
        "replica is byte-identical to the primary"
    );
    println!(
        "  replica caught up over the wire in {sync_ms:.2} ms ({} journal bytes applied)",
        replica.applied()
    );
    let mut replica_server =
        Some(NwsServer::spawn(replica, ServerConfig::default()).expect("bind replica"));

    let mut client = FailoverClient::new(
        &[
            primary.addr(),
            replica_server.as_ref().expect("just spawned").addr(),
        ],
        ClientConfig {
            io_timeout: std::time::Duration::from_millis(500),
            retries: 0,
            backoff_base: std::time::Duration::from_millis(1),
            backoff_cap: std::time::Duration::from_millis(5),
            ..ClientConfig::default()
        },
    );
    let mut served = 0usize;
    let mut failover_latency_ms = 0.0f64;
    let mut restart_sync_ms = 0.0f64;
    for i in 0..requests {
        if i == replica_kill_at {
            if let Some(mut dying) = replica_server.take() {
                dying.shutdown();
            }
        }
        if i == replica_restart_at {
            // The restarted replica is a blank state: it must re-sync
            // over the wire from the still-live primary, land on the
            // same fingerprint, and come up on a fresh socket that the
            // operator repoints the client at.
            let t0 = Instant::now();
            let mut feed =
                NwsClient::connect(primary.addr(), ClientConfig::default()).expect("reconnect");
            let mut fresh = ReplicaState::new(&host_refs, GridMonitorConfig::default());
            fresh.sync(&mut feed).expect("re-sync restarted replica");
            restart_sync_ms = t0.elapsed().as_secs_f64() * 1e3;
            assert!(fresh.synced(), "restarted replica caught up");
            assert_eq!(
                fresh.memory().fingerprint(),
                expected_fingerprint,
                "restarted replica is byte-identical to the primary"
            );
            let server =
                NwsServer::spawn(fresh, ServerConfig::default()).expect("bind restarted replica");
            client.set_endpoint(1, server.addr());
            replica_server = Some(server);
        }
        if i == primary_kill_at {
            primary.shutdown();
        }
        let host = &hosts[i % hosts.len()];
        let t0 = Instant::now();
        client.forecast(host).expect("every request is served");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if i == primary_kill_at {
            failover_latency_ms = ms;
        }
        served += 1;
    }
    assert_eq!(served, requests, "availability through the churn is 100%");
    assert!(
        client.failovers() >= 1,
        "the primary kill forced a failover"
    );
    println!(
        "  served {served}/{requests} requests through the churn; {} failover(s), \
         replica restart re-sync {restart_sync_ms:.2} ms, first post-kill request \
         {failover_latency_ms:.2} ms",
        client.failovers()
    );
    let mut avail_csv = String::from(
        "requests,served,failovers,replica_kill_at,replica_restart_at,primary_kill_at,\
         replica_synced\n",
    );
    let _ = writeln!(
        avail_csv,
        "{requests},{served},{},{replica_kill_at},{replica_restart_at},{primary_kill_at},true",
        client.failovers()
    );
    write_artifact("durability_availability.csv", &avail_csv);
}

/// The `load` experiment: the coordinated-omission-free serving
/// benchmark behind the committed `BENCH_serve.json`.
///
/// Phase 0 fingerprints the seeded inputs (arrival schedules, request
/// mix, a serialized in-memory replay) into `results/load_sweep.csv` —
/// deterministic columns only, so CI can byte-diff the file across
/// thread counts (measured `soak_series` rows are the one exception;
/// CI filters them by prefix). Phases 1-3 then measure: an open-loop
/// rate sweep over the threaded TCP server, the epoll reactor, and
/// the in-memory transport (latency charged from each request's
/// precomputed virtual arrival, so server backlog cannot hide), a
/// closed-loop comparison at the same mix, and a geometric binary
/// search for the max sustainable rate under a p99 cap. Phase 4 soaks
/// the same open-loop schedule into fixed time windows (a p50/p99
/// series over time), phase 5 sweeps the connection-churn rate
/// (connects/second, the accept-path axis), and phase 6 piles idle
/// connections onto the reactor until the threaded server's cap looks
/// quaint, recording p99 versus connection count. Phase 7 turns the
/// adversarial personas loose on a tight-deadline server and asserts
/// every defense trips; phase 8 replays the mix through a
/// [`nws_server::FailoverClient`] while a seeded
/// [`nws_faults::CrashPlan`] picks the moment the
/// primary dies, reporting availability and post-kill latency. All
/// wall-clock numbers go to the JSON (and stdout) only.
///
/// `transport_axis` ("threaded", "reactor", or "all") selects which
/// socket transports phases 1-5 drive; the in-memory baseline always
/// runs.
fn run_load(cfg: &ExperimentConfig, quick: bool, smoke: bool, transport_axis: &str) {
    use nws_faults::CrashPlan;
    use nws_grid::{GridMonitorConfig, Wal};
    use nws_loadgen::{
        churn, closed_loop, fnv1a, max_sustainable_rps, open_loop, personas, soak, ArrivalSchedule,
        ChurnConnect, InterArrival, LatencyHistogram, MixRatios, RateSearch, RequestStream,
    };
    use nws_server::{
        ClientConfig, FailoverClient, GridState, InMemoryTransport, NwsClient, NwsServer,
        ReactorConfig, ReactorServer, ReplicaState, ServerConfig, Transport,
    };
    use nws_wire::{ErrorCode, Request, Response};
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};

    struct Tier {
        name: &'static str,
        warm_steps: u64,
        /// Offered rates for the open-loop sweep, requests/second.
        rates: &'static [u64],
        /// Requests per open-loop point.
        n_open: usize,
        workers: usize,
        /// Requests per worker in the closed-loop phase.
        n_closed_per_worker: usize,
        search_iters: u32,
        search_n: usize,
        failover_requests: usize,
        /// Soak window width; the schedule length over this gives the
        /// number of p50/p99 rows in the time series.
        soak_window_ms: u64,
        /// Offered connection-arrival rates for the churn sweep,
        /// connects/second.
        churn_cps: &'static [u64],
        /// Connection arrivals per churn point.
        churn_conns: usize,
        /// Idle connections the reactor must hold in phase 6.
        conc_target: usize,
        /// Probe requests per concurrency milestone.
        conc_probe: usize,
    }
    let tier = if smoke {
        Tier {
            name: "smoke",
            warm_steps: 60,
            rates: &[1000, 4000],
            n_open: 400,
            workers: 8,
            n_closed_per_worker: 200,
            search_iters: 3,
            search_n: 200,
            failover_requests: 40,
            soak_window_ms: 25,
            churn_cps: &[500],
            churn_conns: 80,
            conc_target: 150,
            conc_probe: 100,
        }
    } else if quick {
        Tier {
            name: "quick",
            warm_steps: 120,
            rates: &[1000, 4000, 16000],
            n_open: 800,
            workers: 8,
            n_closed_per_worker: 400,
            search_iters: 5,
            search_n: 400,
            failover_requests: 80,
            soak_window_ms: 50,
            churn_cps: &[250, 1000],
            churn_conns: 200,
            conc_target: 400,
            conc_probe: 200,
        }
    } else {
        Tier {
            name: "full",
            warm_steps: 240,
            rates: &[1000, 4000, 16000, 64000],
            n_open: 2500,
            workers: 8,
            n_closed_per_worker: 1000,
            search_iters: 7,
            search_n: 1000,
            failover_requests: 200,
            soak_window_ms: 125,
            churn_cps: &[250, 1000],
            churn_conns: 400,
            conc_target: 1000,
            conc_probe: 300,
        }
    };
    let mix = MixRatios::default();
    let tail_n = 16u32;
    let batch_size = 4usize;
    let heavy_shape = 1.5f64;
    println!(
        "\n== load: open-loop serving benchmark (tier {}, {} workers, rates {:?} rps) ==",
        tier.name, tier.workers, tier.rates
    );

    let hosts: Vec<String> = HostProfile::all()
        .iter()
        .map(|p| p.name().to_string())
        .collect();
    let stream_seed = |label: &str| cfg.seed ^ fnv1a(label.as_bytes());
    let us = |ns: u64| ns as f64 / 1e3;

    // --- Phase 0: deterministic input fingerprints -> load_sweep.csv.
    // Everything in this file is a pure function of the seed; CI diffs
    // it byte-for-byte across --threads 1 and 4.
    let mut csv = String::from("phase,name,n,detail,fingerprint\n");
    let probe_rate = tier.rates[tier.rates.len() / 2];
    for dist in [
        InterArrival::poisson(probe_rate as f64),
        InterArrival::heavy_tail(probe_rate as f64, heavy_shape),
    ] {
        let sched = ArrivalSchedule::generate(dist, stream_seed(dist.label()), tier.n_open);
        let _ = writeln!(
            csv,
            "arrival,{},{},rate={probe_rate},{:#018x}",
            dist.label(),
            sched.len(),
            sched.fingerprint()
        );
    }
    {
        let mut stream = RequestStream::new(stream_seed("mix"), &hosts, mix, tail_n, batch_size);
        stream.take(tier.n_open);
        let detail = stream
            .counts()
            .iter()
            .map(|(kind, n)| format!("{}={n}", kind.label()))
            .collect::<Vec<_>>()
            .join(";");
        let _ = writeln!(
            csv,
            "mix,stream,{},{detail},{:#018x}",
            stream.drawn(),
            stream.fingerprint()
        );
    }
    let replay_k = 256usize;
    let replay_fp = {
        // A serialized replay: the exact response bytes for a mixed
        // request sequence against an identically warmed grid. Catches
        // any thread-count leak anywhere in sense -> store -> serve.
        let mut grid = nws_grid::GridMonitor::ucsd(cfg.seed);
        grid.run_steps(tier.warm_steps);
        let mut t = InMemoryTransport::new(Arc::new(Mutex::new(GridState::new(grid))));
        let mut stream = RequestStream::new(stream_seed("replay"), &hosts, mix, tail_n, batch_size);
        let mut fp = fnv1a(&[]);
        for _ in 0..replay_k {
            let (_, bytes) = t
                .call_raw(&stream.next_request())
                .expect("in-memory replay");
            let mut chained = fp.to_le_bytes().to_vec();
            chained.extend_from_slice(&bytes);
            fp = fnv1a(&chained);
        }
        let _ = writeln!(
            csv,
            "replay,in_memory,{replay_k},warm={},{fp:#018x}",
            tier.warm_steps
        );
        fp
    };

    // --- Phase 1: open-loop rate sweep over the transports. One
    // warmed grid behind the threaded TCP server, identically warmed
    // twins behind the epoll reactor and the in-memory transport.
    let socket_transports: &[&str] = match transport_axis {
        "threaded" => &["tcp"],
        "reactor" => &["reactor"],
        _ => &["tcp", "reactor"],
    };
    let mut sweep_transports: Vec<&str> = socket_transports.to_vec();
    sweep_transports.push("in_memory");
    let load_server_config = ServerConfig {
        // Generous: probe transports from consecutive search
        // iterations overlap while old sockets drain.
        max_connections: 64,
        ..ServerConfig::default()
    };
    let mut grid_tcp = nws_grid::GridMonitor::ucsd(cfg.seed);
    grid_tcp.run_steps(tier.warm_steps);
    let mut grid_mem = nws_grid::GridMonitor::ucsd(cfg.seed);
    grid_mem.run_steps(tier.warm_steps);
    let mut grid_reactor = nws_grid::GridMonitor::ucsd(cfg.seed);
    grid_reactor.run_steps(tier.warm_steps);
    let server =
        NwsServer::spawn(GridState::new(grid_tcp), load_server_config).expect("bind localhost");
    let addr = server.addr();
    let reactor_server = ReactorServer::spawn(
        GridState::new(grid_reactor),
        ReactorConfig {
            server: load_server_config,
            ..ReactorConfig::default()
        },
    )
    .expect("bind reactor");
    let raddr = reactor_server.addr();
    let mem_state = Arc::new(Mutex::new(GridState::new(grid_mem)));
    let connect_tcp = |_: usize| -> NwsClient {
        NwsClient::connect(addr, ClientConfig::default()).expect("connect load worker")
    };
    let connect_reactor = |_: usize| -> NwsClient {
        NwsClient::connect(raddr, ClientConfig::default()).expect("connect reactor worker")
    };
    let connect_mem = |_: usize| InMemoryTransport::new(Arc::clone(&mem_state));

    // Byte-identity pin: the phase-0 replay stream again, this time
    // through the reactor's sockets. The chained fingerprint must match
    // the in-memory row exactly — one wire image, whatever the
    // transport — and the row lands in the CSV, so CI's cross-thread
    // byte-diff also pins it across event-loop counts.
    {
        let mut t = connect_reactor(0);
        let mut stream = RequestStream::new(stream_seed("replay"), &hosts, mix, tail_n, batch_size);
        let mut fp = fnv1a(&[]);
        for _ in 0..replay_k {
            let (_, bytes) = t.call_raw(&stream.next_request()).expect("reactor replay");
            let mut chained = fp.to_le_bytes().to_vec();
            chained.extend_from_slice(&bytes);
            fp = fnv1a(&chained);
        }
        assert_eq!(
            fp, replay_fp,
            "reactor reply bytes diverge from the in-memory transport"
        );
        let _ = writeln!(
            csv,
            "replay,reactor,{replay_k},warm={},{fp:#018x}",
            tier.warm_steps
        );
    }

    let mut open_entries: Vec<String> = Vec::new();
    println!(
        "  open loop ({} requests/point, latency from virtual arrival):",
        tier.n_open
    );
    for transport in sweep_transports.iter().copied() {
        let mut dists: Vec<(u64, InterArrival)> = tier
            .rates
            .iter()
            .map(|&r| (r, InterArrival::poisson(r as f64)))
            .collect();
        dists.push((
            probe_rate,
            InterArrival::heavy_tail(probe_rate as f64, heavy_shape),
        ));
        for (rate, dist) in dists {
            let label = format!("{transport}_{}_{rate}", dist.label());
            let sched = ArrivalSchedule::generate(dist, stream_seed(dist.label()), tier.n_open);
            let mut stream =
                RequestStream::new(stream_seed(&label), &hosts, mix, tail_n, batch_size);
            let requests = stream.take(tier.n_open);
            let outcome = match transport {
                "tcp" => {
                    let transports: Vec<NwsClient> = (0..tier.workers).map(connect_tcp).collect();
                    open_loop(transports, &sched, &requests)
                }
                "reactor" => {
                    let transports: Vec<NwsClient> =
                        (0..tier.workers).map(connect_reactor).collect();
                    open_loop(transports, &sched, &requests)
                }
                _ => {
                    let transports: Vec<InMemoryTransport> =
                        (0..tier.workers).map(connect_mem).collect();
                    open_loop(transports, &sched, &requests)
                }
            };
            assert_eq!(outcome.errors, 0, "{label}: errors under load");
            assert_eq!(
                outcome.completed, tier.n_open as u64,
                "{label}: dropped requests"
            );
            let h = &outcome.hist;
            println!(
                "    {label:<28} offered {rate:>6} rps, achieved {:>8.0} rps, \
                 latency us: p50 {:>9.1} p99 {:>9.1} p999 {:>9.1} max {:>9.1}",
                outcome.achieved_rps(),
                us(h.p50()),
                us(h.p99()),
                us(h.p999()),
                us(h.max_ns()),
            );
            open_entries.push(format!(
                "    {{ \"transport\": \"{transport}\", \"dist\": \"{}\", \
                 \"offered_rps\": {rate}, \"requests\": {}, \
                 \"achieved_rps\": {:.1}, \"p50_us\": {:.2}, \"p99_us\": {:.2}, \
                 \"p999_us\": {:.2}, \"max_us\": {:.2} }}",
                dist.label(),
                outcome.completed,
                outcome.achieved_rps(),
                us(h.p50()),
                us(h.p99()),
                us(h.p999()),
                us(h.max_ns()),
            ));
            let _ = writeln!(
                csv,
                "open_loop,{label},{},sched={:#018x},{:#018x}",
                tier.n_open,
                sched.fingerprint(),
                stream.fingerprint()
            );
        }
    }

    // --- Phase 2: closed-loop comparison at the same mix. The
    // self-throttling baseline: the gap between these latencies and the
    // open-loop curve at a comparable achieved rate is the delay
    // coordinated omission used to hide.
    let n_closed = tier.workers * tier.n_closed_per_worker;
    let mut closed_entries: Vec<String> = Vec::new();
    println!("  closed loop ({n_closed} requests, latency from send):");
    for transport in sweep_transports.iter().copied() {
        let label = format!("closed_{transport}");
        let mut stream = RequestStream::new(stream_seed(&label), &hosts, mix, tail_n, batch_size);
        let requests = stream.take(n_closed);
        let outcome = match transport {
            "tcp" => {
                let transports: Vec<NwsClient> = (0..tier.workers).map(connect_tcp).collect();
                closed_loop(transports, &requests)
            }
            "reactor" => {
                let transports: Vec<NwsClient> = (0..tier.workers).map(connect_reactor).collect();
                closed_loop(transports, &requests)
            }
            _ => {
                let transports: Vec<InMemoryTransport> =
                    (0..tier.workers).map(connect_mem).collect();
                closed_loop(transports, &requests)
            }
        };
        assert_eq!(outcome.errors, 0, "{label}: errors under load");
        let h = &outcome.hist;
        println!(
            "    {label:<28} achieved {:>8.0} rps, latency us: p50 {:>9.1} \
             p99 {:>9.1} p999 {:>9.1} max {:>9.1}",
            outcome.achieved_rps(),
            us(h.p50()),
            us(h.p99()),
            us(h.p999()),
            us(h.max_ns()),
        );
        closed_entries.push(format!(
            "    {{ \"transport\": \"{transport}\", \"requests\": {}, \
             \"achieved_rps\": {:.1}, \"p50_us\": {:.2}, \"p99_us\": {:.2}, \
             \"p999_us\": {:.2}, \"max_us\": {:.2} }}",
            outcome.completed,
            outcome.achieved_rps(),
            us(h.p50()),
            us(h.p99()),
            us(h.p999()),
            us(h.max_ns()),
        ));
        let _ = writeln!(
            csv,
            "closed_loop,{transport},{n_closed},workers={},{:#018x}",
            tier.workers,
            stream.fingerprint()
        );
    }

    // --- Phase 3: max sustainable rate, geometric bisection under a
    // p99 cap. Rates probed depend on measured behavior, so this phase
    // reports to JSON/stdout only — nothing lands in the CSV.
    let search = RateSearch {
        lo_rps: 500.0,
        hi_rps: 131_072.0,
        iterations: tier.search_iters,
        requests: tier.search_n,
        p99_cap: Duration::from_millis(20),
        min_goodput: 0.9,
    };
    let mut search_entries: Vec<String> = Vec::new();
    println!(
        "  max sustainable rps (p99 cap {} ms, goodput floor {:.0}%):",
        search.p99_cap.as_millis(),
        search.min_goodput * 100.0
    );
    let mut best_by_transport: Vec<(&str, f64)> = Vec::new();
    for transport in sweep_transports.iter().copied() {
        let label = format!("search_{transport}");
        let mut stream = RequestStream::new(stream_seed(&label), &hosts, mix, tail_n, batch_size);
        let mut make_requests = |n: usize| stream.take(n);
        let (best, probes) = match transport {
            "tcp" => max_sustainable_rps(
                connect_tcp,
                tier.workers,
                cfg.seed,
                &mut make_requests,
                search,
            ),
            "reactor" => max_sustainable_rps(
                connect_reactor,
                tier.workers,
                cfg.seed,
                &mut make_requests,
                search,
            ),
            _ => max_sustainable_rps(
                connect_mem,
                tier.workers,
                cfg.seed,
                &mut make_requests,
                search,
            ),
        };
        best_by_transport.push((transport, best));
        let probe_json = probes
            .iter()
            .map(|p| {
                format!(
                    "{{ \"offered_rps\": {:.0}, \"achieved_rps\": {:.0}, \
                     \"p99_us\": {:.1}, \"sustainable\": {} }}",
                    p.offered_rps,
                    p.achieved_rps,
                    us(p.p99_ns),
                    p.sustainable
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        println!(
            "    {transport:<10} {best:>8.0} rps sustained ({} probes)",
            probes.len()
        );
        search_entries.push(format!(
            "    {{ \"transport\": \"{transport}\", \"best_rps\": {best:.0}, \
             \"probes\": [{probe_json}] }}"
        ));
    }
    if let (Some(&(_, threaded_best)), Some(&(_, reactor_best))) = (
        best_by_transport.iter().find(|(t, _)| *t == "tcp"),
        best_by_transport.iter().find(|(t, _)| *t == "reactor"),
    ) {
        println!(
            "    reactor/threaded sustainable-rate ratio: {:.2}x",
            reactor_best / threaded_best.max(1.0)
        );
    }

    // --- Phase 4: sustained soak. The same open-loop discipline, but
    // every latency lands in a fixed time window keyed by its virtual
    // arrival, producing a p50/p99 series over time. Window populations
    // are a pure function of the schedule, so the partition row is
    // deterministic and lands in the cross-thread CSV diff; the
    // measured per-window `soak_series` rows are the one CSV exception
    // and CI filters them by prefix.
    let soak_n = tier.n_open * 2;
    let soak_rate = probe_rate;
    let soak_window = Duration::from_millis(tier.soak_window_ms);
    let mut soak_entries: Vec<String> = Vec::new();
    println!(
        "  soak ({soak_n} requests at {soak_rate} rps, {} ms windows):",
        tier.soak_window_ms
    );
    for transport in sweep_transports.iter().copied() {
        let label = format!("soak_{transport}");
        let sched = ArrivalSchedule::generate(
            InterArrival::poisson(soak_rate as f64),
            stream_seed(&label),
            soak_n,
        );
        let mut stream = RequestStream::new(stream_seed(&label), &hosts, mix, tail_n, batch_size);
        let requests = stream.take(soak_n);
        let outcome = match transport {
            "tcp" => {
                let transports: Vec<NwsClient> = (0..tier.workers).map(connect_tcp).collect();
                soak(transports, &sched, &requests, soak_window)
            }
            "reactor" => {
                let transports: Vec<NwsClient> = (0..tier.workers).map(connect_reactor).collect();
                soak(transports, &sched, &requests, soak_window)
            }
            _ => {
                let transports: Vec<InMemoryTransport> =
                    (0..tier.workers).map(connect_mem).collect();
                soak(transports, &sched, &requests, soak_window)
            }
        };
        assert_eq!(outcome.errors, 0, "{label}: errors under soak");
        assert_eq!(
            outcome.completed, soak_n as u64,
            "{label}: dropped requests"
        );
        println!(
            "    {label:<28} {} windows, whole-run p50 {:>9.1} us p99 {:>9.1} us",
            outcome.windows.len(),
            us(outcome.hist.p50()),
            us(outcome.hist.p99()),
        );
        let _ = writeln!(
            csv,
            "soak,{label},{soak_n},window_ms={};windows={},{:#018x}",
            tier.soak_window_ms,
            outcome.windows.len(),
            sched.fingerprint()
        );
        for w in &outcome.windows {
            let _ = writeln!(
                csv,
                "soak_series,{label}_w{},{},p50_us={:.1};p99_us={:.1};errors={},-",
                w.index,
                w.completed,
                us(w.hist.p50()),
                us(w.hist.p99()),
                w.errors
            );
        }
        let windows_json = outcome
            .windows
            .iter()
            .map(|w| {
                format!(
                    "{{ \"index\": {}, \"completed\": {}, \"p50_us\": {:.2}, \"p99_us\": {:.2} }}",
                    w.index,
                    w.completed,
                    us(w.hist.p50()),
                    us(w.hist.p99())
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        soak_entries.push(format!(
            "    {{ \"transport\": \"{transport}\", \"requests\": {soak_n}, \
             \"offered_rps\": {soak_rate}, \"window_ms\": {}, \"p50_us\": {:.2}, \
             \"p99_us\": {:.2}, \"windows\": [{windows_json}] }}",
            tier.soak_window_ms,
            us(outcome.hist.p50()),
            us(outcome.hist.p99()),
        ));
    }

    // --- Phase 5: connection churn. Requests/second holds a fixed set
    // of connections open; this sweeps the *other* axis, connects per
    // second, because accept-path work (socket setup, admission,
    // reactor registration) happens per connection. Arrivals are
    // open-loop from a seeded schedule; each connection asks a short
    // burst and hangs up.
    let churn_per_conn = 4usize;
    let mut churn_entries: Vec<String> = Vec::new();
    println!(
        "  connection churn ({} arrivals/point, {churn_per_conn} requests/connection):",
        tier.churn_conns
    );
    for transport in socket_transports.iter().copied() {
        for &cps in tier.churn_cps {
            let label = format!("churn_{transport}_{cps}");
            let sched = ArrivalSchedule::generate(
                InterArrival::poisson(cps as f64),
                stream_seed(&label),
                tier.churn_conns,
            );
            let mut stream =
                RequestStream::new(stream_seed(&label), &hosts, mix, tail_n, batch_size);
            let pool = stream.take(tier.churn_conns * churn_per_conn);
            let outcome = match transport {
                "tcp" => churn(
                    &|_| match NwsClient::connect(addr, ClientConfig::default()) {
                        Ok(c) => ChurnConnect::Serve(c),
                        Err(_) => ChurnConnect::Failed,
                    },
                    tier.workers,
                    &sched,
                    &pool,
                    churn_per_conn,
                ),
                _ => churn(
                    &|_| match NwsClient::connect(raddr, ClientConfig::default()) {
                        Ok(c) => ChurnConnect::Serve(c),
                        Err(_) => ChurnConnect::Failed,
                    },
                    tier.workers,
                    &sched,
                    &pool,
                    churn_per_conn,
                ),
            };
            assert_eq!(outcome.attempted, tier.churn_conns as u64);
            assert_eq!(outcome.failed, 0, "{label}: socket-level failures");
            assert_eq!(outcome.errors, 0, "{label}: typed errors mid-burst");
            assert_eq!(
                outcome.served + outcome.refused,
                tier.churn_conns as u64,
                "{label}: every arrival served or refused"
            );
            println!(
                "    {label:<28} offered {cps:>5} cps, achieved {:>7.0} cps, \
                 served {}, refused {}, first-reply us: p50 {:>9.1} p99 {:>9.1}",
                outcome.achieved_cps(),
                outcome.served,
                outcome.refused,
                us(outcome.first_reply.p50()),
                us(outcome.first_reply.p99()),
            );
            let _ = writeln!(
                csv,
                "churn,{label},{},cps={cps};per_conn={churn_per_conn},{:#018x}",
                tier.churn_conns,
                sched.fingerprint()
            );
            churn_entries.push(format!(
                "    {{ \"transport\": \"{transport}\", \"offered_cps\": {cps}, \
                 \"connections\": {}, \"served\": {}, \"refused\": {}, \
                 \"achieved_cps\": {:.1}, \"first_reply_p50_us\": {:.2}, \
                 \"first_reply_p99_us\": {:.2}, \"request_p99_us\": {:.2} }}",
                tier.churn_conns,
                outcome.served,
                outcome.refused,
                outcome.achieved_cps(),
                us(outcome.first_reply.p50()),
                us(outcome.first_reply.p99()),
                us(outcome.requests.p99()),
            ));
        }
    }
    drop(server);
    drop(reactor_server);

    // --- Phase 6: idle-connection capacity. The threaded server
    // spends a thread per connection, so its cap is the thread budget;
    // the reactor spends a slab slot. Hold the target number of idle
    // connections open on the reactor and probe request latency at
    // milestones along the way — the series is the p99-versus-
    // connection-count curve. Values depend on the machine and thread
    // count, so this phase reports to JSON/stdout only.
    println!(
        "  idle-connection capacity (target {} connections):",
        tier.conc_target
    );
    let mut conc_grid = nws_grid::GridMonitor::ucsd(cfg.seed);
    conc_grid.run_steps(tier.warm_steps.min(120));
    let threaded_cap = ServerConfig::default().max_connections;
    let threaded_small = NwsServer::spawn(GridState::new(conc_grid), ServerConfig::default())
        .expect("bind threaded cap probe");
    let mut threaded_refused_at = 0usize;
    let mut held_threaded: Vec<NwsClient> = Vec::new();
    for i in 0..threaded_cap + 24 {
        let mut c = NwsClient::connect(threaded_small.addr(), ClientConfig::default())
            .expect("connect threaded probe");
        match Transport::call(&mut c, &Request::Stats) {
            Ok(Response::Error(e)) if e.code == ErrorCode::Overloaded => {
                threaded_refused_at = i + 1;
                break;
            }
            Ok(_) => held_threaded.push(c),
            Err(_) => {
                threaded_refused_at = i + 1;
                break;
            }
        }
    }
    assert!(
        threaded_refused_at > 0,
        "threaded server never refused within cap+24 connections"
    );
    println!("    threaded (cap {threaded_cap}): refused connection #{threaded_refused_at}");
    drop(held_threaded);
    drop(threaded_small);
    let mut conc_grid = nws_grid::GridMonitor::ucsd(cfg.seed);
    conc_grid.run_steps(tier.warm_steps.min(120));
    let conc_server = ReactorServer::spawn(
        GridState::new(conc_grid),
        ReactorConfig {
            server: ServerConfig {
                max_connections: tier.conc_target + 64,
                // Held connections sit idle between probes; keep the
                // idle cut well past the phase's runtime.
                read_timeout: Duration::from_secs(60),
                request_deadline: Duration::from_secs(120),
                ..ServerConfig::default()
            },
            ..ReactorConfig::default()
        },
    )
    .expect("bind reactor capacity server");
    let caddr = conc_server.addr();
    let milestones = [
        tier.conc_target / 10,
        tier.conc_target / 2,
        tier.conc_target,
    ];
    let mut held: Vec<NwsClient> = Vec::with_capacity(tier.conc_target);
    let mut conc_points: Vec<String> = Vec::new();
    for &m in &milestones {
        while held.len() < m {
            let mut c =
                NwsClient::connect(caddr, ClientConfig::default()).expect("connect idle client");
            let resp = Transport::call(&mut c, &Request::Stats).expect("stats on new connection");
            assert!(
                !matches!(resp, Response::Error(_)),
                "reactor refused connection #{} below its cap: {resp:?}",
                held.len() + 1
            );
            held.push(c);
        }
        let mut hist = LatencyHistogram::new();
        let probe = &mut held[0];
        for _ in 0..tier.conc_probe {
            let t0 = Instant::now();
            let resp = Transport::call(probe, &Request::Stats).expect("probe stats");
            assert!(!matches!(resp, Response::Error(_)), "probe got typed error");
            hist.record(t0.elapsed());
        }
        println!(
            "    reactor: {m:>5} idle connections held, probe p50 {:>7.1} us p99 {:>7.1} us",
            us(hist.p50()),
            us(hist.p99()),
        );
        conc_points.push(format!(
            "{{ \"connections\": {m}, \"p50_us\": {:.2}, \"p99_us\": {:.2} }}",
            us(hist.p50()),
            us(hist.p99())
        ));
    }
    assert_eq!(
        held.len(),
        tier.conc_target,
        "reactor held the full connection target"
    );
    let conc_active = conc_server.active_connections();
    drop(held);
    drop(conc_server);

    // --- Phase 7: adversarial personas against a tight-deadline
    // server, with a healthy client exchanging throughout. Every
    // defense must trip, promptly, without collateral damage.
    let mut persona_grid = nws_grid::GridMonitor::ucsd(cfg.seed);
    persona_grid.run_steps(40);
    let persona_server = NwsServer::spawn(
        GridState::new(persona_grid),
        ServerConfig {
            read_timeout: Duration::from_millis(250),
            request_deadline: Duration::from_millis(450),
            max_connections: 8,
            ..ServerConfig::default()
        },
    )
    .expect("bind persona server");
    let paddr = persona_server.addr();
    let patience = Duration::from_secs(5);
    let mut stats_frame = Vec::new();
    nws_wire::encode_request_frame(&mut stats_frame, &Request::Stats);
    let attackers = std::thread::spawn(move || {
        let partial = std::thread::spawn(move || personas::partial_frame(paddr, patience));
        let oversize = std::thread::spawn(move || personas::oversize_claim(paddr, patience));
        let slow = std::thread::spawn(move || {
            personas::slow_writer(paddr, &stats_frame, Duration::from_millis(75), patience)
        });
        [
            partial.join().expect("partial_frame"),
            oversize.join().expect("oversize_claim"),
            slow.join().expect("slow_writer"),
        ]
    });
    let mut healthy = NwsClient::connect(paddr, ClientConfig::default()).expect("connect healthy");
    let mut healthy_calls = 0u64;
    for _ in 0..25 {
        healthy.stats().expect("healthy call during attack");
        healthy_calls += 1;
        std::thread::sleep(Duration::from_millis(20));
    }
    let reports = attackers.join().expect("attacker thread");
    let mut persona_detail = Vec::new();
    for report in &reports {
        let report = report.as_ref().expect("persona io");
        assert!(
            report.tripped,
            "{} did not trip the server: {}",
            report.name, report.detail
        );
        println!(
            "  persona {:<16} tripped in {:>6.0} ms",
            report.name,
            report.elapsed.as_secs_f64() * 1e3
        );
        persona_detail.push(format!("{}=1", report.name));
    }
    healthy.stats().expect("healthy call after attack");
    let persona_detail = persona_detail.join(";");
    let _ = writeln!(
        csv,
        "personas,defenses,{},{persona_detail},{:#018x}",
        reports.len(),
        fnv1a(persona_detail.as_bytes())
    );
    drop(persona_server);

    // --- Phase 8: the failover phase. Mix-driven load through a
    // FailoverClient over primary + replica while a seeded CrashPlan
    // picks the kill moment. Availability must hold at 100%.
    let requests = tier.failover_requests;
    let mut gm = nws_grid::GridMonitor::ucsd(cfg.seed);
    gm.attach_journal(Wal::new());
    gm.run_steps(tier.warm_steps.min(120));
    let host_refs: Vec<&str> = HostProfile::all().iter().map(|p| p.name()).collect();
    let mut primary = NwsServer::spawn(
        GridState::new(gm),
        ServerConfig {
            max_connections: 8,
            ..ServerConfig::default()
        },
    )
    .expect("bind primary");
    let mut feed = NwsClient::connect(primary.addr(), ClientConfig::default()).expect("connect");
    let mut replica = ReplicaState::new(&host_refs, GridMonitorConfig::default());
    replica.sync(&mut feed).expect("replicate over tcp");
    drop(feed);
    assert!(replica.synced(), "replica caught up to the primary");
    let replica_server = NwsServer::spawn(
        replica,
        ServerConfig {
            max_connections: 8,
            ..ServerConfig::default()
        },
    )
    .expect("bind replica");
    let mut client = FailoverClient::new(
        &[primary.addr(), replica_server.addr()],
        ClientConfig {
            io_timeout: Duration::from_millis(500),
            retries: 0,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(5),
            ..ClientConfig::default()
        },
    );
    let kill_at = CrashPlan::seeded(cfg.seed ^ 0x10AD)
        .next_event()
        .cut_at(requests)
        .clamp(1, requests - 1);
    let mut stream = RequestStream::new(stream_seed("failover"), &hosts, mix, tail_n, batch_size);
    let failover_requests = stream.take(requests);
    let mut hist = LatencyHistogram::new();
    let mut served = 0usize;
    let mut post_kill_ms = 0.0f64;
    for (i, req) in failover_requests.iter().enumerate() {
        if i == kill_at {
            primary.shutdown();
        }
        let t0 = Instant::now();
        let resp = client.call(req).expect("every request is served");
        assert!(
            !matches!(resp, Response::Error(_)),
            "typed error through failover: {resp:?}"
        );
        let elapsed = t0.elapsed();
        if i == kill_at {
            post_kill_ms = elapsed.as_secs_f64() * 1e3;
        }
        hist.record(elapsed);
        served += 1;
    }
    assert_eq!(served, requests, "availability through the kill is 100%");
    assert!(client.failovers() >= 1, "the kill forced a failover");
    println!(
        "  failover: kill at request {kill_at}/{requests}, served {served}/{requests} \
         ({} failover(s)); first post-kill {post_kill_ms:.2} ms, p50 {:.1} us, p99 {:.1} us",
        client.failovers(),
        us(hist.p50()),
        us(hist.p99()),
    );
    let _ = writeln!(
        csv,
        "failover,primary_kill,{requests},kill_at={kill_at};served={served},{:#018x}",
        stream.fingerprint()
    );

    write_artifact("load_sweep.csv", &csv);

    // The serving baseline is tracked in version control, so like
    // BENCH_perf.json it lands at the repository root.
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema_version\": 1,");
    let _ = writeln!(json, "  \"tier\": \"{}\",", tier.name);
    let _ = writeln!(json, "  \"threads\": {},", nws_runtime::threads());
    let _ = writeln!(json, "  \"workers\": {},", tier.workers);
    let _ = writeln!(
        json,
        "  \"mix\": {{ \"forecast\": {}, \"snapshot\": {}, \"best_host\": {}, \
         \"series_tail\": {}, \"batch\": {}, \"tail_n\": {tail_n}, \
         \"batch_size\": {batch_size} }},",
        mix.forecast, mix.snapshot, mix.best_host, mix.series_tail, mix.batch
    );
    let _ = writeln!(
        json,
        "  \"open_loop\": [\n{}\n  ],",
        open_entries.join(",\n")
    );
    let _ = writeln!(
        json,
        "  \"closed_loop\": [\n{}\n  ],",
        closed_entries.join(",\n")
    );
    let _ = writeln!(
        json,
        "  \"max_sustainable_rps\": [\n{}\n  ],",
        search_entries.join(",\n")
    );
    let _ = writeln!(json, "  \"soak\": [\n{}\n  ],", soak_entries.join(",\n"));
    let _ = writeln!(json, "  \"churn\": [\n{}\n  ],", churn_entries.join(",\n"));
    let _ = writeln!(
        json,
        "  \"concurrency\": {{ \"threaded_cap\": {threaded_cap}, \
         \"threaded_refused_at\": {threaded_refused_at}, \"reactor_held\": {}, \
         \"reactor_active\": {conc_active}, \"points\": [{}] }},",
        tier.conc_target,
        conc_points.join(", ")
    );
    let _ = writeln!(
        json,
        "  \"personas\": {{ \"count\": {}, \"tripped\": {}, \"healthy_calls\": {healthy_calls} }},",
        reports.len(),
        reports.len()
    );
    let _ = writeln!(
        json,
        "  \"failover\": {{ \"requests\": {requests}, \"kill_at\": {kill_at}, \
         \"served\": {served}, \"failovers\": {}, \"post_kill_ms\": {post_kill_ms:.3}, \
         \"p50_us\": {:.2}, \"p99_us\": {:.2} }}",
        client.failovers(),
        us(hist.p50()),
        us(hist.p99())
    );
    json.push_str("}\n");
    match std::fs::write("BENCH_serve.json", &json) {
        Ok(()) => eprintln!("wrote BENCH_serve.json"),
        Err(e) => eprintln!("warning: cannot write BENCH_serve.json: {e}"),
    }
}

/// The `serve` experiment: spins up the forecast-serving subsystem on a
/// warmed simulated grid, first proving the TCP path answers byte-for-byte
/// identically to the in-memory transport, then driving a seeded
/// closed-loop load phase and reporting throughput, latency percentiles,
/// and query-cache effectiveness to `BENCH_serve.json`.
fn run_serve(cfg: &ExperimentConfig, quick: bool, smoke: bool) {
    use nws_server::{
        ClientConfig, GridState, InMemoryTransport, NwsClient, NwsServer, ServerConfig, TickDriver,
        Transport,
    };
    use nws_wire::{Request, Response};
    use std::sync::{Arc, Mutex};
    use std::time::Instant;

    let (warm_steps, rounds, clients, reqs_per_client) = if smoke {
        (60u64, 3usize, 2usize, 50usize)
    } else if quick {
        (180, 6, 4, 250)
    } else {
        (360, 10, 6, 1000)
    };

    println!(
        "\nserve: forecast-serving subsystem ({clients} clients x {rounds} rounds x \
         {reqs_per_client} requests, grid warmed {warm_steps} slots)"
    );

    // --- Phase 1: the TCP path must be byte-identical to the in-memory
    // transport. Two identically-seeded grids, one behind each transport,
    // answer the same request sequence; every response payload is
    // compared byte for byte (Stats counters included, so the sequence
    // runs strictly in order on both sides).
    let mut grid_a = nws_grid::GridMonitor::ucsd(cfg.seed);
    grid_a.run_steps(warm_steps);
    let mut grid_b = nws_grid::GridMonitor::ucsd(cfg.seed);
    grid_b.run_steps(warm_steps);
    let hosts: Vec<String> = grid_a
        .snapshot()
        .hosts
        .iter()
        .map(|h| h.host.clone())
        .collect();

    let mut server = NwsServer::spawn(
        GridState::new(grid_a),
        ServerConfig {
            max_connections: clients + 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind localhost");
    let mut mem = InMemoryTransport::new(Arc::new(Mutex::new(GridState::new(grid_b))));
    let mut tcp = NwsClient::connect(server.addr(), ClientConfig::default()).expect("connect");

    // Sensor ticks come from engine-clocked drivers, not from the serve
    // loop: each driver watches a virtual clock on the grid's cadence and
    // delivers exactly the slots that come due between request rounds.
    let mut tcp_driver = TickDriver::virtual_time(Arc::clone(server.state()));
    let mut mem_driver = TickDriver::virtual_time(Arc::clone(mem.state()));
    let slot_seconds = tcp_driver
        .state()
        .lock()
        .expect("state")
        .grid()
        .cadence()
        .measurement_period;

    let mut sequence: Vec<Request> = vec![Request::Snapshot, Request::BestHost];
    for h in &hosts {
        sequence.push(Request::Forecast { host: h.clone() });
        sequence.push(Request::SeriesTail {
            host: h.clone(),
            n: 32,
        });
    }
    sequence.push(Request::Batch(
        hosts
            .iter()
            .map(|h| Request::Forecast { host: h.clone() })
            .collect(),
    ));
    sequence.push(Request::Stats);

    let mut compared = 0usize;
    for pass in 0..2 {
        for req in &sequence {
            let (_, tcp_bytes) = tcp.call_raw(req).expect("tcp call");
            let (_, mem_bytes) = mem.call_raw(req).expect("in-memory call");
            assert_eq!(
                tcp_bytes, mem_bytes,
                "TCP and in-memory responses diverged on {req:?} (pass {pass})"
            );
            compared += 1;
        }
        // Advance both clocks one measurement period between passes so
        // the comparison also covers the invalidate-and-recompute path.
        assert_eq!(tcp_driver.advance(slot_seconds), 1);
        assert_eq!(mem_driver.advance(slot_seconds), 1);
    }
    println!("  verified: {compared} responses byte-identical across TCP and in-memory");

    // --- Phase 2: seeded closed-loop load. Each client thread replays a
    // deterministic LCG-driven request mix; the grid ticks one sensor
    // slot between rounds so the cache sees realistic invalidation.
    let mut latencies_ms: Vec<f64> = Vec::new();
    let mut total_requests = 0usize;
    let load_t0 = Instant::now();
    for round in 0..rounds {
        let mut handles = Vec::new();
        for c in 0..clients {
            let addr = server.addr();
            let hosts = hosts.clone();
            let mut lcg: u64 = cfg
                .seed
                .wrapping_add(0x5E17_0001)
                .wrapping_mul(round as u64 + 1)
                .wrapping_add(c as u64);
            handles.push(std::thread::spawn(move || {
                let mut client =
                    NwsClient::connect(addr, ClientConfig::default()).expect("connect");
                let mut lat = Vec::with_capacity(reqs_per_client);
                for _ in 0..reqs_per_client {
                    lcg = lcg
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let roll = (lcg >> 33) % 100;
                    let host = hosts[(lcg >> 17) as usize % hosts.len()].clone();
                    let req = if roll < 70 {
                        Request::Forecast { host }
                    } else if roll < 85 {
                        Request::Snapshot
                    } else if roll < 95 {
                        Request::BestHost
                    } else {
                        Request::SeriesTail { host, n: 16 }
                    };
                    let t0 = Instant::now();
                    match client.call(&req).expect("load request") {
                        Response::Error(e) => panic!("server error under load: {}", e.message),
                        _ => lat.push(t0.elapsed().as_secs_f64() * 1e3),
                    }
                }
                lat
            }));
        }
        for h in handles {
            let lat = h.join().expect("client thread");
            total_requests += lat.len();
            latencies_ms.extend(lat);
        }
        tcp_driver.advance(slot_seconds);
    }
    let elapsed_s = load_t0.elapsed().as_secs_f64();

    let stats = tcp.stats().expect("final stats");
    server.shutdown();

    latencies_ms.sort_by(|a, b| a.total_cmp(b));
    let pct = |p: f64| -> f64 {
        if latencies_ms.is_empty() {
            return 0.0;
        }
        let idx = ((latencies_ms.len() as f64 - 1.0) * p).round() as usize;
        latencies_ms[idx]
    };
    let (p50, p95, p99) = (pct(0.50), pct(0.95), pct(0.99));
    let max_ms = latencies_ms.last().copied().unwrap_or(0.0);
    let throughput = total_requests as f64 / elapsed_s.max(1e-9);
    let lookups = stats.cache_hits + stats.cache_misses;
    let hit_rate = if lookups > 0 {
        stats.cache_hits as f64 / lookups as f64
    } else {
        0.0
    };
    assert!(hit_rate > 0.0, "query cache never hit under repeated load");

    println!("  load: {total_requests} requests in {elapsed_s:.3} s = {throughput:.0} req/s");
    println!("  latency ms: p50 {p50:.3}  p95 {p95:.3}  p99 {p99:.3}  max {max_ms:.3}");
    println!(
        "  cache: {} hits / {} misses / {} invalidations (hit rate {:.1}%)",
        stats.cache_hits,
        stats.cache_misses,
        stats.invalidations,
        hit_rate * 100.0
    );

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"threads\": {},", nws_runtime::threads());
    let _ = writeln!(json, "  \"clients\": {clients},");
    let _ = writeln!(json, "  \"rounds\": {rounds},");
    let _ = writeln!(json, "  \"warm_steps\": {warm_steps},");
    let _ = writeln!(json, "  \"verified_responses\": {compared},");
    let _ = writeln!(json, "  \"requests\": {total_requests},");
    let _ = writeln!(json, "  \"elapsed_s\": {elapsed_s:.6},");
    let _ = writeln!(json, "  \"throughput_rps\": {throughput:.3},");
    let _ = writeln!(
        json,
        "  \"latency_ms\": {{ \"p50\": {p50:.4}, \"p95\": {p95:.4}, \"p99\": {p99:.4}, \"max\": {max_ms:.4} }},"
    );
    let _ = writeln!(
        json,
        "  \"cache\": {{ \"hits\": {}, \"misses\": {}, \"invalidations\": {}, \"hit_rate\": {:.4} }}",
        stats.cache_hits, stats.cache_misses, stats.invalidations, hit_rate
    );
    json.push_str("}\n");
    write_artifact("BENCH_serve.json", &json);
    eprintln!("wrote BENCH_serve.json");
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
fn run_faults(cfg: &ExperimentConfig, quick: bool, smoke: bool) {
    use nws_faults::{FaultPlan, FaultRates};
    use nws_forecast::{evaluate_one_step, NwsForecaster};
    use nws_grid::{GridMonitor, Metric};
    use std::collections::BTreeMap;

    let steps: u64 = if smoke {
        180 // half an hour
    } else if quick {
        360 // one hour
    } else {
        2160 // six hours
    };
    let rates: &[f64] = if quick {
        &[0.0, 0.05, 0.2]
    } else {
        &[0.0, 0.02, 0.05, 0.1, 0.2]
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
                        times
                            .iter()
                            .zip(vals)
                            .map(|(t, v)| (t.to_bits(), *v))
                            .collect(),
                    )
                });
            if let Some(r) = evaluate_one_step(&mut NwsForecaster::nws_default(), &values) {
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
        let snap = gm.snapshot();
        let degraded = snap.hosts.iter().filter(|h| h.degraded).count();
        let (conf_sum, conf_n) = snap
            .hosts
            .iter()
            .filter_map(|h| h.forecast.as_ref())
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

fn run_data_sched(cfg: &ExperimentConfig) {
    println!(
        "
Data-aware scheduling: staging time vs compute time (AppLeS formulation)"
    );
    let dcfg = DataSchedConfig::demo(cfg.seed);
    println!(
        "  {} tasks, 128-256 MB inputs; site 0 = idle host behind congested WAN",
        dcfg.tasks.len()
    );
    let outcomes = run_data_sched_experiment(&dcfg);
    let best = outcomes
        .iter()
        .map(|o| o.makespan)
        .fold(f64::INFINITY, f64::min);
    let mut csv = String::from(
        "policy,makespan_s,slowdown_vs_best,tasks_site0,tasks_site1,tasks_site2
",
    );
    for o in &outcomes {
        println!(
            "  {:<15} makespan {:>7.0}s  (x{:.2} vs best)  tasks/site {:?}",
            o.policy.name(),
            o.makespan,
            o.makespan / best,
            o.tasks_per_site
        );
        let _ = writeln!(
            csv,
            "{},{},{},{},{},{}",
            o.policy.name(),
            o.makespan,
            o.makespan / best,
            o.tasks_per_site[0],
            o.tasks_per_site[1],
            o.tasks_per_site[2]
        );
    }
    write_artifact("sched_data_aware.csv", &csv);
}

fn run_net(cfg: &ExperimentConfig) {
    println!(
        "
Network weather: bandwidth/latency sensing + forecasting (8 h, 2-min probes)"
    );
    let mut monitor = LinkMonitor::demo_grid(cfg.seed);
    monitor.run_probes(240);
    let mut csv = String::from(
        "link,mean_bandwidth_Bps,mean_latency_s,bandwidth_forecast_mae
",
    );
    for r in monitor.report() {
        println!(
            "  {:<11} mean bw {:>6.2} Mbit/s  rtt {:>5.0} ms  1-step MAE {:>5.1}%",
            r.name,
            r.mean_bandwidth * 8.0 / 1e6,
            r.mean_latency * 1000.0,
            r.bandwidth_forecast_mae * 100.0
        );
        let _ = writeln!(
            csv,
            "{},{},{},{}",
            r.name, r.mean_bandwidth, r.mean_latency, r.bandwidth_forecast_mae
        );
    }
    write_artifact("net_links.csv", &csv);
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

fn run_sched(quick: bool) {
    println!("\nScheduling experiment: bag-of-tasks over the six hosts");
    let cfg = if quick {
        SchedConfig::quick()
    } else {
        SchedConfig::default()
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
