//! The repo benchmark. See `README.md` beside this crate for the
//! protocol; `BENCHMARK.json` at the repository root names the
//! workloads, metrics and bounds this binary reports.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--passes N]
//!           [--trace 0|1] [--out-dir DIR] [--smoke]
//! benchmark compare DIR_A DIR_B
//! ```
//!
//! Without `--workload` every workload runs; without `--trace` each
//! runs untraced (end-to-end metrics) and then traced (per-layer
//! metrics). Each run prints every metric by name with its unit, then
//! one JSON result line, and appends its full report to
//! `<out-dir>/runs.jsonl` for `compare`.

mod affinity;
mod compare;
mod counters;
mod harness;
mod json;
mod layers;
mod report;
mod stats;
mod trace;
mod workloads;

use harness::{Report, RunConfig};
use std::path::PathBuf;

#[global_allocator]
static ALLOC: counters::CountingAllocator = counters::CountingAllocator;

/// Cap on one run's passes when `--seconds` is not given: the
/// `run_seconds` of `BENCHMARK.json`. The passes themselves are a
/// constant count that takes about 24 s at the seed commit.
const DEFAULT_SECONDS: f64 = 30.0;
const DEFAULT_SEED: u64 = 1999;

struct Args {
    workload: Option<String>,
    trace: Option<bool>,
    cfg: RunConfig,
}

fn usage(problem: &str) -> ! {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: benchmark [--workload {}] [--seed N] [--seconds S] [--passes N] \
         [--trace 0|1] [--out-dir DIR] [--smoke]\n       benchmark compare DIR_A DIR_B",
        workloads::NAMES.join("|")
    );
    std::process::exit(2);
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Args {
    let mut args = Args {
        workload: None,
        trace: None,
        cfg: RunConfig {
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            passes: None,
            smoke: false,
            out_dir: PathBuf::from("benchmark/out"),
        },
    };
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| {
            argv.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs {what}")))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name");
                if !workloads::NAMES.contains(&name.as_str()) {
                    usage(&format!("unknown workload `{name}`"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.cfg.seed = value("a number")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes an unsigned integer"));
            }
            "--seconds" => {
                let s: f64 = value("a number")
                    .parse()
                    .unwrap_or_else(|_| usage("--seconds takes a number"));
                if !(s.is_finite() && s > 0.0) {
                    usage("--seconds must be positive");
                }
                args.cfg.seconds = s;
            }
            "--passes" => {
                let n: usize = value("a count")
                    .parse()
                    .unwrap_or_else(|_| usage("--passes takes a count"));
                if n == 0 {
                    usage("--passes must be at least 1");
                }
                args.cfg.passes = Some(n);
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                });
            }
            "--out-dir" => args.cfg.out_dir = PathBuf::from(value("a directory")),
            "--smoke" => args.cfg.smoke = true,
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    if args.cfg.smoke && args.cfg.passes.is_none() {
        args.cfg.passes = Some(3);
    }
    args
}

fn run(name: &str, traced: bool, cfg: &RunConfig) -> Report {
    let report = workloads::run(name, traced, cfg);
    report::print(&report);
    if let Err(e) = report::append(&report, cfg) {
        eprintln!("warning: cannot append to runs.jsonl: {e}");
    }
    println!("{}", report::result_line(&report));
    report
}

fn main() {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("compare") {
        let dirs: Vec<String> = argv.skip(1).collect();
        let [a, b] = dirs.as_slice() else {
            usage("compare takes two directories");
        };
        std::process::exit(compare::run(a.as_ref(), b.as_ref()));
    }
    let args = parse_args(argv);

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if let Err(why) = harness::check_parallelism(nproc) {
        eprintln!("error: {why}");
        std::process::exit(1);
    }
    // One worker everywhere inside the crates: with the client and the
    // event loop (or ticker) that is the two threads this machine has.
    nws_runtime::set_threads(Some(1));
    affinity::pin_driver();
    if let Err(e) = std::fs::create_dir_all(&args.cfg.out_dir) {
        eprintln!("error: cannot create {}: {e}", args.cfg.out_dir.display());
        std::process::exit(1);
    }
    println!(
        "# nws-benchmark: seed {}, {} runnable threads on {nproc} cores, all traffic on loopback",
        args.cfg.seed,
        harness::RUNNABLE_THREADS
    );

    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => workloads::NAMES.to_vec(),
    };
    let modes: &[bool] = match args.trace {
        Some(false) => &[false],
        Some(true) => &[true],
        None => &[false, true],
    };
    let mut ok = true;
    for name in names {
        for &traced in modes {
            let report = run(name, traced, &args.cfg);
            ok &= report.correct && report.failed == 0;
        }
    }
    if !affinity::all_pinned() {
        eprintln!("warning: threads could not be pinned one per CPU; expect 4-8 ms stalls");
    }
    if !ok {
        eprintln!("error: at least one workload failed its correctness check");
        std::process::exit(1);
    }
}
