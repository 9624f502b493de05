//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--quick] [--smoke] [--seed N] [--threads N] [--quality] <experiment>...
//! ```
//!
//! `repro --help` lists the experiments. Tables are printed with the
//! paper's published value in parentheses next to each measured cell;
//! every artifact is also written as CSV under `results/` (override with
//! `NWS_RESULTS_DIR`).
//!
//! Experiment drivers fan out over hosts/seeds/sweep points through
//! `nws-runtime`; `--threads N` (or the `NWS_THREADS` environment
//! variable) pins the worker count, and `--threads 1` forces fully
//! sequential execution. Results are bit-identical at any thread count.

use nws_bench::cli::{self, parse_args};
use nws_bench::paper::Datasets;
use nws_bench::{durability, extensions, fleet, paper};
use nws_core::experiments::ExperimentConfig;

fn main() {
    let args = parse_args();
    nws_runtime::set_threads(args.threads);
    let tier = args.tier;
    let mut cfg = if tier == cli::Tier::Full {
        ExperimentConfig::default()
    } else {
        ExperimentConfig::quick()
    };
    if let Some(seed) = args.seed {
        cfg.seed = seed;
    }
    let mut data = Datasets::default();
    if cli::DEFAULT.iter().all(|e| args.experiments.contains(e)) {
        // Every dataset will be needed.
        data.collect_all(&cfg);
    }
    for name in args.experiments {
        match name {
            "fleet" => fleet::run(cfg.seed, tier, args.quality),
            "durability" => durability::run(cfg.seed, tier),
            _ if name.starts_with("table") || name.starts_with("fig") => {
                paper::run(name, &cfg, &mut data)
            }
            _ => extensions::run(name, &cfg, tier),
        }
    }
}
