//! `nwscast` — forecast any recorded series from the command line.
//!
//! ```text
//! nwscast <series.csv> [--trace] [--coverage 0.9] [--analyze] [--top N]
//! ```
//!
//! Reads a `time,value` CSV (as written by the library's CSV tools, the
//! repro harness, or any external monitor), replays it through the full NWS
//! forecaster panel, and reports:
//!
//! - the dynamic selection's one-step MAE/RMSE and the per-method
//!   leaderboard,
//! - a forecast for the next value with a calibrated prediction interval,
//! - (with `--analyze`) the series' autocorrelation summary and Hurst
//!   estimates.
//!
//! `--trace` interprets the file as a *run-queue* trace (`time,level`) and
//! converts it to availability via the paper's Eq. 1 before forecasting.

use nws_forecast::{IntervalTracker, PredictorBank};
use nws_sensors::availability_from_load;
use nws_stats::{aggregated_variance_hurst, autocorrelation, hurst_rs};
use nws_timeseries::csv::read_series;
use nws_timeseries::Series;

struct Args {
    path: String,
    trace: bool,
    coverage: f64,
    analyze: bool,
    top: usize,
}

fn parse_args() -> Args {
    let mut path = None;
    let mut trace = false;
    let mut coverage = 0.9;
    let mut analyze = false;
    let mut top = 5;
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--trace" => trace = true,
            "--analyze" => analyze = true,
            "--coverage" => {
                coverage = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|c: &f64| *c > 0.0 && *c < 1.0)
                    .unwrap_or_else(|| usage("--coverage needs a fraction in (0, 1)"));
            }
            "--top" => {
                top = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--top needs a count"));
            }
            "--help" | "-h" => usage(""),
            other if other.starts_with('-') => usage(&format!("unknown flag {other}")),
            other => path = Some(other.to_string()),
        }
    }
    Args {
        path: path.unwrap_or_else(|| usage("missing input file")),
        trace,
        coverage,
        analyze,
        top,
    }
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!("usage: nwscast <series.csv> [--trace] [--coverage 0.9] [--analyze] [--top N]");
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}

fn main() {
    let args = parse_args();
    let series: Series = match read_series(&args.path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {}: {e}", args.path);
            std::process::exit(1);
        }
    };
    if series.len() < 3 {
        eprintln!(
            "{}: need at least 3 points, found {}",
            args.path,
            series.len()
        );
        std::process::exit(1);
    }
    let values: Vec<f64> = if args.trace {
        series
            .values()
            .iter()
            .map(|&l| availability_from_load(l))
            .collect()
    } else {
        series.values().to_vec()
    };
    println!(
        "{}: {} points, dt = {:.1}s{}",
        series.name(),
        values.len(),
        series.mean_dt().unwrap_or(0.0),
        if args.trace {
            " (Eq. 1 applied to run-queue trace)"
        } else {
            ""
        }
    );

    // Replay through the panel, scoring forecasts and intervals.
    let mut nws = PredictorBank::nws_default();
    let mut intervals = IntervalTracker::new(args.coverage).without_unit_clamp();
    let mut abs_sum = 0.0;
    let mut sq_sum = 0.0;
    let mut covered = 0usize;
    let mut interval_count = 0usize;
    let mut n = 0usize;
    for &v in &values {
        if let Some(f) = nws.forecast() {
            let e = f.value - v;
            abs_sum += e.abs();
            sq_sum += e * e;
            n += 1;
            if let Some(iv) = intervals.interval(f.value) {
                interval_count += 1;
                if (iv.lo..=iv.hi).contains(&v) {
                    covered += 1;
                }
            }
            intervals.record(f.value, v);
        }
        nws.update(v);
    }
    let nf = n as f64;
    println!(
        "\none-step forecasting: MAE {:.4}  RMSE {:.4}  ({n} scored forecasts)",
        abs_sum / nf,
        (sq_sum / nf).sqrt()
    );
    if interval_count > 0 {
        println!(
            "interval calibration: {:.1}% of actuals inside the {:.0}% interval",
            100.0 * covered as f64 / interval_count as f64,
            args.coverage * 100.0
        );
    }

    // Per-method leaderboard.
    let mut leaderboard = nws.error_summary();
    leaderboard.sort_by(|a, b| a.1.total_cmp(&b.1));
    println!("\nbest fixed predictors:");
    for (name, mae) in leaderboard.iter().take(args.top) {
        println!("  {:<20} MAE {:.4}", name, mae);
    }

    // The live forecast.
    if let Some(f) = nws.forecast() {
        print!("\nnext value: {:.4} (method: {})", f.value, f.method);
        if let Some(iv) = intervals.interval(f.value) {
            print!(
                "  {:.0}% interval [{:.4}, {:.4}]",
                iv.coverage * 100.0,
                iv.lo,
                iv.hi
            );
        }
        println!();
    }

    if args.analyze {
        println!("\nseries structure:");
        if let Some(rho) = autocorrelation(&values, 60.min(values.len() - 2)) {
            let l1 = rho.get(1).copied().unwrap_or(f64::NAN);
            let l10 = rho.get(10).copied().unwrap_or(f64::NAN);
            let l60 = rho.get(60).copied().unwrap_or(f64::NAN);
            println!("  autocorrelation: rho(1) = {l1:.2}, rho(10) = {l10:.2}, rho(60) = {l60:.2}");
        }
        match hurst_rs(&values, 10) {
            Some(est) => println!(
                "  Hurst (R/S): H = {:.2}  (r² = {:.3})",
                est.h, est.fit.r_squared
            ),
            None => println!("  Hurst (R/S): series too short"),
        }
        if let Some(est) = aggregated_variance_hurst(&values) {
            println!("  Hurst (agg. variance): H = {:.2}", est.h);
        }
    }
}
