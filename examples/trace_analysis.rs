//! Self-similarity analysis of an availability trace (the paper's §3.1).
//!
//! ```sh
//! cargo run --release --example trace_analysis [hostname] [hours]
//! ```
//!
//! Collects a load-average availability trace from one simulated host
//! (default: thing2, 48 hours), then runs the paper's full analysis
//! toolkit: autocorrelation function, R/S pox-plot Hurst estimate, plus the
//! aggregated-variance and periodogram estimators as cross-checks, and the
//! `X^(m)` variance table for several aggregation levels.

use nws::core::plot::{ascii_scatter, ascii_series};
use nws::grid::{GridMonitor, GridMonitorConfig, MemoryConfig, Metric};
use nws::sim::HostProfile;
use nws::stats::{
    aggregated_variance_hurst, autocorrelation, hurst_rs, periodogram_hurst, pox_plot,
};
use nws::timeseries::{aggregate_mean, summarize};

fn main() {
    let mut args = std::env::args().skip(1);
    let host_name = args.next().unwrap_or_else(|| "thing2".to_string());
    let hours: f64 = args
        .next()
        .map(|h| h.parse().expect("hours must be a number"))
        .unwrap_or(48.0);
    let profile = HostProfile::by_name(&host_name).unwrap_or_else(|| {
        panic!(
            "unknown host {host_name:?}; try one of {:?}",
            nws::sim::UCSD_HOST_NAMES
        )
    });

    println!("collecting {hours}h load-average availability trace from {host_name}...");
    // A 30-minute warm-up, then the trace; the memory keeps only the trace.
    let recorded = (hours * 360.0) as usize;
    let config = GridMonitorConfig {
        memory: MemoryConfig { retain: recorded },
        ..GridMonitorConfig::default()
    };
    let mut grid = GridMonitor::new(&[profile], 777, config);
    grid.run_steps(180 + recorded as u64);
    let id = grid
        .registry()
        .lookup(&host_name, Metric::CpuAvailabilityLoad);
    let series = grid
        .memory()
        .series(id.expect("registered"), format!("{host_name}/load"));
    let values = series.values();
    let summary = summarize(values).expect("non-empty trace");
    println!(
        "n = {}, mean availability {:.1}%, std {:.1}%\n",
        summary.n,
        summary.mean * 100.0,
        summary.std_dev * 100.0
    );
    println!("{}", ascii_series(&series, 100, 12));

    // Autocorrelation: the slow decay that motivates the Hurst analysis.
    let max_lag = 360.min(values.len().saturating_sub(2));
    let rho = autocorrelation(values, max_lag).expect("trace long enough");
    let at = |lag: usize| rho.get(lag).copied().unwrap_or(f64::NAN);
    println!(
        "autocorrelation: rho(1) = {:.2}, rho(6) [1 min] = {:.2}, rho(30) [5 min] = {:.2}, rho(360) [1 h] = {:.2}\n",
        at(1), at(6), at(30), at(360)
    );

    // Three Hurst estimators.
    let rs = hurst_rs(values, 10).expect("trace long enough");
    let av = aggregated_variance_hurst(values).expect("trace long enough");
    let pg = periodogram_hurst(values).expect("trace long enough");
    println!("Hurst estimates:");
    println!(
        "  R/S (pox plot)       H = {:.2}  (r² = {:.3})",
        rs.h, rs.fit.r_squared
    );
    println!(
        "  aggregated variance  H = {:.2}  (r² = {:.3})",
        av.h, av.fit.r_squared
    );
    println!(
        "  periodogram          H = {:.2}  (r² = {:.3})\n",
        pg.h, pg.fit.r_squared
    );

    let pox = pox_plot(values, 10);
    let pts: Vec<(f64, f64)> = pox.iter().map(|p| (p.log10_d, p.log10_rs)).collect();
    println!(
        "{}",
        ascii_scatter(
            &format!("pox plot, H = {:.2}", rs.h),
            &pts,
            Some((rs.fit.slope, rs.fit.intercept)),
            80,
            18,
        )
    );

    // Variance under aggregation: for self-similar series Var(X^(m))
    // decays like m^(2H-2), much slower than the 1/m of independent data.
    println!("variance under aggregation (X^(m) block means):");
    println!(
        "{:>6} {:>12} {:>14} {:>12}",
        "m", "Var(X^(m))", "vs 1/m decay", "m^(2H-2)"
    );
    let var0 = summary.variance;
    for m in [1usize, 3, 6, 30, 60, 180] {
        let agg = aggregate_mean(values, m);
        let var = summarize(&agg).map(|s| s.variance).unwrap_or(0.0);
        println!(
            "{:>6} {:>12.5} {:>14.5} {:>12.5}",
            m,
            var,
            var0 / m as f64,
            var0 * (m as f64).powf(2.0 * rs.h - 2.0)
        );
    }
}
