//! Quickstart: measure and forecast CPU availability on a simulated host.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Builds one of the paper's simulated hosts (`thing1`), runs the NWS CPU
//! monitor over two simulated hours (all three sensors, probe once a
//! minute, 10-second test process every 5 minutes), then replays the hybrid
//! series through the NWS forecaster and reports the paper's three error
//! metrics for this run.

use nws::core::monitor::{Monitor, MonitorConfig};
use nws::forecast::{evaluate_one_step, PredictorBank};
use nws::sim::HostProfile;
use nws::stats::mean_absolute_pair_error;

fn main() {
    // 1. A simulated time-shared Unix workstation under interactive load.
    let mut host = HostProfile::Thing1.build(2026);

    // 2. The NWS CPU monitor: 10 s measurements, 1.5 s probe each minute,
    //    a ground-truth test process every 5 minutes.
    let monitor = Monitor::new(MonitorConfig {
        duration: 2.0 * 3600.0,
        warmup: 900.0,
        test_period: Some(300.0),
        ..MonitorConfig::default()
    });
    let out = monitor.run(&mut host);
    println!(
        "monitored {} for 2 simulated hours: {} measurements, {} probes, {} test runs",
        out.host,
        out.series.hybrid.len(),
        out.probes.len(),
        out.tests.len()
    );

    // 3. Measurement error (paper Eq. 3): sensor reading immediately before
    //    each test vs what the test process actually obtained.
    let observed: Vec<f64> = out.tests.iter().map(|t| t.value).collect();
    for (name, prior) in [
        (
            "load-average",
            out.tests.iter().map(|t| t.prior.load).collect::<Vec<_>>(),
        ),
        ("vmstat", out.tests.iter().map(|t| t.prior.vmstat).collect()),
        (
            "nws-hybrid",
            out.tests.iter().map(|t| t.prior.hybrid).collect(),
        ),
    ] {
        let err = mean_absolute_pair_error(&prior, &observed).unwrap_or(0.0);
        println!("measurement error [{name:>12}]: {:.1}%", err * 100.0);
    }

    // 4. One-step-ahead prediction error (paper Eq. 5): how well the NWS
    //    forecaster predicts the next hybrid measurement.
    let mut nws = PredictorBank::nws_default();
    let report = evaluate_one_step(&mut nws, out.series.hybrid.values())
        .expect("series long enough to score");
    println!(
        "one-step prediction error [nws-hybrid]: {:.1}% (RMSE {:.1}%, n = {})",
        report.mae * 100.0,
        report.rmse * 100.0,
        report.n
    );

    // 5. A live forecast for the next 10-second interval.
    let forecast = nws.forecast().expect("forecaster is warm");
    println!(
        "forecast for the next interval: {:.0}% CPU available (method: {})",
        forecast.value * 100.0,
        forecast.method
    );
    println!(
        "=> a task needing 60 CPU-seconds should take ~{:.0}s here",
        nws::sched::predicted_runtime(60.0, forecast.value)
    );
}
