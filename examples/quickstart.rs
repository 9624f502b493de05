//! Quickstart: measure and forecast CPU availability on a simulated host.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Puts one of the paper's simulated hosts (`thing1`) on the NWS grid
//! monitor for two simulated hours after a 15-minute warm-up (all three
//! sensors, probe once a minute, 10-second test process every 5 minutes),
//! then reports the paper's three error metrics for this run.

use nws::forecast::{evaluate_one_step, PredictorBank};
use nws::grid::{GridMonitor, GridMonitorConfig, MemoryConfig, Metric, TestSchedule};
use nws::sim::HostProfile;
use nws::stats::mean_absolute_pair_error;

fn main() {
    // 1. The NWS CPU monitor over a simulated time-shared Unix workstation
    //    under interactive load: 10 s measurements, 1.5 s probe each minute,
    //    a ground-truth test process every 5 minutes. The memory keeps the
    //    two recorded hours; the warm-up ages out of it.
    let (warmup, recorded) = (90, 720);
    let schedule = TestSchedule {
        period: 300.0,
        duration: 10.0,
    };
    let config = GridMonitorConfig {
        memory: MemoryConfig { retain: recorded },
        ground_truth: Some(schedule),
        ..GridMonitorConfig::default()
    };
    let mut grid = GridMonitor::new(&[HostProfile::Thing1], 2026, config);
    grid.run_steps(warmup + recorded as u64);
    let id = grid
        .registry()
        .lookup("thing1", Metric::CpuAvailabilityHybrid);
    let id = id.expect("registered");
    let hybrid = grid.memory().series(id, "thing1/hybrid");
    let tests = grid.ground_truth().next().expect("one host");
    let tests: Vec<_> = tests.iter().filter(|t| t.slot >= warmup).collect();
    println!(
        "monitored thing1 for 2 simulated hours: {} measurements, {} test runs",
        hybrid.len(),
        tests.len()
    );

    // 2. Measurement error (paper Eq. 3): sensor reading immediately before
    //    each test vs what the test process actually obtained. True
    //    forecasting error (Eq. 4): the forecast the weather service would
    //    have answered with at that instant vs the same observation.
    for (m, name) in ["load-average", "vmstat", "nws-hybrid"].iter().enumerate() {
        let error = |said: fn(&nws::grid::TestObservation) -> [Option<f64>; 3]| {
            let pairs = tests
                .iter()
                .filter_map(|t| said(t)[m].map(|v| (v, t.value)));
            let (said, observed): (Vec<f64>, Vec<f64>) = pairs.unzip();
            mean_absolute_pair_error(&said, &observed).unwrap_or(0.0) * 100.0
        };
        let (measured, forecast) = (error(|t| t.prior), error(|t| t.forecast));
        println!(
            "[{name:>12}] measurement error {measured:.1}%, true forecasting error {forecast:.1}%"
        );
    }

    // 3. One-step-ahead prediction error (paper Eq. 5): how well the NWS
    //    forecaster predicts the next hybrid measurement.
    let mut nws = PredictorBank::nws_default();
    let report = evaluate_one_step(&mut nws, hybrid.values()).expect("series long enough to score");
    println!(
        "one-step prediction error [nws-hybrid]: {:.1}% (RMSE {:.1}%, n = {})",
        report.mae * 100.0,
        report.rmse * 100.0,
        report.n
    );

    // 4. A live forecast for the next 10-second interval, as the weather
    //    service answers it.
    let forecast = grid
        .forecasts()
        .forecast(id)
        .expect("forecaster is warm")
        .forecast;
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
