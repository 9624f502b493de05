//! A live "grid weather map": the miniature NWS over the six UCSD hosts.
//!
//! ```sh
//! cargo run --release --example weather_map
//! ```
//!
//! Runs the CPU weather service — sensors on every host publishing into
//! the measurement memory on the 10-second NWS cadence, forecasters kept
//! warm per series — for two simulated hours, then prints the grid
//! snapshot a scheduler would consult: latest hybrid measurement, point
//! forecast, and a 90% prediction interval per host.

use nws::grid::{best_row, GridMonitor, Metric};

fn main() {
    let mut gm = GridMonitor::ucsd(2026);
    println!("weather service: {} CPU resources", gm.registry().len());
    // Two simulated hours: 720 slots of 10 s.
    gm.run_steps(720);

    let rows: Vec<_> = gm.archive().host_rows(gm.now()).collect();
    println!("\ngrid snapshot at t = {:.0}s:", gm.now());
    println!(
        "{:<11} {:>8} {:>10} {:>18}",
        "host", "latest", "forecast", "90% interval"
    );
    for h in &rows {
        let latest = h.latest.expect("every host measured");
        let f = h.forecast.as_ref().expect("every forecaster live");
        let iv = f
            .interval
            .map(|iv| format!("[{:>4.0}%, {:>4.0}%]", iv.lo * 100.0, iv.hi * 100.0))
            .unwrap_or_else(|| "(warming)".to_string());
        println!(
            "{:<11} {:>7.0}% {:>9.0}% {:>18}",
            h.host,
            latest * 100.0,
            f.forecast.value * 100.0,
            iv
        );
    }
    // The placement rule a scheduler applies: the highest fresh forecast.
    let (host, forecast) = best_row(rows.iter().map(|h| {
        let forecast = h.forecast.as_ref().map(|a| a.forecast.value);
        ((h.host, forecast), h.degraded, forecast)
    }))
    .expect("forecasts live");
    println!(
        "\nscheduler verdict: send the next task to {host} ({:.0}% predicted availability)",
        forecast.expect("live") * 100.0
    );

    // The memory also serves raw history for offline analysis.
    let id = gm
        .registry()
        .lookup("thing2", Metric::CpuAvailabilityHybrid)
        .expect("registered");
    let (times, values) = gm.memory().tail(id, 6);
    println!("\nlast minute of thing2 hybrid measurements:");
    for (t, v) in times.zip(values) {
        println!("  t={t:>7.0}s  {:>4.0}%", v * 100.0);
    }
}
