//! A live "grid weather map": the miniature NWS over the six UCSD hosts.
//!
//! ```sh
//! cargo run --release --example weather_map
//! ```
//!
//! Runs the whole weather service — sensors on every host publishing into
//! the measurement memory on the 10-second NWS cadence, forecasters kept
//! warm per series — for two simulated hours, then prints the grid
//! snapshot a scheduler would consult: latest hybrid measurement, point
//! forecast, and a 90% prediction interval per host.

use nws::grid::{Metric, WeatherService};

fn main() {
    let mut ws = WeatherService::ucsd(2026);
    println!(
        "weather service: {} CPU resources + {} network resources",
        ws.cpu().registry().len(),
        ws.net_registry().len()
    );
    // Two simulated hours: 720 CPU slots of 10 s, links on 2-min probes.
    ws.run_steps(720);

    let snap = ws.cpu().snapshot();
    println!("\ngrid snapshot at t = {:.0}s:", snap.time);
    println!(
        "{:<11} {:>8} {:>10} {:>18}",
        "host", "latest", "forecast", "90% interval"
    );
    for h in &snap.hosts {
        let latest = h.latest_hybrid.expect("every host measured");
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
    let best = snap.best_host().expect("forecasts live");
    println!(
        "\nscheduler verdict: send the next task to {} ({:.0}% predicted availability)",
        best.host,
        best.forecast.as_ref().expect("live").forecast.value * 100.0
    );

    // The memory also serves raw history for offline analysis.
    let id = ws
        .cpu()
        .registry()
        .lookup("thing2", Metric::CpuAvailabilityHybrid)
        .expect("registered");
    let (times, values) = ws.cpu().memory().tail(id, 6);
    println!("\nlast minute of thing2 hybrid measurements:");
    for (t, v) in times.iter().zip(values) {
        println!("  t={t:>7.0}s  {:>4.0}%", v * 100.0);
    }

    // …and the network half reports the weather between sites.
    println!("\nnetwork weather:");
    for link in ["ucsd->utk", "ucsd->uva", "ucsd-lan"] {
        let f = ws.bandwidth_forecast(link).expect("links probed");
        let iv = f
            .interval
            .map(|iv| {
                format!(
                    " [{:.1}, {:.1}] Mbit/s",
                    iv.lo * 8.0 / 1e6,
                    iv.hi * 8.0 / 1e6
                )
            })
            .unwrap_or_default();
        println!(
            "  {:<10} forecast {:>6.2} Mbit/s{}",
            link,
            f.forecast.value * 8.0 / 1e6,
            iv
        );
    }
}
