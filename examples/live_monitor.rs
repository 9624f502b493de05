//! Live host monitoring through `/proc` (Linux).
//!
//! ```sh
//! cargo run --release --example live_monitor [n_samples] [interval_secs]
//! ```
//!
//! Applies the paper's Eq. 1 (load average) and Eq. 2 (vmstat) availability
//! formulas to the machine this program runs on, using `/proc/loadavg` and
//! `/proc/stat`, feeds the measurements to the NWS forecaster, and prints a
//! one-step-ahead availability forecast after each sample. This is the
//! library operating as a real monitor rather than against the simulator.
//!
//! On non-Linux platforms the example explains itself and exits cleanly.

use nws::forecast::PredictorBank;
use nws::sensors::proc::{ProcLoadAvgSensor, ProcVmstatSensor};
use std::thread::sleep;
use std::time::Duration;

fn main() {
    let mut args = std::env::args().skip(1);
    let samples: usize = args
        .next()
        .map(|s| s.parse().expect("sample count must be a number"))
        .unwrap_or(10);
    let interval: f64 = args
        .next()
        .map(|s| s.parse().expect("interval must be seconds"))
        .unwrap_or(1.0);

    let load_sensor = ProcLoadAvgSensor::new();
    let mut vmstat_sensor = ProcVmstatSensor::new();

    // Probe once to check we can read /proc at all.
    if let Err(e) = load_sensor.measure() {
        eprintln!("cannot read /proc/loadavg ({e}); this example needs Linux.");
        return;
    }
    // Prime the jiffy counters so the first reported interval is real.
    let _ = vmstat_sensor.measure();

    let mut nws = PredictorBank::nws_default();
    println!(
        "{:>4} {:>12} {:>10} {:>18}",
        "#", "load-avail", "vm-avail", "forecast (method)"
    );
    for i in 1..=samples {
        sleep(Duration::from_secs_f64(interval));
        let load = load_sensor.measure().expect("loadavg readable");
        let vm = vmstat_sensor.measure().expect("stat readable");
        // Forecast the vmstat availability series (the more responsive of
        // the two passive methods at second-scale intervals).
        let forecast = nws.update(vm).expect("live after first sample");
        println!(
            "{i:>4} {:>11.1}% {:>9.1}% {:>11.1}% ({})",
            load * 100.0,
            vm * 100.0,
            forecast.value * 100.0,
            forecast.method
        );
    }
    if let Some(f) = nws.forecast() {
        println!(
            "\nnext-interval CPU availability forecast: {:.1}% — a 60 CPU-second job \
             should take ~{:.0}s",
            f.value * 100.0,
            nws::sched::predicted_runtime(60.0, f.value)
        );
    }
}
