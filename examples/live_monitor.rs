//! Live host monitoring through `/proc` (Linux).
//!
//! ```sh
//! cargo run --release --example live_monitor [n_samples] [interval_secs]
//! ```
//!
//! Applies the paper's Eq. 1 (load average) and Eq. 2 (vmstat) sensors to
//! the machine this program runs on: each interval it reads one
//! `/proc/stat` and `/proc/loadavg` `Sample` and runs it through the same
//! `LoadAvgSensor` and `VmstatSensor`, smoothing included, that measure the
//! simulator; on a multi-CPU machine the load average and the run queue
//! are read per CPU, so both report a share of one CPU. It feeds the
//! vmstat measurements to the NWS forecaster and prints a one-step-ahead
//! availability forecast after each sample. This is the library operating
//! as a real monitor rather than against the simulator.
//!
//! On non-Linux platforms the example explains itself and exits cleanly.

use nws::forecast::PredictorBank;
use nws::sensors::proc::Sample;
use nws::sensors::{LoadAvgSensor, VmstatSensor};
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

    let mut load_sensor = LoadAvgSensor::new();
    let mut vmstat_sensor = VmstatSensor::new();

    // Read once to check we can read /proc at all, and prime the vmstat
    // counters so the first reported interval is real.
    match Sample::read() {
        Ok(first) => {
            vmstat_sensor.measure(&first);
        }
        Err(e) => {
            eprintln!("cannot read /proc ({e}); this example needs Linux.");
            return;
        }
    }

    let mut nws = PredictorBank::nws_default();
    println!(
        "{:>4} {:>12} {:>10} {:>18}",
        "#", "load-avail", "vm-avail", "forecast (method)"
    );
    for i in 1..=samples {
        sleep(Duration::from_secs_f64(interval));
        let sample = Sample::read().expect("/proc readable");
        let load = load_sensor.measure(&sample);
        let vm = vmstat_sensor.measure(&sample);
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
