//! Trace-driven simulation: record a host's load, replay it, re-measure.
//!
//! ```sh
//! cargo run --release --example trace_replay
//! ```
//!
//! The original NWS analyses were trace-driven. This example records two
//! hours of run-queue samples from the busy `thing2` profile, saves the
//! trace as CSV, replays it on a clean host, and verifies that the
//! *sensor-visible* behaviour survives the round trip: load averages,
//! Eq. 1 availability, and the NWS one-step forecasting error all match
//! the source host closely.

use nws::core::plot::ascii_series;
use nws::forecast::{evaluate_one_step, PredictorBank};
use nws::sensors::LoadAvgSensor;
use nws::sim::{record_load_trace, Host, HostProfile, LoadTrace, TraceReplay};
use nws::timeseries::Series;

fn measure_availability(host: &mut Host, samples: usize) -> Series {
    let mut sensor = LoadAvgSensor::new();
    let mut series = Series::new(format!("{}/avail", host.name()));
    for _ in 0..samples {
        host.advance(10.0);
        series
            .push(host.now(), sensor.measure(host))
            .expect("time advances");
    }
    series
}

fn main() {
    // 1. Record two hours of run-queue samples from the source host.
    let mut source = HostProfile::Thing2.build(99);
    source.advance(1800.0);
    let trace = record_load_trace(&mut source, 5.0, 1440); // 2 h at 5 s
    println!(
        "recorded {} samples over {:.0}s from thing2: mean run-queue {:.2}",
        trace.len(),
        trace.span(),
        trace.mean_level()
    );

    // 2. Persist and reload (the CSV is also readable by nwscast --trace).
    let path = std::env::temp_dir().join("thing2-trace.csv");
    trace.save(&path).expect("temp dir writable");
    let reloaded = LoadTrace::load(&path).expect("round trip");
    assert_eq!(reloaded, trace);
    println!("saved + reloaded {} (bit-identical)", path.display());

    // 3. Rebuild the source host from the same seed (identical workload
    //    realization) and measure availability over the SAME window the
    //    trace covers...
    //    (skipping 300 s so the replay's load averages below have the same
    //    warm-up).
    let mut source_again = HostProfile::Thing2.build(99);
    source_again.advance(2100.0);
    let source_series = measure_availability(&mut source_again, 660);

    // 4. ...and replay the trace on a clean host over the same span.
    let mut sink = Host::new("replayed-thing2", 1);
    sink.add_workload(Box::new(TraceReplay::new("t2", reloaded)));
    sink.advance(300.0); // replay time 300 s == source time 2100 s
    let sink_series = measure_availability(&mut sink, 660);

    println!("\nsource availability:");
    println!("{}", ascii_series(&source_series, 90, 8));
    println!("replayed availability:");
    println!("{}", ascii_series(&sink_series, 90, 8));

    // 5. Compare what a scheduler would care about.
    let mean = |s: &Series| s.values().iter().sum::<f64>() / s.len() as f64;
    println!(
        "mean availability: source {:.2} vs replay {:.2}",
        mean(&source_series),
        mean(&sink_series)
    );
    let mae = |s: &Series| {
        let mut nws = PredictorBank::nws_default();
        evaluate_one_step(&mut nws, s.values())
            .expect("long series")
            .mae
    };
    println!(
        "NWS one-step MAE:  source {:.3} vs replay {:.3}",
        mae(&source_series),
        mae(&sink_series)
    );
    println!(
        "\n(the replay reproduces the run-queue process, so sensors and\n\
         forecasters behave alike even though the underlying processes differ)"
    );
    let _ = std::fs::remove_file(&path);
}
