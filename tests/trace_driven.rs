//! Trace-driven simulation: replay preserves sensor-visible behaviour.

use nws::forecast::{evaluate_one_step, PredictorBank};
use nws::sensors::LoadAvgSensor;
use nws::sim::{record_load_trace, Host, HostProfile, LoadTrace, TraceReplay};
use nws::timeseries::Series;

fn availability_series(host: &mut Host, samples: usize) -> Series {
    let mut sensor = LoadAvgSensor::new();
    let mut s = Series::new("avail");
    for _ in 0..samples {
        host.advance(10.0);
        s.push(host.now(), sensor.measure(host))
            .expect("time advances");
    }
    s
}

#[test]
fn replayed_trace_matches_source_statistics() {
    // Record one hour of run-queue samples from thing2.
    let mut source = HostProfile::Thing2.build(77);
    source.advance(1800.0);
    let trace = record_load_trace(&mut source, 5.0, 720);

    // Re-measure the identical realization over the recorded window.
    let mut source_again = HostProfile::Thing2.build(77);
    source_again.advance(2100.0);
    let src = availability_series(&mut source_again, 300);

    // Replay on a clean host, aligned to the same window.
    let mut sink = Host::new("sink", 1);
    sink.add_workload(Box::new(TraceReplay::new("t", trace)));
    sink.advance(300.0);
    let rep = availability_series(&mut sink, 300);

    let mean = |s: &Series| s.values().iter().sum::<f64>() / s.len() as f64;
    assert!(
        (mean(&src) - mean(&rep)).abs() < 0.08,
        "mean availability: source {} vs replay {}",
        mean(&src),
        mean(&rep)
    );
    let mae = |s: &Series| {
        let mut nws = PredictorBank::nws_default();
        evaluate_one_step(&mut nws, s.values())
            .expect("long series")
            .mae
    };
    assert!(
        (mae(&src) - mae(&rep)).abs() < 0.03,
        "one-step MAE: source {} vs replay {}",
        mae(&src),
        mae(&rep)
    );
}

#[test]
fn trace_csv_survives_external_round_trip() {
    let mut host = HostProfile::Gremlin.build(3);
    host.advance(600.0);
    let trace = record_load_trace(&mut host, 5.0, 60);
    let text = trace.to_csv();
    let back = LoadTrace::from_csv(&text).expect("parses");
    assert_eq!(back, trace);
    // And the series view feeds straight into the analysis stack.
    let series = back.to_series("q");
    assert_eq!(series.len(), 60);
}
