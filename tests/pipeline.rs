//! Cross-crate pipeline tests: simulator → sensors → series → CSV →
//! forecaster, exercised through the public facade the way a downstream
//! user would.

use nws::forecast::PredictorBank;
use nws::grid::{GridMonitor, GridMonitorConfig, Metric, TestSchedule};
use nws::sensors::{HybridSensor, TEST_DURATION_SHORT};
use nws::sim::{Host, HostProfile};
use nws::timeseries::csv::{parse_series, series_to_csv};
use nws::timeseries::Series;

/// Half an hour of one host on the grid monitor (a 10 s test every
/// 5 minutes), returned as one of its stored series.
fn monitored_series(profile: HostProfile, seed: u64, metric: Metric) -> Series {
    let config = GridMonitorConfig {
        ground_truth: Some(TestSchedule {
            period: 300.0,
            duration: TEST_DURATION_SHORT,
        }),
        ..GridMonitorConfig::default()
    };
    let mut grid = GridMonitor::new(&[profile], seed, config);
    grid.run_steps(180);
    let id = grid.registry().lookup(profile.name(), metric);
    grid.memory()
        .series(id.expect("registered"), profile.name())
}

#[test]
fn manual_monitoring_loop_with_public_api() {
    // A user wiring the pieces manually (without the grid monitor).
    // The hybrid is the host's one sensor set: it reads Eq. 1 and Eq. 2
    // itself, every slot, and hands both readings back.
    let mut host = HostProfile::Gremlin.build(31);
    host.advance(600.0);
    let mut hybrid = HybridSensor::default();
    let mut series = Series::new("manual");
    for step in 0..60 {
        host.advance(10.0);
        let value = if step % 6 == 0 {
            hybrid
                .measure_with_probe_retries(&mut host, 0, f64::INFINITY)
                .0
        } else {
            let (value, crossed) = hybrid
                .measure_degraded(&host, false, false)
                .expect("nothing dropped");
            assert!(!crossed, "nothing dropped, so no cross-sensor fallback");
            value
        };
        let both = hybrid.readings().iter().all(Option::is_some);
        assert!(both, "step {step}: the hybrid read both sources");
        series.push(host.now(), value).expect("time advances");
    }
    assert_eq!(series.len(), 60);
    assert!(hybrid.probes_run() >= 10);
    // Ground truth against the last readings.
    let truth = host.run_occupancy_process("test-process", TEST_DURATION_SHORT);
    let last = series.last().expect("non-empty").value;
    assert!(
        (truth - last).abs() < 0.35,
        "hybrid {last} vs test process {truth}"
    );
}

#[test]
fn monitored_series_roundtrips_through_csv() {
    let load = monitored_series(HostProfile::Thing1, 33, Metric::CpuAvailabilityLoad);
    let text = series_to_csv(&load);
    let back = parse_series(&text).expect("csv parses");
    assert_eq!(back.len(), load.len());
    for (a, b) in back.values().iter().zip(load.values()) {
        assert!((a - b).abs() < 1e-9);
    }
}

#[test]
fn forecaster_consumes_monitor_output_directly() {
    let vmstat = monitored_series(HostProfile::Beowulf, 35, Metric::CpuAvailabilityVmstat);
    let mut nws = PredictorBank::nws_default();
    let mut last_forecast = None;
    for point in vmstat.iter() {
        last_forecast = nws.update(point.value);
    }
    let f = last_forecast.expect("forecaster warm");
    assert!((0.0..=1.0).contains(&f.value));
    assert_eq!(nws.observations(), vmstat.len() as u64);
}

#[test]
fn two_hosts_can_be_driven_in_lockstep() {
    // A mini-grid: advance two hosts alternately and compare their state.
    let mut a = HostProfile::Thing2.build(37);
    let mut b = HostProfile::Gremlin.build(37);
    for _ in 0..100 {
        a.advance(10.0);
        b.advance(10.0);
    }
    assert_eq!(a.now(), b.now());
    // The busy workstation should be visibly busier than the light server.
    let la = a.load_average().five_minute();
    let lb = b.load_average().five_minute();
    assert!(la > lb, "thing2 load {la} vs gremlin load {lb}");
}

#[test]
fn ad_hoc_host_with_custom_workload() {
    use nws::sim::workload::{NiceSoaker, Workload};
    // Users can define their own hosts and attach stock workloads.
    let mut host = Host::new("custom-box", 39);
    let rng = host.fork_rng("bg");
    let soaker: Box<dyn Workload> = Box::new(NiceSoaker::new("bg", 120.0, 60.0, rng));
    host.add_workload(soaker);
    host.advance(1200.0);
    let avail = nws::sensors::availability_from_load(host.load_average().one_minute());
    assert!((0.0..=1.0).contains(&avail));
    // The soaker keeps the box partly busy on average.
    let acct = host.accounting();
    let busy = (acct.user + acct.sys) / acct.total();
    assert!(busy > 0.3, "busy = {busy}");
}
