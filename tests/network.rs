//! Cross-crate network integration: links + sensors + forecasting,
//! exercised through the facade.

use nws::forecast::PredictorBank;
use nws::net::{BandwidthSensor, LatencySensor, Link, LinkConfig, LinkMonitor};

#[test]
fn manual_probe_loop_feeds_the_forecaster() {
    let mut link = Link::new("path", LinkConfig::wan_10mbit(), 21);
    link.advance(600.0);
    let mut bw_sensor = BandwidthSensor::nws_default();
    let mut lat_sensor = LatencySensor::new();
    let mut nws = PredictorBank::nws_default();
    let capacity = link.config().capacity;
    for _ in 0..60 {
        let rtt = lat_sensor.measure(&link);
        assert!(rtt >= 2.0 * link.config().base_latency - 1e-12);
        let bw = bw_sensor.measure(&mut link);
        nws.update(bw / capacity);
        link.advance(120.0);
    }
    let f = nws.forecast().expect("warm");
    assert!((0.0..=1.0).contains(&f.value));
    // A half-utilized 10 Mbit/s path: forecasts should sit well inside
    // the open interval, not pinned at either extreme.
    assert!(f.value > 0.1 && f.value < 1.0, "forecast = {}", f.value);
}

#[test]
fn link_monitor_report_is_consistent_with_its_series() {
    let mut m = LinkMonitor::demo_grid(23);
    m.run_probes(40);
    for r in m.report() {
        let (bw, lat) = m.series(&r.name).expect("registered");
        let mean_bw = bw.values().iter().sum::<f64>() / bw.len() as f64;
        assert!((mean_bw - r.mean_bandwidth).abs() < 1e-9);
        let mean_lat = lat.values().iter().sum::<f64>() / lat.len() as f64;
        assert!((mean_lat - r.mean_latency).abs() < 1e-9);
    }
}
