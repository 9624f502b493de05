//! The network measurement loop: links → sensors → series → forecasts.

use crate::link::{Link, LinkConfig};
use crate::sensors::{BandwidthSensor, LatencySensor};
use crate::Seconds;
use nws_forecast::{evaluate_one_step, PredictorBank};
use nws_runtime::host_seed;
use nws_timeseries::Series;

/// Seconds between bandwidth probes. The NWS probed network paths far
/// less often than CPUs (probes are expensive): every two minutes.
const PROBE_PERIOD: Seconds = 120.0;

/// Bandwidth probe payload (bytes).
const PROBE_BYTES: f64 = 64.0 * 1024.0;

/// One monitored link and its measurement series.
struct MonitoredLink {
    link: Link,
    bandwidth_sensor: BandwidthSensor,
    latency_sensor: LatencySensor,
    /// Achieved probe throughput (bytes/s).
    bandwidth: Series,
    /// Round-trip latency (seconds).
    latency: Series,
}

/// What one probe cycle yielded on one link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSample {
    /// Link time when the probe completed.
    pub time: Seconds,
    /// Achieved probe throughput (bytes/s).
    pub bandwidth: f64,
    /// Round-trip latency (seconds).
    pub latency: Seconds,
}

/// A summary row for one link after a monitoring run.
#[derive(Debug, Clone)]
pub struct LinkReport {
    /// Link name.
    pub name: String,
    /// Mean achieved probe throughput (bytes/s).
    pub mean_bandwidth: f64,
    /// Mean round-trip latency (seconds).
    pub mean_latency: Seconds,
    /// One-step MAE of the NWS forecaster on the *normalized* bandwidth
    /// series (fraction of link capacity), comparable across links.
    pub bandwidth_forecast_mae: f64,
}

/// Drives NWS-style monitoring over a set of links.
pub struct LinkMonitor {
    links: Vec<MonitoredLink>,
}

impl LinkMonitor {
    /// A small demonstration grid: two WAN paths and one LAN path, each
    /// link's stochastic traffic derived from `base_seed` and its name.
    pub fn demo_grid(base_seed: u64) -> Self {
        let links = [
            ("ucsd->utk", LinkConfig::wan_10mbit()),
            ("ucsd->uva", LinkConfig::wan_10mbit()),
            ("ucsd-lan", LinkConfig::lan_100mbit()),
        ]
        .into_iter()
        .map(|(name, cfg)| MonitoredLink {
            link: Link::new(name, cfg, host_seed(base_seed, name)),
            bandwidth_sensor: BandwidthSensor::new(PROBE_BYTES),
            latency_sensor: LatencySensor::new(),
            bandwidth: Series::new(format!("{name}/bandwidth")),
            latency: Series::new(format!("{name}/latency")),
        })
        .collect();
        Self { links }
    }

    /// Number of monitored links.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// True when no links are monitored.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Runs `probes` probe cycles on every link.
    pub fn run_probes(&mut self, probes: usize) {
        for _ in 0..probes {
            self.probe_cycle();
        }
    }

    /// Runs one probe cycle across every link, in registration order, and
    /// returns what each link yielded.
    pub fn probe_cycle(&mut self) -> Vec<LinkSample> {
        self.links
            .iter_mut()
            .map(|ml| {
                // Latency first (non-intrusive), then the transfer probe,
                // then idle background until the next cycle.
                let rtt = ml.latency_sensor.measure(&ml.link);
                let bw = ml.bandwidth_sensor.measure(&mut ml.link);
                let t = ml.link.now();
                ml.latency.push(t, rtt).expect("time advances");
                ml.bandwidth.push(t, bw).expect("time advances");
                ml.link.advance(PROBE_PERIOD);
                LinkSample {
                    time: t,
                    bandwidth: bw,
                    latency: rtt,
                }
            })
            .collect()
    }

    /// Access to a link's series by name.
    pub fn series(&self, name: &str) -> Option<(&Series, &Series)> {
        self.links
            .iter()
            .find(|ml| ml.link.name() == name)
            .map(|ml| (&ml.bandwidth, &ml.latency))
    }

    /// Per-link summary, including forecast quality on the normalized
    /// bandwidth series (fraction of link capacity, so the panel, tuned
    /// for `[0, 1]` data, behaves).
    pub fn report(&self) -> Vec<LinkReport> {
        self.links
            .iter()
            .map(|ml| {
                let capacity = ml.link.config().capacity;
                let normalized: Vec<f64> = ml
                    .bandwidth
                    .values()
                    .iter()
                    .map(|&b| b / capacity)
                    .collect();
                let mae = {
                    let mut nws = PredictorBank::nws_default();
                    evaluate_one_step(&mut nws, &normalized)
                        .map(|r| r.mae)
                        .unwrap_or(f64::NAN)
                };
                let mean = |s: &Series| {
                    if s.is_empty() {
                        f64::NAN
                    } else {
                        s.values().iter().sum::<f64>() / s.len() as f64
                    }
                };
                LinkReport {
                    name: ml.link.name().to_string(),
                    mean_bandwidth: mean(&ml.bandwidth),
                    mean_latency: mean(&ml.latency),
                    bandwidth_forecast_mae: mae,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monitor_collects_series_per_link() {
        let mut m = LinkMonitor::demo_grid(1);
        m.run_probes(30); // one simulated hour at 2-minute cadence
        assert_eq!(m.len(), 3);
        let (bw, lat) = m.series("ucsd->utk").expect("registered");
        assert_eq!(bw.len(), 30);
        assert_eq!(lat.len(), 30);
        assert!(bw.values().iter().all(|&b| b > 0.0));
        assert!(lat.values().iter().all(|&l| l > 0.0));
    }

    #[test]
    fn lan_is_faster_than_wan() {
        let mut m = LinkMonitor::demo_grid(3);
        m.run_probes(30);
        let report = m.report();
        let get = |name: &str| {
            report
                .iter()
                .find(|r| r.name == name)
                .expect("link present")
                .clone()
        };
        let lan = get("ucsd-lan");
        let wan = get("ucsd->utk");
        assert!(lan.mean_bandwidth > wan.mean_bandwidth * 2.0);
        assert!(lan.mean_latency < wan.mean_latency);
    }

    #[test]
    fn bandwidth_series_is_forecastable() {
        // The headline transfer to network data: NWS one-step forecasting
        // keeps the normalized error in the usable band.
        let mut m = LinkMonitor::demo_grid(5);
        m.run_probes(120); // four simulated hours
        for r in m.report() {
            assert!(
                r.bandwidth_forecast_mae < 0.25,
                "{}: MAE {}",
                r.name,
                r.bandwidth_forecast_mae
            );
        }
    }

    #[test]
    fn deterministic() {
        let run = || {
            let mut m = LinkMonitor::demo_grid(9);
            m.run_probes(10);
            m.report()
                .iter()
                .map(|r| r.mean_bandwidth)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
