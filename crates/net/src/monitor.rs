//! The network measurement loop: links → sensors → series → forecasts.

use crate::link::{Link, LinkConfig};
use crate::sensors::{BandwidthSensor, LatencySensor};
use crate::Seconds;
use nws_forecast::{evaluate_one_step, PredictorBank};
use nws_runtime::host_seed;
use nws_stats::Rng;
use nws_timeseries::Series;

/// Seconds between bandwidth probes. The NWS probed network paths far
/// less often than CPUs (probes are expensive): every two minutes.
pub const PROBE_PERIOD: Seconds = 120.0;

/// Bandwidth probe payload (bytes).
pub const PROBE_BYTES: f64 = 64.0 * 1024.0;

/// One monitored link: its measurement series and forecast state.
pub struct MonitoredLink {
    link: Link,
    bandwidth_sensor: BandwidthSensor,
    latency_sensor: LatencySensor,
    /// Achieved probe throughput (bytes/s).
    pub bandwidth: Series,
    /// Round-trip latency (seconds).
    pub latency: Series,
    forecaster: PredictorBank,
}

/// What one probe cycle yielded on one link: the samples a consumer
/// (memory, forecaster) should publish. `None` in a cycle's vector means
/// that link's probe was lost this cycle.
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
    /// Standing bandwidth forecast (bytes/s), if warm.
    pub forecast: Option<f64>,
}

/// Drives NWS-style monitoring over a set of links.
pub struct LinkMonitor {
    links: Vec<MonitoredLink>,
    /// Probe-drop fault injection: seeded RNG + per-cycle drop rate.
    faults: Option<(Rng, f64)>,
    /// Probe cycles lost to injected drops.
    dropped: u64,
}

impl LinkMonitor {
    /// Creates a monitor over named link configurations; each link's
    /// stochastic traffic derives from `base_seed` and its name.
    pub fn new(links: Vec<(String, LinkConfig)>, base_seed: u64) -> Self {
        let links = links
            .into_iter()
            .map(|(name, cfg)| MonitoredLink {
                link: Link::new(name.clone(), cfg, host_seed(base_seed, &name)),
                bandwidth_sensor: BandwidthSensor::new(PROBE_BYTES),
                latency_sensor: LatencySensor::new(),
                bandwidth: Series::new(format!("{name}/bandwidth")),
                latency: Series::new(format!("{name}/latency")),
                forecaster: PredictorBank::nws_default(),
            })
            .collect();
        Self {
            links,
            faults: None,
            dropped: 0,
        }
    }

    /// Turns on deterministic probe-drop fault injection: each probe
    /// cycle on each link is independently lost with probability
    /// `drop_rate`. A dropped cycle records no samples — the forecaster
    /// is told about the gap and link time still advances. A zero rate
    /// leaves the monitor bit-identical to the fault-free one.
    ///
    /// # Panics
    ///
    /// Panics unless `drop_rate` is in `[0, 1)`.
    pub fn inject_faults(&mut self, seed: u64, drop_rate: f64) {
        assert!(
            (0.0..1.0).contains(&drop_rate),
            "drop rate must be in [0, 1): {drop_rate}"
        );
        self.faults = (drop_rate > 0.0).then(|| (Rng::new(seed), drop_rate));
    }

    /// Probe cycles lost to injected drops so far.
    pub fn dropped_probes(&self) -> u64 {
        self.dropped
    }

    /// A small demonstration grid: two WAN paths and one LAN path.
    pub fn demo_grid(base_seed: u64) -> Self {
        Self::new(
            vec![
                ("ucsd->utk".to_string(), LinkConfig::wan_10mbit()),
                ("ucsd->uva".to_string(), LinkConfig::wan_10mbit()),
                ("ucsd-lan".to_string(), LinkConfig::lan_100mbit()),
            ],
            base_seed,
        )
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
    /// returns what each link yielded (`None` = the probe was lost to an
    /// injected drop). The fault RNG is shared across links and drawn in
    /// link order, so one cycle is the atomic unit of determinism.
    pub fn probe_cycle(&mut self) -> Vec<Option<LinkSample>> {
        let mut samples = Vec::with_capacity(self.links.len());
        for ml in &mut self.links {
            if let Some((rng, rate)) = &mut self.faults {
                if rng.chance(*rate) {
                    // The probe never completes: no samples this
                    // cycle, the forecaster ages out its windows, and
                    // the link's clock (and traffic) move on.
                    ml.forecaster.note_gap();
                    ml.link.advance(PROBE_PERIOD);
                    self.dropped += 1;
                    samples.push(None);
                    continue;
                }
            }
            // Latency first (non-intrusive), then the transfer probe,
            // then idle background until the next cycle.
            let rtt = ml.latency_sensor.measure(&ml.link);
            let bw = ml.bandwidth_sensor.measure(&mut ml.link);
            let t = ml.link.now();
            ml.latency.push(t, rtt).expect("time advances");
            ml.bandwidth.push(t, bw).expect("time advances");
            // Feed the forecaster the capacity-normalized series so
            // its panel (tuned for [0,1] data) behaves.
            ml.forecaster.observe(bw / ml.link.config().capacity);
            ml.link.advance(PROBE_PERIOD);
            samples.push(Some(LinkSample {
                time: t,
                bandwidth: bw,
                latency: rtt,
            }));
        }
        samples
    }

    /// Access to a link's series by name.
    pub fn series(&self, name: &str) -> Option<(&Series, &Series)> {
        self.links
            .iter()
            .find(|ml| ml.link.name() == name)
            .map(|ml| (&ml.bandwidth, &ml.latency))
    }

    /// Per-link summary, including forecast quality on the normalized
    /// bandwidth series.
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
                    forecast: ml.forecaster.forecast().map(|f| f.value * capacity),
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
            assert!(r.forecast.is_some(), "{} has no forecast", r.name);
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

    #[test]
    fn injected_drops_lose_cycles_but_time_still_advances() {
        let mut m = LinkMonitor::demo_grid(13);
        m.inject_faults(0xD20B, 0.3);
        m.run_probes(60);
        let dropped = m.dropped_probes();
        assert!(dropped > 0, "30% drops over 180 link-cycles");
        let (bw, lat) = m.series("ucsd->utk").expect("registered");
        assert!(bw.len() < 60, "dropped cycles record no samples");
        assert_eq!(bw.len(), lat.len());
        // Samples keep strictly increasing times on the probe grid even
        // across dropped cycles (the link's clock advanced regardless).
        let times = bw.times();
        for w in times.windows(2) {
            assert!(w[1] > w[0]);
        }
        // Forecasts survive a gappy stream.
        assert!(m.report().iter().all(|r| r.forecast.is_some()));
    }

    #[test]
    fn zero_drop_rate_is_bit_identical_to_fault_free() {
        let run = |inject: bool| {
            let mut m = LinkMonitor::demo_grid(4);
            if inject {
                m.inject_faults(7, 0.0);
            }
            m.run_probes(20);
            m.report()
                .iter()
                .map(|r| (r.mean_bandwidth, r.mean_latency, r.forecast))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    #[should_panic(expected = "drop rate")]
    fn inject_faults_rejects_bad_rate() {
        LinkMonitor::demo_grid(1).inject_faults(1, 1.0);
    }
}
