//! The complete weather service: CPU *and* network monitoring together.
//!
//! This is the full NWS of the paper's introduction — "computational grids
//! from which compute cycles can be obtained in the way electrical power is
//! obtained from an electrical power utility" — in one object: host CPU
//! availability (via [`GridMonitor`]) and inter-site network performance
//! (via [`nws_net::LinkMonitor`]) measured on their own cadences, each
//! published into its own [`Archive`], and forecast per series.

use crate::archive::Archive;
use crate::memory::{Memory, MemoryConfig};
use crate::monitor::{GridMonitor, GridMonitorConfig};
use crate::registry::{Metric, Registry, ResourceId};
use crate::service::{ForecastAnswer, ForecastService};
use nws_faults::FaultPlan;
use nws_net::{LinkConfig, LinkMonitor, LinkSample, PROBE_PERIOD};
use nws_runtime::{Cadence, Engine, EngineConfig, Stage};
use nws_sim::HostProfile;

/// Memory retention for the network series.
const NET_MEMORY: MemoryConfig = MemoryConfig { retain: 4096 };

/// CPU + network weather under one roof.
pub struct WeatherService {
    cpu: GridMonitor,
    /// The network half as its own engine: the whole [`LinkMonitor`] is
    /// one shard (its probe-drop RNG spans links), one slot = one probe
    /// cycle on the link cadence.
    net: Engine<LinkMonitor>,
    net_archive: Archive,
    /// `(bandwidth id, latency id, link name, capacity)` per link.
    link_ids: Vec<(ResourceId, ResourceId, String, f64)>,
}

/// The commit side of the network engine: publishes each cycle's samples
/// (or explicit gaps) into the network archive.
struct NetStage<'a> {
    archive: &'a mut Archive,
    link_ids: &'a [(ResourceId, ResourceId, String, f64)],
}

impl Stage<LinkMonitor> for NetStage<'_> {
    fn commit(
        &mut self,
        _shard: usize,
        _source: &mut LinkMonitor,
        slot: u64,
        event: &Vec<Option<LinkSample>>,
    ) {
        // The cycle completes at the *end* of its probe period.
        let now = (slot + 1) as f64 * PROBE_PERIOD;
        for ((bw_id, lat_id, _, capacity), sample) in self.link_ids.iter().zip(event) {
            match sample {
                Some(s) => {
                    // Bandwidth is stored in bytes/second and forecast
                    // capacity-normalized.
                    let normalized = s.bandwidth / capacity;
                    self.archive
                        .reading_as(*bw_id, s.time, s.bandwidth, normalized);
                    self.archive.reading(*lat_id, s.time, s.latency);
                }
                None => {
                    // A dropped probe cycle is an explicit gap on both
                    // series at the cycle's nominal completion time.
                    self.archive.gap(*bw_id, now);
                    self.archive.gap(*lat_id, now);
                }
            }
        }
    }
}

impl WeatherService {
    /// Builds the service over host profiles and named links.
    pub fn new(profiles: &[HostProfile], links: Vec<(String, LinkConfig)>, base_seed: u64) -> Self {
        Self::with_faults(profiles, links, base_seed, FaultPlan::none())
    }

    /// Builds the service with fault injection on both halves: the CPU
    /// monitor runs under the plan directly, and network probe cycles
    /// are dropped at the plan's sensor-dropout rate.
    /// [`FaultPlan::none()`] reproduces the fault-free service bit for
    /// bit.
    pub fn with_faults(
        profiles: &[HostProfile],
        links: Vec<(String, LinkConfig)>,
        base_seed: u64,
        plan: FaultPlan,
    ) -> Self {
        let mut net_archive = Archive::new(NET_MEMORY);
        let link_ids = links
            .iter()
            .map(|(name, cfg)| {
                (
                    net_archive.register(name.clone(), Metric::NetworkBandwidth),
                    net_archive.register(name.clone(), Metric::NetworkLatency),
                    name.clone(),
                    cfg.capacity,
                )
            })
            .collect();
        let mut net = LinkMonitor::new(links, base_seed ^ 0x4E45_54FE);
        if !plan.is_none() {
            net.inject_faults(base_seed ^ 0x4E45_54FA, plan.rates().sensor_dropout);
        }
        // The network engine ticks on the link probe cadence: one slot =
        // one probe cycle.
        let net_cadence = Cadence {
            measurement_period: PROBE_PERIOD,
            probe_period: PROBE_PERIOD,
            ..Cadence::PAPER
        };
        Self {
            cpu: GridMonitor::with_faults(profiles, base_seed, GridMonitorConfig::default(), plan),
            net: Engine::new(
                vec![net],
                EngineConfig {
                    cadence: net_cadence,
                    ..EngineConfig::default()
                },
            ),
            net_archive,
            link_ids,
        }
    }

    /// The six-UCSD-host grid plus the demo link set.
    pub fn ucsd(base_seed: u64) -> Self {
        Self::new(
            &HostProfile::all(),
            vec![
                ("ucsd->utk".to_string(), LinkConfig::wan_10mbit()),
                ("ucsd->uva".to_string(), LinkConfig::wan_10mbit()),
                ("ucsd-lan".to_string(), LinkConfig::lan_100mbit()),
            ],
            base_seed,
        )
    }

    /// The CPU half.
    pub fn cpu(&self) -> &GridMonitor {
        &self.cpu
    }

    /// The network registry (link series).
    pub fn net_registry(&self) -> &Registry {
        self.net_archive.registry()
    }

    /// The network measurement memory.
    pub fn net_memory(&self) -> &Memory {
        self.net_archive.memory()
    }

    /// Network forecasts (normalized to link capacity for bandwidth).
    pub fn net_forecasts(&self) -> &ForecastService {
        self.net_archive.forecasts()
    }

    /// Advances both halves by `seconds` of simulated time: the CPU side on
    /// its 10-second measurement cadence, the network side on its probe
    /// cadence, both driven through the event engine and published into
    /// the memories and forecasters.
    pub fn advance(&mut self, seconds: f64) {
        let cpu_steps = (seconds / self.cpu.cadence().measurement_period).round() as u64;
        self.cpu.run_steps(cpu_steps);
        let net_probes = (seconds / PROBE_PERIOD).round() as u64;
        let mut stage = NetStage {
            archive: &mut self.net_archive,
            link_ids: &self.link_ids,
        };
        self.net.run(net_probes, &mut stage);
    }

    /// Change counter over both halves of the weather service: CPU
    /// measurements, network probe cycles, and recorded gaps all bump
    /// it. The serving layer invalidates cached answers when this
    /// moves, so repeated queries between sensor ticks are cache hits.
    pub fn revision(&self) -> u64 {
        self.cpu
            .revision()
            .wrapping_add(self.net_archive.revision())
    }

    /// The standing bandwidth forecast for a link, in bytes/second.
    pub fn bandwidth_forecast(&self, link: &str) -> Option<ForecastAnswer> {
        let (bw_id, _, _, capacity) = self.link_ids.iter().find(|(_, _, name, _)| name == link)?;
        let mut answer = self.net_forecasts().forecast(*bw_id)?;
        answer.forecast.value *= capacity;
        if let Some(iv) = &mut answer.interval {
            iv.forecast *= capacity;
            iv.lo *= capacity;
            iv.hi *= capacity;
        }
        Some(answer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_halves_advance_together() {
        let mut ws = WeatherService::ucsd(3);
        ws.advance(1200.0); // 20 minutes: 120 CPU slots, 10 net probes
        assert_eq!(ws.cpu().slots(), 120);
        let id = ws
            .net_registry()
            .lookup("ucsd->utk", Metric::NetworkBandwidth)
            .expect("registered");
        assert_eq!(ws.net_memory().len(id), 10);
        let fc = ws.bandwidth_forecast("ucsd->utk").expect("warm");
        assert!(
            fc.forecast.value > 1e4,
            "bw forecast = {}",
            fc.forecast.value
        );
        assert!(fc.forecast.value <= 1.25e6 * 1.01);
    }

    #[test]
    fn latency_series_also_published() {
        let mut ws = WeatherService::ucsd(5);
        ws.advance(600.0);
        let id = ws
            .net_registry()
            .lookup("ucsd-lan", Metric::NetworkLatency)
            .expect("registered");
        let latest = ws.net_memory().latest(id).expect("stored");
        assert!(latest.value > 0.0 && latest.value < 1.0);
    }

    #[test]
    fn revision_advances_with_both_halves() {
        let mut ws = WeatherService::ucsd(9);
        let r0 = ws.revision();
        ws.advance(120.0); // 12 CPU slots, 1 net probe cycle
        let r1 = ws.revision();
        assert_ne!(r0, r1, "measurements must invalidate cached answers");
        // No time passed: no change, a cache may keep serving.
        assert_eq!(ws.revision(), r1);
    }

    #[test]
    fn a_sample_the_memory_refuses_does_not_reach_the_forecaster() {
        let (bw, lat) = (ResourceId(0), ResourceId(1));
        let link_ids = [(bw, lat, "l".to_string(), 1.0e6)];
        let mut archive = Archive::new(MemoryConfig { retain: 16 });
        let mut stage = NetStage {
            archive: &mut archive,
            link_ids: &link_ids,
        };
        let mut source = LinkMonitor::demo_grid(1);
        let sample = |time, bandwidth, latency| {
            vec![Some(LinkSample {
                time,
                bandwidth,
                latency,
            })]
        };
        stage.commit(0, &mut source, 0, &sample(120.0, 5.0e5, 0.04));
        // A replayed timestamp, then a non-finite bandwidth beside a good
        // latency: the memory takes only the last latency.
        stage.commit(0, &mut source, 1, &sample(120.0, 9.0e5, 0.09));
        stage.commit(0, &mut source, 2, &sample(240.0, f64::NAN, 0.05));
        let (memory, forecasts) = (archive.memory(), archive.forecasts());
        assert_eq!((memory.len(bw), memory.len(lat)), (1, 2));
        let observed = |id| forecasts.forecast(id).expect("live").observations;
        assert_eq!(observed(bw), 1, "memory and forecaster diverged");
        assert_eq!(observed(lat), 2, "memory and forecaster diverged");
        let standing = forecasts.forecast(bw).expect("live").forecast.value;
        assert_eq!(standing, 0.5, "the refused 9e5 moved the forecast");
    }

    #[test]
    fn unknown_link_has_no_forecast() {
        let ws = WeatherService::ucsd(7);
        assert!(ws.bandwidth_forecast("nonesuch").is_none());
    }

    #[test]
    fn none_plan_matches_fault_free_service_bit_for_bit() {
        let run = |faulted: bool| {
            let mut ws = if faulted {
                WeatherService::with_faults(
                    &HostProfile::all(),
                    vec![("ucsd->utk".to_string(), LinkConfig::wan_10mbit())],
                    3,
                    nws_faults::FaultPlan::none(),
                )
            } else {
                WeatherService::new(
                    &HostProfile::all(),
                    vec![("ucsd->utk".to_string(), LinkConfig::wan_10mbit())],
                    3,
                )
            };
            ws.advance(600.0);
            let fc = ws.bandwidth_forecast("ucsd->utk").map(|a| a.forecast.value);
            let snap = ws.cpu().snapshot();
            (
                fc,
                snap.hosts
                    .iter()
                    .map(|h| h.latest_hybrid)
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn faulted_service_records_net_gaps_and_survives() {
        let mut ws = WeatherService::with_faults(
            &HostProfile::all(),
            vec![("ucsd->utk".to_string(), LinkConfig::wan_10mbit())],
            11,
            nws_faults::FaultPlan::seeded(6, nws_faults::FaultRates::uniform(0.25)),
        );
        ws.advance(7200.0); // two hours: 60 net cycles, 720 CPU slots
        let bw_id = ws
            .net_registry()
            .lookup("ucsd->utk", Metric::NetworkBandwidth)
            .expect("registered");
        assert!(
            ws.net_memory().gap_count(bw_id) > 0,
            "25% probe drops over 60 cycles"
        );
        assert!(ws.net_memory().len(bw_id) > 0, "some cycles survive");
        assert!(ws.bandwidth_forecast("ucsd->utk").is_some());
        assert!(ws.cpu().fault_stats().gaps > 0);
    }
}
