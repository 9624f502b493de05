//! The complete weather service: CPU *and* network monitoring together.
//!
//! This is the full NWS of the paper's introduction — "computational grids
//! from which compute cycles can be obtained in the way electrical power is
//! obtained from an electrical power utility" — in one object: host CPU
//! availability (via [`GridMonitor`]) and inter-site network performance
//! (via [`nws_net::LinkMonitor`]) measured on their own periods against
//! one clock — the CPU half's slot count, a network probe cycle closing
//! every twelfth slot — each published into its own [`Archive`], and
//! forecast per series.

use crate::archive::Archive;
use crate::memory::{Memory, MemoryConfig};
use crate::monitor::{GridMonitor, GridMonitorConfig};
use crate::registry::{Metric, Registry, ResourceId};
use crate::service::{ForecastAnswer, ForecastService};
use nws_faults::FaultPlan;
use nws_net::{LinkConfig, LinkMonitor, LinkSample, PROBE_PERIOD};
use nws_runtime::Cadence;
use nws_sim::HostProfile;

/// Memory retention for the network series.
const NET_MEMORY: MemoryConfig = MemoryConfig { retain: 4096 };

/// Measurement slots per network probe cycle (12 on the paper's grid).
const SLOTS_PER_CYCLE: u64 = {
    let slots = PROBE_PERIOD / Cadence::PAPER.measurement_period;
    assert!(
        slots >= 1.0 && slots == slots as u64 as f64,
        "a probe cycle must span whole measurement slots"
    );
    slots as u64
};

/// CPU + network weather under one roof.
pub struct WeatherService {
    cpu: GridMonitor,
    net: LinkMonitor,
    net_archive: Archive,
    /// `(bandwidth id, latency id, link name, capacity)` per link.
    link_ids: Vec<(ResourceId, ResourceId, String, f64)>,
}

/// Publishes one probe cycle's samples (or explicit gaps) into the
/// network archive; `cycle` counts from 1.
fn publish_cycle(
    archive: &mut Archive,
    link_ids: &[(ResourceId, ResourceId, String, f64)],
    cycle: u64,
    samples: &[Option<LinkSample>],
) {
    // The cycle completes at the *end* of its probe period.
    let now = cycle as f64 * PROBE_PERIOD;
    for ((bw_id, lat_id, _, capacity), sample) in link_ids.iter().zip(samples) {
        match sample {
            Some(s) => {
                // Bandwidth is stored in bytes/second and forecast
                // capacity-normalized.
                let normalized = s.bandwidth / capacity;
                archive.reading_as(*bw_id, s.time, s.bandwidth, normalized);
                archive.reading(*lat_id, s.time, s.latency);
            }
            None => {
                // A dropped probe cycle is an explicit gap on both
                // series at the cycle's nominal completion time.
                archive.gap(*bw_id, now);
                archive.gap(*lat_id, now);
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
        Self {
            cpu: GridMonitor::with_faults(profiles, base_seed, GridMonitorConfig::default(), plan),
            net,
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

    /// Runs `slots` measurement slots on the CPU half, then every network
    /// probe cycle whose closing slot the CPU half has now passed. Both
    /// halves count the one slot clock, so however a run is split into
    /// calls they end in the same state.
    pub fn run_steps(&mut self, slots: u64) {
        let before = self.cpu.slots();
        self.cpu.run_steps(slots);
        for cycle in before / SLOTS_PER_CYCLE + 1..=self.cpu.slots() / SLOTS_PER_CYCLE {
            let samples = self.net.probe_cycle();
            publish_cycle(&mut self.net_archive, &self.link_ids, cycle, &samples);
        }
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
        ws.run_steps(120); // 20 minutes: 120 CPU slots, 10 net probes
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
        ws.run_steps(60);
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
        ws.run_steps(12); // 12 CPU slots, 1 net probe cycle
        let r1 = ws.revision();
        assert_ne!(r0, r1, "measurements must invalidate cached answers");
        // No time passed: no change, a cache may keep serving.
        assert_eq!(ws.revision(), r1);
    }

    #[test]
    fn however_the_slots_are_split_the_halves_stay_on_one_clock() {
        let state = |ws: &WeatherService| {
            let samples: Vec<usize> = (ws.link_ids.iter())
                .flat_map(|(bw, lat, ..)| [ws.net_memory().len(*bw), ws.net_memory().len(*lat)])
                .collect();
            (ws.cpu().slots(), samples, ws.revision())
        };
        // 7 x 13 straddles probe boundaries mid-call.
        for (step, calls) in [(6, 2), (5, 12), (13, 7)] {
            let mut split = WeatherService::ucsd(9);
            for _ in 0..calls {
                split.run_steps(step);
            }
            let mut whole = WeatherService::ucsd(9);
            whole.run_steps(step * calls);
            let (slots, samples, revision) = state(&whole);
            assert_eq!(slots, step * calls);
            let cycles = (slots / SLOTS_PER_CYCLE) as usize;
            assert!(samples.iter().all(|&n| n == cycles), "{samples:?}");
            assert_eq!(
                state(&split),
                (slots, samples, revision),
                "{calls} x {step} slots"
            );
        }
    }

    #[test]
    fn a_sample_the_memory_refuses_does_not_reach_the_forecaster() {
        let (bw, lat) = (ResourceId(0), ResourceId(1));
        let link_ids = [(bw, lat, "l".to_string(), 1.0e6)];
        let mut archive = Archive::new(MemoryConfig { retain: 16 });
        let mut publish = |cycle, time, bandwidth, latency| {
            let sample = LinkSample {
                time,
                bandwidth,
                latency,
            };
            publish_cycle(&mut archive, &link_ids, cycle, &[Some(sample)]);
        };
        publish(1, 120.0, 5.0e5, 0.04);
        // A replayed timestamp, then a non-finite bandwidth beside a good
        // latency: the memory takes only the last latency.
        publish(2, 120.0, 9.0e5, 0.09);
        publish(3, 240.0, f64::NAN, 0.05);
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
            ws.run_steps(60);
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
        ws.run_steps(720); // two hours: 60 net cycles, 720 CPU slots
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
