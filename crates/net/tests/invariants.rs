//! Property-based invariants of the link model.

use nws_net::{BandwidthSensor, LatencySensor, Link, LinkConfig, LinkMonitor};
use nws_runtime::Fnv1a;
use nws_stats::Pareto;
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = LinkConfig> {
    (
        1e5f64..1e7,   // capacity
        0.001f64..0.2, // base latency
        0.2f64..30.0,  // arrival mean
        1.1f64..1.9,   // pareto shape
        1e4f64..1e6,   // pareto scale
    )
        .prop_map(
            |(capacity, base_latency, flow_arrival_mean, shape, scale)| LinkConfig {
                capacity,
                base_latency,
                flow_arrival_mean,
                flow_size: Pareto::new(shape, scale).with_cap(scale * 1e3),
                queue_delay_per_flow: 0.002,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn transfer_never_beats_capacity(cfg in arb_config(), seed in any::<u64>(), mb in 0.1f64..4.0) {
        let mut link = Link::new("l", cfg, seed);
        link.advance(60.0);
        let bytes = mb * 1e6;
        let elapsed = link.transfer(bytes);
        // Physical bound: cannot move bytes faster than the capacity, and
        // the setup latency is always paid.
        let floor = bytes / link.config().capacity + link.config().base_latency;
        prop_assert!(elapsed >= floor - 0.011, "elapsed {elapsed} < floor {floor}");
    }

    #[test]
    fn probe_throughput_is_bounded_by_capacity(cfg in arb_config(), seed in any::<u64>()) {
        let mut link = Link::new("l", cfg, seed);
        link.advance(120.0);
        let mut sensor = BandwidthSensor::nws_default();
        for _ in 0..5 {
            let bw = sensor.measure(&mut link);
            prop_assert!(bw > 0.0);
            prop_assert!(bw <= link.config().capacity * 1.001, "bw {bw} over capacity");
            link.advance(20.0);
        }
    }

    #[test]
    fn rtt_is_at_least_twice_base_latency(cfg in arb_config(), seed in any::<u64>(), dt in 0.0f64..600.0) {
        let base = cfg.base_latency;
        let mut link = Link::new("l", cfg, seed);
        link.advance(dt);
        let rtt = LatencySensor::new().measure(&link);
        prop_assert!(rtt >= 2.0 * base - 1e-12);
        prop_assert!(rtt.is_finite());
    }

    #[test]
    fn background_advance_is_deterministic(cfg in arb_config(), seed in any::<u64>()) {
        let run = |cfg: &LinkConfig| {
            let mut l = Link::new("l", cfg.clone(), seed);
            l.advance(300.0);
            (l.active_flows(), l.delivered_bytes())
        };
        prop_assert_eq!(run(&cfg), run(&cfg));
    }

    #[test]
    fn delivered_bytes_monotone(cfg in arb_config(), seed in any::<u64>()) {
        let mut link = Link::new("l", cfg, seed);
        let mut prev = 0.0;
        for _ in 0..10 {
            link.advance(30.0);
            let d = link.delivered_bytes();
            prop_assert!(d >= prev);
            prev = d;
        }
    }
}

/// Fingerprint of `LinkMonitor::demo_grid(7)` over 180 probe cycles, the
/// stream `repro net` and the fleet's `transfer-time` scenario read.
const GOLDEN_LINKS: u64 = 0xe720_682b_66c4_523d;

#[test]
fn demo_grid_link_stream_is_pinned_bit_for_bit() {
    let mut monitor = LinkMonitor::demo_grid(7);
    let mut h = Fnv1a::new();
    for _ in 0..180 {
        for s in monitor.probe_cycle() {
            h.word(s.time.to_bits());
            h.word(s.bandwidth.to_bits());
            h.word(s.latency.to_bits());
        }
    }
    for r in monitor.report() {
        h.bytes(r.name.as_bytes());
        h.word(r.mean_bandwidth.to_bits());
        h.word(r.mean_latency.to_bits());
        h.word(r.bandwidth_forecast_mae.to_bits());
    }
    assert_eq!(h.finish(), GOLDEN_LINKS, "got {:#018x}", h.finish());
}
