//! Steady-state allocation pin for the fleet monitor.
//!
//! Once a fleet is warm — every memory ring at capacity, every window
//! full, the engine's arenas and the worker pool in place — its rounds
//! allocate nothing, on the default one-member EWMA bank and on the
//! 1999 predictor bank (which refits its AR member every 25th slot), at
//! one thread and at four. Two round shapes are pinned: `run_steps(1)` at
//! `batch_slots = 1` followed by the `best_host()` read a scheduler
//! makes, where slot-major and shard-major commits coincide, and
//! `run_steps(64)` at the default `batch_slots = 64`, where each round
//! commits shard-major — the shape of a throughput run.
//!
//! Construction is pinned too: building a 1,024-host fleet may request
//! at most 32 bytes per host more than the fleet of separate banks,
//! dense forecasts and counters did — room for the forecaster store's
//! per-series scalars, and none for interval state the fleet does not
//! use.
//!
//! One `#[test]`, because the thread setting and the allocator counters
//! are process-global.

use nws_bench::alloc_counter::{self, CountingAllocator};
use nws_forecast::PanelSpec;
use nws_grid::{FleetConfig, FleetMonitor, FleetPanel};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Past the retain window's ring doubling and the longest predictor
/// window (the AR member fits on 120 points).
const WARM_SLOTS: u64 = 400;

/// `(batch_slots, slots per round, rounds)`.
const SHAPES: [(usize, u64, u64); 2] = [(1, 1, 50), (64, 64, 4)];

/// Hosts in the construction pin.
const BUILT_HOSTS: usize = 1_024;

/// Bytes `FleetMonitor::new` requested at `BUILT_HOSTS` hosts, one
/// thread, per panel, before the fleet kept its forecasts in a
/// `ForecastService` (measured with this allocator, the 1999 panel's
/// shared layout already resolved).
const BUILT_BEFORE: [(PanelSpec, u64); 2] = [
    (PanelSpec::EwmaOnly { gain: 0.25 }, 561_560),
    (PanelSpec::Nws1999, 9_310_208),
];

/// What the forecaster store may add per host.
const BUILT_SLACK_PER_HOST: u64 = 32;

fn construction_stays_within_the_pin() {
    nws_runtime::set_threads(Some(1));
    for (spec, before) in BUILT_BEFORE {
        let config = FleetConfig {
            hosts: BUILT_HOSTS,
            panel: FleetPanel::Bank(spec),
            ..FleetConfig::default()
        };
        // Resolves the panel's shared layout outside the count.
        drop(FleetMonitor::new(FleetConfig { hosts: 1, ..config }));
        let (fleet, built) = alloc_counter::measure(|| FleetMonitor::new(config));
        drop(fleet);
        let bound = before + BUILT_SLACK_PER_HOST * BUILT_HOSTS as u64;
        println!(
            "{spec:?}: {} B requested ({:.1} B/host), bound {bound}",
            built.bytes,
            built.bytes as f64 / BUILT_HOSTS as f64
        );
        assert!(
            built.bytes <= bound,
            "{spec:?}: {} B > {bound}",
            built.bytes
        );
    }
    nws_runtime::set_threads(None);
}

#[test]
fn warm_fleet_rounds_allocate_nothing_on_either_panel() {
    construction_stays_within_the_pin();
    for (batch_slots, round, rounds) in SHAPES {
        for panel in [
            FleetPanel::Bank(PanelSpec::EwmaOnly { gain: 0.25 }),
            FleetPanel::Bank(PanelSpec::Nws1999),
        ] {
            for threads in [1, 4] {
                nws_runtime::set_threads(Some(threads));
                let mut fleet = FleetMonitor::new(FleetConfig {
                    hosts: 256,
                    batch_slots,
                    panel,
                    ..FleetConfig::default()
                });
                fleet.run_steps(WARM_SLOTS);
                let ((), steady) = alloc_counter::measure(|| {
                    for _ in 0..rounds {
                        fleet.run_steps(round);
                        std::hint::black_box(fleet.best_host());
                    }
                });
                nws_runtime::set_threads(None);
                assert_eq!(fleet.slots(), WARM_SLOTS + round * rounds);
                assert!(fleet.best_host().is_some());
                assert_eq!(
                    steady.calls, 0,
                    "{panel:?} threads={threads} batch={batch_slots}: warm rounds allocated"
                );
            }
        }
    }
}
