//! Steady-state allocation pin for the fleet monitor.
//!
//! Once a fleet is warm — every memory ring at capacity, every window
//! full, the engine's arenas and the worker pool in place — its rounds
//! allocate nothing, on the dense EWMA lane and on the 1999 predictor
//! bank lane (which refits its AR member every 25th slot), at one thread
//! and at four. Two round shapes are pinned: `run_steps(1)` at
//! `batch_slots = 1` followed by the `best_host()` read a scheduler
//! makes, where slot-major and shard-major commits coincide, and
//! `run_steps(64)` at the default `batch_slots = 64`, where each round
//! commits shard-major — the shape of a throughput run.
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

#[test]
fn warm_fleet_rounds_allocate_nothing_on_either_lane() {
    for (batch_slots, round, rounds) in SHAPES {
        for panel in [FleetPanel::Ewma, FleetPanel::Bank(PanelSpec::Nws1999)] {
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
