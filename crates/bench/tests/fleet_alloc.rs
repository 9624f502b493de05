//! Steady-state allocation pin for the fleet monitor.
//!
//! Once a fleet is warm — every memory ring at capacity, every window
//! full, the engine's arenas and the worker pool in place — a round of
//! `run_steps(1)` followed by the `best_host()` read a scheduler makes
//! allocates nothing, on the dense EWMA lane and on the 1999 predictor
//! bank lane (which refits its AR member every 25th round), at one
//! thread and at four.
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
const ROUNDS: u64 = 50;

#[test]
fn warm_fleet_rounds_allocate_nothing_on_either_lane() {
    for panel in [FleetPanel::Ewma, FleetPanel::Bank(PanelSpec::Nws1999)] {
        for threads in [1, 4] {
            nws_runtime::set_threads(Some(threads));
            let mut fleet = FleetMonitor::new(FleetConfig {
                hosts: 256,
                batch_slots: 1,
                panel,
                ..FleetConfig::default()
            });
            fleet.run_steps(WARM_SLOTS);
            let ((), steady) = alloc_counter::measure(|| {
                for _ in 0..ROUNDS {
                    fleet.run_steps(1);
                    std::hint::black_box(fleet.best_host());
                }
            });
            nws_runtime::set_threads(None);
            assert_eq!(fleet.slots(), WARM_SLOTS + ROUNDS);
            assert!(fleet.best_host().is_some());
            assert_eq!(
                steady.calls, 0,
                "{panel:?} threads={threads}: warm rounds allocated"
            );
        }
    }
}
