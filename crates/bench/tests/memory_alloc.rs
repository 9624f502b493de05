//! Allocation pin for the measurement memory: times cost no column.
//!
//! `Memory` keeps each series' values in one column, reserved once at
//! `retain + retain / 4` slots, and its times on a time axis, which holds
//! a series on the 10-second cadence as one run. Fed 24 such series for
//! two simulated days under the default day-long window, it may request
//! the 24 value columns plus 64 KiB for everything else; a times column
//! beside each would be another 2 MB.
//!
//! One `#[test]`, because the allocator counters are process-global.

use nws_bench::alloc_counter::{self, CountingAllocator};
use nws_grid::{Memory, MemoryConfig, ResourceId};
use nws_runtime::Cadence;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Six hosts' four series, as the grid monitor registers them.
const SERIES: u64 = 24;

/// Simulated days fed: the first fills every window, the second evicts
/// through a compaction cycle and more.
const DAYS: u64 = 2;

/// What everything but the value columns may request: segment tables,
/// per-series metadata and the time axes.
const OVERHEAD: u64 = 64 * 1024;

#[test]
fn slot_aligned_series_request_their_value_columns_and_no_times_column() {
    let retain = MemoryConfig::default().retain;
    let column = (retain + retain / 4) as u64 * 8;
    let bound = SERIES * column + OVERHEAD;
    let (memory, used) = alloc_counter::measure(|| {
        let mut memory = Memory::new(MemoryConfig::default());
        for slot in 0..DAYS * retain as u64 {
            let time = Cadence::PAPER.slot_time(slot);
            for id in 0..SERIES {
                let value = ((slot * 7 + id) % 100) as f64 / 100.0;
                assert!(memory.append(ResourceId(id), time, value).is_stored());
            }
        }
        memory
    });
    println!(
        "{SERIES} series over {DAYS} days: {} B requested in {} calls, bound {bound} B",
        used.bytes, used.calls
    );
    assert!(
        used.bytes <= bound,
        "{} B requested, {bound} B allowed",
        used.bytes
    );
    for id in 0..SERIES {
        assert_eq!(memory.len(ResourceId(id)), retain, "series {id} is full");
    }
}
