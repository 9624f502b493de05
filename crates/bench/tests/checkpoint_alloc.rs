//! Allocation pin for a checkpoint: the snapshot streams into its file.
//!
//! `GridMonitor::checkpoint` writes the memory's snapshot through one
//! fixed chunk with a running CRC, so what it requests from the
//! allocator is that chunk and a few paths — not a second copy of the
//! store. On six hosts warmed one simulated day the snapshot is ~3.3 MB;
//! the checkpoint may request at most 256 KiB.
//!
//! One `#[test]`, because the allocator counters are process-global.

use nws_bench::alloc_counter::{self, CountingAllocator};
use nws_grid::{GridMonitor, SnapshotStore, Wal};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// One simulated day of 10-second slots: every day-long window full.
const DAY_SLOTS: u64 = 8_640;

/// What one checkpoint may request.
const CHECKPOINT_BOUND: u64 = 256 * 1024;

#[test]
fn a_checkpoint_requests_a_chunk_not_a_snapshot() {
    let dir = std::env::temp_dir().join(format!("nws-checkpoint-alloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = SnapshotStore::new(&dir, 2).expect("creatable");
    let mut grid = GridMonitor::ucsd(7);
    grid.attach_journal(Wal::new());
    grid.run_steps(DAY_SLOTS);
    let snapshot = grid.memory().snapshot_bytes().len() as u64;
    for seq in 1..=2 {
        let (report, used) = alloc_counter::measure(|| grid.checkpoint(&store, seq));
        report.expect("checkpoint into a temp dir");
        println!(
            "checkpoint {seq}: {} B requested in {} calls, snapshot {snapshot} B",
            used.bytes, used.calls
        );
        assert!(
            used.bytes <= CHECKPOINT_BOUND,
            "checkpoint {seq} requested {} B (snapshot {snapshot} B)",
            used.bytes
        );
    }
    assert!(snapshot > 3_000_000, "a day-warm grid: {snapshot} B");
    let _ = std::fs::remove_dir_all(&dir);
}
