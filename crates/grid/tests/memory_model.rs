//! Model-based property tests for the columnar measurement store.
//!
//! The production [`Memory`] keeps each series as structure-of-arrays
//! columns inside a compacting ring. These tests drive it with random
//! operation sequences alongside a deliberately naive array-of-structs
//! reference model (a bounded `VecDeque` of points per series) and demand
//! that every observable — extracts, borrowed slices, tails, counters,
//! revisions — agrees exactly, bit for bit. Any divergence introduced by
//! the ring cursor, compaction, or eviction logic shows up as a concrete
//! failing operation sequence.

use nws_grid::{Memory, MemoryConfig, ResourceId};
use nws_timeseries::TimePoint;
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::{BTreeMap, VecDeque};

#[derive(Debug, Clone, Copy)]
struct RefPoint {
    time: f64,
    value: f64,
}

/// Naive per-series state: exactly the semantics `Memory` documents,
/// implemented the obvious way with no sharing, cursors, or compaction.
#[derive(Debug, Default)]
struct RefSeries {
    points: VecDeque<RefPoint>,
    gaps: VecDeque<f64>,
    dropped: u64,
    revision: u64,
}

/// Array-of-structs reference model of the whole memory.
#[derive(Debug)]
struct RefMemory {
    retain: usize,
    series: BTreeMap<u64, RefSeries>,
    global_revision: u64,
}

impl RefMemory {
    fn new(retain: usize) -> Self {
        Self {
            retain,
            series: BTreeMap::new(),
            global_revision: 0,
        }
    }

    fn append(&mut self, id: u64, time: f64, value: f64) -> bool {
        if !value.is_finite() || !time.is_finite() {
            return false;
        }
        let s = self.series.entry(id).or_default();
        if let Some(last) = s.points.back() {
            if time <= last.time {
                s.dropped += 1;
                return false;
            }
        }
        if s.points.len() == self.retain {
            s.points.pop_front();
        }
        s.points.push_back(RefPoint { time, value });
        s.revision += 1;
        self.global_revision += 1;
        true
    }

    fn record_gap(&mut self, id: u64, time: f64) {
        let s = self.series.entry(id).or_default();
        if s.gaps.len() == self.retain {
            s.gaps.pop_front();
        }
        s.gaps.push_back(time);
        s.revision += 1;
        self.global_revision += 1;
    }

    fn get(&self, id: u64) -> Option<&RefSeries> {
        self.series.get(&id)
    }
}

/// One randomly generated operation against both stores.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Append at `clock + delta` (delta may be zero or negative, which
    /// the store must reject as out of order).
    Append { id: u64, delta: i32, value: f64 },
    /// Append a NaN value (must be rejected without other effects).
    AppendNanValue { id: u64 },
    /// Append at an infinite timestamp (must be rejected).
    AppendInfiniteTime { id: u64, value: f64 },
    /// Record an explicit gap at the current clock.
    RecordGap { id: u64 },
}

/// Strategy: a tuple per op, decoded into an [`Op`]. Kind 0–11 is a
/// plain append (mostly forward in time, sometimes backwards), 12 a NaN
/// value, 13 an infinite timestamp, 14–15 a gap record.
fn decode_op((kind, id, delta, centivalue): (u8, u64, i32, i32)) -> Op {
    match kind % 16 {
        12 => Op::AppendNanValue { id },
        13 => Op::AppendInfiniteTime {
            id,
            value: f64::from(centivalue) / 100.0,
        },
        14 | 15 => Op::RecordGap { id },
        _ => Op::Append {
            id,
            delta,
            value: f64::from(centivalue) / 100.0,
        },
    }
}

fn op_sequence(max_ops: usize) -> impl Strategy<Value = Vec<Op>> {
    vec(
        (0u8..16, 0u64..3, -4i32..12, -100_000i32..100_000),
        0..max_ops,
    )
    .prop_map(|raw| raw.into_iter().map(decode_op).collect())
}

/// Owned extract shape (the old NWS `extract` API), rebuilt from the
/// borrowed tail; the model diffs against the owned form on purpose.
fn extract(mem: &Memory, id: ResourceId, n: usize) -> Vec<TimePoint> {
    let (times, values) = mem.tail(id, n);
    times
        .zip(values)
        .map(|(t, &v)| TimePoint::new(t, v))
        .collect()
}

/// Checks every observable of one series against the model.
fn assert_series_agrees(mem: &Memory, model: &RefMemory, id: u64) -> Result<(), TestCaseError> {
    let rid = ResourceId(id);
    let reference = model.get(id);
    let ref_points: Vec<RefPoint> = reference
        .map(|s| s.points.iter().copied().collect())
        .unwrap_or_default();

    prop_assert_eq!(mem.len(rid), ref_points.len());
    prop_assert_eq!(mem.is_empty(rid), ref_points.is_empty());
    prop_assert_eq!(mem.dropped(rid), reference.map_or(0, |s| s.dropped));
    prop_assert_eq!(mem.revision(rid), reference.map_or(0, |s| s.revision));
    prop_assert_eq!(mem.gap_count(rid), reference.map_or(0, |s| s.gaps.len()));
    let expected_gaps: Vec<f64> = reference
        .map(|s| s.gaps.iter().copied().collect())
        .unwrap_or_default();
    prop_assert_eq!(mem.gaps(rid), expected_gaps);

    // Owned extract, borrowed full columns, and the latest point must
    // all be bit-identical views of the model's window.
    let extracted = extract(mem, rid, usize::MAX);
    prop_assert_eq!(extracted.len(), ref_points.len());
    let times: Vec<f64> = mem.with_series(rid, |t, _| t.collect());
    let values = mem.values(rid);
    prop_assert_eq!(times.len(), ref_points.len());
    prop_assert_eq!(values.len(), ref_points.len());
    for (i, p) in ref_points.iter().enumerate() {
        prop_assert_eq!(extracted[i].time.to_bits(), p.time.to_bits());
        prop_assert_eq!(extracted[i].value.to_bits(), p.value.to_bits());
        prop_assert_eq!(times[i].to_bits(), p.time.to_bits());
        prop_assert_eq!(values[i].to_bits(), p.value.to_bits());
    }
    match (mem.latest(rid), ref_points.last()) {
        (None, None) => {}
        (Some(got), Some(want)) => {
            prop_assert_eq!(got.time.to_bits(), want.time.to_bits());
            prop_assert_eq!(got.value.to_bits(), want.value.to_bits());
        }
        (got, want) => prop_assert!(
            false,
            "latest() disagrees: store={:?} model={:?}",
            got.is_some(),
            want.is_some()
        ),
    }
    prop_assert_eq!(
        mem.last_time(rid).map(f64::to_bits),
        ref_points.last().map(|p| p.time.to_bits())
    );

    // Tails of every length, plus one past the end: the most recent
    // min(n, len) points, and extract must stay consistent with tail.
    for n in 0..=ref_points.len() + 1 {
        let (tail_times, tail_values) = mem.tail(rid, n);
        let tail_times: Vec<f64> = tail_times.collect();
        let keep = n.min(ref_points.len());
        prop_assert_eq!(tail_times.len(), keep);
        prop_assert_eq!(tail_values.len(), keep);
        let skip = ref_points.len() - keep;
        for (i, p) in ref_points.iter().skip(skip).enumerate() {
            prop_assert_eq!(tail_times[i].to_bits(), p.time.to_bits());
            prop_assert_eq!(tail_values[i].to_bits(), p.value.to_bits());
        }
        let ex = extract(mem, rid, n);
        prop_assert_eq!(ex.len(), keep);
        for (i, p) in ex.iter().enumerate() {
            prop_assert_eq!(p.time.to_bits(), tail_times[i].to_bits());
            prop_assert_eq!(p.value.to_bits(), tail_values[i].to_bits());
        }
    }

    // with_series sees the same columns as the individual accessors.
    mem.with_series(rid, |t, v| {
        assert_eq!(t.len(), ref_points.len());
        assert_eq!(v.len(), ref_points.len());
    });
    Ok(())
}

proptest! {
    #[test]
    fn columnar_store_matches_aos_reference_model(
        retain in 1usize..8,
        ops in op_sequence(160),
    ) {
        let mut mem = Memory::new(MemoryConfig { retain });
        let mut model = RefMemory::new(retain);
        // Per-series clocks so out-of-order generation is meaningful even
        // when ops interleave across series.
        let mut clocks: BTreeMap<u64, f64> = BTreeMap::new();

        for op in &ops {
            match *op {
                Op::Append { id, delta, value } => {
                    let clock = clocks.entry(id).or_insert(0.0);
                    let time = *clock + f64::from(delta);
                    let stored = mem.store(ResourceId(id), time, value);
                    let model_stored = model.append(id, time, value);
                    prop_assert!(
                        stored == model_stored,
                        "store outcome diverged at t={time} (delta {delta})"
                    );
                    if stored {
                        *clock = time;
                    }
                }
                Op::AppendNanValue { id } => {
                    let time = clocks.get(&id).copied().unwrap_or(0.0) + 1.0;
                    prop_assert!(!mem.store(ResourceId(id), time, f64::NAN));
                    prop_assert!(!model.append(id, time, f64::NAN));
                }
                Op::AppendInfiniteTime { id, value } => {
                    prop_assert!(!mem.store(ResourceId(id), f64::INFINITY, value));
                    prop_assert!(!model.append(id, f64::INFINITY, value));
                }
                Op::RecordGap { id } => {
                    let time = clocks.get(&id).copied().unwrap_or(0.0);
                    mem.record_gap(ResourceId(id), time);
                    model.record_gap(id, time);
                }
            }
            // Global counters must track each other after every op: a
            // rejected measurement must not look like a change.
            prop_assert_eq!(mem.global_revision(), model.global_revision);
        }

        for id in 0..3u64 {
            assert_series_agrees(&mem, &model, id)?;
        }
        prop_assert_eq!(
            mem.total_dropped(),
            model.series.values().map(|s| s.dropped).sum::<u64>()
        );
        let expected_ids: Vec<ResourceId> = model
            .series
            .iter()
            .filter(|(_, s)| !s.points.is_empty())
            .map(|(&id, _)| ResourceId(id))
            .collect();
        prop_assert_eq!(mem.resource_ids(), expected_ids);
    }

    #[test]
    fn long_monotone_ingest_keeps_exactly_the_window(
        retain in 1usize..6,
        total in 0usize..64,
        stride in 1u32..5,
    ) {
        // Pure in-order ingest far past the bound: the survivors are the
        // last `retain` points regardless of how often the ring compacts.
        let mut mem = Memory::new(MemoryConfig { retain });
        let mut model = RefMemory::new(retain);
        for i in 0..total {
            let t = (i as f64) * f64::from(stride);
            prop_assert!(mem.store(ResourceId(9), t, t * 0.25));
            prop_assert!(model.append(9, t, t * 0.25));
        }
        assert_series_agrees(&mem, &model, 9)?;
    }
}
