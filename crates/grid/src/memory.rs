//! Bounded measurement storage (the NWS persistent-state memory).
//!
//! The NWS memory stores a bounded history per series and serves
//! `extract`-style queries: "the most recent *n* measurements of resource
//! *r*". Storage here is an in-process ring buffer per resource; the NWS's
//! disk persistence is out of scope (the forecasting behaviour depends only
//! on the retained window).
//!
//! # Columnar layout, sharded segments
//!
//! Each series is stored structure-of-arrays: one contiguous `times`
//! column and one contiguous `values` column, plus a `start` cursor
//! marking the oldest live point (a *compacting ring*: eviction advances
//! the cursor, and the dead prefix is reclaimed with one `copy_within`
//! once it grows as large as the retention window, so appends stay
//! amortized O(1) and the backing storage never exceeds twice the
//! retention bound). Because the live window is always one contiguous
//! slice per column, analytics and wire encoding borrow measurements
//! directly — [`Memory::values`], [`Memory::tail`], [`Memory::with_series`]
//! — instead of cloning them out.
//!
//! Segments are addressed by [`ResourceId`] *directly*: the registry
//! hands out dense sequential ids and registers each host's series
//! adjacently, so the segment table is a flat vector in which every
//! shard (host) owns a small contiguous block of column segments.
//! Ingest is therefore an O(1) index, not a tree walk — at fleet scale
//! (10⁵ hosts × 4 series) the per-append id lookup is what dominates
//! the commit stage. An append touches one segment and its metadata
//! plus `global_revision`, which is only a count: the grid monitor
//! commits slot-major, so its journal and revision bumps follow the
//! canonical order regardless of how production was parallelized, and
//! the unjournaled fleet may commit shard-major — each segment still
//! sees its own appends in order, and the count ends the same.

use crate::registry::ResourceId;
use crate::wal::{crc32, Wal, WalError, WalRecord, SNAPSHOT_MAGIC};
use nws_runtime::Fnv1a;
use nws_timeseries::{Seconds, Series, TimePoint};
use std::collections::VecDeque;

/// Memory sizing.
#[derive(Debug, Clone, Copy)]
pub struct MemoryConfig {
    /// Measurements retained per series (the NWS default order of
    /// magnitude; a day of 10-second measurements is 8 640).
    pub retain: usize,
}

impl Default for MemoryConfig {
    fn default() -> Self {
        Self { retain: 8640 }
    }
}

/// Why [`Memory::append`] accepted or refused a measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOutcome {
    /// The measurement was appended to the series.
    Stored,
    /// The timestamp was not strictly after the series' latest point
    /// (late or duplicate delivery). Counted per series.
    RejectedOutOfOrder,
    /// The value or timestamp was NaN/infinite.
    RejectedNonFinite,
}

impl StoreOutcome {
    /// True when the measurement was stored.
    pub fn is_stored(&self) -> bool {
        matches!(self, StoreOutcome::Stored)
    }
}

/// One series' measurements in columnar (SoA) form: parallel `times` and
/// `values` columns whose live window is `[start..]` of each vector.
#[derive(Debug, Default)]
struct ColumnSeries {
    times: Vec<Seconds>,
    values: Vec<f64>,
    /// Index of the oldest live point; everything before it is evicted
    /// and awaits compaction.
    start: usize,
}

impl ColumnSeries {
    fn len(&self) -> usize {
        self.times.len() - self.start
    }

    fn times(&self) -> &[Seconds] {
        &self.times[self.start..]
    }

    fn values(&self) -> &[f64] {
        &self.values[self.start..]
    }

    fn last_time(&self) -> Option<Seconds> {
        self.times.last().copied()
    }

    /// Appends one point, evicting the oldest when the live window is at
    /// the retention bound. The dead prefix is compacted away once it
    /// reaches `retain` slots, so the backing vectors stay under twice
    /// the bound and each point is moved at most once per `retain`
    /// evictions — amortized O(1).
    fn push(&mut self, time: Seconds, value: f64, retain: usize) {
        if self.len() == retain {
            self.start += 1;
            if self.start >= retain {
                let live = self.times.len() - self.start;
                self.times.copy_within(self.start.., 0);
                self.times.truncate(live);
                self.values.copy_within(self.start.., 0);
                self.values.truncate(live);
                self.start = 0;
            }
        }
        self.times.push(time);
        self.values.push(value);
    }
}

/// Per-series bookkeeping beyond the measurement columns themselves.
#[derive(Debug, Clone, Default)]
struct SeriesMeta {
    /// Out-of-order (or duplicate-time) deliveries dropped.
    dropped: u64,
    /// Timestamps of slots that resolved to no measurement at all,
    /// bounded like the measurement ring.
    gaps: VecDeque<Seconds>,
    /// Bumped on every accepted append or recorded gap —
    /// anything that changes what an extract of this series returns.
    /// Serving-layer caches compare revisions to decide whether a
    /// cached answer is still current.
    revision: u64,
}

/// The measurement store.
///
/// Column segments and their metadata live in flat vectors indexed by
/// the raw [`ResourceId`]; the registry's dense id allocation keeps the
/// tables compact and each shard's segments contiguous.
#[derive(Debug)]
pub struct Memory {
    config: MemoryConfig,
    store: Vec<ColumnSeries>,
    meta: Vec<SeriesMeta>,
    /// Bumped whenever any series changes; lets whole-memory views
    /// (snapshots) validate a cached answer with one comparison.
    global_revision: u64,
    /// Optional write-ahead log: when attached, every accepted append,
    /// recorded gap, and counted out-of-order drop is journaled in
    /// commit order (see [`crate::wal`]).
    journal: Option<Wal>,
}

impl Memory {
    /// Creates an empty memory.
    ///
    /// # Panics
    ///
    /// Panics if `retain == 0`.
    pub fn new(config: MemoryConfig) -> Self {
        assert!(config.retain > 0, "memory must retain at least one point");
        Self {
            config,
            store: Vec::new(),
            meta: Vec::new(),
            global_revision: 0,
            journal: None,
        }
    }

    /// Attaches a write-ahead log. From here on, every state change
    /// ([`StoreOutcome::Stored`] appends, recorded gaps, counted
    /// out-of-order drops) is journaled in commit order. Attach before
    /// the first measurement for a complete log.
    pub fn attach_journal(&mut self, wal: Wal) {
        self.journal = Some(wal);
    }

    /// The attached journal, if any.
    pub fn journal(&self) -> Option<&Wal> {
        self.journal.as_ref()
    }

    /// Checkpoints the memory: writes snapshot `seq` to `store`
    /// atomically, then rotates the attached journal up to the offset
    /// the snapshot covers. This is the loop that bounds WAL growth —
    /// everything the snapshot captures leaves the journal, everything
    /// after it stays replayable. Without an attached journal the
    /// snapshot is still written (covering offset 0) and nothing
    /// rotates.
    ///
    /// Rotation only happens after the snapshot has been durably
    /// renamed into place, so a crash between the two steps costs disk
    /// space, never recoverability.
    pub fn checkpoint(
        &mut self,
        store: &crate::wal::SnapshotStore,
        seq: u64,
    ) -> Result<crate::wal::CheckpointReport, crate::wal::WalError> {
        let snapshot = self.snapshot_bytes();
        let covered = self.journal.as_ref().map_or(0, |w| w.len());
        let snapshot_path = store.save(seq, &snapshot)?;
        let rotated = match self.journal.as_mut() {
            Some(wal) => wal.rotate(covered)?,
            None => 0,
        };
        Ok(crate::wal::CheckpointReport {
            snapshot_path,
            covered: covered as u64,
            rotated: rotated as u64,
        })
    }

    /// The memory's sizing configuration.
    pub fn config(&self) -> MemoryConfig {
        self.config
    }

    /// The column segment for a series, if it has ever been touched.
    fn seg(&self, id: ResourceId) -> Option<&ColumnSeries> {
        self.store.get(id.0 as usize)
    }

    /// Per-series metadata, if the series has ever been touched.
    fn meta_of(&self, id: ResourceId) -> Option<&SeriesMeta> {
        self.meta.get(id.0 as usize)
    }

    /// Grows the segment tables to cover `id` and returns its index.
    /// Ids are registry-dense, so growth is bounded by the number of
    /// registered series.
    fn ensure(&mut self, id: ResourceId) -> usize {
        let idx = id.0 as usize;
        if idx >= self.store.len() {
            self.store.resize_with(idx + 1, ColumnSeries::default);
            self.meta.resize_with(idx + 1, SeriesMeta::default);
        }
        idx
    }

    /// Stores one measurement. Timestamps within a series must be strictly
    /// increasing; out-of-order measurements are rejected with `false`
    /// (the NWS drops them too — clocks only move forward on one sensor).
    ///
    /// Convenience wrapper over [`Memory::append`].
    pub fn store(&mut self, id: ResourceId, time: Seconds, value: f64) -> bool {
        self.append(id, time, value).is_stored()
    }

    /// Stores one measurement, reporting *why* a refused one was refused.
    /// Out-of-order rejections are counted per series (see
    /// [`Memory::dropped`]) so fault-injected delivery reordering is
    /// observable rather than silent.
    pub fn append(&mut self, id: ResourceId, time: Seconds, value: f64) -> StoreOutcome {
        let out = self.apply_append(id, time, value);
        if let Some(wal) = &mut self.journal {
            match out {
                StoreOutcome::Stored => wal.log(&WalRecord::Append { id, time, value }),
                // The drop counter is fingerprinted state, so the
                // rejection itself is journaled (the rejected value is
                // not — replay only needs the counter bump).
                StoreOutcome::RejectedOutOfOrder => wal.log(&WalRecord::Drop { id }),
                // Non-finite rejections change nothing an extract or
                // fingerprint can see; nothing to journal.
                StoreOutcome::RejectedNonFinite => {}
            }
        }
        out
    }

    /// [`Memory::append`] without the journaling side: the state
    /// transition itself, shared by live ingest and WAL replay.
    fn apply_append(&mut self, id: ResourceId, time: Seconds, value: f64) -> StoreOutcome {
        if !value.is_finite() || !time.is_finite() {
            return StoreOutcome::RejectedNonFinite;
        }
        let idx = self.ensure(id);
        let buf = &mut self.store[idx];
        if let Some(last) = buf.last_time() {
            if time <= last {
                self.meta[idx].dropped += 1;
                return StoreOutcome::RejectedOutOfOrder;
            }
        }
        buf.push(time, value, self.config.retain);
        self.meta[idx].revision += 1;
        self.global_revision += 1;
        StoreOutcome::Stored
    }

    /// Records that the slot at `time` produced no measurement for this
    /// series — an explicit gap, distinct from "nothing happened". Gap
    /// timestamps are retained under the same bound as measurements.
    pub fn record_gap(&mut self, id: ResourceId, time: Seconds) {
        self.apply_gap(id, time);
        if let Some(wal) = &mut self.journal {
            wal.log(&WalRecord::Gap { id, time });
        }
    }

    fn apply_gap(&mut self, id: ResourceId, time: Seconds) {
        let idx = self.ensure(id);
        let meta = &mut self.meta[idx];
        if meta.gaps.len() == self.config.retain {
            meta.gaps.pop_front();
        }
        meta.gaps.push_back(time);
        meta.revision += 1;
        self.global_revision += 1;
    }

    /// Applies one replayed WAL record without journaling it — the
    /// recovery and replication path. Applying a log produced by this
    /// memory's journal in order reproduces the original state bit for
    /// bit: same column bytes, same revision counters, same
    /// [`Memory::fingerprint`].
    pub fn apply(&mut self, rec: &WalRecord) {
        self.replay(rec);
    }

    /// [`Memory::apply`], reporting whether the record changed what an
    /// extract returns (a stored measurement, a gap) — exactly the
    /// records the [`Archive`](crate::Archive) shows its forecaster.
    pub(crate) fn replay(&mut self, rec: &WalRecord) -> bool {
        match *rec {
            WalRecord::Append { id, time, value } => self.apply_append(id, time, value).is_stored(),
            WalRecord::Gap { id, time } => {
                self.apply_gap(id, time);
                true
            }
            WalRecord::Drop { id } => {
                // Mirrors the RejectedOutOfOrder branch: the drop
                // counter moves, revisions do not.
                let idx = self.ensure(id);
                self.meta[idx].dropped += 1;
                false
            }
        }
    }

    /// Change counter for one series: any append or gap bumps it. Equal
    /// revisions guarantee an identical extract, so a serving cache can
    /// answer without touching the ring.
    pub fn revision(&self, id: ResourceId) -> u64 {
        self.meta_of(id).map_or(0, |m| m.revision)
    }

    /// Change counter over the whole memory (any series).
    pub fn global_revision(&self) -> u64 {
        self.global_revision
    }

    /// Number of out-of-order deliveries dropped from a series.
    pub fn dropped(&self, id: ResourceId) -> u64 {
        self.meta_of(id).map_or(0, |m| m.dropped)
    }

    /// Total out-of-order drops across all series.
    pub fn total_dropped(&self) -> u64 {
        self.meta.iter().map(|m| m.dropped).sum()
    }

    /// Number of recorded gaps for a series (bounded by retention).
    pub fn gap_count(&self, id: ResourceId) -> usize {
        self.meta_of(id).map_or(0, |m| m.gaps.len())
    }

    /// The recorded gap timestamps for a series, oldest first.
    pub fn gaps(&self, id: ResourceId) -> Vec<Seconds> {
        self.meta_of(id)
            .map_or_else(Vec::new, |m| m.gaps.iter().copied().collect())
    }

    /// Number of measurements currently held for a series.
    pub fn len(&self, id: ResourceId) -> usize {
        self.seg(id).map_or(0, ColumnSeries::len)
    }

    /// True when the series holds no measurements (or is unknown).
    pub fn is_empty(&self, id: ResourceId) -> bool {
        self.len(id) == 0
    }

    /// The most recent measurement of a series.
    pub fn latest(&self, id: ResourceId) -> Option<TimePoint> {
        self.seg(id).and_then(|b| {
            let (times, values) = (b.times(), b.values());
            times
                .last()
                .map(|&t| TimePoint::new(t, *values.last().expect("columns in lockstep")))
        })
    }

    /// The retained measurement values of a series, oldest first, as one
    /// borrowed contiguous slice — the zero-copy path analytics kernels
    /// read. Empty for unknown series.
    pub fn values(&self, id: ResourceId) -> &[f64] {
        self.seg(id).map_or(&[], ColumnSeries::values)
    }

    /// The retained measurement timestamps of a series, oldest first,
    /// borrowed. Empty for unknown series.
    pub fn times(&self, id: ResourceId) -> &[Seconds] {
        self.seg(id).map_or(&[], ColumnSeries::times)
    }

    /// The most recent `n` measurements as borrowed `(times, values)`
    /// column slices, oldest first — the zero-copy `extract`.
    pub fn tail(&self, id: ResourceId, n: usize) -> (&[Seconds], &[f64]) {
        match self.seg(id) {
            None => (&[], &[]),
            Some(buf) => {
                let (times, values) = (buf.times(), buf.values());
                let skip = times.len().saturating_sub(n);
                (&times[skip..], &values[skip..])
            }
        }
    }

    /// Runs `f` over the series' borrowed `(times, values)` columns —
    /// handy when the caller holds the memory behind a lock and wants to
    /// compute without cloning or fighting the borrow checker. Unknown
    /// series yield empty slices.
    pub fn with_series<R>(&self, id: ResourceId, f: impl FnOnce(&[Seconds], &[f64]) -> R) -> R {
        match self.seg(id) {
            None => f(&[], &[]),
            Some(buf) => f(buf.times(), buf.values()),
        }
    }

    /// The full retained history as a [`Series`] (for analysis code).
    pub fn series(&self, id: ResourceId, name: impl Into<String>) -> Series {
        let mut s = Series::with_capacity(name, self.len(id));
        self.with_series(id, |times, values| {
            for (&t, &v) in times.iter().zip(values) {
                s.push(t, v).expect("ring buffer is ordered");
            }
        });
        s
    }

    /// Series ids with at least one stored measurement.
    pub fn resource_ids(&self) -> Vec<ResourceId> {
        self.store
            .iter()
            .enumerate()
            .filter(|(_, b)| b.len() > 0)
            .map(|(idx, _)| ResourceId(idx as u64))
            .collect()
    }

    /// FNV-1a fingerprint of everything an extract can observe: the
    /// retention bound, every live column window bit for bit, gap
    /// rings, drop counts, and all revision counters. Two memories with
    /// equal fingerprints answer every query identically — the
    /// crash-recovery and replication tests pin exactly this.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.word(self.config.retain as u64);
        h.word(self.store.len() as u64);
        for idx in 0..self.store.len() {
            let buf = &self.store[idx];
            let meta = &self.meta[idx];
            h.word(buf.len() as u64);
            for &t in buf.times() {
                h.word(t.to_bits());
            }
            for &v in buf.values() {
                h.word(v.to_bits());
            }
            h.word(meta.dropped);
            h.word(meta.gaps.len() as u64);
            for &g in &meta.gaps {
                h.word(g.to_bits());
            }
            h.word(meta.revision);
        }
        h.word(self.global_revision);
        h.finish()
    }

    /// Serializes the full columnar state — live windows, gap rings,
    /// drop counts, revisions — as one CRC-trailed snapshot covering
    /// the attached journal's current offset (0 when unjournaled).
    /// Restoring it and replaying the WAL suffix from that offset
    /// reproduces any later state bit for bit.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let wal_offset = self.journal.as_ref().map_or(0, |w| w.len() as u64);
        self.snapshot_bytes_at(wal_offset)
    }

    /// [`Memory::snapshot_bytes`] with an explicit WAL offset (for
    /// callers journaling externally).
    pub fn snapshot_bytes_at(&self, wal_offset: u64) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        let put = |out: &mut Vec<u8>, v: u64| out.extend_from_slice(&v.to_le_bytes());
        put(&mut out, self.config.retain as u64);
        put(&mut out, wal_offset);
        put(&mut out, self.global_revision);
        put(&mut out, self.store.len() as u64);
        for idx in 0..self.store.len() {
            let buf = &self.store[idx];
            let meta = &self.meta[idx];
            put(&mut out, buf.len() as u64);
            for &t in buf.times() {
                put(&mut out, t.to_bits());
            }
            for &v in buf.values() {
                put(&mut out, v.to_bits());
            }
            put(&mut out, meta.dropped);
            put(&mut out, meta.gaps.len() as u64);
            for &g in &meta.gaps {
                put(&mut out, g.to_bits());
            }
            put(&mut out, meta.revision);
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Restores a memory from snapshot bytes, returning it with the WAL
    /// offset the snapshot covers. Total: bad magic, a checksum
    /// mismatch, truncation, or out-of-bounds counts yield a typed
    /// [`WalError::Snapshot`], never a panic — recovery treats any of
    /// them as "no snapshot" and falls back to a genesis replay.
    pub fn from_snapshot(bytes: &[u8]) -> Result<(Memory, u64), WalError> {
        if bytes.len() < SNAPSHOT_MAGIC.len() + 4 {
            return Err(WalError::Snapshot("too short"));
        }
        if bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
            return Err(WalError::Snapshot("bad magic"));
        }
        let body_end = bytes.len() - 4;
        let want = u32::from_le_bytes(bytes[body_end..].try_into().expect("4 bytes"));
        if crc32(&bytes[..body_end]) != want {
            return Err(WalError::Snapshot("checksum mismatch"));
        }
        let body = &bytes[..body_end];
        let mut off = SNAPSHOT_MAGIC.len();
        let take = |off: &mut usize| -> Result<u64, WalError> {
            let end = *off + 8;
            if end > body.len() {
                return Err(WalError::Snapshot("truncated body"));
            }
            let v = u64::from_le_bytes(body[*off..end].try_into().expect("8 bytes"));
            *off = end;
            Ok(v)
        };
        let retain = take(&mut off)? as usize;
        if retain == 0 {
            return Err(WalError::Snapshot("zero retention"));
        }
        let wal_offset = take(&mut off)?;
        let global_revision = take(&mut off)?;
        let nseries = take(&mut off)? as usize;
        // Every series costs at least 4 u64s; bound the count by the
        // bytes actually present before allocating tables.
        if nseries > (body.len() - off) / 32 + 1 {
            return Err(WalError::Snapshot("series count out of bounds"));
        }
        let mut store = Vec::with_capacity(nseries);
        let mut meta = Vec::with_capacity(nseries);
        for _ in 0..nseries {
            let len = take(&mut off)? as usize;
            if len > retain || len * 16 > body.len() - off {
                return Err(WalError::Snapshot("series length out of bounds"));
            }
            let mut buf = ColumnSeries {
                times: Vec::with_capacity(len),
                values: Vec::with_capacity(len),
                start: 0,
            };
            for _ in 0..len {
                buf.times.push(f64::from_bits(take(&mut off)?));
            }
            for _ in 0..len {
                buf.values.push(f64::from_bits(take(&mut off)?));
            }
            let dropped = take(&mut off)?;
            let ngaps = take(&mut off)? as usize;
            if ngaps > retain || ngaps * 8 > body.len() - off {
                return Err(WalError::Snapshot("gap count out of bounds"));
            }
            let mut gaps = VecDeque::with_capacity(ngaps);
            for _ in 0..ngaps {
                gaps.push_back(f64::from_bits(take(&mut off)?));
            }
            let revision = take(&mut off)?;
            store.push(buf);
            meta.push(SeriesMeta {
                dropped,
                gaps,
                revision,
            });
        }
        if off != body.len() {
            return Err(WalError::Snapshot("trailing bytes"));
        }
        Ok((
            Memory {
                config: MemoryConfig { retain },
                store,
                meta,
                global_revision,
                journal: None,
            },
            wal_offset,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rid(n: u64) -> ResourceId {
        ResourceId(n)
    }

    /// Owned extract shape (the old NWS `extract` API), rebuilt from the
    /// borrowed tail for tests that diff against it.
    fn extract(m: &Memory, id: ResourceId, n: usize) -> Vec<TimePoint> {
        let (times, values) = m.tail(id, n);
        times
            .iter()
            .zip(values)
            .map(|(&t, &v)| TimePoint::new(t, v))
            .collect()
    }

    #[test]
    fn store_and_extract_in_order() {
        let mut m = Memory::new(MemoryConfig::default());
        assert!(m.store(rid(1), 0.0, 0.5));
        assert!(m.store(rid(1), 10.0, 0.6));
        assert!(m.store(rid(1), 20.0, 0.7));
        let pts = extract(&m, rid(1), 2);
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].value, 0.6);
        assert_eq!(pts[1].value, 0.7);
        assert_eq!(m.latest(rid(1)).expect("stored").value, 0.7);
        assert_eq!(m.len(rid(1)), 3);
    }

    #[test]
    fn rejects_out_of_order_and_nonfinite() {
        let mut m = Memory::new(MemoryConfig::default());
        assert!(m.store(rid(1), 10.0, 0.5));
        assert!(!m.store(rid(1), 10.0, 0.6)); // equal time
        assert!(!m.store(rid(1), 5.0, 0.6)); // past
        assert!(!m.store(rid(1), 20.0, f64::NAN));
        assert!(!m.store(rid(1), f64::INFINITY, 0.5));
        assert_eq!(m.len(rid(1)), 1);
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut m = Memory::new(MemoryConfig { retain: 3 });
        for i in 0..10 {
            assert!(m.store(rid(7), i as f64, i as f64 / 10.0));
        }
        assert_eq!(m.len(rid(7)), 3);
        let pts = extract(&m, rid(7), 10);
        let values: Vec<f64> = pts.iter().map(|p| p.value).collect();
        assert_eq!(values, vec![0.7, 0.8, 0.9]);
    }

    #[test]
    fn borrowed_columns_match_extract_across_compactions() {
        // Push far past the retention bound so the ring compacts several
        // times; the borrowed view must stay the live window throughout.
        let mut m = Memory::new(MemoryConfig { retain: 5 });
        for i in 0..37 {
            m.store(rid(3), i as f64, (i as f64).sin());
            let pts = extract(&m, rid(3), usize::MAX);
            let times = m.times(rid(3));
            let values = m.values(rid(3));
            assert_eq!(times.len(), pts.len());
            assert_eq!(values.len(), pts.len());
            for (j, p) in pts.iter().enumerate() {
                assert_eq!(times[j], p.time);
                assert_eq!(values[j], p.value);
            }
        }
        assert_eq!(m.len(rid(3)), 5);
    }

    #[test]
    fn tail_returns_most_recent_slices() {
        let mut m = Memory::new(MemoryConfig { retain: 4 });
        for i in 0..9 {
            m.store(rid(1), i as f64, i as f64 / 10.0);
        }
        let (times, values) = m.tail(rid(1), 2);
        assert_eq!(times, &[7.0, 8.0]);
        assert_eq!(values, &[0.7, 0.8]);
        // Oversized n returns the whole live window.
        let (times, values) = m.tail(rid(1), 100);
        assert_eq!(times.len(), 4);
        assert_eq!(values[0], 0.5);
        // Unknown series: empty slices, no allocation, no panic.
        let (times, values) = m.tail(rid(9), 5);
        assert!(times.is_empty() && values.is_empty());
    }

    #[test]
    fn with_series_borrows_both_columns() {
        let mut m = Memory::new(MemoryConfig::default());
        for i in 0..6 {
            m.store(rid(2), i as f64 * 10.0, 0.1 * i as f64);
        }
        let (sum_t, sum_v) = m.with_series(rid(2), |times, values| {
            (times.iter().sum::<f64>(), values.iter().sum::<f64>())
        });
        assert_eq!(sum_t, 150.0);
        assert!((sum_v - 1.5).abs() < 1e-12);
        assert_eq!(m.with_series(rid(8), |t, v| t.len() + v.len()), 0);
    }

    #[test]
    fn unknown_series_is_empty() {
        let m = Memory::new(MemoryConfig::default());
        assert!(m.is_empty(rid(9)));
        assert!(extract(&m, rid(9), 5).is_empty());
        assert!(m.latest(rid(9)).is_none());
        assert!(m.values(rid(9)).is_empty());
        assert!(m.times(rid(9)).is_empty());
        assert!(m.resource_ids().is_empty());
    }

    #[test]
    fn series_conversion_round_trips() {
        let mut m = Memory::new(MemoryConfig::default());
        for i in 0..5 {
            m.store(rid(2), i as f64 * 10.0, 0.1 * i as f64);
        }
        let s = m.series(rid(2), "r2");
        assert_eq!(s.name(), "r2");
        assert_eq!(s.len(), 5);
        assert_eq!(s.values()[4], 0.4);
    }

    #[test]
    fn separate_series_are_independent() {
        let mut m = Memory::new(MemoryConfig { retain: 2 });
        m.store(rid(1), 1.0, 0.1);
        m.store(rid(2), 1.0, 0.2);
        assert_eq!(m.len(rid(1)), 1);
        assert_eq!(m.len(rid(2)), 1);
        assert_eq!(m.resource_ids(), vec![rid(1), rid(2)]);
    }

    #[test]
    fn append_reports_rejection_reasons_and_counts_drops() {
        let mut m = Memory::new(MemoryConfig::default());
        assert_eq!(m.append(rid(1), 10.0, 0.5), StoreOutcome::Stored);
        assert_eq!(
            m.append(rid(1), 10.0, 0.6),
            StoreOutcome::RejectedOutOfOrder
        );
        assert_eq!(m.append(rid(1), 5.0, 0.6), StoreOutcome::RejectedOutOfOrder);
        assert_eq!(
            m.append(rid(1), 20.0, f64::NAN),
            StoreOutcome::RejectedNonFinite
        );
        assert_eq!(m.dropped(rid(1)), 2, "only out-of-order deliveries count");
        assert_eq!(m.dropped(rid(2)), 0);
        assert_eq!(m.append(rid(2), 1.0, 0.1), StoreOutcome::Stored);
        assert_eq!(m.append(rid(2), 0.5, 0.1), StoreOutcome::RejectedOutOfOrder);
        assert_eq!(m.total_dropped(), 3);
        // The series itself only holds the accepted points.
        assert_eq!(m.len(rid(1)), 1);
    }

    #[test]
    fn revisions_track_every_visible_change() {
        let mut m = Memory::new(MemoryConfig::default());
        assert_eq!(m.revision(rid(1)), 0);
        assert_eq!(m.global_revision(), 0);
        m.store(rid(1), 10.0, 0.5);
        assert_eq!(m.revision(rid(1)), 1);
        // Rejected deliveries change nothing an extract would see.
        m.store(rid(1), 10.0, 0.6);
        m.store(rid(1), 5.0, f64::NAN);
        assert_eq!(m.revision(rid(1)), 1);
        m.record_gap(rid(1), 20.0);
        assert_eq!(m.revision(rid(1)), 2);
        // Other series bump the global counter but not this one.
        m.store(rid(2), 1.0, 0.1);
        assert_eq!(m.revision(rid(1)), 2);
        assert_eq!(m.revision(rid(2)), 1);
        assert_eq!(m.global_revision(), 3);
    }

    #[test]
    fn gaps_are_recorded_per_series_and_bounded() {
        let mut m = Memory::new(MemoryConfig { retain: 3 });
        assert_eq!(m.gap_count(rid(1)), 0);
        for i in 0..5 {
            m.record_gap(rid(1), i as f64 * 10.0);
        }
        assert_eq!(m.gap_count(rid(1)), 3, "gap ring respects retention");
        assert_eq!(m.gaps(rid(1)), vec![20.0, 30.0, 40.0]);
        assert_eq!(m.gap_count(rid(2)), 0);
        assert!(m.gaps(rid(2)).is_empty());
        // Gaps don't affect the measurement series.
        assert!(m.is_empty(rid(1)));
    }

    #[test]
    fn backing_storage_stays_bounded_under_long_ingest() {
        let mut m = Memory::new(MemoryConfig { retain: 8 });
        for i in 0..10_000 {
            m.store(rid(1), i as f64, 0.5);
        }
        let buf = &m.store[1];
        assert_eq!(buf.len(), 8);
        assert!(
            buf.times.len() <= 16 && buf.values.len() <= 16,
            "dead prefix must be compacted away: {} slots",
            buf.times.len()
        );
    }
}
