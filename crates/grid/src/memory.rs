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
//! Each series is stored structure-of-arrays: one contiguous `values`
//! column, a *time axis* in place of a times column, and a `start`
//! cursor marking the oldest live point (a *compacting ring*: eviction
//! advances the cursor, and the dead prefix is reclaimed with one
//! `copy_within` once it reaches a quarter of the retention window, so
//! appends stay amortized O(1) — about 32 B of memmove each at a day's
//! window — and the column never exceeds 1.25 × the retention bound: it
//! reserves exactly that once, instead of growing by `Vec`'s doubling).
//! Because the live window is one contiguous slice, analytics and wire
//! encoding borrow values directly — [`Memory::values`],
//! [`Memory::tail`], [`Memory::with_series`] — instead of cloning them
//! out.
//!
//! The time axis is a short list of runs, each holding its first column
//! index, first time and step: point `i` of a run has time `t0 + (i −
//! first) as f64 * step`. A new point joins the last run only if that
//! expression reproduces its time bit for bit, and opens a run
//! otherwise, so the axis is exact whatever the times, and a series on
//! the 10-second cadence costs one run — 24 bytes in place of 8 per
//! point. Each gap or off-grid time costs one more run. Readers get the
//! times as a [`Times`] view, an iterator that computes them, and
//! [`Memory::last_time`] for the newest.
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
use crate::wal::{
    crc32, CheckpointReport, Crc32, SnapshotStore, Wal, WalError, WalRecord, SNAPSHOT_MAGIC,
};
use nws_runtime::Fnv1a;
use nws_timeseries::{Seconds, Series, TimePoint};
use std::collections::VecDeque;
use std::io::{BufWriter, Write};

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

/// Dead slots a column may carry before it compacts: a quarter of the
/// retention window, at least one.
fn slack(retain: usize) -> usize {
    (retain / 4).max(1)
}

/// The largest column, in slots, reserved whole at its first point;
/// a longer retention bound lets the column grow as points arrive.
const RESERVE_CEILING: usize = 1 << 20;

/// One run of a time axis: evenly spaced times, stored as the first
/// and the spacing.
#[derive(Debug, Clone, Copy)]
struct Run {
    /// Column index of the run's first point. Compaction moves it with
    /// the column, below zero once the run's first points are evicted.
    first: isize,
    /// Time of the point at `first`.
    t0: Seconds,
    /// Spacing; unset (0) while the run holds one point.
    step: Seconds,
}

impl Run {
    /// Time of the point at column index `i`, one of the run's.
    fn time(&self, i: usize) -> Seconds {
        match i as isize - self.first {
            // `t0 + 0.0` would turn a first time of `-0.0` into `+0.0`.
            0 => self.t0,
            k => self.t0 + k as f64 * self.step,
        }
    }
}

/// The retained timestamps of one series, oldest first, computed from
/// its time axis — what [`Memory::tail`] and [`Memory::with_series`]
/// hand out beside the values slice. Each time is bit for bit the one
/// that was stored.
#[derive(Debug, Clone)]
pub struct Times<'a> {
    /// The axis from the run holding `next` on.
    runs: &'a [Run],
    /// Column index of the next time.
    next: usize,
    /// Column index past the last time.
    end: usize,
}

impl<'a> Times<'a> {
    const EMPTY: Times<'static> = Times {
        runs: &[],
        next: 0,
        end: 0,
    };

    /// The times of column indices `from..end` on `axis`.
    fn new(axis: &'a [Run], from: usize, end: usize) -> Self {
        let at = axis.partition_point(|run| run.first <= from as isize);
        Self {
            runs: &axis[at.saturating_sub(1)..],
            next: from,
            end,
        }
    }
}

impl Iterator for Times<'_> {
    type Item = Seconds;

    fn next(&mut self) -> Option<Seconds> {
        if self.next == self.end {
            return None;
        }
        // Every run holds at least one point, so one step crosses at
        // most one run boundary.
        if let [_, run, ..] = self.runs {
            if run.first <= self.next as isize {
                self.runs = &self.runs[1..];
            }
        }
        let time = self.runs[0].time(self.next);
        self.next += 1;
        Some(time)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.end - self.next;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Times<'_> {}

/// One series' measurements in columnar (SoA) form: a `values` column
/// whose live window is `[start..]`, and the time axis that gives each
/// column slot its time.
#[derive(Debug, Default)]
struct ColumnSeries {
    /// Runs in column order, covering every slot of `values`; runs whose
    /// points are all evicted go at the next compaction.
    axis: Vec<Run>,
    values: Vec<f64>,
    /// Index of the oldest live point; everything before it is evicted
    /// and awaits compaction.
    start: usize,
}

impl ColumnSeries {
    fn len(&self) -> usize {
        self.values.len() - self.start
    }

    /// The live times from live offset `skip` on.
    fn times(&self, skip: usize) -> Times<'_> {
        Times::new(&self.axis, self.start + skip, self.values.len())
    }

    fn values(&self) -> &[f64] {
        &self.values[self.start..]
    }

    fn last_time(&self) -> Option<Seconds> {
        let run = self.axis.last()?;
        Some(run.time(self.values.len() - 1))
    }

    /// Appends one point, evicting the oldest when the live window is at
    /// the retention bound. The dead prefix is compacted away once it
    /// reaches [`slack`] slots, so each point is moved about four times
    /// per `retain` evictions — amortized O(1). A full column — a new
    /// one, or one restored at its exact length — reserves exactly
    /// `retain + slack(retain)` slots, which the live window plus the
    /// dead prefix never outgrow, so it holds at most 1.25 × `retain`
    /// points (`retain + 1` below four) and is never reallocated. Slots not
    /// yet filled are never written, so their pages cost no resident
    /// memory; and with no doubling there are no abandoned smaller
    /// copies for the allocator to strand. Above [`RESERVE_CEILING`]
    /// slots a column grows by `Vec`'s doubling instead, so a huge
    /// `retain` costs only the points actually stored. The time goes on
    /// the axis ([`ColumnSeries::extend_axis`]), not into a column.
    fn push(&mut self, time: Seconds, value: f64, retain: usize) {
        let slack = slack(retain);
        if self.len() == retain {
            self.start += 1;
            if self.start >= slack {
                let live = self.len();
                self.values.copy_within(self.start.., 0);
                self.values.truncate(live);
                self.rebase(self.start);
                self.start = 0;
            }
        }
        let len = self.values.len();
        let bound = retain.saturating_add(slack);
        if len == self.values.capacity() && bound <= RESERVE_CEILING {
            self.values.reserve_exact(bound - len);
        }
        self.extend_axis(len, time);
        self.values.push(value);
    }

    /// Gives column slot `i`, the slot after the last, the time `time`:
    /// the last run takes it if its formula reproduces the time bit for
    /// bit (a run of one point takes the step that does), and a new run
    /// opens otherwise. The first run is allocated alone, so a regular
    /// series' axis costs 24 bytes.
    fn extend_axis(&mut self, i: usize, time: Seconds) {
        if let Some(run) = self.axis.last_mut() {
            let k = i as isize - run.first;
            let step = if k == 1 { time - run.t0 } else { run.step };
            if (run.t0 + k as f64 * step).to_bits() == time.to_bits() {
                run.step = step;
                return;
            }
        } else {
            self.axis.reserve_exact(1);
        }
        self.axis.push(Run {
            first: i as isize,
            t0: time,
            step: 0.0,
        });
    }

    /// Moves the axis with a compaction that dropped the first `by`
    /// column slots: runs wholly before slot `by` go, the rest shift
    /// down by `by`.
    fn rebase(&mut self, by: usize) {
        let by = by as isize;
        let covering = self.axis.partition_point(|run| run.first <= by);
        self.axis.drain(..covering.saturating_sub(1));
        for run in &mut self.axis {
            run.first -= by;
        }
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
    /// The snapshot streams into the store's temp file through one
    /// fixed 64 KiB chunk with a running CRC, so a checkpoint never
    /// holds a second copy of the store: the file is byte for byte
    /// [`Memory::snapshot_bytes_at`] of the covered offset.
    ///
    /// Rotation only happens after the snapshot has been durably
    /// renamed into place, so a crash between the two steps costs disk
    /// space, never recoverability.
    pub fn checkpoint(
        &mut self,
        store: &SnapshotStore,
        seq: u64,
    ) -> Result<CheckpointReport, WalError> {
        let covered = self.journal.as_ref().map_or(0, |w| w.len());
        let snapshot_path = store.save_with(seq, |file| {
            self.write_snapshot(covered as u64, file).map(drop)
        })?;
        let rotated = match self.journal.as_mut() {
            Some(wal) => wal.rotate(covered)?,
            None => 0,
        };
        Ok(CheckpointReport {
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
    ///
    /// Returns whether the record changed what an extract returns (a
    /// stored measurement, a gap) — exactly the records the
    /// [`Archive`](crate::Archive) shows its forecaster.
    pub fn apply(&mut self, rec: &WalRecord) -> bool {
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
        let buf = self.seg(id)?;
        Some(TimePoint::new(buf.last_time()?, *buf.values.last()?))
    }

    /// The time of a series' most recent measurement.
    pub fn last_time(&self, id: ResourceId) -> Option<Seconds> {
        self.seg(id)?.last_time()
    }

    /// The retained measurement values of a series, oldest first, as one
    /// borrowed contiguous slice — the zero-copy path analytics kernels
    /// read. Empty for unknown series.
    pub fn values(&self, id: ResourceId) -> &[f64] {
        self.seg(id).map_or(&[], ColumnSeries::values)
    }

    /// The most recent `n` measurements as their [`Times`] and borrowed
    /// values, oldest first — the zero-copy `extract`.
    pub fn tail(&self, id: ResourceId, n: usize) -> (Times<'_>, &[f64]) {
        match self.seg(id) {
            None => (Times::EMPTY, &[]),
            Some(buf) => {
                let skip = buf.len().saturating_sub(n);
                (buf.times(skip), &buf.values()[skip..])
            }
        }
    }

    /// Runs `f` over the series' [`Times`] and borrowed values — handy
    /// when the caller holds the memory behind a lock and wants to
    /// compute without cloning or fighting the borrow checker. Unknown
    /// series yield empty ones.
    pub fn with_series<R>(&self, id: ResourceId, f: impl FnOnce(Times<'_>, &[f64]) -> R) -> R {
        match self.seg(id) {
            None => f(Times::EMPTY, &[]),
            Some(buf) => f(buf.times(0), buf.values()),
        }
    }

    /// The full retained history as a [`Series`] (for analysis code).
    pub fn series(&self, id: ResourceId, name: impl Into<String>) -> Series {
        let mut s = Series::with_capacity(name, self.len(id));
        self.with_series(id, |times, values| {
            for (t, &v) in times.zip(values) {
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
            for t in buf.times(0) {
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
        self.write_snapshot(wal_offset, Vec::new())
            .expect("writing into a Vec cannot fail")
    }

    /// The snapshot encoder: streams the snapshot covering `wal_offset`
    /// into `sink` as little-endian words — magic, retention, WAL
    /// offset, global revision, series count, then per series its live
    /// length, times, values, drop count, gap count, gaps and revision —
    /// through one [`SNAPSHOT_CHUNK`] buffer, and trails it with the
    /// CRC-32 of everything before.
    fn write_snapshot<W: Write>(&self, wal_offset: u64, sink: W) -> std::io::Result<W> {
        let crc = Crc32::default();
        let mut out = BufWriter::with_capacity(SNAPSHOT_CHUNK, CrcWriter { sink, crc });
        let mut put = |word: u64| out.write_all(&word.to_le_bytes());
        put(u64::from_le_bytes(SNAPSHOT_MAGIC))?;
        put(self.config.retain as u64)?;
        put(wal_offset)?;
        put(self.global_revision)?;
        put(self.store.len() as u64)?;
        for (buf, meta) in self.store.iter().zip(&self.meta) {
            put(buf.len() as u64)?;
            for t in buf.times(0) {
                put(t.to_bits())?;
            }
            for &v in buf.values() {
                put(v.to_bits())?;
            }
            put(meta.dropped)?;
            put(meta.gaps.len() as u64)?;
            for &g in &meta.gaps {
                put(g.to_bits())?;
            }
            put(meta.revision)?;
        }
        let CrcWriter { mut sink, crc } = out.into_inner().map_err(|e| e.into_error())?;
        sink.write_all(&crc.finish().to_le_bytes())?;
        Ok(sink)
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
            if len > retain || len > (body.len() - off) / 16 {
                return Err(WalError::Snapshot("series length out of bounds"));
            }
            let mut buf = ColumnSeries {
                values: Vec::with_capacity(len),
                ..ColumnSeries::default()
            };
            for i in 0..len {
                buf.extend_axis(i, f64::from_bits(take(&mut off)?));
            }
            for _ in 0..len {
                buf.values.push(f64::from_bits(take(&mut off)?));
            }
            let dropped = take(&mut off)?;
            let ngaps = take(&mut off)? as usize;
            if ngaps > retain || ngaps > (body.len() - off) / 8 {
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

/// Bytes the snapshot encoder stages between checksumming and writing:
/// all a checkpoint holds of its snapshot at once.
const SNAPSHOT_CHUNK: usize = 64 * 1024;

/// [`Memory::write_snapshot`]'s sink: every byte the sink takes joins
/// the running CRC.
struct CrcWriter<W> {
    sink: W,
    crc: Crc32,
}

impl<W: Write> Write for CrcWriter<W> {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        let n = self.sink.write(bytes)?;
        self.crc.update(&bytes[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.sink.flush()
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
            .zip(values)
            .map(|(t, &v)| TimePoint::new(t, v))
            .collect()
    }

    /// A series' live times, collected.
    fn times(m: &Memory, id: ResourceId) -> Vec<Seconds> {
        m.with_series(id, |times, _| times.collect())
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
            let times = times(&m, rid(3));
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
        assert_eq!(times.collect::<Vec<_>>(), [7.0, 8.0]);
        assert_eq!(values, &[0.7, 0.8]);
        // Oversized n returns the whole live window.
        let (times, values) = m.tail(rid(1), 100);
        assert_eq!(times.len(), 4);
        assert_eq!(values[0], 0.5);
        // Unknown series: empty, no allocation, no panic.
        let (times, values) = m.tail(rid(9), 5);
        assert!(times.len() == 0 && values.is_empty());
    }

    #[test]
    fn with_series_borrows_both_columns() {
        let mut m = Memory::new(MemoryConfig::default());
        for i in 0..6 {
            m.store(rid(2), i as f64 * 10.0, 0.1 * i as f64);
        }
        let (sum_t, sum_v) = m.with_series(rid(2), |times, values| {
            (times.sum::<f64>(), values.iter().sum::<f64>())
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
        assert!(m.last_time(rid(9)).is_none());
        assert!(times(&m, rid(9)).is_empty());
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
            buf.values.capacity() <= 10,
            "dead prefix must be compacted away: {} slots",
            buf.values.capacity()
        );
        assert_eq!(buf.axis.len(), 1, "a regular series is one run");
    }

    /// A `VecDeque` model of one series: exactly what `Memory` documents,
    /// with no cursor, compaction or reservation.
    #[derive(Debug, Default)]
    struct Oracle {
        points: VecDeque<(Seconds, f64)>,
        gaps: VecDeque<Seconds>,
        dropped: u64,
        revision: u64,
    }

    /// [`Memory::fingerprint`]'s layout over the model.
    fn oracle_fingerprint(retain: usize, series: &[Oracle], global: u64) -> u64 {
        let mut h = Fnv1a::new();
        h.word(retain as u64);
        h.word(series.len() as u64);
        for s in series {
            h.word(s.points.len() as u64);
            for &(t, _) in &s.points {
                h.word(t.to_bits());
            }
            for &(_, v) in &s.points {
                h.word(v.to_bits());
            }
            h.word(s.dropped);
            h.word(s.gaps.len() as u64);
            for &g in &s.gaps {
                h.word(g.to_bits());
            }
            h.word(s.revision);
        }
        h.word(global);
        h.finish()
    }

    /// The next time series `id` stores after `last`; `late` is true
    /// from a third of the stream on, and `d` is a draw below 4. Series
    /// 0 keeps the 10-second cadence with no slot skipped. Series 1
    /// starts at `-0.0`, on a non-integer grid whose step changes
    /// mid-stream — a quarter second, then a tenth, whose running sum
    /// leaves the grid every few points — and skips a slot now and then. Series 2 moves one to
    /// three ulps at a time from a fractional start, then jumps to just
    /// below 2^53 and moves one to three seconds, where a second is half
    /// an ulp: a step that rounds back is bumped to the next float.
    fn next_time(id: usize, last: Option<Seconds>, late: bool, d: u64) -> Seconds {
        match (id, last) {
            (0, last) => last.map_or(10.0, |t| t + 10.0),
            (1, None) => -0.0,
            (1, Some(t)) => {
                let step = if late { 0.1 } else { 0.25 };
                t + step * (1 + u64::from(d == 0)) as f64
            }
            (_, None) => 1_000.1,
            (_, Some(t)) if !late => f64::from_bits(t.to_bits() + 1 + d % 3),
            (_, Some(t)) if t < TWO_53 / 2.0 => TWO_53 - 1_024.0,
            (_, Some(t)) => (t + (1 + d % 3) as f64).max(t.next_up()),
        }
    }

    const TWO_53: f64 = 9_007_199_254_740_992.0;

    /// Runs of a column's axis that hold live points: the ones its
    /// full [`Times`] view walks.
    fn live_runs(col: &ColumnSeries) -> usize {
        let dead = col
            .axis
            .partition_point(|run| run.first <= col.start as isize);
        col.axis.len() + 1 - dead.max(1)
    }

    #[test]
    fn columns_carry_at_most_a_quarter_window_of_slack() {
        // Seeded appends, gaps, out-of-order, duplicate and non-finite
        // deliveries over three series with the clocks of `next_time`,
        // the memory restored from its own snapshot halfway: every
        // column's capacity stays within `retain + slack(retain)`
        // throughout, its axis holds at most one run more than its live
        // points (exactly one for the cadence series), and every
        // observable — every time bit for bit — equals the model's.
        for (retain, ops) in [(1, 500), (2, 500), (7, 800), (64, 3_000), (8_640, 40_000)] {
            let bound = retain + slack(retain);
            let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ retain as u64;
            let mut draw = move |n: u64| {
                rng = rng
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (rng >> 33) % n
            };
            let mut m = Memory::new(MemoryConfig { retain });
            let (mut model, mut global) = (Vec::<Oracle>::new(), 0u64);
            let mut clock = [0.0f64; 3];
            for op in 0..ops {
                let restored = op == ops / 2;
                if restored {
                    m = Memory::from_snapshot(&m.snapshot_bytes())
                        .expect("own snapshot")
                        .0;
                }
                let id = draw(3) as usize;
                let value = draw(1_000) as f64 / 1_000.0;
                let kind = draw(20);
                if kind == 0 {
                    // Non-finite: refused, and touches nothing.
                    assert_eq!(
                        m.append(rid(id as u64), clock[id] + 1.0, f64::NAN),
                        StoreOutcome::RejectedNonFinite
                    );
                    continue;
                }
                if model.len() <= id {
                    model.resize_with(id + 1, Oracle::default);
                }
                let s = &mut model[id];
                match kind {
                    1 | 2 => {
                        m.record_gap(rid(id as u64), clock[id] + 0.5);
                        if s.gaps.len() == retain {
                            s.gaps.pop_front();
                        }
                        s.gaps.push_back(clock[id] + 0.5);
                        s.revision += 1;
                        global += 1;
                    }
                    // Late, or a duplicate of the latest time.
                    3 if !s.points.is_empty() => {
                        let late = clock[id] - draw(3) as f64;
                        assert!(!m.store(rid(id as u64), late, value));
                        s.dropped += 1;
                    }
                    _ => {
                        let last = s.points.back().map(|p| p.0);
                        clock[id] = next_time(id, last, op >= ops / 3, draw(4));
                        assert!(m.store(rid(id as u64), clock[id], value));
                        if s.points.len() == retain {
                            s.points.pop_front();
                        }
                        s.points.push_back((clock[id], value));
                        s.revision += 1;
                        global += 1;
                    }
                }
                for (idx, col) in m.store.iter().enumerate() {
                    let at = format!("retain {retain}, op {op}, series {idx}");
                    assert!(
                        col.values.capacity() <= bound,
                        "{at}: capacity {} over {bound}",
                        col.values.capacity()
                    );
                    assert!(live_runs(col) <= col.len() + 1, "{at}: {:?}", col.axis);
                    assert!(col.axis.len() <= col.values.len() + 1, "{at}");
                    if idx == 0 && col.len() > 0 {
                        assert_eq!((live_runs(col), col.axis.len()), (1, 1), "{at}");
                    }
                }
                let s = &model[id];
                let want = s.points.back().map(|p| p.0.to_bits());
                assert_eq!(m.last_time(rid(id as u64)).map(f64::to_bits), want);
                if retain < 1_000 || op % 1_000 == 0 || restored || op + 1 == ops {
                    for (idx, s) in model.iter().enumerate() {
                        let id = rid(idx as u64);
                        let at = format!("retain {retain}, op {op}, series {idx}");
                        let bits = |t: Seconds| t.to_bits();
                        let times: Vec<u64> = s.points.iter().map(|p| bits(p.0)).collect();
                        let values: Vec<f64> = s.points.iter().map(|p| p.1).collect();
                        let got: Vec<u64> = m.with_series(id, |t, _| t.map(bits).collect());
                        assert_eq!(got, times, "{at}");
                        assert_eq!(m.values(id), values, "{at}");
                        let n = draw(retain as u64 + 2) as usize;
                        let skip = times.len().saturating_sub(n);
                        let (tail_times, tail_values) = m.tail(id, n);
                        assert_eq!(tail_times.len(), times.len() - skip, "{at}, tail {n}");
                        let tail_times: Vec<u64> = tail_times.map(bits).collect();
                        assert_eq!(tail_times, times[skip..], "{at}, tail {n}");
                        assert_eq!(tail_values, &values[skip..], "{at}, tail {n}");
                    }
                    let want = oracle_fingerprint(retain, &model, global);
                    assert_eq!(m.fingerprint(), want, "retain {retain}, op {op}");
                }
            }
        }
    }

    #[test]
    fn a_checkpoint_file_is_the_snapshot_bytes_of_its_covered_offset() {
        let dir = std::env::temp_dir().join(format!("nws-checkpoint-bytes-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SnapshotStore::new(&dir, 1).expect("creatable");
        let checked = |m: &mut Memory, seq: u64| {
            let report = m.checkpoint(&store, seq).expect("checkpoint");
            let file = std::fs::read(&report.snapshot_path).expect("readable");
            assert_eq!(
                file,
                m.snapshot_bytes_at(report.covered),
                "checkpoint {seq}"
            );
            file.len()
        };
        // An empty memory: header and CRC only.
        assert_eq!(checked(&mut Memory::new(MemoryConfig::default()), 1), 44);
        // One point per series, with a gap and a drop.
        let mut one = Memory::new(MemoryConfig { retain: 1 });
        for i in 0..5 {
            one.store(rid(i % 2), i as f64, 0.5);
        }
        one.record_gap(rid(1), 9.0);
        one.store(rid(0), 1.0, 0.5);
        checked(&mut one, 2);
        // Journaled, many chunks long, with gaps and drops, written twice
        // so the second covers a rotated journal.
        let mut wide = Memory::new(MemoryConfig { retain: 8_640 });
        wide.attach_journal(Wal::new());
        for round in 0..2 {
            for i in 0..20_000u64 {
                let t = (round * 20_000 + i) as f64;
                if i % 17 == 0 {
                    wide.record_gap(rid(i % 3), t);
                } else {
                    wide.store(rid(i % 3), t, (i % 101) as f64 / 100.0);
                }
                if i % 29 == 0 {
                    wide.store(rid(i % 3), 0.0, 0.5);
                }
            }
            let len = checked(&mut wide, 3 + round);
            assert!(len > 4 * SNAPSHOT_CHUNK, "{len} bytes span several chunks");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_huge_retention_bound_grows_columns_as_points_arrive() {
        // `retain + slack` overflows at the first bound and would reserve
        // terabytes at the second; both must store, restore and store on.
        for retain in [usize::MAX, 1 << 40] {
            let mut m = Memory::new(MemoryConfig { retain });
            for i in 0..100 {
                m.store(rid(0), i as f64, 0.5);
            }
            m.record_gap(rid(0), 100.0);
            let (mut restored, _) = Memory::from_snapshot(&m.snapshot_bytes()).expect("restores");
            for mem in [&mut m, &mut restored] {
                for i in 101..200 {
                    mem.store(rid(0), i as f64, 0.25);
                }
                assert_eq!(mem.len(rid(0)), 199, "retain {retain}");
                assert!(mem.store[0].values.capacity() < 1 << 10, "retain {retain}");
            }
            assert_eq!(m.fingerprint(), restored.fingerprint(), "retain {retain}");
        }
    }

    #[test]
    fn a_snapshot_claiming_a_huge_length_or_gap_count_is_refused() {
        // One series under unbounded retention whose length or gap
        // count, times its record size, wraps a u64. The CRC is valid,
        // so only the bounds stand between the count and an allocation.
        let craft = |len: u64, ngaps: u64| {
            let mut out = SNAPSHOT_MAGIC.to_vec();
            // retain, wal offset, global revision, series count, then the
            // series: length, no points, dropped, gap count, no gaps,
            // revision.
            for v in [u64::MAX, 0, 0, 1, len, 0, ngaps, 0] {
                out.extend_from_slice(&v.to_le_bytes());
            }
            let crc = crc32(&out);
            out.extend_from_slice(&crc.to_le_bytes());
            out
        };
        assert!(matches!(
            Memory::from_snapshot(&craft(1 << 60, 0)),
            Err(WalError::Snapshot("series length out of bounds"))
        ));
        assert!(matches!(
            Memory::from_snapshot(&craft(0, 1 << 61)),
            Err(WalError::Snapshot("gap count out of bounds"))
        ));
    }
}
