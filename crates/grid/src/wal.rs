//! Durability: the append-only write-ahead log and columnar snapshots.
//!
//! The real NWS persistent-state memory journals measurements to disk so
//! a sensor host reboot (the paper's availability traces are full of
//! them) does not cost the forecaster its window. This module reproduces
//! that guarantee around the columnar [`Memory`]:
//!
//! - **WAL**: every state change the memory accepts — a stored
//!   measurement, a recorded gap, or an out-of-order drop — is journaled
//!   as one CRC-framed, length-prefixed [`WalRecord`] *in commit order*.
//!   Because the engine commits slot-major in host-registration order,
//!   the WAL byte stream is itself deterministic: bit-identical at any
//!   thread count or batch window.
//! - **Snapshots**: [`Memory::snapshot_bytes`] serializes the full
//!   columnar state (live windows, gap rings, drop counts, revisions)
//!   with a trailing CRC and the WAL offset it covers, so recovery
//!   replays only the suffix. [`Memory::checkpoint`] streams the same
//!   bytes into the [`SnapshotStore`]'s temp file chunk by chunk.
//! - **Recovery**: [`recover_memory_rotated`] composes the two —
//!   snapshot if one validates, genesis otherwise, then a total replay
//!   of the WAL that stops at the first corruption and keeps every
//!   record before it.
//!   Recovered state is bit-identical to an uninterrupted run: same
//!   column bytes, same per-segment and global revision counters, same
//!   [`Memory::fingerprint`].
//!
//! The WAL record stream doubles as the replication protocol: a replica
//! that applies the same records in the same order *is* the primary,
//! byte for byte (`nws-server`'s `ReplicaState` rides on exactly this).
//! The memory is what this module recovers; the forecaster beside it is
//! rebuilt by [`Archive::apply`](crate::Archive::apply), which applies
//! each record to the memory and, when the memory took it, to the
//! forecaster.
//!
//! # Record format
//!
//! ```text
//! record  := len:u32le | crc32:u32le | payload[len]
//! payload := tag:u8 | id:u64le | [time:f64le-bits] | [value:f64le-bits]
//! ```
//!
//! Tags: `0` Append (25-byte payload), `1` Gap (17), `2` Drop (9). The
//! CRC (IEEE 802.3, reflected) covers the payload only; the length
//! prefix is validated against [`MAX_RECORD_PAYLOAD`] before anything
//! is read, mirroring `nws-wire`'s bound-before-alloc discipline. The
//! decoder is *total*: garbage bytes, truncated tails, and bit flips
//! all yield typed [`WalError`]s, never panics.

use crate::memory::{Memory, MemoryConfig};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

pub use crate::registry::ResourceId;
use nws_timeseries::Seconds;

/// Magic prefix of a columnar snapshot file (`NWSNAP` + format version).
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"NWSNAP01";

/// Bytes of a record frame before its payload (`len` + `crc32`).
pub const RECORD_HEADER_LEN: usize = 8;

/// Upper bound on a record payload. The largest record today (Append)
/// is 25 bytes; the slack leaves room for future tags while still
/// rejecting garbage length prefixes before any payload is touched.
pub const MAX_RECORD_PAYLOAD: usize = 64;

/// Upper bound on one framed record (`header + payload`). Replication
/// chunk sizes are clamped to at least this so a chunk always makes
/// progress.
pub const MAX_RECORD_FRAME: usize = RECORD_HEADER_LEN + MAX_RECORD_PAYLOAD;

const TAG_APPEND: u8 = 0;
const TAG_GAP: u8 = 1;
const TAG_DROP: u8 = 2;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected), slice-by-8, tables built at compile
// time.

/// `CRC_TABLES[k][b]` is the CRC register contribution of byte `b`
/// followed by `k` zero bytes, so eight bytes fold in with eight
/// independent lookups instead of eight dependent ones.
const CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// A running CRC-32 (IEEE): feed bytes in any split with
/// [`Crc32::update`], read the checksum with [`Crc32::finish`]. The
/// register carries no alignment state, so a stream checksummed chunk
/// by chunk equals [`crc32`] of the whole.
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Default for Crc32 {
    fn default() -> Self {
        Self(0xFFFF_FFFF)
    }
}

impl Crc32 {
    /// Folds `bytes` into the register.
    pub fn update(&mut self, bytes: &[u8]) {
        let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC_TABLES;
        let mut crc = self.0;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            crc = t7[(lo & 0xFF) as usize]
                ^ t6[((lo >> 8) & 0xFF) as usize]
                ^ t5[((lo >> 16) & 0xFF) as usize]
                ^ t4[(lo >> 24) as usize]
                ^ t3[usize::from(w[4])]
                ^ t2[usize::from(w[5])]
                ^ t1[usize::from(w[6])]
                ^ t0[usize::from(w[7])];
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ t0[((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        self.0 = crc;
    }

    /// The checksum of every byte fed so far.
    pub fn finish(self) -> u32 {
        !self.0
    }
}

/// CRC-32 (IEEE) of a byte slice — the checksum framing every WAL
/// record and trailing every snapshot.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::default();
    crc.update(bytes);
    crc.finish()
}

// ---------------------------------------------------------------------------
// Errors

/// Why a WAL or snapshot byte stream could not be decoded. Offsets are
/// byte positions of the *record* that failed, so recovery can report
/// exactly how much of the log survived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalError {
    /// The stream ends mid-record (a torn final write).
    Truncated { offset: usize },
    /// The payload checksum does not match (bit rot / corruption).
    BadCrc { offset: usize },
    /// The record kind is not in the vocabulary.
    UnknownTag { offset: usize, tag: u8 },
    /// The length prefix exceeds [`MAX_RECORD_PAYLOAD`] — garbage framing,
    /// rejected before any payload is read.
    RecordTooLong { offset: usize, len: usize },
    /// A known tag with the wrong payload size (corruption that survived
    /// the checksum).
    BadLength { offset: usize },
    /// A snapshot failed validation (magic, checksum, or bounds).
    Snapshot(&'static str),
    /// The file mirror failed.
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Truncated { offset } => {
                write!(f, "wal truncated mid-record at byte {offset}")
            }
            WalError::BadCrc { offset } => {
                write!(f, "wal record checksum mismatch at byte {offset}")
            }
            WalError::UnknownTag { offset, tag } => {
                write!(f, "unknown wal record tag {tag} at byte {offset}")
            }
            WalError::RecordTooLong { offset, len } => write!(
                f,
                "wal record length {len} at byte {offset} exceeds {MAX_RECORD_PAYLOAD}"
            ),
            WalError::BadLength { offset } => {
                write!(f, "wal record payload size mismatch at byte {offset}")
            }
            WalError::Snapshot(what) => write!(f, "snapshot rejected: {what}"),
            WalError::Io(kind) => write!(f, "wal io error: {kind}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e.kind())
    }
}

// ---------------------------------------------------------------------------
// Records

/// One journaled state change of the [`Memory`], in commit order.
///
/// `Append` and `Gap` carry everything the forecaster needs too, so
/// [`Archive::apply`](crate::Archive::apply) over a full log rebuilds
/// the archive's forecaster exactly, not just the memory. `Drop`
/// records an out-of-order rejection — the `dropped` counter is part of
/// the fingerprinted state but not derivable from the accepted appends
/// alone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WalRecord {
    /// A measurement the memory accepted (`StoreOutcome::Stored`).
    Append {
        id: ResourceId,
        time: Seconds,
        value: f64,
    },
    /// A slot that resolved to an explicit gap.
    Gap { id: ResourceId, time: Seconds },
    /// An out-of-order delivery the memory rejected and counted.
    Drop { id: ResourceId },
}

impl WalRecord {
    /// The series the record changes.
    pub fn id(&self) -> ResourceId {
        match *self {
            WalRecord::Append { id, .. } | WalRecord::Gap { id, .. } | WalRecord::Drop { id } => id,
        }
    }

    fn fill_payload(&self, buf: &mut [u8; 25]) -> usize {
        match *self {
            WalRecord::Append { id, time, value } => {
                buf[0] = TAG_APPEND;
                buf[1..9].copy_from_slice(&id.0.to_le_bytes());
                buf[9..17].copy_from_slice(&time.to_bits().to_le_bytes());
                buf[17..25].copy_from_slice(&value.to_bits().to_le_bytes());
                25
            }
            WalRecord::Gap { id, time } => {
                buf[0] = TAG_GAP;
                buf[1..9].copy_from_slice(&id.0.to_le_bytes());
                buf[9..17].copy_from_slice(&time.to_bits().to_le_bytes());
                17
            }
            WalRecord::Drop { id } => {
                buf[0] = TAG_DROP;
                buf[1..9].copy_from_slice(&id.0.to_le_bytes());
                9
            }
        }
    }

    /// Appends this record's frame (`len | crc | payload`) to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let mut payload = [0u8; 25];
        let n = self.fill_payload(&mut payload);
        out.extend_from_slice(&(n as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&payload[..n]).to_le_bytes());
        out.extend_from_slice(&payload[..n]);
    }

    /// Decodes the record framed at `offset`, returning it and the
    /// offset of the next frame. Total: every malformed input yields a
    /// typed [`WalError`].
    pub fn decode_at(bytes: &[u8], offset: usize) -> Result<(WalRecord, usize), WalError> {
        let rest = bytes.get(offset..).unwrap_or(&[]);
        // The header is `len: u32le | crc: u32le`.
        let Some((&[l0, l1, l2, l3, c0, c1, c2, c3], rest)) =
            rest.split_first_chunk::<RECORD_HEADER_LEN>()
        else {
            return Err(WalError::Truncated { offset });
        };
        let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
        if len > MAX_RECORD_PAYLOAD {
            return Err(WalError::RecordTooLong { offset, len });
        }
        let Some(payload) = rest.get(..len) else {
            return Err(WalError::Truncated { offset });
        };
        if crc32(payload) != u32::from_le_bytes([c0, c1, c2, c3]) {
            return Err(WalError::BadCrc { offset });
        }
        let rec = Self::from_payload(payload, offset)?;
        Ok((rec, offset + RECORD_HEADER_LEN + len))
    }

    fn from_payload(p: &[u8], offset: usize) -> Result<WalRecord, WalError> {
        let Some((&tag, fields)) = p.split_first() else {
            return Err(WalError::BadLength { offset });
        };
        let word = |w: &[u8; 8]| u64::from_le_bytes(*w);
        match (tag, fields.as_chunks::<8>()) {
            (TAG_APPEND, ([id, time, value], [])) => Ok(WalRecord::Append {
                id: ResourceId(word(id)),
                time: f64::from_bits(word(time)),
                value: f64::from_bits(word(value)),
            }),
            (TAG_GAP, ([id, time], [])) => Ok(WalRecord::Gap {
                id: ResourceId(word(id)),
                time: f64::from_bits(word(time)),
            }),
            (TAG_DROP, ([id], [])) => Ok(WalRecord::Drop {
                id: ResourceId(word(id)),
            }),
            (TAG_APPEND | TAG_GAP | TAG_DROP, _) => Err(WalError::BadLength { offset }),
            (tag, _) => Err(WalError::UnknownTag { offset, tag }),
        }
    }
}

// ---------------------------------------------------------------------------
// Replay

/// What a [`replay`] scan found: how many records decoded, where the
/// valid prefix ends, and what (if anything) stopped the scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Replay {
    /// Records decoded and delivered to the callback.
    pub records: u64,
    /// Byte offset just past the last valid record — the recovered
    /// log's length.
    pub end: usize,
    /// `None` when the scan reached the end of the bytes cleanly; the
    /// first corruption otherwise. Everything before `end` was kept.
    pub error: Option<WalError>,
}

/// Scans WAL bytes from `from`, delivering each valid record in order.
/// Stops at the first malformed record and reports it; every record
/// before the corruption is preserved (a torn final write after a crash
/// costs exactly the torn record, nothing before it).
pub fn replay(bytes: &[u8], from: usize, mut f: impl FnMut(&WalRecord)) -> Replay {
    let mut offset = from.min(bytes.len());
    let mut records = 0u64;
    while offset < bytes.len() {
        match WalRecord::decode_at(bytes, offset) {
            Ok((rec, next)) => {
                f(&rec);
                records += 1;
                offset = next;
            }
            Err(error) => {
                return Replay {
                    records,
                    end: offset,
                    error: Some(error),
                }
            }
        }
    }
    Replay {
        records,
        end: offset,
        error: None,
    }
}

// ---------------------------------------------------------------------------
// The log itself

/// The append-only write-ahead log: an in-memory byte journal (the
/// replication source — chunks are served straight from it) with an
/// optional buffered file mirror for on-disk durability.
///
/// File-mirror write errors are sticky and surfaced via
/// [`Wal::io_error`] / [`Wal::flush`] rather than panicking the ingest
/// path; the in-memory journal stays authoritative.
///
/// # Rotation
///
/// Offsets are *absolute* and never reused: [`Wal::len`] is the total
/// bytes ever journaled, and [`Wal::rotate`] discards a prefix the
/// latest snapshot already covers without renumbering anything —
/// [`Wal::start_offset`] moves forward, replication offsets stay
/// valid, and a request for a rotated-away offset is distinguishable
/// from a bad one. This is what bounds journal growth: snapshot, then
/// rotate up to the offset the snapshot covers
/// ([`Memory::checkpoint`](crate::Memory::checkpoint) does both).
#[derive(Debug, Default)]
pub struct Wal {
    /// Retained journal bytes: the suffix from `base` on.
    bytes: Vec<u8>,
    /// Absolute offset of `bytes[0]` — 0 until the first rotation.
    base: usize,
    file: Option<BufWriter<File>>,
    /// The file mirror's path, kept for rotation rewrites.
    path: Option<PathBuf>,
    io_error: Option<std::io::ErrorKind>,
}

impl Wal {
    /// An in-memory-only journal (replication without disk durability).
    pub fn new() -> Self {
        Self::default()
    }

    /// A journal mirrored to a file (created or truncated).
    pub fn with_file(path: impl AsRef<Path>) -> Result<Self, WalError> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path)?;
        Ok(Self {
            bytes: Vec::new(),
            base: 0,
            file: Some(BufWriter::new(file)),
            path: Some(path),
            io_error: None,
        })
    }

    /// Appends one record frame to the journal (and the file mirror,
    /// when present).
    pub fn log(&mut self, rec: &WalRecord) {
        let start = self.bytes.len();
        rec.encode_into(&mut self.bytes);
        if let Some(file) = &mut self.file {
            if let Err(e) = file.write_all(&self.bytes[start..]) {
                self.io_error.get_or_insert(e.kind());
            }
        }
    }

    /// Total bytes ever journaled — the absolute end offset and the
    /// replication high-water mark. Unaffected by rotation.
    pub fn len(&self) -> usize {
        self.base + self.bytes.len()
    }

    /// True when nothing has ever been journaled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The absolute offset of the oldest retained byte — 0 until the
    /// first [`Wal::rotate`]. Offsets below this have been rotated away
    /// and can no longer be served.
    pub fn start_offset(&self) -> usize {
        self.base
    }

    /// The retained journal bytes (the suffix from
    /// [`Wal::start_offset`] on; the whole journal until a rotation).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// A chunk of the journal starting at absolute `offset`, at most
    /// `max` bytes, always ending on a record boundary so the receiver
    /// never sees a torn frame. Empty when `offset` is at (or past) the
    /// end, or before [`Wal::start_offset`] (callers that care
    /// distinguish rotated-away offsets *before* asking). A `max`
    /// smaller than the first frame still yields that one frame, so
    /// streaming always makes progress.
    pub fn chunk(&self, offset: usize, max: usize) -> &[u8] {
        if offset < self.base {
            return &[];
        }
        let local = offset - self.base;
        if local >= self.bytes.len() {
            return &[];
        }
        let mut end = local;
        while let Ok((_, next)) = WalRecord::decode_at(&self.bytes, end) {
            if next - local > max && end > local {
                break;
            }
            end = next;
            if next - local >= max {
                break;
            }
        }
        &self.bytes[local..end]
    }

    /// Discards journaled bytes before absolute offset `upto` (snapped
    /// down to a record boundary), returning how many bytes were
    /// dropped. Offsets stay absolute — [`Wal::len`] does not move,
    /// [`Wal::start_offset`] advances — so replication readers past the
    /// cut are unaffected.
    ///
    /// With a file mirror attached, the retained suffix is rewritten
    /// atomically (temp file + rename), so a crash mid-rotation leaves
    /// either the old file or the new one. The rewrite comes from the
    /// authoritative in-memory journal, so it also clears any sticky
    /// [`Wal::io_error`] from earlier mirror writes.
    ///
    /// Call with the WAL offset a just-saved snapshot covers — that is
    /// exactly the prefix recovery no longer needs.
    pub fn rotate(&mut self, upto: usize) -> Result<usize, WalError> {
        let target = upto.clamp(self.base, self.len()) - self.base;
        // The journal's end is always a record boundary — only `log`
        // appends and only a rotation drains — so a cut there (what
        // every checkpoint asks for) needs no walk. Elsewhere the walk
        // stops at the last record that ends at or below `target`.
        let cut = if target == self.bytes.len() {
            target
        } else {
            replay(&self.bytes[..target], 0, |_| {}).end
        };
        self.drop_prefix(cut)
    }

    /// Drops the first `cut` retained bytes, which must end on a record
    /// boundary, rewriting the file mirror to the suffix.
    fn drop_prefix(&mut self, cut: usize) -> Result<usize, WalError> {
        if cut == 0 {
            return Ok(0);
        }
        if let (Some(path), Some(_)) = (&self.path, &self.file) {
            let tmp = path.with_extension("rotate-tmp");
            std::fs::write(&tmp, &self.bytes[cut..])?;
            std::fs::rename(&tmp, path)?;
            let file = std::fs::OpenOptions::new().append(true).open(path)?;
            self.file = Some(BufWriter::new(file));
            self.io_error = None;
        }
        self.bytes.drain(..cut);
        self.base += cut;
        Ok(cut)
    }

    /// The first file-mirror write error, if any occurred.
    pub fn io_error(&self) -> Option<std::io::ErrorKind> {
        self.io_error
    }

    /// Flushes the file mirror's buffer, reporting any sticky write
    /// error first.
    pub fn flush(&mut self) -> Result<(), WalError> {
        if let Some(kind) = self.io_error {
            return Err(WalError::Io(kind));
        }
        if let Some(file) = &mut self.file {
            file.flush()?;
        }
        Ok(())
    }

    /// Flushes and fsyncs the file mirror (full durability barrier).
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.flush()?;
        if let Some(file) = &mut self.file {
            file.get_ref().sync_all()?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Snapshot store

/// A directory of sequence-numbered snapshot files with bounded
/// retention. Writes are atomic (temp file + rename) so a crash during
/// [`SnapshotStore::save`] never leaves a half-written snapshot where
/// recovery would find it — recovery sees either the old snapshot or
/// the new one.
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
    keep: usize,
}

impl SnapshotStore {
    /// Opens (creating if needed) a snapshot directory retaining the
    /// newest `keep` snapshots.
    ///
    /// # Panics
    ///
    /// Panics if `keep == 0`.
    pub fn new(dir: impl Into<PathBuf>, keep: usize) -> Result<Self, WalError> {
        assert!(keep > 0, "snapshot store must retain at least one");
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir, keep })
    }

    fn path_of(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("snap-{seq:020}.nws"))
    }

    /// Writes snapshot `seq` atomically and prunes old snapshots beyond
    /// the retention bound. Returns the final path.
    pub fn save(&self, seq: u64, bytes: &[u8]) -> Result<PathBuf, WalError> {
        self.save_with(seq, |file| file.write_all(bytes))
    }

    /// [`SnapshotStore::save`] with the bytes streamed by `write` into
    /// the temp file, so they never have to exist in memory at once.
    pub fn save_with(
        &self,
        seq: u64,
        write: impl FnOnce(&mut File) -> std::io::Result<()>,
    ) -> Result<PathBuf, WalError> {
        let tmp = self.dir.join(format!("snap-{seq:020}.tmp"));
        write(&mut File::create(&tmp)?)?;
        let path = self.path_of(seq);
        std::fs::rename(&tmp, &path)?;
        let mut seqs = self.sequences()?;
        seqs.sort_unstable();
        while seqs.len() > self.keep {
            let old = seqs.remove(0);
            let _ = std::fs::remove_file(self.path_of(old));
        }
        Ok(path)
    }

    fn sequences(&self) -> Result<Vec<u64>, WalError> {
        let mut seqs = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(seq) = name
                .strip_prefix("snap-")
                .and_then(|s| s.strip_suffix(".nws"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                seqs.push(seq);
            }
        }
        Ok(seqs)
    }

    /// Loads the newest snapshot, if any exists. The bytes are returned
    /// unvalidated — [`recover_memory_rotated`] (or [`Memory::from_snapshot`])
    /// decides whether they are usable.
    pub fn load_newest(&self) -> Result<Option<(u64, Vec<u8>)>, WalError> {
        let Some(&seq) = self.sequences()?.iter().max() else {
            return Ok(None);
        };
        let bytes = std::fs::read(self.path_of(seq))?;
        Ok(Some((seq, bytes)))
    }
}

// ---------------------------------------------------------------------------
// Recovery

/// Where recovery started from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoverySource {
    /// No usable snapshot: the full WAL was replayed from an empty
    /// memory.
    Genesis,
    /// A validated snapshot covering the WAL up to `wal_offset`; only
    /// the suffix was replayed.
    Snapshot { wal_offset: usize },
}

/// What [`recover_memory_rotated`] did and found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Snapshot or genesis.
    pub source: RecoverySource,
    /// Why the offered snapshot was rejected (recovery fell back to
    /// genesis), if it was.
    pub snapshot_error: Option<WalError>,
    /// WAL records replayed on top of the starting state.
    pub replayed: u64,
    /// Length of the valid WAL prefix (bytes). Anything past this was
    /// torn or corrupt and is reported, not silently dropped.
    pub valid_wal_len: usize,
    /// The corruption that ended the replay, if the log did not decode
    /// cleanly to its end.
    pub tail_error: Option<WalError>,
}

/// Rebuilds a [`Memory`] from an optional snapshot plus the WAL, whose
/// bytes start at absolute offset `wal_base`: 0 for a journal never
/// rotated, [`Wal::start_offset`] for what [`Wal::bytes`] retains after
/// [`Wal::rotate`]. The snapshot's covered offset is read absolutely.
///
/// A snapshot that fails validation — or claims to cover more WAL than
/// exists — is rejected (reported in the [`RecoveryReport`]) and
/// recovery falls back to a genesis replay of the whole log. The replay
/// is total: it stops at the first corrupt record, keeping everything
/// before it. `on_record` sees every replayed record in order, after the
/// memory applied it. The memory is all this rebuilds: a forecaster is
/// rebuilt by [`Archive::apply`](crate::Archive::apply) over a journal
/// that reaches back to genesis.
///
/// A rotated journal makes a genesis replay impossible — the early
/// records are gone by design, because a snapshot covered them. So
/// when `wal_base > 0` a usable snapshot covering at least `wal_base`
/// is *required*: anything else is reported as a snapshot error and
/// the WAL is left unreplayed rather than silently rebuilding wrong
/// state from the middle of history.
pub fn recover_memory_rotated(
    config: MemoryConfig,
    snapshot: Option<&[u8]>,
    wal: &[u8],
    wal_base: usize,
    mut on_record: impl FnMut(&WalRecord),
) -> (Memory, RecoveryReport) {
    let wal_end = wal_base + wal.len();
    let mut snapshot_error = None;
    let (mut memory, source) = match snapshot {
        Some(bytes) => match Memory::from_snapshot(bytes) {
            Ok((m, off)) if (wal_base..=wal_end).contains(&(off as usize)) => (
                m,
                RecoverySource::Snapshot {
                    wal_offset: off as usize,
                },
            ),
            Ok((_, off)) if (off as usize) < wal_base => {
                snapshot_error = Some(WalError::Snapshot("snapshot predates the rotated wal"));
                (Memory::new(config), RecoverySource::Genesis)
            }
            Ok(_) => {
                snapshot_error = Some(WalError::Snapshot("snapshot is ahead of the wal"));
                (Memory::new(config), RecoverySource::Genesis)
            }
            Err(e) => {
                snapshot_error = Some(e);
                (Memory::new(config), RecoverySource::Genesis)
            }
        },
        None => (Memory::new(config), RecoverySource::Genesis),
    };
    if source == RecoverySource::Genesis && wal_base > 0 {
        // The log's beginning was rotated away; replaying the suffix
        // from an empty memory would fabricate state. Refuse.
        return (
            memory,
            RecoveryReport {
                source,
                snapshot_error: snapshot_error
                    .or(Some(WalError::Snapshot("rotated wal requires a snapshot"))),
                replayed: 0,
                valid_wal_len: wal_base,
                tail_error: None,
            },
        );
    }
    let from = match source {
        RecoverySource::Snapshot { wal_offset } => wal_offset - wal_base,
        RecoverySource::Genesis => 0,
    };
    let scan = replay(wal, from, |rec| {
        memory.apply(rec);
        on_record(rec);
    });
    (
        memory,
        RecoveryReport {
            source,
            snapshot_error,
            replayed: scan.records,
            valid_wal_len: wal_base + scan.end,
            tail_error: scan.error,
        },
    )
}

// ---------------------------------------------------------------------------
// Checkpoints

/// What one [`Memory::checkpoint`](crate::Memory::checkpoint) did: the
/// snapshot it wrote and the journal prefix the rotation reclaimed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointReport {
    /// Where the snapshot landed.
    pub snapshot_path: PathBuf,
    /// Absolute WAL offset the snapshot covers (recovery replays from
    /// here).
    pub covered: u64,
    /// Journal bytes the rotation dropped.
    pub rotated: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rid(n: u64) -> ResourceId {
        ResourceId(n)
    }

    /// The byte-at-a-time CRC the sliced one must equal.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE 802.3 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn sliced_crc32_equals_the_bytewise_one_at_every_alignment() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let bytes: Vec<u8> = (0..4_100)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 56) as u8
            })
            .collect();
        for align in 0..=8 {
            for len in (0..=200).chain([1_000, 4_000]) {
                let slice = &bytes[align..align + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "align {align}, len {len}"
                );
            }
        }
    }

    #[test]
    fn a_running_crc32_equals_the_one_shot_one_at_any_split() {
        let bytes: Vec<u8> = (0..1_000u32).map(|i| (i * 7 + i / 13) as u8).collect();
        for first in [0, 1, 3, 8, 9, 500, 999, 1_000] {
            for second in [0, 1, 7, 64] {
                let cut = (first + second).min(bytes.len());
                let mut crc = Crc32::default();
                crc.update(&bytes[..first]);
                crc.update(&bytes[first..cut]);
                crc.update(&bytes[cut..]);
                assert_eq!(crc.finish(), crc32(&bytes), "split at {first}, {cut}");
            }
        }
    }

    #[test]
    fn records_round_trip() {
        let records = [
            WalRecord::Append {
                id: rid(7),
                time: 120.0,
                value: 0.875,
            },
            WalRecord::Gap {
                id: rid(3),
                time: 130.0,
            },
            WalRecord::Drop { id: rid(7) },
        ];
        let mut bytes = Vec::new();
        for r in &records {
            r.encode_into(&mut bytes);
        }
        let mut seen = Vec::new();
        let scan = replay(&bytes, 0, |r| seen.push(*r));
        assert_eq!(scan.records, 3);
        assert_eq!(scan.end, bytes.len());
        assert_eq!(scan.error, None);
        assert_eq!(seen, records);
    }

    #[test]
    fn truncated_tail_keeps_valid_prefix() {
        let mut bytes = Vec::new();
        WalRecord::Drop { id: rid(1) }.encode_into(&mut bytes);
        let first = bytes.len();
        WalRecord::Append {
            id: rid(2),
            time: 10.0,
            value: 0.5,
        }
        .encode_into(&mut bytes);
        // Tear the final record at every possible byte.
        for cut in first + 1..bytes.len() {
            let torn = &bytes[..cut];
            let mut count = 0;
            let scan = replay(torn, 0, |_| count += 1);
            assert_eq!(count, 1, "cut at {cut}");
            assert_eq!(scan.end, first);
            assert_eq!(scan.error, Some(WalError::Truncated { offset: first }));
        }
    }

    #[test]
    fn bit_flips_yield_typed_errors() {
        let mut clean = Vec::new();
        WalRecord::Append {
            id: rid(5),
            time: 50.0,
            value: 0.25,
        }
        .encode_into(&mut clean);
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut bytes = clean.clone();
                bytes[byte] ^= 1 << bit;
                // Never panics; either decodes (flip restored a valid
                // frame — impossible for a single flip) or errors.
                let scan = replay(&bytes, 0, |_| {});
                assert!(scan.error.is_some(), "flip {byte}.{bit} went unnoticed");
                assert_eq!(scan.end, 0);
            }
        }
    }

    #[test]
    fn chunk_ends_on_record_boundaries() {
        let mut wal = Wal::new();
        let mut offsets = vec![0usize];
        for i in 0..10u64 {
            wal.log(&WalRecord::Append {
                id: rid(i),
                time: i as f64,
                value: 0.5,
            });
            offsets.push(wal.len());
        }
        let frame = offsets[1];
        // Any max: chunks start where asked and end on a boundary.
        for max in 1..wal.len() + 10 {
            let mut at = 0;
            while at < wal.len() {
                let c = wal.chunk(at, max);
                assert!(!c.is_empty(), "progress at {at} with max {max}");
                let end = at + c.len();
                assert!(offsets.contains(&end), "end {end} off-boundary");
                assert!(c.len() <= max.max(frame));
                at = end;
            }
        }
        assert!(wal.chunk(wal.len(), 1024).is_empty());
    }

    #[test]
    fn file_mirror_round_trips() {
        let dir = std::env::temp_dir().join(format!("nws-wal-file-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("grid.wal");
        let mut wal = Wal::with_file(&path).expect("creatable");
        for i in 0..20u64 {
            wal.log(&WalRecord::Append {
                id: rid(1),
                time: i as f64,
                value: 0.5,
            });
        }
        wal.sync().expect("flush");
        let disk = std::fs::read(&path).expect("readable");
        assert_eq!(disk, wal.bytes());
        assert_eq!(wal.io_error(), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_store_keeps_newest_and_prunes() {
        let dir = std::env::temp_dir().join(format!("nws-snapstore-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SnapshotStore::new(&dir, 2).expect("creatable");
        assert!(store.load_newest().expect("empty dir").is_none());
        for seq in 1..=5u64 {
            store.save(seq, &[seq as u8; 4]).expect("writable");
        }
        let (seq, bytes) = store.load_newest().expect("readable").expect("saved");
        assert_eq!(seq, 5);
        assert_eq!(bytes, vec![5u8; 4]);
        assert_eq!(store.sequences().expect("listable").len(), 2, "pruned");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_keeps_absolute_offsets_and_boundaries() {
        let mut wal = Wal::new();
        let mut offsets = vec![0usize];
        for i in 0..10u64 {
            wal.log(&WalRecord::Append {
                id: rid(i),
                time: i as f64,
                value: 0.5,
            });
            offsets.push(wal.len());
        }
        let total = wal.len();
        let all = wal.bytes().to_vec();
        // Rotate to a mid-record offset: snaps down to the boundary.
        let dropped = wal.rotate(offsets[4] + 3).expect("in-memory rotate");
        assert_eq!(dropped, offsets[4]);
        assert_eq!(wal.start_offset(), offsets[4]);
        assert_eq!(wal.len(), total, "absolute end never moves");
        assert_eq!(wal.bytes(), &all[offsets[4]..]);
        // Chunks at surviving offsets serve identical bytes.
        for &at in &offsets[4..10] {
            assert_eq!(wal.chunk(at, 1 << 20), &all[at..]);
        }
        // Rotated-away offsets serve nothing (the server layer turns
        // this into a typed error before asking).
        assert!(wal.chunk(0, 1 << 20).is_empty());
        // Rotating backwards is a no-op.
        assert_eq!(wal.rotate(0).expect("noop"), 0);
        assert_eq!(wal.start_offset(), offsets[4]);
        // Rotating past the end clamps to the end.
        let dropped = wal.rotate(total + 999).expect("clamp");
        assert_eq!(dropped, total - offsets[4]);
        assert_eq!(wal.start_offset(), total);
        assert!(wal.bytes().is_empty());
        assert_eq!(wal.len(), total);
    }

    #[test]
    fn rotation_rewrites_the_file_mirror_atomically() {
        let dir = std::env::temp_dir().join(format!("nws-wal-rotate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("grid.wal");
        let mut wal = Wal::with_file(&path).expect("creatable");
        let mut boundary = 0;
        for i in 0..20u64 {
            wal.log(&WalRecord::Append {
                id: rid(1),
                time: i as f64,
                value: 0.5,
            });
            if i == 11 {
                boundary = wal.len();
            }
        }
        wal.rotate(boundary).expect("file rotate");
        wal.sync().expect("durable");
        let disk = std::fs::read(&path).expect("readable");
        assert_eq!(disk, wal.bytes(), "file holds exactly the suffix");
        // Appends after rotation land in the rewritten file.
        wal.log(&WalRecord::Drop { id: rid(9) });
        wal.sync().expect("durable");
        let disk = std::fs::read(&path).expect("readable");
        assert_eq!(disk, wal.bytes());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_at_the_end_cuts_where_the_walk_would() {
        let dir = std::env::temp_dir().join(format!("nws-wal-rotate-end-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let (fast_path, walk_path) = (dir.join("fast.wal"), dir.join("walk.wal"));
        let mut fast = Wal::with_file(&fast_path).expect("creatable");
        let mut walk = Wal::with_file(&walk_path).expect("creatable");
        let log = |wal: &mut Wal, from: u64| {
            for i in from..from + 7 {
                wal.log(&WalRecord::Append {
                    id: rid(i % 3),
                    time: i as f64,
                    value: 0.5,
                });
                wal.log(&WalRecord::Gap {
                    id: rid(i % 2),
                    time: i as f64,
                });
            }
        };
        // Two rounds, so the second end cut is relative to a moved base.
        for round in 0..2 {
            log(&mut fast, round * 10);
            log(&mut walk, round * 10);
            let dropped = fast.rotate(fast.len()).expect("fast rotate");
            let cut = replay(walk.bytes(), 0, |_| {}).end;
            assert_eq!(walk.drop_prefix(cut).expect("walked rotate"), dropped);
            assert_eq!(fast.start_offset(), walk.start_offset());
            assert_eq!(fast.start_offset(), fast.len());
            assert_eq!(fast.bytes(), walk.bytes());
            // Appends after the cut land in both rewritten mirrors alike.
            fast.log(&WalRecord::Drop { id: rid(9) });
            walk.log(&WalRecord::Drop { id: rid(9) });
            fast.sync().expect("durable");
            walk.sync().expect("durable");
            let disk = std::fs::read(&fast_path).expect("readable");
            assert_eq!(disk, std::fs::read(&walk_path).expect("readable"));
            assert_eq!(disk, fast.bytes());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_rotates_and_recovery_replays_the_suffix() {
        let dir = std::env::temp_dir().join(format!("nws-checkpoint-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SnapshotStore::new(&dir, 2).expect("creatable");
        let config = MemoryConfig { retain: 8 };
        // Golden: the same stream with no checkpoints.
        let mut golden = Memory::new(config);
        let mut live = Memory::new(config);
        live.attach_journal(Wal::new());
        let mut seq = 0;
        for i in 0..60 {
            golden.store(rid(i % 3), i as f64, 0.25);
            live.store(rid(i % 3), i as f64, 0.25);
            if i % 20 == 19 {
                seq += 1;
                let report = live.checkpoint(&store, seq).expect("checkpoint");
                assert_eq!(
                    report.covered,
                    live.journal().expect("attached").len() as u64
                );
                assert!(report.rotated > 0, "each checkpoint reclaims bytes");
            }
        }
        // More records after the last checkpoint: the replay suffix.
        for i in 60..70 {
            golden.store(rid(i % 3), i as f64, 0.25);
            live.store(rid(i % 3), i as f64, 0.25);
        }
        let wal = live.journal().expect("attached");
        assert!(
            wal.start_offset() > 0 && wal.bytes().len() < wal.len(),
            "growth is bounded: the journal retains a suffix only"
        );
        let (_, snap) = store.load_newest().expect("readable").expect("saved");
        let (recovered, report) =
            recover_memory_rotated(config, Some(&snap), wal.bytes(), wal.start_offset(), |_| {});
        assert!(matches!(report.source, RecoverySource::Snapshot { .. }));
        assert_eq!(report.tail_error, None);
        assert_eq!(recovered.fingerprint(), golden.fingerprint());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotated_wal_without_a_snapshot_refuses_to_recover() {
        let mut wal = Wal::new();
        for i in 0..6u64 {
            wal.log(&WalRecord::Append {
                id: rid(1),
                time: i as f64,
                value: 0.5,
            });
        }
        let cut = wal.len() / 2;
        wal.rotate(cut).expect("rotate");
        let (m, report) = recover_memory_rotated(
            MemoryConfig { retain: 8 },
            None,
            wal.bytes(),
            wal.start_offset(),
            |_| {},
        );
        assert_eq!(report.replayed, 0, "no fabricated mid-history state");
        assert_eq!(
            report.snapshot_error,
            Some(WalError::Snapshot("rotated wal requires a snapshot"))
        );
        assert_eq!(
            m.fingerprint(),
            Memory::new(MemoryConfig { retain: 8 }).fingerprint()
        );
    }

    #[test]
    fn recover_rejects_snapshot_ahead_of_wal() {
        let mut m = Memory::new(MemoryConfig { retain: 8 });
        m.attach_journal(Wal::new());
        for i in 0..10 {
            m.store(rid(1), i as f64, 0.5);
        }
        let snap = m.snapshot_bytes();
        // Offer the snapshot with a WAL shorter than it claims to cover.
        let wal = &m.journal().expect("attached").bytes()[..10];
        let (_, report) =
            recover_memory_rotated(MemoryConfig { retain: 8 }, Some(&snap), wal, 0, |_| {});
        assert_eq!(report.source, RecoverySource::Genesis);
        assert_eq!(
            report.snapshot_error,
            Some(WalError::Snapshot("snapshot is ahead of the wal"))
        );
    }
}
