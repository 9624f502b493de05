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
//! record  := len:u8 | crc32:u32le | payload[len]
//! payload := tag:u8 | id:uleb128 | [time] | [value:f64le-bits]
//! tag     := kind (0 Append, 1 Gap, 2 Drop) | 0x10 when time is integral
//! time    := uleb128 n     with the 0x10 bit: n < 2^53 and time is n exactly
//!          | f64le-bits    otherwise
//! ```
//!
//! For ids below 128 and whole-second times below 2^28 s, an Append
//! frames in at most 19 bytes, a Gap in at most 11 and a Drop in 7; from
//! 2^14 s (4.6 h) into a run on, an Append takes 18–19 and a Gap 10–11.
//!
//! Each record is self-contained: no field depends on an earlier
//! record, so a replication chunk, a rotation or
//! [`WalRecord::decode_at`] may start at any record boundary. Each
//! record has exactly one frame: the decoder refuses every spelling the
//! encoder never writes (a padded or overlong LEB128, a whole-second
//! time sent as `f64` bits), so any journal that decodes re-encodes to
//! its own bytes. `time` and `value` decode to their exact bits, NaN
//! payloads and signed zeros included.
//!
//! The CRC (IEEE 802.3, reflected) covers the payload only; the length
//! prefix is validated against [`MAX_RECORD_PAYLOAD`] before anything
//! is read, mirroring `nws-wire`'s bound-before-alloc discipline. The
//! decoder is *total*: garbage bytes, truncated tails, bit flips and
//! non-canonical fields all yield typed [`WalError`]s, never panics.

use crate::memory::{Memory, MemoryConfig, StoreOutcome, MAX_SERIES};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

pub use crate::registry::ResourceId;
use nws_timeseries::Seconds;

/// Magic prefix of a columnar snapshot file (`NWSNAP` + format version).
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"NWSNAP01";

/// Bytes of a record frame before its payload: the `u8` length and the
/// `u32le` CRC.
pub const RECORD_HEADER_LEN: usize = 5;

/// The largest payload the encoder writes: a tag, a ten-byte id varint
/// (a `u64` past 2^63), an `f64` time and an `f64` value. A length
/// prefix above it is garbage framing, rejected before any payload is
/// touched.
pub const MAX_RECORD_PAYLOAD: usize = 1 + MAX_VARINT_LEN + 8 + 8;

/// Upper bound on one framed record (`header + payload`). Replication
/// chunk sizes are clamped to at least this so a chunk always makes
/// progress.
pub const MAX_RECORD_FRAME: usize = RECORD_HEADER_LEN + MAX_RECORD_PAYLOAD;

const TAG_APPEND: u8 = 0;
const TAG_GAP: u8 = 1;
const TAG_DROP: u8 = 2;
/// Set on an Append or Gap tag when the time travels as a varint.
const INTEGRAL_TIME: u8 = 0x10;

/// Groups of seven bits a `u64` takes at most.
const MAX_VARINT_LEN: usize = 10;
/// Whole-second times below this travel as varints; every integer
/// below 2^53 is exactly an `f64`.
const INTEGRAL_TIME_LIMIT: u64 = 1 << 53;

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
        // A WAL payload is mostly tail: fold four of its bytes at once
        // too, so at most three go through the dependent bytewise step.
        let mut tail = words.remainder();
        if let Some((w, rest)) = tail.split_first_chunk::<4>() {
            let lo = crc ^ u32::from_le_bytes(*w);
            crc = t3[(lo & 0xFF) as usize]
                ^ t2[((lo >> 8) & 0xFF) as usize]
                ^ t1[((lo >> 16) & 0xFF) as usize]
                ^ t0[(lo >> 24) as usize];
            tail = rest;
        }
        for &b in tail {
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
    /// The payload's fields do not fill it exactly: one is cut short by
    /// the payload's end, or bytes trail the last (corruption that
    /// survived the checksum).
    BadLength { offset: usize },
    /// A field spelled in a form the encoder never writes: a LEB128
    /// padded with a zero group, longer than ten bytes or past 64 bits,
    /// an integral time at or past 2^53, or a whole-second time sent as
    /// `f64` bits.
    NonCanonical { offset: usize },
    /// A well-formed record names a series at or past [`MAX_SERIES`],
    /// which no memory addresses: recovery stops there.
    IdOutOfRange { offset: usize, id: u64 },
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
            WalError::NonCanonical { offset } => {
                write!(f, "wal record field not in canonical form at byte {offset}")
            }
            WalError::IdOutOfRange { offset, id } => write!(
                f,
                "wal record at byte {offset} names series {id}, past the {MAX_SERIES}-series bound"
            ),
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

    /// Appends this record's frame (`len | crc | payload`) to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let (kind, id, time, value) = match *self {
            WalRecord::Append { id, time, value } => (TAG_APPEND, id, Some(time), Some(value)),
            WalRecord::Gap { id, time } => (TAG_GAP, id, Some(time), None),
            WalRecord::Drop { id } => (TAG_DROP, id, None, None),
        };
        let whole = time.and_then(integral_seconds);
        let start = out.len();
        out.extend_from_slice(&[0; RECORD_HEADER_LEN]);
        out.push(kind | if whole.is_some() { INTEGRAL_TIME } else { 0 });
        put_uleb128(out, id.0);
        match (whole, time) {
            (Some(n), _) => put_uleb128(out, n),
            (None, Some(time)) => out.extend_from_slice(&time.to_bits().to_le_bytes()),
            (None, None) => {}
        }
        if let Some(value) = value {
            out.extend_from_slice(&value.to_bits().to_le_bytes());
        }
        let payload = &out[start + RECORD_HEADER_LEN..];
        // At most `MAX_RECORD_PAYLOAD` bytes, so the length fits a `u8`.
        let [c0, c1, c2, c3] = crc32(payload).to_le_bytes();
        let header = [payload.len() as u8, c0, c1, c2, c3];
        out[start..start + RECORD_HEADER_LEN].copy_from_slice(&header);
    }

    /// Decodes the record framed at `offset`, returning it and the
    /// offset of the next frame. Total: every malformed input yields a
    /// typed [`WalError`].
    pub fn decode_at(bytes: &[u8], offset: usize) -> Result<(WalRecord, usize), WalError> {
        let rest = bytes.get(offset..).unwrap_or(&[]);
        // The header is `len: u8 | crc: u32le`.
        let Some((&[len, c0, c1, c2, c3], rest)) = rest.split_first_chunk::<RECORD_HEADER_LEN>()
        else {
            return Err(WalError::Truncated { offset });
        };
        let len = usize::from(len);
        if len > MAX_RECORD_PAYLOAD {
            return Err(WalError::RecordTooLong { offset, len });
        }
        let Some(payload) = rest.get(..len) else {
            return Err(WalError::Truncated { offset });
        };
        if crc32(payload) != u32::from_le_bytes([c0, c1, c2, c3]) {
            return Err(WalError::BadCrc { offset });
        }
        let rec = Fields {
            rest: payload,
            offset,
        }
        .record()?;
        Ok((rec, offset + RECORD_HEADER_LEN + len))
    }
}

/// The `n` a whole-second time travels as: `n < 2^53` and `n as f64`
/// has exactly `time`'s bits. `None` for fractions, negatives, `-0.0`,
/// NaNs, infinities and times from 2^53 on, which travel as `f64` bits.
fn integral_seconds(time: Seconds) -> Option<u64> {
    // `as` saturates, and takes NaN to 0, whose bits differ from NaN's.
    let n = time as u64;
    (n < INTEGRAL_TIME_LIMIT && (n as f64).to_bits() == time.to_bits()).then_some(n)
}

/// Appends `n` as an unsigned LEB128: seven bits a byte, low group
/// first, the high bit set on every byte but the last.
fn put_uleb128(out: &mut Vec<u8>, mut n: u64) {
    while n >= 0x80 {
        out.push(n as u8 | 0x80);
        n >>= 7;
    }
    out.push(n as u8);
}

/// A CRC-valid payload read field by field. Every error names the
/// record's offset.
struct Fields<'a> {
    rest: &'a [u8],
    offset: usize,
}

impl Fields<'_> {
    fn cut_short(&self) -> WalError {
        WalError::BadLength {
            offset: self.offset,
        }
    }

    fn non_canonical(&self) -> WalError {
        WalError::NonCanonical {
            offset: self.offset,
        }
    }

    /// The whole payload as one record, or why it is not one.
    fn record(mut self) -> Result<WalRecord, WalError> {
        let tag = self.byte()?;
        let (kind, integral) = (tag & !INTEGRAL_TIME, tag & INTEGRAL_TIME != 0);
        if !matches!(
            (kind, integral),
            (TAG_APPEND | TAG_GAP, _) | (TAG_DROP, false)
        ) {
            return Err(WalError::UnknownTag {
                offset: self.offset,
                tag,
            });
        }
        let id = ResourceId(self.uleb128()?);
        let rec = match kind {
            TAG_DROP => WalRecord::Drop { id },
            TAG_GAP => WalRecord::Gap {
                id,
                time: self.time(integral)?,
            },
            _ => WalRecord::Append {
                id,
                time: self.time(integral)?,
                value: f64::from_bits(self.word()?),
            },
        };
        if !self.rest.is_empty() {
            return Err(self.cut_short());
        }
        Ok(rec)
    }

    fn byte(&mut self) -> Result<u8, WalError> {
        let (&byte, rest) = self.rest.split_first().ok_or_else(|| self.cut_short())?;
        self.rest = rest;
        Ok(byte)
    }

    fn word(&mut self) -> Result<u64, WalError> {
        let (word, rest) = self
            .rest
            .split_first_chunk::<8>()
            .ok_or_else(|| self.cut_short())?;
        self.rest = rest;
        Ok(u64::from_le_bytes(*word))
    }

    /// A canonical unsigned LEB128: at most ten groups, no bit past the
    /// 64th, and a last group of zero only in `0` itself.
    fn uleb128(&mut self) -> Result<u64, WalError> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.byte()?;
            let group = u64::from(byte & 0x7F);
            if shift == 63 && group > 1 {
                return Err(self.non_canonical());
            }
            value |= group << shift;
            if byte & 0x80 == 0 {
                if byte == 0 && shift > 0 {
                    return Err(self.non_canonical());
                }
                return Ok(value);
            }
        }
        Err(self.non_canonical())
    }

    /// A time in the form its tag names, and only the form the encoder
    /// would have chosen for it.
    fn time(&mut self, integral: bool) -> Result<Seconds, WalError> {
        if integral {
            match self.uleb128()? {
                n if n < INTEGRAL_TIME_LIMIT => Ok(n as f64),
                _ => Err(self.non_canonical()),
            }
        } else {
            let time = f64::from_bits(self.word()?);
            match integral_seconds(time) {
                None => Ok(time),
                Some(_) => Err(self.non_canonical()),
            }
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
    replay_until(bytes, from, |rec, _| {
        f(rec);
        Ok(())
    })
}

/// [`replay`] with a callback that may refuse a record, given the
/// record and its offset: the scan stops there, as at a malformed
/// record, with the refusal as its error.
fn replay_until(
    bytes: &[u8],
    from: usize,
    mut f: impl FnMut(&WalRecord, usize) -> Result<(), WalError>,
) -> Replay {
    let mut offset = from.min(bytes.len());
    let mut records = 0u64;
    while offset < bytes.len() {
        let delivered = WalRecord::decode_at(bytes, offset)
            .and_then(|(rec, next)| f(&rec, offset).map(|()| next));
        match delivered {
            Ok(next) => {
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
/// is total: it stops at the first corrupt record, or the first naming a
/// series past [`MAX_SERIES`] ([`WalError::IdOutOfRange`]), keeping
/// everything before it. `on_record` sees every replayed record in order, after the
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
    let scan = replay_until(wal, from, |rec, offset| match memory.apply(rec) {
        StoreOutcome::RejectedIdOutOfRange => Err(WalError::IdOutOfRange {
            offset,
            id: rec.id().0,
        }),
        _ => {
            on_record(rec);
            Ok(())
        }
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

    /// Frames `payload` under a correct length and CRC, so only the
    /// decoder's own checks can refuse it.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut frame = vec![payload.len() as u8];
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        frame
    }

    #[test]
    fn the_frame_is_pinned_byte_for_byte() {
        let records = [
            WalRecord::Append {
                id: rid(3),
                time: 86_390.0,
                value: 0.875,
            },
            WalRecord::Append {
                id: rid(3),
                time: 10.5,
                value: 0.25,
            },
            WalRecord::Gap {
                id: rid(5),
                time: 86_400.0,
            },
            WalRecord::Drop { id: rid(5) },
        ];
        let golden: [&[u8]; 4] = [
            &[
                0x0D, 0xF9, 0x91, 0x0C, 0x0E, 0x10, 0x03, 0xF6, 0xA2, 0x05, 0x00, 0x00, 0x00, 0x00,
                0x00, 0x00, 0xEC, 0x3F,
            ],
            &[
                0x12, 0x78, 0xB7, 0x39, 0x74, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x25,
                0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xD0, 0x3F,
            ],
            &[0x05, 0x38, 0xB9, 0x09, 0xB8, 0x11, 0x05, 0x80, 0xA3, 0x05],
            &[0x02, 0xF2, 0x84, 0x85, 0x03, 0x02, 0x05],
        ];
        let mut journal = Vec::new();
        for (rec, want) in records.iter().zip(golden) {
            let mut frame = Vec::new();
            rec.encode_into(&mut frame);
            assert_eq!(frame, want, "{rec:?}");
            let at = journal.len();
            journal.extend_from_slice(want);
            assert_eq!(
                WalRecord::decode_at(&journal, at),
                Ok((*rec, journal.len()))
            );
        }
    }

    #[test]
    fn frames_take_the_documented_sizes() {
        let size = |rec: WalRecord| {
            let mut frame = Vec::new();
            rec.encode_into(&mut frame);
            frame.len()
        };
        // Ids below 128, whole-second times below 2^28 s: a time takes
        // one varint byte below 2^7 s, three from 2^14 s (4.6 h) on and
        // four from 2^21 s (24 days) on.
        for (id, time, append, gap) in [
            (0, 0.0, 16, 8),
            (127, 16_384.0, 18, 10),
            (127, 86_400.0, 18, 10),
            (127, 268_435_455.0, 19, 11),
        ] {
            let id = rid(id);
            let value = 0.5;
            assert_eq!(size(WalRecord::Append { id, time, value }), append);
            assert_eq!(size(WalRecord::Gap { id, time }), gap);
            assert_eq!(size(WalRecord::Drop { id }), 7);
        }
        // The largest frame the encoder writes is the bound.
        let widest = WalRecord::Append {
            id: rid(u64::MAX),
            time: 0.5,
            value: 0.5,
        };
        assert_eq!(size(widest), MAX_RECORD_FRAME);
    }

    #[test]
    fn malformed_payloads_are_typed_errors_past_the_crc() {
        let value = 0.5f64.to_bits().to_le_bytes();
        let with_value = |fields: &[u8]| [fields, &value[..]].concat();
        let at_limit = [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10];
        let cases: [(Vec<u8>, WalError); 12] = [
            (vec![], WalError::BadLength { offset: 7 }),
            // A varint padded with a zero group: 5 as `85 00`.
            (
                vec![TAG_DROP, 0x85, 0x00],
                WalError::NonCanonical { offset: 7 },
            ),
            // Eleven groups.
            (
                [&[TAG_DROP][..], &[0x80; 10], &[0x00]].concat(),
                WalError::NonCanonical { offset: 7 },
            ),
            // Ten groups whose last carries bit 65.
            (
                [&[TAG_DROP][..], &[0xFF; 9], &[0x02]].concat(),
                WalError::NonCanonical { offset: 7 },
            ),
            // 2^53 as an integral time.
            (
                with_value(&[&[TAG_APPEND | INTEGRAL_TIME, 0x01][..], &at_limit].concat()),
                WalError::NonCanonical { offset: 7 },
            ),
            // 120 s as `f64` bits, where the encoder writes a varint.
            (
                with_value(&[&[TAG_APPEND, 0x01][..], &120f64.to_bits().to_le_bytes()].concat()),
                WalError::NonCanonical { offset: 7 },
            ),
            // The integral-time bit on a Drop.
            (
                vec![TAG_DROP | INTEGRAL_TIME, 0x01],
                WalError::UnknownTag {
                    offset: 7,
                    tag: 0x12,
                },
            ),
            (vec![3, 0x01], WalError::UnknownTag { offset: 7, tag: 3 }),
            // Trailing bytes.
            (
                vec![TAG_DROP, 0x01, 0x00],
                WalError::BadLength { offset: 7 },
            ),
            // A varint the payload's end cuts.
            (vec![TAG_DROP, 0x85], WalError::BadLength { offset: 7 }),
            // A Gap with no time, an Append with half a value.
            (vec![TAG_GAP, 0x01], WalError::BadLength { offset: 7 }),
            (
                vec![TAG_APPEND | INTEGRAL_TIME, 0x01, 0x78, 0x00, 0x00],
                WalError::BadLength { offset: 7 },
            ),
        ];
        for (payload, want) in cases {
            // Behind one good record, so the offset is the bad one's.
            let mut bytes = Vec::new();
            WalRecord::Drop { id: rid(1) }.encode_into(&mut bytes);
            bytes.extend_from_slice(&framed(&payload));
            assert_eq!(
                WalRecord::decode_at(&bytes, 7),
                Err(want),
                "payload {payload:02X?}"
            );
            let scan = replay(&bytes, 0, |_| {});
            assert_eq!((scan.records, scan.end, scan.error), (1, 7, Some(want)));
        }
    }

    #[test]
    fn the_widest_fields_just_inside_the_rules_decode() {
        let cases = [
            // u64::MAX: nine full groups and a last group of 1.
            (
                [&[TAG_DROP][..], &[0xFF; 9], &[0x01]].concat(),
                WalRecord::Drop { id: rid(u64::MAX) },
            ),
            // 2^53 - 1 as an integral time.
            (
                [
                    &[TAG_GAP | INTEGRAL_TIME, 0x00][..],
                    &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F],
                ]
                .concat(),
                WalRecord::Gap {
                    id: rid(0),
                    time: 9_007_199_254_740_991.0,
                },
            ),
        ];
        for (payload, want) in cases {
            let frame = framed(&payload);
            assert_eq!(WalRecord::decode_at(&frame, 0), Ok((want, frame.len())));
            let mut again = Vec::new();
            want.encode_into(&mut again);
            assert_eq!(again, frame, "the one spelling of {want:?}");
        }
    }

    #[test]
    fn a_v1_frame_is_a_typed_error_not_a_panic() {
        // `len:u32le | crc32:u32le | tag | id:u64le | time | value`, the
        // layout this frame replaced, for Append { 3, 120.0, 0.875 }.
        let mut payload = vec![TAG_APPEND];
        payload.extend_from_slice(&3u64.to_le_bytes());
        payload.extend_from_slice(&120f64.to_bits().to_le_bytes());
        payload.extend_from_slice(&0.875f64.to_bits().to_le_bytes());
        let mut v1 = (payload.len() as u32).to_le_bytes().to_vec();
        v1.extend_from_slice(&crc32(&payload).to_le_bytes());
        v1.extend_from_slice(&payload);
        assert_eq!(v1.len(), 33);
        assert_eq!(
            WalRecord::decode_at(&v1, 0),
            Err(WalError::BadCrc { offset: 0 })
        );
        let scan = replay(&v1, 0, |_| {});
        assert_eq!((scan.records, scan.end), (0, 0));
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

    #[test]
    fn recovery_refuses_a_record_past_the_series_bound_with_a_typed_error() {
        let config = MemoryConfig { retain: 8 };
        let huge = 1u64 << 40;
        // One CRC-valid Append at id 2⁴⁰: 21 bytes that would have an
        // unbounded memory ask for ~61 TB and abort.
        let mut journal = Vec::new();
        (WalRecord::Append {
            id: rid(huge),
            time: 10.0,
            value: 0.5,
        })
        .encode_into(&mut journal);
        assert_eq!(journal.len(), 21);
        let (memory, report) = recover_memory_rotated(config, None, &journal, 0, |_| {
            panic!("a refused record reached on_record")
        });
        let refused = WalError::IdOutOfRange {
            offset: 0,
            id: huge,
        };
        assert_eq!(report.tail_error, Some(refused));
        assert_eq!((report.replayed, report.valid_wal_len), (0, 0));
        assert_eq!(memory.fingerprint(), Memory::new(config).fingerprint());

        // After a valid prefix the error names the record's offset, and
        // every record kind is refused at the bound itself.
        let mut live = Memory::new(config);
        live.attach_journal(Wal::new());
        live.store(rid(1), 1.0, 0.5);
        let prefix = live.journal().expect("attached").bytes().to_vec();
        let at_bound = rid(MAX_SERIES);
        for rec in [
            WalRecord::Append {
                id: at_bound,
                time: 2.0,
                value: 0.5,
            },
            WalRecord::Gap {
                id: at_bound,
                time: 2.0,
            },
            WalRecord::Drop { id: at_bound },
        ] {
            let mut wal = prefix.clone();
            rec.encode_into(&mut wal);
            let mut seen = 0;
            let (memory, report) = recover_memory_rotated(config, None, &wal, 0, |_| seen += 1);
            let refused = WalError::IdOutOfRange {
                offset: prefix.len(),
                id: MAX_SERIES,
            };
            assert_eq!(report.tail_error, Some(refused), "{rec:?}");
            assert_eq!((report.replayed, seen), (1, 1), "{rec:?}");
            assert_eq!(report.valid_wal_len, prefix.len(), "{rec:?}");
            assert_eq!(memory.fingerprint(), live.fingerprint(), "{rec:?}");

            // The live paths refuse it too, and change nothing.
            let mut m = Memory::new(config);
            m.attach_journal(Wal::new());
            assert_eq!(m.apply(&rec), StoreOutcome::RejectedIdOutOfRange);
            let mut archive = crate::Archive::new(config);
            assert_eq!(archive.apply(&rec), StoreOutcome::RejectedIdOutOfRange);
            assert!(archive.forecasts().forecast(at_bound).is_none());
            assert_eq!(m.global_revision() + archive.revision(), 0);
        }
        let mut m = Memory::new(config);
        m.attach_journal(Wal::new());
        let outcome = m.append(rid(huge), 2.0, 0.5);
        assert_eq!(outcome, StoreOutcome::RejectedIdOutOfRange);
        let outcome = m.record_gap(rid(MAX_SERIES), 2.0);
        assert_eq!(outcome, StoreOutcome::RejectedIdOutOfRange);
        let mut archive = crate::Archive::new(config);
        let outcome = archive.reading(rid(huge), 2.0, 0.5);
        assert_eq!(outcome, StoreOutcome::RejectedIdOutOfRange);
        let outcome = archive.gap(rid(huge), 2.0);
        assert_eq!(outcome, StoreOutcome::RejectedIdOutOfRange);
        assert!(m.journal().expect("attached").is_empty());
        assert_eq!(m.global_revision() + archive.revision(), 0);
        // The 10⁵-host fleet's highest id is inside the bound.
        assert!(m.store(rid(99_999), 2.0, 0.5));
    }
}
