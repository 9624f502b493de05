//! Property tests for the write-ahead log and snapshot codec.
//!
//! Mirrors the `nws-wire` fuzzing pattern: every record sequence must
//! round-trip bit-exactly through the log; garbage bytes, truncated
//! tails, and bit-flipped records must yield typed errors — never a
//! panic — while recovery keeps every record before the first
//! corruption; and rebuilding a [`Memory`] from genesis replay or from
//! a snapshot plus the WAL suffix must reproduce the original
//! fingerprint exactly.
//!
//! The frame itself: any record — any id, any `f64` bits for time and
//! value — decodes bit-identically and consumes exactly its frame, and a
//! CRC-valid payload is either a typed error or the one frame the
//! encoder writes for what it decodes to. The round trip runs at 1,024
//! cases, and again at 4,096 under
//! `cargo test --release -p nws-grid -- --ignored`.

use nws_grid::wal::{crc32, replay, MAX_RECORD_FRAME, RECORD_HEADER_LEN};
use nws_grid::{
    recover_memory_rotated, Memory, MemoryConfig, ResourceId, Wal, WalError, WalRecord,
};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Any f64 bit pattern, including NaNs, infinities, and signed zeros.
fn any_f64() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(f64::from_bits)
}

/// Times and values at the edges of the frame's rules: signed zeros,
/// infinities, NaN payloads, subnormals, both sides of 2^53, negatives
/// and fractions.
const EDGES: [f64; 16] = [
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    -f64::NAN,
    f64::from_bits(0x7FF0_0000_0000_0001),
    f64::from_bits(0xFFF8_0000_DEAD_BEEF),
    f64::from_bits(1),
    f64::MIN_POSITIVE / 2.0,
    9_007_199_254_740_991.0,
    9_007_199_254_740_992.0,
    -1.0,
    10.5,
    86_400.0,
    f64::MAX,
];

/// Any `f64` bits, weighted towards whole seconds and the edges.
fn edge_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        any_f64(),
        (0u64..1 << 53).prop_map(|n| n as f64),
        (0u64..1 << 28).prop_map(|n| n as f64),
        (0usize..EDGES.len()).prop_map(|i| EDGES[i]),
    ]
}

/// Any record: any `u64` id and any `f64` bits for time and value —
/// what the codec has to carry faithfully regardless of what the store
/// would do with it.
fn any_record() -> impl Strategy<Value = WalRecord> {
    let id = prop_oneof![any::<u64>(), 0u64..300];
    (0u8..3, id, edge_f64(), edge_f64()).prop_map(|(kind, id, time, value)| {
        let id = ResourceId(id);
        match kind {
            0 => WalRecord::Append { id, time, value },
            1 => WalRecord::Gap { id, time },
            _ => WalRecord::Drop { id },
        }
    })
}

/// A record's fields as bits, so NaNs compare by payload.
fn bits(rec: &WalRecord) -> (u8, u64, u64, u64) {
    match *rec {
        WalRecord::Append { id, time, value } => (0, id.0, time.to_bits(), value.to_bits()),
        WalRecord::Gap { id, time } => (1, id.0, time.to_bits(), 0),
        WalRecord::Drop { id } => (2, id.0, 0, 0),
    }
}

/// `rec` framed between `before` junk bytes and `after` more must
/// decode at `before` to the same bits and end exactly at its frame's
/// end.
fn one_record_round_trips(rec: &WalRecord, before: u8, after: u8) -> Result<(), TestCaseError> {
    let mut bytes = vec![0xA5; usize::from(before)];
    rec.encode_into(&mut bytes);
    let frame = bytes.len() - usize::from(before);
    bytes.extend(std::iter::repeat_n(0x5A, usize::from(after)));
    prop_assert!(frame <= MAX_RECORD_FRAME, "{rec:?} took {frame} bytes");
    prop_assert_eq!(
        usize::from(bytes[usize::from(before)]),
        frame - RECORD_HEADER_LEN
    );
    let (back, next) = WalRecord::decode_at(&bytes, usize::from(before))
        .map_err(|e| TestCaseError::fail(format!("{rec:?}: {e}")))?;
    prop_assert!(bits(&back) == bits(rec), "{rec:?} came back as {back:?}");
    prop_assert_eq!(next, usize::from(before) + frame);
    Ok(())
}

/// Raw op tuples for plausible journal traffic: mostly forward-in-time
/// appends (so series actually accumulate points and the ring
/// compacts), with occasional out-of-order appends, gaps, and drops.
fn raw_ops(max: usize) -> impl Strategy<Value = Vec<(u8, u64, i32, i32)>> {
    vec((0u8..12, 0u64..4, -3i32..10, -100_000i32..100_000), 1..max)
}

/// Decodes raw ops into records with per-series clocks, the way a
/// monitor would emit them.
fn build_records(raw: &[(u8, u64, i32, i32)]) -> Vec<WalRecord> {
    let mut clocks: BTreeMap<u64, f64> = BTreeMap::new();
    raw.iter()
        .map(|&(kind, id, delta, centivalue)| {
            let rid = ResourceId(id);
            match kind {
                9 => WalRecord::Gap {
                    id: rid,
                    time: clocks.get(&id).copied().unwrap_or(0.0),
                },
                10 | 11 => WalRecord::Drop { id: rid },
                _ => {
                    let clock = clocks.entry(id).or_insert(0.0);
                    let time = *clock + f64::from(delta);
                    if delta > 0 {
                        *clock = time;
                    }
                    WalRecord::Append {
                        id: rid,
                        time,
                        value: f64::from(centivalue) / 100.0,
                    }
                }
            }
        })
        .collect()
}

/// Encoded frame length of one record.
fn frame_len(rec: &WalRecord) -> usize {
    let mut buf = Vec::new();
    rec.encode_into(&mut buf);
    buf.len()
}

/// Logs every record into a fresh in-memory WAL.
fn log_all(records: &[WalRecord]) -> Wal {
    let mut wal = Wal::new();
    for rec in records {
        wal.log(rec);
    }
    wal
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn any_record_decodes_bit_identically_from_exactly_its_frame(
        rec in any_record(),
        before in 0u8..40,
        after in 0u8..40,
    ) {
        one_record_round_trips(&rec, before, after)?;
    }

    #[test]
    fn a_crc_valid_payload_is_a_typed_error_or_its_own_encoding(
        tag in prop_oneof![0u8..3, 0x10u8..0x13, any::<u8>()],
        body in vec(prop_oneof![any::<u8>(), 0x80u8..0x82, 0u8..2], 0..27),
    ) {
        let payload = [&[tag][..], &body].concat();
        let mut frame = vec![payload.len() as u8];
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        match WalRecord::decode_at(&frame, 0) {
            Ok((rec, next)) => {
                prop_assert_eq!(next, frame.len());
                let mut again = Vec::new();
                rec.encode_into(&mut again);
                prop_assert!(again == frame, "{rec:?} has another spelling");
            }
            Err(e) => prop_assert!(
                matches!(
                    e,
                    WalError::BadLength { offset: 0 }
                        | WalError::NonCanonical { offset: 0 }
                        | WalError::UnknownTag { offset: 0, .. }
                ),
                "a CRC-valid payload failed as {:?}",
                e
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn records_round_trip_through_the_log(records in vec(any_record(), 0..64)) {
        let wal = log_all(&records);
        let mut seen = Vec::new();
        let outcome = replay(wal.bytes(), 0, |rec| seen.push(*rec));
        prop_assert!(outcome.error.is_none(), "own encoding must replay: {:?}", outcome.error);
        prop_assert_eq!(outcome.records as usize, records.len());
        prop_assert_eq!(outcome.end, wal.len());
        // NaN-safe equality: re-log what came back, compare the bytes.
        let relogged = log_all(&seen);
        prop_assert_eq!(relogged.bytes(), wal.bytes());
    }

    #[test]
    fn garbage_bytes_never_panic(bytes in vec(any::<u8>(), 0..256)) {
        let outcome = replay(&bytes, 0, |_| {});
        prop_assert!(outcome.end <= bytes.len());
        // Either the garbage happened to parse to its end, or the
        // failure is typed and positioned inside the buffer.
        if outcome.end != bytes.len() {
            prop_assert!(outcome.error.is_some());
        }
    }

    #[test]
    fn truncation_keeps_every_whole_record(
        records in vec(any_record(), 1..48),
        frac in 0.0f64..1.0,
    ) {
        let wal = log_all(&records);
        let cut = ((wal.len() as f64) * frac) as usize;
        // How many records fit entirely below the cut, and where the
        // last whole one ends.
        let mut whole = 0usize;
        let mut boundary = 0usize;
        for rec in &records {
            let next = boundary + frame_len(rec);
            if next > cut {
                break;
            }
            boundary = next;
            whole += 1;
        }
        let mut seen = 0usize;
        let outcome = replay(&wal.bytes()[..cut], 0, |_| seen += 1);
        prop_assert_eq!(seen, whole);
        prop_assert_eq!(outcome.end, boundary);
        if cut == boundary {
            prop_assert!(outcome.error.is_none(), "cut on a boundary is a clean tail");
        } else {
            prop_assert!(outcome.error.is_some(), "torn tail must be typed");
        }
    }

    #[test]
    fn single_byte_flips_are_typed_and_keep_the_prefix(
        records in vec(any_record(), 1..48),
        pos_seed in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let wal = log_all(&records);
        let mut bytes = wal.bytes().to_vec();
        let pos = (pos_seed % bytes.len() as u64) as usize;
        bytes[pos] ^= flip;
        // The record containing the flipped byte, and its offset.
        let mut hit = 0usize;
        let mut offset = 0usize;
        for rec in &records {
            let next = offset + frame_len(rec);
            if pos < next {
                break;
            }
            offset = next;
            hit += 1;
        }
        let mut seen = 0usize;
        let outcome = replay(&bytes, 0, |_| seen += 1);
        prop_assert!(outcome.error.is_some(), "corruption must be a typed error");
        prop_assert_eq!(seen, hit);
        prop_assert_eq!(outcome.end, offset);
    }

    #[test]
    fn snapshots_round_trip_bit_exactly(
        retain in 1usize..6,
        raw in raw_ops(96),
    ) {
        let records = build_records(&raw);
        let mut mem = Memory::new(MemoryConfig { retain });
        for rec in &records {
            mem.apply(rec);
        }
        let snap = mem.snapshot_bytes();
        let (restored, wal_offset) = Memory::from_snapshot(&snap).expect("own snapshot loads");
        prop_assert_eq!(wal_offset, 0);
        prop_assert_eq!(restored.fingerprint(), mem.fingerprint());
        // Snapshotting the restored memory is a fixed point.
        prop_assert_eq!(restored.snapshot_bytes(), snap);
    }

    #[test]
    fn corrupted_snapshots_are_rejected_not_panics(
        retain in 1usize..6,
        raw in raw_ops(64),
        pos_seed in any::<u64>(),
        flip in 1u8..=255,
        cut_frac in 0.0f64..1.0,
    ) {
        let records = build_records(&raw);
        let mut mem = Memory::new(MemoryConfig { retain });
        for rec in &records {
            mem.apply(rec);
        }
        let snap = mem.snapshot_bytes();
        // Any single flipped byte breaks the trailer CRC (or the magic).
        let mut bad = snap.clone();
        let pos = (pos_seed % bad.len() as u64) as usize;
        bad[pos] ^= flip;
        prop_assert!(Memory::from_snapshot(&bad).is_err());
        // Any strict prefix is rejected too.
        let cut = ((snap.len() as f64) * cut_frac) as usize;
        prop_assert!(Memory::from_snapshot(&snap[..cut]).is_err());
    }

    #[test]
    fn recovery_reproduces_the_fingerprint_from_genesis_or_snapshot(
        retain in 1usize..6,
        raw in raw_ops(96),
        snap_at_seed in any::<u64>(),
    ) {
        let records = build_records(&raw);
        let config = MemoryConfig { retain };
        // The golden run: state and journal grown together.
        let mut golden = Memory::new(config);
        let mut wal = Wal::new();
        let snap_at = (snap_at_seed % (records.len() as u64 + 1)) as usize;
        let mut snapshot = None;
        for (i, rec) in records.iter().enumerate() {
            if i == snap_at {
                snapshot = Some(golden.snapshot_bytes_at(wal.len() as u64));
            }
            golden.apply(rec);
            wal.log(rec);
        }
        if snap_at == records.len() {
            snapshot = Some(golden.snapshot_bytes_at(wal.len() as u64));
        }

        // Cold start: replay the whole journal from genesis.
        let (from_genesis, report) = recover_memory_rotated(config, None, wal.bytes(), 0, |_| {});
        prop_assert!(report.tail_error.is_none());
        prop_assert_eq!(report.replayed as usize, records.len());
        prop_assert_eq!(from_genesis.fingerprint(), golden.fingerprint());

        // Warm start: snapshot plus the journal suffix.
        let snap = snapshot.expect("snap_at is always in range");
        let (from_snap, report) = recover_memory_rotated(config, Some(&snap), wal.bytes(), 0, |_| {});
        prop_assert!(report.tail_error.is_none());
        prop_assert!(report.snapshot_error.is_none());
        prop_assert_eq!(report.replayed as usize, records.len() - snap_at);
        prop_assert_eq!(from_snap.fingerprint(), golden.fingerprint());
    }
}

// The frame round trip at 4,096 cases, for the edges 1,024 sample
// thinly. Run with `cargo test --release -p nws-grid -- --ignored`.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    #[ignore = "4,096 cases; run with --ignored"]
    fn any_record_round_trips_at_4096_cases(
        rec in any_record(),
        before in 0u8..40,
        after in 0u8..40,
    ) {
        one_record_round_trips(&rec, before, after)?;
    }
}
