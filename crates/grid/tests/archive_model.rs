//! The archive replays itself.
//!
//! A primary commits a random interleaving of readings — in order, late,
//! at a duplicate timestamp, with a NaN or infinite value or time — and
//! gaps, over several series, into a journaled [`Archive`]. A second
//! archive is fed nothing but [`Archive::apply`] over that journal, whole
//! and in [`Wal::chunk`]-sized pieces, and must end as the primary did:
//! the same [`Memory::fingerprint`](nws_grid::Memory::fingerprint) and
//! [`Archive::revision`], and for every series the same forecast bits,
//! method, observation and gap counts, confidence and interval. Fed in
//! chunks it must also equal the primary *as of* every chunk boundary —
//! a replica mid-sync serves a state the primary really was in.

use nws_grid::wal::replay;
use nws_grid::{Archive, MemoryConfig, ResourceId, Wal};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeMap;

const SERIES: u64 = 5;

#[derive(Debug, Clone, Copy)]
enum Op {
    Reading(ResourceId, f64, f64),
    Gap(ResourceId, f64),
}

/// Raw `(kind, series, time step, value in hundredths)` draws.
fn raw_ops(max: usize) -> impl Strategy<Value = Vec<(u8, u64, i32, i32)>> {
    vec((0u8..14, 0..SERIES, -3i32..10, 0i32..=100), 1..max)
}

/// Turns raw draws into traffic on per-series clocks: a positive step
/// moves the series forward, zero repeats its latest timestamp, a
/// negative one arrives late. A seventh of the ops are gaps, another
/// seventh readings with a non-finite value or time.
fn build_ops(raw: &[(u8, u64, i32, i32)]) -> Vec<Op> {
    const BAD: [f64; 3] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    let mut clocks = [0.0f64; SERIES as usize];
    raw.iter()
        .map(|&(kind, series, step, hundredths)| {
            let id = ResourceId(series);
            let clock = &mut clocks[series as usize];
            let time = *clock + 10.0 * f64::from(step);
            let value = f64::from(hundredths) / 100.0;
            let bad = BAD[hundredths as usize % 3];
            match kind {
                0 | 1 => Op::Gap(id, time.max(*clock)),
                2 => Op::Reading(id, time, bad),
                3 => Op::Reading(id, bad, value),
                _ => {
                    *clock = clock.max(time);
                    Op::Reading(id, time, value)
                }
            }
        })
        .collect()
}

/// Everything a query can see of one series' forecaster, bit for bit.
fn forecast_state(archive: &Archive, id: ResourceId) -> impl PartialEq + std::fmt::Debug {
    let service = archive.forecasts();
    let answer = service.forecast(id).map(|a| {
        (
            a.forecast.value.to_bits(),
            a.forecast.method.to_string(),
            a.observations,
            a.confidence.to_bits(),
            a.interval.map(|iv| (iv.lo.to_bits(), iv.hi.to_bits())),
        )
    });
    let horizon = service
        .forecast_horizon(id, 8)
        .map(|steps| steps.into_iter().map(f64::to_bits).collect::<Vec<_>>());
    (answer, horizon, service.gap_count(id), service.revision(id))
}

fn assert_same(replica: &Archive, primary: &Archive, what: &str) -> Result<(), TestCaseError> {
    let (got, want) = (
        replica.memory().fingerprint(),
        primary.memory().fingerprint(),
    );
    prop_assert!(got == want, "{what}: memory {got:016x} != {want:016x}");
    let (got, want) = (replica.revision(), primary.revision());
    prop_assert!(got == want, "{what}: revision {got} != {want}");
    for id in (0..SERIES).map(ResourceId) {
        let (got, want) = (forecast_state(replica, id), forecast_state(primary, id));
        prop_assert!(got == want, "{what}: series {}: {got:?} != {want:?}", id.0);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn an_archive_fed_only_the_journal_equals_the_primary(
        raw in raw_ops(240),
        retain in 1usize..24,
        chunk_max in 1usize..400,
    ) {
        let config = MemoryConfig { retain };
        let mut primary = Archive::new(config);
        primary.attach_journal(Wal::new());
        // The primary as of each journal length: (fingerprint, revision).
        let mut history = BTreeMap::from([(0, (primary.memory().fingerprint(), 0))]);
        let mut refused = 0;
        for op in build_ops(&raw) {
            match op {
                Op::Reading(id, time, value) => {
                    refused += usize::from(!primary.reading(id, time, value).is_stored());
                }
                Op::Gap(id, time) => primary.gap(id, time),
            }
            let len = primary.journal().expect("attached").len();
            history.insert(len, (primary.memory().fingerprint(), primary.revision()));
        }
        let wal = primary.journal().expect("attached");

        let mut whole = Archive::new(config);
        let scan = replay(wal.bytes(), 0, |rec| whole.apply(rec));
        prop_assert!(scan.error.is_none() && scan.end == wal.len());
        assert_same(&whole, &primary, "whole journal")?;

        let mut chunked = Archive::new(config);
        chunked.attach_journal(Wal::new());
        let mut offset = 0;
        while offset < wal.len() {
            let chunk = wal.chunk(offset, chunk_max);
            prop_assert!(!chunk.is_empty(), "no progress at {}", offset);
            replay(chunk, 0, |rec| chunked.apply(rec));
            offset += chunk.len();
            let seen = (chunked.memory().fingerprint(), chunked.revision());
            let then = history.get(&offset);
            prop_assert!(then == Some(&seen), "at byte {offset}: {seen:?}, primary {then:?}");
        }
        assert_same(&chunked, &primary, "chunked journal")?;
        prop_assert!(chunked.journal().expect("attached").is_empty(), "apply journaled");

        // The script did exercise the gate: what the memory refused the
        // forecaster never saw, on either side.
        let observed: u64 = (0..SERIES)
            .filter_map(|id| primary.forecasts().forecast(ResourceId(id)))
            .map(|a| a.observations)
            .sum();
        let readings = build_ops(&raw).iter().filter(|op| matches!(op, Op::Reading(..))).count();
        prop_assert_eq!(observed as usize + refused, readings);
    }
}
