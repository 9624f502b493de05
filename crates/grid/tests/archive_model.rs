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
//!
//! The forecaster keeps no change counter of its own; a serving cache
//! keys on the memory's. That is sound because the forecaster moves
//! exactly when the memory's revision does: after every op, and on the
//! replayed archive, each series' observations plus gaps equal its
//! [`Memory::revision`](nws_grid::Memory::revision).
//!
//! The forecaster is one dense store indexed by id. Fed sparse ids out
//! of order, readings, non-finite readings and gaps, it must answer
//! every query exactly as the map it replaced, kept here as the oracle.

use nws_forecast::{ErrorRow, IntervalTracker, PredictorBank};
use nws_grid::wal::replay;
use nws_grid::{Archive, ForecastAnswer, ForecastService, MemoryConfig, ResourceId, Wal};
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
    (answer, horizon, service.gap_count(id))
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

/// Every change the forecaster sees is one the memory counted: for each
/// series, observations absorbed (0 while it has no forecast) plus gaps
/// noted equal [`Memory::revision`](nws_grid::Memory::revision).
fn assert_forecaster_moves_with_memory(archive: &Archive, what: &str) -> Result<(), TestCaseError> {
    for id in (0..SERIES).map(ResourceId) {
        let service = archive.forecasts();
        let observed = service.forecast(id).map_or(0, |a| a.observations);
        let moved = observed + service.gap_count(id);
        let counted = archive.memory().revision(id);
        prop_assert!(
            moved == counted,
            "{what}: series {}: {moved} != {counted}",
            id.0
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn the_forecaster_moves_exactly_when_the_memory_revision_does(
        raw in raw_ops(240),
        retain in 1usize..24,
    ) {
        let config = MemoryConfig { retain };
        let mut primary = Archive::new(config);
        primary.attach_journal(Wal::new());
        for (step, op) in build_ops(&raw).into_iter().enumerate() {
            match op {
                Op::Reading(id, time, value) => {
                    primary.reading(id, time, value);
                }
                Op::Gap(id, time) => primary.gap(id, time),
            }
            assert_forecaster_moves_with_memory(&primary, &format!("op {step}"))?;
        }
        let mut replica = Archive::new(config);
        replay(primary.journal().expect("attached").bytes(), 0, |rec| replica.apply(rec));
        assert_forecaster_moves_with_memory(&replica, "replayed")?;
    }
}

/// One series in the map-backed forecaster.
struct Entry {
    bank: PredictorBank,
    intervals: IntervalTracker,
    last_obs: Option<f64>,
    gap_ewma: f64,
    gaps: u64,
}

/// The map-backed forecaster the dense store replaced: an entry per
/// series a reading or gap has reached, each with the 1999 panel.
struct MapService {
    coverage: f64,
    state: BTreeMap<ResourceId, Entry>,
}

impl MapService {
    const GAIN: f64 = 0.15;

    fn entry(&mut self, id: ResourceId) -> &mut Entry {
        let coverage = self.coverage;
        self.state.entry(id).or_insert_with(|| Entry {
            bank: PredictorBank::nws_default(),
            intervals: IntervalTracker::new(coverage),
            last_obs: None,
            gap_ewma: 0.0,
            gaps: 0,
        })
    }

    fn observe(&mut self, id: ResourceId, time: f64, value: f64) {
        if !value.is_finite() {
            self.note_gap(id);
            return;
        }
        let st = self.entry(id);
        if let Some(predicted) = st.bank.predicted_value() {
            st.intervals.record(predicted, value);
        }
        st.bank.observe(value);
        st.last_obs = Some(time);
        st.gap_ewma *= 1.0 - Self::GAIN;
    }

    fn note_gap(&mut self, id: ResourceId) {
        let st = self.entry(id);
        st.bank.note_gap();
        st.gap_ewma += Self::GAIN * (1.0 - st.gap_ewma);
        st.gaps += 1;
    }

    fn forecast_at(&self, id: ResourceId, now: f64) -> Option<AnswerBits> {
        let st = self.state.get(&id)?;
        let forecast = st.bank.forecast()?;
        let interval = st.intervals.interval(forecast.value);
        let staleness = st.last_obs.map_or(0.0, |last| (now - last).max(0.0));
        Some((
            forecast.value.to_bits(),
            forecast.method.to_string(),
            st.bank.observations(),
            staleness.to_bits(),
            (1.0 - st.gap_ewma).clamp(0.0, 1.0).to_bits(),
            interval.map(|iv| (iv.lo.to_bits(), iv.hi.to_bits())),
        ))
    }

    fn quality_table(&self) -> Vec<ErrorRow> {
        let mut banks = self.state.values().map(|st| &st.bank);
        let Some(first) = banks.next() else {
            return Vec::new();
        };
        let mut merged = first.error_table();
        banks.for_each(|bank| bank.merge_errors_into(&mut merged));
        merged
    }
}

/// A forecast answer bit for bit: value, method, observations,
/// staleness, confidence and interval.
type AnswerBits = (u64, String, u64, u64, u64, Option<(u64, u64)>);

fn answer_bits(a: ForecastAnswer) -> AnswerBits {
    (
        a.forecast.value.to_bits(),
        a.forecast.method.to_string(),
        a.observations,
        a.staleness.to_bits(),
        a.confidence.to_bits(),
        a.interval.map(|iv| (iv.lo.to_bits(), iv.hi.to_bits())),
    )
}

fn table_bits(table: Vec<ErrorRow>) -> Vec<(String, u64, u64, u64)> {
    table
        .into_iter()
        .map(|r| {
            (
                r.name.to_string(),
                r.scored,
                r.abs_sum.to_bits(),
                r.sq_sum.to_bits(),
            )
        })
        .collect()
}

/// Sparse ids, listed out of order: the first fed may be the largest.
const SPARSE: [u64; 5] = [40, 3, 17, 0, 9];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn the_dense_store_answers_as_the_map_it_replaced(
        raw in vec((0u8..10, 0..SPARSE.len(), -2i32..6, 0i32..=100), 1..200),
    ) {
        const BAD: [f64; 3] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let mut dense = ForecastService::new(0.9);
        let mut map = MapService { coverage: 0.9, state: BTreeMap::new() };
        let mut clock = 0.0;
        // Every id fed, plus ids between, beyond and far beyond them.
        let probes: Vec<ResourceId> = (0..42).chain([1_000]).map(ResourceId).collect();
        for (step, &(kind, pick, dt, hundredths)) in raw.iter().enumerate() {
            let id = ResourceId(SPARSE[pick]);
            clock += 10.0 * f64::from(dt);
            let value = f64::from(hundredths) / 100.0;
            match kind {
                0 | 1 => {
                    dense.note_gap(id, clock);
                    map.note_gap(id);
                }
                2 => {
                    let bad = BAD[hundredths as usize % 3];
                    dense.observe(id, clock, bad);
                    map.observe(id, clock, bad);
                }
                _ => {
                    dense.observe(id, clock, value);
                    map.observe(id, clock, value);
                }
            }
            let touched: Vec<ResourceId> = map.state.keys().copied().collect();
            prop_assert!(dense.resource_ids() == touched, "op {step}: resource ids");
            let now = clock + 15.0;
            for &id in &probes {
                let gaps = map.state.get(&id).map_or(0, |st| st.gaps);
                prop_assert!(dense.gap_count(id) == gaps, "op {step}: gaps of {}", id.0);
                let got = dense.forecast_at(id, now).map(answer_bits);
                let want = map.forecast_at(id, now);
                prop_assert!(got == want, "op {step}: series {}: {got:?} != {want:?}", id.0);
                let bits = |h: Vec<f64>| h.into_iter().map(f64::to_bits).collect::<Vec<_>>();
                let got = dense.forecast_horizon(id, 8).map(bits);
                let want = map.state.get(&id).and_then(|st| st.bank.predict_horizon(8)).map(bits);
                prop_assert!(got == want, "op {step}: horizon of {}", id.0);
            }
            let got = table_bits(dense.quality_table());
            let want = table_bits(map.quality_table());
            prop_assert!(got == want, "op {step}: quality table {got:?} != {want:?}");
        }
    }
}
