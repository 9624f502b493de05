//! The archive replays itself.
//!
//! A primary commits a random interleaving of readings — in order, late,
//! at a duplicate timestamp, with a NaN or infinite value or time — and
//! gaps, over the series of two registered hosts, into a journaled
//! [`Archive`]. A second archive is fed nothing but [`Archive::apply`]
//! over that journal, whole and in [`Wal::chunk`]-sized pieces, and must
//! end as the primary did: the same
//! [`Memory::fingerprint`](nws_grid::Memory::fingerprint) and
//! [`Archive::revision`], and for every series the same forecast bits,
//! method, observation count, confidence and interval. Fed in chunks it
//! must also equal the primary *as of* every chunk boundary — a replica
//! mid-sync serves a state the primary really was in.
//!
//! The forecaster keeps forecasts only; the archive judges the rest from
//! its memory. Against an oracle that tracks each series' last stored
//! time, stored readings and gap count from the script alone, and knows
//! which series are forecast (all but each host's raw load average), on
//! the primary after every op and on its replayed replica:
//! [`Archive::staleness`], the degraded verdict and the host rows'
//! staleness are `now −` the last stored time; every series'
//! [`Memory::revision`](nws_grid::Memory::revision) is its stored
//! readings plus its gaps; a forecast series' observations plus gaps
//! equal that revision — so the memory's change counter is the
//! forecaster's too, and a gap count is the revision less the
//! observations — and a load-average series has no forecast and no
//! horizon at all.
//!
//! The forecaster is one dense store indexed by id. Fed sparse ids out
//! of order, readings, non-finite readings and gaps, it must answer
//! every query exactly as the map it replaced, kept here as the oracle.
//!
//! Each property runs at 128 or 64 cases, and again at 2,048 under
//! `cargo test --release -p nws-grid -- --ignored`.

use nws_forecast::{ErrorRow, IntervalTracker, PredictorBank};
use nws_grid::wal::replay;
use nws_grid::{
    Archive, ForecastAnswer, ForecastService, MemoryConfig, Metric, ResourceId, Wal,
    STALENESS_BOUND,
};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The hosts every archive here registers, in order: four series each.
const HOSTS: [&str; 2] = ["thing1", "gremlin"];

/// Series the scripts touch: every registered one.
const SERIES: u64 = 4 * HOSTS.len() as u64;

/// Whether the archive forecasts a series, as the oracle knows it: each
/// host registers [`Metric::all`] in order, and of those the raw load
/// average is stored but never forecast.
fn forecast(id: ResourceId) -> bool {
    Metric::all()[id.0 as usize % Metric::all().len()] != Metric::LoadAverage
}

/// An empty archive with [`HOSTS`] registered, as a primary and each of
/// its replicas are built.
fn registered(config: MemoryConfig) -> Archive {
    let mut archive = Archive::new(config);
    for host in HOSTS {
        archive.register_host(host);
    }
    archive
}

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
    (answer, horizon)
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

/// A replica fed the primary's journal, whole or chunk by chunk, is the
/// primary.
fn journal_replay_equals_the_primary(
    raw: &[(u8, u64, i32, i32)],
    retain: usize,
    chunk_max: usize,
) -> Result<(), TestCaseError> {
    let config = MemoryConfig { retain };
    let mut primary = registered(config);
    primary.attach_journal(Wal::new());
    // The primary as of each journal length: (fingerprint, revision).
    let mut history = BTreeMap::from([(0, (primary.memory().fingerprint(), 0))]);
    // Readings the memory refused on forecast series.
    let mut refused = 0;
    for op in build_ops(raw) {
        match op {
            Op::Reading(id, time, value) => {
                let stored = primary.reading(id, time, value).is_stored();
                refused += usize::from(!stored && forecast(id));
            }
            Op::Gap(id, time) => {
                primary.gap(id, time);
            }
        }
        let len = primary.journal().expect("attached").len();
        history.insert(len, (primary.memory().fingerprint(), primary.revision()));
    }
    let wal = primary.journal().expect("attached");

    let mut whole = registered(config);
    let scan = replay(wal.bytes(), 0, |rec| {
        whole.apply(rec);
    });
    prop_assert!(scan.error.is_none() && scan.end == wal.len());
    assert_same(&whole, &primary, "whole journal")?;

    let mut chunked = registered(config);
    chunked.attach_journal(Wal::new());
    let mut offset = 0;
    while offset < wal.len() {
        let chunk = wal.chunk(offset, chunk_max);
        prop_assert!(!chunk.is_empty(), "no progress at {}", offset);
        replay(chunk, 0, |rec| {
            chunked.apply(rec);
        });
        offset += chunk.len();
        let seen = (chunked.memory().fingerprint(), chunked.revision());
        let then = history.get(&offset);
        prop_assert!(
            then == Some(&seen),
            "at byte {offset}: {seen:?}, primary {then:?}"
        );
    }
    assert_same(&chunked, &primary, "chunked journal")?;
    prop_assert!(
        chunked.journal().expect("attached").is_empty(),
        "apply journaled"
    );

    // The script did exercise the gate: of the readings on forecast
    // series, what the memory refused the forecaster never saw.
    let observed: u64 = (0..SERIES)
        .map(ResourceId)
        .filter(|&id| forecast(id))
        .filter_map(|id| primary.forecasts().forecast(id))
        .map(|a| a.observations)
        .sum();
    let readings = build_ops(raw)
        .iter()
        .filter(|op| matches!(op, Op::Reading(id, ..) if forecast(*id)))
        .count();
    prop_assert_eq!(observed as usize + refused, readings);
    Ok(())
}

/// What the script alone says of one series: its last stored time, the
/// readings stored and the gaps committed to it.
#[derive(Debug, Clone, Copy, Default)]
struct Judged {
    last: Option<f64>,
    stored: u64,
    gaps: u64,
}

impl Judged {
    /// Takes a reading as the memory's contract does: a finite value at
    /// a finite time strictly after the last stored one. Returns whether
    /// it was stored.
    fn reading(&mut self, time: f64, value: f64) -> bool {
        let stored =
            value.is_finite() && time.is_finite() && self.last.is_none_or(|last| time > last);
        if stored {
            self.last = Some(time);
            self.stored += 1;
        }
        stored
    }

    fn staleness(&self, now: f64) -> Option<f64> {
        self.last.map(|last| (now - last).max(0.0))
    }
}

/// The archive's staleness, degraded verdict, host rows and per-series
/// change count agree with the oracle at every `now` probed; a forecast
/// series has observed every stored reading, and a load-average series
/// answers no forecast and no horizon.
fn assert_judged(archive: &Archive, oracle: &[Judged], what: &str) -> Result<(), TestCaseError> {
    let clock = oracle.iter().filter_map(|o| o.last).fold(0.0, f64::max);
    for now in [
        0.0,
        clock,
        clock + STALENESS_BOUND,
        clock + STALENESS_BOUND + 10.0,
    ] {
        for (id, judged) in (0..SERIES).map(ResourceId).zip(oracle) {
            let bits = |s: Option<f64>| s.map(f64::to_bits);
            let want = judged.staleness(now);
            let got = archive.staleness(id, now);
            prop_assert!(
                bits(got) == bits(want),
                "{what}: staleness of {} at {now}: {got:?} != {want:?}",
                id.0
            );
            let degraded = want.is_none_or(|s| s > STALENESS_BOUND);
            prop_assert!(
                archive.degraded(id, now) == degraded,
                "{what}: verdict on {} at {now}",
                id.0
            );
        }
        prop_assert_eq!(archive.host_rows(now).len(), HOSTS.len());
        for (host, row) in archive.host_rows(now).enumerate() {
            let want = oracle[4 * host + 2].staleness(now);
            prop_assert!(
                row.staleness.map(f64::to_bits) == want.map(f64::to_bits),
                "{what}: row {host} at {now}"
            );
            prop_assert!(
                row.degraded == want.is_none_or(|s| s > STALENESS_BOUND),
                "{what}: row {host} verdict"
            );
        }
    }
    for (id, judged) in (0..SERIES).map(ResourceId).zip(oracle) {
        let counted = archive.memory().revision(id);
        prop_assert!(
            judged.stored + judged.gaps == counted,
            "{what}: series {}: revision {counted}, oracle {judged:?}",
            id.0
        );
        let service = archive.forecasts();
        if forecast(id) {
            let observed = service.forecast(id).map_or(0, |a| a.observations);
            prop_assert!(
                observed + judged.gaps == counted,
                "{what}: series {}: {observed} + {} != {counted}",
                id.0,
                judged.gaps
            );
        } else {
            prop_assert!(
                service.forecast(id).is_none() && service.forecast_horizon(id, 8).is_none(),
                "{what}: series {} is stored only, yet forecast",
                id.0
            );
        }
    }
    Ok(())
}

/// The archive judges staleness and gaps from its memory as the oracle
/// does from the script, on the primary after every op and on its
/// replayed replica.
fn staleness_and_gaps_follow_the_memory(
    raw: &[(u8, u64, i32, i32)],
    retain: usize,
) -> Result<(), TestCaseError> {
    let config = MemoryConfig { retain };
    let mut primary = registered(config);
    primary.attach_journal(Wal::new());
    let mut oracle = [Judged::default(); SERIES as usize];
    for (step, op) in build_ops(raw).into_iter().enumerate() {
        match op {
            Op::Reading(id, time, value) => {
                let stored = primary.reading(id, time, value).is_stored();
                let want = oracle[id.0 as usize].reading(time, value);
                prop_assert!(stored == want, "op {step}: stored {stored}, oracle {want}");
            }
            Op::Gap(id, time) => {
                primary.gap(id, time);
                oracle[id.0 as usize].gaps += 1;
            }
        }
        assert_judged(&primary, &oracle, &format!("op {step}"))?;
    }
    let mut replica = registered(config);
    replay(primary.journal().expect("attached").bytes(), 0, |rec| {
        replica.apply(rec);
    });
    assert_judged(&replica, &oracle, "replayed")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn an_archive_fed_only_the_journal_equals_the_primary(
        raw in raw_ops(240),
        retain in 1usize..24,
        chunk_max in 1usize..400,
    ) {
        journal_replay_equals_the_primary(&raw, retain, chunk_max)?;
    }

    #[test]
    fn the_archive_judges_staleness_and_gaps_from_its_memory(
        raw in raw_ops(240),
        retain in 1usize..24,
    ) {
        staleness_and_gaps_follow_the_memory(&raw, retain)?;
    }
}

/// One series in the map-backed forecaster.
struct Entry {
    bank: PredictorBank,
    intervals: IntervalTracker,
    gap_ewma: f64,
}

/// The map-backed forecaster the dense store replaced: an entry per
/// series a reading or gap has reached, each with the 1999 panel. Its
/// clock and gap count moved up to the archive's memory, and are checked
/// there ([`Judged`]).
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
            gap_ewma: 0.0,
        })
    }

    fn observe(&mut self, id: ResourceId, value: f64) {
        if !value.is_finite() {
            self.note_gap(id);
            return;
        }
        let st = self.entry(id);
        if let Some(predicted) = st.bank.predicted_value() {
            st.intervals.record(predicted, value);
        }
        st.bank.observe(value);
        st.gap_ewma *= 1.0 - Self::GAIN;
    }

    fn note_gap(&mut self, id: ResourceId) {
        let st = self.entry(id);
        st.bank.note_gap();
        st.gap_ewma += Self::GAIN * (1.0 - st.gap_ewma);
    }

    fn forecast(&self, id: ResourceId) -> Option<AnswerBits> {
        let st = self.state.get(&id)?;
        let forecast = st.bank.forecast()?;
        let interval = st.intervals.interval(forecast.value);
        Some((
            forecast.value.to_bits(),
            forecast.method.to_string(),
            st.bank.observations(),
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
/// confidence and interval.
type AnswerBits = (u64, String, u64, u64, Option<(u64, u64)>);

fn answer_bits(a: ForecastAnswer) -> AnswerBits {
    (
        a.forecast.value.to_bits(),
        a.forecast.method.to_string(),
        a.observations,
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

/// Raw `(kind, sparse pick, time step, value in hundredths)` draws.
fn sparse_ops() -> impl Strategy<Value = Vec<(u8, usize, i32, i32)>> {
    vec((0u8..10, 0..SPARSE.len(), -2i32..6, 0i32..=100), 1..200)
}

/// The dense store, fed sparse ids directly, answers every query as the
/// map it replaced.
fn dense_store_answers_as_the_map(raw: &[(u8, usize, i32, i32)]) -> Result<(), TestCaseError> {
    const BAD: [f64; 3] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    let mut dense = ForecastService::new(0.9);
    let mut map = MapService {
        coverage: 0.9,
        state: BTreeMap::new(),
    };
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
                map.observe(id, bad);
            }
            _ => {
                dense.observe(id, clock, value);
                map.observe(id, value);
            }
        }
        for &id in &probes {
            let got = dense.forecast(id).map(answer_bits);
            let want = map.forecast(id);
            prop_assert!(
                got == want,
                "op {step}: series {}: {got:?} != {want:?}",
                id.0
            );
            let bits = |h: Vec<f64>| h.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            let got = dense.forecast_horizon(id, 8).map(bits);
            let want = map
                .state
                .get(&id)
                .and_then(|st| st.bank.predict_horizon(8))
                .map(bits);
            prop_assert!(got == want, "op {step}: horizon of {}", id.0);
        }
        let got = table_bits(dense.quality_table());
        let want = table_bits(map.quality_table());
        prop_assert!(got == want, "op {step}: quality table {got:?} != {want:?}");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn the_dense_store_answers_as_the_map_it_replaced(raw in sparse_ops()) {
        dense_store_answers_as_the_map(&raw)?;
    }
}

// The three properties at 2,048 cases each, for what 64–128 cases sample
// thinly: a one-point retention window, a chunk of one record, a gap as
// a series' first event. Run with
// `cargo test --release -p nws-grid -- --ignored`.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    #[ignore = "2,048 cases; run with --ignored"]
    fn an_archive_fed_only_the_journal_equals_the_primary_at_2048_cases(
        raw in raw_ops(240),
        retain in 1usize..24,
        chunk_max in 1usize..400,
    ) {
        journal_replay_equals_the_primary(&raw, retain, chunk_max)?;
    }

    #[test]
    #[ignore = "2,048 cases; run with --ignored"]
    fn the_archive_judges_staleness_and_gaps_from_its_memory_at_2048_cases(
        raw in raw_ops(240),
        retain in 1usize..24,
    ) {
        staleness_and_gaps_follow_the_memory(&raw, retain)?;
    }

    #[test]
    #[ignore = "2,048 cases; run with --ignored"]
    fn the_dense_store_answers_as_the_map_it_replaced_at_2048_cases(raw in sparse_ops()) {
        dense_store_answers_as_the_map(&raw)?;
    }
}
