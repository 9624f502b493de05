//! The flat [`PredictorBank`] against the algorithm it replaced.
//!
//! The bank used to be a `Vec<Box<dyn Predictor>>` with one
//! `ErrorTracker` per member: score every member that can predict,
//! let every member observe, reselect. [`BoxedBank`] below is that
//! algorithm, composed from the standalone predictor structs, and every
//! test drives it beside the flat bank through the same script —
//! measurements, gaps (single and back-to-back), non-finite samples —
//! demanding the same selected member, the same forecast bits and the
//! same 16-step horizon bits at every step, and the same error sums at
//! the end.

use nws_forecast::{ErrorTracker, Member, PanelSpec, Predictor, PredictorBank, Selection};
use proptest::prelude::*;

/// The boxed-panel bank, as it stood before the flat layout.
struct BoxedBank {
    panel: Vec<Box<dyn Predictor>>,
    trackers: Vec<ErrorTracker>,
    selection: Selection,
    observations: u64,
    selected: usize,
}

impl BoxedBank {
    fn new(members: &[Member], selection: Selection, recent_window: usize) -> Self {
        Self {
            panel: members.iter().map(|m| m.standalone()).collect(),
            trackers: members
                .iter()
                .map(|_| ErrorTracker::new(recent_window))
                .collect(),
            selection,
            observations: 0,
            selected: 0,
        }
    }

    fn score_of(&self, i: usize) -> Option<f64> {
        let t = &self.trackers[i];
        match self.selection {
            Selection::RecentMae => t.recent_mae(),
            Selection::CumulativeMae => t.mae(),
            Selection::CumulativeMse => t.mse(),
        }
    }

    fn reselect(&mut self) {
        let mut best = self.selected;
        let mut best_score = f64::INFINITY;
        for i in 0..self.panel.len() {
            if self.panel[i].predict().is_none() {
                continue;
            }
            let score = self.score_of(i).unwrap_or(f64::INFINITY);
            if score < best_score {
                best_score = score;
                best = i;
            }
        }
        if best_score.is_infinite() {
            if let Some(i) = self.panel.iter().position(|f| f.predict().is_some()) {
                best = i;
            }
        }
        self.selected = best;
    }

    fn observe(&mut self, value: f64) {
        for (f, t) in self.panel.iter_mut().zip(&mut self.trackers) {
            if let Some(pred) = f.predict() {
                t.record(pred, value);
            }
            f.observe(value);
        }
        self.observations += 1;
        self.reselect();
    }

    fn note_gap(&mut self) {
        for f in &mut self.panel {
            f.note_gap();
        }
        if self.panel[self.selected].predict().is_none() {
            self.reselect();
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Step {
    Value(f64),
    Gap,
    /// A NaN or infinity: no measurement, so the oracle notes a gap.
    NonFinite(f64),
}

fn bits(v: Option<f64>) -> Option<u64> {
    v.map(f64::to_bits)
}

fn horizon_bits(h: Option<Vec<f64>>) -> Option<Vec<u64>> {
    h.map(|h| h.into_iter().map(f64::to_bits).collect())
}

/// Drives both banks through `script`, comparing after every step.
fn drive(
    members: &[Member],
    selection: Selection,
    recent_window: usize,
    script: impl IntoIterator<Item = Step>,
) -> Result<(), TestCaseError> {
    let mut oracle = BoxedBank::new(members, selection, recent_window);
    let mut bank = PredictorBank::new(members, selection, recent_window);
    for (i, step) in script.into_iter().enumerate() {
        match step {
            Step::Value(v) => {
                oracle.observe(v);
                bank.observe(v);
            }
            Step::Gap => {
                oracle.note_gap();
                bank.note_gap();
            }
            Step::NonFinite(v) => {
                oracle.note_gap();
                bank.observe(v);
            }
        }
        let member = &oracle.panel[oracle.selected];
        let at = format!("step {i} ({step:?}), oracle member {}", member.name());
        prop_assert!(
            bank.selected_index() == oracle.selected,
            "{at}: bank selected {}, oracle {}",
            bank.selected_index(),
            oracle.selected
        );
        let (got, want) = (bits(bank.predicted_value()), bits(member.predict()));
        prop_assert!(got == want, "{at}: forecast bits {got:?} != {want:?}");
        let got = horizon_bits(bank.predict_horizon(16));
        let want = horizon_bits(member.predict_horizon(16));
        prop_assert!(got == want, "{at}: horizon bits {got:?} != {want:?}");
        match bank.forecast() {
            Some(f) => prop_assert!(
                *f.method == *member.name() && f.method_index == oracle.selected,
                "{at}: served by {}",
                f.method
            ),
            None => prop_assert!(member.predict().is_none(), "{at}: nothing served"),
        }
    }
    prop_assert_eq!(bank.observations(), oracle.observations);
    for (row, (tracker, member)) in bank
        .error_table()
        .iter()
        .zip(oracle.trackers.iter().zip(&oracle.panel))
    {
        let (abs_sum, sq_sum, scored) = tracker.totals();
        prop_assert_eq!(row.name.to_string(), member.name());
        let got = (row.scored, row.abs_sum.to_bits(), row.sq_sum.to_bits());
        let want = (scored, abs_sum.to_bits(), sq_sum.to_bits());
        prop_assert!(got == want, "{} error sums {got:?} != {want:?}", row.name);
    }
    Ok(())
}

/// A script from raw draws: `(kind, level)` pairs, where a few percent of
/// the kinds are gaps (some doubled) or non-finite samples. `quantised`
/// snaps values to sixteenths, which fills the sorted windows with ties.
fn script_from(draws: &[(u8, f64)], quantised: bool) -> Vec<Step> {
    let mut script = Vec::with_capacity(draws.len());
    for &(kind, level) in draws {
        match kind {
            0..=2 => script.push(Step::Gap),
            3 => script.extend([Step::Gap, Step::Gap]),
            4 => script.push(Step::NonFinite(
                [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][(level * 2.99) as usize],
            )),
            _ if quantised => script.push(Step::Value((level * 16.0).round() / 16.0)),
            _ => script.push(Step::Value(level)),
        }
    }
    script
}

fn draws(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<(u8, f64)>> {
    prop::collection::vec((0u8..100, 0.0f64..=1.0), len)
}

fn selection() -> impl Strategy<Value = Selection> {
    prop_oneof![
        Just(Selection::RecentMae),
        Just(Selection::CumulativeMae),
        Just(Selection::CumulativeMse),
    ]
}

fn member() -> impl Strategy<Value = Member> {
    prop_oneof![
        Just(Member::LastValue),
        Just(Member::RunningMean),
        (1usize..40).prop_map(Member::SlidingMean),
        (1usize..40).prop_map(Member::SlidingMedian),
        (1usize..40, 0usize..4).prop_map(|(k, a)| Member::TrimmedMean(k, [0.0, 0.1, 0.2, 0.45][a])),
        (0.01f64..=1.0).prop_map(Member::ExpSmoothing),
        (0.05f64..0.95).prop_map(Member::AdaptiveExpSmoothing),
        (1usize..6, 0usize..40)
            .prop_map(|(min, extra)| Member::AdaptiveWindowMean(min, min + extra)),
        (0.01f64..0.5).prop_map(Member::StochasticGradient),
        (1usize..6, 0usize..40, 1usize..30).prop_map(|(order, extra, refit_every)| Member::Ar {
            order,
            window: 4 * order + extra,
            refit_every,
        }),
        (1usize..3, 1usize..3, 0usize..40, 1usize..30).prop_map(|(p, q, extra, refit_every)| {
            Member::Arma {
                p,
                q,
                window: 4 * p + extra,
                refit_every,
            }
        }),
    ]
}

fn spec() -> impl Strategy<Value = PanelSpec> {
    prop_oneof![
        (0.01f64..=1.0).prop_map(|gain| PanelSpec::EwmaOnly { gain }),
        Just(PanelSpec::Cheap),
        Just(PanelSpec::Nws1999),
        Just(PanelSpec::Extended),
    ]
}

proptest! {
    #[test]
    fn named_panels_match_the_boxed_bank(
        spec in spec(),
        draws in draws(1..700),
        quantised in any::<bool>(),
    ) {
        drive(&spec.members(), Selection::default(), 30, script_from(&draws, quantised))?;
    }

    #[test]
    fn random_member_lists_match_the_boxed_bank(
        members in prop::collection::vec(member(), 1..10),
        selection in selection(),
        recent_window in 1usize..40,
        draws in draws(1..400),
        quantised in any::<bool>(),
    ) {
        drive(&members, selection, recent_window, script_from(&draws, quantised))?;
    }
}

/// Seeded xorshift levels in `[0, 1)` around a slowly wandering mean.
fn wandering_levels(seed: u64, n: usize) -> impl Iterator<Item = f64> {
    let mut rng = seed;
    let mut level = 0.5f64;
    (0..n).map(move |_| {
        rng ^= rng >> 12;
        rng ^= rng << 25;
        rng ^= rng >> 27;
        let u = (rng.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64;
        level = (0.5 + 0.97 * (level - 0.5) + 0.08 * (u - 0.5)).clamp(0.0, 1.0);
        level
    })
}

/// 9,600 steps: early gaps (one back-to-back) and a NaN, then more than
/// 9,000 uninterrupted measurements — two crossings of the 4,096-push
/// exact refresh for the ring's rolling sums and the error matrix's
/// column sums. The fixed-length adaptive window (`3-3` cannot change
/// length, so nothing rebases its sums early) crosses its own refresh.
#[test]
fn long_runs_cross_every_sum_refresh() {
    let mut with_fixed_window = PanelSpec::Nws1999.members();
    with_fixed_window.push(Member::AdaptiveWindowMean(3, 3));
    let lists = [
        PanelSpec::EwmaOnly { gain: 0.25 }.members(),
        PanelSpec::Cheap.members(),
        PanelSpec::Nws1999.members(),
        PanelSpec::Extended.members(),
        with_fixed_window,
    ];
    for (case, members) in lists.iter().enumerate() {
        let script = wandering_levels(7 + case as u64, 9_600)
            .enumerate()
            .map(|(i, v)| match i {
                200 | 340 | 341 => Step::Gap,
                420 => Step::NonFinite(f64::NAN),
                _ => Step::Value(v),
            });
        drive(members, Selection::default(), 30, script)
            .unwrap_or_else(|e| panic!("list {case}: {e}"));
    }
}
