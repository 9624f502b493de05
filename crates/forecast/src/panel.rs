//! The unified predictor panel: a flat bank of panel members under
//! dynamic best-predictor selection.
//!
//! [`PredictorBank`] is the one forecasting engine every tier consumes:
//! the per-host `ForecastService` path runs the paper's full 1999 panel
//! per series, the fleet tier runs a configurable subset per shard, and
//! the quality benchmarks run the extended panel v2. Which members a
//! bank holds is a list of [`Member`]s — usually named by a
//! [`PanelSpec`], a `Copy` selector cheap enough to live in fleet
//! configs — and everything else (scoring, selection, gap semantics,
//! horizons, error tables) is shared.
//!
//! # Layout
//!
//! The paper runs the whole panel on every series at every measurement,
//! so the bank is built for that loop rather than as a collection of
//! independent predictors:
//!
//! - **one history ring** holds the values since the last gap; every
//!   window member (sliding means and medians, trimmed means, the
//!   adaptive window, the gradient AR(1), AR and ARMA) reads it instead
//!   of owning a copy. Members over the same window length share one
//!   rolling sum or one sorted block;
//! - **one slot-major error matrix** holds every member's recent
//!   absolute errors (`recent[slot·n + member]`), so members advancing
//!   in lock-step write one contiguous row;
//! - each member's **standing prediction is computed once** per
//!   observation and reused for scoring, eligibility and serving;
//! - members are dispatched by `match` over a resolved layout shared by
//!   every bank built from the same member list, together with the
//!   method-name table.
//!
//! The member formulas themselves live in [`kernels`](crate::kernels),
//! where the standalone [`Predictor`] structs call them too.

use crate::adaptive::{AdaptiveExpSmoothing, AdaptiveWindowMean, StochasticGradient};
use crate::ar::ArPredictor;
use crate::arma::Arma;
use crate::kernels::{
    absorb_innovation, error_terms, ewma_step, fit_ar, median_of_sorted, model_horizon, model_step,
    rolling_sum_step, sgd_predict, sgd_step, sorted_slide, trigg_leach_step,
    trimmed_mean_of_sorted, AdjustedWindow, SUM_REFRESH_INTERVAL,
};
use crate::methods::{
    ExpSmoothing, LastValue, Predictor, RunningMean, SlidingMean, SlidingMedian, TrimmedMean,
};
use std::sync::{Arc, OnceLock};

/// Which error statistic drives predictor selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Selection {
    /// Mean absolute error over the recent window (the NWS default:
    /// "most accurate over the recent set of measurements").
    #[default]
    RecentMae,
    /// Cumulative mean absolute error over the whole series.
    CumulativeMae,
    /// Cumulative mean squared error.
    CumulativeMse,
}

/// One panel member, by description: which technique and its parameters.
/// `Copy`, so member lists are plain data; [`Member::standalone`] builds
/// the matching single-series [`Predictor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Member {
    /// [`LastValue`].
    LastValue,
    /// [`RunningMean`].
    RunningMean,
    /// [`SlidingMean`] over the last `k` values.
    SlidingMean(usize),
    /// [`SlidingMedian`] over the last `k` values.
    SlidingMedian(usize),
    /// [`TrimmedMean`] over the last `k` values, trimming fraction α.
    TrimmedMean(usize, f64),
    /// [`ExpSmoothing`] with a fixed gain.
    ExpSmoothing(f64),
    /// [`AdaptiveExpSmoothing`] with gain-adaptation rate φ.
    AdaptiveExpSmoothing(f64),
    /// [`AdaptiveWindowMean`] over `[min_len, max_len]`.
    AdaptiveWindowMean(usize, usize),
    /// [`StochasticGradient`] AR(1) with learning rate η.
    StochasticGradient(f64),
    /// [`ArPredictor`].
    Ar {
        /// AR order.
        order: usize,
        /// Fit window length.
        window: usize,
        /// Observations between refits.
        refit_every: usize,
    },
    /// [`Arma`].
    Arma {
        /// AR order.
        p: usize,
        /// MA order.
        q: usize,
        /// Fit window length.
        window: usize,
        /// Observations between AR-side refits.
        refit_every: usize,
    },
}

impl Member {
    /// The standalone single-series predictor this member describes.
    ///
    /// # Panics
    ///
    /// Panics on parameters the predictor's constructor rejects.
    pub fn standalone(self) -> Box<dyn Predictor> {
        match self {
            Member::LastValue => Box::new(LastValue::new()),
            Member::RunningMean => Box::new(RunningMean::new()),
            Member::SlidingMean(k) => Box::new(SlidingMean::new(k)),
            Member::SlidingMedian(k) => Box::new(SlidingMedian::new(k)),
            Member::TrimmedMean(k, alpha) => Box::new(TrimmedMean::new(k, alpha)),
            Member::ExpSmoothing(gain) => Box::new(ExpSmoothing::new(gain)),
            Member::AdaptiveExpSmoothing(phi) => Box::new(AdaptiveExpSmoothing::new(phi)),
            Member::AdaptiveWindowMean(min, max) => Box::new(AdaptiveWindowMean::new(min, max)),
            Member::StochasticGradient(eta) => Box::new(StochasticGradient::new(eta)),
            Member::Ar {
                order,
                window,
                refit_every,
            } => Box::new(ArPredictor::new(order, window, refit_every)),
            Member::Arma {
                p,
                q,
                window,
                refit_every,
            } => Box::new(Arma::new(p, q, window, refit_every)),
        }
    }

    /// Display name, e.g. `"sw_mean(20)"` — the standalone predictor's.
    pub fn name(self) -> String {
        self.standalone().name()
    }
}

/// A named panel composition: which members a [`PredictorBank`] holds.
/// `Copy`, so it can ride in fleet configs and sweep tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PanelSpec {
    /// A single exponential smoother — the fleet tier's zero-cost
    /// default, bit-identical to a dense EWMA.
    EwmaOnly {
        /// Smoothing gain in `(0, 1]`.
        gain: f64,
    },
    /// O(1)-state members only (last value, running mean, the smoothing
    /// gain bank): the cheap subset for memory-tight fleets.
    Cheap,
    /// The paper's full 1999 panel — identical to
    /// [`PredictorBank::nws_default`].
    Nws1999,
    /// Panel v2: the 1999 set plus online ARMA(1,1) and ARMA(2,1)
    /// members (Sandholm's computational-demand study).
    Extended,
}

/// The recent-error window of the NWS defaults.
const DEFAULT_RECENT_WINDOW: usize = 30;

impl PanelSpec {
    /// The panel members, in their canonical order.
    pub fn members(self) -> Vec<Member> {
        let smoothers = ExpSmoothing::BANK_GAINS.map(Member::ExpSmoothing);
        match self {
            PanelSpec::EwmaOnly { gain } => vec![Member::ExpSmoothing(gain)],
            PanelSpec::Cheap => {
                let mut panel = vec![Member::LastValue, Member::RunningMean];
                panel.extend(smoothers);
                panel
            }
            PanelSpec::Nws1999 | PanelSpec::Extended => {
                let mut panel = vec![Member::LastValue, Member::RunningMean];
                panel.extend([5, 10, 20, 50, 100].map(Member::SlidingMean));
                panel.extend([5, 11, 21, 51].map(Member::SlidingMedian));
                panel.extend([11, 31].map(|k| Member::TrimmedMean(k, 0.2)));
                panel.extend(smoothers);
                panel.push(Member::AdaptiveExpSmoothing(0.2));
                panel.push(Member::AdaptiveWindowMean(3, 100));
                panel.push(Member::StochasticGradient(0.05));
                panel.push(Member::Ar {
                    order: 3,
                    window: 120,
                    refit_every: 25,
                });
                if matches!(self, PanelSpec::Extended) {
                    for p in [1, 2] {
                        panel.push(Member::Arma {
                            p,
                            q: 1,
                            window: 120,
                            refit_every: 25,
                        });
                    }
                }
                panel
            }
        }
    }

    /// The resolved layout for this spec under the NWS defaults. The
    /// three fixed compositions resolve once per process; every bank
    /// built from them shares that layout and its name table.
    fn plan(self) -> Arc<Plan> {
        static FIXED: [OnceLock<Arc<Plan>>; 3] =
            [OnceLock::new(), OnceLock::new(), OnceLock::new()];
        let resolve = || Arc::new(Plan::new(&self.members(), DEFAULT_RECENT_WINDOW));
        let cell = match self {
            PanelSpec::EwmaOnly { .. } => return resolve(),
            PanelSpec::Cheap => &FIXED[0],
            PanelSpec::Nws1999 => &FIXED[1],
            PanelSpec::Extended => &FIXED[2],
        };
        Arc::clone(cell.get_or_init(resolve))
    }

    /// Builds a bank over this spec with the NWS defaults (recent-MAE
    /// selection over a 30-measurement window).
    pub fn build(self) -> PredictorBank {
        PredictorBank::from_plan(self.plan(), Selection::default())
    }
}

/// One issued forecast.
///
/// The method name is a shared, immutable string cached per panel member
/// at construction, so issuing a forecast never formats or allocates.
#[derive(Debug, Clone, PartialEq)]
pub struct Forecast {
    /// The predicted next value.
    pub value: f64,
    /// Panel index of the predictor that issued it.
    pub method_index: usize,
    /// Name of that predictor.
    pub method: Arc<str>,
}

/// One row of a per-predictor error table (paper Tables 2/3 shape).
///
/// Carries the raw sums rather than the means so rows from many banks
/// (one per fleet host) aggregate exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorRow {
    /// Panel member name.
    pub name: Arc<str>,
    /// Forecasts scored.
    pub scored: u64,
    /// Sum of absolute one-step errors.
    pub abs_sum: f64,
    /// Sum of squared one-step errors.
    pub sq_sum: f64,
}

impl ErrorRow {
    /// Mean absolute error (NaN when nothing was scored).
    pub fn mae(&self) -> f64 {
        if self.scored == 0 {
            f64::NAN
        } else {
            self.abs_sum / self.scored as f64
        }
    }

    /// Mean squared error (NaN when nothing was scored).
    pub fn mse(&self) -> f64 {
        if self.scored == 0 {
            f64::NAN
        } else {
            self.sq_sum / self.scored as f64
        }
    }

    /// Folds another bank's row for the same panel member into this one.
    ///
    /// # Panics
    ///
    /// Panics if the rows name different members.
    pub fn merge(&mut self, other: &ErrorRow) {
        assert_eq!(self.name, other.name, "merging rows of different members");
        self.scored += other.scored;
        self.abs_sum += other.abs_sum;
        self.sq_sum += other.sq_sum;
    }
}

/// Where one member's state lives in a bank built from a [`Plan`]: the
/// member's parameters plus offsets into the bank's `state` block and
/// model counters.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// Standing prediction is the state.
    Last,
    /// `state[sum]` is the sum of everything observed.
    RunMean { sum: usize },
    /// `state[sum]` is the shared rolling sum over the last `k`.
    SwMean { k: usize, sum: usize },
    /// `state[sorted..sorted + k]` is the shared ascending block.
    SwMedian { k: usize, sorted: usize },
    /// As [`Slot::SwMedian`].
    Trim { k: usize, alpha: f64, sorted: usize },
    /// Standing prediction is the state.
    Exp { gain: f64 },
    /// Standing prediction is the level; `state[at..at + 2]` are the
    /// smoothed error and smoothed absolute error.
    AdaptExp { phi: f64, at: usize },
    /// `adj[idx]`.
    Adj { idx: usize },
    /// `state[at..at + 2]` are `(w, b)`; the anchor is the ring's newest.
    Sgd { eta: f64, at: usize },
    /// AR (`q == 0`) and ARMA. `state[sum]` is the shared rolling sum of
    /// the fit window (the fallback mean); `state[at..]` holds mean,
    /// power, `ar[p]`, `theta[q]`, `resid[q]`, `autocov[p + 1]` and the
    /// two Levinson buffers; counters `iat..iat + 3` are observations
    /// since the last refit, whether a model is fitted, and live residuals.
    Model {
        p: usize,
        q: usize,
        window: usize,
        refit_every: usize,
        sum: usize,
        at: usize,
        iat: usize,
    },
}

impl Slot {
    /// Whether the member's forecast depends on the history ring, and so
    /// goes dark across a gap until a fresh value arrives. The others
    /// (level trackers) predict from their first observation on.
    fn reads_ring(&self) -> bool {
        !matches!(
            self,
            Slot::Last | Slot::RunMean { .. } | Slot::Exp { .. } | Slot::AdaptExp { .. }
        )
    }
}

/// A model slot's `state` block, split into its parts.
struct ModelState<'a> {
    mean: &'a mut f64,
    power: &'a mut f64,
    ar: &'a mut [f64],
    theta: &'a mut [f64],
    resid: &'a mut [f64],
    autocov: &'a mut [f64],
    lev_a: &'a mut [f64],
    lev_prev: &'a mut [f64],
}

impl<'a> ModelState<'a> {
    const fn len(p: usize, q: usize) -> usize {
        2 + p + 2 * q + (p + 1) + 2 * p
    }

    /// The model block at `state[at..]`.
    fn at(state: &'a mut [f64], at: usize, p: usize, q: usize) -> Self {
        let (scalars, rest) = state[at..at + Self::len(p, q)].split_at_mut(2);
        let (mean, power) = scalars.split_at_mut(1);
        let (ar, rest) = rest.split_at_mut(p);
        let (theta, rest) = rest.split_at_mut(q);
        let (resid, rest) = rest.split_at_mut(q);
        let (autocov, rest) = rest.split_at_mut(p + 1);
        let (lev_a, lev_prev) = rest.split_at_mut(p);
        Self {
            mean: &mut mean[0],
            power: &mut power[0],
            ar,
            theta,
            resid,
            autocov,
            lev_a,
            lev_prev,
        }
    }
}

/// A window length some members share, and where its shared state (a
/// rolling sum, or a `k`-slot sorted block) sits in `state`.
#[derive(Debug, Clone, Copy)]
struct Shared {
    k: usize,
    at: usize,
}

/// Finds or appends the shared entry for window `k`, taking `width`
/// slots at `*cursor`.
fn share(list: &mut Vec<Shared>, cursor: &mut usize, k: usize, width: usize) -> usize {
    if let Some(found) = list.iter().find(|s| s.k == k) {
        return found.at;
    }
    let at = *cursor;
    *cursor += width;
    list.push(Shared { k, at });
    at
}

/// A member list resolved into a bank layout: the name table and every
/// offset a bank needs, computed once and shared (behind an `Arc`) by
/// all banks built from it.
///
/// A bank's `vals` block is the ring (`ring_cap` slots), four
/// per-member rows (standing predictions and the three error sums), then
/// the `state` block the offsets here index: the shared rolling sums,
/// member state in panel order (scalars, sorted blocks, model blocks),
/// and the error matrix last. Its `ints` block is two per-member rows
/// (forecasts scored, matrix head) and the model counters `iat` indexes.
#[derive(Debug)]
struct Plan {
    names: Box<[Arc<str>]>,
    slots: Box<[Slot]>,
    /// Recent-error window (rows of the matrix).
    recent: usize,
    /// Ring capacity: a power of two above the longest member window, so
    /// a value written this step never lands on one a member still has
    /// to read as evicted.
    ring_cap: usize,
    sums: Box<[Shared]>,
    sorted: Box<[Shared]>,
    /// `(min_len, max_len)` of each adaptive-window member.
    adj: Box<[(usize, usize)]>,
    /// [`Slot::reads_ring`], per member.
    reads_ring: Box<[bool]>,
    matrix: usize,
    state_len: usize,
    ints_len: usize,
}

impl Plan {
    fn new(members: &[Member], recent: usize) -> Self {
        assert!(
            !members.is_empty(),
            "panel must contain at least one predictor"
        );
        assert!(recent > 0, "recent window must be positive");
        let n = members.len();
        // Constructing the standalone form validates the parameters.
        let names = members.iter().map(|m| Arc::from(m.name())).collect();
        let mut cursor = 0;
        let mut icursor = 0;
        let take = |cursor: &mut usize, width: usize| {
            let at = *cursor;
            *cursor += width;
            at
        };
        // Rolling sums first, so they sit beside the per-member rows.
        let mut sums = Vec::new();
        for m in members {
            match *m {
                Member::SlidingMean(k)
                | Member::Ar { window: k, .. }
                | Member::Arma { window: k, .. } => {
                    share(&mut sums, &mut cursor, k, 1);
                }
                _ => {}
            }
        }
        let mut sorted = Vec::new();
        let mut adj = Vec::new();
        // The furthest back any member reads the ring.
        let longest = members
            .iter()
            .map(|m| match *m {
                Member::SlidingMean(k) | Member::SlidingMedian(k) | Member::TrimmedMean(k, _) => k,
                Member::AdaptiveWindowMean(_, max_len) => max_len,
                Member::StochasticGradient(_) => 1,
                Member::Ar { window, .. } | Member::Arma { window, .. } => window,
                _ => 0,
            })
            .max()
            .unwrap_or(0);
        let slots: Box<[Slot]> = members
            .iter()
            .map(|m| match *m {
                Member::LastValue => Slot::Last,
                Member::RunningMean => Slot::RunMean {
                    sum: take(&mut cursor, 1),
                },
                Member::SlidingMean(k) => Slot::SwMean {
                    k,
                    sum: share(&mut sums, &mut cursor, k, 1),
                },
                Member::SlidingMedian(k) => Slot::SwMedian {
                    k,
                    sorted: share(&mut sorted, &mut cursor, k, k),
                },
                Member::TrimmedMean(k, alpha) => Slot::Trim {
                    k,
                    alpha,
                    sorted: share(&mut sorted, &mut cursor, k, k),
                },
                Member::ExpSmoothing(gain) => Slot::Exp { gain },
                Member::AdaptiveExpSmoothing(phi) => Slot::AdaptExp {
                    phi,
                    at: take(&mut cursor, 2),
                },
                Member::AdaptiveWindowMean(min_len, max_len) => {
                    adj.push((min_len, max_len));
                    Slot::Adj { idx: adj.len() - 1 }
                }
                Member::StochasticGradient(eta) => Slot::Sgd {
                    eta,
                    at: take(&mut cursor, 2),
                },
                Member::Ar {
                    order: p,
                    window,
                    refit_every,
                } => Slot::Model {
                    p,
                    q: 0,
                    window,
                    refit_every,
                    sum: share(&mut sums, &mut cursor, window, 1),
                    at: take(&mut cursor, ModelState::len(p, 0)),
                    iat: take(&mut icursor, 3),
                },
                Member::Arma {
                    p,
                    q,
                    window,
                    refit_every,
                } => Slot::Model {
                    p,
                    q,
                    window,
                    refit_every,
                    sum: share(&mut sums, &mut cursor, window, 1),
                    at: take(&mut cursor, ModelState::len(p, q)),
                    iat: take(&mut icursor, 3),
                },
            })
            .collect();
        let matrix = take(&mut cursor, recent * n);
        Self {
            names,
            recent,
            ring_cap: (longest + 1).next_power_of_two(),
            sums: sums.into(),
            sorted: sorted.into(),
            adj: adj.into(),
            reads_ring: slots.iter().map(Slot::reads_ring).collect(),
            matrix,
            state_len: cursor,
            ints_len: icursor,
            slots,
        }
    }

    fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether member `m` has a standing prediction: a ring reader once
    /// the ring holds a value, a level tracker once it has seen one.
    #[inline]
    fn live(&self, m: usize, ring_live: bool, level_live: bool) -> bool {
        // The steady state needs no per-member lookup.
        (ring_live && level_live)
            || if self.reads_ring[m] {
                ring_live
            } else {
                level_live
            }
    }
}

/// The per-member rows after the ring in `vals`, in order.
const PREDS: usize = 0;
const ABS_SUM: usize = 1;
const SQ_SUM: usize = 2;
const RECENT_SUM: usize = 3;
const ROWS: usize = 4;

/// A bank's blocks, split apart for one mutating pass (see [`Plan`]).
struct Parts<'a> {
    ring: &'a mut [f64],
    preds: &'a mut [f64],
    abs_sum: &'a mut [f64],
    sq_sum: &'a mut [f64],
    recent_sum: &'a mut [f64],
    state: &'a mut [f64],
    scored: &'a mut [u64],
    heads: &'a mut [u64],
    counters: &'a mut [u64],
}

impl<'a> Parts<'a> {
    fn split(plan: &Plan, vals: &'a mut [f64], ints: &'a mut [u64]) -> Self {
        let n = plan.len();
        let (ring, rest) = vals.split_at_mut(plan.ring_cap);
        let (preds, rest) = rest.split_at_mut(n);
        let (abs_sum, rest) = rest.split_at_mut(n);
        let (sq_sum, rest) = rest.split_at_mut(n);
        let (recent_sum, state) = rest.split_at_mut(n);
        let (scored, rest) = ints.split_at_mut(n);
        let (heads, counters) = rest.split_at_mut(n);
        Self {
            ring,
            preds,
            abs_sum,
            sq_sum,
            recent_sum,
            state,
            scored,
            heads,
            counters,
        }
    }
}

/// The forecasting engine: a predictor panel with dynamic selection.
///
/// Feed measurements with [`PredictorBank::update`]; each call scores
/// every panel member against the arriving measurement, updates them,
/// and returns the forecast of the currently best member for the *next*
/// measurement.
///
/// # Examples
///
/// ```
/// use nws_forecast::PredictorBank;
///
/// let mut nws = PredictorBank::nws_default();
/// for v in [0.8, 0.78, 0.82, 0.8, 0.79, 0.81] {
///     nws.update(v);
/// }
/// let f = nws.forecast().unwrap();
/// assert!((f.value - 0.8).abs() < 0.05);
/// println!("next 10s: {:.0}% available (chosen: {})", f.value * 100.0, f.method);
/// ```
#[derive(Debug, Clone)]
pub struct PredictorBank {
    plan: Arc<Plan>,
    selection: Selection,
    observations: u64,
    selected: usize,
    /// Values in the ring since the last gap (its write cursor).
    pushed: usize,
    /// The ring, the per-member rows, the `state` block (see [`Plan`]).
    vals: Box<[f64]>,
    /// The per-member count rows, the model counters.
    ints: Box<[u64]>,
    adj: Box<[AdjustedWindow]>,
}

impl PredictorBank {
    /// Builds a bank around a custom member list.
    ///
    /// # Panics
    ///
    /// Panics if the list is empty, `recent_window == 0`, or a member's
    /// parameters are out of range.
    pub fn new(members: &[Member], selection: Selection, recent_window: usize) -> Self {
        Self::from_plan(Arc::new(Plan::new(members, recent_window)), selection)
    }

    fn from_plan(plan: Arc<Plan>, selection: Selection) -> Self {
        let n = plan.len();
        let mut vals = vec![0.0; plan.ring_cap + ROWS * n + plan.state_len].into_boxed_slice();
        let mut ints = vec![0; 2 * n + plan.ints_len].into_boxed_slice();
        let state = Parts::split(&plan, &mut vals, &mut ints).state;
        for slot in plan.slots.iter() {
            match *slot {
                // Starts as the last-value predictor.
                Slot::Sgd { at, .. } => state[at] = 1.0,
                Slot::Model { p, q, at, .. } => *ModelState::at(state, at, p, q).power = 1.0,
                _ => {}
            }
        }
        Self {
            selection,
            observations: 0,
            selected: 0,
            pushed: 0,
            vals,
            ints,
            adj: plan
                .adj
                .iter()
                .map(|&(min_len, max_len)| AdjustedWindow::new(min_len, max_len))
                .collect(),
            plan,
        }
    }

    /// The full NWS panel used throughout the reproduction: last value,
    /// running mean, sliding means/medians over several windows, trimmed
    /// means, an exponential-smoothing gain bank, adaptive-gain smoothing,
    /// an adaptive-length window, and a stochastic-gradient AR(1).
    pub fn nws_default() -> Self {
        PanelSpec::Nws1999.build()
    }

    /// Panel size.
    pub fn panel_len(&self) -> usize {
        self.plan.slots.len()
    }

    /// Names of the panel members, in index order.
    pub fn method_names(&self) -> Vec<String> {
        self.plan.names.iter().map(|n| n.to_string()).collect()
    }

    /// Number of measurements consumed.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Index of the currently selected predictor.
    pub fn selected_index(&self) -> usize {
        self.selected
    }

    /// Name of the currently selected predictor.
    pub fn selected_name(&self) -> Arc<str> {
        Arc::clone(&self.plan.names[self.selected])
    }

    /// One of the per-member rows of `vals`.
    fn row(&self, row: usize) -> &[f64] {
        let n = self.panel_len();
        let at = self.plan.ring_cap + row * n;
        &self.vals[at..at + n]
    }

    /// The `state` block and the model counters, for reading.
    fn state(&self) -> (&[f64], &[u64]) {
        let n = self.panel_len();
        (
            &self.vals[self.plan.ring_cap + ROWS * n..],
            &self.ints[2 * n..],
        )
    }

    /// Member `m`'s raw error sums: `(abs_sum, sq_sum, scored)`.
    fn totals(&self, m: usize) -> (f64, f64, u64) {
        (self.row(ABS_SUM)[m], self.row(SQ_SUM)[m], self.ints[m])
    }

    /// Per-method `(name, cumulative MAE)` for every method that has been
    /// scored at least once.
    pub fn error_summary(&self) -> Vec<(String, f64)> {
        (0..self.panel_len())
            .filter_map(|m| {
                let (abs_sum, _, scored) = self.totals(m);
                (scored > 0).then(|| (self.plan.names[m].to_string(), abs_sum / scored as f64))
            })
            .collect()
    }

    /// The full per-predictor error table, one row per panel member in
    /// index order (unscored members report zero sums). Rows carry raw
    /// sums, so tables from many banks merge exactly via
    /// [`ErrorRow::merge`] or [`PredictorBank::merge_errors_into`].
    pub fn error_table(&self) -> Vec<ErrorRow> {
        (0..self.panel_len())
            .map(|m| {
                let (abs_sum, sq_sum, scored) = self.totals(m);
                ErrorRow {
                    name: Arc::clone(&self.plan.names[m]),
                    scored,
                    abs_sum,
                    sq_sum,
                }
            })
            .collect()
    }

    /// Folds this bank's error sums into `rows` — what merging
    /// [`PredictorBank::error_table`] row by row does, without building
    /// the table.
    ///
    /// # Panics
    ///
    /// Panics unless `rows` is an error table of the same panel.
    pub fn merge_errors_into(&self, rows: &mut [ErrorRow]) {
        assert_eq!(
            rows.len(),
            self.panel_len(),
            "merging tables of different panels"
        );
        for (m, row) in rows.iter_mut().enumerate() {
            // (`Arc<str>` equality looks at the pointers first.)
            assert_eq!(
                row.name, self.plan.names[m],
                "merging rows of different members"
            );
            let (abs_sum, sq_sum, scored) = self.totals(m);
            row.scored += scored;
            row.abs_sum += abs_sum;
            row.sq_sum += sq_sum;
        }
    }

    fn live(&self, m: usize) -> bool {
        self.plan.live(m, self.pushed > 0, self.observations > 0)
    }

    fn standing(&self, m: usize) -> Option<f64> {
        self.live(m).then(|| self.row(PREDS)[m])
    }

    fn reselect(&mut self) {
        let plan = &*self.plan;
        let n = plan.len();
        let (ring_live, level_live) = (self.pushed > 0, self.observations > 0);
        // Every criterion is an error sum over the count it covers; the
        // recent one covers at most the matrix's rows.
        let (sums, covers) = match self.selection {
            Selection::RecentMae => (self.row(RECENT_SUM), plan.recent as u64),
            Selection::CumulativeMae => (self.row(ABS_SUM), u64::MAX),
            Selection::CumulativeMse => (self.row(SQ_SUM), u64::MAX),
        };
        let scored = &self.ints[..n];
        let mut best = self.selected;
        let mut best_score = f64::INFINITY;
        for m in 0..n {
            // Members that cannot predict yet are not eligible, and one
            // never scored cannot beat one that was.
            if scored[m] == 0 || !plan.live(m, ring_live, level_live) {
                continue;
            }
            let score = sums[m] / scored[m].min(covers) as f64;
            if score < best_score {
                best_score = score;
                best = m;
            }
        }
        // With no scores yet, prefer the first member able to predict.
        if best_score.is_infinite() {
            if let Some(m) = (0..n).find(|&m| plan.live(m, ring_live, level_live)) {
                best = m;
            }
        }
        self.selected = best;
    }

    /// Scores every standing prediction against `value`: cumulative sums,
    /// and one cell of the recent-error matrix per live member.
    fn score(&mut self, value: f64) {
        let (ring_live, level_live) = (self.pushed > 0, self.observations > 0);
        let plan = &*self.plan;
        let (n, recent) = (plan.len(), plan.recent);
        let parts = Parts::split(plan, &mut self.vals, &mut self.ints);
        let matrix = &mut parts.state[plan.matrix..plan.matrix + recent * n];
        for m in 0..n {
            if !plan.live(m, ring_live, level_live) {
                continue;
            }
            let (abs, sq) = error_terms(parts.preds[m], value);
            parts.abs_sum[m] += abs;
            parts.sq_sum[m] += sq;
            let head = parts.heads[m] as usize;
            let cell = &mut matrix[head * n + m];
            let evicted = (parts.scored[m] >= recent as u64).then_some(*cell);
            *cell = abs;
            parts.recent_sum[m] = rolling_sum_step(parts.recent_sum[m], abs, evicted);
            parts.scored[m] += 1;
            parts.heads[m] = if head + 1 == recent {
                0
            } else {
                head as u64 + 1
            };
            if parts.scored[m].is_multiple_of(SUM_REFRESH_INTERVAL as u64) {
                // Oldest first: from the head once the column is full,
                // from row 0 while it fills.
                let len = parts.scored[m].min(recent as u64) as usize;
                let oldest = if len == recent {
                    parts.heads[m] as usize
                } else {
                    0
                };
                parts.recent_sum[m] = (0..len)
                    .map(|i| matrix[(oldest + i) % recent * n + m])
                    .sum();
            }
        }
    }

    /// Feeds one measurement without issuing a forecast: every member
    /// with a standing prediction is scored against `value`, all members
    /// absorb it, and the best member (under the selection criterion) is
    /// selected for the next measurement.
    ///
    /// A non-finite `value` carries no measurement: it is treated exactly
    /// as [`PredictorBank::note_gap`].
    pub fn observe(&mut self, value: f64) {
        if !value.is_finite() {
            self.note_gap();
            return;
        }
        self.score(value);
        self.absorb(value);
        self.observations += 1;
        self.reselect();
    }

    /// The value enters the ring, the shared sums and sorted blocks slide
    /// once each, and every member recomputes its standing prediction.
    fn absorb(&mut self, value: f64) {
        let plan = &*self.plan;
        let first = self.observations == 0;
        let seen = self.observations + 1;
        // `old` values were in the ring before this one; `now` with it.
        let old = self.pushed;
        let now = old + 1;
        self.pushed = now;
        let Parts {
            ring,
            preds,
            state,
            counters,
            ..
        } = Parts::split(plan, &mut self.vals, &mut self.ints);
        let adj = &mut self.adj;
        let mask = plan.ring_cap - 1;
        ring[old & mask] = value;
        let ring = &*ring;
        // Push index `i` (0 = first since the gap) still in the ring.
        let at = |i: usize| ring[i & mask];
        let refresh = now.is_multiple_of(SUM_REFRESH_INTERVAL);

        for &Shared { k, at: sum } in plan.sums.iter() {
            let evicted = (old >= k).then(|| at(old - k));
            state[sum] = rolling_sum_step(state[sum], value, evicted);
            if refresh {
                state[sum] = (now - now.min(k)..now).map(at).sum();
            }
        }
        for &Shared { k, at: block } in plan.sorted.iter() {
            let evicted = (old >= k).then(|| at(old - k));
            sorted_slide(&mut state[block..block + k], old.min(k), evicted, value);
        }

        for (slot, pred) in plan.slots.iter().zip(preds) {
            let standing = *pred;
            *pred = match *slot {
                Slot::Last => value,
                Slot::RunMean { sum } => {
                    state[sum] += value;
                    state[sum] / seen as f64
                }
                Slot::SwMean { k, sum } => state[sum] / now.min(k) as f64,
                Slot::SwMedian { k, sorted } => {
                    median_of_sorted(&state[sorted..sorted + now.min(k)])
                        .expect("the block holds the value just observed")
                }
                Slot::Trim { k, alpha, sorted } => {
                    trimmed_mean_of_sorted(&state[sorted..sorted + now.min(k)], alpha)
                        .expect("the block holds the value just observed")
                }
                Slot::Exp { .. } | Slot::AdaptExp { .. } if first => value,
                Slot::Exp { gain } => ewma_step(standing, gain, value),
                Slot::AdaptExp { phi, at } => {
                    let (err, abs_err) = state[at..at + 2].split_at_mut(1);
                    trigg_leach_step(phi, standing, &mut err[0], &mut abs_err[0], value)
                }
                Slot::Adj { idx } => {
                    let window = &mut adj[idx];
                    let max_len = window.max_len();
                    let have = old.min(max_len);
                    window.roll(value, have, |i| at(old - have + i));
                    let have = now.min(max_len);
                    window.review(have, |i| at(now - have + i));
                    window
                        .predict(have)
                        .expect("the window holds the value just observed")
                }
                Slot::Sgd { eta, at: wb } => {
                    let (w, b) = state[wb..wb + 2].split_at_mut(1);
                    if old > 0 {
                        sgd_step(eta, &mut w[0], &mut b[0], at(old - 1), value);
                    }
                    sgd_predict(w[0], b[0], value)
                }
                Slot::Model {
                    p,
                    q,
                    window,
                    refit_every,
                    sum,
                    at: block,
                    iat,
                } => {
                    let fallback = state[sum] / now.min(window) as f64;
                    let model = ModelState::at(state, block, p, q);
                    let [since_refit, fitted, resid_len] = &mut counters[iat..iat + 3] else {
                        unreachable!("a model slot owns three counters")
                    };
                    // The standing forecast was the model's (not the
                    // fallback mean) exactly when a model was fitted and
                    // `p` lags were in the window; its innovation then
                    // drives the MA side.
                    if q > 0 && *fitted == 1 && old.min(window) >= p {
                        let mut live = *resid_len as usize;
                        absorb_innovation(
                            value - standing,
                            model.theta,
                            model.resid,
                            &mut live,
                            model.power,
                        );
                        *resid_len = live as u64;
                    }
                    let have = now.min(window);
                    *since_refit += 1;
                    if *since_refit >= refit_every as u64 && have >= 4 * p {
                        *since_refit = 0;
                        // On a degenerate fit the previous model (or
                        // none) is kept.
                        if let Some(mean) = fit_ar(
                            have,
                            |t| at(now - have + t),
                            p,
                            model.autocov,
                            model.lev_a,
                            model.lev_prev,
                        ) {
                            model.ar.copy_from_slice(model.lev_a);
                            *model.mean = mean;
                            *fitted = 1;
                        }
                    }
                    if *fitted == 1 && have >= p {
                        model_step(
                            *model.mean,
                            model.ar,
                            (0..).map(|i| at(old - i)),
                            model.theta,
                            &model.resid[..*resid_len as usize],
                        )
                    } else {
                        fallback
                    }
                }
            };
        }
    }

    /// Feeds one measurement and returns the forecast of the best
    /// predictor for the next one: [`PredictorBank::observe`], then
    /// [`PredictorBank::forecast`].
    ///
    /// Returns `None` only before any predictor has enough history (i.e.
    /// never after the first finite value, since the last-value predictor
    /// needs a single point).
    pub fn update(&mut self, value: f64) -> Option<Forecast> {
        self.observe(value);
        self.forecast()
    }

    /// The current forecast for the next measurement without feeding data.
    pub fn forecast(&self) -> Option<Forecast> {
        let i = self.selected;
        self.standing(i).map(|value| Forecast {
            value,
            method_index: i,
            method: Arc::clone(&self.plan.names[i]),
        })
    }

    /// The selected predictor's point forecast alone — the allocation-free
    /// path for callers that score or track the value and do not need the
    /// method attribution a full [`Forecast`] carries.
    pub fn predicted_value(&self) -> Option<f64> {
        self.standing(self.selected)
    }

    /// The selected predictor's `k`-step horizon forecast — step 1 is the
    /// one-step forecast, later steps follow the member's dynamics (flat
    /// for level/window members, mean-reverting for AR/ARMA).
    pub fn predict_horizon(&self, k: usize) -> Option<Vec<f64>> {
        let standing = self.standing(self.selected)?;
        let Slot::Model {
            p,
            q,
            window,
            at: block,
            iat,
            ..
        } = self.plan.slots[self.selected]
        else {
            return Some(vec![standing; k]);
        };
        let (state, counters) = self.state();
        let [_, fitted, resid_len] = counters[iat..iat + 3] else {
            unreachable!("a model slot owns three counters")
        };
        if fitted == 0 || self.pushed.min(window) < p {
            // No model (or not enough fresh lags): the fallback mean,
            // held flat.
            return Some(vec![standing; k]);
        }
        let mean = state[block];
        let (ar, rest) = state[block + 2..].split_at(p);
        let (theta, rest) = rest.split_at(q);
        let mask = self.plan.ring_cap - 1;
        let lags = (1..=p)
            .map(|i| self.vals[(self.pushed - i) & mask])
            .collect();
        Some(model_horizon(
            mean,
            ar,
            lags,
            theta,
            rest[..q].to_vec(),
            resid_len as usize,
            k,
        ))
    }

    /// Notes a gap in the measurement stream (a slot with no reading).
    ///
    /// Window-based panel members age out their stale history instead of
    /// bridging the gap; level-tracking members keep their estimate. No
    /// observation is counted and no member is scored — there is no value
    /// to score against. The current selection is kept, but members whose
    /// forecast went dark (cleared windows) are no longer served:
    /// [`PredictorBank::forecast`] returns what the selected member can
    /// still predict, and the next real measurement reselects.
    pub fn note_gap(&mut self) {
        // The ring empties; sorted blocks and lag anchors are read by
        // its length, so only the running state needs clearing. Learned
        // parameters (window length, AR/θ coefficients, the gradient
        // pair) survive: they describe the workload, not the level.
        self.pushed = 0;
        let plan = &*self.plan;
        let Parts {
            state, counters, ..
        } = Parts::split(plan, &mut self.vals, &mut self.ints);
        for shared in plan.sums.iter() {
            state[shared.at] = 0.0;
        }
        for window in self.adj.iter_mut() {
            window.note_gap();
        }
        for slot in plan.slots.iter() {
            if let Slot::Model { p, q, at, iat, .. } = *slot {
                ModelState::at(state, at, p, q).resid.fill(0.0);
                counters[iat] = 0;
                counters[iat + 2] = 0;
            }
        }
        // If the selected member lost its forecast to the gap, fall back
        // to any member that can still predict (a level smoother).
        if !self.live(self.selected) {
            self.reselect();
        }
    }

    /// Resets every predictor and tracker.
    pub fn reset(&mut self) {
        *self = Self::from_plan(Arc::clone(&self.plan), self.selection);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nws_default_is_exactly_the_1999_spec() {
        let a = PredictorBank::nws_default();
        let b = PanelSpec::Nws1999.build();
        assert_eq!(a.method_names(), b.method_names());
    }

    #[test]
    fn extended_panel_appends_arma_members() {
        let base = PanelSpec::Nws1999.build();
        let ext = PanelSpec::Extended.build();
        let names = ext.method_names();
        assert_eq!(
            &names[..base.panel_len()],
            base.method_names().as_slice(),
            "v2 extends the 1999 panel in place"
        );
        assert_eq!(
            &names[base.panel_len()..],
            &["arma(1,1)".to_string(), "arma(2,1)".to_string()]
        );
    }

    #[test]
    fn ewma_only_bank_is_bit_identical_to_the_raw_kernel() {
        let gain = 0.25;
        let mut bank = PanelSpec::EwmaOnly { gain }.build();
        let mut state = f64::NAN;
        let mut rng: u64 = 99;
        for i in 0..500 {
            rng ^= rng >> 12;
            rng ^= rng << 25;
            rng ^= rng >> 27;
            let v = (rng.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64;
            bank.update(v);
            state = if i == 0 {
                v
            } else {
                crate::methods::ewma_step(state, gain, v)
            };
            assert_eq!(
                bank.predicted_value().unwrap().to_bits(),
                state.to_bits(),
                "step {i}"
            );
        }
    }

    #[test]
    fn error_table_rows_merge_exactly() {
        let mut a = PanelSpec::Cheap.build();
        let mut b = PanelSpec::Cheap.build();
        for i in 0..100 {
            a.update((i % 5) as f64 / 5.0);
            b.update((i % 7) as f64 / 7.0);
        }
        let mut merged = a.error_table();
        for (m, r) in merged.iter_mut().zip(b.error_table()) {
            m.merge(&r);
        }
        let ta = a.error_table();
        let tb = b.error_table();
        for (i, m) in merged.iter().enumerate() {
            assert_eq!(m.scored, ta[i].scored + tb[i].scored);
            assert_eq!(m.abs_sum, ta[i].abs_sum + tb[i].abs_sum);
            assert!(m.mae().is_finite());
            assert!(m.mse().is_finite());
        }
    }

    #[test]
    fn horizon_step_one_matches_the_one_step_forecast() {
        let mut bank = PanelSpec::Extended.build();
        let mut x = 0.5f64;
        let mut rng: u64 = 7;
        for _ in 0..400 {
            rng ^= rng >> 12;
            rng ^= rng << 25;
            rng ^= rng >> 27;
            let u = (rng.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64;
            x = (0.5 + 0.8 * (x - 0.5) + 0.1 * (u - 0.5)).clamp(0.0, 1.0);
            bank.update(x);
        }
        let h = bank.predict_horizon(16).expect("warm bank");
        assert_eq!(h.len(), 16);
        assert_eq!(h[0], bank.predicted_value().unwrap());
    }

    #[test]
    fn a_non_finite_value_is_a_gap_and_reaches_no_member() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut fed = PanelSpec::Extended.build();
            let mut gapped = PanelSpec::Extended.build();
            for i in 0..150 {
                let v = 0.5 + 0.3 * (i as f64 * 0.4).sin();
                fed.update(v);
                gapped.update(v);
                if i % 40 == 17 {
                    assert!(fed.update(bad).is_some(), "level members still serve");
                    gapped.note_gap();
                }
                assert_eq!(fed.selected_index(), gapped.selected_index());
                assert_eq!(
                    fed.predicted_value().map(f64::to_bits),
                    gapped.predicted_value().map(f64::to_bits),
                    "step {i}"
                );
            }
            assert_eq!(fed.observations(), 150, "{bad} was counted");
            assert_eq!(fed.error_table(), gapped.error_table());
            for row in fed.error_table() {
                assert!(row.mae().is_finite(), "{} scored against {bad}", row.name);
            }
        }
        // Before anything finite arrived there is still nothing to serve.
        let mut cold = PanelSpec::Nws1999.build();
        assert!(cold.update(f64::NAN).is_none());
        assert_eq!(cold.observations(), 0);
        assert_eq!(cold.update(0.4).map(|f| f.value), Some(0.4));
    }

    #[test]
    fn banks_of_one_spec_share_their_name_table() {
        let a = PanelSpec::Nws1999.build();
        let b = PanelSpec::Nws1999.build();
        assert!(Arc::ptr_eq(&a.selected_name(), &b.selected_name()));
    }

    #[test]
    fn merge_errors_into_matches_merging_the_tables() {
        let mut a = PanelSpec::Nws1999.build();
        let mut b = PanelSpec::Nws1999.build();
        for i in 0..200 {
            a.observe((i % 5) as f64 / 5.0);
            b.observe((i % 7) as f64 / 7.0);
        }
        let mut by_rows = a.error_table();
        for (m, r) in by_rows.iter_mut().zip(b.error_table()) {
            m.merge(&r);
        }
        let mut folded = a.error_table();
        b.merge_errors_into(&mut folded);
        assert_eq!(folded, by_rows);
    }

    #[test]
    fn constant_series_is_predicted_exactly() {
        let mut nws = PredictorBank::nws_default();
        let mut last = None;
        for _ in 0..50 {
            last = nws.update(0.37);
        }
        let f = last.unwrap();
        assert!((f.value - 0.37).abs() < 1e-9);
    }

    #[test]
    fn selection_beats_worst_member_on_noisy_series() {
        // Alternating series: last-value is maximally wrong; the panel
        // should settle on a mean-like method.
        let mut nws = PredictorBank::nws_default();
        let mut errs = Vec::new();
        for i in 0..400 {
            let x = if i % 2 == 0 { 0.3 } else { 0.7 };
            if let Some(f) = nws.forecast() {
                errs.push((f.value - x).abs());
            }
            nws.update(x);
        }
        let tail_mae: f64 = errs[100..].iter().sum::<f64>() / (errs.len() - 100) as f64;
        // Last-value would score 0.4; the mean scores 0.2.
        assert!(tail_mae < 0.25, "dynamic selection MAE = {tail_mae}");
    }

    #[test]
    fn selection_tracks_best_member_within_tolerance() {
        // The paper's claim: dynamic selection ≈ best fixed member.
        // Build a mean-reverting noisy series.
        let mut rng = nws_stats::Rng::new(77);
        let mut x: f64 = 0.5;
        let mut series = Vec::with_capacity(2000);
        for _ in 0..2000 {
            x = 0.9 * x + 0.05 + 0.1 * (rng.next_f64() - 0.5);
            series.push(x.clamp(0.0, 1.0));
        }
        let mut nws = PredictorBank::nws_default();
        let mut nws_err = 0.0;
        let mut count = 0;
        for &v in &series {
            if let Some(f) = nws.forecast() {
                nws_err += (f.value - v).abs();
                count += 1;
            }
            nws.update(v);
        }
        let nws_mae = nws_err / count as f64;
        // Score each member alone.
        let best_fixed = nws
            .error_summary()
            .into_iter()
            .map(|(_, mae)| mae)
            .fold(f64::INFINITY, f64::min);
        assert!(
            nws_mae <= best_fixed * 1.25 + 1e-9,
            "dynamic {nws_mae} vs best fixed {best_fixed}"
        );
    }

    #[test]
    fn error_summary_covers_whole_panel_after_warmup() {
        let mut nws = PredictorBank::nws_default();
        for i in 0..300 {
            nws.update((i % 7) as f64 / 7.0);
        }
        let summary = nws.error_summary();
        assert_eq!(summary.len(), nws.panel_len());
        for (name, mae) in &summary {
            assert!(mae.is_finite(), "{name} has bad MAE");
        }
    }

    #[test]
    fn method_names_are_unique() {
        let nws = PredictorBank::nws_default();
        let mut names = nws.method_names();
        names.sort();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate panel names");
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut nws = PredictorBank::nws_default();
        for _ in 0..10 {
            nws.update(0.5);
        }
        nws.reset();
        assert_eq!(nws.observations(), 0);
        assert!(nws.forecast().is_none());
        // And it works again after reset.
        assert!(nws.update(0.2).is_some());
    }

    #[test]
    #[should_panic(expected = "panel")]
    fn empty_panel_panics() {
        PredictorBank::new(&[], Selection::default(), 10);
    }

    #[test]
    fn gap_keeps_a_live_forecast_without_counting_observations() {
        let mut nws = PredictorBank::nws_default();
        for _ in 0..60 {
            nws.update(0.8);
        }
        let n = nws.observations();
        nws.note_gap();
        assert_eq!(nws.observations(), n, "gaps are not observations");
        // Some level predictor still serves a forecast near the old level.
        let f = nws.forecast().expect("level members bridge the gap");
        assert!(
            (f.value - 0.8).abs() < 0.05,
            "post-gap forecast {}",
            f.value
        );
        // And the engine keeps working afterwards.
        assert!(nws.update(0.5).is_some());
    }

    #[test]
    fn gap_reselects_when_selected_member_goes_dark() {
        // A window-only panel: the gap clears every member, so forecast()
        // goes dark instead of serving stale values; the next measurement
        // revives it.
        let mut nws = PredictorBank::new(
            &[Member::SlidingMean(4), Member::SlidingMedian(4)],
            Selection::default(),
            10,
        );
        for i in 0..20 {
            nws.update(0.4 + 0.01 * (i % 3) as f64);
        }
        assert!(nws.forecast().is_some());
        nws.note_gap();
        assert!(nws.forecast().is_none(), "window panel must go dark");
        assert!(nws.update(0.6).is_some());
    }
}
