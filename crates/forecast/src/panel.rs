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
//! - members are **stored class by class**: first the level trackers
//!   (last value, running mean, the smoothers), which predict from their
//!   first value on, then the ring readers, which go dark across a gap —
//!   each class in panel order. A member is scored exactly when its
//!   class is live, so every member of a class has been scored equally
//!   often: the bank keeps one scored count per class, and scoring and
//!   selection are one straight pass over each live class's columns;
//! - **one slot-major error matrix** holds every member's recent
//!   absolute errors (`recent[row·n + member]`); a class writes row
//!   `scored % recent` across its own contiguous columns;
//! - each member's **standing prediction is computed once** per
//!   observation and reused for scoring, eligibility and serving;
//! - members are dispatched by `match` over a resolved layout shared by
//!   every bank built from the same member list, together with the
//!   method-name table.
//!
//! Storage order stays inside the bank: every index, name list and
//! error table it hands out is in panel order.
//!
//! The member formulas themselves live in [`kernels`](crate::kernels);
//! the bank is their only caller.

use crate::kernels::{
    absorb_innovation, error_terms, ewma_step, fit_ar, median_of_sorted, model_horizon, model_step,
    rolling_sum_step, sgd_predict, sgd_step, sorted_slide, trigg_leach_step, trim_count,
    trimmed_mean_of_sorted, AdjustedWindow, SUM_REFRESH_INTERVAL,
};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// One panel member, by description: which technique and its parameters.
/// `Copy`, so member lists are plain data. A bank checks the parameters
/// when it is built; a single predictor is a one-member bank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Member {
    /// The most recent value.
    LastValue,
    /// The mean of every value observed (O(1) state).
    RunningMean,
    /// The mean of the last `k` values.
    SlidingMean(usize),
    /// The median of the last `k` values — robust to the spikes a
    /// run-queue series is full of.
    SlidingMedian(usize),
    /// The mean of the last `k` values after dropping `floor(α·k)` from
    /// each end (α in `[0, 0.5)`): a compromise between the mean's
    /// efficiency and the median's robustness.
    TrimmedMean(usize, f64),
    /// Exponential smoothing `level ← level + gain·(x − level)` with a
    /// fixed gain in `(0, 1]`; small gains track slowly varying series,
    /// large ones chase recent changes.
    ExpSmoothing(f64),
    /// Exponential smoothing with the Trigg–Leach adaptive gain
    /// `|smoothed error| / smoothed |error|`, which approaches 1 when
    /// errors keep one sign (the level shifted) and falls when they
    /// alternate (noise). φ in `(0, 1)` is how fast the gain adapts.
    AdaptiveExpSmoothing(f64),
    /// A sliding mean whose length moves within `[min_len, max_len]`:
    /// every eight values it switches to whichever of half, current and
    /// double length would have erred least.
    AdaptiveWindowMean(usize, usize),
    /// The AR(1) forecast `w·x + b`, with `(w, b)` descended on the
    /// squared one-step error at learning rate η in `(0, 1)`; starts as
    /// the last value.
    StochasticGradient(f64),
    /// AR(`order`) fitted by Levinson–Durbin over the last `window`
    /// values every `refit_every` observations; the window mean until a
    /// fit succeeds.
    Ar {
        /// AR order.
        order: usize,
        /// Fit window length, at least `4·order`.
        window: usize,
        /// Observations between refits.
        refit_every: usize,
    },
    /// ARMA(`p`, `q`): the AR side refitted as [`Member::Ar`], the θ
    /// weights adapted online by a normalized LMS step on each
    /// innovation.
    Arma {
        /// AR order.
        p: usize,
        /// MA order.
        q: usize,
        /// Fit window length, at least `4·p`.
        window: usize,
        /// Observations between AR-side refits.
        refit_every: usize,
    },
}

impl Member {
    /// Display name, e.g. `"sw_mean(20)"`. Names reach the error tables,
    /// the CSVs and the wire.
    pub fn name(self) -> String {
        match self {
            Member::LastValue => "last".into(),
            Member::RunningMean => "run_mean".into(),
            Member::SlidingMean(k) => format!("sw_mean({k})"),
            Member::SlidingMedian(k) => format!("sw_median({k})"),
            Member::TrimmedMean(k, alpha) => format!("trim_mean({k},{alpha})"),
            Member::ExpSmoothing(gain) => format!("exp_smooth({gain})"),
            Member::AdaptiveExpSmoothing(phi) => format!("adapt_exp({phi})"),
            Member::AdaptiveWindowMean(min_len, max_len) => {
                format!("adj_mean({min_len}-{max_len})")
            }
            Member::StochasticGradient(eta) => format!("sgd_ar1({eta})"),
            Member::Ar { order, .. } => format!("ar({order})"),
            Member::Arma { p, q, .. } => format!("arma({p},{q})"),
        }
    }

    /// Whether the member's forecast depends on the history ring, and so
    /// goes dark across a gap until a fresh value arrives. The others
    /// (level trackers) predict from their first observation on.
    fn reads_ring(self) -> bool {
        !matches!(
            self,
            Member::LastValue
                | Member::RunningMean
                | Member::ExpSmoothing(_)
                | Member::AdaptiveExpSmoothing(_)
        )
    }

    /// Panics on parameters the member cannot run with.
    fn validate(self) {
        let nonempty = |k: usize| assert!(k > 0, "window must be positive");
        let unit_open = |x: f64| x > 0.0 && x < 1.0;
        match self {
            Member::LastValue | Member::RunningMean => {}
            Member::SlidingMean(k) | Member::SlidingMedian(k) => nonempty(k),
            Member::TrimmedMean(k, alpha) => {
                nonempty(k);
                assert!((0.0..0.5).contains(&alpha), "alpha must be in [0, 0.5)");
            }
            Member::ExpSmoothing(gain) => {
                assert!(gain > 0.0 && gain <= 1.0, "gain must be in (0, 1]")
            }
            Member::AdaptiveExpSmoothing(phi) => assert!(unit_open(phi), "phi must be in (0, 1)"),
            Member::StochasticGradient(eta) => assert!(unit_open(eta), "eta must be in (0, 1)"),
            Member::AdaptiveWindowMean(min_len, max_len) => {
                assert!(min_len > 0 && min_len <= max_len, "bad window bounds");
            }
            Member::Ar {
                order: p,
                window,
                refit_every,
            }
            | Member::Arma {
                p,
                window,
                refit_every,
                ..
            } => {
                assert!(p > 0, "AR order must be positive");
                if let Member::Arma { q, .. } = self {
                    assert!(
                        q > 0,
                        "MA order must be positive (use Member::Ar for q = 0)"
                    );
                }
                assert!(
                    window >= 4 * p,
                    "window must be at least 4x the AR order for a stable fit"
                );
                assert!(refit_every > 0, "refit cadence must be positive");
            }
        }
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
    /// The paper's full 1999 panel — identical to
    /// [`PredictorBank::nws_default`].
    Nws1999,
    /// Panel v2: the 1999 set plus online ARMA(1,1) and ARMA(2,1)
    /// members (Sandholm's computational-demand study).
    Extended,
}

/// The recent-error window of the NWS defaults.
const DEFAULT_RECENT_WINDOW: usize = 30;

/// The gains of the standard NWS exponential-smoothing bank.
const BANK_GAINS: [f64; 7] = [0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 0.9];

impl PanelSpec {
    /// The panel members, in their canonical order.
    pub fn members(self) -> Vec<Member> {
        let smoothers = BANK_GAINS.map(Member::ExpSmoothing);
        match self {
            PanelSpec::EwmaOnly { gain } => vec![Member::ExpSmoothing(gain)],
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
    /// two fixed compositions resolve once per process; every bank
    /// built from them shares that layout and its name table.
    fn plan(self) -> Arc<Plan> {
        static FIXED: [OnceLock<Arc<Plan>>; 2] = [OnceLock::new(), OnceLock::new()];
        let resolve = || Arc::new(Plan::new(&self.members(), DEFAULT_RECENT_WINDOW));
        let cell = match self {
            PanelSpec::EwmaOnly { .. } => return resolve(),
            PanelSpec::Nws1999 => &FIXED[0],
            PanelSpec::Extended => &FIXED[1],
        };
        Arc::clone(cell.get_or_init(resolve))
    }

    /// Builds a bank over this spec with the NWS defaults (recent-MAE
    /// selection over a 30-measurement window).
    pub fn build(self) -> PredictorBank {
        PredictorBank::from_plan(self.plan())
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
    /// As [`Slot::SwMedian`]; `cut` is the full window's
    /// [`trim_count`].
    Trim {
        k: usize,
        alpha: f64,
        cut: usize,
        sorted: usize,
    },
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
/// Members are stored class by class: the level trackers in
/// `0..split`, then the ring readers in `split..n`, each class in panel
/// order. Everything per member — the names and slots here, the bank's
/// rows and matrix columns — is in this storage order; `panel_of` and
/// `storage_of` map between it and the panel order callers see.
///
/// A bank's `vals` block is the ring (`ring_cap` slots), four
/// per-member rows (standing predictions and the three error sums), then
/// the `state` block the offsets here index: the shared rolling sums,
/// member state (scalars, sorted blocks, model blocks), and the error
/// matrix last. Its `ints` block is the model counters `iat` indexes.
#[derive(Debug)]
struct Plan {
    names: Box<[Arc<str>]>,
    slots: Box<[Slot]>,
    /// Storage index → panel index.
    panel_of: Box<[usize]>,
    /// Panel index → storage index.
    storage_of: Box<[usize]>,
    /// Where the ring readers start.
    split: usize,
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
        // Storage order: a stable sort puts the level trackers first.
        let mut panel_of: Vec<usize> = (0..n).collect();
        panel_of.sort_by_key(|&p| members[p].reads_ring());
        let mut storage_of = vec![0; n];
        for (m, &p) in panel_of.iter().enumerate() {
            storage_of[p] = m;
        }
        let members: Vec<Member> = panel_of.iter().map(|&p| members[p]).collect();
        let names = members
            .iter()
            .map(|m| {
                m.validate();
                Arc::from(m.name())
            })
            .collect();
        let mut cursor = 0;
        let mut icursor = 0;
        let take = |cursor: &mut usize, width: usize| {
            let at = *cursor;
            *cursor += width;
            at
        };
        // Rolling sums first, so they sit beside the per-member rows.
        let mut sums = Vec::new();
        for m in &members {
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
                    cut: trim_count(alpha, k),
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
            split: members.iter().filter(|m| !m.reads_ring()).count(),
            panel_of: panel_of.into(),
            storage_of: storage_of.into(),
            recent,
            ring_cap: (longest + 1).next_power_of_two(),
            sums: sums.into(),
            sorted: sorted.into(),
            adj: adj.into(),
            matrix,
            state_len: cursor,
            ints_len: icursor,
            slots,
        }
    }

    fn len(&self) -> usize {
        self.slots.len()
    }

    /// The storage columns of the two liveness classes: the level
    /// trackers, then the ring readers.
    fn classes(&self) -> [Range<usize>; 2] {
        [0..self.split, self.split..self.len()]
    }

    /// The class of stored member `m` (an index into [`Plan::classes`]).
    fn class(&self, m: usize) -> usize {
        usize::from(m >= self.split)
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
    counters: &'a mut [u64],
}

impl<'a> Parts<'a> {
    fn split(plan: &Plan, vals: &'a mut [f64], counters: &'a mut [u64]) -> Self {
        let n = plan.len();
        let (ring, rest) = vals.split_at_mut(plan.ring_cap);
        let (preds, rest) = rest.split_at_mut(n);
        let (abs_sum, rest) = rest.split_at_mut(n);
        let (sq_sum, rest) = rest.split_at_mut(n);
        let (recent_sum, state) = rest.split_at_mut(n);
        Self {
            ring,
            preds,
            abs_sum,
            sq_sum,
            recent_sum,
            state,
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
    observations: u64,
    /// Storage index of the selected member.
    selected: usize,
    /// Values in the ring since the last gap (its write cursor).
    pushed: usize,
    /// Forecasts scored per class (see [`Plan::classes`]): every member
    /// of a class has been scored this often.
    scored: [u64; 2],
    /// The ring, the per-member rows, the `state` block (see [`Plan`]).
    vals: Box<[f64]>,
    /// The model counters.
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
    pub fn new(members: &[Member], recent_window: usize) -> Self {
        Self::from_plan(Arc::new(Plan::new(members, recent_window)))
    }

    fn from_plan(plan: Arc<Plan>) -> Self {
        let n = plan.len();
        let mut vals = vec![0.0; plan.ring_cap + ROWS * n + plan.state_len].into_boxed_slice();
        let mut ints = vec![0; plan.ints_len].into_boxed_slice();
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
            observations: 0,
            selected: plan.storage_of[0],
            pushed: 0,
            scored: [0; 2],
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
        let plan = &*self.plan;
        plan.storage_of
            .iter()
            .map(|&m| plan.names[m].to_string())
            .collect()
    }

    /// Number of measurements consumed.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Index of the currently selected predictor.
    pub fn selected_index(&self) -> usize {
        self.plan.panel_of[self.selected]
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
        (&self.vals[self.plan.ring_cap + ROWS * n..], &self.ints)
    }

    /// Stored member `m`'s raw error sums: `(abs_sum, sq_sum, scored)`.
    fn totals(&self, m: usize) -> (f64, f64, u64) {
        let scored = self.scored[self.plan.class(m)];
        (self.row(ABS_SUM)[m], self.row(SQ_SUM)[m], scored)
    }

    /// Per-method `(name, cumulative MAE)` for every method that has been
    /// scored at least once.
    pub fn error_summary(&self) -> Vec<(String, f64)> {
        let plan = &*self.plan;
        plan.storage_of
            .iter()
            .filter_map(|&m| {
                let (abs_sum, _, scored) = self.totals(m);
                (scored > 0).then(|| (plan.names[m].to_string(), abs_sum / scored as f64))
            })
            .collect()
    }

    /// The full per-predictor error table, one row per panel member in
    /// index order (unscored members report zero sums). Rows carry raw
    /// sums, so tables from many banks merge exactly via
    /// [`ErrorRow::merge`] or [`PredictorBank::merge_errors_into`].
    pub fn error_table(&self) -> Vec<ErrorRow> {
        self.plan
            .storage_of
            .iter()
            .map(|&m| {
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
        for (row, &m) in rows.iter_mut().zip(self.plan.storage_of.iter()) {
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

    /// Whether each class (see [`Plan::classes`]) has a standing
    /// prediction: a level tracker once it has seen a value, a ring
    /// reader once the ring holds one.
    fn live_classes(&self) -> [bool; 2] {
        [self.observations > 0, self.pushed > 0]
    }

    fn live(&self, m: usize) -> bool {
        self.live_classes()[self.plan.class(m)]
    }

    fn standing(&self, m: usize) -> Option<f64> {
        self.live(m).then(|| self.row(PREDS)[m])
    }

    fn reselect(&mut self) {
        let plan = &*self.plan;
        let live = self.live_classes();
        // The NWS rule: the lowest mean absolute error over the recent
        // window, which covers at most the matrix's rows; on equal scores
        // the lower panel index. Members that cannot predict yet are not
        // eligible, and one never scored cannot beat one that was.
        let (sums, covers) = (self.row(RECENT_SUM), plan.recent as u64);
        let mut best = self.selected;
        let mut best_score = f64::INFINITY;
        for (c, cols) in plan.classes().into_iter().enumerate() {
            if !live[c] || self.scored[c] == 0 || cols.is_empty() {
                continue;
            }
            let divisor = self.scored[c].min(covers) as f64;
            // Within a class, storage order is panel order.
            let (mut low_at, mut low) = (cols.start, f64::INFINITY);
            for (i, &sum) in sums[cols.clone()].iter().enumerate() {
                let score = sum / divisor;
                if score < low {
                    (low_at, low) = (cols.start + i, score);
                }
            }
            let ties_earlier = low == best_score && plan.panel_of[low_at] < plan.panel_of[best];
            if low < best_score || ties_earlier {
                (best, best_score) = (low_at, low);
            }
        }
        // With no scores yet, prefer the first member able to predict.
        if best_score.is_infinite() {
            let classes = plan.classes().into_iter().zip(live);
            if let Some(m) = classes
                .filter(|(cols, live)| *live && !cols.is_empty())
                .map(|(cols, _)| cols.start)
                .min_by_key(|&m| plan.panel_of[m])
            {
                best = m;
            }
        }
        self.selected = best;
    }

    /// Scores every standing prediction against `value`: cumulative sums,
    /// and one cell of the recent-error matrix per live member — one
    /// straight pass over each live class's columns.
    fn score(&mut self, value: f64) {
        let live = self.live_classes();
        let plan = &*self.plan;
        let (n, recent) = (plan.len(), plan.recent);
        let parts = Parts::split(plan, &mut self.vals, &mut self.ints);
        let matrix = &mut parts.state[plan.matrix..plan.matrix + recent * n];
        for (c, cols) in plan.classes().into_iter().enumerate() {
            if !live[c] {
                continue;
            }
            let scored = &mut self.scored[c];
            let full = *scored >= recent as u64;
            let row = (*scored % recent as u64) as usize * n;
            let cells = &mut matrix[row + cols.start..row + cols.end];
            let sums = parts.abs_sum[cols.clone()]
                .iter_mut()
                .zip(&mut parts.sq_sum[cols.clone()])
                .zip(&mut parts.recent_sum[cols.clone()]);
            for (((abs_sum, sq_sum), recent_sum), (&pred, cell)) in
                sums.zip(parts.preds[cols.clone()].iter().zip(cells))
            {
                let (abs, sq) = error_terms(pred, value);
                *abs_sum += abs;
                *sq_sum += sq;
                let evicted = full.then_some(*cell);
                *cell = abs;
                *recent_sum = rolling_sum_step(*recent_sum, abs, evicted);
            }
            *scored += 1;
            if scored.is_multiple_of(SUM_REFRESH_INTERVAL as u64) {
                // Oldest first: from the next row to write once the
                // columns are full, from row 0 while they fill.
                let len = (*scored).min(recent as u64) as usize;
                let oldest = if len == recent {
                    (*scored % recent as u64) as usize
                } else {
                    0
                };
                for m in cols {
                    parts.recent_sum[m] = (0..len)
                        .map(|i| matrix[(oldest + i) % recent * n + m])
                        .sum();
                }
            }
        }
    }

    /// Feeds one measurement without issuing a forecast: every member
    /// with a standing prediction is scored against `value`, all members
    /// absorb it, and the best member (lowest recent MAE) is
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
                Slot::Trim {
                    k,
                    alpha,
                    cut,
                    sorted,
                } => {
                    let len = now.min(k);
                    let cut = if len == k {
                        cut
                    } else {
                        trim_count(alpha, len)
                    };
                    trimmed_mean_of_sorted(&state[sorted..sorted + len], cut)
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
            method_index: self.plan.panel_of[i],
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
        *self = Self::from_plan(Arc::clone(&self.plan));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ar(order: usize, window: usize, refit_every: usize) -> Member {
        Member::Ar {
            order,
            window,
            refit_every,
        }
    }

    fn arma(p: usize, q: usize, window: usize, refit_every: usize) -> Member {
        Member::Arma {
            p,
            q,
            window,
            refit_every,
        }
    }

    #[test]
    fn nws_default_is_exactly_the_1999_spec() {
        let a = PredictorBank::nws_default();
        let b = PanelSpec::Nws1999.build();
        assert_eq!(a.method_names(), b.method_names());
    }

    #[test]
    fn extended_panel_names_are_pinned() {
        // These strings reach the error tables, the CSVs and the wire.
        let names = PanelSpec::Extended.build().method_names();
        let pinned = "last run_mean sw_mean(5) sw_mean(10) sw_mean(20) sw_mean(50) sw_mean(100) \
            sw_median(5) sw_median(11) sw_median(21) sw_median(51) trim_mean(11,0.2) \
            trim_mean(31,0.2) exp_smooth(0.05) exp_smooth(0.1) exp_smooth(0.2) exp_smooth(0.3) \
            exp_smooth(0.5) exp_smooth(0.75) exp_smooth(0.9) adapt_exp(0.2) adj_mean(3-100) \
            sgd_ar1(0.05) ar(3) arma(1,1) arma(2,1)";
        assert_eq!(names, pinned.split_whitespace().collect::<Vec<_>>());
        // v2 extends the 1999 panel in place.
        let base = PanelSpec::Nws1999.build().method_names();
        assert_eq!(&names[..base.len()], base.as_slice());
    }

    #[test]
    fn every_rejected_parameter_panics_at_build() {
        let nan = f64::NAN;
        let rejected = [
            (Member::SlidingMean(0), "window must be positive"),
            (Member::SlidingMedian(0), "window must be positive"),
            (Member::TrimmedMean(0, 0.2), "window must be positive"),
            (Member::TrimmedMean(5, -0.1), "alpha"),
            (Member::TrimmedMean(5, 0.5), "alpha"),
            (Member::TrimmedMean(5, nan), "alpha"),
            (Member::ExpSmoothing(0.0), "gain"),
            (Member::ExpSmoothing(1.5), "gain"),
            (Member::ExpSmoothing(nan), "gain"),
            (Member::AdaptiveExpSmoothing(0.0), "phi"),
            (Member::AdaptiveExpSmoothing(1.0), "phi"),
            (Member::AdaptiveExpSmoothing(nan), "phi"),
            (Member::StochasticGradient(0.0), "eta"),
            (Member::StochasticGradient(1.0), "eta"),
            (Member::StochasticGradient(nan), "eta"),
            (Member::AdaptiveWindowMean(0, 4), "bad window bounds"),
            (Member::AdaptiveWindowMean(5, 4), "bad window bounds"),
            (ar(0, 20, 5), "AR order"),
            (ar(10, 20, 5), "window must be at least"),
            (ar(1, 20, 0), "refit cadence"),
            (arma(0, 1, 40, 5), "AR order"),
            (arma(1, 0, 40, 5), "MA order"),
            (arma(11, 1, 40, 5), "window must be at least"),
            (arma(1, 1, 40, 0), "refit cadence"),
        ];
        for (member, expected) in rejected {
            let payload = std::panic::catch_unwind(|| PredictorBank::new(&[member], 10))
                .expect_err(&format!("{member:?} was accepted"));
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(
                message.contains(expected),
                "{member:?}: panicked with {message:?}, expected {expected:?}"
            );
        }
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
            state = if i == 0 { v } else { ewma_step(state, gain, v) };
            assert_eq!(
                bank.predicted_value().unwrap().to_bits(),
                state.to_bits(),
                "step {i}"
            );
        }
    }

    #[test]
    fn error_table_rows_merge_exactly() {
        let mut a = PanelSpec::Nws1999.build();
        let mut b = PanelSpec::Nws1999.build();
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

    /// A single predictor: a one-member bank.
    fn alone(member: Member) -> PredictorBank {
        PredictorBank::new(&[member], DEFAULT_RECENT_WINDOW)
    }

    /// What `bank`'s learned parameters predict from `fresh` alone
    /// (oldest first): a copy's forecast after a gap and those values.
    fn probe(bank: &PredictorBank, fresh: &[f64]) -> f64 {
        let mut copy = bank.clone();
        copy.note_gap();
        for &v in fresh {
            copy.observe(v);
        }
        copy.predicted_value().expect("fresh values were observed")
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
        // Every member alone, too — and none predicts before data. The
        // models' zero-variance fits are refused, so they serve the
        // fallback window mean.
        for member in [
            Member::LastValue,
            Member::RunningMean,
            Member::SlidingMean(4),
            Member::SlidingMedian(4),
            Member::TrimmedMean(4, 0.1),
            Member::ExpSmoothing(0.3),
            Member::AdaptiveExpSmoothing(0.2),
            Member::AdaptiveWindowMean(2, 8),
            Member::StochasticGradient(0.05),
            ar(3, 50, 10),
            arma(2, 1, 40, 10),
        ] {
            let mut bank = alone(member);
            assert_eq!(bank.predicted_value(), None, "{member:?} predicted early");
            for _ in 0..100 {
                bank.observe(0.42);
            }
            let p = bank.predicted_value().unwrap();
            assert!((p - 0.42).abs() < 1e-9, "{member:?}: {p}");
        }
    }

    #[test]
    fn window_members_age_out_across_gaps_while_levels_survive() {
        for member in [
            Member::SlidingMean(5),
            Member::SlidingMedian(5),
            Member::TrimmedMean(5, 0.2),
        ] {
            let mut bank = alone(member);
            for v in [0.9, 0.9, 0.9] {
                bank.observe(v);
            }
            bank.note_gap();
            assert_eq!(bank.predicted_value(), None, "{member:?} bridged the gap");
            bank.observe(0.2);
            let p = bank.predicted_value().unwrap();
            assert!((p - 0.2).abs() < 1e-12, "{member:?}: {p}");
        }
        for member in [
            Member::LastValue,
            Member::RunningMean,
            Member::ExpSmoothing(0.3),
        ] {
            let mut bank = alone(member);
            bank.observe(0.6);
            bank.observe(0.6);
            bank.note_gap();
            assert_eq!(
                bank.predicted_value(),
                Some(0.6),
                "{member:?} lost its level"
            );
        }
    }

    #[test]
    fn median_resists_outliers_and_trimmed_mean_lies_between() {
        let data = [0.4, 0.5, 0.6, 0.5, 5.0];
        let after = |member| {
            let mut bank = alone(member);
            for v in data {
                bank.observe(v);
            }
            bank.predicted_value().unwrap()
        };
        let (mean, median, trimmed) = (
            after(Member::SlidingMean(5)),
            after(Member::SlidingMedian(5)),
            after(Member::TrimmedMean(5, 0.2)),
        );
        assert_eq!(median, 0.5, "the outlier moved the median");
        assert!(
            median <= trimmed && trimmed <= mean,
            "median {median} <= trimmed {trimmed} <= mean {mean}"
        );
    }

    #[test]
    fn adaptive_window_follows_a_level_shift() {
        let mut bank = alone(Member::AdaptiveWindowMean(2, 64));
        for _ in 0..200 {
            bank.observe(0.8);
        }
        // On a level, one zero pulls a len-long mean down by 0.8/len.
        let mut copy = bank.clone();
        copy.observe(0.0);
        let len = 0.8 / (0.8 - copy.predicted_value().unwrap());
        assert!(len > 8.0, "window of {len}");
        // Noise around a new level: the window lets go of the old one.
        for i in 0..200 {
            bank.observe(if i % 2 == 0 { 0.1 } else { 0.3 });
        }
        let p = bank.predicted_value().unwrap();
        assert!((p - 0.2).abs() < 0.15, "prediction {p} stuck on old level");
    }

    #[test]
    fn adaptive_gain_falls_on_alternating_noise_and_rises_on_a_shift() {
        // The smoother moves `gain · error` per value, so the gain it used
        // is the move over the error.
        let gain = |bank: &mut PredictorBank, v: f64| {
            let before = bank.predicted_value().unwrap();
            bank.observe(v);
            (bank.predicted_value().unwrap() - before) / (v - before)
        };
        let mut bank = alone(Member::AdaptiveExpSmoothing(0.2));
        bank.observe(0.5);
        let mut calm = 0.0;
        for i in 0..200 {
            calm = gain(&mut bank, if i % 2 == 0 { 0.4 } else { 0.6 });
        }
        assert!(calm < 0.35, "gain on noise = {calm}");
        assert!((bank.predicted_value().unwrap() - 0.5).abs() < 0.12);
        let mut chase = 0.0;
        for _ in 0..10 {
            chase = gain(&mut bank, 0.9); // persistent one-sided errors
        }
        assert!(chase > calm, "gain should rise: {calm} -> {chase}");
        assert!(bank.predicted_value().unwrap() > 0.7);
    }

    #[test]
    fn sgd_starts_as_last_value_and_learns_mean_reversion() {
        let mut bank = alone(Member::StochasticGradient(0.05));
        bank.observe(0.7);
        assert_eq!(bank.predicted_value(), Some(0.7));
        // x_{t+1} = 0.5·x_t + 0.25 + noise: the innovations keep the input
        // persistently exciting, and SGD converges to the AR coefficients
        // in expectation.
        let mut rng = nws_stats::Rng::new(91);
        let mut x: f64 = 0.9;
        for _ in 0..20_000 {
            bank.observe(x);
            x = 0.5 * x + 0.25 + 0.2 * (rng.next_f64() - 0.5);
        }
        // A gap keeps (w, b); the first fresh value x then predicts w·x + b.
        let b = probe(&bank, &[0.0]);
        let w = probe(&bank, &[1.0]) - b;
        assert!((w - 0.5).abs() < 0.15, "w = {w}");
        assert!((b - 0.25).abs() < 0.1, "b = {b}");
    }

    #[test]
    fn ar_fits_learn_ar2_and_beat_the_baselines_on_ar1() {
        // x_t = 0.5 x_{t-1} + 0.3 x_{t-2} + noise, mean-zero.
        let mut rng = nws_stats::Rng::new(7);
        let (mut x1, mut x2) = (0.0f64, 0.0f64);
        let mut ar2 = alone(ar(2, 200, 25));
        let (mut abs_err, mut n) = (0.0, 0);
        for i in 0..4000 {
            let x = 0.5 * x1 + 0.3 * x2 + 0.1 * rng.next_standard_normal();
            if i > 1000 {
                abs_err += (ar2.predicted_value().unwrap() - x).abs();
                n += 1;
            }
            ar2.observe(x);
            x2 = x1;
            x1 = x;
        }
        let mae = abs_err / f64::from(n);
        // The optimal predictor's MAE is E|noise| = 0.1 * sqrt(2/pi) ~ 0.08.
        assert!(mae < 0.1, "AR(2) MAE = {mae}");
        // After a gap the fitted model predicts from fresh lags: a unit
        // newest lag adds a1, a unit older lag a2.
        let base = probe(&ar2, &[0.0, 0.0]);
        let a1 = probe(&ar2, &[0.0, 1.0]) - base;
        let a2 = probe(&ar2, &[1.0, 0.0]) - base;
        assert!((a1 - 0.5).abs() < 0.15, "a1 = {a1}");
        assert!((a2 - 0.3).abs() < 0.15, "a2 = {a2}");

        for member in [ar(1, 100, 20), arma(1, 1, 100, 20)] {
            let mut rng = nws_stats::Rng::new(9);
            let mut bank = alone(member);
            let (mut model_err, mut last_err, mut mean_err) = (0.0, 0.0, 0.0);
            let (mut last, mut sum) = (0.0, 0.0);
            for i in 0..3000 {
                let next = 0.6 * last + 0.15 * rng.next_standard_normal();
                if i > 500 {
                    model_err += (bank.predicted_value().unwrap() - next).abs();
                    last_err += (last - next).abs();
                    mean_err += (sum / f64::from(i) - next).abs();
                }
                bank.observe(next);
                last = next;
                sum += next;
            }
            assert!(
                model_err < last_err * 0.95 && model_err < mean_err * 0.95,
                "{member:?} {model_err} should beat last-value {last_err} \
                 and the running mean {mean_err} on AR(1) data"
            );
        }
    }

    #[test]
    fn ma_terms_help_on_an_ma_process() {
        // Pure MA(1): x_t = e_t + 0.7 e_{t-1}. An AR(1) fit approximates
        // it; the θ update should pull the combined model closer.
        let mut rng = nws_stats::Rng::new(23);
        let mut prev_e = 0.0f64;
        let mut arma = alone(arma(1, 1, 160, 20));
        let mut ar = alone(ar(1, 160, 20));
        let (mut arma_err, mut ar_err) = (0.0, 0.0);
        for i in 0..8000 {
            let e = 0.2 * rng.next_standard_normal();
            let x = e + 0.7 * prev_e;
            prev_e = e;
            if i > 2000 {
                arma_err += (arma.predicted_value().unwrap() - x).abs();
                ar_err += (ar.predicted_value().unwrap() - x).abs();
            }
            arma.observe(x);
            ar.observe(x);
        }
        assert!(
            arma_err < ar_err * 1.02,
            "ARMA {arma_err} should not trail AR {ar_err} on MA data"
        );
        // After a gap, fresh values 0 then 1 leave one innovation
        // e = 1 − f(0) in play, which adds θ1·e to the AR forecast f(1).
        let innovation = 1.0 - probe(&arma, &[0.0]);
        let theta = (probe(&arma, &[0.0, 1.0]) - probe(&arma, &[1.0])) / innovation;
        assert!(theta > 0.05, "θ1 = {theta} should move toward the true 0.7");
    }

    #[test]
    fn arma_gap_clears_lags_and_keeps_the_model() {
        let mut rng = nws_stats::Rng::new(5);
        let mut bank = alone(arma(2, 2, 60, 10));
        let mut x = 0.5f64;
        for _ in 0..200 {
            x = 0.5 + 0.8 * (x - 0.5) + 0.05 * (rng.next_f64() - 0.5);
            bank.observe(x);
        }
        // With two fresh lags the kept model predicts; a cold member
        // serves their mean.
        let fresh = [0.3, 0.7];
        let mut cold = alone(arma(2, 2, 60, 10));
        for v in fresh {
            cold.observe(v);
        }
        assert_eq!(cold.predicted_value(), Some(0.5));
        let kept = probe(&bank, &fresh);
        assert!(
            (kept - 0.5).abs() > 1e-3,
            "model lost across the gap: {kept}"
        );
        bank.note_gap();
        assert_eq!(bank.predicted_value(), None, "no fresh lags yet");
        bank.observe(0.5);
        assert!(
            bank.predicted_value().is_some(),
            "window mean bridges the refill"
        );
    }

    #[test]
    fn arma_horizon_converges_to_the_fitted_mean() {
        let mut rng = nws_stats::Rng::new(17);
        let mut bank = alone(arma(1, 1, 120, 20));
        let mut x = 0.5f64;
        for _ in 0..500 {
            x = 0.5 + 0.7 * (x - 0.5) + 0.08 * (rng.next_f64() - 0.5);
            bank.observe(x);
        }
        let h = bank.predict_horizon(64).expect("model fit");
        assert_eq!(h.len(), 64);
        assert_eq!(
            h[0],
            bank.predicted_value().unwrap(),
            "step 1 matches one-step"
        );
        // With |a| < 1 the iteration settles geometrically on the fitted
        // mean: late steps move far less than early ones.
        let first_step = (h[1] - h[0]).abs();
        let last_step = (h[63] - h[62]).abs();
        assert!(
            last_step <= first_step.max(1e-12) && last_step < 1e-3,
            "horizon should settle: first step {first_step}, last step {last_step}"
        );
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
    fn panel_order_survives_the_class_by_class_storage() {
        // The ring reader comes first in the panel but is stored after
        // the level tracker. Both predict the last value, so their errors
        // tie exactly, and the tie goes to the lower panel index.
        let names = ["sw_mean(1)", "last"];
        let mut bank = PredictorBank::new(&[Member::SlidingMean(1), Member::LastValue], 10);
        assert_eq!(bank.method_names(), names);
        assert_eq!(bank.selected_index(), 0);
        // A gap before any value leaves nothing to fall back to.
        bank.note_gap();
        assert_eq!(bank.selected_index(), 0);
        for i in 0..50 {
            let f = bank.update(0.5 + 0.3 * (f64::from(i) * 0.7).sin());
            let f = f.expect("both members predict");
            assert_eq!((bank.selected_index(), f.method_index), (0, 0), "step {i}");
            assert_eq!(&*f.method, "sw_mean(1)");
        }
        let table = bank.error_table();
        let table_names: Vec<&str> = table.iter().map(|row| &*row.name).collect();
        assert_eq!(table_names, names);
        assert_eq!(
            table[0],
            ErrorRow {
                name: table[0].name.clone(),
                ..table[1].clone()
            }
        );
        let summary: Vec<String> = bank.error_summary().into_iter().map(|(n, _)| n).collect();
        assert_eq!(summary, names);
        let mut folded = bank.error_table();
        bank.merge_errors_into(&mut folded);
        for (twice, once) in folded.iter().zip(&table) {
            assert_eq!(twice.name, once.name);
            assert_eq!(twice.scored, 2 * once.scored);
            assert_eq!(twice.abs_sum, 2.0 * once.abs_sum);
        }
        // The gap darkens the window: the first live member in panel
        // order serves.
        bank.note_gap();
        assert_eq!(bank.selected_index(), 1);
        assert_eq!(bank.forecast().map(|f| f.method_index), Some(1));
    }

    #[test]
    fn every_edge_of_a_reordered_bank_speaks_panel_order() {
        // Extended stores its ARMA members after the level trackers, and
        // an EWMA-only bank has no ring readers at all.
        for spec in [PanelSpec::Extended, PanelSpec::EwmaOnly { gain: 0.3 }] {
            let names: Vec<String> = spec.members().into_iter().map(Member::name).collect();
            let mut bank = spec.build();
            assert_eq!(bank.method_names(), names);
            bank.note_gap();
            for i in 0..300 {
                if i % 97 == 50 {
                    bank.note_gap();
                } else {
                    bank.observe(0.5 + 0.3 * (f64::from(i) * 0.4).sin());
                }
                let f = bank.forecast().expect("a level tracker always serves");
                assert_eq!(f.method_index, bank.selected_index());
                assert_eq!(*f.method, names[f.method_index]);
                assert_eq!(bank.selected_name(), f.method);
            }
            let table = bank.error_table();
            assert!(table
                .iter()
                .map(|row| row.name.to_string())
                .eq(names.iter().cloned()));
            let summary = bank.error_summary();
            assert!(summary.iter().map(|(n, _)| n).eq(names.iter()));
        }
    }

    #[test]
    #[should_panic(expected = "panel")]
    fn empty_panel_panics() {
        PredictorBank::new(&[], 10);
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
        let mut nws = PredictorBank::new(&[Member::SlidingMean(4), Member::SlidingMedian(4)], 10);
        for i in 0..20 {
            nws.update(0.4 + 0.01 * (i % 3) as f64);
        }
        assert!(nws.forecast().is_some());
        nws.note_gap();
        assert!(nws.forecast().is_none(), "window panel must go dark");
        assert!(nws.update(0.6).is_some());
    }
}
