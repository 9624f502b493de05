//! The NWS forecasting engine — the paper's primary contribution.
//!
//! "Rather than use a single forecasting model, the NWS applies a
//! collection of forecasting techniques to each series, and dynamically
//! chooses the one that has been most accurate over the recent set of
//! measurements. This method … has been shown to yield forecasts that are
//! equivalent to, or slightly better than, the best forecaster in the set."
//! (Section 3, citing Wolski's NWS papers.)
//!
//! The design mirrors the published NWS forecaster:
//!
//! - a **panel** of computationally cheap one-step-ahead predictors
//!   ([`Member`]): last value, running mean, sliding-window means and
//!   medians over several windows, α-trimmed means, exponential smoothing
//!   over a bank of gains, an adaptive-gain smoother, an adaptive-length
//!   window, a stochastic-gradient predictor, and Levinson–Durbin AR and
//!   online ARMA models;
//! - per-predictor **error tracking** over both the full history and a
//!   recent window;
//! - **dynamic selection** ([`panel`]): each time a measurement arrives,
//!   all predictors are scored on it, updated, and the one with the
//!   lowest tracked error issues the next forecast;
//! - an **offline evaluator** ([`eval`]) that replays a recorded series
//!   through the panel and reports the paper's error metrics (Eq. 4 true
//!   forecasting error against an oracle, Eq. 5 one-step-ahead prediction
//!   error against the next measurement).
//!
//! "To be efficient, each of the techniques must be relatively cheap to
//! compute" — and the whole panel runs on every series at every
//! measurement, so the panel as a whole must be. [`PredictorBank`] is the
//! one forecaster: it holds a member *list* in one flat layout — one
//! history ring every window member reads, one rolling sum per distinct
//! window length (the sliding means, the AR/ARMA fallback mean), one
//! sorted block per distinct length (medians and trimmed means), one
//! slot-major matrix of recent errors, and each member's standing
//! prediction computed once per measurement. A single predictor is a
//! one-member bank. Each member formula is written once, in [`kernels`].
//! Level members are O(1) per update, window sums O(1), sorted blocks
//! O(k) moves, trimmed means an O(k) sum, AR refits O(window·order) every
//! `refit_every` measurements.

#![forbid(unsafe_code)]

#[cfg(test)]
mod bank_equivalence;
pub mod eval;
pub mod interval;
pub mod kernels;
pub mod panel;

pub use eval::{evaluate_one_step, EvalReport};
pub use interval::{IntervalTracker, P2Quantile, PredictionInterval};
pub use kernels::ewma_step;
pub use panel::{ErrorRow, Forecast, Member, PanelSpec, PredictorBank};
