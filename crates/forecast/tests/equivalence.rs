//! Equivalence of the bank's incremental window members with naive
//! references that do not call `kernels.rs`.
//!
//! The adaptive window keeps rolling sums for its three candidate lengths
//! instead of three O(window) suffix rescans per observation, and the
//! median and trimmed-mean members share a sorted block slid by one
//! evict and one insert instead of a copy-and-sort per prediction. Both
//! must be behavior-preserving: the median and trimmed mean exactly
//! (same multiset, same middle, same ascending sum), and the adaptive
//! mean up to floating-point rounding — checked here against reference
//! implementations kept in this file, each driven beside a one-member
//! `PredictorBank`, over fixed streams and proptest-generated ones.

use nws_forecast::{Member, PredictorBank};
use proptest::prelude::*;

/// A single predictor: a one-member bank.
fn alone(member: Member) -> PredictorBank {
    PredictorBank::new(&[member], 30)
}

// ---------------------------------------------------------------------------
// Reference implementations (the pre-optimization algorithms, verbatim in
// structure: rescan/re-sort on every call).
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct NaiveAdaptiveWindowMean {
    min_len: usize,
    max_len: usize,
    len: usize,
    window: Vec<f64>,
    err_current: f64,
    err_half: f64,
    err_double: f64,
    since_review: usize,
    review_every: usize,
}

impl NaiveAdaptiveWindowMean {
    fn new(min_len: usize, max_len: usize) -> Self {
        Self {
            min_len,
            max_len,
            len: min_len.max((min_len + max_len) / 4),
            window: Vec::new(),
            err_current: 0.0,
            err_half: 0.0,
            err_double: 0.0,
            since_review: 0,
            review_every: 8,
        }
    }

    fn suffix_mean(&self, len: usize) -> Option<f64> {
        let have = self.window.len();
        if have == 0 {
            return None;
        }
        let take = len.min(have);
        let sum: f64 = self.window[have - take..].iter().sum();
        Some(sum / take as f64)
    }

    fn observe(&mut self, value: f64) {
        const FADE: f64 = 0.9;
        let half = (self.len / 2).max(self.min_len);
        let double = (self.len * 2).min(self.max_len);
        if let Some(p) = self.suffix_mean(self.len) {
            self.err_current = FADE * self.err_current + (p - value).abs();
        }
        if let Some(p) = self.suffix_mean(half) {
            self.err_half = FADE * self.err_half + (p - value).abs();
        }
        if let Some(p) = self.suffix_mean(double) {
            self.err_double = FADE * self.err_double + (p - value).abs();
        }
        self.window.push(value);
        if self.window.len() > self.max_len {
            self.window.remove(0);
        }
        self.since_review += 1;
        if self.since_review >= self.review_every {
            self.since_review = 0;
            if self.err_half < self.err_current && self.err_half <= self.err_double {
                self.len = half;
            } else if self.err_double < self.err_current {
                self.len = double;
            }
            self.err_current = 0.0;
            self.err_half = 0.0;
            self.err_double = 0.0;
        }
    }

    fn predict(&self) -> Option<f64> {
        self.suffix_mean(self.len)
    }
}

/// The last `k` values, sorted afresh on every prediction: their median,
/// or with `alpha` their α-trimmed mean.
#[derive(Debug)]
struct NaiveSortedWindow {
    window: Vec<f64>,
    k: usize,
    alpha: Option<f64>,
}

impl NaiveSortedWindow {
    fn new(member: Member) -> Self {
        let (k, alpha) = match member {
            Member::SlidingMedian(k) => (k, None),
            Member::TrimmedMean(k, alpha) => (k, Some(alpha)),
            other => panic!("{other:?} keeps no sorted window"),
        };
        Self {
            window: Vec::new(),
            k,
            alpha,
        }
    }

    fn observe(&mut self, value: f64) {
        self.window.push(value);
        if self.window.len() > self.k {
            self.window.remove(0);
        }
    }

    fn predict(&self) -> Option<f64> {
        if self.window.is_empty() {
            return None;
        }
        let mut v = self.window.clone();
        v.sort_by(|a, b| a.total_cmp(b));
        let n = v.len();
        let Some(alpha) = self.alpha else {
            return Some(if n % 2 == 1 {
                v[n / 2]
            } else {
                (v[n / 2 - 1] + v[n / 2]) / 2.0
            });
        };
        // α < 0.5 always keeps at least one value.
        let cut = (alpha * n as f64).floor() as usize;
        let kept = &v[cut..n - cut];
        Some(kept.iter().sum::<f64>() / kept.len() as f64)
    }
}

// ---------------------------------------------------------------------------
// Deterministic streams
// ---------------------------------------------------------------------------

/// A reproducible pseudo-random availability stream in [0, 1].
fn stream(seed: u64, n: usize) -> Vec<f64> {
    let mut state = seed.max(1);
    (0..n)
        .map(|_| {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let bits = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            (bits >> 11) as f64 / (1u64 << 53) as f64
        })
        .collect()
}

#[test]
fn adaptive_window_tracks_naive_reference() {
    for (min_len, max_len, seed) in [(2, 64, 7), (1, 5, 11), (4, 256, 13), (10, 10, 17)] {
        let mut fast = alone(Member::AdaptiveWindowMean(min_len, max_len));
        let mut naive = NaiveAdaptiveWindowMean::new(min_len, max_len);
        for (i, v) in stream(seed, 5000).into_iter().enumerate() {
            fast.observe(v);
            naive.observe(v);
            match (fast.predicted_value(), naive.predict()) {
                (Some(a), Some(b)) => assert!(
                    (a - b).abs() < 1e-9,
                    "step {i} ({min_len}-{max_len}): rolling {a} vs rescan {b}"
                ),
                (a, b) => assert_eq!(a, b, "step {i}"),
            }
        }
    }
}

/// The sorted-window members the sort-per-call reference covers.
fn sorted_members(k: usize) -> [Member; 3] {
    [
        Member::SlidingMedian(k),
        Member::TrimmedMean(k, 0.2),
        Member::TrimmedMean(k, 0.45),
    ]
}

#[test]
fn sorted_windows_match_naive_reference_exactly() {
    for (k, seed) in [(1, 3), (2, 5), (5, 7), (51, 9), (100, 11)] {
        for member in sorted_members(k) {
            let mut fast = alone(member);
            let mut naive = NaiveSortedWindow::new(member);
            for (i, v) in stream(seed, 3000).into_iter().enumerate() {
                fast.observe(v);
                naive.observe(v);
                assert_eq!(
                    fast.predicted_value(),
                    naive.predict(),
                    "{member:?} step {i}"
                );
            }
        }
    }
}

#[test]
fn sorted_windows_handle_duplicates_and_reset() {
    for member in sorted_members(4) {
        let mut fast = alone(member);
        let mut naive = NaiveSortedWindow::new(member);
        for v in [0.5, 0.5, 0.5, 0.1, 0.5, 0.9, 0.5, 0.5, 0.0, 1.0, 0.5] {
            fast.observe(v);
            naive.observe(v);
            assert_eq!(fast.predicted_value(), naive.predict(), "{member:?}");
        }
        fast.reset();
        assert_eq!(fast.predicted_value(), None);
        fast.observe(0.25);
        assert_eq!(fast.predicted_value(), Some(0.25));
    }
}

proptest! {
    #[test]
    fn prop_adaptive_forecast_identity(
        seed in 1u64..1_000_000,
        min_len in 1usize..8,
        extra in 0usize..120,
        n in 1usize..600,
    ) {
        let max_len = min_len + extra;
        let mut fast = alone(Member::AdaptiveWindowMean(min_len, max_len));
        let mut naive = NaiveAdaptiveWindowMean::new(min_len, max_len);
        for v in stream(seed, n) {
            fast.observe(v);
            naive.observe(v);
            match (fast.predicted_value(), naive.predict()) {
                (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-9),
                (a, b) => prop_assert_eq!(a, b),
            }
        }
    }

    #[test]
    fn prop_sorted_window_identity(
        seed in 1u64..1_000_000,
        k in 1usize..80,
        alpha in prop_oneof![Just(None), Just(Some(0.1)), Just(Some(0.2)), Just(Some(0.45))],
        n in 1usize..500,
    ) {
        let member = alpha.map_or(Member::SlidingMedian(k), |a| Member::TrimmedMean(k, a));
        let mut fast = alone(member);
        let mut naive = NaiveSortedWindow::new(member);
        for v in stream(seed, n) {
            fast.observe(v);
            naive.observe(v);
            prop_assert_eq!(fast.predicted_value(), naive.predict());
        }
    }
}
