//! Equivalence of the bank's online ARMA member with a naive reference.
//!
//! An ARMA member in a `PredictorBank` reads the bank's history ring,
//! refits its AR side with the allocation-free scratch-buffer
//! Levinson–Durbin kernel, and adapts its MA coefficients online. The
//! reference implementation below uses plain `Vec`s, a from-scratch
//! textbook Levinson recursion, explicit residual lists and its own
//! iterated horizon — the arithmetic both sides must agree on, over fixed
//! streams and proptest-generated ones, with and without seeded gaps.

use nws_forecast::{Member, PredictorBank};
use proptest::prelude::*;

/// Horizon compared at every step.
const HORIZON: usize = 16;

// Constants mirrored from the optimized implementation.
const THETA_STEP: f64 = 0.05;
const THETA_EPS: f64 = 1e-6;
const POWER_DECAY: f64 = 0.99;
const THETA_CAP: f64 = 0.98;

// ---------------------------------------------------------------------------
// Reference implementation: plain Vec window, textbook Levinson, explicit
// residual list.
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct NaiveArma {
    p: usize,
    q: usize,
    cap: usize,
    refit_every: usize,
    since_refit: usize,
    /// Last ≤ `cap` values since the last gap, oldest → newest.
    window: Vec<f64>,
    ar: Vec<f64>,
    theta: Vec<f64>,
    mean: f64,
    /// Innovations, most recent first, ≤ `q` entries.
    resid: Vec<f64>,
    power: f64,
}

/// Textbook Levinson–Durbin recursion, allocated fresh per call.
fn naive_levinson(autocov: &[f64], order: usize) -> Option<Vec<f64>> {
    if autocov.len() < order + 1 || autocov[0] <= 0.0 {
        return None;
    }
    let mut a = vec![0.0f64; order];
    let mut e = autocov[0];
    for k in 0..order {
        let mut acc = autocov[k + 1];
        for j in 0..k {
            acc -= a[j] * autocov[k - j];
        }
        if e <= 0.0 {
            return None;
        }
        let reflection = acc / e;
        if !reflection.is_finite() || reflection.abs() > 1.0 + 1e-9 {
            return None;
        }
        let prev = a.clone();
        a[k] = reflection;
        for j in 0..k {
            a[j] = prev[j] - reflection * prev[k - 1 - j];
        }
        e *= 1.0 - reflection * reflection;
    }
    Some(a)
}

impl NaiveArma {
    fn new(p: usize, q: usize, cap: usize, refit_every: usize) -> Self {
        Self {
            p,
            q,
            cap,
            refit_every,
            since_refit: 0,
            window: Vec::new(),
            ar: Vec::new(),
            theta: vec![0.0; q],
            mean: 0.0,
            resid: Vec::new(),
            power: 1.0,
        }
    }

    fn model_predict(&self) -> Option<f64> {
        if self.ar.is_empty() {
            return None;
        }
        let n = self.window.len();
        if n < self.p {
            return None;
        }
        let mut pred = self.mean;
        for (i, &a) in self.ar.iter().enumerate() {
            pred += a * (self.window[n - 1 - i] - self.mean);
        }
        for (j, &r) in self.resid.iter().enumerate() {
            pred += self.theta[j] * r;
        }
        Some(pred)
    }

    fn predict(&self) -> Option<f64> {
        self.model_predict().or_else(|| {
            if self.window.is_empty() {
                None
            } else {
                Some(self.window.iter().sum::<f64>() / self.window.len() as f64)
            }
        })
    }

    /// Iterates the model `k` steps: each forecast becomes the newest lag
    /// and each future innovation is zero. Without a model, the one-step
    /// forecast held flat.
    fn predict_horizon(&self, k: usize) -> Option<Vec<f64>> {
        let n = self.window.len();
        if self.ar.is_empty() || n < self.p {
            return self.predict().map(|v| vec![v; k]);
        }
        let mut lags: Vec<f64> = self.window.iter().rev().take(self.p).copied().collect();
        let mut resid = self.resid.clone();
        let mut out = Vec::with_capacity(k);
        for _ in 0..k {
            let mut pred = self.mean;
            for (i, &a) in self.ar.iter().enumerate() {
                pred += a * (lags[i] - self.mean);
            }
            for (j, &r) in resid.iter().enumerate() {
                pred += self.theta[j] * r;
            }
            out.push(pred);
            lags.insert(0, pred);
            lags.pop();
            resid.insert(0, 0.0);
            resid.truncate(self.q);
        }
        Some(out)
    }

    fn refit(&mut self) {
        let n = self.window.len();
        if n < 4 * self.p {
            return;
        }
        let mean = self.window.iter().sum::<f64>() / n as f64;
        let mut autocov = vec![0.0f64; self.p + 1];
        for (k, c) in autocov.iter_mut().enumerate() {
            let mut acc = 0.0;
            for t in 0..n - k {
                acc += (self.window[t] - mean) * (self.window[t + k] - mean);
            }
            *c = acc / n as f64;
        }
        if let Some(a) = naive_levinson(&autocov, self.p) {
            self.ar = a;
            self.mean = mean;
        }
    }

    fn observe(&mut self, value: f64) {
        if let Some(pred) = self.model_predict() {
            let e = value - pred;
            let step = THETA_STEP * e / (THETA_EPS + self.power);
            for (j, &r) in self.resid.iter().enumerate() {
                self.theta[j] = (self.theta[j] + step * r).clamp(-THETA_CAP, THETA_CAP);
            }
            self.power = POWER_DECAY * self.power + (1.0 - POWER_DECAY) * e * e;
            self.resid.insert(0, e);
            self.resid.truncate(self.q);
        }
        self.window.push(value);
        if self.window.len() > self.cap {
            self.window.remove(0);
        }
        self.since_refit += 1;
        if self.since_refit >= self.refit_every && self.window.len() >= 4 * self.p {
            self.since_refit = 0;
            self.refit();
        }
    }

    fn note_gap(&mut self) {
        self.window.clear();
        self.resid.clear();
        self.since_refit = 0;
    }
}

// ---------------------------------------------------------------------------
// Deterministic value stream (xorshift64*), as in the other equivalence
// suites.
// ---------------------------------------------------------------------------

fn stream(seed: u64, n: usize) -> Vec<f64> {
    let mut state = seed.max(1);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let bits = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
        out.push((bits >> 11) as f64 / (1u64 << 53) as f64);
    }
    out
}

/// Gap mask: slot i is a gap when its hash draw falls under `rate_pct`%.
fn gap_at(seed: u64, i: usize, rate_pct: u64) -> bool {
    let mut h = seed ^ 0x9E37_79B9_7F4A_7C15 ^ (i as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    h % 100 < rate_pct
}

fn assert_equivalent(
    p: usize,
    q: usize,
    cap: usize,
    refit_every: usize,
    seed: u64,
    n: usize,
    gap_pct: u64,
) {
    let mut fast = PredictorBank::new(
        &[Member::Arma {
            p,
            q,
            window: cap,
            refit_every,
        }],
        30,
    );
    let naive = &mut NaiveArma::new(p, q, cap, refit_every);
    let at = |i| format!("step {i} (p={p} q={q} cap={cap} refit={refit_every} seed={seed})");
    for (i, v) in stream(seed, n).into_iter().enumerate() {
        if gap_pct > 0 && gap_at(seed, i, gap_pct) {
            fast.note_gap();
            naive.note_gap();
        } else {
            fast.observe(v);
            naive.observe(v);
        }
        match (fast.predicted_value(), naive.predict()) {
            (None, None) => {}
            (Some(a), Some(b)) => assert!((a - b).abs() < 1e-9, "{}: bank {a} vs naive {b}", at(i)),
            (a, b) => panic!(
                "{}: availability diverged: bank {a:?} vs naive {b:?}",
                at(i)
            ),
        }
        match (
            fast.predict_horizon(HORIZON),
            naive.predict_horizon(HORIZON),
        ) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert_eq!(a.len(), b.len());
                for (h, (x, y)) in a.iter().zip(&b).enumerate() {
                    assert!(
                        (x - y).abs() < 1e-9,
                        "{}, horizon step {h}: bank {x} vs naive {y}",
                        at(i)
                    );
                }
            }
            (a, b) => panic!("{}: horizons diverged: bank {a:?} vs naive {b:?}", at(i)),
        }
    }
}

#[test]
fn fixed_streams_match() {
    assert_equivalent(1, 1, 40, 10, 42, 400, 0);
    assert_equivalent(2, 1, 64, 25, 7, 600, 0);
    assert_equivalent(3, 2, 120, 25, 1234, 800, 0);
}

#[test]
fn fixed_streams_match_under_gaps() {
    assert_equivalent(1, 1, 40, 10, 42, 400, 10);
    assert_equivalent(2, 2, 64, 20, 99, 600, 25);
    assert_equivalent(2, 1, 48, 5, 555, 500, 40);
}

proptest! {
    #[test]
    fn prop_arma_matches_naive_reference(
        seed in 1u64..1_000_000,
        p in 1usize..4,
        q in 1usize..3,
        extra in 0usize..80,
        refit_every in 1usize..30,
        n in 20usize..400,
    ) {
        let cap = 4 * p + extra;
        assert_equivalent(p, q, cap, refit_every, seed, n, 0);
    }

    #[test]
    fn prop_arma_matches_naive_reference_under_seeded_gaps(
        seed in 1u64..1_000_000,
        p in 1usize..4,
        q in 1usize..3,
        extra in 0usize..80,
        refit_every in 1usize..30,
        n in 20usize..400,
        gap_pct in 1u64..45,
    ) {
        let cap = 4 * p + extra;
        assert_equivalent(p, q, cap, refit_every, seed, n, gap_pct);
    }
}
