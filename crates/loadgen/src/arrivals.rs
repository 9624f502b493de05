//! Virtual arrival timelines for open-loop load.
//!
//! An open-loop generator decides *when* each request arrives before
//! the first one is sent, from a seeded inter-arrival distribution.
//! The runner then works through the timeline: if the server falls
//! behind, requests queue behind their virtual timestamps and the
//! waiting counts against measured latency. Nothing the server does
//! can slow the arrival clock down — which is exactly the property a
//! closed-loop client lacks.

use crate::fnv1a;
use nws_stats::dist::{Distribution, Exponential, Pareto};
use nws_stats::Rng;

/// How successive arrivals are spaced, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InterArrival {
    /// Poisson arrivals: exponential gaps with the given mean.
    Exponential {
        /// Mean gap between arrivals, seconds.
        mean: f64,
    },
    /// Heavy-tailed arrivals: Pareto gaps with tail index `shape` and
    /// minimum gap `scale`, clamped at `cap` so one draw from the tail
    /// cannot stall a finite run forever. With `1 < shape < 2` the
    /// gaps have finite mean but infinite variance — the same
    /// mechanism that gives the paper's availability traces their
    /// self-similarity gives this workload its bursts.
    Pareto {
        /// Tail index `α`.
        shape: f64,
        /// Minimum gap, seconds.
        scale: f64,
        /// Clamp for individual gaps, seconds.
        cap: f64,
    },
}

impl InterArrival {
    /// Poisson arrivals at `rate` requests per second.
    pub fn poisson(rate: f64) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "rate must be positive");
        InterArrival::Exponential { mean: 1.0 / rate }
    }

    /// Heavy-tailed arrivals averaging `rate` requests per second with
    /// tail index `shape` (use `1 < shape < 2` for the infinite-variance
    /// regime). The scale is solved so the *uncapped* mean gap is
    /// `1/rate`; the cap at 1000 mean gaps trims only the extreme tail,
    /// so the effective rate stays within a fraction of a percent.
    pub fn heavy_tail(rate: f64, shape: f64) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "rate must be positive");
        assert!(shape > 1.0, "need a finite mean, so shape > 1");
        let mean = 1.0 / rate;
        let scale = mean * (shape - 1.0) / shape;
        InterArrival::Pareto {
            shape,
            scale,
            cap: 1000.0 * mean,
        }
    }

    /// Short name for CSV rows and labels.
    pub fn label(&self) -> &'static str {
        match self {
            InterArrival::Exponential { .. } => "exponential",
            InterArrival::Pareto { .. } => "pareto",
        }
    }

    /// The analytic mean gap, seconds.
    pub fn analytic_mean(&self) -> f64 {
        match *self {
            InterArrival::Exponential { mean } => mean,
            InterArrival::Pareto { shape, scale, cap } => Pareto::new(shape, scale)
                .with_cap(cap)
                .mean()
                .expect("capped Pareto has a finite mean"),
        }
    }

    /// Draws one gap, seconds.
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        match *self {
            InterArrival::Exponential { mean } => Exponential::with_mean(mean).sample(rng),
            InterArrival::Pareto { shape, scale, cap } => {
                Pareto::new(shape, scale).with_cap(cap).sample(rng)
            }
        }
    }
}

/// A precomputed open-loop arrival timeline: cumulative offsets from
/// the start of the run, seconds, non-decreasing.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalSchedule {
    offsets: Vec<f64>,
}

impl ArrivalSchedule {
    /// Generates `n` arrivals from `dist`, deterministically from
    /// `seed`. The timeline is a pure function of its arguments — it
    /// never looks at wall clock or thread count, so the same seed
    /// yields bit-identical schedules everywhere.
    pub fn generate(dist: InterArrival, seed: u64, n: usize) -> Self {
        let mut rng = Rng::new(seed).fork("loadgen.arrivals");
        let mut offsets = Vec::with_capacity(n);
        let mut t = 0.0;
        for _ in 0..n {
            t += dist.sample(&mut rng);
            offsets.push(t);
        }
        Self { offsets }
    }

    /// Cumulative arrival offsets, seconds.
    pub fn offsets(&self) -> &[f64] {
        &self.offsets
    }

    /// Number of arrivals.
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Whether the timeline is empty.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Virtual duration of the whole timeline, seconds.
    pub fn duration(&self) -> f64 {
        self.offsets.last().copied().unwrap_or(0.0)
    }

    /// FNV-1a over the IEEE-754 bits of every offset, in order: the
    /// committed-artifact fingerprint for cross-thread-count identity.
    pub fn fingerprint(&self) -> u64 {
        let mut bytes = Vec::with_capacity(self.offsets.len() * 8);
        for v in &self.offsets {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        fnv1a(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_seed_deterministic() {
        let d = InterArrival::poisson(100.0);
        let a = ArrivalSchedule::generate(d, 7, 500);
        let b = ArrivalSchedule::generate(d, 7, 500);
        let c = ArrivalSchedule::generate(d, 8, 500);
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn offsets_are_non_decreasing_and_positive() {
        for dist in [
            InterArrival::poisson(50.0),
            InterArrival::heavy_tail(50.0, 1.5),
        ] {
            let s = ArrivalSchedule::generate(dist, 11, 1000);
            let mut prev = 0.0;
            for &t in s.offsets() {
                assert!(t > 0.0 && t >= prev, "{}: bad offset {t}", dist.label());
                prev = t;
            }
        }
    }

    #[test]
    fn offered_rate_tracks_the_analytic_mean() {
        for dist in [
            InterArrival::poisson(200.0),
            InterArrival::heavy_tail(200.0, 1.5),
        ] {
            let s = ArrivalSchedule::generate(dist, 3, 20_000);
            let mean_gap = s.duration() / s.len() as f64;
            let want = dist.analytic_mean();
            assert!(
                (mean_gap - want).abs() / want < 0.15,
                "{}: empirical mean gap {mean_gap} vs analytic {want}",
                dist.label()
            );
        }
    }

    #[test]
    fn heavy_tail_cap_trims_little_mass() {
        // The capped analytic mean must sit within a couple percent of
        // the uncapped target 1/rate the constructor solved for (the
        // cap at 1000 mean gaps trims ~(α−1)/α · 1000^(1−α) of the
        // mass: ~1.2% at α = 1.5).
        let d = InterArrival::heavy_tail(100.0, 1.5);
        let got = d.analytic_mean();
        assert!((got - 0.01).abs() / 0.01 < 0.02, "capped mean {got}");
    }
}
