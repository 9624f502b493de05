//! Property tests for the arrival-time samplers.
//!
//! The benchmark's open-loop serving workloads depend on two
//! properties: a schedule is a pure function of its seed (bit-identical
//! no matter how many threads the driver runs with), and the samplers
//! actually draw from the distributions they claim (mean and tail within
//! tolerance of the analytic values), so an offered rate means what it
//! says.

use nws_loadgen::{ArrivalSchedule, InterArrival};
use proptest::prelude::*;

/// Gaps reconstructed from the cumulative timeline.
fn gaps(s: &ArrivalSchedule) -> Vec<f64> {
    let mut prev = 0.0;
    s.offsets()
        .iter()
        .map(|&t| {
            let g = t - prev;
            prev = t;
            g
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn schedules_are_bit_identical_across_thread_counts(
        seed in any::<u64>(),
        rate_ix in 0usize..4,
        heavy in any::<bool>(),
    ) {
        let rate = [100.0, 1000.0, 8000.0, 64000.0][rate_ix];
        let dist = if heavy {
            InterArrival::heavy_tail(rate, 1.5)
        } else {
            InterArrival::poisson(rate)
        };
        // Generate under different configured thread counts: the
        // schedule must not observe parallelism at all.
        nws_runtime::set_threads(Some(1));
        let a = ArrivalSchedule::generate(dist, seed, 600);
        nws_runtime::set_threads(Some(4));
        let b = ArrivalSchedule::generate(dist, seed, 600);
        nws_runtime::set_threads(None);
        prop_assert_eq!(a.fingerprint(), b.fingerprint());
        prop_assert_eq!(a.offsets(), b.offsets());
    }

    #[test]
    fn exponential_gaps_match_the_analytic_mean(
        seed in any::<u64>(),
        rate_ix in 0usize..3,
    ) {
        let rate = [50.0, 500.0, 5000.0][rate_ix];
        let dist = InterArrival::poisson(rate);
        let s = ArrivalSchedule::generate(dist, seed, 20_000);
        let mean = s.duration() / s.len() as f64;
        let want = dist.analytic_mean();
        // 20k exponential draws: the sample mean has σ ≈ mean/√n, so
        // ±10% is a > 14σ band — failures mean a broken sampler, not
        // bad luck.
        prop_assert!(
            (mean - want).abs() / want < 0.10,
            "mean {} vs analytic {}", mean, want
        );
    }

    #[test]
    fn pareto_gaps_match_mean_and_tail(
        seed in any::<u64>(),
        shape_ix in 0usize..3,
    ) {
        let shape = [1.3, 1.5, 1.8][shape_ix];
        let rate = 1000.0;
        let dist = InterArrival::heavy_tail(rate, shape);
        let s = ArrivalSchedule::generate(dist, seed, 40_000);
        let gs = gaps(&s);
        // Heavy tails converge slowly; the capped analytic mean keeps
        // this honest while the band stays wide.
        let mean = gs.iter().sum::<f64>() / gs.len() as f64;
        let want = dist.analytic_mean();
        prop_assert!(
            (mean - want).abs() / want < 0.25,
            "mean {} vs analytic {}", mean, want
        );
        // Tail law: P(X > x) = (scale/x)^shape. Check one decade above
        // the scale, where a 40k-draw empirical survival is stable.
        let InterArrival::Pareto { scale, .. } = dist else { unreachable!() };
        let x = scale * 10.0;
        let survival = gs.iter().filter(|&&g| g > x).count() as f64 / gs.len() as f64;
        let want_survival = 0.1f64.powf(shape);
        prop_assert!(
            (survival - want_survival).abs() / want_survival < 0.30,
            "P(X > {}) = {} vs analytic {}", x, survival, want_survival
        );
    }

    #[test]
    fn timelines_are_strictly_increasing(
        seed in any::<u64>(),
        heavy in any::<bool>(),
    ) {
        let dist = if heavy {
            InterArrival::heavy_tail(2000.0, 1.5)
        } else {
            InterArrival::poisson(2000.0)
        };
        let s = ArrivalSchedule::generate(dist, seed, 2000);
        for g in gaps(&s) {
            prop_assert!(g > 0.0, "non-positive gap {}", g);
        }
        prop_assert_eq!(s.len(), 2000);
        prop_assert!(s.offered_rps() > 0.0);
    }
}
