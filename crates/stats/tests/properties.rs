//! Property-based tests for the statistics substrate.

use nws_stats::{
    aggregated_variance_hurst, autocorrelation, autocovariance, autocovariance_fft,
    autocovariance_naive, clamped_autocorrelation, fft_inplace, fgn_autocovariance, hurst_rs,
    ifft_inplace, linear_fit, periodogram, pox_plot, Complex, DaviesHarte, Distribution,
    Exponential, LogNormal, Pareto, Rng, Uniform,
};
use proptest::prelude::*;

/// Availability on a near-idle host is `1 − ε`: the same noise squeezed
/// against 1 must give the same pox plot, the same `H` and the same ACF.
/// Moments taken from whole-series running sums fail this from a = 1e-6
/// down (segments cancel to zero variance and drop out, `H` climbs).
#[test]
fn squeezing_a_series_against_one_changes_no_estimate() {
    let mut rng = Rng::new(7);
    let u: Vec<f64> = (0..8192).map(|_| rng.next_f64()).collect();
    let squeezed = |a: f64| -> Vec<f64> { u.iter().map(|&v| 1.0 - a * v).collect() };

    let wide = squeezed(1e-2);
    let pox = pox_plot(&wide, 10);
    let h_rs = hurst_rs(&wide, 10).expect("long enough").h;
    let h_av = aggregated_variance_hurst(&wide).expect("long enough").h;
    // n·(max_lag + 1) lands on the direct-sum side of the ACF dispatch at
    // lag 10 and on the FFT side at lag 20.
    let rho_direct = autocorrelation(&wide, 10).expect("varies");
    let rho_fft = autocorrelation(&wide, 20).expect("varies");

    for a in [1e-4, 1e-6, 1e-7] {
        let x = squeezed(a);
        let p = pox_plot(&x, 10);
        assert_eq!(p.len(), pox.len(), "a = {a}: segments dropped");
        for (got, want) in p.iter().zip(&pox) {
            assert_eq!(got.log10_d, want.log10_d);
            assert!(
                (got.log10_rs - want.log10_rs).abs() < 1e-6,
                "a = {a}: log10 R/S {} vs {}",
                got.log10_rs,
                want.log10_rs
            );
        }
        let rs = hurst_rs(&x, 10).expect("long enough").h;
        assert!((rs - h_rs).abs() < 1e-6, "a = {a}: H_rs {rs} vs {h_rs}");
        let av = aggregated_variance_hurst(&x).expect("long enough").h;
        assert!((av - h_av).abs() < 1e-6, "a = {a}: H_av {av} vs {h_av}");
        for (lag, want) in [(10, &rho_direct), (20, &rho_fft)] {
            let got = autocorrelation(&x, lag).expect("varies");
            for (k, (g, w)) in got.iter().zip(want).enumerate() {
                assert!((g - w).abs() < 1e-9, "a = {a}, lag {k}: rho {g} vs {w}");
            }
        }
    }
}

proptest! {
    #[test]
    fn fft_ifft_roundtrip(seed in any::<u64>(), log_n in 0u32..10) {
        let n = 1usize << log_n;
        let mut rng = Rng::new(seed);
        let original: Vec<Complex> = (0..n)
            .map(|_| Complex::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5))
            .collect();
        let mut data = original.clone();
        fft_inplace(&mut data);
        ifft_inplace(&mut data);
        for (a, b) in data.iter().zip(&original) {
            prop_assert!((a.re - b.re).abs() < 1e-8);
            prop_assert!((a.im - b.im).abs() < 1e-8);
        }
    }

    #[test]
    fn fft_is_linear(seed in any::<u64>(), scale in -5.0f64..5.0) {
        let n = 64;
        let mut rng = Rng::new(seed);
        let x: Vec<Complex> = (0..n).map(|_| Complex::new(rng.next_f64(), 0.0)).collect();
        let mut fx = x.clone();
        fft_inplace(&mut fx);
        let mut sx: Vec<Complex> = x.iter().map(|z| z.scale(scale)).collect();
        fft_inplace(&mut sx);
        for (a, b) in sx.iter().zip(&fx) {
            prop_assert!((a.re - scale * b.re).abs() < 1e-7);
            prop_assert!((a.im - scale * b.im).abs() < 1e-7);
        }
    }

    #[test]
    fn periodogram_is_nonnegative(seed in any::<u64>(), n in 2usize..200) {
        let mut rng = Rng::new(seed);
        let x: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();
        for (lambda, power) in periodogram(&x) {
            prop_assert!(power >= 0.0);
            prop_assert!(lambda > 0.0 && lambda <= std::f64::consts::PI + 1e-12);
        }
    }

    #[test]
    fn fgn_autocovariance_is_symmetric_psd_shape(h in 0.05f64..0.95) {
        // gamma(0) = 1 and |gamma(k)| <= 1 for all k.
        prop_assert_eq!(fgn_autocovariance(h, 0), 1.0);
        for k in 1..50 {
            let g = fgn_autocovariance(h, k);
            prop_assert!(g.abs() <= 1.0 + 1e-12, "gamma({k}) = {g}");
        }
        // Monotone decay in magnitude beyond lag 1 for H > 1/2.
        if h > 0.55 {
            let mut prev = fgn_autocovariance(h, 1);
            for k in 2..20 {
                let g = fgn_autocovariance(h, k);
                prop_assert!(g <= prev + 1e-12);
                prev = g;
            }
        }
    }

    #[test]
    fn davies_harte_is_deterministic_and_sane(h in 0.1f64..0.9, seed in any::<u64>()) {
        let gen = DaviesHarte::new(h).expect("valid H");
        let a = gen.sample(256, &mut Rng::new(seed)).expect("sample");
        let b = gen.sample(256, &mut Rng::new(seed)).expect("sample");
        prop_assert_eq!(&a, &b);
        prop_assert!(a.iter().all(|v| v.is_finite()));
        // Unit-variance process: sample std within a loose band.
        let mean = a.iter().sum::<f64>() / a.len() as f64;
        let var = a.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / a.len() as f64;
        prop_assert!(var > 0.2 && var < 5.0, "var = {var}");
    }

    #[test]
    fn linear_fit_recovers_exact_lines(
        slope in -100.0f64..100.0,
        intercept in -100.0f64..100.0,
        n in 2usize..50,
    ) {
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| slope * x + intercept).collect();
        let fit = linear_fit(&xs, &ys).expect("non-degenerate");
        prop_assert!((fit.slope - slope).abs() < 1e-6 * (1.0 + slope.abs()));
        prop_assert!((fit.intercept - intercept).abs() < 1e-5 * (1.0 + intercept.abs()));
    }

    #[test]
    fn distributions_respect_support(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let u = Uniform::new(2.0, 3.0);
        let e = Exponential::new(0.5);
        let p = Pareto::new(1.5, 4.0).with_cap(100.0);
        let l = LogNormal::new(0.0, 1.0);
        for _ in 0..200 {
            let x = u.sample(&mut rng);
            prop_assert!((2.0..3.0).contains(&x));
            prop_assert!(e.sample(&mut rng) > 0.0);
            let y = p.sample(&mut rng);
            prop_assert!((4.0..=100.0).contains(&y));
            prop_assert!(l.sample(&mut rng) > 0.0);
        }
    }

    #[test]
    fn fft_acf_matches_naive_on_random_series(
        seed in any::<u64>(),
        n in 1usize..600,
        lag_frac in 0.0f64..1.3,
    ) {
        // Both paths must agree on whether the input is answerable at all
        // (max_lag may land on either side of n) and, when it is, on every
        // lag to well under the documented 1e-9 bound.
        let mut rng = Rng::new(seed);
        let x: Vec<f64> = (0..n).map(|_| rng.next_f64() * 4.0 - 2.0).collect();
        let max_lag = (n as f64 * lag_frac) as usize;
        let naive = autocovariance_naive(&x, max_lag);
        let fft = autocovariance_fft(&x, max_lag);
        match (naive, fft) {
            (None, None) => prop_assert!(max_lag >= n),
            (Some(a), Some(b)) => {
                prop_assert_eq!(a.len(), max_lag + 1);
                prop_assert_eq!(a.len(), b.len());
                for (k, (p, q)) in a.iter().zip(&b).enumerate() {
                    prop_assert!((p - q).abs() < 1e-9, "lag {k}: {p} vs {q}");
                }
            }
            (a, b) => prop_assert!(
                false,
                "paths disagree on answerability: naive={} fft={}",
                a.is_some(),
                b.is_some()
            ),
        }
    }

    #[test]
    fn fft_acf_matches_naive_on_constant_and_spiked_series(
        value in -10.0f64..10.0,
        n in 2usize..300,
        spike in proptest::option::of(0usize..300),
    ) {
        // Constant series (zero variance) and constant-with-one-spike
        // series (near-degenerate) are where cancellation differs most
        // between the direct sum and the FFT round trip.
        let mut x = vec![value; n];
        if let Some(i) = spike {
            x[i % n] += 5.0;
        }
        let max_lag = n - 1;
        let a = autocovariance_naive(&x, max_lag).expect("max_lag < n");
        let b = autocovariance_fft(&x, max_lag).expect("max_lag < n");
        for (k, (p, q)) in a.iter().zip(&b).enumerate() {
            prop_assert!((p - q).abs() < 1e-9, "lag {k}: {p} vs {q}");
        }
    }

    #[test]
    fn dispatching_acf_always_matches_the_naive_reference(
        seed in any::<u64>(),
        n in 1usize..400,
        max_lag in 0usize..400,
    ) {
        // The public entry point may take either path; whichever it takes,
        // the answer must match the reference.
        let mut rng = Rng::new(seed);
        let x: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();
        let via_dispatch = autocovariance(&x, max_lag);
        let reference = autocovariance_naive(&x, max_lag);
        match (via_dispatch, reference) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                for (k, (p, q)) in a.iter().zip(&b).enumerate() {
                    prop_assert!((p - q).abs() < 1e-9, "lag {k}: {p} vs {q}");
                }
            }
            _ => prop_assert!(false, "dispatch changed answerability"),
        }
    }

    #[test]
    fn clamped_acf_answers_whenever_the_series_varies(
        seed in any::<u64>(),
        n in 3usize..200,
        max_lag in 0usize..1000,
    ) {
        let mut rng = Rng::new(seed);
        let x: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();
        let rho = clamped_autocorrelation(&x, max_lag).expect("random series varies");
        prop_assert_eq!(rho.len(), max_lag.min(n - 2) + 1);
        prop_assert!((rho[0] - 1.0).abs() < 1e-12);
        // And it never answers more lags than the unclamped call would.
        if let Some(full) = autocorrelation(&x, max_lag) {
            prop_assert_eq!(full.len(), rho.len());
        }
    }

    #[test]
    fn acf_of_shuffled_data_loses_structure(seed in any::<u64>()) {
        // A strongly trending series has rho(1) ~ 1; value order matters.
        let n = 400usize;
        let trend: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let rho_trend = autocorrelation(&trend, 1).expect("long enough")[1];
        prop_assert!(rho_trend > 0.95);
        // Pseudo-shuffle by striding with a coprime step.
        let mut rng = Rng::new(seed);
        let step = 2 * (rng.below(100) as usize) + 101; // odd, > n/4
        let shuffled: Vec<f64> = (0..n).map(|i| trend[(i * step) % n]).collect();
        let rho_shuf = autocorrelation(&shuffled, 1).expect("long enough")[1];
        prop_assert!(rho_shuf < rho_trend);
    }
}
