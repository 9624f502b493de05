//! The `perf` experiment and its tracked `BENCH_perf.json`: the one
//! kernel timing nothing else measures — the naive-vs-FFT ACF cells —
//! and the deterministic forecast-quality tables. Every other layer's
//! cost is read from `benchmark --trace 1` (see `benchmark/README.md`).

use crate::cli::Tier;
use crate::json::{fixed, obj};
use crate::{fleet, write_tracked};
use nws_stats::{autocovariance_fft, autocovariance_naive};

/// Deterministic AR(1) series with LCG noise: cheap to generate and
/// autocorrelated enough that the ACF kernels do representative work.
fn synth_series(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = nws_stats::Rng::new(seed);
    let mut x = 0.5f64;
    (0..n)
        .map(|_| {
            x = 0.9 * x + 0.1 * rng.next_f64();
            x
        })
        .collect()
}

/// Best-of-three wall-clock milliseconds for `f`.
fn best_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = std::time::Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// How many times faster the fast path ran.
fn speedup(naive_ms: f64, fast_ms: f64) -> f64 {
    naive_ms / fast_ms.max(1e-9)
}

/// Times the ACF pair, runs the quality sweep, and writes the artifact.
///
/// Each ACF cell pairs the FFT path against the retained naive
/// reference on identical inputs, so the artifact records the speedup
/// and the numerical agreement. The schema (key set and nesting) is the
/// same at every tier — smaller tiers only shrink the problem sizes —
/// which is what lets CI diff a fresh smoke artifact against the
/// committed full-tier baseline structurally.
pub fn run(seed: u64, tier: Tier) {
    println!("\nperf: tracked kernel benchmark (tier {})", tier.name());

    // --- ACF: O(n*lag) direct sums vs the Wiener-Khinchin FFT path.
    let acf_sizes: &[usize] = tier.pick(&[1024, 4096], &[4096, 16384], &[4096, 16384, 100_000]);
    let mut acf = Vec::new();
    for (i, &n) in acf_sizes.iter().enumerate() {
        let x = synth_series(n, seed.wrapping_add(i as u64));
        let lag = 360.min(n.saturating_sub(2));
        let naive_ms = best_ms(|| autocovariance_naive(&x, lag));
        let fft_ms = best_ms(|| autocovariance_fft(&x, lag));
        let a = autocovariance_naive(&x, lag).expect("non-degenerate series");
        let b = autocovariance_fft(&x, lag).expect("non-degenerate series");
        let max_abs_diff = a
            .iter()
            .zip(&b)
            .map(|(p, q)| (p - q).abs())
            .fold(0.0f64, f64::max);
        println!(
            "  acf    n={n:<7} lag={lag:<4} naive {naive_ms:>9.3} ms  fft {fft_ms:>8.3} ms  \
             speedup {:>6.2}x  maxdiff {max_abs_diff:.2e}",
            speedup(naive_ms, fft_ms)
        );
        acf.push(obj([
            ("n", n.into()),
            ("lag", lag.into()),
            ("naive_ms", fixed(naive_ms, 4)),
            ("fft_ms", fixed(fft_ms, 4)),
            ("speedup", fixed(speedup(naive_ms, fft_ms), 3)),
            ("max_abs_diff", max_abs_diff.into()),
        ]));
    }

    // --- Forecast quality: per-predictor MAE/MSE over the three
    // prediction scenarios. Deterministic, not timing — the artifact
    // tracks accuracy next to speed.
    let (quality, _csv) = fleet::quality_sweep(seed, tier);

    let doc = obj([
        ("schema_version", 3usize.into()),
        ("tier", tier.name().into()),
        ("threads", nws_runtime::threads().into()),
        ("acf", acf.into()),
        ("forecast_quality", quality.into()),
    ]);
    write_tracked(tier, "BENCH_perf.json", &doc.render());
}
