//! R/S analysis, pox plots, and Hurst parameter estimation.
//!
//! Section 3.1 of the paper establishes that CPU availability is long-range
//! dependent by estimating the Hurst parameter `H` with **R/S analysis**
//! (Mandelbrot & Taqqu, ref \[21\]) presented as **pox plots** (Leland et
//! al., ref \[20\]): partition the series into segments of length `d`, compute
//! the rescaled adjusted range `R(d)/S(d)` for each segment, and plot
//! `log10(R/S)` against `log10(d)`. Since `E[R(d)/S(d)] ≈ c·d^H`, the slope
//! of a least-squares line through the per-`d` means estimates `H`. Table 4
//! reports estimates between 0.69 and 0.82; Figure 3 shows the plots with
//! the `H = 0.5` and `H = 1.0` reference slopes.
//!
//! Two further estimators cross-check R/S, as is standard practice:
//! aggregated variance (`Var(X^(m)) ~ m^{2H−2}`) and the low-frequency
//! periodogram (`I(λ) ~ λ^{1−2H}`).
//!
//! Every segment's mean and deviation is a fresh two-pass scan of that
//! segment ([`rs_statistic`], [`population_variance`]), on purpose: the
//! availability of a near-idle host sits at `1 − ε`, so a 10-sample
//! segment's variance (~10⁻¹²) is far below what `E[x²] − mean²` taken
//! from running sums over a week-long series (~6·10⁴) can resolve — the
//! difference cancels to noise or below zero, the segment is dropped as
//! degenerate, and `H` drifts upward. Centring each segment first keeps
//! R/S shift- and scale-invariant, which the tests assert.

use crate::descriptive::population_variance;
use crate::fft::periodogram;
use crate::regress::{linear_fit, LinearFit};

/// One pox-plot sample: a segment length and the R/S value of one segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoxPoint {
    /// `log10(d)` — the segment length.
    pub log10_d: f64,
    /// `log10(R(d)/S(d))` — the rescaled adjusted range of one segment.
    pub log10_rs: f64,
}

/// A Hurst parameter estimate with its supporting regression.
#[derive(Debug, Clone)]
pub struct HurstEstimate {
    /// The estimated Hurst parameter.
    pub h: f64,
    /// The least-squares fit whose slope produced `h` (in transformed
    /// coordinates — see each estimator for the mapping from slope to `h`).
    pub fit: LinearFit,
    /// The `(x, y)` pairs the regression was fitted to.
    pub points: Vec<(f64, f64)>,
}

/// Rescaled adjusted range statistic `R(n)/S(n)` of one segment.
///
/// With sample mean `M`, `W_k = Σ_{i≤k} X_i − k·M`, the adjusted range is
/// `R = max(0, W_1..W_n) − min(0, W_1..W_n)` and `S` is the population
/// standard deviation. Returns `None` for segments shorter than 2 points or
/// with zero variance.
pub fn rs_statistic(segment: &[f64]) -> Option<f64> {
    let n = segment.len();
    if n < 2 {
        return None;
    }
    let mean = segment.iter().sum::<f64>() / n as f64;
    let mut w = 0.0;
    let mut max_w: f64 = 0.0; // the paper's definition includes 0 in both extremes
    let mut min_w: f64 = 0.0;
    for &x in segment {
        w += x - mean;
        max_w = max_w.max(w);
        min_w = min_w.min(w);
    }
    let s = population_variance(segment)?.sqrt();
    if s <= 0.0 {
        return None;
    }
    Some((max_w - min_w) / s)
}

/// Logarithmically spaced segment lengths for a series of length `n`.
///
/// Roughly four lengths per decade from `min_d` up to `n / 2`, mirroring the
/// pox-plot construction in the paper's references.
fn segment_ladder(n: usize, min_d: usize) -> Vec<usize> {
    let mut ds = Vec::new();
    if n < 2 * min_d {
        return ds;
    }
    let max_d = n / 2;
    let mut d = min_d as f64;
    let step = 10f64.powf(0.25);
    while (d as usize) <= max_d {
        let di = d.round() as usize;
        if ds.last() != Some(&di) {
            ds.push(di);
        }
        d *= step;
    }
    ds
}

/// All pox-plot points for a series: every non-overlapping segment of every
/// ladder length contributes one `(log10 d, log10 R/S)` sample.
///
/// `min_d` is the smallest segment length considered (the classical advice
/// is ≥ 8–10; shorter segments bias R/S upward).
pub fn pox_plot(values: &[f64], min_d: usize) -> Vec<PoxPoint> {
    let mut points = Vec::new();
    for d in segment_ladder(values.len(), min_d.max(2)) {
        for segment in values.chunks_exact(d) {
            if let Some(rs) = rs_statistic(segment) {
                if rs > 0.0 {
                    points.push(PoxPoint {
                        log10_d: (d as f64).log10(),
                        log10_rs: rs.log10(),
                    });
                }
            }
        }
    }
    points
}

/// R/S (pox plot) Hurst estimate: the slope of the least-squares line
/// through the *mean* `log10(R/S)` at each `log10(d)`, as in Figure 3.
///
/// Returns `None` when the series is too short to produce at least two
/// distinct segment lengths.
///
/// # Examples
///
/// ```
/// use nws_stats::{hurst_rs, Rng};
///
/// // White noise has H = 1/2 (allowing the estimator's small-sample bias).
/// let mut rng = Rng::new(1);
/// let noise: Vec<f64> = (0..4096).map(|_| rng.next_f64()).collect();
/// let est = hurst_rs(&noise, 10).unwrap();
/// assert!(est.h < 0.68, "H = {}", est.h);
/// ```
pub fn hurst_rs(values: &[f64], min_d: usize) -> Option<HurstEstimate> {
    let pox = pox_plot(values, min_d);
    if pox.is_empty() {
        return None;
    }
    // Group by log10_d and average log10_rs within each group. The ladder
    // emits points in increasing-d order, so a linear sweep suffices.
    let mut xs: Vec<f64> = Vec::new();
    let mut ys: Vec<f64> = Vec::new();
    let mut current_x = f64::NAN;
    let mut acc = 0.0;
    let mut count = 0usize;
    for p in &pox {
        if p.log10_d != current_x {
            if count > 0 {
                xs.push(current_x);
                ys.push(acc / count as f64);
            }
            current_x = p.log10_d;
            acc = 0.0;
            count = 0;
        }
        acc += p.log10_rs;
        count += 1;
    }
    if count > 0 {
        xs.push(current_x);
        ys.push(acc / count as f64);
    }
    let fit = linear_fit(&xs, &ys)?;
    Some(HurstEstimate {
        h: fit.slope,
        fit,
        points: xs.into_iter().zip(ys).collect(),
    })
}

/// Aggregated-variance Hurst estimate.
///
/// For a self-similar series, `Var(X^(m)) ≈ σ² m^{2H−2}` (Section 3.2 of
/// the paper), so the slope β of `log10 Var(X^(m))` vs `log10 m` gives
/// `H = 1 + β/2`. Aggregation levels run a log ladder from 2 up to `n/8`
/// (each level must retain enough blocks for a stable variance).
pub fn aggregated_variance_hurst(values: &[f64]) -> Option<HurstEstimate> {
    let n = values.len();
    if n < 32 {
        return None;
    }
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for m in segment_ladder(n, 2) {
        if n / m < 8 {
            break; // too few blocks for a meaningful variance
        }
        let means: Vec<f64> = values
            .chunks_exact(m)
            .map(|b| b.iter().sum::<f64>() / m as f64)
            .collect();
        if let Some(var) = population_variance(&means) {
            if var > 0.0 {
                xs.push((m as f64).log10());
                ys.push(var.log10());
            }
        }
    }
    let fit = linear_fit(&xs, &ys)?;
    Some(HurstEstimate {
        h: 1.0 + fit.slope / 2.0,
        fit,
        points: xs.into_iter().zip(ys).collect(),
    })
}

/// Periodogram Hurst estimate.
///
/// Long-range dependence shows up as a power-law blowup of the spectral
/// density at the origin: `I(λ) ~ λ^{1−2H}` as `λ → 0`. Regressing
/// `log10 I(λ)` on `log10 λ` over the lowest 10 % of Fourier frequencies
/// gives slope `β = 1 − 2H`, i.e. `H = (1 − β)/2`.
pub fn periodogram_hurst(values: &[f64]) -> Option<HurstEstimate> {
    let pg = periodogram(values);
    if pg.len() < 20 {
        return None;
    }
    let keep = (pg.len() / 10).max(10);
    let mut xs = Vec::with_capacity(keep);
    let mut ys = Vec::with_capacity(keep);
    for &(lambda, power) in pg.iter().take(keep) {
        if power > 0.0 {
            xs.push(lambda.log10());
            ys.push(power.log10());
        }
    }
    let fit = linear_fit(&xs, &ys)?;
    Some(HurstEstimate {
        h: (1.0 - fit.slope) / 2.0,
        fit,
        points: xs.into_iter().zip(ys).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fgn::DaviesHarte;
    use crate::rng::Rng;

    fn fgn(h: f64, n: usize, seed: u64) -> Vec<f64> {
        DaviesHarte::new(h)
            .unwrap()
            .sample(n, &mut Rng::new(seed))
            .unwrap()
    }

    #[test]
    fn rs_statistic_basic_properties() {
        // R/S is positive and scale/shift invariant.
        let seg = [1.0, 2.0, 0.5, 3.0, 1.5, 2.5, 0.8, 1.9];
        let rs = rs_statistic(&seg).unwrap();
        assert!(rs > 0.0);
        let shifted: Vec<f64> = seg.iter().map(|x| x + 100.0).collect();
        assert!((rs_statistic(&shifted).unwrap() - rs).abs() < 1e-9);
        let scaled: Vec<f64> = seg.iter().map(|x| x * 7.0).collect();
        assert!((rs_statistic(&scaled).unwrap() - rs).abs() < 1e-9);
    }

    #[test]
    fn rs_statistic_degenerate() {
        assert_eq!(rs_statistic(&[]), None);
        assert_eq!(rs_statistic(&[1.0]), None);
        assert_eq!(rs_statistic(&[2.0, 2.0, 2.0]), None);
    }

    #[test]
    fn ladder_is_increasing_and_bounded() {
        let ds = segment_ladder(10_000, 10);
        assert!(ds.windows(2).all(|w| w[0] < w[1]));
        assert!(*ds.first().unwrap() == 10);
        assert!(*ds.last().unwrap() <= 5_000);
        assert!(ds.len() >= 8);
        assert!(segment_ladder(10, 10).is_empty());
    }

    #[test]
    fn white_noise_hurst_near_half() {
        let x = fgn(0.5, 16384, 61);
        let est = hurst_rs(&x, 10).unwrap();
        // R/S has a well-known small-sample positive bias for H=0.5.
        assert!((est.h - 0.55).abs() < 0.08, "H = {}", est.h);
        let av = aggregated_variance_hurst(&x).unwrap();
        assert!((av.h - 0.5).abs() < 0.08, "H_av = {}", av.h);
        let pgm = periodogram_hurst(&x).unwrap();
        assert!((pgm.h - 0.5).abs() < 0.12, "H_pg = {}", pgm.h);
    }

    #[test]
    fn recovers_high_hurst_from_fgn() {
        let h = 0.8;
        let x = fgn(h, 16384, 63);
        let est = hurst_rs(&x, 10).unwrap();
        assert!((est.h - h).abs() < 0.1, "H_rs = {}", est.h);
        let av = aggregated_variance_hurst(&x).unwrap();
        assert!((av.h - h).abs() < 0.1, "H_av = {}", av.h);
        let pgm = periodogram_hurst(&x).unwrap();
        assert!((pgm.h - h).abs() < 0.12, "H_pg = {}", pgm.h);
    }

    #[test]
    fn hurst_estimates_are_ordered_by_true_h() {
        // Monotonicity: higher true H must give a higher estimate.
        let lo = hurst_rs(&fgn(0.55, 8192, 65), 10).unwrap().h;
        let hi = hurst_rs(&fgn(0.9, 8192, 65), 10).unwrap().h;
        assert!(hi > lo + 0.15, "lo={lo}, hi={hi}");
    }

    #[test]
    fn pox_plot_points_cover_ladder() {
        let x = fgn(0.7, 4096, 67);
        let pox = pox_plot(&x, 10);
        // Small d contributes many points; large d few.
        let min_x = pox.iter().map(|p| p.log10_d).fold(f64::INFINITY, f64::min);
        let max_x = pox
            .iter()
            .map(|p| p.log10_d)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((min_x - 1.0).abs() < 1e-9); // log10(10)
        assert!(max_x >= 3.0); // up to d = 2048
        assert!(pox.len() > 100);
    }

    #[test]
    fn fit_quality_reported() {
        let x = fgn(0.7, 8192, 69);
        let est = hurst_rs(&x, 10).unwrap();
        assert!(est.fit.r_squared > 0.95, "r² = {}", est.fit.r_squared);
        assert!(est.points.len() >= 8);
    }

    #[test]
    fn too_short_series_return_none() {
        assert!(hurst_rs(&[1.0, 2.0, 3.0], 10).is_none());
        assert!(aggregated_variance_hurst(&[1.0; 8]).is_none());
        assert!(periodogram_hurst(&[1.0, 2.0]).is_none());
    }
}
