//! Exact fractional Gaussian noise (fGn) generation.
//!
//! fGn is *the* reference self-similar stationary process: a Gaussian series
//! with autocovariance
//!
//! `γ(k) = (σ²/2) (|k+1|^{2H} − 2|k|^{2H} + |k−1|^{2H})`,
//!
//! whose partial sums form fractional Brownian motion with Hurst parameter
//! `H`. The paper (and Dinda & O'Halloran, its reference \[10\]) characterizes
//! host load as self-similar with `H ≈ 0.7`; we use fGn for two purposes:
//!
//! 1. **Validation** — the Hurst estimators in [`crate::hurst`] are tested
//!    against fGn with known `H` before being trusted on simulated traces.
//! 2. **Textbook input** — the `forecast_tour` example and the tests run
//!    the forecasters on long-range-dependent input with no simulator
//!    behind it. The simulator does not use fGn: its load comes from
//!    processes.
//!
//! Two generators are provided:
//! - [`Hosking`]: the exact Durbin–Levinson recursion, O(n²) time, O(n)
//!   memory. Reference implementation.
//! - [`DaviesHarte`]: circulant embedding sampled through the FFT,
//!   O(n log n). Identical distribution, asymptotically cheaper; the
//!   workhorse for week-long traces.

use crate::fft::{fft_inplace, next_pow2, Complex};
use crate::rng::Rng;
use std::fmt;

/// Errors raised by fGn generator construction.
#[derive(Debug, Clone, PartialEq)]
pub enum FgnError {
    /// The Hurst parameter must lie strictly inside `(0, 1)`.
    BadHurst(f64),
    /// The requested length was zero.
    EmptyLength,
    /// The circulant embedding produced a (materially) negative eigenvalue.
    ///
    /// For fGn this cannot happen in exact arithmetic; it guards against
    /// floating-point catastrophe for extreme parameters.
    NotEmbeddable {
        /// The offending eigenvalue.
        eigenvalue: f64,
    },
}

impl fmt::Display for FgnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FgnError::BadHurst(h) => write!(f, "Hurst parameter {h} outside (0, 1)"),
            FgnError::EmptyLength => write!(f, "requested zero-length fGn sample"),
            FgnError::NotEmbeddable { eigenvalue } => {
                write!(f, "circulant embedding failed: eigenvalue {eigenvalue} < 0")
            }
        }
    }
}

impl std::error::Error for FgnError {}

fn check_hurst(h: f64) -> Result<(), FgnError> {
    if h.is_finite() && h > 0.0 && h < 1.0 {
        Ok(())
    } else {
        Err(FgnError::BadHurst(h))
    }
}

/// Theoretical fGn autocovariance `γ(k)` for unit variance.
///
/// `γ(0) = 1`; for `H > 1/2` the covariances are positive and decay like
/// `k^{2H−2}` (long-range dependence); for `H < 1/2` they are negative
/// beyond lag 0; for `H = 1/2` the process is white noise.
pub fn fgn_autocovariance(h: f64, k: usize) -> f64 {
    if k == 0 {
        return 1.0;
    }
    let k = k as f64;
    let two_h = 2.0 * h;
    0.5 * ((k + 1.0).powf(two_h) - 2.0 * k.powf(two_h) + (k - 1.0).powf(two_h))
}

/// Exact fGn sampling via the Hosking (Durbin–Levinson) recursion.
///
/// Generates each point conditioned on the full past using the innovations
/// form of the Gaussian process; O(n²) time. Use [`DaviesHarte`] for long
/// series.
#[derive(Debug, Clone)]
pub struct Hosking {
    h: f64,
}

impl Hosking {
    /// Creates a generator for Hurst parameter `h ∈ (0, 1)`.
    pub fn new(h: f64) -> Result<Self, FgnError> {
        check_hurst(h)?;
        Ok(Self { h })
    }

    /// The generator's Hurst parameter.
    pub fn hurst(&self) -> f64 {
        self.h
    }

    /// Draws `n` points of unit-variance fGn.
    pub fn sample(&self, n: usize, rng: &mut Rng) -> Result<Vec<f64>, FgnError> {
        if n == 0 {
            return Err(FgnError::EmptyLength);
        }
        let gamma: Vec<f64> = (0..n).map(|k| fgn_autocovariance(self.h, k)).collect();
        let mut x = Vec::with_capacity(n);
        // Durbin–Levinson state: phi holds the AR coefficients of the
        // best linear predictor of x_k from x_{k-1}..x_0; v is the
        // innovation variance.
        let mut phi: Vec<f64> = Vec::with_capacity(n);
        let mut phi_prev: Vec<f64> = Vec::with_capacity(n);
        let mut v = gamma[0];
        x.push(v.sqrt() * rng.next_standard_normal());
        for k in 1..n {
            // Reflection coefficient phi_{k,k}.
            let mut acc = gamma[k];
            for (j, &p) in phi_prev.iter().enumerate() {
                acc -= p * gamma[k - 1 - j];
            }
            let rho = acc / v;
            phi.clear();
            for (j, &p) in phi_prev.iter().enumerate() {
                phi.push(p - rho * phi_prev[k - 2 - j]);
            }
            phi.push(rho);
            v *= 1.0 - rho * rho;
            // v can only lose mass; clamp tiny negatives from rounding.
            if v < 0.0 {
                v = 0.0;
            }
            // Conditional mean of x_k given the past.
            let mu: f64 = phi.iter().enumerate().map(|(j, &p)| p * x[k - 1 - j]).sum();
            x.push(mu + v.sqrt() * rng.next_standard_normal());
            std::mem::swap(&mut phi, &mut phi_prev);
        }
        Ok(x)
    }
}

/// Exact fGn sampling via Davies–Harte circulant embedding.
///
/// Embeds the `n × n` Toeplitz covariance in a `2m × 2m` circulant matrix
/// whose eigenvalues are the FFT of its first row, then synthesizes a
/// Gaussian vector with exactly that covariance using one FFT. O(n log n);
/// the preferred generator for week-long (10⁵-point) traces.
///
/// # Examples
///
/// ```
/// use nws_stats::{DaviesHarte, Rng, hurst_rs};
///
/// let gen = DaviesHarte::new(0.8).unwrap();
/// let x = gen.sample(8192, &mut Rng::new(7)).unwrap();
/// // The R/S estimator recovers the Hurst parameter we asked for.
/// let est = hurst_rs(&x, 10).unwrap();
/// assert!((est.h - 0.8).abs() < 0.1, "H = {}", est.h);
/// ```
#[derive(Debug, Clone)]
pub struct DaviesHarte {
    h: f64,
}

impl DaviesHarte {
    /// Creates a generator for Hurst parameter `h ∈ (0, 1)`.
    pub fn new(h: f64) -> Result<Self, FgnError> {
        check_hurst(h)?;
        Ok(Self { h })
    }

    /// The generator's Hurst parameter.
    pub fn hurst(&self) -> f64 {
        self.h
    }

    /// Draws `n` points of unit-variance fGn.
    pub fn sample(&self, n: usize, rng: &mut Rng) -> Result<Vec<f64>, FgnError> {
        if n == 0 {
            return Err(FgnError::EmptyLength);
        }
        if n == 1 {
            return Ok(vec![rng.next_standard_normal()]);
        }
        // Circulant first row: gamma(0..=half), then mirrored tail.
        let half = next_pow2(n); // m/2, so the embedding is m = 2*half long
        let m = 2 * half;
        let mut row: Vec<Complex> = Vec::with_capacity(m);
        for k in 0..=half {
            row.push(Complex::new(fgn_autocovariance(self.h, k), 0.0));
        }
        for k in (1..half).rev() {
            row.push(Complex::new(fgn_autocovariance(self.h, k), 0.0));
        }
        debug_assert_eq!(row.len(), m);
        fft_inplace(&mut row);
        // Eigenvalues of the circulant; exact fGn embeddings are PSD.
        let mut lambda = Vec::with_capacity(m);
        for z in &row {
            let l = z.re;
            if l < -1e-8 {
                return Err(FgnError::NotEmbeddable { eigenvalue: l });
            }
            lambda.push(l.max(0.0));
        }
        // Synthesize the frequency-domain Gaussian vector W with
        // E[|W_k|^2] chosen so that FFT(W) has the embedded covariance.
        let mut w = vec![Complex::ZERO; m];
        let mf = m as f64;
        w[0] = Complex::new((lambda[0] / mf).sqrt() * rng.next_standard_normal(), 0.0);
        w[half] = Complex::new((lambda[half] / mf).sqrt() * rng.next_standard_normal(), 0.0);
        for k in 1..half {
            let scale = (lambda[k] / (2.0 * mf)).sqrt();
            let re = scale * rng.next_standard_normal();
            let im = scale * rng.next_standard_normal();
            w[k] = Complex::new(re, im);
            w[m - k] = Complex::new(re, -im);
        }
        fft_inplace(&mut w);
        Ok(w.into_iter().take(n).map(|z| z.re).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acf::autocorrelation;
    use crate::descriptive::{mean, population_variance};

    #[test]
    fn autocovariance_special_cases() {
        // H = 1/2 is white noise: gamma(k) = 0 for k > 0.
        for k in 1..10 {
            assert!(fgn_autocovariance(0.5, k).abs() < 1e-12);
        }
        assert_eq!(fgn_autocovariance(0.5, 0), 1.0);
        // H > 1/2: positive correlations.
        assert!(fgn_autocovariance(0.8, 1) > 0.0);
        assert!(fgn_autocovariance(0.8, 10) > 0.0);
        // H < 1/2: negative lag-1 correlation.
        assert!(fgn_autocovariance(0.3, 1) < 0.0);
    }

    #[test]
    fn autocovariance_decays_like_power_law() {
        // gamma(k) ~ H(2H-1) k^{2H-2} for large k.
        let h = 0.75;
        let k: f64 = 1000.0;
        let approx = h * (2.0 * h - 1.0) * k.powf(2.0 * h - 2.0);
        let exact = fgn_autocovariance(h, 1000);
        assert!((approx - exact).abs() / exact < 0.01);
    }

    #[test]
    fn bad_parameters_rejected() {
        assert!(Hosking::new(0.0).is_err());
        assert!(Hosking::new(1.0).is_err());
        assert!(Hosking::new(f64::NAN).is_err());
        assert!(DaviesHarte::new(-0.1).is_err());
        assert!(matches!(
            Hosking::new(0.7).unwrap().sample(0, &mut Rng::new(1)),
            Err(FgnError::EmptyLength)
        ));
    }

    #[test]
    fn hosking_white_noise_case() {
        let g = Hosking::new(0.5).unwrap();
        let x = g.sample(5000, &mut Rng::new(41)).unwrap();
        let rho = autocorrelation(&x, 5).unwrap();
        for &r in &rho[1..] {
            assert!(r.abs() < 0.05, "rho = {r}");
        }
        assert!((population_variance(&x).unwrap() - 1.0).abs() < 0.1);
    }

    #[test]
    fn hosking_acf_matches_theory() {
        let h = 0.8;
        let g = Hosking::new(h).unwrap();
        let x = g.sample(8000, &mut Rng::new(43)).unwrap();
        let rho = autocorrelation(&x, 10).unwrap();
        for (k, &sample) in rho.iter().enumerate().skip(1) {
            let theory = fgn_autocovariance(h, k);
            assert!(
                (sample - theory).abs() < 0.08,
                "lag {k}: sample {sample} vs theory {theory}"
            );
        }
    }

    #[test]
    fn davies_harte_acf_matches_theory() {
        let h = 0.75;
        let g = DaviesHarte::new(h).unwrap();
        let x = g.sample(16384, &mut Rng::new(47)).unwrap();
        assert!((mean(&x).unwrap()).abs() < 0.2);
        assert!((population_variance(&x).unwrap() - 1.0).abs() < 0.15);
        let rho = autocorrelation(&x, 10).unwrap();
        for (k, &sample) in rho.iter().enumerate().skip(1) {
            let theory = fgn_autocovariance(h, k);
            assert!(
                (sample - theory).abs() < 0.08,
                "lag {k}: sample {sample} vs theory {theory}"
            );
        }
    }

    #[test]
    fn davies_harte_and_hosking_agree_statistically() {
        // Same H, different algorithms: lag-1 autocorrelations should agree.
        let h = 0.7;
        let n = 8192;
        let xh = Hosking::new(h)
            .unwrap()
            .sample(n, &mut Rng::new(51))
            .unwrap();
        let xd = DaviesHarte::new(h)
            .unwrap()
            .sample(n, &mut Rng::new(52))
            .unwrap();
        let r1h = autocorrelation(&xh, 1).unwrap()[1];
        let r1d = autocorrelation(&xd, 1).unwrap()[1];
        assert!((r1h - r1d).abs() < 0.08, "hosking {r1h} vs dh {r1d}");
    }

    #[test]
    fn generators_are_deterministic() {
        let g = DaviesHarte::new(0.7).unwrap();
        let a = g.sample(256, &mut Rng::new(7)).unwrap();
        let b = g.sample(256, &mut Rng::new(7)).unwrap();
        assert_eq!(a, b);
        let g2 = Hosking::new(0.7).unwrap();
        let c = g2.sample(256, &mut Rng::new(7)).unwrap();
        let d = g2.sample(256, &mut Rng::new(7)).unwrap();
        assert_eq!(c, d);
    }

    #[test]
    fn single_point_sample() {
        let x = DaviesHarte::new(0.6)
            .unwrap()
            .sample(1, &mut Rng::new(3))
            .unwrap();
        assert_eq!(x.len(), 1);
    }
}
