//! Statistics substrate for the NWS CPU availability study.
//!
//! Everything the paper's analysis sections need, implemented from scratch
//! so experiments are deterministic and dependency-free:
//!
//! - [`rng`] — xoshiro256++ pseudo-random generator with SplitMix64 seeding.
//!   All simulations in the workspace are seeded, so every table and figure
//!   regenerates bit-identically.
//! - [`dist`] — the distributions the workload models draw from
//!   (exponential, Pareto, normal, log-normal, uniform). Pareto on/off
//!   sources are what give the simulated hosts their self-similar load
//!   (Willinger et al., cited as \[28\] in the paper).
//! - [`descriptive`] — means, variances, error metrics.
//! - [`regress`] — ordinary least squares line fits (used by the pox-plot
//!   Hurst estimate, Figure 3).
//! - [`acf`] — sample autocorrelation functions (Figure 2).
//! - [`fft`] — an iterative radix-2 FFT plus a periodogram, used by the
//!   Davies–Harte fGn generator and the periodogram Hurst estimator.
//! - [`fgn`] — exact fractional Gaussian noise generators (Hosking and
//!   Davies–Harte), the reference self-similar processes against which the
//!   Hurst estimators are validated.
//! - [`hurst`] — R/S analysis, pox plots, and three Hurst estimators
//!   (rescaled range, aggregated variance, periodogram) reproducing the
//!   paper's Section 3.1 methodology.

#![forbid(unsafe_code)]

pub mod acf;
pub mod descriptive;
pub mod dist;
pub mod fft;
pub mod fgn;
pub mod hurst;
pub mod regress;
pub mod rng;

pub use acf::{
    autocorrelation, autocovariance, autocovariance_fft, autocovariance_naive,
    clamped_autocorrelation,
};
pub use descriptive::{mean, mean_absolute_pair_error, population_variance};
pub use dist::{Distribution, Exponential, LogNormal, Normal, Pareto, Uniform};
pub use fft::{fft_inplace, fft_real, ifft_inplace, next_pow2, periodogram, Complex};
pub use fgn::{fgn_autocovariance, DaviesHarte, FgnError, Hosking};
pub use hurst::{
    aggregated_variance_hurst, hurst_rs, periodogram_hurst, pox_plot, rs_statistic, HurstEstimate,
    PoxPoint,
};
pub use regress::{linear_fit, LinearFit};
pub use rng::Rng;

/// The workspace's FNV-1a hash and host-seed derivation, re-exported for
/// crates that reach `nws-runtime` only through this one.
pub use nws_runtime::{fnv1a, host_seed, Fnv1a};
