//! Host-load statistical properties, after Dinda & O'Halloran.
//!
//! The paper's Section 3.1 leans on "The statistical properties of host
//! load" (its reference \[10\]) and reports that its own observations
//! "coincide with those made recently by Dinda and O'Halloran with respect
//! to observed autocorrelation structure". This experiment reproduces the
//! flavour of that study's summary tables over the simulated hosts: for
//! each host's raw 1-minute load-average trace (not the availability
//! transform), the distributional summary, key autocorrelations, and the
//! three Hurst estimators.

use crate::experiments::dataset::ExperimentConfig;
use nws_grid::GridMonitorConfig;
use nws_runtime::parallel_map;
use nws_sim::HostProfile;
use nws_stats::{aggregated_variance_hurst, clamped_autocorrelation, hurst_rs, periodogram_hurst};
use nws_timeseries::{summarize, Series};

/// The Dinda–O'Halloran-style summary of one host's load trace.
#[derive(Debug, Clone)]
pub struct LoadStatsRow {
    /// Host name.
    pub host: String,
    /// Trace length in samples.
    pub n: usize,
    /// Mean 1-minute load average.
    pub mean: f64,
    /// Standard deviation.
    pub std_dev: f64,
    /// Maximum observed load.
    pub max: f64,
    /// Median load.
    pub median: f64,
    /// Autocorrelation at lags of 10 s, 1 min, 5 min, 1 h.
    pub acf: [f64; 4],
    /// Hurst estimates: `(R/S, aggregated variance, periodogram)`.
    pub hurst: (f64, f64, f64),
}

/// Collects load statistics over every UCSD host.
///
/// Uses the raw load series recovered from the availability measurements
/// (`load = 1/avail − 1`), which is exact because Eq. 1 is invertible.
pub fn load_statistics(cfg: &ExperimentConfig) -> Vec<LoadStatsRow> {
    // Per-host monitoring plus the three Hurst estimators is embarrassingly
    // parallel; host order is preserved by parallel_map.
    parallel_map(HostProfile::all().to_vec(), |p| {
        let out = cfg.run(
            p,
            cfg.seed ^ 0x10AD,
            cfg.duration,
            GridMonitorConfig::default(),
        );
        let load_series: Series = out.series.load.map_values(load_from_availability);
        let values = load_series.values();
        let summary = summarize(values).expect("non-empty trace");
        let rho = clamped_autocorrelation(values, 360).unwrap_or_default();
        let at = |lag: usize| rho.get(lag).copied().unwrap_or(f64::NAN);
        LoadStatsRow {
            host: out.host,
            n: values.len(),
            mean: summary.mean,
            std_dev: summary.std_dev,
            max: summary.max,
            median: summary.median,
            acf: [at(1), at(6), at(30), at(360)],
            hurst: (
                hurst_rs(values, 10).map(|e| e.h).unwrap_or(f64::NAN),
                aggregated_variance_hurst(values)
                    .map(|e| e.h)
                    .unwrap_or(f64::NAN),
                periodogram_hurst(values).map(|e| e.h).unwrap_or(f64::NAN),
            ),
        }
    })
}

/// Sanity helper: Eq. 1 really is invertible on its range.
pub fn load_from_availability(avail: f64) -> f64 {
    (1.0 / avail.max(1e-6) - 1.0).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nws_sensors::availability_from_load;

    #[test]
    fn eq1_round_trips() {
        for load in [0.0, 0.3, 1.0, 4.0, 17.5] {
            let avail = availability_from_load(load);
            let back = load_from_availability(avail);
            assert!((back - load).abs() < 1e-9, "load {load} -> {back}");
        }
    }

    #[test]
    fn statistics_cover_all_hosts_with_sane_values() {
        let rows = load_statistics(&ExperimentConfig::quick());
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(r.n >= 300, "{}: n = {}", r.host, r.n);
            assert!(
                r.mean >= 0.0 && r.mean < 20.0,
                "{}: mean {}",
                r.host,
                r.mean
            );
            assert!(r.max >= r.mean);
            assert!(r.std_dev >= 0.0);
            // Strong short-lag correlation on every host (the 1-minute
            // smoothing guarantees it).
            assert!(r.acf[0] > 0.8, "{}: rho(1) = {}", r.host, r.acf[0]);
        }
    }

    #[test]
    fn busy_hosts_carry_more_load_than_light_ones() {
        let rows = load_statistics(&ExperimentConfig::quick());
        let get = |name: &str| {
            rows.iter()
                .find(|r| r.host == name)
                .expect("host present")
                .mean
        };
        assert!(get("thing2") > get("gremlin"));
        // kongo's resident job pins its load near (or above) 1.
        assert!(get("kongo") > 0.8, "kongo mean = {}", get("kongo"));
    }
}
