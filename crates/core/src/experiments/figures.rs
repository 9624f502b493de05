//! Figures 1–4 of the paper (as data series; rendering lives in
//! [`crate::plot`] and the repro harness writes CSV for external plotting).

use crate::experiments::dataset::HostRun;
use nws_stats::{clamped_autocorrelation, hurst_rs, pox_plot, HurstEstimate, PoxPoint};
use nws_timeseries::{aggregate_series, Series};

/// A figure built from one series per featured host (thing1 and thing2).
#[derive(Debug, Clone)]
pub struct FigSeries {
    /// Figure caption.
    pub title: String,
    /// `(host name, series)` pairs.
    pub series: Vec<(String, Series)>,
}

/// Figure 3's content for one host: the pox-plot point cloud and the
/// least-squares Hurst fit.
#[derive(Debug, Clone)]
pub struct PoxFigure {
    /// Host name.
    pub host: String,
    /// All `(log10 d, log10 R/S)` samples.
    pub points: Vec<PoxPoint>,
    /// The per-`d` mean regression whose slope is the Hurst estimate.
    pub estimate: HurstEstimate,
}

/// The two hosts the paper's figures feature.
const FEATURED: [&str; 2] = ["thing1", "thing2"];

fn featured(runs: &[HostRun]) -> Vec<&HostRun> {
    FEATURED
        .iter()
        .filter_map(|name| runs.iter().find(|o| o.host == *name))
        .collect()
}

/// Figure 1: 24-hour CPU availability traces (load-average method) for
/// thing1 and thing2.
pub fn fig1_from(runs: &[HostRun]) -> FigSeries {
    FigSeries {
        title: "Figure 1: CPU Availability Measurements (Unix Load Average)".into(),
        series: featured(runs)
            .into_iter()
            .map(|o| (o.host.clone(), o.series.load.clone()))
            .collect(),
    }
}

/// Figure 2: the first 360 autocorrelations of the Figure 1 series.
///
/// Each output series is indexed by lag (1 lag = one 10 s measurement), so
/// lag 360 is one hour of history.
pub fn fig2_from(runs: &[HostRun]) -> FigSeries {
    let series = featured(runs)
        .into_iter()
        .map(|o| {
            // Short smoke-tier series degrade to fewer lags rather than
            // silently skipping the plot.
            let rho = clamped_autocorrelation(o.series.load.values(), 360).unwrap_or_default();
            let s = Series::from_values(format!("{}-acf", o.host), 0.0, 1.0, rho)
                .expect("lags are increasing");
            (o.host.clone(), s)
        })
        .collect();
    FigSeries {
        title: "Figure 2: CPU Availability Autocorrelations (Unix Load Average)".into(),
        series,
    }
}

/// Figure 3: R/S pox plots with the least-squares Hurst fit, from the
/// week-long load-average traces of thing1 and thing2.
pub fn fig3_from(weekly_load: &[Series], host_names: &[&str]) -> Vec<PoxFigure> {
    weekly_load
        .iter()
        .zip(host_names)
        .filter(|(_, name)| FEATURED.contains(*name))
        .filter_map(|(series, name)| {
            let estimate = hurst_rs(series.values(), 10)?;
            Some(PoxFigure {
                host: (*name).to_string(),
                points: pox_plot(series.values(), 10),
                estimate,
            })
        })
        .collect()
}

/// Figure 4: 5-minute aggregated availability (load-average method) from
/// the medium-term runs — the periodic signature of the hourly 5-minute
/// test process is visible in these series.
pub fn fig4_from(runs: &[HostRun]) -> FigSeries {
    FigSeries {
        title: "Figure 4: 5 Minute Aggregated CPU Availability (Unix Load Average)".into(),
        series: featured(runs)
            .into_iter()
            .map(|o| (o.host.clone(), aggregate_series(&o.series.load, 30)))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::dataset::{
        medium_dataset, short_dataset, weekly_load_series, ExperimentConfig,
    };

    #[test]
    fn fig1_features_thing1_and_thing2() {
        let cfg = ExperimentConfig::quick();
        let f = fig1_from(&short_dataset(&cfg));
        let hosts: Vec<&str> = f.series.iter().map(|(h, _)| h.as_str()).collect();
        assert_eq!(hosts, vec!["thing1", "thing2"]);
        for (_, s) in &f.series {
            assert_eq!(s.len(), 360);
        }
    }

    #[test]
    fn fig2_acf_starts_at_one_and_is_bounded() {
        // At quick scale (1 simulated hour) only the short-lag structure is
        // statistically stable; the slow-decay claim is asserted at full
        // scale in `tests/full_scale.rs`.
        let cfg = ExperimentConfig::quick();
        let f = fig2_from(&short_dataset(&cfg));
        for (host, s) in &f.series {
            let rho = s.values();
            assert!((rho[0] - 1.0).abs() < 1e-9, "{host}: rho(0) != 1");
            assert!(rho[1] > 0.5, "{host}: rho(1) = {}", rho[1]);
            assert!(rho.iter().all(|r| r.abs() <= 1.0 + 1e-9));
        }
    }

    #[test]
    fn fig3_hurst_between_half_and_one() {
        let cfg = ExperimentConfig::quick();
        let weekly = weekly_load_series(&cfg);
        let figs = fig3_from(&weekly, &nws_sim::UCSD_HOST_NAMES);
        assert_eq!(figs.len(), 2);
        for f in &figs {
            assert!(
                f.estimate.h > 0.5 && f.estimate.h < 1.05,
                "{}: H = {}",
                f.host,
                f.estimate.h
            );
            assert!(f.points.len() > 50);
        }
    }

    #[test]
    fn fig4_has_five_minute_resolution() {
        let cfg = ExperimentConfig::quick();
        let f = fig4_from(&medium_dataset(&cfg));
        for (_, s) in &f.series {
            assert_eq!(s.len(), 12); // 3600 s / 300 s
            assert!((s.mean_dt().unwrap() - 300.0).abs() < 1.0);
        }
    }
}
