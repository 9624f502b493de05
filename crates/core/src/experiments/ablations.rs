//! Ablations of the design choices `DESIGN.md` calls out.

use crate::experiments::dataset::ExperimentConfig;
use nws_forecast::{evaluate_one_step, PredictorBank};
use nws_grid::GridMonitorConfig;
use nws_runtime::parallel_map;
use nws_sensors::HybridConfig;
use nws_sim::HostProfile;
use nws_stats::mean_absolute_pair_error;

/// Result of scoring one forecasting method alone against the dynamic
/// selection.
#[derive(Debug, Clone, PartialEq)]
pub struct ForecasterAblation {
    /// Host whose load-average series was replayed.
    pub host: String,
    /// `(method name, cumulative MAE)` for every fixed panel member.
    pub fixed: Vec<(String, f64)>,
    /// MAE of the dynamic selection over the same series.
    pub dynamic: f64,
}

/// Replays one host's load-average series through the panel and reports
/// each fixed member's cumulative MAE next to the dynamic selection's —
/// the NWS claim is that dynamic selection is "equivalent to, or slightly
/// better than, the best forecaster in the set".
pub fn forecaster_ablation(cfg: &ExperimentConfig, host: HostProfile) -> ForecasterAblation {
    let config = GridMonitorConfig::default();
    let out = cfg.run(host, cfg.seed ^ 0xAB1A, cfg.duration, config);
    let values = out.series.load.values();
    let mut nws = PredictorBank::nws_default();
    let report = evaluate_one_step(&mut nws, values).expect("series long enough");
    ForecasterAblation {
        host: out.host,
        fixed: nws.error_summary(),
        dynamic: report.mae,
    }
}

/// Hybrid-sensor measurement error on one host with the probe bias either
/// applied (the paper's design) or disabled.
#[derive(Debug, Clone, PartialEq)]
pub struct BiasAblation {
    /// Host name.
    pub host: String,
    /// Mean absolute measurement error with the bias applied.
    pub with_bias: f64,
    /// Mean absolute measurement error with the bias disabled.
    pub without_bias: f64,
}

fn hybrid_measurement_error(
    cfg: &ExperimentConfig,
    host: HostProfile,
    hybrid: HybridConfig,
) -> f64 {
    let config = GridMonitorConfig {
        hybrid,
        ground_truth: Some(cfg.short_tests()),
        ..GridMonitorConfig::default()
    };
    let out = cfg.run(host, cfg.seed ^ 0xB1A5, cfg.duration, config);
    let (hyb, obs): (Vec<f64>, Vec<f64>) = (out.tests.iter())
        .filter_map(|t| t.prior[2].map(|hybrid| (hybrid, t.value)))
        .unzip();
    mean_absolute_pair_error(&hyb, &obs).unwrap_or(0.0)
}

/// The probe-bias ablation: bias rescues conundrum (nice load) and sinks
/// kongo (long-running full-priority load).
pub fn bias_ablation(cfg: &ExperimentConfig, host: HostProfile) -> BiasAblation {
    let with_bias = hybrid_measurement_error(
        cfg,
        host,
        HybridConfig {
            apply_bias: true,
            ..HybridConfig::default()
        },
    );
    let without_bias = hybrid_measurement_error(
        cfg,
        host,
        HybridConfig {
            apply_bias: false,
            ..HybridConfig::default()
        },
    );
    BiasAblation {
        host: host.name().to_string(),
        with_bias,
        without_bias,
    }
}

/// One point of the probe-duration sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeSweepPoint {
    /// Probe duration in seconds.
    pub probe_duration: f64,
    /// Hybrid mean absolute measurement error at this duration.
    pub hybrid_error: f64,
    /// Fractional CPU overhead of probing (`duration / probe period`).
    pub overhead: f64,
}

/// Sweeps the hybrid probe duration on a host.
///
/// The paper: 1.5 s is "the shortest probe duration that is useful", with
/// 2.5 % overhead; on kongo a longer probe would contend with the resident
/// job long enough to sense it, trading error for intrusiveness.
pub fn probe_duration_sweep(
    cfg: &ExperimentConfig,
    host: HostProfile,
    durations: &[f64],
) -> Vec<ProbeSweepPoint> {
    // Every duration replays a full monitoring day on its own host copy;
    // the runs are seed-isolated, so they fan out across worker threads.
    parallel_map(durations.to_vec(), |d| {
        let err = hybrid_measurement_error(
            cfg,
            host,
            HybridConfig {
                probe_duration: d,
                ..HybridConfig::default()
            },
        );
        ProbeSweepPoint {
            probe_duration: d,
            hybrid_error: err,
            overhead: d / nws_sensors::PROBE_PERIOD,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamic_selection_is_competitive() {
        let cfg = ExperimentConfig::quick();
        let ab = forecaster_ablation(&cfg, HostProfile::Thing1);
        assert!(!ab.fixed.is_empty());
        let best = ab
            .fixed
            .iter()
            .map(|(_, m)| *m)
            .fold(f64::INFINITY, f64::min);
        let worst = ab.fixed.iter().map(|(_, m)| *m).fold(0.0, f64::max);
        assert!(
            ab.dynamic <= best * 1.3 + 1e-9,
            "dynamic {} vs best fixed {best}",
            ab.dynamic
        );
        assert!(ab.dynamic < worst, "dynamic should beat the worst member");
    }

    #[test]
    fn bias_rescues_conundrum() {
        let cfg = ExperimentConfig::quick();
        let ab = bias_ablation(&cfg, HostProfile::Conundrum);
        assert!(
            ab.with_bias < ab.without_bias - 0.05,
            "bias should help on conundrum: with {} vs without {}",
            ab.with_bias,
            ab.without_bias
        );
    }

    #[test]
    fn bias_sinks_kongo() {
        let cfg = ExperimentConfig::quick();
        let ab = bias_ablation(&cfg, HostProfile::Kongo);
        assert!(
            ab.with_bias > ab.without_bias + 0.05,
            "bias should hurt on kongo: with {} vs without {}",
            ab.with_bias,
            ab.without_bias
        );
    }

    #[test]
    fn longer_probes_reduce_kongo_error() {
        let cfg = ExperimentConfig::quick();
        let sweep = probe_duration_sweep(&cfg, HostProfile::Kongo, &[1.5, 10.0]);
        assert_eq!(sweep.len(), 2);
        assert!(
            sweep[1].hybrid_error < sweep[0].hybrid_error - 0.03,
            "10s probe {} should beat 1.5s probe {}",
            sweep[1].hybrid_error,
            sweep[0].hybrid_error
        );
        assert!(sweep[1].overhead > sweep[0].overhead);
    }
}
