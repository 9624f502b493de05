//! Tables 1–6 of the paper.

use crate::experiments::dataset::HostRun;
use nws_forecast::{evaluate_one_step, PredictorBank};
use nws_grid::TestObservation;
use nws_stats::{hurst_rs, mean_absolute_pair_error, population_variance};
use nws_timeseries::{aggregate_mean, aggregate_series, Series};

/// One host's value per measurement method, in the paper's column order.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodRow {
    /// Host name.
    pub host: String,
    /// Load-average column.
    pub load: f64,
    /// vmstat column.
    pub vmstat: f64,
    /// NWS hybrid column.
    pub hybrid: f64,
}

impl MethodRow {
    /// Values in column order.
    pub fn values(&self) -> [f64; 3] {
        [self.load, self.vmstat, self.hybrid]
    }
}

/// A host × method table (the shape of Tables 1, 2, 3, 5, 6).
#[derive(Debug, Clone, PartialEq)]
pub struct MethodTable {
    /// Table title.
    pub title: String,
    /// One row per host, in the paper's order.
    pub rows: Vec<MethodRow>,
}

impl MethodTable {
    /// Looks up a row by host name.
    pub fn row(&self, host: &str) -> Option<&MethodRow> {
        self.rows.iter().find(|r| r.host == host)
    }
}

/// A host × method table: `cells` yields one host's values in load /
/// vmstat / hybrid order (the order of `MethodSeries::columns`).
fn method_table(
    title: &str,
    runs: &[HostRun],
    cells: impl Fn(&HostRun) -> [f64; 3],
) -> MethodTable {
    let rows = runs
        .iter()
        .map(|run| {
            let [load, vmstat, hybrid] = cells(run);
            MethodRow {
                host: run.host.clone(),
                load,
                vmstat,
                hybrid,
            }
        })
        .collect();
    MethodTable {
        title: title.into(),
        rows,
    }
}

/// Per method, the mean absolute difference between what `said` reports
/// at each launch and what the test process then observed — over the
/// launches where it reported anything.
fn test_error(
    tests: &[TestObservation],
    said: fn(&TestObservation) -> [Option<f64>; 3],
) -> [f64; 3] {
    [0, 1, 2].map(|m| {
        let (said, observed): (Vec<f64>, Vec<f64>) = tests
            .iter()
            .filter_map(|t| said(t)[m].map(|v| (v, t.value)))
            .unzip();
        mean_absolute_pair_error(&said, &observed).unwrap_or(0.0)
    })
}

// ---------------------------------------------------------------------------
// Table 1 — measurement error
// ---------------------------------------------------------------------------

/// Table 1: mean absolute measurement error per host and method —
/// `mean |measurement_t − test observation_t|` (Eq. 3), pairing each test
/// run with "the measurement taken most immediately before" it.
pub fn table1_from(runs: &[HostRun]) -> MethodTable {
    method_table("Table 1: Mean Absolute Measurement Errors", runs, |run| {
        test_error(&run.tests, |t| t.prior)
    })
}

// ---------------------------------------------------------------------------
// Table 2 — true forecasting error
// ---------------------------------------------------------------------------

/// Mean absolute error of NWS forecasts taken at each test instant against
/// the test observation (the paper's Eq. 4), replayed offline — Table 6's
/// 5-minute aggregates are a series the archive does not forecast.
///
/// The forecaster consumes the measurement series in time order; at each
/// test start, the forecast standing at that moment (built from every
/// measurement at or before the test start) is scored against the test
/// process's observation.
pub fn true_forecast_error(series: &Series, tests: &[(f64, f64)]) -> Option<f64> {
    let mut nws = PredictorBank::nws_default();
    let mut errors = Vec::with_capacity(tests.len());
    let mut test_iter = tests.iter().peekable();
    for point in series.iter() {
        // Score any test that starts before this measurement arrives.
        while let Some(&&(t_start, t_val)) = test_iter.peek() {
            if t_start < point.time {
                if let Some(f) = nws.forecast() {
                    errors.push((f.value - t_val).abs());
                }
                test_iter.next();
            } else {
                break;
            }
        }
        nws.update(point.value);
    }
    // Tests after the last measurement.
    for &(_, t_val) in test_iter {
        if let Some(f) = nws.forecast() {
            errors.push((f.value - t_val).abs());
        }
    }
    if errors.is_empty() {
        None
    } else {
        Some(errors.iter().sum::<f64>() / errors.len() as f64)
    }
}

/// Table 2: mean true forecasting errors per host and method — the
/// standing forecast the archive would have answered a client with at
/// each launch, against what the test process then observed (Eq. 4).
pub fn table2_from(runs: &[HostRun]) -> MethodTable {
    method_table("Table 2: Mean True Forecasting Errors", runs, |run| {
        test_error(&run.tests, |t| t.forecast)
    })
}

// ---------------------------------------------------------------------------
// Table 3 — one-step-ahead prediction error
// ---------------------------------------------------------------------------

fn one_step_mae(values: &[f64]) -> f64 {
    let mut nws = PredictorBank::nws_default();
    evaluate_one_step(&mut nws, values)
        .map(|r| r.mae)
        .unwrap_or(0.0)
}

/// Table 3: mean absolute one-step-ahead prediction error (Eq. 5) — how
/// well the NWS predicts each series' *next measurement*.
pub fn table3_from(runs: &[HostRun]) -> MethodTable {
    let title = "Table 3: Mean Absolute One-step-ahead Prediction Errors";
    method_table(title, runs, |run| {
        (run.series.columns()).map(|(_, s)| one_step_mae(s.values()))
    })
}

// ---------------------------------------------------------------------------
// Table 4 — Hurst estimates and aggregation variances
// ---------------------------------------------------------------------------

/// One row of Table 4: the R/S Hurst estimate and the variance of each
/// method's original series vs its 5-minute (`m = 30`) block means.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4Row {
    /// Host name.
    pub host: String,
    /// R/S (pox plot) Hurst estimate from the week-long load trace.
    pub hurst: f64,
    /// `(original variance, 300 s aggregated variance)` per method, in
    /// load/vmstat/hybrid order.
    pub variances: [(f64, f64); 3],
}

/// Table 4 from already-collected datasets.
///
/// `weekly_load` supplies the Hurst column; `runs` (the 24-hour runs)
/// supply the variance columns, with aggregation level `m = 30` (5 minutes
/// of 10-second measurements).
pub fn table4_from(runs: &[HostRun], weekly_load: &[Series]) -> Vec<Table4Row> {
    assert_eq!(runs.len(), weekly_load.len(), "datasets must align");
    runs.iter()
        .zip(weekly_load)
        .map(|(run, week)| {
            let hurst = hurst_rs(week.values(), 10).map(|e| e.h).unwrap_or(f64::NAN);
            let var_pair = |s: &Series| {
                let orig = population_variance(s.values()).unwrap_or(0.0);
                let agg = population_variance(&aggregate_mean(s.values(), 30)).unwrap_or(0.0);
                (orig, agg)
            };
            Table4Row {
                host: run.host.clone(),
                hurst,
                variances: run.series.columns().map(|(_, s)| var_pair(s)),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Table 5 — prediction error on 5-minute aggregated series
// ---------------------------------------------------------------------------

/// Table 5: mean absolute one-step-ahead prediction error on the `m = 30`
/// aggregated (5-minute mean) series.
pub fn table5_from(runs: &[HostRun]) -> MethodTable {
    let title = "Table 5: One-step-ahead Prediction Errors, 5 Minute Aggregates";
    method_table(title, runs, |run| {
        (run.series.columns()).map(|(_, s)| one_step_mae(aggregate_series(s, 30).values()))
    })
}

// ---------------------------------------------------------------------------
// Table 6 — true forecasting error for 5-minute averages
// ---------------------------------------------------------------------------

/// Table 6: mean true forecasting error for 5-minute average availability.
///
/// The measurement series is aggregated into 5-minute block means (`m = 30`)
/// and forecast one step ahead; each forecast standing when a 5-minute test
/// process begins is scored against what that test process observed.
pub fn table6_from(runs: &[HostRun]) -> MethodTable {
    let title = "Table 6: Mean True Forecasting Errors, 5 Minute Averages";
    method_table(title, runs, |run| {
        // A test starts no earlier than the slot reading it follows; `+ ε`
        // counts that reading as standing.
        let tests: Vec<_> = run
            .tests
            .iter()
            .map(|t| (t.start + 1e-6, t.value))
            .collect();
        (run.series.columns())
            .map(|(_, s)| true_forecast_error(&aggregate_series(s, 30), &tests).unwrap_or(0.0))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::dataset::{
        medium_dataset, short_dataset, weekly_load_series, ExperimentConfig,
    };

    fn quick_runs() -> Vec<HostRun> {
        short_dataset(&ExperimentConfig::quick())
    }

    #[test]
    fn table1_rows_cover_hosts_and_are_fractions() {
        let t = table1_from(&quick_runs());
        assert_eq!(t.rows.len(), 6);
        for r in &t.rows {
            for v in r.values() {
                assert!((0.0..=1.0).contains(&v), "{}: {v}", r.host);
            }
        }
    }

    #[test]
    fn table1_pathologies_have_the_papers_shape() {
        // Even at quick scale: conundrum's passive methods err far more
        // than its hybrid; kongo's hybrid errs far more than its passive
        // methods.
        let t = table1_from(&quick_runs());
        let con = t.row("conundrum").unwrap();
        assert!(
            con.load > con.hybrid + 0.1,
            "conundrum: load {} vs hybrid {}",
            con.load,
            con.hybrid
        );
        let kongo = t.row("kongo").unwrap();
        assert!(
            kongo.hybrid > kongo.load + 0.1,
            "kongo: hybrid {} vs load {}",
            kongo.hybrid,
            kongo.load
        );
    }

    #[test]
    fn table3_prediction_errors_are_small() {
        // The paper's headline: one-step prediction error < 5% everywhere.
        let t = table3_from(&quick_runs());
        for r in &t.rows {
            for v in r.values() {
                assert!(v < 0.10, "{}: one-step error {v}", r.host);
            }
        }
    }

    #[test]
    fn table4_variance_mostly_drops_under_aggregation() {
        let cfg = ExperimentConfig::quick();
        let rows = table4_from(&short_dataset(&cfg), &weekly_load_series(&cfg));
        assert_eq!(rows.len(), 6);
        let mut drops = 0;
        let mut total = 0;
        for r in &rows {
            assert!(r.hurst.is_finite());
            for (orig, agg) in r.variances {
                total += 1;
                if agg <= orig {
                    drops += 1;
                }
            }
        }
        // The paper: all but 2 of 18 cells drop. At quick scale allow some
        // slack but require a clear majority.
        assert!(drops * 3 >= total * 2, "only {drops}/{total} dropped");
    }

    #[test]
    fn table4_hurst_in_plausible_band() {
        let cfg = ExperimentConfig::quick();
        let rows = table4_from(&short_dataset(&cfg), &weekly_load_series(&cfg));
        for r in &rows {
            assert!(
                (0.5..1.05).contains(&r.hurst),
                "{}: H = {}",
                r.host,
                r.hurst
            );
        }
    }

    #[test]
    fn table5_and_table6_compute() {
        let cfg = ExperimentConfig::quick();
        let runs = short_dataset(&cfg);
        let t5 = table5_from(&runs);
        for r in &t5.rows {
            for v in r.values() {
                assert!((0.0..=1.0).contains(&v));
            }
        }
        let med = medium_dataset(&cfg);
        let t6 = table6_from(&med);
        assert_eq!(t6.rows.len(), 6);
        for r in &t6.rows {
            for v in r.values() {
                assert!((0.0..=1.0).contains(&v));
            }
        }
    }

    #[test]
    fn true_forecast_error_scores_every_test() {
        let s = Series::from_values("m", 0.0, 10.0, vec![0.5; 50]).unwrap();
        // Tests embedded mid-series and after its end.
        let tests = vec![(105.0, 0.7), (255.0, 0.7), (1000.0, 0.7)];
        let err = true_forecast_error(&s, &tests).unwrap();
        assert!((err - 0.2).abs() < 1e-9, "err = {err}");
    }

    #[test]
    fn true_forecast_error_empty_cases() {
        let s = Series::from_values("m", 0.0, 10.0, vec![0.5; 5]).unwrap();
        assert_eq!(true_forecast_error(&s, &[]), None);
        // A test before any measurement has no standing forecast.
        let only_early = vec![(-5.0, 0.9)];
        assert_eq!(true_forecast_error(&s, &only_early), None);
    }
}
