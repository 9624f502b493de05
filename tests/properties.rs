//! Property-based tests (proptest) on the cross-crate invariants the
//! reproduction relies on.

use nws::forecast::{evaluate_one_step, Member, PredictorBank};
use nws::sensors::{availability_from_load, availability_from_vmstat, VmstatReading};
use nws::stats::{autocorrelation, rs_statistic};
use nws::timeseries::{aggregate_mean, summarize, Series};
use proptest::prelude::*;

fn availability_series() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..=1.0, 2..200)
}

proptest! {
    #[test]
    fn forecasts_stay_inside_observed_hull(values in availability_series()) {
        // Every panel member is an average/selection of past values, so a
        // forecast can never leave the [min, max] of the history.
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        // Each member alone: a one-member bank serves its own forecast.
        let mut members: Vec<PredictorBank> = [
            Member::LastValue,
            Member::RunningMean,
            Member::SlidingMean(7),
            Member::SlidingMedian(7),
            Member::TrimmedMean(7, 0.2),
            Member::ExpSmoothing(0.3),
        ]
        .iter()
        .map(|m| PredictorBank::new(&[*m], 30))
        .collect();
        for &v in &values {
            for m in members.iter_mut() {
                m.observe(v);
                if let Some(p) = m.predicted_value() {
                    prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9,
                        "{} predicted {p} outside [{lo}, {hi}]", m.selected_name());
                }
            }
        }
    }

    #[test]
    fn one_step_error_metrics_are_coherent(values in availability_series()) {
        // The panel's only non-interpolating member is the stochastic
        // gradient AR(1); its coefficients are clamped to [-2, 2], so for
        // inputs in [0, 1] a prediction lies in [-4, 4] and any single
        // error is at most 5. The aggregate metrics must also obey
        // MAE <= RMSE <= max error.
        let mut nws = PredictorBank::nws_default();
        if let Some(report) = evaluate_one_step(&mut nws, &values) {
            prop_assert!(report.mae.is_finite() && report.rmse.is_finite());
            prop_assert!(report.max_abs <= 5.0 + 1e-9);
            prop_assert!(report.rmse >= report.mae - 1e-12);
            prop_assert!(report.max_abs >= report.rmse - 1e-12);
            prop_assert_eq!(report.n, values.len() - 1);
        }
    }

    #[test]
    fn aggregation_preserves_grand_mean(values in prop::collection::vec(0.0f64..=1.0, 30..300), m in 1usize..10) {
        // Over whole blocks, the mean of block means equals the mean of the
        // covered prefix.
        let whole = values.len() / m * m;
        if whole == 0 { return Ok(()); }
        let agg = aggregate_mean(&values[..whole], m);
        let mean_direct = summarize(&values[..whole]).expect("non-empty").mean;
        let mean_agg = summarize(&agg).expect("non-empty").mean;
        prop_assert!((mean_direct - mean_agg).abs() < 1e-9);
    }

    #[test]
    fn aggregation_never_increases_range(values in prop::collection::vec(0.0f64..=1.0, 30..300), m in 2usize..10) {
        let agg = aggregate_mean(&values, m);
        if agg.is_empty() { return Ok(()); }
        let s_orig = summarize(&values).expect("non-empty");
        let s_agg = summarize(&agg).expect("non-empty");
        prop_assert!(s_agg.min >= s_orig.min - 1e-12);
        prop_assert!(s_agg.max <= s_orig.max + 1e-12);
        // Block means cannot have larger variance than the original values.
        prop_assert!(s_agg.variance <= s_orig.variance + 1e-12);
    }

    #[test]
    fn rs_statistic_is_shift_and_scale_invariant(
        values in prop::collection::vec(0.0f64..1.0, 8..64),
        shift in -10.0f64..10.0,
        scale in 0.1f64..10.0,
    ) {
        let transformed: Vec<f64> = values.iter().map(|v| v * scale + shift).collect();
        match (rs_statistic(&values), rs_statistic(&transformed)) {
            (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-6 * a.max(1.0)),
            (None, None) => {}
            (a, b) => prop_assert!(false, "invariance broken: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn autocorrelation_is_bounded(values in prop::collection::vec(0.0f64..1.0, 4..128)) {
        if let Some(rho) = autocorrelation(&values, values.len() / 2) {
            prop_assert!((rho[0] - 1.0).abs() < 1e-12);
            for &r in &rho {
                prop_assert!(r.abs() <= 1.0 + 1e-9);
            }
        }
    }

    #[test]
    fn eq1_and_eq2_stay_in_unit_interval(
        load in 0.0f64..50.0,
        idle in 0.0f64..1.0,
        user in 0.0f64..1.0,
        sys in 0.0f64..1.0,
        rp in 0.0f64..20.0,
    ) {
        let a = availability_from_load(load);
        prop_assert!((0.0..=1.0).contains(&a));
        let v = availability_from_vmstat(&VmstatReading { idle, user, sys, smoothed_rp: rp });
        prop_assert!((0.0..=1.0).contains(&v));
    }

    #[test]
    fn series_monotone_push_invariant(times in prop::collection::vec(0.001f64..1e6, 1..100)) {
        // Pushing cumulative times always succeeds; the series length
        // matches, and lookups return the right neighbours.
        let mut acc = 0.0;
        let mut series = Series::new("p");
        for (i, dt) in times.iter().enumerate() {
            acc += dt;
            series.push(acc, i as f64).expect("strictly increasing");
        }
        prop_assert_eq!(series.len(), times.len());
        let last = series.last().expect("non-empty");
        prop_assert_eq!(series.at_or_before(acc + 1.0).expect("exists"), last);
        prop_assert!(series.at_or_before(series.times()[0] - 1.0).is_none());
    }
}
