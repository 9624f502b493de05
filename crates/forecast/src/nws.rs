//! The NWS forecaster: the historical name of the predictor bank.
//!
//! The engine itself lives in [`panel`](crate::panel) as
//! [`PredictorBank`] — the unified predictor tier shared by the per-host
//! forecast service, the fleet shards, and the quality benchmarks.
//! `NwsForecaster` is an alias kept so the paper-facing name (and every
//! existing call site) keeps reading naturally.

use crate::panel::PredictorBank;
pub use crate::panel::{Forecast, Selection};

/// The NWS forecasting engine — an alias of [`PredictorBank`].
pub type NwsForecaster = PredictorBank;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::panel::Member;

    #[test]
    fn first_update_already_forecasts() {
        let mut nws = NwsForecaster::nws_default();
        let f = nws.update(0.5).expect("last-value is live after 1 point");
        assert_eq!(f.value, 0.5);
    }

    #[test]
    fn constant_series_is_predicted_exactly() {
        let mut nws = NwsForecaster::nws_default();
        let mut last = None;
        for _ in 0..50 {
            last = nws.update(0.37);
        }
        let f = last.unwrap();
        assert!((f.value - 0.37).abs() < 1e-9);
    }

    #[test]
    fn selection_beats_worst_member_on_noisy_series() {
        // Alternating series: last-value is maximally wrong; the panel
        // should settle on a mean-like method.
        let mut nws = NwsForecaster::nws_default();
        let mut errs = Vec::new();
        for i in 0..400 {
            let x = if i % 2 == 0 { 0.3 } else { 0.7 };
            if let Some(f) = nws.forecast() {
                errs.push((f.value - x).abs());
            }
            nws.update(x);
        }
        let tail_mae: f64 = errs[100..].iter().sum::<f64>() / (errs.len() - 100) as f64;
        // Last-value would score 0.4; the mean scores 0.2.
        assert!(tail_mae < 0.25, "dynamic selection MAE = {tail_mae}");
    }

    #[test]
    fn selection_tracks_best_member_within_tolerance() {
        // The paper's claim: dynamic selection ≈ best fixed member.
        // Build a mean-reverting noisy series.
        let mut rng = nws_stats::Rng::new(77);
        let mut x: f64 = 0.5;
        let mut series = Vec::with_capacity(2000);
        for _ in 0..2000 {
            x = 0.9 * x + 0.05 + 0.1 * (rng.next_f64() - 0.5);
            series.push(x.clamp(0.0, 1.0));
        }
        let mut nws = NwsForecaster::nws_default();
        let mut nws_err = 0.0;
        let mut count = 0;
        for &v in &series {
            if let Some(f) = nws.forecast() {
                nws_err += (f.value - v).abs();
                count += 1;
            }
            nws.update(v);
        }
        let nws_mae = nws_err / count as f64;
        // Score each member alone.
        let best_fixed = nws
            .error_summary()
            .into_iter()
            .map(|(_, mae)| mae)
            .fold(f64::INFINITY, f64::min);
        assert!(
            nws_mae <= best_fixed * 1.25 + 1e-9,
            "dynamic {nws_mae} vs best fixed {best_fixed}"
        );
    }

    #[test]
    fn error_summary_covers_whole_panel_after_warmup() {
        let mut nws = NwsForecaster::nws_default();
        for i in 0..300 {
            nws.update((i % 7) as f64 / 7.0);
        }
        let summary = nws.error_summary();
        assert_eq!(summary.len(), nws.panel_len());
        for (name, mae) in &summary {
            assert!(mae.is_finite(), "{name} has bad MAE");
        }
    }

    #[test]
    fn method_names_are_unique() {
        let nws = NwsForecaster::nws_default();
        let mut names = nws.method_names();
        names.sort();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate panel names");
    }

    #[test]
    fn selection_criteria_all_work() {
        for sel in [
            Selection::RecentMae,
            Selection::CumulativeMae,
            Selection::CumulativeMse,
        ] {
            let mut nws = NwsForecaster::new(&[Member::LastValue, Member::RunningMean], sel, 10);
            for i in 0..50 {
                nws.update((i as f64 * 0.7).sin().abs());
            }
            assert!(nws.forecast().is_some());
        }
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut nws = NwsForecaster::nws_default();
        for _ in 0..10 {
            nws.update(0.5);
        }
        nws.reset();
        assert_eq!(nws.observations(), 0);
        assert!(nws.forecast().is_none());
        // And it works again after reset.
        assert!(nws.update(0.2).is_some());
    }

    #[test]
    #[should_panic(expected = "panel")]
    fn empty_panel_panics() {
        NwsForecaster::new(&[], Selection::default(), 10);
    }

    #[test]
    fn gap_keeps_a_live_forecast_without_counting_observations() {
        let mut nws = NwsForecaster::nws_default();
        for _ in 0..60 {
            nws.update(0.8);
        }
        let n = nws.observations();
        nws.note_gap();
        assert_eq!(nws.observations(), n, "gaps are not observations");
        // Some level predictor still serves a forecast near the old level.
        let f = nws.forecast().expect("level members bridge the gap");
        assert!(
            (f.value - 0.8).abs() < 0.05,
            "post-gap forecast {}",
            f.value
        );
        // And the engine keeps working afterwards.
        assert!(nws.update(0.5).is_some());
    }

    #[test]
    fn gap_reselects_when_selected_member_goes_dark() {
        // A window-only panel: the gap clears every member, so forecast()
        // goes dark instead of serving stale values; the next measurement
        // revives it.
        let mut nws = NwsForecaster::new(
            &[Member::SlidingMean(4), Member::SlidingMedian(4)],
            Selection::default(),
            10,
        );
        for i in 0..20 {
            nws.update(0.4 + 0.01 * (i % 3) as f64);
        }
        assert!(nws.forecast().is_some());
        nws.note_gap();
        assert!(nws.forecast().is_none(), "window panel must go dark");
        assert!(nws.update(0.6).is_some());
    }
}
