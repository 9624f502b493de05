//! The forecaster service: on-demand predictions per registered resource.

use crate::registry::ResourceId;
use nws_forecast::{Forecast, IntervalTracker, PredictionInterval, PredictorBank};
use nws_timeseries::Seconds;
use std::collections::BTreeMap;

/// EWMA gain for the per-resource gap intensity that drives confidence
/// degradation: each observation decays it toward 0, each gap pushes it
/// toward 1.
const GAP_EWMA_GAIN: f64 = 0.15;

/// A forecast answer, NWS-extract style: the point forecast, the predictor
/// that issued it, and a calibrated prediction interval.
#[derive(Debug, Clone)]
pub struct ForecastAnswer {
    /// The point forecast for the next measurement.
    pub forecast: Forecast,
    /// Empirical prediction interval (absent until enough errors have been
    /// scored).
    pub interval: Option<PredictionInterval>,
    /// Number of measurements the forecaster has consumed.
    pub observations: u64,
    /// Seconds since the forecaster last absorbed a real measurement
    /// (0 when queried via [`ForecastService::forecast`], which has no
    /// notion of "now").
    pub staleness: Seconds,
    /// Confidence in `[0, 1]`: 1 on an uninterrupted measurement stream,
    /// degrading toward 0 as recent slots resolve to gaps instead of
    /// readings.
    pub confidence: f64,
}

/// Per-resource forecasting state.
#[derive(Debug)]
struct ResourceState {
    nws: PredictorBank,
    intervals: IntervalTracker,
    /// Time of the last real measurement absorbed.
    last_obs: Option<Seconds>,
    /// EWMA of the recent gap rate (0 = clean stream, →1 = all gaps).
    gap_ewma: f64,
    /// Total gaps noted for this resource.
    gaps: u64,
    /// Bumped on every observation or gap — anything that can change
    /// the answer [`ForecastService::forecast`] returns. The serving
    /// layer's per-resource forecast cache is valid exactly while this
    /// counter holds still.
    revision: u64,
}

impl ResourceState {
    fn confidence(&self) -> f64 {
        (1.0 - self.gap_ewma).clamp(0.0, 1.0)
    }
}

/// Per-resource forecasters, updated as measurements arrive.
#[derive(Debug)]
pub struct ForecastService {
    coverage: f64,
    state: BTreeMap<ResourceId, ResourceState>,
    /// Bumped on any resource's observation or gap.
    global_revision: u64,
}

impl ForecastService {
    /// Creates a service issuing intervals with the given two-sided
    /// coverage (e.g. `0.9`).
    pub fn new(coverage: f64) -> Self {
        Self {
            coverage,
            state: BTreeMap::new(),
            global_revision: 0,
        }
    }

    fn entry(&mut self, id: ResourceId) -> &mut ResourceState {
        let coverage = self.coverage;
        self.state.entry(id).or_insert_with(|| ResourceState {
            nws: PredictorBank::nws_default(),
            intervals: IntervalTracker::new(coverage),
            last_obs: None,
            gap_ewma: 0.0,
            gaps: 0,
            revision: 0,
        })
    }

    /// Feeds one measurement for a resource (scores the standing forecast
    /// first, as the paper's Eq. 5 protocol does). `time` is the
    /// measurement's timestamp, used to answer staleness queries.
    pub fn observe(&mut self, id: ResourceId, time: Seconds, value: f64) {
        let st = self.entry(id);
        if let Some(predicted) = st.nws.predicted_value() {
            st.intervals.record(predicted, value);
        }
        st.nws.observe(value);
        st.last_obs = Some(time);
        st.gap_ewma *= 1.0 - GAP_EWMA_GAIN;
        st.revision += 1;
        self.global_revision += 1;
    }

    /// Notes that the slot at `time` resolved to a gap for this resource:
    /// the panel ages out stale windows, the confidence degrades, and no
    /// observation is counted.
    pub fn note_gap(&mut self, id: ResourceId, _time: Seconds) {
        let st = self.entry(id);
        st.nws.note_gap();
        st.gap_ewma += GAP_EWMA_GAIN * (1.0 - st.gap_ewma);
        st.gaps += 1;
        st.revision += 1;
        self.global_revision += 1;
    }

    /// Change counter for one resource's forecaster: equal revisions
    /// guarantee [`ForecastService::forecast`] returns an identical
    /// answer, which is what lets a serving cache short-circuit
    /// repeated queries between measurement ticks.
    pub fn revision(&self, id: ResourceId) -> u64 {
        self.state.get(&id).map_or(0, |st| st.revision)
    }

    /// Change counter across all resources (any observation or gap).
    pub fn global_revision(&self) -> u64 {
        self.global_revision
    }

    /// Gaps noted for a resource so far.
    pub fn gap_count(&self, id: ResourceId) -> u64 {
        self.state.get(&id).map_or(0, |st| st.gaps)
    }

    /// The standing forecast for a resource (staleness reported as 0 —
    /// use [`ForecastService::forecast_at`] when "now" is known).
    pub fn forecast(&self, id: ResourceId) -> Option<ForecastAnswer> {
        self.answer(id, None)
    }

    /// The standing forecast for a resource together with how stale it is
    /// at time `now` (seconds since the last absorbed measurement).
    pub fn forecast_at(&self, id: ResourceId, now: Seconds) -> Option<ForecastAnswer> {
        self.answer(id, Some(now))
    }

    fn answer(&self, id: ResourceId, now: Option<Seconds>) -> Option<ForecastAnswer> {
        let st = self.state.get(&id)?;
        let forecast = st.nws.forecast()?;
        let interval = st.intervals.interval(forecast.value);
        let staleness = match (now, st.last_obs) {
            (Some(now), Some(last)) => (now - last).max(0.0),
            _ => 0.0,
        };
        Some(ForecastAnswer {
            observations: st.nws.observations(),
            interval,
            staleness,
            confidence: st.confidence(),
            forecast,
        })
    }

    /// The selected predictor's `k`-step horizon forecast for a resource:
    /// step 1 is the one-step forecast, later steps follow the selected
    /// member's dynamics (flat for level/window members, mean-reverting
    /// for AR/ARMA). `None` before the resource has a live forecaster or
    /// when `k == 0`.
    pub fn forecast_horizon(&self, id: ResourceId, k: usize) -> Option<Vec<f64>> {
        if k == 0 {
            return None;
        }
        self.state.get(&id)?.nws.predict_horizon(k)
    }

    /// Resources with live forecasters.
    pub fn resource_ids(&self) -> Vec<ResourceId> {
        self.state.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ResourceId;

    fn rid(n: u64) -> ResourceId {
        ResourceId(n)
    }

    #[test]
    fn forecast_appears_after_first_observation() {
        let mut svc = ForecastService::new(0.9);
        assert!(svc.forecast(rid(1)).is_none());
        svc.observe(rid(1), 10.0, 0.7);
        let a = svc.forecast(rid(1)).expect("live");
        assert_eq!(a.forecast.value, 0.7);
        assert_eq!(a.observations, 1);
        assert_eq!(a.confidence, 1.0);
    }

    #[test]
    fn intervals_calibrate_over_time() {
        let mut svc = ForecastService::new(0.8);
        let mut rng = nws_stats::Rng::new(3);
        for i in 0..500 {
            svc.observe(
                rid(1),
                i as f64 * 10.0,
                (0.6 + 0.1 * rng.next_standard_normal()).clamp(0.0, 1.0),
            );
        }
        let a = svc.forecast(rid(1)).expect("live");
        let iv = a.interval.expect("interval warm");
        assert!(iv.lo < a.forecast.value && a.forecast.value < iv.hi);
        // The 80% interval of ~N(0.6, 0.1) spans roughly ±0.13.
        assert!(
            iv.hi - iv.lo > 0.1 && iv.hi - iv.lo < 0.5,
            "width = {}",
            iv.hi - iv.lo
        );
    }

    #[test]
    fn resources_are_isolated() {
        let mut svc = ForecastService::new(0.9);
        for i in 0..20 {
            let t = i as f64 * 10.0;
            svc.observe(rid(1), t, 0.9);
            svc.observe(rid(2), t, 0.1);
        }
        let a = svc.forecast(rid(1)).expect("live");
        let b = svc.forecast(rid(2)).expect("live");
        assert!((a.forecast.value - 0.9).abs() < 1e-6);
        assert!((b.forecast.value - 0.1).abs() < 1e-6);
        assert_eq!(svc.resource_ids(), vec![rid(1), rid(2)]);
    }

    #[test]
    fn staleness_measures_time_since_last_observation() {
        let mut svc = ForecastService::new(0.9);
        svc.observe(rid(1), 100.0, 0.5);
        let fresh = svc.forecast_at(rid(1), 100.0).expect("live");
        assert_eq!(fresh.staleness, 0.0);
        let stale = svc.forecast_at(rid(1), 400.0).expect("live");
        assert_eq!(stale.staleness, 300.0);
        // The now-less query reports zero staleness by convention.
        assert_eq!(svc.forecast(rid(1)).unwrap().staleness, 0.0);
    }

    #[test]
    fn confidence_degrades_on_gaps_and_recovers() {
        let mut svc = ForecastService::new(0.9);
        for i in 0..30 {
            svc.observe(rid(1), i as f64 * 10.0, 0.6);
        }
        assert_eq!(svc.forecast(rid(1)).unwrap().confidence, 1.0);
        for i in 30..40 {
            svc.note_gap(rid(1), i as f64 * 10.0);
        }
        let degraded = svc.forecast(rid(1)).expect("level members survive");
        assert!(degraded.confidence < 0.5, "c = {}", degraded.confidence);
        assert_eq!(svc.gap_count(rid(1)), 10);
        // Clean measurements rebuild confidence.
        for i in 40..80 {
            svc.observe(rid(1), i as f64 * 10.0, 0.6);
        }
        let recovered = svc.forecast(rid(1)).unwrap();
        assert!(recovered.confidence > 0.9, "c = {}", recovered.confidence);
    }

    #[test]
    fn revisions_move_with_observations_and_gaps() {
        let mut svc = ForecastService::new(0.9);
        assert_eq!(svc.revision(rid(1)), 0);
        svc.observe(rid(1), 0.0, 0.5);
        assert_eq!(svc.revision(rid(1)), 1);
        svc.note_gap(rid(1), 10.0);
        assert_eq!(svc.revision(rid(1)), 2);
        svc.observe(rid(2), 0.0, 0.5);
        assert_eq!(svc.revision(rid(1)), 2, "resources are isolated");
        assert_eq!(svc.global_revision(), 3);
    }

    #[test]
    fn horizon_starts_at_the_one_step_forecast() {
        let mut svc = ForecastService::new(0.9);
        assert!(svc.forecast_horizon(rid(1), 8).is_none(), "no data yet");
        for i in 0..60 {
            svc.observe(rid(1), i as f64 * 10.0, 0.4 + 0.2 * ((i % 5) as f64 / 5.0));
        }
        let h = svc.forecast_horizon(rid(1), 8).expect("live");
        assert_eq!(h.len(), 8);
        let one_step = svc.forecast(rid(1)).unwrap().forecast.value;
        assert_eq!(h[0], one_step, "horizon step 1 is the one-step forecast");
        assert!(svc.forecast_horizon(rid(1), 0).is_none());
    }

    #[test]
    fn gaps_do_not_count_as_observations() {
        let mut svc = ForecastService::new(0.9);
        svc.observe(rid(1), 0.0, 0.5);
        svc.note_gap(rid(1), 10.0);
        svc.note_gap(rid(1), 20.0);
        let a = svc.forecast(rid(1)).expect("live");
        assert_eq!(a.observations, 1);
    }
}
