//! The forecaster store both monitors keep their forecasts in — the
//! [`Archive`](crate::Archive) with the 1999 panel and 90 % intervals,
//! the [`FleetMonitor`](crate::FleetMonitor) with its own panel and no
//! intervals: one [`PredictorBank`] per series, dense by [`ResourceId`].
//!
//! One dense vector holds each series' *standing forecast* for a
//! placement pass to rank: the selected member's forecast, refreshed
//! after a reading and after a gap alike (a gap can kill the selected
//! member), 0.0 before the first reading. Interval trackers live in a
//! parallel vector, empty when the store issues no intervals. The store
//! keeps no change counter ([`Archive::revision`](crate::Archive::revision)
//! is the memory's).

use crate::registry::ResourceId;
use nws_forecast::{
    ErrorRow, Forecast, IntervalTracker, PanelSpec, PredictionInterval, PredictorBank,
};
use nws_timeseries::Seconds;

/// EWMA gain for the per-resource gap intensity that drives confidence
/// degradation: each observation decays it toward 0, each gap pushes it
/// toward 1.
const GAP_INTENSITY_GAIN: f64 = 0.15;

/// A forecast answer, NWS-extract style: the point forecast, the predictor
/// that issued it, and a calibrated prediction interval.
#[derive(Debug, Clone)]
pub struct ForecastAnswer {
    /// The point forecast for the next measurement.
    pub forecast: Forecast,
    /// Empirical prediction interval (absent until enough errors have been
    /// scored, and from a store that issues none).
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

/// One series' row.
#[derive(Debug, Clone)]
struct Row {
    bank: PredictorBank,
    /// Time of the last real measurement absorbed.
    last_obs: Option<Seconds>,
    /// EWMA of the recent gap rate (0 = clean stream, →1 = all gaps).
    gap_ewma: f64,
    /// Total gaps noted for this series.
    gaps: u64,
}

/// Per-series forecasters, updated as measurements arrive.
#[derive(Debug)]
pub struct ForecastService {
    spec: PanelSpec,
    coverage: Option<f64>,
    rows: Vec<Row>,
    standing: Vec<f64>,
    intervals: Vec<IntervalTracker>,
}

impl ForecastService {
    /// A store running the paper's 1999 panel, issuing intervals with
    /// the given two-sided coverage (e.g. `0.9`).
    ///
    /// # Panics
    ///
    /// Panics for coverage outside `(0, 1)`.
    pub fn new(coverage: f64) -> Self {
        Self::with_panel(PanelSpec::Nws1999, Some(coverage))
    }

    /// A store running `spec`, issuing intervals with the given
    /// coverage, or none (and keeping no interval state) for `None`.
    ///
    /// # Panics
    ///
    /// Panics for a coverage outside `(0, 1)`.
    pub fn with_panel(spec: PanelSpec, coverage: Option<f64>) -> Self {
        if let Some(c) = coverage {
            assert!(c > 0.0 && c < 1.0, "coverage in (0, 1)");
        }
        Self {
            spec,
            coverage,
            rows: Vec::new(),
            standing: Vec::new(),
            intervals: Vec::new(),
        }
    }

    /// Builds the rows of every id below `series` (feeding an id grows
    /// the store to it in any case).
    pub(crate) fn reserve(&mut self, series: usize) {
        if series <= self.rows.len() {
            return;
        }
        let row = Row {
            bank: self.spec.build(),
            last_obs: None,
            gap_ewma: 0.0,
            gaps: 0,
        };
        self.rows.resize(series, row);
        self.standing.resize(series, 0.0);
        if let Some(coverage) = self.coverage {
            self.intervals
                .resize(series, IntervalTracker::new(coverage));
        }
    }

    /// Feeds one measurement for a resource (scores the standing forecast
    /// first, as the paper's Eq. 5 protocol does). `time` is the
    /// measurement's timestamp, used to answer staleness queries.
    ///
    /// A non-finite `value` carries no measurement: it is treated exactly
    /// as [`ForecastService::note_gap`].
    pub fn observe(&mut self, id: ResourceId, time: Seconds, value: f64) {
        if !value.is_finite() {
            return self.note_gap(id, time);
        }
        let idx = id.0 as usize;
        self.reserve(idx + 1);
        let st = &mut self.rows[idx];
        if let Some(intervals) = self.intervals.get_mut(idx) {
            if let Some(predicted) = st.bank.predicted_value() {
                intervals.record(predicted, value);
            }
        }
        st.bank.observe(value);
        st.last_obs = Some(time);
        st.gap_ewma *= 1.0 - GAP_INTENSITY_GAIN;
        self.refresh(idx);
    }

    /// Notes that the slot at `time` resolved to a gap for this resource:
    /// the panel ages out stale windows, the confidence degrades, and no
    /// observation is counted.
    pub fn note_gap(&mut self, id: ResourceId, _time: Seconds) {
        let idx = id.0 as usize;
        self.reserve(idx + 1);
        let st = &mut self.rows[idx];
        st.bank.note_gap();
        st.gap_ewma += GAP_INTENSITY_GAIN * (1.0 - st.gap_ewma);
        st.gaps += 1;
        self.refresh(idx);
    }

    /// Re-reads the standing forecast (the previous one if none is live).
    fn refresh(&mut self, idx: usize) {
        if let Some(value) = self.rows[idx].bank.predicted_value() {
            self.standing[idx] = value;
        }
    }

    fn row(&self, id: ResourceId) -> Option<&Row> {
        self.rows.get(id.0 as usize)
    }

    /// Gaps noted for a resource so far.
    pub fn gap_count(&self, id: ResourceId) -> u64 {
        self.row(id).map_or(0, |st| st.gaps)
    }

    /// Whether a resource has absorbed a reading (and so a forecast).
    pub(crate) fn has_reading(&self, id: ResourceId) -> bool {
        self.row(id).is_some_and(|st| st.last_obs.is_some())
    }

    /// Every row's standing forecast, indexed by id.
    pub(crate) fn standing(&self) -> &[f64] {
        &self.standing
    }

    /// Readings absorbed and gaps noted, summed over every series.
    pub(crate) fn totals(&self) -> (u64, u64) {
        let observed = self.rows.iter().map(|st| st.bank.observations()).sum();
        (observed, self.rows.iter().map(|st| st.gaps).sum())
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
        let st = self.row(id)?;
        let forecast = st.bank.forecast()?;
        let intervals = self.intervals.get(id.0 as usize);
        let staleness = match (now, st.last_obs) {
            (Some(now), Some(last)) => (now - last).max(0.0),
            _ => 0.0,
        };
        Some(ForecastAnswer {
            observations: st.bank.observations(),
            interval: intervals.and_then(|iv| iv.interval(forecast.value)),
            staleness,
            confidence: (1.0 - st.gap_ewma).clamp(0.0, 1.0),
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
        self.row(id)?.bank.predict_horizon(k)
    }

    /// Resources a reading or a gap has reached, ascending.
    pub fn resource_ids(&self) -> Vec<ResourceId> {
        self.rows
            .iter()
            .enumerate()
            .filter(|(_, st)| st.last_obs.is_some() || st.gaps > 0)
            .map(|(idx, _)| ResourceId(idx as u64))
            .collect()
    }

    /// Every series' per-predictor error table merged exactly (raw error
    /// sums, in panel order); empty before the first series is fed.
    pub fn quality_table(&self) -> Vec<ErrorRow> {
        let Some((first, rest)) = self.rows.split_first() else {
            return Vec::new();
        };
        let mut merged = first.bank.error_table();
        for st in rest {
            st.bank.merge_errors_into(&mut merged);
        }
        merged
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
    fn a_non_finite_value_is_a_gap() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut fed = ForecastService::new(0.9);
            let mut gapped = ForecastService::new(0.9);
            for i in 0..60 {
                let t = f64::from(i) * 10.0;
                let v = 0.5 + 0.2 * (f64::from(i) * 0.3).sin();
                fed.observe(rid(1), t, v);
                gapped.observe(rid(1), t, v);
                if i % 20 == 7 {
                    fed.observe(rid(1), t + 5.0, bad);
                    gapped.note_gap(rid(1), t + 5.0);
                }
            }
            assert_eq!(fed.gap_count(rid(1)), 3, "{bad} was not a gap");
            let a = fed.forecast_at(rid(1), 700.0).expect("live");
            let b = gapped.forecast_at(rid(1), 700.0).expect("live");
            assert!(a.confidence < 1.0, "{bad} left confidence at 1");
            assert_eq!(a.confidence, b.confidence);
            assert_eq!(a.interval, b.interval);
            assert_eq!(a.staleness, b.staleness);
            assert_eq!(a.observations, b.observations);
            assert_eq!(a.forecast, b.forecast);
        }
    }

    #[test]
    #[should_panic(expected = "coverage in (0, 1)")]
    fn a_coverage_outside_the_unit_interval_panics_at_construction() {
        ForecastService::new(1.0);
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
