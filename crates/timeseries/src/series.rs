//! The [`Series`] container: a monotonically timestamped `f64` series.

use crate::Seconds;
use std::fmt;

/// One observation: a timestamp (seconds) and a value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimePoint {
    /// Observation time in seconds.
    pub time: Seconds,
    /// Observed value (for availability series, a fraction in `[0, 1]`).
    pub value: f64,
}

impl TimePoint {
    /// Creates a new time point.
    pub fn new(time: Seconds, value: f64) -> Self {
        Self { time, value }
    }
}

/// Errors raised by [`Series`] operations.
#[derive(Debug, Clone, PartialEq)]
pub enum SeriesError {
    /// A pushed timestamp was not strictly greater than the previous one.
    NonMonotonicTime {
        /// Timestamp of the last point already in the series.
        last: Seconds,
        /// The offending new timestamp.
        pushed: Seconds,
    },
    /// A pushed value was NaN or infinite.
    NonFiniteValue {
        /// The offending timestamp.
        time: Seconds,
    },
    /// The operation needs more data than the series holds.
    TooShort {
        /// Number of points required.
        needed: usize,
        /// Number of points present.
        have: usize,
    },
}

impl fmt::Display for SeriesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SeriesError::NonMonotonicTime { last, pushed } => {
                write!(f, "non-monotonic timestamp: pushed {pushed} after {last}")
            }
            SeriesError::NonFiniteValue { time } => {
                write!(f, "non-finite value at t={time}")
            }
            SeriesError::TooShort { needed, have } => {
                write!(f, "series too short: need {needed} points, have {have}")
            }
        }
    }
}

impl std::error::Error for SeriesError {}

/// A named, monotonically timestamped series of `f64` measurements.
///
/// Sensors append with [`Series::push`]; analysis code reads the value slice
/// with [`Series::values`]. Timestamps must be strictly increasing — the NWS
/// measurement loop guarantees this, and the forecasting and autocorrelation
/// machinery relies on it.
///
/// # Examples
///
/// ```
/// use nws_timeseries::Series;
///
/// let mut avail = Series::new("thing1/load");
/// avail.push(0.0, 0.80).unwrap();
/// avail.push(10.0, 0.75).unwrap();
/// avail.push(20.0, 0.90).unwrap();
///
/// // The paper's protocol: the measurement taken most immediately
/// // before a test process that starts at t = 14 s.
/// let prior = avail.at_or_before(14.0).unwrap();
/// assert_eq!(prior.value, 0.75);
///
/// // Out-of-order timestamps are rejected.
/// assert!(avail.push(5.0, 0.5).is_err());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Series {
    name: String,
    times: Vec<Seconds>,
    values: Vec<f64>,
}

impl Series {
    /// Creates an empty series with a display name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            times: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Creates an empty series with capacity for `n` points.
    pub fn with_capacity(name: impl Into<String>, n: usize) -> Self {
        Self {
            name: name.into(),
            times: Vec::with_capacity(n),
            values: Vec::with_capacity(n),
        }
    }

    /// Builds a regularly sampled series starting at `t0` with spacing `dt`.
    pub fn from_values(
        name: impl Into<String>,
        t0: Seconds,
        dt: Seconds,
        values: impl IntoIterator<Item = f64>,
    ) -> Result<Self, SeriesError> {
        let mut s = Series::new(name);
        for (i, v) in values.into_iter().enumerate() {
            s.push(t0 + dt * i as f64, v)?;
        }
        Ok(s)
    }

    /// The display name of the series.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends an observation.
    ///
    /// # Errors
    ///
    /// Fails if `time` is not strictly after the last timestamp or `value`
    /// is not finite.
    pub fn push(&mut self, time: Seconds, value: f64) -> Result<(), SeriesError> {
        if let Some(&last) = self.times.last() {
            if time <= last {
                return Err(SeriesError::NonMonotonicTime { last, pushed: time });
            }
        }
        if !value.is_finite() {
            return Err(SeriesError::NonFiniteValue { time });
        }
        self.times.push(time);
        self.values.push(value);
        Ok(())
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the series holds no observations.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The observation values in time order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The observation timestamps in increasing order.
    pub fn times(&self) -> &[Seconds] {
        &self.times
    }

    /// The `i`-th observation.
    pub fn get(&self, i: usize) -> Option<TimePoint> {
        Some(TimePoint::new(*self.times.get(i)?, *self.values.get(i)?))
    }

    /// The most recent observation.
    pub fn last(&self) -> Option<TimePoint> {
        if self.is_empty() {
            None
        } else {
            self.get(self.len() - 1)
        }
    }

    /// Iterates over observations as [`TimePoint`]s.
    pub fn iter(&self) -> impl Iterator<Item = TimePoint> + '_ {
        self.times
            .iter()
            .zip(self.values.iter())
            .map(|(&time, &value)| TimePoint { time, value })
    }

    /// Index of the last observation at or before `time`, if any.
    ///
    /// This is the lookup the measurement-error protocol uses: *"we use the
    /// measurement taken most immediately before the test process executes"*
    /// (Section 2.2).
    fn index_at_or_before(&self, time: Seconds) -> Option<usize> {
        // partition_point returns the count of timestamps <= time.
        let n = self.times.partition_point(|&t| t <= time);
        n.checked_sub(1)
    }

    /// The observation taken most immediately before (or at) `time`.
    pub fn at_or_before(&self, time: Seconds) -> Option<TimePoint> {
        self.index_at_or_before(time).and_then(|i| self.get(i))
    }

    /// A sub-series restricted to the half-open interval `[start, end)`.
    pub fn slice_interval(&self, start: Seconds, end: Seconds) -> Series {
        let lo = self.times.partition_point(|&t| t < start);
        let hi = self.times.partition_point(|&t| t < end);
        Series {
            name: self.name.clone(),
            times: self.times[lo..hi].to_vec(),
            values: self.values[lo..hi].to_vec(),
        }
    }

    /// Applies `f` to every value, preserving timestamps.
    pub fn map_values(&self, mut f: impl FnMut(f64) -> f64) -> Series {
        Series {
            name: self.name.clone(),
            times: self.times.clone(),
            values: self.values.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Mean sampling interval, or `None` with fewer than two points.
    pub fn mean_dt(&self) -> Option<Seconds> {
        if self.len() < 2 {
            return None;
        }
        let span = self.times[self.len() - 1] - self.times[0];
        Some(span / (self.len() - 1) as f64)
    }
}

impl IntoIterator for &Series {
    type Item = TimePoint;
    type IntoIter = std::vec::IntoIter<TimePoint>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter().collect::<Vec<_>>().into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Series {
        Series::from_values("s", 0.0, 10.0, [0.5, 0.6, 0.7, 0.8]).unwrap()
    }

    #[test]
    fn push_and_read_back() {
        let s = sample();
        assert_eq!(s.len(), 4);
        assert_eq!(s.values(), &[0.5, 0.6, 0.7, 0.8]);
        assert_eq!(s.times(), &[0.0, 10.0, 20.0, 30.0]);
        assert_eq!(s.last(), Some(TimePoint::new(30.0, 0.8)));
    }

    #[test]
    fn rejects_non_monotonic_time() {
        let mut s = sample();
        let err = s.push(30.0, 0.9).unwrap_err();
        assert!(matches!(err, SeriesError::NonMonotonicTime { .. }));
        let err = s.push(25.0, 0.9).unwrap_err();
        assert!(matches!(err, SeriesError::NonMonotonicTime { .. }));
        // Strictly increasing still works.
        s.push(30.1, 0.9).unwrap();
    }

    #[test]
    fn rejects_non_finite_values() {
        let mut s = Series::new("x");
        assert!(matches!(
            s.push(0.0, f64::NAN),
            Err(SeriesError::NonFiniteValue { .. })
        ));
        assert!(matches!(
            s.push(0.0, f64::INFINITY),
            Err(SeriesError::NonFiniteValue { .. })
        ));
        assert!(s.is_empty());
    }

    #[test]
    fn at_or_before_picks_most_recent_measurement() {
        let s = sample();
        // Exactly on a timestamp: that observation counts.
        assert_eq!(s.at_or_before(10.0), Some(TimePoint::new(10.0, 0.6)));
        // Between observations: the earlier one.
        assert_eq!(s.at_or_before(14.0), Some(TimePoint::new(10.0, 0.6)));
        // Before the first observation: none.
        assert_eq!(s.at_or_before(-1.0), None);
        // After the last: the last.
        assert_eq!(s.at_or_before(99.0), Some(TimePoint::new(30.0, 0.8)));
    }

    #[test]
    fn slice_interval_bounds() {
        let s = sample();
        let sub = s.slice_interval(10.0, 30.0);
        assert_eq!(sub.values(), &[0.6, 0.7]);
        assert_eq!(sub.times(), &[10.0, 20.0]);
        assert!(s.slice_interval(100.0, 200.0).is_empty());
    }

    #[test]
    fn map_values_preserves_times() {
        let s = sample().map_values(|v| 1.0 - v);
        assert_eq!(s.times(), sample().times());
        assert!((s.values()[0] - 0.5).abs() < 1e-12);
        assert!((s.values()[3] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn mean_dt_of_regular_series() {
        assert_eq!(sample().mean_dt(), Some(10.0));
        assert_eq!(Series::new("e").mean_dt(), None);
    }
}
