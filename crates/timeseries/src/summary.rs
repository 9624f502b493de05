//! Descriptive summaries of measurement series.

/// Descriptive statistics of a value sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population variance (divides by `n`, matching the paper's Table 4
    /// series variances).
    pub variance: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Median value.
    pub median: f64,
}

/// Summarizes a slice of values. Returns `None` for an empty slice.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    let n = values.len();
    let mean = values.iter().sum::<f64>() / n as f64;
    let variance = values.iter().map(|&v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for &v in values {
        min = min.min(v);
        max = max.max(v);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let median = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    };
    Some(Summary {
        n,
        mean,
        variance,
        std_dev: variance.sqrt(),
        min,
        max,
        median,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_values() {
        let s = summarize(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert_eq!(s.n, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.variance - 4.0).abs() < 1e-12);
        assert!((s.std_dev - 2.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert!((s.median - 4.5).abs() < 1e-12);
    }

    #[test]
    fn empty_is_none() {
        assert_eq!(summarize(&[]), None);
    }

    #[test]
    fn single_value() {
        let s = summarize(&[3.5]).unwrap();
        assert_eq!(s.mean, 3.5);
        assert_eq!(s.variance, 0.0);
        assert_eq!(s.median, 3.5);
        assert_eq!(s.min, 3.5);
        assert_eq!(s.max, 3.5);
    }

    #[test]
    fn nan_input_does_not_panic() {
        // total_cmp sorts NaN to the end instead of panicking mid-sort.
        let s = summarize(&[1.0, f64::NAN, 3.0]).unwrap();
        assert_eq!(s.n, 3);
        assert_eq!(s.median, 3.0);
    }
}
