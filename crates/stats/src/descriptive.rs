//! Basic descriptive statistics and the error metrics of the paper.
//!
//! The paper's tables all report **mean absolute errors** between pairs of
//! quantities — measurement vs test process (Eq. 3), forecast vs test
//! process (Eq. 4), forecast vs next measurement (Eq. 5). Those pairwise
//! error helpers live here.

/// Arithmetic mean. Returns `None` for an empty slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Population variance (divides by `n`). Returns `None` for an empty slice.
///
/// Table 4 reports the variance of availability series and their 5-minute
/// aggregates; population variance matches that usage.
pub fn population_variance(values: &[f64]) -> Option<f64> {
    let m = mean(values)?;
    Some(values.iter().map(|&v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64)
}

/// Mean absolute deviation of `values` from the paired `references`.
///
/// This is the error form of the paper's Equations 3–5:
/// `mean(|value_i − reference_i|)`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mean_absolute_pair_error(values: &[f64], references: &[f64]) -> Option<f64> {
    assert_eq!(
        values.len(),
        references.len(),
        "paired error needs equal-length slices"
    );
    if values.is_empty() {
        return None;
    }
    Some(
        values
            .iter()
            .zip(references)
            .map(|(&v, &r)| (v - r).abs())
            .sum::<f64>()
            / values.len() as f64,
    )
}

/// Sample covariance of two paired sequences (divides by `n`).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn covariance(xs: &[f64], ys: &[f64]) -> Option<f64> {
    assert_eq!(xs.len(), ys.len(), "covariance needs equal-length slices");
    if xs.is_empty() {
        return None;
    }
    let mx = mean(xs)?;
    let my = mean(ys)?;
    Some(
        xs.iter()
            .zip(ys)
            .map(|(&x, &y)| (x - mx) * (y - my))
            .sum::<f64>()
            / xs.len() as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&v), Some(2.5));
        assert_eq!(population_variance(&v), Some(1.25));
    }

    #[test]
    fn empties() {
        assert_eq!(mean(&[]), None);
        assert_eq!(population_variance(&[]), None);
        assert_eq!(mean_absolute_pair_error(&[], &[]), None);
        assert_eq!(covariance(&[], &[]), None);
    }

    #[test]
    fn pair_error_matches_paper_definition() {
        // Eq. 3: mean |measurement - test observation|.
        let measured = [0.5, 0.8, 0.2];
        let observed = [0.6, 0.7, 0.2];
        let err = mean_absolute_pair_error(&measured, &observed).unwrap();
        assert!((err - (0.1 + 0.1 + 0.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn pair_error_length_mismatch_panics() {
        mean_absolute_pair_error(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn covariance_signs() {
        let x = [1.0, 2.0, 3.0];
        let up = [2.0, 4.0, 6.0];
        let down = [6.0, 4.0, 2.0];
        assert!(covariance(&x, &up).unwrap() > 0.0);
        assert!(covariance(&x, &down).unwrap() < 0.0);
        let flat = [5.0, 5.0, 5.0];
        assert_eq!(covariance(&x, &flat), Some(0.0));
    }
}
