//! Ordinary least squares line fitting.
//!
//! Figure 3's Hurst estimate is "a least-squares regression line for the
//! average log10(R(d)/S(d)) value for each value of log10(d)"; the slope of
//! that line is the Hurst parameter. This module provides the fit.

/// Result of fitting `y ≈ slope·x + intercept` by least squares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination in `[0, 1]` (1 when `y` is constant).
    pub r_squared: f64,
    /// Number of points used.
    pub n: usize,
}

/// Fits a least-squares line through paired points.
///
/// Returns `None` when fewer than two points are supplied or all `x` values
/// coincide (the slope is undefined).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> Option<LinearFit> {
    assert_eq!(xs.len(), ys.len(), "linear_fit needs equal-length slices");
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let nf = n as f64;
    let mx = xs.iter().sum::<f64>() / nf;
    let my = ys.iter().sum::<f64>() / nf;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        let dx = x - mx;
        let dy = y - my;
        sxx += dx * dx;
        sxy += dx * dy;
        syy += dy * dy;
    }
    if sxx == 0.0 {
        return None;
    }
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let r_squared = if syy == 0.0 {
        1.0 // y is constant: the flat line fits exactly.
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    Some(LinearFit {
        slope,
        intercept,
        r_squared,
        n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_recovered() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys: Vec<f64> = xs.iter().map(|x| 2.5 * x - 1.0).collect();
        let fit = linear_fit(&xs, &ys).unwrap();
        assert!((fit.slope - 2.5).abs() < 1e-12);
        assert!((fit.intercept + 1.0).abs() < 1e-12);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_line_r2_below_one() {
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let ys = [0.1, 0.9, 2.2, 2.8, 4.1];
        let fit = linear_fit(&xs, &ys).unwrap();
        assert!((fit.slope - 1.0).abs() < 0.1);
        assert!(fit.r_squared > 0.97 && fit.r_squared < 1.0);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(linear_fit(&[], &[]).is_none());
        assert!(linear_fit(&[1.0], &[2.0]).is_none());
        // All x equal: vertical line, undefined slope.
        assert!(linear_fit(&[2.0, 2.0, 2.0], &[1.0, 2.0, 3.0]).is_none());
    }

    #[test]
    fn constant_y_is_flat_fit() {
        let fit = linear_fit(&[0.0, 1.0, 2.0], &[5.0, 5.0, 5.0]).unwrap();
        assert_eq!(fit.slope, 0.0);
        assert_eq!(fit.intercept, 5.0);
        assert_eq!(fit.r_squared, 1.0);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn mismatched_lengths_panic() {
        linear_fit(&[1.0], &[1.0, 2.0]);
    }
}
