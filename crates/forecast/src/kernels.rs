//! The member formulas, written once.
//!
//! Each panel member is a slice of the flat [`PredictorBank`] state that
//! reads the bank's shared history ring; its formula — operation order,
//! tie rule, refresh cadence — is a free function or a small state type
//! here. The bank's test oracle (`bank_equivalence`) composes its
//! per-member reference from the recursive kernels (the smoothers, the
//! gradient step, `AdjustedWindow`, the AR/ARMA fit and step), and
//! writes the window statistics it checks — sorted medians, trimmed
//! means, sliding sums — out from their definitions.
//!
//! Nothing here owns a history. Window access is passed in as a closure
//! (`at(i)`, oldest value first) or an iterator of lags, so a kernel runs
//! over the bank's masked ring as readily as over a plain slice.
//!
//! [`PredictorBank`]: crate::panel::PredictorBank

/// How many pushes between exact recomputations of a rolling sum (a
/// power of two, so a push counter can test it with a mask).
pub const SUM_REFRESH_INTERVAL: usize = 4096;

/// One step of a rolling window sum: the arriving value enters, the value
/// it evicts (if the window was full) leaves.
///
/// The single rolling-sum expression: the bank's window-mean members and
/// its per-member error windows both evaluate exactly this.
#[inline]
pub fn rolling_sum_step(sum: f64, value: f64, evicted: Option<f64>) -> f64 {
    match evicted {
        Some(old) => sum + (value - old),
        None => sum + value,
    }
}

/// One exponential-smoothing step: `state + gain·(value − state)`.
///
/// The single canonical EWMA kernel — the predictor bank's
/// `exp_smooth` members and the fleet tier's dense per-host forecasts
/// (`nws_grid::fleet::FleetMonitor`) both evaluate exactly this
/// expression, so the paths stay bit-identical by construction.
#[inline]
pub fn ewma_step(state: f64, gain: f64, value: f64) -> f64 {
    state + gain * (value - state)
}

/// The two error terms a scored forecast contributes: `(|e|, e²)` with
/// `e = forecast − actual`.
#[inline]
pub(crate) fn error_terms(forecast: f64, actual: f64) -> (f64, f64) {
    let err = forecast - actual;
    (err.abs(), err * err)
}

/// Slides a sorted window: removes `evicted` (when the window was full)
/// and inserts `value`, keeping `sorted[..len]` ascending. `len` counts
/// the values held *before* the call; the slice holds one more after it
/// unless a value was evicted.
///
/// The result is that of `remove(partition_point(x < evicted))` followed
/// by `insert(partition_point(x < value), value)`: the first element not
/// below a value is where it leaves from and where it lands, which fixes
/// which of several equal values goes and where an equal value settles.
/// In an ascending slice that position is the count of elements below
/// the value, so both come from one branch-free pass, and only the
/// elements between the two positions move.
pub(crate) fn sorted_slide(sorted: &mut [f64], len: usize, evicted: Option<f64>, value: f64) {
    debug_assert!(value.is_finite(), "sorted window values must be finite");
    let held = &sorted[..len];
    let Some(old) = evicted else {
        let at = held.iter().filter(|&&x| x < value).count();
        sorted.copy_within(at..len, at + 1);
        sorted[at] = value;
        return;
    };
    let (mut out, mut below) = (0, 0);
    for &x in held {
        out += usize::from(x < old);
        below += usize::from(x < value);
    }
    debug_assert!(sorted[out] == old, "evicted value not found");
    // Where `value` lands once `sorted[out]` is gone. The elements
    // between the two positions shift one place toward `out`: right when
    // the value lands at or below it, left when above.
    let at = below - usize::from(out < below);
    let (low, left) = (at.min(out), usize::from(out < at));
    sorted.copy_within(low + left..at.max(out) + left, low + 1 - left);
    sorted[at] = value;
}

/// Median of an ascending slice (mean of the two middle values for an
/// even count), or `None` when empty.
pub(crate) fn median_of_sorted(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// How many values an α-trimmed mean of `n` drops from each end:
/// `floor(α·n)`.
pub(crate) fn trim_count(alpha: f64, n: usize) -> usize {
    (alpha * n as f64).floor() as usize
}

/// α-trimmed mean of an ascending slice: drops `cut` values (its
/// [`trim_count`]) from each end and averages the rest; falls back to
/// the median when everything is trimmed away.
pub(crate) fn trimmed_mean_of_sorted(sorted: &[f64], cut: usize) -> Option<f64> {
    let n = sorted.len();
    let kept = &sorted[cut..n - cut];
    if kept.is_empty() {
        return median_of_sorted(sorted);
    }
    Some(kept.iter().sum::<f64>() / kept.len() as f64)
}

/// The Trigg–Leach adaptive gain `|smoothed error| / smoothed |error|`,
/// clamped to `[0, 1]`; a neutral 0.5 before any signal.
#[inline]
pub(crate) fn trigg_leach_gain(smoothed_err: f64, smoothed_abs_err: f64) -> f64 {
    if smoothed_abs_err <= f64::EPSILON {
        0.5
    } else {
        (smoothed_err.abs() / smoothed_abs_err).clamp(0.0, 1.0)
    }
}

/// One adaptive-gain smoothing step from a live `state`: updates the two
/// error smoothers and returns the new state.
#[inline]
pub(crate) fn trigg_leach_step(
    phi: f64,
    state: f64,
    smoothed_err: &mut f64,
    smoothed_abs_err: &mut f64,
    value: f64,
) -> f64 {
    let err = value - state;
    *smoothed_err = phi * err + (1.0 - phi) * *smoothed_err;
    *smoothed_abs_err = phi * err.abs() + (1.0 - phi) * *smoothed_abs_err;
    state + trigg_leach_gain(*smoothed_err, *smoothed_abs_err) * err
}

/// The stochastic-gradient AR(1) forecast `w·x + b`.
#[inline]
pub(crate) fn sgd_predict(w: f64, b: f64, x: f64) -> f64 {
    w * x + b
}

/// One gradient step of the AR(1) pair on the squared error of
/// predicting `value` from `prev`, coefficients clamped to `[-2, 2]`.
#[inline]
pub(crate) fn sgd_step(eta: f64, w: &mut f64, b: &mut f64, prev: f64, value: f64) {
    let err = sgd_predict(*w, *b, prev) - value;
    // Gradient of (pred - value)^2 wrt w and b.
    *w -= eta * err * prev;
    *b -= eta * err;
    // Keep the model sane on wild inputs.
    *w = w.clamp(-2.0, 2.0);
    *b = b.clamp(-2.0, 2.0);
}

/// Exact sum of the last `min(len, have)` of `have` window values, oldest
/// first, by rescan.
pub(crate) fn suffix_sum(have: usize, len: usize, at: impl Fn(usize) -> f64) -> f64 {
    (have - len.min(have)..have).map(at).sum()
}

/// The adaptive-length window's state apart from the history itself:
/// the length in use, rolling suffix sums and faded errors for the
/// half/current/double candidate lengths, and the review and refresh
/// counters.
///
/// The owner holds the last `max_len` values and drives three calls per
/// observation: [`AdjustedWindow::roll`] before the value enters the
/// history, [`AdjustedWindow::review`] after, and
/// [`AdjustedWindow::predict`] whenever it needs the forecast.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AdjustedWindow {
    min_len: usize,
    max_len: usize,
    len: usize,
    sum_half: f64,
    sum_current: f64,
    sum_double: f64,
    err_current: f64,
    err_half: f64,
    err_double: f64,
    since_review: usize,
    pushes_since_refresh: usize,
}

/// Observations between reviews of the window length.
const REVIEW_EVERY: usize = 8;

impl AdjustedWindow {
    pub(crate) fn new(min_len: usize, max_len: usize) -> Self {
        assert!(min_len > 0 && min_len <= max_len, "bad window bounds");
        Self {
            min_len,
            max_len,
            len: min_len.max((min_len + max_len) / 4),
            sum_half: 0.0,
            sum_current: 0.0,
            sum_double: 0.0,
            err_current: 0.0,
            err_half: 0.0,
            err_double: 0.0,
            since_review: 0,
            pushes_since_refresh: 0,
        }
    }

    pub(crate) fn max_len(&self) -> usize {
        self.max_len
    }

    fn half_len(&self) -> usize {
        (self.len / 2).max(self.min_len)
    }

    fn double_len(&self) -> usize {
        (self.len * 2).min(self.max_len)
    }

    fn suffix_mean(have: usize, len: usize, sum: f64) -> Option<f64> {
        if have == 0 {
            return None;
        }
        Some(sum / len.min(have) as f64)
    }

    /// The forecast over a history currently holding `have` values.
    pub(crate) fn predict(&self, have: usize) -> Option<f64> {
        Self::suffix_mean(have, self.len, self.sum_current)
    }

    /// Scores the three candidate lengths on `value` (exponentially faded
    /// absolute error) and rolls their sums forward. `have` and `at`
    /// describe the history *before* `value` enters it.
    pub(crate) fn roll(&mut self, value: f64, have: usize, at: impl Fn(usize) -> f64) {
        const FADE: f64 = 0.9;
        let half = self.half_len();
        let double = self.double_len();
        if let Some(p) = Self::suffix_mean(have, self.len, self.sum_current) {
            self.err_current = FADE * self.err_current + (p - value).abs();
        }
        if let Some(p) = Self::suffix_mean(have, half, self.sum_half) {
            self.err_half = FADE * self.err_half + (p - value).abs();
        }
        if let Some(p) = Self::suffix_mean(have, double, self.sum_double) {
            self.err_double = FADE * self.err_double + (p - value).abs();
        }
        // The new value enters every suffix; a suffix already at its
        // target length sheds its oldest member.
        for (target_len, sum) in [
            (half, &mut self.sum_half),
            (self.len, &mut self.sum_current),
            (double, &mut self.sum_double),
        ] {
            *sum += value;
            if have >= target_len {
                *sum -= at(have - target_len);
            }
        }
    }

    /// Counts the observation and, every [`REVIEW_EVERY`], moves to the
    /// candidate length that scored best. The sums are rebased exactly
    /// whenever the length changes and every [`SUM_REFRESH_INTERVAL`]
    /// observations in between. `have` and `at` describe the history
    /// *after* the observed value entered it.
    pub(crate) fn review(&mut self, have: usize, at: impl Fn(usize) -> f64) {
        self.pushes_since_refresh += 1;
        self.since_review += 1;
        let mut rebase = false;
        if self.since_review >= REVIEW_EVERY {
            self.since_review = 0;
            let old_len = self.len;
            if self.err_half < self.err_current && self.err_half <= self.err_double {
                self.len = self.half_len();
            } else if self.err_double < self.err_current {
                self.len = self.double_len();
            }
            self.err_current = 0.0;
            self.err_half = 0.0;
            self.err_double = 0.0;
            rebase = self.len != old_len;
        }
        if rebase {
            self.refresh_sums(have, &at);
        }
        if self.pushes_since_refresh >= SUM_REFRESH_INTERVAL {
            self.refresh_sums(have, &at);
        }
    }

    fn refresh_sums(&mut self, have: usize, at: &impl Fn(usize) -> f64) {
        self.sum_half = suffix_sum(have, self.half_len(), at);
        self.sum_current = suffix_sum(have, self.len, at);
        self.sum_double = suffix_sum(have, self.double_len(), at);
        self.pushes_since_refresh = 0;
    }

    /// Ages out the pre-gap history but keeps the learned window length:
    /// the series' timescale is a property of the workload mix, which
    /// usually survives an outage even though the level may not.
    pub(crate) fn note_gap(&mut self) {
        *self = Self {
            len: self.len,
            ..Self::new(self.min_len, self.max_len)
        };
    }
}

/// Biased autocovariance sums of a window of `n` values (`at(i)`, oldest
/// first) about `mean`, for lags `0..L`: `acc[k] = Σ_t (x_t − μ)(x_{t+k} − μ)`.
///
/// Each lag's sum accumulates over `t` ascending from zero, as a loop
/// over one lag at a time would; the lags advance together through one
/// pass so their add chains overlap instead of queueing.
fn autocovariance_sums<const L: usize>(n: usize, at: impl Fn(usize) -> f64, mean: f64) -> [f64; L] {
    let mut acc = [0.0; L];
    // While every lag is in range the inner loop has a fixed trip count.
    let full = (n + 1).saturating_sub(L);
    for t in 0..full {
        let xt = at(t) - mean;
        for (k, acc) in acc.iter_mut().enumerate() {
            *acc += xt * (at(t + k) - mean);
        }
    }
    for t in full..n {
        let xt = at(t) - mean;
        for (k, acc) in acc.iter_mut().enumerate().take(n - t) {
            *acc += xt * (at(t + k) - mean);
        }
    }
    acc
}

/// Fits AR(`order`) to a window of `n` values (`at(i)`, oldest first):
/// window mean, biased autocovariances up to lag `order` into `autocov`,
/// then Levinson–Durbin into `a` (`prev` is its scratch). Returns the
/// window mean when the fit succeeded — `a` then holds the coefficients
/// — and `None` on a degenerate fit, where the caller keeps its previous
/// model.
pub(crate) fn fit_ar(
    n: usize,
    at: impl Fn(usize) -> f64,
    order: usize,
    autocov: &mut [f64],
    a: &mut [f64],
    prev: &mut [f64],
) -> Option<f64> {
    let mean = (0..n).map(&at).sum::<f64>() / n as f64;
    match order {
        // The panel's orders keep their sums in registers.
        1 => autocov.copy_from_slice(&autocovariance_sums::<2>(n, &at, mean)),
        2 => autocov.copy_from_slice(&autocovariance_sums::<3>(n, &at, mean)),
        3 => autocov.copy_from_slice(&autocovariance_sums::<4>(n, &at, mean)),
        _ => {
            for (k, lag) in autocov.iter_mut().enumerate() {
                let mut acc = 0.0;
                for t in 0..n.saturating_sub(k) {
                    acc += (at(t) - mean) * (at(t + k) - mean);
                }
                *lag = acc;
            }
        }
    }
    for acc in autocov.iter_mut() {
        *acc /= n as f64;
    }
    levinson_durbin_into(autocov, order, a, prev).then_some(mean)
}

/// Solves the Yule–Walker equations for AR coefficients by the
/// Levinson–Durbin recursion, writing into caller-provided buffers so
/// periodic refits allocate nothing.
///
/// `autocov[k]` must hold the autocovariance at lag `k` for
/// `k = 0..=order`; `a` and `prev` must both hold exactly `order`
/// elements. `a` receives the coefficients on success and is unspecified
/// on failure. Returns whether the fit succeeded: it fails when the
/// system is degenerate (zero variance, or a non-positive-definite
/// covariance sequence, e.g. from numerically inconsistent inputs).
pub(crate) fn levinson_durbin_into(
    autocov: &[f64],
    order: usize,
    a: &mut [f64],
    prev: &mut [f64],
) -> bool {
    if autocov.len() < order + 1 || autocov[0] <= 0.0 {
        return false;
    }
    a.fill(0.0); // current coefficients a_1..a_p
    let mut e = autocov[0]; // prediction error variance
    for k in 0..order {
        let mut acc = autocov[k + 1];
        for j in 0..k {
            acc -= a[j] * autocov[k - j];
        }
        if e <= 0.0 {
            return false;
        }
        let reflection = acc / e;
        if !reflection.is_finite() || reflection.abs() > 1.0 + 1e-9 {
            // Non-stationary fit; bail out rather than predict explosively.
            return false;
        }
        // Update coefficients (Levinson step).
        prev.copy_from_slice(a);
        a[k] = reflection;
        for j in 0..k {
            a[j] = prev[j] - reflection * prev[k - 1 - j];
        }
        e *= 1.0 - reflection * reflection;
    }
    true
}

/// The one-step ARMA forecast
/// `μ + Σ aᵢ (lagᵢ − μ) + Σ θⱼ eⱼ` — `lags` and `resid` most recent
/// first. With no θ terms this is the AR forecast.
#[inline]
pub(crate) fn model_step(
    mean: f64,
    ar: &[f64],
    lags: impl Iterator<Item = f64>,
    theta: &[f64],
    resid: &[f64],
) -> f64 {
    let mut pred = mean;
    for (&a, lag) in ar.iter().zip(lags) {
        pred += a * (lag - mean);
    }
    for (&t, &r) in theta.iter().zip(resid) {
        pred += t * r;
    }
    pred
}

/// Iterated `k`-step forecasting from a fitted model: each step's
/// prediction becomes the next step's first lag, and future innovations
/// enter as their expectation (zero). `lags` holds the last `p` values
/// and `resid` the `q`-slot innovation buffer (its first `resid_len`
/// live), both most recent first; both are consumed as scratch.
pub(crate) fn model_horizon(
    mean: f64,
    ar: &[f64],
    mut lags: Vec<f64>,
    theta: &[f64],
    mut resid: Vec<f64>,
    mut resid_len: usize,
    k: usize,
) -> Vec<f64> {
    let mut out = Vec::with_capacity(k);
    for _ in 0..k {
        let pred = model_step(mean, ar, lags.iter().copied(), theta, &resid[..resid_len]);
        out.push(pred);
        lags.rotate_right(1);
        lags[0] = pred;
        if !resid.is_empty() {
            resid.rotate_right(1);
            resid[0] = 0.0;
            resid_len = (resid_len + 1).min(resid.len());
        }
    }
    out
}

/// Normalized-LMS step size for the θ updates.
const THETA_STEP: f64 = 0.05;
/// Regularizer keeping the normalized step finite on dead-quiet series.
const THETA_EPS: f64 = 1e-6;
/// Forgetting factor of the innovation-power estimate.
const POWER_DECAY: f64 = 0.99;
/// θ coefficients are clamped to this magnitude (invertibility guard).
const THETA_CAP: f64 = 0.98;

/// Absorbs one innovation `e` into the MA side: a normalized LMS step of
/// θ against the residuals the forecast used, the power estimate, then
/// `e` enters the residual buffer (most recent first, `theta.len()`
/// slots, `resid_len` of them live).
pub(crate) fn absorb_innovation(
    e: f64,
    theta: &mut [f64],
    resid: &mut [f64],
    resid_len: &mut usize,
    power: &mut f64,
) {
    let step = THETA_STEP * e / (THETA_EPS + *power);
    for (t, &r) in theta.iter_mut().zip(resid.iter()).take(*resid_len) {
        *t = (*t + step * r).clamp(-THETA_CAP, THETA_CAP);
    }
    *power = POWER_DECAY * *power + (1.0 - POWER_DECAY) * e * e;
    resid.rotate_right(1);
    resid[0] = e;
    *resid_len = (*resid_len + 1).min(resid.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The autocovariance pass as the AR refit first wrote it: one lag at
    /// a time.
    fn lag_at_a_time(window: &[f64], order: usize) -> (f64, Vec<f64>) {
        let n = window.len();
        let mean = window.iter().sum::<f64>() / n as f64;
        let autocov = (0..=order)
            .map(|k| {
                let mut acc = 0.0;
                for t in 0..n - k {
                    acc += (window[t] - mean) * (window[t + k] - mean);
                }
                acc / n as f64
            })
            .collect();
        (mean, autocov)
    }

    #[test]
    fn fit_ar_sums_each_lag_in_the_same_order_as_a_loop_per_lag() {
        let mut rng = nws_stats::Rng::new(31);
        for order in 1..=6 {
            for n in [4 * order, 4 * order + 1, 57, 120] {
                let mut x = 0.5;
                let window: Vec<f64> = (0..n)
                    .map(|_| {
                        x = 0.5 + 0.8 * (x - 0.5) + 0.2 * (rng.next_f64() - 0.5);
                        x
                    })
                    .collect();
                let (mean, want) = lag_at_a_time(&window, order);
                let mut autocov = vec![0.0; order + 1];
                let (mut a, mut prev) = (vec![0.0; order], vec![0.0; order]);
                let fitted = fit_ar(n, |t| window[t], order, &mut autocov, &mut a, &mut prev);
                assert_eq!(
                    autocov.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "order {order}, n {n}"
                );
                assert_eq!(fitted.map(f64::to_bits), Some(mean.to_bits()));
            }
        }
    }

    /// `levinson_durbin_into` with fresh buffers: the coefficients, or
    /// `None` on a degenerate system.
    fn levinson(autocov: &[f64], order: usize) -> Option<Vec<f64>> {
        let (mut a, mut prev) = (vec![0.0; order], vec![0.0; order]);
        levinson_durbin_into(autocov, order, &mut a, &mut prev).then_some(a)
    }

    #[test]
    fn levinson_durbin_solves_known_ar1() {
        // AR(1) with coefficient phi: autocov(k) = phi^k * var.
        let phi: f64 = 0.6;
        let var = 2.0;
        let autocov: Vec<f64> = (0..=3).map(|k| var * phi.powi(k)).collect();
        let a = levinson(&autocov, 1).expect("solvable");
        assert!((a[0] - phi).abs() < 1e-12);
        // Higher-order fit of an AR(1): extra coefficients near zero.
        let a3 = levinson(&autocov, 3).expect("solvable");
        assert!((a3[0] - phi).abs() < 1e-9);
        assert!(a3[1].abs() < 1e-9 && a3[2].abs() < 1e-9);
    }

    #[test]
    fn levinson_durbin_rejects_degenerate_input() {
        assert!(levinson(&[0.0, 0.0], 1).is_none()); // zero variance
        assert!(levinson(&[1.0], 1).is_none()); // too few lags
                                                // |reflection| > 1 (inconsistent autocovariance): refuse.
        assert!(levinson(&[1.0, 1.5], 1).is_none());
    }

    #[test]
    fn sorted_slide_is_remove_then_insert_at_the_partition_points() {
        let mut rng = nws_stats::Rng::new(5);
        for k in [1, 2, 5, 11, 32] {
            let mut fifo: Vec<f64> = Vec::new();
            let mut want: Vec<f64> = Vec::new();
            let mut sorted = vec![0.0; k];
            for _ in 0..400 {
                // Sixteenths (ties) and both zeros.
                let v = match (rng.next_f64() * 18.0) as u32 {
                    17 => -0.0,
                    q => f64::from(q) / 16.0,
                };
                let held = fifo.len();
                let evicted = (held == k).then(|| fifo.remove(0));
                if let Some(old) = evicted {
                    want.remove(want.partition_point(|&x| x < old));
                }
                want.insert(want.partition_point(|&x| x < v), v);
                sorted_slide(&mut sorted, held, evicted, v);
                fifo.push(v);
                assert_eq!(
                    sorted[..fifo.len()]
                        .iter()
                        .map(|x| x.to_bits())
                        .collect::<Vec<_>>(),
                    want.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                );
            }
        }
    }
}
