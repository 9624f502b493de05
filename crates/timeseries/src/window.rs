//! Sliding windows over measurement histories.
//!
//! The NWS forecasters each maintain a "sliding window" over previous
//! measurements (Section 3): a bounded buffer holding the most recent `k`
//! values. [`SlidingWindow`] is that buffer — O(1) amortized push, stable
//! iteration order from oldest to newest, and cheap incremental sum so the
//! windowed-mean forecasters do not rescan on every update.

/// A bounded FIFO window over the most recent `capacity` values.
///
/// Pushing beyond capacity evicts the oldest value. An incremental running
/// sum is maintained with periodic exact recomputation to bound floating
/// point drift.
///
/// # Examples
///
/// ```
/// use nws_timeseries::SlidingWindow;
///
/// let mut w = SlidingWindow::new(3);
/// for v in [1.0, 0.25, 0.5, 0.75] {
///     w.push(v);
/// }
/// // Only the last three values remain.
/// assert_eq!(w.to_vec(), vec![0.25, 0.5, 0.75]);
/// assert_eq!(w.mean(), Some(0.5));
/// assert_eq!(w.median(), Some(0.5));
/// ```
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    buf: Vec<f64>,
    head: usize,
    len: usize,
    sum: f64,
    pushes_since_refresh: usize,
}

/// How many pushes between exact recomputations of a rolling sum (a
/// power of two, so a push counter can test it with a mask).
pub const SUM_REFRESH_INTERVAL: usize = 4096;

/// One step of a rolling window sum: the arriving value enters, the value
/// it evicts (if the window was full) leaves.
///
/// The single rolling-sum expression — [`SlidingWindow::push`] and the
/// forecaster bank's shared history ring both evaluate exactly this, so a
/// window mean read from either is the same bits.
#[inline]
pub fn rolling_sum_step(sum: f64, value: f64, evicted: Option<f64>) -> f64 {
    match evicted {
        Some(old) => sum + (value - old),
        None => sum + value,
    }
}

impl SlidingWindow {
    /// Creates a window holding at most `capacity` values.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        Self {
            buf: vec![0.0; capacity],
            head: 0,
            len: 0,
            sum: 0.0,
            pushes_since_refresh: 0,
        }
    }

    /// Maximum number of values retained.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Current number of retained values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no values have been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True once the window has been filled to capacity.
    pub fn is_full(&self) -> bool {
        self.len == self.capacity()
    }

    /// Pushes a value, evicting the oldest when full. Returns the evicted
    /// value, if any.
    pub fn push(&mut self, value: f64) -> Option<f64> {
        let cap = self.buf.len();
        let evicted = if self.len == cap {
            let old = self.buf[self.head];
            self.buf[self.head] = value;
            self.head = (self.head + 1) % cap;
            Some(old)
        } else {
            let idx = (self.head + self.len) % cap;
            self.buf[idx] = value;
            self.len += 1;
            None
        };
        self.sum = rolling_sum_step(self.sum, value, evicted);
        self.pushes_since_refresh += 1;
        if self.pushes_since_refresh >= SUM_REFRESH_INTERVAL {
            self.sum = self.iter().sum();
            self.pushes_since_refresh = 0;
        }
        evicted
    }

    /// Removes every value.
    pub fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
        self.sum = 0.0;
        self.pushes_since_refresh = 0;
    }

    /// Sum of the retained values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of the retained values, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.len == 0 {
            None
        } else {
            Some(self.sum / self.len as f64)
        }
    }

    /// The most recently pushed value, if any.
    pub fn newest(&self) -> Option<f64> {
        if self.len == 0 {
            None
        } else {
            let cap = self.buf.len();
            Some(self.buf[(self.head + self.len - 1) % cap])
        }
    }

    /// The oldest retained value, if any.
    pub fn oldest(&self) -> Option<f64> {
        if self.len == 0 {
            None
        } else {
            Some(self.buf[self.head])
        }
    }

    /// The value at position `i`, where 0 is the oldest retained value and
    /// `len() - 1` the newest. `None` when out of range.
    pub fn get(&self, i: usize) -> Option<f64> {
        if i >= self.len {
            None
        } else {
            let cap = self.buf.len();
            Some(self.buf[(self.head + i) % cap])
        }
    }

    /// Iterates oldest → newest.
    pub fn iter(&self) -> WindowIter<'_> {
        WindowIter {
            window: self,
            pos: 0,
        }
    }

    /// Copies the retained values, oldest → newest, into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<f64> {
        self.iter().collect()
    }

    /// Median of the retained values, or `None` when empty.
    ///
    /// For an even count, the mean of the two middle values. O(n log n);
    /// the NWS median forecasters call this once per measurement on windows
    /// of at most a few hundred values.
    pub fn median(&self) -> Option<f64> {
        if self.len == 0 {
            return None;
        }
        let mut v = self.to_vec();
        v.sort_by(|a, b| a.total_cmp(b));
        let n = v.len();
        Some(if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        })
    }

    /// α-trimmed mean: drops `floor(α·n)` values from each end of the sorted
    /// window, then averages the rest. `alpha` must be in `[0, 0.5)`.
    pub fn trimmed_mean(&self, alpha: f64) -> Option<f64> {
        assert!((0.0..0.5).contains(&alpha), "alpha must be in [0, 0.5)");
        if self.len == 0 {
            return None;
        }
        let mut v = self.to_vec();
        v.sort_by(|a, b| a.total_cmp(b));
        let k = (alpha * v.len() as f64).floor() as usize;
        let kept = &v[k..v.len() - k];
        if kept.is_empty() {
            return self.median();
        }
        Some(kept.iter().sum::<f64>() / kept.len() as f64)
    }
}

/// Iterator over a [`SlidingWindow`], oldest → newest.
#[derive(Debug)]
pub struct WindowIter<'a> {
    window: &'a SlidingWindow,
    pos: usize,
}

impl Iterator for WindowIter<'_> {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        if self.pos >= self.window.len {
            return None;
        }
        let cap = self.window.buf.len();
        let idx = (self.window.head + self.pos) % cap;
        self.pos += 1;
        Some(self.window.buf[idx])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.window.len - self.pos;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for WindowIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_then_evicts_fifo() {
        let mut w = SlidingWindow::new(3);
        assert_eq!(w.push(1.0), None);
        assert_eq!(w.push(2.0), None);
        assert_eq!(w.push(3.0), None);
        assert!(w.is_full());
        assert_eq!(w.push(4.0), Some(1.0));
        assert_eq!(w.to_vec(), vec![2.0, 3.0, 4.0]);
        assert_eq!(w.oldest(), Some(2.0));
        assert_eq!(w.newest(), Some(4.0));
    }

    #[test]
    fn incremental_sum_matches_exact() {
        let mut w = SlidingWindow::new(5);
        for i in 0..100 {
            w.push((i as f64) * 0.37);
            let exact: f64 = w.iter().sum();
            assert!((w.sum() - exact).abs() < 1e-9);
        }
    }

    #[test]
    fn mean_median_trimmed() {
        let mut w = SlidingWindow::new(5);
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            w.push(v);
        }
        assert_eq!(w.mean(), Some(3.0));
        assert_eq!(w.median(), Some(3.0));
        // Trim 20% from each end of [1,2,3,4,5] -> [2,3,4].
        assert_eq!(w.trimmed_mean(0.2), Some(3.0));
        // Outlier resistance: replace oldest with a spike.
        w.push(100.0); // evicts 5.0 -> window [1,3,2,4,100]
        assert_eq!(w.median(), Some(3.0));
        assert!(w.mean().unwrap() > 20.0);
    }

    #[test]
    fn median_even_count() {
        let mut w = SlidingWindow::new(4);
        for v in [1.0, 2.0, 3.0, 4.0] {
            w.push(v);
        }
        assert_eq!(w.median(), Some(2.5));
    }

    #[test]
    fn empty_window_stats_are_none() {
        let w = SlidingWindow::new(4);
        assert_eq!(w.mean(), None);
        assert_eq!(w.median(), None);
        assert_eq!(w.trimmed_mean(0.1), None);
        assert_eq!(w.newest(), None);
        assert_eq!(w.oldest(), None);
    }

    #[test]
    fn clear_resets() {
        let mut w = SlidingWindow::new(2);
        w.push(1.0);
        w.push(2.0);
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.sum(), 0.0);
        w.push(9.0);
        assert_eq!(w.to_vec(), vec![9.0]);
    }

    #[test]
    #[should_panic(expected = "window capacity must be positive")]
    fn zero_capacity_panics() {
        SlidingWindow::new(0);
    }

    #[test]
    fn sum_refresh_bounds_drift() {
        let mut w = SlidingWindow::new(8);
        for i in 0..20_000 {
            w.push((i as f64).sin() * 1e6);
        }
        let exact: f64 = w.iter().sum();
        assert!((w.sum() - exact).abs() < 1e-3, "drift too large");
    }

    #[test]
    fn get_indexes_oldest_to_newest() {
        let mut w = SlidingWindow::new(3);
        assert_eq!(w.get(0), None);
        for v in [1.0, 2.0, 3.0, 4.0] {
            w.push(v);
        }
        assert_eq!(w.get(0), Some(2.0));
        assert_eq!(w.get(1), Some(3.0));
        assert_eq!(w.get(2), Some(4.0));
        assert_eq!(w.get(3), None);
    }

    #[test]
    fn iterator_size_hint() {
        let mut w = SlidingWindow::new(3);
        w.push(1.0);
        w.push(2.0);
        let it = w.iter();
        assert_eq!(it.size_hint(), (2, Some(2)));
        assert_eq!(it.len(), 2);
    }
}
