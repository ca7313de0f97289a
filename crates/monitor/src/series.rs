//! Bounded time series with the statistics policy conditions need.

use std::collections::VecDeque;

/// A bounded sliding window of `f64` observations.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    window: usize,
    values: VecDeque<f64>,
    ewma: Option<f64>,
    alpha: f64,
}

impl TimeSeries {
    /// Creates a series keeping the last `window` observations, with EWMA
    /// smoothing factor `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or `alpha` outside `(0, 1]`.
    pub fn new(window: usize, alpha: f64) -> Self {
        assert!(window > 0, "window must be positive");
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1]");
        TimeSeries {
            window,
            values: VecDeque::with_capacity(window),
            ewma: None,
            alpha,
        }
    }

    /// A series with window 60 and alpha 0.2 — one minute of 1 Hz samples.
    pub fn standard() -> Self {
        TimeSeries::new(60, 0.2)
    }

    /// Appends an observation, evicting the oldest beyond the window.
    pub fn push(&mut self, value: f64) {
        if self.values.len() == self.window {
            self.values.pop_front();
        }
        self.values.push_back(value);
        self.ewma = Some(match self.ewma {
            None => value,
            Some(prev) => self.alpha * value + (1.0 - self.alpha) * prev,
        });
    }

    /// Number of stored observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no observations have been pushed.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arithmetic mean over the window.
    pub fn mean(&self) -> Option<f64> {
        if self.values.is_empty() {
            None
        } else {
            Some(self.values.iter().sum::<f64>() / self.values.len() as f64)
        }
    }

    /// Maximum over the window.
    pub fn max(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::max)
    }

    /// Exponentially weighted moving average.
    pub fn ewma(&self) -> Option<f64> {
        self.ewma
    }
}

impl Default for TimeSeries {
    fn default() -> Self {
        TimeSeries::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosgi_testkit::{prop, prop_verify};

    #[test]
    fn empty_series_returns_none() {
        let s = TimeSeries::standard();
        assert!(s.is_empty());
        assert_eq!(s.mean(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.ewma(), None);
    }

    #[test]
    fn stats_on_known_data() {
        let mut s = TimeSeries::new(10, 0.5);
        for v in [1.0, 2.0, 3.0, 4.0] {
            s.push(v);
        }
        assert_eq!(s.len(), 4);
        assert_eq!(s.mean(), Some(2.5));
        assert_eq!(s.max(), Some(4.0));
    }

    #[test]
    fn window_evicts_oldest() {
        let mut s = TimeSeries::new(3, 0.5);
        for v in [1.0, 2.0, 3.0, 4.0] {
            s.push(v);
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.mean(), Some(3.0), "1.0 left the window");
    }

    #[test]
    fn ewma_converges_toward_input() {
        let mut s = TimeSeries::new(100, 0.5);
        s.push(0.0);
        for _ in 0..20 {
            s.push(10.0);
        }
        let e = s.ewma().unwrap();
        assert!(e > 9.9 && e <= 10.0);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        let _ = TimeSeries::new(0, 0.5);
    }

    #[test]
    fn prop_mean_bounded_by_min_max() {
        let values = prop::vecs(prop::f64s(-1e6, 1e6), 1, 49);
        prop::check("prop_mean_bounded_by_min_max", &values, |values| {
            let mut s = TimeSeries::new(64, 0.3);
            for v in values {
                s.push(*v);
            }
            let min = values.iter().copied().fold(f64::INFINITY, f64::min);
            let (mean, max) = (s.mean().unwrap(), s.max().unwrap());
            prop_verify!(mean >= min - 1e-9 && mean <= max + 1e-9);
            Ok(())
        });
    }
}
