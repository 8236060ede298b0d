//! The owned time-series container.

use crate::error::DataError;
use evoforecast_linalg::stats;
use serde::{Deserialize, Serialize};

/// An ordered sequence of equally spaced observations of one variable.
///
/// Construction validates finiteness once, so downstream code (windowing,
/// rule matching, regression) can assume clean data — NaN screening in the
/// evolutionary hot loop would be wasted work.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    name: String,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Build a named series, validating that every value is finite.
    ///
    /// # Errors
    /// * [`DataError::EmptySeries`] for empty input,
    /// * [`DataError::NonFinite`] with the first offending index.
    pub fn new(name: impl Into<String>, values: Vec<f64>) -> Result<Self, DataError> {
        if values.is_empty() {
            return Err(DataError::EmptySeries);
        }
        if let Some(index) = values.iter().position(|v| !v.is_finite()) {
            return Err(DataError::NonFinite { index });
        }
        Ok(TimeSeries {
            name: name.into(),
            values,
        })
    }

    /// Series name (used in reports and plots).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The observations, oldest first.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Always false: construction rejects empty series. Present to satisfy
    /// the `len`/`is_empty` API convention.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// `(min, max)` of the series.
    pub fn range(&self) -> (f64, f64) {
        stats::min_max(&self.values).expect("series is non-empty by construction")
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        stats::mean(&self.values).expect("series is non-empty by construction")
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        stats::std_dev(&self.values).expect("series is non-empty by construction")
    }

    /// A new series containing observations `[start, end)`.
    ///
    /// # Errors
    /// [`DataError::InvalidParameter`] when the range is empty or out of
    /// bounds.
    fn slice(&self, start: usize, end: usize) -> Result<TimeSeries, DataError> {
        if start >= end || end > self.values.len() {
            return Err(DataError::InvalidParameter(format!(
                "slice [{start}, {end}) invalid for series of length {}",
                self.values.len()
            )));
        }
        Ok(TimeSeries {
            name: format!("{}[{start}..{end}]", self.name),
            values: self.values[start..end].to_vec(),
        })
    }

    /// Discard the first `n` observations (e.g. integrator transients).
    ///
    /// # Errors
    /// [`DataError::InvalidParameter`] when fewer than `n + 1` points remain.
    pub(crate) fn discard_prefix(&self, n: usize) -> Result<TimeSeries, DataError> {
        if n >= self.values.len() {
            return Err(DataError::InvalidParameter(format!(
                "cannot discard {n} of {} points",
                self.values.len()
            )));
        }
        self.slice(n, self.values.len())
    }

    /// Lag-`k` autocorrelation; `None` for constant or too-short series.
    pub fn autocorrelation(&self, k: usize) -> Option<f64> {
        stats::autocorrelation(&self.values, k)
    }

    /// Consume the series, returning the raw values.
    pub fn into_values(self) -> Vec<f64> {
        self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(matches!(
            TimeSeries::new("x", vec![]),
            Err(DataError::EmptySeries)
        ));
        assert!(matches!(
            TimeSeries::new("x", vec![1.0, f64::NAN, 2.0]),
            Err(DataError::NonFinite { index: 1 })
        ));
        assert!(matches!(
            TimeSeries::new("x", vec![f64::NEG_INFINITY]),
            Err(DataError::NonFinite { index: 0 })
        ));
        let s = TimeSeries::new("tide", vec![1.0, 2.0]).unwrap();
        assert_eq!(s.name(), "tide");
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }

    #[test]
    fn summary_statistics() {
        let s = TimeSeries::new("x", vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.range(), (1.0, 4.0));
        assert_eq!(s.mean(), 2.5);
        assert!((s.std_dev() - 1.25f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn slicing() {
        let s = TimeSeries::new("x", vec![0.0, 1.0, 2.0, 3.0, 4.0]).unwrap();
        let mid = s.slice(1, 4).unwrap();
        assert_eq!(mid.values(), &[1.0, 2.0, 3.0]);
        assert!(mid.name().contains("1..4"));
        assert!(s.slice(3, 3).is_err());
        assert!(s.slice(0, 9).is_err());
        assert!(s.slice(4, 2).is_err());
    }

    #[test]
    fn discard_prefix_drops_transients() {
        let s = TimeSeries::new("x", vec![9.0, 9.0, 1.0, 2.0]).unwrap();
        let d = s.discard_prefix(2).unwrap();
        assert_eq!(d.values(), &[1.0, 2.0]);
        assert!(s.discard_prefix(4).is_err());
    }

    #[test]
    fn autocorrelation_delegates() {
        let vals: Vec<f64> = (0..32)
            .map(|i| (2.0 * std::f64::consts::PI * i as f64 / 8.0).sin())
            .collect();
        let s = TimeSeries::new("sine", vals).unwrap();
        assert!(s.autocorrelation(8).unwrap() > 0.5);
    }

    #[test]
    fn serde_round_trip() {
        let s = TimeSeries::new("x", vec![1.0, 2.5]).unwrap();
        let json = serde_json::to_string(&s).unwrap();
        let back: TimeSeries = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn into_values_returns_data() {
        let s = TimeSeries::new("x", vec![1.0, 2.0]).unwrap();
        assert_eq!(s.into_values(), vec![1.0, 2.0]);
    }
}
