//! Naive forecasting baselines.
//!
//! Not neural, but they live with the other comparators: persistence, the
//! drift extrapolation, and the seasonal-naive rule. Any
//! learned forecaster that cannot beat these on a given series is not
//! learning anything — the integration tests hold the rule system to that
//! bar.

use crate::error::NeuralError;
use crate::Forecaster;

/// Predict the last window value (`x̂_{t+τ} = x_t`) — the classic
/// persistence / random-walk baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Persistence;

impl Forecaster for Persistence {
    fn forecast(&self, window: &[f64]) -> f64 {
        *window.last().expect("window is non-empty")
    }
}

/// Extrapolate the window's average slope `τ` steps past its end:
/// `x̂ = x_t + τ · (x_t − x_1)/(D−1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Drift {
    horizon: usize,
}

impl Drift {
    /// Build for a given horizon.
    ///
    /// # Errors
    /// [`NeuralError::InvalidConfig`] when `horizon == 0`.
    pub fn new(horizon: usize) -> Result<Drift, NeuralError> {
        if horizon == 0 {
            return Err(NeuralError::InvalidConfig("horizon must be >= 1".into()));
        }
        Ok(Drift { horizon })
    }
}

impl Forecaster for Drift {
    fn forecast(&self, window: &[f64]) -> f64 {
        let last = *window.last().expect("window is non-empty");
        if window.len() < 2 {
            return last;
        }
        let slope = (last - window[0]) / (window.len() - 1) as f64;
        last + slope * self.horizon as f64
    }
}

/// Seasonal-naive: predict the value one season back from the target, i.e.
/// the window entry `period − τ` positions before its end (when the window
/// is long enough to contain it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeasonalNaive {
    period: usize,
    horizon: usize,
}

impl SeasonalNaive {
    /// Build for a seasonal `period` and prediction `horizon`. The target
    /// sits `horizon` past the window end, so the same-phase history value
    /// is `period − horizon` before the end — which must lie inside the
    /// window (`horizon < period`, `window ≥ period − horizon`).
    ///
    /// # Errors
    /// [`NeuralError::InvalidConfig`] when `period == 0`, `horizon == 0`, or
    /// `horizon >= period`.
    pub fn new(period: usize, horizon: usize) -> Result<SeasonalNaive, NeuralError> {
        if period == 0 || horizon == 0 {
            return Err(NeuralError::InvalidConfig(
                "period and horizon must be >= 1".into(),
            ));
        }
        if horizon >= period {
            return Err(NeuralError::InvalidConfig(format!(
                "horizon {horizon} must be < period {period}"
            )));
        }
        Ok(SeasonalNaive { period, horizon })
    }
}

impl Forecaster for SeasonalNaive {
    fn forecast(&self, window: &[f64]) -> f64 {
        // Target index = last + horizon; one period earlier is
        // `period − horizon` positions before the last window entry.
        let back = self.period - self.horizon;
        if back < window.len() {
            window[window.len() - 1 - back]
        } else {
            // Window shorter than a season: fall back to persistence.
            *window.last().expect("window is non-empty")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn persistence_returns_last() {
        assert_eq!(Persistence.forecast(&[1.0, 2.0, 7.5]), 7.5);
        assert_eq!(Persistence.forecast(&[3.0]), 3.0);
    }

    #[test]
    fn drift_extrapolates_slope() {
        // Window [0, 1, 2, 3], slope 1, horizon 2 -> 5.
        let d = Drift::new(2).unwrap();
        assert_eq!(d.forecast(&[0.0, 1.0, 2.0, 3.0]), 5.0);
        // Single-point window: persistence fallback.
        assert_eq!(d.forecast(&[4.0]), 4.0);
        assert!(Drift::new(0).is_err());
    }

    #[test]
    fn drift_exact_on_linear_series() {
        let vals: Vec<f64> = (0..50).map(|i| 3.0 * i as f64 + 1.0).collect();
        let d = Drift::new(7).unwrap();
        for start in 0..40 {
            let window = &vals[start..start + 5];
            let predicted = d.forecast(window);
            let actual = 3.0 * (start + 4 + 7) as f64 + 1.0;
            assert!((predicted - actual).abs() < 1e-9);
        }
    }

    #[test]
    fn seasonal_naive_validation_and_lookup() {
        assert!(SeasonalNaive::new(0, 1).is_err());
        assert!(SeasonalNaive::new(12, 0).is_err());
        assert!(SeasonalNaive::new(12, 12).is_err());
        // period 4, horizon 1: target is last+1, same phase is 3 positions
        // before the last entry -> index 1 of a 5-long window.
        let s = SeasonalNaive::new(4, 1).unwrap();
        assert_eq!(s.forecast(&[10.0, 20.0, 30.0, 40.0, 50.0]), 20.0);
    }

    #[test]
    fn seasonal_naive_exact_on_periodic_series() {
        // Period-4 repeating series: seasonal naive is exact.
        let vals: Vec<f64> = (0..40).map(|i| [5.0, 1.0, -2.0, 8.0][i % 4]).collect();
        let s = SeasonalNaive::new(4, 2).unwrap();
        for start in 0..30 {
            let window = &vals[start..start + 6];
            let actual = vals[start + 5 + 2];
            assert_eq!(s.forecast(window), actual);
        }
    }

    #[test]
    fn seasonal_naive_short_window_falls_back() {
        let s = SeasonalNaive::new(10, 1).unwrap();
        // back = 9 >= window len 3: persistence.
        assert_eq!(s.forecast(&[1.0, 2.0, 3.0]), 3.0);
    }
}
