//! Normalization with exact inverses.
//!
//! The paper normalizes Mackey-Glass and the sunspot series into `[0, 1]`
//! before learning and reports errors in the normalized domain; Venice stays
//! in centimetres. Scalers are fitted on the *training* portion only and
//! applied to validation data, so the inverse transform is part of the API.

use crate::error::DataError;
use evoforecast_linalg::stats;
use serde::{Deserialize, Serialize};

/// Affine map of `[min, max]` onto `[lo, hi]` (`[0, 1]` when fitted).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MinMaxScaler {
    data_min: f64,
    data_max: f64,
    target_lo: f64,
    target_hi: f64,
}

impl MinMaxScaler {
    /// Fit to data, mapping its range onto `[0, 1]`.
    ///
    /// # Errors
    /// * [`DataError::EmptySeries`] for empty input,
    /// * [`DataError::DegenerateRange`] for constant input.
    pub fn fit(xs: &[f64]) -> Result<Self, DataError> {
        let (data_min, data_max) = stats::min_max(xs).ok_or(DataError::EmptySeries)?;
        if (data_max - data_min).abs() <= f64::EPSILON * data_max.abs().max(1.0) {
            return Err(DataError::DegenerateRange);
        }
        Ok(MinMaxScaler {
            data_min,
            data_max,
            target_lo: 0.0,
            target_hi: 1.0,
        })
    }

    /// Construct from known bounds (e.g. the paper's −50..150 cm for Venice).
    ///
    /// # Errors
    /// [`DataError::InvalidParameter`] when either range is empty.
    pub fn from_bounds(data_min: f64, data_max: f64, lo: f64, hi: f64) -> Result<Self, DataError> {
        if data_min >= data_max || lo >= hi {
            return Err(DataError::InvalidParameter(
                "from_bounds requires non-empty source and target ranges".into(),
            ));
        }
        Ok(MinMaxScaler {
            data_min,
            data_max,
            target_lo: lo,
            target_hi: hi,
        })
    }

    /// Transform one value into the normalized domain.
    pub fn transform(&self, x: f64) -> f64 {
        let unit = (x - self.data_min) / (self.data_max - self.data_min);
        self.target_lo + unit * (self.target_hi - self.target_lo)
    }

    /// Map a normalized value back to the original domain.
    pub fn inverse(&self, y: f64) -> f64 {
        let unit = (y - self.target_lo) / (self.target_hi - self.target_lo);
        self.data_min + unit * (self.data_max - self.data_min)
    }

    /// Transform a whole slice into a new vector.
    pub fn transform_slice(&self, xs: &[f64]) -> Vec<f64> {
        xs.iter().map(|&x| self.transform(x)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn minmax_maps_extremes() {
        let s = MinMaxScaler::fit(&[2.0, 4.0, 6.0]).unwrap();
        assert_eq!(s.transform(2.0), 0.0);
        assert_eq!(s.transform(6.0), 1.0);
        assert_eq!(s.transform(4.0), 0.5);
        assert_eq!((s.data_min, s.data_max), (2.0, 6.0));
    }

    #[test]
    fn minmax_from_bounds_venice_style() {
        let s = MinMaxScaler::from_bounds(-50.0, 150.0, 0.0, 1.0).unwrap();
        assert_eq!(s.transform(-50.0), 0.0);
        assert_eq!(s.transform(150.0), 1.0);
        assert_eq!(s.transform(50.0), 0.5);
        assert!(MinMaxScaler::from_bounds(5.0, 5.0, 0.0, 1.0).is_err());
        assert!(MinMaxScaler::from_bounds(0.0, 1.0, 2.0, 2.0).is_err());
    }

    #[test]
    fn minmax_rejects_degenerate() {
        assert!(matches!(
            MinMaxScaler::fit(&[]),
            Err(DataError::EmptySeries)
        ));
        assert!(matches!(
            MinMaxScaler::fit(&[3.0, 3.0, 3.0]),
            Err(DataError::DegenerateRange)
        ));
    }

    #[test]
    fn slice_helpers() {
        let s = MinMaxScaler::fit(&[0.0, 2.0]).unwrap();
        let t = s.transform_slice(&[0.0, 1.0, 2.0]);
        assert_eq!(t, vec![0.0, 0.5, 1.0]);
    }

    proptest! {
        #[test]
        fn minmax_round_trips(
            v in proptest::collection::vec(-1e6..1e6f64, 2..64),
            probe in -1e6..1e6f64,
        ) {
            prop_assume!(MinMaxScaler::fit(&v).is_ok());
            let s = MinMaxScaler::fit(&v).unwrap();
            let scale = (s.data_max - s.data_min).abs().max(1.0);
            prop_assert!((s.inverse(s.transform(probe)) - probe).abs() < 1e-7 * scale);
        }

        #[test]
        fn minmax_training_data_lands_in_unit_interval(
            v in proptest::collection::vec(-1e6..1e6f64, 2..64),
        ) {
            prop_assume!(MinMaxScaler::fit(&v).is_ok());
            let s = MinMaxScaler::fit(&v).unwrap();
            for &x in &v {
                let t = s.transform(x);
                prop_assert!((-1e-9..=1.0 + 1e-9).contains(&t));
            }
        }

        #[test]
        fn minmax_is_monotone(
            v in proptest::collection::vec(-1e4..1e4f64, 2..32),
            a in -1e4..1e4f64,
            b in -1e4..1e4f64,
        ) {
            prop_assume!(MinMaxScaler::fit(&v).is_ok());
            let s = MinMaxScaler::fit(&v).unwrap();
            if a <= b {
                prop_assert!(s.transform(a) <= s.transform(b) + 1e-12);
            } else {
                prop_assert!(s.transform(b) <= s.transform(a) + 1e-12);
            }
        }
    }
}
