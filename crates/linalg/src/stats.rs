//! Summary statistics over `f64` slices.
//!
//! Used by the series generators (to calibrate surge magnitudes), the
//! scalers and the engine configuration (both need min/max), and the metrics
//! crate (NMSE needs the target variance).

use crate::error::LinalgError;

/// Arithmetic mean; `None` for an empty slice.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// Population variance (divides by `n`); `None` for an empty slice.
pub fn variance(xs: &[f64]) -> Option<f64> {
    let m = mean(xs)?;
    Some(xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64)
}

/// Population standard deviation; `None` for an empty slice.
pub fn std_dev(xs: &[f64]) -> Option<f64> {
    variance(xs).map(f64::sqrt)
}

/// Minimum value; `None` for an empty slice. NaNs are ignored.
pub fn min(xs: &[f64]) -> Option<f64> {
    xs.iter()
        .copied()
        .filter(|x| !x.is_nan())
        .fold(None, |acc, x| Some(acc.map_or(x, |a: f64| a.min(x))))
}

/// Maximum value; `None` for an empty slice. NaNs are ignored.
pub fn max(xs: &[f64]) -> Option<f64> {
    xs.iter()
        .copied()
        .filter(|x| !x.is_nan())
        .fold(None, |acc, x| Some(acc.map_or(x, |a: f64| a.max(x))))
}

/// `(min, max)` in a single pass; `None` for empty input. NaNs are ignored.
pub fn min_max(xs: &[f64]) -> Option<(f64, f64)> {
    let mut it = xs.iter().copied().filter(|x| !x.is_nan());
    let first = it.next()?;
    let mut lo = first;
    let mut hi = first;
    for x in it {
        if x < lo {
            lo = x;
        }
        if x > hi {
            hi = x;
        }
    }
    Some((lo, hi))
}

/// Linear-interpolation quantile, `q ∈ [0, 1]`.
///
/// # Errors
/// * [`LinalgError::Empty`] for empty input,
/// * [`LinalgError::NonFinite`] when `q` is outside `[0,1]` or data has NaN.
pub fn quantile(xs: &[f64], q: f64) -> Result<f64, LinalgError> {
    if xs.is_empty() {
        return Err(LinalgError::Empty);
    }
    if !(0.0..=1.0).contains(&q) || xs.iter().any(|x| x.is_nan()) {
        return Err(LinalgError::NonFinite);
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN after screening"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Ok(sorted[lo] + frac * (sorted[hi] - sorted[lo]))
}

/// Median (0.5 quantile).
///
/// # Errors
/// Same as [`quantile`].
pub fn median(xs: &[f64]) -> Result<f64, LinalgError> {
    quantile(xs, 0.5)
}

/// Lag-`k` autocorrelation of a series; `None` when the series is constant or
/// shorter than `k + 2`.
pub fn autocorrelation(xs: &[f64], k: usize) -> Option<f64> {
    if xs.len() < k + 2 {
        return None;
    }
    let m = mean(xs)?;
    let var: f64 = xs.iter().map(|x| (x - m) * (x - m)).sum();
    if var <= f64::EPSILON {
        return None;
    }
    let num: f64 = (0..xs.len() - k)
        .map(|i| (xs[i] - m) * (xs[i + k] - m))
        .sum();
    Some(num / var)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mean_variance_basic() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), Some(2.5));
        assert_eq!(variance(&xs), Some(1.25));
        assert!((std_dev(&xs).unwrap() - 1.25f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(mean(&[]), None);
        assert_eq!(variance(&[]), None);
        assert_eq!(min(&[]), None);
        assert_eq!(max(&[]), None);
        assert_eq!(min_max(&[]), None);
        assert!(quantile(&[], 0.5).is_err());
    }

    #[test]
    fn min_max_ignores_nan() {
        let xs = [3.0, f64::NAN, -1.0, 2.0];
        assert_eq!(min(&xs), Some(-1.0));
        assert_eq!(max(&xs), Some(3.0));
        assert_eq!(min_max(&xs), Some((-1.0, 3.0)));
        assert_eq!(min_max(&[f64::NAN]), None);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0).unwrap(), 1.0);
        assert_eq!(quantile(&xs, 1.0).unwrap(), 4.0);
        assert!((median(&xs).unwrap() - 2.5).abs() < 1e-12);
        assert!((quantile(&xs, 1.0 / 3.0).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_rejects_bad_q_and_nan() {
        assert!(quantile(&[1.0], 1.5).is_err());
        assert!(quantile(&[1.0], -0.1).is_err());
        assert!(quantile(&[f64::NAN], 0.5).is_err());
    }

    #[test]
    fn autocorrelation_of_periodic_signal() {
        let xs: Vec<f64> = (0..64)
            .map(|i| (2.0 * std::f64::consts::PI * i as f64 / 8.0).cos())
            .collect();
        // Period 8: lag-8 autocorrelation should be strongly positive,
        // lag-4 (half period) strongly negative.
        assert!(autocorrelation(&xs, 8).unwrap() > 0.7);
        assert!(autocorrelation(&xs, 4).unwrap() < -0.7);
        assert_eq!(autocorrelation(&[1.0, 1.0, 1.0, 1.0], 1), None);
        assert_eq!(autocorrelation(&[1.0], 4), None);
    }

    proptest! {
        #[test]
        fn variance_nonnegative(v in proptest::collection::vec(-1e6..1e6f64, 1..64)) {
            prop_assert!(variance(&v).unwrap() >= 0.0);
        }

        #[test]
        fn mean_within_bounds(v in proptest::collection::vec(-1e6..1e6f64, 1..64)) {
            let m = mean(&v).unwrap();
            let (lo, hi) = min_max(&v).unwrap();
            prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
        }

        #[test]
        fn quantile_monotone(
            v in proptest::collection::vec(-1e3..1e3f64, 2..64),
            q1 in 0.0..1.0f64,
            q2 in 0.0..1.0f64,
        ) {
            let (a, b) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            prop_assert!(quantile(&v, a).unwrap() <= quantile(&v, b).unwrap() + 1e-12);
        }
    }
}
