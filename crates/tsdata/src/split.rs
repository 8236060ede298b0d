//! Chronological train/validation splits.
//!
//! Time series must be split in order — shuffling would leak future values
//! into training. [`split_at`] produces the `(train, validation)` views each
//! experiment's setup needs (Venice: 45 000 / 10 000; Mackey-Glass: samples
//! `[3500, 4500)` / `[4500, 5000)`; sunspots: by calendar date).

use crate::error::DataError;

/// Split at an absolute index: train is `[0, at)`, validation `[at, len)`.
///
/// # Errors
/// [`DataError::InvalidParameter`] when either side would be empty.
pub fn split_at(values: &[f64], at: usize) -> Result<(&[f64], &[f64]), DataError> {
    if at == 0 || at >= values.len() {
        return Err(DataError::InvalidParameter(format!(
            "split index {at} leaves an empty side (len {})",
            values.len()
        )));
    }
    Ok(values.split_at(at))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ramp(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64).collect()
    }

    #[test]
    fn split_at_basic() {
        let v = ramp(10);
        let (tr, va) = split_at(&v, 7).unwrap();
        assert_eq!(tr.len(), 7);
        assert_eq!(va.len(), 3);
        assert_eq!(tr[6], 6.0);
        assert_eq!(va[0], 7.0);
    }

    #[test]
    fn split_at_rejects_empty_sides() {
        let v = ramp(5);
        assert!(split_at(&v, 0).is_err());
        assert!(split_at(&v, 5).is_err());
        assert!(split_at(&v, 6).is_err());
    }

    proptest! {
        #[test]
        fn split_at_preserves_all_points(n in 2usize..256, frac in 0.01..0.99f64) {
            let v = ramp(n);
            let at = ((n as f64 * frac) as usize).clamp(1, n - 1);
            let (tr, va) = split_at(&v, at).unwrap();
            prop_assert_eq!(tr.len() + va.len(), n);
            // Chronological: last train value < first valid value on a ramp.
            prop_assert!(tr[tr.len() - 1] < va[0]);
        }
    }
}
