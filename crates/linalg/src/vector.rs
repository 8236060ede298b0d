//! Vector (slice) operations used throughout the workspace.
//!
//! These are free functions over `&[f64]` rather than a wrapper type: the rest
//! of the workspace stores series and windows as plain slices, and keeping the
//! data representation transparent avoids conversions in the hot rule-matching
//! path.

/// Dot product without the length check; callers must guarantee equal lengths.
#[inline]
pub fn dot_unchecked(a: &[f64], b: &[f64]) -> f64 {
    // Iterate over zipped slices so the compiler can elide bounds checks and
    // vectorize (see the perf-book guidance on iteration vs indexing).
    a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum()
}

/// Infinity norm (maximum absolute value); `0.0` for an empty slice.
#[inline]
pub(crate) fn norm_inf(a: &[f64]) -> f64 {
    a.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
}

/// `y += alpha * x` in place.
///
/// # Panics
/// Panics in debug builds when lengths differ (hot-path helper).
#[inline]
pub(crate) fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
}

/// Squared Euclidean distance between two equal-length slices.
#[inline]
pub fn dist2_sq(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dist2_sq length mismatch");
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// True when every element is finite (no NaN / ±inf).
#[inline]
pub(crate) fn all_finite(a: &[f64]) -> bool {
    a.iter().all(|x| x.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norm_inf_is_max_abs() {
        let v = [3.0, -4.0];
        assert!((norm_inf(&v) - 4.0).abs() < 1e-12);
        assert_eq!(norm_inf(&[]), 0.0);
    }

    #[test]
    fn axpy_accumulates() {
        let x = [1.0, 2.0];
        let mut y = [10.0, 20.0];
        axpy(0.5, &x, &mut y);
        assert_eq!(y, [10.5, 21.0]);
    }

    #[test]
    fn squared_distance() {
        assert!((dist2_sq(&[3.0, 5.0], &[1.0, 1.0]) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn finite_detection() {
        assert!(all_finite(&[0.0, 1.0, -1.0]));
        assert!(!all_finite(&[0.0, f64::NAN]));
        assert!(!all_finite(&[f64::INFINITY]));
        assert!(all_finite(&[]));
    }
}
