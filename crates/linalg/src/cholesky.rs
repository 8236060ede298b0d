//! Cholesky factorization for symmetric positive-definite systems.
//!
//! The fused evaluation kernel accumulates ridge-stabilized normal equations
//! `(XᵀX + λI) β = Xᵀy` while matching windows; the system matrix is
//! symmetric positive definite by construction, so Cholesky solves it in
//! `p³/3` flops — half of LU — without pivoting. A failed factorization
//! (possible only when the ridge term has underflowed relative to a wildly
//! scaled Gram matrix) is reported as [`LinalgError::Singular`] so callers
//! can fall back to the pivoted LU path.

use crate::error::LinalgError;
use crate::matrix::Matrix;

/// A diagonal entry smaller than `RELATIVE_DIAG_TOL * max|A|` is treated as
/// a loss of positive definiteness.
const RELATIVE_DIAG_TOL: f64 = 1e-14;

/// Result of `A = L * Lᵀ` for a symmetric positive-definite `A`.
#[derive(Debug, Clone)]
pub(crate) struct CholeskyDecomposition {
    /// Lower-triangular factor `L` (entries above the diagonal are zero).
    l: Matrix,
}

impl CholeskyDecomposition {
    /// Factorize a symmetric positive-definite matrix. Only the lower
    /// triangle (including the diagonal) of `a` is read, so callers that
    /// accumulate one triangle need not mirror it first.
    ///
    /// # Errors
    /// * [`LinalgError::ShapeMismatch`] when `a` is not square,
    /// * [`LinalgError::Empty`] for a 0x0 matrix,
    /// * [`LinalgError::NonFinite`] when `a` contains NaN/inf,
    /// * [`LinalgError::Singular`] when a diagonal pivot is not (numerically)
    ///   positive — `a` is not positive definite.
    pub(crate) fn new(a: &Matrix) -> Result<Self, LinalgError> {
        let (n, m) = a.shape();
        if n != m {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky",
                left: (n, m),
                right: (n, n),
            });
        }
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        // Scale and finiteness are judged on the lower triangle only — the
        // upper triangle is never read, so callers may leave it unset.
        let mut scale = 0.0_f64;
        for i in 0..n {
            for j in 0..=i {
                let v = a[(i, j)];
                if !v.is_finite() {
                    return Err(LinalgError::NonFinite);
                }
                scale = scale.max(v.abs());
            }
        }
        let tol = RELATIVE_DIAG_TOL * scale.max(1.0);

        let mut l = Matrix::zeros(n, n);
        for j in 0..n {
            // Diagonal: l_jj = sqrt(a_jj - Σ_{k<j} l_jk²).
            let mut diag = a[(j, j)];
            for k in 0..j {
                let v = l[(j, k)];
                diag -= v * v;
            }
            if !diag.is_finite() || diag <= tol {
                return Err(LinalgError::Singular);
            }
            let ljj = diag.sqrt();
            l[(j, j)] = ljj;

            // Column below the diagonal: l_ij = (a_ij - Σ_{k<j} l_ik l_jk) / l_jj.
            for i in (j + 1)..n {
                let mut v = a[(i, j)];
                for k in 0..j {
                    v -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = v / ljj;
            }
        }

        Ok(CholeskyDecomposition { l })
    }

    /// Order of the factorized matrix.
    pub(crate) fn order(&self) -> usize {
        self.l.rows()
    }

    /// Solve `A x = b` by forward substitution with `L` then back
    /// substitution with `Lᵀ`.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] when `b.len() != order`.
    pub(crate) fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.order();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky_solve",
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        let mut x = b.to_vec();
        // L z = b.
        for i in 0..n {
            let row = self.l.row(i);
            let mut sum = x[i];
            for (j, xj) in x.iter().enumerate().take(i) {
                sum -= row[j] * xj;
            }
            x[i] = sum / row[i];
        }
        // Lᵀ x = z (walk L by columns).
        for i in (0..n).rev() {
            let mut sum = x[i];
            for j in (i + 1)..n {
                sum -= self.l[(j, i)] * x[j];
            }
            x[i] = sum / self.l[(i, i)];
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu;
    use proptest::prelude::*;

    /// Build a random SPD matrix as `BᵀB + I`.
    fn spd_matrix(n: usize, seed: u64) -> Matrix {
        let b = Matrix::from_fn(n, n, |i, j| {
            (((i * 31 + j * 17) as u64 ^ seed) as f64 * 0.123).sin()
        });
        let mut a = Matrix::from_fn(n, n, |i, j| (0..n).map(|k| b[(k, i)] * b[(k, j)]).sum());
        for i in 0..n {
            a[(i, i)] += 1.0;
        }
        a
    }

    #[test]
    fn solve_identity() {
        let i = Matrix::identity(3);
        let b = [1.0, 2.0, 3.0];
        assert_eq!(
            CholeskyDecomposition::new(&i).unwrap().solve(&b).unwrap(),
            b.to_vec()
        );
    }

    #[test]
    fn solve_known_spd_system() {
        // A = [[4, 2], [2, 3]] (SPD), b = [10, 9] => x = [1.5, 2].
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let x = CholeskyDecomposition::new(&a)
            .unwrap()
            .solve(&[10.0, 9.0])
            .unwrap();
        assert!((x[0] - 1.5).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn reads_only_the_lower_triangle() {
        // Garbage above the diagonal must not affect the factorization.
        let full = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let mut lower_only = full.clone();
        lower_only[(0, 1)] = f64::MAX;
        let xa = CholeskyDecomposition::new(&full)
            .unwrap()
            .solve(&[10.0, 9.0])
            .unwrap();
        let xb = CholeskyDecomposition::new(&lower_only)
            .unwrap()
            .solve(&[10.0, 9.0])
            .unwrap();
        assert_eq!(xa, xb);
    }

    #[test]
    fn indefinite_matrix_rejected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert_eq!(
            CholeskyDecomposition::new(&a).unwrap_err(),
            LinalgError::Singular
        );
    }

    #[test]
    fn semidefinite_matrix_rejected() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]); // rank 1
        assert_eq!(
            CholeskyDecomposition::new(&a).unwrap_err(),
            LinalgError::Singular
        );
    }

    #[test]
    fn shape_and_content_errors() {
        assert!(matches!(
            CholeskyDecomposition::new(&Matrix::zeros(2, 3)),
            Err(LinalgError::ShapeMismatch { .. })
        ));
        assert_eq!(
            CholeskyDecomposition::new(&Matrix::zeros(0, 0)).unwrap_err(),
            LinalgError::Empty
        );
        let mut a = Matrix::identity(2);
        a[(1, 0)] = f64::NAN;
        assert_eq!(
            CholeskyDecomposition::new(&a).unwrap_err(),
            LinalgError::NonFinite
        );
        let ch = CholeskyDecomposition::new(&Matrix::identity(3)).unwrap();
        assert!(ch.solve(&[1.0, 2.0]).is_err());
    }

    proptest! {
        #[test]
        fn agrees_with_lu_on_spd_systems(n in 1usize..8, seed in 0u64..500) {
            let a = spd_matrix(n, seed);
            let b: Vec<f64> = (0..n).map(|i| ((i as f64) + 0.5).cos()).collect();
            let x_ch = CholeskyDecomposition::new(&a).unwrap().solve(&b).unwrap();
            let x_lu = lu::LuDecomposition::new(&a).unwrap().solve(&b).unwrap();
            for (got, want) in x_ch.iter().zip(x_lu.iter()) {
                prop_assert!((got - want).abs() < 1e-8);
            }
        }

        #[test]
        fn residual_small(n in 1usize..8, seed in 0u64..500) {
            let a = spd_matrix(n, seed);
            let b: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.7).sin()).collect();
            let x = CholeskyDecomposition::new(&a).unwrap().solve(&b).unwrap();
            let ax: Vec<f64> = (0..n).map(|i| crate::vector::dot_unchecked(a.row(i), &x)).collect();
            for (got, want) in ax.iter().zip(b.iter()) {
                prop_assert!((got - want).abs() < 1e-8);
            }
        }
    }
}
