//! LU factorization with partial pivoting.
//!
//! The fallback of [`NormalEqAccumulator::solve`]: when extreme scaling
//! pushes the ridge-stabilized normal equations below Cholesky's
//! positive-definiteness tolerance, the system is solved again with row
//! pivoting.
//!
//! [`NormalEqAccumulator::solve`]: crate::regression::NormalEqAccumulator::solve

use crate::error::LinalgError;
use crate::matrix::Matrix;

/// Result of `P * A = L * U` with partial (row) pivoting.
#[derive(Debug, Clone)]
pub(crate) struct LuDecomposition {
    /// Combined storage: strictly-lower triangle holds `L` (unit diagonal
    /// implied), upper triangle holds `U`.
    lu: Matrix,
    /// Row permutation: `perm[i]` is the original row now in position `i`.
    perm: Vec<usize>,
}

/// Relative singularity threshold: a pivot smaller than
/// `RELATIVE_PIVOT_TOL * max|A|` is treated as zero.
const RELATIVE_PIVOT_TOL: f64 = 1e-13;

impl LuDecomposition {
    /// Factorize a square matrix.
    ///
    /// # Errors
    /// * [`LinalgError::ShapeMismatch`] when `a` is not square,
    /// * [`LinalgError::Empty`] for a 0x0 matrix,
    /// * [`LinalgError::NonFinite`] when `a` contains NaN/inf,
    /// * [`LinalgError::Singular`] when a pivot is (numerically) zero.
    pub(crate) fn new(a: &Matrix) -> Result<Self, LinalgError> {
        let (n, m) = a.shape();
        if n != m {
            return Err(LinalgError::ShapeMismatch {
                op: "lu",
                left: (n, m),
                right: (n, n),
            });
        }
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        if !a.all_finite() {
            return Err(LinalgError::NonFinite);
        }

        let scale = a.norm_max().max(1.0);
        let tol = RELATIVE_PIVOT_TOL * scale;

        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();

        for k in 0..n {
            // Find pivot row: the largest |entry| in column k at or below k.
            let mut pivot_row = k;
            let mut pivot_val = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = i;
                }
            }
            if pivot_val <= tol {
                return Err(LinalgError::Singular);
            }
            if pivot_row != k {
                // Swap full rows (both L and U parts) and the permutation.
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(pivot_row, j)];
                    lu[(pivot_row, j)] = tmp;
                }
                perm.swap(k, pivot_row);
            }

            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let factor = lu[(i, k)] / pivot;
                lu[(i, k)] = factor;
                if factor != 0.0 {
                    for j in (k + 1)..n {
                        let u_kj = lu[(k, j)];
                        lu[(i, j)] -= factor * u_kj;
                    }
                }
            }
        }

        Ok(LuDecomposition { lu, perm })
    }

    /// Order of the factorized matrix.
    pub(crate) fn order(&self) -> usize {
        self.lu.rows()
    }

    /// Solve `A x = b`.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] when `b.len() != order`.
    pub(crate) fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.order();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "lu_solve",
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        // Apply permutation: y = P b.
        let mut x: Vec<f64> = self.perm.iter().map(|&i| b[i]).collect();

        // Forward substitution with unit-diagonal L.
        for i in 1..n {
            let mut sum = x[i];
            let row = self.lu.row(i);
            for (j, xj) in x.iter().enumerate().take(i) {
                sum -= row[j] * xj;
            }
            x[i] = sum;
        }
        // Back substitution with U.
        for i in (0..n).rev() {
            let mut sum = x[i];
            let row = self.lu.row(i);
            for (j, xj) in x.iter().enumerate().skip(i + 1) {
                sum -= row[j] * xj;
            }
            x[i] = sum / row[i];
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn solve_identity() {
        let i = Matrix::identity(3);
        let b = [1.0, 2.0, 3.0];
        assert_eq!(
            LuDecomposition::new(&i).unwrap().solve(&b).unwrap(),
            b.to_vec()
        );
    }

    #[test]
    fn solve_known_system() {
        // 2x + y = 5 ; x + 3y = 10  => x = 1, y = 3
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x = LuDecomposition::new(&a)
            .unwrap()
            .solve(&[5.0, 10.0])
            .unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = LuDecomposition::new(&a)
            .unwrap()
            .solve(&[2.0, 3.0])
            .unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert_eq!(LuDecomposition::new(&a).unwrap_err(), LinalgError::Singular);
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            LuDecomposition::new(&a),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(
            LuDecomposition::new(&Matrix::zeros(0, 0)).unwrap_err(),
            LinalgError::Empty
        );
    }

    #[test]
    fn nan_rejected() {
        let mut a = Matrix::identity(2);
        a[(0, 1)] = f64::NAN;
        assert_eq!(
            LuDecomposition::new(&a).unwrap_err(),
            LinalgError::NonFinite
        );
    }

    #[test]
    fn rhs_length_checked() {
        let lu = LuDecomposition::new(&Matrix::identity(3)).unwrap();
        assert!(lu.solve(&[1.0, 2.0]).is_err());
    }

    /// Build a well-conditioned pseudo-random matrix: diagonally dominant.
    fn dd_matrix(n: usize, seed: u64) -> Matrix {
        let mut m = Matrix::from_fn(n, n, |i, j| {
            (((i * 31 + j * 17) as u64 ^ seed) as f64 * 0.123).sin()
        });
        for i in 0..n {
            let row_sum: f64 = m.row(i).iter().map(|x| x.abs()).sum();
            m[(i, i)] = row_sum + 1.0;
        }
        m
    }

    proptest! {
        #[test]
        fn residual_small_for_diag_dominant(n in 1usize..8, seed in 0u64..500) {
            let a = dd_matrix(n, seed);
            let b: Vec<f64> = (0..n).map(|i| ((i as f64) + 0.5).cos()).collect();
            let x = LuDecomposition::new(&a).unwrap().solve(&b).unwrap();
            let ax: Vec<f64> = (0..n).map(|i| crate::vector::dot_unchecked(a.row(i), &x)).collect();
            for (got, want) in ax.iter().zip(b.iter()) {
                prop_assert!((got - want).abs() < 1e-8);
            }
        }
    }
}
