//! Error type for linear-algebra operations.

use std::fmt;

/// Errors produced by factorizations, solvers and regressions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Operand shapes are incompatible (e.g. `A*B` with mismatched inner dims).
    ShapeMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Shape of the left operand as `(rows, cols)`.
        left: (usize, usize),
        /// Shape of the right operand as `(rows, cols)`.
        right: (usize, usize),
    },
    /// The matrix is singular (or numerically so) and cannot be solved.
    Singular,
    /// Input contained NaN or infinite values.
    NonFinite,
    /// The operation requires a non-empty input.
    Empty,
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::ShapeMismatch { op, left, right } => write!(
                f,
                "shape mismatch in {op}: left is {}x{}, right is {}x{}",
                left.0, left.1, right.0, right.1
            ),
            LinalgError::Singular => write!(f, "matrix is singular to working precision"),
            LinalgError::NonFinite => write!(f, "input contains NaN or infinite values"),
            LinalgError::Empty => write!(f, "operation requires non-empty input"),
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_shape_mismatch() {
        let e = LinalgError::ShapeMismatch {
            op: "matmul",
            left: (2, 3),
            right: (4, 5),
        };
        let s = e.to_string();
        assert!(s.contains("matmul"));
        assert!(s.contains("2x3"));
        assert!(s.contains("4x5"));
    }

    #[test]
    fn display_other_variants() {
        assert!(LinalgError::Singular.to_string().contains("singular"));
        assert!(LinalgError::NonFinite.to_string().contains("NaN"));
        assert!(LinalgError::Empty.to_string().contains("non-empty"));
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(LinalgError::Singular);
        assert!(!e.to_string().is_empty());
    }
}
