//! Forecast error metrics.
//!
//! Each of the paper's three experiment tables uses a different error
//! measure, so the harness needs all of them under one roof:
//!
//! * **Table 1 (Venice)** — RMSE ([`rmse`]),
//! * **Table 2 (Mackey-Glass)** — NMSE, the MSE normalized by the variance of
//!   the target ([`nmse`]),
//! * **Table 3 (sunspots)** — `e = 1/(2(N+τ)) Σ (x − x̃)²` ([`half_mse`]),
//!
//! plus the "percentage of prediction" column every table reports, handled by
//! [`coverage::CoverageAccumulator`] because the rule system *abstains* on
//! windows no rule matches.
//!
//! All paired metrics skip abstentions when fed through
//! [`PairedErrors`], so an experiment computes error-over-predicted
//! and coverage in one pass, exactly like the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compare;
pub mod coverage;
pub mod error;
mod paired;
pub mod report;

pub use compare::{bootstrap_rmse_diff, BootstrapComparison};
pub use coverage::CoverageAccumulator;
pub use error::MetricError;
pub use paired::PairedErrors;
pub use report::EvaluationReport;

use evoforecast_linalg::stats;

fn check_lengths(actual: &[f64], predicted: &[f64]) -> Result<(), MetricError> {
    if actual.len() != predicted.len() {
        return Err(MetricError::LengthMismatch {
            actual: actual.len(),
            predicted: predicted.len(),
        });
    }
    if actual.is_empty() {
        return Err(MetricError::Empty);
    }
    Ok(())
}

/// Mean squared error.
///
/// # Errors
/// [`MetricError::LengthMismatch`] / [`MetricError::Empty`].
pub fn mse(actual: &[f64], predicted: &[f64]) -> Result<f64, MetricError> {
    check_lengths(actual, predicted)?;
    let sum: f64 = actual
        .iter()
        .zip(predicted.iter())
        .map(|(&a, &p)| (a - p) * (a - p))
        .sum();
    Ok(sum / actual.len() as f64)
}

/// Root mean squared error — the measure in the paper's Table 1.
///
/// # Errors
/// Same as [`mse`].
pub fn rmse(actual: &[f64], predicted: &[f64]) -> Result<f64, MetricError> {
    mse(actual, predicted).map(f64::sqrt)
}

/// Mean absolute error.
///
/// # Errors
/// Same as [`mse`].
pub fn mae(actual: &[f64], predicted: &[f64]) -> Result<f64, MetricError> {
    check_lengths(actual, predicted)?;
    let sum: f64 = actual
        .iter()
        .zip(predicted.iter())
        .map(|(&a, &p)| (a - p).abs())
        .sum();
    Ok(sum / actual.len() as f64)
}

/// Maximum absolute error.
///
/// # Errors
/// Same as [`mse`].
pub fn max_abs_error(actual: &[f64], predicted: &[f64]) -> Result<f64, MetricError> {
    check_lengths(actual, predicted)?;
    Ok(actual
        .iter()
        .zip(predicted.iter())
        .map(|(&a, &p)| (a - p).abs())
        .fold(0.0_f64, f64::max))
}

/// Normalized mean squared error: `MSE / Var(actual)` — the measure used for
/// the Mackey-Glass comparison (Table 2). An NMSE of 1.0 means "no better
/// than predicting the mean".
///
/// # Errors
/// [`MetricError::Degenerate`] when the actual series is constant, plus the
/// usual length/emptiness errors.
pub fn nmse(actual: &[f64], predicted: &[f64]) -> Result<f64, MetricError> {
    let m = mse(actual, predicted)?;
    let var = stats::variance(actual).ok_or(MetricError::Empty)?;
    if var <= f64::EPSILON {
        return Err(MetricError::Degenerate(
            "actual series is constant; NMSE undefined",
        ));
    }
    Ok(m / var)
}

/// The paper's sunspot error (Table 3): `e = 1/(2(N+τ)) Σ_{i=0}^{N} (x(i) − x̃(i))²`
/// where `N + 1` points are evaluated and `τ` is the prediction horizon.
///
/// `horizon` is the paper's `τ`. The sum runs over all provided pairs.
///
/// # Errors
/// Same as [`mse`].
pub fn half_mse(actual: &[f64], predicted: &[f64], horizon: usize) -> Result<f64, MetricError> {
    check_lengths(actual, predicted)?;
    let sum: f64 = actual
        .iter()
        .zip(predicted.iter())
        .map(|(&a, &p)| (a - p) * (a - p))
        .sum();
    // Paper indexes i = 0..N inclusive, so N = len - 1.
    let n = actual.len() - 1;
    Ok(sum / (2.0 * (n + horizon) as f64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const A: [f64; 4] = [1.0, 2.0, 3.0, 4.0];
    const P: [f64; 4] = [1.5, 2.0, 2.0, 5.0];

    #[test]
    fn mse_known_value() {
        // Squared errors: 0.25, 0, 1, 1 -> mean 0.5625
        assert!((mse(&A, &P).unwrap() - 0.5625).abs() < 1e-12);
    }

    #[test]
    fn rmse_is_sqrt_mse() {
        assert!((rmse(&A, &P).unwrap() - 0.5625f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn mae_and_max_error() {
        assert!((mae(&A, &P).unwrap() - 0.625).abs() < 1e-12);
        assert!((max_abs_error(&A, &P).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_prediction_is_zero_everywhere() {
        assert_eq!(mse(&A, &A).unwrap(), 0.0);
        assert_eq!(rmse(&A, &A).unwrap(), 0.0);
        assert_eq!(mae(&A, &A).unwrap(), 0.0);
        assert_eq!(max_abs_error(&A, &A).unwrap(), 0.0);
        assert_eq!(nmse(&A, &A).unwrap(), 0.0);
        assert_eq!(half_mse(&A, &A, 5).unwrap(), 0.0);
    }

    #[test]
    fn length_mismatch_and_empty() {
        assert!(matches!(
            mse(&A, &P[..3]),
            Err(MetricError::LengthMismatch { .. })
        ));
        assert!(matches!(mse(&[], &[]), Err(MetricError::Empty)));
    }

    #[test]
    fn nmse_of_mean_predictor_is_one() {
        let actual = [1.0, 2.0, 3.0, 4.0, 5.0];
        let mean = 3.0;
        let predicted = [mean; 5];
        assert!((nmse(&actual, &predicted).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nmse_constant_actual_degenerate() {
        assert!(matches!(
            nmse(&[2.0, 2.0], &[1.0, 3.0]),
            Err(MetricError::Degenerate(_))
        ));
    }

    #[test]
    fn half_mse_matches_formula() {
        // N = 3 (4 points), tau = 2 -> divide by 2*(3+2) = 10.
        let sum_sq = 0.25 + 0.0 + 1.0 + 1.0;
        assert!((half_mse(&A, &P, 2).unwrap() - sum_sq / 10.0).abs() < 1e-12);
    }

    #[test]
    fn half_mse_horizon_zero() {
        // N = 3, tau = 0 -> divide by 6.
        let v = half_mse(&A, &P, 0).unwrap();
        assert!((v - 2.25 / 6.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn rmse_bounded_by_max_error(
            pairs in proptest::collection::vec((-1e3..1e3f64, -1e3..1e3f64), 1..64)
        ) {
            let actual: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let predicted: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            let r = rmse(&actual, &predicted).unwrap();
            let mx = max_abs_error(&actual, &predicted).unwrap();
            let ma = mae(&actual, &predicted).unwrap();
            prop_assert!(r <= mx + 1e-9);
            prop_assert!(ma <= r + 1e-9); // MAE <= RMSE (Jensen)
        }

        #[test]
        fn mse_shift_invariant(
            pairs in proptest::collection::vec((-1e3..1e3f64, -1e3..1e3f64), 1..64),
            shift in -1e3..1e3f64,
        ) {
            let actual: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let predicted: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            let shifted_a: Vec<f64> = actual.iter().map(|x| x + shift).collect();
            let shifted_p: Vec<f64> = predicted.iter().map(|x| x + shift).collect();
            let m1 = mse(&actual, &predicted).unwrap();
            let m2 = mse(&shifted_a, &shifted_p).unwrap();
            prop_assert!((m1 - m2).abs() < 1e-6 * (1.0 + m1.abs()));
        }

        #[test]
        fn metrics_nonnegative(
            pairs in proptest::collection::vec((-1e2..1e2f64, -1e2..1e2f64), 2..64)
        ) {
            let actual: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let predicted: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            prop_assert!(mse(&actual, &predicted).unwrap() >= 0.0);
            prop_assert!(mae(&actual, &predicted).unwrap() >= 0.0);
            prop_assert!(half_mse(&actual, &predicted, 3).unwrap() >= 0.0);
        }
    }
}
