//! Dense linear algebra substrate for `evoforecast`.
//!
//! The rule system of Luque, Valls & Isasi (IPPS 2007) derives the predicting
//! part of every rule from an ordinary-least-squares fit over the training
//! windows matched by the rule's conditional part. This crate provides that
//! substrate from scratch — no external linear-algebra dependency:
//!
//! * [`Matrix`] — a row-major dense matrix,
//! * [`regression`] — the one least-squares solver: the streaming
//!   [`regression::NormalEqAccumulator`] builds the ridge normal equations
//!   and solves them by Cholesky, falling back to pivoted LU,
//! * [`stats`] — summary statistics used by generators, initializers and
//!   metrics (mean, variance, quantiles, autocorrelation),
//! * [`fft`] — the real FFT behind the spectral validation of the series.
//!
//! # Example
//!
//! ```
//! use evoforecast_linalg::regression::{NormalEqAccumulator, RowPack};
//!
//! // Fit y = 2*x0 + 1 exactly.
//! let xs: [&[f64]; 4] = [&[0.0], &[1.0], &[2.0], &[3.0]];
//! let ys = [1.0, 3.0, 5.0, 7.0];
//! let mut acc = NormalEqAccumulator::new(1, true);
//! acc.push_rows(&mut RowPack::new(), xs.into_iter().zip(ys));
//! let fit = acc.solve(1e-12).unwrap();
//! assert!((fit.coefficients()[0] - 2.0).abs() < 1e-9);
//! assert!((fit.intercept() - 1.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Numeric kernels below index several structures in lockstep (matrix rows,
// momentum buffers, context vectors); indexed loops state that intent more
// clearly than clippy's zip/enumerate rewrites.
#![allow(clippy::needless_range_loop)]

mod cholesky;
pub mod error;
pub mod fft;
mod lu;
mod matrix;
pub mod regression;
pub mod stats;
pub mod vector;

pub use error::LinalgError;
pub use matrix::Matrix;
pub use regression::{LinearRegression, RegressionOptions};
