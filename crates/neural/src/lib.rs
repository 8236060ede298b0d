//! Neural-network baselines for `evoforecast`.
//!
//! The paper compares its rule system against published neural results:
//!
//! * **Table 1 (Venice)** — a multilayer feedforward network (Zaldívar et
//!   al. 2000) → [`mlp::Mlp`],
//! * **Table 2 (Mackey-Glass)** — RAN (Platt 1991) and MRAN (Yingwei,
//!   Sundararajan & Saratchandran 1997) → [`ran::Ran`] / [`mran::Mran`],
//! * **Table 3 (sunspots)** — feedforward and recurrent networks (Galván &
//!   Isasi 2001) → [`mlp::Mlp`] and [`elman::Elman`].
//!
//! All comparators are re-implemented from scratch so the benchmark harness
//! regenerates *both* columns of every table on the same data. A classic
//! fixed-center RBF network ([`rbf::RbfNetwork`]) is included as the shared
//! substrate of RAN/MRAN and as an extra baseline.
//!
//! Every trainer is deterministic given its seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Numeric kernels below index several structures in lockstep (matrix rows,
// momentum buffers, context vectors); indexed loops state that intent more
// clearly than clippy's zip/enumerate rewrites.
#![allow(clippy::needless_range_loop)]

mod activation;
pub mod elman;
pub mod error;
pub mod mlp;
pub mod mran;
pub mod naive;
pub mod ran;
pub mod rbf;

pub use activation::Activation;
pub use elman::Elman;
pub use error::NeuralError;
pub use mlp::Mlp;
pub use mran::Mran;
pub use naive::{Drift, Persistence, SeasonalNaive};
pub use ran::Ran;
pub use rbf::RbfNetwork;

/// One-step-ahead forecaster interface shared by all baselines, mirroring
/// the rule system's predictor so the bench harness can treat every system
/// uniformly (baselines never abstain — their "coverage" is always 100 %).
pub trait Forecaster {
    /// Predict the horizon-τ target from a window of `D` values.
    fn forecast(&self, window: &[f64]) -> f64;
}
