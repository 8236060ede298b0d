//! Gaussian radial-basis-function network with fixed centers.
//!
//! The shared substrate of RAN/MRAN and a baseline in its own right: centers
//! are sampled from the training inputs, widths set by the nearest-neighbor
//! heuristic, and the linear readout is fitted by ridge least squares with a
//! tiny penalty (the lazy-RBF comparison of Valls et al. 2004 used networks
//! of this family).

use crate::error::NeuralError;
use crate::Forecaster;
use evoforecast_linalg::regression::{NormalEqAccumulator, RowPack};
use evoforecast_linalg::{vector, Matrix};
use rand::seq::SliceRandom;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Ridge penalty of the readout solve, relative to the mean Gram diagonal:
/// small enough that a well-posed readout is the least-squares one, large
/// enough to carry coincident centers.
const READOUT_RIDGE: f64 = 1e-8;

/// A Gaussian RBF unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RbfUnit {
    /// Center vector (dimension = input width).
    pub center: Vec<f64>,
    /// Width σ of the Gaussian.
    pub width: f64,
    /// Readout weight.
    pub weight: f64,
}

impl RbfUnit {
    /// Gaussian response `exp(-||x - c||² / (2σ²))`.
    #[inline]
    pub fn response(&self, x: &[f64]) -> f64 {
        let d2 = vector::dist2_sq(x, &self.center);
        (-d2 / (2.0 * self.width * self.width)).exp()
    }
}

/// RBF network: Gaussian units plus a linear readout with bias.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RbfNetwork {
    units: Vec<RbfUnit>,
    bias: f64,
    inputs: usize,
}

impl RbfNetwork {
    /// Train: sample `centers` rows of `xs` as unit centers, set each width
    /// to the distance to its nearest fellow center (times an overlap factor
    /// of 1.5, floored to a small epsilon), then solve the readout by least
    /// squares.
    ///
    /// # Errors
    /// * [`NeuralError::InvalidConfig`] on zero centers,
    /// * [`NeuralError::ShapeMismatch`] on inconsistent data,
    /// * [`NeuralError::Diverged`] if the readout solve fails entirely.
    pub fn train(
        xs: &Matrix,
        ys: &[f64],
        centers: usize,
        seed: u64,
    ) -> Result<RbfNetwork, NeuralError> {
        if centers == 0 {
            return Err(NeuralError::InvalidConfig(
                "need at least one center".into(),
            ));
        }
        if xs.rows() != ys.len() {
            return Err(NeuralError::ShapeMismatch {
                what: "targets",
                expected: xs.rows(),
                actual: ys.len(),
            });
        }
        if xs.rows() == 0 || xs.cols() == 0 {
            return Err(NeuralError::ShapeMismatch {
                what: "observations",
                expected: 1,
                actual: 0,
            });
        }
        let centers = centers.min(xs.rows());

        // Sample distinct training rows as centers.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut idx: Vec<usize> = (0..xs.rows()).collect();
        idx.shuffle(&mut rng);
        let center_vecs: Vec<Vec<f64>> =
            idx[..centers].iter().map(|&i| xs.row(i).to_vec()).collect();
        let inputs = xs.cols();

        // Nearest-neighbor widths.
        let widths: Vec<f64> = center_vecs
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let nearest = center_vecs
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, other)| vector::dist2_sq(c, other).sqrt())
                    .fold(f64::INFINITY, f64::min);
                let w = if nearest.is_finite() {
                    nearest * 1.5
                } else {
                    1.0
                };
                w.max(1e-3)
            })
            .collect();

        let mut units: Vec<RbfUnit> = center_vecs
            .into_iter()
            .zip(widths)
            .map(|(center, width)| RbfUnit {
                center,
                width,
                weight: 0.0,
            })
            .collect();

        // Design matrix of unit responses; readout solved by ridge normal
        // equations with a tiny penalty.
        let phi = Matrix::from_fn(xs.rows(), units.len(), |i, j| units[j].response(xs.row(i)));
        let mut acc = NormalEqAccumulator::new(units.len(), true);
        let rows = (0..phi.rows()).map(|i| phi.row(i)).zip(ys.iter().copied());
        acc.push_rows(&mut RowPack::new(), rows);
        let fit = acc
            .solve(READOUT_RIDGE)
            .map_err(|_| NeuralError::Diverged { epoch: 0 })?;
        for (u, &w) in units.iter_mut().zip(fit.coefficients()) {
            u.weight = w;
        }

        Ok(RbfNetwork {
            units,
            bias: fit.intercept(),
            inputs,
        })
    }

    /// Predict one window.
    pub fn predict(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.inputs);
        self.bias
            + self
                .units
                .iter()
                .map(|u| u.weight * u.response(x))
                .sum::<f64>()
    }

    /// Number of RBF units.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// True when the network has no units.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// The units (for diagnostics).
    pub fn units(&self) -> &[RbfUnit] {
        &self.units
    }
}

impl Forecaster for RbfNetwork {
    fn forecast(&self, window: &[f64]) -> f64 {
        self.predict(window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave_dataset(n: usize, d: usize) -> (Matrix, Vec<f64>) {
        let vals: Vec<f64> = (0..n + d)
            .map(|i| (i as f64 * std::f64::consts::TAU / 25.0).sin())
            .collect();
        let xs = Matrix::from_fn(n, d, |i, j| vals[i + j]);
        let ys = (0..n).map(|i| vals[i + d]).collect();
        (xs, ys)
    }

    #[test]
    fn unit_response_properties() {
        let u = RbfUnit {
            center: vec![0.0, 0.0],
            width: 1.0,
            weight: 1.0,
        };
        assert!((u.response(&[0.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!(u.response(&[3.0, 0.0]) < u.response(&[1.0, 0.0]));
        assert!(u.response(&[100.0, 0.0]) < 1e-10);
    }

    #[test]
    fn validation_errors() {
        let (xs, ys) = wave_dataset(50, 3);
        assert!(RbfNetwork::train(&xs, &ys, 0, 1).is_err());
        assert!(RbfNetwork::train(&xs, &ys[..10], 5, 1).is_err());
        assert!(RbfNetwork::train(&Matrix::zeros(0, 3), &[], 5, 1).is_err());
    }

    #[test]
    fn fits_smooth_function_well() {
        let (xs, ys) = wave_dataset(300, 4);
        let net = RbfNetwork::train(&xs, &ys, 30, 7).unwrap();
        let mse: f64 = (0..xs.rows())
            .map(|i| {
                let e = net.predict(xs.row(i)) - ys[i];
                e * e
            })
            .sum::<f64>()
            / xs.rows() as f64;
        // Loose enough to be robust to which rows the seeded shuffle picks
        // as centers; a bad fit on this wave is an order of magnitude worse.
        assert!(mse < 5e-3, "training MSE {mse}");
        assert_eq!(net.len(), 30);
        assert!(!net.is_empty());
    }

    #[test]
    fn centers_capped_by_rows() {
        let (xs, ys) = wave_dataset(10, 2);
        let net = RbfNetwork::train(&xs, &ys, 100, 3).unwrap();
        assert!(net.len() <= 10);
    }

    #[test]
    fn deterministic_given_seed() {
        let (xs, ys) = wave_dataset(80, 3);
        let a = RbfNetwork::train(&xs, &ys, 10, 11).unwrap();
        let b = RbfNetwork::train(&xs, &ys, 10, 11).unwrap();
        assert_eq!(a, b);
        let c = RbfNetwork::train(&xs, &ys, 10, 12).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn forecaster_trait_and_serde() {
        let (xs, ys) = wave_dataset(60, 3);
        let net = RbfNetwork::train(&xs, &ys, 8, 1).unwrap();
        let w = [0.1, 0.2, 0.3];
        assert_eq!(net.forecast(&w), net.predict(&w));
        // JSON can lose an ULP per float, so compare behaviour, not bits.
        let json = serde_json::to_string(&net).unwrap();
        let back: RbfNetwork = serde_json::from_str(&json).unwrap();
        assert_eq!(net.len(), back.len());
        assert!((net.predict(&w) - back.predict(&w)).abs() < 1e-9);
    }
}
