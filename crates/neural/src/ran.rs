//! Resource-Allocating Network (Platt, 1991).
//!
//! The Table 2 comparator for horizon 85. RAN learns *sequentially*: for
//! each observation it either allocates a new Gaussian unit (when the
//! prediction error is large **and** the input is far from every existing
//! center — the two novelty criteria) or adapts the existing parameters by
//! LMS gradient descent. The allocation distance threshold `δ(t)` shrinks
//! geometrically from `delta_max` to `delta_min`, so early units are coarse
//! and later ones refine.

use crate::error::NeuralError;
use crate::rbf::RbfUnit;
use crate::Forecaster;
use evoforecast_linalg::{vector, Matrix};
use serde::{Deserialize, Serialize};

/// RAN hyperparameters (names follow Platt's paper).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RanConfig {
    /// Error novelty threshold ε: allocate only when `|error| > epsilon`.
    pub epsilon: f64,
    /// Initial (largest) distance threshold.
    pub delta_max: f64,
    /// Final (smallest) distance threshold.
    pub delta_min: f64,
    /// Geometric decay factor of δ per observation (`0 < decay < 1`).
    pub decay: f64,
    /// Width overlap factor κ for newly allocated units.
    pub kappa: f64,
    /// LMS learning rate α for the gradient branch.
    pub learning_rate: f64,
    /// Hard cap on the number of units (resource limit).
    pub max_units: usize,
}

impl Default for RanConfig {
    fn default() -> Self {
        RanConfig {
            epsilon: 0.02,
            delta_max: 0.7,
            delta_min: 0.07,
            decay: 0.999,
            kappa: 0.87,
            learning_rate: 0.05,
            max_units: 200,
        }
    }
}

impl RanConfig {
    fn validate(&self) -> Result<(), NeuralError> {
        if !(self.epsilon >= 0.0 && self.epsilon.is_finite()) {
            return Err(NeuralError::InvalidConfig("epsilon must be >= 0".into()));
        }
        if !(self.delta_min > 0.0 && self.delta_max >= self.delta_min) {
            return Err(NeuralError::InvalidConfig(
                "need 0 < delta_min <= delta_max".into(),
            ));
        }
        if !(self.decay > 0.0 && self.decay < 1.0) {
            return Err(NeuralError::InvalidConfig("decay must be in (0, 1)".into()));
        }
        if !(self.kappa > 0.0 && self.learning_rate > 0.0) {
            return Err(NeuralError::InvalidConfig(
                "kappa and learning_rate must be positive".into(),
            ));
        }
        if self.max_units == 0 {
            return Err(NeuralError::InvalidConfig("max_units must be >= 1".into()));
        }
        Ok(())
    }
}

/// A Resource-Allocating Network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ran {
    config: RanConfig,
    inputs: usize,
    units: Vec<RbfUnit>,
    bias: f64,
    /// Current distance threshold δ(t).
    delta: f64,
    /// Observations consumed (drives the δ decay).
    seen: usize,
}

impl Ran {
    /// Create an empty network.
    ///
    /// # Errors
    /// [`NeuralError::InvalidConfig`] on bad hyperparameters.
    pub fn new(inputs: usize, config: RanConfig) -> Result<Ran, NeuralError> {
        if inputs == 0 {
            return Err(NeuralError::InvalidConfig("inputs must be >= 1".into()));
        }
        config.validate()?;
        Ok(Ran {
            config,
            inputs,
            units: Vec::new(),
            bias: 0.0,
            delta: config.delta_max,
            seen: 0,
        })
    }

    /// Number of allocated units.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// True before any unit is allocated.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// The units (for diagnostics / MRAN pruning stats).
    pub fn units(&self) -> &[RbfUnit] {
        &self.units
    }

    /// Mutable unit access for the MRAN wrapper.
    pub(crate) fn units_mut(&mut self) -> &mut Vec<RbfUnit> {
        &mut self.units
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

    /// Consume one observation; returns the *prior* prediction error.
    pub(crate) fn observe(&mut self, x: &[f64], y: f64) -> f64 {
        debug_assert_eq!(x.len(), self.inputs);
        // First observation initializes the bias to the first target, as in
        // Platt's formulation (f_0 = y_0).
        if self.seen == 0 && self.units.is_empty() {
            self.bias = y;
        }
        let prediction = self.predict(x);
        let error = y - prediction;

        // Distance to the nearest center.
        let nearest = self
            .units
            .iter()
            .map(|u| vector::dist2_sq(x, &u.center).sqrt())
            .fold(f64::INFINITY, f64::min);

        let novel_error = error.abs() > self.config.epsilon;
        let novel_input = nearest > self.delta;
        if novel_error && novel_input && self.units.len() < self.config.max_units {
            // Allocate: center at x, weight covers the error, width couples
            // to the distance of the nearest unit (or δ for the first).
            let width_basis = if nearest.is_finite() {
                nearest
            } else {
                self.delta
            };
            self.units.push(RbfUnit {
                center: x.to_vec(),
                width: (self.config.kappa * width_basis).max(1e-3),
                weight: error,
            });
        } else {
            // LMS adaptation of weights, bias and centers.
            let alpha = self.config.learning_rate;
            for u in &mut self.units {
                let phi = u.response(x);
                let w_grad = alpha * error * phi;
                // Center update: pull toward x proportionally to influence.
                let coef = 2.0 * alpha * error * u.weight * phi / (u.width * u.width);
                for (c, &xi) in u.center.iter_mut().zip(x.iter()) {
                    *c += coef * (xi - *c);
                }
                u.weight += w_grad;
            }
            self.bias += alpha * error;
        }

        self.seen += 1;
        self.delta = (self.delta * self.config.decay).max(self.config.delta_min);
        error
    }

    /// Sequential training over windows in time order; returns the running
    /// absolute error per observation.
    ///
    /// # Errors
    /// [`NeuralError::ShapeMismatch`] on inconsistent data,
    /// [`NeuralError::Diverged`] when predictions go non-finite.
    pub fn train(&mut self, xs: &Matrix, ys: &[f64]) -> Result<Vec<f64>, NeuralError> {
        if xs.cols() != self.inputs {
            return Err(NeuralError::ShapeMismatch {
                what: "input width",
                expected: self.inputs,
                actual: xs.cols(),
            });
        }
        if xs.rows() != ys.len() {
            return Err(NeuralError::ShapeMismatch {
                what: "targets",
                expected: xs.rows(),
                actual: ys.len(),
            });
        }
        let mut errors = Vec::with_capacity(xs.rows());
        for i in 0..xs.rows() {
            let e = self.observe(xs.row(i), ys[i]);
            if !e.is_finite() {
                return Err(NeuralError::Diverged { epoch: i });
            }
            errors.push(e.abs());
        }
        Ok(errors)
    }

    /// Current distance threshold δ(t) (for tests and diagnostics).
    pub fn delta(&self) -> f64 {
        self.delta
    }
}

impl Forecaster for Ran {
    fn forecast(&self, window: &[f64]) -> f64 {
        self.predict(window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave_dataset(n: usize, d: usize) -> (Matrix, Vec<f64>) {
        let vals: Vec<f64> = (0..n + d)
            .map(|i| 0.5 + 0.4 * (i as f64 * std::f64::consts::TAU / 30.0).sin())
            .collect();
        let xs = Matrix::from_fn(n, d, |i, j| vals[i + j]);
        let ys = (0..n).map(|i| vals[i + d]).collect();
        (xs, ys)
    }

    #[test]
    fn config_validation() {
        assert!(Ran::new(0, RanConfig::default()).is_err());
        let bad = RanConfig {
            delta_min: 0.0,
            ..Default::default()
        };
        assert!(Ran::new(3, bad).is_err());
        let bad = RanConfig {
            decay: 1.0,
            ..Default::default()
        };
        assert!(Ran::new(3, bad).is_err());
        let bad = RanConfig {
            max_units: 0,
            ..Default::default()
        };
        assert!(Ran::new(3, bad).is_err());
        let bad = RanConfig {
            epsilon: f64::NAN,
            ..Default::default()
        };
        assert!(Ran::new(3, bad).is_err());
    }

    #[test]
    fn allocates_units_on_novel_data() {
        let (xs, ys) = wave_dataset(400, 4);
        let mut ran = Ran::new(4, RanConfig::default()).unwrap();
        assert!(ran.is_empty());
        ran.train(&xs, &ys).unwrap();
        assert!(!ran.is_empty(), "RAN must allocate units");
        assert!(ran.len() <= 200);
    }

    #[test]
    fn sequential_learning_reduces_error() {
        let (xs, ys) = wave_dataset(600, 4);
        let mut ran = Ran::new(4, RanConfig::default()).unwrap();
        let errors = ran.train(&xs, &ys).unwrap();
        let early: f64 = errors[..50].iter().sum::<f64>() / 50.0;
        let late: f64 = errors[errors.len() - 50..].iter().sum::<f64>() / 50.0;
        assert!(
            late < early * 0.5,
            "late error {late} should undercut early error {early}"
        );
    }

    #[test]
    fn delta_decays_toward_minimum() {
        let (xs, ys) = wave_dataset(2000, 3);
        let cfg = RanConfig {
            decay: 0.99,
            ..Default::default()
        };
        let mut ran = Ran::new(3, cfg).unwrap();
        assert_eq!(ran.delta(), cfg.delta_max);
        ran.train(&xs, &ys).unwrap();
        assert!((ran.delta() - cfg.delta_min).abs() < 1e-9);
    }

    #[test]
    fn respects_unit_cap() {
        let (xs, ys) = wave_dataset(500, 3);
        let cfg = RanConfig {
            max_units: 5,
            epsilon: 0.0001,
            delta_min: 0.0001,
            delta_max: 0.001, // everything is "far" initially
            ..Default::default()
        };
        let mut ran = Ran::new(3, cfg).unwrap();
        ran.train(&xs, &ys).unwrap();
        assert!(ran.len() <= 5);
    }

    #[test]
    fn shape_checks() {
        let mut ran = Ran::new(3, RanConfig::default()).unwrap();
        assert!(ran.train(&Matrix::zeros(5, 2), &[0.0; 5]).is_err());
        assert!(ran.train(&Matrix::zeros(5, 3), &[0.0; 4]).is_err());
    }

    #[test]
    fn first_observation_sets_bias() {
        let mut ran = Ran::new(2, RanConfig::default()).unwrap();
        ran.observe(&[0.5, 0.5], 3.0);
        // With no units, prediction equals bias == first target.
        assert!((ran.predict(&[0.9, 0.9]) - 3.0).abs() < 0.5);
    }

    #[test]
    fn deterministic_no_rng_involved() {
        let (xs, ys) = wave_dataset(200, 3);
        let mut a = Ran::new(3, RanConfig::default()).unwrap();
        let mut b = Ran::new(3, RanConfig::default()).unwrap();
        a.train(&xs, &ys).unwrap();
        b.train(&xs, &ys).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn serde_round_trip() {
        let (xs, ys) = wave_dataset(100, 3);
        let mut ran = Ran::new(3, RanConfig::default()).unwrap();
        ran.train(&xs, &ys).unwrap();
        let json = serde_json::to_string(&ran).unwrap();
        let back: Ran = serde_json::from_str(&json).unwrap();
        assert_eq!(ran, back);
    }
}
