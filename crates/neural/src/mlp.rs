//! Multilayer perceptron trained by backpropagation.
//!
//! The feedforward comparator of Tables 1 and 3: a single sigmoid hidden
//! layer with a linear output unit, trained by stochastic gradient descent
//! with momentum on the one-step forecasting task `(window → target)`.

use crate::activation::Activation;
use crate::error::NeuralError;
use crate::Forecaster;
use evoforecast_linalg::Matrix;
use rand::seq::SliceRandom;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// MLP hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MlpConfig {
    /// Hidden-layer width.
    pub hidden: usize,
    /// Hidden activation.
    pub activation: Activation,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// Momentum coefficient.
    pub momentum: f64,
    /// Training epochs (full passes, shuffled).
    pub epochs: usize,
    /// RNG seed for weight init and shuffling.
    pub seed: u64,
}

impl Default for MlpConfig {
    fn default() -> Self {
        MlpConfig {
            hidden: 16,
            activation: Activation::Sigmoid,
            learning_rate: 0.05,
            momentum: 0.9,
            epochs: 200,
            seed: 0x31A5,
        }
    }
}

/// A trained (or training) one-hidden-layer MLP with scalar output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    config: MlpConfig,
    inputs: usize,
    /// Hidden weights: `hidden x inputs`.
    w1: Matrix,
    /// Hidden biases.
    b1: Vec<f64>,
    /// Output weights: `hidden`.
    w2: Vec<f64>,
    /// Output bias.
    b2: f64,
}

impl Mlp {
    /// Initialize with small random weights.
    ///
    /// # Errors
    /// [`NeuralError::InvalidConfig`] on zero sizes or bad rates.
    pub fn new(inputs: usize, config: MlpConfig) -> Result<Mlp, NeuralError> {
        if inputs == 0 || config.hidden == 0 {
            return Err(NeuralError::InvalidConfig(
                "inputs and hidden width must be >= 1".into(),
            ));
        }
        if !(config.learning_rate > 0.0 && config.learning_rate.is_finite()) {
            return Err(NeuralError::InvalidConfig(format!(
                "learning_rate {} must be positive",
                config.learning_rate
            )));
        }
        if !(0.0..1.0).contains(&config.momentum) {
            return Err(NeuralError::InvalidConfig(format!(
                "momentum {} must be in [0, 1)",
                config.momentum
            )));
        }
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        // Xavier-ish scaling keeps sigmoid units in their responsive band.
        let scale = (1.0 / inputs as f64).sqrt();
        let w1 = Matrix::from_fn(config.hidden, inputs, |_, _| {
            (rng.gen::<f64>() * 2.0 - 1.0) * scale
        });
        let b1 = (0..config.hidden)
            .map(|_| (rng.gen::<f64>() * 2.0 - 1.0) * 0.1)
            .collect();
        let w2 = (0..config.hidden)
            .map(|_| (rng.gen::<f64>() * 2.0 - 1.0) * scale)
            .collect();
        let b2 = 0.0;
        Ok(Mlp {
            config,
            inputs,
            w1,
            b1,
            w2,
            b2,
        })
    }

    /// Forward pass returning `(hidden_outputs, output)`.
    fn forward(&self, x: &[f64]) -> (Vec<f64>, f64) {
        let mut hidden = Vec::with_capacity(self.config.hidden);
        for h in 0..self.config.hidden {
            let z = evoforecast_linalg::vector::dot_unchecked(self.w1.row(h), x) + self.b1[h];
            hidden.push(self.config.activation.apply(z));
        }
        let out = evoforecast_linalg::vector::dot_unchecked(&self.w2, &hidden) + self.b2;
        (hidden, out)
    }

    /// Predict one window.
    pub fn predict(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.inputs);
        self.forward(x).1
    }

    /// Train by SGD with momentum; returns per-epoch mean squared error.
    ///
    /// # Errors
    /// * [`NeuralError::ShapeMismatch`] on inconsistent data,
    /// * [`NeuralError::Diverged`] when the loss goes non-finite.
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
        if xs.rows() == 0 {
            return Err(NeuralError::ShapeMismatch {
                what: "observations",
                expected: 1,
                actual: 0,
            });
        }

        let n = xs.rows();
        let h = self.config.hidden;
        let lr = self.config.learning_rate;
        let mu = self.config.momentum;
        // RNG continues from a distinct stream so repeated train() calls see
        // different shuffles but the whole procedure stays seed-deterministic.
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed.wrapping_add(1));

        // Momentum buffers.
        let mut vw1 = Matrix::zeros(h, self.inputs);
        let mut vb1 = vec![0.0; h];
        let mut vw2 = vec![0.0; h];
        let mut vb2 = 0.0;

        let mut order: Vec<usize> = (0..n).collect();
        let mut losses = Vec::with_capacity(self.config.epochs);

        for epoch in 0..self.config.epochs {
            order.shuffle(&mut rng);
            let mut sum_sq = 0.0;
            for &i in &order {
                let x = xs.row(i);
                let (hidden, out) = self.forward(x);
                let err = out - ys[i]; // d(MSE/2)/d out
                sum_sq += err * err;

                // Output layer gradients.
                for k in 0..h {
                    let g = err * hidden[k];
                    vw2[k] = mu * vw2[k] - lr * g;
                    self.w2[k] += vw2[k];
                }
                vb2 = mu * vb2 - lr * err;
                self.b2 += vb2;

                // Hidden layer gradients (through the *old* w2 is fine for
                // SGD; we use the updated one — both are standard).
                for k in 0..h {
                    let delta =
                        err * self.w2[k] * self.config.activation.derivative_from_output(hidden[k]);
                    let grad_row = self.w1.row_mut(k);
                    let vrow = vw1.row_mut(k);
                    for (j, &xj) in x.iter().enumerate() {
                        vrow[j] = mu * vrow[j] - lr * delta * xj;
                        grad_row[j] += vrow[j];
                    }
                    vb1[k] = mu * vb1[k] - lr * delta;
                    self.b1[k] += vb1[k];
                }
            }
            let mse = sum_sq / n as f64;
            if !mse.is_finite() {
                return Err(NeuralError::Diverged { epoch });
            }
            losses.push(mse);
        }
        Ok(losses)
    }
}

impl Forecaster for Mlp {
    fn forecast(&self, window: &[f64]) -> f64 {
        self.predict(window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_like_dataset() -> (Matrix, Vec<f64>) {
        // Smooth nonlinear target: y = sin(3 x0) * cos(2 x1).
        let n = 200;
        let xs = Matrix::from_fn(n, 2, |i, j| {
            let t = i as f64 / n as f64;
            if j == 0 {
                t * 2.0 - 1.0
            } else {
                (t * 7.0).sin()
            }
        });
        let ys = (0..n)
            .map(|i| (3.0 * xs[(i, 0)]).sin() * (2.0 * xs[(i, 1)]).cos())
            .collect();
        (xs, ys)
    }

    #[test]
    fn config_validation() {
        assert!(Mlp::new(0, MlpConfig::default()).is_err());
        let c = MlpConfig {
            hidden: 0,
            ..Default::default()
        };
        assert!(Mlp::new(2, c).is_err());
        let c = MlpConfig {
            learning_rate: -1.0,
            ..Default::default()
        };
        assert!(Mlp::new(2, c).is_err());
        let c = MlpConfig {
            momentum: 1.0,
            ..Default::default()
        };
        assert!(Mlp::new(2, c).is_err());
    }

    #[test]
    fn shape_checks_on_train() {
        let mut m = Mlp::new(3, MlpConfig::default()).unwrap();
        let xs = Matrix::zeros(4, 2);
        assert!(matches!(
            m.train(&xs, &[0.0; 4]),
            Err(NeuralError::ShapeMismatch { .. })
        ));
        let xs = Matrix::zeros(4, 3);
        assert!(matches!(
            m.train(&xs, &[0.0; 3]),
            Err(NeuralError::ShapeMismatch { .. })
        ));
        let xs = Matrix::zeros(0, 3);
        assert!(m.train(&xs, &[]).is_err());
    }

    #[test]
    fn learns_linear_function_quickly() {
        let n = 100;
        let xs = Matrix::from_fn(n, 2, |i, j| ((i * (j + 1)) as f64 * 0.37).sin());
        let ys: Vec<f64> = (0..n)
            .map(|i| 0.8 * xs[(i, 0)] - 0.3 * xs[(i, 1)] + 0.1)
            .collect();
        let mut m = Mlp::new(
            2,
            MlpConfig {
                hidden: 8,
                epochs: 300,
                learning_rate: 0.05,
                seed: 3,
                ..Default::default()
            },
        )
        .unwrap();
        let losses = m.train(&xs, &ys).unwrap();
        assert!(
            losses.last().unwrap() < &1e-3,
            "final loss {}",
            losses.last().unwrap()
        );
    }

    #[test]
    fn learns_nonlinear_function() {
        let (xs, ys) = xor_like_dataset();
        let mut m = Mlp::new(
            2,
            MlpConfig {
                hidden: 24,
                epochs: 600,
                learning_rate: 0.05,
                momentum: 0.9,
                seed: 5,
                activation: Activation::Tanh,
            },
        )
        .unwrap();
        let losses = m.train(&xs, &ys).unwrap();
        let first = losses[0];
        let last = *losses.last().unwrap();
        assert!(last < first * 0.5, "loss should drop: {first} -> {last}");
        assert!(last < 0.1, "final loss {last}");
    }

    #[test]
    fn training_loss_trends_down() {
        let (xs, ys) = xor_like_dataset();
        let mut m = Mlp::new(
            2,
            MlpConfig {
                seed: 8,
                ..Default::default()
            },
        )
        .unwrap();
        let losses = m.train(&xs, &ys).unwrap();
        let early: f64 = losses[..10].iter().sum::<f64>() / 10.0;
        let late: f64 = losses[losses.len() - 10..].iter().sum::<f64>() / 10.0;
        assert!(late < early, "no learning: early {early}, late {late}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (xs, ys) = xor_like_dataset();
        let run = |seed: u64| {
            let mut m = Mlp::new(
                2,
                MlpConfig {
                    epochs: 50,
                    seed,
                    ..Default::default()
                },
            )
            .unwrap();
            m.train(&xs, &ys).unwrap();
            m.predict(&[0.3, -0.4])
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn forecaster_trait_delegates() {
        let m = Mlp::new(2, MlpConfig::default()).unwrap();
        let w = [0.1, 0.2];
        assert_eq!(m.forecast(&w), m.predict(&w));
    }

    #[test]
    fn serde_round_trip_preserves_behaviour() {
        // JSON can lose an ULP per float, so compare behaviour, not bits.
        let m = Mlp::new(3, MlpConfig::default()).unwrap();
        let json = serde_json::to_string(&m).unwrap();
        let back: Mlp = serde_json::from_str(&json).unwrap();
        for probe in [[0.1, 0.2, 0.3], [-1.0, 0.5, 2.0], [0.0, 0.0, 0.0]] {
            assert!((m.predict(&probe) - back.predict(&probe)).abs() < 1e-9);
        }
    }
}
