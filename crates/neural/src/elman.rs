//! Elman simple recurrent network.
//!
//! The recurrent comparator of Table 3 (Galván & Isasi 2001 used multi-step
//! recurrent models). A classic Elman net: a sigmoid hidden layer whose
//! inputs are the current window *and* the previous hidden state (context
//! units), with a linear output. Trained by truncated backpropagation
//! (gradient stops at the copied context — the standard Elman recipe).

use crate::activation::Activation;
use crate::error::NeuralError;
use crate::Forecaster;
use evoforecast_linalg::Matrix;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Elman network hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ElmanConfig {
    /// Hidden/context width.
    pub hidden: usize,
    /// Hidden activation.
    pub activation: Activation,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// Training epochs (sequential passes in time order).
    pub epochs: usize,
    /// RNG seed for weight initialization.
    pub seed: u64,
}

impl Default for ElmanConfig {
    fn default() -> Self {
        ElmanConfig {
            hidden: 12,
            activation: Activation::Sigmoid,
            learning_rate: 0.05,
            epochs: 100,
            seed: 0xE1_1A,
        }
    }
}

/// A (possibly trained) Elman recurrent network with scalar output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Elman {
    config: ElmanConfig,
    inputs: usize,
    /// Input→hidden weights: `hidden x inputs`.
    w_in: Matrix,
    /// Context→hidden weights: `hidden x hidden`.
    w_ctx: Matrix,
    /// Hidden biases.
    b_h: Vec<f64>,
    /// Hidden→output weights.
    w_out: Vec<f64>,
    /// Output bias.
    b_out: f64,
    /// Context state carried across `step` calls.
    context: Vec<f64>,
}

impl Elman {
    /// Initialize with small random weights and zero context.
    ///
    /// # Errors
    /// [`NeuralError::InvalidConfig`] on zero sizes or bad rates.
    pub fn new(inputs: usize, config: ElmanConfig) -> Result<Elman, NeuralError> {
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
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let scale_in = (1.0 / inputs as f64).sqrt();
        let scale_h = (1.0 / config.hidden as f64).sqrt();
        let rnd = |s: f64, rng: &mut ChaCha8Rng| (rng.gen::<f64>() * 2.0 - 1.0) * s;
        let w_in = {
            let mut m = Matrix::zeros(config.hidden, inputs);
            for i in 0..config.hidden {
                for j in 0..inputs {
                    m[(i, j)] = rnd(scale_in, &mut rng);
                }
            }
            m
        };
        let w_ctx = {
            let mut m = Matrix::zeros(config.hidden, config.hidden);
            for i in 0..config.hidden {
                for j in 0..config.hidden {
                    m[(i, j)] = rnd(scale_h, &mut rng);
                }
            }
            m
        };
        let b_h = (0..config.hidden).map(|_| rnd(0.1, &mut rng)).collect();
        let w_out = (0..config.hidden).map(|_| rnd(scale_h, &mut rng)).collect();
        Ok(Elman {
            config,
            inputs,
            w_in,
            w_ctx,
            b_h,
            w_out,
            b_out: 0.0,
            context: vec![0.0; config.hidden],
        })
    }

    /// Reset the context units to zero (start of a new sequence).
    pub fn reset(&mut self) {
        self.context.iter_mut().for_each(|c| *c = 0.0);
    }

    /// One forward step from an explicit context; returns `(hidden, output)`.
    fn forward_from(&self, x: &[f64], context: &[f64]) -> (Vec<f64>, f64) {
        let h = self.config.hidden;
        let mut hidden = Vec::with_capacity(h);
        for k in 0..h {
            let z = evoforecast_linalg::vector::dot_unchecked(self.w_in.row(k), x)
                + evoforecast_linalg::vector::dot_unchecked(self.w_ctx.row(k), context)
                + self.b_h[k];
            hidden.push(self.config.activation.apply(z));
        }
        let out = evoforecast_linalg::vector::dot_unchecked(&self.w_out, &hidden) + self.b_out;
        (hidden, out)
    }

    /// Stateful prediction step: consumes the stored context and updates it.
    pub fn step(&mut self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.inputs);
        let (hidden, out) = self.forward_from(x, &self.context.clone());
        self.context = hidden;
        out
    }

    /// Train on windows in time order (the recurrence needs temporal
    /// adjacency). Returns per-epoch mean squared error.
    ///
    /// # Errors
    /// Shape and divergence errors as in [`crate::mlp::Mlp::train`].
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
        let mut losses = Vec::with_capacity(self.config.epochs);

        for epoch in 0..self.config.epochs {
            self.reset();
            let mut sum_sq = 0.0;
            for i in 0..n {
                let x = xs.row(i);
                let context = self.context.clone();
                let (hidden, out) = self.forward_from(x, &context);
                let err = out - ys[i];
                sum_sq += err * err;

                // Output layer.
                for k in 0..h {
                    self.w_out[k] -= lr * err * hidden[k];
                }
                self.b_out -= lr * err;

                // Hidden layer (gradient truncated at the context copy).
                for k in 0..h {
                    let delta = err
                        * self.w_out[k]
                        * self.config.activation.derivative_from_output(hidden[k]);
                    let row_in = self.w_in.row_mut(k);
                    for (j, &xj) in x.iter().enumerate() {
                        row_in[j] -= lr * delta * xj;
                    }
                    let row_ctx = self.w_ctx.row_mut(k);
                    for (j, &cj) in context.iter().enumerate() {
                        row_ctx[j] -= lr * delta * cj;
                    }
                    self.b_h[k] -= lr * delta;
                }

                self.context = hidden;
            }
            let mse = sum_sq / n as f64;
            if !mse.is_finite() {
                return Err(NeuralError::Diverged { epoch });
            }
            losses.push(mse);
        }
        // Leave the context primed at the end of training so forecasting
        // continues the sequence.
        Ok(losses)
    }
}

impl Forecaster for Elman {
    /// Stateless forecast used by the uniform bench interface: runs from the
    /// trained (end-of-training) context without mutating it.
    fn forecast(&self, window: &[f64]) -> f64 {
        self.forward_from(window, &self.context).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Windows of a sine, in time order.
    fn sine_dataset(n: usize, d: usize) -> (Matrix, Vec<f64>) {
        let vals: Vec<f64> = (0..n + d)
            .map(|i| (i as f64 * std::f64::consts::TAU / 20.0).sin())
            .collect();
        let xs = Matrix::from_fn(n, d, |i, j| vals[i + j]);
        let ys = (0..n).map(|i| vals[i + d]).collect();
        (xs, ys)
    }

    #[test]
    fn config_validation() {
        assert!(Elman::new(0, ElmanConfig::default()).is_err());
        let c = ElmanConfig {
            hidden: 0,
            ..Default::default()
        };
        assert!(Elman::new(3, c).is_err());
        let c = ElmanConfig {
            learning_rate: 0.0,
            ..Default::default()
        };
        assert!(Elman::new(3, c).is_err());
    }

    #[test]
    fn shape_checks() {
        let mut e = Elman::new(3, ElmanConfig::default()).unwrap();
        assert!(e.train(&Matrix::zeros(5, 2), &[0.0; 5]).is_err());
        assert!(e.train(&Matrix::zeros(5, 3), &[0.0; 4]).is_err());
        assert!(e.train(&Matrix::zeros(0, 3), &[]).is_err());
    }

    #[test]
    fn learns_sine_continuation() {
        let (xs, ys) = sine_dataset(300, 4);
        let mut e = Elman::new(
            4,
            ElmanConfig {
                hidden: 10,
                epochs: 150,
                learning_rate: 0.08,
                seed: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let losses = e.train(&xs, &ys).unwrap();
        let first = losses[0];
        let last = *losses.last().unwrap();
        assert!(last < first * 0.5, "loss should halve: {first} -> {last}");
        assert!(last < 0.05, "final loss {last}");
    }

    #[test]
    fn context_affects_output() {
        let (xs, ys) = sine_dataset(200, 4);
        let mut e = Elman::new(
            4,
            ElmanConfig {
                seed: 4,
                ..Default::default()
            },
        )
        .unwrap();
        e.train(&xs, &ys).unwrap();
        let w = [0.1, 0.2, 0.3, 0.4];
        let with_context = e.forecast(&w);
        let mut reset = e.clone();
        reset.reset();
        let without_context = reset.forecast(&w);
        assert_ne!(
            with_context, without_context,
            "context units must influence the output"
        );
    }

    #[test]
    fn step_is_stateful() {
        let mut e = Elman::new(
            2,
            ElmanConfig {
                seed: 6,
                ..Default::default()
            },
        )
        .unwrap();
        let w = [0.5, -0.5];
        let o1 = e.step(&w);
        let o2 = e.step(&w);
        // Same input, evolved context: outputs differ (context was zero
        // before the first step, non-zero before the second).
        assert_ne!(o1, o2);
    }

    #[test]
    fn deterministic_given_seed() {
        let (xs, ys) = sine_dataset(100, 3);
        let run = |seed: u64| {
            let mut e = Elman::new(
                3,
                ElmanConfig {
                    epochs: 30,
                    seed,
                    ..Default::default()
                },
            )
            .unwrap();
            e.train(&xs, &ys).unwrap();
            e.forecast(&[0.1, 0.2, 0.3])
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn serde_round_trip_preserves_behaviour() {
        // JSON can lose an ULP per float, so compare behaviour, not bits.
        let e = Elman::new(3, ElmanConfig::default()).unwrap();
        let json = serde_json::to_string(&e).unwrap();
        let back: Elman = serde_json::from_str(&json).unwrap();
        for probe in [[0.1, 0.2, 0.3], [-1.0, 0.5, 2.0]] {
            assert!((e.forecast(&probe) - back.forecast(&probe)).abs() < 1e-9);
        }
    }
}
