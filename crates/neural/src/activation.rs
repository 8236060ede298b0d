//! Activation functions and their derivatives.

use serde::{Deserialize, Serialize};

/// Supported hidden-layer activations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Logistic sigmoid `1 / (1 + e^{-x})`.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Identity (used for output layers in regression).
    Linear,
}

impl Activation {
    /// Apply the activation.
    #[inline]
    pub(crate) fn apply(&self, x: f64) -> f64 {
        match self {
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Tanh => x.tanh(),
            Activation::Linear => x,
        }
    }

    /// Derivative expressed in terms of the *activated output* `y = f(x)` —
    /// the form backprop wants, since the forward pass already stores `y`.
    #[inline]
    pub(crate) fn derivative_from_output(&self, y: f64) -> f64 {
        match self {
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Tanh => 1.0 - y * y,
            Activation::Linear => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sigmoid_shape() {
        let s = Activation::Sigmoid;
        assert!((s.apply(0.0) - 0.5).abs() < 1e-12);
        assert!(s.apply(10.0) > 0.999);
        assert!(s.apply(-10.0) < 0.001);
    }

    #[test]
    fn tanh_shape() {
        let t = Activation::Tanh;
        assert_eq!(t.apply(0.0), 0.0);
        assert!(t.apply(5.0) > 0.999);
        assert!(t.apply(-5.0) < -0.999);
    }

    #[test]
    fn linear_is_identity() {
        let l = Activation::Linear;
        assert_eq!(l.apply(3.25), 3.25);
        assert_eq!(l.derivative_from_output(42.0), 1.0);
    }

    proptest! {
        #[test]
        fn derivatives_match_finite_differences(x in -4.0..4.0f64) {
            let h = 1e-6;
            for act in [Activation::Sigmoid, Activation::Tanh, Activation::Linear] {
                let y = act.apply(x);
                let numeric = (act.apply(x + h) - act.apply(x - h)) / (2.0 * h);
                let analytic = act.derivative_from_output(y);
                prop_assert!(
                    (numeric - analytic).abs() < 1e-5,
                    "{act:?} at {x}: numeric {numeric}, analytic {analytic}"
                );
            }
        }

        #[test]
        fn sigmoid_bounded_monotone(a in -20.0..20.0f64, b in -20.0..20.0f64) {
            let s = Activation::Sigmoid;
            let (ya, yb) = (s.apply(a), s.apply(b));
            prop_assert!((0.0..=1.0).contains(&ya));
            if a < b {
                prop_assert!(ya <= yb);
            }
        }
    }
}
