//! Per-element nonlinearities.
//!
//! The paper's convolutional layer "may apply a nonlinear function, e.g.
//! tanh() or max(0, x), on each value in the output volume" (§II-A). The
//! dataflow compute core applies the same function inline before sending a
//! value on its output port, so both the reference CNN and the accelerator
//! share this module.

use serde::{Deserialize, Serialize};

/// The activation applied element-wise after a layer's affine computation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Activation {
    /// Identity (no nonlinearity).
    #[default]
    Identity,
    /// Hyperbolic tangent, the classical LeNet-era choice.
    Tanh,
    /// Rectified linear unit `max(0, x)`.
    Relu,
}

impl Activation {
    /// Apply the activation to one value. Tanh is [`dfcnn_tensor::tanh()`],
    /// the one the accelerator's kernels run, so the reference network,
    /// the trainer and the engines share its bits.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Identity => x,
            Activation::Tanh => dfcnn_tensor::tanh(x),
            Activation::Relu => x.max(0.0),
        }
    }

    /// Derivative of the activation expressed in terms of the *output*
    /// value `y = f(x)`. (tanh' = 1 - y²; relu' = (y > 0); id' = 1.)
    ///
    /// Working from the output avoids re-running the forward pass during
    /// backprop.
    #[inline]
    pub fn derivative_from_output(self, y: f32) -> f32 {
        match self {
            Activation::Identity => 1.0,
            Activation::Tanh => 1.0 - y * y,
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// Short name used in block-diagram rendering (Figs. 4/5 style).
    pub fn name(self) -> &'static str {
        match self {
            Activation::Identity => "id",
            Activation::Tanh => "tanh",
            Activation::Relu => "relu",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_passes_through() {
        assert_eq!(Activation::Identity.apply(-3.5), -3.5);
        assert_eq!(Activation::Identity.derivative_from_output(7.0), 1.0);
    }

    #[test]
    fn relu_clamps_negatives() {
        assert_eq!(Activation::Relu.apply(-1.0), 0.0);
        assert_eq!(Activation::Relu.apply(2.0), 2.0);
        assert_eq!(Activation::Relu.derivative_from_output(0.0), 0.0);
        assert_eq!(Activation::Relu.derivative_from_output(2.0), 1.0);
    }

    #[test]
    fn tanh_within_one_ulp_of_f64() {
        for x in [0.37f32, -0.8, 1e-3, -2.5, 4.0, 12.0] {
            let y = Activation::Tanh.apply(x);
            let t = f64::from(x).tanh();
            let ulp = f64::from(f32::EPSILON) * t.abs().max(f64::from(f32::MIN_POSITIVE));
            assert!((f64::from(y) - t).abs() <= ulp, "tanh({x}) = {y}, f64 {t}");
            assert!((Activation::Tanh.derivative_from_output(y) - (1.0 - y * y)).abs() < 1e-7);
        }
    }

    #[test]
    fn tanh_derivative_numerically() {
        // finite-difference check of d/dx tanh(x) against derivative_from_output
        let x = -0.8f32;
        let h = 1e-3f32;
        let num = (Activation::Tanh.apply(x + h) - Activation::Tanh.apply(x - h)) / (2.0 * h);
        let ana = Activation::Tanh.derivative_from_output(Activation::Tanh.apply(x));
        assert!((num - ana).abs() < 1e-3, "num={num} ana={ana}");
    }

    #[test]
    fn default_is_identity() {
        assert_eq!(Activation::default(), Activation::Identity);
    }
}
