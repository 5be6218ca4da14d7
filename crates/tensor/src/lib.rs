//! # dfcnn-tensor
//!
//! Dense tensor substrate for the `dfcnn` workspace: the Rust reproduction of
//! *"A Pipelined and Scalable Dataflow Implementation of Convolutional Neural
//! Networks on FPGA"* (Bacis et al., IPDPSW 2017).
//!
//! The paper's accelerator streams CNN *volumes* — `H × W × C` feature-map
//! stacks — over AXI4-Stream ports, interleaving the `C` feature maps on each
//! port in channel-major order. This crate therefore stores [`Tensor3`]
//! volumes in **row-major, channel-fastest** layout (`(y, x, c)` with `c`
//! contiguous), so that a plain slice iteration over the backing storage *is*
//! the paper's streaming order. Everything downstream (the SST memory system,
//! the DMA model, the reference CNN) relies on this property.
//!
//! Contents:
//!
//! - [`shape`]: volume shapes and the convolution/pooling output-size algebra.
//! - [`tensor3`]: owned `H × W × C` volumes ([`Tensor3`]).
//! - [`tensor4`]: filter banks `K × KH × KW × C` ([`Tensor4`]) as used by
//!   convolutional layers (paper Eq. 1).
//! - [`tensor1`]: flat vectors ([`Tensor1`]) for fully-connected layers
//!   (paper Eq. 2) and biases.
//! - [`fixed`]: a Q-format fixed-point scalar, supporting the paper's §IV-B
//!   remark that integer arithmetic sidesteps the floating-point accumulation
//!   latency (a "future work" data-type study we implement).
//! - [`cast`]: the allowlisted widen/narrow conversions (saturating
//!   narrows + a debug-only saturation-event tally); the only module where
//!   the numeric hot paths may lose value range.
//! - [`init`]: deterministic weight initialisers for the reference trainer.
//! - [`iter`]: sliding-window and stream-order iterators shared by the
//!   reference CNN and the dataflow simulator.

pub mod cast;
pub mod fixed;
pub mod init;
pub mod iter;
pub mod shape;
pub mod simd;
pub mod tensor1;
pub mod tensor3;
pub mod tensor4;

pub use fixed::{Fixed, Fixed16, Fixed8, NumericSpec, DEFAULT_FRAC};
pub use shape::{ConvGeometry, Shape3};
pub use tensor1::Tensor1;
pub use tensor3::Tensor3;
pub use tensor4::Tensor4;

/// Scalar element types usable by the tensors and the dataflow machinery.
///
/// The paper evaluates with single-precision floats ("Both the networks are
/// implemented with single floating point precision", §V-B) but discusses
/// integer arithmetic as a way to avoid the accumulation-latency issue
/// (§IV-B). We abstract the handful of operations both need.
pub trait Element:
    Copy
    + Clone
    + Default
    + PartialEq
    + PartialOrd
    + core::fmt::Debug
    + core::ops::Add<Output = Self>
    + core::ops::Sub<Output = Self>
    + core::ops::Mul<Output = Self>
    + Send
    + Sync
    + 'static
{
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Lossy conversion from `f32` (used when freezing trained weights into
    /// a fixed-point design).
    fn from_f32(v: f32) -> Self;
    /// Lossy conversion to `f32` (used for verification and metrics).
    fn to_f32(self) -> f32;
    /// `max(self, other)` with NaN-free semantics for the supported types.
    fn maximum(self, other: Self) -> Self {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Element for f32 {
    #[inline]
    fn zero() -> Self {
        0.0
    }
    #[inline]
    fn one() -> Self {
        1.0
    }
    #[inline]
    fn from_f32(v: f32) -> Self {
        v
    }
    #[inline]
    fn to_f32(self) -> f32 {
        self
    }
}

/// Output lanes of [`Numeric::mac_lanes`]: the exact-sum conv kernel
/// computes this many filters per block: one 512-bit vector's worth of
/// `i32` lanes.
pub const EXACT_LANES: usize = 16;

/// Element types the *compute kernels* can execute: [`Element`] plus the
/// multiply-accumulate contract of a hardware datapath.
///
/// The key design point is the associated accumulator type `Acc`. Fixed
/// formats accumulate full-width products exactly in `i64` (the software
/// model of a DSP48's 48-bit accumulator): integer addition is
/// associative, so tree reductions, interleaved banks and SIMD lanes all
/// produce the same bits — that is what lets the three engines agree
/// bit-for-bit in fixed point. `f32` keeps `Acc = f32` with
/// `EXACT_SUM = false`, and the kernels then reproduce the exact
/// hardware summation order (adder tree / interleaved banks) so the f32
/// golden traces stay byte-stable.
pub trait Numeric: Element + core::ops::Neg<Output = Self> {
    /// Accumulator for multiply-accumulate chains.
    type Acc: Copy
        + Clone
        + Default
        + PartialEq
        + core::fmt::Debug
        + core::ops::Add<Output = Self::Acc>
        + Send
        + Sync
        + 'static;

    /// Whether summation in `Acc` is exact (order-independent). When
    /// `true`, kernels may use any summation order (e.g. a straight
    /// [`Numeric::dot_acc`]); when `false`, they must reproduce the
    /// modeled hardware's order.
    const EXACT_SUM: bool;

    /// The identity of [`Numeric::max_hw`] (used to seed max-pooling).
    fn min_value() -> Self;

    /// The hardware comparator's max: total for fixed point, `f32::max`
    /// NaN semantics for floats.
    fn max_hw(self, other: Self) -> Self;

    /// Lift a value into the accumulator (at the product scale, so it can
    /// join a MAC chain — how the bias enters).
    fn widen(self) -> Self::Acc;

    /// Full-width product, not yet rescaled.
    fn mul_full(self, rhs: Self) -> Self::Acc;

    /// Rescale and saturate an accumulator back to storage.
    fn narrow(acc: Self::Acc) -> Self;

    /// Dot product in the accumulator — the SIMD / lane-chunked fast
    /// path. For `EXACT_SUM` types this equals [`Numeric::dot_acc_scalar`]
    /// bit-for-bit (proven by proptests).
    fn dot_acc(a: &[Self], b: &[Self]) -> Self::Acc;

    /// Reference scalar dot product (plain sequential loop).
    fn dot_acc_scalar(a: &[Self], b: &[Self]) -> Self::Acc;

    /// Multiply-accumulate across output lanes: lane `l` of the result
    /// is the sum, over every `(xs, rows)` segment and every `i`, of
    /// `xs[i] · rows[i · stride][l]`. Each input value is broadcast to
    /// the [`EXACT_LANES`] weights of one row, as the conv core feeds one
    /// window value to every filter in the same cycle.
    ///
    /// The default sums full-width products in `Acc`. Fixed-point types
    /// override it with `i32` lanes that spill into the `i64` result
    /// every `spill` input values (counted across segments), which is
    /// exact as long as `spill` is at most [`Numeric::lane_spill`] of
    /// the weights; the kernels call it with that bound.
    fn mac_lanes<'a>(
        segments: impl IntoIterator<Item = (&'a [Self], &'a [[Self; EXACT_LANES]])>,
        stride: usize,
        spill: usize,
    ) -> [Self::Acc; EXACT_LANES] {
        let _ = spill;
        let mut acc = [Self::Acc::default(); EXACT_LANES];
        for (xs, rows) in segments {
            for (&x, row) in xs.iter().zip(rows.iter().step_by(stride)) {
                for (a, &w) in acc.iter_mut().zip(row) {
                    *a = *a + x.mul_full(w);
                }
            }
        }
        acc
    }

    /// The largest `spill` for which [`Numeric::mac_lanes`] over these
    /// weights stays exact for any input the storage type can hold:
    /// `usize::MAX` when the lanes are `Acc` itself (the default).
    fn lane_spill(weights: &[Self]) -> usize {
        let _ = weights;
        usize::MAX
    }

    /// The activation unit's tanh: evaluate in `f32` and re-quantise.
    /// Fixed-point types override this with a lookup table built from
    /// this same expression, so the two agree on every raw value.
    #[inline]
    fn tanh_hw(self) -> Self {
        Self::from_f32(self.to_f32().tanh())
    }
}

impl Numeric for f32 {
    type Acc = f32;
    const EXACT_SUM: bool = false;

    #[inline]
    fn min_value() -> Self {
        f32::NEG_INFINITY
    }

    #[inline]
    fn max_hw(self, other: Self) -> Self {
        self.max(other)
    }

    #[inline]
    fn widen(self) -> f32 {
        self
    }

    #[inline]
    fn mul_full(self, rhs: Self) -> f32 {
        self * rhs
    }

    #[inline]
    fn narrow(acc: f32) -> Self {
        acc
    }

    #[inline]
    fn dot_acc(a: &[Self], b: &[Self]) -> f32 {
        simd::dot_f32_lanes(a, b)
    }

    #[inline]
    fn dot_acc_scalar(a: &[Self], b: &[Self]) -> f32 {
        simd::dot_f32_lanes_scalar(a, b)
    }
}

impl Element for f64 {
    #[inline]
    fn zero() -> Self {
        0.0
    }
    #[inline]
    fn one() -> Self {
        1.0
    }
    #[inline]
    fn from_f32(v: f32) -> Self {
        v as f64
    }
    #[inline]
    fn to_f32(self) -> f32 {
        self as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_f32_identities() {
        assert_eq!(<f32 as Element>::zero(), 0.0);
        assert_eq!(<f32 as Element>::one(), 1.0);
        assert_eq!(<f32 as Element>::from_f32(2.5), 2.5);
        assert_eq!(2.5f32.to_f32(), 2.5);
    }

    #[test]
    fn element_maximum() {
        assert_eq!(Element::maximum(3.0f32, 4.0), 4.0);
        assert_eq!(Element::maximum(4.0f32, 3.0), 4.0);
        assert_eq!(Element::maximum(-1.0f64, -2.0), -1.0);
    }
}
