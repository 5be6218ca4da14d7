//! The workspace's one tanh: the activation unit's function, evaluated
//! lane-wise at full throughput, with bits fixed by this file alone.
//!
//! The paper's activation unit is a pipelined operator: long latency, one
//! value per cycle. [`tanh_lanes`] models it that way on the host. Each
//! lane runs the same fixed sequence of plain `f64` operations, so `N`
//! values go through vector units side by side, and the result is rounded
//! once to `f32`:
//!
//! 1. `a = min(|x|, 10)` (tanh of any `f32` at or above ~9.01 rounds to 1);
//! 2. `z = 2a = k·ln 2 + r`, `|r| ≤ ln 2 / 2`: `k` rounded to an integer
//!    by adding and subtracting `1.5·2⁵²`, `ln 2` split Cody–Waite style so
//!    `k·LN2_HI` is exact;
//! 3. `eʳ − 1` by its Taylor polynomial through `r¹⁰` (relative
//!    truncation error below 10⁻¹², some 10⁻⁵ of an `f32` ulp);
//! 4. `2ᵏ` built from exponent bits, `eᶻ − 1 = 2ᵏ(eʳ − 1) + (2ᵏ − 1)`;
//! 5. `tanh a = (eᶻ − 1) / (eᶻ − 1 + 2)`, one divide, then the sign of `x`.
//!
//! No libm function is called: not `exp` or `tanh`, and not `round` or
//! `floor`, which become libm calls at the x86-64 SSE2 baseline. Rust
//! never contracts `a·b + c` into a fused multiply-add, so the bits do
//! not depend on codegen either. The error against `f64` tanh is at most
//! 0.5 ulp plus the `f64` evaluation error, and the tests below check ≤ 1
//! ulp and monotonicity on every `f32` up to the saturation point.
//! Special values: NaN → NaN, ±∞ → ±1, −0 → −0, and `tanh(−x)` has the
//! bits of `−tanh(x)` for every `x`, because the sign is applied last.

use crate::cast::f64_to_f32;

/// Inputs are clamped here: `tanh(10)` is within 4.2·10⁻⁹ of 1, below
/// half an `f32` ulp of 1, and the exponent `k` stays small.
const CLAMP: f64 = 10.0;
/// Adding and subtracting `1.5·2⁵²` rounds an `f64` of magnitude below
/// 2⁵¹ to the nearest integer; the integer sits in the low mantissa bits.
const ROUND_SHIFT: f64 = 6_755_399_441_055_744.0;
const INV_LN2: f64 = core::f64::consts::LOG2_E;
/// `ln 2 = LN2_HI + LN2_LO`, with `LN2_HI` ending in 11 zero bits, so
/// `k·LN2_HI` is exact for `|k| < 2¹¹`.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
/// `1/n!` for `n = 2..=10`: the Taylor coefficients of `eʳ − 1 − r`.
const EXPM1_COEFFS: [f64; 9] = [
    1.0 / 2.0,
    1.0 / 6.0,
    1.0 / 24.0,
    1.0 / 120.0,
    1.0 / 720.0,
    1.0 / 5_040.0,
    1.0 / 40_320.0,
    1.0 / 362_880.0,
    1.0 / 3_628_800.0,
];
const SIGN: u32 = 0x8000_0000;

/// tanh of `a ≥ 0` in `f64`, clamping `a` first; NaN stays NaN.
#[inline(always)]
fn tanh_abs(a: f64) -> f64 {
    let a = if a > CLAMP { CLAMP } else { a };
    let z = a + a;
    let shifted = z * INV_LN2 + ROUND_SHIFT;
    let k = shifted - ROUND_SHIFT;
    let r = (z - k * LN2_HI) - k * LN2_LO;
    let mut q = EXPM1_COEFFS[EXPM1_COEFFS.len() - 1];
    for &c in EXPM1_COEFFS.iter().rev().skip(1) {
        q = c + r * q;
    }
    let expm1_r = r + (r * r) * q;
    // 2^k: k + 1023 in the exponent field (k is in 0..=29 for finite a)
    let k_bits = shifted.to_bits().wrapping_sub(ROUND_SHIFT.to_bits());
    let two_k = f64::from_bits(k_bits.wrapping_add(1023) << 52);
    let expm1_z = two_k * expm1_r + (two_k - 1.0);
    expm1_z / (expm1_z + 2.0)
}

/// tanh of `N` values, one per lane, each rounded once from `f64`.
/// Lane `l` of the result has the bits of [`tanh`]`(x[l])` for every `N`.
#[inline]
pub fn tanh_lanes<const N: usize>(x: [f32; N]) -> [f32; N] {
    core::array::from_fn(|l| {
        let y = f64_to_f32(tanh_abs(f64::from(x[l].abs())));
        f32::from_bits(y.to_bits() | (x[l].to_bits() & SIGN))
    })
}

/// tanh of one value: [`tanh_lanes`] with one lane.
#[inline]
pub fn tanh(x: f32) -> f32 {
    tanh_lanes([x])[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bits of the largest `f32` the sweep covers: past 9.01, where tanh
    /// first rounds to 1.
    const SWEEP_END: u32 = 0x4111_999a; // 9.1

    /// Every value in release builds; a prime stride in debug builds.
    const STRIDE: u32 = if cfg!(debug_assertions) { 997 } else { 1 };

    /// One `f32` ulp at the magnitude of `t`: the spacing of the binade
    /// holding `|t|`, and the subnormal spacing below the normal range.
    fn f32_ulp(t: f64) -> f64 {
        let binade = f64::from_bits(t.abs().to_bits() & 0x7ff0_0000_0000_0000);
        (binade * f64::from_bits(0x3e80_0000_0000_0000)).max(f64::from_bits(0x36a0_0000_0000_0000))
    }

    #[test]
    fn tanh_within_one_ulp_and_monotone_on_every_f32_to_saturation() {
        let (mut worst, mut worst_at, mut prev) = (0.0f64, 0.0f32, 0.0f32);
        let mut bits = 0u32;
        while bits <= SWEEP_END {
            let mut next = bits;
            let x: [f32; 8] = core::array::from_fn(|_| {
                let x = f32::from_bits(next.min(SWEEP_END));
                next = next.saturating_add(STRIDE);
                x
            });
            for (&x, y) in x.iter().zip(tanh_lanes(x)) {
                let t = f64::from(x).tanh();
                let err = (f64::from(y) - t).abs() / f32_ulp(t);
                if err > worst {
                    (worst, worst_at) = (err, x);
                }
                assert!(y >= prev, "tanh not monotone at {x:e}: {y:e} < {prev:e}");
                prev = y;
            }
            bits = next;
        }
        eprintln!("tanh: worst error {worst:.4} ulp, at {worst_at:e}");
        assert!(worst <= 1.0, "tanh error {worst} ulp at {worst_at:e}");
        assert_eq!(tanh(f32::from_bits(SWEEP_END)), 1.0);
    }

    #[test]
    fn tanh_saturates_to_exactly_one_past_the_sweep() {
        let mut bits = SWEEP_END;
        while bits < f32::INFINITY.to_bits() {
            assert_eq!(tanh(f32::from_bits(bits)), 1.0, "at bits {bits:#x}");
            bits += 4099;
        }
        assert_eq!(tanh(f32::MAX), 1.0);
    }

    #[test]
    fn tanh_lanes_equal_scalar_bit_for_bit() {
        // a stride across every bit pattern, both signs, NaNs included
        let mut bits = 0u32;
        loop {
            let mut next = bits;
            let x: [f32; 8] = core::array::from_fn(|_| {
                let x = f32::from_bits(next);
                next = next.wrapping_add(STRIDE * 31);
                x
            });
            let lanes = tanh_lanes(x);
            for (&x, y) in x.iter().zip(lanes) {
                assert_eq!(y.to_bits(), tanh(x).to_bits(), "lane 8 vs 1 at {x:e}");
                assert_eq!(y.to_bits(), tanh_lanes([x])[0].to_bits());
            }
            let Some(next) = bits.checked_add(STRIDE * 31 * 8 + 1) else {
                break;
            };
            bits = next;
        }
    }

    #[test]
    fn tanh_is_exactly_odd_with_its_special_values() {
        let mut bits = 0u32;
        while bits < f32::INFINITY.to_bits() {
            let x = f32::from_bits(bits);
            assert_eq!(tanh(-x).to_bits(), (-tanh(x)).to_bits(), "at {x:e}");
            bits += 257 * STRIDE.min(7);
        }
        assert!(tanh(f32::NAN).is_nan());
        assert!(tanh(-f32::NAN).is_nan());
        assert_eq!(tanh(f32::INFINITY), 1.0);
        assert_eq!(tanh(f32::NEG_INFINITY), -1.0);
        assert_eq!(tanh(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits());
        let tiny = f32::from_bits(1);
        assert_eq!(tanh(tiny), tiny);
        assert_eq!(tanh(-tiny), -tiny);
    }
}
