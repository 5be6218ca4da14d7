//! The allowlisted widen/narrow conversion module.
//!
//! Every value-lossy `as` cast in the numeric hot paths
//! (`crates/tensor/src/{fixed,simd}.rs`, `crates/core/src/kernel.rs`) is
//! banned by the `numeric-casts` phase of `scripts/lint.sh` and must go
//! through this module instead. The helpers here are the only places a
//! wider value is allowed to become a narrower one, and each of them
//! either saturates explicitly (the hardware datapath semantics) or
//! carries a `debug_assert!` proving the conversion exact — so silent
//! truncation cannot sneak in past the value-range analyzer
//! (`dfcnn-core`'s `range` module), whose container bounds assume the
//! saturating behaviour implemented here.
//!
//! Widening conversions stay outside this module as `i32::from` /
//! `i64::from` / `f64::from`, which the compiler proves lossless.
//!
//! Under `debug_assertions` the saturating paths also count every clamp
//! event in a thread-local tally ([`take_saturation_events`]), so tests
//! can confirm dynamically what the static analyzer predicted: a design
//! the `value-range` rule passes clean runs with zero saturation events,
//! while a rejected one (q8f6 on the paper test cases) saturates loudly.

#[cfg(debug_assertions)]
use core::cell::Cell;

#[cfg(debug_assertions)]
thread_local! {
    static SATURATION_EVENTS: Cell<u64> = const { Cell::new(0) };
}

/// Record one saturation (clamp) event on this thread (debug builds only;
/// release builds compile this to nothing so hot kernels pay no cost).
#[inline]
pub fn note_saturation() {
    #[cfg(debug_assertions)]
    SATURATION_EVENTS.with(|c| c.set(c.get() + 1));
}

/// Drain this thread's saturation-event tally: the number of clamps since
/// the last call. Always 0 in release builds (the counter is debug-only),
/// so release-gated asserts must check [`saturation_counting_enabled`].
///
/// A clamp is counted each time a conversion clamps, so the tally depends
/// on how often a kernel converts a value. The host conv and pool kernels
/// quantise their input volume once per image, so an out-of-range input
/// value counts once per image (even if no window reads it), not once per
/// window holding it.
pub fn take_saturation_events() -> u64 {
    #[cfg(debug_assertions)]
    {
        SATURATION_EVENTS.with(|c| c.replace(0))
    }
    #[cfg(not(debug_assertions))]
    {
        0
    }
}

/// Whether the debug saturation tally is compiled in.
pub const fn saturation_counting_enabled() -> bool {
    cfg!(debug_assertions)
}

/// Integer storage containers a fixed-point accumulator narrows into.
///
/// `sat_i64` is the hardware rescale-and-saturate; `sat_round_f64` and
/// `sat_round_f32` are the quantise-on-ingest rounding; `sat_i32`
/// re-narrows a serialized raw bit pattern. All of them clamp at the
/// container bounds instead of wrapping.
pub trait SatNarrow: Sized + Copy {
    /// Saturate a 64-bit accumulator into the container.
    fn sat_i64(v: i64) -> Self;
    /// Round a pre-scaled `f64` to the nearest representable raw value,
    /// saturating at the container bounds (NaN maps to zero).
    fn sat_round_f64(v: f64) -> Self;
    /// [`SatNarrow::sat_round_f64`] of `f64::from(v)`: the same raw value
    /// and the same saturation count for every `f32`. The `i8` and `i16`
    /// containers compute it in `f32` with no branch and no float-to-int
    /// conversion (`round_clamp_f32`), so a slice loop over it
    /// vectorises.
    fn sat_round_f32(v: f32) -> Self {
        Self::sat_round_f64(f64::from(v))
    }
    /// Saturate a 32-bit value into the container (serde round-trips of
    /// in-range raws are exact; out-of-range input clamps, never wraps).
    fn sat_i32(v: i32) -> Self;
}

macro_rules! sat_narrow_impl {
    ($t:ty $(, $round_f32:ident)?) => {
        impl SatNarrow for $t {
            #[inline]
            fn sat_i64(v: i64) -> Self {
                match Self::try_from(v) {
                    Ok(x) => x,
                    Err(_) => {
                        note_saturation();
                        if v > 0 {
                            Self::MAX
                        } else {
                            Self::MIN
                        }
                    }
                }
            }

            #[inline]
            fn sat_round_f64(v: f64) -> Self {
                let r = v.round();
                if r >= f64::from(Self::MAX) {
                    if r > f64::from(Self::MAX) {
                        note_saturation();
                    }
                    Self::MAX
                } else if r <= f64::from(Self::MIN) {
                    if r < f64::from(Self::MIN) {
                        note_saturation();
                    }
                    Self::MIN
                } else if r.is_nan() {
                    0
                } else {
                    // in (MIN, MAX) and integral: exact by construction
                    r as Self
                }
            }

            #[inline]
            fn sat_i32(v: i32) -> Self {
                Self::sat_i64(i64::from(v))
            }

            $(
                #[inline]
                fn sat_round_f32(v: f32) -> Self {
                    // in [MIN, MAX] and integral: exact by construction
                    $round_f32(v, f32::from(Self::MIN), f32::from(Self::MAX)) as Self
                }
            )?
        }
    };
}

sat_narrow_impl!(i8, round_clamp_f32);
sat_narrow_impl!(i16, round_clamp_f32);
sat_narrow_impl!(i32);

/// `1.5 · 2²³`. Adding it to an integer `r` with `|r| ≤ 2²²` gives a value
/// in `[2²³, 2²⁴)`, where the `f32` spacing is 1: the sum is exact, and
/// its bits are this constant's bits plus `r`.
const MANTISSA_BIAS: f32 = 12_582_912.0;

/// Round `v` to the nearest integer (ties away from zero), clamp it to
/// `[min, max]` (integers within ±2²²) and map NaN to zero, all in `f32`.
///
/// `f32::round` of an `f32` is the integer `f64::round` gives for its
/// widening (the nearest integer is representable in both), and the bounds
/// are exact in `f32`, so this picks the raw value
/// [`SatNarrow::sat_round_f64`] picks and counts the same clamps: one for a
/// rounded value beyond a bound (±inf included), none at a bound or for
/// NaN. The integer is read from the mantissa after adding
/// [`MANTISSA_BIAS`] rather than by a saturating float-to-int cast, which
/// LLVM does not vectorise.
#[inline]
fn round_clamp_f32(v: f32, min: f32, max: f32) -> i32 {
    let r = v.round();
    if r > max || r < min {
        note_saturation();
    }
    let c = if r.is_nan() { 0.0 } else { r.clamp(min, max) };
    (c + MANTISSA_BIAS).to_bits() as i32 - MANTISSA_BIAS.to_bits() as i32
}

/// Narrow an `f64` to `f32` (the dequantise-on-emit transport step). The
/// relative rounding error is 2⁻²⁴ — accounted for by the analyzer's
/// float slack, not silently dropped somewhere in a kernel.
#[inline]
pub const fn f64_to_f32(v: f64) -> f32 {
    v as f32
}

/// A small count (window size, lane count) as `f32`, exactly. Kernels use
/// this for reciprocal scale factors like `1/(KH·KW)`.
#[inline]
pub fn len_to_f32(n: usize) -> f32 {
    debug_assert!(n < (1 << 24), "count {n} not exactly representable in f32");
    n as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sat_i64_clamps_at_container_bounds() {
        assert_eq!(<i16 as SatNarrow>::sat_i64(40_000), i16::MAX);
        assert_eq!(<i16 as SatNarrow>::sat_i64(-40_000), i16::MIN);
        assert_eq!(<i16 as SatNarrow>::sat_i64(1234), 1234i16);
        assert_eq!(<i8 as SatNarrow>::sat_i64(i64::from(i8::MAX)), i8::MAX);
        assert_eq!(<i8 as SatNarrow>::sat_i64(i64::from(i8::MIN)), i8::MIN);
        assert_eq!(<i8 as SatNarrow>::sat_i64(i64::MAX), i8::MAX);
        assert_eq!(<i8 as SatNarrow>::sat_i64(i64::MIN), i8::MIN);
        assert_eq!(<i32 as SatNarrow>::sat_i64(i64::MAX), i32::MAX);
    }

    #[test]
    fn sat_round_f64_rounds_and_clamps() {
        assert_eq!(<i16 as SatNarrow>::sat_round_f64(1.4), 1i16);
        assert_eq!(<i16 as SatNarrow>::sat_round_f64(-1.6), -2i16);
        assert_eq!(<i16 as SatNarrow>::sat_round_f64(1e9), i16::MAX);
        assert_eq!(<i16 as SatNarrow>::sat_round_f64(-1e9), i16::MIN);
        assert_eq!(<i16 as SatNarrow>::sat_round_f64(f64::NAN), 0i16);
        assert_eq!(<i8 as SatNarrow>::sat_round_f64(127.0), i8::MAX);
        assert_eq!(<i8 as SatNarrow>::sat_round_f64(-128.0), i8::MIN);
    }

    #[test]
    fn saturation_events_are_counted_in_debug() {
        let _ = take_saturation_events(); // drain
        let _ = <i16 as SatNarrow>::sat_i64(999); // in range: no event
        if saturation_counting_enabled() {
            assert_eq!(take_saturation_events(), 0);
            let _ = <i16 as SatNarrow>::sat_i64(1 << 40);
            let _ = <i8 as SatNarrow>::sat_round_f64(1e9);
            assert_eq!(take_saturation_events(), 2);
        } else {
            assert_eq!(take_saturation_events(), 0);
        }
    }
}
