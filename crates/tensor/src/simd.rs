//! Lane-chunked dot-product kernels for `f32`.
//!
//! Floating-point addition is not associative, so a vectorized dot product
//! that keeps one partial sum per SIMD lane computes a *different* (equally
//! valid) result than a sequential loop. To make the fast path testable,
//! this module pins the lane discipline explicitly:
//!
//! - [`dot_f32_lanes`] walks the input in chunks of [`LANES`], accumulating
//!   one partial sum per lane position — the layout LLVM autovectorizes
//!   into packed multiplies and adds on stable Rust.
//! - [`dot_f32_lanes_scalar`] performs the *same* floating-point
//!   operations in the same order via a plain indexed loop
//!   (`lanes[i % LANES] += a[i] * b[i]`), so the two are bit-identical by
//!   construction — the property the kernel proptests pin.
//!
//! Both finish with the same fixed reduction order over the lane array
//! plus a sequential tail, so results are deterministic regardless of
//! which path the compiler picks.
//!
//! Fixed-point formats don't need this care: their `i64` accumulation is
//! exact, so their chunked kernels live with the types in
//! [`crate::fixed`] and equal the scalar loop trivially.

/// Number of independent partial sums (lanes) in the chunked kernels.
pub const LANES: usize = 8;

/// Fixed-order reduction of the lane array: a 3-level balanced tree.
#[inline]
fn reduce_lanes(l: [f32; LANES]) -> f32 {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

/// Lane-chunked dot product of `a` and `b` (over the shorter length).
///
/// One partial sum per lane position, chunk by chunk — the
/// autovectorization-friendly layout. Bit-identical to
/// [`dot_f32_lanes_scalar`].
pub fn dot_f32_lanes(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let chunks = n / LANES;
    let mut lanes = [0.0f32; LANES];
    for c in 0..chunks {
        let base = c * LANES;
        for (l, lane) in lanes.iter_mut().enumerate() {
            *lane += a[base + l] * b[base + l];
        }
    }
    let mut tail = 0.0f32;
    for i in chunks * LANES..n {
        tail += a[i] * b[i];
    }
    reduce_lanes(lanes) + tail
}

/// Reference implementation of the lane discipline as a plain indexed
/// loop: identical floating-point operations in identical order to
/// [`dot_f32_lanes`], so the pair is bit-equal by construction.
pub fn dot_f32_lanes_scalar(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let full = (n / LANES) * LANES;
    let mut lanes = [0.0f32; LANES];
    for i in 0..full {
        lanes[i % LANES] += a[i] * b[i];
    }
    let mut tail = 0.0f32;
    for i in full..n {
        tail += a[i] * b[i];
    }
    reduce_lanes(lanes) + tail
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize, phase: f32) -> Vec<f32> {
        (0..n)
            .map(|i| (crate::cast::len_to_f32(i) * 0.37 + phase).sin() * 1.5)
            .collect()
    }

    #[test]
    fn chunked_equals_scalar_bitwise() {
        for n in [0, 1, 7, 8, 9, 16, 25, 64, 100, 900] {
            let a = ramp(n, 0.1);
            let b = ramp(n, 1.9);
            let fast = dot_f32_lanes(&a, &b);
            let slow = dot_f32_lanes_scalar(&a, &b);
            assert_eq!(fast.to_bits(), slow.to_bits(), "n={n}");
        }
    }

    #[test]
    fn close_to_f64_reference() {
        let n = 900;
        let a = ramp(n, 0.3);
        let b = ramp(n, 2.7);
        let got = dot_f32_lanes(&a, &b) as f64;
        let want: f64 = a.iter().zip(&b).map(|(&x, &y)| x as f64 * y as f64).sum();
        assert!((got - want).abs() < 1e-3, "got={got} want={want}");
    }

    #[test]
    fn empty_and_mismatched_lengths() {
        assert_eq!(dot_f32_lanes(&[], &[]), 0.0);
        let a = [1.0f32, 2.0, 3.0];
        let b = [4.0f32, 5.0];
        // shorter length wins
        assert_eq!(dot_f32_lanes(&a, &b), 14.0);
        assert_eq!(dot_f32_lanes_scalar(&a, &b), 14.0);
    }
}
