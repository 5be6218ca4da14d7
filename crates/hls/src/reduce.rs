//! Tree adder model — Algorithm 1's `reduce` step.
//!
//! "The multiplications results are then fed into a tree adder ... The tree
//! adder is used in order to improve the initial latency of the core, as it
//! executes the additions on parallel levels which decrease the pipeline
//! depth" (§IV-A). This module models both the *cost* (adder count, pipeline
//! depth) and the *numerics* (summation order) of that tree, so the cycle
//! simulator reproduces the hardware's floating-point rounding behaviour
//! exactly — bit-for-bit — rather than approximately.

use crate::latency::OpLatency;
use serde::{Deserialize, Serialize};

/// A balanced binary reduction tree over `n` inputs.
///
/// ```
/// use dfcnn_hls::{latency::OpLatency, reduce::TreeAdder};
/// let tree = TreeAdder::new(25); // a 5x5 window reduction
/// assert_eq!(tree.depth(), 5);
/// assert_eq!(tree.adder_count(), 24);
/// // the paper's rationale: far shallower than a sequential chain
/// let ops = OpLatency::f32_virtex7();
/// assert!(tree.latency(&ops) < tree.sequential_latency(&ops) / 4);
/// assert_eq!(tree.sum(&[1.0; 25]), 25.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TreeAdder {
    n: usize,
}

impl TreeAdder {
    /// Tree over `n ≥ 1` inputs.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "tree adder needs at least one input");
        TreeAdder { n }
    }

    /// Number of inputs.
    pub fn inputs(&self) -> usize {
        self.n
    }

    /// Number of levels: `ceil(log2 n)` (0 for a single input).
    pub fn depth(&self) -> u32 {
        usize::BITS - (self.n - 1).leading_zeros()
    }

    /// Total two-input adders instantiated: `n - 1`.
    pub fn adder_count(&self) -> usize {
        self.n - 1
    }

    /// Pipeline latency in cycles: `depth * add_latency`.
    pub fn latency(&self, ops: &OpLatency) -> u32 {
        self.depth() * ops.add
    }

    /// Latency of the *sequential* alternative (a single accumulator chain
    /// over `n` inputs): `(n - 1) * add_latency`, the baseline the §IV-A
    /// ablation compares against [`TreeAdder::latency`].
    pub fn sequential_latency(&self, ops: &OpLatency) -> u32 {
        (self.n as u32 - 1) * ops.add
    }

    /// Sum `values` in tree order, reproducing the hardware's floating
    /// point rounding: pairwise by level, odd element forwarded. Generic
    /// over the element type: for f32 the order *is* the rounding
    /// behaviour; for exact accumulators (fixed-point `i64`) any order
    /// gives the same bits, and this one models the hardware's latency.
    ///
    /// # Panics
    /// If `values.len() != self.inputs()`.
    pub fn sum<T>(&self, values: &[T]) -> T
    where
        T: Copy + core::ops::Add<Output = T>,
    {
        assert_eq!(values.len(), self.n, "tree adder arity mismatch");
        let mut level: Vec<T> = values.to_vec();
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            let mut it = level.chunks_exact(2);
            for pair in &mut it {
                next.push(pair[0] + pair[1]);
            }
            if let [odd] = it.remainder() {
                next.push(*odd);
            }
            level = next;
        }
        level[0]
    }

    /// Tree-order sum that reduces `values` in place (hot-loop variant:
    /// no allocation, no copy). Destroys the buffer's contents.
    /// Identical rounding to [`TreeAdder::sum`]: each level writes slot
    /// `i` from slots `2i` and `2i + 1`, so reads always stay at or ahead
    /// of writes.
    pub fn sum_in_place<T>(&self, values: &mut [T]) -> T
    where
        T: Copy + core::ops::Add<Output = T>,
    {
        assert_eq!(values.len(), self.n, "tree adder arity mismatch");
        let mut len = self.n;
        while len > 1 {
            let half = len / 2;
            for i in 0..half {
                values[i] = values[2 * i] + values[2 * i + 1];
            }
            if len % 2 == 1 {
                values[half] = values[len - 1];
                len = half + 1;
            } else {
                len = half;
            }
        }
        values[0]
    }

    /// `L` independent tree-order sums at once, one per lane: lane `l` of
    /// the result is `self.sum(&[leaf(0)[l], leaf(1)[l], ..])`, bit for
    /// bit, because every lane performs exactly the scalar pairing (level
    /// by level, odd element forwarded). Level 0 is fused with `leaf`:
    /// row `i` of the first level is `leaf(2i) + leaf(2i + 1)`, so leaves
    /// are never stored before their first add. The remaining levels run
    /// in `scratch`, which must hold at least `inputs().div_ceil(2)` rows
    /// (none for a single input).
    ///
    /// This is how the conv core's `OUT_FM` per-filter tree adders and
    /// the FC core's per-output merge trees map onto SIMD lanes: outputs
    /// go across lanes, each lane's reduction order stays the hardware's.
    pub fn sum_lanes<T, const L: usize>(
        &self,
        leaf: impl Fn(usize) -> [T; L],
        scratch: &mut [[T; L]],
    ) -> [T; L]
    where
        T: Copy + core::ops::Add<Output = T>,
    {
        let n = self.n;
        if n == 1 {
            return leaf(0);
        }
        let half = n / 2;
        let mut len = n.div_ceil(2);
        assert!(scratch.len() >= len, "scratch buffer too small");
        for (i, row) in scratch[..half].iter_mut().enumerate() {
            *row = add_lanes(leaf(2 * i), leaf(2 * i + 1));
        }
        if n % 2 == 1 {
            scratch[half] = leaf(n - 1);
        }
        while len > 1 {
            let half = len / 2;
            for i in 0..half {
                scratch[i] = add_lanes(scratch[2 * i], scratch[2 * i + 1]);
            }
            if len % 2 == 1 {
                scratch[half] = scratch[len - 1];
                len = half + 1;
            } else {
                len = half;
            }
        }
        scratch[0]
    }
}

/// Lane-wise `a + b`.
#[inline(always)]
fn add_lanes<T, const L: usize>(mut a: [T; L], b: [T; L]) -> [T; L]
where
    T: Copy + core::ops::Add<Output = T>,
{
    for (x, y) in a.iter_mut().zip(b) {
        *x = *x + y;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_values() {
        assert_eq!(TreeAdder::new(1).depth(), 0);
        assert_eq!(TreeAdder::new(2).depth(), 1);
        assert_eq!(TreeAdder::new(3).depth(), 2);
        assert_eq!(TreeAdder::new(4).depth(), 2);
        assert_eq!(TreeAdder::new(25).depth(), 5);
        assert_eq!(TreeAdder::new(150).depth(), 8);
    }

    #[test]
    fn adder_count_is_n_minus_1() {
        assert_eq!(TreeAdder::new(25).adder_count(), 24);
        assert_eq!(TreeAdder::new(1).adder_count(), 0);
    }

    #[test]
    fn tree_beats_sequential_latency() {
        // the paper's rationale for the tree adder
        let ops = OpLatency::f32_virtex7();
        let t = TreeAdder::new(25); // a 5x5 window reduction
        assert_eq!(t.latency(&ops), 5 * 11);
        assert_eq!(t.sequential_latency(&ops), 24 * 11);
        assert!(t.latency(&ops) < t.sequential_latency(&ops));
    }

    #[test]
    fn sum_matches_reference_on_integers() {
        // integer-valued floats: any summation order is exact
        let t = TreeAdder::new(7);
        let vals = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        assert_eq!(t.sum(&vals), 28.0);
    }

    #[test]
    fn sum_order_is_pairwise() {
        // Construct values where tree order differs from left-to-right
        // order in f32, and pin the tree result.
        let big = 1e8f32;
        let vals = [big, 1.0, -big, 1.0];
        let t = TreeAdder::new(4);
        // tree: (big + 1) + (-big + 1) = big + (-big + 1) = ... evaluate:
        let expect = (big + 1.0) + (-big + 1.0);
        assert_eq!(t.sum(&vals), expect);
        // sequential would give ((big + 1) - big) + 1 = 1 + ... different path
        let seq = ((big + 1.0) - big) + 1.0;
        // document that the orders genuinely differ numerically
        assert_ne!(expect, seq);
    }

    #[test]
    fn in_place_variant_matches_alloc_variant() {
        for n in 1..40 {
            let vals: Vec<f32> = (0..n).map(|i| (i as f32) * 0.7 - 3.0).collect();
            let t = TreeAdder::new(n);
            let mut buf = vals.clone();
            assert_eq!(t.sum_in_place(&mut buf), t.sum(&vals), "n={n}");
        }
        let vals: Vec<f32> = (0..25).map(|i| (i as f32) * 0.3 - 2.0).collect();
        let mut buf = vals.clone();
        assert_eq!(
            TreeAdder::new(25).sum_in_place(&mut buf),
            TreeAdder::new(25).sum(&vals)
        );
        // and on the rounding-sensitive pattern
        let vals = [1e8f32, 1.0, -1e8, 1.0];
        let t = TreeAdder::new(4);
        let mut buf = vals;
        assert_eq!(t.sum_in_place(&mut buf), t.sum(&vals));
    }

    #[test]
    fn generic_sum_on_i64_is_exact() {
        // the fixed-point accumulator type: tree order === sequential order
        for n in 1..40usize {
            let vals: Vec<i64> = (0..n).map(|i| (i as i64) * 7919 - 3500).collect();
            let t = TreeAdder::new(n);
            let seq: i64 = vals.iter().sum();
            assert_eq!(t.sum(&vals), seq, "n={n}");
            let mut buf = vals.clone();
            assert_eq!(t.sum_in_place(&mut buf), seq, "n={n}");
        }
    }

    /// Lane `l` of `sum_lanes` over `leaves` must equal `sum` over column
    /// `l`, bit for bit.
    fn assert_lanes_match_scalar<const L: usize>(leaves: &[[f32; L]]) {
        let n = leaves.len();
        let t = TreeAdder::new(n);
        let mut scratch = vec![[f32::NAN; L]; n.div_ceil(2)];
        let got = t.sum_lanes(|i| leaves[i], &mut scratch);
        for (l, g) in got.iter().enumerate() {
            let column: Vec<f32> = leaves.iter().map(|r| r[l]).collect();
            assert_eq!(g.to_bits(), t.sum(&column).to_bits(), "n={n}, lane {l}");
        }
    }

    #[test]
    fn lane_sums_match_scalar_sum_lane_by_lane() {
        // splitmix64 → sign · mantissa · 10^e with e in [-3, 6): mixed
        // magnitudes and signs, so most pairings round differently
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let mantissa = 1.0 + (z >> 40) as f32 / (1u32 << 24) as f32;
            let sign = if z & 1 == 0 { 1.0 } else { -1.0 };
            sign * mantissa * 10f32.powi((z >> 8 & 0xff) as i32 % 9 - 3)
        };
        let pattern = [1e8f32, 1.0, -1e8, 1.0];
        for n in 1..40 {
            // the rounding-sensitive pattern, rotated by the lane index so
            // each lane sees a different pairing of the large values
            let sensitive: Vec<[f32; 8]> = (0..n)
                .map(|i| core::array::from_fn(|l| pattern[(i + l) % 4]))
                .collect();
            let random: Vec<[f32; 8]> = (0..n).map(|_| core::array::from_fn(|_| next())).collect();
            for rows in [&sensitive, &random] {
                assert_lanes_match_scalar(rows);
                let lane0: Vec<[f32; 1]> = rows.iter().map(|r| [r[0]]).collect();
                assert_lanes_match_scalar(&lane0);
            }
        }
    }

    #[test]
    fn lane_sums_on_i64_are_exact() {
        let t = TreeAdder::new(25);
        let mut scratch = vec![[0i64; 8]; 13];
        let got = t.sum_lanes(
            |i| core::array::from_fn(|l| (i * 8 + l) as i64),
            &mut scratch,
        );
        for (l, &g) in got.iter().enumerate() {
            assert_eq!(g, (0..25).map(|i| (i * 8 + l) as i64).sum::<i64>());
        }
    }

    #[test]
    fn single_input_is_identity() {
        let t = TreeAdder::new(1);
        assert_eq!(t.sum(&[3.5]), 3.5);
        assert_eq!(t.sum_in_place(&mut [3.5]), 3.5);
    }

    #[test]
    fn odd_sizes_sum_correctly() {
        for n in 1..40 {
            let vals: Vec<f32> = (0..n).map(|i| i as f32).collect();
            let t = TreeAdder::new(n);
            let expect = (n * (n - 1) / 2) as f32;
            assert_eq!(t.sum(&vals), expect, "n={n}");
            let mut buf = vals.clone();
            assert_eq!(t.sum_in_place(&mut buf), expect, "n={n}");
        }
    }
}
