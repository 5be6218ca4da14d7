//! Interleaved accumulators — the paper's fix for the floating-point
//! accumulation latency in FC layers (§IV-B).
//!
//! A single f32 accumulator has an 11-cycle loop-carried dependency, so a
//! pipelined accumulation loop cannot reach `II = 1`. The paper's solution:
//! "we added more accumulators and interleaved their use by exploiting a
//! partial unrolling of the main loop. By using a higher number of
//! accumulators than the single addition latency, we reached a lower total
//! latency of the layer, but with a higher resource utilization."
//!
//! With `A` accumulators, consecutive inputs round-robin across them; each
//! individual accumulator sees a new addend only every `A` cycles, so the
//! loop II is `ceil(add_latency / A)` — unity once `A ≥ add_latency`. A
//! final tree reduction merges the `A` partials.
//!
//! [`InterleavedAccumulator`] implements both the *numerics* (the partial
//! sums and their merge order, reproducing hardware rounding exactly) and
//! the *timing* (II and drain latency used by the simulator and benches).

use crate::latency::OpLatency;
use crate::reduce::TreeAdder;

/// A bank of `A` round-robin accumulators plus a merge tree, generic over
/// the accumulator element (`f32` for the paper's datapath, `i64` for the
/// exact fixed-point accumulation where interleaving is a no-op
/// numerically but still models the hardware structure).
///
/// The f32 alias is [`InterleavedAccumulator`].
///
/// ```
/// use dfcnn_hls::{accum::InterleavedAccumulator, latency::OpLatency};
/// let ops = OpLatency::f32_virtex7(); // add latency = 11 cycles
/// // one accumulator cannot pipeline the FC input loop ...
/// assert_eq!(InterleavedAccumulator::new(1).loop_ii(&ops), 11);
/// // ... the paper's fix: at least `add latency` interleaved banks
/// let mut acc = InterleavedAccumulator::sized_for(&ops);
/// assert_eq!(acc.loop_ii(&ops), 1);
/// for v in [1.0, 2.0, 3.0, 4.0] { acc.push(v); }
/// assert_eq!(acc.total(), 10.0);
/// ```
#[derive(Clone, Debug)]
pub struct InterleavedBank<T> {
    partials: Vec<T>,
    next: usize,
    count: usize,
}

/// The f32 bank the paper's FC core uses. A distinct alias (rather than a
/// defaulted parameter at every call site) so existing `f32` call sites
/// keep full type inference.
pub type InterleavedAccumulator = InterleavedBank<f32>;

impl<T> InterleavedBank<T>
where
    T: Copy + Default + core::ops::Add<Output = T>,
{
    /// Create a bank of `banks ≥ 1` accumulators.
    pub fn new(banks: usize) -> Self {
        assert!(banks >= 1, "need at least one accumulator");
        InterleavedBank {
            partials: vec![T::default(); banks],
            next: 0,
            count: 0,
        }
    }

    /// The bank size chosen by the paper's rule: the smallest count that
    /// reaches `II = 1`, i.e. the addition latency itself.
    pub fn sized_for(ops: &OpLatency) -> Self {
        Self::new(ops.add as usize)
    }

    /// Number of accumulator banks.
    pub fn banks(&self) -> usize {
        self.partials.len()
    }

    /// Values accumulated so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Feed one value (round-robin bank selection).
    #[inline]
    pub fn push(&mut self, v: T) {
        self.partials[self.next] = self.partials[self.next] + v;
        self.next = (self.next + 1) % self.partials.len();
        self.count += 1;
    }

    /// Merge the partials through a tree adder and return the total.
    /// The accumulator stays usable (merge does not reset state).
    pub fn total(&self) -> T {
        TreeAdder::new(self.partials.len()).sum(&self.partials)
    }

    /// Reset to zero.
    pub fn reset(&mut self) {
        self.partials.iter_mut().for_each(|p| *p = T::default());
        self.next = 0;
        self.count = 0;
    }

    /// Initiation interval of the accumulation loop with this bank count:
    /// `ceil(add_latency / banks)`.
    pub fn loop_ii(&self, ops: &OpLatency) -> u32 {
        (ops.add as usize).div_ceil(self.partials.len()) as u32
    }

    /// Cycles to accumulate `n` inputs and drain: `n * II` for the feed
    /// (pipelined), plus the add pipeline flush, plus the merge tree.
    pub fn total_cycles(&self, n: usize, ops: &OpLatency) -> u64 {
        let feed = n as u64 * self.loop_ii(ops) as u64;
        let flush = ops.add as u64;
        let merge = TreeAdder::new(self.partials.len()).latency(ops) as u64;
        feed + flush + merge
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bank_is_plain_accumulation() {
        let mut a = InterleavedAccumulator::new(1);
        for v in [1.0f32, 2.0, 3.0] {
            a.push(v);
        }
        assert_eq!(a.total(), 6.0);
        assert_eq!(a.count(), 3);
    }

    #[test]
    fn multi_bank_exact_on_integers() {
        let mut a = InterleavedAccumulator::new(4);
        for v in 0..32 {
            a.push(v as f32);
        }
        assert_eq!(a.total(), (31 * 32 / 2) as f32);
    }

    #[test]
    fn partials_round_robin() {
        let mut a = InterleavedAccumulator::new(3);
        for v in [1.0f32, 10.0, 100.0, 2.0, 20.0, 200.0, 3.0] {
            a.push(v);
        }
        // banks: [1+2+3, 10+20, 100+200]
        assert_eq!(a.partials, vec![6.0, 30.0, 300.0]);
    }

    #[test]
    fn ii_reaches_one_at_add_latency_banks() {
        let ops = OpLatency::f32_virtex7(); // add = 11
        assert_eq!(InterleavedAccumulator::new(1).loop_ii(&ops), 11);
        assert_eq!(InterleavedAccumulator::new(4).loop_ii(&ops), 3);
        assert_eq!(InterleavedAccumulator::new(11).loop_ii(&ops), 1);
        assert_eq!(InterleavedAccumulator::new(16).loop_ii(&ops), 1);
        assert_eq!(InterleavedAccumulator::sized_for(&ops).banks(), 11);
    }

    #[test]
    fn fixed_point_needs_no_interleaving() {
        // §IV-B: "The issue does not arise when using integer values"
        let ops = OpLatency::fixed_point();
        assert_eq!(InterleavedAccumulator::new(1).loop_ii(&ops), 1);
    }

    #[test]
    fn more_banks_fewer_cycles_until_saturation() {
        let ops = OpLatency::f32_virtex7();
        let n = 900; // TC2 FC1 input count
        let cycles: Vec<u64> = [1usize, 2, 4, 8, 11, 16]
            .iter()
            .map(|&b| InterleavedAccumulator::new(b).total_cycles(n, &ops))
            .collect();
        // monotone non-increasing in feed cost until II hits 1
        assert!(cycles[0] > cycles[1]);
        assert!(cycles[1] > cycles[2]);
        assert!(cycles[2] > cycles[3]);
        assert!(cycles[3] > cycles[4]);
        // beyond A = add latency only the merge tree grows
        assert!(cycles[5] >= cycles[4]);
    }

    #[test]
    fn reset_clears_state() {
        let mut a = InterleavedAccumulator::new(2);
        a.push(5.0);
        a.reset();
        assert_eq!(a.total(), 0.0);
        assert_eq!(a.count(), 0);
    }

    #[test]
    fn i64_bank_is_exact_in_any_order() {
        // the fixed-point accumulator: interleaving cannot change the bits
        let mut a = InterleavedBank::<i64>::new(11);
        let mut b = InterleavedBank::<i64>::new(3);
        let mut seq = 0i64;
        for i in 0..1000i64 {
            let v = i * 7919 - 3500;
            a.push(v);
            b.push(v);
            seq += v;
        }
        assert_eq!(a.total(), seq);
        assert_eq!(b.total(), seq);
    }

    #[test]
    fn rounding_differs_from_sequential_sum() {
        // The interleaved order is a *different* float summation than the
        // naive left-to-right loop; the simulator must use the former.
        let values: Vec<f32> = (0..1000)
            .map(|i| if i % 2 == 0 { 1e7 } else { 0.123 })
            .collect();
        let mut a = InterleavedAccumulator::new(11);
        values.iter().for_each(|&v| a.push(v));
        let naive: f32 = values.iter().sum();
        // both are finite; they need not be equal (and here they are not)
        assert!(a.total().is_finite() && naive.is_finite());
        assert_ne!(a.total(), naive);
    }
}
