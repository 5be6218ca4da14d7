//! Q-format fixed-point scalar.
//!
//! The paper implements both test cases in single-precision floating point
//! but notes (§IV-B) that the 11-cycle floating-point accumulation latency
//! "does not arise when using integer values, and will be subject to further
//! study". [`Fixed`] is that further study's substrate: a signed 32-bit
//! value with a compile-time fractional bit count, providing saturating
//! arithmetic as a hardware fixed-point datapath would.

use crate::{Element, EXACT_LANES};
use serde::{Deserialize, Serialize};

/// Signed fixed-point number with `FRAC` fractional bits in an `i32`
/// container (Q`31-FRAC`.`FRAC` format).
///
/// Multiplication widens to `i64` before rescaling, like a DSP48 slice does;
/// all operations saturate instead of wrapping, matching common FPGA
/// datapath practice.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Fixed<const FRAC: u32 = 16>(i32);

// Serialised as the raw bit pattern (a bare integer, like serde's derived
// newtype representation). Written by hand because the type is generic.
impl<const FRAC: u32> Serialize for Fixed<FRAC> {
    fn to_value(&self) -> serde::Value {
        self.0.to_value()
    }
}

impl<const FRAC: u32> Deserialize for Fixed<FRAC> {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        i32::from_value(v).map(Fixed)
    }
}

impl<const FRAC: u32> Fixed<FRAC> {
    /// Smallest representable value.
    pub const MIN: Self = Fixed(i32::MIN);
    /// Largest representable value.
    pub const MAX: Self = Fixed(i32::MAX);
    /// The scale factor `2^FRAC`.
    pub const SCALE: f64 = (1u64 << FRAC) as f64;

    /// Construct from the raw fixed-point bit pattern.
    #[inline]
    pub const fn from_raw(raw: i32) -> Self {
        Fixed(raw)
    }

    /// The raw bit pattern.
    #[inline]
    pub const fn raw(self) -> i32 {
        self.0
    }

    /// Convert from `f64`, saturating at the representable range.
    pub fn from_f64(v: f64) -> Self {
        Fixed(<i32 as crate::cast::SatNarrow>::sat_round_f64(
            v * Self::SCALE,
        ))
    }

    /// Convert to `f64` exactly.
    #[inline]
    pub fn to_f64(self) -> f64 {
        f64::from(self.0) / Self::SCALE
    }

    /// Quantisation step (the value of one LSB).
    #[inline]
    pub fn epsilon() -> f64 {
        1.0 / Self::SCALE
    }

    /// Saturating addition.
    #[inline]
    pub fn saturating_add(self, rhs: Self) -> Self {
        Fixed(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Self) -> Self {
        Fixed(self.0.saturating_sub(rhs.0))
    }

    /// Saturating multiplication with full-width intermediate, as a DSP
    /// slice computes it (widen, multiply, shift back, saturate).
    #[inline]
    pub fn saturating_mul(self, rhs: Self) -> Self {
        let wide = (i64::from(self.0) * i64::from(rhs.0)) >> FRAC;
        Fixed(<i32 as crate::cast::SatNarrow>::sat_i64(wide))
    }
}

impl<const FRAC: u32> core::ops::Add for Fixed<FRAC> {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        self.saturating_add(rhs)
    }
}

impl<const FRAC: u32> core::ops::Sub for Fixed<FRAC> {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        self.saturating_sub(rhs)
    }
}

impl<const FRAC: u32> core::ops::Mul for Fixed<FRAC> {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        self.saturating_mul(rhs)
    }
}

impl<const FRAC: u32> core::ops::Neg for Fixed<FRAC> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Fixed(self.0.saturating_neg())
    }
}

impl<const FRAC: u32> Element for Fixed<FRAC> {
    #[inline]
    fn zero() -> Self {
        Fixed(0)
    }
    #[inline]
    fn one() -> Self {
        Fixed(1i32 << FRAC)
    }
    #[inline]
    fn from_f32(v: f32) -> Self {
        Self::from_f64(f64::from(v))
    }
    #[inline]
    fn to_f32(self) -> f32 {
        crate::cast::f64_to_f32(self.to_f64())
    }
}

impl<const FRAC: u32> core::fmt::Display for Fixed<FRAC> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.to_f64())
    }
}

/// The default fixed-point format used by the fixed-point design study:
/// Q15.16, a common choice for CNN inference on Virtex-7-class DSP slices.
pub type Q16 = Fixed<16>;

/// Default fractional bit count for the executed fixed-point datapath
/// (Q7.8 in an `i16`). Chosen by the accuracy-vs-FRAC sweep in
/// `EXPERIMENTS.md`: on both paper test cases it matches the f32
/// classification accuracy while halving multiplier width.
pub const DEFAULT_FRAC: u32 = 8;

/// The activation unit's tanh as a lookup table over raw values, for one
/// storage width and `FRAC`: entry `i` is the output at raw `lo + i`.
///
/// tanh, `to_f32` and `from_f32` are all monotone, so the output is flat
/// from the first raw whose output equals the output at the container
/// bound outward; the table stops there and lookups clamp into
/// `[lo, hi]`.
struct TanhTable<S> {
    lo: S,
    hi: S,
    out: Box<[S]>,
}

/// Independent `i32` lane sets in [`crate::Numeric::mac_lanes`]: input
/// values go round-robin over them, so consecutive multiply-adds do not
/// wait on each other's result.
const LANE_SETS: usize = 4;

/// Add the `i32` lane sets of [`crate::Numeric::mac_lanes`] into their
/// `i64` totals and clear them.
#[inline]
fn spill_lanes(acc: &mut [i64; EXACT_LANES], lanes: &mut [[i32; EXACT_LANES]; LANE_SETS]) {
    for set in lanes.iter_mut() {
        for (a, s) in acc.iter_mut().zip(set.iter_mut()) {
            *a += i64::from(*s);
            *s = 0;
        }
    }
}

// Narrow-storage fixed-point scalars for the *executed* datapath.
//
// [`Fixed`] above keeps 32-bit storage and exists for costing studies; the
// engines execute [`Fixed16`]/[`Fixed8`], whose narrow products
// (16×16→32, 8×8→16) accumulate exactly in an `i64` — the software model
// of a DSP48 slice's 48-bit accumulator. Because integer addition is
// associative, any summation order (tree, interleaved banks, SIMD lanes)
// produces the same bits, which is what lets all three engines agree
// bit-for-bit in fixed point.
macro_rules! narrow_fixed {
    ($(#[$doc:meta])* $name:ident, $store:ty, $default_frac:expr) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name<const FRAC: u32 = $default_frac>(pub(crate) $store);

        impl<const FRAC: u32> Serialize for $name<FRAC> {
            fn to_value(&self) -> serde::Value {
                i32::from(self.0).to_value()
            }
        }

        impl<const FRAC: u32> Deserialize for $name<FRAC> {
            fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
                i32::from_value(v).map(|raw| {
                    $name(<$store as crate::cast::SatNarrow>::sat_i32(raw))
                })
            }
        }

        impl<const FRAC: u32> $name<FRAC> {
            /// Smallest representable value.
            pub const MIN: Self = $name(<$store>::MIN);
            /// Largest representable value.
            pub const MAX: Self = $name(<$store>::MAX);
            /// The scale factor `2^FRAC`.
            pub const SCALE: f64 = (1u64 << FRAC) as f64;

            /// Construct from the raw fixed-point bit pattern.
            #[inline]
            pub const fn from_raw(raw: $store) -> Self {
                $name(raw)
            }

            /// The raw bit pattern.
            #[inline]
            pub const fn raw(self) -> $store {
                self.0
            }

            /// Convert from `f64`, saturating at the representable range.
            pub fn from_f64(v: f64) -> Self {
                $name(<$store as crate::cast::SatNarrow>::sat_round_f64(v * Self::SCALE))
            }

            /// Convert to `f64` exactly.
            #[inline]
            pub fn to_f64(self) -> f64 {
                f64::from(self.0) / Self::SCALE
            }

            /// Quantisation step (the value of one LSB).
            #[inline]
            pub fn epsilon() -> f64 {
                1.0 / Self::SCALE
            }

            /// Saturating addition.
            #[inline]
            pub fn saturating_add(self, rhs: Self) -> Self {
                $name(self.0.saturating_add(rhs.0))
            }

            /// Saturating subtraction.
            #[inline]
            pub fn saturating_sub(self, rhs: Self) -> Self {
                $name(self.0.saturating_sub(rhs.0))
            }

            /// Saturating multiplication with full-width intermediate
            /// (widen, multiply, arithmetic shift back, saturate — the
            /// truncation rounds toward negative infinity, like the
            /// hardware rescale).
            #[inline]
            pub fn saturating_mul(self, rhs: Self) -> Self {
                let wide = (i32::from(self.0) * i32::from(rhs.0)) >> FRAC;
                $name(<$store as crate::cast::SatNarrow>::sat_i32(wide))
            }

            /// Lane-chunked MAC with `i64` lane accumulators: `i32`
            /// products per chunk, widened and added to 32 independent
            /// sums. The `chunks_exact` structure is what lets LLVM drop
            /// the bounds checks and vectorize; exact in any order, so
            /// bit-identical to the sequential loop.
            #[inline]
            fn dot_i64_lanes(a: &[Self], b: &[Self]) -> i64 {
                const LANES: usize = 32;
                let n = a.len().min(b.len());
                let (a, b) = (&a[..n], &b[..n]);
                let mut lanes = [0i64; LANES];
                let mut ca = a.chunks_exact(LANES);
                let mut cb = b.chunks_exact(LANES);
                for (ka, kb) in ca.by_ref().zip(cb.by_ref()) {
                    let mut prod = [0i32; LANES];
                    for l in 0..LANES {
                        prod[l] = i32::from(ka[l].0) * i32::from(kb[l].0);
                    }
                    for l in 0..LANES {
                        lanes[l] += i64::from(prod[l]);
                    }
                }
                let mut acc: i64 = lanes.iter().sum();
                for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
                    acc += i64::from(i32::from(x.0) * i32::from(y.0));
                }
                acc
            }

            /// Lane-chunked MAC with `i32` lane accumulators — only exact
            /// when products fit in an `i16` (8-bit storage), which bounds
            /// each lane's partial sum by `2^16 · 2^14 < i32::MAX` per
            /// block; blocks spill into the `i64` total. `dot_acc` only
            /// selects this kernel for 1-byte storage.
            #[inline]
            fn dot_i32_lanes(a: &[Self], b: &[Self]) -> i64 {
                const LANES: usize = 16;
                const BLOCK: usize = LANES * (1 << 16);
                // Exactness argument (doc above) requires 1-byte storage:
                // wider products would overflow the i32 lane accumulators.
                debug_assert!(core::mem::size_of::<$store>() == 1);
                let n = a.len().min(b.len());
                let (mut a, mut b) = (&a[..n], &b[..n]);
                let mut acc = 0i64;
                while !a.is_empty() {
                    let take = a.len().min(BLOCK);
                    let (ha, ta) = a.split_at(take);
                    let (hb, tb) = b.split_at(take);
                    let mut lanes = [0i32; LANES];
                    let mut ca = ha.chunks_exact(LANES);
                    let mut cb = hb.chunks_exact(LANES);
                    for (ka, kb) in ca.by_ref().zip(cb.by_ref()) {
                        for l in 0..LANES {
                            lanes[l] += i32::from(ka[l].0) * i32::from(kb[l].0);
                        }
                    }
                    acc += lanes.iter().map(|&v| i64::from(v)).sum::<i64>();
                    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
                        acc += i64::from(i32::from(x.0) * i32::from(y.0));
                    }
                    a = ta;
                    b = tb;
                }
                acc
            }
        }

        impl<const FRAC: u32> $name<FRAC> {
            /// `xs[i] · rows[i · stride]` into the lane sets of
            /// [`crate::Numeric::mac_lanes`], round robin, with no spill.
            /// Contiguous rows (`stride == 1`, the host's interior windows)
            /// take a loop free of bounds checks.
            #[inline(always)]
            fn mac_run(
                lanes: &mut [[i32; EXACT_LANES]; LANE_SETS],
                xs: &[Self],
                rows: &[[Self; EXACT_LANES]],
                stride: usize,
            ) {
                let (quads, tail) = xs.as_chunks::<LANE_SETS>();
                let [l0, l1, l2, l3] = lanes;
                if stride == 1 {
                    let (row_quads, row_tail) = rows[..xs.len()].as_chunks::<LANE_SETS>();
                    for (x, r) in quads.iter().zip(row_quads) {
                        Self::mac_row(l0, x[0].0, &r[0]);
                        Self::mac_row(l1, x[1].0, &r[1]);
                        Self::mac_row(l2, x[2].0, &r[2]);
                        Self::mac_row(l3, x[3].0, &r[3]);
                    }
                    for (x, r) in tail.iter().zip(row_tail) {
                        Self::mac_row(l0, x.0, r);
                    }
                } else {
                    for (x, r) in quads.iter().zip(rows.chunks(LANE_SETS * stride)) {
                        Self::mac_row(l0, x[0].0, &r[0]);
                        Self::mac_row(l1, x[1].0, &r[stride]);
                        Self::mac_row(l2, x[2].0, &r[2 * stride]);
                        Self::mac_row(l3, x[3].0, &r[3 * stride]);
                    }
                    let rows = rows.get(quads.len() * LANE_SETS * stride..).unwrap_or_default();
                    for (x, r) in tail.iter().zip(rows.chunks(stride)) {
                        Self::mac_row(l0, x.0, &r[0]);
                    }
                }
            }

            /// One input value broadcast across one weight row into a lane
            /// set of [`crate::Numeric::mac_lanes`].
            #[inline(always)]
            fn mac_row(set: &mut [i32; EXACT_LANES], x: $store, row: &[Self; EXACT_LANES]) {
                let x = i32::from(x);
                for (s, w) in set.iter_mut().zip(row) {
                    *s += x * i32::from(w.0);
                }
            }

            /// [`crate::Numeric::tanh_hw`]'s default expression, at one raw:
            /// the workspace's [`crate::tanh()`] on the value in `f32`.
            fn tanh_f32(raw: $store) -> $store {
                <Self as Element>::from_f32(crate::tanh(Self(raw).to_f32())).0
            }

            /// Evaluate [`Self::tanh_f32`] from raw 0 outward on each side
            /// until it reaches its value at that side's container bound.
            fn build_tanh_table() -> TanhTable<$store> {
                let top = Self::tanh_f32(<$store>::MAX);
                let bottom = Self::tanh_f32(<$store>::MIN);
                let mut hi: $store = 0;
                while hi < <$store>::MAX && Self::tanh_f32(hi) != top {
                    hi += 1;
                }
                let mut lo: $store = 0;
                while lo > <$store>::MIN && Self::tanh_f32(lo) != bottom {
                    lo -= 1;
                }
                TanhTable {
                    lo,
                    hi,
                    out: (lo..=hi).map(Self::tanh_f32).collect(),
                }
            }

            /// This format's table, built on first use and shared by every
            /// thread for the rest of the process.
            fn tanh_table() -> &'static TanhTable<$store> {
                // One slot per FRAC: a `static` in a generic impl is shared
                // by every `FRAC`, so the slot index keeps formats apart.
                static TABLES: [std::sync::OnceLock<TanhTable<$store>>; 32] =
                    [const { std::sync::OnceLock::new() }; 32];
                TABLES[FRAC as usize].get_or_init(Self::build_tanh_table)
            }
        }

        impl<const FRAC: u32> core::ops::Add for $name<FRAC> {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                self.saturating_add(rhs)
            }
        }

        impl<const FRAC: u32> core::ops::Sub for $name<FRAC> {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                self.saturating_sub(rhs)
            }
        }

        impl<const FRAC: u32> core::ops::Mul for $name<FRAC> {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: Self) -> Self {
                self.saturating_mul(rhs)
            }
        }

        impl<const FRAC: u32> core::ops::Neg for $name<FRAC> {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                $name(self.0.saturating_neg())
            }
        }

        impl<const FRAC: u32> Element for $name<FRAC> {
            #[inline]
            fn zero() -> Self {
                $name(0)
            }
            #[inline]
            fn one() -> Self {
                $name(1 << FRAC)
            }
            #[inline]
            fn from_f32(v: f32) -> Self {
                Self::from_f64(f64::from(v))
            }
            #[inline]
            fn to_f32(self) -> f32 {
                crate::cast::f64_to_f32(self.to_f64())
            }
        }

        impl<const FRAC: u32> crate::Numeric for $name<FRAC> {
            type Acc = i64;
            const EXACT_SUM: bool = true;

            #[inline]
            fn min_value() -> Self {
                Self::MIN
            }

            #[inline]
            fn max_hw(self, other: Self) -> Self {
                if self >= other {
                    self
                } else {
                    other
                }
            }

            /// Lift a value to the product scale `2^(2·FRAC)` so it can be
            /// added to raw products (how the bias enters a MAC chain).
            #[inline]
            fn widen(self) -> i64 {
                debug_assert!(FRAC < 32, "widen would shift past the i64 product scale");
                i64::from(self.0) << FRAC
            }

            /// Full-width product at scale `2^(2·FRAC)`; narrow×narrow
            /// cannot overflow the `i32` intermediate.
            #[inline]
            fn mul_full(self, rhs: Self) -> i64 {
                i64::from(i32::from(self.0) * i32::from(rhs.0))
            }

            /// Rescale an accumulator back to `2^FRAC` (arithmetic shift:
            /// truncation toward −∞, matching `saturating_mul`) and
            /// saturate into storage.
            #[inline]
            fn narrow(acc: i64) -> Self {
                debug_assert!(FRAC < 63, "narrow would shift the accumulator away");
                $name(<$store as crate::cast::SatNarrow>::sat_i64(acc >> FRAC))
            }

            fn dot_acc(a: &[Self], b: &[Self]) -> i64 {
                // Integer sums are exact, so any lane discipline equals the
                // scalar loop bit-for-bit; the two kernels below only pick
                // the cheapest *accumulator width* per storage width. The
                // branch is on a compile-time constant.
                if core::mem::size_of::<$store>() == 1 {
                    Self::dot_i32_lanes(a, b)
                } else {
                    Self::dot_i64_lanes(a, b)
                }
            }

            fn dot_acc_scalar(a: &[Self], b: &[Self]) -> i64 {
                let n = a.len().min(b.len());
                let mut acc = 0i64;
                for i in 0..n {
                    acc += i64::from(i32::from(a[i].0) * i32::from(b[i].0));
                }
                acc
            }

            /// `i16·i16 → i32` (or `i8·i8`) products added into 16 `i32`
            /// lanes, which spill into the `i64` result every `spill` input
            /// values and once at the end. Exact, and so equal to any other
            /// summation order, whenever `spill` ≤ [`crate::Numeric::lane_spill`] of
            /// the weights in `rows`.
            #[inline]
            fn mac_lanes<'a>(
                segments: impl IntoIterator<Item = (&'a [Self], &'a [[Self; EXACT_LANES]])>,
                stride: usize,
                spill: usize,
            ) -> [i64; EXACT_LANES] {
                assert!(spill > 0, "a lane must take at least one value between spills");
                let mut acc = [0i64; EXACT_LANES];
                let mut lanes = [[0i32; EXACT_LANES]; LANE_SETS];
                let mut left = spill;
                for (mut xs, mut rows) in segments {
                    while xs.len() >= left {
                        let (now, rest) = xs.split_at(left);
                        Self::mac_run(&mut lanes, now, rows, stride);
                        spill_lanes(&mut acc, &mut lanes);
                        rows = rows.get(left * stride..).unwrap_or_default();
                        xs = rest;
                        left = spill;
                    }
                    Self::mac_run(&mut lanes, xs, rows, stride);
                    left -= xs.len();
                }
                spill_lanes(&mut acc, &mut lanes);
                acc
            }

            /// The largest `n` with `n · max|raw w| · |MIN| ≤ i32::MAX`: no
            /// input the storage type can hold drives an `i32` lane past
            /// its range within `n` products, whatever the input range the
            /// design assumes.
            fn lane_spill(weights: &[Self]) -> usize {
                let w_max = weights.iter().map(|w| w.0.unsigned_abs()).max().unwrap_or(0);
                let per_value = u64::from(w_max) * u64::from(<$store>::MIN.unsigned_abs());
                match per_value {
                    0 => usize::MAX,
                    p => usize::try_from(u64::from(i32::MAX.unsigned_abs()) / p)
                        .unwrap_or(usize::MAX),
                }
            }

            /// A table lookup, equal on every raw value to the default
            /// `from_f32(tanh(to_f32()))` it is built from. Neither path
            /// ever clamps: |tanh x| ≤ |x|, so no output raw is larger in
            /// magnitude than its input raw.
            #[inline]
            fn tanh_hw(self) -> Self {
                let t = Self::tanh_table();
                let i = i32::from(self.0.clamp(t.lo, t.hi)) - i32::from(t.lo);
                $name(t.out[i as usize])
            }
        }

        impl<const FRAC: u32> core::fmt::Display for $name<FRAC> {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                write!(f, "{}", self.to_f64())
            }
        }
    };
}

narrow_fixed!(
    /// Signed fixed-point number with `FRAC` fractional bits in an `i16`
    /// container (Q`15-FRAC`.`FRAC`): the executed datapath's 16-bit
    /// storage format. Products widen to `i32` (one DSP48 multiply) and
    /// accumulate exactly in `i64`.
    Fixed16,
    i16,
    8
);

narrow_fixed!(
    /// Signed fixed-point number with `FRAC` fractional bits in an `i8`
    /// container (Q`7-FRAC`.`FRAC`): the executed datapath's 8-bit
    /// storage format, for the aggressive end of the precision sweep.
    Fixed8,
    i8,
    4
);

/// A runtime-selectable numeric format for the executed datapath.
///
/// `DesignConfig::numeric` carries one of these; consumers dispatch to a
/// monomorphized kernel with [`with_numeric!`](crate::with_numeric). Only
/// the combinations listed in [`NumericSpec::is_supported`] have compiled
/// kernels — `NetworkDesign::new` rejects the rest up front.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum NumericSpec {
    /// IEEE single precision — the paper's published configuration.
    #[default]
    F32,
    /// [`Fixed16`] with the given fractional bit count.
    Fixed16 { frac: u32 },
    /// [`Fixed8`] with the given fractional bit count.
    Fixed8 { frac: u32 },
}

impl NumericSpec {
    /// The default fixed-point execution format (`Fixed16<DEFAULT_FRAC>`).
    pub fn default_fixed() -> Self {
        NumericSpec::Fixed16 { frac: DEFAULT_FRAC }
    }

    /// Whether a monomorphized kernel exists for this format. The set is
    /// deliberately small (each entry is a full copy of every kernel):
    /// f32, Fixed16 with FRAC ∈ {6, 8, 10, 12}, Fixed8 with FRAC ∈ {4, 6}.
    pub fn is_supported(self) -> bool {
        match self {
            NumericSpec::F32 => true,
            NumericSpec::Fixed16 { frac } => matches!(frac, 6 | 8 | 10 | 12),
            NumericSpec::Fixed8 { frac } => matches!(frac, 4 | 6),
        }
    }

    /// Storage width in bits.
    pub fn storage_bits(self) -> u32 {
        match self {
            NumericSpec::F32 => 32,
            NumericSpec::Fixed16 { .. } => 16,
            NumericSpec::Fixed8 { .. } => 8,
        }
    }

    /// Fractional bit count, if fixed point.
    pub fn frac(self) -> Option<u32> {
        match self {
            NumericSpec::F32 => None,
            NumericSpec::Fixed16 { frac } | NumericSpec::Fixed8 { frac } => Some(frac),
        }
    }

    /// Whether this is a fixed-point format.
    pub fn is_fixed(self) -> bool {
        !matches!(self, NumericSpec::F32)
    }

    /// Quantisation step (one LSB) — 0 for f32.
    pub fn epsilon(self) -> f64 {
        match self.frac() {
            Some(frac) => 1.0 / (1u64 << frac) as f64,
            None => 0.0,
        }
    }

    /// A short human-readable label, e.g. `f32`, `q16f8`, `q8f4`.
    pub fn label(self) -> String {
        match self {
            NumericSpec::F32 => "f32".into(),
            NumericSpec::Fixed16 { frac } => format!("q16f{frac}"),
            NumericSpec::Fixed8 { frac } => format!("q8f{frac}"),
        }
    }

    /// Every supported spec, in label order (f32 first, then 16-bit, then
    /// 8-bit formats by rising FRAC).
    pub fn supported() -> Vec<NumericSpec> {
        let mut all = vec![NumericSpec::F32];
        all.extend([6, 8, 10, 12].map(|frac| NumericSpec::Fixed16 { frac }));
        all.extend([4, 6].map(|frac| NumericSpec::Fixed8 { frac }));
        all
    }

    /// Labels of every supported spec (for error messages and CLIs).
    pub fn supported_labels() -> Vec<String> {
        Self::supported().into_iter().map(Self::label).collect()
    }

    /// Parse a [`NumericSpec::label`]-format string (`f32`, `q16f8`, …).
    pub fn parse(s: &str) -> Result<Self, String> {
        let spec = if s == "f32" {
            NumericSpec::F32
        } else if let Some(f) = s.strip_prefix("q16f") {
            NumericSpec::Fixed16 {
                frac: f.parse().map_err(|_| format!("bad FRAC in {s:?}"))?,
            }
        } else if let Some(f) = s.strip_prefix("q8f") {
            NumericSpec::Fixed8 {
                frac: f.parse().map_err(|_| format!("bad FRAC in {s:?}"))?,
            }
        } else {
            return Err(format!(
                "unknown numeric spec {s:?} (expected one of {})",
                Self::supported_labels().join(", ")
            ));
        };
        if !spec.is_supported() {
            return Err(format!(
                "no kernel monomorphization for {s:?} (supported: {})",
                Self::supported_labels().join(", ")
            ));
        }
        Ok(spec)
    }
}

/// Monomorphize a block of code over a [`NumericSpec`].
///
/// `with_numeric!(spec, E => expr)` binds the type alias `E` to the
/// concrete element type selected by `spec` and evaluates `expr`. Panics
/// on an unsupported spec — callers go through `NetworkDesign::new`, which
/// validates [`NumericSpec::is_supported`] first.
///
/// ```
/// use dfcnn_tensor::{with_numeric, fixed::NumericSpec, Element};
/// let spec = NumericSpec::default_fixed();
/// let y = with_numeric!(spec, E => E::from_f32(0.5).to_f32());
/// assert_eq!(y, 0.5);
/// ```
#[macro_export]
macro_rules! with_numeric {
    ($spec:expr, $E:ident => $body:expr) => {{
        match $spec {
            $crate::fixed::NumericSpec::F32 => {
                type $E = f32;
                $body
            }
            $crate::fixed::NumericSpec::Fixed16 { frac: 6 } => {
                type $E = $crate::fixed::Fixed16<6>;
                $body
            }
            $crate::fixed::NumericSpec::Fixed16 { frac: 8 } => {
                type $E = $crate::fixed::Fixed16<8>;
                $body
            }
            $crate::fixed::NumericSpec::Fixed16 { frac: 10 } => {
                type $E = $crate::fixed::Fixed16<10>;
                $body
            }
            $crate::fixed::NumericSpec::Fixed16 { frac: 12 } => {
                type $E = $crate::fixed::Fixed16<12>;
                $body
            }
            $crate::fixed::NumericSpec::Fixed8 { frac: 4 } => {
                type $E = $crate::fixed::Fixed8<4>;
                $body
            }
            $crate::fixed::NumericSpec::Fixed8 { frac: 6 } => {
                type $E = $crate::fixed::Fixed8<6>;
                $body
            }
            other => panic!(
                "no kernel monomorphization for numeric spec {:?} \
                 (see NumericSpec::is_supported)",
                other
            ),
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_exact_values() {
        for v in [-2.5f64, -1.0, 0.0, 0.5, 1.0, 3.25] {
            assert_eq!(Q16::from_f64(v).to_f64(), v);
        }
    }

    #[test]
    fn one_is_scale() {
        assert_eq!(<Q16 as Element>::one().raw(), 1 << 16);
        assert_eq!(<Q16 as Element>::one().to_f64(), 1.0);
    }

    #[test]
    fn add_sub_mul() {
        let a = Q16::from_f64(1.5);
        let b = Q16::from_f64(2.0);
        assert_eq!((a + b).to_f64(), 3.5);
        assert_eq!((a - b).to_f64(), -0.5);
        assert_eq!((a * b).to_f64(), 3.0);
    }

    #[test]
    fn mul_truncates_toward_neg_infinity_like_hw() {
        // (1/65536) * (1/65536) underflows to zero in Q15.16
        let eps = Q16::from_raw(1);
        assert_eq!((eps * eps).raw(), 0);
    }

    #[test]
    fn saturation_at_extremes() {
        let big = Q16::from_f64(30000.0);
        assert_eq!(big + big, Q16::MAX);
        assert_eq!(big * big, Q16::MAX);
        let small = Q16::from_f64(-30000.0);
        assert_eq!(small + small, Q16::MIN);
        assert_eq!(Q16::from_f64(1e12), Q16::MAX);
        assert_eq!(Q16::from_f64(-1e12), Q16::MIN);
    }

    #[test]
    fn quantisation_error_bounded_by_half_lsb() {
        for i in 0..100 {
            let v = (i as f64) * 0.0137 - 0.7;
            let q = Q16::from_f64(v).to_f64();
            assert!((q - v).abs() <= Q16::epsilon() / 2.0 + 1e-12, "v={v} q={q}");
        }
    }

    #[test]
    fn element_impl_via_f32() {
        let x = <Q16 as Element>::from_f32(0.25);
        assert_eq!(x.to_f32(), 0.25);
        assert_eq!(<Q16 as Element>::zero().to_f32(), 0.0);
    }

    #[test]
    fn neg_saturates_min() {
        assert_eq!((-Q16::MIN).raw(), i32::MAX);
        assert_eq!((-Q16::from_f64(1.0)).to_f64(), -1.0);
    }

    mod narrow {
        use super::super::*;
        use crate::{Numeric, EXACT_LANES};

        type Q = Fixed16<8>;
        type B = Fixed8<4>;

        #[test]
        fn roundtrip_exact_values() {
            for v in [-2.5f64, -1.0, 0.0, 0.5, 1.0, 3.25] {
                assert_eq!(Q::from_f64(v).to_f64(), v);
                assert_eq!(B::from_f64(v).to_f64(), v);
            }
        }

        #[test]
        fn one_is_scale() {
            assert_eq!(<Q as Element>::one().raw(), 1 << 8);
            assert_eq!(<B as Element>::one().raw(), 1 << 4);
        }

        #[test]
        fn saturation_at_extremes() {
            let big = Q::from_f64(120.0);
            assert_eq!(big + big, Q::MAX);
            assert_eq!(big * big, Q::MAX);
            assert_eq!(Q::from_f64(1e9), Q::MAX);
            assert_eq!(Q::from_f64(-1e9), Q::MIN);
            assert_eq!(B::from_f64(100.0), B::MAX);
            assert_eq!((-B::MIN).raw(), i8::MAX);
        }

        #[test]
        fn widen_narrow_is_identity_in_range() {
            for v in [-3.5f32, -0.25, 0.0, 1.0, 2.75] {
                let q = <Q as Element>::from_f32(v);
                assert_eq!(Q::narrow(q.widen()), q);
            }
        }

        #[test]
        fn mul_full_matches_saturating_mul_in_range() {
            let a = Q::from_f64(1.5);
            let b = Q::from_f64(-2.25);
            assert_eq!(Q::narrow(a.mul_full(b)), a * b);
        }

        #[test]
        fn dot_acc_equals_scalar_exactly() {
            let a: Vec<Q> = (0..100)
                .map(|i| Q::from_f64((i as f64) * 0.031 - 1.2))
                .collect();
            let b: Vec<Q> = (0..100)
                .map(|i| Q::from_f64(0.9 - (i as f64) * 0.017))
                .collect();
            assert_eq!(Q::dot_acc(&a, &b), Q::dot_acc_scalar(&a, &b));
        }

        /// `mac_lanes` against a plain `i64` sum per lane, over segments of
        /// assorted lengths read contiguously and at a stride, for spill
        /// counts that fall inside, at the end of and beyond a segment.
        fn check_mac_lanes<E: Numeric<Acc = i64>>(
            weight: impl Fn(usize) -> E,
            x: impl Fn(usize) -> E,
        ) {
            let rows: Vec<[E; EXACT_LANES]> = (0..120)
                .map(|i| core::array::from_fn(|l| weight(i * EXACT_LANES + l)))
                .collect();
            let xs: Vec<E> = (0..40).map(x).collect();
            let safe = E::lane_spill(rows.as_flattened());
            for stride in [1usize, 3] {
                let cuts = [(0usize, 5usize), (5, 9), (9, 9), (9, 22), (22, 40)];
                let segments = || cuts.iter().map(|&(a, b)| (&xs[a..b], &rows[a * stride..]));
                let mut want = [0i64; EXACT_LANES];
                for (seg, seg_rows) in segments() {
                    for (i, x) in seg.iter().enumerate() {
                        for (w, r) in want.iter_mut().zip(&seg_rows[i * stride]) {
                            *w += x.mul_full(*r);
                        }
                    }
                }
                for spill in [1usize, 3, 4, 5, 13, 40, safe]
                    .into_iter()
                    .filter(|&n| n <= safe)
                {
                    let got = E::mac_lanes(segments(), stride, spill);
                    assert_eq!(got, want, "stride {stride}, spill {spill}");
                }
            }
        }

        #[test]
        fn mac_lanes_equals_scalar_sum_across_spills() {
            // `v` folded into `[-span/2, span/2)`
            fn centred(v: usize, span: usize) -> i32 {
                i32::try_from(v % span).unwrap() - i32::try_from(span / 2).unwrap()
            }
            let raw16 = |v, span| Q::from_raw(i16::try_from(centred(v, span)).unwrap());
            let raw8 = |v| B::from_raw(i8::try_from(centred(v, 256)).unwrap());
            // inputs over each storage type's whole range; 16-bit weights
            // within ±1024, so the spill bound (63) leaves room to vary it
            check_mac_lanes(|i| raw16(i * 7919, 2048), |i| raw16(i * 7919, 65536));
            check_mac_lanes(|i| raw8(i * 151), |i| raw8(i * 1057 + 3));
        }

        #[test]
        fn lane_spill_is_the_largest_safe_count() {
            let w = [Q::from_raw(-3), Q::from_raw(1024), Q::from_raw(0)];
            // 1024 · 32768 = 2^25 per value: 63 values fit below 2^31
            assert_eq!(Q::lane_spill(&w), 63);
            assert_eq!(Q::lane_spill(&[Q::MIN]), 1);
            // 32767 · 32768 = 2^30 - 2^15 per value: two fit
            assert_eq!(Q::lane_spill(&[Q::MAX]), 2);
            assert_eq!(B::lane_spill(&[B::MIN]), 131_071);
            assert_eq!(Q::lane_spill(&[Q::from_raw(0)]), usize::MAX);
            assert_eq!(<f32 as Numeric>::lane_spill(&[1.0]), usize::MAX);
        }

        #[test]
        fn max_hw_and_min_value() {
            assert_eq!(Q::min_value(), Q::MIN);
            let a = Q::from_f64(1.0);
            let b = Q::from_f64(2.0);
            assert_eq!(a.max_hw(b), b);
            assert_eq!(b.max_hw(a), b);
        }

        /// Every raw value of one format: the table equals the expression
        /// it is built from, each lookup records the same debug clamp
        /// tally as the expression, and building the table records none.
        macro_rules! check_tanh_table_exhaustively {
            ($t:ty, $store:ty) => {{
                use crate::cast::take_saturation_events;
                let _ = take_saturation_events();
                let _ = <$t>::build_tanh_table();
                assert_eq!(take_saturation_events(), 0, "{} build", stringify!($t));
                for raw in <$store>::MIN..=<$store>::MAX {
                    let x = <$t>::from_raw(raw);
                    let table = x.tanh_hw();
                    let table_clamps = take_saturation_events();
                    let expr = <$t as Element>::from_f32(crate::tanh(x.to_f32()));
                    let expr_clamps = take_saturation_events();
                    assert_eq!(table, expr, "{} raw {raw}", stringify!($t));
                    assert_eq!(table_clamps, expr_clamps, "{} raw {raw}", stringify!($t));
                }
            }};
        }

        #[test]
        fn tanh_table_matches_expression_on_every_raw_fixed16() {
            check_tanh_table_exhaustively!(Fixed16<0>, i16);
            check_tanh_table_exhaustively!(Fixed16<6>, i16);
            check_tanh_table_exhaustively!(Fixed16<8>, i16);
            check_tanh_table_exhaustively!(Fixed16<10>, i16);
            check_tanh_table_exhaustively!(Fixed16<12>, i16);
            check_tanh_table_exhaustively!(Fixed16<13>, i16);
            check_tanh_table_exhaustively!(Fixed16<14>, i16);
            check_tanh_table_exhaustively!(Fixed16<15>, i16);
        }

        #[test]
        fn tanh_table_matches_expression_on_every_raw_fixed8() {
            check_tanh_table_exhaustively!(Fixed8<0>, i8);
            check_tanh_table_exhaustively!(Fixed8<1>, i8);
            check_tanh_table_exhaustively!(Fixed8<2>, i8);
            check_tanh_table_exhaustively!(Fixed8<3>, i8);
            check_tanh_table_exhaustively!(Fixed8<4>, i8);
            check_tanh_table_exhaustively!(Fixed8<5>, i8);
            check_tanh_table_exhaustively!(Fixed8<6>, i8);
            check_tanh_table_exhaustively!(Fixed8<7>, i8);
        }

        #[test]
        fn tanh_table_stops_where_the_output_saturates() {
            // q16f8: tanh reaches its container-bound value near |x| ≈ 3.5
            let t = Q::build_tanh_table();
            assert!(t.hi < 1024 && t.lo > -1024, "[{}, {}]", t.lo, t.hi);
            assert_eq!(Q::from_raw(t.hi).tanh_hw(), Q::MAX.tanh_hw());
            assert_eq!(Q::from_raw(t.lo).tanh_hw(), Q::MIN.tanh_hw());
        }

        #[test]
        fn serde_roundtrip_raw_bits() {
            let x = Q::from_f64(-1.625);
            let v = x.to_value();
            assert_eq!(Q::from_value(&v).unwrap(), x);
        }
    }

    mod spec {
        use super::super::*;

        #[test]
        fn supported_set() {
            assert!(NumericSpec::F32.is_supported());
            assert!(NumericSpec::default_fixed().is_supported());
            for frac in [6, 8, 10, 12] {
                assert!(NumericSpec::Fixed16 { frac }.is_supported());
            }
            for frac in [4, 6] {
                assert!(NumericSpec::Fixed8 { frac }.is_supported());
            }
            assert!(!NumericSpec::Fixed16 { frac: 3 }.is_supported());
            assert!(!NumericSpec::Fixed8 { frac: 8 }.is_supported());
        }

        #[test]
        fn labels_and_bits() {
            assert_eq!(NumericSpec::F32.label(), "f32");
            assert_eq!(NumericSpec::Fixed16 { frac: 8 }.label(), "q16f8");
            assert_eq!(NumericSpec::Fixed8 { frac: 4 }.label(), "q8f4");
            assert_eq!(NumericSpec::F32.storage_bits(), 32);
            assert_eq!(NumericSpec::default_fixed().storage_bits(), 16);
            assert_eq!(NumericSpec::Fixed8 { frac: 4 }.storage_bits(), 8);
        }

        #[test]
        fn epsilon_matches_type() {
            assert_eq!(NumericSpec::F32.epsilon(), 0.0);
            assert_eq!(
                NumericSpec::Fixed16 { frac: 8 }.epsilon(),
                Fixed16::<8>::epsilon()
            );
        }

        #[test]
        fn with_numeric_dispatches() {
            use crate::Element;
            for spec in [
                NumericSpec::F32,
                NumericSpec::Fixed16 { frac: 8 },
                NumericSpec::Fixed8 { frac: 4 },
            ] {
                let one = crate::with_numeric!(spec, E => E::one().to_f32());
                assert_eq!(one, 1.0);
            }
        }

        #[test]
        #[should_panic(expected = "no kernel monomorphization")]
        fn with_numeric_panics_on_unsupported() {
            use crate::Element;
            let spec = NumericSpec::Fixed16 { frac: 3 };
            let _ = crate::with_numeric!(spec, E => E::one().to_f32());
        }
    }
}
