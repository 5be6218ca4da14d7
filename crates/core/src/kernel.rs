//! Hardware-order numerics — the single source of truth for what the
//! generated cores *compute*.
//!
//! Floating-point addition is not associative, so the accelerator's outputs
//! depend on its summation orders: the tree adder inside the conv core
//! (Algorithm 1's `reduce`), the sequential accumulation across Algorithm
//! 1's group loop, and the FC core's interleaved accumulators (§IV-B).
//! The f32 kernels vectorise across outputs ([`LANES`] at a time), never
//! within one output's sum, so each output keeps exactly that order. The
//! fixed-point conv kernel also runs across outputs, [`EXACT_LANES`] at a
//! time, as Algorithm 1's core multiplies one window by every filter in
//! the same cycle; there the order is free and only the lane width counts.
//! Both execution engines (the cycle simulator and the threaded engine)
//! call these functions, so their outputs are **bit-identical** to each
//! other; the reference implementation in `dfcnn-nn` uses plain
//! left-to-right sums and is compared within a small tolerance.
//!
//! Every kernel is generic over [`Numeric`], the element contract of the
//! executed datapath. The `f32` instantiation reproduces the historical
//! behaviour bit for bit (identity conversions, same summation orders, so
//! the golden traces stay byte-stable). The fixed-point instantiations
//! ([`dfcnn_tensor::Fixed16`], [`dfcnn_tensor::Fixed8`]) quantise values
//! on ingest, multiply-accumulate exactly (`EXACT_SUM`), and saturate on
//! the way out. Exact sums are order-independent, which is what lets the
//! conv kernel add `i32` lanes ([`Numeric::mac_lanes`], spilling into
//! `i64` before any lane can overflow) and the FC kernel take the SIMD
//! dot ([`Numeric::dot_acc`]) without changing a bit.
//! Transport between cores stays `f32`; conversions happen at each core's
//! boundary, exactly where a fabric datapath would place its format
//! converters.

use dfcnn_hls::reduce::TreeAdder;
use dfcnn_nn::act::Activation;
use dfcnn_nn::layer::{Conv2d, Linear, Pool2d, PoolKind};
use dfcnn_tensor::{ConvGeometry, Numeric, Shape3, Tensor1, Tensor3, Tensor4, EXACT_LANES};

/// Apply an activation in the element domain, as the conv and FC cores'
/// activation unit does on each output before it leaves the core. ReLU
/// is a compare and Identity a wire; tanh is [`Numeric::tanh_hw`], a
/// lookup table over raw values for fixed point (built from the f32
/// expression, so bit-identical to it) and [`dfcnn_tensor::tanh()`] for
/// `f32`. Each arm equals `E::from_f32(activation.apply(v.to_f32()))` bit
/// for bit, since [`Activation::apply`] runs the same tanh.
#[inline]
pub fn activate<E: Numeric>(act: Activation, v: E) -> E {
    match act {
        Activation::Identity => v,
        Activation::Relu => v.max_hw(E::zero()),
        Activation::Tanh => v.tanh_hw(),
    }
}

/// [`activate`] on `N` values at once, bit for bit: tanh goes through
/// [`Numeric::tanh_hw_lanes`], so `f32` evaluates all `N` in vector lanes.
#[inline]
pub fn activate_lanes<E: Numeric, const N: usize>(act: Activation, v: [E; N]) -> [E; N] {
    match act {
        Activation::Tanh => E::tanh_hw_lanes(v),
        _ => v.map(|x| activate(act, x)),
    }
}

/// [`activate`] over a whole output volume of `E` values (held as their
/// `f32` transport, which round-trips exactly), [`LANES`] at a time: the
/// activation unit at throughput, one value per lane per step, rather
/// than one block's latency per window. The rounding-sum kernels run
/// their windows with [`Activation::Identity`] and then make this one
/// pass; tanh is elementwise, so the bits equal the per-window form's.
pub fn activate_in_place<E: Numeric>(act: Activation, vals: &mut [f32]) {
    if act == Activation::Identity {
        return;
    }
    let (blocks, tail) = vals.as_chunks_mut::<LANES>();
    for block in blocks {
        *block = activate_lanes(act, block.map(E::from_f32)).map(E::to_f32);
    }
    for v in tail {
        *v = activate(act, E::from_f32(*v)).to_f32();
    }
}

/// The eltwise-add join's per-value computation in the element domain:
/// quantise both operands, add with the element's (saturating) adder,
/// dequantise. Identical to `a + b` for `f32`.
#[inline]
pub fn eltwise_add_hw<E: Numeric>(a: f32, b: f32) -> f32 {
    (E::from_f32(a) + E::from_f32(b)).to_f32()
}

/// The scale-shift (frozen batchnorm) per-value computation in the element
/// domain: `scale * x + shift` with the element's multiply and add.
/// Identical to the f32 expression for `f32`.
#[inline]
pub fn scale_shift_hw<E: Numeric>(scale: E, shift: E, x: f32) -> f32 {
    (scale * E::from_f32(x) + shift).to_f32()
}

/// Output maps per SIMD block in the rounding-order (`f32`) kernels: the
/// conv core's filters and the FC core's outputs are computed 8 at a
/// time, one per lane, each lane running exactly its output's scalar
/// operation sequence. Eight `f32` lanes fill one 256-bit vector. Sixteen
/// lanes ran slower on TC2 even on an AVX-512 Xeon (conv2 +18%, fc1
/// about 3×), so the width stays a constant. The exact-sum conv kernel
/// uses [`EXACT_LANES`] instead.
pub const LANES: usize = 8;

/// A conv core's one store of quantised constants, for its stage and its
/// actor: the bias, and the filters repacked lane-major. Filter `k` sits
/// in lane `k % N` of block `k / N`, with `OUT_FM` padded up to a multiple
/// of `N` by zero filters (computed, then discarded), so window position
/// `pos` reads one `N`-wide row holding that weight of `N` filters. One
/// layout per element type, chosen by [`Numeric::EXACT_SUM`]:
///
/// * **exact sums** (fixed point): `[block][pos][EXACT_LANES]`, `N = 16`,
///   with `pos` in the input volume's native `(dy, dx, f)` order (the
///   [`Tensor4`] filter order), so an interior window is `KH` runs of
///   `KW · IN_FM` values that line up with `KH` runs of rows. The rows feed
///   [`Numeric::mac_lanes`], whose `i32` lanes spill into `i64` every
///   `spill` window values — the largest count that no value the storage
///   type can hold can overflow, whatever the design's input range;
/// * **rounding sums** (`f32`): `[block][pos][LANES]`, `N = 8`, with `pos`
///   in the `(f, dy, dx)` order [`crate::sst::WindowEngine::extract`]
///   writes windows, so 8 filters' tree adders run side by side in vector
///   lanes, in exactly the scalar order (a test pins [`conv_window_packed`]
///   against an unpacked one-filter-at-a-time reference).
#[derive(Clone, Debug)]
pub struct PackedFilters<E = f32> {
    data: Vec<E>,
    /// One quantised bias per filter.
    bias: Vec<E>,
    k: usize,
    /// Values per filter (`KH · KW · IN_FM`).
    stride: usize,
    /// Per-channel window size (`KH · KW`).
    win: usize,
    /// Window values the exact-sum kernel adds into its `i32` lanes
    /// between spills into `i64` ([`Numeric::lane_spill`] of the
    /// weights); `usize::MAX` for `f32`, whose lanes are `Acc` itself.
    spill: usize,
}

impl<E: Numeric> PackedFilters<E> {
    /// Repack `filters` (native layout `(dy, dx, f)` per filter) into the
    /// element type's layout, quantising each weight and each entry of
    /// `bias`, and bound the lane spill. Done once per core or stage.
    pub fn new(filters: &Tensor4<f32>, bias: &Tensor1<f32>) -> Self {
        let (k_count, kh, kw, in_fm) = (filters.k(), filters.kh(), filters.kw(), filters.c());
        assert_eq!(bias.len(), k_count, "bias length mismatch");
        let stride = kh * kw * in_fm;
        let lanes = if E::EXACT_SUM { EXACT_LANES } else { LANES };
        let mut data = vec![E::zero(); k_count.next_multiple_of(lanes) * stride];
        for k in 0..k_count {
            for (native, &w) in filters.filter(k).iter().enumerate() {
                let pos = if E::EXACT_SUM {
                    native
                } else {
                    // native = (dy·KW + dx)·IN_FM + f  →  (f·KH + dy)·KW + dx
                    let (f, p) = (native % in_fm, native / in_fm);
                    f * kh * kw + p
                };
                data[((k / lanes) * stride + pos) * lanes + k % lanes] = E::from_f32(w);
            }
        }
        PackedFilters {
            spill: E::lane_spill(&data),
            data,
            bias: bias.as_slice().iter().map(|&b| E::from_f32(b)).collect(),
            k: k_count,
            stride,
            win: kh * kw,
        }
    }

    /// Per-channel window size (`KH · KW`).
    pub fn window(&self) -> usize {
        self.win
    }

    /// Number of output feature maps.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Values per filter (`KH · KW · IN_FM`).
    pub fn filter_len(&self) -> usize {
        self.stride
    }

    /// Scratch rows [`conv_window_packed`] needs at `in_ports` input
    /// ports: the tree adder's working rows above its fused first level
    /// (`⌈IN_PORTS · KH · KW / 2⌉`), none for exact sums.
    pub fn scratch_len(&self, in_ports: usize) -> usize {
        if E::EXACT_SUM {
            0
        } else {
            (in_ports * self.win).div_ceil(2)
        }
    }
}

/// The exact-sum outputs of one window: for each 16-filter block,
/// [`Numeric::mac_lanes`] over the segments `segments(block)` yields (rows
/// read at `stride`), then bias, rescale and activation per lane.
fn conv_exact_blocks<'a, E: Numeric, I>(
    out: &mut [E],
    filters: &'a PackedFilters<E>,
    activation: Activation,
    stride: usize,
    segments: impl Fn(&'a [[E; EXACT_LANES]]) -> I,
) where
    I: IntoIterator<Item = (&'a [E], &'a [[E; EXACT_LANES]])>,
{
    let (rows, _) = filters.data.as_chunks::<EXACT_LANES>();
    for ((block, outs), biases) in rows
        .chunks_exact(filters.stride)
        .zip(out.chunks_mut(EXACT_LANES))
        .zip(filters.bias.chunks(EXACT_LANES))
    {
        let sums = E::mac_lanes(segments(block), stride, filters.spill);
        for ((slot, &s), &b) in outs.iter_mut().zip(&sums).zip(biases) {
            *slot = activate(activation, E::narrow(b.widen() + s));
        }
    }
}

/// Compute all `OUT_FM` outputs of a conv core at each of `W` window
/// positions, each exactly as Algorithm 1 schedules it:
///
/// ```text
/// outputs <- biases
/// for g = 0 to IN_FM step IN_PORTS:        // group loop
///     buf <- IN_PORTS windows               // FMs g*P .. g*P+P-1
///     buf <- buf * weights
///     outputs += reduce(buf)                // tree adder
/// ```
///
/// Both engines run this form, with pre-packed filters. It is generic
/// over the element type and over the window count `W = L / LANES`, read
/// off the width `L` of the scratch rows. `window` holds the `W` windows interleaved, each in the
/// [`crate::sst::WindowEngine::extract`] layout `(f, dy, dx)`: value `i` of
/// window `j` at `window[i · W + j]`. `out` receives window `j`'s `OUT_FM`
/// outputs at `out[j · OUT_FM..]`. `scratch` must hold
/// [`PackedFilters::scratch_len`] rows. At `W = 1` (rows of [`LANES`])
/// this is one window per call, the hardware's one window per initiation,
/// as the simulator's conv core and the tail of each host output row run
/// it.
///
/// The filters go across SIMD lanes in both forms. For `f32`
/// (`EXACT_SUM = false`) 8 at a time ([`LANES`]), times the `W` windows:
/// for each group, [`TreeAdder::sum_lanes`] runs `W · 8` tree adders side
/// by side, lane `j · LANES + l` holding window `j` and filter `l`, so one
/// load of an 8-filter weight row feeds all `W` windows. The first level
/// is fused with the products (`f[2i]·w[2i] + f[2i+1]·w[2i+1]` per lane),
/// and each lane then adds its group sum to its accumulator. Every lane
/// performs exactly the scalar operations of one filter's Algorithm 1 on
/// its window, in the same order, so every output bit is unchanged
/// whatever `W`; the sums are then activated together ([`activate_lanes`]).
/// For exact accumulators (fixed point) 16 at a time ([`EXACT_LANES`]),
/// one window per call: each window value is broadcast to its weight row
/// through [`Numeric::mac_lanes`], one channel's `KH · KW` values per
/// segment with the `(dy, dx, f)` rows read at stride `IN_FM`. Integer
/// sums are order-free, so this is bit-identical to the per-filter
/// [`conv_window_packed_scalar`].
pub fn conv_window_packed<E: Numeric, const L: usize>(
    out: &mut [E],
    window: &[E],
    filters: &PackedFilters<E>,
    activation: Activation,
    in_ports: usize,
    scratch: &mut [[E::Acc; L]],
) {
    let windows = const {
        assert!(
            L > 0 && L.is_multiple_of(LANES),
            "scratch rows hold whole lane blocks"
        );
        L / LANES
    };
    check_window_args(out, window, filters, in_ports, windows);
    let (flen, win, k) = (filters.filter_len(), filters.window(), filters.k());
    if E::EXACT_SUM {
        assert_eq!(windows, 1, "exact sums run one window per call");
        let in_fm = flen / win;
        conv_exact_blocks(out, filters, activation, in_fm, |block| {
            window
                .chunks_exact(win)
                .enumerate()
                .map(move |(f, xs)| (xs, &block[f..]))
        });
        return;
    }
    assert!(
        scratch.len() >= filters.scratch_len(in_ports),
        "scratch must hold PackedFilters::scratch_len rows"
    );
    // rounding accumulation: LANES filters per block times the windows,
    // each lane the hardware's per-filter order — bias, then
    // `acc + tree(group)` per group
    let group_len = in_ports * win;
    let tree = TreeAdder::new(group_len);
    let (rows, _) = filters.data.as_chunks::<LANES>();
    for (b, (block, biases)) in rows
        .chunks_exact(flen)
        .zip(filters.bias.chunks(LANES))
        .enumerate()
    {
        let mut acc: [E::Acc; L] = core::array::from_fn(|lane| {
            biases
                .get(lane % LANES)
                .map_or(E::Acc::default(), |b| b.widen())
        });
        for (fg, wg) in block
            .chunks_exact(group_len)
            .zip(window.chunks_exact(group_len * windows))
        {
            let sum = tree.sum_lanes(
                |i| {
                    let (f, xs) = (&fg[i], &wg[i * windows..][..windows]);
                    core::array::from_fn(|lane| f[lane % LANES].mul_full(xs[lane / LANES]))
                },
                scratch,
            );
            for (a, s) in acc.iter_mut().zip(sum) {
                *a = *a + s;
            }
        }
        let vals = activate_lanes(activation, acc.map(E::narrow));
        for (outs, vals) in out.chunks_exact_mut(k).zip(vals.chunks_exact(LANES)) {
            let outs = &mut outs[b * LANES..k.min(b * LANES + LANES)];
            outs.copy_from_slice(&vals[..outs.len()]);
        }
    }
}

/// [`conv_window_packed`] for exact sums as a plain scalar loop: one
/// filter at a time, each product widened by [`Numeric::mul_full`] into an
/// `i64` accumulator, reading that filter's lane of the lane-major rows —
/// the baseline the lane kernel is proven equal to and benchmarked
/// against. For `f32` the tree adder defines the rounding, so both forms
/// are the same function.
pub fn conv_window_packed_scalar<E: Numeric>(
    out: &mut [E],
    window: &[E],
    filters: &PackedFilters<E>,
    activation: Activation,
    in_ports: usize,
    scratch: &mut [[E::Acc; LANES]],
) {
    if !E::EXACT_SUM {
        return conv_window_packed(out, window, filters, activation, in_ports, scratch);
    }
    check_window_args(out, window, filters, in_ports, 1);
    let (flen, win) = (filters.filter_len(), filters.window());
    let in_fm = flen / win;
    let (rows, _) = filters.data.as_chunks::<EXACT_LANES>();
    for (k, (slot, &b)) in out.iter_mut().zip(&filters.bias).enumerate() {
        let (block, lane) = (&rows[(k / EXACT_LANES) * flen..], k % EXACT_LANES);
        let mut acc = b.widen();
        // window (f, dy, dx) against rows (dy, dx, f)
        for (f, xs) in window.chunks_exact(win).enumerate() {
            for (p, &x) in xs.iter().enumerate() {
                acc = acc + x.mul_full(block[p * in_fm + f][lane]);
            }
        }
        *slot = activate(activation, E::narrow(acc));
    }
}

/// The shape checks both packed conv kernels make, on `windows` windows.
fn check_window_args<E: Numeric>(
    out: &[E],
    window: &[E],
    filters: &PackedFilters<E>,
    in_ports: usize,
    windows: usize,
) {
    let flen = filters.filter_len();
    assert_eq!(
        out.len(),
        windows * filters.k(),
        "output buffer length mismatch"
    );
    assert_eq!(window.len(), windows * flen, "window length mismatch");
    assert_eq!(
        (flen / filters.window()) % in_ports,
        0,
        "ports must divide channels"
    );
}

/// The `1/n` a mean-pooling core scales an `n`-value window's sum by,
/// before quantisation; the range analysis reads the same value.
pub fn mean_reciprocal(n: usize) -> f32 {
    1.0 / dfcnn_tensor::cast::len_to_f32(n)
}

/// Pooling of one per-channel window (`KH·KW` values in `(dy, dx)` order).
/// Max-pooling compares sequentially (exact whatever the order);
/// mean-pooling sums through a tree adder then scales by `recip`, the
/// quantised [`mean_reciprocal`] of the window size — the hardware
/// implementation of the mean. Max-pooling ignores `recip`. The mean
/// reduces `values` in place ([`TreeAdder::sum_in_place`], the same
/// rounding as [`TreeAdder::sum`] without its per-level allocations), so
/// the caller passes a scratch copy it owns.
pub fn pool_window<E: Numeric>(kind: PoolKind, values: &mut [E], recip: E) -> E {
    assert!(!values.is_empty(), "empty pooling window");
    match kind {
        PoolKind::Max => values.iter().copied().fold(E::min_value(), E::max_hw),
        PoolKind::Mean => TreeAdder::new(values.len()).sum_in_place(values) * recip,
    }
}

/// An FC core's one store of quantised constants, for its stage and its
/// actor: the weights and the bias.
///
/// The weights keep one layout per element type, chosen by
/// [`Numeric::EXACT_SUM`]:
///
/// * **exact sums** (fixed point): output-major, `weights[j · I + i]`, so
///   each output's dot [`Numeric::dot_acc`] reads one contiguous row;
/// * **rounding sums** (`f32`): input-major, `weights[i · J' + j]` with
///   `OUT_FM` padded up to `J'`, a multiple of [`LANES`], by zero weights.
///   Input `i` reads one row holding its weight for every output — the
///   core's "all `OUT_FM` 1×1 convolutions of this input in the same
///   cycle".
#[derive(Clone, Debug)]
pub struct FcWeights<E = f32> {
    weights: Vec<E>,
    bias: Vec<E>,
    j_count: usize,
    inputs: usize,
}

impl<E: Numeric> FcWeights<E> {
    /// Quantise weights and bias into the element type's layout.
    pub fn new(weights: &Tensor4<f32>, bias: &Tensor1<f32>) -> Self {
        let (j_count, inputs) = (weights.k(), weights.c());
        assert_eq!(bias.len(), j_count, "bias length mismatch");
        let j_pad = j_count.next_multiple_of(LANES);
        let mut packed = vec![E::zero(); if E::EXACT_SUM { j_count } else { j_pad } * inputs];
        for j in 0..j_count {
            // output j's weights over every input, as a 1×1 filter
            for (i, &w) in weights.filter(j).iter().enumerate() {
                let at = if E::EXACT_SUM {
                    j * inputs + i
                } else {
                    i * j_pad + j
                };
                packed[at] = E::from_f32(w);
            }
        }
        FcWeights {
            weights: packed,
            bias: bias.as_slice().iter().map(|&b| E::from_f32(b)).collect(),
            j_count,
            inputs,
        }
    }
}

/// Reusable scratch for the FC hardware-order forward: the input staging
/// buffer and, for rounding sums, the interleaved accumulator banks and
/// their merge-tree rows. Constructed once per worker or actor;
/// [`fc_forward_into`] then allocates nothing.
#[derive(Clone, Debug)]
pub struct FcArena<E: Numeric = f32> {
    /// Interleaved accumulator count `A`.
    bank_count: usize,
    /// Quantised input staging buffer.
    xq: Vec<E>,
    /// Interleaved accumulators, `banks[bank · J'/LANES + block]` (rounding
    /// sums only; empty for exact sums).
    banks: Vec<[E::Acc; LANES]>,
    /// Working rows of the bank-merge tree (rounding sums only).
    merge: Vec<[E::Acc; LANES]>,
}

impl<E: Numeric> FcArena<E> {
    /// Size the staging buffer and the accumulator banks for `weights`.
    pub fn new(weights: &FcWeights<E>, banks: usize) -> Self {
        assert!(banks >= 1, "need at least one accumulator");
        let (bank_rows, merge_rows) = if E::EXACT_SUM {
            (0, 0)
        } else {
            (banks * weights.j_count.div_ceil(LANES), banks.div_ceil(2))
        };
        FcArena {
            bank_count: banks,
            xq: vec![E::zero(); weights.inputs],
            banks: vec![[E::Acc::default(); LANES]; bank_rows],
            merge: vec![[E::Acc::default(); LANES]; merge_rows],
        }
    }
}

/// The FC core's computation (§IV-B), allocation-free.
///
/// For `f32`: `A` interleaved accumulator banks per output, input `i`
/// adding its products into bank `i % A`; then each output's banks merge
/// through a tree adder, plus bias and activation. The outputs go across
/// SIMD lanes: input `i` adds one row of products (its weight for every
/// output times `x_i`) into bank `i % A`, and [`TreeAdder::sum_lanes`]
/// merges [`LANES`] outputs' banks side by side. Each lane performs the
/// same additions in the same order as one
/// [`dfcnn_hls::accum::InterleavedBank`] per output, so the result is
/// bit-identical to that form (a test pins it). The activation is one
/// lane-wise pass over the output vector ([`activate_in_place`]).
///
/// For exact accumulators (fixed point): one straight SIMD dot per output
/// row ([`Numeric::dot_acc`]), which equals the interleaved order exactly
/// because integer addition is associative — the paper's §IV-B point that
/// the accumulation-latency workaround is unnecessary in integer
/// arithmetic, executed.
pub fn fc_forward_into<E: Numeric>(
    out: &mut [f32],
    weights: &FcWeights<E>,
    arena: &mut FcArena<E>,
    activation: Activation,
    input: &[f32],
) {
    assert_eq!(input.len(), weights.inputs, "FC input length mismatch");
    assert_eq!(out.len(), weights.j_count, "FC output length mismatch");
    assert_eq!(arena.xq.len(), weights.inputs, "arena of another FC");
    for (q, &x) in arena.xq.iter_mut().zip(input) {
        *q = E::from_f32(x);
    }
    if E::EXACT_SUM {
        for ((o, row), &b) in out
            .iter_mut()
            .zip(weights.weights.chunks_exact(weights.inputs))
            .zip(&weights.bias)
        {
            let acc = b.widen() + E::dot_acc(row, &arena.xq);
            *o = activate(activation, E::narrow(acc)).to_f32();
        }
        return;
    }
    // rounding accumulation: one row of products per input into bank
    // `i % A`, zeroed first as the hardware's accumulators are
    let blocks = weights.j_count.div_ceil(LANES);
    let (rows, _) = weights.weights.as_chunks::<LANES>();
    arena.banks.fill([E::Acc::default(); LANES]);
    let mut bank = 0;
    for (w, &x) in rows.chunks_exact(blocks).zip(&arena.xq) {
        // all OUT_FM 1x1 convolutions of this input value in the same cycle
        let partials = &mut arena.banks[bank * blocks..(bank + 1) * blocks];
        for (p, wl) in partials.iter_mut().zip(w) {
            for (a, &wv) in p.iter_mut().zip(wl) {
                *a = *a + wv.mul_full(x);
            }
        }
        bank += 1;
        if bank == arena.bank_count {
            bank = 0;
        }
    }
    // merge each output's banks through the tree, then add the bias
    let tree = TreeAdder::new(arena.bank_count);
    let (banks, merge) = (&arena.banks, &mut arena.merge);
    for (b, (outs, biases)) in out
        .chunks_mut(LANES)
        .zip(weights.bias.chunks(LANES))
        .enumerate()
    {
        let total = tree.sum_lanes(|m| banks[m * blocks + b], merge);
        for ((o, &t), &bias) in outs.iter_mut().zip(&total).zip(biases) {
            *o = E::narrow(t + bias.widen()).to_f32();
        }
    }
    activate_in_place::<E>(activation, out);
}

/// Windows per call of the host path's f32 conv kernel: four adjacent
/// output pixels share each weight-row load.
const HOST_WINDOWS: usize = 4;

/// Lanes per tree-adder row at [`HOST_WINDOWS`] windows.
const HOST_LANES: usize = HOST_WINDOWS * LANES;

/// Reusable scratch for the whole-image conv forward: the quantised input
/// volume, the window and output staging buffers, and the tree adder's
/// lane rows ([`PackedFilters::scratch_len`] rows of `4 · LANES` lanes,
/// which one-window calls reuse as rows of [`LANES`]), plus one spare row
/// so that the rows in use can start on a 64-byte line.
/// The constants stay in the [`PackedFilters`] store, which the workers of
/// a stage share. Constructed once per worker; [`conv_forward_hw_into`]
/// then allocates nothing per image.
///
/// The window buffer follows the filters' layout: for rounding sums it
/// holds four windows interleaved, each in `(f, dy, dx)` order, and the
/// output buffer their outputs; for exact sums one window in the native
/// `(dy, dx, f)` order, gathered only where it overlaps the padding.
#[derive(Clone, Debug)]
pub struct ConvArena<E: Numeric = f32> {
    /// The input volume quantised into `E`, refilled once per image.
    qin: Vec<E>,
    window: Vec<E>,
    /// Lane rows, one more than the kernel needs (see `aligned_rows`).
    scratch: Vec<[E::Acc; HOST_LANES]>,
    outvals: Vec<E>,
}

impl<E: Numeric> ConvArena<E> {
    /// Size every buffer for the layer, its `filters` and `in_ports`.
    pub fn new(conv: &Conv2d, filters: &PackedFilters<E>, in_ports: usize) -> Self {
        let geo = conv.geometry();
        let windows = if E::EXACT_SUM { 1 } else { HOST_WINDOWS };
        ConvArena {
            scratch: vec![[E::Acc::default(); HOST_LANES]; filters.scratch_len(in_ports) + 1],
            qin: vec![E::zero(); geo.input.len()],
            window: vec![E::zero(); windows * geo.window_volume()],
            outvals: vec![E::zero(); windows * conv.out_maps()],
        }
    }
}

/// The lane rows of `rows` that start on a 64-byte line: all of them, or
/// all but one. The tree adder stores and reloads whole rows, so where
/// they start must not depend on the address the allocator gave the
/// arena: rows off the line made the f32 host conv ~9% slower on
/// ResNet-8 (2-vCPU Xeon with AVX-512).
fn aligned_rows<A>(rows: &mut [[A; HOST_LANES]]) -> &mut [[A; HOST_LANES]] {
    let flat = rows.as_flattened_mut();
    let skip = flat.as_ptr().align_offset(64);
    flat[skip..].as_chunks_mut().0
}

/// Whole-image conv layer forward pass in hardware order, allocation-free:
/// writes into a caller-owned output volume using the arena's buffers.
/// The input volume is quantised once per image, on ingest, where a
/// fabric datapath would place its converter, and outputs are dequantised
/// on emission. Both conversions are the identity for `f32`.
///
/// Windows come from the quantised copy; padding reads `E::zero()`, which
/// equals `E::from_f32(0.0)`. For exact sums an interior window is read in
/// place: `KH` contiguous runs of `KW · IN_FM` values, each against its
/// run of lane rows. Only windows that overlap the padding are gathered,
/// in the same `(dy, dx, f)` order. For rounding sums each output row
/// goes in runs of four pixels, border pixels included: the four windows
/// are gathered interleaved, padding as zeros, and [`conv_window_packed`]
/// computes them in one call, each weight row loaded once for the four.
/// The row's last `OW mod 4` pixels go one window per call, through the
/// same gather. Each lane keeps its scalar order, so the bits equal one
/// call per window. The kernel runs with the identity; the layer's
/// activation then goes over the whole output volume in one lane-wise
/// pass ([`activate_in_place`]), bit for bit what the per-window
/// activation gives.
pub fn conv_forward_hw_into<E: Numeric>(
    conv: &Conv2d,
    filters: &PackedFilters<E>,
    in_ports: usize,
    input: &Tensor3<f32>,
    out: &mut Tensor3<f32>,
    arena: &mut ConvArena<E>,
) {
    let geo = *conv.geometry();
    assert_eq!(input.shape(), geo.input, "input shape mismatch");
    assert_eq!(out.shape(), conv.output_shape(), "output shape mismatch");
    for (q, &x) in arena.qin.iter_mut().zip(input.as_slice()) {
        *q = E::from_f32(x);
    }
    if E::EXACT_SUM {
        assert_eq!(geo.input.c % in_ports, 0, "ports must divide channels");
        return conv_exact_image(conv, filters, out, arena);
    }
    let ConvArena {
        qin: src,
        window,
        scratch,
        outvals,
    } = arena;
    let (ow, k_count, vol) = (geo.out_w(), conv.out_maps(), geo.window_volume());
    let scratch = aligned_rows(scratch);
    let out_vals = out.as_mut_slice();
    for oy in 0..geo.out_h() {
        let y0 = (oy * geo.stride) as isize - geo.pad as isize;
        let mut ox = 0;
        while ox < ow {
            let x0 = (ox * geo.stride) as isize - geo.pad as isize;
            let run = if ox + HOST_WINDOWS <= ow {
                let (cells, _) = window.as_chunks_mut::<HOST_WINDOWS>();
                gather_windows(cells, src, &geo, y0, x0);
                conv_window_packed(
                    &mut outvals[..],
                    &window[..],
                    filters,
                    Activation::Identity,
                    in_ports,
                    scratch,
                );
                HOST_WINDOWS
            } else {
                let (cells, _) = window[..vol].as_chunks_mut::<1>();
                gather_windows(cells, src, &geo, y0, x0);
                let (single, _) = scratch.as_flattened_mut().as_chunks_mut::<LANES>();
                conv_window_packed(
                    &mut outvals[..k_count],
                    &window[..vol],
                    filters,
                    Activation::Identity,
                    in_ports,
                    single,
                );
                1
            };
            let dst = &mut out_vals[(oy * ow + ox) * k_count..][..run * k_count];
            for (d, &v) in dst.iter_mut().zip(outvals.iter()) {
                *d = v.to_f32();
            }
            ox += run;
        }
    }
    activate_in_place::<E>(conv.activation(), out_vals);
}

/// Gathers the windows of `N` adjacent output pixels of one output row
/// from the quantised input `src`, interleaved in [`conv_window_packed`]'s
/// layout: value `(f, dy, dx)` of window `j` at
/// `cells[(f · KH + dy) · KW + dx][j]`. `y0` is the windows' top input row
/// and `x0` the first window's left column, both before padding; window
/// `j` starts `j · stride` columns right of it. Padding reads `E::zero()`;
/// where all `N` windows' rows lie inside the image, the strided fast
/// path reads them without a bounds test per column.
#[inline(always)]
fn gather_windows<E: Numeric, const N: usize>(
    cells: &mut [[E; N]],
    src: &[E],
    geo: &ConvGeometry,
    y0: isize,
    x0: isize,
) {
    let (kh, kw, in_fm) = (geo.kh, geo.kw, geo.input.c);
    let (h, w) = (geo.input.h as isize, geo.input.w as isize);
    let (stride, step) = (geo.stride as isize, geo.stride * in_fm);
    let inside = x0 >= 0 && x0 + (N as isize - 1) * stride + kw as isize <= w;
    for (f, plane) in cells.chunks_exact_mut(kh * kw).enumerate() {
        for (dy, row) in plane.chunks_exact_mut(kw).enumerate() {
            let y = y0 + dy as isize;
            if y < 0 || y >= h {
                row.fill([E::zero(); N]);
            } else if inside {
                let mut idx = ((y * w + x0) as usize) * in_fm + f;
                for cell in row.iter_mut() {
                    *cell = core::array::from_fn(|j| src[idx + j * step]);
                    idx += in_fm;
                }
            } else {
                for (dx, cell) in row.iter_mut().enumerate() {
                    *cell = core::array::from_fn(|j| {
                        let x = x0 + j as isize * stride + dx as isize;
                        if x < 0 || x >= w {
                            E::zero()
                        } else {
                            src[((y * w + x) as usize) * in_fm + f]
                        }
                    });
                }
            }
        }
    }
}

/// [`conv_forward_hw_into`]'s window loop for exact sums, once `qin` is
/// filled.
fn conv_exact_image<E: Numeric>(
    conv: &Conv2d,
    filters: &PackedFilters<E>,
    out: &mut Tensor3<f32>,
    arena: &mut ConvArena<E>,
) {
    let geo = *conv.geometry();
    let (kh, kw, in_fm) = (geo.kh, geo.kw, geo.input.c);
    let (h, w) = (geo.input.h, geo.input.w);
    let ConvArena {
        qin,
        window,
        outvals,
        ..
    } = arena;
    let (qin, activation) = (&*qin, conv.activation());
    let (ow, k_count, run) = (geo.out_w(), conv.out_maps(), kw * in_fm);
    for (pos, (y0, x0)) in dfcnn_tensor::iter::WindowPositions::new(geo).enumerate() {
        let inside =
            y0 >= 0 && x0 >= 0 && y0 + kh as isize <= h as isize && x0 + kw as isize <= w as isize;
        if inside {
            let base = (y0 as usize * w + x0 as usize) * in_fm;
            conv_exact_blocks(outvals, filters, activation, 1, |block| {
                (0..kh).map(move |dy| {
                    (
                        &qin[base + dy * w * in_fm..][..run],
                        &block[dy * run..][..run],
                    )
                })
            });
        } else {
            for (dy, row) in window.chunks_exact_mut(run).enumerate() {
                row.fill(E::zero());
                let y = y0 + dy as isize;
                let (lo, hi) = (x0.max(0), (x0 + kw as isize).min(w as isize));
                if (0..h as isize).contains(&y) && lo < hi {
                    let at = |x: isize| (y as usize * w + x as usize) * in_fm;
                    let src = &qin[at(lo)..at(hi)];
                    row[(lo - x0) as usize * in_fm..][..src.len()].copy_from_slice(src);
                }
            }
            let window = window.as_slice();
            conv_exact_blocks(outvals, filters, activation, 1, |block| [(window, block)]);
        }
        let (oy, ox) = (pos / ow, pos % ow);
        let dst = &mut out.as_mut_slice()[(oy * ow + ox) * k_count..(oy * ow + ox + 1) * k_count];
        for (d, &v) in dst.iter_mut().zip(outvals.iter()) {
            *d = v.to_f32();
        }
    }
}

/// Reusable scratch for the whole-image pooling forward: the quantised
/// input and output volumes and one channel's window for the mean.
/// Constructed once per worker; [`pool_forward_hw_into`] then allocates
/// nothing per image.
#[derive(Clone, Debug)]
pub struct PoolArena<E = f32> {
    /// The input volume quantised into `E`, refilled once per image.
    qin: Vec<E>,
    /// The pooled volume before dequantisation.
    qout: Vec<E>,
    /// One channel's `KH·KW` window values, which the mean reduces.
    vals: Vec<E>,
    /// The quantised [`mean_reciprocal`] of the window size.
    recip: E,
}

impl<E: Numeric> PoolArena<E> {
    /// Size the buffers for the layer and quantise the mean's scale.
    pub fn new(pool: &Pool2d) -> Self {
        let win = pool.geometry().kh * pool.geometry().kw;
        PoolArena {
            qin: vec![E::zero(); pool.geometry().input.len()],
            qout: vec![E::zero(); pool.output_shape().len()],
            vals: vec![E::zero(); win],
            recip: E::from_f32(mean_reciprocal(win)),
        }
    }
}

/// Whole-image pooling forward pass in hardware order, allocation-free.
/// The input volume is quantised once per image, on ingest, and the
/// pooled volume dequantised in one pass on emission (both the identity
/// for `f32`).
///
/// The volume is HWC, so a window's pixel `(dy, dx)` is one contiguous row
/// of `C` channel values. Max-pooling folds the window's `KH·KW` rows into
/// the output row with [`Numeric::max_hw`], from [`Numeric::min_value`] in
/// `(dy, dx)` order: each channel sees exactly [`pool_window`]'s sequence,
/// so `f32` NaN and ±0 handling is kept, and the row loop vectorises.
/// Mean-pooling gathers each channel's window from the quantised volume
/// and sums it through [`pool_window`]'s tree.
pub fn pool_forward_hw_into<E: Numeric>(
    pool: &Pool2d,
    input: &Tensor3<f32>,
    out: &mut Tensor3<f32>,
    arena: &mut PoolArena<E>,
) {
    let geo = *pool.geometry();
    assert_eq!(input.shape(), geo.input, "input shape mismatch");
    assert_eq!(out.shape(), pool.output_shape(), "output shape mismatch");
    let PoolArena {
        qin,
        qout,
        vals,
        recip,
    } = arena;
    for (q, &x) in qin.iter_mut().zip(input.as_slice()) {
        *q = E::from_f32(x);
    }
    let (w, c) = (geo.input.w, geo.input.c);
    let rows = dfcnn_tensor::iter::WindowPositions::new(geo).zip(qout.chunks_exact_mut(c));
    for ((y0, x0), dst) in rows {
        let at = |dy: usize, dx: usize| ((y0 as usize + dy) * w + x0 as usize + dx) * c;
        match pool.kind() {
            PoolKind::Max => {
                dst.fill(E::min_value());
                for dy in 0..geo.kh {
                    for dx in 0..geo.kw {
                        for (d, &v) in dst.iter_mut().zip(&qin[at(dy, dx)..][..c]) {
                            *d = d.max_hw(v);
                        }
                    }
                }
            }
            PoolKind::Mean => {
                for (ch, d) in dst.iter_mut().enumerate() {
                    for (dy, row) in vals.chunks_exact_mut(geo.kw).enumerate() {
                        for (dx, v) in row.iter_mut().enumerate() {
                            *v = qin[at(dy, dx) + ch];
                        }
                    }
                    *d = pool_window(PoolKind::Mean, vals, *recip);
                }
            }
        }
    }
    for (o, &q) in out.as_mut_slice().iter_mut().zip(qout.iter()) {
        *o = q.to_f32();
    }
}

/// Whole-image FC forward pass in hardware order, allocation-free.
pub fn fc_forward_hw_into<E: Numeric>(
    linear: &Linear,
    weights: &FcWeights<E>,
    input: &Tensor3<f32>,
    out: &mut Tensor3<f32>,
    arena: &mut FcArena<E>,
) {
    assert_eq!(
        out.shape(),
        Shape3::new(1, 1, linear.outputs()),
        "output shape mismatch"
    );
    fc_forward_into(
        out.as_mut_slice(),
        weights,
        arena,
        linear.activation(),
        input.as_slice(),
    );
}

/// Reusable scratch for the log-softmax normalisation core: the quantised
/// input staging buffer and the buffered exponentials that feed the
/// reduction tree.
#[derive(Clone, Debug)]
pub struct LogSoftmaxArena<E = f32> {
    vals: Vec<f32>,
    exps: Vec<f32>,
    _elem: core::marker::PhantomData<E>,
}

impl<E: Numeric> LogSoftmaxArena<E> {
    /// Size the buffers for `classes` values.
    pub fn new(classes: usize) -> Self {
        assert!(classes > 0, "log-softmax needs at least one class");
        LogSoftmaxArena {
            vals: vec![0.0f32; classes],
            exps: vec![0.0f32; classes],
            _elem: core::marker::PhantomData,
        }
    }
}

/// The normalisation core's computation (paper Eq. 3) in hardware order,
/// allocation-free: a sequential comparator chain finds the running
/// maximum (exact whatever the order), one exponential unit produces
/// `e^{x_k - max}` per value, a **tree adder** sums the exponentials (the
/// hardware summation order — the `dfcnn-nn` reference sums left to
/// right), and the final subtract emits `x_j - max - ln Σ`. All three
/// execution engines share this function, so their normalised scores are
/// bit-identical.
///
/// In fixed point the scores are quantised on ingest and the final scores
/// re-quantised on emission, but the exp/ln pipeline itself evaluates in
/// f32 — the normalisation unit is the one block the paper keeps in
/// floating point (it feeds the host, not another core). Both conversions
/// are the identity for `f32`.
pub fn logsoftmax_forward_into<E: Numeric>(
    out: &mut [f32],
    input: &[f32],
    arena: &mut LogSoftmaxArena<E>,
) {
    assert_eq!(out.len(), input.len(), "log-softmax length mismatch");
    assert_eq!(arena.exps.len(), input.len(), "arena sized for another K");
    for (v, &x) in arena.vals.iter_mut().zip(input.iter()) {
        *v = E::from_f32(x).to_f32();
    }
    let max = arena.vals.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    for (e, &x) in arena.exps.iter_mut().zip(arena.vals.iter()) {
        *e = (x - max).exp();
    }
    let lse = TreeAdder::new(input.len()).sum(&arena.exps).ln();
    for (o, &x) in out.iter_mut().zip(arena.vals.iter()) {
        *o = E::from_f32(x - max - lse).to_f32();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dfcnn_hls::accum::InterleavedBank;
    use dfcnn_nn::act::Activation;
    use dfcnn_tensor::Element;
    use dfcnn_tensor::{ConvGeometry, Fixed16, Fixed8, Shape3};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    type Q = Fixed16<8>;

    /// Compute all `OUT_FM` outputs of a conv core for one window position,
    /// exactly as Algorithm 1 schedules it:
    ///
    /// ```text
    /// outputs <- biases
    /// for g = 0 to IN_FM step IN_PORTS:        // group loop
    ///     buf <- IN_PORTS windows               // FMs g*P .. g*P+P-1
    ///     buf <- buf * weights
    ///     outputs += reduce(buf)                // tree adder
    /// ```
    ///
    /// `window` is in the [`crate::sst::WindowEngine::extract`] layout
    /// (`[(f·KH + dy)·KW + dx]`); `out` receives `OUT_FM` activated values.
    /// The f32 *reference* form — one filter at a time, allocating its
    /// product buffer — that [`conv_window_packed`] is tested against.
    fn conv_window(
        out: &mut [f32],
        window: &[f32],
        filters: &Tensor4<f32>,
        bias: &Tensor1<f32>,
        activation: Activation,
        in_ports: usize,
    ) {
        let (kh, kw, in_fm) = (filters.kh(), filters.kw(), filters.c());
        assert_eq!(out.len(), filters.k(), "output buffer length mismatch");
        assert_eq!(window.len(), kh * kw * in_fm, "window length mismatch");
        assert_eq!(in_fm % in_ports, 0, "ports must divide channels");
        let group_len = in_ports * kh * kw;
        let tree = TreeAdder::new(group_len);
        let mut prods = vec![0.0f32; group_len];
        for (k, o) in out.iter_mut().enumerate() {
            let mut acc = bias.get(k);
            // weights of filter k at (dy, dx, f) sit at (dy * kw + dx) * in_fm + f
            let fk = filters.filter(k);
            for g in 0..in_fm / in_ports {
                // buf <- IN_PORTS windows, multiplied by the weights
                let mut i = 0;
                for p in 0..in_ports {
                    let f = g * in_ports + p;
                    for dy in 0..kh {
                        let f_row = dy * kw * in_fm + f;
                        let w_row = (f * kh + dy) * kw;
                        for dx in 0..kw {
                            prods[i] = fk[f_row + dx * in_fm] * window[w_row + dx];
                            i += 1;
                        }
                    }
                }
                // outputs += reduce(buf) — in place; prods is refilled next group
                acc += tree.sum_in_place(&mut prods);
            }
            *o = activation.apply(acc);
        }
    }

    /// The FC core's computation (§IV-B), one-shot allocating f32 form, one
    /// [`InterleavedBank`] per output: the reference [`fc_forward_into`] is
    /// tested against.
    fn fc_forward(
        weights: &Tensor4<f32>,
        bias: &Tensor1<f32>,
        activation: Activation,
        input: &[f32],
        banks: usize,
    ) -> Vec<f32> {
        let (j_count, inputs) = (weights.k(), weights.c());
        assert_eq!(input.len(), inputs, "FC input length mismatch");
        let mut accs: Vec<InterleavedBank<f32>> =
            (0..j_count).map(|_| InterleavedBank::new(banks)).collect();
        for (i, &x) in input.iter().enumerate() {
            // all OUT_FM 1x1 convolutions of this input value in the same cycle
            for (j, acc) in accs.iter_mut().enumerate() {
                acc.push(weights.get(j, 0, 0, i) * x);
            }
        }
        accs.iter()
            .enumerate()
            .map(|(j, acc)| activation.apply(acc.total() + bias.get(j)))
            .collect()
    }

    /// [`conv_forward_hw_into`] in f32 with a fresh store and arena.
    fn conv_forward_hw(conv: &Conv2d, in_ports: usize, input: &Tensor3<f32>) -> Tensor3<f32> {
        let mut out = Tensor3::zeros(conv.output_shape());
        let filters = PackedFilters::<f32>::new(conv.filters(), conv.bias());
        let mut arena = ConvArena::new(conv, &filters, in_ports);
        conv_forward_hw_into(conv, &filters, in_ports, input, &mut out, &mut arena);
        out
    }

    /// [`pool_forward_hw_into`] in f32 with a fresh arena.
    fn pool_forward_hw(pool: &Pool2d, input: &Tensor3<f32>) -> Tensor3<f32> {
        let mut out = Tensor3::zeros(pool.output_shape());
        let mut arena = PoolArena::<f32>::new(pool);
        pool_forward_hw_into(pool, input, &mut out, &mut arena);
        out
    }

    /// The per-value reference [`pool_forward_hw_into`] is tested against:
    /// for each window and channel, quantise the `KH·KW` values in
    /// `(dy, dx)` order, fold them from [`Numeric::min_value`] with
    /// [`Numeric::max_hw`] or sum them with [`TreeAdder::sum`] and scale,
    /// then dequantise the one result.
    fn pool_forward_per_value<E: Numeric>(pool: &Pool2d, input: &Tensor3<f32>) -> Tensor3<f32> {
        let geo = *pool.geometry();
        let recip = E::from_f32(mean_reciprocal(geo.kh * geo.kw));
        let mut out = Tensor3::zeros(pool.output_shape());
        let ow = geo.out_w();
        let mut vals = vec![E::zero(); geo.kh * geo.kw];
        for (pos, (y0, x0)) in dfcnn_tensor::iter::WindowPositions::new(geo).enumerate() {
            let (oy, ox) = (pos / ow, pos % ow);
            for c in 0..geo.input.c {
                let mut i = 0;
                for dy in 0..geo.kh {
                    for dx in 0..geo.kw {
                        vals[i] = E::from_f32(input.get((y0 as usize) + dy, (x0 as usize) + dx, c));
                        i += 1;
                    }
                }
                let v = match pool.kind() {
                    PoolKind::Max => vals.iter().copied().fold(E::min_value(), E::max_hw),
                    PoolKind::Mean => TreeAdder::new(vals.len()).sum(&vals) * recip,
                };
                out.set(oy, ox, c, v.to_f32());
            }
        }
        out
    }

    /// [`pool_forward_hw_into`] equals [`pool_forward_per_value`] bit for
    /// bit in `E`, for max and mean, on square and non-square inputs with
    /// tiling and overlapping windows. One image holds NaN, ±inf, ±0 and
    /// values beyond every fixed-point container among random values;
    /// in the other most windows max out at a mix of `-0.0` and `0.0`,
    /// where the `f32` fold's operand order decides the sign.
    fn assert_pool_matches_per_value<E: Numeric>() {
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let specials = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            0.0,
            300.0,
            -1e6,
        ];
        let zeros = [-0.0, 0.0, -0.0, f32::NAN, f32::NEG_INFINITY, -1.0];
        let cases = [
            (Shape3::new(6, 6, 3), 2, 2, 2),
            (Shape3::new(7, 9, 5), 3, 3, 2),
            (Shape3::new(5, 8, 17), 2, 3, 1),
            (Shape3::new(8, 8, 32), 8, 8, 8),
        ];
        let bits =
            |t: &Tensor3<f32>| -> Vec<u32> { t.as_slice().iter().map(|v| v.to_bits()).collect() };
        for (shape, kh, kw, stride) in cases {
            let geo = ConvGeometry::new(shape, kh, kw, stride, 0);
            let mut sparse = dfcnn_tensor::init::random_volume(&mut rng, shape, -2.0, 2.0);
            for (i, v) in sparse.as_mut_slice().iter_mut().enumerate().step_by(5) {
                *v = specials[i % specials.len()];
            }
            let mut signed = dfcnn_tensor::init::random_volume(&mut rng, shape, 0.0, 1.0);
            for v in signed.as_mut_slice() {
                *v = zeros[(*v * 600.0) as usize % zeros.len()];
            }
            for kind in [PoolKind::Max, PoolKind::Mean] {
                let p = Pool2d::new(geo, kind);
                let mut out = Tensor3::zeros(p.output_shape());
                // one arena for both images: it must carry no state between them
                let mut arena = PoolArena::<E>::new(&p);
                for x in [&sparse, &signed] {
                    pool_forward_hw_into(&p, x, &mut out, &mut arena);
                    let want = pool_forward_per_value::<E>(&p, x);
                    let case = format!("{kind:?} {shape:?} {kh}x{kw}/{stride}");
                    assert_eq!(bits(&out), bits(&want), "{case}");
                }
            }
        }
    }

    #[test]
    fn pool_hw_equals_per_value_reference_bitwise() {
        assert_pool_matches_per_value::<f32>();
        assert_pool_matches_per_value::<Q>();
        assert_pool_matches_per_value::<Fixed8<4>>();
    }

    /// Whole-image FC forward pass in hardware order, through the unpacked
    /// [`fc_forward`].
    pub(crate) fn fc_forward_hw(
        linear: &Linear,
        banks: usize,
        input: &Tensor3<f32>,
    ) -> Tensor3<f32> {
        let vals = fc_forward(
            linear.weights(),
            linear.bias(),
            linear.activation(),
            input.as_slice(),
            banks,
        );
        Tensor3::from_vec(Shape3::new(1, 1, vals.len()), vals)
    }

    /// [`logsoftmax_forward_into`] in f32 over a whole volume, with a fresh
    /// arena.
    pub(crate) fn logsoftmax_forward_hw(input: &Tensor3<f32>) -> Tensor3<f32> {
        let mut out = Tensor3::zeros(input.shape());
        let mut arena = LogSoftmaxArena::<f32>::new(input.shape().len());
        logsoftmax_forward_into(out.as_mut_slice(), input.as_slice(), &mut arena);
        out
    }

    fn random_conv(seed: u64, in_c: usize, out_k: usize, hw: usize) -> (Conv2d, Tensor3<f32>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let geo = ConvGeometry::new(Shape3::new(hw, hw, in_c), 3, 3, 1, 0);
        let f = dfcnn_tensor::init::conv_filters(&mut rng, out_k, 3, 3, in_c);
        let b = dfcnn_tensor::init::random_vector(&mut rng, out_k, -0.1, 0.1);
        let conv = Conv2d::new(geo, f, b, Activation::Tanh);
        let x = dfcnn_tensor::init::random_volume(&mut rng, geo.input, -1.0, 1.0);
        (conv, x)
    }

    #[test]
    fn conv_hw_close_to_reference() {
        let (conv, x) = random_conv(1, 4, 3, 6);
        let hw = conv_forward_hw(&conv, 2, &x);
        let sw = conv.forward(&x);
        assert!(
            hw.max_abs_diff(&sw) < 1e-4,
            "diff = {}",
            hw.max_abs_diff(&sw)
        );
    }

    #[test]
    fn conv_hw_port_grouping_changes_rounding_not_value() {
        // different IN_PORTS give different summation orders but must stay
        // within float tolerance of each other
        let (conv, x) = random_conv(2, 6, 2, 5);
        let p1 = conv_forward_hw(&conv, 1, &x);
        let p2 = conv_forward_hw(&conv, 2, &x);
        let p6 = conv_forward_hw(&conv, 6, &x);
        assert!(p1.max_abs_diff(&p2) < 1e-4);
        assert!(p1.max_abs_diff(&p6) < 1e-4);
    }

    #[test]
    fn conv_hw_deterministic() {
        let (conv, x) = random_conv(3, 3, 2, 5);
        assert_eq!(conv_forward_hw(&conv, 3, &x), conv_forward_hw(&conv, 3, &x));
    }

    #[test]
    fn pool_window_max_and_mean() {
        let recip = mean_reciprocal(4);
        assert_eq!(
            pool_window(PoolKind::Max, &mut [1.0f32, 5.0, -2.0, 3.0], recip),
            5.0
        );
        assert!(
            (pool_window(PoolKind::Mean, &mut [1.0f32, 2.0, 3.0, 6.0], recip) - 3.0).abs() < 1e-7
        );
    }

    #[test]
    fn pool_hw_matches_reference() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let geo = ConvGeometry::new(Shape3::new(6, 6, 3), 2, 2, 2, 0);
        let x = dfcnn_tensor::init::random_volume(&mut rng, geo.input, -1.0, 1.0);
        for kind in [PoolKind::Max, PoolKind::Mean] {
            let p = Pool2d::new(geo, kind);
            let hw = pool_forward_hw(&p, &x);
            let sw = p.forward(&x);
            assert!(hw.max_abs_diff(&sw) < 1e-6);
        }
    }

    #[test]
    fn fc_hw_close_to_reference() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let w = dfcnn_tensor::init::linear_weights(&mut rng, 64, 10);
        let b = dfcnn_tensor::init::random_vector(&mut rng, 10, -0.1, 0.1);
        let fc = Linear::new(w, b, Activation::Identity);
        let x = dfcnn_tensor::init::random_volume(&mut rng, Shape3::new(1, 1, 64), -1.0, 1.0);
        let hw = fc_forward_hw(&fc, 11, &x);
        let sw = fc.forward(&x);
        assert!(hw.max_abs_diff(&sw) < 1e-4);
    }

    #[test]
    fn fc_bank_count_changes_rounding_only() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let w = dfcnn_tensor::init::linear_weights(&mut rng, 100, 5);
        let fc = Linear::new(w, Tensor1::zeros(5), Activation::Identity);
        let x = dfcnn_tensor::init::random_volume(&mut rng, Shape3::new(1, 1, 100), -1.0, 1.0);
        let a1 = fc_forward_hw(&fc, 1, &x);
        let a11 = fc_forward_hw(&fc, 11, &x);
        assert!(a1.max_abs_diff(&a11) < 1e-4);
    }

    /// The bit patterns of `v`, for comparisons that tell `-0.0` from `0.0`.
    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `n` rounding-sensitive values: magnitudes spread log-uniformly over
    /// 1e-3 … 1e6, both signs, so most pairings round differently.
    fn mixed_magnitudes(rng: &mut ChaCha8Rng, n: usize) -> Vec<f32> {
        let u = dfcnn_tensor::init::random_vector(rng, 2 * n, 0.0, 1.0);
        u.as_slice()
            .chunks_exact(2)
            .map(|p| {
                let sign = if p[1] < 0.5 { -1.0 } else { 1.0 };
                sign * 10f32.powf(-3.0 + 9.0 * p[0])
            })
            .collect()
    }

    #[test]
    fn conv_window_packed_bit_identical_to_unpacked() {
        // the packed form must not change a single bit, whatever the filter
        // count (full and padded lane blocks), window shape and port
        // grouping — same products, same tree-adder order per filter
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let in_fm = 6;
        // set once the rounding-sensitive input shows a left-to-right
        // sum differing from the tree order: proof the test would catch
        // a reordering
        let mut reorder_visible = false;
        for k in [1usize, 4, 8, 12, 17, 36] {
            // square windows plus one of each non-square orientation,
            // few enough cases for the Miri smoke run
            for (kh, kw) in [(1usize, 1usize), (3, 3), (5, 5), (1, 3), (5, 3)] {
                let filters = dfcnn_tensor::init::conv_filters(&mut rng, k, kh, kw, in_fm);
                let bias = dfcnn_tensor::init::random_vector(&mut rng, k, -0.1, 0.1);
                let packed = PackedFilters::<f32>::new(&filters, &bias);
                let len = kh * kw * in_fm;
                let uniform = dfcnn_tensor::init::random_vector(&mut rng, len, -1.0, 1.0);
                let inputs = [
                    (uniform.as_slice().to_vec(), Activation::Tanh),
                    (mixed_magnitudes(&mut rng, len), Activation::Identity),
                ];
                for in_ports in [1usize, 2, 3, 6] {
                    for (window, act) in &inputs {
                        let mut out_ref = vec![0.0f32; k];
                        let mut out_packed = vec![0.0f32; k];
                        let mut scratch = vec![[f32::NAN; LANES]; packed.scratch_len(in_ports)];
                        conv_window(&mut out_ref, window, &filters, &bias, *act, in_ports);
                        conv_window_packed(
                            &mut out_packed,
                            window,
                            &packed,
                            *act,
                            in_ports,
                            &mut scratch,
                        );
                        assert_eq!(
                            bits(&out_ref),
                            bits(&out_packed),
                            "k = {k}, {kh}x{kw}, in_ports = {in_ports}, {act:?}"
                        );
                        if *act == Activation::Identity {
                            reorder_visible |= (0..k).any(|kk| {
                                let fk = filters.filter(kk);
                                let mut seq = bias.get(kk);
                                for f in 0..in_fm {
                                    for dy in 0..kh {
                                        for dx in 0..kw {
                                            seq += fk[(dy * kw + dx) * in_fm + f]
                                                * window[(f * kh + dy) * kw + dx];
                                        }
                                    }
                                }
                                seq.to_bits() != out_ref[kk].to_bits()
                            });
                        }
                    }
                }
                // four windows interleaved into one call: each lane keeps
                // its window's and its filter's scalar order (one and all
                // six channels per group, few enough cases for the Miri
                // smoke run)
                let four: Vec<Vec<f32>> = (0..4).map(|_| mixed_magnitudes(&mut rng, len)).collect();
                let interleaved: Vec<f32> = (0..len)
                    .flat_map(|i| four.iter().map(move |w| w[i]))
                    .collect();
                for (in_ports, act) in [
                    (1, Activation::Identity),
                    (1, Activation::Tanh),
                    (6, Activation::Identity),
                ] {
                    let mut out_four = vec![0.0f32; 4 * k];
                    let mut scratch = vec![[f32::NAN; 4 * LANES]; packed.scratch_len(in_ports)];
                    conv_window_packed(
                        &mut out_four,
                        &interleaved,
                        &packed,
                        act,
                        in_ports,
                        &mut scratch,
                    );
                    let mut out_one = vec![0.0f32; 4 * k];
                    let mut scratch = vec![[f32::NAN; LANES]; packed.scratch_len(in_ports)];
                    for (out, window) in out_one.chunks_exact_mut(k).zip(&four) {
                        conv_window_packed(out, window, &packed, act, in_ports, &mut scratch);
                    }
                    assert_eq!(
                        bits(&out_four),
                        bits(&out_one),
                        "W = 4: k = {k}, {kh}x{kw}, in_ports = {in_ports}, {act:?}"
                    );
                }
            }
        }
        assert!(
            reorder_visible,
            "the rounding-sensitive input never distinguished tree from left-to-right order"
        );
    }

    /// The per-window fixed-point conv: each window built with
    /// `get_padded` and quantised value by value, reduced by the scalar
    /// packed kernel, then activated through the f32 tanh expression
    /// ([`dfcnn_tensor::tanh()`] on the value in `f32`, re-quantised).
    fn conv_tanh_per_window_reference<E: Numeric>(
        conv: &Conv2d,
        in_ports: usize,
        x: &Tensor3<f32>,
    ) -> Tensor3<f32> {
        let geo = *conv.geometry();
        let packed = PackedFilters::<E>::new(conv.filters(), conv.bias());
        let mut window = vec![E::zero(); geo.window_volume()];
        let mut scratch = vec![[E::Acc::default(); LANES]; packed.scratch_len(in_ports)];
        let mut outvals = vec![E::zero(); conv.out_maps()];
        let mut reference = Tensor3::zeros(conv.output_shape());
        let ow = geo.out_w();
        for (pos, (y0, x0)) in dfcnn_tensor::iter::WindowPositions::new(geo).enumerate() {
            for fm in 0..geo.input.c {
                for dy in 0..geo.kh {
                    for dx in 0..geo.kw {
                        window[(fm * geo.kh + dy) * geo.kw + dx] =
                            E::from_f32(x.get_padded(y0 + dy as isize, x0 + dx as isize, fm));
                    }
                }
            }
            conv_window_packed_scalar(
                &mut outvals,
                &window,
                &packed,
                Activation::Identity,
                in_ports,
                &mut scratch,
            );
            for (k, &v) in outvals.iter().enumerate() {
                let act = E::from_f32(dfcnn_tensor::tanh(v.to_f32()));
                reference.set(pos / ow, pos % ow, k, act.to_f32());
            }
        }
        reference
    }

    /// Quantise-once + table tanh against the per-window reference, with
    /// the arena reused for a second image.
    fn assert_fixed_conv_matches_per_window<E: Numeric>(
        conv: &Conv2d,
        in_ports: usize,
        x: &Tensor3<f32>,
    ) {
        let reference = conv_tanh_per_window_reference::<E>(conv, in_ports, x);
        let packed = PackedFilters::<E>::new(conv.filters(), conv.bias());
        let mut arena = ConvArena::new(conv, &packed, in_ports);
        for _ in 0..2 {
            let mut got = Tensor3::zeros(conv.output_shape());
            conv_forward_hw_into(conv, &packed, in_ports, x, &mut got, &mut arena);
            assert_eq!(
                bits(got.as_slice()),
                bits(reference.as_slice()),
                "{}, {} filters, {}x{}, in_ports = {in_ports}, pad = {}, stride = {}",
                core::any::type_name::<E>(),
                conv.out_maps(),
                conv.geometry().kh,
                conv.geometry().kw,
                conv.geometry().pad,
                conv.geometry().stride
            );
        }
    }

    /// Filter counts for the lane-kernel tests: one lane, a partial, a
    /// full, a full-plus-one and several 16-lane blocks (and so full and
    /// partial 8-lane blocks for f32).
    const FILTER_COUNTS: [usize; 5] = [1, 12, 16, 17, 36];

    /// Square windows plus one of each non-square orientation.
    const WINDOWS: [(usize, usize); 5] = [(1, 1), (3, 3), (5, 5), (1, 3), (5, 3)];

    /// Filters at the extremes of `E`'s storage — every weight `MIN` in
    /// even filters, `MAX` in odd ones — for inputs at `MIN`: each product
    /// is as large as the storage allows and an even filter's lane only
    /// grows, so the lane spill is as small as it gets (1 for 16-bit
    /// storage) and one value more overflows.
    fn extreme_filters<E: Numeric>(k: usize, kh: usize, kw: usize, in_fm: usize) -> Tensor4<f32> {
        let (lo, hi) = (E::min_value().to_f32(), (-E::min_value()).to_f32());
        Tensor4::from_fn(
            k,
            kh,
            kw,
            in_fm,
            |k, _, _, _| if k % 2 == 0 { lo } else { hi },
        )
    }

    #[test]
    fn conv_hw_into_bit_identical_with_padding_and_stride() {
        // the in-place interior windows, the border gather and the f32
        // path's window build must agree with the plain get_padded window
        // build, bit for bit — in f32 (ReLU and tanh) against per-window
        // activation in the unpacked and packed kernels, in fixed point
        // against per-window quantisation and the scalar kernel. Pad/stride
        // and port count cycle over the filter-count x window grid, so every
        // pairing of the two appears.
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let in_fm = 6;
        let placements = [(0usize, 1usize), (1, 1), (2, 2), (1, 3)];
        let mut cases = Vec::new();
        for k in FILTER_COUNTS {
            for (kh, kw) in WINDOWS {
                let (pad, stride) = placements[cases.len() % 4];
                let in_ports = [1usize, 2, 3, 6][cases.len() / 4 % 4];
                cases.push((k, (kh, kw), (5, 5), pad, stride, in_ports));
            }
        }
        // wide, short images, where the f32 path runs four interior windows
        // per kernel call beside one-window border pixels and row tails:
        // output widths 8, 13, 7, 6 and 5 (every residue mod 4)
        cases.extend([
            (12, (3, 3), (4, 10), 0, 1, 1),
            (17, (3, 3), (3, 13), 1, 1, 2),
            (17, (5, 3), (5, 12), 2, 2, 3),
            (12, (3, 3), (5, 16), 1, 3, 1),
            (17, (1, 1), (3, 9), 0, 2, 3),
        ]);
        for (k, (kh, kw), (h, w), pad, stride, in_ports) in cases {
            let geo = ConvGeometry::new(Shape3::new(h, w, in_fm), kh, kw, stride, pad);
            let f = dfcnn_tensor::init::conv_filters(&mut rng, k, kh, kw, in_fm);
            let b = dfcnn_tensor::init::random_vector(&mut rng, k, -0.1, 0.1);
            let tanh_conv = Conv2d::new(geo, f.clone(), b.clone(), Activation::Tanh);
            let conv = Conv2d::new(geo, f, b, Activation::Relu);
            let x = dfcnn_tensor::init::random_volume(&mut rng, geo.input, -1.0, 1.0);
            for conv in [&conv, &tanh_conv] {
                assert_f32_conv_matches_per_window(conv, in_ports, &x);
            }
            assert_fixed_conv_matches_per_window::<Q>(&tanh_conv, in_ports, &x);
            assert_fixed_conv_matches_per_window::<Fixed8<4>>(&tanh_conv, in_ports, &x);
        }
        // the in-place path at the storage extremes: an undersized lane
        // spill overflows an i32 lane, which panics under overflow checks
        assert_extreme_conv_matches_per_window::<Q>();
        assert_extreme_conv_matches_per_window::<Fixed8<4>>();
    }

    /// The f32 whole-image conv, whose activation is one lane-wise pass
    /// over the output volume, against windows built with `get_padded`
    /// and activated window by window: by the unpacked [`conv_window`]
    /// and by [`conv_window_packed`], the simulator's per-window form.
    /// All three agree bit for bit, and the arena is reused for a second
    /// image.
    fn assert_f32_conv_matches_per_window(conv: &Conv2d, in_ports: usize, x: &Tensor3<f32>) {
        let geo = *conv.geometry();
        let packed = PackedFilters::<f32>::new(conv.filters(), conv.bias());
        let mut scratch = vec![[0.0f32; LANES]; packed.scratch_len(in_ports)];
        let mut window = vec![0.0f32; geo.window_volume()];
        let mut outvals = vec![0.0f32; conv.out_maps()];
        let mut packed_vals = vec![0.0f32; conv.out_maps()];
        let mut reference = Tensor3::zeros(conv.output_shape());
        let ow = geo.out_w();
        for (pos, (y0, x0)) in dfcnn_tensor::iter::WindowPositions::new(geo).enumerate() {
            for fm in 0..geo.input.c {
                for dy in 0..geo.kh {
                    for dx in 0..geo.kw {
                        window[(fm * geo.kh + dy) * geo.kw + dx] =
                            x.get_padded(y0 + dy as isize, x0 + dx as isize, fm);
                    }
                }
            }
            let act = conv.activation();
            conv_window(
                &mut outvals,
                &window,
                conv.filters(),
                conv.bias(),
                act,
                in_ports,
            );
            conv_window_packed(
                &mut packed_vals,
                &window,
                &packed,
                act,
                in_ports,
                &mut scratch,
            );
            assert_eq!(bits(&outvals), bits(&packed_vals), "{act:?} window {pos}");
            for (kk, &v) in outvals.iter().enumerate() {
                reference.set(pos / ow, pos % ow, kk, v);
            }
        }
        let mut arena = ConvArena::new(conv, &packed, in_ports);
        for _ in 0..2 {
            let mut got = Tensor3::zeros(conv.output_shape());
            conv_forward_hw_into(conv, &packed, in_ports, x, &mut got, &mut arena);
            assert_eq!(
                bits(got.as_slice()),
                bits(reference.as_slice()),
                "{:?}, {} filters, {}x{}, in_ports = {in_ports}, pad = {}, stride = {}",
                conv.activation(),
                conv.out_maps(),
                geo.kh,
                geo.kw,
                geo.pad,
                geo.stride
            );
        }
    }

    /// [`extreme_filters`] over an image at `MIN`, with interior and
    /// border windows.
    fn assert_extreme_conv_matches_per_window<E: Numeric>() {
        let geo = ConvGeometry::new(Shape3::new(5, 5, 6), 3, 3, 1, 1);
        let filters = extreme_filters::<E>(17, 3, 3, 6);
        let conv = Conv2d::new(geo, filters, Tensor1::zeros(17), Activation::Tanh);
        let x = Tensor3::from_fn(geo.input, |_, _, _| E::min_value().to_f32());
        assert_fixed_conv_matches_per_window::<E>(&conv, 3, &x);
    }

    #[test]
    fn fc_forward_into_bit_identical_to_fc_forward() {
        // every output count (one lane, a partial block, a full block,
        // several blocks) and bank count must reproduce the interleaved
        // banks' rounding exactly
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let inputs = 90;
        let mut reorder_visible = false;
        for j in [1usize, 7, 8, 72] {
            let w = dfcnn_tensor::init::linear_weights(&mut rng, inputs, j);
            let b = dfcnn_tensor::init::random_vector(&mut rng, j, -0.1, 0.1);
            let uniform = dfcnn_tensor::init::random_vector(&mut rng, inputs, -1.0, 1.0);
            let xs = [
                (uniform.as_slice().to_vec(), Activation::Tanh),
                (mixed_magnitudes(&mut rng, inputs), Activation::Identity),
            ];
            let weights = FcWeights::<f32>::new(&w, &b);
            for banks in [1usize, 4, 11, 16] {
                let mut arena = FcArena::new(&weights, banks);
                for (x, act) in &xs {
                    let reference = fc_forward(&w, &b, *act, x, banks);
                    let mut out = vec![0.0f32; j];
                    fc_forward_into(&mut out, &weights, &mut arena, *act, x);
                    assert_eq!(bits(&out), bits(&reference), "j = {j}, banks = {banks}");
                    // arena reuse: second call must reset cleanly
                    fc_forward_into(&mut out, &weights, &mut arena, *act, x);
                    assert_eq!(bits(&out), bits(&reference));
                    if *act == Activation::Identity {
                        reorder_visible |= (0..j).any(|jj| {
                            let seq = (0..inputs)
                                .fold(b.get(jj), |acc, i| acc + w.get(jj, 0, 0, i) * x[i]);
                            seq.to_bits() != reference[jj].to_bits()
                        });
                    }
                }
            }
        }
        assert!(
            reorder_visible,
            "the rounding-sensitive input never distinguished bank order from left-to-right order"
        );
    }

    #[test]
    fn logsoftmax_deterministic_and_arena_reuse_is_clean() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let x = dfcnn_tensor::init::random_vector(&mut rng, 10, -3.0, 3.0);
        let mut arena = LogSoftmaxArena::<f32>::new(10);
        let mut a = vec![0.0f32; 10];
        let mut b = vec![0.0f32; 10];
        logsoftmax_forward_into(&mut a, x.as_slice(), &mut arena);
        // arena reuse across images must not leak state
        logsoftmax_forward_into(&mut b, x.as_slice(), &mut arena);
        assert_eq!(a, b);
        let hw = logsoftmax_forward_hw(&Tensor3::from_vec(
            Shape3::new(1, 1, 10),
            x.as_slice().to_vec(),
        ));
        assert_eq!(hw.as_slice(), a.as_slice());
    }

    #[test]
    fn logsoftmax_close_to_reference_and_normalised() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let x = dfcnn_tensor::init::random_volume(&mut rng, Shape3::new(1, 1, 10), -5.0, 5.0);
        let hw = logsoftmax_forward_hw(&x);
        // the reference layer sums the exponentials left to right; the tree
        // adder groups them pairwise, so agreement is tolerance not bits
        let reference = dfcnn_nn::layer::LogSoftmax::new(10).forward(&x);
        for (a, b) in hw.as_slice().iter().zip(reference.as_slice().iter()) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
        let prob_sum: f32 = hw.as_slice().iter().map(|v| v.exp()).sum();
        assert!(
            (prob_sum - 1.0).abs() < 1e-4,
            "probabilities sum to {prob_sum}"
        );
        // shift invariance: the max-subtraction keeps large inputs finite
        let big = Tensor3::from_vec(Shape3::new(1, 1, 3), vec![1000.0, 1000.5, 999.0]);
        assert!(logsoftmax_forward_hw(&big)
            .as_slice()
            .iter()
            .all(|v| v.is_finite()));
    }

    #[test]
    fn conv_window_bias_only_when_zero_window() {
        let f = Tensor4::from_fn(2, 2, 2, 1, |_, _, _, _| 1.0);
        let b = Tensor1::from_vec(vec![0.5, -0.5]);
        let window = vec![0.0f32; 4];
        let mut out = vec![0.0f32; 2];
        conv_window(&mut out, &window, &f, &b, Activation::Identity, 1);
        assert_eq!(out, vec![0.5, -0.5]);
    }

    // ---- fixed-point instantiations -----------------------------------

    /// Quantise an f32 slice into `E`.
    fn q<E: Numeric>(xs: &[f32]) -> Vec<E> {
        xs.iter().map(|&x| E::from_f32(x)).collect()
    }

    /// The lane kernel against the per-filter scalar loop on one
    /// `(f, dy, dx)` window, the form the simulator's conv core calls.
    fn assert_packed_lanes_equal_scalar<E: Numeric>(
        filters: &Tensor4<f32>,
        bias: &Tensor1<f32>,
        window: &[f32],
        in_ports: usize,
    ) -> PackedFilters<E> {
        let packed = PackedFilters::<E>::new(filters, bias);
        let window = q::<E>(window);
        let mut out_lanes = vec![E::zero(); filters.k()];
        let mut out_scalar = vec![E::zero(); filters.k()];
        conv_window_packed::<E, LANES>(
            &mut out_lanes,
            &window,
            &packed,
            Activation::Tanh,
            in_ports,
            &mut [],
        );
        conv_window_packed_scalar(
            &mut out_scalar,
            &window,
            &packed,
            Activation::Tanh,
            in_ports,
            &mut [],
        );
        assert_eq!(
            out_lanes,
            out_scalar,
            "{}, k = {}, {}x{}, in_ports = {in_ports}",
            core::any::type_name::<E>(),
            filters.k(),
            filters.kh(),
            filters.kw()
        );
        packed
    }

    #[test]
    fn conv_window_packed_fixed_simd_equals_scalar_bitwise() {
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let in_fm = 6;
        for k in FILTER_COUNTS {
            for (kh, kw) in WINDOWS {
                let filters = dfcnn_tensor::init::conv_filters(&mut rng, k, kh, kw, in_fm);
                let bias = dfcnn_tensor::init::random_vector(&mut rng, k, -0.1, 0.1);
                for in_ports in [1usize, 2, 3, 6] {
                    let window =
                        dfcnn_tensor::init::random_vector(&mut rng, kh * kw * in_fm, -1.0, 1.0);
                    let w = window.as_slice();
                    assert_packed_lanes_equal_scalar::<Q>(&filters, &bias, w, in_ports);
                    assert_packed_lanes_equal_scalar::<Fixed8<4>>(&filters, &bias, w, in_ports);
                }
            }
        }
        // storage extremes: an undersized lane spill overflows an i32 lane,
        // which panics under overflow checks
        let bias = Tensor1::zeros(17);
        for (kh, kw) in WINDOWS {
            let len = kh * kw * in_fm;
            let window = vec![Q::MIN.to_f32(); len];
            let packed = assert_packed_lanes_equal_scalar::<Q>(
                &extreme_filters::<Q>(17, kh, kw, in_fm),
                &bias,
                &window,
                2,
            );
            assert_eq!(packed.spill, 1, "|MIN|^2 = 2^30 fits an i32 lane once");
            let window = vec![Fixed8::<4>::MIN.to_f32(); len];
            let packed = assert_packed_lanes_equal_scalar::<Fixed8<4>>(
                &extreme_filters::<Fixed8<4>>(17, kh, kw, in_fm),
                &bias,
                &window,
                2,
            );
            assert_eq!(packed.spill, (i32::MAX / (1 << 14)) as usize);
        }
    }

    #[test]
    fn conv_fixed_port_grouping_is_bit_invariant() {
        // exact accumulation: unlike f32, regrouping cannot change even
        // one bit of a fixed-point conv output
        let (conv, x) = random_conv(15, 6, 3, 5);
        let mut outs = Vec::new();
        for in_ports in [1usize, 2, 3, 6] {
            let packed = PackedFilters::<Q>::new(conv.filters(), conv.bias());
            let mut arena = ConvArena::new(&conv, &packed, in_ports);
            let mut out = Tensor3::zeros(conv.output_shape());
            conv_forward_hw_into(&conv, &packed, in_ports, &x, &mut out, &mut arena);
            outs.push(out);
        }
        for o in &outs[1..] {
            assert_eq!(o, &outs[0]);
        }
    }

    #[test]
    fn conv_fixed_close_to_f32_reference() {
        let (conv, x) = random_conv(16, 4, 3, 6);
        let f32_out = conv_forward_hw(&conv, 2, &x);
        let packed = PackedFilters::<Q>::new(conv.filters(), conv.bias());
        let mut arena = ConvArena::new(&conv, &packed, 2);
        let mut out = Tensor3::zeros(conv.output_shape());
        conv_forward_hw_into(&conv, &packed, 2, &x, &mut out, &mut arena);
        // tanh conv over unit inputs: quantisation error stays small
        assert!(
            out.max_abs_diff(&f32_out) < 0.05,
            "diff = {}",
            out.max_abs_diff(&f32_out)
        );
    }

    #[test]
    fn fc_fixed_bank_count_cannot_change_bits() {
        // §IV-B executed: with integer accumulation the interleaving
        // workaround is numerically irrelevant
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let w = dfcnn_tensor::init::linear_weights(&mut rng, 90, 7);
        let b = dfcnn_tensor::init::random_vector(&mut rng, 7, -0.1, 0.1);
        let x = dfcnn_tensor::init::random_volume(&mut rng, Shape3::new(1, 1, 90), -1.0, 1.0);
        let mut outs = Vec::new();
        let weights = FcWeights::<Q>::new(&w, &b);
        for banks in [1usize, 4, 11] {
            let mut arena = FcArena::new(&weights, banks);
            let mut out = vec![0.0f32; 7];
            fc_forward_into(
                &mut out,
                &weights,
                &mut arena,
                Activation::Tanh,
                x.as_slice(),
            );
            outs.push(out);
        }
        assert_eq!(outs[0], outs[1]);
        assert_eq!(outs[1], outs[2]);
    }

    #[test]
    fn fc_fixed_close_to_f32_reference() {
        let mut rng = ChaCha8Rng::seed_from_u64(18);
        let w = dfcnn_tensor::init::linear_weights(&mut rng, 64, 10);
        let b = dfcnn_tensor::init::random_vector(&mut rng, 10, -0.1, 0.1);
        let fc = Linear::new(w, b, Activation::Identity);
        let x = dfcnn_tensor::init::random_volume(&mut rng, Shape3::new(1, 1, 64), -1.0, 1.0);
        let f32_out = fc_forward_hw(&fc, 11, &x);
        let weights = FcWeights::<Q>::new(fc.weights(), fc.bias());
        let mut arena = FcArena::new(&weights, 11);
        let mut out = Tensor3::zeros(Shape3::new(1, 1, 10));
        fc_forward_hw_into(&fc, &weights, &x, &mut out, &mut arena);
        assert!(
            out.max_abs_diff(&f32_out) < 0.1,
            "diff = {}",
            out.max_abs_diff(&f32_out)
        );
    }

    #[test]
    fn pool_fixed_max_is_exact_and_mean_is_close() {
        let mut vals = q::<Q>(&[1.0, 5.0, -2.0, 3.0]);
        let recip = Q::from_f32(mean_reciprocal(4));
        assert_eq!(pool_window(PoolKind::Max, &mut vals, recip).to_f32(), 5.0);
        let mean = pool_window(PoolKind::Mean, &mut q::<Q>(&[1.0, 2.0, 3.0, 6.0]), recip).to_f32();
        assert!((mean - 3.0).abs() < 2.0 * dfcnn_tensor::cast::f64_to_f32(Q::epsilon()) + 1e-6);
    }

    #[test]
    fn eltwise_and_scale_shift_helpers() {
        // f32: identities
        assert_eq!(eltwise_add_hw::<f32>(1.25, -0.5), 0.75);
        assert_eq!(scale_shift_hw::<f32>(2.0, 0.5, 1.5), 3.5);
        // fixed: quantised but close, and saturating at the type's range
        let eps = dfcnn_tensor::cast::f64_to_f32(Q::epsilon());
        assert!((eltwise_add_hw::<Q>(1.25, -0.5) - 0.75).abs() < 2.0 * eps);
        assert!(
            (scale_shift_hw::<Q>(Q::from_f64(2.0), Q::from_f64(0.5), 1.5) - 3.5).abs() < 3.0 * eps
        );
        let sat = eltwise_add_hw::<Fixed8<4>>(7.9, 7.9);
        assert_eq!(sat, Fixed8::<4>::MAX.to_f32());
    }

    #[test]
    fn logsoftmax_fixed_stays_normalised() {
        let mut rng = ChaCha8Rng::seed_from_u64(19);
        let x = dfcnn_tensor::init::random_vector(&mut rng, 10, -3.0, 3.0);
        let mut arena = LogSoftmaxArena::<Q>::new(10);
        let mut out = vec![0.0f32; 10];
        logsoftmax_forward_into(&mut out, x.as_slice(), &mut arena);
        let prob_sum: f32 = out.iter().map(|v| v.exp()).sum();
        // scores are quantised to Q's LSB, so the probability sum loosens
        assert!((prob_sum - 1.0).abs() < 0.05, "sum = {prob_sum}");
    }

    // ---- the range proof reads these stores' bits ----------------------

    /// The raw integer of a stored value; f32 has none.
    trait Raw: Numeric {
        fn raw_i64(self) -> Option<i64>;
    }

    impl Raw for f32 {
        fn raw_i64(self) -> Option<i64> {
            None
        }
    }

    impl<const F: u32> Raw for Fixed16<F> {
        fn raw_i64(self) -> Option<i64> {
            Some(self.raw().into())
        }
    }

    impl<const F: u32> Raw for Fixed8<F> {
        fn raw_i64(self) -> Option<i64> {
            Some(self.raw().into())
        }
    }

    /// What [`crate::range::mac_transfer`] must report for one output
    /// channel, folded straight from the quantised weights and bias a
    /// store holds: the widened `[pos·lo + neg·hi + b, pos·hi + neg·lo + b]`
    /// and `Σ|w_raw|·max|x_raw| + |b_raw|·2^FRAC`.
    fn brute_fold<E: Raw>(
        spec: dfcnn_tensor::NumericSpec,
        input: crate::range::Interval,
        ws: impl Iterator<Item = E>,
        b: E,
    ) -> (crate::range::Interval, Option<u128>) {
        let ws: Vec<E> = ws.collect();
        let q_in = crate::range::quantize_interval(spec, input);
        let (mut pos, mut neg) = (0.0f64, 0.0f64);
        for &w in &ws {
            let v = f64::from(w.to_f32());
            if v >= 0.0 {
                pos += v;
            } else {
                neg += v;
            }
        }
        let b_val = f64::from(b.to_f32());
        let pre = crate::range::Interval::new(
            pos * q_in.lo + neg * q_in.hi + b_val,
            pos * q_in.hi + neg * q_in.lo + b_val,
        );
        let raw = |v: E| v.raw_i64().map(|r| u128::from(r.unsigned_abs()));
        let acc = raw(b).map(|b_raw| {
            let ends = [input.lo, input.hi]
                .map(|v| raw(E::from_f32(dfcnn_tensor::cast::f64_to_f32(v))).unwrap());
            let w_raw: u128 = ws.iter().filter_map(|&w| raw(w)).sum();
            w_raw * ends[0].max(ends[1]) + (b_raw << spec.frac().unwrap())
        });
        (pre.widen(crate::range::spec_slack(spec, pre)), acc)
    }

    /// Weights and biases at the quantisers' edges: rounding ties
    /// `(k + ½)·ε` of every supported FRAC, values beyond every container,
    /// subnormals and −0.
    fn edge_constants(n: usize) -> Vec<f32> {
        let mut pool = vec![-0.0f32, 0.0, 300.0, -1e6, 2.0, -2.0];
        pool.extend([
            f32::from_bits(1),
            -f32::from_bits(3),
            f32::MIN_POSITIVE / 4.0,
        ]);
        for frac in [4, 6, 8, 10, 12] {
            let eps = 0.5f32.powi(frac);
            for k in [0.0f32, 1.0, 2.0, 7.0, 100.0] {
                pool.extend([(k + 0.5) * eps, -(k + 0.5) * eps]);
            }
        }
        pool.iter().cycle().take(n).copied().collect()
    }

    /// Channel by channel, [`crate::range::mac_transfer`] over a layer's
    /// f32 weights equals [`brute_fold`] over the conv and FC stores'
    /// values (padding lanes are never read), for one element type.
    fn assert_range_proof_folds_store_values<E: Raw>(spec: dfcnn_tensor::NumericSpec) {
        use crate::range::{mac_transfer, Interval, Quantiser};
        let q = Quantiser::new(spec).unwrap();
        // ends that are ties at FRAC 4
        let input = Interval::new(-0.53125, 0.75);
        // 17 filters: partial blocks in both lane widths
        let (k, kh, kw, c) = (17, 2, 2, 3);
        let filters = Tensor4::from_vec(k, kh, kw, c, edge_constants(k * kh * kw * c));
        let bias = Tensor1::from_vec(edge_constants(k + 5)[5..].to_vec());
        let packed = PackedFilters::<E>::new(&filters, &bias);
        for kk in 0..k {
            let channel = (filters.filter(kk), bias.get(kk));
            let t = mac_transfer(q, input, [channel], Activation::Identity);
            let lanes = if E::EXACT_SUM { EXACT_LANES } else { LANES };
            let at = |n: usize| {
                // the layouts of `PackedFilters::new`
                let pos = if E::EXACT_SUM {
                    n
                } else {
                    (n % c) * kh * kw + n / c
                };
                ((kk / lanes) * packed.stride + pos) * lanes + kk % lanes
            };
            let ws = (0..packed.stride).map(|n| packed.data[at(n)]);
            let (pre, acc) = brute_fold(spec, input, ws, packed.bias[kk]);
            assert_eq!(t.pre, Some(pre), "conv filter {kk} under {}", spec.label());
            assert_eq!(t.acc_abs, acc, "conv filter {kk} under {}", spec.label());
        }
        let (j, inputs) = (10, 29);
        let weights = Tensor4::from_vec(
            j,
            1,
            1,
            inputs,
            edge_constants(j * inputs + 3)[3..].to_vec(),
        );
        let bias = Tensor1::from_vec(edge_constants(j + 1)[1..].to_vec());
        let store = FcWeights::<E>::new(&weights, &bias);
        for jj in 0..j {
            let channel = (weights.filter(jj), bias.get(jj));
            let t = mac_transfer(q, input, [channel], Activation::Identity);
            // the layouts of `FcWeights::new`
            let at = |i: usize| {
                if E::EXACT_SUM {
                    jj * inputs + i
                } else {
                    i * j.next_multiple_of(LANES) + jj
                }
            };
            let ws = (0..inputs).map(|i| store.weights[at(i)]);
            let (pre, acc) = brute_fold(spec, input, ws, store.bias[jj]);
            assert_eq!(t.pre, Some(pre), "fc output {jj} under {}", spec.label());
            assert_eq!(t.acc_abs, acc, "fc output {jj} under {}", spec.label());
        }
    }

    #[test]
    fn range_proof_folds_the_stores_quantised_constants() {
        use dfcnn_tensor::NumericSpec;
        let checked = [
            NumericSpec::F32,
            NumericSpec::Fixed16 { frac: 6 },
            NumericSpec::Fixed16 { frac: 8 },
            NumericSpec::Fixed16 { frac: 10 },
            NumericSpec::Fixed16 { frac: 12 },
            NumericSpec::Fixed8 { frac: 4 },
            NumericSpec::Fixed8 { frac: 6 },
        ];
        assert_eq!(checked.to_vec(), NumericSpec::supported());
        assert_range_proof_folds_store_values::<f32>(checked[0]);
        assert_range_proof_folds_store_values::<Fixed16<6>>(checked[1]);
        assert_range_proof_folds_store_values::<Fixed16<8>>(checked[2]);
        assert_range_proof_folds_store_values::<Fixed16<10>>(checked[3]);
        assert_range_proof_folds_store_values::<Fixed16<12>>(checked[4]);
        assert_range_proof_folds_store_values::<Fixed8<4>>(checked[5]);
        assert_range_proof_folds_store_values::<Fixed8<6>>(checked[6]);
    }

    #[test]
    fn aligned_rows_start_on_a_cache_line_and_lose_at_most_one_row() {
        let mut rows = vec![[0.0f32; HOST_LANES]; 4];
        let flat = rows.as_flattened_mut();
        // every start the allocator could give an f32 buffer
        for skip in 0..16 {
            let (from, _) = flat[skip..].as_chunks_mut::<HOST_LANES>();
            let held = from.len();
            let aligned = aligned_rows(from);
            assert_eq!(aligned.as_ptr() as usize % 64, 0, "skip {skip}");
            assert!(aligned.len() + 1 >= held, "skip {skip}");
        }
    }
}
