//! Hardware-order numerics — the single source of truth for what the
//! generated cores *compute*.
//!
//! Floating-point addition is not associative, so the accelerator's outputs
//! depend on its summation orders: the tree adder inside the conv core
//! (Algorithm 1's `reduce`), the sequential accumulation across Algorithm
//! 1's group loop, and the FC core's interleaved accumulators (§IV-B).
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
//! on ingest, multiply-accumulate exactly in `i64` (`EXACT_SUM`), and
//! saturate on the way out — which also unlocks the SIMD fast path
//! ([`Numeric::dot_acc`]) because exact sums are order-independent.
//! Transport between cores stays `f32`; conversions happen at each core's
//! boundary, exactly where a fabric datapath would place its format
//! converters.

use dfcnn_hls::accum::InterleavedBank;
use dfcnn_hls::reduce::TreeAdder;
use dfcnn_nn::act::Activation;
use dfcnn_nn::layer::{Conv2d, Linear, Pool2d, PoolKind};
use dfcnn_tensor::{Numeric, Shape3, Tensor1, Tensor3, Tensor4};

/// Apply an activation in the element domain, as the conv and FC cores'
/// activation unit does on each output before it leaves the core. ReLU
/// is a compare and Identity a wire; tanh is [`Numeric::tanh_hw`], a
/// lookup table over raw values for fixed point (built from the f32
/// expression, so bit-identical to it) and `f32::tanh` for `f32`. Each
/// arm equals `E::from_f32(activation.apply(v.to_f32()))` bit for bit.
#[inline]
pub fn activate<E: Numeric>(act: Activation, v: E) -> E {
    match act {
        Activation::Identity => v,
        Activation::Relu => v.max_hw(E::zero()),
        Activation::Tanh => v.tanh_hw(),
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

/// Conv filters repacked into the window layout `(f, dy, dx)` — the same
/// order [`crate::sst::WindowEngine::extract`] writes the window buffer —
/// and quantised into the element type once at build time.
///
/// With both operands in the same layout, Algorithm 1's group `g` reads one
/// *contiguous* slice of each (`[g·P·KH·KW .. (g+1)·P·KH·KW]`), so the
/// product loop is a straight element-wise multiply the compiler can
/// auto-vectorise. The products are produced in exactly the order the
/// unpacked loop produced them, so the tree-adder summation — and therefore
/// every output bit — is unchanged ([`conv_window_packed`] vs
/// [`conv_window`] is pinned by a test).
#[derive(Clone, Debug)]
pub struct PackedFilters<E = f32> {
    data: Vec<E>,
    k: usize,
    /// Values per filter (`KH · KW · IN_FM`).
    stride: usize,
    /// Per-channel window size (`KH · KW`).
    win: usize,
}

impl<E: Numeric> PackedFilters<E> {
    /// Repack `filters` (native layout `(dy, dx, f)` per filter) into
    /// window layout, quantising each weight. Done once per layer at
    /// design/engine build time.
    pub fn new(filters: &Tensor4<f32>) -> Self {
        let (k_count, kh, kw, in_fm) = (filters.k(), filters.kh(), filters.kw(), filters.c());
        let stride = kh * kw * in_fm;
        let mut data = vec![E::zero(); k_count * stride];
        for k in 0..k_count {
            let fk = filters.filter(k);
            let dst = &mut data[k * stride..(k + 1) * stride];
            for f in 0..in_fm {
                for dy in 0..kh {
                    for dx in 0..kw {
                        dst[(f * kh + dy) * kw + dx] = E::from_f32(fk[(dy * kw + dx) * in_fm + f]);
                    }
                }
            }
        }
        PackedFilters {
            data,
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

    /// Filter `k` in window layout.
    #[inline]
    pub fn filter(&self, k: usize) -> &[E] {
        &self.data[k * self.stride..(k + 1) * self.stride]
    }
}

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
/// `scratch` must hold at least `2 · IN_PORTS · KH · KW` values (products
/// plus tree-adder working space). This is the f32 *reference* form; the
/// engines use [`conv_window_packed`].
#[allow(clippy::needless_range_loop)] // `k` indexes filters, bias and out in lockstep; zip() would obscure it
pub fn conv_window(
    out: &mut [f32],
    window: &[f32],
    filters: &Tensor4<f32>,
    bias: &Tensor1<f32>,
    activation: Activation,
    in_ports: usize,
    scratch: &mut [f32],
) {
    let (k_count, kh, kw, in_fm) = (filters.k(), filters.kh(), filters.kw(), filters.c());
    assert_eq!(out.len(), k_count, "output buffer length mismatch");
    assert_eq!(window.len(), kh * kw * in_fm, "window length mismatch");
    assert_eq!(in_fm % in_ports, 0, "ports must divide channels");
    let group_len = in_ports * kh * kw;
    assert!(
        scratch.len() >= 2 * group_len,
        "scratch must hold 2 * IN_PORTS * KH * KW values"
    );
    let groups = in_fm / in_ports;
    let tree = TreeAdder::new(group_len);
    let (prods, _) = scratch.split_at_mut(group_len);
    for k in 0..k_count {
        let mut acc = bias.get(k);
        // weights of filter k at (dy, dx, f) sit at (dy * kw + dx) * in_fm + f
        let fk = filters.filter(k);
        for g in 0..groups {
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
            acc += tree.sum_in_place(prods);
        }
        out[k] = activation.apply(acc);
    }
}

/// [`conv_window`] with pre-packed filters: the steady-state form used by
/// the execution engines, generic over the element type.
///
/// For `f32` (`EXACT_SUM = false`) each group's products come from two
/// contiguous slices multiplied element-wise — auto-vectorisable — while
/// the product *order*, and hence the tree-adder rounding, is identical to
/// [`conv_window`] bit for bit. For exact accumulators (fixed point) the
/// group reduces through the SIMD dot kernel [`Numeric::dot_acc`]
/// directly — order-independent, so still bit-identical to the scalar
/// form ([`conv_window_packed_scalar`]).
pub fn conv_window_packed<E: Numeric>(
    out: &mut [E],
    window: &[E],
    filters: &PackedFilters<E>,
    bias: &[E],
    activation: Activation,
    in_ports: usize,
    scratch: &mut [E::Acc],
) {
    conv_window_packed_impl(
        out,
        window,
        filters,
        bias,
        activation,
        in_ports,
        scratch,
        E::dot_acc,
    )
}

/// [`conv_window_packed`] with the group reduction forced onto the plain
/// scalar loop ([`Numeric::dot_acc_scalar`]): the baseline the SIMD path
/// is proven equal to (proptests) and benchmarked against. For `f32` the
/// dot kernels are not used at all (the tree adder defines the rounding),
/// so both forms are the same function.
pub fn conv_window_packed_scalar<E: Numeric>(
    out: &mut [E],
    window: &[E],
    filters: &PackedFilters<E>,
    bias: &[E],
    activation: Activation,
    in_ports: usize,
    scratch: &mut [E::Acc],
) {
    conv_window_packed_impl(
        out,
        window,
        filters,
        bias,
        activation,
        in_ports,
        scratch,
        E::dot_acc_scalar,
    )
}

#[allow(clippy::too_many_arguments)] // mirrors conv_window_packed plus the dot kernel
fn conv_window_packed_impl<E: Numeric>(
    out: &mut [E],
    window: &[E],
    filters: &PackedFilters<E>,
    bias: &[E],
    activation: Activation,
    in_ports: usize,
    scratch: &mut [E::Acc],
    // a fn item, not a fn pointer: each variant monomorphizes with its dot
    // kernel inlined into the filter loop
    dot: impl Fn(&[E], &[E]) -> E::Acc,
) {
    let k_count = filters.k();
    let flen = filters.filter_len();
    let in_fm = flen / filters.window();
    assert_eq!(out.len(), k_count, "output buffer length mismatch");
    assert_eq!(window.len(), flen, "window length mismatch");
    assert_eq!(bias.len(), k_count, "bias length mismatch");
    assert_eq!(in_fm % in_ports, 0, "ports must divide channels");
    let group_len = in_ports * filters.window();
    assert!(
        scratch.len() >= group_len,
        "scratch must hold IN_PORTS * KH * KW values"
    );
    let groups = in_fm / in_ports;
    let tree = TreeAdder::new(group_len);
    let prods = &mut scratch[..group_len];
    for (k, slot) in out.iter_mut().enumerate() {
        let mut acc = bias[k].widen();
        let fk = filters.filter(k);
        if E::EXACT_SUM {
            // exact accumulation: order-free, so the whole contiguous
            // window goes through the dot fast path in one call — the
            // group decomposition only matters when order matters
            acc = acc + dot(fk, window);
        } else {
            for g in 0..groups {
                let base = g * group_len;
                let wg = &window[base..base + group_len];
                let fg = &fk[base..base + group_len];
                // rounding accumulation: products into scratch, then the
                // hardware's tree-adder order — bit-identical to the
                // unpacked reference
                for ((p, &w), &f) in prods.iter_mut().zip(wg).zip(fg) {
                    *p = f.mul_full(w);
                }
                acc = acc + tree.sum_in_place(prods);
            }
        }
        *slot = activate(activation, E::narrow(acc));
    }
}

/// Pooling of one per-channel window (`KH·KW` values in `(dy, dx)` order).
/// Max-pooling compares sequentially (exact whatever the order);
/// mean-pooling sums through a tree adder then scales by `1/(KH·KW)`, the
/// hardware implementation of the mean.
pub fn pool_window<E: Numeric>(kind: PoolKind, values: &[E]) -> E {
    assert!(!values.is_empty(), "empty pooling window");
    match kind {
        PoolKind::Max => values.iter().copied().fold(E::min_value(), E::max_hw),
        PoolKind::Mean => {
            let t = TreeAdder::new(values.len());
            t.sum(values) * E::from_f32(1.0 / dfcnn_tensor::cast::len_to_f32(values.len()))
        }
    }
}

/// Reusable state for the FC hardware-order forward: the weight matrix in
/// both input-major order (`wt`, so the per-input inner loop over the
/// `OUT_FM` accumulators reads one contiguous row — the f32 interleaved
/// path) and output-major order (`rows`, so the exact path's per-output
/// dot reads one contiguous row — the fixed-point SIMD path), the
/// quantised bias, the interleaved accumulator banks and the merge-tree
/// scratch. Constructed once per stage; [`fc_forward_into`] then
/// allocates nothing.
#[derive(Clone, Debug)]
pub struct FcArena<E: Numeric = f32> {
    /// `weights[j][i]` transposed to `wt[i * j_count + j]`.
    wt: Vec<E>,
    /// `weights[j][i]` at `rows[j * inputs + i]` (exact-dot path only;
    /// empty when `E::EXACT_SUM` is false).
    rows: Vec<E>,
    bias: Vec<E>,
    j_count: usize,
    inputs: usize,
    /// Quantised input staging buffer.
    xq: Vec<E>,
    accs: Vec<InterleavedBank<E::Acc>>,
    merge: Vec<E::Acc>,
}

impl<E: Numeric> FcArena<E> {
    /// Quantise weights and bias, and size the accumulator bank.
    pub fn new(weights: &Tensor4<f32>, bias: &Tensor1<f32>, banks: usize) -> Self {
        let (j_count, inputs) = (weights.k(), weights.c());
        assert_eq!(bias.len(), j_count, "bias length mismatch");
        let mut wt = vec![E::zero(); j_count * inputs];
        for j in 0..j_count {
            for i in 0..inputs {
                wt[i * j_count + j] = E::from_f32(weights.get(j, 0, 0, i));
            }
        }
        let rows = if E::EXACT_SUM {
            let mut rows = vec![E::zero(); j_count * inputs];
            for j in 0..j_count {
                for i in 0..inputs {
                    rows[j * inputs + i] = E::from_f32(weights.get(j, 0, 0, i));
                }
            }
            rows
        } else {
            Vec::new()
        };
        FcArena {
            wt,
            rows,
            bias: bias.as_slice().iter().map(|&b| E::from_f32(b)).collect(),
            j_count,
            inputs,
            xq: vec![E::zero(); inputs],
            accs: vec![InterleavedBank::new(banks); j_count],
            merge: vec![E::Acc::default(); banks],
        }
    }

    /// Number of outputs (`OUT_FM`).
    pub fn outputs(&self) -> usize {
        self.j_count
    }

    /// Number of inputs.
    pub fn inputs(&self) -> usize {
        self.inputs
    }
}

/// The FC core's computation (§IV-B), allocation-free. For `f32`: for each
/// output FM an interleaved accumulator bank fed one product per input
/// value, merged by a tree adder, plus bias and activation — products in
/// the same order as [`fc_forward`], same merge pairing, so bit-identical
/// to the allocating form. For exact accumulators (fixed point): one
/// straight SIMD dot per output row ([`Numeric::dot_acc`]), which equals
/// the interleaved order exactly because integer addition is associative —
/// the paper's §IV-B point that the accumulation-latency workaround is
/// unnecessary in integer arithmetic, executed.
pub fn fc_forward_into<E: Numeric>(
    out: &mut [f32],
    arena: &mut FcArena<E>,
    activation: Activation,
    input: &[f32],
) {
    assert_eq!(input.len(), arena.inputs, "FC input length mismatch");
    assert_eq!(out.len(), arena.j_count, "FC output length mismatch");
    let j_count = arena.j_count;
    for (q, &x) in arena.xq.iter_mut().zip(input) {
        *q = E::from_f32(x);
    }
    if E::EXACT_SUM {
        for (j, o) in out.iter_mut().enumerate() {
            let row = &arena.rows[j * arena.inputs..(j + 1) * arena.inputs];
            let acc = arena.bias[j].widen() + E::dot_acc(row, &arena.xq);
            *o = activate(activation, E::narrow(acc)).to_f32();
        }
    } else {
        for acc in arena.accs.iter_mut() {
            acc.reset();
        }
        for (i, &x) in arena.xq.iter().enumerate() {
            // all OUT_FM 1x1 convolutions of this input value in the same cycle
            let row = &arena.wt[i * j_count..(i + 1) * j_count];
            for (acc, &w) in arena.accs.iter_mut().zip(row) {
                acc.push(w.mul_full(x));
            }
        }
        for (j, acc) in arena.accs.iter().enumerate() {
            let total = acc.total_with_scratch(&mut arena.merge) + arena.bias[j].widen();
            out[j] = activate(activation, E::narrow(total)).to_f32();
        }
    }
}

/// The FC core's computation (§IV-B), one-shot allocating f32 form (kept
/// as the reference; [`fc_forward_into`] is the steady-state path).
pub fn fc_forward(
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

/// Reusable scratch for the whole-image conv forward: packed (quantised)
/// filters and bias, the quantised input volume, and the window, product
/// and output staging buffers. Constructed once per stage;
/// [`conv_forward_hw_into`] then allocates nothing per image.
#[derive(Clone, Debug)]
pub struct ConvArena<E: Numeric = f32> {
    packed: PackedFilters<E>,
    bias: Vec<E>,
    /// The input volume quantised into `E`, refilled once per image.
    qin: Vec<E>,
    window: Vec<E>,
    scratch: Vec<E::Acc>,
    outvals: Vec<E>,
}

impl<E: Numeric> ConvArena<E> {
    /// Pack and quantise the layer's filters and size every buffer.
    pub fn new(conv: &Conv2d, in_ports: usize) -> Self {
        let geo = conv.geometry();
        ConvArena {
            packed: PackedFilters::new(conv.filters()),
            bias: conv
                .bias()
                .as_slice()
                .iter()
                .map(|&b| E::from_f32(b))
                .collect(),
            qin: vec![E::zero(); geo.input.len()],
            window: vec![E::zero(); geo.window_volume()],
            scratch: vec![E::Acc::default(); in_ports * geo.kh * geo.kw],
            outvals: vec![E::zero(); conv.out_maps()],
        }
    }
}

/// Whole-image conv layer forward pass in hardware order, allocation-free:
/// writes into a caller-owned output volume using the arena's buffers.
/// The input volume is quantised once per image, on ingest, where a
/// fabric datapath would place its converter; windows are then gathered
/// from the quantised copy (padding reads `E::zero()`, which equals
/// `E::from_f32(0.0)`), and outputs are dequantised on emission. Both
/// conversions are the identity for `f32`, so the f32 instantiation is
/// bit-identical to [`conv_forward_hw`].
pub fn conv_forward_hw_into<E: Numeric>(
    conv: &Conv2d,
    in_ports: usize,
    input: &Tensor3<f32>,
    out: &mut Tensor3<f32>,
    arena: &mut ConvArena<E>,
) {
    let geo = *conv.geometry();
    assert_eq!(input.shape(), geo.input, "input shape mismatch");
    assert_eq!(out.shape(), conv.output_shape(), "output shape mismatch");
    let (kh, kw, in_fm) = (geo.kh, geo.kw, geo.input.c);
    let (h, w) = (geo.input.h, geo.input.w);
    for (q, &x) in arena.qin.iter_mut().zip(input.as_slice()) {
        *q = E::from_f32(x);
    }
    let src = &arena.qin;
    let (ow, k_count) = (geo.out_w(), conv.out_maps());
    for (pos, (y0, x0)) in dfcnn_tensor::iter::WindowPositions::new(geo).enumerate() {
        // build the window in WindowEngine layout: (f, dy, dx); rows fully
        // inside the image take the strided fast path over the input slice
        for f in 0..in_fm {
            for dy in 0..kh {
                let y = y0 + dy as isize;
                let row = &mut arena.window[(f * kh + dy) * kw..(f * kh + dy) * kw + kw];
                if y < 0 || y >= h as isize {
                    row.fill(E::zero());
                } else if x0 >= 0 && x0 + kw as isize <= w as isize {
                    let mut idx = ((y as usize) * w + x0 as usize) * in_fm + f;
                    for v in row.iter_mut() {
                        *v = src[idx];
                        idx += in_fm;
                    }
                } else {
                    let base = (y as usize) * w;
                    for (dx, v) in row.iter_mut().enumerate() {
                        let x = x0 + dx as isize;
                        *v = if x < 0 || x >= w as isize {
                            E::zero()
                        } else {
                            src[(base + x as usize) * in_fm + f]
                        };
                    }
                }
            }
        }
        conv_window_packed(
            &mut arena.outvals,
            &arena.window,
            &arena.packed,
            &arena.bias,
            conv.activation(),
            in_ports,
            &mut arena.scratch,
        );
        let (oy, ox) = (pos / ow, pos % ow);
        let dst = &mut out.as_mut_slice()[(oy * ow + ox) * k_count..(oy * ow + ox + 1) * k_count];
        for (d, &v) in dst.iter_mut().zip(&arena.outvals) {
            *d = v.to_f32();
        }
    }
}

/// Whole-image conv layer forward pass in hardware order (used by
/// verification and tests; the engines use [`conv_forward_hw_into`]).
/// Equivalent to streaming the image through a
/// [`crate::sst::WindowEngine`] + [`conv_window`]; a test pins that
/// equivalence.
pub fn conv_forward_hw(conv: &Conv2d, in_ports: usize, input: &Tensor3<f32>) -> Tensor3<f32> {
    let mut out = Tensor3::zeros(conv.output_shape());
    let mut arena = ConvArena::<f32>::new(conv, in_ports);
    conv_forward_hw_into(conv, in_ports, input, &mut out, &mut arena);
    out
}

/// Reusable scratch for the whole-image pooling forward.
#[derive(Clone, Debug)]
pub struct PoolArena<E = f32> {
    vals: Vec<E>,
}

impl<E: Numeric> PoolArena<E> {
    /// Size the per-channel window buffer.
    pub fn new(pool: &Pool2d) -> Self {
        let geo = pool.geometry();
        PoolArena {
            vals: vec![E::zero(); geo.kh * geo.kw],
        }
    }
}

/// Whole-image pooling forward pass in hardware order, allocation-free.
/// Window values are quantised on ingest; the pooled value is dequantised
/// on emission (both the identity for `f32`).
pub fn pool_forward_hw_into<E: Numeric>(
    pool: &Pool2d,
    input: &Tensor3<f32>,
    out: &mut Tensor3<f32>,
    arena: &mut PoolArena<E>,
) {
    let geo = *pool.geometry();
    assert_eq!(input.shape(), geo.input, "input shape mismatch");
    assert_eq!(out.shape(), pool.output_shape(), "output shape mismatch");
    let ow = geo.out_w();
    for (pos, (y0, x0)) in dfcnn_tensor::iter::WindowPositions::new(geo).enumerate() {
        let (oy, ox) = (pos / ow, pos % ow);
        for c in 0..geo.input.c {
            let mut i = 0;
            for dy in 0..geo.kh {
                for dx in 0..geo.kw {
                    arena.vals[i] =
                        E::from_f32(input.get((y0 as usize) + dy, (x0 as usize) + dx, c));
                    i += 1;
                }
            }
            out.set(oy, ox, c, pool_window(pool.kind(), &arena.vals).to_f32());
        }
    }
}

/// Whole-image pooling forward pass in hardware order.
pub fn pool_forward_hw(pool: &Pool2d, input: &Tensor3<f32>) -> Tensor3<f32> {
    let mut out = Tensor3::zeros(pool.output_shape());
    let mut arena = PoolArena::<f32>::new(pool);
    pool_forward_hw_into(pool, input, &mut out, &mut arena);
    out
}

/// Whole-image FC forward pass in hardware order, allocation-free.
pub fn fc_forward_hw_into<E: Numeric>(
    linear: &Linear,
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
        arena,
        linear.activation(),
        input.as_slice(),
    );
}

/// Whole-image FC forward pass in hardware order.
pub fn fc_forward_hw(linear: &Linear, banks: usize, input: &Tensor3<f32>) -> Tensor3<f32> {
    let vals = fc_forward(
        linear.weights(),
        linear.bias(),
        linear.activation(),
        input.as_slice(),
        banks,
    );
    Tensor3::from_vec(Shape3::new(1, 1, vals.len()), vals)
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

/// Whole-volume log-softmax forward pass in hardware order.
pub fn logsoftmax_forward_hw(input: &Tensor3<f32>) -> Tensor3<f32> {
    let mut out = Tensor3::zeros(input.shape());
    let mut arena = LogSoftmaxArena::<f32>::new(input.shape().len());
    logsoftmax_forward_into(out.as_mut_slice(), input.as_slice(), &mut arena);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfcnn_nn::act::Activation;
    use dfcnn_tensor::Element;
    use dfcnn_tensor::{ConvGeometry, Fixed16, Fixed8, Shape3};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    type Q = Fixed16<8>;

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
        assert_eq!(pool_window(PoolKind::Max, &[1.0f32, 5.0, -2.0, 3.0]), 5.0);
        assert!((pool_window(PoolKind::Mean, &[1.0f32, 2.0, 3.0, 6.0]) - 3.0).abs() < 1e-7);
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

    #[test]
    fn conv_window_packed_bit_identical_to_unpacked() {
        // the packed form must not change a single bit, whatever the port
        // grouping — same products, same tree-adder order
        let (conv, x) = random_conv(7, 6, 4, 5);
        let geo = *conv.geometry();
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let packed = PackedFilters::<f32>::new(conv.filters());
        for in_ports in [1usize, 2, 3, 6] {
            let mut window = vec![0.0f32; geo.window_volume()];
            for v in window.iter_mut() {
                *v = dfcnn_tensor::init::random_vector(&mut rng, 1, -1.0, 1.0).get(0);
            }
            let mut out_ref = vec![0.0f32; conv.out_maps()];
            let mut out_packed = vec![0.0f32; conv.out_maps()];
            let mut scratch = vec![0.0f32; 2 * in_ports * geo.kh * geo.kw];
            conv_window(
                &mut out_ref,
                &window,
                conv.filters(),
                conv.bias(),
                conv.activation(),
                in_ports,
                &mut scratch,
            );
            conv_window_packed(
                &mut out_packed,
                &window,
                &packed,
                conv.bias().as_slice(),
                conv.activation(),
                in_ports,
                &mut scratch,
            );
            assert_eq!(out_ref, out_packed, "in_ports = {in_ports}");
        }
        let _ = x;
    }

    /// The per-window fixed-point conv: each window built with
    /// `get_padded` and quantised value by value, reduced by the scalar
    /// packed kernel, then activated through the f32 tanh expression.
    fn conv_tanh_per_window_reference<E: Numeric>(
        conv: &Conv2d,
        in_ports: usize,
        x: &Tensor3<f32>,
    ) -> Tensor3<f32> {
        let geo = *conv.geometry();
        let packed = PackedFilters::<E>::new(conv.filters());
        let bias = q::<E>(conv.bias().as_slice());
        let mut window = vec![E::zero(); geo.window_volume()];
        let mut scratch = vec![E::Acc::default(); in_ports * geo.kh * geo.kw];
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
                &bias,
                Activation::Identity,
                in_ports,
                &mut scratch,
            );
            for (k, &v) in outvals.iter().enumerate() {
                let act = E::from_f32(v.to_f32().tanh());
                reference.set(pos / ow, pos % ow, k, act.to_f32());
            }
        }
        reference
    }

    /// Quantise-once + table tanh against the per-window reference, with
    /// the arena reused for a second image.
    fn assert_fixed_conv_matches_per_window<E: Numeric>(conv: &Conv2d, x: &Tensor3<f32>) {
        let reference = conv_tanh_per_window_reference::<E>(conv, 2, x);
        let mut arena = ConvArena::<E>::new(conv, 2);
        for _ in 0..2 {
            let mut got = Tensor3::zeros(conv.output_shape());
            conv_forward_hw_into(conv, 2, x, &mut got, &mut arena);
            assert_eq!(got, reference, "{}", core::any::type_name::<E>());
        }
    }

    #[test]
    fn conv_hw_into_bit_identical_with_padding_and_stride() {
        // the strided fast path + padded slow path must agree with the
        // plain get_padded window build, bit for bit — in f32 against the
        // unpacked kernel, in fixed point against per-window quantisation
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        for (pad, stride) in [(0usize, 1usize), (1, 1), (2, 2), (1, 3)] {
            let geo = ConvGeometry::new(Shape3::new(7, 7, 4), 3, 3, stride, pad);
            let f = dfcnn_tensor::init::conv_filters(&mut rng, 3, 3, 3, 4);
            let b = dfcnn_tensor::init::random_vector(&mut rng, 3, -0.1, 0.1);
            let tanh_conv = Conv2d::new(geo, f.clone(), b.clone(), Activation::Tanh);
            let conv = Conv2d::new(geo, f, b, Activation::Relu);
            let x = dfcnn_tensor::init::random_volume(&mut rng, geo.input, -1.0, 1.0);
            // reference: window via get_padded only, unpacked conv_window
            let mut reference = Tensor3::zeros(conv.output_shape());
            let mut window = vec![0.0f32; geo.window_volume()];
            let mut scratch = vec![0.0f32; 2 * 2 * geo.kh * geo.kw];
            let mut outvals = vec![0.0f32; conv.out_maps()];
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
                conv_window(
                    &mut outvals,
                    &window,
                    conv.filters(),
                    conv.bias(),
                    conv.activation(),
                    2,
                    &mut scratch,
                );
                for (k, &v) in outvals.iter().enumerate() {
                    reference.set(pos / ow, pos % ow, k, v);
                }
            }
            let mut arena = ConvArena::<f32>::new(&conv, 2);
            let mut got = Tensor3::zeros(conv.output_shape());
            conv_forward_hw_into(&conv, 2, &x, &mut got, &mut arena);
            assert_eq!(got, reference, "pad = {pad}, stride = {stride}");
            // arena reuse across images must not leak state
            let mut got2 = Tensor3::zeros(conv.output_shape());
            conv_forward_hw_into(&conv, 2, &x, &mut got2, &mut arena);
            assert_eq!(got2, reference);
            assert_fixed_conv_matches_per_window::<Q>(&tanh_conv, &x);
            assert_fixed_conv_matches_per_window::<Fixed8<4>>(&tanh_conv, &x);
        }
    }

    #[test]
    fn fc_forward_into_bit_identical_to_fc_forward() {
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let w = dfcnn_tensor::init::linear_weights(&mut rng, 90, 7);
        let b = dfcnn_tensor::init::random_vector(&mut rng, 7, -0.1, 0.1);
        let x = dfcnn_tensor::init::random_volume(&mut rng, Shape3::new(1, 1, 90), -1.0, 1.0);
        for banks in [1usize, 4, 11] {
            let reference = fc_forward(&w, &b, Activation::Tanh, x.as_slice(), banks);
            let mut arena = FcArena::<f32>::new(&w, &b, banks);
            let mut out = vec![0.0f32; 7];
            fc_forward_into(&mut out, &mut arena, Activation::Tanh, x.as_slice());
            assert_eq!(out, reference, "banks = {banks}");
            // arena reuse: second call must reset cleanly
            fc_forward_into(&mut out, &mut arena, Activation::Tanh, x.as_slice());
            assert_eq!(out, reference);
        }
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
        let mut scratch = vec![0.0f32; 8];
        conv_window(
            &mut out,
            &window,
            &f,
            &b,
            Activation::Identity,
            1,
            &mut scratch,
        );
        assert_eq!(out, vec![0.5, -0.5]);
    }

    // ---- fixed-point instantiations -----------------------------------

    /// Quantise an f32 slice into `E`.
    fn q<E: Numeric>(xs: &[f32]) -> Vec<E> {
        xs.iter().map(|&x| E::from_f32(x)).collect()
    }

    #[test]
    fn conv_window_packed_fixed_simd_equals_scalar_bitwise() {
        let (conv, _) = random_conv(13, 6, 4, 5);
        let geo = *conv.geometry();
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let packed = PackedFilters::<Q>::new(conv.filters());
        let bias = q::<Q>(conv.bias().as_slice());
        for in_ports in [1usize, 2, 3, 6] {
            let wf32 = dfcnn_tensor::init::random_vector(&mut rng, geo.window_volume(), -1.0, 1.0);
            let window = q::<Q>(wf32.as_slice());
            let mut out_simd = vec![Q::default(); conv.out_maps()];
            let mut out_scalar = vec![Q::default(); conv.out_maps()];
            let mut scratch = vec![0i64; in_ports * geo.kh * geo.kw];
            conv_window_packed(
                &mut out_simd,
                &window,
                &packed,
                &bias,
                conv.activation(),
                in_ports,
                &mut scratch,
            );
            conv_window_packed_scalar(
                &mut out_scalar,
                &window,
                &packed,
                &bias,
                conv.activation(),
                in_ports,
                &mut scratch,
            );
            assert_eq!(out_simd, out_scalar, "in_ports = {in_ports}");
        }
    }

    #[test]
    fn conv_fixed_port_grouping_is_bit_invariant() {
        // exact accumulation: unlike f32, regrouping cannot change even
        // one bit of a fixed-point conv output
        let (conv, x) = random_conv(15, 6, 3, 5);
        let mut outs = Vec::new();
        for in_ports in [1usize, 2, 3, 6] {
            let mut arena = ConvArena::<Q>::new(&conv, in_ports);
            let mut out = Tensor3::zeros(conv.output_shape());
            conv_forward_hw_into(&conv, in_ports, &x, &mut out, &mut arena);
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
        let mut arena = ConvArena::<Q>::new(&conv, 2);
        let mut out = Tensor3::zeros(conv.output_shape());
        conv_forward_hw_into(&conv, 2, &x, &mut out, &mut arena);
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
        for banks in [1usize, 4, 11] {
            let mut arena = FcArena::<Q>::new(&w, &b, banks);
            let mut out = vec![0.0f32; 7];
            fc_forward_into(&mut out, &mut arena, Activation::Tanh, x.as_slice());
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
        let mut arena = FcArena::<Q>::new(fc.weights(), fc.bias(), 11);
        let mut out = Tensor3::zeros(Shape3::new(1, 1, 10));
        fc_forward_hw_into(&fc, &x, &mut out, &mut arena);
        assert!(
            out.max_abs_diff(&f32_out) < 0.1,
            "diff = {}",
            out.max_abs_diff(&f32_out)
        );
    }

    #[test]
    fn pool_fixed_max_is_exact_and_mean_is_close() {
        let vals = q::<Q>(&[1.0, 5.0, -2.0, 3.0]);
        assert_eq!(pool_window(PoolKind::Max, &vals).to_f32(), 5.0);
        let mean = pool_window(PoolKind::Mean, &q::<Q>(&[1.0, 2.0, 3.0, 6.0])).to_f32();
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
}
