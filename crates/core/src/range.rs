//! Static value-range analysis: abstract interpretation over the core
//! graph, proving a fixed-point design saturation-free *before* it runs.
//!
//! The paper's dataflow pipeline only works because every core's
//! arithmetic fits its fixed-point container; until now the repo
//! discovered overflow empirically (the q8f6 accuracy collapse in
//! `results/numeric_kernels.json`). This module makes that a static, pre-synthesis
//! decision — the same place Haddoc-style flows fix per-layer bit widths.
//!
//! Every [`crate::model::CoreModel`] contributes a
//! [`range_transfer`](crate::model::CoreModel::range_transfer) hook: given
//! interval bounds on its input streams, it returns sound bounds on its
//! output stream ([`Transfer::out`]), on its widest intermediate value
//! before the rescale/saturate step ([`Transfer::pre`] — where saturation
//! would strike), and on the worst-case `i64` accumulator magnitude
//! ([`Transfer::acc_abs`]). [`analyze_with`] walks the cores in the same
//! canonical (topological) order lowering uses and folds the hooks into a
//! per-core/per-edge [`RangeReport`].
//!
//! ## Soundness argument (see DESIGN.md §2k for the full catalogue)
//!
//! Each transfer over-approximates the corresponding kernel:
//!
//! - **Quantise on ingest** (`E::from_f32`): round-to-nearest (error
//!   ≤ ε/2) then clamp to the container — [`quantize_interval`], which
//!   bounds the input streams.
//! - **Constants** (weights, biases, scale/shift, the mean-pool
//!   reciprocal) go through the engines' own `E::from_f32` ([`Quantiser`]):
//!   the proof covers the exact bits the kernels multiply.
//! - **Conv/FC MAC**: the per-output-channel sums of positive and
//!   negative quantised weights give exact interval corners
//!   `pos·hi + neg·lo + b`; products and sums are exact integers in the
//!   `i64` accumulator, whose bound sums the raw integers. [`mac_transfer`].
//! - **Narrow** (`acc >> FRAC` then saturate): truncation toward −∞ loses
//!   up to ε on the low side, then clamps to the container.
//! - **Activation**: ReLU is the exact `max(0, ·)`; tanh is monotone so
//!   interval ends map to interval ends, re-quantised on emission. The
//!   ends go through [`dfcnn_tensor::tanh()`], the function the engines run.
//! - **Float slack**: f32 designs have no container but their tree sums
//!   round; every transfer widens its result by a relative slack so the
//!   dynamically observed ranges stay inside the static intervals.
//!
//! Saturating kernels only ever *clamp into* the container, so a transfer
//! that clamps its result the same way stays sound even for designs the
//! checker rejects — which is how the conformance suite can assert
//! `observed ⊆ static` on the very q8f6 designs whose collapse the
//! `value-range` rule predicts.

use crate::graph::{NetworkDesign, NodeRef};
use crate::model;
use dfcnn_nn::act::Activation;
use dfcnn_tensor::cast::f64_to_f32;
use dfcnn_tensor::{with_numeric, Element, NumericSpec, Tensor3};
use serde::{Deserialize, Serialize};

/// Schema version stamped on [`RangeReport`] (the PR 9 report convention):
/// bump when renaming or re-interpreting fields.
pub const SCHEMA_VERSION: u32 = 1;

/// Relative + absolute widening applied per f32 transfer, covering the
/// difference between the engines' f32 tree sums and this module's f64
/// interval arithmetic.
const F32_REL_SLACK: f64 = 1e-4;
const F32_ABS_SLACK: f64 = 1e-6;
/// Fixed-point transfers are integer-exact; this covers only the f64
/// rounding of the interval products.
const FIXED_ABS_SLACK: f64 = 1e-9;

/// A closed interval of real values a stream is proven to lie in.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Interval {
    /// Lower bound (inclusive).
    pub lo: f64,
    /// Upper bound (inclusive).
    pub hi: f64,
}

impl Interval {
    /// `[lo, hi]`. Debug-asserts the bounds are ordered and finite.
    pub fn new(lo: f64, hi: f64) -> Self {
        debug_assert!(lo <= hi, "inverted interval [{lo}, {hi}]");
        debug_assert!(lo.is_finite() && hi.is_finite());
        Interval { lo, hi }
    }

    /// The degenerate interval `[v, v]`.
    pub fn point(v: f64) -> Self {
        Interval::new(v, v)
    }

    /// Smallest interval containing both operands.
    pub fn union(self, other: Interval) -> Interval {
        Interval::new(self.lo.min(other.lo), self.hi.max(other.hi))
    }

    /// Union of a slice of intervals (`[0, 0]` when empty).
    pub fn union_all(ivs: &[Interval]) -> Interval {
        ivs.iter()
            .copied()
            .reduce(Interval::union)
            .unwrap_or(Interval::point(0.0))
    }

    /// Extend to contain zero (a conv's zero padding enters the window).
    pub fn include_zero(self) -> Interval {
        Interval::new(self.lo.min(0.0), self.hi.max(0.0))
    }

    /// Whether `v` lies inside (with a tolerance of 0).
    pub fn contains(self, v: f64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Largest absolute value in the interval.
    pub fn max_abs(self) -> f64 {
        self.lo.abs().max(self.hi.abs())
    }

    /// Widen both ends by `slack ≥ 0`.
    pub fn widen(self, slack: f64) -> Interval {
        Interval::new(self.lo - slack, self.hi + slack)
    }

    /// Clamp into `bounds` (the saturating kernel's behaviour).
    pub fn clamp_to(self, bounds: Interval) -> Interval {
        Interval::new(
            self.lo.clamp(bounds.lo, bounds.hi),
            self.hi.clamp(bounds.lo, bounds.hi),
        )
    }
}

/// The representable value range of the spec's container, or `None` for
/// f32 (unbounded for this analysis' purposes).
pub fn container(spec: NumericSpec) -> Option<Interval> {
    let (lo, hi) = match spec.storage_bits() {
        16 if spec.is_fixed() => (f64::from(i16::MIN), f64::from(i16::MAX)),
        8 => (f64::from(i8::MIN), f64::from(i8::MAX)),
        _ => return None,
    };
    let scale = spec.epsilon(); // 1 / 2^FRAC
    Some(Interval::new(lo * scale, hi * scale))
}

/// Why the analyzer could not run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RangeError {
    /// No kernel is compiled for the spec ([`NumericSpec::is_supported`]).
    Unsupported(NumericSpec),
}

impl std::fmt::Display for RangeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let RangeError::Unsupported(spec) = self;
        write!(f, "no kernel monomorphization for {}", spec.label())
    }
}

impl std::error::Error for RangeError {}

/// The engines' quantiser under one numeric spec: `E::from_f32` itself,
/// read back as the exact value the kernels then multiply. Every constant
/// a transfer folds (weights, biases, scale/shift coefficients, the
/// mean-pool reciprocal) goes through it.
#[derive(Clone, Copy, Debug)]
pub struct Quantiser {
    spec: NumericSpec,
    value: fn(f32) -> f64,
    /// One channel's weights as `(Σ max(q(w), 0), Σ min(q(w), 0))`.
    fold: fn(&[f32]) -> (f64, f64),
    /// `2^FRAC`; 0 for f32, which has no raw integers.
    scale: f64,
}

/// `E::from_f32(v)` as an `f64`. Exact: a fixed-point value has at most
/// 16 significant bits, so its `f32` form loses nothing.
fn engine_value<E: Element>(v: f32) -> f64 {
    f64::from(E::from_f32(v).to_f32())
}

/// [`Quantiser`]'s fold under `E`, in weight order as f32 sums round.
/// Adding 0.0 leaves either sum's bits alone (neither is ever −0), so
/// both adds run unconditionally, without a branch.
fn engine_fold<E: Element>(weights: &[f32]) -> (f64, f64) {
    let (mut pos, mut neg) = (0.0, 0.0);
    for &w in weights {
        let v = engine_value::<E>(w);
        let (p, n) = if v >= 0.0 { (v, 0.0) } else { (0.0, v) };
        pos += p;
        neg += n;
    }
    (pos, neg)
}

/// `|v| · scale`, truncated: with `scale = 2^FRAC`, a quantised value's
/// raw magnitude, exactly; for an end of [`quantize_interval`] (half a step
/// past the bound it widens), the largest raw an input quantises to.
fn raw_magnitude(v: f64, scale: f64) -> u64 {
    (v.abs() * scale) as u64
}

impl Quantiser {
    /// The quantiser of `spec`, or [`RangeError::Unsupported`] when no
    /// kernel is compiled for it.
    pub fn new(spec: NumericSpec) -> Result<Self, RangeError> {
        if !spec.is_supported() {
            return Err(RangeError::Unsupported(spec));
        }
        let scale = spec.frac().map_or(0.0, |frac| (1u64 << frac) as f64);
        Ok(with_numeric!(spec, E => Quantiser {
            spec,
            value: engine_value::<E>,
            fold: engine_fold::<E>,
            scale,
        }))
    }

    /// The numeric spec whose quantiser this is.
    pub fn spec(self) -> NumericSpec {
        self.spec
    }

    /// The value `E::from_f32(v)` holds.
    pub fn value(self, v: f32) -> f64 {
        (self.value)(v)
    }
}

/// `iv` clamped into the spec's container, as the saturating kernels clamp
/// (identity for f32).
fn saturate(spec: NumericSpec, iv: Interval) -> Interval {
    container(spec).map_or(iv, |c| iv.clamp_to(c))
}

/// Sound bounds on `E::from_f32(x)` for `x ∈ iv`: widen by the rounding
/// half-step, clamp to the container. Identity for f32.
pub fn quantize_interval(spec: NumericSpec, iv: Interval) -> Interval {
    match container(spec) {
        None => iv,
        Some(c) => iv.widen(spec.epsilon() / 2.0).clamp_to(c),
    }
}

/// The per-transfer widening covering float rounding (f32 designs) or the
/// analyzer's own f64 arithmetic (fixed designs).
pub(crate) fn spec_slack(spec: NumericSpec, iv: Interval) -> f64 {
    if spec.is_fixed() {
        FIXED_ABS_SLACK
    } else {
        F32_REL_SLACK * iv.max_abs() + F32_ABS_SLACK
    }
}

/// Sound bounds on `activate(act, v)` for `v ∈ iv` (the kernel's
/// post-narrow activation): ReLU is exact `max(0, ·)`; identity and tanh
/// round-trip through f32 and re-quantise, which [`quantize_interval`]
/// over-approximates.
pub fn apply_activation(spec: NumericSpec, iv: Interval, act: Activation) -> Interval {
    let mapped = match act {
        Activation::Relu => Interval::new(iv.lo.max(0.0), iv.hi.max(0.0)),
        Activation::Identity => quantize_interval(spec, iv),
        Activation::Tanh => {
            // the engines' own monotone tanh, at the bounds rounded to f32
            // (rounding to nearest keeps each bound on its side of every
            // f32 the interval holds)
            let tanh = |v: f64| f64::from(dfcnn_tensor::tanh(f64_to_f32(v)));
            quantize_interval(spec, Interval::new(tanh(iv.lo), tanh(iv.hi)))
        }
    };
    // widening must not escape the container for fixed specs
    saturate(spec, mapped.widen(spec_slack(spec, mapped)))
}

/// What one core's transfer function proves about its stream.
#[derive(Clone, Copy, Debug)]
pub struct Transfer {
    /// Sound bounds on every value the core emits.
    pub out: Interval,
    /// Sound bounds on the widest *intermediate* value before the
    /// rescale/saturate step — the site where saturation would strike.
    /// `None` for kinds with no such step (routing, max-pool, concat).
    pub pre: Option<Interval>,
    /// Worst-case |i64 accumulator| at the product scale `2^(2·FRAC)`,
    /// exact in `u128`. `None` for f32 (float accumulators don't wrap)
    /// and for accumulator-free kinds.
    pub acc_abs: Option<u128>,
}

impl Transfer {
    /// The routing kinds' transfer: values pass through verbatim, so the
    /// output interval is the union of the inputs.
    pub fn identity(inputs: &[Interval]) -> Transfer {
        Transfer {
            out: Interval::union_all(inputs),
            pre: None,
            acc_abs: None,
        }
    }
}

/// Transfer of a MAC kind (conv window / FC row): per-output-channel
/// folds of the weights and bias as the engines quantise them.
///
/// For output channel `k` with quantised weights `w_i` and bias `b`:
/// `pre_k = [pos·lo + neg·hi + b, pos·hi + neg·lo + b]` where
/// `pos = Σ max(w_i, 0)`, `neg = Σ min(w_i, 0)` and `[lo, hi]` is the
/// quantised input interval. The i64 accumulator bound is the exact
/// integer `Σ|w_raw|·max|x_raw| + |b_raw|·2^FRAC`.
pub fn mac_transfer<'a>(
    q: Quantiser,
    input: Interval,
    channels: impl IntoIterator<Item = (&'a [f32], f32)>,
    activation: Activation,
) -> Transfer {
    let spec = q.spec();
    let q_in = quantize_interval(spec, input);
    let x_raw = u128::from(raw_magnitude(q_in.max_abs(), q.scale));
    let frac = spec.frac().unwrap_or(0);
    let mut pre: Option<Interval> = None;
    let mut acc_max: u128 = 0;
    for (weights, bias) in channels {
        let (pos, neg) = (q.fold)(weights);
        // Σ|w_raw|: the value sums are exact multiples of ε for fixed point
        let w_raw = u128::from(raw_magnitude(pos - neg, q.scale));
        let qb = q.value(bias);
        let ch = Interval::new(
            pos * q_in.lo + neg * q_in.hi + qb,
            pos * q_in.hi + neg * q_in.lo + qb,
        );
        pre = Some(pre.map_or(ch, |p| p.union(ch)));
        let b_raw = u128::from(raw_magnitude(qb, q.scale));
        let acc = w_raw * x_raw + (b_raw << frac);
        acc_max = acc_max.max(acc);
    }
    let pre = pre.unwrap_or(Interval::point(0.0));
    let pre = pre.widen(spec_slack(spec, pre));
    let out = apply_activation(spec, narrow_interval(spec, pre), activation);
    Transfer {
        out,
        pre: Some(pre),
        acc_abs: spec.is_fixed().then_some(acc_max),
    }
}

/// Sound bounds on `E::narrow(acc)` for an accumulator whose rescaled
/// value lies in `pre`: the arithmetic shift truncates toward −∞ (up to ε
/// below), then saturates into the container. Identity for f32.
pub fn narrow_interval(spec: NumericSpec, pre: Interval) -> Interval {
    saturate(spec, Interval::new(pre.lo - spec.epsilon(), pre.hi))
}

/// Max-pooling transfer: the maximum of quantised window values — exact
/// interval semantics, no intermediate to saturate.
pub fn pool_max_transfer(spec: NumericSpec, input: Interval) -> Transfer {
    let q = quantize_interval(spec, input);
    Transfer {
        out: apply_activation(spec, q, Activation::Identity),
        pre: None,
        acc_abs: None,
    }
}

/// Mean-pooling transfer over an `n`-value window: the tree adder's
/// partial sums all lie in `[n·min(lo,0), n·max(hi,0)]` (saturating adds
/// clamp into the container), then the sum is scaled by the quantised
/// reciprocal `1/n` (saturating multiply truncates toward −∞).
pub fn pool_mean_transfer(quant: Quantiser, input: Interval, n: usize) -> Transfer {
    let spec = quant.spec();
    let q = quantize_interval(spec, input);
    let nf = n as f64;
    let pre = Interval::new(nf * q.lo.min(0.0), nf * q.hi.max(0.0));
    let pre = pre.widen(spec_slack(spec, pre));
    let summed = saturate(spec, pre);
    let r = quant.value(crate::kernel::mean_reciprocal(n));
    let scaled = Interval::new(summed.lo * r - spec.epsilon(), summed.hi * r);
    let out = apply_activation(spec, scaled, Activation::Identity);
    Transfer {
        out,
        pre: Some(pre),
        acc_abs: None,
    }
}

/// Element-wise-add join transfer: both operands quantise on ingest, one
/// saturating add.
pub fn eltwise_transfer(spec: NumericSpec, a: Interval, b: Interval) -> Transfer {
    let qa = quantize_interval(spec, a);
    let qb = quantize_interval(spec, b);
    let pre = Interval::new(qa.lo + qb.lo, qa.hi + qb.hi);
    let pre = pre.widen(spec_slack(spec, pre));
    let out = saturate(spec, pre);
    Transfer {
        out,
        pre: Some(pre),
        acc_abs: None,
    }
}

/// Scale-shift (frozen batchnorm) transfer: per channel,
/// `s_q · x_q` (saturating multiply, truncation toward −∞) then `+ sh_q`
/// (saturating add); the union over channels of both intermediates.
pub fn scale_shift_transfer<I>(quant: Quantiser, input: Interval, channels: I) -> Transfer
where
    I: IntoIterator<Item = (f32, f32)>,
{
    let spec = quant.spec();
    let q = quantize_interval(spec, input);
    let mut pre: Option<Interval> = None;
    let mut out: Option<Interval> = None;
    for (scale, shift) in channels {
        let s = quant.value(scale);
        let sh = quant.value(shift);
        let (a, b) = (s * q.lo, s * q.hi);
        let prod = Interval::new(a.min(b) - spec.epsilon(), a.max(b));
        let prod_sat = saturate(spec, prod);
        let sum = Interval::new(prod_sat.lo + sh, prod_sat.hi + sh);
        let ch_pre = prod.union(sum);
        pre = Some(pre.map_or(ch_pre, |p| p.union(ch_pre)));
        let ch_out = saturate(spec, sum);
        out = Some(out.map_or(ch_out, |o| o.union(ch_out)));
    }
    let pre = pre.unwrap_or(Interval::point(0.0));
    let pre = pre.widen(spec_slack(spec, pre));
    let out = out.unwrap_or(Interval::point(0.0));
    let out = out.widen(spec_slack(spec, out));
    let out = saturate(spec, out);
    Transfer {
        out,
        pre: Some(pre),
        acc_abs: None,
    }
}

/// Log-softmax transfer over `k` classes: for any input scores,
/// `out_i = x_i − max − ln Σ e^{x_j − max}` lies in
/// `[lo − hi − ln k, 0]` (the log-sum term is within `[0, ln k]`). The
/// exp/ln pipeline evaluates in f32 (the one block the paper keeps in
/// floating point), so the only fixed-point steps are the ingest/emission
/// quantisations.
pub fn logsoftmax_transfer(spec: NumericSpec, input: Interval, k: usize) -> Transfer {
    let q = quantize_interval(spec, input);
    let ln_k = (k.max(1) as f64).ln();
    let ideal = Interval::new(q.lo - q.hi - ln_k, 0.0);
    // generous float slack: the exp/ln pipeline is f32 regardless of spec
    let slack = F32_REL_SLACK * ideal.max_abs() + F32_ABS_SLACK + 4.0 * spec.epsilon();
    let out = quantize_interval(spec, ideal.widen(slack));
    Transfer {
        out,
        pre: None,
        acc_abs: None,
    }
}

/// Statically proven ranges of one core.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CoreRange {
    /// Core name (`conv1`, `add1`, …).
    pub name: String,
    /// Kind label (`conv`, `pool`, `fc`, …).
    pub kind: String,
    /// Output interval lower bound.
    pub out_lo: f64,
    /// Output interval upper bound.
    pub out_hi: f64,
    /// Pre-saturation intermediate interval, when the kind has one.
    pub pre_lo: Option<f64>,
    /// See [`CoreRange::pre_lo`].
    pub pre_hi: Option<f64>,
    /// Whether the pre-saturation interval escapes the container — the
    /// `value-range` checker rule's error condition.
    pub saturation_possible: bool,
    /// Bits of headroom between the container bound and the proven
    /// magnitude (negative when saturating; `None` for f32 or when the
    /// kind has no saturation site).
    pub headroom_bits: Option<f64>,
    /// `log2` of the worst-case |i64 accumulator| (MAC kinds, fixed).
    pub acc_bits: Option<f64>,
    /// Whether the exact-sum i64 accumulator provably cannot wrap.
    pub acc_safe: bool,
    /// Largest FRAC (for this spec's storage width) whose container would
    /// hold the proven magnitude — informational, feeds
    /// [`recommend_frac`]'s intuition into the report.
    pub max_safe_frac: Option<u32>,
}

/// Statically proven range of one stream bundle.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EdgeRange {
    /// Producer node name (`source` or a core name).
    pub from: String,
    /// Consumer node name (`sink` or a core name).
    pub to: String,
    /// Interval lower bound of values crossing the edge.
    pub lo: f64,
    /// Interval upper bound of values crossing the edge.
    pub hi: f64,
}

/// The analyzer's result: per-core and per-edge proven intervals plus the
/// container they must fit.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RangeReport {
    /// Report schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// The analyzed numeric format's label (`q16f8`, `f32`, …).
    pub numeric: String,
    /// Promised input interval lower bound.
    pub input_lo: f64,
    /// Promised input interval upper bound.
    pub input_hi: f64,
    /// Container lower bound (`None` for f32).
    pub container_lo: Option<f64>,
    /// Container upper bound (`None` for f32).
    pub container_hi: Option<f64>,
    /// One entry per core, in canonical (topological) core order.
    pub cores: Vec<CoreRange>,
    /// One entry per edge, in design edge order.
    pub edges: Vec<EdgeRange>,
}

impl RangeReport {
    /// Whether the analysis proves the design numerically sound: no core
    /// can saturate and no accumulator can wrap.
    pub fn is_clean(&self) -> bool {
        self.cores
            .iter()
            .all(|c| !c.saturation_possible && c.acc_safe)
    }

    /// Look up a core's entry by name.
    pub fn core(&self, name: &str) -> Option<&CoreRange> {
        self.cores.iter().find(|c| c.name == name)
    }

    /// Human-readable one-line-per-core rendering.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!(
            "value ranges under {} (input [{:.3}, {:.3}]):\n",
            self.numeric, self.input_lo, self.input_hi
        );
        for c in &self.cores {
            let _ = write!(
                s,
                "  {:<10} out [{:+.4}, {:+.4}]",
                c.name, c.out_lo, c.out_hi
            );
            if let (Some(lo), Some(hi)) = (c.pre_lo, c.pre_hi) {
                let _ = write!(s, "  pre [{lo:+.4}, {hi:+.4}]");
            }
            if let Some(h) = c.headroom_bits {
                let _ = write!(s, "  headroom {h:+.2} bits");
            }
            if c.saturation_possible {
                s.push_str("  SATURATION POSSIBLE");
            }
            if !c.acc_safe {
                s.push_str("  ACCUMULATOR WRAP POSSIBLE");
            }
            s.push('\n');
        }
        s
    }
}

fn node_name(design: &NetworkDesign, n: NodeRef) -> String {
    match n {
        NodeRef::Source => "source".to_string(),
        NodeRef::Sink => "sink".to_string(),
        NodeRef::Core(i) => design.cores()[i].name.clone(),
    }
}

fn core_entry(spec: NumericSpec, name: &str, kind: &str, t: &Transfer) -> CoreRange {
    let cont = container(spec);
    let (saturation_possible, headroom_bits) = match (cont, t.pre) {
        (Some(c), Some(pre)) => {
            let tol = 1e-9 * c.hi.max(1.0);
            let sat = pre.lo < c.lo - tol || pre.hi > c.hi + tol;
            let h = if pre.max_abs() > 0.0 {
                (c.hi / pre.max_abs()).log2().clamp(-64.0, 64.0)
            } else {
                64.0
            };
            (sat, Some(h))
        }
        _ => (false, None),
    };
    let acc_safe = t.acc_abs.is_none_or(|a| a <= i64::MAX as u128);
    let acc_bits = t.acc_abs.map(|a| ((a.max(1)) as f64).log2());
    let max_safe_frac = cont.map(|_| {
        let bits = spec.storage_bits();
        let max_raw = (1u64 << (bits - 1)) as f64 - 1.0;
        let magnitude = t
            .pre
            .map_or(t.out.max_abs(), |p| p.max_abs().max(t.out.max_abs()));
        if magnitude <= 0.0 {
            bits - 1
        } else {
            (max_raw / magnitude)
                .log2()
                .floor()
                .clamp(0.0, (bits - 1) as f64) as u32
        }
    });
    CoreRange {
        name: name.to_string(),
        kind: kind.to_string(),
        out_lo: t.out.lo,
        out_hi: t.out.hi,
        pre_lo: t.pre.map(|p| p.lo),
        pre_hi: t.pre.map(|p| p.hi),
        saturation_possible,
        headroom_bits,
        acc_bits,
        acc_safe,
        max_safe_frac,
    }
}

/// Run the analyzer on a design under an explicit numeric spec and input
/// interval — the re-analysis entry point [`recommend_frac`] and the DSE
/// numeric pruning use (no design rebuild needed to try another spec).
///
/// Cores are visited in index order, which the graph builder emits
/// topologically — the same canonical traversal lowering uses.
///
/// # Errors
/// [`RangeError::Unsupported`] when no kernel is compiled for `spec`.
pub fn analyze_with(
    design: &NetworkDesign,
    spec: NumericSpec,
    input: Interval,
) -> Result<RangeReport, RangeError> {
    let quantiser = Quantiser::new(spec)?;
    let cores = design.cores();
    let mut outs: Vec<Option<Interval>> = vec![None; cores.len()];
    let mut entries = Vec::with_capacity(cores.len());
    for (i, core) in cores.iter().enumerate() {
        let mut ins = Vec::new();
        for e in design.edges() {
            if e.to == NodeRef::Core(i) {
                ins.push(match e.from {
                    NodeRef::Source => input,
                    NodeRef::Core(j) => outs[j].expect("core list is topologically ordered"),
                    NodeRef::Sink => unreachable!("the sink produces no stream"),
                });
            }
        }
        let m = model::model_for(core.params.kind);
        let t = m.range_transfer(design, core, quantiser, &ins);
        outs[i] = Some(t.out);
        entries.push(core_entry(spec, &core.name, m.label(), &t));
    }
    let edges = design
        .edges()
        .iter()
        .map(|e| {
            let iv = match e.from {
                NodeRef::Source => input,
                NodeRef::Core(j) => outs[j].expect("producer precedes its edges"),
                NodeRef::Sink => unreachable!("the sink produces no stream"),
            };
            EdgeRange {
                from: node_name(design, e.from),
                to: node_name(design, e.to),
                lo: iv.lo,
                hi: iv.hi,
            }
        })
        .collect();
    let cont = container(spec);
    Ok(RangeReport {
        schema_version: SCHEMA_VERSION,
        numeric: spec.label(),
        input_lo: input.lo,
        input_hi: input.hi,
        container_lo: cont.map(|c| c.lo),
        container_hi: cont.map(|c| c.hi),
        cores: entries,
        edges,
    })
}

/// Run the analyzer on a design as configured: its own
/// [`NumericSpec`](crate::graph::DesignConfig::numeric) and promised
/// [`input_range`](crate::graph::DesignConfig::input_range).
pub fn analyze(design: &NetworkDesign) -> RangeReport {
    let (lo, hi) = design.config().input_range;
    analyze_with(
        design,
        design.config().numeric,
        Interval::new(f64::from(lo), f64::from(hi)),
    )
    .expect("NetworkDesign::new accepts only specs with kernels")
}

/// The maximal FRAC (most precision) of the given storage width whose
/// container the analysis proves every core fits — sound by construction,
/// since each candidate is re-analyzed under its own quantisation.
/// `None` when even the widest integer part saturates.
pub fn recommend_frac(design: &NetworkDesign, storage_bits: u32) -> Option<u32> {
    let candidates: &[u32] = match storage_bits {
        16 => &[12, 10, 8, 6],
        8 => &[6, 4],
        _ => return None,
    };
    let (lo, hi) = design.config().input_range;
    let input = Interval::new(f64::from(lo), f64::from(hi));
    for &frac in candidates {
        let spec = if storage_bits == 16 {
            NumericSpec::Fixed16 { frac }
        } else {
            NumericSpec::Fixed8 { frac }
        };
        if analyze_with(design, spec, input).is_ok_and(|r| r.is_clean()) {
            return Some(frac);
        }
    }
    None
}

/// Dynamically observed output range of one host pipeline stage.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ObservedRange {
    /// Stage name (matches the core name for layer-backed stages).
    pub name: String,
    /// Smallest value the stage emitted.
    pub lo: f32,
    /// Largest value the stage emitted.
    pub hi: f32,
}

/// Run `images` through the design's host pipeline and record each
/// stage's observed output min/max — the dynamic side of the soundness
/// tests (`observed ⊆ static`). Stage names match core names for
/// layer-backed stages; `flatten` is a reshape and is reported with its
/// producer's values.
pub fn observe_ranges(design: &NetworkDesign, images: &[Tensor3<f32>]) -> Vec<ObservedRange> {
    let stages = model::host_pipeline(design);
    let mut workers: Vec<_> = stages.iter().map(|s| s.spec.make_worker()).collect();
    let mut lo = vec![f32::INFINITY; stages.len()];
    let mut hi = vec![f32::NEG_INFINITY; stages.len()];
    for img in images {
        let mut outs: Vec<Tensor3<f32>> = Vec::with_capacity(stages.len());
        for (i, stage) in stages.iter().enumerate() {
            let ins: Vec<&Tensor3<f32>> =
                stage.inputs.iter().map(|si| si.pick(img, &outs)).collect();
            let mut out = Tensor3::zeros(stage.spec.out_shape);
            workers[i].apply_multi(&ins, &mut out);
            for &v in out.as_slice() {
                lo[i] = lo[i].min(v);
                hi[i] = hi[i].max(v);
            }
            outs.push(out);
        }
    }
    stages
        .iter()
        .zip(lo.iter().zip(hi.iter()))
        .map(|(s, (&lo, &hi))| ObservedRange {
            name: s.spec.name.clone(),
            lo,
            hi,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q16F8: NumericSpec = NumericSpec::Fixed16 { frac: 8 };
    const Q8F4: NumericSpec = NumericSpec::Fixed8 { frac: 4 };

    #[test]
    fn container_bounds_match_the_types() {
        let c = container(Q16F8).unwrap();
        assert_eq!(c.hi, f64::from(i16::MAX) / 256.0);
        assert_eq!(c.lo, f64::from(i16::MIN) / 256.0);
        let c8 = container(Q8F4).unwrap();
        assert_eq!(c8.hi, f64::from(i8::MAX) / 16.0);
        assert_eq!(c8.lo, -8.0);
        assert!(container(NumericSpec::F32).is_none());
    }

    #[test]
    fn fixed8_boundary_values_quantise_to_the_rails() {
        // i8::MIN / i8::MAX raw values are the saturation rails
        let q = Quantiser::new(Q8F4).unwrap();
        assert_eq!(q.value(-100.0), f64::from(i8::MIN) / 16.0);
        assert_eq!(q.value(100.0), f64::from(i8::MAX) / 16.0);
        // quantising a wild interval clamps it into the container exactly
        let c = container(Q8F4).unwrap();
        assert_eq!(quantize_interval(Q8F4, Interval::new(-1e6, 1e6)), c);
        // the rails themselves survive a quantise round-trip
        assert_eq!(q.value(c.lo as f32), c.lo);
        assert_eq!(q.value(c.hi as f32), c.hi);
    }

    #[test]
    fn negative_weights_flip_interval_corners() {
        // one output channel, weights [-2], bias 0, input [0, 1]:
        // pre = [-2, 0] (a positive-only fold would wrongly give [0, 2])
        let f32_q = Quantiser::new(NumericSpec::F32).unwrap();
        let t = mac_transfer(
            f32_q,
            Interval::new(0.0, 1.0),
            [(&[-2.0f32][..], 0.0f32)],
            Activation::Identity,
        );
        let pre = t.pre.unwrap();
        assert!(pre.lo <= -2.0 && pre.lo > -2.1, "pre.lo = {}", pre.lo);
        assert!(pre.hi >= 0.0 && pre.hi < 0.1, "pre.hi = {}", pre.hi);
        // mixed signs: w = [1, -1], input [-1, 1] → pre = [-2, 2]
        let t = mac_transfer(
            f32_q,
            Interval::new(-1.0, 1.0),
            [(&[1.0f32, -1.0][..], 0.0f32)],
            Activation::Identity,
        );
        let pre = t.pre.unwrap();
        assert!(pre.contains(-2.0) && pre.contains(2.0));
        assert!(!pre.contains(-2.5) && !pre.contains(2.5));
    }

    #[test]
    fn zero_width_interval_through_relu() {
        // a point interval below zero maps to exactly [0, 0] (+ slack)
        let out = apply_activation(Q16F8, Interval::point(-0.5), Activation::Relu);
        assert!(out.contains(0.0));
        assert!(out.hi < 1e-6, "relu of a negative point is ~0: {out:?}");
        // and a point above zero stays a point
        let out = apply_activation(Q16F8, Interval::point(0.25), Activation::Relu);
        assert!(out.contains(0.25));
        assert!(out.hi - out.lo < 1e-6);
    }

    #[test]
    fn concat_of_mismatched_ranges_is_the_exact_union() {
        let t = Transfer::identity(&[Interval::new(-1.0, 1.0), Interval::new(0.0, 5.0)]);
        assert_eq!(t.out, Interval::new(-1.0, 5.0));
        assert!(t.pre.is_none() && t.acc_abs.is_none());
    }

    #[test]
    fn eltwise_saturates_at_the_container() {
        // q8f4 container tops out at 7.9375: 7 + 7 clamps
        let t = eltwise_transfer(Q8F4, Interval::new(0.0, 7.0), Interval::new(0.0, 7.0));
        assert!(t.pre.unwrap().hi >= 14.0);
        assert!(t.out.hi <= container(Q8F4).unwrap().hi + 1e-9);
    }

    #[test]
    fn mean_pool_scales_by_the_quantised_reciprocal() {
        let q = Quantiser::new(Q16F8).unwrap();
        let t = pool_mean_transfer(q, Interval::new(0.0, 4.0), 4);
        // sum ∈ [0, 16], × ~0.25 → out ≈ [0, 4]
        assert!(t.out.hi >= 4.0 - 0.1 && t.out.hi <= 4.1, "{:?}", t.out);
        assert!(t.pre.unwrap().hi >= 16.0);
    }

    #[test]
    fn logsoftmax_output_is_bounded_by_the_score_spread() {
        let t = logsoftmax_transfer(NumericSpec::F32, Interval::new(-3.0, 5.0), 10);
        assert!(t.out.contains(0.0));
        assert!(t.out.lo <= -8.0 - (10.0f64).ln() + 0.1);
        assert!(t.out.lo >= -8.0 - (10.0f64).ln() - 0.1);
    }

    #[test]
    fn accumulator_bound_is_exact_for_a_known_fold() {
        // q16f8: one weight of value 2.0 (raw 512), input [0, 1] (raw ≤ 256),
        // bias 1.0 (raw 256 << 8)
        let t = mac_transfer(
            Quantiser::new(Q16F8).unwrap(),
            Interval::new(0.0, 1.0),
            [(&[2.0f32][..], 1.0f32)],
            Activation::Identity,
        );
        assert_eq!(t.acc_abs, Some(512u128 * 256 + (256u128 << 8)));
    }

    #[test]
    fn specs_without_kernels_are_a_typed_error() {
        let mut rng = <rand_chacha::ChaCha8Rng as rand::SeedableRng>::seed_from_u64(5);
        let net = dfcnn_nn::topology::NetworkSpec::test_case_1().build(&mut rng);
        let design = NetworkDesign::new(
            &net,
            crate::graph::PortConfig::paper_test_case_1(),
            crate::graph::DesignConfig::default(),
        )
        .unwrap();
        let input = Interval::new(0.0, 1.0);
        for spec in [
            NumericSpec::Fixed16 { frac: 7 },
            NumericSpec::Fixed8 { frac: 5 },
        ] {
            let err = analyze_with(&design, spec, input).unwrap_err();
            assert_eq!(err, RangeError::Unsupported(spec));
            assert!(err.to_string().contains(&spec.label()), "{err}");
        }
        assert!(analyze_with(&design, Q16F8, input).is_ok());
    }

    #[test]
    fn report_serde_round_trips_with_schema_version() {
        let report = RangeReport {
            schema_version: SCHEMA_VERSION,
            numeric: "q16f8".into(),
            input_lo: -1.0,
            input_hi: 1.0,
            container_lo: Some(-128.0),
            container_hi: Some(127.99),
            cores: vec![CoreRange {
                name: "conv1".into(),
                kind: "conv".into(),
                out_lo: -2.0,
                out_hi: 2.0,
                pre_lo: Some(-3.0),
                pre_hi: Some(3.0),
                saturation_possible: false,
                headroom_bits: Some(5.4),
                acc_bits: Some(21.0),
                acc_safe: true,
                max_safe_frac: Some(12),
            }],
            edges: vec![EdgeRange {
                from: "source".into(),
                to: "conv1".into(),
                lo: -1.0,
                hi: 1.0,
            }],
        };
        let v = report.to_value();
        let back = RangeReport::from_value(&v).unwrap();
        assert_eq!(back.schema_version, SCHEMA_VERSION);
        assert_eq!(back.cores.len(), 1);
        assert_eq!(back.cores[0].name, "conv1");
        assert_eq!(back.cores[0].max_safe_frac, Some(12));
        assert_eq!(back.edges[0].from, "source");
        // the serialized form carries the version field explicitly
        let json = serde_json::to_string(&v).unwrap();
        assert!(json.contains("schema_version"));
    }

    #[test]
    fn headroom_goes_negative_when_saturating() {
        let big = Transfer {
            out: container(Q8F4).unwrap(),
            pre: Some(Interval::new(-50.0, 50.0)),
            acc_abs: Some(1u128 << 20),
        };
        let e = core_entry(Q8F4, "fc1", "fc", &big);
        assert!(e.saturation_possible);
        assert!(e.headroom_bits.unwrap() < 0.0);
        assert!(e.acc_safe);
        let wrap = Transfer {
            acc_abs: Some(u128::from(u64::MAX)),
            ..big
        };
        assert!(!core_entry(Q8F4, "fc1", "fc", &wrap).acc_safe);
    }
}
