//! Static design verifier: proves deadlock-freedom, buffer bounds and
//! rate consistency **before a single cycle is simulated**.
//!
//! A [`crate::graph::NetworkDesign`] is a synchronous dataflow graph with
//! statically-known token rates: every core's per-image input and output
//! volumes, its Eq. 4 initiation interval and — for windowed cores — the
//! SST full-buffering bound follow from the layer geometry alone. That
//! makes the three classic dataflow safety questions decidable here
//! without running the simulator:
//!
//! 1. **Rate conservation** (`rate-conservation`): on every edge of the
//!    core graph — linear chains and fork/join DAGs alike — producer and
//!    consumer must agree on port count and per-image token volume (a
//!    fork's output volume splits evenly over its branches; a join's
//!    input volume over its operands), the DMA source volume must match
//!    the first core, and the classifier head must emit exactly the
//!    width the sink collects. A violated edge is a starved or
//!    permanently backpressured channel — a deadlock the simulator can
//!    only find by stalling out.
//! 2. **Buffer sufficiency** (`buffer-sufficiency`): each windowed core's
//!    per-port line buffer must hold at least the full-buffering bound
//!    `((KH-1+pad)·W + KW) · CH/port` ([`crate::sst`]); below it the first
//!    window is *never* complete and the core provably deadlocks.
//!    Capacity above the bound is flagged as a BRAM-waste warning, as are
//!    extravagant inter-layer FIFO depths.
//! 3. **II consistency** (`ii-consistency`): every core's recorded Eq. 4
//!    initiation interval is recomputed from geometry via
//!    [`crate::model::CoreModel::static_profile`] and must match;
//!    [`check_drift`] extends the same cross-check to the drift columns
//!    of a measured [`RunReport`].
//! 4. **Replication soundness** (`replication-soundness`):
//!    [`ReplicationPlan`]s for the threaded engine are checked against the
//!    j-mod-r dealing protocol — order preservation needs one factor per
//!    stage and every factor ≥ 1 (worker `j mod r` must exist for every
//!    residue class), and factors beyond the host planner's cap of 4 are
//!    flagged.
//!
//! 5. **Reconvergence buffering** (`reconvergence-buffering`): in a
//!    fork/join design, while the windowed path of a reconvergent pair
//!    fills its line buffers the join consumes nothing, so every value
//!    the fork pushes down the sibling path in that window must fit in
//!    that path's FIFOs — `capacity(A) ≥ holdback(B)` for each ordered
//!    path pair entering the join on different edges
//!    ([`crate::graph::GraphBuilder`] auto-sizes skip FIFOs to satisfy
//!    this; `DesignConfig::skip_fifo_cap` seeds the violation).
//!
//! Port-divisibility legality (`port-legality`) is reported by
//! [`check_network`], which maps each layer model's validation errors onto
//! diagnostics carrying the offending core's name.
//!
//! Every rule yields a typed [`DesignDiagnostic`] (severity, rule id, core
//! name, explanation, suggested fix) collected in a [`CheckReport`]. CI
//! and the `pipeline_check` bench binary run [`check_design`] over the
//! paper designs and every DSE candidate; `tests/static_check.rs` pins
//! that each seeded violation class is rejected with the expected rule id
//! *and* independently confirmed by the cycle simulator deadlocking.

use crate::exec::ReplicationPlan;
use crate::graph::{DesignConfig, NetworkDesign, PortConfig};
use crate::model;
use crate::observe::RunReport;
use dfcnn_nn::Network;
use std::fmt;

/// Inter-layer FIFO depths above this are flagged as BRAM waste.
const FIFO_WASTE_DEPTH: usize = 64;

/// How bad a diagnostic is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The design works but wastes resources or invites trouble.
    Warning,
    /// The design is provably broken (deadlock, wrong output, bad plan).
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Which static rule produced a diagnostic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RuleId {
    /// Per-edge token production/consumption rates must balance.
    RateConservation,
    /// Line buffers must meet the SST full-buffering bound; FIFOs and
    /// buffers beyond their bounds are waste.
    BufferSufficiency,
    /// Recorded Eq. 4 IIs must match the geometry-derived recomputation.
    IiConsistency,
    /// Replication plans must satisfy the j-mod-r order-preservation
    /// protocol.
    ReplicationSoundness,
    /// Port counts must be non-zero divisors of the FM counts.
    PortLegality,
    /// Reconvergent fork/join path pairs must buffer the sibling path's
    /// line-buffer holdback.
    ReconvergenceBuffering,
    /// Statically proven value intervals must fit the fixed-point
    /// container (error), with at least one bit of headroom (warning).
    ValueRange,
    /// The exact-sum i64 accumulator must provably never wrap.
    AccumulatorWidth,
}

impl RuleId {
    /// Stable kebab-case rule identifier, as printed in diagnostics.
    pub fn id(&self) -> &'static str {
        match self {
            RuleId::RateConservation => "rate-conservation",
            RuleId::BufferSufficiency => "buffer-sufficiency",
            RuleId::IiConsistency => "ii-consistency",
            RuleId::ReplicationSoundness => "replication-soundness",
            RuleId::PortLegality => "port-legality",
            RuleId::ReconvergenceBuffering => "reconvergence-buffering",
            RuleId::ValueRange => "value-range",
            RuleId::AccumulatorWidth => "accumulator-width",
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One finding of the static verifier.
#[derive(Clone, Debug)]
pub struct DesignDiagnostic {
    /// Error (provably broken) or warning (wasteful/suspicious).
    pub severity: Severity,
    /// The rule that fired.
    pub rule: RuleId,
    /// The core (or boundary / plan element) the finding is about.
    pub core: String,
    /// What is wrong, with the numbers that prove it.
    pub message: String,
    /// What to change to fix it.
    pub fix: String,
}

impl fmt::Display for DesignDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {} (fix: {})",
            self.severity, self.rule, self.core, self.message, self.fix
        )
    }
}

/// The verifier's verdict on one design: every diagnostic, in rule order.
#[derive(Clone, Debug, Default)]
pub struct CheckReport {
    /// All findings (errors and warnings).
    pub diagnostics: Vec<DesignDiagnostic>,
}

impl CheckReport {
    /// The provably-broken findings.
    pub fn errors(&self) -> Vec<&DesignDiagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect()
    }

    /// The wasteful/suspicious findings.
    pub fn warnings(&self) -> Vec<&DesignDiagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .collect()
    }

    /// No errors — the design is proven deadlock-free, rate-consistent
    /// and correctly buffered (warnings allowed).
    pub fn is_clean(&self) -> bool {
        self.errors().is_empty()
    }

    /// Whether the design is free of *structural* errors — rates,
    /// buffers, IIs, ports, replication. Numeric-range findings
    /// (`value-range`, `accumulator-width`) are excluded: they predict
    /// accuracy loss under a too-narrow format, not deadlock or engine
    /// disagreement — a saturating design still runs, clamping into its
    /// container (the `range` module's soundness tests depend on that).
    pub fn is_structurally_clean(&self) -> bool {
        self.errors()
            .iter()
            .all(|d| matches!(d.rule, RuleId::ValueRange | RuleId::AccumulatorWidth))
    }

    /// Whether some diagnostic fired with the given rule at the given
    /// severity (test helper and CLI filter).
    pub fn has(&self, severity: Severity, rule: RuleId) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == severity && d.rule == rule)
    }

    /// Console rendering: a summary line plus one line per diagnostic.
    pub fn render(&self) -> String {
        let mut out = format!(
            "design check: {} error(s), {} warning(s)\n",
            self.errors().len(),
            self.warnings().len()
        );
        for d in &self.diagnostics {
            out.push_str(&format!("  {d}\n"));
        }
        out
    }
}

fn diag(
    severity: Severity,
    rule: RuleId,
    core: impl Into<String>,
    message: String,
    fix: impl Into<String>,
) -> DesignDiagnostic {
    DesignDiagnostic {
        severity,
        rule,
        core: core.into(),
        message,
        fix: fix.into(),
    }
}

/// Run every static rule over a validated design.
pub fn check_design(design: &NetworkDesign) -> CheckReport {
    let mut diagnostics = Vec::new();
    rate_conservation(design, &mut diagnostics);
    buffer_sufficiency(design, &mut diagnostics);
    ii_consistency(design, &mut diagnostics);
    reconvergence_buffering(design, &mut diagnostics);
    value_ranges(design, &mut diagnostics);
    CheckReport { diagnostics }
}

/// Rule 1: token rates must balance on every edge of the core graph.
///
/// For each producer→consumer edge the producer's port count must equal
/// the consumer's (the builder inserts demux/widen adapters to guarantee
/// this; [`DesignConfig::omit_adapters`] seeds the violation) and the
/// producer's per-image per-edge output volume — recomputed from
/// geometry by [`model::CoreModel::static_profile`], split evenly over
/// its out-edges — must equal the consumer's per-edge input volume. The
/// consumer side comes from [`model::CoreModel::in_edge_volumes`]: an
/// even split of its per-image volume for symmetric kinds, per-operand
/// volumes for asymmetric joins like concat (whose two operands stream
/// different FM counts). On linear chains both degrees are 1 and this
/// reduces to the classic boundary check. The source must supply exactly
/// the first core's volume and the classifier head must emit the width
/// the sink collects.
fn rate_conservation(design: &NetworkDesign, out: &mut Vec<DesignDiagnostic>) {
    let cores = design.cores();
    if cores.is_empty() {
        return;
    }
    use crate::graph::NodeRef;
    let input_volume = design.network().input_shape().len() as u64;
    let classes = design.classes() as u64;
    // per-consumer in-edge ordinal: edges() lists a join's operand edges
    // in wiring order, and in_edge_volumes returns volumes in that order
    let mut next_in_edge = vec![0usize; cores.len()];
    for e in design.edges() {
        if let NodeRef::Core(j) = e.to {
            next_in_edge[j] += 1;
        }
        match (e.from, e.to) {
            (NodeRef::Source, NodeRef::Core(i)) => {
                let first = &cores[i];
                if first.in_values_per_image != input_volume {
                    out.push(diag(
                        Severity::Error,
                        RuleId::RateConservation,
                        format!("dma-source\u{2192}{}", first.name),
                        format!(
                            "the DMA source streams {input_volume} values per image but {} \
                             consumes {} per image",
                            first.name, first.in_values_per_image
                        ),
                        "the first layer's input geometry must match the network input shape",
                    ));
                }
            }
            (NodeRef::Core(i), NodeRef::Core(j)) => {
                let (a, b) = (&cores[i], &cores[j]);
                let profile = model::model_for(a.params.kind).static_profile(design, a);
                if a.params.out_ports != b.params.in_ports {
                    out.push(diag(
                        Severity::Error,
                        RuleId::RateConservation,
                        format!("{}\u{2192}{}", a.name, b.name),
                        format!(
                            "{} emits on {} port(s) but {} reads {} port(s): the surplus \
                             side starves or backpressures forever (deadlock)",
                            a.name, a.params.out_ports, b.name, b.params.in_ports
                        ),
                        "insert a demux/widen adapter at the boundary (clear omit_adapters)",
                    ));
                }
                let a_share =
                    profile.out_values_per_image / design.core_out_degree(i).max(1) as u64;
                let expected = model::model_for(b.params.kind).in_edge_volumes(
                    design,
                    b,
                    design.core_in_degree(j),
                );
                let b_share = expected.get(next_in_edge[j] - 1).copied().unwrap_or(0);
                if a_share != b_share {
                    out.push(diag(
                        Severity::Error,
                        RuleId::RateConservation,
                        format!("{}\u{2192}{}", a.name, b.name),
                        format!(
                            "{} produces {} values per image but {} consumes {}",
                            a.name, a_share, b.name, b_share
                        ),
                        "the consumer's input geometry must equal the producer's output geometry",
                    ));
                }
            }
            (NodeRef::Core(i), NodeRef::Sink) => {
                let last = &cores[i];
                let last_out = model::model_for(last.params.kind)
                    .static_profile(design, last)
                    .out_values_per_image
                    / design.core_out_degree(i).max(1) as u64;
                if classes != 0 && last_out != classes {
                    out.push(diag(
                        Severity::Error,
                        RuleId::RateConservation,
                        format!("{}\u{2192}sink", last.name),
                        format!(
                            "{} emits {last_out} values per image but the sink collects \
                             {classes} classifier scores",
                            last.name
                        ),
                        "the classifier head must emit exactly the sink's class count",
                    ));
                }
            }
            _ => {}
        }
    }
    // interleave legality of every core, adapters included: the FM
    // round-robin dealing needs exact groups on both sides
    for c in cores {
        let p = &c.params;
        if p.in_ports == 0 || p.out_ports == 0 {
            out.push(diag(
                Severity::Error,
                RuleId::RateConservation,
                c.name.clone(),
                "zero port count: no channel carries the stream".to_string(),
                "port counts must be at least 1",
            ));
            continue;
        }
        if p.in_fm % p.in_ports != 0 || p.out_fm % p.out_ports != 0 {
            out.push(diag(
                Severity::Error,
                RuleId::RateConservation,
                c.name.clone(),
                format!(
                    "FM interleave is not exact: IN_FM {} over {} port(s), \
                     OUT_FM {} over {} port(s)",
                    p.in_fm, p.in_ports, p.out_fm, p.out_ports
                ),
                "ports must divide the FM counts for round-robin interleaving",
            ));
        }
    }
}

/// Rule 2: every buffer must be deep enough — and not absurdly deeper.
///
/// A windowed core's per-port line buffer below the SST full-buffering
/// bound can never complete its first window: provable deadlock, error.
/// Above the bound it only burns BRAM: warning. Inter-layer FIFOs of
/// depth 0 can never pass a token (error); beyond [`FIFO_WASTE_DEPTH`]
/// they are flagged as waste.
fn buffer_sufficiency(design: &NetworkDesign, out: &mut Vec<DesignDiagnostic>) {
    for c in design.cores() {
        let profile = model::model_for(c.params.kind).static_profile(design, c);
        let Some(lb) = profile.line_buffer else {
            continue;
        };
        if lb.capacity_per_port < lb.required_per_port {
            out.push(diag(
                Severity::Error,
                RuleId::BufferSufficiency,
                c.name.clone(),
                format!(
                    "line buffer holds {} values per port but the SST \
                     full-buffering bound is {}: the first window can never \
                     complete (deadlock)",
                    lb.capacity_per_port, lb.required_per_port
                ),
                "raise the capacity to the bound (clear line_buffer_cap)",
            ));
        } else if lb.capacity_per_port > lb.required_per_port {
            out.push(diag(
                Severity::Warning,
                RuleId::BufferSufficiency,
                c.name.clone(),
                format!(
                    "line buffer holds {} values per port but {} suffice \
                     (SST full-buffering bound): the surplus is wasted BRAM",
                    lb.capacity_per_port, lb.required_per_port
                ),
                "size the line buffer exactly at the bound",
            ));
        }
    }
    let depth = design.config().inter_fifo_depth;
    if depth == 0 {
        out.push(diag(
            Severity::Error,
            RuleId::BufferSufficiency,
            "inter-layer FIFOs",
            "FIFO depth 0: no token can ever cross a layer boundary (deadlock)".to_string(),
            "inter_fifo_depth must be at least 1",
        ));
    } else if depth > FIFO_WASTE_DEPTH {
        out.push(diag(
            Severity::Warning,
            RuleId::BufferSufficiency,
            "inter-layer FIFOs",
            format!(
                "FIFO depth {depth} exceeds {FIFO_WASTE_DEPTH}: decoupling needs \
                 only a few slots, the rest is wasted BRAM"
            ),
            "reduce inter_fifo_depth",
        ));
    }
}

/// Rule 3: each core's recorded Eq. 4 II must equal the II recomputed
/// from the layer geometry and port choice.
fn ii_consistency(design: &NetworkDesign, out: &mut Vec<DesignDiagnostic>) {
    for c in design.cores() {
        let profile = model::model_for(c.params.kind).static_profile(design, c);
        if c.params.ii != profile.expected_ii {
            out.push(diag(
                Severity::Error,
                RuleId::IiConsistency,
                c.name.clone(),
                format!(
                    "recorded II {} but Eq. 4 gives {} for {} FMs on {} \
                     port(s) \u{2192} {} FMs on {} port(s)",
                    c.params.ii,
                    profile.expected_ii,
                    c.params.in_fm,
                    c.params.in_ports,
                    c.params.out_fm,
                    c.params.out_ports
                ),
                "recompute the II via Eq. 4 (max(IN_FM/IN_PORTS, OUT_FM/OUT_PORTS))",
            ));
        }
    }
}

/// Rule 5: every reconvergent fork/join path pair must buffer the
/// sibling path's holdback.
///
/// While the windowed path of a reconvergent pair fills its line buffers
/// it emits nothing, so the join consumes nothing — and every value the
/// fork pushes down the *other* path in that window must fit in that
/// path's FIFOs and line buffers. If the sibling path's capacity is
/// below the windowed path's SST holdback, the fork backpressures, the
/// windowed path starves mid-fill and the graph provably deadlocks
/// ([`crate::graph`] derives both numbers statically; the builder
/// auto-sizes skip FIFOs to satisfy the bound unless
/// [`DesignConfig::skip_fifo_cap`] clamps them).
fn reconvergence_buffering(design: &NetworkDesign, out: &mut Vec<DesignDiagnostic>) {
    for d in crate::graph::reconvergence_deficits(design) {
        out.push(diag(
            Severity::Error,
            RuleId::ReconvergenceBuffering,
            format!("{}\u{2192}{}", d.fork, d.join),
            format!(
                "the path from {} to {} buffers only {} values but its sibling \
                 path holds back {} values while filling line buffers: the fork \
                 backpressures before the join sees a token (deadlock)",
                d.fork, d.join, d.capacity, d.required
            ),
            "deepen the skip-path FIFO to cover the sibling's line-buffer holdback \
             (clear skip_fifo_cap)",
        ));
    }
}

/// Rules 7 & 8: the value-range analyzer's proofs
/// ([`crate::range::analyze`]) must hold under the design's fixed-point
/// format.
///
/// - `value-range` (error): a core's pre-saturation interval escapes the
///   container, so the saturating narrow can clip real activations — the
///   statically-predicted form of the q8f6 accuracy collapse measured in
///   `results/numeric_kernels.json`.
/// - `value-range` (warning): the interval fits but with under one bit of
///   headroom; a slightly different input scale would saturate.
/// - `accumulator-width` (error): the worst-case exact-sum magnitude
///   exceeds `i64`, so the accumulator itself could wrap (no saturation
///   guards it — the whole point of the exact-sum contract is that it
///   never needs them).
///
/// Float designs are skipped: they have no container and their
/// accumulators cannot wrap.
fn value_ranges(design: &NetworkDesign, out: &mut Vec<DesignDiagnostic>) {
    let spec = design.config().numeric;
    if !spec.is_fixed() {
        return;
    }
    let report = crate::range::analyze(design);
    let (clo, chi) = (report.container_lo, report.container_hi);
    // the hint is one per design; search for it at the first saturating core
    let mut frac_hint: Option<String> = None;
    for c in &report.cores {
        if c.saturation_possible {
            let frac_hint = frac_hint
                .get_or_insert_with(|| {
                    match crate::range::recommend_frac(design, spec.storage_bits()) {
                        Some(f) => format!("use frac={f} at this width"),
                        None => "widen the storage (16-bit) or rescale the weights".to_string(),
                    }
                })
                .clone();
            out.push(diag(
                Severity::Error,
                RuleId::ValueRange,
                c.name.clone(),
                format!(
                    "pre-saturation values provably reach [{:.4}, {:.4}] but the {} \
                     container only holds [{:.4}, {:.4}]: the saturating narrow \
                     will clip real activations",
                    c.pre_lo.unwrap_or(c.out_lo),
                    c.pre_hi.unwrap_or(c.out_hi),
                    report.numeric,
                    clo.unwrap_or(f64::NEG_INFINITY),
                    chi.unwrap_or(f64::INFINITY),
                ),
                frac_hint,
            ));
        } else if let Some(h) = c.headroom_bits {
            if h < 1.0 {
                out.push(diag(
                    Severity::Warning,
                    RuleId::ValueRange,
                    c.name.clone(),
                    format!(
                        "only {h:.2} bits of headroom between the proven range \
                         [{:.4}, {:.4}] and the {} container",
                        c.pre_lo.unwrap_or(c.out_lo),
                        c.pre_hi.unwrap_or(c.out_hi),
                        report.numeric,
                    ),
                    "lower FRAC by one bit or rescale the preceding layer's weights",
                ));
            }
        }
        if !c.acc_safe {
            out.push(diag(
                Severity::Error,
                RuleId::AccumulatorWidth,
                c.name.clone(),
                format!(
                    "the exact-sum accumulator can reach 2^{:.1} at product scale, \
                     beyond the i64 it runs in",
                    c.acc_bits.unwrap_or(f64::NAN),
                ),
                "reduce FRAC (each bit halves the product scale) or split the layer",
            ));
        }
    }
}

/// Check a port configuration against a network *without* building a
/// design: every layer model's validation error becomes a
/// `port-legality` diagnostic carrying the offending core's name — the
/// same name [`NetworkDesign::new`] would have given it.
pub fn check_network(network: &Network, ports: &PortConfig, _config: &DesignConfig) -> CheckReport {
    let mut diagnostics = Vec::new();
    let paper: Vec<_> = network
        .layers()
        .iter()
        .filter(|l| model::paper_layer_model(l).is_some())
        .collect();
    if paper.len() != ports.layers.len() {
        diagnostics.push(diag(
            Severity::Error,
            RuleId::PortLegality,
            "port config",
            format!(
                "{} port entries for {} paper layers",
                ports.layers.len(),
                paper.len()
            ),
            "provide exactly one LayerPorts entry per conv/pool/linear layer",
        ));
        return CheckReport { diagnostics };
    }
    let mut counts: Vec<(&'static str, usize)> = Vec::new();
    for (layer, lp) in paper.iter().zip(ports.layers.iter()) {
        let m = model::paper_layer_model(layer).expect("filtered to paper layers");
        let name = model::next_name(&mut counts, m.label());
        if let Err(msg) = m.validate(&name, layer, *lp) {
            diagnostics.push(diag(
                Severity::Error,
                RuleId::PortLegality,
                name,
                msg,
                "choose port counts that divide the layer's FM counts",
            ));
        }
    }
    CheckReport { diagnostics }
}

/// Rule 4: a [`ReplicationPlan`] is order-preserving under the threaded
/// engine's j-mod-r dealing iff it names one factor per stage and every
/// factor is ≥ 1 — image `j` is served by worker `j mod r`, so a zero
/// factor leaves residue classes with no worker (and the engine would
/// divide by zero), and a missing/extra stage entry desynchronises the
/// dealing between boundaries. Factors above the host planner's cap
/// ([`ReplicationPlan::MAX_FACTOR`], which [`ReplicationPlan::adaptive`]
/// never exceeds) are flagged: they oversubscribe the machine without
/// raising throughput.
pub fn check_replication(plan: &ReplicationPlan, stage_count: usize) -> Vec<DesignDiagnostic> {
    let mut out = Vec::new();
    if plan.factors.len() != stage_count {
        out.push(diag(
            Severity::Error,
            RuleId::ReplicationSoundness,
            "replication plan",
            format!(
                "{} factors for {} pipeline stages: the j-mod-r dealing \
                 desynchronises across boundaries",
                plan.factors.len(),
                stage_count
            ),
            "provide exactly one factor per stage",
        ));
    }
    for (i, &f) in plan.factors.iter().enumerate() {
        if f == 0 {
            out.push(diag(
                Severity::Error,
                RuleId::ReplicationSoundness,
                format!("stage {i}"),
                "replication factor 0: no worker serves any image of this stage".to_string(),
                "factors must be \u{2265} 1",
            ));
        } else if f > ReplicationPlan::MAX_FACTOR {
            out.push(diag(
                Severity::Warning,
                RuleId::ReplicationSoundness,
                format!("stage {i}"),
                format!(
                    "replication factor {f} exceeds the host planner's cap of {}: \
                     extra workers contend without raising throughput",
                    ReplicationPlan::MAX_FACTOR
                ),
                "cap factors at ReplicationPlan::MAX_FACTOR (see ReplicationPlan::adaptive)",
            ));
        }
    }
    out
}

/// Close the static-vs-dynamic loop: cross-check a measured
/// [`RunReport`] against the same analytical model the verifier proves
/// from. The predicted bottleneck and pipeline interval must agree, and
/// every measurement the report flagged as out of bounds becomes a typed
/// diagnostic. This is the one place drift violations are worded.
pub fn check_drift(design: &NetworkDesign, report: &RunReport) -> Vec<DesignDiagnostic> {
    let mut out = Vec::new();
    let (name, predicted) = design.estimated_bottleneck();
    let predicted_pipeline = report.predicted_pipeline_interval.unwrap_or(0);
    let fill = report.bottleneck_fill.unwrap_or(0);
    if report.bottleneck_name.as_deref() != Some(name.as_str())
        || report.predicted_pipeline_interval != Some(predicted)
    {
        out.push(diag(
            Severity::Error,
            RuleId::IiConsistency,
            "pipeline",
            format!(
                "the run report predicts bottleneck {} at {} cycles/image but \
                 the design derives {} at {}",
                report.bottleneck_name.as_deref().unwrap_or("none"),
                predicted_pipeline,
                name,
                predicted
            ),
            "rebuild the run report from this design",
        ));
    }
    for s in &report.stages {
        if let (Some(false), Some(measured)) = (s.within, s.measured_interval) {
            out.push(diag(
                Severity::Error,
                RuleId::IiConsistency,
                s.name.clone(),
                format!(
                    "measured steady-state interval {measured:.1} cycles/image exceeds \
                     the Eq. 4 pipeline interval {predicted_pipeline} + fill {fill}"
                ),
                "the core runs slower than its geometry predicts; re-derive its II",
            ));
        }
        if let (Some(false), Some(hwm), Some(bound)) =
            (s.buffer_within, s.buffer_hwm, s.buffer_bound)
        {
            out.push(diag(
                Severity::Error,
                RuleId::BufferSufficiency,
                s.name.clone(),
                format!(
                    "line-buffer high-water mark {hwm} exceeds the full-buffering \
                     bound {bound}"
                ),
                "the SST bound no longer covers this geometry; re-derive it",
            ));
        }
    }
    for f in &report.fifos {
        if !f.within {
            out.push(diag(
                Severity::Error,
                RuleId::BufferSufficiency,
                format!("fifo {}", f.channel),
                format!(
                    "occupancy high-water mark {} exceeds capacity {}",
                    f.hwm, f.capacity
                ),
                "a FIFO overflowed its declared capacity; check the channel model",
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{LayerPorts, PortConfig};
    use dfcnn_nn::topology::NetworkSpec;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn tc1_network() -> Network {
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        NetworkSpec::test_case_1().build(&mut rng)
    }

    fn tc1_design(config: DesignConfig) -> NetworkDesign {
        NetworkDesign::new(&tc1_network(), PortConfig::paper_test_case_1(), config).unwrap()
    }

    #[test]
    fn paper_design_is_clean() {
        let report = check_design(&tc1_design(DesignConfig::default()));
        assert!(report.is_clean(), "{}", report.render());
        assert!(report.warnings().is_empty(), "{}", report.render());
    }

    #[test]
    fn tampered_ii_is_caught_with_the_core_name() {
        let mut d = tc1_design(DesignConfig::default());
        d.cores_mut()[0].params.ii += 3;
        let report = check_design(&d);
        assert!(report.has(Severity::Error, RuleId::IiConsistency));
        let errs = report.errors();
        assert!(
            errs.iter().any(|e| e.core == "conv1"),
            "{}",
            report.render()
        );
    }

    #[test]
    fn tampered_volume_breaks_rate_conservation() {
        let mut d = tc1_design(DesignConfig::default());
        // pool1 claims to consume fewer values than conv1 produces
        d.cores_mut()[1].in_values_per_image -= 1;
        let report = check_design(&d);
        assert!(report.has(Severity::Error, RuleId::RateConservation));
        assert!(
            report.errors().iter().any(|e| e.core.contains("pool1")),
            "{}",
            report.render()
        );
    }

    #[test]
    fn undersized_line_buffer_is_an_error_oversized_a_warning() {
        let under = DesignConfig {
            line_buffer_cap: Some(4),
            ..DesignConfig::default()
        };
        let report = check_design(&tc1_design(under));
        assert!(report.has(Severity::Error, RuleId::BufferSufficiency));
        // TC1 conv1 bound: (5-1)*16 + 5 = 69 per port; 1000 over-provisions
        // every windowed core without breaking any
        let over = DesignConfig {
            line_buffer_cap: Some(1000),
            ..DesignConfig::default()
        };
        let report = check_design(&tc1_design(over));
        assert!(report.is_clean(), "{}", report.render());
        assert!(report.has(Severity::Warning, RuleId::BufferSufficiency));
    }

    #[test]
    fn omitted_adapter_breaks_rate_conservation() {
        // conv1 emits 2 ports, pool1 reads 1: needs a widen adapter
        let ports = PortConfig {
            layers: vec![
                LayerPorts {
                    in_ports: 1,
                    out_ports: 2,
                },
                LayerPorts::SINGLE,
                LayerPorts::SINGLE,
                LayerPorts::SINGLE,
            ],
        };
        let config = DesignConfig {
            omit_adapters: true,
            ..DesignConfig::default()
        };
        let d = NetworkDesign::new(&tc1_network(), ports.clone(), config).unwrap();
        let report = check_design(&d);
        assert!(report.has(Severity::Error, RuleId::RateConservation));
        assert!(
            report
                .errors()
                .iter()
                .any(|e| e.message.contains("port(s)")),
            "{}",
            report.render()
        );
        // the same ports with adapters inserted are clean
        let healthy = NetworkDesign::new(&tc1_network(), ports, DesignConfig::default()).unwrap();
        assert!(check_design(&healthy).is_clean());
    }

    #[test]
    fn fifo_depth_bounds() {
        let zero = DesignConfig {
            inter_fifo_depth: 0,
            ..DesignConfig::default()
        };
        let report = check_design(&tc1_design(zero));
        assert!(report.has(Severity::Error, RuleId::BufferSufficiency));
        let deep = DesignConfig {
            inter_fifo_depth: 512,
            ..DesignConfig::default()
        };
        let report = check_design(&tc1_design(deep));
        assert!(report.is_clean());
        assert!(report.has(Severity::Warning, RuleId::BufferSufficiency));
    }

    #[test]
    fn check_network_names_the_offending_core() {
        let mut ports = PortConfig::single_port(4);
        ports.layers[0].out_ports = 4; // 6 FMs not divisible by 4
        let report = check_network(&tc1_network(), &ports, &DesignConfig::default());
        assert!(report.has(Severity::Error, RuleId::PortLegality));
        let errs = report.errors();
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].core, "conv1");
        assert!(errs[0].message.contains("does not divide"));
        // wrong entry count short-circuits
        let report = check_network(
            &tc1_network(),
            &PortConfig::single_port(3),
            &DesignConfig::default(),
        );
        assert!(report.has(Severity::Error, RuleId::PortLegality));
    }

    #[test]
    fn replication_plan_rules() {
        assert!(check_replication(&ReplicationPlan::uniform(5), 5).is_empty());
        let bad_len = ReplicationPlan {
            factors: vec![1, 1],
        };
        let diags = check_replication(&bad_len, 5);
        assert!(diags
            .iter()
            .any(|d| d.severity == Severity::Error && d.rule == RuleId::ReplicationSoundness));
        let zero = ReplicationPlan {
            factors: vec![1, 0, 1],
        };
        let diags = check_replication(&zero, 3);
        assert!(diags.iter().any(|d| d.severity == Severity::Error));
        let oversub = ReplicationPlan {
            factors: vec![1, 9, 1],
        };
        let diags = check_replication(&oversub, 3);
        assert!(diags.iter().all(|d| d.severity == Severity::Warning));
    }

    #[test]
    fn residual_graph_is_clean() {
        let d = crate::graph::fixtures::residual_graph(DesignConfig::default());
        let report = check_design(&d);
        assert!(report.is_clean(), "{}", report.render());
    }

    fn inception_design() -> NetworkDesign {
        use dfcnn_nn::topology::GraphSpec;
        let spec = GraphSpec::inception_cell();
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let layers = spec.build_layers(&mut rng);
        let ports = PortConfig::single_port(spec.paper_depth());
        crate::graph::build_graph_design(&spec, &layers, &ports, DesignConfig::default()).unwrap()
    }

    #[test]
    fn concat_design_is_clean_despite_asymmetric_operands() {
        // a concat's two in-edges carry *different* volumes; the per-edge
        // in_edge_volumes hook must keep the even-split rule from firing
        let report = check_design(&inception_design());
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn tampered_concat_volume_breaks_rate_conservation() {
        let mut d = inception_design();
        let idx = d
            .cores()
            .iter()
            .position(|c| c.name.starts_with("concat"))
            .unwrap();
        // the recorded operand edges no longer sum to the core's volume,
        // so the model falls back to an even split and the edges mismatch
        d.cores_mut()[idx].in_values_per_image -= 2;
        let report = check_design(&d);
        assert!(
            report.has(Severity::Error, RuleId::RateConservation),
            "{}",
            report.render()
        );
    }

    #[test]
    fn clamped_skip_fifo_breaks_reconvergence_buffering() {
        let d = crate::graph::fixtures::residual_graph(DesignConfig {
            skip_fifo_cap: Some(2),
            ..DesignConfig::default()
        });
        let report = check_design(&d);
        assert!(report.has(Severity::Error, RuleId::ReconvergenceBuffering));
        let errs = report.errors();
        assert!(
            errs.iter()
                .any(|e| e.core == "fork1\u{2192}add4" && e.message.contains("deadlock")),
            "{}",
            report.render()
        );
        assert!(
            report.render().contains("error[reconvergence-buffering]"),
            "{}",
            report.render()
        );
        // chains never trip the rule (no fork/join to pair up)
        let chain = check_design(&tc1_design(DesignConfig::default()));
        assert!(!chain.has(Severity::Error, RuleId::ReconvergenceBuffering));
    }

    #[test]
    fn diagnostics_render_with_rule_ids() {
        let mut d = tc1_design(DesignConfig::default());
        d.cores_mut()[0].params.ii = 99;
        let report = check_design(&d);
        let text = report.render();
        assert!(text.contains("error[ii-consistency] conv1"), "{text}");
        assert!(text.contains("fix:"), "{text}");
        assert!(!report.is_clean());
    }
}
