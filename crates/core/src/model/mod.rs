//! The per-kind [`CoreModel`] abstraction — one definition per kind,
//! N consumers.
//!
//! The paper's central claim is modularity: "each layer is implemented as
//! an independent module" (§IV), so a network is just a chain of
//! instantiated cores. This module makes the codebase match that claim
//! structurally: everything the rest of the system needs to know about a
//! core kind — the Eq. 4 initiation interval, hardware-order compute,
//! cycle-actor construction, HLS C++ emission and display labels — lives
//! in one [`CoreModel`] implementation per kind ([`conv`], [`pool`],
//! [`fc`], [`adapter`], [`logsoftmax`], [`scaleshift`], [`fork`],
//! [`eltwise`], [`concat`](mod@concat)). The five kinds a network layer
//! backs (conv, pool, FC, scale-shift, log-softmax) also implement
//! [`LayerModel`]: geometry propagation, validation rules and the
//! [`CorePlan`]. The structural kinds (the adapters, fork, add and
//! concat) are planned from the graph and have no layer hooks.
//!
//! Every kind's actor is one of three shells, one per streaming pattern,
//! and the kind's part of it is also its host stage: conv and pool wrap
//! their compute body in [`windowed`]'s SST-fed core (their host stage is
//! the whole-image kernel); FC and log-softmax wrap theirs in [`gather`]'s
//! accumulate/drain core, and the body is the host [`StageWorker`]; the
//! adapters, scale-shift, fork, eltwise add and concat supply a route to
//! the [`crate::port::Router`], which moves values in strict global FM
//! order, and the add, concat and scale-shift run that same route over
//! whole tensors as their host stage ([`crate::port::RouteStage`]).
//!
//! The consumers (`graph`, `sim`, `exec`, `verify`, `codegen`, `dse`,
//! `multi`, `flow`) contain **zero per-kind dispatch**; a CI grep-lint
//! (`scripts/lint.sh`) keeps it that way. Adding a layer kind is
//! one new module here plus a `CoreKind` variant and cost-model arm in
//! `dfcnn-fpga` — see DESIGN.md §2d and the README recipe.
//!
//! The proof the abstraction is real: the on-fabric log-softmax
//! normalisation core ([`logsoftmax`]), opt-in via
//! [`DesignConfig::fabric_normalization`], was added entirely inside this
//! module without touching any consumer.

pub mod adapter;
pub mod concat;
pub mod conv;
pub mod eltwise;
pub mod fc;
pub mod fork;
pub mod gather;
pub mod logsoftmax;
pub mod pool;
pub mod scaleshift;
pub mod windowed;

use crate::graph::{CoreInfo, DesignConfig, LayerPorts, NetworkDesign, StageInput};
use crate::range::{Interval, Quantiser, Transfer};
use crate::sim::Actor;
use crate::stream::ChannelId;
use dfcnn_fpga::resources::{CoreKind, CoreParams};
use dfcnn_hls::ii::divisor_port_options;
use dfcnn_nn::layer::Layer;
use dfcnn_nn::Network;
use dfcnn_tensor::{Shape3, Tensor3};

/// Line-buffer facts of a windowed core, for the static checker's buffer
/// sufficiency rule: the capacity the design will instantiate per port and
/// the SST full-buffering bound ([`crate::sst::full_buffer_bound_per_port`])
/// it must meet for the window sweep to stream without deadlock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LineBufferSpec {
    /// Per-port capacity the design instantiates (the bound, unless
    /// [`DesignConfig::line_buffer_cap`] overrides it).
    pub capacity_per_port: usize,
    /// The SST full-buffering bound per port.
    pub required_per_port: usize,
}

/// Statically-derivable facts about one instantiated core, recomputed from
/// geometry by [`CoreModel::static_profile`] for the [`crate::check`]
/// verifier — independent of the values stored in
/// [`crate::graph::CoreInfo`], so tampered or inconsistent designs are
/// detectable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StaticProfile {
    /// Values leaving the core per image (across all output ports).
    pub out_values_per_image: u64,
    /// The Eq. 4 initiation interval recomputed from the layer geometry
    /// and port choice (1 for adapters, which forward at line rate).
    pub expected_ii: usize,
    /// Line-buffer capacity vs the SST bound, for windowed kinds.
    pub line_buffer: Option<LineBufferSpec>,
}

/// Everything [`crate::graph::GraphBuilder::layer`] derives for one core of
/// a kind.
#[derive(Clone, Debug)]
pub struct CorePlan {
    /// The cost-model / simulator parameters (including the Eq. 4 II).
    pub params: CoreParams,
    /// Values entering the core per image (across all input ports).
    pub in_values_per_image: u64,
    /// Window positions per image (0 for FC-like cores and adapters).
    pub positions: u64,
}

/// One host pipeline stage's allocation-free compute: the hardware-order
/// forward of one image. Each worker thread owns its own instance, so
/// replicated stages never contend on scratch state.
pub trait StageWorker: Send {
    /// Forward one image through the stage, given its input operands in
    /// core input-edge order: one, or two for the joins (no allocation at
    /// steady state).
    fn apply_multi(&mut self, inputs: &[&Tensor3<f32>], out: &mut Tensor3<f32>);
}

/// One stage of the host pipeline ([`crate::exec::ThreadedEngine`] and
/// [`NetworkDesign::hw_forward`]): a name, the output geometry, and a
/// factory producing per-worker [`StageWorker`]s.
pub struct StageSpec {
    /// Stage name (`conv1`, `flatten`, `logsoftmax1`, …).
    pub name: String,
    /// Output volume shape of the stage.
    pub out_shape: Shape3,
    factory: Box<dyn Fn() -> Box<dyn StageWorker> + Send + Sync>,
}

impl StageSpec {
    /// Build a stage from its worker factory.
    pub fn new(
        name: String,
        out_shape: Shape3,
        factory: impl Fn() -> Box<dyn StageWorker> + Send + Sync + 'static,
    ) -> Self {
        StageSpec {
            name,
            out_shape,
            factory: Box::new(factory),
        }
    }

    /// Create a fresh worker (own scratch arena) for this stage.
    pub fn make_worker(&self) -> Box<dyn StageWorker> {
        (self.factory)()
    }
}

impl std::fmt::Debug for StageSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StageSpec")
            .field("name", &self.name)
            .field("out_shape", &self.out_shape)
            .finish()
    }
}

/// The single definition of a core kind: what every core has, whether or
/// not a network layer backs it. Implementations are stateless; consumers
/// reach them through [`model_for`] / [`paper_layer_model`] and never
/// match on [`CoreKind`] themselves.
pub trait CoreModel: Sync {
    /// The [`CoreKind`] this model owns.
    fn kind(&self) -> CoreKind;

    /// Core-name prefix (`"conv"`, `"pool"`, `"fc"`, …); instances are
    /// numbered `conv1`, `conv2`, … in pipeline order.
    fn label(&self) -> &'static str;

    /// Analytical steady-state stage interval in cycles per image. The
    /// default is one Eq. 4 initiation per pixel position, right for the
    /// line-rate streaming kinds (scale-shift, the joins).
    fn estimate_interval(&self, core: &CoreInfo, _config: &DesignConfig) -> u64 {
        core.positions * core.params.ii as u64
    }

    /// Recompute this core's statically-checkable facts from the layer
    /// geometry (not from the possibly-stale values in `core`): per-image
    /// output volume, the Eq. 4 II, and — for windowed kinds — the line
    /// buffer capacity vs the SST full-buffering bound. The default covers
    /// rate-transparent kinds (adapters, scale-shift, normalisation):
    /// output volume equals input volume, no line buffer, and the II
    /// re-derived by the layer's [`LayerModel::plan`] for layer-backed
    /// cores (fixed at 1 otherwise).
    fn static_profile(&self, design: &NetworkDesign, core: &CoreInfo) -> StaticProfile {
        let lp = LayerPorts {
            in_ports: core.params.in_ports,
            out_ports: core.params.out_ports,
        };
        let layer = core.layer_index.map(|idx| &design.network().layers()[idx]);
        let expected_ii = layer
            .and_then(|l| layer_model(l).map(|m| m.plan(l, lp, design.config()).params.ii))
            .unwrap_or(1);
        StaticProfile {
            out_values_per_image: core.in_values_per_image,
            expected_ii,
            line_buffer: None,
        }
    }

    /// Abstract-interpretation transfer function for the value-range
    /// analyzer ([`crate::range`]): given sound interval bounds on each of
    /// this core's input streams (in design edge order), return sound
    /// bounds on its output stream, its widest pre-saturation intermediate
    /// and its worst-case accumulator magnitude, its constants quantised by
    /// `quantiser` (the engines' own). The default is the routing identity
    /// (output = union of inputs), right for kinds that forward values
    /// verbatim (ports, fork, concat); every other kind must override.
    fn range_transfer(
        &self,
        _design: &NetworkDesign,
        _core: &CoreInfo,
        _quantiser: Quantiser,
        inputs: &[Interval],
    ) -> Transfer {
        Transfer::identity(inputs)
    }

    /// Fig. 4/5-style block label, e.g. `[conv1 5x5 1->6FM in:1 out:6 II=1]`.
    fn block_label(&self, core: &CoreInfo) -> String;

    /// Build the cycle-simulator actor for one instantiated core.
    fn make_actor(
        &self,
        design: &NetworkDesign,
        core: &CoreInfo,
        in_chs: Vec<ChannelId>,
        out_chs: Vec<ChannelId>,
    ) -> Box<dyn Actor>;

    /// Emit the Vivado HLS C++ translation unit for core `idx` of the
    /// design.
    fn emit_cpp(&self, design: &NetworkDesign, idx: usize) -> String;

    /// The host pipeline stage of one core, named after the core, given
    /// the shapes of its input operands (in core input-edge order).
    /// Layer-backed kinds read their layer through
    /// [`CoreInfo::layer_index`]; the joins derive their output from the
    /// operand shapes. The default is `None`, for kinds that are pure port
    /// plumbing with no image-level effect (adapters, fork).
    fn stage(
        &self,
        _design: &NetworkDesign,
        _core: &CoreInfo,
        _in_shapes: &[Shape3],
    ) -> Option<StageSpec> {
        None
    }

    /// How many input channels the instantiated actor consumes. The
    /// default is one channel per input port; two-operand joins (the
    /// eltwise-add and concat cores) read a full port group per operand
    /// and override.
    fn input_channel_count(&self, core: &CoreInfo) -> usize {
        core.params.in_ports
    }

    /// Expected per-image value volume on each of this core's input edges,
    /// in edge order — what the static checker's rate-conservation rule
    /// holds each producer to. The default splits the core's total input
    /// volume evenly over its in-degree, which is exact for every
    /// symmetric kind (a fork's branches and an add join's operands carry
    /// equal volumes); the concat join, whose operands each carry their
    /// own FM count, overrides.
    fn in_edge_volumes(
        &self,
        _design: &NetworkDesign,
        core: &CoreInfo,
        in_degree: usize,
    ) -> Vec<u64> {
        vec![core.in_values_per_image / in_degree.max(1) as u64; in_degree]
    }

    /// Reference-numerics forward of one core of a design (the
    /// independent check the conformance suite compares the engines
    /// against). Layer-backed cores run their network layer's forward;
    /// plumbing kinds return `None`; multi-input kinds override.
    fn reference_apply(
        &self,
        design: &NetworkDesign,
        core: &CoreInfo,
        inputs: &[&Tensor3<f32>],
    ) -> Option<Tensor3<f32>> {
        core.layer_index
            .map(|idx| design.network().layers()[idx].forward(inputs[0]))
    }
}

/// The planning half of a kind that a network layer backs (conv, pool,
/// FC, scale-shift and the normalisation core): how the graph builder,
/// the DSE and the port checker turn a layer and a port choice into a
/// core. Structural kinds (adapters, fork, the joins) are planned from
/// the graph itself and implement only [`CoreModel`]. Reached through
/// [`paper_layer_model`] and [`normalization_model`].
pub trait LayerModel: CoreModel {
    /// `(IN_FM, OUT_FM)` of a layer of this kind.
    ///
    /// # Panics
    /// If `layer` is not the variant this model owns.
    fn feature_maps(&self, layer: &Layer) -> (usize, usize);

    /// Whether the kind is restricted to single-input-port /
    /// single-output-port (§IV-B's FC rule).
    fn forces_single_port(&self) -> bool {
        false
    }

    /// Validate a port choice for this kind. The default enforces the
    /// common rules (non-zero ports, ports divide FM counts); kinds with
    /// extra constraints override and layer their own checks first.
    fn validate(&self, name: &str, layer: &Layer, lp: LayerPorts) -> Result<(), String> {
        let (in_fm, out_fm) = self.feature_maps(layer);
        validate_ports(name, in_fm, out_fm, lp)
    }

    /// Derive the core's parameters (Eq. 4 II, weight count, accumulator
    /// banks) and per-image stream volume.
    fn plan(&self, layer: &Layer, lp: LayerPorts, config: &DesignConfig) -> CorePlan;

    /// Candidate `OUT_PORTS` values for design-space exploration: divisors
    /// of `OUT_FM` up to `max_ports` (single-port kinds are fixed at 1).
    fn out_port_options(&self, layer: &Layer, max_ports: usize) -> Vec<usize> {
        if self.forces_single_port() {
            return vec![1];
        }
        divisor_port_options(self.feature_maps(layer).1)
            .into_iter()
            .filter(|&p| p <= max_ports)
            .collect()
    }
}

/// The §IV-A port rules shared by every kind: ports are non-zero and
/// divide the FM counts (the FM-interleaving schedule needs exact
/// round-robin groups).
pub(crate) fn validate_ports(
    name: &str,
    in_fm: usize,
    out_fm: usize,
    lp: LayerPorts,
) -> Result<(), String> {
    if lp.in_ports == 0 || lp.out_ports == 0 {
        return Err(format!("{name}: port counts must be non-zero"));
    }
    if !in_fm.is_multiple_of(lp.in_ports) {
        return Err(format!(
            "{name}: IN_PORTS {} does not divide IN_FM {in_fm}",
            lp.in_ports
        ));
    }
    if !out_fm.is_multiple_of(lp.out_ports) {
        return Err(format!(
            "{name}: OUT_PORTS {} does not divide OUT_FM {out_fm}",
            lp.out_ports
        ));
    }
    Ok(())
}

static CONV_MODEL: conv::ConvModel = conv::ConvModel;
static POOL_MODEL: pool::PoolModel = pool::PoolModel;
static FC_MODEL: fc::FcModel = fc::FcModel;
static DEMUX_MODEL: adapter::AdapterModel = adapter::AdapterModel::DEMUX;
static WIDEN_MODEL: adapter::AdapterModel = adapter::AdapterModel::WIDEN;
static LOGSOFTMAX_MODEL: logsoftmax::LogSoftmaxModel = logsoftmax::LogSoftmaxModel;
static FORK_MODEL: fork::ForkModel = fork::ForkModel;
static ELTWISE_MODEL: eltwise::EltwiseAddModel = eltwise::EltwiseAddModel;
static SCALESHIFT_MODEL: scaleshift::ScaleShiftModel = scaleshift::ScaleShiftModel;
static CONCAT_MODEL: concat::ConcatJoinModel = concat::ConcatJoinModel;

/// The model owning a [`CoreKind`] — the single dispatch point every
/// consumer goes through.
pub fn model_for(kind: CoreKind) -> &'static dyn CoreModel {
    match kind {
        CoreKind::Conv => &CONV_MODEL,
        CoreKind::Pool => &POOL_MODEL,
        CoreKind::Fc => &FC_MODEL,
        CoreKind::Demux => &DEMUX_MODEL,
        CoreKind::Widen => &WIDEN_MODEL,
        CoreKind::LogSoftmax => &LOGSOFTMAX_MODEL,
        CoreKind::Fork => &FORK_MODEL,
        CoreKind::EltwiseAdd => &ELTWISE_MODEL,
        CoreKind::ScaleShift => &SCALESHIFT_MODEL,
        CoreKind::ConcatJoin => &CONCAT_MODEL,
    }
}

/// The model implementing a *paper layer* (conv/pool/linear — the layers
/// that carry a [`LayerPorts`] entry), or `None` for flatten and the
/// normalisation operator.
pub fn paper_layer_model(layer: &Layer) -> Option<&'static dyn LayerModel> {
    match layer {
        Layer::Conv(_) => Some(&CONV_MODEL),
        Layer::Pool(_) => Some(&POOL_MODEL),
        Layer::Linear(_) => Some(&FC_MODEL),
        Layer::ScaleShift(_) => Some(&SCALESHIFT_MODEL),
        Layer::Flatten(_) | Layer::LogSoftmax(_) => None,
    }
}

/// Whether a layer is the normalisation operator (host-side by default,
/// on-fabric when [`DesignConfig::fabric_normalization`] is set).
pub fn is_normalization(layer: &Layer) -> bool {
    matches!(layer, Layer::LogSoftmax(_))
}

/// The model of the on-fabric normalisation core.
pub fn normalization_model() -> &'static dyn LayerModel {
    &LOGSOFTMAX_MODEL
}

/// Number of paper layers (the [`crate::graph::PortConfig`] entry count).
pub fn paper_layer_count(network: &Network) -> usize {
    network
        .layers()
        .iter()
        .filter(|l| paper_layer_model(l).is_some())
        .count()
}

/// The model of any layer a core can be backed by: a paper layer's, or
/// the normalisation core's (`None` for flatten).
fn layer_model(layer: &Layer) -> Option<&'static dyn LayerModel> {
    paper_layer_model(layer).or_else(|| is_normalization(layer).then(normalization_model))
}

/// Numbered core names per label: `conv1`, `conv2`, `pool1`, … in
/// first-seen label order.
pub(crate) fn next_name(counts: &mut Vec<(&'static str, usize)>, label: &'static str) -> String {
    for (l, n) in counts.iter_mut() {
        if *l == label {
            *n += 1;
            return format!("{label}{n}");
        }
    }
    counts.push((label, 1));
    format!("{label}1")
}

struct FlattenWorker;

impl StageWorker for FlattenWorker {
    fn apply_multi(&mut self, inputs: &[&Tensor3<f32>], out: &mut Tensor3<f32>) {
        // a pure reshape: stream order is already (y, x, c)
        out.as_mut_slice().copy_from_slice(inputs[0].as_slice());
    }
}

/// One stage of the host pipeline together with where its input operands
/// come from. In a chain every stage reads the one before it.
#[derive(Debug)]
pub struct HostStage {
    /// The stage's name, output geometry and worker factory.
    pub spec: StageSpec,
    /// The stage's input operands, in core input-edge order.
    pub inputs: Vec<StageInput>,
}

/// The host pipeline of a design as [`HostStage`]s: one stage per node
/// of [`NetworkDesign::stage_topo`], in topological order, each core's
/// stage resolved via [`CoreModel::stage`]. Consumed by
/// [`crate::exec::ThreadedEngine`] and [`NetworkDesign::hw_forward`],
/// which therefore stay bit-identical.
pub fn host_pipeline(design: &NetworkDesign) -> Vec<HostStage> {
    let topo = design.stage_topo();
    let input_shape = design.network().input_shape();
    let mut shapes: Vec<Shape3> = Vec::with_capacity(topo.len());
    let mut stages = Vec::with_capacity(topo.len());
    for node in topo {
        let in_shapes: Vec<Shape3> = node
            .inputs
            .iter()
            .map(|si| *si.pick(&input_shape, &shapes))
            .collect();
        let spec = match node.core {
            Some(ci) => {
                let core = &design.cores()[ci];
                model_for(core.params.kind)
                    .stage(design, core, &in_shapes)
                    .expect("stage nodes always map to a host stage")
            }
            None => {
                // flatten — the only core-less stage node
                let flat = Shape3::new(1, 1, in_shapes[0].len());
                StageSpec::new(node.name.clone(), flat, || Box::new(FlattenWorker))
            }
        };
        shapes.push(spec.out_shape);
        stages.push(HostStage {
            spec,
            inputs: node.inputs.clone(),
        });
    }
    stages
}

/// Reference-numerics forward pass of a design: every stage of
/// [`NetworkDesign::stage_topo`] evaluated with the network layers' own
/// forward (left-to-right summation etc.), independent of the
/// hardware-order kernels — the tolerance baseline the conformance suite
/// compares all three engines against. It ends at the values the sink
/// collects.
pub fn reference_forward(design: &NetworkDesign, input: &Tensor3<f32>) -> Tensor3<f32> {
    let topo = design.stage_topo();
    let mut outs: Vec<Tensor3<f32>> = Vec::with_capacity(topo.len());
    for node in topo {
        let ins: Vec<&Tensor3<f32>> = node.inputs.iter().map(|si| si.pick(input, &outs)).collect();
        let out = match node.core {
            Some(ci) => {
                let core = &design.cores()[ci];
                model_for(core.params.kind)
                    .reference_apply(design, core, &ins)
                    .expect("stage nodes have a reference map")
            }
            None => {
                let flat = Shape3::new(1, 1, ins[0].shape().len());
                Tensor3::from_vec(flat, ins[0].as_slice().to_vec())
            }
        };
        outs.push(out);
    }
    outs.pop().expect("design has stages")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{DesignConfig, NetworkDesign, NodeRef, PortConfig};
    use crate::stream::ChannelSet;
    use dfcnn_nn::topology::NetworkSpec;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn tc1_design() -> NetworkDesign {
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let net = NetworkSpec::test_case_1().build(&mut rng);
        NetworkDesign::new(
            &net,
            PortConfig::paper_test_case_1(),
            DesignConfig::default(),
        )
        .unwrap()
    }

    /// TC1 with the paper's ports, the residual fixture, the Inception
    /// cell and the port-mismatch fixture (demux, widen, fabric
    /// log-softmax): between them, every core kind.
    fn every_kind_designs() -> Vec<NetworkDesign> {
        use crate::graph::{build_graph_design, fixtures::residual_graph};
        use dfcnn_nn::act::Activation;
        use dfcnn_nn::layer::PoolKind;
        use dfcnn_nn::topology::{GraphSpec, LayerSpec};
        use dfcnn_tensor::Shape3;

        let mut rng = ChaCha8Rng::seed_from_u64(80);
        let spec = GraphSpec {
            input: Shape3::new(4, 4, 3),
            ..GraphSpec::inception_cell()
        };
        let layers = spec.build_layers(&mut rng);
        let ports = PortConfig::single_port(spec.paper_depth());
        let inception = build_graph_design(&spec, &layers, &ports, DesignConfig::default());

        let spec = NetworkSpec {
            name: "adapters".into(),
            input: Shape3::new(6, 6, 1),
            layers: vec![
                LayerSpec::Conv {
                    kh: 3,
                    kw: 3,
                    out_maps: 2,
                    stride: 1,
                    pad: 0,
                    activation: Activation::Tanh,
                },
                LayerSpec::Pool {
                    kh: 2,
                    kw: 2,
                    stride: 2,
                    kind: PoolKind::Max,
                },
                LayerSpec::Flatten,
                LayerSpec::Linear {
                    outputs: 3,
                    activation: Activation::Identity,
                },
                LayerSpec::LogSoftmax,
            ],
        };
        let two = LayerPorts {
            in_ports: 2,
            out_ports: 2,
        };
        let ports = PortConfig {
            layers: vec![LayerPorts::SINGLE, two, LayerPorts::SINGLE],
        };
        let config = DesignConfig {
            fabric_normalization: true,
            ..DesignConfig::default()
        };
        let adapters = NetworkDesign::new(&spec.build(&mut rng), ports, config);
        vec![
            tc1_design(),
            residual_graph(DesignConfig::default()),
            inception.unwrap(),
            adapters.unwrap(),
        ]
    }

    #[test]
    fn registry_is_total_and_consistent() {
        let all = [
            CoreKind::Conv,
            CoreKind::Pool,
            CoreKind::Fc,
            CoreKind::Demux,
            CoreKind::Widen,
            CoreKind::LogSoftmax,
            CoreKind::Fork,
            CoreKind::EltwiseAdd,
            CoreKind::ScaleShift,
            CoreKind::ConcatJoin,
        ];
        for kind in all {
            let m = model_for(kind);
            assert_eq!(m.kind(), kind, "model registered under the wrong kind");
            assert!(!m.label().is_empty());
        }
        // every hook of every core runs, and only the plumbing kinds have
        // no host stage
        let mut seen = Vec::new();
        for design in every_kind_designs() {
            let staged: Vec<String> = host_pipeline(&design)
                .into_iter()
                .map(|s| s.spec.name)
                .collect();
            for (idx, core) in design.cores().iter().enumerate() {
                let m = model_for(core.params.kind);
                assert!(core.name.starts_with(m.label()), "{}", core.name);
                m.estimate_interval(core, design.config());
                m.static_profile(&design, core);
                assert!(m.block_label(core).contains(&core.name));
                assert!(m.emit_cpp(&design, idx).contains(&core.name));
                let in_edges: Vec<_> = design
                    .edges()
                    .iter()
                    .filter(|e| e.to == NodeRef::Core(idx))
                    .collect();
                let volumes = m.in_edge_volumes(&design, core, in_edges.len());
                assert_eq!(volumes.len(), in_edges.len());
                let out_ports: usize = design
                    .edges()
                    .iter()
                    .filter(|e| e.from == NodeRef::Core(idx))
                    .map(|e| e.ports)
                    .sum();
                let mut chans = ChannelSet::new();
                let ins = (0..m.input_channel_count(core))
                    .map(|_| chans.alloc(1))
                    .collect();
                let outs = (0..out_ports).map(|_| chans.alloc(1)).collect();
                assert_eq!(m.make_actor(&design, core, ins, outs).name(), core.name);
                if !staged.contains(&core.name) {
                    assert!(m.stage(&design, core, &[]).is_none(), "{}", core.name);
                }
                seen.push(core.params.kind);
            }
        }
        for kind in all {
            assert!(seen.contains(&kind), "no fixture core of kind {kind:?}");
        }
    }

    #[test]
    fn paper_layer_models_cover_the_port_carrying_layers() {
        let design = tc1_design();
        let models: Vec<_> = design
            .network()
            .layers()
            .iter()
            .filter_map(paper_layer_model)
            .map(|m| m.label())
            .collect();
        assert_eq!(models, vec!["conv", "pool", "conv", "fc"]);
        assert_eq!(paper_layer_count(design.network()), 4);
    }

    #[test]
    fn stage_names_and_shapes_chain() {
        let design = tc1_design();
        let stages: Vec<_> = host_pipeline(&design).into_iter().map(|s| s.spec).collect();
        let names: Vec<_> = stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["conv1", "pool1", "conv2", "flatten", "fc1"]);
        // flatten preserves the element count, fc ends at the classes
        assert_eq!(stages[2].out_shape.len(), stages[3].out_shape.len());
        assert_eq!(stages.last().unwrap().out_shape.len(), 10);
    }

    #[test]
    fn next_name_numbers_per_label() {
        let mut counts = Vec::new();
        assert_eq!(next_name(&mut counts, "conv"), "conv1");
        assert_eq!(next_name(&mut counts, "pool"), "pool1");
        assert_eq!(next_name(&mut counts, "conv"), "conv2");
        assert_eq!(next_name(&mut counts, "fc"), "fc1");
    }

    #[test]
    fn validate_ports_rules() {
        let name = "x";
        assert!(validate_ports(name, 6, 6, LayerPorts::SINGLE).is_ok());
        let err = validate_ports(
            name,
            6,
            6,
            LayerPorts {
                in_ports: 0,
                out_ports: 1,
            },
        )
        .unwrap_err();
        assert!(err.contains("non-zero"));
        let err = validate_ports(
            name,
            6,
            6,
            LayerPorts {
                in_ports: 4,
                out_ports: 1,
            },
        )
        .unwrap_err();
        assert!(err.contains("does not divide IN_FM"));
        let err = validate_ports(
            name,
            6,
            6,
            LayerPorts {
                in_ports: 1,
                out_ports: 4,
            },
        )
        .unwrap_err();
        assert!(err.contains("does not divide OUT_FM"));
    }
}
