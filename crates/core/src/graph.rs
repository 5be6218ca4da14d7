//! Network design construction (§IV-C).
//!
//! "The design of an entire network starts from the choice of the
//! parameters to set for each module" — here, a [`PortConfig`] assigning
//! `IN_PORTS`/`OUT_PORTS` to every paper layer (conv, pool, linear) of a
//! trained [`dfcnn_nn::Network`]. [`NetworkDesign::new`] validates the
//! choice, computes every core's Eq. 4 initiation interval, sizes the
//! FIFOs, inserts demux/widen adapters at port-width mismatches, and
//! records the [`dfcnn_fpga::CoreParams`] that drive the resource model.
//!
//! From one design you can then:
//! - [`NetworkDesign::instantiate`] a cycle simulator for a batch,
//! - estimate per-stage intervals analytically,
//! - total the resource usage (Table I),
//! - render a Fig. 4/5-style block diagram,
//! - run the hardware-order forward pass on the host
//!   ([`NetworkDesign::hw_forward`]).
//!
//! Two presets reproduce the paper's designs: test case 1 with the first
//! conv and pool fully parallelised (Fig. 4) and test case 2 entirely
//! single-port (Fig. 5). The final LogSoftMax operator runs on the host
//! by default (the hardware designs of Figs. 4/5 end at the last linear
//! layer), so the sink collects the classifier scores; setting
//! [`DesignConfig::fabric_normalization`] appends the on-fabric
//! normalisation core instead and the sink collects log-probabilities.
//!
//! All per-layer-kind knowledge (validation, Eq. 4 II, actors, compute,
//! labels) comes from the [`crate::model`] registry — this module only
//! walks the chain.

use crate::endpoints::{Sink, SinkState, Source};
use crate::model;
use crate::sim::{Actor, Simulator};
use crate::stream::ChannelSet;
use dfcnn_fpga::dma::{DmaChannel, DmaConfig};
use dfcnn_fpga::resources::{CoreParams, CostModel, Resources};
use dfcnn_hls::latency::OpLatency;
use dfcnn_nn::layer::Layer;
use dfcnn_nn::topology::{GraphOp, GraphSpec, JoinKind};
use dfcnn_nn::Network;
use dfcnn_tensor::{NumericSpec, Shape3, Tensor3};
use serde::{Deserialize, Serialize};

/// Port counts of one paper layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerPorts {
    /// `IN_PORTS`.
    pub in_ports: usize,
    /// `OUT_PORTS`.
    pub out_ports: usize,
}

impl LayerPorts {
    /// Single-input-port / single-output-port.
    pub const SINGLE: LayerPorts = LayerPorts {
        in_ports: 1,
        out_ports: 1,
    };
}

/// Port assignment for every paper layer (conv/pool/linear, in network
/// order; flatten and logsoftmax carry no ports).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PortConfig {
    /// One entry per paper layer.
    pub layers: Vec<LayerPorts>,
}

impl PortConfig {
    /// All layers single-port.
    pub fn single_port(paper_layers: usize) -> Self {
        PortConfig {
            layers: vec![LayerPorts::SINGLE; paper_layers],
        }
    }

    /// The paper's Test Case 1 design (Fig. 4): conv1 and pool1 fully
    /// parallel (6 ports), conv2 reading 6 ports and emitting 1, FC
    /// single-port.
    pub fn paper_test_case_1() -> Self {
        PortConfig {
            layers: vec![
                LayerPorts {
                    in_ports: 1,
                    out_ports: 6,
                },
                LayerPorts {
                    in_ports: 6,
                    out_ports: 6,
                },
                LayerPorts {
                    in_ports: 6,
                    out_ports: 1,
                },
                LayerPorts::SINGLE,
            ],
        }
    }

    /// The paper's Test Case 2 design (Fig. 5): every layer
    /// single-input-port/single-output-port.
    pub fn paper_test_case_2() -> Self {
        Self::single_port(6)
    }
}

/// Global design knobs.
#[derive(Clone, Copy, Debug)]
pub struct DesignConfig {
    /// Operator latency table (f32 Virtex-7 by default).
    pub ops: OpLatency,
    /// Interleaved accumulator banks in FC cores (paper: ≥ add latency).
    pub fc_banks: usize,
    /// Depth of the inter-layer decoupling FIFOs.
    pub inter_fifo_depth: usize,
    /// DMA configuration for source and sink.
    pub dma: DmaConfig,
    /// Core clock (100 MHz on the VC707).
    pub clock_hz: u64,
    /// Run the final normalisation (LogSoftMax) on the fabric instead of
    /// the host. Off by default: the paper's designs end at the last
    /// linear layer and normalise on the CPU.
    pub fabric_normalization: bool,
    /// Fault injection: override every windowed core's per-port line
    /// buffer to this many values instead of the SST full-buffering bound.
    /// A value below the bound is a statically-provable deadlock — the
    /// [`crate::check`] verifier rejects it and the cycle simulator
    /// confirms by stalling out. `None` (the default) keeps the bound.
    pub line_buffer_cap: Option<usize>,
    /// Fault injection: skip the demux/widen adapters the builder would
    /// insert at port-width mismatches, leaving the boundary rates
    /// unreconciled. The [`crate::check`] verifier flags the mismatch as a
    /// rate-conservation error; the cycle simulator confirms by
    /// deadlocking on the unfed (or undrained) ports.
    pub omit_adapters: bool,
    /// Fault injection: clamp every fork out-edge FIFO to at most this
    /// depth *after* [`GraphBuilder::finish`]'s reconvergence auto-sizing.
    /// An undersized skip path is a statically-provable deadlock — the
    /// [`crate::check`] verifier rejects it (reconvergence-buffering) and
    /// the cycle simulator confirms by stalling out. `None` (the default)
    /// keeps the auto-sized depths.
    pub skip_fifo_cap: Option<usize>,
    /// The element type every core's datapath executes in: `f32` (the
    /// default — golden traces and the paper's Virtex-7 designs) or one of
    /// the supported fixed-point formats ([`NumericSpec::is_supported`]).
    /// All three engines quantise at each core's stream boundary, so they
    /// stay bit-identical to each other in any supported spec.
    pub numeric: NumericSpec,
    /// Interval the source DMA's input values are promised to lie in.
    /// The static value-range analyzer ([`crate::range`]) propagates this
    /// through every core; the default `(-1, 1)` covers normalised image
    /// pixels (the datasets feed `[0, 1]`, a subset). Widen it if a design
    /// ingests un-normalised data, or tighten it to prove more headroom.
    pub input_range: (f32, f32),
}

impl Default for DesignConfig {
    fn default() -> Self {
        let ops = OpLatency::f32_virtex7();
        DesignConfig {
            ops,
            fc_banks: ops.add as usize,
            inter_fifo_depth: 8,
            dma: DmaConfig::paper(),
            clock_hz: 100_000_000,
            fabric_normalization: false,
            line_buffer_cap: None,
            omit_adapters: false,
            skip_fifo_cap: None,
            numeric: NumericSpec::F32,
            input_range: (-1.0, 1.0),
        }
    }
}

/// One generated core in the design (layer core or adapter).
#[derive(Clone, Debug)]
pub struct CoreInfo {
    /// Display name ("conv1", "pool1", "demux1", …).
    pub name: String,
    /// Cost-model parameters.
    pub params: CoreParams,
    /// Index into the network's layer list (`None` for adapters).
    pub layer_index: Option<usize>,
    /// Values entering the core per image (across all input ports).
    pub in_values_per_image: u64,
    /// Window positions per image (0 for FC cores and adapters).
    pub positions: u64,
}

/// A node of the core graph: the DMA source, one generated core (by index
/// into [`NetworkDesign::cores`]), or the DMA sink.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeRef {
    /// The DMA source feeding the first core(s).
    Source,
    /// Core `i` of [`NetworkDesign::cores`].
    Core(usize),
    /// The DMA sink collecting the classifier scores.
    Sink,
}

/// One directed stream bundle of the core graph. A chain design has the
/// obvious linear edge list; fork/join designs have fan-out edges leaving
/// a fork core and two operand edges entering an eltwise-add join.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeInfo {
    /// Producer node.
    pub from: NodeRef,
    /// Consumer node.
    pub to: NodeRef,
    /// Parallel FIFO channels in the bundle (the boundary's port count).
    pub ports: usize,
    /// Values per image crossing the bundle (across all its ports).
    pub values_per_image: u64,
    /// Per-channel FIFO depth. Chain edges use
    /// [`DesignConfig::inter_fifo_depth`]; fork out-edges may be deepened
    /// by the reconvergence auto-sizing (or clamped by
    /// [`DesignConfig::skip_fifo_cap`]).
    pub depth: usize,
}

/// Where a host pipeline stage's input operand comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StageInput {
    /// The batch image itself (only the first stage reads it).
    Image,
    /// The output of an earlier stage, by stage index.
    Stage(usize),
}

/// One node of a graph design's *stage* topology: the image-level compute
/// order the host engines follow. Forks and adapters are port plumbing
/// and have no stage — a branch's first stage taps the fork's producer
/// directly.
#[derive(Clone, Debug)]
pub struct StageNode {
    /// The core computing this stage, or `None` for the flatten reshape.
    pub core: Option<usize>,
    /// Stage name (`conv1`, `flatten`, `add3`, …).
    pub name: String,
    /// The stage's input operands, in core input-edge order.
    pub inputs: Vec<StageInput>,
}

/// A fully-validated accelerator design for one trained network.
#[derive(Clone, Debug)]
pub struct NetworkDesign {
    network: Network,
    ports: PortConfig,
    config: DesignConfig,
    cores: Vec<CoreInfo>,
    classes: usize,
    edges: Vec<EdgeInfo>,
    /// `Some` for fork/join graph designs (built by [`GraphBuilder`]);
    /// `None` for chains, which derive their stage order from the layer
    /// list.
    stage_topo: Option<Vec<StageNode>>,
}

impl NetworkDesign {
    /// Validate a port configuration against a trained network and derive
    /// every core's parameters.
    ///
    /// # Errors
    /// A human-readable message if the configuration is inconsistent
    /// (wrong layer count, ports not dividing FM counts, multi-port FC).
    pub fn new(network: &Network, ports: PortConfig, config: DesignConfig) -> Result<Self, String> {
        if !config.numeric.is_supported() {
            return Err(format!(
                "unsupported numeric spec {:?}: kernels are monomorphised for {}",
                config.numeric,
                NumericSpec::supported_labels().join(", ")
            ));
        }
        let paper_layers: Vec<(usize, &Layer)> = network
            .layers()
            .iter()
            .enumerate()
            .filter(|(_, l)| model::paper_layer_model(l).is_some())
            .collect();
        if paper_layers.len() != ports.layers.len() {
            return Err(format!(
                "port config has {} entries but the network has {} paper layers",
                ports.layers.len(),
                paper_layers.len()
            ));
        }
        let mut cores: Vec<CoreInfo> = Vec::new();
        let mut counts: Vec<(&'static str, usize)> = Vec::new();
        let mut prev_out_ports: Option<usize> = None;
        let mut classes = 0;
        let push_core = |cores: &mut Vec<CoreInfo>,
                         prev_out_ports: &mut Option<usize>,
                         m: &dyn model::CoreModel,
                         name: String,
                         layer_index: usize,
                         layer: &Layer,
                         lp: LayerPorts|
         -> Result<(), String> {
            m.validate(&name, layer, lp)?;
            let plan = m.plan(layer, lp, &config);
            // adapter between the previous layer's output and this input
            // (unless fault injection asked for the raw mismatch)
            if let Some(prev) = *prev_out_ports {
                if !config.omit_adapters {
                    if let Some(adapter) = model::adapter::plan_between(
                        prev,
                        lp.in_ports,
                        plan.params.in_fm,
                        plan.in_values_per_image,
                        cores.len(),
                    ) {
                        cores.push(adapter);
                    }
                }
            }
            cores.push(CoreInfo {
                name,
                params: plan.params,
                layer_index: Some(layer_index),
                in_values_per_image: plan.in_values_per_image,
                positions: plan.positions,
            });
            *prev_out_ports = Some(lp.out_ports);
            Ok(())
        };
        for ((layer_index, layer), lp) in paper_layers.iter().zip(ports.layers.iter()) {
            let m = model::paper_layer_model(layer).expect("filtered to paper layers");
            let name = model::next_name(&mut counts, m.label());
            if let Some(k) = m.classifier_outputs(layer) {
                classes = k;
            }
            push_core(
                &mut cores,
                &mut prev_out_ports,
                m,
                name,
                *layer_index,
                layer,
                *lp,
            )?;
        }
        if config.fabric_normalization {
            if let Some((layer_index, layer)) = network
                .layers()
                .iter()
                .enumerate()
                .find(|(_, l)| model::is_normalization(l))
            {
                let m = model::normalization_model();
                let name = model::next_name(&mut counts, m.label());
                push_core(
                    &mut cores,
                    &mut prev_out_ports,
                    m,
                    name,
                    layer_index,
                    layer,
                    LayerPorts::SINGLE,
                )?;
            }
        }
        let edges = chain_edges(&cores, classes, config.inter_fifo_depth);
        Ok(NetworkDesign {
            network: network.clone(),
            ports,
            config,
            cores,
            classes,
            edges,
            stage_topo: None,
        })
    }

    /// The trained network this design implements.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The port configuration.
    pub fn ports(&self) -> &PortConfig {
        &self.ports
    }

    /// The design knobs.
    pub fn config(&self) -> &DesignConfig {
        &self.config
    }

    /// Every generated core (layer cores and adapters, pipeline order).
    pub fn cores(&self) -> &[CoreInfo] {
        &self.cores
    }

    /// Mutable core list, for in-crate tests that tamper with derived
    /// parameters (e.g. seeding an Eq. 4 II violation for the static
    /// checker to catch).
    #[cfg(test)]
    pub(crate) fn cores_mut(&mut self) -> &mut Vec<CoreInfo> {
        &mut self.cores
    }

    /// Number of classifier outputs the sink collects per image.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// The core graph's edges (source, core-to-core and sink bundles, in
    /// creation order). A chain design's edges are the obvious linear
    /// list.
    pub fn edges(&self) -> &[EdgeInfo] {
        &self.edges
    }

    /// The stage topology of a fork/join graph design, or `None` for
    /// chains (whose stage order is the layer list).
    pub fn stage_topo(&self) -> Option<&[StageNode]> {
        self.stage_topo.as_deref()
    }

    /// Whether this design is a fork/join graph (built by
    /// [`GraphBuilder`]) rather than a linear chain.
    pub fn is_graph(&self) -> bool {
        self.stage_topo.is_some()
    }

    /// Number of edges entering core `idx`.
    pub fn core_in_degree(&self, idx: usize) -> usize {
        self.edges
            .iter()
            .filter(|e| e.to == NodeRef::Core(idx))
            .count()
    }

    /// Number of edges leaving core `idx` (including a sink edge).
    pub fn core_out_degree(&self, idx: usize) -> usize {
        self.edges
            .iter()
            .filter(|e| e.from == NodeRef::Core(idx))
            .count()
    }

    /// Whether the design normalises (LogSoftMax) on the fabric: opted in
    /// via [`DesignConfig::fabric_normalization`] and the network actually
    /// ends in a normalisation operator.
    pub fn on_fabric_normalization(&self) -> bool {
        self.config.fabric_normalization
            && self.network.layers().iter().any(model::is_normalization)
    }

    /// Whether a host-side normalisation pass still follows the sink (the
    /// paper's default split).
    pub fn host_normalization(&self) -> bool {
        !self.on_fabric_normalization() && self.network.layers().iter().any(model::is_normalization)
    }

    /// The paper's layer count (used for the Fig. 6 convergence claim).
    pub fn paper_depth(&self) -> usize {
        self.ports.layers.len()
    }

    /// Total resource usage including the support platform (Table I).
    pub fn resources(&self, cost: &CostModel) -> Resources {
        self.cores
            .iter()
            .map(|c| cost.core(&c.params))
            .sum::<Resources>()
            + cost.platform_base()
            + cost.dma_engine()
    }

    /// Analytical per-core stage interval (cycles per image at steady
    /// state): the max of the input-serialisation, initiation and
    /// output-serialisation times. The slowest stage bounds the pipeline —
    /// "the pipeline interval is its slowest stage time" (§IV-C).
    pub fn estimate_stage_intervals(&self) -> Vec<(String, u64)> {
        self.cores
            .iter()
            .map(|c| {
                let interval = model::model_for(c.params.kind).estimate_interval(c, &self.config);
                (c.name.clone(), interval)
            })
            .collect()
    }

    /// The estimated bottleneck stage `(name, cycles per image)`.
    pub fn estimated_bottleneck(&self) -> (String, u64) {
        // include the source: the DMA needs input-volume / rate cycles
        let input_len = self.network.input_shape().len() as u64;
        let src_cycles = (input_len as f64 / self.config.dma.beats_per_cycle()).ceil() as u64
            + self.config.dma.setup_cycles;
        let mut best = ("dma-source".to_string(), src_cycles);
        for (name, cyc) in self.estimate_stage_intervals() {
            if cyc > best.1 {
                best = (name, cyc);
            }
        }
        best
    }

    /// Fig. 4/5-style block diagram.
    pub fn render_block_diagram(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("input {} -> ", self.network.input_shape()));
        for c in &self.cores {
            out.push_str(&model::model_for(c.params.kind).block_label(c));
            out.push_str(" -> ");
        }
        out.push_str(&format!(
            "{} classes (LogSoftMax on {})",
            self.classes,
            if self.on_fabric_normalization() {
                "fabric"
            } else {
                "host"
            }
        ));
        out
    }

    /// Run the hardware-order forward pass on the host (no timing):
    /// exactly what the accelerator computes for one image, ending at the
    /// values the sink collects (classifier scores, or log-probabilities
    /// when normalisation is on the fabric). Works for chains and
    /// fork/join graphs alike by walking the host pipeline's stage
    /// topology.
    ///
    /// This is the oracle, not a fast path: perfbench's output gate and
    /// the engine tests compare against it. It rebuilds the host pipeline
    /// and so repacks every layer's weights on each call, on purpose, so
    /// that no state carried between images can hide in its answer. To
    /// run many images, use [`crate::exec::ThreadedEngine`], which builds
    /// each stage's worker once.
    pub fn hw_forward(&self, input: &Tensor3<f32>) -> Tensor3<f32> {
        let stages = model::host_pipeline(self);
        let mut outs: Vec<Tensor3<f32>> = Vec::with_capacity(stages.len());
        for hs in &stages {
            let ins: Vec<&Tensor3<f32>> = hs
                .inputs
                .iter()
                .map(|si| match si {
                    StageInput::Image => input,
                    StageInput::Stage(j) => &outs[*j],
                })
                .collect();
            let mut out = Tensor3::zeros(hs.spec.out_shape);
            hs.spec.make_worker().apply_multi(&ins, &mut out);
            outs.push(out);
        }
        outs.pop().expect("design has stages")
    }

    /// Build the cycle simulator for a batch of images.
    pub fn instantiate(&self, images: &[Tensor3<f32>]) -> Simulator {
        self.instantiate_with_links(images, &[])
    }

    /// Build the cycle simulator with inter-FPGA link actors inserted
    /// after the named core indices (used by [`crate::multi`] to simulate
    /// a partitioned chain end to end). `links` pairs a core index with
    /// the link's `(words_per_cycle, latency_cycles)` timing.
    pub fn instantiate_with_links(
        &self,
        images: &[Tensor3<f32>],
        links: &[(usize, (f64, u64))],
    ) -> Simulator {
        assert!(!images.is_empty(), "empty batch");
        assert_eq!(
            images[0].shape(),
            self.network.input_shape(),
            "image shape does not match the network input"
        );
        let depth = self.config.inter_fifo_depth;
        let mut chans = ChannelSet::new();
        let mut actors: Vec<Box<dyn Actor>> = Vec::new();

        // one channel bundle per edge, allocated producer-side
        let mut edge_chs: Vec<Option<Vec<crate::stream::ChannelId>>> = vec![None; self.edges.len()];

        // the source's out-edges feed the first core(s)
        let mut src_chs = Vec::new();
        for (ei, e) in self.edges.iter().enumerate() {
            if e.from == NodeRef::Source {
                let bundle: Vec<_> = (0..e.ports).map(|_| chans.alloc(e.depth)).collect();
                src_chs.extend(bundle.iter().copied());
                edge_chs[ei] = Some(bundle);
            }
        }
        actors.push(Box::new(Source::new(
            images,
            src_chs,
            DmaChannel::new(self.config.dma),
        )));

        for (core_idx, c) in self.cores.iter().enumerate() {
            let p = &c.params;
            let model = model::model_for(p.kind);
            // gather input channels from this core's in-edges, in edge order
            let mut in_chs: Vec<_> = self
                .edges
                .iter()
                .enumerate()
                .filter(|(_, e)| e.to == NodeRef::Core(core_idx))
                .flat_map(|(ei, _)| edge_chs[ei].clone().expect("producer allocated first"))
                .collect();
            // Adapters normally guarantee the producer's port count equals
            // the consumer's; with omit_adapters the boundary is left
            // mismatched, and the hardware analogue is wires tied off: the
            // consumer's surplus ports are fed by never-written channels
            // (it starves) and a producer's surplus ports drive undrained
            // channels (it backpressures). Either way the chain deadlocks,
            // which is exactly what the static checker predicts.
            let want = model.input_channel_count(c);
            match in_chs.len().cmp(&want) {
                std::cmp::Ordering::Less => {
                    while in_chs.len() < want {
                        in_chs.push(chans.alloc(depth));
                    }
                }
                std::cmp::Ordering::Greater => in_chs.truncate(want),
                std::cmp::Ordering::Equal => {}
            }
            // allocate this core's out-edges (sink edges included)
            let mut out_chs = Vec::new();
            let mut out_edges = Vec::new();
            for (ei, e) in self.edges.iter().enumerate() {
                if e.from == NodeRef::Core(core_idx) {
                    let bundle: Vec<_> = (0..e.ports).map(|_| chans.alloc(e.depth)).collect();
                    out_chs.extend(bundle.iter().copied());
                    edge_chs[ei] = Some(bundle);
                    out_edges.push(ei);
                }
            }
            actors.push(model.make_actor(self, c, in_chs, out_chs.clone()));

            // optional inter-FPGA link after this core
            if let Some(&(_, (wpc, lat))) = links.iter().find(|(i, _)| *i == core_idx) {
                let link_out: Vec<_> = out_chs.iter().map(|_| chans.alloc(depth)).collect();
                actors.push(Box::new(crate::multi::LinkActor::new(
                    format!("link-after-{}", c.name),
                    out_chs,
                    link_out.clone(),
                    wpc,
                    lat,
                )));
                // consumers read the link's output side of each edge
                let mut off = 0;
                for ei in out_edges {
                    let n = self.edges[ei].ports;
                    edge_chs[ei] = Some(link_out[off..off + n].to_vec());
                    off += n;
                }
            }
        }

        let sink_chs: Vec<_> = self
            .edges
            .iter()
            .enumerate()
            .filter(|(_, e)| e.to == NodeRef::Sink)
            .flat_map(|(ei, _)| edge_chs[ei].clone().expect("producer allocated first"))
            .collect();
        let state = std::rc::Rc::new(std::cell::RefCell::new(SinkState::default()));
        actors.push(Box::new(Sink::new(
            sink_chs,
            self.classes,
            state.clone(),
            DmaChannel::new(self.config.dma),
        )));
        Simulator::new(actors, chans, images.len(), state)
    }
}

/// The linear edge list of a chain design: source → cores in order → sink,
/// every FIFO at `depth`.
fn chain_edges(cores: &[CoreInfo], classes: usize, depth: usize) -> Vec<EdgeInfo> {
    let Some(first) = cores.first() else {
        return Vec::new();
    };
    let mut edges = vec![EdgeInfo {
        from: NodeRef::Source,
        to: NodeRef::Core(0),
        ports: first.params.in_ports,
        values_per_image: first.in_values_per_image,
        depth,
    }];
    for i in 1..cores.len() {
        edges.push(EdgeInfo {
            from: NodeRef::Core(i - 1),
            to: NodeRef::Core(i),
            ports: cores[i - 1].params.out_ports,
            values_per_image: cores[i].in_values_per_image,
            depth,
        });
    }
    edges.push(EdgeInfo {
        from: NodeRef::Core(cores.len() - 1),
        to: NodeRef::Sink,
        ports: cores.last().unwrap().params.out_ports,
        values_per_image: classes as u64,
        depth,
    });
    edges
}

/// A live stream endpoint during graph construction: the node producing
/// it, the volume shape and port count it carries, and the host stage
/// computing it. Deliberately *not* `Clone` — every stream must be
/// consumed exactly once (use [`GraphBuilder::fork`] to duplicate one).
#[derive(Debug)]
pub struct Tap {
    node: NodeRef,
    shape: Shape3,
    ports: usize,
    stage: StageInput,
}

impl Tap {
    /// The volume shape this stream carries per image.
    pub fn shape(&self) -> Shape3 {
        self.shape
    }

    /// The stream's port count.
    pub fn ports(&self) -> usize {
        self.ports
    }
}

/// Incremental construction of a fork/join [`NetworkDesign`].
///
/// ```text
/// let (mut g, x) = GraphBuilder::new(input_shape, config);
/// let x = g.layer(x, conv, lp)?;          // trunk
/// let [a, b] = g.fork(x, 2)?...;          // tee
/// let a = g.layer(a, conv2, lp2)?;        // transform path
/// let a = g.layer(a, scaleshift, lp3)?;   //   …with frozen batchnorm
/// let x = g.add(a, b)?;                   // re-converge (b = identity skip)
/// let x = g.layer(x, flatten, …)?;
/// let x = g.layer(x, linear, lp4)?;
/// let design = g.finish(x)?;
/// ```
///
/// [`GraphBuilder::finish`] auto-sizes every fork out-edge FIFO so the
/// fastest reconvergent path can buffer the slowest path's holdback (the
/// line-buffer fill of windowed cores) — see the static checker's
/// reconvergence-buffering rule for the latency math.
pub struct GraphBuilder {
    input: Shape3,
    config: DesignConfig,
    layers: Vec<Layer>,
    port_entries: Vec<LayerPorts>,
    cores: Vec<CoreInfo>,
    edges: Vec<EdgeInfo>,
    topo: Vec<StageNode>,
    counts: Vec<(&'static str, usize)>,
}

impl GraphBuilder {
    /// Start a graph over `input`-shaped images; the returned [`Tap`] is
    /// the DMA source stream.
    pub fn new(input: Shape3, config: DesignConfig) -> (Self, Tap) {
        let builder = GraphBuilder {
            input,
            config,
            layers: Vec::new(),
            port_entries: Vec::new(),
            cores: Vec::new(),
            edges: Vec::new(),
            topo: Vec::new(),
            counts: Vec::new(),
        };
        let tap = Tap {
            node: NodeRef::Source,
            shape: input,
            ports: 0, // the first core decides; the source adapts
            stage: StageInput::Image,
        };
        (builder, tap)
    }

    fn edge(&mut self, from: NodeRef, to: NodeRef, ports: usize, values: u64) {
        self.edges.push(EdgeInfo {
            from,
            to,
            ports,
            values_per_image: values,
            depth: self.config.inter_fifo_depth,
        });
    }

    /// Apply a network layer to a stream. Paper layers (conv, pool,
    /// linear, scale-shift) instantiate a core — with a demux/widen
    /// adapter at a port mismatch, exactly like the chain builder —
    /// flatten is a core-less reshape stage, and the normalisation
    /// operator is rejected (graph designs keep LogSoftMax on the host).
    pub fn layer(
        &mut self,
        tap: Tap,
        layer: impl Into<Layer>,
        lp: LayerPorts,
    ) -> Result<Tap, String> {
        let layer: Layer = layer.into();
        if model::is_reshape(&layer) {
            if layer.input_shape() != tap.shape {
                return Err(format!(
                    "flatten expects {} but the stream carries {}",
                    layer.input_shape(),
                    tap.shape
                ));
            }
            let out_shape = layer.output_shape();
            self.layers.push(layer);
            let t_idx = self.topo.len();
            self.topo.push(StageNode {
                core: None,
                name: "flatten".to_string(),
                inputs: vec![tap.stage],
            });
            return Ok(Tap {
                node: tap.node,
                shape: out_shape,
                ports: tap.ports,
                stage: StageInput::Stage(t_idx),
            });
        }
        let Some(m) = model::paper_layer_model(&layer) else {
            return Err(format!(
                "graph designs keep the {} operator on the host",
                layer.kind_name()
            ));
        };
        if layer.input_shape() != tap.shape {
            return Err(format!(
                "{} expects {} but the stream carries {}",
                layer.kind_name(),
                layer.input_shape(),
                tap.shape
            ));
        }
        let name = model::next_name(&mut self.counts, m.label());
        m.validate(&name, &layer, lp)?;
        let plan = m.plan(&layer, lp, &self.config);

        // adapter at a port mismatch (the source always adapts itself)
        let mut from = tap.node;
        let mut from_ports = tap.ports;
        if from != NodeRef::Source && from_ports != lp.in_ports {
            let a_idx = self.cores.len();
            let adapter = model::adapter::plan_between(
                from_ports,
                lp.in_ports,
                plan.params.in_fm,
                plan.in_values_per_image,
                a_idx,
            )
            .expect("ports differ");
            self.edge(
                from,
                NodeRef::Core(a_idx),
                from_ports,
                plan.in_values_per_image,
            );
            self.cores.push(adapter);
            from = NodeRef::Core(a_idx);
            from_ports = lp.in_ports;
        }
        let _ = from_ports;

        let out_shape = layer.output_shape();
        let layer_index = self.layers.len();
        self.layers.push(layer);
        let core_idx = self.cores.len();
        self.edge(
            from,
            NodeRef::Core(core_idx),
            lp.in_ports,
            plan.in_values_per_image,
        );
        self.cores.push(CoreInfo {
            name: name.clone(),
            params: plan.params,
            layer_index: Some(layer_index),
            in_values_per_image: plan.in_values_per_image,
            positions: plan.positions,
        });
        self.port_entries.push(lp);
        let t_idx = self.topo.len();
        self.topo.push(StageNode {
            core: Some(core_idx),
            name,
            inputs: vec![tap.stage],
        });
        Ok(Tap {
            node: NodeRef::Core(core_idx),
            shape: out_shape,
            ports: lp.out_ports,
            stage: StageInput::Stage(t_idx),
        })
    }

    /// Tee a stream into `n ≥ 2` identical branches via a fork core.
    pub fn fork(&mut self, tap: Tap, n: usize) -> Result<Vec<Tap>, String> {
        if n < 2 {
            return Err("a fork needs at least two branches".to_string());
        }
        if tap.node == NodeRef::Source {
            return Err("the DMA source stream cannot be forked".to_string());
        }
        let fm = tap.shape.c;
        if !fm.is_multiple_of(tap.ports) {
            return Err(format!(
                "fork ports {} do not divide the stream's {} FMs",
                tap.ports, fm
            ));
        }
        let idx = self.cores.len();
        let values = tap.shape.len() as u64;
        let info = model::fork::plan_fork(fm, tap.ports, values, idx);
        self.edge(tap.node, NodeRef::Core(idx), tap.ports, values);
        self.cores.push(info);
        Ok((0..n)
            .map(|_| Tap {
                node: NodeRef::Core(idx),
                shape: tap.shape,
                ports: tap.ports,
                stage: tap.stage, // the tee has no stage: branches share it
            })
            .collect())
    }

    /// Join two streams with an element-wise add core (`out = a + b`).
    pub fn add(&mut self, a: Tap, b: Tap) -> Result<Tap, String> {
        if a.node == NodeRef::Source || b.node == NodeRef::Source {
            return Err("the DMA source stream cannot feed a join".to_string());
        }
        if a.shape != b.shape {
            return Err(format!(
                "eltwise-add operands must share a shape ({} vs {})",
                a.shape, b.shape
            ));
        }
        if a.ports != b.ports {
            return Err(format!(
                "eltwise-add operands must share a port count ({} vs {})",
                a.ports, b.ports
            ));
        }
        let idx = self.cores.len();
        let info = model::eltwise::plan_add(a.shape, a.ports, idx);
        let name = info.name.clone();
        let values = a.shape.len() as u64;
        self.edge(a.node, NodeRef::Core(idx), a.ports, values);
        self.edge(b.node, NodeRef::Core(idx), b.ports, values);
        self.cores.push(info);
        let t_idx = self.topo.len();
        self.topo.push(StageNode {
            core: Some(idx),
            name,
            inputs: vec![a.stage, b.stage],
        });
        Ok(Tap {
            node: NodeRef::Core(idx),
            shape: a.shape,
            ports: a.ports,
            stage: StageInput::Stage(t_idx),
        })
    }

    /// Join two streams with a concat core appending `b`'s feature maps
    /// after `a`'s (Inception-style): the output carries
    /// `a.c + b.c` FMs per pixel. The operands must share the pixel grid
    /// and port count, and the shared port count must divide *both* FM
    /// counts so the summed FM sequence keeps the round-robin port
    /// interleave.
    pub fn concat(&mut self, a: Tap, b: Tap) -> Result<Tap, String> {
        if a.node == NodeRef::Source || b.node == NodeRef::Source {
            return Err("the DMA source stream cannot feed a join".to_string());
        }
        if (a.shape.h, a.shape.w) != (b.shape.h, b.shape.w) {
            return Err(format!(
                "concat operands must share the pixel grid ({} vs {})",
                a.shape, b.shape
            ));
        }
        if a.ports != b.ports {
            return Err(format!(
                "concat operands must share a port count ({} vs {})",
                a.ports, b.ports
            ));
        }
        for (which, c) in [("first", a.shape.c), ("second", b.shape.c)] {
            if !c.is_multiple_of(a.ports) {
                return Err(format!(
                    "concat ports {} do not divide the {which} operand's {c} FMs",
                    a.ports
                ));
            }
        }
        let idx = self.cores.len();
        let info = model::concat::plan_concat(a.shape, b.shape, a.ports, idx);
        let name = info.name.clone();
        // unlike the add join, the operand edges carry different volumes:
        // each operand streams its own FM count per pixel
        self.edge(a.node, NodeRef::Core(idx), a.ports, a.shape.len() as u64);
        self.edge(b.node, NodeRef::Core(idx), b.ports, b.shape.len() as u64);
        self.cores.push(info);
        let t_idx = self.topo.len();
        self.topo.push(StageNode {
            core: Some(idx),
            name,
            inputs: vec![a.stage, b.stage],
        });
        Ok(Tap {
            node: NodeRef::Core(idx),
            shape: Shape3::new(a.shape.h, a.shape.w, a.shape.c + b.shape.c),
            ports: a.ports,
            stage: StageInput::Stage(t_idx),
        })
    }

    /// Terminate the graph at `tap` (the sink collects its full volume as
    /// classifier scores), auto-size reconvergent-path FIFOs, and apply
    /// the [`DesignConfig::skip_fifo_cap`] fault clamp if set.
    pub fn finish(self, tap: Tap) -> Result<NetworkDesign, String> {
        let mut me = self;
        if me.cores.is_empty() || tap.node == NodeRef::Source {
            return Err("a graph design needs at least one core".to_string());
        }
        let classes = tap.shape.len();
        me.edge(tap.node, NodeRef::Sink, tap.ports, classes as u64);
        let mut network = Network::new();
        for l in me.layers {
            network.push_unchecked(l);
        }
        assert_eq!(
            network.input_shape(),
            me.input,
            "the first layer reads the graph input"
        );
        let mut design = NetworkDesign {
            network,
            ports: PortConfig {
                layers: me.port_entries,
            },
            config: me.config,
            cores: me.cores,
            classes,
            edges: me.edges,
            stage_topo: Some(me.topo),
        };
        design.autosize_reconvergence();
        if let Some(cap) = design.config.skip_fifo_cap {
            // a fork is exactly a core with fan-out > 1 — clamp its
            // out-edges (no per-kind dispatch; topology decides)
            let fork_cores: Vec<usize> = (0..design.cores.len())
                .filter(|&i| design.core_out_degree(i) > 1)
                .collect();
            for e in design.edges.iter_mut() {
                if let NodeRef::Core(i) = e.from {
                    if fork_cores.contains(&i) {
                        e.depth = e.depth.min(cap);
                    }
                }
            }
        }
        Ok(design)
    }
}

/// Lower a fork/join [`GraphSpec`] straight to a [`NetworkDesign`] — no
/// hand-written edge wiring. `layers` must come from
/// [`GraphSpec::build_layers`] on the *same spec* (the lowering re-walks
/// the spec's depth-first traversal and consumes the slice in order);
/// passing prebuilt layers lets a design-space sweep draw weights once and
/// re-lower thousands of port candidates. `ports` carries one entry per
/// paper layer in traversal order, exactly like the chain builder.
///
/// [`GraphSpec::build_layers`]: dfcnn_nn::topology::GraphSpec::build_layers
pub fn build_graph_design(
    spec: &GraphSpec,
    layers: &[Layer],
    ports: &PortConfig,
    config: DesignConfig,
) -> Result<NetworkDesign, String> {
    let (mut g, tap) = GraphBuilder::new(spec.input, config);
    let mut cur = LowerCursor {
        layers: layers.iter(),
        ports: ports.layers.iter(),
    };
    let out = lower_ops(&mut g, tap, &spec.ops, &mut cur)?;
    if cur.layers.next().is_some() {
        return Err(format!(
            "layer list longer than the '{}' spec's traversal",
            spec.name
        ));
    }
    if cur.ports.next().is_some() {
        return Err(format!(
            "port config longer than the '{}' spec's {} paper layers",
            spec.name,
            spec.paper_depth()
        ));
    }
    g.finish(out)
}

struct LowerCursor<'a> {
    layers: std::slice::Iter<'a, Layer>,
    ports: std::slice::Iter<'a, LayerPorts>,
}

fn lower_ops(
    g: &mut GraphBuilder,
    tap: Tap,
    ops: &[GraphOp],
    cur: &mut LowerCursor,
) -> Result<Tap, String> {
    let mut tap = tap;
    for op in ops {
        tap = match op {
            GraphOp::Layer(spec) => {
                let layer = cur
                    .layers
                    .next()
                    .ok_or("layer list shorter than the spec's traversal")?
                    .clone();
                let lp = if spec.counts_as_paper_layer() {
                    *cur.ports
                        .next()
                        .ok_or("port config shorter than the spec's paper layers")?
                } else {
                    LayerPorts::SINGLE
                };
                g.layer(tap, layer, lp)?
            }
            GraphOp::Branch { branches, join } => {
                let taps = g.fork(tap, branches.len())?;
                let mut ends = Vec::with_capacity(branches.len());
                for (ops, t) in branches.iter().zip(taps) {
                    // an empty branch is the identity skip: the fork tap
                    // passes straight through to the join
                    ends.push(lower_ops(g, t, ops, cur)?);
                }
                let mut it = ends.into_iter();
                let mut acc = it.next().expect("fork guarantees >= 2 branches");
                for t in it {
                    acc = match join {
                        JoinKind::Add => g.add(acc, t)?,
                        JoinKind::Concat => g.concat(acc, t)?,
                    };
                }
                acc
            }
        };
    }
    Ok(tap)
}

impl NetworkDesign {
    /// Deepen deficient fork out-edges until every reconvergent path pair
    /// satisfies the buffering bound (fixpoint; each round recomputes the
    /// deficits with the new depths).
    fn autosize_reconvergence(&mut self) {
        const SLACK: u64 = 8;
        for _ in 0..16 {
            let deficits = reconvergence_deficits(self);
            if deficits.is_empty() {
                break;
            }
            for d in deficits {
                let e = &mut self.edges[d.first_edge];
                let need = (d.required + SLACK).saturating_sub(d.capacity);
                e.depth += need.div_ceil(e.ports as u64) as usize;
            }
        }
    }
}

/// One violated reconvergence-buffering bound: the path starting at
/// `first_edge` cannot buffer the sibling path's holdback.
#[derive(Clone, Debug)]
pub(crate) struct ReconvergenceDeficit {
    /// The fork core where the paths diverge.
    pub fork: String,
    /// The join core where they re-converge.
    pub join: String,
    /// Edge index of the deficient path's first hop (a fork out-edge).
    pub first_edge: usize,
    /// The deficient path's total buffering capacity, in values.
    pub capacity: u64,
    /// The sibling path's holdback (line-buffer fill), in values.
    pub required: u64,
}

/// Check every fork/join path pair of the design: while the slow path of
/// a reconvergent pair holds back its first output (filling line
/// buffers), the join keeps consuming nothing — so every value the fork
/// pushes down the *other* path in that window must fit in that path's
/// FIFOs and line buffers, or the fork blocks, the slow path starves and
/// the graph deadlocks. Statically: for each ordered pair `(A, B)` of
/// fork→join paths entering the join on different edges,
/// `capacity(A) ≥ holdback(B)` where `capacity` sums FIFO depths × ports
/// plus interior line-buffer capacity, and `holdback` sums the interior
/// cores' SST line-buffer fill.
pub(crate) fn reconvergence_deficits(design: &NetworkDesign) -> Vec<ReconvergenceDeficit> {
    let mut out = Vec::new();
    let n = design.cores.len();
    for f in 0..n {
        if design.core_out_degree(f) < 2 {
            continue;
        }
        for j in 0..n {
            if design.core_in_degree(j) < 2 {
                continue;
            }
            let paths = fork_join_paths(design, f, j);
            for a in &paths {
                for b in &paths {
                    if a.last() == b.last() {
                        continue; // same join edge: same operand, not a pair
                    }
                    let capacity = path_capacity(design, a);
                    let required = path_holdback(design, b);
                    if capacity < required {
                        out.push(ReconvergenceDeficit {
                            fork: design.cores[f].name.clone(),
                            join: design.cores[j].name.clone(),
                            first_edge: a[0],
                            capacity,
                            required,
                        });
                    }
                }
            }
        }
    }
    out
}

/// All simple core-to-core paths from core `from` to core `to`, as edge
/// index lists (capped at 64 paths — graphs here are small).
fn fork_join_paths(design: &NetworkDesign, from: usize, to: usize) -> Vec<Vec<usize>> {
    fn dfs(
        design: &NetworkDesign,
        cur: usize,
        to: usize,
        stack: &mut Vec<usize>,
        paths: &mut Vec<Vec<usize>>,
    ) {
        if paths.len() >= 64 {
            return;
        }
        if cur == to && !stack.is_empty() {
            paths.push(stack.clone());
            return;
        }
        for (ei, e) in design.edges.iter().enumerate() {
            if e.from != NodeRef::Core(cur) {
                continue;
            }
            let NodeRef::Core(next) = e.to else { continue };
            let revisits = stack
                .iter()
                .any(|&pe| design.edges[pe].to == NodeRef::Core(next));
            if revisits {
                continue;
            }
            stack.push(ei);
            dfs(design, next, to, stack, paths);
            stack.pop();
        }
    }
    let mut paths = Vec::new();
    dfs(design, from, to, &mut Vec::new(), &mut paths);
    paths
}

/// Values a path can buffer: FIFO depth × ports of every edge, plus the
/// line-buffer capacity of every interior core.
fn path_capacity(design: &NetworkDesign, path: &[usize]) -> u64 {
    let mut cap: u64 = path
        .iter()
        .map(|&ei| (design.edges[ei].depth * design.edges[ei].ports) as u64)
        .sum();
    for &ei in &path[..path.len() - 1] {
        if let NodeRef::Core(c) = design.edges[ei].to {
            let core = &design.cores[c];
            let profile = model::model_for(core.params.kind).static_profile(design, core);
            if let Some(lb) = profile.line_buffer {
                cap += (lb.capacity_per_port * core.params.in_ports) as u64;
            }
        }
    }
    cap
}

/// Values a path consumes before emitting its first output: the SST
/// line-buffer fill of every interior windowed core.
fn path_holdback(design: &NetworkDesign, path: &[usize]) -> u64 {
    let mut hold = 0u64;
    for &ei in &path[..path.len() - 1] {
        if let NodeRef::Core(c) = design.edges[ei].to {
            let core = &design.cores[c];
            let profile = model::model_for(core.params.kind).static_profile(design, core);
            if let Some(lb) = profile.line_buffer {
                hold += (lb.required_per_port * core.params.in_ports) as u64;
            }
        }
    }
    hold
}

/// Shared in-crate test fixture: an 8×8×2 residual block
/// (conv → fork → { conv → scaleshift | identity } → add → flatten →
/// linear), the canonical fork/join design the checker, simulator and
/// engines are all exercised against.
#[cfg(test)]
pub(crate) mod fixtures {
    use super::*;
    use dfcnn_nn::act::Activation;
    use dfcnn_nn::layer::{Conv2d, Flatten, Linear, ScaleShift};
    use dfcnn_tensor::{ConvGeometry, Tensor1, Tensor4};

    pub(crate) fn residual_graph(config: DesignConfig) -> NetworkDesign {
        let input = Shape3::new(8, 8, 2);
        let geo = ConvGeometry::new(input, 3, 3, 1, 1); // shape-preserving
        let trunk_f = Tensor4::from_fn(2, 3, 3, 2, |k, y, x, c| {
            ((k + 2 * y + x + c) as f32) * 0.05 - 0.1
        });
        let trunk = Conv2d::new(geo, trunk_f, Tensor1::zeros(2), Activation::Identity);
        let branch_f = Tensor4::from_fn(2, 3, 3, 2, |k, y, x, c| {
            ((3 * k + y + x + 2 * c) as f32) * 0.04 - 0.15
        });
        let branch = Conv2d::new(geo, branch_f, Tensor1::zeros(2), Activation::Identity);
        let bn = ScaleShift::new(input, vec![0.9, 1.2], vec![0.05, -0.1]);
        let fc_w = Tensor4::from_fn(4, 1, 1, 128, |j, _, _, i| {
            ((j * 31 + i) % 17) as f32 * 0.02 - 0.16
        });
        let fc = Linear::new(fc_w, Tensor1::zeros(4), Activation::Identity);

        let (mut g, x) = GraphBuilder::new(input, config);
        let x = g.layer(x, trunk, LayerPorts::SINGLE).unwrap();
        let mut taps = g.fork(x, 2).unwrap();
        let skip = taps.pop().unwrap();
        let a = taps.pop().unwrap();
        let a = g.layer(a, branch, LayerPorts::SINGLE).unwrap();
        let a = g.layer(a, bn, LayerPorts::SINGLE).unwrap();
        let x = g.add(a, skip).unwrap();
        let x = g.layer(x, Flatten::new(input), LayerPorts::SINGLE).unwrap();
        let x = g.layer(x, fc, LayerPorts::SINGLE).unwrap();
        g.finish(x).unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfcnn_nn::topology::NetworkSpec;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn tc1_network() -> Network {
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        NetworkSpec::test_case_1().build(&mut rng)
    }

    fn tc2_network() -> Network {
        let mut rng = ChaCha8Rng::seed_from_u64(20);
        NetworkSpec::test_case_2().build(&mut rng)
    }

    #[test]
    fn tc1_design_builds_with_paper_ports() {
        let d = NetworkDesign::new(
            &tc1_network(),
            PortConfig::paper_test_case_1(),
            DesignConfig::default(),
        )
        .unwrap();
        // conv1(II=1), pool1, conv2(II=16), fc1 — plus no adapters
        // (1->6 direct? conv1 out 6 ports -> pool in 6 ports: direct;
        //  pool out 6 -> conv2 in 6: direct; conv2 out 1 -> fc in 1: direct)
        let names: Vec<_> = d.cores().iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["conv1", "pool1", "conv2", "fc1"]);
        let convs: Vec<_> = d
            .cores()
            .iter()
            .filter(|c| c.name.starts_with("conv"))
            .collect();
        assert_eq!(convs[0].params.ii, 1, "fully parallel conv1 has II=1");
        assert_eq!(convs[1].params.ii, 16, "conv2 II = max(16/1, 6/6)");
        assert_eq!(d.classes(), 10);
        assert_eq!(d.paper_depth(), 4);
    }

    #[test]
    fn tc2_design_all_single_port() {
        let d = NetworkDesign::new(
            &tc2_network(),
            PortConfig::paper_test_case_2(),
            DesignConfig::default(),
        )
        .unwrap();
        let iis: Vec<_> = d.cores().iter().map(|c| c.params.ii).collect();
        // conv1 II=12, pool1 II=12, conv2 II=36, pool2 II=36, fc(900), fc(72)
        assert_eq!(iis[0], 12);
        assert_eq!(iis[2], 36);
        assert_eq!(d.paper_depth(), 6);
    }

    #[test]
    fn adapter_inserted_on_port_mismatch() {
        // conv1 out 2 ports, pool in 1 port -> widen adapter
        let net = tc1_network();
        let cfg = PortConfig {
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
        let d = NetworkDesign::new(&net, cfg, DesignConfig::default()).unwrap();
        assert!(d.cores().iter().any(|c| c.name.starts_with("widen")));
    }

    #[test]
    fn demux_inserted_when_consumer_wider() {
        let net = tc1_network();
        let cfg = PortConfig {
            layers: vec![
                LayerPorts {
                    in_ports: 1,
                    out_ports: 1,
                },
                LayerPorts {
                    in_ports: 6,
                    out_ports: 6,
                },
                LayerPorts {
                    in_ports: 6,
                    out_ports: 1,
                },
                LayerPorts::SINGLE,
            ],
        };
        let d = NetworkDesign::new(&net, cfg, DesignConfig::default()).unwrap();
        assert!(d.cores().iter().any(|c| c.name.starts_with("demux")));
    }

    #[test]
    fn wrong_layer_count_rejected() {
        let err = NetworkDesign::new(
            &tc1_network(),
            PortConfig::single_port(3),
            DesignConfig::default(),
        )
        .unwrap_err();
        assert!(err.contains("3 entries"), "{err}");
    }

    #[test]
    fn multiport_fc_rejected() {
        let mut cfg = PortConfig::single_port(4);
        cfg.layers[3] = LayerPorts {
            in_ports: 1,
            out_ports: 2,
        };
        let err = NetworkDesign::new(&tc1_network(), cfg, DesignConfig::default()).unwrap_err();
        assert!(err.contains("single-input-port"), "{err}");
    }

    #[test]
    fn non_divisor_ports_rejected() {
        let mut cfg = PortConfig::single_port(4);
        cfg.layers[0] = LayerPorts {
            in_ports: 1,
            out_ports: 4, // 6 FMs not divisible by 4
        };
        let err = NetworkDesign::new(&tc1_network(), cfg, DesignConfig::default()).unwrap_err();
        assert!(err.contains("does not divide"), "{err}");
    }

    #[test]
    fn tc1_fits_device_tc2_fits_device() {
        let cost = CostModel::default();
        let dev = dfcnn_fpga::Device::xc7vx485t();
        let d1 = NetworkDesign::new(
            &tc1_network(),
            PortConfig::paper_test_case_1(),
            DesignConfig::default(),
        )
        .unwrap();
        let d2 = NetworkDesign::new(
            &tc2_network(),
            PortConfig::paper_test_case_2(),
            DesignConfig::default(),
        )
        .unwrap();
        let r1 = d1.resources(&cost);
        let r2 = d2.resources(&cost);
        assert!(dev.fits(&r1), "TC1 must fit: {r1:?}");
        assert!(dev.fits(&r2), "TC2 must fit: {r2:?}");
        // Table I shape: TC2 uses more of everything
        assert!(r2.dsp > r1.dsp);
        assert!(r2.lut > r1.lut);
        assert!(r2.ff > r1.ff);
        assert!(r2.bram18 > r1.bram18);
    }

    #[test]
    fn tc2_bottleneck_is_conv1() {
        let d = NetworkDesign::new(
            &tc2_network(),
            PortConfig::paper_test_case_2(),
            DesignConfig::default(),
        )
        .unwrap();
        let (name, cyc) = d.estimated_bottleneck();
        assert_eq!(name, "conv1");
        // 784 windows * II 12 = 9408 cycles ≈ 94 µs
        assert!((9_000..10_000).contains(&cyc), "cycles = {cyc}");
    }

    #[test]
    fn tc1_bottleneck_is_input_stream() {
        let d = NetworkDesign::new(
            &tc1_network(),
            PortConfig::paper_test_case_1(),
            DesignConfig::default(),
        )
        .unwrap();
        let (name, cyc) = d.estimated_bottleneck();
        // 256 pixels at 1/cycle dominates every fully-parallel stage
        assert_eq!(name, "dma-source");
        assert_eq!(cyc, 256);
    }

    #[test]
    fn block_diagram_mentions_all_cores() {
        let d = NetworkDesign::new(
            &tc1_network(),
            PortConfig::paper_test_case_1(),
            DesignConfig::default(),
        )
        .unwrap();
        let diag = d.render_block_diagram();
        for n in ["conv1", "pool1", "conv2", "fc1", "10 classes"] {
            assert!(diag.contains(n), "missing {n} in: {diag}");
        }
    }

    #[test]
    fn fabric_normalization_appends_the_logsoftmax_core() {
        let cfg = DesignConfig {
            fabric_normalization: true,
            ..DesignConfig::default()
        };
        let d = NetworkDesign::new(&tc1_network(), PortConfig::paper_test_case_1(), cfg).unwrap();
        let names: Vec<_> = d.cores().iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["conv1", "pool1", "conv2", "fc1", "logsoftmax1"]);
        assert!(d.on_fabric_normalization());
        assert!(!d.host_normalization());
        assert_eq!(d.classes(), 10, "sink still collects 10 values");
        let diag = d.render_block_diagram();
        assert!(diag.contains("logsoftmax1"), "{diag}");
        assert!(diag.contains("LogSoftMax on fabric"), "{diag}");
    }

    #[test]
    fn default_design_keeps_normalization_on_host() {
        let d = NetworkDesign::new(
            &tc1_network(),
            PortConfig::paper_test_case_1(),
            DesignConfig::default(),
        )
        .unwrap();
        assert!(!d.on_fabric_normalization());
        assert!(d.host_normalization());
        assert!(d.render_block_diagram().contains("LogSoftMax on host"));
    }

    #[test]
    fn fabric_hw_forward_matches_reference_logsoftmax() {
        let net = tc1_network();
        let cfg = DesignConfig {
            fabric_normalization: true,
            ..DesignConfig::default()
        };
        let d = NetworkDesign::new(&net, PortConfig::paper_test_case_1(), cfg).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let x = dfcnn_tensor::init::random_volume(&mut rng, net.input_shape(), 0.0, 1.0);
        let hw = d.hw_forward(&x);
        // reference trace ends at the host LogSoftMax output
        let trace = net.forward_trace(&x);
        let reference = trace.last().unwrap();
        assert!(
            hw.max_abs_diff(reference) < 1e-4,
            "diff = {}",
            hw.max_abs_diff(reference)
        );
        let prob_sum: f32 = hw.as_slice().iter().map(|v| v.exp()).sum();
        assert!(
            (prob_sum - 1.0).abs() < 1e-4,
            "probabilities sum to {prob_sum}"
        );
    }

    #[test]
    fn hw_forward_close_to_reference() {
        let net = tc1_network();
        let d = NetworkDesign::new(
            &net,
            PortConfig::paper_test_case_1(),
            DesignConfig::default(),
        )
        .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let x = dfcnn_tensor::init::random_volume(&mut rng, net.input_shape(), 0.0, 1.0);
        let hw = d.hw_forward(&x);
        // reference trace: compare pre-softmax scores
        let trace = net.forward_trace(&x);
        let reference = &trace[trace.len() - 2];
        assert!(
            hw.max_abs_diff(reference) < 1e-4,
            "diff = {}",
            hw.max_abs_diff(reference)
        );
    }

    #[test]
    fn chain_edges_are_the_linear_list() {
        let d = NetworkDesign::new(
            &tc1_network(),
            PortConfig::paper_test_case_1(),
            DesignConfig::default(),
        )
        .unwrap();
        assert!(!d.is_graph());
        assert!(d.stage_topo().is_none());
        let edges = d.edges();
        assert_eq!(edges.len(), d.cores().len() + 1);
        assert_eq!(edges[0].from, NodeRef::Source);
        assert_eq!(edges[0].to, NodeRef::Core(0));
        assert_eq!(edges[0].ports, 1, "conv1 reads one port");
        assert_eq!(edges.last().unwrap().to, NodeRef::Sink);
        assert_eq!(edges.last().unwrap().values_per_image, 10);
        for (i, e) in edges.iter().enumerate().skip(1).take(edges.len() - 2) {
            assert_eq!(e.from, NodeRef::Core(i - 1));
            assert_eq!(e.to, NodeRef::Core(i));
            assert_eq!(e.depth, d.config().inter_fifo_depth);
        }
        for i in 0..d.cores().len() {
            assert_eq!(d.core_in_degree(i), 1);
            assert_eq!(d.core_out_degree(i), 1);
        }
    }

    // --- fork/join graph construction ---

    use super::fixtures::residual_graph;
    use dfcnn_nn::act::Activation;
    use dfcnn_nn::layer::Conv2d;
    use dfcnn_tensor::{ConvGeometry, Tensor1, Tensor4};

    #[test]
    fn residual_graph_topology() {
        let d = residual_graph(DesignConfig::default());
        assert!(d.is_graph());
        let names: Vec<_> = d.cores().iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["conv1", "fork1", "conv2", "scaleshift1", "add4", "fc1"]
        );
        // fork fans out to the branch conv and the join; the join reads two
        assert_eq!(d.core_out_degree(1), 2);
        assert_eq!(d.core_in_degree(4), 2);
        assert_eq!(d.classes(), 4);
        let topo = d.stage_topo().unwrap();
        let stage_names: Vec<_> = topo.iter().map(|n| n.name.as_str()).collect();
        assert_eq!(
            stage_names,
            vec!["conv1", "conv2", "scaleshift1", "add4", "flatten", "fc1"]
        );
        // both add operands resolve: scaleshift stage and the trunk conv
        assert_eq!(
            topo[3].inputs,
            vec![StageInput::Stage(2), StageInput::Stage(0)]
        );
        // the fork has no stage: the skip operand taps the trunk directly
        let diag = d.render_block_diagram();
        for n in ["fork1 tee", "eltwise-add", "scaleshift1"] {
            assert!(diag.contains(n), "missing {n} in: {diag}");
        }
    }

    #[test]
    fn skip_fifo_is_auto_sized_for_the_conv_holdback() {
        let d = residual_graph(DesignConfig::default());
        // fork -> add edge: must hold the branch conv's line-buffer fill
        // ((3-1)*8 + 3) * 2 = 38 values > the default depth of 8
        let skip = d
            .edges()
            .iter()
            .find(|e| e.from == NodeRef::Core(1) && e.to == NodeRef::Core(4))
            .expect("skip edge exists");
        assert!(
            skip.depth * skip.ports >= 38,
            "skip FIFO too shallow: {} x {}",
            skip.depth,
            skip.ports
        );
        assert!(reconvergence_deficits(&d).is_empty());
        // the fork -> branch-conv edge keeps the default depth
        let branch = d
            .edges()
            .iter()
            .find(|e| e.from == NodeRef::Core(1) && e.to == NodeRef::Core(2))
            .unwrap();
        assert_eq!(branch.depth, d.config().inter_fifo_depth);
    }

    #[test]
    fn skip_fifo_cap_reintroduces_the_deficit() {
        let d = residual_graph(DesignConfig {
            skip_fifo_cap: Some(2),
            ..DesignConfig::default()
        });
        let deficits = reconvergence_deficits(&d);
        assert!(!deficits.is_empty(), "clamped skip FIFO must be deficient");
        assert_eq!(deficits[0].fork, "fork1");
        assert_eq!(deficits[0].join, "add4");
        assert!(deficits[0].capacity < deficits[0].required);
    }

    #[test]
    fn residual_reference_forward_composes_the_layers() {
        let d = residual_graph(DesignConfig::default());
        let x = Tensor3::from_fn(Shape3::new(8, 8, 2), |y, xx, c| {
            ((y * 8 + xx) as f32) * 0.01 + c as f32 * 0.3
        });
        let layers = d.network().layers();
        let trunk = layers[0].forward(&x);
        let branch = layers[2].forward(&layers[1].forward(&trunk));
        let sum = Tensor3::from_vec(
            trunk.shape(),
            branch
                .as_slice()
                .iter()
                .zip(trunk.as_slice())
                .map(|(a, b)| a + b)
                .collect(),
        );
        let flat = Tensor3::from_vec(Shape3::new(1, 1, 128), sum.as_slice().to_vec());
        let expect = layers[4].forward(&flat);
        let got = model::reference_forward(&d, &x);
        assert_eq!(got.as_slice(), expect.as_slice());
        // the hardware-order forward agrees within kernel rounding
        let hw = d.hw_forward(&x);
        assert!(
            hw.max_abs_diff(&expect) < 1e-4,
            "diff = {}",
            hw.max_abs_diff(&expect)
        );
    }

    #[test]
    fn graph_builder_rejects_bad_wiring() {
        let input = Shape3::new(8, 8, 2);
        let (mut g, x) = GraphBuilder::new(input, DesignConfig::default());
        let err = g.fork(x, 2).unwrap_err();
        assert!(err.contains("source"), "{err}");

        let (mut g, x) = GraphBuilder::new(input, DesignConfig::default());
        let geo = ConvGeometry::new(input, 3, 3, 1, 1);
        let f = Tensor4::from_fn(2, 3, 3, 2, |_, _, _, _| 0.1);
        let conv = Conv2d::new(geo, f, Tensor1::zeros(2), Activation::Identity);
        let x = g.layer(x, conv, LayerPorts::SINGLE).unwrap();
        let mut taps = g.fork(x, 2).unwrap();
        let b = taps.pop().unwrap();
        let a = taps.pop().unwrap();
        // pool one branch so shapes diverge: the join must reject it
        let pgeo = ConvGeometry::new(input, 2, 2, 2, 0);
        let pool = dfcnn_nn::layer::Pool2d::new(pgeo, dfcnn_nn::layer::PoolKind::Max);
        let a = g.layer(a, pool, LayerPorts::SINGLE).unwrap();
        let err = g.add(a, b).unwrap_err();
        assert!(err.contains("share a shape"), "{err}");
    }

    #[test]
    fn graph_with_port_mismatch_inserts_an_adapter() {
        let input = Shape3::new(8, 8, 2);
        let geo = ConvGeometry::new(input, 3, 3, 1, 1);
        let mk_conv = |seed: usize| {
            let f = Tensor4::from_fn(2, 3, 3, 2, move |k, y, x, c| {
                ((seed + k + y + x + c) as f32) * 0.03
            });
            Conv2d::new(geo, f, Tensor1::zeros(2), Activation::Identity)
        };
        let (mut g, x) = GraphBuilder::new(input, DesignConfig::default());
        let x = g.layer(x, mk_conv(0), LayerPorts::SINGLE).unwrap();
        let mut taps = g.fork(x, 2).unwrap();
        let skip = taps.pop().unwrap();
        let a = taps.pop().unwrap();
        // branch conv reads 2 ports while the fork emits 1: demux needed
        let a = g
            .layer(
                a,
                mk_conv(1),
                LayerPorts {
                    in_ports: 2,
                    out_ports: 1,
                },
            )
            .unwrap();
        let x = g.add(a, skip).unwrap();
        let d = g.finish(x).unwrap();
        assert!(
            d.cores().iter().any(|c| c.name.starts_with("demux")),
            "missing demux: {:?}",
            d.cores().iter().map(|c| &c.name).collect::<Vec<_>>()
        );
    }

    #[test]
    fn concat_rejects_bad_wiring() {
        let input = Shape3::new(8, 8, 2);
        let geo = ConvGeometry::new(input, 3, 3, 1, 1);
        let mk_conv = || {
            let f = Tensor4::from_fn(2, 3, 3, 2, |_, _, _, _| 0.1);
            Conv2d::new(geo, f, Tensor1::zeros(2), Activation::Identity)
        };
        // pixel-grid mismatch
        let (mut g, x) = GraphBuilder::new(input, DesignConfig::default());
        let x = g.layer(x, mk_conv(), LayerPorts::SINGLE).unwrap();
        let mut taps = g.fork(x, 2).unwrap();
        let b = taps.pop().unwrap();
        let a = taps.pop().unwrap();
        let pgeo = ConvGeometry::new(input, 2, 2, 2, 0);
        let pool = dfcnn_nn::layer::Pool2d::new(pgeo, dfcnn_nn::layer::PoolKind::Max);
        let a = g.layer(a, pool, LayerPorts::SINGLE).unwrap();
        let err = g.concat(a, b).unwrap_err();
        assert!(err.contains("pixel grid"), "{err}");

        // port-count mismatch
        let (mut g, x) = GraphBuilder::new(input, DesignConfig::default());
        let x = g.layer(x, mk_conv(), LayerPorts::SINGLE).unwrap();
        let mut taps = g.fork(x, 2).unwrap();
        let b = taps.pop().unwrap();
        let a = taps.pop().unwrap();
        let a = g
            .layer(
                a,
                mk_conv(),
                LayerPorts {
                    in_ports: 1,
                    out_ports: 2,
                },
            )
            .unwrap();
        let err = g.concat(a, b).unwrap_err();
        assert!(err.contains("share a port count"), "{err}");
    }

    #[test]
    fn concat_join_widens_the_stream() {
        let input = Shape3::new(6, 6, 2);
        let geo = ConvGeometry::new(input, 3, 3, 1, 1);
        let mk_conv = |maps: usize| {
            let f = Tensor4::from_fn(maps, 3, 3, 2, |k, y, x, c| ((k + y + x + c) as f32) * 0.02);
            Conv2d::new(geo, f, Tensor1::zeros(maps), Activation::Identity)
        };
        let (mut g, x) = GraphBuilder::new(input, DesignConfig::default());
        let x = g.layer(x, mk_conv(2), LayerPorts::SINGLE).unwrap();
        let mut taps = g.fork(x, 2).unwrap();
        let b = taps.pop().unwrap();
        let a = taps.pop().unwrap();
        let a = g.layer(a, mk_conv(4), LayerPorts::SINGLE).unwrap();
        let x = g.concat(a, b).unwrap();
        assert_eq!(x.shape(), Shape3::new(6, 6, 6));
        let d = g.finish(x).unwrap();
        assert!(d.cores().iter().any(|c| c.name.starts_with("concat")));
        // the concat's two in-edges carry per-operand volumes
        let concat_idx = d
            .cores()
            .iter()
            .position(|c| c.name.starts_with("concat"))
            .unwrap();
        let vols: Vec<u64> = d
            .edges()
            .iter()
            .filter(|e| e.to == NodeRef::Core(concat_idx))
            .map(|e| e.values_per_image)
            .collect();
        assert_eq!(vols, vec![4 * 36, 2 * 36]);
    }

    #[test]
    fn graph_spec_lowers_without_hand_wiring() {
        use dfcnn_nn::topology::GraphSpec;
        let spec = GraphSpec::resnet8(Shape3::new(8, 8, 3), [2, 4, 4], 4);
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let layers = spec.build_layers(&mut rng);
        let ports = PortConfig::single_port(spec.paper_depth());
        let d = build_graph_design(&spec, &layers, &ports, DesignConfig::default()).unwrap();
        let names: Vec<&str> = d.cores().iter().map(|c| c.name.as_str()).collect();
        // three residual blocks: three forks, three adds, two 1x1 skips
        assert_eq!(names.iter().filter(|n| n.starts_with("fork")).count(), 3);
        assert_eq!(names.iter().filter(|n| n.starts_with("add")).count(), 3);
        assert_eq!(names.iter().filter(|n| n.starts_with("conv")).count(), 9);
        assert_eq!(d.classes(), 4);
        assert!(d.is_graph());

        // the inception cell folds its 4-way concat pairwise
        let spec = GraphSpec::inception_cell();
        let layers = spec.build_layers(&mut rng);
        let ports = PortConfig::single_port(spec.paper_depth());
        let d = build_graph_design(&spec, &layers, &ports, DesignConfig::default()).unwrap();
        let concats = d
            .cores()
            .iter()
            .filter(|c| c.name.starts_with("concat"))
            .count();
        assert_eq!(concats, 3);
    }

    #[test]
    fn graph_lowering_rejects_mismatched_ports_len() {
        use dfcnn_nn::topology::GraphSpec;
        let spec = GraphSpec::inception_cell();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let layers = spec.build_layers(&mut rng);
        let short = PortConfig::single_port(spec.paper_depth() - 1);
        let err = build_graph_design(&spec, &layers, &short, DesignConfig::default()).unwrap_err();
        assert!(err.contains("shorter"), "{err}");
        let long = PortConfig::single_port(spec.paper_depth() + 1);
        let err = build_graph_design(&spec, &layers, &long, DesignConfig::default()).unwrap_err();
        assert!(err.contains("longer"), "{err}");
    }
}
