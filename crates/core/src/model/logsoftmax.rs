//! The on-fabric log-softmax normalisation core.
//!
//! The paper keeps normalisation on the host ("the final LogSoftMax is
//! computed on the CPU"); this kind moves it onto the fabric so the chain
//! classifies end-to-end without a host post-pass. It is opt-in via
//! [`DesignConfig::fabric_normalization`] and is *not* a paper layer: it
//! carries no [`crate::graph::PortConfig`] entry and is always
//! single-input-port / single-output-port, like the FC core it follows.
//!
//! Dataflow per image: buffer the `K` class scores, then run the
//! numerically-stable pipeline `max -> exp -> tree-sum -> ln -> subtract`
//! and drain the `K` normalised log-probabilities one per cycle — the
//! [`GatherCore`] shell around a [`LogSoftmaxBody`]. The
//! compute goes through [`crate::kernel::logsoftmax_forward_into`] — the
//! same kernel used by the host pipeline stage and `hw_forward` — so all
//! three engines stay bit-identical.

use super::gather::{GatherBody, GatherCore};
use super::{CoreModel, CorePlan, LayerModel, StageSpec};
use crate::graph::{CoreInfo, DesignConfig, LayerPorts, NetworkDesign};
use crate::kernel::{logsoftmax_forward_into, LogSoftmaxArena};
use crate::sim::Actor;
use crate::stream::ChannelId;
use dfcnn_fpga::resources::{CoreKind, CoreParams};
use dfcnn_hls::ii::pipeline_ii;
use dfcnn_hls::latency::OpLatency;
use dfcnn_hls::reduce::TreeAdder;
use dfcnn_nn::layer::Layer;
use dfcnn_tensor::{with_numeric, Numeric, Shape3};
use std::fmt::Write as _;

/// The normalisation [`CoreModel`].
pub struct LogSoftmaxModel;

fn classes_of(layer: &Layer) -> usize {
    match layer {
        Layer::LogSoftmax(l) => l.classes(),
        _ => unreachable!("logsoftmax model handed a non-normalisation layer"),
    }
}

/// Drain latency after the last score: exponentiation, the adder-tree
/// reduction of the exponentials, the logarithm, and the final subtract.
fn drain_latency(classes: usize, ops: &OpLatency) -> u64 {
    ops.activation as u64
        + TreeAdder::new(classes).latency(ops) as u64
        + ops.activation as u64
        + ops.add as u64
}

/// The log-softmax [`GatherBody`], and the normalisation host stage's
/// worker. Weight-free; generic over the executed element type: scores
/// are quantised on ingest and the normalised scores re-quantised on
/// emission; the exp/ln pipeline stays f32 (see
/// [`logsoftmax_forward_into`]).
pub struct LogSoftmaxBody<E> {
    arena: LogSoftmaxArena<E>,
    classes: usize,
}

impl<E: Numeric> LogSoftmaxBody<E> {
    /// The body for a `classes`-wide score vector.
    pub fn new(classes: usize) -> Self {
        LogSoftmaxBody {
            arena: LogSoftmaxArena::new(classes),
            classes,
        }
    }
}

impl<E: Numeric> GatherBody for LogSoftmaxBody<E> {
    fn inputs(&self) -> usize {
        self.classes
    }

    fn outputs(&self) -> usize {
        self.classes
    }

    fn compute(&mut self, input: &[f32], out: &mut [f32]) {
        logsoftmax_forward_into(out, input, &mut self.arena);
    }
}

/// The normalisation core as a cycle actor: the [`GatherCore`] shell
/// around a [`LogSoftmaxBody`], reading one score per cycle.
pub fn logsoftmax_core<E: Numeric>(
    name: impl Into<String>,
    classes: usize,
    in_ch: ChannelId,
    out_ch: ChannelId,
    ops: &OpLatency,
) -> GatherCore<LogSoftmaxBody<E>> {
    let body = LogSoftmaxBody::new(classes);
    GatherCore::new(name, in_ch, out_ch, body, 1, drain_latency(classes, ops))
}

impl LayerModel for LogSoftmaxModel {
    fn feature_maps(&self, layer: &Layer) -> (usize, usize) {
        let k = classes_of(layer);
        (k, k)
    }

    fn forces_single_port(&self) -> bool {
        true
    }

    fn plan(&self, layer: &Layer, lp: LayerPorts, _config: &DesignConfig) -> CorePlan {
        let k = classes_of(layer);
        CorePlan {
            params: CoreParams {
                kind: CoreKind::LogSoftmax,
                in_fm: k,
                out_fm: k,
                in_ports: lp.in_ports,
                out_ports: lp.out_ports,
                kh: 1,
                kw: 1,
                image_w: 1,
                ii: pipeline_ii(k, lp.in_ports, k, lp.out_ports),
                weights: 0,
                accumulators: 1,
            },
            in_values_per_image: k as u64,
            positions: 0,
        }
    }
}

impl CoreModel for LogSoftmaxModel {
    fn kind(&self) -> CoreKind {
        CoreKind::LogSoftmax
    }

    fn label(&self) -> &'static str {
        "logsoftmax"
    }

    fn estimate_interval(&self, core: &CoreInfo, config: &DesignConfig) -> u64 {
        // K reads + the max/exp/sum/ln drain + K writes, no image overlap
        let k = core.params.in_fm as u64;
        k + drain_latency(core.params.in_fm, &config.ops) + k
    }

    fn range_transfer(
        &self,
        _design: &NetworkDesign,
        core: &CoreInfo,
        quantiser: crate::range::Quantiser,
        inputs: &[crate::range::Interval],
    ) -> crate::range::Transfer {
        crate::range::logsoftmax_transfer(
            quantiser.spec(),
            crate::range::Interval::union_all(inputs),
            core.params.in_fm,
        )
    }

    fn block_label(&self, core: &CoreInfo) -> String {
        format!("[{} logsoftmax K={}]", core.name, core.params.in_fm)
    }

    fn make_actor(
        &self,
        design: &NetworkDesign,
        core: &CoreInfo,
        in_chs: Vec<ChannelId>,
        out_chs: Vec<ChannelId>,
    ) -> Box<dyn Actor> {
        with_numeric!(design.config().numeric, E => Box::new(logsoftmax_core::<E>(
            core.name.clone(),
            core.params.in_fm,
            in_chs[0],
            out_chs[0],
            &design.config().ops,
        )))
    }

    fn emit_cpp(&self, design: &NetworkDesign, idx: usize) -> String {
        use crate::codegen::header;
        let info = &design.cores()[idx];
        let k = info.params.in_fm;
        let mut s = header();
        let _ = write!(
            s,
            "// log-softmax normalisation core: weight-free, single-input-port/\n\
             // single-output-port. Numerically stable form: max-shift, exp,\n\
             // adder-tree sum, ln, subtract.\n\
             void {name}(hls::stream<float> &in0, hls::stream<float> &out0) {{\n\
             #pragma HLS INTERFACE axis port=in0\n\
             #pragma HLS INTERFACE axis port=out0\n\
             \x20   float scores[{k}];\n\
             #pragma HLS ARRAY_PARTITION variable=scores complete\n\
             \x20   float m = -INFINITY;\n\
             \x20   read_max: for (int i = 0; i < {k}; ++i) {{\n\
             #pragma HLS PIPELINE II=1\n\
             \x20       scores[i] = in0.read();\n\
             \x20       m = fmaxf(m, scores[i]);\n\
             \x20   }}\n\
             \x20   float exps[{k}];\n\
             #pragma HLS ARRAY_PARTITION variable=exps complete\n\
             \x20   exponentiate: for (int i = 0; i < {k}; ++i) {{\n\
             #pragma HLS PIPELINE II=1\n\
             \x20       exps[i] = expf(scores[i] - m);\n\
             \x20   }}\n\
             \x20   float lse = logf(merge_tree_{k}(exps));\n\
             \x20   drain: for (int i = 0; i < {k}; ++i) {{\n\
             #pragma HLS PIPELINE II=1\n\
             \x20       out0.write(scores[i] - m - lse);\n\
             \x20   }}\n\
             }}\n",
            name = info.name,
            k = k,
        );
        s
    }

    fn stage(
        &self,
        design: &NetworkDesign,
        core: &CoreInfo,
        _in_shapes: &[Shape3],
    ) -> Option<StageSpec> {
        let k = classes_of(&design.network().layers()[core.layer_index?]);
        Some(with_numeric!(design.config().numeric, E => StageSpec::new(
            core.name.clone(),
            Shape3::new(1, 1, k),
            move || Box::new(LogSoftmaxBody::<E>::new(k)),
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::tests::logsoftmax_forward_hw;
    use crate::stream::ChannelSet;
    use crate::trace::Trace;
    use dfcnn_nn::layer::LogSoftmax;
    use dfcnn_tensor::Tensor3;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn run_core(scores: &[f32], images: usize) -> (Vec<Vec<f32>>, u64) {
        let k = scores.len();
        let mut chans = ChannelSet::new();
        let inp = chans.alloc(8);
        let out = chans.alloc(8);
        let ops = OpLatency::f32_virtex7();
        let mut core = logsoftmax_core::<f32>("logsoftmax", k, inp, out, &ops);
        let mut feed: Vec<f32> = Vec::new();
        for _ in 0..images {
            feed.extend_from_slice(scores);
        }
        let mut cursor = 0;
        let mut results = vec![Vec::new(); images];
        let mut img = 0;
        let mut trace = Trace::disabled();
        let mut cycle = 0u64;
        while img < images {
            if cursor < feed.len() && chans.can_push(inp) {
                chans.push(inp, feed[cursor]);
                cursor += 1;
            }
            core.tick(cycle, &mut chans, &mut trace);
            while let Some(v) = chans.pop(out) {
                results[img].push(v);
                if results[img].len() == k {
                    img += 1;
                }
            }
            chans.commit_all();
            cycle += 1;
            assert!(cycle < 1_000_000, "logsoftmax core made no progress");
        }
        (results, cycle)
    }

    fn random_scores(seed: u64, k: usize) -> Vec<f32> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        dfcnn_tensor::init::random_vector(&mut rng, k, -4.0, 4.0)
            .as_slice()
            .to_vec()
    }

    #[test]
    fn actor_matches_hw_kernel_exactly() {
        let scores = random_scores(1, 10);
        let (res, _) = run_core(&scores, 1);
        let x = Tensor3::from_vec(Shape3::new(1, 1, 10), scores.clone());
        let expect = logsoftmax_forward_hw(&x);
        assert_eq!(res[0].as_slice(), expect.as_slice());
    }

    #[test]
    fn close_to_reference_layer_and_normalised() {
        let scores = random_scores(2, 10);
        let (res, _) = run_core(&scores, 1);
        let x = Tensor3::from_vec(Shape3::new(1, 1, 10), scores.clone());
        let reference = LogSoftmax::new(10).forward(&x);
        for (a, b) in res[0].iter().zip(reference.as_slice()) {
            // hw sums the exponentials with an adder tree, the reference
            // left-to-right: identical up to rounding
            assert!((a - b).abs() < 1e-5, "hw {a} vs reference {b}");
        }
        let prob_sum: f32 = res[0].iter().map(|v| v.exp()).sum();
        assert!(
            (prob_sum - 1.0).abs() < 1e-5,
            "probabilities sum to {prob_sum}"
        );
    }

    #[test]
    fn back_to_back_images_and_drain_gap() {
        let scores = random_scores(3, 6);
        let (res, cycles) = run_core(&scores, 3);
        assert_eq!(res.len(), 3);
        assert_eq!(res[0], res[1]);
        assert_eq!(res[1], res[2]);
        let ops = OpLatency::f32_virtex7();
        // each image pays at least reads + drain + writes
        assert!(cycles >= 3 * (6 + drain_latency(6, &ops) + 6) - 8);
    }

    #[test]
    fn plan_is_single_port_and_weight_free() {
        let m = LogSoftmaxModel;
        let layer = Layer::LogSoftmax(LogSoftmax::new(10));
        assert!(m.forces_single_port());
        let plan = m.plan(&layer, LayerPorts::SINGLE, &DesignConfig::default());
        assert_eq!(plan.params.kind, CoreKind::LogSoftmax);
        assert_eq!(plan.params.weights, 0);
        assert_eq!(plan.params.in_fm, 10);
        assert_eq!(plan.in_values_per_image, 10);
        assert_eq!(plan.positions, 0);
    }
}
