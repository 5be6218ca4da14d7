//! The fully-connected layer kind (§IV-B): a single-input-port /
//! single-output-port 1×1 convolution with interleaved accumulators.
//!
//! "we decided to implement a FCN layer as a single-input-port/
//! single-output-port convolutional layer. In this way, the number of
//! parallel multiplications is reduced, while the execution time remains
//! linearly related to the number of input and output values."
//!
//! For each input value, all `OUT_FM` 1×1 convolutions happen in the same
//! cycle; the floating-point accumulation latency is hidden by interleaved
//! accumulator banks (see [`dfcnn_hls::accum`]): with `A` banks the input
//! loop runs at `II = ceil(add_latency / A)`. After the last input, the
//! actor ([`fc_core`], the [`GatherCore`] shell around an [`FcBody`])
//! drains (pipeline flush + merge tree + bias + activation) and sends the
//! outputs sequentially on its single output port.

use super::gather::{GatherBody, GatherCore};
use super::{validate_ports, CoreModel, CorePlan, LayerModel, StageSpec, StaticProfile};
use crate::graph::{CoreInfo, DesignConfig, LayerPorts, NetworkDesign};
use crate::kernel::{fc_forward_into, FcArena, FcWeights};
use crate::sim::Actor;
use crate::stream::ChannelId;
use dfcnn_fpga::resources::{CoreKind, CoreParams};
use dfcnn_hls::ii::pipeline_ii;
use dfcnn_hls::latency::OpLatency;
use dfcnn_hls::reduce::TreeAdder;
use dfcnn_nn::act::Activation;
use dfcnn_nn::layer::{Layer, Linear};
use dfcnn_tensor::{with_numeric, Numeric, Shape3};
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};

/// The FC [`CoreModel`].
pub struct FcModel;

fn fc_layer(layer: &Layer) -> &Linear {
    match layer {
        Layer::Linear(l) => l,
        _ => unreachable!("fc model handed a non-linear layer"),
    }
}

/// Input-loop initiation interval of an FC core with `banks` interleaved
/// accumulators: `ceil(add_latency / banks)`, at least one cycle.
fn input_ii(banks: usize, ops: &OpLatency) -> u64 {
    u64::from(ops.add).div_ceil(banks as u64).max(1)
}

/// Drain latency after the last input: the add pipeline flush, the merge
/// tree over the banks, the bias add and the activation.
fn drain_latency(banks: usize, ops: &OpLatency) -> u64 {
    u64::from(ops.add)
        + u64::from(TreeAdder::new(banks).latency(ops))
        + u64::from(ops.add)
        + u64::from(ops.activation)
}

/// The FC [`GatherBody`], and the FC host stage's worker. Generic over the
/// executed element type: the shared [`FcWeights`] store holds the
/// quantised weights and bias; input values are quantised and outputs
/// dequantised inside [`fc_forward_into`] (identities for `E = f32`),
/// which reproduces the interleaved-accumulator order.
pub struct FcBody<E: Numeric> {
    weights: Arc<FcWeights<E>>,
    arena: FcArena<E>,
    activation: Activation,
    inputs: usize,
    outputs: usize,
}

impl<E: Numeric> FcBody<E> {
    /// The body of `linear` over its quantised `weights`, with `banks`
    /// interleaved accumulators.
    pub fn new(linear: &Linear, weights: Arc<FcWeights<E>>, banks: usize) -> Self {
        FcBody {
            arena: FcArena::new(&weights, banks),
            weights,
            activation: linear.activation(),
            inputs: linear.inputs(),
            outputs: linear.outputs(),
        }
    }
}

impl<E: Numeric> GatherBody for FcBody<E> {
    fn inputs(&self) -> usize {
        self.inputs
    }

    fn outputs(&self) -> usize {
        self.outputs
    }

    fn compute(&mut self, input: &[f32], out: &mut [f32]) {
        fc_forward_into(out, &self.weights, &mut self.arena, self.activation, input);
    }
}

/// The FC compute core: the [`GatherCore`] shell around an [`FcBody`],
/// accepting inputs at the accumulator-bank II.
pub fn fc_core<E: Numeric>(
    name: impl Into<String>,
    linear: &Linear,
    in_ch: ChannelId,
    out_ch: ChannelId,
    banks: usize,
    ops: &OpLatency,
) -> GatherCore<FcBody<E>> {
    let weights = Arc::new(FcWeights::new(linear.weights(), linear.bias()));
    let body = FcBody::new(linear, weights, banks);
    GatherCore::new(
        name,
        in_ch,
        out_ch,
        body,
        input_ii(banks, ops),
        drain_latency(banks, ops),
    )
}

impl LayerModel for FcModel {
    fn feature_maps(&self, layer: &Layer) -> (usize, usize) {
        let f = fc_layer(layer);
        (f.inputs(), f.outputs())
    }

    fn forces_single_port(&self) -> bool {
        true
    }

    fn validate(&self, name: &str, layer: &Layer, lp: LayerPorts) -> Result<(), String> {
        if lp != LayerPorts::SINGLE {
            return Err(format!(
                "{name}: FC layers are always single-input-port/single-output-port (§IV-B)"
            ));
        }
        let (in_fm, out_fm) = self.feature_maps(layer);
        validate_ports(name, in_fm, out_fm, lp)
    }

    fn plan(&self, layer: &Layer, lp: LayerPorts, config: &DesignConfig) -> CorePlan {
        let f = fc_layer(layer);
        let (in_fm, out_fm) = (f.inputs(), f.outputs());
        CorePlan {
            params: CoreParams {
                kind: CoreKind::Fc,
                in_fm,
                out_fm,
                in_ports: lp.in_ports,
                out_ports: lp.out_ports,
                kh: 1,
                kw: 1,
                image_w: 1,
                ii: pipeline_ii(in_fm, lp.in_ports, out_fm, lp.out_ports),
                weights: f.weights().len(),
                accumulators: config.fc_banks,
            },
            in_values_per_image: in_fm as u64,
            positions: 0,
        }
    }
}

impl CoreModel for FcModel {
    fn kind(&self) -> CoreKind {
        CoreKind::Fc
    }

    fn label(&self) -> &'static str {
        "fc"
    }

    fn estimate_interval(&self, core: &CoreInfo, config: &DesignConfig) -> u64 {
        let p = &core.params;
        p.in_fm as u64 * input_ii(p.accumulators, &config.ops) + p.out_fm as u64
    }

    fn range_transfer(
        &self,
        design: &NetworkDesign,
        core: &CoreInfo,
        quantiser: crate::range::Quantiser,
        inputs: &[crate::range::Interval],
    ) -> crate::range::Transfer {
        let idx = core.layer_index.expect("fc core has a layer");
        let f = fc_layer(&design.network().layers()[idx]);
        let w = f.weights();
        let bias = f.bias().as_slice();
        let channels = (0..f.outputs()).map(|j| (w.filter(j), bias[j]));
        crate::range::mac_transfer(
            quantiser,
            crate::range::Interval::union_all(inputs),
            channels,
            f.activation(),
        )
    }

    fn static_profile(&self, design: &NetworkDesign, core: &CoreInfo) -> StaticProfile {
        let idx = core.layer_index.expect("fc core has a layer");
        let layer = &design.network().layers()[idx];
        let f = fc_layer(layer);
        let lp = LayerPorts {
            in_ports: core.params.in_ports,
            out_ports: core.params.out_ports,
        };
        StaticProfile {
            out_values_per_image: f.outputs() as u64,
            expected_ii: self.plan(layer, lp, design.config()).params.ii,
            line_buffer: None,
        }
    }

    fn block_label(&self, core: &CoreInfo) -> String {
        let p = &core.params;
        format!(
            "[{} {}->{} 1x1conv acc={}]",
            core.name, p.in_fm, p.out_fm, p.accumulators
        )
    }

    fn make_actor(
        &self,
        design: &NetworkDesign,
        core: &CoreInfo,
        in_chs: Vec<ChannelId>,
        out_chs: Vec<ChannelId>,
    ) -> Box<dyn Actor> {
        let idx = core.layer_index.expect("fc core has a layer");
        let l = fc_layer(&design.network().layers()[idx]);
        with_numeric!(design.config().numeric, E => Box::new(fc_core::<E>(
            core.name.clone(),
            l,
            in_chs[0],
            out_chs[0],
            core.params.accumulators,
            &design.config().ops,
        )))
    }

    fn emit_cpp(&self, design: &NetworkDesign, idx: usize) -> String {
        use crate::codegen::{header, weight_array};
        let info = &design.cores()[idx];
        let p = &info.params;
        let layer = fc_layer(&design.network().layers()[info.layer_index.unwrap()]);
        let mut s = header();
        s.push_str(&weight_array(
            &format!("{}_weights", info.name),
            layer.weights().as_slice(),
        ));
        s.push_str(&weight_array(
            &format!("{}_bias", info.name),
            layer.bias().as_slice(),
        ));
        let _ = write!(
            s,
            "\n// fully-connected layer as a 1x1 convolution (SIV-B):\n\
             // single-input-port/single-output-port, {i} inputs -> {j} outputs,\n\
             // {banks} interleaved accumulators hide the 11-cycle f32 add latency\n\
             void {name}(hls::stream<float> &in0, hls::stream<float> &out0) {{\n\
             #pragma HLS INTERFACE axis port=in0\n\
             #pragma HLS INTERFACE axis port=out0\n\
             \x20   float acc[{j}][{banks}];\n\
             #pragma HLS ARRAY_PARTITION variable=acc complete dim=0\n\
             \x20   accumulate: for (int i = 0; i < {i}; ++i) {{\n\
             #pragma HLS PIPELINE II=1\n\
             #pragma HLS UNROLL factor={banks}\n\
             \x20       float x = in0.read();\n\
             \x20       // all OUT_FM 1x1 convolutions in the same clock cycle\n\
             \x20       for (int jj = 0; jj < {j}; ++jj)\n\
             \x20           acc[jj][i % {banks}] += {name}_weights[jj * {i} + i] * x;\n\
             \x20   }}\n\
             \x20   drain: for (int jj = 0; jj < {j}; ++jj) {{\n\
             #pragma HLS PIPELINE II=1\n\
             \x20       out0.write(activation(merge_tree_{banks}(acc[jj]) + {name}_bias[jj]));\n\
             \x20   }}\n\
             }}\n",
            i = p.in_fm,
            j = p.out_fm,
            banks = p.accumulators,
            name = info.name,
        );
        s
    }

    fn stage(
        &self,
        design: &NetworkDesign,
        core: &CoreInfo,
        _in_shapes: &[Shape3],
    ) -> Option<StageSpec> {
        let f = fc_layer(&design.network().layers()[core.layer_index?]).clone();
        let banks = design.config().fc_banks;
        let out_shape = Shape3::new(1, 1, f.outputs());
        Some(with_numeric!(design.config().numeric, E => {
            // quantised by the stage's first worker, shared with the rest
            let weights = OnceLock::new();
            StageSpec::new(core.name.clone(), out_shape, move || {
                let weights: &Arc<FcWeights<E>> =
                    weights.get_or_init(|| Arc::new(FcWeights::new(f.weights(), f.bias())));
                Box::new(FcBody::new(&f, Arc::clone(weights), banks))
            })
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::ChannelSet;
    use crate::trace::Trace;
    use dfcnn_tensor::Tensor3;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn small_fc() -> Layer {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let net = dfcnn_nn::topology::NetworkSpec::test_case_1().build(&mut rng);
        net.layers()
            .iter()
            .find(|l| matches!(l, Layer::Linear(_)))
            .unwrap()
            .clone()
    }

    #[test]
    fn validate_rejects_multi_port_before_anything_else() {
        let m = FcModel;
        let layer = small_fc();
        let err = m
            .validate(
                "fc1",
                &layer,
                LayerPorts {
                    in_ports: 1,
                    out_ports: 2,
                },
            )
            .unwrap_err();
        assert!(err.contains("single-input-port"), "{err}");
        // even a non-divisor multi-port choice reports the §IV-B rule first
        let err = m
            .validate(
                "fc1",
                &layer,
                LayerPorts {
                    in_ports: 7,
                    out_ports: 3,
                },
            )
            .unwrap_err();
        assert!(err.contains("single-input-port"), "{err}");
        assert!(m.validate("fc1", &layer, LayerPorts::SINGLE).is_ok());
    }

    #[test]
    fn dse_options_are_pinned_single_port() {
        let m = FcModel;
        let layer = small_fc();
        assert!(m.forces_single_port());
        assert_eq!(m.out_port_options(&layer, 16), vec![1]);
    }

    // ----- the FC actor

    use crate::kernel::tests::fc_forward_hw;

    fn random_fc(seed: u64, inputs: usize, outputs: usize) -> (Linear, Tensor3<f32>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let w = dfcnn_tensor::init::linear_weights(&mut rng, inputs, outputs);
        let b = dfcnn_tensor::init::random_vector(&mut rng, outputs, -0.1, 0.1);
        let fc = Linear::new(w, b, Activation::Tanh);
        let x = dfcnn_tensor::init::random_volume(&mut rng, Shape3::new(1, 1, inputs), -1.0, 1.0);
        (fc, x)
    }

    fn run_core(
        fc: &Linear,
        banks: usize,
        x: &Tensor3<f32>,
        images: usize,
    ) -> (Vec<Vec<f32>>, u64) {
        let mut chans = ChannelSet::new();
        let inp = chans.alloc(8);
        let out = chans.alloc(8);
        let ops = OpLatency::f32_virtex7();
        let mut core = fc_core::<f32>("fc", fc, inp, out, banks, &ops);
        let mut feed: Vec<f32> = Vec::new();
        for _ in 0..images {
            feed.extend_from_slice(x.as_slice());
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
                if results[img].len() == fc.outputs() {
                    img += 1;
                }
            }
            chans.commit_all();
            cycle += 1;
            assert!(cycle < 1_000_000, "fc core made no progress");
        }
        (results, cycle)
    }

    #[test]
    fn outputs_match_hw_kernel_exactly() {
        let (fc, x) = random_fc(1, 64, 10);
        let (res, _) = run_core(&fc, 11, &x, 1);
        let expect = fc_forward_hw(&fc, 11, &x);
        assert_eq!(res[0].as_slice(), expect.as_slice());
    }

    #[test]
    fn bank_count_controls_input_rate() {
        let (fc, x) = random_fc(2, 100, 4);
        let (_, fast) = run_core(&fc, 11, &x, 1);
        let (_, slow) = run_core(&fc, 1, &x, 1);
        // 1 bank -> II = 11 per input: ~11x slower feed
        assert!(
            slow > fast * 5,
            "1-bank run ({slow}) should be much slower than 11-bank ({fast})"
        );
    }

    #[test]
    fn back_to_back_images_are_processed() {
        let (fc, x) = random_fc(3, 20, 5);
        let (res, _) = run_core(&fc, 11, &x, 3);
        assert_eq!(res.len(), 3);
        assert_eq!(res[0], res[1]);
        assert_eq!(res[1], res[2]);
    }

    #[test]
    fn stage_interval_formula() {
        // one image takes I·II + drain + J cycles from its first input to
        // its last output
        let (fc, x) = random_fc(4, 90, 12);
        let ops = OpLatency::f32_virtex7();
        for banks in [11, 4] {
            let mut chans = ChannelSet::new();
            let (i, o) = (chans.alloc(128), chans.alloc(16));
            for &v in x.as_slice() {
                chans.push(i, v);
            }
            chans.commit_all();
            let mut core = fc_core::<f32>("fc", &fc, i, o, banks, &ops);
            let mut trace = Trace::enabled();
            for c in 0..2000 {
                core.tick(c, &mut chans, &mut trace);
                chans.commit_all();
            }
            let ii = input_ii(banks, &ops);
            assert_eq!(ii, if banks == 11 { 1 } else { 3 });
            let first = trace.initiation_cycles("fc")[0];
            let last = *trace.emit_cycles("fc").last().unwrap();
            let span = 90 * ii + drain_latency(banks, &ops) + 12;
            // the last input is accepted at (I-1)·II and the last output
            // leaves J-1 cycles after the drain
            assert_eq!(last - first, span - ii - 1);
        }
    }

    #[test]
    fn single_output_layer_works() {
        let (fc, x) = random_fc(5, 8, 1);
        let (res, _) = run_core(&fc, 11, &x, 2);
        assert_eq!(res[0].len(), 1);
        assert_eq!(res[0], res[1]);
    }
}
