//! The convolutional layer kind (§IV-A, Algorithm 1).

use super::windowed::{windowed_interval, windowed_profile, WindowBody, WindowedCore};
use super::{CoreModel, CorePlan, LayerModel, StageSpec, StageWorker, StaticProfile};
use crate::graph::{CoreInfo, DesignConfig, LayerPorts, NetworkDesign};
use crate::kernel::{conv_forward_hw_into, conv_window_packed, ConvArena, PackedFilters, LANES};
use crate::sim::Actor;
use crate::stream::ChannelId;
use dfcnn_fpga::resources::{CoreKind, CoreParams};
use dfcnn_hls::ii::pipeline_ii;
use dfcnn_hls::latency::OpLatency;
use dfcnn_hls::pipeline::LoopNest;
use dfcnn_nn::act::Activation;
use dfcnn_nn::layer::{Conv2d, Layer};
use dfcnn_tensor::{with_numeric, Numeric, Shape3, Tensor3};
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};

/// The conv [`CoreModel`].
pub struct ConvModel;

fn conv_layer(layer: &Layer) -> &Conv2d {
    match layer {
        Layer::Conv(c) => c,
        _ => unreachable!("conv model handed a non-conv layer"),
    }
}

/// The conv compute body (Algorithm 1): all `OUT_FM` outputs of one
/// window in hardware order. Filters and bias are quantised once at
/// build time ([`PackedFilters`]); outputs are dequantised for the `f32`
/// stream transport.
pub struct ConvBody<E: Numeric> {
    filters: PackedFilters<E>,
    activation: Activation,
    in_ports: usize,
    out: Vec<E>,
    scratch: Vec<[E::Acc; LANES]>,
}

impl<E: Numeric> WindowBody<E> for ConvBody<E> {
    fn initiate(&mut self, window: &[E], out: &mut [f32]) {
        conv_window_packed(
            &mut self.out,
            window,
            &self.filters,
            self.activation,
            self.in_ports,
            &mut self.scratch,
        );
        for (o, &v) in out.iter_mut().zip(&self.out) {
            *o = v.to_f32();
        }
    }
}

/// The convolution core (§IV-A, Algorithm 1) as a cycle actor: the conv
/// body in the shared SST shell.
pub type ConvCore<E = f32> = WindowedCore<E, ConvBody<E>>;

impl<E: Numeric> ConvCore<E> {
    /// Build a core from the reference layer's parameters and a port
    /// configuration. `ii` must come from Eq. 4
    /// ([`dfcnn_hls::ii::pipeline_ii`]); the graph builder computes it.
    pub fn new(
        name: impl Into<String>,
        conv: &Conv2d,
        in_chs: Vec<ChannelId>,
        out_chs: Vec<ChannelId>,
        ii: usize,
        ops: &OpLatency,
    ) -> Self {
        let geo = *conv.geometry();
        let in_ports = in_chs.len();
        let group_len = in_ports * geo.kh * geo.kw;
        let depth = LoopNest::conv_body_depth(group_len, ops) as u64;
        let filters = PackedFilters::new(conv.filters(), conv.bias());
        let body = ConvBody {
            scratch: vec![[E::Acc::default(); LANES]; filters.scratch_len(in_ports)],
            filters,
            activation: conv.activation(),
            in_ports,
            out: vec![E::zero(); conv.out_maps()],
        };
        WindowedCore::from_body(name, geo, in_chs, out_chs, conv.out_maps(), ii, depth, body)
    }
}

struct ConvWorker<E: Numeric> {
    layer: Conv2d,
    filters: Arc<PackedFilters<E>>,
    in_ports: usize,
    arena: Box<ConvArena<E>>,
}

impl<E: Numeric> StageWorker for ConvWorker<E> {
    fn apply_multi(&mut self, inputs: &[&Tensor3<f32>], out: &mut Tensor3<f32>) {
        conv_forward_hw_into(
            &self.layer,
            &self.filters,
            self.in_ports,
            inputs[0],
            out,
            &mut self.arena,
        );
    }
}

impl LayerModel for ConvModel {
    fn feature_maps(&self, layer: &Layer) -> (usize, usize) {
        let c = conv_layer(layer);
        (c.geometry().input.c, c.out_maps())
    }

    fn plan(&self, layer: &Layer, lp: LayerPorts, _config: &DesignConfig) -> CorePlan {
        let c = conv_layer(layer);
        let g = c.geometry();
        let (in_fm, out_fm) = (g.input.c, c.out_maps());
        CorePlan {
            params: CoreParams {
                kind: CoreKind::Conv,
                in_fm,
                out_fm,
                in_ports: lp.in_ports,
                out_ports: lp.out_ports,
                kh: g.kh,
                kw: g.kw,
                image_w: g.input.w,
                ii: pipeline_ii(in_fm, lp.in_ports, out_fm, lp.out_ports),
                weights: c.filters().len(),
                accumulators: 1,
            },
            in_values_per_image: (g.input.h * g.input.w) as u64 * in_fm as u64,
            positions: g.positions() as u64,
        }
    }
}

impl CoreModel for ConvModel {
    fn kind(&self) -> CoreKind {
        CoreKind::Conv
    }

    fn label(&self) -> &'static str {
        "conv"
    }

    fn estimate_interval(&self, core: &CoreInfo, _config: &DesignConfig) -> u64 {
        windowed_interval(core)
    }

    fn range_transfer(
        &self,
        design: &NetworkDesign,
        core: &CoreInfo,
        quantiser: crate::range::Quantiser,
        inputs: &[crate::range::Interval],
    ) -> crate::range::Transfer {
        let idx = core.layer_index.expect("conv core has a layer");
        let c = conv_layer(&design.network().layers()[idx]);
        let mut input = crate::range::Interval::union_all(inputs);
        if c.geometry().pad > 0 {
            // zero padding injects exact zeros into the window
            input = input.include_zero();
        }
        let f = c.filters();
        let bias = c.bias().as_slice();
        // per channel in the native (dy, dx, ch) order: the f32 fold rounds
        let channels = (0..f.k()).map(|k| (f.filter(k), bias[k]));
        crate::range::mac_transfer(quantiser, input, channels, c.activation())
    }

    fn static_profile(&self, design: &NetworkDesign, core: &CoreInfo) -> StaticProfile {
        let idx = core.layer_index.expect("conv core has a layer");
        let c = conv_layer(&design.network().layers()[idx]);
        windowed_profile(design, core, c.geometry(), c.out_maps())
    }

    fn block_label(&self, core: &CoreInfo) -> String {
        let p = &core.params;
        format!(
            "[{} {}x{} {}->{}FM in:{} out:{} II={}]",
            core.name, p.kh, p.kw, p.in_fm, p.out_fm, p.in_ports, p.out_ports, p.ii
        )
    }

    fn make_actor(
        &self,
        design: &NetworkDesign,
        core: &CoreInfo,
        in_chs: Vec<ChannelId>,
        out_chs: Vec<ChannelId>,
    ) -> Box<dyn Actor> {
        let idx = core.layer_index.expect("conv core has a layer");
        let l = conv_layer(&design.network().layers()[idx]);
        with_numeric!(design.config().numeric, E => Box::new(
            ConvCore::<E>::new(
                core.name.clone(),
                l,
                in_chs,
                out_chs,
                core.params.ii,
                &design.config().ops,
            )
            .with_line_buffer_cap(design.config().line_buffer_cap),
        ))
    }

    fn emit_cpp(&self, design: &NetworkDesign, idx: usize) -> String {
        use crate::codegen::{header, interface_pragmas, stream_args, weight_array};
        let info = &design.cores()[idx];
        let p = &info.params;
        let layer = conv_layer(&design.network().layers()[info.layer_index.unwrap()]);
        let geo = layer.geometry();
        let mut s = header();
        s.push_str(&weight_array(
            &format!("{}_weights", info.name),
            layer.filters().as_slice(),
        ));
        s.push_str(&weight_array(
            &format!("{}_bias", info.name),
            layer.bias().as_slice(),
        ));
        let _ = write!(
            s,
            "\n// convolutional layer: {in_fm} -> {out_fm} FMs, {kh}x{kw} window, stride {st},\n\
             // IN_PORTS={ip}, OUT_PORTS={op}, Eq.4 II={ii}\n\
             void {name}({ins}, {outs}) {{\n{ipr}{opr}",
            in_fm = p.in_fm,
            out_fm = p.out_fm,
            kh = p.kh,
            kw = p.kw,
            st = geo.stride,
            ip = p.in_ports,
            op = p.out_ports,
            ii = p.ii,
            name = info.name,
            ins = stream_args("in", p.in_ports),
            outs = stream_args("out", p.out_ports),
            ipr = interface_pragmas("in", p.in_ports),
            opr = interface_pragmas("out", p.out_ports),
        );
        let chpp = p.in_fm / p.in_ports;
        let line_words = (p.kh - 1) * p.image_w * chpp + p.kw * chpp;
        let _ = write!(
            s,
            "\n    // SST memory structure: full-buffering line buffer per port\n\
             \x20   static float line[{ip}][{lw}];\n\
             \x20   float window[{ip}][{win}];\n\
             #pragma HLS ARRAY_PARTITION variable=window complete dim=0\n\
             \x20   float outputs[{of}];\n\
             #pragma HLS ARRAY_PARTITION variable=outputs complete\n\n\
             \x20   for (int y = 0; y < {oh}; ++y) {{\n\
             \x20       for (int x = 0; x < {ow}; ++x) {{\n\
             #pragma HLS PIPELINE II={ii}\n\
             \x20           // Algorithm 1: outputs <- biases\n\
             \x20           for (int k = 0; k < {of}; ++k) outputs[k] = {name}_bias[k];\n\
             \x20           // shift the window registers from the line buffers\n\
             \x20           read_window: for (int p = 0; p < {ip}; ++p)\n\
             #pragma HLS PIPELINE II=1\n\
             \x20               shift_window(in0 /* filters chain */, line[p], window[p]);\n\
             \x20           // for i = 0 to IN_FM step IN_PORTS\n\
             \x20           for (int g = 0; g < {groups}; ++g) {{\n\
             \x20               float buf[{grouplen}];\n\
             #pragma HLS ARRAY_PARTITION variable=buf complete\n\
             \x20               for (int k = 0; k < {of}; ++k) {{\n\
             \x20                   // buf <- buf * weights; outputs += reduce(buf)\n\
             \x20                   outputs[k] += reduce_tree_{grouplen}(buf, &{name}_weights[k * {fweights}]);\n\
             \x20               }}\n\
             \x20           }}\n\
             \x20           // send outputs on OUT_PORTS ports, interleaved\n\
             \x20           for (int k = 0; k < {of}; ++k) write_out(k % {op}, activation(outputs[k]));\n\
             \x20       }}\n\
             \x20   }}\n\
             }}\n",
            ip = p.in_ports,
            lw = line_words,
            win = p.kh * p.kw * chpp,
            of = p.out_fm,
            oh = geo.out_h(),
            ow = geo.out_w(),
            ii = p.ii,
            name = info.name,
            groups = p.in_fm / p.in_ports,
            grouplen = p.in_ports * p.kh * p.kw,
            fweights = p.kh * p.kw * p.in_fm,
            op = p.out_ports,
        );
        s
    }

    fn stage(
        &self,
        design: &NetworkDesign,
        core: &CoreInfo,
        _in_shapes: &[Shape3],
    ) -> Option<StageSpec> {
        let c = conv_layer(&design.network().layers()[core.layer_index?]).clone();
        let in_ports = core.params.in_ports;
        Some(with_numeric!(design.config().numeric, E => {
            // quantised by the stage's first worker, shared with the rest
            let filters = OnceLock::new();
            StageSpec::new(core.name.clone(), c.output_shape(), move || {
                let filters: &Arc<PackedFilters<E>> =
                    filters.get_or_init(|| Arc::new(PackedFilters::new(c.filters(), c.bias())));
                Box::new(ConvWorker {
                    arena: Box::new(ConvArena::new(&c, filters, in_ports)),
                    filters: Arc::clone(filters),
                    layer: c.clone(),
                    in_ports,
                })
            })
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn small_conv() -> Layer {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let net = dfcnn_nn::topology::NetworkSpec::test_case_1().build(&mut rng);
        net.layers()[0].clone()
    }

    #[test]
    fn validate_rejects_non_divisor_ports_with_layer_name() {
        let m = ConvModel;
        let layer = small_conv();
        let err = m
            .validate(
                "conv1",
                &layer,
                LayerPorts {
                    in_ports: 1,
                    out_ports: 4,
                },
            )
            .unwrap_err();
        assert!(err.starts_with("conv1:"), "{err}");
        assert!(err.contains("does not divide"), "{err}");
        assert!(m.validate("conv1", &layer, LayerPorts::SINGLE).is_ok());
    }

    #[test]
    fn emitted_cpp_hardcodes_the_trained_weights() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let net = dfcnn_nn::topology::NetworkSpec::test_case_1().build(&mut rng);
        let design = crate::graph::NetworkDesign::new(
            &net,
            crate::graph::PortConfig::paper_test_case_1(),
            DesignConfig::default(),
        )
        .unwrap();
        let src = ConvModel.emit_cpp(&design, 0);
        let layer = conv_layer(&design.network().layers()[0]);
        let w = layer.filters().get(0, 0, 0, 0);
        assert!(
            src.contains(&crate::codegen::lit(w)),
            "first weight must be in the source"
        );
    }

    #[test]
    fn plan_carries_eq4_ii() {
        let m = ConvModel;
        let layer = small_conv();
        // TC1 conv1 fully parallel: 1 in-FM on 1 port, 6 out-FMs on 6 ports
        let plan = m.plan(
            &layer,
            LayerPorts {
                in_ports: 1,
                out_ports: 6,
            },
            &DesignConfig::default(),
        );
        assert_eq!(plan.params.ii, 1);
        assert_eq!(plan.params.weights, 150);
        assert_eq!(plan.in_values_per_image, 16 * 16);
        // 5x5 window over a 16x16 input, stride 1 -> 12x12 positions
        assert_eq!(plan.positions, 12 * 12);
    }

    // ----- the conv actor: the conv body in the shared windowed shell

    use super::super::windowed::tests::{assert_same_bits, run_windowed};
    use dfcnn_tensor::{ConvGeometry, Fixed16, Fixed8, Shape3, Tensor1};

    /// Stream one image through an isolated `ConvCore<E>`.
    fn run_core<E: Numeric>(
        conv: &Conv2d,
        in_ports: usize,
        out_ports: usize,
        ii: usize,
        img: &Tensor3<f32>,
    ) -> (Tensor3<f32>, u64) {
        let ops = OpLatency::f32_virtex7();
        let make = |ins, outs| ConvCore::<E>::new("conv", conv, ins, outs, ii, &ops);
        run_windowed(in_ports, out_ports, make, img, conv.output_shape())
    }

    /// The actor matches the host hardware-order kernel bit for bit in
    /// `f32`, `Fixed16<8>` and `Fixed8<4>`.
    fn assert_core_matches_kernel(
        conv: &Conv2d,
        in_ports: usize,
        out_ports: usize,
        ii: usize,
        img: &Tensor3<f32>,
    ) {
        fn one<E: Numeric>(
            conv: &Conv2d,
            in_ports: usize,
            out_ports: usize,
            ii: usize,
            img: &Tensor3<f32>,
        ) {
            let (got, _) = run_core::<E>(conv, in_ports, out_ports, ii, img);
            let mut expect = Tensor3::zeros(conv.output_shape());
            let filters = PackedFilters::<E>::new(conv.filters(), conv.bias());
            let mut arena = ConvArena::new(conv, &filters, in_ports);
            conv_forward_hw_into(conv, &filters, in_ports, img, &mut expect, &mut arena);
            assert_same_bits::<E>(&got, &expect);
        }
        one::<f32>(conv, in_ports, out_ports, ii, img);
        one::<Fixed16<8>>(conv, in_ports, out_ports, ii, img);
        one::<Fixed8<4>>(conv, in_ports, out_ports, ii, img);
    }

    fn random_conv(
        seed: u64,
        shape: Shape3,
        k: usize,
        khw: usize,
        stride: usize,
        pad: usize,
    ) -> (Conv2d, Tensor3<f32>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let geo = ConvGeometry::new(shape, khw, khw, stride, pad);
        let f = dfcnn_tensor::init::conv_filters(&mut rng, k, khw, khw, shape.c);
        let b = dfcnn_tensor::init::random_vector(&mut rng, k, -0.1, 0.1);
        let conv = Conv2d::new(geo, f, b, Activation::Tanh);
        let img = dfcnn_tensor::init::random_volume(&mut rng, shape, -1.0, 1.0);
        (conv, img)
    }

    #[test]
    fn single_port_core_matches_hw_kernel_exactly() {
        for pad in [0, 1] {
            let (conv, img) = random_conv(1, Shape3::new(8, 8, 3), 4, 3, 1, pad);
            let ii = pipeline_ii(3, 1, 4, 1);
            assert_core_matches_kernel(&conv, 1, 1, ii, &img);
        }
    }

    #[test]
    fn fully_parallel_core_matches() {
        let (conv, img) = random_conv(2, Shape3::new(6, 6, 2), 4, 3, 1, 0);
        let ii = pipeline_ii(2, 2, 4, 4);
        assert_eq!(ii, 1);
        assert_core_matches_kernel(&conv, 2, 4, ii, &img);
    }

    #[test]
    fn mixed_ports_match() {
        let (conv, img) = random_conv(3, Shape3::new(7, 7, 4), 6, 3, 1, 0);
        let ii = pipeline_ii(4, 2, 6, 2);
        assert_core_matches_kernel(&conv, 2, 2, ii, &img);
    }

    #[test]
    fn higher_ii_takes_proportionally_longer() {
        let (conv, img) = random_conv(4, Shape3::new(10, 10, 1), 4, 3, 1, 0);
        let (_, fast) = run_core::<f32>(&conv, 1, 4, 1, &img);
        let (_, slow) = run_core::<f32>(&conv, 1, 1, 4, &img);
        // 64 windows: II=4 adds ~3*63 cycles over II=1
        assert!(
            slow > fast + 150,
            "II=4 run ({slow}) should be much slower than II=1 ({fast})"
        );
    }

    #[test]
    fn strided_core_matches() {
        for (khw, pad) in [(2, 0), (2, 1), (3, 1)] {
            let (conv, img) = random_conv(5, Shape3::new(8, 8, 2), 2, khw, 2, pad);
            let ii = pipeline_ii(2, 1, 2, 1);
            assert_core_matches_kernel(&conv, 1, 1, ii, &img);
        }
    }

    #[test]
    fn identity_1x1_core_passes_values() {
        let geo = ConvGeometry::new(Shape3::new(3, 3, 1), 1, 1, 1, 0);
        let mut f = dfcnn_tensor::Tensor4::zeros(1, 1, 1, 1);
        f.set(0, 0, 0, 0, 1.0);
        let conv = Conv2d::new(geo, f, Tensor1::zeros(1), Activation::Identity);
        let img = Tensor3::from_fn(Shape3::new(3, 3, 1), |y, x, _| (y * 3 + x) as f32);
        let (out, _) = run_core::<f32>(&conv, 1, 1, 1, &img);
        assert_eq!(out, img);
    }
}
