//! The sub-sampling (pooling) layer kind (§IV-A).

use super::windowed::{windowed_interval, windowed_profile, WindowBody, WindowedCore};
use super::{CoreModel, CorePlan, LayerModel, StageSpec, StageWorker, StaticProfile};
use crate::graph::{CoreInfo, DesignConfig, LayerPorts, NetworkDesign};
use crate::kernel::{mean_reciprocal, pool_forward_hw_into, pool_window, PoolArena};
use crate::sim::Actor;
use crate::stream::ChannelId;
use dfcnn_fpga::resources::{CoreKind, CoreParams};
use dfcnn_hls::ii::pipeline_ii;
use dfcnn_hls::latency::OpLatency;
use dfcnn_hls::reduce::TreeAdder;
use dfcnn_nn::layer::{Layer, Pool2d, PoolKind};
use dfcnn_tensor::{with_numeric, Numeric, Shape3, Tensor3};
use std::fmt::Write as _;

/// The pooling [`CoreModel`].
pub struct PoolModel;

fn pool_layer(layer: &Layer) -> &Pool2d {
    match layer {
        Layer::Pool(p) => p,
        _ => unreachable!("pool model handed a non-pool layer"),
    }
}

struct PoolWorker<E: Numeric> {
    layer: Pool2d,
    arena: PoolArena<E>,
}

impl<E: Numeric> StageWorker for PoolWorker<E> {
    fn apply_multi(&mut self, inputs: &[&Tensor3<f32>], out: &mut Tensor3<f32>) {
        pool_forward_hw_into(&self.layer, inputs[0], out, &mut self.arena);
    }
}

/// The pooling compute body: each channel's `KH·KW` slice of the window
/// pooled independently, then dequantised for the `f32` stream transport.
///
/// §IV-C: "as there is no combination between FM and rather just a
/// sub-sampling of each FM, it is possible to insert parallel sub-sampling
/// layer cores, one for each previous layer output port ... the
/// sub-sampling cores act as a standard filter inserted between the
/// convolutional layers without occupying too much area (perfect
/// pipelining and no multiple windows/convolutions)." One body models the
/// whole bank of parallel pooling cores of a layer.
pub struct PoolBody<E> {
    kind: PoolKind,
    /// Values per channel slice, `KH·KW`.
    win: usize,
    /// The quantised [`mean_reciprocal`] of `win`.
    recip: E,
    /// One channel's slice, which [`pool_window`] reduces in place.
    scratch: Vec<E>,
}

impl<E: Numeric> WindowBody<E> for PoolBody<E> {
    fn initiate(&mut self, window: &[E], out: &mut [f32]) {
        for (o, chan) in out.iter_mut().zip(window.chunks_exact(self.win)) {
            self.scratch.copy_from_slice(chan);
            *o = pool_window(self.kind, &mut self.scratch, self.recip).to_f32();
        }
    }
}

/// The pooling core bank as a cycle actor: the pool body in the shared
/// SST shell. Results leave on the same number of ports (the usual
/// configuration) or re-interleaved over a different port count.
pub type PoolCore<E = f32> = WindowedCore<E, PoolBody<E>>;

impl<E: Numeric> PoolCore<E> {
    /// Build the pooling bank from the reference layer and port config.
    /// `ii` must come from Eq. 4 ([`pipeline_ii`]); the graph builder
    /// computes it.
    pub fn new(
        name: impl Into<String>,
        pool: &Pool2d,
        in_chs: Vec<ChannelId>,
        out_chs: Vec<ChannelId>,
        ii: usize,
        ops: &OpLatency,
    ) -> Self {
        let geo = *pool.geometry();
        let win = geo.kh * geo.kw;
        // comparator tree for max, adder tree + scale for mean
        let depth = match pool.kind() {
            PoolKind::Max => TreeAdder::new(win).depth() as u64 * ops.cmp as u64,
            PoolKind::Mean => TreeAdder::new(win).latency(ops) as u64 + ops.mul as u64,
        }
        .max(1);
        let body = PoolBody {
            kind: pool.kind(),
            win,
            recip: E::from_f32(mean_reciprocal(win)),
            scratch: vec![E::zero(); win],
        };
        WindowedCore::from_body(name, geo, in_chs, out_chs, geo.input.c, ii, depth, body)
    }
}

impl LayerModel for PoolModel {
    fn feature_maps(&self, layer: &Layer) -> (usize, usize) {
        let c = pool_layer(layer).geometry().input.c;
        (c, c)
    }

    fn plan(&self, layer: &Layer, lp: LayerPorts, _config: &DesignConfig) -> CorePlan {
        let p = pool_layer(layer);
        let g = p.geometry();
        let fm = g.input.c;
        CorePlan {
            params: CoreParams {
                kind: CoreKind::Pool,
                in_fm: fm,
                out_fm: fm,
                in_ports: lp.in_ports,
                out_ports: lp.out_ports,
                kh: g.kh,
                kw: g.kw,
                image_w: g.input.w,
                ii: pipeline_ii(fm, lp.in_ports, fm, lp.out_ports),
                weights: 0,
                accumulators: 1,
            },
            in_values_per_image: (g.input.h * g.input.w) as u64 * fm as u64,
            positions: g.positions() as u64,
        }
    }
}

impl CoreModel for PoolModel {
    fn kind(&self) -> CoreKind {
        CoreKind::Pool
    }

    fn label(&self) -> &'static str {
        "pool"
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
        let idx = core.layer_index.expect("pool core has a layer");
        let p = pool_layer(&design.network().layers()[idx]);
        let g = p.geometry();
        let input = crate::range::Interval::union_all(inputs);
        match p.kind() {
            PoolKind::Max => crate::range::pool_max_transfer(quantiser.spec(), input),
            PoolKind::Mean => crate::range::pool_mean_transfer(quantiser, input, g.kh * g.kw),
        }
    }

    fn static_profile(&self, design: &NetworkDesign, core: &CoreInfo) -> StaticProfile {
        let idx = core.layer_index.expect("pool core has a layer");
        let g = pool_layer(&design.network().layers()[idx]).geometry();
        windowed_profile(design, core, g, g.input.c)
    }

    fn block_label(&self, core: &CoreInfo) -> String {
        let p = &core.params;
        format!(
            "[{} {}x{} {}FM in:{} out:{}]",
            core.name, p.kh, p.kw, p.in_fm, p.in_ports, p.out_ports
        )
    }

    fn make_actor(
        &self,
        design: &NetworkDesign,
        core: &CoreInfo,
        in_chs: Vec<ChannelId>,
        out_chs: Vec<ChannelId>,
    ) -> Box<dyn Actor> {
        let idx = core.layer_index.expect("pool core has a layer");
        let l = pool_layer(&design.network().layers()[idx]);
        with_numeric!(design.config().numeric, E => Box::new(
            PoolCore::<E>::new(
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
        use crate::codegen::{header, interface_pragmas, stream_args};
        let info = &design.cores()[idx];
        let p = &info.params;
        let layer = pool_layer(&design.network().layers()[info.layer_index.unwrap()]);
        let op_name = match layer.kind() {
            PoolKind::Max => "fmaxf",
            PoolKind::Mean => "mean",
        };
        let mut s = header();
        let _ = write!(
            s,
            "// sub-sampling layer: {fm} FMs, {kh}x{kw} window, stride {st},\n\
             // one parallel pooling core per port (perfect pipelining, SIV-C)\n\
             void {name}({ins}, {outs}) {{\n{ipr}{opr}\
             \x20   for (int y = 0; y < {oh}; ++y)\n\
             \x20       for (int x = 0; x < {ow}; ++x)\n\
             #pragma HLS PIPELINE II={ii}\n\
             \x20           for (int c = 0; c < {chpp}; ++c)\n\
             \x20               emit(window_{op_name}(/* per-channel {kh}x{kw} window */));\n\
             }}\n",
            fm = p.in_fm,
            kh = p.kh,
            kw = p.kw,
            st = layer.geometry().stride,
            name = info.name,
            ins = stream_args("in", p.in_ports),
            outs = stream_args("out", p.out_ports),
            ipr = interface_pragmas("in", p.in_ports),
            opr = interface_pragmas("out", p.out_ports),
            oh = layer.geometry().out_h(),
            ow = layer.geometry().out_w(),
            ii = p.ii,
            chpp = p.in_fm / p.in_ports,
            op_name = op_name,
        );
        s
    }

    fn stage(
        &self,
        design: &NetworkDesign,
        core: &CoreInfo,
        _in_shapes: &[Shape3],
    ) -> Option<StageSpec> {
        let p = pool_layer(&design.network().layers()[core.layer_index?]).clone();
        Some(with_numeric!(design.config().numeric, E => StageSpec::new(
            core.name.clone(),
            p.output_shape(),
            move || {
                Box::new(PoolWorker::<E> {
                    arena: PoolArena::new(&p),
                    layer: p.clone(),
                })
            },
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn small_pool() -> Layer {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let net = dfcnn_nn::topology::NetworkSpec::test_case_1().build(&mut rng);
        net.layers()[1].clone()
    }

    #[test]
    fn validate_enforces_divisibility_per_side() {
        let m = PoolModel;
        let layer = small_pool();
        // TC1 pool has 6 FMs
        assert!(m
            .validate(
                "pool1",
                &layer,
                LayerPorts {
                    in_ports: 6,
                    out_ports: 6,
                },
            )
            .is_ok());
        let err = m
            .validate(
                "pool1",
                &layer,
                LayerPorts {
                    in_ports: 5,
                    out_ports: 1,
                },
            )
            .unwrap_err();
        assert!(err.contains("does not divide IN_FM"), "{err}");
        let err = m
            .validate(
                "pool1",
                &layer,
                LayerPorts {
                    in_ports: 1,
                    out_ports: 0,
                },
            )
            .unwrap_err();
        assert!(err.contains("port counts must be non-zero"), "{err}");
    }

    #[test]
    fn plan_is_weight_free_and_symmetric() {
        let m = PoolModel;
        let plan = m.plan(&small_pool(), LayerPorts::SINGLE, &DesignConfig::default());
        assert_eq!(plan.params.weights, 0);
        assert_eq!(plan.params.in_fm, plan.params.out_fm);
        assert_eq!(plan.params.ii, 6, "single-port 6-FM pool: II = 6");
    }

    // ----- the pool actor: the pool body in the shared windowed shell

    use super::super::windowed::tests::{assert_same_bits, run_windowed};
    use crate::sim::Actor;
    use dfcnn_tensor::{ConvGeometry, Fixed16, Fixed8, Shape3};

    /// The Eq. 4 II the graph builder would give this pool and ports.
    fn plan_ii(pool: &Pool2d, in_ports: usize, out_ports: usize) -> usize {
        let lp = LayerPorts {
            in_ports,
            out_ports,
        };
        let layer = Layer::Pool(pool.clone());
        PoolModel
            .plan(&layer, lp, &DesignConfig::default())
            .params
            .ii
    }

    /// Stream one image through an isolated `PoolCore<E>` and check it
    /// against the host hardware-order kernel, bit for bit, in `f32`,
    /// `Fixed16<8>` and `Fixed8<4>`.
    fn assert_core_matches_kernel(
        pool: &Pool2d,
        in_ports: usize,
        out_ports: usize,
        img: &Tensor3<f32>,
    ) {
        fn one<E: Numeric>(pool: &Pool2d, in_ports: usize, out_ports: usize, img: &Tensor3<f32>) {
            let ii = plan_ii(pool, in_ports, out_ports);
            let ops = OpLatency::f32_virtex7();
            let make = |ins, outs| PoolCore::<E>::new("pool", pool, ins, outs, ii, &ops);
            let (got, _) = run_windowed(in_ports, out_ports, make, img, pool.output_shape());
            let mut expect = Tensor3::zeros(pool.output_shape());
            pool_forward_hw_into(pool, img, &mut expect, &mut PoolArena::<E>::new(pool));
            assert_same_bits::<E>(&got, &expect);
        }
        one::<f32>(pool, in_ports, out_ports, img);
        one::<Fixed16<8>>(pool, in_ports, out_ports, img);
        one::<Fixed8<4>>(pool, in_ports, out_ports, img);
    }

    fn random_img(seed: u64, shape: Shape3) -> Tensor3<f32> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        dfcnn_tensor::init::random_volume(&mut rng, shape, -1.0, 1.0)
    }

    #[test]
    fn maxpool_single_port_matches_kernel() {
        for kind in [PoolKind::Max, PoolKind::Mean] {
            let geo = ConvGeometry::new(Shape3::new(6, 6, 3), 2, 2, 2, 0);
            let pool = Pool2d::new(geo, kind);
            assert_core_matches_kernel(&pool, 1, 1, &random_img(1, geo.input));
        }
    }

    #[test]
    fn maxpool_parallel_ports_match() {
        // the paper's TC1 configuration: one pool core per port
        let geo = ConvGeometry::new(Shape3::new(12, 12, 6), 2, 2, 2, 0);
        let pool = Pool2d::new(geo, PoolKind::Max);
        assert_core_matches_kernel(&pool, 6, 6, &random_img(2, geo.input));
    }

    #[test]
    fn meanpool_matches() {
        let geo = ConvGeometry::new(Shape3::new(4, 4, 2), 2, 2, 2, 0);
        let pool = Pool2d::new(geo, PoolKind::Mean);
        assert_core_matches_kernel(&pool, 2, 2, &random_img(3, geo.input));
    }

    #[test]
    fn port_reduction_matches() {
        // 4 channels in on 4 ports, out on 2 ports
        let geo = ConvGeometry::new(Shape3::new(4, 4, 4), 2, 2, 2, 0);
        for kind in [PoolKind::Max, PoolKind::Mean] {
            let pool = Pool2d::new(geo, kind);
            assert_core_matches_kernel(&pool, 4, 2, &random_img(4, geo.input));
        }
    }

    #[test]
    fn fully_parallel_pool_ii_is_one() {
        let geo = ConvGeometry::new(Shape3::new(4, 4, 6), 2, 2, 2, 0);
        let pool = Pool2d::new(geo, PoolKind::Max);
        let ii = plan_ii(&pool, 6, 6);
        assert_eq!(ii, 1);
        let mut chans = crate::stream::ChannelSet::new();
        let ins: Vec<_> = (0..6).map(|_| chans.alloc(4)).collect();
        let outs: Vec<_> = (0..6).map(|_| chans.alloc(4)).collect();
        let core = PoolCore::<f32>::new("p", &pool, ins, outs, ii, &OpLatency::f32_virtex7());
        assert_eq!(core.ii(), 1);
        assert_eq!(core.initiations(), 0);
    }
}
