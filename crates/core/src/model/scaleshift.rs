//! The scale-shift core — frozen (inference-time) batch normalisation on
//! the fabric.
//!
//! A trained batch-norm collapses to one `(γ', β')` pair per feature map
//! (see [`dfcnn_nn::layer::ScaleShift`]), which on a dataflow accelerator
//! is a stateless streaming core: two small coefficient ROMs, one
//! multiply and one add per value, no window, no reduction. It is a
//! *paper layer* in the builder's sense — it carries a
//! [`LayerPorts`] entry and an Eq. 4 II like conv/pool/FC — and its route
//! is the adapters' [`Adapt`], streaming in strict global FM order, with a
//! per-FM map ([`ScaleShiftMap`]) that applies `y = scale[f]·x + shift[f]`
//! on the way through. The actor is the [`Router`] along that route and
//! the host stage is the same route run over the whole tensor
//! ([`RouteStage`]); the network layer computes the same expression, so
//! all three engines stay bit-identical.

use super::{CoreModel, CorePlan, LayerModel, StageSpec};
use crate::graph::{CoreInfo, DesignConfig, LayerPorts, NetworkDesign};
use crate::port::{Adapt, FmMap, RouteStage, Router};
use crate::sim::Actor;
use crate::stream::ChannelId;
use dfcnn_fpga::resources::{CoreKind, CoreParams};
use dfcnn_hls::ii::pipeline_ii;
use dfcnn_nn::layer::{Layer, ScaleShift};
use dfcnn_tensor::{with_numeric, Numeric, Shape3};
use std::fmt::Write as _;

/// The scale-shift [`CoreModel`].
pub struct ScaleShiftModel;

fn scaleshift_of(layer: &Layer) -> &ScaleShift {
    match layer {
        Layer::ScaleShift(l) => l,
        _ => unreachable!("scaleshift model handed a different layer kind"),
    }
}

/// The per-FM affine map of the scale-shift core, and the one store of
/// its quantised constants that the host stage and the actor build.
/// Generic over the executed element type: the coefficient ROMs are
/// quantised once at build time; each value is quantised, transformed
/// with the element's multiply/add and dequantised (the identity chain
/// for `f32`).
pub struct ScaleShiftMap<E> {
    scale: Vec<E>,
    shift: Vec<E>,
}

impl<E: Numeric> ScaleShiftMap<E> {
    /// Quantise the coefficient vectors, one entry per FM.
    pub fn new(scale: &[f32], shift: &[f32]) -> Self {
        assert_eq!(scale.len(), shift.len(), "one (scale, shift) pair per FM");
        let quantise = |c: &[f32]| c.iter().map(|&v| E::from_f32(v)).collect();
        ScaleShiftMap {
            scale: quantise(scale),
            shift: quantise(shift),
        }
    }
}

impl<E: Numeric> FmMap for ScaleShiftMap<E> {
    #[inline]
    fn map(&self, first: usize, xs: &[f32], outs: &mut [f32]) {
        let fms = first..first + outs.len();
        let coeffs = self.scale[fms.clone()].iter().zip(&self.shift[fms]);
        for ((o, &x), (&scale, &shift)) in outs.iter_mut().zip(xs).zip(coeffs) {
            *o = crate::kernel::scale_shift_hw::<E>(scale, shift, x);
        }
    }
}

/// The core's route: FM `f` moves from input port `f mod N` to output
/// port `f mod M` through `y = scale[f]·x + shift[f]`.
fn affine<E: Numeric>(
    in_ports: usize,
    out_ports: usize,
    l: &ScaleShift,
) -> Adapt<ScaleShiftMap<E>> {
    let map = ScaleShiftMap::new(l.scale(), l.shift());
    Adapt::new(in_ports, out_ports, l.scale().len(), map)
}

impl LayerModel for ScaleShiftModel {
    fn feature_maps(&self, layer: &Layer) -> (usize, usize) {
        let c = scaleshift_of(layer).shape().c;
        (c, c)
    }

    fn plan(&self, layer: &Layer, lp: LayerPorts, _config: &DesignConfig) -> CorePlan {
        let shape = scaleshift_of(layer).shape();
        let c = shape.c;
        CorePlan {
            params: CoreParams {
                kind: CoreKind::ScaleShift,
                in_fm: c,
                out_fm: c,
                in_ports: lp.in_ports,
                out_ports: lp.out_ports,
                kh: 1,
                kw: 1,
                image_w: shape.w,
                ii: pipeline_ii(c, lp.in_ports, c, lp.out_ports),
                weights: 2 * c,
                accumulators: 1,
            },
            in_values_per_image: shape.len() as u64,
            positions: (shape.h * shape.w) as u64,
        }
    }
}

impl CoreModel for ScaleShiftModel {
    fn kind(&self) -> CoreKind {
        CoreKind::ScaleShift
    }

    fn label(&self) -> &'static str {
        "scaleshift"
    }

    fn range_transfer(
        &self,
        design: &NetworkDesign,
        core: &CoreInfo,
        quantiser: crate::range::Quantiser,
        inputs: &[crate::range::Interval],
    ) -> crate::range::Transfer {
        let idx = core.layer_index.expect("scale-shift core has a layer");
        let l = scaleshift_of(&design.network().layers()[idx]);
        let channels = l.scale().iter().copied().zip(l.shift().iter().copied());
        crate::range::scale_shift_transfer(
            quantiser,
            crate::range::Interval::union_all(inputs),
            channels,
        )
    }

    fn block_label(&self, core: &CoreInfo) -> String {
        let p = &core.params;
        format!(
            "[{} scaleshift {}FM in:{} out:{} II={}]",
            core.name, p.in_fm, p.in_ports, p.out_ports, p.ii
        )
    }

    fn make_actor(
        &self,
        design: &NetworkDesign,
        core: &CoreInfo,
        in_chs: Vec<ChannelId>,
        out_chs: Vec<ChannelId>,
    ) -> Box<dyn Actor> {
        let idx = core.layer_index.expect("scaleshift cores are layer-backed");
        let l = scaleshift_of(&design.network().layers()[idx]);
        let (name, fm) = (core.name.clone(), l.scale().len());
        with_numeric!(design.config().numeric, E => {
            let route = affine::<E>(in_chs.len(), out_chs.len(), l);
            Box::new(Router::new(name, in_chs, out_chs, fm, route))
        })
    }

    fn emit_cpp(&self, design: &NetworkDesign, idx: usize) -> String {
        use crate::codegen::{header, interface_pragmas, stream_args, weight_array};
        let info = &design.cores()[idx];
        let p = &info.params;
        let layer_idx = info.layer_index.expect("scaleshift cores are layer-backed");
        let l = scaleshift_of(&design.network().layers()[layer_idx]);
        let mut s = header();
        s.push_str(&weight_array(&format!("{}_scale", info.name), l.scale()));
        s.push_str(&weight_array(&format!("{}_shift", info.name), l.shift()));
        let _ = write!(
            s,
            "// scale-shift core: frozen batch normalisation as a per-FM\n\
             // affine map y = scale[f] * x + shift[f], coefficients\n\
             // hardcoded in on-chip ROMs. Streams at line rate.\n\
             void {name}({ins}, {outs}) {{\n{ipr}{opr}\
             \x20   affine: for (int f = 0; ; f = (f + 1) % {fm}) {{\n\
             #pragma HLS PIPELINE II={ii}\n\
             \x20       out{o0}.write({name}_scale[f] * in{i0}.read() + {name}_shift[f]);\
             \x20// ports f % {ip} -> f % {op}\n\
             \x20   }}\n\
             }}\n",
            name = info.name,
            ins = stream_args("in", p.in_ports),
            outs = stream_args("out", p.out_ports),
            ipr = interface_pragmas("in", p.in_ports),
            opr = interface_pragmas("out", p.out_ports),
            fm = p.in_fm,
            ii = p.ii,
            ip = p.in_ports,
            op = p.out_ports,
            i0 = 0,
            o0 = 0,
        );
        s
    }

    fn stage(
        &self,
        design: &NetworkDesign,
        core: &CoreInfo,
        _in_shapes: &[Shape3],
    ) -> Option<StageSpec> {
        let l = scaleshift_of(&design.network().layers()[core.layer_index?]).clone();
        let (in_ports, out_ports) = (core.params.in_ports, core.params.out_ports);
        Some(with_numeric!(design.config().numeric, E => StageSpec::new(
            core.name.clone(),
            l.shape(),
            move || Box::new(RouteStage::new(affine::<E>(in_ports, out_ports, &l), l.scale().len())),
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::stage_matches_router;
    use crate::stream::ChannelSet;
    use crate::trace::Trace;
    use dfcnn_tensor::{Fixed16, Fixed8, Tensor3};

    /// The f32 actor over `ins` and `outs`, one FM per coefficient pair.
    fn core(
        ins: Vec<ChannelId>,
        outs: Vec<ChannelId>,
        scale: &[f32],
        shift: &[f32],
    ) -> Router<Adapt<ScaleShiftMap<f32>>> {
        let fm = scale.len();
        let map = ScaleShiftMap::new(scale, shift);
        let route = Adapt::new(ins.len(), outs.len(), fm, map);
        Router::new("scaleshift", ins, outs, fm, route)
    }

    fn drive(core: &mut Router<Adapt<ScaleShiftMap<f32>>>, chans: &mut ChannelSet, cycles: usize) {
        let mut trace = Trace::disabled();
        for c in 0..cycles {
            core.tick(c as u64, chans, &mut trace);
            chans.commit_all();
        }
    }

    fn drain(chans: &mut ChannelSet, id: ChannelId) -> Vec<f32> {
        let mut v = Vec::new();
        while let Some(x) = chans.pop(id) {
            v.push(x);
        }
        v
    }

    #[test]
    fn actor_applies_the_affine_per_fm() {
        // 2 FMs on one port: f alternates 0, 1
        let mut chans = ChannelSet::new();
        let i0 = chans.alloc(16);
        let o0 = chans.alloc(16);
        for v in [1.0f32, 2.0, 3.0, 4.0] {
            chans.push(i0, v);
        }
        chans.commit_all();
        let mut core = core(vec![i0], vec![o0], &[2.0, -1.0], &[0.5, 1.0]);
        drive(&mut core, &mut chans, 8);
        assert_eq!(drain(&mut chans, o0), vec![2.5, -1.0, 6.5, -3.0]);
        assert_eq!(core.initiations(), 4);
    }

    #[test]
    fn actor_worker_and_layer_agree_bit_for_bit() {
        /// The host stage against the router, bit for bit.
        fn one<E: Numeric>(l: &ScaleShift, x: &Tensor3<f32>, ports: (usize, usize)) -> Vec<f32> {
            let route = || affine::<E>(ports.0, ports.1, l);
            stage_matches_router(route, l.scale().len(), &[x])
        }
        let shape = Shape3::new(2, 3, 2);
        let l = ScaleShift::new(shape, vec![1.7, -0.3], vec![0.11, 2.9]);
        let x = Tensor3::from_fn(shape, |y, xx, c| ((y * 3 + xx) as f32) * 0.37 + c as f32);
        assert_eq!(one::<f32>(&l, &x, (1, 1)), l.forward(&x).as_slice());

        // four FMs on two and four ports, in every element type
        let shape = Shape3::new(2, 3, 4);
        let l = ScaleShift::new(
            shape,
            vec![1.7, -0.3, 0.5, 2.25],
            vec![0.11, 2.9, -1.0, 0.0],
        );
        let x = Tensor3::from_fn(shape, |y, xx, c| ((y * 3 + xx) as f32) * 0.37 - c as f32);
        assert_eq!(one::<f32>(&l, &x, (2, 4)), l.forward(&x).as_slice());
        for ports in [(2, 4), (4, 2), (2, 2)] {
            one::<Fixed16<8>>(&l, &x, ports);
            one::<Fixed8<4>>(&l, &x, ports);
        }
    }

    #[test]
    fn plan_carries_the_eq4_ii_and_roms() {
        let m = ScaleShiftModel;
        let layer = Layer::ScaleShift(ScaleShift::identity(Shape3::new(4, 4, 6)));
        assert_eq!(m.feature_maps(&layer), (6, 6));
        let plan = m.plan(
            &layer,
            LayerPorts {
                in_ports: 2,
                out_ports: 3,
            },
            &DesignConfig::default(),
        );
        assert_eq!(plan.params.kind, CoreKind::ScaleShift);
        assert_eq!(plan.params.ii, 3); // max(6/2, 6/3)
        assert_eq!(plan.params.weights, 12); // scale + shift ROMs
        assert_eq!(plan.in_values_per_image, 96);
        assert_eq!(plan.positions, 16);
        assert_eq!(m.estimate_interval_probe(&plan), 48);
    }

    impl ScaleShiftModel {
        fn estimate_interval_probe(&self, plan: &CorePlan) -> u64 {
            let core = CoreInfo {
                name: "scaleshift1".into(),
                params: plan.params,
                layer_index: Some(0),
                in_values_per_image: plan.in_values_per_image,
                positions: plan.positions,
            };
            self.estimate_interval(&core, &DesignConfig::default())
        }
    }

    #[test]
    fn two_port_streaming_preserves_order() {
        // 2 FMs on 2 ports in, 1 port out: widen while transforming
        let mut chans = ChannelSet::new();
        let ins: Vec<_> = (0..2).map(|_| chans.alloc(8)).collect();
        let o0 = chans.alloc(8);
        chans.push(ins[0], 1.0); // f0
        chans.push(ins[1], 2.0); // f1
        chans.push(ins[0], 3.0); // f0
        chans.push(ins[1], 4.0); // f1
        chans.commit_all();
        let mut core = core(ins, vec![o0], &[10.0, 100.0], &[0.0, 0.0]);
        drive(&mut core, &mut chans, 8);
        assert_eq!(drain(&mut chans, o0), vec![10.0, 200.0, 30.0, 400.0]);
    }
}
