//! The element-wise add core — the join point of a fork/join graph.
//!
//! A residual block re-converges its transform path and its identity skip
//! path by adding them value for value: both operands arrive in the same
//! stream order (`(y, x, c)` pixel-major, FM-minor), so the join is a
//! two-operand zip with one floating add per output value — no window, no
//! reduction, no weights. It is the one core kind whose actor reads *two*
//! full port groups ([`CoreModel::input_channel_count`] is `2·IN_PORTS`):
//! operand `o`'s port `p` is input channel `o·P + p`.
//!
//! Its actor is the [`Router`] along the [`EltwiseAdd`] route: it consumes
//! in strict global FM order and only moves a value when both operand
//! FIFOs have it and the output has room — a dry skip path stalls the
//! join, which is what makes undersized skip FIFOs deadlock (see the
//! static checker's reconvergence-buffering rule).

use super::{CoreModel, StageSpec, StaticProfile};
use crate::graph::{CoreInfo, NetworkDesign};
use crate::port::{fm_port, Lanes, Route, RouteStage, Router};
use crate::sim::Actor;
use crate::stream::ChannelId;
use dfcnn_fpga::resources::{CoreKind, CoreParams};
use dfcnn_hls::ii::pipeline_ii;
use dfcnn_tensor::{with_numeric, Numeric, Shape3, Tensor3};
use std::fmt::Write as _;

/// The element-wise add [`CoreModel`].
pub struct EltwiseAddModel;

/// Plan an eltwise-add core joining two `shape`-sized streams on `ports`
/// ports per operand; `index` numbers the core in pipeline order.
pub(crate) fn plan_add(shape: Shape3, ports: usize, index: usize) -> CoreInfo {
    let c = shape.c;
    CoreInfo {
        name: format!("add{index}"),
        params: CoreParams {
            kind: CoreKind::EltwiseAdd,
            in_fm: c,
            out_fm: c,
            in_ports: ports,
            out_ports: ports,
            kh: 1,
            kw: 1,
            image_w: shape.w,
            ii: pipeline_ii(c, ports, c, ports),
            weights: 0,
            accumulators: 1,
        },
        layer_index: None,
        in_values_per_image: 2 * shape.len() as u64,
        positions: (shape.h * shape.w) as u64,
    }
}

/// The join's [`Route`]: the value of FM `f` pops port `p = f mod P` of
/// both operand groups (operand A's ports, then operand B's) and pushes
/// `a + b` to output port `p`. Generic over the executed element type:
/// both operands are quantised, added with the element's (saturating)
/// adder and dequantised — the identity chain for `f32`.
pub struct EltwiseAdd<E> {
    ports: usize,
    _elem: core::marker::PhantomData<E>,
}

impl<E: Numeric> EltwiseAdd<E> {
    /// The join of two `out_ports`-wide operand groups (`in_ports` is
    /// `2·out_ports`) over `fm` interleaved FMs.
    pub fn new(in_ports: usize, out_ports: usize, fm: usize) -> Self {
        assert_eq!(
            in_ports,
            2 * out_ports,
            "eltwise-add reads two operand port groups"
        );
        assert!(out_ports > 0, "eltwise-add needs ports");
        assert_eq!(fm % out_ports, 0, "ports must divide FM count");
        EltwiseAdd {
            ports: out_ports,
            _elem: core::marker::PhantomData,
        }
    }
}

impl<E: Numeric> Route for EltwiseAdd<E> {
    fn group_widths(&self) -> (usize, usize) {
        (self.ports, self.ports)
    }

    fn pops(&self, f: usize) -> Lanes {
        Lanes::strided(fm_port(f, self.ports), self.ports, 2)
    }

    fn pushes(&self, f: usize) -> Lanes {
        Lanes::one(fm_port(f, self.ports))
    }

    #[inline]
    fn value(&self, _f: usize, operands: &[f32]) -> f32 {
        crate::kernel::eltwise_add_hw::<E>(operands[0], operands[1])
    }
}

impl CoreModel for EltwiseAddModel {
    fn kind(&self) -> CoreKind {
        CoreKind::EltwiseAdd
    }

    fn label(&self) -> &'static str {
        "add"
    }

    fn range_transfer(
        &self,
        _design: &NetworkDesign,
        _core: &CoreInfo,
        quantiser: crate::range::Quantiser,
        inputs: &[crate::range::Interval],
    ) -> crate::range::Transfer {
        let a = inputs
            .first()
            .copied()
            .unwrap_or(crate::range::Interval::point(0.0));
        let b = inputs.get(1).copied().unwrap_or(a);
        crate::range::eltwise_transfer(quantiser.spec(), a, b)
    }

    fn static_profile(&self, _design: &NetworkDesign, core: &CoreInfo) -> StaticProfile {
        let p = &core.params;
        StaticProfile {
            // the two operand streams collapse into one
            out_values_per_image: core.in_values_per_image / 2,
            expected_ii: pipeline_ii(p.in_fm, p.in_ports, p.out_fm, p.out_ports),
            line_buffer: None,
        }
    }

    fn block_label(&self, core: &CoreInfo) -> String {
        format!(
            "[{} eltwise-add {}FM in:2x{} out:{} II={}]",
            core.name,
            core.params.in_fm,
            core.params.in_ports,
            core.params.out_ports,
            core.params.ii
        )
    }

    fn make_actor(
        &self,
        design: &NetworkDesign,
        core: &CoreInfo,
        in_chs: Vec<ChannelId>,
        out_chs: Vec<ChannelId>,
    ) -> Box<dyn Actor> {
        let fm = core.params.in_fm;
        with_numeric!(design.config().numeric, E => {
            let route = EltwiseAdd::<E>::new(in_chs.len(), out_chs.len(), fm);
            Box::new(Router::new(core.name.clone(), in_chs, out_chs, fm, route))
        })
    }

    fn emit_cpp(&self, design: &NetworkDesign, idx: usize) -> String {
        use crate::codegen::{header, interface_pragmas, stream_args};
        let info = &design.cores()[idx];
        let p = &info.params;
        let mut s = header();
        let _ = write!(
            s,
            "// element-wise add core: joins the two branches of a fork/join\n\
             // graph value for value (both operands arrive in the same\n\
             // stream order). One floating add per output value.\n\
             void {name}({a}, {b}, {outs}) {{\n{apr}{bpr}{opr}\
             \x20   add: for (int i = 0; ; ++i) {{\n\
             #pragma HLS PIPELINE II={ii}\n",
            name = info.name,
            a = stream_args("a", p.in_ports),
            b = stream_args("b", p.in_ports),
            outs = stream_args("out", p.out_ports),
            apr = interface_pragmas("a", p.in_ports),
            bpr = interface_pragmas("b", p.in_ports),
            opr = interface_pragmas("out", p.out_ports),
            ii = p.ii,
        );
        for port in 0..p.out_ports {
            let _ = writeln!(
                s,
                "        out{port}.write(a{port}.read() + b{port}.read());"
            );
        }
        s.push_str("    }\n}\n");
        s
    }

    fn input_channel_count(&self, core: &CoreInfo) -> usize {
        2 * core.params.in_ports
    }

    fn stage(
        &self,
        design: &NetworkDesign,
        core: &CoreInfo,
        in_shapes: &[Shape3],
    ) -> Option<StageSpec> {
        assert_eq!(in_shapes.len(), 2, "eltwise-add joins exactly two operands");
        assert_eq!(in_shapes[0], in_shapes[1], "operand shapes must match");
        let (in_ports, out_ports) = (self.input_channel_count(core), core.params.out_ports);
        let fm = core.params.in_fm;
        Some(with_numeric!(design.config().numeric, E => StageSpec::new(
            core.name.clone(),
            in_shapes[0],
            move || Box::new(RouteStage::new(EltwiseAdd::<E>::new(in_ports, out_ports, fm), fm)),
        )))
    }

    fn reference_apply(
        &self,
        _design: &NetworkDesign,
        _core: &CoreInfo,
        inputs: &[&Tensor3<f32>],
    ) -> Option<Tensor3<f32>> {
        let (a, b) = (inputs[0], inputs[1]);
        assert_eq!(a.shape(), b.shape(), "operand shapes must match");
        Some(Tensor3::from_vec(
            a.shape(),
            a.as_slice()
                .iter()
                .zip(b.as_slice())
                .map(|(x, y)| x + y)
                .collect(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::stage_matches_router;
    use crate::sim::Next;
    use crate::stream::ChannelSet;
    use crate::trace::{Stall, Trace};
    use dfcnn_tensor::{Fixed16, Fixed8};

    fn join(ins: Vec<ChannelId>, outs: Vec<ChannelId>, fm: usize) -> Router<EltwiseAdd<f32>> {
        let route = EltwiseAdd::new(ins.len(), outs.len(), fm);
        Router::new("add", ins, outs, fm, route)
    }

    /// Tick `cycles` times, committing after each; returns the last
    /// tick's [`Next`].
    fn drive(core: &mut Router<EltwiseAdd<f32>>, chans: &mut ChannelSet, cycles: usize) -> Next {
        let mut trace = Trace::disabled();
        let mut next = None;
        for c in 0..cycles {
            next = Some(core.tick(c as u64, chans, &mut trace));
            chans.commit_all();
        }
        next.expect("at least one cycle")
    }

    fn drain(chans: &mut ChannelSet, id: ChannelId) -> Vec<f32> {
        let mut v = Vec::new();
        while let Some(x) = chans.pop(id) {
            v.push(x);
        }
        v
    }

    #[test]
    fn adds_value_for_value() {
        let mut chans = ChannelSet::new();
        let a0 = chans.alloc(16);
        let b0 = chans.alloc(16);
        let o0 = chans.alloc(16);
        for f in 0..4 {
            chans.push(a0, f as f32);
            chans.push(b0, (10 * f) as f32);
        }
        chans.commit_all();
        let mut core = join(vec![a0, b0], vec![o0], 2);
        drive(&mut core, &mut chans, 8);
        assert_eq!(drain(&mut chans, o0), vec![0.0, 11.0, 22.0, 33.0]);
        assert_eq!(core.initiations(), 4);
    }

    #[test]
    fn dry_operand_stalls_the_join() {
        let mut chans = ChannelSet::new();
        let a0 = chans.alloc(16);
        let b0 = chans.alloc(16);
        let o0 = chans.alloc(16);
        chans.push(a0, 1.0);
        chans.commit_all();
        let mut core = join(vec![a0, b0], vec![o0], 1);
        let next = drive(&mut core, &mut chans, 4);
        assert!(chans.get(o0).is_empty(), "no output without both operands");
        // the second operand group starts at index P
        assert!(matches!(next.stall, Stall::Starved(1)));
        chans.push(b0, 2.0);
        chans.commit_all();
        drive(&mut core, &mut chans, 4);
        assert_eq!(drain(&mut chans, o0), vec![3.0]);
    }

    #[test]
    fn two_ports_move_in_parallel() {
        let mut chans = ChannelSet::new();
        let a: Vec<_> = (0..2).map(|_| chans.alloc(8)).collect();
        let b: Vec<_> = (0..2).map(|_| chans.alloc(8)).collect();
        let o: Vec<_> = (0..2).map(|_| chans.alloc(8)).collect();
        // 2 FMs on 2 ports: f=0 on port 0, f=1 on port 1
        chans.push(a[0], 1.0);
        chans.push(a[1], 2.0);
        chans.push(b[0], 10.0);
        chans.push(b[1], 20.0);
        chans.commit_all();
        let mut core = join([a, b].concat(), o.clone(), 2);
        let mut trace = Trace::disabled();
        core.tick(0, &mut chans, &mut trace);
        chans.commit_all();
        // both FMs of the pixel move in the same cycle on distinct ports
        assert_eq!(drain(&mut chans, o[0]), vec![11.0]);
        assert_eq!(drain(&mut chans, o[1]), vec![22.0]);
    }

    #[test]
    fn worker_matches_reference_apply() {
        /// The host stage against the router, bit for bit, and the value
        /// written against the element's adder.
        fn one<E: Numeric>(shape: Shape3, ports: usize) -> (Vec<f32>, Tensor3<f32>, Tensor3<f32>) {
            let a = Tensor3::from_fn(shape, |y, x, c| (y * 4 + x * 2 + c) as f32 * 0.75);
            let b = Tensor3::from_fn(shape, |y, x, c| (y + x + c) as f32 * -0.5);
            let fm = shape.c;
            let route = || EltwiseAdd::<E>::new(2 * ports, ports, fm);
            let out = stage_matches_router(route, fm, &[&a, &b]);
            for (o, (&x, &y)) in out.iter().zip(a.as_slice().iter().zip(b.as_slice())) {
                assert_eq!(
                    o.to_bits(),
                    crate::kernel::eltwise_add_hw::<E>(x, y).to_bits()
                );
            }
            (out, a, b)
        }
        let (out, a, b) = one::<f32>(Shape3::new(2, 2, 2), 1);
        let expect: Vec<f32> = a
            .as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(x, y)| x + y)
            .collect();
        assert_eq!(out, expect);
        // two ports per operand group, in every element type (Fixed8<4>
        // saturates the largest sums)
        for ports in [2, 4] {
            one::<f32>(Shape3::new(2, 3, 4), ports);
            one::<Fixed16<8>>(Shape3::new(2, 3, 4), ports);
            one::<Fixed8<4>>(Shape3::new(2, 3, 4), ports);
        }
    }

    #[test]
    fn plan_add_shape() {
        let info = plan_add(Shape3::new(4, 4, 6), 2, 5);
        assert_eq!(info.name, "add5");
        assert_eq!(info.params.kind, CoreKind::EltwiseAdd);
        assert_eq!(info.params.ii, 3); // 6 FMs over 2 ports
        assert_eq!(info.in_values_per_image, 2 * 96);
        assert_eq!(info.positions, 16);
        assert!(info.layer_index.is_none());
    }
}
