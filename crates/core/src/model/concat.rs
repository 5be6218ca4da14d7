//! The feature-map concatenation core — the Inception-style join of a
//! fork/join graph.
//!
//! Where the eltwise add zips two same-shaped operands value for value, a
//! concat join *appends* operand B's feature maps after operand A's: both
//! operands share the pixel grid and the per-operand port count `P`, and
//! the output carries `C1 + C2` FMs per pixel in the usual `(y, x, c)`
//! pixel-major, FM-minor stream order — operand A's FMs first, then B's.
//! No arithmetic happens: the join is pure stream interleaving — the
//! [`Router`] along the [`Append`] route walks the summed FM sequence and
//! forwards each value from the owning operand's port group. Like the eltwise add it reads two full port
//! groups ([`CoreModel::input_channel_count`] is `2·IN_PORTS`): operand
//! `o`'s port `p` is input channel `o·P + p`.
//!
//! Because `P` divides both `C1` and `C2`, output FM `f` lands on output
//! port `f mod P` *and* arrives on the same port index inside the owning
//! operand's group — the selector only ever switches groups, never lanes.
//!
//! The two operand streams carry *different* per-image volumes
//! (`C1·H·W` vs `C2·H·W`), unlike the add join where both edges carry the
//! output volume. The static checker's rate-conservation rule learns the
//! asymmetric split through [`CoreModel::in_edge_volumes`].

use super::{CoreModel, StageSpec, StaticProfile};
use crate::graph::{CoreInfo, NetworkDesign, NodeRef};
use crate::port::{fm_port, Lanes, Route, RouteStage, Router};
use crate::sim::Actor;
use crate::stream::ChannelId;
use dfcnn_fpga::resources::{CoreKind, CoreParams};
use dfcnn_hls::ii::pipeline_ii;
use dfcnn_tensor::{Shape3, Tensor3};
use std::fmt::Write as _;

/// The concat-join [`CoreModel`].
pub struct ConcatJoinModel;

/// Plan a concat core appending a `b_shape`-sized stream after an
/// `a_shape`-sized one on `ports` ports per operand; `index` numbers the
/// core in pipeline order. Operand legality (shared pixel grid, `ports`
/// dividing both FM counts) is enforced by `GraphBuilder::concat`.
pub(crate) fn plan_concat(
    a_shape: Shape3,
    b_shape: Shape3,
    ports: usize,
    index: usize,
) -> CoreInfo {
    let c = a_shape.c + b_shape.c;
    CoreInfo {
        name: format!("concat{index}"),
        params: CoreParams {
            kind: CoreKind::ConcatJoin,
            in_fm: c,
            out_fm: c,
            in_ports: ports,
            out_ports: ports,
            kh: 1,
            kw: 1,
            image_w: a_shape.w,
            ii: pipeline_ii(c, ports, c, ports),
            weights: 0,
            accumulators: 1,
        },
        layer_index: None,
        in_values_per_image: (a_shape.len() + b_shape.len()) as u64,
        positions: (a_shape.h * a_shape.w) as u64,
    }
}

/// The per-image volumes recorded on a core's in-edges, in edge order
/// (none if the core is not in `design`).
fn operand_volumes(design: &NetworkDesign, core: &CoreInfo) -> Vec<u64> {
    let idx = design.cores().iter().position(|c| c.name == core.name);
    design
        .edges()
        .iter()
        .filter(|e| idx.is_some_and(|i| e.to == NodeRef::Core(i)))
        .map(|e| e.values_per_image)
        .collect()
}

/// The FM count of a concat core's first operand, recovered from its
/// first in-edge's recorded volume: `C1·H·W / (H·W)`.
fn operand_split(design: &NetworkDesign, core: &CoreInfo) -> usize {
    let first = *operand_volumes(design, core)
        .first()
        .expect("concat core must have in-edges in its design");
    (first / core.positions.max(1)) as usize
}

/// The join's [`Route`]: forwards the summed FM sequence, reading FM
/// `f < split` from operand A's port group and `f >= split` from operand
/// B's (input channels `P..2P`), each onto output port `f mod P`. Pure
/// routing — values pass through unchanged in every numeric mode, so the
/// route is not generic over the element type.
pub struct Append {
    ports: usize,
    split: usize,
}

impl Append {
    /// The join of two `out_ports`-wide operand groups (`in_ports` is
    /// `2·out_ports`) over `fm` total FMs, of which the first `split`
    /// belong to operand A.
    pub fn new(in_ports: usize, out_ports: usize, fm: usize, split: usize) -> Self {
        assert_eq!(
            in_ports,
            2 * out_ports,
            "concat reads two operand port groups"
        );
        assert!(out_ports > 0, "concat needs ports");
        assert!(0 < split && split < fm, "both operands must carry FMs");
        assert_eq!(
            split % out_ports,
            0,
            "ports must divide operand A's FM count"
        );
        assert_eq!(
            (fm - split) % out_ports,
            0,
            "ports must divide operand B's FM count"
        );
        Append {
            ports: out_ports,
            split,
        }
    }
}

impl Route for Append {
    fn group_widths(&self) -> (usize, usize) {
        (self.ports, self.ports)
    }

    fn pops(&self, f: usize) -> Lanes {
        // `P` divides `split`: operand B's FM `f - split` is on port `f mod P`
        let group = if f < self.split { 0 } else { self.ports };
        Lanes::one(group + fm_port(f, self.ports))
    }

    fn pushes(&self, f: usize) -> Lanes {
        Lanes::one(fm_port(f, self.ports))
    }

    fn value(&self, _f: usize, operands: &[f32]) -> f32 {
        operands[0]
    }
}

impl CoreModel for ConcatJoinModel {
    fn kind(&self) -> CoreKind {
        CoreKind::ConcatJoin
    }

    fn label(&self) -> &'static str {
        "concat"
    }

    fn static_profile(&self, _design: &NetworkDesign, core: &CoreInfo) -> StaticProfile {
        let p = &core.params;
        StaticProfile {
            // every operand value is forwarded: volume is conserved
            out_values_per_image: core.in_values_per_image,
            expected_ii: pipeline_ii(p.in_fm, p.in_ports, p.out_fm, p.out_ports),
            line_buffer: None,
        }
    }

    fn in_edge_volumes(
        &self,
        design: &NetworkDesign,
        core: &CoreInfo,
        in_degree: usize,
    ) -> Vec<u64> {
        // the operands carry their own FM counts, not an even split; trust
        // the recorded edge volumes only if they sum to the core's total —
        // otherwise fall back to the even split so a tampered edge still
        // trips the producer-side comparison
        let recorded = operand_volumes(design, core);
        if recorded.len() == in_degree && recorded.iter().sum::<u64>() == core.in_values_per_image {
            recorded
        } else {
            vec![core.in_values_per_image / in_degree.max(1) as u64; in_degree]
        }
    }

    fn block_label(&self, core: &CoreInfo) -> String {
        format!(
            "[{} concat {}FM in:2x{} out:{} II={}]",
            core.name,
            core.params.out_fm,
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
        let route = Append::new(in_chs.len(), out_chs.len(), fm, operand_split(design, core));
        Box::new(Router::new(core.name.clone(), in_chs, out_chs, fm, route))
    }

    fn emit_cpp(&self, design: &NetworkDesign, idx: usize) -> String {
        use crate::codegen::{header, interface_pragmas, stream_args};
        let info = &design.cores()[idx];
        let p = &info.params;
        let split = operand_split(design, info);
        let (a_rounds, b_rounds) = (split / p.in_ports, (p.in_fm - split) / p.in_ports);
        let mut s = header();
        let _ = write!(
            s,
            "// concat join core: appends operand B's {cb} feature maps after\n\
             // operand A's {ca} per pixel. Pure stream interleaving — each\n\
             // output port forwards its operand-A lane then its operand-B\n\
             // lane; no arithmetic, no weights.\n\
             void {name}({a}, {b}, {outs}) {{\n{apr}{bpr}{opr}\
             \x20   concat: for (int px = 0; ; ++px) {{\n\
             #pragma HLS PIPELINE II={ii}\n",
            ca = split,
            cb = p.in_fm - split,
            name = info.name,
            a = stream_args("a", p.in_ports),
            b = stream_args("b", p.in_ports),
            outs = stream_args("out", p.out_ports),
            apr = interface_pragmas("a", p.in_ports),
            bpr = interface_pragmas("b", p.in_ports),
            opr = interface_pragmas("out", p.out_ports),
            ii = p.ii,
        );
        let _ = writeln!(s, "        for (int f = 0; f < {a_rounds}; ++f) {{");
        for port in 0..p.out_ports {
            let _ = writeln!(s, "            out{port}.write(a{port}.read());");
        }
        s.push_str("        }\n");
        let _ = writeln!(s, "        for (int f = 0; f < {b_rounds}; ++f) {{");
        for port in 0..p.out_ports {
            let _ = writeln!(s, "            out{port}.write(b{port}.read());");
        }
        s.push_str("        }\n    }\n}\n");
        s
    }

    fn input_channel_count(&self, core: &CoreInfo) -> usize {
        2 * core.params.in_ports
    }

    fn stage(
        &self,
        _design: &NetworkDesign,
        core: &CoreInfo,
        in_shapes: &[Shape3],
    ) -> Option<StageSpec> {
        assert_eq!(in_shapes.len(), 2, "concat joins exactly two operands");
        let (a, b) = (in_shapes[0], in_shapes[1]);
        assert_eq!((a.h, a.w), (b.h, b.w), "operands must share the pixel grid");
        let out_shape = Shape3::new(a.h, a.w, a.c + b.c);
        let (in_ports, out_ports) = (self.input_channel_count(core), core.params.out_ports);
        Some(StageSpec::new(core.name.clone(), out_shape, move || {
            let route = Append::new(in_ports, out_ports, out_shape.c, a.c);
            Box::new(RouteStage::new(route, out_shape.c))
        }))
    }

    fn reference_apply(
        &self,
        _design: &NetworkDesign,
        _core: &CoreInfo,
        inputs: &[&Tensor3<f32>],
    ) -> Option<Tensor3<f32>> {
        let (a, b) = (inputs[0], inputs[1]);
        assert_eq!(
            (a.shape().h, a.shape().w),
            (b.shape().h, b.shape().w),
            "operands must share the pixel grid"
        );
        let c1 = a.shape().c;
        let out_shape = Shape3::new(a.shape().h, a.shape().w, c1 + b.shape().c);
        Some(Tensor3::from_fn(out_shape, |y, x, c| {
            match c.checked_sub(c1) {
                None => a.get(y, x, c),
                Some(cb) => b.get(y, x, cb),
            }
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::stage_matches_router;
    use crate::sim::Next;
    use crate::stream::ChannelSet;
    use crate::trace::{Stall, Trace};

    fn join(ins: Vec<ChannelId>, outs: Vec<ChannelId>, fm: usize, split: usize) -> Router<Append> {
        let route = Append::new(ins.len(), outs.len(), fm, split);
        Router::new("concat", ins, outs, fm, route)
    }

    /// Tick `cycles` times, committing after each; returns the last
    /// tick's [`Next`].
    fn drive(core: &mut Router<Append>, chans: &mut ChannelSet, cycles: usize) -> Next {
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
    fn appends_operand_b_after_a_per_pixel() {
        let mut chans = ChannelSet::new();
        let a0 = chans.alloc(16);
        let b0 = chans.alloc(16);
        let o0 = chans.alloc(16);
        // two pixels, C1 = 2 and C2 = 1
        for v in [1.0, 2.0, 3.0, 4.0] {
            chans.push(a0, v);
        }
        for v in [10.0, 20.0] {
            chans.push(b0, v);
        }
        chans.commit_all();
        let mut core = join(vec![a0, b0], vec![o0], 3, 2);
        drive(&mut core, &mut chans, 8);
        assert_eq!(drain(&mut chans, o0), vec![1.0, 2.0, 10.0, 3.0, 4.0, 20.0]);
        assert_eq!(core.initiations(), 6);
    }

    #[test]
    fn dry_operand_stalls_the_join() {
        let mut chans = ChannelSet::new();
        let a0 = chans.alloc(16);
        let b0 = chans.alloc(16);
        let o0 = chans.alloc(16);
        chans.push(a0, 1.0);
        chans.commit_all();
        let mut core = join(vec![a0, b0], vec![o0], 2, 1);
        let next = drive(&mut core, &mut chans, 4);
        // operand A's FM moved, operand B's is awaited
        assert_eq!(chans.get(o0).len(), 1, "A's value passes, B's is missing");
        // the second operand group starts at index P
        assert!(matches!(next.stall, Stall::Starved(1)));
        chans.push(b0, 2.0);
        chans.commit_all();
        drive(&mut core, &mut chans, 4);
        assert_eq!(drain(&mut chans, o0), vec![1.0, 2.0]);
    }

    #[test]
    fn two_ports_move_in_parallel() {
        let mut chans = ChannelSet::new();
        let a: Vec<_> = (0..2).map(|_| chans.alloc(8)).collect();
        let b: Vec<_> = (0..2).map(|_| chans.alloc(8)).collect();
        let o: Vec<_> = (0..2).map(|_| chans.alloc(8)).collect();
        // C1 = C2 = 2 on 2 ports: FMs 0/2 on port 0, FMs 1/3 on port 1
        chans.push(a[0], 1.0);
        chans.push(a[1], 2.0);
        chans.push(b[0], 10.0);
        chans.push(b[1], 20.0);
        chans.commit_all();
        let mut core = join([a, b].concat(), o.clone(), 4, 2);
        let mut trace = Trace::disabled();
        core.tick(0, &mut chans, &mut trace);
        chans.commit_all();
        core.tick(1, &mut chans, &mut trace);
        chans.commit_all();
        // cycle 0 moves both of A's FMs, cycle 1 both of B's
        assert_eq!(drain(&mut chans, o[0]), vec![1.0, 10.0]);
        assert_eq!(drain(&mut chans, o[1]), vec![2.0, 20.0]);
    }

    #[test]
    fn worker_matches_reference_interleave() {
        // C1 ≠ C2, on one and on two ports per operand group; values pass
        // unchanged, so one element type covers every numeric mode
        for (c1, c2, ports) in [(2, 1, 1), (4, 2, 2), (2, 4, 2)] {
            let a = Tensor3::from_fn(Shape3::new(2, 2, c1), |y, x, c| (y * 8 + x * 4 + c) as f32);
            let b = Tensor3::from_fn(Shape3::new(2, 2, c2), |y, x, c| {
                -((y * 8 + x * 4 + c) as f32)
            });
            let fm = c1 + c2;
            let route = || Append::new(2 * ports, ports, fm, c1);
            let out = stage_matches_router(route, fm, &[&a, &b]);
            let out = Tensor3::from_vec(Shape3::new(2, 2, fm), out);
            for y in 0..2 {
                for x in 0..2 {
                    for c in 0..c1 {
                        assert_eq!(out.get(y, x, c), a.get(y, x, c));
                    }
                    for c in 0..c2 {
                        assert_eq!(out.get(y, x, c1 + c), b.get(y, x, c));
                    }
                }
            }
        }
    }

    #[test]
    fn plan_concat_shape() {
        let info = plan_concat(Shape3::new(4, 4, 4), Shape3::new(4, 4, 2), 2, 7);
        assert_eq!(info.name, "concat7");
        assert_eq!(info.params.kind, CoreKind::ConcatJoin);
        assert_eq!(info.params.in_fm, 6);
        assert_eq!(info.params.out_fm, 6);
        assert_eq!(info.params.ii, 3); // 6 summed FMs over 2 ports
        assert_eq!(info.in_values_per_image, 64 + 32);
        assert_eq!(info.positions, 16);
        assert!(info.layer_index.is_none());
    }
}
