//! The fork (tee) routing core — the fan-out point of a fork/join graph.
//!
//! A fork duplicates its input stream onto `B ≥ 2` branch port groups so a
//! residual block can feed both its transform path and its identity skip
//! path from the same activation stream. Like the §IV-A adapters it is
//! pure port plumbing: no backing network layer, no weights, no host
//! pipeline stage (both branches observe the same image, so the stage
//! topology routes each branch directly to the fork's producer).
//!
//! Its actor is the [`Router`] along the [`Tee`] route, in strict global FM
//! order: the value of FM `f` (on port `f mod P`) moves only when *every*
//! branch can accept its copy — a blocked branch backpressures the whole
//! fork, which is exactly the hardware behaviour of a tee writing all
//! branch FIFOs in the same cycle.

use super::CoreModel;
use crate::graph::{CoreInfo, DesignConfig, NetworkDesign};
use crate::port::{fm_port, Lanes, Route, Router};
use crate::sim::Actor;
use crate::stream::ChannelId;
use dfcnn_fpga::resources::{CoreKind, CoreParams};
use std::fmt::Write as _;

/// The fork core's [`CoreModel`].
pub struct ForkModel;

/// Plan a fork core carrying `in_fm` interleaved FMs on `ports` streams
/// per branch. `in_values` is the per-image stream volume *entering* the
/// fork; `index` numbers the core in pipeline order (adapter convention).
pub(crate) fn plan_fork(in_fm: usize, ports: usize, in_values: u64, index: usize) -> CoreInfo {
    CoreInfo {
        name: format!("fork{index}"),
        params: CoreParams {
            kind: CoreKind::Fork,
            in_fm,
            out_fm: in_fm,
            in_ports: ports,
            out_ports: ports, // per branch; the out-degree lives in the edges
            kh: 1,
            kw: 1,
            image_w: 1,
            ii: 1,
            weights: 0,
            accumulators: 1,
        },
        layer_index: None,
        in_values_per_image: in_values,
        positions: 0,
    }
}

/// The fork's [`Route`]: the value of FM `f` pops input port
/// `p = f mod P` and is pushed to port `p` of every branch, where branch
/// `b`'s port `p` is output channel `b·P + p`.
pub struct Tee {
    ports: usize,
    branches: usize,
}

impl Tee {
    /// The tee from `in_ports` streams onto `out_ports` (whole branch port
    /// groups back to back) over `fm` interleaved FMs.
    pub fn new(in_ports: usize, out_ports: usize, fm: usize) -> Self {
        assert!(in_ports > 0, "fork needs input ports");
        assert!(
            out_ports >= 2 * in_ports && out_ports.is_multiple_of(in_ports),
            "fork needs at least two whole branch port groups"
        );
        assert_eq!(fm % in_ports, 0, "ports must divide FM count");
        Tee {
            ports: in_ports,
            branches: out_ports / in_ports,
        }
    }
}

impl Route for Tee {
    fn group_widths(&self) -> (usize, usize) {
        (self.ports, self.ports)
    }

    fn pops(&self, f: usize) -> Lanes {
        Lanes::one(fm_port(f, self.ports))
    }

    fn pushes(&self, f: usize) -> Lanes {
        Lanes::strided(fm_port(f, self.ports), self.ports, self.branches)
    }

    fn value(&self, _f: usize, operands: &[f32]) -> f32 {
        operands[0]
    }
}

impl CoreModel for ForkModel {
    fn kind(&self) -> CoreKind {
        CoreKind::Fork
    }

    fn label(&self) -> &'static str {
        "fork"
    }

    fn estimate_interval(&self, core: &CoreInfo, _config: &DesignConfig) -> u64 {
        // one value per input port per cycle, all branches in lock-step
        core.in_values_per_image / core.params.in_ports as u64
    }

    fn static_profile(&self, design: &NetworkDesign, core: &CoreInfo) -> super::StaticProfile {
        // each branch re-emits the full input volume
        let idx = design
            .cores()
            .iter()
            .position(|c| c.name == core.name)
            .expect("fork core belongs to its design");
        super::StaticProfile {
            out_values_per_image: core.in_values_per_image * design.core_out_degree(idx) as u64,
            expected_ii: 1,
            line_buffer: None,
        }
    }

    fn block_label(&self, core: &CoreInfo) -> String {
        format!("[{} tee in:{}]", core.name, core.params.in_ports)
    }

    fn make_actor(
        &self,
        _design: &NetworkDesign,
        core: &CoreInfo,
        in_chs: Vec<ChannelId>,
        out_chs: Vec<ChannelId>,
    ) -> Box<dyn Actor> {
        let fm = core.params.in_fm;
        let route = Tee::new(in_chs.len(), out_chs.len(), fm);
        Box::new(Router::new(core.name.clone(), in_chs, out_chs, fm, route))
    }

    fn emit_cpp(&self, design: &NetworkDesign, idx: usize) -> String {
        use crate::codegen::{header, interface_pragmas, stream_args};
        let info = &design.cores()[idx];
        let p = &info.params;
        let branches = design.core_out_degree(idx).max(2);
        let mut s = header();
        let _ = write!(
            s,
            "// fork (tee) core: duplicates the activation stream onto {br}\n\
             // branch port groups — the fan-out point of a fork/join graph.\n\
             // A blocked branch backpressures the whole tee.\n\
             void {name}({ins}, {outs}) {{\n{ipr}{opr}\
             \x20   tee: for (int f = 0; ; f = (f + 1) % {fm}) {{\n\
             #pragma HLS PIPELINE II=1\n\
             \x20       duplicate(f % {ip} /* -> port b*{ip} + f % {ip} of each branch b */);\n\
             \x20   }}\n\
             }}\n",
            br = branches,
            name = info.name,
            ins = stream_args("in", p.in_ports),
            outs = stream_args("out", branches * p.out_ports),
            ipr = interface_pragmas("in", p.in_ports),
            opr = interface_pragmas("out", branches * p.out_ports),
            fm = p.in_fm,
            ip = p.in_ports,
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{Next, Quiescence};
    use crate::stream::ChannelSet;
    use crate::trace::{Stall, Trace};

    fn tee(ins: Vec<ChannelId>, outs: Vec<ChannelId>, fm: usize) -> Router<Tee> {
        let route = Tee::new(ins.len(), outs.len(), fm);
        Router::new("fork", ins, outs, fm, route)
    }

    /// Tick `cycles` times, committing after each; returns the last
    /// tick's [`Next`].
    fn drive(core: &mut Router<Tee>, chans: &mut ChannelSet, cycles: usize) -> Next {
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
    fn duplicates_onto_both_branches() {
        let mut chans = ChannelSet::new();
        let i0 = chans.alloc(16);
        let a0 = chans.alloc(16);
        let b0 = chans.alloc(16);
        for f in 0..6 {
            chans.push(i0, f as f32);
        }
        chans.commit_all();
        let mut fork = tee(vec![i0], vec![a0, b0], 2);
        drive(&mut fork, &mut chans, 8);
        let want: Vec<f32> = (0..6).map(|f| f as f32).collect();
        assert_eq!(drain(&mut chans, a0), want);
        assert_eq!(drain(&mut chans, b0), want);
        assert_eq!(fork.initiations(), 6);
    }

    #[test]
    fn blocked_branch_backpressures_the_tee() {
        let mut chans = ChannelSet::new();
        let i0 = chans.alloc(16);
        let a0 = chans.alloc(2); // tiny: fills after two values
        let b0 = chans.alloc(16);
        for f in 0..6 {
            chans.push(i0, f as f32);
        }
        chans.commit_all();
        let mut fork = tee(vec![i0], vec![a0, b0], 2);
        let next = drive(&mut fork, &mut chans, 8);
        // both branches advance in lock-step: the full one caps the other
        assert_eq!(chans.get(a0).len(), 2);
        assert_eq!(chans.get(b0).len(), 2);
        assert!(matches!(next.stall, Stall::Backpressured(0)));
        // draining the slow branch (twice: it refills after two values)
        // restarts the tee and lets the fast branch finish
        for _ in 0..3 {
            drain(&mut chans, a0);
            chans.commit_all();
            drive(&mut fork, &mut chans, 8);
        }
        assert_eq!(drain(&mut chans, b0), vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(fork.initiations(), 6);
    }

    #[test]
    fn two_port_fork_keeps_fm_routing() {
        // 4 FMs on 2 ports, two branches: branch b port p is out[b*2+p]
        let mut chans = ChannelSet::new();
        let ins: Vec<_> = (0..2).map(|_| chans.alloc(16)).collect();
        let outs: Vec<_> = (0..4).map(|_| chans.alloc(16)).collect();
        // port 0 carries f=0,2; port 1 carries f=1,3
        chans.push(ins[0], 0.0);
        chans.push(ins[1], 1.0);
        chans.push(ins[0], 2.0);
        chans.push(ins[1], 3.0);
        chans.commit_all();
        let mut fork = tee(ins, outs.clone(), 4);
        drive(&mut fork, &mut chans, 8);
        assert_eq!(drain(&mut chans, outs[0]), vec![0.0, 2.0]);
        assert_eq!(drain(&mut chans, outs[1]), vec![1.0, 3.0]);
        assert_eq!(drain(&mut chans, outs[2]), vec![0.0, 2.0]);
        assert_eq!(drain(&mut chans, outs[3]), vec![1.0, 3.0]);
    }

    #[test]
    fn starved_fork_reports_the_input_port() {
        let mut chans = ChannelSet::new();
        let i0 = chans.alloc(4);
        let a0 = chans.alloc(4);
        let b0 = chans.alloc(4);
        let mut fork = tee(vec![i0], vec![a0, b0], 1);
        let next = fork.tick(0, &mut chans, &mut Trace::disabled());
        assert!(matches!(next.stall, Stall::Starved(0)));
        assert!(matches!(next.wait, Quiescence::Wait(None)));
    }

    #[test]
    fn plan_fork_shape() {
        let info = plan_fork(6, 2, 600, 3);
        assert_eq!(info.name, "fork3");
        assert_eq!(info.params.kind, CoreKind::Fork);
        assert_eq!(info.params.in_ports, 2);
        assert_eq!(info.params.out_ports, 2);
        assert_eq!(info.params.weights, 0);
        assert!(info.layer_index.is_none());
        assert_eq!(info.in_values_per_image, 600);
    }
}
