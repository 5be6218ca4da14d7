//! The fork (tee) routing core — the fan-out point of a fork/join graph.
//!
//! A fork duplicates its input stream onto `B ≥ 2` branch port groups so a
//! residual block can feed both its transform path and its identity skip
//! path from the same activation stream. Like the §IV-A adapters it is
//! pure port plumbing: no backing network layer, no weights, no host
//! pipeline stage (both branches observe the same image, so the stage
//! topology routes each branch directly to the fork's producer).
//!
//! The actor mirrors [`crate::port::PortAdapter`]'s strict global FM
//! order: value `seq` (FM `seq mod FM`, on port `seq mod FM mod P`) moves
//! only when *every* branch can accept its copy — a blocked branch
//! backpressures the whole fork, which is exactly the hardware behaviour
//! of a tee writing all branch FIFOs in the same cycle.

use super::{CoreModel, CorePlan};
use crate::graph::{CoreInfo, DesignConfig, LayerPorts, NetworkDesign};
use crate::port::fm_port;
use crate::sim::{Actor, Quiescence, Wiring};
use crate::stream::{ChannelId, ChannelSet};
use crate::trace::{EventKind, Stall, Trace};
use dfcnn_fpga::resources::{CoreKind, CoreParams};
use dfcnn_nn::layer::Layer;
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

/// The fork (tee) actor: duplicates each input value onto every branch's
/// matching port, in strict global FM order.
pub struct ForkCore {
    name: String,
    in_chs: Vec<ChannelId>,
    out_chs: Vec<ChannelId>,
    fm: usize,
    seq: u64,
    moved: u64,
}

impl ForkCore {
    /// Build a fork over `fm` interleaved FMs. `out_chs` holds the branch
    /// port groups back to back: branch `b`'s port `p` is `out_chs[b·P+p]`.
    pub fn new(
        name: impl Into<String>,
        in_chs: Vec<ChannelId>,
        out_chs: Vec<ChannelId>,
        fm: usize,
    ) -> Self {
        assert!(!in_chs.is_empty(), "fork needs input ports");
        assert!(
            out_chs.len() >= 2 * in_chs.len() && out_chs.len().is_multiple_of(in_chs.len()),
            "fork needs at least two whole branch port groups"
        );
        assert_eq!(fm % in_chs.len(), 0, "ports must divide FM count");
        ForkCore {
            name: name.into(),
            in_chs,
            out_chs,
            fm,
            seq: 0,
            moved: 0,
        }
    }

    fn branches(&self) -> usize {
        self.out_chs.len() / self.in_chs.len()
    }
}

impl Actor for ForkCore {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, cycle: u64, chans: &mut ChannelSet, trace: &mut Trace) {
        let n = self.in_chs.len();
        let b = self.branches();
        // strict global order; stop at the first value that cannot move
        // to *all* branches. The ports divide `fm`, so the first `n`
        // values in sequence use `n` distinct ports.
        for _ in 0..n {
            let f = (self.seq % self.fm as u64) as usize;
            let p = fm_port(f, n);
            if chans.peek(self.in_chs[p]).is_none() {
                break;
            }
            if (0..b).any(|br| !chans.can_push(self.out_chs[br * n + p])) {
                break;
            }
            let v = chans.pop(self.in_chs[p]).unwrap();
            for br in 0..b {
                chans.push(self.out_chs[br * n + p], v);
            }
            self.seq += 1;
            self.moved += 1;
            trace.record(cycle, &self.name, EventKind::Emit);
        }
    }

    fn busy(&self) -> bool {
        false // the tee holds no state between cycles
    }

    fn initiations(&self) -> u64 {
        self.moved
    }

    fn wiring(&self) -> Wiring {
        Wiring {
            inputs: self.in_chs.clone(),
            outputs: self.out_chs.clone(),
        }
    }

    fn quiescence(&self, _now: u64, chans: &ChannelSet) -> Quiescence {
        let n = self.in_chs.len();
        let f = (self.seq % self.fm as u64) as usize;
        let p = fm_port(f, n);
        let all_free = (0..self.branches()).all(|br| chans.can_push(self.out_chs[br * n + p]));
        if chans.peek(self.in_chs[p]).is_some() && all_free {
            Quiescence::Active
        } else {
            Quiescence::Wait(None)
        }
    }

    fn stall(&self, chans: &ChannelSet) -> Stall {
        let n = self.in_chs.len();
        let f = (self.seq % self.fm as u64) as usize;
        let p = fm_port(f, n);
        if chans.peek(self.in_chs[p]).is_none() {
            return Stall::Starved(p);
        }
        match (0..self.branches()).find(|br| !chans.can_push(self.out_chs[br * n + p])) {
            Some(br) => Stall::Backpressured(br * n + p),
            None => Stall::Computing, // the move happens next tick
        }
    }
}

impl CoreModel for ForkModel {
    fn kind(&self) -> CoreKind {
        CoreKind::Fork
    }

    fn label(&self) -> &'static str {
        "fork"
    }

    fn feature_maps(&self, _layer: &Layer) -> (usize, usize) {
        unreachable!("forks are planned from graph fan-out, not layers")
    }

    fn plan(&self, _layer: &Layer, _lp: LayerPorts, _config: &DesignConfig) -> CorePlan {
        unreachable!("forks are planned from graph fan-out, not layers")
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
        Box::new(ForkCore::new(
            core.name.clone(),
            in_chs,
            out_chs,
            core.params.in_fm,
        ))
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

    fn drive(core: &mut ForkCore, chans: &mut ChannelSet, cycles: usize) {
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
    fn duplicates_onto_both_branches() {
        let mut chans = ChannelSet::new();
        let i0 = chans.alloc(16);
        let a0 = chans.alloc(16);
        let b0 = chans.alloc(16);
        for f in 0..6 {
            chans.push(i0, f as f32);
        }
        chans.commit_all();
        let mut fork = ForkCore::new("fork", vec![i0], vec![a0, b0], 2);
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
        let mut fork = ForkCore::new("fork", vec![i0], vec![a0, b0], 2);
        drive(&mut fork, &mut chans, 8);
        // both branches advance in lock-step: the full one caps the other
        assert_eq!(chans.get(a0).len(), 2);
        assert_eq!(chans.get(b0).len(), 2);
        assert!(matches!(fork.stall(&chans), Stall::Backpressured(0)));
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
        let mut fork = ForkCore::new("fork", ins, outs.clone(), 4);
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
        let fork = ForkCore::new("fork", vec![i0], vec![a0, b0], 1);
        assert!(matches!(fork.stall(&chans), Stall::Starved(0)));
        assert!(matches!(fork.quiescence(0, &chans), Quiescence::Wait(None)));
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
