//! Port-width adaptation between adjacent layers (§IV-A).
//!
//! Three cases connect layer `i-1` (producing `OUT_PORTS` streams) to layer
//! `i` (consuming `IN_PORTS` streams):
//!
//! 1. `OUT_PORTSᵢ₋₁ = IN_PORTSᵢ` — direct wiring, no adapter.
//! 2. `OUT_PORTSᵢ₋₁ < IN_PORTSᵢ` — a **demux core** routes each value "to
//!    the proper input port of `i` according to how the different FMs are
//!    interleaved on the output port of `i-1`".
//! 3. `OUT_PORTSᵢ₋₁ > IN_PORTSᵢ` — the consumer's filters gain "an
//!    additional innermost loop to cycle the reads from the different
//!    output channels of `i-1`", i.e. a serialising merge.
//!
//! [`PortAdapter`] implements cases 2 and 3 (and degenerates to a repeater
//! for case 1, though the graph builder wires that case directly). The
//! interleaving convention everywhere is round-robin: **FM `f` travels on
//! port `f mod P`**, pixels in raster order, FMs in increasing order within
//! a pixel. The adapter moves values in strict global FM order — possibly
//! several per cycle when they use disjoint input and output ports — which
//! preserves per-FIFO ordering while matching the bandwidth of the
//! narrower side, exactly like the hardware.
//!
//! The adapter also carries a per-FM value map ([`FmMap`]), applied to
//! each value on the way through. The default, [`IdentityMap`], moves
//! values unchanged; the scale-shift core
//! ([`crate::model::scaleshift::ScaleShiftCore`]) is this adapter with a
//! per-FM affine map.

use crate::sim::{Actor, Quiescence, Wiring};
use crate::stream::{ChannelId, ChannelSet};
use crate::trace::{EventKind, Stall, Trace};

/// Which FMs travel on which port under the round-robin interleave.
#[inline]
pub fn fm_port(f: usize, ports: usize) -> usize {
    f % ports
}

/// A per-FM value map applied by a [`PortAdapter`] to each value it
/// moves.
pub trait FmMap {
    /// The value leaving for feature map `f`, given the value `v` that
    /// arrived.
    fn map(&self, f: usize, v: f32) -> f32;
}

/// The plain adapter's map: values pass unchanged.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdentityMap;

impl FmMap for IdentityMap {
    #[inline]
    fn map(&self, _f: usize, v: f32) -> f32 {
        v
    }
}

/// The adapter actor for the §IV-A port-width cases, applying the per-FM
/// map `M` on the way through.
pub struct PortAdapter<M = IdentityMap> {
    name: String,
    in_chs: Vec<ChannelId>,
    out_chs: Vec<ChannelId>,
    /// Feature maps carried per pixel.
    fm: usize,
    /// Global value sequence number (pixel-major, FM-minor).
    seq: u64,
    moved: u64,
    map: M,
}

impl PortAdapter {
    /// Build an adapter carrying `fm` interleaved feature maps.
    pub fn new(
        name: impl Into<String>,
        in_chs: Vec<ChannelId>,
        out_chs: Vec<ChannelId>,
        fm: usize,
    ) -> Self {
        PortAdapter::with_map(name, in_chs, out_chs, fm, IdentityMap)
    }
}

impl<M: FmMap> PortAdapter<M> {
    /// Build an adapter carrying `fm` interleaved feature maps that maps
    /// each value through `map`.
    pub fn with_map(
        name: impl Into<String>,
        in_chs: Vec<ChannelId>,
        out_chs: Vec<ChannelId>,
        fm: usize,
        map: M,
    ) -> Self {
        assert!(
            !in_chs.is_empty() && !out_chs.is_empty(),
            "adapter needs ports"
        );
        assert_eq!(fm % in_chs.len(), 0, "input ports must divide FM count");
        assert_eq!(fm % out_chs.len(), 0, "output ports must divide FM count");
        PortAdapter {
            name: name.into(),
            in_chs,
            out_chs,
            fm,
            seq: 0,
            moved: 0,
            map,
        }
    }

    /// Values moved so far.
    pub fn moved(&self) -> u64 {
        self.moved
    }
}

impl<M: FmMap> Actor for PortAdapter<M> {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, cycle: u64, chans: &mut ChannelSet, trace: &mut Trace) {
        let n = self.in_chs.len();
        let m = self.out_chs.len();
        // move values in strict global order; stop at the first one that
        // cannot move (empty input or full output). Both port counts
        // divide `fm`, so consecutive values use consecutive ports and the
        // first min(n, m) of them never share one.
        for _ in 0..n.min(m) {
            let f = (self.seq % self.fm as u64) as usize;
            let src = self.in_chs[fm_port(f, n)];
            let dst = self.out_chs[fm_port(f, m)];
            if chans.peek(src).is_none() || !chans.can_push(dst) {
                break;
            }
            let v = chans.pop(src).unwrap();
            chans.push(dst, self.map.map(f, v));
            self.seq += 1;
            self.moved += 1;
            trace.record(cycle, &self.name, EventKind::Emit);
        }
    }

    fn busy(&self) -> bool {
        false // adapters hold no state between cycles
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
        // the adapter moves values in strict global order, so next cycle's
        // tick does something iff the *next* value in sequence can move
        let f = (self.seq % self.fm as u64) as usize;
        let src = self.in_chs[fm_port(f, self.in_chs.len())];
        let dst = self.out_chs[fm_port(f, self.out_chs.len())];
        if chans.peek(src).is_some() && chans.can_push(dst) {
            Quiescence::Active
        } else {
            Quiescence::Wait(None)
        }
    }

    fn stall(&self, chans: &ChannelSet) -> Stall {
        // strict global order: the next value in sequence determines the
        // blocking side
        let f = (self.seq % self.fm as u64) as usize;
        let ip = fm_port(f, self.in_chs.len());
        let op = fm_port(f, self.out_chs.len());
        if chans.peek(self.in_chs[ip]).is_none() {
            Stall::Starved(ip)
        } else if !chans.can_push(self.out_chs[op]) {
            Stall::Backpressured(op)
        } else {
            Stall::Computing // both sides ready: the move happens next tick
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(adapter: &mut PortAdapter, chans: &mut ChannelSet, cycles: usize) {
        let mut trace = Trace::disabled();
        for c in 0..cycles {
            adapter.tick(c as u64, chans, &mut trace);
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
    fn demux_1_to_2_routes_by_fm() {
        // 4 FMs interleaved on one port -> 2 ports: f%2
        let mut chans = ChannelSet::new();
        let i0 = chans.alloc(16);
        let o0 = chans.alloc(16);
        let o1 = chans.alloc(16);
        // two pixels: values f0..f3 per pixel encoded as pixel*10 + f
        for px in 0..2 {
            for f in 0..4 {
                chans.push(i0, (px * 10 + f) as f32);
            }
        }
        chans.commit_all();
        let mut a = PortAdapter::new("demux", vec![i0], vec![o0, o1], 4);
        drive(&mut a, &mut chans, 16);
        assert_eq!(drain(&mut chans, o0), vec![0.0, 2.0, 10.0, 12.0]);
        assert_eq!(drain(&mut chans, o1), vec![1.0, 3.0, 11.0, 13.0]);
        assert_eq!(a.moved(), 8);
    }

    #[test]
    fn widen_2_to_1_serialises_in_fm_order() {
        let mut chans = ChannelSet::new();
        let i0 = chans.alloc(16);
        let i1 = chans.alloc(16);
        let o0 = chans.alloc(16);
        // 4 FMs over 2 input ports: port0 carries f=0,2; port1 f=1,3
        for px in 0..2 {
            chans.push(i0, (px * 10) as f32); // f0
            chans.push(i0, (px * 10 + 2) as f32); // f2
            chans.push(i1, (px * 10 + 1) as f32); // f1
            chans.push(i1, (px * 10 + 3) as f32); // f3
        }
        chans.commit_all();
        let mut a = PortAdapter::new("widen", vec![i0, i1], vec![o0], 4);
        drive(&mut a, &mut chans, 16);
        assert_eq!(
            drain(&mut chans, o0),
            vec![0.0, 1.0, 2.0, 3.0, 10.0, 11.0, 12.0, 13.0]
        );
    }

    #[test]
    fn widen_output_is_rate_limited() {
        // 2 -> 1: at most one value per cycle can leave
        let mut chans = ChannelSet::new();
        let i0 = chans.alloc(16);
        let i1 = chans.alloc(16);
        let o0 = chans.alloc(16);
        for f in [0.0f32, 2.0] {
            chans.push(i0, f);
        }
        for f in [1.0f32, 3.0] {
            chans.push(i1, f);
        }
        chans.commit_all();
        let mut a = PortAdapter::new("widen", vec![i0, i1], vec![o0], 4);
        let mut trace = Trace::disabled();
        a.tick(0, &mut chans, &mut trace);
        chans.commit_all();
        assert_eq!(chans.get(o0).len(), 1, "only one value per cycle on 1 port");
        drive(&mut a, &mut chans, 8);
        assert_eq!(drain(&mut chans, o0), vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn demux_1_to_3_can_only_move_one_per_cycle() {
        // input side is the bottleneck: a single input port moves ≤ 1/cycle
        let mut chans = ChannelSet::new();
        let i0 = chans.alloc(16);
        let outs: Vec<_> = (0..3).map(|_| chans.alloc(16)).collect();
        for f in 0..3 {
            chans.push(i0, f as f32);
        }
        chans.commit_all();
        let mut a = PortAdapter::new("demux", vec![i0], outs.clone(), 3);
        let mut trace = Trace::disabled();
        a.tick(0, &mut chans, &mut trace);
        chans.commit_all();
        let total: usize = outs.iter().map(|&o| chans.get(o).len()).sum();
        assert_eq!(total, 1);
    }

    #[test]
    fn blocked_output_stalls_in_order() {
        // strict ordering: if the next value's output is full, nothing
        // later may overtake it
        let mut chans = ChannelSet::new();
        let i0 = chans.alloc(16);
        let o0 = chans.alloc(1); // tiny: fills immediately
        let o1 = chans.alloc(16);
        for f in 0..4 {
            chans.push(i0, f as f32);
        }
        chans.commit_all();
        let mut a = PortAdapter::new("demux", vec![i0], vec![o0, o1], 2);
        drive(&mut a, &mut chans, 4);
        // f=0 went to o0 (now full); f=1 must NOT appear on o1 before f=0
        // is drained... it can, actually: f=1 targets o1 which is free and
        // uses a different output port in a later cycle. Strictness is
        // per-FIFO: o1 must receive 1.0 then 3.0 in order.
        assert_eq!(chans.get(o0).len(), 1);
        let got1 = drain(&mut chans, o1);
        assert_eq!(got1, vec![1.0]); // 3.0 blocked behind 2.0 which waits for o0
    }

    #[test]
    fn equal_ports_acts_as_repeater() {
        let mut chans = ChannelSet::new();
        let i: Vec<_> = (0..2).map(|_| chans.alloc(8)).collect();
        let o: Vec<_> = (0..2).map(|_| chans.alloc(8)).collect();
        chans.push(i[0], 1.0);
        chans.push(i[1], 2.0);
        chans.commit_all();
        let mut a = PortAdapter::new("rep", i.clone(), o.clone(), 2);
        drive(&mut a, &mut chans, 4);
        assert_eq!(drain(&mut chans, o[0]), vec![1.0]);
        assert_eq!(drain(&mut chans, o[1]), vec![2.0]);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn non_dividing_ports_rejected() {
        let mut chans = ChannelSet::new();
        let i0 = chans.alloc(4);
        let o0 = chans.alloc(4);
        let o1 = chans.alloc(4);
        PortAdapter::new("bad", vec![i0], vec![o0, o1], 3);
    }
}
