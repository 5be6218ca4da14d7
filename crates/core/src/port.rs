//! Port-width adaptation between adjacent layers (§IV-A), and the one
//! router shell every strict-FM-order core runs in.
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
//! The interleaving convention everywhere is round-robin: **FM `f` travels
//! on port `f mod P`**, pixels in raster order, FMs in increasing order
//! within a pixel.
//!
//! [`Router`] is the actor of cases 2 and 3 (it degenerates to a repeater
//! for case 1, though the graph builder wires that case directly) and of
//! every other kind that moves values in strict global FM order: the
//! scale-shift core, the fork tee, the eltwise add and the concat join.
//! The kind supplies a small [`Route`]: for FM `f`, the input channels the
//! value pops, the output channels it pushes and the value written. The
//! router moves values in sequence — possibly several per cycle when they
//! use disjoint ports — which preserves per-FIFO ordering while matching
//! the bandwidth of the narrower side, exactly like the hardware. The
//! adapters' and the scale-shift core's route is [`Adapt`], carrying a
//! per-FM value map ([`FmMap`]); [`IdentityMap`] moves values unchanged.
//!
//! A route is also its kind's host pipeline stage: [`RouteStage`] runs it
//! over whole tensors, one read cursor per operand, so the host and the
//! actor compute every value through the same [`Route::value`].

use crate::model::StageWorker;
use crate::sim::{Actor, Next, Quiescence, Wiring};
use crate::stream::{ChannelId, ChannelSet};
use crate::trace::{EventKind, Stall, Trace};
use dfcnn_tensor::Tensor3;

#[cfg(test)]
pub(crate) use tests::stage_matches_router;

/// Which FMs travel on which port under the round-robin interleave.
#[inline]
pub fn fm_port(f: usize, ports: usize) -> usize {
    f % ports
}

/// A strided set of channel indices: `count` of them, from `first`,
/// `stride` apart.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Lanes {
    first: usize,
    stride: usize,
    count: usize,
}

impl Lanes {
    /// The one channel `i`.
    pub fn one(i: usize) -> Self {
        Lanes::strided(i, 0, 1)
    }

    /// Channels `first + k·stride` for `k < count`.
    pub fn strided(first: usize, stride: usize, count: usize) -> Self {
        Lanes {
            first,
            stride,
            count,
        }
    }

    fn iter(self) -> impl Iterator<Item = usize> {
        (0..self.count).map(move |k| self.first + k * self.stride)
    }
}

/// The kind-specific part of a [`Router`]: where the value of FM `f` comes
/// from, where it goes and what it becomes.
pub trait Route {
    /// Ports per input group and per output group. The ports divide the
    /// FM count, so the next `min` of the two values in sequence never
    /// share a port: the router moves at most that many per cycle.
    fn group_widths(&self) -> (usize, usize);

    /// The input channels (indices into the router's inputs) the value of
    /// FM `f` pops, in operand order: one, or two.
    fn pops(&self, f: usize) -> Lanes;

    /// The output channels the value of FM `f` is pushed to.
    fn pushes(&self, f: usize) -> Lanes;

    /// The value written for FM `f`, given the popped operands.
    fn value(&self, f: usize, operands: &[f32]) -> f32;

    /// The values written for the one-operand FMs
    /// `first..first + outs.len()`, FM `first + i` popping `xs[i]`:
    /// [`Route::value`] FM by FM, unless the route has a loop of the same
    /// bits.
    fn values(&self, first: usize, xs: &[f32], outs: &mut [f32]) {
        for (i, (o, &x)) in outs.iter_mut().zip(xs).enumerate() {
            *o = self.value(first + i, &[x]);
        }
    }
}

/// A per-FM value map applied by an [`Adapt`] route to each value it
/// moves.
pub trait FmMap {
    /// The values leaving for the consecutive feature maps
    /// `first..first + outs.len()`, given the values `xs` that arrived.
    fn map(&self, first: usize, xs: &[f32], outs: &mut [f32]);
}

/// The plain adapter's map: values pass unchanged.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdentityMap;

impl FmMap for IdentityMap {
    #[inline]
    fn map(&self, _first: usize, xs: &[f32], outs: &mut [f32]) {
        outs.copy_from_slice(xs);
    }
}

/// The route of the §IV-A port-width cases: FM `f` moves from input port
/// `f mod N` to output port `f mod M` through the per-FM map `M`.
pub struct Adapt<M = IdentityMap> {
    in_ports: usize,
    out_ports: usize,
    map: M,
}

impl<M: FmMap> Adapt<M> {
    /// Route `fm` interleaved FMs from `in_ports` to `out_ports` streams.
    pub fn new(in_ports: usize, out_ports: usize, fm: usize, map: M) -> Self {
        assert!(in_ports > 0 && out_ports > 0, "adapter needs ports");
        assert_eq!(fm % in_ports, 0, "input ports must divide FM count");
        assert_eq!(fm % out_ports, 0, "output ports must divide FM count");
        Adapt {
            in_ports,
            out_ports,
            map,
        }
    }
}

impl<M: FmMap> Route for Adapt<M> {
    fn group_widths(&self) -> (usize, usize) {
        (self.in_ports, self.out_ports)
    }

    fn pops(&self, f: usize) -> Lanes {
        Lanes::one(fm_port(f, self.in_ports))
    }

    fn pushes(&self, f: usize) -> Lanes {
        Lanes::one(fm_port(f, self.out_ports))
    }

    #[inline]
    fn value(&self, f: usize, operands: &[f32]) -> f32 {
        let mut v = [0.0];
        self.map.map(f, &operands[..1], &mut v);
        v[0]
    }

    #[inline]
    fn values(&self, first: usize, xs: &[f32], outs: &mut [f32]) {
        self.map.map(first, xs, outs);
    }
}

/// The router actor: moves values in strict global FM order along the
/// route `R`.
pub struct Router<R> {
    name: String,
    in_chs: Vec<ChannelId>,
    out_chs: Vec<ChannelId>,
    /// Feature maps carried per pixel.
    fm: usize,
    /// Values moved so far: the next value in sequence (pixel-major,
    /// FM-minor) is number `moved`.
    moved: u64,
    /// Values moved per cycle at most.
    width: usize,
    route: R,
}

impl<R: Route> Router<R> {
    /// Build a router over `fm` interleaved feature maps.
    pub fn new(
        name: impl Into<String>,
        in_chs: Vec<ChannelId>,
        out_chs: Vec<ChannelId>,
        fm: usize,
        route: R,
    ) -> Self {
        let (in_width, out_width) = route.group_widths();
        Router {
            name: name.into(),
            in_chs,
            out_chs,
            fm,
            moved: 0,
            width: in_width.min(out_width),
            route,
        }
    }

    /// The FM of the next value in sequence, and its pops and pushes.
    #[inline]
    fn head(&self) -> (usize, Lanes, Lanes) {
        let f = (self.moved % self.fm as u64) as usize;
        (f, self.route.pops(f), self.route.pushes(f))
    }

    /// What keeps the next value from moving: its first empty input, else
    /// its first full output; `None` when it can move.
    #[inline]
    fn blocker(&self, chans: &ChannelSet, pops: Lanes, pushes: Lanes) -> Option<Stall> {
        if let Some(i) = pops.iter().find(|&i| chans.peek(self.in_chs[i]).is_none()) {
            return Some(Stall::Starved(i));
        }
        pushes
            .iter()
            .find(|&o| !chans.can_push(self.out_chs[o]))
            .map(Stall::Backpressured)
    }
}

impl<R: Route> Actor for Router<R> {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, cycle: u64, chans: &mut ChannelSet, trace: &mut Trace) -> Next {
        // move values in strict global order; stop at the first one that
        // cannot move, or after `width` moves. What blocks the router is
        // that value's blocker, on which only a push or pop wakes it; with
        // none, the move happens next tick.
        let mut moves = 0;
        loop {
            let (f, pops, pushes) = self.head();
            let blocker = self.blocker(chans, pops, pushes);
            if blocker.is_some() || moves == self.width {
                let wait = blocker.map_or(Quiescence::Active, |_| Quiescence::Wait(None));
                let stall = blocker.unwrap_or(Stall::Computing);
                return Next { wait, stall };
            }
            let mut operands = [0.0f32; 2];
            for (k, i) in pops.iter().enumerate() {
                operands[k] = chans.pop(self.in_chs[i]).unwrap();
            }
            let v = self.route.value(f, &operands[..pops.count]);
            for o in pushes.iter() {
                chans.push(self.out_chs[o], v);
            }
            self.moved += 1;
            moves += 1;
            trace.record(cycle, &self.name, EventKind::Emit);
        }
    }

    fn busy(&self) -> bool {
        false // a router holds no state between cycles
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
}

/// A routed kind's host pipeline stage: its [`Route`] run over whole
/// tensors, so the stage writes exactly the values the [`Router`] moves,
/// in the same order. Operand `k` is the route's input port group `k`,
/// read through its own cursor; each pixel's FMs are walked with a counter
/// in runs of consecutive FMs that pop the same operands. Where one run
/// covers the whole pixel (the add, the scale-shift core), the operands
/// and the output are walked whole, one pixel's `fm` values at a time.
pub struct RouteStage<R> {
    route: R,
    fm: usize,
    /// One pixel's runs: first FM, FM count, and the operands popped (the
    /// route's pops as group indices: the pops of one value share a port
    /// index, so their stride is a whole number of groups).
    runs: Vec<(usize, usize, Lanes)>,
}

impl<R: Route> RouteStage<R> {
    /// The stage of `route` over `fm` interleaved FMs.
    pub fn new(route: R, fm: usize) -> Self {
        let width = route.group_widths().0;
        let mut runs: Vec<(usize, usize, Lanes)> = Vec::new();
        for f in 0..fm {
            let pops = route.pops(f);
            let operands = Lanes::strided(pops.first / width, pops.stride / width, pops.count);
            match runs.last_mut() {
                Some((_, len, last)) if *last == operands => *len += 1,
                _ => runs.push((f, 1, operands)),
            }
        }
        RouteStage { route, fm, runs }
    }

    /// The FMs `first..first + outs.len()`, each from `a[i]`, or from
    /// `a[i]` and `b[i]` when a value pops two operands (the add).
    #[inline]
    fn run(&self, first: usize, operands: Lanes, a: &[f32], b: &[f32], outs: &mut [f32]) {
        if operands.count == 1 {
            self.route.values(first, a, outs);
        } else {
            for (i, (o, (&x, &y))) in outs.iter_mut().zip(a.iter().zip(b)).enumerate() {
                *o = self.route.value(first + i, &[x, y]);
            }
        }
    }
}

impl<R: Route + Send> StageWorker for RouteStage<R> {
    fn apply_multi(&mut self, inputs: &[&Tensor3<f32>], out: &mut Tensor3<f32>) {
        let operand = |k: usize| inputs[k].as_slice();
        if let [(_, _, operands)] = self.runs[..] {
            let a = operand(operands.first).chunks_exact(self.fm);
            // one operand: the second is never read
            let b = match operands.count {
                1 => operand(operands.first),
                _ => operand(operands.first + operands.stride),
            };
            let pixels = out.as_mut_slice().chunks_exact_mut(self.fm);
            for ((outs, a), b) in pixels.zip(a).zip(b.chunks_exact(self.fm)) {
                self.run(0, operands, a, b, outs);
            }
            return;
        }
        let mut cursors = [0usize; 2];
        for pixel in out.as_mut_slice().chunks_exact_mut(self.fm) {
            for &(first, len, operands) in &self.runs {
                let mut take = |k: usize| {
                    let at = cursors[k];
                    cursors[k] = at + len;
                    &operand(k)[at..at + len]
                };
                let a = take(operands.first);
                let b = if operands.count == 1 {
                    &[]
                } else {
                    take(operands.first + operands.stride)
                };
                self.run(first, operands, a, b, &mut pixel[first..first + len]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfcnn_tensor::Shape3;

    /// Run `route` over whole operand tensors twice — as its host stage,
    /// and through its router with each operand value queued on its port —
    /// and return the stage's output after checking that the router
    /// emitted the same bits in the same order.
    pub(crate) fn stage_matches_router<R: Route + Send>(
        route: impl Fn() -> R,
        fm: usize,
        inputs: &[&Tensor3<f32>],
    ) -> Vec<f32> {
        let pixels = inputs[0].as_slice().len() / inputs[0].shape().c;
        let total = pixels * fm;
        let mut staged = Tensor3::zeros(Shape3::new(1, pixels, fm));
        RouteStage::new(route(), fm).apply_multi(inputs, &mut staged);

        let route = route();
        let (in_width, out_width) = route.group_widths();
        let mut chans = ChannelSet::new();
        let ins: Vec<_> = (0..in_width * inputs.len())
            .map(|_| chans.alloc(total))
            .collect();
        let outs: Vec<_> = (0..out_width).map(|_| chans.alloc(total)).collect();
        for (k, x) in inputs.iter().enumerate() {
            let c = x.shape().c;
            for (i, &v) in x.as_slice().iter().enumerate() {
                chans.push(ins[k * in_width + fm_port(i % c, in_width)], v);
            }
        }
        chans.commit_all();
        let mut router = Router::new("route", ins, outs.clone(), fm, route);
        let mut trace = Trace::disabled();
        for c in 0..total as u64 {
            router.tick(c, &mut chans, &mut trace);
            chans.commit_all();
        }
        let moved: Vec<u32> = (0..total)
            .map(|i| {
                chans
                    .pop(outs[fm_port(i % fm, out_width)])
                    .unwrap()
                    .to_bits()
            })
            .collect();
        let staged = staged.as_slice().to_vec();
        let bits: Vec<u32> = staged.iter().map(|v| v.to_bits()).collect();
        assert_eq!(moved, bits, "host stage and router disagree");
        staged
    }

    /// The plain §IV-A adapter carrying `fm` interleaved feature maps.
    fn adapter(name: &str, ins: Vec<ChannelId>, outs: Vec<ChannelId>, fm: usize) -> Router<Adapt> {
        let route = Adapt::new(ins.len(), outs.len(), fm, IdentityMap);
        Router::new(name, ins, outs, fm, route)
    }

    fn drive(adapter: &mut Router<Adapt>, chans: &mut ChannelSet, cycles: usize) {
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
        let mut a = adapter("demux", vec![i0], vec![o0, o1], 4);
        drive(&mut a, &mut chans, 16);
        assert_eq!(drain(&mut chans, o0), vec![0.0, 2.0, 10.0, 12.0]);
        assert_eq!(drain(&mut chans, o1), vec![1.0, 3.0, 11.0, 13.0]);
        assert_eq!(a.initiations(), 8);
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
        let mut a = adapter("widen", vec![i0, i1], vec![o0], 4);
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
        let mut a = adapter("widen", vec![i0, i1], vec![o0], 4);
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
        let mut a = adapter("demux", vec![i0], outs.clone(), 3);
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
        let mut a = adapter("demux", vec![i0], vec![o0, o1], 2);
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
        let mut a = adapter("rep", i.clone(), o.clone(), 2);
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
        adapter("bad", vec![i0], vec![o0, o1], 3);
    }
}
