//! The windowed actor shell shared by the conv and pool kinds (§IV-A).
//!
//! The paper gives every conv and pool layer the same memory structure:
//! the SST sliding window with full buffering. Only the compute body
//! behind it differs. [`WindowedCore`] is that shared shell as a cycle
//! actor: an SST [`WindowEngine`], initiations at the Eq. 4 interval, a
//! fixed pipeline depth and serialised emission over the output ports.
//! The per-kind part is a [`WindowBody`]: the conv body lives in
//! [`super::conv`], the pool body in [`super::pool`].
//!
//! Values are quantised once, as they enter the line buffer, so a body
//! reads windows of the executed element type. Padding reads
//! `E::default()`, which is `E::zero()` and has the bits of
//! `E::from_f32(0.0)` for every element type; the host kernels pad with
//! `E::zero()` too, so both paths see the same window.

use super::{LineBufferSpec, StaticProfile};
use crate::graph::{CoreInfo, NetworkDesign};
use crate::sim::{Actor, Next, Quiescence, Wiring};
use crate::sst::{full_buffer_bound_per_port, WindowEngine};
use crate::stream::{ChannelId, ChannelSet};
use crate::trace::{EventKind, Stall, Trace};
use dfcnn_hls::ii::pipeline_ii;
use dfcnn_tensor::{ConvGeometry, Numeric};
use std::collections::VecDeque;

/// Steady-state interval of a windowed (conv/pool) core: the max of
/// per-port input serialisation, the Eq. 4 initiation schedule, and
/// per-port output serialisation.
pub(crate) fn windowed_interval(core: &CoreInfo) -> u64 {
    let p = &core.params;
    let per_port_in = core.in_values_per_image / p.in_ports as u64;
    let initiations = core.positions * p.ii as u64;
    let out_serial = core.positions * (p.out_fm / p.out_ports) as u64;
    per_port_in.max(initiations).max(out_serial)
}

/// The static profile of a windowed core over `geo` with `out_fm` output
/// maps: one value per output map per window position, the Eq. 4 II
/// recomputed from the geometry, and the line buffer against the SST
/// full-buffering bound.
pub(crate) fn windowed_profile(
    design: &NetworkDesign,
    core: &CoreInfo,
    geo: &ConvGeometry,
    out_fm: usize,
) -> StaticProfile {
    let p = &core.params;
    let required = full_buffer_bound_per_port(geo, p.in_ports);
    StaticProfile {
        out_values_per_image: geo.positions() as u64 * out_fm as u64,
        expected_ii: pipeline_ii(geo.input.c, p.in_ports, out_fm, p.out_ports),
        line_buffer: Some(LineBufferSpec {
            capacity_per_port: design.config().line_buffer_cap.unwrap_or(required),
            required_per_port: required,
        }),
    }
}

/// Per-output-port emission queue with pipeline-latency timestamps.
///
/// Compute results enter with a `ready_cycle`; [`OutputQueue::drain`] moves
/// at most one value per port per cycle into the output FIFOs, respecting
/// both the pipeline latency and downstream backpressure.
#[derive(Clone, Debug)]
pub(crate) struct OutputQueue {
    queues: Vec<VecDeque<(u64, f32)>>,
    chs: Vec<ChannelId>,
}

impl OutputQueue {
    pub(crate) fn new(chs: Vec<ChannelId>) -> Self {
        OutputQueue {
            queues: vec![VecDeque::new(); chs.len()],
            chs,
        }
    }

    /// Schedule interleaved emission of `values`: value `k` leaves port
    /// `k mod P` at `base_cycle + k/P` (one value per port per cycle).
    pub(crate) fn schedule(&mut self, base_cycle: u64, values: &[f32]) {
        let p = self.chs.len();
        for (k, &v) in values.iter().enumerate() {
            self.queues[k % p].push_back((base_cycle + (k / p) as u64, v));
        }
    }

    /// Emit everything that is ready and accepted downstream.
    pub(crate) fn drain(&mut self, cycle: u64, chans: &mut ChannelSet) -> usize {
        let mut emitted = 0;
        for (q, &ch) in self.queues.iter_mut().zip(self.chs.iter()) {
            if let Some(&(ready, v)) = q.front() {
                if cycle >= ready && chans.can_push(ch) {
                    chans.push(ch, v);
                    q.pop_front();
                    emitted += 1;
                }
            }
        }
        emitted
    }

    /// Longest per-port backlog (total values queued, including those
    /// still travelling through the compute pipeline). Used by tests to
    /// observe drain progress; initiation throttling uses
    /// [`OutputQueue::stalled_backlog`].
    #[cfg(test)]
    pub(crate) fn max_backlog(&self) -> usize {
        self.queues.iter().map(|q| q.len()).max().unwrap_or(0)
    }

    /// Longest per-port backlog of values that are *ready but unsent* —
    /// i.e. stalled by downstream backpressure rather than still in the
    /// pipeline. This is the signal that should throttle initiations: a
    /// pipelined core keeps many results in flight, but stops issuing when
    /// its output FIFO stops draining. Reference form of
    /// [`OutputQueue::backlog_exceeds`], kept for the equivalence test.
    #[cfg(test)]
    pub(crate) fn stalled_backlog(&self, cycle: u64) -> usize {
        self.queues
            .iter()
            .map(|q| q.iter().filter(|&&(ready, _)| ready <= cycle).count())
            .max()
            .unwrap_or(0)
    }

    /// Whether [`OutputQueue::stalled_backlog`] exceeds `limit`, with an
    /// early exit — the hot-path form used by initiation gating and the
    /// quiescence checks.
    pub(crate) fn backlog_exceeds(&self, cycle: u64, limit: usize) -> bool {
        self.queues.iter().any(|q| {
            let mut stalled = 0usize;
            for &(ready, _) in q.iter() {
                if ready <= cycle {
                    stalled += 1;
                    if stalled > limit {
                        return true;
                    }
                }
            }
            false
        })
    }

    /// Whether any value is still queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.queues.iter().all(|q| q.is_empty())
    }

    /// The output channels, in port order.
    pub(crate) fn channels(&self) -> &[ChannelId] {
        &self.chs
    }

    /// `(port, ready_cycle, channel)` of each non-empty port's head value.
    pub(crate) fn heads(&self) -> impl Iterator<Item = (usize, u64, ChannelId)> + '_ {
        self.queues
            .iter()
            .zip(self.chs.iter())
            .enumerate()
            .filter_map(|(p, (q, &ch))| q.front().map(|&(ready, _)| (p, ready, ch)))
    }
}

/// The compute body behind a [`WindowedCore`]: what one initiation does
/// with one extracted window.
pub trait WindowBody<E> {
    /// Compute the outputs of one window (layout of
    /// [`WindowEngine::extract`]) into `out`, dequantised for the `f32`
    /// stream transport, one value per output map.
    fn initiate(&mut self, window: &[E], out: &mut [f32]);
}

/// An SST-fed compute core: line buffers plus a pipelined body.
///
/// Per cycle it: (1) drains ready results onto its output ports, (2)
/// accepts at most one value per input port into the line buffers,
/// quantising it on the way in, and (3) when the next window is complete,
/// the II timer has elapsed and the previous initiation's results have
/// left the emission queue, *initiates*: runs the body on the window and
/// schedules the interleaved emission of its outputs after the pipeline
/// depth.
pub struct WindowedCore<E, B> {
    name: String,
    engine: WindowEngine<E>,
    in_chs: Vec<ChannelId>,
    out_q: OutputQueue,
    body: B,
    /// Eq. 4 initiation interval.
    ii: u64,
    /// Pipeline depth of the compute body in cycles.
    depth: u64,
    out_per_port: usize,
    next_initiation: u64,
    window: Vec<E>,
    out_buf: Vec<f32>,
    inits: u64,
}

impl<E: Numeric, B: WindowBody<E>> WindowedCore<E, B> {
    /// Wrap `body` in the SST shell for `geo`. `out_fm` values leave per
    /// initiation, interleaved over `out_chs`; `ii` must come from Eq. 4
    /// ([`pipeline_ii`]), which the graph builder computes.
    #[allow(clippy::too_many_arguments)]
    pub fn from_body(
        name: impl Into<String>,
        geo: ConvGeometry,
        in_chs: Vec<ChannelId>,
        out_chs: Vec<ChannelId>,
        out_fm: usize,
        ii: usize,
        depth: u64,
        body: B,
    ) -> Self {
        assert_eq!(out_fm % out_chs.len(), 0, "OUT_PORTS must divide OUT_FM");
        WindowedCore {
            name: name.into(),
            engine: WindowEngine::new(geo, in_chs.len()),
            out_per_port: out_fm / out_chs.len(),
            in_chs,
            out_q: OutputQueue::new(out_chs),
            body,
            ii: ii as u64,
            depth,
            next_initiation: 0,
            window: vec![E::zero(); geo.window_volume()],
            out_buf: vec![0.0; out_fm],
            inits: 0,
        }
    }

    /// Override the line-buffer capacity per port (fault injection; see
    /// [`crate::graph::DesignConfig::line_buffer_cap`]). `None` keeps the
    /// SST full-buffering bound.
    pub fn with_line_buffer_cap(mut self, cap: Option<usize>) -> Self {
        if let Some(c) = cap {
            self.engine = self.engine.with_capacity_per_port(c);
        }
        self
    }

    /// The Eq. 4 initiation interval this core runs at.
    pub fn ii(&self) -> u64 {
        self.ii
    }

    /// What blocks the core after its tick at `now`, in one walk over its
    /// three tick phases.
    ///
    /// The core must stay active iff one of the phases would fire at
    /// `now + 1`: an emission head is ready and its FIFO has space, an
    /// input port can accept a value that is (or becomes) visible, or an
    /// initiation is due. Otherwise it sleeps: blocked emissions are woken
    /// by downstream pops, starved inputs by upstream pushes, and purely
    /// time-gated work (pipeline latency, the II timer) by the earliest
    /// known ready cycle. Early wake-ups re-evaluate harmlessly.
    ///
    /// The stall class never reads the cycle, so it stays constant over a
    /// quiescent span. Priority order: a blocked emission head is
    /// `Backpressured` (whether or not its pipeline latency has elapsed —
    /// the output path is what's jammed), an acceptable-but-empty input
    /// port is `Starved`, any in-flight result or buffered window is
    /// `Computing` (pipeline latency / II pacing), and a core with nothing
    /// anywhere is `Idle`.
    fn next(&self, now: u64, chans: &ChannelSet) -> Next {
        let mut active = false;
        let mut wake: Option<u64> = None;
        let mut stall = None;
        let mut merge = |t: u64| wake = Some(wake.map_or(t, |w| w.min(t)));
        for (port, ready, ch) in self.out_q.heads() {
            if !chans.can_push(ch) {
                // the consumer's pop wakes us
                stall = stall.or(Some(Stall::Backpressured(port)));
            } else if ready <= now + 1 {
                active = true;
            } else {
                merge(ready);
            }
        }
        for (p, &ch) in self.in_chs.iter().enumerate() {
            // cannot accept: only our own initiation frees space, below
            if self.engine.can_accept(p) {
                if chans.peek(ch).is_some() {
                    active = true;
                } else {
                    // starved: the producer's push wakes us
                    stall = stall.or(Some(Stall::Starved(p)));
                }
            }
        }
        // the backlog test walks the output queue: an already active core
        // skips it
        if !active
            && self.engine.window_ready()
            && !self.out_q.backlog_exceeds(now + 1, self.out_per_port)
        {
            if now + 1 >= self.next_initiation {
                active = true;
            } else {
                merge(self.next_initiation);
            }
        }
        let stall = match stall {
            Some(stall) => stall,
            None if self.busy() => Stall::Computing,
            None => Stall::Idle,
        };
        let wait = if active {
            Quiescence::Active
        } else {
            Quiescence::Wait(wake)
        };
        Next { wait, stall }
    }
}

impl<E: Numeric, B: WindowBody<E>> Actor for WindowedCore<E, B> {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, cycle: u64, chans: &mut ChannelSet, trace: &mut Trace) -> Next {
        // 1. emission
        if self.out_q.drain(cycle, chans) > 0 {
            trace.record(cycle, &self.name, EventKind::Emit);
        }
        // 2. input acceptance: one value per port per cycle, quantised
        for (p, &ch) in self.in_chs.iter().enumerate() {
            if self.engine.can_accept(p) && chans.peek(ch).is_some() {
                let v = chans.pop(ch).unwrap();
                self.engine.accept(p, E::from_f32(v));
            }
        }
        // 3. initiation
        if cycle >= self.next_initiation
            && self.engine.window_ready()
            && !self.out_q.backlog_exceeds(cycle, self.out_per_port)
        {
            self.engine.extract(&mut self.window);
            self.body.initiate(&self.window, &mut self.out_buf);
            self.out_q.schedule(cycle + self.depth, &self.out_buf);
            self.next_initiation = cycle + self.ii;
            self.inits += 1;
            trace.record(cycle, &self.name, EventKind::Initiate);
        }
        self.next(cycle, chans)
    }

    fn busy(&self) -> bool {
        !self.out_q.is_empty() || self.engine.window_ready()
    }

    fn initiations(&self) -> u64 {
        self.inits
    }

    fn wiring(&self) -> Wiring {
        Wiring {
            inputs: self.in_chs.clone(),
            outputs: self.out_q.channels().to_vec(),
        }
    }

    fn buffer_hwm(&self) -> Option<(usize, usize)> {
        // peak per-port line-buffer occupancy vs the SST full-buffering
        // bound (both per port)
        Some((self.engine.max_occupancy(), self.engine.capacity_per_port()))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dfcnn_tensor::{Shape3, Tensor3};

    /// Stream one image through an isolated windowed core, one value per
    /// input port per cycle, and collect its outputs in stream order
    /// (value `k` of each window on port `k mod P`). `make` builds the
    /// core on the given input and output channels. Returns the outputs
    /// and the cycle count; shared by the conv and pool actor tests.
    pub(crate) fn run_windowed<A: Actor>(
        in_ports: usize,
        out_ports: usize,
        make: impl FnOnce(Vec<ChannelId>, Vec<ChannelId>) -> A,
        img: &Tensor3<f32>,
        out_shape: Shape3,
    ) -> (Tensor3<f32>, u64) {
        let mut chans = ChannelSet::new();
        let ins: Vec<_> = (0..in_ports).map(|_| chans.alloc(8)).collect();
        let outs: Vec<_> = (0..out_ports).map(|_| chans.alloc(8)).collect();
        let mut core = make(ins.clone(), outs.clone());
        let in_fm = img.shape().c;
        let mut streams: Vec<Vec<f32>> = vec![Vec::new(); in_ports];
        for px in img.as_slice().chunks(in_fm) {
            for (f, &x) in px.iter().enumerate() {
                streams[f % in_ports].push(x);
            }
        }
        let mut cursors = vec![0usize; in_ports];
        let mut collected = Vec::with_capacity(out_shape.len());
        let mut trace = Trace::disabled();
        let mut cycle = 0u64;
        let mut next_fm = 0usize;
        while collected.len() < out_shape.len() {
            for p in 0..in_ports {
                if cursors[p] < streams[p].len() && chans.can_push(ins[p]) {
                    chans.push(ins[p], streams[p][cursors[p]]);
                    cursors[p] += 1;
                }
            }
            core.tick(cycle, &mut chans, &mut trace);
            while let Some(v) = chans.pop(outs[next_fm % out_ports]) {
                collected.push(v);
                next_fm = (next_fm + 1) % out_shape.c;
            }
            chans.commit_all();
            cycle += 1;
            assert!(cycle < 2_000_000, "windowed core made no progress");
        }
        // outputs arrive window-major, FM-minor = stream order
        (Tensor3::from_vec(out_shape, collected), cycle)
    }

    /// Assert that a core's output equals the host kernel's bit for bit,
    /// naming the element type `E` on failure.
    pub(crate) fn assert_same_bits<E>(got: &Tensor3<f32>, expect: &Tensor3<f32>) {
        let bits = |t: &Tensor3<f32>| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(got),
            bits(expect),
            "{}: the cycle core must be bit-identical to the kernel",
            std::any::type_name::<E>()
        );
    }

    #[test]
    fn schedule_interleaves_over_ports() {
        let mut chans = ChannelSet::new();
        let p0 = chans.alloc(8);
        let p1 = chans.alloc(8);
        let mut q = OutputQueue::new(vec![p0, p1]);
        q.schedule(10, &[1.0, 2.0, 3.0, 4.0]);
        // port0: (10,1),(11,3); port1: (10,2),(11,4)
        assert_eq!(q.drain(9, &mut chans), 0, "nothing ready before base");
        assert_eq!(q.drain(10, &mut chans), 2);
        chans.commit_all();
        assert_eq!(q.drain(11, &mut chans), 2);
        chans.commit_all();
        assert!(q.is_empty());
        assert_eq!(chans.pop(p0), Some(1.0));
        assert_eq!(chans.pop(p0), Some(3.0));
        assert_eq!(chans.pop(p1), Some(2.0));
        assert_eq!(chans.pop(p1), Some(4.0));
    }

    #[test]
    fn backlog_exceeds_matches_stalled_backlog() {
        let mut chans = ChannelSet::new();
        let p0 = chans.alloc(8);
        let p1 = chans.alloc(8);
        let mut q = OutputQueue::new(vec![p0, p1]);
        q.schedule(5, &[1.0, 2.0, 3.0, 4.0, 5.0]);
        for cycle in [0u64, 5, 6, 100] {
            for limit in 0..4 {
                assert_eq!(
                    q.backlog_exceeds(cycle, limit),
                    q.stalled_backlog(cycle) > limit,
                    "cycle {cycle} limit {limit}"
                );
            }
        }
    }

    #[test]
    fn drain_respects_backpressure() {
        let mut chans = ChannelSet::new();
        let p0 = chans.alloc(1);
        let mut q = OutputQueue::new(vec![p0]);
        q.schedule(0, &[1.0, 2.0]);
        assert_eq!(q.drain(5, &mut chans), 1);
        assert_eq!(q.drain(6, &mut chans), 0, "FIFO full (uncommitted)");
        chans.commit_all();
        assert_eq!(q.drain(7, &mut chans), 0, "FIFO still full");
        chans.pop(p0);
        assert_eq!(q.drain(8, &mut chans), 1);
        assert_eq!(q.max_backlog(), 0);
    }
}
