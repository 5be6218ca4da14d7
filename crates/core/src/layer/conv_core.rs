//! The convolutional layer core (§IV-A, Algorithm 1) as a cycle actor.

use crate::kernel::{conv_window_packed, PackedFilters, LANES};
use crate::layer::{core_quiescence, core_stall, OutputQueue};
use crate::sim::{Actor, Quiescence, Wiring};
use crate::sst::WindowEngine;
use crate::stream::{ChannelId, ChannelSet};
use crate::trace::{EventKind, Stall, Trace};
use dfcnn_hls::latency::OpLatency;
use dfcnn_hls::pipeline::LoopNest;
use dfcnn_nn::act::Activation;
use dfcnn_nn::layer::Conv2d;
use dfcnn_tensor::Numeric;

/// Convolution compute core plus its SST memory structure.
///
/// Per cycle it: (1) drains ready results onto its output ports, (2)
/// accepts at most one value per input port into the line buffers, and (3)
/// when the next window is complete, the II timer has elapsed and the
/// previous initiation's results have left the emission queue, *initiates*:
/// computes all `OUT_FM` outputs for the window in hardware order and
/// schedules their interleaved emission after the pipeline depth.
///
/// Generic over the executed element type: filters and bias are quantised
/// once at build time, the extracted window is quantised per initiation
/// and results are dequantised for the `f32` stream transport — all
/// identities for `E = f32`, so the f32 actor is bit-identical to before.
pub struct ConvCore<E: Numeric = f32> {
    name: String,
    engine: WindowEngine,
    in_chs: Vec<ChannelId>,
    out_q: OutputQueue,
    filters: PackedFilters<E>,
    bias: Vec<E>,
    activation: Activation,
    /// Eq. 4 initiation interval.
    ii: u64,
    /// Pipeline depth of the compute body in cycles.
    depth: u64,
    out_per_port: usize,
    next_initiation: u64,
    window_buf: Vec<f32>,
    qwin: Vec<E>,
    out_buf: Vec<E>,
    emit_buf: Vec<f32>,
    scratch: Vec<[E::Acc; LANES]>,
    inits: u64,
}

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
        let out_ports = out_chs.len();
        let out_fm = conv.out_maps();
        assert_eq!(out_fm % out_ports, 0, "OUT_PORTS must divide OUT_FM");
        let engine = WindowEngine::new(geo, in_ports);
        let group_len = in_ports * geo.kh * geo.kw;
        let depth = LoopNest::conv_body_depth(group_len, ops) as u64;
        let filters = PackedFilters::new(conv.filters());
        ConvCore {
            name: name.into(),
            engine,
            in_chs,
            out_q: OutputQueue::new(out_chs),
            scratch: vec![[E::Acc::default(); LANES]; filters.scratch_len(in_ports)],
            filters,
            bias: conv
                .bias()
                .as_slice()
                .iter()
                .map(|&b| E::from_f32(b))
                .collect(),
            activation: conv.activation(),
            ii: ii as u64,
            depth,
            out_per_port: out_fm / out_ports,
            next_initiation: 0,
            window_buf: vec![0.0; geo.window_volume()],
            qwin: vec![E::zero(); geo.window_volume()],
            out_buf: vec![E::zero(); out_fm],
            emit_buf: vec![0.0; out_fm],
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

    /// The compute pipeline depth in cycles.
    pub fn depth(&self) -> u64 {
        self.depth
    }

    /// Peak line-buffer occupancy (full-buffering check).
    pub fn max_line_occupancy(&self) -> usize {
        self.engine.max_occupancy()
    }
}

impl<E: Numeric> Actor for ConvCore<E> {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, cycle: u64, chans: &mut ChannelSet, trace: &mut Trace) {
        // 1. emission
        if self.out_q.drain(cycle, chans) > 0 {
            trace.record(cycle, &self.name, EventKind::Emit);
        }
        // 2. input acceptance: one value per port per cycle
        for (p, &ch) in self.in_chs.iter().enumerate() {
            if self.engine.can_accept(p) && chans.peek(ch).is_some() {
                let v = chans.pop(ch).unwrap();
                self.engine.accept(p, v);
            }
        }
        // 3. initiation
        if cycle >= self.next_initiation
            && self.engine.window_ready()
            && !self.out_q.backlog_exceeds(cycle, self.out_per_port)
        {
            self.engine.extract(&mut self.window_buf);
            // quantise at the window boundary (identity for f32)
            for (q, &v) in self.qwin.iter_mut().zip(&self.window_buf) {
                *q = E::from_f32(v);
            }
            conv_window_packed(
                &mut self.out_buf,
                &self.qwin,
                &self.filters,
                &self.bias,
                self.activation,
                self.in_chs.len(),
                &mut self.scratch,
            );
            for (e, &v) in self.emit_buf.iter_mut().zip(&self.out_buf) {
                *e = v.to_f32();
            }
            self.out_q.schedule(cycle + self.depth, &self.emit_buf);
            self.next_initiation = cycle + self.ii;
            self.inits += 1;
            trace.record(cycle, &self.name, EventKind::Initiate);
        }
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

    fn quiescence(&self, now: u64, chans: &ChannelSet) -> Quiescence {
        core_quiescence(
            now,
            chans,
            &self.out_q,
            &self.in_chs,
            &self.engine,
            self.next_initiation,
            self.out_per_port,
        )
    }

    fn stall(&self, chans: &ChannelSet) -> Stall {
        core_stall(chans, &self.out_q, &self.in_chs, &self.engine)
    }

    fn buffer_hwm(&self) -> Option<(usize, usize)> {
        // peak per-port line-buffer occupancy vs the SST full-buffering
        // bound (both per port)
        Some((self.engine.max_occupancy(), self.engine.capacity_per_port()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::conv_forward_hw;
    use dfcnn_tensor::{ConvGeometry, Shape3, Tensor1, Tensor3};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Stream one image through an isolated core and collect its outputs.
    fn run_core(
        conv: &Conv2d,
        in_ports: usize,
        out_ports: usize,
        ii: usize,
        img: &Tensor3<f32>,
    ) -> (Tensor3<f32>, u64) {
        let mut chans = ChannelSet::new();
        let ins: Vec<_> = (0..in_ports).map(|_| chans.alloc(8)).collect();
        let outs: Vec<_> = (0..out_ports).map(|_| chans.alloc(8)).collect();
        let ops = OpLatency::f32_virtex7();
        let mut core = ConvCore::<f32>::new("conv", conv, ins.clone(), outs.clone(), ii, &ops);

        let geo = conv.geometry();
        let in_fm = geo.input.c;
        // per-port input streams
        let mut streams: Vec<Vec<f32>> = vec![Vec::new(); in_ports];
        for v in img.as_slice().chunks(in_fm) {
            for (f, &x) in v.iter().enumerate() {
                streams[f % in_ports].push(x);
            }
        }
        let mut cursors = vec![0usize; in_ports];
        let out_shape = conv.output_shape();
        let total_out = out_shape.len();
        let mut collected: Vec<f32> = Vec::with_capacity(total_out);
        let mut trace = Trace::disabled();
        let mut cycle = 0u64;
        let mut next_out_fm = 0usize;
        while collected.len() < total_out {
            // feed inputs
            for p in 0..in_ports {
                if cursors[p] < streams[p].len() && chans.can_push(ins[p]) {
                    let v = streams[p][cursors[p]];
                    chans.push(ins[p], v);
                    cursors[p] += 1;
                }
            }
            core.tick(cycle, &mut chans, &mut trace);
            // collect outputs in FM order (value k on port k % P)
            loop {
                let port = outs[next_out_fm % out_ports];
                if let Some(v) = chans.pop(port) {
                    collected.push(v);
                    next_out_fm = (next_out_fm + 1) % conv.out_maps();
                } else {
                    break;
                }
            }
            chans.commit_all();
            cycle += 1;
            assert!(cycle < 2_000_000, "core made no progress");
        }
        // reshape: outputs arrive window-major, FM-minor = stream order
        (Tensor3::from_vec(out_shape, collected), cycle)
    }

    fn random_conv(
        seed: u64,
        shape: Shape3,
        k: usize,
        khw: usize,
        stride: usize,
    ) -> (Conv2d, Tensor3<f32>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let geo = ConvGeometry::new(shape, khw, khw, stride, 0);
        let f = dfcnn_tensor::init::conv_filters(&mut rng, k, khw, khw, shape.c);
        let b = dfcnn_tensor::init::random_vector(&mut rng, k, -0.1, 0.1);
        let conv = Conv2d::new(geo, f, b, Activation::Tanh);
        let img = dfcnn_tensor::init::random_volume(&mut rng, shape, -1.0, 1.0);
        (conv, img)
    }

    #[test]
    fn single_port_core_matches_hw_kernel_exactly() {
        let (conv, img) = random_conv(1, Shape3::new(8, 8, 3), 4, 3, 1);
        let ii = dfcnn_hls::ii::pipeline_ii(3, 1, 4, 1);
        let (out, _) = run_core(&conv, 1, 1, ii, &img);
        let expect = conv_forward_hw(&conv, 1, &img);
        assert_eq!(out, expect, "cycle core must be bit-identical to kernel");
    }

    #[test]
    fn fully_parallel_core_matches() {
        let (conv, img) = random_conv(2, Shape3::new(6, 6, 2), 4, 3, 1);
        let ii = dfcnn_hls::ii::pipeline_ii(2, 2, 4, 4);
        assert_eq!(ii, 1);
        let (out, _) = run_core(&conv, 2, 4, ii, &img);
        assert_eq!(out, conv_forward_hw(&conv, 2, &img));
    }

    #[test]
    fn mixed_ports_match() {
        let (conv, img) = random_conv(3, Shape3::new(7, 7, 4), 6, 3, 1);
        let ii = dfcnn_hls::ii::pipeline_ii(4, 2, 6, 2);
        let (out, _) = run_core(&conv, 2, 2, ii, &img);
        assert_eq!(out, conv_forward_hw(&conv, 2, &img));
    }

    #[test]
    fn higher_ii_takes_proportionally_longer() {
        let (conv, img) = random_conv(4, Shape3::new(10, 10, 1), 4, 3, 1);
        let (_, fast) = run_core(&conv, 1, 4, 1, &img);
        let (_, slow) = run_core(&conv, 1, 1, 4, &img);
        // 64 windows: II=4 adds ~3*63 cycles over II=1
        assert!(
            slow > fast + 150,
            "II=4 run ({slow}) should be much slower than II=1 ({fast})"
        );
    }

    #[test]
    fn strided_core_matches() {
        let (conv, img) = random_conv(5, Shape3::new(8, 8, 2), 2, 2, 2);
        let ii = dfcnn_hls::ii::pipeline_ii(2, 1, 2, 1);
        let (out, _) = run_core(&conv, 1, 1, ii, &img);
        assert_eq!(out, conv_forward_hw(&conv, 1, &img));
    }

    #[test]
    fn identity_1x1_core_passes_values() {
        let geo = ConvGeometry::new(Shape3::new(3, 3, 1), 1, 1, 1, 0);
        let mut f = dfcnn_tensor::Tensor4::zeros(1, 1, 1, 1);
        f.set(0, 0, 0, 0, 1.0);
        let conv = Conv2d::new(geo, f, Tensor1::zeros(1), Activation::Identity);
        let img = Tensor3::from_fn(Shape3::new(3, 3, 1), |y, x, _| (y * 3 + x) as f32);
        let (out, _) = run_core(&conv, 1, 1, 1, &img);
        assert_eq!(out, img);
    }
}
