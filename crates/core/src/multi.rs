//! Multi-FPGA pipeline partitioning — the paper's §VI future work:
//! "we will investigate scalability by implementing bigger networks on a
//! multi-FPGA system, with an automated DSE mechanism ... the layers can
//! be totally parallelized given that there are enough available
//! resources".
//!
//! The dataflow design makes this straightforward: the pipeline is a chain
//! of cores connected by AXI streams, and any inter-core edge can be cut
//! and carried over a board-to-board serial link (a VC707 exposes GTX
//! transceivers; an Aurora-style 8 B/66 B link sustains on the order of
//! 1 GB/s per lane). Cutting the chain costs (a) one extra board and (b) a
//! potential throughput cap at the boundary: the cut edge's per-image
//! traffic divided by the link beat rate becomes a new pipeline stage
//! interval.
//!
//! [`partition`] performs a contiguous first-fit split that respects
//! per-device resource capacity, then reports every device's binding
//! resource, every link's stage interval, and the whole system's
//! bottleneck — the same analysis [`crate::graph::NetworkDesign`] offers
//! for a single chip, lifted to the system level.

use crate::graph::NetworkDesign;
use crate::sim::{Actor, Next, Quiescence, SimResult};
use crate::stream::ChannelSet;
use crate::trace::{EventKind, Stall, Trace};
use dfcnn_fpga::device::Device;
use dfcnn_fpga::resources::{CostModel, Resources};
use serde::Serialize;

/// A board-to-board streaming link.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct LinkConfig {
    /// Sustained payload bandwidth in bytes per second.
    pub bandwidth_bytes_per_s: f64,
    /// Flight latency in core clock cycles (adds to image latency, not to
    /// the steady-state interval).
    pub latency_cycles: u64,
}

impl LinkConfig {
    /// An Aurora-style single-lane GTX link: ~10 Gb/s line rate, ~1 GB/s
    /// sustained payload, a few hundred cycles of flight latency.
    pub fn aurora_like() -> Self {
        LinkConfig {
            bandwidth_bytes_per_s: 1.0e9,
            latency_cycles: 200,
        }
    }

    /// 32-bit words deliverable per core clock cycle.
    pub fn words_per_cycle(&self, clock_hz: u64) -> f64 {
        self.bandwidth_bytes_per_s / clock_hz as f64 / 4.0
    }
}

/// One device's share of the pipeline.
#[derive(Clone, Debug, Serialize)]
pub struct DeviceSegment {
    /// Device index in the chain.
    pub device: usize,
    /// Names of the cores placed on this device, in pipeline order.
    pub cores: Vec<String>,
    /// Resources used (cores + per-board platform + DMA/link endpoints).
    pub resources: Resources,
    /// The slowest stage interval on this device (cycles/image).
    pub max_stage_interval: u64,
}

/// A complete multi-FPGA placement.
#[derive(Clone, Debug, Serialize)]
pub struct MultiFpgaPlan {
    /// Per-device segments, in pipeline order.
    pub segments: Vec<DeviceSegment>,
    /// Stage interval of each inter-device link (cycles/image).
    pub link_intervals: Vec<u64>,
    /// System bottleneck: stage (core or `link<i>`) and its interval.
    pub bottleneck: (String, u64),
    /// Sum of link flight latencies added to single-image latency.
    pub added_latency_cycles: u64,
}

impl MultiFpgaPlan {
    /// Number of devices used.
    pub fn device_count(&self) -> usize {
        self.segments.len()
    }

    /// Render a block-level placement report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, seg) in self.segments.iter().enumerate() {
            out.push_str(&format!(
                "device {}: [{}] DSP {} FF {} LUT {} BRAM18 {} (max stage {} cyc)\n",
                seg.device,
                seg.cores.join(", "),
                seg.resources.dsp,
                seg.resources.ff,
                seg.resources.lut,
                seg.resources.bram18,
                seg.max_stage_interval
            ));
            if i < self.link_intervals.len() {
                out.push_str(&format!(
                    "  --link--> ({} cyc/image)\n",
                    self.link_intervals[i]
                ));
            }
        }
        out.push_str(&format!(
            "system bottleneck: {} at {} cycles/image; +{} cycles link latency\n",
            self.bottleneck.0, self.bottleneck.1, self.added_latency_cycles
        ));
        out
    }
}

/// Partition a design's core chain across identical devices, first-fit.
///
/// The walk is over the core *list* in pipeline order, so a cut may land
/// inside a fork/join region: the boundary then severs both the branch
/// edge and the fork's skip edge, and the link stage is charged the sum
/// of every crossed edge's per-image traffic (the skip-edge traffic
/// model below).
///
/// # Errors
/// If any single core exceeds one bare device (platform + that core), no
/// contiguous partition exists at this datapath precision — the error
/// message names the core, so callers can fall back to a cheaper cost
/// model (fixed point) or a larger device.
pub fn partition(
    design: &NetworkDesign,
    cost: &CostModel,
    device: &Device,
    link: &LinkConfig,
) -> Result<MultiFpgaPlan, String> {
    let overhead = cost.platform_base() + cost.dma_engine();
    let intervals = design.estimate_stage_intervals();
    let cores = design.cores();
    assert_eq!(cores.len(), intervals.len());

    let mut segments: Vec<DeviceSegment> = Vec::new();
    let mut cur_cores: Vec<usize> = Vec::new();
    let mut cur_res = overhead;
    for (i, core) in cores.iter().enumerate() {
        let r = cost.core(&core.params);
        let solo = overhead + r;
        if !device.fits(&solo) {
            let (binding, frac) = device.binding_constraint(&solo);
            return Err(format!(
                "core {} alone exceeds {} ({} at {:.0}%); reduce precision or \
                 enlarge the device",
                core.name,
                device.name,
                binding,
                frac * 100.0
            ));
        }
        let candidate = cur_res + r;
        if !cur_cores.is_empty() && !device.fits(&candidate) {
            // close the current segment and start a new device
            segments.push(make_segment(
                segments.len(),
                &cur_cores,
                cur_res,
                cores,
                &intervals,
            ));
            cur_cores = Vec::new();
            cur_res = overhead;
        }
        cur_res += r;
        cur_cores.push(i);
    }
    if !cur_cores.is_empty() {
        segments.push(make_segment(
            segments.len(),
            &cur_cores,
            cur_res,
            cores,
            &intervals,
        ));
    }

    // link stage intervals at each device boundary: the traffic is the
    // sum over every edge crossing the cut — for a linear chain that is
    // exactly the first downstream core's input volume, for a fork/join
    // design a skip edge spanning the cut adds its share too (and an
    // edge spanning several cuts is paid at each link it crosses)
    let words_per_cycle = link.words_per_cycle(design.config().clock_hz);
    let mut link_intervals = Vec::new();
    let mut boundary_core = 0usize;
    for seg in segments.iter().take(segments.len().saturating_sub(1)) {
        use crate::graph::NodeRef;
        boundary_core += seg.cores.len();
        let traffic: u64 = design
            .edges()
            .iter()
            .filter(|e| {
                matches!(e.from, NodeRef::Core(i) if i < boundary_core)
                    && matches!(e.to, NodeRef::Core(j) if j >= boundary_core)
            })
            .map(|e| e.values_per_image)
            .sum();
        link_intervals.push((traffic as f64 / words_per_cycle).ceil() as u64);
    }

    // system bottleneck across the source, every core stage, and the links
    let mut bottleneck = ("dma-source".to_string(), {
        let input_len = design.network().input_shape().len() as u64;
        (input_len as f64 / design.config().dma.beats_per_cycle()).ceil() as u64
    });
    for (name, cyc) in &intervals {
        if *cyc > bottleneck.1 {
            bottleneck = (name.clone(), *cyc);
        }
    }
    for (i, &li) in link_intervals.iter().enumerate() {
        if li > bottleneck.1 {
            bottleneck = (format!("link{i}"), li);
        }
    }

    Ok(MultiFpgaPlan {
        added_latency_cycles: link.latency_cycles * link_intervals.len() as u64,
        segments,
        link_intervals,
        bottleneck,
    })
}

/// A cycle-level model of one board-to-board serial link: rate-limited to
/// the link's payload bandwidth (shared across all lanes of the boundary)
/// with a fixed flight latency, preserving per-lane ordering.
pub struct LinkActor {
    name: String,
    in_chs: Vec<crate::stream::ChannelId>,
    out_chs: Vec<crate::stream::ChannelId>,
    words_per_cycle: f64,
    latency: u64,
    credit: f64,
    in_flight: std::collections::VecDeque<(u64, usize, f32)>,
    rr: usize,
    moved: u64,
    /// Per-lane "already served this cycle" flags, reused every tick.
    lane_used: Vec<bool>,
}

impl LinkActor {
    /// Build a link across `in_chs.len()` lanes.
    pub fn new(
        name: impl Into<String>,
        in_chs: Vec<crate::stream::ChannelId>,
        out_chs: Vec<crate::stream::ChannelId>,
        words_per_cycle: f64,
        latency: u64,
    ) -> Self {
        assert_eq!(in_chs.len(), out_chs.len(), "link lanes must match");
        assert!(words_per_cycle > 0.0, "link needs bandwidth");
        LinkActor {
            lane_used: vec![false; in_chs.len()],
            name: name.into(),
            in_chs,
            out_chs,
            words_per_cycle,
            latency,
            credit: 0.0,
            in_flight: std::collections::VecDeque::new(),
            rr: 0,
            moved: 0,
        }
    }

    /// What blocks the link: it has no wiring, so it ticks every cycle;
    /// the stall class names a jammed landing lane, else words in flight
    /// or accepted under credit, else a dry upstream.
    fn next(&self, chans: &ChannelSet) -> Next {
        let stall = match self.in_flight.front() {
            Some(&(_, lane, _)) if !chans.can_push(self.out_chs[lane]) => {
                Stall::Backpressured(lane)
            }
            Some(_) => Stall::Computing, // words in flight
            // accepting under credit
            None if self.in_chs.iter().any(|&ch| chans.peek(ch).is_some()) => Stall::Computing,
            None => Stall::Starved(0), // wire empty, upstream dry
        };
        let wait = Quiescence::Active;
        Next { wait, stall }
    }
}

impl Actor for LinkActor {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, cycle: u64, chans: &mut ChannelSet, trace: &mut Trace) -> Next {
        // deliver landed words, one per lane per cycle
        self.lane_used.fill(false);
        let mut i = 0;
        while i < self.in_flight.len() {
            let (ready, lane, v) = self.in_flight[i];
            if ready <= cycle && !self.lane_used[lane] && chans.can_push(self.out_chs[lane]) {
                chans.push(self.out_chs[lane], v);
                self.lane_used[lane] = true;
                self.in_flight.remove(i);
                trace.record(cycle, &self.name, EventKind::Emit);
            } else {
                // per-lane order: once a lane's head is blocked, later
                // words of the same lane must wait too
                i += 1;
            }
        }
        // accept new words under the bandwidth budget, round-robin lanes.
        // The wire holds at most latency x bandwidth words (plus one per
        // lane of landing skid); beyond that the link exerts backpressure
        // like any other stage.
        let wire_capacity =
            (self.latency as f64 * self.words_per_cycle).ceil() as usize + self.in_chs.len();
        self.credit = self.credit.min(1.0) + self.words_per_cycle;
        let lanes = self.in_chs.len();
        self.lane_used.fill(false);
        while self.credit >= 1.0 && self.in_flight.len() < wire_capacity {
            let mut sent = false;
            for k in 0..lanes {
                let lane = (self.rr + k) % lanes;
                if !self.lane_used[lane] {
                    if let Some(v) = chans.peek(self.in_chs[lane]) {
                        chans.pop(self.in_chs[lane]);
                        self.in_flight.push_back((cycle + self.latency, lane, v));
                        self.credit -= 1.0;
                        self.moved += 1;
                        self.lane_used[lane] = true;
                        self.rr = (lane + 1) % lanes;
                        sent = true;
                        break;
                    }
                }
            }
            if !sent {
                break;
            }
        }
        self.next(chans)
    }

    fn busy(&self) -> bool {
        !self.in_flight.is_empty()
    }

    fn initiations(&self) -> u64 {
        self.moved
    }
}

/// Simulate a partitioned chain end to end: every device-boundary edge is
/// carried by a [`LinkActor`] with the given link's timing. Returns the
/// same measurement a single-chip [`NetworkDesign::instantiate`] run would.
pub fn simulate_chain(
    design: &NetworkDesign,
    plan: &MultiFpgaPlan,
    link: &LinkConfig,
    images: &[dfcnn_tensor::Tensor3<f32>],
) -> (SimResult, Trace) {
    let wpc = link.words_per_cycle(design.config().clock_hz);
    let mut boundaries = Vec::new();
    let mut after = 0usize;
    for seg in plan
        .segments
        .iter()
        .take(plan.segments.len().saturating_sub(1))
    {
        after += seg.cores.len();
        boundaries.push((after - 1, (wpc, link.latency_cycles)));
    }
    design.instantiate_with_links(images, &boundaries).run()
}

fn make_segment(
    device: usize,
    core_idxs: &[usize],
    resources: Resources,
    cores: &[crate::graph::CoreInfo],
    intervals: &[(String, u64)],
) -> DeviceSegment {
    DeviceSegment {
        device,
        cores: core_idxs.iter().map(|&i| cores[i].name.clone()).collect(),
        resources,
        max_stage_interval: core_idxs.iter().map(|&i| intervals[i].1).max().unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{DesignConfig, PortConfig};
    use dfcnn_nn::topology::NetworkSpec;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn design_for(spec: NetworkSpec) -> NetworkDesign {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let net = spec.build(&mut rng);
        let ports = PortConfig::single_port(spec.paper_depth());
        NetworkDesign::new(&net, ports, DesignConfig::default()).unwrap()
    }

    #[test]
    fn tc2_fits_one_device() {
        let d = design_for(NetworkSpec::test_case_2());
        let plan = partition(
            &d,
            &CostModel::default(),
            &Device::xc7vx485t(),
            &LinkConfig::aurora_like(),
        )
        .unwrap();
        assert_eq!(plan.device_count(), 1);
        assert!(plan.link_intervals.is_empty());
        assert_eq!(plan.added_latency_cycles, 0);
    }

    #[test]
    fn alexnet_tiny_needs_multiple_devices() {
        let d = design_for(NetworkSpec::alexnet_tiny());
        let plan = partition(
            &d,
            &CostModel::default(),
            &Device::xc7vx485t(),
            &LinkConfig::aurora_like(),
        )
        .unwrap();
        assert!(
            plan.device_count() >= 2,
            "alexnet-tiny should not fit one chip: {plan:?}"
        );
        assert_eq!(plan.link_intervals.len(), plan.device_count() - 1);
        // every device must individually fit
        let dev = Device::xc7vx485t();
        for seg in &plan.segments {
            assert!(dev.fits(&seg.resources), "device {} overflows", seg.device);
        }
        // pipeline order preserved: conv1 on device 0
        assert_eq!(plan.segments[0].cores[0], "conv1");
    }

    #[test]
    fn vgg_tiny_infeasible_in_f32_feasible_in_fixed_point() {
        let d = design_for(NetworkSpec::vgg_tiny());
        let dev = Device::xc7vx485t();
        let link = LinkConfig::aurora_like();
        let err = partition(&d, &CostModel::default(), &dev, &link).unwrap_err();
        assert!(err.contains("alone exceeds"), "{err}");
        // the §IV-B fixed-point datapath brings it back
        let plan = partition(&d, &CostModel::fixed_point(), &dev, &link).unwrap();
        assert!(plan.device_count() >= 1);
        for seg in &plan.segments {
            assert!(dev.fits(&seg.resources));
        }
    }

    #[test]
    fn slow_link_becomes_the_bottleneck() {
        let d = design_for(NetworkSpec::alexnet_tiny());
        let slow = LinkConfig {
            bandwidth_bytes_per_s: 10e6, // 10 MB/s: pathological
            latency_cycles: 200,
        };
        let plan = partition(&d, &CostModel::default(), &Device::xc7vx485t(), &slow).unwrap();
        assert!(
            plan.bottleneck.0.starts_with("link"),
            "bottleneck should be a link: {:?}",
            plan.bottleneck
        );
        // and the fast link is not the bottleneck
        let fast = partition(
            &d,
            &CostModel::default(),
            &Device::xc7vx485t(),
            &LinkConfig::aurora_like(),
        )
        .unwrap();
        assert!(!fast.bottleneck.0.starts_with("link"));
        assert!(fast.bottleneck.1 < plan.bottleneck.1);
    }

    #[test]
    fn cut_through_a_fork_charges_both_crossed_edges() {
        use crate::graph::DesignConfig;
        let d = crate::graph::fixtures::residual_graph(DesignConfig::default());
        let cost = CostModel::default();
        let overhead = cost.platform_base() + cost.dma_engine();
        let rs: Vec<Resources> = d.cores().iter().map(|c| cost.core(&c.params)).collect();
        assert_eq!(rs.len(), 6); // conv1, fork1, conv2, scaleshift1, add4, fc
                                 // capacity exactly fits {conv1, fork1, conv2}: first-fit must cut
                                 // between conv2 and scaleshift1, *inside* the fork/join region
                                 // (other dims widened so the tail segment also fits one device)
        let seg1 = overhead + rs[0] + rs[1] + rs[2];
        let seg2 = overhead + rs[3] + rs[4] + rs[5];
        let device = Device {
            name: "crafted".into(),
            capacity: Resources {
                lut: seg1.lut,
                ff: seg1.ff.max(seg2.ff),
                bram18: seg1.bram18.max(seg2.bram18),
                dsp: seg1.dsp.max(seg2.dsp),
            },
            clock_hz: 100_000_000,
        };
        let link = LinkConfig::aurora_like();
        let plan = partition(&d, &cost, &device, &link).unwrap();
        assert_eq!(plan.device_count(), 2, "{}", plan.render());
        assert_eq!(
            plan.segments[0].cores,
            vec!["conv1", "fork1", "conv2"],
            "{}",
            plan.render()
        );
        // the cut severs two edges: conv2→scaleshift1 (the branch under
        // transform, 8*8*2 = 128 values) and fork1→add4 (the identity
        // skip, another 128) — the link is charged their sum
        let wpc = link.words_per_cycle(d.config().clock_hz);
        assert_eq!(plan.link_intervals[0], (256.0 / wpc).ceil() as u64);
        // a naive chain model would have charged half of that
        assert!(plan.link_intervals[0] > (128.0 / wpc).ceil() as u64);
    }

    #[test]
    fn simulated_chain_matches_single_chip_functionally() {
        // alexnet is huge to simulate; use TC2 with an artificial 2-way cut
        let d = design_for(NetworkSpec::test_case_2());
        let plan = MultiFpgaPlan {
            segments: vec![
                DeviceSegment {
                    device: 0,
                    cores: d.cores()[..3].iter().map(|c| c.name.clone()).collect(),
                    resources: Resources::zero(),
                    max_stage_interval: 0,
                },
                DeviceSegment {
                    device: 1,
                    cores: d.cores()[3..].iter().map(|c| c.name.clone()).collect(),
                    resources: Resources::zero(),
                    max_stage_interval: 0,
                },
            ],
            link_intervals: vec![0],
            bottleneck: ("conv1".into(), 9408),
            added_latency_cycles: 200,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let img = dfcnn_tensor::init::random_volume(&mut rng, d.network().input_shape(), 0.0, 1.0);
        let images = vec![img.clone(), img.clone()];
        let (chained, _) = simulate_chain(&d, &plan, &LinkConfig::aurora_like(), &images);
        let (single, _) = d.instantiate(&images).run();
        // same values, different timing
        assert_eq!(chained.outputs, single.outputs);
        assert!(chained.cycles >= single.cycles, "the link cannot be free");
        // a fast link adds only latency, not interval: steady gap unchanged
        let mc = chained.measurement(d.config().clock_hz);
        let ms = single.measurement(d.config().clock_hz);
        let (gc, gs) = (mc.steady_interval_cycles(), ms.steady_interval_cycles());
        let rel = (gc as f64 - gs as f64).abs() / gs as f64;
        assert!(rel < 0.05, "chained {gc} vs single {gs}");
    }

    #[test]
    fn slow_simulated_link_throttles_the_pipeline() {
        let d = design_for(NetworkSpec::test_case_1());
        let plan_cut_after = 1usize; // after pool1
        let slow = LinkConfig {
            bandwidth_bytes_per_s: 40e6, // 0.1 words/cycle
            latency_cycles: 50,
        };
        let wpc = slow.words_per_cycle(d.config().clock_hz);
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let img = dfcnn_tensor::init::random_volume(&mut rng, d.network().input_shape(), 0.0, 1.0);
        let images: Vec<_> = (0..6).map(|_| img.clone()).collect();
        let (res, _) = d
            .instantiate_with_links(&images, &[(plan_cut_after, (wpc, slow.latency_cycles))])
            .run();
        let (base, _) = d.instantiate(&images).run();
        assert_eq!(
            res.outputs, base.outputs,
            "values must survive the slow link"
        );
        // boundary traffic: pool1 out = 6x6x6 = 216 values/image at 0.1/cyc
        // = 2160 cycles/image >> the 864-cycle single-chip interval
        let m = res.measurement(d.config().clock_hz);
        assert!(
            m.steady_interval_cycles() > 1_800,
            "link must throttle: {} cycles",
            m.steady_interval_cycles()
        );
    }

    #[test]
    fn render_mentions_every_device() {
        let d = design_for(NetworkSpec::alexnet_tiny());
        let plan = partition(
            &d,
            &CostModel::default(),
            &Device::xc7vx485t(),
            &LinkConfig::aurora_like(),
        )
        .unwrap();
        let r = plan.render();
        for seg in &plan.segments {
            assert!(r.contains(&format!("device {}:", seg.device)));
        }
        assert!(r.contains("system bottleneck"));
    }
}
