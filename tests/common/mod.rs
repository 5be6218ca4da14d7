//! Shared generators for whole-design randomised tests (used by
//! `random_designs.rs` and `engine_conformance.rs`), the engine-conformance
//! oracle, and the allocating whole-layer hardware-order oracles
//! `properties.rs` compares with the reference layers. This directory is
//! not itself compiled as a test crate.

#![allow(dead_code)]

use dfcnn::core::graph::{LayerPorts, PortConfig};
use dfcnn::core::kernel::{
    conv_forward_hw_into, fc_forward_hw_into, pool_forward_hw_into, ConvArena, FcArena, FcWeights,
    PackedFilters, PoolArena,
};
use dfcnn::nn::{Conv2d, Linear, Pool2d};
use dfcnn::prelude::*;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A random small-but-real topology: conv [pool] conv? flatten linear.
pub fn random_spec() -> impl Strategy<Value = NetworkSpec> {
    (
        6usize..11,          // input h = w
        1usize..4,           // input channels
        1usize..5,           // conv1 maps
        2usize..4,           // conv1 window
        proptest::bool::ANY, // pool present
        proptest::bool::ANY, // second conv present
        2usize..6,           // classes
        proptest::bool::ANY, // relu vs tanh
    )
        .prop_map(|(hw, c, k1, win1, with_pool, with_conv2, classes, relu)| {
            let act = if relu {
                Activation::Relu
            } else {
                Activation::Tanh
            };
            let mut layers = vec![LayerSpec::Conv {
                kh: win1,
                kw: win1,
                out_maps: k1,
                stride: 1,
                pad: 0,
                activation: act,
            }];
            let mut cur = hw - win1 + 1;
            if with_pool && cur >= 2 {
                layers.push(LayerSpec::Pool {
                    kh: 2,
                    kw: 2,
                    stride: 2,
                    kind: PoolKind::Max,
                });
                cur /= 2;
            }
            if with_conv2 && cur >= 2 {
                layers.push(LayerSpec::Conv {
                    kh: 2,
                    kw: 2,
                    out_maps: 2 * k1,
                    stride: 1,
                    pad: 0,
                    activation: act,
                });
            }
            layers.push(LayerSpec::Flatten);
            layers.push(LayerSpec::Linear {
                outputs: classes,
                activation: Activation::Identity,
            });
            layers.push(LayerSpec::LogSoftmax);
            NetworkSpec {
                name: "random".into(),
                input: Shape3::new(hw, hw, c),
                layers,
            }
        })
}

/// The canonical fork/join fixture: an 8×8×2 residual block
/// `conv → fork → { conv → scaleshift | identity } → add → flatten →
/// linear(4)`, all single-port, deterministic weights. The skip-path
/// FIFO is auto-sized by the builder unless `config.skip_fifo_cap`
/// clamps it (the seeded reconvergence fault).
pub fn residual_design(config: DesignConfig) -> NetworkDesign {
    use dfcnn::core::graph::GraphBuilder;
    use dfcnn::nn::layer::{Flatten, Layer};

    let input = Shape3::new(8, 8, 2);
    let geo = ConvGeometry::new(input, 3, 3, 1, 1); // shape-preserving
    let trunk_f = Tensor4::from_fn(2, 3, 3, 2, |k, y, x, c| {
        ((k + 2 * y + x + c) as f32) * 0.05 - 0.1
    });
    let trunk = dfcnn::nn::Conv2d::new(geo, trunk_f, Tensor1::zeros(2), Activation::Identity);
    let branch_f = Tensor4::from_fn(2, 3, 3, 2, |k, y, x, c| {
        ((3 * k + y + x + 2 * c) as f32) * 0.04 - 0.15
    });
    let branch = dfcnn::nn::Conv2d::new(geo, branch_f, Tensor1::zeros(2), Activation::Identity);
    let bn = dfcnn::nn::ScaleShift::new(input, vec![0.9, 1.2], vec![0.05, -0.1]);
    let fc_w = Tensor4::from_fn(4, 1, 1, 128, |j, _, _, i| {
        ((j * 31 + i) % 17) as f32 * 0.02 - 0.16
    });
    let fc = dfcnn::nn::Linear::new(fc_w, Tensor1::zeros(4), Activation::Identity);

    let (mut g, x) = GraphBuilder::new(input, config);
    let x = g.layer(x, Layer::Conv(trunk), LayerPorts::SINGLE).unwrap();
    let mut taps = g.fork(x, 2).unwrap();
    let skip = taps.pop().unwrap();
    let a = taps.pop().unwrap();
    let a = g.layer(a, Layer::Conv(branch), LayerPorts::SINGLE).unwrap();
    let a = g
        .layer(a, Layer::ScaleShift(bn), LayerPorts::SINGLE)
        .unwrap();
    let x = g.add(a, skip).unwrap();
    let x = g
        .layer(x, Layer::Flatten(Flatten::new(input)), LayerPorts::SINGLE)
        .unwrap();
    let x = g.layer(x, Layer::Linear(fc), LayerPorts::SINGLE).unwrap();
    g.finish(x).unwrap()
}

/// A random fork/join DAG: a trunk conv followed by a random sequence of
/// residual blocks — possibly nested (a fork inside a branch) and with
/// random ScaleShift / conv ops on either path — closed by flatten +
/// linear. Each block reconverges through either an eltwise-add or a
/// concat join (the concat doubles the FM count, and a 1×1 reducing conv
/// restores it). Every other op is shape-preserving (3×3 pad-1 convs),
/// so forks and joins always agree on geometry; the builder auto-sizes
/// every skip FIFO, so the result must be checker-clean and
/// deadlock-free.
pub fn random_dag_design(seed: u64, config: DesignConfig) -> NetworkDesign {
    use dfcnn::core::graph::{GraphBuilder, Tap};
    use dfcnn::nn::layer::{Flatten, Layer};
    use rand::Rng;

    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let hw = rng.gen_range(6usize..10);
    let c = rng.gen_range(1usize..4);
    let input = Shape3::new(hw, hw, c);

    fn rand_conv(rng: &mut ChaCha8Rng, shape: Shape3) -> Layer {
        use rand::Rng;
        let geo = ConvGeometry::new(shape, 3, 3, 1, 1); // shape-preserving
        let (a, b, d, e) = (
            rng.gen_range(1usize..5),
            rng.gen_range(1usize..5),
            rng.gen_range(1usize..5),
            rng.gen_range(1usize..7),
        );
        let f = Tensor4::from_fn(shape.c, 3, 3, shape.c, move |k, y, x, ch| {
            ((a * k + b * y + d * x + ch) % e.max(2)) as f32 * 0.07 - 0.1
        });
        let act = match rng.gen_range(0..3) {
            0 => Activation::Tanh,
            1 => Activation::Relu,
            _ => Activation::Identity,
        };
        Layer::Conv(dfcnn::nn::Conv2d::new(geo, f, Tensor1::zeros(shape.c), act))
    }

    fn rand_scaleshift(rng: &mut ChaCha8Rng, shape: Shape3) -> Layer {
        use rand::Rng;
        let scale: Vec<f32> = (0..shape.c).map(|_| rng.gen_range(0.5f32..1.5)).collect();
        let shift: Vec<f32> = (0..shape.c).map(|_| rng.gen_range(-0.3f32..0.3)).collect();
        Layer::ScaleShift(dfcnn::nn::ScaleShift::new(shape, scale, shift))
    }

    /// A 1×1 conv halving the FM count (used after a concat join widens
    /// the stream to `2·c`, restoring the DAG's shape invariant).
    fn rand_reduce_conv(rng: &mut ChaCha8Rng, shape: Shape3) -> Layer {
        use rand::Rng;
        let out_c = shape.c / 2;
        let geo = ConvGeometry::new(shape, 1, 1, 1, 0);
        let (a, b) = (rng.gen_range(1usize..5), rng.gen_range(2usize..7));
        let f = Tensor4::from_fn(out_c, 1, 1, shape.c, move |k, _, _, ch| {
            ((a * k + ch) % b) as f32 * 0.09 - 0.1
        });
        Layer::Conv(dfcnn::nn::Conv2d::new(
            geo,
            f,
            Tensor1::zeros(out_c),
            Activation::Identity,
        ))
    }

    /// One block: either a plain op, or fork → branch ops (recursing for
    /// nesting) + optional skip-path op → add.
    fn block(
        g: &mut GraphBuilder,
        tap: Tap,
        rng: &mut ChaCha8Rng,
        shape: Shape3,
        depth: usize,
    ) -> Tap {
        use rand::Rng;
        if depth == 0 || rng.gen_bool(0.4) {
            let layer = if rng.gen_bool(0.5) {
                rand_conv(rng, shape)
            } else {
                rand_scaleshift(rng, shape)
            };
            return g.layer(tap, layer, LayerPorts::SINGLE).unwrap();
        }
        let mut taps = g.fork(tap, 2).unwrap();
        let skip = taps.pop().unwrap();
        let mut a = taps.pop().unwrap();
        for _ in 0..rng.gen_range(1usize..3) {
            a = block(g, a, rng, shape, depth - 1);
        }
        // the skip path may itself carry an op — even a windowed one,
        // which makes *both* reconvergent paths hold tokens back
        let skip = match rng.gen_range(0..4) {
            0 => g
                .layer(skip, rand_scaleshift(rng, shape), LayerPorts::SINGLE)
                .unwrap(),
            1 => g
                .layer(skip, rand_conv(rng, shape), LayerPorts::SINGLE)
                .unwrap(),
            _ => skip,
        };
        if rng.gen_bool(0.33) {
            // concat join: the stream widens to 2c, and a 1×1 reducing
            // conv restores the block's shape invariant
            let wide = g.concat(a, skip).unwrap();
            let wide_shape = Shape3::new(shape.h, shape.w, 2 * shape.c);
            g.layer(wide, rand_reduce_conv(rng, wide_shape), LayerPorts::SINGLE)
                .unwrap()
        } else {
            g.add(a, skip).unwrap()
        }
    }

    let (mut g, mut tap) = GraphBuilder::new(input, config);
    tap = g
        .layer(tap, rand_conv(&mut rng, input), LayerPorts::SINGLE)
        .unwrap();
    // sequential skips: several blocks back to back
    for _ in 0..rng.gen_range(1usize..4) {
        tap = block(&mut g, tap, &mut rng, input, 2);
    }
    let classes = rng.gen_range(2usize..6);
    let fc_w = {
        let (a, b) = (rng.gen_range(1usize..29), rng.gen_range(1usize..13));
        Tensor4::from_fn(classes, 1, 1, input.len(), move |j, _, _, i| {
            ((a * j + b * i) % 23) as f32 * 0.015 - 0.12
        })
    };
    let fc = dfcnn::nn::Linear::new(fc_w, Tensor1::zeros(classes), Activation::Identity);
    tap = g
        .layer(tap, Layer::Flatten(Flatten::new(input)), LayerPorts::SINGLE)
        .unwrap();
    tap = g.layer(tap, Layer::Linear(fc), LayerPorts::SINGLE).unwrap();
    g.finish(tap).unwrap()
}

/// Pick a random valid port configuration for a built network: each conv
/// or pool layer gets random divisors of its FM counts; FC stays single.
pub fn random_ports(spec: &NetworkSpec, seed: u64) -> PortConfig {
    use rand::Rng;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let shapes = spec.shapes();
    let mut layers = Vec::new();
    for (i, l) in spec.layers.iter().enumerate() {
        let in_c = shapes[i].c;
        let out_c = shapes[i + 1].c;
        let pick = |n: usize, rng: &mut ChaCha8Rng| {
            let divs: Vec<usize> = (1..=n.min(6)).filter(|p| n.is_multiple_of(*p)).collect();
            divs[rng.gen_range(0..divs.len())]
        };
        match l {
            LayerSpec::Conv { .. } | LayerSpec::Pool { .. } => layers.push(LayerPorts {
                in_ports: pick(in_c, &mut rng),
                out_ports: pick(out_c, &mut rng),
            }),
            LayerSpec::Linear { .. } => layers.push(LayerPorts::SINGLE),
            _ => {}
        }
    }
    PortConfig { layers }
}

/// Run a batch under both the event-driven scheduler and the dense
/// reference sweep and assert they are indistinguishable: identical
/// `SimResult`s (completion cycles, bit-identical outputs, total cycles,
/// actor/FIFO statistics and stall-taxonomy counters) and identical traces
/// including the per-actor stall span tracks. Also checks
/// the flight recorder's internal invariants (per-actor accounting
/// identity, buffer and FIFO high-water marks within their bounds).
/// Returns the event-driven result.
///
/// # Panics
/// With a diagnostic naming the first differing field if the schedulers
/// disagree — the conformance contract of `Simulator::reference_mode`.
pub fn check_engine_conformance(
    design: &NetworkDesign,
    images: &[Tensor3<f32>],
) -> dfcnn::core::sim::SimResult {
    // the static verifier must prove the design structurally safe before
    // either scheduler runs a cycle — a conformant design is a checked
    // design. Numeric-range errors are tolerated: conformance certifies
    // engine *agreement*, which holds on saturating designs too (all
    // engines clamp identically into the container).
    let check = check_design(design);
    assert!(
        check.is_structurally_clean(),
        "design fails the static check:\n{}",
        check.render()
    );
    let (event, event_trace) = design.instantiate(images).with_trace().run();
    let (reference, reference_trace) = design
        .instantiate(images)
        .with_trace()
        .reference_mode()
        .run();
    assert_eq!(
        event.completions, reference.completions,
        "completion cycles diverge between schedulers"
    );
    assert_eq!(
        event.outputs, reference.outputs,
        "collected outputs diverge between schedulers"
    );
    assert_eq!(
        event.cycles, reference.cycles,
        "total cycle counts diverge between schedulers"
    );
    assert_eq!(
        event.actor_stats, reference.actor_stats,
        "actor statistics diverge between schedulers"
    );
    assert_eq!(
        event.fifo_stats, reference.fifo_stats,
        "FIFO statistics diverge between schedulers"
    );
    assert_eq!(
        event.stalls, reference.stalls,
        "stall taxonomy counters diverge between schedulers"
    );
    assert_eq!(
        event_trace.events(),
        reference_trace.events(),
        "trace events diverge between schedulers"
    );
    assert_eq!(
        event_trace.stall_tracks(),
        reference_trace.stall_tracks(),
        "stall span tracks diverge between schedulers"
    );
    // flight-recorder internal consistency: every cycle of every actor is
    // classified exactly once, and occupancy never exceeds its bound
    for s in &event.stalls {
        assert_eq!(
            s.total(),
            event.cycles,
            "stall accounting identity violated for {}",
            s.name
        );
    }
    for a in &event.actor_stats {
        if let Some((hwm, bound)) = a.buffer_hwm {
            assert!(
                hwm <= bound,
                "{}: line-buffer HWM {hwm} exceeds the full-buffering bound {bound}",
                a.name
            );
        }
    }
    for (i, f) in event.fifo_stats.iter().enumerate() {
        assert!(
            f.max_occupancy <= f.capacity,
            "fifo {i}: occupancy HWM {} exceeds capacity {}",
            f.max_occupancy,
            f.capacity
        );
    }
    event
}

/// One conv layer in hardware order and f32, through the engines'
/// allocation-free kernel with a fresh filter store and arena.
pub fn conv_forward_hw(conv: &Conv2d, in_ports: usize, input: &Tensor3<f32>) -> Tensor3<f32> {
    let mut out = Tensor3::zeros(conv.output_shape());
    let filters = PackedFilters::<f32>::new(conv.filters(), conv.bias());
    let mut arena = ConvArena::new(conv, &filters, in_ports);
    conv_forward_hw_into(conv, &filters, in_ports, input, &mut out, &mut arena);
    out
}

/// One pooling layer in hardware order and f32, with a fresh arena.
pub fn pool_forward_hw(pool: &Pool2d, input: &Tensor3<f32>) -> Tensor3<f32> {
    let mut out = Tensor3::zeros(pool.output_shape());
    let mut arena = PoolArena::<f32>::new(pool);
    pool_forward_hw_into(pool, input, &mut out, &mut arena);
    out
}

/// One FC layer in hardware order and f32 over `banks` interleaved
/// accumulators, with a fresh weight store and arena.
pub fn fc_forward_hw(linear: &Linear, banks: usize, input: &Tensor3<f32>) -> Tensor3<f32> {
    let mut out = Tensor3::zeros(Shape3::new(1, 1, linear.outputs()));
    let weights = FcWeights::<f32>::new(linear.weights(), linear.bias());
    let mut arena = FcArena::new(&weights, banks);
    fc_forward_hw_into(linear, &weights, input, &mut out, &mut arena);
    out
}
