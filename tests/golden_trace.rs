//! Golden-file test for the trace CSV dump: the rendered CSV of a small
//! fixed design must stay byte-identical across runs, schedulers and code
//! changes. The trace is the repo's waveform substitute — downstream
//! plotting (`pipeline_trace`) and any diffing workflow rely on the dump
//! being stable, so an unintentional change to event ordering, cycle
//! numbering or formatting shows up here as a one-line diff.
//!
//! A second golden pins *output values*, fixed point and f32: the FNV-1a
//! digest of the raw `f32` output bits of seeded batches through the host
//! engine and the event simulator. The CSV goldens record only event
//! timing and every engine shares `kernel.rs`, so a bit change inside a
//! shared kernel — a reordered f32 sum, a different fixed-point rounding —
//! would pass engine conformance; it cannot pass this file.
//!
//! A third golden, `sim_fingerprints.txt`, pins the simulator across
//! commits over a whole fixture corpus: per design and scheduler, digests
//! of the cycles and completions, output bits, per-actor initiations and
//! stall counters, FIFO and line-buffer high-water marks and the trace
//! CSV, plus the host engine's output bits. A change that moves one stall
//! by a cycle, or moves both schedulers alike, fails here.
//!
//! To regenerate after an *intentional* format change:
//!
//! ```text
//! cargo test --test golden_trace -- --ignored bless_golden_trace
//! ```

mod common;

use common::residual_design;
use dfcnn::core::graph::{DesignConfig, NetworkDesign, PortConfig};
use dfcnn::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/small_design_trace.csv"
);

const RESIDUAL_GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/residual_trace.csv"
);

const RESNET8_GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/resnet8_trace.csv"
);

const INCEPTION_GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/inception_trace.csv"
);

const ADAPTER_GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/adapter_trace.csv"
);

const OUTPUT_DIGEST_GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/output_digests.txt"
);

const SIM_FINGERPRINT_GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/sim_fingerprints.txt"
);

/// The fixed fixture: a minimal conv → flatten → linear network, one
/// deterministic image, single-port everywhere.
fn fixture() -> (NetworkDesign, Vec<Tensor3<f32>>) {
    let spec = NetworkSpec {
        name: "golden-small".into(),
        input: Shape3::new(6, 6, 1),
        layers: vec![
            LayerSpec::Conv {
                kh: 3,
                kw: 3,
                out_maps: 2,
                stride: 1,
                pad: 0,
                activation: Activation::Tanh,
            },
            LayerSpec::Flatten,
            LayerSpec::Linear {
                outputs: 3,
                activation: Activation::Identity,
            },
            LayerSpec::LogSoftmax,
        ],
    };
    let mut rng = ChaCha8Rng::seed_from_u64(77);
    let network = spec.build(&mut rng);
    let design = NetworkDesign::new(
        &network,
        PortConfig::single_port(spec.paper_depth()),
        DesignConfig::default(),
    )
    .unwrap();
    let image = dfcnn::tensor::init::random_volume(&mut rng, spec.input, 0.0, 1.0);
    (design, vec![image])
}

fn rendered_csv() -> String {
    let (design, images) = fixture();
    let (_, trace) = design.instantiate(&images).with_trace().run();
    trace.to_csv()
}

#[test]
fn trace_csv_matches_golden_file() {
    let csv = rendered_csv();
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing — run the ignored bless_golden_trace test");
    assert!(
        csv == golden,
        "trace CSV diverged from {GOLDEN_PATH}\n\
         first differing line: {:?}\n\
         re-bless only if the format change is intentional",
        csv.lines()
            .zip(golden.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map(|(i, (a, b))| format!("line {}: got {a:?}, want {b:?}", i + 1))
            .unwrap_or_else(|| "line count differs".into())
    );
}

/// Attaching the live-telemetry plane (cells + a periodic sampler) must
/// not perturb the recorded trace by a single byte: the golden CSV is the
/// proof that observation is free at the event level.
#[test]
fn trace_csv_is_byte_stable_with_telemetry_attached() {
    use dfcnn::core::observe::live::Sampler;
    use std::cell::RefCell;
    use std::rc::Rc;
    let (design, images) = fixture();
    let sim = design.instantiate(&images).with_trace();
    let live = sim.live_metrics();
    let sampler = Rc::new(RefCell::new(Sampler::new(live.clone())));
    let (_, trace) = sim.with_sampler(sampler, 32).run();
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing — run the ignored bless_golden_trace test");
    assert!(
        trace.to_csv() == golden,
        "telemetry-on trace CSV diverged from the golden file"
    );
}

/// Both schedulers must render the same bytes (a corollary of engine
/// conformance, pinned here at the CSV level where consumers sit).
#[test]
fn trace_csv_identical_across_schedulers() {
    let (design, images) = fixture();
    let (_, reference) = design
        .instantiate(&images)
        .with_trace()
        .reference_mode()
        .run();
    assert_eq!(rendered_csv(), reference.to_csv());
}

/// The fork/join fixture: the canonical residual block with one
/// deterministic image — pins the trace format through the tee and
/// eltwise-add actors.
fn residual_fixture() -> (NetworkDesign, Vec<Tensor3<f32>>) {
    let design = residual_design(DesignConfig::default());
    let mut rng = ChaCha8Rng::seed_from_u64(78);
    let image =
        dfcnn::tensor::init::random_volume(&mut rng, design.network().input_shape(), 0.0, 1.0);
    (design, vec![image])
}

fn residual_rendered_csv() -> String {
    let (design, images) = residual_fixture();
    let (_, trace) = design.instantiate(&images).with_trace().run();
    trace.to_csv()
}

#[test]
fn residual_trace_csv_matches_golden_file() {
    let csv = residual_rendered_csv();
    let golden = std::fs::read_to_string(RESIDUAL_GOLDEN_PATH)
        .expect("golden file missing — run the ignored bless_residual_golden_trace test");
    assert!(
        csv == golden,
        "residual trace CSV diverged from {RESIDUAL_GOLDEN_PATH}\n\
         first differing line: {:?}\n\
         re-bless only if the format change is intentional",
        csv.lines()
            .zip(golden.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map(|(i, (a, b))| format!("line {}: got {a:?}, want {b:?}", i + 1))
            .unwrap_or_else(|| "line count differs".into())
    );
}

/// Scheduler independence holds through the fork/join too.
#[test]
fn residual_trace_csv_identical_across_schedulers() {
    let (design, images) = residual_fixture();
    let (_, reference) = design
        .instantiate(&images)
        .with_trace()
        .reference_mode()
        .run();
    assert_eq!(residual_rendered_csv(), reference.to_csv());
}

/// The Perfetto/Chrome export must render the fork/join actors: the tee
/// and the eltwise-add appear as named tracks alongside the convs, so a
/// residual pipeline is inspectable in the trace viewer.
#[test]
fn residual_chrome_export_names_fork_and_join_actors() {
    let (design, images) = residual_fixture();
    let (_, trace) = design.instantiate(&images).with_trace().run();
    let json = trace.to_chrome_json(design.config().clock_hz);
    for actor in ["fork1", "add4", "scaleshift1", "conv1", "conv2"] {
        assert!(
            json.contains(&format!("\"{actor}\"")),
            "chrome export must name actor {actor}"
        );
    }
}

/// The graph-native ResNet-8 fixture: the parametric preset at miniature
/// scale (8×8×3 input, widths 2/4/4, four classes) so the golden CSV
/// stays reviewable, one deterministic image — pins the trace format
/// through a *spec-lowered* fork/join pipeline (three forks, three adds,
/// two 1×1 skip projections).
fn resnet8_fixture() -> (NetworkDesign, Vec<Tensor3<f32>>) {
    use dfcnn::core::graph::build_graph_design;
    use dfcnn::nn::topology::GraphSpec;
    let spec = GraphSpec::resnet8(Shape3::new(8, 8, 3), [2, 4, 4], 4);
    let mut rng = ChaCha8Rng::seed_from_u64(79);
    let layers = spec.build_layers(&mut rng);
    let ports = PortConfig::single_port(spec.paper_depth());
    let design = build_graph_design(&spec, &layers, &ports, DesignConfig::default()).unwrap();
    let image = dfcnn::tensor::init::random_volume(&mut rng, spec.input, 0.0, 1.0);
    (design, vec![image])
}

fn resnet8_rendered_csv() -> String {
    let (design, images) = resnet8_fixture();
    let (_, trace) = design.instantiate(&images).with_trace().run();
    trace.to_csv()
}

#[test]
fn resnet8_trace_csv_matches_golden_file() {
    let csv = resnet8_rendered_csv();
    let golden = std::fs::read_to_string(RESNET8_GOLDEN_PATH)
        .expect("golden file missing — run the ignored bless_golden_trace test");
    assert!(
        csv == golden,
        "resnet8 trace CSV diverged from {RESNET8_GOLDEN_PATH}\n\
         first differing line: {:?}\n\
         re-bless only if the format change is intentional",
        csv.lines()
            .zip(golden.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map(|(i, (a, b))| format!("line {}: got {a:?}, want {b:?}", i + 1))
            .unwrap_or_else(|| "line count differs".into())
    );
}

/// The ResNet-8 Perfetto/Chrome export names every join actor: all three
/// residual adds and the forks feeding them are inspectable tracks.
#[test]
fn resnet8_chrome_export_names_join_actors() {
    let (design, images) = resnet8_fixture();
    let (_, trace) = design.instantiate(&images).with_trace().run();
    let json = trace.to_chrome_json(design.config().clock_hz);
    let forks = design
        .cores()
        .iter()
        .filter(|c| c.name.starts_with("fork"))
        .count();
    let adds = design
        .cores()
        .iter()
        .filter(|c| c.name.starts_with("add"))
        .count();
    assert_eq!((forks, adds), (3, 3));
    for core in design.cores() {
        if core.name.starts_with("fork") || core.name.starts_with("add") {
            assert!(
                json.contains(&format!("\"{}\"", core.name)),
                "chrome export must name actor {}",
                core.name
            );
        }
    }
}

/// The Inception-cell preset on an `input`-shaped image: one deterministic
/// image through the stem conv, the four-branch fork, the pairwise-folded
/// concat joins, the pool and the FC.
fn inception_fixture(input: Shape3) -> (NetworkDesign, Vec<Tensor3<f32>>) {
    use dfcnn::core::graph::build_graph_design;
    use dfcnn::nn::topology::GraphSpec;
    let spec = GraphSpec {
        input,
        ..GraphSpec::inception_cell()
    };
    let mut rng = ChaCha8Rng::seed_from_u64(80);
    let layers = spec.build_layers(&mut rng);
    let ports = PortConfig::single_port(spec.paper_depth());
    let design = build_graph_design(&spec, &layers, &ports, DesignConfig::default()).unwrap();
    let image = dfcnn::tensor::init::random_volume(&mut rng, spec.input, 0.0, 1.0);
    (design, vec![image])
}

/// The golden Inception trace runs the cell on a 4×4×3 image (the preset's
/// is 8×8×3) so the CSV stays reviewable; it pins the trace format through
/// the concat actors.
fn inception_rendered_csv() -> String {
    let (design, images) = inception_fixture(Shape3::new(4, 4, 3));
    let (_, trace) = design.instantiate(&images).with_trace().run();
    trace.to_csv()
}

#[test]
fn inception_trace_csv_matches_golden_file() {
    assert_matches_golden(&inception_rendered_csv(), INCEPTION_GOLDEN_PATH);
}

/// The Inception-cell Perfetto/Chrome export names the concat actors: the
/// pairwise-folded concat joins appear as tracks next to the branch convs.
#[test]
fn inception_chrome_export_names_concat_actors() {
    let (design, images) = inception_fixture(Shape3::new(8, 8, 3));
    let (_, trace) = design.instantiate(&images).with_trace().run();
    let json = trace.to_chrome_json(design.config().clock_hz);
    let concats: Vec<&str> = design
        .cores()
        .iter()
        .filter(|c| c.name.starts_with("concat"))
        .map(|c| c.name.as_str())
        .collect();
    assert_eq!(concats.len(), 3, "pairwise fold of the 4-way concat");
    for name in concats {
        assert!(
            json.contains(&format!("\"{name}\"")),
            "chrome export must name actor {name}"
        );
    }
}

/// The port-mismatch fixture: a conv emitting on one port feeds a pool
/// reading two (the builder inserts a demux), the pool's two output ports
/// feed the single-port FC (a widen), and the FC feeds the on-fabric
/// log-softmax core. One deterministic image — pins the trace format
/// through both adapter directions and the normalisation core.
fn adapter_fixture() -> (NetworkDesign, Vec<Tensor3<f32>>) {
    use dfcnn::core::graph::LayerPorts;
    let spec = NetworkSpec {
        name: "golden-adapters".into(),
        input: Shape3::new(6, 6, 1),
        layers: vec![
            LayerSpec::Conv {
                kh: 3,
                kw: 3,
                out_maps: 2,
                stride: 1,
                pad: 0,
                activation: Activation::Tanh,
            },
            LayerSpec::Pool {
                kh: 2,
                kw: 2,
                stride: 2,
                kind: PoolKind::Max,
            },
            LayerSpec::Flatten,
            LayerSpec::Linear {
                outputs: 3,
                activation: Activation::Identity,
            },
            LayerSpec::LogSoftmax,
        ],
    };
    let mut rng = ChaCha8Rng::seed_from_u64(81);
    let network = spec.build(&mut rng);
    let two = LayerPorts {
        in_ports: 2,
        out_ports: 2,
    };
    let ports = PortConfig {
        layers: vec![LayerPorts::SINGLE, two, LayerPorts::SINGLE],
    };
    let config = DesignConfig {
        fabric_normalization: true,
        ..DesignConfig::default()
    };
    let design = NetworkDesign::new(&network, ports, config).unwrap();
    let image = dfcnn::tensor::init::random_volume(&mut rng, spec.input, 0.0, 1.0);
    (design, vec![image])
}

fn adapter_rendered_csv() -> String {
    let (design, images) = adapter_fixture();
    let (_, trace) = design.instantiate(&images).with_trace().run();
    trace.to_csv()
}

#[test]
fn adapter_trace_csv_matches_golden_file() {
    let (design, _) = adapter_fixture();
    let names: Vec<&str> = design.cores().iter().map(|c| c.name.as_str()).collect();
    for prefix in ["demux", "widen", "logsoftmax"] {
        assert!(
            names.iter().any(|n| n.starts_with(prefix)),
            "fixture must contain a {prefix} core, has {names:?}"
        );
    }
    assert_matches_golden(&adapter_rendered_csv(), ADAPTER_GOLDEN_PATH);
}

/// Compare a rendered trace CSV with its golden file, naming the first
/// differing line.
fn assert_matches_golden(csv: &str, path: &str) {
    let golden = std::fs::read_to_string(path)
        .expect("golden file missing — run the ignored bless_golden_trace test");
    assert!(
        csv == golden,
        "rendering diverged from {path}\n\
         first differing line: {:?}\n\
         re-bless only if the format change is intentional",
        csv.lines()
            .zip(golden.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map(|(i, (a, b))| format!("line {}: got {a:?}, want {b:?}", i + 1))
            .unwrap_or_else(|| "line count differs".into())
    );
}

/// A 64-bit FNV-1a hash, fed little-endian bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f32s(&mut self, vs: &[f32]) {
        for v in vs {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }
}

/// FNV-1a over the little-endian bytes of every output value's `f32` bits.
fn output_digest<'a>(outputs: impl IntoIterator<Item = &'a [f32]>) -> u64 {
    let mut h = Fnv::new();
    for o in outputs {
        h.f32s(o);
    }
    h.0
}

/// A paper test case in `numeric`, with 8 seeded images.
fn paper_test_case(tc: u8, numeric: NumericSpec) -> (NetworkDesign, Vec<Tensor3<f32>>) {
    let ports = match tc {
        1 => PortConfig::paper_test_case_1(),
        _ => PortConfig::paper_test_case_2(),
    };
    let config = DesignConfig {
        numeric,
        ..DesignConfig::default()
    };
    paper_test_case_with(tc, ports, config)
}

/// A paper test case under `ports` and `config`, with 8 seeded images.
fn paper_test_case_with(
    tc: u8,
    ports: PortConfig,
    config: DesignConfig,
) -> (NetworkDesign, Vec<Tensor3<f32>>) {
    let mut rng = ChaCha8Rng::seed_from_u64(90 + u64::from(tc));
    let spec = match tc {
        1 => NetworkSpec::test_case_1(),
        _ => NetworkSpec::test_case_2(),
    };
    let net = spec.build(&mut rng);
    let design = NetworkDesign::new(&net, ports, config).unwrap();
    let images: Vec<Tensor3<f32>> = match tc {
        1 => SyntheticUsps::new(95).generate(8),
        _ => SyntheticCifar::new(96).generate(8),
    }
    .into_iter()
    .map(|(x, _)| x)
    .collect();
    (design, images)
}

/// The CIFAR ResNet-8 preset in f32, with 8 seeded images.
fn resnet8_f32() -> (NetworkDesign, Vec<Tensor3<f32>>) {
    use dfcnn::core::graph::build_graph_design;
    use dfcnn::nn::topology::GraphSpec;
    let spec = GraphSpec::resnet8_cifar();
    let mut rng = ChaCha8Rng::seed_from_u64(97);
    let layers = spec.build_layers(&mut rng);
    let ports = PortConfig::single_port(spec.paper_depth());
    let design = build_graph_design(&spec, &layers, &ports, DesignConfig::default()).unwrap();
    let images = SyntheticCifar::new(98)
        .generate(8)
        .into_iter()
        .map(|(x, _)| x)
        .collect();
    (design, images)
}

/// One `name digest` line per pinned run.
fn rendered_output_digests() -> String {
    use dfcnn::core::exec::ThreadedEngine;
    let host = |(design, images): (NetworkDesign, Vec<Tensor3<f32>>)| {
        let res = ThreadedEngine::new(&design).run_sequential(&images);
        output_digest(res.outputs.iter().map(|t| t.as_slice()))
    };
    let sim = |(design, images): (NetworkDesign, Vec<Tensor3<f32>>)| {
        let (sim, _) = design.instantiate(&images).run();
        output_digest(sim.outputs.iter().map(|o| o.as_slice()))
    };
    let q16 = |frac| NumericSpec::Fixed16 { frac };
    format!(
        "tc2_q16f8_run_sequential {:016x}\n\
         tc1_q16f10_run_sequential {:016x}\n\
         tc2_q16f8_event_sim {:016x}\n\
         tc2_f32_run_sequential {:016x}\n\
         tc2_f32_event_sim {:016x}\n\
         resnet8_f32_run_sequential {:016x}\n",
        host(paper_test_case(2, q16(8))),
        host(paper_test_case(1, q16(10))),
        sim(paper_test_case(2, q16(8))),
        host(paper_test_case(2, NumericSpec::F32)),
        sim(paper_test_case(2, NumericSpec::F32)),
        host(resnet8_f32()),
    )
}

/// Output values are pinned bit for bit. Fixed point: TC2 in q16f8 and
/// TC1 in q16f10 through the host engine, TC2 in q16f8 through the event
/// simulator. f32 (where the tree-adder and interleaved-bank summation
/// orders decide the rounding): TC2 through the host engine and the event
/// simulator, and the CIFAR ResNet-8 preset through the host engine.
#[test]
fn outputs_match_golden_digests() {
    let golden = std::fs::read_to_string(OUTPUT_DIGEST_GOLDEN_PATH)
        .expect("golden file missing — run the ignored bless_golden_trace test");
    assert_eq!(rendered_output_digests(), golden);
}

/// The simulator fingerprint corpus: the paper test cases with paper
/// ports in f32 and q16f8, each with host and with fabric normalisation;
/// two TC1 port configurations that need demuxes and widens, in f32 and
/// q16f8; the residual fixture; ResNet-8 mini; the Inception cell on
/// 4×4×3; and `random_dag_design` seeds 0–23. Each entry is a name, a
/// design and its batch.
fn fingerprint_corpus() -> Vec<(String, NetworkDesign, Vec<Tensor3<f32>>)> {
    use dfcnn::core::graph::LayerPorts;
    let ports = |layers: [(usize, usize); 3]| PortConfig {
        layers: layers
            .iter()
            .map(|&(in_ports, out_ports)| LayerPorts {
                in_ports,
                out_ports,
            })
            .chain([LayerPorts::SINGLE])
            .collect(),
    };
    let mut corpus = Vec::new();
    for (numeric, spec) in [
        (NumericSpec::F32, "f32"),
        (NumericSpec::default_fixed(), "q16f8"),
    ] {
        for fabric_normalization in [false, true] {
            let config = DesignConfig {
                numeric,
                fabric_normalization,
                ..DesignConfig::default()
            };
            let norm = if fabric_normalization {
                "fabric"
            } else {
                "host"
            };
            for (tc, paper, batch) in [
                (1, PortConfig::paper_test_case_1(), 2),
                (2, PortConfig::paper_test_case_2(), 1),
            ] {
                let (design, mut images) = paper_test_case_with(tc, paper, config);
                images.truncate(batch);
                corpus.push((format!("tc{tc}_{spec}_{norm}"), design, images));
            }
        }
        let config = DesignConfig {
            numeric,
            ..DesignConfig::default()
        };
        // conv1's one port feeds pool1's two (a demux), pool1's six feed
        // conv2's three (a widen); then conv1's three feed pool1's six and
        // pool1's two feed conv2's one
        for (k, layers) in [[(1, 1), (2, 6), (3, 2)], [(1, 3), (6, 2), (1, 2)]]
            .into_iter()
            .enumerate()
        {
            let (design, mut images) = paper_test_case_with(1, ports(layers), config);
            images.truncate(2);
            corpus.push((format!("tc1_ports{k}_{spec}"), design, images));
        }
    }
    let two_images = |design: NetworkDesign, seed: u64| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let shape = design.network().input_shape();
        let images = (0..2)
            .map(|_| dfcnn::tensor::init::random_volume(&mut rng, shape, 0.0, 1.0))
            .collect();
        (design, images)
    };
    let fixtures = [
        ("residual", residual_fixture().0),
        ("resnet8_mini", resnet8_fixture().0),
        ("inception_4x4x3", inception_fixture(Shape3::new(4, 4, 3)).0),
    ];
    for (seed, (name, design)) in (200..).zip(fixtures) {
        let (design, images) = two_images(design, seed);
        corpus.push((name.to_string(), design, images));
    }
    for seed in 0..24 {
        let design = common::random_dag_design(seed, DesignConfig::default());
        let (design, images) = two_images(design, 300 + seed);
        corpus.push((format!("dag{seed}"), design, images));
    }
    corpus
}

/// One line of digests for a traced run: cycles and completions, output
/// bits, per-actor initiations with the stall counters and span tracks,
/// FIFO statistics with the line-buffer high-water marks, and the trace
/// CSV.
fn sim_fingerprint(
    result: &dfcnn::core::sim::SimResult,
    trace: &dfcnn::core::trace::Trace,
) -> String {
    let mut timing = Fnv::new();
    timing.u64(result.cycles);
    for &c in &result.completions {
        timing.u64(c);
    }
    let outputs = output_digest(result.outputs.iter().map(|o| o.as_slice()));
    let mut actors = Fnv::new();
    for a in &result.actor_stats {
        actors.bytes(a.name.as_bytes());
        actors.u64(a.initiations);
    }
    for s in &result.stalls {
        actors.bytes(s.name.as_bytes());
        for &n in [s.computing, s.idle]
            .iter()
            .chain(&s.starved)
            .chain(&s.backpressured)
        {
            actors.u64(n);
        }
    }
    for (name, spans) in trace.stall_tracks() {
        actors.bytes(name.as_bytes());
        for span in spans {
            actors.u64(span.start);
            actors.u64(span.end);
            actors.bytes(format!("{:?}", span.class).as_bytes());
        }
    }
    let mut buffers = Fnv::new();
    for f in &result.fifo_stats {
        for n in [f.pushes, f.pops, f.max_occupancy as u64, f.capacity as u64] {
            buffers.u64(n);
        }
    }
    for a in &result.actor_stats {
        if let Some((hwm, bound)) = a.buffer_hwm {
            buffers.u64(hwm as u64);
            buffers.u64(bound as u64);
        }
    }
    let mut csv = Fnv::new();
    csv.bytes(trace.to_csv().as_bytes());
    format!(
        "cycles={} timing={:016x} outputs={outputs:016x} actors={:016x} buffers={:016x} trace={:016x}",
        result.cycles, timing.0, actors.0, buffers.0, csv.0
    )
}

/// Per corpus entry: one line per scheduler (event, dense), both traced,
/// one for the untraced event run (the benchmark's path, which skips the
/// flight recorder), and one with the host `run_sequential` output bits.
fn rendered_sim_fingerprints() -> String {
    use dfcnn::core::exec::ThreadedEngine;
    let mut out = String::new();
    for (name, design, images) in fingerprint_corpus() {
        let (untraced, untraced_trace) = design.instantiate(&images).run();
        let (event, event_trace) = design.instantiate(&images).with_trace().run();
        let (dense, dense_trace) = design
            .instantiate(&images)
            .with_trace()
            .reference_mode()
            .run();
        let host = ThreadedEngine::new(&design).run_sequential(&images);
        let host = output_digest(host.outputs.iter().map(|t| t.as_slice()));
        out += &format!("{name} event {}\n", sim_fingerprint(&event, &event_trace));
        out += &format!("{name} dense {}\n", sim_fingerprint(&dense, &dense_trace));
        out += &format!(
            "{name} untraced {}\n",
            sim_fingerprint(&untraced, &untraced_trace)
        );
        out += &format!("{name} host outputs={host:016x}\n");
    }
    out
}

/// The simulator is pinned across commits over the whole fixture corpus:
/// every scheduler's cycles, outputs, per-actor counters, stall spans,
/// buffer high-water marks and trace bytes. `engine_conformance` compares
/// the two schedulers with each other at one commit; this file compares
/// each with its own past, so a change that moves both alike (say, a
/// reordered stall priority) shows up as a diff here.
#[test]
fn sim_fingerprints_match_golden() {
    assert_matches_golden(&rendered_sim_fingerprints(), SIM_FINGERPRINT_GOLDEN_PATH);
}

/// Regenerate the golden files (ignored; run explicitly after intentional
/// trace-format changes).
#[test]
#[ignore]
fn bless_golden_trace() {
    std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden")).unwrap();
    std::fs::write(GOLDEN_PATH, rendered_csv()).unwrap();
    std::fs::write(RESIDUAL_GOLDEN_PATH, residual_rendered_csv()).unwrap();
    std::fs::write(RESNET8_GOLDEN_PATH, resnet8_rendered_csv()).unwrap();
    std::fs::write(INCEPTION_GOLDEN_PATH, inception_rendered_csv()).unwrap();
    std::fs::write(ADAPTER_GOLDEN_PATH, adapter_rendered_csv()).unwrap();
    std::fs::write(OUTPUT_DIGEST_GOLDEN_PATH, rendered_output_digests()).unwrap();
    std::fs::write(SIM_FINGERPRINT_GOLDEN_PATH, rendered_sim_fingerprints()).unwrap();
}
