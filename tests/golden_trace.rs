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

const OUTPUT_DIGEST_GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/output_digests.txt"
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

/// The Inception-cell Perfetto/Chrome export names the concat actors: the
/// pairwise-folded concat joins appear as tracks next to the branch convs.
#[test]
fn inception_chrome_export_names_concat_actors() {
    use dfcnn::core::graph::build_graph_design;
    use dfcnn::nn::topology::GraphSpec;
    let spec = GraphSpec::inception_cell();
    let mut rng = ChaCha8Rng::seed_from_u64(80);
    let layers = spec.build_layers(&mut rng);
    let ports = PortConfig::single_port(spec.paper_depth());
    let design = build_graph_design(&spec, &layers, &ports, DesignConfig::default()).unwrap();
    let image = dfcnn::tensor::init::random_volume(&mut rng, spec.input, 0.0, 1.0);
    let (_, trace) = design.instantiate(&[image]).with_trace().run();
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

/// FNV-1a over the little-endian bytes of every output value's `f32` bits.
fn output_digest<'a>(outputs: impl IntoIterator<Item = &'a [f32]>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in outputs.into_iter().flatten() {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// A paper test case in `numeric`, with 8 seeded images.
fn paper_test_case(tc: u8, numeric: NumericSpec) -> (NetworkDesign, Vec<Tensor3<f32>>) {
    let mut rng = ChaCha8Rng::seed_from_u64(90 + u64::from(tc));
    let (spec, ports) = match tc {
        1 => (NetworkSpec::test_case_1(), PortConfig::paper_test_case_1()),
        _ => (NetworkSpec::test_case_2(), PortConfig::paper_test_case_2()),
    };
    let net = spec.build(&mut rng);
    let config = DesignConfig {
        numeric,
        ..DesignConfig::default()
    };
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

/// Regenerate the golden files (ignored; run explicitly after intentional
/// trace-format changes).
#[test]
#[ignore]
fn bless_golden_trace() {
    std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden")).unwrap();
    std::fs::write(GOLDEN_PATH, rendered_csv()).unwrap();
    std::fs::write(RESIDUAL_GOLDEN_PATH, residual_rendered_csv()).unwrap();
    std::fs::write(RESNET8_GOLDEN_PATH, resnet8_rendered_csv()).unwrap();
    std::fs::write(OUTPUT_DIGEST_GOLDEN_PATH, rendered_output_digests()).unwrap();
}
