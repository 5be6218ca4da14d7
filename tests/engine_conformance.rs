//! Engine-conformance harness: the event-driven scheduler must be
//! indistinguishable from the dense reference sweep.
//!
//! `Simulator::reference_mode` keeps the original cycle-by-cycle sweep
//! alive as a conformance oracle; this test pins the contract on the paper's
//! two test cases and on randomised designs:
//!
//! * identical [`dfcnn::core::sim::SimResult`]s — bit-identical outputs,
//!   identical per-image completion cycles, identical total cycle counts,
//!   identical actor and FIFO statistics (checked field-by-field inside
//!   [`check_engine_conformance`]),
//! * identical trace event streams, and
//! * both bit-identical to the threaded `exec` engine's outputs, closing
//!   the triangle between the three execution paths.

mod common;

use common::{
    check_engine_conformance, random_dag_design, random_ports, random_spec, residual_design,
};
use dfcnn::core::exec::{ReplicationPlan, ThreadedEngine};
use dfcnn::core::graph::{DesignConfig, NetworkDesign, PortConfig};
use dfcnn::prelude::*;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Full three-way conformance on one design and batch.
fn assert_conformance(design: &NetworkDesign, images: &[Tensor3<f32>]) {
    // event-driven == dense reference: exact SimResult + trace equality
    let event = check_engine_conformance(design, images);
    assert_eq!(event.outputs.len(), images.len());
    assert_eq!(event.completions.len(), images.len());
    assert!(
        event.completions.windows(2).all(|w| w[0] < w[1]),
        "completions must be strictly ordered"
    );
    // both == threaded engine, bit for bit
    let exec = ThreadedEngine::new(design).run(images);
    for (i, (s, e)) in event.outputs.iter().zip(exec.outputs.iter()).enumerate() {
        assert_eq!(
            s.as_slice(),
            e.as_slice(),
            "image {i}: simulator != threaded engine"
        );
    }
}

fn usps_images(n: usize, seed: u64) -> Vec<Tensor3<f32>> {
    let mut gen = SyntheticUsps::new(seed);
    gen.generate(n).into_iter().map(|(x, _)| x).collect()
}

fn cifar_images(n: usize, seed: u64) -> Vec<Tensor3<f32>> {
    let mut gen = SyntheticCifar::new(seed);
    gen.generate(n).into_iter().map(|(x, _)| x).collect()
}

/// Paper Test Case 1 (USPS network, conv1+pool1 fully parallel) under the
/// paper's port configuration.
#[test]
fn test_case_1_engines_conform() {
    let mut rng = ChaCha8Rng::seed_from_u64(41);
    let net = NetworkSpec::test_case_1().build(&mut rng);
    let design = NetworkDesign::new(
        &net,
        PortConfig::paper_test_case_1(),
        DesignConfig::default(),
    )
    .unwrap();
    assert_conformance(&design, &usps_images(3, 42));
}

/// Paper Test Case 2 (CIFAR-10 network, all single-port).
#[test]
fn test_case_2_engines_conform() {
    let mut rng = ChaCha8Rng::seed_from_u64(43);
    let net = NetworkSpec::test_case_2().build(&mut rng);
    let design = NetworkDesign::new(
        &net,
        PortConfig::paper_test_case_2(),
        DesignConfig::default(),
    )
    .unwrap();
    assert_conformance(&design, &cifar_images(2, 44));
}

/// TC1 again with a batch deep enough to reach pipelined steady state, so
/// the conformance check covers fill, steady streaming and drain phases.
#[test]
fn test_case_1_conforms_at_steady_state() {
    let mut rng = ChaCha8Rng::seed_from_u64(45);
    let net = NetworkSpec::test_case_1().build(&mut rng);
    let design = NetworkDesign::new(
        &net,
        PortConfig::paper_test_case_1(),
        DesignConfig::default(),
    )
    .unwrap();
    assert_conformance(&design, &usps_images(8, 46));
}

/// Stage replication must not change a single output bit or the output
/// order — here on Paper Test Case 1 at a batch deep enough that every
/// replicated worker handles several images.
#[test]
fn test_case_1_replicated_matches_sequential() {
    let mut rng = ChaCha8Rng::seed_from_u64(47);
    let net = NetworkSpec::test_case_1().build(&mut rng);
    let design = NetworkDesign::new(
        &net,
        PortConfig::paper_test_case_1(),
        DesignConfig::default(),
    )
    .unwrap();
    let engine = ThreadedEngine::new(&design);
    let images = usps_images(2 * engine.stage_count() + 3, 48);
    let seq = engine.run_sequential(&images);
    for factors in [vec![2, 1, 3, 1, 2], vec![4, 4, 4, 4, 4]] {
        let plan = ReplicationPlan { factors };
        let (res, profile) = engine.run_with_plan(&images, &plan);
        assert_eq!(res.outputs, seq.outputs, "plan {:?}", plan.factors);
        assert!(profile
            .stages
            .iter()
            .all(|s| s.images == images.len() as u64));
    }
}

/// Same contract on Paper Test Case 2 via the adaptive (measured) plan.
#[test]
fn test_case_2_replicated_matches_sequential() {
    let mut rng = ChaCha8Rng::seed_from_u64(49);
    let net = NetworkSpec::test_case_2().build(&mut rng);
    let design = NetworkDesign::new(
        &net,
        PortConfig::paper_test_case_2(),
        DesignConfig::default(),
    )
    .unwrap();
    let engine = ThreadedEngine::new(&design);
    let images = cifar_images(engine.stage_count() + 2, 50);
    let seq = engine.run_sequential(&images);
    let (res, _, _) = engine.run_adaptive(&images);
    assert_eq!(res.outputs, seq.outputs);
}

/// LeNet-5 classifying **end to end on the fabric**: with
/// `fabric_normalization` the design appends a LogSoftmax core after the
/// last FC layer, so the sink collects final normalised scores instead of
/// raw logits. All three engines must stay bit-identical through the new
/// core, the host-side kernel path must match bit for bit, and the
/// `dfcnn-nn` reference must agree within the usual verify tolerance.
#[test]
fn lenet5_classifies_end_to_end_on_the_fabric() {
    let mut rng = ChaCha8Rng::seed_from_u64(51);
    let net = NetworkSpec::lenet5().build(&mut rng);
    let design = NetworkDesign::new(
        &net,
        PortConfig::single_port(7),
        DesignConfig {
            fabric_normalization: true,
            ..DesignConfig::default()
        },
    )
    .unwrap();
    assert!(design.on_fabric_normalization());
    let images: Vec<_> = (0..2)
        .map(|_| dfcnn::tensor::init::random_volume(&mut rng, net.input_shape(), 0.0, 1.0))
        .collect();
    // sim (event + reference schedulers) == threaded engine, bit for bit
    let event = check_engine_conformance(&design, &images);
    let exec = ThreadedEngine::new(&design).run(&images);
    for (i, (img, (s, e))) in images
        .iter()
        .zip(event.outputs.iter().zip(exec.outputs.iter()))
        .enumerate()
    {
        assert_eq!(s.as_slice(), e.as_slice(), "image {i}: sim != threaded");
        // and both == the sequential host kernel path
        let hw = design.hw_forward(img);
        assert_eq!(s.as_slice(), hw.as_slice(), "image {i}: sim != hw kernel");
        // on-fabric scores are normalised log-probabilities
        let prob_sum: f32 = s.as_slice().iter().map(|v| v.exp()).sum();
        assert!((prob_sum - 1.0).abs() < 1e-4, "image {i}: Σp = {prob_sum}");
    }
    // reference closeness + decision equivalence through the softmax
    let report = dfcnn::core::verify::compare_outputs(&design, &images, &event.outputs);
    assert!(report.passes(1e-3), "report: {report:?}");
}

/// The fixed-point conformance axis: with `DesignConfig::numeric` set to
/// an executed fixed spec, the same three-way bit-equality must hold —
/// the quantised datapath is still deterministic hardware — and the
/// fixed outputs must track the f32 design within a quantisation-scaled
/// tolerance (`tol_steps` LSBs of the spec).
fn assert_fixed_conformance(
    net: &Network,
    ports: PortConfig,
    images: &[Tensor3<f32>],
    spec: NumericSpec,
    tol_steps: f64,
) {
    let fixed = NetworkDesign::new(
        net,
        ports.clone(),
        DesignConfig {
            numeric: spec,
            ..DesignConfig::default()
        },
    )
    .unwrap();
    assert_conformance(&fixed, images);
    let float = NetworkDesign::new(net, ports, DesignConfig::default()).unwrap();
    let tol = (tol_steps * spec.epsilon()) as f32;
    for (i, img) in images.iter().enumerate() {
        let q = fixed.hw_forward(img);
        let f = float.hw_forward(img);
        let diff = q.max_abs_diff(&f);
        assert!(
            diff <= tol,
            "image {i}: |{} - f32| = {diff} > {tol}",
            spec.label()
        );
    }
}

/// Paper Test Case 1 executed in the default fixed spec (Q8.8 in i16):
/// dense sim, event sim and threaded engine bit-identical, outputs
/// within quantisation distance of the f32 design.
#[test]
fn test_case_1_conforms_in_fixed_point() {
    let mut rng = ChaCha8Rng::seed_from_u64(41);
    let net = NetworkSpec::test_case_1().build(&mut rng);
    assert_fixed_conformance(
        &net,
        PortConfig::paper_test_case_1(),
        &usps_images(3, 42),
        NumericSpec::default_fixed(),
        64.0,
    );
}

/// Paper Test Case 2 in the default fixed spec — the deeper CIFAR
/// network with the 900-input FC layer, where exact i64 accumulation is
/// what keeps the three engines bit-identical regardless of summation
/// order.
#[test]
fn test_case_2_conforms_in_fixed_point() {
    let mut rng = ChaCha8Rng::seed_from_u64(43);
    let net = NetworkSpec::test_case_2().build(&mut rng);
    assert_fixed_conformance(
        &net,
        PortConfig::paper_test_case_2(),
        &cifar_images(2, 44),
        NumericSpec::default_fixed(),
        64.0,
    );
}

/// The narrowest supported datapath (Q4.4 in i8) still conforms exactly
/// across engines; accuracy degrades but stays within a few dozen LSBs.
#[test]
fn test_case_1_conforms_in_q8() {
    let mut rng = ChaCha8Rng::seed_from_u64(41);
    let net = NetworkSpec::test_case_1().build(&mut rng);
    assert_fixed_conformance(
        &net,
        PortConfig::paper_test_case_1(),
        &usps_images(2, 45),
        NumericSpec::Fixed8 { frac: 4 },
        64.0,
    );
}

/// Fixed-point TC1 at a batch deep enough for pipelined steady state.
#[test]
fn test_case_1_fixed_point_conforms_at_steady_state() {
    let mut rng = ChaCha8Rng::seed_from_u64(45);
    let net = NetworkSpec::test_case_1().build(&mut rng);
    let design = NetworkDesign::new(
        &net,
        PortConfig::paper_test_case_1(),
        DesignConfig {
            numeric: NumericSpec::default_fixed(),
            ..DesignConfig::default()
        },
    )
    .unwrap();
    assert_conformance(&design, &usps_images(8, 46));
}

/// The residual fork/join fixture in fixed point: quantisation at the
/// eltwise-add and scale-shift cores must stay engine-invariant too.
#[test]
fn residual_block_conforms_in_fixed_point() {
    let design = residual_design(DesignConfig {
        numeric: NumericSpec::default_fixed(),
        ..DesignConfig::default()
    });
    assert_conformance(&design, &residual_images(3, 55));
}

fn residual_images(n: usize, seed: u64) -> Vec<Tensor3<f32>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| dfcnn::tensor::init::random_volume(&mut rng, Shape3::new(8, 8, 2), 0.0, 1.0))
        .collect()
}

/// The residual block — the first non-linear topology: a fork tee feeding
/// a conv→scaleshift branch and an identity skip, rejoined by an
/// eltwise-add. All three engines must stay bit-identical through the
/// fork/join, the design must be checker-clean, and the stall-accounting
/// identity (checked inside `check_engine_conformance`) must hold with
/// the tee and adder in the actor graph.
#[test]
fn residual_block_engines_conform() {
    let design = residual_design(DesignConfig::default());
    let report = check_design(&design);
    assert!(
        report.is_clean(),
        "residual block must be checker-clean: {}",
        report.render()
    );
    assert_conformance(&design, &residual_images(3, 52));
}

/// Same fixture at a batch deep enough to reach pipelined steady state,
/// so the skip FIFO cycles through fill/steady/drain while images overlap
/// in the two reconvergent paths.
#[test]
fn residual_block_conforms_at_steady_state() {
    let design = residual_design(DesignConfig::default());
    assert_conformance(&design, &residual_images(8, 53));
}

/// The residual block's simulated scores must agree with the `dfcnn-nn`
/// composed-layer reference within verify tolerance — the graph path of
/// `reference_scores` composes fork/add/scaleshift the same way.
#[test]
fn residual_block_verifies_against_reference() {
    let design = residual_design(DesignConfig::default());
    let images = residual_images(2, 54);
    let event = check_engine_conformance(&design, &images);
    let report = dfcnn::core::verify::compare_outputs(&design, &images, &event.outputs);
    assert!(report.passes(1e-3), "report: {report:?}");
}

/// Build a named graph preset with seeded weights, all single-port.
fn preset_design(spec: &dfcnn::nn::topology::GraphSpec, seed: u64) -> NetworkDesign {
    use dfcnn::core::graph::build_graph_design;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let layers = spec.build_layers(&mut rng);
    let ports = PortConfig::single_port(spec.paper_depth());
    build_graph_design(spec, &layers, &ports, DesignConfig::default()).unwrap()
}

fn preset_images(spec: &dfcnn::nn::topology::GraphSpec, n: usize, seed: u64) -> Vec<Tensor3<f32>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| dfcnn::tensor::init::random_volume(&mut rng, spec.input, 0.0, 1.0))
        .collect()
}

/// The ResNet-8/CIFAR preset — three residual blocks with downsampling
/// projections — lowered through `build_graph_design` with zero
/// hand-written wiring, checker-clean and bit-identical across all three
/// engines.
#[test]
fn resnet8_cifar_preset_engines_conform() {
    use dfcnn::nn::topology::GraphSpec;
    let spec = GraphSpec::resnet8_cifar();
    let design = preset_design(&spec, 801);
    let report = check_design(&design);
    assert!(report.is_clean(), "{}", report.render());
    assert_conformance(&design, &preset_images(&spec, 2, 802));
}

/// The Inception-cell preset: a four-way branch group reconverging
/// through pairwise concat joins — the concat interleave (operand A's FMs
/// then operand B's, per pixel) must survive all three engines bit-exact.
#[test]
fn inception_cell_preset_engines_conform() {
    use dfcnn::nn::topology::GraphSpec;
    let spec = GraphSpec::inception_cell();
    let design = preset_design(&spec, 803);
    let report = check_design(&design);
    assert!(report.is_clean(), "{}", report.render());
    assert_conformance(&design, &preset_images(&spec, 3, 804));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(50))]

    /// Random fork/join DAGs — nested forks, sequential skip blocks,
    /// random ScaleShift / conv ops on either reconvergent path — must be
    /// checker-clean (the builder auto-sizes every skip FIFO) and
    /// bit-identical across all three engines.
    #[test]
    fn random_dags_engines_conform(seed in 0u64..10_000) {
        let design = random_dag_design(seed, DesignConfig::default());
        let report = check_design(&design);
        prop_assert!(report.is_clean(), "seed {}: {}", seed, report.render());
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xDA6);
        let shape = design.network().input_shape();
        let images: Vec<_> = (0..2)
            .map(|_| dfcnn::tensor::init::random_volume(&mut rng, shape, 0.0, 1.0))
            .collect();
        assert_conformance(&design, &images);
    }

    /// Randomised designs: topology, port widths and inputs all random —
    /// the schedulers must stay indistinguishable on every one.
    #[test]
    fn random_designs_engines_conform(spec in random_spec(), seed in 0u64..10_000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let network = spec.build(&mut rng);
        let ports = random_ports(&spec, seed ^ 0x5EED);
        let design = NetworkDesign::new(&network, ports, DesignConfig::default())
            .expect("random divisor config must validate");
        let images: Vec<_> = (0..2)
            .map(|_| dfcnn::tensor::init::random_volume(&mut rng, spec.input, 0.0, 1.0))
            .collect();
        assert_conformance(&design, &images);
    }

    /// The replicated engine is bit-identical to `run_sequential` — order
    /// included — across random designs, random per-stage replication
    /// factors 1–4, and batch sizes straddling the pipeline depth.
    #[test]
    fn random_designs_replicated_engine_is_bit_identical(
        spec in random_spec(),
        seed in 0u64..10_000,
        factor_seed in 0u64..10_000,
        batch_kind in 0usize..3,
    ) {
        use rand::Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let network = spec.build(&mut rng);
        let ports = random_ports(&spec, seed ^ 0x5EED);
        let design = NetworkDesign::new(&network, ports, DesignConfig::default())
            .expect("random divisor config must validate");
        let engine = ThreadedEngine::new(&design);
        let depth = engine.stage_count();
        // below, at, and beyond the pipeline depth
        let batch = match batch_kind {
            0 => (depth / 2).max(1),
            1 => depth,
            _ => 2 * depth + 3,
        };
        let images: Vec<_> = (0..batch)
            .map(|_| dfcnn::tensor::init::random_volume(&mut rng, spec.input, 0.0, 1.0))
            .collect();
        let seq = engine.run_sequential(&images);
        let mut frng = ChaCha8Rng::seed_from_u64(factor_seed);
        let factors: Vec<usize> = (0..depth).map(|_| frng.gen_range(1usize..=4)).collect();
        let plan = ReplicationPlan { factors };
        let (res, profile) = engine.run_with_plan(&images, &plan);
        prop_assert_eq!(&res.outputs, &seq.outputs, "plan {:?}", plan.factors);
        prop_assert!(profile.stages.iter().all(|s| s.images == batch as u64));
    }
}
