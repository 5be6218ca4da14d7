//! The static verifier's acceptance contract (see `dfcnn::core::check`):
//!
//! - **Soundness on good designs**: both paper test cases, every DSE
//!   candidate, and a 50-design random corpus must check clean — the
//!   verifier never cries wolf on a design the simulator runs happily.
//! - **Completeness on seeded faults**: each seeded violation class
//!   (undersized line buffer, omitted boundary adapter, malformed
//!   replication plan) must be rejected with its expected rule id, and
//!   the rejection is independently confirmed by the corresponding
//!   engine actually deadlocking or refusing the run. The checker's
//!   verdict and the dynamic outcome must agree in both directions.
//! - **Static/dynamic agreement**: a drift report measured from a clean
//!   traced run must cross-check against the analytical model with no
//!   diagnostics.

mod common;

use common::{random_ports, random_spec, residual_design};
use dfcnn::core::exec::ReplicationPlan;
use dfcnn::core::observe::DriftReport;
use dfcnn::core::{check_drift, check_replication, SimError};
use dfcnn::nn::topology::GraphOp;
use dfcnn::prelude::*;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn tc1_network() -> Network {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    NetworkSpec::test_case_1().build(&mut rng)
}

fn batch(design: &NetworkDesign, n: usize, seed: u64) -> Vec<Tensor3<f32>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            dfcnn::tensor::init::random_volume(&mut rng, design.network().input_shape(), 0.0, 1.0)
        })
        .collect()
}

#[test]
fn both_paper_designs_check_clean() {
    let tc1 = NetworkDesign::new(
        &tc1_network(),
        PortConfig::paper_test_case_1(),
        DesignConfig::default(),
    )
    .unwrap();
    let report = check_design(&tc1);
    assert!(report.is_clean(), "TC1: {}", report.render());
    assert!(report.warnings().is_empty(), "TC1: {}", report.render());

    let mut rng = ChaCha8Rng::seed_from_u64(12);
    let net2 = NetworkSpec::test_case_2().build(&mut rng);
    let tc2 = NetworkDesign::new(
        &net2,
        PortConfig::paper_test_case_2(),
        DesignConfig::default(),
    )
    .unwrap();
    let report = check_design(&tc2);
    assert!(report.is_clean(), "TC2: {}", report.render());
    assert!(report.warnings().is_empty(), "TC2: {}", report.render());
}

#[test]
fn every_dse_candidate_checks_clean() {
    let net = tc1_network();
    let spec = GraphSpec::from(&net);
    for ports in dse::enumerate_configs(&spec, net.layers(), 6).unwrap() {
        let design = NetworkDesign::new(&net, ports.clone(), DesignConfig::default())
            .expect("enumerated configs are valid");
        let report = check_design(&design);
        assert!(report.is_clean(), "ports {ports:?}: {}", report.render());
    }
}

/// The chain spec the DSE walks is the network's own spec: one layer op
/// per declared layer, in order.
fn assert_chain_spec_is_the_declared_spec(spec: &NetworkSpec, seed: u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let chain = GraphSpec::from(&spec.build(&mut rng));
    let declared: Vec<GraphOp> = spec.layers.iter().cloned().map(GraphOp::Layer).collect();
    assert_eq!(chain.input, spec.input, "{}", spec.name);
    assert_eq!(chain.ops, declared, "{}", spec.name);
}

#[test]
fn preset_chain_specs_are_the_declared_specs() {
    for spec in [
        NetworkSpec::test_case_1(),
        NetworkSpec::test_case_2(),
        NetworkSpec::lenet5(),
        NetworkSpec::alexnet_tiny(),
        NetworkSpec::vgg_tiny(),
    ] {
        assert_chain_spec_is_the_declared_spec(&spec, 5);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(50))]

    #[test]
    fn random_chain_specs_are_the_declared_specs(spec in random_spec(), seed in 0u64..10_000) {
        assert_chain_spec_is_the_declared_spec(&spec, seed);
    }

    /// Soundness over the random corpus: any design the builder accepts
    /// is proven safe by the verifier — no false alarms.
    #[test]
    fn random_conformant_designs_check_clean(
        spec in random_spec(),
        seed in 0u64..10_000,
        fabric_normalization in proptest::bool::ANY,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let network = spec.build(&mut rng);
        let ports = random_ports(&spec, seed ^ 0x5EED);
        let config = DesignConfig { fabric_normalization, ..DesignConfig::default() };
        let design = NetworkDesign::new(&network, ports, config)
            .expect("random divisor config must validate");
        let report = check_design(&design);
        prop_assert!(report.is_clean(), "{}", report.render());
        prop_assert!(report.warnings().is_empty(), "{}", report.render());
    }
}

/// Seeded fault 1: a line buffer below the SST full-buffering bound. The
/// verifier must reject it as `buffer-sufficiency`, and the simulator
/// must confirm the verdict by deadlocking before the first window.
#[test]
fn undersized_line_buffer_is_rejected_and_confirmed_by_deadlock() {
    let config = DesignConfig {
        line_buffer_cap: Some(4), // TC1 conv1 needs (5-1)*16 + 5 = 69/port
        ..DesignConfig::default()
    };
    let design =
        NetworkDesign::new(&tc1_network(), PortConfig::paper_test_case_1(), config).unwrap();

    let report = check_design(&design);
    assert!(
        report.has(Severity::Error, RuleId::BufferSufficiency),
        "{}",
        report.render()
    );

    let images = batch(&design, 1, 21);
    let err = design
        .instantiate(&images)
        .try_run()
        .expect_err("the simulator must confirm the static verdict");
    let SimError::Deadlock(d) = &err;
    assert_eq!(d.collected, 0, "no image can complete");
    assert!(err.to_string().contains("deadlock"), "{err}");
    assert!(err.to_string().contains("pipeline_check"), "{err}");
}

/// Seeded fault 2: adjacent cores with mismatched port counts and no
/// adapter between them. The verifier must reject the boundary as
/// `rate-conservation`, and the simulator must confirm by starving.
#[test]
fn omitted_adapter_is_rejected_and_confirmed_by_deadlock() {
    let ports = PortConfig {
        layers: vec![
            LayerPorts {
                in_ports: 1,
                out_ports: 2,
            },
            LayerPorts::SINGLE,
            LayerPorts::SINGLE,
            LayerPorts::SINGLE,
        ],
    };
    let config = DesignConfig {
        omit_adapters: true,
        ..DesignConfig::default()
    };
    let design = NetworkDesign::new(&tc1_network(), ports.clone(), config).unwrap();

    let report = check_design(&design);
    assert!(
        report.has(Severity::Error, RuleId::RateConservation),
        "{}",
        report.render()
    );

    let images = batch(&design, 1, 22);
    let err = design
        .instantiate(&images)
        .try_run()
        .expect_err("the simulator must confirm the static verdict");
    assert!(err.to_string().contains("deadlock"), "{err}");

    // control: the same port choice with adapters inserted is clean and
    // simulates to completion — the fault is the omission, not the ports
    let healthy = NetworkDesign::new(&tc1_network(), ports, DesignConfig::default()).unwrap();
    assert!(check_design(&healthy).is_clean());
    let images = batch(&healthy, 1, 22);
    let (res, _) = healthy
        .instantiate(&images)
        .try_run()
        .expect("healthy design must complete");
    assert_eq!(res.outputs.len(), 1);
}

/// Seeded fault 4: a skip-path FIFO too shallow to cover the sibling
/// conv's line-buffer holdback. On the residual block the trunk fork
/// feeds a conv branch (which holds back (3-1)·8+3 pixels × 2 channels =
/// 38 values while filling its line buffer) and an identity skip; with
/// the skip FIFO clamped to two slots the fork backpressures before the
/// eltwise-add ever sees a token. The verifier must reject it as
/// `reconvergence-buffering`, and the simulator must confirm the verdict
/// by deadlocking before the first output.
#[test]
fn undersized_skip_fifo_is_rejected_and_confirmed_by_deadlock() {
    let design = residual_design(DesignConfig {
        skip_fifo_cap: Some(2),
        ..DesignConfig::default()
    });

    let report = check_design(&design);
    assert!(
        report.has(Severity::Error, RuleId::ReconvergenceBuffering),
        "{}",
        report.render()
    );
    assert!(
        report.render().contains("error[reconvergence-buffering]"),
        "{}",
        report.render()
    );

    let images = batch(&design, 1, 25);
    let err = design
        .instantiate(&images)
        .try_run()
        .expect_err("the simulator must confirm the static verdict");
    let SimError::Deadlock(d) = &err;
    assert_eq!(d.collected, 0, "no image can complete");
    assert!(err.to_string().contains("deadlock"), "{err}");

    // control: the same graph with the builder's auto-sized skip FIFO is
    // clean and simulates to completion — the fault is the clamp
    let healthy = residual_design(DesignConfig::default());
    let report = check_design(&healthy);
    assert!(report.is_clean(), "{}", report.render());
    let images = batch(&healthy, 2, 25);
    let (res, _) = healthy
        .instantiate(&images)
        .try_run()
        .expect("healthy residual block must complete");
    assert_eq!(res.outputs.len(), 2);
}

/// Seeded fault 3: malformed replication plans. The verifier must reject
/// them as `replication-soundness`, and the threaded engine must confirm
/// by refusing to run them.
#[test]
fn bad_replication_plans_are_rejected_and_confirmed_by_the_engine() {
    let design = NetworkDesign::new(
        &tc1_network(),
        PortConfig::paper_test_case_1(),
        DesignConfig::default(),
    )
    .unwrap();
    let engine = ThreadedEngine::new(&design);
    let images = batch(&design, 2, 23);

    // wrong stage count
    let short = ReplicationPlan {
        factors: vec![1, 1],
    };
    let diags = check_replication(&short, engine.stage_count());
    assert!(
        diags
            .iter()
            .any(|d| d.severity == Severity::Error && d.rule == RuleId::ReplicationSoundness),
        "{diags:?}"
    );
    let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        engine.run_with_plan(&images, &short)
    }));
    assert!(refused.is_err(), "engine must refuse a short plan");

    // zero factor: a residue class with no worker
    let zero = ReplicationPlan {
        factors: vec![1, 0, 1, 1, 1],
    };
    let diags = check_replication(&zero, engine.stage_count());
    assert!(
        diags
            .iter()
            .any(|d| d.severity == Severity::Error && d.rule == RuleId::ReplicationSoundness),
        "{diags:?}"
    );
    let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        engine.run_with_plan(&images, &zero)
    }));
    assert!(refused.is_err(), "engine must refuse a zero factor");

    // a legal plan passes both the checker and the engine
    let good = ReplicationPlan::uniform(engine.stage_count());
    assert!(check_replication(&good, engine.stage_count()).is_empty());
    let (res, _) = engine.run_with_plan(&images, &good);
    assert_eq!(res.outputs.len(), 2);
}

/// Static/dynamic agreement: a drift report measured from a clean run
/// cross-checks against the analytical model with zero diagnostics.
#[test]
fn measured_drift_report_cross_checks_clean() {
    let design = NetworkDesign::new(
        &tc1_network(),
        PortConfig::paper_test_case_1(),
        DesignConfig::default(),
    )
    .unwrap();
    assert!(check_design(&design).is_clean());
    // batch 8 like tests/flight_recorder.rs: the steady-state interval
    // estimator needs enough images for the fill transient to amortise
    let images = batch(&design, 8, 24);
    let (res, trace) = design.instantiate(&images).with_trace().run();
    let drift = DriftReport::new(&design, &res, &trace);
    let diags = check_drift(&design, &drift);
    assert!(diags.is_empty(), "{diags:?}");
}
