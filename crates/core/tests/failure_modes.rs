//! Failure injection and error-path tests: the machinery must fail loudly
//! and diagnosably, never silently wrong.

use dfcnn_core::endpoints::SinkState;
use dfcnn_core::graph::{DesignConfig, LayerPorts, NetworkDesign, PortConfig};
use dfcnn_core::sim::{Actor, Next, Quiescence, Simulator};
use dfcnn_core::stream::ChannelSet;
use dfcnn_core::trace::{Stall, Trace};
use dfcnn_nn::topology::NetworkSpec;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;
use std::rc::Rc;

fn tc1() -> dfcnn_nn::Network {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    NetworkSpec::test_case_1().build(&mut rng)
}

/// An actor that promises output but never produces it.
struct BlackHole;
impl Actor for BlackHole {
    fn name(&self) -> &str {
        "black-hole"
    }
    fn tick(&mut self, _c: u64, _ch: &mut ChannelSet, _t: &mut Trace) -> Next {
        Next {
            wait: Quiescence::Active,
            stall: Stall::Idle,
        }
    }
    fn busy(&self) -> bool {
        true
    }
    fn initiations(&self) -> u64 {
        0
    }
}

#[test]
fn deadlock_detection_names_busy_actors() {
    // a simulator expecting one image but containing only a stuck actor
    let chans = ChannelSet::new();
    let state = Rc::new(RefCell::new(SinkState::default()));
    let sim = Simulator::new(vec![Box::new(BlackHole)], chans, 1, state);
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()))
        .expect_err("must deadlock");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| err.downcast_ref::<&str>().unwrap_or(&"").to_string());
    assert!(msg.contains("deadlock"), "panic message: {msg}");
    assert!(
        msg.contains("black-hole"),
        "must name the busy actor: {msg}"
    );
    assert!(msg.contains("0 of 1 images"), "must report progress: {msg}");
}

#[test]
fn wrong_image_shape_is_rejected_at_instantiation() {
    let design = NetworkDesign::new(
        &tc1(),
        PortConfig::paper_test_case_1(),
        DesignConfig::default(),
    )
    .unwrap();
    let wrong = dfcnn_tensor::Tensor3::<f32>::zeros(dfcnn_tensor::Shape3::new(8, 8, 1));
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        design.instantiate(&[wrong])
    }));
    assert!(err.is_err(), "mismatched image shape must panic");
}

#[test]
fn empty_batch_is_rejected() {
    let design = NetworkDesign::new(
        &tc1(),
        PortConfig::paper_test_case_1(),
        DesignConfig::default(),
    )
    .unwrap();
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| design.instantiate(&[])));
    assert!(err.is_err(), "empty batch must panic");
}

#[test]
fn every_invalid_port_config_yields_a_named_error() {
    let net = tc1();
    let cases: Vec<(PortConfig, &str)> = vec![
        (PortConfig::single_port(2), "entries"),
        (
            PortConfig {
                layers: vec![
                    LayerPorts {
                        in_ports: 1,
                        out_ports: 5,
                    }, // 5 ∤ 6
                    LayerPorts::SINGLE,
                    LayerPorts::SINGLE,
                    LayerPorts::SINGLE,
                ],
            },
            "does not divide",
        ),
        (
            PortConfig {
                layers: vec![
                    LayerPorts::SINGLE,
                    LayerPorts::SINGLE,
                    LayerPorts::SINGLE,
                    LayerPorts {
                        in_ports: 2,
                        out_ports: 1,
                    },
                ],
            },
            "single-input-port",
        ),
    ];
    for (cfg, needle) in cases {
        let err = NetworkDesign::new(&net, cfg.clone(), DesignConfig::default()).unwrap_err();
        assert!(
            err.contains(needle),
            "error {err:?} should mention {needle:?}"
        );
        // the static checker must agree with the builder: the same config
        // yields a port-legality diagnostic for the same reason, carrying
        // the offending core's name
        let report = dfcnn_core::check::check_network(&net, &cfg);
        assert!(
            report.has(
                dfcnn_core::check::Severity::Error,
                dfcnn_core::check::RuleId::PortLegality
            ),
            "checker missed a config the builder rejects: {}",
            report.render()
        );
        assert!(
            report
                .errors()
                .iter()
                .any(|d| d.message.contains(needle) && !d.core.is_empty()),
            "no diagnostic mentions {needle:?}: {}",
            report.render()
        );
    }
    // and the converse: the config the builder accepts checks clean
    let good = dfcnn_core::check::check_network(&net, &PortConfig::paper_test_case_1());
    assert!(good.is_clean(), "{}", good.render());
}

#[test]
fn tiny_fifos_slow_but_never_corrupt() {
    // depth-1 FIFOs maximise backpressure coupling; values must survive
    let cfg = DesignConfig {
        inter_fifo_depth: 1,
        ..DesignConfig::default()
    };
    let design = NetworkDesign::new(&tc1(), PortConfig::paper_test_case_1(), cfg).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let img = dfcnn_tensor::init::random_volume(&mut rng, design.network().input_shape(), 0.0, 1.0);
    let (res, _) = design.instantiate(std::slice::from_ref(&img)).run();
    assert_eq!(
        res.outputs[0].as_slice(),
        design.hw_forward(&img).as_slice()
    );

    // and it is indeed slower than the default depth
    let (fast, _) = {
        let d2 = NetworkDesign::new(
            &tc1(),
            PortConfig::paper_test_case_1(),
            DesignConfig::default(),
        )
        .unwrap();
        d2.instantiate(std::slice::from_ref(&img)).run()
    };
    assert!(res.cycles >= fast.cycles, "depth-1 must not be faster");
}

#[test]
fn starved_dma_still_produces_correct_values() {
    let cfg = DesignConfig {
        dma: dfcnn_fpga::dma::DmaConfig {
            bandwidth_bytes_per_s: 40e6, // 10% of the paper's bandwidth
            ..dfcnn_fpga::dma::DmaConfig::paper()
        },
        ..DesignConfig::default()
    };
    let design = NetworkDesign::new(&tc1(), PortConfig::paper_test_case_1(), cfg).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(10);
    let img = dfcnn_tensor::init::random_volume(&mut rng, design.network().input_shape(), 0.0, 1.0);
    let (res, _) = design.instantiate(std::slice::from_ref(&img)).run();
    assert_eq!(
        res.outputs[0].as_slice(),
        design.hw_forward(&img).as_slice()
    );
    // ~10x slower input stream must be visible in the cycle count
    assert!(res.cycles > 2_000, "cycles = {}", res.cycles);
}

#[test]
fn trace_records_are_consistent_with_results() {
    let design = NetworkDesign::new(
        &tc1(),
        PortConfig::paper_test_case_1(),
        DesignConfig::default(),
    )
    .unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let images: Vec<_> = (0..3)
        .map(|_| {
            dfcnn_tensor::init::random_volume(&mut rng, design.network().input_shape(), 0.0, 1.0)
        })
        .collect();
    let (res, trace) = design.instantiate(&images).with_trace().run();
    // conv1 initiates once per output position per image (144 x 3)
    assert_eq!(trace.initiation_cycles("conv1").len(), 144 * 3);
    // conv2: 4 positions x 3 images
    assert_eq!(trace.initiation_cycles("conv2").len(), 4 * 3);
    // actor stats agree with the trace
    let conv1_stats = res.actor_stats.iter().find(|a| a.name == "conv1").unwrap();
    assert_eq!(conv1_stats.initiations, 144 * 3);
    // image completions in the trace match the result
    let dones = trace
        .events()
        .iter()
        .filter(|e| e.kind == dfcnn_core::trace::EventKind::ImageDone)
        .count();
    assert_eq!(dones, 3);
}
