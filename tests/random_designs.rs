//! Whole-design randomised testing: random topologies, random port
//! configurations, random inputs — the cycle simulator, the threaded
//! engine and the host-side hardware kernel must agree on every one, and
//! the software reference must stay within float tolerance.
//!
//! This is the strongest correctness statement in the repository: the
//! dataflow machinery (window engines, adapters, II throttling, FIFO
//! backpressure, emission scheduling) is *semantically invisible* — it
//! changes timing, never values.

mod common;

use common::{random_dag_design, random_ports, random_spec};
use dfcnn::core::graph::{DesignConfig, NetworkDesign, PortConfig};
use dfcnn::core::verify;
use dfcnn::tensor::NumericSpec;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn any_design_simulates_exactly(
        spec in random_spec(),
        seed in 0u64..10_000,
        fabric_normalization in proptest::bool::ANY,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let network = spec.build(&mut rng);
        let ports = random_ports(&spec, seed ^ 0xABCD);
        // half the runs also append the on-fabric LogSoftmax core
        let config = DesignConfig { fabric_normalization, ..DesignConfig::default() };
        let design = NetworkDesign::new(&network, ports, config)
            .expect("random divisor config must validate");

        let images: Vec<_> = (0..2)
            .map(|_| dfcnn::tensor::init::random_volume(&mut rng, spec.input, 0.0, 1.0))
            .collect();

        // 1. simulator is bit-exact vs the shared hardware kernel
        let (sim, _) = design.instantiate(&images).run();
        for (img, out) in images.iter().zip(sim.outputs.iter()) {
            let hw = design.hw_forward(img);
            prop_assert_eq!(out.as_slice(), hw.as_slice(), "sim != hw kernel");
        }

        // 2. threaded engine is bit-exact vs the simulator
        let exec = dfcnn::core::exec::ThreadedEngine::new(&design).run(&images);
        for (s, e) in sim.outputs.iter().zip(exec.outputs.iter()) {
            prop_assert_eq!(s.as_slice(), e.as_slice(), "sim != threaded engine");
        }

        // 3. the reference stays within float tolerance
        let report = verify::compare_outputs(&design, &images, &sim.outputs);
        prop_assert!(report.max_abs_diff < 1e-3, "reference diff {}", report.max_abs_diff);

        // 4. completions are ordered and measurement is sane
        prop_assert!(sim.completions.windows(2).all(|w| w[0] < w[1]));
        let m = sim.measurement(design.config().clock_hz);
        prop_assert!(m.mean_time_per_image_us() > 0.0);
    }

    /// The same statement over fork/join DAGs: random residual blocks
    /// (nested forks, ScaleShift / conv ops on either reconvergent path)
    /// stream through tee and eltwise-add cores without changing a bit.
    #[test]
    fn any_dag_design_simulates_exactly(seed in 0u64..10_000) {
        let design = random_dag_design(seed, DesignConfig::default());
        let report = dfcnn::core::check::check_design(&design);
        prop_assert!(report.is_clean(), "seed {}: {}", seed, report.render());

        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xF0);
        let shape = design.network().input_shape();
        let images: Vec<_> = (0..2)
            .map(|_| dfcnn::tensor::init::random_volume(&mut rng, shape, 0.0, 1.0))
            .collect();

        // 1. simulator is bit-exact vs the shared hardware kernel
        let (sim, _) = design.instantiate(&images).run();
        for (img, out) in images.iter().zip(sim.outputs.iter()) {
            let hw = design.hw_forward(img);
            prop_assert_eq!(out.as_slice(), hw.as_slice(), "sim != hw kernel");
        }

        // 2. threaded engine is bit-exact vs the simulator
        let exec = dfcnn::core::exec::ThreadedEngine::new(&design).run(&images);
        for (s, e) in sim.outputs.iter().zip(exec.outputs.iter()) {
            prop_assert_eq!(s.as_slice(), e.as_slice(), "sim != threaded engine");
        }

        // 3. the composed-layer reference stays within float tolerance
        let report = verify::compare_outputs(&design, &images, &sim.outputs);
        prop_assert!(report.max_abs_diff < 1e-3, "reference diff {}", report.max_abs_diff);

        // 4. completions are ordered and measurement is sane
        prop_assert!(sim.completions.windows(2).all(|w| w[0] < w[1]));
        let m = sim.measurement(design.config().clock_hz);
        prop_assert!(m.mean_time_per_image_us() > 0.0);
    }

    /// The fixed-point mode of the same statement: pick any supported
    /// fixed spec, and all three engines must agree **exactly** — the
    /// quantised datapath is deterministic hardware like the f32 one —
    /// while tracking the f32 reference within a quantisation-scaled
    /// tolerance. Exact i64 accumulation is what makes this independent
    /// of each engine's summation order.
    #[test]
    fn any_design_simulates_exactly_in_fixed_point(
        spec in random_spec(),
        seed in 0u64..10_000,
        spec_pick in 0usize..100,
    ) {
        let fixed_specs: Vec<NumericSpec> = NumericSpec::supported()
            .into_iter()
            .filter(|s| s.is_fixed())
            .collect();
        let numeric = fixed_specs[spec_pick % fixed_specs.len()];
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let network = spec.build(&mut rng);
        let ports = random_ports(&spec, seed ^ 0xABCD);
        let config = DesignConfig { numeric, ..DesignConfig::default() };
        let design = NetworkDesign::new(&network, ports, config)
            .expect("random divisor config must validate");

        let images: Vec<_> = (0..2)
            .map(|_| dfcnn::tensor::init::random_volume(&mut rng, spec.input, 0.0, 1.0))
            .collect();

        // 1. simulator is bit-exact vs the shared hardware kernel
        let (sim, _) = design.instantiate(&images).run();
        for (img, out) in images.iter().zip(sim.outputs.iter()) {
            let hw = design.hw_forward(img);
            prop_assert_eq!(out.as_slice(), hw.as_slice(), "sim != hw kernel");
        }

        // 2. threaded engine is bit-exact vs the simulator
        let exec = dfcnn::core::exec::ThreadedEngine::new(&design).run(&images);
        for (s, e) in sim.outputs.iter().zip(exec.outputs.iter()) {
            prop_assert_eq!(s.as_slice(), e.as_slice(), "sim != threaded engine");
        }

        // 3. every emitted value is a representable point of the spec
        for out in &sim.outputs {
            for &v in out.as_slice() {
                let q = (v as f64 / numeric.epsilon()).round() * numeric.epsilon();
                prop_assert!((v as f64 - q).abs() < 1e-6, "{v} not on the {} grid", numeric.label());
            }
        }

        // 4. the f32 reference stays within quantisation-scaled tolerance
        let report = verify::compare_outputs(&design, &images, &sim.outputs);
        let tol = 64.0 * numeric.epsilon();
        prop_assert!(
            (report.max_abs_diff as f64) < tol,
            "{} diff {} > {}", numeric.label(), report.max_abs_diff, tol
        );
    }

    /// On a chain the stage-topology reference is the network's own traced
    /// forward at the point where the fabric hands off to the host, bit
    /// for bit: before the host LogSoftmax, or after the fabric one.
    #[test]
    fn chain_reference_is_the_traced_forward_at_the_hand_off(
        spec in random_spec(),
        seed in 0u64..10_000,
        fabric_normalization in proptest::bool::ANY,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let network = spec.build(&mut rng);
        let ports = random_ports(&spec, seed ^ 0xABCD);
        let config = DesignConfig { fabric_normalization, ..DesignConfig::default() };
        let design = NetworkDesign::new(&network, ports, config)
            .expect("random divisor config must validate");
        let image = dfcnn::tensor::init::random_volume(&mut rng, spec.input, 0.0, 1.0);
        let trace = network.forward_trace(&image);
        let hand_off = if design.host_normalization() {
            &trace[trace.len() - 2]
        } else {
            &trace[trace.len() - 1]
        };
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(
            bits(&verify::reference_scores(&design, &image)),
            bits(hand_off.as_slice())
        );
    }

    #[test]
    fn batching_never_slows_mean_time(spec in random_spec(), seed in 0u64..10_000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let network = spec.build(&mut rng);
        let paper_layers = spec.paper_depth();
        let design = NetworkDesign::new(
            &network,
            PortConfig::single_port(paper_layers),
            DesignConfig::default(),
        )
        .unwrap();
        let img = dfcnn::tensor::init::random_volume(&mut rng, spec.input, 0.0, 1.0);
        let mean = |n: usize| {
            let batch: Vec<_> = (0..n).map(|_| img.clone()).collect();
            let (r, _) = design.instantiate(&batch).run();
            r.measurement(design.config().clock_hz).mean_time_per_image()
        };
        let t1 = mean(1);
        let t4 = mean(4);
        // the high-level pipeline guarantee: batching never hurts
        prop_assert!(t4 <= t1 * 1.001, "t1={t1} t4={t4}");
    }
}
