//! Automated design-space exploration — the paper's declared future work
//! ("Future work will address the automation of the DSE", §IV-C).
//!
//! Enumerates every divisor port configuration of the USPS network,
//! estimates resources with the calibrated cost model, discards designs
//! that do not fit the Virtex-7, and reports the Pareto front between
//! throughput (bottleneck stage interval) and DSP usage — then checks the
//! paper's hand-picked Fig. 4 design against the frontier.
//!
//! ```text
//! cargo run --release --example design_explorer
//! ```

use dfcnn::core::dse;
use dfcnn::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let spec = NetworkSpec::test_case_1();
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let network = spec.build(&mut rng);

    let device = Device::xc7vx485t();
    let cost = CostModel::default();
    let config = DesignConfig::default();

    println!(
        "exploring port configurations of {} on {} ...\n",
        spec.name, device.name
    );
    let report = dse::explore(
        &GraphSpec::from(&network),
        network.layers(),
        &config,
        &cost,
        &device,
        16,
        &[config.numeric],
        true,
    )
    .expect("a chain spec matches its own layers");
    println!(
        "{} configurations evaluated, {} fit the device",
        report.points.len() + report.discards.total(),
        report.points.len()
    );

    println!("\nPareto front (cycles/image vs DSP slices):");
    println!(
        "{:>10} {:>14} {:>8} {:>8}  ports (in:out per layer)",
        "interval", "bottleneck", "DSP", "DSP %"
    );
    for p in report.pareto_front() {
        let ports: Vec<String> = p
            .ports
            .layers
            .iter()
            .map(|lp| format!("{}:{}", lp.in_ports, lp.out_ports))
            .collect();
        println!(
            "{:>10} {:>14} {:>8} {:>7.1}%  [{}]",
            p.bottleneck.1,
            p.bottleneck.0,
            p.resources.dsp,
            100.0 * p.resources.dsp as f64 / device.capacity.dsp as f64,
            ports.join(", ")
        );
    }

    // where does the paper's hand-tuned Fig. 4 design land?
    let paper = NetworkDesign::new(&network, PortConfig::paper_test_case_1(), config).unwrap();
    let paper_res = paper.resources(&cost);
    let (pb, pcyc) = paper.estimated_bottleneck();
    println!(
        "\npaper's Fig. 4 design: interval {} ({}), DSP {} — ",
        pcyc, pb, paper_res.dsp
    );
    let best = report.best_point().expect("some design must fit");
    if pcyc <= best.bottleneck.1 {
        println!("the hand-tuned design already sits on the throughput optimum.");
    } else {
        println!(
            "the explorer found a faster design: {} cycles/image with DSP {} — \
             exactly the kind of result the paper's future-work DSE was meant to deliver.",
            best.bottleneck.1, best.resources.dsp
        );
    }
}
