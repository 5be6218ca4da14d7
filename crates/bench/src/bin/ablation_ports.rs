//! Ablation: **port scaling and design-space exploration** (§IV-A, §IV-C).
//!
//! Part 1 re-creates the decision behind the two paper designs: Test Case
//! 1's first conv/pool layers are fully parallelised because they fit,
//! Test Case 2 is left single-port. We simulate TC1 with the single-port
//! configuration and with the paper's parallel one, showing the
//! mean-time-per-image gain and the resource price.
//!
//! Part 2 runs the automated DSE (the paper's declared future work) over
//! both networks and prints the Pareto front (interval vs DSPs) plus the
//! fastest feasible design.
//!
//! ```text
//! cargo run -p dfcnn-bench --release --bin ablation_ports
//! ```

use dfcnn_bench::{
    mean_time_per_image_us, quick_test_case_1, quick_test_case_2, write_json, TestCase,
};
use dfcnn_core::dse::explore;
use dfcnn_core::graph::{DesignConfig, NetworkDesign, PortConfig};
use dfcnn_fpga::resources::CostModel;
use dfcnn_fpga::Device;
use dfcnn_nn::topology::GraphSpec;
use serde::Serialize;

#[derive(Serialize)]
struct PortPoint {
    config: String,
    mean_us_batch20: f64,
    dsp: u64,
    fits: bool,
}

fn tc1_with(ports: PortConfig, base: &TestCase) -> TestCase {
    TestCase {
        name: base.name,
        spec: base.spec.clone(),
        network: base.network.clone(),
        design: NetworkDesign::new(&base.network, ports, DesignConfig::default()).unwrap(),
        test_accuracy: base.test_accuracy,
        images: base.images.clone(),
    }
}

fn main() {
    let device = Device::xc7vx485t();
    let cost = CostModel::default();
    let tc1 = quick_test_case_1();

    println!("== Part 1: Test Case 1, single-port vs the paper's parallel design ==\n");
    let configs = [
        ("single-port (all layers)", PortConfig::single_port(4)),
        (
            "paper Fig. 4 (conv1+pool1 parallel)",
            PortConfig::paper_test_case_1(),
        ),
    ];
    let mut points = Vec::new();
    for (name, cfg) in configs {
        let case = tc1_with(cfg, &tc1);
        let us = mean_time_per_image_us(&case, 20);
        let res = case.design.resources(&cost);
        println!(
            "{name:<38} {us:>9.3} µs/image   DSP {:>5} ({:.1}%)   fits: {}",
            res.dsp,
            100.0 * res.dsp as f64 / device.capacity.dsp as f64,
            device.fits(&res)
        );
        points.push(PortPoint {
            config: name.to_string(),
            mean_us_batch20: us,
            dsp: res.dsp,
            fits: device.fits(&res),
        });
    }
    let speedup = points[0].mean_us_batch20 / points[1].mean_us_batch20;
    println!("\nparallelisation speedup: {speedup:.2}x (single-port conv1 II=6 vs parallel II=1)");
    assert!(speedup > 1.3, "parallel design must be materially faster");

    println!("\n== Part 2: automated DSE (the paper's future work) ==\n");
    for (label, tc, max_ports) in [
        ("Test Case 1", quick_test_case_1(), 8),
        ("Test Case 2", quick_test_case_2(), 6),
    ] {
        let config = DesignConfig::default();
        let report = explore(
            &GraphSpec::from(&tc.network),
            tc.network.layers(),
            &config,
            &cost,
            &device,
            max_ports,
            &[config.numeric],
            true,
        )
        .expect("a chain spec matches its own layers");
        println!(
            "{label}: {} configurations evaluated, {} feasible",
            report.points.len() + report.discards.total(),
            report.points.len()
        );
        println!("  Pareto front (interval cycles/image vs DSP):");
        for p in report.pareto_front() {
            let ports: Vec<String> = p
                .ports
                .layers
                .iter()
                .map(|lp| format!("{}:{}", lp.in_ports, lp.out_ports))
                .collect();
            println!(
                "    interval {:>6} ({:<10}) DSP {:>5}  ports [{}]",
                p.bottleneck.1,
                p.bottleneck.0,
                p.resources.dsp,
                ports.join(", ")
            );
        }
        if let Some(best) = report.best_point() {
            println!(
                "  fastest feasible: {} cycles/image, bottleneck {}\n",
                best.bottleneck.1, best.bottleneck.0
            );
        }
    }
    write_json("ablation_ports", &points);
}
