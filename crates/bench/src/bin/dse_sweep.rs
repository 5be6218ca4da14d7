//! Graph-aware DSE sweep baseline: the fork/join-aware explorer on the
//! miniature ResNet-8 preset, with committed numbers for three claims:
//!
//! 1. **Coverage is auditable.** The report tallies every discarded
//!    candidate (build-failed / checker-rejected / over-budget) next to
//!    the evaluated points, so "the sweep covered N candidates" is a
//!    checkable statement, not an impression.
//! 2. **The parallel sweep is a pure speedup.** `explore` with
//!    `parallel` on (rayon-chunked) and off must return byte-identical
//!    reports; both are timed and the ratio is committed.
//! 3. **The coupled join II is honest.** The best point is rebuilt and
//!    simulated with the flight recorder; every residual add's measured
//!    steady-state interval is committed next to its Eq. 4 prediction and
//!    the [`DriftReport`] bound is asserted.
//!
//! Writes the committed `results/dse_sweep.json` provenance record.
//!
//! ```text
//! cargo run -p dfcnn-bench --release --bin dse_sweep
//! ```

use dfcnn_bench::write_json;
use dfcnn_core::dse::{explore, DseReport};
use dfcnn_core::graph::{build_graph_design, DesignConfig};
use dfcnn_core::observe::DriftReport;
use dfcnn_fpga::resources::CostModel;
use dfcnn_fpga::Device;
use dfcnn_nn::topology::GraphSpec;
use dfcnn_tensor::Shape3;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

const MAX_PORTS: usize = 2;
const BATCH: usize = 6;

#[derive(Serialize)]
struct JoinRow {
    name: String,
    predicted_stage_interval: u64,
    measured_interval: f64,
    within: bool,
}

#[derive(Serialize)]
struct Report {
    spec: String,
    max_ports: usize,
    candidates: usize,
    feasible: usize,
    discarded_build_failed: usize,
    discarded_checker_rejected: usize,
    discarded_over_budget: usize,
    best_bottleneck: String,
    best_interval_cycles: u64,
    serial_wall_s: f64,
    parallel_wall_s: f64,
    parallel_speedup: f64,
    batch: usize,
    joins: Vec<JoinRow>,
}

fn main() {
    println!("== graph DSE sweep: coverage, parallel speedup, join II ==\n");
    let spec = GraphSpec::resnet8(Shape3::new(8, 8, 3), [2, 4, 4], 4);
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let layers = spec.build_layers(&mut rng);
    // f32 conv cores blow the DSP budget on the mini net; the
    // paper-calibrated fixed-point model keeps it on one device
    let (config, cost, device) = (
        DesignConfig::default(),
        CostModel::fixed_point(),
        Device::xc7vx485t(),
    );

    let sweep = |parallel: bool| -> DseReport {
        let numerics = [config.numeric];
        explore(
            &spec, &layers, &config, &cost, &device, MAX_PORTS, &numerics, parallel,
        )
        .expect("layers are the spec's own traversal")
    };
    // warm-up, then time serial and parallel sweeps over the same space
    let _ = sweep(true);
    let t0 = std::time::Instant::now();
    let serial = sweep(false);
    let serial_wall_s = t0.elapsed().as_secs_f64();
    let t1 = std::time::Instant::now();
    let report = sweep(true);
    let parallel_wall_s = t1.elapsed().as_secs_f64();
    assert_eq!(
        serial.render(),
        report.render(),
        "parallel and serial sweeps must agree"
    );
    assert_eq!(serial.points.len(), report.points.len());
    println!("sweep: {}", report.render());
    println!(
        "wall-clock: serial {serial_wall_s:.4} s, parallel {parallel_wall_s:.4} s ({:.2}x)",
        serial_wall_s / parallel_wall_s
    );

    // rebuild the winner and measure the joins it promised
    let best = report.best_point().expect("feasible resnet8 point");
    let design = build_graph_design(&spec, &layers, &best.ports, config).unwrap();
    let images: Vec<_> = (0..BATCH)
        .map(|_| dfcnn_tensor::init::random_volume(&mut rng, spec.input, 0.0, 1.0))
        .collect();
    let (res, trace) = design.instantiate(&images).with_trace().run();
    let drift = DriftReport::new(&design, &res, &trace);
    if let Err(e) = drift.check() {
        panic!("best-point drift check failed: {e}");
    }
    let joins: Vec<JoinRow> = drift
        .cores
        .iter()
        .filter(|c| c.name.starts_with("add"))
        .map(|c| JoinRow {
            name: c.name.clone(),
            predicted_stage_interval: c.predicted_stage_interval,
            measured_interval: c.measured_interval,
            within: c.within,
        })
        .collect();
    assert_eq!(joins.len(), 3, "three residual joins on resnet8");
    println!("\n  join   predicted  measured");
    for j in &joins {
        println!(
            "  {:<6} {:>9} {:>9.1}",
            j.name, j.predicted_stage_interval, j.measured_interval
        );
        assert!(j.within, "{}: join II drifted past the bound", j.name);
    }

    let d = &report.discards;
    let out = Report {
        spec: spec.name.clone(),
        max_ports: MAX_PORTS,
        candidates: report.points.len() + d.total(),
        feasible: report.points.len(),
        discarded_build_failed: d.build_failed,
        discarded_checker_rejected: d.checker_rejected,
        discarded_over_budget: d.over_budget,
        best_bottleneck: best.bottleneck.0.clone(),
        best_interval_cycles: best.bottleneck.1,
        serial_wall_s,
        parallel_wall_s,
        parallel_speedup: serial_wall_s / parallel_wall_s,
        batch: BATCH,
        joins,
    };
    write_json("dse_sweep", &out);
}
