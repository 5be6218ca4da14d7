//! Pipeline occupancy analysis — the software stand-in for an ILA capture.
//!
//! Runs Test Case 1 with event tracing enabled and renders, per stage, the
//! initiation timeline (fill, steady state, drain) plus a utilisation
//! summary: the fraction of cycles each core initiates relative to its
//! initiation interval. This is the §IV-C claim made visible: "At steady
//! state, all the different layers of the network will be concurrently
//! active and computing."
//!
//! It then reads the full flight recording: the [`RunReport`] (written to
//! `results/run_report.json`) with each stage's stall taxonomy beside its
//! measured interval and line-buffer high-water mark, checked against the
//! Eq. 4 model by [`check_drift`] — asserted, so CI catches a simulator
//! that drifts from the paper's analysis. The run is sampled live
//! (`observe::live`), producing the streaming artifacts
//! `results/pipeline_trace.metrics.jsonl` and
//! `results/pipeline_trace.prometheus.txt`. With `--chrome-trace [path]`
//! the stall tracks plus live counter tracks are also exported as
//! Perfetto/Chrome-trace JSON (default
//! `results/pipeline_trace.chrome.json`; load at `ui.perfetto.dev`).
//!
//! ```text
//! cargo run -p dfcnn-bench --release --bin pipeline_trace -- --chrome-trace
//! ```

use dfcnn_bench::{quick_test_case_1, write_json};
use dfcnn_core::check_drift;
use dfcnn_core::observe::live::{snapshots_to_jsonl, Sampler};
use dfcnn_core::observe::RunReport;
use dfcnn_core::trace::EventKind;
use serde::Serialize;
use std::cell::RefCell;
use std::rc::Rc;

#[derive(Serialize)]
struct StageUtil {
    stage: String,
    initiations: u64,
    first_cycle: u64,
    last_cycle: u64,
    active_span: u64,
    utilisation: f64,
}

fn main() {
    let tc = quick_test_case_1();
    let batch: Vec<_> = (0..8)
        .map(|i| tc.images[i % tc.images.len()].clone())
        .collect();
    println!(
        "== Pipeline trace: {} streaming a batch of {} ==\n",
        tc.name,
        batch.len()
    );
    let sim = tc.design.instantiate(&batch).with_trace();
    let live = sim.live_metrics();
    let sampler = Rc::new(RefCell::new(Sampler::new(live.clone())));
    let sim = sim.with_sampler(sampler.clone(), 256);
    let (result, trace) = sim.run();
    let snapshots = Rc::try_unwrap(sampler)
        .unwrap()
        .into_inner()
        .into_snapshots();
    println!(
        "total: {} cycles for {} images\n",
        result.cycles,
        batch.len()
    );

    // timeline: bucket initiations per stage into fixed windows
    const BUCKETS: usize = 60;
    let bucket = (result.cycles as usize / BUCKETS).max(1);
    println!("initiation timeline (each column = {} cycles):", bucket);
    let mut utils = Vec::new();
    let stage_names: Vec<String> = result.actor_stats.iter().map(|a| a.name.clone()).collect();
    for name in &stage_names {
        let cycles = trace.initiation_cycles(name);
        let line: String = (0..BUCKETS)
            .map(|b| {
                let lo = (b * bucket) as u64;
                let hi = lo + bucket as u64;
                let n = cycles.iter().filter(|&&c| c >= lo && c < hi).count();
                match n {
                    0 => ' ',
                    1..=2 => '.',
                    3..=8 => '+',
                    _ => '#',
                }
            })
            .collect();
        println!("  {name:<12} |{line}|");
        if let (Some(&first), Some(&last)) = (cycles.first(), cycles.last()) {
            let span = last - first + 1;
            utils.push(StageUtil {
                stage: name.clone(),
                initiations: cycles.len() as u64,
                first_cycle: first,
                last_cycle: last,
                active_span: span,
                utilisation: cycles.len() as f64 / span as f64,
            });
        }
    }

    println!("\nper-stage summary:");
    println!(
        "{:>12} {:>12} {:>10} {:>10} {:>12}",
        "stage", "initiations", "first", "last", "inits/cycle"
    );
    for u in &utils {
        println!(
            "{:>12} {:>12} {:>10} {:>10} {:>12.3}",
            u.stage, u.initiations, u.first_cycle, u.last_cycle, u.utilisation
        );
    }

    // the §IV-C concurrency claim: at steady state all stages overlap.
    // Take the middle third of the run and check every layer core
    // initiated inside it.
    let (lo, hi) = (result.cycles / 3, 2 * result.cycles / 3);
    let mut concurrent = 0;
    for name in &stage_names {
        if name.starts_with("conv") || name.starts_with("pool") || name.starts_with("fc") {
            let any = trace
                .initiation_cycles(name)
                .iter()
                .any(|&c| c >= lo && c < hi);
            assert!(any, "{name} idle during steady state");
            concurrent += 1;
        }
    }
    println!(
        "\nsteady-state check: all {concurrent} layer cores initiated within \
         cycles [{lo}, {hi}) — the high-level pipeline is genuinely concurrent"
    );

    // event counts sanity
    let emits = trace
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::Emit)
        .count();
    let dones = trace
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::ImageDone)
        .count();
    println!(
        "trace: {} events, {} emissions, {} image completions",
        trace.events().len(),
        emits,
        dones
    );
    assert_eq!(dones, batch.len());
    write_json("pipeline_trace", &utils);

    // the flight recording proper: where every actor's cycles went, and
    // whether the measurement agrees with the analytical model
    let report = RunReport::from_sim(&tc.design, &result, &trace);
    println!("\n{}", report.render());
    write_json("run_report", &report);
    let round_trip: RunReport =
        serde_json::from_str(&serde_json::to_string(&report).unwrap()).unwrap();
    assert_eq!(round_trip.stages.len(), report.stages.len());

    let diags = check_drift(&tc.design, &report);
    for d in &diags {
        eprintln!("{d}");
    }
    assert!(diags.is_empty(), "drift check failed");
    println!("drift check: measured IIs and occupancy HWMs within model bounds");

    // the live-telemetry artifacts alongside the post-hoc reports: the
    // JSONL time-series a dashboard would tail, and the Prometheus text
    // exposition a scraper would poll at run end
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).expect("results dir");
    std::fs::write(
        dir.join("pipeline_trace.metrics.jsonl"),
        snapshots_to_jsonl(&snapshots),
    )
    .expect("metrics jsonl write");
    println!(
        "[written results/pipeline_trace.metrics.jsonl — {} snapshots]",
        snapshots.len()
    );
    std::fs::write(
        dir.join("pipeline_trace.prometheus.txt"),
        live.render_prometheus(),
    )
    .expect("prometheus write");
    println!("[written results/pipeline_trace.prometheus.txt]");

    // optional Perfetto export of the stall tracks
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--chrome-trace") {
        let default = "results/pipeline_trace.chrome.json".to_string();
        let path = args
            .get(i + 1)
            .filter(|p| !p.starts_with('-'))
            .unwrap_or(&default);
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir).expect("chrome-trace dir");
        }
        let json = trace.to_chrome_json_with_metrics(tc.design.config().clock_hz, &snapshots);
        std::fs::write(path, &json).expect("chrome-trace write");
        println!("[written {path} — stall tracks + live counter tracks, load at ui.perfetto.dev]");
    }
}
