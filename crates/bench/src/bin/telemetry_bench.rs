//! Live-telemetry overhead and adaptive-replication benchmark.
//!
//! The observability layer is only admissible if watching a run is close
//! to free and if the measurements it streams are good enough to *drive*
//! decisions. This bin pins both claims:
//!
//! * **overhead** — the marginal wall-clock cost of attaching the live
//!   metric cells and a periodic sampler to an already-traced simulation
//!   (the cells mirror every recorder classification through relaxed
//!   atomics, so this measures exactly that mirroring). Release builds
//!   assert the median overhead stays ≤ 5% (plus a small absolute epsilon
//!   for timer noise on short runs).
//! * **adaptive replication** — `ThreadedEngine::run_adaptive` warms up
//!   sequentially, replans from its own `MetricsSnapshot` deltas, and must
//!   beat or match both the sequential baseline and the static balanced
//!   plan ([`dfcnn_bench::static_plan`], planned once from a two-image
//!   profile) on Test Case 2 when real parallelism exists; on a single-core
//!   host it must fall back to the sequential path (uniform plan,
//!   bit-identical outputs) rather than lose to it.
//!
//! Writes `results/telemetry.json`, the streaming artifacts
//! (`results/telemetry_snapshots.jsonl`, `results/telemetry_prometheus.txt`)
//! and the committed CI record `BENCH_telemetry.json`.
//!
//! ```text
//! cargo run -p dfcnn-bench --release --bin telemetry_bench
//! ```

use dfcnn_bench::{quick_test_case_1, quick_test_case_2, static_plan, write_json, TestCase};
use dfcnn_core::exec::{ReplicationPlan, ThreadedEngine};
use dfcnn_core::observe::live::{snapshots_to_jsonl, MetricsSnapshot, Sampler};
use dfcnn_tensor::Tensor3;
use serde::Serialize;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// CI contract (release builds): live cells + sampler may cost at most 5%
/// over the traced baseline.
const MAX_OVERHEAD: f64 = 0.05;
/// Absolute slack for timer jitter: runs this short can flip a few
/// milliseconds either way regardless of the code under test.
const EPSILON_S: f64 = 0.010;
/// Timing repeats; the median is reported.
const REPEATS: usize = 5;

#[derive(Serialize)]
struct OverheadRow {
    case: String,
    batch: usize,
    cycles: u64,
    snapshots: usize,
    traced_s: f64,
    telemetry_s: f64,
    overhead: f64,
}

#[derive(Serialize)]
struct AdaptiveRow {
    case: String,
    batch: usize,
    host_threads: usize,
    adaptive_plan: Vec<usize>,
    sequential_s: f64,
    balanced_s: f64,
    adaptive_s: f64,
    adaptive_vs_sequential: f64,
    adaptive_vs_balanced: f64,
}

#[derive(Serialize)]
struct Record {
    host_threads: usize,
    release: bool,
    overhead: Vec<OverheadRow>,
    adaptive: Vec<AdaptiveRow>,
}

fn batch(tc: &TestCase, n: usize) -> Vec<Tensor3<f32>> {
    (0..n)
        .map(|i| tc.images[i % tc.images.len()].clone())
        .collect()
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

/// Median wall time of a traced run vs a traced + sampled run of the same
/// batch; also returns the last sampled run's snapshot stream so the
/// exporter artifacts come from a real measurement.
fn measure_overhead(tc: &TestCase, n: usize) -> (OverheadRow, Vec<MetricsSnapshot>) {
    let images = batch(tc, n);
    let mut traced = Vec::new();
    let mut telemetry = Vec::new();
    let mut cycles = 0;
    let mut snaps = Vec::new();
    for _ in 0..REPEATS {
        let sim = tc.design.instantiate(&images).with_trace();
        let t0 = Instant::now();
        let (res, _) = sim.run();
        traced.push(t0.elapsed().as_secs_f64());
        cycles = res.cycles;

        let sim = tc.design.instantiate(&images).with_trace();
        let live = sim.live_metrics();
        let sampler = Rc::new(RefCell::new(Sampler::new(live)));
        let sim = sim.with_sampler(sampler.clone(), 4096);
        let t0 = Instant::now();
        let _ = sim.run();
        telemetry.push(t0.elapsed().as_secs_f64());
        snaps = Rc::try_unwrap(sampler)
            .unwrap()
            .into_inner()
            .into_snapshots();
    }
    let traced_s = median(traced);
    let telemetry_s = median(telemetry);
    (
        OverheadRow {
            case: tc.name.to_string(),
            batch: n,
            cycles,
            snapshots: snaps.len(),
            traced_s,
            telemetry_s,
            overhead: telemetry_s / traced_s - 1.0,
        },
        snaps,
    )
}

fn measure_adaptive(tc: &TestCase, host_threads: usize) -> AdaptiveRow {
    let engine = ThreadedEngine::new(&tc.design);
    let depth = engine.stage_count();
    let n = (4 * depth).max(20);
    let images = batch(tc, n);

    // warm caches/threads outside every timed region
    let _ = engine.run(&images[..depth.min(images.len())]);

    let t0 = Instant::now();
    let seq = engine.run_sequential(&images);
    let sequential_s = t0.elapsed().as_secs_f64();

    let plan = static_plan(&engine, &images, host_threads);
    let t0 = Instant::now();
    let (bal, _) = engine.run_with_plan(&images, &plan);
    let balanced_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let (ada, _profile, adaptive_plan) =
        engine.run_adaptive_with_parallelism(&images, host_threads);
    let adaptive_s = t0.elapsed().as_secs_f64();

    assert_eq!(
        ada.outputs, seq.outputs,
        "{}: adaptive outputs must be bit-identical to sequential",
        tc.name
    );
    assert_eq!(
        bal.outputs, seq.outputs,
        "{}: balanced outputs must be bit-identical to sequential",
        tc.name
    );
    if host_threads <= 1 {
        // the "never loses on one thread" clause, enforced structurally:
        // the adaptive runner must have taken the sequential path
        assert_eq!(
            adaptive_plan,
            ReplicationPlan::uniform(depth),
            "{}: adaptive must fall back to the sequential path on 1 thread",
            tc.name
        );
    }

    AdaptiveRow {
        case: tc.name.to_string(),
        batch: n,
        host_threads,
        adaptive_plan: adaptive_plan.factors.clone(),
        sequential_s,
        balanced_s,
        adaptive_s,
        adaptive_vs_sequential: sequential_s / adaptive_s,
        adaptive_vs_balanced: balanced_s / adaptive_s,
    }
}

fn main() {
    let host_threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let release = !cfg!(debug_assertions);
    println!("== live telemetry: overhead + adaptive replication ==");
    println!(
        "   host threads: {host_threads} | {} build\n",
        if release { "release" } else { "debug" }
    );

    let tc1 = quick_test_case_1();
    let tc2 = quick_test_case_2();

    let mut overhead = Vec::new();
    let mut stream = Vec::new();
    for (tc, n) in [(&tc1, 12), (&tc2, 6)] {
        let (row, snaps) = measure_overhead(tc, n);
        println!(
            "{}: batch {} ({} cycles, {} snapshots)",
            row.case, row.batch, row.cycles, row.snapshots
        );
        println!(
            "  traced {:>8.4} s | +telemetry {:>8.4} s | overhead {:+.2}%",
            row.traced_s,
            row.telemetry_s,
            row.overhead * 100.0
        );
        overhead.push(row);
        stream = snaps;
    }

    // streaming artifacts from the last sampled run (TC-2), written the
    // way a live dashboard would consume them
    let jsonl = snapshots_to_jsonl(&stream);
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).ok();
    std::fs::write(dir.join("telemetry_snapshots.jsonl"), &jsonl).ok();
    println!("[written results/telemetry_snapshots.jsonl]");
    {
        let sim = tc2.design.instantiate(&batch(&tc2, 6));
        let live = sim.live_metrics();
        let _ = sim.with_live(live.clone()).run();
        std::fs::write(
            dir.join("telemetry_prometheus.txt"),
            live.render_prometheus(),
        )
        .ok();
        println!("[written results/telemetry_prometheus.txt]");
    }

    println!();
    let mut adaptive = Vec::new();
    for tc in [&tc1, &tc2] {
        let row = measure_adaptive(tc, host_threads);
        println!(
            "{}: batch {} | adaptive plan {:?}",
            row.case, row.batch, row.adaptive_plan
        );
        println!(
            "  sequential {:>8.4} s | balanced {:>8.4} s | adaptive {:>8.4} s \
             ({:.2}x vs seq, {:.2}x vs balanced)",
            row.sequential_s,
            row.balanced_s,
            row.adaptive_s,
            row.adaptive_vs_sequential,
            row.adaptive_vs_balanced
        );
        adaptive.push(row);
    }

    let record = Record {
        host_threads,
        release,
        overhead,
        adaptive,
    };
    write_json("telemetry", &record);
    match std::fs::write(
        "BENCH_telemetry.json",
        serde_json::to_string_pretty(&record).unwrap(),
    ) {
        Ok(()) => println!("[written BENCH_telemetry.json]"),
        Err(e) => eprintln!("[warn] could not write BENCH_telemetry.json: {e}"),
    }

    // --- CI assertions ------------------------------------------------
    if release {
        for row in &record.overhead {
            let slack = row.traced_s * MAX_OVERHEAD + EPSILON_S;
            assert!(
                row.telemetry_s <= row.traced_s + slack,
                "{}: telemetry overhead {:+.2}% exceeds {:.0}% (+{:.0} ms slack)",
                row.case,
                row.overhead * 100.0,
                MAX_OVERHEAD * 100.0,
                EPSILON_S * 1e3
            );
        }
        println!("\ntelemetry overhead within {:.0}%", MAX_OVERHEAD * 100.0);
    } else {
        println!("\n[skip] debug build: overhead assertion needs release codegen");
    }
    if host_threads >= 2 {
        let tc2_row = record.adaptive.last().unwrap();
        let best_static = tc2_row.sequential_s.min(tc2_row.balanced_s);
        assert!(
            tc2_row.adaptive_s <= best_static * 1.15 + EPSILON_S,
            "adaptive replication lost to the best static schedule on {}: \
             {:.4} s vs {:.4} s",
            tc2_row.case,
            tc2_row.adaptive_s,
            best_static
        );
        println!("adaptive matches/beats the best static schedule on TC-2");
    } else {
        println!(
            "[skip] single-core host: adaptive correctly fell back to the sequential path \
             (asserted above); the beats-balanced check needs real parallelism"
        );
    }
}
