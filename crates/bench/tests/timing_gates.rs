//! Wall-clock gates: each test times one path and asserts a ratio measured
//! in the same run, never an absolute time. They run in release only,
//! one at a time (`SERIAL`), so no gate times another:
//!
//! ```text
//! cargo test --release -p dfcnn-bench --test timing_gates
//! ```
//!
//! The throughput figures themselves come from perfbench
//! (`sim.event_over_reference`, `host_img_per_s`, `trace.overhead_frac`,
//! `observe.live_overhead_frac`); these tests only keep the CI bounds.

use dfcnn_bench::{quick_test_case_1, quick_test_case_2, TestCase};
use dfcnn_core::check_drift;
use dfcnn_core::exec::{ReplicationPlan, ThreadedEngine};
use dfcnn_core::graph::{DesignConfig, NetworkDesign};
use dfcnn_core::observe::live::Sampler;
use dfcnn_core::observe::RunReport;
use dfcnn_core::sim::Simulator;
use dfcnn_fpga::dma::DmaConfig;
use dfcnn_tensor::Tensor3;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

static SERIAL: Mutex<()> = Mutex::new(());

/// Absolute slack for timer jitter on runs of a few tens of milliseconds.
const EPSILON_S: f64 = 0.010;

/// Take the file-wide lock; a gate that failed must not fail the rest.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
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

/// `f()` and its wall-clock seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Median seconds of `base()`'s and `with()`'s runs over 5 alternating
/// rounds; building each simulator is not timed.
fn median_runs_s(base: impl Fn() -> Simulator, with: impl Fn() -> Simulator) -> (f64, f64) {
    let time = |sim: Simulator| timed(|| sim.run()).1;
    let (a, b) = (0..5).map(|_| (time(base()), time(with()))).unzip();
    (median(a), median(b))
}

/// Wall-clock comparison of the two simulator schedulers on one batch.
#[derive(Debug)]
struct SchedComparison {
    event_wall_s: f64,
    reference_wall_s: f64,
}

/// Run one batch under the event-driven scheduler and the dense reference
/// sweep, and assert the two results are identical.
fn scheduler_comparison(design: &NetworkDesign, images: &[Tensor3<f32>]) -> SchedComparison {
    let (event, event_wall_s) = timed(|| design.instantiate(images).run().0);
    let (reference, reference_wall_s) =
        timed(|| design.instantiate(images).reference_mode().run().0);
    assert_eq!(event, reference, "schedulers diverged — conformance bug");
    SchedComparison {
        event_wall_s,
        reference_wall_s,
    }
}

/// The static replication schedule the host gates compare against: time
/// every stage sequentially on the first two images, plan once from those
/// means with [`ReplicationPlan::adaptive`], and fall back to one worker
/// per stage where the planner refuses to replicate.
fn static_plan(
    engine: &ThreadedEngine,
    images: &[Tensor3<f32>],
    threads: usize,
) -> ReplicationPlan {
    let (_, profile) = engine.run_sequential_profiled(&images[..images.len().min(2)]);
    let means: Vec<u64> = profile.stages.iter().map(|s| s.mean_interval_ns).collect();
    ReplicationPlan::adaptive(&means, threads)
        .unwrap_or_else(|| ReplicationPlan::uniform(engine.stage_count()))
}

/// A host engine for `tc`, a batch of 4× its depth (at least 20), and one
/// warm-up run outside every timed region.
fn host_setup(tc: &TestCase) -> (ThreadedEngine, Vec<Tensor3<f32>>) {
    let engine = ThreadedEngine::new(&tc.design);
    let depth = engine.stage_count();
    let images = batch(tc, (4 * depth).max(20));
    let _ = engine.run(&images[..depth]);
    (engine, images)
}

/// On the Fig. 6 batch (50 images) at 2.5 MB/s, stages idle on the DMA
/// stream most cycles, and the event scheduler must skip them: ≥ 5× the
/// dense sweep.
#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate: release only")]
fn event_scheduler_beats_dense_5x_on_throttled_fig6_rows() {
    let _serial = serial();
    let dma = DmaConfig {
        bandwidth_bytes_per_s: 2.5e6,
        ..DmaConfig::paper()
    };
    for tc in [quick_test_case_1(), quick_test_case_2()] {
        let cfg = DesignConfig {
            dma,
            ..DesignConfig::default()
        };
        let design = NetworkDesign::new(&tc.network, tc.design.ports().clone(), cfg).unwrap();
        let c = scheduler_comparison(&design, &batch(&tc, 50));
        let (name, speedup) = (tc.name, c.reference_wall_s / c.event_wall_s);
        eprintln!("{name}: {c:?} -> {speedup:.1}x");
        assert!(
            speedup >= 5.0,
            "{name}: event only {speedup:.1}x the dense sweep"
        );
    }
}

/// §IV-C on the host: the best pipelined or replicated run reaches
/// ≥ 1.5× sequential throughput on Test Case 2, given real parallelism.
#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate: release only")]
fn pipelined_test_case_2_is_1_5x_sequential() {
    let _serial = serial();
    let threads = host_threads();
    for (tc, gated) in [
        (quick_test_case_1(), false),
        (quick_test_case_2(), threads >= 2),
    ] {
        let (name, (engine, images)) = (tc.name, host_setup(&tc));
        let seq = engine.run_sequential(&images);
        let (pipe, _) =
            engine.run_with_plan(&images, &ReplicationPlan::uniform(engine.stage_count()));
        let plan = static_plan(&engine, &images, threads);
        let (repl, _) = engine.run_with_plan(&images, &plan);
        assert_eq!(pipe.outputs, seq.outputs, "{name}: pipelined != sequential");
        assert_eq!(
            repl.outputs, seq.outputs,
            "{name}: replicated != sequential"
        );
        let best = seq.total.as_secs_f64() / pipe.total.min(repl.total).as_secs_f64();
        eprintln!("{name}: best pipelined {best:.2}x sequential ({threads} threads)");
        assert!(
            !gated || best >= 1.5,
            "{name}: pipelined {best:.2}x < 1.5x sequential"
        );
    }
}

/// Live cells plus a sampler cost ≤ 5% (plus `EPSILON_S`) over an
/// already-traced run, median of 5.
#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate: release only")]
fn live_telemetry_costs_at_most_5_percent() {
    let _serial = serial();
    for (tc, n) in [(quick_test_case_1(), 12), (quick_test_case_2(), 6)] {
        let (name, images) = (tc.name, batch(&tc, n));
        let (traced_s, telemetry_s) = median_runs_s(
            || tc.design.instantiate(&images).with_trace(),
            || {
                let sim = tc.design.instantiate(&images).with_trace();
                let sampler = Rc::new(RefCell::new(Sampler::new(sim.live_metrics())));
                sim.with_sampler(sampler, 4096)
            },
        );
        let pct = 100.0 * (telemetry_s / traced_s - 1.0);
        eprintln!("{name}: live telemetry {pct:+.1}%");
        assert!(
            telemetry_s <= traced_s * 1.05 + EPSILON_S,
            "{name}: telemetry overhead {pct:+.1}% exceeds 5% (+10 ms slack)"
        );
    }
}

/// `run_adaptive` replans from its own snapshots. It must give the
/// sequential bits, fall back to the sequential path on one thread, and
/// otherwise stay within 1.15× of the best static schedule on Test Case 2.
#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate: release only")]
fn adaptive_replication_matches_the_best_static_schedule() {
    let _serial = serial();
    let threads = host_threads();
    for (tc, gated) in [
        (quick_test_case_1(), false),
        (quick_test_case_2(), threads >= 2),
    ] {
        let (name, (engine, images)) = (tc.name, host_setup(&tc));
        let (seq, sequential_s) = timed(|| engine.run_sequential(&images));
        let plan = static_plan(&engine, &images, threads);
        let ((bal, _), balanced_s) = timed(|| engine.run_with_plan(&images, &plan));
        let ((ada, _, ada_plan), adaptive_s) =
            timed(|| engine.run_adaptive_with_parallelism(&images, threads));
        assert_eq!(ada.outputs, seq.outputs, "{name}: adaptive != sequential");
        assert_eq!(bal.outputs, seq.outputs, "{name}: balanced != sequential");
        if threads <= 1 {
            assert_eq!(ada_plan, ReplicationPlan::uniform(engine.stage_count()));
        }
        let best_static = sequential_s.min(balanced_s);
        eprintln!("{name}: adaptive {adaptive_s:.4} s, best static {best_static:.4} s");
        assert!(
            !gated || adaptive_s <= best_static * 1.15 + EPSILON_S,
            "{name}: adaptive lost to the best static schedule"
        );
    }
}

/// The flight recorder stays cheap enough to leave on: trace-on costs
/// < 50% over trace-off, median of 5. Tracing must not change timing, and
/// the recorded intervals must pass the Eq. 4 drift check.
#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate: release only")]
fn trace_overhead_is_under_half() {
    let _serial = serial();
    for (tc, n) in [(quick_test_case_1(), 16), (quick_test_case_2(), 6)] {
        let (name, images) = (tc.name, batch(&tc, n));
        let (plain, _) = tc.design.instantiate(&images).run();
        let (traced, trace) = tc.design.instantiate(&images).with_trace().run();
        assert_eq!(
            plain.cycles, traced.cycles,
            "{name}: tracing changed timing"
        );
        let diags = check_drift(
            &tc.design,
            &RunReport::from_sim(&tc.design, &traced, &trace),
        );
        assert!(diags.is_empty(), "{name}: drift check failed: {diags:?}");
        let (off_s, on_s) = median_runs_s(
            || tc.design.instantiate(&images),
            || tc.design.instantiate(&images).with_trace(),
        );
        let overhead = on_s / off_s - 1.0;
        eprintln!("{name}: trace overhead {:+.1}%", 100.0 * overhead);
        assert!(
            overhead < 0.50,
            "{name}: trace overhead {overhead:.3} >= 0.50"
        );
    }
}
