//! Live-telemetry acceptance tests: the ISSUE 9 reconciliation contract.
//!
//! A metrics plane you cannot trust is worse than none, so this file pins
//! the two invariants that make `observe::live` trustworthy, on the
//! paper's test cases and on the random fork/join corpus:
//!
//! * **bit-identity** — running with telemetry attached changes nothing:
//!   the `SimResult`, the event trace, the stall tracks and the threaded
//!   engine's outputs are identical to a telemetry-off run;
//! * **exact reconciliation** — summing every `MetricsSnapshot` delta of
//!   a sampled run reproduces the post-hoc truth exactly: the flight
//!   recorder's per-actor stall counters and initiation counts in the
//!   simulator, the `StageProfile` totals (and hence the `RunReport`) in
//!   the threaded host engine. No rounding, no sampling loss.
//!
//! The exporters ride the same data, so they are checked here too: the
//! Prometheus exposition names every stage, and the JSONL time-series
//! parses back line by line.

mod common;

use dfcnn::core::exec::ReplicationPlan;
use dfcnn::core::graph::{DesignConfig, NetworkDesign, PortConfig};
use dfcnn::core::observe::live::{snapshots_to_jsonl, sum_deltas, MetricsSnapshot, Sampler};
use dfcnn::core::observe::{RunReport, SCHEMA_VERSION};
use dfcnn::core::SimResult;
use dfcnn::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;
use std::rc::Rc;

fn tc1() -> (NetworkDesign, Vec<Tensor3<f32>>) {
    let mut rng = ChaCha8Rng::seed_from_u64(61);
    let net = NetworkSpec::test_case_1().build(&mut rng);
    let design = NetworkDesign::new(
        &net,
        PortConfig::paper_test_case_1(),
        DesignConfig::default(),
    )
    .unwrap();
    let mut gen = SyntheticUsps::new(62);
    let images = gen.generate(6).into_iter().map(|(x, _)| x).collect();
    (design, images)
}

fn tc2() -> (NetworkDesign, Vec<Tensor3<f32>>) {
    let mut rng = ChaCha8Rng::seed_from_u64(63);
    let net = NetworkSpec::test_case_2().build(&mut rng);
    let design = NetworkDesign::new(
        &net,
        PortConfig::paper_test_case_2(),
        DesignConfig::default(),
    )
    .unwrap();
    let mut gen = SyntheticCifar::new(64);
    let images = gen.generate(3).into_iter().map(|(x, _)| x).collect();
    (design, images)
}

fn design_images(design: &NetworkDesign, n: usize, seed: u64) -> Vec<Tensor3<f32>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let shape = design.network().input_shape();
    (0..n)
        .map(|_| dfcnn::tensor::init::random_volume(&mut rng, shape, 0.0, 1.0))
        .collect()
}

/// Run one design through a sampled simulation and assert both halves of
/// the contract: the summed snapshot deltas equal the final stall/item
/// counters, and the run itself is bit-identical to an unobserved one.
fn assert_sim_reconciles(design: &NetworkDesign, images: &[Tensor3<f32>], reference: bool) {
    // baseline: traced, no telemetry
    let mut base_sim = design.instantiate(images).with_trace();
    if reference {
        base_sim = base_sim.reference_mode();
    }
    let (base_res, base_trace) = base_sim.run();

    // observed: traced + live cells + inline sampler
    let mut sim = design.instantiate(images).with_trace();
    if reference {
        sim = sim.reference_mode();
    }
    let live = sim.live_metrics();
    let sampler = Rc::new(RefCell::new(Sampler::new(live.clone())));
    let (res, trace) = sim.with_sampler(sampler.clone(), 64).run();

    // bit-identity: telemetry observed nothing into existence
    assert_eq!(base_res, res, "telemetry-on run diverged");
    assert_eq!(base_trace.events(), trace.events());
    assert_eq!(base_trace.stall_tracks(), trace.stall_tracks());

    // exact reconciliation of every counter, per actor
    let snaps = Rc::try_unwrap(sampler)
        .expect("simulator dropped its sampler handle")
        .into_inner()
        .into_snapshots();
    assert!(!snaps.is_empty());
    assert_eq!(
        snaps.last().unwrap().at,
        res.cycles,
        "final flush at run end"
    );
    let summed = sum_deltas(&snaps);
    assert_eq!(summed.len(), res.stalls.len());
    for (i, (name, acc)) in summed.iter().enumerate() {
        let s = &res.stalls[i];
        assert_eq!(name, &s.name);
        assert_eq!(acc.service, s.computing, "{name}: service");
        assert_eq!(acc.queue_wait, s.starved_total(), "{name}: queue wait");
        assert_eq!(acc.send_wait, s.backpressured_total(), "{name}: send wait");
        assert_eq!(acc.idle, s.idle, "{name}: idle");
        assert_eq!(
            acc.items, res.actor_stats[i].initiations,
            "{name}: items vs initiations"
        );
        // the accounting identity transfers to the cells
        assert_eq!(
            acc.service + acc.queue_wait + acc.send_wait + acc.idle,
            res.cycles,
            "{name}: cell accounting identity"
        );
    }
}

#[test]
fn test_case_1_reconciles_in_both_schedulers() {
    let (design, images) = tc1();
    assert_sim_reconciles(&design, &images, false);
    assert_sim_reconciles(&design, &images, true);
}

#[test]
fn test_case_2_reconciles() {
    let (design, images) = tc2();
    assert_sim_reconciles(&design, &images, false);
}

#[test]
fn residual_design_reconciles() {
    let design = common::residual_design(DesignConfig::default());
    let images = design_images(&design, 5, 71);
    assert_sim_reconciles(&design, &images, false);
}

#[test]
fn random_dag_corpus_reconciles() {
    for seed in 0..8u64 {
        let design = common::random_dag_design(1000 + seed, DesignConfig::default());
        let images = design_images(&design, 3, 72 + seed);
        assert_sim_reconciles(&design, &images, false);
    }
}

/// Live cells reconcile with the RunReport built from the same run: what
/// the dashboards stream during the run is exactly what the post-hoc
/// report says afterwards.
#[test]
fn live_totals_match_the_run_report() {
    let (design, images) = tc1();
    let sim = design.instantiate(&images).with_trace();
    let live = sim.live_metrics();
    let (res, trace) = sim.with_live(live.clone()).run();
    let report = RunReport::from_sim(&design, &res, &trace);
    let ns_per_cycle = 1e9 / design.config().clock_hz as f64;
    assert_eq!(report.stages.len(), live.len());
    for (i, stage) in report.stages.iter().enumerate() {
        let c = live.cell(i).counters();
        assert_eq!(stage.name, live.names()[i]);
        assert_eq!(stage.service_ns, c.service as f64 * ns_per_cycle);
        assert_eq!(stage.starved_ns, c.queue_wait as f64 * ns_per_cycle);
        assert_eq!(stage.backpressured_ns, c.send_wait as f64 * ns_per_cycle);
        assert_eq!(stage.idle_ns, c.idle as f64 * ns_per_cycle);
    }
}

/// The threaded host engine reconciles too: cumulative cell totals equal
/// the profile's exact totals, which is what RunReport::from_profile
/// serialises — the same invariant in wall-clock nanoseconds.
#[test]
fn threaded_engine_reconciles_with_its_report() {
    let (design, _) = tc1();
    let images = design_images(&design, 8, 73);
    let seq_outputs = ThreadedEngine::new(&design).run_sequential(&images).outputs;
    let engine = ThreadedEngine::new(&design);
    let live = engine.live_metrics();
    let engine = engine.with_live(live.clone());
    let (res, profile, _plan) = engine.run_adaptive_with_parallelism(&images, 4);
    assert_eq!(res.outputs, seq_outputs, "adaptive run must stay bit-exact");
    let report = RunReport::from_profile(&profile);
    assert_eq!(report.schema_version, SCHEMA_VERSION);
    for (s, stage) in report.stages.iter().enumerate() {
        let c = live.cell(s).counters();
        assert_eq!(c.items, profile.stages[s].images, "{}", stage.name);
        assert_eq!(stage.service_ns, c.service as f64, "{}", stage.name);
        assert_eq!(stage.starved_ns, c.queue_wait as f64, "{}", stage.name);
        assert_eq!(stage.backpressured_ns, c.send_wait as f64, "{}", stage.name);
    }
}

/// One host plane reused across runs: a sequential run, then a pipelined
/// run under a non-uniform plan. Each profile counts only its own batch,
/// and every cell holds the sum of the two profiles' totals.
#[test]
fn reused_host_plane_splits_into_per_run_profiles() {
    let (design, _) = tc1();
    let first = design_images(&design, 3, 74);
    let second = design_images(&design, 7, 75);
    let expected = ThreadedEngine::new(&design).run_sequential(&second).outputs;
    let engine = ThreadedEngine::new(&design);
    let live = engine.live_metrics();
    let engine = engine.with_live(live.clone());
    let plan = ReplicationPlan {
        factors: vec![2, 1, 3, 1, 2],
    };
    assert_eq!(plan.factors.len(), engine.stage_count());
    let (_, seq) = engine.run_sequential_profiled(&first);
    let (res, piped) = engine.run_with_plan(&second, &plan);
    assert_eq!(res.outputs, expected, "pipelined run must stay bit-exact");
    for (s, (a, b)) in seq.stages.iter().zip(&piped.stages).enumerate() {
        assert_eq!((a.images, a.replication), (3, 1), "{}", a.name);
        assert_eq!((b.images, b.replication), (7, plan.factors[s]));
        assert_eq!(a.queue_wait_total_ns + a.send_wait_total_ns, 0);
        let c = live.cell(s).counters();
        assert_eq!(c.items, a.images + b.images, "{}", a.name);
        assert_eq!(c.service, a.service_total_ns + b.service_total_ns);
        assert_eq!(c.queue_wait, a.queue_wait_total_ns + b.queue_wait_total_ns);
        assert_eq!(c.send_wait, a.send_wait_total_ns + b.send_wait_total_ns);
        assert_eq!(c.idle, 0);
        let stats = live.cell(s).interval_stats();
        assert_eq!((stats.count, stats.total_ns), (c.items, c.service));
    }
    assert_eq!((seq.batch, piped.batch), (3, 7));
}

/// Telemetry-off vs telemetry-on, untraced: outputs, completions, cycle
/// counts and FIFO statistics all identical (stall counters exist only on
/// the observed run, by design — observation turns the recorder on).
#[test]
fn untraced_telemetry_runs_are_output_identical() {
    let (design, images) = tc1();
    let (plain, _) = design.instantiate(&images).run();
    let sim = design.instantiate(&images);
    let live = sim.live_metrics();
    let (observed, _) = sim.with_live(live).run();
    assert!(plain.stalls.is_empty());
    let strip = |r: &SimResult| {
        (
            r.completions.clone(),
            r.outputs.clone(),
            r.cycles,
            r.actor_stats.clone(),
            r.fifo_stats.clone(),
        )
    };
    assert_eq!(strip(&plain), strip(&observed));
}

#[test]
fn exporters_render_a_real_run() {
    let (design, images) = tc1();
    let sim = design.instantiate(&images).with_trace();
    let live = sim.live_metrics();
    let sampler = Rc::new(RefCell::new(Sampler::new(live.clone())));
    let (_, _) = sim.with_sampler(sampler.clone(), 128).run();

    // Prometheus text exposition: every stage on every series
    let text = live.render_prometheus();
    for name in live.names() {
        assert!(
            text.contains(&format!("dfcnn_stage_items_total{{stage=\"{name}\"")),
            "missing items series for {name}"
        );
        assert!(text.contains(&format!("dfcnn_stage_busy_total{{stage=\"{name}\"")));
    }
    assert!(text.contains("# TYPE dfcnn_stage_interval_p99 gauge"));

    // JSONL: one parseable snapshot per line, schema-versioned, ordered
    let snaps = Rc::try_unwrap(sampler)
        .unwrap()
        .into_inner()
        .into_snapshots();
    let jsonl = snapshots_to_jsonl(&snaps);
    assert_eq!(jsonl.lines().count(), snaps.len());
    let mut prev_seq = None;
    for line in jsonl.lines() {
        let snap: MetricsSnapshot = serde_json::from_str(line).unwrap();
        assert_eq!(snap.schema_version, SCHEMA_VERSION);
        if let Some(p) = prev_seq {
            assert_eq!(snap.seq, p + 1, "snapshot sequence must be gapless");
        }
        prev_seq = Some(snap.seq);
    }
}
