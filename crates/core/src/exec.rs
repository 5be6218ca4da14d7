//! The threaded streaming engine: the high-level pipeline as real threads.
//!
//! §IV-C: "the resulting network will exactly act like a high-level
//! pipeline. At steady state, all the different layers of the network will
//! be concurrently active and computing." This engine realises that
//! concurrency on the host CPU: **one or more OS threads per generated
//! core**, connected by bounded rendezvous channels carrying whole
//! feature-map volumes (the token granularity is an image rather than a
//! value — the same dataflow graph, coarser tokens).
//!
//! Three purposes:
//!
//! 1. *Functional cross-check*: each stage computes with the same
//!    [`crate::kernel`] hardware-order numerics as the cycle simulator, so
//!    outputs are **bit-identical** between the two engines.
//! 2. *Pipelining demonstration*: with batches larger than the pipeline
//!    depth, wall-clock time per image approaches the slowest stage — the
//!    same effect Fig. 6 measures in cycles, observable here as real
//!    speedup over a sequential forward pass (benchmarked in
//!    `dfcnn-bench`).
//! 3. *Stage balancing*: the paper balances stages by scaling ports
//!    (Eq. 4, `II = max(OUT_FM/OUT_PORTS, IN_FM/IN_PORTS)`). The host
//!    analogue is **stage replication** ([`ReplicationPlan`]): a short
//!    sequential warmup measures each stage in the live telemetry cells,
//!    [`ReplicationPlan::adaptive`] gives bottleneck stages extra worker
//!    threads fed round-robin, and the batch interval converges toward the
//!    *balanced*-stage bound instead of the slowest single stage.
//!
//! # Order and buffers
//!
//! With replication factor `r` for a stage, image `j` is always handled by
//! worker `j mod r`; every producer deals to, and every consumer reads
//! from, the channel that deterministic rule names. Outputs therefore come
//! out in input order with no sequence numbers, and the value stream each
//! image sees is identical to [`ThreadedEngine::run_sequential`] — so
//! outputs are bit-identical, replicated or not.
//!
//! Steady state allocates nothing per image in the compute path: every
//! worker owns a per-stage scratch arena ([`crate::kernel::ConvArena`] and
//! friends), and output volumes are recycled — each message carries a
//! return channel, the consumer sends the spent buffer back, and the
//! producer reuses it for a later image (a ping-pong pool threaded through
//! the channel chain).
//!
//! # Fork/join designs
//!
//! A fork/join [`NetworkDesign`] still runs as a *linear* thread
//! pipeline: stages execute in topological order and each message
//! carries a **bundle** — the set of still-live stage outputs — instead
//! of a single volume. A `StagePlan` precomputed per stage says which
//! bundle slots feed the stage ([`StageWorker::apply_multi`]) and which
//! survive downstream (e.g. the skip operand of a residual block rides
//! the bundle past the branch stages until the eltwise-add consumes it).
//! On linear chains every bundle has exactly one slot and the engine
//! degenerates to the classic one-volume-per-message pipeline.

use crate::graph::{NetworkDesign, StageInput};
use crate::model::{self, HostStage, StageWorker};
use crate::observe::live::{LiveMetrics, MetricCell, MetricUnit, Sampler};
use crate::trace::IntervalStats;
use dfcnn_tensor::Tensor3;
use serde::{Deserialize, Serialize};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::time::{Duration, Instant};

/// Result of streaming a batch through the threaded engine.
#[derive(Clone, Debug)]
pub struct ExecResult {
    /// Classifier scores per image (pre-normalisation), in input order.
    pub outputs: Vec<Tensor3<f32>>,
    /// Wall-clock completion time of each image, relative to engine start.
    pub completion_times: Vec<Duration>,
    /// Total wall-clock time for the whole batch.
    pub total: Duration,
}

impl ExecResult {
    /// Mean wall-clock time per image (total / batch), the threaded
    /// analogue of Fig. 6's y axis.
    pub fn mean_time_per_image(&self) -> Duration {
        self.total / self.outputs.len() as u32
    }
}

/// Per-stage replication factors: how many worker threads serve each
/// pipeline stage. The host analogue of the paper's Eq. 4 port scaling —
/// replicating a stage divides its effective interval the way adding ports
/// divides a core's II.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplicationPlan {
    /// One factor (≥ 1) per stage.
    pub factors: Vec<usize>,
}

impl ReplicationPlan {
    /// One worker per stage — the plain pipeline.
    pub fn uniform(stages: usize) -> Self {
        ReplicationPlan {
            factors: vec![1; stages],
        }
    }

    /// Cap on any stage's replication factor: past four workers a stage's
    /// replicas contend for the host's cores without raising throughput.
    pub const MAX_FACTOR: usize = 4;

    /// The engine's replication planner, fed by *measured* per-stage
    /// service times (the live telemetry cells, or any per-stage
    /// profile). Extra workers — one fewer than the host's hardware
    /// threads, at most 8 — go greedily to the stage with the largest
    /// *effective* interval (`mean / factor`), each stage capped at
    /// [`ReplicationPlan::MAX_FACTOR`]; allocation stops early once the
    /// global bottleneck can no longer be replicated (further workers would
    /// not raise throughput).
    ///
    /// Returns `None` when a thread-per-stage pipeline cannot pay off: a
    /// single hardware thread (`host_threads <= 1`, where workers only
    /// time-slice one CPU — measured ~0.65x of the sequential baseline) or
    /// a single stage (nothing to overlap). The caller must then run
    /// sequentially.
    pub fn adaptive(measured_ns: &[u64], host_threads: usize) -> Option<Self> {
        let n = measured_ns.len();
        if host_threads <= 1 || n <= 1 {
            return None;
        }
        let mut factors = vec![1usize; n];
        let eff = |i: usize, f: &[usize]| measured_ns[i] / f[i] as u64;
        for _ in 0..host_threads.saturating_sub(1).min(8) {
            let bound = (0..n).map(|i| eff(i, &factors)).max().unwrap_or(0);
            let candidate = (0..n)
                .filter(|&i| factors[i] < Self::MAX_FACTOR)
                .max_by_key(|&i| eff(i, &factors));
            match candidate {
                Some(i) if eff(i, &factors) == bound && bound > 0 => factors[i] += 1,
                _ => break,
            }
        }
        Some(ReplicationPlan { factors })
    }

    /// Total worker threads the plan spawns.
    pub fn workers(&self) -> usize {
        self.factors.iter().sum()
    }
}

/// Measured behaviour of one pipeline stage during a run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StageProfile {
    /// Stage name (`conv1`, `pool1`, `flatten`, `fc1`, …).
    pub name: String,
    /// Worker threads that served this stage.
    pub replication: usize,
    /// Images processed (summed over workers).
    pub images: u64,
    /// Mean per-image service time in nanoseconds — the host analogue of
    /// the stage interval Fig. 6 converges to.
    pub mean_interval_ns: u64,
    /// Worst single-image service time in nanoseconds.
    pub max_interval_ns: u64,
    /// Mean time a worker spent blocked waiting for input, per image.
    pub mean_queue_wait_ns: u64,
    /// Mean time a worker spent blocked sending its output downstream,
    /// per image — the host analogue of fabric backpressure.
    pub mean_send_wait_ns: u64,
    /// Exact total service time across workers in nanoseconds. The means
    /// above are integer divisions; the totals are what reconcile exactly
    /// with the live telemetry cells and [`crate::observe::RunReport`].
    pub service_total_ns: u64,
    /// Exact total input-wait time across workers in nanoseconds.
    pub queue_wait_total_ns: u64,
    /// Exact total send-wait time across workers in nanoseconds.
    pub send_wait_total_ns: u64,
}

impl StageProfile {
    /// A stage's profile from its exact per-stage totals (nanoseconds,
    /// summed over workers); every mean is `total / images` (0 for an
    /// idle stage). Workers record service, input wait and send wait once
    /// per image, so one image count divides all three.
    fn from_totals(
        name: String,
        replication: usize,
        images: u64,
        service_ns: u64,
        max_ns: u64,
        queue_wait_ns: u64,
        send_wait_ns: u64,
    ) -> Self {
        let mean = |total: u64| total.checked_div(images).unwrap_or(0);
        StageProfile {
            name,
            replication,
            images,
            mean_interval_ns: mean(service_ns),
            max_interval_ns: max_ns,
            mean_queue_wait_ns: mean(queue_wait_ns),
            mean_send_wait_ns: mean(send_wait_ns),
            service_total_ns: service_ns,
            queue_wait_total_ns: queue_wait_ns,
            send_wait_total_ns: send_wait_ns,
        }
    }

    /// Effective interval the stage contributes to the pipeline bound:
    /// `mean / replication` (replicated workers overlap in time).
    pub fn effective_interval_ns(&self) -> u64 {
        self.mean_interval_ns / self.replication as u64
    }
}

/// Per-stage measurements of one pipelined run, consumed by `dfcnn-bench`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PipelineProfile {
    /// One entry per pipeline stage, in pipeline order.
    pub stages: Vec<StageProfile>,
    /// Batch size of the measured run.
    pub batch: usize,
    /// Total wall-clock of the run in nanoseconds.
    pub total_ns: u64,
}

impl PipelineProfile {
    /// Index of the stage with the largest effective interval — the stage
    /// the batch interval converges to (Fig. 6's plateau).
    pub fn bottleneck(&self) -> usize {
        (0..self.stages.len())
            .max_by_key(|&i| self.stages[i].effective_interval_ns())
            .expect("profile has no stages")
    }

    /// The balanced-stage bound in nanoseconds: the largest effective
    /// interval. At steady state the pipeline emits one image per this
    /// interval; replication lowers it the way Eq. 4's ports lower II.
    pub fn balanced_bound_ns(&self) -> u64 {
        self.stages[self.bottleneck()].effective_interval_ns()
    }

    /// Fixed-width text table (one row per stage) for console output.
    pub fn render_table(&self) -> String {
        let mut out = String::from(
            "stage      repl  images  mean_us    max_us     wait_us    send_us    eff_us\n",
        );
        for s in &self.stages {
            out.push_str(&format!(
                "{:<10} {:>4} {:>7} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1}\n",
                s.name,
                s.replication,
                s.images,
                s.mean_interval_ns as f64 / 1e3,
                s.max_interval_ns as f64 / 1e3,
                s.mean_queue_wait_ns as f64 / 1e3,
                s.mean_send_wait_ns as f64 / 1e3,
                s.effective_interval_ns() as f64 / 1e3,
            ));
        }
        out
    }
}

/// A bundle of volumes travelling down the pipeline. Owned messages carry
/// the return channel of the worker whose buffer pool they came from, so
/// the consumer can recycle spent buffers once it has read them.
enum Msg<'a> {
    /// A borrowed input image (zero-copy feed of the first stage); the
    /// bundle is implicitly `[Image]`.
    Borrowed(&'a Tensor3<f32>),
    /// The live bundle after some stage, plus that worker's free-list.
    Owned(Vec<Tensor3<f32>>, Option<SyncSender<Tensor3<f32>>>),
}

/// How one stage reads and rewrites the bundle: which slots feed
/// [`StageWorker::apply_multi`], and which slots are still needed by a
/// later stage and therefore survive (the stage's own output is always
/// appended last). Precomputed once per engine by [`bundle_plans`].
struct StagePlan {
    /// Bundle slot index per stage input, in operand order.
    in_slots: Vec<usize>,
    /// Incoming-bundle slots that survive into the outgoing bundle,
    /// in order. Slots not kept are recycled to their last carrier.
    keep: Vec<usize>,
}

/// Walk the stage list once, tracking the live bundle, and derive each
/// stage's [`StagePlan`]. The bundle starts as `[Image]`; after stage `s`
/// it holds every earlier output some stage `> s` still reads, plus
/// `Stage(s)` itself. The builder guarantees only stage 0 reads the
/// image, so borrowed inputs never need to survive a hop.
fn bundle_plans(stages: &[HostStage]) -> Vec<StagePlan> {
    let n = stages.len();
    let mut bundle: Vec<StageInput> = vec![StageInput::Image];
    let mut plans = Vec::with_capacity(n);
    for s in 0..n {
        let in_slots = stages[s]
            .inputs
            .iter()
            .map(|inp| {
                bundle
                    .iter()
                    .position(|b| b == inp)
                    .expect("stage input must be live in the bundle (topological order)")
            })
            .collect();
        let needed = |x: &StageInput| stages[s + 1..].iter().any(|st| st.inputs.contains(x));
        let keep: Vec<usize> = (0..bundle.len())
            .filter(|&i| bundle[i] != StageInput::Image && needed(&bundle[i]))
            .collect();
        assert!(
            !needed(&StageInput::Image),
            "only the first stage may read the input image"
        );
        let mut next: Vec<StageInput> = keep.iter().map(|&i| bundle[i]).collect();
        next.push(StageInput::Stage(s));
        plans.push(StagePlan { in_slots, keep });
        bundle = next;
    }
    plans
}

/// Timing gathered by one worker thread.
struct WorkerStats {
    busy: IntervalStats,
    wait: IntervalStats,
    send: IntervalStats,
}

/// Channel matrix for one stage boundary: `pc` producers × `cc` consumers.
/// Returns (per-producer sender rows, per-consumer receiver columns);
/// `rows[p][c]` feeds `cols[c][p]`.
type TxRows<'a> = Vec<Vec<SyncSender<Msg<'a>>>>;
type RxCols<'a> = Vec<Vec<Receiver<Msg<'a>>>>;

fn boundary<'a>(pc: usize, cc: usize, depth: usize) -> (TxRows<'a>, RxCols<'a>) {
    let mut rows: TxRows = (0..pc).map(|_| Vec::with_capacity(cc)).collect();
    let mut cols: RxCols = (0..cc).map(|_| Vec::with_capacity(pc)).collect();
    for row in rows.iter_mut() {
        for col in cols.iter_mut() {
            let (tx, rx) = sync_channel(depth);
            row.push(tx);
            col.push(rx);
        }
    }
    (rows, cols)
}

/// One worker of a (possibly replicated) stage. Worker `w` of a stage with
/// factor `r` serves exactly the images `j ≡ w (mod r)`, in increasing
/// order; image `j` arrives on the channel from producer `j mod r_prev`
/// and leaves on the channel to consumer `j mod r_next`. That fixed
/// dealing rule is what keeps outputs in input order with no tags.
#[allow(clippy::too_many_arguments)]
fn worker_loop(
    stage: &HostStage,
    plan: &StagePlan,
    w: usize,
    r_mine: usize,
    rx_col: Vec<Receiver<Msg<'_>>>,
    tx_row: Vec<SyncSender<Msg<'_>>>,
    channel_depth: usize,
    cell: Option<&MetricCell>,
) -> WorkerStats {
    let mut worker = stage.spec.make_worker();
    let (r_prev, r_next) = (rx_col.len(), tx_row.len());
    // buffers in flight from this worker: channel depth per consumer link
    // plus one being read at each consumer, plus bundle survivors
    let (free_tx, free_rx) = sync_channel::<Tensor3<f32>>(2 * r_next * (channel_depth + 1) + 2);
    let mut busy = IntervalStats::new();
    let mut wait = IntervalStats::new();
    let mut send = IntervalStats::new();
    let mut k = 0u64;
    loop {
        let j = w as u64 + k * r_mine as u64;
        let t0 = Instant::now();
        let msg = match rx_col[(j % r_prev as u64) as usize].recv() {
            Ok(m) => m,
            Err(_) => break, // upstream done
        };
        // live cells receive the same measured u64s as the IntervalStats,
        // so cumulative cell totals reconcile with the profile exactly
        let dt_wait = t0.elapsed().as_nanos() as u64;
        wait.record(dt_wait);
        if let Some(c) = cell {
            c.add_queue_wait(dt_wait);
        }
        // reuse a recycled buffer — but only one of our own shape: a
        // bundle survivor recycles to its *last carrier*, which may not
        // be its creator, so foreign-shaped buffers are simply dropped
        let mut out = loop {
            match free_rx.try_recv() {
                Ok(t) if t.shape() == stage.spec.out_shape => break t,
                Ok(_) => continue,
                Err(_) => break Tensor3::zeros(stage.spec.out_shape),
            }
        };
        let t1 = Instant::now();
        match &msg {
            Msg::Borrowed(t) => {
                let refs: Vec<&Tensor3<f32>> = plan.in_slots.iter().map(|_| *t).collect();
                worker.apply_multi(&refs, &mut out);
            }
            Msg::Owned(bundle, _) => {
                let refs: Vec<&Tensor3<f32>> = plan.in_slots.iter().map(|&i| &bundle[i]).collect();
                worker.apply_multi(&refs, &mut out);
            }
        }
        let dt_busy = t1.elapsed().as_nanos() as u64;
        busy.record(dt_busy);
        if let Some(c) = cell {
            c.add_service(dt_busy);
            c.add_items(1);
            c.record_interval(dt_busy);
        }
        // rebuild the bundle: survivors in plan order, own output last;
        // everything else goes back to the producer's pool (best effort:
        // a full or disconnected free-list just drops the buffer)
        let next = match msg {
            Msg::Borrowed(_) => vec![out],
            Msg::Owned(bundle, ret) => {
                let mut slots: Vec<Option<Tensor3<f32>>> = bundle.into_iter().map(Some).collect();
                let mut next: Vec<Tensor3<f32>> = plan
                    .keep
                    .iter()
                    .map(|&i| slots[i].take().expect("kept slot is live"))
                    .collect();
                if let Some(ret) = ret {
                    for t in slots.into_iter().flatten() {
                        let _ = ret.try_send(t);
                    }
                }
                next.push(out);
                next
            }
        };
        let t2 = Instant::now();
        let sent =
            tx_row[(j % r_next as u64) as usize].send(Msg::Owned(next, Some(free_tx.clone())));
        if sent.is_err() {
            break; // downstream done
        }
        let dt_send = t2.elapsed().as_nanos() as u64;
        send.record(dt_send);
        if let Some(c) = cell {
            c.add_send_wait(dt_send);
        }
        k += 1;
    }
    WorkerStats { busy, wait, send }
}

/// The engine itself; construct per design, run per batch.
pub struct ThreadedEngine {
    stages: Vec<HostStage>,
    plans: Vec<StagePlan>,
    channel_depth: usize,
    /// Live telemetry cells (one per stage) every run mirrors into.
    live: Option<std::sync::Arc<LiveMetrics>>,
}

/// Images the adaptive runner executes sequentially before it reads the
/// live cells and replans: enough to absorb cold caches without delaying
/// the measurement-driven plan.
const ADAPTIVE_WARMUP: usize = 2;

impl ThreadedEngine {
    /// Build stages from a design via [`model::host_pipeline`] (one per
    /// layer incl. flatten; adapters are port plumbing with no image-level
    /// effect; LogSoftMax stays on the host unless
    /// [`crate::graph::DesignConfig::fabric_normalization`] is set).
    /// Fork/join designs yield the same linear stage list in topological
    /// order, with multi-input stages wired through `bundle_plans`.
    pub fn new(design: &NetworkDesign) -> Self {
        let stages = model::host_pipeline(design);
        let plans = bundle_plans(&stages);
        ThreadedEngine {
            stages,
            plans,
            channel_depth: 2,
            live: None,
        }
    }

    /// A fresh live metrics plane matching this engine's stages (unit:
    /// wall-clock nanoseconds), for [`ThreadedEngine::with_live`]; read it
    /// mid-run with [`LiveMetrics::render_prometheus`].
    pub fn live_metrics(&self) -> std::sync::Arc<LiveMetrics> {
        LiveMetrics::new(
            MetricUnit::Nanos,
            self.stages.iter().map(|s| s.spec.name.clone()).collect(),
        )
    }

    /// Mirror every worker's measured service/wait times, image counts
    /// and per-image service histogram into `live` during runs. The cells
    /// must have been built for this engine's stage list.
    pub fn with_live(mut self, live: std::sync::Arc<LiveMetrics>) -> Self {
        assert_eq!(
            live.len(),
            self.stages.len(),
            "live metrics must have one cell per stage"
        );
        self.live = Some(live);
        self
    }

    /// Number of pipeline stages (minimum threads spawned per run).
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// Stage names in pipeline order.
    pub fn stage_names(&self) -> Vec<&str> {
        self.stages.iter().map(|s| s.spec.name.as_str()).collect()
    }

    /// Stream a batch through the plain pipeline (one worker per stage).
    pub fn run(&self, images: &[Tensor3<f32>]) -> ExecResult {
        self.run_with_plan(images, &ReplicationPlan::uniform(self.stages.len()))
            .0
    }

    /// Stream a batch through the pipeline with explicit per-stage
    /// replication. Outputs are in input order and bit-identical to
    /// [`ThreadedEngine::run_sequential`] for any plan.
    pub fn run_with_plan(
        &self,
        images: &[Tensor3<f32>],
        plan: &ReplicationPlan,
    ) -> (ExecResult, PipelineProfile) {
        self.run_with_plan_live(images, plan, self.live.as_deref())
    }

    fn run_with_plan_live(
        &self,
        images: &[Tensor3<f32>],
        plan: &ReplicationPlan,
        live: Option<&LiveMetrics>,
    ) -> (ExecResult, PipelineProfile) {
        assert!(!images.is_empty(), "empty batch");
        assert!(!self.stages.is_empty(), "design has no pipeline stages");
        assert_eq!(
            plan.factors.len(),
            self.stages.len(),
            "plan length mismatch"
        );
        assert!(plan.factors.iter().all(|&f| f >= 1), "factors must be ≥ 1");
        let r = &plan.factors;
        let n = self.stages.len();
        let depth = self.channel_depth;
        let (stats_tx, stats_rx) = std::sync::mpsc::channel::<(usize, WorkerStats)>();
        let start = Instant::now();
        let (outputs, completion_times) = std::thread::scope(|scope| {
            // boundary 0: the feeder (one producer) into stage 0's workers
            let (mut feed_rows, mut cur_cols) = boundary(1, r[0], depth);
            for s in 0..n {
                let next_cc = if s + 1 < n { r[s + 1] } else { 1 };
                let (next_rows, next_cols) = boundary(r[s], next_cc, depth);
                let in_cols = std::mem::replace(&mut cur_cols, next_cols);
                for (w, (rx_col, tx_row)) in in_cols.into_iter().zip(next_rows).enumerate() {
                    let stage = &self.stages[s];
                    let plan = &self.plans[s];
                    let r_mine = r[s];
                    let stats_tx = stats_tx.clone();
                    // replicated workers of one stage share its cell;
                    // the counters are atomic, so concurrent adds merge
                    let cell = live.map(|l| l.cell(s));
                    scope.spawn(move || {
                        let ws = worker_loop(stage, plan, w, r_mine, rx_col, tx_row, depth, cell);
                        let _ = stats_tx.send((s, ws));
                    });
                }
            }
            // collector: one consumer reading the last boundary round-robin
            let coll_col = cur_cols.pop().expect("collector column");
            let batch = images.len();
            let r_last = *r.last().unwrap();
            let collector = scope.spawn(move || {
                let mut outs = Vec::with_capacity(batch);
                let mut times = Vec::with_capacity(batch);
                for j in 0..batch {
                    match coll_col[j % r_last].recv() {
                        Ok(Msg::Owned(mut bundle, ret)) => {
                            outs.push(bundle.pop().expect("final bundle has the output"));
                            if let Some(ret) = ret {
                                for t in bundle {
                                    let _ = ret.try_send(t);
                                }
                            }
                        }
                        Ok(Msg::Borrowed(t)) => outs.push(t.clone()),
                        Err(_) => break, // a worker died; surface short batch
                    }
                    times.push(start.elapsed());
                }
                (outs, times)
            });
            // feed borrowed references — no per-image clone
            let feed_row = feed_rows.pop().expect("feeder row");
            for (j, img) in images.iter().enumerate() {
                if feed_row[j % r[0]].send(Msg::Borrowed(img)).is_err() {
                    break;
                }
            }
            drop(feed_row);
            collector.join().expect("collector panicked")
        });
        let total = start.elapsed();
        drop(stats_tx);
        let mut busy = vec![IntervalStats::new(); n];
        let mut wait = vec![IntervalStats::new(); n];
        let mut send = vec![IntervalStats::new(); n];
        while let Ok((s, ws)) = stats_rx.try_recv() {
            busy[s].merge(&ws.busy);
            wait[s].merge(&ws.wait);
            send[s].merge(&ws.send);
        }
        let profile = PipelineProfile {
            stages: self
                .stages
                .iter()
                .enumerate()
                .map(|(s, st)| {
                    StageProfile::from_totals(
                        st.spec.name.clone(),
                        r[s],
                        busy[s].count,
                        busy[s].total_ns,
                        busy[s].max_ns,
                        wait[s].total_ns,
                        send[s].total_ns,
                    )
                })
                .collect(),
            batch: images.len(),
            total_ns: total.as_nanos() as u64,
        };
        (
            ExecResult {
                outputs,
                completion_times,
                total,
            },
            profile,
        )
    }

    /// Sequential baseline: the same hardware-order stages, one image at a
    /// time on one thread (what a non-pipelined accelerator would do).
    /// Uses the same arenas and staging buffers as the pipeline workers,
    /// so it is equally allocation-free per image apart from the owned
    /// output clone.
    pub fn run_sequential(&self, images: &[Tensor3<f32>]) -> ExecResult {
        self.run_sequential_profiled(images).0
    }

    /// [`ThreadedEngine::run_sequential`] with per-stage timing, shaped
    /// like a pipelined profile (replication 1, zero queue/send waits —
    /// nothing ever blocks on a channel). This is the run
    /// [`ThreadedEngine::run_adaptive`] falls back to when
    /// [`ReplicationPlan::adaptive`] says threading cannot pay off.
    pub fn run_sequential_profiled(
        &self,
        images: &[Tensor3<f32>],
    ) -> (ExecResult, PipelineProfile) {
        self.run_sequential_live(images, self.live.as_deref())
    }

    fn run_sequential_live(
        &self,
        images: &[Tensor3<f32>],
        live: Option<&LiveMetrics>,
    ) -> (ExecResult, PipelineProfile) {
        assert!(!images.is_empty(), "empty batch");
        let start = Instant::now();
        let mut workers: Vec<Box<dyn StageWorker>> =
            self.stages.iter().map(|s| s.spec.make_worker()).collect();
        let mut bufs: Vec<Tensor3<f32>> = self
            .stages
            .iter()
            .map(|s| Tensor3::zeros(s.spec.out_shape))
            .collect();
        let mut busy = vec![IntervalStats::new(); self.stages.len()];
        let mut outputs = Vec::with_capacity(images.len());
        let mut completion_times = Vec::with_capacity(images.len());
        for img in images {
            for (s, worker) in workers.iter_mut().enumerate() {
                let (done, rest) = bufs.split_at_mut(s);
                let refs: Vec<&Tensor3<f32>> = self.stages[s]
                    .inputs
                    .iter()
                    .map(|inp| inp.pick(img, done))
                    .collect();
                let t = Instant::now();
                worker.apply_multi(&refs, &mut rest[0]);
                let dt = t.elapsed().as_nanos() as u64;
                busy[s].record(dt);
                if let Some(cell) = live.map(|l| l.cell(s)) {
                    cell.add_service(dt);
                    cell.add_items(1);
                    cell.record_interval(dt);
                }
            }
            outputs.push(bufs.last().expect("at least one stage").clone());
            completion_times.push(start.elapsed());
        }
        let total = start.elapsed();
        let profile = PipelineProfile {
            stages: self
                .stages
                .iter()
                .enumerate()
                .map(|(s, st)| {
                    StageProfile::from_totals(
                        st.spec.name.clone(),
                        1,
                        busy[s].count,
                        busy[s].total_ns,
                        busy[s].max_ns,
                        0,
                        0,
                    )
                })
                .collect(),
            batch: images.len(),
            total_ns: total.as_nanos() as u64,
        };
        (
            ExecResult {
                outputs,
                completion_times,
                total,
            },
            profile,
        )
    }

    /// Measurement-driven pipelining: warm up sequentially, read the
    /// measured per-stage service times from the live telemetry cells,
    /// and run the rest of the batch under a [`ReplicationPlan::adaptive`]
    /// replanned from those measurements (with one mid-batch replan on
    /// long batches, so the plan tracks what the workers actually
    /// measure). Falls back to plain sequential execution wherever the
    /// planner refuses to replicate (a 1-thread host, a 1-stage design).
    /// Outputs are in input order and bit-identical to
    /// [`ThreadedEngine::run_sequential`].
    pub fn run_adaptive(
        &self,
        images: &[Tensor3<f32>],
    ) -> (ExecResult, PipelineProfile, ReplicationPlan) {
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        self.run_adaptive_with_parallelism(images, threads)
    }

    /// [`ThreadedEngine::run_adaptive`] with the host parallelism passed
    /// explicitly, so the sequential fallback is testable on any machine.
    /// Returns the final plan alongside the stitched result and profile.
    pub fn run_adaptive_with_parallelism(
        &self,
        images: &[Tensor3<f32>],
        threads: usize,
    ) -> (ExecResult, PipelineProfile, ReplicationPlan) {
        assert!(!images.is_empty(), "empty batch");
        let n = self.stages.len();
        let live = match &self.live {
            Some(l) => l.clone(),
            None => self.live_metrics(),
        };
        // tiny batches never outrun their warmup
        if images.len() <= ADAPTIVE_WARMUP {
            let (res, prof) = self.run_sequential_live(images, Some(&live));
            return (res, prof, ReplicationPlan::uniform(n));
        }
        let mut sampler = Sampler::new(live.clone());
        let start = Instant::now();
        let (warm_res, warm_prof) =
            self.run_sequential_live(&images[..ADAPTIVE_WARMUP], Some(&live));
        let mut plan = Self::replan(&mut sampler, &start, threads);
        let rest = &images[ADAPTIVE_WARMUP..];
        // long pipelined batches get a second measurement point: the first
        // chunk's deltas (true per-worker service under concurrency)
        // refine the plan for the remainder
        let split = if plan.is_some() && rest.len() >= 2 * n.max(4) {
            rest.len() / 2
        } else {
            rest.len()
        };
        let mut parts = vec![warm_prof];
        let mut outputs = warm_res.outputs;
        let mut completion_times = warm_res.completion_times;
        for (i, chunk) in [&rest[..split], &rest[split..]].into_iter().enumerate() {
            if chunk.is_empty() {
                continue;
            }
            if i > 0 {
                plan = Self::replan(&mut sampler, &start, threads);
            }
            let offset = start.elapsed();
            // no plan: the planner refused to replicate, stay sequential
            let (res, prof) = match &plan {
                Some(plan) => self.run_with_plan_live(chunk, plan, Some(&live)),
                None => self.run_sequential_live(chunk, Some(&live)),
            };
            outputs.extend(res.outputs);
            completion_times.extend(res.completion_times.into_iter().map(|t| offset + t));
            parts.push(prof);
        }
        let total = start.elapsed();
        let profile = Self::merge_profiles(&parts, images.len(), total.as_nanos() as u64);
        (
            ExecResult {
                outputs,
                completion_times,
                total,
            },
            profile,
            plan.unwrap_or_else(|| ReplicationPlan::uniform(n)),
        )
    }

    /// Sample the live cells and derive a fresh adaptive plan from the
    /// measured mean service time per stage since the last sample.
    fn replan(sampler: &mut Sampler, start: &Instant, threads: usize) -> Option<ReplicationPlan> {
        let snap = sampler.sample(start.elapsed().as_nanos() as u64);
        let measured: Vec<u64> = snap
            .stages
            .iter()
            .map(|d| d.service / d.items.max(1))
            .collect();
        ReplicationPlan::adaptive(&measured, threads)
    }

    /// Fold per-chunk profiles into one batch profile: totals and image
    /// counts add; means re-derive from the exact totals; replication
    /// reports the widest factor any chunk used.
    fn merge_profiles(parts: &[PipelineProfile], batch: usize, total_ns: u64) -> PipelineProfile {
        let first = parts.first().expect("at least one chunk profile");
        let stages = (0..first.stages.len())
            .map(|s| {
                let sum = |f: fn(&StageProfile) -> u64| parts.iter().map(|p| f(&p.stages[s])).sum();
                let widest = parts.iter().map(|p| p.stages[s].replication).max();
                let max_ns = parts.iter().map(|p| p.stages[s].max_interval_ns).max();
                StageProfile::from_totals(
                    first.stages[s].name.clone(),
                    widest.unwrap_or(1),
                    sum(|p| p.images),
                    sum(|p| p.service_total_ns),
                    max_ns.unwrap_or(0),
                    sum(|p| p.queue_wait_total_ns),
                    sum(|p| p.send_wait_total_ns),
                )
            })
            .collect();
        PipelineProfile {
            stages,
            batch,
            total_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{DesignConfig, PortConfig};
    use dfcnn_nn::topology::NetworkSpec;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn tc1_design() -> NetworkDesign {
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        let net = NetworkSpec::test_case_1().build(&mut rng);
        NetworkDesign::new(
            &net,
            PortConfig::paper_test_case_1(),
            DesignConfig::default(),
        )
        .unwrap()
    }

    fn batch(design: &NetworkDesign, n: usize, seed: u64) -> Vec<Tensor3<f32>> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                dfcnn_tensor::init::random_volume(
                    &mut rng,
                    design.network().input_shape(),
                    0.0,
                    1.0,
                )
            })
            .collect()
    }

    #[test]
    fn threaded_matches_hw_forward_exactly() {
        let design = tc1_design();
        let imgs = batch(&design, 4, 1);
        let engine = ThreadedEngine::new(&design);
        let res = engine.run(&imgs);
        assert_eq!(res.outputs.len(), 4);
        for (img, out) in imgs.iter().zip(res.outputs.iter()) {
            assert_eq!(out, &design.hw_forward(img), "engine must be bit-exact");
        }
    }

    #[test]
    fn threaded_preserves_input_order() {
        let design = tc1_design();
        let imgs = batch(&design, 8, 2);
        let engine = ThreadedEngine::new(&design);
        let res = engine.run(&imgs);
        let seq = engine.run_sequential(&imgs);
        assert_eq!(res.outputs, seq.outputs);
    }

    #[test]
    fn completion_times_monotone() {
        let design = tc1_design();
        let imgs = batch(&design, 6, 3);
        let res = ThreadedEngine::new(&design).run(&imgs);
        assert!(res.completion_times.windows(2).all(|w| w[0] <= w[1]));
        assert!(*res.completion_times.last().unwrap() <= res.total);
    }

    #[test]
    fn stage_count_includes_flatten() {
        let design = tc1_design();
        // conv, pool, conv, flatten, fc = 5 (logsoftmax host-side)
        let engine = ThreadedEngine::new(&design);
        assert_eq!(engine.stage_count(), 5);
        assert_eq!(
            engine.stage_names(),
            vec!["conv1", "pool1", "conv2", "flatten", "fc1"]
        );
    }

    #[test]
    fn fabric_normalization_adds_a_stage() {
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        let net = NetworkSpec::test_case_1().build(&mut rng);
        let cfg = DesignConfig {
            fabric_normalization: true,
            ..DesignConfig::default()
        };
        let design = NetworkDesign::new(&net, PortConfig::paper_test_case_1(), cfg).unwrap();
        let engine = ThreadedEngine::new(&design);
        assert_eq!(
            engine.stage_names(),
            vec!["conv1", "pool1", "conv2", "flatten", "fc1", "logsoftmax1"]
        );
        let imgs = batch(&design, 3, 9);
        let res = engine.run(&imgs);
        for (img, out) in imgs.iter().zip(res.outputs.iter()) {
            assert_eq!(out, &design.hw_forward(img), "engine must be bit-exact");
        }
    }

    #[test]
    fn replicated_runs_match_sequential_exactly() {
        let design = tc1_design();
        let imgs = batch(&design, 11, 4);
        let engine = ThreadedEngine::new(&design);
        let seq = engine.run_sequential(&imgs);
        for factors in [
            vec![1, 1, 1, 1, 1],
            vec![2, 1, 3, 1, 2],
            vec![4, 4, 4, 4, 4],
            vec![3, 1, 1, 1, 1],
        ] {
            let plan = ReplicationPlan { factors };
            let (res, profile) = engine.run_with_plan(&imgs, &plan);
            assert_eq!(res.outputs, seq.outputs, "plan {:?}", plan.factors);
            // every image passed through every stage exactly once
            assert!(profile.stages.iter().all(|s| s.images == 11));
        }
    }

    #[test]
    fn batch_smaller_than_replication_works() {
        // more workers than images: surplus workers see an immediate
        // disconnect and must exit cleanly
        let design = tc1_design();
        let imgs = batch(&design, 2, 5);
        let engine = ThreadedEngine::new(&design);
        let plan = ReplicationPlan {
            factors: vec![4, 4, 4, 4, 4],
        };
        let (res, _) = engine.run_with_plan(&imgs, &plan);
        assert_eq!(res.outputs, engine.run_sequential(&imgs).outputs);
    }

    #[test]
    fn profile_reports_all_stages() {
        let design = tc1_design();
        let imgs = batch(&design, 6, 6);
        let engine = ThreadedEngine::new(&design);
        let (_, profile) =
            engine.run_with_plan(&imgs, &ReplicationPlan::uniform(engine.stage_count()));
        assert_eq!(profile.stages.len(), 5);
        assert_eq!(profile.batch, 6);
        assert!(profile.total_ns > 0);
        assert!(profile.stages.iter().all(|s| s.images == 6));
        assert!(profile.stages.iter().all(|s| s.mean_interval_ns > 0));
        let table = profile.render_table();
        assert!(table.contains("conv1") && table.contains("fc1"));
        let b = profile.bottleneck();
        assert!(profile.balanced_bound_ns() >= profile.stages[b].effective_interval_ns());
    }

    #[test]
    fn single_thread_host_degrades_to_sequential() {
        // the regression: a 1-CPU host ran the thread-per-stage pipeline
        // at ~0.65x the sequential baseline — the engine must not spawn
        // workers it cannot overlap
        let design = tc1_design();
        let imgs = batch(&design, 6, 40);
        let engine = ThreadedEngine::new(&design);
        let seq = engine.run_sequential(&imgs);
        let (res, profile, plan) = engine.run_adaptive_with_parallelism(&imgs, 1);
        assert_eq!(res.outputs, seq.outputs, "fallback must stay bit-exact");
        assert_eq!(plan, ReplicationPlan::uniform(engine.stage_count()));
        // the sequential fallback's profile: one worker per stage, every
        // image through every stage, and no channel waits (nothing blocks)
        assert!(profile.stages.iter().all(|s| s.replication == 1));
        assert!(profile.stages.iter().all(|s| s.images == 6));
        assert!(profile
            .stages
            .iter()
            .all(|s| s.mean_queue_wait_ns == 0 && s.mean_send_wait_ns == 0));
        assert_eq!(profile.batch, 6);
        // with threads to spare the pipelined path still works
        let (multi, _, _) = engine.run_adaptive_with_parallelism(&imgs, 4);
        assert_eq!(multi.outputs, seq.outputs);
    }

    #[test]
    fn adaptive_plan_targets_bottleneck_and_refuses_what_cannot_overlap() {
        // stage 1 is 4x slower: the 3 extra workers of a 4-thread host
        // must all go there
        let plan = ReplicationPlan::adaptive(&[100, 400, 100], 4).unwrap();
        assert_eq!(plan.factors, vec![1, 4, 1]);
        // the cap holds even with a surplus thread budget
        let capped = ReplicationPlan::adaptive(&[100, 4000, 100], 64).unwrap();
        assert_eq!(capped.factors[1], ReplicationPlan::MAX_FACTOR);
        // equal stages: workers spread rather than stack
        let even = ReplicationPlan::adaptive(&[100, 100], 3).unwrap();
        assert_eq!(even.factors, vec![2, 2]);
        // the documented lose-to-sequential cases: one hardware thread
        // time-slices the workers, one stage has nothing to overlap
        assert!(ReplicationPlan::adaptive(&[100, 400, 100], 1).is_none());
        assert!(ReplicationPlan::adaptive(&[100, 400, 100], 0).is_none());
        assert!(ReplicationPlan::adaptive(&[900], 4).is_none());
        // uniform is all ones
        assert_eq!(ReplicationPlan::uniform(3).factors, vec![1, 1, 1]);
    }

    #[test]
    fn adaptive_run_is_bit_identical_and_falls_back_on_one_thread() {
        let design = tc1_design();
        let imgs = batch(&design, 10, 41);
        let engine = ThreadedEngine::new(&design);
        let seq = engine.run_sequential(&imgs);
        // 1-thread host: sequential fallback, uniform plan, bit-identical
        let (res1, prof1, plan1) = engine.run_adaptive_with_parallelism(&imgs, 1);
        assert_eq!(res1.outputs, seq.outputs);
        assert_eq!(plan1, ReplicationPlan::uniform(engine.stage_count()));
        assert!(prof1.stages.iter().all(|s| s.images == 10));
        // multi-thread host: warmup + replanned pipelined chunks, still
        // bit-identical and every image accounted for exactly once
        let (res4, prof4, plan4) = engine.run_adaptive_with_parallelism(&imgs, 4);
        assert_eq!(res4.outputs, seq.outputs);
        assert!(plan4.factors.iter().all(|&f| (1..=4).contains(&f)));
        assert!(prof4.stages.iter().all(|s| s.images == 10));
        assert!(res4.completion_times.windows(2).all(|w| w[0] <= w[1]));
        assert!(*res4.completion_times.last().unwrap() <= res4.total);
        // a tiny batch never outruns its warmup: sequential fallback
        let (res_tiny, _, plan_tiny) = engine.run_adaptive_with_parallelism(&imgs[..2], 4);
        assert_eq!(res_tiny.outputs, seq.outputs[..2]);
        assert_eq!(plan_tiny, ReplicationPlan::uniform(engine.stage_count()));
    }

    #[test]
    fn engine_live_cells_reconcile_with_profile_totals() {
        let design = tc1_design();
        let imgs = batch(&design, 8, 42);
        let engine = ThreadedEngine::new(&design);
        let live = engine.live_metrics();
        let engine = engine.with_live(live.clone());
        let (_, profile) =
            engine.run_with_plan(&imgs, &ReplicationPlan::uniform(engine.stage_count()));
        for (s, sp) in profile.stages.iter().enumerate() {
            let c = live.cell(s).counters();
            assert_eq!(c.items, sp.images, "{}", sp.name);
            assert_eq!(c.service, sp.service_total_ns, "{}", sp.name);
            assert_eq!(c.queue_wait, sp.queue_wait_total_ns, "{}", sp.name);
            assert_eq!(c.send_wait, sp.send_wait_total_ns, "{}", sp.name);
            // the cell histogram carries the same measurements
            let stats = live.cell(s).interval_stats();
            assert_eq!(stats.count, sp.images);
            assert_eq!(stats.total_ns, sp.service_total_ns);
            assert_eq!(stats.max_ns, sp.max_interval_ns);
        }
    }

    #[test]
    fn residual_graph_runs_bit_identical_to_hw_forward() {
        let design = crate::graph::fixtures::residual_graph(DesignConfig::default());
        let imgs = batch(&design, 6, 21);
        let engine = ThreadedEngine::new(&design);
        assert_eq!(
            engine.stage_names(),
            vec!["conv1", "conv2", "scaleshift1", "add4", "flatten", "fc1"]
        );
        let res = engine.run(&imgs);
        for (img, out) in imgs.iter().zip(res.outputs.iter()) {
            assert_eq!(out, &design.hw_forward(img), "engine must be bit-exact");
        }
    }

    #[test]
    fn residual_graph_replication_preserves_order() {
        // the skip operand rides the bundle across three stages; dealing
        // must keep operand pairs together under any replication plan
        let design = crate::graph::fixtures::residual_graph(DesignConfig::default());
        let imgs = batch(&design, 9, 22);
        let engine = ThreadedEngine::new(&design);
        let seq = engine.run_sequential(&imgs);
        for factors in [vec![1, 1, 1, 1, 1, 1], vec![2, 3, 1, 2, 1, 2]] {
            let plan = ReplicationPlan { factors };
            let (res, profile) = engine.run_with_plan(&imgs, &plan);
            assert_eq!(res.outputs, seq.outputs, "plan {:?}", plan.factors);
            assert!(profile.stages.iter().all(|s| s.images == 9));
        }
    }

    #[test]
    fn bundle_plans_keep_the_skip_operand_alive() {
        let design = crate::graph::fixtures::residual_graph(DesignConfig::default());
        let engine = ThreadedEngine::new(&design);
        // stage order: conv1, conv2, scaleshift1, add4, flatten, fc1.
        // conv1's output must survive conv2 and scaleshift1 (slot 0) so
        // add4 can read both operands from its bundle
        assert_eq!(engine.plans[1].keep, vec![0], "conv2 keeps the trunk");
        assert_eq!(engine.plans[2].keep, vec![0], "scaleshift keeps the trunk");
        assert_eq!(engine.plans[3].in_slots.len(), 2, "add reads two slots");
        assert!(engine.plans[3].keep.is_empty(), "add consumes both");
        // chains degenerate to single-slot bundles
        let chain = ThreadedEngine::new(&tc1_design());
        assert!(chain.plans.iter().all(|p| p.keep.is_empty()));
        assert!(chain.plans.iter().all(|p| p.in_slots == vec![0]));
    }
}
