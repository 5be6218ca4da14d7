//! Flight-recorder analysis: one run report per run.
//!
//! The cycle simulator's stall taxonomy ([`crate::trace::ActorStallStats`])
//! and the threaded engine's wait timing ([`crate::exec::PipelineProfile`])
//! answer the same operational question — *where does the time of a
//! pipelined run go?* — in different units. This module folds both into
//! one serialisable [`RunReport`] with one [`StageRow`] per core. A
//! simulated run's rows also set the measurement beside the paper's
//! analytical model:
//!
//! - every core's **measured** steady-state interval (from the trace's
//!   initiation timestamps) must not exceed the Eq. 4 **predicted**
//!   pipeline interval — "the pipeline interval is its slowest stage time"
//!   (§IV-C) — plus the bottleneck's per-image SST fill allowance;
//! - every window engine's line-buffer high-water mark must respect the
//!   SST full-buffering bound;
//! - every FIFO's occupancy high-water mark ([`FifoRow`]) must respect its
//!   capacity.
//!
//! Each comparison sets a `within` flag here; [`crate::check::check_drift`]
//! turns the flags into typed diagnostics, which CI runs on the paper
//! designs.

use crate::exec::PipelineProfile;
use crate::graph::NetworkDesign;
use crate::sim::SimResult;
use crate::trace::Trace;
use serde::{Deserialize, Serialize};

pub mod live;

pub use live::SCHEMA_VERSION;

/// Minimum initiations for a steady-state interval estimate: the quartile
/// span needs enough samples to exclude pipeline fill and drain.
const MIN_INITIATIONS: usize = 8;

/// Relative tolerance on measured vs predicted pipeline interval.
const DRIFT_TOLERANCE: f64 = 0.05;

/// Absolute slack in cycles, so short runs aren't judged on noise.
const DRIFT_SLACK_CYCLES: f64 = 16.0;

/// Steady-state interval per sample from a sorted timestamp sequence: the
/// mean gap over the middle half (quartile span), which excludes the
/// pipeline fill at the start and the drain at the end.
fn quartile_interval(cycles: &[u64]) -> Option<f64> {
    if cycles.len() < MIN_INITIATIONS {
        return None;
    }
    let lo = cycles.len() / 4;
    let hi = cycles.len() * 3 / 4;
    if hi <= lo || cycles[hi] < cycles[lo] {
        return None;
    }
    Some((cycles[hi] - cycles[lo]) as f64 / (hi - lo) as f64)
}

/// One core's row: where its time went and, for a simulated run, how its
/// measurements compare with the analytical model. The drift columns are
/// `None` where nothing was measured: every one of them on a host-engine
/// report, the interval columns on endpoints, adapters and cores with too
/// few initiations, and the buffer columns on cores without a line buffer.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct StageRow {
    /// Stage / actor name.
    pub name: String,
    /// Time spent doing work (compute cycles, or worker busy time), ns.
    pub service_ns: f64,
    /// Time blocked waiting for input, ns.
    pub starved_ns: f64,
    /// Time blocked pushing output downstream, ns.
    pub backpressured_ns: f64,
    /// Time with nothing to do (pipeline fill/drain tails), ns. The
    /// threaded engine cannot distinguish idle from starved, so it reports
    /// 0 here and folds the tails into `starved_ns`.
    pub idle_ns: f64,
    /// Eq. 4 analytical stage interval (cycles per image).
    pub predicted_stage_interval: Option<u64>,
    /// Measured steady-state interval (cycles per image): quartile-span
    /// initiation gap times initiations per image.
    pub measured_interval: Option<f64>,
    /// Total initiations observed.
    pub initiations: Option<u64>,
    /// Whether the measured interval stays within tolerance of the
    /// predicted pipeline interval plus the bottleneck fill.
    pub within: Option<bool>,
    /// Peak per-port line-buffer occupancy.
    pub buffer_hwm: Option<usize>,
    /// The SST full-buffering bound on that occupancy.
    pub buffer_bound: Option<usize>,
    /// `buffer_hwm <= buffer_bound`.
    pub buffer_within: Option<bool>,
}

/// One FIFO's occupancy high-water mark against its capacity.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FifoRow {
    /// Channel index in allocation order.
    pub channel: usize,
    /// Committed-occupancy high-water mark.
    pub hwm: usize,
    /// FIFO capacity.
    pub capacity: usize,
    /// `hwm <= capacity`.
    pub within: bool,
}

/// The common observability record both engines emit: where each stage's
/// time went over one batch and, for a simulated run, how that compares
/// with the Eq. 4 model. Cycle counts are converted to nanoseconds so the
/// simulator's and the threaded engine's reports are comparable.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunReport {
    /// Serialisation schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Which engine produced the report (`cycle-sim` or `threaded-host`).
    pub engine: String,
    /// Batch size.
    pub batch: usize,
    /// Total run time in nanoseconds.
    pub total_ns: f64,
    /// Predicted bottleneck stage name (Eq. 4 / DMA rate).
    pub bottleneck_name: Option<String>,
    /// Predicted steady-state pipeline interval in cycles per image.
    pub predicted_pipeline_interval: Option<u64>,
    /// Per-image fill allowance: the bottleneck's SST line buffer refills
    /// at every image boundary (its full-buffering bound, §IV-A), dead
    /// time Eq. 4's steady-streaming interval does not count.
    pub bottleneck_fill: Option<u64>,
    /// Per-stage rows, in pipeline (actor) order.
    pub stages: Vec<StageRow>,
    /// Per-FIFO occupancy bounds (empty on a host-engine report).
    pub fifos: Vec<FifoRow>,
}

impl RunReport {
    /// Build from a simulation at the design's core clock. The time
    /// columns come from the run's stall taxonomy (zero when the run
    /// recorded none); the measured intervals come from `trace`'s
    /// initiation timestamps, so they need a traced run.
    pub fn from_sim(design: &NetworkDesign, res: &SimResult, trace: &Trace) -> Self {
        let ns_per_cycle = 1e9 / design.config().clock_hz as f64;
        let (bottleneck_name, predicted) = design.estimated_bottleneck();
        let stage_intervals = design.estimate_stage_intervals();
        let batch = res.completions.len();
        // The realized per-image period is the Eq. 4 bottleneck interval
        // plus the bottleneck's SST fill at each image boundary (the line
        // buffer drains after an image's last window and must refill to
        // its full-buffering bound before the next image's first); the
        // relative tolerance absorbs row-turnaround bubbles.
        let bottleneck_fill = res
            .actor_stats
            .iter()
            .find(|s| s.name == bottleneck_name)
            .and_then(|s| s.buffer_hwm)
            .map(|(_, bound)| bound as u64)
            .unwrap_or(0);
        let limit =
            (predicted + bottleneck_fill) as f64 * (1.0 + DRIFT_TOLERANCE) + DRIFT_SLACK_CYCLES;

        let stages = res
            .actor_stats
            .iter()
            .enumerate()
            .map(|(i, stats)| {
                let predicted_stage = stage_intervals
                    .iter()
                    .find(|(n, _)| n == &stats.name)
                    .map(|&(_, cyc)| cyc);
                // Move-only cores (forks, joins, scale-shifts) record one
                // `Emit` per value instead of compute initiations; for
                // those the emit stream is the steady-state signal. Only
                // design cores qualify — endpoints and port adapters also
                // emit but have no Eq. 4 stage interval to drift from.
                let measured = quartile_interval(&trace.initiation_cycles(&stats.name))
                    .or_else(|| {
                        predicted_stage
                            .and_then(|_| quartile_interval(&trace.emit_cycles(&stats.name)))
                    })
                    .map(|gap| gap * (stats.initiations as f64 / batch.max(1) as f64));
                let time = res.stalls.get(i).cloned().unwrap_or_default();
                let (buffer_hwm, buffer_bound) = stats.buffer_hwm.unzip();
                StageRow {
                    name: stats.name.clone(),
                    service_ns: time.computing as f64 * ns_per_cycle,
                    starved_ns: time.starved_total() as f64 * ns_per_cycle,
                    backpressured_ns: time.backpressured_total() as f64 * ns_per_cycle,
                    idle_ns: time.idle as f64 * ns_per_cycle,
                    predicted_stage_interval: measured.map(|_| predicted_stage.unwrap_or(0)),
                    measured_interval: measured,
                    initiations: measured.map(|_| stats.initiations),
                    within: measured.map(|m| m <= limit),
                    buffer_hwm,
                    buffer_bound,
                    buffer_within: stats.buffer_hwm.map(|(hwm, bound)| hwm <= bound),
                }
            })
            .collect();

        let fifos = res
            .fifo_stats
            .iter()
            .enumerate()
            .map(|(channel, f)| FifoRow {
                channel,
                hwm: f.max_occupancy,
                capacity: f.capacity,
                within: f.max_occupancy <= f.capacity,
            })
            .collect();

        RunReport {
            schema_version: SCHEMA_VERSION,
            engine: "cycle-sim".to_string(),
            batch,
            total_ns: res.cycles as f64 * ns_per_cycle,
            bottleneck_name: Some(bottleneck_name),
            predicted_pipeline_interval: Some(predicted),
            bottleneck_fill: Some(bottleneck_fill),
            stages,
            fifos,
        }
    }

    /// Build from a threaded-engine profile, with the drift columns empty.
    /// Uses the profile's per-stage totals, which are what the stages'
    /// live telemetry cells gained over the run (not mean × images, which
    /// loses the integer division's remainder), so the report reconciles
    /// bit-exactly with the cells.
    pub fn from_profile(profile: &PipelineProfile) -> Self {
        RunReport {
            schema_version: SCHEMA_VERSION,
            engine: "threaded-host".to_string(),
            batch: profile.batch,
            total_ns: profile.total_ns as f64,
            bottleneck_name: None,
            predicted_pipeline_interval: None,
            bottleneck_fill: None,
            stages: profile
                .stages
                .iter()
                .map(|s| StageRow {
                    name: s.name.clone(),
                    service_ns: s.service_total_ns as f64,
                    starved_ns: s.queue_wait_total_ns as f64,
                    backpressured_ns: s.send_wait_total_ns as f64,
                    idle_ns: 0.0,
                    ..StageRow::default()
                })
                .collect(),
            fifos: Vec::new(),
        }
    }

    /// Fixed-width text table for console output: the time columns of
    /// every stage, the drift columns where they were measured, and one
    /// line per line buffer.
    pub fn render(&self) -> String {
        let mut out = format!(
            "engine {} batch {} total {:.1} us\n",
            self.engine,
            self.batch,
            self.total_ns / 1e3
        );
        if let (Some(name), Some(predicted), Some(fill)) = (
            &self.bottleneck_name,
            self.predicted_pipeline_interval,
            self.bottleneck_fill,
        ) {
            out.push_str(&format!(
                "predicted bottleneck: {name} at {predicted} cycles/image + {fill} fill\n"
            ));
        }
        out.push_str(
            "stage        service_us  starved_us  blocked_us  idle_us  predicted  measured    init  ok\n",
        );
        for s in &self.stages {
            out.push_str(&format!(
                "{:<12} {:>10.1} {:>11.1} {:>11.1} {:>8.1}",
                s.name,
                s.service_ns / 1e3,
                s.starved_ns / 1e3,
                s.backpressured_ns / 1e3,
                s.idle_ns / 1e3,
            ));
            if let (Some(p), Some(m), Some(n), Some(ok)) = (
                s.predicted_stage_interval,
                s.measured_interval,
                s.initiations,
                s.within,
            ) {
                out.push_str(&format!(
                    " {p:>10} {m:>9.1} {n:>7} {:>3}",
                    if ok { "yes" } else { "NO" }
                ));
            }
            out.push('\n');
        }
        for s in &self.stages {
            if let (Some(hwm), Some(bound), Some(ok)) =
                (s.buffer_hwm, s.buffer_bound, s.buffer_within)
            {
                out.push_str(&format!(
                    "buffer {:<10} hwm {hwm:>5} / bound {bound:>5} {}\n",
                    s.name,
                    if ok { "ok" } else { "VIOLATION" }
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::StageProfile;

    #[test]
    fn quartile_interval_ignores_fill_and_drain() {
        // fill: 3 slow gaps, steady: gap 10, drain: slow again
        let mut cycles = vec![0u64, 50, 100, 150];
        for k in 0..12 {
            cycles.push(160 + k * 10);
        }
        cycles.push(800);
        let ii = quartile_interval(&cycles).unwrap();
        assert!((ii - 10.0).abs() < 2.0, "ii = {ii}");
    }

    #[test]
    fn quartile_interval_needs_enough_samples() {
        assert!(quartile_interval(&[0, 10, 20]).is_none());
        assert!(quartile_interval(&[]).is_none());
    }

    #[test]
    fn run_report_from_profile_uses_exact_totals() {
        let profile = PipelineProfile {
            stages: vec![StageProfile {
                name: "conv1".into(),
                replication: 1,
                images: 4,
                mean_interval_ns: 100,
                service_total_ns: 403,
                queue_wait_total_ns: 81,
                send_wait_total_ns: 22,
            }],
            batch: 4,
            total_ns: 1000,
        };
        let report = RunReport::from_profile(&profile);
        assert_eq!(report.engine, "threaded-host");
        assert_eq!(report.stages.len(), 1);
        // exact totals, not mean × images (which would say 400/80/20)
        assert_eq!(report.stages[0].service_ns, 403.0);
        assert_eq!(report.stages[0].starved_ns, 81.0);
        assert_eq!(report.stages[0].backpressured_ns, 22.0);
        assert!(report.stages[0].measured_interval.is_none());
        assert!(report.bottleneck_name.is_none() && report.fifos.is_empty());
        let json = serde_json::to_string(&report).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.stages[0].name, "conv1");
        assert_eq!(back.schema_version, SCHEMA_VERSION);
        assert!(json.contains("\"schema_version\""));
        assert!(report.render().contains("conv1"));
    }
}
