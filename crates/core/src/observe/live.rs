//! Live telemetry: lock-free in-flight metrics, sampled snapshots and
//! streaming exporters.
//!
//! The flight recorder answers *where did the time go* only after a
//! run completes. This module makes the same counters observable **while
//! the run executes**: every engine (dense sim, event sim, threaded host)
//! can be handed a [`LiveMetrics`] handle — one lock-free [`MetricCell`]
//! per stage/actor — and bumps it with relaxed atomic adds. A [`Sampler`] turns the monotone cumulative counters into
//! periodic [`MetricsSnapshot`] *deltas* on a configurable tick, and two
//! exporters stream them out: Prometheus-style text exposition
//! ([`LiveMetrics::render_prometheus`]) and a JSONL time-series
//! ([`snapshots_to_jsonl`]) that also feeds the Perfetto counter tracks
//! ([`crate::trace::Trace::to_chrome_json_with_metrics`]).
//!
//! # The reconciliation invariant
//!
//! Telemetry is only trustworthy if it cannot drift from the post-hoc
//! truth, so each counter has one store. In the simulator the recorder's
//! [`crate::trace::ActorStallStats`] are the one store of the stall
//! counters: it adds to the cells what they gained since its last
//! publish, at every sampler tick and when the run ends (initiations and
//! their intervals go into the cells as they happen). In the threaded
//! engine the cells are the one store: each worker writes every measured
//! `u64` once, into its stage's cell, and the engine reads a run's
//! [`crate::exec::PipelineProfile`] back as what the cells gained over
//! that run. Consequently, for any run:
//!
//! * summing all snapshot deltas per stage reproduces the final
//!   [`crate::trace::ActorStallStats`] counters (and therefore the time
//!   columns of the [`crate::observe::RunReport`]) **exactly** — no
//!   rounding, no sampling loss;
//! * the threaded engine's [`crate::exec::StageProfile`] totals equal
//!   what the cells gained during the run exactly, so the profiles of
//!   the runs that share a plane sum to its cumulative totals.
//!
//! `tests/live_telemetry.rs` pins both, on the paper test cases and on
//! the random-design corpus, and on a host plane reused across runs.
//!
//! One caveat inherited from the event-driven scheduler: sleeping actors
//! are billed lazily (back-fill at the next tick), so a *mid-run*
//! snapshot can lag the dense sweep's view of the same cycle. Only the
//! sum of all deltas — equivalently, the final cumulative totals — is
//! scheduler-independent.
//!
//! # Memory ordering
//!
//! All cell operations use `Ordering::Relaxed`: each counter is
//! individually monotone, samplers only ever read (possibly slightly
//! stale) points on that monotone staircase, and exact reconciliation is
//! read after the run's threads have joined — a happens-before edge that
//! makes the final totals precise without any fences in the hot path.

use crate::trace::{bucket_of, IntervalStats};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Schema version stamped into every serialised observability record
/// ([`MetricsSnapshot`], [`crate::observe::RunReport`]), so exporter
/// consumers can evolve safely. Version 2: the run report carries the
/// drift columns in its stage rows.
pub const SCHEMA_VERSION: u32 = 2;

/// The time unit a telemetry source counts in: the cycle-accurate
/// simulator bills simulated **cycles**, the threaded host engine bills
/// wall-clock **nanoseconds**. Carried in every snapshot so exporters can
/// label axes without guessing the producer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum MetricUnit {
    /// Simulated fabric cycles (cycle simulator, both schedulers).
    Cycles,
    /// Wall-clock nanoseconds (threaded host engine).
    Nanos,
}

impl MetricUnit {
    /// Lower-case label for exposition formats.
    pub fn label(&self) -> &'static str {
        match self {
            MetricUnit::Cycles => "cycles",
            MetricUnit::Nanos => "ns",
        }
    }
}

/// A point-in-time copy of one cell's cumulative counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellCounters {
    /// Work items completed: compute initiations in the simulator, whole
    /// images in the threaded host engine.
    pub items: u64,
    /// Time spent doing work (`Stall::Computing` cycles / worker busy ns).
    pub service: u64,
    /// Time blocked waiting for input (`Stall::Starved` / queue wait).
    pub queue_wait: u64,
    /// Time blocked pushing output (`Stall::Backpressured` / send wait).
    pub send_wait: u64,
    /// Time with nothing to do (`Stall::Idle`; 0 on the host engine).
    pub idle: u64,
}

impl CellCounters {
    /// What the counters gained since `last`, an earlier copy of the same cell.
    pub(crate) fn delta_since(&self, last: &CellCounters) -> CellCounters {
        CellCounters {
            items: self.items - last.items,
            service: self.service - last.service,
            queue_wait: self.queue_wait - last.queue_wait,
            send_wait: self.send_wait - last.send_wait,
            idle: self.idle - last.idle,
        }
    }

    fn accumulate(&mut self, d: &CellCounters) {
        self.items += d.items;
        self.service += d.service;
        self.queue_wait += d.queue_wait;
        self.send_wait += d.send_wait;
        self.idle += d.idle;
    }
}

/// One stage's (or actor's) lock-free metric cell: monotone atomic
/// counters plus a fixed 64-bucket power-of-two interval histogram — the
/// same bucket scheme as [`IntervalStats`], so live quantiles and
/// post-hoc quantiles agree bit-for-bit. All writes are single relaxed
/// `fetch_add`s (plus a `fetch_min`/`fetch_max` pair per interval), cheap
/// enough for every engine's hot path.
#[derive(Debug)]
pub struct MetricCell {
    items: AtomicU64,
    service: AtomicU64,
    queue_wait: AtomicU64,
    send_wait: AtomicU64,
    idle: AtomicU64,
    int_count: AtomicU64,
    int_total: AtomicU64,
    int_max: AtomicU64,
    /// `u64::MAX` until the first interval lands.
    int_min: AtomicU64,
    int_buckets: [AtomicU64; 64],
}

impl MetricCell {
    fn new() -> Self {
        MetricCell {
            items: AtomicU64::new(0),
            service: AtomicU64::new(0),
            queue_wait: AtomicU64::new(0),
            send_wait: AtomicU64::new(0),
            idle: AtomicU64::new(0),
            int_count: AtomicU64::new(0),
            int_total: AtomicU64::new(0),
            int_max: AtomicU64::new(0),
            int_min: AtomicU64::new(u64::MAX),
            int_buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Count `n` completed work items (initiations / images).
    #[inline]
    pub fn add_items(&self, n: u64) {
        self.items.fetch_add(n, Ordering::Relaxed);
    }

    /// Bill `n` units of service time (busy compute).
    #[inline]
    pub fn add_service(&self, n: u64) {
        self.service.fetch_add(n, Ordering::Relaxed);
    }

    /// Bill `n` units blocked waiting for input.
    #[inline]
    pub fn add_queue_wait(&self, n: u64) {
        self.queue_wait.fetch_add(n, Ordering::Relaxed);
    }

    /// Bill `n` units blocked pushing output downstream.
    #[inline]
    pub fn add_send_wait(&self, n: u64) {
        self.send_wait.fetch_add(n, Ordering::Relaxed);
    }

    /// Bill `n` units with nothing to do.
    #[inline]
    pub fn add_idle(&self, n: u64) {
        self.idle.fetch_add(n, Ordering::Relaxed);
    }

    /// Record one measured interval (inter-initiation gap in cycles, or
    /// per-image service time in ns) into the fixed-bucket histogram.
    #[inline]
    pub fn record_interval(&self, v: u64) {
        self.int_count.fetch_add(1, Ordering::Relaxed);
        self.int_total.fetch_add(v, Ordering::Relaxed);
        self.int_max.fetch_max(v, Ordering::Relaxed);
        self.int_min.fetch_min(v, Ordering::Relaxed);
        self.int_buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot the cumulative counters.
    pub fn counters(&self) -> CellCounters {
        CellCounters {
            items: self.items.load(Ordering::Relaxed),
            service: self.service.load(Ordering::Relaxed),
            queue_wait: self.queue_wait.load(Ordering::Relaxed),
            send_wait: self.send_wait.load(Ordering::Relaxed),
            idle: self.idle.load(Ordering::Relaxed),
        }
    }

    /// Fold the live histogram back into an [`IntervalStats`], reusing
    /// its quantile machinery (the buckets are bit-compatible).
    pub fn interval_stats(&self) -> IntervalStats {
        let count = self.int_count.load(Ordering::Relaxed);
        let min = self.int_min.load(Ordering::Relaxed);
        IntervalStats::from_raw(
            count,
            self.int_total.load(Ordering::Relaxed),
            self.int_max.load(Ordering::Relaxed),
            if count == 0 { 0 } else { min },
            std::array::from_fn(|b| self.int_buckets[b].load(Ordering::Relaxed)),
        )
    }
}

/// The shared metrics plane of one engine instance: one named
/// [`MetricCell`] per stage/actor, in pipeline/actor order. `Sync` by
/// construction (all state is atomic), handed around as an `Arc` so
/// samplers, exporters and the engine observe the same cells
/// concurrently.
#[derive(Debug)]
pub struct LiveMetrics {
    unit: MetricUnit,
    names: Vec<String>,
    cells: Vec<MetricCell>,
}

impl LiveMetrics {
    /// A fresh metrics plane with one zeroed cell per name.
    pub fn new(unit: MetricUnit, names: Vec<String>) -> Arc<Self> {
        let cells = names.iter().map(|_| MetricCell::new()).collect();
        Arc::new(LiveMetrics { unit, names, cells })
    }

    /// The unit every counter in this plane is billed in.
    pub fn unit(&self) -> MetricUnit {
        self.unit
    }

    /// Number of cells (== stages/actors).
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the plane has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Stage/actor names, in cell order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The cell of stage/actor `i`.
    pub fn cell(&self, i: usize) -> &MetricCell {
        &self.cells[i]
    }

    /// Cumulative counters of every cell, in cell order.
    pub fn totals(&self) -> Vec<CellCounters> {
        self.cells.iter().map(|c| c.counters()).collect()
    }

    /// Prometheus-style text exposition of the *cumulative* counters —
    /// the pull-model exporter: serve this string from a `/metrics`
    /// endpoint (or just print it) at any point during a run.
    pub fn render_prometheus(&self) -> String {
        let unit = self.unit.label();
        let mut out = String::new();
        type Series = (&'static str, fn(&CellCounters) -> u64, &'static str);
        let series: [Series; 5] = [
            (
                "dfcnn_stage_items_total",
                |c| c.items,
                "Work items completed (initiations or images)",
            ),
            (
                "dfcnn_stage_busy_total",
                |c| c.service,
                "Time spent computing",
            ),
            (
                "dfcnn_stage_queue_wait_total",
                |c| c.queue_wait,
                "Time blocked waiting for input",
            ),
            (
                "dfcnn_stage_send_wait_total",
                |c| c.send_wait,
                "Time blocked pushing output downstream",
            ),
            (
                "dfcnn_stage_idle_total",
                |c| c.idle,
                "Time with nothing to do",
            ),
        ];
        let totals = self.totals();
        for (name, get, help) in series {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n"));
            for (stage, c) in self.names.iter().zip(&totals) {
                out.push_str(&format!(
                    "{name}{{stage=\"{stage}\",unit=\"{unit}\"}} {}\n",
                    get(c)
                ));
            }
        }
        out.push_str(
            "# HELP dfcnn_stage_interval_p99 p99 of the measured stage interval\n\
             # TYPE dfcnn_stage_interval_p99 gauge\n",
        );
        for (stage, cell) in self.names.iter().zip(&self.cells) {
            out.push_str(&format!(
                "dfcnn_stage_interval_p99{{stage=\"{stage}\",unit=\"{unit}\"}} {}\n",
                cell.interval_stats().p99_ns()
            ));
        }
        out
    }
}

/// One stage's counter *deltas* since the previous snapshot, plus the
/// cumulative interval p99 at sample time (a gauge, not a delta).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageDelta {
    /// Stage / actor name.
    pub stage: String,
    /// Work items completed in the interval.
    pub items: u64,
    /// Service time billed in the interval.
    pub service: u64,
    /// Input-wait time billed in the interval.
    pub queue_wait: u64,
    /// Output-wait time billed in the interval.
    pub send_wait: u64,
    /// Idle time billed in the interval.
    pub idle: u64,
    /// Cumulative p99 of the measured stage interval at sample time.
    pub p99_interval: u64,
}

/// One sampler tick: per-stage deltas since the previous snapshot. The
/// deltas are exact differences of the monotone cumulative counters, so
/// summing every snapshot of a run reproduces the final totals with no
/// loss — the reconciliation invariant the tests pin.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Serialisation schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Monotone snapshot sequence number, from 0.
    pub seq: u64,
    /// Sample timestamp: cycles since run start ([`MetricUnit::Cycles`])
    /// or nanoseconds since sampler start ([`MetricUnit::Nanos`]).
    pub at: u64,
    /// Unit of `at` and of every time-valued counter.
    pub unit: MetricUnit,
    /// Per-stage deltas, in cell order.
    pub stages: Vec<StageDelta>,
}

/// Turns the cumulative cells into periodic [`MetricsSnapshot`] deltas.
/// The baseline is captured at construction, so a sampler built for a
/// run reports that run's activity even when the cells carried earlier
/// traffic. Single-threaded by design — the simulator drives it inline
/// at cycle boundaries; the host engine's adaptive runner samples between
/// batch chunks to replan.
#[derive(Debug)]
pub struct Sampler {
    live: Arc<LiveMetrics>,
    last: Vec<CellCounters>,
    seq: u64,
    snapshots: Vec<MetricsSnapshot>,
}

impl Sampler {
    /// A sampler over `live`, baselined at the cells' current values.
    pub fn new(live: Arc<LiveMetrics>) -> Self {
        let last = live.totals();
        Sampler {
            live,
            last,
            seq: 0,
            snapshots: Vec::new(),
        }
    }

    /// The metrics plane this sampler reads.
    pub fn live(&self) -> &Arc<LiveMetrics> {
        &self.live
    }

    /// Take one snapshot at timestamp `at`: the delta of every cell since
    /// the previous snapshot (or the construction baseline).
    pub fn sample(&mut self, at: u64) -> &MetricsSnapshot {
        let cur = self.live.totals();
        let stages = self
            .live
            .names()
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let d = cur[i].delta_since(&self.last[i]);
                StageDelta {
                    stage: name.clone(),
                    items: d.items,
                    service: d.service,
                    queue_wait: d.queue_wait,
                    send_wait: d.send_wait,
                    idle: d.idle,
                    p99_interval: self.live.cell(i).interval_stats().p99_ns(),
                }
            })
            .collect();
        self.last = cur;
        let snap = MetricsSnapshot {
            schema_version: SCHEMA_VERSION,
            seq: self.seq,
            at,
            unit: self.live.unit(),
            stages,
        };
        self.seq += 1;
        self.snapshots.push(snap);
        self.snapshots.last().expect("just pushed")
    }

    /// Snapshots taken so far, in order.
    pub fn snapshots(&self) -> &[MetricsSnapshot] {
        &self.snapshots
    }

    /// Consume the sampler, returning the snapshot time-series.
    pub fn into_snapshots(self) -> Vec<MetricsSnapshot> {
        self.snapshots
    }
}

/// Sum every snapshot's deltas per stage — the reconciliation side of the
/// invariant: for a run sampled to completion (final flush included),
/// this equals the run's final cumulative counters exactly.
pub fn sum_deltas(snapshots: &[MetricsSnapshot]) -> Vec<(String, CellCounters)> {
    let mut acc: Vec<(String, CellCounters)> = Vec::new();
    for snap in snapshots {
        if acc.is_empty() {
            acc = snap
                .stages
                .iter()
                .map(|d| (d.stage.clone(), CellCounters::default()))
                .collect();
        }
        for (slot, d) in acc.iter_mut().zip(&snap.stages) {
            debug_assert_eq!(slot.0, d.stage);
            slot.1.accumulate(&CellCounters {
                items: d.items,
                service: d.service,
                queue_wait: d.queue_wait,
                send_wait: d.send_wait,
                idle: d.idle,
            });
        }
    }
    acc
}

/// Render a snapshot time-series as JSONL (one [`MetricsSnapshot`] per
/// line) — the push-model exporter, written alongside the Perfetto trace.
pub fn snapshots_to_jsonl(snapshots: &[MetricsSnapshot]) -> String {
    let mut out = String::new();
    for snap in snapshots {
        out.push_str(&serde_json::to_string(snap).expect("snapshot renders"));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane() -> Arc<LiveMetrics> {
        LiveMetrics::new(
            MetricUnit::Cycles,
            vec!["conv1".to_string(), "fc1".to_string()],
        )
    }

    #[test]
    fn cells_accumulate_the_stall_taxonomy() {
        let live = plane();
        live.cell(0).add_service(5);
        live.cell(0).add_queue_wait(3);
        live.cell(0).add_send_wait(2);
        live.cell(0).add_idle(7);
        live.cell(0).add_items(4);
        let c = live.cell(0).counters();
        assert_eq!(
            c,
            CellCounters {
                items: 4,
                service: 5,
                queue_wait: 3,
                send_wait: 2,
                idle: 7
            }
        );
        assert_eq!(live.cell(1).counters(), CellCounters::default());
    }

    #[test]
    fn cell_histogram_matches_interval_stats() {
        let live = plane();
        let mut reference = IntervalStats::new();
        for v in [3u64, 17, 17, 900, 4] {
            live.cell(0).record_interval(v);
            reference.record(v);
        }
        assert_eq!(live.cell(0).interval_stats(), reference);
        // an untouched cell folds to the empty series
        assert_eq!(live.cell(1).interval_stats(), IntervalStats::new());
    }

    #[test]
    fn sampler_deltas_sum_to_totals() {
        let live = plane();
        let mut sampler = Sampler::new(live.clone());
        live.cell(0).add_service(10);
        live.cell(0).add_items(1);
        sampler.sample(100);
        live.cell(0).add_service(5);
        live.cell(1).add_queue_wait(8);
        sampler.sample(200);
        let snaps = sampler.snapshots();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].stages[0].service, 10);
        assert_eq!(snaps[1].stages[0].service, 5);
        assert_eq!(snaps[1].stages[1].queue_wait, 8);
        assert_eq!(snaps[0].seq, 0);
        assert_eq!(snaps[1].seq, 1);
        let summed = sum_deltas(snaps);
        assert_eq!(summed.len(), 2);
        for (i, (name, acc)) in summed.iter().enumerate() {
            assert_eq!(name, &live.names()[i]);
            assert_eq!(acc, &live.cell(i).counters());
        }
    }

    #[test]
    fn sampler_baselines_at_construction() {
        let live = plane();
        live.cell(0).add_service(100); // pre-existing traffic
        let mut sampler = Sampler::new(live.clone());
        live.cell(0).add_service(7);
        let snap = sampler.sample(1);
        assert_eq!(snap.stages[0].service, 7, "baseline must exclude history");
    }

    #[test]
    fn snapshot_serde_round_trips_with_schema_version() {
        let live = plane();
        let mut sampler = Sampler::new(live.clone());
        live.cell(0).add_items(3);
        live.cell(0).record_interval(12);
        let snap = sampler.sample(64).clone();
        assert_eq!(snap.schema_version, SCHEMA_VERSION);
        let json = serde_json::to_string(&snap).unwrap();
        assert!(json.contains("\"schema_version\""));
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        // the JSONL exporter is one parseable snapshot per line
        let jsonl = snapshots_to_jsonl(sampler.snapshots());
        assert_eq!(jsonl.lines().count(), 1);
        let parsed: MetricsSnapshot = serde_json::from_str(jsonl.lines().next().unwrap()).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn prometheus_exposition_names_every_series() {
        let live = plane();
        live.cell(0).add_items(9);
        live.cell(0).add_service(21);
        live.cell(0).record_interval(40);
        let text = live.render_prometheus();
        assert!(text.contains("# TYPE dfcnn_stage_items_total counter"));
        assert!(text.contains("dfcnn_stage_items_total{stage=\"conv1\",unit=\"cycles\"} 9"));
        assert!(text.contains("dfcnn_stage_busy_total{stage=\"conv1\",unit=\"cycles\"} 21"));
        assert!(text.contains("dfcnn_stage_idle_total{stage=\"fc1\",unit=\"cycles\"} 0"));
        assert!(text.contains("# TYPE dfcnn_stage_interval_p99 gauge"));
    }
}
