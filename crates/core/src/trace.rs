//! Event tracing and the flight recorder — a lightweight waveform
//! substitute.
//!
//! When enabled, actors record initiations, emissions and stalls; the
//! resulting log can be dumped as CSV for offline inspection (stage
//! occupancy over time, pipeline fill/drain behaviour — the kind of
//! insight an FPGA engineer would pull from an ILA capture), or as a
//! Chrome-trace JSON (`Trace::to_chrome_json`) that opens directly in
//! `ui.perfetto.dev` with one track per actor and duration slices for
//! compute and stall spans.
//!
//! Actor names are interned once into a [`ActorId`] table, so the enabled
//! hot path appends a small fixed-size record per event and the disabled
//! path costs one branch.

use crate::observe::live::LiveMetrics;
use crate::sim::Actor;
use crate::stream::ChannelSet;
use serde::{Deserialize, Serialize};

/// What happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// A compute core started a new window position / input element.
    Initiate,
    /// A value left an output port.
    Emit,
    /// An image's final value was collected.
    ImageDone,
    /// The whole run finished.
    Done,
}

/// An interned actor name — an index into the trace's name table. IDs are
/// assigned in first-occurrence order, which both schedulers visit
/// identically, so traces from the dense sweep and the event-driven fast
/// path compare equal structurally.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ActorId(pub u16);

/// One trace record.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Event {
    /// Simulation cycle.
    pub cycle: u64,
    /// Interned actor name.
    pub actor: ActorId,
    /// Event kind.
    pub kind: EventKind,
}

/// Why an actor made no forward progress on a cycle — the per-cycle stall
/// taxonomy of the flight recorder. `Computing` covers every cycle with
/// work in flight (values moved, a window initiated, pipeline latency or
/// an initiation-interval timer elapsing); the port payloads say *which*
/// input ran dry or *which* output FIFO pushed back.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Stall {
    /// Work in flight: values moved, or latency/II timers are running.
    Computing,
    /// Wants input on this port, and the upstream FIFO is empty.
    Starved(usize),
    /// Has output for this port, and the downstream FIFO is full.
    Backpressured(usize),
    /// Nothing to do (before first input / after last output).
    Idle,
}

impl Stall {
    /// Short label for rendering ("compute", "starved", ...).
    pub fn label(&self) -> &'static str {
        match self {
            Stall::Computing => "compute",
            Stall::Starved(_) => "starved",
            Stall::Backpressured(_) => "backpressured",
            Stall::Idle => "idle",
        }
    }
}

/// A run of consecutive cycles with one stall classification; `end` is
/// exclusive. The per-actor span lists are the Perfetto track content.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StallSpan {
    /// First cycle of the span.
    pub start: u64,
    /// One past the last cycle of the span.
    pub end: u64,
    /// The classification holding over `[start, end)`.
    pub class: Stall,
}

/// Accumulated stall counters for one actor. The accounting identity
/// `computing + idle + starved + backpressured == total run cycles` holds
/// for every actor — each cycle is classified exactly once.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActorStallStats {
    /// Actor name.
    pub name: String,
    /// Cycles with work in flight.
    pub computing: u64,
    /// Cycles with nothing to do.
    pub idle: u64,
    /// Starved cycles, per input port (grown on demand).
    pub starved: Vec<u64>,
    /// Backpressured cycles, per output port (grown on demand).
    pub backpressured: Vec<u64>,
}

impl ActorStallStats {
    /// Total starved cycles across ports.
    pub fn starved_total(&self) -> u64 {
        self.starved.iter().sum()
    }

    /// Total backpressured cycles across ports.
    pub fn backpressured_total(&self) -> u64 {
        self.backpressured.iter().sum()
    }

    /// All classified cycles — equals the run's cycle count.
    pub fn total(&self) -> u64 {
        self.computing + self.idle + self.starved_total() + self.backpressured_total()
    }

    fn add(&mut self, class: Stall, n: u64) {
        match class {
            Stall::Computing => self.computing += n,
            Stall::Idle => self.idle += n,
            Stall::Starved(p) => {
                if self.starved.len() <= p {
                    self.starved.resize(p + 1, 0);
                }
                self.starved[p] += n;
            }
            Stall::Backpressured(p) => {
                if self.backpressured.len() <= p {
                    self.backpressured.resize(p + 1, 0);
                }
                self.backpressured[p] += n;
            }
        }
    }
}

/// Accumulates the per-actor, per-cycle stall taxonomy during a run.
///
/// Both schedulers tick an observed actor through [`StallRecorder::tick`].
/// The dense reference sweep does so for every actor on every cycle; the
/// event-driven fast path only on cycles an actor actually ticks, and the
/// recorder synthesizes the skipped span from the classification captured
/// when the actor went to sleep ([`StallRecorder::set_sleep`]). Because a
/// sleeping actor's wired channels are frozen until a change wakes it by
/// the next cycle, the synthesized span is exactly what the dense sweep
/// would have recorded — the engine-conformance tests pin this cycle for
/// cycle.
///
/// The [`ActorStallStats`] are the one store of the stall counters. The
/// live telemetry cells ([`crate::observe::live`]) are derived from them:
/// [`StallRecorder::publish`] adds what the stats gained since its last
/// call, at every sampler tick and when the run ends.
#[derive(Clone, Debug)]
pub(crate) struct StallRecorder {
    /// Next cycle not yet classified, per actor.
    counted_to: Vec<u64>,
    /// Classification to back-fill skipped cycles with, per actor.
    sleep_class: Vec<Stall>,
    stats: Vec<ActorStallStats>,
    tracks: Vec<Vec<StallSpan>>,
    /// Cycle of each actor's previous initiation, for the live interval
    /// histogram.
    prev_init: Vec<Option<u64>>,
    /// Per actor, the `[computing, starved, backpressured, idle]` totals
    /// as last published to the live cells.
    published: Vec<[u64; 4]>,
}

impl StallRecorder {
    pub(crate) fn new(names: Vec<String>) -> Self {
        let n = names.len();
        StallRecorder {
            counted_to: vec![0; n],
            sleep_class: vec![Stall::Idle; n],
            stats: names
                .into_iter()
                .map(|name| ActorStallStats {
                    name,
                    ..ActorStallStats::default()
                })
                .collect(),
            tracks: vec![Vec::new(); n],
            prev_init: vec![None; n],
            published: vec![[0; 4]; n],
        }
    }

    /// Tick actor `i` at `cycle` and record it. The post-tick
    /// [`Actor::stall`] classification both labels the tick when it did no
    /// observable work (moved no value, initiated nothing) and is captured
    /// as the class skipped cycles will be billed to if the actor now
    /// sleeps; the dense sweep never skips a cycle, so only the
    /// event-driven scheduler bills it. With `live`, the actor's new
    /// initiations and the gap since its previous one go into its cell as
    /// they happen.
    pub(crate) fn tick(
        &mut self,
        i: usize,
        cycle: u64,
        actor: &mut dyn Actor,
        chans: &mut ChannelSet,
        trace: &mut Trace,
        live: Option<&LiveMetrics>,
    ) {
        let before_act = chans.activity();
        let before_inits = actor.initiations();
        actor.tick(cycle, chans, trace);
        let inits = actor.initiations() - before_inits;
        let st = actor.stall(chans);
        let worked = chans.activity() != before_act || inits > 0;
        self.note(i, cycle, if worked { Stall::Computing } else { st });
        self.set_sleep(i, st);
        if let Some(live) = live.filter(|_| inits > 0) {
            let cell = live.cell(i);
            cell.add_items(inits);
            if let Some(p) = self.prev_init[i] {
                cell.record_interval(cycle - p);
            }
            self.prev_init[i] = Some(cycle);
        }
    }

    /// Add to `live`'s cells what each actor's stall counters gained since
    /// the last publish. The cell layout must match the recorder's actor
    /// order.
    pub(crate) fn publish(&mut self, live: &LiveMetrics) {
        for (i, s) in self.stats.iter().enumerate() {
            let now = [
                s.computing,
                s.starved_total(),
                s.backpressured_total(),
                s.idle,
            ];
            let last = std::mem::replace(&mut self.published[i], now);
            let cell = live.cell(i);
            cell.add_service(now[0] - last[0]);
            cell.add_queue_wait(now[1] - last[1]);
            cell.add_send_wait(now[2] - last[2]);
            cell.add_idle(now[3] - last[3]);
        }
    }

    /// Add `n` cycles of `class` for actor `i`, merging consecutive
    /// same-class runs into a single span. The merge makes the dense
    /// engine's cycle-at-a-time adds and the event engine's bulk adds
    /// produce identical span lists.
    fn add(&mut self, i: usize, class: Stall, n: u64) {
        if n == 0 {
            return;
        }
        self.stats[i].add(class, n);
        let start = self.counted_to[i];
        let track = &mut self.tracks[i];
        match track.last_mut() {
            Some(last) if last.class == class && last.end == start => last.end = start + n,
            _ => track.push(StallSpan {
                start,
                end: start + n,
                class,
            }),
        }
        self.counted_to[i] = start + n;
    }

    /// Classify actor `i`'s tick at `cycle`, back-filling any skipped
    /// cycles since its last tick with the captured sleep classification.
    pub(crate) fn note(&mut self, i: usize, cycle: u64, class: Stall) {
        if cycle > self.counted_to[i] {
            let gap = cycle - self.counted_to[i];
            self.add(i, self.sleep_class[i], gap);
        }
        self.add(i, class, 1);
    }

    /// Capture the classification skipped cycles will be billed to while
    /// actor `i` sleeps (event-driven engine only).
    pub(crate) fn set_sleep(&mut self, i: usize, class: Stall) {
        self.sleep_class[i] = class;
    }

    /// Close out the run at `cycles`, back-filling trailing sleep, and
    /// publish the final counters to `live`.
    pub(crate) fn finish(
        mut self,
        cycles: u64,
        live: Option<&LiveMetrics>,
    ) -> (Vec<ActorStallStats>, Vec<Vec<StallSpan>>) {
        for i in 0..self.counted_to.len() {
            if cycles > self.counted_to[i] {
                let gap = cycles - self.counted_to[i];
                self.add(i, self.sleep_class[i], gap);
            }
        }
        if let Some(live) = live {
            self.publish(live);
        }
        (self.stats, self.tracks)
    }
}

/// An event log; a disabled trace discards everything at negligible cost.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    enabled: bool,
    names: Vec<String>,
    events: Vec<Event>,
    tracks: Vec<(String, Vec<StallSpan>)>,
}

impl Trace {
    /// A trace that discards all events.
    pub fn disabled() -> Self {
        Trace {
            enabled: false,
            ..Trace::default()
        }
    }

    /// A recording trace.
    pub fn enabled() -> Self {
        Trace {
            enabled: true,
            ..Trace::default()
        }
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Intern an actor name (assigns IDs in first-occurrence order).
    fn intern(&mut self, actor: &str) -> ActorId {
        match self.names.iter().position(|n| n == actor) {
            Some(i) => ActorId(i as u16),
            None => {
                assert!(self.names.len() < u16::MAX as usize, "too many actors");
                self.names.push(actor.to_string());
                ActorId((self.names.len() - 1) as u16)
            }
        }
    }

    /// The interned ID of an actor, if it has recorded anything.
    pub fn actor_id(&self, actor: &str) -> Option<ActorId> {
        self.names
            .iter()
            .position(|n| n == actor)
            .map(|i| ActorId(i as u16))
    }

    /// Resolve an interned ID back to the actor name.
    pub fn actor_name(&self, id: ActorId) -> &str {
        &self.names[id.0 as usize]
    }

    /// Record an event (no-op when disabled). The name is interned, so
    /// the enabled hot path does no per-event allocation after an actor's
    /// first event.
    #[inline]
    pub fn record(&mut self, cycle: u64, actor: &str, kind: EventKind) {
        if self.enabled {
            let actor = self.intern(actor);
            self.events.push(Event { cycle, actor, kind });
        }
    }

    /// The recorded events.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Events of one actor.
    pub fn for_actor<'a>(&'a self, actor: &str) -> impl Iterator<Item = &'a Event> + 'a {
        let id = self.actor_id(actor);
        self.events.iter().filter(move |e| Some(e.actor) == id)
    }

    /// Render as CSV (`cycle,actor,kind`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("cycle,actor,kind\n");
        for e in &self.events {
            out.push_str(&format!(
                "{},{},{:?}\n",
                e.cycle,
                self.actor_name(e.actor),
                e.kind
            ));
        }
        out
    }

    /// Initiation cycles of one actor — the raw series behind a stage
    /// occupancy plot.
    pub fn initiation_cycles(&self, actor: &str) -> Vec<u64> {
        self.for_actor(actor)
            .filter(|e| e.kind == EventKind::Initiate)
            .map(|e| e.cycle)
            .collect()
    }

    /// Cycles at which the given actor emitted a value. Move-only cores
    /// (forks, eltwise-adds, concats, scale-shifts) never record compute
    /// initiations — each moved value's `Emit` is their throughput signal.
    pub fn emit_cycles(&self, actor: &str) -> Vec<u64> {
        self.for_actor(actor)
            .filter(|e| e.kind == EventKind::Emit)
            .map(|e| e.cycle)
            .collect()
    }

    /// The flight recorder's per-actor stall span tracks (actor name plus
    /// its chronological span list), populated by the simulator when
    /// tracing is enabled.
    pub fn stall_tracks(&self) -> &[(String, Vec<StallSpan>)] {
        &self.tracks
    }

    pub(crate) fn set_stall_tracks(&mut self, tracks: Vec<(String, Vec<StallSpan>)>) {
        self.tracks = tracks;
    }

    /// Render the stall tracks as a Chrome-trace / Perfetto JSON string:
    /// one track (`tid`) per actor, a complete-event slice per compute or
    /// stall span (idle spans are omitted), timestamps in microseconds at
    /// the given fabric clock. Load the file at `ui.perfetto.dev` or
    /// `chrome://tracing` to read the run like a waveform.
    pub fn to_chrome_json(&self, clock_hz: u64) -> String {
        self.to_chrome_json_with_metrics(clock_hz, &[])
    }

    /// [`Trace::to_chrome_json`] plus live-telemetry counter tracks: every
    /// [`crate::observe::live::MetricsSnapshot`] contributes one `ph:"C"`
    /// counter event per stage (name `telemetry:<stage>`) carrying the
    /// *cumulative* item and stall counters at that sample point, so
    /// Perfetto draws throughput/stall staircases alongside the stall-span
    /// slices. An empty snapshot list renders the plain span export.
    pub fn to_chrome_json_with_metrics(
        &self,
        clock_hz: u64,
        snapshots: &[crate::observe::live::MetricsSnapshot],
    ) -> String {
        let us_per_cycle = 1e6 / clock_hz as f64;
        let mut events = Vec::new();
        for (tid, (name, spans)) in self.tracks.iter().enumerate() {
            events.push(serde::Value::Map(vec![
                ("name".to_string(), serde::Value::Str("thread_name".into())),
                ("ph".to_string(), serde::Value::Str("M".into())),
                ("pid".to_string(), serde::Value::U64(0)),
                ("tid".to_string(), serde::Value::U64(tid as u64)),
                (
                    "args".to_string(),
                    serde::Value::Map(vec![("name".to_string(), serde::Value::Str(name.clone()))]),
                ),
            ]));
            for span in spans {
                if span.class == Stall::Idle {
                    continue;
                }
                let cat = match span.class {
                    Stall::Computing => "compute",
                    _ => "stall",
                };
                let mut args = vec![(
                    "cycles".to_string(),
                    serde::Value::U64(span.end - span.start),
                )];
                match span.class {
                    Stall::Starved(p) | Stall::Backpressured(p) => {
                        args.push(("port".to_string(), serde::Value::U64(p as u64)));
                    }
                    _ => {}
                }
                events.push(serde::Value::Map(vec![
                    (
                        "name".to_string(),
                        serde::Value::Str(span.class.label().into()),
                    ),
                    ("cat".to_string(), serde::Value::Str(cat.into())),
                    ("ph".to_string(), serde::Value::Str("X".into())),
                    ("pid".to_string(), serde::Value::U64(0)),
                    ("tid".to_string(), serde::Value::U64(tid as u64)),
                    (
                        "ts".to_string(),
                        serde::Value::F64(span.start as f64 * us_per_cycle),
                    ),
                    (
                        "dur".to_string(),
                        serde::Value::F64((span.end - span.start) as f64 * us_per_cycle),
                    ),
                    ("args".to_string(), serde::Value::Map(args)),
                ]));
            }
        }
        // counter tracks: cumulative items / stalled time per stage at
        // every snapshot, one multi-series counter per stage
        let mut cum: std::collections::HashMap<String, (u64, u64)> =
            std::collections::HashMap::new();
        for snap in snapshots {
            let ts_us = match snap.unit {
                crate::observe::live::MetricUnit::Cycles => snap.at as f64 * us_per_cycle,
                crate::observe::live::MetricUnit::Nanos => snap.at as f64 / 1e3,
            };
            for d in &snap.stages {
                let e = cum.entry(d.stage.clone()).or_insert((0, 0));
                e.0 += d.items;
                e.1 += d.queue_wait + d.send_wait;
                events.push(serde::Value::Map(vec![
                    (
                        "name".to_string(),
                        serde::Value::Str(format!("telemetry:{}", d.stage)),
                    ),
                    ("cat".to_string(), serde::Value::Str("telemetry".into())),
                    ("ph".to_string(), serde::Value::Str("C".into())),
                    ("pid".to_string(), serde::Value::U64(0)),
                    ("ts".to_string(), serde::Value::F64(ts_us)),
                    (
                        "args".to_string(),
                        serde::Value::Map(vec![
                            ("items".to_string(), serde::Value::U64(e.0)),
                            ("stalled".to_string(), serde::Value::U64(e.1)),
                        ]),
                    ),
                ]));
            }
        }
        let root = serde::Value::Map(vec![
            ("traceEvents".to_string(), serde::Value::Seq(events)),
            (
                "displayTimeUnit".to_string(),
                serde::Value::Str("ns".into()),
            ),
        ]);
        serde_json::to_string(&root).expect("chrome trace renders")
    }
}

/// Running statistics over a series of measured intervals (nanoseconds) —
/// the host-side analogue of a stage's initiation-interval histogram. Used
/// by the threaded engine's workers to time per-image service and
/// queue-wait, and aggregated into a
/// [`crate::exec::PipelineProfile`].
///
/// Alongside count/total/max/min, a 64-bucket power-of-two histogram
/// supports a cheap high-quantile estimate ([`IntervalStats::p99_ns`]) —
/// coarse (upper bound of the containing bucket) but allocation-free and
/// mergeable across workers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct IntervalStats {
    /// Number of recorded intervals.
    pub count: u64,
    /// Sum of all intervals in nanoseconds.
    pub total_ns: u64,
    /// Largest single interval in nanoseconds.
    pub max_ns: u64,
    min_ns: u64,
    buckets: [u64; 64],
}

impl Default for IntervalStats {
    fn default() -> Self {
        IntervalStats {
            count: 0,
            total_ns: 0,
            max_ns: 0,
            min_ns: 0,
            buckets: [0; 64],
        }
    }
}

/// Histogram bucket holding `ns`: indexed by bit length, so bucket `b`
/// spans `[2^(b-1), 2^b)` with upper bound `2^b - 1`. Shared with the
/// live-telemetry cells ([`crate::observe::live::MetricCell`]), which use
/// the same 64-bucket scheme so live and post-hoc quantiles agree.
pub(crate) fn bucket_of(ns: u64) -> usize {
    (64 - ns.leading_zeros() as usize).min(63)
}

impl IntervalStats {
    /// An empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuild a series from raw counters — used by the live-telemetry
    /// cells, which accumulate the same fields in atomics and fold them
    /// back into an [`IntervalStats`] to reuse the quantile machinery.
    pub(crate) fn from_raw(
        count: u64,
        total_ns: u64,
        max_ns: u64,
        min_ns: u64,
        buckets: [u64; 64],
    ) -> Self {
        IntervalStats {
            count,
            total_ns,
            max_ns,
            min_ns,
            buckets,
        }
    }

    /// Record one interval.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.max_ns = self.max_ns.max(ns);
        self.min_ns = if self.count == 1 {
            ns
        } else {
            self.min_ns.min(ns)
        };
        self.buckets[bucket_of(ns)] += 1;
    }

    /// Fold another series into this one (used to merge per-worker stats
    /// of a replicated stage).
    pub fn merge(&mut self, other: &IntervalStats) {
        self.min_ns = match (self.count, other.count) {
            (_, 0) => self.min_ns,
            (0, _) => other.min_ns,
            _ => self.min_ns.min(other.min_ns),
        };
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
        for (b, n) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += n;
        }
    }

    /// Mean interval in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Smallest single interval in nanoseconds (0 when empty).
    pub fn min_ns(&self) -> u64 {
        self.min_ns
    }

    /// Estimate the `q`-quantile (`0.0..=1.0`) from the power-of-two
    /// histogram: the upper bound of the first bucket covering the target
    /// rank, clamped to the observed `[min_ns, max_ns]`. Coarse by design
    /// — within a factor of two — which is plenty to spot a tail.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (b, n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= target {
                let bound = if b >= 63 { u64::MAX } else { (1u64 << b) - 1 };
                return bound.clamp(self.min_ns, self.max_ns);
            }
        }
        self.max_ns
    }

    /// The p99-ish high-quantile estimate (see [`IntervalStats::quantile_ns`]).
    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_stats_record_and_mean() {
        let mut s = IntervalStats::new();
        assert_eq!(s.mean_ns(), 0);
        s.record(10);
        s.record(30);
        s.record(20);
        assert_eq!(s.count, 3);
        assert_eq!(s.total_ns, 60);
        assert_eq!(s.max_ns, 30);
        assert_eq!(s.mean_ns(), 20);
        assert_eq!(s.min_ns(), 10);
    }

    #[test]
    fn interval_stats_merge() {
        let mut a = IntervalStats::new();
        a.record(5);
        a.record(15);
        let mut b = IntervalStats::new();
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.total_ns, 120);
        assert_eq!(a.max_ns, 100);
        assert_eq!(a.mean_ns(), 40);
        assert_eq!(a.min_ns(), 5);
    }

    #[test]
    fn interval_stats_min_merges_through_empties() {
        let mut empty = IntervalStats::new();
        assert_eq!(empty.min_ns(), 0);
        let mut one = IntervalStats::new();
        one.record(7);
        empty.merge(&one);
        assert_eq!(empty.min_ns(), 7);
        one.merge(&IntervalStats::new());
        assert_eq!(one.min_ns(), 7);
    }

    #[test]
    fn interval_stats_high_quantile() {
        let mut s = IntervalStats::new();
        for _ in 0..100 {
            s.record(10);
        }
        s.record(1000);
        // p99 rank lands in the bucket holding the 100 fast samples:
        // upper bound 15, clamped to the observed range
        assert_eq!(s.p99_ns(), 15);
        // the extreme quantile reaches the outlier's bucket
        assert_eq!(s.quantile_ns(1.0), 1000);
        assert_eq!(IntervalStats::new().p99_ns(), 0);
    }

    #[test]
    fn interval_stats_merge_of_disjoint_buckets_is_p99_monotone() {
        // two populations in disjoint histogram buckets: a ∈ [16,31],
        // b ∈ [4096,8191] — merging a strictly-larger population must
        // never lower the p99, and the merged p99 stays bounded by the
        // larger population's own p99
        let mut a = IntervalStats::new();
        for _ in 0..100 {
            a.record(20);
        }
        let mut b = IntervalStats::new();
        for _ in 0..100 {
            b.record(5000);
        }
        let (pa, pb) = (a.p99_ns(), b.p99_ns());
        assert!(pa < pb, "populations must be orderable: {pa} vs {pb}");
        let mut m = a;
        m.merge(&b);
        assert!(m.p99_ns() >= pa, "merge lowered p99: {} < {pa}", m.p99_ns());
        assert!(m.p99_ns() <= pb, "merged p99 above both: {}", m.p99_ns());
        // with equal counts the p99 rank lands in the slow population
        assert_eq!(m.p99_ns(), pb);
    }

    #[test]
    fn interval_stats_merge_of_disjoint_buckets_keeps_min() {
        let mut fast = IntervalStats::new();
        fast.record(20);
        fast.record(25);
        let mut slow = IntervalStats::new();
        slow.record(5000);
        // min survives the merge in both directions
        let mut m1 = fast;
        m1.merge(&slow);
        assert_eq!(m1.min_ns(), 20);
        let mut m2 = slow;
        m2.merge(&fast);
        assert_eq!(m2.min_ns(), 20);
        assert_eq!(m1.max_ns, 5000);
        assert_eq!(m2.max_ns, 5000);
    }

    #[test]
    fn interval_stats_quantile_merges() {
        let mut a = IntervalStats::new();
        for _ in 0..99 {
            a.record(8);
        }
        let mut b = IntervalStats::new();
        b.record(4096);
        a.merge(&b);
        assert_eq!(a.count, 100);
        // the median rank sits among the fast samples: bucket bound 15
        assert_eq!(a.quantile_ns(0.5), 15);
        assert_eq!(a.quantile_ns(1.0), 4096);
    }

    #[test]
    fn disabled_trace_discards() {
        let mut t = Trace::disabled();
        t.record(1, "x", EventKind::Initiate);
        assert!(t.events().is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn enabled_trace_records_in_order() {
        let mut t = Trace::enabled();
        t.record(1, "a", EventKind::Initiate);
        t.record(2, "b", EventKind::Emit);
        t.record(3, "a", EventKind::Initiate);
        assert_eq!(t.events().len(), 3);
        assert_eq!(t.initiation_cycles("a"), vec![1, 3]);
        assert_eq!(t.for_actor("b").count(), 1);
    }

    #[test]
    fn interning_reuses_ids_and_resolves_names() {
        let mut t = Trace::enabled();
        t.record(1, "a", EventKind::Initiate);
        t.record(2, "b", EventKind::Emit);
        t.record(3, "a", EventKind::Emit);
        assert_eq!(t.events()[0].actor, t.events()[2].actor);
        assert_ne!(t.events()[0].actor, t.events()[1].actor);
        assert_eq!(t.actor_name(t.events()[1].actor), "b");
        assert_eq!(t.actor_id("a"), Some(ActorId(0)));
        assert_eq!(t.actor_id("missing"), None);
    }

    #[test]
    fn csv_rendering() {
        let mut t = Trace::enabled();
        t.record(5, "conv1", EventKind::Initiate);
        let csv = t.to_csv();
        assert!(csv.starts_with("cycle,actor,kind\n"));
        assert!(csv.contains("5,conv1,Initiate"));
    }

    #[test]
    fn recorder_merges_dense_and_bulk_adds_identically() {
        // dense: one note per cycle
        let mut dense = StallRecorder::new(vec!["a".to_string()]);
        dense.note(0, 0, Stall::Computing);
        for c in 1..4 {
            dense.note(0, c, Stall::Starved(0));
        }
        dense.note(0, 4, Stall::Computing);
        let (ds, dt) = dense.finish(5, None);

        // event-driven: tick, sleep through the stall, tick again
        let mut ev = StallRecorder::new(vec!["a".to_string()]);
        ev.note(0, 0, Stall::Computing);
        ev.set_sleep(0, Stall::Starved(0));
        ev.note(0, 4, Stall::Computing);
        let (es, et) = ev.finish(5, None);

        assert_eq!(ds, es);
        assert_eq!(dt, et);
        assert_eq!(ds[0].computing, 2);
        assert_eq!(ds[0].starved, vec![3]);
        assert_eq!(ds[0].total(), 5);
        assert_eq!(
            dt[0],
            vec![
                StallSpan {
                    start: 0,
                    end: 1,
                    class: Stall::Computing
                },
                StallSpan {
                    start: 1,
                    end: 4,
                    class: Stall::Starved(0)
                },
                StallSpan {
                    start: 4,
                    end: 5,
                    class: Stall::Computing
                },
            ]
        );
    }

    #[test]
    fn recorder_backfills_trailing_sleep() {
        let mut r = StallRecorder::new(vec!["a".to_string()]);
        r.note(0, 0, Stall::Computing);
        r.set_sleep(0, Stall::Idle);
        let (s, t) = r.finish(10, None);
        assert_eq!(s[0].computing, 1);
        assert_eq!(s[0].idle, 9);
        assert_eq!(s[0].total(), 10);
        assert_eq!(t[0].len(), 2);
    }

    #[test]
    fn publish_adds_what_the_stats_gained() {
        use crate::observe::live::MetricUnit;
        let live = LiveMetrics::new(MetricUnit::Cycles, vec!["a".to_string()]);
        let mut r = StallRecorder::new(vec!["a".to_string()]);
        r.note(0, 0, Stall::Computing);
        r.note(0, 1, Stall::Starved(1));
        r.publish(&live);
        r.publish(&live); // nothing gained since: adds nothing
        r.note(0, 2, Stall::Backpressured(0));
        // cycle 3 is back-filled with the default sleep class, idle
        let (s, _) = r.finish(4, Some(&live));
        let c = live.cell(0).counters();
        let cells = (c.service, c.queue_wait, c.send_wait, c.idle);
        let stats = (
            s[0].computing,
            s[0].starved_total(),
            s[0].backpressured_total(),
            s[0].idle,
        );
        assert_eq!(cells, stats);
        assert_eq!(cells, (1, 1, 1, 1));
        // a second run on the same plane accumulates
        let mut again = StallRecorder::new(vec!["a".to_string()]);
        again.note(0, 0, Stall::Computing);
        again.finish(1, Some(&live));
        assert_eq!(live.cell(0).counters().service, 2);
    }

    #[test]
    fn chrome_json_lists_tracks_and_slices() {
        let mut t = Trace::enabled();
        t.set_stall_tracks(vec![(
            "conv1".to_string(),
            vec![
                StallSpan {
                    start: 0,
                    end: 10,
                    class: Stall::Computing,
                },
                StallSpan {
                    start: 10,
                    end: 12,
                    class: Stall::Backpressured(1),
                },
                StallSpan {
                    start: 12,
                    end: 20,
                    class: Stall::Idle,
                },
            ],
        )]);
        let json = t.to_chrome_json(100_000_000);
        let v: serde::Value = serde_json::from_str(&json).unwrap();
        let events = match v.field("traceEvents").unwrap() {
            serde::Value::Seq(items) => items.clone(),
            other => panic!("traceEvents not a list: {other:?}"),
        };
        // metadata + compute slice + stall slice; the idle span is omitted
        assert_eq!(events.len(), 3);
        assert_eq!(
            events[0].field("ph").unwrap(),
            &serde::Value::Str("M".into())
        );
        assert_eq!(
            events[1].field("ph").unwrap(),
            &serde::Value::Str("X".into())
        );
        assert_eq!(
            events[2].field("name").unwrap(),
            &serde::Value::Str("backpressured".into())
        );
        assert_eq!(
            events[2].field("args").unwrap().field("port").unwrap(),
            &serde::Value::U64(1)
        );
    }
}
