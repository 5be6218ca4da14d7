//! The cycle-level execution engine.
//!
//! Every hardware entity (DMA source, port adapters, layer cores, score
//! sink) is an [`Actor`] ticked against a shared [`ChannelSet`]. Channels
//! are two-phase (see [`crate::stream`]), so intra-cycle evaluation order
//! does not matter and each FIFO hop costs one cycle, like registered
//! hardware.
//!
//! The engine is what regenerates **Fig. 6**: stream a batch of images in
//! through the DMA model, record the cycle at which each image's scores
//! leave the sink, and divide. It also doubles as the functional oracle:
//! all values are computed with the [`crate::kernel`] hardware-order
//! numerics.
//!
//! # Two schedulers, one semantics
//!
//! The engine has two interchangeable schedulers selected by
//! [`Simulator::reference_mode`]:
//!
//! - The **reference sweep** ticks every actor on every cycle in actor
//!   order — the obviously-correct dense loop, kept as the conformance
//!   oracle.
//! - The **event-driven scheduler** (the default) lets actors declare
//!   *quiescence*: each tick returns what blocks the actor next
//!   ([`Next`]), whether it could do anything next cycle
//!   ([`Quiescence::Active`]) or is blocked until a channel changes
//!   occupancy and/or a known future cycle arrives
//!   ([`Quiescence::Wait`]). Sleeping actors are skipped, and when nothing
//!   is runnable at all the engine jumps straight to the earliest timed
//!   wake-up. Channel wake-ups are driven directly from pushes and pops
//!   through the [`ChannelSet`]'s waiter lists, which are populated from
//!   the actors' [`Wiring`] declarations.
//!
//! The two schedulers produce **identical** [`SimResult`]s (completions,
//! outputs, cycle counts, actor and FIFO statistics) and identical traces;
//! `tests/engine_conformance.rs` pins this on the paper designs and on
//! randomized ones. The contract that makes this hold: an actor whose
//! tick returns [`Quiescence::Wait`] must be a provable no-op on every
//! skipped cycle — a tick that would neither move a value nor change
//! observable state. Spurious wake-ups are always safe (the actor just
//! no-ops), so actors only need their sleep conditions to be *sound*, not
//! tight. An actor with empty [`Wiring`] gets no channel wake-ups, so its
//! ticks must return [`Quiescence::Active`].

use crate::observe::live::{LiveMetrics, MetricUnit, Sampler};
use crate::stream::{ChannelId, ChannelSet, FifoStats};
use crate::trace::{ActorStallStats, EventKind, Stall, StallRecorder, Trace};

/// Cycles without channel activity after which a run is declared
/// deadlocked — generous: deeper than any pipeline in the designs.
const STALL_LIMIT: u64 = 100_000;

/// Static channel connectivity of an actor, used by the event-driven
/// scheduler to wake it when a channel it reads gains a value or a channel
/// it writes gains space. An actor with the default empty wiring receives
/// no channel wake-ups, so every tick of it must return
/// [`Quiescence::Active`].
#[derive(Clone, Debug, Default)]
pub struct Wiring {
    /// Channels the actor pops/peeks from.
    pub inputs: Vec<ChannelId>,
    /// Channels the actor pushes into.
    pub outputs: Vec<ChannelId>,
}

/// An actor's post-tick scheduling contract for the event-driven engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Quiescence {
    /// The actor may make progress next cycle: tick it every cycle until a
    /// tick returns otherwise. Always correct.
    Active,
    /// The actor is a guaranteed no-op until one of its wired channels
    /// changes occupancy — or, if a cycle is given, until that cycle
    /// arrives (a pipeline head becoming ready, an II timer elapsing, a
    /// DMA credit refilling). Whichever comes first wins.
    Wait(Option<u64>),
}

/// What blocks an actor next, as its tick returns it: both fields are read
/// once, from the state after the tick (before the cycle's channel
/// commit).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Next {
    /// Whether the event-driven engine must tick the actor next cycle, or
    /// what wakes it.
    pub wait: Quiescence,
    /// Flight-recorder class of a tick with no observable work (no value
    /// moved, no initiation). It must be a function of the actor's own
    /// state and its *wired* channels — never of the cycle number — so
    /// that it stays constant over any quiescent span and the event-driven
    /// engine can bill skipped cycles with the class captured when the
    /// actor went to sleep.
    pub stall: Stall,
}

/// A hardware entity stepped by the engine.
pub trait Actor {
    /// Stable display name (used in traces and occupancy reports).
    fn name(&self) -> &str;

    /// Advance one cycle: pop/push on `chans`, update internal state, and
    /// return what blocks the actor next. `trace` may be a no-op sink.
    fn tick(&mut self, cycle: u64, chans: &mut ChannelSet, trace: &mut Trace) -> Next;

    /// Whether the actor still holds work in flight (pending pipeline
    /// stages, buffered windows, unemitted values). Used for completion
    /// and deadlock detection together with channel occupancy.
    fn busy(&self) -> bool;

    /// Number of initiations performed (compute cores) or values moved
    /// (adapters/endpoints) — the utilisation statistic.
    fn initiations(&self) -> u64;

    /// The channels this actor touches. Default: none (correct only for
    /// an actor whose ticks always return [`Quiescence::Active`]).
    fn wiring(&self) -> Wiring {
        Wiring::default()
    }

    /// Internal window/line-buffer occupancy high-water mark and its
    /// capacity bound (the `sst` full-buffering bound), for cores that
    /// keep one. `None` for actors without internal buffering.
    fn buffer_hwm(&self) -> Option<(usize, usize)> {
        None
    }
}

/// Per-actor utilisation after a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ActorStats {
    /// Actor name.
    pub name: String,
    /// Initiations performed.
    pub initiations: u64,
    /// Internal buffer occupancy high-water mark and its capacity bound,
    /// for actors that keep a window/line buffer.
    pub buffer_hwm: Option<(usize, usize)>,
}

/// Everything known at the moment a run was declared deadlocked: the
/// cycle, collection progress, which actors still held work, and the
/// stall taxonomy gathered so far (empty on untraced runs).
#[derive(Clone, Debug)]
pub struct DeadlockReport {
    /// Cycle at which the stall limit expired.
    pub cycle: u64,
    /// Images collected before the stall.
    pub collected: usize,
    /// Images the batch expected.
    pub expected: usize,
    /// Names of the actors still holding work in flight.
    pub busy: Vec<String>,
    /// Per-actor stall taxonomy up to the deadlock (traced runs only).
    pub stalls: Vec<ActorStallStats>,
}

/// A failed simulation. Both schedulers produce the same error at the
/// same cycle; the message is stable and pinned by tests.
#[derive(Clone, Debug)]
pub enum SimError {
    /// No channel activity for `STALL_LIMIT` cycles with images still
    /// outstanding.
    Deadlock(DeadlockReport),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock(d) => write!(
                f,
                "dataflow deadlock at cycle {}: {} of {} images collected, \
                 no channel activity for {STALL_LIMIT} cycles; busy actors: {:?} \
                 — most deadlocks are statically provable: run the design \
                 verifier (`pipeline_check`, crate::check::check_design) for a \
                 pre-simulation diagnosis",
                d.cycle, d.collected, d.expected, d.busy
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Result of simulating one batch.
#[derive(Clone, Debug, PartialEq)]
pub struct SimResult {
    /// Cycle at which each image's last output value was collected.
    pub completions: Vec<u64>,
    /// The collected class scores per image (pre-normalisation, as the
    /// hardware emits them).
    pub outputs: Vec<Vec<f32>>,
    /// Total cycles simulated.
    pub cycles: u64,
    /// Per-actor utilisation.
    pub actor_stats: Vec<ActorStats>,
    /// Per-channel FIFO statistics.
    pub fifo_stats: Vec<FifoStats>,
    /// Per-actor stall taxonomy counters (flight recorder). Empty when
    /// tracing is disabled; identical between the two schedulers.
    pub stalls: Vec<ActorStallStats>,
}

impl SimResult {
    /// Convert into the host-side measurement record at the given clock.
    pub fn measurement(&self, clock_hz: u64) -> dfcnn_fpga::host::BatchMeasurement {
        dfcnn_fpga::host::BatchMeasurement::new(self.completions.clone(), clock_hz)
    }
}

/// An inline sampling hook: the simulator is single-threaded, so the
/// sampler is driven at cycle boundaries instead of from a thread.
struct SamplerHook {
    sampler: std::rc::Rc<std::cell::RefCell<Sampler>>,
    /// Sampling period in cycles.
    every: u64,
    /// Next cycle boundary at (or past) which to sample.
    next: u64,
}

/// The synchronous dataflow simulator.
pub struct Simulator {
    actors: Vec<Box<dyn Actor>>,
    channels: ChannelSet,
    /// Index of the sink actor (checked for completion).
    expected_images: usize,
    /// Shared handle the sink writes into.
    sink_state: std::rc::Rc<std::cell::RefCell<crate::endpoints::SinkState>>,
    trace: Trace,
    /// Run the dense reference sweep instead of the event-driven scheduler.
    reference: bool,
    /// Live telemetry cells fed during the run (one per actor).
    live: Option<std::sync::Arc<LiveMetrics>>,
    sampler: Option<SamplerHook>,
}

impl Simulator {
    /// Assemble a simulator from parts (normally done by
    /// [`crate::graph::NetworkDesign::instantiate`]).
    pub fn new(
        actors: Vec<Box<dyn Actor>>,
        channels: ChannelSet,
        expected_images: usize,
        sink_state: std::rc::Rc<std::cell::RefCell<crate::endpoints::SinkState>>,
    ) -> Self {
        Simulator {
            actors,
            channels,
            expected_images,
            sink_state,
            trace: Trace::disabled(),
            reference: false,
            live: None,
            sampler: None,
        }
    }

    /// Enable event tracing (records every initiation/emission).
    pub fn with_trace(mut self) -> Self {
        self.trace = Trace::enabled();
        self
    }

    /// Select the dense every-actor-every-cycle reference sweep instead of
    /// the event-driven scheduler: slower, but trivially correct — the
    /// conformance oracle.
    pub fn reference_mode(mut self) -> Self {
        self.reference = true;
        self
    }

    /// A fresh live metrics plane matching this simulator's actors (unit:
    /// simulated cycles), for use with [`Simulator::with_live`] or a
    /// [`Sampler`].
    pub fn live_metrics(&self) -> std::sync::Arc<LiveMetrics> {
        LiveMetrics::new(
            MetricUnit::Cycles,
            self.actors.iter().map(|a| a.name().to_string()).collect(),
        )
    }

    /// Feed `live` while the run executes: initiation counts and
    /// inter-initiation intervals as they happen, the flight recorder's
    /// stall counters at every sampler tick and at the end of the run.
    /// The cells must have been built for this simulator's actor list (see
    /// [`Simulator::live_metrics`]). Works with tracing on or off; the
    /// simulated behaviour is bit-identical either way.
    pub fn with_live(mut self, live: std::sync::Arc<LiveMetrics>) -> Self {
        assert_eq!(
            live.len(),
            self.actors.len(),
            "live metrics must have one cell per actor"
        );
        self.live = Some(live);
        self
    }

    /// Drive `sampler` inline every `every_cycles` cycles (plus one final
    /// flush when the run ends or deadlocks), attaching its metrics plane
    /// as with [`Simulator::with_live`]. Snapshots are timestamped in
    /// simulated cycles.
    pub fn with_sampler(
        mut self,
        sampler: std::rc::Rc<std::cell::RefCell<Sampler>>,
        every_cycles: u64,
    ) -> Self {
        assert!(every_cycles > 0, "sampling period must be positive");
        let live = sampler.borrow().live().clone();
        self = self.with_live(live);
        self.sampler = Some(SamplerHook {
            sampler,
            every: every_cycles,
            next: every_cycles,
        });
        self
    }

    /// Run to completion and return the measurements.
    ///
    /// # Panics
    /// If the design deadlocks (see [`Simulator::try_run`]) — the panic
    /// payload is the rendered [`SimError`] message. Both schedulers
    /// panic at the same cycle with the same message.
    pub fn run(self) -> (SimResult, Trace) {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Run to completion, returning a typed [`SimError`] instead of
    /// panicking when the design deadlocks (no channel activity for the
    /// stall limit with images still outstanding). The error carries a
    /// [`DeadlockReport`] with the busy-actor list and the stall taxonomy
    /// collected so far; its message points at the static checker
    /// ([`crate::check::check_design`]), which proves most deadlock
    /// classes before a cycle runs.
    pub fn try_run(self) -> Result<(SimResult, Trace), SimError> {
        if self.reference {
            self.run_reference()
        } else {
            self.run_event()
        }
    }

    fn done(&self) -> bool {
        self.sink_state.borrow().completions.len() >= self.expected_images
    }

    fn deadlock_error(&self, cycle: u64, recorder: Option<StallRecorder>) -> SimError {
        let busy: Vec<String> = self
            .actors
            .iter()
            .filter(|a| a.busy())
            .map(|a| a.name().to_string())
            .collect();
        let stalls = recorder
            .map(|r| r.finish(cycle, self.live.as_deref()).0)
            .unwrap_or_default();
        Self::flush_sampler(&self.sampler, cycle);
        SimError::Deadlock(DeadlockReport {
            cycle,
            collected: self.sink_state.borrow().completions.len(),
            expected: self.expected_images,
            busy,
            stalls,
        })
    }

    /// A stall recorder when tracing or live telemetry is on; `None`
    /// keeps the flight recorder strictly zero-cost on unobserved runs.
    fn make_recorder(&self) -> Option<StallRecorder> {
        (self.trace.is_enabled() || self.live.is_some())
            .then(|| StallRecorder::new(self.actors.iter().map(|a| a.name().to_string()).collect()))
    }

    /// Take the boundary sample when the run clock reaches the hook's
    /// next tick, after the recorder publishes its stall counters to the
    /// sampled cells. Called with the post-commit cycle from both
    /// schedulers; the event engine's cycle-skip may land past several
    /// boundaries, in which case one (delta-complete) sample covers them.
    fn maybe_sample(
        sampler: &mut Option<SamplerHook>,
        recorder: Option<&mut StallRecorder>,
        cycle: u64,
    ) {
        if let Some(hook) = sampler.as_mut() {
            if cycle >= hook.next {
                let mut s = hook.sampler.borrow_mut();
                if let Some(rec) = recorder {
                    rec.publish(s.live());
                }
                s.sample(cycle);
                hook.next = (cycle / hook.every + 1) * hook.every;
            }
        }
    }

    /// Final sampler flush so the snapshot series sums to the run totals;
    /// must run *after* the recorder finishes (trailing-sleep back-fill).
    fn flush_sampler(sampler: &Option<SamplerHook>, cycle: u64) {
        if let Some(hook) = sampler {
            hook.sampler.borrow_mut().sample(cycle);
        }
    }

    fn finish(mut self, cycles: u64, recorder: Option<StallRecorder>) -> (SimResult, Trace) {
        let (stalls, tracks) = match recorder {
            Some(r) => {
                let (stats, tracks) = r.finish(cycles, self.live.as_deref());
                let named = self
                    .actors
                    .iter()
                    .zip(tracks)
                    .map(|(a, t)| (a.name().to_string(), t))
                    .collect();
                (stats, named)
            }
            None => (Vec::new(), Vec::new()),
        };
        Self::flush_sampler(&self.sampler, cycles);
        let sink = self.sink_state.borrow();
        let result = SimResult {
            completions: sink.completions.clone(),
            outputs: sink.outputs.clone(),
            cycles,
            actor_stats: self
                .actors
                .iter()
                .map(|a| ActorStats {
                    name: a.name().to_string(),
                    initiations: a.initiations(),
                    buffer_hwm: a.buffer_hwm(),
                })
                .collect(),
            fifo_stats: self.channels.all_stats(),
            stalls,
        };
        drop(sink);
        let mut trace = std::mem::replace(&mut self.trace, Trace::disabled());
        trace.record(cycles, "engine", EventKind::Done);
        trace.set_stall_tracks(tracks);
        (result, trace)
    }

    /// The dense sweep: every actor, every cycle, in actor order. It never
    /// sleeps, so only the recorder reads what each tick returns.
    fn run_reference(mut self) -> Result<(SimResult, Trace), SimError> {
        let mut recorder = self.make_recorder();
        let mut cycle: u64 = 0;
        let mut last_activity_cycle: u64 = 0;
        let mut last_activity = 0u64;
        loop {
            for (i, a) in self.actors.iter_mut().enumerate() {
                if let Some(rec) = recorder.as_mut() {
                    let (actor, live) = (&mut **a, self.live.as_deref());
                    rec.tick(i, cycle, actor, &mut self.channels, &mut self.trace, live);
                } else {
                    a.tick(cycle, &mut self.channels, &mut self.trace);
                }
            }
            self.channels.commit_all();
            cycle += 1;
            Self::maybe_sample(&mut self.sampler, recorder.as_mut(), cycle);

            if self.done() {
                break;
            }
            let act = self.channels.activity();
            if act != last_activity {
                last_activity = act;
                last_activity_cycle = cycle;
            } else if cycle - last_activity_cycle > STALL_LIMIT {
                return Err(self.deadlock_error(cycle, recorder));
            }
        }
        Ok(self.finish(cycle, recorder))
    }

    /// The event-driven scheduler.
    ///
    /// Bookkeeping per actor: a `wake_now` flag (must tick this cycle) and
    /// a `wake_next` flag (must tick next cycle), both maintained directly
    /// by [`ChannelSet`] pushes/pops through the waiter lists and stored
    /// as 64-actor bitmask words; an `active` flag (ticks every cycle
    /// until its tick returns [`Quiescence::Wait`]); plus a timed wake-up wheel
    /// for latency hints. The scan runs in ascending actor index like the
    /// reference sweep, so trace event order and intra-cycle pop
    /// visibility match it exactly: a pop at cycle `c` by actor `j` frees
    /// space that same cycle for any writer `w > j` (it ticks after `j` in
    /// the dense sweep too), while a writer `w < j` only observes the
    /// space at `c + 1`. Pushes become visible to readers after the
    /// commit, hence always wake at `c + 1`.
    ///
    /// Set `DFCNN_SCHED_STATS=1` to print scheduler efficiency counters
    /// (non-skipped cycles and actual ticks vs the dense sweep's
    /// `cycles × actors`) to stderr after the run.
    fn run_event(mut self) -> Result<(SimResult, Trace), SimError> {
        let mut recorder = self.make_recorder();
        let n = self.actors.len();
        for (i, a) in self.actors.iter().enumerate() {
            let w = a.wiring();
            for ch in w.inputs {
                self.channels.register_reader(ch, i);
            }
            for ch in w.outputs {
                self.channels.register_writer(ch, i);
            }
        }
        self.channels.enable_wake_tracking(n);
        for i in 0..n {
            self.channels.set_wake_now(i);
        }

        // runnable-every-cycle actors, same bit layout as the wake words
        let mut active = vec![0u64; self.channels.wake_words()];
        let mut timed: std::collections::BTreeMap<u64, Vec<usize>> =
            std::collections::BTreeMap::new();

        let mut cycle: u64 = 0;
        let mut last_activity_cycle: u64 = 0;
        let mut last_activity = 0u64;
        let mut ticks = 0u64;
        let mut busy_cycles = 0u64;
        loop {
            busy_cycles += 1;
            // timed wake-ups due now (spurious ones are harmless no-ops)
            while let Some(due) = timed.first_entry().filter(|e| *e.key() <= cycle) {
                for i in due.remove() {
                    self.channels.set_wake_now(i);
                }
            }

            // Word-wise scan in ascending actor index. Same-cycle wakes
            // only ever target actors *after* the one being ticked (pops
            // wake writers `w > cur`), so re-reading the word after each
            // tick — masked by the already-processed bits — picks up
            // forward wakes without ever revisiting an actor, and earlier
            // words can never gain bits once passed.
            for (w, aw) in active.iter_mut().enumerate() {
                let mut processed: u64 = 0;
                loop {
                    let bits = (self.channels.wake_now_word(w) | *aw) & !processed;
                    if bits == 0 {
                        break;
                    }
                    let bit = bits.trailing_zeros();
                    processed |= 1u64 << bit;
                    self.channels.clear_wake_now(w, bit);
                    let i = (w << 6) | bit as usize;
                    ticks += 1;
                    self.channels.begin_tick(i);
                    let next = if let Some(rec) = recorder.as_mut() {
                        let (actor, live) = (&mut *self.actors[i], self.live.as_deref());
                        rec.tick(i, cycle, actor, &mut self.channels, &mut self.trace, live)
                    } else {
                        self.actors[i].tick(cycle, &mut self.channels, &mut self.trace)
                    };
                    match next.wait {
                        Quiescence::Active => *aw |= 1u64 << bit,
                        Quiescence::Wait(hint) => {
                            *aw &= !(1u64 << bit);
                            if let Some(t) = hint {
                                if t <= cycle + 1 {
                                    self.channels.set_wake_next(i);
                                } else {
                                    timed.entry(t).or_default().push(i);
                                }
                            }
                        }
                    }
                }
            }

            self.channels.commit_dirty();
            let post = cycle + 1;
            Self::maybe_sample(&mut self.sampler, recorder.as_mut(), post);

            if self.done() {
                cycle = post;
                break;
            }
            // stall detection — same arithmetic as the reference sweep
            let act = self.channels.activity();
            if act != last_activity {
                last_activity = act;
                last_activity_cycle = post;
            } else if post - last_activity_cycle > STALL_LIMIT {
                return Err(self.deadlock_error(post, recorder));
            }

            let has_next = active.iter().any(|&a| a != 0) || self.channels.wake_next_any();
            if has_next {
                cycle = post;
            } else if let Some((&t, _)) = timed.first_key_value() {
                // cycle-skip: every skipped cycle is a guaranteed no-op for
                // every actor, so jump straight to the earliest wake-up —
                // unless the reference sweep would have hit the stall limit
                // first, in which case deadlock at the cycle it would.
                if t - last_activity_cycle > STALL_LIMIT {
                    return Err(
                        self.deadlock_error(last_activity_cycle + STALL_LIMIT + 1, recorder)
                    );
                }
                cycle = t;
            } else {
                // nothing will ever run again; the reference sweep would
                // spin quietly to the stall limit and fail there
                return Err(self.deadlock_error(last_activity_cycle + STALL_LIMIT + 1, recorder));
            }
            self.channels.advance_wakes();
        }
        if std::env::var_os("DFCNN_SCHED_STATS").is_some() {
            eprintln!(
                "[event] cycles={cycle} busy_cycles={busy_cycles} ticks={ticks} \
                 dense_ticks={}",
                cycle * n as u64
            );
        }
        Ok(self.finish(cycle, recorder))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoints::SinkState;
    use crate::stream::ChannelId;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Emits `count` increasing values, one per cycle, on its channel.
    struct TestSource {
        ch: ChannelId,
        next: u64,
        count: u64,
    }
    impl Actor for TestSource {
        fn name(&self) -> &str {
            "test-source"
        }
        fn tick(&mut self, _cycle: u64, chans: &mut ChannelSet, _t: &mut Trace) -> Next {
            if self.next < self.count && chans.can_push(self.ch) {
                chans.push(self.ch, self.next as f32);
                self.next += 1;
            }
            let wait = if self.next >= self.count {
                Quiescence::Wait(None) // drained: never ticks again
            } else if chans.can_push(self.ch) {
                Quiescence::Active
            } else {
                Quiescence::Wait(None) // backpressured: wake on pop
            };
            Next {
                wait,
                stall: Stall::Idle,
            }
        }
        fn busy(&self) -> bool {
            self.next < self.count
        }
        fn initiations(&self) -> u64 {
            self.next
        }
        fn wiring(&self) -> Wiring {
            Wiring {
                inputs: vec![],
                outputs: vec![self.ch],
            }
        }
    }

    /// Doubles each value with a fixed pipeline delay.
    struct Doubler {
        inp: ChannelId,
        out: ChannelId,
        pipe: std::collections::VecDeque<(u64, f32)>,
        delay: u64,
        inits: u64,
    }
    impl Actor for Doubler {
        fn name(&self) -> &str {
            "doubler"
        }
        fn tick(&mut self, cycle: u64, chans: &mut ChannelSet, _t: &mut Trace) -> Next {
            if let Some(&(ready, v)) = self.pipe.front() {
                if cycle >= ready && chans.can_push(self.out) {
                    chans.push(self.out, v);
                    self.pipe.pop_front();
                }
            }
            if self.pipe.len() < 4 {
                if let Some(v) = chans.pop(self.inp) {
                    self.pipe.push_back((cycle + self.delay, v * 2.0));
                    self.inits += 1;
                }
            }
            Next {
                wait: self.wait(cycle, chans),
                stall: Stall::Idle,
            }
        }
        fn busy(&self) -> bool {
            !self.pipe.is_empty()
        }
        fn initiations(&self) -> u64 {
            self.inits
        }
        fn wiring(&self) -> Wiring {
            Wiring {
                inputs: vec![self.inp],
                outputs: vec![self.out],
            }
        }
    }
    impl Doubler {
        fn wait(&self, now: u64, chans: &ChannelSet) -> Quiescence {
            if let Some(&(ready, _)) = self.pipe.front() {
                if ready <= now + 1 && chans.can_push(self.out) {
                    return Quiescence::Active; // emits next cycle
                }
            }
            if self.pipe.len() < 4 && chans.peek(self.inp).is_some() {
                return Quiescence::Active; // accepts next cycle
            }
            match self.pipe.front() {
                // head still in the pipeline: timed wake (channel wake-ups
                // stay live, so an early push/pop re-activates sooner)
                Some(&(ready, _)) if ready > now + 1 => Quiescence::Wait(Some(ready)),
                // head ready but output full, or idle: channel wake only
                _ => Quiescence::Wait(None),
            }
        }
    }

    /// Collects `per_image` values per "image" into the sink state.
    struct TestSink {
        inp: ChannelId,
        state: Rc<RefCell<SinkState>>,
        per_image: usize,
        current: Vec<f32>,
    }
    impl Actor for TestSink {
        fn name(&self) -> &str {
            "test-sink"
        }
        fn tick(&mut self, cycle: u64, chans: &mut ChannelSet, _t: &mut Trace) -> Next {
            if let Some(v) = chans.pop(self.inp) {
                self.current.push(v);
                if self.current.len() == self.per_image {
                    let mut s = self.state.borrow_mut();
                    s.outputs.push(std::mem::take(&mut self.current));
                    s.completions.push(cycle);
                }
            }
            let wait = if chans.peek(self.inp).is_some() {
                Quiescence::Active
            } else {
                Quiescence::Wait(None)
            };
            Next {
                wait,
                stall: Stall::Idle,
            }
        }
        fn busy(&self) -> bool {
            !self.current.is_empty()
        }
        fn initiations(&self) -> u64 {
            0
        }
        fn wiring(&self) -> Wiring {
            Wiring {
                inputs: vec![self.inp],
                outputs: vec![],
            }
        }
    }

    fn build(count: u64, per_image: usize, delay: u64) -> Simulator {
        let mut chans = ChannelSet::new();
        let a = chans.alloc(4);
        let b = chans.alloc(4);
        let state = Rc::new(RefCell::new(SinkState::default()));
        let actors: Vec<Box<dyn Actor>> = vec![
            Box::new(TestSource {
                ch: a,
                next: 0,
                count,
            }),
            Box::new(Doubler {
                inp: a,
                out: b,
                pipe: Default::default(),
                delay,
                inits: 0,
            }),
            Box::new(TestSink {
                inp: b,
                state: state.clone(),
                per_image,
                current: Vec::new(),
            }),
        ];
        Simulator::new(actors, chans, count as usize / per_image, state)
    }

    fn pipeline(count: u64, per_image: usize, delay: u64) -> (SimResult, Trace) {
        build(count, per_image, delay).run()
    }

    #[test]
    fn values_flow_and_double() {
        let (res, _) = pipeline(8, 2, 0);
        assert_eq!(res.completions.len(), 4);
        assert_eq!(res.outputs[0], vec![0.0, 2.0]);
        assert_eq!(res.outputs[3], vec![12.0, 14.0]);
    }

    #[test]
    fn pipeline_delay_shifts_completions() {
        let (fast, _) = pipeline(4, 2, 0);
        let (slow, _) = pipeline(4, 2, 20);
        assert!(slow.completions[0] > fast.completions[0] + 15);
        // steady-state throughput unchanged (pipelined delay, not II)
        let gap_fast = fast.completions[1] - fast.completions[0];
        let gap_slow = slow.completions[1] - slow.completions[0];
        assert_eq!(gap_fast, gap_slow);
    }

    #[test]
    fn completions_monotone() {
        let (res, _) = pipeline(20, 2, 3);
        assert!(res.completions.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn stats_populated() {
        let (res, _) = pipeline(8, 2, 1);
        assert_eq!(res.actor_stats.len(), 3);
        assert_eq!(res.actor_stats[1].initiations, 8);
        assert_eq!(res.fifo_stats.len(), 2);
        assert_eq!(res.fifo_stats[0].pushes, 8);
    }

    #[test]
    fn measurement_roundtrip() {
        let (res, _) = pipeline(8, 2, 0);
        let m = res.measurement(100_000_000);
        assert_eq!(m.batch, 4);
    }

    #[test]
    fn event_mode_matches_reference_exactly() {
        for (count, per_image, delay) in [(8, 2, 0), (8, 2, 5), (20, 2, 3), (12, 3, 17), (4, 4, 40)]
        {
            let (ev, _) = build(count, per_image, delay).run();
            let (rf, _) = build(count, per_image, delay).reference_mode().run();
            assert_eq!(ev, rf, "count={count} per_image={per_image} delay={delay}");
        }
    }

    #[test]
    fn event_mode_traces_match_reference() {
        let (ev_res, ev_trace) = build(12, 3, 9).with_trace().run();
        let (rf_res, rf_trace) = build(12, 3, 9).with_trace().reference_mode().run();
        assert_eq!(ev_res, rf_res);
        assert_eq!(ev_trace.events(), rf_trace.events());
        assert_eq!(ev_trace.stall_tracks(), rf_trace.stall_tracks());
        // every cycle of every actor is classified exactly once
        assert_eq!(ev_res.stalls.len(), 3);
        for s in &ev_res.stalls {
            assert_eq!(s.total(), ev_res.cycles, "{}", s.name);
        }
    }

    #[test]
    fn untraced_runs_skip_the_flight_recorder() {
        let (res, trace) = pipeline(8, 2, 1);
        assert!(res.stalls.is_empty());
        assert!(trace.stall_tracks().is_empty());
    }

    #[test]
    fn live_cells_reconcile_with_recorder_in_both_schedulers() {
        for reference in [false, true] {
            let mut sim = build(12, 3, 9).with_trace();
            if reference {
                sim = sim.reference_mode();
            }
            let live = sim.live_metrics();
            let (res, _) = sim.with_live(live.clone()).run();
            assert_eq!(live.len(), res.stalls.len());
            for (i, s) in res.stalls.iter().enumerate() {
                let c = live.cell(i).counters();
                assert_eq!(c.service, s.computing, "{}", s.name);
                assert_eq!(c.queue_wait, s.starved_total(), "{}", s.name);
                assert_eq!(c.send_wait, s.backpressured_total(), "{}", s.name);
                assert_eq!(c.idle, s.idle, "{}", s.name);
                assert_eq!(c.items, res.actor_stats[i].initiations, "{}", s.name);
            }
        }
    }

    #[test]
    fn live_telemetry_does_not_change_the_simulation() {
        let (plain, plain_trace) = build(12, 3, 9).with_trace().run();
        let sim = build(12, 3, 9).with_trace();
        let live = sim.live_metrics();
        let (observed, observed_trace) = sim.with_live(live).run();
        assert_eq!(plain, observed);
        assert_eq!(plain_trace.events(), observed_trace.events());
        assert_eq!(plain_trace.stall_tracks(), observed_trace.stall_tracks());
    }

    #[test]
    fn sampler_deltas_sum_to_run_totals() {
        use crate::observe::live::sum_deltas;
        for reference in [false, true] {
            let mut sim = build(20, 2, 3);
            if reference {
                sim = sim.reference_mode();
            }
            let live = sim.live_metrics();
            let sampler = Rc::new(RefCell::new(Sampler::new(live.clone())));
            let (res, _) = sim.with_sampler(sampler.clone(), 7).run();
            let sampler = Rc::try_unwrap(sampler)
                .expect("run dropped its handle")
                .into_inner();
            let snaps = sampler.into_snapshots();
            assert!(snaps.len() >= 2, "mid-run ticks plus the final flush");
            assert!(snaps.windows(2).all(|w| w[0].at <= w[1].at));
            assert_eq!(snaps.last().unwrap().at, res.cycles);
            let summed = sum_deltas(&snaps);
            // live runs record the stall taxonomy even without a trace
            assert_eq!(res.stalls.len(), summed.len());
            for (i, (name, acc)) in summed.iter().enumerate() {
                assert_eq!(name, &res.stalls[i].name);
                assert_eq!(acc.service, res.stalls[i].computing);
                assert_eq!(acc.queue_wait, res.stalls[i].starved_total());
                assert_eq!(acc.send_wait, res.stalls[i].backpressured_total());
                assert_eq!(acc.idle, res.stalls[i].idle);
                assert_eq!(acc.items, res.actor_stats[i].initiations);
            }
        }
    }

    #[test]
    fn long_pipeline_delay_exercises_cycle_skip() {
        // delay 40 with a 4-deep pipe forces long quiet stretches where
        // only the timed wheel can advance the clock
        let (ev, _) = build(8, 2, 40).run();
        let (rf, _) = build(8, 2, 40).reference_mode().run();
        assert_eq!(ev, rf);
    }
}
