//! FIFO channels with registered (two-phase) semantics.
//!
//! Every edge of the dataflow graph is a [`Fifo`]: bounded, in-order, with
//! the valid/ready backpressure of an AXI4-Stream link. The simulator runs
//! synchronously, so the FIFO is *two-phase*: values pushed during a cycle
//! are staged and only become visible to consumers at the cycle boundary
//! ([`Fifo::commit`]) — exactly the one-cycle-per-hop behaviour of a
//! registered hardware FIFO, and the property that prevents a value from
//! traversing the whole pipeline combinationally inside a single simulated
//! cycle.

/// Identifier of a channel inside a [`ChannelSet`].
pub type ChannelId = usize;

/// Occupancy and traffic statistics for one FIFO.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FifoStats {
    /// Total values pushed over the run.
    pub pushes: u64,
    /// Total values popped over the run.
    pub pops: u64,
    /// High-water mark of committed occupancy.
    pub max_occupancy: usize,
    /// Capacity of the FIFO (so the drift report can bound the HWM).
    pub capacity: usize,
}

/// A bounded, two-phase FIFO of 32-bit values.
///
/// ```
/// use dfcnn_core::stream::Fifo;
/// let mut f = Fifo::new(4);
/// f.push(1.0);
/// assert_eq!(f.pop(), None);       // staged: invisible this cycle
/// f.commit();                      // cycle boundary
/// assert_eq!(f.pop(), Some(1.0));  // one cycle per hop, like hardware
/// ```
#[derive(Clone, Debug)]
pub struct Fifo {
    buf: std::collections::VecDeque<f32>,
    staged: Vec<f32>,
    capacity: usize,
    stats: FifoStats,
}

impl Fifo {
    /// Create a FIFO with the given capacity (≥ 1).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "FIFO capacity must be at least 1");
        Fifo {
            buf: std::collections::VecDeque::with_capacity(capacity),
            staged: Vec::new(),
            capacity,
            stats: FifoStats {
                capacity,
                ..FifoStats::default()
            },
        }
    }

    /// Capacity in values.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Committed occupancy (visible to consumers this cycle).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no committed values are available.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Whether a push is currently allowed (committed + staged < capacity).
    pub fn can_push(&self) -> bool {
        self.buf.len() + self.staged.len() < self.capacity
    }

    /// Stage one value for the next cycle.
    ///
    /// # Panics
    /// If the FIFO is full — producers must check [`Fifo::can_push`]; a
    /// hardware FIFO would have deasserted `ready`.
    pub fn push(&mut self, v: f32) {
        assert!(self.can_push(), "push into full FIFO");
        self.staged.push(v);
        self.stats.pushes += 1;
    }

    /// The value a pop would return, if any.
    pub fn peek(&self) -> Option<f32> {
        self.buf.front().copied()
    }

    /// Pop the oldest committed value.
    pub fn pop(&mut self) -> Option<f32> {
        let v = self.buf.pop_front();
        if v.is_some() {
            self.stats.pops += 1;
        }
        v
    }

    /// Cycle boundary: staged values become visible.
    pub fn commit(&mut self) {
        self.buf.extend(self.staged.drain(..));
        self.stats.max_occupancy = self.stats.max_occupancy.max(self.buf.len());
    }

    /// Statistics collected so far.
    pub fn stats(&self) -> FifoStats {
        self.stats
    }

    /// Values in flight (committed + staged) — used by done-detection.
    pub fn total_in_flight(&self) -> usize {
        self.buf.len() + self.staged.len()
    }
}

/// One occupancy change on one channel, as recorded for the event-driven
/// scheduler (see [`ChannelSet::set_recording`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChannelEvent {
    /// A value was staged on the channel (visible next cycle).
    Push(ChannelId),
    /// A committed value was consumed from the channel.
    Pop(ChannelId),
}

/// All channels of a design, indexed by [`ChannelId`].
///
/// Besides the FIFOs themselves, the set maintains the bookkeeping the
/// event-driven scheduler needs: per-channel *waiter lists* (which actor
/// reads and which writes each channel, registered from the actors'
/// wiring declarations), per-actor wake flags driven directly from pushes
/// and pops (the scheduler's hot path — enabled only in event mode, so
/// the dense reference sweep pays nothing), an event log of occupancy
/// changes (an opt-in verification facility for the wake rules), and a
/// dirty list so a cycle boundary only commits channels that actually
/// staged values.
#[derive(Clone, Debug, Default)]
pub struct ChannelSet {
    fifos: Vec<Fifo>,
    activity: u64,
    /// Actor indices reading each channel (parallel to `fifos`).
    readers: Vec<Vec<usize>>,
    /// Actor indices writing each channel (parallel to `fifos`).
    writers: Vec<Vec<usize>>,
    /// Occupancy-change log (only filled while `recording`).
    events: Vec<ChannelEvent>,
    recording: bool,
    /// Channels with staged values awaiting commit.
    dirty: Vec<ChannelId>,
    /// Per-actor "tick this cycle" flags as 64-bit words, bit `i & 63` of
    /// word `i >> 6` (empty unless wake tracking is enabled). Words let
    /// the scheduler's scan jump between runnable actors with
    /// `trailing_zeros` instead of testing every actor every cycle.
    wake_now: Vec<u64>,
    /// Per-actor "tick next cycle" flags, same layout.
    wake_next: Vec<u64>,
    /// Whether any `wake_next` flag is set (avoids a scan per cycle).
    wake_next_any: bool,
    /// Actor currently being ticked (orders same-cycle pop wakes).
    cur_actor: usize,
}

impl ChannelSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a new channel; returns its id.
    pub fn alloc(&mut self, capacity: usize) -> ChannelId {
        self.fifos.push(Fifo::new(capacity));
        self.readers.push(Vec::new());
        self.writers.push(Vec::new());
        self.fifos.len() - 1
    }

    /// Register actor `actor` as a consumer of channel `id` (woken on
    /// pushes).
    pub fn register_reader(&mut self, id: ChannelId, actor: usize) {
        if !self.readers[id].contains(&actor) {
            self.readers[id].push(actor);
        }
    }

    /// Register actor `actor` as a producer into channel `id` (woken on
    /// pops).
    pub fn register_writer(&mut self, id: ChannelId, actor: usize) {
        if !self.writers[id].contains(&actor) {
            self.writers[id].push(actor);
        }
    }

    /// Actors registered as consumers of channel `id`.
    pub fn readers(&self, id: ChannelId) -> &[usize] {
        &self.readers[id]
    }

    /// Actors registered as producers into channel `id`.
    pub fn writers(&self, id: ChannelId) -> &[usize] {
        &self.writers[id]
    }

    /// Turn occupancy-change recording on or off (off by default; tests
    /// use the log to pin down exactly when wake-ups must fire).
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
        self.events.clear();
    }

    /// Enable direct wake tracking for `actors` actors: from here on every
    /// push marks the channel's readers to tick next cycle, and every pop
    /// marks its writers (same cycle for writers the in-order scan has not
    /// reached yet, next cycle otherwise). Off by default — the dense
    /// reference sweep never pays for it.
    pub fn enable_wake_tracking(&mut self, actors: usize) {
        let words = actors.div_ceil(64);
        self.wake_now = vec![0; words];
        self.wake_next = vec![0; words];
        self.wake_next_any = false;
    }

    /// Declare which actor is about to tick (orders same-cycle pop wakes).
    #[inline]
    pub fn begin_tick(&mut self, actor: usize) {
        self.cur_actor = actor;
    }

    /// Word `w` of the "tick this cycle" flags.
    #[inline]
    pub fn wake_now_word(&self, w: usize) -> u64 {
        self.wake_now[w]
    }

    /// Number of 64-actor words in the wake flags.
    #[inline]
    pub fn wake_words(&self) -> usize {
        self.wake_now.len()
    }

    /// Clear bit `bit` of "tick this cycle" word `w` (the scan consumes
    /// flags one runnable actor at a time).
    #[inline]
    pub fn clear_wake_now(&mut self, w: usize, bit: u32) {
        self.wake_now[w] &= !(1u64 << bit);
    }

    /// Mark actor `actor` to tick this cycle (timed wake-ups).
    #[inline]
    pub fn set_wake_now(&mut self, actor: usize) {
        self.wake_now[actor >> 6] |= 1u64 << (actor & 63);
    }

    /// Mark actor `actor` to tick next cycle (quiescence hints ≤ 1 cycle
    /// out).
    #[inline]
    pub fn set_wake_next(&mut self, actor: usize) {
        self.wake_next[actor >> 6] |= 1u64 << (actor & 63);
        self.wake_next_any = true;
    }

    /// Whether any actor is marked to tick next cycle.
    #[inline]
    pub fn wake_next_any(&self) -> bool {
        self.wake_next_any
    }

    /// Cycle boundary for the wake flags: next-cycle marks become
    /// this-cycle marks. The scan has consumed every `wake_now` flag by
    /// the time this runs, so the copy simply replaces zero words.
    #[inline]
    pub fn advance_wakes(&mut self) {
        for (now, next) in self.wake_now.iter_mut().zip(self.wake_next.iter_mut()) {
            *now = std::mem::take(next);
        }
        self.wake_next_any = false;
    }

    /// Move all recorded events into `out` (preserving order), leaving the
    /// internal log empty.
    pub fn drain_events_into(&mut self, out: &mut Vec<ChannelEvent>) {
        out.append(&mut self.events);
    }

    /// Number of channels.
    pub fn len(&self) -> usize {
        self.fifos.len()
    }

    /// Whether the set holds no channels.
    pub fn is_empty(&self) -> bool {
        self.fifos.is_empty()
    }

    /// Immutable access to a channel.
    pub fn get(&self, id: ChannelId) -> &Fifo {
        &self.fifos[id]
    }

    /// Whether channel `id` can accept a push this cycle.
    pub fn can_push(&self, id: ChannelId) -> bool {
        self.fifos[id].can_push()
    }

    /// Push to channel `id` (counts as activity).
    pub fn push(&mut self, id: ChannelId, v: f32) {
        let first_staged = self.fifos[id].staged.is_empty();
        self.fifos[id].push(v);
        self.activity += 1;
        if first_staged {
            self.dirty.push(id);
        }
        if !self.wake_now.is_empty() {
            // the value becomes visible after the commit: readers tick at
            // the next cycle
            for i in 0..self.readers[id].len() {
                let r = self.readers[id][i];
                self.wake_next[r >> 6] |= 1u64 << (r & 63);
            }
            self.wake_next_any |= !self.readers[id].is_empty();
        }
        if self.recording {
            self.events.push(ChannelEvent::Push(id));
        }
    }

    /// Peek channel `id`.
    pub fn peek(&self, id: ChannelId) -> Option<f32> {
        self.fifos[id].peek()
    }

    /// Pop from channel `id` (counts as activity).
    pub fn pop(&mut self, id: ChannelId) -> Option<f32> {
        let v = self.fifos[id].pop();
        if v.is_some() {
            self.activity += 1;
            if !self.wake_now.is_empty() {
                // freed space is observable the same cycle by writers the
                // in-order scan has not reached yet (they tick after the
                // popping actor in the dense sweep too), next cycle by
                // writers already scanned
                for i in 0..self.writers[id].len() {
                    let w = self.writers[id][i];
                    match w.cmp(&self.cur_actor) {
                        std::cmp::Ordering::Greater => {
                            self.wake_now[w >> 6] |= 1u64 << (w & 63);
                        }
                        std::cmp::Ordering::Less => {
                            self.wake_next[w >> 6] |= 1u64 << (w & 63);
                            self.wake_next_any = true;
                        }
                        std::cmp::Ordering::Equal => {}
                    }
                }
            }
            if self.recording {
                self.events.push(ChannelEvent::Pop(id));
            }
        }
        v
    }

    /// Commit every channel (cycle boundary).
    pub fn commit_all(&mut self) {
        for f in &mut self.fifos {
            f.commit();
        }
        self.dirty.clear();
    }

    /// Commit only the channels that staged values this cycle.
    ///
    /// Equivalent to [`ChannelSet::commit_all`] in every observable way —
    /// a commit with nothing staged changes neither occupancy nor the
    /// high-water statistic — but O(traffic) instead of O(channels), which
    /// is what lets the event-driven scheduler skip quiet cycles cheaply.
    pub fn commit_dirty(&mut self) {
        for i in 0..self.dirty.len() {
            let id = self.dirty[i];
            self.fifos[id].commit();
        }
        self.dirty.clear();
    }

    /// Total pushes+pops since construction — the progress signal used by
    /// deadlock detection.
    pub fn activity(&self) -> u64 {
        self.activity
    }

    /// Total values in flight across all channels.
    pub fn total_in_flight(&self) -> usize {
        self.fifos.iter().map(|f| f.total_in_flight()).sum()
    }

    /// Statistics for every channel.
    pub fn all_stats(&self) -> Vec<FifoStats> {
        self.fifos.iter().map(|f| f.stats()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_invisible_until_commit() {
        let mut f = Fifo::new(4);
        f.push(1.0);
        assert!(f.is_empty(), "staged value must not be visible");
        assert_eq!(f.pop(), None);
        f.commit();
        assert_eq!(f.len(), 1);
        assert_eq!(f.pop(), Some(1.0));
    }

    #[test]
    fn capacity_counts_staged() {
        let mut f = Fifo::new(2);
        f.push(1.0);
        f.push(2.0);
        assert!(!f.can_push(), "staged values must consume capacity");
        f.commit();
        assert!(!f.can_push());
        f.pop();
        assert!(f.can_push());
    }

    #[test]
    #[should_panic(expected = "full FIFO")]
    fn overfull_push_panics() {
        let mut f = Fifo::new(1);
        f.push(1.0);
        f.push(2.0);
    }

    #[test]
    fn fifo_order_preserved() {
        let mut f = Fifo::new(8);
        for i in 0..5 {
            f.push(i as f32);
        }
        f.commit();
        for i in 0..5 {
            assert_eq!(f.pop(), Some(i as f32));
        }
        assert_eq!(f.pop(), None);
    }

    #[test]
    fn stats_track_traffic() {
        let mut f = Fifo::new(4);
        f.push(1.0);
        f.push(2.0);
        f.commit();
        f.pop();
        let s = f.stats();
        assert_eq!(s.pushes, 2);
        assert_eq!(s.pops, 1);
        assert_eq!(s.max_occupancy, 2);
    }

    #[test]
    fn channel_set_round_trip() {
        let mut cs = ChannelSet::new();
        let a = cs.alloc(2);
        let b = cs.alloc(2);
        cs.push(a, 10.0);
        cs.push(b, 20.0);
        assert_eq!(cs.peek(a), None);
        cs.commit_all();
        assert_eq!(cs.peek(a), Some(10.0));
        assert_eq!(cs.pop(b), Some(20.0));
        assert_eq!(cs.activity(), 3); // 2 pushes + 1 pop
        assert_eq!(cs.total_in_flight(), 1);
    }

    #[test]
    fn events_recorded_only_when_enabled_and_only_on_change() {
        let mut cs = ChannelSet::new();
        let a = cs.alloc(2);
        let mut evs = Vec::new();

        // recording off: traffic leaves no events
        cs.push(a, 1.0);
        cs.commit_all();
        cs.pop(a);
        cs.drain_events_into(&mut evs);
        assert!(evs.is_empty());

        cs.set_recording(true);
        cs.push(a, 2.0);
        assert_eq!(cs.pop(a), None, "staged value invisible — no Pop event");
        cs.commit_all();
        cs.pop(a);
        cs.pop(a); // empty: must not record
        cs.drain_events_into(&mut evs);
        assert_eq!(evs, vec![ChannelEvent::Push(a), ChannelEvent::Pop(a)]);
        evs.clear();
        cs.drain_events_into(&mut evs);
        assert!(evs.is_empty(), "drain must empty the log");
    }

    #[test]
    fn waiter_lists_register_and_dedup() {
        let mut cs = ChannelSet::new();
        let a = cs.alloc(2);
        let b = cs.alloc(2);
        cs.register_reader(a, 3);
        cs.register_reader(a, 3);
        cs.register_reader(a, 5);
        cs.register_writer(b, 1);
        assert_eq!(cs.readers(a), &[3, 5]);
        assert_eq!(cs.writers(b), &[1]);
        assert!(cs.readers(b).is_empty());
        assert!(cs.writers(a).is_empty());
    }

    #[test]
    fn commit_dirty_equals_commit_all() {
        let mut all = ChannelSet::new();
        let mut dirty = ChannelSet::new();
        for _ in 0..3 {
            all.alloc(4);
            dirty.alloc(4);
        }
        for step in 0..20u64 {
            let ch = (step % 3) as usize;
            if step % 4 != 3 {
                if all.can_push(ch) {
                    all.push(ch, step as f32);
                    dirty.push(ch, step as f32);
                }
            } else {
                assert_eq!(all.pop(ch), dirty.pop(ch));
            }
            all.commit_all();
            dirty.commit_dirty();
        }
        assert_eq!(all.all_stats(), dirty.all_stats());
        for ch in 0..3 {
            assert_eq!(all.get(ch).len(), dirty.get(ch).len());
            assert_eq!(all.peek(ch), dirty.peek(ch));
        }
    }

    #[test]
    fn peek_does_not_consume() {
        let mut f = Fifo::new(2);
        f.push(7.0);
        f.commit();
        assert_eq!(f.peek(), Some(7.0));
        assert_eq!(f.len(), 1);
        assert_eq!(f.pop(), Some(7.0));
    }
}
