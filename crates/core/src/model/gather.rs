//! The gather-then-drain actor shell shared by the FC and log-softmax
//! kinds.
//!
//! Both cores read one image's whole input vector on a single port before
//! they can produce anything: the FC core accumulates every input into
//! each output's interleaved banks (§IV-B), the normalisation core needs
//! every score for the max and the sum. [`GatherCore`] is that shared
//! shell as a cycle actor: it accepts one input value per input-loop II,
//! runs the compute body once when the image's last value arrives, and
//! after the drain latency emits the outputs one per cycle on its single
//! output port. The per-kind part is a [`GatherBody`]: the FC body lives
//! in [`super::fc`], the log-softmax body in [`super::logsoftmax`]. A body
//! is also its kind's host [`StageWorker`], so the actor and the host
//! stage run the same compute.

use super::StageWorker;
use crate::sim::{Actor, Next, Quiescence, Wiring};
use crate::stream::{ChannelId, ChannelSet};
use crate::trace::{EventKind, Stall, Trace};
use dfcnn_tensor::Tensor3;

/// The compute body behind a [`GatherCore`]: one image's outputs from its
/// whole input vector.
pub trait GatherBody {
    /// Values gathered per image.
    fn inputs(&self) -> usize;

    /// Values emitted per image.
    fn outputs(&self) -> usize;

    /// Compute one image's outputs from its gathered inputs.
    fn compute(&mut self, input: &[f32], out: &mut [f32]);
}

/// Every body is its kind's host stage worker: one image in, one out.
impl<B: GatherBody + Send> StageWorker for B {
    fn apply_multi(&mut self, inputs: &[&Tensor3<f32>], out: &mut Tensor3<f32>) {
        self.compute(inputs[0].as_slice(), out.as_mut_slice());
    }
}

enum Phase {
    /// Gathering the current image's inputs.
    Gather,
    /// Emitting output `next`, not before cycle `ready`.
    Drain { next: usize, ready: u64 },
}

/// A single-port accumulate/drain core around a [`GatherBody`].
pub struct GatherCore<B> {
    name: String,
    in_ch: ChannelId,
    out_ch: ChannelId,
    body: B,
    /// Input-loop initiation interval.
    in_ii: u64,
    /// Drain latency after the last input.
    drain: u64,
    /// The current image's inputs so far.
    buffer: Vec<f32>,
    results: Vec<f32>,
    phase: Phase,
    next_accept: u64,
    inits: u64,
}

impl<B: GatherBody> GatherCore<B> {
    /// Wrap `body`: one input accepted per `in_ii` cycles, the first
    /// output `drain` cycles after the last input.
    pub fn new(
        name: impl Into<String>,
        in_ch: ChannelId,
        out_ch: ChannelId,
        body: B,
        in_ii: u64,
        drain: u64,
    ) -> Self {
        GatherCore {
            name: name.into(),
            in_ch,
            out_ch,
            buffer: Vec::with_capacity(body.inputs()),
            results: vec![0.0; body.outputs()],
            body,
            in_ii,
            drain,
            phase: Phase::Gather,
            next_accept: 0,
            inits: 0,
        }
    }

    /// What blocks the core after its tick at `now`: an empty input while
    /// gathering or a full output while draining (a push or pop wakes it),
    /// else the II or drain timer.
    fn next(&self, now: u64, chans: &ChannelSet) -> Next {
        let timer = |t: u64| {
            if t > now + 1 {
                Quiescence::Wait(Some(t))
            } else {
                Quiescence::Active
            }
        };
        let (wait, stall) = match self.phase {
            // input present: paced by the II timer
            Phase::Gather if chans.peek(self.in_ch).is_some() => {
                (timer(self.next_accept), Stall::Computing)
            }
            // mid-image, upstream ran dry
            Phase::Gather if !self.buffer.is_empty() => (Quiescence::Wait(None), Stall::Starved(0)),
            // between images
            Phase::Gather => (Quiescence::Wait(None), Stall::Idle),
            // drain latency elapsing
            Phase::Drain { ready, .. } if chans.can_push(self.out_ch) => {
                (timer(ready), Stall::Computing)
            }
            Phase::Drain { .. } => (Quiescence::Wait(None), Stall::Backpressured(0)),
        };
        Next { wait, stall }
    }
}

impl<B: GatherBody> Actor for GatherCore<B> {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, cycle: u64, chans: &mut ChannelSet, trace: &mut Trace) -> Next {
        match self.phase {
            Phase::Gather => {
                if cycle >= self.next_accept && chans.peek(self.in_ch).is_some() {
                    let v = chans.pop(self.in_ch).unwrap();
                    self.buffer.push(v);
                    self.next_accept = cycle + self.in_ii;
                    self.inits += 1;
                    trace.record(cycle, &self.name, EventKind::Initiate);
                    if self.buffer.len() == self.body.inputs() {
                        self.body.compute(&self.buffer, &mut self.results);
                        self.buffer.clear();
                        self.phase = Phase::Drain {
                            next: 0,
                            ready: cycle + self.drain,
                        };
                    }
                }
            }
            Phase::Drain { next, ready } => {
                if cycle >= ready && chans.can_push(self.out_ch) {
                    chans.push(self.out_ch, self.results[next]);
                    trace.record(cycle, &self.name, EventKind::Emit);
                    self.phase = if next + 1 == self.results.len() {
                        Phase::Gather
                    } else {
                        Phase::Drain {
                            next: next + 1,
                            ready: cycle + 1,
                        }
                    };
                }
            }
        }
        self.next(cycle, chans)
    }

    fn busy(&self) -> bool {
        match self.phase {
            Phase::Gather => !self.buffer.is_empty(),
            Phase::Drain { .. } => true,
        }
    }

    fn initiations(&self) -> u64 {
        self.inits
    }

    fn wiring(&self) -> Wiring {
        Wiring {
            inputs: vec![self.in_ch],
            outputs: vec![self.out_ch],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sums its inputs into every output.
    struct Sum(usize, usize);

    impl GatherBody for Sum {
        fn inputs(&self) -> usize {
            self.0
        }

        fn outputs(&self) -> usize {
            self.1
        }

        fn compute(&mut self, input: &[f32], out: &mut [f32]) {
            out.fill(input.iter().sum());
        }
    }

    #[test]
    fn accepts_at_the_ii_and_emits_one_per_cycle_after_the_drain() {
        let mut chans = ChannelSet::new();
        let (i, o) = (chans.alloc(8), chans.alloc(8));
        for v in [1.0, 2.0, 3.0] {
            chans.push(i, v);
        }
        chans.commit_all();
        let mut core = GatherCore::new("g", i, o, Sum(3, 2), 2, 5);
        let mut trace = Trace::enabled();
        for c in 0..20 {
            core.tick(c, &mut chans, &mut trace);
            chans.commit_all();
        }
        assert_eq!(trace.initiation_cycles("g"), vec![0, 2, 4]);
        assert_eq!(trace.emit_cycles("g"), vec![9, 10]);
        assert_eq!(chans.pop(o), Some(6.0));
        assert_eq!(chans.pop(o), Some(6.0));
        assert_eq!(core.initiations(), 3);
        assert!(!core.busy());
        assert!(matches!(
            core.tick(20, &mut chans, &mut trace).stall,
            Stall::Idle
        ));
    }

    #[test]
    fn stalls_name_the_blocking_side() {
        let mut chans = ChannelSet::new();
        let (i, o) = (chans.alloc(4), chans.alloc(1));
        chans.push(i, 1.0);
        chans.commit_all();
        let mut core = GatherCore::new("g", i, o, Sum(2, 2), 1, 0);
        let mut trace = Trace::disabled();
        let mut next = core.tick(0, &mut chans, &mut trace);
        chans.commit_all();
        assert!(matches!(next.stall, Stall::Starved(0)));
        assert!(matches!(next.wait, Quiescence::Wait(None)));
        chans.push(i, 2.0);
        chans.commit_all();
        for c in 1..4 {
            next = core.tick(c, &mut chans, &mut trace);
            chans.commit_all();
        }
        // one output fills the one-slot FIFO, the second waits for room
        assert!(matches!(next.stall, Stall::Backpressured(0)));
        assert!(core.busy());
    }
}
