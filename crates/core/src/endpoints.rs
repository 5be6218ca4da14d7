//! The ends of the pipeline: the DMA-fed image source and the score sink.
//!
//! These model the §V-A test harness: the Microblaze programs a DMA that
//! streams each image's pixels (row-major, channels interleaved — exactly
//! a [`dfcnn_tensor::Tensor3`]'s backing storage) into the first layer at
//! up to one 32-bit beat per cycle (400 MB/s at 100 MHz), and a second DMA
//! channel moves the classifier scores back, timestamped by the Axi-Timer.
//! Images of a batch are streamed back-to-back, which is what creates the
//! high-level pipelining effect of Fig. 6.

use crate::sim::{Actor, Next, Quiescence, Wiring};
use crate::stream::{ChannelId, ChannelSet};
use crate::trace::{EventKind, Stall, Trace};
use dfcnn_fpga::dma::DmaChannel;

/// Image source: streams a batch, one value per DMA beat, routing channel
/// `f` of each pixel to first-layer port `f mod IN_PORTS`.
pub struct Source {
    name: String,
    /// The flattened batch: every image's stream-order values concatenated.
    data: Vec<f32>,
    /// Values per image.
    image_len: usize,
    /// Channels per pixel of the input volume.
    channels: usize,
    /// Output channel per first-layer port.
    out_ports: Vec<ChannelId>,
    dma: DmaChannel,
    cursor: usize,
    /// Cycle of the last DMA-throttled (credit/setup) failed attempt, used
    /// by the event-driven engine to replay the attempts that dense
    /// ticking would have made on the skipped cycles. While the source
    /// sleeps on this, `can_push` cannot turn false (only the source
    /// pushes that channel), so every skipped cycle *would* have attempted
    /// — exactly the sequence `accrue_failed_attempts` replays.
    dma_anchor: Option<u64>,
    /// The first cycle the DMA admits a beat, worked out at the first
    /// refused attempt of a throttled stretch (a loop over the wait). Each
    /// further refusal brings the channel one cycle closer, so the cycle
    /// holds until a beat moves; the event-driven engine sleeps until it.
    dma_ready: Option<u64>,
}

impl Source {
    /// Build a source for a batch of equally-shaped images.
    pub fn new(
        images: &[dfcnn_tensor::Tensor3<f32>],
        out_ports: Vec<ChannelId>,
        dma: DmaChannel,
    ) -> Self {
        assert!(!images.is_empty(), "empty batch");
        assert!(!out_ports.is_empty(), "source needs at least one port");
        let shape = images[0].shape();
        assert_eq!(
            shape.c % out_ports.len(),
            0,
            "first-layer ports must divide input channels"
        );
        let mut data = Vec::with_capacity(images.len() * shape.len());
        for img in images {
            assert_eq!(img.shape(), shape, "batch images must share a shape");
            data.extend_from_slice(img.as_slice());
        }
        let mut s = Source {
            name: "dma-source".to_string(),
            data,
            image_len: shape.len(),
            channels: shape.c,
            out_ports,
            dma,
            cursor: 0,
            dma_anchor: None,
            dma_ready: None,
        };
        s.dma.start_transfer();
        s
    }

    /// Values remaining to stream.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.cursor
    }

    /// The first-layer port of the next value.
    fn port(&self) -> usize {
        let channel = (self.cursor % self.image_len) % self.channels;
        channel % self.out_ports.len()
    }

    /// What blocks the source after its tick at `now`: a streamed batch
    /// (nothing wakes it), a full port (the consumer's pop wakes it), or
    /// the DMA credit/setup throttle, which it sleeps out until the first
    /// cycle a dense attempt sequence would succeed.
    fn next(&self, now: u64, chans: &ChannelSet) -> Next {
        let port = self.port();
        let (wait, stall) = if self.cursor >= self.data.len() {
            (Quiescence::Wait(None), Stall::Idle)
        } else if !chans.can_push(self.out_ports[port]) {
            (Quiescence::Wait(None), Stall::Backpressured(port))
        } else if self.dma_anchor == Some(now) {
            // a throttled beat keeps the link busy
            (Quiescence::Wait(self.dma_ready), Stall::Computing)
        } else {
            (Quiescence::Active, Stall::Computing)
        };
        Next { wait, stall }
    }
}

impl Actor for Source {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, cycle: u64, chans: &mut ChannelSet, trace: &mut Trace) -> Next {
        if self.cursor >= self.data.len() {
            return self.next(cycle, chans);
        }
        let target = self.out_ports[self.port()];
        // consume DMA credit only when the stream can actually advance
        if !chans.can_push(target) {
            return self.next(cycle, chans);
        }
        if let Some(t0) = self.dma_anchor.take() {
            // replay the failed attempts of the skipped cycles (a no-op
            // under dense ticking, where the gap is always zero)
            self.dma.accrue_failed_attempts(cycle - t0 - 1);
        }
        if self.dma.tick() {
            self.dma_ready = None;
            chans.push(target, self.data[self.cursor]);
            self.cursor += 1;
            trace.record(cycle, &self.name, EventKind::Emit);
            if self.cursor.is_multiple_of(self.image_len) && self.cursor < self.data.len() {
                // next image: charge the per-transfer setup overhead
                self.dma.start_transfer();
            }
        } else {
            self.dma_anchor = Some(cycle);
            if self.dma_ready.is_none() {
                self.dma_ready = Some(cycle + self.dma.cycles_until_ready());
            }
        }
        self.next(cycle, chans)
    }

    fn busy(&self) -> bool {
        self.cursor < self.data.len()
    }

    fn initiations(&self) -> u64 {
        self.cursor as u64
    }

    fn wiring(&self) -> Wiring {
        Wiring {
            inputs: vec![],
            outputs: self.out_ports.clone(),
        }
    }
}

/// What the sink has collected, shared with the engine.
#[derive(Clone, Debug, Default)]
pub struct SinkState {
    /// Cycle of each image's final value.
    pub completions: Vec<u64>,
    /// Collected scores per image, in FM order.
    pub outputs: Vec<Vec<f32>>,
}

/// Score sink: reassembles the interleaved output stream into per-image
/// score vectors, at most one value per cycle (the S2MM DMA beat rate).
pub struct Sink {
    name: String,
    in_ports: Vec<ChannelId>,
    /// Values per image (number of classes).
    per_image: usize,
    state: std::rc::Rc<std::cell::RefCell<SinkState>>,
    current: Vec<f32>,
    dma: DmaChannel,
    /// Same skipped-cycle DMA replay anchor as [`Source::dma_anchor`];
    /// sound because only the sink pops its input, so a visible value
    /// stays visible across the sleep.
    dma_anchor: Option<u64>,
    /// Same wake cycle as [`Source::dma_ready`].
    dma_ready: Option<u64>,
}

impl Sink {
    /// Build a sink reading `per_image` values per image, value `j` from
    /// port `j mod ports`.
    pub fn new(
        in_ports: Vec<ChannelId>,
        per_image: usize,
        state: std::rc::Rc<std::cell::RefCell<SinkState>>,
        dma: DmaChannel,
    ) -> Self {
        assert!(!in_ports.is_empty(), "sink needs at least one port");
        assert!(per_image >= 1, "images must produce at least one value");
        Sink {
            name: "dma-sink".to_string(),
            in_ports,
            per_image,
            state,
            current: Vec::with_capacity(per_image),
            dma,
            dma_anchor: None,
            dma_ready: None,
        }
    }

    /// The input port of the next value.
    fn port(&self) -> usize {
        self.current.len() % self.in_ports.len()
    }

    /// What blocks the sink after its tick at `now`: an empty port (the
    /// producer's push wakes it), or the S2MM beat-rate throttle, slept out
    /// like the source's.
    fn next(&self, now: u64, chans: &ChannelSet) -> Next {
        let port = self.port();
        let (wait, stall) = if chans.peek(self.in_ports[port]).is_some() {
            let wait = if self.dma_anchor == Some(now) {
                Quiescence::Wait(self.dma_ready)
            } else {
                Quiescence::Active
            };
            (wait, Stall::Computing)
        } else if self.current.is_empty() {
            // between images
            (Quiescence::Wait(None), Stall::Idle)
        } else {
            // mid-image, the pipeline ran dry
            (Quiescence::Wait(None), Stall::Starved(port))
        };
        Next { wait, stall }
    }
}

impl Actor for Sink {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, cycle: u64, chans: &mut ChannelSet, trace: &mut Trace) -> Next {
        let port = self.in_ports[self.port()];
        if chans.peek(port).is_none() {
            return self.next(cycle, chans);
        }
        if let Some(t0) = self.dma_anchor.take() {
            self.dma.accrue_failed_attempts(cycle - t0 - 1);
        }
        if self.dma.tick() {
            self.dma_ready = None;
            let v = chans.pop(port).unwrap();
            self.current.push(v);
            if self.current.len() == self.per_image {
                let mut s = self.state.borrow_mut();
                s.outputs.push(std::mem::take(&mut self.current));
                s.completions.push(cycle);
                trace.record(cycle, &self.name, EventKind::ImageDone);
                self.current = Vec::with_capacity(self.per_image);
            }
        } else {
            self.dma_anchor = Some(cycle);
            if self.dma_ready.is_none() {
                self.dma_ready = Some(cycle + self.dma.cycles_until_ready());
            }
        }
        self.next(cycle, chans)
    }

    fn busy(&self) -> bool {
        !self.current.is_empty()
    }

    fn initiations(&self) -> u64 {
        self.state.borrow().completions.len() as u64
    }

    fn wiring(&self) -> Wiring {
        Wiring {
            inputs: self.in_ports.clone(),
            outputs: vec![],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfcnn_fpga::dma::DmaConfig;
    use dfcnn_tensor::{Shape3, Tensor3};

    fn img(v: f32, shape: Shape3) -> Tensor3<f32> {
        let mut i = v;
        Tensor3::from_fn(shape, |_, _, _| {
            i += 1.0;
            i
        })
    }

    #[test]
    fn source_streams_in_order_single_port() {
        let shape = Shape3::new(2, 2, 1);
        let a = img(0.0, shape);
        let mut chans = ChannelSet::new();
        let ch = chans.alloc(16);
        let mut src = Source::new(
            std::slice::from_ref(&a),
            vec![ch],
            DmaChannel::new(DmaConfig::paper()),
        );
        let mut trace = Trace::disabled();
        for c in 0..8 {
            src.tick(c, &mut chans, &mut trace);
            chans.commit_all();
        }
        let mut got = Vec::new();
        while let Some(v) = chans.pop(ch) {
            got.push(v);
        }
        assert_eq!(got, a.as_slice());
        assert!(!src.busy());
    }

    #[test]
    fn source_routes_channels_round_robin() {
        // 2 channels over 2 ports: channel 0 -> port 0, channel 1 -> port 1
        let shape = Shape3::new(1, 2, 2);
        let a = img(0.0, shape); // stream: 1,2,3,4
        let mut chans = ChannelSet::new();
        let p0 = chans.alloc(8);
        let p1 = chans.alloc(8);
        let mut src = Source::new(&[a], vec![p0, p1], DmaChannel::new(DmaConfig::paper()));
        let mut trace = Trace::disabled();
        for c in 0..8 {
            src.tick(c, &mut chans, &mut trace);
            chans.commit_all();
        }
        let drain = |chans: &mut ChannelSet, id| {
            let mut v = Vec::new();
            while let Some(x) = chans.pop(id) {
                v.push(x);
            }
            v
        };
        assert_eq!(drain(&mut chans, p0), vec![1.0, 3.0]);
        assert_eq!(drain(&mut chans, p1), vec![2.0, 4.0]);
    }

    #[test]
    fn source_respects_backpressure() {
        let shape = Shape3::new(2, 2, 1);
        let a = img(0.0, shape);
        let mut chans = ChannelSet::new();
        let ch = chans.alloc(2); // tiny FIFO
        let mut src = Source::new(&[a], vec![ch], DmaChannel::new(DmaConfig::paper()));
        let mut trace = Trace::disabled();
        for c in 0..10 {
            src.tick(c, &mut chans, &mut trace);
            chans.commit_all();
        }
        // only 2 values fit; source must still be busy
        assert_eq!(chans.get(ch).len(), 2);
        assert!(src.busy());
        assert_eq!(src.remaining(), 2);
    }

    #[test]
    fn sink_reassembles_and_timestamps() {
        let mut chans = ChannelSet::new();
        let ch = chans.alloc(16);
        let state = std::rc::Rc::new(std::cell::RefCell::new(SinkState::default()));
        let mut sink = Sink::new(
            vec![ch],
            3,
            state.clone(),
            DmaChannel::new(DmaConfig::paper()),
        );
        let mut trace = Trace::disabled();
        // preload 6 values = 2 images
        for v in 0..6 {
            chans.push(ch, v as f32);
        }
        chans.commit_all();
        for c in 0..10 {
            sink.tick(c, &mut chans, &mut trace);
            chans.commit_all();
        }
        let s = state.borrow();
        assert_eq!(s.outputs.len(), 2);
        assert_eq!(s.outputs[0], vec![0.0, 1.0, 2.0]);
        assert_eq!(s.outputs[1], vec![3.0, 4.0, 5.0]);
        assert_eq!(s.completions.len(), 2);
        assert!(s.completions[0] < s.completions[1]);
    }

    #[test]
    fn sink_rate_limited_to_one_per_cycle() {
        let mut chans = ChannelSet::new();
        let ch = chans.alloc(16);
        let state = std::rc::Rc::new(std::cell::RefCell::new(SinkState::default()));
        let mut sink = Sink::new(
            vec![ch],
            4,
            state.clone(),
            DmaChannel::new(DmaConfig::paper()),
        );
        let mut trace = Trace::disabled();
        for v in 0..4 {
            chans.push(ch, v as f32);
        }
        chans.commit_all();
        // exactly 4 cycles needed to drain 4 values
        for c in 0..3 {
            sink.tick(c, &mut chans, &mut trace);
        }
        assert!(state.borrow().outputs.is_empty());
        sink.tick(3, &mut chans, &mut trace);
        assert_eq!(state.borrow().outputs.len(), 1);
    }

    #[test]
    #[should_panic(expected = "share a shape")]
    fn mixed_shapes_rejected() {
        let a = img(0.0, Shape3::new(2, 2, 1));
        let b = img(0.0, Shape3::new(2, 3, 1));
        let mut chans = ChannelSet::new();
        let ch = chans.alloc(4);
        Source::new(&[a, b], vec![ch], DmaChannel::new(DmaConfig::paper()));
    }
}
