//! The SST *memory structure*: sliding-window reconstruction with full
//! buffering (§II-B, §IV-A).
//!
//! Per input port, the paper instantiates a chain of *filters* connected by
//! FIFOs — one filter per window row — that (a) forwards the single input
//! stream down the chain so every value is read from memory exactly once,
//! and (b) taps each value into the window register slice at the right
//! moment. The total storage is the minimum for *full buffering*:
//! `((KH-1)·W + KW) · channels-per-port` values per port (`dfcnn_tensor`'s
//! [`ConvGeometry::full_buffer_elems`] divided across ports).
//!
//! [`WindowEngine`] models that structure behaviourally and exactly at the
//! value level:
//!
//! - it accepts **at most one value per port per cycle**, and only while the
//!   line buffer has room (the filter chain's backpressure);
//! - a window becomes *ready* exactly when its bottom-right value has
//!   arrived on every port (the moment the register slice is complete);
//! - storage is freed as the raster-order window sweep moves past it, so
//!   occupancy never exceeds the full-buffering minimum — a property the
//!   test suite asserts, and the precise sense in which the paper claims
//!   minimal on-chip memory use.
//!
//! Feature maps are interleaved over ports round-robin: FM `f` travels on
//! port `f mod IN_PORTS`, and each pixel's FMs appear on a port in
//! increasing `f` order. Algorithm 1's group loop (`for i = 0 to IN_FM step
//! IN_PORTS`) then processes FMs `{g·P, …, g·P+P-1}` — one per port — in
//! group `g`, which is exactly how [`WindowEngine::extract`] orders the
//! window buffer.
//!
//! The engine is generic over the stored value, `WindowEngine<T = f32>`.
//! The simulator's conv and pool cores store the executed element type:
//! each value is quantised once, as it enters the line buffer, not once
//! per window that reads it. Padding reads `T::default()`, which is the
//! zero of every [`dfcnn_tensor::Element`].

use dfcnn_tensor::ConvGeometry;

/// The SST full-buffering bound per port, in values: the minimum line
/// buffer that keeps the window sweep streaming without stalls,
/// `((KH-1+pad)·W + KW) · channels-per-port`. Exported so the static
/// checker ([`crate::check`]) can prove buffer sufficiency against the
/// exact capacity [`WindowEngine::new`] allocates.
///
/// # Panics
/// If `in_ports` does not divide the channel count.
pub fn full_buffer_bound_per_port(geo: &ConvGeometry, in_ports: usize) -> usize {
    assert!(in_ports >= 1, "need at least one input port");
    assert_eq!(
        geo.input.c % in_ports,
        0,
        "IN_PORTS {} must divide IN_FM {}",
        in_ports,
        geo.input.c
    );
    let ch_per_port = geo.input.c / in_ports;
    ((geo.kh - 1 + geo.pad) * geo.input.w + geo.kw) * ch_per_port
}

/// One port's line buffer: a window of the value stream with absolute
/// indexing, so readiness and freeing are O(1) index comparisons.
#[derive(Clone, Debug)]
struct PortBuffer<T> {
    buf: std::collections::VecDeque<T>,
    /// Absolute stream index of `buf[0]`.
    head: u64,
    /// Total values accepted (absolute stream index of the next value).
    received: u64,
}

impl<T: Copy> PortBuffer<T> {
    /// `capacity` is the full-buffering bound; preallocating it makes the
    /// steady-state accept/free path allocation-free.
    fn new(capacity: usize) -> Self {
        PortBuffer {
            buf: std::collections::VecDeque::with_capacity(capacity),
            head: 0,
            received: 0,
        }
    }

    #[inline]
    fn get(&self, abs: u64) -> T {
        debug_assert!(
            abs >= self.head && abs < self.received,
            "index out of buffer"
        );
        self.buf[(abs - self.head) as usize]
    }

    fn accept(&mut self, v: T) {
        self.buf.push_back(v);
        self.received += 1;
    }

    fn free_before(&mut self, abs: u64) {
        while self.head < abs && !self.buf.is_empty() {
            self.buf.pop_front();
            self.head += 1;
        }
    }
}

/// Sliding-window engine for one layer: `IN_PORTS` line buffers plus the
/// window scheduler, storing values of type `T`.
#[derive(Clone, Debug)]
pub struct WindowEngine<T = f32> {
    geo: ConvGeometry,
    in_ports: usize,
    ch_per_port: usize,
    ports: Vec<PortBuffer<T>>,
    /// Per-port line-buffer capacity in values. Defaults to the SST
    /// full-buffering bound; overridable (fault injection) via
    /// [`WindowEngine::with_capacity_per_port`].
    capacity: usize,
    /// Global window counter (monotone across images).
    next_window: u64,
    /// The oldest and newest absolute per-port index the next window
    /// needs (`oldest_needed`, `last_needed`). Every simulated cycle asks
    /// for them and each takes several divisions, so they are worked out
    /// once per window.
    needed: (u64, u64),
    /// Peak per-port occupancy observed (for the full-buffering assertion).
    max_occupancy: usize,
}

impl<T: Copy + Default> WindowEngine<T> {
    /// Create an engine for the given geometry and port count.
    ///
    /// # Panics
    /// If `in_ports` does not divide the channel count (the paper's designs
    /// always interleave a whole number of FMs per port).
    pub fn new(geo: ConvGeometry, in_ports: usize) -> Self {
        // full-buffering bound (see capacity_per_port), preallocated so the
        // line buffers never grow on the steady-state path
        let cap = full_buffer_bound_per_port(&geo, in_ports);
        let ch_per_port = geo.input.c / in_ports;
        let mut engine = WindowEngine {
            geo,
            in_ports,
            ch_per_port,
            ports: (0..in_ports).map(|_| PortBuffer::new(cap)).collect(),
            capacity: cap,
            next_window: 0,
            needed: (0, 0),
            max_occupancy: 0,
        };
        engine.needed = (engine.oldest_needed(), engine.last_needed());
        engine
    }

    /// Replace the per-port line-buffer capacity (fault injection: a
    /// capacity below [`full_buffer_bound_per_port`] provably prevents
    /// some window from ever completing, which the static checker flags
    /// and the cycle simulator confirms by deadlocking).
    pub fn with_capacity_per_port(mut self, capacity: usize) -> Self {
        assert!(capacity >= 1, "line buffer needs at least one slot");
        self.capacity = capacity;
        self
    }

    /// The geometry this engine serves.
    pub fn geometry(&self) -> &ConvGeometry {
        &self.geo
    }

    /// Number of input ports.
    pub fn in_ports(&self) -> usize {
        self.in_ports
    }

    /// Values per port per image.
    pub fn port_stream_len(&self) -> u64 {
        (self.geo.input.h * self.geo.input.w * self.ch_per_port) as u64
    }

    /// Window positions per image.
    pub fn windows_per_image(&self) -> u64 {
        self.geo.positions() as u64
    }

    /// Number of values in one extracted window (`KH · KW · IN_FM`).
    pub fn window_len(&self) -> usize {
        self.geo.window_volume()
    }

    /// Line-buffer capacity per port, in values.
    ///
    /// For the paper's zero-padding designs this is exactly the SST
    /// minimum `((KH-1)·W + KW)` per interleaved channel; with top/bottom
    /// padding the live span can reach one extra padded row per side, so a
    /// `pad·W` margin is added (zero when `pad == 0`). See
    /// [`full_buffer_bound_per_port`]; differs only after a
    /// [`WindowEngine::with_capacity_per_port`] override.
    pub fn capacity_per_port(&self) -> usize {
        self.capacity
    }

    /// Peak per-port occupancy observed so far.
    pub fn max_occupancy(&self) -> usize {
        self.max_occupancy
    }

    /// Current line-buffer occupancy of port `p` (values held on chip).
    pub fn occupancy(&self, p: usize) -> usize {
        self.ports[p].buf.len()
    }

    /// Padded-space anchor of global window `w`:
    /// `(image, y0, x0)`.
    fn anchor(&self, w: u64) -> (u64, isize, isize) {
        let wpi = self.windows_per_image();
        let img = w / wpi;
        let idx = (w % wpi) as usize;
        let ow = self.geo.out_w();
        let oy = idx / ow;
        let ox = idx % ow;
        (
            img,
            (oy * self.geo.stride) as isize - self.geo.pad as isize,
            (ox * self.geo.stride) as isize - self.geo.pad as isize,
        )
    }

    /// Absolute per-port index of pixel `(y, x)` channel-slot `slot` in
    /// image `img`.
    #[inline]
    fn abs_index(&self, img: u64, y: usize, x: usize, slot: usize) -> u64 {
        img * self.port_stream_len() + ((y * self.geo.input.w + x) * self.ch_per_port + slot) as u64
    }

    /// Oldest absolute index still needed (per port) by the next window and
    /// all later ones.
    ///
    /// Within a window row, anchors only move right, so the next window's
    /// clamped top-left pixel bounds the rest of its row. With *top
    /// padding*, however, the following window row can re-read image row 0
    /// from column 0 (its anchor clamps to the same row but a smaller
    /// column), so the minimum over all future windows is the smaller of
    /// the next window's anchor and the next row's start anchor.
    fn oldest_needed(&self) -> u64 {
        let (img, y0, x0) = self.anchor(self.next_window);
        let mut oldest = self.abs_index(img, y0.max(0) as usize, x0.max(0) as usize, 0);
        let wpi = self.windows_per_image();
        let idx = (self.next_window % wpi) as usize;
        let oy = idx / self.geo.out_w();
        if oy + 1 < self.geo.out_h() {
            let y0n = ((oy + 1) * self.geo.stride) as isize - self.geo.pad as isize;
            let cand = self.abs_index(img, y0n.max(0) as usize, 0, 0);
            oldest = oldest.min(cand);
        }
        oldest
    }

    /// Newest absolute index the next window requires (per port).
    fn last_needed(&self) -> u64 {
        let (img, y0, x0) = self.anchor(self.next_window);
        let h = self.geo.input.h;
        let w = self.geo.input.w;
        let ly = ((y0 + self.geo.kh as isize - 1).max(0) as usize).min(h - 1);
        let lx = ((x0 + self.geo.kw as isize - 1).max(0) as usize).min(w - 1);
        self.abs_index(img, ly, lx, self.ch_per_port - 1)
    }

    /// Whether port `p` may accept a value this cycle (line buffer has
    /// room under the full-buffering bound).
    pub fn can_accept(&self, p: usize) -> bool {
        self.ports[p].received < self.needed.0 + self.capacity_per_port() as u64
    }

    /// Accept one value on port `p` (caller must have checked
    /// [`WindowEngine::can_accept`]).
    ///
    /// Values the remaining window sweep will never read — e.g. pixels
    /// skipped entirely by a stride larger than the window — are discarded
    /// immediately, as the hardware filter does ("changing the condition on
    /// which the values are redirected to the window registers", §IV-A):
    /// this keeps occupancy within the full-buffering bound in every
    /// stride/window combination.
    pub fn accept(&mut self, p: usize, v: T) {
        assert!(self.can_accept(p), "line buffer full on port {p}");
        let oldest = self.needed.0;
        let pb = &mut self.ports[p];
        pb.accept(v);
        pb.free_before(oldest);
        let occ = pb.buf.len();
        self.max_occupancy = self.max_occupancy.max(occ);
    }

    /// Whether the next window is fully buffered on every port.
    pub fn window_ready(&self) -> bool {
        let last = self.needed.1;
        self.ports.iter().all(|pb| pb.received > last)
    }

    /// Copy the next window into `out` and advance the sweep, freeing
    /// storage behind it. Layout: `out[(f·KH + dy)·KW + dx]` for FM `f`
    /// (`T::default()`, the zero, where the window overhangs the padded
    /// border).
    ///
    /// # Panics
    /// If the window is not ready or `out` has the wrong length.
    pub fn extract(&mut self, out: &mut [T]) {
        assert!(self.window_ready(), "window not ready");
        assert_eq!(
            out.len(),
            self.window_len(),
            "window buffer length mismatch"
        );
        let (img, y0, x0) = self.anchor(self.next_window);
        let (h, w) = (self.geo.input.h, self.geo.input.w);
        let in_fm = self.geo.input.c;
        for f in 0..in_fm {
            let p = f % self.in_ports;
            let slot = f / self.in_ports;
            for dy in 0..self.geo.kh {
                for dx in 0..self.geo.kw {
                    let (y, x) = (y0 + dy as isize, x0 + dx as isize);
                    let v = if y < 0 || x < 0 || y >= h as isize || x >= w as isize {
                        T::default()
                    } else {
                        self.ports[p].get(self.abs_index(img, y as usize, x as usize, slot))
                    };
                    out[(f * self.geo.kh + dy) * self.geo.kw + dx] = v;
                }
            }
        }
        self.next_window += 1;
        self.needed = (self.oldest_needed(), self.last_needed());
        let oldest = self.needed.0;
        for pb in &mut self.ports {
            pb.free_before(oldest);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfcnn_tensor::iter::{extract_window, WindowPositions};
    use dfcnn_tensor::{Shape3, Tensor3};

    /// Drive the engine with a whole image in stream order and collect all
    /// windows, asserting single-value-per-"cycle" acceptance interleaved
    /// with extraction whenever ready.
    fn run_engine(geo: ConvGeometry, in_ports: usize, images: &[Tensor3<f32>]) -> Vec<Vec<f32>> {
        let mut eng = WindowEngine::new(geo, in_ports);
        let chpp = geo.input.c / in_ports;
        // per-port input streams in arrival order
        let mut streams: Vec<Vec<f32>> = vec![Vec::new(); in_ports];
        for img in images {
            for y in 0..geo.input.h {
                for x in 0..geo.input.w {
                    for f in 0..geo.input.c {
                        streams[f % in_ports].push(img.get(y, x, f));
                    }
                }
            }
        }
        let mut cursors = vec![0usize; in_ports];
        let mut windows = Vec::new();
        let total_windows = geo.positions() * images.len();
        let mut guard = 0;
        while windows.len() < total_windows {
            guard += 1;
            assert!(guard < 10_000_000, "engine made no progress");
            for p in 0..in_ports {
                if cursors[p] < streams[p].len() && eng.can_accept(p) {
                    eng.accept(p, streams[p][cursors[p]]);
                    cursors[p] += 1;
                }
            }
            while eng.window_ready() && windows.len() < total_windows {
                let mut buf = vec![0.0f32; eng.window_len()];
                eng.extract(&mut buf);
                windows.push(buf);
            }
        }
        // occupancy must respect the full-buffering bound
        assert!(
            eng.max_occupancy() <= eng.capacity_per_port(),
            "occupancy {} exceeded full-buffer bound {} (chpp={})",
            eng.max_occupancy(),
            eng.capacity_per_port(),
            chpp
        );
        windows
    }

    /// Reference windows via the host-side extractor, reordered to the
    /// engine's `(f, dy, dx)` layout.
    fn reference_windows(geo: ConvGeometry, img: &Tensor3<f32>) -> Vec<Vec<f32>> {
        let mut res = Vec::new();
        let mut host = vec![0.0f32; geo.window_volume()];
        for (y0, x0) in WindowPositions::new(geo) {
            extract_window(img, &geo, y0, x0, &mut host);
            // host layout: (dy, dx, c); engine layout: (f, dy, dx)
            let mut eng = vec![0.0f32; host.len()];
            for dy in 0..geo.kh {
                for dx in 0..geo.kw {
                    for c in 0..geo.input.c {
                        eng[(c * geo.kh + dy) * geo.kw + dx] =
                            host[(dy * geo.kw + dx) * geo.input.c + c];
                    }
                }
            }
            res.push(eng);
        }
        res
    }

    fn ramp(shape: Shape3) -> Tensor3<f32> {
        let mut i = 0.0f32;
        Tensor3::from_fn(shape, |_, _, _| {
            i += 1.0;
            i
        })
    }

    #[test]
    fn single_channel_windows_match_reference() {
        let geo = ConvGeometry::new(Shape3::new(6, 6, 1), 3, 3, 1, 0);
        let img = ramp(geo.input);
        assert_eq!(
            run_engine(geo, 1, std::slice::from_ref(&img)),
            reference_windows(geo, &img)
        );
    }

    #[test]
    fn multichannel_single_port_matches() {
        let geo = ConvGeometry::new(Shape3::new(5, 4, 3), 2, 2, 1, 0);
        let img = ramp(geo.input);
        assert_eq!(
            run_engine(geo, 1, std::slice::from_ref(&img)),
            reference_windows(geo, &img)
        );
    }

    #[test]
    fn multichannel_multiport_matches() {
        // 6 channels over 3 ports: FM f on port f % 3
        let geo = ConvGeometry::new(Shape3::new(6, 6, 6), 3, 3, 1, 0);
        let img = ramp(geo.input);
        assert_eq!(
            run_engine(geo, 3, std::slice::from_ref(&img)),
            reference_windows(geo, &img)
        );
    }

    #[test]
    fn strided_windows_match() {
        let geo = ConvGeometry::new(Shape3::new(8, 8, 2), 2, 2, 2, 0);
        let img = ramp(geo.input);
        assert_eq!(
            run_engine(geo, 2, std::slice::from_ref(&img)),
            reference_windows(geo, &img)
        );
    }

    #[test]
    fn padded_windows_match() {
        let geo = ConvGeometry::new(Shape3::new(5, 5, 1), 3, 3, 1, 1);
        let img = ramp(geo.input);
        assert_eq!(
            run_engine(geo, 1, std::slice::from_ref(&img)),
            reference_windows(geo, &img)
        );
    }

    #[test]
    fn back_to_back_images_stream_cleanly() {
        let geo = ConvGeometry::new(Shape3::new(4, 4, 2), 2, 2, 1, 0);
        let a = ramp(geo.input);
        let b = a.map(|v| -v);
        let got = run_engine(geo, 1, &[a.clone(), b.clone()]);
        let mut expect = reference_windows(geo, &a);
        expect.extend(reference_windows(geo, &b));
        assert_eq!(got, expect);
    }

    #[test]
    fn usps_conv1_geometry_runs() {
        let geo = ConvGeometry::new(Shape3::new(16, 16, 1), 5, 5, 1, 0);
        let img = ramp(geo.input);
        let w = run_engine(geo, 1, std::slice::from_ref(&img));
        assert_eq!(w.len(), 144);
        assert_eq!(w, reference_windows(geo, &img));
    }

    #[test]
    fn capacity_is_full_buffer_formula() {
        let geo = ConvGeometry::new(Shape3::new(32, 32, 3), 5, 5, 1, 0);
        let eng = WindowEngine::<f32>::new(geo, 1);
        assert_eq!(eng.capacity_per_port(), (4 * 32 + 5) * 3);
        let eng3 = WindowEngine::<f32>::new(geo, 3);
        assert_eq!(eng3.capacity_per_port(), 4 * 32 + 5);
    }

    #[test]
    fn accept_blocks_at_capacity() {
        let geo = ConvGeometry::new(Shape3::new(4, 4, 1), 2, 2, 1, 0);
        let mut eng = WindowEngine::new(geo, 1);
        let cap = eng.capacity_per_port(); // 4 + 2 = 6
        for i in 0..cap {
            assert!(eng.can_accept(0), "should accept value {i}");
            eng.accept(0, i as f32);
        }
        assert!(!eng.can_accept(0), "must stall at full buffer");
        // consuming one window frees room
        assert!(eng.window_ready());
        let mut buf = vec![0.0; 4];
        eng.extract(&mut buf);
        assert!(eng.can_accept(0));
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn non_dividing_ports_rejected() {
        let geo = ConvGeometry::new(Shape3::new(4, 4, 3), 2, 2, 1, 0);
        WindowEngine::<f32>::new(geo, 2);
    }

    #[test]
    fn bound_helper_matches_engine_capacity() {
        let geo = ConvGeometry::new(Shape3::new(16, 16, 6), 5, 5, 1, 0);
        for ports in [1, 2, 3, 6] {
            assert_eq!(
                full_buffer_bound_per_port(&geo, ports),
                WindowEngine::<f32>::new(geo, ports).capacity_per_port()
            );
        }
    }

    #[test]
    fn undersized_capacity_blocks_the_first_window_forever() {
        let geo = ConvGeometry::new(Shape3::new(4, 4, 1), 2, 2, 1, 0);
        // the full-buffering bound is 6; one value short of it
        let mut eng = WindowEngine::new(geo, 1).with_capacity_per_port(5);
        let mut fed = 0;
        while eng.can_accept(0) {
            eng.accept(0, fed as f32);
            fed += 1;
        }
        assert_eq!(fed, 5, "acceptance stops at the overridden capacity");
        assert!(
            !eng.window_ready(),
            "an undersized line buffer can never complete a window — \
             the statically-provable deadlock"
        );
    }
}
