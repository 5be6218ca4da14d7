//! Machine-speed calibration.
//!
//! The shared host this benchmark runs on changes speed under it. For
//! seconds at a time a neighbour contends for the core and every piece of
//! code, host engine and simulator alike, runs up to ~1.8× slower, by a
//! factor that differs between kinds of code; between those periods the
//! clock itself drifts. A fixed piece of work that belongs to the
//! benchmark, never to the program under test, is timed before and after
//! every measured call. Calls during which it ran slow are contended and
//! left out. The rest are scaled by one factor per run, from the run's
//! uncontended calibration time to [`NOMINAL_NS`]. Raw figures are printed
//! beside the scaled ones.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The calibration work's duration reported figures are scaled to: its
/// typical uncontended time on a 2-vCPU Xeon host.
pub const NOMINAL_NS: f64 = 90_000.0;

/// A call counts as uncontended when the calibration on both sides of it
/// took at most this multiple of the run's fastest calibrations.
pub const GATE: f64 = 1.25;

/// Percentile of a run's calibration times taken as its uncontended
/// speed (a low one, not the minimum, so one lucky sample does not set it).
pub const FAST_PCT: f64 = 5.0;

/// Entries of the lookup table the calibration walks (64 KB: past L1,
/// inside L2).
const TABLE: usize = 1 << 14;

/// Fixed work in two halves of about equal time: a vectorisable f32
/// multiply-add loop over an L1-resident array (like the conv kernels) and
/// a data-dependent walk with branches over an L2-resident table (like the
/// simulator's scheduler). Core contention slows the first half about 2×
/// and the second about 1.3×; the host engine and the simulator fall in
/// between, so the sum tracks them better than either half. Returns its
/// wall time in ns.
pub fn calibration_ns() -> f64 {
    let xs: Vec<f32> = (0..1024).map(|i| (i as f32 * 0.37).sin()).collect();
    let table: Vec<u32> = (0..TABLE as u32)
        .map(|i| i.wrapping_mul(2_654_435_761))
        .collect();
    let t0 = Instant::now();
    let mut acc = [0f32; 8];
    for pass in 0..48 {
        let w = 1.0 + pass as f32 * 1e-3;
        for (i, x) in black_box(&xs).iter().enumerate() {
            acc[i % 8] += x * w;
        }
    }
    let mut h = 0x9E37_79B9u32;
    let mut taken = 0u32;
    for _ in 0..10_000 {
        h = table[h as usize % TABLE] ^ h.rotate_left(5);
        if h & 3 == 0 {
            taken += 1;
        }
    }
    black_box((acc, h, taken));
    t0.elapsed().as_nanos() as f64
}

/// Run the calibration work for `ms` milliseconds, so the core has left
/// any idle state before the first timed call.
pub fn warm_up(ms: u64) {
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_millis(ms) {
        black_box(calibration_ns());
    }
}

/// A timed call with the calibration taken on both sides of it.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// The call's wall time.
    pub wall: Duration,
    /// Calibration just before the call, ns.
    pub before_ns: f64,
    /// Calibration just after the call, ns.
    pub after_ns: f64,
}

impl Sample {
    /// The slower of the two calibrations: what the gate compares.
    pub fn worst_ns(&self) -> f64 {
        self.before_ns.max(self.after_ns)
    }
}

/// Times calls with calibration between them; each calibration serves as
/// the "after" of one call and the "before" of the next.
pub struct Calibrated {
    last_ns: f64,
}

impl Default for Calibrated {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibrated {
    /// Start with a fresh calibration.
    pub fn new() -> Self {
        Calibrated {
            last_ns: calibration_ns(),
        }
    }

    /// Run `f` and return its value and sample.
    pub fn call<R>(&mut self, f: impl FnOnce() -> R) -> (R, Sample) {
        let before_ns = self.last_ns;
        let t0 = Instant::now();
        let r = f();
        let wall = t0.elapsed();
        self.last_ns = calibration_ns();
        (
            r,
            Sample {
                wall,
                before_ns,
                after_ns: self.last_ns,
            },
        )
    }
}

/// The uncontended calibration time of a run: the [`FAST_PCT`] percentile
/// of every calibration taken.
pub fn fast_ns(samples: &[&Sample]) -> f64 {
    let all: Vec<f64> = samples
        .iter()
        .flat_map(|s| [s.before_ns, s.after_ns])
        .collect();
    crate::stats::percentile(&all, FAST_PCT)
}

/// Whether a sample passes the gate against the run's uncontended
/// calibration time.
pub fn uncontended(s: &Sample, fast_ns: f64) -> bool {
    s.worst_ns() <= GATE * fast_ns
}
