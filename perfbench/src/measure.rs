//! Set-up, the engine entry points, and the untraced end-to-end run.
//!
//! The load is one process, one thread and a closed loop: one caller
//! streams a batch through the host engine, then a batch through the cycle
//! simulator, and each call starts only after the previous one returns.
//! Each engine entry point is called from exactly one function here.

use crate::calib::{fast_ns, uncontended, warm_up, Calibrated, Sample, NOMINAL_NS};
use crate::gate::Gate;
use crate::stats::{median, percentile, tail_percentile};
use crate::trace::Tracer;
use crate::workload::{Inputs, Workload};
use dfcnn_core::exec::{ExecResult, PipelineProfile, ThreadedEngine};
use dfcnn_core::graph::NetworkDesign;
use dfcnn_core::sim::{SimError, SimResult, Simulator};
use dfcnn_core::{analyze, check_design};
use dfcnn_tensor::Tensor3;
use std::time::{Duration, Instant};

/// Images drawn per seed. Host and simulator batches rotate through them.
pub const POOL: usize = 256;
/// Images per host `run_sequential` call.
pub const HOST_BATCH: usize = 4;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 64;
/// Percentile `host_lat_tail_us` is taken at: the highest with ten
/// samples beyond it in every 30 s run on every workload (a run keeps
/// hundreds to thousands of per-image samples).
pub const TAIL_PCT: f64 = 95.0;
/// Calibration work run before the first timed call.
pub const WARM_UP_MS: u64 = 300;
/// Pool images checked against `NetworkDesign::hw_forward`.
pub const HW_FORWARD_SAMPLE: [usize; 4] = [0, 21, 42, 63];

// ------------------------------------------------------------ entry points

/// `ThreadedEngine::new`.
pub fn new_engine(design: &NetworkDesign) -> ThreadedEngine {
    ThreadedEngine::new(design)
}

/// `ThreadedEngine::run_sequential`.
pub fn host_run(engine: &ThreadedEngine, images: &[Tensor3<f32>]) -> ExecResult {
    engine.run_sequential(images)
}

/// `ThreadedEngine::run_sequential_profiled`.
pub fn host_run_profiled(
    engine: &ThreadedEngine,
    images: &[Tensor3<f32>],
) -> (ExecResult, PipelineProfile) {
    engine.run_sequential_profiled(images)
}

/// `NetworkDesign::instantiate`.
pub fn instantiate(design: &NetworkDesign, images: &[Tensor3<f32>]) -> Simulator {
    design.instantiate(images)
}

/// `Simulator::try_run`, timed; the trace is dropped.
pub fn simulate(sim: Simulator) -> (Result<SimResult, SimError>, Duration) {
    let t0 = Instant::now();
    let r = sim.try_run().map(|(res, _trace)| res);
    (r, t0.elapsed())
}

// ------------------------------------------------------------------ set-up

/// Wall time of each set-up call, in the order they run.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// `graph`: `NetworkDesign::new` / `build_graph_design`.
    pub build: Duration,
    /// `check::check_design`.
    pub check: Duration,
    /// `range::analyze`.
    pub range: Duration,
    /// `ThreadedEngine::new`.
    pub engine_new: Duration,
    /// `NetworkDesign::instantiate` for one simulator batch.
    pub instantiate: Duration,
}

impl SetupTimes {
    /// Σ of the calls.
    pub fn total(&self) -> Duration {
        self.build + self.check + self.range + self.engine_new + self.instantiate
    }
}

/// A built workload, ready to run.
pub struct Built {
    /// The design.
    pub design: NetworkDesign,
    /// Its host engine.
    pub engine: ThreadedEngine,
    /// Error diagnostics from `check_design`.
    pub check_errors: usize,
}

fn timed<R>(tracer: &mut Option<Tracer>, name: &str, f: impl FnOnce() -> R) -> (R, Duration) {
    let t0 = Instant::now();
    let r = match tracer {
        Some(t) => t.span(name, |_| f()),
        None => f(),
    };
    (r, t0.elapsed())
}

/// Build, check, analyse, make the engine and instantiate the simulator
/// once, timing each call (and recording a span for each when tracing).
pub fn setup(
    w: &Workload,
    inputs: &Inputs,
    tracer: &mut Option<Tracer>,
) -> Result<(Built, SetupTimes), String> {
    let (design, build) = timed(tracer, "graph.build", || w.build_design(&inputs.weights));
    let design = design?;
    let (report, check) = timed(tracer, "check.check_design", || check_design(&design));
    let (range_report, range) = timed(tracer, "range.analyze", || analyze(&design));
    std::hint::black_box(&range_report);
    let (engine, engine_new) = timed(tracer, "exec.engine_new", || new_engine(&design));
    let (sim, inst) = timed(tracer, "sim.instantiate", || {
        instantiate(&design, &inputs.images[..w.sim_batch])
    });
    drop(sim);
    let times = SetupTimes {
        build,
        check,
        range,
        engine_new,
        instantiate: inst,
    };
    let check_errors = report.errors().len();
    Ok((
        Built {
            design,
            engine,
            check_errors,
        },
        times,
    ))
}

/// Set up [`SETUP_REPS`] times; returns the last build and every
/// repetition's call timings.
pub fn setup_repeated(
    w: &Workload,
    inputs: &Inputs,
    tracer: &mut Option<Tracer>,
) -> Result<(Built, Vec<SetupTimes>), String> {
    let mut reps = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let (built, t) = setup(w, inputs, tracer)?;
        reps.push(t);
        last = Some(built);
    }
    Ok((last.expect("SETUP_REPS > 0"), reps))
}

/// Median over repetitions of one set-up call, in seconds.
pub fn median_s(reps: &[SetupTimes], f: impl Fn(&SetupTimes) -> Duration) -> f64 {
    median(&reps.iter().map(|t| f(t).as_secs_f64()).collect::<Vec<_>>())
}

/// The pool images of host or simulator batch `k`.
pub fn batch(images: &[Tensor3<f32>], size: usize, k: usize) -> (usize, &[Tensor3<f32>]) {
    let first = (k * size) % images.len();
    (first, &images[first..first + size])
}

/// The reference pass and the `hw_forward` sample: the gate every later
/// output is held to.
pub fn reference_gate(built: &Built, images: &[Tensor3<f32>]) -> Gate {
    let reference = host_run(&built.engine, images);
    let mut gate = Gate::new(&reference.outputs);
    gate.attempted += images.len() as u64;
    if built.check_errors > 0 {
        gate.fail(
            images.len() as u64,
            format!("check_design reports {} error(s)", built.check_errors),
        );
    }
    for &i in &HW_FORWARD_SAMPLE {
        let out = built.design.hw_forward(&images[i]);
        gate.check("hw_forward", i, out.as_slice());
    }
    gate
}

/// Run one simulator batch, check its outputs, and return its result.
pub fn sim_batch(
    built: &Built,
    images: &[Tensor3<f32>],
    size: usize,
    k: usize,
    gate: &mut Gate,
    mode: impl FnOnce(Simulator) -> Simulator,
) -> (Option<SimResult>, Duration) {
    let (first, imgs) = batch(images, size, k);
    let sim = mode(instantiate(&built.design, imgs));
    let (r, wall) = simulate(sim);
    match r {
        Ok(res) => {
            for (j, out) in res.outputs.iter().enumerate() {
                gate.check("simulator", first + j, out);
            }
            (Some(res), wall)
        }
        Err(e) => {
            gate.attempted += size as u64;
            gate.fail(size as u64, format!("simulator: {e}"));
            (None, wall)
        }
    }
}

/// Peak resident set of this process in MB (`VmHWM`), if readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

// ------------------------------------------------------------ end to end

/// The end-to-end figures of one untraced run. Timings come from the
/// calls that ran uncontended, scaled to nominal machine speed (see
/// [`crate::calib`]).
#[derive(Clone, Debug)]
pub struct EndToEnd {
    /// Host images per second: `HOST_BATCH` over the median call time.
    pub host_img_per_s: f64,
    /// Median per-image time between consecutive completions, µs.
    pub host_lat_p50_us: f64,
    /// Tail per-image time, µs, at percentile `host_tail_pct`.
    pub host_lat_tail_us: f64,
    /// The percentile the tail is taken at.
    pub host_tail_pct: f64,
    /// Host calls kept, of those made.
    pub host_calls: (usize, usize),
    /// Per-image latency samples kept.
    pub host_images: usize,
    /// Median simulated Mcycles per host second.
    pub sim_mcycles_per_s: f64,
    /// Simulator runs kept, of those that completed.
    pub sim_runs: (usize, usize),
    /// Simulated µs per image at the workload's batch (a model output).
    pub sim_us_per_img: f64,
    /// Simulated cycles of one batch.
    pub sim_cycles: u64,
    /// Median set-up time, s.
    pub setup_s: f64,
    /// Set-ups kept, of [`SETUP_REPS`].
    pub setups: usize,
    /// Peak resident set, MB.
    pub peak_rss_mb: f64,
    /// The run's uncontended calibration time over the nominal one
    /// (above 1: the machine ran slower than nominal even uncontended).
    pub slowdown: f64,
    /// `host_img_per_s` over every call, unscaled.
    pub raw_host_img_per_s: f64,
    /// `sim_mcycles_per_s` over every run, unscaled.
    pub raw_sim_mcycles_per_s: f64,
    /// The correctness gate after the run.
    pub gate: Gate,
}

/// Per-image intervals between consecutive completions of one host call.
/// The first image is timed from the call's start, so the intervals sum to
/// the call's wall time.
pub fn completion_gaps_us(res: &ExecResult) -> impl Iterator<Item = f64> + '_ {
    let mut prev = Duration::ZERO;
    res.completion_times.iter().map(move |&t| {
        let gap = t - prev;
        prev = t;
        gap.as_secs_f64() * 1e6
    })
}

/// The uncontended subset of `samples` (all of them if none passes).
fn kept<T>(samples: &[(T, Sample)], fast: f64) -> Vec<&(T, Sample)> {
    let kept: Vec<_> = samples
        .iter()
        .filter(|(_, s)| uncontended(s, fast))
        .collect();
    if kept.is_empty() {
        samples.iter().collect()
    } else {
        kept
    }
}

/// The untraced run: set-up, the reference pass, then host calls,
/// simulator runs and repeated set-ups interleaved (host and simulator get
/// half of `seconds` each) so a change in machine speed lands on all.
pub fn run_end_to_end(w: &Workload, seed: u64, seconds: f64) -> Result<EndToEnd, String> {
    let inputs = w.inputs(seed, POOL);
    let (built, _) = setup(w, &inputs, &mut None)?;
    let images = &inputs.images;
    warm_up(WARM_UP_MS);
    let mut gate = reference_gate(&built, images);

    // per set-up: its call times; per host call: its per-image gaps; per
    // sim run: its cycle count
    let mut setups: Vec<(SetupTimes, Sample)> = Vec::new();
    let mut host: Vec<(Vec<f64>, Sample)> = Vec::new();
    let mut sim: Vec<(u64, Sample)> = Vec::new();
    let mut sim_exact: Option<(f64, u64)> = None;
    let (mut host_spent, mut sim_spent) = (Duration::ZERO, Duration::ZERO);
    let share = Duration::from_secs_f64(seconds / 2.0);
    let clock_hz = built.design.config().clock_hz;
    let mut cal = Calibrated::new();
    let mut sim_calls = 0usize;
    while host_spent < share
        || sim_spent < share
        || host.len() < 2
        || sim_calls == 0
        || setups.len() < SETUP_REPS
    {
        // set-ups are spread evenly over the run, so they see the same
        // machine as the calls they are compared with
        let due = (host_spent + sim_spent).as_secs_f64() / seconds * SETUP_REPS as f64;
        if setups.len() < SETUP_REPS && (setups.len() as f64) < due {
            let (r, sample) = cal.call(|| setup(w, &inputs, &mut None));
            setups.push((r?.1, sample));
        } else if host_spent <= sim_spent {
            let (first, imgs) = batch(images, HOST_BATCH, host.len());
            let (res, sample) = cal.call(|| host_run(&built.engine, imgs));
            host_spent += sample.wall;
            for (j, out) in res.outputs.iter().enumerate() {
                gate.check("host", first + j, out.as_slice());
            }
            host.push((completion_gaps_us(&res).collect(), sample));
        } else {
            let k = sim_calls;
            sim_calls += 1;
            let ((res, _), sample) =
                cal.call(|| sim_batch(&built, images, w.sim_batch, k, &mut gate, |s| s));
            sim_spent += sample.wall;
            let Some(res) = res else { continue };
            let us = res.measurement(clock_hz).mean_time_per_image_us();
            match sim_exact {
                None => sim_exact = Some((us, res.cycles)),
                Some((u, c)) if u != us || c != res.cycles => gate.fail(
                    w.sim_batch as u64,
                    format!(
                        "simulator: batch {k} took {} cycles, batch 0 {c}",
                        res.cycles
                    ),
                ),
                Some(_) => {}
            }
            sim.push((res.cycles, sample));
        }
    }

    let every: Vec<&Sample> = setups
        .iter()
        .map(|(_, s)| s)
        .chain(host.iter().map(|(_, s)| s))
        .chain(sim.iter().map(|(_, s)| s))
        .collect();
    let fast = fast_ns(&every);
    // one factor per run: per-call factors would carry each calibration's
    // own noise into the tails
    let scale = NOMINAL_NS / fast;
    let host_kept = kept(&host, fast);
    let walls: Vec<f64> = host_kept
        .iter()
        .map(|(_, s)| s.wall.as_secs_f64() * scale)
        .collect();
    let gaps: Vec<f64> = host_kept
        .iter()
        .flat_map(|(g, _)| g.iter().map(|x| x * scale))
        .collect();
    let sim_kept = kept(&sim, fast);
    let mcycles = |c: u64, secs: f64| c as f64 / 1e6 / secs;
    let rates: Vec<f64> = sim_kept
        .iter()
        .map(|(c, s)| mcycles(*c, s.wall.as_secs_f64() * scale))
        .collect();
    let setup_s: Vec<f64> = kept(&setups, fast)
        .iter()
        .map(|(t, _)| t.total().as_secs_f64() * scale)
        .collect();
    let raw_walls: Vec<f64> = host.iter().map(|(_, s)| s.wall.as_secs_f64()).collect();
    let raw_rates: Vec<f64> = sim
        .iter()
        .map(|(c, s)| mcycles(*c, s.wall.as_secs_f64()))
        .collect();
    let tail_pct = tail_percentile(TAIL_PCT, gaps.len());
    let (sim_us_per_img, sim_cycles) = sim_exact.unwrap_or((f64::NAN, 0));
    Ok(EndToEnd {
        host_img_per_s: HOST_BATCH as f64 / median(&walls),
        host_lat_p50_us: median(&gaps),
        host_lat_tail_us: percentile(&gaps, tail_pct),
        host_tail_pct: tail_pct,
        host_calls: (host_kept.len(), host.len()),
        host_images: gaps.len(),
        sim_mcycles_per_s: median(&rates),
        sim_runs: (sim_kept.len(), sim.len()),
        sim_us_per_img,
        sim_cycles,
        setup_s: median(&setup_s),
        setups: setup_s.len(),
        peak_rss_mb: peak_rss_mb().unwrap_or(f64::NAN),
        slowdown: 1.0 / scale,
        raw_host_img_per_s: HOST_BATCH as f64 / median(&raw_walls),
        raw_sim_mcycles_per_s: median(&raw_rates),
        gate,
    })
}
