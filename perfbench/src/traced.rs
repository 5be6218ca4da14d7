//! The traced run: per-layer numbers from spans around every call into the
//! program, plus the checks that those spans close.
//!
//! The host pipeline is walked from here, one `StageWorker::apply_multi`
//! span per stage per image, over the stages `model::host_pipeline`
//! returns. Kernel rates come from timing the `kernel` functions and the
//! `Numeric` element type directly, in the same process. End-to-end
//! numbers never come from this run.

use crate::calib::warm_up;
use crate::gate::Gate;
use crate::measure::{
    batch, host_run, host_run_profiled, median_s, new_engine, reference_gate, setup,
    setup_repeated, sim_batch, Built, SetupTimes, HOST_BATCH, POOL, SETUP_REPS, WARM_UP_MS,
};
use crate::report::Metric;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::Workload;
use dfcnn_core::graph::StageInput;
use dfcnn_core::kernel;
use dfcnn_core::model::{self, StageWorker};
use dfcnn_core::sim::{SimResult, Simulator};
use dfcnn_nn::{Activation, Layer};
use dfcnn_tensor::{Fixed16, Numeric, NumericSpec, Tensor3};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Σ stage self time must cover at least this share of the traced host
/// wall time; the rest is loop and span overhead.
pub const CLOSURE_TOLERANCE: f64 = 0.05;
/// A stage's share of host time from the spans and from the engine's own
/// `PipelineProfile` may differ by at most this much.
pub const PROFILE_TOLERANCE: f64 = 0.05;

/// Stages reported as `host.<stage>.self_us`: the ones every workload's
/// design has, so no workload reports a constant 0 (names as
/// `ThreadedEngine::stage_names` gives them). Every stage of the run's
/// design is listed in the report and the record.
pub const COMMON_STAGES: [&str; 5] = ["conv1", "conv2", "pool1", "flatten", "fc1"];

/// Stage kinds reported as `host.kind.<kind>.share`.
pub const STAGE_KINDS: [&str; 6] = ["conv", "pool", "fc", "scaleshift", "add", "flatten"];
/// Stage kinds every workload has, also reported as `host.kind.<kind>.self_us`.
pub const COMMON_KINDS: [&str; 4] = ["conv", "pool", "fc", "flatten"];

/// A stage name's kind: the name without its trailing index.
pub fn stage_kind(name: &str) -> &str {
    name.trim_end_matches(|c: char| c.is_ascii_digit())
}

/// Geometry of one conv stage, read from the design's layer.
#[derive(Clone, Debug)]
pub struct ConvStage {
    /// Stage name.
    pub name: String,
    /// MACs per image: output values × window length.
    pub macs: u64,
    /// `KH·KW·IN_FM`, the dot length per output value.
    pub window: usize,
    /// Output values per image (one activation each).
    pub outputs: u64,
    /// The stage's activation.
    pub activation: Activation,
}

/// The conv stages of a design, in pipeline order.
pub fn conv_stages(built: &Built) -> Vec<ConvStage> {
    let design = &built.design;
    design
        .cores()
        .iter()
        .filter_map(|core| {
            let Layer::Conv(c) = &design.network().layers()[core.layer_index?] else {
                return None;
            };
            let geo = c.geometry();
            let window = geo.kh * geo.kw * geo.input.c;
            let outputs = c.output_shape().len() as u64;
            Some(ConvStage {
                name: core.name.clone(),
                macs: outputs * window as u64,
                window,
                outputs,
                activation: c.activation(),
            })
        })
        .collect()
}

/// Measured kernel rates for one element type.
#[derive(Clone, Debug, Default)]
pub struct KernelRates {
    /// `Numeric::dot_acc` MAC/s at each conv's window length, by stage.
    pub dot_macs_per_s: BTreeMap<String, f64>,
    /// ns per `kernel::activate` call, by activation.
    pub activate_ns: BTreeMap<String, f64>,
    /// ns per `Numeric::from_f32`.
    pub quantize_ns: f64,
    /// Calls timed for each of the three.
    pub dot_calls: u64,
    /// See `dot_calls`.
    pub activate_calls: u64,
    /// See `dot_calls`.
    pub quantize_calls: u64,
}

/// Repeat `f` until `budget` has passed; returns calls and seconds.
fn repeat_for(budget: Duration, mut f: impl FnMut()) -> (u64, f64) {
    let t0 = Instant::now();
    let mut calls = 0u64;
    while t0.elapsed() < budget || calls == 0 {
        for _ in 0..64 {
            f();
        }
        calls += 64;
    }
    (calls, t0.elapsed().as_secs_f64())
}

/// Time the kernels the conv stages run, in element type `E`.
fn kernel_rates<E: Numeric>(
    convs: &[ConvStage],
    tracer: &mut Tracer,
    budget: Duration,
) -> KernelRates {
    let mut rng = ChaCha8Rng::seed_from_u64(0x6E_7E1);
    let mut values =
        |n: usize, lim: f32| -> Vec<f32> { (0..n).map(|_| rng.gen_range(-lim..lim)).collect() };
    let mut out = KernelRates::default();
    for c in convs {
        let a: Vec<E> = values(c.window, 1.0).into_iter().map(E::from_f32).collect();
        let b: Vec<E> = values(c.window, 1.0).into_iter().map(E::from_f32).collect();
        let (calls, secs) = tracer.span("kernel.dot_acc", |_| {
            repeat_for(budget, || {
                black_box(E::dot_acc(black_box(&a), black_box(&b)));
            })
        });
        out.dot_calls += calls;
        let rate = (calls * c.window as u64) as f64 / secs;
        out.dot_macs_per_s.insert(c.name.clone(), rate);
    }
    let raw = values(4096, 3.0);
    let xs: Vec<E> = raw.iter().map(|&v| E::from_f32(v)).collect();
    for c in convs {
        let key = format!("{:?}", c.activation);
        if out.activate_ns.contains_key(&key) {
            continue;
        }
        let (calls, secs) = tracer.span("kernel.activate", |_| {
            repeat_for(budget, || {
                for &x in &xs {
                    black_box(kernel::activate(c.activation, black_box(x)));
                }
            })
        });
        out.activate_calls += calls * xs.len() as u64;
        out.activate_ns
            .insert(key, secs * 1e9 / (calls * xs.len() as u64) as f64);
    }
    let (calls, secs) = tracer.span("kernel.quantize", |_| {
        repeat_for(budget, || {
            for &v in &raw {
                black_box(E::from_f32(black_box(v)));
            }
        })
    });
    out.quantize_calls = calls * raw.len() as u64;
    out.quantize_ns = secs * 1e9 / out.quantize_calls as f64;
    out
}

/// Kernel rates in the workload's element type.
pub fn kernel_rates_for(
    numeric: NumericSpec,
    convs: &[ConvStage],
    tracer: &mut Tracer,
    budget: Duration,
) -> KernelRates {
    match numeric {
        NumericSpec::F32 => kernel_rates::<f32>(convs, tracer, budget),
        NumericSpec::Fixed16 { frac: 8 } => kernel_rates::<Fixed16<8>>(convs, tracer, budget),
        other => panic!("no workload runs in {}", other.label()),
    }
}

/// Everything the traced run measured.
pub struct Traced {
    /// Per-layer metrics, in report order.
    pub metrics: Vec<Metric>,
    /// The correctness gate after the run.
    pub gate: Gate,
    /// Exact simulator figures of batch 0.
    pub exact: Exact,
    /// Human-readable lines (closure checks, layer shares).
    pub notes: Vec<String>,
}

/// Simulator figures that repeat exactly for a seed.
#[derive(Clone, Debug, PartialEq)]
pub struct Exact {
    /// Simulated µs per image at the batch.
    pub sim_us_per_img: f64,
    /// Simulated cycles of batch 0.
    pub cycles: u64,
    /// Σ actor initiations of batch 0.
    pub initiations: u64,
    /// Σ over actors of (computing, starved, backpressured, idle) cycles.
    pub stalls: [u64; 4],
    /// Digest of the reference outputs.
    pub digest: u64,
}

/// The exact figures of one event run and one traced run of a batch.
pub fn exact_of(event: &SimResult, traced: &SimResult, clock_hz: u64, digest: u64) -> Exact {
    let mut stalls = [0u64; 4];
    for s in &traced.stalls {
        stalls[0] += s.computing;
        stalls[1] += s.starved_total();
        stalls[2] += s.backpressured_total();
        stalls[3] += s.idle;
    }
    Exact {
        sim_us_per_img: event.measurement(clock_hz).mean_time_per_image_us(),
        cycles: event.cycles,
        initiations: event.actor_stats.iter().map(|a| a.initiations).sum(),
        stalls,
        digest,
    }
}

/// Set up once, pass the reference gate, and simulate batch 0 untraced
/// and traced: the figures a rerun with the same seed must repeat.
pub fn exact_run(w: &Workload, seed: u64) -> Result<(Exact, Gate), String> {
    let inputs = w.inputs(seed, POOL);
    let (built, _) = setup(w, &inputs, &mut None)?;
    let mut gate = reference_gate(&built, &inputs.images);
    let (event, _) = sim_batch(&built, &inputs.images, w.sim_batch, 0, &mut gate, |s| s);
    let (traced, _) = sim_batch(
        &built,
        &inputs.images,
        w.sim_batch,
        0,
        &mut gate,
        Simulator::with_trace,
    );
    let (Some(event), Some(traced)) = (event, traced) else {
        return Err(format!("simulator failed: {:?}", gate.notes));
    };
    let clock_hz = built.design.config().clock_hz;
    Ok((exact_of(&event, &traced, clock_hz, gate.digest()), gate))
}

/// Walk one batch through the host pipeline with a span per stage per
/// image. Returns the batch's wall time and each image's output.
fn traced_batch(
    stages: &[model::HostStage],
    workers: &mut [Box<dyn StageWorker>],
    bufs: &mut [Tensor3<f32>],
    ids: &(u32, u32, Vec<u32>),
    images: &[Tensor3<f32>],
    first: usize,
    tracer: &mut Tracer,
) -> (Duration, Vec<Vec<f32>>) {
    let (batch_id, image_id, stage_ids) = ids;
    let mut outs = Vec::with_capacity(images.len());
    let t0 = Instant::now();
    tracer.span_id(*batch_id, None, |tr| {
        for (j, img) in images.iter().enumerate() {
            let image = Some((first + j) as u32);
            tr.span_id(*image_id, image, |tr| {
                for (s, worker) in workers.iter_mut().enumerate() {
                    let (done, rest) = bufs.split_at_mut(s);
                    let refs: Vec<&Tensor3<f32>> = stages[s]
                        .inputs
                        .iter()
                        .map(|inp| match inp {
                            StageInput::Image => img,
                            StageInput::Stage(t) => &done[*t],
                        })
                        .collect();
                    tr.span_id(stage_ids[s], image, |_| {
                        worker.apply_multi(&refs, &mut rest[0])
                    });
                }
            });
            outs.push(bufs.last().expect("stages").as_slice().to_vec());
        }
    });
    (t0.elapsed(), outs)
}

/// The traced run. `seconds` is split between the host rounds and the
/// simulator rounds; spans are written to `spans_path` at the end.
pub fn run_traced(
    w: &Workload,
    seed: u64,
    seconds: f64,
    spans_path: Option<&Path>,
) -> Result<Traced, String> {
    let inputs = w.inputs(seed, POOL);
    let images = &inputs.images;
    let mut tracer = Some(Tracer::new());
    warm_up(WARM_UP_MS);
    let (built, setups) = setup_repeated(w, &inputs, &mut tracer)?;
    let mut tracer = tracer.expect("tracer");
    let mut gate = tracer.span("gate.reference", |_| reference_gate(&built, images));
    let mut metrics: Vec<Metric> = Vec::new();
    let mut notes = Vec::new();
    let mut put =
        |name: &str, unit: &str, v: f64, n: usize| metrics.push(Metric::new(name, unit, v, n));

    // --- set-up calls
    let ms = |f: fn(&SetupTimes) -> Duration| median_s(&setups, f) * 1e3;
    put("graph.build_ms", "ms", ms(|t| t.build), SETUP_REPS);
    put("check.check_design_ms", "ms", ms(|t| t.check), SETUP_REPS);
    put("range.analyze_ms", "ms", ms(|t| t.range), SETUP_REPS);
    put("exec.engine_new_ms", "ms", ms(|t| t.engine_new), SETUP_REPS);
    put(
        "sim.instantiate_ms",
        "ms",
        ms(|t| t.instantiate),
        SETUP_REPS,
    );
    let setup_ms = ms(SetupTimes::total);
    put(
        "setup.check_range_share",
        "ratio",
        (ms(|t| t.check) + ms(|t| t.range)) / setup_ms,
        SETUP_REPS,
    );

    // --- host: spans per stage, against the engine's own entry points
    let stages = tracer.span("model.host_pipeline", |_| {
        model::host_pipeline(&built.design)
    });
    let mut workers: Vec<Box<dyn StageWorker>> =
        stages.iter().map(|s| s.spec.make_worker()).collect();
    let mut bufs: Vec<Tensor3<f32>> = stages
        .iter()
        .map(|s| Tensor3::zeros(s.spec.out_shape))
        .collect();
    let names: Vec<String> = stages.iter().map(|s| s.spec.name.clone()).collect();
    let stage_span = |n: &str| format!("host.{n}");
    let ids = (
        tracer.name("host.batch"),
        tracer.name("host.image"),
        names
            .iter()
            .map(|n| tracer.name(&stage_span(n)))
            .collect::<Vec<_>>(),
    );
    let live_engine = {
        let e = new_engine(&built.design);
        let live = e.live_metrics();
        e.with_live(live)
    };
    let mut profile_ns = vec![0u64; names.len()];
    let (mut traced_w, mut plain_w, mut live_w) = (Vec::new(), Vec::new(), Vec::new());
    let mut traced_total = Duration::ZERO;
    let host_budget = Duration::from_secs_f64(seconds * 0.45);
    let host_t0 = Instant::now();
    let mut k = 0;
    while host_t0.elapsed() < host_budget || k < 2 {
        let (first, imgs) = batch(images, HOST_BATCH, k);
        let (wall, outs) = traced_batch(
            &stages,
            &mut workers,
            &mut bufs,
            &ids,
            imgs,
            first,
            &mut tracer,
        );
        traced_total += wall;
        traced_w.push(wall.as_secs_f64());
        for (j, out) in outs.iter().enumerate() {
            gate.check("traced host", first + j, out);
        }
        let t0 = Instant::now();
        let plain = tracer.span("exec.run_sequential", |_| host_run(&built.engine, imgs));
        plain_w.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let live = tracer.span("exec.run_sequential_live", |_| host_run(&live_engine, imgs));
        live_w.push(t0.elapsed().as_secs_f64());
        let (prof_res, profile) = tracer.span("exec.run_sequential_profiled", |_| {
            host_run_profiled(&built.engine, imgs)
        });
        for (s, st) in profile.stages.iter().enumerate() {
            profile_ns[s] += st.service_total_ns;
        }
        for res in [&plain, &live, &prof_res] {
            for (j, out) in res.outputs.iter().enumerate() {
                gate.check("host", first + j, out.as_slice());
            }
        }
        k += 1;
    }
    let traced_images = k * HOST_BATCH;
    let totals = tracer.totals();
    let self_ns: Vec<u64> = names
        .iter()
        .map(|n| totals.get(&stage_span(n)).map_or(0, |t| t.self_ns))
        .collect();
    let stage_sum: u64 = self_ns.iter().sum();
    let per_img_us = |ns: u64| ns as f64 / 1e3 / traced_images as f64;
    for st in COMMON_STAGES {
        let i = names
            .iter()
            .position(|n| n == st)
            .ok_or_else(|| format!("the design has no stage {st}"))?;
        put(
            &format!("host.{st}.self_us"),
            "us",
            per_img_us(self_ns[i]),
            traced_images,
        );
    }
    let kind_ns = |kind: &str| -> u64 {
        names
            .iter()
            .zip(&self_ns)
            .filter(|(n, _)| stage_kind(n) == kind)
            .map(|(_, &ns)| ns)
            .sum()
    };
    for kind in COMMON_KINDS {
        put(
            &format!("host.kind.{kind}.self_us"),
            "us",
            per_img_us(kind_ns(kind)),
            traced_images,
        );
    }
    for kind in STAGE_KINDS {
        put(
            &format!("host.kind.{kind}.share"),
            "ratio",
            kind_ns(kind) as f64 / stage_sum as f64,
            traced_images,
        );
    }

    // closure: Σ stage self against the outer wall of the traced batches
    let unattributed = 1.0 - stage_sum as f64 / traced_total.as_nanos() as f64;
    put(
        "trace.unattributed_frac",
        "ratio",
        unattributed,
        traced_images,
    );
    notes.push(format!(
        "closure: stage self time covers {:.2}% of the traced host wall ({} images); \
         tolerance {:.0}% unattributed — {}",
        100.0 * (1.0 - unattributed),
        traced_images,
        100.0 * CLOSURE_TOLERANCE,
        if unattributed.abs() <= CLOSURE_TOLERANCE {
            "ok"
        } else {
            "FLAG"
        }
    ));
    let profile_sum: u64 = profile_ns.iter().sum();
    let share_err = self_ns
        .iter()
        .zip(&profile_ns)
        .map(|(&a, &b)| (a as f64 / stage_sum as f64 - b as f64 / profile_sum as f64).abs())
        .fold(0.0, f64::max);
    put("trace.profile_share_err", "ratio", share_err, traced_images);
    notes.push(format!(
        "agreement: stage shares from spans vs PipelineProfile differ by at most {:.2} pp; \
         tolerance {:.0} pp — {}",
        100.0 * share_err,
        100.0 * PROFILE_TOLERANCE,
        if share_err <= PROFILE_TOLERANCE {
            "ok"
        } else {
            "FLAG"
        }
    ));
    put(
        "trace.overhead_frac",
        "ratio",
        median(&traced_w) / median(&plain_w) - 1.0,
        k,
    );
    put(
        "observe.live_overhead_frac",
        "ratio",
        median(&live_w) / median(&plain_w) - 1.0,
        k,
    );

    // --- kernels: roofline and per-call costs
    let convs = conv_stages(&built);
    let rates = kernel_rates_for(w.numeric, &convs, &mut tracer, Duration::from_millis(40));
    let conv_self_s: f64 = convs
        .iter()
        .map(|c| {
            names
                .iter()
                .position(|n| *n == c.name)
                .map_or(0, |i| self_ns[i])
        })
        .sum::<u64>() as f64
        / 1e9;
    let conv_macs: u64 = convs.iter().map(|c| c.macs).sum();
    let conv_rate = (conv_macs * traced_images as u64) as f64 / conv_self_s;
    // the dot kernel's rate for this MAC mix: time to run every conv's MACs
    // at its own window length
    let dot_s_per_img: f64 = convs
        .iter()
        .map(|c| c.macs as f64 / rates.dot_macs_per_s[&c.name])
        .sum();
    let dot_rate = conv_macs as f64 / dot_s_per_img;
    put(
        "kernel.conv.gmac_per_s",
        "GMAC/s",
        conv_rate / 1e9,
        traced_images,
    );
    put(
        "kernel.dot.gmac_per_s",
        "GMAC/s",
        dot_rate / 1e9,
        rates.dot_calls as usize,
    );
    put(
        "kernel.conv.roof_frac",
        "ratio",
        conv_rate / dot_rate,
        traced_images,
    );
    let act_calls: u64 = convs.iter().map(|c| c.outputs).sum();
    let act_ns_per_img: f64 = convs
        .iter()
        .map(|c| c.outputs as f64 * rates.activate_ns[&format!("{:?}", c.activation)])
        .sum();
    put(
        "kernel.activate.ns",
        "ns",
        act_ns_per_img / act_calls as f64,
        rates.activate_calls as usize,
    );
    put(
        "kernel.activate.share",
        "ratio",
        act_ns_per_img * traced_images as f64 / (conv_self_s * 1e9),
        rates.activate_calls as usize,
    );
    put(
        "kernel.quantize.ns",
        "ns",
        rates.quantize_ns,
        rates.quantize_calls as usize,
    );

    // --- simulator: event vs dense reference on batch 0, then one traced run
    let (mut ev_w, mut ref_w) = (Vec::new(), Vec::new());
    let mut event = None;
    let sim_budget = Duration::from_secs_f64(seconds * 0.45);
    let sim_t0 = Instant::now();
    while sim_t0.elapsed() < sim_budget || ref_w.is_empty() {
        let (res, wall) = tracer.span("sim.run_event", |_| {
            sim_batch(&built, images, w.sim_batch, 0, &mut gate, |s| s)
        });
        ev_w.push(wall.as_secs_f64());
        event = event.or(res);
        let (_, wall) = tracer.span("sim.run_reference", |_| {
            sim_batch(
                &built,
                images,
                w.sim_batch,
                0,
                &mut gate,
                Simulator::reference_mode,
            )
        });
        ref_w.push(wall.as_secs_f64());
    }
    let (traced_sim, _) = tracer.span("sim.run_traced", |_| {
        sim_batch(
            &built,
            images,
            w.sim_batch,
            0,
            &mut gate,
            Simulator::with_trace,
        )
    });
    let (Some(event), Some(traced_sim)) = (event, traced_sim) else {
        return Err(format!("simulator failed: {:?}", gate.notes));
    };
    let clock_hz = built.design.config().clock_hz;
    let exact = exact_of(&event, &traced_sim, clock_hz, gate.digest());
    let actor_cycles = (traced_sim.stalls.len() as u64 * traced_sim.cycles) as f64;
    let (ev, rf) = (median(&ev_w), median(&ref_w));
    put("sim.cycles", "cycles", exact.cycles as f64, 1);
    put("sim.initiations", "count", exact.initiations as f64, 1);
    put(
        "sim.reference.mcycles_per_s",
        "Mcycles/s",
        exact.cycles as f64 / 1e6 / rf,
        ref_w.len(),
    );
    put("sim.event_over_reference", "ratio", rf / ev, ref_w.len());
    put(
        "sim.ns_per_initiation",
        "ns",
        ev * 1e9 / exact.initiations as f64,
        ev_w.len(),
    );
    for (i, class) in ["computing", "starved", "backpressured", "idle"]
        .iter()
        .enumerate()
    {
        put(
            &format!("sim.stall.{class}_frac"),
            "ratio",
            exact.stalls[i] as f64 / actor_cycles,
            1,
        );
    }
    notes.push(format!(
        "host stages, self us/image (share): {}",
        names
            .iter()
            .zip(&self_ns)
            .map(|(n, &ns)| {
                let share = 100.0 * ns as f64 / stage_sum as f64;
                format!("{n} {:.1} ({share:.1}%)", per_img_us(ns))
            })
            .collect::<Vec<_>>()
            .join(", ")
    ));
    if let Some(path) = spans_path {
        tracer
            .write_jsonl(path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(Traced {
        metrics,
        gate,
        exact,
        notes,
    })
}
