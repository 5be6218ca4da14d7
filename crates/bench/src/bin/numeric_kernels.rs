//! Kernel microbenchmarks of the numeric datapath: SIMD/chunked packed
//! kernels against their scalar twins, plus the accuracy-vs-FRAC sweep
//! that justifies the default fixed spec.
//!
//! Two measurement groups, each on both paper test cases' shapes:
//!
//! * the hot conv window, per element type (`f32`, `q16f8`, `q8f4`): for
//!   fixed point `conv_window_packed`'s 16-lane kernel against
//!   `conv_window_packed_scalar`, one filter at a time in `i64`; for `f32`
//!   one `conv_window_packed` call on four interleaved windows (the host
//!   path's runs of four output pixels) against four one-window calls,
//! * `Numeric::dot_acc` vs `Numeric::dot_acc_scalar` — the FC row dot.
//!
//! Whole-network throughput per numeric spec is perfbench's
//! `host_img_per_s`. Then the accuracy sweep: both test cases trained once
//! in f32, then classified through every supported fixed spec's quantised
//! datapath. Results go to `results/numeric_kernels.json`.
//!
//! Every row times its two forms in alternating trials, so both see the
//! same host load, and records the median per-trial ratio with its
//! quartiles (`speedup_iqr`). In release builds the median ratio of the
//! fixed-point lane kernel over the scalar loop on the packed conv kernel
//! must hold a ≥ 1.2× margin — the CI smoke contract for the vectorised
//! kernels.
//!
//! ```text
//! cargo run -p dfcnn-bench --release --bin numeric_kernels
//! ```

use dfcnn_bench::{write_json, SEED};
use dfcnn_core::graph::{DesignConfig, NetworkDesign, PortConfig};
use dfcnn_core::kernel::{conv_window_packed, conv_window_packed_scalar, PackedFilters, LANES};
use dfcnn_datasets::{Dataset, Generator, SyntheticCifar, SyntheticUsps};
use dfcnn_nn::act::Activation;
use dfcnn_nn::topology::NetworkSpec;
use dfcnn_nn::train::{TrainConfig, Trainer};
use dfcnn_tensor::{Fixed16, Fixed8, Numeric, NumericSpec, Tensor3};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

/// CI contract: fixed-point SIMD ≥ 1.2× scalar on the packed conv kernel,
/// as the median paired ratio (release builds only — debug codegen tells
/// us nothing about lanes).
const TARGET_CONV_SPEEDUP: f64 = 1.2;

/// One conv shape and element type. `simd_ns` times one kernel call over
/// `windows` windows and `scalar_ns` the baseline over the same windows:
/// the per-filter scalar loop for fixed point (`windows = 1`), four
/// one-window calls for `f32` (`windows = 4`). The times are medians
/// over paired trials, `speedup` is the median per-trial ratio and
/// `speedup_iqr` its quartiles.
#[derive(Serialize)]
struct ConvRow {
    case: String,
    elem: String,
    out_fm: usize,
    window_len: usize,
    in_ports: usize,
    windows: usize,
    simd_ns: f64,
    scalar_ns: f64,
    speedup: f64,
    speedup_iqr: [f64; 2],
}

/// One FC row length and element type, timed like [`ConvRow`].
#[derive(Serialize)]
struct DotRow {
    case: String,
    elem: String,
    len: usize,
    simd_ns: f64,
    scalar_ns: f64,
    speedup: f64,
    speedup_iqr: [f64; 2],
}

#[derive(Serialize)]
struct FracRow {
    case: String,
    numeric: String,
    frac: u32,
    storage_bits: u32,
    epsilon: f64,
    test_accuracy: f64,
    accuracy_drop_vs_f32: f64,
}

#[derive(Serialize)]
struct Record {
    cpu: String,
    release: bool,
    conv: Vec<ConvRow>,
    dot: Vec<DotRow>,
    frac_sweep: Vec<FracRow>,
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Trials of [`time_paired`].
const PAIRED_TRIALS: usize = 21;

/// Paired timing for a speed ratio: each trial times `reps` calls of
/// `base`, then `reps` calls of `new`, back to back, so both halves of a
/// trial see the same host load. Returns the median ns/call of each and
/// the quartiles `[q1, median, q3]` of the per-trial ratio `base / new`.
fn time_paired(reps: usize, mut base: impl FnMut(), mut new: impl FnMut()) -> (f64, f64, [f64; 3]) {
    let per_call = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        for _ in 0..reps {
            f();
        }
        t.elapsed().as_nanos() as f64 / reps as f64
    };
    per_call(&mut base); // warmup
    per_call(&mut new);
    let (mut base_ns, mut new_ns, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..PAIRED_TRIALS {
        let (b, n) = (per_call(&mut base), per_call(&mut new));
        base_ns.push(b);
        new_ns.push(n);
        ratios.push(b / n);
    }
    let quantile = |v: &mut Vec<f64>, q: usize| {
        v.sort_by(f64::total_cmp);
        v[(v.len() - 1) * q / 4]
    };
    let ratio = [1, 2, 3].map(|q| quantile(&mut ratios, q));
    (quantile(&mut base_ns, 2), quantile(&mut new_ns, 2), ratio)
}

/// One conv shape, one fixed-point element type: time the packed lane
/// kernel against its scalar form (one filter at a time in `i64`),
/// checking both produce identical bits first.
fn conv_case<E: Numeric>(
    case: &str,
    elem: &str,
    out_fm: usize,
    kh: usize,
    kw: usize,
    in_fm: usize,
    in_ports: usize,
) -> ConvRow {
    let mut rng = ChaCha8Rng::seed_from_u64(SEED ^ 0xC0);
    let filters = dfcnn_tensor::init::conv_filters(&mut rng, out_fm, kh, kw, in_fm);
    let bias_f = dfcnn_tensor::init::random_vector(&mut rng, out_fm, -0.1, 0.1);
    let window_f = dfcnn_tensor::init::random_vector(&mut rng, kh * kw * in_fm, -1.0, 1.0);
    let packed = PackedFilters::<E>::new(&filters, &bias_f);
    let window: Vec<E> = window_f
        .as_slice()
        .iter()
        .map(|&v| E::from_f32(v))
        .collect();
    let mut scratch = vec![[E::Acc::default(); LANES]; packed.scratch_len(in_ports)];
    let mut out_simd = vec![E::zero(); out_fm];
    let mut out_scalar = vec![E::zero(); out_fm];
    conv_window_packed(
        &mut out_simd,
        &window,
        &packed,
        Activation::Relu,
        in_ports,
        &mut scratch,
    );
    conv_window_packed_scalar(
        &mut out_scalar,
        &window,
        &packed,
        Activation::Relu,
        in_ports,
        &mut scratch,
    );
    assert_eq!(out_simd, out_scalar, "{case}/{elem}: SIMD != scalar bits");
    // one set of scratch rows per form: both closures live at once
    let mut scratch_scalar = scratch.clone();
    let (scalar_ns, simd_ns, [q1, speedup, q3]) = time_paired(
        500,
        || {
            conv_window_packed_scalar(
                black_box(&mut out_scalar),
                black_box(&window),
                &packed,
                Activation::Relu,
                in_ports,
                &mut scratch_scalar,
            )
        },
        || {
            conv_window_packed(
                black_box(&mut out_simd),
                black_box(&window),
                &packed,
                Activation::Relu,
                in_ports,
                &mut scratch,
            )
        },
    );
    ConvRow {
        case: case.to_string(),
        elem: elem.to_string(),
        out_fm,
        window_len: kh * kw * in_fm,
        in_ports,
        windows: 1,
        simd_ns,
        scalar_ns,
        speedup,
        speedup_iqr: [q1, q3],
    }
}

/// One conv shape in `f32`: one `conv_window_packed` call on four
/// interleaved windows against four one-window calls in paired trials,
/// checking both produce identical bits first.
fn conv_four_window_case(
    case: &str,
    out_fm: usize,
    kh: usize,
    kw: usize,
    in_fm: usize,
    in_ports: usize,
) -> ConvRow {
    let mut rng = ChaCha8Rng::seed_from_u64(SEED ^ 0xC4);
    let filters = dfcnn_tensor::init::conv_filters(&mut rng, out_fm, kh, kw, in_fm);
    let bias = dfcnn_tensor::init::random_vector(&mut rng, out_fm, -0.1, 0.1);
    let packed = PackedFilters::<f32>::new(&filters, &bias);
    let len = kh * kw * in_fm;
    let four = dfcnn_tensor::init::random_vector(&mut rng, 4 * len, -1.0, 1.0);
    let four = four.as_slice();
    // value i of window j at [i·4 + j]
    let interleaved: Vec<f32> = (0..len)
        .flat_map(|i| (0..4).map(move |j| four[j * len + i]))
        .collect();
    let mut scratch4 = vec![[0.0f32; 4 * LANES]; packed.scratch_len(in_ports)];
    let mut scratch1 = vec![[0.0f32; LANES]; packed.scratch_len(in_ports)];
    let mut out_four = vec![0.0f32; 4 * out_fm];
    let mut out_one = vec![0.0f32; 4 * out_fm];
    let act = Activation::Relu;
    let mut run_four = |out: &mut [f32]| {
        conv_window_packed(out, &interleaved, &packed, act, in_ports, &mut scratch4)
    };
    let mut run_one = |out: &mut [f32]| {
        for (o, w) in out.chunks_exact_mut(out_fm).zip(four.chunks_exact(len)) {
            conv_window_packed(o, w, &packed, act, in_ports, &mut scratch1);
        }
    };
    run_four(&mut out_four);
    run_one(&mut out_one);
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&out_four),
        bits(&out_one),
        "{case}/f32: four-window call != four one-window calls"
    );
    let (scalar_ns, simd_ns, [q1, speedup, q3]) = time_paired(
        500,
        || run_one(black_box(&mut out_one)),
        || run_four(black_box(&mut out_four)),
    );
    ConvRow {
        case: case.to_string(),
        elem: "f32".to_string(),
        out_fm,
        window_len: len,
        in_ports,
        windows: 4,
        simd_ns,
        scalar_ns,
        speedup,
        speedup_iqr: [q1, q3],
    }
}

/// One FC row length, one element type: the raw dot kernels.
fn dot_case<E: Numeric>(case: &str, elem: &str, len: usize) -> DotRow {
    let mut rng = ChaCha8Rng::seed_from_u64(SEED ^ 0xD0);
    let a_f = dfcnn_tensor::init::random_vector(&mut rng, len, -1.0, 1.0);
    let b_f = dfcnn_tensor::init::random_vector(&mut rng, len, -1.0, 1.0);
    let a: Vec<E> = a_f.as_slice().iter().map(|&v| E::from_f32(v)).collect();
    let b: Vec<E> = b_f.as_slice().iter().map(|&v| E::from_f32(v)).collect();
    assert_eq!(E::dot_acc(&a, &b), E::dot_acc_scalar(&a, &b));
    let (scalar_ns, simd_ns, [q1, speedup, q3]) = time_paired(
        5_000,
        || {
            black_box(E::dot_acc_scalar(black_box(&a), black_box(&b)));
        },
        || {
            black_box(E::dot_acc(black_box(&a), black_box(&b)));
        },
    );
    DotRow {
        case: case.to_string(),
        elem: elem.to_string(),
        len,
        simd_ns,
        scalar_ns,
        speedup,
        speedup_iqr: [q1, q3],
    }
}

/// Train one test case in f32, then classify the held-out set through
/// every supported spec's quantised datapath.
fn frac_sweep(
    case: &str,
    spec: NetworkSpec,
    ports: PortConfig,
    gen_samples: usize,
    train: TrainConfig,
    data: Vec<(Tensor3<f32>, usize)>,
) -> Vec<FracRow> {
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    let mut network = spec.build(&mut rng);
    let mut data = Dataset::new(data);
    data.shuffle(SEED ^ 2);
    let split = data.split((gen_samples - 50) as f64 / gen_samples as f64);
    Trainer::new(train).fit(&mut network, split.train.samples());
    let argmax = |t: &Tensor3<f32>| {
        t.as_slice()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap_or(0)
    };
    let mut rows = Vec::new();
    let mut f32_acc = 0.0;
    for numeric in NumericSpec::supported() {
        let design = NetworkDesign::new(
            &network,
            ports.clone(),
            DesignConfig {
                numeric,
                ..DesignConfig::default()
            },
        )
        .expect("design must build");
        let acc =
            dfcnn_nn::metrics::accuracy_of(|x| argmax(&design.hw_forward(x)), split.test.samples());
        if numeric == NumericSpec::F32 {
            f32_acc = acc;
        }
        rows.push(FracRow {
            case: case.to_string(),
            numeric: numeric.label(),
            frac: numeric.frac().unwrap_or(0),
            storage_bits: numeric.storage_bits(),
            epsilon: numeric.epsilon(),
            test_accuracy: acc,
            accuracy_drop_vs_f32: f32_acc - acc,
        });
    }
    rows
}

fn main() {
    let release = !cfg!(debug_assertions);
    println!("== numeric kernels: SIMD vs scalar, fixed vs float ==");
    println!("   cpu: {} | release: {release}\n", cpu_model());

    // the paper's two conv-core shapes that dominate compute: TC-1 conv2
    // (6 -> 16 FMs, 6 input ports) and TC-2 conv2 (12 -> 36 FMs, 1 port)
    let mut conv = Vec::new();
    let mut dot = Vec::new();
    for (case, out_fm, in_fm, in_ports, fc_len) in [("TC1", 16, 6, 6, 64), ("TC2", 36, 12, 1, 900)]
    {
        conv.push(conv_four_window_case(case, out_fm, 5, 5, in_fm, in_ports));
        conv.push(conv_case::<Fixed16<8>>(
            case, "q16f8", out_fm, 5, 5, in_fm, in_ports,
        ));
        conv.push(conv_case::<Fixed8<4>>(
            case, "q8f4", out_fm, 5, 5, in_fm, in_ports,
        ));
        dot.push(dot_case::<f32>(case, "f32", fc_len));
        dot.push(dot_case::<Fixed16<8>>(case, "q16f8", fc_len));
        dot.push(dot_case::<Fixed8<4>>(case, "q8f4", fc_len));
    }
    println!("packed conv window (fixed: lane kernel vs scalar reduction;");
    println!("                    f32: one call on 4 windows vs 4 one-window calls):");
    println!(
        "{:<5} {:<6} {:>7} {:>9} {:>8} {:>11} {:>11} {:>8}",
        "case", "elem", "out_fm", "win_len", "windows", "simd_ns", "scalar_ns", "speedup"
    );
    for r in &conv {
        let [lo, hi] = r.speedup_iqr;
        println!(
            "{:<5} {:<6} {:>7} {:>9} {:>8} {:>11.1} {:>11.1} {:>7.2}x  (IQR {lo:.2}-{hi:.2}x)",
            r.case, r.elem, r.out_fm, r.window_len, r.windows, r.simd_ns, r.scalar_ns, r.speedup
        );
    }
    println!("\nFC row dot (dot_acc vs dot_acc_scalar):");
    println!(
        "{:<5} {:<6} {:>6} {:>11} {:>11} {:>8}",
        "case", "elem", "len", "simd_ns", "scalar_ns", "speedup"
    );
    for r in &dot {
        let [lo, hi] = r.speedup_iqr;
        println!(
            "{:<5} {:<6} {:>6} {:>11.1} {:>11.1} {:>7.2}x  (IQR {lo:.2}-{hi:.2}x)",
            r.case, r.elem, r.len, r.simd_ns, r.scalar_ns, r.speedup
        );
    }

    // accuracy vs FRAC: both test cases trained once in f32, classified
    // through every supported quantised datapath
    println!("\naccuracy vs FRAC (trained f32 weights, quantised inference):");
    let mut frac_rows = Vec::new();
    let mut gen = SyntheticUsps::new(SEED ^ 1);
    frac_rows.extend(frac_sweep(
        "TC1",
        NetworkSpec::test_case_1(),
        PortConfig::paper_test_case_1(),
        250,
        TrainConfig {
            lr: 0.05,
            momentum: 0.9,
            batch_size: 16,
            epochs: 6,
        },
        gen.generate(250),
    ));
    let mut gen = SyntheticCifar::new(SEED ^ 11);
    frac_rows.extend(frac_sweep(
        "TC2",
        NetworkSpec::test_case_2(),
        PortConfig::paper_test_case_2(),
        250,
        TrainConfig {
            lr: 0.02,
            momentum: 0.9,
            batch_size: 16,
            epochs: 4,
        },
        gen.generate(250),
    ));
    println!(
        "{:<5} {:<6} {:>5} {:>5} {:>10} {:>9} {:>9}",
        "case", "spec", "bits", "frac", "epsilon", "accuracy", "drop"
    );
    for r in &frac_rows {
        println!(
            "{:<5} {:<6} {:>5} {:>5} {:>10.5} {:>8.1}% {:>8.1}%",
            r.case,
            r.numeric,
            r.storage_bits,
            r.frac,
            r.epsilon,
            100.0 * r.test_accuracy,
            100.0 * r.accuracy_drop_vs_f32
        );
    }

    let record = Record {
        cpu: cpu_model(),
        release,
        conv,
        dot,
        frac_sweep: frac_rows,
    };
    write_json("numeric_kernels", &record);

    // CI smoke contract: the fixed-point lane kernel must beat the
    // per-filter scalar reduction on the packed conv window in release builds
    if release {
        let worst = record
            .conv
            .iter()
            .filter(|r| r.elem != "f32")
            .map(|r| r.speedup)
            .fold(f64::INFINITY, f64::min);
        println!(
            "\nfixed-point packed-conv SIMD speedup (worst case): {worst:.2}x \
             (target: >= {TARGET_CONV_SPEEDUP:.1}x)"
        );
        assert!(
            worst >= TARGET_CONV_SPEEDUP,
            "SIMD conv kernel regressed: {worst:.2}x < {TARGET_CONV_SPEEDUP:.1}x scalar"
        );
    } else {
        println!("\n[skip] debug build: SIMD-vs-scalar margins are asserted in release only");
    }
}
