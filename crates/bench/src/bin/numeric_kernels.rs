//! Kernel microbenchmarks of the numeric datapath: SIMD/chunked packed
//! kernels against their scalar twins, f32 against the executed
//! fixed-point types, plus the accuracy-vs-FRAC sweep that justifies the
//! default fixed spec.
//!
//! Three measurement groups, each on both paper test cases' shapes:
//!
//! * `conv_window_packed` vs `conv_window_packed_scalar` — the hot conv
//!   window, per element type (`f32`, `q16f8`, `q8f4`): for fixed point
//!   the 16-lane kernel against one filter at a time in `i64`,
//! * `Numeric::dot_acc` vs `Numeric::dot_acc_scalar` — the FC row dot,
//! * whole-network `hw_forward` per numeric spec (end-to-end effect).
//!
//! Then the accuracy sweep: both test cases trained once in f32, then
//! classified through every supported fixed spec's quantised datapath.
//! Results go to `results/numeric_kernels.json` and `BENCH_kernels.json` (the
//! committed CI artifact). In release builds on the packed conv kernel
//! the fixed-point lane kernel must hold a ≥ 1.2× margin over the scalar
//! loop — the CI smoke contract for the vectorised kernels.
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

/// CI contract: fixed-point SIMD ≥ 1.2× scalar on the packed conv kernel
/// (release builds only — debug codegen tells us nothing about lanes).
const TARGET_CONV_SPEEDUP: f64 = 1.2;

#[derive(Serialize)]
struct ConvRow {
    case: String,
    elem: String,
    out_fm: usize,
    window_len: usize,
    in_ports: usize,
    simd_ns: f64,
    scalar_ns: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct DotRow {
    case: String,
    elem: String,
    len: usize,
    simd_ns: f64,
    scalar_ns: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct ForwardRow {
    case: String,
    numeric: String,
    us_per_image: f64,
    speedup_vs_f32: f64,
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
    forward: Vec<ForwardRow>,
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

/// Best-of-5 mean ns/call: each trial times `reps` calls, the minimum
/// trial wins (the usual microbenchmark noise filter).
fn time_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..reps / 4 {
        f(); // warmup
    }
    (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                f();
            }
            t.elapsed().as_nanos() as f64 / reps as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// One conv shape, one element type: time the packed kernel against its
/// scalar form (for fixed point, one filter at a time in `i64`), checking
/// both produce identical bits first.
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
    let packed = PackedFilters::<E>::new(&filters);
    let bias: Vec<E> = bias_f.as_slice().iter().map(|&v| E::from_f32(v)).collect();
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
        &bias,
        Activation::Relu,
        in_ports,
        &mut scratch,
    );
    conv_window_packed_scalar(
        &mut out_scalar,
        &window,
        &packed,
        &bias,
        Activation::Relu,
        in_ports,
        &mut scratch,
    );
    assert_eq!(out_simd, out_scalar, "{case}/{elem}: SIMD != scalar bits");
    let reps = 2_000;
    let simd_ns = time_ns(reps, || {
        conv_window_packed(
            black_box(&mut out_simd),
            black_box(&window),
            &packed,
            &bias,
            Activation::Relu,
            in_ports,
            &mut scratch,
        )
    });
    let scalar_ns = time_ns(reps, || {
        conv_window_packed_scalar(
            black_box(&mut out_scalar),
            black_box(&window),
            &packed,
            &bias,
            Activation::Relu,
            in_ports,
            &mut scratch,
        )
    });
    ConvRow {
        case: case.to_string(),
        elem: elem.to_string(),
        out_fm,
        window_len: kh * kw * in_fm,
        in_ports,
        simd_ns,
        scalar_ns,
        speedup: scalar_ns / simd_ns,
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
    let reps = 20_000;
    let simd_ns = time_ns(reps, || {
        black_box(E::dot_acc(black_box(&a), black_box(&b)));
    });
    let scalar_ns = time_ns(reps, || {
        black_box(E::dot_acc_scalar(black_box(&a), black_box(&b)));
    });
    DotRow {
        case: case.to_string(),
        elem: elem.to_string(),
        len,
        simd_ns,
        scalar_ns,
        speedup: scalar_ns / simd_ns,
    }
}

/// Whole-network forward throughput per numeric spec, through the same
/// host kernel path all three engines share.
fn forward_rows(
    case: &str,
    net: &dfcnn_nn::Network,
    ports: &PortConfig,
    images: &[Tensor3<f32>],
) -> Vec<ForwardRow> {
    let mut rows = Vec::new();
    let mut f32_us = 0.0;
    for spec in [
        NumericSpec::F32,
        NumericSpec::default_fixed(),
        NumericSpec::Fixed8 { frac: 4 },
    ] {
        let design = NetworkDesign::new(
            net,
            ports.clone(),
            DesignConfig {
                numeric: spec,
                ..DesignConfig::default()
            },
        )
        .expect("design must build");
        let reps = 6;
        let ns = time_ns(reps, || {
            for img in images {
                black_box(design.hw_forward(black_box(img)));
            }
        });
        let us_per_image = ns / 1e3 / images.len() as f64;
        if spec == NumericSpec::F32 {
            f32_us = us_per_image;
        }
        rows.push(ForwardRow {
            case: case.to_string(),
            numeric: spec.label(),
            us_per_image,
            speedup_vs_f32: f32_us / us_per_image,
        });
    }
    rows
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
        conv.push(conv_case::<f32>(case, "f32", out_fm, 5, 5, in_fm, in_ports));
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
    println!("packed conv window (lane kernel vs scalar reduction):");
    println!(
        "{:<5} {:<6} {:>7} {:>9} {:>11} {:>11} {:>8}",
        "case", "elem", "out_fm", "win_len", "simd_ns", "scalar_ns", "speedup"
    );
    for r in &conv {
        println!(
            "{:<5} {:<6} {:>7} {:>9} {:>11.1} {:>11.1} {:>7.2}x",
            r.case, r.elem, r.out_fm, r.window_len, r.simd_ns, r.scalar_ns, r.speedup
        );
    }
    println!("\nFC row dot (dot_acc vs dot_acc_scalar):");
    println!(
        "{:<5} {:<6} {:>6} {:>11} {:>11} {:>8}",
        "case", "elem", "len", "simd_ns", "scalar_ns", "speedup"
    );
    for r in &dot {
        println!(
            "{:<5} {:<6} {:>6} {:>11.1} {:>11.1} {:>7.2}x",
            r.case, r.elem, r.len, r.simd_ns, r.scalar_ns, r.speedup
        );
    }

    // end-to-end forward per numeric spec (untrained weights: timing only)
    let mut forward = Vec::new();
    {
        let mut rng = ChaCha8Rng::seed_from_u64(SEED);
        let net1 = NetworkSpec::test_case_1().build(&mut rng);
        let mut gen = SyntheticUsps::new(SEED ^ 1);
        let imgs = Dataset::new(gen.generate(8)).image_batch(8);
        forward.extend(forward_rows(
            "TC1",
            &net1,
            &PortConfig::paper_test_case_1(),
            &imgs,
        ));
        let mut rng = ChaCha8Rng::seed_from_u64(SEED ^ 10);
        let net2 = NetworkSpec::test_case_2().build(&mut rng);
        let mut gen = SyntheticCifar::new(SEED ^ 11);
        let imgs = Dataset::new(gen.generate(4)).image_batch(4);
        forward.extend(forward_rows(
            "TC2",
            &net2,
            &PortConfig::paper_test_case_2(),
            &imgs,
        ));
    }
    println!("\nwhole-network hw_forward:");
    for r in &forward {
        println!(
            "  {:<5} {:<6} {:>9.1} us/image ({:.2}x vs f32)",
            r.case, r.numeric, r.us_per_image, r.speedup_vs_f32
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
        forward,
        frac_sweep: frac_rows,
    };
    write_json("numeric_kernels", &record);
    match std::fs::write(
        "BENCH_kernels.json",
        serde_json::to_string_pretty(&record).unwrap(),
    ) {
        Ok(()) => println!("[written BENCH_kernels.json]"),
        Err(e) => eprintln!("[warn] could not write BENCH_kernels.json: {e}"),
    }

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
