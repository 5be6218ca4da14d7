//! The benchmark's own checks: exact figures repeat for a seed, a held-out
//! seed passes the correctness gate, and the traced run closes.
//!
//! `cargo test --manifest-path perfbench/Cargo.toml` (the package's dev
//! profile is optimised, so full batches simulate in seconds).

use dfcnn_core::{check_design, recommend_frac};
use dfcnn_tensor::NumericSpec;
use perfbench::measure::{setup, POOL};
use perfbench::traced::{exact_run, run_traced, CLOSURE_TOLERANCE, PROFILE_TOLERANCE};
use perfbench::workload::{workload, Workload, WORKLOADS};

/// The seed the benchmark was tuned on.
const TUNING_SEED: u64 = 1;
/// A seed no part of the benchmark was written against.
const HELD_OUT_SEED: u64 = 20_170_529;

fn metric(t: &perfbench::traced::Traced, name: &str) -> f64 {
    t.metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .value
}

#[test]
fn same_seed_repeats_exactly() {
    for w in WORKLOADS {
        let (a, gate_a) = exact_run(&w, TUNING_SEED).unwrap();
        let (b, gate_b) = exact_run(&w, TUNING_SEED).unwrap();
        assert_eq!(a, b, "{}: exact figures differ between reruns", w.name);
        assert_eq!(
            gate_a.failed + gate_b.failed,
            0,
            "{}: {:?}",
            w.name,
            gate_a.notes
        );
    }
}

#[test]
fn held_out_seed_passes_the_gate() {
    for w in WORKLOADS {
        let (held, gate) = exact_run(&w, HELD_OUT_SEED).unwrap();
        assert!(gate.attempted > 0);
        assert_eq!(gate.failed, 0, "{}: {:?}", w.name, gate.notes);
        // simulated timing does not depend on the data, so the model
        // output is the same on every seed
        let (tuned, _) = exact_run(&w, TUNING_SEED).unwrap();
        assert_eq!(held.sim_us_per_img, tuned.sim_us_per_img, "{}", w.name);
        assert_eq!(held.cycles, tuned.cycles, "{}", w.name);
        assert_ne!(
            held.digest, tuned.digest,
            "{}: seeds gave the same outputs",
            w.name
        );
    }
}

/// Why `resnet8_throttled` runs in f32 and the TC2 workload in q16f8: the
/// range analysis proves a 16-bit format for TC2's weights and none for
/// ResNet-8's.
#[test]
fn numeric_specs_are_the_proven_ones() {
    for seed in [TUNING_SEED, HELD_OUT_SEED] {
        let f32_design = |name: &str| {
            let w = Workload {
                numeric: NumericSpec::F32,
                ..workload(name).unwrap()
            };
            w.build_design(&w.inputs(seed, POOL).weights).unwrap()
        };
        let tc2 = recommend_frac(&f32_design("tc2_q16f8"), 16);
        assert!(
            tc2.is_some_and(|f| f >= 8),
            "seed {seed}: TC2 recommend_frac {tc2:?}"
        );
        let resnet = recommend_frac(&f32_design("resnet8_throttled"), 16);
        assert_eq!(resnet, None, "seed {seed}");
        let w = workload("tc2_q16f8").unwrap();
        let (built, _) = setup(&w, &w.inputs(seed, POOL), &mut None).unwrap();
        assert!(check_design(&built.design).is_clean());
        let q16_resnet = Workload {
            numeric: NumericSpec::Fixed16 { frac: 8 },
            ..workload("resnet8_throttled").unwrap()
        };
        let design = q16_resnet
            .build_design(&q16_resnet.inputs(seed, POOL).weights)
            .unwrap();
        assert!(!check_design(&design).is_clean(), "seed {seed}");
    }
}

#[test]
fn traced_run_closes_and_backs_the_workload_reasons() {
    for w in WORKLOADS {
        let t = run_traced(&w, TUNING_SEED, 1.0, None).unwrap();
        assert_eq!(t.gate.failed, 0, "{}: {:?}", w.name, t.gate.notes);
        let unattributed = metric(&t, "trace.unattributed_frac");
        assert!(
            unattributed.abs() <= CLOSURE_TOLERANCE,
            "{}: {unattributed}",
            w.name
        );
        let share_err = metric(&t, "trace.profile_share_err");
        assert!(share_err <= PROFILE_TOLERANCE, "{}: {share_err}", w.name);
        assert!(metric(&t, "host.kind.conv.share") > 0.5, "{}", w.name);
        let act = metric(&t, "kernel.activate.share");
        match w.name {
            "resnet8_throttled" => {
                assert!(act < 0.05, "ResNet-8 has no tanh: {act}");
                assert!(metric(&t, "sim.event_over_reference") > 1.0);
            }
            _ => assert!(act > 0.0, "{}", w.name),
        }
    }
}
