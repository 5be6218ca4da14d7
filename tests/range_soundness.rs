//! The value-range analyzer's acceptance contract
//! (`dfcnn::core::range`, DESIGN.md §2k):
//!
//! - **Soundness**: dynamically observed per-stage ranges must lie inside
//!   the statically proven intervals — on both paper test cases, the
//!   graph presets (ResNet-8, Inception cell), a random fork/join corpus,
//!   and across every supported numeric format. This must hold *even for
//!   designs the checker rejects*: saturating kernels clamp into the
//!   container, and the transfers model exactly that.
//! - **Prediction**: the q8f6 accuracy collapse measured empirically in
//!   `results/numeric_kernels.json` (test accuracy 0.2 vs 1.0 for q16f8) must be
//!   *predicted* by the `value-range` checker rule, while q16f8 checks
//!   clean on the paper designs.
//! - **Recommendation**: `recommend_frac` must return the maximal FRAC
//!   whose analysis is clean — sound and maximal by re-analysis.
//! - **DSE pruning**: `dse::explore` over a list of numeric formats must
//!   tally statically unsound numeric candidates under `numeric_rejected`
//!   instead of reporting them as viable design points.
//! - **Debug counters**: on a proven-clean design the saturating cast
//!   layer must record zero clamp events end to end; a deterministically
//!   saturating design must record some (debug builds only).

mod common;

use common::random_dag_design;
use dfcnn::core::dse::explore;
use dfcnn::core::graph::{build_graph_design, GraphBuilder};
use dfcnn::core::range::{analyze, analyze_with, observe_ranges, recommend_frac, Interval};
use dfcnn::core::{check_design, RuleId, Severity};
use dfcnn::nn::layer::{Flatten, Layer};
use dfcnn::nn::topology::GraphSpec;
use dfcnn::prelude::*;
use dfcnn::tensor::NumericSpec;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const Q16F8: NumericSpec = NumericSpec::Fixed16 { frac: 8 };
const Q8F6: NumericSpec = NumericSpec::Fixed8 { frac: 6 };

fn tc1_network() -> Network {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    NetworkSpec::test_case_1().build(&mut rng)
}

fn tc2_network() -> Network {
    let mut rng = ChaCha8Rng::seed_from_u64(12);
    NetworkSpec::test_case_2().build(&mut rng)
}

fn tc1_design(numeric: NumericSpec) -> NetworkDesign {
    let config = DesignConfig {
        numeric,
        ..DesignConfig::default()
    };
    NetworkDesign::new(&tc1_network(), PortConfig::paper_test_case_1(), config).unwrap()
}

fn tc2_design(numeric: NumericSpec) -> NetworkDesign {
    let config = DesignConfig {
        numeric,
        ..DesignConfig::default()
    };
    NetworkDesign::new(&tc2_network(), PortConfig::paper_test_case_2(), config).unwrap()
}

fn batch(design: &NetworkDesign, n: usize, seed: u64) -> Vec<Tensor3<f32>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            dfcnn::tensor::init::random_volume(&mut rng, design.network().input_shape(), 0.0, 1.0)
        })
        .collect()
}

/// Observed stage ranges must lie inside the static intervals of the
/// matching cores (stages without a core — `flatten`, host-side
/// normalisation — are pure reshapes or have no core entry and are
/// skipped). Returns how many stages were actually compared so callers
/// can assert coverage.
fn assert_observed_within_static(
    design: &NetworkDesign,
    images: &[Tensor3<f32>],
    label: &str,
) -> usize {
    let report = analyze(design);
    let observed = observe_ranges(design, images);
    let mut matched = 0;
    for o in &observed {
        let Some(c) = report.core(&o.name) else {
            continue;
        };
        assert!(
            f64::from(o.lo) >= c.out_lo - 1e-6,
            "{label}/{}: observed lo {} below static bound {} ({})",
            o.name,
            o.lo,
            c.out_lo,
            report.numeric,
        );
        assert!(
            f64::from(o.hi) <= c.out_hi + 1e-6,
            "{label}/{}: observed hi {} above static bound {} ({})",
            o.name,
            o.hi,
            c.out_hi,
            report.numeric,
        );
        matched += 1;
    }
    matched
}

/// Every supported numeric format, fixed and float.
fn all_specs() -> Vec<NumericSpec> {
    NumericSpec::supported()
}

#[test]
fn paper_tc1_observed_ranges_stay_inside_static_intervals() {
    for spec in all_specs() {
        let design = tc1_design(spec);
        let images = batch(&design, 3, 21);
        let matched = assert_observed_within_static(&design, &images, "tc1");
        assert!(
            matched >= 4,
            "tc1 under {}: only {matched} stages matched",
            spec.label()
        );
    }
}

#[test]
fn paper_tc2_observed_ranges_stay_inside_static_intervals() {
    for spec in [NumericSpec::F32, Q16F8, Q8F6] {
        let design = tc2_design(spec);
        let images = batch(&design, 2, 22);
        let matched = assert_observed_within_static(&design, &images, "tc2");
        assert!(
            matched >= 4,
            "tc2 under {}: only {matched} stages matched",
            spec.label()
        );
    }
}

/// The fabric log-softmax core's transfer is exercised only when the
/// normalisation runs on-fabric: its interval must also contain what the
/// f32 exp/ln pipeline emits after requantisation.
#[test]
fn fabric_normalization_core_is_covered_by_its_transfer() {
    for spec in [NumericSpec::F32, Q16F8] {
        let config = DesignConfig {
            numeric: spec,
            fabric_normalization: true,
            ..DesignConfig::default()
        };
        let design =
            NetworkDesign::new(&tc1_network(), PortConfig::paper_test_case_1(), config).unwrap();
        let images = batch(&design, 2, 23);
        assert_observed_within_static(&design, &images, "tc1+fabric-norm");
        let report = analyze(&design);
        let ls = report
            .cores
            .iter()
            .find(|c| c.kind == "logsoftmax")
            .expect("fabric normalisation instantiates a logsoftmax core");
        // log-probabilities are never positive (up to quantisation slack)
        assert!(ls.out_hi < 0.5, "logsoftmax out_hi = {}", ls.out_hi);
    }
}

#[test]
fn graph_preset_observed_ranges_stay_inside_static_intervals() {
    let mut rng = ChaCha8Rng::seed_from_u64(801);
    for spec in [NumericSpec::F32, Q16F8, Q8F6] {
        for (name, gspec) in [
            (
                "resnet8-mini",
                GraphSpec::resnet8(Shape3::new(8, 8, 3), [2, 4, 4], 4),
            ),
            ("inception-cell", GraphSpec::inception_cell()),
        ] {
            let layers = gspec.build_layers(&mut rng);
            let ports = PortConfig::single_port(gspec.paper_depth());
            let config = DesignConfig {
                numeric: spec,
                ..DesignConfig::default()
            };
            let design = build_graph_design(&gspec, &layers, &ports, config).unwrap();
            let mut irng = ChaCha8Rng::seed_from_u64(802);
            let images: Vec<Tensor3<f32>> = (0..2)
                .map(|_| dfcnn::tensor::init::random_volume(&mut irng, gspec.input, 0.0, 1.0))
                .collect();
            let matched = assert_observed_within_static(&design, &images, name);
            assert!(
                matched >= 4,
                "{name} under {}: only {matched} stages",
                spec.label()
            );
        }
    }
}

#[test]
fn random_dag_observed_ranges_stay_inside_static_intervals() {
    for seed in 0..8u64 {
        for spec in [NumericSpec::F32, Q16F8] {
            let config = DesignConfig {
                numeric: spec,
                ..DesignConfig::default()
            };
            let design = random_dag_design(seed, config);
            let images = batch(&design, 2, 900 + seed);
            assert_observed_within_static(&design, &images, &format!("dag-{seed}"));
        }
    }
}

/// The headline acceptance case: the empirically-measured q8f6 collapse
/// (results/numeric_kernels.json, test accuracy 0.2) is *predicted* statically —
/// the checker rejects q8f6 on both paper test cases with the
/// `value-range` rule, while q16f8 checks clean.
#[test]
fn q8f6_collapse_is_predicted_and_q16f8_checks_clean() {
    for design in [tc1_design(Q8F6), tc2_design(Q8F6)] {
        let report = check_design(&design);
        assert!(
            report.has(Severity::Error, RuleId::ValueRange),
            "q8f6 not rejected: {}",
            report.render()
        );
    }
    for design in [tc1_design(Q16F8), tc2_design(Q16F8)] {
        let report = check_design(&design);
        assert!(report.is_clean(), "q16f8 rejected: {}", report.render());
    }
    // float designs have no container: the rule never fires
    let report = check_design(&tc1_design(NumericSpec::F32));
    assert!(report.is_clean(), "f32: {}", report.render());
}

/// `recommend_frac` returns the *maximal* FRAC whose analysis is clean:
/// the recommendation itself re-analyzes clean, and every finer FRAC
/// (more fractional bits, smaller container) analyzes dirty.
#[test]
fn recommend_frac_is_sound_and_maximal() {
    let design = tc1_design(Q16F8);
    let (lo, hi) = design.config().input_range;
    let input = Interval::new(f64::from(lo), f64::from(hi));
    let frac = recommend_frac(&design, 16).expect("16-bit TC1 has a sound FRAC");
    assert!(
        analyze_with(&design, NumericSpec::Fixed16 { frac }, input)
            .expect("a recommended spec has kernels")
            .is_clean(),
        "recommended frac={frac} is not clean"
    );
    for finer in (frac + 1)..=12 {
        let spec = NumericSpec::Fixed16 { frac: finer };
        if !spec.is_supported() {
            continue;
        }
        assert!(
            !analyze_with(&design, spec, input)
                .expect("a supported spec has kernels")
                .is_clean(),
            "frac={finer} is clean but recommend_frac picked {frac}"
        );
    }
}

/// A deterministically saturating chain: a 3×3 all-0.5 conv (per-window
/// L1 weight sum 4.5) under q8f6 (container ±1.98) driven by an all-ones
/// image. The checker must reject it, the saturating cast layer must
/// count clamp events in debug builds, and — the soundness contract —
/// the observed (clamped) ranges must still lie inside the static
/// intervals, because the transfers model the clamp.
#[test]
fn saturating_design_is_flagged_counted_and_still_soundly_bounded() {
    let input = Shape3::new(4, 4, 1);
    let geo = ConvGeometry::new(input, 3, 3, 1, 0);
    let conv = dfcnn::nn::Conv2d::new(
        geo,
        Tensor4::from_fn(1, 3, 3, 1, |_, _, _, _| 0.5),
        Tensor1::zeros(1),
        Activation::Identity,
    );
    let out_shape = Shape3::new(2, 2, 1);
    let fc = dfcnn::nn::Linear::new(
        Tensor4::from_fn(2, 1, 1, 4, |j, _, _, i| 0.1 * ((j + i) as f32)),
        Tensor1::zeros(2),
        Activation::Identity,
    );
    let build = |numeric| {
        let config = DesignConfig {
            numeric,
            ..DesignConfig::default()
        };
        let (mut g, x) = GraphBuilder::new(input, config);
        let x = g
            .layer(x, Layer::Conv(conv.clone()), LayerPorts::SINGLE)
            .unwrap();
        let x = g
            .layer(
                x,
                Layer::Flatten(Flatten::new(out_shape)),
                LayerPorts::SINGLE,
            )
            .unwrap();
        let x = g
            .layer(x, Layer::Linear(fc.clone()), LayerPorts::SINGLE)
            .unwrap();
        g.finish(x).unwrap()
    };
    let ones = vec![Tensor3::from_vec(input, vec![1.0f32; input.len()])];

    // q8f6: provably saturating, and the interior window really clamps
    let design = build(Q8F6);
    let report = check_design(&design);
    assert!(
        report.has(Severity::Error, RuleId::ValueRange),
        "{}",
        report.render()
    );
    let _ = dfcnn::tensor::cast::take_saturation_events();
    let matched = assert_observed_within_static(&design, &ones, "saturating-chain");
    assert!(matched >= 2);
    if dfcnn::tensor::cast::saturation_counting_enabled() {
        assert!(
            dfcnn::tensor::cast::take_saturation_events() > 0,
            "the all-ones window must clamp under q8f6"
        );
    }

    // q16f8: the same chain fits with room to spare — clean, zero clamps
    let design = build(Q16F8);
    assert!(check_design(&design).is_clean());
    let _ = dfcnn::tensor::cast::take_saturation_events();
    assert_observed_within_static(&design, &ones, "roomy-chain");
    if dfcnn::tensor::cast::saturation_counting_enabled() {
        assert_eq!(
            dfcnn::tensor::cast::take_saturation_events(),
            0,
            "a proven-clean design must not clamp"
        );
    }
}

/// The proven-clean paper design also runs clamp-free end to end: the
/// static proof's dynamic confirmation on a real workload.
#[test]
fn clean_paper_design_runs_without_a_single_clamp() {
    if !dfcnn::tensor::cast::saturation_counting_enabled() {
        return; // release builds don't count
    }
    let design = tc1_design(Q16F8);
    let images = batch(&design, 3, 31);
    let _ = dfcnn::tensor::cast::take_saturation_events();
    let _ = observe_ranges(&design, &images);
    assert_eq!(dfcnn::tensor::cast::take_saturation_events(), 0);
}

/// Numeric DSE: sweeping ResNet-8-mini over {f32, q8f6} prunes the
/// statically unsound q8f6 candidate into `numeric_rejected` (the
/// eltwise-add joins alone push the pre-add range past the ±1.98
/// container), while f32 points survive.
#[test]
fn dse_prunes_statically_unsound_numeric_candidates() {
    let gspec = GraphSpec::resnet8(Shape3::new(8, 8, 3), [2, 4, 4], 4);
    let mut rng = ChaCha8Rng::seed_from_u64(805);
    let layers = gspec.build_layers(&mut rng);
    let report = explore(
        &gspec,
        &layers,
        &DesignConfig::default(),
        &dfcnn::fpga::resources::CostModel::default(),
        &dfcnn::fpga::device::Device::xc7vx485t(),
        1,
        &[NumericSpec::F32, Q8F6],
        true,
    )
    .unwrap();
    assert!(
        report.discards.numeric_rejected > 0,
        "q8f6 not pruned: {}",
        report.render()
    );
    assert!(report.points.iter().any(|p| p.numeric == NumericSpec::F32));
    assert!(
        report.points.iter().all(|p| p.numeric != Q8F6),
        "a statically unsound numeric candidate became a design point"
    );
    // the tally is visible in the rendered sweep summary
    assert!(report.render().contains("numeric-rejected"));
}

/// The per-design report round-trips through the serde layer with its
/// schema version, and renders one line per core.
#[test]
fn range_report_serializes_and_renders() {
    use serde::{Deserialize as _, Serialize as _};
    let design = tc1_design(Q16F8);
    let report = analyze(&design);
    assert_eq!(report.schema_version, dfcnn::core::range::SCHEMA_VERSION);
    assert_eq!(report.cores.len(), design.cores().len());
    assert!(!report.edges.is_empty());
    let json = serde_json::to_string(&report.to_value()).unwrap();
    let value: serde::Value = serde_json::from_str(&json).unwrap();
    let back = dfcnn::core::range::RangeReport::from_value(&value).unwrap();
    assert_eq!(back.numeric, report.numeric);
    assert_eq!(back.cores.len(), report.cores.len());
    let rendered = report.render();
    for c in &report.cores {
        assert!(rendered.contains(&c.name), "render misses {}", c.name);
    }
}
