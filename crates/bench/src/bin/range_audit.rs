//! Static value-range audit of the reference designs (DESIGN.md §2k).
//!
//! Runs the abstract-interpretation analyzer (`dfcnn_core::range`) over
//! both trained paper test cases plus the graph presets (ResNet-8 mini,
//! Inception cell), across every supported numeric format, and records
//! per-design verdicts: clean/saturating, worst headroom, accumulator
//! bits, the `value-range` / `accumulator-width` diagnostic counts, and
//! the maximal FRAC `recommend_frac` proves safe at each storage width.
//!
//! Every analysis is cross-checked dynamically: the design's test images
//! stream through the host pipeline and each stage's observed min/max
//! must lie inside the static interval. Results go to
//! `results/range_audit.json` (the committed CI artifact). In release
//! builds two contracts are enforced:
//!
//! * **soundness** — observed ⊆ static on every (design, format) pair,
//!   including formats the checker rejects (saturating kernels clamp
//!   into the container and the transfers model exactly that);
//! * **prediction** — the q8f6 accuracy collapse measured in
//!   `results/numeric_kernels.json` is flagged by the `value-range` rule on both
//!   paper designs, while q16f8 checks clean.
//!
//! ```text
//! cargo run -p dfcnn-bench --release --bin range_audit
//! ```

use dfcnn_bench::{build_test_case_1, build_test_case_2, write_json, SEED};
use dfcnn_core::check::{check_design, RuleId, Severity};
use dfcnn_core::graph::{build_graph_design, DesignConfig, NetworkDesign, PortConfig};
use dfcnn_core::range::{analyze, observe_ranges, recommend_frac, SCHEMA_VERSION};
use dfcnn_nn::topology::GraphSpec;
use dfcnn_tensor::{init::random_volume, NumericSpec, Shape3, Tensor3};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

/// Slack allowed between an observed f32 extremum and the static bound.
const OBSERVE_TOL: f64 = 1e-6;

/// One analyzed (design, numeric format) pair.
#[derive(Serialize)]
struct AuditRow {
    case: String,
    numeric: String,
    /// No saturation possible and every accumulator provably fits i64.
    clean: bool,
    cores: usize,
    /// Cores whose pre-saturation interval escapes the container.
    saturating: Vec<String>,
    /// Smallest headroom across cores (negative when saturating).
    worst_headroom_bits: Option<f64>,
    /// Largest proven `log2 |accumulator|` across MAC cores.
    max_acc_bits: Option<f64>,
    value_range_errors: usize,
    value_range_warnings: usize,
    accumulator_errors: usize,
    /// Stages whose observed range was checked against the static one.
    observed_stages: usize,
    /// Whether every observed range stayed inside its static interval.
    observed_sound: bool,
}

/// `recommend_frac` verdict for one design at one storage width.
#[derive(Serialize)]
struct FracRow {
    case: String,
    storage_bits: u32,
    recommended_frac: Option<u32>,
}

#[derive(Serialize)]
struct Record {
    schema_version: u32,
    release: bool,
    rows: Vec<AuditRow>,
    recommendations: Vec<FracRow>,
}

/// A named reference design family: rebuild with any numeric format.
struct Case {
    name: String,
    build: Box<dyn Fn(NumericSpec) -> NetworkDesign>,
    images: Vec<Tensor3<f32>>,
}

fn design_config(numeric: NumericSpec) -> DesignConfig {
    DesignConfig {
        numeric,
        ..DesignConfig::default()
    }
}

fn cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for (tc, ports) in [
        (build_test_case_1(200), PortConfig::paper_test_case_1()),
        (build_test_case_2(200), PortConfig::paper_test_case_2()),
    ] {
        println!(
            "[trained {} — f32 test accuracy {:.1}%]",
            tc.name,
            100.0 * tc.test_accuracy
        );
        let network = tc.network;
        cases.push(Case {
            name: tc.name.to_string(),
            build: Box::new(move |numeric| {
                NetworkDesign::new(&network, ports.clone(), design_config(numeric))
                    .expect("paper design must build")
            }),
            images: tc.images.into_iter().take(4).collect(),
        });
    }
    let mut rng = ChaCha8Rng::seed_from_u64(SEED ^ 0x2b);
    for (name, gspec) in [
        (
            "resnet8-mini",
            GraphSpec::resnet8(Shape3::new(8, 8, 3), [2, 4, 4], 4),
        ),
        ("inception-cell", GraphSpec::inception_cell()),
    ] {
        let layers = gspec.build_layers(&mut rng);
        let ports = PortConfig::single_port(gspec.paper_depth());
        let mut irng = ChaCha8Rng::seed_from_u64(SEED ^ 0x2c);
        let images = (0..4)
            .map(|_| random_volume(&mut irng, gspec.input, 0.0, 1.0))
            .collect();
        cases.push(Case {
            name: name.to_string(),
            build: Box::new(move |numeric| {
                build_graph_design(&gspec, &layers, &ports, design_config(numeric))
                    .expect("preset design must build")
            }),
            images,
        });
    }
    cases
}

/// Stream the case's images and count stages violating their static
/// interval; panics (release) or warns (debug) are decided by the caller.
fn soundness(design: &NetworkDesign, images: &[Tensor3<f32>]) -> (usize, usize) {
    let report = analyze(design);
    let observed = observe_ranges(design, images);
    let mut matched = 0;
    let mut violations = 0;
    for o in &observed {
        let Some(c) = report.core(&o.name) else {
            continue;
        };
        matched += 1;
        if f64::from(o.lo) < c.out_lo - OBSERVE_TOL || f64::from(o.hi) > c.out_hi + OBSERVE_TOL {
            violations += 1;
            eprintln!(
                "[violation] {}: observed [{}, {}] escapes static [{}, {}] ({})",
                o.name, o.lo, o.hi, c.out_lo, c.out_hi, report.numeric
            );
        }
    }
    (matched, violations)
}

fn audit(case: &Case, numeric: NumericSpec) -> AuditRow {
    let design = (case.build)(numeric);
    let report = analyze(&design);
    let check = check_design(&design);
    let count = |severity: Severity, rule: RuleId| {
        check
            .diagnostics
            .iter()
            .filter(|d| d.severity == severity && d.rule == rule)
            .count()
    };
    let (observed_stages, violations) = soundness(&design, &case.images);
    AuditRow {
        case: case.name.clone(),
        numeric: numeric.label(),
        clean: report.is_clean(),
        cores: report.cores.len(),
        saturating: report
            .cores
            .iter()
            .filter(|c| c.saturation_possible)
            .map(|c| c.name.clone())
            .collect(),
        worst_headroom_bits: report
            .cores
            .iter()
            .filter_map(|c| c.headroom_bits)
            .min_by(f64::total_cmp),
        max_acc_bits: report
            .cores
            .iter()
            .filter_map(|c| c.acc_bits)
            .max_by(f64::total_cmp),
        value_range_errors: count(Severity::Error, RuleId::ValueRange),
        value_range_warnings: count(Severity::Warning, RuleId::ValueRange),
        accumulator_errors: count(Severity::Error, RuleId::AccumulatorWidth),
        observed_stages,
        observed_sound: violations == 0,
    }
}

fn main() {
    let release = !cfg!(debug_assertions);
    let cases = cases();

    let mut rows = Vec::new();
    let mut recommendations = Vec::new();
    for case in &cases {
        for numeric in NumericSpec::supported() {
            rows.push(audit(case, numeric));
        }
        let probe = (case.build)(NumericSpec::F32);
        for storage_bits in [16u32, 8] {
            recommendations.push(FracRow {
                case: case.name.clone(),
                storage_bits,
                recommended_frac: recommend_frac(&probe, storage_bits),
            });
        }
    }

    println!(
        "\n{:<16} {:<6} {:>6} {:>9} {:>8} {:>7} {:>6}",
        "case", "spec", "clean", "headroom", "acc_bits", "errors", "sound"
    );
    for r in &rows {
        println!(
            "{:<16} {:<6} {:>6} {:>9} {:>8} {:>7} {:>6}",
            r.case,
            r.numeric,
            r.clean,
            r.worst_headroom_bits
                .map_or_else(|| "-".into(), |h| format!("{h:.2}")),
            r.max_acc_bits
                .map_or_else(|| "-".into(), |b| format!("{b:.1}")),
            r.value_range_errors + r.accumulator_errors,
            r.observed_sound,
        );
    }
    for f in &recommendations {
        println!(
            "[recommend] {:<16} {:>2}-bit storage -> frac {}",
            f.case,
            f.storage_bits,
            f.recommended_frac
                .map_or_else(|| "none".into(), |f| f.to_string()),
        );
    }

    let record = Record {
        schema_version: SCHEMA_VERSION,
        release,
        rows,
        recommendations,
    };
    write_json("range_audit", &record);

    // CI smoke contracts (release builds only): every observed range must
    // stay inside its static interval, and the measured q8f6 collapse
    // must be predicted while q16f8 stays clean on the paper designs.
    if release {
        for r in &record.rows {
            assert!(
                r.observed_sound,
                "{} under {}: observed range escaped the static interval",
                r.case, r.numeric
            );
        }
        for r in &record.rows {
            let paper = r.case.starts_with("Test Case");
            if paper && r.numeric == "q8f6" {
                assert!(
                    r.value_range_errors > 0,
                    "{}: q8f6 collapse not predicted by value-range",
                    r.case
                );
            }
            if paper && (r.numeric == "q16f8" || r.numeric == "f32") {
                assert!(
                    r.clean && r.value_range_errors == 0,
                    "{}: {} must check clean",
                    r.case,
                    r.numeric
                );
            }
        }
        println!("[release contracts hold: soundness + q8f6 prediction]");
    }
}
