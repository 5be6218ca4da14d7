//! Design-space exploration over port configurations — the paper's stated
//! future work ("Future work will address the automation of the DSE",
//! §IV-C), implemented here as an extension.
//!
//! The space: every conv/pool layer may use any divisor of its FM counts
//! as `IN_PORTS`/`OUT_PORTS` (FC layers are fixed single-port per §IV-B).
//! One explorer, [`explore`], walks a [`GraphSpec`]'s op graph; a linear
//! chain is the simplest spec (`GraphSpec::from(&network)`, every op a
//! layer). In-ports follow the actual predecessor edge, and a join couples
//! its operand branches (all branch ends must share a port count, so an
//! identity skip pins the transform path's final width). For each
//! candidate the explorer:
//!
//! 1. builds the design with [`build_graph_design`] (adapters inserted
//!    automatically),
//! 2. proves it safe with the static verifier ([`crate::check`]) —
//!    candidates with rate, buffer or II errors, or a numeric format the
//!    value-range analyzer proves unsound, are discarded before any
//!    estimate is spent on them,
//! 3. estimates its resources with the calibrated cost model,
//! 4. prunes configurations that do not fit the device,
//! 5. estimates the steady-state bottleneck interval analytically (a join
//!    core's II is the coupled Eq. 4 interval over its operand ports).
//!
//! Every reported point therefore fits the device. The result is that
//! set, its Pareto front (interval vs. DSP usage), and the fastest design;
//! [`DseReport::discards`] tallies every candidate that did not become a
//! point, so points plus discards is the candidate count. On the paper's
//! test cases the explorer reproduces the authors' empirical choices
//! *and* finds the intermediate designs they did not try.

use crate::graph::{build_graph_design, DesignConfig, LayerPorts, PortConfig};
use crate::model;
use dfcnn_fpga::device::Device;
use dfcnn_fpga::resources::{CostModel, Resources};
use dfcnn_nn::layer::Layer;
use dfcnn_nn::topology::{GraphOp, GraphSpec, LayerSpec};
use dfcnn_tensor::NumericSpec;
use rayon::prelude::*;

/// One explored design point; it fits the device.
#[derive(Clone, Debug)]
pub struct DesignPoint {
    /// The port configuration.
    pub ports: PortConfig,
    /// The numeric format the point was evaluated under.
    pub numeric: NumericSpec,
    /// Estimated resources.
    pub resources: Resources,
    /// Estimated bottleneck stage and its interval (cycles/image).
    pub bottleneck: (String, u64),
}

/// Candidates dropped before they became [`DesignPoint`]s — previously
/// lost silently, now tallied so a sweep's coverage is auditable.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DseDiscards {
    /// The builder rejected the port assignment (bad wiring).
    pub build_failed: usize,
    /// The static verifier found rate/buffer/II errors.
    pub checker_rejected: usize,
    /// The value-range analyzer proved the numeric format unsound for
    /// this network (saturation or accumulator wrap) — the candidate
    /// would build and stream fine but compute clipped values.
    pub numeric_rejected: usize,
    /// Resources exceed the device; pruned before interval estimation.
    /// When nothing fits, every checker-clean candidate lands here and
    /// the report has no points.
    pub over_budget: usize,
}

impl DseDiscards {
    /// Total discarded candidates.
    pub fn total(&self) -> usize {
        self.build_failed + self.checker_rejected + self.numeric_rejected + self.over_budget
    }
}

/// Exploration output.
#[derive(Clone, Debug)]
pub struct DseReport {
    /// Every design point that fits, in enumeration order.
    pub points: Vec<DesignPoint>,
    /// Index of the fastest point, if any.
    pub best: Option<usize>,
    /// Candidates discarded before evaluation completed.
    pub discards: DseDiscards,
}

impl DseReport {
    /// The fastest design point.
    pub fn best_point(&self) -> Option<&DesignPoint> {
        self.best.map(|i| &self.points[i])
    }

    /// One-line sweep summary, discards included.
    pub fn render(&self) -> String {
        let d = &self.discards;
        let best = match self.best_point() {
            Some(p) => format!("best {} @ {} cycles", p.bottleneck.0, p.bottleneck.1),
            None => "no feasible point".to_string(),
        };
        format!(
            "{} points, {}; discarded {} (build-failed {}, \
             checker-rejected {}, numeric-rejected {}, over-budget {})",
            self.points.len(),
            best,
            d.total(),
            d.build_failed,
            d.checker_rejected,
            d.numeric_rejected,
            d.over_budget,
        )
    }

    /// Pareto front over (interval, DSP), sorted by interval.
    pub fn pareto_front(&self) -> Vec<&DesignPoint> {
        let mut sorted: Vec<&DesignPoint> = self.points.iter().collect();
        sorted.sort_by_key(|p| (p.bottleneck.1, p.resources.dsp));
        let mut front: Vec<&DesignPoint> = Vec::new();
        let mut best_dsp = u64::MAX;
        for p in sorted {
            if p.resources.dsp < best_dsp {
                best_dsp = p.resources.dsp;
                front.push(p);
            }
        }
        front
    }
}

/// Why a layer list cannot be explored against a spec: `layers` must be
/// the spec's traversal, as [`GraphSpec::build_layers`] returns it (for
/// a chain spec `GraphSpec::from(&network)`, `network.layers()`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DseError {
    /// The layer list ends before the spec's traversal does.
    TooFewLayers,
    /// The layer list goes on past the spec's traversal.
    TooManyLayers,
    /// The layer at this traversal index is not the one the spec
    /// declares there.
    LayerMismatch {
        /// Position in the spec's depth-first traversal.
        index: usize,
    },
}

impl std::fmt::Display for DseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DseError::TooFewLayers => write!(f, "layer list shorter than the spec's traversal"),
            DseError::TooManyLayers => write!(f, "layer list longer than the spec's traversal"),
            DseError::LayerMismatch { index } => {
                write!(f, "layer {index} does not match the spec's traversal")
            }
        }
    }
}

impl std::error::Error for DseError {}

/// Enumerate port configurations for a [`GraphSpec`] by walking its op
/// graph. `layers` must be the spec's traversal (see [`DseError`]); the
/// per-kind option rules come from the layer models: divisors of the FM
/// counts for conv and pool layers, single-port for FC (§IV-B).
///
/// Each paper layer's `out_ports` is enumerated; its `in_ports` follows
/// the *actual predecessor edge*: a layer reads the port count its
/// predecessor emits when that divides its `IN_FM` (else 1, with an
/// adapter), and a fork hands every branch its own entry port count. A
/// join requires all branch ends to share a port count — the
/// cross-product of branch enumerations is filtered on that equality, so
/// an identity skip branch pins the transform path's final width to the
/// fork's. Entries come out in the spec's depth-first traversal order,
/// ready for [`build_graph_design`]; the first layer varies slowest.
///
/// # Errors
/// A [`DseError`] if `layers` does not match the spec's traversal.
///
/// [`GraphSpec::build_layers`]: dfcnn_nn::topology::GraphSpec::build_layers
pub fn enumerate_configs(
    spec: &GraphSpec,
    layers: &[Layer],
    max_ports: usize,
) -> Result<Vec<PortConfig>, DseError> {
    let mut it = layers.iter().enumerate();
    let acc = enum_graph_ops(&spec.ops, &mut it, 1, max_ports)?;
    if it.next().is_some() {
        return Err(DseError::TooManyLayers);
    }
    Ok(acc
        .into_iter()
        .map(|(entries, _)| PortConfig { layers: entries })
        .collect())
}

/// Partial enumerations of an op sequence: each entry is `(port entries
/// along the traversal so far, exit port count)`.
type PortCombos = Vec<(Vec<LayerPorts>, usize)>;

/// The layer cursor: traversal index and layer.
type LayerCursor<'a> = std::iter::Enumerate<std::slice::Iter<'a, Layer>>;

/// Enumerate `(port entries, exit port count)` for an op sequence entered
/// at `entry` ports, consuming and checking `layers` along the traversal.
fn enum_graph_ops(
    ops: &[GraphOp],
    layers: &mut LayerCursor<'_>,
    entry: usize,
    max_ports: usize,
) -> Result<PortCombos, DseError> {
    let mut acc: PortCombos = vec![(Vec::new(), entry)];
    for op in ops {
        match op {
            GraphOp::Layer(spec) => {
                let (index, layer) = layers.next().ok_or(DseError::TooFewLayers)?;
                if LayerSpec::from(layer) != *spec {
                    return Err(DseError::LayerMismatch { index });
                }
                let Some(m) = model::paper_layer_model(layer) else {
                    continue; // flatten, LogSoftmax: no ports, the stream passes through
                };
                let in_fm = m.feature_maps(layer).0;
                let opts = m.out_port_options(layer, max_ports);
                let mut next = Vec::with_capacity(acc.len() * opts.len());
                for (entries, exit) in &acc {
                    let in_ports = if m.forces_single_port() {
                        1
                    } else if *exit > 0 && in_fm.is_multiple_of(*exit) {
                        *exit // follow the predecessor edge
                    } else {
                        1 // adapter at the boundary
                    };
                    for &o in &opts {
                        let mut e2 = entries.clone();
                        e2.push(LayerPorts {
                            in_ports,
                            out_ports: o,
                        });
                        next.push((e2, o));
                    }
                }
                acc = next;
            }
            GraphOp::Branch { branches, .. } => {
                // branch enumeration depends on the entry port count, so
                // run it once per distinct upstream exit (on a cloned
                // layer cursor — every run consumes the same layer range)
                let mut distinct: Vec<usize> = acc.iter().map(|(_, e)| *e).collect();
                distinct.sort_unstable();
                distinct.dedup();
                let mut after = layers.clone();
                let mut per_entry: Vec<(usize, PortCombos)> = Vec::new();
                for &e in &distinct {
                    let mut cur = layers.clone();
                    let mut combos: Option<PortCombos> = None;
                    for ops_b in branches {
                        let br = enum_graph_ops(ops_b, &mut cur, e, max_ports)?;
                        combos = Some(match combos {
                            None => br,
                            // the join couples the operand branches: keep
                            // only combinations whose ends share a port
                            // count
                            Some(prev) => {
                                let mut out = Vec::new();
                                for (pe, pexit) in &prev {
                                    for (be, bexit) in &br {
                                        if bexit == pexit {
                                            let mut e2 = pe.clone();
                                            e2.extend_from_slice(be);
                                            out.push((e2, *pexit));
                                        }
                                    }
                                }
                                out
                            }
                        });
                    }
                    after = cur;
                    per_entry.push((e, combos.unwrap_or_default()));
                }
                *layers = after;
                let mut next = Vec::new();
                for (entries, exit) in &acc {
                    // exactly one run per distinct exit
                    for (_, combos) in per_entry.iter().filter(|(e, _)| e == exit) {
                        for (be, bexit) in combos {
                            let mut e2 = entries.clone();
                            e2.extend_from_slice(be);
                            next.push((e2, *bexit));
                        }
                    }
                }
                acc = next;
            }
        }
    }
    Ok(acc)
}

/// One candidate's evaluation outcome.
enum Eval {
    Point(DesignPoint),
    BuildFailed,
    CheckerRejected,
    NumericRejected,
    OverBudget,
}

/// Classify a failing check report: a candidate whose *only* errors come
/// from the value-range analyzer is numerically unsound (wrong format for
/// this network's dynamics) rather than structurally broken, and the
/// sweep tallies it separately.
fn rejection(report: &crate::check::CheckReport) -> Eval {
    let numeric_only = report.errors().iter().all(|d| {
        matches!(
            d.rule,
            crate::check::RuleId::ValueRange | crate::check::RuleId::AccumulatorWidth
        )
    });
    if numeric_only {
        Eval::NumericRejected
    } else {
        Eval::CheckerRejected
    }
}

/// Explore the port-configuration space of `spec` (with its traversal's
/// built `layers`) crossed with `numerics`: each `(ports, numeric)`
/// candidate is built, checked (including the value-range analyzer's
/// saturation/accumulator proofs) and estimated under its own
/// [`DesignConfig::numeric`]; `config` supplies every other knob.
/// Statically unsound formats land in [`DseDiscards::numeric_rejected`]
/// instead of producing points the lab would later watch collapse, and
/// over-budget candidates land in [`DseDiscards::over_budget`].
///
/// `parallel` evaluates candidates with rayon; the serial sweep returns
/// the identical report (it is the benchmarking baseline).
///
/// # Errors
/// A [`DseError`] if `layers` does not match the spec's traversal.
#[allow(clippy::too_many_arguments)]
pub fn explore(
    spec: &GraphSpec,
    layers: &[Layer],
    config: &DesignConfig,
    cost: &CostModel,
    device: &Device,
    max_ports: usize,
    numerics: &[NumericSpec],
    parallel: bool,
) -> Result<DseReport, DseError> {
    let candidates: Vec<(PortConfig, NumericSpec)> = enumerate_configs(spec, layers, max_ports)?
        .into_iter()
        .flat_map(|ports| numerics.iter().map(move |&n| (ports.clone(), n)))
        .collect();
    let eval = |(ports, numeric): (PortConfig, NumericSpec)| {
        let candidate_config = DesignConfig { numeric, ..*config };
        let design = match build_graph_design(spec, layers, &ports, candidate_config) {
            Ok(d) => d,
            Err(_) => return Eval::BuildFailed,
        };
        let report = crate::check::check_design(&design);
        if !report.is_clean() {
            return rejection(&report); // statically broken or numerically unsound
        }
        let resources = design.resources(cost);
        if !device.fits(&resources) {
            return Eval::OverBudget; // pruned before any interval estimate
        }
        let bottleneck = design.estimated_bottleneck();
        Eval::Point(DesignPoint {
            ports,
            numeric,
            resources,
            bottleneck,
        })
    };
    // both paths keep enumeration order, so the reports are identical
    let evals: Vec<Eval> = if parallel {
        candidates.into_par_iter().map(eval).collect()
    } else {
        candidates.into_iter().map(eval).collect()
    };
    let mut points = Vec::new();
    let mut discards = DseDiscards::default();
    for e in evals {
        match e {
            Eval::Point(p) => points.push(p),
            Eval::BuildFailed => discards.build_failed += 1,
            Eval::CheckerRejected => discards.checker_rejected += 1,
            Eval::NumericRejected => discards.numeric_rejected += 1,
            Eval::OverBudget => discards.over_budget += 1,
        }
    }
    let best = points
        .iter()
        .enumerate()
        .min_by_key(|(_, p)| (p.bottleneck.1, p.resources.dsp))
        .map(|(i, _)| i);
    Ok(DseReport {
        points,
        best,
        discards,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NetworkDesign;
    use dfcnn_nn::topology::NetworkSpec;
    use dfcnn_nn::Network;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn build(spec: NetworkSpec) -> Network {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        spec.build(&mut rng)
    }

    fn tc1() -> Network {
        build(NetworkSpec::test_case_1())
    }

    fn chain_configs(network: &Network, max_ports: usize) -> Vec<PortConfig> {
        enumerate_configs(&GraphSpec::from(network), network.layers(), max_ports).unwrap()
    }

    /// The sweep over `spec` in the default numeric format.
    fn explore_spec(
        spec: &GraphSpec,
        layers: &[Layer],
        cost: &CostModel,
        device: &Device,
        max_ports: usize,
        parallel: bool,
    ) -> DseReport {
        let config = DesignConfig::default();
        explore(
            spec,
            layers,
            &config,
            cost,
            device,
            max_ports,
            &[config.numeric],
            parallel,
        )
        .unwrap()
    }

    fn explore_chain(
        network: &Network,
        cost: &CostModel,
        device: &Device,
        max_ports: usize,
        parallel: bool,
    ) -> DseReport {
        let spec = GraphSpec::from(network);
        explore_spec(&spec, network.layers(), cost, device, max_ports, parallel)
    }

    fn tiny_device() -> Device {
        Device {
            name: "tiny".into(),
            capacity: Resources {
                ff: 10,
                lut: 10,
                bram18: 1,
                dsp: 1,
            },
            clock_hz: 100_000_000,
        }
    }

    #[test]
    fn enumeration_respects_divisors_and_cap() {
        let cfgs = chain_configs(&tc1(), 6);
        // conv1 out ∈ {1,2,3,6}, pool out ∈ {1,2,3,6}, conv2 out ∈ {1,2,4}
        // (8 and 16 capped), fc out = 1 → 4*4*3 = 48
        assert_eq!(cfgs.len(), 48);
        for c in &cfgs {
            assert_eq!(c.layers[3], LayerPorts::SINGLE);
        }
        // TC2: conv1/pool1 (12 maps) and conv2/pool2 (36 maps) each
        // ∈ {1,2,3,4,6}, both FCs single → 5^4 = 625
        let cfgs = chain_configs(&build(NetworkSpec::test_case_2()), 6);
        assert_eq!(cfgs.len(), 625);
        assert!(cfgs
            .iter()
            .all(|c| c.layers[4..] == [LayerPorts::SINGLE; 2]));
        // LeNet-5: conv1/pool1 (6 maps) ∈ {1,2,3,6}, conv2/pool2 (16
        // maps) ∈ {1,2,4}, three single-port FCs → 4*4*3*3 = 144
        let cfgs = chain_configs(&build(NetworkSpec::lenet5()), 6);
        assert_eq!(cfgs.len(), 144);
        assert!(cfgs
            .iter()
            .all(|c| c.layers[4..] == [LayerPorts::SINGLE; 3]));
    }

    #[test]
    fn a_mismatched_layer_list_is_an_error_not_a_panic() {
        let net = tc1();
        let spec = GraphSpec::from(&net);
        let layers = net.layers();
        let short = &layers[..layers.len() - 2];
        assert_eq!(
            enumerate_configs(&spec, short, 6).unwrap_err(),
            DseError::TooFewLayers
        );
        let mut long = layers.to_vec();
        long.push(layers[0].clone());
        assert_eq!(
            enumerate_configs(&spec, &long, 6).unwrap_err(),
            DseError::TooManyLayers
        );
        // a flatten where the spec declares the second conv
        let mut wrong = layers.to_vec();
        wrong[2] = layers[3].clone();
        let err = explore(
            &spec,
            &wrong,
            &DesignConfig::default(),
            &CostModel::default(),
            &Device::xc7vx485t(),
            6,
            &[NumericSpec::F32],
            false,
        )
        .unwrap_err();
        assert_eq!(err, DseError::LayerMismatch { index: 2 });
        assert!(err.to_string().contains("layer 2"), "{err}");
    }

    #[test]
    fn chain_candidates_lower_to_the_chain_design() {
        // the chain spec's graph lowering is the chain builder's design
        let net = tc1();
        let spec = GraphSpec::from(&net);
        let config = DesignConfig::default();
        for ports in chain_configs(&net, 6) {
            let graph = build_graph_design(&spec, net.layers(), &ports, config).unwrap();
            let chain = NetworkDesign::new(&net, ports, config).unwrap();
            assert_eq!(format!("{graph:?}"), format!("{chain:?}"));
        }
    }

    #[test]
    fn explore_finds_feasible_designs() {
        let report = explore_chain(&tc1(), &CostModel::default(), &Device::xc7vx485t(), 6, true);
        assert!(!report.points.is_empty(), "no feasible TC1 design");
        let best = report.best_point().expect("no best point");
        // the paper's fully-parallel conv1 choice (or better) is feasible:
        // the best interval must be at most the input-stream bound
        assert!(best.bottleneck.1 <= 16 * 16 + 16, "best = {best:?}");
        // every candidate is either a point or a tallied discard
        assert_eq!(report.points.len() + report.discards.total(), 48);
    }

    #[test]
    fn pareto_front_is_monotone() {
        let report = explore_chain(&tc1(), &CostModel::default(), &Device::xc7vx485t(), 6, true);
        let front = report.pareto_front();
        assert!(!front.is_empty());
        for w in front.windows(2) {
            assert!(w[0].bottleneck.1 <= w[1].bottleneck.1);
            assert!(w[0].resources.dsp > w[1].resources.dsp);
        }
    }

    #[test]
    fn parallel_and_serial_sweeps_agree() {
        let net = tc1();
        let (cost, device) = (CostModel::default(), Device::xc7vx485t());
        let par = explore_chain(&net, &cost, &device, 6, true);
        let ser = explore_chain(&net, &cost, &device, 6, false);
        assert_eq!(par.points.len(), ser.points.len());
        assert_eq!(par.best, ser.best);
        assert_eq!(par.discards, ser.discards);
        for (a, b) in par.points.iter().zip(&ser.points) {
            assert_eq!(a.ports, b.ports);
            assert_eq!(a.bottleneck, b.bottleneck);
        }
    }

    fn resnet8_mini() -> (GraphSpec, Vec<Layer>) {
        let spec = GraphSpec::resnet8(dfcnn_tensor::Shape3::new(8, 8, 3), [2, 4, 4], 4);
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let layers = spec.build_layers(&mut rng);
        (spec, layers)
    }

    #[test]
    fn graph_enumeration_couples_join_branches() {
        let (spec, layers) = resnet8_mini();
        let cfgs = enumerate_configs(&spec, &layers, 2).unwrap();
        assert!(!cfgs.is_empty());
        // every candidate must lower cleanly: the coupling filter only
        // emits joinable combinations
        for c in &cfgs {
            assert_eq!(c.layers.len(), spec.paper_depth());
        }
        // block 1 has an identity skip: the transform path's final
        // scale-shift must emit exactly the stem's out_ports. Traversal
        // order: stem=0, block1 = conv,ss,conv,ss at 1..=4.
        for c in &cfgs {
            assert_eq!(
                c.layers[4].out_ports, c.layers[0].out_ports,
                "identity skip must pin the transform end: {c:?}"
            );
        }
        // the stem itself still explores multiple widths
        let stems: std::collections::BTreeSet<usize> =
            cfgs.iter().map(|c| c.layers[0].out_ports).collect();
        assert!(stems.len() > 1, "stem choices: {stems:?}");
    }

    #[test]
    fn graph_sweep_finds_a_pareto_front_on_resnet8() {
        let (spec, layers) = resnet8_mini();
        // f32 conv cores blow the DSP budget; the paper-calibrated
        // fixed-point model keeps the mini ResNet on one device
        let report = explore_spec(
            &spec,
            &layers,
            &CostModel::fixed_point(),
            &Device::xc7vx485t(),
            2,
            true,
        );
        assert!(
            !report.points.is_empty(),
            "no feasible point: {}",
            report.render()
        );
        let front = report.pareto_front();
        assert!(!front.is_empty());
        for w in front.windows(2) {
            assert!(w[0].bottleneck.1 <= w[1].bottleneck.1);
            assert!(w[0].resources.dsp > w[1].resources.dsp);
        }
        // and the best point's coupled join II is the real built design's
        let best = report.best_point().unwrap();
        let d = build_graph_design(&spec, &layers, &best.ports, DesignConfig::default()).unwrap();
        assert_eq!(d.estimated_bottleneck(), best.bottleneck);
    }

    #[test]
    fn best_resnet8_join_ii_matches_the_measured_interval() {
        // acceptance: the sweep's coupled join II (Eq. 4 over the operand
        // port counts) must agree with the cycle-accurate measurement
        let (spec, layers) = resnet8_mini();
        let report = explore_spec(
            &spec,
            &layers,
            &CostModel::fixed_point(),
            &Device::xc7vx485t(),
            2,
            true,
        );
        let best = report.best_point().expect("feasible resnet8 point");
        let d = build_graph_design(&spec, &layers, &best.ports, DesignConfig::default()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let images: Vec<_> = (0..6)
            .map(|_| dfcnn_tensor::init::random_volume(&mut rng, spec.input, 0.0, 1.0))
            .collect();
        let (res, trace) = d.instantiate(&images).with_trace().run();
        let drift = crate::observe::DriftReport::new(&d, &res, &trace);
        let joins: Vec<_> = drift
            .cores
            .iter()
            .filter(|c| c.name.starts_with("add"))
            .collect();
        assert_eq!(
            joins.len(),
            3,
            "three residual joins; drift cores: {:?}",
            drift.cores.iter().map(|c| &c.name).collect::<Vec<_>>()
        );
        for j in joins {
            assert!(
                j.within,
                "{}: predicted {} vs measured {:.1} cycles/image",
                j.name, j.predicted_stage_interval, j.measured_interval
            );
        }
    }

    #[test]
    fn graph_sweep_counts_discards() {
        let (spec, layers) = resnet8_mini();
        let report = explore_spec(
            &spec,
            &layers,
            &CostModel::fixed_point(),
            &tiny_device(),
            2,
            true,
        );
        assert!(report.points.is_empty());
        assert!(report.discards.over_budget > 0);
        assert_eq!(
            report.discards.total(),
            report.discards.over_budget
                + report.discards.build_failed
                + report.discards.checker_rejected
        );
        assert!(
            report.render().contains("over-budget"),
            "{}",
            report.render()
        );
        // a chain on a device nothing fits: every candidate is pruned
        // over budget, so there is no point and no best
        let net = tc1();
        let report = explore_chain(&net, &CostModel::default(), &tiny_device(), 2, true);
        assert!(report.points.is_empty());
        assert!(report.best.is_none());
        assert_eq!(report.discards.over_budget, chain_configs(&net, 2).len());
    }
}
