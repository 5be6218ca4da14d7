//! Network *specifications*: the declarative description a designer writes,
//! from which both the reference [`Network`] and the dataflow accelerator
//! design (`dfcnn-core`) are generated.
//!
//! Includes the paper's two evaluation topologies:
//!
//! - [`NetworkSpec::test_case_1`] — the USPS network (§V-B1, Fig. 4):
//!   `16×16×1 → conv5×5(6) → maxpool2×2/2 → conv5×5(16) → FC(10)`.
//! - [`NetworkSpec::test_case_2`] — the CIFAR-10 network (§V-B2, Fig. 5):
//!   `32×32×3 → conv5×5(12) → maxpool2×2/2 → conv5×5(36) → maxpool2×2/2 →
//!   FC(72) → FC(10)`.
//!
//! The paper counts only conv/pool/linear as "layers" (4 for TC1, 6 for
//! TC2); [`NetworkSpec::paper_depth`] reproduces that count, which is the
//! reference point of Fig. 6's convergence claim. The hidden width of TC2's
//! first linear layer is not stated in the paper; we use 72 (a plausible
//! LeNet-style choice) and record the assumption in EXPERIMENTS.md.

use crate::act::Activation;
use crate::layer::{Conv2d, Flatten, Layer, Linear, LogSoftmax, Pool2d, PoolKind, ScaleShift};
use crate::network::Network;
use dfcnn_tensor::{init, ConvGeometry, Shape3};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Declarative layer description.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum LayerSpec {
    /// Convolution with `out_maps` filters of `kh × kw` (input channel count
    /// inferred from the running shape).
    Conv {
        /// Window height.
        kh: usize,
        /// Window width.
        kw: usize,
        /// Number of output feature maps (`K`).
        out_maps: usize,
        /// Stride.
        stride: usize,
        /// Zero padding.
        pad: usize,
        /// Element-wise nonlinearity.
        activation: Activation,
    },
    /// Sub-sampling layer.
    Pool {
        /// Window height.
        kh: usize,
        /// Window width.
        kw: usize,
        /// Stride.
        stride: usize,
        /// Max or mean pooling.
        kind: PoolKind,
    },
    /// Reshape to `1 × 1 × N` (free in the dataflow design).
    Flatten,
    /// Fully-connected layer with `outputs` neurons.
    Linear {
        /// Number of output neurons (`J`).
        outputs: usize,
        /// Element-wise nonlinearity.
        activation: Activation,
    },
    /// LogSoftMax normalisation operator.
    LogSoftmax,
    /// Per-feature-map affine map (frozen batch normalisation). The folded
    /// `(γ', β')` coefficients are drawn at build time, like weights.
    ScaleShift,
}

impl LayerSpec {
    /// Whether this spec maps to a streaming compute core with its own
    /// port-width entry in the accelerator design (conv, pool and linear
    /// as in the paper, plus the scale-shift extension; flatten and the
    /// normalisation operator do not).
    pub fn counts_as_paper_layer(&self) -> bool {
        matches!(
            self,
            LayerSpec::Conv { .. }
                | LayerSpec::Pool { .. }
                | LayerSpec::Linear { .. }
                | LayerSpec::ScaleShift
        )
    }

    /// Whether the kind is restricted to single-input-port /
    /// single-output-port in the accelerator design (§IV-B's FC rule) —
    /// mirrored here so spec-level tooling (graph-aware DSE) can prune
    /// port candidates without building layers first.
    pub fn forces_single_port(&self) -> bool {
        matches!(self, LayerSpec::Linear { .. })
    }

    /// The output shape of this layer applied to a `cur`-shaped input.
    ///
    /// # Panics
    /// If the layer is inconsistent with `cur` (e.g. a linear layer not
    /// preceded by a flatten, or a window that does not fit).
    pub fn output_shape(&self, cur: Shape3) -> Shape3 {
        match self {
            LayerSpec::Conv {
                kh,
                kw,
                out_maps,
                stride,
                pad,
                ..
            } => ConvGeometry::new(cur, *kh, *kw, *stride, *pad).conv_output(*out_maps),
            LayerSpec::Pool { kh, kw, stride, .. } => {
                ConvGeometry::new(cur, *kh, *kw, *stride, 0).pool_output()
            }
            LayerSpec::Flatten => Shape3::new(1, 1, cur.len()),
            LayerSpec::Linear { outputs, .. } => {
                assert_eq!(
                    (cur.h, cur.w),
                    (1, 1),
                    "linear layer requires a flattened 1x1 input, got {cur}"
                );
                Shape3::new(1, 1, *outputs)
            }
            LayerSpec::LogSoftmax => {
                assert_eq!(
                    (cur.h, cur.w),
                    (1, 1),
                    "logsoftmax requires a 1x1 input, got {cur}"
                );
                cur
            }
            LayerSpec::ScaleShift => cur,
        }
    }

    /// Materialise the layer for a `cur`-shaped input, drawing any
    /// parameters (weights, scale-shift coefficients) from `rng` with the
    /// same initialisers [`NetworkSpec::build`] uses.
    pub fn build_layer(&self, cur: Shape3, rng: &mut impl Rng) -> Layer {
        match self {
            LayerSpec::Conv {
                kh,
                kw,
                out_maps,
                stride,
                pad,
                activation,
            } => {
                let geo = ConvGeometry::new(cur, *kh, *kw, *stride, *pad);
                let filters = init::conv_filters(rng, *out_maps, *kh, *kw, cur.c);
                Layer::Conv(Conv2d::new(
                    geo,
                    filters,
                    init::biases(*out_maps),
                    *activation,
                ))
            }
            LayerSpec::Pool {
                kh,
                kw,
                stride,
                kind,
            } => {
                let geo = ConvGeometry::new(cur, *kh, *kw, *stride, 0);
                Layer::Pool(Pool2d::new(geo, *kind))
            }
            LayerSpec::Flatten => Layer::Flatten(Flatten::new(cur)),
            LayerSpec::Linear {
                outputs,
                activation,
            } => {
                let w = init::linear_weights(rng, cur.c, *outputs);
                Layer::Linear(Linear::new(w, init::biases(*outputs), *activation))
            }
            LayerSpec::LogSoftmax => Layer::LogSoftmax(LogSoftmax::new(cur.c)),
            LayerSpec::ScaleShift => {
                let scale = (0..cur.c).map(|_| rng.gen_range(0.5f32..1.5)).collect();
                let shift = (0..cur.c).map(|_| rng.gen_range(-0.25f32..0.25)).collect();
                Layer::ScaleShift(ScaleShift::new(cur, scale, shift))
            }
        }
    }
}

impl From<&Layer> for LayerSpec {
    /// The spec a built layer realises — the inverse of
    /// [`LayerSpec::build_layer`] up to the drawn parameters.
    fn from(layer: &Layer) -> Self {
        match layer {
            Layer::Conv(c) => {
                let g = c.geometry();
                LayerSpec::Conv {
                    kh: g.kh,
                    kw: g.kw,
                    out_maps: c.out_maps(),
                    stride: g.stride,
                    pad: g.pad,
                    activation: c.activation(),
                }
            }
            Layer::Pool(p) => {
                let g = p.geometry();
                LayerSpec::Pool {
                    kh: g.kh,
                    kw: g.kw,
                    stride: g.stride,
                    kind: p.kind(),
                }
            }
            Layer::Flatten(_) => LayerSpec::Flatten,
            Layer::Linear(l) => LayerSpec::Linear {
                outputs: l.outputs(),
                activation: l.activation(),
            },
            Layer::LogSoftmax(_) => LayerSpec::LogSoftmax,
            Layer::ScaleShift(_) => LayerSpec::ScaleShift,
        }
    }
}

/// A full network specification: input shape plus ordered layer specs.
///
/// ```
/// use dfcnn_nn::topology::NetworkSpec;
/// use dfcnn_tensor::Shape3;
/// use rand::SeedableRng;
///
/// let spec = NetworkSpec::test_case_1();            // the paper's USPS net
/// assert_eq!(spec.paper_depth(), 4);                // conv, pool, conv, FC
/// assert_eq!(spec.shapes()[1], Shape3::new(12, 12, 6));
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let net = spec.build(&mut rng);                   // Xavier-initialised
/// assert_eq!(net.param_count(), 3222);
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NetworkSpec {
    /// Human-readable name used in reports ("usps-testcase1", …).
    pub name: String,
    /// Input volume shape.
    pub input: Shape3,
    /// Ordered layer descriptions.
    pub layers: Vec<LayerSpec>,
}

impl NetworkSpec {
    /// The paper's Test Case 1 (USPS, §V-B1 / Fig. 4).
    pub fn test_case_1() -> Self {
        NetworkSpec {
            name: "usps-testcase1".to_string(),
            input: Shape3::new(16, 16, 1),
            layers: vec![
                LayerSpec::Conv {
                    kh: 5,
                    kw: 5,
                    out_maps: 6,
                    stride: 1,
                    pad: 0,
                    activation: Activation::Tanh,
                },
                LayerSpec::Pool {
                    kh: 2,
                    kw: 2,
                    stride: 2,
                    kind: PoolKind::Max,
                },
                LayerSpec::Conv {
                    kh: 5,
                    kw: 5,
                    out_maps: 16,
                    stride: 1,
                    pad: 0,
                    activation: Activation::Tanh,
                },
                LayerSpec::Flatten,
                LayerSpec::Linear {
                    outputs: 10,
                    activation: Activation::Identity,
                },
                LayerSpec::LogSoftmax,
            ],
        }
    }

    /// The paper's Test Case 2 (CIFAR-10, §V-B2 / Fig. 5).
    pub fn test_case_2() -> Self {
        NetworkSpec {
            name: "cifar10-testcase2".to_string(),
            input: Shape3::new(32, 32, 3),
            layers: vec![
                LayerSpec::Conv {
                    kh: 5,
                    kw: 5,
                    out_maps: 12,
                    stride: 1,
                    pad: 0,
                    activation: Activation::Tanh,
                },
                LayerSpec::Pool {
                    kh: 2,
                    kw: 2,
                    stride: 2,
                    kind: PoolKind::Max,
                },
                LayerSpec::Conv {
                    kh: 5,
                    kw: 5,
                    out_maps: 36,
                    stride: 1,
                    pad: 0,
                    activation: Activation::Tanh,
                },
                LayerSpec::Pool {
                    kh: 2,
                    kw: 2,
                    stride: 2,
                    kind: PoolKind::Max,
                },
                LayerSpec::Flatten,
                LayerSpec::Linear {
                    outputs: 72,
                    activation: Activation::Tanh,
                },
                LayerSpec::Linear {
                    outputs: 10,
                    activation: Activation::Identity,
                },
                LayerSpec::LogSoftmax,
            ],
        }
    }

    /// A LeNet-5-style network (LeCun et al. \[20\], the CNN lineage the
    /// paper's §II background describes): 32×32×1 input, two 5×5 conv +
    /// 2×2 mean-pool stages, three linear layers. Used by the scaling
    /// study; fits a single xc7vx485t.
    pub fn lenet5() -> Self {
        NetworkSpec {
            name: "lenet5".to_string(),
            input: Shape3::new(32, 32, 1),
            layers: vec![
                LayerSpec::Conv {
                    kh: 5,
                    kw: 5,
                    out_maps: 6,
                    stride: 1,
                    pad: 0,
                    activation: Activation::Tanh,
                },
                LayerSpec::Pool {
                    kh: 2,
                    kw: 2,
                    stride: 2,
                    kind: PoolKind::Mean,
                },
                LayerSpec::Conv {
                    kh: 5,
                    kw: 5,
                    out_maps: 16,
                    stride: 1,
                    pad: 0,
                    activation: Activation::Tanh,
                },
                LayerSpec::Pool {
                    kh: 2,
                    kw: 2,
                    stride: 2,
                    kind: PoolKind::Mean,
                },
                LayerSpec::Flatten,
                LayerSpec::Linear {
                    outputs: 120,
                    activation: Activation::Tanh,
                },
                LayerSpec::Linear {
                    outputs: 84,
                    activation: Activation::Tanh,
                },
                LayerSpec::Linear {
                    outputs: 10,
                    activation: Activation::Identity,
                },
                LayerSpec::LogSoftmax,
            ],
        }
    }

    /// An AlexNet-flavoured CIFAR-scale network ("bigger and more popular
    /// CNN models like AlexNet", §VI): five conv layers with growing
    /// channel counts. Individually each layer fits the xc7vx485t, but the
    /// whole chain does not — the multi-FPGA partitioning case (§VI:
    /// "investigate scalability by implementing bigger networks on a
    /// multi-FPGA system").
    pub fn alexnet_tiny() -> Self {
        NetworkSpec {
            name: "alexnet-tiny".to_string(),
            input: Shape3::new(32, 32, 3),
            layers: vec![
                LayerSpec::Conv {
                    kh: 5,
                    kw: 5,
                    out_maps: 24,
                    stride: 1,
                    pad: 2,
                    activation: Activation::Relu,
                },
                LayerSpec::Pool {
                    kh: 2,
                    kw: 2,
                    stride: 2,
                    kind: PoolKind::Max,
                },
                LayerSpec::Conv {
                    kh: 3,
                    kw: 3,
                    out_maps: 48,
                    stride: 1,
                    pad: 1,
                    activation: Activation::Relu,
                },
                LayerSpec::Pool {
                    kh: 2,
                    kw: 2,
                    stride: 2,
                    kind: PoolKind::Max,
                },
                LayerSpec::Conv {
                    kh: 3,
                    kw: 3,
                    out_maps: 48,
                    stride: 1,
                    pad: 1,
                    activation: Activation::Relu,
                },
                LayerSpec::Conv {
                    kh: 3,
                    kw: 3,
                    out_maps: 32,
                    stride: 1,
                    pad: 1,
                    activation: Activation::Relu,
                },
                LayerSpec::Pool {
                    kh: 2,
                    kw: 2,
                    stride: 2,
                    kind: PoolKind::Max,
                },
                LayerSpec::Flatten,
                LayerSpec::Linear {
                    outputs: 128,
                    activation: Activation::Relu,
                },
                LayerSpec::Linear {
                    outputs: 10,
                    activation: Activation::Identity,
                },
                LayerSpec::LogSoftmax,
            ],
        }
    }

    /// A VGG-flavoured 3×3-conv-block network ("or VGG", §VI). Its deep
    /// 64/128-channel blocks exceed a single xc7vx485t *per layer* in
    /// single-precision float — the scaling study quantifies exactly where
    /// the methodology hits the device wall and what fixed point buys.
    pub fn vgg_tiny() -> Self {
        let conv = |out_maps: usize| LayerSpec::Conv {
            kh: 3,
            kw: 3,
            out_maps,
            stride: 1,
            pad: 1,
            activation: Activation::Relu,
        };
        let pool = LayerSpec::Pool {
            kh: 2,
            kw: 2,
            stride: 2,
            kind: PoolKind::Max,
        };
        NetworkSpec {
            name: "vgg-tiny".to_string(),
            input: Shape3::new(32, 32, 3),
            layers: vec![
                conv(32),
                conv(32),
                pool.clone(),
                conv(64),
                conv(64),
                pool.clone(),
                conv(128),
                conv(128),
                pool,
                LayerSpec::Flatten,
                LayerSpec::Linear {
                    outputs: 256,
                    activation: Activation::Relu,
                },
                LayerSpec::Linear {
                    outputs: 10,
                    activation: Activation::Identity,
                },
                LayerSpec::LogSoftmax,
            ],
        }
    }

    /// Shapes threaded through the network: `result[0]` is the input,
    /// `result[i]` the output of layer `i-1`.
    ///
    /// # Panics
    /// If a layer is inconsistent with the running shape (e.g. a linear
    /// layer not preceded by a flatten, or a window that does not fit).
    pub fn shapes(&self) -> Vec<Shape3> {
        let mut shapes = vec![self.input];
        for l in &self.layers {
            let cur = *shapes.last().unwrap();
            shapes.push(l.output_shape(cur));
        }
        shapes
    }

    /// Total number of layer specs.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// The paper's layer count (conv/pool/linear only): 4 for Test Case 1,
    /// 6 for Test Case 2.
    pub fn paper_depth(&self) -> usize {
        self.layers
            .iter()
            .filter(|l| l.counts_as_paper_layer())
            .count()
    }

    /// Instantiate a [`Network`] with Xavier-initialised parameters.
    pub fn build(&self, rng: &mut impl Rng) -> Network {
        let shapes = self.shapes();
        let mut net = Network::new();
        for (i, l) in self.layers.iter().enumerate() {
            net.push(l.build_layer(shapes[i], rng));
        }
        net
    }

    /// Floating-point operations per image, per layer, counting a
    /// multiply-accumulate as **2 FLOPs** plus one add per bias. Pooling
    /// counts one op per comparison/add inside the window; flatten and
    /// logsoftmax count 0 and `4K` respectively.
    ///
    /// Note on paper agreement: with this (standard) convention the CIFAR-10
    /// network costs ≈3.7 MFLOP/image, matching Table II's 28.4 GFLOPS at
    /// 7809 images/s (≈3.6 MFLOP/image). The USPS row of Table II implies
    /// ≈30 kFLOP/image, consistent with counting a MAC as *one* operation
    /// for that network; we keep one convention and discuss the discrepancy
    /// in EXPERIMENTS.md.
    pub fn flops_per_layer(&self) -> Vec<u64> {
        let shapes = self.shapes();
        self.layers
            .iter()
            .enumerate()
            .map(|(i, l)| {
                let cur = shapes[i];
                let out = shapes[i + 1];
                match l {
                    LayerSpec::Conv { kh, kw, .. } => {
                        let positions = (out.h * out.w) as u64;
                        positions * out.c as u64 * (2 * (kh * kw) as u64 * cur.c as u64 + 1)
                    }
                    LayerSpec::Pool { kh, kw, .. } => {
                        (out.h * out.w * out.c) as u64 * ((kh * kw) as u64 - 1)
                    }
                    LayerSpec::Flatten => 0,
                    LayerSpec::Linear { outputs, .. } => *outputs as u64 * (2 * cur.c as u64 + 1),
                    LayerSpec::LogSoftmax => 4 * cur.c as u64,
                    // one multiply + one add per element
                    LayerSpec::ScaleShift => 2 * (out.h * out.w * out.c) as u64,
                }
            })
            .collect()
    }

    /// Total FLOPs per image.
    pub fn flops_per_image(&self) -> u64 {
        self.flops_per_layer().iter().sum()
    }

    /// Multiply-accumulate operations per image (each MAC counted once).
    pub fn macs_per_image(&self) -> u64 {
        let shapes = self.shapes();
        self.layers
            .iter()
            .enumerate()
            .map(|(i, l)| {
                let cur = shapes[i];
                let out = shapes[i + 1];
                match l {
                    LayerSpec::Conv { kh, kw, .. } => {
                        (out.h * out.w * out.c) as u64 * (kh * kw) as u64 * cur.c as u64
                    }
                    LayerSpec::Linear { outputs, .. } => *outputs as u64 * cur.c as u64,
                    // the per-element γ'·x + β' is one MAC
                    LayerSpec::ScaleShift => (out.h * out.w * out.c) as u64,
                    _ => 0,
                }
            })
            .sum()
    }

    /// Number of classes produced by the final layer.
    pub fn classes(&self) -> usize {
        self.shapes().last().unwrap().c
    }
}

/// How a reconvergent branch group merges back into one stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum JoinKind {
    /// Element-wise addition — all branches must produce identical shapes.
    Add,
    /// Feature-map concatenation — branches share the pixel grid, output
    /// channel count is the sum of the branch channel counts.
    Concat,
}

/// One node of a fork/join graph specification: either a plain layer or a
/// branch group that forks the running stream, runs each branch's op list
/// on its own copy, and joins the results. An **empty branch is the
/// identity** (a plain skip connection), so a classic residual block is
/// `Branch { branches: vec![transform, vec![]], join: JoinKind::Add }`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum GraphOp {
    /// A single chain layer.
    Layer(LayerSpec),
    /// A fork into `branches` parallel op lists, reconverging at `join`.
    /// Groups with more than two branches fold pairwise in declaration
    /// order when lowered to two-input join cores.
    Branch {
        /// Per-branch op lists (each may itself contain nested branches).
        branches: Vec<Vec<GraphOp>>,
        /// How the branch outputs merge.
        join: JoinKind,
    },
}

impl GraphOp {
    fn output_shape(&self, cur: Shape3) -> Shape3 {
        match self {
            GraphOp::Layer(l) => l.output_shape(cur),
            GraphOp::Branch { branches, join } => {
                assert!(
                    branches.len() >= 2,
                    "a branch group needs at least two branches"
                );
                let ends: Vec<Shape3> = branches
                    .iter()
                    .map(|ops| ops.iter().fold(cur, |s, op| op.output_shape(s)))
                    .collect();
                let first = ends[0];
                match join {
                    JoinKind::Add => {
                        for e in &ends {
                            assert_eq!(
                                *e, first,
                                "add-join requires identical branch shapes, got {e} vs {first}"
                            );
                        }
                        first
                    }
                    JoinKind::Concat => {
                        let mut c = 0;
                        for e in &ends {
                            assert_eq!(
                                (e.h, e.w),
                                (first.h, first.w),
                                "concat-join requires a shared pixel grid, got {e} vs {first}"
                            );
                            c += e.c;
                        }
                        Shape3::new(first.h, first.w, c)
                    }
                }
            }
        }
    }

    fn for_each_layer(&self, cur: Shape3, f: &mut impl FnMut(&LayerSpec, Shape3)) -> Shape3 {
        match self {
            GraphOp::Layer(l) => {
                f(l, cur);
                l.output_shape(cur)
            }
            GraphOp::Branch { branches, .. } => {
                for ops in branches {
                    let mut s = cur;
                    for op in ops {
                        s = op.for_each_layer(s, f);
                    }
                }
                self.output_shape(cur)
            }
        }
    }
}

/// A fork/join network specification: the graph-native sibling of
/// [`NetworkSpec`]. Layers inside branch groups are visited **depth-first
/// in declaration order**, which fixes the order of [`build_layers`]'s
/// output and of the per-layer port entries the dataflow lowering consumes
/// (`dfcnn_core::graph::build_graph_design`).
///
/// [`build_layers`]: GraphSpec::build_layers
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GraphSpec {
    /// Human-readable name used in reports ("resnet8-cifar", …).
    pub name: String,
    /// Input volume shape.
    pub input: Shape3,
    /// Ordered graph ops (the top-level chain).
    pub ops: Vec<GraphOp>,
}

impl GraphSpec {
    /// A parametric ResNet-8-style residual stack: a 3×3 stem conv with
    /// `widths[0]` maps, then three residual blocks with `widths[0..3]`
    /// maps — the first an identity-skip block, the last two downsampling
    /// by stride 2 with a 1×1 projection on the skip path — followed by a
    /// global mean-pool and a linear classifier. Eight weighted layers
    /// (stem + 6 block convs + FC; skip projections uncounted), the
    /// standard CIFAR ResNet recipe of He et al. scaled down to one block
    /// per width. `input.h` and `input.w` must be divisible by 4.
    pub fn resnet8(input: Shape3, widths: [usize; 3], classes: usize) -> Self {
        let conv3 = |out_maps: usize, stride: usize, activation: Activation| {
            GraphOp::Layer(LayerSpec::Conv {
                kh: 3,
                kw: 3,
                out_maps,
                stride,
                pad: 1,
                activation,
            })
        };
        let block = |in_maps: usize, out_maps: usize, stride: usize| {
            let transform = vec![
                conv3(out_maps, stride, Activation::Relu),
                GraphOp::Layer(LayerSpec::ScaleShift),
                conv3(out_maps, 1, Activation::Identity),
                GraphOp::Layer(LayerSpec::ScaleShift),
            ];
            let skip = if stride == 1 && out_maps == in_maps {
                vec![] // identity skip
            } else {
                // 1x1 projection matching the transform path's shape
                vec![GraphOp::Layer(LayerSpec::Conv {
                    kh: 1,
                    kw: 1,
                    out_maps,
                    stride,
                    pad: 0,
                    activation: Activation::Identity,
                })]
            };
            GraphOp::Branch {
                branches: vec![transform, skip],
                join: JoinKind::Add,
            }
        };
        assert!(
            input.h.is_multiple_of(4) && input.w.is_multiple_of(4),
            "resnet8 downsamples twice; input {input} must be divisible by 4"
        );
        let (fh, fw) = (input.h / 4, input.w / 4);
        GraphSpec {
            name: format!("resnet8-{}x{}x{}", input.h, input.w, input.c),
            input,
            ops: vec![
                conv3(widths[0], 1, Activation::Relu),
                block(widths[0], widths[0], 1),
                block(widths[0], widths[1], 2),
                block(widths[1], widths[2], 2),
                GraphOp::Layer(LayerSpec::Pool {
                    kh: fh,
                    kw: fw,
                    stride: fh.max(fw),
                    kind: PoolKind::Mean,
                }),
                GraphOp::Layer(LayerSpec::Flatten),
                GraphOp::Layer(LayerSpec::Linear {
                    outputs: classes,
                    activation: Activation::Identity,
                }),
            ],
        }
    }

    /// The CIFAR-10-scale ResNet-8 preset: 32×32×3 input, widths 8/16/32,
    /// ten classes.
    pub fn resnet8_cifar() -> Self {
        let mut spec = Self::resnet8(Shape3::new(32, 32, 3), [8, 16, 32], 10);
        spec.name = "resnet8-cifar".to_string();
        spec
    }

    /// An Inception-style cell (GoogLeNet lineage): a 3×3 stem conv, then
    /// four parallel branches — 1×1, 3×3 and 5×5 convs plus an identity
    /// pass-through — concatenated along the feature-map axis, followed by
    /// a max-pool and a linear classifier.
    pub fn inception_cell() -> Self {
        let conv = |kh: usize, out_maps: usize| {
            GraphOp::Layer(LayerSpec::Conv {
                kh,
                kw: kh,
                out_maps,
                stride: 1,
                pad: kh / 2,
                activation: Activation::Relu,
            })
        };
        GraphSpec {
            name: "inception-cell".to_string(),
            input: Shape3::new(8, 8, 3),
            ops: vec![
                conv(3, 4),
                GraphOp::Branch {
                    branches: vec![vec![conv(1, 4)], vec![conv(3, 4)], vec![conv(5, 4)], vec![]],
                    join: JoinKind::Concat,
                },
                GraphOp::Layer(LayerSpec::Pool {
                    kh: 2,
                    kw: 2,
                    stride: 2,
                    kind: PoolKind::Max,
                }),
                GraphOp::Layer(LayerSpec::Flatten),
                GraphOp::Layer(LayerSpec::Linear {
                    outputs: 10,
                    activation: Activation::Identity,
                }),
            ],
        }
    }

    /// The output shape of the whole graph.
    ///
    /// # Panics
    /// If branch shapes are inconsistent at a join or a layer does not fit
    /// its running shape.
    pub fn output_shape(&self) -> Shape3 {
        self.ops.iter().fold(self.input, |s, op| op.output_shape(s))
    }

    /// Number of classes produced by the final layer.
    pub fn classes(&self) -> usize {
        self.output_shape().c
    }

    /// The paper's layer count (conv/pool/linear/scale-shift) across the
    /// whole graph in traversal order — the number of per-layer port
    /// entries a lowering consumes.
    pub fn paper_depth(&self) -> usize {
        let mut n = 0;
        self.visit_layers(|l, _| {
            if l.counts_as_paper_layer() {
                n += 1;
            }
        });
        n
    }

    /// Visit every layer spec depth-first in declaration order, with the
    /// shape of its input — the canonical traversal shared with the
    /// dataflow lowering and the graph-aware DSE.
    pub fn visit_layers(&self, mut f: impl FnMut(&LayerSpec, Shape3)) {
        let mut cur = self.input;
        for op in &self.ops {
            cur = op.for_each_layer(cur, &mut f);
        }
    }

    /// Materialise every layer in traversal order with Xavier-initialised
    /// parameters. The result feeds `dfcnn_core::graph::build_graph_design`
    /// (which re-walks the same traversal), and lets a design-space sweep
    /// draw weights once and reuse them across thousands of candidates.
    pub fn build_layers(&self, rng: &mut impl Rng) -> Vec<Layer> {
        let mut layers = Vec::new();
        self.visit_layers(|l, cur| layers.push(l.build_layer(cur, rng)));
        layers
    }
}

impl From<&Network> for GraphSpec {
    /// A built chain as the simplest graph spec: one [`GraphOp::Layer`]
    /// per network layer, so the chain's layers are exactly the spec's
    /// traversal (`network.layers()` is its [`GraphSpec::build_layers`]
    /// output up to the drawn parameters).
    ///
    /// # Panics
    /// If the network has no layers (it then has no input shape).
    fn from(network: &Network) -> Self {
        GraphSpec {
            name: "chain".to_string(),
            input: network.input_shape(),
            ops: network
                .layers()
                .iter()
                .map(|l| GraphOp::Layer(l.into()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn test_case_1_shapes_match_paper() {
        let s = NetworkSpec::test_case_1();
        let shapes = s.shapes();
        assert_eq!(shapes[0], Shape3::new(16, 16, 1));
        assert_eq!(shapes[1], Shape3::new(12, 12, 6));
        assert_eq!(shapes[2], Shape3::new(6, 6, 6));
        assert_eq!(shapes[3], Shape3::new(2, 2, 16));
        assert_eq!(shapes[4], Shape3::new(1, 1, 64));
        assert_eq!(shapes[5], Shape3::new(1, 1, 10));
        assert_eq!(s.paper_depth(), 4);
        assert_eq!(s.classes(), 10);
    }

    #[test]
    fn test_case_2_shapes_match_paper() {
        let s = NetworkSpec::test_case_2();
        let shapes = s.shapes();
        assert_eq!(shapes[1], Shape3::new(28, 28, 12));
        assert_eq!(shapes[2], Shape3::new(14, 14, 12));
        assert_eq!(shapes[3], Shape3::new(10, 10, 36));
        assert_eq!(shapes[4], Shape3::new(5, 5, 36));
        assert_eq!(shapes[5], Shape3::new(1, 1, 900));
        assert_eq!(shapes[7], Shape3::new(1, 1, 10));
        assert_eq!(s.paper_depth(), 6);
    }

    #[test]
    fn build_produces_runnable_network() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let net = NetworkSpec::test_case_1().build(&mut rng);
        assert_eq!(net.input_shape(), Shape3::new(16, 16, 1));
        let x = dfcnn_tensor::init::random_volume(&mut rng, net.input_shape(), 0.0, 1.0);
        let y = net.forward(&x);
        assert_eq!(y.shape(), Shape3::new(1, 1, 10));
        // log-probabilities must exponentiate to a distribution
        let p: f32 = y.as_slice().iter().map(|v| v.exp()).sum();
        assert!((p - 1.0).abs() < 1e-5);
    }

    #[test]
    fn flop_counts_magnitude() {
        // CIFAR net must be ~3.7 MFLOP/image (matches Table II convention)
        let tc2 = NetworkSpec::test_case_2().flops_per_image();
        assert!(
            (3_000_000..4_500_000).contains(&tc2),
            "TC2 flops/image = {tc2}"
        );
        // USPS net is about 65 kFLOP/image
        let tc1 = NetworkSpec::test_case_1().flops_per_image();
        assert!((50_000..90_000).contains(&tc1), "TC1 flops/image = {tc1}");
        // TC2 is much heavier than TC1
        assert!(tc2 > 40 * tc1);
    }

    #[test]
    fn macs_half_of_mac_flops() {
        let s = NetworkSpec::test_case_2();
        // MACs are roughly half the FLOPs (biases/pool/softmax are minor)
        let ratio = s.flops_per_image() as f64 / s.macs_per_image() as f64;
        assert!((1.9..2.2).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn conv1_dominates_tc2() {
        // The first conv layer is TC2's bottleneck stage in the paper's
        // design; check it is also the FLOP-dominant conv.
        let s = NetworkSpec::test_case_2();
        let per = s.flops_per_layer();
        assert!(per[0] > per[2] / 2, "conv1={} conv2={}", per[0], per[2]);
        assert!(per[0] + per[2] > s.flops_per_image() * 9 / 10);
    }

    #[test]
    #[should_panic(expected = "requires a flattened")]
    fn linear_without_flatten_rejected() {
        let spec = NetworkSpec {
            name: "bad".into(),
            input: Shape3::new(4, 4, 2),
            layers: vec![LayerSpec::Linear {
                outputs: 3,
                activation: Activation::Identity,
            }],
        };
        spec.shapes();
    }

    #[test]
    fn lenet5_shapes() {
        let s = NetworkSpec::lenet5();
        let shapes = s.shapes();
        assert_eq!(shapes[1], Shape3::new(28, 28, 6));
        assert_eq!(shapes[2], Shape3::new(14, 14, 6));
        assert_eq!(shapes[3], Shape3::new(10, 10, 16));
        assert_eq!(shapes[4], Shape3::new(5, 5, 16));
        assert_eq!(shapes[5], Shape3::new(1, 1, 400));
        assert_eq!(s.classes(), 10);
        assert_eq!(s.paper_depth(), 7);
    }

    #[test]
    fn alexnet_tiny_shapes_and_padding() {
        let s = NetworkSpec::alexnet_tiny();
        let shapes = s.shapes();
        // pad 2 keeps 32x32 through the 5x5 conv
        assert_eq!(shapes[1], Shape3::new(32, 32, 24));
        assert_eq!(shapes[2], Shape3::new(16, 16, 24));
        assert_eq!(shapes[3], Shape3::new(16, 16, 48));
        // final pool output 4x4x32 -> flatten 512
        assert_eq!(shapes[8], Shape3::new(1, 1, 512));
        assert_eq!(s.classes(), 10);
    }

    #[test]
    fn vgg_tiny_shapes() {
        let s = NetworkSpec::vgg_tiny();
        let shapes = s.shapes();
        assert_eq!(shapes[1], Shape3::new(32, 32, 32));
        assert_eq!(shapes[6], Shape3::new(8, 8, 64));
        // 4x4x128 flattened
        assert_eq!(shapes[10], Shape3::new(1, 1, 2048));
        // materially heavier than the paper's test case 2
        assert!(s.flops_per_image() > 10 * NetworkSpec::test_case_2().flops_per_image());
    }

    #[test]
    fn all_named_topologies_build_and_run() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        for spec in [
            NetworkSpec::test_case_1(),
            NetworkSpec::test_case_2(),
            NetworkSpec::lenet5(),
            NetworkSpec::alexnet_tiny(),
            NetworkSpec::vgg_tiny(),
        ] {
            let net = spec.build(&mut rng);
            let x = dfcnn_tensor::init::random_volume(&mut rng, spec.input, 0.0, 1.0);
            let y = net.forward(&x);
            assert_eq!(y.shape().c, spec.classes(), "{}", spec.name);
            let p: f32 = y.as_slice().iter().map(|v| v.exp()).sum();
            assert!((p - 1.0).abs() < 1e-4, "{}: probs sum {p}", spec.name);
        }
    }

    #[test]
    fn spec_roundtrips_through_serde() {
        let s = NetworkSpec::test_case_1();
        let json = serde_json::to_string(&s).unwrap();
        let back: NetworkSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn resnet8_cifar_shapes_and_depth() {
        let s = GraphSpec::resnet8_cifar();
        assert_eq!(s.output_shape(), Shape3::new(1, 1, 10));
        assert_eq!(s.classes(), 10);
        // stem + 3 blocks x (2 conv + 2 scale-shift) + 2 skip projections
        // + pool + fc = 1 + 12 + 2 + 2 = 17 port-bearing layers
        assert_eq!(s.paper_depth(), 17);
        // exactly 8 weighted layers in the ResNet-counting convention
        // (convs on the transform path + the classifier; projections and
        // scale-shifts uncounted)
        let mut weighted = 0;
        s.visit_layers(|l, _| match l {
            LayerSpec::Conv { kh, .. } if *kh == 3 => weighted += 1,
            LayerSpec::Linear { .. } => weighted += 1,
            _ => {}
        });
        assert_eq!(weighted, 8);
    }

    #[test]
    fn resnet8_is_parametric() {
        let s = GraphSpec::resnet8(Shape3::new(8, 8, 3), [2, 4, 4], 4);
        assert_eq!(s.output_shape(), Shape3::new(1, 1, 4));
        assert_eq!(s.paper_depth(), 17);
        // downsampling stops at 2x2 before the global pool
        let mut pool_in = None;
        s.visit_layers(|l, cur| {
            if matches!(l, LayerSpec::Pool { .. }) {
                pool_in = Some(cur);
            }
        });
        assert_eq!(pool_in, Some(Shape3::new(2, 2, 4)));
    }

    #[test]
    fn inception_cell_concat_widens() {
        let s = GraphSpec::inception_cell();
        // stem 8x8x4, concat of 4+4+4+4 maps, pooled to 4x4
        let mut linear_in = None;
        s.visit_layers(|l, cur| {
            if matches!(l, LayerSpec::Linear { .. }) {
                linear_in = Some(cur);
            }
        });
        assert_eq!(linear_in, Some(Shape3::new(1, 1, 4 * 4 * 16)));
        assert_eq!(s.output_shape(), Shape3::new(1, 1, 10));
        assert_eq!(s.classes(), 10);
    }

    #[test]
    fn graph_build_layers_matches_traversal() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let s = GraphSpec::inception_cell();
        let layers = s.build_layers(&mut rng);
        let mut specs = Vec::new();
        s.visit_layers(|l, _| specs.push(l.clone()));
        assert_eq!(layers.len(), specs.len());
        for (layer, spec) in layers.iter().zip(&specs) {
            let same_kind = matches!(
                (layer, spec),
                (Layer::Conv(_), LayerSpec::Conv { .. })
                    | (Layer::Pool(_), LayerSpec::Pool { .. })
                    | (Layer::Flatten(_), LayerSpec::Flatten)
                    | (Layer::Linear(_), LayerSpec::Linear { .. })
            );
            assert!(same_kind, "{layer:?} vs {spec:?}");
        }
    }

    #[test]
    #[should_panic(expected = "add-join requires identical branch shapes")]
    fn mismatched_add_join_rejected() {
        let bad = GraphSpec {
            name: "bad".into(),
            input: Shape3::new(8, 8, 2),
            ops: vec![GraphOp::Branch {
                branches: vec![
                    vec![GraphOp::Layer(LayerSpec::Conv {
                        kh: 3,
                        kw: 3,
                        out_maps: 5,
                        stride: 1,
                        pad: 1,
                        activation: Activation::Relu,
                    })],
                    vec![],
                ],
                join: JoinKind::Add,
            }],
        };
        bad.output_shape();
    }

    #[test]
    fn graph_spec_roundtrips_through_serde() {
        let s = GraphSpec::resnet8_cifar();
        let json = serde_json::to_string(&s).unwrap();
        let back: GraphSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
