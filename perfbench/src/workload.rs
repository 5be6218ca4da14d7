//! The benchmark's workloads and the inputs each one draws from its seed.
//!
//! A workload fixes a network, a numeric spec and a DMA rate. The seed
//! fixes everything else: the untrained weights (ChaCha8) and the
//! `SyntheticCifar` images. The program under test receives only those
//! generated inputs.

use dfcnn_core::graph::{build_graph_design, DesignConfig, NetworkDesign, PortConfig};
use dfcnn_datasets::{Generator, SyntheticCifar};
use dfcnn_fpga::dma::DmaConfig;
use dfcnn_nn::topology::{GraphSpec, NetworkSpec};
use dfcnn_nn::{Layer, Network};
use dfcnn_tensor::{NumericSpec, Tensor3};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Which network a workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Net {
    /// The paper's Test Case 2 chain (CIFAR-10, Fig. 5).
    Tc2,
    /// `GraphSpec::resnet8_cifar()`: three residual blocks, fork/join.
    Resnet8,
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Network topology.
    pub net: Net,
    /// Element type of every core's datapath.
    pub numeric: NumericSpec,
    /// Source/sink DMA bandwidth in MB/s.
    pub dma_mb_s: f64,
    /// The published converged µs/image this workload's simulation is
    /// compared against, if the paper reports one.
    pub paper_us_per_img: Option<f64>,
    /// Images per simulator run: enough for the simulated time per image
    /// to converge, few enough that a run fits between changes in machine
    /// speed.
    pub sim_batch: usize,
}

/// Table II of the paper: 7,809 images/s on Test Case 2, i.e. 128.1 µs.
const TC2_PAPER_US: f64 = 128.1;

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "tc2_q16f8",
        net: Net::Tc2,
        numeric: NumericSpec::Fixed16 { frac: 8 },
        dma_mb_s: 400.0,
        paper_us_per_img: Some(TC2_PAPER_US),
        sim_batch: 16,
    },
    Workload {
        name: "tc2_f32",
        net: Net::Tc2,
        numeric: NumericSpec::F32,
        dma_mb_s: 400.0,
        paper_us_per_img: Some(TC2_PAPER_US),
        sim_batch: 16,
    },
    Workload {
        name: "resnet8_throttled",
        net: Net::Resnet8,
        numeric: NumericSpec::F32,
        dma_mb_s: 10.0,
        paper_us_per_img: None,
        sim_batch: 4,
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The seeded weights of a workload's network.
pub enum Weights {
    /// A chain network (Test Case 2).
    Chain(Network),
    /// A graph preset and its layers in traversal order.
    Graph(GraphSpec, Vec<Layer>),
}

/// Everything a run derives from its seed.
pub struct Inputs {
    /// Untrained weights.
    pub weights: Weights,
    /// The image pool every engine streams.
    pub images: Vec<Tensor3<f32>>,
}

/// Stream that seeds the images, kept apart from the weight stream so the
/// two never share draws.
const IMAGE_STREAM: u64 = 0x1A6E_5EED;

impl Workload {
    /// Draw the weights and `pool` images from `seed`.
    pub fn inputs(&self, seed: u64, pool: usize) -> Inputs {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let weights = match self.net {
            Net::Tc2 => Weights::Chain(NetworkSpec::test_case_2().build(&mut rng)),
            Net::Resnet8 => {
                let spec = GraphSpec::resnet8_cifar();
                let layers = spec.build_layers(&mut rng);
                Weights::Graph(spec, layers)
            }
        };
        let mut gen = SyntheticCifar::new(seed ^ IMAGE_STREAM);
        let images = gen.generate(pool).into_iter().map(|(x, _)| x).collect();
        Inputs { weights, images }
    }

    /// The design configuration: the workload's numeric spec and DMA rate,
    /// everything else at its default.
    pub fn config(&self) -> DesignConfig {
        DesignConfig {
            numeric: self.numeric,
            dma: DmaConfig {
                bandwidth_bytes_per_s: self.dma_mb_s * 1e6,
                ..DmaConfig::paper()
            },
            ..DesignConfig::default()
        }
    }

    /// Build the design (the `graph` module's public entry points).
    pub fn build_design(&self, weights: &Weights) -> Result<NetworkDesign, String> {
        match weights {
            Weights::Chain(network) => {
                NetworkDesign::new(network, PortConfig::paper_test_case_2(), self.config())
            }
            Weights::Graph(spec, layers) => build_graph_design(
                spec,
                layers,
                &PortConfig::single_port(spec.paper_depth()),
                self.config(),
            ),
        }
    }
}
