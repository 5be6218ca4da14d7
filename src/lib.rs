//! # dfcnn — a pipelined, scalable dataflow implementation of CNNs on a
//! simulated FPGA
//!
//! Rust reproduction of Bacis, Natale, Del Sozzo & Santambrogio,
//! *"A Pipelined and Scalable Dataflow Implementation of Convolutional
//! Neural Networks on FPGA"* (IPDPS Workshops 2017).
//!
//! This facade crate re-exports the whole workspace:
//!
//! - [`tensor`] — volumes, filter banks, fixed point, initialisers.
//! - [`nn`] — the reference CNN: layers, inference, offline training.
//! - [`datasets`] — deterministic synthetic USPS / CIFAR-10 stand-ins.
//! - [`hls`] — the Vivado-HLS scheduling model (Eq. 4 initiation
//!   intervals, tree adders, interleaved accumulators).
//! - [`fpga`] — the platform: xc7vx485t device database, resource and
//!   power models, AXI/DMA timing.
//! - [`core`] — the paper's contribution: SST window engines, dataflow
//!   layer cores, the cycle simulator, the threaded engine, and the
//!   design-space explorer.
//!
//! ## Quickstart
//!
//! ```
//! use dfcnn::prelude::*;
//! use rand::SeedableRng;
//!
//! // 1. build + (normally: train) the paper's USPS network
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let network = NetworkSpec::test_case_1().build(&mut rng);
//!
//! // 2. freeze it into the paper's Fig. 4 accelerator design
//! let design = NetworkDesign::new(
//!     &network,
//!     PortConfig::paper_test_case_1(),
//!     DesignConfig::default(),
//! ).unwrap();
//!
//! // 3. stream a batch through the cycle-accurate simulator
//! let mut gen = SyntheticUsps::new(7);
//! let images: Vec<_> = gen.generate(8).into_iter().map(|(x, _)| x).collect();
//! let (result, _) = design.instantiate(&images).run();
//! let m = result.measurement(design.config().clock_hz);
//! assert_eq!(m.batch, 8);
//! assert!(m.mean_time_per_image_us() > 0.0);
//! ```

pub use dfcnn_core as core;
pub use dfcnn_datasets as datasets;
pub use dfcnn_fpga as fpga;
pub use dfcnn_hls as hls;
pub use dfcnn_nn as nn;
pub use dfcnn_tensor as tensor;

/// The most commonly used items in one import.
pub mod prelude {
    pub use dfcnn_core::check::{check_design, CheckReport, RuleId, Severity};
    pub use dfcnn_core::dse;
    pub use dfcnn_core::exec::ThreadedEngine;
    pub use dfcnn_core::graph::{
        DesignConfig, GraphBuilder, LayerPorts, NetworkDesign, PortConfig, Tap,
    };
    pub use dfcnn_core::verify;
    pub use dfcnn_datasets::{Dataset, Generator, SyntheticCifar, SyntheticUsps};
    pub use dfcnn_fpga::power::PowerModel;
    pub use dfcnn_fpga::resources::CostModel;
    pub use dfcnn_fpga::Device;
    pub use dfcnn_nn::topology::{GraphSpec, LayerSpec, NetworkSpec};
    pub use dfcnn_nn::train::{TrainConfig, Trainer};
    pub use dfcnn_nn::{Activation, Network, PoolKind};
    pub use dfcnn_tensor::{ConvGeometry, NumericSpec, Shape3, Tensor1, Tensor3, Tensor4};
}
