//! # perfbench
//!
//! The benchmark of the dfcnn host engine and cycle simulator: one
//! command per workload builds the design, checks every output, and
//! prints the end-to-end metrics; a separate traced run gives per-layer
//! numbers from spans around the calls into each module. See `README.md`
//! beside this crate for the workloads and the metric map.

pub mod calib;
pub mod gate;
pub mod measure;
pub mod report;
pub mod stats;
pub mod trace;
pub mod traced;
pub mod workload;
