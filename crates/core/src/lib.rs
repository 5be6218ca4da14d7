//! # dfcnn-core
//!
//! The paper's primary contribution, reproduced in Rust: a **modular,
//! scalable dataflow implementation of CNN inference** in the style of an
//! FPGA accelerator built from Streaming Stencil Timestep (SST) memory
//! systems and pipelined HLS compute cores.
//!
//! ## What lives here
//!
//! | Paper concept (§IV) | Module |
//! |---|---|
//! | FIFO channels between filters and cores | [`stream`] |
//! | SST *memory structure* (filter chains + window registers, full buffering) | [`sst`] |
//! | FM interleaving over ports, demux core, widened-filter adapter | [`port`] |
//! | One definition per layer kind (validation, II, compute, actor, HLS, cost), incl. the conv / sub-sampling / FC compute cores (Algorithm 1, Eq. 4) | [`model`] |
//! | Hardware-order numerics (tree adder, interleaved accumulators) | [`kernel`] |
//! | DMA source & score sink (the §V-A test harness) | [`endpoints`] |
//! | Network construction, port-width cases, FIFO sizing (§IV-C) | [`graph`] |
//! | Cycle-accurate execution, the Fig. 6 measurement | [`sim`] |
//! | Threaded streaming engine (one thread per layer, real pipelining) | [`exec`] |
//! | Functional verification against the `dfcnn-nn` reference | [`verify`] |
//! | Design-space exploration over port configurations (the paper's future work) | [`dse`] |
//! | Multi-FPGA pipeline partitioning (§VI future work) | [`multi`] |
//! | Static value-range analysis (saturation & accumulator proofs) | [`range`] |
//! | Event tracing, stall taxonomy, Perfetto export | [`trace`] |
//! | Flight-recorder analysis: drift & run reports | [`observe`] |
//! | Static design verifier (deadlock, buffers, rates, replication) | [`check`] |
//!
//! ## Two engines, one graph
//!
//! The same [`graph::NetworkDesign`] drives two executions:
//!
//! 1. [`sim::Simulator`] — a cycle-level model: every port moves at most one
//!    32-bit value per 100 MHz cycle, every compute core initiates at its
//!    Eq. 4 interval and carries its HLS pipeline depth, every FIFO applies
//!    backpressure. This produces Fig. 6 (mean time per image vs batch
//!    size) and the latency/throughput columns of Table II. Crucially it is
//!    also *functionally exact*: the values it computes use the hardware
//!    summation orders (tree adders, interleaved accumulators).
//! 2. [`exec::ThreadedEngine`] — one OS thread per layer connected by
//!    bounded channels, the same dataflow graph at image granularity. It
//!    computes bit-identical outputs (same [`kernel`] numerics) and
//!    demonstrates the high-level pipeline as real wall-clock speedup on
//!    batches.

pub mod check;
pub mod codegen;
pub mod dse;
pub mod endpoints;
pub mod exec;
pub mod flow;
pub mod graph;
pub mod kernel;
pub mod model;
pub mod multi;
pub mod observe;
pub mod port;
pub mod range;
pub mod sim;
pub mod sst;
pub mod stream;
pub mod trace;
pub mod verify;

pub use check::{
    check_design, check_drift, check_network, check_replication, CheckReport, DesignDiagnostic,
    RuleId, Severity,
};
pub use exec::{ExecResult, PipelineProfile, ReplicationPlan, StageProfile, ThreadedEngine};
pub use graph::{
    build_graph_design, DesignConfig, EdgeInfo, GraphBuilder, LayerPorts, NetworkDesign, NodeRef,
    PortConfig, StageInput, StageNode, Tap,
};
pub use model::{host_pipeline, reference_forward, HostStage};
pub use observe::live::{
    CellCounters, LiveMetrics, MetricCell, MetricUnit, MetricsSnapshot, Sampler, StageDelta,
};
pub use observe::{DriftReport, RunReport, SCHEMA_VERSION};
pub use range::{analyze, analyze_with, observe_ranges, recommend_frac, Interval, RangeReport};
pub use sim::{DeadlockReport, SimError, SimResult, Simulator};
