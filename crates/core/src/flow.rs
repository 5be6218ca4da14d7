//! The automated design flow — §VI: "As last piece of future work, we
//! envision the development of an automated design flow and its
//! integration into industry-standard frameworks."
//!
//! [`compile`] is that flow as one function: trained network in, deployable
//! accelerator out.
//!
//! 1. **DSE** ([`crate::dse`]): explore the port-configuration space under
//!    the device's resource budget and pick the fastest feasible design
//!    (or a user-pinned [`PortConfig`]).
//! 2. **Feasibility / partitioning** ([`crate::multi`]): if even the
//!    single-port design exceeds one device, partition the pipeline across
//!    a multi-FPGA chain.
//! 3. **Reporting**: resources, utilisation, analytical bottleneck,
//!    projected throughput.
//! 4. **Code generation** ([`crate::codegen`]): the Vivado-HLS project for
//!    the chosen design.

use crate::codegen::{generate, GeneratedProject};
use crate::dse;
use crate::graph::{DesignConfig, NetworkDesign, PortConfig};
use crate::multi::{partition, LinkConfig, MultiFpgaPlan};
use dfcnn_fpga::device::Device;
use dfcnn_fpga::resources::{CostModel, Resources};
use dfcnn_nn::topology::GraphSpec;
use dfcnn_nn::Network;

/// Constraints handed to the flow.
#[derive(Clone, Debug)]
pub struct FlowConstraints {
    /// Target device (per board).
    pub device: Device,
    /// Resource cost model (precision choice lives here).
    pub cost: CostModel,
    /// Inter-board link, used only if partitioning is needed.
    pub link: LinkConfig,
    /// Cap on per-layer port counts explored by the DSE.
    pub max_ports: usize,
    /// Pin the port configuration instead of running DSE.
    pub fixed_ports: Option<PortConfig>,
}

impl Default for FlowConstraints {
    fn default() -> Self {
        FlowConstraints {
            device: Device::xc7vx485t(),
            cost: CostModel::default(),
            link: LinkConfig::aurora_like(),
            max_ports: 8,
            fixed_ports: None,
        }
    }
}

/// The flow's output.
#[derive(Debug)]
pub struct CompiledDesign {
    /// The chosen design.
    pub design: NetworkDesign,
    /// Its resource usage on one device.
    pub resources: Resources,
    /// Single-device fit; when `false`, `plan` holds the multi-FPGA split.
    pub fits_single_device: bool,
    /// Multi-FPGA placement (always computed; 1 segment when it fits).
    pub plan: MultiFpgaPlan,
    /// Analytical bottleneck `(stage, cycles/image)`.
    pub bottleneck: (String, u64),
    /// Projected steady-state throughput at the design clock.
    pub images_per_second: f64,
    /// The generated Vivado-HLS project.
    pub hls_project: GeneratedProject,
    /// How the ports were chosen.
    pub chosen_by: &'static str,
}

impl CompiledDesign {
    /// One-paragraph compilation report.
    pub fn report(&self) -> String {
        format!(
            "{}\nports chosen by {}; {} device(s); bottleneck {} @ {} cycles/image; \
             projected {:.0} images/s; HLS project: {} files, {} bytes\n{}",
            self.design.render_block_diagram(),
            self.chosen_by,
            self.plan.device_count(),
            self.bottleneck.0,
            self.bottleneck.1,
            self.images_per_second,
            self.hls_project.files.len(),
            self.hls_project.total_bytes(),
            self.plan.render(),
        )
    }
}

/// Run the flow.
///
/// # Errors
/// If no feasible design exists even on a multi-FPGA chain (a single core
/// exceeding one device at the requested precision).
pub fn compile(
    network: &Network,
    config: &DesignConfig,
    constraints: &FlowConstraints,
) -> Result<CompiledDesign, String> {
    // 1. choose ports
    let (ports, chosen_by) = if let Some(p) = &constraints.fixed_ports {
        (p.clone(), "user pin")
    } else {
        let report = dse::explore(
            &GraphSpec::from(network),
            network.layers(),
            config,
            &constraints.cost,
            &constraints.device,
            constraints.max_ports,
            &[config.numeric],
            true,
        )
        .map_err(|e| e.to_string())?;
        match report.best_point() {
            Some(best) => (best.ports.clone(), "design-space exploration"),
            None => {
                // nothing fits one device: fall back to single-port and
                // let the partitioner spread it
                (
                    PortConfig::single_port(crate::model::paper_layer_count(network)),
                    "fallback: single-port + multi-FPGA partitioning",
                )
            }
        }
    };
    let design = NetworkDesign::new(network, ports, *config)?;

    // 2. feasibility and (if needed) partitioning
    let resources = design.resources(&constraints.cost);
    let fits = constraints.device.fits(&resources);
    let plan = partition(
        &design,
        &constraints.cost,
        &constraints.device,
        &constraints.link,
    )?;

    // 3. bottleneck & throughput
    let bottleneck = plan.bottleneck.clone();
    let images_per_second = design.config().clock_hz as f64 / bottleneck.1 as f64;

    // 4. codegen
    let hls_project = generate(&design);

    Ok(CompiledDesign {
        design,
        resources,
        fits_single_device: fits,
        plan,
        bottleneck,
        images_per_second,
        hls_project,
        chosen_by,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfcnn_nn::topology::NetworkSpec;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn net(spec: NetworkSpec, seed: u64) -> Network {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        spec.build(&mut rng)
    }

    #[test]
    fn tc1_compiles_to_a_fast_single_device_design() {
        let network = net(NetworkSpec::test_case_1(), 1);
        let out = compile(
            &network,
            &DesignConfig::default(),
            &FlowConstraints::default(),
        )
        .unwrap();
        assert!(out.fits_single_device);
        assert_eq!(out.plan.device_count(), 1);
        assert_eq!(out.chosen_by, "design-space exploration");
        // DSE must reach the input-stream bound (256 cycles)
        assert_eq!(out.bottleneck.1, 256, "{:?}", out.bottleneck);
        assert!(out.hls_project.file("top.cpp").is_some());
        assert!(out.report().contains("images/s"));
    }

    #[test]
    fn pinned_ports_are_respected() {
        let network = net(NetworkSpec::test_case_1(), 2);
        let constraints = FlowConstraints {
            fixed_ports: Some(PortConfig::paper_test_case_1()),
            ..Default::default()
        };
        let out = compile(&network, &DesignConfig::default(), &constraints).unwrap();
        assert_eq!(out.chosen_by, "user pin");
        assert_eq!(out.design.ports(), &PortConfig::paper_test_case_1());
    }

    #[test]
    fn alexnet_falls_back_to_multi_fpga() {
        let network = net(NetworkSpec::alexnet_tiny(), 3);
        let out = compile(
            &network,
            &DesignConfig::default(),
            &FlowConstraints {
                max_ports: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!out.fits_single_device);
        assert!(out.plan.device_count() >= 2);
        assert!(out.chosen_by.contains("fallback"));
    }

    #[test]
    fn vgg_f32_fails_with_actionable_error() {
        let network = net(NetworkSpec::vgg_tiny(), 4);
        let err = compile(
            &network,
            &DesignConfig::default(),
            &FlowConstraints {
                max_ports: 2,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(err.contains("reduce precision"), "{err}");
        // and the suggested fix works
        let out = compile(
            &network,
            &DesignConfig::default(),
            &FlowConstraints {
                cost: CostModel::fixed_point(),
                max_ports: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(out.plan.device_count() >= 1);
    }
}
