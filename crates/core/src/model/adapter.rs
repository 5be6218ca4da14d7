//! The port-width adapter kinds (§IV-A cases 2 and 3): the demux routing
//! core (`OUT_PORTS(i-1) < IN_PORTS(i)`) and the widened-filter merge
//! (`OUT_PORTS(i-1) > IN_PORTS(i)`). Adapters have no backing network
//! layer — they are inserted by the graph builder at port mismatches via
//! `plan_between` — and no host pipeline stage (pure port plumbing with
//! no image-level effect).

use super::{CoreModel, CorePlan};
use crate::graph::{CoreInfo, DesignConfig, LayerPorts, NetworkDesign};
use crate::port::Router;
use crate::sim::Actor;
use crate::stream::ChannelId;
use dfcnn_fpga::resources::{CoreKind, CoreParams};
use dfcnn_nn::layer::Layer;
use std::fmt::Write as _;

/// The demux routing core's [`CoreModel`].
pub struct DemuxModel;

/// The widened-filter merge adapter's [`CoreModel`].
pub struct WidenModel;

/// The adapter needed between a producer emitting on `prev_out` ports and
/// a consumer reading `in_ports` ports over `in_fm` interleaved FMs, or
/// `None` when the widths already match. `in_values` is the boundary's
/// per-image stream volume; `index` numbers the core in pipeline order.
pub(crate) fn plan_between(
    prev_out: usize,
    in_ports: usize,
    in_fm: usize,
    in_values: u64,
    index: usize,
) -> Option<CoreInfo> {
    if prev_out == in_ports {
        return None;
    }
    let model: &'static dyn CoreModel = if prev_out < in_ports {
        &super::DEMUX_MODEL
    } else {
        &super::WIDEN_MODEL
    };
    Some(CoreInfo {
        name: format!("{}{}", model.label(), index),
        params: CoreParams {
            kind: model.kind(),
            in_fm,
            out_fm: in_fm,
            in_ports: prev_out,
            out_ports: in_ports,
            kh: 1,
            kw: 1,
            image_w: 1,
            ii: 1,
            weights: 0,
            accumulators: 1,
        },
        layer_index: None,
        in_values_per_image: in_values,
        positions: 0,
    })
}

fn adapter_interval(core: &CoreInfo) -> u64 {
    // the adapter moves the whole boundary stream through its narrower
    // side at one value per port per cycle
    let p = &core.params;
    core.in_values_per_image / p.in_ports.min(p.out_ports) as u64
}

fn adapter_block_label(core: &CoreInfo) -> String {
    format!(
        "[{} {}to{}]",
        core.name, core.params.in_ports, core.params.out_ports
    )
}

fn adapter_actor(
    core: &CoreInfo,
    in_chs: Vec<ChannelId>,
    out_chs: Vec<ChannelId>,
) -> Box<dyn Actor> {
    Box::new(Router::adapter(
        core.name.clone(),
        in_chs,
        out_chs,
        core.params.in_fm,
    ))
}

fn adapter_cpp(design: &NetworkDesign, idx: usize, what: &str) -> String {
    use crate::codegen::{header, interface_pragmas, stream_args};
    let info = &design.cores()[idx];
    let p = &info.params;
    let mut s = header();
    let _ = write!(
        s,
        "// {what}\n\
         void {name}({ins}, {outs}) {{\n{ipr}{opr}\
         \x20   route: for (int f = 0; ; f = (f + 1) % {fm}) {{\n\
         #pragma HLS PIPELINE II=1\n\
         \x20       forward(f % {ip}, f % {op});\n\
         \x20   }}\n\
         }}\n",
        what = what,
        name = info.name,
        ins = stream_args("in", p.in_ports),
        outs = stream_args("out", p.out_ports),
        ipr = interface_pragmas("in", p.in_ports),
        opr = interface_pragmas("out", p.out_ports),
        fm = p.in_fm,
        ip = p.in_ports,
        op = p.out_ports,
    );
    s
}

impl CoreModel for DemuxModel {
    fn kind(&self) -> CoreKind {
        CoreKind::Demux
    }

    fn label(&self) -> &'static str {
        "demux"
    }

    fn feature_maps(&self, _layer: &Layer) -> (usize, usize) {
        unreachable!("adapters are planned from port boundaries, not layers")
    }

    fn plan(&self, _layer: &Layer, _lp: LayerPorts, _config: &DesignConfig) -> CorePlan {
        unreachable!("adapters are planned from port boundaries, not layers")
    }

    fn estimate_interval(&self, core: &CoreInfo, _config: &DesignConfig) -> u64 {
        adapter_interval(core)
    }

    fn block_label(&self, core: &CoreInfo) -> String {
        adapter_block_label(core)
    }

    fn make_actor(
        &self,
        _design: &NetworkDesign,
        core: &CoreInfo,
        in_chs: Vec<ChannelId>,
        out_chs: Vec<ChannelId>,
    ) -> Box<dyn Actor> {
        adapter_actor(core, in_chs, out_chs)
    }

    fn emit_cpp(&self, design: &NetworkDesign, idx: usize) -> String {
        adapter_cpp(
            design,
            idx,
            "demux core: routes values to the proper input port of the next\n\
             // layer according to how the FMs are interleaved (SIV-A case 2)",
        )
    }
}

impl CoreModel for WidenModel {
    fn kind(&self) -> CoreKind {
        CoreKind::Widen
    }

    fn label(&self) -> &'static str {
        "widen"
    }

    fn feature_maps(&self, _layer: &Layer) -> (usize, usize) {
        unreachable!("adapters are planned from port boundaries, not layers")
    }

    fn plan(&self, _layer: &Layer, _lp: LayerPorts, _config: &DesignConfig) -> CorePlan {
        unreachable!("adapters are planned from port boundaries, not layers")
    }

    fn estimate_interval(&self, core: &CoreInfo, _config: &DesignConfig) -> u64 {
        adapter_interval(core)
    }

    fn block_label(&self, core: &CoreInfo) -> String {
        adapter_block_label(core)
    }

    fn make_actor(
        &self,
        _design: &NetworkDesign,
        core: &CoreInfo,
        in_chs: Vec<ChannelId>,
        out_chs: Vec<ChannelId>,
    ) -> Box<dyn Actor> {
        adapter_actor(core, in_chs, out_chs)
    }

    fn emit_cpp(&self, design: &NetworkDesign, idx: usize) -> String {
        adapter_cpp(
            design,
            idx,
            "widened-filter merge: cycles the reads from the previous layer's\n\
             // output ports (SIV-A case 3)",
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_between_picks_the_direction() {
        assert!(plan_between(6, 6, 6, 100, 1).is_none());
        let demux = plan_between(1, 6, 6, 100, 2).unwrap();
        assert_eq!(demux.params.kind, CoreKind::Demux);
        assert_eq!(demux.name, "demux2");
        let widen = plan_between(6, 1, 6, 100, 3).unwrap();
        assert_eq!(widen.name, "widen3");
        assert_eq!(widen.params.in_ports, 6);
        assert_eq!(widen.params.out_ports, 1);
        assert!(widen.layer_index.is_none());
    }

    #[test]
    fn adapter_interval_uses_narrow_side() {
        let a = plan_between(6, 1, 6, 600, 0).unwrap();
        assert_eq!(adapter_interval(&a), 600);
        let b = plan_between(2, 6, 6, 600, 0).unwrap();
        assert_eq!(adapter_interval(&b), 300);
    }
}
