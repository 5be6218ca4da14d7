//! The port-width adapter kinds (§IV-A cases 2 and 3): the demux routing
//! core (`OUT_PORTS(i-1) < IN_PORTS(i)`) and the widened-filter merge
//! (`OUT_PORTS(i-1) > IN_PORTS(i)`). Adapters have no backing network
//! layer — they are inserted by the graph builder at port mismatches via
//! `plan_between` — and no host pipeline stage (pure port plumbing with
//! no image-level effect).

use super::CoreModel;
use crate::graph::{CoreInfo, DesignConfig, NetworkDesign};
use crate::port::{Adapt, IdentityMap, Router};
use crate::sim::Actor;
use crate::stream::ChannelId;
use dfcnn_fpga::resources::{CoreKind, CoreParams};
use std::fmt::Write as _;

/// The [`CoreModel`] of both adapter directions: the demux routing core
/// and the widened-filter merge differ only in their kind, label and
/// emitted comment.
pub struct AdapterModel {
    kind: CoreKind,
    label: &'static str,
    /// The emitted C++ translation unit's leading comment.
    what: &'static str,
}

impl AdapterModel {
    /// The demux routing core (§IV-A case 2).
    pub const DEMUX: AdapterModel = AdapterModel {
        kind: CoreKind::Demux,
        label: "demux",
        what: "demux core: routes values to the proper input port of the next\n\
               // layer according to how the FMs are interleaved (SIV-A case 2)",
    };

    /// The widened-filter merge (§IV-A case 3).
    pub const WIDEN: AdapterModel = AdapterModel {
        kind: CoreKind::Widen,
        label: "widen",
        what: "widened-filter merge: cycles the reads from the previous layer's\n\
               // output ports (SIV-A case 3)",
    };
}

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
    let model = if prev_out < in_ports {
        &super::DEMUX_MODEL
    } else {
        &super::WIDEN_MODEL
    };
    Some(CoreInfo {
        name: format!("{}{}", model.label, index),
        params: CoreParams {
            kind: model.kind,
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

impl CoreModel for AdapterModel {
    fn kind(&self) -> CoreKind {
        self.kind
    }

    fn label(&self) -> &'static str {
        self.label
    }

    fn estimate_interval(&self, core: &CoreInfo, _config: &DesignConfig) -> u64 {
        // the adapter moves the whole boundary stream through its narrower
        // side at one value per port per cycle
        let p = &core.params;
        core.in_values_per_image / p.in_ports.min(p.out_ports) as u64
    }

    fn block_label(&self, core: &CoreInfo) -> String {
        format!(
            "[{} {}to{}]",
            core.name, core.params.in_ports, core.params.out_ports
        )
    }

    fn make_actor(
        &self,
        _design: &NetworkDesign,
        core: &CoreInfo,
        in_chs: Vec<ChannelId>,
        out_chs: Vec<ChannelId>,
    ) -> Box<dyn Actor> {
        let fm = core.params.in_fm;
        let route = Adapt::new(in_chs.len(), out_chs.len(), fm, IdentityMap);
        Box::new(Router::new(core.name.clone(), in_chs, out_chs, fm, route))
    }

    fn emit_cpp(&self, design: &NetworkDesign, idx: usize) -> String {
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
            what = self.what,
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
        let config = DesignConfig::default();
        let a = plan_between(6, 1, 6, 600, 0).unwrap();
        assert_eq!(AdapterModel::WIDEN.estimate_interval(&a, &config), 600);
        let b = plan_between(2, 6, 6, 600, 0).unwrap();
        assert_eq!(AdapterModel::DEMUX.estimate_interval(&b, &config), 300);
    }
}
