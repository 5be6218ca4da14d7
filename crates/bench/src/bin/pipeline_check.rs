//! Static design verification from the command line: run the
//! [`dfcnn_core::check`] rules over the paper's designs and the whole DSE
//! candidate space, before (and instead of) simulating a single cycle.
//!
//! Three passes, each a gate:
//!
//! 1. **Paper designs** — both test cases must check clean (no errors,
//!    no warnings): the configurations the paper synthesised are exactly
//!    the ones the verifier proves safe.
//! 2. **DSE sweep** — every enumerated TC1 port configuration must check
//!    clean; the explorer relies on the verifier to discard broken
//!    candidates, so a dirty candidate here means the enumeration and
//!    the rules disagree.
//! 3. **Seeded fault** — a deliberately undersized line buffer must be
//!    *rejected* (`buffer-sufficiency`), demonstrating the failure
//!    rendering and guarding against a verifier that rubber-stamps
//!    everything.
//!
//! Exits non-zero on any gate failure, so CI can run it as a check step.
//! Writes `results/pipeline_check.json`.
//!
//! ```text
//! cargo run -p dfcnn-bench --release --bin pipeline_check
//! ```

use dfcnn_bench::{quick_test_case_1, quick_test_case_2, write_json};
use dfcnn_core::check::{check_design, RuleId, Severity};
use dfcnn_core::dse;
use dfcnn_core::graph::{DesignConfig, NetworkDesign};
use dfcnn_nn::topology::GraphSpec;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    design: String,
    errors: usize,
    warnings: usize,
    diagnostics: Vec<String>,
}

fn main() {
    let mut rows = Vec::new();
    let mut failed = false;

    // gate 1: the paper's own designs prove safe, with nothing to waste
    for tc in [quick_test_case_1(), quick_test_case_2()] {
        let report = check_design(&tc.design);
        println!("{}\n{}", tc.name, report.render());
        if !report.is_clean() || !report.warnings().is_empty() {
            eprintln!("FAIL: {} must check clean with no warnings", tc.name);
            failed = true;
        }
        rows.push(Row {
            design: tc.name.to_string(),
            errors: report.errors().len(),
            warnings: report.warnings().len(),
            diagnostics: report.diagnostics.iter().map(|d| d.to_string()).collect(),
        });
    }

    // gate 2: the full TC1 candidate space the explorer would walk
    let tc1 = quick_test_case_1();
    let configs = dse::enumerate_configs(&GraphSpec::from(&tc1.network), tc1.network.layers(), 6)
        .expect("a chain spec matches its own layers");
    let total = configs.len();
    let mut dirty = 0usize;
    for ports in configs {
        let design = NetworkDesign::new(&tc1.network, ports.clone(), DesignConfig::default())
            .expect("enumerated configs are valid");
        let report = check_design(&design);
        if !report.is_clean() {
            eprintln!("FAIL: DSE candidate {ports:?}\n{}", report.render());
            dirty += 1;
        }
    }
    println!(
        "DSE sweep: {}/{} candidates check clean\n",
        total - dirty,
        total
    );
    if dirty > 0 {
        failed = true;
    }
    rows.push(Row {
        design: format!("dse sweep ({total} candidates)"),
        errors: dirty,
        warnings: 0,
        diagnostics: Vec::new(),
    });

    // gate 3: the verifier must reject a seeded fault, not rubber-stamp it
    let broken_cfg = DesignConfig {
        line_buffer_cap: Some(4),
        ..DesignConfig::default()
    };
    let broken = NetworkDesign::new(
        &tc1.network,
        dfcnn_core::graph::PortConfig::paper_test_case_1(),
        broken_cfg,
    )
    .unwrap();
    let report = check_design(&broken);
    println!("seeded fault (line_buffer_cap = 4)\n{}", report.render());
    if !report.has(Severity::Error, RuleId::BufferSufficiency) {
        eprintln!("FAIL: the undersized line buffer was not rejected");
        failed = true;
    }
    rows.push(Row {
        design: "seeded fault (line_buffer_cap = 4)".to_string(),
        errors: report.errors().len(),
        warnings: report.warnings().len(),
        diagnostics: report.diagnostics.iter().map(|d| d.to_string()).collect(),
    });

    write_json("pipeline_check", &rows);
    if failed {
        std::process::exit(1);
    }
    println!("pipeline_check: all gates passed");
}
