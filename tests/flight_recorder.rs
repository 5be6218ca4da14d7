//! Flight-recorder acceptance tests on the paper's two test cases.
//!
//! The stall taxonomy, the run report's drift columns and the Perfetto
//! export are only useful if they stay trustworthy, so this file pins
//! their contracts on the designs the paper actually measured:
//!
//! * **accounting identity** — every cycle of every actor is classified
//!   exactly once (`computing + idle + Σstarved + Σbackpressured ==
//!   total cycles`), so a stall report can never silently lose time;
//! * **model agreement** — [`check_drift`] finds nothing: every core's
//!   measured steady-state interval stays within tolerance of the Eq. 4
//!   pipeline interval, every FIFO high-water mark respects its capacity,
//!   and every line-buffer high-water mark respects the SST
//!   full-buffering bound;
//! * **report portability** — the [`RunReport`] serialises to JSON and
//!   parses back intact;
//! * **Perfetto schema** — the Chrome-trace export is valid JSON with one
//!   named track per actor and well-formed complete events, so the file
//!   actually loads in `ui.perfetto.dev`.

use dfcnn::core::check_drift;
use dfcnn::core::graph::{DesignConfig, NetworkDesign, PortConfig};
use dfcnn::core::observe::live::Sampler;
use dfcnn::core::observe::{RunReport, SCHEMA_VERSION};
use dfcnn::core::trace::Stall;
use dfcnn::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;
use std::rc::Rc;

fn tc1() -> (NetworkDesign, Vec<Tensor3<f32>>) {
    let mut rng = ChaCha8Rng::seed_from_u64(61);
    let net = NetworkSpec::test_case_1().build(&mut rng);
    let design = NetworkDesign::new(
        &net,
        PortConfig::paper_test_case_1(),
        DesignConfig::default(),
    )
    .unwrap();
    let mut gen = SyntheticUsps::new(62);
    let images = gen.generate(8).into_iter().map(|(x, _)| x).collect();
    (design, images)
}

fn tc2() -> (NetworkDesign, Vec<Tensor3<f32>>) {
    let mut rng = ChaCha8Rng::seed_from_u64(63);
    let net = NetworkSpec::test_case_2().build(&mut rng);
    let design = NetworkDesign::new(
        &net,
        PortConfig::paper_test_case_2(),
        DesignConfig::default(),
    )
    .unwrap();
    let mut gen = SyntheticCifar::new(64);
    let images = gen.generate(4).into_iter().map(|(x, _)| x).collect();
    (design, images)
}

/// The shared acceptance contract: run one traced batch and check the
/// whole observability chain end to end.
fn assert_flight_recording_sound(design: &NetworkDesign, images: &[Tensor3<f32>]) {
    let (res, trace) = design.instantiate(images).with_trace().run();
    assert_eq!(res.outputs.len(), images.len());

    // 1. accounting identity: no actor's time is ever lost or
    //    double-counted, bottleneck or not
    assert_eq!(res.stalls.len(), res.actor_stats.len());
    for s in &res.stalls {
        assert_eq!(
            s.computing + s.idle + s.starved_total() + s.backpressured_total(),
            res.cycles,
            "stall accounting identity violated for {}",
            s.name
        );
    }

    // 2. the pipeline converges on the predicted bottleneck: every
    //    non-bottleneck core spends cycles stalled (the §IV-C claim that
    //    faster stages wait for the slowest), and the cores that compute
    //    are the cores that stall — the attributions are consistent
    let (bottleneck, _) = design.estimated_bottleneck();
    for s in &res.stalls {
        if s.computing > 0 && s.name != bottleneck {
            assert!(
                s.starved_total() + s.backpressured_total() + s.idle > 0,
                "{}: active but never stalled in a pipeline bottlenecked by {}",
                s.name,
                bottleneck
            );
        }
    }

    // 3. model agreement: measured IIs within Eq. 4, occupancy HWMs
    //    within their bounds
    let report = RunReport::from_sim(design, &res, &trace);
    let measured: Vec<_> = report
        .stages
        .iter()
        .filter(|s| s.measured_interval.is_some())
        .collect();
    assert!(
        !measured.is_empty(),
        "run report found no cores with steady-state estimates"
    );
    for name in design.cores().iter().map(|c| c.name.as_str()) {
        assert!(
            measured.iter().any(|s| s.name == name),
            "core {name} missing from the run report's measured rows"
        );
    }
    let diags = check_drift(design, &report);
    assert!(diags.is_empty(), "drift check failed: {diags:?}");

    // 4. the unified run report round-trips through JSON
    assert_eq!(report.engine, "cycle-sim");
    assert_eq!(report.batch, images.len());
    let json = serde_json::to_string(&report).unwrap();
    let back: RunReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back.stages.len(), report.stages.len());
    for (a, b) in back.stages.iter().zip(report.stages.iter()) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.service_ns, b.service_ns);
    }
}

#[test]
fn test_case_1_flight_recording_is_sound() {
    let (design, images) = tc1();
    assert_flight_recording_sound(&design, &images);
}

#[test]
fn test_case_2_flight_recording_is_sound() {
    let (design, images) = tc2();
    assert_flight_recording_sound(&design, &images);
}

/// The Perfetto/Chrome-trace export for Test Case 1 must be valid JSON in
/// the trace-event schema: a `traceEvents` array holding one `M`
/// (thread_name metadata) record per actor track plus `X` complete events
/// with `ts`/`dur` and a `compute`/`stall` category.
#[test]
fn test_case_1_perfetto_export_validates() {
    let (design, images) = tc1();
    let (res, trace) = design.instantiate(&images).with_trace().run();
    assert!(res.cycles > 0);
    let json = trace.to_chrome_json(design.config().clock_hz);
    let root: serde::Value = serde_json::from_str(&json).unwrap();

    let serde::Value::Seq(events) = root.field("traceEvents").unwrap() else {
        panic!("traceEvents is not an array");
    };
    assert!(matches!(
        root.field("displayTimeUnit").unwrap(),
        serde::Value::Str(_)
    ));

    let mut tracks = 0usize;
    let mut slices = 0usize;
    for ev in events {
        let serde::Value::Str(ph) = ev.field("ph").unwrap() else {
            panic!("ph is not a string");
        };
        ev.field("pid").unwrap();
        ev.field("tid").unwrap();
        match ph.as_str() {
            "M" => {
                // track metadata names the actor
                let name = ev.field("args").unwrap().field("name").unwrap();
                assert!(matches!(name, serde::Value::Str(s) if !s.is_empty()));
                tracks += 1;
            }
            "X" => {
                // complete events carry a start, a duration and a category
                assert!(matches!(ev.field("ts").unwrap(), serde::Value::F64(_)));
                let serde::Value::F64(dur) = ev.field("dur").unwrap() else {
                    panic!("dur is not a number");
                };
                assert!(*dur > 0.0, "zero-length slice");
                let serde::Value::Str(cat) = ev.field("cat").unwrap() else {
                    panic!("cat is not a string");
                };
                assert!(cat == "compute" || cat == "stall", "category {cat}");
                slices += 1;
            }
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    // one named track per actor, and real content on them
    assert_eq!(tracks, trace.stall_tracks().len());
    assert_eq!(tracks, res.actor_stats.len());
    assert!(slices > tracks, "expected multiple slices per track");

    // idle spans are omitted from the export by design; everything else
    // must be represented
    let expected: usize = trace
        .stall_tracks()
        .iter()
        .map(|(_, spans)| spans.iter().filter(|s| s.class != Stall::Idle).count())
        .sum();
    assert_eq!(slices, expected);
}

/// Every serialised observability record carries the schema version, and
/// it survives the round trip — the contract exporter consumers pin
/// against before parsing anything else.
#[test]
fn reports_carry_the_schema_version() {
    let (design, images) = tc1();
    let (res, trace) = design.instantiate(&images).with_trace().run();

    let report = RunReport::from_sim(&design, &res, &trace);
    assert_eq!(report.schema_version, SCHEMA_VERSION);
    let json = serde_json::to_string(&report).unwrap();
    assert!(json.contains("\"schema_version\""));
    let back: RunReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back.schema_version, SCHEMA_VERSION);
}

/// The live counter tracks exported alongside the stall spans: one `C`
/// (counter) event per stage per snapshot, named `telemetry:<stage>`,
/// category `telemetry`, args carrying the *cumulative* `items` and
/// `stalled` values so Perfetto renders monotone counter tracks. The
/// span/metadata schema of the base export is unchanged.
#[test]
fn perfetto_counter_tracks_follow_the_schema() {
    let (design, images) = tc1();
    let sim = design.instantiate(&images).with_trace();
    let live = sim.live_metrics();
    let sampler = Rc::new(RefCell::new(Sampler::new(live.clone())));
    let (res, trace) = sim.with_sampler(sampler.clone(), 256).run();
    let snaps = Rc::try_unwrap(sampler)
        .unwrap()
        .into_inner()
        .into_snapshots();
    assert!(snaps.len() >= 2, "need mid-run snapshots plus the flush");

    let json = trace.to_chrome_json_with_metrics(design.config().clock_hz, &snaps);
    let root: serde::Value = serde_json::from_str(&json).unwrap();
    let serde::Value::Seq(events) = root.field("traceEvents").unwrap() else {
        panic!("traceEvents is not an array");
    };

    let mut counters = 0usize;
    let mut last_items: std::collections::HashMap<String, u64> = Default::default();
    let mut others = 0usize;
    for ev in events {
        let serde::Value::Str(ph) = ev.field("ph").unwrap() else {
            panic!("ph is not a string");
        };
        if ph != "C" {
            others += 1;
            continue;
        }
        let serde::Value::Str(name) = ev.field("name").unwrap() else {
            panic!("counter name is not a string");
        };
        let stage = name
            .strip_prefix("telemetry:")
            .unwrap_or_else(|| panic!("counter name {name:?} lacks the telemetry: prefix"));
        assert!(
            matches!(ev.field("cat").unwrap(), serde::Value::Str(c) if c == "telemetry"),
            "counter category"
        );
        assert!(matches!(ev.field("ts").unwrap(), serde::Value::F64(_)));
        let args = ev.field("args").unwrap();
        let serde::Value::U64(items) = args.field("items").unwrap() else {
            panic!("args.items is not a u64");
        };
        assert!(matches!(
            args.field("stalled").unwrap(),
            serde::Value::U64(_)
        ));
        // cumulative: per-stage counter values never decrease over time
        let prev = last_items.insert(stage.to_string(), *items);
        assert!(prev.unwrap_or(0) <= *items, "items regressed for {stage}");
        counters += 1;
    }
    assert_eq!(
        counters,
        snaps.len() * res.actor_stats.len(),
        "one counter event per stage per snapshot"
    );
    assert!(others > 0, "span/metadata events must still be exported");
    // the final cumulative counter equals the run's initiation total
    for (i, stats) in res.actor_stats.iter().enumerate() {
        assert_eq!(
            last_items.get(&stats.name).copied().unwrap_or(0),
            stats.initiations,
            "final counter for {} (cell {i})",
            stats.name
        );
    }
}
