//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--out <dir>] [--commit <id>]`
//!
//! With `--trace 0` it measures the end-to-end metrics; with `--trace 1`
//! the per-layer metrics. The last line of standard output is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. With
//! `--out`, the full record (provenance, sample counts, notes) and, for a
//! traced run, every span are written there too.

use perfbench::measure::{run_end_to_end, HOST_BATCH};
use perfbench::report::{provenance, record, result_line, Metric};
use perfbench::traced::run_traced;
use perfbench::workload::{workload, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: None,
        commit: "unknown".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--commit" => args.commit = value()?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload(&args.workload) else {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload {:?}; one of {names:?}",
            args.workload
        );
        return ExitCode::from(2);
    };
    let prov = provenance(&w, args.seed, args.seconds, args.trace, &args.commit);
    for (k, v) in &prov {
        println!("# {k}: {v}");
    }
    let stem = format!("{}-seed{}-trace{}", w.name, args.seed, u8::from(args.trace));
    if let Some(dir) = &args.out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("perfbench: creating {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }

    let (metrics, gate, mut notes) = if args.trace {
        let spans = args
            .out
            .as_ref()
            .map(|d| d.join(format!("{stem}.spans.jsonl")));
        let t = match run_traced(&w, args.seed, args.seconds, spans.as_deref()) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut notes = t.notes;
        notes.push(format!(
            "exact: sim_us_per_img {} cycles {} initiations {} stalls {:?} digest {:016x}",
            t.exact.sim_us_per_img,
            t.exact.cycles,
            t.exact.initiations,
            t.exact.stalls,
            t.exact.digest
        ));
        (t.metrics, t.gate, notes)
    } else {
        let e = match run_end_to_end(&w, args.seed, args.seconds) {
            Ok(e) => e,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        };
        let metrics = vec![
            Metric::new("host_img_per_s", "img/s", e.host_img_per_s, e.host_calls.0),
            Metric::new("host_lat_p50_us", "us", e.host_lat_p50_us, e.host_images),
            Metric::new("host_lat_tail_us", "us", e.host_lat_tail_us, e.host_images),
            Metric::new(
                "sim_mcycles_per_s",
                "Mcycles/s",
                e.sim_mcycles_per_s,
                e.sim_runs.0,
            ),
            Metric::new("setup_s", "s", e.setup_s, e.setups),
            Metric::new("peak_rss_mb", "MB", e.peak_rss_mb, 1),
        ];
        let mut notes = vec![
            format!(
                "host: closed loop, {} of {} run_sequential calls of {HOST_BATCH} images ran \
                 uncontended; tail = p{} of {} per-image gaps",
                e.host_calls.0, e.host_calls.1, e.host_tail_pct, e.host_images
            ),
            format!(
                "sim: {} of {} event-scheduler runs of {} images ran uncontended, {} cycles each",
                e.sim_runs.0, e.sim_runs.1, w.sim_batch, e.sim_cycles
            ),
            format!(
                "machine: uncontended {:.3}x the nominal calibration time; unscaled over all \
                 calls host_img_per_s {:.3}, sim_mcycles_per_s {:.4}",
                e.slowdown, e.raw_host_img_per_s, e.raw_sim_mcycles_per_s
            ),
        ];
        notes.push(format!(
            "sim_us_per_img {} us: simulated time per image at batch {}, a model output \
             that repeats exactly (so it is printed here, not bounded); {}",
            e.sim_us_per_img,
            w.sim_batch,
            match w.paper_us_per_img {
                Some(paper) => format!(
                    "the paper's Table II gives {paper} us: error {:+.1}%",
                    100.0 * (e.sim_us_per_img - paper) / paper
                ),
                None => "unvalidated: the paper reports no figure for this network".to_string(),
            }
        ));
        (metrics, e.gate, notes)
    };

    let finite = metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        notes.push("a metric is not a finite number".to_string());
    }
    let correct = gate.failed == 0 && finite;
    notes.extend(gate.notes.iter().cloned());
    for m in &metrics {
        println!(
            "{:<34} {:>16.6} {:<10} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "failed images: {} of {} attempted",
        gate.failed, gate.attempted
    );
    for n in &notes {
        println!("# {n}");
    }
    if let Some(dir) = &args.out {
        let rec = record(
            &prov,
            &metrics,
            correct,
            gate.attempted,
            gate.failed,
            &notes,
        );
        let path = dir.join(format!("{stem}.json"));
        let text = serde_json::to_string_pretty(&rec).expect("a Value always renders");
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }
    println!(
        "{}",
        result_line(&metrics, correct, gate.attempted, gate.failed)
    );
    ExitCode::SUCCESS
}
