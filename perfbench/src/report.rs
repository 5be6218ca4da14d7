//! Provenance, the human-readable report, and the result line.

use crate::workload::Workload;
use serde::Value;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Value as measured.
    pub value: f64,
    /// Samples behind the value (1 for a single exact figure).
    pub samples: usize,
}

impl Metric {
    /// A metric from its parts.
    pub fn new(name: &str, unit: &str, value: f64, samples: usize) -> Self {
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            samples,
        }
    }
}

/// Where and how a result was produced.
pub fn provenance(
    w: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    commit: &str,
) -> Vec<(String, String)> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustflags = env!("PERFBENCH_RUSTFLAGS");
    [
        ("workload", w.name.to_string()),
        ("seed", seed.to_string()),
        ("numeric", w.numeric.label()),
        ("dma_mb_s", w.dma_mb_s.to_string()),
        ("seconds", seconds.to_string()),
        ("trace", u8::from(trace).to_string()),
        ("host_threads", threads.to_string()),
        ("cpu_model", cpu),
        ("rustc", env!("PERFBENCH_RUSTC_VERSION").to_string()),
        ("rustflags", rustflags.to_string()),
        (
            "target_cpu_native",
            rustflags.contains("target-cpu=native").to_string(),
        ),
        ("commit", commit.to_string()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

/// The metrics as a JSON map of `{value, unit}`, plus `samples` when
/// asked for.
fn metric_map(metrics: &[Metric], samples: bool) -> Value {
    Value::Map(
        metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("value".to_string(), Value::F64(m.value)),
                    ("unit".to_string(), Value::Str(m.unit.clone())),
                ];
                if samples {
                    fields.push(("samples".to_string(), Value::U64(m.samples as u64)));
                }
                (m.name.clone(), Value::Map(fields))
            })
            .collect(),
    )
}

/// The full result record written beside the spans.
pub fn record(
    provenance: &[(String, String)],
    metrics: &[Metric],
    correct: bool,
    attempted: u64,
    failed: u64,
    notes: &[String],
) -> Value {
    let provenance = provenance
        .iter()
        .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
        .collect();
    Value::Map(vec![
        ("provenance".into(), Value::Map(provenance)),
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(attempted)),
        ("failed".into(), Value::U64(failed)),
        ("metrics".into(), metric_map(metrics, true)),
        (
            "notes".into(),
            Value::Seq(notes.iter().map(|n| Value::Str(n.clone())).collect()),
        ),
    ])
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(metrics: &[Metric], correct: bool, attempted: u64, failed: u64) -> String {
    let v = Value::Map(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(attempted)),
        ("failed".into(), Value::U64(failed)),
        ("metrics".into(), metric_map(metrics, false)),
    ]);
    serde_json::to_string(&v).expect("a Value always renders")
}
