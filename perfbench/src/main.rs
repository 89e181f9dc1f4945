//! `perfbench`: the workspace benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-eedn|streams-svm> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed`. An untraced run (`--trace 0`)
//! prints the end-to-end metrics; a traced run (`--trace 1`) records
//! spans around the benchmark's calls into each layer and prints the
//! per-layer metrics. Outputs are checked against their oracles outside
//! the timed phase; any mismatch prints `"correct": false` and exits 1.
//! The last line of standard output is the JSON result. The full record
//! (provenance, sample counts, spans) goes to `.bench_out/`.

mod check;
mod cluster_open;
mod common;
mod selftest;
mod serve;
mod stats;
mod streams;
mod tn;
mod trace;

use common::Outcome;
use std::fmt::Write as _;
use std::time::Instant;

/// End-to-end metrics, reported by every workload's untraced run.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("throughput_fps", "1/s"), ("latency_p50_ms", "ms"), ("peak_rss_mb", "MB")];

/// Per-layer metrics, reported by every workload's traced run. A layer
/// the workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("vision.pyramid_ms", "ms"),
    ("core.cells_ms", "ms"),
    ("core.cells_per_frame", "count"),
    ("core.classify_ms", "ms"),
    ("core.classify_us_per_window", "us"),
    ("core.windows_per_frame", "count"),
    ("vision.nms_ms", "ms"),
    ("runtime.speedup_vs_serial", "ratio"),
    ("runtime.stream_ms.static", "ms"),
    ("runtime.stream_ms.crowded", "ms"),
    ("runtime.stream_ms.panning", "ms"),
    ("runtime.cache_hit_ratio", "ratio"),
    ("runtime.cache_hit_ratio.panning", "ratio"),
    ("track.us_per_frame", "us"),
    ("cluster.service_ms_p50", "ms"),
    ("cluster.queue_wait_ms_p90.low", "ms"),
    ("cluster.queue_wait_ms_p90.mid", "ms"),
    ("cluster.queue_wait_ms_p90.high", "ms"),
    ("cluster.backlog_max.low", "count"),
    ("cluster.backlog_max.mid", "count"),
    ("cluster.backlog_max.high", "count"),
    ("cluster.shard_imbalance.low", "ratio"),
    ("cluster.shard_imbalance.mid", "ratio"),
    ("cluster.shard_imbalance.high", "ratio"),
    ("cluster.sustained_rate_hz", "1/s"),
    ("loadgen.late_ms_p90", "ms"),
    ("truenorth.us_per_tick", "us"),
    ("truenorth.ns_per_synaptic_event", "ns"),
    ("truenorth.sim_ticks_per_s", "1/s"),
    ("truenorth.synaptic_events", "count"),
    ("truenorth.routed_spikes", "count"),
    ("eval.lamr", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.stage_sum_pct", "%"),
];

pub const WORKLOADS: &[&str] = &["serve-eedn", "streams-svm"];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// An untraced run sets up at least three times and for at least
    /// two seconds and reports the median; a traced run reports no
    /// set-up time and sets up once.
    pub fn setup_reps(&self) -> common::SetupReps {
        if self.trace {
            common::SetupReps { min_reps: 1, budget_s: 0.0 }
        } else {
            common::SetupReps { min_reps: 3, budget_s: 2.0 }
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} out of range (0, 120]"));
    }
    Ok(Args { workload, seed: seed.unwrap_or(1), seconds, trace: trace.unwrap_or(false) })
}

/// High-water resident memory of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checked-out commit, read from `.git` in the working directory
/// without leaving it.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .ok()
            .map(|s| s.trim().to_owned())
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(reference))
                    .map(|l| l[..40.min(l.len())].to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned()),
        None if !head.is_empty() => head.to_owned(),
        None => "unknown (not a git checkout)".to_owned(),
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name").map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_object<'a>(pairs: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> =
        pairs.into_iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
    format!("{{{}}}", body.join(", "))
}

fn provenance(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let env = |k: &str| json_str(&std::env::var(k).unwrap_or_default());
    json_object([
        ("workload", json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("nproc", nproc.to_string()),
        ("cpu_model", json_str(&cpu_model())),
        ("kernel_backend", json_str(&pcnn_kernels::backend_summary())),
        ("commit", json_str(&commit())),
        ("env_PCNN_KERNEL_BACKEND", env("PCNN_KERNEL_BACKEND")),
        ("env_PCNN_TRACE", env("PCNN_TRACE")),
    ])
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = selftest::run() {
        eprintln!("perfbench: self-test failed: {e}");
        std::process::exit(3);
    }
    let tracer = args.trace.then(trace::Tracer::new);
    let mut outcome: Outcome = match args.workload.as_str() {
        "serve-eedn" => serve::run(&args, process_start, tracer.as_ref()),
        "streams-svm" => streams::run(&args, process_start, tracer.as_ref()),
        _ => unreachable!("workload validated by parse_args"),
    };
    if !args.trace {
        outcome.set("peak_rss_mb", peak_rss_mb());
    }

    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in table {
        let value = match outcome.metrics.get(name) {
            Some(&v) => v,
            None if args.trace => 0.0,
            None => {
                outcome.mismatches.push(format!("metric {name} was not measured"));
                0.0
            }
        };
        let value = if value.is_finite() {
            value
        } else {
            outcome.mismatches.push(format!("metric {name} is {value}"));
            0.0
        };
        metrics
            .push((name, json_object([("value", format!("{value:?}")), ("unit", json_str(unit))])));
    }
    let correct = outcome.mismatches.is_empty();
    let result = json_object([
        ("correct", correct.to_string()),
        ("attempted", outcome.attempted.max(1).to_string()),
        ("failed", outcome.failed.to_string()),
        ("metrics", json_object(metrics)),
    ]);

    let provenance = provenance(&args);
    let details = json_object(outcome.details.iter().map(|(k, v)| (k.as_str(), json_str(v))));
    let mismatches: Vec<String> = outcome.mismatches.iter().map(|m| json_str(m)).collect();
    let spans = tracer.as_ref().map_or("[]".to_owned(), trace::Tracer::to_json);
    let record = format!(
        "{{\"provenance\": {provenance},\n\"result\": {result},\n\"details\": {details},\n\"mismatches\": [{}],\n\"spans\": {spans}}}\n",
        mismatches.join(", ")
    );
    let path = format!(
        ".bench_out/{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    if let Err(e) =
        std::fs::create_dir_all(".bench_out").and_then(|()| std::fs::write(&path, record))
    {
        eprintln!("perfbench: could not write {path}: {e}");
    }

    for m in &outcome.mismatches {
        eprintln!("perfbench: MISMATCH {m}");
    }
    println!("provenance {provenance}");
    println!("{result}");
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the workloads and metrics this
    /// program reports.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let names: Vec<&str> = WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|&(name, _)| name))
            .collect();
        for name in &names {
            assert!(
                doc.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing from BENCHMARK.json"
            );
        }
        assert_eq!(
            doc.matches("\"name\":").count(),
            names.len(),
            "BENCHMARK.json names an unknown metric"
        );
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = &doc[doc.find(&format!("\"name\": \"{name}\"")).expect("listed")..];
            let unit_field = entry.find("\"unit\": ").expect("metric has a unit");
            assert!(
                entry[unit_field..].starts_with(&format!("\"unit\": \"{unit}\"")),
                "{name} unit differs"
            );
        }
    }
}
