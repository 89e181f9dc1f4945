//! Self-healing overhead under chaos: the same interleaved stream load
//! served twice — once clean, once with a scripted mid-run shard kill
//! (plus an injected frame failure when the routing spreads wide
//! enough) — and judged by the same SLO harness, so the cost of a
//! failover + warm respawn shows up as a p99/throughput delta instead
//! of an anecdote. Writes `results/BENCH_chaos.json`.
//!
//! Flags (`--test`) as in [`pcnn_bench::harness`]; nothing here is
//! gated, so `--check` does not apply.

use pcnn_bench::harness::BenchArgs;
use pcnn_bench::small_svm_detector;
use pcnn_cluster::{
    run_stream_slo, ChaosEvent, ChaosPlan, Cluster, ClusterConfig, SloBudget, SloReport,
    StreamFrame,
};
use pcnn_core::{DetectorSnapshot, StreamId};
use pcnn_runtime::{Backpressure, RetryPolicy};
use pcnn_vision::{TemporalConfig, VideoStream};
use serde::Serialize;
use std::time::Duration;

/// One scenario's outcome, as recorded in `results/BENCH_chaos.json`.
#[derive(Serialize)]
struct ScenarioResult {
    scenario: String,
    slo: SloReport,
    failovers: u64,
    respawns: u64,
    retries: u64,
}

#[derive(Serialize)]
struct BenchDoc {
    shards: u32,
    workers: usize,
    streams: u64,
    frames: usize,
    /// p99 under a one-shard kill over p99 clean, as a percentage
    /// (100 = no degradation), when both quantiles resolved.
    p99_kill_over_clean_pct: Option<f64>,
    results: Vec<ScenarioResult>,
}

fn interleaved(streams: u64, per_stream: u64) -> Vec<StreamFrame> {
    let sources: Vec<VideoStream> =
        (0..streams).map(|s| VideoStream::new(TemporalConfig::sparse_scene(s + 1))).collect();
    let mut frames = Vec::new();
    for t in 0..per_stream {
        for (s, source) in sources.iter().enumerate() {
            frames.push(StreamFrame {
                stream: StreamId::new(s as u64),
                image: source.render(t).image,
            });
        }
    }
    frames
}

fn cluster(snapshot: &DetectorSnapshot, shards: u32, workers: usize) -> Cluster {
    let config = ClusterConfig::builder()
        .shards(shards)
        .router_seed(7)
        .workers(workers)
        .backpressure(Backpressure::Block)
        .retry(RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            deadline: None,
            jitter_pm: 500,
        })
        .build()
        .expect("valid cluster config");
    Cluster::new(snapshot, config).expect("valid cluster")
}

/// Serves `frames` on `cluster` under `plan` and records the SLO
/// outcome with the cluster's self-healing counters.
fn scenario(
    name: &str,
    cluster: &Cluster,
    frames: &[StreamFrame],
    budget: SloBudget,
    plan: Option<&ChaosPlan>,
) -> ScenarioResult {
    let slo = run_stream_slo(cluster, frames, budget, plan);
    let report = cluster.report();
    println!(
        "bench: chaos/{name} {slo}  [{} failovers, {} respawns, {} retries]",
        report.failovers, report.respawns, report.retries
    );
    ScenarioResult {
        scenario: name.to_string(),
        slo,
        failovers: report.failovers,
        respawns: report.respawns,
        retries: report.retries,
    }
}

fn main() {
    let args = BenchArgs::parse("BENCH_chaos.json");
    let snapshot = small_svm_detector().to_snapshot();
    let (shards, workers) = (3u32, 2usize);
    let (streams, per_stream) = if args.smoke { (3u64, 4u64) } else { (4u64, 8u64) };
    let frames = interleaved(streams, per_stream);
    // The stream path's latency histogram spreads wall time uniformly
    // over served frames, so the budgets here bound mean service time.
    let budget = SloBudget { p50_us: 1_000_000, p99_us: 2_000_000, shed_ppm: 0 };

    let clean = scenario("clean", &cluster(&snapshot, shards, workers), &frames, budget, None);

    let chaotic = cluster(&snapshot, shards, workers);
    let victim = chaotic.route(StreamId::new(0));
    let mut plan =
        ChaosPlan::new(0xDAC17).with_event(ChaosEvent::KillShard { shard: victim, at_frame: 2 });
    if let Some(other) =
        (1..streams).map(|s| chaotic.route(StreamId::new(s))).find(|&s| s != victim)
    {
        plan = plan.with_event(ChaosEvent::FailFrame { shard: other, at_frame: 0 });
    }
    let kill = scenario("one-shard-kill", &chaotic, &frames, budget, Some(&plan));

    let p99_kill_over_clean_pct = match (kill.slo.p99_us, clean.slo.p99_us) {
        (Some(kill), Some(clean)) if clean > 0 => Some(100.0 * kill as f64 / clean as f64),
        _ => None,
    };

    let doc = BenchDoc {
        shards,
        workers,
        streams,
        frames: frames.len(),
        p99_kill_over_clean_pct,
        results: vec![clean, kill],
    };
    args.finish_ungated("cluster_chaos", &doc);
}
