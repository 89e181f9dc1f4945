//! Cluster-tier scaling under seeded open-loop load.
//!
//! Drives the sharded serving tier with the `pcnn_cluster` SLO harness
//! at several shard counts, judges each run against fixed p50/p99
//! schedule-to-completion budgets, times a blue/green model swap on the
//! loaded tier, and writes `results/BENCH_cluster.json`.
//!
//! Flags (`--test`) as in [`pcnn_bench::harness`]; nothing here is
//! gated, so `--check` does not apply.

use pcnn_bench::harness::BenchArgs;
use pcnn_bench::{small_svm_detector, standard_dataset};
use pcnn_cluster::{arrivals, run_slo, Cluster, ClusterConfig, LoadProfile, SloBudget, SloReport};
use pcnn_runtime::{Backpressure, RuntimeConfig};
use pcnn_vision::GrayImage;
use serde::Serialize;
use std::time::Instant;

/// One shard-count configuration's SLO outcome, as recorded in
/// `results/BENCH_cluster.json`.
#[derive(Serialize)]
struct BenchResult {
    shards: u32,
    workers: usize,
    slo: SloReport,
    /// Wall time of a full rolling blue/green swap issued right after
    /// the load run, with the tier's queues and pools warm.
    swap_ms: f64,
}

#[derive(Serialize)]
struct BenchDoc {
    profile: LoadProfile,
    results: Vec<BenchResult>,
}

fn main() {
    let args = BenchArgs::parse("BENCH_cluster.json");
    let snapshot = small_svm_detector().to_snapshot();

    let ds = standard_dataset();
    let scenes: Vec<GrayImage> = (0..4u64).map(|i| ds.test_scene(i).image.clone()).collect();

    // The offered rate must be sustainable on the smallest CI host (the
    // serial detection path runs near 10 fps on one core), or the open
    // loop measures nothing but unbounded backlog: keep utilization
    // under one and let the quantiles report the queueing.
    let profile = LoadProfile {
        seed: 0xDAC17,
        streams: 8,
        rate_hz: 6.0,
        frames: if args.smoke { 12 } else { 60 },
    };
    let schedule = arrivals(&profile);
    let budget = SloBudget { p50_us: 400_000, p99_us: 1_500_000, shed_ppm: 0 };

    let mut results = Vec::new();
    for shards in [1u32, 2, 4] {
        let config = ClusterConfig {
            shards,
            router_seed: 7,
            runtime: RuntimeConfig::builder()
                .workers(2)
                .backpressure(Backpressure::Block)
                .build()
                .expect("valid runtime config"),
            ..ClusterConfig::default()
        };
        let cluster = Cluster::new(&snapshot, config).expect("valid cluster config");
        let slo = run_slo(&cluster, &schedule, budget, |a| {
            scenes[(a.stream % scenes.len() as u64) as usize].clone()
        });
        let swap_start = Instant::now();
        cluster.swap_model(&snapshot).expect("swap on warm tier");
        let swap_ms = swap_start.elapsed().as_secs_f64() * 1e3;
        println!("bench: cluster/shards={shards} {slo}  swap {swap_ms:.2}ms");
        results.push(BenchResult { shards, workers: config.runtime.workers, slo, swap_ms });
    }

    args.finish_ungated("cluster_scaling", &BenchDoc { profile, results });
}
