//! Temporal-cache streaming throughput over seeded video streams.
//!
//! Serves the same synthetic video sequence twice through one
//! [`DetectionServer`] — once per-frame with a cold pipeline
//! (`detect_frame`, no temporal state) and once through the streaming
//! path (`detect_stream`, change-driven cell cache + tracker) — for
//! three scene regimes: a static camera (best case), a panning camera
//! (worst case) and a crowded street (typical case). Writes
//! `results/BENCH_streaming.json` with per-scene throughput, speedup
//! and cache hit rate.
//!
//! Flags (`--test`) as in [`pcnn_bench::harness`]; nothing here is
//! gated, so `--check` does not apply.

use pcnn_bench::harness::BenchArgs;
use pcnn_bench::small_svm_detector;
use pcnn_core::pipeline::Detector;
use pcnn_core::{StreamId, TrainedDetector};
use pcnn_runtime::{DetectionServer, RuntimeConfig};
use pcnn_vision::{GrayImage, TemporalConfig, VideoStream};
use serde::Serialize;
use std::time::Instant;

/// One scene regime's cached-vs-uncached outcome, as recorded in
/// `results/BENCH_streaming.json`.
#[derive(Serialize)]
struct SceneResult {
    scene: String,
    frames: u64,
    uncached_wall_s: f64,
    uncached_fps: f64,
    cached_wall_s: f64,
    cached_fps: f64,
    speedup: f64,
    cells_reused: u64,
    cells_recomputed: u64,
    hit_rate: f64,
    /// Streaming output matched the cold per-frame run on every frame.
    bit_identical: bool,
}

#[derive(Serialize)]
struct BenchDoc {
    workers: usize,
    results: Vec<SceneResult>,
}

fn bench_scene(
    name: &str,
    config: TemporalConfig,
    detector: &TrainedDetector,
    workers: usize,
    frames: u64,
) -> SceneResult {
    let source = VideoStream::new(config);
    let images: Vec<GrayImage> = (0..frames).map(|t| source.render(t).image).collect();
    let runtime = RuntimeConfig::builder().workers(workers).build().expect("valid config");
    let server =
        DetectionServer::new(Detector::default(), detector, runtime).expect("valid server");

    let uncached_start = Instant::now();
    let cold: Vec<_> = images.iter().map(|img| server.detect_frame(img)).collect();
    let uncached_wall_s = uncached_start.elapsed().as_secs_f64();

    let handle = server.open_stream(StreamId::new(1));
    let mut cells_reused = 0;
    let mut cells_recomputed = 0;
    let mut bit_identical = true;
    let cached_start = Instant::now();
    for (img, reference) in images.iter().zip(&cold) {
        let r = server.detect_stream(&handle, img).expect("healthy stream frame");
        cells_reused += r.cells_reused;
        cells_recomputed += r.cells_recomputed;
        bit_identical &= &r.detections == reference;
    }
    let cached_wall_s = cached_start.elapsed().as_secs_f64();

    let total = (cells_reused + cells_recomputed).max(1);
    let result = SceneResult {
        scene: name.to_string(),
        frames,
        uncached_wall_s,
        uncached_fps: frames as f64 / uncached_wall_s,
        cached_wall_s,
        cached_fps: frames as f64 / cached_wall_s,
        speedup: uncached_wall_s / cached_wall_s,
        cells_reused,
        cells_recomputed,
        hit_rate: cells_reused as f64 / total as f64,
        bit_identical,
    };
    println!(
        "bench: streaming/{name} uncached {:.1} fps, cached {:.1} fps ({:.2}x, {:.0}% hit){}",
        result.uncached_fps,
        result.cached_fps,
        result.speedup,
        100.0 * result.hit_rate,
        if result.bit_identical { "" } else { "  OUTPUT DIVERGED" },
    );
    result
}

fn main() {
    let args = BenchArgs::parse("BENCH_streaming.json");
    let detector = small_svm_detector();
    let workers = 2;
    let frames = if args.smoke { 6 } else { 30 };

    let results = vec![
        bench_scene("static", TemporalConfig::static_scene(3), &detector, workers, frames),
        bench_scene("panning", TemporalConfig::panning_scene(3), &detector, workers, frames),
        bench_scene("crowded", TemporalConfig::crowded_scene(3), &detector, workers, frames),
    ];
    assert!(
        results.iter().all(|r| r.bit_identical),
        "streaming output must be bit-identical to the cold per-frame run"
    );

    args.finish_ungated("video_streaming", &BenchDoc { workers, results });
}
