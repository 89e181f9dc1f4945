//! `serve-eedn`: the paper's partitioned Fig. 5 pipeline behind the
//! serving runtime. One closed-loop client sends one distinct frame per
//! `DetectionServer::detect_batch` call to a server whose detector is
//! NApprox(fp) cells feeding the paper-sized Eedn classifier. Bypasses
//! the cell cache, the tracker, the cluster and the simulator.
//!
//! The timed server runs one worker: on a shared 2-vCPU host, frames
//! split across two workers wait on whichever core the host is busy
//! with, and their figures spread with it. The traced run measures the
//! 2-worker server's speed-up over the serial stage sum and adds the
//! simulator probe of [`crate::tn`].

use crate::check;
use crate::common::{self, cold_frame, eedn_detector, mix, ms_since, Outcome};
use crate::stats::{median, quantile};
use crate::trace::{maybe, Tracer};
use crate::Args;
use pcnn_core::pipeline::Detector;
use pcnn_core::TrainedDetector;
use pcnn_runtime::{DetectionServer, RuntimeConfig};
use pcnn_vision::{Detection, Evaluator, SynthConfig, SynthDataset, SynthScene};
use std::time::{Duration, Instant};

/// Scene size: small enough that a run serves the 100+ frames a p90
/// needs, large enough for a three-level pyramid.
const SCENE_WIDTH: usize = 208;
const SCENE_HEIGHT: usize = 160;
/// Frames rendered in set-up; a run never repeats one.
const POOL: u64 = 640;
/// Served frames re-run cold through `Detector::detect` per run.
const ORACLE_SAMPLE: usize = 8;
/// Workers of the timed server.
pub const WORKERS: usize = 1;
/// Workers of the server the traced run measures the speed-up of.
const PARALLEL_WORKERS: usize = 2;

struct Ctx {
    detector: TrainedDetector,
    scenes: Vec<SynthScene>,
}

fn setup(seed: u64) -> Ctx {
    let detector = eedn_detector();
    let data = SynthDataset::new(SynthConfig {
        seed: mix(seed, 1),
        scene_width: SCENE_WIDTH,
        scene_height: SCENE_HEIGHT,
        ..SynthConfig::default()
    });
    let scenes = (0..POOL).map(|i| data.test_scene(i)).collect();
    Ctx { detector, scenes }
}

/// A served frame's detections, or the error it failed with.
type Served = Result<Vec<Detection>, String>;

/// One closed-loop pass over the pool until `budget` runs out or the
/// pool does. Returns per-frame latencies, served detections and the
/// pass's wall time in seconds.
fn serve_loop(
    server: &DetectionServer<'_>,
    scenes: &[SynthScene],
    budget: Duration,
) -> (Vec<f64>, Vec<Served>, f64) {
    let start = Instant::now();
    let mut latencies = Vec::new();
    let mut served = Vec::new();
    for scene in scenes {
        if start.elapsed() >= budget {
            break;
        }
        let t = Instant::now();
        let mut out = server.detect_batch(&[&scene.image]);
        latencies.push(ms_since(t));
        served.push(out.pop().expect("one result per frame").map_err(|e| e.to_string()));
    }
    (latencies, served, start.elapsed().as_secs_f64())
}

pub fn run(args: &Args, process_start: Instant, tracer: Option<&Tracer>) -> Outcome {
    let (ctx, setup_s) =
        common::repeated_setup(args.setup_reps(), process_start, || setup(args.seed));
    let runtime = RuntimeConfig::builder().workers(WORKERS).build().expect("valid runtime config");
    let engine = Detector::default();
    let server =
        DetectionServer::new(Detector::default(), &ctx.detector, runtime).expect("valid server");
    let mut out = Outcome::default();

    // A traced run spends half its time untraced, as the base of the
    // tracing overhead, and half traced.
    let untraced = if tracer.is_some() { args.seconds / 2.0 } else { args.seconds };
    let (latencies, served, wall_s) =
        serve_loop(&server, &ctx.scenes, Duration::from_secs_f64(untraced));
    out.attempted = served.len() as u64;
    out.failed = served.iter().filter(|r| r.is_err()).count() as u64;

    // Oracle: a seeded sample of served frames against cold detection.
    for i in common::sample_indices(mix(args.seed, 2), served.len(), ORACLE_SAMPLE) {
        let oracle = engine.detect(&ctx.detector, &ctx.scenes[i].image);
        let result =
            served[i].as_ref().map_err(Clone::clone).and_then(|d| check::detections(d, &oracle));
        out.check(format_args!("serve-eedn frame {i}"), result);
    }
    let mut evaluator = Evaluator::new();
    for (scene, dets) in ctx.scenes.iter().zip(&served) {
        evaluator.add_image(dets.as_deref().unwrap_or(&[]), &scene.pedestrians);
    }
    let lamr = evaluator.curve().log_average_miss_rate();
    out.note("lamr", lamr);
    out.note("frames", served.len());

    let Some(tracer) = tracer else {
        out.set("setup_s", setup_s);
        out.set("throughput_fps", served.len() as f64 / wall_s);
        out.latencies(&latencies);
        return out;
    };

    // Traced pass: each frame is served (span around the server call),
    // served again by a 2-worker server, replayed through the public
    // stage calls (spans per stage), and run once more untraced through
    // `Detector::detect` as the serial base.
    let parallel_runtime =
        RuntimeConfig::builder().workers(PARALLEL_WORKERS).build().expect("valid runtime config");
    let parallel = DetectionServer::new(Detector::default(), &ctx.detector, parallel_runtime)
        .expect("valid server");
    let budget = Duration::from_secs_f64(args.seconds / 2.0);
    let start = Instant::now();
    let mut traced_latencies = Vec::new();
    let mut parallel_latencies = Vec::new();
    let mut serial_ms = Vec::new();
    let mut work = Vec::new();
    // The traced pass serves the untraced pass's frames again, so the
    // tracing overhead compares identical work.
    for (i, scene) in ctx.scenes.iter().enumerate().take(served.len()) {
        if start.elapsed() >= budget && !traced_latencies.is_empty() {
            break;
        }
        let frame = i as u64;
        let root = tracer.enter("frame", None, frame);
        let t = Instant::now();
        let served = maybe(Some(tracer), "runtime.detect_batch", Some(root), frame, || {
            server.detect_batch(&[&scene.image]).pop().expect("one result per frame")
        });
        traced_latencies.push(ms_since(t));
        let t = Instant::now();
        let parallel_served =
            maybe(Some(tracer), "runtime.detect_batch", Some(root), frame, || {
                parallel.detect_batch(&[&scene.image]).pop().expect("one result per frame")
            });
        parallel_latencies.push(ms_since(t));
        let (cold, w) =
            cold_frame(Some(tracer), Some(root), frame, &engine, &ctx.detector, &scene.image);
        tracer.exit(root);
        work.push(w);
        let t = Instant::now();
        let serial = engine.detect(&ctx.detector, &scene.image);
        serial_ms.push(ms_since(t));
        for (what, served) in [("traced", served), ("2-worker", parallel_served)] {
            out.attempted += 1;
            out.failed += u64::from(served.is_err());
            let served =
                served.map_err(|e| e.to_string()).and_then(|d| check::detections(&d, &cold));
            out.check(format_args!("serve-eedn {what} frame {i}"), served);
        }
        out.check(format_args!("serve-eedn serial frame {i}"), check::detections(&serial, &cold));
    }
    let stage_sum: Vec<f64> = {
        let parts = ["vision.pyramid", "core.cells", "core.classify", "vision.nms"]
            .map(|n| tracer.per_frame_ms(n));
        (0..serial_ms.len()).map(|f| parts.iter().map(|p| p[f]).sum()).collect()
    };
    common::layer_metrics(&mut out, tracer, &work);
    out.set("runtime.speedup_vs_serial", median(&stage_sum) / median(&parallel_latencies));
    let same_frames = &latencies[..traced_latencies.len()];
    out.set("trace.overhead_pct", (median(&traced_latencies) / median(same_frames) - 1.0) * 100.0);
    let ratios: Vec<f64> = stage_sum.iter().zip(&serial_ms).map(|(s, d)| s / d * 100.0).collect();
    out.set("trace.stage_sum_pct", median(&ratios));
    out.set("eval.lamr", lamr);
    out.note("serial_frame_ms_p50", median(&serial_ms));
    out.note("server_latency_ms_p90_traced", quantile(&traced_latencies, 0.9));
    crate::tn::probe(args.seed, args.seconds / 3.0, tracer, &mut out);
    out
}
