//! `streams-svm`: the temporal cell cache and the tracker at work. One
//! closed-loop client serves static, crowded and panning `VideoStream`s
//! round-robin through `DetectionServer::detect_stream`, with NApprox(fp)
//! cells feeding an SVM. The traced run adds the open-loop cluster probe
//! of [`crate::cluster_open`] on the same detector.

use crate::check;
use crate::common::{self, cold_frame, mix, ms_since, svm_detector, Outcome, SceneKind};
use crate::stats::{median, quantile};
use crate::trace::{maybe, Tracer};
use crate::Args;
use pcnn_core::pipeline::Detector;
use pcnn_core::{StreamId, TrainedDetector};
use pcnn_runtime::{DetectionServer, RuntimeConfig, StreamFrameResult, StreamHandle};
use pcnn_vision::{Evaluator, SynthScene, TemporalConfig, VideoStream};
use std::time::{Duration, Instant};

/// Stream `s` is of kind `PATTERN[s % PATTERN.len()]`. Panning frames,
/// which the cell cache helps least, are three in five, so the median
/// and the p90 frame both fall inside that class rather than on the cost
/// step between classes, where a run's figures would jump with its mix.
const PATTERN: [SceneKind; 5] = [
    ("static", TemporalConfig::static_scene),
    ("crowded", steady_crowd),
    ("panning", TemporalConfig::panning_scene),
    ("panning", TemporalConfig::panning_scene),
    ("panning", TemporalConfig::panning_scene),
];
/// Streams served round-robin. How much of a frame the cache can reuse
/// varies along a video, so each run samples many short stretches.
const STREAMS: usize = 30;
const KINDS: [&str; 3] = ["static", "crowded", "panning"];

/// A crowded scene whose walkers respawn quickly, so the crowd's size,
/// and with it the cost of a frame, varies little over a run.
fn steady_crowd(seed: u64) -> TemporalConfig {
    TemporalConfig { gap: (2, 6), ..TemporalConfig::crowded_scene(seed) }
}

/// Seed of stream 0's scene; stream `s` uses `SCENE_SEED + s`. The
/// scenes are the same in every run, since how much of a scene the cell
/// cache can reuse differs widely between scenes; `--seed` picks where
/// in its video each stream starts.
const SCENE_SEED: u64 = 0x57EA;
/// Start frames are drawn below this: two sweeps of a panning camera.
const MAX_START: u64 = 420;
/// Frames per stream rendered in set-up; the first warms the stream's
/// cache before timing starts.
const POOL: usize = 14;
/// Served frames per kind re-run cold through `Detector::detect`.
const ORACLE_PER_KIND: usize = 3;
/// In the traced pass every `REPLAY_EVERY`-th round also replays its
/// frames cold through the stage calls.
const REPLAY_EVERY: usize = 3;

struct Ctx {
    detector: TrainedDetector,
    /// `frames[stream][t]`: the `t`-th frame served on `stream`.
    frames: Vec<Vec<SynthScene>>,
}

fn setup(seed: u64) -> Ctx {
    let detector = svm_detector();
    let frames = (0..STREAMS)
        .map(|s| {
            let stream = VideoStream::new(PATTERN[s % PATTERN.len()].1(SCENE_SEED + s as u64));
            let first = mix(seed, 10 + s as u64) % MAX_START;
            (first..first + POOL as u64).map(|t| stream.render(t)).collect()
        })
        .collect();
    Ctx { detector, frames }
}

/// One served frame.
struct Served {
    stream: usize,
    t: usize,
    ms: f64,
    result: Result<StreamFrameResult, String>,
}

impl Served {
    fn kind(&self) -> &'static str {
        PATTERN[self.stream % PATTERN.len()].0
    }
}

/// Round-robin closed loop over rounds `1..rounds` (round 0 warms the
/// streams), stopping early when `budget` runs out.
fn stream_loop(
    server: &DetectionServer<'_>,
    handles: &[StreamHandle],
    ctx: &Ctx,
    rounds: usize,
    budget: Duration,
    tracer: Option<&Tracer>,
) -> (Vec<Served>, f64) {
    let start = Instant::now();
    let mut served = Vec::new();
    for t in 1..rounds {
        if start.elapsed() >= budget {
            break;
        }
        for (stream, handle) in handles.iter().enumerate() {
            let frame = (t * STREAMS + stream) as u64;
            let img = &ctx.frames[stream][t].image;
            let begin = Instant::now();
            let result = maybe(tracer, "runtime.detect_stream", None, frame, || {
                server.detect_stream(handle, img)
            });
            served.push(Served {
                stream,
                t,
                ms: ms_since(begin),
                result: result.map_err(|e| e.to_string()),
            });
        }
    }
    (served, start.elapsed().as_secs_f64())
}

/// `cells_reused / (cells_reused + cells_recomputed)` over `frames`.
fn hit_ratio<'a>(frames: impl Iterator<Item = &'a Served>) -> f64 {
    let (reused, recomputed) = frames
        .filter_map(|s| s.result.as_ref().ok())
        .fold((0u64, 0u64), |(a, b), r| (a + r.cells_reused, b + r.cells_recomputed));
    reused as f64 / (reused + recomputed).max(1) as f64
}

pub fn run(args: &Args, process_start: Instant, tracer: Option<&Tracer>) -> Outcome {
    let (ctx, setup_s) =
        common::repeated_setup(args.setup_reps(), process_start, || setup(args.seed));
    let runtime = RuntimeConfig::builder()
        .workers(crate::serve::WORKERS)
        .build()
        .expect("valid runtime config");
    let engine = Detector::default();
    let server =
        DetectionServer::new(Detector::default(), &ctx.detector, runtime).expect("valid server");
    // Opens the streams and serves each its first frame, untimed.
    let open = |first: u64| -> Vec<StreamHandle> {
        let handles: Vec<StreamHandle> =
            (0..STREAMS as u64).map(|s| server.open_stream(StreamId::new(first + s))).collect();
        for (handle, frames) in handles.iter().zip(&ctx.frames) {
            server.detect_stream(handle, &frames[0].image).expect("warm-up frame serves");
        }
        handles
    };
    let mut out = Outcome::default();

    // A traced run serves the streams twice, on fresh stream state each
    // time: untraced, then traced over the same rounds, so the tracing
    // overhead compares identical work.
    let untraced = if tracer.is_some() { args.seconds / 2.0 } else { args.seconds };
    let (mut all, wall_s) =
        stream_loop(&server, &open(1), &ctx, POOL, Duration::from_secs_f64(untraced), None);
    let rounds = 1 + all.len() / STREAMS;
    let untraced_frames = all.len();
    let untraced_ms: Vec<f64> = all.iter().map(|s| s.ms).collect();
    if let Some(t) = tracer {
        let budget = Duration::from_secs_f64(args.seconds / 2.0);
        let fresh = open(1 + STREAMS as u64);
        all.extend(stream_loop(&server, &fresh, &ctx, rounds, budget, Some(t)).0);
    }
    out.attempted = all.len() as u64;
    out.failed = all.iter().filter(|s| s.result.is_err()).count() as u64;

    // Oracles: a seeded sample per kind against cold detection, and on
    // every frame the cache counters must cover exactly the frame's
    // cells.
    let (_, cold_work) = cold_frame(None, None, 0, &engine, &ctx.detector, &ctx.frames[0][0].image);
    for (k, name) in KINDS.into_iter().enumerate() {
        let of_kind: Vec<&Served> = all.iter().filter(|s| s.kind() == name).collect();
        for i in
            common::sample_indices(mix(args.seed, 20 + k as u64), of_kind.len(), ORACLE_PER_KIND)
        {
            let s = of_kind[i];
            let oracle = engine.detect(&ctx.detector, &ctx.frames[s.stream][s.t].image);
            let result = s
                .result
                .as_ref()
                .map_err(Clone::clone)
                .and_then(|r| check::detections(&r.detections, &oracle));
            out.check(format_args!("streams-svm {name} stream {} frame {}", s.stream, s.t), result);
        }
    }
    for s in &all {
        if let Ok(r) = &s.result {
            let counted = r.cells_reused + r.cells_recomputed;
            let result = if counted == cold_work.cells {
                Ok(())
            } else {
                Err(format!("{counted} cells reused or recomputed, frame has {}", cold_work.cells))
            };
            out.check(format_args!("streams-svm stream {} frame {}", s.stream, s.t), result);
        }
    }
    let untraced_served = &all[..untraced_frames];
    let mut evaluator = Evaluator::new();
    for s in untraced_served {
        let dets = s.result.as_ref().map_or(&[][..], |r| &r.detections[..]);
        evaluator.add_image(dets, &ctx.frames[s.stream][s.t].pedestrians);
    }
    let lamr = evaluator.curve().log_average_miss_rate();
    out.note("lamr", lamr);
    out.note("frames", untraced_frames);
    out.note("cache_hit_ratio", hit_ratio(untraced_served.iter()));
    for name in KINDS {
        let ms: Vec<f64> =
            untraced_served.iter().filter(|s| s.kind() == name).map(|s| s.ms).collect();
        out.note(format!("stream_ms_p50.{name}"), median(&ms));
    }

    let Some(tracer) = tracer else {
        out.set("setup_s", setup_s);
        out.set("throughput_fps", untraced_frames as f64 / wall_s);
        out.latencies(&untraced_ms);
        return out;
    };

    // Traced metrics come from the traced pass plus cold replays of a
    // sample of its rounds.
    let traced = &all[untraced_frames..];
    let stream_ms =
        ["runtime.stream_ms.static", "runtime.stream_ms.crowded", "runtime.stream_ms.panning"];
    for (name, metric) in KINDS.into_iter().zip(stream_ms) {
        let ms: Vec<f64> = traced.iter().filter(|s| s.kind() == name).map(|s| s.ms).collect();
        out.set(metric, median(&ms));
    }
    out.set("runtime.cache_hit_ratio", hit_ratio(traced.iter()));
    out.set(
        "runtime.cache_hit_ratio.panning",
        hit_ratio(traced.iter().filter(|s| s.kind() == "panning")),
    );
    let mut work = Vec::new();
    for s in traced.iter().filter(|s| (s.t - 1) % REPLAY_EVERY == 0) {
        let frame = (s.t * STREAMS + s.stream) as u64 + (1 << 32);
        let img = &ctx.frames[s.stream][s.t].image;
        let (cold, w) = cold_frame(Some(tracer), None, frame, &engine, &ctx.detector, img);
        work.push(w);
        if let Ok(r) = &s.result {
            let result = check::detections(&r.detections, &cold);
            out.check(format_args!("streams-svm traced stream {} frame {}", s.stream, s.t), result);
        }
    }
    common::layer_metrics(&mut out, tracer, &work);
    out.set(
        "track.us_per_frame",
        common::track_replay(tracer, traced.iter().map(|s| (s.stream, s.result.as_ref().ok()))),
    );
    let traced_ms: Vec<f64> = traced.iter().map(|s| s.ms).collect();
    out.set("runtime.speedup_vs_serial", common::stage_sum_median(tracer) / median(&untraced_ms));
    let same_frames = &untraced_ms[..traced_ms.len()];
    out.set("trace.overhead_pct", (median(&traced_ms) / median(same_frames) - 1.0) * 100.0);
    out.set("eval.lamr", lamr);
    out.note("latency_p90_ms_traced", quantile(&traced_ms, 0.9));
    crate::cluster_open::probe(args.seed, args.seconds / 2.0, &ctx.detector, tracer, &mut out);
    out
}
