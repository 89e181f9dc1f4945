//! Pieces every workload shares: the seeded detectors, the cold serial
//! pipeline replayed through the layers' public calls, and the result a
//! workload hands back.

use crate::stats::{mean, median, quantile};
use crate::trace::{maybe, SpanId, Tracer};
use pcnn_core::pipeline::Detector;
use pcnn_core::{
    EednClassifierConfig, Extractor, PartitionedSystem, TrainSetConfig, TrainedDetector,
};
use pcnn_hog::cell::CELL_SIZE;
use pcnn_hog::BlockNorm;
use pcnn_runtime::StreamFrameResult;
use pcnn_track::{Tracker, TrackerConfig};
use pcnn_vision::pyramid::scale_pyramid;
use pcnn_vision::{
    non_maximum_suppression, Detection, GrayImage, SynthConfig, SynthDataset, TemporalConfig,
    WINDOW_WIDTH,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// Training data is fixed; only the served inputs follow `--seed`, so
/// every seed measures the same model.
fn training_set() -> SynthDataset {
    SynthDataset::new(SynthConfig::default())
}

const TRAIN_SET: TrainSetConfig =
    TrainSetConfig { n_pos: 60, n_neg: 120, mining_scenes: 1, mining_rounds: 1 };

/// NApprox(fp) cells feeding a linear SVM with one mining round.
pub fn svm_detector() -> TrainedDetector {
    PartitionedSystem::train_svm_detector(
        Extractor::napprox_fp(BlockNorm::L2),
        &training_set(),
        TRAIN_SET,
    )
}

/// NApprox(fp) cells feeding the paper-sized Eedn classifier.
pub fn eedn_detector() -> TrainedDetector {
    PartitionedSystem::train_eedn_detector(
        Extractor::napprox_fp(BlockNorm::L2),
        &training_set(),
        TrainSetConfig { mining_rounds: 0, ..TRAIN_SET },
        EednClassifierConfig::default(),
    )
}

/// A named video-scene generator, seeded by its argument.
pub type SceneKind = (&'static str, fn(u64) -> TemporalConfig);

/// SplitMix64: derives independent sub-seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `k` distinct indices below `n` (all of them when `k >= n`), drawn by
/// a partial Fisher-Yates shuffle seeded with `seed`, in ascending order.
pub fn sample_indices(seed: u64, n: usize, k: usize) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..n).collect();
    let k = k.min(n);
    for i in 0..k {
        let j = i + (mix(seed, i as u64) % (n - i) as u64) as usize;
        pool.swap(i, j);
    }
    let mut picked = pool[..k].to_vec();
    picked.sort_unstable();
    picked
}

/// Work done by one cold serial frame.
#[derive(Debug, Default, Clone, Copy)]
pub struct ColdWork {
    pub cells: u64,
    pub windows: u64,
}

/// `Detector::detect` decomposed into its public stage calls —
/// `scale_pyramid`, `Detector::cell_grid` and `Detector::score_rows` per
/// level, `non_maximum_suppression` — each in a span under `parent`.
/// Produces exactly what `Detector::detect` produces.
pub fn cold_frame(
    tracer: Option<&Tracer>,
    parent: Option<SpanId>,
    frame: u64,
    engine: &Detector,
    detector: &TrainedDetector,
    img: &GrayImage,
) -> (Vec<Detection>, ColdWork) {
    let config = engine.config();
    let pyramid =
        maybe(tracer, "vision.pyramid", parent, frame, || scale_pyramid(img, config.pyramid));
    let mut raw = Vec::new();
    let mut work = ColdWork::default();
    for level in &pyramid.levels {
        let grid = maybe(tracer, "core.cells", parent, frame, || {
            Detector::cell_grid(&detector.extractor, &level.image)
        });
        let rows = Detector::window_rows(&grid);
        work.cells += (grid.len() * grid.first().map_or(0, Vec::len)) as u64;
        if rows > 0 {
            work.windows += (rows * (grid[0].len() + 1 - WINDOW_WIDTH / CELL_SIZE)) as u64;
        }
        raw.extend(maybe(tracer, "core.classify", parent, frame, || {
            engine.score_rows(detector, &grid, level.scale, 0..rows)
        }));
    }
    let dets = maybe(tracer, "vision.nms", parent, frame, || {
        non_maximum_suppression(raw, config.nms_epsilon)
    });
    (dets, work)
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Metric values by name: end-to-end ones in an untraced run,
    /// per-layer ones in a traced run.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Side facts recorded with the result (sample counts and the like).
    pub details: BTreeMap<String, String>,
    pub mismatches: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records `result`'s mismatch, if any, under `what`.
    pub fn check(&mut self, what: impl std::fmt::Display, result: Result<(), String>) {
        if let Err(e) = result {
            self.mismatches.push(format!("{what}: {e}"));
        }
    }

    pub fn note(&mut self, key: impl Into<String>, value: impl ToString) {
        self.details.insert(key.into(), value.to_string());
    }

    /// Records per-frame latencies: the median as `latency_p50_ms`; the
    /// p90, the sample count and the samples beyond the p90 rank as
    /// details. The p90 is no end-to-end metric: on a shared host it
    /// follows whatever share of a run the host's other tenants take,
    /// and spreads between runs by more than any bound allows.
    pub fn latencies(&mut self, samples_ms: &[f64]) {
        self.set("latency_p50_ms", median(samples_ms));
        self.note("latency_p90_ms", quantile(samples_ms, 0.9));
        self.note("latency_samples", samples_ms.len());
        self.note("latency_p90_beyond", crate::stats::beyond(samples_ms.len(), 0.9));
    }
}

/// Set-up repetitions: at least `min_reps`, then more until `budget_s`
/// of set-up time has accumulated (at most 15), so a cheap set-up is
/// timed often enough for a steady median.
#[derive(Debug, Clone, Copy)]
pub struct SetupReps {
    pub min_reps: usize,
    pub budget_s: f64,
}

/// Runs `setup` as `reps` asks and returns the last result with the
/// median set-up time. The first repetition is timed from process
/// start; the others from their own start.
pub fn repeated_setup<T>(
    reps: SetupReps,
    process_start: Instant,
    mut setup: impl FnMut() -> T,
) -> (T, f64) {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.len() < reps.min_reps.max(1)
        || (times.iter().sum::<f64>() < reps.budget_s && times.len() < 15)
    {
        let start = if times.is_empty() { process_start } else { Instant::now() };
        drop(last.take());
        last = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one repetition"), median(&times))
}

/// Elapsed milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// The stage metrics every cold replay yields.
pub fn layer_metrics(out: &mut Outcome, tracer: &Tracer, work: &[ColdWork]) {
    let frames = work.len().max(1) as f64;
    let cells: u64 = work.iter().map(|w| w.cells).sum();
    let windows: u64 = work.iter().map(|w| w.windows).sum();
    let classify = tracer.per_frame_ms("core.classify");
    out.set("vision.pyramid_ms", median(&tracer.per_frame_ms("vision.pyramid")));
    out.set("core.cells_ms", median(&tracer.per_frame_ms("core.cells")));
    out.set("core.cells_per_frame", cells as f64 / frames);
    out.set("core.classify_ms", median(&classify));
    out.set(
        "core.classify_us_per_window",
        classify.iter().sum::<f64>() * 1e3 / windows.max(1) as f64,
    );
    out.set("core.windows_per_frame", windows as f64 / frames);
    out.set("vision.nms_ms", median(&tracer.per_frame_ms("vision.nms")));
}

/// Median per-frame sum of the cold stage spans.
pub fn stage_sum_median(tracer: &Tracer) -> f64 {
    let mut sums = BTreeMap::<u64, f64>::new();
    for s in tracer.spans() {
        if matches!(s.name, "vision.pyramid" | "core.cells" | "core.classify" | "vision.nms") {
            *sums.entry(s.frame).or_default() += s.ms();
        }
    }
    median(&sums.into_values().collect::<Vec<_>>())
}

/// Replays served detections, stream by stream in serving order,
/// through a standalone `pcnn_track::Tracker` per stream, each update in
/// a span. Returns the mean microseconds per update.
pub fn track_replay<'a>(
    tracer: &Tracer,
    frames: impl Iterator<Item = (usize, Option<&'a StreamFrameResult>)>,
) -> f64 {
    let mut trackers = BTreeMap::<usize, Tracker>::new();
    for (i, (stream, result)) in frames.enumerate() {
        let dets = result.map_or(&[][..], |r| &r.detections[..]);
        let tracker =
            trackers.entry(stream).or_insert_with(|| Tracker::new(TrackerConfig::default()));
        tracer.record("track.update", None, i as u64, || tracker.update(dets));
    }
    mean(&tracer.durations_ms("track.update")) * 1e3
}
