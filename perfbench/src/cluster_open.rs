//! The open-loop cluster probe of the `streams-svm` traced run: routing,
//! shard contention and queueing. Seeded Poisson arrivals from
//! `pcnn_cluster::arrivals` over eight mixed-scene streams step through
//! three fixed rates against a 2-shard `Cluster` serving the workload's
//! SVM detector. A pacing thread hands each arrival, at its due time, to
//! one client lane per shard; each lane calls `Cluster::detect_stream`
//! on the routed shard. Latency runs from the due time, so a stall is
//! charged to every frame it delays.
//!
//! Open-loop latency percentiles spread too widely between seeds on a
//! shared 2-vCPU host to bound a regression, so the probe reports
//! per-layer figures only.

use crate::check;
use crate::common::{mix, sample_indices, Outcome, SceneKind};
use crate::stats::{self, median, quantile, Phase};
use crate::trace::Tracer;
use pcnn_cluster::{arrivals, Cluster, ClusterConfig, LoadProfile};
use pcnn_core::pipeline::Detector;
use pcnn_core::{StreamId, TrainedDetector};
use pcnn_runtime::StreamFrameResult;
use pcnn_vision::{SynthScene, TemporalConfig, VideoStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// Scene kind of each of the eight streams. The scenes are the same in
/// every run; `--seed` draws the traffic (arrival times and the stream
/// of each arrival).
const STREAMS: [SceneKind; 8] = [
    ("static", TemporalConfig::static_scene),
    ("sparse", TemporalConfig::sparse_scene),
    ("crowded", TemporalConfig::crowded_scene),
    ("panning", TemporalConfig::panning_scene),
    ("panning", TemporalConfig::panning_scene),
    ("panning", TemporalConfig::panning_scene),
    ("panning", TemporalConfig::panning_scene),
    ("panning", TemporalConfig::panning_scene),
];
/// The id each stream is served under. The rendezvous router (seed 0,
/// two shards) puts ids 0, 1, 2, 3 on shard 0 and 4, 6, 14, 16 on
/// shard 1, so each shard serves four streams of about equal cost
/// (static and three panning; sparse, crowded and two panning) and
/// half the traffic.
const STREAM_IDS: [u64; 8] = [0, 4, 6, 1, 2, 3, 14, 16];
/// Seed of stream 0's scene; stream `k` uses `SCENE_SEED + k`.
const SCENE_SEED: u64 = 0x5CE4E;
const SCENE_WIDTH: usize = 208;
const SCENE_HEIGHT: usize = 160;
/// Offered rates of the three phases, frames per second: well under,
/// under, and well past what the two shards serve on two cores (about
/// 110/s).
const RATES_HZ: [f64; 3] = [10.0, 40.0, 160.0];
/// Share of the probe each phase gets.
const PHASE_SHARE: [f64; 3] = [0.2, 0.5, 0.3];
/// Per-rate metric names: queue wait p90, backlog high-water mark, and
/// shard imbalance.
const RATE_METRICS: [[&str; 3]; 3] = [
    ["cluster.queue_wait_ms_p90.low", "cluster.backlog_max.low", "cluster.shard_imbalance.low"],
    ["cluster.queue_wait_ms_p90.mid", "cluster.backlog_max.mid", "cluster.shard_imbalance.mid"],
    ["cluster.queue_wait_ms_p90.high", "cluster.backlog_max.high", "cluster.shard_imbalance.high"],
];
const RATE_NAMES: [&str; 3] = ["low", "mid", "high"];
/// The SLO: p90 due-to-completion latency, failed frames counted as
/// misses.
const LATENCY_LIMIT_MS: f64 = 250.0;
const SHARDS: usize = 2;
/// Served frames re-run cold through `Detector::detect`.
const ORACLE_SAMPLE: usize = 12;

/// One scheduled frame.
struct Job {
    at: Duration,
    /// Index into `STREAMS`.
    stream: usize,
    t: u64,
    scene: SynthScene,
}

impl Job {
    fn id(&self) -> StreamId {
        StreamId::new(STREAM_IDS[self.stream])
    }
}

/// The arrival schedule of each phase, frames rendered.
fn schedule(seed: u64, seconds: f64) -> Vec<Vec<Job>> {
    let videos: Vec<VideoStream> = STREAMS
        .iter()
        .enumerate()
        .map(|(k, (_, config))| {
            let mut config = config(SCENE_SEED + k as u64);
            config.synth.scene_width = SCENE_WIDTH;
            config.synth.scene_height = SCENE_HEIGHT;
            VideoStream::new(config)
        })
        .collect();
    // Frame indices run on across phases: each stream is one camera.
    let mut next_t = [0u64; STREAMS.len()];
    (0..RATES_HZ.len())
        .map(|phase| {
            let phase_s = seconds * PHASE_SHARE[phase];
            let profile = LoadProfile {
                seed: mix(seed, 50 + phase as u64),
                streams: STREAMS.len() as u32,
                rate_hz: RATES_HZ[phase],
                frames: (RATES_HZ[phase] * phase_s * 1.5) as usize + 20,
            };
            arrivals(&profile)
                .into_iter()
                .take_while(|a| (a.at_us as f64) < phase_s * 1e6)
                .map(|a| {
                    let stream = a.stream as usize;
                    let t = next_t[stream];
                    next_t[stream] += 1;
                    let scene = videos[stream].render(t);
                    Job { at: Duration::from_micros(a.at_us), stream, t, scene }
                })
                .collect()
        })
        .collect()
}

/// One served frame.
struct Record {
    phase: usize,
    job: usize,
    due: Instant,
    start: Instant,
    end: Instant,
    result: Result<StreamFrameResult, String>,
}

/// What the pacing thread saw in one phase.
#[derive(Default)]
struct PhaseLog {
    late_ms: Vec<f64>,
    backlog: Vec<usize>,
    per_shard: [usize; SHARDS],
}

/// Runs the phases: the calling thread paces arrivals, one lane thread
/// per shard serves them. Returns records sorted by (phase, job) and
/// each phase's pacing log.
fn run_phases(
    cluster: &Cluster,
    phases: &[Vec<Job>],
    tracer: &Tracer,
) -> (Vec<Record>, Vec<PhaseLog>) {
    let records = Mutex::new(Vec::new());
    let completed = AtomicUsize::new(0);
    let mut logs: Vec<PhaseLog> = phases.iter().map(|_| PhaseLog::default()).collect();
    let frame_id = |phase: usize, job: usize| ((phase as u64) << 32) | job as u64;
    std::thread::scope(|scope| {
        let mut lanes = Vec::new();
        for _ in 0..SHARDS {
            let (tx, rx) = mpsc::channel::<(usize, usize, Instant)>();
            lanes.push(tx);
            let (records, completed) = (&records, &completed);
            scope.spawn(move || {
                for (phase, job, due) in rx {
                    let j = &phases[phase][job];
                    let start = Instant::now();
                    let result =
                        tracer.record("cluster.detect_stream", None, frame_id(phase, job), || {
                            cluster.detect_stream(j.id(), &j.scene.image)
                        });
                    let end = Instant::now();
                    let result = result.map_err(|e| e.to_string());
                    let record = Record { phase, job, due, start, end, result };
                    records.lock().expect("a lane panicked while recording").push(record);
                    // Release pairs with the pacer's Acquire loads: a
                    // counted frame's record is already in `records`.
                    completed.fetch_add(1, Ordering::Release);
                }
            });
        }
        let mut handed = 0usize;
        for (phase, jobs) in phases.iter().enumerate() {
            let log = &mut logs[phase];
            let phase_start = Instant::now() + Duration::from_millis(5);
            for (job, j) in jobs.iter().enumerate() {
                let due = phase_start + j.at;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let shard = tracer.record("loadgen.handoff", None, frame_id(phase, job), || {
                    let shard = cluster.route(j.id()) as usize;
                    lanes[shard].send((phase, job, due)).expect("lane threads outlive the pacer");
                    shard
                });
                log.late_ms.push(due.elapsed().as_secs_f64() * 1e3);
                log.per_shard[shard] += 1;
                handed += 1;
                log.backlog.push(handed - completed.load(Ordering::Acquire));
            }
            // Drain before the next phase so phases do not overlap.
            while completed.load(Ordering::Acquire) < handed {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        drop(lanes);
    });
    let mut records = records.into_inner().expect("lanes joined");
    records.sort_by_key(|r| (r.phase, r.job));
    (records, logs)
}

fn ms(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

/// Runs the probe for `seconds` against a 2-shard cluster serving
/// `detector`, sets the cluster and load-generator per-layer metrics on
/// `out`, and checks a seeded sample of its frames against cold
/// detection.
pub fn probe(
    seed: u64,
    seconds: f64,
    detector: &TrainedDetector,
    tracer: &Tracer,
    out: &mut Outcome,
) {
    let config = ClusterConfig::builder()
        .shards(SHARDS as u32)
        .workers(1)
        .build()
        .expect("valid cluster config");
    let cluster = Cluster::new(&detector.to_snapshot(), config).expect("cluster builds");
    let phases = schedule(seed, seconds);
    let (records, logs) = run_phases(&cluster, &phases, tracer);
    out.attempted += records.len() as u64;
    out.failed += records.iter().filter(|r| r.result.is_err()).count() as u64;

    let engine = Detector::default();
    for i in sample_indices(mix(seed, 60), records.len(), ORACLE_SAMPLE) {
        let (r, j) = (&records[i], &phases[records[i].phase][records[i].job]);
        let oracle = engine.detect(detector, &j.scene.image);
        let result = r
            .result
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|s| check::detections(&s.detections, &oracle));
        out.check(format_args!("cluster stream {} frame {}", j.stream, j.t), result);
    }

    let mut slo = Vec::new();
    for (p, [wait, backlog, imbalance]) in RATE_METRICS.into_iter().enumerate() {
        let of_phase = || records.iter().filter(move |r| r.phase == p);
        let log = &logs[p];
        let phase = Phase {
            rate_hz: RATES_HZ[p],
            latencies_ms: of_phase()
                .filter(|r| r.result.is_ok())
                .map(|r| ms(r.due, r.end))
                .collect(),
            failed: of_phase().filter(|r| r.result.is_err()).count(),
            backlog: log.backlog.clone(),
        };
        let waits: Vec<f64> = of_phase().map(|r| ms(r.due, r.start)).collect();
        let mean = log.per_shard.iter().sum::<usize>() as f64 / SHARDS as f64;
        let max = log.per_shard.iter().copied().max().unwrap_or(0) as f64;
        out.set(wait, quantile(&waits, 0.9));
        out.set(backlog, log.backlog.iter().copied().max().unwrap_or(0) as f64);
        out.set(imbalance, if mean > 0.0 { max / mean } else { 0.0 });
        let name = RATE_NAMES[p];
        out.note(format!("cluster.{name}.rate_hz"), phase.rate_hz);
        out.note(format!("cluster.{name}.frames"), phase.latencies_ms.len() + phase.failed);
        out.note(format!("cluster.{name}.latency_p50_ms"), median(&phase.latencies_ms));
        out.note(format!("cluster.{name}.latency_p90_ms"), phase.p90_with_failures());
        out.note(format!("cluster.{name}.backlog_grew"), phase.backlog_grew());
        out.note(format!("cluster.{name}.meets_slo"), phase.meets(LATENCY_LIMIT_MS));
        slo.push(phase);
    }
    out.set("cluster.sustained_rate_hz", stats::sustained_rate(&slo, LATENCY_LIMIT_MS));
    let late: Vec<f64> = logs.iter().flat_map(|l| l.late_ms.iter().copied()).collect();
    out.set("loadgen.late_ms_p90", quantile(&late, 0.9));
    out.set("cluster.service_ms_p50", median(&tracer.durations_ms("cluster.detect_stream")));
    let routes: Vec<String> =
        STREAM_IDS.iter().map(|&id| cluster.route(StreamId::new(id)).to_string()).collect();
    out.note("cluster.shard_of_stream", routes.join(","));
    out.note("cluster.latency_limit_ms", LATENCY_LIMIT_MS);
}
