//! One trace snapshot per cluster report: shard reports carry no trace
//! summary (spans from every shard land in one process-global tracer),
//! and the cluster report's single snapshot is fresh — it counts every
//! frame served so far.
//!
//! Alone in its own test binary: the tracer is process-global, so a
//! concurrently running test would add spans to the counts below.

use pcnn_cluster::{Cluster, ClusterConfig};
use pcnn_core::pipeline::TrainedDetector;
use pcnn_core::{Extractor, StreamId, WindowClassifier};
use pcnn_hog::BlockNorm;
use pcnn_svm::{train, FeatureScaler, TrainConfig};
use pcnn_trace::{stages, Clock, Tracer};
use pcnn_vision::{SynthConfig, SynthDataset, TemporalConfig, VideoStream};

fn small_detector() -> TrainedDetector {
    let ds = SynthDataset::new(SynthConfig::default());
    let extractor = Extractor::napprox_fp(BlockNorm::L2);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for i in 0..12 {
        xs.push(extractor.crop_descriptor(&ds.train_positive(i)));
        ys.push(true);
        xs.push(extractor.crop_descriptor(&ds.train_negative(i)));
        ys.push(false);
    }
    let scaler = FeatureScaler::fit(&xs);
    let model = train(&scaler.apply_all(&xs), &ys, TrainConfig::default());
    TrainedDetector { extractor, classifier: WindowClassifier::Svm { model, scaler } }
}

#[test]
fn cluster_report_carries_the_one_fresh_trace_snapshot() {
    let snapshot = small_detector().to_snapshot();
    let config = ClusterConfig::builder().shards(2).workers(2).build().unwrap();
    let cluster = Cluster::new(&snapshot, config).unwrap();
    let video = VideoStream::new(TemporalConfig::sparse_scene(1));
    let stream = StreamId::new(0);

    let _tracer = Tracer::install(Clock::mock());
    const FRAMES: u64 = 4;
    for t in 0..FRAMES {
        cluster.detect_stream(stream, &video.render(t).image).expect("clean frame serves");
    }
    let report = cluster.report();
    Tracer::uninstall();

    assert_eq!(report.aggregate.frames_served, FRAMES);
    for shard in &report.shards {
        assert!(shard.report.trace.is_none(), "shard {} carries a trace summary", shard.shard);
    }
    assert!(report.aggregate.trace.is_none(), "the aggregate carries no second snapshot");
    let trace = report.trace.expect("a tracer was installed");
    let batches = trace
        .stages
        .iter()
        .find(|stage| stage.name == stages::RUNTIME_BATCH)
        .map_or(0, |stage| stage.count);
    assert_eq!(batches, FRAMES, "one runtime.batch span per frame served");
}
