//! Batched window scoring against its oracles, on the paper-sized Eedn
//! classifier (7560 → 240 → 120 → 2).
//!
//! * `score_batch` over `n` descriptors is **bit-identical** to
//!   per-window `score`, for batch sizes around the detector's
//!   `WINDOW_BATCH` and for a whole pyramid level through
//!   `Detector::score_rows`;
//! * `GroupedLinear` inference from its resident packed weights is
//!   bit-identical to `pcnn_eedn::reference::grouped_linear_forward`, and
//!   stays so after every way the weights can change (a training step,
//!   `debug_set_shadow_weights`, a serialization round trip).

use pcnn_core::pipeline::{Detector, TrainedDetector, WINDOW_BATCH};
use pcnn_core::{EednClassifier, EednClassifierConfig, Extractor, WindowClassifier};
use pcnn_eedn::reference::grouped_linear_forward;
use pcnn_eedn::{GroupedLinear, Layer, Scratch, Tensor};
use pcnn_hog::block::assemble_descriptor_into;
use pcnn_hog::cell::CELL_SIZE;
use pcnn_hog::BlockNorm;
use pcnn_vision::{SynthConfig, SynthDataset, WINDOW_HEIGHT, WINDOW_WIDTH};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A paper-sized Eedn detector and one pyramid level to score.
struct Fixture {
    /// NApprox(fp) cells, L2 blocks, 18 bins → 7560-dim descriptors,
    /// feeding a briefly trained Eedn classifier.
    detector: TrainedDetector,
    /// The cell grid of a test scene's first pyramid level.
    grid: Vec<Vec<Vec<f32>>>,
    /// Every window descriptor of that level, in (row, column) order.
    level: Vec<Vec<f32>>,
}

fn fixture() -> Fixture {
    let data = SynthDataset::new(SynthConfig::default());
    let extractor = Extractor::napprox_fp(BlockNorm::L2);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for i in 0..16 {
        xs.push(extractor.crop_descriptor(&data.train_positive(i)));
        ys.push(true);
        xs.push(extractor.crop_descriptor(&data.train_negative(i)));
        ys.push(false);
    }
    let classifier = EednClassifier::train(
        &xs,
        &ys,
        EednClassifierConfig { epochs: 2, ..EednClassifierConfig::default() },
    );
    assert_eq!(classifier.in_dim(), 7560, "paper-sized descriptor");

    let grid = Detector::cell_grid(&extractor, &data.test_scene(0).image);
    let (wx, wy) = (WINDOW_WIDTH / CELL_SIZE, WINDOW_HEIGHT / CELL_SIZE);
    let mut level = Vec::new();
    for cy0 in 0..Detector::window_rows(&grid) {
        for cx0 in 0..=grid[0].len() - wx {
            let mut d = Vec::new();
            assemble_descriptor_into(&grid[cy0..cy0 + wy], cx0, wx, BlockNorm::L2, &mut d);
            level.push(d);
        }
    }
    let detector =
        TrainedDetector { extractor, classifier: WindowClassifier::Eedn(Box::new(classifier)) };
    Fixture { detector, grid, level }
}

#[test]
fn score_batch_equals_per_window_score_bit_for_bit() {
    let Fixture { detector, grid, level } = fixture();
    let classifier = &detector.classifier;
    assert!(level.len() > 157, "a level of {} windows", level.len());
    let per_window: Vec<f32> = level.iter().map(|d| classifier.score(d)).collect();

    // One scratch and one buffer across every batch, as the detector
    // reuses them: stale contents must not leak between batches.
    let mut scratch = Scratch::default();
    let mut buf = Vec::new();
    for n in [1, WINDOW_BATCH - 1, WINDOW_BATCH, WINDOW_BATCH + 1, 157, level.len()] {
        buf.clear();
        for d in &level[..n] {
            buf.extend_from_slice(d);
        }
        let batched = classifier.score_batch(&mut buf, &mut scratch);
        assert_eq!(bits(&batched), bits(&per_window[..n]), "batch of {n}");
        assert_eq!(buf.len(), n * 7560, "the buffer comes back with its rows");
    }

    // A whole level through the detector: WINDOW_BATCH chunks, same
    // scores and same (row, column) order as a per-window scan.
    let engine = Detector::default();
    let floor = engine.config().score_floor;
    let raw = engine.score_rows(&detector, &grid, 1.0, 0..Detector::window_rows(&grid));
    let want: Vec<f32> = per_window.iter().copied().filter(|&s| s >= floor).collect();
    let got: Vec<f32> = raw.iter().map(|d| d.score).collect();
    assert_eq!(bits(&got), bits(&want), "score_rows over a full level");
}

#[test]
fn svm_score_batch_equals_per_window_score() {
    let Fixture { level, .. } = fixture();
    let descriptors = &level[..WINDOW_BATCH + 1];
    let labels: Vec<bool> = (0..descriptors.len()).map(|i| i % 3 == 0).collect();
    let scaler = pcnn_svm::FeatureScaler::fit(descriptors);
    let model = pcnn_svm::train(&scaler.apply_all(descriptors), &labels, Default::default());
    let svm = WindowClassifier::Svm { model, scaler };
    let mut buf: Vec<f32> = descriptors.concat();
    let batched = svm.score_batch(&mut buf, &mut Scratch::default());
    let per_window: Vec<f32> = descriptors.iter().map(|d| svm.score(d)).collect();
    assert_eq!(bits(&batched), bits(&per_window));
}

/// The paper's first classifier layer: 60 groups of 126 inputs.
fn paper_layer(seed: u64) -> GroupedLinear {
    GroupedLinear::new(7560, 240, 60, true, seed)
}

fn rand_input(rng: &mut SmallRng, batch: usize, dim: usize) -> Tensor {
    Tensor::from_vec(&[batch, dim], (0..batch * dim).map(|_| rng.random_range(-1.0..1.0)).collect())
}

/// Infers twice (building, then reading, the resident packs) and checks
/// both against the reference on the layer's current weights.
fn assert_matches_reference(layer: &GroupedLinear, x: &Tensor, what: &str) {
    let (_, want) = grouped_linear_forward(
        &layer.spec(),
        &layer.effective_weights(),
        layer.alpha(),
        layer.bias(),
        x,
    );
    let mut scratch = Scratch::default();
    for pass in 0..2 {
        let got = layer.infer_with(x, &mut scratch);
        assert_eq!(bits(got.data()), bits(want.data()), "{what}, pass {pass}");
    }
}

#[test]
fn resident_packs_match_the_reference() {
    let mut rng = SmallRng::seed_from_u64(0x7560);
    let layer = paper_layer(1);
    for batch in [1, WINDOW_BATCH, WINDOW_BATCH + 1] {
        let x = rand_input(&mut rng, batch, 7560);
        assert_matches_reference(&layer, &x, &format!("batch {batch}"));
    }
}

#[test]
fn a_training_step_invalidates_the_packs() {
    let mut rng = SmallRng::seed_from_u64(0x57e9);
    let mut layer = paper_layer(2);
    let x = rand_input(&mut rng, 8, 7560);
    let before = layer.effective_weights();

    let y = layer.forward(&x, true);
    layer.backward(&y);
    // Infer between backward and step, so the packs the step must drop
    // were built after the training forward dropped its own.
    assert_matches_reference(&layer, &x, "before the step");
    layer.step(0.5, 0.9);
    assert_ne!(layer.effective_weights(), before, "the step must change deployed weights");
    assert_matches_reference(&layer, &x, "after the step");
}

#[test]
fn new_shadow_weights_invalidate_the_packs() {
    let mut rng = SmallRng::seed_from_u64(0x5ad0);
    let mut layer = paper_layer(3);
    let x = rand_input(&mut rng, 8, 7560);
    assert_matches_reference(&layer, &x, "initial weights");
    let shadows: Vec<f32> =
        (0..layer.effective_weights().len()).map(|_| rng.random_range(-1.0..1.0)).collect();
    layer.debug_set_shadow_weights(&shadows);
    assert_matches_reference(&layer, &x, "after debug_set_shadow_weights");
}

#[test]
fn a_restored_layer_packs_its_own_weights() {
    let mut rng = SmallRng::seed_from_u64(0x4e57);
    let x = rand_input(&mut rng, 8, 7560);
    let trained = {
        let mut layer = paper_layer(4);
        assert_matches_reference(&layer, &x, "before training");
        let y = layer.forward(&x, true);
        layer.backward(&y);
        layer.step(0.5, 0.9);
        layer
    };
    let json = serde_json::to_string(&trained).unwrap();
    let restored: GroupedLinear = serde_json::from_str(&json).unwrap();
    assert_eq!(restored.effective_weights(), trained.effective_weights());
    assert_matches_reference(&restored, &x, "after a serde round trip");
}
