//! The end-to-end detection pipeline.
//!
//! Methodology follows §4 of the paper: each test image is scanned with
//! 64×128 windows across a 1.1×-stepped scale pyramid; window scores come
//! from the classifier; detections are narrowed by NMS with ε = 0.2 and
//! evaluated as miss rate versus false positives per image.
//!
//! Cell histograms are computed **once per pyramid level** on an 8-px
//! grid and windows gather 8×16 blocks of them — the same factorization
//! the hardware uses (cell modules stream cells; windows are assembled
//! downstream), and the only way a trained-network extractor stays
//! tractable on full scenes.

use crate::classifier::WindowClassifier;
use crate::extractor::Extractor;
use pcnn_eedn::Scratch;
use pcnn_hog::block::assemble_descriptor_into;
use pcnn_hog::cell::CELL_SIZE;
use pcnn_vision::pyramid::{scale_pyramid, PyramidConfig};
use pcnn_vision::{
    non_maximum_suppression, BoundingBox, Detection, DetectionCurve, Evaluator, GrayImage,
    SynthScene, WINDOW_HEIGHT, WINDOW_WIDTH,
};
use serde::{Deserialize, Serialize};

/// Windows scored per classifier call by [`Detector::score_rows`] (and
/// the serving runtime's stream rescoring). One call runs the Eedn
/// network once over the whole batch, amortizing per-call work and
/// keeping the flat descriptor buffer at `64 × 7560 × 4 B ≈ 1.9 MB` for
/// the paper-sized descriptor, whatever the range being scored. Chosen
/// by measurement: larger batches are slower per window, because the
/// transposed input block of a layer group outgrows the cache (see
/// DESIGN.md "Compute kernels").
pub const WINDOW_BATCH: usize = 64;

/// Detector parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// Pyramid configuration (the paper: step 1.1, up to 15 levels).
    pub pyramid: PyramidConfig,
    /// NMS overlap threshold (the paper: ε = 0.2).
    pub nms_epsilon: f32,
    /// Score floor below which windows are discarded before NMS. Keeps
    /// curve sweeps tractable without clipping the interesting region.
    pub score_floor: f32,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig { pyramid: PyramidConfig::default(), nms_epsilon: 0.2, score_floor: -1.0 }
    }
}

/// An extractor/classifier pair ready to detect pedestrians.
#[derive(Debug)]
pub struct TrainedDetector {
    /// The feature extractor.
    pub extractor: Extractor,
    /// The trained classifier.
    pub classifier: WindowClassifier,
}

/// The detection engine.
#[derive(Debug)]
pub struct Detector {
    config: DetectorConfig,
}

impl Default for Detector {
    fn default() -> Self {
        Self::new(DetectorConfig::default())
    }
}

impl Detector {
    /// A detector with the given configuration.
    pub fn new(config: DetectorConfig) -> Self {
        Detector { config }
    }

    /// The configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// Computes the cell-histogram grid of one image: `grid[cy][cx]` for
    /// every complete 8×8 cell.
    pub fn cell_grid(extractor: &Extractor, img: &GrayImage) -> Vec<Vec<Vec<f32>>> {
        extractor.cell_grid(img, 0, 0, img.width() / CELL_SIZE, img.height() / CELL_SIZE)
    }

    /// Number of valid window start rows in a level's cell grid (0 when
    /// the level is too small to hold one window).
    pub fn window_rows(grid: &[Vec<Vec<f32>>]) -> usize {
        let window_cells_x = WINDOW_WIDTH / CELL_SIZE;
        let window_cells_y = WINDOW_HEIGHT / CELL_SIZE;
        if grid.len() < window_cells_y || grid[0].len() < window_cells_x {
            0
        } else {
            grid.len() - window_cells_y + 1
        }
    }

    /// Scores every window whose top cell row lies in `rows`, against a
    /// precomputed [`cell_grid`](Detector::cell_grid) of one pyramid
    /// level at `scale`. Returns raw (pre-NMS) detections above the
    /// score floor, in original-image coordinates, ordered row-major —
    /// the exact order the serial scan visits them. This is the work
    /// unit the serving runtime parallelizes over: concatenating chunk
    /// results in row order reproduces the serial scan bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `rows` extends past
    /// [`window_rows`](Detector::window_rows).
    pub fn score_rows(
        &self,
        detector: &TrainedDetector,
        grid: &[Vec<Vec<f32>>],
        scale: f32,
        rows: std::ops::Range<usize>,
    ) -> Vec<Detection> {
        assert!(
            rows.end <= Self::window_rows(grid),
            "row range {rows:?} exceeds {} valid window rows",
            Self::window_rows(grid)
        );
        let window_cells_x = WINDOW_WIDTH / CELL_SIZE;
        let window_cells_y = WINDOW_HEIGHT / CELL_SIZE;
        let norm = detector.extractor.norm();
        let cols = grid.first().map_or(0, |row| (row.len() + 1).saturating_sub(window_cells_x));
        let windows: Vec<(usize, usize)> =
            rows.flat_map(|cy0| (0..cols).map(move |cx0| (cy0, cx0))).collect();
        let mut raw = Vec::new();
        let mut buf = Vec::new();
        let mut scratch = Scratch::default();
        for batch in windows.chunks(WINDOW_BATCH) {
            buf.clear();
            for &(cy0, cx0) in batch {
                let rows = &grid[cy0..cy0 + window_cells_y];
                assemble_descriptor_into(rows, cx0, window_cells_x, norm, &mut buf);
            }
            let scores = detector.classifier.score_batch(&mut buf, &mut scratch);
            for (&(cy0, cx0), score) in batch.iter().zip(scores) {
                if score < self.config.score_floor {
                    continue;
                }
                let bbox = BoundingBox::new(
                    (cx0 * CELL_SIZE) as f32,
                    (cy0 * CELL_SIZE) as f32,
                    WINDOW_WIDTH as f32,
                    WINDOW_HEIGHT as f32,
                )
                .unscale(scale);
                raw.push(Detection { bbox, score });
            }
        }
        raw
    }

    /// Runs detection over one image, returning NMS-filtered detections
    /// in original-image coordinates.
    pub fn detect(&self, detector: &TrainedDetector, img: &GrayImage) -> Vec<Detection> {
        let pyramid = scale_pyramid(img, self.config.pyramid);
        let mut raw: Vec<Detection> = Vec::new();
        for level in &pyramid.levels {
            let grid = Self::cell_grid(&detector.extractor, &level.image);
            let rows = Self::window_rows(&grid);
            raw.extend(self.score_rows(detector, &grid, level.scale, 0..rows));
        }
        non_maximum_suppression(raw, self.config.nms_epsilon)
    }

    /// Evaluates a detector over a set of scenes, producing the
    /// miss-rate/FPPI curve.
    ///
    /// # Panics
    ///
    /// Panics if `scenes` is empty.
    pub fn evaluate(&self, detector: &TrainedDetector, scenes: &[SynthScene]) -> DetectionCurve {
        assert!(!scenes.is_empty(), "no scenes to evaluate");
        let mut evaluator = Evaluator::new();
        for scene in scenes {
            let detections = self.detect(detector, &scene.image);
            evaluator.add_image(&detections, &scene.pedestrians);
        }
        evaluator.curve()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcnn_hog::BlockNorm;
    use pcnn_svm::{train, FeatureScaler, TrainConfig};
    use pcnn_vision::{SynthConfig, SynthDataset};

    /// Trains a small SVM detector on NApprox(fp) features.
    fn small_detector() -> TrainedDetector {
        let ds = SynthDataset::new(SynthConfig::default());
        let extractor = Extractor::napprox_fp(BlockNorm::L2);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..60 {
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
    fn cell_grid_shape() {
        let img = GrayImage::new(80, 96);
        let grid = Detector::cell_grid(&Extractor::napprox_fp(BlockNorm::None), &img);
        assert_eq!(grid.len(), 12);
        assert_eq!(grid[0].len(), 10);
        assert_eq!(grid[0][0].len(), 18);
    }

    #[test]
    fn grid_descriptor_matches_direct_descriptor() {
        // Window assembly from the cached grid must equal the direct
        // window computation at cell-aligned offsets.
        let img = GrayImage::from_fn(96, 160, |x, y| {
            0.5 + 0.3 * ((x as f32 * 0.37).sin() * (y as f32 * 0.21).cos())
        });
        let ex = Extractor::napprox_fp(BlockNorm::L2);
        let grid = Detector::cell_grid(&ex, &img);
        let mut from_grid = Vec::new();
        assemble_descriptor_into(&grid[1..17], 2, 8, BlockNorm::L2, &mut from_grid);
        let direct = ex.window_descriptor(&img, 16, 8);
        assert_eq!(from_grid.len(), direct.len());
        for (a, b) in from_grid.iter().zip(&direct) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn detector_finds_planted_pedestrian() {
        let det = small_detector();
        let engine = Detector::default();
        let ds = SynthDataset::new(SynthConfig::default());
        // Find a scene with at least one pedestrian.
        let scene = (0..20)
            .map(|i| ds.test_scene(i))
            .find(|s| !s.pedestrians.is_empty())
            .expect("some scene has a pedestrian");
        let detections = engine.detect(&det, &scene.image);
        assert!(!detections.is_empty(), "no detections at all");
        // The best-scoring detection overlaps a true pedestrian.
        let best = &detections[0];
        let hit = scene
            .pedestrians
            .iter()
            .any(|gt| best.bbox.overlap_over(gt) >= 0.3 || best.bbox.iou(gt) >= 0.3);
        assert!(hit, "best detection {best:?} misses all of {:?}", scene.pedestrians);
    }

    #[test]
    fn evaluation_produces_curve() {
        let det = small_detector();
        let engine = Detector::default();
        let ds = SynthDataset::new(SynthConfig::default());
        let scenes: Vec<_> = (0..6).map(|i| ds.test_scene(i)).collect();
        let curve = engine.evaluate(&det, &scenes);
        assert_eq!(curve.images, 6);
        let lamr = curve.log_average_miss_rate();
        assert!((0.0..=1.0).contains(&lamr), "lamr {lamr}");
        // A trained detector must beat the blind detector (lamr 1.0).
        assert!(lamr < 0.9, "lamr {lamr}");
    }
}
