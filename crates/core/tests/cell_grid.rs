//! The cell grid against its per-patch oracle, for every extractor kind.
//!
//! `Extractor::cell_grid` (and `Detector::cell_grid`, which delegates to
//! it) computes a region's cells in one pass for the software HoG
//! extractors and patch by patch for the rest. Either way every cell
//! must equal `cell_histogram(&cell_patch(..))` **bit for bit**:
//!
//! * at every pyramid level of seeded 208×160 scenes;
//! * on an image whose sides are not multiples of 8, where the last
//!   cells' derivative ring is real pixels rather than replicated ones;
//! * for windows at non-zero offsets, through `window_descriptor`,
//!   including windows that run past the image border.

use pcnn_core::pipeline::{Detector, DetectorConfig};
use pcnn_core::{Extractor, ExtractorKind};
use pcnn_hog::block::assemble_descriptor;
use pcnn_hog::cell::{cell_patch, CELL_SIZE};
use pcnn_hog::descriptor::{WINDOW_CELLS_X, WINDOW_CELLS_Y};
use pcnn_hog::BlockNorm;
use pcnn_parrot::{train_parrot, ParrotExtractor, ParrotTrainConfig};
use pcnn_vision::pyramid::scale_pyramid;
use pcnn_vision::{GrayImage, SynthConfig, SynthDataset};

/// One extractor of every kind, in `ExtractorKind::ALL` order. The
/// Parrot is briefly trained and deterministic: a stochastic one draws
/// noise per call, so two passes over the same cells differ by design.
fn every_kind() -> Vec<Extractor> {
    let (net, _) =
        train_parrot(ParrotTrainConfig { samples: 400, epochs: 1, ..ParrotTrainConfig::tiny() });
    let extractors = vec![
        Extractor::fpga(),
        Extractor::traditional(),
        Extractor::napprox_fp(BlockNorm::L2),
        Extractor::napprox_quantized(64, BlockNorm::None),
        Extractor::napprox_hardware(64, BlockNorm::None),
        Extractor::parrot(ParrotExtractor::new(net), BlockNorm::None),
        Extractor::raw(),
    ];
    let kinds: Vec<ExtractorKind> = extractors.iter().map(Extractor::kind).collect();
    assert_eq!(kinds, ExtractorKind::ALL, "one extractor per kind");
    extractors
}

/// The per-patch oracle: each cell histogrammed from its own patch.
fn oracle(
    extractor: &Extractor,
    img: &GrayImage,
    x0: usize,
    y0: usize,
    cells_x: usize,
    cells_y: usize,
) -> Vec<Vec<Vec<f32>>> {
    (0..cells_y)
        .map(|cy| {
            (0..cells_x)
                .map(|cx| extractor.cell_histogram(&cell_patch(img, x0, y0, cx, cy)))
                .collect()
        })
        .collect()
}

fn assert_grid_bits(got: &[Vec<Vec<f32>>], want: &[Vec<Vec<f32>>], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: rows");
    for (cy, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.len(), w.len(), "{what}: columns of row {cy}");
        for (cx, (g, w)) in g.iter().zip(w).enumerate() {
            let g: Vec<u32> = g.iter().map(|v| v.to_bits()).collect();
            let w: Vec<u32> = w.iter().map(|v| v.to_bits()).collect();
            assert_eq!(g, w, "{what}: cell ({cx}, {cy})");
        }
    }
}

/// Checks both grid entry points against the oracle on the whole image.
fn check_image(extractor: &Extractor, img: &GrayImage, what: &str) {
    let (cells_x, cells_y) = (img.width() / CELL_SIZE, img.height() / CELL_SIZE);
    let want = oracle(extractor, img, 0, 0, cells_x, cells_y);
    let what = format!("{} {what} {}x{}", extractor.kind(), img.width(), img.height());
    assert_grid_bits(&extractor.cell_grid(img, 0, 0, cells_x, cells_y), &want, &what);
    assert_grid_bits(&Detector::cell_grid(extractor, img), &want, &what);
}

#[test]
fn level_grids_match_the_oracle_at_every_pyramid_level() {
    let data = SynthDataset::new(SynthConfig {
        seed: 0x5eed_ce11,
        scene_width: 208,
        scene_height: 160,
        ..SynthConfig::default()
    });
    let pyramid_config = DetectorConfig::default().pyramid;
    let extractors = every_kind();
    for i in 0..2 {
        let pyramid = scale_pyramid(&data.test_scene(i).image, pyramid_config);
        assert!(pyramid.levels.len() >= 3, "a 208x160 scene has a multi-level pyramid");
        for (l, level) in pyramid.levels.iter().enumerate() {
            for extractor in &extractors {
                check_image(extractor, &level.image, &format!("scene {i} level {l}"));
            }
        }
    }
}

#[test]
fn ragged_image_reads_real_pixels_in_the_last_ring() {
    // 211x157 holds 26x19 complete cells; the column x = 208 and the
    // row y = 152 are the last cells' derivative ring, and real pixels.
    let img = GrayImage::from_fn(211, 157, |x, y| {
        0.5 + 0.4 * ((x as f32 * 0.37).sin() * (y as f32 * 0.23).cos())
    });
    for extractor in every_kind() {
        check_image(&extractor, &img, "ragged");
    }
    // The ring matters: replicating the border instead (cropping the
    // image to its complete cells) changes the last column's cells.
    let fp = Extractor::napprox_fp(BlockNorm::L2);
    let cropped = img.crop(0, 0, 208, 152);
    let last = |g: &[Vec<Vec<f32>>]| g.iter().map(|row| row[25].clone()).collect::<Vec<_>>();
    assert_ne!(last(&Detector::cell_grid(&fp, &img)), last(&Detector::cell_grid(&fp, &cropped)));
}

#[test]
fn window_descriptors_at_offsets_match_the_oracle() {
    let img = GrayImage::from_fn(150, 170, |x, y| {
        (0.5 + 0.3 * ((x as f32 * 0.29).sin() + (y as f32 * 0.41).cos()) / 2.0)
            + 0.05 * (((x * 7 + y * 13) % 11) as f32 / 11.0)
    });
    // The last two windows run past the right and bottom borders.
    let offsets = [(0, 0), (3, 5), (17, 9), (40, 42), (120, 100)];
    for extractor in every_kind() {
        for (x0, y0) in offsets {
            let grid = oracle(&extractor, &img, x0, y0, WINDOW_CELLS_X, WINDOW_CELLS_Y);
            let want: Vec<u32> =
                assemble_descriptor(&grid, extractor.norm()).iter().map(|v| v.to_bits()).collect();
            let got: Vec<u32> =
                extractor.window_descriptor(&img, x0, y0).iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "{} window at ({x0}, {y0})", extractor.kind());
        }
    }
}
