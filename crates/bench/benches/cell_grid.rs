//! Level-grid-vs-per-patch timing for the cells stage.
//!
//! Times `Extractor::cell_grid` (one gradient or pixel-plane pass over
//! the level, every cell histogrammed from it) against the per-patch
//! oracle (`cell_histogram` of each cell's own `cell_patch`) on one
//! 208×160 pyramid level — the full-resolution level of a perfbench
//! serve-eedn frame — for each software HoG extractor whose grid is a
//! level pass. Verifies the two grids agree bit for bit before timing
//! and writes `results/BENCH_cells.json` with the measured speedups,
//! each row tagged with the machine and kernel backend it ran on.
//!
//! Flags (`--test`, `--check [path]`) as in [`pcnn_bench::harness`].

use pcnn_bench::harness::{machine, time_pair, BenchArgs, Speedup};
use pcnn_core::Extractor;
use pcnn_hog::cell::{cell_patch, CELL_SIZE};
use pcnn_hog::BlockNorm;
use pcnn_vision::{GrayImage, SynthConfig, SynthDataset};
use std::hint::black_box;

/// Level size: perfbench serve-eedn's scene, its pyramid's first level.
const LEVEL_WIDTH: usize = 208;
const LEVEL_HEIGHT: usize = 160;

/// One timed comparison, as recorded in `results/BENCH_cells.json`.
#[derive(serde::Serialize)]
struct BenchResult {
    name: String,
    /// Level width and height in pixels, cells across and down, bins.
    dims: Vec<usize>,
    /// The kernel backend of the host. The cells stage itself runs no
    /// kernel code; the tag keeps rows comparable across benches.
    backend: String,
    /// What `per_patch_ms` timed: one `cell_histogram` per cell patch.
    baseline: String,
    per_patch_ms: f64,
    grid_ms: f64,
    speedup: f64,
    /// Logical CPUs and CPU model of the host the row was measured on.
    machine: String,
}

impl Speedup for BenchResult {
    fn name(&self) -> &str {
        &self.name
    }
    fn speedup(&self) -> f64 {
        self.speedup
    }
}

/// The per-patch oracle: every cell histogrammed from its own patch.
fn per_patch(extractor: &Extractor, img: &GrayImage) -> Vec<Vec<Vec<f32>>> {
    let (cells_x, cells_y) = (img.width() / CELL_SIZE, img.height() / CELL_SIZE);
    (0..cells_y)
        .map(|cy| {
            (0..cells_x)
                .map(|cx| extractor.cell_histogram(&cell_patch(img, 0, 0, cx, cy)))
                .collect()
        })
        .collect()
}

fn bits(grid: &[Vec<Vec<f32>>]) -> Vec<u32> {
    grid.iter().flatten().flatten().map(|v| v.to_bits()).collect()
}

fn bench_case(name: &str, extractor: &Extractor, img: &GrayImage, reps: usize) -> BenchResult {
    let (cells_x, cells_y) = (img.width() / CELL_SIZE, img.height() / CELL_SIZE);
    let level = |e: &Extractor| e.cell_grid(img, 0, 0, cells_x, cells_y);
    // Correctness gate before timing: the level pass must reproduce the
    // per-patch oracle on every cell.
    assert_eq!(bits(&level(extractor)), bits(&per_patch(extractor, img)), "{name}: grids differ");

    let (patch_s, grid_s) = time_pair(
        reps,
        || {
            black_box(per_patch(extractor, black_box(img)));
        },
        || {
            black_box(level(black_box(extractor)));
        },
    );
    let speedup = patch_s / grid_s;
    let backend = pcnn_kernels::backend_label();
    println!(
        "bench: cells/{name:<28} [{backend}] per-patch {:>8.3}ms  grid {:>8.3}ms  speedup {speedup:>6.2}x",
        patch_s * 1e3,
        grid_s * 1e3,
    );
    BenchResult {
        name: name.to_string(),
        dims: vec![img.width(), img.height(), cells_x, cells_y, extractor.bins()],
        backend: backend.to_string(),
        baseline: "per_patch".to_string(),
        per_patch_ms: patch_s * 1e3,
        grid_ms: grid_s * 1e3,
        speedup,
        machine: machine(),
    }
}

fn main() {
    let args = BenchArgs::parse("BENCH_cells.json");
    let reps = args.reps(20);

    let data = SynthDataset::new(SynthConfig {
        scene_width: LEVEL_WIDTH,
        scene_height: LEVEL_HEIGHT,
        ..SynthConfig::default()
    });
    let img = data.test_scene(0).image;

    let cases = [
        ("napprox_fp_208x160", Extractor::napprox_fp(BlockNorm::None)),
        ("napprox_q64_208x160", Extractor::napprox_quantized(64, BlockNorm::None)),
        ("traditional_208x160", Extractor::traditional()),
        ("fpga_208x160", Extractor::fpga()),
    ];
    let results: Vec<BenchResult> =
        cases.iter().map(|(name, e)| bench_case(name, e, &img, reps)).collect();

    args.finish("cell_grid", results);
}
