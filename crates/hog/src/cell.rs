//! The cell abstraction shared by every extractor variant.
//!
//! HoG divides the image into cells of 8×8 pixels; each cell produces one
//! orientation histogram. Because the centered derivative needs a 1-pixel
//! border, a cell's histogram is computed from a 10×10 pixel patch ("to
//! compute the 8×8 gradient matrix for a cell, 10×10 pixels are fed to
//! HoG" — §4). Every extractor in this workspace — traditional, FPGA,
//! NApprox, and the trained Parrot network — implements [`CellExtractor`],
//! which is what lets the detection pipeline swap them freely.

use pcnn_vision::GrayImage;

/// Cell side length in pixels.
pub const CELL_SIZE: usize = 8;
/// Side length of the padded input patch a cell extractor receives.
pub const PATCH_SIZE: usize = 10;

/// A feature extractor that maps one padded 10×10 cell patch to an
/// orientation histogram.
pub trait CellExtractor {
    /// Number of orientation bins the extractor produces.
    fn bins(&self) -> usize;

    /// Computes the histogram of one cell.
    ///
    /// `patch` must be a [`PATCH_SIZE`]×[`PATCH_SIZE`] image whose central
    /// 8×8 region is the cell; the outer ring provides derivative context.
    ///
    /// # Panics
    ///
    /// Implementations panic if `patch` is not 10×10.
    fn cell_histogram(&self, patch: &GrayImage) -> Vec<f32>;

    /// A short human-readable name for reports.
    fn name(&self) -> &str;

    /// Computes the per-cell histograms of a `cells_x × cells_y` grid
    /// whose top-left pixel is `(x0, y0)` in `img`, returned row-major
    /// as `grid[cy][cx]`. Pixels beyond the image replicate the border.
    ///
    /// The provided body histograms each cell's
    /// [`cell_patch`] in turn. The software HoG extractors override it
    /// with one gradient pass over the whole region, which every cell
    /// then reads; an override must equal the per-patch result bit for
    /// bit.
    fn cell_grid(
        &self,
        img: &GrayImage,
        x0: usize,
        y0: usize,
        cells_x: usize,
        cells_y: usize,
    ) -> Vec<Vec<Vec<f32>>> {
        grid_of(cells_x, cells_y, |cx, cy| self.cell_histogram(&cell_patch(img, x0, y0, cx, cy)))
    }
}

impl<T: CellExtractor + ?Sized> CellExtractor for &T {
    fn bins(&self) -> usize {
        (**self).bins()
    }
    fn cell_histogram(&self, patch: &GrayImage) -> Vec<f32> {
        (**self).cell_histogram(patch)
    }
    fn name(&self) -> &str {
        (**self).name()
    }
    fn cell_grid(
        &self,
        img: &GrayImage,
        x0: usize,
        y0: usize,
        cells_x: usize,
        cells_y: usize,
    ) -> Vec<Vec<Vec<f32>>> {
        (**self).cell_grid(img, x0, y0, cells_x, cells_y)
    }
}

/// A `cells_x × cells_y` grid, `grid[cy][cx] = cell(cx, cy)`, built in
/// row-major order.
fn grid_of(
    cells_x: usize,
    cells_y: usize,
    mut cell: impl FnMut(usize, usize) -> Vec<f32>,
) -> Vec<Vec<Vec<f32>>> {
    (0..cells_y).map(|cy| (0..cells_x).map(|cx| cell(cx, cy)).collect()).collect()
}

/// A software extractor that histograms every cell from one field
/// computed over a whole region: gradients or quantized pixels, plus
/// the direction tables. A grid computes the field once and every cell
/// reads it; a single patch is the one-cell region.
///
/// This is exact. A region is cropped with the same border replication
/// as [`cell_patch`], so the pixels of a cell and its 1-px ring are the
/// same values in the region as in the cell's own patch, and so are the
/// differences of them.
pub(crate) trait RegionExtractor {
    /// What is computed once per region.
    type Field;

    /// Computes the field of `region`. Its outermost pixel ring is
    /// derivative context only: no cell reads a gradient there.
    fn field(&self, region: &GrayImage) -> Self::Field;

    /// The histogram of the 8×8 cell whose top-left pixel is `(x, y)` in
    /// field coordinates. The cell and its 1-px ring lie inside the
    /// field.
    fn cell_at(&self, field: &Self::Field, x: usize, y: usize) -> Vec<f32>;
}

/// [`CellExtractor::cell_histogram`] for a [`RegionExtractor`]: the patch
/// is the region of its one cell.
///
/// # Panics
///
/// Panics if `patch` is not [`PATCH_SIZE`]×[`PATCH_SIZE`].
pub(crate) fn region_histogram<E: RegionExtractor>(extractor: &E, patch: &GrayImage) -> Vec<f32> {
    check_patch(patch);
    extractor.cell_at(&extractor.field(patch), 1, 1)
}

/// [`CellExtractor::cell_grid`] for a [`RegionExtractor`]: one field over
/// the grid's pixels plus a 1-px border-replicated ring.
pub(crate) fn region_grid<E: RegionExtractor>(
    extractor: &E,
    img: &GrayImage,
    x0: usize,
    y0: usize,
    cells_x: usize,
    cells_y: usize,
) -> Vec<Vec<Vec<f32>>> {
    let region = img.crop(
        x0 as isize - 1,
        y0 as isize - 1,
        cells_x * CELL_SIZE + 2,
        cells_y * CELL_SIZE + 2,
    );
    let field = extractor.field(&region);
    grid_of(cells_x, cells_y, |cx, cy| {
        extractor.cell_at(&field, cx * CELL_SIZE + 1, cy * CELL_SIZE + 1)
    })
}

/// An image mapped pixel by pixel to integers (quantization levels,
/// 8-bit values), read by row.
pub(crate) struct IntPlane<T> {
    width: usize,
    data: Vec<T>,
}

impl<T: Copy> IntPlane<T> {
    /// Maps every pixel of `img` through `quantize`.
    pub(crate) fn map(img: &GrayImage, quantize: impl Fn(f32) -> T) -> Self {
        IntPlane { width: img.width(), data: img.pixels().iter().map(|&v| quantize(v)).collect() }
    }

    /// The values of row `y`.
    #[inline]
    pub(crate) fn row(&self, y: usize) -> &[T] {
        &self.data[y * self.width..][..self.width]
    }
}

/// Asserts the patch contract shared by all extractors.
///
/// # Panics
///
/// Panics if `patch` is not [`PATCH_SIZE`]×[`PATCH_SIZE`].
pub fn check_patch(patch: &GrayImage) {
    assert_eq!(
        (patch.width(), patch.height()),
        (PATCH_SIZE, PATCH_SIZE),
        "cell extractors take a {PATCH_SIZE}x{PATCH_SIZE} padded patch"
    );
}

/// Extracts the padded patch for the cell whose top-left pixel (in cell
/// coordinates of the *window*) is `(cell_x, cell_y)`, from a window whose
/// top-left pixel in `img` is `(x0, y0)`. Pixels beyond the image
/// replicate the border.
pub fn cell_patch(
    img: &GrayImage,
    x0: usize,
    y0: usize,
    cell_x: usize,
    cell_y: usize,
) -> GrayImage {
    let px = x0 as isize + (cell_x * CELL_SIZE) as isize - 1;
    let py = y0 as isize + (cell_y * CELL_SIZE) as isize - 1;
    img.crop(px, py, PATCH_SIZE, PATCH_SIZE)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct MeanExtractor;

    impl CellExtractor for MeanExtractor {
        fn bins(&self) -> usize {
            1
        }
        fn cell_histogram(&self, patch: &GrayImage) -> Vec<f32> {
            check_patch(patch);
            vec![patch.mean()]
        }
        fn name(&self) -> &str {
            "mean"
        }
    }

    #[test]
    fn cell_patch_is_padded() {
        let img = GrayImage::from_fn(32, 32, |x, y| (x + y) as f32);
        let p = cell_patch(&img, 8, 8, 0, 0);
        assert_eq!((p.width(), p.height()), (10, 10));
        // Patch pixel (1,1) is window pixel (0,0) = image pixel (8,8).
        assert_eq!(p.get(1, 1), 16.0);
        // Patch pixel (0,0) is image pixel (7,7).
        assert_eq!(p.get(0, 0), 14.0);
    }

    #[test]
    fn window_grid_shape() {
        let img = GrayImage::new(64, 128);
        let grid = MeanExtractor.cell_grid(&img, 0, 0, 8, 16);
        assert_eq!(grid.len(), 16);
        assert_eq!(grid[0].len(), 8);
        assert_eq!(grid[0][0].len(), 1);
    }

    #[test]
    fn grid_cells_see_right_pixels() {
        // Mark exactly one cell bright; only that grid entry responds.
        let mut img = GrayImage::new(64, 128);
        for y in 0..8 {
            for x in 0..8 {
                img.set(16 + x, 24 + y, 1.0); // cell (2, 3)
            }
        }
        let grid = MeanExtractor.cell_grid(&img, 0, 0, 8, 16);
        let mut bright = Vec::new();
        for (cy, row) in grid.iter().enumerate() {
            for (cx, h) in row.iter().enumerate() {
                if h[0] > 0.3 {
                    bright.push((cx, cy));
                }
            }
        }
        assert_eq!(bright, vec![(2, 3)]);
    }

    #[test]
    #[should_panic(expected = "padded patch")]
    fn check_patch_rejects_wrong_size() {
        check_patch(&GrayImage::new(8, 8));
    }

    #[test]
    fn trait_object_compatible() {
        let e: &dyn CellExtractor = &MeanExtractor;
        assert_eq!(e.bins(), 1);
        assert_eq!(e.name(), "mean");
    }
}
