//! Window-level HoG descriptors: cell grid + optional block normalization.

use crate::block::{assemble_descriptor, descriptor_len, BlockNorm};
use crate::cell::{CellExtractor, CELL_SIZE};
use pcnn_vision::{GrayImage, WINDOW_HEIGHT, WINDOW_WIDTH};

/// Cells across a standard detection window.
pub const WINDOW_CELLS_X: usize = WINDOW_WIDTH / CELL_SIZE; // 8
/// Cells down a standard detection window.
pub const WINDOW_CELLS_Y: usize = WINDOW_HEIGHT / CELL_SIZE; // 16

/// A complete window descriptor pipeline around any [`CellExtractor`].
///
/// # Example
///
/// ```
/// use pcnn_hog::{HogDescriptor, NApproxHog, BlockNorm};
/// use pcnn_vision::GrayImage;
///
/// let hog = HogDescriptor::new(NApproxHog::full_precision(), BlockNorm::L2);
/// let img = GrayImage::from_fn(64, 128, |x, y| ((x + y) % 13) as f32 / 13.0);
/// let d = hog.window_descriptor(&img, 0, 0);
/// assert_eq!(d.len(), hog.len());
/// assert_eq!(d.len(), 7560); // 7 x 15 x 18 x 4
/// ```
#[derive(Debug, Clone)]
pub struct HogDescriptor<E> {
    extractor: E,
    norm: BlockNorm,
}

impl<E: CellExtractor> HogDescriptor<E> {
    /// Wraps a cell extractor with a block-normalization policy.
    pub fn new(extractor: E, norm: BlockNorm) -> Self {
        HogDescriptor { extractor, norm }
    }

    /// The wrapped extractor.
    pub fn extractor(&self) -> &E {
        &self.extractor
    }

    /// The block-normalization policy.
    pub fn norm(&self) -> BlockNorm {
        self.norm
    }

    /// The descriptor dimensionality.
    pub fn len(&self) -> usize {
        descriptor_len(WINDOW_CELLS_X, WINDOW_CELLS_Y, self.extractor.bins(), self.norm)
    }

    /// Whether the descriptor is empty (never, for valid configurations).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Computes the descriptor of the window whose top-left corner is
    /// `(x0, y0)` in `img`. The window may touch the image border; pixels
    /// sampled outside replicate the edge.
    pub fn window_descriptor(&self, img: &GrayImage, x0: usize, y0: usize) -> Vec<f32> {
        let grid = self.extractor.cell_grid(img, x0, y0, WINDOW_CELLS_X, WINDOW_CELLS_Y);
        assemble_descriptor(&grid, self.norm)
    }

    /// Computes the descriptor of an exactly window-sized crop.
    ///
    /// # Panics
    ///
    /// Panics if `crop` is not 64×128.
    pub fn crop_descriptor(&self, crop: &GrayImage) -> Vec<f32> {
        assert_eq!(
            (crop.width(), crop.height()),
            (WINDOW_WIDTH, WINDOW_HEIGHT),
            "crop must be exactly one detection window"
        );
        self.window_descriptor(crop, 0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::napprox::NApproxHog;
    use crate::traditional::TraditionalHog;

    fn textured() -> GrayImage {
        GrayImage::from_fn(80, 140, |x, y| {
            0.5 + 0.3 * ((x as f32 * 0.41).sin() * (y as f32 * 0.23).cos())
        })
    }

    #[test]
    fn classic_dimensionality() {
        let hog = HogDescriptor::new(TraditionalHog::new(), BlockNorm::L2);
        assert_eq!(hog.len(), 3780);
        assert!(!hog.is_empty());
    }

    #[test]
    fn descriptor_differs_by_window_position() {
        let hog = HogDescriptor::new(TraditionalHog::new(), BlockNorm::L2);
        let img = textured();
        let a = hog.window_descriptor(&img, 0, 0);
        let b = hog.window_descriptor(&img, 8, 8);
        assert_eq!(a.len(), b.len());
        assert_ne!(a, b);
    }

    #[test]
    fn crop_equals_window_at_origin() {
        // Use an exactly window-sized image: for interior windows the two
        // paths legitimately differ at the window rim (the full image has
        // real context where a crop must replicate its border).
        let hog = HogDescriptor::new(NApproxHog::full_precision(), BlockNorm::None);
        let img = GrayImage::from_fn(64, 128, |x, y| {
            0.5 + 0.3 * ((x as f32 * 0.41).sin() * (y as f32 * 0.23).cos())
        });
        assert_eq!(hog.crop_descriptor(&img), hog.window_descriptor(&img, 0, 0));
    }

    #[test]
    #[should_panic(expected = "one detection window")]
    fn crop_size_enforced() {
        let hog = HogDescriptor::new(TraditionalHog::new(), BlockNorm::L2);
        hog.crop_descriptor(&GrayImage::new(64, 64));
    }

    #[test]
    fn values_finite_and_bounded_under_l2() {
        let hog = HogDescriptor::new(TraditionalHog::new(), BlockNorm::L2);
        let d = hog.window_descriptor(&textured(), 4, 4);
        assert!(d.iter().all(|v| v.is_finite() && *v >= 0.0 && *v <= 1.0 + 1e-5));
    }
}
