//! Centered-difference image gradients.
//!
//! Dalal & Triggs found the simple centered 1-D point derivative
//! `[-1, 0, 1]` (and its transpose) optimal for pedestrian HoG. Following
//! the paper's Figure 2 convention, for the 3×3 neighbourhood around a
//! pixel:
//!
//! ```text
//! P0 P1 P2
//! P3 P4 P5      Ix = P5 − P3,   Iy = P1 − P7
//! P6 P7 P8
//! ```
//!
//! so `Iy` is positive when the pixel *above* is brighter (a y-axis that
//! points up in gradient space while image rows grow downward).

use pcnn_vision::GrayImage;

/// The x- and y-gradients of an image, border-replicated.
#[derive(Debug, Clone, PartialEq)]
pub struct GradientField {
    width: usize,
    height: usize,
    gx: Vec<f32>,
    gy: Vec<f32>,
}

impl GradientField {
    /// Computes centered gradients of `img`.
    pub fn compute(img: &GrayImage) -> Self {
        let (w, h) = (img.width(), img.height());
        let px = img.pixels();
        let mut gx = vec![0.0; w * h];
        let mut gy = vec![0.0; w * h];
        for y in 0..h {
            let row = &px[y * w..][..w];
            let up = &px[y.saturating_sub(1) * w..][..w];
            let down = &px[(y + 1).min(h - 1) * w..][..w];
            for x in 0..w {
                gx[y * w + x] = row[(x + 1).min(w - 1)] - row[x.saturating_sub(1)];
                gy[y * w + x] = up[x] - down[x];
            }
        }
        GradientField { width: w, height: h, gx, gy }
    }

    /// Field width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Field height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// `(Ix, Iy)` at a pixel.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of bounds.
    #[inline]
    pub fn at(&self, x: usize, y: usize) -> (f32, f32) {
        assert!(x < self.width && y < self.height, "gradient ({x},{y}) out of bounds");
        (self.gx[y * self.width + x], self.gy[y * self.width + x])
    }

    /// The `Ix` and `Iy` values of pixel row `y`, for loops that read a
    /// span of a row rather than one asserted pixel at a time.
    ///
    /// # Panics
    ///
    /// Panics if `y` is out of bounds.
    #[inline]
    pub(crate) fn row(&self, y: usize) -> (&[f32], &[f32]) {
        let span = y * self.width..(y + 1) * self.width;
        (&self.gx[span.clone()], &self.gy[span])
    }

    /// Euclidean gradient magnitude at a pixel.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of bounds.
    pub fn magnitude(&self, x: usize, y: usize) -> f32 {
        let (gx, gy) = self.at(x, y);
        magnitude(gx, gy)
    }

    /// Gradient angle in radians in `[0, 2π)`, measured counter-clockwise
    /// from the +x axis.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of bounds.
    pub fn angle(&self, x: usize, y: usize) -> f32 {
        let (gx, gy) = self.at(x, y);
        angle(gx, gy)
    }
}

/// Euclidean magnitude of the gradient `(gx, gy)`.
#[inline]
pub(crate) fn magnitude(gx: f32, gy: f32) -> f32 {
    (gx * gx + gy * gy).sqrt()
}

/// Angle of the gradient `(gx, gy)` in radians in `[0, 2π)`, measured
/// counter-clockwise from the +x axis.
#[inline]
pub(crate) fn angle(gx: f32, gy: f32) -> f32 {
    let a = gy.atan2(gx);
    if a < 0.0 {
        a + 2.0 * std::f32::consts::PI
    } else {
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f32::consts::PI;

    /// Horizontal luminance ramp: brightness increases with x.
    fn ramp_x() -> GrayImage {
        GrayImage::from_fn(8, 8, |x, _| x as f32 / 8.0)
    }

    /// Vertical ramp: brightness increases with y (downwards).
    fn ramp_y() -> GrayImage {
        GrayImage::from_fn(8, 8, |_, y| y as f32 / 8.0)
    }

    #[test]
    fn ramp_x_has_pure_x_gradient() {
        let g = GradientField::compute(&ramp_x());
        let (gx, gy) = g.at(4, 4);
        assert!((gx - 2.0 / 8.0).abs() < 1e-6);
        assert_eq!(gy, 0.0);
        assert!((g.angle(4, 4) - 0.0).abs() < 1e-6);
    }

    #[test]
    fn ramp_y_gradient_points_down_in_image_up_in_math() {
        let g = GradientField::compute(&ramp_y());
        let (gx, gy) = g.at(4, 4);
        assert_eq!(gx, 0.0);
        // Brighter below => P1 (above) darker than P7 (below) => Iy < 0.
        assert!(gy < 0.0);
        assert!((g.angle(4, 4) - 3.0 * PI / 2.0).abs() < 1e-5);
    }

    #[test]
    fn diagonal_ramp_angle() {
        let img = GrayImage::from_fn(9, 9, |x, y| (x as f32 - y as f32) / 16.0 + 0.5);
        let g = GradientField::compute(&img);
        // d/dx > 0, d/dy(image down) < 0 -> Iy > 0 -> angle 45 deg.
        assert!((g.angle(4, 4) - PI / 4.0).abs() < 1e-5);
    }

    #[test]
    fn constant_image_zero_gradient() {
        let img = GrayImage::from_fn(6, 6, |_, _| 0.3);
        let g = GradientField::compute(&img);
        for y in 0..6 {
            for x in 0..6 {
                assert_eq!(g.at(x, y), (0.0, 0.0));
                assert_eq!(g.magnitude(x, y), 0.0);
            }
        }
    }

    #[test]
    fn border_uses_replication() {
        let g = GradientField::compute(&ramp_x());
        // At x=0 the left neighbour replicates, halving the step.
        let (gx0, _) = g.at(0, 4);
        let (gx4, _) = g.at(4, 4);
        assert!((gx0 - gx4 / 2.0).abs() < 1e-6);
    }

    #[test]
    fn magnitude_is_euclidean() {
        let img = GrayImage::from_fn(9, 9, |x, y| (x + y) as f32 / 32.0);
        let g = GradientField::compute(&img);
        let (gx, gy) = g.at(4, 4);
        assert!((g.magnitude(4, 4) - (gx * gx + gy * gy).sqrt()).abs() < 1e-7);
    }
}
