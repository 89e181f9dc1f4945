//! The Dalal–Triggs reference HoG cell extractor.
//!
//! 9 orientation bins over 0°–180° (unsigned gradients), each pixel voting
//! its gradient magnitude, split between the two nearest bins by bilinear
//! interpolation — the "weighted voting in magnitude" with aliasing
//! mitigation that the paper's Table 1 lists as the original computation.

use crate::cell::{region_grid, region_histogram, CellExtractor, RegionExtractor, CELL_SIZE};
use crate::gradient::{angle, magnitude, GradientField};
use pcnn_vision::GrayImage;
use serde::{Deserialize, Serialize};
use std::f32::consts::PI;

/// Configuration and implementation of the reference extractor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraditionalHog {
    /// Number of orientation bins.
    pub bins: usize,
    /// Whether gradients are signed (0°–360°) or unsigned (0°–180°).
    pub signed: bool,
    /// Whether to split votes between neighbouring bins (bilinear bin
    /// interpolation). Disabling reproduces the aliasing the paper accepts
    /// in its approximation designs.
    pub interpolate: bool,
}

impl Default for TraditionalHog {
    fn default() -> Self {
        TraditionalHog { bins: 9, signed: false, interpolate: true }
    }
}

impl TraditionalHog {
    /// The classic 9-bin unsigned configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// An 18-bin signed configuration (0°–360°), for like-for-like
    /// comparisons with NApprox.
    pub fn signed_18() -> Self {
        TraditionalHog { bins: 18, signed: true, interpolate: true }
    }

    /// The angular span of the histogram in radians.
    fn span(&self) -> f32 {
        if self.signed {
            2.0 * PI
        } else {
            PI
        }
    }
}

impl RegionExtractor for TraditionalHog {
    type Field = GradientField;

    fn field(&self, region: &GrayImage) -> GradientField {
        GradientField::compute(region)
    }

    fn cell_at(&self, g: &GradientField, x: usize, y: usize) -> Vec<f32> {
        let span = self.span();
        let bin_width = span / self.bins as f32;
        let mut hist = vec![0.0f32; self.bins];
        for row in y..y + CELL_SIZE {
            let (gx, gy) = g.row(row);
            for (&gx, &gy) in gx[x..x + CELL_SIZE].iter().zip(&gy[x..x + CELL_SIZE]) {
                let mag = magnitude(gx, gy);
                if mag == 0.0 {
                    continue;
                }
                let mut angle = angle(gx, gy);
                if !self.signed {
                    angle %= PI;
                }
                if self.interpolate {
                    // Vote split between the two nearest bin centers.
                    let pos = angle / bin_width - 0.5;
                    let lo = pos.floor();
                    let frac = pos - lo;
                    let b0 = ((lo as i64).rem_euclid(self.bins as i64)) as usize;
                    let b1 = (b0 + 1) % self.bins;
                    hist[b0] += mag * (1.0 - frac);
                    hist[b1] += mag * frac;
                } else {
                    let b = ((angle / bin_width) as usize).min(self.bins - 1);
                    hist[b] += mag;
                }
            }
        }
        hist
    }
}

impl CellExtractor for TraditionalHog {
    fn bins(&self) -> usize {
        self.bins
    }

    fn cell_histogram(&self, patch: &GrayImage) -> Vec<f32> {
        region_histogram(self, patch)
    }

    fn name(&self) -> &str {
        "traditional-hog"
    }

    fn cell_grid(
        &self,
        img: &GrayImage,
        x0: usize,
        y0: usize,
        cells_x: usize,
        cells_y: usize,
    ) -> Vec<Vec<Vec<f32>>> {
        region_grid(self, img, x0, y0, cells_x, cells_y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcnn_vision::GrayImage;

    /// A patch whose gradient is a pure x-ramp (angle 0°).
    fn ramp_x() -> GrayImage {
        GrayImage::from_fn(10, 10, |x, _| x as f32 / 10.0)
    }

    /// A patch with a diagonal ramp at 45° in gradient space.
    fn ramp_diag() -> GrayImage {
        GrayImage::from_fn(10, 10, |x, y| (x as f32 - y as f32) / 20.0 + 0.5)
    }

    #[test]
    fn x_ramp_votes_first_bin() {
        let hog = TraditionalHog::new();
        let h = hog.cell_histogram(&ramp_x());
        assert_eq!(h.len(), 9);
        let total: f32 = h.iter().sum();
        assert!(total > 0.0);
        // Angle 0 sits at the boundary of bin 0's center-aligned support:
        // half the mass goes to bin 0, half wraps to the last bin.
        let edge_mass = h[0] + h[8];
        assert!(edge_mass / total > 0.99, "hist = {h:?}");
    }

    #[test]
    fn diagonal_ramp_votes_45_degrees() {
        let hog = TraditionalHog::new();
        let h = hog.cell_histogram(&ramp_diag());
        // 45 deg / 20 deg per bin = bin position 2.25 -> bins 1 and 2,
        // mostly bin 2.
        let max_bin = h.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
        assert_eq!(max_bin, 2, "hist = {h:?}");
        assert!(h[1] > 0.0, "interpolation spreads to neighbour");
    }

    #[test]
    fn constant_patch_is_empty() {
        let hog = TraditionalHog::new();
        let h = hog.cell_histogram(&GrayImage::from_fn(10, 10, |_, _| 0.6));
        assert!(h.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn unsigned_folds_opposite_gradients_together() {
        let hog = TraditionalHog::new();
        let up = hog.cell_histogram(&ramp_x());
        let down = hog.cell_histogram(&GrayImage::from_fn(10, 10, |x, _| 1.0 - x as f32 / 10.0));
        for (a, b) in up.iter().zip(&down) {
            assert!((a - b).abs() < 1e-4, "unsigned HoG folds 0 and 180");
        }
    }

    #[test]
    fn signed_separates_opposite_gradients() {
        // Tilt the ramp a few degrees off axis so no vote lands exactly on
        // a bin boundary (ties there are split between two bins).
        let tilted = |sign: f32| {
            GrayImage::from_fn(10, 10, |x, y| 0.5 + sign * (0.04 * x as f32 + 0.004 * y as f32))
        };
        let hog = TraditionalHog::signed_18();
        let up = hog.cell_histogram(&tilted(1.0));
        let down = hog.cell_histogram(&tilted(-1.0));
        assert_ne!(up, down);
        let peak_up = up.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
        let peak_down = down.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
        // 180 deg apart = 9 bins apart in an 18-bin signed histogram.
        let d = (peak_up as i32 - peak_down as i32).rem_euclid(18);
        assert_eq!(d.min(18 - d), 9, "peaks {peak_up} vs {peak_down}");
    }

    #[test]
    fn vote_mass_equals_total_magnitude() {
        // With interpolation the votes are conserved: sum(hist) equals the
        // sum of gradient magnitudes over the cell.
        let hog = TraditionalHog::new();
        let patch = ramp_diag();
        let h = hog.cell_histogram(&patch);
        let g = crate::gradient::GradientField::compute(&patch);
        let mut mass = 0.0;
        for y in 1..=8 {
            for x in 1..=8 {
                mass += g.magnitude(x, y);
            }
        }
        let total: f32 = h.iter().sum();
        assert!((total - mass).abs() < 1e-4);
    }

    #[test]
    fn no_interpolation_single_bin() {
        let hog = TraditionalHog { interpolate: false, ..TraditionalHog::new() };
        let h = hog.cell_histogram(&ramp_diag());
        let nonzero = h.iter().filter(|&&v| v > 0.0).count();
        assert_eq!(nonzero, 1, "hist = {h:?}");
    }
}
