//! The FPGA baseline HoG (Advani et al., FPL 2015).
//!
//! The baseline the paper compares against is a 9-bin HoG with weighted
//! voting in magnitude, computed entirely in 16-bit fixed-point arithmetic
//! with the approximations typical of FPGA object-detection pipelines:
//!
//! * pixels are 8-bit integers;
//! * orientation binning uses cross-multiplication against a tangent
//!   look-up table (no divider, no arctangent);
//! * gradient magnitude uses the `max + min/2` approximation of the
//!   Euclidean norm (no square root, ≤ 11.8 % error);
//! * votes are magnitude-weighted with no bin interpolation.

use crate::cell::{
    region_grid, region_histogram, CellExtractor, IntPlane, RegionExtractor, CELL_SIZE,
};
use pcnn_vision::GrayImage;
use serde::{Deserialize, Serialize};

/// Fixed-point scale for the tangent LUT (Q8.8).
const TAN_SCALE: i32 = 256;

/// The fixed-point FPGA HoG cell extractor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FpgaHog {
    /// Number of unsigned orientation bins over 0°–180°.
    pub bins: usize,
}

impl Default for FpgaHog {
    fn default() -> Self {
        FpgaHog { bins: 9 }
    }
}

impl FpgaHog {
    /// The baseline 9-bin configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tangent LUT entries for the upper bin boundaries, in Q8.8.
    ///
    /// # Panics
    ///
    /// Panics if `bins` is even: an even bin count places a boundary at
    /// exactly 90°, whose tangent has no fixed-point representation. The
    /// hardware baseline uses 9 bins.
    fn tan_lut(&self) -> Vec<i32> {
        assert!(self.bins % 2 == 1, "fixed-point binning requires an odd bin count");
        (1..self.bins)
            .map(|k| {
                let deg = 180.0 * k as f64 / self.bins as f64;
                (deg.to_radians().tan() * f64::from(TAN_SCALE)).round() as i32
            })
            .collect()
    }

    /// Classifies an unsigned gradient `(|relation to x axis|)` into a bin
    /// using cross-multiplication: `|gy| · SCALE <= |gx| · tan(boundary)`.
    fn bin_of(&self, gx: i32, gy: i32, lut: &[i32]) -> usize {
        // Fold into 0..180: unsigned gradients identify (gx,gy) ~ (-gx,-gy).
        let (gx, gy) = if gx < 0 || (gx == 0 && gy < 0) { (-gx, -gy) } else { (gx, gy) };
        if gx == 0 {
            // Vertical gradient: 90 deg lands in the middle bin.
            return self.bins / 2;
        }
        // With gx > 0, t = gy/gx = tan(angle) is increasing in the angle
        // within each half: angle in [0, 90) has t >= 0, angle in (90, 180)
        // has t < 0. Boundary k+1 sits at 180(k+1)/bins degrees; boundaries
        // below 90 deg occupy LUT indices 0..bins/2-1, the rest are above.
        // Comparisons use cross multiplication: t <= tan(b) iff
        // gy * SCALE <= gx * lut[b] (gx > 0).
        // Count of boundaries strictly below 90 deg (with odd `bins` this
        // is bins/2: for 9 bins, boundaries 20..=80 deg, LUT indices 0..4).
        let below_90 = self.bins / 2;
        let cmp =
            |k: usize| i64::from(gy) * i64::from(TAN_SCALE) <= i64::from(gx) * i64::from(lut[k]);
        if gy >= 0 {
            for k in 0..below_90 {
                if cmp(k) {
                    return k;
                }
            }
            // Between the last sub-90 boundary and 90 deg: the middle bin.
            self.bins / 2
        } else {
            for k in below_90..lut.len() {
                if cmp(k) {
                    return k;
                }
            }
            self.bins - 1
        }
    }
}

/// What every FPGA cell of a region reads: its 8-bit pixels and the
/// tangent LUT.
pub(crate) struct FpgaField {
    pixels: IntPlane<i32>,
    lut: Vec<i32>,
}

impl RegionExtractor for FpgaHog {
    type Field = FpgaField;

    fn field(&self, region: &GrayImage) -> FpgaField {
        // 8-bit pixel quantization.
        let pixels = IntPlane::map(region, |v| (v.clamp(0.0, 1.0) * 255.0).round() as i32);
        FpgaField { pixels, lut: self.tan_lut() }
    }

    fn cell_at(&self, field: &FpgaField, x: usize, y: usize) -> Vec<f32> {
        let mut hist = vec![0.0f32; self.bins];
        for row in y..y + CELL_SIZE {
            let (up, mid, down) =
                (field.pixels.row(row - 1), field.pixels.row(row), field.pixels.row(row + 1));
            for col in x..x + CELL_SIZE {
                let gx = mid[col + 1] - mid[col - 1];
                let gy = up[col] - down[col];
                if gx == 0 && gy == 0 {
                    continue;
                }
                let bin = self.bin_of(gx, gy, &field.lut);
                // max + min/2 magnitude approximation.
                let (a, b) = (gx.abs().max(gy.abs()), gx.abs().min(gy.abs()));
                let mag = a + b / 2;
                hist[bin] += mag as f32;
            }
        }
        hist
    }
}

impl CellExtractor for FpgaHog {
    fn bins(&self) -> usize {
        self.bins
    }

    fn cell_histogram(&self, patch: &GrayImage) -> Vec<f32> {
        region_histogram(self, patch)
    }

    fn name(&self) -> &str {
        "fpga-hog"
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
    use crate::quantize::pearson_correlation;
    use crate::traditional::TraditionalHog;

    fn ramp(angle_deg: f32) -> GrayImage {
        let (c, s) = (angle_deg.to_radians().cos(), angle_deg.to_radians().sin());
        GrayImage::from_fn(10, 10, |x, y| 0.5 + 0.03 * (c * x as f32 - s * y as f32))
    }

    #[test]
    fn bin_boundaries_cover_all_angles() {
        let hog = FpgaHog::new();
        let lut = hog.tan_lut();
        for deg in 0..360 {
            let rad = (deg as f64).to_radians();
            let gx = (rad.cos() * 100.0).round() as i32;
            let gy = (rad.sin() * 100.0).round() as i32;
            if gx == 0 && gy == 0 {
                continue;
            }
            let b = hog.bin_of(gx, gy, &lut);
            assert!(b < 9, "angle {deg} got bin {b}");
        }
    }

    #[test]
    fn bin_matches_float_arctangent() {
        let hog = FpgaHog::new();
        let lut = hog.tan_lut();
        let mut mismatches = 0;
        for deg in 0..180 {
            // Skip exact boundaries, where rounding may legitimately differ.
            if deg % 20 == 0 {
                continue;
            }
            let rad = (deg as f64).to_radians();
            let gx = (rad.cos() * 1000.0).round() as i32;
            let gy = (rad.sin() * 1000.0).round() as i32;
            let expected = ((deg as f64) / 20.0).floor() as usize % 9;
            if hog.bin_of(gx, gy, &lut) != expected {
                mismatches += 1;
            }
        }
        assert!(mismatches <= 2, "{mismatches} fixed-point binning mismatches");
    }

    #[test]
    fn ramp_peaks_in_expected_bin() {
        let hog = FpgaHog::new();
        for (deg, want) in [(5.0, 0usize), (45.0, 2), (90.0, 4), (135.0, 6), (175.0, 8)] {
            let h = hog.cell_histogram(&ramp(deg));
            let peak = h.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
            assert_eq!(peak, want, "angle {deg}: hist {h:?}");
        }
    }

    #[test]
    fn flat_patch_empty() {
        let hog = FpgaHog::new();
        let h = hog.cell_histogram(&GrayImage::from_fn(10, 10, |_, _| 0.5));
        assert!(h.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn magnitude_approximation_weights_votes() {
        // A steeper ramp must produce proportionally more vote mass.
        let hog = FpgaHog::new();
        let shallow = GrayImage::from_fn(10, 10, |x, _| 0.3 + 0.02 * x as f32);
        let steep = GrayImage::from_fn(10, 10, |x, _| 0.1 + 0.06 * x as f32);
        let hs: f32 = hog.cell_histogram(&shallow).iter().sum();
        let ht: f32 = hog.cell_histogram(&steep).iter().sum();
        assert!(ht > 2.0 * hs, "steep {ht} vs shallow {hs}");
    }

    #[test]
    fn correlates_with_traditional_hog() {
        // Fig. 4's premise: the FPGA pipeline produces features of the
        // same character as the float reference.
        let fpga = FpgaHog::new();
        let trad = TraditionalHog { interpolate: false, ..TraditionalHog::new() };
        let mut a = Vec::new();
        let mut b = Vec::new();
        for k in 0..16 {
            let img = GrayImage::from_fn(10, 10, |x, y| {
                0.5 + 0.2 * ((x as f32 * (0.4 + k as f32 * 0.13)).sin() + (y as f32 * 0.6).cos())
                    / 2.0
            });
            a.extend(fpga.cell_histogram(&img));
            b.extend(trad.cell_histogram(&img));
        }
        let r = pearson_correlation(&a, &b).unwrap();
        assert!(r > 0.9, "correlation {r}");
    }
}
