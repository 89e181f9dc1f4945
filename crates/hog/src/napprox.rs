//! NApprox: HoG re-expressed in TrueNorth-efficient primitives.
//!
//! Table 1 of the paper maps each HoG component onto an operation that is
//! cheap on a neurosynaptic core:
//!
//! | component | original | TrueNorth computation |
//! |---|---|---|
//! | gradient vector | filters (-1 0 1), (-1 0 1)ᵀ → Ix, Iy | filters ±(-1 0 1), ±(-1 0 1)ᵀ → Ix, −Ix, Iy, −Iy (pattern matching) |
//! | gradient angle | `atan(Iy/Ix)` | `argmax_θ (Ix·cosθ + Iy·sinθ)` (comparison) |
//! | gradient magnitude | `√(Ix²+Iy²)` | `Ix·cosθ + Iy·sinθ` at the winning θ (inner product) |
//! | histogram | magnitude-weighted, 9 or 18 bins | **count**-voted, 18 bins over 0°–360° (inner product) |
//!
//! The identity behind the angle/magnitude approximation: `Ix·cosθ +
//! Iy·sinθ = ‖∇I‖·cos(θ − φ)` where `φ` is the true gradient angle, so the
//! candidate direction with the largest inner product is the closest to
//! `φ`, and its inner product underestimates the magnitude by at most
//! `cos(10°) ≈ 1.5 %` for 18 candidates.
//!
//! Two precision modes:
//!
//! * **full precision** (`NApprox(fp)` in Figure 4) — `f32` arithmetic;
//! * **quantized** — pixels quantized to an n-spike level, direction
//!   weights rounded to small integers (the synaptic weight LUT), all
//!   arithmetic integral. This is bit-equivalent to the corelet
//!   implementation in `pcnn-corelets`, which is how the workspace
//!   reproduces the ≥ 99.5 % hardware/software correlation check.

use crate::cell::{
    region_grid, region_histogram, CellExtractor, IntPlane, RegionExtractor, CELL_SIZE,
};
use crate::gradient::GradientField;
use crate::quantize::Quantization;
use pcnn_vision::GrayImage;
use serde::{Deserialize, Serialize};
use std::f32::consts::PI;

/// The most direction bins an NApprox model may have. It sizes the
/// per-pixel inner-product array of the quantized comparison circuit;
/// the paper uses 18.
pub const MAX_BINS: usize = 64;

/// Quantization parameters for the TrueNorth-compatible mode.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NApproxQuant {
    /// Input pixel quantization (64-spike = 6-bit in the paper).
    pub input: Quantization,
    /// Scale for the integer direction weights: `w = round(cosθ · scale)`.
    /// TrueNorth synaptic LUT entries are 9-bit signed integers, so 64
    /// keeps the weights comfortably in hardware range while giving
    /// ~0.9° direction fidelity.
    pub weight_scale: i32,
}

impl Default for NApproxQuant {
    fn default() -> Self {
        NApproxQuant { input: Quantization::spikes(64), weight_scale: 64 }
    }
}

/// The NApprox cell extractor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NApproxHog {
    /// Number of direction bins (the paper uses 18 over 0°–360°).
    pub bins: usize,
    /// `None` = full precision; `Some` = TrueNorth-compatible quantized.
    pub quant: Option<NApproxQuant>,
    /// Minimum normalized gradient magnitude for a pixel to cast a vote.
    /// Count voting needs a floor, otherwise flat regions vote noise.
    pub vote_threshold: f32,
}

impl Default for NApproxHog {
    fn default() -> Self {
        Self::full_precision()
    }
}

impl NApproxHog {
    /// The full-precision software model, `NApprox(fp)`.
    ///
    /// The vote threshold is the count-voting noise floor: a pixel only
    /// votes when its gradient magnitude clears it. 0.06 sits above the
    /// synthetic dataset's sensor noise (±0.03/pixel) while keeping weak
    /// true edges; the `ablation_study` bench sweeps this choice.
    pub fn full_precision() -> Self {
        NApproxHog { bins: 18, quant: None, vote_threshold: 0.06 }
    }

    /// The TrueNorth-compatible model at `spikes`-spike input precision.
    pub fn quantized(spikes: u32) -> Self {
        NApproxHog {
            bins: 18,
            quant: Some(NApproxQuant {
                input: Quantization::spikes(spikes),
                ..NApproxQuant::default()
            }),
            vote_threshold: 0.06,
        }
    }

    /// The integer direction-weight table `(cos, sin)` per bin for the
    /// quantized mode.
    pub fn weight_table(&self, scale: i32) -> Vec<(i32, i32)> {
        (0..self.bins)
            .map(|b| {
                let theta = 2.0 * PI * (b as f32 + 0.5) / self.bins as f32;
                (
                    (theta.cos() * scale as f32).round() as i32,
                    (theta.sin() * scale as f32).round() as i32,
                )
            })
            .collect()
    }

    /// The `(cos θ_b, sin θ_b)` direction of every bin center `θ_b`.
    fn directions(&self) -> Vec<(f32, f32)> {
        (0..self.bins)
            .map(|b| {
                let theta = 2.0 * PI * (b as f32 + 0.5) / self.bins as f32;
                (theta.cos(), theta.sin())
            })
            .collect()
    }

    /// Full precision: the argmax direction of each pixel's gradient
    /// votes one count when its inner product clears the threshold.
    fn cell_fp(
        &self,
        gradients: &GradientField,
        directions: &[(f32, f32)],
        x: usize,
        y: usize,
    ) -> Vec<f32> {
        let mut hist = vec![0.0f32; self.bins];
        for row in y..y + CELL_SIZE {
            let (gx, gy) = gradients.row(row);
            for (&ix, &iy) in gx[x..x + CELL_SIZE].iter().zip(&gy[x..x + CELL_SIZE]) {
                // No inner product exceeds |Ix| + |Iy| (|cos|, |sin| <= 1,
                // and rounding is monotone), so a pixel whose sum does
                // not clear the threshold cannot vote: skipping it
                // changes no count.
                if ix.abs() + iy.abs() <= self.vote_threshold {
                    continue;
                }
                let mut best = f32::NEG_INFINITY;
                let mut best_bin = 0;
                for (b, &(c, s)) in directions.iter().enumerate() {
                    let ip = ix * c + iy * s;
                    if ip > best {
                        best = ip;
                        best_bin = b;
                    }
                }
                if best > self.vote_threshold {
                    hist[best_bin] += 1.0;
                }
            }
        }
        hist
    }

    /// Quantized: integer gradients of the pixel levels against the
    /// integer weight table, voted by the hardware comparison circuit.
    fn cell_quantized(
        &self,
        levels: &IntPlane<i64>,
        weights: &[(i64, i64)],
        max_weight: i64,
        threshold: i64,
        x: usize,
        y: usize,
    ) -> Vec<f32> {
        let bins = self.bins;
        let mut hist = vec![0.0f32; bins];
        let mut ips = [0i64; MAX_BINS];
        let ips = &mut ips[..bins];
        for row in y..y + CELL_SIZE {
            let (up, mid, down) = (levels.row(row - 1), levels.row(row), levels.row(row + 1));
            for col in x..x + CELL_SIZE {
                let ix = mid[col + 1] - mid[col - 1];
                let iy = up[col] - down[col];
                // No inner product exceeds (|Ix| + |Iy|) · max_weight
                // (saturating only loosens the bound), so below it no
                // bin can clear the threshold: skipping changes no vote.
                if (ix.abs() + iy.abs()).saturating_mul(max_weight) <= threshold {
                    continue;
                }
                for (ip, &(c, s)) in ips.iter_mut().zip(weights) {
                    *ip = ix * c + iy * s;
                }
                // The hardware comparison circuit (pcnn-corelets): bin b
                // votes when it weakly beats its previous neighbour,
                // strictly beats its next neighbour, and clears the
                // magnitude threshold. For the quantized-cosine profile
                // this selects the argmax, with hardware tie-breaking.
                for b in 0..bins {
                    let prev = ips[(b + bins - 1) % bins];
                    let next = ips[(b + 1) % bins];
                    if ips[b] >= prev && ips[b] > next && ips[b] > threshold {
                        hist[b] += 1.0;
                    }
                }
            }
        }
        hist
    }
}

/// What every NApprox cell of a region reads, computed once per region.
pub(crate) enum NApproxField {
    /// Full precision: the region's gradients and the direction table.
    Fp { gradients: GradientField, directions: Vec<(f32, f32)> },
    /// Quantized: the region's pixel levels, the integer weight table,
    /// its largest weight magnitude, and the vote threshold in the inner
    /// products' fixed-point scale.
    Quantized { levels: IntPlane<i64>, weights: Vec<(i64, i64)>, max_weight: i64, threshold: i64 },
}

impl RegionExtractor for NApproxHog {
    type Field = NApproxField;

    fn field(&self, region: &GrayImage) -> NApproxField {
        match self.quant {
            None => NApproxField::Fp {
                gradients: GradientField::compute(region),
                directions: self.directions(),
            },
            Some(q) => {
                assert!(
                    self.bins <= MAX_BINS,
                    "NApprox supports at most {MAX_BINS} bins, got {}",
                    self.bins
                );
                let weights: Vec<(i64, i64)> = self
                    .weight_table(q.weight_scale)
                    .into_iter()
                    .map(|(c, s)| (i64::from(c), i64::from(s)))
                    .collect();
                let max_weight =
                    weights.iter().map(|&(c, s)| c.abs().max(s.abs())).max().unwrap_or(0);
                // Integer threshold in the same fixed-point scale as the
                // inner products: level × weight_scale.
                let threshold =
                    (self.vote_threshold * q.input.levels() as f32 * q.weight_scale as f32).round()
                        as i64;
                let levels = IntPlane::map(region, |v| i64::from(q.input.level_of(v)));
                NApproxField::Quantized { levels, weights, max_weight, threshold }
            }
        }
    }

    fn cell_at(&self, field: &NApproxField, x: usize, y: usize) -> Vec<f32> {
        match field {
            NApproxField::Fp { gradients, directions } => self.cell_fp(gradients, directions, x, y),
            NApproxField::Quantized { levels, weights, max_weight, threshold } => {
                self.cell_quantized(levels, weights, *max_weight, *threshold, x, y)
            }
        }
    }
}

impl CellExtractor for NApproxHog {
    fn bins(&self) -> usize {
        self.bins
    }

    fn cell_histogram(&self, patch: &GrayImage) -> Vec<f32> {
        region_histogram(self, patch)
    }

    fn name(&self) -> &str {
        if self.quant.is_some() {
            "napprox-hog"
        } else {
            "napprox-hog-fp"
        }
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

    fn ramp_x() -> GrayImage {
        GrayImage::from_fn(10, 10, |x, _| x as f32 / 10.0)
    }

    #[test]
    fn x_ramp_votes_bin_near_zero_degrees() {
        let hog = NApproxHog::full_precision();
        let h = hog.cell_histogram(&ramp_x());
        assert_eq!(h.len(), 18);
        // Angle 0 is on the boundary of bins 17 and 0 (centers at ±10 deg);
        // the argmax tie-breaks to the first maximal bin.
        let total: f32 = h.iter().sum();
        assert_eq!(total, 64.0, "all 64 cell pixels vote, hist = {h:?}");
        assert!(h[0] + h[17] == 64.0, "hist = {h:?}");
    }

    #[test]
    fn opposite_ramps_land_opposite_bins() {
        let hog = NApproxHog::full_precision();
        let up = hog.cell_histogram(&ramp_x());
        let down = hog.cell_histogram(&GrayImage::from_fn(10, 10, |x, _| 1.0 - x as f32 / 10.0));
        let peak_up = up.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
        let peak_down = down.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
        let d = (peak_up as i32 - peak_down as i32).rem_euclid(18);
        assert!(d == 9 || d == 8 || d == 10, "peaks {peak_up} vs {peak_down}");
    }

    #[test]
    fn flat_patch_casts_no_votes() {
        let hog = NApproxHog::full_precision();
        let h = hog.cell_histogram(&GrayImage::from_fn(10, 10, |_, _| 0.5));
        assert!(h.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn votes_are_counts() {
        let hog = NApproxHog::full_precision();
        let h = hog.cell_histogram(&ramp_x());
        for &v in &h {
            assert_eq!(v.fract(), 0.0, "count voting yields integers");
        }
        assert!(h.iter().sum::<f32>() <= 64.0);
    }

    #[test]
    fn inner_product_tracks_true_angle() {
        // Sweep ramp orientations; the winning bin center must stay within
        // one bin width of the true gradient angle.
        let hog = NApproxHog::full_precision();
        for k in 0..12 {
            let phi = 2.0 * PI * k as f32 / 12.0 + 0.03;
            let (c, s) = (phi.cos(), phi.sin());
            // Luminance ramp with gradient along phi (image y points down);
            // amplitude chosen so the magnitude clears the vote threshold.
            let img = GrayImage::from_fn(10, 10, |x, y| 0.5 + 0.05 * (c * x as f32 - s * y as f32));
            let h = hog.cell_histogram(&img);
            let peak = h.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
            let center = 2.0 * PI * (peak as f32 + 0.5) / 18.0;
            let mut diff = (center - phi).abs();
            if diff > PI {
                diff = 2.0 * PI - diff;
            }
            assert!(diff <= 2.0 * PI / 18.0, "phi={phi:.2} peak bin {peak} center {center:.2}");
        }
    }

    #[test]
    fn quantized_matches_fp_shape() {
        // At 64-spike precision the quantized histograms correlate > 0.9
        // with full precision at the descriptor level (concatenated over
        // many cells). Per-cell correlation is looser: with integer pixel
        // levels a few borderline pixels legitimately flip to an adjacent
        // direction bin.
        let fp = NApproxHog::full_precision();
        let qz = NApproxHog::quantized(64);
        let mut a = Vec::new();
        let mut b = Vec::new();
        for k in 0..32 {
            let img = GrayImage::from_fn(10, 10, |x, y| {
                0.5 + 0.3
                    * ((x as f32 * (0.5 + 0.05 * k as f32)).sin()
                        * (y as f32 * 0.7 + k as f32).cos())
            });
            a.extend(fp.cell_histogram(&img));
            b.extend(qz.cell_histogram(&img));
        }
        let r = pearson_correlation(&a, &b).unwrap();
        assert!(r > 0.85, "correlation {r}");
    }

    #[test]
    fn coarser_quantization_degrades_monotonically_on_average() {
        let fp = NApproxHog::full_precision();
        let imgs: Vec<GrayImage> = (0..24)
            .map(|k| {
                GrayImage::from_fn(10, 10, |x, y| {
                    0.5 + 0.25
                        * ((x as f32 * (0.3 + k as f32 * 0.11)).sin() + (y as f32 * 0.5).cos())
                        / 2.0
                })
            })
            .collect();
        let mean_corr = |spikes: u32| {
            let qz = NApproxHog::quantized(spikes);
            let mut acc = 0.0;
            let mut n = 0;
            for img in &imgs {
                let a = fp.cell_histogram(img);
                let b = qz.cell_histogram(img);
                if let Some(r) = pearson_correlation(&a, &b) {
                    acc += r;
                    n += 1;
                }
            }
            acc / n as f64
        };
        let c64 = mean_corr(64);
        let c4 = mean_corr(4);
        assert!(c64 > c4, "64-spike corr {c64} should beat 4-spike {c4}");
        assert!(c64 > 0.9);
    }

    #[test]
    fn weight_table_is_small_integers() {
        let hog = NApproxHog::quantized(64);
        for (c, s) in hog.weight_table(16) {
            assert!(c.abs() <= 16 && s.abs() <= 16);
        }
        // Adjacent directions differ.
        let t = hog.weight_table(16);
        assert_ne!(t[0], t[1]);
    }

    /// Table 1 written out per pixel: `cos`/`sin` of each bin center,
    /// every pixel scored against every direction.
    fn per_pixel_reference(hog: &NApproxHog, patch: &GrayImage) -> Vec<f32> {
        let mut hist = vec![0.0f32; hog.bins];
        for y in 1..=CELL_SIZE {
            for x in 1..=CELL_SIZE {
                let ix = patch.get(x + 1, y) - patch.get(x - 1, y);
                let iy = patch.get(x, y - 1) - patch.get(x, y + 1);
                match hog.quant {
                    None => {
                        let (mut best, mut best_bin) = (f32::NEG_INFINITY, 0);
                        for b in 0..hog.bins {
                            let theta = 2.0 * PI * (b as f32 + 0.5) / hog.bins as f32;
                            let ip = ix * theta.cos() + iy * theta.sin();
                            if ip > best {
                                (best, best_bin) = (ip, b);
                            }
                        }
                        if best > hog.vote_threshold {
                            hist[best_bin] += 1.0;
                        }
                    }
                    Some(q) => {
                        let lv = |x: usize, y: usize| i64::from(q.input.level_of(patch.get(x, y)));
                        let (ix, iy) = (lv(x + 1, y) - lv(x - 1, y), lv(x, y - 1) - lv(x, y + 1));
                        let thresh =
                            (hog.vote_threshold * q.input.levels() as f32 * q.weight_scale as f32)
                                .round() as i64;
                        let ips: Vec<i64> = hog
                            .weight_table(q.weight_scale)
                            .iter()
                            .map(|&(c, s)| ix * i64::from(c) + iy * i64::from(s))
                            .collect();
                        let n = hog.bins;
                        for b in 0..n {
                            let (prev, next) = (ips[(b + n - 1) % n], ips[(b + 1) % n]);
                            if ips[b] >= prev && ips[b] > next && ips[b] > thresh {
                                hist[b] += 1.0;
                            }
                        }
                    }
                }
            }
        }
        hist
    }

    #[test]
    fn direction_tables_and_threshold_skips_match_the_per_pixel_reference() {
        // Low-contrast patches put many gradients near the vote
        // threshold, where skipping sub-threshold pixels must not
        // change a count.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x7ab1e);
        let models = [
            NApproxHog::full_precision(),
            NApproxHog { bins: 7, vote_threshold: 0.0, ..NApproxHog::full_precision() },
            NApproxHog::quantized(64),
            NApproxHog::quantized(4),
            NApproxHog { bins: 12, vote_threshold: 0.02, ..NApproxHog::quantized(32) },
        ];
        for _ in 0..400 {
            let amplitude = [0.04f32, 0.08, 0.15, 1.0][rng.random_range(0..4)];
            let data: Vec<f32> =
                (0..100).map(|_| 0.5 + amplitude * (rng.random::<f32>() - 0.5)).collect();
            let patch = GrayImage::from_vec(10, 10, data);
            for hog in &models {
                let got: Vec<u32> =
                    hog.cell_histogram(&patch).iter().map(|v| v.to_bits()).collect();
                let want: Vec<u32> =
                    per_pixel_reference(hog, &patch).iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "{hog:?}");
            }
        }
    }
}
