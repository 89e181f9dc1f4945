//! Serializable snapshots of trained detectors.
//!
//! A [`TrainedDetector`] pairs a feature extractor with a trained
//! classifier; neither is directly serializable (the extractor may wrap
//! a simulated hardware module, the Eedn classifier holds trait
//! objects). [`DetectorSnapshot`] is the persistence form: plain data
//! that round-trips through serde and rebuilds a behaviorally identical
//! detector via [`TrainedDetector::from_snapshot`].
//!
//! The contract, pinned by tests in `pcnn-store`: a detector restored
//! from its own snapshot produces **bit-identical** detections on every
//! image (for deterministic extractor configurations; Parrot stochastic
//! coding resumes the exact RNG position, so a freshly restored
//! detector continues the noise stream where the snapshot left it).

use crate::classifier::{EednClassifier, EednClassifierState, WindowClassifier};
use crate::error::{Error, Result};
use crate::extractor::{Extractor, ExtractorSpec};
use crate::pipeline::TrainedDetector;
use pcnn_svm::{FeatureScaler, LinearSvm};
use serde::{Deserialize, Serialize};

/// The persistence form of a [`WindowClassifier`].
// The Eedn state dwarfs the SVM variant; snapshots exist transiently
// during save/load, so boxing would only add indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ClassifierSnapshot {
    /// A linear SVM with its fitted scaler.
    Svm {
        /// The trained model.
        model: LinearSvm,
        /// The feature standardizer fitted on training descriptors.
        scaler: FeatureScaler,
    },
    /// An Eedn-constrained network, as its full parameter state.
    Eedn(EednClassifierState),
}

/// The persistence form of a [`TrainedDetector`]: extractor
/// configuration plus classifier parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DetectorSnapshot {
    /// How to rebuild the feature extractor.
    pub extractor: ExtractorSpec,
    /// The trained classifier parameters.
    pub classifier: ClassifierSnapshot,
}

impl TrainedDetector {
    /// Captures this detector as a serializable snapshot.
    pub fn to_snapshot(&self) -> DetectorSnapshot {
        let classifier = match &self.classifier {
            WindowClassifier::Svm { model, scaler } => {
                ClassifierSnapshot::Svm { model: model.clone(), scaler: scaler.clone() }
            }
            WindowClassifier::Eedn(c) => ClassifierSnapshot::Eedn(c.to_state()),
        };
        DetectorSnapshot { extractor: self.extractor.spec(), classifier }
    }

    /// Rebuilds a detector from a snapshot.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when the snapshot decoded but describes
    /// an internally inconsistent extractor or classifier (tampered or
    /// corrupted state), including a classifier whose input width
    /// differs from the extractor's descriptor length — a detector that
    /// would panic on its first scored window.
    pub fn from_snapshot(snapshot: &DetectorSnapshot) -> Result<Self> {
        let extractor = Extractor::from_spec(snapshot.extractor.clone())?;
        let (classifier, widths) = match &snapshot.classifier {
            ClassifierSnapshot::Svm { model, scaler } => (
                WindowClassifier::Svm { model: model.clone(), scaler: scaler.clone() },
                [model.dim(), scaler.dim()],
            ),
            ClassifierSnapshot::Eedn(state) => (
                WindowClassifier::Eedn(Box::new(EednClassifier::from_state(state)?)),
                [state.in_dim, state.scaler.dim()],
            ),
        };
        if let Some(&width) = widths.iter().find(|&&w| w != extractor.len()) {
            return Err(Error::InvalidConfig {
                what: "detector snapshot".to_owned(),
                reason: format!(
                    "the classifier takes {width} inputs but the {} extractor produces {}",
                    extractor.kind(),
                    extractor.len()
                ),
            });
        }
        Ok(TrainedDetector { extractor, classifier })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::EednClassifierConfig;
    use pcnn_hog::napprox::MAX_BINS;
    use pcnn_hog::{BlockNorm, NApproxHog};
    use pcnn_svm::TrainConfig;
    use pcnn_vision::GrayImage;

    fn svm_detector(extractor: Extractor) -> TrainedDetector {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..24 {
            let crop = GrayImage::from_fn(64, 128, |x, y| {
                (((x + y * 3 + i * 7) % 13) as f32 / 13.0).clamp(0.0, 1.0)
            });
            xs.push(extractor.crop_descriptor(&crop));
            ys.push(i % 2 == 0);
        }
        let scaler = FeatureScaler::fit(&xs);
        let model = pcnn_svm::train(&scaler.apply_all(&xs), &ys, TrainConfig::default());
        TrainedDetector { extractor, classifier: WindowClassifier::Svm { model, scaler } }
    }

    fn scores_match(a: &TrainedDetector, b: &TrainedDetector) -> bool {
        (0..6).all(|i| {
            let crop = GrayImage::from_fn(64, 128, |x, y| ((x * y + i * 31) % 17) as f32 / 17.0);
            let da = a.extractor.crop_descriptor(&crop);
            let db = b.extractor.crop_descriptor(&crop);
            da == db && a.classifier.score(&da).to_bits() == b.classifier.score(&db).to_bits()
        })
    }

    #[test]
    fn svm_detector_roundtrips_bit_identically() {
        let det = svm_detector(Extractor::napprox_fp(BlockNorm::L2));
        let snap = det.to_snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let decoded: DetectorSnapshot = serde_json::from_str(&json).unwrap();
        let restored = TrainedDetector::from_snapshot(&decoded).unwrap();
        assert!(scores_match(&det, &restored));
    }

    #[test]
    fn every_deterministic_extractor_spec_roundtrips() {
        let extractors = [
            Extractor::fpga(),
            Extractor::traditional(),
            Extractor::traditional_signed_18(),
            Extractor::napprox_fp(BlockNorm::None),
            Extractor::napprox_quantized(64, BlockNorm::None),
            Extractor::raw(),
        ];
        let patch = GrayImage::from_fn(10, 10, |x, y| ((x * 5 + y * 3) % 11) as f32 / 11.0);
        for ex in extractors {
            let kind = ex.kind();
            let restored = Extractor::from_spec(ex.spec()).unwrap();
            assert_eq!(restored.kind(), kind);
            assert_eq!(restored.len(), ex.len());
            assert_eq!(restored.bins(), ex.bins());
            assert_eq!(ex.cell_histogram(&patch), restored.cell_histogram(&patch), "{kind}");
        }
    }

    #[test]
    fn hardware_spec_rebuilds_without_fault_plan() {
        let hw = Extractor::napprox_hardware(32, BlockNorm::None);
        hw.set_fault_plan(&pcnn_truenorth::FaultPlan::seeded(5).with_dead_core(0)).unwrap();
        let restored = Extractor::from_spec(hw.spec()).unwrap();
        assert!(restored.fault_stats().is_none());
        let patch = GrayImage::from_fn(10, 10, |x, y| ((x + y) % 7) as f32 / 7.0);
        // The restored module matches a *clean* one, not the faulted one.
        let clean = Extractor::napprox_hardware(32, BlockNorm::None);
        assert_eq!(restored.cell_histogram(&patch), clean.cell_histogram(&patch));
    }

    fn eedn_detector() -> TrainedDetector {
        let ex = Extractor::napprox_quantized(64, BlockNorm::None);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..24 {
            let crop =
                GrayImage::from_fn(64, 128, |x, y| (((x * 3 + y + i * 11) % 19) as f32) / 19.0);
            xs.push(ex.crop_descriptor(&crop));
            ys.push(i % 2 == 1);
        }
        let eedn = EednClassifier::try_train(
            &xs,
            &ys,
            EednClassifierConfig { hidden1: 24, hidden2: 12, epochs: 2, ..Default::default() },
        )
        .unwrap();
        TrainedDetector { extractor: ex, classifier: WindowClassifier::Eedn(Box::new(eedn)) }
    }

    #[test]
    fn eedn_detector_roundtrips_bit_identically() {
        let det = eedn_detector();
        let snap = det.to_snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let decoded: DetectorSnapshot = serde_json::from_str(&json).unwrap();
        let restored = TrainedDetector::from_snapshot(&decoded).unwrap();
        assert!(scores_match(&det, &restored));
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let err = Extractor::from_spec(ExtractorSpec::NApproxHardware {
            spikes: 0,
            norm: BlockNorm::None,
        })
        .unwrap_err();
        assert!(matches!(err, crate::Error::InvalidConfig { .. }), "{err}");
    }

    #[test]
    fn napprox_bin_counts_outside_the_cap_are_rejected() {
        for bins in [0, MAX_BINS + 1, 1 << 20] {
            for model in [NApproxHog::full_precision(), NApproxHog::quantized(64)] {
                let spec = ExtractorSpec::NApprox {
                    model: NApproxHog { bins, ..model },
                    norm: BlockNorm::L2,
                };
                let err = Extractor::from_spec(spec).unwrap_err();
                assert!(matches!(err, crate::Error::InvalidConfig { .. }), "bins {bins}: {err}");
            }
        }
        let spec = ExtractorSpec::NApprox {
            model: NApproxHog { bins: MAX_BINS, ..NApproxHog::quantized(64) },
            norm: BlockNorm::None,
        };
        assert_eq!(Extractor::from_spec(spec).unwrap().bins(), MAX_BINS);
    }

    #[test]
    fn tampered_bin_counts_fail_to_decode() {
        // Each of these decoded to a detector that panicked on its first
        // scored window (and 2^20 bins first sized a 440M-float
        // descriptor).
        let json = serde_json::to_string(
            &svm_detector(Extractor::napprox_fp(BlockNorm::L2)).to_snapshot(),
        )
        .unwrap();
        for bins in [0usize, 9, 1 << 20] {
            let mut tampered: DetectorSnapshot = serde_json::from_str(&json).unwrap();
            let ExtractorSpec::NApprox { model, .. } = &mut tampered.extractor else {
                panic!("an NApprox detector snapshots an NApprox spec");
            };
            model.bins = bins;
            let err = TrainedDetector::from_snapshot(&tampered).unwrap_err();
            assert!(matches!(err, crate::Error::InvalidConfig { .. }), "bins {bins}: {err}");
        }
    }

    #[test]
    fn classifier_width_must_match_the_extractor() {
        // Valid extractor specs, each paired with a classifier trained on
        // another descriptor length.
        let mut svm = svm_detector(Extractor::napprox_fp(BlockNorm::L2)).to_snapshot();
        svm.extractor = ExtractorSpec::Fpga;
        let mut eedn = eedn_detector().to_snapshot();
        eedn.extractor = ExtractorSpec::Raw;
        for snap in [svm, eedn] {
            let err = TrainedDetector::from_snapshot(&snap).unwrap_err();
            assert!(matches!(err, crate::Error::InvalidConfig { .. }), "{err}");
        }
    }
}
