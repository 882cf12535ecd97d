//! The "Default" baseline (§V-A4): a sample is noisy iff the general
//! model's prediction disagrees with its observed label —
//! `argmax M(x, θ) ≠ ỹ`. Zero training cost beyond the shared setup.

use std::time::Instant;

use enld_datagen::Dataset;
use enld_nn::data::DataRef;
use enld_nn::model::Mlp;

use crate::common::{BaselineReport, NoisyLabelDetector};

/// Disagreement-with-the-general-model detector.
pub struct DefaultDetector {
    model: Mlp,
    setup_secs: f64,
}

impl DefaultDetector {
    /// Wraps a trained general model. The shared setup cost can be
    /// attributed with [`DefaultDetector::with_setup_secs`].
    pub fn new(model: Mlp) -> Self {
        Self { model, setup_secs: 0.0 }
    }

    /// Records the shared general-model training time for Fig. 8.
    pub fn with_setup_secs(mut self, secs: f64) -> Self {
        self.setup_secs = secs;
        self
    }
}

impl NoisyLabelDetector for DefaultDetector {
    fn name(&self) -> &'static str {
        "Default"
    }

    fn detect(&mut self, d: &Dataset) -> BaselineReport {
        let sw = Instant::now();
        let view = DataRef::new(d.xs(), d.labels(), d.dim());
        let preds = self.model.predict_labels(view);
        let flags: Vec<bool> = preds.iter().zip(d.labels()).map(|(p, l)| p != l).collect();
        BaselineReport::from_flags(&flags, d.missing_mask(), sw.elapsed().as_secs_f64())
    }

    fn setup_secs(&self) -> f64 {
        self.setup_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enld_core::{config::EnldConfig, detector::Enld, metrics::detection_metrics};
    use enld_datagen::presets::DatasetPreset;
    use enld_lake::lake::{DataLake, LakeConfig};

    #[test]
    fn default_detector_catches_obvious_noise() {
        let preset = DatasetPreset::test_sim().scaled(0.5);
        let mut lake = DataLake::build(&LakeConfig { preset, noise_rate: 0.2, seed: 21 });
        let enld = Enld::init(lake.inventory(), &EnldConfig::fast_test());
        let mut det = DefaultDetector::new(enld.model().clone()).with_setup_secs(enld.setup_secs());
        let req = lake.next_request().expect("queued");
        let report = det.detect(&req.data);
        let m = detection_metrics(&report.noisy, &req.data.noisy_indices(), req.data.len());
        // The general model partially fits the pair noise in its own
        // training labels, so Default is only a moderate detector — the
        // paper reports the same degradation for it as noise grows. It must
        // still clearly beat random flagging (precision ≈ noise rate 0.2).
        assert!(m.precision > 0.35, "precision {}", m.precision);
        assert!(m.f1 > 0.3, "f1 {}", m.f1);
        assert!(det.setup_secs() > 0.0);
        assert_eq!(det.name(), "Default");
    }

    #[test]
    fn partition_is_complete() {
        let preset = DatasetPreset::test_sim().scaled(0.3);
        let mut lake = DataLake::build(&LakeConfig { preset, noise_rate: 0.1, seed: 22 });
        let enld = Enld::init(lake.inventory(), &EnldConfig::fast_test());
        let mut det = DefaultDetector::new(enld.model().clone());
        let req = lake.next_request().expect("queued");
        let report = det.detect(&req.data);
        assert_eq!(report.clean.len() + report.noisy.len(), req.data.len());
    }
}
