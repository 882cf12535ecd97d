//! Confident Learning (Northcutt, Jiang & Chuang, JAIR 2021) — the
//! pretrain-based baseline of §V-A4.
//!
//! The confident joint `C[i][j]` counts samples with observed label `i`
//! whose confidence for class `j` reaches the class threshold
//! `t_j = mean p_j(x) over {x : ỹ = j}`; samples are then pruned off the
//! diagonal by one of two rules:
//!
//! * **PBC** (prune by class, the paper's CL-1): for each class `i`, prune
//!   the `n_i = Σ_{j≠i} C[i][j]` samples of observed class `i` with the
//!   lowest self-confidence `p_i(x)`.
//! * **PBNR** (prune by noise rate, the paper's CL-2): for each
//!   off-diagonal pair `(i, j)`, prune the `C[i][j]` samples of observed
//!   class `i` with the largest margin `p_j(x) − p_i(x)`.
//!
//! Per the paper, thresholds are estimated on `I_c` together with the
//! incremental dataset, while pruning applies to the incremental dataset
//! only.

use std::time::Instant;

use enld_datagen::Dataset;
use enld_nn::data::DataRef;
use enld_nn::matrix::Matrix;
use enld_nn::model::Mlp;

use crate::common::{BaselineReport, NoisyLabelDetector};

/// Off-diagonal pruning rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneMethod {
    /// Prune-by-class (CL-1).
    ByClass,
    /// Prune-by-noise-rate (CL-2).
    ByNoiseRate,
}

/// Confident-learning detector sharing the general model.
pub struct ConfidentLearning {
    model: Mlp,
    method: PruneMethod,
    /// Extra threshold-estimation data (the paper uses `I_c`); may be
    /// empty, in which case thresholds come from the incremental dataset
    /// alone.
    threshold_probs: Vec<f32>,
    threshold_labels: Vec<u32>,
    classes: usize,
    setup_secs: f64,
}

impl ConfidentLearning {
    /// Builds the detector; `calibration` is the dataset used alongside
    /// each incremental dataset for threshold estimation (pass `I_c`).
    pub fn new(model: Mlp, method: PruneMethod, calibration: Option<&Dataset>) -> Self {
        let classes = model.classes();
        let (threshold_probs, threshold_labels) = match calibration {
            Some(cal) => {
                let view = DataRef::new(cal.xs(), cal.labels(), cal.dim());
                let probs = model.predict_proba(view);
                (probs.data().to_vec(), cal.labels().to_vec())
            }
            None => (Vec::new(), Vec::new()),
        };
        Self { model, method, threshold_probs, threshold_labels, classes, setup_secs: 0.0 }
    }

    /// Records the shared general-model training time for Fig. 8.
    pub fn with_setup_secs(mut self, secs: f64) -> Self {
        self.setup_secs = secs;
        self
    }

    /// Class thresholds `t_j` from calibration + incremental confidences.
    fn thresholds(&self, d_probs: &Matrix, d_labels: &[u32], d_missing: &[bool]) -> Vec<f64> {
        let mut sum = vec![0.0f64; self.classes];
        let mut cnt = vec![0usize; self.classes];
        for (r, &label) in self.threshold_labels.iter().enumerate() {
            let j = label as usize;
            sum[j] += self.threshold_probs[r * self.classes + j] as f64;
            cnt[j] += 1;
        }
        for (r, (&label, &missing)) in d_labels.iter().zip(d_missing).enumerate() {
            if missing {
                continue;
            }
            let j = label as usize;
            sum[j] += d_probs.row(r)[j] as f64;
            cnt[j] += 1;
        }
        (0..self.classes)
            .map(|j| if cnt[j] == 0 { f64::INFINITY } else { sum[j] / cnt[j] as f64 })
            .collect()
    }
}

impl NoisyLabelDetector for ConfidentLearning {
    fn name(&self) -> &'static str {
        match self.method {
            PruneMethod::ByClass => "CL-1",
            PruneMethod::ByNoiseRate => "CL-2",
        }
    }

    fn detect(&mut self, d: &Dataset) -> BaselineReport {
        let sw = Instant::now();
        let view = DataRef::new(d.xs(), d.labels(), d.dim());
        let probs = self.model.predict_proba(view);
        let thresholds = self.thresholds(&probs, d.labels(), d.missing_mask());

        // Confident joint over the incremental dataset.
        // member[r] = Some(j) when sample r confidently belongs to class j.
        let mut member: Vec<Option<usize>> = vec![None; d.len()];
        let mut joint = vec![vec![0usize; self.classes]; self.classes];
        for r in 0..d.len() {
            if d.missing_mask()[r] {
                continue;
            }
            let row = probs.row(r);
            let mut best: Option<(usize, f32)> = None;
            for (j, (&p, &t)) in row.iter().zip(&thresholds).enumerate() {
                if (p as f64) >= t {
                    match best {
                        Some((_, bp)) if bp >= p => {}
                        _ => best = Some((j, p)),
                    }
                }
            }
            if let Some((j, _)) = best {
                member[r] = Some(j);
                joint[d.labels()[r] as usize][j] += 1;
            }
        }

        let mut noisy_flags = vec![false; d.len()];
        for (i, joint_row) in joint.iter().enumerate() {
            match self.method {
                PruneMethod::ByClass => {
                    // Prune the n_i least self-confident samples of class i.
                    let n_i: usize = joint_row
                        .iter()
                        .enumerate()
                        .filter(|&(j, _)| j != i)
                        .map(|(_, &c)| c)
                        .sum();
                    if n_i == 0 {
                        continue;
                    }
                    for r in ranked_members(d, &probs, i, |p| p[i]).into_iter().take(n_i) {
                        noisy_flags[r] = true;
                    }
                }
                PruneMethod::ByNoiseRate => {
                    // For each off-diagonal (i, j), prune the C[i][j] samples
                    // with the largest margin p_j − p_i.
                    for (j, &count) in joint_row.iter().enumerate() {
                        if i == j || count == 0 {
                            continue;
                        }
                        let by_margin = ranked_members(d, &probs, i, |p| p[i] - p[j]);
                        for r in by_margin.into_iter().take(count) {
                            noisy_flags[r] = true;
                        }
                    }
                }
            }
        }

        BaselineReport::from_flags(&noisy_flags, d.missing_mask(), sw.elapsed().as_secs_f64())
    }

    fn setup_secs(&self) -> f64 {
        self.setup_secs
    }
}

/// The labelled rows of observed class `class`, lowest `key` first (ties
/// keep row order). `f32::total_cmp` keeps the ranking a total order when
/// a confidence is NaN — such rows rank last instead of making `sort_by`
/// panic or scrambling the finite ones.
fn ranked_members(
    d: &Dataset,
    probs: &Matrix,
    class: usize,
    key: impl Fn(&[f32]) -> f32,
) -> Vec<usize> {
    let mut members: Vec<(usize, f32)> = (0..d.len())
        .filter(|&r| !d.missing_mask()[r] && d.labels()[r] as usize == class)
        .map(|r| (r, key(probs.row(r))))
        .collect();
    members.sort_by(|a, b| a.1.total_cmp(&b.1));
    members.into_iter().map(|(r, _)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use enld_core::{config::EnldConfig, detector::Enld, metrics::detection_metrics};
    use enld_datagen::presets::DatasetPreset;
    use enld_lake::lake::{DataLake, LakeConfig};

    fn setup(noise: f32, seed: u64) -> (DataLake, Enld) {
        let preset = DatasetPreset::test_sim().scaled(0.4);
        let lake = DataLake::build(&LakeConfig { preset, noise_rate: noise, seed });
        let enld = Enld::init(lake.inventory(), &EnldConfig::fast_test());
        (lake, enld)
    }

    #[test]
    fn both_variants_beat_chance() {
        let (mut lake, enld) = setup(0.3, 31);
        let req = lake.next_request().expect("queued");
        for method in [PruneMethod::ByClass, PruneMethod::ByNoiseRate] {
            let mut cl =
                ConfidentLearning::new(enld.model().clone(), method, Some(enld.candidate_set()));
            let report = cl.detect(&req.data);
            let m = detection_metrics(&report.noisy, &req.data.noisy_indices(), req.data.len());
            assert!(m.f1 > 0.4, "{}: f1 {}", cl.name(), m.f1);
            assert_eq!(report.clean.len() + report.noisy.len(), req.data.len());
        }
    }

    /// Four rows of class 0 and one of class 1; row 1 is all-NaN (a NaN
    /// feature reached the model).
    fn nan_row_fixture() -> (Dataset, Matrix) {
        let d = Dataset::new(vec![0.0; 5], vec![0, 0, 0, 1, 0], 1, 2);
        let nan = f32::NAN;
        let probs = Matrix::from_vec(5, 2, vec![0.9, 0.1, nan, nan, 0.2, 0.8, 0.5, 0.5, 0.6, 0.4]);
        (d, probs)
    }

    #[test]
    fn self_confidence_ranking_survives_a_nan_row() {
        let (d, probs) = nan_row_fixture();
        // Least self-confident first; the NaN row cannot hide row 2 behind
        // it, which a comparator that calls NaN "equal" to everything does.
        assert_eq!(ranked_members(&d, &probs, 0, |p| p[0]), [2, 4, 0, 1]);
    }

    #[test]
    fn margin_ranking_survives_a_nan_row() {
        let (d, probs) = nan_row_fixture();
        // Largest margin p_1 − p_0 first: row 2 (+0.6), 4 (−0.2), 0 (−0.8).
        // The sign of an arithmetic NaN is the platform's, so row 1 may
        // rank at either end — but never between the finite rows.
        let ranked = ranked_members(&d, &probs, 0, |p| p[0] - p[1]);
        assert!(ranked == [2, 4, 0, 1] || ranked == [1, 2, 4, 0], "{ranked:?}");
        assert_eq!(ranked_members(&d, &probs, 1, |p| p[1] - p[0]), [3]);
    }

    #[test]
    fn names_match_paper() {
        let (_, enld) = setup(0.1, 32);
        let a = ConfidentLearning::new(enld.model().clone(), PruneMethod::ByClass, None);
        let b = ConfidentLearning::new(enld.model().clone(), PruneMethod::ByNoiseRate, None);
        assert_eq!(a.name(), "CL-1");
        assert_eq!(b.name(), "CL-2");
    }

    #[test]
    fn clean_data_yields_few_detections() {
        let (mut lake, enld) = setup(0.0, 33);
        let req = lake.next_request().expect("queued");
        let mut cl = ConfidentLearning::new(
            enld.model().clone(),
            PruneMethod::ByClass,
            Some(enld.candidate_set()),
        );
        let report = cl.detect(&req.data);
        let rate = report.noisy.len() as f64 / req.data.len() as f64;
        assert!(rate < 0.3, "flagged {rate} of clean data");
    }

    #[test]
    fn works_without_calibration_set() {
        let (mut lake, enld) = setup(0.2, 34);
        let req = lake.next_request().expect("queued");
        let mut cl = ConfidentLearning::new(enld.model().clone(), PruneMethod::ByNoiseRate, None);
        let report = cl.detect(&req.data);
        assert_eq!(report.clean.len() + report.noisy.len(), req.data.len());
    }

    #[test]
    fn missing_labels_are_skipped() {
        let (mut lake, enld) = setup(0.2, 35);
        let req = lake.next_request().expect("queued");
        let masked = enld_datagen::noise::apply_missing_labels(&req.data, 0.4, 1);
        let mut cl = ConfidentLearning::new(enld.model().clone(), PruneMethod::ByClass, None);
        let report = cl.detect(&masked);
        let missing = masked.missing_indices();
        for &i in report.clean.iter().chain(&report.noisy) {
            assert!(!missing.contains(&i));
        }
    }
}
