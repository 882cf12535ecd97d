//! Detection-quality metrics (paper §V-A3).
//!
//! Detection is scored on the *noisy* set: with `D̃_N` the detected noisy
//! indices and `D_N` the ground-truth noisy indices,
//! `P = |D_N ∩ D̃_N| / |D̃_N|`, `R = |D_N ∩ D̃_N| / |D_N|`,
//! `F1 = 2PR / (P + R)`.

use serde::{Deserialize, Serialize};

/// Precision/recall/F1 of one detection run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetectionMetrics {
    pub precision: f64,
    pub recall: f64,
    pub f1: f64,
    /// |D_N ∩ D̃_N|
    pub true_positives: usize,
    /// |D̃_N|
    pub detected: usize,
    /// |D_N|
    pub actual: usize,
}

/// Scores detected noisy indices against the ground truth.
///
/// Conventions for degenerate cases: with no actual noise and no
/// detections, all three metrics are 1 (perfect); with no detections but
/// some noise, precision is defined as 1 and recall 0; with detections but
/// no noise, precision is 0 and recall 1.
///
/// # Panics
/// Panics if any index is out of range or duplicated.
pub fn detection_metrics(detected: &[usize], actual: &[usize], n: usize) -> DetectionMetrics {
    let mut is_actual = vec![false; n];
    for &i in actual {
        assert!(i < n, "actual index {i} out of range {n}");
        assert!(!is_actual[i], "duplicate actual index {i}");
        is_actual[i] = true;
    }
    let mut seen = vec![false; n];
    let mut tp = 0usize;
    for &i in detected {
        assert!(i < n, "detected index {i} out of range {n}");
        assert!(!seen[i], "duplicate detected index {i}");
        seen[i] = true;
        if is_actual[i] {
            tp += 1;
        }
    }
    let precision = if detected.is_empty() { 1.0 } else { tp as f64 / detected.len() as f64 };
    let recall = if actual.is_empty() { 1.0 } else { tp as f64 / actual.len() as f64 };
    let f1 = if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    };
    DetectionMetrics {
        precision,
        recall,
        f1,
        true_positives: tp,
        detected: detected.len(),
        actual: actual.len(),
    }
}

/// Element-wise mean of several metric records (empty input → zeros).
pub fn mean_metrics(all: &[DetectionMetrics]) -> DetectionMetrics {
    if all.is_empty() {
        return DetectionMetrics {
            precision: 0.0,
            recall: 0.0,
            f1: 0.0,
            true_positives: 0,
            detected: 0,
            actual: 0,
        };
    }
    let n = all.len() as f64;
    DetectionMetrics {
        precision: all.iter().map(|m| m.precision).sum::<f64>() / n,
        recall: all.iter().map(|m| m.recall).sum::<f64>() / n,
        f1: all.iter().map(|m| m.f1).sum::<f64>() / n,
        true_positives: all.iter().map(|m| m.true_positives).sum(),
        detected: all.iter().map(|m| m.detected).sum(),
        actual: all.iter().map(|m| m.actual).sum(),
    }
}

/// Sample standard deviation of the F1 scores (0 for fewer than 2 runs).
pub fn f1_std(all: &[DetectionMetrics]) -> f64 {
    if all.len() < 2 {
        return 0.0;
    }
    let n = all.len() as f64;
    let mean = all.iter().map(|m| m.f1).sum::<f64>() / n;
    let var = all.iter().map(|m| (m.f1 - mean).powi(2)).sum::<f64>() / (n - 1.0);
    var.sqrt()
}

/// Accuracy of pseudo-labels: fraction of (index, label) pairs matching
/// the ground-truth labels (§V-H reports the pseudo-label F1; with one
/// label per sample micro-F1 equals accuracy).
pub fn pseudo_label_accuracy(pseudo: &[(usize, u32)], truth: &[u32]) -> f64 {
    if pseudo.is_empty() {
        return 0.0;
    }
    let correct = pseudo.iter().filter(|&&(i, l)| truth.get(i) == Some(&l)).count();
    correct as f64 / pseudo.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn perfect_detection() {
        let m = detection_metrics(&[1, 3], &[1, 3], 5);
        assert_eq!((m.precision, m.recall, m.f1), (1.0, 1.0, 1.0));
        assert_eq!(m.true_positives, 2);
    }

    #[test]
    fn half_precision() {
        let m = detection_metrics(&[1, 2], &[1], 5);
        assert_eq!(m.precision, 0.5);
        assert_eq!(m.recall, 1.0);
        assert!((m.f1 - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_cases() {
        // Nothing to find, nothing found.
        let m = detection_metrics(&[], &[], 4);
        assert_eq!((m.precision, m.recall, m.f1), (1.0, 1.0, 1.0));
        // Something to find, nothing found.
        let m = detection_metrics(&[], &[0], 4);
        assert_eq!((m.precision, m.recall, m.f1), (1.0, 0.0, 0.0));
        // Nothing to find, something found.
        let m = detection_metrics(&[0], &[], 4);
        assert_eq!(m.precision, 0.0);
        assert_eq!(m.recall, 1.0);
        assert_eq!(m.f1, 0.0);
    }

    #[test]
    #[should_panic(expected = "duplicate detected")]
    fn duplicates_rejected() {
        let _ = detection_metrics(&[1, 1], &[], 3);
    }

    #[test]
    fn mean_and_std() {
        let a = detection_metrics(&[0], &[0], 2); // f1 = 1
        let b = detection_metrics(&[0], &[1], 2); // f1 = 0
        let m = mean_metrics(&[a, b]);
        assert!((m.f1 - 0.5).abs() < 1e-12);
        let s = f1_std(&[a, b]);
        assert!((s - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-9);
        assert_eq!(f1_std(&[a]), 0.0);
    }

    #[test]
    fn pseudo_accuracy() {
        let truth = vec![0u32, 1, 2];
        assert_eq!(pseudo_label_accuracy(&[(0, 0), (2, 1)], &truth), 0.5);
        assert_eq!(pseudo_label_accuracy(&[], &truth), 0.0);
    }

    /// Seeded cases per property.
    const CASES: u64 = 256;

    /// A sorted set of distinct indices below `n`, its size in `sizes`.
    fn random_index_set(rng: &mut StdRng, n: usize, sizes: std::ops::Range<usize>) -> Vec<usize> {
        let len = rng.gen_range(sizes);
        let mut set = std::collections::BTreeSet::new();
        while set.len() < len {
            set.insert(rng.gen_range(0..n));
        }
        set.into_iter().collect()
    }

    #[test]
    fn prop_metrics_bounded() {
        for case in 0..CASES {
            let mut rng = StdRng::seed_from_u64(case);
            let d = random_index_set(&mut rng, 30, 0..20);
            let a = random_index_set(&mut rng, 30, 0..20);
            let m = detection_metrics(&d, &a, 30);
            assert!((0.0..=1.0).contains(&m.precision), "case {case}");
            assert!((0.0..=1.0).contains(&m.recall), "case {case}");
            assert!((0.0..=1.0).contains(&m.f1), "case {case}");
            // F1 is the harmonic mean: it lies between min(P, R) and
            // max(P, R) whenever both are positive, and is 0 otherwise.
            if m.precision > 0.0 && m.recall > 0.0 {
                assert!(m.f1 >= m.precision.min(m.recall) - 1e-12, "case {case}");
                assert!(m.f1 <= m.precision.max(m.recall) + 1e-12, "case {case}");
            } else {
                assert_eq!(m.f1, 0.0, "case {case}");
            }
        }
    }

    #[test]
    fn prop_swapping_roles_swaps_precision_recall() {
        for case in 0..CASES {
            let mut rng = StdRng::seed_from_u64(case);
            let d = random_index_set(&mut rng, 20, 1..10);
            let a = random_index_set(&mut rng, 20, 1..10);
            let m1 = detection_metrics(&d, &a, 20);
            let m2 = detection_metrics(&a, &d, 20);
            assert!((m1.precision - m2.recall).abs() < 1e-12, "case {case}");
            assert!((m1.recall - m2.precision).abs() < 1e-12, "case {case}");
            assert!((m1.f1 - m2.f1).abs() < 1e-12, "case {case}");
        }
    }
}
