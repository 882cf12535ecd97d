//! Estimation of the conditional mislabelling probability
//! `P̃(y* = j | ỹ = i)` (paper Eq. 3–5).
//!
//! Following INCV's assumption that the model's predicted label tracks the
//! true label distribution, the joint count `J[i][j]` counts samples with
//! observed label `i` predicted as `j` by the general model on `I_c`
//! (Eq. 3–4); row-normalising gives the conditional (Eq. 5). Contrastive
//! sampling draws a candidate true label from a row of this matrix,
//! restricted to the labels actually available among the high-quality
//! samples (`random_label(i, P̃, label(H'))` in Alg. 2).

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Row-stochastic estimate of `P(y* = j | ỹ = i)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConditionalLabelProbability {
    classes: usize,
    /// Row-major joint counts `J[i][j]`.
    joint: Vec<u64>,
    /// Row-major conditional probabilities.
    cond: Vec<f64>,
}

impl ConditionalLabelProbability {
    /// Estimates the matrix from observed labels and the model's predicted
    /// labels on the estimation split (`I_c`).
    ///
    /// Rows with no observations fall back to the identity (a label we
    /// never saw is assumed correct), keeping every row stochastic.
    ///
    /// # Panics
    /// Panics on length mismatch or out-of-range labels.
    pub fn estimate(observed: &[u32], predicted: &[u32], classes: usize) -> Self {
        assert_eq!(observed.len(), predicted.len(), "label/prediction length mismatch");
        let mut joint = vec![0u64; classes * classes];
        for (&o, &p) in observed.iter().zip(predicted) {
            assert!((o as usize) < classes && (p as usize) < classes, "label out of range");
            joint[o as usize * classes + p as usize] += 1;
        }
        let mut cond = vec![0.0f64; classes * classes];
        for i in 0..classes {
            let row = &joint[i * classes..(i + 1) * classes];
            let total: u64 = row.iter().sum();
            if total == 0 {
                cond[i * classes + i] = 1.0;
            } else {
                for j in 0..classes {
                    cond[i * classes + j] = row[j] as f64 / total as f64;
                }
            }
        }
        Self { classes, joint, cond }
    }

    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Joint count `J[i][j]`.
    pub fn joint_count(&self, i: usize, j: usize) -> u64 {
        self.joint[i * self.classes + j]
    }

    /// `P̃(y* = j | ỹ = i)`.
    pub fn prob(&self, i: usize, j: usize) -> f64 {
        self.cond[i * self.classes + j]
    }

    /// Row `i` of the conditional matrix.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.cond[i * self.classes..(i + 1) * self.classes]
    }

    /// Row `observed` renormalised over `allowed`: entry `m` is the
    /// probability assigned to label `allowed[m]`.
    ///
    /// When no allowed label carries positive mass (a degenerate
    /// restriction — e.g. an identity-fallback row restricted away from
    /// its diagonal) the result falls back to the uniform distribution
    /// over `allowed`, so the output always sums to 1 and never contains
    /// NaN. An empty `allowed` yields an empty vector.
    pub fn restricted_row(&self, observed: u32, allowed: &[u32]) -> Vec<f64> {
        if allowed.is_empty() {
            return Vec::new();
        }
        let row = self.row(observed as usize);
        let mass: f64 = allowed.iter().map(|&j| row[j as usize]).sum();
        if mass <= 0.0 {
            return vec![1.0 / allowed.len() as f64; allowed.len()];
        }
        allowed.iter().map(|&j| row[j as usize] / mass).collect()
    }

    /// Draws a candidate true label for observed label `observed`,
    /// restricted to `allowed` (`random_label(i, P̃, label(H'))`, Alg. 2
    /// line 5).
    ///
    /// The row is renormalised over the allowed labels via
    /// [`Self::restricted_row`] (uniform fallback when no allowed label
    /// has positive mass); if `allowed` is empty the observed label is
    /// returned unchanged.
    pub fn random_label(&self, observed: u32, allowed: &[u32], rng: &mut StdRng) -> u32 {
        if allowed.is_empty() {
            return observed;
        }
        let probs = self.restricted_row(observed, allowed);
        let mut u: f64 = rng.gen_range(0.0..1.0);
        for (m, &j) in allowed.iter().enumerate() {
            if u < probs[m] {
                return j;
            }
            u -= probs[m];
        }
        *allowed.last().expect("allowed is non-empty")
    }

    /// Raw parts `(classes, joint, cond)` for binary checkpointing.
    pub fn to_parts(&self) -> (usize, &[u64], &[f64]) {
        (self.classes, &self.joint, &self.cond)
    }

    /// Rebuilds the estimate from [`Self::to_parts`] output.
    ///
    /// # Panics
    /// Panics when either buffer is not `classes × classes`.
    pub fn from_parts(classes: usize, joint: Vec<u64>, cond: Vec<f64>) -> Self {
        assert_eq!(joint.len(), classes * classes, "joint count shape mismatch");
        assert_eq!(cond.len(), classes * classes, "conditional shape mismatch");
        Self { classes, joint, cond }
    }

    /// Estimated per-class correct-label probability `P̃(y* = i | ỹ = i)`;
    /// `1 − diag` is the estimated mislabelling rate used by Corollary 1.
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.classes).map(|i| self.prob(i, i)).collect()
    }
}

/// Corollary 1: the probability that true class `m` is absent from
/// `label(D)` when `D` holds `count` samples of class `m`, given the
/// per-class correct-label probability `p_keep = P(ỹ = m | y* = m)`.
pub fn prob_class_missing(p_keep: f64, count: usize) -> f64 {
    assert!((0.0..=1.0).contains(&p_keep), "probability out of range");
    (1.0 - p_keep).powi(count as i32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn estimate_simple() -> ConditionalLabelProbability {
        // Observed 0 predicted 0 ×3, observed 0 predicted 1 ×1,
        // observed 1 predicted 1 ×2. Class 2 unseen.
        let observed = vec![0, 0, 0, 0, 1, 1];
        let predicted = vec![0, 0, 0, 1, 1, 1];
        ConditionalLabelProbability::estimate(&observed, &predicted, 3)
    }

    #[test]
    fn joint_and_conditional() {
        let p = estimate_simple();
        assert_eq!(p.joint_count(0, 0), 3);
        assert_eq!(p.joint_count(0, 1), 1);
        assert!((p.prob(0, 0) - 0.75).abs() < 1e-12);
        assert!((p.prob(0, 1) - 0.25).abs() < 1e-12);
        assert!((p.prob(1, 1) - 1.0).abs() < 1e-12);
        // Unseen class falls back to identity.
        assert!((p.prob(2, 2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rows_are_stochastic() {
        let p = estimate_simple();
        for i in 0..3 {
            let s: f64 = p.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "row {i} sums to {s}");
        }
    }

    #[test]
    fn random_label_respects_restriction() {
        let p = estimate_simple();
        let mut rng = StdRng::seed_from_u64(1);
        // Row 0 has mass on {0, 1}; restricting to {1} must always give 1.
        for _ in 0..20 {
            assert_eq!(p.random_label(0, &[1], &mut rng), 1);
        }
        // Restricting to a zero-mass label falls back to uniform over it.
        for _ in 0..20 {
            assert_eq!(p.random_label(0, &[2], &mut rng), 2);
        }
        // Empty restriction returns the observed label.
        assert_eq!(p.random_label(0, &[], &mut rng), 0);
    }

    #[test]
    fn random_label_matches_distribution() {
        let p = estimate_simple();
        let mut rng = StdRng::seed_from_u64(2);
        let n = 4000;
        let ones = (0..n).filter(|_| p.random_label(0, &[0, 1], &mut rng) == 1).count();
        let rate = ones as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.03, "rate {rate}");
    }

    #[test]
    fn corollary1_shape() {
        // More samples of a class make it exponentially less likely to be
        // entirely mislabelled out of label(D).
        assert!((prob_class_missing(0.9, 1) - 0.1).abs() < 1e-12);
        assert!(prob_class_missing(0.9, 5) < prob_class_missing(0.9, 2));
        assert_eq!(prob_class_missing(1.0, 3), 0.0);
        assert_eq!(prob_class_missing(0.0, 3), 1.0);
    }

    /// Seeded cases per property.
    const CASES: u64 = 256;

    /// `len` in `lens` pairs of `(observed, predicted)` labels below `classes`.
    fn random_pairs(
        rng: &mut StdRng,
        classes: u32,
        lens: std::ops::Range<usize>,
    ) -> (Vec<u32>, Vec<u32>) {
        let n = rng.gen_range(lens);
        (0..n).map(|_| (rng.gen_range(0..classes), rng.gen_range(0..classes))).unzip()
    }

    /// A sorted set of distinct labels below `classes`, its size in `sizes`.
    fn random_label_set(rng: &mut StdRng, classes: u32, sizes: std::ops::Range<usize>) -> Vec<u32> {
        let n = rng.gen_range(sizes);
        let mut set = std::collections::BTreeSet::new();
        while set.len() < n {
            set.insert(rng.gen_range(0..classes));
        }
        set.into_iter().collect()
    }

    #[test]
    fn prop_estimate_rows_stochastic() {
        for case in 0..CASES {
            let mut rng = StdRng::seed_from_u64(case);
            let (observed, predicted) = random_pairs(&mut rng, 5, 1..60);
            let est = ConditionalLabelProbability::estimate(&observed, &predicted, 5);
            for i in 0..5 {
                let s: f64 = est.row(i).iter().sum();
                assert!((s - 1.0).abs() < 1e-9, "case {case}");
                assert!(est.row(i).iter().all(|&p| (0.0..=1.0).contains(&p)), "case {case}");
            }
        }
    }

    #[test]
    fn prop_restricted_row_renormalises() {
        for case in 0..CASES {
            let mut rng = StdRng::seed_from_u64(case);
            let (obs, pred) = random_pairs(&mut rng, 5, 1..80);
            let allowed = random_label_set(&mut rng, 5, 1..5);
            let observed = rng.gen_range(0u32..5);
            let est = ConditionalLabelProbability::estimate(&obs, &pred, 5);
            let restricted = est.restricted_row(observed, &allowed);
            assert_eq!(restricted.len(), allowed.len(), "case {case}");
            let sum: f64 = restricted.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "case {case}: sum {sum}");
            assert!(
                restricted.iter().all(|p| p.is_finite() && (0.0..=1.0).contains(p)),
                "case {case}"
            );
            // Proportionality: when the restriction keeps positive mass,
            // renormalising must preserve the ratios of the original row.
            let row = est.row(observed as usize);
            let mass: f64 = allowed.iter().map(|&j| row[j as usize]).sum();
            if mass > 0.0 {
                for (m, &j) in allowed.iter().enumerate() {
                    assert!((restricted[m] - row[j as usize] / mass).abs() < 1e-12, "case {case}");
                }
            }
        }
    }

    #[test]
    fn prop_degenerate_rows_fall_back_without_nan() {
        // Class 4's row was never observed: estimation falls back to
        // the identity. Restricting it to labels != 4 leaves zero mass,
        // which must yield the uniform fallback — never NaN.
        let est = ConditionalLabelProbability::estimate(&[0, 1], &[1, 0], 5);
        for case in 0..CASES {
            let mut rng = StdRng::seed_from_u64(case);
            let allowed = random_label_set(&mut rng, 4, 1..5);
            let restricted = est.restricted_row(4, &allowed);
            assert!(restricted.iter().all(|p| p.is_finite()), "case {case}");
            let sum: f64 = restricted.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "case {case}: sum {sum}");
            for &p in &restricted {
                assert!((p - 1.0 / allowed.len() as f64).abs() < 1e-12, "case {case}");
            }
            let drawn = est.random_label(4, &allowed, &mut rng);
            assert!(allowed.contains(&drawn), "case {case}");
        }
    }

    #[test]
    fn prop_parts_round_trip() {
        for case in 0..CASES {
            let mut rng = StdRng::seed_from_u64(case);
            let (obs, pred) = random_pairs(&mut rng, 4, 1..40);
            let est = ConditionalLabelProbability::estimate(&obs, &pred, 4);
            let (classes, joint, cond) = est.to_parts();
            let back =
                ConditionalLabelProbability::from_parts(classes, joint.to_vec(), cond.to_vec());
            assert_eq!(back, est, "case {case}");
        }
    }

    #[test]
    fn prop_random_label_always_allowed() {
        for case in 0..CASES {
            let mut rng = StdRng::seed_from_u64(case);
            let (observed, predicted) = random_pairs(&mut rng, 4, 4..40);
            let allowed = random_label_set(&mut rng, 4, 1..4);
            let est = ConditionalLabelProbability::estimate(&observed, &predicted, 4);
            let drawn = est.random_label(observed[0], &allowed, &mut rng);
            assert!(allowed.contains(&drawn), "case {case}");
        }
    }
}
