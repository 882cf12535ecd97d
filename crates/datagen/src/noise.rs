//! Label-noise models: the [`NoiseModel`] trait and the transition-matrix
//! family.
//!
//! The paper generates noise from a label transition matrix
//! `T[i][j] = P(ỹ = j | y* = i)` and evaluates with *pair asymmetric*
//! noise: `T[i][i] = 1−η` and `T[i][succ(i)] = η` (§V-A2). Symmetric and
//! general-asymmetric variants are provided for extension experiments, and
//! missing labels (§V-H) are modelled as a separate mask.
//!
//! Every corruption process implements [`NoiseModel`], so the lake, the
//! CLI and the benchmark grid sweep them uniformly. The richer
//! non-matrix models (instance-dependent, annotator-confusion, long-tail,
//! drift) live in [`crate::zoo`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dataset::Dataset;

/// A label-corruption process.
///
/// `position ∈ [0, 1]` locates the dataset in the arrival stream (0 =
/// inventory / first arrival, 1 = last arrival); stationary models ignore
/// it, time-varying ones ([`crate::zoo::DriftNoise`]) interpolate on it.
/// Implementations must be deterministic in `(dataset, position, seed)`
/// and must never touch features, ids, ground-truth labels or the
/// missing mask — only observed labels (long-tail resampling additionally
/// reshapes *which* rows appear, but each surviving row keeps its
/// feature/truth/id tuple intact).
pub trait NoiseModel: Send + Sync {
    /// Short stable name recorded in datasets and benchmark results.
    fn name(&self) -> String;

    /// Number of classes this model corrupts over.
    fn classes(&self) -> usize;

    /// Returns a corrupted copy of `dataset` at stream position
    /// `position`.
    fn corrupt_at(&self, dataset: &Dataset, position: f64, seed: u64) -> Dataset;

    /// Stationary shorthand: corrupt at the start of the stream.
    fn corrupt_with(&self, dataset: &Dataset, seed: u64) -> Dataset {
        self.corrupt_at(dataset, 0.0, seed)
    }
}

/// The per-arrival corruption seed of the zoo-aware lake builder
/// (`DataLake::build_with_zoo`, which seeds the inventory as arrival 0):
/// golden-ratio mixing keeps consecutive arrivals' RNG streams
/// decorrelated.
pub fn arrival_seed(seed: u64, arrival: usize) -> u64 {
    seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(arrival as u64 + 1))
}

/// Row-stochastic label transition matrix `T[i][j] = P(ỹ=j | y*=i)`.
///
/// This is the paper's noise family (pair-asymmetric, symmetric,
/// general-asymmetric); it was the repo's original `NoiseModel` struct
/// before the trait took the name. Its RNG stream is pinned by the
/// determinism suite: [`TransitionMatrix::corrupt`] must keep drawing one
/// `gen_range(0.0..1.0)` per sample, in index order, from
/// `StdRng::seed_from_u64(seed)`.
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionMatrix {
    classes: usize,
    /// Row-major `classes × classes` transition probabilities.
    t: Vec<f32>,
}

impl TransitionMatrix {
    /// Pair asymmetric noise: class `i` flips to `(i+1) mod classes` with
    /// probability `η` (the paper's evaluation setting).
    pub fn pair_asymmetric(classes: usize, eta: f32) -> Self {
        Self::validate(classes, eta);
        let mut t = vec![0.0; classes * classes];
        for i in 0..classes {
            t[i * classes + i] = 1.0 - eta;
            t[i * classes + (i + 1) % classes] = eta;
        }
        Self { classes, t }
    }

    /// Symmetric (uniform) noise: flips to any *other* class uniformly.
    pub fn symmetric(classes: usize, eta: f32) -> Self {
        Self::validate(classes, eta);
        assert!(classes > 1, "symmetric noise needs at least 2 classes");
        let off = eta / (classes - 1) as f32;
        let mut t = vec![off; classes * classes];
        for i in 0..classes {
            t[i * classes + i] = 1.0 - eta;
        }
        Self { classes, t }
    }

    /// General asymmetric noise: each class flips to one random partner
    /// class with probability `η` (satisfies the paper's Def. of asymmetric
    /// noise: `∃ i≠j, T_ij > T_ik`).
    pub fn asymmetric_random(classes: usize, eta: f32, seed: u64) -> Self {
        Self::validate(classes, eta);
        assert!(classes > 1, "asymmetric noise needs at least 2 classes");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = vec![0.0; classes * classes];
        for i in 0..classes {
            let mut partner = rng.gen_range(0..classes - 1);
            if partner >= i {
                partner += 1; // uniform over classes != i
            }
            t[i * classes + i] = 1.0 - eta;
            t[i * classes + partner] = eta;
        }
        Self { classes, t }
    }

    /// Identity matrix (no corruption); useful as a control.
    pub fn clean(classes: usize) -> Self {
        Self::pair_asymmetric(classes, 0.0)
    }

    /// Builds a matrix from explicit row-major probabilities.
    ///
    /// # Panics
    /// Panics when a row does not sum to 1 (±1e-4) or any entry is
    /// negative.
    pub fn from_rows(classes: usize, t: Vec<f32>) -> Self {
        assert_eq!(t.len(), classes * classes, "matrix shape mismatch");
        for i in 0..classes {
            let row = &t[i * classes..(i + 1) * classes];
            assert!(row.iter().all(|&p| p >= 0.0), "row {i} has a negative entry");
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "row {i} sums to {sum}, not 1");
        }
        Self { classes, t }
    }

    /// Entry-wise linear interpolation `(1−w)·self + w·other`; both inputs
    /// being row-stochastic, so is the result.
    pub fn lerp(&self, other: &TransitionMatrix, w: f32) -> TransitionMatrix {
        assert_eq!(self.classes, other.classes, "class-count mismatch");
        let t = self.t.iter().zip(&other.t).map(|(&a, &b)| (1.0 - w) * a + w * b).collect();
        TransitionMatrix { classes: self.classes, t }
    }

    fn validate(classes: usize, eta: f32) {
        assert!(classes > 0, "classes must be positive");
        assert!((0.0..=1.0).contains(&eta), "noise rate must be in [0, 1]");
    }

    pub fn classes(&self) -> usize {
        self.classes
    }

    /// `T[i][j]`.
    pub fn prob(&self, i: usize, j: usize) -> f32 {
        self.t[i * self.classes + j]
    }

    /// Row `i` of the matrix.
    pub fn row(&self, i: usize) -> &[f32] {
        &self.t[i * self.classes..(i + 1) * self.classes]
    }

    /// Samples an observed label for true label `y`.
    pub fn sample_observed(&self, y: u32, rng: &mut StdRng) -> u32 {
        let row = self.row(y as usize);
        let mut u: f32 = rng.gen_range(0.0..1.0);
        for (j, &p) in row.iter().enumerate() {
            if u < p {
                return j as u32;
            }
            u -= p;
        }
        y // numerical fallback: rows sum to 1 up to float error
    }

    /// Returns a copy of `dataset` with observed labels corrupted by this
    /// transition matrix. Ground-truth labels and ids are untouched.
    pub fn corrupt(&self, dataset: &Dataset, seed: u64) -> Dataset {
        assert_eq!(dataset.classes(), self.classes, "class-count mismatch");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = dataset.clone();
        for i in 0..out.len() {
            let observed = self.sample_observed(dataset.true_labels()[i], &mut rng);
            out.set_label(i, observed);
        }
        out
    }
}

impl NoiseModel for TransitionMatrix {
    fn name(&self) -> String {
        "transition-matrix".to_owned()
    }

    fn classes(&self) -> usize {
        self.classes
    }

    fn corrupt_at(&self, dataset: &Dataset, _position: f64, seed: u64) -> Dataset {
        // Delegates to the inherent method so the historical RNG stream
        // (one uniform draw per sample, in index order) is preserved.
        let mut out = self.corrupt(dataset, seed);
        out.set_noise_tag(NoiseModel::name(self));
        out
    }
}

/// Marks a uniformly-random fraction `rate` of samples as missing-label
/// (paper §V-H). The observed label value of a missing sample is
/// meaningless and excluded from `label_set`/`class_counts`.
pub fn apply_missing_labels(dataset: &Dataset, rate: f32, seed: u64) -> Dataset {
    assert!((0.0..=1.0).contains(&rate), "missing rate must be in [0, 1]");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = dataset.clone();
    for i in 0..out.len() {
        if rng.gen_range(0.0f32..1.0) < rate {
            out.set_missing(i, true);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifold::ManifoldSpec;

    fn toy(classes: usize, per_class: usize) -> Dataset {
        ManifoldSpec {
            classes,
            dim: 4,
            manifold_dim: 1,
            modes: 1,
            separation: 5.0,
            basis_scale: 0.5,
            jitter: 0.2,
        }
        .generate(per_class, 1)
    }

    #[test]
    fn pair_asymmetric_structure() {
        let m = TransitionMatrix::pair_asymmetric(4, 0.3);
        for i in 0..4 {
            assert!((m.prob(i, i) - 0.7).abs() < 1e-6);
            assert!((m.prob(i, (i + 1) % 4) - 0.3).abs() < 1e-6);
            let row_sum: f32 = m.row(i).iter().sum();
            assert!((row_sum - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn symmetric_rows_are_uniform_off_diagonal() {
        let m = TransitionMatrix::symmetric(5, 0.4);
        for i in 0..5 {
            assert!((m.prob(i, i) - 0.6).abs() < 1e-6);
            for j in 0..5 {
                if j != i {
                    assert!((m.prob(i, j) - 0.1).abs() < 1e-6);
                }
            }
        }
    }

    #[test]
    fn asymmetric_random_has_single_partner() {
        let m = TransitionMatrix::asymmetric_random(6, 0.2, 3);
        for i in 0..6 {
            let partners: Vec<usize> = (0..6).filter(|&j| j != i && m.prob(i, j) > 0.0).collect();
            assert_eq!(partners.len(), 1, "class {i} must flip to exactly one partner");
            assert_ne!(partners[0], i);
        }
    }

    #[test]
    fn corrupt_hits_target_rate() {
        let d = toy(6, 400);
        let noisy = TransitionMatrix::pair_asymmetric(6, 0.3).corrupt(&d, 11);
        let rate = noisy.noisy_indices().len() as f32 / noisy.len() as f32;
        assert!((rate - 0.3).abs() < 0.03, "rate {rate}");
        // Ground truth untouched.
        assert_eq!(noisy.true_labels(), d.true_labels());
        // Every corruption is to the successor class.
        for &i in &noisy.noisy_indices() {
            let y = noisy.true_labels()[i];
            assert_eq!(noisy.labels()[i], (y + 1) % 6);
        }
    }

    #[test]
    fn clean_model_changes_nothing() {
        let d = toy(3, 50);
        let c = TransitionMatrix::clean(3).corrupt(&d, 2);
        assert_eq!(c.labels(), d.labels());
    }

    #[test]
    fn corrupt_is_deterministic_per_seed() {
        let d = toy(4, 100);
        let m = TransitionMatrix::pair_asymmetric(4, 0.2);
        assert_eq!(m.corrupt(&d, 5).labels(), m.corrupt(&d, 5).labels());
        assert_ne!(m.corrupt(&d, 5).labels(), m.corrupt(&d, 6).labels());
    }

    #[test]
    fn trait_path_matches_inherent_corrupt() {
        // The trait adapter must not disturb the historical RNG stream.
        let d = toy(5, 120);
        let m = TransitionMatrix::symmetric(5, 0.35);
        let inherent = m.corrupt(&d, 42);
        let traited = NoiseModel::corrupt_at(&m, &d, 0.7, 42);
        assert_eq!(inherent.labels(), traited.labels());
        assert_eq!(traited.noise_tag(), Some("transition-matrix"));
        assert_eq!(inherent.noise_tag(), None, "inherent corrupt leaves the tag alone");
    }

    #[test]
    fn lerp_endpoints_and_stochasticity() {
        let a = TransitionMatrix::pair_asymmetric(4, 0.1);
        let b = TransitionMatrix::symmetric(4, 0.4);
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
        let mid = a.lerp(&b, 0.5);
        for i in 0..4 {
            let sum: f32 = mid.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn from_rows_validates() {
        let ok = TransitionMatrix::from_rows(2, vec![0.9, 0.1, 0.2, 0.8]);
        assert!((ok.prob(0, 1) - 0.1).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "sums to")]
    fn from_rows_rejects_non_stochastic() {
        let _ = TransitionMatrix::from_rows(2, vec![0.9, 0.3, 0.2, 0.8]);
    }

    #[test]
    fn missing_labels_hit_target_rate() {
        let d = toy(4, 300);
        let masked = apply_missing_labels(&d, 0.5, 9);
        let rate = masked.missing_indices().len() as f32 / masked.len() as f32;
        assert!((rate - 0.5).abs() < 0.05, "rate {rate}");
        // Missing samples are excluded from noisy_indices.
        let noisy = TransitionMatrix::pair_asymmetric(4, 1.0).corrupt(&d, 1);
        let masked_noisy = apply_missing_labels(&noisy, 1.0, 2);
        assert!(masked_noisy.noisy_indices().is_empty());
    }

    #[test]
    #[should_panic(expected = "noise rate")]
    fn rejects_bad_eta() {
        let _ = TransitionMatrix::pair_asymmetric(3, 1.5);
    }
}
