//! Class-manifold generator.
//!
//! Each class is a mixture of `modes` anisotropic Gaussian modes: a sample
//! of class `c`, mode `m` is
//!
//! ```text
//! x = μ_{c,m} + B_{c,m} · z + σ · ε,   z ~ N(0, I_q),  ε ~ N(0, I_d)
//! ```
//!
//! where `μ` are class centres on a sphere of radius `separation`, `B` is a
//! random `d × q` manifold basis and `σ` is isotropic jitter. The ratio
//! `separation / (‖B‖ + σ)` is the difficulty knob that orders the three
//! dataset presets the way the paper's results order EMNIST < CIFAR-100 <
//! Tiny-ImageNet.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::dataset::Dataset;
use crate::gauss::{fill_standard_normal, standard_normal};

/// Parameters of the class-manifold generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ManifoldSpec {
    /// Number of classes.
    pub classes: usize,
    /// Ambient feature dimensionality.
    pub dim: usize,
    /// Intrinsic manifold dimensionality `q ≤ dim`.
    pub manifold_dim: usize,
    /// Gaussian modes per class.
    pub modes: usize,
    /// Radius of the class-centre placement.
    pub separation: f32,
    /// Scale of the manifold basis (within-class spread along the manifold).
    pub basis_scale: f32,
    /// Isotropic within-class jitter σ.
    pub jitter: f32,
}

impl ManifoldSpec {
    /// Generates `per_class` samples for every class.
    ///
    /// # Panics
    /// Panics if `manifold_dim > dim` or any size is zero.
    pub fn generate(&self, per_class: usize, seed: u64) -> Dataset {
        assert!(self.classes > 0 && self.dim > 0 && self.modes > 0 && per_class > 0);
        assert!(self.manifold_dim <= self.dim, "manifold_dim must not exceed dim");
        let mut rng = StdRng::seed_from_u64(seed);

        // Class centres: random directions scaled to `separation`. With
        // enough dimensions random directions are nearly orthogonal, giving
        // approximately equidistant classes.
        let mut centres = vec![vec![0.0f32; self.dim]; self.classes];
        for centre in &mut centres {
            fill_standard_normal(centre, &mut rng);
            let norm = centre.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-6);
            for v in centre.iter_mut() {
                *v *= self.separation / norm;
            }
        }

        // Per-class per-mode offsets and bases. All scales are normalised
        // so the *total* (vector-norm) spread equals the configured scale
        // regardless of the ambient dimension — otherwise high-dimensional
        // presets would drown the class structure in sqrt(dim)-scaled
        // noise.
        let dim_norm = (self.dim as f32).sqrt();
        struct Mode {
            centre: Vec<f32>,
            basis: Vec<f32>, // dim × manifold_dim, row-major
        }
        let mut modes: Vec<Vec<Mode>> = Vec::with_capacity(self.classes);
        for centre in &centres {
            let mut class_modes = Vec::with_capacity(self.modes);
            for _ in 0..self.modes {
                let mut mode_centre = centre.clone();
                // Mode centres deviate from the class centre by ~basis_scale
                // in total norm.
                for v in mode_centre.iter_mut() {
                    *v += standard_normal(&mut rng) * self.basis_scale / dim_norm;
                }
                let mut basis = vec![0.0f32; self.dim * self.manifold_dim];
                fill_standard_normal(&mut basis, &mut rng);
                // E‖B·z‖² = dim · q · s² with entries ~ N(0, s²); choose s
                // so E‖B·z‖ ≈ basis_scale.
                let s = self.basis_scale / (dim_norm * (self.manifold_dim as f32).sqrt());
                for v in basis.iter_mut() {
                    *v *= s;
                }
                class_modes.push(Mode { centre: mode_centre, basis });
            }
            modes.push(class_modes);
        }
        // Isotropic jitter with total norm ≈ `jitter`.
        let jitter_per_dim = self.jitter / dim_norm;

        // One pass in sample order: draw the manifold coordinates `z`, then
        // the jitter `ε`, then evaluate the sample (centre, basis terms in
        // ascending q, then jitter).
        let n = self.classes * per_class;
        let (q, dim) = (self.manifold_dim, self.dim);
        let (mut z, mut eps) = (vec![0.0f32; q], vec![0.0f32; dim]);
        let mut xs = vec![0.0f32; n * dim];
        for (g, x) in xs.chunks_mut(dim).enumerate() {
            fill_standard_normal(&mut z, &mut rng);
            fill_standard_normal(&mut eps, &mut rng);
            let mode = &modes[g / per_class][g % per_class % self.modes];
            for (d, xv) in x.iter_mut().enumerate() {
                let mut v = mode.centre[d];
                for (qi, &zq) in z.iter().enumerate() {
                    v += mode.basis[d * q + qi] * zq;
                }
                *xv = v + eps[d] * jitter_per_dim;
            }
        }
        let labels: Vec<u32> = (0..n).map(|g| (g / per_class) as u32).collect();
        Dataset::new(xs, labels, self.dim, self.classes)
    }

    /// A rough class-separability score: mean centre distance divided by
    /// mean within-class spread. Used by tests to verify the difficulty
    /// ordering of presets.
    pub fn separability(&self) -> f32 {
        // Random unit vectors in d dims are ~orthogonal, so centre distance
        // ≈ sqrt(2)·separation. With the normalised generator the total
        // within-class spread is ≈ sqrt(basis² + jitter²), independent of
        // the ambient dimension.
        let within =
            (self.basis_scale * self.basis_scale + self.jitter * self.jitter).sqrt().max(1e-6);
        (2.0f32).sqrt() * self.separation / within
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ManifoldSpec {
        ManifoldSpec {
            classes: 4,
            dim: 8,
            manifold_dim: 2,
            modes: 2,
            separation: 6.0,
            basis_scale: 1.0,
            jitter: 0.3,
        }
    }

    #[test]
    fn shapes_and_labels() {
        let d = spec().generate(25, 3);
        assert_eq!(d.len(), 100);
        assert_eq!(d.dim(), 8);
        assert_eq!(d.class_counts(), vec![25; 4]);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = spec().generate(10, 5);
        let b = spec().generate(10, 5);
        assert_eq!(a.xs(), b.xs());
        let c = spec().generate(10, 6);
        assert_ne!(a.xs(), c.xs());
    }

    /// FNV-1a over the little-endian f32 bits of every feature, then
    /// every label.
    fn digest(d: &Dataset) -> u64 {
        let words = d.xs().iter().map(|x| x.to_bits()).chain(d.labels().iter().copied());
        words.flat_map(u32::to_le_bytes).fold(0xcbf2_9ce4_8422_2325, |h, byte| {
            (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Pins the generator's RNG draw order and floating-point order: every
    /// seed-pinned lake, result and verdict hash was drawn from this stream.
    #[test]
    fn generated_bits_are_pinned() {
        let preset = crate::presets::DatasetPreset::test_sim();
        let got = [digest(&spec().generate(40, 11)), digest(&preset.generate(9))];
        assert_eq!(got, [0xa998_fb7c_9728_bcbf, 0x6efd_54b9_75b7_19e5], "{got:#018x?}");
    }

    #[test]
    fn classes_are_separated() {
        // Nearest-centroid classification on generated data should be easy
        // when separation >> within-class spread.
        let d = spec().generate(50, 7);
        let mut centroids = vec![vec![0.0f32; d.dim()]; 4];
        let counts = d.class_counts();
        for i in 0..d.len() {
            let c = d.labels()[i] as usize;
            for (j, &v) in d.row(i).iter().enumerate() {
                centroids[c][j] += v;
            }
        }
        for (c, centroid) in centroids.iter_mut().enumerate() {
            for v in centroid.iter_mut() {
                *v /= counts[c] as f32;
            }
        }
        let mut correct = 0;
        for i in 0..d.len() {
            let mut best = 0;
            let mut best_d = f32::INFINITY;
            for (c, centroid) in centroids.iter().enumerate() {
                let dist: f32 = d.row(i).iter().zip(centroid).map(|(a, b)| (a - b) * (a - b)).sum();
                if dist < best_d {
                    best_d = dist;
                    best = c;
                }
            }
            if best == d.labels()[i] as usize {
                correct += 1;
            }
        }
        assert!(correct as f32 / d.len() as f32 > 0.95, "{correct}/200");
    }

    #[test]
    fn lower_separation_is_harder() {
        let easy = spec();
        let hard = ManifoldSpec { separation: 1.5, ..spec() };
        assert!(easy.separability() > hard.separability());
    }

    #[test]
    #[should_panic(expected = "manifold_dim")]
    fn rejects_bad_manifold_dim() {
        let bad = ManifoldSpec { manifold_dim: 9, ..spec() };
        let _ = bad.generate(1, 0);
    }
}
