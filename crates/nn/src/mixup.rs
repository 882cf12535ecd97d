//! Mixup augmentation (Zhang et al., 2017), used by the paper during
//! general-model initialisation with `λ ~ Beta(α, α)`, `α = 0.2`
//! (paper Eq. 1–2 and §IV-B).

use rand::rngs::StdRng;
use rand::Rng;

use crate::matrix::Matrix;

/// Draws one sample from `Gamma(shape, 1)` via Marsaglia–Tsang, with the
/// standard `shape < 1` boost `G(a) = G(a+1) · U^{1/a}`.
fn sample_gamma(shape: f32, rng: &mut StdRng) -> f32 {
    if shape < 1.0 {
        let u: f32 = rng.gen_range(1e-12f32..1.0);
        return sample_gamma(shape + 1.0, rng) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        // Normal(0,1) via Box–Muller.
        let u1: f32 = rng.gen_range(1e-12f32..1.0);
        let u2: f32 = rng.gen_range(0.0f32..1.0);
        let x = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f32 = rng.gen_range(1e-12f32..1.0);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

/// Draws `λ ~ Beta(alpha, alpha)`.
pub fn sample_beta(alpha: f32, rng: &mut StdRng) -> f32 {
    let a = sample_gamma(alpha, rng);
    let b = sample_gamma(alpha, rng);
    if a + b == 0.0 {
        0.5
    } else {
        a / (a + b)
    }
}

/// Mixes a batch with a shuffled copy of itself:
/// `x̂ = λ·x + (1−λ)·x[perm]`, `ŷ = λ·y + (1−λ)·y[perm]`.
///
/// `perm` must be a permutation of `0..x.rows()`; one `λ` is drawn per
/// batch, matching the reference Mixup implementation.
pub fn mixup_batch(
    x: &Matrix,
    targets: &Matrix,
    alpha: f32,
    perm: &[usize],
    rng: &mut StdRng,
) -> (Matrix, Matrix) {
    assert_eq!(x.rows(), targets.rows(), "batch mismatch");
    assert_eq!(perm.len(), x.rows(), "perm length mismatch");
    let lambda = sample_beta(alpha, rng);
    let mix = |a: &Matrix| -> Matrix {
        let mut out = a.clone();
        for (r, &other) in perm.iter().enumerate() {
            for (o, &p) in out.row_mut(r).iter_mut().zip(a.row(other)) {
                *o = lambda * *o + (1.0 - lambda) * p;
            }
        }
        out
    };
    (mix(x), mix(targets))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_rng;
    use crate::loss::one_hot;

    #[test]
    fn beta_samples_are_in_unit_interval() {
        let mut rng = seeded_rng(1);
        for _ in 0..1000 {
            let l = sample_beta(0.2, &mut rng);
            assert!((0.0..=1.0).contains(&l), "lambda {l}");
        }
    }

    #[test]
    fn beta_point_two_is_bimodal() {
        // Beta(0.2, 0.2) concentrates mass near 0 and 1.
        let mut rng = seeded_rng(2);
        let n = 2000;
        let extreme = (0..n)
            .filter(|_| {
                let l = sample_beta(0.2, &mut rng);
                !(0.2..=0.8).contains(&l)
            })
            .count();
        assert!(extreme > n / 2, "expected bimodal mass, got {extreme}/{n} extreme draws");
    }

    #[test]
    fn beta_large_alpha_concentrates_at_half() {
        let mut rng = seeded_rng(3);
        let mean: f32 = (0..500).map(|_| sample_beta(50.0, &mut rng)).sum::<f32>() / 500.0;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn mixup_is_convex_combination() {
        let mut rng = seeded_rng(4);
        let x = Matrix::from_vec(2, 2, vec![0.0, 0.0, 1.0, 1.0]);
        let t = one_hot(&[0, 1], 2);
        let perm = vec![1, 0];
        let (mx, mt) = mixup_batch(&x, &t, 0.2, &perm, &mut rng);
        // Every mixed value stays within the convex hull of the inputs.
        for v in mx.data() {
            assert!((0.0..=1.0).contains(v));
        }
        for r in 0..2 {
            let s: f32 = mt.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5, "soft labels must stay a distribution");
        }
        // Both rows use the same lambda: row0 = (1-λ)·[1,1], row1 = λ·[1,1].
        assert!((mx.row(0)[0] + mx.row(1)[0] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn identity_perm_is_noop_on_features() {
        let mut rng = seeded_rng(5);
        let x = Matrix::from_vec(2, 2, vec![0.3, 0.7, -0.2, 0.9]);
        let t = one_hot(&[0, 1], 2);
        let (mx, mt) = mixup_batch(&x, &t, 0.2, &[0, 1], &mut rng);
        assert_eq!(mx.data(), x.data());
        assert_eq!(mt.data(), t.data());
    }
}
