//! SGD with momentum and decoupled weight decay.
//!
//! Each [`crate::dense::Dense`] layer owns its own velocity buffers; this
//! module only carries the hyper-parameters and the per-tensor update rule
//! so the step logic lives in one place.

use serde::{Deserialize, Serialize};

/// Hyper-parameters for stochastic gradient descent.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SgdConfig {
    /// Learning rate α.
    pub lr: f32,
    /// Classical momentum coefficient (0 disables momentum).
    pub momentum: f32,
    /// L2 weight decay applied to weights (not biases).
    pub weight_decay: f32,
}

impl Default for SgdConfig {
    fn default() -> Self {
        Self { lr: 0.05, momentum: 0.9, weight_decay: 1e-4 }
    }
}

impl SgdConfig {
    /// Updates one parameter tensor in place.
    ///
    /// `v ← momentum·v + g + wd·p`, then `p ← p − lr·v`.
    pub fn step(&self, params: &mut [f32], grads: &[f32], velocity: &mut [f32], decay: bool) {
        debug_assert_eq!(params.len(), grads.len());
        debug_assert_eq!(params.len(), velocity.len());
        let wd = if decay { self.weight_decay } else { 0.0 };
        for ((p, &g), v) in params.iter_mut().zip(grads).zip(velocity.iter_mut()) {
            let g = g + wd * *p;
            *v = self.momentum * *v + g;
            *p -= self.lr * *v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_sgd_moves_against_gradient() {
        let cfg = SgdConfig { lr: 0.1, momentum: 0.0, weight_decay: 0.0 };
        let mut p = vec![1.0f32];
        let g = vec![2.0f32];
        let mut v = vec![0.0f32];
        cfg.step(&mut p, &g, &mut v, false);
        assert!((p[0] - 0.8).abs() < 1e-6);
    }

    #[test]
    fn momentum_accumulates() {
        let cfg = SgdConfig { lr: 0.1, momentum: 0.9, weight_decay: 0.0 };
        let mut p = vec![0.0f32];
        let g = vec![1.0f32];
        let mut v = vec![0.0f32];
        cfg.step(&mut p, &g, &mut v, false); // v=1,    p=-0.1
        cfg.step(&mut p, &g, &mut v, false); // v=1.9,  p=-0.29
        assert!((p[0] + 0.29).abs() < 1e-6, "p = {}", p[0]);
    }

    #[test]
    fn weight_decay_shrinks_params_only_when_enabled() {
        let cfg = SgdConfig { lr: 0.1, momentum: 0.0, weight_decay: 0.5 };
        let mut p = vec![1.0f32];
        let mut v = vec![0.0f32];
        cfg.step(&mut p, &[0.0], &mut v, true);
        assert!((p[0] - 0.95).abs() < 1e-6);

        let mut p2 = vec![1.0f32];
        let mut v2 = vec![0.0f32];
        cfg.step(&mut p2, &[0.0], &mut v2, false);
        assert_eq!(p2[0], 1.0);
    }
}
