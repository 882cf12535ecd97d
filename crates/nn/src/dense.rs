//! Fully-connected layer: parameters and their SGD momentum.

use rand::rngs::StdRng;

use crate::init::he_uniform;
use crate::matrix::Matrix;
use crate::optimizer::SgdConfig;

/// `y = x·W + b`, with the SGD velocity of `W` and `b`.
///
/// `W` is stored `(in_dim × out_dim)` so the forward pass is a plain
/// row-major matmul over a batch `(n × in_dim)`. The layer keeps nothing
/// from one batch to the next: the caller hands the forward input back to
/// [`Dense::step`].
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    w: Matrix,
    b: Vec<f32>,
    vel_w: Vec<f32>,
    vel_b: Vec<f32>,
}

impl Dense {
    /// He-initialised layer.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        Self {
            w: he_uniform(in_dim, out_dim, rng),
            b: vec![0.0; out_dim],
            vel_w: vec![0.0; in_dim * out_dim],
            vel_b: vec![0.0; out_dim],
        }
    }

    /// Rebuilds a layer from stored parts (row-major `in_dim × out_dim`
    /// weights, bias, and the velocity of each); `None` when the lengths
    /// do not describe one layer.
    pub fn from_parts(
        in_dim: usize,
        out_dim: usize,
        w: Vec<f32>,
        b: Vec<f32>,
        vel_w: Vec<f32>,
        vel_b: Vec<f32>,
    ) -> Option<Self> {
        let fits = in_dim.checked_mul(out_dim) == Some(w.len())
            && b.len() == out_dim
            && vel_w.len() == w.len()
            && vel_b.len() == out_dim;
        fits.then(|| Self { w: Matrix::from_vec(in_dim, out_dim, w), b, vel_w, vel_b })
    }

    /// Borrows `(W, b, vel_W, vel_b)` — what [`Dense::from_parts`] takes.
    pub fn parts(&self) -> (&Matrix, &[f32], &[f32], &[f32]) {
        (&self.w, &self.b, &self.vel_w, &self.vel_b)
    }

    pub fn in_dim(&self) -> usize {
        self.w.rows()
    }

    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }

    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut y = x.matmul(&self.w);
        y.add_row_bias(&self.b);
        y
    }

    /// `dX = dy · Wᵀ`, the gradient handed to the layer below.
    pub fn input_grad(&self, dy: &Matrix) -> Matrix {
        dy.matmul_bt(&self.w)
    }

    /// One SGD step from the batch that produced `dy`: `dW = xᵀ · dy` and
    /// `db` = column sums of `dy`, consumed as they are produced. Take
    /// [`Dense::input_grad`] first — it must see the pre-step weights.
    pub fn step(&mut self, x: &Matrix, dy: &Matrix, cfg: &SgdConfig) {
        let dw = x.matmul_at(dy);
        cfg.step(self.w.data_mut(), dw.data(), &mut self.vel_w, true);
        let mut db = vec![0.0f32; self.b.len()];
        for r in 0..dy.rows() {
            for (gb, &d) in db.iter_mut().zip(dy.row(r)) {
                *gb += d;
            }
        }
        // Biases are conventionally exempt from weight decay.
        cfg.step(&mut self.b, &db, &mut self.vel_b, false);
    }

    /// Resets momentum buffers (used when a fine-tune run starts from a
    /// snapshot of the general model).
    pub fn reset_momentum(&mut self) {
        self.vel_w.iter_mut().for_each(|v| *v = 0.0);
        self.vel_b.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Total number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.w.data().len() + self.b.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_rng;

    /// Numerically checks dX on a tiny layer via central differences.
    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = seeded_rng(3);
        let layer = Dense::new(3, 2, &mut rng);
        let x = Matrix::from_vec(2, 3, vec![0.5, -0.2, 0.1, 1.0, 0.3, -0.7]);

        // Loss = sum(y^2)/2 so dL/dy = y.
        let loss_of = |x: &Matrix| -> f32 {
            let y = layer.forward(x);
            y.data().iter().map(|v| v * v).sum::<f32>() / 2.0
        };

        let y = layer.forward(&x);
        let dx = layer.input_grad(&y);

        let eps = 1e-3f32;
        for idx in 0..x.data().len() {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let num = (loss_of(&xp) - loss_of(&xm)) / (2.0 * eps);
            let ana = dx.data()[idx];
            assert!((num - ana).abs() < 1e-2, "dX[{idx}]: numeric {num} vs analytic {ana}");
        }
    }

    #[test]
    fn step_moves_weights_against_the_gradient() {
        let mut rng = seeded_rng(5);
        let mut layer = Dense::new(2, 2, &mut rng);
        let before = layer.clone();
        let x = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let y = layer.forward(&x);
        let lr = 0.1;
        layer.step(&x, &y, &SgdConfig { lr, momentum: 0.0, weight_decay: 0.0 });
        // dW = xᵀ·y and db = y for a one-row batch of ones.
        let (w0, b0, ..) = before.parts();
        let (w1, b1, ..) = layer.parts();
        for (i, (&a, &b)) in w0.data().iter().zip(w1.data()).enumerate() {
            assert_eq!(b, a - lr * y.data()[i % 2], "W[{i}]");
        }
        for (i, (&a, &b)) in b0.iter().zip(b1).enumerate() {
            assert_eq!(b, a - lr * y.data()[i], "b[{i}]");
        }
    }

    #[test]
    fn from_parts_round_trips_and_rejects_ill_fitting_lengths() {
        let mut rng = seeded_rng(11);
        let layer = Dense::new(4, 3, &mut rng);
        let (w, b, vw, vb) = layer.parts();
        let build = |rows, cols, w: &[f32], b: &[f32], vw: &[f32], vb: &[f32]| {
            Dense::from_parts(rows, cols, w.to_vec(), b.to_vec(), vw.to_vec(), vb.to_vec())
        };
        assert_eq!(build(4, 3, w.data(), b, vw, vb), Some(layer.clone()));
        assert_eq!(build(3, 4, w.data(), b, vw, vb), None, "bias no longer fits the columns");
        assert_eq!(build(4, 3, &w.data()[1..], b, vw, vb), None);
        assert_eq!(build(4, 3, w.data(), b, &vw[1..], vb), None);
        assert_eq!(build(4, 3, w.data(), b, vw, &vb[1..]), None);
        assert_eq!(build(usize::MAX, 2, w.data(), b, vw, vb), None, "rows * cols overflows");
    }

    #[test]
    fn param_count() {
        let mut rng = seeded_rng(1);
        let layer = Dense::new(10, 7, &mut rng);
        assert_eq!(layer.param_count(), 10 * 7 + 7);
    }
}
