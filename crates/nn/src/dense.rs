//! Fully-connected layer: parameters and their SGD momentum.

use rand::rngs::StdRng;

use crate::init::he_uniform;
use crate::matrix::{
    all_finite, gemm, pick, transpose_into, Epilogue, Lhs, Matrix, Scratch, Tally,
};
use crate::optimizer::SgdConfig;

/// The buffers a layer's products and updates reuse from one call to the
/// next — the products' own, `Wᵀ` for an input gradient, `dW` and `db` —
/// so that a pass over many layers allocates none of them per product.
#[derive(Default)]
pub(crate) struct Work {
    gemm: Scratch,
    wt: Vec<f32>,
    dw: Vec<f32>,
    db: Vec<f32>,
}

/// `y = x·W + b`, with the SGD velocity of `W` and `b`.
///
/// `W` is stored `(in_dim × out_dim)` so the forward pass is a plain
/// row-major product over a batch `(n × in_dim)`. The layer keeps nothing
/// from one batch to the next: the caller hands the forward input back to
/// `Dense::step`, and the buffers of a pass live in the caller's `Work`.
///
/// Each product takes what the rule of `nn::matrix` asks of its operands
/// from the caller: the exact zeros of the left operand and whether the
/// right one is finite, as the pass that wrote them counted.
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

    /// Whether every weight is finite: the rule's question about `W`,
    /// which no pass of a step writes before reading it.
    pub(crate) fn weights_finite(&self) -> bool {
        all_finite(self.w.data())
    }

    /// `out = x·W + b`, finished by `epi` (its skips and activation; the
    /// bias is this layer's). `x` has `x_zeros` exact zeros.
    pub(crate) fn forward_into(
        &self,
        x: &Matrix,
        x_zeros: usize,
        w_finite: bool,
        epi: Epilogue<'_>,
        out: &mut Matrix,
        work: &mut Work,
    ) -> Tally {
        let (m, k, n) = (x.rows(), self.in_dim(), self.out_dim());
        let body = pick(n, x.data().len(), || x_zeros, || w_finite);
        out.reuse(m, n);
        let epi = Epilogue { bias: Some(&self.b), ..epi };
        gemm(
            Some(body),
            Lhs::Rows(x.data()),
            m,
            k,
            self.w.data(),
            n,
            &epi,
            out.data_mut(),
            &mut work.gemm,
        )
    }

    /// `out = dy · Wᵀ`, the gradient handed to the layer below, finished
    /// by `epi`. `W` is transposed once, into `work`, and read where it
    /// lies. `dy` has `dy_zeros` exact zeros.
    pub(crate) fn input_grad_into(
        &self,
        dy: &Matrix,
        dy_zeros: usize,
        w_finite: bool,
        epi: Epilogue<'_>,
        out: &mut Matrix,
        work: &mut Work,
    ) -> Tally {
        let (m, k, n) = (dy.rows(), self.out_dim(), self.in_dim());
        transpose_into(self.w.data(), n, k, &mut work.wt);
        let body = pick(n, dy.data().len(), || dy_zeros, || w_finite);
        out.reuse(m, n);
        gemm(
            Some(body),
            Lhs::Rows(dy.data()),
            m,
            k,
            &work.wt,
            n,
            &epi,
            out.data_mut(),
            &mut work.gemm,
        )
    }

    /// One SGD step from the batch that produced `dy`: `dW = xᵀ · dy` and
    /// `db` = column sums of `dy`, consumed as they are produced. Take
    /// [`Dense::input_grad_into`] first — it must see the pre-step
    /// weights. `x` has `x_zeros` exact zeros.
    pub(crate) fn step(
        &mut self,
        x: &Matrix,
        x_zeros: usize,
        dy: &Matrix,
        dy_finite: bool,
        cfg: &SgdConfig,
        work: &mut Work,
    ) {
        let (m, k, n) = (self.in_dim(), x.rows(), self.out_dim());
        let body = pick(n, x.data().len(), || x_zeros, || dy_finite);
        work.dw.resize(m * n, 0.0);
        let epi = Epilogue::default();
        gemm(
            Some(body),
            Lhs::Cols(x.data()),
            m,
            k,
            dy.data(),
            n,
            &epi,
            &mut work.dw,
            &mut work.gemm,
        );
        cfg.step(self.w.data_mut(), &work.dw, &mut self.vel_w, true);
        let db = &mut work.db;
        db.clear();
        db.resize(n, 0.0);
        for r in 0..dy.rows() {
            for (gb, &d) in db.iter_mut().zip(dy.row(r)) {
                *gb += d;
            }
        }
        // Biases are conventionally exempt from weight decay.
        cfg.step(&mut self.b, db, &mut self.vel_b, false);
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
    use crate::matrix::count_zeros;

    fn forward(layer: &Dense, x: &Matrix) -> Matrix {
        let mut y = Matrix::default();
        let (zeros, finite) = (count_zeros(x.data()), layer.weights_finite());
        layer.forward_into(x, zeros, finite, Epilogue::default(), &mut y, &mut Work::default());
        y
    }

    /// Numerically checks dX on a tiny layer via central differences.
    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = seeded_rng(3);
        let layer = Dense::new(3, 2, &mut rng);
        let x = Matrix::from_vec(2, 3, vec![0.5, -0.2, 0.1, 1.0, 0.3, -0.7]);

        // Loss = sum(y^2)/2 so dL/dy = y.
        let loss_of = |x: &Matrix| -> f32 {
            let y = forward(&layer, x);
            y.data().iter().map(|v| v * v).sum::<f32>() / 2.0
        };

        let y = forward(&layer, &x);
        let mut dx = Matrix::default();
        let (zeros, finite) = (count_zeros(y.data()), layer.weights_finite());
        layer.input_grad_into(
            &y,
            zeros,
            finite,
            Epilogue::default(),
            &mut dx,
            &mut Work::default(),
        );

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
        let y = forward(&layer, &x);
        let lr = 0.1;
        let sgd = SgdConfig { lr, momentum: 0.0, weight_decay: 0.0 };
        layer.step(&x, 0, &y, true, &sgd, &mut Work::default());
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
