//! The backbone model: embedding → N blocks → linear head.
//!
//! Exposes the two outputs ENLD needs (paper Table I):
//! * `M(x, θ)` — softmax confidences, via [`Mlp::predict_proba`];
//! * `M̂(x, θ)` — penultimate features, via [`Mlp::features`].

use crate::arch::{Connectivity, ModelConfig};
use crate::data::DataRef;
use crate::dense::Dense;
use crate::init::seeded_rng;
use crate::loss::{softmax_cross_entropy, softmax_inplace};
use crate::matrix::Matrix;
use crate::optimizer::SgdConfig;

/// Batch size used for chunked inference over whole datasets.
const INFERENCE_BATCH: usize = 256;

/// What one forward pass produced: every post-ReLU activation in layer
/// order (embedding output, then hidden and output per block) plus the
/// logits. `acts[j]` is the output of layer `j` and the input of layer
/// `j + 1`, which is all a backward pass needs: the activation feeding a
/// layer is that layer's `dW` input, and a ReLU output is positive exactly
/// where its gradient passes.
struct Tape {
    acts: Vec<Matrix>,
    logits: Matrix,
}

/// Residual MLP classifier: its configuration, and its layers in the one
/// stable order everything walks — `embed`, then `block{i}.d1`,
/// `block{i}.d2` per block, then `head`. Layers hold parameters and SGD
/// momentum only, so a clone copies exactly those.
///
/// Block `i` is layers `1 + 2i` and `2 + 2i`:
/// `y = ReLU(d2(ReLU(d1(x))) + x [+ x₀])`, with the global skip from the
/// embedding output `x₀` under dense connectivity.
#[derive(Clone)]
pub struct Mlp {
    config: ModelConfig,
    layers: Vec<Dense>,
}

impl std::fmt::Debug for Mlp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Mlp({} -> {}x{} blocks -> {}, {:?})",
            self.config.input_dim,
            self.config.blocks,
            self.config.width,
            self.config.classes,
            self.config.connectivity
        )
    }
}

impl Mlp {
    /// Builds a model with He-initialised weights from `seed`.
    pub fn new(config: &ModelConfig, seed: u64) -> Self {
        assert!(config.width > 0 && config.classes > 0 && config.input_dim > 0);
        let mut rng = seeded_rng(seed);
        let width = config.width;
        let mut layers = Vec::with_capacity(2 + 2 * config.blocks);
        layers.push(Dense::new(config.input_dim, width, &mut rng));
        layers.extend((0..2 * config.blocks).map(|_| Dense::new(width, width, &mut rng)));
        layers.push(Dense::new(width, config.classes, &mut rng));
        Self { config: *config, layers }
    }

    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.config.classes
    }

    /// Every layer, in the stable order: `embed`, `block{i}.d1`,
    /// `block{i}.d2`, …, `head`.
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Replaces every layer (parameters and momentum) with `layers`, which
    /// must be this architecture's walk: same count, same order, same
    /// shapes. The next SGD step is then bit-identical to the source
    /// model's.
    ///
    /// # Errors
    /// Names the first layer that does not fit; the model is untouched.
    pub fn restore(&mut self, layers: &[Dense]) -> Result<(), String> {
        if layers.len() != self.layers.len() {
            return Err(format!("{} tensors where {} fit", layers.len(), self.layers.len()));
        }
        for (i, (have, new)) in self.layers.iter().zip(layers).enumerate() {
            let (want, got) = ((have.in_dim(), have.out_dim()), (new.in_dim(), new.out_dim()));
            if want != got {
                return Err(format!("tensor {i} is {got:?} where {want:?} fits"));
            }
        }
        self.layers.clone_from_slice(layers);
        Ok(())
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Dense::param_count).sum()
    }

    /// Resets optimiser momentum; call when fine-tuning starts from a
    /// snapshot of the general model.
    pub fn reset_momentum(&mut self) {
        self.layers.iter_mut().for_each(Dense::reset_momentum);
    }

    /// The one forward pass over a batch.
    fn forward(&self, x: &Matrix) -> Tape {
        let dense = self.config.connectivity == Connectivity::DenselyConnected;
        let (head, body) = self.layers.split_last().expect("a model has a head");
        let mut acts = Vec::with_capacity(body.len());
        let mut h = body[0].forward(x);
        h.relu();
        acts.push(h);
        for block in body[1..].chunks_exact(2) {
            let x = &acts[acts.len() - 1];
            let mut hidden = block[0].forward(x);
            hidden.relu();
            let mut y = block[1].forward(&hidden);
            y.add_assign(x);
            if dense {
                y.add_assign(&acts[0]);
            }
            y.relu();
            acts.push(hidden);
            acts.push(y);
        }
        let logits = head.forward(&acts[acts.len() - 1]);
        Tape { acts, logits }
    }

    /// Backward pass and SGD step in one walk from the head down: each
    /// layer's `dW`/`db` are consumed as they are produced, after its `dX`
    /// was taken against the pre-step weights. `tape` is the forward pass
    /// of the same `x`.
    fn backward_step(&mut self, x: &Matrix, tape: &Tape, dlogits: &Matrix, sgd: &SgdConfig) {
        let dense = self.config.connectivity == Connectivity::DenselyConnected;
        let acts = &tape.acts;
        let mut layer_step = |j: usize, dy: &Matrix| {
            let dx = self.layers[j].input_grad(dy);
            self.layers[j].step(&acts[j - 1], dy, sgd);
            dx
        };
        let mut d = layer_step(acts.len(), dlogits);
        // Gradient reaching the embedding output through the global skips.
        let mut d_global: Option<Matrix> = None;
        for d2 in (2..acts.len()).step_by(2).rev() {
            let mut dy = d;
            dy.zero_where_not_positive(&acts[d2]);
            let mut dh = layer_step(d2, &dy);
            dh.zero_where_not_positive(&acts[d2 - 1]);
            d = layer_step(d2 - 1, &dh);
            d.add_assign(&dy); // residual skip
            if dense {
                match &mut d_global {
                    Some(total) => total.add_assign(&dy),
                    None => d_global = Some(dy),
                }
            }
        }
        if let Some(g) = d_global {
            d.add_assign(&g);
        }
        d.zero_where_not_positive(&acts[0]);
        self.layers[0].step(x, &d, sgd);
    }

    /// One training step on a batch — forward, mean cross-entropy against
    /// the soft `targets`, backward and SGD step. Returns the loss.
    pub(crate) fn train_step(&mut self, x: &Matrix, targets: &Matrix, sgd: &SgdConfig) -> f32 {
        let tape = self.forward(x);
        let (loss, dlogits) = softmax_cross_entropy(&tape.logits, targets);
        self.backward_step(x, &tape, &dlogits, sgd);
        loss
    }

    /// Inference: the `(features, logits)` of the forward pass — the
    /// penultimate activation is the last one on the tape.
    pub fn forward_inference(&self, x: &Matrix) -> (Matrix, Matrix) {
        let Tape { mut acts, logits } = self.forward(x);
        (acts.pop().expect("the embedding output is always on the tape"), logits)
    }

    /// Softmax confidences `M(x, θ)` for every sample in `data`,
    /// as an `(n × classes)` matrix. Chunked internally.
    pub fn predict_proba(&self, data: DataRef<'_>) -> Matrix {
        let mut out = Matrix::zeros(data.len(), self.config.classes);
        self.for_each_chunk(data, |start, (_, mut logits)| {
            softmax_inplace(&mut logits);
            for r in 0..logits.rows() {
                out.row_mut(start + r).copy_from_slice(logits.row(r));
            }
        });
        out
    }

    /// Penultimate features `M̂(x, θ)` for every sample in `data`.
    pub fn features(&self, data: DataRef<'_>) -> Matrix {
        let mut out = Matrix::zeros(data.len(), self.config.width);
        self.for_each_chunk(data, |start, (feats, _)| {
            for r in 0..feats.rows() {
                out.row_mut(start + r).copy_from_slice(feats.row(r));
            }
        });
        out
    }

    /// Both confidences and features in one pass (ENLD's per-iteration
    /// refresh needs both; fusing halves inference cost).
    pub fn proba_and_features(&self, data: DataRef<'_>) -> (Matrix, Matrix) {
        let mut probs = Matrix::zeros(data.len(), self.config.classes);
        let mut feats = Matrix::zeros(data.len(), self.config.width);
        self.for_each_chunk(data, |start, (f, mut logits)| {
            softmax_inplace(&mut logits);
            for r in 0..logits.rows() {
                probs.row_mut(start + r).copy_from_slice(logits.row(r));
                feats.row_mut(start + r).copy_from_slice(f.row(r));
            }
        });
        (probs, feats)
    }

    /// Predicted labels `argmax M(x, θ)`.
    pub fn predict_labels(&self, data: DataRef<'_>) -> Vec<u32> {
        let mut labels = vec![0u32; data.len()];
        self.for_each_chunk(data, |start, (_, logits)| {
            for r in 0..logits.rows() {
                labels[start + r] = argmax(logits.row(r)) as u32;
            }
        });
        labels
    }

    /// Classification accuracy against the observed labels in `data`.
    pub fn accuracy(&self, data: DataRef<'_>) -> f32 {
        if data.is_empty() {
            return 0.0;
        }
        let preds = self.predict_labels(data);
        let correct = preds.iter().zip(data.labels()).filter(|(p, l)| p == l).count();
        correct as f32 / data.len() as f32
    }

    fn for_each_chunk(&self, data: DataRef<'_>, f: impl FnMut(usize, (Matrix, Matrix))) {
        for_each_chunk(data, |batch| self.forward_inference(batch), f);
    }
}

/// The one place inference is split: runs `forward` (a model's
/// `forward_inference`) over `INFERENCE_BATCH`-row chunks of `data` in
/// parallel, then hands each `(features, logits)` pair and the index of
/// its first row to `f` sequentially, in chunk order. Chunk boundaries depend only on
/// `data.len()` and rows are independent, so the result is the whole-batch
/// forward pass bit for bit at every thread count.
pub(crate) fn for_each_chunk(
    data: DataRef<'_>,
    forward: impl Fn(&Matrix) -> (Matrix, Matrix) + Sync,
    mut f: impl FnMut(usize, (Matrix, Matrix)),
) {
    let n = data.len();
    let results = enld_par::par_map(n.div_ceil(INFERENCE_BATCH), 1, |ci| {
        let start = ci * INFERENCE_BATCH;
        let indices: Vec<usize> = (start..(start + INFERENCE_BATCH).min(n)).collect();
        forward(&data.gather(&indices))
    });
    for (ci, result) in results.into_iter().enumerate() {
        f(ci * INFERENCE_BATCH, result);
    }
}

/// Index of the maximum element (first on ties). Entries that compare
/// with nothing (NaN) are never picked; 0 when there is nothing to pick.
pub fn argmax<T: PartialOrd + Copy>(row: &[T]) -> usize {
    let Some(start) = row.iter().position(|v| v.partial_cmp(v).is_some()) else { return 0 };
    let (mut best, mut best_v) = (start, row[start]);
    for (i, &v) in row.iter().enumerate().skip(start + 1) {
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::ArchPreset;
    use crate::loss::one_hot;

    fn toy_data() -> (Vec<f32>, Vec<u32>) {
        // Three well-separated clusters in 4-d.
        let mut xs = Vec::new();
        let mut labels = Vec::new();
        for i in 0..90 {
            let c = i % 3;
            let base = [c as f32 * 3.0, -(c as f32) * 2.0, 1.0 + c as f32, 0.5];
            let jitter = (i as f32 * 0.37).sin() * 0.1;
            for b in base {
                xs.push(b + jitter);
            }
            labels.push(c as u32);
        }
        (xs, labels)
    }

    #[test]
    fn same_seed_same_model() {
        let cfg = ArchPreset::tiny().config(4, 3);
        let (xs, labels) = toy_data();
        let data = DataRef::new(&xs, &labels, 4);
        let a = Mlp::new(&cfg, 9).predict_proba(data);
        let b = Mlp::new(&cfg, 9).predict_proba(data);
        assert_eq!(a.data(), b.data());
        let c = Mlp::new(&cfg, 10).predict_proba(data);
        assert_ne!(a.data(), c.data());
    }

    #[test]
    fn training_reduces_loss() {
        let cfg = ArchPreset::tiny().config(4, 3);
        let mut model = Mlp::new(&cfg, 1);
        let (xs, labels) = toy_data();
        let data = DataRef::new(&xs, &labels, 4);
        let idx: Vec<usize> = (0..data.len()).collect();
        let batch = data.gather(&idx);
        let targets = one_hot(data.labels(), 3);
        let sgd = SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 0.0 };

        let loss0 = model.train_step(&batch, &targets, &sgd);
        let mut loss_prev = loss0;
        for _ in 0..30 {
            loss_prev = model.train_step(&batch, &targets, &sgd);
        }
        assert!(loss_prev < loss0 * 0.5, "loss {loss0} -> {loss_prev}");
        assert!(model.accuracy(data) > 0.9);
    }

    /// `model` with `delta` added to weight `idx` of layer `layer`.
    fn nudged(model: &Mlp, layer: usize, idx: usize, delta: f32) -> Mlp {
        let mut layers = model.layers().to_vec();
        let (w, b, vel_w, vel_b) = model.layers()[layer].parts();
        let mut data = w.data().to_vec();
        data[idx] += delta;
        layers[layer] =
            Dense::from_parts(w.rows(), w.cols(), data, b.to_vec(), vel_w.to_vec(), vel_b.to_vec())
                .expect("same shape");
        let mut out = model.clone();
        out.restore(&layers).expect("same architecture");
        out
    }

    /// Central-difference check of the fused backward-and-step through
    /// both skip topologies: one plain SGD step (momentum 0, decay 0)
    /// moves each weight by `lr · ∂loss/∂w`, so the analytic gradient is
    /// `(w_before − w_after) / lr`.
    #[test]
    fn gradients_match_central_differences_for_both_connectivities() {
        let x = Matrix::from_vec(2, 3, vec![0.4, -0.2, 0.9, -0.5, 0.3, 0.1]);
        let targets = one_hot(&[0, 1], 2);
        let loss_of = |m: &Mlp| softmax_cross_entropy(&m.forward_inference(&x).1, &targets).0;
        let (lr, eps) = (1.0f32, 2e-3f32);
        for connectivity in [Connectivity::Residual, Connectivity::DenselyConnected] {
            let cfg = ModelConfig { input_dim: 3, classes: 2, width: 6, blocks: 2, connectivity };
            let model = Mlp::new(&cfg, 4);
            let mut stepped = model.clone();
            stepped.train_step(&x, &targets, &SgdConfig { lr, momentum: 0.0, weight_decay: 0.0 });
            let mut nonzero = 0;
            for (layer, (before, after)) in model.layers().iter().zip(stepped.layers()).enumerate()
            {
                let (w0, w1) = (before.parts().0.data(), after.parts().0.data());
                for idx in [0, w0.len() / 3, w0.len() / 2, w0.len() - 1] {
                    let analytic = (w0[idx] - w1[idx]) / lr;
                    let numeric = (loss_of(&nudged(&model, layer, idx, eps))
                        - loss_of(&nudged(&model, layer, idx, -eps)))
                        / (2.0 * eps);
                    assert!(
                        (numeric - analytic).abs() < 1e-3 + 0.02 * analytic.abs(),
                        "{connectivity:?} layer {layer} w[{idx}]: numeric {numeric} vs analytic {analytic}"
                    );
                    nonzero += usize::from(analytic != 0.0);
                }
            }
            assert!(nonzero >= 2 * model.layers().len(), "{connectivity:?}: gradients mostly zero");
        }
    }

    #[test]
    fn training_a_clone_moves_no_bit_of_the_original() {
        let cfg = ArchPreset::tiny().config(4, 3);
        let (xs, labels) = toy_data();
        let data = DataRef::new(&xs, &labels, 4);
        let batch = data.gather(&(0..30).collect::<Vec<_>>());
        let targets = one_hot(&labels[..30], 3);
        let sgd = SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 1e-4 };

        let mut model = Mlp::new(&cfg, 6);
        for _ in 0..3 {
            model.train_step(&batch, &targets, &sgd);
        }
        let frozen = model.layers().to_vec();
        // A clone taken mid-training carries the momentum…
        let mut clone = model.clone();
        assert_eq!(clone.layers(), model.layers());
        assert!(clone.layers().iter().any(|l| l.parts().2.iter().any(|v| *v != 0.0)));
        // …training it leaves the original alone…
        clone.train_step(&batch, &targets, &sgd);
        assert_eq!(model.layers(), &frozen[..]);
        assert_ne!(clone.layers(), model.layers());
        // …and the original's next step is the very step the clone took.
        model.train_step(&batch, &targets, &sgd);
        assert_eq!(model.layers(), clone.layers());
    }

    #[test]
    fn feature_and_proba_shapes() {
        let cfg = ArchPreset::tiny().config(4, 3);
        let model = Mlp::new(&cfg, 3);
        let (xs, labels) = toy_data();
        let data = DataRef::new(&xs, &labels, 4);
        let probs = model.predict_proba(data);
        let feats = model.features(data);
        assert_eq!(probs.rows(), data.len());
        assert_eq!(probs.cols(), 3);
        assert_eq!(feats.rows(), data.len());
        assert_eq!(feats.cols(), cfg.width);
        for r in 0..probs.rows() {
            let s: f32 = probs.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-4);
        }
        let (p2, f2) = model.proba_and_features(data);
        assert_eq!(p2.data(), probs.data());
        assert_eq!(f2.data(), feats.data());
    }

    #[test]
    fn chunked_inference_matches_one_batch_at_every_thread_count() {
        // Two full chunks and a ragged third, so `for_each_chunk` really
        // splits: rows are independent, so neither the split nor the
        // thread count may move a bit.
        let cfg = ArchPreset::resnet110_sim().config(4, 3);
        let model = Mlp::new(&cfg, 8);
        let n = 2 * INFERENCE_BATCH + 37;
        let xs: Vec<f32> = (0..n * 4).map(|i| ((i * 7) % 23) as f32 * 0.1 - 1.0).collect();
        let labels = vec![0u32; n];
        let data = DataRef::new(&xs, &labels, 4);
        let all: Vec<usize> = (0..n).collect();
        let (want_feats, mut want_probs) = model.forward_inference(&data.gather(&all));
        softmax_inplace(&mut want_probs);
        for threads in [1, 2, 8] {
            let (probs, feats) = enld_par::with_threads(threads, || model.proba_and_features(data));
            assert_eq!(probs.data(), want_probs.data(), "probs threads={threads}");
            assert_eq!(feats.data(), want_feats.data(), "feats threads={threads}");
        }
    }

    #[test]
    fn momentum_round_trip_reproduces_next_step_exactly() {
        let cfg = ArchPreset::tiny().config(4, 3);
        let mut model = Mlp::new(&cfg, 6);
        let (xs, labels) = toy_data();
        let data = DataRef::new(&xs, &labels, 4);
        let idx: Vec<usize> = (0..30).collect();
        let batch = data.gather(&idx);
        let targets = one_hot(&labels[..30], 3);
        let sgd = SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 1e-4 };

        // Build non-trivial momentum, then snapshot the walk.
        for _ in 0..3 {
            model.train_step(&batch, &targets, &sgd);
        }
        let snapshot = model.layers().to_vec();
        assert!(
            snapshot.iter().any(|l| l.parts().2.iter().any(|v| *v != 0.0)),
            "snapshot should carry live momentum"
        );

        let mut restored = Mlp::new(&cfg, 999);
        restored.restore(&snapshot).expect("same architecture");

        // One more identical step on both models must agree bit-for-bit;
        // without momentum restore the velocity term would diverge.
        for m in [&mut model, &mut restored] {
            m.train_step(&batch, &targets, &sgd);
        }
        assert_eq!(model.predict_proba(data).data(), restored.predict_proba(data).data());
    }

    #[test]
    fn restore_rejects_a_walk_that_does_not_fit() {
        let mut model = Mlp::new(&ArchPreset::tiny().config(4, 3), 6);
        let before = model.layers().to_vec();
        let mut short = before.clone();
        short.pop();
        let mut swapped = before.clone();
        swapped.swap(0, 1);
        for bad in [&short, &swapped] {
            assert!(model.restore(bad).is_err());
            assert_eq!(model.layers(), &before[..], "a failed restore leaves the model alone");
        }
    }

    #[test]
    fn argmax_ties_pick_first() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), 1);
        assert_eq!(argmax(&[-1.0]), 0);
        assert_eq!(argmax(&[f32::NEG_INFINITY, f32::NEG_INFINITY]), 0);
        assert_eq!(argmax(&[f32::NAN, 0.5, f32::NAN]), 1);
        assert_eq!(argmax(&[f32::NAN]), 0);
        // Vote tallies: all-zero rows and ties resolve to the first class.
        assert_eq!(argmax(&[0u32, 3, 2]), 1);
        assert_eq!(argmax(&[0u32, 0]), 0);
        assert_eq!(argmax::<u32>(&[]), 0);
    }
}
