//! The backbone model: embedding → N blocks → linear head.
//!
//! Exposes the two outputs ENLD needs (paper Table I):
//! * `M(x, θ)` — softmax confidences, via [`Mlp::predict_proba`];
//! * `M̂(x, θ)` — penultimate features, via [`Mlp::features`].

use rand::rngs::StdRng;

use crate::arch::{Connectivity, ModelConfig};
use crate::data::DataRef;
use crate::dense::Dense;
use crate::init::seeded_rng;
use crate::loss::softmax_inplace;
use crate::matrix::Matrix;
use crate::optimizer::SgdConfig;

/// Batch size used for chunked inference over whole datasets.
const INFERENCE_BATCH: usize = 256;

/// One pre-activation two-layer block with a residual skip and an optional
/// global skip from the embedding (dense connectivity).
#[derive(Clone)]
struct Block {
    d1: Dense,
    d2: Dense,
    mask_hidden: Option<Vec<bool>>,
    mask_out: Option<Vec<bool>>,
    uses_global_skip: bool,
}

impl Block {
    fn new(width: usize, uses_global_skip: bool, rng: &mut StdRng) -> Self {
        Self {
            d1: Dense::new(width, width, rng),
            d2: Dense::new(width, width, rng),
            mask_hidden: None,
            mask_out: None,
            uses_global_skip,
        }
    }

    /// `y = ReLU(d2(ReLU(d1(x))) + x [+ x₀])`
    fn forward(&mut self, x: &Matrix, global_skip: Option<&Matrix>) -> Matrix {
        let mut h = self.d1.forward(x);
        self.mask_hidden = Some(h.relu_inplace());
        let mut y = self.d2.forward(&h);
        y.add_assign(x);
        if self.uses_global_skip {
            let g = global_skip.expect("dense connectivity requires the embedding output");
            y.add_assign(g);
        }
        self.mask_out = Some(y.relu_inplace());
        y
    }

    fn forward_inference(&self, x: &Matrix, global_skip: Option<&Matrix>) -> Matrix {
        let mut h = self.d1.forward_inference(x);
        h.relu_inference();
        let mut y = self.d2.forward_inference(&h);
        y.add_assign(x);
        if self.uses_global_skip {
            let g = global_skip.expect("dense connectivity requires the embedding output");
            y.add_assign(g);
        }
        y.relu_inference();
        y
    }

    /// Returns `(dx, d_global)` where `d_global` is the gradient flowing
    /// into the embedding output through the global skip (if any).
    fn backward(&mut self, dy: &Matrix) -> (Matrix, Option<Matrix>) {
        let mut dy = dy.clone();
        dy.apply_mask(self.mask_out.as_ref().expect("backward before forward"));
        let mut dh = self.d2.backward(&dy);
        dh.apply_mask(self.mask_hidden.as_ref().expect("backward before forward"));
        let mut dx = self.d1.backward(&dh);
        dx.add_assign(&dy); // residual skip
        let d_global = self.uses_global_skip.then(|| dy.clone());
        (dx, d_global)
    }

    fn apply_gradients(&mut self, cfg: &SgdConfig) {
        self.d1.apply_gradients(cfg);
        self.d2.apply_gradients(cfg);
    }

    fn reset_momentum(&mut self) {
        self.d1.reset_momentum();
        self.d2.reset_momentum();
    }

    fn param_count(&self) -> usize {
        self.d1.param_count() + self.d2.param_count()
    }
}

/// Residual MLP classifier with cached activations for training.
#[derive(Clone)]
pub struct Mlp {
    config: ModelConfig,
    embed: Dense,
    embed_mask: Option<Vec<bool>>,
    embed_out: Option<Matrix>,
    blocks: Vec<Block>,
    head: Dense,
    features_cache: Option<Matrix>,
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
        let dense = config.connectivity == Connectivity::DenselyConnected;
        let embed = Dense::new(config.input_dim, config.width, &mut rng);
        let blocks =
            (0..config.blocks).map(|_| Block::new(config.width, dense, &mut rng)).collect();
        let head = Dense::new(config.width, config.classes, &mut rng);
        Self {
            config: *config,
            embed,
            embed_mask: None,
            embed_out: None,
            blocks,
            head,
            features_cache: None,
        }
    }

    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.config.classes
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        self.embed.param_count()
            + self.blocks.iter().map(Block::param_count).sum::<usize>()
            + self.head.param_count()
    }

    /// Training forward pass over a batch; caches activations for
    /// [`Mlp::backward`]. Returns logits `(n × classes)`.
    pub fn forward_train(&mut self, x: &Matrix) -> Matrix {
        let mut h = self.embed.forward(x);
        self.embed_mask = Some(h.relu_inplace());
        self.embed_out = Some(h.clone());
        let embed_out = self.embed_out.clone();
        for block in &mut self.blocks {
            h = block.forward(&h, embed_out.as_ref());
        }
        self.features_cache = Some(h.clone());
        self.head.forward(&h)
    }

    /// Backward pass from the logits gradient; accumulates gradients in
    /// every layer.
    pub fn backward(&mut self, dlogits: &Matrix) {
        let mut d = self.head.backward(dlogits);
        let mut d_global_total: Option<Matrix> = None;
        for block in self.blocks.iter_mut().rev() {
            let (dx, d_global) = block.backward(&d);
            d = dx;
            if let Some(g) = d_global {
                match &mut d_global_total {
                    Some(total) => total.add_assign(&g),
                    None => d_global_total = Some(g),
                }
            }
        }
        if let Some(g) = d_global_total {
            d.add_assign(&g);
        }
        d.apply_mask(self.embed_mask.as_ref().expect("backward before forward"));
        let _ = self.embed.backward(&d);
    }

    /// Applies all accumulated gradients and clears them.
    pub fn apply_gradients(&mut self, cfg: &SgdConfig) {
        self.embed.apply_gradients(cfg);
        for block in &mut self.blocks {
            block.apply_gradients(cfg);
        }
        self.head.apply_gradients(cfg);
    }

    /// Resets optimiser momentum; call when fine-tuning starts from a
    /// snapshot of the general model.
    pub fn reset_momentum(&mut self) {
        self.embed.reset_momentum();
        for block in &mut self.blocks {
            block.reset_momentum();
        }
        self.head.reset_momentum();
    }

    /// Inference forward pass: returns `(features, logits)` without
    /// touching training caches (`&self`).
    pub fn forward_inference(&self, x: &Matrix) -> (Matrix, Matrix) {
        let mut h = self.embed.forward_inference(x);
        h.relu_inference();
        let embed_out = h.clone();
        for block in &self.blocks {
            h = block.forward_inference(&h, Some(&embed_out));
        }
        let logits = self.head.forward_inference(&h);
        (h, logits)
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

    /// Exports every trainable tensor as `(name, weights, bias)` in a
    /// stable order — what the detector checkpoint stores.
    pub fn export_tensors(&self) -> Vec<(String, Matrix, Vec<f32>)> {
        let mut out = Vec::with_capacity(2 + 2 * self.blocks.len());
        let dump = |name: String, d: &Dense, out: &mut Vec<(String, Matrix, Vec<f32>)>| {
            let (w, b) = d.weights();
            out.push((name, w.clone(), b.to_vec()));
        };
        dump("embed".into(), &self.embed, &mut out);
        for (i, block) in self.blocks.iter().enumerate() {
            dump(format!("block{i}.d1"), &block.d1, &mut out);
            dump(format!("block{i}.d2"), &block.d2, &mut out);
        }
        dump("head".into(), &self.head, &mut out);
        out
    }

    /// Restores trainable tensors previously produced by
    /// [`Mlp::export_tensors`] on a model of the same configuration.
    ///
    /// # Panics
    /// Panics when a tensor name or shape does not match this model.
    pub fn import_tensors(&mut self, tensors: Vec<(String, Matrix, Vec<f32>)>) {
        let expected = 2 + 2 * self.blocks.len();
        assert_eq!(tensors.len(), expected, "tensor count mismatch");
        for (name, w, b) in tensors {
            self.layer_mut(&name).set_weights(w, b);
        }
        self.embed_mask = None;
        self.embed_out = None;
        self.features_cache = None;
    }

    /// Exports SGD momentum buffers as `(name, vel_w, vel_b)` in the same
    /// stable order as [`Mlp::export_tensors`]. A checkpoint restoring a
    /// mid-fine-tune model needs these to reproduce the next step exactly.
    pub fn export_momentum(&self) -> Vec<(String, Vec<f32>, Vec<f32>)> {
        let mut out = Vec::with_capacity(2 + 2 * self.blocks.len());
        let dump = |name: String, d: &Dense, out: &mut Vec<(String, Vec<f32>, Vec<f32>)>| {
            let (vw, vb) = d.momentum();
            out.push((name, vw.to_vec(), vb.to_vec()));
        };
        dump("embed".into(), &self.embed, &mut out);
        for (i, block) in self.blocks.iter().enumerate() {
            dump(format!("block{i}.d1"), &block.d1, &mut out);
            dump(format!("block{i}.d2"), &block.d2, &mut out);
        }
        dump("head".into(), &self.head, &mut out);
        out
    }

    /// Restores momentum buffers from [`Mlp::export_momentum`]. Call
    /// *after* [`Mlp::import_tensors`], which resets momentum.
    ///
    /// # Panics
    /// Panics when a name or buffer length does not match this model.
    pub fn import_momentum(&mut self, momentum: Vec<(String, Vec<f32>, Vec<f32>)>) {
        let expected = 2 + 2 * self.blocks.len();
        assert_eq!(momentum.len(), expected, "momentum tensor count mismatch");
        for (name, vw, vb) in momentum {
            self.layer_mut(&name).set_momentum(vw, vb);
        }
    }

    /// Resolves a stable tensor name (`embed`, `block{i}.d1/.d2`, `head`)
    /// to its layer.
    fn layer_mut(&mut self, name: &str) -> &mut Dense {
        match name {
            "embed" => &mut self.embed,
            "head" => &mut self.head,
            other => {
                let rest = other
                    .strip_prefix("block")
                    .unwrap_or_else(|| panic!("unknown tensor '{other}'"));
                let (idx, which) = rest
                    .split_once('.')
                    .unwrap_or_else(|| panic!("malformed tensor name '{other}'"));
                let idx: usize =
                    idx.parse().unwrap_or_else(|_| panic!("malformed block index in '{other}'"));
                let block = self.blocks.get_mut(idx).unwrap_or_else(|| panic!("no block {idx}"));
                match which {
                    "d1" => &mut block.d1,
                    "d2" => &mut block.d2,
                    _ => panic!("unknown tensor '{other}'"),
                }
            }
        }
    }

    /// The frozen layers the quantized snapshot needs: embedding, per-block
    /// `(d1, d2, uses_global_skip)`, and the head.
    pub(crate) fn inference_parts(&self) -> (&Dense, Vec<(&Dense, &Dense, bool)>, &Dense) {
        let blocks =
            self.blocks.iter().map(|b| (&b.d1, &b.d2, b.uses_global_skip)).collect::<Vec<_>>();
        (&self.embed, blocks, &self.head)
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
    use crate::loss::{one_hot, softmax_cross_entropy};

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

        let logits0 = model.forward_train(&batch);
        let (loss0, grad) = softmax_cross_entropy(&logits0, &targets);
        model.backward(&grad);
        model.apply_gradients(&sgd);
        let mut loss_prev = loss0;
        for _ in 0..30 {
            let logits = model.forward_train(&batch);
            let (loss, grad) = softmax_cross_entropy(&logits, &targets);
            model.backward(&grad);
            model.apply_gradients(&sgd);
            loss_prev = loss;
        }
        assert!(loss_prev < loss0 * 0.5, "loss {loss0} -> {loss_prev}");
        assert!(model.accuracy(data) > 0.9);
    }

    #[test]
    fn inference_matches_training_forward() {
        let cfg = ArchPreset::resnet110_sim().config(4, 3);
        let mut model = Mlp::new(&cfg, 2);
        let (xs, labels) = toy_data();
        let data = DataRef::new(&xs, &labels, 4);
        let idx: Vec<usize> = (0..5).collect();
        let batch = data.gather(&idx);
        let train_logits = model.forward_train(&batch);
        let (_, inf_logits) = model.forward_inference(&batch);
        assert_eq!(train_logits.data(), inf_logits.data());
    }

    #[test]
    fn densely_connected_gradcheck() {
        // End-to-end finite-difference check through the global skip path.
        let cfg = ModelConfig {
            input_dim: 3,
            classes: 2,
            width: 6,
            blocks: 2,
            connectivity: Connectivity::DenselyConnected,
        };
        let mut model = Mlp::new(&cfg, 4);
        let x = Matrix::from_vec(2, 3, vec![0.4, -0.2, 0.9, -0.5, 0.3, 0.1]);
        let targets = one_hot(&[0, 1], 2);

        let logits = model.forward_train(&x);
        let (_, grad) = softmax_cross_entropy(&logits, &targets);
        model.backward(&grad);

        // Perturb a single embed weight and verify the loss moves as the
        // accumulated gradient predicts. We reach in through training: apply
        // a tiny step with lr=eps along the gradient and check the loss drop.
        let (loss_before, _) = softmax_cross_entropy(&model.forward_inference(&x).1, &targets);
        let lr = 1e-2;
        model.apply_gradients(&SgdConfig { lr, momentum: 0.0, weight_decay: 0.0 });
        let (loss_after, _) = softmax_cross_entropy(&model.forward_inference(&x).1, &targets);
        assert!(
            loss_after < loss_before,
            "gradient step must reduce loss: {loss_before} -> {loss_after}"
        );
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

        // Build non-trivial momentum, then snapshot.
        for _ in 0..3 {
            let logits = model.forward_train(&batch);
            let (_, grad) = softmax_cross_entropy(&logits, &targets);
            model.backward(&grad);
            model.apply_gradients(&sgd);
        }
        let tensors = model.export_tensors();
        let momentum = model.export_momentum();
        assert!(
            momentum.iter().any(|(_, vw, _)| vw.iter().any(|v| *v != 0.0)),
            "snapshot should carry live momentum"
        );

        let mut restored = Mlp::new(&cfg, 999);
        restored.import_tensors(tensors);
        restored.import_momentum(momentum);

        // One more identical step on both models must agree bit-for-bit;
        // without momentum restore the velocity term would diverge.
        for m in [&mut model, &mut restored] {
            let logits = m.forward_train(&batch);
            let (_, grad) = softmax_cross_entropy(&logits, &targets);
            m.backward(&grad);
            m.apply_gradients(&sgd);
        }
        assert_eq!(model.predict_proba(data).data(), restored.predict_proba(data).data());
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
