//! The backbone model: embedding → N blocks → linear head.
//!
//! Exposes the two outputs ENLD needs (paper Table I):
//! * `M(x, θ)` — softmax confidences, via [`Mlp::predict_proba`];
//! * `M̂(x, θ)` — penultimate features, via [`Mlp::features`];
//!
//! and [`Mlp::scan`], the one chunked pass those delegate to, which keeps
//! any of them (plus the logits' argmax) for any list of rows.

use std::mem::take;

use crate::arch::{Connectivity, ModelConfig};
use crate::data::DataRef;
use crate::dense::{Dense, Work};
use crate::init::seeded_rng;
use crate::loss::{softmax_cross_entropy, softmax_inplace};
use crate::matrix::{count_zeros, Act, Epilogue, Matrix, Tally};
use crate::optimizer::SgdConfig;

/// Rows per chunk of an inference pass.
const INFERENCE_BATCH: usize = 256;

/// What one forward pass produced. Activation `j` is the post-ReLU output
/// of layer `j` (embedding output, then hidden and output per block) and
/// the input of layer `j + 1`; it lands in `acts[slot(j)]`, with the exact
/// zeros its product's epilogue counted in `zeros[slot(j)]`. A train step
/// keeps every activation (`slot(j) = j`), which is all its backward pass
/// needs: the activation feeding a layer is that layer's `dW` input, and a
/// ReLU output is positive exactly where its gradient passes. Inference
/// keeps four ([`inference_slot`]).
#[derive(Default)]
struct Pass {
    /// Exact zeros in the input batch.
    x_zeros: usize,
    acts: Vec<Matrix>,
    zeros: Vec<usize>,
    logits: Matrix,
    work: Work,
}

impl Pass {
    /// Makes room for `slots` activations.
    fn with_slots(&mut self, slots: usize) -> &mut Self {
        self.acts.resize_with(slots, Matrix::default);
        self.zeros.resize(slots, 0);
        self
    }
}

/// Where inference keeps activation `j`: the embedding output in slot 0,
/// for the global skips of dense connectivity, every block's hidden
/// activation in slot 1, and the block outputs in slots 2 and 3 in turn —
/// two ping-pong buffers, each block reading its input from one and
/// writing its output to the other.
fn inference_slot(j: usize) -> usize {
    match j {
        0 => 0,
        j if j % 2 == 1 => 1,
        j => 2 + j / 2 % 2,
    }
}

/// What a train step reuses from one step of a fit to the next: its
/// forward [`Pass`], the three gradients its backward walk rotates
/// through, and the sum of the global-skip gradients.
#[derive(Default)]
pub(crate) struct StepScratch {
    pass: Pass,
    grads: [Matrix; 3],
    global: Matrix,
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

    /// Whether each layer's weights are all finite, in layer order.
    fn weights_finite(&self) -> Vec<bool> {
        self.layers.iter().map(Dense::weights_finite).collect()
    }

    /// The one forward pass over a batch, into `pass` (activation `j` in
    /// slot `slot(j)`, which `pass` must have room for) and its logits.
    /// Every bias, skip and ReLU is applied by its layer's product as it
    /// finishes each row, in the unfused order: `y = ReLU(((x·W + b) +
    /// x_in) + x₀)`. `w_finite` is [`Mlp::weights_finite`].
    fn forward(&self, x: &Matrix, w_finite: &[bool], pass: &mut Pass, slot: fn(usize) -> usize) {
        let dense = self.config.connectivity == Connectivity::DenselyConnected;
        let (head, body) = self.layers.split_last().expect("a model has a head");
        let Pass { x_zeros, acts, zeros, logits, work } = pass;
        let relu = Epilogue { act: Act::Relu, ..Epilogue::default() };
        *x_zeros = count_zeros(x.data());
        let mut y = take(&mut acts[slot(0)]);
        zeros[slot(0)] = body[0].forward_into(x, *x_zeros, w_finite[0], relu, &mut y, work).zeros;
        acts[slot(0)] = y;
        for j in (1..body.len()).step_by(2) {
            let (from, hidden, to) = (slot(j - 1), slot(j), slot(j + 1));
            let mut h = take(&mut acts[hidden]);
            let t = body[j].forward_into(&acts[from], zeros[from], w_finite[j], relu, &mut h, work);
            zeros[hidden] = t.zeros;
            let mut y = take(&mut acts[to]);
            let global = dense.then(|| acts[slot(0)].data());
            let epi = Epilogue { skips: [Some(acts[from].data()), global], ..relu };
            let t = body[j + 1].forward_into(&h, zeros[hidden], w_finite[j + 1], epi, &mut y, work);
            zeros[to] = t.zeros;
            acts[hidden] = h;
            acts[to] = y;
        }
        let last = slot(body.len() - 1);
        let (input, zeros) = (&acts[last], zeros[last]);
        head.forward_into(input, zeros, w_finite[body.len()], Epilogue::default(), logits, work);
    }

    /// Backward pass and SGD step in one walk from the head down: each
    /// layer's `dW`/`db` are consumed as they are produced, after its `dX`
    /// was taken against the pre-step weights. Each `dX` product applies
    /// the residual and global skips and the ReLU mask of the activation
    /// it is the gradient of as it finishes each row, in the unfused
    /// order: `d = mask(((dh·W₁ᵀ) + dy) + Σdy)`. `s.pass` is the forward
    /// pass of the same `x`.
    fn backward_step(
        &mut self,
        x: &Matrix,
        w_finite: &[bool],
        dlogits: &Matrix,
        s: &mut StepScratch,
        sgd: &SgdConfig,
    ) {
        let dense = self.config.connectivity == Connectivity::DenselyConnected;
        let StepScratch { pass: Pass { x_zeros, acts, zeros, work, .. }, grads, global } = s;
        let [dy, dh, d] = grads;
        let layers = &mut self.layers;
        let l = layers.len();
        fn mask(a: &Matrix) -> Epilogue<'_> {
            Epilogue { act: Act::Mask(a.data()), ..Epilogue::default() }
        }
        // No pass of ours wrote the logits' gradient: scan it.
        let dl = Tally::of(dlogits.data());
        let mut t = layers[l - 1].input_grad_into(
            dlogits,
            dl.zeros,
            w_finite[l - 1],
            mask(&acts[l - 2]),
            d,
            work,
        );
        layers[l - 1].step(&acts[l - 2], zeros[l - 2], dlogits, dl.finite, sgd, work);
        // Block `(j1, j1 + 1)`, top block first.
        for j1 in (1..l - 2).step_by(2).rev() {
            let j2 = j1 + 1;
            std::mem::swap(dy, d);
            let t_dy = t;
            let t_dh =
                layers[j2].input_grad_into(dy, t_dy.zeros, w_finite[j2], mask(&acts[j1]), dh, work);
            layers[j2].step(&acts[j1], zeros[j1], dy, t_dy.finite, sgd, work);
            // The gradient reaching the embedding output through the
            // global skips, complete before the bottom block needs it.
            if dense {
                if j2 == l - 2 {
                    global.clone_from(dy);
                } else {
                    global.add_assign(dy);
                }
            }
            let g = (dense && j1 == 1).then(|| global.data());
            let epi = Epilogue { skips: [Some(dy.data()), g], ..mask(&acts[j1 - 1]) };
            t = layers[j1].input_grad_into(dh, t_dh.zeros, w_finite[j1], epi, d, work);
            layers[j1].step(&acts[j1 - 1], zeros[j1 - 1], dh, t_dh.finite, sgd, work);
        }
        layers[0].step(x, *x_zeros, d, t.finite, sgd, work);
    }

    /// One training step on a batch — forward, mean cross-entropy against
    /// the soft `targets`, backward and SGD step — in buffers `scratch`
    /// keeps for the next step. Returns the loss.
    pub(crate) fn train_step(
        &mut self,
        x: &Matrix,
        targets: &Matrix,
        sgd: &SgdConfig,
        scratch: &mut StepScratch,
    ) -> f32 {
        let w_finite = self.weights_finite();
        let pass = scratch.pass.with_slots(self.layers.len() - 1);
        self.forward(x, &w_finite, pass, |j| j);
        let (loss, dlogits) = softmax_cross_entropy(&pass.logits, targets);
        self.backward_step(x, &w_finite, &dlogits, scratch, sgd);
        loss
    }

    /// Inference: the `(features, logits)` of the forward pass — the
    /// penultimate activation is the last one it wrote.
    pub fn forward_inference(&self, x: &Matrix) -> (Matrix, Matrix) {
        let mut pass = Pass::default();
        self.forward(x, &self.weights_finite(), pass.with_slots(4), inference_slot);
        let features = take(&mut pass.acts[inference_slot(self.layers.len() - 2)]);
        (features, pass.logits)
    }

    /// The one chunked inference pass: the rows of `data` named by `rows`
    /// (every row in order when `None`; any order, repeats allowed), keeping
    /// the outputs `keep` asks for. Row `r` of every output belongs to the
    /// `r`-th scanned row, and equals that row of a full scan bit for bit.
    /// Every chunk's forward pass reuses one set of buffers.
    pub fn scan(&self, data: DataRef<'_>, rows: Option<&[usize]>, keep: Outputs) -> Scan {
        let n = rows.map_or(data.len(), <[usize]>::len);
        let kept = |on: bool, cols: usize| Matrix::zeros(if on { n } else { 0 }, cols);
        let mut out = Scan {
            labels: if keep.labels { vec![0; n] } else { Vec::new() },
            proba: kept(keep.proba, self.config.classes),
            features: kept(keep.features, self.config.width),
        };
        let w_finite = self.weights_finite();
        let mut pass = Pass::default();
        pass.with_slots(4);
        let feats_slot = inference_slot(self.layers.len() - 2);
        for_each_chunk(data, rows, |start, batch| {
            self.forward(batch, &w_finite, &mut pass, inference_slot);
            let (feats, logits) = (&pass.acts[feats_slot], &mut pass.logits);
            for r in 0..logits.rows() {
                if keep.labels {
                    out.labels[start + r] = argmax(logits.row(r)) as u32;
                }
                if keep.features {
                    out.features.row_mut(start + r).copy_from_slice(feats.row(r));
                }
            }
            if keep.proba {
                softmax_inplace(logits);
                for r in 0..logits.rows() {
                    out.proba.row_mut(start + r).copy_from_slice(logits.row(r));
                }
            }
        });
        out
    }

    /// Softmax confidences `M(x, θ)` for every sample in `data`,
    /// as an `(n × classes)` matrix. Chunked internally.
    pub fn predict_proba(&self, data: DataRef<'_>) -> Matrix {
        self.scan(data, None, Outputs::PROBA).proba
    }

    /// Penultimate features `M̂(x, θ)` for every sample in `data`.
    pub fn features(&self, data: DataRef<'_>) -> Matrix {
        self.scan(data, None, Outputs::FEATURES).features
    }

    /// Both confidences and features from one pass.
    pub fn proba_and_features(&self, data: DataRef<'_>) -> (Matrix, Matrix) {
        let Scan { proba, features, .. } =
            self.scan(data, None, Outputs { labels: false, ..Outputs::ALL });
        (proba, features)
    }

    /// Predicted labels: the argmax of the logits.
    pub fn predict_labels(&self, data: DataRef<'_>) -> Vec<u32> {
        self.scan(data, None, Outputs::LABELS).labels
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
}

/// Which outputs of [`Mlp::scan`] to keep; the others come back empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outputs {
    pub labels: bool,
    pub proba: bool,
    pub features: bool,
}

impl Outputs {
    pub const LABELS: Self = Self { labels: true, proba: false, features: false };
    pub const PROBA: Self = Self { labels: false, proba: true, features: false };
    pub const FEATURES: Self = Self { labels: false, proba: false, features: true };
    pub const ALL: Self = Self { labels: true, proba: true, features: true };
}

/// What one [`Mlp::scan`] kept, row `r` belonging to the `r`-th scanned
/// row. `labels` is the argmax of the logits, which is not always the
/// argmax of `proba`: on a near-tie the softmax can round two classes to
/// one confidence (`logit_and_softmax_argmax_differ_on_near_ties`).
#[derive(Debug, Clone)]
pub struct Scan {
    pub labels: Vec<u32>,
    /// Softmax confidences `M(x, θ)`, `(rows × classes)`.
    pub proba: Matrix,
    /// Penultimate features `M̂(x, θ)`, `(rows × width)`.
    pub features: Matrix,
}

/// The one place inference is split: gathers the rows of `data` named by
/// `rows` (all of them, in order, when `None`) `INFERENCE_BATCH` at a time
/// and hands each chunk, with the list position of its first row, to `f`
/// before gathering the next. Rows are independent, so a forward pass per
/// chunk is the whole-batch forward pass bit for bit.
pub(crate) fn for_each_chunk(
    data: DataRef<'_>,
    rows: Option<&[usize]>,
    mut f: impl FnMut(usize, &Matrix),
) {
    let n = rows.map_or(data.len(), <[usize]>::len);
    for start in (0..n).step_by(INFERENCE_BATCH) {
        let chunk = start..(start + INFERENCE_BATCH).min(n);
        let batch = match rows {
            Some(rows) => data.gather(&rows[chunk]),
            None => data.gather(&chunk.collect::<Vec<_>>()),
        };
        f(start, &batch);
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

        let loss0 = model.train_step(&batch, &targets, &sgd, &mut StepScratch::default());
        let mut loss_prev = loss0;
        for _ in 0..30 {
            loss_prev = model.train_step(&batch, &targets, &sgd, &mut StepScratch::default());
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
            let sgd = SgdConfig { lr, momentum: 0.0, weight_decay: 0.0 };
            stepped.train_step(&x, &targets, &sgd, &mut StepScratch::default());
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
            model.train_step(&batch, &targets, &sgd, &mut StepScratch::default());
        }
        let frozen = model.layers().to_vec();
        // A clone taken mid-training carries the momentum…
        let mut clone = model.clone();
        assert_eq!(clone.layers(), model.layers());
        assert!(clone.layers().iter().any(|l| l.parts().2.iter().any(|v| *v != 0.0)));
        // …training it leaves the original alone…
        clone.train_step(&batch, &targets, &sgd, &mut StepScratch::default());
        assert_eq!(model.layers(), &frozen[..]);
        assert_ne!(clone.layers(), model.layers());
        // …and the original's next step is the very step the clone took.
        model.train_step(&batch, &targets, &sgd, &mut StepScratch::default());
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
        // splits and the reused buffers shrink: rows are independent, so
        // the split may not move a bit.
        let cfg = ArchPreset::resnet110_sim().config(4, 3);
        let model = Mlp::new(&cfg, 8);
        let n = 2 * INFERENCE_BATCH + 37;
        let xs: Vec<f32> = (0..n * 4).map(|i| ((i * 7) % 23) as f32 * 0.1 - 1.0).collect();
        let labels = vec![0u32; n];
        let data = DataRef::new(&xs, &labels, 4);
        let all: Vec<usize> = (0..n).collect();
        let (want_feats, mut want_probs) = model.forward_inference(&data.gather(&all));
        let want_labels: Vec<u32> = (0..n).map(|r| argmax(want_probs.row(r)) as u32).collect();
        softmax_inplace(&mut want_probs);
        let scan = model.scan(data, None, Outputs::ALL);
        assert_eq!(scan.labels, want_labels, "scan labels");
        assert_eq!(scan.proba.data(), want_probs.data(), "scan probs");
        assert_eq!(scan.features.data(), want_feats.data(), "scan feats");
        let (probs, feats) = model.proba_and_features(data);
        assert_eq!(probs.data(), want_probs.data(), "probs");
        assert_eq!(feats.data(), want_feats.data(), "feats");
        // Each delegate is the matching output of the one pass.
        assert_eq!(model.predict_labels(data), want_labels);
        assert_eq!(model.predict_proba(data).data(), want_probs.data());
        assert_eq!(model.features(data).data(), want_feats.data());
        let only = model.scan(data, None, Outputs::LABELS);
        assert_eq!((only.proba.rows(), only.features.rows()), (0, 0), "unkept outputs are empty");
    }

    #[test]
    fn scanning_a_row_list_equals_those_rows_of_the_full_scan() {
        // Unsorted, with repeats, long enough to be chunked itself.
        let cfg = ArchPreset::resnet110_sim().config(4, 3);
        let model = Mlp::new(&cfg, 8);
        let n = 2 * INFERENCE_BATCH + 37;
        let xs: Vec<f32> = (0..n * 4).map(|i| ((i * 5) % 19) as f32 * 0.15 - 1.2).collect();
        let labels = vec![0u32; n];
        let data = DataRef::new(&xs, &labels, 4);
        let mut rows: Vec<usize> = (0..INFERENCE_BATCH + 50).map(|i| (i * 211) % n).collect();
        rows.extend([n - 1, 3, n - 1, 3, 0]);
        let full = model.scan(data, None, Outputs::ALL);
        let part = model.scan(data, Some(&rows), Outputs::ALL);
        assert_eq!(part.labels.len(), rows.len());
        for (r, &i) in rows.iter().enumerate() {
            assert_eq!(part.labels[r], full.labels[i], "label of row {i}");
            assert_eq!(part.proba.row(r), full.proba.row(i), "proba of row {i}");
            assert_eq!(part.features.row(r), full.features.row(i), "features of row {i}");
        }
        let none = model.scan(data, Some(&[]), Outputs::ALL);
        assert_eq!((none.labels.len(), none.proba.rows(), none.features.rows()), (0, 0, 0));
    }

    /// Why a pass keeps two argmaxes: `exp` of a tiny negative rounds to
    /// 1.0, so the softmax of logits `[0, 1e-8]` ties and picks class 0
    /// while the logits pick class 1. Votes use the logits' argmax, the
    /// ambiguity scan and `H′` the confidences'; folding them into one
    /// would move verdicts.
    #[test]
    fn logit_and_softmax_argmax_differ_on_near_ties() {
        let mut m = Matrix::from_vec(1, 2, vec![0.0, 1e-8]);
        assert_eq!(argmax(m.row(0)), 1);
        softmax_inplace(&mut m);
        assert_eq!(m.row(0)[0], m.row(0)[1]);
        assert_eq!(argmax(m.row(0)), 0);
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
            model.train_step(&batch, &targets, &sgd, &mut StepScratch::default());
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
            m.train_step(&batch, &targets, &sgd, &mut StepScratch::default());
        }
        assert_eq!(model.predict_proba(data).data(), restored.predict_proba(data).data());
    }

    /// One layer of the unfused reference: parameters and momentum.
    struct RefLayer {
        w: Matrix,
        b: Vec<f32>,
        vel_w: Vec<f32>,
        vel_b: Vec<f32>,
    }

    fn transpose(a: &Matrix) -> Matrix {
        let mut t = Matrix::zeros(a.cols(), a.rows());
        for r in 0..a.rows() {
            for (c, &v) in a.row(r).iter().enumerate() {
                t.row_mut(c)[r] = v;
            }
        }
        t
    }

    /// The forward pass as separate passes: `matmul_naive`, then the
    /// bias, the skips and ReLU one after another. Every activation, then
    /// the logits.
    fn reference_forward(layers: &[RefLayer], dense: bool, x: &Matrix) -> (Vec<Matrix>, Matrix) {
        let linear = |l: &RefLayer, x: &Matrix| {
            let mut y = x.matmul_naive(&l.w);
            y.add_row_bias(&l.b);
            y
        };
        let (head, body) = layers.split_last().expect("a head");
        let mut acts = vec![linear(&body[0], x)];
        acts[0].relu();
        for block in body[1..].chunks_exact(2) {
            let input = acts[acts.len() - 1].clone();
            let mut hidden = linear(&block[0], &input);
            hidden.relu();
            let mut y = linear(&block[1], &hidden);
            y.add_assign(&input);
            if dense {
                y.add_assign(&acts[0]);
            }
            y.relu();
            acts.push(hidden);
            acts.push(y);
        }
        let logits = linear(head, &acts[acts.len() - 1]);
        (acts, logits)
    }

    /// A train step as separate passes in the order the fused one keeps:
    /// the walk from the head down with each `dX` taken before its
    /// layer's SGD step, the residual skip added, then the global skips'
    /// sum, each ReLU mask applied to the finished gradient.
    fn reference_step(
        layers: &mut [RefLayer],
        dense: bool,
        x: &Matrix,
        targets: &Matrix,
        sgd: &SgdConfig,
    ) -> f32 {
        let (acts, logits) = reference_forward(layers, dense, x);
        let (loss, dlogits) = softmax_cross_entropy(&logits, targets);
        let mut layer_step = |j: usize, dy: &Matrix| {
            let l = &mut layers[j];
            let dx = dy.matmul_naive(&transpose(&l.w));
            let input = if j == 0 { x } else { &acts[j - 1] };
            let dw = transpose(input).matmul_naive(dy);
            sgd.step(l.w.data_mut(), dw.data(), &mut l.vel_w, true);
            let mut db = vec![0.0f32; l.b.len()];
            for r in 0..dy.rows() {
                for (g, &d) in db.iter_mut().zip(dy.row(r)) {
                    *g += d;
                }
            }
            sgd.step(&mut l.b, &db, &mut l.vel_b, false);
            dx
        };
        let mut d = layer_step(acts.len(), &dlogits);
        let mut d_global: Option<Matrix> = None;
        for d2 in (2..acts.len()).step_by(2).rev() {
            let mut dy = d;
            dy.zero_where_not_positive(&acts[d2]);
            let mut dh = layer_step(d2, &dy);
            dh.zero_where_not_positive(&acts[d2 - 1]);
            d = layer_step(d2 - 1, &dh);
            d.add_assign(&dy);
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
        layer_step(0, &d);
        loss
    }

    /// The fused step against the unfused reference, bit for bit: five
    /// steps with momentum and decay (parameters, momentum and loss after
    /// each), then a scan of the batch (labels, confidences, features).
    /// Both connectivities; heads below the row body's floor, inside one
    /// strip, and one column past it; a batch with an all-zero row, 40 %
    /// zeros on the input and `-0.0` among them; and a model with one `∞`
    /// weight, whose products the rule sends to the tiles.
    #[test]
    fn train_step_and_scan_match_the_unfused_reference_bitwise() {
        let (input_dim, rows) = (40, 32);
        let xs: Vec<f32> = (0..rows * input_dim)
            .map(|i| match (i / input_dim, (i * 7) % 5) {
                (3, _) => 0.0,
                (_, 0) => -0.0,
                (_, 1) => 0.0,
                _ => ((i * 13) % 29) as f32 * 0.1 - 1.4,
            })
            .collect();
        let x = Matrix::from_vec(rows, input_dim, xs);
        let sgd = SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 1e-3 };
        let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut cases: Vec<_> = [Connectivity::Residual, Connectivity::DenselyConnected]
            .into_iter()
            .flat_map(|c| [26, 100, 113].map(|classes| (c, classes, false)))
            .collect();
        cases.push((Connectivity::Residual, 100, true));
        for (connectivity, classes, poisoned) in cases {
            let case = format!("{connectivity:?}, {classes} classes, poisoned {poisoned}");
            let cfg = ModelConfig { input_dim, classes, width: 96, blocks: 2, connectivity };
            let mut model = Mlp::new(&cfg, 11);
            if poisoned {
                let w = model.layers()[2].parts().0.data()[5 * 96 + 7];
                model = nudged(&model, 2, 5 * 96 + 7, f32::INFINITY - w);
                assert_eq!(model.layers()[2].parts().0.data()[5 * 96 + 7], f32::INFINITY);
            }
            let labels: Vec<u32> = (0..rows).map(|r| (r * 7 % classes) as u32).collect();
            let targets = one_hot(&labels, classes);
            let dense = connectivity == Connectivity::DenselyConnected;
            let mut reference: Vec<RefLayer> = (model.layers().iter())
                .map(|l| {
                    let (w, b, vel_w, vel_b) = l.parts();
                    let (b, vel_w, vel_b) = (b.to_vec(), vel_w.to_vec(), vel_b.to_vec());
                    RefLayer { w: w.clone(), b, vel_w, vel_b }
                })
                .collect();
            let mut scratch = StepScratch::default();
            for step in 0..5 {
                let loss = model.train_step(&x, &targets, &sgd, &mut scratch);
                let want = reference_step(&mut reference, dense, &x, &targets, &sgd);
                assert_eq!(loss.to_bits(), want.to_bits(), "{case}: loss of step {step}");
                for (j, (layer, r)) in model.layers().iter().zip(&reference).enumerate() {
                    let (w, b, vel_w, vel_b) = layer.parts();
                    let at = format!("{case}: layer {j} after step {step}");
                    assert_eq!(bits(w.data()), bits(r.w.data()), "{at}: W");
                    assert_eq!(bits(b), bits(&r.b), "{at}: b");
                    assert_eq!(bits(vel_w), bits(&r.vel_w), "{at}: vel_W");
                    assert_eq!(bits(vel_b), bits(&r.vel_b), "{at}: vel_b");
                }
            }
            let scan = model.scan(DataRef::new(x.data(), &labels, input_dim), None, Outputs::ALL);
            let (acts, mut logits) = reference_forward(&reference, dense, &x);
            let want_labels: Vec<u32> = (0..rows).map(|r| argmax(logits.row(r)) as u32).collect();
            softmax_inplace(&mut logits);
            assert_eq!(scan.labels, want_labels, "{case}: scan labels");
            assert_eq!(bits(scan.proba.data()), bits(logits.data()), "{case}: scan confidences");
            let features = acts[acts.len() - 1].data();
            assert_eq!(bits(scan.features.data()), bits(features), "{case}: scan features");
        }
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
