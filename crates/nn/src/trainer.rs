//! Mini-batch trainer operating on index subsets of a flat dataset.
//!
//! [`Trainer::fit_indices`] trains on an index list into a flat feature
//! store without copying the subset; [`Trainer::fit`] is the same over
//! every row. (The detector's `train_epoch` materialises its contrastive
//! set `C`, which mixes rows of two stores, and calls `fit` on the copy.)

use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use crate::data::DataRef;
use crate::init::seeded_rng;
use crate::loss::{one_hot, softmax_cross_entropy};
use crate::mixup::mixup_batch;
use crate::model::{Mlp, StepScratch};
use crate::optimizer::SgdConfig;

/// Trainer hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    pub epochs: usize,
    pub batch_size: usize,
    pub sgd: SgdConfig,
    /// `Some(α)` enables Mixup with `λ ~ Beta(α, α)` (paper uses α = 0.2).
    pub mixup_alpha: Option<f32>,
    /// Multiply the learning rate by this factor after each epoch.
    pub lr_decay: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 10,
            batch_size: 64,
            sgd: SgdConfig::default(),
            mixup_alpha: None,
            lr_decay: 1.0,
        }
    }
}

/// Per-epoch training record.
#[derive(Debug, Clone, Default)]
pub struct TrainHistory {
    /// Mean training loss per epoch.
    pub train_loss: Vec<f32>,
    /// Validation accuracy per epoch (empty when no validation set given).
    pub val_acc: Vec<f32>,
}

/// Stateful trainer; owns the shuffling RNG so runs are reproducible.
pub struct Trainer {
    config: TrainConfig,
    rng: StdRng,
}

impl Trainer {
    pub fn new(config: TrainConfig, seed: u64) -> Self {
        assert!(config.batch_size > 0, "batch_size must be positive");
        Self { config, rng: seeded_rng(seed) }
    }

    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Trains on all of `data`; optionally evaluates on `val` each epoch.
    pub fn fit(
        &mut self,
        model: &mut Mlp,
        data: DataRef<'_>,
        val: Option<DataRef<'_>>,
    ) -> TrainHistory {
        let indices: Vec<usize> = (0..data.len()).collect();
        self.fit_indices(model, data, &indices, val)
    }

    /// Trains on the subset of `data` named by `indices`.
    ///
    /// Returns an empty history when `indices` is empty (nothing to do) —
    /// ENLD can legitimately produce an empty contrastive set when an
    /// incremental dataset has no ambiguous samples.
    pub fn fit_indices(
        &mut self,
        model: &mut Mlp,
        data: DataRef<'_>,
        indices: &[usize],
        val: Option<DataRef<'_>>,
    ) -> TrainHistory {
        let mut history = TrainHistory::default();
        if indices.is_empty() {
            return history;
        }
        let classes = model.classes();
        let mut order: Vec<usize> = indices.to_vec();
        let mut sgd = self.config.sgd;
        let mut scratch = StepScratch::default();
        for _epoch in 0..self.config.epochs {
            order.shuffle(&mut self.rng);
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            for chunk in order.chunks(self.config.batch_size) {
                let x = data.gather(chunk);
                let labels = data.gather_labels(chunk);
                let targets = one_hot(&labels, classes);
                let (x, targets) = if let Some(alpha) = self.config.mixup_alpha {
                    let mut perm: Vec<usize> = (0..chunk.len()).collect();
                    perm.shuffle(&mut self.rng);
                    mixup_batch(&x, &targets, alpha, &perm, &mut self.rng)
                } else {
                    (x, targets)
                };
                epoch_loss += model.train_step(&x, &targets, &sgd, &mut scratch);
                batches += 1;
            }
            history.train_loss.push(epoch_loss / batches.max(1) as f32);
            if let Some(v) = val {
                history.val_acc.push(model.accuracy(v));
            }
            sgd.lr *= self.config.lr_decay;
        }
        history
    }

    /// Mean cross-entropy of `model` on `data` (no training).
    pub fn evaluate_loss(model: &Mlp, data: DataRef<'_>) -> f32 {
        if data.is_empty() {
            return 0.0;
        }
        let indices: Vec<usize> = (0..data.len()).collect();
        let x = data.gather(&indices);
        let targets = one_hot(data.labels(), model.classes());
        let (_, logits) = model.forward_inference(&x);
        let (loss, _) = softmax_cross_entropy(&logits, &targets);
        loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::ArchPreset;

    fn cluster_data(n_per: usize) -> (Vec<f32>, Vec<u32>) {
        let mut xs = Vec::new();
        let mut labels = Vec::new();
        for c in 0..3u32 {
            for i in 0..n_per {
                let jitter = ((i * 7 + c as usize) as f32 * 0.61).sin() * 0.15;
                xs.extend_from_slice(&[
                    c as f32 * 2.0 + jitter,
                    -(c as f32) + jitter,
                    1.0 - c as f32 * 0.5,
                    jitter,
                ]);
                labels.push(c);
            }
        }
        (xs, labels)
    }

    #[test]
    fn fit_reaches_high_accuracy_on_separable_data() {
        let (xs, labels) = cluster_data(40);
        let data = DataRef::new(&xs, &labels, 4);
        let mut model = Mlp::new(&ArchPreset::tiny().config(4, 3), 5);
        let mut trainer = Trainer::new(TrainConfig { epochs: 25, ..Default::default() }, 5);
        let history = trainer.fit(&mut model, data, Some(data));
        assert_eq!(history.train_loss.len(), 25);
        assert!(model.accuracy(data) > 0.95);
        assert!(history.val_acc.last().copied().unwrap() > 0.95);
        // Loss trends downward.
        assert!(history.train_loss.last().unwrap() < history.train_loss.first().unwrap());
    }

    #[test]
    fn fit_indices_only_uses_the_subset() {
        let (xs, labels) = cluster_data(30);
        let data = DataRef::new(&xs, &labels, 4);
        // Train only on class 0 and 1 rows.
        let subset: Vec<usize> = (0..60).collect();
        let mut model = Mlp::new(&ArchPreset::tiny().config(4, 3), 6);
        let mut trainer = Trainer::new(TrainConfig { epochs: 30, ..Default::default() }, 6);
        trainer.fit_indices(&mut model, data, &subset, None);
        let preds = model.predict_labels(data);
        // The model never saw class 2, so it should rarely predict it well;
        // classes 0/1 must be learned.
        let acc01 = preds[..60].iter().zip(&labels[..60]).filter(|(p, l)| p == l).count();
        assert!(acc01 > 54, "subset classes must be learned, got {acc01}/60");
    }

    #[test]
    fn empty_indices_is_a_noop() {
        let (xs, labels) = cluster_data(5);
        let data = DataRef::new(&xs, &labels, 4);
        let mut model = Mlp::new(&ArchPreset::tiny().config(4, 3), 7);
        let before = model.predict_proba(data);
        let mut trainer = Trainer::new(TrainConfig::default(), 7);
        let history = trainer.fit_indices(&mut model, data, &[], None);
        assert!(history.train_loss.is_empty());
        assert_eq!(model.predict_proba(data).data(), before.data());
    }

    #[test]
    fn mixup_training_still_learns() {
        let (xs, labels) = cluster_data(40);
        let data = DataRef::new(&xs, &labels, 4);
        let mut model = Mlp::new(&ArchPreset::tiny().config(4, 3), 8);
        let cfg = TrainConfig { epochs: 35, mixup_alpha: Some(0.2), ..Default::default() };
        let mut trainer = Trainer::new(cfg, 8);
        trainer.fit(&mut model, data, None);
        assert!(model.accuracy(data) > 0.9, "acc {}", model.accuracy(data));
    }

    #[test]
    fn deterministic_given_seed() {
        let (xs, labels) = cluster_data(20);
        let data = DataRef::new(&xs, &labels, 4);
        let run = || {
            let mut model = Mlp::new(&ArchPreset::tiny().config(4, 3), 9);
            let mut trainer = Trainer::new(TrainConfig { epochs: 5, ..Default::default() }, 9);
            trainer.fit(&mut model, data, None);
            model.predict_proba(data).data().to_vec()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn evaluate_loss_tracks_training() {
        let (xs, labels) = cluster_data(30);
        let data = DataRef::new(&xs, &labels, 4);
        let mut model = Mlp::new(&ArchPreset::tiny().config(4, 3), 12);
        let before = Trainer::evaluate_loss(&model, data);
        let mut trainer = Trainer::new(TrainConfig { epochs: 20, ..Default::default() }, 12);
        trainer.fit(&mut model, data, None);
        let after = Trainer::evaluate_loss(&model, data);
        assert!(after < before * 0.5, "loss {before} -> {after}");
    }

    #[test]
    fn lr_decay_slows_late_updates() {
        // With aggressive decay the model barely moves after the first
        // epochs; the final loss must be higher than with a flat schedule.
        let (xs, labels) = cluster_data(30);
        let data = DataRef::new(&xs, &labels, 4);
        let run = |decay: f32| {
            let mut model = Mlp::new(&ArchPreset::tiny().config(4, 3), 13);
            let cfg = TrainConfig { epochs: 20, lr_decay: decay, ..Default::default() };
            let mut trainer = Trainer::new(cfg, 13);
            trainer.fit(&mut model, data, None);
            Trainer::evaluate_loss(&model, data)
        };
        let flat = run(1.0);
        let decayed = run(0.3);
        assert!(decayed >= flat, "decayed {decayed} vs flat {flat}");
    }

    #[test]
    fn evaluate_loss_empty_is_zero() {
        let xs: Vec<f32> = vec![];
        let labels: Vec<u32> = vec![];
        let data = DataRef::new(&xs, &labels, 4);
        let model = Mlp::new(&ArchPreset::tiny().config(4, 3), 1);
        assert_eq!(Trainer::evaluate_loss(&model, data), 0.0);
    }
}
