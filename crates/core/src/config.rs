//! ENLD hyper-parameters (paper §V-A6).
//!
//! Defaults follow the paper: contrastive size `k = 3`, step count
//! `s = 5`, warm-up of 2 epochs, `t = 5` iterations for EMNIST and
//! `t = 17` for CIFAR-100/Tiny-ImageNet, Mixup `α = 0.2` during general
//! model initialisation.

use enld_datagen::presets::DatasetPreset;
use enld_knn::IndexBackend;
use enld_nn::arch::ArchPreset;
use enld_nn::optimizer::SgdConfig;
use enld_nn::trainer::TrainConfig;

use crate::ablation::AblationVariant;
use crate::sampling::SamplingPolicy;

/// Full configuration of an [`crate::detector::Enld`] instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnldConfig {
    /// Contrastive samples per ambiguous sample (`k` in Alg. 2).
    pub k: usize,
    /// Warm-up epochs over the initial contrastive set (paper uses 2).
    pub warmup_epochs: usize,
    /// Fine-grained detection iterations (`t` in Alg. 3).
    pub iterations: usize,
    /// Training + selection steps per iteration (`s` in Alg. 3).
    pub steps: usize,
    /// General-model training (Mixup α = 0.2 per the paper).
    pub init_train: TrainConfig,
    /// SGD settings for each fine-tune step (one epoch over `C` per step).
    pub finetune_sgd: SgdConfig,
    /// Mini-batch size during fine-tuning.
    pub finetune_batch: usize,
    /// Backbone architecture.
    pub arch: ArchPreset,
    /// Sample-selection policy (§V-D; `Contrastive` is ENLD proper).
    pub policy: SamplingPolicy,
    /// Ablation variant (§V-I; `Origin` is full ENLD).
    pub ablation: AblationVariant,
    /// Neighbour-index backend for contrastive sampling (exact KD-trees
    /// or the incremental HNSW graphs from `enld-ann`).
    pub index: IndexBackend,
    /// Master seed for model init, splits and sampling.
    pub seed: u64,
}

impl EnldConfig {
    /// Paper defaults with the given backbone and iteration budget.
    pub fn paper_default(arch: ArchPreset, iterations: usize) -> Self {
        Self {
            k: 3,
            warmup_epochs: 2,
            iterations,
            steps: 5,
            init_train: TrainConfig {
                epochs: 30,
                batch_size: 64,
                // lr 0.02: large enough to fit every preset in 30 epochs,
                // small enough not to collapse ReLUs on low-dimensional
                // tasks (lr 0.05 diverges on the 12-d test preset).
                sgd: SgdConfig { lr: 0.02, momentum: 0.9, weight_decay: 1e-4 },
                mixup_alpha: Some(0.2),
                lr_decay: 0.95,
            },
            finetune_sgd: SgdConfig { lr: 0.01, momentum: 0.9, weight_decay: 1e-4 },
            finetune_batch: 32,
            arch,
            policy: SamplingPolicy::Contrastive,
            ablation: AblationVariant::Origin,
            index: IndexBackend::Exact,
            seed: 0,
        }
    }

    /// Paper defaults for a dataset preset: `t = 5` for EMNIST, `t = 17`
    /// for CIFAR-100 and Tiny-ImageNet (§V-A6), ResNet-110 backbone.
    pub fn for_preset(preset: &DatasetPreset) -> Self {
        let iterations = if preset.name == "emnist-sim" { 5 } else { 17 };
        Self::paper_default(ArchPreset::resnet110_sim(), iterations)
    }

    /// Small configuration for unit/integration tests: tiny backbone,
    /// short training, few iterations.
    pub fn fast_test() -> Self {
        Self {
            k: 2,
            warmup_epochs: 1,
            iterations: 3,
            steps: 3,
            init_train: TrainConfig {
                epochs: 12,
                batch_size: 32,
                sgd: SgdConfig { lr: 0.02, momentum: 0.9, weight_decay: 1e-4 },
                mixup_alpha: Some(0.2),
                lr_decay: 1.0,
            },
            finetune_sgd: SgdConfig { lr: 0.02, momentum: 0.9, weight_decay: 1e-4 },
            finetune_batch: 32,
            arch: ArchPreset::tiny(),
            policy: SamplingPolicy::Contrastive,
            ablation: AblationVariant::Origin,
            index: IndexBackend::Exact,
            seed: 0,
        }
    }

    /// Majority-vote threshold: `⌊s/2⌋ + 1` hits out of `s` steps, or a
    /// single hit when the ENLD-2 ablation disables voting.
    pub fn vote_threshold(&self) -> usize {
        if self.ablation.uses_majority_voting() {
            self.steps / 2 + 1
        } else {
            1
        }
    }

    /// Returns a copy with a different seed (for per-run variation).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    /// Panics on zero-sized loops or `k == 0`.
    pub fn validate(&self) {
        assert!(self.k > 0, "k must be positive");
        assert!(self.iterations > 0, "iterations must be positive");
        assert!(self.steps > 0, "steps must be positive");
        assert!(self.finetune_batch > 0, "finetune_batch must be positive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_v() {
        let cfg = EnldConfig::paper_default(ArchPreset::resnet110_sim(), 17);
        assert_eq!(cfg.k, 3);
        assert_eq!(cfg.steps, 5);
        assert_eq!(cfg.warmup_epochs, 2);
        assert_eq!(cfg.init_train.mixup_alpha, Some(0.2));
        assert_eq!(cfg.vote_threshold(), 3); // ⌊5/2⌋ + 1
    }

    #[test]
    fn preset_iteration_budgets() {
        assert_eq!(EnldConfig::for_preset(&DatasetPreset::emnist_sim()).iterations, 5);
        assert_eq!(EnldConfig::for_preset(&DatasetPreset::cifar100_sim()).iterations, 17);
        assert_eq!(EnldConfig::for_preset(&DatasetPreset::tiny_imagenet_sim()).iterations, 17);
    }

    #[test]
    fn ablation_changes_vote_threshold() {
        let mut cfg = EnldConfig::fast_test();
        assert_eq!(cfg.vote_threshold(), 2); // ⌊3/2⌋ + 1
        cfg.ablation = AblationVariant::NoMajorityVoting;
        assert_eq!(cfg.vote_threshold(), 1);
    }

    #[test]
    fn with_seed() {
        let cfg = EnldConfig::fast_test().with_seed(42);
        assert_eq!(cfg.seed, 42);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn validate_rejects_zero_k() {
        let mut cfg = EnldConfig::fast_test();
        cfg.k = 0;
        cfg.validate();
    }
}
