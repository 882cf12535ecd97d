//! The data lake: inventory plus an ordered queue of incremental arrivals.
//!
//! [`DataLake::build`] performs the paper's experimental setup end to end
//! (§V-A1/§V-A2): generate the corpus from a preset, corrupt labels with
//! pair-asymmetric noise at rate `η` (both inventory *and* incremental
//! data are noisy), split 2:1 into inventory and incremental pool, and
//! partition the pool into unbalanced incremental datasets, numbering
//! every dataset and every sample.

use std::collections::VecDeque;

use enld_datagen::noise::{apply_missing_labels, arrival_seed};
use enld_datagen::presets::DatasetPreset;
use enld_datagen::split::{inventory_incremental, partition_incremental};
use enld_datagen::{Dataset, NoiseModel, TransitionMatrix};

use crate::request::DetectionRequest;

/// Everything needed to stand up a lake for one experiment run.
#[derive(Debug, Clone, Copy)]
pub struct LakeConfig {
    pub preset: DatasetPreset,
    /// Pair-asymmetric noise rate η applied to all labels.
    pub noise_rate: f32,
    /// Master seed; sub-seeds for generation/noise/splits derive from it.
    pub seed: u64,
}

/// The platform state for one run.
pub struct DataLake {
    inventory: Dataset,
    queue: VecDeque<DetectionRequest>,
    config: LakeConfig,
}

impl DataLake {
    /// Builds the lake per the paper's setup (pair-asymmetric noise).
    pub fn build(config: &LakeConfig) -> Self {
        Self::build_with_missing(config, 0.0)
    }

    /// Like [`DataLake::build`], but additionally masks a fraction
    /// `missing_rate` of labels in every incremental dataset (§V-H).
    pub fn build_with_missing(config: &LakeConfig, missing_rate: f32) -> Self {
        let model = TransitionMatrix::pair_asymmetric(config.preset.classes, config.noise_rate);
        Self::build_full(config, &model, missing_rate)
    }

    /// Builds the lake with an arbitrary transition matrix (extension
    /// experiments evaluate symmetric and random-asymmetric corruption;
    /// `config.noise_rate` is ignored in favour of `model`).
    pub fn build_with_noise_model(config: &LakeConfig, model: &TransitionMatrix) -> Self {
        Self::build_full(config, model, 0.0)
    }

    /// Builds the lake with any [`NoiseModel`] from the zoo, corrupting
    /// *after* the inventory/incremental split so position-aware models
    /// (drift) can vary along the arrival stream: the inventory is
    /// corrupted at stream position 0 and arrival `i` of `n` at
    /// `i / (n−1)`, each with a decorrelated per-arrival seed. For
    /// stationary matrix models this yields the same noise *distribution*
    /// as [`DataLake::build_with_noise_model`] but a different RNG
    /// stream, so the two builders are not byte-interchangeable.
    pub fn build_with_zoo(config: &LakeConfig, model: &dyn NoiseModel) -> Self {
        let clean = config.preset.generate(config.seed);
        let (inventory, pool) = inventory_incremental(&clean, 2, 1, config.seed.wrapping_add(2));
        let parts =
            partition_incremental(&pool, &config.preset.incremental, config.seed.wrapping_add(3));
        let noise_seed = config.seed.wrapping_add(1);
        let inventory = model.corrupt_at(&inventory, 0.0, arrival_seed(noise_seed, 0));
        let n = parts.len();
        let parts: Vec<Dataset> = parts
            .into_iter()
            .enumerate()
            .map(|(i, part)| {
                let position = if n <= 1 { 0.0 } else { i as f64 / (n - 1) as f64 };
                model.corrupt_at(&part, position, arrival_seed(noise_seed, i + 1))
            })
            .collect();
        Self::assemble(config, inventory, parts, 0.0)
    }

    fn build_full(config: &LakeConfig, model: &TransitionMatrix, missing_rate: f32) -> Self {
        let clean = config.preset.generate(config.seed);
        let noisy = model.corrupt(&clean, config.seed.wrapping_add(1));
        let (inventory, pool) = inventory_incremental(&noisy, 2, 1, config.seed.wrapping_add(2));
        let parts =
            partition_incremental(&pool, &config.preset.incremental, config.seed.wrapping_add(3));
        Self::assemble(config, inventory, parts, missing_rate)
    }

    /// Numbers the datasets in order — the inventory is dataset 0 and
    /// arrival `i` is dataset `i + 1` — and gives their samples
    /// consecutive ids, so every sample id is unique across the lake.
    fn assemble(
        config: &LakeConfig,
        mut inventory: Dataset,
        parts: Vec<Dataset>,
        missing_rate: f32,
    ) -> Self {
        inventory.reassign_ids(0);
        let mut next_sample_id = inventory.len() as u64;
        let mut queue = VecDeque::with_capacity(parts.len());
        for (i, part) in parts.into_iter().enumerate() {
            let mut part = if missing_rate > 0.0 {
                apply_missing_labels(&part, missing_rate, config.seed.wrapping_add(100 + i as u64))
            } else {
                part
            };
            part.reassign_ids(next_sample_id);
            next_sample_id += part.len() as u64;
            queue.push_back(DetectionRequest { dataset_id: i as u64 + 1, data: part });
        }
        Self { inventory, queue, config: *config }
    }

    pub fn config(&self) -> &LakeConfig {
        &self.config
    }

    /// The (noisy-labelled) inventory `I`.
    pub fn inventory(&self) -> &Dataset {
        &self.inventory
    }

    /// Number of incremental datasets still waiting for detection.
    pub fn pending_requests(&self) -> usize {
        self.queue.len()
    }

    /// Pops the next arrival, FIFO.
    pub fn next_request(&mut self) -> Option<DetectionRequest> {
        self.queue.pop_front()
    }

    /// Iterates the remaining queue without consuming it.
    pub fn peek_requests(&self) -> impl Iterator<Item = &DetectionRequest> {
        self.queue.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> LakeConfig {
        LakeConfig { preset: DatasetPreset::test_sim(), noise_rate: 0.2, seed: 9 }
    }

    #[test]
    fn build_registers_everything() {
        let lake = DataLake::build(&config());
        let preset = config().preset;
        assert_eq!(lake.pending_requests(), preset.incremental.subsets);
        // Datasets are numbered in arrival order after the inventory (0).
        let ids: Vec<u64> = lake.peek_requests().map(|r| r.dataset_id).collect();
        assert_eq!(ids, (1..=preset.incremental.subsets as u64).collect::<Vec<_>>());
        // 2:1 split.
        let total = preset.classes * preset.samples_per_class;
        assert_eq!(lake.inventory().len(), total * 2 / 3);
        let queued: usize = lake.peek_requests().map(|r| r.data.len()).sum();
        assert_eq!(lake.inventory().len() + queued, total);
    }

    #[test]
    fn arrivals_are_fifo_and_noisy() {
        let mut lake = DataLake::build(&config());
        let first = lake.next_request().expect("non-empty");
        let second = lake.next_request().expect("non-empty");
        assert!(first.dataset_id < second.dataset_id);
        // Noise rate is roughly η across the whole pool.
        let mut noisy = first.data.noisy_indices().len() + second.data.noisy_indices().len();
        let mut n = first.data.len() + second.data.len();
        while let Some(r) = lake.next_request() {
            noisy += r.data.noisy_indices().len();
            n += r.data.len();
        }
        let rate = noisy as f32 / n as f32;
        assert!((rate - 0.2).abs() < 0.05, "rate {rate}");
    }

    #[test]
    fn missing_labels_propagate_to_requests() {
        let mut lake = DataLake::build_with_missing(&config(), 0.5);
        let r = lake.next_request().expect("non-empty");
        let missing = r.data.missing_indices().len() as f32 / r.data.len() as f32;
        assert!(missing > 0.25 && missing < 0.75, "missing {missing}");
        // Inventory is never masked.
        assert!(lake.inventory().missing_indices().is_empty());
    }

    #[test]
    fn custom_noise_model_flows_through() {
        let model = TransitionMatrix::symmetric(config().preset.classes, 0.3);
        let lake = DataLake::build_with_noise_model(&config(), &model);
        // Symmetric noise flips to arbitrary classes, not just successors.
        let mut non_successor = 0;
        let mut noisy = 0;
        for r in lake.peek_requests() {
            for &i in &r.data.noisy_indices() {
                noisy += 1;
                let truth = r.data.true_labels()[i];
                if r.data.labels()[i] != (truth + 1) % 8 {
                    non_successor += 1;
                }
            }
        }
        assert!(noisy > 0);
        assert!(non_successor > 0, "symmetric noise must hit non-successor classes");
    }

    #[test]
    fn zoo_build_varies_noise_along_the_stream() {
        let drift = enld_datagen::zoo::DriftNoise::new(
            TransitionMatrix::pair_asymmetric(8, 0.05),
            TransitionMatrix::pair_asymmetric(8, 0.6),
        );
        let mut lake = DataLake::build_with_zoo(&config(), &drift);
        // Inventory is corrupted at stream position 0 → the low rate.
        let inv_rate =
            lake.inventory().noisy_indices().len() as f32 / lake.inventory().len() as f32;
        assert!(inv_rate < 0.2, "inventory rate {inv_rate} should match the drift start");
        assert_eq!(lake.inventory().noise_tag(), Some("drift"));
        // Noise rate grows monotonically-ish: last arrival far noisier
        // than the first.
        let first = lake.next_request().expect("non-empty");
        let mut last = first.data.clone();
        while let Some(r) = lake.next_request() {
            last = r.data;
        }
        let first_rate = first.data.noisy_indices().len() as f32 / first.data.len() as f32;
        let last_rate = last.noisy_indices().len() as f32 / last.len() as f32;
        assert!(
            last_rate > first_rate + 0.2,
            "drift must raise the rate along the stream ({first_rate} → {last_rate})"
        );
        // And the zoo build is reproducible.
        let a = DataLake::build_with_zoo(&config(), &drift);
        let b = DataLake::build_with_zoo(&config(), &drift);
        assert_eq!(a.inventory().labels(), b.inventory().labels());
    }

    #[test]
    fn deterministic_given_seed() {
        let a = DataLake::build(&config());
        let b = DataLake::build(&config());
        assert_eq!(a.inventory().labels(), b.inventory().labels());
        let qa: Vec<usize> = a.peek_requests().map(|r| r.data.len()).collect();
        let qb: Vec<usize> = b.peek_requests().map(|r| r.data.len()).collect();
        assert_eq!(qa, qb);
    }
}
