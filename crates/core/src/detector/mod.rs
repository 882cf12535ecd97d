//! The ENLD detector, one file per algorithm of the paper: this one holds
//! Alg. 1 lines 1–2 ([`Enld::init`]: general model, `P̃`, `H`) and the
//! accessors; `select` is Alg. 2; `detect` is Alg. 3 ([`Enld::detect`], a
//! pipeline of phases over one [`InFlightTask`]); `update` is Alg. 4
//! ([`Enld::update_model`]); `recovery` is the checkpoint glue
//! ([`Enld::resume_from`] and the one persist call).

mod detect;
mod recovery;
mod select;
mod update;

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use enld_ann::AnnClassIndex;
use enld_datagen::split::split_half;
use enld_datagen::Dataset;
use enld_knn::IndexBackend;
use enld_nn::data::DataRef;
use enld_nn::matrix::Matrix;
use enld_nn::model::{argmax, Mlp};
use enld_nn::trainer::Trainer;
use enld_telemetry as telemetry;
use enld_telemetry::metrics::global as metrics;

use crate::checkpoint::{self, InFlightTask};
use crate::config::EnldConfig;
use crate::ledger::LedgerSink;
use crate::probability::ConditionalLabelProbability;

/// The ENLD system state: general model `θ`, estimated conditional
/// probability `P̃`, the inventory splits `I_t`/`I_c`, the high-quality
/// set `H`, and the clean-inventory votes accumulated across tasks.
#[derive(Clone)]
pub struct Enld {
    config: EnldConfig,
    model: Mlp,
    cond: ConditionalLabelProbability,
    i_t: Dataset,
    i_c: Dataset,
    /// `H`: filtered high-quality indices into `I_c`.
    hq: Vec<usize>,
    /// Accumulated clean-inventory selection `S_c` (flags over `I_c`).
    sc_accum: Vec<bool>,
    setup_secs: f64,
    /// Detection tasks served (feeds per-task sampling seeds).
    tasks: usize,
    /// Number of model updates performed (feeds seeds for retraining).
    updates: usize,
    /// Opt-in audit ledger; `None` keeps the hot path untouched.
    ledger: Option<LedgerHandle>,
    /// Fingerprint of the inventory passed to [`Enld::init`], embedded in
    /// checkpoints so resume can reject a different inventory.
    inventory_fp: u64,
    recovery: Recovery,
    /// Persistent approximate index over the general-model features of
    /// `H` (`IndexBackend::Hnsw` only): reused for the round-0 selection
    /// of every task and embedded into checkpoints so a resume skips the
    /// rebuild. `None` for the exact backend.
    ann: Option<AnnClassIndex>,
}

/// Crash-recovery wiring. It belongs to one instance: cloning a detector
/// yields none of it, so a clone neither writes to the original's
/// checkpoint file (two writers would race the tmp + rename) nor inherits
/// a pending in-flight task (only one detect call may consume it).
#[derive(Default)]
struct Recovery {
    /// Checkpoint file; `None` disables checkpointing.
    checkpoint_path: Option<PathBuf>,
    /// In-flight task restored by [`Enld::resume_from`], consumed by the
    /// next [`Enld::detect`] call.
    pending: Option<InFlightTask>,
}

impl Clone for Recovery {
    fn clone(&self) -> Self {
        Self::default()
    }
}

/// Sink plus an instance tag (`main`, or `w0`/`w1`/… for pool workers)
/// so records from detector clones sharing one sink stay attributable.
#[derive(Clone)]
struct LedgerHandle {
    sink: Arc<dyn LedgerSink>,
    tag: Arc<str>,
}

impl Enld {
    /// Alg. 1 lines 1–2: split `I` into `I_t`/`I_c`, train the general
    /// model on `I_t` with Mixup, estimate `P̃` and the high-quality set
    /// `H` on `I_c`.
    pub fn init(inventory: &Dataset, config: &EnldConfig) -> Self {
        config.validate();
        assert!(!inventory.is_empty(), "inventory must be non-empty");
        let sw = Instant::now();
        let mut setup_span = telemetry::span("enld.setup")
            .field("inventory", inventory.len())
            .field("classes", inventory.classes())
            .field("kernel", enld_nn::matrix::kernel())
            .entered();
        let (i_t, i_c) = split_half(inventory, config.seed.wrapping_add(1000));

        let model_cfg = config.arch.config(inventory.dim(), inventory.classes());
        let mut model = Mlp::new(&model_cfg, config.seed);
        {
            let _s = telemetry::debug_span("enld.setup.train_general")
                .timed("enld.setup.train_general_secs")
                .entered();
            let mut trainer = Trainer::new(config.init_train, config.seed.wrapping_add(1));
            let i_t_view = DataRef::new(i_t.xs(), i_t.labels(), i_t.dim());
            trainer.fit(&mut model, i_t_view, None);
        }

        let (cond, hq) = {
            let _s = telemetry::debug_span("enld.setup.estimate")
                .timed("enld.setup.estimate_secs")
                .entered();
            estimate_on_candidates(&model, &i_c)
        };

        let setup_secs = sw.elapsed().as_secs_f64();
        metrics().histogram("enld.setup_secs").record(setup_secs);
        setup_span.record("high_quality", hq.len());
        setup_span.record("secs", setup_secs);

        let sc_accum = vec![false; i_c.len()];
        let mut this = Self {
            setup_secs,
            config: *config,
            model,
            cond,
            i_t,
            i_c,
            hq,
            sc_accum,
            tasks: 0,
            updates: 0,
            ledger: None,
            inventory_fp: checkpoint::dataset_fingerprint(inventory),
            recovery: Recovery::default(),
            ann: None,
        };
        this.ann = this.build_hq_ann();
        this
    }

    /// Builds the persistent HNSW index over the general-model features
    /// of the current high-quality set `H`, probing its recall so the
    /// `enld.ann.recall_probe` gauge reflects the fresh graph. Returns
    /// `None` for the exact backend.
    fn build_hq_ann(&self) -> Option<AnnClassIndex> {
        let IndexBackend::Hnsw(params) = self.config.index else { return None };
        let _s = telemetry::debug_span("enld.ann.build").timed("enld.ann.build_secs").entered();
        let index = if self.hq.is_empty() {
            // Degenerate filter output: start from an empty graph (arrivals
            // still patch in through the usual insert path).
            AnnClassIndex::new(self.model.config().width, params)
        } else {
            let ic_view = DataRef::new(self.i_c.xs(), self.i_c.labels(), self.i_c.dim());
            let rows = ic_view.gather(&self.hq);
            let labels = ic_view.gather_labels(&self.hq);
            let feats = self.model.features(DataRef::new(rows.data(), &labels, rows.cols()));
            AnnClassIndex::build(feats.data(), feats.cols(), &labels, &self.hq, params)
        };
        index.recall_probe(self.config.k.max(2));
        Some(index)
    }

    /// Live samples in the persistent approximate index (`--index hnsw`
    /// runs only); `None` under the exact backend.
    pub fn ann_index_len(&self) -> Option<usize> {
        self.ann.as_ref().map(AnnClassIndex::len)
    }

    /// Attaches a detection audit ledger: subsequent [`Enld::detect`] /
    /// [`Enld::update_model`] calls append one `TaskRecord` plus one
    /// `SampleRecord` per eligible sample (and `UpdateRecord`s) to
    /// `sink`. `tag` names this detector instance in the records.
    pub fn set_ledger(&mut self, sink: Arc<dyn LedgerSink>, tag: &str) {
        self.ledger = Some(LedgerHandle { sink, tag: Arc::from(tag) });
    }

    /// Detaches the audit ledger.
    pub fn clear_ledger(&mut self) {
        self.ledger = None;
    }

    /// The general model `θ` (shared with the confidence-based baselines).
    pub fn model(&self) -> &Mlp {
        &self.model
    }

    /// The estimated conditional probability `P̃(y* | ỹ)`.
    pub fn conditional(&self) -> &ConditionalLabelProbability {
        &self.cond
    }

    /// The contrastive-candidate split `I_c`.
    pub fn candidate_set(&self) -> &Dataset {
        &self.i_c
    }

    /// The training split `I_t`.
    pub fn training_set(&self) -> &Dataset {
        &self.i_t
    }

    /// The filtered high-quality set `H` (indices into `I_c`).
    pub fn high_quality(&self) -> &[usize] {
        &self.hq
    }

    /// One-off setup cost of [`Enld::init`] in seconds.
    pub fn setup_secs(&self) -> f64 {
        self.setup_secs
    }

    /// Indices of `I_c` accumulated into the clean selection `S_c` so far.
    pub fn accumulated_clean(&self) -> Vec<usize> {
        flags_to_indices(&self.sc_accum)
    }

    pub fn config(&self) -> &EnldConfig {
        &self.config
    }

    /// Swaps in a new configuration for subsequent detections without
    /// redoing setup. Only fields that do not shape [`Enld::init`] may
    /// change (`k`, iteration budget, policy, ablation, fine-tune
    /// settings); experiment harnesses use this to share one expensive
    /// general-model setup across many configuration sweeps.
    ///
    /// # Panics
    /// Panics if the new configuration differs in `arch`, `seed` or
    /// `init_train` — those would make the trained state inconsistent.
    pub fn reconfigure(&mut self, config: &EnldConfig) {
        config.validate();
        assert_eq!(config.arch, self.config.arch, "reconfigure cannot change the backbone");
        assert_eq!(config.seed, self.config.seed, "reconfigure cannot change the seed");
        assert_eq!(
            config.init_train, self.config.init_train,
            "reconfigure cannot change general-model training"
        );
        let backend_changed = config.index != self.config.index;
        self.config = *config;
        if backend_changed {
            // Switching to hnsw builds the persistent index; switching
            // away (or changing its parameters) drops/rebuilds it.
            self.ann = self.build_hq_ann();
        }
    }
}

/// Estimates `P̃` and the high-quality set `H` from `model`'s confusion
/// on the candidate split — the second half of [`Enld::init`], repeated
/// by Alg. 4 after every swap.
fn estimate_on_candidates(model: &Mlp, i_c: &Dataset) -> (ConditionalLabelProbability, Vec<usize>) {
    let probs = model.predict_proba(DataRef::new(i_c.xs(), i_c.labels(), i_c.dim()));
    let preds = row_argmax(&probs);
    let cond = ConditionalLabelProbability::estimate(i_c.labels(), &preds, i_c.classes());
    (cond, high_quality_filtered(&probs, &preds, i_c.labels()))
}

/// Definition 1 plus the paper's confidence filter: keep the rows whose
/// prediction matches the observed label *and* whose predicted-class
/// confidence is at least the mean confidence of that predicted class.
fn high_quality_filtered(probs: &Matrix, preds: &[u32], labels: &[u32]) -> Vec<usize> {
    let classes = probs.cols();
    let mut sum = vec![0.0f64; classes];
    let mut cnt = vec![0usize; classes];
    for (i, &p) in preds.iter().enumerate() {
        sum[p as usize] += probs.row(i)[p as usize] as f64;
        cnt[p as usize] += 1;
    }
    let mean: Vec<f64> =
        (0..classes).map(|c| if cnt[c] == 0 { 0.0 } else { sum[c] / cnt[c] as f64 }).collect();
    (0..preds.len())
        .filter(|&i| {
            let p = preds[i] as usize;
            preds[i] == labels[i] && probs.row(i)[p] as f64 >= mean[p]
        })
        .collect()
}

/// Predicted label of every row of a confidence matrix.
fn row_argmax(m: &Matrix) -> Vec<u32> {
    (0..m.rows()).map(|r| argmax(m.row(r)) as u32).collect()
}

fn flags_to_indices(flags: &[bool]) -> Vec<usize> {
    flags.iter().enumerate().filter_map(|(i, &f)| f.then_some(i)).collect()
}

/// Mean total-variation distance between corresponding rows of two
/// estimated conditionals: `mean_y Σ_{y*} |P̃_old(y*|y) − P̃_new(y*|y)| / 2`,
/// in `[0, 1]`. Reported as `enld.drift.p_row_divergence` after Alg. 4
/// and as `enld.drift.p_staleness` per arrival.
fn mean_row_divergence(
    old: &ConditionalLabelProbability,
    new: &ConditionalLabelProbability,
) -> f64 {
    let rows = old.classes().min(new.classes());
    if rows == 0 {
        return 0.0;
    }
    let tv = |y| old.row(y).iter().zip(new.row(y)).map(|(&p, &q)| (p - q).abs()).sum::<f64>() / 2.0;
    (0..rows).map(tv).sum::<f64>() / rows as f64
}

/// Half-scale `test-sim` lake shared by the unit tests of every phase.
#[cfg(test)]
fn small_lake(noise: f32, seed: u64) -> enld_lake::lake::DataLake {
    use enld_datagen::presets::DatasetPreset;
    use enld_lake::lake::{DataLake, LakeConfig};
    let preset = DatasetPreset::test_sim().scaled(0.5);
    DataLake::build(&LakeConfig { preset, noise_rate: noise, seed })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_produces_sane_state() {
        let lake = small_lake(0.2, 1);
        let enld = Enld::init(lake.inventory(), &EnldConfig::fast_test());
        let inv = lake.inventory().len();
        assert_eq!(enld.training_set().len() + enld.candidate_set().len(), inv);
        assert!(!enld.high_quality().is_empty(), "some samples must be high quality");
        assert!(enld.high_quality().len() <= enld.candidate_set().len());
        assert!(enld.setup_secs() > 0.0);
        // Conditional rows are stochastic.
        for i in 0..8 {
            let s: f64 = enld.conditional().row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
        assert!(enld.accumulated_clean().is_empty());
    }

    #[test]
    fn high_quality_filter_uses_class_mean() {
        // Two agreeing samples of class 0: one confident, one barely.
        let probs = Matrix::from_vec(3, 2, vec![0.9, 0.1, 0.6, 0.4, 0.2, 0.8]);
        let preds = vec![0u32, 0, 1];
        let labels = vec![0u32, 0, 0]; // third disagrees
        let hq = high_quality_filtered(&probs, &preds, &labels);
        // Mean class-0 confidence = 0.75 → only the 0.9 sample survives.
        assert_eq!(hq, vec![0]);
    }

    #[test]
    fn reconfigure_switches_index_backends() {
        let lake = small_lake(0.2, 36);
        let cfg = EnldConfig::fast_test();
        let mut enld = Enld::init(lake.inventory(), &cfg);
        assert!(enld.ann_index_len().is_none());
        let mut hnsw_cfg = cfg;
        hnsw_cfg.index = IndexBackend::hnsw();
        enld.reconfigure(&hnsw_cfg);
        assert_eq!(enld.ann_index_len(), Some(enld.high_quality().len()));
        enld.reconfigure(&cfg);
        assert!(enld.ann_index_len().is_none());
    }
}
