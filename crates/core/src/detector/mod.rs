//! The ENLD detector, one file per algorithm of the paper: this one holds
//! Alg. 1 lines 1–2 ([`Enld::init`]: general model, `P̃`, `H`) and the
//! accessors; `select` is Alg. 2; `detect` is Alg. 3 ([`Enld::detect`], a
//! pipeline of phases over one in-memory `InFlightTask`); `update` is
//! Alg. 4 ([`Enld::update_model`]); `recovery` is the checkpoint glue
//! ([`Enld::resume_from`] and the one persist call).

mod detect;
mod recovery;
mod select;
mod update;

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use enld_datagen::split::split_half;
use enld_datagen::Dataset;
use enld_nn::data::DataRef;
use enld_nn::matrix::Matrix;
use enld_nn::model::{argmax, Mlp};
use enld_nn::trainer::Trainer;
use enld_telemetry as telemetry;

use crate::checkpoint;
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
}

/// Crash-recovery wiring. It belongs to one instance: cloning a detector
/// yields none of it, so a clone never writes to the original's
/// checkpoint file (two writers would race the tmp + rename).
#[derive(Default)]
struct Recovery {
    /// Checkpoint file; `None` disables checkpointing.
    checkpoint_path: Option<PathBuf>,
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
            let _s = telemetry::debug_span("enld.setup.train_general").entered();
            let mut trainer = Trainer::new(config.init_train, config.seed.wrapping_add(1));
            let i_t_view = DataRef::new(i_t.xs(), i_t.labels(), i_t.dim());
            trainer.fit(&mut model, i_t_view, None);
        }

        let (cond, hq) = {
            let _s = telemetry::debug_span("enld.setup.estimate").entered();
            estimate_on_candidates(&model, &i_c)
        };

        let setup_secs = sw.elapsed().as_secs_f64();
        setup_span.record("high_quality", hq.len());
        setup_span.record("secs", setup_secs);

        let sc_accum = vec![false; i_c.len()];
        Self {
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
        }
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
    /// settings, index backend); experiment harnesses use this to share
    /// one expensive general-model setup across many configuration sweeps.
    ///
    /// With checkpoints enabled, the checkpoint is rewritten at once: it
    /// records the configuration's fingerprint.
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
        self.config = *config;
        // The checkpoint records the configuration's fingerprint.
        self.persist();
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

/// The full-size `test-sim` lake: arrivals of 20–60 samples.
#[cfg(test)]
fn test_sim_lake(noise: f32, seed: u64) -> enld_lake::lake::DataLake {
    use enld_datagen::presets::DatasetPreset;
    use enld_lake::lake::{DataLake, LakeConfig};
    let preset = DatasetPreset::test_sim();
    DataLake::build(&LakeConfig { preset, noise_rate: noise, seed })
}

/// `fast_test` with its cap on `t` raised above `R + 1`, so that a task
/// can stop once its votes settle; on `test-sim` they settle within 5–6
/// iterations.
#[cfg(test)]
fn settling() -> EnldConfig {
    EnldConfig { iterations: 12, ..EnldConfig::fast_test() }
}

#[cfg(test)]
use test_spans::DetectSpans;

#[cfg(test)]
mod test_spans {
    use std::sync::{Arc, Mutex, OnceLock};

    use enld_telemetry::{Event, FieldValue, Level, Sink, SpanRecord};

    /// A closed span as [`DetectSpans`] keeps it: its unsigned fields only.
    struct SeenSpan {
        name: &'static str,
        id: u64,
        parent: Option<u64>,
        trace: u64,
        fields: Vec<(&'static str, u64)>,
    }

    /// Collects every closed `enld.detect`, `enld.detect.iteration` and
    /// `enld.checkpoint.persist` span. Installed once for the test process; a test reads only the
    /// spans under a root span of its own, so tests running beside it do
    /// not mix in.
    #[derive(Default)]
    pub(super) struct DetectSpans(Mutex<Vec<SeenSpan>>);

    impl Sink for DetectSpans {
        fn level(&self) -> Level {
            Level::Debug
        }

        fn on_event(&self, _: &Event) {}

        fn on_span(&self, span: &SpanRecord) {
            if matches!(
                span.name,
                "enld.detect" | "enld.detect.iteration" | "enld.checkpoint.persist"
            ) {
                let fields = (span.fields.iter())
                    .filter_map(|&(k, ref v)| match v {
                        FieldValue::U64(n) => Some((k, *n)),
                        _ => None,
                    })
                    .collect();
                let (name, id, parent, trace) = (span.name, span.id, span.parent, span.trace);
                let seen = SeenSpan { name, id, parent, trace, fields };
                self.0.lock().expect("detect spans poisoned").push(seen);
            }
        }
    }

    impl DetectSpans {
        pub(super) fn installed() -> &'static DetectSpans {
            static SINK: OnceLock<Arc<DetectSpans>> = OnceLock::new();
            SINK.get_or_init(|| {
                let sink = Arc::new(DetectSpans::default());
                enld_telemetry::install(sink.clone());
                sink
            })
        }

        /// Field `key` of each arrival `detect` finished under `root`.
        pub(super) fn detect_field(&self, root: u64, key: &str) -> Vec<Option<u64>> {
            let spans = self.0.lock().expect("detect spans poisoned");
            (spans.iter())
                .filter(|s| s.name == "enld.detect" && s.parent == Some(root))
                .map(|s| s.fields.iter().find(|(k, _)| *k == key).map(|&(_, n)| n))
                .collect()
        }

        /// The parent of every `enld.checkpoint.persist` span in `root`'s
        /// trace, and the id of each arrival `detect` finished under `root`.
        pub(super) fn persist_parents(&self, root: u64) -> (Vec<Option<u64>>, Vec<u64>) {
            let spans = self.0.lock().expect("detect spans poisoned");
            let persists = (spans.iter())
                .filter(|s| s.name == "enld.checkpoint.persist" && s.trace == root)
                .map(|s| s.parent);
            let detects = (spans.iter())
                .filter(|s| s.name == "enld.detect" && s.parent == Some(root))
                .map(|s| s.id);
            (persists.collect(), detects.collect())
        }

        /// Iterations run in `root`'s trace.
        pub(super) fn iterations_in(&self, root: u64) -> usize {
            let spans = self.0.lock().expect("detect spans poisoned");
            spans.iter().filter(|s| s.name == "enld.detect.iteration" && s.trace == root).count()
        }
    }
}

#[cfg(test)]
mod tests {
    use enld_knn::IndexBackend;

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

    /// The backend is read per selection round, so a detector switched
    /// to `hnsw` detects exactly as one set up with it.
    #[test]
    fn reconfigure_switches_index_backends() {
        let mut lake = small_lake(0.2, 36);
        let cfg = EnldConfig::fast_test();
        let hnsw_cfg = EnldConfig { index: IndexBackend::hnsw(), ..cfg };
        let mut switched = Enld::init(lake.inventory(), &cfg);
        let mut native = Enld::init(lake.inventory(), &hnsw_cfg);
        switched.reconfigure(&hnsw_cfg);
        assert_eq!(switched.config().index, hnsw_cfg.index);
        let d = lake.next_request().expect("queued").data;
        let (got, expect) = (switched.detect(&d), native.detect(&d));
        assert_eq!((got.clean, got.noisy), (expect.clean, expect.noisy));
        switched.reconfigure(&cfg);
        assert_eq!(switched.config().index, IndexBackend::Exact);
    }
}
