//! The ENLD detector: model initialisation & probability estimation
//! (Alg. 1 line 1–2), contrastive sampling (Alg. 2), fine-grained noisy
//! label detection (Alg. 3), and the optional model update (Alg. 4).

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use enld_ann::AnnClassIndex;
use enld_datagen::split::split_half;
use enld_datagen::Dataset;
use enld_knn::class_index::ClassIndex;
use enld_knn::{IndexBackend, NeighborIndex};
use enld_nn::data::DataRef;
use enld_nn::matrix::Matrix;
use enld_nn::model::{argmax, Mlp};
use enld_nn::quant::QuantizedMlp;
use enld_nn::trainer::{TrainConfig, Trainer};
use enld_telemetry as telemetry;
use enld_telemetry::metrics::{global as metrics, Histogram};
use enld_telemetry::ScopedTimer;

use crate::checkpoint::{
    self, Checkpoint, CheckpointError, CondState, DrawState, InFlightTask, ModelState, TraceState,
};
use crate::config::EnldConfig;
use crate::ledger::{
    ContrastDraw, LedgerRecord, LedgerSink, SampleDraw, SampleRecord, TaskRecord, UpdateRecord,
    Verdict,
};
use crate::probability::ConditionalLabelProbability;
use crate::report::{DetectionReport, IterationSnapshot};
use crate::sampling::{
    contrastive_sampling, policy_sampling, random_subset, ContrastSample, SampleSource,
    SamplingPolicy,
};

/// The ENLD system state: general model `θ`, estimated conditional
/// probability `P̃`, the inventory splits `I_t`/`I_c`, the high-quality
/// set `H`, and the clean-inventory votes accumulated across tasks.
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
    /// Crash-recovery checkpoint file; `None` disables checkpointing.
    checkpoint_path: Option<PathBuf>,
    /// In-flight task restored by [`Enld::resume_from`], consumed by the
    /// next [`Enld::detect`] call.
    pending: Option<PendingTask>,
    /// Persistent approximate index over the general-model features of
    /// `H` (`IndexBackend::Hnsw` only): reused for the round-0 selection
    /// of every task and embedded into checkpoints so a resume skips the
    /// rebuild. `None` for the exact backend.
    ann: Option<AnnClassIndex>,
}

impl Clone for Enld {
    /// Clones share all detector state but none of the crash-recovery
    /// wiring: a clone neither writes to the original's checkpoint file
    /// (two writers would race the tmp + rename) nor inherits a pending
    /// in-flight task (only one detect call may consume it).
    fn clone(&self) -> Self {
        Self {
            config: self.config,
            model: self.model.clone(),
            cond: self.cond.clone(),
            i_t: self.i_t.clone(),
            i_c: self.i_c.clone(),
            hq: self.hq.clone(),
            sc_accum: self.sc_accum.clone(),
            setup_secs: self.setup_secs,
            tasks: self.tasks,
            updates: self.updates,
            ledger: self.ledger.clone(),
            inventory_fp: self.inventory_fp,
            checkpoint_path: None,
            pending: None,
            ann: self.ann.clone(),
        }
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
            .entered();
        let (i_t, i_c) = split_half(inventory, config.seed.wrapping_add(1000));

        let model_cfg = config.arch.config(inventory.dim(), inventory.classes());
        let mut model = Mlp::new(&model_cfg, config.seed);
        {
            let _t = ScopedTimer::new("enld.setup.train_general");
            let mut trainer = Trainer::new(config.init_train, config.seed.wrapping_add(1));
            let i_t_view = DataRef::new(i_t.xs(), i_t.labels(), i_t.dim());
            trainer.fit(&mut model, i_t_view, None);
        }

        let (cond, hq) = {
            let _t = ScopedTimer::new("enld.setup.estimate");
            let i_c_view = DataRef::new(i_c.xs(), i_c.labels(), i_c.dim());
            let probs = model.predict_proba(i_c_view);
            let preds: Vec<u32> = (0..probs.rows()).map(|r| argmax(probs.row(r)) as u32).collect();
            let cond = ConditionalLabelProbability::estimate(i_c.labels(), &preds, i_c.classes());
            let candidates: Vec<usize> = (0..i_c.len()).collect();
            let hq = high_quality_filtered(&probs, &preds, i_c.labels(), &candidates);
            (cond, hq)
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
            checkpoint_path: None,
            pending: None,
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
        let _t = ScopedTimer::new("enld.ann.build");
        let ic_view = DataRef::new(self.i_c.xs(), self.i_c.labels(), self.i_c.dim());
        if self.hq.is_empty() {
            // Degenerate filter output: probe one row for the feature
            // width and start from an empty graph (arrivals still patch
            // in through the usual insert path).
            let (f, _) = self.model.forward_inference(&ic_view.gather(&[0]));
            let index = AnnClassIndex::new(f.cols(), params);
            index.recall_probe(self.config.k.max(2));
            return Some(index);
        }
        let batch = ic_view.gather(&self.hq);
        let (feats, _) = self.model.forward_inference(&batch);
        let labels: Vec<u32> = self.hq.iter().map(|&i| self.i_c.labels()[i]).collect();
        let index = AnnClassIndex::build(feats.data(), feats.cols(), &labels, &self.hq, params);
        index.recall_probe(self.config.k.max(2));
        Some(index)
    }

    /// Live samples in the persistent approximate index (`--index hnsw`
    /// runs only); `None` under the exact backend.
    pub fn ann_index_len(&self) -> Option<usize> {
        self.ann.as_ref().map(AnnClassIndex::len)
    }

    /// Attaches a detection audit ledger: subsequent [`Enld::detect`] /
    /// [`Enld::update_model`] calls append one [`TaskRecord`] plus one
    /// [`SampleRecord`] per eligible sample (and [`UpdateRecord`]s) to
    /// `sink`. `tag` names this detector instance in the records.
    pub fn set_ledger(&mut self, sink: Arc<dyn LedgerSink>, tag: &str) {
        self.ledger = Some(LedgerHandle { sink, tag: Arc::from(tag) });
    }

    /// Detaches the audit ledger.
    pub fn clear_ledger(&mut self) {
        self.ledger = None;
    }

    /// Whether an audit ledger is attached.
    pub fn has_ledger(&self) -> bool {
        self.ledger.is_some()
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
        self.sc_accum.iter().enumerate().filter_map(|(i, &f)| f.then_some(i)).collect()
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

    /// Enables crash-recovery checkpoints: detector state is persisted
    /// atomically (tmp + rename) to `path` after warm-up, at every
    /// iteration boundary of [`Enld::detect`], at task end, and after
    /// [`Enld::update_model`].
    ///
    /// A failed checkpoint write panics rather than silently dropping
    /// durability; the previous checkpoint file is left intact, so a
    /// supervisor can restart and [`Enld::resume_from`] it. Clones (e.g.
    /// serve-pool workers) do not inherit the checkpoint path — two
    /// writers would race the tmp + rename.
    pub fn enable_checkpoints(&mut self, path: impl Into<PathBuf>) {
        self.checkpoint_path = Some(path.into());
    }

    /// Stops writing checkpoints.
    pub fn disable_checkpoints(&mut self) {
        self.checkpoint_path = None;
    }

    /// Where checkpoints are written, when enabled.
    pub fn checkpoint_file(&self) -> Option<&Path> {
        self.checkpoint_path.as_deref()
    }

    /// Whether a resumed in-flight task is waiting for [`Enld::detect`].
    pub fn has_pending_task(&self) -> bool {
        self.pending.is_some()
    }

    /// Fingerprint of the incremental dataset the pending in-flight task
    /// was processing (compare with
    /// [`checkpoint::dataset_fingerprint`] to find the right arrival).
    pub fn pending_dataset_fingerprint(&self) -> Option<u64> {
        self.pending.as_ref().map(|p| p.d_fp)
    }

    /// Detection tasks fully completed (excludes a pending in-flight one).
    pub fn tasks_completed(&self) -> usize {
        self.tasks - usize::from(self.pending.is_some())
    }

    /// Captures the current state (including any pending in-flight task)
    /// as a [`Checkpoint`].
    pub fn capture_checkpoint(&self) -> Checkpoint {
        let in_flight = self.pending.as_ref().map(|p| cursor_to_in_flight(&p.cursor, p.d_fp));
        self.checkpoint_with(in_flight)
    }

    fn checkpoint_with(&self, in_flight: Option<InFlightTask>) -> Checkpoint {
        let (classes, joint, cond) = self.cond.to_parts();
        Checkpoint {
            config_fp: checkpoint::config_fingerprint(&self.config),
            inventory_fp: self.inventory_fp,
            tasks: self.tasks,
            updates: self.updates,
            setup_secs: self.setup_secs,
            hq: self.hq.clone(),
            sc_accum: self.sc_accum.clone(),
            cond: CondState { classes, joint: joint.to_vec(), cond: cond.to_vec() },
            model: ModelState::capture(&self.model),
            in_flight,
            ann: self.ann.as_ref().map(AnnClassIndex::to_bytes),
        }
    }

    fn persist_pending(&self, d_fp: u64, st: &TaskCursor) {
        let Some(path) = &self.checkpoint_path else { return };
        let ckpt = self.checkpoint_with(Some(cursor_to_in_flight(st, d_fp)));
        if let Err(e) = ckpt.save_atomic(path) {
            panic!("enld checkpoint write to {} failed: {e}", path.display());
        }
    }

    fn persist_state(&self) {
        let Some(path) = &self.checkpoint_path else { return };
        if let Err(e) = self.capture_checkpoint().save_atomic(path) {
            panic!("enld checkpoint write to {} failed: {e}", path.display());
        }
    }

    /// Rebuilds a detector from a [`Checkpoint`] without retraining.
    ///
    /// `inventory` and `config` must be the ones originally passed to
    /// [`Enld::init`] (both are validated by fingerprint). The
    /// deterministic `I_t`/`I_c` split is recomputed; everything else —
    /// general model with SGD momentum, `P̃`, `H`, `S_c`, the task/update
    /// counters that drive every derived seed, and any in-flight task
    /// cursor — is restored from the checkpoint. When the checkpoint
    /// holds an in-flight task, the next [`Enld::detect`] call must
    /// receive the same incremental dataset and continues that task from
    /// the first incomplete iteration, bit-identical to an uninterrupted
    /// run.
    ///
    /// The ledger and checkpoint path are *not* restored — re-attach with
    /// [`Enld::set_ledger`] (appending to the old file) and
    /// [`Enld::enable_checkpoints`].
    ///
    /// # Errors
    /// [`CheckpointError::Mismatch`] when the config or inventory differs
    /// from the checkpointed one.
    pub fn resume_from(
        inventory: &Dataset,
        config: &EnldConfig,
        ckpt: &Checkpoint,
    ) -> Result<Self, CheckpointError> {
        config.validate();
        let config_fp = checkpoint::config_fingerprint(config);
        if config_fp != ckpt.config_fp {
            return Err(CheckpointError::Mismatch(
                "configuration differs from the checkpointed one".into(),
            ));
        }
        let inventory_fp = checkpoint::dataset_fingerprint(inventory);
        if inventory_fp != ckpt.inventory_fp {
            return Err(CheckpointError::Mismatch(
                "inventory dataset differs from the checkpointed one".into(),
            ));
        }
        let (mut i_t, mut i_c) = split_half(inventory, config.seed.wrapping_add(1000));
        if ckpt.updates % 2 == 1 {
            // Alg. 4 swaps the splits on every model update.
            std::mem::swap(&mut i_t, &mut i_c);
        }
        if ckpt.sc_accum.len() != i_c.len() {
            return Err(CheckpointError::Mismatch("S_c length does not match I_c".into()));
        }
        let model_cfg = config.arch.config(inventory.dim(), inventory.classes());
        let mut model = Mlp::new(&model_cfg, config.seed);
        ckpt.model.restore_into(&mut model);
        let cond = ConditionalLabelProbability::from_parts(
            ckpt.cond.classes,
            ckpt.cond.joint.clone(),
            ckpt.cond.cond.clone(),
        );
        let pending = ckpt.in_flight.as_ref().map(|t| {
            let mut theta = Mlp::new(&model_cfg, config.seed);
            t.theta.restore_into(&mut theta);
            PendingTask { d_fp: t.d_fp, cursor: in_flight_to_cursor(t, theta) }
        });
        let mut this = Self {
            config: *config,
            model,
            cond,
            i_t,
            i_c,
            hq: ckpt.hq.clone(),
            sc_accum: ckpt.sc_accum.clone(),
            setup_secs: ckpt.setup_secs,
            tasks: ckpt.tasks,
            updates: ckpt.updates,
            ledger: None,
            inventory_fp,
            checkpoint_path: None,
            pending,
            ann: None,
        };
        this.ann = match &ckpt.ann {
            // Restore the serialized graph verbatim: no rebuild, and the
            // probe refreshes the recall gauge for the revived process.
            Some(blob) => {
                let index = AnnClassIndex::from_bytes(blob)
                    .map_err(|e| CheckpointError::Format(format!("ann index blob: {e}")))?;
                index.recall_probe(config.k.max(2));
                Some(index)
            }
            // Config fingerprints matched, so a missing blob means the
            // exact backend — but rebuild defensively if hnsw is asked.
            None => this.build_hq_ann(),
        };
        Ok(this)
    }

    /// Alg. 2 + Alg. 3: fine-grained noisy-label detection with
    /// contrastive sampling for one incremental dataset.
    ///
    /// After [`Enld::resume_from`] with an in-flight task, the call must
    /// receive the same dataset the interrupted task was processing
    /// (checked by fingerprint); detection then continues from the first
    /// incomplete iteration instead of starting over.
    pub fn detect(&mut self, d: &Dataset) -> DetectionReport {
        assert_eq!(d.dim(), self.i_c.dim(), "incremental dataset dimension mismatch");
        assert_eq!(d.classes(), self.i_c.classes(), "incremental dataset class-count mismatch");
        let sw = Instant::now();
        let cfg = self.config;
        let d_fp = checkpoint::dataset_fingerprint(d);
        let resumed = match self.pending.take() {
            Some(p) => {
                assert_eq!(
                    p.d_fp, d_fp,
                    "resumed detect() was given a different dataset than the in-flight task"
                );
                Some(p.cursor)
            }
            None => {
                self.tasks += 1;
                None
            }
        };
        let mut detect_span = telemetry::span("enld.detect")
            .field("task", self.tasks)
            .field("samples", d.len())
            .entered();
        metrics().counter("enld.detect.tasks").inc();
        // Every random choice below is seeded by pure counters — (config
        // seed, task #, selection round / fine-tune epoch index) — so a
        // resumed task replays the exact streams of an uninterrupted run
        // without serialising RNG state into checkpoints.
        let task_seed = cfg.seed ^ (self.tasks as u64).wrapping_mul(GOLDEN);
        let d_view = DataRef::new(d.xs(), d.labels(), d.dim());
        let ic_view = DataRef::new(self.i_c.xs(), self.i_c.labels(), self.i_c.dim());

        // Samples with an observed label participate in detection; missing
        // ones only receive pseudo-labels (§V-H).
        let eligible: Vec<usize> = (0..d.len()).filter(|&i| !d.missing_mask()[i]).collect();
        let labels_d: BTreeSet<u32> = d.label_set();
        // Alg. 3 line 3: I' = candidates whose observed label ∈ label(D).
        let i_prime: Vec<usize> =
            (0..self.i_c.len()).filter(|&i| labels_d.contains(&self.i_c.labels()[i])).collect();
        let missing: Vec<usize> = d.missing_indices();
        let threshold = cfg.vote_threshold();
        let ledger = self.ledger.clone();
        let mut draw_buf: Vec<ContrastDraw> = Vec::new();

        let mut st = match resumed {
            Some(cursor) => cursor,
            None => {
                let st = self.start_task(
                    task_seed,
                    d,
                    d_view,
                    ic_view,
                    &eligible,
                    &i_prime,
                    &missing,
                    ledger.is_some(),
                    &mut draw_buf,
                );
                // Post-warm-up checkpoint: a crash inside iteration 0 can
                // resume without redoing selection and warm-up.
                self.persist_pending(d_fp, &st);
                st
            }
        };
        // Drift gauge: how ambiguous this arrival looked to the current
        // general model (spikes signal distribution shift in the lake).
        let ambiguous_rate = if eligible.is_empty() {
            0.0
        } else {
            st.ambiguous_initial as f64 / eligible.len() as f64
        };
        metrics().gauge("enld.drift.ambiguous_rate").set(ambiguous_rate);
        // One event-driven monitor observation per arrival: the change-
        // point rules need the per-task sequence, not a resampled gauge.
        telemetry::monitor::global().observe("enld.drift.ambiguous_rate", ambiguous_rate);
        // P̃-staleness: re-estimate the conditional on this arrival from
        // the general model's predictions and measure how far the held
        // P̃ (fitted at init / last Alg. 4 update) has drifted from it.
        // Pure inference — consumes no RNG, so detection streams are
        // byte-identical with or without the observation.
        let p_staleness = if eligible.is_empty() {
            0.0
        } else {
            let preds = self.model.predict_labels(d_view);
            let observed: Vec<u32> = eligible.iter().map(|&i| d.labels()[i]).collect();
            let predicted: Vec<u32> = eligible.iter().map(|&i| preds[i]).collect();
            let arrival_cond =
                ConditionalLabelProbability::estimate(&observed, &predicted, d.classes());
            mean_row_divergence(&self.cond, &arrival_cond)
        };
        metrics().gauge("enld.drift.p_staleness").set(p_staleness);
        telemetry::monitor::global().observe("enld.drift.p_staleness", p_staleness);

        // Fine-grained detection loop (Alg. 3 lines 5–22).
        for iteration in st.next_iteration..cfg.iterations {
            enld_chaos::fail_point("detector.iteration");
            let mut iter_timer = ScopedTimer::new("enld.detect.iteration");
            iter_timer.record_field("iteration", iteration);
            let mut count = vec![0u32; d.len()];
            let mut flips = 0u64;
            for step in 0..cfg.steps {
                enld_chaos::fail_point("detector.step");
                let _step_span = telemetry::trace_span("enld.detect.step")
                    .field("iteration", iteration)
                    .field("step", step)
                    .entered();
                let epoch = cfg.warmup_epochs + iteration * cfg.steps + step;
                self.train_epoch(
                    &mut st.theta,
                    train_seed(task_seed, epoch as u64),
                    &st.contrast,
                    d,
                );
                let preds = self.scan_model(&st.theta).predict_labels(d_view);
                // Agreement is computed in parallel over fixed chunks; the
                // stateful vote update below stays sequential in `eligible`
                // order, so `trace.votes`, `count`, and flip accounting are
                // identical to the historical loop (and ledger replay via
                // `enld explain` sees the same trajectories).
                let agrees = enld_par::par_map(eligible.len(), SCAN_CHUNK, |j| {
                    let i = eligible[j];
                    preds[i] == d.labels()[i]
                });
                for (j, &i) in eligible.iter().enumerate() {
                    let agree = agrees[j];
                    if let Some(trace) = st.trace.as_mut() {
                        trace.votes[i][iteration][step] = agree;
                    }
                    if agree {
                        count[i] += 1;
                        if count[i] as usize >= threshold && !st.in_s[i] {
                            st.in_s[i] = true;
                            flips += 1;
                        }
                    }
                }
                for &i in &missing {
                    st.pseudo_votes[i][preds[i] as usize] += 1;
                }
            }

            // Sample update & re-sampling (lines 15–21).
            let scan = self.scan_model(&st.theta);
            let (probs_d, feats_d) = scan.proba_and_features(d_view);
            let preds_d = row_argmax(&probs_d);
            st.ambiguous = ambiguous_scan(&eligible, &preds_d, d.labels());

            // H' refresh on I' under θ', with the confidence filter; clean
            // votes for the inventory selection (lines 16–19).
            let h_now = self.refresh_high_quality(&scan, &i_prime, ic_view);
            for &i in &h_now {
                st.count_c[i] += 1;
            }

            let mut sel_rng = sampling_rng(task_seed, iteration as u64 + 1);
            st.contrast = self.select_contrast(
                &scan,
                false,
                d,
                &feats_d,
                &st.ambiguous,
                &h_now,
                &i_prime,
                ic_view,
                &mut sel_rng,
                st.trace.is_some().then_some(&mut draw_buf),
            );
            if let Some(trace) = st.trace.as_mut() {
                trace.absorb_draws(iteration as i64, &mut draw_buf);
                for &i in &st.ambiguous {
                    trace.still_ambiguous[i].push(iteration);
                }
            }
            if cfg.ablation.merges_clean_set() {
                // C = C ∪ S (line 21).
                for (i, &flag) in st.in_s.iter().enumerate() {
                    if flag {
                        st.contrast.push(ContrastSample {
                            source: SampleSource::Incremental(i),
                            label: d.labels()[i],
                        });
                    }
                }
            }

            metrics().counter("enld.detect.vote_flips_total").add(flips);
            metrics()
                .histogram_with("enld.detect.ambiguous_per_iteration", Histogram::count_bounds)
                .record(st.ambiguous.len() as f64);
            iter_timer.record_field("ambiguous", st.ambiguous.len());
            iter_timer.record_field("flips", flips);
            iter_timer.record_field("contrast", st.contrast.len());

            st.history.push(IterationSnapshot {
                iteration,
                clean_so_far: flags_to_indices(&st.in_s),
                ambiguous: st.ambiguous.len(),
                contrastive_size: st.contrast.len(),
            });
            st.next_iteration = iteration + 1;
            // Iteration-boundary checkpoint: everything needed to replay
            // the remaining iterations bit-identically after a crash.
            self.persist_pending(d_fp, &st);
        }

        let clean = flags_to_indices(&st.in_s);
        let noisy: Vec<usize> = eligible.iter().copied().filter(|&i| !st.in_s[i]).collect();
        // Stringent inventory criterion: clean in *all* t iterations.
        let inventory_clean: Vec<usize> =
            i_prime.iter().copied().filter(|&i| st.count_c[i] == cfg.iterations).collect();
        for &i in &inventory_clean {
            self.sc_accum[i] = true;
        }
        let pseudo_labels: Vec<(usize, u32)> =
            missing.iter().map(|&i| (i, argmax_u32(&st.pseudo_votes[i]))).collect();

        // Wall-clock only; a resumed run counts post-resume time, so
        // byte-identity comparisons must exclude this field.
        let process_secs = sw.elapsed().as_secs_f64();
        let m = metrics();
        m.counter("enld.detect.clean_total").add(clean.len() as u64);
        m.counter("enld.detect.noisy_total").add(noisy.len() as u64);
        m.histogram("enld.detect.process_secs").record(process_secs);
        detect_span.record("clean", clean.len());
        detect_span.record("noisy", noisy.len());
        detect_span.record("secs", process_secs);

        if let (Some(handle), Some(trace)) = (&ledger, &st.trace) {
            enld_chaos::fail_point("detector.ledger");
            handle.sink.record(&LedgerRecord::Task(TaskRecord {
                detector: handle.tag.to_string(),
                task: self.tasks,
                samples: d.len(),
                eligible: eligible.len(),
                ambiguous_initial: st.ambiguous_initial,
                ambiguous_rate,
                clean: clean.len(),
                noisy: noisy.len(),
                iterations: cfg.iterations,
                steps: cfg.steps,
                threshold,
                // Joins this ledger line to the span trace; 0 (omitted
                // on write) when span tracing is off.
                trace_id: detect_span.trace_id().unwrap_or(0),
                span_id: detect_span.id().unwrap_or(0),
            }));
            for &i in &eligible {
                handle.sink.record(&LedgerRecord::Sample(SampleRecord {
                    detector: handle.tag.to_string(),
                    task: self.tasks,
                    sample: i,
                    observed: d.labels()[i],
                    ambiguous_initial: trace.ambiguous_initial[i],
                    votes: trace.votes[i].clone(),
                    threshold,
                    still_ambiguous_after: trace.still_ambiguous[i].clone(),
                    draws: trace.draws[i].clone(),
                    verdict: if st.in_s[i] { Verdict::Clean } else { Verdict::Noisy },
                }));
            }
            handle.sink.flush();
        }

        let report = DetectionReport {
            clean,
            noisy,
            pseudo_labels,
            inventory_clean,
            history: st.history,
            process_secs,
            warmup_val_acc: st.warmup_val_acc,
            p_staleness,
        };
        // Task-boundary checkpoint (no in-flight section): a crash before
        // the next task's first checkpoint resumes from here.
        self.persist_state();
        report
    }

    /// Initial ambiguity scan, contrastive selection round 0, and warm-up
    /// (Alg. 1 lines 5–7 + Alg. 3 line 4) for a fresh task.
    #[allow(clippy::too_many_arguments)]
    fn start_task(
        &self,
        task_seed: u64,
        d: &Dataset,
        d_view: DataRef<'_>,
        ic_view: DataRef<'_>,
        eligible: &[usize],
        i_prime: &[usize],
        missing: &[usize],
        tracing: bool,
        draw_buf: &mut Vec<ContrastDraw>,
    ) -> TaskCursor {
        let cfg = self.config;
        // θ' starts from a snapshot of the general model.
        let mut theta = self.model.clone();
        theta.reset_momentum();

        let (feats_d, ambiguous) = {
            let mut s = telemetry::debug_span("enld.detect.ambiguous_select").entered();
            let (probs_d, feats_d) = self.scan_model(&theta).proba_and_features(d_view);
            let preds_d = row_argmax(&probs_d);
            let ambiguous = ambiguous_scan(eligible, &preds_d, d.labels());
            s.record("ambiguous", ambiguous.len());
            (feats_d, ambiguous)
        };
        let ambiguous_initial = ambiguous.len();

        // Audit trace: collected only while a ledger is attached.
        let mut trace = tracing.then(|| TaskTrace::new(d.len(), cfg.iterations, cfg.steps));
        if let Some(trace) = trace.as_mut() {
            for &i in &ambiguous {
                trace.ambiguous_initial[i] = true;
            }
        }

        let hq_in_prime: Vec<usize> = {
            let prime: BTreeSet<usize> = i_prime.iter().copied().collect();
            self.hq.iter().copied().filter(|i| prime.contains(i)).collect()
        };
        let mut sel_rng = sampling_rng(task_seed, 0);
        let contrast = self.select_contrast(
            &self.scan_model(&theta),
            true,
            d,
            &feats_d,
            &ambiguous,
            &hq_in_prime,
            i_prime,
            ic_view,
            &mut sel_rng,
            trace.is_some().then_some(&mut *draw_buf),
        );
        if let Some(trace) = trace.as_mut() {
            trace.absorb_draws(-1, draw_buf);
        }

        // Warm-up: fine-tune on C, keep the snapshot with the best
        // validation accuracy on D (Alg. 3 line 4).
        let eval_acc = |m: &Mlp| -> f32 {
            if eligible.is_empty() {
                return 0.0;
            }
            let preds = self.scan_model(m).predict_labels(d_view);
            let hit = eligible.iter().filter(|&&i| preds[i] == d.labels()[i]).count();
            hit as f32 / eligible.len() as f32
        };
        let mut best = theta.clone();
        let mut best_acc = eval_acc(&theta);
        {
            let mut warmup_timer = ScopedTimer::new("enld.detect.warmup");
            warmup_timer.record_field("epochs", cfg.warmup_epochs);
            for epoch in 0..cfg.warmup_epochs {
                self.train_epoch(&mut theta, train_seed(task_seed, epoch as u64), &contrast, d);
                let acc = eval_acc(&theta);
                if acc >= best_acc {
                    best_acc = acc;
                    best = theta.clone();
                }
            }
            warmup_timer.record_field("val_acc", best_acc);
        }
        theta = best;

        let mut pseudo_votes: Vec<Vec<u32>> = vec![Vec::new(); d.len()];
        for &i in missing {
            pseudo_votes[i] = vec![0; d.classes()];
        }
        TaskCursor {
            next_iteration: 0,
            theta,
            contrast,
            ambiguous,
            in_s: vec![false; d.len()],
            count_c: vec![0usize; self.i_c.len()],
            pseudo_votes,
            history: Vec::with_capacity(cfg.iterations),
            warmup_val_acc: best_acc,
            ambiguous_initial,
            trace,
        }
    }

    /// Alg. 4: retrain on the accumulated clean inventory selection,
    /// swap `I_t`/`I_c`, and re-estimate `P̃` and `H`.
    ///
    /// Returns the number of clean samples the new model was trained on.
    /// No-op (returns 0) when no clean samples have been selected yet.
    pub fn update_model(&mut self) -> usize {
        let clean = self.accumulated_clean();
        if clean.is_empty() {
            return 0;
        }
        enld_chaos::fail_point("detector.update_model");
        let old_cond = self.cond.clone();
        let mut update_timer = ScopedTimer::with_level("enld.update_model", telemetry::Level::Info);
        update_timer.record_field("clean", clean.len());
        metrics().counter("enld.updates_total").inc();
        let train_set = self.i_c.subset(&clean);
        self.updates += 1;
        let seed = self.config.seed.wrapping_add(5000 + self.updates as u64);
        let model_cfg = self.config.arch.config(self.i_c.dim(), self.i_c.classes());
        let mut new_model = Mlp::new(&model_cfg, seed);
        // θᵘ = train(S_c) retrains from scratch; when few clean samples
        // have accumulated, scale the epoch count up so the retrained
        // model still sees a comparable number of SGD steps.
        let mut train_cfg = self.config.init_train;
        let steps_per_epoch = train_set.len().div_ceil(train_cfg.batch_size).max(1);
        let target_steps =
            self.config.init_train.epochs * self.i_t.len().div_ceil(train_cfg.batch_size).max(1);
        train_cfg.epochs = train_cfg.epochs.max(target_steps.div_ceil(steps_per_epoch));
        let mut trainer = Trainer::new(train_cfg, seed.wrapping_add(1));
        let view = DataRef::new(train_set.xs(), train_set.labels(), train_set.dim());
        trainer.fit(&mut new_model, view, None);
        self.model = new_model;

        // swap(I_t, I_c): the old training split becomes the candidate set.
        std::mem::swap(&mut self.i_t, &mut self.i_c);
        let ic_view = DataRef::new(self.i_c.xs(), self.i_c.labels(), self.i_c.dim());
        let probs = self.model.predict_proba(ic_view);
        let preds: Vec<u32> = (0..probs.rows()).map(|r| argmax(probs.row(r)) as u32).collect();
        self.cond =
            ConditionalLabelProbability::estimate(self.i_c.labels(), &preds, self.i_c.classes());
        let candidates: Vec<usize> = (0..self.i_c.len()).collect();
        self.hq = high_quality_filtered(&probs, &preds, self.i_c.labels(), &candidates);
        self.sc_accum = vec![false; self.i_c.len()];
        // The model, the candidate split, and H all changed: the
        // persistent approximate index must be rebuilt from scratch.
        self.ann = self.build_hq_ann();

        // Drift gauge: how far the estimated conditional moved across the
        // update — large jumps mean the accumulated clean set looks very
        // different from what the previous model believed.
        let divergence = mean_row_divergence(&old_cond, &self.cond);
        metrics().gauge("enld.drift.p_row_divergence").set(divergence);
        telemetry::monitor::global().observe("enld.drift.p_row_divergence", divergence);
        if let Some(handle) = &self.ledger {
            handle.sink.record(&LedgerRecord::Update(UpdateRecord {
                detector: handle.tag.to_string(),
                update: self.updates,
                clean_used: clean.len(),
                p_row_divergence: divergence,
            }));
            handle.sink.flush();
        }
        // Update-boundary checkpoint: a crash after the swap must not
        // resume into pre-update state (the derived seeds moved on).
        self.persist_state();
        clean.len()
    }

    /// Builds the inference engine for per-task θ' scans: the f32 model
    /// itself, or (with `EnldConfig::quantized`) a fresh int8 snapshot of
    /// it. A failure injected at the `nn.quant.pack` site falls back to
    /// the f32 path — the snapshot is derived state that never reaches a
    /// checkpoint, so dropping it is always safe.
    fn scan_model<'m>(&self, theta: &'m Mlp) -> ScanModel<'m> {
        if !self.config.quantized {
            return ScanModel::F32(theta);
        }
        match enld_chaos::fail_point_io("nn.quant.pack") {
            Ok(()) => {
                metrics().counter("enld.nn.quant.pack_total").inc();
                ScanModel::Int8(Box::new(QuantizedMlp::from_mlp(theta)))
            }
            Err(_) => {
                metrics().counter("enld.nn.quant.fallback_total").inc();
                ScanModel::F32(theta)
            }
        }
    }

    /// Builds the fine-tune set according to the configured policy /
    /// ablation variant. `round0` marks the pre-warm-up selection, where
    /// `θ'` is still a verbatim clone of the general model — the only
    /// round where the persistent HNSW index (whose vectors are
    /// general-model features) can serve queries directly.
    #[allow(clippy::too_many_arguments)]
    fn select_contrast(
        &self,
        scan: &ScanModel<'_>,
        round0: bool,
        d: &Dataset,
        feats_d: &Matrix,
        ambiguous: &[usize],
        hq_candidates: &[usize],
        i_prime: &[usize],
        ic_view: DataRef<'_>,
        rng: &mut StdRng,
        draws: Option<&mut Vec<ContrastDraw>>,
    ) -> Vec<ContrastSample> {
        let mut span = telemetry::debug_span("enld.detect.contrastive")
            .field("ambiguous", ambiguous.len())
            .entered();
        let sw = Instant::now();
        let out = self.select_contrast_inner(
            scan,
            round0,
            d,
            feats_d,
            ambiguous,
            hq_candidates,
            i_prime,
            ic_view,
            rng,
            draws,
        );
        metrics().histogram("enld.sampling.select_secs").record(sw.elapsed().as_secs_f64());
        span.record("selected", out.len());
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn select_contrast_inner(
        &self,
        scan: &ScanModel<'_>,
        round0: bool,
        d: &Dataset,
        feats_d: &Matrix,
        ambiguous: &[usize],
        hq_candidates: &[usize],
        i_prime: &[usize],
        ic_view: DataRef<'_>,
        rng: &mut StdRng,
        draws: Option<&mut Vec<ContrastDraw>>,
    ) -> Vec<ContrastSample> {
        let want = self.config.k * ambiguous.len();
        if ambiguous.is_empty() {
            return Vec::new();
        }
        if self.config.ablation.random_contrast() {
            // ENLD-1: uniform draws from I' replace contrastive sampling.
            return random_subset(i_prime, want, self.i_c.labels(), rng);
        }
        match self.config.policy {
            SamplingPolicy::Contrastive => {
                if hq_candidates.is_empty() {
                    // No high-quality samples share D's labels; fall back to
                    // uniform draws from I' so fine-tuning can still proceed.
                    return random_subset(i_prime, want, self.i_c.labels(), rng);
                }
                let amb_labels: Vec<u32> = ambiguous.iter().map(|&i| d.labels()[i]).collect();
                if round0 {
                    if let Some(ann) = &self.ann {
                        // The persistent graph holds every sample of `H`
                        // under general-model features; restricting the
                        // candidate label set to classes present in D makes
                        // its answers identical to an index built over
                        // `H ∩ I'` (each class shard already contains
                        // exactly those samples, in the same order).
                        let labels_d: BTreeSet<u32> = d.label_set();
                        let label_set: Vec<u32> =
                            ann.classes().filter(|c| labels_d.contains(c)).collect();
                        return contrastive_sampling(
                            ambiguous,
                            &amb_labels,
                            feats_d,
                            ann,
                            &label_set,
                            self.i_c.labels(),
                            &self.cond,
                            self.config.k,
                            self.config.ablation.identity_label(),
                            rng,
                            draws,
                        );
                    }
                }
                let hq_batch = ic_view.gather(hq_candidates);
                let (hq_feats, _) = scan.forward_inference(&hq_batch);
                let hq_labels: Vec<u32> =
                    hq_candidates.iter().map(|&i| self.i_c.labels()[i]).collect();
                let index: Box<dyn NeighborIndex> = match self.config.index {
                    IndexBackend::Exact => Box::new(ClassIndex::build(
                        hq_feats.data(),
                        hq_feats.cols(),
                        &hq_labels,
                        hq_candidates,
                    )),
                    IndexBackend::Hnsw(params) => Box::new(AnnClassIndex::build(
                        hq_feats.data(),
                        hq_feats.cols(),
                        &hq_labels,
                        hq_candidates,
                        params,
                    )),
                };
                let label_set: Vec<u32> = {
                    let set: BTreeSet<u32> = hq_labels.iter().copied().collect();
                    set.into_iter().collect()
                };
                contrastive_sampling(
                    ambiguous,
                    &amb_labels,
                    feats_d,
                    index.as_ref(),
                    &label_set,
                    self.i_c.labels(),
                    &self.cond,
                    self.config.k,
                    self.config.ablation.identity_label(),
                    rng,
                    draws,
                )
            }
            policy => {
                // §V-D alternatives score the whole candidate set I_c.
                let probs_ic = scan.predict_proba(ic_view);
                let all: Vec<usize> = (0..self.i_c.len()).collect();
                policy_sampling(policy, want, &probs_ic, self.i_c.labels(), &all, rng)
            }
        }
    }

    /// One fine-tune epoch over the materialised contrastive set. A fresh
    /// `Trainer` is built from `seed` (derived from the epoch counter) so
    /// the shuffle stream depends only on counters, never on how many
    /// epochs this process has already run — the property that lets a
    /// resumed task replay the remaining epochs bit-identically.
    fn train_epoch(&self, theta: &mut Mlp, seed: u64, contrast: &[ContrastSample], d: &Dataset) {
        if contrast.is_empty() {
            return;
        }
        let cfg = self.config;
        let mut trainer = Trainer::new(
            TrainConfig {
                epochs: 1,
                batch_size: cfg.finetune_batch,
                sgd: cfg.finetune_sgd,
                mixup_alpha: None,
                lr_decay: 1.0,
            },
            seed,
        );
        let dim = d.dim();
        let mut xs = Vec::with_capacity(contrast.len() * dim);
        let mut labels = Vec::with_capacity(contrast.len());
        for s in contrast {
            match s.source {
                SampleSource::Inventory(i) => xs.extend_from_slice(self.i_c.row(i)),
                SampleSource::Incremental(i) => xs.extend_from_slice(d.row(i)),
            }
            labels.push(s.label);
        }
        let view = DataRef::new(&xs, &labels, dim);
        trainer.fit(theta, view, None);
    }

    /// H' refresh: agreeing samples of `I'` under the current model, kept
    /// only when their predicted-class confidence reaches the class mean.
    fn refresh_high_quality(
        &self,
        scan: &ScanModel<'_>,
        i_prime: &[usize],
        ic_view: DataRef<'_>,
    ) -> Vec<usize> {
        if i_prime.is_empty() {
            return Vec::new();
        }
        let batch = ic_view.gather(i_prime);
        let (_, logits) = scan.forward_inference(&batch);
        let mut probs = logits;
        enld_nn::loss::softmax_inplace(&mut probs);
        let preds: Vec<u32> = (0..probs.rows()).map(|r| argmax(probs.row(r)) as u32).collect();
        let labels: Vec<u32> = i_prime.iter().map(|&i| self.i_c.labels()[i]).collect();
        let local =
            high_quality_filtered(&probs, &preds, &labels, &(0..i_prime.len()).collect::<Vec<_>>());
        local.into_iter().map(|r| i_prime[r]).collect()
    }
}

/// Inference engine for the per-task ambiguity scans: the fine-tuned θ'
/// itself, or its int8 snapshot when `--quantized` is on. Holds only
/// derived state; the f32 θ' stays authoritative for checkpoints, so
/// the flag can never change what a resume replays.
enum ScanModel<'m> {
    F32(&'m Mlp),
    Int8(Box<QuantizedMlp>),
}

impl ScanModel<'_> {
    fn count_rows(&self, n: usize) {
        if matches!(self, ScanModel::Int8(_)) {
            metrics().counter("enld.nn.quant.rows_total").add(n as u64);
        }
    }

    fn predict_labels(&self, data: DataRef<'_>) -> Vec<u32> {
        self.count_rows(data.len());
        match self {
            ScanModel::F32(m) => m.predict_labels(data),
            ScanModel::Int8(q) => q.predict_labels(data),
        }
    }

    fn predict_proba(&self, data: DataRef<'_>) -> Matrix {
        self.count_rows(data.len());
        match self {
            ScanModel::F32(m) => m.predict_proba(data),
            ScanModel::Int8(q) => q.predict_proba(data),
        }
    }

    fn proba_and_features(&self, data: DataRef<'_>) -> (Matrix, Matrix) {
        self.count_rows(data.len());
        match self {
            ScanModel::F32(m) => m.proba_and_features(data),
            ScanModel::Int8(q) => q.proba_and_features(data),
        }
    }

    fn forward_inference(&self, x: &Matrix) -> (Matrix, Matrix) {
        self.count_rows(x.rows());
        match self {
            ScanModel::F32(m) => m.forward_inference(x),
            ScanModel::Int8(q) => q.forward_inference(x),
        }
    }
}

/// Definition 1 plus the paper's confidence filter: keep samples whose
/// prediction matches the observed label *and* whose predicted-class
/// confidence is at least the mean confidence of that predicted class.
fn high_quality_filtered(
    probs: &Matrix,
    preds: &[u32],
    labels: &[u32],
    candidates: &[usize],
) -> Vec<usize> {
    let classes = probs.cols();
    let mut sum = vec![0.0f64; classes];
    let mut cnt = vec![0usize; classes];
    for &i in candidates {
        let p = preds[i] as usize;
        sum[p] += probs.row(i)[p] as f64;
        cnt[p] += 1;
    }
    let mean: Vec<f64> =
        (0..classes).map(|c| if cnt[c] == 0 { 0.0 } else { sum[c] / cnt[c] as f64 }).collect();
    candidates
        .iter()
        .copied()
        .filter(|&i| {
            let p = preds[i] as usize;
            preds[i] == labels[i] && probs.row(i)[p] as f64 >= mean[p]
        })
        .collect()
}

fn row_argmax(m: &Matrix) -> Vec<u32> {
    (0..m.rows()).map(|r| argmax(m.row(r)) as u32).collect()
}

/// Samples per parallel task in the agreement/ambiguity scans. Fixed (never
/// derived from the thread count) so results are deterministic.
const SCAN_CHUNK: usize = 1024;

/// Eligible samples whose prediction disagrees with the observed label —
/// the ambiguity scan, parallelised over fixed chunks with an *ordered*
/// concatenation so the result matches the sequential filter exactly.
fn ambiguous_scan(eligible: &[usize], preds_d: &[u32], labels: &[u32]) -> Vec<usize> {
    enld_par::par_map_reduce(
        eligible.len(),
        SCAN_CHUNK,
        |range| {
            eligible[range].iter().copied().filter(|&i| preds_d[i] != labels[i]).collect::<Vec<_>>()
        },
        |mut acc, mut part| {
            acc.append(&mut part);
            acc
        },
    )
    .unwrap_or_default()
}

fn flags_to_indices(flags: &[bool]) -> Vec<usize> {
    flags.iter().enumerate().filter_map(|(i, &f)| f.then_some(i)).collect()
}

/// Mean total-variation distance between corresponding rows of two
/// estimated conditionals: `mean_y Σ_{y*} |P̃_old(y*|y) − P̃_new(y*|y)| / 2`,
/// in `[0, 1]`. Reported as `enld.drift.p_row_divergence` after Alg. 4.
fn mean_row_divergence(
    old: &ConditionalLabelProbability,
    new: &ConditionalLabelProbability,
) -> f64 {
    let rows = old.classes().min(new.classes());
    if rows == 0 {
        return 0.0;
    }
    let mut total = 0.0;
    for y in 0..rows {
        let (a, b) = (old.row(y), new.row(y));
        let tv: f64 = a.iter().zip(b).map(|(&p, &q)| (p - q).abs()).sum::<f64>() / 2.0;
        total += tv;
    }
    total / rows as f64
}

/// Per-task audit state gathered while a ledger is attached, folded into
/// [`SampleRecord`]s at the end of [`Enld::detect`].
struct TaskTrace {
    /// `votes[sample][iteration][step]`: did θ' agree with the observed
    /// label at that step?
    votes: Vec<Vec<Vec<bool>>>,
    ambiguous_initial: Vec<bool>,
    /// Iterations after which the sample was still ambiguous.
    still_ambiguous: Vec<Vec<usize>>,
    /// Contrastive draws per sample across selection rounds.
    draws: Vec<Vec<SampleDraw>>,
}

impl TaskTrace {
    fn new(samples: usize, iterations: usize, steps: usize) -> Self {
        Self {
            votes: vec![vec![vec![false; steps]; iterations]; samples],
            ambiguous_initial: vec![false; samples],
            still_ambiguous: vec![Vec::new(); samples],
            draws: vec![Vec::new(); samples],
        }
    }

    /// Drains a [`ContrastDraw`] buffer from one selection round (`round`
    /// is −1 for the pre-warm-up selection, else the iteration index)
    /// into the per-sample draw lists.
    fn absorb_draws(&mut self, round: i64, buf: &mut Vec<ContrastDraw>) {
        for draw in buf.drain(..) {
            self.draws[draw.sample].push(SampleDraw {
                round,
                candidate: draw.candidate,
                neighbors: draw.neighbors,
            });
        }
    }
}

/// Mutable state of one in-flight detection task. Lives on the stack
/// during [`Enld::detect`]; serialised into the checkpoint's
/// [`InFlightTask`] section at iteration boundaries and parked in
/// [`Enld::pending`] after [`Enld::resume_from`].
struct TaskCursor {
    /// First iteration that has not completed yet.
    next_iteration: usize,
    /// Fine-tuned model θ' (weights + SGD momentum).
    theta: Mlp,
    contrast: Vec<ContrastSample>,
    ambiguous: Vec<usize>,
    /// Sticky clean flags `S` over the incremental dataset.
    in_s: Vec<bool>,
    /// Clean-inventory vote counts over `I_c`.
    count_c: Vec<usize>,
    /// Pseudo-label votes for missing-label samples (empty when labelled).
    pseudo_votes: Vec<Vec<u32>>,
    history: Vec<IterationSnapshot>,
    warmup_val_acc: f32,
    ambiguous_initial: usize,
    trace: Option<TaskTrace>,
}

/// An in-flight task restored from a checkpoint, waiting for the next
/// [`Enld::detect`] call with the matching dataset.
struct PendingTask {
    d_fp: u64,
    cursor: TaskCursor,
}

fn cursor_to_in_flight(st: &TaskCursor, d_fp: u64) -> InFlightTask {
    InFlightTask {
        d_fp,
        next_iteration: st.next_iteration,
        warmup_val_acc: st.warmup_val_acc,
        ambiguous_initial: st.ambiguous_initial,
        theta: ModelState::capture(&st.theta),
        contrast: st.contrast.clone(),
        ambiguous: st.ambiguous.clone(),
        in_s: st.in_s.clone(),
        count_c: st.count_c.clone(),
        pseudo_votes: st.pseudo_votes.clone(),
        history: st.history.clone(),
        trace: st.trace.as_ref().map(trace_to_state),
    }
}

/// `theta` must be a freshly constructed model of the right architecture;
/// the checkpointed tensors are restored into it.
fn in_flight_to_cursor(t: &InFlightTask, theta: Mlp) -> TaskCursor {
    TaskCursor {
        next_iteration: t.next_iteration,
        theta,
        contrast: t.contrast.clone(),
        ambiguous: t.ambiguous.clone(),
        in_s: t.in_s.clone(),
        count_c: t.count_c.clone(),
        pseudo_votes: t.pseudo_votes.clone(),
        history: t.history.clone(),
        warmup_val_acc: t.warmup_val_acc,
        ambiguous_initial: t.ambiguous_initial,
        trace: t.trace.as_ref().map(state_to_trace),
    }
}

fn trace_to_state(tr: &TaskTrace) -> TraceState {
    TraceState {
        steps: tr.votes.first().and_then(|s| s.first()).map_or(0, Vec::len),
        votes: tr.votes.clone(),
        ambiguous_initial: tr.ambiguous_initial.clone(),
        still_ambiguous: tr.still_ambiguous.clone(),
        draws: tr
            .draws
            .iter()
            .map(|per| {
                per.iter()
                    .map(|d| DrawState {
                        round: d.round,
                        candidate: d.candidate,
                        neighbors: d.neighbors.clone(),
                    })
                    .collect()
            })
            .collect(),
    }
}

fn state_to_trace(ts: &TraceState) -> TaskTrace {
    TaskTrace {
        votes: ts.votes.clone(),
        ambiguous_initial: ts.ambiguous_initial.clone(),
        still_ambiguous: ts.still_ambiguous.clone(),
        draws: ts
            .draws
            .iter()
            .map(|per| {
                per.iter()
                    .map(|d| SampleDraw {
                        round: d.round,
                        candidate: d.candidate,
                        neighbors: d.neighbors.clone(),
                    })
                    .collect()
            })
            .collect(),
    }
}

/// Weyl-sequence increment (2⁶⁴/φ) used to spread counter seeds.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// splitmix64 finaliser — decorrelates structured (counter-derived) seeds.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fresh RNG for contrastive-selection round `round` of a task
/// (0 = pre-warm-up selection, `iteration + 1` afterwards).
fn sampling_rng(task_seed: u64, round: u64) -> StdRng {
    StdRng::seed_from_u64(splitmix64(task_seed ^ round.wrapping_mul(GOLDEN) ^ 0x53454C))
}

/// Seed for fine-tune epoch `epoch` of a task (warm-up epochs first, then
/// `warmup_epochs + iteration·steps + step`).
fn train_seed(task_seed: u64, epoch: u64) -> u64 {
    splitmix64(task_seed ^ epoch.wrapping_mul(GOLDEN) ^ 0x545249)
}

fn argmax_u32(votes: &[u32]) -> u32 {
    let mut best = 0usize;
    let mut best_v = 0u32;
    for (i, &v) in votes.iter().enumerate() {
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::detection_metrics;
    use enld_datagen::noise::apply_missing_labels;
    use enld_datagen::presets::DatasetPreset;
    use enld_lake::lake::{DataLake, LakeConfig};

    fn small_lake(noise: f32, seed: u64) -> DataLake {
        let preset = DatasetPreset::test_sim().scaled(0.5);
        DataLake::build(&LakeConfig { preset, noise_rate: noise, seed })
    }

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
    fn detect_partitions_the_dataset() {
        let mut lake = small_lake(0.2, 2);
        let mut enld = Enld::init(lake.inventory(), &EnldConfig::fast_test());
        let req = lake.next_request().expect("queued");
        let report = enld.detect(&req.data);
        // Clean + noisy together cover every sample exactly once.
        let mut seen = vec![false; req.data.len()];
        for &i in report.clean.iter().chain(&report.noisy) {
            assert!(!seen[i], "sample {i} in both sets");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(report.history.len(), EnldConfig::fast_test().iterations);
        assert!(report.process_secs > 0.0);
        assert!(report.pseudo_labels.is_empty());
    }

    #[test]
    fn detect_beats_chance_on_noise() {
        let mut lake = small_lake(0.2, 3);
        let mut enld = Enld::init(lake.inventory(), &EnldConfig::fast_test());
        let req = lake.next_request().expect("queued");
        let report = enld.detect(&req.data);
        let m = detection_metrics(&report.noisy, &req.data.noisy_indices(), req.data.len());
        // The test preset is easy; fast_test ENLD should do clearly better
        // than the 20% base rate.
        assert!(m.f1 > 0.5, "f1 {} (p {}, r {})", m.f1, m.precision, m.recall);
    }

    #[test]
    fn clean_dataset_detects_little_noise() {
        let mut lake = small_lake(0.0, 4);
        let mut enld = Enld::init(lake.inventory(), &EnldConfig::fast_test());
        let req = lake.next_request().expect("queued");
        let report = enld.detect(&req.data);
        let flagged = report.noisy.len() as f64 / req.data.len() as f64;
        assert!(flagged < 0.25, "flagged {flagged} of a clean dataset");
    }

    #[test]
    fn missing_labels_get_pseudo_labels() {
        let mut lake = small_lake(0.2, 5);
        let mut enld = Enld::init(lake.inventory(), &EnldConfig::fast_test());
        let req = lake.next_request().expect("queued");
        let masked = apply_missing_labels(&req.data, 0.3, 9);
        let report = enld.detect(&masked);
        let missing = masked.missing_indices();
        assert_eq!(report.pseudo_labels.len(), missing.len());
        // Pseudo-labelled samples never appear in the clean/noisy split.
        for &(i, l) in &report.pseudo_labels {
            assert!(missing.contains(&i));
            assert!((l as usize) < masked.classes());
            assert!(!report.clean.contains(&i));
            assert!(!report.noisy.contains(&i));
        }
    }

    #[test]
    fn ambiguous_count_tends_downward() {
        let mut lake = small_lake(0.2, 6);
        let mut enld = Enld::init(lake.inventory(), &EnldConfig::fast_test());
        let req = lake.next_request().expect("queued");
        let report = enld.detect(&req.data);
        let traj = report.ambiguous_trajectory();
        assert!(
            traj.last().expect("non-empty") <= traj.first().expect("non-empty"),
            "ambiguous count should not grow: {traj:?}"
        );
    }

    #[test]
    fn detection_accumulates_inventory_clean_votes() {
        let mut lake = small_lake(0.2, 7);
        let mut enld = Enld::init(lake.inventory(), &EnldConfig::fast_test());
        let mut total = 0;
        for _ in 0..2 {
            let req = lake.next_request().expect("queued");
            let report = enld.detect(&req.data);
            total += report.inventory_clean.len();
        }
        assert!(total > 0, "some inventory samples should be voted clean");
        assert!(enld.accumulated_clean().len() <= total);
        assert!(!enld.accumulated_clean().is_empty());
    }

    #[test]
    fn model_update_swaps_splits_and_resets_votes() {
        let mut lake = small_lake(0.2, 8);
        let mut enld = Enld::init(lake.inventory(), &EnldConfig::fast_test());
        let req = lake.next_request().expect("queued");
        let _ = enld.detect(&req.data);
        let old_it_len = enld.training_set().len();
        let old_ic_len = enld.candidate_set().len();
        let used = enld.update_model();
        assert!(used > 0, "update must consume accumulated clean samples");
        assert_eq!(enld.training_set().len(), old_ic_len);
        assert_eq!(enld.candidate_set().len(), old_it_len);
        assert!(enld.accumulated_clean().is_empty(), "votes reset after update");
    }

    #[test]
    fn update_without_votes_is_noop() {
        let lake = small_lake(0.2, 9);
        let mut enld = Enld::init(lake.inventory(), &EnldConfig::fast_test());
        assert_eq!(enld.update_model(), 0);
    }

    #[test]
    fn detect_is_deterministic_given_seed() {
        let run = || {
            let mut lake = small_lake(0.2, 10);
            let mut enld = Enld::init(lake.inventory(), &EnldConfig::fast_test());
            let req = lake.next_request().expect("queued");
            enld.detect(&req.data).noisy
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn single_class_incremental_dataset_is_handled() {
        let mut lake = small_lake(0.2, 11);
        let mut enld = Enld::init(lake.inventory(), &EnldConfig::fast_test());
        let req = lake.next_request().expect("queued");
        // Restrict to one observed class.
        let target = req.data.labels()[0];
        let idx: Vec<usize> =
            (0..req.data.len()).filter(|&i| req.data.labels()[i] == target).collect();
        let single = req.data.subset(&idx);
        let report = enld.detect(&single);
        assert_eq!(report.clean.len() + report.noisy.len(), single.len());
    }

    #[test]
    fn high_quality_filter_uses_class_mean() {
        // Two agreeing samples of class 0: one confident, one barely.
        let probs = Matrix::from_vec(3, 2, vec![0.9, 0.1, 0.6, 0.4, 0.2, 0.8]);
        let preds = vec![0u32, 0, 1];
        let labels = vec![0u32, 0, 0]; // third disagrees
        let hq = high_quality_filtered(&probs, &preds, &labels, &[0, 1, 2]);
        // Mean class-0 confidence = 0.75 → only the 0.9 sample survives.
        assert_eq!(hq, vec![0]);
    }

    #[test]
    fn oversized_k_is_handled() {
        // k far beyond the candidate pool must still produce a valid
        // partition (KD-tree queries return what exists).
        let mut lake = small_lake(0.2, 12);
        let mut cfg = EnldConfig::fast_test();
        cfg.k = 500;
        let mut enld = Enld::init(lake.inventory(), &cfg);
        let req = lake.next_request().expect("queued");
        let report = enld.detect(&req.data);
        assert_eq!(report.clean.len() + report.noisy.len(), req.data.len());
    }

    #[test]
    fn all_labels_missing_yields_only_pseudo_labels() {
        let mut lake = small_lake(0.2, 13);
        let mut enld = Enld::init(lake.inventory(), &EnldConfig::fast_test());
        let req = lake.next_request().expect("queued");
        let masked = enld_datagen::noise::apply_missing_labels(&req.data, 1.0, 3);
        let report = enld.detect(&masked);
        assert!(report.clean.is_empty());
        assert!(report.noisy.is_empty());
        assert_eq!(report.pseudo_labels.len(), masked.len());
    }

    #[test]
    fn p_staleness_tracks_noise_drift() {
        let mut lake = small_lake(0.2, 31);
        let mut enld = Enld::init(lake.inventory(), &EnldConfig::fast_test());
        let req = lake.next_request().expect("queued");
        let stationary = enld.detect(&req.data);
        assert!(
            (0.0..=1.0).contains(&stationary.p_staleness),
            "staleness {} outside [0, 1]",
            stationary.p_staleness
        );
        // Re-corrupt the next arrival at a far higher symmetric rate: the
        // arrival-side conditional moves away from the inventory-fitted P̃.
        let req = lake.next_request().expect("queued");
        let heavy = enld_datagen::noise::TransitionMatrix::symmetric(req.data.classes(), 0.7)
            .corrupt(&req.data, 99);
        let drifted = enld.detect(&heavy);
        assert!(
            drifted.p_staleness > stationary.p_staleness,
            "drifted arrival must look staler ({} vs {})",
            drifted.p_staleness,
            stationary.p_staleness
        );
    }

    #[test]
    fn p_staleness_is_zero_when_nothing_is_eligible() {
        let mut lake = small_lake(0.2, 32);
        let mut enld = Enld::init(lake.inventory(), &EnldConfig::fast_test());
        let req = lake.next_request().expect("queued");
        let masked = apply_missing_labels(&req.data, 1.0, 3);
        let report = enld.detect(&masked);
        assert_eq!(report.p_staleness, 0.0);
    }

    #[test]
    fn vote_argmax() {
        assert_eq!(argmax_u32(&[0, 3, 2]), 1);
        assert_eq!(argmax_u32(&[5]), 0);
    }

    #[test]
    fn ledger_records_replay_to_the_same_verdicts() {
        use crate::ledger::{replay_verdict, LedgerRecord, MemoryLedger, Verdict};

        let mut lake = small_lake(0.2, 20);
        let cfg = EnldConfig::fast_test();
        let mut enld = Enld::init(lake.inventory(), &cfg);
        let sink = Arc::new(MemoryLedger::new());
        enld.set_ledger(sink.clone(), "test");
        assert!(enld.has_ledger());
        let req = lake.next_request().expect("queued");
        let report = enld.detect(&req.data);

        let records = sink.records();
        let tasks: Vec<_> = records
            .iter()
            .filter_map(|r| match r {
                LedgerRecord::Task(t) => Some(t.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(tasks.len(), 1);
        let task = &tasks[0];
        assert_eq!(task.detector, "test");
        assert_eq!(task.samples, req.data.len());
        assert_eq!(task.clean, report.clean.len());
        assert_eq!(task.noisy, report.noisy.len());
        assert_eq!(task.clean + task.noisy, task.eligible);
        assert!((0.0..=1.0).contains(&task.ambiguous_rate));

        let samples: Vec<_> = records
            .iter()
            .filter_map(|r| match r {
                LedgerRecord::Sample(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(samples.len(), task.eligible, "one record per eligible sample");
        let mut saw_draws = false;
        for rec in &samples {
            assert_eq!(rec.votes.len(), cfg.iterations);
            assert!(rec.votes.iter().all(|it| it.len() == cfg.steps));
            // The logged vote trajectory must reproduce the verdict.
            assert_eq!(replay_verdict(&rec.votes, rec.threshold), rec.verdict);
            let in_clean = report.clean.contains(&rec.sample);
            assert_eq!(rec.verdict == Verdict::Clean, in_clean);
            assert_eq!(rec.observed, req.data.labels()[rec.sample]);
            if rec.ambiguous_initial {
                saw_draws |= !rec.draws.is_empty();
            } else {
                // Non-ambiguous samples never receive round -1 draws.
                assert!(rec.draws.iter().all(|d| d.round >= -1));
            }
        }
        assert!(saw_draws, "ambiguous samples should log contrastive draws");
    }

    #[test]
    fn ledger_update_records_divergence() {
        use crate::ledger::{LedgerRecord, MemoryLedger};

        let mut lake = small_lake(0.2, 21);
        let mut enld = Enld::init(lake.inventory(), &EnldConfig::fast_test());
        enld.set_ledger(Arc::new(MemoryLedger::new()), "ignored");
        let req = lake.next_request().expect("queued");
        let _ = enld.detect(&req.data);
        let sink = Arc::new(MemoryLedger::new());
        enld.set_ledger(sink.clone(), "upd");
        let used = enld.update_model();
        assert!(used > 0);
        let records = sink.records();
        let updates: Vec<_> = records
            .iter()
            .filter_map(|r| match r {
                LedgerRecord::Update(u) => Some(u.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(updates.len(), 1);
        assert_eq!(updates[0].detector, "upd");
        assert_eq!(updates[0].update, 1);
        assert_eq!(updates[0].clean_used, used);
        assert!((0.0..=1.0).contains(&updates[0].p_row_divergence));
        assert!(updates[0].p_row_divergence > 0.0, "retraining on a different split should move P̃");
    }

    #[test]
    fn detect_without_ledger_matches_with_ledger() {
        use crate::ledger::MemoryLedger;

        let run = |ledger: bool| {
            let mut lake = small_lake(0.2, 22);
            let mut enld = Enld::init(lake.inventory(), &EnldConfig::fast_test());
            if ledger {
                enld.set_ledger(Arc::new(MemoryLedger::new()), "a");
            }
            let req = lake.next_request().expect("queued");
            enld.detect(&req.data).noisy
        };
        // Tracing must never perturb the RNG stream or the decisions.
        assert_eq!(run(false), run(true));
    }

    /// The fields a resumed run must reproduce bit-for-bit. Wall-clock
    /// (`process_secs`) is deliberately excluded: a resumed run only
    /// counts post-resume time.
    type CanonReport = (Vec<usize>, Vec<usize>, Vec<usize>, Vec<(usize, u32)>);

    fn canon(r: &DetectionReport) -> CanonReport {
        (r.clean.clone(), r.noisy.clone(), r.inventory_clean.clone(), r.pseudo_labels.clone())
    }

    #[test]
    fn capture_and_resume_at_a_task_boundary_matches_uninterrupted() {
        use crate::checkpoint::Checkpoint;

        let mut lake = small_lake(0.2, 31);
        let cfg = EnldConfig::fast_test();
        let inventory = lake.inventory().clone();
        let a0 = lake.next_request().expect("queued").data;
        let a1 = lake.next_request().expect("queued").data;

        let mut primary = Enld::init(&inventory, &cfg);
        let _ = primary.detect(&a0);
        let ckpt = primary.capture_checkpoint();
        assert!(ckpt.in_flight.is_none(), "no task in flight at a boundary");
        // Round-trip through the on-disk codec, not just the struct.
        let ckpt = Checkpoint::from_bytes(&ckpt.to_bytes()).expect("codec round-trip");
        let mut resumed = Enld::resume_from(&inventory, &cfg, &ckpt).expect("resume");
        assert_eq!(resumed.tasks_completed(), 1);
        assert!(!resumed.has_pending_task());
        assert_eq!(resumed.accumulated_clean(), primary.accumulated_clean());

        let expect = primary.detect(&a1);
        let got = resumed.detect(&a1);
        assert_eq!(canon(&got), canon(&expect));
        assert_eq!(got.history, expect.history);
        // Post-resume model updates stay in lockstep too.
        assert_eq!(resumed.update_model(), primary.update_model());
    }

    #[test]
    #[ignore = "arms process-global failpoints; run serially via the chaos job"]
    fn mid_task_crash_resumes_bit_identically() {
        use crate::checkpoint::Checkpoint;

        let dir = std::env::temp_dir().join(format!("enld-det-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let ckpt_path = dir.join("det.ckpt");

        let mut lake = small_lake(0.2, 30);
        let cfg = EnldConfig::fast_test();
        let inventory = lake.inventory().clone();
        let req = lake.next_request().expect("queued");

        let mut baseline = Enld::init(&inventory, &cfg);
        let expect = baseline.detect(&req.data);

        // Kill the task at the top of its second iteration; the detector
        // checkpoints after warm-up and after every completed iteration.
        let guard = enld_chaos::scenario_with("detector.iteration=panic@nth:2");
        let mut enld = Enld::init(&inventory, &cfg);
        enld.enable_checkpoints(&ckpt_path);
        let data = req.data.clone();
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _ = enld.detect(&data);
        }));
        assert!(crashed.is_err(), "failpoint must abort the task");
        drop(guard);

        let ckpt = Checkpoint::load(&ckpt_path).expect("checkpoint persisted before the crash");
        assert!(ckpt.in_flight.is_some(), "the crash left a task in flight");
        let mut resumed = Enld::resume_from(&inventory, &cfg, &ckpt).expect("resume");
        assert!(resumed.has_pending_task());
        assert_eq!(resumed.tasks_completed(), 0);
        let got = resumed.detect(&req.data);
        assert_eq!(canon(&got), canon(&expect));
        assert_eq!(got.history, expect.history);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_config_and_inventory_mismatch() {
        use crate::checkpoint::CheckpointError;

        let lake = small_lake(0.2, 32);
        let cfg = EnldConfig::fast_test();
        let enld = Enld::init(lake.inventory(), &cfg);
        let ckpt = enld.capture_checkpoint();

        let other_cfg = cfg.with_seed(cfg.seed.wrapping_add(1));
        assert!(matches!(
            Enld::resume_from(lake.inventory(), &other_cfg, &ckpt),
            Err(CheckpointError::Mismatch(_))
        ));
        let other_lake = small_lake(0.2, 33);
        assert!(matches!(
            Enld::resume_from(other_lake.inventory(), &cfg, &ckpt),
            Err(CheckpointError::Mismatch(_))
        ));
    }

    #[test]
    fn hnsw_backend_partitions_and_beats_chance() {
        let mut lake = small_lake(0.2, 3);
        let mut cfg = EnldConfig::fast_test();
        cfg.index = IndexBackend::hnsw();
        let mut enld = Enld::init(lake.inventory(), &cfg);
        assert_eq!(enld.ann_index_len(), Some(enld.high_quality().len()));
        let req = lake.next_request().expect("queued");
        let report = enld.detect(&req.data);
        let mut seen = vec![false; req.data.len()];
        for &i in report.clean.iter().chain(&report.noisy) {
            assert!(!seen[i], "sample {i} in both sets");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
        let m = detection_metrics(&report.noisy, &req.data.noisy_indices(), req.data.len());
        assert!(m.f1 > 0.5, "hnsw f1 {} (p {}, r {})", m.f1, m.precision, m.recall);
    }

    #[test]
    fn hnsw_checkpoint_embeds_the_index_and_resume_skips_rebuild() {
        use crate::checkpoint::Checkpoint;

        let mut lake = small_lake(0.2, 31);
        let mut cfg = EnldConfig::fast_test();
        cfg.index = IndexBackend::hnsw();
        let inventory = lake.inventory().clone();
        let a0 = lake.next_request().expect("queued").data;
        let a1 = lake.next_request().expect("queued").data;

        let mut primary = Enld::init(&inventory, &cfg);
        let _ = primary.detect(&a0);
        let ckpt = primary.capture_checkpoint();
        assert!(ckpt.ann.is_some(), "hnsw runs must checkpoint the index blob");
        let ckpt = Checkpoint::from_bytes(&ckpt.to_bytes()).expect("codec round-trip");
        let mut resumed = Enld::resume_from(&inventory, &cfg, &ckpt).expect("resume");
        assert_eq!(resumed.ann_index_len(), primary.ann_index_len());
        // The restored graph answers exactly like the original's.
        let expect = primary.detect(&a1);
        let got = resumed.detect(&a1);
        assert_eq!(canon(&got), canon(&expect));
        assert_eq!(got.history, expect.history);
    }

    #[test]
    fn exact_checkpoints_carry_no_index_blob() {
        let lake = small_lake(0.2, 35);
        let enld = Enld::init(lake.inventory(), &EnldConfig::fast_test());
        let ckpt = enld.capture_checkpoint();
        assert!(ckpt.ann.is_none());
        assert!(enld.ann_index_len().is_none());
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

    #[test]
    fn clones_do_not_inherit_recovery_wiring() {
        let dir = std::env::temp_dir().join(format!("enld-det-clone-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let lake = small_lake(0.2, 34);
        let mut enld = Enld::init(lake.inventory(), &EnldConfig::fast_test());
        enld.enable_checkpoints(dir.join("a.ckpt"));
        let cloned = enld.clone();
        assert!(cloned.checkpoint_file().is_none(), "clones must not race the tmp+rename");
        assert!(!cloned.has_pending_task());
        assert!(enld.checkpoint_file().is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
