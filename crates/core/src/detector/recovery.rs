//! Crash-recovery glue: what a checkpoint captures, the one call that
//! persists it, and how a detector is rebuilt from one.

use std::borrow::Cow;
use std::path::{Path, PathBuf};

use enld_datagen::split::split_half;
use enld_datagen::Dataset;
use enld_nn::model::Mlp;
use enld_telemetry as telemetry;

use super::{Enld, Recovery};
use crate::checkpoint::{self, Checkpoint, CheckpointError, CondState};
use crate::config::EnldConfig;
use crate::probability::ConditionalLabelProbability;

impl Enld {
    /// Enables crash-recovery checkpoints: detector state is persisted
    /// atomically (tmp + sync + rename) to `path` now, at the end of every
    /// [`Enld::detect`] task, after every [`Enld::update_model`] and on
    /// [`Enld::reconfigure`] — only where no task is running. A crash
    /// costs at most the arrival in flight: resumed, it is re-run from its
    /// start.
    ///
    /// A failed checkpoint write panics rather than silently dropping
    /// durability; the previous checkpoint file is left intact, so a
    /// supervisor can restart and [`Enld::resume_from`] it. Clones (e.g.
    /// serve-pool workers) do not inherit the checkpoint path — two
    /// writers would race the tmp + rename.
    pub fn enable_checkpoints(&mut self, path: impl Into<PathBuf>) {
        self.recovery.checkpoint_path = Some(path.into());
        self.persist();
    }

    /// Where checkpoints are written, when enabled.
    pub fn checkpoint_file(&self) -> Option<&Path> {
        self.recovery.checkpoint_path.as_deref()
    }

    /// Detection tasks completed.
    pub fn tasks_completed(&self) -> usize {
        self.tasks
    }

    /// Captures the current state as a [`Checkpoint`].
    pub fn capture_checkpoint(&self) -> Checkpoint<'_> {
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
            model: Cow::Borrowed(self.model.layers()),
        }
    }

    /// The one persist call: when checkpointing is enabled, writes
    /// [`Enld::capture_checkpoint`] with [`Checkpoint::save_atomic`]. Only
    /// called where no task is running.
    pub(super) fn persist(&self) {
        let Some(path) = &self.recovery.checkpoint_path else { return };
        let _span = telemetry::debug_span("enld.checkpoint.persist").entered();
        if let Err(e) = self.capture_checkpoint().save_atomic(path) {
            panic!("enld checkpoint write to {} failed: {e}", path.display());
        }
    }

    /// Rebuilds a detector from a [`Checkpoint`] without retraining.
    ///
    /// `inventory` and `config` must be the ones originally passed to
    /// [`Enld::init`] (both are validated by fingerprint). The
    /// deterministic `I_t`/`I_c` split is recomputed; everything else —
    /// general model with SGD momentum, `P̃`, `H`, `S_c` and the
    /// task/update counters that drive every derived seed — is restored
    /// from the checkpoint. A task that was in flight at the crash is not
    /// in it: the next [`Enld::detect`] re-runs that arrival from its
    /// start, bit-identical to an uninterrupted run.
    ///
    /// The ledger and checkpoint path are *not* restored — re-attach with
    /// [`Enld::set_ledger`] (appending to the old file) and
    /// [`Enld::enable_checkpoints`].
    ///
    /// # Errors
    /// [`CheckpointError::Mismatch`] when the config or inventory differs
    /// from the checkpointed one, or when the general model does not fit
    /// the configured backbone.
    pub fn resume_from(
        inventory: &Dataset,
        config: &EnldConfig,
        ckpt: &Checkpoint<'_>,
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
        model.restore(&ckpt.model).map_err(|e| {
            CheckpointError::Mismatch(format!(
                "general model does not fit the configured backbone: {e}"
            ))
        })?;
        let cond = ConditionalLabelProbability::from_parts(
            ckpt.cond.classes,
            ckpt.cond.joint.clone(),
            ckpt.cond.cond.clone(),
        );
        Ok(Self {
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
            recovery: Recovery::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use std::borrow::Cow;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::path::PathBuf;
    use std::sync::Arc;

    use enld_nn::dense::Dense;

    use crate::checkpoint::{config_fingerprint, Checkpoint, CheckpointError};
    use crate::config::EnldConfig;
    use crate::detector::{small_lake, DetectSpans, Enld};
    use crate::ledger::{LedgerRecord, LedgerSink};
    use crate::report::DetectionReport;

    /// The fields a resumed run must reproduce bit-for-bit. Wall-clock
    /// (`process_secs`) is deliberately excluded: a resumed run only
    /// counts post-resume time.
    type CanonReport = (Vec<usize>, Vec<usize>, Vec<usize>, Vec<(usize, u32)>);

    fn canon(r: &DetectionReport) -> CanonReport {
        (r.clean.clone(), r.noisy.clone(), r.inventory_clean.clone(), r.pseudo_labels.clone())
    }

    #[test]
    fn capture_and_resume_at_a_task_boundary_matches_uninterrupted() {
        let mut lake = small_lake(0.2, 31);
        let cfg = EnldConfig::fast_test();
        let inventory = lake.inventory().clone();
        let a0 = lake.next_request().expect("queued").data;
        let a1 = lake.next_request().expect("queued").data;

        let mut primary = Enld::init(&inventory, &cfg);
        let _ = primary.detect(&a0);
        let ckpt = primary.capture_checkpoint();
        assert_eq!(ckpt.tasks, 1, "one task completed");
        // Round-trip through the on-disk codec, not just the struct.
        let ckpt = Checkpoint::from_bytes(&ckpt.to_bytes()).expect("codec round-trip");
        let mut resumed = Enld::resume_from(&inventory, &cfg, &ckpt).expect("resume");
        assert_eq!(resumed.tasks_completed(), 1);
        assert_eq!(resumed.capture_checkpoint(), ckpt);
        assert_eq!(resumed.accumulated_clean(), primary.accumulated_clean());

        let expect = primary.detect(&a1);
        let got = resumed.detect(&a1);
        assert_eq!(canon(&got), canon(&expect));
        assert_eq!(got.history, expect.history);
        // Post-resume model updates stay in lockstep too.
        assert_eq!(resumed.update_model(), primary.update_model());
    }

    /// A crash mid-task leaves the checkpoint of the last task boundary —
    /// here the one `enable_checkpoints` wrote, with no task done — and
    /// the resumed detector re-runs the arrival from its start.
    #[test]
    #[ignore = "arms process-global failpoints; run serially via the chaos job"]
    fn mid_task_crash_resumes_bit_identically() {
        let dir = scratch_dir("mid-task");
        let ckpt_path = dir.join("det.ckpt");

        let mut lake = small_lake(0.2, 30);
        let cfg = EnldConfig::fast_test();
        let inventory = lake.inventory().clone();
        let req = lake.next_request().expect("queued");

        let mut baseline = Enld::init(&inventory, &cfg);
        let expect = baseline.detect(&req.data);

        // Kill the task at the top of its second iteration.
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
        assert_eq!((ckpt.tasks, ckpt.updates), (0, 0), "no task had completed");
        let mut resumed = Enld::resume_from(&inventory, &cfg, &ckpt).expect("resume");
        assert_eq!(resumed.tasks_completed(), 0);
        let got = resumed.detect(&req.data);
        assert_eq!(canon(&got), canon(&expect));
        assert_eq!(got.history, expect.history);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_config_and_inventory_mismatch() {
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

    /// `d` with its weight shape transposed (same element count).
    fn transposed(d: &Dense) -> Dense {
        let (w, _, vel_w, _) = d.parts();
        let (rows, cols) = (w.cols(), w.rows());
        Dense::from_parts(
            rows,
            cols,
            w.data().to_vec(),
            vec![0.0; cols],
            vel_w.to_vec(),
            vec![0.0; cols],
        )
        .expect("a transposed layer is a layer")
    }

    /// A checksum-valid checkpoint whose tensors do not fit the backbone
    /// is refused with a typed error instead of panicking now or inside
    /// `detect`.
    #[test]
    fn resume_rejects_models_that_do_not_fit_the_backbone() {
        let lake = small_lake(0.2, 36);
        let cfg = EnldConfig::fast_test();
        let enld = Enld::init(lake.inventory(), &cfg);
        // Through the codec, as a restarted process would see it.
        let good = Checkpoint::from_bytes(&enld.capture_checkpoint().to_bytes())
            .expect("codec round-trip");
        assert!(Enld::resume_from(lake.inventory(), &cfg, &good).is_ok());

        let walk = good.model.to_vec();
        let dropped = walk[..walk.len() - 1].to_vec();
        let mut swapped = walk.clone();
        swapped.swap(0, 1);
        let mut transposed_head = walk.clone();
        let last = walk.len() - 1;
        transposed_head[last] = transposed(&walk[last]);
        for (what, bad) in
            [("dropped", dropped), ("swapped", swapped), ("transposed", transposed_head)]
        {
            let ckpt = Checkpoint { model: Cow::Owned(bad), ..good.clone() };
            // Encodes, decodes, and is refused — never a panic.
            let ckpt = Checkpoint::from_bytes(&ckpt.to_bytes()).expect("codec round-trip");
            let Err(err) = Enld::resume_from(lake.inventory(), &cfg, &ckpt) else {
                panic!("{what}: an ill-fitting model must be refused");
            };
            assert!(matches!(err, CheckpointError::Mismatch(_)), "{what}: {err}");
        }
    }

    /// Dies on a task's first ledger record: after its last iteration,
    /// before its task-boundary persist.
    struct DiesOnRecord;

    impl LedgerSink for DiesOnRecord {
        fn record(&self, _: &LedgerRecord) {
            panic!("the ledger sink died");
        }
    }

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("enld-det-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir
    }

    /// `enable_checkpoints` writes the task-boundary checkpoint at once,
    /// and a task that dies later leaves it as it was: resumed from it,
    /// the arrival is re-run from its start.
    #[test]
    fn enabling_checkpoints_writes_the_boundary_base() {
        let dir = scratch_dir("enable");
        let path = dir.join("enable.ckpt");
        let mut lake = small_lake(0.2, 37);
        let cfg = EnldConfig::fast_test();
        let inventory = lake.inventory().clone();
        let a0 = lake.next_request().expect("queued").data;
        let a1 = lake.next_request().expect("queued").data;

        let mut enld = Enld::init(&inventory, &cfg);
        let _ = enld.detect(&a0);
        let boundary = enld.capture_checkpoint().to_bytes();
        let expect = enld.clone().detect(&a1);
        enld.enable_checkpoints(&path);
        assert_eq!(std::fs::read(&path).expect("written at once"), boundary);
        enld.set_ledger(Arc::new(DiesOnRecord), "dies");
        let crashed = catch_unwind(AssertUnwindSafe(|| {
            let _ = enld.detect(&a1);
        }));
        assert!(crashed.is_err(), "the ledger sink must kill the task");
        assert_eq!(std::fs::read(&path).expect("kept"), boundary, "a task writes only at its end");

        let ckpt = Checkpoint::load(&path).expect("the boundary base");
        let mut resumed = Enld::resume_from(&inventory, &cfg, &ckpt).expect("resume");
        resumed.enable_checkpoints(&path);
        assert_eq!(canon(&resumed.detect(&a1)), canon(&expect));
        assert_eq!(Checkpoint::load(&path).expect("rewritten").tasks, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The checkpoint records the configuration's fingerprint, so
    /// `reconfigure` rewrites it at once.
    #[test]
    fn a_reconfigured_detector_rewrites_its_base_at_once() {
        let dir = scratch_dir("reconfigured");
        let path = dir.join("reconfigured.ckpt");
        let mut lake = small_lake(0.2, 39);
        let cfg = EnldConfig::fast_test();
        let inventory = lake.inventory().clone();
        let mut enld = Enld::init(&inventory, &cfg);
        enld.enable_checkpoints(&path);
        let _ = enld.detect(&lake.next_request().expect("queued").data);
        let other = EnldConfig { k: cfg.k + 1, ..cfg };
        enld.reconfigure(&other);
        let ckpt = Checkpoint::load(&path).expect("rewritten");
        assert_eq!(ckpt.config_fp, config_fingerprint(&other));
        assert_eq!(ckpt.tasks, 1);
        Enld::resume_from(&inventory, &other, &ckpt).expect("the base has the new configuration");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_finished_task_leaves_its_base_and_no_part() {
        let dir = scratch_dir("finished");
        let path = dir.join("finished.ckpt");
        let mut lake = small_lake(0.2, 38);
        let mut enld = Enld::init(lake.inventory(), &EnldConfig::fast_test());
        enld.enable_checkpoints(&path);
        let _ = enld.detect(&lake.next_request().expect("queued").data);
        let files: Vec<_> = (std::fs::read_dir(&dir).expect("list").map(|e| e.expect("entry")))
            .map(|e| e.file_name())
            .collect();
        assert_eq!(files, ["finished.ckpt"], "one file, no sibling");
        assert_eq!(Checkpoint::load(&path).expect("base").tasks, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// With checkpoints on, a task writes one checkpoint, at its end,
    /// whatever the number of iterations it runs: one persist span per
    /// arrival, directly under its `enld.detect`.
    #[test]
    fn each_detect_persists_once_under_its_span() {
        let dir = scratch_dir("persists");
        let mut lake = small_lake(0.2, 40);
        let mut enld = Enld::init(lake.inventory(), &EnldConfig::fast_test());
        enld.enable_checkpoints(dir.join("persists.ckpt"));
        let spans = DetectSpans::installed();
        let root = enld_telemetry::span("test.persists").entered();
        for _ in 0..2 {
            let _ = enld.detect(&lake.next_request().expect("queued").data);
        }
        let root = root.id().expect("a sink is installed");
        let (persists, detects) = spans.persist_parents(root);
        assert_eq!(detects.len(), 2, "one enld.detect span per arrival");
        assert_eq!(persists, detects.into_iter().map(Some).collect::<Vec<_>>());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clones_do_not_inherit_recovery_wiring() {
        let dir = scratch_dir("clone");
        let lake = small_lake(0.2, 34);
        let mut enld = Enld::init(lake.inventory(), &EnldConfig::fast_test());
        enld.enable_checkpoints(dir.join("a.ckpt"));
        let cloned = enld.clone();
        assert!(cloned.checkpoint_file().is_none(), "clones must not race the tmp+rename");
        assert!(enld.checkpoint_file().is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
