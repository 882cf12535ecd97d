//! Crash-recovery glue: what a checkpoint captures, the one call that
//! persists it, and how a detector is rebuilt from one.

use std::borrow::Cow;
use std::io;
use std::path::{Path, PathBuf};

use enld_datagen::split::split_half;
use enld_datagen::Dataset;
use enld_nn::model::Mlp;
use enld_telemetry as telemetry;

use super::{Enld, Recovery};
use crate::checkpoint::{self, Checkpoint, CheckpointError, CondState, InFlightTask};
use crate::config::EnldConfig;
use crate::probability::ConditionalLabelProbability;

impl Enld {
    /// Enables crash-recovery checkpoints: detector state is persisted
    /// atomically (tmp + rename) to `path` after warm-up, at every
    /// iteration boundary of [`Enld::detect`], at task end, and after
    /// [`Enld::update_model`]. Inside a task only the in-flight part
    /// (`<path>.task`) is rewritten; the base `path` changes at task and
    /// update boundaries, and once more at the first in-flight persist of
    /// a detector that has not written one yet (see [`crate::checkpoint`]).
    ///
    /// A failed checkpoint write panics rather than silently dropping
    /// durability; the previous checkpoint files are left intact, so a
    /// supervisor can restart and [`Enld::resume_from`] them. Clones (e.g.
    /// serve-pool workers) do not inherit the checkpoint path — two
    /// writers would race the tmp + rename.
    pub fn enable_checkpoints(&mut self, path: impl Into<PathBuf>) {
        self.recovery.checkpoint_path = Some(path.into());
        self.recovery.forget_base();
    }

    /// Where checkpoints are written, when enabled.
    pub fn checkpoint_file(&self) -> Option<&Path> {
        self.recovery.checkpoint_path.as_deref()
    }

    /// Detection tasks fully completed (excludes a pending in-flight one).
    pub fn tasks_completed(&self) -> usize {
        self.tasks - usize::from(self.recovery.pending.is_some())
    }

    /// Captures the current state (including any pending in-flight task)
    /// as a [`Checkpoint`].
    pub fn capture_checkpoint(&self) -> Checkpoint<'_> {
        self.snapshot(self.recovery.pending.as_ref())
    }

    fn snapshot<'a>(&'a self, in_flight: Option<&'a InFlightTask>) -> Checkpoint<'a> {
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
            in_flight: in_flight.map(Cow::Borrowed),
        }
    }

    /// The one persist call: when checkpointing is enabled, the write
    /// [`Checkpoint::save_atomic`] makes, minus a base this instance has
    /// already written. Inside a task, `live` is the task plus the `θ'`
    /// being fine-tuned, encoded from the live model; only they change
    /// there, so the base stands. At task and update boundaries `live` is
    /// `None` and the base is rewritten.
    pub(super) fn persist(&self, live: Option<(&InFlightTask, &Mlp)>) {
        let Some(path) = &self.recovery.checkpoint_path else { return };
        let _span = telemetry::debug_span("enld.checkpoint.persist").entered();
        let base_written = &self.recovery.base_written;
        let last_base = *base_written.lock().expect("checkpoint state poisoned");
        let written = (|| -> io::Result<u64> {
            let base = match (last_base, live) {
                (Some(base), Some(_)) => base,
                _ => self.snapshot(live.map(|(task, _)| task)).save_base(path)?,
            };
            if let Some((task, theta)) = live {
                checkpoint::save_part(path, base, self.tasks, task, theta.layers())?;
            }
            Ok(base)
        })();
        match written {
            Ok(base) => *base_written.lock().expect("checkpoint state poisoned") = Some(base),
            Err(e) => panic!("enld checkpoint write to {} failed: {e}", path.display()),
        }
    }

    /// Rebuilds a detector from a [`Checkpoint`] without retraining.
    ///
    /// `inventory` and `config` must be the ones originally passed to
    /// [`Enld::init`] (both are validated by fingerprint). The
    /// deterministic `I_t`/`I_c` split is recomputed; everything else —
    /// general model with SGD momentum, `P̃`, `H`, `S_c`, the task/update
    /// counters that drive every derived seed, and any in-flight task —
    /// is restored from the checkpoint. When the checkpoint holds an
    /// in-flight task, the next [`Enld::detect`] call must receive the
    /// same incremental dataset and continues that task from the first
    /// incomplete iteration, bit-identical to an uninterrupted run.
    ///
    /// The ledger and checkpoint path are *not* restored — re-attach with
    /// [`Enld::set_ledger`] (appending to the old file) and
    /// [`Enld::enable_checkpoints`].
    ///
    /// # Errors
    /// [`CheckpointError::Mismatch`] when the config or inventory differs
    /// from the checkpointed one, or when the general model or the
    /// in-flight `θ'` does not fit the configured backbone.
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
        // θ' is only parked here, but `detect` cannot refuse it later:
        // fit it now, then put the general model in its place.
        let misfit = |what: &str, e: String| {
            CheckpointError::Mismatch(format!("{what} does not fit the configured backbone: {e}"))
        };
        if let Some(task) = &ckpt.in_flight {
            model.restore(&task.theta).map_err(|e| misfit("in-flight model", e))?;
        }
        model.restore(&ckpt.model).map_err(|e| misfit("general model", e))?;
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
            recovery: Recovery {
                pending: ckpt.in_flight.as_deref().cloned(),
                ..Recovery::default()
            },
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

    use crate::checkpoint::{part_path, Checkpoint, CheckpointError, InFlightTask};
    use crate::config::EnldConfig;
    use crate::detector::{settling, small_lake, test_sim_lake, DetectSpans, Enld};
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
        assert!(ckpt.in_flight.is_none(), "no task in flight at a boundary");
        // Round-trip through the on-disk codec, not just the struct.
        let ckpt = Checkpoint::from_bytes(&ckpt.to_bytes()).expect("codec round-trip");
        let mut resumed = Enld::resume_from(&inventory, &cfg, &ckpt).expect("resume");
        assert_eq!(resumed.tasks_completed(), 1);
        assert!(resumed.capture_checkpoint().in_flight.is_none());
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
        assert!(resumed.capture_checkpoint().in_flight.is_some());
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
    /// is refused with a typed error — for the general model and for a
    /// parked `θ'` alike — instead of panicking now or inside `detect`.
    #[test]
    fn resume_rejects_models_that_do_not_fit_the_backbone() {
        let lake = small_lake(0.2, 36);
        let cfg = EnldConfig::fast_test();
        let enld = Enld::init(lake.inventory(), &cfg);
        let mut good = enld.capture_checkpoint();
        let walk = good.model.to_vec();
        good.in_flight =
            Some(Cow::Owned(InFlightTask { theta: walk.clone(), ..InFlightTask::default() }));
        // Through the codec, as a restarted process would see it.
        let good = Checkpoint::from_bytes(&good.to_bytes()).expect("codec round-trip");
        assert!(Enld::resume_from(lake.inventory(), &cfg, &good).is_ok());

        let dropped = walk[..walk.len() - 1].to_vec();
        let mut swapped = walk.clone();
        swapped.swap(0, 1);
        let mut transposed_head = walk.clone();
        let last = walk.len() - 1;
        transposed_head[last] = transposed(&walk[last]);
        for (what, bad) in
            [("dropped", dropped), ("swapped", swapped), ("transposed", transposed_head)]
        {
            let mut in_model = good.clone();
            in_model.model = Cow::Owned(bad.clone());
            let mut in_theta = good.clone();
            in_theta.in_flight.as_mut().expect("parked task").to_mut().theta = bad;
            for (place, ckpt) in [("model", in_model), ("in_flight.theta", in_theta)] {
                // Encodes, decodes, and is refused — never a panic.
                let ckpt = Checkpoint::from_bytes(&ckpt.to_bytes()).expect("codec round-trip");
                let Err(err) = Enld::resume_from(lake.inventory(), &cfg, &ckpt) else {
                    panic!("{what} in {place}: an ill-fitting model must be refused");
                };
                assert!(matches!(err, CheckpointError::Mismatch(_)), "{what} in {place}: {err}");
            }
        }
    }

    /// Dies on a task's first ledger record: after its last
    /// iteration-boundary persist, before its task-boundary one.
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

    /// A detector that has written no base yet (fresh, cloned, or
    /// resumed) writes one at its first persist inside a task: the
    /// checkpoint its last task boundary would have written, so it counts
    /// completed tasks only. The part beside it carries the task.
    #[test]
    fn a_fresh_detectors_first_mid_task_base_counts_completed_tasks_only() {
        let dir = scratch_dir("first-base");
        let path = dir.join("first.ckpt");
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
        enld.set_ledger(Arc::new(DiesOnRecord), "dies");
        let crashed = catch_unwind(AssertUnwindSafe(|| {
            let _ = enld.detect(&a1);
        }));
        assert!(crashed.is_err(), "the ledger sink must kill the task");

        let base = std::fs::read(&path).expect("a base was written");
        assert_eq!(base, boundary, "the base is the task-boundary checkpoint");
        let ckpt = Checkpoint::load(&path).expect("base + part");
        assert_eq!(ckpt.tasks, 2, "the part carries task 2");
        let task = ckpt.in_flight.as_deref().expect("task 2 was in flight");
        assert_eq!(task.next_iteration, cfg.iterations, "it died after its last iteration");

        // Resumed, the task finishes; its part goes with the new base.
        let mut resumed = Enld::resume_from(&inventory, &cfg, &ckpt).expect("resume");
        resumed.enable_checkpoints(&path);
        assert_eq!(canon(&resumed.detect(&a1)), canon(&expect));
        assert!(!part_path(&path).exists(), "the finished task's part is gone");
        let ckpt = Checkpoint::load(&path).expect("base");
        assert_eq!((ckpt.tasks, ckpt.in_flight.is_none()), (2, true));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A task that dies after the boundary checkpoint of the iteration
    /// its votes settled in is resumed below the cap, yet straight into
    /// its conclusion: the exit reads the checkpointed history, so no
    /// further iteration runs and the report is the uninterrupted one.
    #[test]
    fn a_task_resumed_after_its_votes_settled_runs_no_further_iteration() {
        let dir = scratch_dir("settled");
        let path = dir.join("settled.ckpt");
        let mut lake = test_sim_lake(0.2, 24);
        let cfg = settling();
        let inventory = lake.inventory().clone();
        let a0 = lake.next_request().expect("queued").data;

        let mut enld = Enld::init(&inventory, &cfg);
        let expect = enld.clone().detect(&a0);
        let ran = expect.history.len();
        assert!(ran < cfg.iterations, "the task stops early");
        enld.enable_checkpoints(&path);
        enld.set_ledger(Arc::new(DiesOnRecord), "dies");
        let crashed = catch_unwind(AssertUnwindSafe(|| {
            let _ = enld.detect(&a0);
        }));
        assert!(crashed.is_err(), "the ledger sink must kill the task");

        let ckpt = Checkpoint::load(&path).expect("base + part");
        let task = ckpt.in_flight.as_deref().expect("the task was in flight");
        assert_eq!(task.next_iteration, ran, "it died after its deciding iteration");
        let mut resumed = Enld::resume_from(&inventory, &cfg, &ckpt).expect("resume");
        let spans = DetectSpans::installed();
        let root = enld_telemetry::span("test.settled_resume").entered();
        let got = resumed.detect(&a0);
        let root = root.id().expect("a sink is installed");
        assert_eq!(spans.iterations_in(root), 0, "no iteration runs after the resume");
        assert_eq!(canon(&got), canon(&expect));
        assert_eq!(got.history, expect.history);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The base records the configuration's fingerprint, so after
    /// `reconfigure` the next task's first persist writes a new one.
    #[test]
    fn a_reconfigured_detector_rewrites_its_base_in_the_next_task() {
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
        enld.set_ledger(Arc::new(DiesOnRecord), "dies");
        let a1 = lake.next_request().expect("queued").data;
        let crashed = catch_unwind(AssertUnwindSafe(|| {
            let _ = enld.detect(&a1);
        }));
        assert!(crashed.is_err(), "the ledger sink must kill the task");
        let ckpt = Checkpoint::load(&path).expect("base + part");
        assert!(ckpt.in_flight.is_some(), "task 2 was in flight");
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
        assert!(!part_path(&path).exists(), "the task's part is removed at its end");
        let ckpt = Checkpoint::load(&path).expect("base");
        assert_eq!(ckpt.tasks, 1);
        assert!(ckpt.in_flight.is_none(), "no task in flight after a finished one");
        let _ = std::fs::remove_dir_all(&dir);
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
        assert!(cloned.capture_checkpoint().in_flight.is_none());
        assert!(enld.checkpoint_file().is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
