//! Chaos suite: deterministic fault injection against the full pipeline.
//!
//! Every test follows the same shape — run a scenario uninterrupted, then
//! re-run it with an `enld-chaos` failpoint armed so it crashes at a chosen
//! kill-point, recover from the on-disk checkpoint, and assert the recovered
//! run is indistinguishable from the uninterrupted one: detection reports
//! match field-for-field (timings excluded) and the audit ledger replays to
//! the same record set. The serve-pool tests pin the other half of the fault
//! model: a worker that dies outside the job guard is *surfaced* (the lost
//! job is attributable), while a detector panic inside the guard is
//! *contained* as a `Failed` outcome.
//!
//! All tests take the global `enld_chaos::scenario()` lock up front so armed
//! failpoints never leak into another test's baseline run.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use enld_core::checkpoint::Checkpoint;
use enld_core::config::EnldConfig;
use enld_core::detector::Enld;
use enld_core::ledger::{JsonlLedger, LedgerRecord, LedgerSink};
use enld_core::report::{DetectionReport, IterationSnapshot};
use enld_datagen::presets::DatasetPreset;
use enld_lake::lake::{DataLake, LakeConfig};
use enld_serve::pool::{JobOutcome, PoolConfig, WorkerPool};
use enld_serve::JobSpec;

/// Arrivals served per detection scenario.
const TASKS: usize = 2;

fn build_lake() -> DataLake {
    let preset = DatasetPreset::test_sim().scaled(0.5);
    DataLake::build(&LakeConfig { preset, noise_rate: 0.2, seed: 105 })
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("enld-chaos-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

/// Everything in a report except wall-clock timing.
type Canon = (Vec<usize>, Vec<usize>, Vec<(usize, u32)>, Vec<usize>, Vec<IterationSnapshot>);

fn canon(r: &DetectionReport) -> Canon {
    (
        r.clean.clone(),
        r.noisy.clone(),
        r.pseudo_labels.clone(),
        r.inventory_clean.clone(),
        r.history.clone(),
    )
}

/// Last-record-set-wins view of a JSONL ledger, keyed the way consumers
/// (`enld explain`) resolve duplicates. A resumed run may rewrite the
/// crashed task's records; after dedup the bytes must match the
/// uninterrupted run exactly.
fn canonical_ledger(path: &Path) -> BTreeMap<String, String> {
    let text = std::fs::read_to_string(path).expect("read ledger");
    let mut map = BTreeMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let rec = LedgerRecord::from_json(line).expect("well-formed ledger line");
        let key = match &rec {
            LedgerRecord::Task(t) => format!("task/{}/{}", t.detector, t.task),
            LedgerRecord::Sample(s) => format!("sample/{}/{}/{:06}", s.detector, s.task, s.sample),
            LedgerRecord::Update(u) => format!("update/{}/{}", u.detector, u.update),
        };
        map.insert(key, line.to_owned());
    }
    map
}

/// Serves all [`TASKS`] arrivals without interference.
fn uninterrupted(
    cfg: &EnldConfig,
    dir: &Path,
    tag: &str,
) -> (Vec<Canon>, BTreeMap<String, String>) {
    let ledger_path = dir.join(format!("{tag}.jsonl"));
    let mut lake = build_lake();
    let mut enld = Enld::init(lake.inventory(), cfg);
    let sink = Arc::new(JsonlLedger::create(&ledger_path).expect("create ledger"));
    enld.set_ledger(sink.clone(), "main");
    let mut reports = Vec::new();
    for _ in 0..TASKS {
        let req = lake.next_request().expect("queued");
        reports.push(canon(&enld.detect(&req.data)));
    }
    drop(enld);
    sink.flush();
    (reports, canonical_ledger(&ledger_path))
}

/// Arms `spec`, lets it kill task 0, then resumes from the checkpoint and
/// serves every arrival the crashed run did not complete.
///
/// Caller must hold the chaos scenario lock.
fn crashed_then_resumed(
    cfg: &EnldConfig,
    spec: &str,
    dir: &Path,
    tag: &str,
) -> (Vec<Canon>, BTreeMap<String, String>) {
    let ledger_path = dir.join(format!("{tag}.jsonl"));
    let ckpt_path = dir.join(format!("{tag}.ckpt"));

    // First life: crashes inside task 0 at the armed kill-point.
    {
        let mut lake = build_lake();
        let mut enld = Enld::init(lake.inventory(), cfg);
        enld.enable_checkpoints(&ckpt_path);
        let sink = Arc::new(JsonlLedger::create(&ledger_path).expect("create ledger"));
        enld.set_ledger(sink.clone(), "main");
        let req = lake.next_request().expect("queued");
        enld_chaos::arm_from_spec(spec).expect("valid failpoint spec");
        let crashed = catch_unwind(AssertUnwindSafe(move || {
            let _ = enld.detect(&req.data);
        }));
        enld_chaos::disarm_all();
        assert!(crashed.is_err(), "failpoint `{spec}` must crash the first run");
        sink.flush();
    }

    // Second life: reload, resume, and serve everything still pending.
    let mut lake = build_lake();
    let ckpt = Checkpoint::load(&ckpt_path).expect("the crash left a checkpoint behind");
    let mut enld = Enld::resume_from(lake.inventory(), cfg, &ckpt).expect("resume");
    enld.enable_checkpoints(&ckpt_path);
    let sink = Arc::new(JsonlLedger::append(&ledger_path).expect("append ledger"));
    enld.set_ledger(sink.clone(), "main");
    let done = enld.tasks_completed();
    assert!(done < TASKS, "{tag}: the crash was inside task 0, nothing is fully done");
    let mut reports = Vec::new();
    for i in 0..TASKS {
        let req = lake.next_request().expect("queued");
        if i < done {
            continue;
        }
        reports.push(canon(&enld.detect(&req.data)));
    }
    drop(enld);
    sink.flush();
    (reports, canonical_ledger(&ledger_path))
}

/// The headline matrix: one run per kill-point. Resume after an injected
/// crash must produce byte-identical reports *and* an audit ledger whose
/// replayed record set matches the uninterrupted run.
#[test]
fn resume_after_injected_crash_matches_the_uninterrupted_run() {
    let _guard = enld_chaos::scenario();
    let dir = tmp_dir("matrix");
    // One kill-point per recovery boundary: the iteration loop, a training
    // step mid-iteration, finalisation before the task record, and an
    // interrupted ledger write burst.
    const KILL_POINTS: [(&str, &str); 4] = [
        ("iteration", "detector.iteration=panic@nth:2"),
        ("step", "detector.step=panic@nth:5"),
        ("finalise", "detector.ledger=panic@nth:1"),
        ("ledger-burst", "ledger.record=panic@nth:4"),
    ];
    let cfg = EnldConfig::fast_test();
    let (expect, expect_ledger) = uninterrupted(&cfg, &dir, "base");
    assert!(!expect_ledger.is_empty(), "baseline must produce ledger records");
    for (tag, spec) in KILL_POINTS {
        let (got, got_ledger) = crashed_then_resumed(&cfg, spec, &dir, tag);
        assert_eq!(got.len(), TASKS, "{tag}: a mid-task crash re-serves every arrival");
        assert_eq!(got, expect, "{tag}: reports diverge after resume");
        assert_eq!(got_ledger, expect_ledger, "{tag}: ledger records diverge after resume");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Points `ann.insert` passes in task 0's round −1 index build: one
/// insert per sample of `H ∩ I'`.
fn round_minus_one_inserts(cfg: &EnldConfig) -> usize {
    let mut lake = build_lake();
    let enld = Enld::init(lake.inventory(), cfg);
    let d = lake.next_request().expect("queued").data;
    let ic_labels = enld.candidate_set().labels();
    enld.high_quality().iter().filter(|&&i| d.labels().contains(&ic_labels[i])).count()
}

/// The ANN kill-point of the matrix, run with `--index hnsw`: a crash
/// mid-insert, while a selection round's index is under construction,
/// must resume from the surviving checkpoint and reproduce the
/// uninterrupted run's reports and ledger byte-identically.
#[test]
fn hnsw_resume_after_ann_killpoints_matches_the_uninterrupted_run() {
    use enld_knn::IndexBackend;

    let _guard = enld_chaos::scenario();
    let dir = tmp_dir("ann-matrix");
    let mut cfg = EnldConfig::fast_test();
    cfg.index = IndexBackend::hnsw();
    // Every round builds its own index: kill the first insert of
    // iteration 0's build, after warm-up.
    let spec = format!("ann.insert=panic@nth:{}", round_minus_one_inserts(&cfg) + 1);
    let (expect, expect_ledger) = uninterrupted(&cfg, &dir, "ann-base");
    let tag = "ann-insert";
    let (got, got_ledger) = crashed_then_resumed(&cfg, &spec, &dir, tag);
    assert_eq!(got, expect, "{tag}: reports diverge after resume");
    assert_eq!(got_ledger, expect_ledger, "{tag}: ledger records diverge after resume");
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint write that fails at a task boundary aborts loudly (silently
/// running on would orphan the recovery contract), and the previous
/// checkpoint on disk still resumes bit-identically.
#[test]
fn a_failed_checkpoint_write_aborts_and_the_previous_checkpoint_resumes() {
    let _guard = enld_chaos::scenario();
    let dir = tmp_dir("ckpt-write");
    let ckpt_path = dir.join("state.ckpt");
    let cfg = EnldConfig::fast_test();

    let base = {
        let mut lake = build_lake();
        let mut enld = Enld::init(lake.inventory(), &cfg);
        let req = lake.next_request().expect("queued");
        canon(&enld.detect(&req.data))
    };

    // Enabling checkpoints writes the first one (write 1); the end of
    // task 0 writes the next (write 2), which is the one that fails.
    let mut lake = build_lake();
    let mut enld = Enld::init(lake.inventory(), &cfg);
    enld_chaos::arm_from_spec("checkpoint.write=error@nth:2").expect("valid failpoint spec");
    enld.enable_checkpoints(&ckpt_path);
    let req = lake.next_request().expect("queued");
    let crashed = catch_unwind(AssertUnwindSafe(move || {
        let _ = enld.detect(&req.data);
    }));
    enld_chaos::disarm_all();
    assert!(crashed.is_err(), "a failed checkpoint write must abort, not continue silently");

    let ckpt = Checkpoint::load(&ckpt_path).expect("the first checkpoint survives");
    assert_eq!(ckpt.tasks, 0, "only the write before task 0 had succeeded");
    let mut lake = build_lake();
    let mut resumed = Enld::resume_from(lake.inventory(), &cfg, &ckpt).expect("resume");
    let req = lake.next_request().expect("queued");
    assert_eq!(canon(&resumed.detect(&req.data)), base);
    std::fs::remove_dir_all(&dir).ok();
}

/// A crash inside `update_model` (before the swap) resumes from the
/// task-boundary checkpoint; replaying the update yields the same clean
/// set and the next task detects identically.
#[test]
fn a_crash_inside_update_model_resumes_and_replays_the_update() {
    let _guard = enld_chaos::scenario();
    let dir = tmp_dir("update");
    let ckpt_path = dir.join("state.ckpt");
    let cfg = EnldConfig::fast_test();

    let (base_reports, base_update) = {
        let mut lake = build_lake();
        let mut enld = Enld::init(lake.inventory(), &cfg);
        let a0 = lake.next_request().expect("queued").data;
        let a1 = lake.next_request().expect("queued").data;
        let r0 = canon(&enld.detect(&a0));
        let used = enld.update_model();
        let r1 = canon(&enld.detect(&a1));
        (vec![r0, r1], used)
    };
    assert!(base_update > 0, "the fast_test run must accumulate some clean samples");

    let mut lake = build_lake();
    let a0;
    let a1;
    {
        let mut enld = Enld::init(lake.inventory(), &cfg);
        enld.enable_checkpoints(&ckpt_path);
        a0 = lake.next_request().expect("queued").data;
        a1 = lake.next_request().expect("queued").data;
        assert_eq!(canon(&enld.detect(&a0)), base_reports[0]);
        enld_chaos::arm_from_spec("detector.update_model=panic@nth:1").expect("valid spec");
        let crashed = catch_unwind(AssertUnwindSafe(move || {
            let _ = enld.update_model();
        }));
        enld_chaos::disarm_all();
        assert!(crashed.is_err(), "the armed failpoint must kill the update");
    }

    // The crash never reached the model swap, so the surviving checkpoint
    // is the task boundary and the driver replays the update.
    let ckpt = Checkpoint::load(&ckpt_path).expect("task-boundary checkpoint");
    assert_eq!(ckpt.updates, 0, "the crashed update must not have been persisted");
    assert_eq!(ckpt.tasks, 1, "task 0 had completed");
    let mut resumed = Enld::resume_from(lake.inventory(), &cfg, &ckpt).expect("resume");
    resumed.enable_checkpoints(&ckpt_path);
    assert_eq!(resumed.tasks_completed(), 1);
    assert_eq!(resumed.update_model(), base_update, "replayed update uses the same clean set");
    assert_eq!(canon(&resumed.detect(&a1)), base_reports[1]);
    assert_eq!(Checkpoint::load(&ckpt_path).expect("rewritten").updates, 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// A worker that dies *outside* the per-job guard (mid-pickup) loses exactly
/// the job it had dequeued, and `shutdown` attributes the loss: every
/// submitted job is either drained or accounted to a dead worker.
#[test]
fn serve_pool_surfaces_lost_jobs_when_a_worker_dies_mid_pickup() {
    let _guard = enld_chaos::scenario();
    enld_chaos::arm_from_spec("serve.job.pickup=panic@nth:5").expect("valid failpoint spec");
    let config = PoolConfig { workers: 3, queue_limit: 64, ..PoolConfig::default() };
    let pool = WorkerPool::spawn(config, |_worker| move |x: &u64| *x * 2);
    const SUBMITTED: usize = 20;
    for i in 0..SUBMITTED as u64 {
        pool.submit(JobSpec::new(i, i)).expect("admitted");
    }
    let err = pool.shutdown().expect_err("a worker died mid-pickup");
    enld_chaos::disarm_all();
    assert_eq!(err.panics.len(), 1, "exactly one worker hit the nth:5 failpoint");
    assert!(err.panics[0].contains("failpoint: serve.job.pickup"), "{}", err.panics[0]);
    assert_eq!(
        SUBMITTED - err.drained.len(),
        err.panics.len(),
        "every job is drained or attributed to a dead worker"
    );
    let mut ids: Vec<u64> = err.drained.iter().map(JobOutcome::id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), err.drained.len(), "no outcome is double-counted");
}

/// A panic *inside* the per-job guard — where detector code runs — is
/// contained: the job fails, the worker survives, and no outcome vanishes.
#[test]
fn serve_pool_contains_injected_detector_panics_as_failed_outcomes() {
    let _guard = enld_chaos::scenario();
    enld_chaos::arm_from_spec("serve.job.run=panic@every:4").expect("valid failpoint spec");
    let config = PoolConfig { workers: 3, queue_limit: 64, ..PoolConfig::default() };
    let pool = WorkerPool::spawn(config, |_worker| move |x: &u64| *x * 2);
    const SUBMITTED: usize = 12;
    for i in 0..SUBMITTED as u64 {
        pool.submit(JobSpec::new(i, i)).expect("admitted");
    }
    let outcomes = pool.shutdown().expect("in-guard panics never kill a worker");
    enld_chaos::disarm_all();
    assert_eq!(outcomes.len(), SUBMITTED, "no job vanished");
    let mut failed = 0;
    for o in &outcomes {
        match o {
            JobOutcome::Completed(c) => assert_eq!(c.result, c.id * 2),
            JobOutcome::Failed(f) => {
                failed += 1;
                assert!(f.panic_msg.contains("failpoint: serve.job.run"), "{}", f.panic_msg);
            }
        }
    }
    assert_eq!(failed, SUBMITTED / 4, "every 4th execution was injected to fail");
}
