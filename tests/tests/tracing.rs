//! Cross-thread causal tracing end to end: spans created on pool worker
//! threads (both the `enld-par` data-parallel pool and the `enld-serve`
//! job pool) must parent to the span live on the *submitting* thread, so
//! one detection job reads as one connected trace. Also pins the
//! ledger↔trace join: the `TaskRecord` written by the detector carries
//! the ids of the `enld.detect` span that produced it, including after a
//! crash/checkpoint/resume cycle. Finally the telescoping check: the
//! direct children of one `enld.detect` span are its phases, and they
//! account for (almost) all of its wall-clock.
//!
//! Sinks are process-global, so every test takes `REGISTRY_LOCK` and
//! resets the registry on both sides of its capture window.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};

use enld_core::checkpoint::Checkpoint;
use enld_core::config::EnldConfig;
use enld_core::detector::Enld;
use enld_core::ledger::{LedgerRecord, MemoryLedger};
use enld_datagen::presets::DatasetPreset;
use enld_lake::lake::{DataLake, LakeConfig};
use enld_serve::{JobOutcome, JobSpec, PoolConfig, WorkerPool};
use enld_telemetry::{profile, Event, Level, OwnedSpan, Sink, SpanRecord};

/// One captured span: just the linkage fields the assertions need.
#[derive(Debug, Clone)]
struct Captured {
    name: &'static str,
    id: u64,
    parent: Option<u64>,
    trace: u64,
    tid: u64,
}

struct CollectSink {
    spans: Mutex<Vec<Captured>>,
}

impl Sink for CollectSink {
    fn level(&self) -> Level {
        Level::Trace
    }

    fn on_event(&self, _event: &Event) {}

    fn on_span(&self, span: &SpanRecord) {
        self.spans.lock().unwrap().push(Captured {
            name: span.name,
            id: span.id,
            parent: span.parent,
            trace: span.trace,
            tid: span.tid,
        });
    }
}

static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

/// Installs a fresh collector as the only sink; returns the guard that
/// serialises sink-registry access plus the collector.
fn capture() -> (MutexGuard<'static, ()>, Arc<CollectSink>) {
    let guard = REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    enld_telemetry::reset();
    let sink = Arc::new(CollectSink { spans: Mutex::new(Vec::new()) });
    enld_telemetry::install(Arc::clone(&sink) as Arc<dyn Sink>);
    (guard, sink)
}

fn finish(sink: &CollectSink) -> Vec<Captured> {
    enld_telemetry::reset();
    sink.spans.lock().unwrap().clone()
}

#[test]
fn par_map_bodies_parent_to_the_submitting_span() {
    let (_guard, sink) = capture();
    let root_id = enld_par::with_threads(4, || {
        let root = enld_telemetry::span("test.root").entered();
        let id = root.id().expect("sink installed, span live");
        // Tasks must outlive worker wake-up, or the submitting thread can
        // drain the whole queue inline and the off-thread assertion below
        // turns machine-dependent.
        let out = enld_par::par_map(64, 4, |i| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            i * 2
        });
        assert_eq!(out[13], 26);
        id
    });
    let spans = finish(&sink);

    let root = spans.iter().find(|s| s.name == "test.root").expect("root span recorded");
    assert_eq!(root.id, root_id);
    assert_eq!(root.trace, root.id, "a root span starts its own trace");
    let tasks: Vec<&Captured> = spans.iter().filter(|s| s.name == "par.task").collect();
    assert!(!tasks.is_empty(), "par_map under tracing emits par.task spans");
    for t in &tasks {
        assert_eq!(t.parent, Some(root.id), "pool task parents to the submitting span");
        assert_eq!(t.trace, root.trace, "one job, one trace id");
    }
    assert!(
        tasks.iter().any(|t| t.tid != root.tid),
        "with 4 threads at least one task runs off the submitting thread"
    );
}

#[test]
fn serve_pool_jobs_follow_the_submitting_span() {
    let (_guard, sink) = capture();
    let pool = WorkerPool::spawn(
        PoolConfig { workers: 2, queue_limit: 8, ..PoolConfig::default() },
        |_worker| move |x: &u64| x * 3,
    );
    let (root_id, root_trace) = {
        let root = enld_telemetry::span("test.submit").entered();
        for id in 0..4u64 {
            pool.submit(JobSpec::new(id, id)).expect("queue has room");
        }
        (root.id().expect("live"), root.trace_id().expect("live"))
    };
    let outcomes = pool.shutdown().expect("no worker panics");
    assert_eq!(outcomes.len(), 4);
    for o in &outcomes {
        assert!(matches!(o, JobOutcome::Completed(_)), "toy detector never fails");
    }
    let spans = finish(&sink);

    let jobs: Vec<&Captured> = spans.iter().filter(|s| s.name == "serve.pool.job").collect();
    assert_eq!(jobs.len(), 4, "one job span per submission");
    let submit_tid = spans.iter().find(|s| s.name == "test.submit").expect("submit span").tid;
    for j in &jobs {
        assert_eq!(j.parent, Some(root_id), "worker-side job span follows the submit span");
        assert_eq!(j.trace, root_trace);
        assert_ne!(j.tid, submit_tid, "jobs run on worker threads, not the submitter");
    }
}

#[test]
fn ledger_task_ids_join_to_the_detect_span_across_checkpoint_resume() {
    let (_guard, sink) = capture();
    let _chaos = enld_chaos::scenario();
    let dir = std::env::temp_dir().join(format!("enld-tracing-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let ckpt_path = dir.join("resume.ckpt");
    let cfg = EnldConfig::fast_test();

    // First life: tracing + ledger live, crash mid-task at an armed
    // failpoint after the first checkpoint was written.
    {
        let mut lake = build_lake();
        let mut enld = Enld::init(lake.inventory(), &cfg);
        enld.enable_checkpoints(&ckpt_path);
        enld.set_ledger(Arc::new(MemoryLedger::new()), "main");
        let req = lake.next_request().expect("queued");
        enld_chaos::arm_from_spec("detector.iteration=panic@nth:2").expect("valid spec");
        let crashed = catch_unwind(AssertUnwindSafe(move || {
            let _ = enld.detect(&req.data);
        }));
        enld_chaos::disarm_all();
        assert!(crashed.is_err(), "the armed failpoint must crash the first run");
    }

    // Second life: resume and finish the task with tracing still on.
    let ledger = Arc::new(MemoryLedger::new());
    {
        let mut lake = build_lake();
        let ckpt = Checkpoint::load(&ckpt_path).expect("crash left a checkpoint");
        let mut enld = Enld::resume_from(lake.inventory(), &cfg, &ckpt).expect("resume");
        let req = lake.next_request().expect("queued");
        enld.set_ledger(ledger.clone(), "main");
        let _ = enld.detect(&req.data);
    }
    let spans = finish(&sink);
    let _ = std::fs::remove_dir_all(&dir);

    let task = ledger
        .records()
        .into_iter()
        .find_map(|r| match r {
            LedgerRecord::Task(t) => Some(t),
            _ => None,
        })
        .expect("resumed task writes its TaskRecord");
    assert_ne!(task.trace_id, 0, "tracing was live, so the join keys are set");
    assert_ne!(task.span_id, 0);
    // The ids must join to a real `enld.detect` span in the trace — the
    // resumed one — so `enld profile`/`/traces` and `enld explain` agree
    // on which execution produced the verdicts.
    let detect = spans
        .iter()
        .filter(|s| s.name == "enld.detect")
        .find(|s| s.id == task.span_id)
        .expect("TaskRecord.span_id resolves to a recorded enld.detect span");
    assert_eq!(detect.trace, task.trace_id);
    assert_eq!(detect.trace, detect.id, "enld.detect roots its own trace");
}

/// Keeps whole spans, at `Debug`: the phase spans are emitted, the
/// per-step and pool-task `Trace` spans are not.
struct PhaseSink {
    spans: Mutex<Vec<OwnedSpan>>,
}

impl Sink for PhaseSink {
    fn level(&self) -> Level {
        Level::Debug
    }

    fn on_event(&self, _event: &Event) {}

    fn on_span(&self, span: &SpanRecord) {
        self.spans.lock().unwrap().push(OwnedSpan::from(span));
    }
}

#[test]
fn detect_phases_are_the_direct_children_of_its_span_and_cover_it() {
    const ARRIVALS: usize = 4;
    let guard = REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Full-size `test-sim`: the phases must dwarf the fixed per-arrival
    // bookkeeping for the coverage bound below to be about design, not
    // about microsecond jitter.
    let preset = DatasetPreset::test_sim();
    let mut lake = DataLake::build(&LakeConfig { preset, noise_rate: 0.2, seed: 105 });
    enld_telemetry::reset();
    let sink = Arc::new(PhaseSink { spans: Mutex::new(Vec::new()) });
    enld_telemetry::install(Arc::clone(&sink) as Arc<dyn Sink>);
    let mut enld = Enld::init(lake.inventory(), &EnldConfig::fast_test());
    for _ in 0..ARRIVALS {
        let req = lake.next_request().expect("queued");
        let _ = enld.detect(&req.data);
    }
    enld_telemetry::reset();
    drop(guard);
    let spans = sink.spans.lock().unwrap().clone();

    // The setup span says which compiled product body this box runs.
    let setup = spans.iter().find(|s| s.name == "enld.setup").expect("setup span");
    let kernel = format!("\"{}\"", enld_nn::matrix::kernel());
    assert!(setup.fields.contains(&("kernel".to_owned(), kernel)), "{:?}", setup.fields);

    let roots: Vec<&OwnedSpan> = spans.iter().filter(|s| s.name == "enld.detect").collect();
    assert_eq!(roots.len(), ARRIVALS);
    let mut best_uncovered = f64::INFINITY;
    for root in roots {
        let trace: Vec<OwnedSpan> = spans.iter().filter(|s| s.trace == root.id).cloned().collect();
        let mut phases: Vec<&str> =
            trace.iter().filter(|s| s.parent == Some(root.id)).map(|s| s.name.as_str()).collect();
        phases.sort_unstable();
        phases.dedup();
        // No ledger and no checkpoint file are attached, so their two
        // phases (`enld.detect.ledger`, `enld.checkpoint.persist`) do not
        // run.
        assert_eq!(
            phases,
            [
                "enld.detect.ambiguous_select",
                "enld.detect.contrastive",
                "enld.detect.drift",
                "enld.detect.iteration",
                "enld.detect.warmup",
            ]
        );
        let iterations = trace.iter().filter(|s| s.name == "enld.detect.iteration").count();
        assert_eq!(iterations, EnldConfig::fast_test().iterations);

        // Self time = duration minus the direct children: what no phase
        // owns.
        let site = profile::aggregate_sites(&trace)
            .into_iter()
            .find(|s| s.name == "enld.detect")
            .expect("site aggregated");
        assert_eq!(site.total_us, root.dur_us);
        best_uncovered = best_uncovered.min(site.self_us as f64 / site.total_us as f64);
    }
    // Scheduling noise can only inflate an arrival's unattributed share,
    // so the quietest of the arrivals is the one that measures the design.
    assert!(
        best_uncovered <= 0.05,
        "phases leave {:.1}% of the quietest arrival unattributed — more than 5%",
        best_uncovered * 100.0
    );
}

fn build_lake() -> DataLake {
    let preset = DatasetPreset::test_sim().scaled(0.5);
    DataLake::build(&LakeConfig { preset, noise_rate: 0.2, seed: 105 })
}
