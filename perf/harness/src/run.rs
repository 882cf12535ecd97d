//! One benchmark run: set up, warm up, measure for the requested time,
//! check the outputs, and (traced runs) take the per-layer readings.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use enld_core::{detection_metrics, Checkpoint, DetectionReport, Enld, EnldConfig, JsonlLedger};
use enld_datagen::Dataset;
use enld_knn::IndexBackend;
use enld_lake::{DataLake, LakeConfig};
use enld_serve::{JobOutcome, JobSpec, PolicyKind, PoolConfig, WorkerPool};

use crate::probes::{self, LayerReadings};
use crate::procfs;
use crate::schedule::jittered_schedule;
use crate::spec::{serve_workers, Kind, Workload, END_TO_END, MIN_ARRIVALS, NOISE_RATE, PER_LAYER};
use crate::stats::{median, tail, Fnv};
use crate::trace::Tracer;

/// Set-up is repeated (and its median reported) until this many
/// repetitions are done or this much time is spent, whichever is first.
const SETUP_REPS: usize = 3;
const SETUP_BUDGET_S: f64 = 6.0;

pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Length of the timed section; the closed loops also always finish
    /// `min_arrivals` arrivals.
    pub seconds: f64,
    pub trace: bool,
    pub min_arrivals: usize,
    pub setup_reps: usize,
    /// Where checkpoints, ledgers, traces and run details are written.
    pub out_dir: PathBuf,
}

impl RunArgs {
    pub fn new(workload: &'static Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        Self {
            workload,
            seed,
            seconds,
            trace,
            min_arrivals: MIN_ARRIVALS,
            setup_reps: SETUP_REPS,
            out_dir: PathBuf::from("perf/out"),
        }
    }

    fn out_file(&self, suffix: &str) -> PathBuf {
        self.out_dir.join(format!("{}.{suffix}", self.workload.name))
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (0 when it is a single reading).
    pub n: usize,
}

#[derive(Debug, Clone)]
pub struct RunOutput {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    /// FNV-1a over the verdicts of the first `min_arrivals` arrivals
    /// (every run reaches those, so the hash repeats at a seed).
    pub verdict_hash: u64,
    /// Mean F1 over the same arrivals; repeats exactly at a seed.
    pub f1_first: f64,
    /// Every arrival of the timed section, in completion order.
    pub samples: Vec<Sample>,
    /// Why `correct` is false, or harness-validity warnings.
    pub notes: Vec<String>,
}

/// One `Enld::detect` call as the harness saw it.
#[derive(Debug, Clone)]
pub struct Sample {
    pub rows: usize,
    /// Seconds inside `Enld::detect`.
    pub wall_s: f64,
    /// Seconds from being due to verdicts: `wall_s` in a closed loop,
    /// where an arrival is due when the previous one is done.
    pub sojourn_s: f64,
    pub f1: f64,
}

/// The measured detector stack after set-up.
pub struct Ready {
    pub lake: DataLake,
    pub enld: Enld,
    pub arrivals: Arc<Vec<Dataset>>,
    pub lake_s: f64,
    pub init_s: f64,
}

fn config_for(w: &Workload, seed: u64) -> EnldConfig {
    let mut cfg = EnldConfig::for_preset(&(w.preset)()).with_seed(seed);
    if w.kind == Kind::Durable {
        cfg.index = IndexBackend::hnsw();
    }
    cfg
}

fn set_up(w: &Workload, seed: u64, tracer: &mut Tracer) -> Ready {
    let preset = (w.preset)();
    let span = tracer.begin("lake", "DataLake::build");
    let t = Instant::now();
    let lake = DataLake::build(&LakeConfig { preset, noise_rate: NOISE_RATE, seed });
    let lake_s = t.elapsed().as_secs_f64();
    tracer.end(span, &[("rows", lake.inventory().len() as f64)]);

    let config = config_for(w, seed);
    let span = tracer.begin("core", "Enld::init");
    let t = Instant::now();
    let enld = Enld::init(lake.inventory(), &config);
    let init_s = t.elapsed().as_secs_f64();
    tracer.end(span, &[("high_quality", enld.high_quality().len() as f64)]);

    let arrivals = Arc::new(lake.peek_requests().map(|r| r.data.clone()).collect::<Vec<_>>());
    Ready { lake, enld, arrivals, lake_s, init_s }
}

/// `true` when the report splits exactly the labelled samples of `d`
/// into clean and noisy, each once.
pub fn is_partition(d: &Dataset, clean: &[usize], noisy: &[usize]) -> bool {
    let mut seen = vec![false; d.len()];
    for &i in clean.iter().chain(noisy) {
        if i >= d.len() || seen[i] || d.missing_mask()[i] {
            return false;
        }
        seen[i] = true;
    }
    seen.iter().zip(d.missing_mask()).all(|(&s, &missing)| s != missing)
}

pub fn f1_of(d: &Dataset, noisy: &[usize]) -> f64 {
    detection_metrics(noisy, &d.noisy_indices(), d.len()).f1
}

/// Calls `detect`, converting a panic into an error so one bad arrival
/// is counted instead of ending the run.
pub fn detect_checked(det: &mut Enld, d: &Dataset) -> Result<(DetectionReport, f64), String> {
    let t = Instant::now();
    let report = catch_unwind(AssertUnwindSafe(|| det.detect(d)))
        .map_err(|_| "Enld::detect panicked".to_owned())?;
    let wall = t.elapsed().as_secs_f64();
    if is_partition(d, &report.clean, &report.noisy) {
        Ok((report, wall))
    } else {
        Err("report is not a partition of the labelled samples".to_owned())
    }
}

/// What a timed section saw, in either loop shape.
#[derive(Default)]
pub struct Pass {
    pub samples: Vec<Sample>,
    pub attempted: usize,
    pub failed: usize,
    /// Over the first `min` arrivals only, so it repeats at a seed
    /// however many arrivals the clock allowed.
    pub hash: Fnv,
    pub notes: Vec<String>,
    pub cpu_s: f64,
}

/// Closed loop over `arrivals` in order, wrapping around with a fresh
/// detector from `fresh` each cycle, until at least `min` arrivals are
/// done and `seconds` have passed. Repeated visits must reproduce the
/// first visit's verdicts.
pub fn closed_loop(
    arrivals: &[Dataset],
    fresh: &dyn Fn() -> Enld,
    min: usize,
    seconds: f64,
    tracer: &mut Tracer,
) -> Pass {
    let mut pass = Pass::default();
    let mut first_noisy: Vec<Vec<usize>> = Vec::new();
    let cpu0 = procfs::cpu_secs().unwrap_or(0.0);
    let t0 = Instant::now();
    let mut det = fresh();
    let mut i = 0usize;
    while i < min || t0.elapsed().as_secs_f64() < seconds {
        let a = i % arrivals.len();
        if i > 0 && a == 0 {
            det = fresh();
        }
        let d = &arrivals[a];
        tracer.set_request(Some(i as u64));
        let span = tracer.begin("core", "Enld::detect");
        let result = detect_checked(&mut det, d);
        tracer.end(span, &[("arrival", a as f64), ("rows", d.len() as f64)]);
        pass.attempted += 1;
        match result {
            Ok((report, wall_s)) => {
                if i < min {
                    pass.hash.write_verdicts(a, d.len(), &report.noisy);
                }
                if i < arrivals.len() {
                    first_noisy.push(report.noisy.clone());
                } else if first_noisy.get(a) != Some(&report.noisy) {
                    pass.failed += 1;
                    pass.notes.push(format!("arrival {a}: verdicts differ between visits"));
                }
                let f1 = f1_of(d, &report.noisy);
                pass.samples.push(Sample { rows: d.len(), wall_s, sojourn_s: wall_s, f1 });
            }
            Err(why) => {
                pass.failed += 1;
                pass.notes.push(format!("arrival {a}: {why}"));
                if i < arrivals.len() {
                    first_noisy.push(Vec::new());
                }
                // A detector that panicked mid-task is in an unknown state.
                det = fresh();
            }
        }
        i += 1;
    }
    tracer.set_request(None);
    pass.cpu_s = procfs::cpu_secs().unwrap_or(0.0) - cpu0;
    pass
}

/// What one pool job returns to the generator.
pub struct JobResult {
    pub noisy: Vec<usize>,
    pub partition: bool,
}

/// What the open loop observed besides its [`Pass`].
#[derive(Default)]
pub struct ServeStats {
    pub wait_s: Vec<f64>,
    /// How late the generator submitted each job, against its due time.
    pub late_ms: Vec<f64>,
    pub wall_s: f64,
    pub queue_depth_max: usize,
    pub workers: usize,
    pub spawn_s: f64,
}

fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

/// Open loop: the calling thread is the only generator. It submits the
/// lake's arrivals round-robin at the due times of a seeded jittered
/// periodic schedule, whether or not earlier jobs have finished, and times each
/// job from its due instant.
fn open_loop(ready: &Ready, args: &RunArgs, tracer: &mut Tracer) -> (Pass, ServeStats) {
    let workers = serve_workers();
    let mut run = Pass::default();
    let mut stats = ServeStats { workers, ..ServeStats::default() };
    let data = Arc::clone(&ready.arrivals);

    let span = tracer.begin("server", "WorkerPool::spawn");
    let t = Instant::now();
    let config = PoolConfig { workers, queue_limit: 64, policy: PolicyKind::Fifo, prior_secs: 0.3 };
    let mut pool: WorkerPool<usize, JobResult> = WorkerPool::spawn(config, |_| {
        let mut det = ready.enld.clone();
        let data = Arc::clone(&data);
        move |&a: &usize| {
            let d = &data[a];
            let report = det.detect(d);
            JobResult {
                partition: is_partition(d, &report.clean, &report.noisy),
                noisy: report.noisy,
            }
        }
    });
    stats.spawn_s = t.elapsed().as_secs_f64();
    tracer.end(span, &[("workers", workers as f64)]);

    let due = jittered_schedule(args.seed, args.workload.serve_rate_hz, args.seconds);
    let mut submit_at: Vec<Option<Instant>> = vec![None; due.len()];
    let mut outcomes = Vec::with_capacity(due.len());
    let cpu0 = procfs::cpu_secs().unwrap_or(0.0);
    let t0 = Instant::now();
    for (j, &due_s) in due.iter().enumerate() {
        let due_at = t0 + Duration::from_secs_f64(due_s);
        sleep_until(due_at);
        let now = Instant::now();
        stats.late_ms.push(now.duration_since(due_at).as_secs_f64() * 1e3);
        let a = j % data.len();
        let spec = JobSpec::new(j as u64, a).with_class("enld").with_cost(data[a].len() as f64);
        run.attempted += 1;
        match pool.submit(spec) {
            Ok(()) => submit_at[j] = Some(now),
            Err(_) => {
                run.failed += 1;
                run.notes.push(format!("job {j}: submission refused"));
            }
        }
        stats.queue_depth_max = stats.queue_depth_max.max(pool.queue_depth());
        while let Some(outcome) = pool.try_next() {
            outcomes.push(outcome);
        }
    }
    match pool.shutdown() {
        Ok(rest) => outcomes.extend(rest),
        Err(panic) => {
            run.notes.push(format!("pool: {panic}"));
            outcomes.extend(panic.drained);
        }
    }
    stats.wall_s = t0.elapsed().as_secs_f64();
    run.cpu_s = procfs::cpu_secs().unwrap_or(0.0) - cpu0;

    outcomes.sort_by_key(JobOutcome::id);
    let accepted = submit_at.iter().flatten().count();
    if outcomes.len() != accepted {
        run.failed += accepted - outcomes.len().min(accepted);
        run.notes.push(format!("{accepted} jobs accepted, {} outcomes", outcomes.len()));
    }
    for outcome in outcomes {
        let j = outcome.id() as usize;
        let Some(done) = outcome.completed() else {
            run.failed += 1;
            run.notes.push(format!("job {j}: expired or failed in the pool"));
            continue;
        };
        let a = j % data.len();
        let d = &data[a];
        if !done.result.partition {
            run.failed += 1;
            run.notes.push(format!("job {j}: report is not a partition"));
            continue;
        }
        let submitted = submit_at[j].expect("outcome of a job that was never submitted");
        if j < args.min_arrivals {
            run.hash.write_verdicts(j, d.len(), &done.result.noisy);
        }
        stats.wait_s.push(done.wait_secs);
        run.samples.push(Sample {
            rows: d.len(),
            wall_s: done.service_secs,
            sojourn_s: stats.late_ms[j] / 1e3 + done.wait_secs + done.service_secs,
            f1: f1_of(d, &done.result.noisy),
        });
        // The worker reports its intervals with the completion; lay them
        // out after the submit instant as spans of this request.
        let root = tracer.record(
            "harness",
            "job",
            j as u64,
            submitted,
            done.wait_secs + done.service_secs,
            None,
        );
        tracer.record("server", "queue wait", j as u64, submitted, done.wait_secs, root);
        let start = submitted + Duration::from_secs_f64(done.wait_secs);
        tracer.record("core", "Enld::detect", j as u64, start, done.service_secs, root);
    }
    (run, stats)
}

fn metric(name: &'static str, value: f64, n: usize) -> Metric {
    let unit = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the spec tables"))
        .1;
    Metric { name, value, unit, n }
}

/// The end-to-end metrics from what the timed section saw. Latencies
/// are per sample of the arrival: arrival sizes change with the seed,
/// and the median of raw seconds would mostly report which sizes the
/// lake happened to hold.
fn end_to_end(setup_s: f64, setup_n: usize, samples: &[Sample], cpu_s: f64) -> Vec<Metric> {
    let per_sample_ms = |secs: fn(&Sample) -> f64| -> Vec<f64> {
        samples.iter().map(|s| secs(s) * 1e3 / s.rows.max(1) as f64).collect()
    };
    let rows: f64 = samples.iter().map(|s| s.rows as f64).sum();
    let busy: f64 = samples.iter().map(|s| s.wall_s).sum();
    let n = samples.len();
    let f1_mean = samples.iter().map(|s| s.f1).sum::<f64>() / n.max(1) as f64;
    vec![
        metric("setup_s", setup_s, setup_n),
        metric("process_ms_per_sample_p50", median(&per_sample_ms(|s| s.wall_s)), n),
        metric("sojourn_ms_per_sample_p50", median(&per_sample_ms(|s| s.sojourn_s)), n),
        metric("samples_per_s", if busy > 0.0 { rows / busy } else { 0.0 }, n),
        metric("cpu_s_per_ksample", if rows > 0.0 { cpu_s / rows * 1e3 } else { 0.0 }, n),
        metric("peak_rss_mb", procfs::peak_rss_mb().unwrap_or(0.0), 0),
        metric("f1_mean", f1_mean, n),
    ]
}

pub fn run(args: &RunArgs) -> RunOutput {
    let w = args.workload;
    std::fs::create_dir_all(&args.out_dir).expect("create the benchmark's output directory");
    enld_par::set_threads(w.threads()).expect("set_threads runs before any parallel work");
    let mut tracer = Tracer::new(args.trace);
    let mut notes = Vec::new();

    // Set-up, repeated; the last repetition's state is the one measured.
    let mut setup_walls = Vec::new();
    let setup_t0 = Instant::now();
    let mut ready = set_up(w, args.seed, &mut tracer);
    setup_walls.push(ready.lake_s + ready.init_s);
    while setup_walls.len() < args.setup_reps && setup_t0.elapsed().as_secs_f64() < SETUP_BUDGET_S {
        ready = set_up(w, args.seed, &mut tracer);
        setup_walls.push(ready.lake_s + ready.init_s);
    }
    let mut setup_s = median(&setup_walls);

    let ckpt = args.out_file("ckpt");
    if w.kind == Kind::Durable {
        let ledger =
            JsonlLedger::create(&args.out_file("ledger.jsonl")).expect("create ledger file");
        ready.enld.set_ledger(Arc::new(ledger), "main");
    }
    let proto = &ready.enld;
    // A clone carries the ledger along but never the checkpoint path.
    let fresh = || {
        let mut det = proto.clone();
        if w.kind == Kind::Durable {
            det.enable_checkpoints(&ckpt);
        }
        det
    };

    // Warm-up: allocator, thread pool and page cache settle on a
    // detector that is thrown away.
    let span = tracer.begin("core", "warm-up Enld::detect");
    let warm = detect_checked(&mut fresh(), &ready.arrivals[0]);
    tracer.end(span, &[]);
    if let Err(why) = warm {
        notes.push(format!("warm-up: {why}"));
    }

    // The timed section.
    let (mut timed, serve) = match w.kind {
        Kind::Serve => {
            let (pass, stats) = open_loop(&ready, args, &mut tracer);
            setup_s += stats.spawn_s;
            (pass, Some(stats))
        }
        Kind::Stream | Kind::Durable => {
            let pass =
                closed_loop(&ready.arrivals, &fresh, args.min_arrivals, args.seconds, &mut tracer);
            (pass, None)
        }
    };
    notes.append(&mut timed.notes);
    let samples = &timed.samples;
    let mut failed = timed.failed;

    let mut correct = true;
    if w.kind == Kind::Durable {
        // The last task-boundary checkpoint must load back.
        match Checkpoint::load(&ckpt) {
            Ok(c) if c.tasks >= 1 => {}
            Ok(_) => {
                correct = false;
                notes.push("checkpoint reloaded but records no task".to_owned());
            }
            Err(e) => {
                correct = false;
                notes.push(format!("checkpoint does not reload: {e}"));
            }
        }
    }

    let e2e = end_to_end(setup_s, setup_walls.len(), samples, timed.cpu_s);
    let f1_mean = e2e.iter().find(|m| m.name == "f1_mean").map_or(0.0, |m| m.value);
    if samples.is_empty() {
        correct = false;
        notes.push("no arrival completed".to_owned());
    } else if f1_mean < w.f1_floor {
        correct = false;
        notes.push(format!("f1_mean {f1_mean:.4} is below the floor {}", w.f1_floor));
    }

    let metrics = if args.trace {
        let mut layers = LayerReadings::default();
        layers.set("lake.build_s", ready.lake_s, 1);
        layers.set("core.init_s", ready.init_s, 1);
        if let Some(stats) = &serve {
            serve_layers(&timed, stats, &mut layers);
        }
        let verdict = probes::traced_extras(args, &ready, &fresh, &mut tracer, &mut layers);
        failed += verdict.failed;
        correct &= verdict.correct;
        notes.extend(verdict.notes);
        let path = args.out_file("trace.jsonl");
        if let Err(e) = tracer.dump_jsonl(&path) {
            notes.push(format!("trace file {}: {e}", path.display()));
        }
        for (layer, secs) in tracer.self_time_by_layer() {
            eprintln!("# self time  {layer:<10} {secs:>9.3} s");
        }
        PER_LAYER
            .iter()
            .map(|m| {
                let (value, n) = layers.get(m.name);
                metric(m.name, value, n)
            })
            .collect()
    } else {
        e2e
    };

    correct &= failed == 0;
    let first = &samples[..samples.len().min(args.min_arrivals)];
    let f1_first = first.iter().map(|s| s.f1).sum::<f64>() / first.len().max(1) as f64;
    RunOutput {
        correct,
        attempted: timed.attempted.max(1),
        failed,
        metrics,
        verdict_hash: timed.hash.0,
        f1_first,
        samples: timed.samples,
        notes,
    }
}

fn serve_layers(run: &Pass, stats: &ServeStats, layers: &mut LayerReadings) {
    let n = run.samples.len();
    let service: Vec<f64> = run.samples.iter().map(|s| s.wall_s).collect();
    let sojourn: Vec<f64> = run.samples.iter().map(|s| s.sojourn_s).collect();
    let busy: f64 = service.iter().sum();
    if let Some((pct, value)) = tail(&sojourn) {
        layers.set("server.sojourn_s_tail", value, n);
        layers.set("server.tail_pct", f64::from(pct), n);
        layers.set("server.wait_s_tail", tail(&stats.wait_s).map_or(0.0, |t| t.1), n);
    }
    layers.set("server.wait_s_p50", median(&stats.wait_s), n);
    layers.set("server.service_s_p50", median(&service), n);
    layers.set("server.utilisation", busy / (stats.workers as f64 * stats.wall_s), n);
    layers.set("server.queue_depth_max", stats.queue_depth_max as f64, run.attempted);
    layers.set("harness.gen_late_ms_p50", median(&stats.late_ms), stats.late_ms.len());
    let late_max = stats.late_ms.iter().copied().fold(0.0, f64::max);
    layers.set("harness.gen_late_ms_max", late_max, stats.late_ms.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_check_rejects_overlap_gaps_and_missing_labels() {
        let d = Dataset::new(vec![0.0; 8], vec![0, 1, 0, 1], 2, 2);
        assert!(is_partition(&d, &[0, 2], &[1, 3]));
        assert!(is_partition(&d, &[], &[3, 2, 1, 0]));
        assert!(!is_partition(&d, &[0, 2], &[1]), "sample 3 is in neither set");
        assert!(!is_partition(&d, &[0, 1, 2], &[1, 3]), "sample 1 is in both");
        assert!(!is_partition(&d, &[0, 2], &[1, 4]), "index out of range");
    }

    #[test]
    fn end_to_end_holds_every_declared_metric_once() {
        let samples = vec![
            Sample { rows: 100, wall_s: 1.0, sojourn_s: 1.5, f1: 0.9 },
            Sample { rows: 300, wall_s: 3.0, sojourn_s: 3.5, f1: 0.7 },
        ];
        let m = end_to_end(4.0, 2, &samples, 8.0);
        let names: Vec<&str> = m.iter().map(|m| m.name).collect();
        assert_eq!(names, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
        let get = |name: &str| m.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(get("process_ms_per_sample_p50"), 10.0);
        assert_eq!(get("sojourn_ms_per_sample_p50"), (15.0 + 3500.0 / 300.0) / 2.0);
        assert_eq!(get("samples_per_s"), 100.0);
        assert_eq!(get("cpu_s_per_ksample"), 20.0);
        assert!((get("f1_mean") - 0.8).abs() < 1e-12);
    }
}
