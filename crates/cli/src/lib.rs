//! `enld-cli` — library backing the `enld` command-line tool.
//!
//! The CLI moves labelled datasets in and out of the framework as JSON
//! *lake files*: an inventory plus an ordered list of incremental
//! arrivals. Three commands cover the platform workflow:
//!
//! ```text
//! enld generate --preset cifar100-sim --noise 0.2 --seed 7 --out lake.json
//! enld detect   --lake lake.json --out verdicts.json [--iterations N] [--k N]
//! enld serve    --lake lake.json --workers 4 --policy sjf [--queue-limit N]
//! enld audit    --lake lake.json [--arrival N] [--workers N]
//! ```
//!
//! `detect` initialises ENLD on the inventory, serves every arrival, and
//! writes one verdict per arrival; when the lake file carries ground
//! truth (generated data does), it also scores precision/recall/F1.
//! `serve` is the same workload pushed through the `enld-serve` worker
//! pool: N detector clones drain a policy-scheduled queue with admission
//! control, and the verdicts come back in arrival order.

#![forbid(unsafe_code)]

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use enld_core::checkpoint::Checkpoint;
use enld_core::config::EnldConfig;
use enld_core::detector::Enld;
use enld_core::ledger::JsonlLedger;
use enld_core::metrics::{detection_metrics, DetectionMetrics};
use enld_datagen::presets::DatasetPreset;
use enld_datagen::Dataset;
use enld_knn::IndexBackend;
use enld_lake::lake::{DataLake, LakeConfig};
use enld_serve::{
    submit_with_retry, JobSpec, PolicyKind, PoolConfig, PoolStats, RetryBackoff, WorkerPool,
};
use enld_telemetry::json::JsonObject;
use enld_telemetry::ObsStatus;

pub mod explain;
pub mod monitor;
pub mod profile;

/// A dataset bundle on disk: the lake's inventory plus arrivals.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LakeFile {
    /// Format marker for forward compatibility.
    pub format: String,
    pub inventory: Dataset,
    pub arrivals: Vec<Dataset>,
}

/// One arrival's verdict in the `detect` output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Verdict {
    pub arrival: usize,
    pub clean: Vec<usize>,
    pub noisy: Vec<usize>,
    pub pseudo_labels: Vec<(usize, u32)>,
    pub process_secs: f64,
    /// Present when the lake file carries ground-truth labels.
    pub metrics: Option<DetectionMetrics>,
}

/// CLI-level errors.
#[derive(Debug)]
pub enum CliError {
    Io(std::io::Error),
    BadInput(String),
    /// The worker pool failed while serving (detector panic, lost job).
    Serve(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "i/o error: {e}"),
            Self::BadInput(msg) => write!(f, "{msg}"),
            Self::Serve(msg) => write!(f, "serving failed: {msg}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

const FORMAT: &str = "enld-lake-v1";

/// `enld generate`: builds a lake from a named preset and writes it.
pub fn generate(
    preset_name: &str,
    noise: f32,
    seed: u64,
    out: &Path,
) -> Result<LakeFile, CliError> {
    generate_with_drift(preset_name, noise, None, seed, out)
}

/// [`generate`] with optional injected label drift (`enld generate
/// --drift R`): the second half of the arrival sequence is re-corrupted
/// from its true labels at rate `drift` instead of `noise`, producing a
/// stationary-then-shifted stream for exercising the drift alerts. The
/// re-corruption replaces (not compounds) the original noise, so the
/// post-drift arrivals have exactly rate-`drift` symmetric noise.
pub fn generate_with_drift(
    preset_name: &str,
    noise: f32,
    drift: Option<f32>,
    seed: u64,
    out: &Path,
) -> Result<LakeFile, CliError> {
    generate_with_noise_model(preset_name, noise, None, drift, seed, out)
}

/// [`generate_with_drift`] plus a noise-model choice (`enld generate
/// --noise-model NAME`): the lake is corrupted by the named
/// [`enld_datagen::zoo::NoiseSpec`] model instead of the default
/// pair-asymmetric flips. Position-aware models (e.g. `drift`) vary along
/// the arrival stream, so `--noise-model` and `--drift` are mutually
/// exclusive — the drift flag is a special case the zoo subsumes.
pub fn generate_with_noise_model(
    preset_name: &str,
    noise: f32,
    noise_model: Option<&str>,
    drift: Option<f32>,
    seed: u64,
    out: &Path,
) -> Result<LakeFile, CliError> {
    let preset = DatasetPreset::by_name(preset_name).ok_or_else(|| {
        CliError::BadInput(format!(
            "unknown preset '{preset_name}' (try emnist-sim, cifar100-sim, tiny-imagenet-sim, test-sim)"
        ))
    })?;
    if !(0.0..=1.0).contains(&noise) {
        return Err(CliError::BadInput(format!("noise rate {noise} outside [0, 1]")));
    }
    if let Some(d) = drift {
        if !(0.0..=1.0).contains(&d) {
            return Err(CliError::BadInput(format!("drift rate {d} outside [0, 1]")));
        }
    }
    if let Some(name) = noise_model {
        if drift.is_some() {
            return Err(CliError::BadInput(
                "--noise-model and --drift are mutually exclusive (use --noise-model drift)"
                    .to_owned(),
            ));
        }
        let spec: enld_datagen::zoo::NoiseSpec =
            name.parse().map_err(|e: String| CliError::BadInput(format!("--noise-model: {e}")))?;
        let model = spec.build(preset.classes, noise, seed ^ 0x5EED);
        let mut lake = DataLake::build_with_zoo(
            &LakeConfig { preset, noise_rate: noise, seed },
            model.as_ref(),
        );
        let mut arrivals = Vec::with_capacity(lake.pending_requests());
        let inventory = lake.inventory().clone();
        while let Some(req) = lake.next_request() {
            arrivals.push(req.data);
        }
        let file = LakeFile { format: FORMAT.to_owned(), inventory, arrivals };
        write_json(out, &file)?;
        return Ok(file);
    }
    let mut lake = DataLake::build(&LakeConfig { preset, noise_rate: noise, seed });
    let mut arrivals = Vec::with_capacity(lake.pending_requests());
    let inventory = lake.inventory().clone();
    while let Some(req) = lake.next_request() {
        arrivals.push(req.data);
    }
    if let Some(eta) = drift {
        let start = arrivals.len() / 2;
        let model = enld_datagen::noise::TransitionMatrix::symmetric(inventory.classes(), eta);
        for (i, arrival) in arrivals.iter_mut().enumerate().skip(start) {
            // Distinct per-arrival seeds, decorrelated from the base
            // noise draw so drifted labels are not a re-roll of it.
            *arrival = model.corrupt(arrival, seed ^ (0x9E37_79B9 + i as u64));
        }
    }
    let file = LakeFile { format: FORMAT.to_owned(), inventory, arrivals };
    write_json(out, &file)?;
    Ok(file)
}

/// Loads and validates a lake file.
pub fn load_lake(path: &Path) -> Result<LakeFile, CliError> {
    let text = fs::read_to_string(path)?;
    let file: LakeFile = serde_json::from_str(&text)
        .map_err(|e| CliError::BadInput(format!("malformed lake file: {e}")))?;
    if file.format != FORMAT {
        return Err(CliError::BadInput(format!(
            "unsupported lake format '{}' (expected {FORMAT})",
            file.format
        )));
    }
    if file.arrivals.is_empty() {
        return Err(CliError::BadInput("lake file has no arrivals".to_owned()));
    }
    for (i, a) in file.arrivals.iter().enumerate() {
        if a.dim() != file.inventory.dim() || a.classes() != file.inventory.classes() {
            return Err(CliError::BadInput(format!(
                "arrival {i} shape ({} dims / {} classes) does not match the inventory ({} / {})",
                a.dim(),
                a.classes(),
                file.inventory.dim(),
                file.inventory.classes()
            )));
        }
    }
    Ok(file)
}

/// Overrides applied on top of the preset-derived ENLD configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct DetectOverrides {
    pub iterations: Option<usize>,
    pub k: Option<usize>,
    pub seed: Option<u64>,
    /// Neighbour-index backend (`--index exact|hnsw`).
    pub index: Option<IndexBackend>,
}

/// `enld detect`: serves every arrival and returns the verdicts.
///
/// Ground truth is considered available when any arrival's observed
/// labels disagree with its `true_labels` (generated data); verdicts are
/// then scored. When `ledger` is set, an audit ledger is written there
/// (one JSONL record per task / eligible sample, tagged `main`).
pub fn detect(
    file: &LakeFile,
    overrides: DetectOverrides,
    ledger: Option<&Path>,
) -> Result<Vec<Verdict>, CliError> {
    detect_with_recovery(file, overrides, ledger, RecoveryOptions::default())
}

/// Crash-recovery knobs for [`detect_with_recovery`].
#[derive(Debug, Clone, Default)]
pub struct RecoveryOptions {
    /// Where to persist detector checkpoints at iteration boundaries;
    /// `None` disables checkpointing.
    pub checkpoint: Option<PathBuf>,
    /// Restore from `checkpoint` instead of starting fresh. Requires
    /// `checkpoint` to be set and the file to exist.
    pub resume: bool,
}

/// [`detect`] with checkpoint/resume wiring (`enld detect --checkpoint
/// FILE [--resume]`).
///
/// With a checkpoint path set, detector state is persisted atomically at
/// every iteration boundary, so a killed run loses at most one
/// iteration of work. With `resume`, the detector is restored from the
/// checkpoint: arrivals that already completed are skipped (their
/// verdicts are *not* re-emitted), an interrupted arrival continues from
/// its last persisted iteration, and the ledger — if any — is opened in
/// append mode so the interrupted run's records survive.
pub fn detect_with_recovery(
    file: &LakeFile,
    overrides: DetectOverrides,
    ledger: Option<&Path>,
    recovery: RecoveryOptions,
) -> Result<Vec<Verdict>, CliError> {
    let mut cfg = config_for(file, overrides);
    if let Some(t) = overrides.iterations {
        cfg.iterations = t;
    }
    if let Some(k) = overrides.k {
        cfg.k = k;
    }
    if recovery.resume && recovery.checkpoint.is_none() {
        return Err(CliError::BadInput("--resume requires --checkpoint FILE".to_owned()));
    }
    let mut enld = if recovery.resume {
        let path = recovery.checkpoint.as_deref().expect("checked above");
        let ckpt = Checkpoint::load(path)
            .map_err(|e| CliError::BadInput(format!("checkpoint {}: {e}", path.display())))?;
        let restored_ann = ckpt.ann.is_some();
        let enld = Enld::resume_from(&file.inventory, &cfg, &ckpt)
            .map_err(|e| CliError::BadInput(format!("checkpoint {}: {e}", path.display())))?;
        if restored_ann {
            println!(
                "restored {}-sample ann index from checkpoint (rebuild skipped)",
                enld.ann_index_len().unwrap_or(0)
            );
        }
        enld
    } else {
        Enld::init(&file.inventory, &cfg)
    };
    if let Some(path) = &recovery.checkpoint {
        enld.enable_checkpoints(path);
    }
    if let Some(path) = ledger {
        if recovery.resume {
            // Re-derive the monitor's drift windows and alert state from
            // the interrupted run's records before appending new ones —
            // a restarted process starts with an empty in-memory monitor.
            let fed = monitor::prime_monitor_from_ledger(path)?;
            if fed > 0 {
                println!("monitor primed with {fed} drift observation(s) from the ledger");
            }
        }
        let sink = if recovery.resume {
            Arc::new(JsonlLedger::append(path)?)
        } else {
            Arc::new(JsonlLedger::create(path)?)
        };
        enld.set_ledger(sink, "main");
    }
    // Completed arrivals are skipped on resume; an in-flight one (counted
    // in `tasks` but unfinished) is re-served and continues mid-task.
    let done = if recovery.resume { enld.tasks_completed() } else { 0 };
    if done > file.arrivals.len() {
        return Err(CliError::BadInput(format!(
            "checkpoint has {done} completed arrivals but the lake only has {}",
            file.arrivals.len()
        )));
    }
    let has_truth = file.arrivals.iter().any(|a| a.labels() != a.true_labels());
    Ok(file
        .arrivals
        .iter()
        .enumerate()
        .skip(done)
        .map(|(i, data)| {
            let report = enld.detect(data);
            let metrics = has_truth
                .then(|| detection_metrics(&report.noisy, &data.noisy_indices(), data.len()));
            Verdict {
                arrival: i,
                clean: report.clean,
                noisy: report.noisy,
                pseudo_labels: report.pseudo_labels,
                process_secs: report.process_secs,
                metrics,
            }
        })
        .collect())
}

/// Bridges the observability server to a worker pool that does not exist
/// yet when the server binds: `/healthz` and `/workers` report a
/// starting phase until [`ObsBridge::attach`] hands over live
/// [`PoolStats`].
pub struct ObsBridge {
    started: Instant,
    pool: Mutex<Option<Arc<PoolStats>>>,
}

impl ObsBridge {
    pub fn new() -> Self {
        Self { started: Instant::now(), pool: Mutex::new(None) }
    }

    /// Switches `/healthz` and `/workers` over to the live pool.
    pub fn attach(&self, stats: Arc<PoolStats>) {
        *self.pool.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(stats);
    }
}

impl Default for ObsBridge {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for ObsBridge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let attached =
            self.pool.lock().unwrap_or_else(std::sync::PoisonError::into_inner).is_some();
        f.debug_struct("ObsBridge").field("attached", &attached).finish()
    }
}

impl ObsStatus for ObsBridge {
    fn healthz(&self) -> (bool, String) {
        match &*self.pool.lock().unwrap_or_else(std::sync::PoisonError::into_inner) {
            Some(stats) => stats.healthz(),
            None => {
                let mut o = JsonObject::new();
                o.str_field("status", "starting")
                    .f64_field("uptime_secs", self.started.elapsed().as_secs_f64());
                (true, o.finish())
            }
        }
    }

    fn workers_json(&self) -> String {
        match &*self.pool.lock().unwrap_or_else(std::sync::PoisonError::into_inner) {
            Some(stats) => stats.workers_json(),
            None => "[]".to_owned(),
        }
    }
}

/// Options for `enld serve`: a pooled, policy-scheduled variant of
/// [`detect`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Detection worker threads (each owns a clone of the warmed-up
    /// detector).
    pub workers: usize,
    /// Dispatch order for queued arrivals.
    pub policy: PolicyKind,
    /// Admission-controlled backlog bound; submissions beyond it are
    /// rejected and retried with backoff.
    pub queue_limit: usize,
    /// Same knobs as `detect`.
    pub overrides: DetectOverrides,
    /// Observability bridge to hand the pool's live stats to once the
    /// pool is spawned (`enld serve --obs-addr`).
    pub obs: Option<Arc<ObsBridge>>,
    /// Audit ledger destination; every worker appends to it (tagged
    /// `w0`, `w1`, …).
    pub ledger: Option<PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            workers: 4,
            policy: PolicyKind::Fifo,
            queue_limit: 64,
            overrides: DetectOverrides::default(),
            obs: None,
            ledger: None,
        }
    }
}

/// What a pooled serving run produced, beyond the verdicts themselves.
#[derive(Debug, Clone)]
pub struct ServeSummary {
    /// One verdict per arrival, in arrival order.
    pub verdicts: Vec<Verdict>,
    pub workers: usize,
    pub policy: PolicyKind,
    /// Mean time arrivals spent queued before a worker picked them up.
    pub mean_wait_secs: f64,
    /// Jobs served by each worker (index = worker id).
    pub per_worker_jobs: Vec<usize>,
}

/// `enld serve`: serves every arrival through an `enld-serve`
/// [`WorkerPool`] — N workers, each owning a clone of one warmed-up
/// detector, scheduled by `opts.policy`.
///
/// Setup (inventory warm-up) runs once; the per-worker clones then
/// accumulate clean-inventory votes independently, which is the
/// multi-worker deployment trade-off the paper's single-queue shape
/// avoids. Verdicts come back in arrival order regardless of the
/// completion order the policy produced.
pub fn serve(file: &LakeFile, opts: &ServeOptions) -> Result<ServeSummary, CliError> {
    if opts.workers == 0 {
        return Err(CliError::BadInput("--workers must be at least 1".to_owned()));
    }
    let mut cfg = config_for(file, opts.overrides);
    if let Some(t) = opts.overrides.iterations {
        cfg.iterations = t;
    }
    if let Some(k) = opts.overrides.k {
        cfg.k = k;
    }
    let prototype = Enld::init(&file.inventory, &cfg);
    let has_truth = file.arrivals.iter().any(|a| a.labels() != a.true_labels());
    let ledger_sink = match &opts.ledger {
        Some(path) => Some(Arc::new(JsonlLedger::create(path)?)),
        None => None,
    };

    let pool_cfg = PoolConfig {
        workers: opts.workers,
        queue_limit: opts.queue_limit.max(1),
        policy: opts.policy,
        ..PoolConfig::default()
    };
    let pool = WorkerPool::spawn(pool_cfg, |worker| {
        let mut enld = prototype.clone();
        if let Some(sink) = &ledger_sink {
            enld.set_ledger(sink.clone(), &format!("w{worker}"));
        }
        move |data: &Dataset| enld.detect(data)
    });
    if let Some(obs) = &opts.obs {
        obs.attach(pool.stats());
    }
    // Arrivals not yet handed to the pool; scrapers see the lake-side
    // backlog alongside the pool's own `serve.queue.depth`.
    let lake_depth = enld_telemetry::metrics::global().gauge("lake.queue.depth");
    lake_depth.set(file.arrivals.len() as f64);
    let backoff = RetryBackoff::default();
    for (i, data) in file.arrivals.iter().enumerate() {
        // Cost = sample count, so SJF can rank unseen arrivals by size.
        let spec =
            JobSpec::new(i as u64, data.clone()).with_class("detect").with_cost(data.len() as f64);
        submit_with_retry(&pool, spec, &backoff)
            .map_err(|e| CliError::Serve(format!("arrival {i} not admitted: {e}")))?;
        lake_depth.add(-1.0);
    }
    let outcomes = pool.shutdown().map_err(|p| CliError::Serve(p.to_string()))?;

    let mut verdicts = Vec::with_capacity(file.arrivals.len());
    let mut per_worker_jobs = vec![0usize; opts.workers];
    let mut wait_sum = 0.0;
    for outcome in outcomes {
        match outcome {
            enld_serve::JobOutcome::Completed(c) => {
                let arrival = c.id as usize;
                let data = &file.arrivals[arrival];
                let report = c.result;
                let metrics = has_truth
                    .then(|| detection_metrics(&report.noisy, &data.noisy_indices(), data.len()));
                per_worker_jobs[c.worker] += 1;
                wait_sum += c.wait_secs;
                verdicts.push(Verdict {
                    arrival,
                    clean: report.clean,
                    noisy: report.noisy,
                    pseudo_labels: report.pseudo_labels,
                    process_secs: report.process_secs,
                    metrics,
                });
            }
            enld_serve::JobOutcome::Expired(e) => {
                return Err(CliError::Serve(format!("arrival {} expired in the queue", e.id)));
            }
            enld_serve::JobOutcome::Failed(f) => {
                return Err(CliError::Serve(format!(
                    "arrival {} failed on worker {}: {}",
                    f.id, f.worker, f.panic_msg
                )));
            }
        }
    }
    if verdicts.len() != file.arrivals.len() {
        return Err(CliError::Serve(format!(
            "served {} of {} arrivals",
            verdicts.len(),
            file.arrivals.len()
        )));
    }
    let mean_wait_secs = if verdicts.is_empty() { 0.0 } else { wait_sum / verdicts.len() as f64 };
    verdicts.sort_by_key(|v| v.arrival);
    Ok(ServeSummary {
        verdicts,
        workers: opts.workers,
        policy: opts.policy,
        mean_wait_secs,
        per_worker_jobs,
    })
}

/// Per-class audit of one arrival: `(class, flagged, total)` rows.
/// `workers > 1` routes detection through the [`serve`] pool.
pub fn audit(
    file: &LakeFile,
    arrival: usize,
    workers: usize,
) -> Result<Vec<(u32, usize, usize)>, CliError> {
    let data = file.arrivals.get(arrival).ok_or_else(|| {
        CliError::BadInput(format!(
            "arrival {arrival} out of range (lake has {})",
            file.arrivals.len()
        ))
    })?;
    let verdicts = if workers > 1 {
        serve(file, &ServeOptions { workers, ..ServeOptions::default() })?.verdicts
    } else {
        detect(file, DetectOverrides::default(), None)?
    };
    let verdict = &verdicts[arrival];
    let mut flagged = vec![0usize; data.classes()];
    let mut total = vec![0usize; data.classes()];
    for i in 0..data.len() {
        if !data.missing_mask()[i] {
            total[data.labels()[i] as usize] += 1;
        }
    }
    for &i in &verdict.noisy {
        flagged[data.labels()[i] as usize] += 1;
    }
    Ok((0..data.classes() as u32)
        .filter(|&c| total[c as usize] > 0)
        .map(|c| (c, flagged[c as usize], total[c as usize]))
        .collect())
}

/// Derives a sensible ENLD configuration from the lake's shape: EMNIST-
/// sized tasks (≤ 30 classes) get the paper's `t = 5`, larger ones `t = 17`.
fn config_for(file: &LakeFile, overrides: DetectOverrides) -> EnldConfig {
    let iterations = if file.inventory.classes() <= 30 { 5 } else { 17 };
    let mut cfg = EnldConfig::paper_default(enld_nn::arch::ArchPreset::resnet110_sim(), iterations);
    if let Some(seed) = overrides.seed {
        cfg = cfg.with_seed(seed);
    }
    if let Some(index) = overrides.index {
        cfg.index = index;
    }
    cfg
}

/// What `enld bench` produced: the scored grid plus where it landed.
#[derive(Debug)]
pub struct BenchSummary {
    pub results: enld_bench::grid::GridResults,
    /// Versioned results JSON (`enld-bench-results-v1`).
    pub json_path: PathBuf,
    /// Markdown ranking table.
    pub markdown_path: PathBuf,
}

/// `enld bench --grid FILE [--out DIR]`: runs the detector benchmark
/// grid and writes the versioned results JSON plus the markdown ranking
/// table under `out_dir`. The `ENLD_BENCH_DEGRADE` injected-regression
/// knob is honoured (see [`enld_bench::grid::GridOptions`]).
pub fn bench(grid_path: &Path, out_dir: &Path) -> Result<BenchSummary, CliError> {
    let grid = enld_bench::grid::GridConfig::load(grid_path).map_err(CliError::BadInput)?;
    let opts = enld_bench::grid::GridOptions::from_env().map_err(CliError::BadInput)?;
    let results = enld_bench::grid::run_grid(&grid, &opts).map_err(CliError::BadInput)?;
    let (json_path, markdown_path) = enld_bench::grid::write_results(&results, out_dir)?;
    Ok(BenchSummary { results, json_path, markdown_path })
}

/// Writes any serialisable payload as JSON.
pub fn write_json<T: Serialize>(path: &Path, payload: &T) -> Result<(), CliError> {
    let json = serde_json::to_string(payload)
        .map_err(|e| CliError::BadInput(format!("serialisation failed: {e}")))?;
    fs::write(path, json)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("enld_cli_{}_{name}", std::process::id()))
    }

    fn small_lake(name: &str) -> (LakeFile, std::path::PathBuf) {
        let path = tmp(name);
        let file = generate("test-sim", 0.2, 3, &path).expect("generate");
        (file, path)
    }

    #[test]
    fn generate_writes_a_loadable_lake() {
        let (file, path) = small_lake("gen");
        assert_eq!(file.arrivals.len(), 4);
        let loaded = load_lake(&path).expect("load");
        assert_eq!(loaded.inventory.len(), file.inventory.len());
        assert_eq!(loaded.arrivals.len(), file.arrivals.len());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn generate_rejects_bad_inputs() {
        let path = tmp("bad");
        assert!(matches!(generate("imagenet", 0.2, 1, &path), Err(CliError::BadInput(_))));
        assert!(matches!(generate("test-sim", 1.5, 1, &path), Err(CliError::BadInput(_))));
    }

    #[test]
    fn generate_rejects_bad_noise_models() {
        let path = tmp("zoo_bad");
        // Unknown model name.
        assert!(matches!(
            generate_with_noise_model("test-sim", 0.2, Some("nope"), None, 1, &path),
            Err(CliError::BadInput(_))
        ));
        // --noise-model and --drift are mutually exclusive.
        assert!(matches!(
            generate_with_noise_model("test-sim", 0.2, Some("drift"), Some(0.5), 1, &path),
            Err(CliError::BadInput(_))
        ));
    }

    #[test]
    fn generate_with_zoo_writes_tagged_lake() {
        let path = tmp("zoo");
        let file = generate_with_noise_model("test-sim", 0.3, Some("confusion"), None, 5, &path)
            .expect("generate");
        assert!(!file.arrivals.is_empty());
        assert_eq!(file.inventory.noise_tag(), Some("confusion"));
        for a in &file.arrivals {
            assert_eq!(a.noise_tag(), Some("confusion"));
        }
        let loaded = load_lake(&path).expect("load");
        assert_eq!(loaded.inventory.noise_tag(), Some("confusion"));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn load_rejects_malformed_files() {
        let path = tmp("malformed");
        fs::write(&path, "{not json").expect("write");
        assert!(matches!(load_lake(&path), Err(CliError::BadInput(_))));
        fs::write(&path, "{\"format\":\"other\",\"inventory\":null,\"arrivals\":[]}")
            .expect("write");
        assert!(matches!(load_lake(&path), Err(CliError::BadInput(_))));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn detect_scores_generated_lakes() {
        let (file, path) = small_lake("detect");
        let overrides = DetectOverrides {
            iterations: Some(3),
            k: Some(2),
            seed: Some(1),
            ..Default::default()
        };
        let verdicts = detect(&file, overrides, None).expect("detect");
        assert_eq!(verdicts.len(), file.arrivals.len());
        for (v, a) in verdicts.iter().zip(&file.arrivals) {
            assert_eq!(v.clean.len() + v.noisy.len(), a.len());
            let m = v.metrics.expect("generated data has ground truth");
            assert!(m.f1 >= 0.0 && m.f1 <= 1.0);
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn detect_with_recovery_checkpoints_and_resumes() {
        let (file, path) = small_lake("ckpt");
        let ckpt = tmp("ckpt_file");
        let overrides = DetectOverrides {
            iterations: Some(3),
            k: Some(2),
            seed: Some(1),
            ..Default::default()
        };
        let recovery = RecoveryOptions { checkpoint: Some(ckpt.clone()), resume: false };
        let verdicts = detect_with_recovery(&file, overrides, None, recovery).expect("detect");
        assert_eq!(verdicts.len(), file.arrivals.len());
        assert!(ckpt.exists(), "checkpoint persisted at the final task boundary");
        // Resuming a finished run has nothing left to do.
        let recovery = RecoveryOptions { checkpoint: Some(ckpt.clone()), resume: true };
        let resumed = detect_with_recovery(&file, overrides, None, recovery).expect("resume");
        assert!(resumed.is_empty(), "every arrival was already completed");
        // --resume without --checkpoint is a usage error.
        let bad = RecoveryOptions { checkpoint: None, resume: true };
        assert!(matches!(
            detect_with_recovery(&file, DetectOverrides::default(), None, bad),
            Err(CliError::BadInput(_))
        ));
        let _ = fs::remove_file(&path);
        let _ = fs::remove_file(&ckpt);
    }

    #[test]
    fn audit_covers_observed_classes() {
        let (file, path) = small_lake("audit");
        let rows = audit(&file, 0, 1).expect("audit");
        assert!(!rows.is_empty());
        let total: usize = rows.iter().map(|(_, _, t)| t).sum();
        assert_eq!(total, file.arrivals[0].len());
        for (_, flagged, t) in rows {
            assert!(flagged <= t);
        }
        assert!(matches!(audit(&file, 99, 1), Err(CliError::BadInput(_))));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn serve_matches_detect_shape() {
        let (file, path) = small_lake("serve");
        let opts = ServeOptions {
            workers: 2,
            policy: PolicyKind::Sjf,
            queue_limit: 8,
            overrides: DetectOverrides {
                iterations: Some(3),
                k: Some(2),
                seed: Some(1),
                ..Default::default()
            },
            ..ServeOptions::default()
        };
        let summary = serve(&file, &opts).expect("serve");
        assert_eq!(summary.verdicts.len(), file.arrivals.len());
        assert_eq!(summary.workers, 2);
        assert_eq!(summary.policy, PolicyKind::Sjf);
        assert_eq!(summary.per_worker_jobs.iter().sum::<usize>(), file.arrivals.len());
        for (i, (v, a)) in summary.verdicts.iter().zip(&file.arrivals).enumerate() {
            assert_eq!(v.arrival, i, "verdicts come back in arrival order");
            assert_eq!(v.clean.len() + v.noisy.len(), a.len());
            assert!(v.metrics.is_some(), "generated data has ground truth");
        }
        assert!(summary.mean_wait_secs >= 0.0);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn serve_rejects_zero_workers() {
        let (file, path) = small_lake("serve0");
        let opts = ServeOptions { workers: 0, ..ServeOptions::default() };
        assert!(matches!(serve(&file, &opts), Err(CliError::BadInput(_))));
        let _ = fs::remove_file(&path);
    }
}
