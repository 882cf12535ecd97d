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
//! enld audit    --lake lake.json [--arrival N]
//! ```
//!
//! `detect` initialises ENLD on the inventory, serves every arrival, and
//! writes one verdict per arrival; when the lake file carries ground
//! truth (generated data does), it also scores precision/recall/F1.
//! `serve` is the same workload pushed through the `enld-serve` worker
//! pool: N detector clones drain a FIFO or SJF queue of bounded length,
//! and the verdicts come back in arrival order.

#![forbid(unsafe_code)]

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use enld_core::checkpoint::Checkpoint;
use enld_core::config::EnldConfig;
use enld_core::detector::Enld;
use enld_core::ledger::JsonlLedger;
use enld_core::metrics::{detection_metrics, DetectionMetrics};
use enld_core::report::DetectionReport;
use enld_datagen::presets::DatasetPreset;
use enld_datagen::Dataset;
use enld_knn::IndexBackend;
use enld_lake::lake::{DataLake, LakeConfig};
use enld_serve::{JobOutcome, JobSpec, PolicyKind, PoolConfig, PoolStats, WorkerPool};
use enld_telemetry::json::{parse_json, Json, JsonObject, JsonValue, Layout};
use enld_telemetry::ObsStatus;

pub mod explain;
pub mod monitor;
pub mod profile;

/// A dataset bundle on disk: the lake's inventory plus arrivals.
#[derive(Debug, Clone)]
pub struct LakeFile {
    /// Format marker for forward compatibility.
    pub format: String,
    pub inventory: Dataset,
    pub arrivals: Vec<Dataset>,
}

impl LakeFile {
    /// The lake file's document (write it with [`Layout::Compact`]).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("format", self.format.to_json()),
            ("inventory", dataset_to_json(&self.inventory)),
            ("arrivals", JsonValue::Array(self.arrivals.iter().map(dataset_to_json).collect())),
        ])
    }

    /// Reads a lake file's document; unknown keys are ignored.
    ///
    /// # Errors
    /// Names the first missing, mistyped or inconsistent field.
    pub fn from_json(v: &JsonValue) -> Result<Self, String> {
        let inventory = v.get("inventory").ok_or("field \"inventory\" is missing")?;
        let arrivals = v.get("arrivals").and_then(JsonValue::as_array);
        let arrivals = arrivals.ok_or("field \"arrivals\" is missing or not an array")?.iter();
        Ok(Self {
            format: v.read("format")?,
            inventory: dataset_from_json(inventory).map_err(|e| format!("inventory: {e}"))?,
            arrivals: arrivals
                .enumerate()
                .map(|(i, a)| dataset_from_json(a).map_err(|e| format!("arrivals: item {i}: {e}")))
                .collect::<Result<_, _>>()?,
        })
    }
}

/// A dataset as a lake file stores it: its fields in declaration order,
/// `noise_tag` only when set.
fn dataset_to_json(d: &Dataset) -> JsonValue {
    let mut fields = vec![
        ("xs", JsonValue::array(d.xs())),
        ("dim", d.dim().to_json()),
        ("labels", JsonValue::array(d.labels())),
        ("true_labels", JsonValue::array(d.true_labels())),
        ("ids", JsonValue::array(d.ids())),
        ("missing", JsonValue::array(d.missing_mask())),
        ("classes", d.classes().to_json()),
    ];
    if let Some(tag) = d.noise_tag() {
        fields.push(("noise_tag", JsonValue::String(tag.to_owned())));
    }
    JsonValue::object(fields)
}

/// Reads [`dataset_to_json`]'s object through [`Dataset::from_parts`],
/// so a file cannot build a dataset that breaks its invariants.
fn dataset_from_json(v: &JsonValue) -> Result<Dataset, String> {
    let mut d = Dataset::from_parts(
        v.read("xs")?,
        v.read("dim")?,
        v.read("labels")?,
        v.read("true_labels")?,
        v.read("ids")?,
        v.read("missing")?,
        v.read("classes")?,
    )?;
    if let Some(tag) = v.read::<Option<String>>("noise_tag")? {
        d.set_noise_tag(tag);
    }
    Ok(d)
}

/// One arrival's verdict in the `detect` output.
#[derive(Debug, Clone)]
pub struct Verdict {
    pub arrival: usize,
    pub clean: Vec<usize>,
    pub noisy: Vec<usize>,
    pub pseudo_labels: Vec<(usize, u32)>,
    pub process_secs: f64,
    /// Present when the lake file carries ground-truth labels.
    pub metrics: Option<DetectionMetrics>,
}

impl Verdict {
    /// Arrival `arrival`'s verdict from its detection `report`; scored
    /// against `data`'s ground truth when `has_truth`.
    pub fn new(arrival: usize, report: DetectionReport, data: &Dataset, has_truth: bool) -> Self {
        let metrics =
            has_truth.then(|| detection_metrics(&report.noisy, &data.noisy_indices(), data.len()));
        Self {
            arrival,
            clean: report.clean,
            noisy: report.noisy,
            pseudo_labels: report.pseudo_labels,
            process_secs: report.process_secs,
            metrics,
        }
    }

    /// The verdict as `detect --out` writes it: `metrics` is `null` when
    /// absent, each pseudo-label an `[index, label]` pair.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("arrival", self.arrival.to_json()),
            ("clean", self.clean.to_json()),
            ("noisy", self.noisy.to_json()),
            ("pseudo_labels", self.pseudo_labels.to_json()),
            ("process_secs", self.process_secs.to_json()),
            ("metrics", self.metrics.to_json()),
        ])
    }
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
///
/// `noise_model` (`--noise-model NAME`) corrupts the lake with that
/// [`enld_datagen::zoo::NoiseSpec`] model instead of the default
/// pair-asymmetric flips; position-aware models (e.g. `drift`) vary along
/// the arrival stream. `drift` (`--drift R`) re-corrupts the second half
/// of the arrivals from their true labels at rate `R` instead of
/// `noise`, producing a stationary-then-shifted stream for exercising the
/// drift alerts; the re-corruption replaces (not compounds) the original
/// noise, so the post-drift arrivals have exactly rate-`R` symmetric
/// noise. The two are mutually exclusive, and neither replaces the
/// other: the zoo's `drift` model ramps the noise along the stream, and
/// on a seed-7 `test-sim` lake at noise 0.2 or 0.3 the ramp leaves the
/// default drift alert quiet, where `--drift 0.6` fires it
/// (`the_zoo_drift_ramp_stays_quiet_where_the_drift_flag_fires`).
pub fn generate(
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
    let lake_cfg = LakeConfig { preset, noise_rate: noise, seed };
    let mut lake = match noise_model {
        Some(_) if drift.is_some() => {
            return Err(CliError::BadInput(
                "--noise-model and --drift are mutually exclusive".to_owned(),
            ))
        }
        Some(name) => {
            let spec: enld_datagen::zoo::NoiseSpec = name
                .parse()
                .map_err(|e: String| CliError::BadInput(format!("--noise-model: {e}")))?;
            let model = spec.build(preset.classes, noise, seed ^ 0x5EED);
            DataLake::build_with_zoo(&lake_cfg, model.as_ref())
        }
        None => DataLake::build(&lake_cfg),
    };
    let inventory = lake.inventory().clone();
    let mut arrivals = Vec::with_capacity(lake.pending_requests());
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
    write_json(out, &file.to_json())?;
    Ok(file)
}

/// Loads and validates a lake file.
pub fn load_lake(path: &Path) -> Result<LakeFile, CliError> {
    let text = fs::read_to_string(path)?;
    let file = parse_json(&text)
        .and_then(|v| LakeFile::from_json(&v))
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
    /// Where to persist detector checkpoints between arrivals; `None`
    /// disables checkpointing.
    pub checkpoint: Option<PathBuf>,
    /// Restore from `checkpoint` instead of starting fresh. Requires
    /// `checkpoint` to be set and the file to exist.
    pub resume: bool,
}

/// [`detect`] with checkpoint/resume wiring (`enld detect --checkpoint
/// FILE [--resume]`).
///
/// With a checkpoint path set, detector state is persisted atomically at
/// the start and after every arrival, so a crash costs at most the
/// arrival in flight; it is re-run from its start. With `resume`, the
/// detector is restored from the checkpoint: arrivals that already
/// completed are skipped (their verdicts are *not* re-emitted), the
/// interrupted arrival is re-run bit-identically, and the ledger — if
/// any — is opened in append mode so the interrupted run's records
/// survive.
pub fn detect_with_recovery(
    file: &LakeFile,
    overrides: DetectOverrides,
    ledger: Option<&Path>,
    recovery: RecoveryOptions,
) -> Result<Vec<Verdict>, CliError> {
    let cfg = config_for(file, overrides)?;
    if recovery.resume && recovery.checkpoint.is_none() {
        return Err(CliError::BadInput("--resume requires --checkpoint FILE".to_owned()));
    }
    let mut enld = if recovery.resume {
        let path = recovery.checkpoint.as_deref().expect("checked above");
        let ckpt = Checkpoint::load(path)
            .map_err(|e| CliError::BadInput(format!("checkpoint {}: {e}", path.display())))?;
        Enld::resume_from(&file.inventory, &cfg, &ckpt)
            .map_err(|e| CliError::BadInput(format!("checkpoint {}: {e}", path.display())))?
    } else {
        Enld::init(&file.inventory, &cfg)
    };
    if let Some(path) = &recovery.checkpoint {
        enld.enable_checkpoints(path);
    }
    if let Some(path) = ledger {
        if recovery.resume {
            // Re-derive the monitor's alert state from the interrupted
            // run's records before appending new ones — a restarted
            // process starts with an empty in-memory monitor.
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
    // Completed arrivals are skipped on resume; the one in flight at the
    // crash is not in the checkpoint, so it is re-served from its start.
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
        .map(|(i, data)| Verdict::new(i, enld.detect(data), data, has_truth))
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
    /// Arrivals allowed to wait in the pool's queue (at least 1); with
    /// the queue full, the producer waits for a finished arrival.
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
    for (flag, value) in [("--workers", opts.workers), ("--queue-limit", opts.queue_limit)] {
        if value == 0 {
            return Err(CliError::BadInput(format!("{flag} must be at least 1")));
        }
    }
    let cfg = config_for(file, opts.overrides)?;
    let prototype = Enld::init(&file.inventory, &cfg);
    let has_truth = file.arrivals.iter().any(|a| a.labels() != a.true_labels());
    let ledger_sink = match &opts.ledger {
        Some(path) => Some(Arc::new(JsonlLedger::create(path)?)),
        None => None,
    };

    let pool_cfg = PoolConfig {
        workers: opts.workers,
        queue_limit: opts.queue_limit,
        policy: opts.policy,
        ..PoolConfig::default()
    };
    let mut pool = WorkerPool::spawn(pool_cfg, |worker| {
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
    let mut outcomes = Vec::with_capacity(file.arrivals.len());
    for (i, data) in file.arrivals.iter().enumerate() {
        // Cost = sample count, so SJF can rank unseen arrivals by size.
        let spec =
            JobSpec::new(i as u64, data.clone()).with_class("detect").with_cost(data.len() as f64);
        pool.submit_or_wait(spec, &mut outcomes)
            .map_err(|e| CliError::Serve(format!("arrival {i} not admitted: {e}")))?;
        lake_depth.add(-1.0);
    }
    outcomes.extend(pool.shutdown().map_err(|p| CliError::Serve(p.to_string()))?);

    let mut verdicts = Vec::with_capacity(file.arrivals.len());
    let mut per_worker_jobs = vec![0usize; opts.workers];
    let mut wait_sum = 0.0;
    for outcome in outcomes {
        match outcome {
            JobOutcome::Completed(c) => {
                let arrival = c.id as usize;
                per_worker_jobs[c.worker] += 1;
                wait_sum += c.wait_secs;
                verdicts.push(Verdict::new(arrival, c.result, &file.arrivals[arrival], has_truth));
            }
            JobOutcome::Failed(f) => {
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

/// Per-class audit of one arrival: `(class, flagged, total)` rows from
/// one [`detect`] pass over the lake.
pub fn audit(file: &LakeFile, arrival: usize) -> Result<Vec<(u32, usize, usize)>, CliError> {
    let data = file.arrivals.get(arrival).ok_or_else(|| {
        CliError::BadInput(format!(
            "arrival {arrival} out of range (lake has {})",
            file.arrivals.len()
        ))
    })?;
    let verdicts = detect(file, DetectOverrides::default(), None)?;
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
fn config_for(file: &LakeFile, overrides: DetectOverrides) -> Result<EnldConfig, CliError> {
    let iterations = if file.inventory.classes() <= 30 { 5 } else { 17 };
    let mut cfg = EnldConfig::paper_default(enld_nn::arch::ArchPreset::resnet110_sim(), iterations);
    if let Some(seed) = overrides.seed {
        cfg = cfg.with_seed(seed);
    }
    if let Some(index) = overrides.index {
        cfg.index = index;
    }
    cfg.iterations = overrides.iterations.unwrap_or(cfg.iterations);
    cfg.k = overrides.k.unwrap_or(cfg.k);
    for (flag, value) in [("--iterations", cfg.iterations), ("--k", cfg.k)] {
        if value == 0 {
            return Err(CliError::BadInput(format!("{flag} must be at least 1")));
        }
    }
    Ok(cfg)
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
/// table under `out_dir`.
pub fn bench(grid_path: &Path, out_dir: &Path) -> Result<BenchSummary, CliError> {
    let grid = enld_bench::grid::GridConfig::load(grid_path).map_err(CliError::BadInput)?;
    let opts = enld_bench::grid::GridOptions::default();
    let results = enld_bench::grid::run_grid(&grid, &opts).map_err(CliError::BadInput)?;
    let (json_path, markdown_path) = enld_bench::grid::write_results(&results, out_dir)?;
    Ok(BenchSummary { results, json_path, markdown_path })
}

/// Writes a JSON document on one line.
pub fn write_json(path: &Path, doc: &JsonValue) -> Result<(), CliError> {
    fs::write(path, doc.render(Layout::Compact))?;
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
        let file = generate("test-sim", 0.2, None, None, 3, &path).expect("generate");
        (file, path)
    }

    #[test]
    fn generate_writes_a_loadable_lake() {
        let (file, path) = small_lake("gen");
        assert_eq!(file.arrivals.len(), 4);
        let loaded = load_lake(&path).expect("load");
        assert_eq!(loaded.arrivals.len(), file.arrivals.len());
        // Every f32 survives the trip bit for bit, and so does the rest.
        let bits = |d: &Dataset| d.xs().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (a, b) in std::iter::once((&file.inventory, &loaded.inventory))
            .chain(file.arrivals.iter().zip(&loaded.arrivals))
        {
            assert_eq!(bits(a), bits(b));
            assert_eq!(
                (a.dim(), a.classes(), a.labels(), a.true_labels()),
                (b.dim(), b.classes(), b.labels(), b.true_labels())
            );
            assert_eq!(
                (a.ids(), a.missing_mask(), a.noise_tag()),
                (b.ids(), b.missing_mask(), b.noise_tag())
            );
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn a_feature_that_overflows_its_float_width_is_rejected() {
        let (_, path) = small_lake("overflow");
        let text = fs::read_to_string(&path).expect("read");
        let head = "\"arrivals\":[{\"xs\":[";
        let at = text.find(head).expect("arrival 0") + head.len();
        let end = at + text[at..].find(',').expect("more than one feature");
        // 1e39 overflows f32 and 1e400 overflows f64: both would read as
        // an infinite feature.
        for huge in ["1e39", "1e400"] {
            fs::write(&path, format!("{}{huge}{}", &text[..at], &text[end..])).expect("write");
            let err = load_lake(&path).expect_err(huge).to_string();
            assert!(err.ends_with("arrivals: item 0: xs: item 0: expected f32"), "{huge}: {err}");
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn generate_rejects_bad_inputs() {
        let path = tmp("bad");
        assert!(matches!(
            generate("imagenet", 0.2, None, None, 1, &path),
            Err(CliError::BadInput(_))
        ));
        assert!(matches!(
            generate("test-sim", 1.5, None, None, 1, &path),
            Err(CliError::BadInput(_))
        ));
    }

    #[test]
    fn generate_rejects_bad_noise_models() {
        let path = tmp("zoo_bad");
        // Unknown model name.
        assert!(matches!(
            generate("test-sim", 0.2, Some("nope"), None, 1, &path),
            Err(CliError::BadInput(_))
        ));
        // --noise-model and --drift are mutually exclusive.
        assert!(matches!(
            generate("test-sim", 0.2, Some("drift"), Some(0.5), 1, &path),
            Err(CliError::BadInput(_))
        ));
    }

    #[test]
    fn generate_with_zoo_writes_tagged_lake() {
        let path = tmp("zoo");
        let file = generate("test-sim", 0.3, Some("confusion"), None, 5, &path).expect("generate");
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
    fn noise_tag_survives_the_lake_codec_and_defaults_when_absent() {
        let mut d = Dataset::new(vec![0.0, 1.0, 2.0, 3.0], vec![0, 1], 2, 2);
        d.set_noise_tag("drift");
        let json = dataset_to_json(&d).render(Layout::Compact);
        assert_eq!(
            json,
            r#"{"xs":[0.0,1.0,2.0,3.0],"dim":2,"labels":[0,1],"true_labels":[0,1],"ids":[0,1],"missing":[false,false],"classes":2,"noise_tag":"drift"}"#
        );
        let back = dataset_from_json(&parse_json(&json).unwrap()).unwrap();
        assert_eq!(back.noise_tag(), Some("drift"));
        // Lake files written before the field existed still load.
        let legacy = json.replace(",\"noise_tag\":\"drift\"", "");
        let old = dataset_from_json(&parse_json(&legacy).unwrap()).unwrap();
        assert_eq!(old.noise_tag(), None);
        assert_eq!(dataset_to_json(&old).render(Layout::Compact), legacy);
    }

    #[test]
    fn lake_codec_keeps_awkward_f32_bits() {
        let xs = vec![0.1, -0.0, 1.5e-6, 3.0e-39, f32::MAX, -f32::MIN_POSITIVE, 1e13, 16_777_217.0];
        let d = Dataset::new(xs.clone(), vec![0; xs.len()], 1, 1);
        let json = dataset_to_json(&d).render(Layout::Compact);
        assert!(
            json.starts_with(
                r#"{"xs":[0.1,-0.0,0.0000015,3e-39,3.4028235e38,-1.1754944e-38,1e13,16777216.0],"#
            ),
            "{json}"
        );
        let back = dataset_from_json(&parse_json(&json).unwrap()).unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(back.xs()), bits(d.xs()));
    }

    #[test]
    fn verdicts_write_metrics_or_null() {
        let mut v = Verdict {
            arrival: 2,
            clean: vec![0, 2],
            noisy: vec![1],
            pseudo_labels: vec![(3, 7)],
            process_secs: 0.5,
            metrics: None,
        };
        assert_eq!(
            v.to_json().render(Layout::Compact),
            r#"{"arrival":2,"clean":[0,2],"noisy":[1],"pseudo_labels":[[3,7]],"process_secs":0.5,"metrics":null}"#
        );
        v.metrics = Some(detection_metrics(&[1], &[1], 3));
        assert!(v.to_json().render(Layout::Compact).ends_with(
            r#""metrics":{"precision":1.0,"recall":1.0,"f1":1.0,"true_positives":1,"detected":1,"actual":1}}"#
        ));
    }

    #[test]
    fn load_rejects_malformed_files() {
        let path = tmp("malformed");
        fs::write(&path, "{not json").expect("write");
        assert!(matches!(load_lake(&path), Err(CliError::BadInput(_))));
        fs::write(&path, "{\"format\":\"other\",\"inventory\":null,\"arrivals\":[]}")
            .expect("write");
        assert!(matches!(load_lake(&path), Err(CliError::BadInput(_))));
        // One arrival per broken Dataset invariant: each used to load and
        // panic later (in `class_counts` or `row`).
        let ok = r#"{"xs":[0.0,1.0,2.0,3.0],"dim":2,"labels":[0,1],"true_labels":[0,1],"ids":[0,1],"missing":[false,false],"classes":2}"#;
        let lake = |arrival: &str| {
            format!(r#"{{"format":"enld-lake-v1","inventory":{ok},"arrivals":[{arrival}]}}"#)
        };
        fs::write(&path, lake(ok)).expect("write");
        assert!(load_lake(&path).is_ok(), "the unbroken lake loads");
        for (from, to) in [
            ("\"dim\":2", "\"dim\":0"),
            ("[0.0,1.0,2.0,3.0]", "[0.0,1.0,2.0]"),
            ("\"labels\":[0,1]", "\"labels\":[0,2]"),
            ("\"true_labels\":[0,1]", "\"true_labels\":[0,9]"),
            ("\"true_labels\":[0,1]", "\"true_labels\":[0,1,1]"),
            ("\"ids\":[0,1]", "\"ids\":[0]"),
            ("\"missing\":[false,false]", "\"missing\":[false]"),
        ] {
            fs::write(&path, lake(&ok.replacen(from, to, 1))).expect("write");
            match load_lake(&path) {
                Err(CliError::BadInput(msg)) => {
                    assert!(
                        msg.starts_with("malformed lake file: arrivals: item 0: "),
                        "{to}: {msg}"
                    )
                }
                other => panic!("{to}: expected BadInput, got {other:?}"),
            }
        }
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
        let rows = audit(&file, 0).expect("audit");
        assert!(!rows.is_empty());
        let total: usize = rows.iter().map(|(_, _, t)| t).sum();
        assert_eq!(total, file.arrivals[0].len());
        for (_, flagged, t) in rows {
            assert!(flagged <= t);
        }
        assert!(matches!(audit(&file, 99), Err(CliError::BadInput(_))));
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
    fn detect_rejects_zero_iterations_and_k() {
        let (file, path) = small_lake("detect0");
        for overrides in [
            DetectOverrides { iterations: Some(0), ..Default::default() },
            DetectOverrides { k: Some(0), ..Default::default() },
        ] {
            match detect(&file, overrides, None) {
                Err(CliError::BadInput(msg)) => {
                    assert!(msg.contains("must be at least 1"), "{msg}")
                }
                other => panic!("{overrides:?}: expected BadInput, got {other:?}"),
            }
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn serve_rejects_zero_iterations_and_k() {
        let (file, path) = small_lake("serve0it");
        for overrides in [
            DetectOverrides { iterations: Some(0), ..Default::default() },
            DetectOverrides { k: Some(0), ..Default::default() },
        ] {
            let opts = ServeOptions { workers: 1, overrides, ..ServeOptions::default() };
            assert!(matches!(serve(&file, &opts), Err(CliError::BadInput(_))), "{overrides:?}");
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn serve_rejects_zero_workers() {
        let (file, path) = small_lake("serve0");
        let opts = ServeOptions { workers: 0, ..ServeOptions::default() };
        assert!(matches!(serve(&file, &opts), Err(CliError::BadInput(_))));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn serve_rejects_zero_queue_limit() {
        let (file, path) = small_lake("serve0q");
        let opts = ServeOptions { workers: 1, queue_limit: 0, ..ServeOptions::default() };
        match serve(&file, &opts) {
            Err(CliError::BadInput(msg)) => assert!(msg.contains("--queue-limit"), "{msg}"),
            other => panic!("expected BadInput, got {other:?}"),
        }
        let _ = fs::remove_file(&path);
    }

    /// One FIFO worker fixes the serving order, so a queue of one slot —
    /// where the producer waits on finished arrivals — must give exactly
    /// the verdicts of a queue with room for the whole lake.
    #[test]
    fn serve_through_a_full_queue_matches_a_roomy_one() {
        let (file, path) = small_lake("servefull");
        let run = |queue_limit| {
            let opts = ServeOptions {
                workers: 1,
                queue_limit,
                overrides: DetectOverrides {
                    iterations: Some(3),
                    k: Some(2),
                    seed: Some(1),
                    ..Default::default()
                },
                ..ServeOptions::default()
            };
            let summary = serve(&file, &opts).expect("serve");
            summary.verdicts.into_iter().map(|v| (v.arrival, v.clean, v.noisy)).collect::<Vec<_>>()
        };
        let full = run(1);
        assert_eq!(full.len(), file.arrivals.len());
        assert_eq!(full, run(64));
        let _ = fs::remove_file(&path);
    }
}
