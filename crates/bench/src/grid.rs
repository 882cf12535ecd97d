//! The detector benchmark grid: noise model × rate × dataset preset ×
//! detector, scored on detection quality and downstream accuracy.
//!
//! This is the evaluation surface the noisy-label benchmarking literature
//! uses (PAPERS.md: the probing survey and "Benchmarking noisy label
//! detection methods"), surfaced as `enld bench --grid FILE`. A grid file
//! names the axes; [`run_grid`] builds one lake per (noise model, rate,
//! preset) configuration via [`DataLake::build_with_zoo`] — so drift
//! noise actually drifts along the arrival stream — trains one shared
//! general model per configuration, then scores every requested detector
//! on the same arrivals.
//!
//! Configurations run in parallel over `enld-par` with per-configuration
//! seeds derived from the grid seed, so results are **bit-identical at
//! any thread count**. The results JSON (`enld-bench-results-v1`)
//! deliberately contains no wall-clock fields — byte equality across
//! `ENLD_THREADS={1,4}` is a tested invariant, and the golden-score
//! regression test (`tests/tests/bench_grid.rs`) compares it against a
//! committed snapshot; wall-clock cost is `perf/`'s job.

use std::fs;
use std::path::Path;
use std::str::FromStr;

use enld_baselines::common::DetectorKind;
use enld_baselines::topofilter::TopofilterConfig;
use enld_core::config::EnldConfig;
use enld_core::detector::Enld;
use enld_core::metrics::{detection_metrics, f1_std, mean_metrics, DetectionMetrics};
use enld_datagen::presets::DatasetPreset;
use enld_datagen::zoo::NoiseSpec;
use enld_datagen::Dataset;
use enld_lake::lake::{DataLake, LakeConfig};
use enld_nn::arch::ArchPreset;
use enld_nn::data::DataRef;
use enld_nn::model::Mlp;
use enld_nn::trainer::Trainer;
use enld_telemetry as telemetry;
use enld_telemetry::json::{parse_json, Json, Layout};

use crate::runner::baseline;

/// Results JSON format tag; bump when the cell schema changes.
pub const RESULTS_FORMAT: &str = "enld-bench-results-v1";

/// One dataset axis entry of a grid file.
#[derive(Debug, Clone, PartialEq)]
pub struct GridPreset {
    /// Preset name (`test-sim`, `emnist-sim`, `cifar100-sim`, …).
    pub name: String,
    /// Multiplier on the preset's `samples_per_class` (default 1.0).
    pub scale: f32,
}

enld_telemetry::impl_json!(GridPreset: name, scale = 1.0);

/// A benchmark grid specification, parsed from `--grid FILE`.
#[derive(Debug, Clone, PartialEq)]
pub struct GridConfig {
    /// Master seed; every configuration derives its own from it.
    pub seed: u64,
    /// Noise-model axis ([`NoiseSpec`] names).
    pub noise_models: Vec<String>,
    /// Noise-rate axis.
    pub rates: Vec<f32>,
    /// Dataset-preset axis.
    pub presets: Vec<GridPreset>,
    /// Detector axis ([`DetectorKind`] names).
    pub detectors: Vec<String>,
    /// ENLD fine-grained iterations per task (small default 3 keeps
    /// grids tractable; the full paper value is 17).
    pub iterations: usize,
    /// General-model training epochs (default 12).
    pub init_epochs: usize,
    /// Arrivals scored per configuration (default 2).
    pub max_arrivals: usize,
    /// Epochs for the downstream accuracy-after-drop probe model
    /// (default 8).
    pub downstream_epochs: usize,
}

enld_telemetry::impl_json! {
    GridConfig: seed, noise_models, rates, presets, detectors,
    iterations = 3, init_epochs = 12, max_arrivals = 2, downstream_epochs = 8
}

impl GridConfig {
    /// Parses and validates a grid file.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = fs::read_to_string(path)
            .map_err(|e| format!("cannot read grid file {}: {e}", path.display()))?;
        let grid = parse_json(&text)
            .and_then(|v| Self::from_json(&v))
            .map_err(|e| format!("malformed grid file: {e}"))?;
        grid.validate()?;
        Ok(grid)
    }

    /// Checks every axis entry resolves; returns the first problem.
    pub fn validate(&self) -> Result<(), String> {
        if self.noise_models.is_empty()
            || self.rates.is_empty()
            || self.presets.is_empty()
            || self.detectors.is_empty()
        {
            return Err("grid axes must all be non-empty".to_owned());
        }
        for m in &self.noise_models {
            NoiseSpec::from_str(m)?;
        }
        for d in &self.detectors {
            DetectorKind::from_str(d)?;
        }
        for r in &self.rates {
            if !(0.0..=1.0).contains(r) {
                return Err(format!("noise rate {r} outside [0, 1]"));
            }
        }
        for p in &self.presets {
            if DatasetPreset::by_name(&p.name).is_none() {
                return Err(format!("unknown preset '{}'", p.name));
            }
            if !p.scale.is_finite() || p.scale <= 0.0 {
                return Err(format!("preset scale {} must be positive", p.scale));
            }
        }
        if self.max_arrivals == 0 {
            return Err("max_arrivals must be at least 1".to_owned());
        }
        if self.iterations == 0 {
            return Err("iterations must be at least 1".to_owned());
        }
        Ok(())
    }

    fn specs(&self) -> Vec<NoiseSpec> {
        self.noise_models.iter().map(|m| m.parse().expect("validated")).collect()
    }

    fn kinds(&self) -> Vec<DetectorKind> {
        self.detectors.iter().map(|d| d.parse().expect("validated")).collect()
    }
}

/// Harness options orthogonal to the grid axes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GridOptions {
    /// Injected-regression knob: deterministically drop this fraction of
    /// the named detector's detections in every cell, degrading its
    /// recall/F1. Exists so the golden-score regression test can prove a
    /// quality regression actually fails the comparison; `enld bench`
    /// always runs with the default, `None`.
    pub degrade: Option<(DetectorKind, f32)>,
}

/// One scored (noise model, rate, preset, detector) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct GridCell {
    pub noise_model: String,
    pub rate: f32,
    pub preset: String,
    pub detector: String,
    /// Mean detection precision/recall/F1 over the scored arrivals.
    pub precision: f64,
    pub recall: f64,
    pub f1: f64,
    pub f1_std: f64,
    /// Accuracy of a probe model trained on the detector-kept samples
    /// (observed labels) and evaluated on a held-out clean set — the
    /// "accuracy after dropping flagged samples" score.
    pub downstream_acc: f64,
    /// Mean `enld.drift.p_staleness` over arrivals (ENLD only; not
    /// written when absent).
    pub p_staleness: Option<f64>,
    pub arrivals: usize,
}

impl GridCell {
    /// Stable identity of a cell across runs (everything but the scores).
    pub fn key(&self) -> String {
        format!("{}|{}|{}|{}", self.noise_model, self.rate, self.preset, self.detector)
    }
}

enld_telemetry::impl_json! {
    GridCell: noise_model, rate, preset, detector, precision, recall, f1, f1_std, downstream_acc,
    p_staleness, arrivals
}

/// Per-detector aggregate over every cell it appeared in, ranked by mean
/// F1.
#[derive(Debug, Clone, PartialEq)]
pub struct RankingRow {
    pub detector: String,
    pub mean_f1: f64,
    pub mean_downstream_acc: f64,
    pub cells: usize,
}

enld_telemetry::impl_json!(RankingRow: detector, mean_f1, mean_downstream_acc, cells);

/// The versioned results document `enld bench` writes under `results/`.
///
/// Deliberately free of wall-clock timings, hostnames and dates: two runs
/// of the same grid at any `ENLD_THREADS` must serialize to identical
/// bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct GridResults {
    pub format: String,
    pub grid: GridConfig,
    pub cells: Vec<GridCell>,
    pub ranking: Vec<RankingRow>,
}

// The document `bench-grid.json` holds (render it with `Layout::Pretty`).
enld_telemetry::impl_json!(GridResults: format, grid, cells, ranking);

/// Runs every cell of the grid.
///
/// Work is sharded per (noise model, rate, preset) *configuration* — the
/// expensive unit, since each configuration trains one shared general
/// model — over [`enld_par::par_map`] with chunk size 1. Each
/// configuration derives all of its randomness from
/// `grid.seed ⊕ mix(config index)`, so the schedule cannot leak between
/// cells and the output is bit-identical at any thread count.
pub fn run_grid(grid: &GridConfig, opts: &GridOptions) -> Result<GridResults, String> {
    grid.validate()?;
    let specs = grid.specs();
    let kinds = grid.kinds();

    // The configuration axis, in deterministic row-major order.
    let mut configs: Vec<(NoiseSpec, f32, GridPreset)> = Vec::new();
    for spec in &specs {
        for &rate in &grid.rates {
            for preset in &grid.presets {
                configs.push((*spec, rate, preset.clone()));
            }
        }
    }

    let run_span = telemetry::span("bench.grid")
        .field("configs", configs.len())
        .field("detectors", kinds.len())
        .entered();
    let cell_groups: Vec<Result<Vec<GridCell>, String>> =
        enld_par::par_map(configs.len(), 1, |ci| {
            let (spec, rate, preset) = &configs[ci];
            run_config(grid, opts, *spec, *rate, preset, &kinds, config_seed(grid.seed, ci))
        });
    drop(run_span);

    let mut cells = Vec::with_capacity(configs.len() * kinds.len());
    for group in cell_groups {
        cells.extend(group?);
    }

    let ranking = rank(&kinds, &cells);
    Ok(GridResults { format: RESULTS_FORMAT.to_owned(), grid: grid.clone(), cells, ranking })
}

/// Golden-ratio mix so consecutive configuration seeds share no
/// low-bit structure with the grid seed or each other.
fn config_seed(seed: u64, index: usize) -> u64 {
    seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Runs one (noise model, rate, preset) configuration: builds the lake,
/// trains the shared general model, and scores every requested detector
/// on the same arrivals.
fn run_config(
    grid: &GridConfig,
    opts: &GridOptions,
    spec: NoiseSpec,
    rate: f32,
    grid_preset: &GridPreset,
    kinds: &[DetectorKind],
    seed: u64,
) -> Result<Vec<GridCell>, String> {
    let mut span = telemetry::span("bench.grid.config")
        .field("noise_model", spec.name())
        .field("rate", rate as f64)
        .field("preset", grid_preset.name.as_str())
        .entered();
    let base = DatasetPreset::by_name(&grid_preset.name).expect("validated");
    let preset = if (grid_preset.scale - 1.0).abs() < f32::EPSILON {
        base
    } else {
        base.scaled(grid_preset.scale)
    };

    let model = spec.build(preset.classes, rate, seed ^ 0x5EED);
    let mut lake =
        DataLake::build_with_zoo(&LakeConfig { preset, noise_rate: rate, seed }, model.as_ref());

    let mut cfg = EnldConfig::fast_test().with_seed(seed);
    cfg.iterations = grid.iterations;
    cfg.init_train.epochs = grid.init_epochs;
    let mut enld = Enld::init(lake.inventory(), &cfg);

    // Arrivals to score (ground truth captured before detection).
    let n = grid.max_arrivals.min(lake.pending_requests());
    let mut arrivals: Vec<Dataset> = Vec::with_capacity(n);
    while arrivals.len() < n {
        arrivals.push(lake.next_request().expect("pending_requests counted").data);
    }

    // Per-detector accumulators: detection metrics per arrival + the
    // union of kept (clean-flagged) samples for the downstream probe.
    struct Acc {
        metrics: Vec<DetectionMetrics>,
        kept: Vec<(usize, usize)>, // (arrival, sample)
        staleness: Vec<f64>,
    }
    let mut accs: Vec<Acc> = kinds
        .iter()
        .map(|_| Acc { metrics: Vec::new(), kept: Vec::new(), staleness: Vec::new() })
        .collect();

    for (ai, arrival) in arrivals.iter().enumerate() {
        let truth = arrival.noisy_indices();
        for (ki, &kind) in kinds.iter().enumerate() {
            let (mut clean, mut noisy, staleness) = match kind {
                DetectorKind::Enld => {
                    let report = enld.detect(arrival);
                    (report.clean, report.noisy, Some(report.p_staleness))
                }
                _ => {
                    // Built fresh per arrival so baseline state never
                    // couples cells.
                    let topo = TopofilterConfig {
                        rounds: 2,
                        epochs_per_round: 3,
                        seed,
                        ..Default::default()
                    };
                    let mut det = baseline(kind, &enld, lake.inventory(), topo);
                    let report = det.detect(arrival);
                    (report.clean, report.noisy, None)
                }
            };
            if let Some((victim, frac)) = opts.degrade {
                if victim == kind {
                    degrade_detections(&mut clean, &mut noisy, frac);
                }
            }
            accs[ki].metrics.push(detection_metrics(&noisy, &truth, arrival.len()));
            accs[ki].kept.extend(clean.iter().map(|&s| (ai, s)));
            if let Some(p) = staleness {
                accs[ki].staleness.push(p);
            }
        }
    }

    let mut cells = Vec::with_capacity(kinds.len());
    for (ki, &kind) in kinds.iter().enumerate() {
        let acc = &accs[ki];
        let mean = mean_metrics(&acc.metrics);
        let downstream =
            downstream_accuracy(&preset, &arrivals, &acc.kept, grid.downstream_epochs, seed);
        let p_staleness = if acc.staleness.is_empty() {
            None
        } else {
            Some(acc.staleness.iter().sum::<f64>() / acc.staleness.len() as f64)
        };
        cells.push(GridCell {
            noise_model: spec.name().to_owned(),
            rate,
            preset: grid_preset.name.clone(),
            detector: kind.name().to_owned(),
            precision: mean.precision,
            recall: mean.recall,
            f1: mean.f1,
            f1_std: f1_std(&acc.metrics),
            downstream_acc: downstream,
            p_staleness,
            arrivals: arrivals.len(),
        });
    }
    span.record("cells", cells.len());
    Ok(cells)
}

/// Deterministically degrades a detection result: the first
/// `ceil(frac · |noisy|)` flagged samples are reclassified as clean,
/// suppressing recall the way a real detector regression would.
fn degrade_detections(clean: &mut Vec<usize>, noisy: &mut Vec<usize>, frac: f32) {
    let drop = ((noisy.len() as f32) * frac).ceil() as usize;
    let drop = drop.min(noisy.len());
    for s in noisy.drain(..drop) {
        clean.push(s);
    }
    clean.sort_unstable();
}

/// Accuracy-after-drop: train a small probe MLP on the samples the
/// detector kept (their *observed* labels — flagged samples are dropped,
/// not corrected) and evaluate on a freshly generated clean evaluation
/// set from the same preset. Better detectors keep cleaner data and score
/// higher; a detector that throws everything away has nothing to train on
/// and scores at chance.
fn downstream_accuracy(
    preset: &DatasetPreset,
    arrivals: &[Dataset],
    kept: &[(usize, usize)],
    epochs: usize,
    seed: u64,
) -> f64 {
    if kept.is_empty() || arrivals.is_empty() {
        return 0.0;
    }
    let dim = arrivals[0].dim();
    let classes = arrivals[0].classes();
    let mut xs = Vec::with_capacity(kept.len() * dim);
    let mut labels = Vec::with_capacity(kept.len());
    for &(ai, s) in kept {
        xs.extend_from_slice(arrivals[ai].row(s));
        labels.push(arrivals[ai].labels()[s]);
    }
    let arch = ArchPreset::tiny().config(dim, classes);
    let mut probe = Mlp::new(&arch, seed ^ 0xD0D0);
    let train_cfg = enld_nn::trainer::TrainConfig {
        epochs,
        batch_size: 32,
        mixup_alpha: None,
        ..Default::default()
    };
    let mut trainer = Trainer::new(train_cfg, seed ^ 0xD1D1);
    trainer.fit(&mut probe, DataRef::new(&xs, &labels, dim), None);

    // Clean held-out set: same manifold, disjoint generation seed, true
    // labels by construction.
    let eval = preset.spec.generate(eval_samples_per_class(preset), seed ^ EVAL_SEED_MIX);
    probe.accuracy(DataRef::new(eval.xs(), eval.labels(), eval.dim())) as f64
}

/// Evaluation-set size: a quarter of the training corpus per class,
/// floored at 8 so tiny grids still measure something.
fn eval_samples_per_class(preset: &DatasetPreset) -> usize {
    (preset.samples_per_class / 4).max(8)
}

const EVAL_SEED_MIX: u64 = 0xE7A1;

/// Per-detector means over every cell, ranked best-first by mean F1
/// (ties broken by downstream accuracy, then name for stability).
fn rank(kinds: &[DetectorKind], cells: &[GridCell]) -> Vec<RankingRow> {
    let mut rows: Vec<RankingRow> = kinds
        .iter()
        .map(|k| {
            let mine: Vec<&GridCell> = cells.iter().filter(|c| c.detector == k.name()).collect();
            let n = mine.len().max(1) as f64;
            RankingRow {
                detector: k.name().to_owned(),
                mean_f1: mine.iter().map(|c| c.f1).sum::<f64>() / n,
                mean_downstream_acc: mine.iter().map(|c| c.downstream_acc).sum::<f64>() / n,
                cells: mine.len(),
            }
        })
        .collect();
    rows.sort_by(|a, b| {
        b.mean_f1
            .total_cmp(&a.mean_f1)
            .then(b.mean_downstream_acc.total_cmp(&a.mean_downstream_acc))
            .then(a.detector.cmp(&b.detector))
    });
    rows
}

/// Renders the ranking as a markdown table.
pub fn render_ranking_markdown(results: &GridResults) -> String {
    let mut out = String::new();
    out.push_str("# Detector ranking\n\n");
    out.push_str(&format!(
        "Grid: {} noise models × {} rates × {} presets × {} detectors ({} cells).\n\n",
        results.grid.noise_models.len(),
        results.grid.rates.len(),
        results.grid.presets.len(),
        results.grid.detectors.len(),
        results.cells.len(),
    ));
    out.push_str("| rank | detector | mean F1 | mean downstream acc | cells |\n");
    out.push_str("|-----:|----------|--------:|--------------------:|------:|\n");
    for (i, row) in results.ranking.iter().enumerate() {
        out.push_str(&format!(
            "| {} | {} | {:.4} | {:.4} | {} |\n",
            i + 1,
            row.detector,
            row.mean_f1,
            row.mean_downstream_acc,
            row.cells
        ));
    }
    out.push_str("\n## Cells\n\n");
    out.push_str(
        "| noise model | rate | preset | detector | precision | recall | F1 | downstream acc |\n",
    );
    out.push_str(
        "|-------------|-----:|--------|----------|----------:|-------:|---:|---------------:|\n",
    );
    for c in &results.cells {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {:.4} | {:.4} | {:.4} | {:.4} |\n",
            c.noise_model,
            c.rate,
            c.preset,
            c.detector,
            c.precision,
            c.recall,
            c.f1,
            c.downstream_acc
        ));
    }
    out
}

/// Writes the results JSON and markdown ranking table under `out_dir`;
/// returns the two paths.
pub fn write_results(
    results: &GridResults,
    out_dir: &Path,
) -> std::io::Result<(std::path::PathBuf, std::path::PathBuf)> {
    fs::create_dir_all(out_dir)?;
    let json_path = out_dir.join("bench-grid.json");
    fs::write(&json_path, results.to_json().render(Layout::Pretty))?;
    let md_path = out_dir.join("bench-grid-ranking.md");
    fs::write(&md_path, render_ranking_markdown(results))?;
    Ok((json_path, md_path))
}

/// Loads a previously written (or golden) results document.
pub fn load_results(path: &Path) -> Result<GridResults, String> {
    let text = fs::read_to_string(path)
        .map_err(|e| format!("cannot read results file {}: {e}", path.display()))?;
    let results = parse_json(&text)
        .and_then(|v| GridResults::from_json(&v))
        .map_err(|e| format!("malformed results file: {e}"))?;
    if results.format != RESULTS_FORMAT {
        return Err(format!(
            "unsupported results format '{}' (expected {RESULTS_FORMAT})",
            results.format
        ));
    }
    Ok(results)
}

/// Compares `current` against a `golden` snapshot: every golden cell must
/// exist in `current` with F1 and downstream accuracy within
/// `tolerance`. Returns the list of violations (empty = pass).
pub fn compare_to_golden(
    current: &GridResults,
    golden: &GridResults,
    tolerance: f64,
) -> Vec<String> {
    let mut problems = Vec::new();
    for g in &golden.cells {
        match current.cells.iter().find(|c| c.key() == g.key()) {
            None => problems.push(format!("cell {} missing from current results", g.key())),
            Some(c) => {
                if (c.f1 - g.f1).abs() > tolerance {
                    problems.push(format!(
                        "cell {}: F1 {:.4} deviates from golden {:.4} by more than {tolerance}",
                        g.key(),
                        c.f1,
                        g.f1
                    ));
                }
                if (c.downstream_acc - g.downstream_acc).abs() > tolerance {
                    problems.push(format!(
                        "cell {}: downstream acc {:.4} deviates from golden {:.4} \
                         by more than {tolerance}",
                        g.key(),
                        c.downstream_acc,
                        g.downstream_acc
                    ));
                }
            }
        }
    }
    problems
}

/// A 2-cell smoke grid (1 model × 1 rate × 1 preset × 2 detectors) used
/// by `scripts/bench_suite_smoke.sh` and unit tests.
pub fn smoke_grid() -> GridConfig {
    GridConfig {
        seed: 7,
        noise_models: vec!["pairwise".to_owned()],
        rates: vec![0.2],
        presets: vec![GridPreset { name: "test-sim".to_owned(), scale: 0.4 }],
        detectors: vec!["ENLD".to_owned(), "Default".to_owned()],
        iterations: 2,
        init_epochs: 8,
        max_arrivals: 1,
        downstream_epochs: 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_grid() -> GridConfig {
        GridConfig {
            seed: 11,
            noise_models: vec!["pairwise".to_owned(), "drift".to_owned()],
            rates: vec![0.2],
            presets: vec![GridPreset { name: "test-sim".to_owned(), scale: 0.4 }],
            detectors: vec!["ENLD".to_owned(), "Default".to_owned()],
            iterations: 2,
            init_epochs: 8,
            max_arrivals: 2,
            downstream_epochs: 4,
        }
    }

    #[test]
    fn grid_file_defaults_are_pinned() {
        // A grid file may omit every budget knob and a preset's scale, and
        // may carry keys this version does not know.
        let file = r#"{"seed": 1, "noise_models": ["pairwise"], "rates": [0.2],
            "presets": [{"name": "test-sim"}], "detectors": ["ENLD"], "note": "x"}"#;
        let g = GridConfig::from_json(&parse_json(file).unwrap()).expect("defaults apply");
        assert_eq!(g.presets[0].scale, 1.0);
        assert_eq!(
            (g.iterations, g.init_epochs, g.max_arrivals, g.downstream_epochs),
            (3, 12, 2, 8)
        );
        // A field that is present must have its type.
        let err = |text: &str| GridConfig::from_json(&parse_json(text).unwrap()).unwrap_err();
        assert_eq!(err(&file.replace("\"seed\": 1", "\"seed\": 1.5")), "seed: expected u64");
        assert_eq!(err(&file.replace("0.2", "\"0.2\"")), "rates: item 0: expected f32");
        assert_eq!(err(&file.replace("\"note\"", "\"iterations\"")), "iterations: expected usize");
        assert_eq!(err(&file.replace("\"seed\": 1,", "")), "field \"seed\" is missing");
    }

    #[test]
    fn results_json_layout_is_pinned() {
        let cell = |detector: &str, p_staleness| GridCell {
            noise_model: "pairwise".into(),
            rate: 0.2,
            preset: "test-sim".into(),
            detector: detector.into(),
            precision: 1.0,
            recall: 0.5,
            f1: 2.0 / 3.0,
            f1_std: 0.0,
            downstream_acc: 0.875,
            p_staleness,
            arrivals: 1,
        };
        let results = GridResults {
            format: RESULTS_FORMAT.to_owned(),
            grid: smoke_grid(),
            cells: vec![cell("ENLD", Some(0.25)), cell("Default", None)],
            ranking: Vec::new(),
        };
        let text = results.to_json().render(Layout::Pretty);
        assert!(
            text.starts_with(
                "{\n  \"format\": \"enld-bench-results-v1\",\n  \"grid\": {\n    \"seed\": 7,"
            ),
            "{text}"
        );
        assert!(
            text.contains("\"rates\": [\n      0.2\n    ]"),
            "an f32 keeps its own digits: {text}"
        );
        assert!(text.contains("\"scale\": 0.4\n"), "{text}");
        assert!(text.contains("\"f1\": 0.6666666666666666,"), "{text}");
        assert!(text.contains("\"precision\": 1.0,"), "{text}");
        assert_eq!(text.matches("p_staleness").count(), 1, "an absent p_staleness is not written");
        assert!(text.ends_with("\"ranking\": []\n}"), "{text}");
        assert_eq!(GridResults::from_json(&parse_json(&text).unwrap()), Ok(results));
    }

    #[test]
    fn validate_rejects_bad_axes() {
        let mut g = tiny_grid();
        g.noise_models = vec!["nope".to_owned()];
        assert!(g.validate().is_err());
        let mut g = tiny_grid();
        g.detectors = vec!["NotADetector".to_owned()];
        assert!(g.validate().is_err());
        let mut g = tiny_grid();
        g.rates = vec![1.5];
        assert!(g.validate().is_err());
        let mut g = tiny_grid();
        g.presets[0].name = "missing-sim".to_owned();
        assert!(g.validate().is_err());
        let mut g = tiny_grid();
        g.rates.clear();
        assert!(g.validate().is_err());
        assert!(tiny_grid().validate().is_ok());
    }

    #[test]
    fn zero_iterations_is_an_error_not_a_panic() {
        let grid = GridConfig { iterations: 0, ..smoke_grid() };
        let err = run_grid(&grid, &GridOptions::default()).expect_err("iterations 0");
        assert_eq!(err, "iterations must be at least 1");
    }

    #[test]
    fn grid_produces_every_cell() {
        let grid = tiny_grid();
        let results = run_grid(&grid, &GridOptions::default()).expect("grid runs");
        assert_eq!(results.format, RESULTS_FORMAT);
        // 2 models × 1 rate × 1 preset × 2 detectors.
        assert_eq!(results.cells.len(), 4);
        for cell in &results.cells {
            assert!((0.0..=1.0).contains(&cell.f1), "f1 {}", cell.f1);
            assert!((0.0..=1.0).contains(&cell.downstream_acc));
            assert_eq!(cell.arrivals, 2);
            if cell.detector == "ENLD" {
                assert!(cell.p_staleness.is_some(), "ENLD cells carry staleness");
            } else {
                assert!(cell.p_staleness.is_none());
            }
        }
        // Ranking covers both detectors and is sorted by mean F1.
        assert_eq!(results.ranking.len(), 2);
        assert!(results.ranking[0].mean_f1 >= results.ranking[1].mean_f1);
        // Markdown renders both sections.
        let md = render_ranking_markdown(&results);
        assert!(md.contains("# Detector ranking"));
        assert!(md.contains("| ENLD |") || md.contains("| 1 | ENLD |"));
    }

    #[test]
    fn degrade_knob_lowers_f1() {
        let grid = smoke_grid();
        let honest = run_grid(&grid, &GridOptions::default()).expect("grid runs");
        let degraded = run_grid(&grid, &GridOptions { degrade: Some((DetectorKind::Enld, 0.9)) })
            .expect("grid runs");
        let f1 =
            |r: &GridResults| r.cells.iter().find(|c| c.detector == "ENLD").expect("ENLD cell").f1;
        assert!(
            f1(&degraded) < f1(&honest),
            "degrade must lower ENLD F1 ({} vs {})",
            f1(&degraded),
            f1(&honest)
        );
        // And the golden comparison catches it.
        let problems = compare_to_golden(&degraded, &honest, 0.02);
        assert!(!problems.is_empty(), "regression must be detected");
        // While an identical run passes.
        assert!(compare_to_golden(&honest, &honest, 0.02).is_empty());
    }

    #[test]
    fn degrade_detections_moves_flagged_samples() {
        let mut clean = vec![0, 2];
        let mut noisy = vec![1, 3, 4, 5];
        degrade_detections(&mut clean, &mut noisy, 0.5);
        assert_eq!(noisy, vec![4, 5]);
        assert_eq!(clean, vec![0, 1, 2, 3]);
        // frac 0 drops nothing; frac 1 empties the set.
        let mut clean = vec![];
        let mut noisy = vec![7];
        degrade_detections(&mut clean, &mut noisy, 0.0);
        assert_eq!(noisy, vec![7]);
        degrade_detections(&mut clean, &mut noisy, 1.0);
        assert!(noisy.is_empty());
    }
}
