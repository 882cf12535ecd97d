//! Shared sweep machinery: run every detection method over one data-lake
//! configuration and collect metrics plus timing.

use enld_baselines::common::NoisyLabelDetector;
use enld_baselines::confident::{ConfidentLearning, PruneMethod};
use enld_baselines::default_detector::DefaultDetector;
use enld_baselines::topofilter::{Topofilter, TopofilterConfig};
use enld_core::config::EnldConfig;
use enld_core::detector::Enld;
use enld_core::metrics::{detection_metrics, DetectionMetrics};
use enld_core::report::DetectionReport;
use enld_datagen::presets::DatasetPreset;
use enld_datagen::Dataset;
use enld_lake::lake::{DataLake, LakeConfig};
use enld_nn::arch::ArchPreset;
use enld_telemetry as telemetry;

use crate::rows::MethodRow;
use crate::scale::RunScale;

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// Process-wide cache of expensive general-model setups. The key captures
/// everything that shapes `Enld::init` (preset, noise, seed, backbone and
/// init-training settings); experiments that sweep detection-time knobs
/// (policy, k, ablation) reuse one setup via `Enld::reconfigure`.
fn setup_cache() -> &'static Mutex<HashMap<String, Enld>> {
    static CACHE: OnceLock<Mutex<HashMap<String, Enld>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Returns a ready `Enld` for this configuration, reusing a cached setup
/// when one exists. The returned value is independent state (cloned from
/// the cache), reconfigured to `cfg`.
pub fn cached_enld_init(preset: &DatasetPreset, noise: f32, cfg: &EnldConfig) -> Enld {
    let key = format!(
        "{}|{}|{}|{}|{}|{:?}",
        preset.name, preset.samples_per_class, noise, cfg.seed, cfg.arch.name, cfg.init_train
    );
    let cache = setup_cache().lock().expect("setup cache poisoned");
    if let Some(cached) = cache.get(&key) {
        let mut enld = cached.clone();
        enld.reconfigure(cfg);
        return enld;
    }
    drop(cache);
    // Build outside the lock (single-threaded harness, but keep it sane).
    let lake = DataLake::build(&LakeConfig { preset: *preset, noise_rate: noise, seed: cfg.seed });
    let enld = Enld::init(lake.inventory(), cfg);
    setup_cache().lock().expect("setup cache poisoned").insert(key, enld.clone());
    enld
}

/// Which methods to include in a sweep.
#[derive(Debug, Clone, Copy)]
pub struct MethodSet {
    pub default: bool,
    pub confident: bool,
    pub topofilter: bool,
    pub enld: bool,
}

impl MethodSet {
    /// Every method of Fig. 4/5/7.
    pub fn all() -> Self {
        Self { default: true, confident: true, topofilter: true, enld: true }
    }

    /// ENLD vs Topofilter only (Fig. 6).
    pub fn training_based() -> Self {
        Self { default: false, confident: false, topofilter: true, enld: true }
    }

    /// ENLD alone (Fig. 9–14, Table II).
    pub fn enld_only() -> Self {
        Self { default: false, confident: false, topofilter: false, enld: true }
    }
}

/// Everything a sweep produces for one `(dataset, noise)` configuration.
pub struct SweepResult {
    pub rows: Vec<MethodRow>,
    /// ENLD's full reports, in arrival order (for Fig. 9 / Fig. 13b).
    pub enld_reports: Vec<DetectionReport>,
    /// Ground-truth noisy indices per incremental dataset.
    pub truths: Vec<Vec<usize>>,
    /// Incremental dataset sizes.
    pub lens: Vec<usize>,
    /// The incremental datasets themselves (small; kept for follow-up
    /// evaluation such as Table II).
    pub requests: Vec<Dataset>,
    /// The post-sweep ENLD state (for Table II's model update).
    pub enld: Option<Enld>,
}

/// Runs the configured methods over one lake.
///
/// All methods share the same general model (trained once inside
/// `Enld::init`, matching the paper's shared setup time for Default, CL
/// and ENLD). Process time is measured per incremental dataset inside each
/// detector. `mutate` tweaks the ENLD configuration after defaults are
/// applied (sampling policy, ablation variant, `k`, …).
pub fn run_method_sweep(
    scale: &RunScale,
    base: DatasetPreset,
    noise: f32,
    seed: u64,
    arch: ArchPreset,
    methods: MethodSet,
    mutate: &dyn Fn(&mut EnldConfig),
) -> SweepResult {
    let preset = scale.preset(base);
    let mut sweep_span = telemetry::span("bench.sweep")
        .field("preset", preset.name)
        .field("noise", noise as f64)
        .entered();
    let mut lake = DataLake::build(&LakeConfig { preset, noise_rate: noise, seed });
    let mut cfg: EnldConfig = scale.enld_config(&preset, seed);
    cfg.arch = arch;
    mutate(&mut cfg);
    let mut enld = cached_enld_init(&preset, noise, &cfg);
    let setup = enld.setup_secs();

    let mut baselines: Vec<Box<dyn NoisyLabelDetector>> = Vec::new();
    if methods.default {
        baselines.push(Box::new(DefaultDetector::new(enld.model().clone()).with_setup_secs(setup)));
    }
    if methods.confident {
        for m in [PruneMethod::ByClass, PruneMethod::ByNoiseRate] {
            baselines.push(Box::new(
                ConfidentLearning::new(enld.model().clone(), m, Some(enld.candidate_set()))
                    .with_setup_secs(setup),
            ));
        }
    }
    if methods.topofilter {
        let topo_cfg = TopofilterConfig {
            rounds: scale.topo_rounds,
            epochs_per_round: scale.topo_epochs,
            seed,
            ..Default::default()
        };
        baselines.push(Box::new(
            Topofilter::new(enld.model().clone(), lake.inventory().clone(), topo_cfg)
                .with_setup_secs(setup),
        ));
    }

    let n = scale.cap(lake.pending_requests());
    // Per method: name, per-dataset metrics, per-dataset process seconds.
    let mut per_method: Vec<(String, Vec<DetectionMetrics>, Vec<f64>)> =
        baselines.iter().map(|b| (b.name().to_owned(), Vec::new(), Vec::new())).collect();
    let mut enld_metrics: Vec<DetectionMetrics> = Vec::new();
    let mut enld_secs: Vec<f64> = Vec::new();
    let mut enld_reports = Vec::new();
    let mut truths = Vec::new();
    let mut lens = Vec::new();
    let mut requests = Vec::new();

    // Emulate the §V-A3 deployment queue: one FIFO worker, back-to-back
    // arrivals, so request i waits for every earlier request's processing.
    // This keeps a queue-wait histogram in the snapshot even for sweeps
    // that run the detector inline rather than through a worker pool.
    let wait_hist = telemetry::metrics::global().histogram("lake.queue.wait_secs");
    let mut backlog_wait = 0.0f64;

    for _ in 0..n {
        let req = lake.next_request().expect("capped by pending_requests");
        let truth = req.data.noisy_indices();
        for (det, acc) in baselines.iter_mut().zip(per_method.iter_mut()) {
            let report = det.detect(&req.data);
            acc.1.push(detection_metrics(&report.noisy, &truth, req.data.len()));
            acc.2.push(report.process_secs);
        }
        if methods.enld {
            wait_hist.record(backlog_wait);
            let report = enld.detect(&req.data);
            backlog_wait += report.process_secs;
            enld_metrics.push(detection_metrics(&report.noisy, &truth, req.data.len()));
            enld_secs.push(report.process_secs);
            enld_reports.push(report);
        }
        truths.push(truth);
        lens.push(req.data.len());
        requests.push(req.data);
    }

    let mut rows: Vec<MethodRow> = per_method
        .into_iter()
        .map(|(name, metrics, secs)| {
            MethodRow::from_metrics(preset.name, &name, noise, &metrics, mean_secs(&secs), setup)
        })
        .collect();
    if methods.enld {
        rows.push(MethodRow::from_metrics(
            preset.name,
            "ENLD",
            noise,
            &enld_metrics,
            mean_secs(&enld_secs),
            setup,
        ));
    }

    sweep_span.record("requests", n);
    sweep_span.record("methods", rows.len());

    SweepResult { rows, enld_reports, truths, lens, requests, enld: methods.enld.then_some(enld) }
}

/// Mean process time per incremental dataset (0 when none ran).
fn mean_secs(secs: &[f64]) -> f64 {
    secs.iter().sum::<f64>() / secs.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> RunScale {
        RunScale {
            dataset_scale: 0.4,
            max_requests: Some(2),
            init_epochs: 12,
            iterations_override: Some(3),
            noise_rates: [0.1, 0.2, 0.3, 0.4],
            topo_rounds: 2,
            topo_epochs: 3,
            full: false,
            index: enld_knn::IndexBackend::Exact,
        }
    }

    #[test]
    fn sweep_produces_all_rows() {
        let scale = tiny_scale();
        let result = run_method_sweep(
            &scale,
            DatasetPreset::test_sim(),
            0.2,
            1,
            ArchPreset::tiny(),
            MethodSet::all(),
            &|_| {},
        );
        let names: Vec<&str> = result.rows.iter().map(|r| r.method.as_str()).collect();
        assert_eq!(names, vec!["Default", "CL-1", "CL-2", "Topofilter", "ENLD"]);
        for row in &result.rows {
            assert_eq!(row.datasets, 2);
            assert!(row.f1 >= 0.0 && row.f1 <= 1.0);
            assert!(row.setup_secs > 0.0);
            assert!(row.process_secs > 0.0);
        }
        assert_eq!(result.enld_reports.len(), 2);
        assert!(result.enld.is_some());
    }

    #[test]
    fn setup_cache_reuses_state_across_configs() {
        let scale = tiny_scale();
        let preset = scale.preset(DatasetPreset::test_sim());
        let base = scale.enld_config(&preset, 9);
        let a = cached_enld_init(&preset, 0.2, &base);
        let mut k4 = base;
        k4.k = 4;
        let b = cached_enld_init(&preset, 0.2, &k4);
        // Same general-model state, different detection config.
        assert_eq!(a.high_quality(), b.high_quality());
        assert_eq!(b.config().k, 4);
        // Different noise is a different setup.
        let c = cached_enld_init(&preset, 0.3, &base);
        assert_ne!(a.high_quality(), c.high_quality());
    }

    #[test]
    fn enld_only_sweep_skips_baselines() {
        let scale = tiny_scale();
        let result = run_method_sweep(
            &scale,
            DatasetPreset::test_sim(),
            0.2,
            2,
            ArchPreset::tiny(),
            MethodSet::enld_only(),
            &|_| {},
        );
        assert_eq!(result.rows.len(), 1);
        assert_eq!(result.rows[0].method, "ENLD");
    }
}
