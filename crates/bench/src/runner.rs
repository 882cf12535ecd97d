//! Shared sweep machinery: run every detection method over one data-lake
//! configuration and collect metrics plus timing.

use enld_baselines::common::{DetectorKind, NoisyLabelDetector};
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
use enld_telemetry::tinfo;

use crate::rows::MethodRow;
use crate::scale::{RunScale, NOISE_RATES};

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

/// A baseline detector of `kind` over the shared general model of
/// `enld`, charged `enld`'s setup time (Fig. 8). Topofilter draws its
/// label-related slices from `inventory`.
///
/// # Panics
/// Panics for [`DetectorKind::Enld`], which is the detector itself.
pub fn baseline(
    kind: DetectorKind,
    enld: &Enld,
    inventory: &Dataset,
    topo: TopofilterConfig,
) -> Box<dyn NoisyLabelDetector> {
    let setup = enld.setup_secs();
    let confident = |prune| {
        ConfidentLearning::new(enld.model().clone(), prune, Some(enld.candidate_set()))
            .with_setup_secs(setup)
    };
    match kind {
        DetectorKind::Default => {
            Box::new(DefaultDetector::new(enld.model().clone()).with_setup_secs(setup))
        }
        DetectorKind::ConfidentByClass => Box::new(confident(PruneMethod::ByClass)),
        DetectorKind::ConfidentByNoiseRate => Box::new(confident(PruneMethod::ByNoiseRate)),
        DetectorKind::Topofilter => Box::new(
            Topofilter::new(enld.model().clone(), inventory.clone(), topo).with_setup_secs(setup),
        ),
        DetectorKind::Enld => panic!("ENLD is not constructed as a baseline"),
    }
}

/// Everything a sweep produces for one `(dataset, noise)` configuration.
pub struct SweepResult {
    /// One row per roster entry, in roster order.
    pub rows: Vec<MethodRow>,
    /// ENLD's full reports, in arrival order (for Fig. 9 / Fig. 13b).
    pub enld_reports: Vec<DetectionReport>,
    /// The incremental datasets themselves (small; kept for follow-up
    /// evaluation such as Fig. 9 and Table II).
    pub requests: Vec<Dataset>,
    /// The post-sweep ENLD state (for Table II's model update).
    pub enld: Option<Enld>,
}

/// Runs the `roster` detectors over one lake.
///
/// All methods share the same general model (trained once inside
/// `Enld::init`, matching the paper's shared setup time for Default, CL
/// and ENLD); each baseline is built once per sweep. Process time is
/// measured per incremental dataset inside each detector. `mutate` tweaks
/// the ENLD configuration after defaults are applied (sampling policy,
/// ablation variant, `k`, …).
pub fn run_method_sweep(
    scale: &RunScale,
    base: DatasetPreset,
    noise: f32,
    seed: u64,
    arch: ArchPreset,
    roster: &[DetectorKind],
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

    let topo = TopofilterConfig {
        rounds: scale.topo_rounds,
        epochs_per_round: scale.topo_epochs,
        seed,
        ..Default::default()
    };
    // `None` stands for ENLD itself.
    let mut detectors: Vec<Option<Box<dyn NoisyLabelDetector>>> = roster
        .iter()
        .map(|&kind| {
            (kind != DetectorKind::Enld).then(|| baseline(kind, &enld, lake.inventory(), topo))
        })
        .collect();

    let n = scale.cap(lake.pending_requests());
    // Per roster entry: per-dataset metrics and process seconds.
    let mut per_method: Vec<(Vec<DetectionMetrics>, Vec<f64>)> =
        vec![(Vec::new(), Vec::new()); roster.len()];
    let mut enld_reports = Vec::new();
    let mut requests = Vec::new();

    for _ in 0..n {
        let req = lake.next_request().expect("capped by pending_requests");
        let truth = req.data.noisy_indices();
        for (detector, (metrics, secs)) in detectors.iter_mut().zip(&mut per_method) {
            let (noisy, process_secs) = match detector {
                Some(det) => {
                    let report = det.detect(&req.data);
                    (report.noisy, report.process_secs)
                }
                None => {
                    let report = enld.detect(&req.data);
                    let out = (report.noisy.clone(), report.process_secs);
                    enld_reports.push(report);
                    out
                }
            };
            metrics.push(detection_metrics(&noisy, &truth, req.data.len()));
            secs.push(process_secs);
        }
        requests.push(req.data);
    }

    let rows: Vec<MethodRow> = roster
        .iter()
        .zip(&per_method)
        .map(|(kind, (metrics, secs))| {
            MethodRow::from_metrics(
                preset.name,
                kind.name(),
                noise,
                metrics,
                mean_secs(secs),
                setup,
            )
        })
        .collect();

    sweep_span.record("requests", n);
    sweep_span.record("methods", rows.len());

    let enld = roster.contains(&DetectorKind::Enld).then_some(enld);
    SweepResult { rows, enld_reports, requests, enld }
}

/// ENLD-only sweeps of `base` over every `(variant, noise rate)` pair,
/// variant-major: `variants` are `(label, mutate)` pairs, and every row
/// of a variant is labelled with its `label` (Figs. 10, 11 and 14).
pub fn run_variant_sweep<F: Fn(&mut EnldConfig)>(
    scale: &RunScale,
    base: DatasetPreset,
    seed: u64,
    arch: ArchPreset,
    variants: impl IntoIterator<Item = (String, F)>,
) -> Vec<MethodRow> {
    let mut rows = Vec::new();
    for (label, mutate) in variants {
        for noise in NOISE_RATES {
            tinfo!("bench", "{} {label} noise {noise} …", base.name);
            let sweep =
                run_method_sweep(scale, base, noise, seed, arch, &[DetectorKind::Enld], &mutate);
            rows.extend(
                sweep.rows.into_iter().map(|row| MethodRow { method: label.clone(), ..row }),
            );
        }
    }
    rows
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
            topo_rounds: 2,
            topo_epochs: 3,
            full: false,
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
            &DetectorKind::ALL,
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
            &[DetectorKind::Enld],
            &|_| {},
        );
        assert_eq!(result.rows.len(), 1);
        assert_eq!(result.rows[0].method, "ENLD");
    }

    #[test]
    fn variant_sweep_is_variant_major_and_labelled() {
        let scale = tiny_scale();
        let rows = run_variant_sweep(
            &scale,
            DatasetPreset::test_sim(),
            4,
            ArchPreset::tiny(),
            [1usize, 2].map(|k| (format!("k={k}"), move |cfg: &mut EnldConfig| cfg.k = k)),
        );
        let got: Vec<(&str, f32)> = rows.iter().map(|r| (r.method.as_str(), r.noise)).collect();
        let want: Vec<(&str, f32)> =
            ["k=1", "k=2"].into_iter().flat_map(|m| NOISE_RATES.map(|n| (m, n))).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn training_based_sweep_is_topofilter_then_enld() {
        // Fig. 6's roster: the two training-based detectors only.
        let scale = tiny_scale();
        let result = run_method_sweep(
            &scale,
            DatasetPreset::test_sim(),
            0.2,
            3,
            ArchPreset::tiny(),
            &[DetectorKind::Topofilter, DetectorKind::Enld],
            &|_| {},
        );
        let names: Vec<&str> = result.rows.iter().map(|r| r.method.as_str()).collect();
        assert_eq!(names, vec!["Topofilter", "ENLD"]);
        assert!(result.rows.iter().all(|r| r.datasets == 2 && r.setup_secs > 0.0));
        assert_eq!(result.enld_reports.len(), 2);
        assert_eq!(result.requests.len(), 2);
    }
}
