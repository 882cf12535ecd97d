//! Extension experiments beyond the paper's artifact list.
//!
//! * [`ext_noise`] — noise-model generality: the paper evaluates pair
//!   asymmetric noise only; here ENLD and Default also face symmetric and
//!   random-asymmetric corruption at the same rate.
//! * [`ext_queue`] — the paper's §I motivation ("platforms receive a
//!   large number of continuous detection tasks") quantified: a
//!   single-worker M/G/1 queue fed with each method's measured process
//!   times, swept over Poisson arrival rates to find where each method's
//!   backlog stays stable.

use std::io;

use enld_telemetry::tinfo;

use enld_baselines::common::NoisyLabelDetector;
use enld_baselines::default_detector::DefaultDetector;
use enld_core::detector::Enld;
use enld_core::metrics::{detection_metrics, mean_metrics};
use enld_datagen::presets::DatasetPreset;
use enld_datagen::TransitionMatrix;
use enld_lake::lake::{DataLake, LakeConfig};
use enld_telemetry::json::Json;

use crate::experiments::ExpContext;
use crate::queueing::simulate_queue;
use crate::rows::{f4, load_payload, ExperimentOutput, MethodRow};

/// One (noise-model, method) row of the generality experiment.
#[derive(Debug, Clone)]
pub struct NoiseModelRow {
    pub noise_model: String,
    pub method: String,
    pub precision: f64,
    pub recall: f64,
    pub f1: f64,
    pub datasets: usize,
}

enld_telemetry::impl_json!(NoiseModelRow: noise_model, method, precision, recall, f1, datasets);

/// ENLD vs Default under pair / symmetric / random-asymmetric noise at
/// η = 0.2 on CIFAR100-sim.
pub fn ext_noise(ctx: &ExpContext) -> io::Result<()> {
    let eta = 0.2f32;
    let preset = ctx.scale.preset(DatasetPreset::cifar100_sim());
    let models: [(&str, TransitionMatrix); 3] = [
        ("pair-asymmetric", TransitionMatrix::pair_asymmetric(preset.classes, eta)),
        ("symmetric", TransitionMatrix::symmetric(preset.classes, eta)),
        ("random-asymmetric", TransitionMatrix::asymmetric_random(preset.classes, eta, ctx.seed)),
    ];
    let mut rows = Vec::new();
    for (name, model) in models {
        tinfo!("ext-noise", "{name} …");
        let mut lake = DataLake::build_with_noise_model(
            &LakeConfig { preset, noise_rate: eta, seed: ctx.seed },
            &model,
        );
        let cfg = ctx.scale.enld_config(&preset, ctx.seed);
        // Different noise models corrupt the inventory differently, so the
        // general model must be retrained per model (no setup cache).
        let mut enld = Enld::init(lake.inventory(), &cfg);
        let mut default = DefaultDetector::new(enld.model().clone());
        let n = ctx.scale.cap(lake.pending_requests());
        let mut enld_m = Vec::new();
        let mut default_m = Vec::new();
        for _ in 0..n {
            let req = lake.next_request().expect("capped");
            let truth = req.data.noisy_indices();
            enld_m.push(detection_metrics(&enld.detect(&req.data).noisy, &truth, req.data.len()));
            default_m.push(detection_metrics(
                &default.detect(&req.data).noisy,
                &truth,
                req.data.len(),
            ));
        }
        for (method, metrics) in [("ENLD", enld_m), ("Default", default_m)] {
            let m = mean_metrics(&metrics);
            rows.push(NoiseModelRow {
                noise_model: name.to_owned(),
                method: method.to_owned(),
                precision: m.precision,
                recall: m.recall,
                f1: m.f1,
                datasets: n,
            });
        }
    }
    let mut table = ExperimentOutput::new(
        "ext-noise",
        "Noise-model generality on CIFAR100-sim (η = 0.2)",
        &["noise model", "method", "precision", "recall", "f1"],
    );
    for r in &rows {
        table.push_row(vec![
            r.noise_model.clone(),
            r.method.clone(),
            f4(r.precision),
            f4(r.recall),
            f4(r.f1),
        ]);
    }
    table.emit(&ctx.out_dir, rows.to_json())?;
    Ok(())
}

/// One (method, arrival-rate) row of the queueing experiment.
#[derive(Debug, Clone)]
pub struct QueueRow {
    pub method: String,
    pub arrival_per_hour: f64,
    pub utilisation: f64,
    pub mean_sojourn_secs: f64,
    pub backlog: usize,
    pub stable: bool,
}

enld_telemetry::impl_json! {
    QueueRow: method, arrival_per_hour, utilisation, mean_sojourn_secs, backlog, stable
}

/// Platform queueing under continuous arrivals: uses the per-method mean
/// process times measured for Fig. 5 (CIFAR100-sim); runs that figure
/// first when its payload is absent.
pub fn ext_queue(ctx: &ExpContext) -> io::Result<()> {
    let Some(rows) = load_payload::<Vec<MethodRow>>(&ctx.out_dir, "fig5") else {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!(
                "ext-queue needs {} — run `enld repro fig5 --out {}` first",
                ctx.out_dir.join("fig5.json").display(),
                ctx.out_dir.display()
            ),
        ));
    };
    let mean_service = |method: &str| -> Option<f64> {
        let v: Vec<f64> =
            rows.iter().filter(|r| r.method == method).map(|r| r.process_secs).collect();
        (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64)
    };

    let horizon = 6.0 * 3600.0; // six simulated hours
    let mut out_rows = Vec::new();
    for method in ["ENLD", "Topofilter"] {
        let Some(service) = mean_service(method) else { continue };
        // Sweep arrival rates around each service capacity.
        for per_hour in [100.0f64, 300.0, 600.0, 1200.0, 2400.0] {
            let stats = simulate_queue(per_hour / 3600.0, &[service], horizon, ctx.seed);
            out_rows.push(QueueRow {
                method: method.to_owned(),
                arrival_per_hour: per_hour,
                utilisation: stats.utilisation,
                mean_sojourn_secs: stats.mean_sojourn_secs,
                backlog: stats.backlog,
                stable: stats.is_stable(),
            });
        }
    }
    let mut table = ExperimentOutput::new(
        "ext-queue",
        "Single-worker platform under Poisson arrivals (service = measured CIFAR100-sim process times)",
        &["method", "arrivals/h", "utilisation", "mean sojourn", "backlog", "stable"],
    );
    for r in &out_rows {
        table.push_row(vec![
            r.method.clone(),
            format!("{:.0}", r.arrival_per_hour),
            format!("{:.2}", r.utilisation),
            format!("{:.1}s", r.mean_sojourn_secs),
            r.backlog.to_string(),
            if r.stable { "yes".into() } else { "NO".into() },
        ]);
    }
    table.emit(&ctx.out_dir, out_rows.to_json())?;
    // The headline: the band where ENLD keeps up but Topofilter drowns.
    let enld_max = out_rows
        .iter()
        .filter(|r| r.method == "ENLD" && r.stable)
        .map(|r| r.arrival_per_hour)
        .fold(0.0f64, f64::max);
    let topo_max = out_rows
        .iter()
        .filter(|r| r.method == "Topofilter" && r.stable)
        .map(|r| r.arrival_per_hour)
        .fold(0.0f64, f64::max);
    println!(
        "[ext-queue] max sustainable arrival rate: ENLD {enld_max:.0}/h vs Topofilter {topo_max:.0}/h"
    );
    println!();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::scale::RunScale;

    #[test]
    fn ext_queue_names_the_missing_payload_under_out() {
        let out = std::env::temp_dir().join(format!("enld-ext-queue-{}", std::process::id()));
        let ctx = ExpContext::new(RunScale::quick(), 1, out.clone());
        let err = ext_queue(&ctx).expect_err("no fig5 payload");
        let msg = err.to_string();
        assert!(msg.contains(&out.join("fig5.json").display().to_string()), "{msg}");
        assert!(msg.contains("enld repro fig5"), "{msg}");
    }
}
