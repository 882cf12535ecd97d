//! Serving the whole arrival stream and performing the Alg. 4 model
//! update, as a platform would.

use enld_core::{config::EnldConfig, detector::Enld, metrics::detection_metrics};
use enld_datagen::presets::DatasetPreset;
use enld_datagen::Dataset;
use enld_lake::lake::{DataLake, LakeConfig};
use enld_nn::data::DataRef;

fn serve_all(noise: f32, seed: u64) -> (Enld, Vec<Dataset>, f64) {
    let preset = DatasetPreset::test_sim().scaled(0.6);
    let mut lake = DataLake::build(&LakeConfig { preset, noise_rate: noise, seed });
    let mut cfg = EnldConfig::fast_test();
    cfg.iterations = 4;
    let mut enld = Enld::init(lake.inventory(), &cfg);
    let mut served = Vec::new();
    let mut f1 = 0.0;
    while let Some(req) = lake.next_request() {
        let r = enld.detect(&req.data);
        f1 += detection_metrics(&r.noisy, &req.data.noisy_indices(), req.data.len()).f1;
        served.push(req.data);
    }
    let n = served.len() as f64;
    (enld, served, f1 / n)
}

fn true_acc(enld: &Enld, served: &[Dataset]) -> f64 {
    let mut correct = 0.0;
    let mut total = 0usize;
    for d in served {
        let view = DataRef::new(d.xs(), d.true_labels(), d.dim());
        correct += enld.model().accuracy(view) as f64 * d.len() as f64;
        total += d.len();
    }
    correct / total as f64
}

#[test]
fn full_stream_is_served_with_useful_quality() {
    let (enld, served, mean_f1) = serve_all(0.2, 201);
    assert_eq!(served.len(), 4, "test preset queues 4 arrivals");
    assert!(mean_f1 > 0.5, "mean F1 {mean_f1:.3}");
    assert!(
        !enld.accumulated_clean().is_empty(),
        "clean inventory votes must accumulate across the stream"
    );
}

#[test]
fn model_update_after_stream_keeps_model_useful() {
    let (mut enld, served, _) = serve_all(0.3, 202);
    let before = true_acc(&enld, &served);
    let used = enld.update_model();
    let after = true_acc(&enld, &served);
    assert!(used > 0);
    // The update retrains from scratch on the voted-clean inventory; on
    // this small preset it must stay in the same quality band (the paper's
    // Table II improvement shows up at CIFAR scale where the origin model
    // is weak).
    assert!(after > before - 0.15, "update degraded the model too much: {before:.3} → {after:.3}");
    // After the update the splits swapped and votes were reset.
    assert!(enld.accumulated_clean().is_empty());
}

#[test]
fn second_update_without_new_votes_is_noop() {
    let (mut enld, _, _) = serve_all(0.2, 203);
    assert!(enld.update_model() > 0);
    assert_eq!(enld.update_model(), 0, "no votes accumulated since the last update");
}

#[test]
fn clean_selection_is_actually_clean() {
    // Precision check on the inventory side: the samples ENLD votes into
    // S_c should be overwhelmingly correctly labelled.
    let (enld, _, _) = serve_all(0.2, 205);
    let ic = enld.candidate_set();
    let clean = enld.accumulated_clean();
    assert!(!clean.is_empty());
    let correct = clean.iter().filter(|&&i| ic.labels()[i] == ic.true_labels()[i]).count();
    let precision = correct as f64 / clean.len() as f64;
    assert!(precision > 0.85, "S_c precision {precision:.3} over {} samples", clean.len());
}
