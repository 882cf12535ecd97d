//! The paper's deployment scenario end to end: a data platform serving a
//! *stream* of incremental datasets, with the optional model update
//! (Alg. 4) halfway through the stream.
//!
//! ```text
//! cargo run --release -p enld-examples --bin data_lake_stream
//! ```

use enld_core::{config::EnldConfig, detector::Enld, metrics::detection_metrics};
use enld_datagen::presets::DatasetPreset;
use enld_datagen::Dataset;
use enld_lake::lake::{DataLake, LakeConfig};
use enld_nn::data::DataRef;

fn main() {
    let preset = DatasetPreset::test_sim();
    let mut lake = DataLake::build(&LakeConfig { preset, noise_rate: 0.3, seed: 11 });
    let mut config = EnldConfig::for_preset(&preset);
    config.iterations = 6;
    let mut enld = Enld::init(lake.inventory(), &config);
    println!("platform ready (setup {:.1}s); serving the arrival stream…\n", enld.setup_secs());

    let total = lake.pending_requests();
    let mut served = 0usize;
    let mut f1_sum = 0.0;
    let mut served_data: Vec<Dataset> = Vec::new();
    while let Some(request) = lake.next_request() {
        let report = enld.detect(&request.data);

        // The verdict splits the labelled samples into clean and noisy.
        let mut verdict = vec![0u8; request.data.len()];
        for &i in report.clean.iter().chain(&report.noisy) {
            verdict[i] += 1;
        }
        let missing = request.data.missing_mask();
        assert!(
            verdict.iter().enumerate().all(|(i, &n)| n == u8::from(!missing[i])),
            "service must return a valid clean/noisy partition"
        );

        let m = detection_metrics(&report.noisy, &request.data.noisy_indices(), request.data.len());
        f1_sum += m.f1;
        served += 1;
        println!(
            "arrival {:>2}/{total}: {:>4} samples → {:>3} flagged noisy  (F1 {:.3}, {:.2}s, {} inventory samples voted clean)",
            served,
            request.data.len(),
            report.noisy.len(),
            m.f1,
            report.process_secs,
            report.inventory_clean.len()
        );

        served_data.push(request.data);
    }
    println!(
        "\nstream served: mean F1 = {:.4} over {served} incremental datasets",
        f1_sum / served as f64
    );

    // Optional step of Alg. 1 / Alg. 4: once clean inventory samples have
    // accumulated across the whole stream (so every class is covered),
    // retrain the general model on them and swap I_t/I_c.
    let before = true_accuracy(&enld, &served_data);
    let used = enld.update_model();
    let after = true_accuracy(&enld, &served_data);
    println!(
        "model update: retrained on {used} voted-clean inventory samples; \
         true-label accuracy on the served arrivals {before:.3} → {after:.3}"
    );
}

/// Accuracy of the current general model on the served arrivals, measured
/// against ground-truth labels.
fn true_accuracy(enld: &Enld, served: &[Dataset]) -> f32 {
    let mut correct = 0.0f32;
    let mut total = 0usize;
    for d in served {
        let view = DataRef::new(d.xs(), d.true_labels(), d.dim());
        correct += enld.model().accuracy(view) * d.len() as f32;
        total += d.len();
    }
    if total == 0 {
        0.0
    } else {
        correct / total as f32
    }
}
