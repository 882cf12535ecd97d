//! A guided tour of `enld-telemetry`: install a human-readable stderr
//! sink plus a JSON-lines trace sink, run a small end-to-end detection,
//! and print the final metrics snapshot.
//!
//! ```text
//! cargo run --release -p enld-examples --bin telemetry_tour
//! ```
//!
//! Expect an indented span tree on stderr (setup → warmup → every
//! Stage-2 iteration) whose durations are the phase timings, a `.jsonl`
//! trace in the temp directory, and a JSON snapshot of the drift gauges
//! on stdout.

use std::sync::Arc;

use enld_core::{config::EnldConfig, detector::Enld};
use enld_datagen::presets::DatasetPreset;
use enld_lake::lake::{DataLake, LakeConfig};
use enld_telemetry as telemetry;

fn main() {
    // Sink 1: human-readable span tree on stderr. Debug level shows the
    // per-iteration spans; Info keeps only the top-level phases, and
    // Trace adds every training step.
    telemetry::install(Arc::new(telemetry::StderrSink::new(telemetry::Level::Debug)));
    // Sink 2: machine-readable JSON-lines trace of the same spans/events.
    let trace_path = std::env::temp_dir().join("enld_telemetry_tour.jsonl");
    telemetry::install(Arc::new(
        telemetry::JsonlSink::create(&trace_path, telemetry::Level::Trace)
            .expect("create trace file"),
    ));

    let preset = DatasetPreset::test_sim();
    let mut lake = DataLake::build(&LakeConfig { preset, noise_rate: 0.2, seed: 11 });
    let config = EnldConfig::fast_test();
    let mut enld = Enld::init(lake.inventory(), &config);

    let mut detected = 0usize;
    for _ in 0..2 {
        let Some(request) = lake.next_request() else { break };
        let report = enld.detect(&request.data);
        detected += 1;
        telemetry::tinfo!(
            "tour",
            "dataset #{}: {} noisy / {} clean in {:.2}s",
            request.dataset_id,
            report.noisy.len(),
            report.clean.len(),
            report.process_secs
        );
    }
    enld.update_model();
    telemetry::flush();

    println!("\n--- metrics snapshot after {detected} detection task(s) ---");
    println!("{}", telemetry::metrics::global().snapshot_json());
    println!("\ntrace written to {}", trace_path.display());
}
