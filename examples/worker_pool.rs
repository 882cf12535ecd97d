//! The multi-worker deployment shape: N detector clones drain one
//! policy-scheduled queue (`enld-serve`), with admission control and
//! retry-with-backoff on the ingestion side. `workers: 1` with
//! `PolicyKind::Fifo` is the paper's single-worker FIFO shape.
//!
//! ```text
//! cargo run --release -p enld-examples --bin worker_pool
//! ```

use enld_core::{config::EnldConfig, detector::Enld, metrics::detection_metrics};
use enld_datagen::presets::DatasetPreset;
use enld_datagen::Dataset;
use enld_lake::lake::{DataLake, LakeConfig};
use enld_serve::{
    submit_with_retry, JobOutcome, JobSpec, PolicyKind, PoolConfig, RetryBackoff, WorkerPool,
};

fn main() {
    let preset = DatasetPreset::test_sim();
    let mut lake = DataLake::build(&LakeConfig { preset, noise_rate: 0.2, seed: 31 });
    let mut config = EnldConfig::for_preset(&preset);
    config.iterations = 5;

    // Setup runs once; each worker then owns a clone of the warmed-up
    // detector.
    let prototype = Enld::init(lake.inventory(), &config);
    println!("pool starting (setup {:.1}s, 2 workers, SJF)", prototype.setup_secs());

    // Ground truth per dataset id, kept on the ingestion side for scoring.
    let truths: Vec<(u64, Vec<usize>, usize)> = lake
        .peek_requests()
        .map(|r| (r.dataset_id, r.data.noisy_indices(), r.data.len()))
        .collect();

    let pool_config =
        PoolConfig { workers: 2, queue_limit: 8, policy: PolicyKind::Sjf, ..PoolConfig::default() };
    let pool = WorkerPool::spawn(pool_config, |_worker| {
        let mut enld = prototype.clone();
        move |data: &Dataset| enld.detect(data)
    });

    // Ingest with admission control: a full queue rejects, the backoff
    // helper sleeps `retry_after` and resubmits.
    let backoff = RetryBackoff::default();
    while let Some(request) = lake.next_request() {
        println!(
            "ingest: submitting dataset #{} ({} samples)",
            request.dataset_id,
            request.data.len()
        );
        let spec = JobSpec::new(request.dataset_id, request.data).with_class("detect").with_cost(
            truths
                .iter()
                .find(|(id, _, _)| *id == request.dataset_id)
                .map_or(1.0, |(_, _, len)| *len as f64),
        );
        if let Err(err) = submit_with_retry(&pool, spec, &backoff) {
            eprintln!("ingest: giving up on dataset: {err}");
        }
    }

    match pool.shutdown() {
        Ok(outcomes) => {
            for outcome in outcomes {
                let JobOutcome::Completed(c) = outcome else {
                    eprintln!("pool: lost a job: {:?}", outcome.id());
                    continue;
                };
                let (_, truth, len) = truths
                    .iter()
                    .find(|(id, _, _)| *id == c.id)
                    .expect("scored every submitted dataset");
                let m = detection_metrics(&c.result.noisy, truth, *len);
                println!(
                    "worker {}: dataset #{} → {} noisy / {} clean in {:.2}s after {:.3}s queued (F1 {:.3})",
                    c.worker,
                    c.id,
                    c.result.noisy.len(),
                    c.result.clean.len(),
                    c.service_secs,
                    c.wait_secs,
                    m.f1
                );
            }
        }
        Err(panic) => eprintln!("pool: {panic}"),
    }
}
