//! Platform restart: checkpoint the detector to disk, restart the process
//! (simulated), resume from the checkpoint, and keep serving detection
//! requests without paying the setup cost again. The checkpoint carries
//! the general model together with `P̃`, `H`, `S_c` and the task counters,
//! so the resumed detector reaches the same verdicts as one that never
//! stopped.
//!
//! ```text
//! cargo run --release -p enld-examples --bin persist_and_restart
//! ```

use enld_core::{config::EnldConfig, detector::Enld, metrics::detection_metrics, Checkpoint};
use enld_datagen::presets::DatasetPreset;
use enld_lake::lake::{DataLake, LakeConfig};

fn main() {
    let preset = DatasetPreset::test_sim();
    let mut lake = DataLake::build(&LakeConfig { preset, noise_rate: 0.2, seed: 77 });
    let mut config = EnldConfig::for_preset(&preset);
    config.iterations = 5;

    // Day 1: expensive setup, serve one arrival, checkpoint.
    let mut enld = Enld::init(lake.inventory(), &config);
    let req = lake.next_request().expect("queued");
    let r = enld.detect(&req.data);
    let m = detection_metrics(&r.noisy, &req.data.noisy_indices(), req.data.len());
    println!("day 1: served arrival #{} with F1 {:.3}", req.dataset_id, m.f1);
    let ckpt_path = std::env::temp_dir().join("enld_restart.ckpt");
    enld.capture_checkpoint().save_atomic(&ckpt_path).expect("persist the detector");
    println!(
        "day 1: setup took {:.2}s; checkpointed θ ({} parameters), P̃, H and S_c to {}",
        enld.setup_secs(),
        enld.model().param_count(),
        ckpt_path.display()
    );

    // Day 2: "restart" — resume from the checkpoint (no retraining) and
    // verify the next arrival is judged exactly as the original would.
    let ckpt = Checkpoint::load(&ckpt_path).expect("read the checkpoint back");
    let mut resumed = Enld::resume_from(lake.inventory(), &config, &ckpt).expect("resume");
    assert_eq!(resumed.tasks_completed(), 1);
    let req = lake.next_request().expect("queued");
    let r = resumed.detect(&req.data);
    assert_eq!(r.noisy, enld.detect(&req.data).noisy, "a resumed detector replays the original");
    let m = detection_metrics(&r.noisy, &req.data.noisy_indices(), req.data.len());
    println!("day 2: resumed detector served arrival #{} with F1 {:.3}", req.dataset_id, m.f1);

    let _ = std::fs::remove_file(&ckpt_path);
}
