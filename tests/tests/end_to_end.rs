//! End-to-end pipeline tests: lake → setup → detection → scoring,
//! exercising every crate together.

use enld_baselines::common::NoisyLabelDetector;
use enld_baselines::default_detector::DefaultDetector;
use enld_core::{config::EnldConfig, detector::Enld, metrics::detection_metrics};
use enld_datagen::presets::DatasetPreset;
use enld_lake::lake::{DataLake, LakeConfig};

fn lake(noise: f32, seed: u64) -> DataLake {
    let preset = DatasetPreset::test_sim().scaled(0.5);
    DataLake::build(&LakeConfig { preset, noise_rate: noise, seed })
}

#[test]
fn enld_beats_default_on_noisy_arrivals() {
    let mut lake = lake(0.2, 101);
    let mut cfg = EnldConfig::fast_test();
    cfg.iterations = 4;
    let mut enld = Enld::init(lake.inventory(), &cfg);
    let mut default = DefaultDetector::new(enld.model().clone());

    let mut enld_f1 = 0.0;
    let mut default_f1 = 0.0;
    let mut served = 0;
    for _ in 0..2 {
        let req = lake.next_request().expect("queued");
        let truth = req.data.noisy_indices();
        let er = enld.detect(&req.data);
        let dr = default.detect(&req.data);
        enld_f1 += detection_metrics(&er.noisy, &truth, req.data.len()).f1;
        default_f1 += detection_metrics(&dr.noisy, &truth, req.data.len()).f1;
        served += 1;
    }
    enld_f1 /= served as f64;
    default_f1 /= served as f64;
    assert!(
        enld_f1 >= default_f1,
        "ENLD ({enld_f1:.3}) must not lose to Default ({default_f1:.3}) on this easy preset"
    );
    assert!(enld_f1 > 0.6, "ENLD F1 {enld_f1:.3}");
}

#[test]
fn whole_pipeline_is_deterministic() {
    let run = || {
        let mut lake = lake(0.2, 103);
        let mut enld = Enld::init(lake.inventory(), &EnldConfig::fast_test());
        let req = lake.next_request().expect("queued");
        let r = enld.detect(&req.data);
        (r.clean, r.noisy, r.inventory_clean)
    };
    assert_eq!(run(), run());
}

#[test]
fn higher_noise_means_more_detections() {
    // The detector's flagged volume must track the injected noise rate.
    let flagged_share = |noise: f32| {
        let mut lake = lake(noise, 104);
        let mut enld = Enld::init(lake.inventory(), &EnldConfig::fast_test());
        let mut flagged = 0usize;
        let mut total = 0usize;
        for _ in 0..2 {
            let req = lake.next_request().expect("queued");
            let r = enld.detect(&req.data);
            flagged += r.noisy.len();
            total += req.data.len();
        }
        flagged as f64 / total as f64
    };
    let low = flagged_share(0.1);
    let high = flagged_share(0.4);
    assert!(
        high > low,
        "flagged share must grow with noise: {low:.3} (η=0.1) vs {high:.3} (η=0.4)"
    );
}

#[test]
fn setup_and_detection_times_are_recorded() {
    let mut lake = lake(0.2, 105);
    let mut enld = Enld::init(lake.inventory(), &EnldConfig::fast_test());
    assert!(enld.setup_secs() > 0.0);
    let req = lake.next_request().expect("queued");
    let r = enld.detect(&req.data);
    assert!(r.process_secs > 0.0);
    assert!(r.process_secs < enld.setup_secs() * 50.0, "process time should be modest");
}

#[test]
fn reconfigure_shares_setup_across_variants() {
    let lake = lake(0.2, 106);
    let cfg = EnldConfig::fast_test();
    let enld = Enld::init(lake.inventory(), &cfg);
    let mut k4 = cfg;
    k4.k = 4;
    let mut clone = enld.clone();
    clone.reconfigure(&k4);
    assert_eq!(clone.config().k, 4);
    // Setup state is shared: same high-quality set and conditional.
    assert_eq!(clone.high_quality(), enld.high_quality());
}

#[test]
#[should_panic(expected = "cannot change the backbone")]
fn reconfigure_rejects_arch_changes() {
    let lake = lake(0.2, 107);
    let cfg = EnldConfig::fast_test();
    let mut enld = Enld::init(lake.inventory(), &cfg);
    let mut other = cfg;
    other.arch = enld_nn::arch::ArchPreset::resnet110_sim();
    enld.reconfigure(&other);
}
