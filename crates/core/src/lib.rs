//! `enld-core` — the ENLD framework (You et al., *ENLD: Efficient Noisy
//! Label Detection for Incremental Datasets in Data Lake*, ICDE 2023).
//!
//! ENLD performs noisy-label detection on incremental datasets arriving at
//! a data lake, in two stages:
//!
//! 1. **Setup** ([`detector::Enld::init`]): split the inventory into
//!    `I_t`/`I_c`, train a general model `θ` on `I_t` with Mixup, and
//!    estimate the conditional mislabelling probability
//!    `P̃(y* = j | ỹ = i)` from `θ`'s confusion on `I_c` (paper Eq. 3–5).
//! 2. **Per-arrival detection** ([`detector::Enld::detect`]): find the
//!    *ambiguous* samples of the incremental dataset, select *contrastive
//!    samples* from the high-quality inventory via per-class KD-trees
//!    (Alg. 2), and run fine-grained noisy-label detection — warm-up,
//!    `t` iterations × `s` steps of fine-tune + majority voting, with
//!    re-sampling each iteration (Alg. 3).
//!
//! The crate also implements the optional model update (Alg. 4), missing-
//! label handling (§V-H), the sampling-policy alternatives of §V-D, and
//! the ablation variants ENLD-1…ENLD-4 of §V-I.
//!
//! # Example
//!
//! ```
//! use enld_core::{config::EnldConfig, detector::Enld, metrics::detection_metrics};
//! use enld_datagen::presets::DatasetPreset;
//! use enld_lake::lake::{DataLake, LakeConfig};
//!
//! let preset = DatasetPreset::test_sim().scaled(0.4);
//! let mut lake = DataLake::build(&LakeConfig { preset, noise_rate: 0.2, seed: 3 });
//! let cfg = EnldConfig::fast_test();
//! let mut enld = Enld::init(lake.inventory(), &cfg);
//! let request = lake.next_request().expect("arrivals queued");
//! let report = enld.detect(&request.data);
//! let m = detection_metrics(&report.noisy, &request.data.noisy_indices(), request.data.len());
//! assert!(m.f1 >= 0.0 && m.f1 <= 1.0);
//! ```

#![forbid(unsafe_code)]

pub mod ablation;
pub mod checkpoint;
pub mod config;
pub mod detector;
pub mod ledger;
pub mod metrics;
pub mod probability;
pub mod report;
pub mod sampling;

pub use ablation::AblationVariant;
pub use checkpoint::{Checkpoint, CheckpointError};
pub use config::EnldConfig;
pub use detector::Enld;
pub use ledger::{replay_verdict, JsonlLedger, LedgerRecord, LedgerSink, MemoryLedger, Verdict};
pub use metrics::{detection_metrics, DetectionMetrics};
pub use probability::ConditionalLabelProbability;
pub use report::DetectionReport;
pub use sampling::SamplingPolicy;
