//! `enld-baselines` — the comparison detectors of the paper's evaluation
//! (§V-A4):
//!
//! * [`default_detector::DefaultDetector`] — flag a sample as noisy when
//!   the general model disagrees with its observed label;
//! * [`confident::ConfidentLearning`] — Northcutt et al.'s confident
//!   learning, in both pruning variants the paper reports (CL-1 = prune by
//!   class, CL-2 = prune by noise rate);
//! * [`topofilter::Topofilter`] — Wu et al.'s topological filter: fine-tune
//!   on the label-related inventory slice plus the incremental dataset,
//!   then keep the largest connected component of each class's k-NN
//!   feature graph.
//!
//! All baselines implement [`common::NoisyLabelDetector`], so the bench
//! harness can sweep them uniformly.
//!
//! # Example
//!
//! ```
//! use enld_baselines::{common::NoisyLabelDetector, default_detector::DefaultDetector};
//! use enld_core::{config::EnldConfig, detector::Enld};
//! use enld_datagen::presets::DatasetPreset;
//! use enld_lake::lake::{DataLake, LakeConfig};
//!
//! let preset = DatasetPreset::test_sim().scaled(0.3);
//! let mut lake = DataLake::build(&LakeConfig { preset, noise_rate: 0.2, seed: 5 });
//! let enld = Enld::init(lake.inventory(), &EnldConfig::fast_test());
//! let mut default = DefaultDetector::new(enld.model().clone());
//! let req = lake.next_request().expect("queued");
//! let report = default.detect(&req.data);
//! assert_eq!(report.clean.len() + report.noisy.len(), req.data.len());
//! ```

#![forbid(unsafe_code)]

pub mod common;
pub mod confident;
pub mod default_detector;
pub mod topofilter;

pub use common::{BaselineReport, DetectorKind, NoisyLabelDetector};
pub use confident::{ConfidentLearning, PruneMethod};
pub use default_detector::DefaultDetector;
pub use topofilter::{Topofilter, TopofilterConfig};
