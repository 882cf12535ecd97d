//! `enld-lake` — the data-lake substrate the paper deploys ENLD into.
//!
//! A data platform holds a large *inventory* dataset and continuously
//! receives *incremental* datasets with noisy-label-detection requests
//! (paper §I, Fig. 1). This crate models that platform:
//!
//! * [`catalog::Catalog`] — thread-safe registry of datasets with stable
//!   ids and logical arrival timestamps;
//! * [`lake::DataLake`] — the inventory plus an ordered arrival queue of
//!   incremental datasets, built from an `enld-datagen` preset;
//! * [`request::DetectionRequest`]/[`request::DetectionResponse`] — the
//!   unit of work a detection service consumes and produces (the service
//!   itself is `enld_serve::WorkerPool`);
//! * [`queueing`] — an M/G/c discrete-event queue simulation fed with
//!   measured per-dataset service times.
//!
//! # Example
//!
//! ```
//! use enld_datagen::presets::DatasetPreset;
//! use enld_lake::lake::{DataLake, LakeConfig};
//!
//! let preset = DatasetPreset::test_sim().scaled(0.5);
//! let lake = DataLake::build(&LakeConfig { preset, noise_rate: 0.2, seed: 1 });
//! assert!(lake.inventory().len() > 0);
//! assert_eq!(lake.pending_requests(), preset.incremental.subsets);
//! ```

#![forbid(unsafe_code)]

pub mod catalog;
pub mod lake;
pub mod queueing;
pub mod request;

pub use catalog::{Catalog, DatasetKind};
pub use lake::{DataLake, LakeConfig};
pub use queueing::{simulate_queue, simulate_queue_mgc, QueueStats, SimPolicy};
pub use request::{DetectionRequest, DetectionResponse};
