//! `enld-datagen` — synthetic class-manifold dataset generators, label-noise
//! models, and data-lake splits for the ENLD reproduction.
//!
//! The paper evaluates on EMNIST-letters, CIFAR-100 and Tiny-ImageNet. Real
//! image corpora are not available offline, so this crate generates
//! *class-manifold* datasets: each class is a mixture of anisotropic
//! Gaussian modes on a low-dimensional manifold embedded in feature space,
//! with a controllable separation/difficulty knob. The presets
//! [`presets::DatasetPreset::emnist_sim`], [`presets::DatasetPreset::cifar100_sim`]
//! and [`presets::DatasetPreset::tiny_imagenet_sim`] reproduce the paper's
//! class counts and difficulty ordering (EMNIST easiest, Tiny-ImageNet
//! hardest). See DESIGN.md §2 for the substitution rationale.
//!
//! Label corruption follows the paper's §V-A2: *pair asymmetric noise*
//! (`T[i][i] = 1−η`, `T[i][succ(i)] = η`), with symmetric and
//! general-asymmetric variants, plus missing labels (§V-H). Beyond the
//! paper, the [`zoo`] module adds instance-dependent, annotator-confusion,
//! long-tail and time-varying-drift noise behind the common
//! [`noise::NoiseModel`] trait, addressable by name via [`zoo::NoiseSpec`].
//!
//! # Example
//!
//! ```
//! use enld_datagen::{noise::TransitionMatrix, presets::DatasetPreset, split};
//!
//! let preset = DatasetPreset::emnist_sim().scaled(0.1);
//! let clean = preset.generate(42);
//! let noisy = TransitionMatrix::pair_asymmetric(preset.classes, 0.2).corrupt(&clean, 7);
//! let rate = noisy.noisy_indices().len() as f64 / noisy.len() as f64;
//! assert!((rate - 0.2).abs() < 0.05);
//!
//! let (inventory, incremental) = split::inventory_incremental(&noisy, 2, 1, 11);
//! assert!(inventory.len() > incremental.len());
//! ```

#![forbid(unsafe_code)]

pub mod dataset;
pub mod gauss;
pub mod manifold;
pub mod noise;
pub mod presets;
pub mod split;
pub mod zoo;

pub use dataset::Dataset;
pub use manifold::ManifoldSpec;
pub use noise::{NoiseModel, TransitionMatrix};
pub use presets::DatasetPreset;
pub use zoo::NoiseSpec;
