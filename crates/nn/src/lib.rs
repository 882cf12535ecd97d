//! `enld-nn` — a from-scratch CPU neural-network substrate for the ENLD
//! reproduction.
//!
//! The ENLD framework (You et al., ICDE 2023) only requires a classifier
//! that exposes:
//!
//! 1. softmax confidences `M(x, θ)` over classes,
//! 2. penultimate-layer feature vectors `M̂(x, θ)`, and
//! 3. cheap fine-tuning on small sample subsets.
//!
//! This crate provides exactly that: dense layers, residual and
//! densely-connected blocks, softmax cross-entropy with soft targets
//! (required by Mixup), SGD with momentum and weight decay, and a
//! deterministic trainer that operates on index subsets of a flat feature
//! store without copying.
//!
//! The paper trains ResNet-110 / ResNet-164 / DenseNet-121 on a GPU; the
//! named presets in [`arch`] map those onto CPU-sized residual MLPs with
//! the corresponding depth/width/connectivity ordering (see DESIGN.md §2
//! for the substitution rationale).
//!
//! # Example
//!
//! ```
//! use enld_nn::{arch::ArchPreset, data::DataRef, model::Mlp, trainer::{TrainConfig, Trainer}};
//!
//! // Tiny two-class problem: x > 0 vs x < 0 in 4-d.
//! let n = 64;
//! let dim = 4;
//! let mut xs = vec![0.0f32; n * dim];
//! let mut labels = vec![0u32; n];
//! for i in 0..n {
//!     let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
//!     for d in 0..dim {
//!         xs[i * dim + d] = sign * (1.0 + d as f32 * 0.1);
//!     }
//!     labels[i] = (i % 2) as u32;
//! }
//! let data = DataRef::new(&xs, &labels, dim);
//! let mut model = Mlp::new(&ArchPreset::tiny().config(dim, 2), 7);
//! let cfg = TrainConfig { epochs: 30, ..TrainConfig::default() };
//! let mut trainer = Trainer::new(cfg, 7);
//! trainer.fit(&mut model, data, None);
//! let acc = model.accuracy(data);
//! assert!(acc > 0.9, "accuracy {acc}");
//! ```

// Two runtime-dispatched SIMD sites carry `#[allow(unsafe_code)]`:
// `matrix::gemm` and `quant::gemv_i16`. A third fails the build.
#![deny(unsafe_code)]

pub mod arch;
pub mod data;
pub mod dense;
pub mod init;
pub mod loss;
pub mod matrix;
pub mod mixup;
pub mod model;
pub mod optimizer;
pub mod quant;
pub mod trainer;

pub use arch::{ArchPreset, Connectivity, ModelConfig};
pub use data::DataRef;
pub use loss::softmax_cross_entropy;
pub use matrix::Matrix;
pub use model::{argmax, Mlp};
pub use optimizer::SgdConfig;
pub use quant::{QuantizedDense, QuantizedMlp};
pub use trainer::{TrainConfig, TrainHistory, Trainer};
