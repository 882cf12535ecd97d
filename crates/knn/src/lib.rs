//! `enld-knn` — nearest-neighbour search substrate.
//!
//! The paper's contrastive sampling runs repeated k-nearest queries over
//! the high-quality inventory samples; §IV-D prescribes per-class KD-trees
//! to cut the query cost from `O(c·|A|·|H'|)` to `O(k·|A|·log|H'|)`. This
//! crate provides:
//!
//! * [`kdtree::KdTree`] — a balanced KD-tree over `f32` vectors with
//!   bounded-priority k-NN search;
//! * [`brute::brute_k_nearest`] — the exact reference the tests compare
//!   every index against;
//! * [`class_index::ClassIndex`] — one KD-tree per label, as Alg. 2 needs;
//! * [`index::NeighborIndex`] — the query contract [`ClassIndex`] shares
//!   with `enld-ann`'s HNSW index, selected by [`IndexBackend`];
//! * [`graph`] — a KNN graph and union-find connected components, the
//!   machinery behind the Topofilter baseline.
//!
//! # Example
//!
//! ```
//! use enld_knn::kdtree::KdTree;
//!
//! let points = vec![0.0f32, 0.0, 1.0, 1.0, 5.0, 5.0];
//! let tree = KdTree::build(&points, 2);
//! let hits = tree.k_nearest(&[0.9, 0.9], 2);
//! assert_eq!(hits[0].index, 1); // (1,1) is closest to (0.9,0.9)
//! assert_eq!(hits[1].index, 0);
//! ```

#![forbid(unsafe_code)]

pub mod brute;
pub mod class_index;
pub mod graph;
pub mod index;
pub mod kdtree;

pub use class_index::ClassIndex;
pub use index::{AnnParams, IndexBackend, NeighborIndex};
pub use kdtree::{KdTree, Neighbor};
