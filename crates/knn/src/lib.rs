//! `enld-knn` — nearest-neighbour search substrate.
//!
//! The paper's contrastive sampling runs repeated k-nearest queries over
//! the high-quality inventory samples; §IV-D prescribes per-class KD-trees
//! for them. On this repo's 96-d features a tree prunes almost nothing,
//! so one exact scan answers them (DESIGN.md §2). This crate provides:
//!
//! * [`brute::k_nearest`] — exact k-NN by a linear scan with a bounded
//!   top-`k` selection, ascending by `(dist_sq, index)`;
//! * [`class_index::ClassIndex`] — each label's rows kept contiguous and
//!   scanned, as Alg. 2 needs;
//! * [`index::NeighborIndex`] — the query contract [`ClassIndex`] shares
//!   with `enld-ann`'s HNSW index, selected by [`IndexBackend`];
//! * [`graph`] — a KNN graph and union-find connected components, the
//!   machinery behind the Topofilter baseline.
//!
//! # Example
//!
//! ```
//! use enld_knn::ClassIndex;
//!
//! // Class 0 near the origin, class 1 at (5,5); globals 10, 11, 12.
//! let features = vec![0.0f32, 0.0, 1.0, 1.0, 5.0, 5.0];
//! let index = ClassIndex::build(&features, 2, &[0, 0, 1], &[10, 11, 12]);
//! let hits = index.k_nearest_in_class(0, &[0.9, 0.9], 2);
//! assert_eq!(hits[0].index, 11); // (1,1) is closest to (0.9,0.9)
//! assert_eq!(hits[1].index, 10);
//! assert_eq!(index.k_nearest_in_class(1, &[0.9, 0.9], 2)[0].index, 12);
//! ```

#![forbid(unsafe_code)]

pub mod brute;
pub mod class_index;
pub mod graph;
pub mod index;

pub use brute::Neighbor;
pub use class_index::ClassIndex;
pub use index::{AnnParams, IndexBackend, NeighborIndex};

/// The seeded splitmix64 stream behind the property tests.
#[cfg(test)]
struct TestRng(u64);

#[cfg(test)]
impl TestRng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi`.
    fn f32_in(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * ((self.next_u64() >> 40) as f32 / (1u64 << 24) as f32)
    }

    /// Uniform in `lo..hi`.
    fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }
}

/// Seeded cases per property (proptest's default, which they replaced).
#[cfg(test)]
const CASES: u64 = 256;
