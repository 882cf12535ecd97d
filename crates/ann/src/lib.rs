//! `enld-ann` — approximate nearest-neighbour index.
//!
//! ENLD's contrastive sampling (Alg. 2) answers "k nearest high-quality
//! samples of class `j`" queries. This crate supplies the approximate
//! alternative to the exact per-class scan behind the `--index hnsw`
//! flag. The detector builds one index per selection round, over that
//! round's high-quality candidates under that round's model, queries it
//! and drops it: an index is never persisted or patched.
//!
//! * [`shard::HnswShard`] — an HNSW-style layered proximity graph over one
//!   class, with deterministic level assignment from a counter-derived
//!   RNG and ef-bounded beam search;
//! * [`class_index::AnnClassIndex`] — one shard per class behind the same
//!   batched query as `enld_knn::ClassIndex` (it implements
//!   [`enld_knn::NeighborIndex`]).
//!
//! The `ann.insert` chaos failpoint covers the build, and the index
//! reports `enld.ann.inserts_total`, `enld.ann.queries_total` and
//! `enld.ann.hops_total` through `enld_telemetry::metrics`.
//!
//! # Example
//!
//! ```
//! use enld_ann::AnnClassIndex;
//! use enld_knn::index::AnnParams;
//!
//! let features = vec![0.0f32, 0.0, 1.0, 0.0, 10.0, 10.0, 11.0, 10.0];
//! let labels = vec![0u32, 0, 1, 1];
//! let keep = vec![100usize, 101, 102, 103];
//! let index = AnnClassIndex::build(&features, 2, &labels, &keep, AnnParams::default());
//! // Only class 1's shard is searched, and hits carry global indices.
//! let hits = index.k_nearest_in_class(1, &[0.0, 0.0], 1);
//! assert_eq!(hits[0].index, 102);
//! assert!(index.k_nearest_in_class(7, &[0.0, 0.0], 1).is_empty());
//! ```

#![forbid(unsafe_code)]

pub mod class_index;
pub mod shard;

#[cfg(test)]
pub(crate) mod testutil {
    //! Dependency-free deterministic test data (the crate builds and
    //! tests offline; pulling `rand` in just for fixtures would break
    //! that).

    use crate::shard::{splitmix64, GOLDEN};

    /// Deterministic f32 in `[0, 1)` derived from `(seed, i)`.
    pub fn unit(seed: u64, i: u64) -> f32 {
        (splitmix64(seed.wrapping_add(i.wrapping_mul(GOLDEN))) >> 40) as f32 / (1u64 << 24) as f32
    }

    /// `n` points of `dim` coordinates, each uniform in `[-5, 5)`.
    pub fn random_points(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        (0..(n * dim) as u64).map(|i| unit(seed, i) * 10.0 - 5.0).collect()
    }

    /// `n` labels uniform in `0..classes`.
    pub fn random_labels(n: usize, classes: u32, seed: u64) -> Vec<u32> {
        (0..n as u64)
            .map(|i| (splitmix64(seed ^ i.wrapping_mul(GOLDEN)) % u64::from(classes)) as u32)
            .collect()
    }
}

pub use class_index::AnnClassIndex;
pub use shard::{HnswShard, SearchStats};

#[cfg(test)]
mod failpoint_tests {
    //! `#[ignore]`d failpoint-arming tests, run serially by the chaos CI
    //! lane (`cargo test -- --ignored --test-threads=1`).

    use enld_knn::index::AnnParams;

    use crate::AnnClassIndex;

    fn instance() -> AnnClassIndex {
        let features: Vec<f32> = (0..60).map(|i| (i % 13) as f32).collect();
        let labels: Vec<u32> = (0..20).map(|i| (i % 2) as u32).collect();
        let keep: Vec<usize> = (0..20).collect();
        AnnClassIndex::build(&features, 3, &labels, &keep, AnnParams::default())
    }

    #[test]
    #[ignore = "arms global failpoints; run with --ignored --test-threads=1"]
    fn insert_failpoint_fires_mid_batch() {
        let _lock = enld_chaos::scenario();
        enld_chaos::arm_from_spec("ann.insert=panic@nth:5").unwrap();
        let result = std::panic::catch_unwind(instance);
        assert!(result.is_err(), "5th insert must panic");
        enld_chaos::disarm_all();
    }
}
