//! `enld-ann` — incremental approximate nearest-neighbour index.
//!
//! ENLD's contrastive sampling (Alg. 2) answers "k nearest high-quality
//! samples of class `j`" queries. The exact per-class KD-trees are rebuilt
//! from scratch whenever the inventory or the model changes — fine at the
//! paper's 10k–100k scale, a wall at data-lake scale. This crate supplies
//! the incremental alternative behind the `--index hnsw` flag:
//!
//! * [`shard::HnswShard`] — an HNSW-style layered proximity graph over one
//!   class, with deterministic level assignment from a counter-derived
//!   RNG, ef-bounded beam search, incremental insert, and tombstone
//!   delete with neighbour repair;
//! * [`class_index::AnnClassIndex`] — one shard per class behind the same
//!   query API as `enld_knn::ClassIndex` (it implements
//!   [`enld_knn::NeighborIndex`]), with `enld-par`-sharded builds,
//!   batched updates, and batched queries that are **bit-identical at any
//!   thread count**, plus versioned + checksummed persistence
//!   ([`class_index::AnnClassIndex::to_bytes`]) so checkpoint resume
//!   skips the rebuild.
//!
//! Chaos failpoints cover the mutation/persistence seams (`ann.insert`,
//! `ann.repair`, `ann.persist`), and the index reports
//! `enld.ann.inserts_total`, `enld.ann.deletes_total`,
//! `enld.ann.queries_total`, `enld.ann.hops_total`, and the
//! `enld.ann.recall_probe` gauge through `enld_telemetry::metrics`.
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
//! let mut index = AnnClassIndex::build(&features, 2, &labels, &keep, AnnParams::default());
//! let hits = index.k_nearest_in_class(1, &[0.0, 0.0], 1);
//! assert_eq!(hits[0].index, 102);
//! // Arrivals patch the graph instead of rebuilding it.
//! index.insert(0, 104, &[0.5, 0.5]);
//! assert_eq!(index.class_len(0), 3);
//! ```

#![forbid(unsafe_code)]

mod codec;

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

    #[test]
    #[ignore = "arms global failpoints; run with --ignored --test-threads=1"]
    fn repair_failpoint_fires_on_remove() {
        let _lock = enld_chaos::scenario();
        let mut index = instance();
        enld_chaos::arm_from_spec("ann.repair=panic").unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| index.remove(0, 0)));
        assert!(result.is_err(), "remove must hit ann.repair");
        enld_chaos::disarm_all();
    }

    #[test]
    #[ignore = "arms global failpoints; run with --ignored --test-threads=1"]
    fn persist_failpoint_fires_on_serialise() {
        let _lock = enld_chaos::scenario();
        let index = instance();
        enld_chaos::arm_from_spec("ann.persist=panic").unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| index.to_bytes()));
        assert!(result.is_err(), "to_bytes must hit ann.persist");
        enld_chaos::disarm_all();
        // Disarmed, serialisation works and the blob decodes.
        let blob = index.to_bytes();
        assert_eq!(AnnClassIndex::from_bytes(&blob).unwrap().len(), index.len());
    }
}
