//! Backend-neutral neighbour-index abstraction.
//!
//! Contrastive sampling (Alg. 2) only needs four things from an index:
//! which classes it holds, how many samples each class has, per-class
//! k-nearest queries, and the batched form of those queries. This module
//! captures that contract as [`NeighborIndex`] so the detector can swap
//! the exact per-class KD-trees ([`crate::ClassIndex`]) for the
//! incremental HNSW index (`enld-ann`'s `AnnClassIndex`) behind a single
//! `--index exact|hnsw` flag.

use crate::kdtree::Neighbor;

/// Common query surface of the exact and approximate per-class indexes.
///
/// Implementations must answer batched queries identically to a
/// sequential loop over [`NeighborIndex::k_nearest_in_class`] at any
/// thread count (the workspace-wide bit-identical determinism contract).
///
/// Mutation is deliberately *not* part of the trait: the KD-tree is a
/// static structure (an "insert" would be a silent full rebuild), and
/// the incremental backend exposes `insert`/`insert_batch`/`remove`
/// inherently.
pub trait NeighborIndex: Send + Sync {
    /// Classes present in the index, ascending.
    fn class_labels(&self) -> Vec<u32>;

    /// Number of live samples of `label`.
    fn class_len(&self, label: u32) -> usize;

    /// Total live samples.
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `k` nearest samples *of class `label`* to `query`, carrying the
    /// global sample indices supplied at build time, sorted ascending by
    /// `(dist_sq, index)`. Empty when the class is absent.
    fn k_nearest_in_class(&self, label: u32, query: &[f32], k: usize) -> Vec<Neighbor>;

    /// Batched [`NeighborIndex::k_nearest_in_class`]: answers query `i`
    /// (row `i` of the flat `queries` buffer) against class `labels[i]`.
    fn k_nearest_in_class_batch(
        &self,
        labels: &[u32],
        queries: &[f32],
        k: usize,
    ) -> Vec<Vec<Neighbor>>;
}

/// Tuning knobs of the HNSW backend. Lives here (not in `enld-ann`) so
/// the backend selector below can carry it without a dependency cycle:
/// `enld-ann` implements the trait from this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnnParams {
    /// Max neighbours per node per layer (layer 0 allows `2m`).
    pub m: usize,
    /// Beam width while inserting.
    pub ef_construction: usize,
    /// Beam width while querying; raising it trades speed for recall.
    pub ef_search: usize,
    /// Seed folded into the deterministic level assignment.
    pub seed: u64,
}

impl Default for AnnParams {
    fn default() -> Self {
        // m=16 / ef=80/64 sit at ≥0.95 recall@k on every preset we ship
        // (see DESIGN.md §11's sweep table) while keeping queries an
        // order of magnitude cheaper than exact search at lake scale.
        Self { m: 16, ef_construction: 80, ef_search: 64, seed: 0x414E_4E49 }
    }
}

/// Which neighbour index the detector builds for contrastive sampling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexBackend {
    /// Exact per-class KD-trees, rebuilt from scratch every round.
    #[default]
    Exact,
    /// Incremental per-class HNSW graphs (`enld-ann`).
    Hnsw(AnnParams),
}

impl IndexBackend {
    /// Default HNSW backend (the `--index hnsw` CLI spelling).
    pub fn hnsw() -> Self {
        Self::Hnsw(AnnParams::default())
    }

    pub fn name(&self) -> &'static str {
        match self {
            Self::Exact => "exact",
            Self::Hnsw(_) => "hnsw",
        }
    }
}

impl std::str::FromStr for IndexBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "exact" => Ok(Self::Exact),
            "hnsw" => Ok(Self::hnsw()),
            other => Err(format!("unknown index backend '{other}' (expected exact|hnsw)")),
        }
    }
}

impl std::fmt::Display for IndexBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClassIndex;

    #[test]
    fn backend_parses_and_prints() {
        assert_eq!("exact".parse::<IndexBackend>().unwrap(), IndexBackend::Exact);
        assert_eq!("hnsw".parse::<IndexBackend>().unwrap(), IndexBackend::hnsw());
        assert!("annoy".parse::<IndexBackend>().is_err());
        assert_eq!(IndexBackend::default().name(), "exact");
        assert_eq!(IndexBackend::hnsw().to_string(), "hnsw");
    }

    #[test]
    fn class_index_implements_the_trait() {
        let features = vec![0.0f32, 0.0, 1.0, 0.0, 10.0, 10.0];
        let labels = vec![0u32, 0, 1];
        let keep = vec![5usize, 6, 7];
        let idx = ClassIndex::build(&features, 2, &labels, &keep);
        let dynamic: &dyn NeighborIndex = &idx;
        assert_eq!(dynamic.class_labels(), vec![0, 1]);
        assert_eq!(dynamic.len(), 3);
        assert_eq!(dynamic.class_len(0), 2);
        let hits = dynamic.k_nearest_in_class(0, &[0.1, 0.0], 2);
        assert_eq!(hits[0].index, 5);
        assert_eq!(hits[1].index, 6);
    }
}
