//! Backend-neutral neighbour-index abstraction.
//!
//! Contrastive sampling (Alg. 2) asks an index one thing: the `k`
//! nearest samples of a chosen class for each ambiguous sample, as one
//! batch. This module captures that contract as [`NeighborIndex`] so the
//! detector can swap the exact per-class scan ([`crate::ClassIndex`])
//! for the HNSW index (`enld-ann`'s `AnnClassIndex`) behind a single
//! `--index exact|hnsw` flag.

use crate::brute::Neighbor;

/// The query contrastive sampling makes of the exact and approximate
/// per-class indexes. Both are built over `H` and never edited, and each
/// keeps its other accessors (class lists, sizes, single queries) as
/// inherent methods.
pub trait NeighborIndex: Send + Sync {
    /// Answers query `i` (row `i` of the flat `queries` buffer) against
    /// class `labels[i]`: the `k` nearest samples of that class, carrying
    /// the global sample indices supplied at build time, sorted ascending
    /// by `(dist_sq, index)`, and empty when the class is absent.
    /// Implementations answer exactly as a sequential loop of single
    /// queries would, at any thread count (the workspace-wide
    /// bit-identical determinism contract).
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
        // (`ann.recall_at_k`, DESIGN.md §11) while keeping queries an
        // order of magnitude cheaper than exact search at lake scale.
        Self { m: 16, ef_construction: 80, ef_search: 64, seed: 0x414E_4E49 }
    }
}

/// Which neighbour index the detector builds for contrastive sampling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexBackend {
    /// Exact per-class scan, its rows regrouped every round.
    #[default]
    Exact,
    /// Approximate per-class HNSW graphs (`enld-ann`), built every round
    /// over that round's candidates.
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
        let hits = dynamic.k_nearest_in_class_batch(&[0, 7], &[0.1, 0.0, 0.1, 0.0], 2);
        let indices: Vec<Vec<usize>> =
            hits.iter().map(|h| h.iter().map(|n| n.index).collect()).collect();
        assert_eq!(indices, vec![vec![5, 6], vec![]]);
    }
}
