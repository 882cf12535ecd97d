//! Per-class KD-tree index — "we build KD-Tree structures for each
//! category in `H`" (paper §IV-D Implementation).
//!
//! Contrastive sampling draws the `k` nearest *high-quality samples of a
//! chosen class* for every ambiguous sample, so the natural index is one
//! KD-tree per observed label, built over the model's feature vectors.

use std::collections::BTreeMap;

use crate::index::NeighborIndex;
use crate::kdtree::{KdTree, Neighbor};

/// Per-class build input: flat feature rows plus the global sample index
/// behind each row.
type ClassBucket = (Vec<f32>, Vec<usize>);

/// One KD-tree per class over feature vectors, remembering the global
/// sample index behind every tree-local point.
#[derive(Debug, Clone)]
pub struct ClassIndex {
    trees: BTreeMap<u32, (KdTree, Vec<usize>)>,
    dim: usize,
}

impl ClassIndex {
    /// Builds the index.
    ///
    /// * `features` — flat `n × dim` feature buffer;
    /// * `labels` — class of each row;
    /// * `keep` — global sample index behind each row (so queries can
    ///   return inventory positions rather than positions in `features`).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn build(features: &[f32], dim: usize, labels: &[u32], keep: &[usize]) -> Self {
        assert!(dim > 0, "dim must be positive");
        assert_eq!(features.len(), labels.len() * dim, "feature/label shape mismatch");
        assert_eq!(labels.len(), keep.len(), "label/keep length mismatch");
        let mut grouped: BTreeMap<u32, ClassBucket> = BTreeMap::new();
        for (row, (&label, &global)) in labels.iter().zip(keep).enumerate() {
            let entry = grouped.entry(label).or_default();
            entry.0.extend_from_slice(&features[row * dim..(row + 1) * dim]);
            entry.1.push(global);
        }
        // A per-class tree over a round's candidates builds in microseconds:
        // cheaper than a dispatch, so a plain loop.
        let trees = grouped
            .into_iter()
            .map(|(label, (rows, globals))| (label, (KdTree::build(&rows, dim), globals)))
            .collect();
        Self { trees, dim }
    }

    /// Classes present in the index.
    pub fn classes(&self) -> impl Iterator<Item = u32> + '_ {
        self.trees.keys().copied()
    }

    /// Number of indexed samples of `label`.
    pub fn class_len(&self, label: u32) -> usize {
        self.trees.get(&label).map_or(0, |(t, _)| t.len())
    }

    /// Total indexed samples.
    pub fn len(&self) -> usize {
        self.trees.values().map(|(t, _)| t.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `k` nearest samples *of class `label`* to `query`; results carry
    /// the global sample indices supplied at build time. Empty when the
    /// class is absent.
    pub fn k_nearest_in_class(&self, label: u32, query: &[f32], k: usize) -> Vec<Neighbor> {
        assert_eq!(query.len(), self.dim, "query dimensionality mismatch");
        let Some((tree, globals)) = self.trees.get(&label) else {
            return Vec::new();
        };
        tree.k_nearest(query, k)
            .into_iter()
            .map(|n| Neighbor { index: globals[n.index], dist_sq: n.dist_sq })
            .collect()
    }

    /// Batched [`Self::k_nearest_in_class`]: answers query `i` (row `i` of
    /// the flat `queries` buffer) against class `labels[i]`. Queries are
    /// answered in parallel over fixed-size batches; the result order (and
    /// every neighbour set) is identical to a sequential loop.
    ///
    /// # Panics
    /// Panics when `queries.len() != labels.len() * dim`.
    pub fn k_nearest_in_class_batch(
        &self,
        labels: &[u32],
        queries: &[f32],
        k: usize,
    ) -> Vec<Vec<Neighbor>> {
        assert_eq!(queries.len(), labels.len() * self.dim, "query buffer shape mismatch");
        enld_par::par_map(labels.len(), QUERY_BATCH, |i| {
            self.k_nearest_in_class(labels[i], &queries[i * self.dim..(i + 1) * self.dim], k)
        })
    }
}

impl NeighborIndex for ClassIndex {
    fn k_nearest_in_class_batch(
        &self,
        labels: &[u32],
        queries: &[f32],
        k: usize,
    ) -> Vec<Vec<Neighbor>> {
        ClassIndex::k_nearest_in_class_batch(self, labels, queries, k)
    }
}

/// Queries per parallel task in [`ClassIndex::k_nearest_in_class_batch`]:
/// a query is a few microseconds, so a selection round at preset scale
/// (a few hundred ambiguous samples) stays one chunk — a plain loop.
const QUERY_BATCH: usize = 1024;

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_index() -> ClassIndex {
        // Class 0 near the origin, class 1 near (10, 10).
        let features = vec![
            0.0f32, 0.0, // idx 100
            1.0, 0.0, // idx 101
            10.0, 10.0, // idx 102
            11.0, 10.0, // idx 103
        ];
        let labels = vec![0u32, 0, 1, 1];
        let keep = vec![100usize, 101, 102, 103];
        ClassIndex::build(&features, 2, &labels, &keep)
    }

    #[test]
    fn per_class_queries_respect_labels() {
        let idx = sample_index();
        // Nearest class-1 sample to the origin is (10,10), despite class-0
        // samples being much closer.
        let hits = idx.k_nearest_in_class(1, &[0.0, 0.0], 1);
        assert_eq!(hits[0].index, 102);
        let hits0 = idx.k_nearest_in_class(0, &[0.0, 0.0], 2);
        assert_eq!(hits0[0].index, 100);
        assert_eq!(hits0[1].index, 101);
    }

    #[test]
    fn absent_class_returns_empty() {
        let idx = sample_index();
        assert!(idx.k_nearest_in_class(7, &[0.0, 0.0], 3).is_empty());
        assert_eq!(idx.class_len(7), 0);
    }

    #[test]
    fn sizes() {
        let idx = sample_index();
        assert_eq!(idx.len(), 4);
        assert_eq!(idx.class_len(0), 2);
        assert_eq!(idx.classes().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn batch_queries_match_single_queries() {
        let idx = sample_index();
        // Mix of present and absent classes, in arbitrary order, repeated
        // past one QUERY_BATCH so several threads really share the batch.
        let labels = [0u32, 1, 0, 7].repeat(QUERY_BATCH / 2);
        let queries = [0.0f32, 0.0, 0.0, 0.0, 10.0, 10.0, 1.0, 1.0].repeat(QUERY_BATCH / 2);
        for threads in [1, 4] {
            let batch = enld_par::with_threads(threads, || {
                idx.k_nearest_in_class_batch(&labels, &queries, 2)
            });
            for (i, got) in batch.iter().enumerate() {
                let want = idx.k_nearest_in_class(labels[i], &queries[i * 2..(i + 1) * 2], 2);
                assert_eq!(got, &want, "query {i} threads={threads}");
            }
        }
    }

    #[test]
    fn global_indices_survive_reordering() {
        // Rows are supplied interleaved by class; globals must still map.
        let features = vec![0.0f32, 0.0, 5.0, 5.0, 0.5, 0.0, 5.5, 5.0];
        let labels = vec![0u32, 1, 0, 1];
        let keep = vec![7usize, 8, 9, 10];
        let idx = ClassIndex::build(&features, 2, &labels, &keep);
        let hits = idx.k_nearest_in_class(0, &[0.4, 0.0], 2);
        assert_eq!(hits[0].index, 9);
        assert_eq!(hits[1].index, 7);
    }
}
