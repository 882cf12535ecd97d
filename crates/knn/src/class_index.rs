//! Per-class exact index for Alg. 2's "`k` nearest high-quality samples
//! of class `j`": each label's feature rows sit contiguous and a query
//! scans them, where paper §IV-D builds a KD-tree per class (DESIGN.md §2).

use std::collections::BTreeMap;

use crate::brute::{scan, Neighbor};
use crate::index::NeighborIndex;

/// Per-class feature rows: for each label, its flat `rows × dim` features
/// plus the global sample index behind each row.
#[derive(Debug, Clone)]
pub struct ClassIndex {
    classes: BTreeMap<u32, (Vec<f32>, Vec<usize>)>,
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
        let mut classes: BTreeMap<u32, (Vec<f32>, Vec<usize>)> = BTreeMap::new();
        for (row, (&label, &global)) in labels.iter().zip(keep).enumerate() {
            let entry = classes.entry(label).or_default();
            entry.0.extend_from_slice(&features[row * dim..(row + 1) * dim]);
            entry.1.push(global);
        }
        Self { classes, dim }
    }

    /// Classes present in the index.
    pub fn classes(&self) -> impl Iterator<Item = u32> + '_ {
        self.classes.keys().copied()
    }

    /// Number of indexed samples of `label`.
    pub fn class_len(&self, label: u32) -> usize {
        self.classes.get(&label).map_or(0, |(_, globals)| globals.len())
    }

    /// Total indexed samples.
    pub fn len(&self) -> usize {
        self.classes.values().map(|(_, globals)| globals.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `k` nearest samples *of class `label`* to `query`; results carry
    /// the global sample indices supplied at build time, ascending by
    /// `(dist_sq, global index)`. Empty when the class is absent.
    pub fn k_nearest_in_class(&self, label: u32, query: &[f32], k: usize) -> Vec<Neighbor> {
        assert_eq!(query.len(), self.dim, "query dimensionality mismatch");
        let Some((rows, globals)) = self.classes.get(&label) else {
            return Vec::new();
        };
        scan(rows, self.dim, query, k, |row| globals[row])
    }

    /// Batched [`Self::k_nearest_in_class`]: answers query `i` (row `i` of
    /// the flat `queries` buffer) against class `labels[i]`, in query order.
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
        let queries = queries.chunks_exact(self.dim);
        labels.iter().zip(queries).map(|(&l, q)| self.k_nearest_in_class(l, q, k)).collect()
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
        // Mix of present and absent classes, in arbitrary order.
        let labels = [0u32, 1, 0, 7].repeat(3);
        let queries = [0.0f32, 0.0, 0.0, 0.0, 10.0, 10.0, 1.0, 1.0].repeat(3);
        let batch = idx.k_nearest_in_class_batch(&labels, &queries, 2);
        assert_eq!(batch.len(), labels.len());
        for (i, got) in batch.iter().enumerate() {
            let want = idx.k_nearest_in_class(labels[i], &queries[i * 2..(i + 1) * 2], 2);
            assert_eq!(got, &want, "query {i}");
        }
    }

    #[test]
    fn ties_at_the_kth_distance_keep_the_lower_global_index() {
        let idx = ClassIndex::build(&[-1.0, 0.0, 1.0, 0.0], 2, &[0, 0], &[0, 1]);
        assert_eq!(idx.k_nearest_in_class(0, &[0.0, 0.0], 1)[0].index, 0);
        // The order is by global index, not by row: here row 0 is global 1.
        let idx = ClassIndex::build(&[-1.0, 0.0, 1.0, 0.0], 2, &[0, 0], &[1, 0]);
        assert_eq!(idx.k_nearest_in_class(0, &[0.0, 0.0], 1)[0].index, 0);
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
