//! Per-class sharded HNSW index with the same query surface as
//! `enld_knn::ClassIndex`. The detector builds one per selection round
//! over that round's candidates and drops it when the round ends.
//!
//! # Shard ownership and determinism
//!
//! Each class label owns one [`HnswShard`]. A build groups rows by label
//! first, then inserts each shard's rows in input order; every ordering
//! decision is deterministic, so the resulting graphs — and all queries —
//! are a function of the input alone. Batched queries answer in query
//! order, like the exact backend.

use std::collections::BTreeMap;

use enld_chaos::durable::{self, Enc};
use enld_knn::index::{AnnParams, NeighborIndex};
use enld_knn::Neighbor;
use enld_telemetry::metrics;

use crate::shard::{splitmix64, HnswShard, SearchStats, GOLDEN};

/// Magic prefix of a serialised index blob.
const MAGIC: [u8; 8] = *b"ENLDANNX";
/// Version of the [`AnnClassIndex::to_bytes`] layout.
const FORMAT_VERSION: u32 = 2;

/// Approximate per-class neighbour index.
#[derive(Debug, Clone)]
pub struct AnnClassIndex {
    shards: BTreeMap<u32, HnswShard>,
    dim: usize,
    params: AnnParams,
}

impl AnnClassIndex {
    /// Builds the index over `features` (flat `n × dim`), mirroring
    /// `ClassIndex::build`: `labels[i]` classifies row `i`, `keep[i]` is
    /// the global sample index queries should report.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn build(
        features: &[f32],
        dim: usize,
        labels: &[u32],
        keep: &[usize],
        params: AnnParams,
    ) -> Self {
        assert!(dim > 0, "dim must be positive");
        assert_eq!(features.len(), labels.len() * dim, "feature/label shape mismatch");
        assert_eq!(labels.len(), keep.len(), "label/keep length mismatch");
        let mut index = Self { shards: BTreeMap::new(), dim, params };
        index.insert_batch(features, labels, keep);
        index
    }

    fn shard_seed(params: &AnnParams, label: u32) -> u64 {
        splitmix64(params.seed ^ (label as u64).wrapping_mul(GOLDEN))
    }

    /// Adds a batch of rows to the index ([`AnnClassIndex::build`] is this
    /// call on an empty index): rows are grouped by label, then each
    /// affected shard absorbs its rows in input order, so the result is
    /// identical to building over all the rows at once.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn insert_batch(&mut self, features: &[f32], labels: &[u32], keep: &[usize]) {
        assert_eq!(features.len(), labels.len() * self.dim, "feature/label shape mismatch");
        assert_eq!(labels.len(), keep.len(), "label/keep length mismatch");
        if labels.is_empty() {
            return;
        }
        let dim = self.dim;
        let mut grouped: BTreeMap<u32, Vec<(usize, usize)>> = BTreeMap::new();
        for (row, &label) in labels.iter().enumerate() {
            grouped.entry(label).or_default().push((keep[row], row));
        }
        let params = self.params;
        for (label, adds) in grouped {
            let seed = Self::shard_seed(&params, label);
            let shard =
                self.shards.entry(label).or_insert_with(|| HnswShard::new(dim, params, seed));
            for (global, row) in adds {
                shard.insert(global, &features[row * dim..(row + 1) * dim]);
            }
        }
        metrics::global().counter("enld.ann.inserts_total").add(labels.len() as u64);
    }

    /// Classes present in the index, ascending.
    pub fn classes(&self) -> impl Iterator<Item = u32> + '_ {
        self.shards.keys().copied()
    }

    /// Indexed samples of `label`.
    pub fn class_len(&self, label: u32) -> usize {
        self.shards.get(&label).map_or(0, |s| s.len())
    }

    /// Total indexed samples.
    pub fn len(&self) -> usize {
        self.shards.values().map(|s| s.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn record_query(stats: SearchStats) {
        let m = metrics::global();
        m.counter("enld.ann.queries_total").inc();
        m.counter("enld.ann.hops_total").add(stats.hops);
    }

    /// The `k` approximately nearest samples *of class `label`*, carrying
    /// global sample indices, sorted ascending by `(dist_sq, index)`.
    pub fn k_nearest_in_class(&self, label: u32, query: &[f32], k: usize) -> Vec<Neighbor> {
        assert_eq!(query.len(), self.dim, "query dimensionality mismatch");
        let Some(shard) = self.shards.get(&label) else {
            return Vec::new();
        };
        let (hits, stats) = shard.k_nearest(query, k);
        Self::record_query(stats);
        hits
    }

    /// Batched [`AnnClassIndex::k_nearest_in_class`], with results in
    /// query order (same contract as the exact backend).
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

    /// Serialises the whole index as a sealed `enld_chaos::durable` frame
    /// (magic `ENLDANNX`). Nothing reads it back: the detector never
    /// persists an index. It stays only because the benchmark reports its
    /// length as `ann.blob_bytes`, and goes with that metric.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Enc::default();
        enc.usize(self.dim);
        enc.usize(self.params.m);
        enc.usize(self.params.ef_construction);
        enc.usize(self.params.ef_search);
        enc.u64(self.params.seed);
        enc.usize(self.shards.len());
        for (&label, shard) in &self.shards {
            enc.u32(label);
            shard.encode(&mut enc);
        }
        durable::seal(&MAGIC, FORMAT_VERSION, &enc.finish())
    }
}

impl NeighborIndex for AnnClassIndex {
    fn k_nearest_in_class_batch(
        &self,
        labels: &[u32],
        queries: &[f32],
        k: usize,
    ) -> Vec<Vec<Neighbor>> {
        AnnClassIndex::k_nearest_in_class_batch(self, labels, queries, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enld_knn::ClassIndex;

    use crate::testutil::{random_labels, random_points};

    fn random_instance(
        n: usize,
        dim: usize,
        classes: u32,
        seed: u64,
    ) -> (Vec<f32>, Vec<u32>, Vec<usize>) {
        let features = random_points(n, dim, seed);
        let labels = random_labels(n, classes, seed.wrapping_mul(31).wrapping_add(7));
        let keep: Vec<usize> = (0..n).map(|i| 1000 + i).collect();
        (features, labels, keep)
    }

    #[test]
    fn mirrors_class_index_shape() {
        let (features, labels, keep) = random_instance(300, 12, 5, 1);
        let ann = AnnClassIndex::build(&features, 12, &labels, &keep, AnnParams::default());
        let exact = ClassIndex::build(&features, 12, &labels, &keep);
        assert_eq!(ann.len(), exact.len());
        assert_eq!(ann.classes().collect::<Vec<_>>(), exact.classes().collect::<Vec<_>>());
        for c in ann.classes() {
            assert_eq!(ann.class_len(c), exact.class_len(c));
        }
    }

    #[test]
    fn batch_matches_single_queries_at_any_thread_count() {
        let (features, labels, keep) = random_instance(240, 8, 4, 2);
        let ann = AnnClassIndex::build(&features, 8, &labels, &keep, AnnParams::default());
        let n_queries = 100;
        let q_labels = random_labels(n_queries, 5, 3);
        let queries = random_points(n_queries, 8, 33);
        let want: Vec<Vec<Neighbor>> = q_labels
            .iter()
            .enumerate()
            .map(|(i, &l)| ann.k_nearest_in_class(l, &queries[i * 8..(i + 1) * 8], 3))
            .collect();
        assert_eq!(ann.k_nearest_in_class_batch(&q_labels, &queries, 3), want);
    }

    #[test]
    fn incremental_insert_equals_bulk_build() {
        let (features, labels, keep) = random_instance(200, 6, 3, 7);
        let bulk = AnnClassIndex::build(&features, 6, &labels, &keep, AnnParams::default());
        let mut incremental = AnnClassIndex::build(
            &features[..120 * 6],
            6,
            &labels[..120],
            &keep[..120],
            AnnParams::default(),
        );
        incremental.insert_batch(&features[120 * 6..], &labels[120..], &keep[120..]);
        assert_eq!(incremental.len(), bulk.len());
        // Same per-shard insertion order ⇒ identical graphs ⇒ identical
        // answers, not merely close ones.
        let q = &features[0..6];
        for c in bulk.classes() {
            assert_eq!(incremental.k_nearest_in_class(c, q, 4), bulk.k_nearest_in_class(c, q, 4));
        }
    }

    #[test]
    fn empty_build_and_queries() {
        let ann = AnnClassIndex::build(&[], 4, &[], &[], AnnParams::default());
        assert!(ann.is_empty());
        assert!(ann.k_nearest_in_class(0, &[0.0; 4], 3).is_empty());
    }
}
