//! Per-class sharded HNSW index with the same query surface as
//! `enld_knn::ClassIndex`. The detector builds one per selection round
//! over that round's candidates and drops it when the round ends.
//!
//! # Shard ownership and determinism
//!
//! Each class label owns one [`HnswShard`]. A build groups rows by label
//! first, then runs **one task per shard** over `enld-par`; inside a
//! shard every insert is sequential and every ordering decision is
//! deterministic, so the resulting graphs — and all queries — are
//! bit-identical at any thread count. Batched queries are
//! read-only and parallelise over fixed-size query chunks exactly like
//! the exact backend.

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

/// Queries per parallel task in [`AnnClassIndex::k_nearest_in_class_batch`]
/// (same chunking as the exact backend: a preset-scale selection round is
/// one chunk, so it runs as a plain loop).
const QUERY_BATCH: usize = 1024;

/// One parallel insert task: the shard moved out of the map plus its
/// `(global, row)` additions.
type ShardWork = (u32, HnswShard, Vec<(usize, usize)>);

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
    /// affected shard absorbs its rows sequentially while distinct shards
    /// run in parallel. Row order within a label follows the input, so the
    /// result is independent of the thread count *and* identical to
    /// building over all the rows at once.
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
        // Move the affected shards out of the map so each parallel task
        // owns its shard exclusively (fresh shards for unseen labels).
        let mut work: Vec<ShardWork> = grouped
            .into_iter()
            .map(|(label, adds)| {
                let shard = self.shards.remove(&label).unwrap_or_else(|| {
                    HnswShard::new(dim, self.params, Self::shard_seed(&self.params, label))
                });
                (label, shard, adds)
            })
            .collect();
        enld_par::par_chunks_mut(&mut work, 1, |_, _, block| {
            for (_, shard, adds) in block {
                for &(global, row) in adds.iter() {
                    shard.insert(global, &features[row * dim..(row + 1) * dim]);
                }
            }
        });
        for (label, shard, _) in work {
            self.shards.insert(label, shard);
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

    /// Batched [`AnnClassIndex::k_nearest_in_class`], parallel over fixed
    /// query chunks with results in query order (same contract as the
    /// exact backend).
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
        // More queries than one QUERY_BATCH, so threads really share them.
        let n_queries = QUERY_BATCH + 40;
        let q_labels = random_labels(n_queries, 5, 3);
        let queries = random_points(n_queries, 8, 33);
        let want: Vec<Vec<Neighbor>> = q_labels
            .iter()
            .enumerate()
            .map(|(i, &l)| ann.k_nearest_in_class(l, &queries[i * 8..(i + 1) * 8], 3))
            .collect();
        for threads in [1, 4] {
            let got = enld_par::with_threads(threads, || {
                ann.k_nearest_in_class_batch(&q_labels, &queries, 3)
            });
            assert_eq!(got, want, "threads={threads}");
        }
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
