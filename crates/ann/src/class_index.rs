//! Per-class sharded HNSW index with the same query surface as
//! `enld_knn::ClassIndex`, plus the incremental operations the KD-tree
//! backend cannot offer: `insert_batch` patches arriving samples into the
//! existing graphs, `remove` tombstones and repairs, and
//! `to_bytes`/`from_bytes` persist the whole structure (versioned and
//! checksummed) so a checkpoint resume skips the rebuild entirely.
//!
//! # Shard ownership and determinism
//!
//! Each class label owns one [`HnswShard`]. Builds and batched updates
//! group rows by label first, then run **one task per shard** over
//! `enld-par`; inside a shard every mutation is sequential and every
//! ordering decision is deterministic, so the resulting graphs — and all
//! queries — are bit-identical at any thread count. Batched queries are
//! read-only and parallelise over fixed-size query chunks exactly like
//! the exact backend.

use std::collections::BTreeMap;

use enld_knn::index::{AnnParams, NeighborIndex};
use enld_knn::Neighbor;
use enld_telemetry::metrics;

use crate::codec::{fnv1a64, Dec, Enc};
use crate::shard::{splitmix64, HnswShard, SearchStats, GOLDEN};

/// Magic prefix of a serialised index blob.
const MAGIC: [u8; 8] = *b"ENLDANNX";
/// Bump on any layout change; decode rejects other versions.
const FORMAT_VERSION: u32 = 1;

/// Queries per parallel task in [`AnnClassIndex::k_nearest_in_class_batch`]
/// (same chunking as the exact backend: a preset-scale selection round is
/// one chunk, so it runs as a plain loop).
const QUERY_BATCH: usize = 1024;

/// Self-queries sampled by [`AnnClassIndex::recall_probe`].
const PROBE_QUERIES: usize = 16;

/// One parallel update task: the shard moved out of the map plus its
/// `(global, row)` additions.
type ShardWork = (u32, HnswShard, Vec<(usize, usize)>);

/// Incremental approximate per-class neighbour index.
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

    /// Creates an empty index (shards appear as labels arrive).
    pub fn new(dim: usize, params: AnnParams) -> Self {
        assert!(dim > 0, "dim must be positive");
        Self { shards: BTreeMap::new(), dim, params }
    }

    fn shard_seed(params: &AnnParams, label: u32) -> u64 {
        splitmix64(params.seed ^ (label as u64).wrapping_mul(GOLDEN))
    }

    /// Patches a batch of rows into the index without rebuilding: rows are
    /// grouped by label, then each affected shard absorbs its rows
    /// sequentially while distinct shards run in parallel. Row order
    /// within a label follows the input, so the result is independent of
    /// the thread count *and* identical to one-at-a-time inserts.
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

    /// Inserts one sample. Prefer [`AnnClassIndex::insert_batch`] for
    /// arrivals — it parallelises across classes.
    pub fn insert(&mut self, label: u32, global: usize, point: &[f32]) {
        self.insert_batch(point, &[label], &[global]);
    }

    /// Tombstones `global` in class `label` and repairs the graph around
    /// it. Returns `false` when the sample is not (or no longer) indexed.
    pub fn remove(&mut self, label: u32, global: usize) -> bool {
        let removed = self.shards.get_mut(&label).is_some_and(|s| s.remove(global));
        if removed {
            metrics::global().counter("enld.ann.deletes_total").inc();
        }
        removed
    }

    /// Classes present in the index, ascending.
    pub fn classes(&self) -> impl Iterator<Item = u32> + '_ {
        self.shards.keys().copied()
    }

    /// Live samples of `label`.
    pub fn class_len(&self, label: u32) -> usize {
        self.shards.get(&label).map_or(0, |s| s.len())
    }

    /// Total live samples.
    pub fn len(&self) -> usize {
        self.shards.values().map(|s| s.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    pub fn params(&self) -> AnnParams {
        self.params
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

    /// Measures recall@`k` of the approximate index against an exact
    /// linear scan, using up to `PROBE_QUERIES` indexed points as their
    /// own queries (spread across shards, deterministically chosen). The
    /// result lands on the `enld.ann.recall_probe` gauge so `/metrics`
    /// exposes index health next to the detection counters. Returns 1.0
    /// for an empty index.
    pub fn recall_probe(&self, k: usize) -> f64 {
        let mut found = 0usize;
        let mut total = 0usize;
        let live_shards: Vec<&HnswShard> = self.shards.values().filter(|s| !s.is_empty()).collect();
        if !live_shards.is_empty() {
            let per_shard = PROBE_QUERIES.div_ceil(live_shards.len());
            for shard in live_shards {
                let probes: Vec<usize> = shard.live_globals().take(per_shard).collect();
                let live: Vec<usize> = shard.live_globals().collect();
                for global in probes {
                    let query = shard.point_of(global).expect("probe point is live");
                    let (hits, _) = shard.k_nearest(query, k);
                    let mut exact: Vec<(f32, usize)> = live
                        .iter()
                        .map(|&g| {
                            let p = shard.point_of(g).expect("live point");
                            let d: f32 = p.iter().zip(query).map(|(a, b)| (a - b) * (a - b)).sum();
                            (d, g)
                        })
                        .collect();
                    exact.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
                    let truth: Vec<usize> = exact.iter().take(k).map(|&(_, g)| g).collect();
                    found += hits.iter().filter(|h| truth.contains(&h.index)).count();
                    total += truth.len();
                }
            }
        }
        let recall = if total == 0 { 1.0 } else { found as f64 / total as f64 };
        metrics::global().gauge("enld.ann.recall_probe").set(recall);
        recall
    }

    /// Serialises the whole index: magic, format version, payload length,
    /// FNV-1a checksum, payload. The blob is self-contained so the
    /// checkpoint layer can embed it opaquely.
    ///
    /// # Panics
    /// Panics at the `ann.persist` failpoint when armed.
    pub fn to_bytes(&self) -> Vec<u8> {
        enld_chaos::fail_point("ann.persist");
        let mut enc = Enc::new();
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
        let payload = enc.finish();
        let mut out = Vec::with_capacity(payload.len() + 28);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Decodes a blob produced by [`AnnClassIndex::to_bytes`], rejecting
    /// bad magic, unknown versions, checksum mismatches, truncation,
    /// trailing bytes, and structurally invalid shards.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        if bytes.len() < 28 {
            return Err("index blob shorter than its header".into());
        }
        if bytes[..8] != MAGIC {
            return Err("bad index magic".into());
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != FORMAT_VERSION {
            return Err(format!(
                "unsupported index format {version} (this build reads {FORMAT_VERSION})"
            ));
        }
        let len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes")) as usize;
        let checksum = u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes"));
        let payload = &bytes[28..];
        if payload.len() != len {
            return Err(format!("payload length {} != declared {len}", payload.len()));
        }
        if fnv1a64(payload) != checksum {
            return Err("index checksum mismatch".into());
        }
        let mut dec = Dec::new(payload);
        let dim = dec.usize()?;
        if dim == 0 {
            return Err("index dim must be positive".into());
        }
        let params = AnnParams {
            m: dec.usize()?,
            ef_construction: dec.usize()?,
            ef_search: dec.usize()?,
            seed: dec.u64()?,
        };
        let count = dec.usize()?;
        let mut shards = BTreeMap::new();
        for _ in 0..count {
            let label = dec.u32()?;
            let shard = HnswShard::decode(&mut dec)?;
            if shard.dim() != dim {
                return Err(format!("shard {label} dim {} != index dim {dim}", shard.dim()));
            }
            if shards.insert(label, shard).is_some() {
                return Err(format!("duplicate shard for label {label}"));
            }
        }
        if dec.remaining() != 0 {
            return Err(format!("{} trailing bytes after index payload", dec.remaining()));
        }
        Ok(Self { shards, dim, params })
    }
}

impl NeighborIndex for AnnClassIndex {
    fn class_labels(&self) -> Vec<u32> {
        self.classes().collect()
    }

    fn class_len(&self, label: u32) -> usize {
        AnnClassIndex::class_len(self, label)
    }

    fn len(&self) -> usize {
        AnnClassIndex::len(self)
    }

    fn k_nearest_in_class(&self, label: u32, query: &[f32], k: usize) -> Vec<Neighbor> {
        AnnClassIndex::k_nearest_in_class(self, label, query, k)
    }

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
    fn remove_then_query_skips_sample() {
        let (features, labels, keep) = random_instance(80, 4, 2, 9);
        let mut ann = AnnClassIndex::build(&features, 4, &labels, &keep, AnnParams::default());
        let victim_row = 17usize;
        let label = labels[victim_row];
        let global = keep[victim_row];
        assert!(ann.remove(label, global));
        assert!(!ann.remove(label, global));
        assert!(!ann.remove(99, global), "absent class");
        let hits =
            ann.k_nearest_in_class(label, &features[victim_row * 4..(victim_row + 1) * 4], 10);
        assert!(hits.iter().all(|h| h.index != global));
    }

    #[test]
    fn recall_probe_is_perfect_on_self_queries_with_wide_beam() {
        let (features, labels, keep) = random_instance(150, 8, 3, 4);
        let params = AnnParams { ef_search: 400, ..AnnParams::default() };
        let ann = AnnClassIndex::build(&features, 8, &labels, &keep, params);
        let recall = ann.recall_probe(3);
        assert!(recall >= 0.99, "self-query recall {recall}");
        assert_eq!(AnnClassIndex::new(8, params).recall_probe(3), 1.0);
    }

    #[test]
    fn bytes_roundtrip_preserves_queries_and_accepts_updates() {
        let (features, labels, keep) = random_instance(180, 10, 4, 6);
        let mut ann = AnnClassIndex::build(&features, 10, &labels, &keep, AnnParams::default());
        ann.remove(labels[3], keep[3]);
        let blob = ann.to_bytes();
        let mut back = AnnClassIndex::from_bytes(&blob).unwrap();
        assert_eq!(back.len(), ann.len());
        assert_eq!(back.params(), ann.params());
        let q = &features[50 * 10..51 * 10];
        for c in ann.classes() {
            assert_eq!(back.k_nearest_in_class(c, q, 3), ann.k_nearest_in_class(c, q, 3));
        }
        back.insert(labels[0], 9999, q);
        assert_eq!(back.len(), ann.len() + 1);
    }

    #[test]
    fn corrupt_blobs_are_rejected() {
        let (features, labels, keep) = random_instance(40, 4, 2, 8);
        let ann = AnnClassIndex::build(&features, 4, &labels, &keep, AnnParams::default());
        let blob = ann.to_bytes();
        assert!(AnnClassIndex::from_bytes(&blob[..10]).is_err(), "truncated header");
        let mut bad_magic = blob.clone();
        bad_magic[0] ^= 0xFF;
        assert!(AnnClassIndex::from_bytes(&bad_magic).is_err(), "magic");
        let mut bad_version = blob.clone();
        bad_version[8] = 0xEE;
        assert!(AnnClassIndex::from_bytes(&bad_version).is_err(), "version");
        let mut flipped = blob.clone();
        *flipped.last_mut().unwrap() ^= 1;
        assert!(AnnClassIndex::from_bytes(&flipped).is_err(), "checksum");
        let mut trailing = blob.clone();
        trailing.push(0);
        assert!(AnnClassIndex::from_bytes(&trailing).is_err(), "declared length");
    }

    #[test]
    fn empty_build_and_queries() {
        let ann = AnnClassIndex::build(&[], 4, &[], &[], AnnParams::default());
        assert!(ann.is_empty());
        assert!(ann.k_nearest_in_class(0, &[0.0; 4], 3).is_empty());
        let blob = ann.to_bytes();
        assert!(AnnClassIndex::from_bytes(&blob).unwrap().is_empty());
    }
}
