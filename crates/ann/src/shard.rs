//! One HNSW proximity graph over the samples of a single class.
//!
//! The shard is the unit of ownership in the sharded index layout. Its
//! graph — and therefore every query answered from it — is a function of
//! its inserts in order, by two rules:
//!
//! 1. node levels derive from a counter: the `n`-th insertion into a shard
//!    always lands on the same level, because the level RNG is
//!    `splitmix64(shard_seed ^ n·GOLDEN)` — no global RNG, no state to
//!    checkpoint;
//! 2. every ordering decision (beam heaps, neighbour pruning, greedy
//!    descent) breaks distance ties by node id via [`f32::total_cmp`].

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use enld_chaos::durable::Enc;
use enld_knn::index::AnnParams;
use enld_knn::Neighbor;

/// Levels fit in a `u8`; with `m ≥ 2` the geometric distribution makes
/// level 16 a once-per-4-billion-inserts event, so the clamp is inert.
const MAX_LEVEL: usize = 15;

/// Same golden-ratio constant the detector uses for seed derivation.
pub(crate) const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Search-frontier entry with a total, deterministic order:
/// distance first ([`f32::total_cmp`]), node id as the tie-break.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Cand {
    pub dist: f32,
    pub node: u32,
}

impl Eq for Cand {}
impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Cand {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist.total_cmp(&other.dist).then_with(|| self.node.cmp(&other.node))
    }
}

/// Per-search cost accounting, surfaced as `enld.ann.*` counters by the
/// class-level index (the shard itself stays telemetry-free so unit tests
/// and benches don't touch the global registry).
#[derive(Debug, Default, Clone, Copy)]
pub struct SearchStats {
    /// Nodes whose distance to the query was evaluated (graph hops).
    pub hops: u64,
}

/// HNSW graph over the feature vectors of one class.
#[derive(Debug, Clone)]
pub struct HnswShard {
    dim: usize,
    params: AnnParams,
    /// Shard-level seed (folds the class label into level assignment).
    seed: u64,
    /// Flat row-major point buffer.
    points: Vec<f32>,
    /// Global sample index behind each node.
    globals: Vec<usize>,
    /// Top layer of each node.
    levels: Vec<u8>,
    /// `links[node][layer]` — adjacency lists, symmetric by construction.
    links: Vec<Vec<Vec<u32>>>,
    /// Highest-level node, the search entry point.
    entry: Option<u32>,
}

impl HnswShard {
    pub fn new(dim: usize, params: AnnParams, seed: u64) -> Self {
        assert!(dim > 0, "dim must be positive");
        Self {
            dim,
            params,
            seed,
            points: Vec::new(),
            globals: Vec::new(),
            levels: Vec::new(),
            links: Vec::new(),
            entry: None,
        }
    }

    /// Node count.
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    #[inline]
    fn point(&self, node: u32) -> &[f32] {
        let i = node as usize;
        &self.points[i * self.dim..(i + 1) * self.dim]
    }

    #[inline]
    fn dist(&self, node: u32, query: &[f32]) -> f32 {
        self.point(node).iter().zip(query).map(|(a, b)| (a - b) * (a - b)).sum()
    }

    /// Max list length at `layer`: `2m` on the base layer, `m` above.
    fn layer_cap(&self, layer: usize) -> usize {
        let m = self.params.m.max(1);
        if layer == 0 {
            m * 2
        } else {
            m
        }
    }

    /// Deterministic geometric level for the `counter`-th insertion.
    fn level_for(&self, counter: u64) -> usize {
        let r = splitmix64(self.seed ^ counter.wrapping_mul(GOLDEN));
        // Map the top 53 bits to (0, 1] so ln() is always finite.
        let u = ((r >> 11) + 1) as f64 / (1u64 << 53) as f64;
        let mult = 1.0 / (self.params.m.max(2) as f64).ln();
        ((-u.ln() * mult) as usize).min(MAX_LEVEL)
    }

    /// Inserts a point, returning its node id and the search cost.
    ///
    /// # Panics
    /// Panics on dimensionality mismatch (and at the `ann.insert`
    /// failpoint when armed).
    pub fn insert(&mut self, global: usize, point: &[f32]) -> (u32, SearchStats) {
        assert_eq!(point.len(), self.dim, "point dimensionality mismatch");
        enld_chaos::fail_point("ann.insert");
        let id = self.levels.len() as u32;
        let level = self.level_for(u64::from(id));
        self.points.extend_from_slice(point);
        self.globals.push(global);
        self.levels.push(level as u8);
        self.links.push(vec![Vec::new(); level + 1]);

        let mut stats = SearchStats::default();
        let Some(entry) = self.entry else {
            self.entry = Some(id);
            return (id, stats);
        };
        let entry_level = self.levels[entry as usize] as usize;
        let mut cur = Cand { dist: self.dist(entry, point), node: entry };
        stats.hops += 1;
        for layer in (level + 1..=entry_level).rev() {
            cur = self.greedy_step(point, cur, layer, &mut stats);
        }
        let mut eps = vec![cur];
        for layer in (0..=level.min(entry_level)).rev() {
            let found = self.search_layer(
                point,
                &eps,
                self.params.ef_construction.max(1),
                layer,
                &mut stats,
            );
            let m = self.params.m.max(1);
            for c in found.iter().take(m) {
                self.link(id, c.node, layer);
            }
            eps = found;
        }
        if level > entry_level {
            self.entry = Some(id);
        }
        (id, stats)
    }

    /// Adds the symmetric edge `a — b` at `layer`, then prunes both
    /// endpoints back under the layer cap (dropping an edge removes it
    /// from *both* adjacency lists, preserving symmetry).
    fn link(&mut self, a: u32, b: u32, layer: usize) {
        if a == b {
            return;
        }
        if !self.links[a as usize][layer].contains(&b) {
            self.links[a as usize][layer].push(b);
        }
        if !self.links[b as usize][layer].contains(&a) {
            self.links[b as usize][layer].push(a);
        }
        self.prune(a, layer);
        self.prune(b, layer);
    }

    fn prune(&mut self, node: u32, layer: usize) {
        let cap = self.layer_cap(layer);
        if self.links[node as usize][layer].len() <= cap {
            return;
        }
        let origin = self.point(node).to_vec();
        let mut ranked: Vec<Cand> = self.links[node as usize][layer]
            .iter()
            .map(|&nb| Cand { dist: self.dist(nb, &origin), node: nb })
            .collect();
        ranked.sort_unstable();
        let (keep, drop) = ranked.split_at(cap);
        self.links[node as usize][layer] = keep.iter().map(|c| c.node).collect();
        for d in drop {
            self.links[d.node as usize][layer].retain(|&x| x != node);
        }
    }

    /// One greedy hill-climb at `layer`: repeatedly move to the closest
    /// neighbour until no neighbour improves on the current node.
    fn greedy_step(
        &self,
        query: &[f32],
        mut cur: Cand,
        layer: usize,
        stats: &mut SearchStats,
    ) -> Cand {
        loop {
            let mut best = cur;
            for &nb in &self.links[cur.node as usize][layer] {
                stats.hops += 1;
                let cand = Cand { dist: self.dist(nb, query), node: nb };
                if cand < best {
                    best = cand;
                }
            }
            if best.node == cur.node {
                return cur;
            }
            cur = best;
        }
    }

    /// ef-bounded best-first beam over `layer`, seeded at `eps`. Returns
    /// up to `ef` candidates sorted ascending by `(dist, node)`.
    fn search_layer(
        &self,
        query: &[f32],
        eps: &[Cand],
        ef: usize,
        layer: usize,
        stats: &mut SearchStats,
    ) -> Vec<Cand> {
        let mut visited = vec![false; self.levels.len()];
        // Frontier: min-heap by distance. Results: max-heap, bounded to ef.
        let mut frontier: BinaryHeap<std::cmp::Reverse<Cand>> = BinaryHeap::new();
        let mut results: BinaryHeap<Cand> = BinaryHeap::with_capacity(ef + 1);
        for &ep in eps {
            if !visited[ep.node as usize] {
                visited[ep.node as usize] = true;
                frontier.push(std::cmp::Reverse(ep));
                results.push(ep);
            }
        }
        while results.len() > ef {
            results.pop();
        }
        while let Some(std::cmp::Reverse(c)) = frontier.pop() {
            if results.len() >= ef && c > *results.peek().expect("results non-empty") {
                break;
            }
            for &nb in &self.links[c.node as usize][layer] {
                if visited[nb as usize] {
                    continue;
                }
                visited[nb as usize] = true;
                stats.hops += 1;
                let cand = Cand { dist: self.dist(nb, query), node: nb };
                if results.len() < ef {
                    results.push(cand);
                    frontier.push(std::cmp::Reverse(cand));
                } else if cand < *results.peek().expect("results full") {
                    results.pop();
                    results.push(cand);
                    frontier.push(std::cmp::Reverse(cand));
                }
            }
        }
        results.into_sorted_vec()
    }

    /// The `k` nearest points to `query` with an explicit beam width,
    /// as [`Neighbor`]s carrying global indices, sorted ascending by
    /// `(dist_sq, index)` like the exact backend.
    pub fn k_nearest_with_ef(
        &self,
        query: &[f32],
        k: usize,
        ef: usize,
    ) -> (Vec<Neighbor>, SearchStats) {
        assert_eq!(query.len(), self.dim, "query dimensionality mismatch");
        let mut stats = SearchStats::default();
        let Some(entry) = self.entry else {
            return (Vec::new(), stats);
        };
        if k == 0 {
            return (Vec::new(), stats);
        }
        let entry_level = self.levels[entry as usize] as usize;
        let mut cur = Cand { dist: self.dist(entry, query), node: entry };
        stats.hops += 1;
        for layer in (1..=entry_level).rev() {
            cur = self.greedy_step(query, cur, layer, &mut stats);
        }
        let found = self.search_layer(query, &[cur], ef.max(k), 0, &mut stats);
        let mut out: Vec<Neighbor> = found
            .into_iter()
            .take(k)
            .map(|c| Neighbor { index: self.globals[c.node as usize], dist_sq: c.dist })
            .collect();
        out.sort_by(|a, b| a.dist_sq.total_cmp(&b.dist_sq).then_with(|| a.index.cmp(&b.index)));
        (out, stats)
    }

    /// [`HnswShard::k_nearest_with_ef`] at the configured `ef_search`.
    pub fn k_nearest(&self, query: &[f32], k: usize) -> (Vec<Neighbor>, SearchStats) {
        self.k_nearest_with_ef(query, k, self.params.ef_search)
    }

    /// Cheap `O(edges)` structural validation: array shapes, layer caps,
    /// link targets in range and deep enough (layer monotonicity), and an
    /// entry point in range.
    pub fn validate_shapes(&self) -> Result<(), String> {
        let n = self.levels.len();
        if self.points.len() != n * self.dim || self.globals.len() != n || self.links.len() != n {
            return Err("parallel array shape mismatch".into());
        }
        for i in 0..n {
            if self.links[i].len() != self.levels[i] as usize + 1 {
                return Err(format!("node {i} layer count != level+1"));
            }
            for (layer, list) in self.links[i].iter().enumerate() {
                if list.len() > self.layer_cap(layer) {
                    return Err(format!("node {i} layer {layer} exceeds cap"));
                }
                for &nb in list {
                    let j = nb as usize;
                    if j >= n {
                        return Err(format!("node {i} links absent node {j}"));
                    }
                    // Layer monotonicity: a layer-l edge requires level ≥ l.
                    if (self.levels[j] as usize) < layer {
                        return Err(format!("node {j} linked above its level"));
                    }
                }
            }
        }
        match self.entry {
            Some(e) if e as usize >= n => Err("entry point out of range".into()),
            None if n != 0 => Err("nodes but no entry point".into()),
            _ => Ok(()),
        }
    }

    /// Full invariant check for tests and property suites: everything in
    /// [`HnswShard::validate_shapes`] plus link symmetry (`a→b ⇒ b→a` at
    /// the same layer, which insert and pruning both preserve).
    pub fn check_invariants(&self) -> Result<(), String> {
        self.validate_shapes()?;
        for (i, layers) in self.links.iter().enumerate() {
            for (layer, list) in layers.iter().enumerate() {
                for &nb in list {
                    if !self.links[nb as usize][layer].contains(&(i as u32)) {
                        return Err(format!("edge {i}→{} at layer {layer} not symmetric", nb));
                    }
                }
            }
        }
        Ok(())
    }

    /// Appends the shard's arrays to `enc`. Only
    /// [`AnnClassIndex::to_bytes`](crate::AnnClassIndex::to_bytes) calls
    /// it, for the benchmark's `ann.blob_bytes`; both go with that metric.
    pub(crate) fn encode(&self, enc: &mut Enc) {
        enc.usize(self.dim);
        enc.usize(self.params.m);
        enc.usize(self.params.ef_construction);
        enc.usize(self.params.ef_search);
        enc.u64(self.params.seed);
        enc.u64(self.seed);
        enc.u32(self.entry.map_or(u32::MAX, |e| e));
        enc.f32_slice(&self.points);
        enc.usize_slice(&self.globals);
        enc.u8_slice(&self.levels);
        enc.seq(&self.links, |e, layers| e.seq(layers, |e, list| e.u32_slice(list)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enld_knn::brute::k_nearest;

    use crate::testutil::random_points;

    fn build_shard(pts: &[f32], dim: usize, params: AnnParams) -> HnswShard {
        let mut shard = HnswShard::new(dim, params, 42);
        for (i, row) in pts.chunks(dim).enumerate() {
            shard.insert(i, row);
        }
        shard
    }

    #[test]
    fn exhaustive_beam_is_exact() {
        // With ef ≥ n the beam explores the whole connected base layer,
        // so results must equal brute force.
        let dim = 8;
        let pts = random_points(120, dim, 3);
        let params =
            AnnParams { m: 8, ef_construction: 64, ef_search: 200, ..AnnParams::default() };
        let shard = build_shard(&pts, dim, params);
        shard.check_invariants().unwrap();
        for t in 0..20u64 {
            let q: Vec<f32> = random_points(1, dim, 900 + t).iter().map(|x| x * 1.2).collect();
            let (hits, stats) = shard.k_nearest_with_ef(&q, 5, 200);
            let brute = k_nearest(&pts, dim, &q, 5);
            let hd: Vec<f32> = hits.iter().map(|h| h.dist_sq).collect();
            let bd: Vec<f32> = brute.iter().map(|h| h.dist_sq).collect();
            assert_eq!(hd, bd);
            assert!(stats.hops > 0);
        }
    }

    #[test]
    fn recall_at_default_ef_is_high() {
        let dim = 16;
        let n = 800;
        let pts = random_points(n, dim, 11);
        let shard = build_shard(&pts, dim, AnnParams::default());
        let mut found = 0usize;
        let mut total = 0usize;
        for t in 0..50u64 {
            let q = random_points(1, dim, 7000 + t);
            let (hits, _) = shard.k_nearest(&q, 5);
            let brute = k_nearest(&pts, dim, &q, 5);
            let truth: std::collections::HashSet<usize> = brute.iter().map(|h| h.index).collect();
            found += hits.iter().filter(|h| truth.contains(&h.index)).count();
            total += truth.len();
        }
        let recall = found as f64 / total as f64;
        assert!(recall >= 0.95, "recall {recall} below 0.95");
    }

    #[test]
    fn levels_are_counter_deterministic() {
        let params = AnnParams::default();
        let a = build_shard(&random_points(50, 3, 1), 3, params);
        let b = build_shard(&random_points(50, 3, 2), 3, params);
        // Same insertion counters ⇒ same level sequence, independent of
        // the point values.
        assert_eq!(a.levels, b.levels);
    }
}
