//! Balanced KD-tree with bounded-priority k-nearest-neighbour search.
//!
//! Points are stored in one flat buffer; nodes are indices into a
//! reordered index array, so the tree adds only `O(n)` words on top of the
//! caller's data. Construction is median-split (using `select_nth_unstable`)
//! giving a balanced tree in `O(n log n)`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One k-NN search result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Index of the point in the buffer the tree was built over.
    pub index: usize,
    /// Squared Euclidean distance to the query.
    pub dist_sq: f32,
}

/// Result order: ascending distance, ties by index. `f32::total_cmp` keeps
/// it a total order when a NaN feature makes a distance NaN (NaN sorts
/// after every finite distance); distances are sums of squares, never
/// `-0.0`, so finite inputs order exactly as under `partial_cmp`.
pub(crate) fn by_distance(a: &Neighbor, b: &Neighbor) -> Ordering {
    a.dist_sq.total_cmp(&b.dist_sq).then_with(|| a.index.cmp(&b.index))
}

/// Max-heap entry keyed on distance, so the worst current neighbour is on
/// top and can be evicted in `O(log k)`.
#[derive(Debug, Clone, Copy)]
struct HeapEntry(Neighbor);

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        by_distance(&self.0, &other.0)
    }
}

#[derive(Debug, Clone)]
struct Node {
    /// Index (into the original point buffer) of the splitting point.
    point: usize,
    axis: usize,
    left: Option<Box<Node>>,
    right: Option<Box<Node>>,
}

/// KD-tree over points packed in a flat `Vec<f32>`. A static structure:
/// built once, never mutated — incremental inserts and deletes are what
/// the `enld-ann` backend exists for.
#[derive(Debug, Clone)]
pub struct KdTree {
    points: Vec<f32>,
    dim: usize,
    root: Option<Box<Node>>,
}

impl KdTree {
    /// Builds a tree over `points` (flat row-major, `points.len() % dim == 0`).
    ///
    /// # Panics
    /// Panics if `dim == 0` or the buffer is not a multiple of `dim`.
    pub fn build(points: &[f32], dim: usize) -> Self {
        assert!(dim > 0, "dim must be positive");
        assert_eq!(points.len() % dim, 0, "point buffer not a multiple of dim");
        let n = points.len() / dim;
        let mut indices: Vec<usize> = (0..n).collect();
        let points = points.to_vec();
        let root = Self::build_node(&points, dim, &mut indices, 0);
        Self { points, dim, root }
    }

    fn build_node(
        points: &[f32],
        dim: usize,
        indices: &mut [usize],
        depth: usize,
    ) -> Option<Box<Node>> {
        if indices.is_empty() {
            return None;
        }
        let axis = depth % dim;
        let mid = indices.len() / 2;
        indices.select_nth_unstable_by(mid, |&a, &b| {
            points[a * dim + axis].partial_cmp(&points[b * dim + axis]).unwrap_or(Ordering::Equal)
        });
        let point = indices[mid];
        let (left, rest) = indices.split_at_mut(mid);
        let right = &mut rest[1..];
        Some(Box::new(Node {
            point,
            axis,
            left: Self::build_node(points, dim, left, depth + 1),
            right: Self::build_node(points, dim, right, depth + 1),
        }))
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len() / self.dim
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    #[inline]
    fn point(&self, i: usize) -> &[f32] {
        &self.points[i * self.dim..(i + 1) * self.dim]
    }

    /// The `k` nearest points to `query`, sorted by ascending distance.
    /// Returns fewer than `k` when the tree holds fewer points.
    ///
    /// # Panics
    /// Panics if `query.len() != dim`.
    pub fn k_nearest(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        assert_eq!(query.len(), self.dim, "query dimensionality mismatch");
        if k == 0 || self.root.is_none() {
            return Vec::new();
        }
        let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::with_capacity(k + 1);
        self.search(self.root.as_deref(), query, k, &mut heap);
        let mut out: Vec<Neighbor> = heap.into_iter().map(|e| e.0).collect();
        out.sort_by(by_distance);
        out
    }

    fn search(
        &self,
        node: Option<&Node>,
        query: &[f32],
        k: usize,
        heap: &mut BinaryHeap<HeapEntry>,
    ) {
        let Some(node) = node else { return };
        let p = self.point(node.point);
        let dist_sq: f32 = p.iter().zip(query).map(|(a, b)| (a - b) * (a - b)).sum();
        if heap.len() < k {
            heap.push(HeapEntry(Neighbor { index: node.point, dist_sq }));
        } else if dist_sq < heap.peek().expect("heap non-empty").0.dist_sq {
            heap.pop();
            heap.push(HeapEntry(Neighbor { index: node.point, dist_sq }));
        }

        let delta = query[node.axis] - p[node.axis];
        let (near, far) =
            if delta < 0.0 { (&node.left, &node.right) } else { (&node.right, &node.left) };
        self.search(near.as_deref(), query, k, heap);
        // Only descend the far side if the splitting plane is closer than
        // the current worst neighbour (or we still lack k results).
        let worst = heap.peek().map(|e| e.0.dist_sq).unwrap_or(f32::INFINITY);
        if heap.len() < k || delta * delta < worst {
            self.search(far.as_deref(), query, k, heap);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_k_nearest;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn grid_points() -> Vec<f32> {
        // 5x5 integer grid in 2-d.
        let mut pts = Vec::new();
        for x in 0..5 {
            for y in 0..5 {
                pts.push(x as f32);
                pts.push(y as f32);
            }
        }
        pts
    }

    #[test]
    fn nearest_on_grid() {
        let pts = grid_points();
        let tree = KdTree::build(&pts, 2);
        assert_eq!(tree.len(), 25);
        let hits = tree.k_nearest(&[2.2, 3.1], 1);
        // Closest grid point is (2,3), which is index 2*5+3 = 13.
        assert_eq!(hits[0].index, 13);
    }

    #[test]
    fn k_larger_than_len_returns_all() {
        let pts = vec![0.0f32, 0.0, 1.0, 0.0];
        let tree = KdTree::build(&pts, 2);
        let hits = tree.k_nearest(&[0.0, 0.0], 10);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn k_zero_and_empty_tree() {
        let pts = grid_points();
        let tree = KdTree::build(&pts, 2);
        assert!(tree.k_nearest(&[0.0, 0.0], 0).is_empty());
        let empty = KdTree::build(&[], 2);
        assert!(empty.is_empty());
        assert!(empty.k_nearest(&[0.0, 0.0], 3).is_empty());
    }

    #[test]
    fn matches_brute_force_on_random_points() {
        let mut rng = StdRng::seed_from_u64(17);
        for dim in [1usize, 2, 3, 8] {
            let n = 200;
            let pts: Vec<f32> = (0..n * dim).map(|_| rng.gen_range(-10.0f32..10.0)).collect();
            let tree = KdTree::build(&pts, dim);
            for _ in 0..20 {
                let q: Vec<f32> = (0..dim).map(|_| rng.gen_range(-12.0f32..12.0)).collect();
                let k = rng.gen_range(1..8usize);
                let tree_hits = tree.k_nearest(&q, k);
                let brute_hits = brute_k_nearest(&pts, dim, &q, k);
                let td: Vec<f32> = tree_hits.iter().map(|h| h.dist_sq).collect();
                let bd: Vec<f32> = brute_hits.iter().map(|h| h.dist_sq).collect();
                assert_eq!(td, bd, "dim {dim} k {k}");
            }
        }
    }

    proptest! {
        #[test]
        fn prop_kdtree_equals_brute(
            pts in proptest::collection::vec(-100.0f32..100.0, 3..120),
            qx in -120.0f32..120.0,
            qy in -120.0f32..120.0,
            k in 1usize..6,
        ) {
            // Round down to whole 3-d points.
            let n = pts.len() / 3;
            prop_assume!(n > 0);
            let pts = &pts[..n * 3];
            let tree = KdTree::build(pts, 3);
            let q = [qx, qy, 0.5];
            let tree_hits = tree.k_nearest(&q, k);
            let brute_hits = brute_k_nearest(pts, 3, &q, k);
            prop_assert_eq!(tree_hits.len(), brute_hits.len());
            for (t, b) in tree_hits.iter().zip(&brute_hits) {
                prop_assert!((t.dist_sq - b.dist_sq).abs() <= 1e-3 * (1.0 + b.dist_sq));
            }
        }

        #[test]
        fn prop_results_sorted_ascending(
            pts in proptest::collection::vec(-50.0f32..50.0, 10..80),
        ) {
            let n = pts.len() / 2;
            let pts = &pts[..n * 2];
            let tree = KdTree::build(pts, 2);
            let hits = tree.k_nearest(&[0.0, 0.0], 5);
            for w in hits.windows(2) {
                prop_assert!(w[0].dist_sq <= w[1].dist_sq);
            }
        }
    }

    #[test]
    fn nan_coordinates_keep_results_totally_ordered() {
        let sorted = |hits: &[Neighbor]| {
            hits.windows(2).all(|w| by_distance(&w[0], &w[1]) != Ordering::Greater)
        };
        // A NaN point (index 1) among finite ones, then a NaN query.
        let pts = vec![3.0f32, 0.0, f32::NAN, 0.0, 1.0, 0.0, 2.0, 0.0];
        let tree = KdTree::build(&pts, 2);
        for query in [[0.0f32, 0.0], [f32::NAN, 0.0]] {
            let brute = brute_k_nearest(&pts, 2, &query, 4);
            assert_eq!(brute.len(), 4);
            assert!(sorted(&brute), "{brute:?}");
            assert!(sorted(&tree.k_nearest(&query, 4)));
        }
        // Brute force ranks every finite distance before the NaN one.
        let brute = brute_k_nearest(&pts, 2, &[0.0, 0.0], 4);
        assert_eq!(brute.iter().map(|h| h.index).collect::<Vec<_>>(), [2, 3, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn query_dim_mismatch_panics() {
        let tree = KdTree::build(&[0.0, 0.0], 2);
        let _ = tree.k_nearest(&[0.0], 1);
    }
}
