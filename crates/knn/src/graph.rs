//! KNN graph + union-find connected components.
//!
//! Topofilter (Wu et al., NeurIPS 2020; the paper's strongest baseline)
//! builds a k-NN graph over the feature representations of each class and
//! keeps only the largest connected component, dropping isolated samples
//! as noisy. This module supplies the graph machinery.

use std::cmp::Reverse;

use crate::brute::k_nearest;

/// Disjoint-set forest with union by size and path compression.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<usize>,
    size: Vec<usize>,
}

impl UnionFind {
    pub fn new(n: usize) -> Self {
        Self { parent: (0..n).collect(), size: vec![1; n] }
    }

    /// Representative of `x`'s set (with path compression).
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merges the sets containing `a` and `b`; returns false if already
    /// merged.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) = if self.size[ra] >= self.size[rb] { (ra, rb) } else { (rb, ra) };
        self.parent[small] = big;
        self.size[big] += self.size[small];
        true
    }

    /// Size of the set containing `x`.
    pub fn set_size(&mut self, x: usize) -> usize {
        let root = self.find(x);
        self.size[root]
    }
}

/// Builds the mutual-reachability k-NN graph over `points` and returns the
/// member indices of the **largest connected component** (ties broken by
/// smallest representative). An edge joins every point to each of its `k`
/// nearest neighbours, ties at the `k`-th distance going to the lower
/// index.
///
/// Returns an empty vector for an empty point set.
pub fn largest_knn_component(points: &[f32], dim: usize, k: usize) -> Vec<usize> {
    assert!(dim > 0, "dim must be positive");
    assert_eq!(points.len() % dim, 0, "point buffer not a multiple of dim");
    let n = points.len() / dim;
    let mut uf = UnionFind::new(n);
    for i in 0..n {
        let q = &points[i * dim..(i + 1) * dim];
        // k+1 because the query point itself is among the results.
        for hit in k_nearest(points, dim, q, k + 1) {
            if hit.index != i {
                uf.union(i, hit.index);
            }
        }
    }
    let Some((_, Reverse(best_root))) = (0..n).map(|i| (uf.set_size(i), Reverse(uf.find(i)))).max()
    else {
        return Vec::new();
    };
    (0..n).filter(|&i| uf.find(i) == best_root).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TestRng, CASES};

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2), "already connected");
        assert_eq!(uf.set_size(2), 3);
        assert_eq!(uf.set_size(3), 1);
        assert_eq!(uf.find(0), uf.find(2));
        assert_ne!(uf.find(0), uf.find(4));
    }

    #[test]
    fn largest_component_separates_far_cluster() {
        // 6 chained points near the origin (non-uniform spacing so every
        // point has a unique nearest neighbour), 2 outliers far away.
        let mut pts = Vec::new();
        for x in [0.0f32, 0.1, 0.25, 0.45, 0.7, 1.0] {
            pts.push(x);
            pts.push(0.0);
        }
        pts.extend_from_slice(&[100.0, 100.0, 100.5, 100.0]);
        let comp = largest_knn_component(&pts, 2, 1);
        assert_eq!(comp, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn k_large_connects_everything() {
        let pts = vec![0.0f32, 0.0, 1.0, 0.0, 50.0, 50.0];
        let comp = largest_knn_component(&pts, 2, 2);
        assert_eq!(comp.len(), 3, "k = n-1 must connect all points");
    }

    #[test]
    fn tied_neighbours_link_the_lower_index() {
        // Point 2 at the origin is equidistant from 0 at (-1,0) and 1 at
        // (1,0); each of those pairs with a point at (±1.5, 0). The edge
        // 2 takes decides which pair joins it in the largest component.
        let pts = vec![-1.0f32, 0.0, 1.0, 0.0, 0.0, 0.0, -1.5, 0.0, 1.5, 0.0];
        assert_eq!(largest_knn_component(&pts, 2, 1), vec![0, 2, 3]);
    }

    #[test]
    fn empty_and_singleton() {
        assert!(largest_knn_component(&[], 2, 3).is_empty());
        assert_eq!(largest_knn_component(&[1.0, 2.0], 2, 3), vec![0]);
    }

    #[test]
    fn prop_component_is_nonempty_and_in_range() {
        for case in 0..CASES {
            let mut rng = TestRng(case);
            let n = rng.usize_in(2, 100) / 2;
            let pts: Vec<f32> = (0..n * 2).map(|_| rng.f32_in(-10.0, 10.0)).collect();
            let comp = largest_knn_component(&pts, 2, rng.usize_in(1, 4));
            assert!(!comp.is_empty(), "case {case}");
            assert!(comp.iter().all(|&i| i < n), "case {case}");
            // Members are unique and sorted (by construction).
            assert!(comp.windows(2).all(|w| w[0] < w[1]), "case {case}");
        }
    }

    #[test]
    fn prop_union_find_transitivity() {
        for case in 0..CASES {
            let mut rng = TestRng(case);
            let mut uf = UnionFind::new(20);
            for _ in 0..rng.usize_in(1, 60) {
                uf.union(rng.usize_in(0, 20), rng.usize_in(0, 20));
            }
            // find is idempotent and roots are self-parenting.
            for x in 0..20 {
                let r = uf.find(x);
                assert_eq!(uf.find(r), r, "case {case}");
            }
        }
    }
}
