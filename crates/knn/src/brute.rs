//! Exact k-NN by linear scan: the one exact neighbour search, behind
//! [`crate::ClassIndex`], Topofilter's graph and Fig. 3's Nearest-Only,
//! and the reference `enld-ann` is tested against.

use std::cmp::Ordering;

/// One k-NN search result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Index of the point: its row in the scanned buffer, or the global
    /// sample index a [`crate::ClassIndex`] maps that row to.
    pub index: usize,
    /// Squared Euclidean distance to the query.
    pub dist_sq: f32,
}

/// Result order: ascending distance, ties by index. `f32::total_cmp` keeps
/// it total when a NaN feature makes a distance NaN (NaN sorts last);
/// sums of squares are never `-0.0`, so finite ones order as `partial_cmp`.
pub(crate) fn by_distance(a: &Neighbor, b: &Neighbor) -> Ordering {
    a.dist_sq.total_cmp(&b.dist_sq).then_with(|| a.index.cmp(&b.index))
}

/// The `k` nearest points to `query`, ascending by `(dist_sq, index)`.
/// Returns fewer than `k` when `points` holds fewer.
///
/// # Panics
/// Panics if `dim == 0`, the buffer is not a multiple of `dim` or the
/// query has the wrong dimensionality.
pub fn k_nearest(points: &[f32], dim: usize, query: &[f32], k: usize) -> Vec<Neighbor> {
    scan(points, dim, query, k, |row| row)
}

/// [`k_nearest`] reporting row `r` as `index(r)`; ties break on the
/// reported index. Selects the `k` smallest in `O(n)` and sorts only
/// those.
pub(crate) fn scan(
    points: &[f32],
    dim: usize,
    query: &[f32],
    k: usize,
    index: impl Fn(usize) -> usize,
) -> Vec<Neighbor> {
    assert!(dim > 0, "dim must be positive");
    assert_eq!(points.len() % dim, 0, "point buffer not a multiple of dim");
    assert_eq!(query.len(), dim, "query dimensionality mismatch");
    if k == 0 {
        return Vec::new();
    }
    let mut hits: Vec<Neighbor> = points
        .chunks_exact(dim)
        .enumerate()
        .map(|(row, p)| {
            let dist_sq = p.iter().zip(query).map(|(a, b)| (a - b) * (a - b)).sum();
            Neighbor { index: index(row), dist_sq }
        })
        .collect();
    if k < hits.len() {
        hits.select_nth_unstable_by(k - 1, by_distance);
        hits.truncate(k);
    }
    hits.sort_unstable_by(by_distance);
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TestRng, CASES};

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

    /// `len` uniform coordinates in `lo..hi` with `len` drawn from `lens`,
    /// cut down to whole `dim`-d points.
    fn random_points(
        rng: &mut TestRng,
        lens: (usize, usize),
        lo: f32,
        hi: f32,
        dim: usize,
    ) -> Vec<f32> {
        let len = rng.usize_in(lens.0, lens.1);
        let mut pts: Vec<f32> = (0..len).map(|_| rng.f32_in(lo, hi)).collect();
        pts.truncate(len / dim * dim);
        pts
    }

    #[test]
    fn returns_sorted_top_k() {
        let pts = vec![3.0f32, 0.0, 1.0, 0.0, 2.0, 0.0];
        let hits = k_nearest(&pts, 2, &[0.0, 0.0], 2);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].index, 1);
        assert_eq!(hits[1].index, 2);
    }

    #[test]
    fn empty_points() {
        assert!(k_nearest(&[], 3, &[0.0, 0.0, 0.0], 4).is_empty());
    }

    #[test]
    fn tie_break_by_index() {
        let pts = vec![1.0f32, 0.0, 1.0, 0.0];
        let hits = k_nearest(&pts, 2, &[0.0, 0.0], 2);
        assert_eq!(hits[0].index, 0);
        assert_eq!(hits[1].index, 1);
        // The tie also decides which point a bounded selection keeps.
        assert_eq!(k_nearest(&[1.0, 0.0, -1.0, 0.0], 2, &[0.0, 0.0], 1)[0].index, 0);
    }

    #[test]
    fn nearest_on_grid() {
        let hits = k_nearest(&grid_points(), 2, &[2.2, 3.1], 1);
        // Closest grid point is (2,3), which is index 2*5+3 = 13.
        assert_eq!(hits[0].index, 13);
    }

    #[test]
    fn k_larger_than_len_returns_all() {
        let pts = vec![0.0f32, 0.0, 1.0, 0.0];
        assert_eq!(k_nearest(&pts, 2, &[0.0, 0.0], 10).len(), 2);
    }

    #[test]
    fn k_zero_and_empty_points() {
        assert!(k_nearest(&grid_points(), 2, &[0.0, 0.0], 0).is_empty());
        assert!(k_nearest(&[], 2, &[0.0, 0.0], 3).is_empty());
    }

    /// The bounded selection returns exactly the first `k` of a sort of
    /// every point, ties and duplicate points included.
    #[test]
    fn prop_bounded_selection_equals_full_sort() {
        for case in 0..CASES {
            let mut rng = TestRng(case);
            let dim = rng.usize_in(1, 5);
            // Coarse integer coordinates make equal distances common.
            let pts: Vec<f32> = random_points(&mut rng, (0, 160), -4.0, 4.0, dim)
                .into_iter()
                .map(f32::round)
                .collect();
            let q: Vec<f32> = (0..dim).map(|_| rng.f32_in(-5.0, 5.0).round()).collect();
            let k = rng.usize_in(0, 12);
            let mut want: Vec<Neighbor> = pts
                .chunks(dim)
                .enumerate()
                .map(|(index, p)| Neighbor {
                    index,
                    dist_sq: p.iter().zip(&q).map(|(a, b)| (a - b) * (a - b)).sum(),
                })
                .collect();
            want.sort_by(|a, b| {
                a.dist_sq.partial_cmp(&b.dist_sq).unwrap().then(a.index.cmp(&b.index))
            });
            want.truncate(k);
            assert_eq!(k_nearest(&pts, dim, &q, k), want, "case {case}");
        }
    }

    #[test]
    fn prop_results_sorted_ascending() {
        for case in 0..CASES {
            let pts = random_points(&mut TestRng(case), (10, 80), -50.0, 50.0, 2);
            let hits = k_nearest(&pts, 2, &[0.0, 0.0], 5);
            assert!(hits.windows(2).all(|w| w[0].dist_sq <= w[1].dist_sq), "case {case}");
        }
    }

    #[test]
    fn nan_coordinates_keep_results_totally_ordered() {
        let sorted = |hits: &[Neighbor]| {
            hits.windows(2).all(|w| by_distance(&w[0], &w[1]) != Ordering::Greater)
        };
        // A NaN point (index 1) among finite ones, then a NaN query.
        let pts = vec![3.0f32, 0.0, f32::NAN, 0.0, 1.0, 0.0, 2.0, 0.0];
        for query in [[0.0f32, 0.0], [f32::NAN, 0.0]] {
            for k in [2, 4] {
                let hits = k_nearest(&pts, 2, &query, k);
                assert_eq!(hits.len(), k);
                assert!(sorted(&hits), "{hits:?}");
            }
        }
        // Every finite distance ranks before the NaN one.
        let hits = k_nearest(&pts, 2, &[0.0, 0.0], 4);
        assert_eq!(hits.iter().map(|h| h.index).collect::<Vec<_>>(), [2, 3, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn query_dim_mismatch_panics() {
        let _ = k_nearest(&[0.0, 0.0], 2, &[0.0], 1);
    }
}
