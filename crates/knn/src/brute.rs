//! Exact brute-force k-NN: the correctness oracle for the KD-tree and the
//! approximate index.

use crate::kdtree::{by_distance, Neighbor};

/// The `k` nearest points to `query` by linear scan, ascending by distance.
///
/// # Panics
/// Panics if the buffer is not a multiple of `dim` or the query has the
/// wrong dimensionality.
pub fn brute_k_nearest(points: &[f32], dim: usize, query: &[f32], k: usize) -> Vec<Neighbor> {
    assert!(dim > 0, "dim must be positive");
    assert_eq!(points.len() % dim, 0, "point buffer not a multiple of dim");
    assert_eq!(query.len(), dim, "query dimensionality mismatch");
    let n = points.len() / dim;
    let mut all: Vec<Neighbor> = (0..n)
        .map(|i| {
            let p = &points[i * dim..(i + 1) * dim];
            let dist_sq = p.iter().zip(query).map(|(a, b)| (a - b) * (a - b)).sum();
            Neighbor { index: i, dist_sq }
        })
        .collect();
    all.sort_by(by_distance);
    all.truncate(k);
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn returns_sorted_top_k() {
        let pts = vec![3.0f32, 0.0, 1.0, 0.0, 2.0, 0.0];
        let hits = brute_k_nearest(&pts, 2, &[0.0, 0.0], 2);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].index, 1);
        assert_eq!(hits[1].index, 2);
    }

    #[test]
    fn empty_points() {
        assert!(brute_k_nearest(&[], 3, &[0.0, 0.0, 0.0], 4).is_empty());
    }

    #[test]
    fn tie_break_by_index() {
        let pts = vec![1.0f32, 0.0, 1.0, 0.0];
        let hits = brute_k_nearest(&pts, 2, &[0.0, 0.0], 2);
        assert_eq!(hits[0].index, 0);
        assert_eq!(hits[1].index, 1);
    }
}
