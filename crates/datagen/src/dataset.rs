//! Owned labelled dataset with observed labels, ground-truth labels, and a
//! missing-label mask.
//!
//! Features are stored flat (`xs.len() == len * dim`) so downstream crates
//! can borrow zero-copy views (`enld_nn::DataRef`) and train on index
//! subsets without materialising copies.

use std::collections::BTreeSet;

/// An owned dataset: observed labels `ỹ`, ground-truth labels `y*`
/// (kept for evaluation only — detectors never read them), stable sample
/// ids, and a missing-label mask (paper §V-H).
#[derive(Debug, Clone)]
pub struct Dataset {
    xs: Vec<f32>,
    dim: usize,
    labels: Vec<u32>,
    true_labels: Vec<u32>,
    ids: Vec<u64>,
    missing: Vec<bool>,
    /// Total number of classes in the task (labels are `< classes`).
    classes: usize,
    /// Name of the noise model that corrupted this dataset, if any.
    /// Evaluation metadata only — detectors never read it. `None` on
    /// clean data and on datasets written before the field existed.
    noise_tag: Option<String>,
}

impl Dataset {
    /// Builds a clean dataset (observed == true labels, fresh ids).
    ///
    /// # Panics
    /// Panics on shape mismatch or out-of-range labels.
    pub fn new(xs: Vec<f32>, labels: Vec<u32>, dim: usize, classes: usize) -> Self {
        let n = labels.len();
        let ids = (0..n as u64).collect();
        Self::from_parts(xs, dim, labels.clone(), labels, ids, vec![false; n], classes)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Reassembles a dataset from its stored parts (a lake file), checking
    /// every invariant the accessors rely on: `dim > 0`, `dim` features,
    /// one id, one true label and one missing flag per label, and every
    /// label and true label below `classes`. The noise tag starts unset.
    ///
    /// # Errors
    /// Names the first broken invariant.
    pub fn from_parts(
        xs: Vec<f32>,
        dim: usize,
        labels: Vec<u32>,
        true_labels: Vec<u32>,
        ids: Vec<u64>,
        missing: Vec<bool>,
        classes: usize,
    ) -> Result<Self, String> {
        let n = labels.len();
        if dim == 0 || n.checked_mul(dim) != Some(xs.len()) {
            return Err(format!("{} features do not make {n} rows of dim {dim}", xs.len()));
        }
        let (t, i, m) = (true_labels.len(), ids.len(), missing.len());
        if (t, i, m) != (n, n, n) {
            return Err(format!("{n} labels, but {t} true labels, {i} ids, {m} missing flags"));
        }
        if labels.iter().chain(&true_labels).any(|&l| l as usize >= classes) {
            return Err(format!("label out of range for {classes} classes"));
        }
        Ok(Self { xs, dim, labels, true_labels, ids, missing, classes, noise_tag: None })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Total number of classes in the task.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Flat feature buffer.
    pub fn xs(&self) -> &[f32] {
        &self.xs
    }

    /// Feature vector of sample `i`.
    pub fn row(&self, i: usize) -> &[f32] {
        &self.xs[i * self.dim..(i + 1) * self.dim]
    }

    /// Observed (possibly corrupted) labels `ỹ`.
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// Ground-truth labels `y*` — for evaluation only.
    pub fn true_labels(&self) -> &[u32] {
        &self.true_labels
    }

    /// Stable sample ids (preserved across subsetting and noise).
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// Missing-label mask; `true` means the observed label is absent.
    pub fn missing_mask(&self) -> &[bool] {
        &self.missing
    }

    /// Indices whose observed label is missing.
    pub fn missing_indices(&self) -> Vec<usize> {
        (0..self.len()).filter(|&i| self.missing[i]).collect()
    }

    /// Overwrites the observed label of sample `i` (noise injection).
    pub(crate) fn set_label(&mut self, i: usize, label: u32) {
        assert!((label as usize) < self.classes);
        self.labels[i] = label;
    }

    pub(crate) fn set_missing(&mut self, i: usize, missing: bool) {
        self.missing[i] = missing;
    }

    /// Name of the noise model that produced this dataset's observed
    /// labels, if recorded.
    pub fn noise_tag(&self) -> Option<&str> {
        self.noise_tag.as_deref()
    }

    /// Records which noise model corrupted this dataset.
    pub fn set_noise_tag(&mut self, tag: impl Into<String>) {
        self.noise_tag = Some(tag.into());
    }

    /// Indices where the observed label disagrees with the ground truth
    /// (the noisy-label ground truth set `D_N`, excluding missing labels).
    pub fn noisy_indices(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| !self.missing[i] && self.labels[i] != self.true_labels[i])
            .collect()
    }

    /// Distinct observed labels present — `label(D)` in the paper.
    pub fn label_set(&self) -> BTreeSet<u32> {
        self.labels.iter().zip(&self.missing).filter(|(_, &m)| !m).map(|(&l, _)| l).collect()
    }

    /// Per-class observed-label counts (length = `classes`).
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.classes];
        for (&l, &m) in self.labels.iter().zip(&self.missing) {
            if !m {
                counts[l as usize] += 1;
            }
        }
        counts
    }

    /// New dataset containing only the rows named by `indices`
    /// (ids, true labels and missing flags travel with the rows).
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let mut xs = Vec::with_capacity(indices.len() * self.dim);
        let mut labels = Vec::with_capacity(indices.len());
        let mut true_labels = Vec::with_capacity(indices.len());
        let mut ids = Vec::with_capacity(indices.len());
        let mut missing = Vec::with_capacity(indices.len());
        for &i in indices {
            xs.extend_from_slice(self.row(i));
            labels.push(self.labels[i]);
            true_labels.push(self.true_labels[i]);
            ids.push(self.ids[i]);
            missing.push(self.missing[i]);
        }
        Dataset {
            xs,
            dim: self.dim,
            labels,
            true_labels,
            ids,
            missing,
            classes: self.classes,
            noise_tag: self.noise_tag.clone(),
        }
    }

    /// Concatenates two datasets over the same task.
    ///
    /// # Panics
    /// Panics if `dim` or `classes` disagree.
    pub fn concat(&self, other: &Dataset) -> Dataset {
        assert_eq!(self.dim, other.dim, "dim mismatch");
        assert_eq!(self.classes, other.classes, "class-count mismatch");
        let mut out = self.clone();
        out.xs.extend_from_slice(&other.xs);
        out.labels.extend_from_slice(&other.labels);
        out.true_labels.extend_from_slice(&other.true_labels);
        out.ids.extend_from_slice(&other.ids);
        out.missing.extend_from_slice(&other.missing);
        out
    }

    /// Re-assigns globally unique ids starting at `base` (used by the lake
    /// to number every sample it holds).
    pub fn reassign_ids(&mut self, base: u64) {
        for (k, id) in self.ids.iter_mut().enumerate() {
            *id = base + k as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let xs = (0..12).map(|v| v as f32).collect();
        Dataset::new(xs, vec![0, 1, 2, 0, 1, 2], 2, 3)
    }

    #[test]
    fn construction_and_accessors() {
        let d = toy();
        assert_eq!(d.len(), 6);
        assert_eq!(d.dim(), 2);
        assert_eq!(d.classes(), 3);
        assert_eq!(d.row(2), &[4.0, 5.0]);
        assert_eq!(d.labels(), d.true_labels());
        assert!(d.noisy_indices().is_empty());
        assert_eq!(d.ids(), &[0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn label_set_and_counts() {
        let d = toy();
        assert_eq!(d.label_set().into_iter().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(d.class_counts(), vec![2, 2, 2]);
    }

    #[test]
    fn noise_and_missing_tracking() {
        let mut d = toy();
        d.set_label(0, 1);
        d.set_missing(3, true);
        assert_eq!(d.noisy_indices(), vec![0]);
        assert_eq!(d.missing_indices(), vec![3]);
        // Missing samples drop out of the label set / counts: sample 0 was
        // relabelled 0→1 and sample 3 (label 0) is masked.
        assert_eq!(d.class_counts(), vec![0, 3, 2]);
    }

    #[test]
    fn subset_preserves_identity() {
        let mut d = toy();
        d.set_label(4, 0);
        let s = d.subset(&[4, 1]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.ids(), &[4, 1]);
        assert_eq!(s.labels(), &[0, 1]);
        assert_eq!(s.true_labels(), &[1, 1]);
        assert_eq!(s.noisy_indices(), vec![0]);
        assert_eq!(s.row(0), d.row(4));
    }

    #[test]
    fn concat_appends() {
        let a = toy();
        let b = toy();
        let c = a.concat(&b);
        assert_eq!(c.len(), 12);
        assert_eq!(c.row(7), b.row(1));
    }

    #[test]
    fn reassign_ids() {
        let mut d = toy();
        d.reassign_ids(100);
        assert_eq!(d.ids(), &[100, 101, 102, 103, 104, 105]);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_out_of_range_labels() {
        let _ = Dataset::new(vec![0.0; 4], vec![0, 5], 2, 3);
    }

    #[test]
    fn from_parts_checks_every_invariant() {
        type Parts = (Vec<f32>, usize, Vec<u32>, Vec<u32>, Vec<u64>, Vec<bool>, usize);
        let build = |edit: fn(&mut Parts)| {
            let mut p: Parts =
                (vec![0.0; 4], 2, vec![0, 1], vec![0, 1], vec![7, 9], vec![false, true], 2);
            edit(&mut p);
            let (xs, dim, labels, true_labels, ids, missing, classes) = p;
            Dataset::from_parts(xs, dim, labels, true_labels, ids, missing, classes)
        };
        let d = build(|_| {}).expect("valid parts");
        assert_eq!(d.ids(), &[7, 9]);
        assert_eq!(d.missing_indices(), vec![1]);
        let edits: [fn(&mut Parts); 7] = [
            |p| p.1 = 0,
            |p| p.0.truncate(3),
            |p| p.2[1] = 2,
            |p| p.3[0] = 5,
            |p| p.3.push(0),
            |p| p.4.truncate(1),
            |p| p.5.push(false),
        ];
        for (i, edit) in edits.into_iter().enumerate() {
            assert!(build(edit).is_err(), "edit {i} must be rejected");
        }
    }

    /// The lake-file half (the tag on disk) is tested in `enld-cli`,
    /// which owns the lake-file format.
    #[test]
    fn noise_tag_travels_with_subsets() {
        let mut d = toy();
        assert_eq!(d.noise_tag(), None);
        d.set_noise_tag("drift");
        assert_eq!(d.subset(&[0, 1]).noise_tag(), Some("drift"));
    }
}
