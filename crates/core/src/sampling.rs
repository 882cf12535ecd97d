//! Sample-selection strategies.
//!
//! * [`contrastive_sampling`] — the paper's Alg. 2: per ambiguous sample,
//!   draw a candidate true label from `P̃` and take its `k` nearest
//!   high-quality inventory samples in feature space.
//! * [`SamplingPolicy`] + [`policy_sampling`] — the §V-D alternatives
//!   (Random / Highest-Confidence / Least-Confidence / Entropy / Pseudo).
//! * [`AdditionStrategy`] + [`addition_selection`] — the Fig. 3 analysis
//!   experiment (Random / Nearest-Only / Nearest-Related additions with
//!   true labels).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

use enld_knn::class_index::ClassIndex;
use enld_knn::kdtree::KdTree;
use enld_knn::NeighborIndex;
use enld_nn::loss::entropy;
use enld_nn::matrix::Matrix;

use crate::ledger::ContrastDraw;
use crate::probability::ConditionalLabelProbability;

/// Where a fine-tune sample comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SampleSource {
    /// Index into the contrastive candidate set `I_c`.
    Inventory(usize),
    /// Index into the current incremental dataset `D`.
    Incremental(usize),
}

/// One member of the fine-tune set `C`, with the label used for training
/// (normally the observed label; the Pseudo policy overrides it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ContrastSample {
    pub source: SampleSource,
    pub label: u32,
}

/// Sample-selection policy for the fine-grained detection loop (§V-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SamplingPolicy {
    /// Contrastive sampling (ENLD proper, Alg. 2).
    #[default]
    Contrastive,
    /// Uniform random draws from `I_c` (Random-ENLD).
    Random,
    /// Highest model confidence `max M(x, θ)` (HC-ENLD).
    HighestConfidence,
    /// Lowest model confidence (LC-ENLD).
    LeastConfidence,
    /// Highest predictive entropy (Entropy-ENLD).
    Entropy,
    /// Highest confidence with the observed label replaced by the model's
    /// prediction (Pseudo-ENLD).
    Pseudo,
}

impl SamplingPolicy {
    pub fn name(&self) -> &'static str {
        match self {
            Self::Contrastive => "ENLD",
            Self::Random => "Random-ENLD",
            Self::HighestConfidence => "HC-ENLD",
            Self::LeastConfidence => "LC-ENLD",
            Self::Entropy => "Entropy-ENLD",
            Self::Pseudo => "Pseudo-ENLD",
        }
    }

    /// All policies in the order Fig. 10 reports them.
    pub fn all() -> [Self; 6] {
        [
            Self::Contrastive,
            Self::Random,
            Self::HighestConfidence,
            Self::LeastConfidence,
            Self::Entropy,
            Self::Pseudo,
        ]
    }
}

/// What Alg. 2 draws from: the per-class neighbour index over the
/// high-quality samples and the conditional `P̃` that proposes which
/// class to query.
pub struct ContrastSource<'a> {
    /// Any [`NeighborIndex`] backend (exact KD-trees or the incremental
    /// HNSW graphs) whose hits map back to `I_c` indices.
    pub index: &'a dyn NeighborIndex,
    /// Labels available among the high-quality samples; candidate draws
    /// are restricted to them.
    pub hq_label_set: &'a [u32],
    /// Observed labels of `I_c` (used to label the selected samples).
    pub ic_labels: &'a [u32],
    pub cond: &'a ConditionalLabelProbability,
    /// Neighbours per ambiguous sample.
    pub k: usize,
    /// ENLD-4 ablation: query the observed class instead of drawing one.
    pub identity_label: bool,
}

/// Alg. 2: contrastive sampling.
///
/// For every ambiguous sample `a` (a row of the incremental dataset), draw
/// a candidate true label `j ~ P̃(· | ỹ_a)` restricted to the labels
/// available among the high-quality samples (or `j = ỹ_a` under the
/// ENLD-4 ablation), and take the `k` nearest high-quality samples of
/// class `j` in feature space. The result is a multiset — duplicates act
/// as implicit re-weighting (paper §IV-D).
///
/// When `trace` is given, one [`ContrastDraw`] per ambiguous sample is
/// appended to it — the audit ledger's record of which candidate label
/// was drawn and which neighbours were chosen. Tracing never touches the
/// RNG, so traced and untraced runs select identical samples.
///
/// Internally this runs in two phases so it parallelises without changing
/// a single output bit: candidate labels are drawn *sequentially* in sample
/// order (the RNG stream is identical to the historical per-sample loop),
/// then the pure k-NN queries run as one parallel batch and results are
/// assembled back in sample order.
pub fn contrastive_sampling(
    source: &ContrastSource<'_>,
    ambiguous: &[usize],
    ambiguous_labels: &[u32],
    query_feats: &Matrix,
    rng: &mut StdRng,
    mut trace: Option<&mut Vec<ContrastDraw>>,
) -> Vec<ContrastSample> {
    assert_eq!(ambiguous.len(), ambiguous_labels.len(), "ambiguous shape mismatch");
    // Phase 1 — sequential: every RNG draw happens in sample order.
    let candidates: Vec<u32> = ambiguous_labels
        .iter()
        .map(|&observed| {
            if source.identity_label {
                observed
            } else {
                source.cond.random_label(observed, source.hq_label_set, rng)
            }
        })
        .collect();
    // Phase 2 — parallel: gather the query rows and answer them as a batch.
    let dim = query_feats.cols();
    let mut queries = Vec::with_capacity(ambiguous.len() * dim);
    for &a in ambiguous {
        queries.extend_from_slice(query_feats.row(a));
    }
    let query_start = std::time::Instant::now();
    let all_hits = source.index.k_nearest_in_class_batch(&candidates, &queries, source.k);
    // Batched timing: the histogram holds the mean batch latency once per
    // query, so its count/sum still track query volume and wall-clock.
    if !ambiguous.is_empty() {
        let n = ambiguous.len() as u64;
        let registry = enld_telemetry::metrics::global();
        registry
            .histogram("knn.class_query_secs")
            .record_n(query_start.elapsed().as_secs_f64() / n as f64, n);
        registry.counter("knn.class_queries_total").add(n);
    }
    // Phase 3 — sequential assembly in sample order.
    let mut out = Vec::with_capacity(ambiguous.len() * source.k);
    for ((&a, &observed), (&j, hits)) in
        ambiguous.iter().zip(ambiguous_labels).zip(candidates.iter().zip(&all_hits))
    {
        if let Some(trace) = trace.as_deref_mut() {
            trace.push(ContrastDraw {
                sample: a,
                observed,
                candidate: j,
                neighbors: hits.iter().map(|h| h.index).collect(),
            });
        }
        for hit in hits {
            out.push(ContrastSample {
                source: SampleSource::Inventory(hit.index),
                label: source.ic_labels[hit.index],
            });
        }
    }
    out
}

/// §V-D alternative policies: select `count` samples from `candidates`
/// (indices into `I_c`) scored by the model's confidences on `I_c`.
pub fn policy_sampling(
    policy: SamplingPolicy,
    count: usize,
    ic_probs: &Matrix,
    ic_labels: &[u32],
    candidates: &[usize],
    rng: &mut StdRng,
) -> Vec<ContrastSample> {
    assert_eq!(ic_probs.rows(), ic_labels.len(), "probability/label shape mismatch");
    if candidates.is_empty() || count == 0 {
        return Vec::new();
    }
    let sample = |idx: usize, pseudo: bool| -> ContrastSample {
        let label =
            if pseudo { enld_nn::model::argmax(ic_probs.row(idx)) as u32 } else { ic_labels[idx] };
        ContrastSample { source: SampleSource::Inventory(idx), label }
    };
    match policy {
        SamplingPolicy::Contrastive => {
            panic!("contrastive policy must go through contrastive_sampling")
        }
        SamplingPolicy::Random => (0..count)
            .map(|_| sample(candidates[rng.gen_range(0..candidates.len())], false))
            .collect(),
        SamplingPolicy::HighestConfidence
        | SamplingPolicy::LeastConfidence
        | SamplingPolicy::Entropy
        | SamplingPolicy::Pseudo => {
            let score = |idx: usize| -> f32 {
                match policy {
                    SamplingPolicy::Entropy => entropy(ic_probs.row(idx)),
                    SamplingPolicy::LeastConfidence => {
                        -ic_probs.row(idx).iter().cloned().fold(f32::NEG_INFINITY, f32::max)
                    }
                    // HighestConfidence and Pseudo both rank by confidence.
                    _ => ic_probs.row(idx).iter().cloned().fold(f32::NEG_INFINITY, f32::max),
                }
            };
            let mut ranked: Vec<usize> = candidates.to_vec();
            ranked.sort_by(|&a, &b| score(b).total_cmp(&score(a)));
            ranked.truncate(count);
            // With fewer candidates than requested, cycle through them so
            // the fine-tune set keeps the intended size (re-weighting).
            let pseudo = policy == SamplingPolicy::Pseudo;
            (0..count).map(|i| sample(ranked[i % ranked.len()], pseudo)).collect()
        }
    }
}

/// Fig. 3 addition strategies (true labels available — an *analysis*
/// experiment, not part of the detector).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdditionStrategy {
    /// `|T|` uniform draws from `I_c`.
    Random,
    /// The nearest `I_c` sample (by features) to each test sample.
    NearestOnly,
    /// The nearest `I_c` sample whose *true* label matches the test
    /// sample's true label.
    NearestRelated,
}

impl AdditionStrategy {
    pub fn name(&self) -> &'static str {
        match self {
            Self::Random => "Random",
            Self::NearestOnly => "Nearest-Only",
            Self::NearestRelated => "Nearest-Related",
        }
    }

    pub fn all() -> [Self; 3] {
        [Self::Random, Self::NearestOnly, Self::NearestRelated]
    }
}

/// Selects the `I_c` indices to add for the Fig. 3 experiment.
///
/// * `test_feats` — features of the test samples (queries);
/// * `test_true_labels` — their ground-truth labels;
/// * `ic_tree` — KD-tree over all `I_c` features (for Nearest-Only);
/// * `ic_true_index` — per-*true*-class index over `I_c` features (for
///   Nearest-Related);
/// * `ic_len` — number of `I_c` samples (for Random).
pub fn addition_selection(
    strategy: AdditionStrategy,
    test_feats: &Matrix,
    test_true_labels: &[u32],
    ic_tree: &KdTree,
    ic_true_index: &ClassIndex,
    ic_len: usize,
    rng: &mut StdRng,
) -> Vec<usize> {
    assert_eq!(test_feats.rows(), test_true_labels.len(), "test shape mismatch");
    match strategy {
        AdditionStrategy::Random => {
            (0..test_feats.rows()).map(|_| rng.gen_range(0..ic_len)).collect()
        }
        AdditionStrategy::NearestOnly => (0..test_feats.rows())
            .filter_map(|r| ic_tree.k_nearest(test_feats.row(r), 1).first().map(|h| h.index))
            .collect(),
        AdditionStrategy::NearestRelated => (0..test_feats.rows())
            .filter_map(|r| {
                ic_true_index
                    .k_nearest_in_class(test_true_labels[r], test_feats.row(r), 1)
                    .first()
                    .map(|h| h.index)
            })
            .collect(),
    }
}

/// Uniformly shuffles and truncates `pool` to `count` entries — the
/// ENLD-1 ablation's replacement for contrastive sampling.
pub fn random_subset(
    pool: &[usize],
    count: usize,
    ic_labels: &[u32],
    rng: &mut StdRng,
) -> Vec<ContrastSample> {
    let mut pool: Vec<usize> = pool.to_vec();
    pool.shuffle(rng);
    pool.truncate(count);
    pool.into_iter()
        .map(|i| ContrastSample { source: SampleSource::Inventory(i), label: ic_labels[i] })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Two classes: class 0 features near the origin, class 1 near (10,0).
    fn fixture() -> (ClassIndex, Vec<u32>, Matrix) {
        let ic_feats = vec![
            0.0f32, 0.0, // ic 0, label 0
            0.5, 0.0, // ic 1, label 0
            10.0, 0.0, // ic 2, label 1
            10.5, 0.0, // ic 3, label 1
        ];
        let ic_labels = vec![0u32, 0, 1, 1];
        let keep: Vec<usize> = (0..4).collect();
        let index = ClassIndex::build(&ic_feats, 2, &ic_labels, &keep);
        // One ambiguous query at (0.1, 0).
        let query = Matrix::from_vec(1, 2, vec![0.1, 0.0]);
        (index, ic_labels, query)
    }

    fn cond_identity() -> ConditionalLabelProbability {
        ConditionalLabelProbability::estimate(&[0, 1], &[0, 1], 2)
    }

    fn source<'a>(
        index: &'a ClassIndex,
        ic_labels: &'a [u32],
        cond: &'a ConditionalLabelProbability,
        k: usize,
        identity_label: bool,
    ) -> ContrastSource<'a> {
        ContrastSource { index, hq_label_set: &[0, 1], ic_labels, cond, k, identity_label }
    }

    #[test]
    fn contrastive_picks_nearest_of_sampled_class() {
        let (index, ic_labels, query) = fixture();
        let cond = cond_identity();
        let mut rng = StdRng::seed_from_u64(1);
        // Identity conditional: observed 0 stays 0 → neighbours are ic 0, 1.
        let src = source(&index, &ic_labels, &cond, 2, false);
        let c = contrastive_sampling(&src, &[0], &[0], &query, &mut rng, None);
        assert_eq!(c.len(), 2);
        assert!(matches!(c[0].source, SampleSource::Inventory(0)));
        assert!(matches!(c[1].source, SampleSource::Inventory(1)));
        assert!(c.iter().all(|s| s.label == 0));
    }

    #[test]
    fn contrastive_identity_label_ablation() {
        let (index, ic_labels, query) = fixture();
        // Conditional that always flips 0 → 1.
        let cond = ConditionalLabelProbability::estimate(&[0, 0, 1], &[1, 1, 1], 2);
        let mut rng = StdRng::seed_from_u64(2);
        // With random_label: observed 0 maps to class 1 → far neighbours.
        let drawn = source(&index, &ic_labels, &cond, 1, false);
        let c = contrastive_sampling(&drawn, &[0], &[0], &query, &mut rng, None);
        assert!(matches!(c[0].source, SampleSource::Inventory(2)));
        // With identity (ENLD-4): stays class 0 → near neighbours.
        let identity = source(&index, &ic_labels, &cond, 1, true);
        let c = contrastive_sampling(&identity, &[0], &[0], &query, &mut rng, None);
        assert!(matches!(c[0].source, SampleSource::Inventory(0)));
    }

    #[test]
    fn contrastive_with_empty_ambiguous_is_empty() {
        let (index, ic_labels, query) = fixture();
        let cond = cond_identity();
        let mut rng = StdRng::seed_from_u64(3);
        let src = source(&index, &ic_labels, &cond, 3, false);
        let c = contrastive_sampling(&src, &[], &[], &query, &mut rng, None);
        assert!(c.is_empty());
    }

    #[test]
    fn class_query_histogram_counts_queries_not_batches() {
        let (index, ic_labels, _) = fixture();
        let cond = cond_identity();
        let query = Matrix::from_vec(3, 2, vec![0.1, 0.0, 9.0, 0.0, 0.2, 0.0]);
        let registry = enld_telemetry::metrics::global();
        let (hist, counter) = (
            registry.histogram("knn.class_query_secs"),
            registry.counter("knn.class_queries_total"),
        );
        // Other tests in this process query too, so compare deltas of the
        // two instruments rather than absolute values.
        let (h0, c0) = (hist.count(), counter.get());
        let src = source(&index, &ic_labels, &cond, 1, true);
        let mut rng = StdRng::seed_from_u64(4);
        let _ = contrastive_sampling(&src, &[0, 1, 2], &[0, 1, 0], &query, &mut rng, None);
        assert!(hist.count() - h0 >= 3);
        assert!(counter.get() - c0 >= 3);
    }

    fn probs() -> Matrix {
        // ic 0: confident class 0; ic 1: uncertain; ic 2: confident class 1;
        // ic 3: mildly confident class 1.
        Matrix::from_vec(4, 2, vec![0.95, 0.05, 0.55, 0.45, 0.02, 0.98, 0.3, 0.7])
    }

    #[test]
    fn highest_confidence_policy_ranks_by_confidence() {
        let mut rng = StdRng::seed_from_u64(4);
        let c = policy_sampling(
            SamplingPolicy::HighestConfidence,
            2,
            &probs(),
            &[0, 0, 1, 1],
            &[0, 1, 2, 3],
            &mut rng,
        );
        let picked: Vec<usize> = c
            .iter()
            .map(|s| match s.source {
                SampleSource::Inventory(i) => i,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(picked, vec![2, 0], "0.98 then 0.95");
    }

    #[test]
    fn least_confidence_and_entropy_prefer_uncertain() {
        let mut rng = StdRng::seed_from_u64(5);
        for policy in [SamplingPolicy::LeastConfidence, SamplingPolicy::Entropy] {
            let c = policy_sampling(policy, 1, &probs(), &[0, 0, 1, 1], &[0, 1, 2, 3], &mut rng);
            assert!(
                matches!(c[0].source, SampleSource::Inventory(1)),
                "{policy:?} must pick the most uncertain sample"
            );
        }
    }

    #[test]
    fn nan_probability_rows_rank_deterministically() {
        // ic 1 is all-NaN (a NaN feature reached the model). Every scorer
        // squashes it — `f32::max` skips NaN, entropy sums only `p > 0` —
        // so it ranks as zero-confidence / zero-entropy and the finite
        // rows keep their order around it under the total-order sort.
        let nan = f32::NAN;
        let probs = Matrix::from_vec(3, 2, vec![0.9, 0.1, nan, nan, 0.5, 0.5]);
        let picks = |policy| {
            let mut rng = StdRng::seed_from_u64(11);
            policy_sampling(policy, 3, &probs, &[0, 0, 1], &[0, 1, 2], &mut rng)
                .iter()
                .map(|s| match s.source {
                    SampleSource::Inventory(i) => i,
                    _ => unreachable!(),
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(picks(SamplingPolicy::HighestConfidence), [0, 2, 1]);
        assert_eq!(picks(SamplingPolicy::LeastConfidence), [1, 2, 0]);
        assert_eq!(picks(SamplingPolicy::Entropy), [2, 0, 1]);
    }

    #[test]
    fn pseudo_policy_replaces_labels() {
        let mut rng = StdRng::seed_from_u64(6);
        // ic 3 has observed label 1 but suppose observed labels were wrong:
        let observed = vec![1u32, 1, 0, 0];
        let c = policy_sampling(SamplingPolicy::Pseudo, 2, &probs(), &observed, &[0, 2], &mut rng);
        // Labels come from argmax of probs, not from `observed`.
        for s in &c {
            match s.source {
                SampleSource::Inventory(0) => assert_eq!(s.label, 0),
                SampleSource::Inventory(2) => assert_eq!(s.label, 1),
                other => panic!("unexpected pick {other:?}"),
            }
        }
    }

    #[test]
    fn random_policy_uses_candidates_only() {
        let mut rng = StdRng::seed_from_u64(7);
        let c =
            policy_sampling(SamplingPolicy::Random, 20, &probs(), &[0, 0, 1, 1], &[1, 3], &mut rng);
        assert_eq!(c.len(), 20);
        assert!(c.iter().all(|s| matches!(s.source, SampleSource::Inventory(1 | 3))));
    }

    #[test]
    fn policy_sampling_empty_candidates() {
        let mut rng = StdRng::seed_from_u64(8);
        let c = policy_sampling(SamplingPolicy::Random, 5, &probs(), &[0, 0, 1, 1], &[], &mut rng);
        assert!(c.is_empty());
    }

    #[test]
    fn addition_strategies() {
        let ic_feats = vec![0.0f32, 0.0, 5.0, 0.0, 0.3, 0.0];
        let ic_true = vec![0u32, 1, 1];
        let keep: Vec<usize> = (0..3).collect();
        let tree = KdTree::build(&ic_feats, 2);
        let index = ClassIndex::build(&ic_feats, 2, &ic_true, &keep);
        let test = Matrix::from_vec(1, 2, vec![0.1, 0.0]);
        let mut rng = StdRng::seed_from_u64(9);

        // Nearest-Only ignores labels: picks ic 0 (distance 0.1).
        let only = addition_selection(
            AdditionStrategy::NearestOnly,
            &test,
            &[1],
            &tree,
            &index,
            3,
            &mut rng,
        );
        assert_eq!(only, vec![0]);
        // Nearest-Related restricts to true class 1: picks ic 2.
        let related = addition_selection(
            AdditionStrategy::NearestRelated,
            &test,
            &[1],
            &tree,
            &index,
            3,
            &mut rng,
        );
        assert_eq!(related, vec![2]);
        // Random stays in range.
        let random =
            addition_selection(AdditionStrategy::Random, &test, &[1], &tree, &index, 3, &mut rng);
        assert!(random.iter().all(|&i| i < 3));
    }

    #[test]
    fn random_subset_bounds() {
        let mut rng = StdRng::seed_from_u64(10);
        let c = random_subset(&[5, 7, 9], 2, &[0, 0, 0, 0, 0, 1, 0, 1, 0, 1], &mut rng);
        assert_eq!(c.len(), 2);
        for s in &c {
            match s.source {
                SampleSource::Inventory(i) => {
                    assert!([5, 7, 9].contains(&i));
                    assert_eq!(s.label, 1);
                }
                _ => panic!("inventory only"),
            }
        }
        // Requesting more than available returns all.
        let c = random_subset(&[5, 7], 10, &[0; 10], &mut rng);
        assert_eq!(c.len(), 2);
    }
}
