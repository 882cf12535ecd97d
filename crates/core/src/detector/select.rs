//! Alg. 2 as a phase of [`Enld::detect`]: build the fine-tune set `C` for
//! the current ambiguous set, according to the configured policy /
//! ablation variant.

use std::collections::BTreeSet;

use enld_ann::AnnClassIndex;
use enld_knn::class_index::ClassIndex;
use enld_knn::{IndexBackend, NeighborIndex};
use enld_nn::data::DataRef;
use enld_nn::matrix::Matrix;
use enld_nn::model::Mlp;
use enld_telemetry as telemetry;

use super::detect::{sampling_rng, Arrival};
use super::Enld;
use crate::checkpoint::InFlightTask;
use crate::sampling::{
    contrastive_sampling, policy_sampling, random_subset, ContrastSource, SamplingPolicy,
};

impl Enld {
    /// Replaces `task.contrast` with a fresh selection for `task.ambiguous`
    /// (whose features under `θ'` are the rows of `feats_d`), drawing
    /// neighbours from `hq_candidates ⊆ I_c`. `round` is −1 for the
    /// pre-warm-up selection, else the iteration it closes; it seeds the
    /// round's RNG and tags the audit-trace draws. At round −1 `θ'` is
    /// still a verbatim clone of the general model, so the persistent HNSW
    /// index (general-model features) can serve the queries directly.
    pub(super) fn select_contrast(
        &self,
        ctx: &Arrival<'_>,
        theta: &Mlp,
        task: &mut InFlightTask,
        round: i64,
        feats_d: &Matrix,
        hq_candidates: &[usize],
    ) {
        let cfg = &self.config;
        let mut span = telemetry::debug_span("enld.detect.contrastive")
            .timed("enld.sampling.select_secs")
            .field("ambiguous", task.ambiguous.len())
            .entered();
        let mut rng = sampling_rng(ctx.task_seed, (round + 1) as u64);
        let mut draws = task.trace.is_some().then(Vec::new);
        let ambiguous = &task.ambiguous;
        let want = cfg.k * ambiguous.len();
        let ic_labels = self.i_c.labels();
        let contrastive = cfg.policy == SamplingPolicy::Contrastive;

        task.contrast = if ambiguous.is_empty() {
            Vec::new()
        } else if cfg.ablation.random_contrast() || (contrastive && hq_candidates.is_empty()) {
            // ENLD-1: uniform draws from I' replace contrastive sampling.
            // The same draws keep fine-tuning going when no high-quality
            // sample shares D's labels.
            random_subset(&ctx.i_prime, want, ic_labels, &mut rng)
        } else if contrastive {
            let fresh: Box<dyn NeighborIndex>;
            let (index, hq_label_set): (&dyn NeighborIndex, Vec<u32>) = match &self.ann {
                // The persistent graph holds every sample of `H` under
                // general-model features; restricting the candidate label
                // set to classes present in D makes its answers identical
                // to an index built over `H ∩ I'` (each class shard already
                // contains exactly those samples, in the same order).
                Some(ann) if round < 0 => {
                    (ann, ann.classes().filter(|&c| ctx.label_counts[c as usize] > 0).collect())
                }
                _ => {
                    let rows = ctx.ic_view.gather(hq_candidates);
                    let hq_labels = ctx.ic_view.gather_labels(hq_candidates);
                    let hq_feats =
                        theta.features(DataRef::new(rows.data(), &hq_labels, rows.cols()));
                    let (data, dim) = (hq_feats.data(), hq_feats.cols());
                    fresh = match cfg.index {
                        IndexBackend::Exact => {
                            Box::new(ClassIndex::build(data, dim, &hq_labels, hq_candidates))
                        }
                        IndexBackend::Hnsw(params) => Box::new(AnnClassIndex::build(
                            data,
                            dim,
                            &hq_labels,
                            hq_candidates,
                            params,
                        )),
                    };
                    let label_set: BTreeSet<u32> = hq_labels.into_iter().collect();
                    (fresh.as_ref(), label_set.into_iter().collect())
                }
            };
            let source = ContrastSource {
                index,
                hq_label_set: &hq_label_set,
                ic_labels,
                cond: &self.cond,
                k: cfg.k,
                identity_label: cfg.ablation.identity_label(),
            };
            let amb_labels: Vec<u32> = ambiguous.iter().map(|&i| ctx.d.labels()[i]).collect();
            contrastive_sampling(&source, ambiguous, &amb_labels, feats_d, &mut rng, draws.as_mut())
        } else {
            // §V-D alternatives score the whole candidate set I_c.
            let probs_ic = theta.predict_proba(ctx.ic_view);
            let all: Vec<usize> = (0..self.i_c.len()).collect();
            policy_sampling(cfg.policy, want, &probs_ic, ic_labels, &all, &mut rng)
        };

        span.record("selected", task.contrast.len());
        if let (Some(trace), Some(draws)) = (task.trace.as_mut(), draws) {
            trace.absorb_draws(round, draws);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::EnldConfig;
    use crate::detector::{small_lake, Enld};

    #[test]
    fn oversized_k_is_handled() {
        // k far beyond the candidate pool must still produce a valid
        // partition (KD-tree queries return what exists).
        let mut lake = small_lake(0.2, 12);
        let mut cfg = EnldConfig::fast_test();
        cfg.k = 500;
        let mut enld = Enld::init(lake.inventory(), &cfg);
        let req = lake.next_request().expect("queued");
        let report = enld.detect(&req.data);
        assert_eq!(report.clean.len() + report.noisy.len(), req.data.len());
    }
}
