//! Alg. 4 — the optional model update between arrivals.

use enld_nn::data::DataRef;
use enld_nn::model::Mlp;
use enld_nn::trainer::Trainer;
use enld_telemetry as telemetry;
use enld_telemetry::metrics::global as metrics;

use super::{estimate_on_candidates, mean_row_divergence, Enld};
use crate::ledger::{LedgerRecord, UpdateRecord};

impl Enld {
    /// Alg. 4: retrain on the accumulated clean inventory selection,
    /// swap `I_t`/`I_c`, and re-estimate `P̃` and `H`.
    ///
    /// Returns the number of clean samples the new model was trained on.
    /// No-op (returns 0) when no clean samples have been selected yet.
    pub fn update_model(&mut self) -> usize {
        let clean = self.accumulated_clean();
        if clean.is_empty() {
            return 0;
        }
        enld_chaos::fail_point("detector.update_model");
        let _span = telemetry::span("enld.update_model")
            .timed("enld.update_model_secs")
            .field("clean", clean.len())
            .entered();
        metrics().counter("enld.updates_total").inc();
        let train_set = self.i_c.subset(&clean);
        self.updates += 1;
        let seed = self.config.seed.wrapping_add(5000 + self.updates as u64);
        let model_cfg = self.config.arch.config(self.i_c.dim(), self.i_c.classes());
        let mut new_model = Mlp::new(&model_cfg, seed);
        // θᵘ = train(S_c) retrains from scratch; when few clean samples
        // have accumulated, scale the epoch count up so the retrained
        // model still sees a comparable number of SGD steps.
        let mut train_cfg = self.config.init_train;
        let steps_per_epoch = train_set.len().div_ceil(train_cfg.batch_size).max(1);
        let target_steps =
            self.config.init_train.epochs * self.i_t.len().div_ceil(train_cfg.batch_size).max(1);
        train_cfg.epochs = train_cfg.epochs.max(target_steps.div_ceil(steps_per_epoch));
        let mut trainer = Trainer::new(train_cfg, seed.wrapping_add(1));
        let view = DataRef::new(train_set.xs(), train_set.labels(), train_set.dim());
        trainer.fit(&mut new_model, view, None);
        self.model = new_model;

        // swap(I_t, I_c): the old training split becomes the candidate set.
        std::mem::swap(&mut self.i_t, &mut self.i_c);
        let (cond, hq) = estimate_on_candidates(&self.model, &self.i_c);
        let old_cond = std::mem::replace(&mut self.cond, cond);
        self.hq = hq;
        self.sc_accum = vec![false; self.i_c.len()];

        // Drift gauge: how far the estimated conditional moved across the
        // update — large jumps mean the accumulated clean set looks very
        // different from what the previous model believed.
        let divergence = mean_row_divergence(&old_cond, &self.cond);
        metrics().gauge("enld.drift.p_row_divergence").set(divergence);
        telemetry::monitor::global().observe("enld.drift.p_row_divergence", divergence);
        if let Some(handle) = &self.ledger {
            handle.sink.record(&LedgerRecord::Update(UpdateRecord {
                detector: handle.tag.to_string(),
                update: self.updates,
                clean_used: clean.len(),
                p_row_divergence: divergence,
            }));
            handle.sink.flush();
        }
        // Update-boundary checkpoint: a crash after the swap must not
        // resume into pre-update state (the derived seeds moved on).
        self.persist();
        clean.len()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use crate::config::EnldConfig;
    use crate::detector::{small_lake, Enld};
    use crate::ledger::{LedgerRecord, MemoryLedger};

    #[test]
    fn model_update_swaps_splits_and_resets_votes() {
        let mut lake = small_lake(0.2, 8);
        let mut enld = Enld::init(lake.inventory(), &EnldConfig::fast_test());
        let req = lake.next_request().expect("queued");
        let _ = enld.detect(&req.data);
        let old_it_len = enld.training_set().len();
        let old_ic_len = enld.candidate_set().len();
        let used = enld.update_model();
        assert!(used > 0, "update must consume accumulated clean samples");
        assert_eq!(enld.training_set().len(), old_ic_len);
        assert_eq!(enld.candidate_set().len(), old_it_len);
        assert!(enld.accumulated_clean().is_empty(), "votes reset after update");
    }

    #[test]
    fn update_without_votes_is_noop() {
        let lake = small_lake(0.2, 9);
        let mut enld = Enld::init(lake.inventory(), &EnldConfig::fast_test());
        assert_eq!(enld.update_model(), 0);
    }

    #[test]
    fn ledger_update_records_divergence() {
        let mut lake = small_lake(0.2, 21);
        let mut enld = Enld::init(lake.inventory(), &EnldConfig::fast_test());
        enld.set_ledger(Arc::new(MemoryLedger::new()), "ignored");
        let req = lake.next_request().expect("queued");
        let _ = enld.detect(&req.data);
        let sink = Arc::new(MemoryLedger::new());
        enld.set_ledger(sink.clone(), "upd");
        let used = enld.update_model();
        assert!(used > 0);
        let records = sink.records();
        let updates: Vec<_> = records
            .iter()
            .filter_map(|r| match r {
                LedgerRecord::Update(u) => Some(u.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(updates.len(), 1);
        assert_eq!(updates[0].detector, "upd");
        assert_eq!(updates[0].update, 1);
        assert_eq!(updates[0].clean_used, used);
        assert!((0.0..=1.0).contains(&updates[0].p_row_divergence));
        assert!(updates[0].p_row_divergence > 0.0, "retraining on a different split should move P̃");
    }
}
