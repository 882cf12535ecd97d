//! Fig. 3: the contrastive-sample rationality experiment (§IV-D).
//!
//! For each noise rate on CIFAR100-sim: take the noisy samples of an
//! incremental dataset as the validation set `D_test` (with true labels),
//! add `|D_test|` samples from `I_c` chosen by one of three strategies
//! (Random / Nearest-Only / Nearest-Related, all with true labels), train
//! the general model for one epoch on the additions, and report the
//! evaluation loss on `D_test` against the original loss.
//!
//! Expected shape (paper Fig. 3): Nearest-Related < Nearest-Only <
//! Random < Origin.

use std::io;

use enld_telemetry::json::Json;
use enld_telemetry::tinfo;

use rand::rngs::StdRng;
use rand::SeedableRng;

use enld_core::config::EnldConfig;
use enld_core::sampling::{addition_selection, AdditionStrategy};
use enld_datagen::presets::DatasetPreset;
use enld_knn::class_index::ClassIndex;
use enld_lake::lake::{DataLake, LakeConfig};
use enld_nn::data::DataRef;
use enld_nn::trainer::{TrainConfig, Trainer};

use crate::experiments::ExpContext;
use crate::rows::{f4, ExperimentOutput};
use crate::runner::cached_enld_init;
use crate::scale::NOISE_RATES;

/// One (noise, strategy) cell of Fig. 3.
#[derive(Debug, Clone)]
pub struct LossGainRow {
    pub noise: f32,
    pub strategy: String,
    pub loss: f64,
    pub datasets: usize,
}

enld_telemetry::impl_json!(LossGainRow: noise, strategy, loss, datasets);

pub fn fig3(ctx: &ExpContext) -> io::Result<()> {
    let preset = ctx.scale.preset(DatasetPreset::cifar100_sim());
    let mut rows: Vec<LossGainRow> = Vec::new();
    for noise in NOISE_RATES {
        tinfo!("fig3", "noise {noise} …");
        let mut lake = DataLake::build(&LakeConfig { preset, noise_rate: noise, seed: ctx.seed });
        let cfg: EnldConfig = ctx.scale.enld_config(&preset, ctx.seed);
        let enld = cached_enld_init(&preset, noise, &cfg);
        let model = enld.model();
        let i_c = enld.candidate_set();

        // Features of I_c under θ (Nearest-Only scans them), plus the
        // per-true-class index Nearest-Related queries.
        let ic_view = DataRef::new(i_c.xs(), i_c.labels(), i_c.dim());
        let ic_feats = model.features(ic_view);
        let keep: Vec<usize> = (0..i_c.len()).collect();
        let ic_true_index =
            ClassIndex::build(ic_feats.data(), ic_feats.cols(), i_c.true_labels(), &keep);

        let n_datasets = ctx.scale.cap(4); // average over a few arrivals
        let mut origin_losses = Vec::new();
        let mut strat_losses = vec![Vec::new(); AdditionStrategy::all().len()];
        for _ in 0..n_datasets {
            let Some(req) = lake.next_request() else { break };
            let noisy_idx = req.data.noisy_indices();
            if noisy_idx.is_empty() {
                continue;
            }
            // D_test: the noisy samples with their TRUE labels.
            let d_test = req.data.subset(&noisy_idx);
            let test_view = DataRef::new(d_test.xs(), d_test.true_labels(), d_test.dim());
            let test_feats = model.features(test_view);
            origin_losses.push(Trainer::evaluate_loss(model, test_view) as f64);

            let mut rng = StdRng::seed_from_u64(ctx.seed.wrapping_add(noisy_idx.len() as u64));
            for (s_i, strategy) in AdditionStrategy::all().into_iter().enumerate() {
                let additions = addition_selection(
                    strategy,
                    &test_feats,
                    d_test.true_labels(),
                    &ic_feats,
                    &ic_true_index,
                    &mut rng,
                );
                // Train one epoch on the additions with their true labels.
                let mut m = model.clone();
                m.reset_momentum();
                let mut xs = Vec::with_capacity(additions.len() * i_c.dim());
                let mut labels = Vec::with_capacity(additions.len());
                for &a in &additions {
                    xs.extend_from_slice(i_c.row(a));
                    labels.push(i_c.true_labels()[a]);
                }
                let add_view = DataRef::new(&xs, &labels, i_c.dim());
                let mut trainer = Trainer::new(
                    TrainConfig {
                        epochs: 1,
                        batch_size: cfg.finetune_batch,
                        sgd: cfg.finetune_sgd,
                        mixup_alpha: None,
                        lr_decay: 1.0,
                    },
                    ctx.seed,
                );
                trainer.fit(&mut m, add_view, None);
                strat_losses[s_i].push(Trainer::evaluate_loss(&m, test_view) as f64);
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        rows.push(LossGainRow {
            noise,
            strategy: "Origin".into(),
            loss: mean(&origin_losses),
            datasets: origin_losses.len(),
        });
        for (s_i, strategy) in AdditionStrategy::all().into_iter().enumerate() {
            rows.push(LossGainRow {
                noise,
                strategy: strategy.name().into(),
                loss: mean(&strat_losses[s_i]),
                datasets: strat_losses[s_i].len(),
            });
        }
    }

    let mut table = ExperimentOutput::new(
        "fig3",
        "Evaluation loss on D_test after one epoch of strategy additions (CIFAR100-sim)",
        &["noise", "strategy", "eval loss"],
    );
    for r in &rows {
        table.push_row(vec![format!("{:.1}", r.noise), r.strategy.clone(), f4(r.loss)]);
    }
    table.emit(&ctx.out_dir, rows.to_json())?;
    Ok(())
}
