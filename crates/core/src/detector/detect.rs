//! Alg. 3 — fine-grained noisy-label detection for one arriving dataset,
//! as a pipeline of phases over one [`InFlightTask`]. Every phase is one
//! function that opens one span under `enld.detect`, takes the borrowed
//! per-arrival [`Arrival`] context, and advances the task (and the live
//! `θ'` it fine-tunes).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use enld_datagen::Dataset;
use enld_nn::data::DataRef;
use enld_nn::matrix::Matrix;
use enld_nn::model::{argmax, Mlp};
use enld_nn::trainer::{TrainConfig, Trainer};
use enld_telemetry as telemetry;
use enld_telemetry::metrics::{global as metrics, Histogram};

use super::{flags_to_indices, high_quality_filtered, mean_row_divergence, row_argmax, Enld};
use crate::checkpoint::{self, InFlightTask, TaskTrace};
use crate::ledger::{LedgerRecord, SampleRecord, TaskRecord, Verdict};
use crate::probability::ConditionalLabelProbability;
use crate::report::{DetectionReport, IterationSnapshot};
use crate::sampling::{ContrastSample, SampleSource};

/// What every phase of one [`Enld::detect`] call reads and none writes:
/// the arriving dataset and everything derived from it up front.
pub(super) struct Arrival<'a> {
    pub d: &'a Dataset,
    pub d_fp: u64,
    pub d_view: DataRef<'a>,
    pub ic_view: DataRef<'a>,
    /// Samples with an observed label participate in detection; missing
    /// ones only receive pseudo-labels (§V-H).
    pub eligible: Vec<usize>,
    pub missing: Vec<usize>,
    /// Observed-label histogram of `D`; `label(D)` is its non-zero classes.
    pub label_counts: Vec<usize>,
    /// Alg. 3 line 3: `I'` = candidates whose observed label ∈ label(D).
    pub i_prime: Vec<usize>,
    /// Every random choice of the task is seeded by pure counters (config
    /// seed, task #, selection round / fine-tune epoch), so a resumed task
    /// replays the same streams with no RNG state in the checkpoint.
    pub task_seed: u64,
}

impl Enld {
    /// Alg. 2 + Alg. 3: fine-grained noisy-label detection with
    /// contrastive sampling for one incremental dataset.
    ///
    /// After [`Enld::resume_from`] with an in-flight task, the call must
    /// receive the same dataset the interrupted task was processing
    /// (checked by fingerprint); detection then continues from the first
    /// incomplete iteration instead of starting over.
    pub fn detect(&mut self, d: &Dataset) -> DetectionReport {
        assert_eq!(d.dim(), self.i_c.dim(), "incremental dataset dimension mismatch");
        assert_eq!(d.classes(), self.i_c.classes(), "incremental dataset class-count mismatch");
        let sw = Instant::now();
        let d_fp = checkpoint::dataset_fingerprint(d);
        let resumed = self.recovery.pending.take();
        match &resumed {
            Some(task) => assert_eq!(
                task.d_fp, d_fp,
                "resumed detect() was given a different dataset than the in-flight task"
            ),
            None => self.tasks += 1,
        }
        let mut detect_span = telemetry::span("enld.detect")
            .field("task", self.tasks)
            .field("samples", d.len())
            .entered();
        metrics().counter("enld.detect.tasks").inc();

        let report = {
            let ctx = self.arrival(d, d_fp);
            let (mut task, mut theta) = match resumed {
                Some(task) => {
                    let mut theta = self.model.clone();
                    theta.restore(&task.theta).expect("resume_from fitted the in-flight model");
                    (task, theta)
                }
                None => {
                    let (mut task, theta) = self.start_task(&ctx);
                    // Post-warm-up checkpoint: a crash inside iteration 0
                    // can resume without redoing selection and warm-up.
                    self.persist(Some((&mut task, &theta)));
                    (task, theta)
                }
            };
            let (ambiguous_rate, p_staleness) = self.observe_drift(&ctx, &task);
            // Fine-grained detection loop (Alg. 3 lines 5–22).
            for iteration in task.next_iteration..self.config.iterations {
                self.iteration(&ctx, &mut theta, &mut task, iteration);
            }
            self.conclude(&ctx, task, (ambiguous_rate, p_staleness), &mut detect_span, sw)
        };
        for &i in &report.inventory_clean {
            self.sc_accum[i] = true;
        }
        // Task-boundary checkpoint (no in-flight section): a crash before
        // the next task's first checkpoint resumes from here.
        self.persist(None);
        report
    }

    fn arrival<'a>(&'a self, d: &'a Dataset, d_fp: u64) -> Arrival<'a> {
        let label_counts = d.class_counts();
        let i_prime = (0..self.i_c.len())
            .filter(|&i| label_counts[self.i_c.labels()[i] as usize] > 0)
            .collect();
        Arrival {
            d,
            d_fp,
            d_view: DataRef::new(d.xs(), d.labels(), d.dim()),
            ic_view: DataRef::new(self.i_c.xs(), self.i_c.labels(), self.i_c.dim()),
            eligible: (0..d.len()).filter(|&i| !d.missing_mask()[i]).collect(),
            missing: d.missing_indices(),
            label_counts,
            i_prime,
            task_seed: self.config.seed ^ (self.tasks as u64).wrapping_mul(GOLDEN),
        }
    }

    /// A fresh task up to the first boundary: initial ambiguity scan,
    /// contrastive selection round −1, and warm-up (Alg. 1 lines 5–7 +
    /// Alg. 3 line 4).
    fn start_task(&self, ctx: &Arrival<'_>) -> (InFlightTask, Mlp) {
        let (d, cfg) = (ctx.d, &self.config);
        // θ' starts from a snapshot of the general model.
        let mut theta = self.model.clone();
        theta.reset_momentum();
        let mut pseudo_votes: Vec<Vec<u32>> = vec![Vec::new(); d.len()];
        for &i in &ctx.missing {
            pseudo_votes[i] = vec![0; d.classes()];
        }
        let mut task = InFlightTask {
            d_fp: ctx.d_fp,
            in_s: vec![false; d.len()],
            count_c: vec![0; self.i_c.len()],
            pseudo_votes,
            history: Vec::with_capacity(cfg.iterations),
            // Audit trace: collected only while a ledger is attached.
            trace: (self.ledger.is_some())
                .then(|| TaskTrace::new(d.len(), cfg.iterations, cfg.steps)),
            ..InFlightTask::default()
        };

        let feats_d = self.ambiguous_select(ctx, &theta, &mut task);
        task.ambiguous_initial = task.ambiguous.len();
        if let Some(trace) = task.trace.as_mut() {
            for &i in &task.ambiguous {
                trace.ambiguous_initial[i] = true;
            }
        }
        // H ∩ I': the high-quality samples whose label occurs in D.
        let hq_in_prime: Vec<usize> = (self.hq.iter().copied())
            .filter(|&i| ctx.label_counts[self.i_c.labels()[i] as usize] > 0)
            .collect();
        self.select_contrast(ctx, &theta, &mut task, -1, &feats_d, &hq_in_prime);
        let theta = self.warm_up(ctx, theta, &mut task);
        (task, theta)
    }

    /// Ambiguity scan: `task.ambiguous` becomes the eligible samples whose
    /// prediction under `θ'` disagrees with the observed label. Returns
    /// the features of `D` from the same pass, for the selection that
    /// follows.
    fn ambiguous_select(&self, ctx: &Arrival<'_>, theta: &Mlp, task: &mut InFlightTask) -> Matrix {
        let mut span = telemetry::debug_span("enld.detect.ambiguous_select").entered();
        let (probs_d, feats_d) = theta.proba_and_features(ctx.d_view);
        let preds_d = row_argmax(&probs_d);
        let labels = ctx.d.labels();
        task.ambiguous =
            ctx.eligible.iter().copied().filter(|&i| preds_d[i] != labels[i]).collect();
        span.record("ambiguous", task.ambiguous.len());
        feats_d
    }

    /// Warm-up: fine-tune on `C`, keep the snapshot with the best
    /// validation accuracy on `D` (Alg. 3 line 4).
    fn warm_up(&self, ctx: &Arrival<'_>, mut theta: Mlp, task: &mut InFlightTask) -> Mlp {
        let epochs = self.config.warmup_epochs;
        let mut span = telemetry::debug_span("enld.detect.warmup")
            .timed("enld.detect.warmup_secs")
            .field("epochs", epochs)
            .entered();
        let labels = ctx.d.labels();
        let eval_acc = |m: &Mlp| -> f32 {
            if ctx.eligible.is_empty() {
                return 0.0;
            }
            let preds = m.predict_labels(ctx.d_view);
            let hit = ctx.eligible.iter().filter(|&&i| preds[i] == labels[i]).count();
            hit as f32 / ctx.eligible.len() as f32
        };
        let mut best = theta.clone();
        let mut best_acc = eval_acc(&theta);
        for epoch in 0..epochs {
            self.train_epoch(ctx, &mut theta, epoch, &task.contrast);
            let acc = eval_acc(&theta);
            if acc >= best_acc {
                best_acc = acc;
                best = theta.clone();
            }
        }
        span.record("val_acc", best_acc);
        task.warmup_val_acc = best_acc;
        best
    }

    /// The two per-arrival drift signals, published as gauges and as
    /// event-driven monitor observations (the change-point rules need the
    /// per-task sequence, not a resampled gauge). Pure inference — it
    /// consumes no RNG, so detection streams are byte-identical with or
    /// without the observation.
    fn observe_drift(&self, ctx: &Arrival<'_>, task: &InFlightTask) -> (f64, f64) {
        let _span = telemetry::debug_span("enld.detect.drift").entered();
        let (d, eligible) = (ctx.d, &ctx.eligible);
        let (ambiguous_rate, p_staleness) = if eligible.is_empty() {
            (0.0, 0.0)
        } else {
            // P̃-staleness: re-estimate the conditional on this arrival from
            // the general model's predictions and measure how far the held
            // P̃ (fitted at init / last Alg. 4 update) has drifted from it.
            let preds = self.model.predict_labels(ctx.d_view);
            let observed: Vec<u32> = eligible.iter().map(|&i| d.labels()[i]).collect();
            let predicted: Vec<u32> = eligible.iter().map(|&i| preds[i]).collect();
            let arrival_cond =
                ConditionalLabelProbability::estimate(&observed, &predicted, d.classes());
            // Ambiguous rate: how ambiguous the arrival looked to the general
            // model (spikes signal distribution shift in the lake).
            let rate = task.ambiguous_initial as f64 / eligible.len() as f64;
            (rate, mean_row_divergence(&self.cond, &arrival_cond))
        };
        for (name, value) in
            [("enld.drift.ambiguous_rate", ambiguous_rate), ("enld.drift.p_staleness", p_staleness)]
        {
            metrics().gauge(name).set(value);
            telemetry::monitor::global().observe(name, value);
        }
        (ambiguous_rate, p_staleness)
    }

    /// One iteration of Alg. 3 (lines 5–22): `s` fine-tune + vote steps,
    /// then the sample update and re-sampling, then the boundary
    /// checkpoint.
    fn iteration(
        &self,
        ctx: &Arrival<'_>,
        theta: &mut Mlp,
        task: &mut InFlightTask,
        iteration: usize,
    ) {
        enld_chaos::fail_point("detector.iteration");
        let mut span = telemetry::debug_span("enld.detect.iteration")
            .timed("enld.detect.iteration_secs")
            .field("iteration", iteration)
            .entered();
        let mut count = vec![0u32; ctx.d.len()];
        let flips: u64 = (0..self.config.steps)
            .map(|step| self.step(ctx, theta, task, iteration, step, &mut count))
            .sum();

        // Sample update & re-sampling (lines 15–21).
        let feats_d = self.ambiguous_select(ctx, theta, task);
        let h_now = self.refresh_high_quality(ctx, theta, task);
        self.select_contrast(ctx, theta, task, iteration as i64, &feats_d, &h_now);
        if let Some(trace) = task.trace.as_mut() {
            for &i in &task.ambiguous {
                trace.still_ambiguous[i].push(iteration);
            }
        }
        let clean_so_far = flags_to_indices(&task.in_s);
        if self.config.ablation.merges_clean_set() {
            // C = C ∪ S (line 21).
            task.contrast.extend(clean_so_far.iter().map(|&i| ContrastSample {
                source: SampleSource::Incremental(i),
                label: ctx.d.labels()[i],
            }));
        }

        metrics().counter("enld.detect.vote_flips_total").add(flips);
        metrics()
            .histogram_with("enld.detect.ambiguous_per_iteration", Histogram::count_bounds)
            .record(task.ambiguous.len() as f64);
        span.record("ambiguous", task.ambiguous.len());
        span.record("flips", flips);
        span.record("contrast", task.contrast.len());

        task.history.push(IterationSnapshot {
            iteration,
            clean_so_far,
            ambiguous: task.ambiguous.len(),
            contrastive_size: task.contrast.len(),
        });
        task.next_iteration = iteration + 1;
        // Iteration-boundary checkpoint: everything needed to replay the
        // remaining iterations bit-identically after a crash.
        self.persist(Some((task, &*theta)));
    }

    /// One step (lines 6–14): a fine-tune epoch over `C`, then one vote
    /// per eligible sample. `count` tallies this iteration's agreeing
    /// votes; returns how many samples newly entered `S`.
    fn step(
        &self,
        ctx: &Arrival<'_>,
        theta: &mut Mlp,
        task: &mut InFlightTask,
        iteration: usize,
        step: usize,
        count: &mut [u32],
    ) -> u64 {
        enld_chaos::fail_point("detector.step");
        let _span = telemetry::trace_span("enld.detect.step")
            .field("iteration", iteration)
            .field("step", step)
            .entered();
        let cfg = &self.config;
        let epoch = cfg.warmup_epochs + iteration * cfg.steps + step;
        self.train_epoch(ctx, theta, epoch, &task.contrast);
        let preds = theta.predict_labels(ctx.d_view);
        let threshold = cfg.vote_threshold();
        let mut flips = 0;
        // Sequential in `eligible` order, so vote trajectories, tallies
        // and flip accounting replay identically through `enld explain`.
        for &i in &ctx.eligible {
            let agree = preds[i] == ctx.d.labels()[i];
            if let Some(trace) = task.trace.as_mut() {
                trace.votes[i][iteration][step] = agree;
            }
            if agree {
                count[i] += 1;
                if count[i] as usize >= threshold && !task.in_s[i] {
                    task.in_s[i] = true;
                    flips += 1;
                }
            }
        }
        for &i in &ctx.missing {
            task.pseudo_votes[i][preds[i] as usize] += 1;
        }
        flips
    }

    /// One fine-tune epoch over the materialised contrastive set. A fresh
    /// `Trainer` is seeded from the epoch counter (warm-up epochs first,
    /// then `warmup_epochs + iteration·steps + step`), so the shuffle
    /// stream depends only on counters, never on how many epochs this
    /// process has already run — the property that lets a resumed task
    /// replay the remaining epochs bit-identically.
    fn train_epoch(
        &self,
        ctx: &Arrival<'_>,
        theta: &mut Mlp,
        epoch: usize,
        contrast: &[ContrastSample],
    ) {
        if contrast.is_empty() {
            return;
        }
        let cfg = &self.config;
        let mut trainer = Trainer::new(
            TrainConfig {
                epochs: 1,
                batch_size: cfg.finetune_batch,
                sgd: cfg.finetune_sgd,
                mixup_alpha: None,
                lr_decay: 1.0,
            },
            splitmix64(ctx.task_seed ^ (epoch as u64).wrapping_mul(GOLDEN) ^ 0x545249),
        );
        let dim = ctx.d.dim();
        let mut xs = Vec::with_capacity(contrast.len() * dim);
        let mut labels = Vec::with_capacity(contrast.len());
        for s in contrast {
            match s.source {
                SampleSource::Inventory(i) => xs.extend_from_slice(self.i_c.row(i)),
                SampleSource::Incremental(i) => xs.extend_from_slice(ctx.d.row(i)),
            }
            labels.push(s.label);
        }
        trainer.fit(theta, DataRef::new(&xs, &labels, dim), None);
    }

    /// H′ refresh and `S_c` vote (lines 16–19): the samples of `I'` that
    /// agree with `θ'` and reach their predicted class's mean confidence
    /// each collect one clean vote; returns them as the next selection's
    /// candidates.
    fn refresh_high_quality(
        &self,
        ctx: &Arrival<'_>,
        theta: &Mlp,
        task: &mut InFlightTask,
    ) -> Vec<usize> {
        let mut span = telemetry::debug_span("enld.detect.hq_refresh").entered();
        let i_prime = &ctx.i_prime;
        if i_prime.is_empty() {
            return Vec::new();
        }
        let rows = ctx.ic_view.gather(i_prime);
        let labels = ctx.ic_view.gather_labels(i_prime);
        let probs = theta.predict_proba(DataRef::new(rows.data(), &labels, rows.cols()));
        let preds = row_argmax(&probs);
        let h_now: Vec<usize> = high_quality_filtered(&probs, &preds, &labels)
            .into_iter()
            .map(|r| i_prime[r])
            .collect();
        for &i in &h_now {
            task.count_c[i] += 1;
        }
        span.record("high_quality", h_now.len());
        h_now
    }

    /// Folds the finished task into the report, the counters, and — when
    /// a ledger is attached — one `TaskRecord` plus one `SampleRecord` per
    /// eligible sample.
    fn conclude(
        &self,
        ctx: &Arrival<'_>,
        mut task: InFlightTask,
        (ambiguous_rate, p_staleness): (f64, f64),
        detect_span: &mut telemetry::SpanGuard,
        sw: Instant,
    ) -> DetectionReport {
        let (d, cfg) = (ctx.d, &self.config);
        let clean = flags_to_indices(&task.in_s);
        let noisy: Vec<usize> = ctx.eligible.iter().copied().filter(|&i| !task.in_s[i]).collect();
        // Stringent inventory criterion: clean in *all* t iterations.
        let inventory_clean: Vec<usize> =
            ctx.i_prime.iter().copied().filter(|&i| task.count_c[i] == cfg.iterations).collect();
        let pseudo_labels: Vec<(usize, u32)> =
            ctx.missing.iter().map(|&i| (i, argmax(&task.pseudo_votes[i]) as u32)).collect();

        // Wall-clock only; a resumed run counts post-resume time, so
        // byte-identity comparisons must exclude this field.
        let process_secs = sw.elapsed().as_secs_f64();
        let m = metrics();
        m.counter("enld.detect.clean_total").add(clean.len() as u64);
        m.counter("enld.detect.noisy_total").add(noisy.len() as u64);
        m.histogram("enld.detect.process_secs").record(process_secs);
        detect_span.record("clean", clean.len());
        detect_span.record("noisy", noisy.len());
        detect_span.record("secs", process_secs);

        if let (Some(handle), Some(mut trace)) = (&self.ledger, task.trace.take()) {
            enld_chaos::fail_point("detector.ledger");
            let _span = telemetry::debug_span("enld.detect.ledger").entered();
            let threshold = cfg.vote_threshold();
            handle.sink.record(&LedgerRecord::Task(TaskRecord {
                detector: handle.tag.to_string(),
                task: self.tasks,
                samples: d.len(),
                eligible: ctx.eligible.len(),
                ambiguous_initial: task.ambiguous_initial,
                ambiguous_rate,
                clean: clean.len(),
                noisy: noisy.len(),
                iterations: cfg.iterations,
                steps: cfg.steps,
                threshold,
                // Joins this ledger line to the span trace; 0 (omitted
                // on write) when span tracing is off.
                trace_id: detect_span.trace_id().unwrap_or(0),
                span_id: detect_span.id().unwrap_or(0),
            }));
            for &i in &ctx.eligible {
                handle.sink.record(&LedgerRecord::Sample(SampleRecord {
                    detector: handle.tag.to_string(),
                    task: self.tasks,
                    sample: i,
                    observed: d.labels()[i],
                    ambiguous_initial: trace.ambiguous_initial[i],
                    votes: std::mem::take(&mut trace.votes[i]),
                    threshold,
                    still_ambiguous_after: std::mem::take(&mut trace.still_ambiguous[i]),
                    draws: std::mem::take(&mut trace.draws[i]),
                    verdict: if task.in_s[i] { Verdict::Clean } else { Verdict::Noisy },
                }));
            }
            handle.sink.flush();
        }

        DetectionReport {
            clean,
            noisy,
            pseudo_labels,
            inventory_clean,
            history: task.history,
            process_secs,
            warmup_val_acc: task.warmup_val_acc,
            p_staleness,
        }
    }
}

/// Weyl-sequence increment (2⁶⁴/φ) used to spread counter seeds.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// splitmix64 finaliser — decorrelates structured (counter-derived) seeds.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fresh RNG for contrastive-selection round `round` of a task
/// (0 = pre-warm-up selection, `iteration + 1` afterwards).
pub(super) fn sampling_rng(task_seed: u64, round: u64) -> StdRng {
    StdRng::seed_from_u64(splitmix64(task_seed ^ round.wrapping_mul(GOLDEN) ^ 0x53454C))
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use enld_datagen::noise::apply_missing_labels;
    use enld_knn::IndexBackend;

    use crate::config::EnldConfig;
    use crate::detector::{small_lake, Enld};
    use crate::ledger::{replay_verdict, LedgerRecord, MemoryLedger, Verdict};
    use crate::metrics::detection_metrics;

    #[test]
    fn detect_partitions_the_dataset() {
        let mut lake = small_lake(0.2, 2);
        let mut enld = Enld::init(lake.inventory(), &EnldConfig::fast_test());
        let req = lake.next_request().expect("queued");
        let report = enld.detect(&req.data);
        // Clean + noisy together cover every sample exactly once.
        let mut seen = vec![false; req.data.len()];
        for &i in report.clean.iter().chain(&report.noisy) {
            assert!(!seen[i], "sample {i} in both sets");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(report.history.len(), EnldConfig::fast_test().iterations);
        assert!(report.process_secs > 0.0);
        assert!(report.pseudo_labels.is_empty());
    }

    #[test]
    fn detect_beats_chance_on_noise() {
        let mut lake = small_lake(0.2, 3);
        let mut enld = Enld::init(lake.inventory(), &EnldConfig::fast_test());
        let req = lake.next_request().expect("queued");
        let report = enld.detect(&req.data);
        let m = detection_metrics(&report.noisy, &req.data.noisy_indices(), req.data.len());
        // The test preset is easy; fast_test ENLD should do clearly better
        // than the 20% base rate.
        assert!(m.f1 > 0.5, "f1 {} (p {}, r {})", m.f1, m.precision, m.recall);
    }

    #[test]
    fn clean_dataset_detects_little_noise() {
        let mut lake = small_lake(0.0, 4);
        let mut enld = Enld::init(lake.inventory(), &EnldConfig::fast_test());
        let req = lake.next_request().expect("queued");
        let report = enld.detect(&req.data);
        let flagged = report.noisy.len() as f64 / req.data.len() as f64;
        assert!(flagged < 0.25, "flagged {flagged} of a clean dataset");
    }

    #[test]
    fn missing_labels_get_pseudo_labels() {
        let mut lake = small_lake(0.2, 5);
        let mut enld = Enld::init(lake.inventory(), &EnldConfig::fast_test());
        let req = lake.next_request().expect("queued");
        let masked = apply_missing_labels(&req.data, 0.3, 9);
        let report = enld.detect(&masked);
        let missing = masked.missing_indices();
        assert_eq!(report.pseudo_labels.len(), missing.len());
        // Pseudo-labelled samples never appear in the clean/noisy split.
        for &(i, l) in &report.pseudo_labels {
            assert!(missing.contains(&i));
            assert!((l as usize) < masked.classes());
            assert!(!report.clean.contains(&i));
            assert!(!report.noisy.contains(&i));
        }
    }

    #[test]
    fn ambiguous_count_tends_downward() {
        let mut lake = small_lake(0.2, 6);
        let mut enld = Enld::init(lake.inventory(), &EnldConfig::fast_test());
        let req = lake.next_request().expect("queued");
        let report = enld.detect(&req.data);
        let traj = report.ambiguous_trajectory();
        assert!(
            traj.last().expect("non-empty") <= traj.first().expect("non-empty"),
            "ambiguous count should not grow: {traj:?}"
        );
    }

    #[test]
    fn detection_accumulates_inventory_clean_votes() {
        let mut lake = small_lake(0.2, 7);
        let mut enld = Enld::init(lake.inventory(), &EnldConfig::fast_test());
        let mut total = 0;
        for _ in 0..2 {
            let req = lake.next_request().expect("queued");
            let report = enld.detect(&req.data);
            total += report.inventory_clean.len();
        }
        assert!(total > 0, "some inventory samples should be voted clean");
        assert!(enld.accumulated_clean().len() <= total);
        assert!(!enld.accumulated_clean().is_empty());
    }

    #[test]
    fn detect_is_deterministic_given_seed() {
        let run = || {
            let mut lake = small_lake(0.2, 10);
            let mut enld = Enld::init(lake.inventory(), &EnldConfig::fast_test());
            let req = lake.next_request().expect("queued");
            enld.detect(&req.data).noisy
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn single_class_incremental_dataset_is_handled() {
        let mut lake = small_lake(0.2, 11);
        let mut enld = Enld::init(lake.inventory(), &EnldConfig::fast_test());
        let req = lake.next_request().expect("queued");
        // Restrict to one observed class.
        let target = req.data.labels()[0];
        let idx: Vec<usize> =
            (0..req.data.len()).filter(|&i| req.data.labels()[i] == target).collect();
        let single = req.data.subset(&idx);
        let report = enld.detect(&single);
        assert_eq!(report.clean.len() + report.noisy.len(), single.len());
    }

    #[test]
    fn all_labels_missing_yields_only_pseudo_labels() {
        let mut lake = small_lake(0.2, 13);
        let mut enld = Enld::init(lake.inventory(), &EnldConfig::fast_test());
        let req = lake.next_request().expect("queued");
        let masked = apply_missing_labels(&req.data, 1.0, 3);
        let report = enld.detect(&masked);
        assert!(report.clean.is_empty());
        assert!(report.noisy.is_empty());
        assert_eq!(report.pseudo_labels.len(), masked.len());
    }

    #[test]
    fn p_staleness_tracks_noise_drift() {
        let mut lake = small_lake(0.2, 31);
        let mut enld = Enld::init(lake.inventory(), &EnldConfig::fast_test());
        let req = lake.next_request().expect("queued");
        let stationary = enld.detect(&req.data);
        assert!(
            (0.0..=1.0).contains(&stationary.p_staleness),
            "staleness {} outside [0, 1]",
            stationary.p_staleness
        );
        // Re-corrupt the next arrival at a far higher symmetric rate: the
        // arrival-side conditional moves away from the inventory-fitted P̃.
        let req = lake.next_request().expect("queued");
        let heavy = enld_datagen::noise::TransitionMatrix::symmetric(req.data.classes(), 0.7)
            .corrupt(&req.data, 99);
        let drifted = enld.detect(&heavy);
        assert!(
            drifted.p_staleness > stationary.p_staleness,
            "drifted arrival must look staler ({} vs {})",
            drifted.p_staleness,
            stationary.p_staleness
        );
    }

    #[test]
    fn p_staleness_is_zero_when_nothing_is_eligible() {
        let mut lake = small_lake(0.2, 32);
        let mut enld = Enld::init(lake.inventory(), &EnldConfig::fast_test());
        let req = lake.next_request().expect("queued");
        let masked = apply_missing_labels(&req.data, 1.0, 3);
        let report = enld.detect(&masked);
        assert_eq!(report.p_staleness, 0.0);
    }

    #[test]
    fn ledger_records_replay_to_the_same_verdicts() {
        let mut lake = small_lake(0.2, 20);
        let cfg = EnldConfig::fast_test();
        let mut enld = Enld::init(lake.inventory(), &cfg);
        let sink = Arc::new(MemoryLedger::new());
        enld.set_ledger(sink.clone(), "test");
        let req = lake.next_request().expect("queued");
        let report = enld.detect(&req.data);

        let records = sink.records();
        let tasks: Vec<_> = records
            .iter()
            .filter_map(|r| match r {
                LedgerRecord::Task(t) => Some(t.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(tasks.len(), 1);
        let task = &tasks[0];
        assert_eq!(task.detector, "test");
        assert_eq!(task.samples, req.data.len());
        assert_eq!(task.clean, report.clean.len());
        assert_eq!(task.noisy, report.noisy.len());
        assert_eq!(task.clean + task.noisy, task.eligible);
        assert!((0.0..=1.0).contains(&task.ambiguous_rate));

        let samples: Vec<_> = records
            .iter()
            .filter_map(|r| match r {
                LedgerRecord::Sample(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(samples.len(), task.eligible, "one record per eligible sample");
        let mut saw_draws = false;
        for rec in &samples {
            assert_eq!(rec.votes.len(), cfg.iterations);
            assert!(rec.votes.iter().all(|it| it.len() == cfg.steps));
            // The logged vote trajectory must reproduce the verdict.
            assert_eq!(replay_verdict(&rec.votes, rec.threshold), rec.verdict);
            let in_clean = report.clean.contains(&rec.sample);
            assert_eq!(rec.verdict == Verdict::Clean, in_clean);
            assert_eq!(rec.observed, req.data.labels()[rec.sample]);
            if rec.ambiguous_initial {
                saw_draws |= !rec.draws.is_empty();
            } else {
                // Non-ambiguous samples never receive round -1 draws.
                assert!(rec.draws.iter().all(|d| d.round >= -1));
            }
        }
        assert!(saw_draws, "ambiguous samples should log contrastive draws");
    }

    #[test]
    fn detect_without_ledger_matches_with_ledger() {
        let run = |ledger: bool| {
            let mut lake = small_lake(0.2, 22);
            let mut enld = Enld::init(lake.inventory(), &EnldConfig::fast_test());
            if ledger {
                enld.set_ledger(Arc::new(MemoryLedger::new()), "a");
            }
            let req = lake.next_request().expect("queued");
            enld.detect(&req.data).noisy
        };
        // Tracing must never perturb the RNG stream or the decisions.
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn hnsw_backend_partitions_and_beats_chance() {
        let mut lake = small_lake(0.2, 3);
        let mut cfg = EnldConfig::fast_test();
        cfg.index = IndexBackend::hnsw();
        let mut enld = Enld::init(lake.inventory(), &cfg);
        assert_eq!(enld.ann_index_len(), Some(enld.high_quality().len()));
        let req = lake.next_request().expect("queued");
        let report = enld.detect(&req.data);
        let mut seen = vec![false; req.data.len()];
        for &i in report.clean.iter().chain(&report.noisy) {
            assert!(!seen[i], "sample {i} in both sets");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
        let m = detection_metrics(&report.noisy, &req.data.noisy_indices(), req.data.len());
        assert!(m.f1 > 0.5, "hnsw f1 {} (p {}, r {})", m.f1, m.precision, m.recall);
    }
}
