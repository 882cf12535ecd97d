//! Alg. 3 — fine-grained noisy-label detection for one arriving dataset,
//! as a pipeline of phases over one [`InFlightTask`]. Every phase is one
//! function that opens one span under `enld.detect`, takes the borrowed
//! per-arrival [`Arrival`] context, and advances the task (and the live
//! `θ'` it fine-tunes).
//!
//! Every forward pass of an arrival runs once: the task's first pass
//! under `θ` serves the initial ambiguity scan, selection round −1, the
//! warm-up baseline and the drift check; a vote pass below an iteration's
//! last step predicts only the samples whose vote can still move `S`; the
//! last step's full pass is also that iteration's ambiguity scan and the
//! features Alg. 2 queries with; the `H′` refresh pass also embeds `H′`.

use std::cell::Cell;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use enld_datagen::Dataset;
use enld_nn::data::DataRef;
use enld_nn::matrix::Matrix;
use enld_nn::model::{argmax, Mlp, Outputs, Scan};
use enld_nn::trainer::{TrainConfig, Trainer};
use enld_telemetry as telemetry;
use enld_telemetry::metrics::global as metrics;

use super::{flags_to_indices, high_quality_filtered, mean_row_divergence, row_argmax, Enld};
use crate::ledger::{
    cast_votes, casts_vote, ContrastDraw, LedgerRecord, SampleDraw, SampleRecord, TaskRecord,
    Verdict,
};
use crate::probability::ConditionalLabelProbability;
use crate::report::{DetectionReport, IterationSnapshot};
use crate::sampling::{ContrastSample, SampleSource};

/// What every phase of one [`Enld::detect`] call reads: the arriving
/// dataset and everything derived from it up front, plus the one tally
/// the phases keep, of rows pushed through inference.
pub(super) struct Arrival<'a> {
    pub d: &'a Dataset,
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
    /// seed, task #, selection round / fine-tune epoch), so a task re-run
    /// after a crash replays the same streams with no RNG state in the
    /// checkpoint.
    pub task_seed: u64,
    /// Rows of `D` and the inventory scanned so far (the `scan_rows` field
    /// of `enld.detect`).
    scan_rows: Cell<usize>,
}

impl Arrival<'_> {
    /// Every inference pass of the arrival: [`Mlp::scan`], counted.
    pub(super) fn scan(
        &self,
        model: &Mlp,
        view: DataRef<'_>,
        rows: Option<&[usize]>,
        keep: Outputs,
    ) -> Scan {
        self.scan_rows.set(self.scan_rows.get() + rows.map_or(view.len(), <[usize]>::len));
        model.scan(view, rows, keep)
    }
}

/// The mutable state of one detection task: what [`Enld::detect`]
/// carries from phase to phase. It lives in memory only: a checkpoint is
/// written between tasks, and a task in flight at a crash is re-run.
#[derive(Default)]
pub(super) struct InFlightTask {
    pub warmup_val_acc: f32,
    pub ambiguous_initial: usize,
    pub contrast: Vec<ContrastSample>,
    pub ambiguous: Vec<usize>,
    /// Sticky clean-set membership `S` over `D`.
    pub in_s: Vec<bool>,
    /// Inventory clean-vote tallies `count_c` over `I_c`.
    pub count_c: Vec<usize>,
    /// Pseudo-label votes for missing-label samples (empty when labelled).
    pub pseudo_votes: Vec<Vec<u32>>,
    pub history: Vec<IterationSnapshot>,
    /// Present only while a ledger is attached.
    pub trace: Option<TaskTrace>,
}

/// Per-task audit state gathered while a ledger is attached, folded into
/// `SampleRecord`s when the task concludes.
pub(super) struct TaskTrace {
    /// `votes[sample][iteration][step]`, one row per iteration run: did
    /// `θ'` agree with the observed label at that step? A vote the sample
    /// did not cast ([`casts_vote`]) stays `false`; the ledger writer
    /// re-derives which those were.
    pub votes: Vec<Vec<Vec<bool>>>,
    pub ambiguous_initial: Vec<bool>,
    /// Iterations after which the sample was still ambiguous.
    pub still_ambiguous: Vec<Vec<usize>>,
    /// Contrastive draws per sample across selection rounds.
    pub draws: Vec<Vec<SampleDraw>>,
}

impl TaskTrace {
    /// A trace with no iteration run yet: each iteration pushes its own
    /// vote row per sample.
    fn new(samples: usize) -> Self {
        Self {
            votes: vec![Vec::new(); samples],
            ambiguous_initial: vec![false; samples],
            still_ambiguous: vec![Vec::new(); samples],
            draws: vec![Vec::new(); samples],
        }
    }

    /// Files one selection round's [`ContrastDraw`]s under their samples
    /// (`round` is −1 for the pre-warm-up selection, else the iteration).
    pub(super) fn absorb_draws(&mut self, round: i64, draws: Vec<ContrastDraw>) {
        for draw in draws {
            self.draws[draw.sample].push(SampleDraw {
                round,
                candidate: draw.candidate,
                neighbors: draw.neighbors,
            });
        }
    }
}

impl Enld {
    /// Alg. 2 + Alg. 3: fine-grained noisy-label detection with
    /// contrastive sampling for one incremental dataset. With checkpoints
    /// enabled, the task-boundary checkpoint is written before it returns.
    pub fn detect(&mut self, d: &Dataset) -> DetectionReport {
        assert_eq!(d.dim(), self.i_c.dim(), "incremental dataset dimension mismatch");
        assert_eq!(d.classes(), self.i_c.classes(), "incremental dataset class-count mismatch");
        let sw = Instant::now();
        self.tasks += 1;
        let mut detect_span = telemetry::span("enld.detect")
            .field("task", self.tasks)
            .field("samples", d.len())
            .entered();

        let report = {
            let ctx = self.arrival(d);
            let (mut task, mut theta, general_preds) = self.start_task(&ctx);
            let drift = self.observe_drift(&ctx, &task, &general_preds);
            // Fine-grained detection loop (Alg. 3 lines 5–22), capped at
            // `t` iterations and ended once the votes have settled.
            for iteration in 0..self.config.iterations {
                if votes_settled(&task.history) {
                    break;
                }
                self.iteration(&ctx, &mut theta, &mut task, iteration);
            }
            self.conclude(&ctx, task, drift, &mut detect_span, sw)
        };
        for &i in &report.inventory_clean {
            self.sc_accum[i] = true;
        }
        // Task-boundary checkpoint: a crash inside the next task re-runs
        // that task from here.
        self.persist();
        report
    }

    fn arrival<'a>(&'a self, d: &'a Dataset) -> Arrival<'a> {
        let label_counts = d.class_counts();
        let i_prime = (0..self.i_c.len())
            .filter(|&i| label_counts[self.i_c.labels()[i] as usize] > 0)
            .collect();
        Arrival {
            d,
            d_view: DataRef::new(d.xs(), d.labels(), d.dim()),
            ic_view: DataRef::new(self.i_c.xs(), self.i_c.labels(), self.i_c.dim()),
            eligible: (0..d.len()).filter(|&i| !d.missing_mask()[i]).collect(),
            missing: d.missing_indices(),
            label_counts,
            i_prime,
            task_seed: self.config.seed ^ (self.tasks as u64).wrapping_mul(GOLDEN),
            scan_rows: Cell::new(0),
        }
    }

    /// A task up to its first iteration: initial ambiguity scan,
    /// contrastive selection round −1, and warm-up (Alg. 1 lines 5–7 +
    /// Alg. 3 line 4). Also returns the general model's predicted labels
    /// of `D` from the same first pass, for the drift check.
    fn start_task(&self, ctx: &Arrival<'_>) -> (InFlightTask, Mlp, Vec<u32>) {
        let (d, cfg) = (ctx.d, &self.config);
        // θ' starts from a snapshot of the general model.
        let mut theta = self.model.clone();
        theta.reset_momentum();
        let mut pseudo_votes: Vec<Vec<u32>> = vec![Vec::new(); d.len()];
        for &i in &ctx.missing {
            pseudo_votes[i] = vec![0; d.classes()];
        }
        let mut task = InFlightTask {
            in_s: vec![false; d.len()],
            count_c: vec![0; self.i_c.len()],
            pseudo_votes,
            history: Vec::with_capacity(cfg.iterations),
            // Audit trace: collected only while a ledger is attached.
            trace: (self.ledger.is_some()).then(|| TaskTrace::new(d.len())),
            ..InFlightTask::default()
        };

        // θ' is still a verbatim clone of θ, so this one pass is the
        // initial ambiguity scan, round −1's features, the warm-up
        // baseline and the drift check's predictions.
        let first = self.ambiguous_select(ctx, &theta, &mut task, None);
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
        self.select_contrast(ctx, &theta, &mut task, -1, &first.features, (&hq_in_prime, None));
        let theta = self.warm_up(ctx, theta, &mut task, &first.labels);
        (task, theta, first.labels)
    }

    /// Ambiguity scan: `task.ambiguous` becomes the eligible samples whose
    /// most confident class under `θ'` disagrees with the observed label.
    /// `pass` is the full pass of `D` under `θ'` when a vote step already
    /// made it; without one, this scan makes it. Either way the pass is
    /// returned for the selection that follows.
    fn ambiguous_select(
        &self,
        ctx: &Arrival<'_>,
        theta: &Mlp,
        task: &mut InFlightTask,
        pass: Option<Scan>,
    ) -> Scan {
        let mut span = telemetry::debug_span("enld.detect.ambiguous_select").entered();
        let pass = pass.unwrap_or_else(|| ctx.scan(theta, ctx.d_view, None, Outputs::ALL));
        // The argmax of the confidences, not of the logits the votes use
        // (`logit_and_softmax_argmax_differ_on_near_ties` in `enld-nn`).
        let preds_d = row_argmax(&pass.proba);
        let labels = ctx.d.labels();
        task.ambiguous =
            ctx.eligible.iter().copied().filter(|&i| preds_d[i] != labels[i]).collect();
        span.record("ambiguous", task.ambiguous.len());
        pass
    }

    /// Warm-up: fine-tune on `C`, keep the snapshot with the best
    /// validation accuracy on `D` (Alg. 3 line 4). `baseline` is the
    /// predicted labels of `D` under the starting `θ'`.
    fn warm_up(
        &self,
        ctx: &Arrival<'_>,
        mut theta: Mlp,
        task: &mut InFlightTask,
        baseline: &[u32],
    ) -> Mlp {
        let epochs = self.config.warmup_epochs;
        let mut span =
            telemetry::debug_span("enld.detect.warmup").field("epochs", epochs).entered();
        let labels = ctx.d.labels();
        // With no observed label there is nothing to validate on: every
        // snapshot scores 0, and no epoch scans.
        let acc_of = |preds: &[u32]| -> f32 {
            let hit = ctx.eligible.iter().filter(|&&i| preds[i] == labels[i]).count();
            hit as f32 / ctx.eligible.len().max(1) as f32
        };
        let mut best = theta.clone();
        let mut best_acc = acc_of(baseline);
        for epoch in 0..epochs {
            self.train_epoch(ctx, &mut theta, epoch, &task.contrast);
            let acc = if ctx.eligible.is_empty() {
                0.0
            } else {
                acc_of(&ctx.scan(&theta, ctx.d_view, None, Outputs::LABELS).labels)
            };
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
    /// without the observation. `general_preds` is the general model's
    /// predicted labels of `D` from the task's first pass.
    fn observe_drift(
        &self,
        ctx: &Arrival<'_>,
        task: &InFlightTask,
        general_preds: &[u32],
    ) -> (f64, f64) {
        let _span = telemetry::debug_span("enld.detect.drift").entered();
        let (d, eligible) = (ctx.d, &ctx.eligible);
        let (ambiguous_rate, p_staleness) = if eligible.is_empty() {
            (0.0, 0.0)
        } else {
            // P̃-staleness: re-estimate the conditional on this arrival from
            // the general model's predictions and measure how far the held
            // P̃ (fitted at init / last Alg. 4 update) has drifted from it.
            let observed: Vec<u32> = eligible.iter().map(|&i| d.labels()[i]).collect();
            let predicted: Vec<u32> = eligible.iter().map(|&i| general_preds[i]).collect();
            let arrival_cond =
                ConditionalLabelProbability::estimate(&observed, &predicted, d.classes());
            // Ambiguous rate: how ambiguous the arrival looked to the general
            // model (spikes signal distribution shift in the lake).
            let rate = task.ambiguous_initial as f64 / eligible.len() as f64;
            (rate, mean_row_divergence(&self.cond, &arrival_cond))
        };
        let monitor = telemetry::monitor::global();
        metrics().gauge("enld.drift.ambiguous_rate").set(ambiguous_rate);
        monitor.observe("enld.drift.ambiguous_rate", ambiguous_rate);
        metrics().gauge("enld.drift.p_staleness").set(p_staleness);
        monitor.observe("enld.drift.p_staleness", p_staleness);
        (ambiguous_rate, p_staleness)
    }

    /// One iteration of Alg. 3 (lines 5–22): `s` fine-tune + vote steps,
    /// then the sample update and re-sampling.
    fn iteration(
        &self,
        ctx: &Arrival<'_>,
        theta: &mut Mlp,
        task: &mut InFlightTask,
        iteration: usize,
    ) {
        enld_chaos::fail_point("detector.iteration");
        let mut span =
            telemetry::debug_span("enld.detect.iteration").field("iteration", iteration).entered();
        if let Some(trace) = task.trace.as_mut() {
            for votes in &mut trace.votes {
                votes.push(vec![false; self.config.steps]);
            }
        }
        let mut count = vec![0u32; ctx.d.len()];
        let (mut flips, mut last_pass) = (0, None);
        for step in 0..self.config.steps {
            let (step_flips, pass) = self.step(ctx, theta, task, iteration, step, &mut count);
            flips += step_flips;
            last_pass = pass;
        }

        // Sample update & re-sampling (lines 15–21), on the last step's pass.
        let pass_d = self.ambiguous_select(ctx, theta, task, last_pass);
        let (h_now, h_feats) = self.refresh_high_quality(ctx, theta, task);
        let hq = (&h_now[..], Some(&h_feats));
        self.select_contrast(ctx, theta, task, iteration as i64, &pass_d.features, hq);
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

        span.record("ambiguous", task.ambiguous.len());
        span.record("flips", flips);
        span.record("contrast", task.contrast.len());

        task.history.push(IterationSnapshot {
            iteration,
            clean_so_far,
            ambiguous: task.ambiguous.len(),
            contrastive_size: task.contrast.len(),
        });
    }

    /// One step (lines 6–14): a fine-tune epoch over `C`, then one vote
    /// per eligible sample whose vote can still move `S`. `count` tallies
    /// this iteration's agreeing votes; returns how many samples newly
    /// entered `S`, and the last step's full pass of `D`.
    fn step(
        &self,
        ctx: &Arrival<'_>,
        theta: &mut Mlp,
        task: &mut InFlightTask,
        iteration: usize,
        step: usize,
        count: &mut [u32],
    ) -> (u64, Option<Scan>) {
        enld_chaos::fail_point("detector.step");
        let mut span = telemetry::trace_span("enld.detect.step")
            .field("iteration", iteration)
            .field("step", step)
            .entered();
        let cfg = &self.config;
        let epoch = cfg.warmup_epochs + iteration * cfg.steps + step;
        self.train_epoch(ctx, theta, epoch, &task.contrast);
        let (threshold, remaining) = (cfg.vote_threshold(), cfg.steps - step);
        let last = remaining == 1;
        // Only a vote that can still move `S` is cast, traced or not; the
        // ledger writer replays the same rule to mark the others.
        let voters: Vec<usize> = (ctx.eligible.iter().copied())
            .filter(|&i| casts_vote(task.in_s[i], count[i] as usize, remaining, threshold))
            .collect();
        // Below the last step a pass predicts only the voters and the
        // missing-label samples, whose pseudo-votes count every step.
        // The last step's pass is the iteration's one full pass: its
        // confidences also serve the ambiguity scan and its features
        // Alg. 2, while the votes take the logits' argmax
        // (`logit_and_softmax_argmax_differ_on_near_ties` in `enld-nn`).
        let rows: Option<Vec<usize>> =
            (!last).then(|| voters.iter().chain(&ctx.missing).copied().collect());
        let keep = if last { Outputs::ALL } else { Outputs::LABELS };
        let pass = ctx.scan(theta, ctx.d_view, rows.as_deref(), keep);
        span.record("rows", rows.as_ref().map_or(ctx.d.len(), Vec::len));
        // Row `r` of a partial pass predicts `rows[r]`; of a full one, sample `r`.
        let pred = |r: usize, i: usize| pass.labels[if rows.is_some() { r } else { i }];
        let mut flips = 0;
        // Sequential in `eligible` order, so vote trajectories, tallies
        // and flip accounting replay identically through `enld explain`.
        for (r, &i) in voters.iter().enumerate() {
            let agree = pred(r, i) == ctx.d.labels()[i];
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
        for (r, &i) in ctx.missing.iter().enumerate() {
            task.pseudo_votes[i][pred(voters.len() + r, i) as usize] += 1;
        }
        (flips, last.then_some(pass))
    }

    /// One fine-tune epoch over the materialised contrastive set. A fresh
    /// `Trainer` is seeded from the epoch counter (warm-up epochs first,
    /// then `warmup_epochs + iteration·steps + step`), so the shuffle
    /// stream depends only on counters, never on how many epochs this
    /// process has already run — the property that lets a task re-run
    /// after a crash replay bit-identically.
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
    /// candidates, with their features from the same pass.
    fn refresh_high_quality(
        &self,
        ctx: &Arrival<'_>,
        theta: &Mlp,
        task: &mut InFlightTask,
    ) -> (Vec<usize>, Matrix) {
        let mut span = telemetry::debug_span("enld.detect.hq_refresh").entered();
        let i_prime = &ctx.i_prime;
        let keep = Outputs { labels: false, ..Outputs::ALL };
        let pass = ctx.scan(theta, ctx.ic_view, Some(i_prime), keep);
        let labels = ctx.ic_view.gather_labels(i_prime);
        let preds = row_argmax(&pass.proba);
        let kept = high_quality_filtered(&pass.proba, &preds, &labels);
        let h_now: Vec<usize> = kept.iter().map(|&r| i_prime[r]).collect();
        for &i in &h_now {
            task.count_c[i] += 1;
        }
        span.record("high_quality", h_now.len());
        let feats = DataRef::new(pass.features.data(), &labels, pass.features.cols()).gather(&kept);
        (h_now, feats)
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
        // Stringent inventory criterion: clean in *every* iteration run.
        let iterations = task.history.len();
        let inventory_clean: Vec<usize> =
            ctx.i_prime.iter().copied().filter(|&i| task.count_c[i] == iterations).collect();
        let pseudo_labels: Vec<(usize, u32)> =
            ctx.missing.iter().map(|&i| (i, argmax(&task.pseudo_votes[i]) as u32)).collect();

        // Wall-clock only; a resumed run counts post-resume time, so
        // byte-identity comparisons must exclude this field.
        let process_secs = sw.elapsed().as_secs_f64();
        detect_span.record("clean", clean.len());
        detect_span.record("noisy", noisy.len());
        detect_span.record("iterations", iterations);
        detect_span.record("scan_rows", ctx.scan_rows.get());
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
                iterations,
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
                    votes: cast_votes(&trace.votes[i], threshold),
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

/// `R`: a task ends once this many consecutive iterations changed
/// neither `|S|` nor `|A|`. The smallest window that holds mean F1 within
/// 0.005 of the full `t` iterations on cifar100-sim (EXPERIMENTS.md).
const SETTLE_WINDOW: usize = 4;

/// Whether the last [`SETTLE_WINDOW`] iterations left `|S|` and `|A|`
/// where they were. `S` only grows, so its size stands for the set.
fn votes_settled(history: &[IterationSnapshot]) -> bool {
    let key = |s: &IterationSnapshot| (s.clean_so_far.len(), s.ambiguous);
    history.len() > SETTLE_WINDOW
        && history[history.len() - SETTLE_WINDOW - 1..].windows(2).all(|w| key(&w[0]) == key(&w[1]))
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

    use super::{votes_settled, SETTLE_WINDOW};
    use crate::ablation::AblationVariant;
    use crate::config::EnldConfig;
    use crate::detector::{settling, small_lake, test_sim_lake, DetectSpans, Enld};
    use crate::ledger::{replay_verdict, LedgerRecord, MemoryLedger, Verdict};
    use crate::metrics::detection_metrics;
    use crate::report::{DetectionReport, IterationSnapshot};

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
        assert!(
            samples.iter().flat_map(|s| s.votes.iter().flatten()).any(Option::is_none),
            "a sample already in S casts no more votes, and the record says so"
        );
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

    /// Every field of a report but wall-clock, floats as bits.
    type CanonReport =
        (Vec<usize>, Vec<usize>, Vec<(usize, u32)>, Vec<usize>, Vec<IterationSnapshot>, u32, u64);

    fn canon(r: DetectionReport) -> CanonReport {
        let bits = (r.warmup_val_acc.to_bits(), r.p_staleness.to_bits());
        (r.clean, r.noisy, r.pseudo_labels, r.inventory_clean, r.history, bits.0, bits.1)
    }

    /// A traced task takes the same pruned vote passes as an untraced
    /// one: the same decisions — tracing must never perturb the RNG
    /// stream — and the same rows pushed through the model, as the
    /// `scan_rows` field of `enld.detect` counts them. On the full-size
    /// `test-sim` lake (arrivals of 30–45 samples): the half-scale one's
    /// 10-sample arrivals let an off-by-one in the pruning rule pass.
    #[test]
    fn detect_without_ledger_matches_with_ledger() {
        let spans = DetectSpans::installed();
        let fast = EnldConfig::fast_test();
        let enld2 = EnldConfig { ablation: AblationVariant::NoMajorityVoting, ..fast };
        let one_step = EnldConfig { steps: 1, ..fast };
        let cases = [
            ("fast_test", fast, 0.0),
            ("30% missing", fast, 0.3),
            ("ENLD-2", enld2, 0.0),
            ("s = 1", one_step, 0.0),
        ];
        for (what, cfg, missing) in cases {
            let run = |ledger: bool| {
                let root = enld_telemetry::span("test.detect_without_ledger").entered();
                let mut lake = test_sim_lake(0.2, 22);
                let mut enld = Enld::init(lake.inventory(), &cfg);
                if ledger {
                    enld.set_ledger(Arc::new(MemoryLedger::new()), "a");
                }
                let mut reports = Vec::new();
                for _ in 0..2 {
                    let d = lake.next_request().expect("queued").data;
                    let d = if missing > 0.0 { apply_missing_labels(&d, missing, 9) } else { d };
                    reports.push(canon(enld.detect(&d)));
                }
                let root = root.id().expect("a sink is installed");
                (reports, spans.detect_field(root, "scan_rows"))
            };
            let (plain, traced) = (run(false), run(true));
            assert_eq!(plain.0, traced.0, "{what}");
            assert_eq!(plain.1.len(), 2, "{what}: one enld.detect span per arrival");
            assert!(plain.1.iter().all(Option::is_some), "{what}: {:?}", plain.1);
            assert_eq!(plain.1, traced.1, "{what}: rows scanned");
        }
    }

    /// Each task ends at the first iteration whose votes have settled (or
    /// at the cap), reports it on its `enld.detect` span, and records
    /// exactly the iterations it ran: one vote row each, from which the
    /// verdict still replays.
    #[test]
    fn a_task_ends_once_its_votes_settle_and_records_the_iterations_it_ran() {
        let cfg = settling();
        let mut lake = test_sim_lake(0.2, 23);
        let mut enld = Enld::init(lake.inventory(), &cfg);
        let sink = Arc::new(MemoryLedger::new());
        enld.set_ledger(sink.clone(), "settle");
        let spans = DetectSpans::installed();
        let root = enld_telemetry::span("test.settle").entered();
        let reports: Vec<DetectionReport> =
            (0..3).map(|_| enld.detect(&lake.next_request().expect("queued").data)).collect();
        let root = root.id().expect("a sink is installed");

        let ran: Vec<usize> = reports.iter().map(|r| r.history.len()).collect();
        assert!(ran.iter().any(|&n| n < cfg.iterations), "no arrival stopped early: {ran:?}");
        for r in &reports {
            let n = r.history.len();
            assert!(n == cfg.iterations || votes_settled(&r.history), "{n} iterations");
            assert!(
                (SETTLE_WINDOW + 1..n).all(|k| !votes_settled(&r.history[..k])),
                "ran past the iteration its votes settled at"
            );
        }
        let span_iterations: Vec<Option<u64>> = ran.iter().map(|&n| Some(n as u64)).collect();
        assert_eq!(spans.detect_field(root, "iterations"), span_iterations);
        assert_eq!(spans.iterations_in(root), ran.iter().sum::<usize>());

        let records = sink.records();
        for (task, report) in (1..).zip(&reports) {
            let n = report.history.len();
            let mut samples = 0;
            for record in &records {
                match record {
                    LedgerRecord::Task(t) if t.task == task => assert_eq!(t.iterations, n),
                    LedgerRecord::Sample(s) if s.task == task => {
                        samples += 1;
                        assert_eq!(s.votes.len(), n, "task {task} sample {}", s.sample);
                        assert_eq!(replay_verdict(&s.votes, s.threshold), s.verdict);
                        let clean = report.clean.contains(&s.sample);
                        assert_eq!(s.verdict == Verdict::Clean, clean);
                        assert!(s.still_ambiguous_after.iter().all(|&it| it < n));
                    }
                    _ => {}
                }
            }
            assert_eq!(samples, report.clean.len() + report.noisy.len());
        }
    }

    /// The exit reads nothing but the history, so a task that stopped
    /// after `n` iterations is exactly the task capped at `n`: verdicts,
    /// history and `S_c` ("clean in every iteration run") alike.
    #[test]
    fn an_early_exit_equals_the_run_capped_where_it_stopped() {
        let cfg = settling();
        let mut lake = test_sim_lake(0.2, 21);
        let mut free = Enld::init(lake.inventory(), &cfg);
        let mut capped = free.clone();
        let mut stopped_early = 0;
        for _ in 0..3 {
            let d = lake.next_request().expect("queued").data;
            let report = canon(free.detect(&d));
            let n = report.4.len();
            stopped_early += usize::from(n < cfg.iterations);
            capped.reconfigure(&EnldConfig { iterations: n, ..cfg });
            assert_eq!(canon(capped.detect(&d)), report, "capped at {n}");
        }
        assert!(stopped_early > 0, "no arrival stopped early");
        assert_eq!(capped.accumulated_clean(), free.accumulated_clean());
    }

    #[test]
    fn hnsw_backend_partitions_and_beats_chance() {
        let mut lake = small_lake(0.2, 3);
        let mut cfg = EnldConfig::fast_test();
        cfg.index = IndexBackend::hnsw();
        let mut enld = Enld::init(lake.inventory(), &cfg);
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
