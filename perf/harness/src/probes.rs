//! Per-layer readings of the traced run: each probe times one public
//! call into one crate, alone, at the shapes this workload's arrivals
//! have, with a harness span around it.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use enld_ann::AnnClassIndex;
use enld_baselines::{DefaultDetector, NoisyLabelDetector, Topofilter, TopofilterConfig};
use enld_core::{ConditionalLabelProbability, Enld, EnldConfig, JsonlLedger};
use enld_datagen::Dataset;
use enld_knn::{AnnParams, ClassIndex, IndexBackend};
use enld_nn::trainer::{TrainConfig, Trainer};
use enld_nn::{DataRef, Matrix, Mlp, QuantizedMlp};
use enld_serve::{JobSpec, PolicyKind, PoolConfig, WorkerPool};
use enld_telemetry as telemetry;

use crate::decomp::{components, ArrivalShape, Components, ProbeCosts};
use crate::procfs;
use crate::run::{detect_checked, f1_of, Ready, RunArgs};
use crate::schedule::SplitMix;
use crate::spec::{Kind, BASELINE_ARRIVALS};
use crate::stats::{median, Fnv};
use crate::trace::Tracer;

/// Named readings of the traced run; a name never set reads 0, which
/// the README defines as "this workload does not exercise the probe".
#[derive(Default)]
pub struct LayerReadings {
    values: BTreeMap<&'static str, (f64, usize)>,
}

impl LayerReadings {
    pub fn set(&mut self, name: &'static str, value: f64, n: usize) {
        self.values.insert(name, (value, n));
    }

    /// `(value, samples behind it)`.
    pub fn get(&self, name: &str) -> (f64, usize) {
        self.values.get(name).copied().unwrap_or((0.0, 0))
    }
}

/// What the traced extras found wrong, if anything.
#[derive(Default)]
pub struct Verdict {
    pub correct: bool,
    pub failed: usize,
    pub notes: Vec<String>,
}

/// Median of the seconds `f` reports over `reps` calls, inside one span.
/// `f` times the part of itself that counts, so it can prepare untimed.
fn timed_inner(
    tracer: &mut Tracer,
    layer: &'static str,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut() -> f64,
) -> f64 {
    let span = tracer.begin(layer, name);
    let secs: Vec<f64> = (0..reps).map(|_| f()).collect();
    tracer.end(span, &[("reps", reps as f64)]);
    median(&secs)
}

/// Median seconds of `reps` whole calls of `f`, inside one span.
fn timed<R>(
    tracer: &mut Tracer,
    layer: &'static str,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut() -> R,
) -> f64 {
    timed_inner(tracer, layer, name, reps, || {
        let t = Instant::now();
        std::hint::black_box(f());
        t.elapsed().as_secs_f64()
    })
}

/// Seconds per call of a sub-microsecond operation: `iters` calls in one
/// timed loop, median of five loops.
fn per_call(
    tracer: &mut Tracer,
    layer: &'static str,
    name: &'static str,
    iters: usize,
    mut f: impl FnMut(),
) -> f64 {
    timed(tracer, layer, name, 5, || {
        for _ in 0..iters {
            f();
        }
    }) / iters as f64
}

fn random_matrix(rows: usize, cols: usize, rng: &mut SplitMix) -> Matrix {
    let data = (0..rows * cols).map(|_| rng.unit() as f32 - 0.5).collect();
    Matrix::from_vec(rows, cols, data)
}

/// GFLOP/s of one product shape: `2·m·n·k` computed FLOPs over the
/// median call time (40 calls per reading so the clock resolves it).
fn gflops(
    tracer: &mut Tracer,
    name: &'static str,
    flops: usize,
    mut product: impl FnMut() -> Matrix,
) -> f64 {
    const CALLS: usize = 40;
    let secs = timed(tracer, "nn", name, 7, || {
        for _ in 0..CALLS {
            std::hint::black_box(product());
        }
    });
    (flops * CALLS) as f64 / secs / 1e9
}

/// In-memory telemetry sink: what a production scrape at `level` costs
/// the program, without the I/O.
struct MemorySink {
    level: telemetry::Level,
    spans: Mutex<Vec<(&'static str, u64)>>,
}

impl telemetry::Sink for MemorySink {
    fn level(&self) -> telemetry::Level {
        self.level
    }

    fn on_event(&self, _event: &telemetry::Event) {}

    fn on_span(&self, span: &telemetry::SpanRecord) {
        self.spans.lock().expect("sink poisoned").push((span.name, span.duration_micros));
    }
}

/// Runs `f` with an in-memory Info-level sink installed process-wide.
fn with_info_sink<R>(f: impl FnOnce() -> R) -> R {
    let sink = Arc::new(MemorySink { level: telemetry::Level::Info, spans: Mutex::default() });
    telemetry::install(sink);
    let out = f();
    telemetry::reset();
    out
}

/// The shapes one arrival presents to each layer.
struct ArrivalView<'a> {
    d: &'a Dataset,
    /// `I′`: candidates whose label occurs in `D`.
    i_prime: Vec<usize>,
    /// `H ∩ I′`.
    hq_in_prime: Vec<usize>,
    /// Labelled samples the general model disagrees with (`A₀`).
    ambiguous: Vec<usize>,
    eligible: usize,
}

fn view_of<'a>(enld: &Enld, d: &'a Dataset) -> ArrivalView<'a> {
    let i_c = enld.candidate_set();
    let labels_d = d.label_set();
    let i_prime: Vec<usize> =
        (0..i_c.len()).filter(|&i| labels_d.contains(&i_c.labels()[i])).collect();
    let prime: BTreeSet<usize> = i_prime.iter().copied().collect();
    let hq_in_prime = enld.high_quality().iter().copied().filter(|i| prime.contains(i)).collect();
    let preds = enld.model().predict_labels(DataRef::new(d.xs(), d.labels(), d.dim()));
    let labelled = |i: &usize| !d.missing_mask()[*i];
    let ambiguous = (0..d.len()).filter(labelled).filter(|&i| preds[i] != d.labels()[i]).collect();
    ArrivalView {
        d,
        i_prime,
        hq_in_prime,
        ambiguous,
        eligible: (0..d.len()).filter(labelled).count(),
    }
}

/// Neighbour-index probe results at one arrival's `H ∩ I′` shape.
struct NeighbourProbe {
    knn_build_s: f64,
    knn_query_s: f64,
    ann_build_s: f64,
    ann_query_s: f64,
    points: usize,
    queries: usize,
}

fn neighbour_probe(
    enld: &Enld,
    v: &ArrivalView<'_>,
    params: AnnParams,
    tracer: &mut Tracer,
    extra: Option<&mut LayerReadings>,
) -> NeighbourProbe {
    let i_c = enld.candidate_set();
    let ic_view = DataRef::new(i_c.xs(), i_c.labels(), i_c.dim());
    let model = enld.model();
    let k = enld.config().k;
    let (feats, _) = model.forward_inference(&ic_view.gather(&v.hq_in_prime));
    let labels: Vec<u32> = v.hq_in_prime.iter().map(|&i| i_c.labels()[i]).collect();
    let dim = feats.cols();
    let points = labels.len();

    let exact = ClassIndex::build(feats.data(), dim, &labels, &v.hq_in_prime);
    // One query per ambiguous sample, against its observed label's class
    // when the index holds it (else the first class it does hold).
    let d_view = DataRef::new(v.d.xs(), v.d.labels(), v.d.dim());
    let (_, feats_d) = model.proba_and_features(d_view);
    let fallback = exact.classes().next();
    let mut q_labels = Vec::new();
    let mut q_rows = Vec::new();
    for &a in &v.ambiguous {
        let label = v.d.labels()[a];
        let Some(class) = (exact.class_len(label) > 0).then_some(label).or(fallback) else {
            continue;
        };
        q_labels.push(class);
        q_rows.extend_from_slice(feats_d.row(a));
    }
    let queries = q_labels.len();

    let knn_build_s = timed(tracer, "knn", "ClassIndex::build", 5, || {
        ClassIndex::build(feats.data(), dim, &labels, &v.hq_in_prime)
    });
    let knn_query_s = timed(tracer, "knn", "ClassIndex::k_nearest_in_class_batch", 5, || {
        exact.k_nearest_in_class_batch(&q_labels, &q_rows, k)
    });
    let ann_build_s = timed(tracer, "ann", "AnnClassIndex::build", 3, || {
        AnnClassIndex::build(feats.data(), dim, &labels, &v.hq_in_prime, params)
    });
    let approx = AnnClassIndex::build(feats.data(), dim, &labels, &v.hq_in_prime, params);
    let ann_query_s = timed(tracer, "ann", "AnnClassIndex::k_nearest_in_class_batch", 5, || {
        approx.k_nearest_in_class_batch(&q_labels, &q_rows, k)
    });

    if let Some(layers) = extra {
        // Incremental insert: second half of the points into an index
        // built (untimed) over the first half.
        let half = points / 2;
        let insert_s = timed_inner(tracer, "ann", "AnnClassIndex::insert_batch", 3, || {
            let mut index = AnnClassIndex::build(
                &feats.data()[..half * dim],
                dim,
                &labels[..half],
                &v.hq_in_prime[..half],
                params,
            );
            let t = Instant::now();
            index.insert_batch(
                &feats.data()[half * dim..],
                &labels[half..],
                &v.hq_in_prime[half..],
            );
            t.elapsed().as_secs_f64()
        });
        let inserted = points - half;
        layers.set("ann.insert_kpoints_per_s", inserted as f64 / insert_s / 1e3, inserted);
        layers.set("ann.blob_bytes", approx.to_bytes().len() as f64, points);
        // Useful answers over attempted: exact neighbours the graph found.
        let want = exact.k_nearest_in_class_batch(&q_labels, &q_rows, k);
        let got = approx.k_nearest_in_class_batch(&q_labels, &q_rows, k);
        let (mut hit, mut total) = (0usize, 0usize);
        for (w, g) in want.iter().zip(&got) {
            total += w.len();
            hit += w.iter().filter(|n| g.iter().any(|m| m.index == n.index)).count();
        }
        layers.set(
            "ann.recall_at_k",
            if total > 0 { hit as f64 / total as f64 } else { 1.0 },
            total,
        );
    }
    NeighbourProbe { knn_build_s, knn_query_s, ann_build_s, ann_query_s, points, queries }
}

/// `Trainer::fit`, one epoch at the fine-tune settings, over `rows` rows
/// of the candidate set: seconds per row.
fn fit_finetune_s_per_row(enld: &Enld, rows: &[usize], tracer: &mut Tracer) -> f64 {
    let cfg = enld.config();
    let i_c = enld.candidate_set();
    let sub = i_c.subset(rows);
    let view = DataRef::new(sub.xs(), sub.labels(), sub.dim());
    let train = TrainConfig {
        epochs: 1,
        batch_size: cfg.finetune_batch,
        sgd: cfg.finetune_sgd,
        mixup_alpha: None,
        lr_decay: 1.0,
    };
    let secs = timed_inner(tracer, "nn", "Trainer::fit (fine-tune epoch)", 7, || {
        let mut theta = enld.model().clone();
        let t = Instant::now();
        Trainer::new(train, cfg.seed).fit(&mut theta, view, None);
        t.elapsed().as_secs_f64()
    });
    secs / rows.len().max(1) as f64
}

/// How one lane of the comparison loop runs `Enld::detect`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaneKind {
    /// As the timed section ran it, harness tracing off: the base of
    /// every ratio, and the reports the counts come from.
    Reference,
    /// As the timed section ran it, with a harness span around the call.
    Traced,
    /// With an in-memory Info-level telemetry sink installed.
    InfoSink,
    /// Under a private `enld_par` pool of one thread.
    SingleThread,
    /// The durable workload's detector without ledger, checkpoints or
    /// the persistent index.
    Plain,
}

/// One detector driven through the first arrivals, next to the others.
struct Lane {
    kind: LaneKind,
    det: Enld,
    walls: Vec<f64>,
    reports: Vec<enld_core::DetectionReport>,
    hash: Fnv,
}

impl Lane {
    fn new(kind: LaneKind, det: Enld) -> Self {
        Self { kind, det, walls: Vec::new(), reports: Vec::new(), hash: Fnv::default() }
    }

    fn detect(&mut self, a: usize, d: &Dataset, tracer: &mut Tracer, verdict: &mut Verdict) {
        let det = &mut self.det;
        tracer.set_enabled(self.kind == LaneKind::Traced);
        let span = tracer.begin("core", "Enld::detect");
        let result = match self.kind {
            LaneKind::InfoSink => with_info_sink(|| detect_checked(det, d)),
            LaneKind::SingleThread => enld_par::with_threads(1, || detect_checked(det, d)),
            _ => detect_checked(det, d),
        };
        tracer.end(span, &[("arrival", a as f64), ("rows", d.len() as f64)]);
        tracer.set_enabled(true);
        match result {
            Ok((report, wall_s)) => {
                self.hash.write_verdicts(a, d.len(), &report.noisy);
                self.walls.push(wall_s);
                self.reports.push(report);
            }
            Err(why) => {
                verdict.failed += 1;
                verdict.notes.push(format!("{:?} lane, arrival {a}: {why}", self.kind));
            }
        }
    }
}

/// Everything the traced run does after its timed section: the first
/// arrivals again, through several detectors side by side, with the
/// per-layer probes of an arrival taken right after it.
///
/// The lanes alternate arrival by arrival, not pass by pass, because the
/// machine drifts: two passes a minute apart can differ by 10 % on their
/// own, two calls a second apart do not, so every ratio below compares
/// neighbours in time.
pub fn traced_extras(
    args: &RunArgs,
    ready: &Ready,
    fresh: &dyn Fn() -> Enld,
    tracer: &mut Tracer,
    layers: &mut LayerReadings,
) -> Verdict {
    let w = args.workload;
    let enld = &ready.enld;
    let min = args.min_arrivals.min(ready.arrivals.len());
    let mut verdict = Verdict { correct: true, ..Verdict::default() };

    let ref_ckpt = args.out_dir.join(format!("{}.ref.ckpt", w.name));
    let ref_ledger = args.out_dir.join(format!("{}.ref.ledger.jsonl", w.name));
    let mut lanes = Vec::new();
    match w.kind {
        Kind::Durable => {
            // The reference gets a ledger of its own, so its size is that
            // of exactly these arrivals.
            let mut det = enld.clone();
            let sink = JsonlLedger::create(&ref_ledger).expect("create reference ledger");
            det.set_ledger(Arc::new(sink), "ref");
            det.enable_checkpoints(&ref_ckpt);
            lanes.push(Lane::new(LaneKind::Reference, det));
            lanes.push(Lane::new(LaneKind::Traced, fresh()));
            let mut plain = enld.clone();
            plain.clear_ledger();
            plain.reconfigure(&EnldConfig { index: IndexBackend::Exact, ..*enld.config() });
            lanes.push(Lane::new(LaneKind::Plain, plain));
        }
        Kind::Stream => {
            lanes.push(Lane::new(LaneKind::Reference, fresh()));
            lanes.push(Lane::new(LaneKind::Traced, fresh()));
            lanes.push(Lane::new(LaneKind::InfoSink, fresh()));
        }
        // The open loop's spans are laid out after the fact from what the
        // pool reports, so they cost its jobs nothing: no traced lane.
        Kind::Serve => lanes.push(Lane::new(LaneKind::Reference, fresh())),
    }
    if w.multi_thread {
        lanes.push(Lane::new(LaneKind::SingleThread, fresh()));
    }
    let mut baselines = w.baselines.then(|| Baselines::new(ready, args.seed));

    let mut counts = Counts::default();
    for (a, d) in ready.arrivals[..min].iter().enumerate() {
        tracer.set_request(Some(a as u64));
        for lane in &mut lanes {
            lane.detect(a, d, tracer, &mut verdict);
        }
        if let Some(b) = baselines.as_mut().filter(|_| a < BASELINE_ARRIVALS) {
            b.detect(d, tracer);
        }
        tracer.set_request(None);
        let reference = &lanes[0];
        if let (Some(report), Some(&wall_s)) = (reference.reports.get(a), reference.walls.get(a)) {
            counts.add_arrival(enld, d, report, wall_s, a == 0, tracer, layers);
        }
    }

    // Ratios against the reference lane, over arrivals both finished.
    let reference_wall: f64 = lanes[0].walls.iter().sum();
    let reference_hash = lanes[0].hash;
    for lane in &lanes[1..] {
        if lane.walls.len() != min || lanes[0].walls.len() != min {
            continue;
        }
        let wall: f64 = lane.walls.iter().sum();
        match lane.kind {
            LaneKind::Traced => {
                layers.set("harness.trace_overhead_share", wall / reference_wall - 1.0, min);
            }
            LaneKind::InfoSink => {
                layers.set("telemetry.info_sink_overhead_share", wall / reference_wall - 1.0, min);
            }
            LaneKind::Plain => {
                layers.set("core.durable_overhead_share", reference_wall / wall - 1.0, min);
            }
            LaneKind::SingleThread => {
                layers.set("par.detect_speedup_tn", wall / reference_wall, min);
                if lane.hash != reference_hash {
                    verdict.correct = false;
                    verdict.notes.push(format!(
                        "verdicts differ between 1 and {} threads ({:016x} vs {:016x})",
                        args.workload.threads(),
                        lane.hash.0,
                        reference_hash.0
                    ));
                }
            }
            LaneKind::Reference => {}
        }
    }
    if let Some(b) = &baselines {
        b.report(&lanes[0].walls, layers);
    }
    counts.report(w.kind, layers, &mut verdict);

    if w.kind == Kind::Durable {
        let bytes = std::fs::metadata(&ref_ledger).map_or(0, |m| m.len());
        layers.set("core.ledger_bytes_per_arrival", bytes as f64 / min as f64, min);
        // Alg. 4 once, on the detector that saw the reference arrivals.
        let det = &mut lanes[0].det;
        let span = tracer.begin("core", "Enld::update_model");
        let t = Instant::now();
        let clean = det.update_model();
        layers.set("core.update_model_s", t.elapsed().as_secs_f64(), 1);
        tracer.end(span, &[("clean", clean as f64)]);
        if clean == 0 {
            verdict.notes.push("update_model had no clean inventory samples".to_owned());
        }
    }
    drop(lanes);
    for leftover in [&ref_ckpt, &ref_ledger] {
        let _ = std::fs::remove_file(leftover);
    }

    kernel_probes(args, ready, tracer, layers);
    overhead_probes(tracer, layers);
    verdict
}

/// Topofilter and the Default detector on the first arrivals, sharing
/// the general model: the paper's headline cost ratio.
struct Baselines {
    topofilter: Topofilter,
    default: DefaultDetector,
    topofilter_s: Vec<f64>,
    topofilter_f1: f64,
    default_f1: f64,
}

impl Baselines {
    fn new(ready: &Ready, seed: u64) -> Self {
        let model = ready.enld.model();
        let config = TopofilterConfig { seed, ..TopofilterConfig::default() };
        Self {
            topofilter: Topofilter::new(model.clone(), ready.lake.inventory().clone(), config),
            default: DefaultDetector::new(model.clone()),
            topofilter_s: Vec::new(),
            topofilter_f1: 0.0,
            default_f1: 0.0,
        }
    }

    fn detect(&mut self, d: &Dataset, tracer: &mut Tracer) {
        let span = tracer.begin("baselines", "Topofilter::detect");
        let t = Instant::now();
        let report = self.topofilter.detect(d);
        self.topofilter_s.push(t.elapsed().as_secs_f64());
        tracer.end(span, &[("rows", d.len() as f64)]);
        self.topofilter_f1 += f1_of(d, &report.noisy);
        let span = tracer.begin("baselines", "DefaultDetector::detect");
        self.default_f1 += f1_of(d, &self.default.detect(d).noisy);
        tracer.end(span, &[("rows", d.len() as f64)]);
    }

    fn report(&self, enld_walls: &[f64], layers: &mut LayerReadings) {
        let n = self.topofilter_s.len().min(enld_walls.len());
        if n == 0 {
            return;
        }
        let topofilter_s: f64 = self.topofilter_s[..n].iter().sum();
        let enld_s: f64 = enld_walls[..n].iter().sum();
        layers.set("baselines.topofilter_s_per_arrival", topofilter_s / n as f64, n);
        layers.set("baselines.topofilter_f1", self.topofilter_f1 / n as f64, n);
        layers.set("baselines.default_f1", self.default_f1 / n as f64, n);
        layers.set("baselines.enld_speedup_vs_topofilter", topofilter_s / enld_s, n);
    }
}

/// Exact counts of the reference arrivals, and where their wall time
/// went according to the per-layer probes.
#[derive(Default)]
struct Counts {
    arrivals: usize,
    ambiguous: usize,
    eligible: usize,
    noisy: usize,
    clean: usize,
    contrast_rows: usize,
    contrast_sets: usize,
    train_rows: usize,
    components: Components,
}

impl Counts {
    /// Adds one arrival the reference lane just detected, probing each
    /// layer at that arrival's shapes while the machine is in the same
    /// mood. The first arrival's probes also become the layer rates.
    #[allow(clippy::too_many_arguments)]
    fn add_arrival(
        &mut self,
        enld: &Enld,
        d: &Dataset,
        report: &enld_core::DetectionReport,
        wall_s: f64,
        publish: bool,
        tracer: &mut Tracer,
        layers: &mut LayerReadings,
    ) {
        let cfg = enld.config();
        let (hnsw, params) = match cfg.index {
            IndexBackend::Hnsw(p) => (true, p),
            IndexBackend::Exact => (false, AnnParams::default()),
        };
        let v = view_of(enld, d);
        let shape = ArrivalShape {
            warmup: cfg.warmup_epochs,
            iterations: cfg.iterations,
            steps: cfg.steps,
            contrast0: cfg.k * v.ambiguous.len(),
            contrast_after: report.history.iter().map(|h| h.contrastive_size).collect(),
        };
        self.arrivals += 1;
        self.ambiguous += v.ambiguous.len();
        self.eligible += v.eligible;
        self.noisy += report.noisy.len();
        self.clean += report.clean.len();
        self.contrast_rows += shape.contrast_after.iter().sum::<usize>();
        self.contrast_sets += shape.contrast_after.len();
        self.train_rows += shape.train_rows();

        let i_c = enld.candidate_set();
        let ic_view = DataRef::new(i_c.xs(), i_c.labels(), i_c.dim());
        let d_view = DataRef::new(d.xs(), d.labels(), d.dim());
        let model = enld.model();
        let scan_d_s = timed(tracer, "nn", "Mlp::proba_and_features (D)", 5, || {
            model.proba_and_features(d_view)
        });
        let scan_inv_s = timed(tracer, "nn", "Mlp::forward_inference (I')", 5, || {
            model.forward_inference(&ic_view.gather(&v.i_prime))
        });
        let scan_h_s = timed(tracer, "nn", "Mlp::forward_inference (H)", 5, || {
            model.forward_inference(&ic_view.gather(&v.hq_in_prime))
        });
        // |C₀| rows of I′ (cycled if I′ is smaller), at least one batch.
        let fit_rows: Vec<usize> = v
            .i_prime
            .iter()
            .copied()
            .cycle()
            .take(shape.contrast0.max(cfg.finetune_batch))
            .collect();
        let fit_s_per_row = fit_finetune_s_per_row(enld, &fit_rows, tracer);
        let nbr = neighbour_probe(enld, &v, params, tracer, publish.then_some(&mut *layers));
        if publish {
            let krows = |n: usize, secs: f64| n as f64 / secs / 1e3;
            layers.set("nn.fit_finetune_ksamples_per_s", 1e-3 / fit_s_per_row, fit_rows.len());
            layers.set("nn.infer_d_krows_per_s", krows(d.len(), scan_d_s), d.len());
            let inv = v.i_prime.len();
            layers.set("nn.infer_inv_krows_per_s", krows(inv, scan_inv_s), inv);
            layers.set("knn.build_kpoints_per_s", krows(nbr.points, nbr.knn_build_s), nbr.points);
            layers.set("knn.query_kq_per_s", krows(nbr.queries, nbr.knn_query_s), nbr.queries);
            layers.set("ann.build_kpoints_per_s", krows(nbr.points, nbr.ann_build_s), nbr.points);
            layers.set("ann.query_kq_per_s", krows(nbr.queries, nbr.ann_query_s), nbr.queries);
        }
        let cost = ProbeCosts {
            fit_s_per_row,
            scan_d_s,
            scan_inv_s,
            scan_h_s,
            nbr_build_s: if hnsw { nbr.ann_build_s } else { nbr.knn_build_s },
            nbr_query_s: if hnsw { nbr.ann_query_s } else { nbr.knn_query_s },
            persistent_round0: hnsw,
        };
        self.components.add(&components(&shape, &cost, wall_s));
    }

    fn report(&self, kind: Kind, layers: &mut LayerReadings, verdict: &mut Verdict) {
        let n = self.arrivals;
        if n == 0 {
            return;
        }
        let share = self.ambiguous as f64 / self.eligible.max(1) as f64;
        layers.set("core.ambiguous_share", share, self.eligible);
        let mean = self.contrast_rows as f64 / self.contrast_sets.max(1) as f64;
        layers.set("core.contrast_rows_mean", mean, self.contrast_sets);
        layers.set("core.train_rows_total", self.train_rows as f64, n);
        layers.set("core.noisy_total", self.noisy as f64, n);
        layers.set("core.clean_total", self.clean as f64, n);
        let shares = self.components.shares();
        layers.set("core.share_train", shares.train, n);
        layers.set("core.share_scan_d", shares.scan_d, n);
        layers.set("core.share_scan_inv", shares.scan_inv, n);
        layers.set("core.share_neighbour", shares.neighbour, n);
        layers.set("core.share_unattributed", shares.unattributed, n);
        // Checkpoints and the ledger are not among the probed components,
        // so only the plain closed loops must decompose without remainder.
        if kind == Kind::Stream && shares.unattributed.abs() > 0.15 {
            verdict.notes.push(format!(
                "decomposition does not hold: {:.3} of detect wall time is unattributed",
                shares.unattributed
            ));
        }
    }
}

/// Kernels and whole-layer calls that do not depend on one arrival.
fn kernel_probes(args: &RunArgs, ready: &Ready, tracer: &mut Tracer, layers: &mut LayerReadings) {
    let enld = &ready.enld;
    let cfg = enld.config();
    let model = enld.model();
    let preset = (args.workload.preset)();
    let d0 = &ready.arrivals[0];
    let d_view = DataRef::new(d0.xs(), d0.labels(), d0.dim());

    let rows = preset.classes * preset.samples_per_class;
    let secs =
        timed(tracer, "datagen", "DatasetPreset::generate", 3, || preset.generate(args.seed));
    layers.set("datagen.generate_ksamples_per_s", rows as f64 / secs / 1e3, rows);

    // One epoch of general-model training over I_t (batch 64, mixup).
    let i_t = enld.training_set();
    let t_view = DataRef::new(i_t.xs(), i_t.labels(), i_t.dim());
    let one_epoch = TrainConfig { epochs: 1, ..cfg.init_train };
    let model_cfg = cfg.arch.config(i_t.dim(), i_t.classes());
    let secs = timed(tracer, "nn", "Trainer::fit (init epoch)", 3, || {
        let mut fresh = Mlp::new(&model_cfg, cfg.seed);
        Trainer::new(one_epoch, cfg.seed).fit(&mut fresh, t_view, None)
    });
    layers.set("nn.fit_init_ksamples_per_s", i_t.len() as f64 / secs / 1e3, i_t.len());

    // The four product shapes of a width-96 block: fine-tune forward,
    // inference forward, weight gradient, input gradient.
    let width = cfg.arch.width;
    let mut rng = SplitMix(args.seed);
    let weights = random_matrix(width, width, &mut rng);
    let batch = random_matrix(cfg.finetune_batch, width, &mut rng);
    let grad = random_matrix(cfg.finetune_batch, width, &mut rng);
    let wide = random_matrix(256, width, &mut rng);
    let small = 2 * cfg.finetune_batch * width * width;
    layers.set(
        "nn.gemm_ft_gflops",
        gflops(tracer, "Matrix::matmul 32x96x96", small, || batch.matmul(&weights)),
        7,
    );
    layers.set(
        "nn.gemm_inf_gflops",
        gflops(tracer, "Matrix::matmul 256x96x96", 2 * 256 * width * width, || {
            wide.matmul(&weights)
        }),
        7,
    );
    layers.set(
        "nn.gemm_at_gflops",
        gflops(tracer, "Matrix::matmul_at 96x32x96", small, || batch.matmul_at(&grad)),
        7,
    );
    layers.set(
        "nn.gemm_bt_gflops",
        gflops(tracer, "Matrix::matmul_bt 32x96x96", small, || grad.matmul_bt(&weights)),
        7,
    );

    let secs = timed(tracer, "nn", "QuantizedMlp::from_mlp", 9, || QuantizedMlp::from_mlp(model));
    layers.set("nn.quant_pack_ms", secs * 1e3, 9);
    let quantized = QuantizedMlp::from_mlp(model);
    let secs = timed(tracer, "nn", "QuantizedMlp::proba_and_features (D)", 9, || {
        quantized.proba_and_features(d_view)
    });
    layers.set("nn.quant_infer_krows_per_s", d0.len() as f64 / secs / 1e3, d0.len());
    let secs = timed(tracer, "nn", "Mlp::clone", 21, || model.clone());
    layers.set("nn.clone_ms", secs * 1e3, 21);

    let i_c = enld.candidate_set();
    let preds = model.predict_labels(DataRef::new(i_c.xs(), i_c.labels(), i_c.dim()));
    let secs = timed(tracer, "core", "ConditionalLabelProbability::estimate", 9, || {
        ConditionalLabelProbability::estimate(i_c.labels(), &preds, i_c.classes())
    });
    layers.set("core.estimate_p_ms", secs * 1e3, i_c.len());

    let bytes = enld.capture_checkpoint().to_bytes().len();
    let secs = timed(tracer, "core", "Enld::capture_checkpoint + to_bytes", 5, || {
        enld.capture_checkpoint().to_bytes()
    });
    layers.set("core.ckpt_bytes", bytes as f64, 1);
    layers.set("core.ckpt_encode_mb_per_s", bytes as f64 / secs / 1e6, 5);
    let path = args.out_dir.join(format!("{}.probe.ckpt", args.workload.name));
    let checkpoint = enld.capture_checkpoint();
    let secs = timed(tracer, "core", "Checkpoint::save_atomic", 5, || {
        checkpoint.save_atomic(&path).expect("write probe checkpoint")
    });
    layers.set("core.ckpt_save_ms", secs * 1e3, 5);
    let _ = std::fs::remove_file(&path);

    // The pool's own cost: a private pool of n threads against one of 1.
    let n = procfs::nproc().min(4);
    let secs = enld_par::with_threads(n, || {
        timed(tracer, "par", "par_map 1024 no-op items", 201, || enld_par::par_map(1024, 64, |i| i))
    });
    layers.set("par.map_overhead_us", secs * 1e6, 201);
    let tall = random_matrix(2048, width, &mut rng);
    let product = |tracer: &mut Tracer| {
        timed(tracer, "par", "Matrix::matmul 2048x96x96", 9, || tall.matmul(&weights))
    };
    let one = enld_par::with_threads(1, || product(tracer));
    let many = enld_par::with_threads(n, || product(tracer));
    layers.set("par.gemm_speedup_tn", one / many, 9);
}

/// Fixed costs the program pays on every arrival whether or not anyone
/// is listening: telemetry call sites, failpoints, pool dispatch.
fn overhead_probes(tracer: &mut Tracer, layers: &mut LayerReadings) {
    const CALLS: usize = 200_000;
    let span_call = || drop(telemetry::span("perf.probe").entered());
    let secs = per_call(tracer, "telemetry", "span, no sink", CALLS, span_call);
    layers.set("telemetry.span_off_ns", secs * 1e9, CALLS);
    let secs = with_info_sink(|| {
        per_call(tracer, "telemetry", "span, memory sink", CALLS / 10, span_call)
    });
    layers.set("telemetry.span_mem_sink_ns", secs * 1e9, CALLS / 10);
    // As the call sites do it: look the counter up by name, then add.
    let secs = per_call(tracer, "telemetry", "counter lookup + inc", CALLS, || {
        telemetry::metrics::global().counter("perf.probe.counter").inc();
    });
    layers.set("telemetry.counter_inc_ns", secs * 1e9, CALLS);
    let secs = per_call(tracer, "chaos", "fail_point, unarmed", CALLS, || {
        enld_chaos::fail_point("perf.probe");
    });
    layers.set("chaos.failpoint_unarmed_ns", secs * 1e9, CALLS);

    // A pool whose detector does nothing: what admission, queueing and
    // dispatch cost a job.
    const JOBS: usize = 1_000;
    let config =
        PoolConfig { workers: 1, queue_limit: 64, policy: PolicyKind::Fifo, prior_secs: 1e-6 };
    let mut pool: WorkerPool<u64, u64> = WorkerPool::spawn(config, |_| |x: &u64| *x);
    let span = tracer.begin("server", "no-op pool round trips");
    let (mut submit_us, mut sojourn_us) = (Vec::with_capacity(JOBS), Vec::with_capacity(JOBS));
    for j in 0..JOBS as u64 {
        let t = Instant::now();
        let accepted = pool.submit(JobSpec::new(j, j)).is_ok();
        submit_us.push(t.elapsed().as_secs_f64() * 1e6);
        if accepted && pool.next_timeout(std::time::Duration::from_secs(5)).is_some() {
            sojourn_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    tracer.end(span, &[("jobs", JOBS as f64)]);
    let _ = pool.shutdown();
    layers.set("server.submit_us_p50", median(&submit_us), submit_us.len());
    layers.set("server.noop_sojourn_us_p50", median(&sojourn_us), sojourn_us.len());
}
