//! Cross-crate property tests: conservation laws of the data-lake
//! pipeline, structural invariants of detection reports, and the HNSW
//! graph invariants of `enld-ann`.
//!
//! Each property runs a fixed number of seeded cases: case `c` draws its
//! parameters from `StdRng::seed_from_u64(c)`, and a failure message
//! names the case and its parameters.

use std::collections::BTreeSet;

use enld_ann::{AnnClassIndex, HnswShard};
use enld_core::{config::EnldConfig, detector::Enld};
use enld_datagen::noise::{apply_missing_labels, NoiseModel, TransitionMatrix};
use enld_datagen::presets::DatasetPreset;
use enld_datagen::zoo::{
    AnnotatorConfusion, DriftNoise, InstanceDependentNoise, LongTailNoise, NoiseSpec,
};
use enld_knn::class_index::ClassIndex;
use enld_knn::AnnParams;
use enld_lake::lake::{DataLake, LakeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Cases `0..n`, each with the generator its parameters are drawn from.
fn cases(n: u64) -> impl Iterator<Item = (u64, StdRng)> {
    (0..n).map(|case| (case, StdRng::seed_from_u64(case)))
}

/// The lake's 2:1 split plus partitioning conserves samples and noise.
fn lake_conserves_samples_and_noise(seed: u64, noise: f32) {
    let at = format!("seed {seed}, noise {noise}");
    let preset = DatasetPreset::test_sim().scaled(0.4);
    let lake = DataLake::build(&LakeConfig { preset, noise_rate: noise, seed });
    let total = preset.classes * preset.samples_per_class;
    let queued: usize = lake.peek_requests().map(|r| r.data.len()).sum();
    assert_eq!(lake.inventory().len() + queued, total, "{at}");

    // Every sample id appears exactly once across the whole lake.
    let mut ids: Vec<u64> = lake.inventory().ids().to_vec();
    for r in lake.peek_requests() {
        ids.extend_from_slice(r.data.ids());
    }
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), total, "{at}");

    // Observed noise rate tracks the injected rate.
    let noisy: usize = lake.inventory().noisy_indices().len()
        + lake.peek_requests().map(|r| r.data.noisy_indices().len()).sum::<usize>();
    // 192 samples → binomial σ ≈ 0.036; allow a generous ~3.5σ so the
    // property never flakes on tail seeds.
    let rate = noisy as f32 / total as f32;
    assert!((rate - noise).abs() < 0.13, "{at}: rate {rate} vs injected {noise}");
}

#[test]
fn prop_lake_conserves_samples_and_noise() {
    // The draw a proptest run once shrank a failure to.
    lake_conserves_samples_and_noise(967, 0.40941948);
    for (_, mut rng) in cases(8) {
        lake_conserves_samples_and_noise(rng.gen_range(0..1_000), rng.gen_range(0.0..0.45));
    }
}

/// Pair-asymmetric corruption only ever flips to the successor class.
#[test]
fn prop_pair_noise_structure() {
    for (case, mut rng) in cases(8) {
        let (seed, eta) = (rng.gen_range(0u64..1_000), rng.gen_range(0.0f32..1.0));
        let preset = DatasetPreset::test_sim().scaled(0.3);
        let clean = preset.generate(seed);
        let noisy =
            TransitionMatrix::pair_asymmetric(preset.classes, eta).corrupt(&clean, seed + 1);
        for &i in &noisy.noisy_indices() {
            let truth = noisy.true_labels()[i];
            assert_eq!(noisy.labels()[i], (truth + 1) % preset.classes as u32, "case {case}");
        }
    }
}

/// Every zoo noise model realizes a flip rate within tolerance of the
/// configured rate on a well-separated dataset (long-tail is checked
/// loosely: its effective rate compounds resampling with flips).
#[test]
fn prop_zoo_models_hit_configured_rate() {
    for (case, mut rng) in cases(8) {
        let (seed, rate) = (rng.gen_range(0u64..1_000), rng.gen_range(0.05f32..0.4));
        let preset = DatasetPreset::test_sim().scaled(0.4);
        let clean = preset.generate(seed);
        for spec in [
            NoiseSpec::Pairwise,
            NoiseSpec::Symmetric,
            NoiseSpec::Asymmetric,
            NoiseSpec::Instance,
            NoiseSpec::Confusion,
        ] {
            let model = spec.build(preset.classes, rate, seed + 3);
            let noisy = model.corrupt_with(&clean, seed + 1);
            assert_eq!(noisy.len(), clean.len(), "case {case}");
            let realized = noisy.noisy_indices().len() as f32 / noisy.len() as f32;
            // 192 samples → binomial σ ≈ 0.035 at worst; ~3.5σ cushion.
            assert!(
                (realized - rate).abs() < 0.13,
                "case {case}: {spec} realized {realized} vs configured {rate}"
            );
        }
    }
}

/// Instance-dependent flip probabilities are always valid
/// probabilities and calibrate to the configured mean.
#[test]
fn prop_instance_probs_in_unit_interval() {
    for (case, mut rng) in cases(8) {
        let (seed, rate) = (rng.gen_range(0u64..1_000), rng.gen_range(0.0f32..0.5));
        let preset = DatasetPreset::test_sim().scaled(0.3);
        let clean = preset.generate(seed);
        let model = InstanceDependentNoise::new(preset.classes, rate);
        let probs = model.flip_probabilities(&clean);
        assert_eq!(probs.len(), clean.len(), "case {case}");
        for &(p, target) in &probs {
            assert!((0.0..=1.0).contains(&p), "case {case}: flip prob {p} outside [0,1]");
            assert!((target as usize) < preset.classes, "case {case}");
        }
        let mean = probs.iter().map(|&(p, _)| p).sum::<f32>() / probs.len() as f32;
        assert!((mean - rate).abs() < 0.02, "case {case}: calibrated mean {mean} vs {rate}");
    }
}

/// Sampled annotator-confusion matrices are row-stochastic with the
/// configured diagonal.
#[test]
fn prop_confusion_rows_sum_to_one() {
    for (case, mut rng) in cases(8) {
        let seed = rng.gen_range(0u64..1_000);
        let rate = rng.gen_range(0.0f32..0.9);
        let classes = rng.gen_range(2usize..12);
        let model = AnnotatorConfusion::sample(classes, rate, seed);
        for i in 0..classes {
            let row = model.matrix().row(i);
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-3, "case {case}: row {i} sums to {sum}");
            assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)), "case {case}");
            assert!((model.matrix().prob(i, i) - (1.0 - rate)).abs() < 1e-4, "case {case}");
        }
    }
}

/// Long-tail resampling preserves the exact total sample count, and
/// its target profile is non-increasing head → tail.
#[test]
fn prop_longtail_preserves_total_count() {
    for (case, mut rng) in cases(8) {
        let seed = rng.gen_range(0u64..1_000);
        let rate = rng.gen_range(0.0f32..0.4);
        let gamma = rng.gen_range(0.05f32..1.0);
        let preset = DatasetPreset::test_sim().scaled(0.4);
        let clean = preset.generate(seed);
        let model = LongTailNoise::with_gamma(preset.classes, rate, gamma);
        let targets = model.target_counts(clean.len());
        assert_eq!(targets.iter().sum::<usize>(), clean.len(), "case {case}");
        let out = model.corrupt_with(&clean, seed + 5);
        assert_eq!(out.len(), clean.len(), "case {case}");
    }
}

/// Drift interpolation matches its source matrices exactly at the
/// stream endpoints and stays row-stochastic in between.
#[test]
fn prop_drift_endpoints_match_sources() {
    for (case, mut rng) in cases(8) {
        let seed = rng.gen_range(0u64..1_000);
        let rate_a = rng.gen_range(0.0f32..0.5);
        let rate_b = rng.gen_range(0.0f32..0.5);
        let t = rng.gen_range(0.0f64..1.0);
        let classes = 8usize;
        let from = TransitionMatrix::pair_asymmetric(classes, rate_a);
        let to = TransitionMatrix::asymmetric_random(classes, rate_b, seed);
        let drift = DriftNoise::new(from.clone(), to.clone());
        assert_eq!(drift.matrix_at(0.0), from, "case {case}");
        assert_eq!(drift.matrix_at(1.0), to, "case {case}");
        let mid = drift.matrix_at(t);
        for i in 0..classes {
            let sum: f32 = mid.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "case {case}: row {i} sums to {sum}");
        }
    }
}

/// Missing-label masking never touches features, ids or ground truth.
#[test]
fn prop_missing_mask_is_nondestructive() {
    for (case, mut rng) in cases(8) {
        let (seed, rate) = (rng.gen_range(0u64..1_000), rng.gen_range(0.0f32..1.0));
        let preset = DatasetPreset::test_sim().scaled(0.3);
        let d = preset.generate(seed);
        let masked = apply_missing_labels(&d, rate, seed + 7);
        assert_eq!(masked.xs(), d.xs(), "case {case}");
        assert_eq!(masked.ids(), d.ids(), "case {case}");
        assert_eq!(masked.true_labels(), d.true_labels(), "case {case}");
        assert_eq!(masked.labels(), d.labels(), "case {case}");
    }
}

/// For any seed/noise, a detection report is a clean partition of the
/// eligible samples with a monotone clean-set history. Detection runs
/// train a model, so the case count stays minimal.
#[test]
fn prop_detection_report_invariants() {
    for (case, mut rng) in cases(3) {
        let (seed, noise) = (rng.gen_range(0u64..100), rng.gen_range(0.05f32..0.4));
        let at = format!("case {case} (seed {seed}, noise {noise})");
        let preset = DatasetPreset::test_sim().scaled(0.3);
        let mut lake = DataLake::build(&LakeConfig { preset, noise_rate: noise, seed });
        let mut cfg = EnldConfig::fast_test();
        cfg.init_train.epochs = 8;
        cfg.iterations = 2;
        let mut enld = Enld::init(lake.inventory(), &cfg);
        let req = lake.next_request().expect("queued");
        let report = enld.detect(&req.data);

        // Partition.
        let mut seen = vec![false; req.data.len()];
        for &i in report.clean.iter().chain(&report.noisy) {
            assert!(i < req.data.len(), "{at}");
            assert!(!seen[i], "{at}: sample {i} classified twice");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s), "{at}");

        // The clean set only grows across iterations.
        for w in report.history.windows(2) {
            let earlier: BTreeSet<usize> = w[0].clean_so_far.iter().copied().collect();
            let later: BTreeSet<usize> = w[1].clean_so_far.iter().copied().collect();
            assert!(earlier.is_subset(&later), "{at}: clean set shrank between iterations");
        }

        // Inventory votes point into I_c.
        for &i in &report.inventory_clean {
            assert!(i < enld.candidate_set().len(), "{at}");
        }
    }
}

fn points(n: usize, dim: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n * dim).map(|_| rng.gen_range(-5.0f32..5.0)).collect()
}

/// After every insert, every HNSW shard invariant holds: layer
/// monotonicity (no node is linked above its own level), bidirectional
/// links at every layer (insert and pruning preserve symmetry), array
/// shapes and an entry point in range — also when the same point is
/// indexed again under a new global index.
#[test]
fn prop_hnsw_invariants_survive_inserts_and_deletes() {
    const DIM: usize = 3;
    for (case, mut rng) in cases(24) {
        let n = rng.gen_range(2usize..48);
        let seed = rng.gen_range(0u64..1_000);
        let repeats: Vec<usize> =
            (0..rng.gen_range(0..16)).map(|_| rng.gen_range(0usize..48) % n).collect();
        let check = |shard: &HnswShard| {
            if let Err(e) = shard.check_invariants() {
                panic!("case {case} (n {n}, seed {seed}, repeats {repeats:?}): {e}");
            }
        };
        let pts = points(n, DIM, seed);
        let mut shard =
            HnswShard::new(DIM, AnnParams { m: 4, ef_construction: 12, ef_search: 12, seed }, seed);
        for i in 0..n {
            shard.insert(i, &pts[i * DIM..(i + 1) * DIM]);
            check(&shard);
        }
        for (idx, &g) in repeats.iter().enumerate() {
            shard.insert(n + idx, &pts[g * DIM..(g + 1) * DIM]);
            check(&shard);
        }
    }
}

/// With `m`/`ef` at least the shard size the beam search degenerates
/// to exhaustive scan, so the graph must return exactly the
/// brute-force k-nearest distances — recall can never drop below
/// brute force on instances the parameters fully cover.
#[test]
fn prop_hnsw_matches_brute_force_when_ef_covers_the_shard() {
    const DIM: usize = 4;
    for (case, mut rng) in cases(24) {
        let n = rng.gen_range(1usize..32);
        let k = rng.gen_range(1usize..6);
        let seed = rng.gen_range(0u64..1_000);
        let pts = points(n + 1, DIM, seed);
        let (query, pts) = pts.split_at(DIM);
        let mut shard = HnswShard::new(
            DIM,
            AnnParams { m: n.max(2), ef_construction: n.max(2), ef_search: n.max(2), seed },
            seed,
        );
        for i in 0..n {
            shard.insert(i, &pts[i * DIM..(i + 1) * DIM]);
        }
        let (hits, _) = shard.k_nearest(query, k);
        let mut brute: Vec<f32> = (0..n)
            .map(|i| {
                pts[i * DIM..(i + 1) * DIM].iter().zip(query).map(|(a, b)| (a - b) * (a - b)).sum()
            })
            .collect();
        brute.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        brute.truncate(k);
        let got: Vec<f32> = hits.iter().map(|h| h.dist_sq).collect();
        assert_eq!(got, brute, "case {case} (n {n}, k {k}, seed {seed})");
    }
}

/// The sharded class index agrees with the exact class scan whenever
/// the beam covers each class shard, for every class in the set.
#[test]
fn prop_ann_class_index_matches_exact_at_full_beam() {
    const DIM: usize = 3;
    const CLASSES: usize = 3;
    for (case, mut rng) in cases(24) {
        let per_class = rng.gen_range(1usize..12);
        let seed = rng.gen_range(0u64..1_000);
        let n = per_class * CLASSES;
        let pts = points(n + 1, DIM, seed);
        let (query, pts) = pts.split_at(DIM);
        let labels: Vec<u32> = (0..n).map(|i| (i % CLASSES) as u32).collect();
        let keep: Vec<usize> = (0..n).map(|i| i * 10).collect();
        let params = AnnParams {
            m: per_class.max(2),
            ef_construction: per_class.max(2),
            ef_search: per_class.max(2),
            seed,
        };
        let ann = AnnClassIndex::build(pts, DIM, &labels, &keep, params);
        let exact = ClassIndex::build(pts, DIM, &labels, &keep);
        for class in 0..CLASSES as u32 {
            let a = ann.k_nearest_in_class(class, query, 3);
            let e = exact.k_nearest_in_class(class, query, 3);
            let a_ids: Vec<usize> = a.iter().map(|h| h.index).collect();
            let e_ids: Vec<usize> = e.iter().map(|h| h.index).collect();
            assert_eq!(a_ids, e_ids, "case {case}: class {class} diverged from exact");
        }
    }
}

// ── matrix-kernel properties ────────────────────────────────────────────

use enld_nn::matrix::Matrix;
use enld_nn::quant::quantize_row;

fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| rng.gen_range(-3.0f32..3.0)).collect())
}

fn transpose(a: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.cols(), a.rows());
    for r in 0..a.rows() {
        for c in 0..a.cols() {
            out.data_mut()[c * a.rows() + r] = a.data()[r * a.cols() + c];
        }
    }
    out
}

/// The packed/blocked kernels are a performance refactor, not a
/// numerics change: every product variant must match the naive
/// triple loop bit-for-bit on arbitrary ragged shapes — 1×1, prime
/// dims, K below one panel, tiles narrower than the register block
/// all fall inside these ranges. This is the FP-order contract of
/// DESIGN.md §13 stated as a property.
#[test]
fn prop_blocked_kernels_match_the_naive_reference_bitwise() {
    for (_, mut rng) in cases(32) {
        let m = rng.gen_range(1usize..48);
        let k = rng.gen_range(1usize..48);
        let n = rng.gen_range(1usize..48);
        let seed = rng.gen_range(0u64..1_000);
        let a = mat(m, k, seed);
        let b = mat(k, n, seed.wrapping_add(0x9e37_79b9));
        let want = a.matmul_naive(&b);
        let blocked = a.matmul(&b);
        let via_at = transpose(&a).matmul_at(&b);
        let via_bt = a.matmul_bt(&transpose(&b));
        assert_eq!(blocked.data(), want.data(), "matmul {m}x{k}x{n}, seed {seed}");
        assert_eq!(via_at.data(), want.data(), "matmul_at {m}x{k}x{n}, seed {seed}");
        assert_eq!(via_bt.data(), want.data(), "matmul_bt {m}x{k}x{n}, seed {seed}");
    }
}

/// The same equality on left operands where ReLU-like exact zeros (of
/// both signs) make up a random share, at widths on both sides of the
/// crossover where the products skip those zeros: a skipped `±0·b` term
/// must leave every output bit where the reference puts it.
#[test]
fn prop_zero_skipping_kernels_match_the_naive_reference_bitwise() {
    for (case, mut rng) in cases(32) {
        let m = rng.gen_range(1usize..48);
        let k = rng.gen_range(1usize..64);
        let n = rng.gen_range(60usize..130);
        let zero_share = rng.gen_range(0.0f64..1.0);
        let mut a = mat(m, k, case);
        for v in a.data_mut() {
            if rng.gen_bool(zero_share) {
                *v = if rng.gen_bool(0.5) { 0.0 } else { -0.0 };
            }
        }
        let b = mat(k, n, case.wrapping_add(0x9e37_79b9));
        let bits = |x: &Matrix| x.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let want = bits(&a.matmul_naive(&b));
        let at = format!("case {case}: {m}x{k}x{n}, zero share {zero_share:.2}");
        assert_eq!(bits(&a.matmul(&b)), want, "matmul {at}");
        assert_eq!(bits(&transpose(&a).matmul_at(&b)), want, "matmul_at {at}");
        assert_eq!(bits(&a.matmul_bt(&transpose(&b))), want, "matmul_bt {at}");
    }
}

/// Symmetric absmax int8: dequantized values sit within half a
/// quantization step of the input, codes never leave ±127, and the
/// returned scale is exactly `absmax/127`.
#[test]
fn prop_quantize_round_trip_error_is_within_half_a_step() {
    for (case, mut rng) in cases(32) {
        let n = rng.gen_range(1usize..256);
        let seed = rng.gen_range(0u64..1_000);
        let mut rng = StdRng::seed_from_u64(seed);
        let vals: Vec<f32> = (0..n).map(|_| rng.gen_range(-8.0f32..8.0)).collect();
        let mut codes = vec![0i8; n];
        let scale = quantize_row(&vals, &mut codes);
        let absmax = vals.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        assert_eq!(scale, absmax / 127.0, "case {case}");
        for (&v, &q) in vals.iter().zip(&codes) {
            assert!((-127..=127).contains(&q), "case {case}: code {q} out of range");
            let err = (v - q as f32 * scale).abs();
            // Half a step, with a little head-room for the fp divide in
            // the scale itself.
            assert!(err <= scale * 0.5 + 1e-6, "case {case}: err {err} > step/2 {}", scale * 0.5);
        }
    }
}
