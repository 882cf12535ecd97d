//! Parallel-determinism suite: every data-parallel hot path must produce
//! bit-identical results whatever the thread count. The `enld-par`
//! primitives fix chunk boundaries by input size and merge in order, so
//! `ENLD_THREADS=1` and `ENLD_THREADS=32` are interchangeable — these
//! tests pin that contract at the integration level (k-NN, dataset
//! synthesis, and a full `Enld::detect` run); the matrix products under
//! them are sequential kernels, pinned to `matmul_naive` instead.
//!
//! Every test holds the `enld_chaos::scenario()` lock: the resume test
//! arms process-global failpoints, and the lock keeps that window from
//! overlapping another test's detection run.

use enld_ann::AnnClassIndex;
use enld_core::{config::EnldConfig, detector::Enld};
use enld_datagen::presets::DatasetPreset;
use enld_knn::class_index::ClassIndex;
use enld_knn::kdtree::Neighbor;
use enld_knn::{AnnParams, IndexBackend};
use enld_lake::lake::{DataLake, LakeConfig};
use enld_nn::matrix::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const THREAD_COUNTS: [usize; 2] = [2, 8];

fn uniform(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(-3.0f32..3.0)).collect()
}

/// The cache-blocked matmul pins one FP accumulation order per output
/// element (ascending `kk`, one accumulator), so its result must be the
/// naive triple loop's bits. Shapes stress the kernel's edges: a single
/// element, prime dims that never align with the MR×NR register tile, K
/// smaller than one packed panel row, and a size spanning many tiles.
#[test]
fn blocked_matmul_is_bit_identical_to_naive() {
    let _chaos_lock = enld_chaos::scenario();
    for (m, k, n) in [(1, 1, 1), (17, 3, 31), (5, 97, 13), (64, 7, 129), (97, 101, 103)] {
        let a = Matrix::from_vec(m, k, uniform(m * k, 61));
        let b = Matrix::from_vec(k, n, uniform(k * n, 62));
        assert_eq!(
            a.matmul(&b),
            a.matmul_naive(&b),
            "blocked kernel diverged from reference at {m}x{k}x{n}"
        );
    }
}

#[test]
fn knn_neighbour_sets_are_identical_across_thread_counts() {
    let _chaos_lock = enld_chaos::scenario();
    const DIM: usize = 24;
    const N: usize = 600;
    let feats = uniform(N * DIM, 51);
    let labels: Vec<u32> = (0..N).map(|i| (i % 5) as u32).collect();
    let keep: Vec<usize> = (0..N).collect();
    let queries = uniform(40 * DIM, 52);
    let qlabels: Vec<u32> = (0..40).map(|i| (i % 5) as u32).collect();

    let run = || {
        let index = ClassIndex::build(&feats, DIM, &labels, &keep);
        index.k_nearest_in_class_batch(&qlabels, &queries, 4)
    };
    let base: Vec<Vec<Neighbor>> = enld_par::with_threads(1, run);
    for threads in THREAD_COUNTS {
        let got = enld_par::with_threads(threads, run);
        assert_eq!(got, base, "threads={threads}");
    }
}

#[test]
fn ann_build_update_and_queries_are_bit_identical_across_thread_counts() {
    let _chaos_lock = enld_chaos::scenario();
    const DIM: usize = 12;
    const N: usize = 800;
    const ARRIVAL: usize = 120;
    let feats = uniform((N + ARRIVAL) * DIM, 61);
    let labels: Vec<u32> = (0..N + ARRIVAL).map(|i| (i % 6) as u32).collect();
    let keep: Vec<usize> = (0..N + ARRIVAL).collect();
    let queries = uniform(32 * DIM, 62);
    let qlabels: Vec<u32> = (0..32).map(|i| (i % 6) as u32).collect();

    // Build, patch an arrival in, tombstone a few, then query: the
    // serialized blob pins the whole graph (levels, links, tombstones)
    // bit-for-bit, not just the query answers.
    let run = || {
        let mut index = AnnClassIndex::build(
            &feats[..N * DIM],
            DIM,
            &labels[..N],
            &keep[..N],
            AnnParams::default(),
        );
        index.insert_batch(&feats[N * DIM..], &labels[N..], &keep[N..]);
        for g in (0..N).step_by(97) {
            index.remove(labels[g], g);
        }
        (index.to_bytes(), index.k_nearest_in_class_batch(&qlabels, &queries, 4))
    };
    let base = enld_par::with_threads(1, run);
    for threads in [4, 8] {
        let got = enld_par::with_threads(threads, run);
        assert_eq!(got.0, base.0, "serialized graph diverged at threads={threads}");
        assert_eq!(got.1, base.1, "query answers diverged at threads={threads}");
    }
}

#[test]
fn hnsw_detection_reports_are_identical_across_thread_counts() {
    let _chaos_lock = enld_chaos::scenario();
    // Same contract as `detection_reports_are_identical_across_thread_counts`
    // but with the approximate backend: the HNSW build, the incremental
    // updates and the batched ambiguity queries all run under the pool.
    let run = || {
        let preset = DatasetPreset::test_sim().scaled(0.5);
        let mut lake = DataLake::build(&LakeConfig { preset, noise_rate: 0.2, seed: 105 });
        let mut cfg = EnldConfig::fast_test();
        cfg.iterations = 3;
        cfg.index = IndexBackend::hnsw();
        let mut enld = Enld::init(lake.inventory(), &cfg);
        let req = lake.next_request().expect("queued");
        let r = enld.detect(&req.data);
        (r.clean, r.noisy, r.pseudo_labels, r.inventory_clean)
    };
    let base = enld_par::with_threads(1, run);
    for threads in THREAD_COUNTS {
        let got = enld_par::with_threads(threads, run);
        assert_eq!(got, base, "threads={threads}");
    }
}

#[test]
fn generated_datasets_are_bit_identical_across_thread_counts() {
    let _chaos_lock = enld_chaos::scenario();
    let preset = DatasetPreset::test_sim().scaled(0.5);
    let base = enld_par::with_threads(1, || preset.generate(9));
    for threads in THREAD_COUNTS {
        let got = enld_par::with_threads(threads, || preset.generate(9));
        assert_eq!(got.xs(), base.xs(), "threads={threads}");
        assert_eq!(got.labels(), base.labels(), "threads={threads}");
    }
}

#[test]
fn resume_is_bit_identical_across_thread_counts() {
    // Recovery state is counters and weights, never anything derived from
    // scheduling — so a checkpoint written under one thread count must
    // resume bit-identically under another (and vice versa).
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use enld_core::checkpoint::Checkpoint;

    let _guard = enld_chaos::scenario();
    let dir = std::env::temp_dir().join(format!("enld-det-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let ckpt_path = dir.join("state.ckpt");

    let fresh = || {
        let preset = DatasetPreset::test_sim().scaled(0.5);
        let lake = DataLake::build(&LakeConfig { preset, noise_rate: 0.2, seed: 105 });
        (Enld::init(lake.inventory(), &EnldConfig::fast_test()), lake)
    };
    let base = enld_par::with_threads(1, || {
        let (mut enld, mut lake) = fresh();
        let req = lake.next_request().expect("queued");
        let r = enld.detect(&req.data);
        (r.clean, r.noisy, r.pseudo_labels, r.inventory_clean)
    });

    for (crash_threads, resume_threads) in [(1usize, 4usize), (4, 1)] {
        enld_par::with_threads(crash_threads, || {
            let (mut enld, mut lake) = fresh();
            enld.enable_checkpoints(&ckpt_path);
            let req = lake.next_request().expect("queued");
            enld_chaos::arm_from_spec("detector.iteration=panic@nth:2").expect("valid spec");
            let crashed = catch_unwind(AssertUnwindSafe(move || {
                let _ = enld.detect(&req.data);
            }));
            enld_chaos::disarm_all();
            assert!(crashed.is_err(), "failpoint must crash the run at {crash_threads} threads");
        });
        let got = enld_par::with_threads(resume_threads, || {
            let (_, mut lake) = fresh();
            let ckpt = Checkpoint::load(&ckpt_path).expect("checkpoint survives the crash");
            let mut enld = Enld::resume_from(lake.inventory(), &EnldConfig::fast_test(), &ckpt)
                .expect("resume");
            let req = lake.next_request().expect("queued");
            let r = enld.detect(&req.data);
            (r.clean, r.noisy, r.pseudo_labels, r.inventory_clean)
        });
        assert_eq!(got, base, "crash@{crash_threads} threads → resume@{resume_threads} threads");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn noise_zoo_models_are_bit_identical_across_thread_counts() {
    let _chaos_lock = enld_chaos::scenario();
    // Every zoo model draws all of its randomness from the per-call seed,
    // never from pool scheduling — corruption at any stream position must
    // be byte-identical whatever the thread count.
    use enld_datagen::zoo::NoiseSpec;
    let clean = DatasetPreset::test_sim().scaled(0.5).generate(33);
    for spec in NoiseSpec::ALL {
        let model = spec.build(clean.classes(), 0.3, 99);
        let base = enld_par::with_threads(1, || model.corrupt_at(&clean, 0.5, 7));
        for threads in THREAD_COUNTS {
            let got = enld_par::with_threads(threads, || model.corrupt_at(&clean, 0.5, 7));
            assert_eq!(got.labels(), base.labels(), "{} labels, threads={threads}", spec.name());
            assert_eq!(got.xs(), base.xs(), "{} features, threads={threads}", spec.name());
            assert_eq!(
                got.true_labels(),
                base.true_labels(),
                "{} truth, threads={threads}",
                spec.name()
            );
        }
    }
}

#[test]
fn transition_matrix_rng_stream_is_pinned() {
    let _chaos_lock = enld_chaos::scenario();
    // The historical corruption contract, unchanged since the original
    // flipper: one uniform draw per sample, in index order, inverse-CDF
    // against the true label's transition row. Re-deriving the stream
    // here from `rand` directly means any reordering or extra draw inside
    // `TransitionMatrix::corrupt` — however the internals are refactored —
    // breaks this test, and with it every seed-pinned lake in the repo.
    use enld_datagen::TransitionMatrix;
    let clean = DatasetPreset::test_sim().scaled(0.4).generate(21);
    let tm = TransitionMatrix::pair_asymmetric(clean.classes(), 0.35);
    let corrupted = tm.corrupt(&clean, 77);
    let mut rng = StdRng::seed_from_u64(77);
    for i in 0..clean.len() {
        let y = clean.true_labels()[i] as usize;
        let mut u: f32 = rng.gen_range(0.0..1.0);
        let mut expect = y as u32;
        for (j, &p) in tm.row(y).iter().enumerate() {
            if u < p {
                expect = j as u32;
                break;
            }
            u -= p;
        }
        assert_eq!(corrupted.labels()[i], expect, "draw order diverged at sample {i}");
    }
    assert_eq!(corrupted.true_labels(), clean.true_labels(), "ground truth must be untouched");
}

/// The 2×2 benchmark grid (2 noise models × 2 detectors) must score
/// identically at 1 and 4 threads: configurations are sharded over the
/// pool, so any scheduling leak between cells shows up here.
fn thread_invariant_grid() -> enld_bench::grid::GridConfig {
    enld_bench::grid::GridConfig {
        seed: 23,
        noise_models: vec!["pairwise".to_owned(), "drift".to_owned()],
        rates: vec![0.2],
        presets: vec![enld_bench::grid::GridPreset { name: "test-sim".to_owned(), scale: 0.4 }],
        detectors: vec!["ENLD".to_owned(), "Default".to_owned()],
        iterations: 2,
        init_epochs: 8,
        max_arrivals: 2,
        downstream_epochs: 4,
    }
}

#[test]
fn bench_grid_results_are_identical_across_thread_counts() {
    let _chaos_lock = enld_chaos::scenario();
    let grid = thread_invariant_grid();
    let opts = enld_bench::grid::GridOptions::default();
    let base =
        enld_par::with_threads(1, || enld_bench::grid::run_grid(&grid, &opts).expect("grid runs"));
    let got =
        enld_par::with_threads(4, || enld_bench::grid::run_grid(&grid, &opts).expect("grid runs"));
    assert_eq!(got, base, "grid results diverged between 1 and 4 threads");
}

#[test]
fn bench_grid_json_is_byte_identical_across_thread_counts() {
    let _chaos_lock = enld_chaos::scenario();
    // Stronger than struct equality: the emitted results document itself —
    // what `enld bench` writes and the golden test reads — must be the
    // same bytes at any thread count (no timestamps, no map ordering).
    let grid = thread_invariant_grid();
    let opts = enld_bench::grid::GridOptions::default();
    let json = |threads| {
        enld_par::with_threads(threads, || {
            let results = enld_bench::grid::run_grid(&grid, &opts).expect("grid runs");
            serde_json::to_string_pretty(&results).expect("serializable")
        })
    };
    assert_eq!(json(1), json(4), "results JSON diverged between 1 and 4 threads");
}

#[test]
fn detection_reports_are_identical_across_thread_counts() {
    let _chaos_lock = enld_chaos::scenario();
    // The full pipeline: lake construction, model training, the iterative
    // detector, and contrastive sampling all run under the pool. Reports
    // must match field-for-field (timings excluded, obviously).
    let run = || {
        let preset = DatasetPreset::test_sim().scaled(0.5);
        let mut lake = DataLake::build(&LakeConfig { preset, noise_rate: 0.2, seed: 105 });
        let mut cfg = EnldConfig::fast_test();
        cfg.iterations = 3;
        let mut enld = Enld::init(lake.inventory(), &cfg);
        let req = lake.next_request().expect("queued");
        let r = enld.detect(&req.data);
        (r.clean, r.noisy, r.pseudo_labels, r.inventory_clean)
    };
    let base = enld_par::with_threads(1, run);
    for threads in THREAD_COUNTS {
        let got = enld_par::with_threads(threads, run);
        assert_eq!(got, base, "threads={threads}");
    }
}
