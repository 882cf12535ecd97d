//! Determinism suite: results are a function of the seeds alone. The one
//! forking site, `enld bench`'s grid, fixes chunk boundaries by input size
//! and merges in order, so `ENLD_THREADS=1` and `ENLD_THREADS=32` are
//! interchangeable — the grid tests pin that contract, and a full
//! `Enld::detect` run and a crash/resume cycle under several thread
//! budgets guard that no detector code reads the budget. The RNG streams
//! and the matrix product under them are pinned directly.
//!
//! Every test holds the `enld_chaos::scenario()` lock: the resume test
//! arms process-global failpoints, and the lock keeps that window from
//! overlapping another test's detection run.

use enld_core::{config::EnldConfig, detector::Enld};
use enld_datagen::presets::DatasetPreset;
use enld_lake::lake::{DataLake, LakeConfig};
use enld_nn::matrix::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

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

/// `StdRng` is the in-tree generator that the root `[patch.crates-io]`
/// names: xoshiro256++ with its state filled by splitmix64. Every
/// committed result, the bench golden and the benchmark's verdict hashes
/// were drawn from this stream, so losing the patch (and with it
/// falling back to the registry's ChaCha `StdRng`) must fail here rather
/// than silently move them.
#[test]
fn std_rng_is_xoshiro256pp_seeded_by_splitmix64() {
    fn reference(seed: u64, words: usize) -> Vec<u64> {
        let mut z = seed;
        let mut s = [0u64; 4];
        for word in &mut s {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            *word = x ^ (x >> 31);
        }
        (0..words)
            .map(|_| {
                let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
                let t = s[1] << 17;
                s[2] ^= s[0];
                s[3] ^= s[1];
                s[1] ^= s[2];
                s[0] ^= s[3];
                s[2] ^= t;
                s[3] = s[3].rotate_left(45);
                out
            })
            .collect()
    }
    for seed in [0, 1, 7, 42, 0xDEAD_BEEF, u64::MAX] {
        let mut rng = StdRng::seed_from_u64(seed);
        let drawn: Vec<u64> = (0..16).map(|_| rng.next_u64()).collect();
        assert_eq!(drawn, reference(seed, 16), "seed {seed}: StdRng left the in-tree stream");
    }
    assert_eq!(reference(7, 2), [0x0E2C_1A00_2AAE_913D, 0x2C0F_C8DD_FA4E_9E14]);
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
            enld_telemetry::json::Json::to_json(&results)
                .render(enld_telemetry::json::Layout::Pretty)
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
