//! Golden-scored benchmark regression suite.
//!
//! `tests/golden/bench_small.json` is a committed snapshot of the small
//! benchmark grid's scores. Every CI run re-runs that grid and compares
//! per-cell F1 and downstream accuracy against the snapshot within
//! [`TOLERANCE`] — a detector quality regression fails the build even
//! when every functional test still passes.
//!
//! The committed golden is frozen: it is `enld bench --grid` of
//! `golden_grid()`, byte-identical at any thread count. A deliberate
//! score change re-freezes it the same way.

use enld_baselines::DetectorKind;
use enld_bench::grid::{
    compare_to_golden, load_results, run_grid, GridConfig, GridOptions, GridPreset, RESULTS_FORMAT,
};
use std::path::PathBuf;

/// Allowed per-cell drift in F1 / downstream accuracy before the golden
/// comparison fails. Scores are deterministic per environment; the
/// tolerance absorbs cross-platform libm differences only.
const TOLERANCE: f64 = 0.05;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden/bench_small.json")
}

/// The grid the committed golden snapshot was scored on. Kept in code so
/// the degrade test runs even where the JSON file cannot be parsed; the
/// golden test asserts the file agrees.
fn golden_grid() -> GridConfig {
    GridConfig {
        seed: 23,
        noise_models: vec!["pairwise".to_owned(), "drift".to_owned()],
        rates: vec![0.2],
        presets: vec![GridPreset { name: "test-sim".to_owned(), scale: 0.4 }],
        detectors: vec!["ENLD".to_owned(), "Default".to_owned()],
        iterations: 2,
        init_epochs: 8,
        max_arrivals: 2,
        downstream_epochs: 4,
    }
}

#[test]
fn bench_scores_match_the_committed_golden() {
    let golden = load_results(&golden_path()).expect("golden snapshot parses");
    assert_eq!(golden.grid, golden_grid(), "golden file drifted from the in-code grid");
    let current = run_grid(&golden.grid, &GridOptions::default()).expect("grid runs");

    assert_eq!(current.format, RESULTS_FORMAT);
    let expected_cells = golden.grid.noise_models.len()
        * golden.grid.rates.len()
        * golden.grid.presets.len()
        * golden.grid.detectors.len();
    assert_eq!(current.cells.len(), expected_cells, "one cell per grid point");
    // A golden with fewer cells would pass the comparison vacuously.
    assert_eq!(golden.cells.len(), expected_cells, "the golden scores every grid point");
    assert_eq!(current.ranking.len(), golden.grid.detectors.len());
    let problems = compare_to_golden(&current, &golden, TOLERANCE);
    assert!(problems.is_empty(), "benchmark scores regressed:\n{}", problems.join("\n"));
}

/// Proof the golden gate can actually fail: degrade ENLD through
/// `GridOptions::degrade` and the comparison against an honest run of
/// the same grid must report ENLD cells out of tolerance — while the
/// honest run compared against itself stays clean.
#[test]
fn an_artificially_degraded_detector_fails_the_golden_comparison() {
    let grid = golden_grid();
    let honest = run_grid(&grid, &GridOptions::default()).expect("grid runs");
    let degraded = run_grid(&grid, &GridOptions { degrade: Some((DetectorKind::Enld, 0.8)) })
        .expect("grid runs");

    let problems = compare_to_golden(&degraded, &honest, TOLERANCE);
    assert!(
        problems.iter().any(|p| p.contains("ENLD")),
        "degrading ENLD by 80% must push its cells out of tolerance, got: {problems:?}"
    );
    assert!(
        !problems.iter().any(|p| p.contains("Default")),
        "the untouched detector must stay within tolerance, got: {problems:?}"
    );
    assert!(
        compare_to_golden(&honest, &honest, TOLERANCE).is_empty(),
        "an identical rerun must pass the comparison"
    );
}
