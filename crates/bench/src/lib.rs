//! `enld-bench` — the experiment harness that regenerates every table and
//! figure of the ENLD paper's evaluation (§V).
//!
//! `enld repro` drives the experiments:
//!
//! ```text
//! enld repro <experiment>... [--quick|--exhaustive] [--seed N] [--out DIR]
//!   experiment ∈ { fig3, fig4, fig5, fig6, fig7, fig8, fig9, fig10,
//!                  fig11, fig12, fig13a, fig13b, fig14, table2,
//!                  headline, ext-noise, ext-queue, all, ext }
//! ```
//!
//! Each experiment prints the paper's rows/series to stdout and writes
//! machine-readable JSON under `--out` (default `results/`), from which
//! EXPERIMENTS.md is compiled. `--quick` shrinks datasets and iteration
//! budgets for smoke runs; `--exhaustive` serves every arrival.
//!
//! Absolute wall-clock numbers differ from the paper (CPU-scale simulator
//! vs the authors' Tesla P100 testbed); the comparisons preserved are who
//! wins, by roughly what factor, and where the crossovers fall. See
//! DESIGN.md §2 and EXPERIMENTS.md.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod grid;
pub mod queueing;
pub mod rows;
pub mod runner;
pub mod scale;

pub use grid::{GridConfig, GridOptions, GridResults};
pub use rows::{ExperimentOutput, MethodRow};
pub use scale::RunScale;
