//! `repro` — regenerates every table and figure of the ENLD paper.
//!
//! ```text
//! repro <experiment>... [--quick] [--seed N] [--out DIR] [--threads N]
//!       [--log-level LEVEL] [--trace-out FILE] [--metrics-out FILE]
//!       [--metrics-interval SECS]
//! repro all --quick
//! ```
//!
//! Experiments: fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12
//! fig13a fig13b fig14 table2 headline all. Results print as aligned
//! tables and persist as JSON under `--out` (default `results/`).
//!
//! Observability: `--log-level quiet|error|warn|info|debug|trace` sets
//! stderr verbosity (default `info`), `--trace-out FILE` writes a
//! JSON-lines span/event trace, and `--metrics-out FILE` dumps the final
//! metrics snapshot (counters, gauges, histograms with p50/p95/p99).
//! `--metrics-interval SECS` additionally rewrites that snapshot
//! atomically (tmp + rename) on a fixed cadence while the run is live.
//!
//! `--threads N` sets the data-parallel thread budget (default:
//! `ENLD_THREADS` or all cores; `1` = sequential). Results are
//! bit-identical either way.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use enld_bench::experiments::{self, ExpContext};
use enld_bench::scale::RunScale;
use enld_telemetry::{terror, tinfo, TelemetryConfig};

fn usage() -> String {
    format!(
        "usage: repro <experiment>... [--quick|--exhaustive] [--index exact|hnsw] [--seed N]\n             [--out DIR] [--threads N]\n             [--log-level quiet|error|warn|info|debug|trace] [--trace-out FILE] [--metrics-out FILE]\n             [--metrics-interval SECS]\n       experiments: {} {} all ext",
        experiments::all_ids().join(" "),
        experiments::extension_ids().join(" ")
    )
}

fn main() -> ExitCode {
    let mut ids: Vec<String> = Vec::new();
    let mut scale = RunScale::full();
    // Applied after the loop so `--index hnsw --quick` keeps the backend.
    let mut index_override = None;
    let mut seed = 7u64;
    let mut out_dir = PathBuf::from("results");
    let mut telemetry_cfg = TelemetryConfig::default();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => scale = RunScale::quick(),
            "--exhaustive" => scale = RunScale::exhaustive(),
            "--index" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => index_override = Some(v),
                None => {
                    eprintln!("--index requires exact|hnsw\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => {
                    eprintln!("--seed requires an integer\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match args.next() {
                Some(v) => out_dir = PathBuf::from(v),
                None => {
                    eprintln!("--out requires a directory\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--log-level" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => telemetry_cfg.log_level = v,
                None => {
                    eprintln!(
                        "--log-level requires one of quiet|error|warn|info|debug|trace\n{}",
                        usage()
                    );
                    return ExitCode::FAILURE;
                }
            },
            "--trace-out" => match args.next() {
                Some(v) => telemetry_cfg.trace_out = Some(PathBuf::from(v)),
                None => {
                    eprintln!("--trace-out requires a file path\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--metrics-out" => match args.next() {
                Some(v) => telemetry_cfg.metrics_out = Some(PathBuf::from(v)),
                None => {
                    eprintln!("--metrics-out requires a file path\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--metrics-interval" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => telemetry_cfg.metrics_interval = Some(v),
                None => {
                    eprintln!("--metrics-interval requires a number of seconds\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--threads" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => {
                    if let Err(e) = enld_par::set_threads(v) {
                        eprintln!("--threads: {e}\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
                None => {
                    eprintln!("--threads requires a positive integer\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown flag '{other}'\n{}", usage());
                return ExitCode::FAILURE;
            }
            other => ids.push(other.to_owned()),
        }
    }
    if ids.is_empty() {
        ids.push("all".to_owned());
    }
    if let Some(index) = index_override {
        scale.index = index;
    }
    // The handle flushes sinks and writes the final snapshot on every
    // exit path (explicitly below, via Drop if an experiment panics);
    // with --metrics-interval it also snapshots periodically while the
    // run is live, so long experiments are observable mid-flight.
    let mut telemetry = match telemetry_cfg.install() {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("failed to open trace output: {e}");
            return ExitCode::FAILURE;
        }
    };

    let ctx = ExpContext::new(scale, seed, out_dir);
    tinfo!(
        "repro",
        "scale: {} (seed {seed}, results → {})",
        if ctx.scale.full { "full (paper-shaped)" } else { "quick (smoke)" },
        ctx.out_dir.display()
    );
    for id in &ids {
        if let Err(e) = experiments::run(id, &ctx) {
            terror!("repro", "{id} failed: {e}");
            let _ = telemetry.finish();
            return ExitCode::FAILURE;
        }
    }
    match telemetry.finish() {
        Ok(Some(path)) => tinfo!("repro", "metrics snapshot → {}", path.display()),
        Ok(None) => {}
        Err(e) => {
            eprintln!("failed to write metrics snapshot: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
