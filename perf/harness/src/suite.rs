//! The suite: every workload, timed then traced, one process per run
//! (the thread count is fixed once per process), collected into one
//! result file; and the comparison of two such files.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use crate::json::Json;
use crate::spec::{serve_workers, Kind, Workload, END_TO_END, WORKLOADS};
use crate::{details_path, procfs, Cli, RUN_SECONDS};

/// Traced-run readings that are counts: they must repeat exactly at a
/// seed, so any difference between two sets is a behaviour change.
const EXACT_LAYER_COUNTS: [&str; 5] = [
    "core.ambiguous_share",
    "core.contrast_rows_mean",
    "core.train_rows_total",
    "core.noisy_total",
    "core.clean_total",
];

/// Timed runs per workload in a full set; the median one is kept.
const TIMED_REPEATS: usize = 3;

fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Where and on what the numbers were taken.
fn env_stamp(seed: u64, seconds: f64, smoke: bool) -> Json {
    let threads = WORKLOADS.iter().map(|w| (w.name, Json::Num(w.threads() as f64)));
    let serve = WORKLOADS.iter().find(|w| w.kind == Kind::Serve).expect("a serve workload");
    Json::obj([
        ("cpu_model", Json::str(procfs::cpu_model())),
        ("nproc", Json::Num(procfs::nproc() as f64)),
        ("rustc", Json::str(command_output("rustc", &["--version"]))),
        ("git_commit", Json::str(command_output("git", &["rev-parse", "HEAD"]))),
        ("deps", Json::str("perf/shims (numbers are relative to the shims, not to crates.io)")),
        ("seed", Json::Num(seed as f64)),
        ("run_seconds", Json::Num(seconds)),
        ("smoke", Json::Bool(smoke)),
        ("par_threads", Json::obj(threads)),
        ("serve_workers", Json::Num(serve_workers() as f64)),
        ("serve_rate_hz", Json::Num(serve.serve_rate_hz)),
    ])
}

/// Runs one workload once in a child process and returns its details.
fn child_run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out_dir: &Path,
) -> Result<Json, String> {
    let details = details_path(out_dir, w.name, trace);
    let _ = std::fs::remove_file(&details);
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(out_dir);
    if smoke {
        cmd.args(["--min-arrivals", "2", "--setup-reps", "1"]);
    }
    let status = cmd.status().map_err(|e| format!("spawn {}: {e}", w.name))?;
    if !status.success() {
        return Err(format!("{} (trace {}) exited with {status}", w.name, u8::from(trace)));
    }
    let text =
        std::fs::read_to_string(&details).map_err(|e| format!("{}: {e}", details.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", details.display()))
}

/// Full sets of runs, one per path. With more than one set the runs of
/// a workload alternate between the sets (A, B, A, B, …), so a slow
/// minute on the machine falls on both alike.
fn run_sets(cli: &Cli, paths: &[&Path]) -> Result<Vec<Json>, String> {
    let seed = cli.seed.unwrap_or(7);
    let out_dir = cli.out_dir.clone().unwrap_or_else(|| PathBuf::from("perf/out"));
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let chosen: Vec<&Workload> = match &cli.workload {
        Some(name) => {
            vec![crate::spec::workload(name).ok_or(format!("unknown workload `{name}`"))?]
        }
        None => WORKLOADS.iter().collect(),
    };
    let mut rows: Vec<Vec<Json>> = vec![Vec::new(); paths.len()];
    let mut all_correct = true;
    for w in chosen {
        // Smoke: closed loops stop after their minimum arrivals; the open
        // loop needs a few seconds to have a queue at all. To stay short,
        // each workload is run once: the cheapest one traced (which covers
        // the probes), the others timed.
        let seconds = match (cli.smoke, w.kind) {
            (false, _) => cli.seconds.unwrap_or(RUN_SECONDS),
            (true, Kind::Serve) => 5.0,
            (true, _) => 0.0,
        };
        let (timed_runs, want_traced) = match (cli.smoke, w.kind) {
            (false, _) => (TIMED_REPEATS, true),
            (true, Kind::Serve) => (0, true),
            (true, _) => (1, false),
        };
        let one = |trace: bool| child_run(w, seed, seconds, trace, cli.smoke, &out_dir);
        let mut timed: Vec<Vec<Json>> = vec![Vec::new(); paths.len()];
        for _ in 0..timed_runs {
            for runs in &mut timed {
                runs.push(one(false)?);
            }
        }
        let throughput = |run: &Json| metric_value(run, "samples_per_s").unwrap_or(0.0);
        for (mut runs, rows) in timed.into_iter().zip(&mut rows) {
            // The reference box drifts by 10–25 % for a minute at a time:
            // keep the median timed run (by throughput), list them all.
            runs.sort_by(|a, b| throughput(a).total_cmp(&throughput(b)));
            let all = Json::Arr(runs.iter().map(|r| Json::Num(throughput(r))).collect());
            let timed = if runs.is_empty() { Json::Null } else { runs.swap_remove(runs.len() / 2) };
            let traced = if want_traced { one(true)? } else { Json::Null };
            for run in [&timed, &traced] {
                all_correct &= run.get("correct").and_then(Json::as_bool).unwrap_or(true);
            }
            rows.push(Json::obj([
                ("name", Json::str(w.name)),
                ("timed_runs_samples_per_s", all),
                ("timed", timed),
                ("traced", traced),
            ]));
        }
    }
    let mut docs = Vec::new();
    for (rows, path) in rows.into_iter().zip(paths) {
        let doc = Json::obj([
            ("benchmark", Json::str("enld perf: BENCHMARK.json workloads, timed then traced")),
            ("env", env_stamp(seed, cli.seconds.unwrap_or(RUN_SECONDS), cli.smoke)),
            ("workloads", Json::Arr(rows)),
        ]);
        std::fs::write(path, doc.encode_pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("# wrote {}", path.display());
        docs.push(doc);
    }
    if all_correct {
        Ok(docs)
    } else {
        Err("a run reported incorrect outputs; see the notes in the result file".to_owned())
    }
}

pub fn run_suite(cli: &Cli) -> Result<ExitCode, String> {
    let out_dir = cli.out_dir.clone().unwrap_or_else(|| PathBuf::from("perf/out"));
    if cli.check {
        let (a, b) = (out_dir.join("check_a.json"), out_dir.join("check_b.json"));
        let docs = run_sets(cli, &[&a, &b])?;
        return report(compare(&docs[0], &docs[1])?);
    }
    let default = out_dir.join(if cli.smoke { "smoke.json" } else { "results.json" });
    run_sets(cli, &[cli.out.as_deref().unwrap_or(&default)])?;
    Ok(ExitCode::SUCCESS)
}

pub fn compare_files(a: &Path, b: &Path) -> Result<ExitCode, String> {
    let load = |p: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    report(compare(&load(a)?, &load(b)?)?)
}

fn report(violations: Vec<String>) -> Result<ExitCode, String> {
    if violations.is_empty() {
        println!("check: the two sets agree within every bound and exactly on every count");
        return Ok(ExitCode::SUCCESS);
    }
    for v in &violations {
        println!("check: {v}");
    }
    Ok(ExitCode::FAILURE)
}

fn metric_value(run: &Json, name: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Differences between two result sets that exceed what the benchmark
/// allows. `Err` when the sets may not be compared at all.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<String>, String> {
    for key in ["cpu_model", "nproc"] {
        let (ea, eb) =
            (a.get("env").and_then(|e| e.get(key)), b.get("env").and_then(|e| e.get(key)));
        if ea.is_none() || ea != eb {
            return Err(format!("refusing to compare: env.{key} differs ({ea:?} vs {eb:?})"));
        }
    }
    let rows = |doc: &Json| doc.get("workloads").and_then(Json::as_arr).map(<[Json]>::to_vec);
    let (rows_a, rows_b) = (
        rows(a).ok_or("first file has no workloads")?,
        rows(b).ok_or("second file has no workloads")?,
    );
    let mut out = Vec::new();
    for row_a in &rows_a {
        let name = row_a.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(row_b) =
            rows_b.iter().find(|r| r.get("name").and_then(Json::as_str) == Some(name))
        else {
            out.push(format!("{name}: missing from the second set"));
            continue;
        };
        let (Some(ta), Some(tb)) = (row_a.get("timed"), row_b.get("timed")) else { continue };
        if *ta == Json::Null || *tb == Json::Null {
            continue;
        }
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (metric_value(ta, m.name), metric_value(tb, m.name)) else {
                out.push(format!("{name}: {} missing", m.name));
                continue;
            };
            let base = va.abs().min(vb.abs());
            if base > 0.0 && (va - vb).abs() / base > m.bound {
                out.push(format!(
                    "{name}: {} differs by more than {:.0}% ({va} vs {vb} {})",
                    m.name,
                    m.bound * 100.0,
                    m.unit
                ));
            }
        }
        for key in ["verdict_hash", "f1_first", "failed"] {
            if ta.get(key) != tb.get(key) {
                out.push(format!("{name}: {key} differs ({:?} vs {:?})", ta.get(key), tb.get(key)));
            }
        }
        let (Some(la), Some(lb)) = (row_a.get("traced"), row_b.get("traced")) else { continue };
        if *la == Json::Null || *lb == Json::Null {
            continue;
        }
        for key in EXACT_LAYER_COUNTS {
            let (va, vb) = (metric_value(la, key), metric_value(lb, key));
            if va != vb {
                out.push(format!("{name}: count {key} differs ({va:?} vs {vb:?})"));
            }
        }
        if la.get("verdict_hash") != lb.get("verdict_hash") {
            out.push(format!("{name}: traced verdict_hash differs"));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(cpu: &str, process_s: f64, hash: &str, noisy: f64) -> Json {
        let metrics = Json::Obj(
            END_TO_END
                .iter()
                .map(|m| {
                    let v = if m.name == "process_ms_per_sample_p50" { process_s } else { 1.0 };
                    (m.name.to_owned(), Json::obj([("value", Json::Num(v))]))
                })
                .collect(),
        );
        let timed = Json::obj([
            ("metrics", metrics),
            ("verdict_hash", Json::str(hash)),
            ("f1_first", Json::Num(0.9)),
            ("failed", Json::Num(0.0)),
        ]);
        let layer =
            Json::obj(EXACT_LAYER_COUNTS.map(|k| (k, Json::obj([("value", Json::Num(noisy))]))));
        let traced = Json::obj([("metrics", layer), ("verdict_hash", Json::str(hash))]);
        Json::obj([
            ("env", Json::obj([("cpu_model", Json::str(cpu)), ("nproc", Json::Num(2.0))])),
            (
                "workloads",
                Json::Arr(vec![Json::obj([
                    ("name", Json::str("stream_cifar100_t1")),
                    ("timed", timed),
                    ("traced", traced),
                ])]),
            ),
        ])
    }

    #[test]
    fn equal_sets_agree_and_small_timing_noise_is_within_bounds() {
        let a = set("xeon", 1.00, "ab", 30.0);
        assert!(compare(&a, &a).unwrap().is_empty());
        assert!(compare(&a, &set("xeon", 1.10, "ab", 30.0)).unwrap().is_empty());
    }

    #[test]
    fn bound_hash_and_count_violations_are_reported() {
        let a = set("xeon", 1.00, "ab", 30.0);
        let slow = compare(&a, &set("xeon", 1.40, "ab", 30.0)).unwrap();
        assert_eq!(slow.len(), 1);
        assert!(slow[0].contains("process_ms_per_sample_p50"));
        let changed = compare(&a, &set("xeon", 1.00, "cd", 31.0)).unwrap();
        assert!(changed.iter().any(|v| v.contains("verdict_hash")));
        assert!(changed.iter().any(|v| v.contains("core.noisy_total")));
    }

    #[test]
    fn different_machines_are_not_compared() {
        let err =
            compare(&set("xeon", 1.0, "ab", 30.0), &set("epyc", 1.0, "ab", 30.0)).unwrap_err();
        assert!(err.contains("cpu_model"));
    }
}
