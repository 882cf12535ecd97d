//! `enld-perf` — the repository benchmark.
//!
//! Two ways in, both through `perf/run.sh`:
//!
//! * one run, as the driver calls it:
//!   `--workload W --seed N --seconds S --trace 0|1`. Prints one
//!   `name value unit n=…` line per metric and, as the last line of
//!   standard output, the result object.
//! * the suite (no `--trace`): every workload, a timed run then a traced
//!   run, each in its own process; writes a result file. `--smoke`
//!   shrinks it, `--check` runs it twice and compares, `--compare A B`
//!   compares two result files, `--print-spec` prints `BENCHMARK.json`.
//!
//! Every number is relative to the dependency shims under `perf/shims`.

mod decomp;
mod json;
mod probes;
mod procfs;
mod run;
mod schedule;
mod spec;
mod stats;
mod suite;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use run::{RunArgs, RunOutput};

/// `run_seconds` of `BENCHMARK.json`, the suite's default run length.
pub const RUN_SECONDS: f64 = 15.0;

#[derive(Debug, Default)]
pub struct Cli {
    pub workload: Option<String>,
    pub seed: Option<u64>,
    pub seconds: Option<f64>,
    pub trace: Option<bool>,
    pub min_arrivals: Option<usize>,
    pub setup_reps: Option<usize>,
    pub out_dir: Option<PathBuf>,
    pub smoke: bool,
    pub check: bool,
    pub compare: Option<(PathBuf, PathBuf)>,
    pub out: Option<PathBuf>,
    pub print_spec: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: `{v}` is not a valid number"))
        }
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => cli.seed = Some(num(flag, value()?)?),
            "--seconds" => cli.seconds = Some(num(flag, value()?)?),
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                });
            }
            "--min-arrivals" => cli.min_arrivals = Some(num(flag, value()?)?),
            "--setup-reps" => cli.setup_reps = Some(num(flag, value()?)?),
            "--out-dir" => cli.out_dir = Some(PathBuf::from(value()?)),
            "--out" => cli.out = Some(PathBuf::from(value()?)),
            "--smoke" => cli.smoke = true,
            "--check" => cli.check = true,
            "--print-spec" => cli.print_spec = true,
            "--compare" => {
                let a = PathBuf::from(value()?);
                cli.compare = Some((a, PathBuf::from(value()?)));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if cli.seconds.is_some_and(|s| !(0.0..=600.0).contains(&s)) {
        return Err("--seconds must be between 0 and 600".to_owned());
    }
    Ok(cli)
}

/// `{name: {value, unit[, n]}}` of a run's metrics.
fn metrics_json(out: &RunOutput, with_n: bool) -> Json {
    let one = |m: &run::Metric| {
        let mut body = vec![("value", Json::Num(m.value)), ("unit", Json::str(m.unit))];
        if with_n {
            body.push(("n", Json::Num(m.n as f64)));
        }
        (m.name, Json::obj(body))
    };
    Json::obj(out.metrics.iter().map(one))
}

/// The object the driver reads from the last line of standard output.
fn result_line(out: &RunOutput) -> Json {
    Json::obj([
        ("correct", Json::Bool(out.correct)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", metrics_json(out, false)),
    ])
}

/// Everything about the run the result line has no room for; the suite
/// collects these files.
fn details(args: &RunArgs, out: &RunOutput) -> Json {
    let arrival = |s: &run::Sample| {
        Json::obj([
            ("rows", Json::Num(s.rows as f64)),
            ("detect_s", Json::Num(s.wall_s)),
            ("sojourn_s", Json::Num(s.sojourn_s)),
            ("f1", Json::Num(s.f1)),
        ])
    };
    Json::obj([
        ("workload", Json::str(args.workload.name)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("threads", Json::Num(args.workload.threads() as f64)),
        ("correct", Json::Bool(out.correct)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("verdict_hash", Json::str(format!("{:016x}", out.verdict_hash))),
        ("f1_first", Json::Num(out.f1_first)),
        ("notes", Json::Arr(out.notes.iter().map(Json::str).collect())),
        ("arrivals", Json::Arr(out.samples.iter().map(arrival).collect())),
        ("metrics", metrics_json(out, true)),
    ])
}

pub fn details_path(out_dir: &std::path::Path, workload: &str, trace: bool) -> PathBuf {
    out_dir.join(format!("{workload}.trace{}.json", u8::from(trace)))
}

fn single_run(cli: &Cli) -> Result<ExitCode, String> {
    let name = cli.workload.as_deref().ok_or("--trace needs --workload")?;
    let workload = spec::workload(name).ok_or_else(|| {
        let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}`; the workloads are {}", known.join(", "))
    })?;
    let trace = cli.trace.expect("single_run is chosen by --trace");
    let mut args =
        RunArgs::new(workload, cli.seed.unwrap_or(7), cli.seconds.unwrap_or(RUN_SECONDS), trace);
    if let Some(n) = cli.min_arrivals {
        args.min_arrivals = n.max(1);
    }
    if let Some(n) = cli.setup_reps {
        args.setup_reps = n.max(1);
    }
    if let Some(dir) = &cli.out_dir {
        args.out_dir = dir.clone();
    }

    let out = run::run(&args);
    for note in &out.notes {
        eprintln!("# note: {note}");
    }
    println!(
        "# {} seed={} seconds={} trace={} threads={} nproc={} deps=perf/shims",
        workload.name,
        args.seed,
        args.seconds,
        u8::from(trace),
        workload.threads(),
        procfs::nproc()
    );
    println!(
        "# verdict_hash {:016x} over the first {} arrivals",
        out.verdict_hash, args.min_arrivals
    );
    for m in &out.metrics {
        println!("{} {} {} n={}", m.name, m.value, m.unit, m.n);
    }
    let path = details_path(&args.out_dir, workload.name, trace);
    std::fs::write(&path, details(&args, &out).encode_pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{}", result_line(&out).encode());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_cli(&args).and_then(|cli| {
        if cli.print_spec {
            print!("{}", spec::benchmark_json(RUN_SECONDS).encode_pretty());
            Ok(ExitCode::SUCCESS)
        } else if let Some((a, b)) = &cli.compare {
            suite::compare_files(a, b)
        } else if cli.trace.is_some() {
            single_run(&cli)
        } else {
            suite::run_suite(&cli)
        }
    });
    match outcome {
        Ok(code) => code,
        Err(why) => {
            eprintln!("enld-perf: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let cli = parse_cli(&argv("--workload serve_emnist_open --seed 11 --seconds 15 --trace 1"))
            .unwrap();
        assert_eq!(cli.workload.as_deref(), Some("serve_emnist_open"));
        assert_eq!(cli.seed, Some(11));
        assert_eq!(cli.seconds, Some(15.0));
        assert_eq!(cli.trace, Some(true));
        assert!(parse_cli(&argv("--trace 2")).is_err());
        assert!(parse_cli(&argv("--seed x")).is_err());
        assert!(parse_cli(&argv("--seed")).is_err());
        assert!(parse_cli(&argv("--bogus")).is_err());
        assert!(parse_cli(&argv("--seconds 1e9")).is_err());
        assert!(parse_cli(&argv("--smoke --check")).is_ok_and(|c| c.smoke && c.check));
    }

    #[test]
    fn result_line_has_exactly_the_keys_the_driver_reads() {
        let out = RunOutput {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: vec![run::Metric { name: "setup_s", value: 0.812_7, unit: "s", n: 3 }],
            verdict_hash: 1,
            f1_first: 0.9,
            samples: vec![],
            notes: vec![],
        };
        let line = result_line(&out).encode();
        assert!(!line.contains('\n'));
        let back = Json::parse(&line).unwrap();
        let keys: Vec<&str> = back.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = back.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        let keys: Vec<&str> = setup.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["value", "unit"]);
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.812_7));
    }
}
