//! `enld` — command-line front end. See the crate docs for usage.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use enld_cli::explain::{explain, load_ledger};
use enld_cli::{
    audit, bench, detect_with_recovery, generate_with_noise_model, load_lake, serve, write_json,
    DetectOverrides, ObsBridge, RecoveryOptions, ServeOptions,
};
use enld_telemetry::{ObsServer, ObsStatus, TelemetryConfig};

const USAGE: &str = "\
usage:
  enld generate --preset <name> [--noise R] [--noise-model NAME] [--drift R]
                [--seed N] --out FILE
  enld bench    --grid FILE [--out DIR]
  enld detect   --lake FILE [--out FILE] [--iterations N] [--k N] [--seed N] [--ledger FILE]
                [--index exact|hnsw] [--checkpoint FILE [--resume]]
                [--alert-rules FILE]
  enld serve    --lake FILE [--workers N] [--policy fifo|sjf|priority|edf]
                [--queue-limit N] [--out FILE] [--iterations N] [--k N] [--seed N]
                [--index exact|hnsw] [--obs-addr HOST:PORT]
                [--obs-linger SECS] [--ledger FILE] [--alert-rules FILE]
                [--healthz-strict]
  enld audit    --lake FILE [--arrival N] [--workers N]
  enld explain  --ledger FILE --sample N [--task N]
  enld monitor  --obs-addr HOST:PORT [--poll SECS] [--count N]
  enld monitor  --ledger FILE [--alert-rules FILE]
  enld profile  SPANS.jsonl [--chrome FILE] [--folded FILE] [--top N] [--trace ID]

every command also accepts:
  [--log-level quiet|error|warn|info|debug|trace] [--trace-out FILE] [--metrics-out FILE]
  [--metrics-interval SECS] [--threads N]

--threads N sets the data-parallel thread budget (default: ENLD_THREADS or all
cores; 1 = sequential). results are bit-identical for every thread count

the --obs-addr endpoint serves /metrics (Prometheus), /metrics.json, /healthz,
/workers, /traces (tail-sampled Chrome trace JSON of the slowest/error jobs),
/alerts (alert-rule state), and /timeseries (windowed metric rollups)

detect and serve run a streaming monitor: drift metrics feed windowed time
series and change-point/threshold/burn-rate alert rules (built-in defaults, or
--alert-rules FILE; see DESIGN.md section 12). firing alerts mark /healthz
\"degraded\"; --healthz-strict turns that into HTTP 503. `enld monitor` polls a
live endpoint and renders the state, or replays a --ledger offline

--drift R re-corrupts the second half of generated arrivals at rate R,
injecting the mid-stream label drift the alert rules are meant to catch

--noise-model NAME corrupts the generated lake with a model from the noise
zoo instead of the default pairwise flips; position-aware models (drift)
vary along the arrival stream. models: pairwise symmetric asymmetric
instance confusion longtail drift

enld bench sweeps noise model x rate x preset x detector from a JSON grid
file, scoring detection P/R/F1 and downstream accuracy-after-drop, and
writes bench-grid.json plus a markdown ranking table under --out (default
results/). results are bit-identical for every --threads setting.
ENLD_BENCH_DEGRADE=DETECTOR:FRACTION artificially degrades one detector
(regression-test knob). detectors: ENLD Default CL-1 CL-2 Topofilter

enld profile reads a --trace-out span file and reports per-site self/total
time, the slowest trace's critical path, and optional Chrome-trace/folded
flamegraph exports

--index hnsw swaps the exact per-class KD-trees for incremental HNSW graphs
(approximate, sub-millisecond batched queries, patched in place as datasets
arrive, persisted inside checkpoints); the default 'exact' rebuilds per round

--checkpoint FILE persists detector state atomically at iteration boundaries;
--resume restores it and continues, skipping arrivals already completed

ENLD_FAILPOINTS=\"site=action[@trigger];...\" arms deterministic fault injection
(testing only); see DESIGN.md section 10 for the failpoint catalogue

presets: emnist-sim cifar100-sim tiny-imagenet-sim test-sim";

/// Flags every command accepts (telemetry + thread-pool wiring).
const COMMON_FLAGS: &[&str] =
    &["log-level", "trace-out", "metrics-out", "metrics-interval", "threads"];

/// Per-command accepted flags; anything else is an error, not silence.
const COMMAND_FLAGS: &[(&str, &[&str])] = &[
    ("generate", &["preset", "noise", "noise-model", "drift", "seed", "out"]),
    ("bench", &["grid", "out"]),
    (
        "detect",
        &[
            "lake",
            "out",
            "iterations",
            "k",
            "seed",
            "index",
            "ledger",
            "checkpoint",
            "resume",
            "alert-rules",
        ],
    ),
    (
        "serve",
        &[
            "lake",
            "workers",
            "policy",
            "queue-limit",
            "out",
            "iterations",
            "k",
            "seed",
            "index",
            "obs-addr",
            "obs-linger",
            "ledger",
            "alert-rules",
            "healthz-strict",
        ],
    ),
    ("audit", &["lake", "arrival", "workers"]),
    ("explain", &["ledger", "sample", "task"]),
    ("monitor", &["obs-addr", "poll", "count", "ledger", "alert-rules"]),
    ("profile", &["spans", "chrome", "folded", "top", "trace"]),
];

/// Flags that take no value; their presence means "true".
const SWITCH_FLAGS: &[&str] = &["resume", "healthz-strict"];

struct Args {
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(rest: &[String]) -> Result<Self, String> {
        let mut flags = Vec::new();
        let mut it = rest.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, found '{flag}'"))?;
            if SWITCH_FLAGS.contains(&name) {
                flags.push((name.to_owned(), "true".to_owned()));
                continue;
            }
            let value = it.next().ok_or_else(|| format!("--{name} requires a value"))?;
            flags.push((name.to_owned(), value.clone()));
        }
        Ok(Self { flags })
    }

    /// Rejects flags the command does not accept — a typo like
    /// `--iteration` must fail loudly instead of silently running with
    /// defaults.
    fn validate(&self, command: &str) -> Result<(), String> {
        let accepted = COMMAND_FLAGS
            .iter()
            .find(|(c, _)| *c == command)
            .map(|(_, flags)| *flags)
            .unwrap_or(&[]);
        for (name, _) in &self.flags {
            if !accepted.contains(&name.as_str()) && !COMMON_FLAGS.contains(&name.as_str()) {
                let mut all: Vec<&str> = accepted.iter().chain(COMMON_FLAGS).copied().collect();
                all.sort_unstable();
                return Err(format!(
                    "unknown flag --{name} for '{command}' (accepted: {})\n{USAGE}",
                    all.iter().map(|f| format!("--{f}")).collect::<Vec<_>>().join(" ")
                ));
            }
        }
        Ok(())
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    fn parse_num<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.get(name) {
            None => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|_| format!("--{name}: invalid value '{v}'")),
        }
    }

    fn parse_index(&self) -> Result<Option<enld_knn::IndexBackend>, String> {
        match self.get("index") {
            None => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|e| format!("--index: {e}")),
        }
    }
}

/// The alert rule set for this invocation: `--alert-rules FILE` when
/// given, the built-in defaults otherwise.
fn load_alert_rules(args: &Args) -> Result<Vec<enld_telemetry::AlertRule>, String> {
    match args.get("alert-rules") {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("--alert-rules {path}: {e}"))?;
            enld_telemetry::parse_rules(&text).map_err(|e| format!("--alert-rules {path}: {e}"))
        }
        None => Ok(enld_telemetry::default_rules()),
    }
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        return Err(USAGE.to_owned());
    };
    // `profile` takes its spans file positionally (`enld profile t.jsonl`);
    // `--spans FILE` is accepted as an equivalent spelling.
    let (positional, rest) = match rest.split_first() {
        Some((first, more)) if command == "profile" && !first.starts_with("--") => {
            (Some(first.clone()), more)
        }
        _ => (None, rest),
    };
    let args = Args::parse(rest)?;
    if COMMAND_FLAGS.iter().any(|(c, _)| c == command) {
        args.validate(command)?;
    }
    // Arm deterministic fault injection before any detector work; an
    // unset ENLD_FAILPOINTS arms nothing and costs one env lookup.
    let armed = enld_chaos::init_from_env().map_err(|e| format!("ENLD_FAILPOINTS: {e}"))?;
    if armed > 0 {
        eprintln!("chaos: {armed} failpoint(s) armed from ENLD_FAILPOINTS");
    }
    // Fix the thread budget before any parallel work: it is read once,
    // on first use, and cannot be resized afterwards.
    if let Some(threads) = args.parse_num::<usize>("threads")? {
        enld_par::set_threads(threads).map_err(|e| format!("--threads: {e}"))?;
    }
    let telemetry_cfg = TelemetryConfig {
        log_level: match args.get("log-level") {
            None => enld_telemetry::Level::Info,
            Some(v) => v.parse().map_err(|_| {
                format!("--log-level: invalid value '{v}' (quiet|error|warn|info|debug|trace)")
            })?,
        },
        trace_out: args.get("trace-out").map(PathBuf::from),
        metrics_out: args.get("metrics-out").map(PathBuf::from),
        metrics_interval: args.parse_num("metrics-interval")?,
    };
    // The handle's Drop flushes sinks and writes the final snapshot on
    // *every* exit path, including usage errors below.
    let mut telemetry =
        telemetry_cfg.install().map_err(|e| format!("failed to open trace output: {e}"))?;
    // Arm the streaming monitor for pipeline commands: the detector's
    // drift metrics and the pool's sojourns feed its windows, and the
    // installed rules (defaults or --alert-rules) evaluate per
    // observation. Other commands leave it unarmed (windows only).
    if command == "detect" || command == "serve" {
        enld_telemetry::monitor::global().install_rules(load_alert_rules(&args)?);
    }
    // Bind the observability endpoint before any heavy work so scrapers
    // can watch setup; /healthz reports "starting" until the pool exists.
    let obs_bridge = Arc::new(ObsBridge::new());
    let obs_server = match args.get("obs-addr") {
        Some(addr) if command == "serve" => {
            let status: Arc<dyn ObsStatus> = Arc::clone(&obs_bridge) as Arc<dyn ObsStatus>;
            // Tail-sampling span buffer behind /traces: installed as a
            // sink so it sees every span, it retains the slowest and all
            // error traces of the run as Chrome trace-event JSON.
            let traces = Arc::new(enld_telemetry::TraceBuffer::new(32));
            enld_telemetry::install(Arc::clone(&traces) as Arc<dyn enld_telemetry::Sink>);
            let server = ObsServer::bind_full(
                addr,
                enld_telemetry::metrics::global(),
                status,
                Some(traces),
                Some(enld_telemetry::monitor::global()),
                args.has("healthz-strict"),
            )
            .map_err(|e| format!("--obs-addr {addr}: bind failed: {e}"))?;
            println!("observability endpoint listening on http://{}", server.local_addr());
            Some(server)
        }
        _ => None,
    };
    let result = match command.as_str() {
        "generate" => {
            let preset = args.get("preset").ok_or("--preset is required")?;
            let noise: f32 = args.parse_num("noise")?.unwrap_or(0.2);
            let noise_model = args.get("noise-model");
            let drift: Option<f32> = args.parse_num("drift")?;
            let seed: u64 = args.parse_num("seed")?.unwrap_or(7);
            let out = PathBuf::from(args.get("out").ok_or("--out is required")?);
            let file = generate_with_noise_model(preset, noise, noise_model, drift, seed, &out)
                .map_err(|e| e.to_string())?;
            println!(
                "wrote {}: {} inventory samples, {} arrivals, {} classes{}{}",
                out.display(),
                file.inventory.len(),
                file.arrivals.len(),
                file.inventory.classes(),
                match noise_model {
                    Some(m) => format!(", noise model {m}"),
                    None => String::new(),
                },
                match drift {
                    Some(d) =>
                        format!(", drift to noise {d} from arrival {}", file.arrivals.len() / 2),
                    None => String::new(),
                }
            );
            Ok(())
        }
        "bench" => {
            let grid = PathBuf::from(args.get("grid").ok_or("--grid is required")?);
            let out_dir = PathBuf::from(args.get("out").unwrap_or("results"));
            let summary = bench(&grid, &out_dir).map_err(|e| e.to_string())?;
            print!("{}", enld_bench::grid::render_ranking_markdown(&summary.results));
            println!("results written to {}", summary.json_path.display());
            println!("ranking written to {}", summary.markdown_path.display());
            Ok(())
        }
        "detect" => {
            let lake = PathBuf::from(args.get("lake").ok_or("--lake is required")?);
            let file = load_lake(&lake).map_err(|e| e.to_string())?;
            let overrides = DetectOverrides {
                iterations: args.parse_num("iterations")?,
                k: args.parse_num("k")?,
                seed: args.parse_num("seed")?,
                index: args.parse_index()?,
            };
            let ledger = args.get("ledger").map(PathBuf::from);
            let recovery = RecoveryOptions {
                checkpoint: args.get("checkpoint").map(PathBuf::from),
                resume: args.has("resume"),
            };
            if recovery.resume {
                println!("resuming from checkpoint (completed arrivals are skipped)");
            }
            let verdicts = detect_with_recovery(&file, overrides, ledger.as_deref(), recovery)
                .map_err(|e| e.to_string())?;
            if let Some(path) = &ledger {
                println!("audit ledger written to {}", path.display());
            }
            for v in &verdicts {
                match v.metrics {
                    Some(m) => println!(
                        "arrival {}: {} noisy / {} clean in {:.2}s  (P {:.3} R {:.3} F1 {:.3})",
                        v.arrival,
                        v.noisy.len(),
                        v.clean.len(),
                        v.process_secs,
                        m.precision,
                        m.recall,
                        m.f1
                    ),
                    None => println!(
                        "arrival {}: {} noisy / {} clean in {:.2}s",
                        v.arrival,
                        v.noisy.len(),
                        v.clean.len(),
                        v.process_secs
                    ),
                }
            }
            if let Some(out) = args.get("out") {
                write_json(&PathBuf::from(out), &verdicts).map_err(|e| e.to_string())?;
                println!("verdicts written to {out}");
            }
            Ok(())
        }
        "serve" => {
            let lake = PathBuf::from(args.get("lake").ok_or("--lake is required")?);
            let file = load_lake(&lake).map_err(|e| e.to_string())?;
            let opts = ServeOptions {
                workers: args.parse_num("workers")?.unwrap_or(4),
                policy: match args.get("policy") {
                    None => Default::default(),
                    Some(v) => v.parse().map_err(|e| format!("--policy: {e}"))?,
                },
                queue_limit: args.parse_num("queue-limit")?.unwrap_or(64),
                overrides: DetectOverrides {
                    iterations: args.parse_num("iterations")?,
                    k: args.parse_num("k")?,
                    seed: args.parse_num("seed")?,
                    index: args.parse_index()?,
                },
                obs: obs_server.is_some().then(|| Arc::clone(&obs_bridge)),
                ledger: args.get("ledger").map(PathBuf::from),
            };
            let summary = serve(&file, &opts).map_err(|e| e.to_string())?;
            if let Some(path) = &opts.ledger {
                println!("audit ledger written to {}", path.display());
            }
            for v in &summary.verdicts {
                match v.metrics {
                    Some(m) => println!(
                        "arrival {}: {} noisy / {} clean in {:.2}s  (P {:.3} R {:.3} F1 {:.3})",
                        v.arrival,
                        v.noisy.len(),
                        v.clean.len(),
                        v.process_secs,
                        m.precision,
                        m.recall,
                        m.f1
                    ),
                    None => println!(
                        "arrival {}: {} noisy / {} clean in {:.2}s",
                        v.arrival,
                        v.noisy.len(),
                        v.clean.len(),
                        v.process_secs
                    ),
                }
            }
            let jobs: Vec<String> = summary
                .per_worker_jobs
                .iter()
                .enumerate()
                .map(|(w, n)| format!("w{w}:{n}"))
                .collect();
            println!(
                "served {} arrivals with {} workers (policy {}, mean wait {:.3}s, jobs {})",
                summary.verdicts.len(),
                summary.workers,
                summary.policy,
                summary.mean_wait_secs,
                jobs.join(" ")
            );
            if let Some(out) = args.get("out") {
                write_json(&PathBuf::from(out), &summary.verdicts).map_err(|e| e.to_string())?;
                println!("verdicts written to {out}");
            }
            Ok(())
        }
        "audit" => {
            let lake = PathBuf::from(args.get("lake").ok_or("--lake is required")?);
            let file = load_lake(&lake).map_err(|e| e.to_string())?;
            let arrival: usize = args.parse_num("arrival")?.unwrap_or(0);
            let workers: usize = args.parse_num("workers")?.unwrap_or(1);
            let rows = audit(&file, arrival, workers).map_err(|e| e.to_string())?;
            println!("per-class audit of arrival {arrival} (observed label → flagged share):");
            for (class, flagged, total) in rows {
                let share = flagged as f64 / total as f64;
                let bar = "#".repeat((share * 30.0).round() as usize);
                println!(
                    "  class {class:>4}: {flagged:>4}/{total:<4} {:>5.1}% {bar}",
                    share * 100.0
                );
            }
            Ok(())
        }
        "explain" => {
            let ledger = PathBuf::from(args.get("ledger").ok_or("--ledger is required")?);
            let sample: usize = args.parse_num("sample")?.ok_or("--sample is required")?;
            let task: Option<usize> = args.parse_num("task")?;
            let records = load_ledger(&ledger).map_err(|e| e.to_string())?;
            let explanation = explain(&records, sample, task).map_err(|e| e.to_string())?;
            print!("{}", explanation.narrative);
            if !explanation.consistent() {
                Err(format!(
                    "ledger verdict '{}' disagrees with the vote trajectory (recomputed '{}') — \
                     the ledger is corrupt or was edited",
                    explanation.logged.as_str(),
                    explanation.recomputed.as_str()
                ))
            } else {
                Ok(())
            }
        }
        "monitor" => {
            if let Some(ledger) = args.get("ledger") {
                // Offline: re-derive alert state from a run's ledger.
                let state = enld_cli::monitor::replay_alert_state(
                    &PathBuf::from(ledger),
                    load_alert_rules(&args)?,
                )
                .map_err(|e| e.to_string())?;
                println!("{state}");
                Ok(())
            } else {
                let addr = args
                    .get("obs-addr")
                    .ok_or("--obs-addr (live) or --ledger (offline) is required")?;
                let opts = enld_cli::monitor::MonitorOptions {
                    addr: addr.to_owned(),
                    poll_secs: args.parse_num("poll")?.unwrap_or(2),
                    count: args.parse_num("count")?,
                };
                enld_cli::monitor::run_monitor(&opts)
            }
        }
        "profile" => {
            let spans = positional
                .or_else(|| args.get("spans").map(str::to_owned))
                .ok_or("a spans file is required: enld profile SPANS.jsonl (or --spans FILE)")?;
            let opts = enld_cli::profile::ProfileOptions {
                top: args.parse_num("top")?.unwrap_or(20),
                trace: args.parse_num("trace")?,
                chrome: args.get("chrome").map(PathBuf::from),
                folded: args.get("folded").map(PathBuf::from),
            };
            enld_cli::profile::run(&PathBuf::from(spans), &opts)
        }
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    };
    if let Some(server) = obs_server {
        // Keep the endpoint scrapable after the run (smoke tests and
        // one-shot dashboards read the final state).
        if let Some(linger) = args.parse_num::<u64>("obs-linger")? {
            if result.is_ok() {
                std::thread::sleep(std::time::Duration::from_secs(linger));
            }
        }
        server.shutdown();
    }
    // Flush sinks and write the final snapshot on success *and* failure;
    // a failed run's trace would otherwise end mid-record.
    let finished = telemetry.finish();
    if result.is_ok() {
        if let Some(path) =
            finished.map_err(|e| format!("failed to write metrics snapshot: {e}"))?
        {
            println!("metrics snapshot written to {}", path.display());
        }
    }
    result
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
