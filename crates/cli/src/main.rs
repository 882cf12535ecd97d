//! `enld` — command-line front end. See the crate docs for usage.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use enld_bench::experiments::{self, ExpContext};
use enld_bench::RunScale;
use enld_cli::explain::{explain, load_ledger};
use enld_cli::{
    audit, bench, detect_with_recovery, generate, load_lake, serve, write_json, DetectOverrides,
    ObsBridge, RecoveryOptions, ServeOptions, Verdict,
};
use enld_telemetry::json::JsonValue;
use enld_telemetry::{ObsServer, ObsStatus, TelemetryConfig};

const USAGE: &str = "\
usage:
  enld generate --preset <name> [--noise R] [--noise-model NAME] [--drift R]
                [--seed N] --out FILE
  enld bench    --grid FILE [--out DIR]
  enld repro    [EXPERIMENT...] [--quick|--exhaustive] [--seed N] [--out DIR]
  enld detect   --lake FILE [--out FILE] [--iterations N] [--k N] [--seed N] [--ledger FILE]
                [--index exact|hnsw] [--checkpoint FILE [--resume]]
                [--alert-rules FILE]
  enld serve    --lake FILE [--workers N] [--policy fifo|sjf]
                [--queue-limit N] [--out FILE] [--iterations N] [--k N] [--seed N]
                [--index exact|hnsw] [--obs-addr HOST:PORT]
                [--obs-linger SECS] [--ledger FILE] [--alert-rules FILE]
                [--healthz-strict]
  enld audit    --lake FILE [--arrival N]
  enld explain  --ledger FILE --sample N [--task N]
  enld monitor  --ledger FILE [--alert-rules FILE]
  enld profile  SPANS.jsonl [--chrome FILE] [--folded FILE] [--top N] [--trace ID]

every command also accepts:
  [--log-level quiet|error|warn|info|debug|trace] [--trace-out FILE] [--metrics-out FILE]
  [--metrics-interval SECS] [--threads N]

--threads N sets the data-parallel thread budget (default: ENLD_THREADS or all
cores; 1 = sequential). results are bit-identical for every thread count

--iterations N is the cap on t, Alg. 3's fine-grained iterations (default 5
for lakes of up to 30 classes, else 17): a task stops earlier once 4
consecutive iterations changed neither the clean set's size nor the
ambiguous count

the --obs-addr endpoint serves /metrics (Prometheus), /metrics.json, /healthz,
/workers and /alerts (alert-rule state); per-job spans go to --trace-out FILE,
which enld profile reads

detect and serve run a streaming monitor: drift metrics feed alert rules of
kind threshold, burn-rate, cusum or page-hinkley (built-in defaults, or
--alert-rules FILE: a JSON array of rule objects such as
[{\"name\":\"drift\",\"metric\":\"enld.drift.ambiguous_rate\",\"kind\":\"cusum\",\"h\":5}];
see DESIGN.md section 12). rules on sampled metrics such as process.open_fds
run only when a --metrics-out snapshot is written (every --metrics-interval
and at exit). firing alerts mark /healthz \"degraded\";
--healthz-strict turns that into HTTP 503. `enld monitor --ledger` re-derives
the alert state from a run's audit ledger offline

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
detectors: ENLD Default CL-1 CL-2 Topofilter

enld repro regenerates the paper's tables and figures (default: all) into
--out (default results/): fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12
fig13a fig13b fig14 table2 headline, the extensions ext-noise ext-queue, and
the groups all and ext. --quick shrinks every dataset and budget for a smoke
run; --exhaustive serves every arrival, as the paper does

enld profile reads a --trace-out span file and reports per-site self/total
time, the slowest trace's critical path, and optional Chrome-trace/folded
flamegraph exports

--index hnsw swaps the exact per-class scan for approximate HNSW graphs
(sub-millisecond batched queries; each selection round builds its graphs
over that round's high-quality candidates, and none is patched or persisted);
the default 'exact' regroups each class's rows per round and scans them, with
no build step

--checkpoint FILE persists detector state atomically between arrivals, so a
crash costs at most the arrival in flight; --resume restores it, skips the
arrivals already completed and re-runs the interrupted one from its start

ENLD_FAILPOINTS=\"site=action[@trigger];...\" arms deterministic fault injection
(testing only); see DESIGN.md section 10 for the failpoint catalogue

presets: emnist-sim cifar100-sim tiny-imagenet-sim test-sim";

/// Whether a flag takes the next token as its value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Takes {
    Value,
    Switch,
}
use Takes::{Switch, Value};

/// Every flag `enld` accepts: its name, whether it takes a value (a
/// switch takes none; its presence means "true"), and the commands that
/// accept it, where an empty list means every command. `Args::parse` and
/// `Args::validate` read nothing else, and the `cli` tests hold `USAGE`
/// and README to it.
const FLAGS: &[(&str, Takes, &[&str])] = &[
    ("log-level", Value, &[]),
    ("trace-out", Value, &[]),
    ("metrics-out", Value, &[]),
    ("metrics-interval", Value, &[]),
    ("threads", Value, &[]),
    ("preset", Value, &["generate"]),
    ("noise", Value, &["generate"]),
    ("noise-model", Value, &["generate"]),
    ("drift", Value, &["generate"]),
    ("seed", Value, &["generate", "repro", "detect", "serve"]),
    ("out", Value, &["generate", "bench", "repro", "detect", "serve"]),
    ("grid", Value, &["bench"]),
    ("quick", Switch, &["repro"]),
    ("exhaustive", Switch, &["repro"]),
    ("lake", Value, &["detect", "serve", "audit"]),
    ("iterations", Value, &["detect", "serve"]),
    ("k", Value, &["detect", "serve"]),
    ("index", Value, &["detect", "serve"]),
    ("ledger", Value, &["detect", "serve", "explain", "monitor"]),
    ("alert-rules", Value, &["detect", "serve", "monitor"]),
    ("checkpoint", Value, &["detect"]),
    ("resume", Switch, &["detect"]),
    ("workers", Value, &["serve"]),
    ("policy", Value, &["serve"]),
    ("queue-limit", Value, &["serve"]),
    ("obs-addr", Value, &["serve"]),
    ("obs-linger", Value, &["serve"]),
    ("healthz-strict", Switch, &["serve"]),
    ("arrival", Value, &["audit"]),
    ("sample", Value, &["explain"]),
    ("task", Value, &["explain"]),
    ("chrome", Value, &["profile"]),
    ("folded", Value, &["profile"]),
    ("top", Value, &["profile"]),
    ("trace", Value, &["profile"]),
];

/// Whether `command` is one the table knows (every command takes a flag
/// of its own).
fn is_command(command: &str) -> bool {
    FLAGS.iter().any(|(_, _, commands)| commands.contains(&command))
}

/// The flags `command` accepts, sorted.
fn accepted(command: &str) -> Vec<&'static str> {
    let mut names: Vec<&str> = FLAGS
        .iter()
        .filter(|(_, _, commands)| commands.is_empty() || commands.contains(&command))
        .map(|(name, _, _)| *name)
        .collect();
    names.sort_unstable();
    names
}

struct Args {
    flags: Vec<(String, String)>,
    /// Every token that is neither a `--flag` nor a flag's value.
    positionals: Vec<String>,
}

impl Args {
    fn parse(rest: &[String]) -> Result<Self, String> {
        let mut flags = Vec::new();
        let mut positionals = Vec::new();
        let mut it = rest.iter();
        while let Some(token) = it.next() {
            let Some(name) = token.strip_prefix("--") else {
                positionals.push(token.clone());
                continue;
            };
            if FLAGS.iter().any(|&(n, takes, _)| n == name && takes == Switch) {
                flags.push((name.to_owned(), "true".to_owned()));
                continue;
            }
            let value = it.next().ok_or_else(|| format!("--{name} requires a value"))?;
            flags.push((name.to_owned(), value.clone()));
        }
        Ok(Self { flags, positionals })
    }

    /// Rejects flags the command does not accept — a typo like
    /// `--iteration` must fail loudly instead of silently running with
    /// defaults — and positionals where the command takes none:
    /// `profile` takes one spans file, `repro` any number of ids.
    fn validate(&self, command: &str) -> Result<(), String> {
        let max_positionals = match command {
            "profile" => 1,
            "repro" => usize::MAX,
            _ => 0,
        };
        if self.positionals.len() > max_positionals {
            return Err(format!(
                "unexpected argument '{}' for '{command}'\n{USAGE}",
                self.positionals[max_positionals]
            ));
        }
        let accepted = accepted(command);
        if let Some((name, _)) = self.flags.iter().find(|(n, _)| !accepted.contains(&n.as_str())) {
            let list: Vec<String> = accepted.iter().map(|f| format!("--{f}")).collect();
            return Err(format!(
                "unknown flag --{name} for '{command}' (accepted: {})\n{USAGE}",
                list.join(" ")
            ));
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
            enld_telemetry::rules_from_json(&text).map_err(|e| format!("--alert-rules {path}: {e}"))
        }
        None => Ok(enld_telemetry::default_rules()),
    }
}

/// One line per verdict, with P/R/F1 when the lake carries ground truth.
fn print_verdicts(verdicts: &[Verdict]) {
    for v in verdicts {
        let head = format!(
            "arrival {}: {} noisy / {} clean in {:.2}s",
            v.arrival,
            v.noisy.len(),
            v.clean.len(),
            v.process_secs
        );
        match v.metrics {
            Some(m) => {
                println!("{head}  (P {:.3} R {:.3} F1 {:.3})", m.precision, m.recall, m.f1)
            }
            None => println!("{head}"),
        }
    }
}

/// Writes the verdicts to `--out FILE` when given.
fn write_verdicts(args: &Args, verdicts: &[Verdict]) -> Result<(), String> {
    if let Some(out) = args.get("out") {
        let doc = JsonValue::Array(verdicts.iter().map(Verdict::to_json).collect());
        write_json(&PathBuf::from(out), &doc).map_err(|e| e.to_string())?;
        println!("verdicts written to {out}");
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        return Err(USAGE.to_owned());
    };
    let args = Args::parse(rest)?;
    if is_command(command) {
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
    // drift metrics and the pool's sojourns feed the installed rules
    // (defaults or --alert-rules), evaluated per observation. Other
    // commands leave it unarmed.
    if command == "detect" || command == "serve" {
        enld_telemetry::monitor::global().install_rules(load_alert_rules(&args)?);
    }
    // Bind the observability endpoint before any heavy work so scrapers
    // can watch setup; /healthz reports "starting" until the pool exists.
    let obs_bridge = Arc::new(ObsBridge::new());
    let obs_server = match args.get("obs-addr") {
        Some(addr) if command == "serve" => {
            let status: Arc<dyn ObsStatus> = Arc::clone(&obs_bridge) as Arc<dyn ObsStatus>;
            let server = ObsServer::bind(
                addr,
                enld_telemetry::metrics::global(),
                status,
                enld_telemetry::monitor::global(),
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
            let file = generate(preset, noise, noise_model, drift, seed, &out)
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
        "repro" => {
            let scale = match (args.has("quick"), args.has("exhaustive")) {
                (true, true) => {
                    return Err("--quick and --exhaustive are mutually exclusive".into())
                }
                (true, false) => RunScale::quick(),
                (false, true) => RunScale::exhaustive(),
                (false, false) => RunScale::full(),
            };
            let seed: u64 = args.parse_num("seed")?.unwrap_or(7);
            let out_dir = PathBuf::from(args.get("out").unwrap_or("results"));
            let ids = if args.positionals.is_empty() {
                vec!["all".to_owned()]
            } else {
                args.positionals.clone()
            };
            let known = experiments::runnable_ids();
            if let Some(bad) = ids.iter().find(|id| !known.contains(&id.as_str())) {
                return Err(format!("unknown experiment '{bad}'; known: {}", known.join(" ")));
            }
            let ctx = ExpContext::new(scale, seed, out_dir);
            enld_telemetry::tinfo!(
                "repro",
                "scale: {} (seed {seed}, results → {})",
                if ctx.scale.full { "full (paper-shaped)" } else { "quick (smoke)" },
                ctx.out_dir.display()
            );
            ids.iter().try_for_each(|id| {
                experiments::run(id, &ctx).map_err(|e| format!("repro {id} failed: {e}"))
            })
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
            print_verdicts(&verdicts);
            write_verdicts(&args, &verdicts)
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
            print_verdicts(&summary.verdicts);
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
            write_verdicts(&args, &summary.verdicts)
        }
        "audit" => {
            let lake = PathBuf::from(args.get("lake").ok_or("--lake is required")?);
            let file = load_lake(&lake).map_err(|e| e.to_string())?;
            let arrival: usize = args.parse_num("arrival")?.unwrap_or(0);
            let rows = audit(&file, arrival).map_err(|e| e.to_string())?;
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
            // Re-derive alert state from a run's ledger.
            let ledger = PathBuf::from(args.get("ledger").ok_or("--ledger is required")?);
            let state = enld_cli::monitor::replay_alert_state(&ledger, load_alert_rules(&args)?)
                .map_err(|e| e.to_string())?;
            println!("{state}");
            Ok(())
        }
        "profile" => {
            let spans = args
                .positionals
                .first()
                .ok_or("a spans file is required: enld profile SPANS.jsonl")?;
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

#[cfg(test)]
mod tests {
    use super::*;

    fn args(tokens: &[&str]) -> Args {
        Args::parse(&tokens.iter().map(|t| (*t).to_owned()).collect::<Vec<_>>()).expect("parses")
    }

    #[test]
    fn monitor_rejects_the_live_console_flags() {
        for flag in ["--obs-addr", "--poll", "--count"] {
            let err = args(&[flag, "1"]).validate("monitor").unwrap_err();
            assert!(err.starts_with(&format!("unknown flag {flag} for 'monitor'")), "{err}");
        }
    }

    /// Every `--name` in `text`, in order: a lowercase name after a `--`
    /// that does not continue a word or a longer run of dashes.
    fn flags_named(text: &str) -> Vec<(&str, &str)> {
        let word = |c: char| c.is_ascii_alphanumeric() || c == '-';
        text.match_indices("--")
            .filter(|&(at, _)| !text[..at].ends_with(word))
            .filter_map(|(at, _)| {
                let rest = &text[at + 2..];
                let len = rest.find(|c: char| !word(c)).unwrap_or(rest.len());
                let name = rest[..len].trim_end_matches('-');
                name.starts_with(|c: char| c.is_ascii_lowercase()).then(|| (name, &rest[len..]))
            })
            .collect()
    }

    /// Each command's synopsis in `USAGE`, continuation lines joined, and
    /// the block of flags every command accepts.
    fn usage_synopses() -> (Vec<(&'static str, String)>, &'static str) {
        let (synopsis, rest) = USAGE.split_once("\n\n").expect("synopsis, then prose");
        let common = rest.strip_prefix("every command also accepts:\n").expect("common block");
        let common = common.split("\n\n").next().expect("common block");
        let mut commands: Vec<(&str, String)> = Vec::new();
        for line in synopsis.lines().skip(1) {
            match line.trim_start().strip_prefix("enld ") {
                Some(rest) => {
                    let command = rest.split_whitespace().next().expect("command name");
                    commands.push((command, line.to_owned()));
                }
                None => commands.last_mut().expect("a command line first").1.push_str(line),
            }
        }
        (commands, common)
    }

    /// The table's names and arities for `command`'s own flags (`""`: the
    /// flags every command accepts).
    fn table_flags(command: &str) -> Vec<(&'static str, Takes)> {
        let own = |cmds: &[&str]| {
            if command.is_empty() {
                cmds.is_empty()
            } else {
                cmds.contains(&command)
            }
        };
        let mut flags: Vec<_> =
            FLAGS.iter().filter(|(_, _, cmds)| own(cmds)).map(|&(n, t, _)| (n, t)).collect();
        flags.sort_unstable_by_key(|&(n, _)| n);
        flags
    }

    /// The flags a synopsis names, each with its arity: a value flag is
    /// followed by a space and its placeholder, a switch by `]` or `|`.
    fn synopsis_flags(synopsis: &str) -> Vec<(&str, Takes)> {
        let mut flags: Vec<_> = flags_named(synopsis)
            .into_iter()
            .map(|(n, after)| (n, if after.starts_with(' ') { Value } else { Switch }))
            .collect();
        flags.sort_unstable_by_key(|&(n, _)| n);
        flags.dedup();
        flags
    }

    #[test]
    fn usage_synopses_name_exactly_the_flags_of_the_table() {
        let (commands, common) = usage_synopses();
        assert_eq!(synopsis_flags(common), table_flags(""), "the every-command block");
        for (command, synopsis) in &commands {
            assert!(is_command(command), "USAGE has a synopsis for unknown '{command}'");
            assert_eq!(synopsis_flags(synopsis), table_flags(command), "the synopsis of {command}");
        }
        for &(_, _, cmds) in FLAGS {
            for command in cmds {
                assert!(commands.iter().any(|(c, _)| c == command), "no synopsis for {command}");
            }
        }
        for (name, _) in flags_named(USAGE) {
            assert!(
                FLAGS.iter().any(|f| f.0 == name),
                "USAGE names --{name}, which no command takes"
            );
        }
    }

    #[test]
    fn readme_names_every_flag_of_the_table_and_no_other() {
        // Flags README shows for cargo and for perf/run.sh, not for enld.
        const OTHER_TOOLS: &[&str] = &["release", "bin", "workspace", "smoke", "check"];
        let readme =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
                .expect("README.md");
        let named: Vec<&str> = flags_named(&readme).into_iter().map(|(n, _)| n).collect();
        for (name, _, _) in FLAGS {
            assert!(named.contains(name), "README never mentions --{name}");
        }
        for name in named {
            assert!(
                FLAGS.iter().any(|f| f.0 == name) || OTHER_TOOLS.contains(&name),
                "README names --{name}, which no enld command takes"
            );
        }
    }

    #[test]
    fn profile_takes_its_spans_file_only_as_a_positional() {
        assert!(args(&["spans.jsonl", "--top", "5"]).validate("profile").is_ok());
        let err = args(&["--spans", "spans.jsonl"]).validate("profile").unwrap_err();
        assert!(err.starts_with("unknown flag --spans for 'profile'"), "{err}");
    }

    #[test]
    fn audit_rejects_workers() {
        assert!(args(&["--lake", "l.json", "--arrival", "1"]).validate("audit").is_ok());
        let err = args(&["--lake", "l.json", "--workers", "2"]).validate("audit").unwrap_err();
        assert!(err.starts_with("unknown flag --workers for 'audit'"), "{err}");
    }
}
