//! Streaming-monitor integration suite.
//!
//! Drives the real detector pipeline against the process-global
//! [`enld_telemetry::Monitor`] armed with the default alert rules: a run
//! with label drift injected mid-stream must trip the CUSUM drift rule
//! while a stationary control stays quiet, and — chaos parity — a run
//! crashed at the `monitor.alert_emit` failpoint and resumed from its
//! checkpoint must re-derive byte-identical alert state, both live (via
//! ledger priming) and from an offline ledger replay.
//!
//! Every test feeds the same process-global monitor, so they serialize
//! on a module lock (other test files are separate processes and never
//! arm it).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use enld_cli::monitor::{replay_alert_state, replay_engine};
use enld_core::checkpoint::Checkpoint;
use enld_core::config::EnldConfig;
use enld_core::detector::Enld;
use enld_core::ledger::{JsonlLedger, LedgerRecord, LedgerSink};
use enld_datagen::dataset::Dataset;
use enld_datagen::noise::TransitionMatrix;
use enld_datagen::presets::DatasetPreset;
use enld_lake::lake::{DataLake, LakeConfig};
use enld_telemetry::{default_rules, monitor};

/// Baseline label-noise rate of the lake.
const BASE_NOISE: f32 = 0.2;
/// Noise rate the drifted tail of the stream is re-corrupted to.
const DRIFT_NOISE: f32 = 0.6;

static MONITOR_LOCK: Mutex<()> = Mutex::new(());

/// The chaos test panics on purpose while holding the lock; later tests
/// must shrug off the poisoning.
fn monitor_lock() -> MutexGuard<'static, ()> {
    MONITOR_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn build_lake() -> DataLake {
    let preset = DatasetPreset::test_sim().scaled(0.5);
    DataLake::build(&LakeConfig { preset, noise_rate: BASE_NOISE, seed: 105 })
}

/// Drains every queued arrival. With `drift` set, the second half of the
/// stream is re-corrupted from ground truth at [`DRIFT_NOISE`] —
/// replacing, not compounding, the base noise — mirroring what
/// `enld generate --drift` does on disk.
fn drain(lake: &mut DataLake, drift: bool) -> Vec<Dataset> {
    let mut out = Vec::new();
    while let Some(req) = lake.next_request() {
        out.push(req.data);
    }
    if drift {
        let onset = out.len() / 2;
        let model = TransitionMatrix::symmetric(out[0].classes(), DRIFT_NOISE);
        for (i, arrival) in out.iter_mut().enumerate().skip(onset) {
            *arrival = model.corrupt(arrival, 105 ^ (0x9E37_79B9 + i as u64));
        }
    }
    out
}

/// Arms the global monitor with a pristine default-rule engine and no
/// claimed series — what a fresh `enld detect` process starts from.
fn fresh_monitor() -> &'static monitor::Monitor {
    let mon = monitor::global();
    mon.install_rules(default_rules());
    mon.reset();
    mon
}

/// The raw value of `field` in the named rule's object of an engine
/// JSON document (`"firing"` for a string, `4` for a number).
fn rule_field(json: &str, rule: &str, field: &str) -> String {
    let tag = format!("\"name\":\"{rule}\"");
    let at = json.find(&tag).unwrap_or_else(|| panic!("rule {rule} missing from {json}"));
    let rest = &json[at..];
    let key = format!("\"{field}\":");
    let s = rest.find(&key).unwrap_or_else(|| panic!("{field} missing from {rest}")) + key.len();
    rest[s..]
        .trim_start_matches('"')
        .chars()
        .take_while(|c| !matches!(c, '"' | ',' | '}'))
        .collect()
}

fn load_records(path: &Path) -> Vec<LedgerRecord> {
    std::fs::read_to_string(path)
        .expect("read ledger")
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| LedgerRecord::from_json(l).expect("well-formed ledger line"))
        .collect()
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("enld-monitoring-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

/// The headline acceptance check: injected mid-stream drift fires the
/// default `drift-ambiguous-rate` alert; the stationary control — same
/// lake, same rules, no drift — fires nothing at all.
#[test]
fn injected_drift_fires_the_default_alert_and_the_stationary_control_does_not() {
    let _guard = monitor_lock();
    let cfg = EnldConfig::fast_test();

    // Stationary control.
    let mut lake = build_lake();
    let arrivals = drain(&mut lake, false);
    assert!(arrivals.len() >= 4, "need a baseline and a post-onset tail, got {}", arrivals.len());
    let mon = fresh_monitor();
    let mut enld = Enld::init(lake.inventory(), &cfg);
    for arrival in &arrivals {
        let _ = enld.detect(arrival);
    }
    let control = mon.engine_json();
    let observed = rule_field(&control, "drift-ambiguous-rate", "observations");
    assert_eq!(observed, arrivals.len().to_string(), "one observation per arrival: {control}");
    assert_eq!(mon.firing(), 0, "stationary control fired: {control}");
    assert!(!control.contains("\"state\":\"firing\""), "{control}");

    // Same stream, drifted tail.
    let mut lake = build_lake();
    let arrivals = drain(&mut lake, true);
    let mon = fresh_monitor();
    let mut enld = Enld::init(lake.inventory(), &cfg);
    for arrival in &arrivals {
        let _ = enld.detect(arrival);
    }
    let drifted = mon.engine_json();
    let observed = rule_field(&drifted, "drift-ambiguous-rate", "observations");
    assert_eq!(observed, arrivals.len().to_string(), "one observation per arrival: {drifted}");
    assert_eq!(
        rule_field(&drifted, "drift-ambiguous-rate", "state"),
        "firing",
        "drift rule stayed quiet: {control} -> {drifted}"
    );
    assert!(mon.firing() >= 1);
    // The /alerts surfacing keeps the firing edge in its recent log.
    assert!(mon.alerts_json().contains("\"event\":\"firing\""));
}

/// The benchmark grid drives the same detector pipeline as production,
/// so a drifting grid cell must light up the same default alert rules: a
/// one-cell grid over the `drift` noise model (whose transition matrix
/// degrades along the arrival stream) fires, while the stationary
/// `pairwise` cell — same preset, same rate, same budget — stays quiet.
/// The drift also has to show up in the cell's own score as a higher
/// mean `enld.drift.p_staleness`.
#[test]
fn a_drifting_bench_cell_fires_the_default_rules_and_a_stationary_cell_does_not() {
    let _guard = monitor_lock();
    // The drift model *ramps* rather than stepping, and the default CUSUM
    // freezes its baseline on a 2-observation warmup — so the cell needs
    // a stream long enough for the ramp's tail to clear the frozen
    // baseline: emnist-sim's 10 near-uniform subsets give 8 arrivals,
    // i.e. 6 scored observations past the warmup.
    let grid = |model: &str| enld_bench::grid::GridConfig {
        seed: 31,
        noise_models: vec![model.to_owned()],
        rates: vec![0.25],
        presets: vec![enld_bench::grid::GridPreset { name: "emnist-sim".to_owned(), scale: 0.3 }],
        detectors: vec!["ENLD".to_owned()],
        iterations: 2,
        init_epochs: 12,
        max_arrivals: 8,
        downstream_epochs: 4,
    };
    let opts = enld_bench::grid::GridOptions::default();
    let staleness = |r: &enld_bench::grid::GridResults| {
        r.cells[0].p_staleness.expect("ENLD cells carry p_staleness")
    };

    // Stationary control cell.
    let mon = fresh_monitor();
    let stationary = enld_bench::grid::run_grid(&grid("pairwise"), &opts).expect("grid runs");
    assert_eq!(mon.firing(), 0, "stationary cell fired: {}", mon.engine_json());

    // Drifting cell: pair-asymmetric 0.25 decaying to random-asymmetric
    // 0.5 across the stream.
    let mon = fresh_monitor();
    let drifting = enld_bench::grid::run_grid(&grid("drift"), &opts).expect("grid runs");
    assert!(
        mon.firing() >= 1,
        "drifting cell left every default rule quiet: {}",
        mon.engine_json()
    );
    assert!(
        staleness(&drifting) > staleness(&stationary),
        "p_staleness must separate the drifting cell ({}) from the stationary one ({})",
        staleness(&drifting),
        staleness(&stationary)
    );
}

/// The zoo's `drift` noise model ramps the corruption along the stream
/// instead of stepping it, and on the 4-arrival seed-7 `test-sim` lake
/// that `enld generate` writes, the ramp leaves the default drift rule
/// without one breach at either base rate; the `--drift` flag's step at
/// the same base rate fires it. `scripts/monitor_smoke.sh` therefore
/// keeps `--drift`: this pins the quiet case, so a change that makes the
/// ramp fire shows here.
#[test]
fn the_zoo_drift_ramp_stays_quiet_where_the_drift_flag_fires() {
    let _guard = monitor_lock();
    let dir = tmp_dir("zoo-ramp");
    let drift_state = |name: &str, noise: f32, noise_model: Option<&str>, drift: Option<f32>| {
        let lake = dir.join(format!("{name}.json"));
        let ledger = dir.join(format!("{name}.jsonl"));
        let file = enld_cli::generate("test-sim", noise, noise_model, drift, 7, &lake)
            .expect("generate the lake");
        enld_cli::detect(&file, Default::default(), Some(&ledger)).expect("detect");
        let state = replay_alert_state(&ledger, default_rules()).expect("replay the ledger");
        let field = |f: &str| rule_field(&state, "drift-ambiguous-rate", f);
        (field("state"), field("breaches_total"))
    };
    for noise in [0.2, 0.3] {
        let quiet = drift_state(&format!("zoo-{noise}"), noise, Some("drift"), None);
        assert_eq!(quiet, ("ok".to_owned(), "0".to_owned()), "zoo drift at noise {noise}");
    }
    let (state, breaches) = drift_state("flag", 0.2, None, Some(0.6));
    assert_eq!(state, "firing", "--drift 0.6 must fire the drift rule ({breaches} breaches)");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Chaos parity: a run killed by the `monitor.alert_emit` failpoint and
/// resumed from its checkpoint must converge to the exact alert state of
/// the uninterrupted run — the resumed process's live monitor (primed
/// from the surviving ledger) and an offline replay of the final ledger
/// both re-derive it byte-for-byte.
#[test]
fn a_crash_at_alert_emit_rederives_identical_alert_state_from_the_ledger() {
    let _guard = monitor_lock();
    let _chaos = enld_chaos::scenario();
    let dir = tmp_dir("replay");
    let cfg = EnldConfig::fast_test();

    // Uninterrupted drifted run: live engine state + its ledger.
    let mut lake = build_lake();
    let arrivals = drain(&mut lake, true);
    let clean_path = dir.join("clean.jsonl");
    let mon = fresh_monitor();
    {
        let mut enld = Enld::init(lake.inventory(), &cfg);
        let sink = Arc::new(JsonlLedger::create(&clean_path).expect("create ledger"));
        enld.set_ledger(sink.clone(), "main");
        for arrival in &arrivals {
            let _ = enld.detect(arrival);
        }
        drop(enld);
        sink.flush();
    }
    let live = mon.engine_json();
    assert!(live.contains("\"state\":\"firing\""), "the drifted run must fire: {live}");
    let replayed = replay_engine(&load_records(&clean_path), default_rules()).to_json();
    assert_eq!(replayed, live, "offline replay of the clean ledger diverges from the live engine");

    // First life: the first firing transition panics mid-arrival.
    let crash_path = dir.join("crash.jsonl");
    let ckpt_path = dir.join("crash.ckpt");
    fresh_monitor();
    {
        let lake = build_lake();
        let mut enld = Enld::init(lake.inventory(), &cfg);
        enld.enable_checkpoints(&ckpt_path);
        let sink = Arc::new(JsonlLedger::create(&crash_path).expect("create ledger"));
        enld.set_ledger(sink.clone(), "main");
        enld_chaos::arm_from_spec("monitor.alert_emit=panic@nth:1").expect("valid failpoint spec");
        let crashed = catch_unwind(AssertUnwindSafe(|| {
            for arrival in &arrivals {
                let _ = enld.detect(arrival);
            }
        }));
        enld_chaos::disarm_all();
        assert!(crashed.is_err(), "the armed alert_emit failpoint must crash the run");
        sink.flush();
    }

    // Second life: fresh monitor (reset stands in for the process
    // restart), primed from the surviving ledger exactly like
    // `enld detect --resume` does, then the remaining arrivals.
    let mon = fresh_monitor();
    {
        let lake = build_lake();
        let ckpt = Checkpoint::load(&ckpt_path).expect("the crash left a checkpoint behind");
        let mut enld = Enld::resume_from(lake.inventory(), &cfg, &ckpt).expect("resume");
        enld.enable_checkpoints(&ckpt_path);
        let fed = enld_cli::monitor::prime_monitor_from_ledger(&crash_path).expect("prime");
        assert!(fed > 0, "tasks completed before the crash must prime the monitor");
        let sink = Arc::new(JsonlLedger::append(&crash_path).expect("append ledger"));
        enld.set_ledger(sink.clone(), "main");
        let done = enld.tasks_completed();
        assert!(done < arrivals.len(), "the crash was mid-stream");
        for arrival in arrivals.iter().skip(done) {
            let _ = enld.detect(arrival);
        }
        drop(enld);
        sink.flush();
    }
    assert_eq!(
        mon.engine_json(),
        live,
        "the resumed live monitor diverges from the uninterrupted run"
    );
    let replayed = replay_engine(&load_records(&crash_path), default_rules()).to_json();
    assert_eq!(replayed, live, "replay of the crashed-then-resumed ledger diverges");
    std::fs::remove_dir_all(&dir).ok();
}
