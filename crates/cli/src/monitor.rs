//! `enld monitor --ledger FILE` — offline re-derivation of alert state
//! from an audit ledger.
//!
//! Replays the drift records a run wrote into a fresh alert engine;
//! because engine state is a pure function of the per-series observation
//! sequences, the replayed state matches what the live `/alerts` endpoint
//! showed — including for a run that crashed and resumed, which is
//! exactly the property the chaos suite asserts.

use std::collections::HashMap;
use std::path::Path;

use enld_core::ledger::LedgerRecord;
use enld_telemetry::alerts::{AlertEngine, AlertRule};

use crate::explain::load_ledger;
use crate::CliError;

/// The two drift series a ledger can reconstruct (the other observed
/// series, `P̃` staleness and job sojourns, feed only the live monitor).
const AMBIGUOUS_SERIES: &str = "enld.drift.ambiguous_rate";
const DIVERGENCE_SERIES: &str = "enld.drift.p_row_divergence";

/// One deduped drift observation: `(detector tag, record id, value)`.
pub type DriftPoint = (String, usize, f64);

/// Extracts the drift observation sequences from ledger records:
/// per-task ambiguous rates and per-update P̃ row divergences, keyed by
/// `(detector tag, id)`.
///
/// A crashed-and-resumed run appends its re-served tasks after the
/// originals, so the same `(tag, id)` can appear twice; the series keeps
/// the key's first position with its last value, which is what the live
/// monitor of an uninterrupted run saw. Feeding order is the ledger's:
/// the order tasks finished, which is arrival order for one detector and
/// interleaves a worker pool's detectors as they ran.
pub fn drift_series_from_ledger(records: &[LedgerRecord]) -> (Vec<DriftPoint>, Vec<DriftPoint>) {
    let (mut tasks, mut updates) = (Vec::new(), Vec::new());
    let (mut task_at, mut update_at) = (HashMap::new(), HashMap::new());
    for record in records {
        let (series, at, point): (&mut Vec<DriftPoint>, &mut HashMap<_, usize>, _) = match record {
            LedgerRecord::Task(t) => {
                (&mut tasks, &mut task_at, (t.detector.clone(), t.task, t.ambiguous_rate))
            }
            LedgerRecord::Update(u) => {
                (&mut updates, &mut update_at, (u.detector.clone(), u.update, u.p_row_divergence))
            }
            LedgerRecord::Sample(_) => continue,
        };
        match *at.entry((point.0.clone(), point.1)).or_insert(series.len()) {
            i if i < series.len() => series[i].2 = point.2,
            _ => series.push(point),
        }
    }
    (tasks, updates)
}

/// Replays a ledger's drift records through a fresh alert engine and
/// returns it (inspect with [`AlertEngine::to_json`]).
pub fn replay_engine(records: &[LedgerRecord], rules: Vec<AlertRule>) -> AlertEngine {
    let (tasks, updates) = drift_series_from_ledger(records);
    let mut engine = AlertEngine::new(rules);
    for (_, _, v) in &tasks {
        engine.observe(AMBIGUOUS_SERIES, *v);
    }
    for (_, _, v) in &updates {
        engine.observe(DIVERGENCE_SERIES, *v);
    }
    engine
}

/// Offline `enld monitor --ledger`: alert state re-derived from a
/// ledger file.
///
/// # Errors
/// Fails when the ledger cannot be read or parsed.
pub fn replay_alert_state(ledger: &Path, rules: Vec<AlertRule>) -> Result<String, CliError> {
    let records = load_ledger(ledger)?;
    Ok(replay_engine(&records, rules).to_json())
}

/// Re-feeds a resumed run's ledger history into the process-global
/// monitor so its alert state picks up where the crashed
/// process left off. Returns the number of observations fed.
///
/// # Errors
/// Fails when the ledger exists but cannot be parsed.
pub fn prime_monitor_from_ledger(ledger: &Path) -> Result<usize, CliError> {
    if !ledger.exists() {
        return Ok(0);
    }
    let records = load_ledger(ledger)?;
    let (tasks, updates) = drift_series_from_ledger(&records);
    let monitor = enld_telemetry::monitor::global();
    for (_, _, v) in &tasks {
        monitor.observe(AMBIGUOUS_SERIES, *v);
    }
    for (_, _, v) in &updates {
        monitor.observe(DIVERGENCE_SERIES, *v);
    }
    Ok(tasks.len() + updates.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use enld_core::ledger::{TaskRecord, UpdateRecord};
    use enld_telemetry::alerts::default_rules;

    fn task(tag: &str, id: usize, rate: f64) -> LedgerRecord {
        LedgerRecord::Task(TaskRecord {
            detector: tag.to_owned(),
            task: id,
            samples: 10,
            eligible: 10,
            ambiguous_initial: (rate * 10.0) as usize,
            ambiguous_rate: rate,
            clean: 8,
            noisy: 2,
            iterations: 3,
            steps: 2,
            threshold: 2,
            trace_id: 0,
            span_id: 0,
        })
    }

    fn update(tag: &str, id: usize, div: f64) -> LedgerRecord {
        LedgerRecord::Update(UpdateRecord {
            detector: tag.to_owned(),
            update: id,
            clean_used: 8,
            p_row_divergence: div,
        })
    }

    #[test]
    fn dedup_keeps_the_last_record_per_task() {
        // Task 2 appears twice: once pre-crash, once after the resumed
        // run re-served it. Replay must see it exactly once, with the
        // re-served value.
        let records = vec![
            task("main", 1, 0.1),
            task("main", 2, 0.2),
            update("main", 1, 0.05),
            task("main", 2, 0.25),
            task("main", 3, 0.3),
        ];
        let (tasks, updates) = drift_series_from_ledger(&records);
        assert_eq!(
            tasks,
            vec![
                ("main".to_owned(), 1, 0.1),
                ("main".to_owned(), 2, 0.25),
                ("main".to_owned(), 3, 0.3),
            ]
        );
        assert_eq!(updates, vec![("main".to_owned(), 1, 0.05)]);
    }

    #[test]
    fn replay_is_invariant_to_duplicate_suffixes() {
        // A clean ledger vs the same ledger with a crashed/resumed tail
        // (task 3 logged twice) must re-derive identical engine state.
        let clean: Vec<LedgerRecord> =
            (1..=6).map(|i| task("main", i, if i <= 3 { 0.2 } else { 0.6 })).collect();
        let mut crashed = clean.clone();
        crashed.insert(3, task("main", 3, 0.2));
        let a = replay_engine(&clean, default_rules()).to_json();
        let b = replay_engine(&crashed, default_rules()).to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"state\":\"firing\""), "the 0.2→0.6 step must fire: {a}");
    }

    #[test]
    fn a_worker_pool_ledger_replays_in_the_order_its_tasks_finished() {
        // Two workers, each numbering its own tasks: keyed order would
        // feed w0's step before w1's baseline and miss the drift.
        let records = vec![
            task("w0", 1, 0.25),
            task("w1", 1, 0.25),
            task("w1", 2, 0.56),
            task("w0", 2, 0.67),
        ];
        let (tasks, _) = drift_series_from_ledger(&records);
        let rates: Vec<f64> = tasks.iter().map(|p| p.2).collect();
        assert_eq!(rates, [0.25, 0.25, 0.56, 0.67]);
        let engine = replay_engine(&records, default_rules());
        assert_eq!(engine.firing(), 1, "{}", engine.to_json());
    }

    #[test]
    fn stationary_ledger_replays_to_zero_alerts() {
        let records: Vec<LedgerRecord> =
            (1..=8).map(|i| task("main", i, 0.2 + 0.004 * (i % 3) as f64)).collect();
        let engine = replay_engine(&records, default_rules());
        assert_eq!(engine.firing(), 0, "{}", engine.to_json());
    }
}
