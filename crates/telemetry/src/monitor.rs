//! The streaming monitor: glue between metric producers, the alert
//! engine, and the rest of the process.
//!
//! A process-wide [`Monitor`] lives at [`global()`], mirroring
//! [`crate::metrics::global`]. Producers feed it direct observations
//! ([`Monitor::observe`]) at their natural cadence: one drift record per
//! arrival or model update from the detector, one sojourn sample per
//! served job from the worker pool. These four series
//! ([`crate::alerts::OBSERVED_SERIES`]) are the only ones a rule can
//! watch; nothing samples the metrics registry into the engine, so alert
//! state is a function of the observation sequence alone.
//!
//! Rules are opt-in: until [`Monitor::install_rules`] runs, observations
//! are dropped and the alert engine never executes. Once armed, each
//! observation is folded into the engine as it arrives; those from
//! before the install are not. The CLI installs
//! [`crate::alerts::default_rules`] (or a `--alert-rules FILE` document)
//! for `detect`/`serve` runs before any detector work. The per-arrival
//! history lives in the audit ledger (`enld monitor --ledger` replays
//! it).
//!
//! Chaos failpoint: `monitor.alert_emit` (hit once per firing/resolved
//! transition, so a crash mid-emit can be injected and the ledger-replay
//! recovery path proven equivalent).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crate::alerts::{AlertEngine, AlertRule, AlertTransition};
use crate::json::JsonObject;
use crate::metrics;

/// How many recent firing/resolved edges `/alerts` keeps for display.
const RECENT_TRANSITIONS: usize = 64;

pub struct Monitor {
    start: Instant,
    engine: Mutex<AlertEngine>,
    /// The rules the engine was built from, kept so [`reset`] can
    /// rebuild a fresh engine (chaos tests simulate process restarts
    /// in-process).
    rules: Mutex<Vec<AlertRule>>,
    /// Fast path: skip the engine entirely while no rules are installed.
    armed: AtomicBool,
    recent: Mutex<VecDeque<AlertTransition>>,
}

/// Locks that shrug off poisoning: a chaos failpoint may panic while a
/// guard is held, and the monitor must stay usable afterwards (its state
/// is always internally consistent — transitions apply before emission).
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Monitor {
    pub fn new() -> Self {
        Self {
            start: Instant::now(),
            engine: Mutex::new(AlertEngine::new(Vec::new())),
            rules: Mutex::new(Vec::new()),
            armed: AtomicBool::new(false),
            recent: Mutex::new(VecDeque::new()),
        }
    }

    /// Installs (replacing) the alert rule set and arms evaluation.
    pub fn install_rules(&self, rules: Vec<AlertRule>) {
        *relock(&self.engine) = AlertEngine::new(rules.clone());
        *relock(&self.rules) = rules;
        relock(&self.recent).clear();
        self.armed.store(true, Ordering::Release);
        self.publish_firing();
    }

    /// True once [`Monitor::install_rules`] has run.
    pub fn armed(&self) -> bool {
        self.armed.load(Ordering::Acquire)
    }

    pub fn rule_count(&self) -> usize {
        relock(&self.engine).rule_count()
    }

    /// Rules currently firing.
    pub fn firing(&self) -> usize {
        relock(&self.engine).firing()
    }

    /// Seconds since this monitor was created.
    pub fn uptime_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Folds one event-driven observation into the alert engine at once
    /// when armed, and drops it otherwise — alert state is a function of
    /// the observation sequence, never of evaluation cadence.
    pub fn observe(&self, metric: &str, value: f64) {
        if !self.armed() {
            return;
        }
        let transitions = relock(&self.engine).observe(metric, value);
        self.emit(transitions);
    }

    fn emit(&self, transitions: Vec<AlertTransition>) {
        if transitions.is_empty() {
            return;
        }
        let g = metrics::global();
        for t in transitions {
            enld_chaos::fail_point("monitor.alert_emit");
            if t.firing {
                g.counter("enld.alerts.fired_total").inc();
                crate::twarn!(
                    "monitor",
                    "alert firing: {} ({} @ obs {} = {:.4})",
                    t.rule,
                    t.metric,
                    t.at_index,
                    t.value
                );
            } else {
                crate::tinfo!(
                    "monitor",
                    "alert resolved: {} ({} @ obs {})",
                    t.rule,
                    t.metric,
                    t.at_index
                );
            }
            let mut recent = relock(&self.recent);
            if recent.len() == RECENT_TRANSITIONS {
                recent.pop_front();
            }
            recent.push_back(t);
        }
        self.publish_firing();
    }

    fn publish_firing(&self) {
        metrics::global().gauge("enld.alerts.firing").set(self.firing() as f64);
    }

    /// The engine's deterministic state document (see
    /// [`AlertEngine::to_json`]) — what ledger replay must reproduce.
    pub fn engine_json(&self) -> String {
        relock(&self.engine).to_json()
    }

    /// `/alerts` payload: the engine state plus a bounded log of recent
    /// firing/resolved edges and the monitor uptime.
    pub fn alerts_json(&self) -> String {
        let engine = self.engine_json();
        let mut recent_json = String::from("[");
        for (i, t) in relock(&self.recent).iter().enumerate() {
            if i > 0 {
                recent_json.push(',');
            }
            let mut o = JsonObject::new();
            o.str_field("rule", &t.rule)
                .str_field("metric", &t.metric)
                .str_field("event", if t.firing { "firing" } else { "resolved" })
                .u64_field("at_index", t.at_index)
                .f64_field("value", t.value);
            recent_json.push_str(&o.finish());
        }
        recent_json.push(']');
        // Splice extra fields into the engine object (same trick as
        // `http::with_build_info`): the engine JSON is a flat object, so
        // dropping its closing brace and appending is safe.
        let body = engine.strip_suffix('}').unwrap_or(&engine);
        let mut extra = JsonObject::new();
        extra
            .bool_field("armed", self.armed())
            .f64_field("uptime_secs", self.uptime_secs())
            .raw_field("recent", &recent_json);
        let extra = extra.finish();
        format!("{body},{}", &extra[1..])
    }

    /// Drops every transition and all engine state, rebuilding the
    /// engine from the installed rules. Used by tests that simulate a
    /// process restart without actually restarting.
    pub fn reset(&self) {
        let rules = relock(&self.rules).clone();
        *relock(&self.engine) = AlertEngine::new(rules);
        relock(&self.recent).clear();
        self.publish_firing();
    }
}

impl Default for Monitor {
    fn default() -> Self {
        Self::new()
    }
}

/// The process-wide monitor.
pub fn global() -> &'static Monitor {
    static GLOBAL: OnceLock<Monitor> = OnceLock::new();
    GLOBAL.get_or_init(Monitor::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alerts::{Comparison, RuleKind};

    fn hot_rule() -> AlertRule {
        let kind = RuleKind::Threshold { op: Comparison::Gt, value: 1.0 };
        AlertRule { name: "hot".to_owned(), metric: "m".to_owned(), kind, hold: 2, resolve: 2 }
    }

    #[test]
    fn unarmed_monitor_never_fires() {
        let m = Monitor::new();
        for i in 0..5 {
            m.observe("m", 10.0 + i as f64);
        }
        assert!(!m.armed());
        assert_eq!(m.firing(), 0);
        assert!(m.alerts_json().contains("\"armed\":false"));
    }

    #[test]
    fn observe_drives_transitions_and_recent_log() {
        let m = Monitor::new();
        m.install_rules(vec![hot_rule()]);
        m.observe("m", 0.5);
        m.observe("m", 2.0);
        assert_eq!(m.firing(), 0, "hold-down: one breach is not enough");
        m.observe("m", 2.0);
        assert_eq!(m.firing(), 1);
        m.observe("m", 0.1);
        m.observe("m", 0.1);
        assert_eq!(m.firing(), 0);
        let json = m.alerts_json();
        assert!(json.contains("\"event\":\"firing\""), "{json}");
        assert!(json.contains("\"event\":\"resolved\""), "{json}");
        assert!(json.contains("\"armed\":true"), "{json}");
    }

    #[test]
    fn reset_rebuilds_a_clean_engine_with_the_same_rules() {
        let m = Monitor::new();
        m.install_rules(vec![hot_rule()]);
        m.observe("m", 2.0);
        m.observe("m", 2.0);
        assert_eq!(m.firing(), 1);
        m.reset();
        assert_eq!(m.firing(), 0);
        assert_eq!(m.rule_count(), 1, "rules survive reset");
        assert!(m.armed());
        m.observe("m", 2.0);
        m.observe("m", 2.0);
        assert_eq!(m.firing(), 1, "the rebuilt engine fires again");
    }
}
