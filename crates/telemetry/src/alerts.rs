//! Alert rules over metric observations: thresholds, SLO error-budget
//! burn rate, and the CUSUM and Page–Hinkley change-point detectors,
//! folded one observation at a time with hold-down so flapping series do
//! not flap alerts.
//!
//! Rules are declarative ([`AlertRule`]) and load either from the
//! built-in [`DEFAULT_RULES`] or from a `--alert-rules FILE` JSON document
//! ([`rules_from_json`]). The engine ([`AlertEngine`]) folds each
//! `(metric, value)` observation into every rule watching that metric, so
//! its state — firing flags, streaks, fired counts, transition indices —
//! is a pure function of the per-metric observation sequences. Replaying
//! the same sequences into a fresh engine re-derives byte-identical alert
//! state; the chaos suite holds crash/resume recovery to exactly that bar.

use std::collections::VecDeque;

use crate::changepoint::{Cusum, PageHinkley};
use crate::json::{parse_json, JsonObject, JsonValue};

/// Comparison operator for threshold rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Comparison {
    Gt,
    Ge,
    Lt,
    Le,
}

impl Comparison {
    pub fn holds(self, value: f64, bound: f64) -> bool {
        match self {
            Self::Gt => value > bound,
            Self::Ge => value >= bound,
            Self::Lt => value < bound,
            Self::Le => value <= bound,
        }
    }
}

impl std::str::FromStr for Comparison {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "gt" => Ok(Self::Gt),
            "ge" => Ok(Self::Ge),
            "lt" => Ok(Self::Lt),
            "le" => Ok(Self::Le),
            other => Err(format!("unknown comparison '{other}' (gt|ge|lt|le)")),
        }
    }
}

/// What a rule computes per observation of its metric. The detector
/// kinds carry their own state.
#[derive(Debug, Clone, PartialEq)]
pub enum RuleKind {
    /// Breaches when the observation compares true against `value`.
    Threshold { op: Comparison, value: f64 },
    /// SLO error-budget burn rate: over the trailing `window`
    /// observations, the fraction exceeding `objective` is the bad
    /// fraction; breaches when it exceeds `budget` (burn rate > 1).
    BurnRate { objective: f64, budget: f64, window: usize },
    /// Breaches while the CUSUM detector is alarmed.
    Cusum(Cusum),
    /// Breaches while the Page–Hinkley detector is alarmed.
    PageHinkley(PageHinkley),
}

impl RuleKind {
    /// The `kind` of the rules file and of `/alerts`.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Self::Threshold { .. } => "threshold",
            Self::BurnRate { .. } => "burn-rate",
            Self::Cusum(_) => "cusum",
            Self::PageHinkley(_) => "page-hinkley",
        }
    }
}

/// One declarative alert rule.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    /// Unique display name (`drift-ambiguous-rate`).
    pub name: String,
    /// The metric the rule watches.
    pub metric: String,
    pub kind: RuleKind,
    /// Consecutive breaching observations required to fire.
    pub hold: usize,
    /// Consecutive clean observations required to resolve.
    pub resolve: usize,
}

/// The built-in rule set installed when no `--alert-rules FILE` is given,
/// written in that file's format with every parameter not named here at
/// its default:
///
/// * `drift-ambiguous-rate` — P̃ staleness: the share of an arrival the
///   general model finds ambiguous, under CUSUM. It is fed once per
///   arrival, so the 2-observation warm-up fits short runs; the 0.05
///   sigma floor keeps a flat prefix from hair-triggering.
/// * `drift-p-row-divergence` — conditional-probability movement across
///   Alg. 4 model updates, under Page–Hinkley.
/// * `serve-sojourn-slo` — at most 10% of the last 16 jobs may spend
///   more than 30 s queued and served.
pub const DEFAULT_RULES: &str = r#"[
  {"name": "drift-ambiguous-rate", "metric": "enld.drift.ambiguous_rate", "kind": "cusum"},
  {"name": "drift-p-row-divergence", "metric": "enld.drift.p_row_divergence",
   "kind": "page-hinkley"},
  {"name": "serve-sojourn-slo", "metric": "serve.job.sojourn_secs", "kind": "burn-rate",
   "objective": 30, "hold": 2, "resolve": 4}
]"#;

/// The series fed straight to the monitor
/// ([`crate::monitor::Monitor::observe`]): the only metrics a rule may
/// watch. Nothing samples the registry into the engine, so a rule on any
/// other name would never see an observation.
pub const OBSERVED_SERIES: [&str; 4] = [
    "enld.drift.ambiguous_rate",
    "enld.drift.p_staleness",
    "enld.drift.p_row_divergence",
    "serve.job.sojourn_secs",
];

/// [`DEFAULT_RULES`], read.
pub fn default_rules() -> Vec<AlertRule> {
    rules_from_json(DEFAULT_RULES).expect("the built-in rules are valid")
}

/// Keys every rule may carry, whatever its kind.
const COMMON_KEYS: [&str; 5] = ["name", "metric", "kind", "hold", "resolve"];

/// A range a number must fall in: how it reads, and the test.
type Range = (&'static str, fn(f64) -> bool);
const ANY: Range = ("", |_| true);
const POSITIVE: Range = (" > 0", |x| x > 0.0);
const NON_NEGATIVE: Range = (" >= 0", |x| x >= 0.0);

/// Reads an `--alert-rules FILE` document: a JSON array of rule objects.
///
/// ```text
/// [{"name": "drift", "metric": "enld.drift.ambiguous_rate", "kind": "cusum", "h": 5.0}]
/// ```
///
/// Every rule has `name`, `metric` (one of [`OBSERVED_SERIES`]) and
/// `kind`, and may set `hold`
/// (default 1) and `resolve` (default 3). Each kind adds its own keys:
///
/// * `threshold`: `op` (`gt`, `ge`, `lt` or `le`) and `value`;
/// * `burn-rate`: `objective`, `budget` (0.1) and `window` (16);
/// * `cusum`: `warmup` (2), `k` (0.5, ≥ 0), `h` (4.0, > 0) and
///   `min_sigma` (0.05, > 0);
/// * `page-hinkley`: `warmup` (2), `delta` (0.01, ≥ 0) and `lambda`
///   (0.25, > 0).
///
/// `warmup`, `window`, `hold` and `resolve` are positive integers; every
/// other number is finite.
///
/// # Errors
/// `malformed JSON: …` when the text does not parse; otherwise a message
/// naming the rule and the key at fault: missing, unknown to the kind, of
/// the wrong type, or out of range, or a metric that is not observed.
pub fn rules_from_json(text: &str) -> Result<Vec<AlertRule>, String> {
    let doc = parse_json(text).map_err(|e| format!("malformed JSON: {e}"))?;
    let items = doc.as_array().ok_or("expected a JSON array of rule objects")?;
    if items.is_empty() {
        return Err("the rule array is empty".to_owned());
    }
    items.iter().enumerate().map(|(i, item)| rule_from_json(i, item)).collect()
}

fn rule_from_json(i: usize, v: &JsonValue) -> Result<AlertRule, String> {
    let fields = v.as_object().ok_or_else(|| format!("rule {i}: expected an object"))?;
    let name = v
        .get("name")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("rule {i}, \"name\": must be a string"))?;
    let r = Fields { v, rule: name };
    let (kind, keys): (RuleKind, &[&str]) = match r.text("kind")? {
        "threshold" => {
            let op = r.text("op")?.parse().map_err(|e: String| r.fail("op", &e))?;
            (RuleKind::Threshold { op, value: r.num("value", None, ANY)? }, &["op", "value"])
        }
        "burn-rate" => (
            RuleKind::BurnRate {
                objective: r.num("objective", None, ANY)?,
                budget: r.num("budget", Some(0.1), ANY)?,
                window: r.count("window", 16)?,
            },
            &["objective", "budget", "window"],
        ),
        "cusum" => (
            RuleKind::Cusum(Cusum::new(
                r.count("warmup", 2)?,
                r.num("k", Some(0.5), NON_NEGATIVE)?,
                r.num("h", Some(4.0), POSITIVE)?,
                r.num("min_sigma", Some(0.05), POSITIVE)?,
            )),
            &["warmup", "k", "h", "min_sigma"],
        ),
        "page-hinkley" => (
            RuleKind::PageHinkley(PageHinkley::new(
                r.count("warmup", 2)?,
                r.num("delta", Some(0.01), NON_NEGATIVE)?,
                r.num("lambda", Some(0.25), POSITIVE)?,
            )),
            &["warmup", "delta", "lambda"],
        ),
        other => {
            let known = "threshold, burn-rate, cusum or page-hinkley";
            return Err(r.fail("kind", &format!("'{other}' is not one of {known}")));
        }
    };
    let known = |k: &str| COMMON_KEYS.contains(&k) || keys.contains(&k);
    if let Some((key, _)) = fields.iter().find(|(k, _)| !known(k)) {
        return Err(r.fail(key, &format!("is not a key of a {} rule", kind.kind_name())));
    }
    let metric = r.text("metric")?;
    if !OBSERVED_SERIES.contains(&metric) {
        let series = OBSERVED_SERIES.join(", ");
        return Err(r.fail("metric", &format!("'{metric}' is not an observed series ({series})")));
    }
    Ok(AlertRule {
        name: name.to_owned(),
        metric: metric.to_owned(),
        kind,
        hold: r.count("hold", 1)?,
        resolve: r.count("resolve", 3)?,
    })
}

/// The keys of one rule object, read with errors that name the rule.
struct Fields<'a> {
    v: &'a JsonValue,
    rule: &'a str,
}

impl<'a> Fields<'a> {
    fn fail(&self, key: &str, what: &str) -> String {
        format!("rule '{}', \"{key}\": {what}", self.rule)
    }

    fn text(&self, key: &str) -> Result<&'a str, String> {
        let v = self.v.get(key).ok_or_else(|| self.fail(key, "is missing"))?;
        v.as_str().ok_or_else(|| self.fail(key, "must be a string"))
    }

    /// A finite number in `range`; `default` when absent, if there is one.
    fn num(&self, key: &str, default: Option<f64>, (range, ok): Range) -> Result<f64, String> {
        let x = match (self.v.get(key), default) {
            (None, Some(default)) => return Ok(default),
            (None, None) => return Err(self.fail(key, "is missing")),
            (Some(v), _) => v.as_f64().ok_or_else(|| self.fail(key, "must be a number"))?,
        };
        if x.is_finite() && ok(x) {
            Ok(x)
        } else {
            Err(self.fail(key, &format!("must be a finite number{range}, got {x}")))
        }
    }

    fn count(&self, key: &str, default: usize) -> Result<usize, String> {
        let Some(v) = self.v.get(key) else { return Ok(default) };
        let n = v.as_int::<usize>().filter(|&n| n >= 1);
        n.ok_or_else(|| self.fail(key, "must be a positive integer"))
    }
}

/// Per-rule runtime state. Everything here is derived from the watched
/// observation sequence alone — no clocks — so replay is exact.
#[derive(Default)]
struct RuleState {
    /// Observations folded so far; the next one has this index.
    observations: u64,
    breach_streak: usize,
    ok_streak: usize,
    firing: bool,
    fired_total: u64,
    breaches_total: u64,
    /// Observation index of the most recent firing/resolved transition.
    since: u64,
    last_value: f64,
    /// Burn-rate rules: whether each of the trailing `window`
    /// observations exceeded the objective, oldest first.
    over_objective: VecDeque<bool>,
}

/// A firing or resolved edge produced by [`AlertEngine::observe`].
#[derive(Debug, Clone, PartialEq)]
pub struct AlertTransition {
    pub rule: String,
    pub metric: String,
    /// `true` = the rule started firing at `at_index`; `false` = resolved.
    pub firing: bool,
    /// Observation index (within the watched metric) of the transition.
    pub at_index: u64,
    /// The observation that caused the transition.
    pub value: f64,
}

/// Folds observations into a rule set, tracking firing/resolved state
/// with hold-down.
pub struct AlertEngine {
    rules: Vec<(AlertRule, RuleState)>,
}

impl AlertEngine {
    pub fn new(rules: Vec<AlertRule>) -> Self {
        Self { rules: rules.into_iter().map(|r| (r, RuleState::default())).collect() }
    }

    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Rules currently firing.
    pub fn firing(&self) -> usize {
        self.rules.iter().filter(|(_, s)| s.firing).count()
    }

    /// Folds one observation of `metric` into every rule watching it and
    /// returns the firing/resolved edges that produced. Non-finite values
    /// are ignored.
    pub fn observe(&mut self, metric: &str, x: f64) -> Vec<AlertTransition> {
        let mut transitions = Vec::new();
        if !x.is_finite() {
            return transitions;
        }
        for (rule, state) in self.rules.iter_mut().filter(|(r, _)| r.metric == metric) {
            let idx = state.observations;
            state.observations += 1;
            state.last_value = x;
            let breach = match &mut rule.kind {
                RuleKind::Threshold { op, value } => op.holds(x, *value),
                RuleKind::BurnRate { objective, budget, window } => {
                    let flags = &mut state.over_objective;
                    flags.push_back(x > *objective);
                    if flags.len() > (*window).max(1) {
                        flags.pop_front();
                    }
                    let bad = flags.iter().filter(|&&over| over).count() as f64;
                    bad / flags.len() as f64 > *budget
                }
                RuleKind::Cusum(det) => det.observe(x),
                RuleKind::PageHinkley(det) => det.observe(x),
            };
            if breach {
                state.breach_streak += 1;
                state.ok_streak = 0;
                state.breaches_total += 1;
            } else {
                state.ok_streak += 1;
                state.breach_streak = 0;
            }
            let firing = if !state.firing && state.breach_streak >= rule.hold.max(1) {
                state.fired_total += 1;
                true
            } else if state.firing && state.ok_streak >= rule.resolve.max(1) {
                // Re-baseline after a resolved incident: the series has
                // returned to (a possibly new) normal.
                match &mut rule.kind {
                    RuleKind::Cusum(det) => det.reset(),
                    RuleKind::PageHinkley(det) => det.reset(),
                    _ => {}
                }
                false
            } else {
                continue;
            };
            state.firing = firing;
            state.since = idx;
            transitions.push(AlertTransition {
                rule: rule.name.clone(),
                metric: rule.metric.clone(),
                firing,
                at_index: idx,
                value: x,
            });
        }
        transitions
    }

    /// `/alerts` payload: overall firing count plus per-rule state. All
    /// fields are observation-derived, so two engines fed the same
    /// sequences serialise identically.
    pub fn to_json(&self) -> String {
        let mut rules = String::from("[");
        for (i, (rule, state)) in self.rules.iter().enumerate() {
            if i > 0 {
                rules.push(',');
            }
            let mut o = JsonObject::new();
            o.str_field("name", &rule.name)
                .str_field("metric", &rule.metric)
                .str_field("kind", rule.kind.kind_name())
                .str_field("state", if state.firing { "firing" } else { "ok" })
                .u64_field("observations", state.observations)
                .u64_field("fired_total", state.fired_total)
                .u64_field("breaches_total", state.breaches_total)
                .u64_field("since_index", state.since);
            if state.observations > 0 {
                o.f64_field("last_value", state.last_value);
            }
            rules.push_str(&o.finish());
        }
        rules.push(']');
        let mut o = JsonObject::new();
        o.u64_field("firing", self.firing() as u64)
            .u64_field("rules", self.rules.len() as u64)
            .raw_field("alerts", &rules);
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Folds `values` of `metric` in order, returning every transition.
    fn feed(engine: &mut AlertEngine, metric: &str, values: &[f64]) -> Vec<AlertTransition> {
        values.iter().flat_map(|&v| engine.observe(metric, v)).collect()
    }

    fn threshold_rule(hold: usize, resolve: usize) -> AlertRule {
        AlertRule {
            name: "hot".to_owned(),
            metric: "m".to_owned(),
            kind: RuleKind::Threshold { op: Comparison::Gt, value: 1.0 },
            hold,
            resolve,
        }
    }

    #[test]
    fn threshold_fires_and_resolves_with_hold_down() {
        let mut engine = AlertEngine::new(vec![threshold_rule(2, 2)]);
        // One breach is not enough (hold = 2)...
        assert!(feed(&mut engine, "m", &[0.5, 2.0, 0.5]).is_empty());
        assert_eq!(engine.firing(), 0);
        // ...two consecutive breaches fire; two clean observations resolve.
        let t = feed(&mut engine, "m", &[2.0, 2.0]);
        assert_eq!(t.len(), 1);
        assert!(t[0].firing);
        assert_eq!(t[0].at_index, 4);
        assert_eq!(engine.firing(), 1);
        assert!(engine.observe("m", 0.5).is_empty(), "one clean obs must not resolve");
        let t = engine.observe("m", 0.5);
        assert_eq!(t.len(), 1);
        assert!(!t[0].firing);
        assert_eq!(engine.firing(), 0);
        // Other metrics and non-finite values are not observations of `m`.
        assert!(engine.observe("other", 5.0).is_empty());
        assert!(engine.observe("m", f64::NAN).is_empty());
        assert!(engine.to_json().contains("\"observations\":7"), "{}", engine.to_json());
    }

    #[test]
    fn flapping_series_does_not_flap_the_alert() {
        // Alternating breach/clean with hold 2 never fires.
        let values: Vec<f64> = (0..40).map(|i| if i % 2 == 0 { 2.0 } else { 0.5 }).collect();
        let mut engine = AlertEngine::new(vec![threshold_rule(2, 2)]);
        assert!(feed(&mut engine, "m", &values).is_empty());
    }

    #[test]
    fn burn_rate_tracks_the_error_budget() {
        let rule = AlertRule {
            name: "slo".to_owned(),
            metric: "sojourn".to_owned(),
            kind: RuleKind::BurnRate { objective: 1.0, budget: 0.25, window: 4 },
            hold: 1,
            resolve: 2,
        };
        let mut engine = AlertEngine::new(vec![rule]);
        // 2 of the last 4 over the objective: 50% bad > 25% budget.
        let t = feed(&mut engine, "sojourn", &[0.1, 0.2, 5.0, 0.2, 5.0]);
        assert_eq!(t.len(), 1);
        assert!(t[0].firing);
        assert_eq!(t[0].at_index, 2, "1 of 3 is already over budget");
        // Budget respected → resolves after `resolve` clean windows.
        let t = feed(&mut engine, "sojourn", &[0.1; 4]);
        assert_eq!(t.len(), 1);
        assert!(!t[0].firing);
    }

    #[test]
    fn changepoint_rule_fires_on_a_step() {
        let rule = AlertRule {
            name: "drift".to_owned(),
            metric: "rate".to_owned(),
            kind: RuleKind::Cusum(Cusum::new(2, 0.5, 4.0, 0.05)),
            hold: 1,
            resolve: 3,
        };
        let mut engine = AlertEngine::new(vec![rule]);
        let t = feed(&mut engine, "rate", &[0.2, 0.21, 0.2, 0.22, 0.55, 0.6]);
        assert_eq!(t.len(), 1, "{t:?}");
        assert!(t[0].firing);
        assert!(t[0].at_index >= 4);
        assert_eq!(engine.firing(), 1);
        let json = engine.to_json();
        assert!(json.contains("\"firing\":1"));
        assert!(json.contains("\"state\":\"firing\""));
        assert!(json.contains("\"kind\":\"cusum\""));
    }

    #[test]
    fn replaying_the_same_observations_rederives_identical_state() {
        let values: Vec<f64> =
            (0..30).map(|i| if i < 15 { 0.2 + 0.001 * i as f64 } else { 0.6 }).collect();
        let run = || {
            let mut engine = AlertEngine::new(default_rules());
            feed(&mut engine, "enld.drift.ambiguous_rate", &values);
            engine.to_json()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.contains("\"state\":\"firing\""));
    }

    #[test]
    fn missing_series_is_not_an_error() {
        let engine = AlertEngine::new(default_rules());
        assert_eq!(engine.firing(), 0);
        let json = engine.to_json();
        assert!(json.contains("\"observations\":0"));
        assert!(!json.contains("last_value"), "unseen rules must not fake a value");
    }

    fn rule(name: &str, metric: &str, kind: RuleKind, hold: usize, resolve: usize) -> AlertRule {
        AlertRule { name: name.to_owned(), metric: metric.to_owned(), kind, hold, resolve }
    }

    #[test]
    fn reader_applies_the_documented_defaults_to_every_kind() {
        let text = r#"[
            {"name": "t", "metric": "enld.drift.p_staleness", "kind": "threshold", "op": "le",
             "value": 2},
            {"name": "b", "metric": "enld.drift.p_staleness", "kind": "burn-rate",
             "objective": 0.5},
            {"name": "c", "metric": "enld.drift.p_staleness", "kind": "cusum"},
            {"name": "p", "metric": "enld.drift.p_staleness", "kind": "page-hinkley"}
        ]"#;
        let threshold = RuleKind::Threshold { op: Comparison::Le, value: 2.0 };
        let m = "enld.drift.p_staleness";
        assert_eq!(
            rules_from_json(text),
            Ok(vec![
                rule("t", m, threshold, 1, 3),
                rule("b", m, RuleKind::BurnRate { objective: 0.5, budget: 0.1, window: 16 }, 1, 3),
                rule("c", m, RuleKind::Cusum(Cusum::new(2, 0.5, 4.0, 0.05)), 1, 3),
                rule("p", m, RuleKind::PageHinkley(PageHinkley::new(2, 0.01, 0.25)), 1, 3),
            ])
        );
    }

    #[test]
    fn reader_takes_every_key_of_every_kind() {
        let text = r#"[
            {"name": "t", "metric": "enld.drift.ambiguous_rate", "kind": "threshold", "op": "ge",
             "value": -1.5, "hold": 4, "resolve": 5},
            {"name": "b", "metric": "serve.job.sojourn_secs", "kind": "burn-rate",
             "objective": 0.5, "budget": 0.05, "window": 32},
            {"name": "c", "metric": "enld.drift.p_staleness", "kind": "cusum", "warmup": 3,
             "k": 0.4, "h": 5.0, "min_sigma": 0.02},
            {"name": "p", "metric": "enld.drift.p_row_divergence", "kind": "page-hinkley",
             "warmup": 1, "delta": 0, "lambda": 0.3}
        ]"#;
        let threshold = RuleKind::Threshold { op: Comparison::Ge, value: -1.5 };
        assert_eq!(
            rules_from_json(text),
            Ok(vec![
                rule("t", "enld.drift.ambiguous_rate", threshold, 4, 5),
                rule(
                    "b",
                    "serve.job.sojourn_secs",
                    RuleKind::BurnRate { objective: 0.5, budget: 0.05, window: 32 },
                    1,
                    3
                ),
                rule(
                    "c",
                    "enld.drift.p_staleness",
                    RuleKind::Cusum(Cusum::new(3, 0.4, 5.0, 0.02)),
                    1,
                    3
                ),
                rule(
                    "p",
                    "enld.drift.p_row_divergence",
                    RuleKind::PageHinkley(PageHinkley::new(1, 0.0, 0.3)),
                    1,
                    3
                ),
            ])
        );
    }

    #[test]
    fn default_rules_keep_their_parameters() {
        let burn = RuleKind::BurnRate { objective: 30.0, budget: 0.1, window: 16 };
        assert_eq!(
            default_rules(),
            vec![
                rule(
                    "drift-ambiguous-rate",
                    "enld.drift.ambiguous_rate",
                    RuleKind::Cusum(Cusum::new(2, 0.5, 4.0, 0.05)),
                    1,
                    3
                ),
                rule(
                    "drift-p-row-divergence",
                    "enld.drift.p_row_divergence",
                    RuleKind::PageHinkley(PageHinkley::new(2, 0.01, 0.25)),
                    1,
                    3
                ),
                rule("serve-sojourn-slo", "serve.job.sojourn_secs", burn, 2, 4),
            ]
        );
    }

    /// The reader's error for one rule object, `{"name": "x", …}` plus `body`.
    fn rule_error(body: &str) -> String {
        let rule = format!(r#"[{{"name": "x", "metric": "enld.drift.ambiguous_rate", {body}}}]"#);
        rules_from_json(&rule).expect_err(body)
    }

    #[test]
    fn reader_rejects_malformed_documents() {
        // An old `[[rule]]` file is not JSON.
        let old = "[[rule]]\nname = \"a\"\nmetric = \"m\"\nkind = \"changepoint\"\n";
        assert!(rules_from_json(old).unwrap_err().starts_with("malformed JSON: "));
        assert!(rules_from_json("").unwrap_err().starts_with("malformed JSON: "));
        assert!(rules_from_json("{}").unwrap_err().contains("array"));
        assert!(rules_from_json("[]").unwrap_err().contains("empty"));
        assert!(rules_from_json("[3]").unwrap_err().contains("rule 0: expected an object"));
        assert!(rules_from_json(r#"[{"metric": "m"}]"#).unwrap_err().contains("\"name\""));
        // A rule's errors name the rule and the key.
        for (body, key, what) in [
            (r#""kind": "nope""#, "kind", "is not one of"),
            (r#""kind": 3"#, "kind", "must be a string"),
            (r#""kind": "threshold", "value": 1"#, "op", "is missing"),
            (r#""kind": "threshold", "op": "eq", "value": 1"#, "op", "unknown comparison"),
            (r#""kind": "threshold", "op": "gt""#, "value", "is missing"),
            (r#""kind": "burn-rate""#, "objective", "is missing"),
            (r#""kind": "cusum", "min-sigma": 0.1"#, "min-sigma", "is not a key of a cusum"),
            (r#""kind": "cusum", "value": 1"#, "value", "is not a key of a cusum"),
            (r#""kind": "cusum", "h": "4""#, "h", "must be a number"),
            (r#""kind": "cusum", "h": 1e999"#, "h", "must be a finite number > 0, got inf"),
            (r#""kind": "threshold", "op": "gt", "value": -1e999"#, "value", "finite"),
            (r#""kind": "burn-rate", "objective": 1, "window": 0"#, "window", "positive integer"),
            (r#""kind": "burn-rate", "objective": 1, "window": 2.5"#, "window", "positive"),
            (r#""kind": "cusum", "hold": 0"#, "hold", "must be a positive integer"),
            (r#""kind": "cusum", "resolve": -1"#, "resolve", "must be a positive integer"),
        ] {
            let err = rule_error(body);
            assert!(err.starts_with(&format!("rule 'x', \"{key}\": ")), "{body}: {err}");
            assert!(err.contains(what), "{body}: {err}");
        }
        let err = rules_from_json(r#"[{"name": "x", "kind": "cusum"}]"#).unwrap_err();
        assert_eq!(err, "rule 'x', \"metric\": is missing");
        // A sampled gauge is no observed series: no rule on it could fire.
        let depth = r#"[{"name": "x", "metric": "serve.queue.depth", "kind": "cusum"}]"#;
        let err = rules_from_json(depth).unwrap_err();
        assert!(err.starts_with("rule 'x', \"metric\": 'serve.queue.depth' is not"), "{err}");
        assert!(OBSERVED_SERIES.iter().all(|series| err.contains(series)), "{err}");
    }

    #[test]
    fn reader_rejects_what_the_detectors_would_assert_on() {
        // Each of these would fail a detector constructor's `assert!`;
        // the reader must stop it first with an `Err` naming its key.
        for (body, key) in [
            (r#""kind": "cusum", "h": 0"#, "h"),
            (r#""kind": "cusum", "h": -2"#, "h"),
            (r#""kind": "cusum", "min_sigma": 0"#, "min_sigma"),
            (r#""kind": "cusum", "k": -1"#, "k"),
            (r#""kind": "cusum", "warmup": 0"#, "warmup"),
            (r#""kind": "page-hinkley", "lambda": 0"#, "lambda"),
            (r#""kind": "page-hinkley", "delta": -0.5"#, "delta"),
            (r#""kind": "page-hinkley", "lambda": 1e400"#, "lambda"),
        ] {
            let err = rule_error(body);
            assert!(err.starts_with(&format!("rule 'x', \"{key}\": must be ")), "{body}: {err}");
        }
        // JSON has no NaN: the token and the word are both refused.
        let nan = r#"[{"name": "x", "metric": "enld.drift.p_staleness", "kind": "page-hinkley",
            "lambda": NaN}]"#;
        assert!(rules_from_json(nan).unwrap_err().starts_with("malformed JSON: "));
        let err = rule_error(r#""kind": "page-hinkley", "lambda": "nan""#);
        assert_eq!(err, "rule 'x', \"lambda\": must be a number");
    }
}
