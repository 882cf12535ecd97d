//! Deterministic fault injection for the ENLD workspace.
//!
//! A *failpoint* is a named site in production code — `fail_point("detector.step")`
//! — that normally does nothing. Tests (or an operator, via the
//! `ENLD_FAILPOINTS` environment variable) can *arm* a site with an
//! [`Action`] (panic, return an I/O error, or sleep) and a [`Trigger`]
//! policy deciding which hits fire (`nth-hit`, `every-k`, or
//! `seeded-prob(p, seed)`). Every policy is a pure function of the site's
//! hit counter, so a given arming fires at exactly the same hits on every
//! run — chaos tests are reproducible by construction.
//!
//! # Cost when unarmed
//!
//! The fast path is a single `Relaxed` atomic load of a global generation
//! counter: when no site is armed the counter is zero and [`fail_point`]
//! returns immediately, without touching the registry mutex. No macros, no
//! allocation, no dependency.
//!
//! # Configuration grammar
//!
//! `ENLD_FAILPOINTS` holds `;`-separated clauses:
//!
//! ```text
//! site=action[@trigger]
//! action  := panic | error | delay:MILLIS
//! trigger := nth:N | every:K | prob:P:SEED      (default every:1)
//! ```
//!
//! e.g. `ENLD_FAILPOINTS="detector.step=panic@nth:3;ledger.record=error@every:2"`.
//! Call [`init_from_env`] once at process start (the `enld` CLI does).

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// What an armed failpoint does when its trigger fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Panic with payload `"failpoint: <site>"`.
    Panic,
    /// Surface an `io::Error` from [`fail_point_io`] sites. At panic-only
    /// sites ([`fail_point`]) this degrades to a panic, so arming `error`
    /// somewhere that cannot return an error still injects a fault.
    Error,
    /// Sleep for the given duration, then continue normally.
    Delay(Duration),
}

/// Which hits of an armed site actually fire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Fire on exactly the n-th hit (1-based), never again.
    Nth(u64),
    /// Fire on every k-th hit (k ≥ 1): hits k, 2k, 3k, …
    EveryK(u64),
    /// Fire on each hit independently with probability `p`, decided by a
    /// deterministic hash of `(seed, hit_index)` — reproducible "random".
    SeededProb { p: f64, seed: u64 },
}

impl Trigger {
    fn fires(&self, hit: u64) -> bool {
        match *self {
            Trigger::Nth(n) => hit == n.max(1),
            Trigger::EveryK(k) => hit.is_multiple_of(k.max(1)),
            Trigger::SeededProb { p, seed } => {
                let threshold = (p.clamp(0.0, 1.0) * (u64::MAX as f64)) as u64;
                splitmix64(seed ^ hit.wrapping_mul(0x9E37_79B9_7F4A_7C15)) < threshold
            }
        }
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct FailpointState {
    action: Action,
    trigger: Trigger,
    hits: u64,
}

/// Number of armed sites. Zero ⇒ [`fail_point`] is a single relaxed load.
static ARMED: AtomicU64 = AtomicU64::new(0);

static REGISTRY: Mutex<Option<HashMap<String, FailpointState>>> = Mutex::new(None);

fn registry() -> MutexGuard<'static, Option<HashMap<String, FailpointState>>> {
    // A panic *while holding* this lock never happens (we decide under the
    // lock, drop it, then act), but recover from poisoning anyway so one
    // chaos test cannot wedge the rest of the process.
    match REGISTRY.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Arm `site` with an action and trigger, resetting its hit counter.
pub fn arm(site: &str, action: Action, trigger: Trigger) {
    let mut guard = registry();
    let map = guard.get_or_insert_with(HashMap::new);
    if map.insert(site.to_string(), FailpointState { action, trigger, hits: 0 }).is_none() {
        ARMED.fetch_add(1, Ordering::SeqCst);
    }
}

/// Disarm `site`. Hits at the site go back to costing one atomic load.
pub fn disarm(site: &str) {
    let mut guard = registry();
    if let Some(map) = guard.as_mut() {
        if map.remove(site).is_some() {
            ARMED.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Disarm every site.
pub fn disarm_all() {
    let mut guard = registry();
    if let Some(map) = guard.as_mut() {
        let n = map.len() as u64;
        map.clear();
        ARMED.fetch_sub(n, Ordering::SeqCst);
    }
}

/// How many times `site` has been hit since it was armed (0 if unarmed).
pub fn hits(site: &str) -> u64 {
    let guard = registry();
    guard.as_ref().and_then(|m| m.get(site)).map_or(0, |s| s.hits)
}

enum Fire {
    Nothing,
    Panic(String),
    Error(String),
    Delay(Duration),
}

fn evaluate(site: &str) -> Fire {
    // Decide under the lock, act after dropping it: panicking while holding
    // the registry mutex would poison it for every other thread.
    let mut guard = registry();
    let state = match guard.as_mut().and_then(|m| m.get_mut(site)) {
        Some(s) => s,
        None => return Fire::Nothing,
    };
    state.hits += 1;
    if !state.trigger.fires(state.hits) {
        return Fire::Nothing;
    }
    match state.action {
        Action::Panic => Fire::Panic(format!("failpoint: {site}")),
        Action::Error => Fire::Error(format!("failpoint: {site}")),
        Action::Delay(d) => Fire::Delay(d),
    }
}

/// Hit a failpoint that cannot surface an error. Unarmed cost: one relaxed
/// atomic load. `Action::Error` degrades to a panic here.
#[inline]
pub fn fail_point(site: &str) {
    if ARMED.load(Ordering::Relaxed) == 0 {
        return;
    }
    match evaluate(site) {
        Fire::Nothing => {}
        Fire::Panic(msg) | Fire::Error(msg) => panic!("{msg}"),
        Fire::Delay(d) => std::thread::sleep(d),
    }
}

/// Hit a failpoint on an I/O seam. `Action::Error` becomes an
/// `io::Error` of kind `Other` so callers exercise their error paths.
#[inline]
pub fn fail_point_io(site: &str) -> std::io::Result<()> {
    if ARMED.load(Ordering::Relaxed) == 0 {
        return Ok(());
    }
    match evaluate(site) {
        Fire::Nothing => Ok(()),
        Fire::Panic(msg) => panic!("{msg}"),
        Fire::Error(msg) => Err(std::io::Error::other(msg)),
        Fire::Delay(d) => {
            std::thread::sleep(d);
            Ok(())
        }
    }
}

/// Parse one `site=action[@trigger]` clause.
fn parse_clause(clause: &str) -> Result<(String, Action, Trigger), String> {
    let (site, rest) =
        clause.split_once('=').ok_or_else(|| format!("failpoint clause `{clause}` missing `=`"))?;
    let site = site.trim();
    if site.is_empty() {
        return Err(format!("failpoint clause `{clause}` has empty site name"));
    }
    let (action_s, trigger_s) = match rest.split_once('@') {
        Some((a, t)) => (a.trim(), Some(t.trim())),
        None => (rest.trim(), None),
    };
    let action = if action_s == "panic" {
        Action::Panic
    } else if action_s == "error" {
        Action::Error
    } else if let Some(ms) = action_s.strip_prefix("delay:") {
        let ms: u64 = ms.parse().map_err(|_| format!("bad delay millis `{ms}` in `{clause}`"))?;
        Action::Delay(Duration::from_millis(ms))
    } else {
        return Err(format!(
            "unknown action `{action_s}` in `{clause}` (want panic|error|delay:MS)"
        ));
    };
    let trigger = match trigger_s {
        None => Trigger::EveryK(1),
        Some(t) => {
            if let Some(n) = t.strip_prefix("nth:") {
                Trigger::Nth(n.parse().map_err(|_| format!("bad nth `{n}` in `{clause}`"))?)
            } else if let Some(k) = t.strip_prefix("every:") {
                Trigger::EveryK(k.parse().map_err(|_| format!("bad every `{k}` in `{clause}`"))?)
            } else if let Some(ps) = t.strip_prefix("prob:") {
                let (p, seed) = ps
                    .split_once(':')
                    .ok_or_else(|| format!("prob trigger `{t}` wants prob:P:SEED"))?;
                let p: f64 =
                    p.parse().map_err(|_| format!("bad probability `{p}` in `{clause}`"))?;
                let seed: u64 =
                    seed.parse().map_err(|_| format!("bad seed `{seed}` in `{clause}`"))?;
                Trigger::SeededProb { p, seed }
            } else {
                return Err(format!(
                    "unknown trigger `{t}` in `{clause}` (want nth:N|every:K|prob:P:SEED)"
                ));
            }
        }
    };
    Ok((site.to_string(), action, trigger))
}

/// Parse a full `ENLD_FAILPOINTS` specification and arm every clause.
pub fn arm_from_spec(spec: &str) -> Result<usize, String> {
    let mut armed = 0;
    for clause in spec.split(';') {
        let clause = clause.trim();
        if clause.is_empty() {
            continue;
        }
        let (site, action, trigger) = parse_clause(clause)?;
        arm(&site, action, trigger);
        armed += 1;
    }
    Ok(armed)
}

/// Read `ENLD_FAILPOINTS` and arm the configured sites. Returns how many
/// clauses were armed; an unset/empty variable arms nothing. Errors name
/// the offending clause so operators can fix typos fast.
pub fn init_from_env() -> Result<usize, String> {
    match std::env::var("ENLD_FAILPOINTS") {
        Ok(spec) => arm_from_spec(&spec),
        Err(_) => Ok(0),
    }
}

static SCENARIO: Mutex<()> = Mutex::new(());

/// Serialises chaos scenarios (the registry is process-global) and disarms
/// everything on drop, so a panicking test cannot leak armed sites into
/// its neighbours. Hold the guard for the scenario's whole lifetime.
pub struct Scenario {
    _guard: MutexGuard<'static, ()>,
}

impl Drop for Scenario {
    fn drop(&mut self) {
        disarm_all();
    }
}

/// Begin an exclusive chaos scenario. See [`Scenario`].
pub fn scenario() -> Scenario {
    let guard = match SCENARIO.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    disarm_all();
    Scenario { _guard: guard }
}

/// Begin an exclusive chaos scenario with `spec` pre-armed (same grammar
/// as `ENLD_FAILPOINTS`).
///
/// # Panics
/// Panics on a malformed spec — scenarios are test code, and a typo'd
/// clause silently arming nothing would make the test vacuous.
pub fn scenario_with(spec: &str) -> Scenario {
    let guard = scenario();
    arm_from_spec(spec).expect("malformed chaos scenario spec");
    guard
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_with_arms_the_spec_and_disarms_on_drop() {
        {
            let _s = scenario_with("tests.scen=error@every:1");
            assert!(fail_point_io("tests.scen").is_err());
        }
        assert!(fail_point_io("tests.scen").is_ok(), "drop must disarm the site");
    }

    #[test]
    fn unarmed_site_is_silent() {
        let _s = scenario();
        fail_point("tests.nothing");
        assert!(fail_point_io("tests.nothing").is_ok());
        assert_eq!(hits("tests.nothing"), 0);
    }

    #[test]
    fn nth_hit_fires_exactly_once() {
        let _s = scenario();
        arm("tests.nth", Action::Error, Trigger::Nth(3));
        assert!(fail_point_io("tests.nth").is_ok());
        assert!(fail_point_io("tests.nth").is_ok());
        assert!(fail_point_io("tests.nth").is_err());
        assert!(fail_point_io("tests.nth").is_ok());
        assert_eq!(hits("tests.nth"), 4);
    }

    #[test]
    fn every_k_fires_periodically() {
        let _s = scenario();
        arm("tests.every", Action::Error, Trigger::EveryK(2));
        let fired: Vec<bool> = (0..6).map(|_| fail_point_io("tests.every").is_err()).collect();
        assert_eq!(fired, [false, true, false, true, false, true]);
    }

    #[test]
    fn seeded_prob_is_reproducible_and_roughly_calibrated() {
        let trig = Trigger::SeededProb { p: 0.25, seed: 7 };
        let a: Vec<bool> = (1..=4000).map(|h| trig.fires(h)).collect();
        let b: Vec<bool> = (1..=4000).map(|h| trig.fires(h)).collect();
        assert_eq!(a, b, "same seed must fire at the same hits");
        let rate = a.iter().filter(|&&f| f).count() as f64 / a.len() as f64;
        assert!((rate - 0.25).abs() < 0.05, "rate {rate} far from 0.25");
        let other: Vec<bool> =
            (1..=4000).map(|h| Trigger::SeededProb { p: 0.25, seed: 8 }.fires(h)).collect();
        assert_ne!(a, other, "different seeds must differ");
    }

    #[test]
    fn prob_extremes() {
        assert!((1..=64).all(|h| Trigger::SeededProb { p: 1.0, seed: 1 }.fires(h)));
        assert!(!(1..=64).any(|h| Trigger::SeededProb { p: 0.0, seed: 1 }.fires(h)));
    }

    #[test]
    fn panic_carries_site_name_and_registry_survives() {
        let _s = scenario();
        arm("tests.panic", Action::Panic, Trigger::EveryK(1));
        let err = std::panic::catch_unwind(|| fail_point("tests.panic")).expect_err("must panic");
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert_eq!(msg, "failpoint: tests.panic");
        // Registry is not poisoned: we can keep arming and hitting.
        disarm("tests.panic");
        arm("tests.panic2", Action::Error, Trigger::EveryK(1));
        assert!(fail_point_io("tests.panic2").is_err());
    }

    #[test]
    fn error_degrades_to_panic_at_panic_only_sites() {
        let _s = scenario();
        arm("tests.degrade", Action::Error, Trigger::EveryK(1));
        assert!(std::panic::catch_unwind(|| fail_point("tests.degrade")).is_err());
    }

    #[test]
    fn delay_action_sleeps_then_continues() {
        let _s = scenario();
        arm("tests.delay", Action::Delay(Duration::from_millis(15)), Trigger::EveryK(1));
        let t0 = std::time::Instant::now();
        assert!(fail_point_io("tests.delay").is_ok());
        assert!(t0.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn spec_parsing_round_trip() {
        let _s = scenario();
        let n = arm_from_spec(
            "a.one=panic@nth:2; b.two=error@every:3 ;c.three=delay:5@prob:0.5:9;d.four=panic",
        )
        .expect("valid spec");
        assert_eq!(n, 4);
        assert!(fail_point_io("a.one").is_ok());
        assert!(std::panic::catch_unwind(|| fail_point("a.one")).is_err());
        for bad in [
            "nosite",
            "=panic",
            "x=explode",
            "x=delay:abc",
            "x=panic@nth:z",
            "x=panic@prob:0.5",
            "x=panic@sometimes",
        ] {
            assert!(arm_from_spec(bad).is_err(), "`{bad}` should be rejected");
        }
    }

    #[test]
    fn disarm_all_resets_fast_path() {
        let _s = scenario();
        arm("tests.a", Action::Panic, Trigger::EveryK(1));
        arm("tests.b", Action::Panic, Trigger::EveryK(1));
        disarm_all();
        assert_eq!(ARMED.load(Ordering::SeqCst), 0);
        fail_point("tests.a");
        fail_point("tests.b");
    }
}
