//! The name catalogue in DESIGN §7 lists exactly the names the program
//! publishes, each with its kind: every metric registered with a literal
//! name (`counter`, `gauge`, `histogram`), every span (`info span`,
//! `debug span`, `trace span`), every series fed straight to the
//! streaming monitor (`observe`), and the metric of every built-in alert
//! rule (`rule`). The code side is read from the non-test part of
//! `crates/*/src`; a name built with `format!` is catalogued with `<i>`
//! for each placeholder. A name added or removed without its row, a kind
//! changed, or a row left behind fails here, and so does a name whose
//! only reader is a `/metrics` scrape.

use std::collections::BTreeSet;

use enld_integration::{crate_sources, design_table, leading_literal, non_test_code};

/// The call that publishes a name, and the kind the catalogue gives it.
/// A plain `span(` must not continue an identifier (`debug_span(` is its
/// own entry).
const CALLS: &[(&str, &str)] = &[
    (".counter(", "counter"),
    (".gauge(", "gauge"),
    (".histogram(", "histogram"),
    (".histogram_with(", "histogram"),
    ("span(", "info span"),
    ("debug_span(", "debug span"),
    ("trace_span(", "trace span"),
    (".observe(", "observe"),
];

/// The name an argument list opens with: a string literal, or the
/// literal of a `&format!(…)` with each `{…}` placeholder written `<i>`.
fn leading_name(args: &str) -> Option<String> {
    let args = args.trim_start();
    let literal = match args.strip_prefix("&format!(") {
        Some(inner) => leading_literal(inner)?,
        None => leading_literal(args)?,
    };
    let mut name = String::new();
    let mut parts = literal.split('{');
    name.push_str(parts.next()?);
    for part in parts {
        name.push_str("<i>");
        name.push_str(part.split_once('}')?.1);
    }
    Some(name)
}

/// Every (name, kind) the non-test code of one source file publishes.
fn names_in(src: &str) -> BTreeSet<(String, String)> {
    let code = non_test_code(src);
    let mut names = BTreeSet::new();
    for &(call, kind) in CALLS {
        for (at, _) in code.match_indices(call) {
            let continues_ident = code[..at].ends_with(|c: char| c.is_alphanumeric() || c == '_');
            if call == "span(" && continues_ident {
                continue;
            }
            if let Some(name) = leading_name(&code[at + call.len()..]) {
                names.insert((name, kind.to_owned()));
            }
        }
    }
    names
}

/// Every (name, kind) the program publishes, built-in rule metrics
/// included.
fn names_in_code() -> BTreeSet<(String, String)> {
    let mut names: BTreeSet<_> = crate_sources().iter().flat_map(|code| names_in(code)).collect();
    for rule in enld_telemetry::default_rules() {
        names.insert((rule.metric, "rule".to_owned()));
    }
    names
}

/// Every (name, kind) the DESIGN §7 catalogue lists: the name in the
/// first column, its kinds comma-separated in the second.
fn names_in_design() -> BTreeSet<(String, String)> {
    let mut names = BTreeSet::new();
    for row in design_table("Every name the program publishes") {
        let name = row[0].trim_matches('`').to_owned();
        for kind in row[1].split(',') {
            names.insert((name.clone(), kind.trim().trim_matches('`').to_owned()));
        }
    }
    names
}

#[test]
fn the_design_catalogue_lists_every_name_the_code_publishes() {
    let (code, design) = (names_in_code(), names_in_design());
    let has = |name: &str, kind: &str| code.contains(&(name.to_owned(), kind.to_owned()));
    assert!(has("enld.detect", "info span") && has("enld.detect.step", "trace span"));
    assert!(has("serve.worker.<i>.service_secs", "histogram"), "the scan found {code:?}");
    let missing: Vec<_> = code.difference(&design).collect();
    let stale: Vec<_> = design.difference(&code).collect();
    assert!(
        missing.is_empty() && stale.is_empty(),
        "DESIGN §7's catalogue lacks {missing:?} and lists names no code publishes: {stale:?}"
    );
}

#[test]
fn every_built_in_rule_watches_a_published_name() {
    let code = names_in_code();
    for rule in enld_telemetry::default_rules() {
        assert!(
            code.iter().any(|(name, kind)| *name == rule.metric && kind != "rule"),
            "rule {} watches {}, which nothing publishes",
            rule.name,
            rule.metric
        );
    }
}

#[test]
fn every_name_has_a_reader_besides_a_scrape() {
    let rows = design_table("Every name the program publishes");
    let scrape_only: Vec<&str> = rows
        .iter()
        .filter(|row| row[4].split(',').all(|reader| reader.trim().starts_with("`/metrics`")))
        .map(|row| row[0].as_str())
        .collect();
    assert!(scrape_only.is_empty(), "only `/metrics` reads {scrape_only:?}: remove them");
}

#[test]
fn the_rule_reader_accepts_exactly_the_observed_series() {
    let observed: BTreeSet<String> = names_in_code()
        .into_iter()
        .filter(|(_, kind)| kind == "observe")
        .map(|(name, _)| name)
        .collect();
    let accepted: BTreeSet<String> =
        enld_telemetry::alerts::OBSERVED_SERIES.iter().map(|s| s.to_string()).collect();
    assert_eq!(accepted, observed, "rules_from_json must accept exactly the fed series");
}

#[test]
fn calls_in_comments_tests_and_identifiers_do_not_count() {
    let src = r#"
fn live(id: usize) {
    let _s = telemetry::debug_span("a.phase").entered();
    registry.histogram(&format!("a.worker.{id}.secs")).record(1.0);
    monitor.observe("a.series", 1.0);
    let _t = current_span();
    // registry.counter("a.comment").inc();
}
#[cfg(test)]
mod tests {
    fn f() { registry.gauge("a.test").set(1.0); let _ = span("a.test_span"); }
}
"#;
    let want =
        [("a.phase", "debug span"), ("a.series", "observe"), ("a.worker.<i>.secs", "histogram")];
    assert_eq!(names_in(src), want.map(|(n, k)| (n.to_owned(), k.to_owned())).into());
}
