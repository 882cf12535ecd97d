//! The failpoint table in DESIGN §10 names exactly the sites the code
//! hits: every `fail_point("…")` and `fail_point_io("…")` literal in the
//! non-test part of `crates/*/src`, plus `<site>.write` and
//! `<site>.rename` for each `write_atomic(…, "<site>")` call. A site added
//! or deleted without its row, or a row left behind, fails here.

use std::collections::BTreeSet;

use enld_integration::{crate_sources, design_table, item_end, leading_literal, non_test_code};

/// The failpoint sites the non-test code of one source file hits.
fn sites_in(src: &str) -> BTreeSet<String> {
    let code = non_test_code(src);
    let mut sites = BTreeSet::new();
    for call in ["fail_point(", "fail_point_io("] {
        for (at, _) in code.match_indices(call) {
            sites.extend(leading_literal(&code[at + call.len()..]).map(str::to_owned));
        }
    }
    for (at, call) in code.match_indices("write_atomic(") {
        let open = at + call.len() - 1;
        let args = &code[open + 1..item_end(code.as_bytes(), open, true) - 1];
        let last = args.rsplit(',').find(|arg| !arg.trim().is_empty());
        if let Some(site) = last.and_then(leading_literal) {
            sites.insert(format!("{site}.write"));
            sites.insert(format!("{site}.rename"));
        }
    }
    sites
}

/// Every failpoint site the non-test code of `crates/*/src` hits.
fn sites_in_code() -> BTreeSet<String> {
    crate_sources().iter().flat_map(|code| sites_in(code)).collect()
}

/// The sites the DESIGN §10 table names, one `/`-separated list per row.
fn sites_in_design() -> BTreeSet<String> {
    let rows = design_table("Sites cover every recovery boundary");
    let cells = rows.iter().filter_map(|row| row.first());
    cells.flat_map(|cell| cell.split('/').map(|s| s.trim().trim_matches('`').to_owned())).collect()
}

#[test]
fn the_design_failpoint_table_names_every_site_the_code_hits() {
    let (code, design) = (sites_in_code(), sites_in_design());
    assert!(code.contains("checkpoint.write"), "the scan found {code:?}");
    let missing: Vec<_> = code.difference(&design).collect();
    let stale: Vec<_> = design.difference(&code).collect();
    assert!(
        missing.is_empty() && stale.is_empty(),
        "DESIGN §10 lacks {missing:?} and lists sites no code hits: {stale:?}"
    );
}

#[test]
fn test_items_comments_and_literals_do_not_count() {
    let src = r##"
fn live() { enld_chaos::fail_point("a.live"); }
// enld_chaos::fail_point("a.comment");
#[cfg(test)]
mod tests {
    const BRACE: char = '{';
    fn f() { let _ = r#"}"#; enld_chaos::fail_point("a.test"); let _ = "}"; }
}
fn after<'a>(x: &'a str) { durable::write_atomic(&f(p), x.as_bytes(), "a.atomic")?; }
"##;
    let want = ["a.atomic.rename", "a.atomic.write", "a.live"];
    assert_eq!(sites_in(src), want.map(str::to_owned).into());
}
