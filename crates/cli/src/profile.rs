//! `enld profile` — offline analysis of span JSONL traces.
//!
//! Reads the file written by `--trace-out`, rebuilds the span forest,
//! and reports where time went: a per-site self/total-time table, a
//! critical-path breakdown of the slowest (or a chosen) trace, and
//! optional exports — Chrome trace-event JSON for Perfetto /
//! `chrome://tracing`, and folded stacks for `flamegraph.pl`-style
//! tooling.

use std::fmt::Write as _;
use std::path::Path;

use enld_telemetry::chrome_trace;
use enld_telemetry::json::{parse_json, parse_jsonl_tolerant};
use enld_telemetry::profile::{aggregate_sites, critical_path, folded_stacks, slowest_trace};
use enld_telemetry::OwnedSpan;

/// What `enld profile` was asked to produce.
pub struct ProfileOptions {
    /// Rows in the hot-site table.
    pub top: usize,
    /// Analyse this trace id instead of the slowest one.
    pub trace: Option<u64>,
    /// Write Chrome trace-event JSON here.
    pub chrome: Option<std::path::PathBuf>,
    /// Write folded flamegraph stacks here.
    pub folded: Option<std::path::PathBuf>,
}

impl Default for ProfileOptions {
    fn default() -> Self {
        Self { top: 20, trace: None, chrome: None, folded: None }
    }
}

/// Loads every span record from a `--trace-out` JSONL file.
///
/// A malformed *final* line (torn by a crash mid-write) is dropped and
/// reported on stderr; malformed interior lines are hard errors.
///
/// # Errors
/// Reports the 1-based line number of the first bad interior line, or
/// an unreadable file.
pub fn load_spans(path: &Path) -> Result<Vec<OwnedSpan>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let (records, torn) =
        parse_jsonl_tolerant(&text, |line| parse_json(line).map(|v| OwnedSpan::from_json(&v)))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    if let Some(tail) = torn {
        eprintln!("warning: dropped torn final {tail}");
    }
    Ok(records.into_iter().flatten().collect())
}

fn ms(us: u64) -> f64 {
    us as f64 / 1000.0
}

/// The per-site table: top `n` span names by self-time.
pub fn render_site_table(spans: &[OwnedSpan], n: usize) -> String {
    let sites = aggregate_sites(spans);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<32} {:>8} {:>12} {:>12} {:>10}",
        "site", "count", "self(ms)", "total(ms)", "max(ms)"
    );
    for s in sites.iter().take(n) {
        let _ = writeln!(
            out,
            "{:<32} {:>8} {:>12.3} {:>12.3} {:>10.3}",
            s.name,
            s.count,
            ms(s.self_us),
            ms(s.total_us),
            ms(s.max_us)
        );
    }
    if sites.len() > n {
        let _ = writeln!(out, "… {} more site(s); raise --top to see them", sites.len() - n);
    }
    out
}

/// The critical-path table for `trace_id`. Contributions telescope, so
/// the footer's sum equals the root span's wall-clock.
pub fn render_critical_path(spans: &[OwnedSpan], trace_id: u64) -> String {
    let path = critical_path(spans, trace_id);
    let mut out = String::new();
    let Some(root) = path.first() else {
        let _ = writeln!(out, "trace {trace_id}: no root span found");
        return out;
    };
    let root_ms = ms(root.dur_us);
    let _ =
        writeln!(out, "critical path of trace {trace_id} (root {}, {:.3}ms):", root.name, root_ms);
    let _ = writeln!(
        out,
        "  {:<30} {:>5} {:>12} {:>16} {:>7}",
        "span", "tid", "dur(ms)", "contribution(ms)", "share"
    );
    let mut sum_us = 0u64;
    for step in &path {
        sum_us += step.contribution_us;
        let share = if root.dur_us == 0 {
            0.0
        } else {
            step.contribution_us as f64 / root.dur_us as f64 * 100.0
        };
        let _ = writeln!(
            out,
            "  {:<30} {:>5} {:>12.3} {:>16.3} {:>6.1}%",
            step.name,
            step.tid,
            ms(step.dur_us),
            ms(step.contribution_us),
            share
        );
    }
    let covered = if root.dur_us == 0 { 100.0 } else { sum_us as f64 / root.dur_us as f64 * 100.0 };
    let _ = writeln!(
        out,
        "  contributions sum to {:.3}ms ({covered:.1}% of root wall-clock)",
        ms(sum_us)
    );
    out
}

/// Runs the full `enld profile` report against `path`, printing to
/// stdout and writing any requested export files.
///
/// # Errors
/// Fails on unreadable/corrupt input or unwritable outputs.
pub fn run(path: &Path, opts: &ProfileOptions) -> Result<(), String> {
    let spans = load_spans(path)?;
    if spans.is_empty() {
        return Err(format!(
            "{}: no span records (record them with --trace-out FILE)",
            path.display()
        ));
    }
    let mut traces: Vec<u64> = spans.iter().filter(|s| s.id == s.trace).map(|s| s.trace).collect();
    traces.sort_unstable();
    traces.dedup();
    println!("{}: {} span(s), {} complete trace(s)\n", path.display(), spans.len(), traces.len());
    print!("{}", render_site_table(&spans, opts.top.max(1)));
    println!();

    let target = match opts.trace {
        Some(id) => {
            if !spans.iter().any(|s| s.trace == id) {
                return Err(format!("trace {id} not present in {}", path.display()));
            }
            Some(id)
        }
        None => slowest_trace(&spans),
    };
    match target {
        Some(id) => print!("{}", render_critical_path(&spans, id)),
        None => println!("no complete trace (root span missing); skipping critical path"),
    }

    if let Some(out) = &opts.chrome {
        std::fs::write(out, chrome_trace::render(&spans))
            .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
        println!(
            "chrome trace written to {} (load in Perfetto or chrome://tracing)",
            out.display()
        );
    }
    if let Some(out) = &opts.folded {
        std::fs::write(out, folded_stacks(&spans))
            .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
        println!("folded stacks written to {}", out.display());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_line(
        id: u64,
        parent: Option<u64>,
        trace: u64,
        tid: u64,
        start: u64,
        dur: u64,
    ) -> String {
        let parent = parent.map(|p| format!(",\"parent\":{p}")).unwrap_or_default();
        format!(
            "{{\"type\":\"span\",\"id\":{id},\"trace\":{trace},\"tid\":{tid},\"name\":\"s{id}\",\
             \"level\":\"debug\",\"start_us\":{start},\"dur_us\":{dur},\"depth\":0{parent},\
             \"fields\":{{\"k\":3,\"s\":\"v\"}}}}"
        )
    }

    #[test]
    fn spans_parse_and_non_span_lines_are_skipped() {
        let text = format!(
            "{}\n{{\"type\":\"event\",\"ts_us\":1,\"level\":\"info\",\"target\":\"t\",\
             \"message\":\"m\"}}\n{}\n",
            span_line(1, None, 1, 1, 0, 100),
            span_line(2, Some(1), 1, 2, 10, 50),
        );
        let dir = std::env::temp_dir().join(format!("enld-profile-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("trace.jsonl");
        std::fs::write(&path, text).expect("write");
        let spans = load_spans(&path).expect("load");
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(1));
        assert_eq!(spans[1].tid, 2);
        assert_eq!(spans[0].fields, vec![("k".into(), "3".into()), ("s".into(), "\"v\"".into())]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_file_without_spans_is_an_error_that_names_it() {
        let dir = std::env::temp_dir().join(format!("enld-profile-empty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("events.jsonl");
        let event = "{\"type\":\"event\",\"ts_us\":1,\"level\":\"info\",\"target\":\"t\",\
                     \"message\":\"m\"}";
        std::fs::write(&path, format!("{event}\n{event}\n")).expect("write");
        let err = run(&path, &ProfileOptions::default()).expect_err("no spans");
        assert_eq!(
            err,
            format!("{}: no span records (record them with --trace-out FILE)", path.display())
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_final_line_is_dropped_but_interior_corruption_fails() {
        let dir = std::env::temp_dir().join(format!("enld-profile-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let torn = dir.join("torn.jsonl");
        std::fs::write(&torn, format!("{}\n{{\"type\":\"spa", span_line(1, None, 1, 1, 0, 9)))
            .expect("write");
        assert_eq!(load_spans(&torn).expect("tolerant").len(), 1);
        let bad = dir.join("bad.jsonl");
        std::fs::write(&bad, format!("{{oops\n{}\n", span_line(1, None, 1, 1, 0, 9)))
            .expect("write");
        assert!(load_spans(&bad).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn critical_path_report_covers_the_root_wall_clock() {
        let spans = vec![
            OwnedSpan {
                id: 1,
                parent: None,
                trace: 1,
                tid: 1,
                name: "root".into(),
                start_us: 0,
                dur_us: 100,
                fields: vec![],
            },
            OwnedSpan {
                id: 2,
                parent: Some(1),
                trace: 1,
                tid: 2,
                name: "child".into(),
                start_us: 40,
                dur_us: 55,
                fields: vec![],
            },
        ];
        let report = render_critical_path(&spans, 1);
        assert!(report.contains("root"), "{report}");
        assert!(report.contains("child"), "{report}");
        assert!(report.contains("(100.0% of root wall-clock)"), "{report}");
    }

    #[test]
    fn site_table_lists_hot_sites_and_caps_rows() {
        let spans: Vec<OwnedSpan> = (0..5)
            .map(|i| OwnedSpan {
                id: i + 1,
                parent: None,
                trace: i + 1,
                tid: 1,
                name: format!("site{i}"),
                start_us: 0,
                dur_us: 10 * (i + 1),
                fields: vec![],
            })
            .collect();
        let table = render_site_table(&spans, 2);
        assert!(table.contains("site4"), "{table}");
        assert!(table.contains("3 more site(s)"), "{table}");
    }
}
