//! The failpoint table in DESIGN §10 names exactly the sites the code
//! hits: every `fail_point("…")` and `fail_point_io("…")` literal in the
//! non-test part of `crates/*/src`, plus `<site>.write` and
//! `<site>.rename` for each `write_atomic(…, "<site>")` call. A site added
//! or deleted without its row, or a row left behind, fails here.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/..");

/// Byte length of the comment, string literal or char literal starting
/// at `i`, or 0 when none starts there. Lifetimes are not literals.
fn opaque_len(b: &[u8], i: usize) -> usize {
    let ident = |j: usize| b[j].is_ascii_alphanumeric() || b[j] == b'_';
    let find = |from: usize, pat: &[u8]| (from..b.len()).find(|&j| b[j..].starts_with(pat));
    let close = |from: usize, end: &[u8]| find(from, end).map_or(b.len(), |j| j + end.len());
    match b[i] {
        b'/' if b.get(i + 1) == Some(&b'/') => find(i, b"\n").unwrap_or(b.len()) - i,
        b'/' if b.get(i + 1) == Some(&b'*') => close(i + 2, b"*/") - i,
        b'"' => {
            let mut j = i + 1;
            while j < b.len() && b[j] != b'"' {
                j += if b[j] == b'\\' { 2 } else { 1 };
            }
            j + 1 - i
        }
        b'r' if i == 0 || !ident(i - 1) || b[i - 1] == b'b' => {
            let hashes = b[i + 1..].iter().take_while(|&&c| c == b'#').count();
            if b.get(i + 1 + hashes) != Some(&b'"') {
                return 0;
            }
            let end: Vec<u8> = std::iter::once(b'"').chain(vec![b'#'; hashes]).collect();
            close(i + 2 + hashes, &end) - i
        }
        b'\'' if b.get(i + 1) == Some(&b'\\') => close(i + 3, b"'") - i,
        b'\'' => {
            let width = match b.get(i + 1) {
                Some(0xF0..) => 4,
                Some(0xE0..) => 3,
                Some(0xC0..) => 2,
                _ => 1,
            };
            if b.get(i + 1 + width) == Some(&b'\'') {
                width + 2
            } else {
                0
            }
        }
        _ => 0,
    }
}

/// End of the item that starts at `i`: past its `;` at depth 0, or past
/// the `}` that closes its body. With `call`, past the `)` that closes
/// the call whose `(` is at `i`.
fn item_end(b: &[u8], mut i: usize, call: bool) -> usize {
    let mut depth = 0usize;
    while i < b.len() {
        let n = opaque_len(b, i);
        if n > 0 {
            i += n;
            continue;
        }
        match b[i] {
            b'{' | b'(' | b'[' => depth += 1,
            b'}' if depth == 1 && !call => return i + 1,
            b')' if depth == 1 && call => return i + 1,
            b'}' | b')' | b']' => depth = depth.saturating_sub(1),
            b';' if depth == 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    i
}

/// `src` with its comments and its `#[cfg(test)]` items cut out.
fn non_test_code(src: &str) -> String {
    let b = src.as_bytes();
    let (mut out, mut i) = (Vec::new(), 0);
    while i < b.len() {
        if b[i..].starts_with(b"#[cfg(test)]") {
            i = item_end(b, i, false);
            continue;
        }
        match opaque_len(b, i) {
            0 => {
                out.push(b[i]);
                i += 1;
            }
            n => {
                if b[i] != b'/' {
                    out.extend_from_slice(&b[i..i + n]);
                }
                i += n;
            }
        }
    }
    String::from_utf8(out).expect("cut at ASCII boundaries")
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The string literal that opens `code` (an argument), if any.
fn leading_literal(code: &str) -> Option<&str> {
    code.trim_start().strip_prefix('"')?.split('"').next()
}

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
    let mut files = Vec::new();
    for krate in fs::read_dir(Path::new(ROOT).join("crates")).expect("crates dir") {
        let src = krate.expect("dir entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    files.iter().flat_map(|f| sites_in(&fs::read_to_string(f).expect("readable source"))).collect()
}

/// The sites the DESIGN §10 table names, one `/`-separated list per row.
fn sites_in_design() -> BTreeSet<String> {
    let design = fs::read_to_string(Path::new(ROOT).join("DESIGN.md")).expect("DESIGN.md");
    let (_, table) =
        design.split_once("Sites cover every recovery boundary").expect("the §10 failpoint table");
    let rows = table.lines().skip_while(|l| !l.starts_with('|')).take_while(|l| l.starts_with('|'));
    let cells = rows.skip(2).filter_map(|row| row.split('|').nth(1));
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
