//! Integration-test-only crate; see `tests/` for the test files. It holds
//! the source scanner that `failpoint_sites.rs` and `name_catalogue.rs`
//! share: both diff a DESIGN.md table against what the non-test code of
//! `crates/*/src` names.

use std::fs;
use std::path::{Path, PathBuf};

/// The repository root.
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
pub fn item_end(b: &[u8], mut i: usize, call: bool) -> usize {
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
pub fn non_test_code(src: &str) -> String {
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
pub fn leading_literal(code: &str) -> Option<&str> {
    code.trim_start().strip_prefix('"')?.split('"').next()
}

/// The text of every `.rs` file under `crates/*/src`, one string per
/// file; each scan cuts it with [`non_test_code`].
pub fn crate_sources() -> Vec<String> {
    let mut files = Vec::new();
    for krate in fs::read_dir(Path::new(ROOT).join("crates")).expect("crates dir") {
        let src = krate.expect("dir entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    files.sort();
    files.iter().map(|f| fs::read_to_string(f).expect("readable source")).collect()
}

/// The rows of the first markdown table after `marker` in DESIGN.md, each
/// split into its trimmed cells (header and rule rows skipped).
pub fn design_table(marker: &str) -> Vec<Vec<String>> {
    let design = fs::read_to_string(Path::new(ROOT).join("DESIGN.md")).expect("DESIGN.md");
    let (_, after) =
        design.split_once(marker).unwrap_or_else(|| panic!("DESIGN.md lacks {marker:?}"));
    let rows = after.lines().skip_while(|l| !l.starts_with('|')).take_while(|l| l.starts_with('|'));
    rows.skip(2)
        .map(|row| {
            let cells = row.trim().trim_matches('|').split('|');
            cells.map(|c| c.trim().to_owned()).collect()
        })
        .collect()
}
