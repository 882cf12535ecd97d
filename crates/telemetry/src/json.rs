//! The workspace's one in-tree JSON codec.
//!
//! Telemetry output, the audit ledger and span traces are objects of
//! strings, numbers and arrays written incrementally by [`JsonObject`]
//! (floats via [`f64_token`]: plain decimals, never an exponent).
//!
//! Documents — lake files, `detect` verdicts, bench grids and their
//! results, the `results/*.json` experiment rows — are built as a
//! [`JsonValue`] and written by [`JsonValue::render`] in one of three
//! [`Layout`]s, with floats in ryu's shortest-digit notation (see
//! [`Layout`]). [`parse_json`] reads any JSON document back into a
//! [`JsonValue`] (objects keep their key order, integer and float tokens
//! stay apart), and [`parse_jsonl_tolerant`] reads a JSON-lines file
//! whose writer may have crashed mid-line.

/// Escapes `s` for inclusion inside a JSON string literal (no quotes).
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Appends `s` as a quoted JSON string token.
fn push_quoted(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// JSON token for an `f64`: non-finite values become `null` (JSON has no
/// NaN/Infinity).
pub fn f64_token(v: f64) -> String {
    if v.is_finite() {
        // `{}` on a finite f64 prints plain decimal digits, never an
        // exponent (`1e-7` prints as `0.0000001`), so the token is always
        // a valid JSON number.
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Incrementally builds one JSON object.
#[derive(Debug, Default)]
pub struct JsonObject {
    buf: String,
    any: bool,
}

impl JsonObject {
    pub fn new() -> Self {
        Self { buf: String::from("{"), any: false }
    }

    fn key(&mut self, k: &str) {
        if self.any {
            self.buf.push(',');
        }
        self.any = true;
        push_quoted(&mut self.buf, k);
        self.buf.push(':');
    }

    pub fn str_field(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        push_quoted(&mut self.buf, v);
        self
    }

    pub fn u64_field(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k);
        self.buf.push_str(&v.to_string());
        self
    }

    pub fn f64_field(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        self.buf.push_str(&f64_token(v));
        self
    }

    pub fn bool_field(&mut self, k: &str, v: bool) -> &mut Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Inserts `raw` verbatim — the caller guarantees it is valid JSON
    /// (e.g. a nested object built with another [`JsonObject`]).
    pub fn raw_field(&mut self, k: &str, raw: &str) -> &mut Self {
        self.key(k);
        self.buf.push_str(raw);
        self
    }

    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// A JSON document, parsed or about to be rendered. Objects preserve
/// insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    /// An integer token: no fraction, no exponent (`8`).
    Int(i128),
    /// Any other number (`100.0`, `1.5e-6`).
    Float(f64),
    /// An `f32` to be written with its own shortest digits (`0.2`, where
    /// [`JsonValue::Float`] of the widened value writes
    /// `0.20000000298023224`). The parser never produces it.
    F32(f32),
    String(String),
    Array(Vec<JsonValue>),
    Object(Vec<(String, JsonValue)>),
}

/// How [`JsonValue::render`] lays a document out. All three write
/// floats in ryu's notation, the one the committed documents were first
/// written in: the shortest digits that read back to the same value,
/// `.0` on an integral value, and an exponent (`1.5e-6`, `1e21`) outside
/// `1e-5 ≤ |v| < 1e16` — for [`JsonValue::F32`], outside
/// `1e-6 ≤ |v| < 1e13`. Non-finite floats become `null`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// One line, no whitespace, keys in insertion order.
    Compact,
    /// Two-space indent and `"key": value`, keys in insertion order.
    Pretty,
    /// [`Layout::Pretty`] with every object's keys sorted bytewise.
    PrettySorted,
}

/// A Rust value with one JSON spelling: [`Json::to_json`] builds it and
/// [`Json::from_json`] reads it back. Implemented here for integers
/// (`8`), `f64`, `f32` (its own shortest digits), `bool`, `String`,
/// `Vec`, `Option` (`null` for `None`) and pairs, and for a struct by
/// [`impl_json!`](crate::impl_json).
pub trait Json: Sized {
    fn to_json(&self) -> JsonValue;

    /// # Errors
    /// What the value holds instead of a `Self`, and where.
    fn from_json(v: &JsonValue) -> Result<Self, String>;
}

macro_rules! json_scalar {
    ($($t:ty: |$x:ident| $to:expr, $read:path;)*) => {$(
        impl Json for $t {
            fn to_json(&self) -> JsonValue {
                let $x = self;
                $to
            }

            fn from_json(v: &JsonValue) -> Result<Self, String> {
                $read(v).ok_or_else(|| format!("expected {}", stringify!($t)))
            }
        }
    )*};
}

json_scalar! {
    u32: |n| JsonValue::Int((*n).into()), JsonValue::as_int;
    u64: |n| JsonValue::Int((*n).into()), JsonValue::as_int;
    i64: |n| JsonValue::Int((*n).into()), JsonValue::as_int;
    usize: |n| JsonValue::Int(*n as i128), JsonValue::as_int;
    f64: |v| JsonValue::Float(*v), JsonValue::as_finite_f64;
    f32: |v| JsonValue::F32(*v), JsonValue::as_f32;
    bool: |b| JsonValue::Bool(*b), JsonValue::as_bool;
    String: |s| JsonValue::String(s.clone()), JsonValue::as_string;
}

impl<T: Json> Json for Vec<T> {
    fn to_json(&self) -> JsonValue {
        JsonValue::array(self)
    }

    fn from_json(v: &JsonValue) -> Result<Self, String> {
        let items = v.as_array().ok_or("expected an array")?;
        let read = |(i, item)| T::from_json(item).map_err(|e| format!("item {i}: {e}"));
        items.iter().enumerate().map(read).collect()
    }
}

impl<T: Json> Json for Option<T> {
    fn to_json(&self) -> JsonValue {
        self.as_ref().map_or(JsonValue::Null, T::to_json)
    }

    fn from_json(v: &JsonValue) -> Result<Self, String> {
        (*v != JsonValue::Null).then(|| T::from_json(v)).transpose()
    }
}

impl<A: Json, B: Json> Json for (A, B) {
    fn to_json(&self) -> JsonValue {
        JsonValue::Array(vec![self.0.to_json(), self.1.to_json()])
    }

    fn from_json(v: &JsonValue) -> Result<Self, String> {
        match v.as_array() {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => Err("expected a pair".to_owned()),
        }
    }
}

/// `impl_json!(Row: a, b = 1.0)` implements [`Json`] for a struct: an
/// object of the named fields in the order given, leaving out a field
/// that writes as `null` (a `None`). Reading ignores other keys, and an
/// absent key reads as the field's `= default` when it declares one, else
/// as `null`.
#[macro_export]
macro_rules! impl_json {
    ($ty:ident: $($field:ident $(= $default:expr)?),* $(,)?) => {
        impl $crate::json::Json for $ty {
            fn to_json(&self) -> $crate::json::JsonValue {
                use $crate::json::JsonValue;
                let fields = [$((stringify!($field), $crate::json::Json::to_json(&self.$field))),*];
                JsonValue::object(fields.into_iter().filter(|(_, v)| *v != JsonValue::Null))
            }

            fn from_json(v: &$crate::json::JsonValue) -> Result<Self, String> {
                Ok(Self { $($field: v.read_or(stringify!($field), None $(.or(Some($default)))?)?),* })
            }
        }
    };
}

impl JsonValue {
    /// An object of `fields`, in the order given.
    pub fn object<'k>(fields: impl IntoIterator<Item = (&'k str, JsonValue)>) -> Self {
        Self::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// An array of `items`.
    pub fn array<'a, T: Json + 'a>(items: impl IntoIterator<Item = &'a T>) -> Self {
        Self::Array(items.into_iter().map(T::to_json).collect())
    }

    /// Writes the document in `layout`.
    pub fn render(&self, layout: Layout) -> String {
        let mut out = String::new();
        self.render_into(&mut out, layout, 0);
        out
    }

    fn render_into(&self, out: &mut String, layout: Layout, depth: usize) {
        match self {
            Self::Null => out.push_str("null"),
            Self::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Self::Int(n) => out.push_str(&n.to_string()),
            Self::Float(v) if v.is_finite() => out.push_str(&ryu(&format!("{v:e}"), -5, 16)),
            Self::F32(v) if v.is_finite() => out.push_str(&ryu(&format!("{v:e}"), -6, 13)),
            Self::Float(_) | Self::F32(_) => out.push_str("null"),
            Self::String(s) => push_quoted(out, s),
            Self::Array(items) => {
                render_container(out, layout, depth, ['[', ']'], items.iter().map(|v| (None, v)));
            }
            Self::Object(fields) => {
                let mut fields: Vec<&(String, JsonValue)> = fields.iter().collect();
                if layout == Layout::PrettySorted {
                    fields.sort_by(|a, b| a.0.cmp(&b.0));
                }
                let entries = fields.into_iter().map(|(k, v)| (Some(k.as_str()), v));
                render_container(out, layout, depth, ['{', '}'], entries);
            }
        }
    }

    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        let Self::Object(fields) = self else { return None };
        Some(fields)
    }

    pub fn as_array(&self) -> Option<&[JsonValue]> {
        let Self::Array(items) = self else { return None };
        Some(items)
    }

    pub fn as_str(&self) -> Option<&str> {
        let Self::String(s) = self else { return None };
        Some(s)
    }

    fn as_string(&self) -> Option<String> {
        self.as_str().map(str::to_owned)
    }

    pub fn as_bool(&self) -> Option<bool> {
        let Self::Bool(b) = self else { return None };
        Some(*b)
    }

    /// Any number, integer tokens included.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Self::Int(n) => Some(n as f64),
            Self::Float(v) => Some(v),
            Self::F32(v) => Some(v.into()),
            _ => None,
        }
    }

    /// Any number that stays finite narrowed to `f32`, as a typed `f32`
    /// reader takes it (`1e39` overflows to infinity, so it is not one).
    pub fn as_f32(&self) -> Option<f32> {
        self.as_f64().map(|v| v as f32).filter(|v| v.is_finite())
    }

    /// Any finite number, as a typed `f64` reader takes it (`1e400`
    /// parses to infinity, so it is not one).
    fn as_finite_f64(&self) -> Option<f64> {
        self.as_f64().filter(|v| v.is_finite())
    }

    /// An integer token that fits `T` exactly (`3.0` is not one).
    pub fn as_int<T: TryFrom<i128>>(&self) -> Option<T> {
        let Self::Int(n) = *self else { return None };
        T::try_from(n).ok()
    }

    /// The value of `key` when `self` is an object holding it (the first
    /// occurrence, should the key repeat).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object()?.iter().find_map(|(k, v)| (k == key).then_some(v))
    }

    /// Field `key` read as a `T`; an absent key reads as `null` (so as
    /// `None` for an `Option`).
    ///
    /// # Errors
    /// `field "key" is missing`, or `key: ` and what it holds instead.
    pub fn read<T: Json>(&self, key: &str) -> Result<T, String> {
        self.read_or(key, None)
    }

    /// [`JsonValue::read`], taking `default` (when given) if `key` is
    /// absent.
    ///
    /// # Errors
    /// As [`JsonValue::read`].
    pub fn read_or<T: Json>(&self, key: &str, default: Option<T>) -> Result<T, String> {
        match (self.get(key), default) {
            (Some(v), _) => T::from_json(v).map_err(|e| format!("{key}: {e}")),
            (None, Some(default)) => Ok(default),
            (None, None) => {
                T::from_json(&Self::Null).map_err(|_| format!("field {key:?} is missing"))
            }
        }
    }
}

/// Writes the items of an array (`key` `None`) or the entries of an
/// object between `brackets`: `[]`/`{}` when empty, else one item per
/// line at `depth + 1` when pretty.
fn render_container<'a>(
    out: &mut String,
    layout: Layout,
    depth: usize,
    brackets: [char; 2],
    items: impl Iterator<Item = (Option<&'a str>, &'a JsonValue)>,
) {
    let pretty = layout != Layout::Compact;
    out.push(brackets[0]);
    let mut empty = true;
    for (key, value) in items {
        if !empty {
            out.push(',');
        }
        empty = false;
        if pretty {
            out.push('\n');
            out.push_str(&"  ".repeat(depth + 1));
        }
        if let Some(key) = key {
            push_quoted(out, key);
            out.push_str(if pretty { ": " } else { ":" });
        }
        value.render_into(out, layout, depth + 1);
    }
    if pretty && !empty {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push(brackets[1]);
}

/// A finite float, given Rust's shortest `{:e}` form of it (the digits
/// ryu picks), in ryu's layout: plain decimals when
/// `10^lo <= |v| < 10^hi`, else `d.ddde±x`.
fn ryu(sci: &str, lo: i32, hi: i32) -> String {
    let (mantissa, exp) = sci.split_once('e').expect("`{:e}` writes an exponent");
    let (sign, mantissa) = mantissa.split_at(usize::from(mantissa.starts_with('-')));
    let digits = mantissa.replace('.', "");
    // 10^(point-1) <= |v| < 10^point: `point` digits precede the decimal point.
    let point = exp.parse::<i32>().expect("integral exponent") + 1;
    let (len, zeros) = (digits.len() as i32, |n: i32| "0".repeat(n as usize));
    let body = if len <= point && point <= hi {
        format!("{digits}{}.0", zeros(point - len))
    } else if 0 < point && point <= hi {
        format!("{}.{}", &digits[..point as usize], &digits[point as usize..])
    } else if lo < point && point <= 0 {
        format!("0.{}{digits}", zeros(-point))
    } else if len == 1 {
        format!("{digits}e{}", point - 1)
    } else {
        format!("{}.{}e{}", &digits[..1], &digits[1..], point - 1)
    };
    format!("{sign}{body}")
}

/// Parses a complete JSON document.
///
/// # Errors
/// Returns a byte-offset description of the first syntax error.
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

/// Parses a JSON-lines document, skipping blank lines, from a writer that
/// may have crashed mid-write: when `per_line` fails on the *final* line
/// (a torn tail) the records before it are returned together with that
/// line's error (`line N: …`) instead of failing the whole parse.
///
/// # Errors
/// `line N: …` for the first failing line before the final one — only the
/// tail can legitimately be torn by a crash.
pub fn parse_jsonl_tolerant<T>(
    text: &str,
    mut per_line: impl FnMut(&str) -> Result<T, String>,
) -> Result<(Vec<T>, Option<String>), String> {
    let lines: Vec<(usize, &str)> =
        text.lines().enumerate().filter(|(_, line)| !line.trim().is_empty()).collect();
    let mut records = Vec::with_capacity(lines.len());
    for (idx, &(n, line)) in lines.iter().enumerate() {
        match per_line(line) {
            Ok(record) => records.push(record),
            Err(e) if idx + 1 == lines.len() => {
                return Ok((records, Some(format!("line {}: {e}", n + 1))));
            }
            Err(e) => return Err(format!("line {}: {e}", n + 1)),
        }
    }
    Ok((records, None))
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.bump() {
            Some(b) if b == want => Ok(()),
            other => Err(format!(
                "expected {:?} at byte {}, found {:?}",
                want as char,
                self.pos.saturating_sub(1),
                other.map(|b| b as char)
            )),
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {:?} at byte {}", other.map(|b| b as char), self.pos)),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(JsonValue::Object(fields)),
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos.saturating_sub(1),
                        other.map(|b| b as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(JsonValue::Array(items)),
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos.saturating_sub(1),
                        other.map(|b| b as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out: Vec<u8> = Vec::new();
        loop {
            match self.bump() {
                None => return Err("unterminated string".to_owned()),
                Some(b'"') => break,
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push(b'"'),
                    Some(b'\\') => out.push(b'\\'),
                    Some(b'/') => out.push(b'/'),
                    Some(b'b') => out.push(0x08),
                    Some(b'f') => out.push(0x0c),
                    Some(b'n') => out.push(b'\n'),
                    Some(b'r') => out.push(b'\r'),
                    Some(b't') => out.push(b'\t'),
                    Some(b'u') => {
                        let mut code = self.hex4()?;
                        // Combine a surrogate pair when one follows.
                        if (0xD800..0xDC00).contains(&code)
                            && self.bytes[self.pos..].starts_with(b"\\u")
                        {
                            self.pos += 2;
                            let low = self.hex4()?;
                            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                        }
                        let ch = char::from_u32(code).unwrap_or('\u{FFFD}');
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
                    }
                    other => {
                        return Err(format!("bad escape {:?}", other.map(|b| b as char)));
                    }
                },
                Some(byte) => out.push(byte),
            }
        }
        String::from_utf8(out).map_err(|_| "invalid UTF-8 in string".to_owned())
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut code = 0u32;
        for _ in 0..4 {
            let digit =
                self.bump().and_then(|b| (b as char).to_digit(16)).ok_or("bad \\u escape")?;
            code = code * 16 + digit;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        // An integer token too long for i128 reads as a float.
        if !text.contains(['.', 'e', 'E']) {
            if let Ok(n) = text.parse() {
                return Ok(JsonValue::Int(n));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_flat_objects() {
        let mut o = JsonObject::new();
        o.str_field("name", "a\"b\\c\nd").u64_field("n", 3).f64_field("x", 1.5);
        o.bool_field("ok", true).raw_field("inner", "{\"k\":1}");
        assert_eq!(
            o.finish(),
            "{\"name\":\"a\\\"b\\\\c\\nd\",\"n\":3,\"x\":1.5,\"ok\":true,\"inner\":{\"k\":1}}"
        );
    }

    #[test]
    fn empty_object() {
        assert_eq!(JsonObject::new().finish(), "{}");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(f64_token(f64::NAN), "null");
        assert_eq!(f64_token(f64::INFINITY), "null");
        assert_eq!(f64_token(0.25), "0.25");
    }

    #[test]
    fn control_chars_are_escaped() {
        let mut s = String::new();
        escape_into(&mut s, "a\u{1}b");
        assert_eq!(s, "a\\u0001b");
    }

    #[test]
    fn f64_tokens_never_use_exponents() {
        assert_eq!(f64_token(1e-7), "0.0000001");
        assert_eq!(f64_token(1e21), "1000000000000000000000");
        assert_eq!(parse_json(&f64_token(1e-7)).unwrap().as_f64(), Some(1e-7));
    }

    #[test]
    fn parser_reads_what_the_writer_writes_in_key_order() {
        let mut o = JsonObject::new();
        o.str_field("z", "a\"b\\c\nd\u{1}").u64_field("a", 3).f64_field("m", -2.5);
        o.bool_field("ok", true).raw_field("inner", "[1,{\"k\":null}]");
        let v = parse_json(&o.finish()).expect("parse");
        let keys: Vec<&str> = v.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["z", "a", "m", "ok", "inner"]);
        assert_eq!(v.get("z").and_then(JsonValue::as_str), Some("a\"b\\c\nd\u{1}"));
        assert_eq!(v.read::<u64>("a"), Ok(3));
        assert_eq!(v.get("m").and_then(JsonValue::as_f64), Some(-2.5));
        assert_eq!(v.get("ok").and_then(JsonValue::as_bool), Some(true));
        let inner = v.get("inner").and_then(JsonValue::as_array).unwrap();
        assert_eq!(inner[1].get("k"), Some(&JsonValue::Null));
        assert_eq!(v.get("absent"), None);
        assert_eq!(inner[0].get("k"), None, "get on a non-object");
    }

    #[test]
    fn parser_handles_escapes_and_surrogate_pairs() {
        let v = parse_json(r#"{"a":"x\n\"y\\zé\/","b":[1,-2.5,1e-3]}"#).expect("parse");
        assert_eq!(v.get("a").and_then(JsonValue::as_str), Some("x\n\"y\\z\u{e9}/"));
        let b = v.get("b").and_then(JsonValue::as_array).unwrap();
        assert_eq!(b.iter().map(|n| n.as_f64().unwrap()).collect::<Vec<_>>(), [1.0, -2.5, 0.001]);
        let v = parse_json(r#""\ud83d\ude00""#).expect("escaped pair");
        assert_eq!(v.as_str(), Some("\u{1F600}"));
        let v = parse_json("\"\u{1F600}\"").expect("raw multi-byte");
        assert_eq!(v.as_str(), Some("\u{1F600}"));
        let v = parse_json(r#""\ud800x""#).expect("lone surrogate");
        assert_eq!(v.as_str(), Some("\u{FFFD}x"));
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in ["", "{", "{\"a\":}", "[1,]", "tru", "\"unterminated", "{} extra", "1.2.3"] {
            assert!(parse_json(bad).is_err(), "{bad:?} must fail");
        }
    }

    #[test]
    fn integer_views_are_exact_and_reject_float_tokens() {
        let n = |text: &str| parse_json(text).unwrap();
        assert_eq!(n("18446744073709551615").as_int::<u64>(), Some(u64::MAX));
        assert_eq!(n("18446744073709551616").as_int::<u64>(), None, "beyond u64");
        assert_eq!(n("-1").as_int::<u64>(), None);
        assert_eq!(n("1.5").as_int::<u64>(), None);
        assert_eq!(n("3.0").as_int::<u64>(), None, "a float token is not an integer");
        assert_eq!(n("\"7\"").as_int::<u64>(), None);
        assert_eq!(n("-9223372036854775808").as_int::<i64>(), Some(i64::MIN));
        assert_eq!(n("4294967296").as_int::<u32>(), None);
        assert_eq!(n("-2").as_int::<i64>(), Some(-2));
        assert_eq!(n("8").as_f64(), Some(8.0), "an integer is also a number");
        let huge = "1".repeat(40);
        assert_eq!(n(&huge), JsonValue::Float(huge.parse().unwrap()), "past i128 reads as a float");
    }

    #[test]
    fn floats_follow_ryu_notation() {
        let f = |v: f64| JsonValue::Float(v).render(Layout::Compact);
        assert_eq!(f(100.0), "100.0");
        assert_eq!(f(f64::from(0.1f32)), "0.10000000149011612", "a widened f32");
        assert_eq!(f(0.00151627825), "0.00151627825");
        assert_eq!(f(1e-5), "0.00001");
        assert_eq!(f(1.5e-6), "1.5e-6");
        assert_eq!(f(1e-7), "1e-7");
        assert_eq!(f(-0.0), "-0.0");
        assert_eq!(f(0.0), "0.0");
        assert_eq!(f(1e15), "1000000000000000.0");
        assert_eq!(f(1e16), "1e16");
        assert_eq!(f(1.25e17), "1.25e17");
        assert_eq!(f(-2.5), "-2.5");
        assert_eq!(f(f64::NAN), "null");
        let g = |v: f32| JsonValue::F32(v).render(Layout::Compact);
        assert_eq!(g(0.2), "0.2");
        assert_eq!(g(1.0), "1.0");
        assert_eq!(g(1.5e-6), "0.0000015", "f32 stays plain down to 1e-6");
        assert_eq!(g(1.5e-7), "1.5e-7");
        assert_eq!(g(1e12), "1000000000000.0");
        assert_eq!(g(1e13), "1e13");
        assert_eq!(g(f32::INFINITY), "null");
        assert_eq!(8usize.to_json().render(Layout::Compact), "8");
        for v in [0.1, 1.5e-6, 123.456, 1e300, 5e-324, -7.0] {
            assert_eq!(parse_json(&f(v)).unwrap().as_f64(), Some(v), "{v} reads back");
        }
    }

    #[test]
    fn layouts_are_pinned() {
        let doc = JsonValue::object([
            ("b", JsonValue::array(&[1u64, 2])),
            (
                "a",
                JsonValue::object([("z", JsonValue::Null), ("y", JsonValue::String("s\"".into()))]),
            ),
            ("e", JsonValue::Array(Vec::new())),
            ("o", JsonValue::Object(Vec::new())),
        ]);
        assert_eq!(
            doc.render(Layout::Compact),
            r#"{"b":[1,2],"a":{"z":null,"y":"s\""},"e":[],"o":{}}"#
        );
        assert_eq!(
            doc.render(Layout::Pretty),
            "{\n  \"b\": [\n    1,\n    2\n  ],\n  \"a\": {\n    \"z\": null,\n    \"y\": \"s\\\"\"\n  },\n  \"e\": [],\n  \"o\": {}\n}"
        );
        let sorted = doc.render(Layout::PrettySorted);
        assert!(sorted.starts_with("{\n  \"a\": {\n    \"y\": "), "{sorted}");
        assert_eq!(parse_json(&sorted).unwrap().render(Layout::PrettySorted), sorted);
    }

    #[derive(Debug, PartialEq)]
    struct Row {
        name: String,
        rate: f32,
        tags: Vec<Option<u32>>,
        pair: (usize, bool),
        scale: f64,
        note: Option<String>,
    }

    crate::impl_json!(Row: name, rate, tags, pair, scale = 1.0, note);

    #[test]
    fn impl_json_writes_fields_in_order_and_reads_them_back() {
        let row = Row {
            name: "a".into(),
            rate: 0.2,
            tags: vec![Some(3), None],
            pair: (7, true),
            scale: 2.0,
            note: None,
        };
        let text = row.to_json().render(Layout::Compact);
        assert_eq!(text, r#"{"name":"a","rate":0.2,"tags":[3,null],"pair":[7,true],"scale":2.0}"#);
        assert_eq!(Row::from_json(&parse_json(&text).unwrap()), Ok(row));
        // Unknown keys are ignored; an absent field takes its default.
        let sparse = r#"{"x":{},"name":"b","rate":1,"tags":[],"pair":[0,false],"note":"n"}"#;
        let read = Row::from_json(&parse_json(sparse).unwrap()).unwrap();
        assert_eq!((read.scale, read.note.as_deref()), (1.0, Some("n")));
        let err = |text: &str| Row::from_json(&parse_json(text).unwrap()).unwrap_err();
        assert_eq!(err(r#"{"rate":1}"#), "field \"name\" is missing");
        assert_eq!(err(r#"{"name":"b","rate":"1"}"#), "rate: expected f32");
        // A number past the reader's width overflows to infinity: rejected.
        assert_eq!(err(r#"{"name":"b","rate":1e39}"#), "rate: expected f32");
        let huge_scale = r#"{"name":"b","rate":1,"tags":[],"pair":[0,false],"scale":1e400}"#;
        assert_eq!(err(huge_scale), "scale: expected f64");
        let bad_tag = r#"{"name":"b","rate":1,"tags":[1,2.5],"pair":[0,false]}"#;
        assert_eq!(err(bad_tag), "tags: item 1: expected u32");
        assert_eq!(err(r#"{"name":"b","rate":1,"tags":[],"pair":[0]}"#), "pair: expected a pair");
    }

    #[test]
    fn jsonl_tolerates_only_a_torn_final_line() {
        let per_line =
            |line: &str| parse_json(line)?.as_int::<u64>().ok_or_else(|| "not a u64".to_owned());
        assert_eq!(parse_jsonl_tolerant("1\n\n2\n", per_line), Ok((vec![1, 2], None)));
        let (records, torn) = parse_jsonl_tolerant("1\n2\n{\"x", per_line).unwrap();
        assert_eq!(records, [1, 2]);
        assert!(torn.unwrap().starts_with("line 3:"));
        // The closure decides what "torn" means: a well-formed final line
        // that fails its schema is dropped the same way.
        assert_eq!(parse_jsonl_tolerant("1\n\"s\"\n", per_line).unwrap().0, [1]);
        let err = parse_jsonl_tolerant("1\n{\"x\n3\n", per_line).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }
}
