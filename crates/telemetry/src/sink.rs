//! Sinks: where events and closed spans go.
//!
//! Sinks are installed process-wide with [`install`]. Every emission is
//! offered to each sink whose threshold admits the record's level; the
//! maximum installed threshold is cached in an atomic so that disabled
//! telemetry costs a single relaxed load.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use crate::chrome_trace::OwnedSpan;
use crate::json::{f64_token, JsonObject, JsonValue, Layout};
use crate::level::Level;
use crate::span::FieldValue;

/// A point-in-time log event (no duration).
#[derive(Debug)]
pub struct Event {
    pub level: Level,
    /// Component that emitted the event (e.g. `"repro"`, `"enld"`).
    pub target: &'static str,
    pub message: String,
    /// Microseconds since the process telemetry epoch.
    pub micros: u64,
    /// Innermost live span on the emitting thread, if any.
    pub span: Option<u64>,
}

impl Event {
    /// One JSON-lines record: `{"type":"event",...}`.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.str_field("type", "event")
            .f64_field("ts_us", self.micros as f64)
            .str_field("level", self.level.as_str())
            .str_field("target", self.target)
            .str_field("message", &self.message);
        if let Some(span) = self.span {
            o.u64_field("span", span);
        }
        o.finish()
    }
}

/// A closed span, as delivered to sinks.
#[derive(Debug)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: Option<u64>,
    /// Id of the trace's root span (== `id` for a root span).
    pub trace: u64,
    /// Dense telemetry thread id of the thread the span ran on.
    pub tid: u64,
    /// Nesting depth at entry (0 = root).
    pub depth: usize,
    pub name: &'static str,
    pub level: Level,
    /// Microseconds since the process telemetry epoch at entry.
    pub start_micros: u64,
    pub duration_micros: u64,
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl SpanRecord {
    /// One JSON-lines record: `{"type":"span",...}`.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.str_field("type", "span")
            .u64_field("id", self.id)
            .u64_field("trace", self.trace)
            .u64_field("tid", self.tid)
            .str_field("name", self.name)
            .str_field("level", self.level.as_str())
            .u64_field("start_us", self.start_micros)
            .u64_field("dur_us", self.duration_micros)
            .u64_field("depth", self.depth as u64);
        if let Some(parent) = self.parent {
            o.u64_field("parent", parent);
        }
        if !self.fields.is_empty() {
            let mut f = JsonObject::new();
            for (k, v) in &self.fields {
                f.raw_field(k, &v.to_json());
            }
            o.raw_field("fields", &f.finish());
        }
        o.finish()
    }
}

impl OwnedSpan {
    /// Reads back one parsed line that [`SpanRecord::to_json`] wrote;
    /// `None` for the other records (events, metric snapshots) that share
    /// a `--trace-out` file. Field values come back as the writer's
    /// tokens (floats in [`f64_token`] notation, so an integral one keeps
    /// its integer spelling).
    pub fn from_json(value: &JsonValue) -> Option<Self> {
        if value.get("type")?.as_str()? != "span" {
            return None;
        }
        let u64_of = |key| value.get(key).and_then(JsonValue::as_int::<u64>);
        let token = |v: &JsonValue| match v {
            JsonValue::Float(n) => f64_token(*n),
            scalar => scalar.render(Layout::Compact),
        };
        let fields = value
            .get("fields")
            .and_then(JsonValue::as_object)
            .map(|f| f.iter().map(|(k, v)| (k.clone(), token(v))).collect())
            .unwrap_or_default();
        Some(Self {
            id: u64_of("id")?,
            parent: u64_of("parent"),
            trace: u64_of("trace").unwrap_or(0),
            tid: u64_of("tid").unwrap_or(0),
            name: value.get("name")?.as_str()?.to_owned(),
            start_us: u64_of("start_us")?,
            dur_us: u64_of("dur_us")?,
            fields,
        })
    }
}

/// Receiver of events and closed spans.
pub trait Sink: Send + Sync {
    /// Records at levels above this threshold are not delivered.
    fn level(&self) -> Level;
    fn on_event(&self, event: &Event);
    fn on_span(&self, span: &SpanRecord);
    /// Flushes buffered output (called by [`flush`]).
    fn flush(&self) {}
}

static MAX_LEVEL: AtomicU8 = AtomicU8::new(0);

fn sinks() -> &'static RwLock<Vec<Arc<dyn Sink>>> {
    static SINKS: OnceLock<RwLock<Vec<Arc<dyn Sink>>>> = OnceLock::new();
    SINKS.get_or_init(|| RwLock::new(Vec::new()))
}

/// Installs a sink process-wide.
pub fn install(sink: Arc<dyn Sink>) {
    let mut guard = sinks().write().expect("sink registry poisoned");
    guard.push(sink);
    let max = guard.iter().map(|s| s.level() as u8).max().unwrap_or(0);
    MAX_LEVEL.store(max, Ordering::Relaxed);
}

/// Removes every installed sink.
pub(crate) fn reset() {
    let mut guard = sinks().write().expect("sink registry poisoned");
    guard.clear();
    MAX_LEVEL.store(0, Ordering::Relaxed);
}

/// Whether any installed sink accepts records at `level`. The fast path
/// instrumented code gates on.
#[inline]
pub fn enabled(level: Level) -> bool {
    level != Level::Quiet && (level as u8) <= MAX_LEVEL.load(Ordering::Relaxed)
}

/// Flushes every installed sink (call before process exit so buffered
/// JSON-lines output reaches disk).
pub fn flush() {
    for sink in sinks().read().expect("sink registry poisoned").iter() {
        sink.flush();
    }
}

/// Emits an event; prefer the `tinfo!`-family macros, which skip message
/// formatting when disabled.
pub fn emit(level: Level, target: &'static str, message: String) {
    if !enabled(level) {
        return;
    }
    let event = Event {
        level,
        target,
        message,
        micros: crate::span::micros_now(),
        span: crate::span::current_span(),
    };
    for sink in sinks().read().expect("sink registry poisoned").iter() {
        if (level as u8) <= sink.level() as u8 {
            sink.on_event(&event);
        }
    }
}

pub(crate) fn dispatch_span(record: &SpanRecord) {
    for sink in sinks().read().expect("sink registry poisoned").iter() {
        if (record.level as u8) <= sink.level() as u8 {
            sink.on_span(record);
        }
    }
}

/// `1234` µs → `"1.23ms"`-style human duration.
fn fmt_duration_micros(us: u64) -> String {
    if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.2}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2}s", us as f64 / 1_000_000.0)
    }
}

/// Human-readable sink: one line per event/closed span on stderr, spans
/// indented by nesting depth.
pub struct StderrSink {
    level: Level,
}

impl StderrSink {
    pub fn new(level: Level) -> Self {
        Self { level }
    }
}

impl Sink for StderrSink {
    fn level(&self) -> Level {
        self.level
    }

    fn on_event(&self, event: &Event) {
        eprintln!("[{:>5}] {}: {}", event.level, event.target, event.message);
    }

    fn on_span(&self, span: &SpanRecord) {
        let indent = "  ".repeat(span.depth);
        let mut fields = String::new();
        for (k, v) in &span.fields {
            fields.push_str(&format!(" {k}={}", v.display()));
        }
        eprintln!(
            "[{:>5}] {indent}{} ({}){fields}",
            span.level,
            span.name,
            fmt_duration_micros(span.duration_micros)
        );
    }
}

/// Machine-readable sink: one JSON object per line. Lines are flushed as
/// they are written so a crashed run still leaves a usable trace.
pub struct JsonlSink {
    level: Level,
    out: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Creates (truncates) `path` and returns a sink writing to it.
    pub fn create(path: &Path, level: Level) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self { level, out: Mutex::new(BufWriter::new(file)) })
    }

    fn write_line(&self, line: &str) {
        let mut out = self.out.lock().expect("jsonl sink poisoned");
        // Telemetry must never take the pipeline down: drop on I/O error.
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    }
}

impl Sink for JsonlSink {
    fn level(&self) -> Level {
        self.level
    }

    fn on_event(&self, event: &Event) {
        self.write_line(&event.to_json());
    }

    fn on_span(&self, span: &SpanRecord) {
        self.write_line(&span.to_json());
    }

    fn flush(&self) {
        let _ = self.out.lock().expect("jsonl sink poisoned").flush();
    }
}

/// Test-only helpers: a capturing sink plus a lock serialising tests that
/// touch the process-wide sink registry.
#[cfg(test)]
pub(crate) mod test_support {
    use super::*;

    /// A span captured by the test sink, pre-rendered to JSON.
    #[derive(Debug, Clone)]
    pub struct CapturedRecord {
        pub name: &'static str,
        pub id: u64,
        pub parent: Option<u64>,
        pub trace: u64,
        pub tid: u64,
        pub depth: usize,
        pub json: String,
    }

    struct CaptureSink {
        level: Level,
        spans: Mutex<Vec<CapturedRecord>>,
        events: Mutex<Vec<String>>,
    }

    impl Sink for CaptureSink {
        fn level(&self) -> Level {
            self.level
        }

        fn on_event(&self, event: &Event) {
            self.events.lock().unwrap().push(event.to_json());
        }

        fn on_span(&self, span: &SpanRecord) {
            self.spans.lock().unwrap().push(CapturedRecord {
                name: span.name,
                id: span.id,
                parent: span.parent,
                trace: span.trace,
                tid: span.tid,
                depth: span.depth,
                json: span.to_json(),
            });
        }
    }

    static TEST_GUARD: Mutex<()> = Mutex::new(());

    /// Runs `f` with the sink registry holding exactly one capture sink at
    /// `level` (or no sink at all for `None`), serialised against other
    /// registry-touching tests. Returns the captured spans; `f` receives
    /// an accessor for the events captured so far.
    pub fn with_capture<F>(level: Option<Level>, f: F) -> Vec<CapturedRecord>
    where
        F: FnOnce(&dyn Fn() -> Vec<String>),
    {
        let _guard = TEST_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        let sink = Arc::new(CaptureSink {
            level: level.unwrap_or(Level::Quiet),
            spans: Mutex::new(Vec::new()),
            events: Mutex::new(Vec::new()),
        });
        if level.is_some() {
            install(sink.clone());
        }
        let events_view = {
            let sink = sink.clone();
            move || sink.events.lock().unwrap().clone()
        };
        f(&events_view);
        reset();
        let captured = sink.spans.lock().unwrap().clone();
        captured
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::with_capture;
    use super::*;

    #[test]
    fn event_json_shape() {
        let e = Event {
            level: Level::Info,
            target: "test",
            message: "hello \"world\"".into(),
            micros: 12,
            span: Some(7),
        };
        let json = e.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"type\":\"event\""));
        assert!(json.contains("\"message\":\"hello \\\"world\\\"\""));
        assert!(json.contains("\"span\":7"));
    }

    #[test]
    fn span_json_shape() {
        let r = SpanRecord {
            id: 3,
            parent: Some(2),
            trace: 1,
            tid: 4,
            depth: 1,
            name: "stage",
            level: Level::Debug,
            start_micros: 10,
            duration_micros: 250,
            fields: vec![("k", FieldValue::U64(9)), ("s", FieldValue::Str("v".into()))],
        };
        let json = r.to_json();
        assert!(json.contains("\"type\":\"span\""));
        assert!(json.contains("\"name\":\"stage\""));
        assert!(json.contains("\"parent\":2"));
        assert!(json.contains("\"trace\":1"));
        assert!(json.contains("\"tid\":4"));
        assert!(json.contains("\"fields\":{\"k\":9,\"s\":\"v\"}"));
    }

    #[test]
    fn a_span_line_reads_back_as_the_span_it_was_written_from() {
        let r = SpanRecord {
            id: 3,
            parent: Some(2),
            trace: 1,
            tid: 4,
            depth: 1,
            name: "stage",
            level: Level::Debug,
            start_micros: 10,
            duration_micros: 250,
            fields: vec![
                ("rows", FieldValue::U64(9)),
                ("delta", FieldValue::I64(-3)),
                ("share", FieldValue::F64(0.125)),
                ("whole", FieldValue::F64(2.0)),
                ("tiny", FieldValue::F64(1e-7)),
                ("nan", FieldValue::F64(f64::NAN)),
                ("ok", FieldValue::Bool(true)),
                ("s", FieldValue::Str("a \"quoted\"\n\u{e9}".into())),
            ],
        };
        let line = crate::json::parse_json(&r.to_json()).expect("a JSON line");
        assert_eq!(OwnedSpan::from_json(&line), Some(OwnedSpan::from(&r)));
        let root = SpanRecord { parent: None, fields: Vec::new(), ..r };
        let line = crate::json::parse_json(&root.to_json()).expect("a JSON line");
        assert_eq!(OwnedSpan::from_json(&line), Some(OwnedSpan::from(&root)));
        let event =
            Event { level: Level::Info, target: "t", message: "m".into(), micros: 1, span: None };
        let event = crate::json::parse_json(&event.to_json()).expect("a JSON line");
        assert_eq!(OwnedSpan::from_json(&event), None);
    }

    #[test]
    fn emit_respects_levels() {
        let records = with_capture(Some(Level::Info), |events| {
            emit(Level::Info, "t", "shown".into());
            emit(Level::Debug, "t", "hidden".into());
            let seen = events();
            assert_eq!(seen.len(), 1);
            assert!(seen[0].contains("shown"));
        });
        assert!(records.is_empty());
    }

    #[test]
    fn enabled_tracks_installed_sinks() {
        with_capture(Some(Level::Debug), |_| {
            assert!(enabled(Level::Info));
            assert!(enabled(Level::Debug));
            assert!(!enabled(Level::Trace));
            assert!(!enabled(Level::Quiet));
        });
        with_capture(None, |_| {
            assert!(!enabled(Level::Error));
        });
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let path =
            std::env::temp_dir().join(format!("enld_telemetry_jsonl_{}.jsonl", std::process::id()));
        let sink = JsonlSink::create(&path, Level::Trace).expect("create");
        sink.on_event(&Event {
            level: Level::Info,
            target: "t",
            message: "m".into(),
            micros: 1,
            span: None,
        });
        sink.flush();
        let text = std::fs::read_to_string(&path).expect("read back");
        let line = text.lines().next().expect("one line");
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"type\":\"event\""));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration_micros(900), "900µs");
        assert_eq!(fmt_duration_micros(1_500), "1.50ms");
        assert_eq!(fmt_duration_micros(2_500_000), "2.50s");
    }
}
