//! Chrome trace-event export of closed spans.
//!
//! [`render`] converts spans into Chrome trace-event JSON (the
//! `{"traceEvents":[…]}` format chrome://tracing, Perfetto, and
//! speedscope all read). Every span becomes a complete (`ph:"X"`) event
//! laid out on its recording thread; parent→child edges that cross
//! threads additionally get a flow-event pair (`ph:"s"`/`"f"`) so the UI
//! draws an arrow from the submitting span to the adopted one.
//! `enld profile --chrome` writes it from a `--trace-out` span file.

use std::collections::HashMap;

use crate::json::JsonObject;
use crate::sink::SpanRecord;

/// An owned copy of a closed span, detached from `&'static` names so it
/// can be parsed back from JSONL ([`OwnedSpan::from_json`]) and shipped
/// across threads.
#[derive(Debug, Clone, PartialEq)]
pub struct OwnedSpan {
    pub id: u64,
    pub parent: Option<u64>,
    /// Id of the trace's root span.
    pub trace: u64,
    /// Dense telemetry thread id the span ran on.
    pub tid: u64,
    pub name: String,
    /// Microseconds since the process telemetry epoch at entry.
    pub start_us: u64,
    pub dur_us: u64,
    /// Field key → raw JSON token (already escaped/quoted as needed).
    pub fields: Vec<(String, String)>,
}

impl OwnedSpan {
    /// End timestamp (`start_us + dur_us`).
    pub fn end_us(&self) -> u64 {
        self.start_us.saturating_add(self.dur_us)
    }
}

impl From<&SpanRecord> for OwnedSpan {
    fn from(r: &SpanRecord) -> Self {
        Self {
            id: r.id,
            parent: r.parent,
            trace: r.trace,
            tid: r.tid,
            name: r.name.to_owned(),
            start_us: r.start_micros,
            dur_us: r.duration_micros,
            fields: r.fields.iter().map(|(k, v)| ((*k).to_owned(), v.to_json())).collect(),
        }
    }
}

fn push_event(out: &mut String, event: String) {
    if !out.is_empty() {
        out.push(',');
    }
    out.push_str(&event);
}

/// The one logical process every span is laid out under.
const PID: u64 = 1;

/// Renders `spans` as a Chrome trace-event JSON document
/// (`{"traceEvents":[…]}`), all under one logical process: an `X` slice
/// per span plus `s`/`f` flow pairs for every parent→child edge whose
/// endpoints ran on different threads. Load the result in Perfetto
/// (<https://ui.perfetto.dev>) or chrome://tracing.
pub fn render(spans: &[OwnedSpan]) -> String {
    let mut events = String::new();
    let mut process_args = JsonObject::new();
    process_args.str_field("name", "enld");
    let mut process = JsonObject::new();
    process
        .str_field("ph", "M")
        .str_field("name", "process_name")
        .u64_field("pid", PID)
        .raw_field("args", &process_args.finish());
    push_event(&mut events, process.finish());

    let by_id: HashMap<u64, &OwnedSpan> = spans.iter().map(|s| (s.id, s)).collect();
    for span in spans {
        let mut args = JsonObject::new();
        args.u64_field("span", span.id).u64_field("trace", span.trace);
        if let Some(parent) = span.parent {
            args.u64_field("parent", parent);
        }
        for (k, v) in &span.fields {
            args.raw_field(k, v);
        }
        let mut o = JsonObject::new();
        o.str_field("ph", "X")
            .str_field("cat", "enld")
            .str_field("name", &span.name)
            .u64_field("pid", PID)
            .u64_field("tid", span.tid)
            .u64_field("ts", span.start_us)
            .u64_field("dur", span.dur_us)
            .raw_field("args", &args.finish());
        push_event(&mut events, o.finish());

        // Cross-thread edge: draw a flow arrow submitter → adopted span.
        let Some(parent) = span.parent.and_then(|p| by_id.get(&p)) else { continue };
        if parent.tid == span.tid {
            continue;
        }
        // The flow start must bind to the parent slice: clamp the child's
        // start into the parent's lifetime on the parent's thread.
        let ts = span.start_us.clamp(parent.start_us, parent.end_us());
        let mut s = JsonObject::new();
        s.str_field("ph", "s")
            .str_field("cat", "flow")
            .str_field("name", "spawn")
            .u64_field("id", span.id)
            .u64_field("pid", PID)
            .u64_field("tid", parent.tid)
            .u64_field("ts", ts);
        push_event(&mut events, s.finish());
        let mut f = JsonObject::new();
        f.str_field("ph", "f")
            .str_field("bp", "e")
            .str_field("cat", "flow")
            .str_field("name", "spawn")
            .u64_field("id", span.id)
            .u64_field("pid", PID)
            .u64_field("tid", span.tid)
            .u64_field("ts", span.start_us);
        push_event(&mut events, f.finish());
    }
    format!("{{\"traceEvents\":[{events}],\"displayTimeUnit\":\"ms\"}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, trace: u64, tid: u64, start: u64, dur: u64) -> OwnedSpan {
        OwnedSpan {
            id,
            parent,
            trace,
            tid,
            name: format!("s{id}"),
            start_us: start,
            dur_us: dur,
            fields: Vec::new(),
        }
    }

    #[test]
    fn render_emits_complete_events_and_cross_thread_flows() {
        let spans = vec![
            span(1, None, 1, 1, 0, 100),
            span(2, Some(1), 1, 2, 10, 50),
            span(3, Some(1), 1, 1, 60, 20),
        ];
        let json = render(&spans);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        // Span 2 crosses threads (tid 1 → 2): one s/f flow pair.
        assert!(json.contains("\"ph\":\"s\""));
        assert!(json.contains("\"ph\":\"f\""));
        assert_eq!(json.matches("\"cat\":\"flow\"").count(), 2, "only the cross-thread edge flows");
        assert!(json.contains("\"displayTimeUnit\":\"ms\""));
    }
}
