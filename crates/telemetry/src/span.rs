//! Hierarchical timed spans with cross-thread causal context.
//!
//! A span is opened with [`span`]/[`debug_span`]/[`trace_span`], entered
//! with [`SpanBuilder::entered`], and emitted to the installed sinks when
//! its [`SpanGuard`] drops. Parentage is tracked per thread: a span
//! entered while another is live becomes its child. When no installed
//! sink listens at the span's level, entering costs a single relaxed
//! atomic load and emits nothing.
//!
//! Work that hops threads stays causally connected through a
//! [`TraceContext`]: capture it on the submitting thread with
//! [`current_context`], then enter the remote span with
//! [`SpanBuilder::follows`]. Every span carries the `trace_id` of its root
//! (a root span's trace id is its own id), so one detection job remains
//! one connected tree no matter how many threads run pieces of it.

use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use crate::level::Level;
use crate::sink::{self, SpanRecord};

/// A typed key/value payload attached to spans and metrics.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(String),
}

impl FieldValue {
    /// The value as a JSON token (strings quoted and escaped).
    pub fn to_json(&self) -> String {
        match self {
            Self::U64(v) => v.to_string(),
            Self::I64(v) => v.to_string(),
            Self::F64(v) => crate::json::f64_token(*v),
            Self::Bool(v) => if *v { "true" } else { "false" }.to_owned(),
            Self::Str(v) => {
                let mut s = String::with_capacity(v.len() + 2);
                s.push('"');
                crate::json::escape_into(&mut s, v);
                s.push('"');
                s
            }
        }
    }

    /// Human-readable form (strings unquoted).
    pub fn display(&self) -> String {
        match self {
            Self::Str(v) => v.clone(),
            other => other.to_json(),
        }
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        Self::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        Self::U64(v as u64)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        Self::U64(u64::from(v))
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        Self::I64(v)
    }
}
impl From<i32> for FieldValue {
    fn from(v: i32) -> Self {
        Self::I64(i64::from(v))
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        Self::F64(v)
    }
}
impl From<f32> for FieldValue {
    fn from(v: f32) -> Self {
        Self::F64(f64::from(v))
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        Self::Bool(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        Self::Str(v.to_owned())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        Self::Str(v)
    }
}

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
/// Thread ids whose threads have exited; handed out again lowest first.
static FREE_TIDS: Mutex<BTreeSet<u64>> = Mutex::new(BTreeSet::new());

fn free_tids() -> MutexGuard<'static, BTreeSet<u64>> {
    // Every update is a single insert or pop, so the set is always valid.
    FREE_TIDS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A thread's id; 0 until [`current_tid`] first asks. Returned to the free
/// list when the thread exits.
struct TidSlot(Cell<u64>);

impl Drop for TidSlot {
    fn drop(&mut self) {
        if self.0.get() != 0 {
            free_tids().insert(self.0.get());
        }
    }
}

/// One live frame on a thread's span stack.
#[derive(Debug, Clone, Copy)]
struct Frame {
    span_id: u64,
    trace_id: u64,
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    static TID: TidSlot = const { TidSlot(Cell::new(0)) };
}

/// Microseconds since the process-wide telemetry epoch (first use).
pub(crate) fn micros_now() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// Small dense id for the calling thread: the lowest id no live thread
/// holds (1, 2, … in first-use order; a thread's id is handed on after it
/// exits). Stable for the thread's lifetime; used to lay spans out per
/// thread in trace exports without leaking OS thread ids, so short-lived
/// helper threads share a few lanes instead of opening one per spawn.
pub fn current_tid() -> u64 {
    TID.with(|slot| {
        if slot.0.get() == 0 {
            let reused = free_tids().pop_first();
            slot.0.set(reused.unwrap_or_else(|| NEXT_TID.fetch_add(1, Ordering::Relaxed)));
        }
        slot.0.get()
    })
}

/// Id of the innermost live span on this thread, if any.
pub fn current_span() -> Option<u64> {
    SPAN_STACK.with(|s| s.borrow().last().map(|f| f.span_id))
}

/// Causal handle linking work scheduled on another thread back to the
/// span that submitted it. Capture with [`current_context`] on the
/// submitting thread; adopt on the running thread with
/// [`SpanBuilder::follows`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Id of the root span of the enclosing trace.
    pub trace_id: u64,
    /// Span the adopted work should report as its parent.
    pub parent_span_id: u64,
}

/// Context of the innermost live span on this thread, if any.
pub fn current_context() -> Option<TraceContext> {
    SPAN_STACK.with(|s| {
        s.borrow().last().map(|f| TraceContext { trace_id: f.trace_id, parent_span_id: f.span_id })
    })
}

/// Opens an [`Level::Info`] span builder.
pub fn span(name: &'static str) -> SpanBuilder {
    SpanBuilder { name, level: Level::Info, fields: Vec::new(), follows: None }
}

/// Opens a [`Level::Debug`] span builder.
pub fn debug_span(name: &'static str) -> SpanBuilder {
    span(name).level(Level::Debug)
}

/// Opens a [`Level::Trace`] span builder.
pub fn trace_span(name: &'static str) -> SpanBuilder {
    span(name).level(Level::Trace)
}

/// A span under construction; call [`SpanBuilder::entered`] to start it.
#[must_use = "a span does nothing until entered"]
#[derive(Debug)]
pub struct SpanBuilder {
    name: &'static str,
    level: Level,
    fields: Vec<(&'static str, FieldValue)>,
    follows: Option<TraceContext>,
}

impl SpanBuilder {
    pub fn level(mut self, level: Level) -> Self {
        self.level = level;
        self
    }

    pub fn field(mut self, key: &'static str, value: impl Into<FieldValue>) -> Self {
        self.fields.push((key, value.into()));
        self
    }

    /// Parents the span to `ctx` (typically captured on another thread
    /// with [`current_context`]) instead of this thread's innermost live
    /// span. `None` leaves the default thread-local parentage.
    pub fn follows(mut self, ctx: impl Into<Option<TraceContext>>) -> Self {
        self.follows = ctx.into();
        self
    }

    /// Starts the span. The returned guard emits a [`SpanRecord`] to the
    /// installed sinks when dropped; hold it for the region's lifetime
    /// (`let _guard = …`, not `let _ = …`, which drops immediately).
    pub fn entered(self) -> SpanGuard {
        if !sink::enabled(self.level) {
            return SpanGuard { active: None };
        }
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let (parent, trace, depth) = SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let (parent, trace) = match self.follows {
                Some(ctx) => (Some(ctx.parent_span_id), ctx.trace_id),
                None => match stack.last() {
                    Some(top) => (Some(top.span_id), top.trace_id),
                    // New root: the trace is named after its root span.
                    None => (None, id),
                },
            };
            let depth = stack.len();
            stack.push(Frame { span_id: id, trace_id: trace });
            (parent, trace, depth)
        });
        SpanGuard {
            active: Some(ActiveSpan {
                id,
                parent,
                trace,
                // Taken on entry, not on drop: a thread with a live span
                // holds its id, so no exited thread's id can reach it late.
                tid: current_tid(),
                depth,
                name: self.name,
                level: self.level,
                fields: self.fields,
                start_micros: micros_now(),
                started: Instant::now(),
            }),
        }
    }
}

#[derive(Debug)]
struct ActiveSpan {
    id: u64,
    parent: Option<u64>,
    trace: u64,
    tid: u64,
    depth: usize,
    name: &'static str,
    level: Level,
    fields: Vec<(&'static str, FieldValue)>,
    start_micros: u64,
    started: Instant,
}

/// Live span handle; emits the span on drop.
#[derive(Debug)]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl SpanGuard {
    /// Whether any sink will actually receive this span.
    pub fn is_enabled(&self) -> bool {
        self.active.is_some()
    }

    /// The span's id, when enabled.
    pub fn id(&self) -> Option<u64> {
        self.active.as_ref().map(|a| a.id)
    }

    /// The id of the trace this span belongs to, when enabled.
    pub fn trace_id(&self) -> Option<u64> {
        self.active.as_ref().map(|a| a.trace)
    }

    /// A context parenting remote work to *this* span, when enabled.
    pub fn context(&self) -> Option<TraceContext> {
        self.active.as_ref().map(|a| TraceContext { trace_id: a.trace, parent_span_id: a.id })
    }

    /// Attaches a field after entry (e.g. a result computed inside the
    /// span). No-op when the span is disabled.
    pub fn record(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if let Some(a) = &mut self.active {
            a.fields.push((key, value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(a) = self.active.take() else { return };
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Guards normally drop innermost-first; tolerate stray order.
            if let Some(pos) = stack.iter().rposition(|f| f.span_id == a.id) {
                stack.remove(pos);
            }
        });
        let record = SpanRecord {
            id: a.id,
            parent: a.parent,
            trace: a.trace,
            tid: a.tid,
            depth: a.depth,
            name: a.name,
            level: a.level,
            start_micros: a.start_micros,
            duration_micros: a.started.elapsed().as_micros() as u64,
            fields: a.fields,
        };
        sink::dispatch_span(&record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::test_support::{with_capture, CapturedRecord};

    #[test]
    fn field_values_serialize() {
        assert_eq!(FieldValue::from(3usize).to_json(), "3");
        assert_eq!(FieldValue::from(-2i64).to_json(), "-2");
        assert_eq!(FieldValue::from(true).to_json(), "true");
        assert_eq!(FieldValue::from("a\"b").to_json(), "\"a\\\"b\"");
        assert_eq!(FieldValue::from(0.5f32).to_json(), "0.5");
        assert_eq!(FieldValue::from("plain").display(), "plain");
    }

    #[test]
    fn disabled_spans_are_free_of_side_effects() {
        // No sinks installed inside with_capture(None).
        with_capture(None, |_| {
            let mut g = span("nothing").entered();
            assert!(!g.is_enabled());
            assert!(g.context().is_none());
            g.record("k", 1u64);
            assert!(current_span().is_none());
            assert!(current_context().is_none());
        });
    }

    #[test]
    fn nesting_links_parents_depth_and_trace() {
        let records = with_capture(Some(Level::Trace), |_| {
            let outer = span("outer").field("n", 1u64).entered();
            assert!(outer.is_enabled());
            assert_eq!(outer.trace_id(), outer.id());
            {
                let _inner = debug_span("inner").entered();
                let _leaf = trace_span("leaf").entered();
            }
            drop(outer);
        });
        let spans: Vec<&CapturedRecord> = records.iter().collect();
        // Drop order: leaf, inner, outer.
        assert_eq!(spans.len(), 3);
        let (leaf, inner, outer) = (&spans[0], &spans[1], &spans[2]);
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.parent, None);
        assert_eq!(outer.depth, 0);
        assert_eq!(outer.trace, outer.id, "root span names its trace");
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.depth, 1);
        assert_eq!(inner.trace, outer.id);
        assert_eq!(leaf.parent, Some(inner.id));
        assert_eq!(leaf.depth, 2);
        assert_eq!(leaf.trace, outer.id);
        assert!(outer.json.contains("\"n\":1"));
    }

    #[test]
    fn level_filtering_prunes_spans() {
        let records = with_capture(Some(Level::Info), |_| {
            let _a = span("kept").entered();
            let _b = debug_span("dropped").entered();
        });
        let names: Vec<&str> = records.iter().map(|r| r.name).collect();
        assert_eq!(names, vec!["kept"]);
    }

    #[test]
    fn recorded_fields_appear_in_output() {
        let records = with_capture(Some(Level::Info), |_| {
            let mut g = span("s").entered();
            g.record("late", 42u64);
        });
        assert!(records[0].json.contains("\"late\":42"));
    }

    #[test]
    fn follows_reparents_across_threads() {
        let records = with_capture(Some(Level::Info), |_| {
            let root = span("root").entered();
            let ctx = current_context().expect("context under root");
            assert_eq!(ctx.parent_span_id, root.id().unwrap());
            std::thread::scope(|s| {
                s.spawn(move || {
                    let remote = span("remote").follows(ctx).entered();
                    assert_eq!(remote.trace_id(), Some(ctx.trace_id));
                });
            });
            drop(root);
        });
        assert_eq!(records.len(), 2);
        let (remote, root) = (&records[0], &records[1]);
        assert_eq!(remote.name, "remote");
        assert_eq!(remote.parent, Some(root.id), "remote span parents to submitter");
        assert_eq!(remote.trace, root.id, "remote span joins the submitter's trace");
        assert_ne!(remote.tid, root.tid, "spans record the thread they ran on");
    }

    #[test]
    fn tids_are_stable_and_distinct() {
        let mine = current_tid();
        assert_eq!(mine, current_tid(), "tid stable on one thread");
        let other = std::thread::spawn(current_tid).join().expect("tid thread");
        assert_ne!(mine, other, "each thread gets its own tid");
    }

    #[test]
    fn tids_of_exited_threads_are_reused_lowest_first() {
        // Joined before the next spawn, so each thread's id is free again:
        // the count of distinct ids follows the threads alive beside this
        // test (other tests' included), not the number of spawns.
        let sequential: BTreeSet<u64> =
            (0..100).map(|_| std::thread::spawn(current_tid).join().expect("tid thread")).collect();
        assert!(sequential.len() < 50, "100 spawns used {} ids", sequential.len());

        let all_asked = std::sync::Barrier::new(4);
        let alive: BTreeSet<u64> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        let tid = current_tid();
                        all_asked.wait(); // hold the id until all four have one
                        tid
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().expect("tid thread")).collect()
        });
        assert_eq!(alive.len(), 4, "threads alive at once never share an id");
    }
}
