//! `enld-telemetry` — the observability spine of the ENLD reproduction.
//!
//! The paper's headline claim is a 3.65×–4.97× *process-time* speedup per
//! arriving dataset (§V-A3); defending (and later improving) that number
//! requires seeing where time goes *inside* the pipeline, not just two
//! coarse `setup_secs`/`process_secs` totals. This crate provides the
//! two pieces every layer reports through:
//!
//! * **Spans** ([`span()`], [`SpanGuard`]) — hierarchical, monotonic-clock
//!   timed regions with key/value fields, emitted on close through
//!   pluggable [`Sink`]s. Two sinks ship in-tree: a human-readable
//!   [`StderrSink`] with level filtering and a machine-readable
//!   JSON-lines [`JsonlSink`].
//! * **Metrics** ([`metrics::MetricsRegistry`]) — lock-cheap counters,
//!   gauges, and fixed-bucket histograms with p50/p95/p99 summaries,
//!   snapshotted as JSON. A process-wide registry lives at
//!   [`metrics::global`].
//!
//! A span built with [`SpanBuilder::timed`] also records its lifetime
//! into a named histogram, so one guard feeds both outputs.
//!
//! The crate is deliberately dependency-free (std only): disabled
//! telemetry costs one relaxed atomic load per span and nothing per
//! event, so instrumentation can stay in the hot paths permanently.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use enld_telemetry as telemetry;
//!
//! telemetry::install(Arc::new(telemetry::StderrSink::new(telemetry::Level::Info)));
//! {
//!     let mut outer = telemetry::span("detect").field("samples", 128u64).entered();
//!     let _inner = telemetry::span("detect.warmup").entered();
//!     telemetry::metrics::global().counter("tasks").inc();
//!     outer.record("clean", 100u64);
//! } // spans emit on drop, innermost first
//! telemetry::tinfo!("example", "done with {} task(s)", 1);
//! telemetry::reset(); // tests/doc-tests: drop installed sinks again
//! ```

#![forbid(unsafe_code)]

pub mod alerts;
pub mod bootstrap;
pub mod changepoint;
pub mod chrome_trace;
pub mod http;
pub mod json;
pub mod level;
pub mod metrics;
pub mod monitor;
pub mod procinfo;
pub mod profile;
pub mod prometheus;
pub mod sink;
pub mod span;
pub mod timeseries;

pub use alerts::{default_rules, parse_rules, AlertEngine, AlertRule, AlertTransition, RuleKind};
pub use bootstrap::{Telemetry, TelemetryConfig};
pub use changepoint::{ChangeDetector, DetectorSpec};
pub use chrome_trace::{CompletedTrace, OwnedSpan, TraceBuffer};
pub use http::{NullStatus, ObsServer, ObsStatus};
pub use level::Level;
pub use monitor::Monitor;
pub use sink::{enabled, flush, install, Event, JsonlSink, Sink, SpanRecord, StderrSink};
pub use span::{
    current_context, current_span, current_tid, debug_span, span, trace_span, FieldValue,
    SpanBuilder, SpanGuard, TraceContext,
};
pub use timeseries::{TimeSeriesStore, WindowStats};

/// Removes every installed sink (primarily for tests and benchmarks).
pub fn reset() {
    sink::reset();
}

/// Emits an event at an explicit [`Level`]. Prefer the level-named macros
/// ([`tinfo!`], [`tdebug!`], …) which skip formatting entirely when no
/// sink listens at that level.
#[macro_export]
macro_rules! tevent {
    ($level:expr, $target:expr, $($arg:tt)+) => {
        if $crate::enabled($level) {
            $crate::sink::emit($level, $target, format!($($arg)+));
        }
    };
}

/// Emits an [`Level::Error`] event.
#[macro_export]
macro_rules! terror {
    ($target:expr, $($arg:tt)+) => { $crate::tevent!($crate::Level::Error, $target, $($arg)+) };
}

/// Emits a [`Level::Warn`] event.
#[macro_export]
macro_rules! twarn {
    ($target:expr, $($arg:tt)+) => { $crate::tevent!($crate::Level::Warn, $target, $($arg)+) };
}

/// Emits a [`Level::Info`] event.
#[macro_export]
macro_rules! tinfo {
    ($target:expr, $($arg:tt)+) => { $crate::tevent!($crate::Level::Info, $target, $($arg)+) };
}

/// Emits a [`Level::Debug`] event.
#[macro_export]
macro_rules! tdebug {
    ($target:expr, $($arg:tt)+) => { $crate::tevent!($crate::Level::Debug, $target, $($arg)+) };
}

/// Emits a [`Level::Trace`] event.
#[macro_export]
macro_rules! ttrace {
    ($target:expr, $($arg:tt)+) => { $crate::tevent!($crate::Level::Trace, $target, $($arg)+) };
}
