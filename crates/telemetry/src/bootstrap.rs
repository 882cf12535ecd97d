//! One-call wiring for binaries: a level-filtered stderr sink, an
//! optional JSON-lines trace file, and an optional metrics snapshot
//! written once, when the run ends. The `enld` CLI parses `--log-level` /
//! `--trace-out` / `--metrics-out` into a [`TelemetryConfig`], calls
//! [`TelemetryConfig::install`] to get a [`Telemetry`] handle, and calls
//! [`Telemetry::finish`] (or relies on its `Drop`) when the run ends —
//! including error paths, so trace files are never left truncated
//! mid-record.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::level::Level;
use crate::metrics;
use crate::sink::{flush, install, JsonlSink, StderrSink};

/// Sink configuration parsed from command-line flags.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Verbosity of the human-readable stderr sink.
    pub log_level: Level,
    /// Where to write the JSON-lines trace (always at [`Level::Trace`]);
    /// `None` disables the file sink.
    pub trace_out: Option<PathBuf>,
    /// Where to write the metrics snapshot at exit; `None` skips it. The
    /// write goes to a `.tmp` sibling first and is renamed into place, so
    /// readers never observe a half-written snapshot.
    pub metrics_out: Option<PathBuf>,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self { log_level: Level::Info, trace_out: None, metrics_out: None }
    }
}

impl TelemetryConfig {
    /// Installs the configured sinks.
    ///
    /// # Errors
    /// Fails when the trace file cannot be created.
    pub fn install(&self) -> io::Result<Telemetry> {
        install(Arc::new(StderrSink::new(self.log_level)));
        if let Some(path) = &self.trace_out {
            install(Arc::new(JsonlSink::create(path, Level::Trace)?));
        }
        Ok(Telemetry { metrics_out: self.metrics_out.clone() })
    }
}

/// Writes the global metrics snapshot to `path` with
/// `enld_chaos::durable::write_atomic` (failpoints
/// `telemetry.snapshot.write` / `.rename`).
fn write_snapshot_atomic(path: &Path) -> io::Result<()> {
    // Fold the current resident set size into the snapshot.
    crate::procinfo::sample(metrics::global());
    let snapshot = metrics::global().snapshot_json();
    enld_chaos::durable::write_atomic(path, snapshot.as_bytes(), "telemetry.snapshot")
}

/// Live handle returned by [`TelemetryConfig::install`];
/// [`Telemetry::finish`] (idempotent, also run on `Drop`) flushes every
/// sink and writes the snapshot.
pub struct Telemetry {
    /// The snapshot still to write; taken by the first [`Telemetry::finish`].
    metrics_out: Option<PathBuf>,
}

impl Telemetry {
    /// Flushes every sink and writes the metrics snapshot when
    /// configured. Returns the snapshot path if one was written;
    /// subsequent calls only flush and return `None`.
    ///
    /// # Errors
    /// Fails when the snapshot file cannot be written.
    pub fn finish(&mut self) -> io::Result<Option<PathBuf>> {
        flush();
        let Some(path) = self.metrics_out.take() else { return Ok(None) };
        write_snapshot_atomic(&path)?;
        Ok(Some(path))
    }
}

impl Drop for Telemetry {
    fn drop(&mut self) {
        // Flush-on-any-exit: usage errors and `?`-propagated failures
        // still land complete trace records and a final snapshot.
        let _ = self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_info_with_no_files() {
        let cfg = TelemetryConfig::default();
        assert_eq!(cfg.log_level, Level::Info);
        assert!(cfg.trace_out.is_none());
        assert!(cfg.metrics_out.is_none());
    }

    #[test]
    fn finish_without_metrics_path_writes_nothing() {
        let mut telemetry = Telemetry { metrics_out: None };
        assert!(telemetry.finish().expect("flush only").is_none());
    }

    #[test]
    fn finish_is_idempotent_and_snapshot_is_atomic() {
        let dir = std::env::temp_dir().join(format!("enld-bootstrap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("metrics.json");
        let mut telemetry = Telemetry { metrics_out: Some(path.clone()) };
        let written = telemetry.finish().expect("snapshot").expect("path");
        assert_eq!(written, path);
        assert!(path.exists());
        assert!(!path.with_extension("json.tmp").exists(), "tmp file renamed away");
        assert!(telemetry.finish().expect("second finish").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[ignore = "arms process-global failpoints; run serially via the chaos job"]
    fn snapshot_failpoints_surface_as_io_errors_and_leave_no_torn_file() {
        let dir = std::env::temp_dir().join(format!("enld-snapfp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("metrics.json");
        {
            let _guard = enld_chaos::scenario_with("telemetry.snapshot.write=error@nth:1");
            let err = write_snapshot_atomic(&path).expect_err("write failpoint fires");
            assert!(err.to_string().contains("telemetry.snapshot.write"), "{err}");
            assert!(!path.exists(), "failed write must not publish a snapshot");
        }
        {
            // A failed rename publishes nothing and cleans up its tmp file.
            let _guard = enld_chaos::scenario_with("telemetry.snapshot.rename=error@nth:1");
            let err = write_snapshot_atomic(&path).expect_err("rename failpoint fires");
            assert!(err.to_string().contains("telemetry.snapshot.rename"), "{err}");
            assert!(!path.exists(), "interrupted rename must not publish a snapshot");
            assert!(!dir.join("metrics.json.tmp").exists(), "failed rename leaves no tmp file");
        }
        write_snapshot_atomic(&path).expect("clean write succeeds");
        assert!(path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
