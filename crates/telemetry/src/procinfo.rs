//! The process's resident set size, sourced from `/proc/self/statm`.
//!
//! [`sample`] refreshes the `process.rss_bytes` gauge in a
//! [`MetricsRegistry`], so the metrics snapshot and the `/metrics`
//! exposition carry memory alongside pipeline metrics. Reading `/proc`
//! keeps the crate dependency-free; on platforms without procfs the
//! sampler is a graceful no-op (the gauge simply never appears).

use crate::metrics::MetricsRegistry;

/// Resident set size in bytes, from `/proc/self/statm`. `None` when
/// procfs is unavailable (non-Linux) or unparsable.
#[cfg(target_os = "linux")]
pub fn read_rss_bytes() -> Option<u64> {
    parse_statm(&std::fs::read_to_string("/proc/self/statm").ok()?)
}

/// Non-Linux stub: procfs is unavailable, so the gauge is skipped.
#[cfg(not(target_os = "linux"))]
pub fn read_rss_bytes() -> Option<u64> {
    None
}

/// Parses a `statm` payload, whose field 2 is RSS in pages.
#[allow(dead_code)] // the non-Linux build keeps the parser for tests
fn parse_statm(statm: &str) -> Option<u64> {
    // Kernels report statm in pages; ENLD targets 4 KiB-page platforms
    // and std exposes no sysconf, so the page size is fixed here.
    const PAGE_BYTES: u64 = 4096;
    let resident_pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(resident_pages * PAGE_BYTES)
}

/// Refreshes the `process.rss_bytes` gauge in `registry` from procfs;
/// no-op where [`read_rss_bytes`] returns `None`.
pub fn sample(registry: &MetricsRegistry) {
    if let Some(rss) = read_rss_bytes() {
        registry.gauge("process.rss_bytes").set(rss as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_canonical_proc_payloads() {
        assert_eq!(parse_statm("12345 678 90 12 0 345 0\n"), Some(678 * 4096));
    }

    #[test]
    fn malformed_payloads_yield_none() {
        assert!(parse_statm("").is_none());
        assert!(parse_statm("1").is_none());
        assert!(parse_statm("1 not-a-number").is_none());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn live_read_reports_plausible_values() {
        let rss = read_rss_bytes().expect("/proc/self/statm readable on Linux");
        assert!(rss > 0);
    }

    #[test]
    fn sample_sets_gauges() {
        let reg = MetricsRegistry::new();
        sample(&reg);
        if read_rss_bytes().is_some() {
            assert!(reg.gauge("process.rss_bytes").get() > 0.0);
        } else {
            assert!(reg.gauges().is_empty(), "no gauges registered off-Linux");
        }
    }
}
