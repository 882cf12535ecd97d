//! Span-file profiling: per-site aggregates, folded flamegraph stacks,
//! and critical-path extraction.
//!
//! Works on [`OwnedSpan`]s (as parsed back from a `--trace-out` JSONL
//! file or pulled from a [`crate::chrome_trace::TraceBuffer`]) and
//! answers the question an end-to-end benchmark cannot: *which span
//! site* is responsible for a regression. Self-time attributes each
//! microsecond to exactly one site; the critical path walks the chain of
//! latest-ending children from a trace's root, so its contributions
//! telescope to the root's wall-clock — the spans that actually bound
//! end-to-end latency at a given thread count.

use std::collections::{BTreeMap, HashMap};

use crate::chrome_trace::OwnedSpan;

/// Aggregate statistics for one span site (all spans sharing a name).
#[derive(Debug, Clone, PartialEq)]
pub struct SiteStats {
    pub name: String,
    pub count: u64,
    /// Sum of span durations (inclusive of children).
    pub total_us: u64,
    /// Sum of self-times: duration minus time covered by child spans.
    /// With parallel children self-time saturates at zero rather than
    /// going negative.
    pub self_us: u64,
    pub max_us: u64,
}

fn children_index(spans: &[OwnedSpan]) -> HashMap<u64, Vec<usize>> {
    let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(i);
        }
    }
    children
}

/// Self-time of every span: duration minus the summed duration of its
/// direct children, floored at zero (children running in parallel on
/// other threads can sum past the parent).
fn self_times(spans: &[OwnedSpan]) -> Vec<u64> {
    let children = children_index(spans);
    spans
        .iter()
        .map(|s| {
            let covered: u64 =
                children.get(&s.id).map(|c| c.iter().map(|&i| spans[i].dur_us).sum()).unwrap_or(0);
            s.dur_us.saturating_sub(covered)
        })
        .collect()
}

/// Per-site aggregates over `spans`, sorted by self-time descending.
pub fn aggregate_sites(spans: &[OwnedSpan]) -> Vec<SiteStats> {
    let selfs = self_times(spans);
    let mut sites: BTreeMap<&str, SiteStats> = BTreeMap::new();
    for (s, &self_us) in spans.iter().zip(&selfs) {
        let e = sites.entry(&s.name).or_insert_with(|| SiteStats {
            name: s.name.clone(),
            count: 0,
            total_us: 0,
            self_us: 0,
            max_us: 0,
        });
        e.count += 1;
        e.total_us += s.dur_us;
        e.self_us += self_us;
        e.max_us = e.max_us.max(s.dur_us);
    }
    let mut out: Vec<SiteStats> = sites.into_values().collect();
    out.sort_by(|a, b| b.self_us.cmp(&a.self_us).then_with(|| a.name.cmp(&b.name)));
    out
}

/// Folded flamegraph stacks: one `root;child;…;leaf <self_us>` line per
/// distinct path with nonzero self-time, sorted by path. Feed to any
/// `flamegraph.pl`-compatible renderer (or speedscope).
pub fn folded_stacks(spans: &[OwnedSpan]) -> String {
    let by_id: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let selfs = self_times(spans);
    let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if selfs[i] == 0 {
            continue;
        }
        // Walk ancestors to the root; cap the walk so a malformed file
        // with a parent cycle cannot hang the profiler.
        let mut path = vec![s.name.as_str()];
        let mut cur = s.parent;
        let mut hops = 0;
        while let Some(p) = cur.and_then(|p| by_id.get(&p)) {
            path.push(spans[*p].name.as_str());
            cur = spans[*p].parent;
            hops += 1;
            if hops > 512 {
                break;
            }
        }
        path.reverse();
        *stacks.entry(path.join(";")).or_insert(0) += selfs[i];
    }
    let mut out = String::new();
    for (path, v) in stacks {
        out.push_str(&path);
        out.push(' ');
        out.push_str(&v.to_string());
        out.push('\n');
    }
    out
}

/// One step on a trace's critical path.
#[derive(Debug, Clone)]
pub struct PathStep {
    pub name: String,
    pub id: u64,
    pub tid: u64,
    /// The span's full duration.
    pub dur_us: u64,
    /// The step's exclusive contribution to the path: its duration minus
    /// the duration of the child the path descends into (the full
    /// duration for the final step). Contributions telescope, so they
    /// sum to the root span's wall-clock.
    pub contribution_us: u64,
}

/// The trace id (== root span id) of the slowest root span in `spans`.
pub fn slowest_trace(spans: &[OwnedSpan]) -> Option<u64> {
    spans.iter().filter(|s| s.id == s.trace).max_by_key(|s| s.dur_us).map(|s| s.trace)
}

/// Critical path of trace `trace_id`: starting at the root span, repeatedly
/// descend into the latest-*ending* child — the one that was still running
/// closest to the parent's completion and therefore bounded it. Empty when
/// the root span is absent.
pub fn critical_path(spans: &[OwnedSpan], trace_id: u64) -> Vec<PathStep> {
    let trace: Vec<&OwnedSpan> = spans.iter().filter(|s| s.trace == trace_id).collect();
    let mut children: HashMap<u64, Vec<&OwnedSpan>> = HashMap::new();
    for s in &trace {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    let Some(mut cur) = trace.iter().find(|s| s.id == trace_id).copied() else {
        return Vec::new();
    };
    let mut path = Vec::new();
    loop {
        let next = children
            .get(&cur.id)
            .and_then(|c| c.iter().max_by_key(|s| (s.end_us(), s.dur_us)).copied());
        let descend_dur = next.map(|n| n.dur_us).unwrap_or(0);
        path.push(PathStep {
            name: cur.name.clone(),
            id: cur.id,
            tid: cur.tid,
            dur_us: cur.dur_us,
            contribution_us: cur.dur_us.saturating_sub(descend_dur),
        });
        match next {
            Some(n) if path.len() <= 512 => cur = n,
            _ => return path,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(
        id: u64,
        parent: Option<u64>,
        trace: u64,
        tid: u64,
        name: &str,
        start: u64,
        dur: u64,
    ) -> OwnedSpan {
        OwnedSpan {
            id,
            parent,
            trace,
            tid,
            name: name.to_owned(),
            start_us: start,
            dur_us: dur,
            fields: Vec::new(),
        }
    }

    fn sample() -> Vec<OwnedSpan> {
        vec![
            s(1, None, 1, 1, "detect", 0, 100),
            s(2, Some(1), 1, 1, "setup", 0, 20),
            s(3, Some(1), 1, 2, "step", 20, 70),
            s(4, Some(3), 1, 2, "knn", 25, 40),
            s(5, Some(1), 1, 1, "step", 91, 5),
        ]
    }

    #[test]
    fn site_aggregation_computes_self_and_total() {
        let sites = aggregate_sites(&sample());
        let detect = sites.iter().find(|x| x.name == "detect").expect("detect site");
        // 100 − (20 + 70 + 5) children = 5 self.
        assert_eq!(detect.self_us, 5);
        assert_eq!(detect.total_us, 100);
        assert_eq!(detect.count, 1);
        let step = sites.iter().find(|x| x.name == "step").expect("step site");
        assert_eq!(step.count, 2);
        assert_eq!(step.total_us, 75);
        // step#3 self = 70 − 40; step#5 self = 5.
        assert_eq!(step.self_us, 35);
        assert_eq!(step.max_us, 70);
        // Sorted by self-time descending.
        assert!(sites.windows(2).all(|w| w[0].self_us >= w[1].self_us));
    }

    #[test]
    fn parallel_children_do_not_underflow_self_time() {
        // Two children run concurrently; their sum exceeds the parent.
        let spans = vec![
            s(1, None, 1, 1, "root", 0, 50),
            s(2, Some(1), 1, 2, "a", 0, 40),
            s(3, Some(1), 1, 3, "b", 0, 40),
        ];
        let root = &aggregate_sites(&spans)[..];
        let root = root.iter().find(|x| x.name == "root").unwrap();
        assert_eq!(root.self_us, 0);
    }

    #[test]
    fn folded_stacks_join_paths_with_semicolons() {
        let folded = folded_stacks(&sample());
        assert!(folded.contains("detect;setup 20\n"));
        assert!(folded.contains("detect;step;knn 40\n"));
        assert!(folded.contains("detect;step 35\n"));
        assert!(folded.contains("detect 5\n"));
    }

    #[test]
    fn critical_path_telescopes_to_root_duration() {
        let spans = sample();
        assert_eq!(slowest_trace(&spans), Some(1));
        let path = critical_path(&spans, 1);
        let names: Vec<&str> = path.iter().map(|p| p.name.as_str()).collect();
        // Latest-ending child of detect is step#5 (ends at 96).
        assert_eq!(names, vec!["detect", "step"]);
        let sum: u64 = path.iter().map(|p| p.contribution_us).sum();
        assert_eq!(sum, 100, "contributions telescope to the root wall-clock");
    }

    #[test]
    fn critical_path_handles_missing_root() {
        assert!(critical_path(&sample(), 99).is_empty());
        assert_eq!(slowest_trace(&[]), None);
    }
}
