//! Harness-side tracing: a span around each call the harness makes into
//! a crate, kept in memory and written out once when the run ends.
//!
//! These spans are recorded by benchmark code, never by the program; a
//! layer's time is therefore what its public call cost the caller. Every
//! span names the layer (crate) it entered, its parent span, and the
//! request (arrival submission) it belongs to, so one request's spans
//! share an identifier. A layer's self time is its span's duration minus
//! the part its child spans cover.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// Arrival submission this span served; `None` for set-up and probes.
    pub request: Option<u64>,
    /// Workspace crate the call entered (`core`, `nn`, `server`, …).
    pub layer: &'static str,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Counts recorded at the same boundary (rows, bytes, …).
    pub counts: Vec<(&'static str, f64)>,
}

/// Open-span handle returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: Option<u64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, epoch: Instant::now(), spans: Vec::new(), stack: Vec::new(), request: None }
    }

    /// Switches recording on or off (the traced run turns it off around
    /// its untraced reference pass).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Spans begun from now on belong to `request`.
    pub fn set_request(&mut self, request: Option<u64>) {
        self.request = request;
    }

    fn micros(&self, at: Instant) -> f64 {
        at.duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Opens a span whose parent is the innermost open span.
    pub fn begin(&mut self, layer: &'static str, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let start_us = self.micros(Instant::now());
        self.spans.push(Span {
            id: idx as u64 + 1,
            parent: self.stack.last().map(|&p| self.spans[p].id),
            request: self.request,
            layer,
            name,
            start_us,
            end_us: start_us,
            counts: Vec::new(),
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes `open` (and anything left open inside it), attaching counts.
    pub fn end(&mut self, open: Open, counts: &[(&'static str, f64)]) {
        let Some(idx) = open.0 else { return };
        let now = self.micros(Instant::now());
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_us = now;
            if top == idx {
                break;
            }
        }
        self.spans[idx].counts.extend_from_slice(counts);
    }

    /// Records a span whose interval was observed elsewhere (a pool
    /// worker reports its wait and service seconds with the completion).
    pub fn record(
        &mut self,
        layer: &'static str,
        name: &'static str,
        request: u64,
        start: Instant,
        secs: f64,
        parent: Option<u64>,
    ) -> Option<u64> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len() as u64 + 1;
        let start_us = self.micros(start);
        self.spans.push(Span {
            id,
            parent,
            request: Some(request),
            layer,
            name,
            start_us,
            end_us: start_us + secs * 1e6,
            counts: Vec::new(),
        });
        Some(id)
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds per layer not covered by child spans, largest first.
    pub fn self_time_by_layer(&self) -> Vec<(&'static str, f64)> {
        let mut child_us = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p as usize - 1] += s.end_us - s.start_us;
            }
        }
        let mut by_layer: Vec<(&'static str, f64)> = Vec::new();
        for (s, covered) in self.spans.iter().zip(&child_us) {
            let own = ((s.end_us - s.start_us) - covered).max(0.0) / 1e6;
            match by_layer.iter_mut().find(|(l, _)| *l == s.layer) {
                Some(entry) => entry.1 += own,
                None => by_layer.push((s.layer, own)),
            }
        }
        by_layer.sort_by(|a, b| b.1.total_cmp(&a.1));
        by_layer
    }

    /// Writes one JSON object per span, in start order.
    pub fn dump_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let mut fields = vec![
                ("id".to_owned(), Json::Num(s.id as f64)),
                ("parent".to_owned(), s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                ("request".to_owned(), s.request.map_or(Json::Null, |r| Json::Num(r as f64))),
                ("layer".to_owned(), Json::str(s.layer)),
                ("name".to_owned(), Json::str(s.name)),
                ("start_us".to_owned(), Json::Num(s.start_us)),
                ("end_us".to_owned(), Json::Num(s.end_us)),
            ];
            fields.extend(s.counts.iter().map(|&(k, v)| (k.to_owned(), Json::Num(v))));
            writeln!(out, "{}", Json::Obj(fields).encode())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.set_request(Some(3));
        let outer = t.begin("core", "detect");
        let inner = t.begin("nn", "infer");
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.end(inner, &[("rows", 10.0)]);
        t.end(outer, &[]);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!(spans[0].request, Some(3));
        assert_eq!(spans[1].counts, vec![("rows", 10.0)]);
        assert!(spans[0].start_us <= spans[1].start_us && spans[1].end_us <= spans[0].end_us);
        let by_layer = t.self_time_by_layer();
        assert_eq!(by_layer[0].0, "nn");
        let core = by_layer.iter().find(|(l, _)| *l == "core").unwrap().1;
        assert!(core < 0.004, "core self time {core} should exclude the nn child");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("core", "detect");
        t.end(s, &[("x", 1.0)]);
        assert!(t.record("server", "wait", 1, Instant::now(), 0.1, None).is_none());
        assert!(t.spans().is_empty());
    }
}
