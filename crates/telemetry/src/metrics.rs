//! Lock-cheap metrics: counters, gauges, and fixed-bucket histograms.
//!
//! Handles are `Arc`s over atomics: after the one-time name lookup (a
//! short-lived `RwLock` on the registry map), recording is wait-free
//! atomic arithmetic, safe to leave in hot loops. Snapshots serialise
//! every metric to a single JSON document with p50/p95/p99 summaries for
//! histograms.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

use crate::json::{f64_token, JsonObject};

/// Monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Last-write-wins floating-point gauge.
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Self { bits: AtomicU64::new(0f64.to_bits()) }
    }
}

impl Gauge {
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Atomically adds `delta` (negative to subtract). Unlike
    /// read-then-[`set`](Self::set), concurrent adders cannot lose or
    /// duplicate each other's updates, so level-style gauges (queue
    /// depth) stay exact under contention.
    pub fn add(&self, delta: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self.bits.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Atomic f64 accumulator (CAS loop; contention here is negligible for
/// telemetry workloads).
#[derive(Debug)]
struct AtomicF64 {
    bits: AtomicU64,
}

impl AtomicF64 {
    fn new(v: f64) -> Self {
        Self { bits: AtomicU64::new(v.to_bits()) }
    }

    fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    fn update(&self, f: impl Fn(f64) -> f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = f(f64::from_bits(cur)).to_bits();
            match self.bits.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
    }
}

/// Fixed-bucket histogram with quantile estimation.
///
/// `bounds` are the inclusive upper edges of the first `bounds.len()`
/// buckets; one overflow bucket catches everything larger. Quantiles are
/// estimated by linear interpolation inside the winning bucket and
/// clamped to the observed min/max, so they are exact at the extremes
/// and bucket-resolution accurate in between.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<AtomicU64>,
    total: AtomicU64,
    sum: AtomicF64,
    min: AtomicF64,
    max: AtomicF64,
}

/// Point-in-time summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    pub count: u64,
    pub sum: f64,
    pub mean: f64,
    pub min: f64,
    pub max: f64,
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
}

impl HistogramSummary {
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.u64_field("count", self.count)
            .f64_field("sum", self.sum)
            .f64_field("mean", self.mean)
            .f64_field("min", self.min)
            .f64_field("max", self.max)
            .f64_field("p50", self.p50)
            .f64_field("p95", self.p95)
            .f64_field("p99", self.p99);
        o.finish()
    }
}

impl Histogram {
    /// # Panics
    /// Panics if `bounds` is empty or not strictly increasing.
    pub fn new(bounds: Vec<f64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let counts = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Self {
            bounds,
            counts,
            total: AtomicU64::new(0),
            sum: AtomicF64::new(0.0),
            min: AtomicF64::new(f64::INFINITY),
            max: AtomicF64::new(f64::NEG_INFINITY),
        }
    }

    /// Exponential bounds suited to durations in **seconds**: 1µs
    /// doubling up to ~4.5 hours (35 buckets + overflow).
    pub fn duration_bounds() -> Vec<f64> {
        let mut bounds = Vec::with_capacity(35);
        let mut b = 1e-6;
        for _ in 0..35 {
            bounds.push(b);
            b *= 2.0;
        }
        bounds
    }

    /// Exponential bounds suited to sizes/counts: 1 doubling up to ~1M.
    pub fn count_bounds() -> Vec<f64> {
        (0..21).map(|k| f64::from(1u32 << k)).collect()
    }

    /// Records one observation. Non-finite values are ignored.
    pub fn record(&self, v: f64) {
        self.record_n(v, 1);
    }

    /// Records `n` observations of the same value at once — a batch
    /// reported by its mean keeps the histogram's count and sum equal to
    /// the per-item totals without `n` trips through the atomics.
    pub fn record_n(&self, v: f64, n: u64) {
        if !v.is_finite() || n == 0 {
            return;
        }
        let idx = self.bounds.partition_point(|&b| b < v);
        self.counts[idx].fetch_add(n, Ordering::Relaxed);
        self.total.fetch_add(n, Ordering::Relaxed);
        self.sum.update(|s| s + v * n as f64);
        self.min.update(|m| m.min(v));
        self.max.update(|m| m.max(v));
    }

    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> f64 {
        self.sum.get()
    }

    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    /// Estimated `q`-quantile (`0.0..=1.0`); 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let (min, max) = (self.min.get(), self.max.get());
        let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, c) in self.counts.iter().enumerate() {
            let c = c.load(Ordering::Relaxed);
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let lower = if idx == 0 { min } else { self.bounds[idx - 1] };
                let upper = if idx < self.bounds.len() { self.bounds[idx] } else { max };
                let frac = (rank - seen) as f64 / c as f64;
                let est = lower + (upper - lower) * frac;
                return est.clamp(min, max);
            }
            seen += c;
        }
        max
    }

    /// Inclusive upper edges of the non-overflow buckets.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket observation counts; the last entry is the overflow
    /// (+Inf) bucket, so the result has `bounds().len() + 1` entries.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }

    pub fn summary(&self) -> HistogramSummary {
        let count = self.count();
        let empty = count == 0;
        HistogramSummary {
            count,
            sum: self.sum(),
            mean: self.mean(),
            min: if empty { 0.0 } else { self.min.get() },
            max: if empty { 0.0 } else { self.max.get() },
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// Named metrics, snapshotable as JSON. Most code uses the process-wide
/// [`global`] registry; tests can build private ones.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: RwLock<Inner>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns (creating on first use) the counter called `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self.read().counters.get(name) {
            return c.clone();
        }
        self.write().counters.entry(name.to_owned()).or_default().clone()
    }

    /// Returns (creating on first use) the gauge called `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(g) = self.read().gauges.get(name) {
            return g.clone();
        }
        self.write().gauges.entry(name.to_owned()).or_default().clone()
    }

    /// Returns (creating on first use, with [`Histogram::duration_bounds`])
    /// the histogram called `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with(name, Histogram::duration_bounds)
    }

    /// Like [`MetricsRegistry::histogram`] but with custom bounds on first
    /// use (an existing histogram keeps its original bounds).
    pub fn histogram_with(&self, name: &str, bounds: impl FnOnce() -> Vec<f64>) -> Arc<Histogram> {
        if let Some(h) = self.read().histograms.get(name) {
            return h.clone();
        }
        self.write()
            .histograms
            .entry(name.to_owned())
            .or_insert_with(|| Arc::new(Histogram::new(bounds())))
            .clone()
    }

    /// Point-in-time listing of every counter, sorted by name.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.read().counters.iter().map(|(n, c)| (n.clone(), c.get())).collect()
    }

    /// Point-in-time listing of every gauge, sorted by name.
    pub fn gauges(&self) -> Vec<(String, f64)> {
        self.read().gauges.iter().map(|(n, g)| (n.clone(), g.get())).collect()
    }

    /// Handles to every histogram, sorted by name.
    pub fn histograms(&self) -> Vec<(String, Arc<Histogram>)> {
        self.read().histograms.iter().map(|(n, h)| (n.clone(), h.clone())).collect()
    }

    /// Drops every metric (tests/benchmarks).
    pub fn clear(&self) {
        let mut inner = self.write();
        inner.counters.clear();
        inner.gauges.clear();
        inner.histograms.clear();
    }

    /// Serialises every metric:
    /// `{"counters":{..},"gauges":{..},"histograms":{name:{count,..,p99}}}`.
    /// Deterministic key order (sorted by name); always valid JSON.
    pub fn snapshot_json(&self) -> String {
        let inner = self.read();
        let mut counters = JsonObject::new();
        for (name, c) in &inner.counters {
            counters.u64_field(name, c.get());
        }
        let mut gauges = JsonObject::new();
        for (name, g) in &inner.gauges {
            gauges.raw_field(name, &f64_token(g.get()));
        }
        let mut histograms = JsonObject::new();
        for (name, h) in &inner.histograms {
            histograms.raw_field(name, &h.summary().to_json());
        }
        let mut o = JsonObject::new();
        o.raw_field("counters", &counters.finish())
            .raw_field("gauges", &gauges.finish())
            .raw_field("histograms", &histograms.finish());
        o.finish()
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, Inner> {
        self.inner.read().expect("metrics registry poisoned")
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, Inner> {
        self.inner.write().expect("metrics registry poisoned")
    }
}

/// The process-wide registry the instrumented pipeline records into.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("hits");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("hits").get(), 5);
        let g = reg.gauge("depth");
        g.set(2.5);
        assert_eq!(reg.gauge("depth").get(), 2.5);
        g.add(1.0);
        g.add(-3.0);
        assert_eq!(reg.gauge("depth").get(), 0.5);
    }

    #[test]
    fn gauge_add_is_exact_under_contention() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("depth");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let g = g.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        g.add(1.0);
                        g.add(-1.0);
                    }
                    g.add(1.0);
                });
            }
        });
        assert_eq!(g.get(), 4.0, "no increments may be lost");
    }

    #[test]
    fn histogram_quantiles_bracket_the_data() {
        let h = Histogram::new(Histogram::duration_bounds());
        // 1ms..100ms uniformly.
        for i in 1..=100 {
            h.record(i as f64 / 1000.0);
        }
        assert_eq!(h.count(), 100);
        assert!((h.mean() - 0.0505).abs() < 1e-9);
        let s = h.summary();
        assert_eq!(s.min, 0.001);
        assert_eq!(s.max, 0.1);
        assert!(s.p50 >= 0.02 && s.p50 <= 0.09, "p50 {}", s.p50);
        assert!(s.p95 >= s.p50 && s.p99 >= s.p95);
        assert!(s.p99 <= s.max + 1e-12);
    }

    #[test]
    fn histogram_single_value() {
        let h = Histogram::new(vec![1.0, 2.0]);
        h.record(1.5);
        let s = h.summary();
        assert_eq!(s.count, 1);
        assert_eq!(s.min, 1.5);
        assert_eq!(s.max, 1.5);
        assert_eq!(s.p50, 1.5);
        assert_eq!(s.p99, 1.5);
    }

    #[test]
    fn histogram_overflow_bucket() {
        let h = Histogram::new(vec![1.0]);
        h.record(1e6);
        h.record(2e6);
        assert_eq!(h.quantile(0.99), 2e6);
        assert_eq!(h.summary().max, 2e6);
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        let h = Histogram::new(vec![1.0, 2.0]);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile(q), 0.0);
        }
    }

    #[test]
    fn quantile_with_all_mass_in_overflow_bucket() {
        // Every observation lands past the last bound; interpolation must
        // use the observed min/max, not the (finite) bucket edges.
        let h = Histogram::new(vec![1.0, 2.0]);
        for v in [100.0, 200.0, 400.0] {
            h.record(v);
        }
        assert_eq!(h.bucket_counts(), vec![0, 0, 3]);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            let est = h.quantile(q);
            assert!((100.0..=400.0).contains(&est), "q={q} est={est}");
        }
        assert_eq!(h.quantile(1.0), 400.0);
    }

    #[test]
    fn quantile_single_sample_is_exact_at_every_q() {
        let h = Histogram::new(Histogram::duration_bounds());
        h.record(0.037);
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0.037, "q={q}");
        }
    }

    #[test]
    fn quantile_clamps_q_outside_unit_interval() {
        let h = Histogram::new(vec![1.0, 2.0, 4.0]);
        for v in [0.5, 1.5, 3.0] {
            h.record(v);
        }
        // q below 0 behaves like q=0, q above 1 like q=1, and both stay
        // inside the observed range.
        assert_eq!(h.quantile(-1.0), h.quantile(0.0));
        assert_eq!(h.quantile(2.0), h.quantile(1.0));
        assert!(h.quantile(-1.0) >= 0.5);
        assert_eq!(h.quantile(2.0), 3.0);
    }

    #[test]
    fn histogram_ignores_non_finite() {
        let h = Histogram::new(vec![1.0]);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 0);
        assert_eq!(h.summary().p50, 0.0);
    }

    #[test]
    fn record_n_matches_n_single_records() {
        let (batch, single) = (Histogram::new(vec![1.0, 4.0]), Histogram::new(vec![1.0, 4.0]));
        batch.record_n(2.0, 3);
        batch.record_n(9.0, 0);
        for _ in 0..3 {
            single.record(2.0);
        }
        assert_eq!(batch.count(), 3);
        assert_eq!(batch.bucket_counts(), single.bucket_counts());
        assert_eq!(batch.summary(), single.summary());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_rejected() {
        let _ = Histogram::new(vec![2.0, 1.0]);
    }

    #[test]
    fn bounds_presets_are_valid() {
        for bounds in [Histogram::duration_bounds(), Histogram::count_bounds()] {
            assert!(bounds.windows(2).all(|w| w[0] < w[1]), "{bounds:?}");
        }
        assert_eq!(Histogram::count_bounds()[0], 1.0);
        assert!(Histogram::duration_bounds()[0] == 1e-6);
        assert!(*Histogram::duration_bounds().last().unwrap() > 10_000.0);
    }

    #[test]
    fn snapshot_is_deterministic_json() {
        let reg = MetricsRegistry::new();
        reg.counter("b").add(2);
        reg.counter("a").inc();
        reg.gauge("g").set(0.5);
        reg.histogram("h").record(0.01);
        let snap = reg.snapshot_json();
        // Sorted keys, all three sections present.
        let a = snap.find("\"a\":1").expect("counter a");
        let b = snap.find("\"b\":2").expect("counter b");
        assert!(a < b);
        assert!(snap.contains("\"gauges\":{\"g\":0.5}"));
        assert!(snap.contains("\"p99\":"));
        // Structurally valid: balanced braces outside strings.
        let mut depth = 0i32;
        let mut in_str = false;
        let mut esc = false;
        for ch in snap.chars() {
            if esc {
                esc = false;
                continue;
            }
            match ch {
                '\\' if in_str => esc = true,
                '"' => in_str = !in_str,
                '{' if !in_str => depth += 1,
                '}' if !in_str => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
        assert!(!in_str);
    }

    #[test]
    fn clear_empties_the_registry() {
        let reg = MetricsRegistry::new();
        reg.counter("x").inc();
        reg.clear();
        assert_eq!(reg.snapshot_json(), "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
    }

    #[test]
    fn histogram_with_keeps_first_bounds() {
        let reg = MetricsRegistry::new();
        let h1 = reg.histogram_with("h", || vec![1.0]);
        let h2 = reg.histogram_with("h", || vec![5.0, 6.0]);
        assert!(Arc::ptr_eq(&h1, &h2));
    }
}
