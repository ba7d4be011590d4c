//! Typed metrics registry with per-worker sharded recording.
//!
//! Three metric kinds, all cheap enough for the engine's hot path:
//!
//! * [`Counter`] — monotonically increasing `u64`. Each counter owns one
//!   cache-line-padded atomic cell per shard; workers add to *their* cell
//!   so counters never bounce a line between cores. Reads sum the cells.
//! * [`Gauge`] — a point-in-time `i64` (queue depth, in-flight requests).
//! * [`Histogram`] — lock-free HDR-style latency histogram sharing the
//!   exact bucket layout of [`LatencyHistogram`], recorded with atomic
//!   bucket increments and snapshotted (merged across all recordings) into
//!   a plain [`LatencyHistogram`] for percentile math.
//!
//! Snapshots never take the recording path's locks — there are none; every
//! record is a handful of relaxed atomic ops and every snapshot is a
//! relaxed read sweep. Rendering is deterministic: metrics are kept in
//! `BTreeMap`s keyed by name, and the exposition carries no timestamps, so
//! two snapshots with no traffic in between are bit-identical.
//!
//! Two export formats:
//!
//! * [`MetricsRegistry::render_prometheus`] — Prometheus text exposition
//!   (`# TYPE` headers, `_count`/`_sum` and `quantile` series for
//!   histograms).
//! * [`MetricsRegistry::snapshot_json`] — one JSON object with `counters`,
//!   `gauges`, and `histograms` sections.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::histogram::{self, LatencyHistogram};

/// One atomic counter cell on its own cache line, so per-shard increments
/// from different workers never contend.
#[repr(align(64))]
#[derive(Default)]
struct PaddedCell(AtomicU64);

/// Monotonic counter with one padded cell per shard.
///
/// `shard` is any stable per-worker index (the engine passes the worker
/// id); it is reduced modulo the cell count, so out-of-range shards are
/// safe, just contended.
#[derive(Debug)]
pub struct Counter {
    cells: Vec<PaddedCell>,
}

impl std::fmt::Debug for PaddedCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.load(Ordering::Relaxed).fmt(f)
    }
}

impl Counter {
    fn new(shards: usize) -> Self {
        Self {
            cells: (0..shards.max(1)).map(|_| PaddedCell::default()).collect(),
        }
    }

    /// Adds `n` to the shard's cell.
    pub fn add(&self, shard: usize, n: u64) {
        self.cells[shard % self.cells.len()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one to the shard's cell.
    pub fn inc(&self, shard: usize) {
        self.add(shard, 1);
    }

    /// Sum across all shards.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cells.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }
}

/// Point-in-time signed gauge.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (negative to decrement).
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Lock-free histogram over the [`LatencyHistogram`] bucket layout.
///
/// Recording is wait-free (relaxed bucket increment plus count/sum/min/max
/// updates); [`Histogram::snapshot`] sweeps the buckets into a plain
/// [`LatencyHistogram`]. The nanosecond sum is a `u64` (580 years of
/// accumulated latency before wrapping), widened to `u128` at snapshot
/// time to match [`LatencyHistogram`].
#[derive(Debug)]
pub struct Histogram {
    counts: Vec<AtomicU64>,
    total: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    fn new() -> Self {
        Self {
            counts: (0..histogram::bucket_count())
                .map(|_| AtomicU64::new(0))
                .collect(),
            total: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one nanosecond observation.
    pub fn record(&self, value_ns: u64) {
        self.counts[histogram::bucket_index(value_ns)].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value_ns, Ordering::Relaxed);
        self.min.fetch_min(value_ns, Ordering::Relaxed);
        self.max.fetch_max(value_ns, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Sum of all recorded nanoseconds.
    #[must_use]
    pub fn sum_ns(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded value (0 when empty).
    #[must_use]
    pub fn max_ns(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Merges all recordings into a plain [`LatencyHistogram`].
    ///
    /// Concurrent recorders may land between the bucket sweep and the
    /// total read; the bucket sweep is re-based as the source of truth so
    /// the result is always internally consistent.
    #[must_use]
    pub fn snapshot(&self) -> LatencyHistogram {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        LatencyHistogram::from_parts(
            counts,
            total,
            u128::from(self.sum.load(Ordering::Relaxed)),
            self.min.load(Ordering::Relaxed),
            self.max.load(Ordering::Relaxed),
        )
    }
}

/// Typed registry of named counters, gauges, and histograms.
///
/// Registration takes a write lock once per metric name; after that,
/// holders record through their `Arc` handle without touching the
/// registry. Names must match `[a-zA-Z_:][a-zA-Z0-9_:]*` (the Prometheus
/// metric-name grammar).
#[derive(Debug)]
pub struct MetricsRegistry {
    shards: usize,
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

fn validate(name: &str) {
    let mut chars = name.chars();
    let ok = match chars.next() {
        Some(c) => {
            (c.is_ascii_alphabetic() || c == '_' || c == ':')
                && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        }
        None => false,
    };
    assert!(ok, "invalid metric name '{name}'");
}

/// Formats an `f64` for exposition: integral values without a trailing
/// `.0` would be ambiguous with integers in JSON, so keep Rust's default
/// `Display`, which is shortest-round-trip and deterministic.
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

impl MetricsRegistry {
    /// Creates a registry whose counters carry `shards` padded cells.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        Self {
            shards: shards.max(1),
            counters: RwLock::new(BTreeMap::new()),
            gauges: RwLock::new(BTreeMap::new()),
            histograms: RwLock::new(BTreeMap::new()),
        }
    }

    /// Returns (registering on first use) the counter `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a valid Prometheus metric name.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self.counters.read().expect("metrics lock").get(name) {
            return Arc::clone(c);
        }
        validate(name);
        Arc::clone(
            self.counters
                .write()
                .expect("metrics lock")
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::new(self.shards))),
        )
    }

    /// Returns (registering on first use) the gauge `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a valid Prometheus metric name.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(g) = self.gauges.read().expect("metrics lock").get(name) {
            return Arc::clone(g);
        }
        validate(name);
        Arc::clone(
            self.gauges
                .write()
                .expect("metrics lock")
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Gauge::default())),
        )
    }

    /// Returns (registering on first use) the histogram `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a valid Prometheus metric name.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.histograms.read().expect("metrics lock").get(name) {
            return Arc::clone(h);
        }
        validate(name);
        Arc::clone(
            self.histograms
                .write()
                .expect("metrics lock")
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// Renders the Prometheus text exposition format.
    ///
    /// Metric families are emitted in lexicographic name order with no
    /// timestamps, so the output is deterministic: two renders with no
    /// recording in between are bit-identical. Histograms are exposed as
    /// summaries (`quantile` series plus `_sum`/`_count`), matching how
    /// the repo reports latency elsewhere (p50/p95/p99/p999).
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, c) in self.counters.read().expect("metrics lock").iter() {
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {}", c.get());
        }
        for (name, g) in self.gauges.read().expect("metrics lock").iter() {
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {}", g.get());
        }
        for (name, h) in self.histograms.read().expect("metrics lock").iter() {
            let snap = h.snapshot();
            let _ = writeln!(out, "# TYPE {name} summary");
            for (label, q) in [
                ("0.5", 0.50),
                ("0.95", 0.95),
                ("0.99", 0.99),
                ("0.999", 0.999),
            ] {
                let _ = writeln!(out, "{name}{{quantile=\"{label}\"}} {}", snap.percentile(q));
            }
            let _ = writeln!(out, "{name}_sum {}", h.sum_ns());
            let _ = writeln!(out, "{name}_count {}", snap.count());
        }
        out
    }

    /// Renders one JSON object with `counters`, `gauges`, and
    /// `histograms` sections, deterministically ordered by name.
    #[must_use]
    pub fn snapshot_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        let counters = self.counters.read().expect("metrics lock");
        for (i, (name, c)) in counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{name}\": {}", c.get());
        }
        drop(counters);
        out.push_str("\n  },\n  \"gauges\": {");
        let gauges = self.gauges.read().expect("metrics lock");
        for (i, (name, g)) in gauges.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{name}\": {}", g.get());
        }
        drop(gauges);
        out.push_str("\n  },\n  \"histograms\": {");
        let histograms = self.histograms.read().expect("metrics lock");
        for (i, (name, h)) in histograms.iter().enumerate() {
            let snap = h.snapshot();
            let sep = if i == 0 { "" } else { "," };
            let min = if snap.count() == 0 { 0 } else { snap.min() };
            let _ = write!(
                out,
                "{sep}\n    \"{name}\": {{\"count\": {}, \"sum_ns\": {}, \"min_ns\": {min}, \
                 \"max_ns\": {}, \"mean_ns\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \
                 \"p99_ns\": {}, \"p999_ns\": {}}}",
                snap.count(),
                h.sum_ns(),
                snap.max(),
                fmt_f64(snap.mean()),
                snap.percentile(0.50),
                snap.percentile(0.95),
                snap.percentile(0.99),
                snap.percentile(0.999),
            );
        }
        drop(histograms);
        out.push_str("\n  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_shards_sum_and_handles_are_shared() {
        let reg = MetricsRegistry::new(4);
        let a = reg.counter("requests_total");
        let b = reg.counter("requests_total");
        assert!(Arc::ptr_eq(&a, &b), "same name must yield the same counter");
        for shard in 0..8 {
            a.add(shard, 2);
        }
        a.inc(1);
        assert_eq!(b.get(), 17);
    }

    #[test]
    fn gauge_set_and_add() {
        let reg = MetricsRegistry::new(1);
        let g = reg.gauge("queue_depth");
        g.set(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn histogram_snapshot_matches_plain_recording() {
        let reg = MetricsRegistry::new(2);
        let h = reg.histogram("lat_ns");
        let mut plain = LatencyHistogram::new();
        for v in [1u64, 500, 500, 12_345, 7_000_000] {
            h.record(v);
            plain.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap, plain, "atomic and plain recordings must agree");
        assert_eq!(snap.count(), 5);
        // The saturating top bucket behaves like the plain histogram's
        // (the u64 nanosecond sum may wrap there, so compare percentiles,
        // not the full struct).
        h.record(u64::MAX);
        plain.record(u64::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.max(), u64::MAX);
        assert_eq!(snap.percentile(1.0), plain.percentile(1.0));
        assert_eq!(snap.count(), plain.count());
    }

    #[test]
    fn snapshots_without_traffic_are_bit_identical() {
        let reg = MetricsRegistry::new(2);
        reg.counter("a_total").add(0, 3);
        reg.gauge("depth").set(-1);
        let h = reg.histogram("lat_ns");
        h.record(42);
        h.record(9_999);
        let prom1 = reg.render_prometheus();
        let json1 = reg.snapshot_json();
        let prom2 = reg.render_prometheus();
        let json2 = reg.snapshot_json();
        assert_eq!(prom1, prom2, "exposition must be deterministic");
        assert_eq!(json1, json2, "JSON snapshot must be deterministic");
        h.record(1);
        assert_ne!(reg.render_prometheus(), prom1, "new traffic must show");
    }

    #[test]
    fn prometheus_rendering_shape() {
        let reg = MetricsRegistry::new(1);
        reg.counter("served_total").add(0, 7);
        reg.gauge("in_flight").set(2);
        reg.histogram("wait_ns").record(1000);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE served_total counter\nserved_total 7\n"));
        assert!(text.contains("# TYPE in_flight gauge\nin_flight 2\n"));
        assert!(text.contains("# TYPE wait_ns summary\n"));
        assert!(text.contains("wait_ns{quantile=\"0.5\"}"));
        assert!(text.contains("wait_ns_count 1\n"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.split_whitespace().count(), 2, "bad line: {line}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_are_rejected() {
        MetricsRegistry::new(1).counter("9starts-with-digit");
    }
}
