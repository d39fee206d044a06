//! Named counters, gauges, and fixed-bucket latency histograms.
//!
//! Every metric's hot state is atomic: concurrent writers on any number of
//! threads merge by construction, and exporting is a racy-but-consistent
//! snapshot that never blocks writers. Handles ([`Counter`], [`Gauge`],
//! [`Histogram`]) are `Arc`s handed out by the [`Registry`]; callers on
//! hot paths hold the handle instead of re-resolving the name.
//!
//! Recording is gated on the global collector switch
//! ([`crate::enabled`]): a disabled metric site costs one relaxed atomic
//! load. *Registering* a metric is always allowed (it just names a series;
//! the series stays zero while disabled).

use std::collections::BTreeMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Add `n`. No-op while the collector is disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add 1. No-op while the collector is disabled.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A last-write-wins gauge holding an `f64`.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Set the value. No-op while the collector is disabled.
    #[inline]
    pub fn set(&self, value: f64) {
        if crate::enabled() {
            self.bits.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// Add `delta` (negative to decrement) to the value atomically. Unlike
    /// [`Gauge::set`], increments from independent owners compose — the
    /// transaction layer uses this so one shared gauge stays coherent
    /// across multiple managers. No-op while the collector is disabled.
    #[inline]
    pub fn add(&self, delta: f64) {
        if !crate::enabled() {
            return;
        }
        self.force_add(delta);
    }

    /// Add `delta` regardless of the collector switch. For the closing
    /// half of paired inc/dec accounting: once an increment has been
    /// applied, its matching decrement must land even if the collector
    /// was disabled in between — dropping it would drift the gauge for
    /// the rest of the process.
    #[inline]
    pub fn force_add(&self, delta: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self
                .bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        self.bits.store(0f64.to_bits(), Ordering::Relaxed);
    }
}

/// Default latency bucket upper bounds in nanoseconds: powers of four from
/// 256 ns to ~17 s. Thirteen fixed buckets plus the implicit `+Inf`.
pub const LATENCY_BUCKETS_NS: &[u64] = &[
    256,
    1_024,
    4_096,
    16_384,
    65_536,
    262_144,
    1_048_576,
    4_194_304,
    16_777_216,
    67_108_864,
    268_435_456,
    1_073_741_824,
    4_294_967_296,
];

/// A fixed-bucket histogram. Buckets are cumulative at export time
/// (Prometheus convention) but stored as per-bucket counts internally so
/// concurrent observers need a single `fetch_add`.
#[derive(Debug)]
pub struct Histogram {
    bounds: &'static [u64],
    buckets: Vec<AtomicU64>,
    /// Overflow bucket (`> bounds.last()`, i.e. `+Inf`).
    overflow: AtomicU64,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    fn new(bounds: &'static [u64]) -> Histogram {
        Histogram {
            bounds,
            buckets: bounds.iter().map(|_| AtomicU64::new(0)).collect(),
            overflow: AtomicU64::new(0),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one observation. No-op while the collector is disabled.
    #[inline]
    pub fn observe(&self, value: u64) {
        if !crate::enabled() {
            return;
        }
        match self.bounds.iter().position(|&b| value <= b) {
            Some(i) => &self.buckets[i],
            None => &self.overflow,
        }
        .fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Record the nanoseconds elapsed since `start`.
    #[inline]
    pub fn observe_since(&self, start: Instant) {
        self.observe(start.elapsed().as_nanos() as u64);
    }

    /// Consistent-enough copy of the current state (each cell is read
    /// atomically; cross-cell skew is possible under concurrent writes,
    /// bounded by one in-flight observation per writer).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds,
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            overflow: self.overflow.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }

    /// Fold another histogram's state into this one (bucket-wise adds).
    /// Used to merge per-thread local histograms into a shared family.
    /// Panics if bucket bounds differ.
    pub fn merge_from(&self, other: &HistogramSnapshot) {
        assert_eq!(self.bounds, other.bounds, "histogram bounds must match");
        if !crate::enabled() {
            return;
        }
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            mine.fetch_add(*theirs, Ordering::Relaxed);
        }
        self.overflow.fetch_add(other.overflow, Ordering::Relaxed);
        self.count.fetch_add(other.count, Ordering::Relaxed);
        self.sum.fetch_add(other.sum, Ordering::Relaxed);
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.overflow.store(0, Ordering::Relaxed);
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }
}

/// Point-in-time copy of a [`Histogram`], also the unit of merging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds (shared with the source histogram).
    pub bounds: &'static [u64],
    /// Per-bucket (non-cumulative) counts, aligned with `bounds`.
    pub buckets: Vec<u64>,
    /// Observations above the last bound.
    pub overflow: u64,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Bucket-wise sum of two snapshots with identical bounds.
    pub fn merged(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        assert_eq!(self.bounds, other.bounds, "histogram bounds must match");
        HistogramSnapshot {
            bounds: self.bounds,
            buckets: self
                .buckets
                .iter()
                .zip(&other.buckets)
                .map(|(a, b)| a + b)
                .collect(),
            overflow: self.overflow + other.overflow,
            count: self.count + other.count,
            sum: self.sum + other.sum,
        }
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// One named metric family: help text plus its labeled series. The empty
/// label string is the unlabeled series.
struct Family {
    help: String,
    series: BTreeMap<String, Metric>,
}

/// The metrics registry: name → family → labeled series.
#[derive(Default)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

/// The process-global registry every instrumented crate writes to.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// A metric kind a registry can create by family name.
pub trait Registered: Sized {
    /// Get or create the unlabeled series `name` in `registry`.
    fn register(registry: &Registry, name: &str, help: &str) -> Arc<Self>;
}

impl Registered for Counter {
    fn register(registry: &Registry, name: &str, help: &str) -> Arc<Counter> {
        registry.counter(name, help)
    }
}

impl Registered for Gauge {
    fn register(registry: &Registry, name: &str, help: &str) -> Arc<Gauge> {
        registry.gauge(name, help)
    }
}

impl Registered for Histogram {
    fn register(registry: &Registry, name: &str, help: &str) -> Arc<Histogram> {
        registry.histogram(name, help)
    }
}

/// A handle to one unlabeled family of the global registry that
/// registers itself on first use, so a family nobody has touched stays
/// out of the exposition. Dereferences to the metric; every handle is
/// declared once, in [`crate::names`].
pub struct Lazy<M> {
    name: &'static str,
    help: &'static str,
    cell: OnceLock<Arc<M>>,
}

impl<M> Lazy<M> {
    pub(crate) const fn new(name: &'static str, help: &'static str) -> Lazy<M> {
        Lazy {
            name,
            help,
            cell: OnceLock::new(),
        }
    }
}

impl<M: Registered> Deref for Lazy<M> {
    type Target = M;

    fn deref(&self) -> &M {
        self.cell
            .get_or_init(|| M::register(registry(), self.name, self.help))
    }
}

/// Render a label set as the canonical `key="value"` list (sorted input
/// expected; we keep caller order, which instrumentation sites fix).
fn label_string(labels: &[(&str, &str)]) -> String {
    labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect::<Vec<_>>()
        .join(",")
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"")
}

fn escape_json(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl Registry {
    /// Fresh private registry (tests; production code uses [`registry`]).
    pub fn new() -> Registry {
        Registry::default()
    }

    fn get_or_insert(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        let mut families = self.families.lock().expect("metrics registry poisoned");
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            series: BTreeMap::new(),
        });
        family
            .series
            .entry(label_string(labels))
            .or_insert_with(make)
            .clone()
    }

    /// Get or create the unlabeled counter `name`.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    /// Get or create a labeled counter series.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.get_or_insert(name, help, labels, || {
            Metric::Counter(Arc::new(Counter::default()))
        }) {
            Metric::Counter(c) => c,
            other => panic!("metric '{name}' already registered as {}", other.kind()),
        }
    }

    /// Get or create the unlabeled gauge `name`.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_with(name, help, &[])
    }

    /// Get or create a labeled gauge series.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.get_or_insert(name, help, labels, || {
            Metric::Gauge(Arc::new(Gauge::default()))
        }) {
            Metric::Gauge(g) => g,
            other => panic!("metric '{name}' already registered as {}", other.kind()),
        }
    }

    /// Get or create the unlabeled latency histogram `name` with the
    /// default [`LATENCY_BUCKETS_NS`] bounds.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.histogram_with(name, help, &[], LATENCY_BUCKETS_NS)
    }

    /// Get or create a labeled histogram series with explicit bounds.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &'static [u64],
    ) -> Arc<Histogram> {
        match self.get_or_insert(name, help, labels, || {
            Metric::Histogram(Arc::new(Histogram::new(bounds)))
        }) {
            Metric::Histogram(h) => h,
            other => panic!("metric '{name}' already registered as {}", other.kind()),
        }
    }

    /// Zero every registered series (names and help text are kept).
    pub fn reset(&self) {
        self.reset_prefix("");
    }

    /// Zero every series whose family name starts with `prefix` — how a
    /// subsystem (`xst_storage_…`) resets its own metrics without
    /// touching anyone else's.
    pub fn reset_prefix(&self, prefix: &str) {
        let families = self.families.lock().expect("metrics registry poisoned");
        for (name, family) in families.iter() {
            if !name.starts_with(prefix) {
                continue;
            }
            for metric in family.series.values() {
                match metric {
                    Metric::Counter(c) => c.reset(),
                    Metric::Gauge(g) => g.reset(),
                    Metric::Histogram(h) => h.reset(),
                }
            }
        }
    }

    /// Prometheus-style text exposition: `# HELP` / `# TYPE` per family,
    /// one sample line per series (histograms expand to cumulative
    /// `_bucket{le=…}` lines plus `_sum` and `_count`).
    pub fn export_prometheus(&self) -> String {
        let families = self.families.lock().expect("metrics registry poisoned");
        let mut out = String::new();
        for (name, family) in families.iter() {
            let kind = family
                .series
                .values()
                .next()
                .map(Metric::kind)
                .unwrap_or("untyped");
            out.push_str(&format!("# HELP {name} {}\n", family.help));
            out.push_str(&format!("# TYPE {name} {kind}\n"));
            for (labels, metric) in &family.series {
                match metric {
                    Metric::Counter(c) => {
                        out.push_str(&sample_line(name, labels, &c.get().to_string()));
                    }
                    Metric::Gauge(g) => {
                        out.push_str(&sample_line(name, labels, &format!("{}", g.get())));
                    }
                    Metric::Histogram(h) => {
                        let snap = h.snapshot();
                        let mut cumulative = 0u64;
                        for (bound, bucket) in snap.bounds.iter().zip(&snap.buckets) {
                            cumulative += bucket;
                            let le = merge_labels(labels, &format!("le=\"{bound}\""));
                            out.push_str(&sample_line(
                                &format!("{name}_bucket"),
                                &le,
                                &cumulative.to_string(),
                            ));
                        }
                        cumulative += snap.overflow;
                        let le = merge_labels(labels, "le=\"+Inf\"");
                        out.push_str(&sample_line(
                            &format!("{name}_bucket"),
                            &le,
                            &cumulative.to_string(),
                        ));
                        out.push_str(&sample_line(
                            &format!("{name}_sum"),
                            labels,
                            &snap.sum.to_string(),
                        ));
                        out.push_str(&sample_line(
                            &format!("{name}_count"),
                            labels,
                            &snap.count.to_string(),
                        ));
                    }
                }
            }
        }
        out
    }

    /// JSON snapshot of every family, for machine consumers:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}`.
    /// Series keys are `name` or `name{labels}`.
    pub fn export_json(&self) -> String {
        let families = self.families.lock().expect("metrics registry poisoned");
        let mut counters: Vec<String> = Vec::new();
        let mut gauges: Vec<String> = Vec::new();
        let mut histograms: Vec<String> = Vec::new();
        for (name, family) in families.iter() {
            for (labels, metric) in &family.series {
                let key = escape_json(&if labels.is_empty() {
                    name.clone()
                } else {
                    format!("{name}{{{labels}}}")
                });
                match metric {
                    Metric::Counter(c) => counters.push(format!("\"{key}\": {}", c.get())),
                    Metric::Gauge(g) => {
                        let v = g.get();
                        let v = if v.is_finite() { v } else { 0.0 };
                        gauges.push(format!("\"{key}\": {v}"));
                    }
                    Metric::Histogram(h) => {
                        let snap = h.snapshot();
                        let buckets: Vec<String> = snap
                            .bounds
                            .iter()
                            .zip(&snap.buckets)
                            .map(|(b, c)| format!("[{b}, {c}]"))
                            .chain(std::iter::once(format!("[null, {}]", snap.overflow)))
                            .collect();
                        histograms.push(format!(
                            "\"{key}\": {{\"buckets\": [{}], \"sum\": {}, \"count\": {}}}",
                            buckets.join(", "),
                            snap.sum,
                            snap.count
                        ));
                    }
                }
            }
        }
        format!(
            "{{\n  \"counters\": {{{}}},\n  \"gauges\": {{{}}},\n  \"histograms\": {{{}}}\n}}\n",
            counters.join(", "),
            gauges.join(", "),
            histograms.join(", ")
        )
    }
}

fn merge_labels(existing: &str, extra: &str) -> String {
    if existing.is_empty() {
        extra.to_string()
    } else {
        format!("{existing},{extra}")
    }
}

fn sample_line(name: &str, labels: &str, value: &str) -> String {
    if labels.is_empty() {
        format!("{name} {value}\n")
    } else {
        format!("{name}{{{labels}}} {value}\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_support::obs_lock;

    #[test]
    fn histogram_concurrent_writers_equal_sequential_sum() {
        let _serial = obs_lock();
        crate::enable();
        let reg = Registry::new();
        let shared = reg.histogram("t_concurrent_ns", "concurrent target");
        const WRITERS: usize = 8;
        const PER_WRITER: usize = 5_000;
        std::thread::scope(|s| {
            for w in 0..WRITERS {
                let shared = Arc::clone(&shared);
                s.spawn(move || {
                    for i in 0..PER_WRITER {
                        // Spread observations across every bucket incl. overflow.
                        shared.observe(((w * PER_WRITER + i) as u64 * 37) % 6_000_000_000);
                    }
                });
            }
        });
        // The sequential oracle: same observations, one thread.
        let oracle = reg.histogram("t_oracle_ns", "sequential oracle");
        for w in 0..WRITERS {
            for i in 0..PER_WRITER {
                oracle.observe(((w * PER_WRITER + i) as u64 * 37) % 6_000_000_000);
            }
        }
        crate::disable();
        let got = shared.snapshot();
        let want = oracle.snapshot();
        assert_eq!(got.count, (WRITERS * PER_WRITER) as u64);
        assert_eq!(got.buckets, want.buckets);
        assert_eq!(got.overflow, want.overflow);
        assert_eq!(got.sum, want.sum);
    }

    #[test]
    fn per_thread_histograms_merge_to_the_shared_family() {
        let _serial = obs_lock();
        crate::enable();
        let reg = Registry::new();
        let target = reg.histogram("t_merge_ns", "merge target");
        let locals: Vec<Arc<Histogram>> = (0..8)
            .map(|i| {
                reg.histogram_with(
                    "t_merge_local_ns",
                    "per-thread",
                    &[("t", &i.to_string())],
                    LATENCY_BUCKETS_NS,
                )
            })
            .collect();
        std::thread::scope(|s| {
            for (i, local) in locals.iter().enumerate() {
                let local = Arc::clone(local);
                s.spawn(move || {
                    for v in 0..1_000u64 {
                        local.observe(v * (i as u64 + 1) * 1_000);
                    }
                });
            }
        });
        for local in &locals {
            target.merge_from(&local.snapshot());
        }
        crate::disable();
        let merged = target.snapshot();
        assert_eq!(merged.count, 8_000);
        let folded = locals
            .iter()
            .map(|l| l.snapshot())
            .reduce(|a, b| a.merged(&b))
            .unwrap();
        assert_eq!(merged, folded);
    }

    #[test]
    fn disabled_metrics_record_nothing() {
        let _serial = obs_lock();
        crate::disable();
        let reg = Registry::new();
        let c = reg.counter("t_off_total", "gated");
        let g = reg.gauge("t_off_gauge", "gated");
        let h = reg.histogram("t_off_ns", "gated");
        c.add(100);
        c.inc();
        g.set(42.0);
        h.observe(1_000);
        h.observe_since(Instant::now());
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0.0);
        let snap = h.snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.sum, 0);
        assert!(snap.buckets.iter().all(|&b| b == 0));
        // The series still exists (registration is not gated) but is zero.
        let text = reg.export_prometheus();
        assert!(text.contains("t_off_total 0"), "{text}");
    }

    #[test]
    fn exposition_format_is_prometheus_shaped() {
        let _serial = obs_lock();
        crate::enable();
        let reg = Registry::new();
        reg.counter_with("t_hits_total", "hits per shard", &[("shard", "0")])
            .add(3);
        reg.counter_with("t_hits_total", "hits per shard", &[("shard", "1")])
            .add(4);
        reg.gauge("t_ratio", "a ratio").set(0.75);
        let h = reg.histogram("t_lat_ns", "latency");
        h.observe(100); // first bucket (≤256)
        h.observe(2_000); // third bucket (≤4096)
        h.observe(10_000_000_000); // overflow
        crate::disable();
        let text = reg.export_prometheus();
        assert!(
            text.contains("# HELP t_hits_total hits per shard"),
            "{text}"
        );
        assert!(text.contains("# TYPE t_hits_total counter"), "{text}");
        assert!(text.contains("t_hits_total{shard=\"0\"} 3"), "{text}");
        assert!(text.contains("t_hits_total{shard=\"1\"} 4"), "{text}");
        assert!(text.contains("# TYPE t_ratio gauge"), "{text}");
        assert!(text.contains("t_ratio 0.75"), "{text}");
        assert!(text.contains("# TYPE t_lat_ns histogram"), "{text}");
        assert!(text.contains("t_lat_ns_bucket{le=\"256\"} 1"), "{text}");
        assert!(text.contains("t_lat_ns_bucket{le=\"4096\"} 2"), "{text}");
        assert!(text.contains("t_lat_ns_bucket{le=\"+Inf\"} 3"), "{text}");
        assert!(text.contains("t_lat_ns_count 3"), "{text}");

        let json = reg.export_json();
        assert!(
            json.contains("\"t_hits_total{shard=\\\"0\\\"}\": 3"),
            "{json}"
        );
        assert!(json.contains("\"t_ratio\": 0.75"), "{json}");
        assert!(json.contains("\"sum\""), "{json}");
    }

    #[test]
    fn reset_prefix_zeroes_only_the_subsystem() {
        let _serial = obs_lock();
        crate::enable();
        let reg = Registry::new();
        let a = reg.counter("sub_a_total", "a");
        let b = reg.counter("other_b_total", "b");
        a.add(5);
        b.add(7);
        reg.reset_prefix("sub_");
        assert_eq!(a.get(), 0);
        assert_eq!(b.get(), 7);
        reg.reset();
        assert_eq!(b.get(), 0);
        crate::disable();
    }

    #[test]
    fn handles_are_shared_by_name_and_labels() {
        let _serial = obs_lock();
        crate::enable();
        let reg = Registry::new();
        let c1 = reg.counter("t_shared_total", "shared");
        let c2 = reg.counter("t_shared_total", "ignored on re-register");
        c1.add(1);
        c2.add(1);
        assert_eq!(c1.get(), 2, "same underlying series");
        crate::disable();
    }
}
