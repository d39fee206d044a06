//! # xst-obs — observability substrate for the XST engine
//!
//! The build environment is offline, so this crate implements in-house
//! (over `std` only) the two facilities a production engine cannot run
//! without:
//!
//! * [`span`] — hierarchical **trace spans**: RAII guards created by the
//!   [`span!`] macro record wall-time, parent/child links, and `key=value`
//!   attributes into a per-thread buffer that drains to a global
//!   [`Collector`](span::Collector) when each root span closes. The
//!   collected records reconstruct the full call tree
//!   ([`span::span_tree`]) — the substrate behind the shell's `.trace`
//!   command and the query layer's `EXPLAIN ANALYZE`.
//! * [`metrics`] — a **metrics registry** of named counters, gauges, and
//!   fixed-bucket latency histograms. All hot-path state is atomic, so
//!   concurrent writers merge for free and snapshots never stop the
//!   world. Two exporters: Prometheus-style text exposition
//!   ([`Registry::export_prometheus`](metrics::Registry::export_prometheus))
//!   and a JSON snapshot
//!   ([`Registry::export_json`](metrics::Registry::export_json)).
//! * [`cost`] — **per-request resource accounting**: a task-scoped
//!   [`QueryCost`](cost::QueryCost) accumulator the server opens around
//!   each request, charged by the storage and query layers (pool
//!   hits/misses, WAL appends/fsyncs, kernel fan-outs, retries,
//!   conflicts, plan nodes/rows) so work is attributable to the request
//!   that caused it, not just to a global counter.
//! * [`reqlog`] — the **structured request log**: a bounded ring of
//!   per-request records (session, txn, kind, wall time, cost bill,
//!   outcome, trace id) plus a threshold-gated slow-query ring, behind
//!   the shell's `.top`/`.slow` and the server's `RequestLog` request.
//!
//! ## Distributed tracing
//!
//! Spans carry stable 64-bit **trace ids** minted at each root span (via
//! a SplitMix64-mixed process-local counter, so client and server
//! processes on one machine draw from different sequences). A
//! [`TraceContext`] — `{trace_id, parent_span}` — is the portable
//! identity of an in-flight trace: the wire protocol carries it beside
//! each request, and the serving thread
//! [`adopt`](span::adopt)s it so its root spans join the remote
//! caller's trace, parented under the caller's span id. The result is
//! one stitched trace per wire request: the client's `client.request`
//! root and the server's `session.request` → `query.eval` → `txn.*` /
//! `wal.*` subtree all share one trace id.
//!
//! ### Export schema (`xst-trace/1`)
//!
//! [`span::export_trace_json`] renders a span batch as JSON:
//!
//! ```json
//! {"schema":"xst-trace/1","spans":[
//!   {"name":"client.request","id":12,"trace_id":"0x9e3779b97f4a7c15",
//!    "parent":null,"thread":0,"start_ns":100,"duration_ns":900,
//!    "attrs":{"kind":"eval"},"children":[ ... ]}]}
//! ```
//!
//! `trace_id` is a `0x`-prefixed 16-digit hex string (grep-stable, no
//! JSON number-precision hazard); `id`/`parent` are process-local span
//! ids; a parent that lives in another process makes the span a root of
//! the local forest, so partial dumps always render. The server's
//! `TraceDump` request and the shell's `.trace export` both emit this
//! document.
//!
//! ## The no-op fast path
//!
//! One process-global `AtomicBool` gates every instrumentation site. When
//! the collector is disabled (the default), [`enabled`] is a single
//! relaxed atomic load and every record/observe/span call returns
//! immediately — nothing is allocated, timed, or stored. Experiment E12
//! measures this: the disabled-collector E1 workload is indistinguishable
//! from an uninstrumented run (see EXPERIMENTS.md).
//!
//! ## Who records here
//!
//! The storage layer registers the `xst_storage_*` families (buffer-pool
//! hit ratio, WAL append latency, retry/backoff counts, injected faults)
//! and the transaction layer the `xst_txn_*` families (`begins`,
//! `commits`, `aborts`, `conflicts` counters plus the `xst_txn_commit_ns`
//! latency histogram); the query layer feeds spans to `EXPLAIN ANALYZE`.
//! All of it is visible in the shell via `.metrics` and `.trace`.
//!
//! ```
//! xst_obs::enable();
//! {
//!     let _root = xst_obs::span!("demo.outer", items = 3);
//!     let _leaf = xst_obs::span!("demo.inner");
//! }
//! let spans = xst_obs::collector().take_spans();
//! assert!(spans.iter().any(|s| s.name == "demo.outer"));
//!
//! let hits = xst_obs::registry().counter("demo_hits_total", "demo counter");
//! hits.add(2);
//! assert!(xst_obs::registry()
//!     .export_prometheus()
//!     .contains("demo_hits_total"));
//! xst_obs::disable();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cost;
pub mod metrics;
pub mod names;
pub mod reqlog;
pub mod span;

use std::sync::atomic::{AtomicBool, Ordering};

/// The process-global collector switch. Relaxed ordering is deliberate:
/// instrumentation sites only need an eventually-consistent view, and a
/// relaxed load is the cheapest possible gate.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is the collector on? One relaxed atomic load — this is the entire cost
/// of a disabled instrumentation site.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn the collector on: spans record and metrics accumulate.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn the collector off: every instrumentation site degrades to a single
/// atomic load. Already-collected spans and metric values are kept until
/// explicitly taken or reset.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

pub use cost::{CostGuard, QueryCost};
pub use metrics::{registry, Counter, Gauge, Histogram, HistogramSnapshot, Registry};
pub use reqlog::{request_log, RequestLog, RequestRecord};
pub use span::{
    collector, export_trace_json, span_tree, Collector, SpanGuard, SpanNode, SpanRecord,
    TraceContext,
};

/// The enable/disable switch is process-global, so tests that toggle it
/// serialize on one lock (the test harness runs them on many threads).
#[cfg(test)]
pub(crate) mod tests_support {
    use std::sync::{Mutex, MutexGuard, OnceLock};

    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();

    pub fn obs_lock() -> MutexGuard<'static, ()> {
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}
