//! The structured request log: a bounded ring of per-request records
//! plus a threshold-gated slow-query ring.
//!
//! Every served request (and every accounted shell command) appends one
//! [`RequestRecord`]: who ran it (session, transaction), what it was
//! (request kind, detail), how long it took, its itemized
//! [`QueryCost`] bill, its outcome, and the trace id that links it to
//! the span dump. The ring is bounded ([`RequestLog::CAPACITY`]) so a
//! long-lived server's memory stays flat; a second, smaller ring keeps
//! only requests whose wall time crossed the configurable slow
//! threshold, so rare tail events survive long after the main ring has
//! cycled past them.
//!
//! The shell surfaces this as `.top` (slowest recent requests), `.slow`
//! (the slow ring + threshold control); the server surfaces it remotely
//! through the `RequestLog` request kind.

use crate::cost::QueryCost;
use crate::span::fmt_ns;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// One request's structured log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestRecord {
    /// Monotonic sequence number (process-wide, 1-based).
    pub seq: u64,
    /// Server session id (0 = local shell / not a served session).
    pub session: u64,
    /// The explicit transaction the request ran in, if any.
    pub txn: Option<u64>,
    /// Request kind, e.g. `"eval"`, `"put"`, `"commit"`.
    pub kind: &'static str,
    /// Short free-form detail (table name, plan summary); may be empty.
    pub detail: String,
    /// Trace id linking this record to the span dump (0 = untraced).
    pub trace_id: u64,
    /// Wall time spent handling the request, in nanoseconds.
    pub wall_ns: u64,
    /// The request's itemized resource bill.
    pub cost: QueryCost,
    /// `"ok"` or the structured error code name.
    pub outcome: &'static str,
}

struct LogState {
    next_seq: u64,
    recent: VecDeque<RequestRecord>,
    slow: VecDeque<RequestRecord>,
}

/// The bounded request log. One process-global instance lives behind
/// [`request_log`].
pub struct RequestLog {
    state: Mutex<LogState>,
    /// Slow threshold in nanoseconds; 0 disables the slow ring.
    slow_threshold_ns: AtomicU64,
}

impl RequestLog {
    /// Requests the main ring retains (oldest evicted first).
    pub const CAPACITY: usize = 512;
    /// Requests the slow ring retains.
    pub const SLOW_CAPACITY: usize = 128;

    fn new() -> RequestLog {
        RequestLog {
            state: Mutex::new(LogState {
                next_seq: 1,
                recent: VecDeque::new(),
                slow: VecDeque::new(),
            }),
            slow_threshold_ns: AtomicU64::new(0),
        }
    }

    /// Append one record (no-op while the collector is disabled). The
    /// record's `seq` field is assigned here; pass 0.
    pub fn record(&self, mut record: RequestRecord) {
        if !crate::enabled() {
            return;
        }
        crate::names::handle::REQLOG_RECORDS_TOTAL.inc();
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        // Retention is decided — and the counter bumped — under the same
        // lock as the ring insertion, so `xst_reqlog_slow_total` always
        // equals the number of records that actually entered the slow
        // ring. Reading the threshold before the lock let a mid-flight
        // `.slow off` (or a new threshold) race a record: the counter
        // would reflect one decision and the ring the other.
        let threshold = self.slow_threshold_ns.load(Ordering::Relaxed);
        let is_slow = threshold > 0 && record.wall_ns >= threshold;
        record.seq = st.next_seq;
        st.next_seq += 1;
        if is_slow {
            crate::names::handle::REQLOG_SLOW_TOTAL.inc();
            if st.slow.len() >= RequestLog::SLOW_CAPACITY {
                st.slow.pop_front();
            }
            st.slow.push_back(record.clone());
        }
        if st.recent.len() >= RequestLog::CAPACITY {
            st.recent.pop_front();
        }
        st.recent.push_back(record);
    }

    /// The most recent records, newest first, up to `limit`.
    pub fn recent(&self, limit: usize) -> Vec<RequestRecord> {
        let st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.recent.iter().rev().take(limit).cloned().collect()
    }

    /// The retained records ranked by wall time (slowest first), up to
    /// `limit` — the `.top` view.
    pub fn top(&self, limit: usize) -> Vec<RequestRecord> {
        let st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let mut all: Vec<RequestRecord> = st.recent.iter().cloned().collect();
        all.sort_by(|a, b| b.wall_ns.cmp(&a.wall_ns).then(a.seq.cmp(&b.seq)));
        all.truncate(limit);
        all
    }

    /// The slow ring, newest first, up to `limit`.
    pub fn slow(&self, limit: usize) -> Vec<RequestRecord> {
        let st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.slow.iter().rev().take(limit).cloned().collect()
    }

    /// Set the slow threshold in nanoseconds (0 disables the slow ring).
    ///
    /// Serialized against [`RequestLog::record`] via the state lock: once
    /// this returns, every record that had already entered the slow ring
    /// was counted, and no record observing the new threshold can land
    /// under the old decision.
    pub fn set_slow_threshold_ns(&self, ns: u64) {
        let _st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        self.slow_threshold_ns.store(ns, Ordering::Relaxed);
    }

    /// The current slow threshold in nanoseconds (0 = disabled).
    pub fn slow_threshold_ns(&self) -> u64 {
        self.slow_threshold_ns.load(Ordering::Relaxed)
    }

    /// Records currently retained in the main ring.
    pub fn len(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .recent
            .len()
    }

    /// True iff nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every retained record (both rings); the sequence keeps
    /// counting.
    pub fn clear(&self) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.recent.clear();
        st.slow.clear();
    }
}

/// The process-global request log.
pub fn request_log() -> &'static RequestLog {
    static LOG: OnceLock<RequestLog> = OnceLock::new();
    LOG.get_or_init(RequestLog::new)
}

/// Render records as the fixed-column table behind `.top` / `.slow` and
/// the remote `RequestLog` report.
pub fn render_records(records: &[RequestRecord]) -> String {
    if records.is_empty() {
        return "(no requests recorded)\n".to_string();
    }
    let mut out = format!(
        "{:<6} {:<8} {:<6} {:<12} {:>10} {:<12} {:<18} {}\n",
        "seq", "session", "txn", "kind", "wall", "outcome", "trace", "cost"
    );
    for r in records {
        let txn = r.txn.map_or("-".to_string(), |id| id.to_string());
        let trace = if r.trace_id == 0 {
            "-".to_string()
        } else {
            format!("{:#018x}", r.trace_id)
        };
        let mut kind = r.kind.to_string();
        if !r.detail.is_empty() {
            kind = format!("{kind}({})", r.detail);
        }
        out.push_str(&format!(
            "{:<6} {:<8} {:<6} {:<12} {:>10} {:<12} {:<18} {}\n",
            r.seq,
            r.session,
            txn,
            kind,
            fmt_ns(r.wall_ns),
            r.outcome,
            trace,
            r.cost
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_support::obs_lock;

    fn rec(kind: &'static str, wall_ns: u64) -> RequestRecord {
        RequestRecord {
            seq: 0,
            session: 3,
            txn: None,
            kind,
            detail: String::new(),
            trace_id: 0xabc,
            wall_ns,
            cost: QueryCost::default(),
            outcome: "ok",
        }
    }

    #[test]
    fn ring_is_bounded_and_top_ranks_by_wall_time() {
        let _serial = obs_lock();
        crate::enable();
        let log = RequestLog::new();
        for i in 0..(RequestLog::CAPACITY + 10) {
            log.record(rec("eval", i as u64));
        }
        assert_eq!(log.len(), RequestLog::CAPACITY);
        let top = log.top(3);
        assert_eq!(top.len(), 3);
        assert!(top[0].wall_ns >= top[1].wall_ns && top[1].wall_ns >= top[2].wall_ns);
        assert_eq!(top[0].wall_ns, (RequestLog::CAPACITY + 9) as u64);
        let newest = log.recent(1);
        assert_eq!(newest[0].wall_ns, (RequestLog::CAPACITY + 9) as u64);
        crate::disable();
    }

    #[test]
    fn slow_ring_is_threshold_gated() {
        let _serial = obs_lock();
        crate::enable();
        let log = RequestLog::new();
        log.record(rec("fast", 10));
        assert!(log.slow(10).is_empty(), "threshold 0 disables the ring");
        log.set_slow_threshold_ns(1_000);
        log.record(rec("fast", 999));
        log.record(rec("slow", 1_000));
        log.record(rec("slower", 5_000));
        let slow = log.slow(10);
        assert_eq!(slow.len(), 2);
        assert_eq!(slow[0].kind, "slower", "newest first");
        assert_eq!(slow[1].kind, "slow");
        crate::disable();
    }

    #[test]
    fn slow_counter_agrees_with_ring_insertions_across_threshold_changes() {
        let _serial = obs_lock();
        crate::enable();
        let log = RequestLog::new();
        let counted = |f: &dyn Fn()| {
            let before = crate::names::handle::REQLOG_SLOW_TOTAL.get();
            f();
            crate::names::handle::REQLOG_SLOW_TOTAL.get() - before
        };
        log.set_slow_threshold_ns(1_000);
        // A slow record while the ring is on: counted AND retained.
        assert_eq!(counted(&|| log.record(rec("slow", 2_000))), 1);
        assert_eq!(log.slow(10).len(), 1);
        // `.slow off` then the same record: neither counted nor retained —
        // the regression was counting before retention was decided, so a
        // threshold change between the two left the counter ahead of the
        // ring.
        log.set_slow_threshold_ns(0);
        assert_eq!(counted(&|| log.record(rec("slow", 2_000))), 0);
        assert_eq!(log.slow(10).len(), 1, "ring did not grow");
        // Re-arm with a higher bar: sub-threshold records stay uncounted.
        log.set_slow_threshold_ns(5_000);
        assert_eq!(counted(&|| log.record(rec("fast", 4_999))), 0);
        assert_eq!(counted(&|| log.record(rec("slow", 5_000))), 1);
        assert_eq!(log.slow(10).len(), 2);
        // The invariant the fix enforces: counter delta == ring insertions.
        crate::disable();
    }

    #[test]
    fn concurrent_threshold_flips_never_desync_counter_and_ring() {
        let _serial = obs_lock();
        crate::enable();
        let log = std::sync::Arc::new(RequestLog::new());
        log.set_slow_threshold_ns(1);
        let before = crate::names::handle::REQLOG_SLOW_TOTAL.get();
        let flipper = {
            let log = std::sync::Arc::clone(&log);
            std::thread::spawn(move || {
                for i in 0..200u64 {
                    log.set_slow_threshold_ns(if i % 2 == 0 { 0 } else { 1 });
                }
            })
        };
        // 100 < SLOW_CAPACITY, so nothing is ever evicted and the ring
        // length equals the number of insertions.
        for _ in 0..100 {
            log.record(rec("maybe-slow", 10));
        }
        flipper.join().expect("flipper thread");
        let counted = crate::names::handle::REQLOG_SLOW_TOTAL.get() - before;
        let retained = log.slow(RequestLog::SLOW_CAPACITY).len() as u64;
        assert_eq!(
            counted, retained,
            "every counted slow record must actually be in the ring"
        );
        log.set_slow_threshold_ns(0);
        crate::disable();
    }

    #[test]
    fn disabled_collector_records_nothing() {
        let _serial = obs_lock();
        crate::disable();
        let log = RequestLog::new();
        log.record(rec("ghost", 1));
        assert!(log.is_empty());
    }

    #[test]
    fn rendering_includes_trace_cost_and_detail() {
        let mut r = rec("put", 2_500_000);
        r.detail = "t".to_string();
        r.txn = Some(12);
        r.cost.wal_appends = 4;
        let table = render_records(&[r]);
        assert!(table.contains("put(t)"), "{table}");
        assert!(table.contains("2.50ms"), "{table}");
        assert!(table.contains("0x0000000000000abc"), "{table}");
        assert!(table.contains("wal=4"), "{table}");
        assert!(table.contains(" 12 "), "{table}");
        assert_eq!(render_records(&[]), "(no requests recorded)\n");
    }
}
