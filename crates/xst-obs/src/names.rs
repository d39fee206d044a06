//! Canonical metric names and handles.
//!
//! Every `xst_*` metric family is declared exactly once, here: its name
//! constant and — for the unlabeled families — a lazily-registering
//! handle of the same name in [`handle`], both documented by the help
//! text the exposition prints. `xst-lint`'s metric-name rule rejects any
//! `xst_`-prefixed string literal outside this module, so a family can
//! be renamed in one place and two registrations cannot drift apart.

/// Common prefix of every storage-layer metric.
pub const STORAGE_PREFIX: &str = "xst_storage_";
/// Common prefix of the page I/O metric family (reset as a unit).
pub const STORAGE_PAGE_PREFIX: &str = "xst_storage_page_";
/// Common prefix of the buffer-pool metric family (reset as a unit).
pub const STORAGE_POOL_PREFIX: &str = "xst_storage_pool_";

/// Buffer-pool hits.
pub const STORAGE_POOL_HITS_TOTAL: &str = "xst_storage_pool_hits_total";
/// Buffer-pool misses.
pub const STORAGE_POOL_MISSES_TOTAL: &str = "xst_storage_pool_misses_total";
/// Buffer-pool evictions.
pub const STORAGE_POOL_EVICTIONS_TOTAL: &str = "xst_storage_pool_evictions_total";
/// Buffer-pool hit ratio (gauge, 0–1).
pub const STORAGE_POOL_HIT_RATIO: &str = "xst_storage_pool_hit_ratio";
/// Number of buffer-pool shards (gauge).
pub const STORAGE_POOL_SHARDS: &str = "xst_storage_pool_shards";

/// Common prefix of every network-server metric.
pub const SERVER_PREFIX: &str = "xst_server_";

/// Common prefix of every client-side metric.
pub const CLIENT_PREFIX: &str = "xst_client_";

/// Common prefix of every sharded-execution metric.
pub const SHARD_PREFIX: &str = "xst_shard_";

/// Common prefix of every cross-process coordinator metric.
pub const COORD_PREFIX: &str = "xst_coord_";

/// Declare unlabeled families: each entry yields the name constant here
/// and the handle of the same name in [`handle`]; the help string is
/// also both items' doc comment.
macro_rules! families {
    ($($kind:ident $name:ident = $lit:literal, $help:literal;)*) => {
        $(
            #[doc = $help]
            pub const $name: &str = $lit;
        )*
        /// One handle per unlabeled family, named like its constant:
        /// `handle::TXN_COMMITS_TOTAL.inc()` registers the family on
        /// first use and counts.
        pub mod handle {
            use crate::metrics::{Counter, Gauge, Histogram, Lazy};
            $(
                #[doc = $help]
                pub static $name: Lazy<$kind> = Lazy::new(super::$name, $help);
            )*
        }
    };
}

families! {
    Counter CORE_PAR_FANOUTS_TOTAL = "xst_core_par_fanouts_total",
        "Parallel kernel invocations that crossed the threshold and fanned out to threads.";
    Counter CORE_PAR_CHUNKS_TOTAL = "xst_core_par_chunks_total",
        "Worker chunks dispatched by fanned-out parallel kernels.";
    Histogram STORAGE_PAGE_READ_NS = "xst_storage_page_read_ns",
        "Latency of one page read from the simulated disk.";
    Histogram STORAGE_PAGE_WRITE_NS = "xst_storage_page_write_ns",
        "Latency of one page write (append or overwrite) to the simulated disk.";
    Histogram STORAGE_WAL_APPEND_NS = "xst_storage_wal_append_ns",
        "Latency of staging one WAL frame (length + header crc + payload + crc).";
    Histogram STORAGE_WAL_FSYNC_NS = "xst_storage_wal_fsync_ns",
        "Latency of one WAL flush (the fsync-equivalent commit point).";
    Counter STORAGE_WAL_APPENDS_TOTAL = "xst_storage_wal_appends_total",
        "Records staged into the write-ahead log.";
    Counter STORAGE_WAL_BYTES_TOTAL = "xst_storage_wal_bytes_total",
        "Payload bytes staged into the write-ahead log (framing excluded).";
    Counter STORAGE_WAL_GROUP_COMMITS_TOTAL = "xst_storage_wal_group_commits_total",
        "Batches acknowledged by a single WAL flush (group commit).";
    Counter STORAGE_WAL_GROUP_COMMIT_RECORDS_TOTAL = "xst_storage_wal_group_commit_records_total",
        "Records acknowledged through group commit.";
    Counter STORAGE_RETRIES_TOTAL = "xst_storage_retries_total",
        "Transient storage failures that were retried.";
    Counter STORAGE_RETRY_GIVE_UPS_TOTAL = "xst_storage_retry_give_ups_total",
        "Operations abandoned after exhausting their retry budget.";
    Histogram STORAGE_RETRY_BACKOFF_NS = "xst_storage_retry_backoff_ns",
        "Simulated exponential-backoff delay before each retry.";
    Counter STORAGE_FAULTS_INJECTED_TOTAL = "xst_storage_faults_injected_total",
        "Faults injected into the storage substrate by an installed FaultPlan.";
    Counter SERVER_ACCEPTED_TOTAL = "xst_server_accepted_total",
        "Connections accepted by the server (admitted into a session).";
    Counter SERVER_ADMISSION_REJECTED_TOTAL = "xst_server_admission_rejected_total",
        "Connections rejected by admission control (cap and queue both full).";
    Gauge SERVER_ACTIVE_SESSIONS = "xst_server_active_sessions", "Sessions currently open.";
    Gauge SERVER_QUEUE_DEPTH = "xst_server_queue_depth",
        "Connections waiting in the admission queue for a session slot.";
    Counter SERVER_REQUESTS_TOTAL = "xst_server_requests_total",
        "Requests served across all sessions.";
    Counter SERVER_PROTOCOL_ERRORS_TOTAL = "xst_server_protocol_errors_total",
        "Malformed frames / protocol violations answered with a structured error.";
    Histogram SERVER_REQUEST_NS = "xst_server_request_ns",
        "Latency of handling one request (decode, dispatch, encode).";
    Counter SERVER_TRACED_REQUESTS_TOTAL = "xst_server_traced_requests_total",
        "Requests that arrived wrapped in a client trace context.";
    Counter CLIENT_REQUESTS_TOTAL = "xst_client_requests_total",
        "Requests issued by xst-client connections.";
    Histogram CLIENT_REQUEST_NS = "xst_client_request_ns",
        "Nanoseconds from request write to response decode on the client.";
    Counter REQLOG_RECORDS_TOTAL = "xst_reqlog_records_total",
        "Requests recorded in the structured request log.";
    Counter REQLOG_SLOW_TOTAL = "xst_reqlog_slow_total",
        "Requests whose wall time crossed the slow-query threshold.";
    Counter TXN_BEGINS_TOTAL = "xst_txn_begins_total", "Transactions begun.";
    Counter TXN_COMMITS_TOTAL = "xst_txn_commits_total", "Transactions committed.";
    Counter TXN_ABORTS_TOTAL = "xst_txn_aborts_total",
        "Transactions aborted (explicitly or by conflict/IO failure).";
    Counter TXN_CONFLICTS_TOTAL = "xst_txn_conflicts_total",
        "Commit attempts rejected by first-committer-wins validation.";
    Histogram TXN_COMMIT_NS = "xst_txn_commit_ns",
        "Latency of a successful commit (validation + WAL group commit + version publish).";
    Gauge TXN_ACTIVE = "xst_txn_active",
        "Transactions currently open (each pins a snapshot identity).";
    Gauge TXN_VERSIONS_RETAINED = "xst_txn_versions_retained",
        "Committed table versions held in version chains (bounded by the oldest open snapshot).";
    Counter TXN_VERSIONS_RECLAIMED_TOTAL = "xst_txn_versions_reclaimed_total",
        "Committed table versions cut from their chain below the oldest open snapshot.";
    Gauge SHARD_COUNT = "xst_shard_count", "Shards in the serving engine's hash partition.";
    Counter SHARD_TXN_BEGINS_TOTAL = "xst_shard_txn_begins_total",
        "Distributed transactions begun on the sharded engine.";
    Counter SHARD_SINGLE_COMMITS_TOTAL = "xst_shard_single_commits_total",
        "Distributed commits that touched one shard and took the one-flush fast path.";
    Counter SHARD_2PC_COMMITS_TOTAL = "xst_shard_2pc_commits_total",
        "Multi-shard commits acknowledged by a durable coordinator decision.";
    Counter SHARD_2PC_ABORTS_TOTAL = "xst_shard_2pc_aborts_total",
        "Multi-shard commits aborted before a decision was recorded.";
    Counter SHARD_2PC_PREPARES_TOTAL = "xst_shard_2pc_prepares_total",
        "Per-shard prepare flushes performed by the 2PC coordinator.";
    Counter SHARD_2PC_IN_DOUBT_RESOLVED_TOTAL = "xst_shard_2pc_in_doubt_resolved_total",
        "In-doubt prepares resolved from the coordinator decision log at recovery.";
    Counter SHARD_SCATTER_OPS_TOTAL = "xst_shard_scatter_ops_total",
        "Kernel runs dispatched by plan evaluation, one per part (an unsharded evaluation is one part).";
    Counter SHARD_GATHER_MERGES_TOTAL = "xst_shard_gather_merges_total",
        "Gather steps that merged more than one fragment by ordered union.";
    Gauge COORD_SHARDS = "xst_coord_shards",
        "Shard processes the wire coordinator is connected to.";
    Counter COORD_TXN_BEGINS_TOTAL = "xst_coord_txn_begins_total",
        "Distributed transactions begun by the wire coordinator.";
    Counter COORD_SINGLE_COMMITS_TOTAL = "xst_coord_single_commits_total",
        "Coordinator commits settled on at most one shard (no 2PC round).";
    Counter COORD_2PC_COMMITS_TOTAL = "xst_coord_2pc_commits_total",
        "Multi-shard wire commits acknowledged by a durable coordinator decision.";
    Counter COORD_2PC_ABORTS_TOTAL = "xst_coord_2pc_aborts_total",
        "Multi-shard wire commits aborted before a decision was recorded.";
    Counter COORD_FRAG_READS_TOTAL = "xst_coord_frag_reads_total",
        "Per-shard fragment reads issued by the wire coordinator.";
    Counter COORD_SUBPLANS_SHIPPED_TOTAL = "xst_coord_subplans_shipped_total",
        "Shard-local subplans the wire coordinator sent to a shard as an Eval, one per shard.";
    Counter COORD_RESOLVES_TOTAL = "xst_coord_resolves_total",
        "Resolve rounds the wire coordinator delivered to shards.";
    Counter COORD_DECISIONS_REPLAYED_TOTAL = "xst_coord_decisions_replayed_total",
        "Committed decisions replayed from the log at coordinator recovery.";
    Gauge TWOPC_DECISION_LOG_ENTRIES = "xst_twopc_decision_log_entries",
        "Committed decisions held in 2PC decision logs (in-process and wire coordinators alike).";
}

#[cfg(test)]
mod tests {
    #[test]
    fn names_are_unique_and_prefixed() {
        let all = [
            super::CORE_PAR_FANOUTS_TOTAL,
            super::CORE_PAR_CHUNKS_TOTAL,
            super::STORAGE_PAGE_READ_NS,
            super::STORAGE_PAGE_WRITE_NS,
            super::STORAGE_POOL_HITS_TOTAL,
            super::STORAGE_POOL_MISSES_TOTAL,
            super::STORAGE_POOL_EVICTIONS_TOTAL,
            super::STORAGE_POOL_HIT_RATIO,
            super::STORAGE_POOL_SHARDS,
            super::STORAGE_WAL_APPEND_NS,
            super::STORAGE_WAL_FSYNC_NS,
            super::STORAGE_WAL_APPENDS_TOTAL,
            super::STORAGE_WAL_BYTES_TOTAL,
            super::STORAGE_WAL_GROUP_COMMITS_TOTAL,
            super::STORAGE_WAL_GROUP_COMMIT_RECORDS_TOTAL,
            super::STORAGE_RETRIES_TOTAL,
            super::STORAGE_RETRY_GIVE_UPS_TOTAL,
            super::STORAGE_RETRY_BACKOFF_NS,
            super::STORAGE_FAULTS_INJECTED_TOTAL,
            super::SERVER_ACCEPTED_TOTAL,
            super::SERVER_ADMISSION_REJECTED_TOTAL,
            super::SERVER_ACTIVE_SESSIONS,
            super::SERVER_QUEUE_DEPTH,
            super::SERVER_REQUESTS_TOTAL,
            super::SERVER_PROTOCOL_ERRORS_TOTAL,
            super::SERVER_REQUEST_NS,
            super::SERVER_TRACED_REQUESTS_TOTAL,
            super::CLIENT_REQUESTS_TOTAL,
            super::CLIENT_REQUEST_NS,
            super::REQLOG_RECORDS_TOTAL,
            super::REQLOG_SLOW_TOTAL,
            super::TXN_BEGINS_TOTAL,
            super::TXN_COMMITS_TOTAL,
            super::TXN_ABORTS_TOTAL,
            super::TXN_CONFLICTS_TOTAL,
            super::TXN_COMMIT_NS,
            super::TXN_ACTIVE,
            super::TXN_VERSIONS_RETAINED,
            super::TXN_VERSIONS_RECLAIMED_TOTAL,
            super::SHARD_COUNT,
            super::SHARD_TXN_BEGINS_TOTAL,
            super::SHARD_SINGLE_COMMITS_TOTAL,
            super::SHARD_2PC_COMMITS_TOTAL,
            super::SHARD_2PC_ABORTS_TOTAL,
            super::SHARD_2PC_PREPARES_TOTAL,
            super::SHARD_2PC_IN_DOUBT_RESOLVED_TOTAL,
            super::SHARD_SCATTER_OPS_TOTAL,
            super::SHARD_GATHER_MERGES_TOTAL,
            super::COORD_SHARDS,
            super::COORD_TXN_BEGINS_TOTAL,
            super::COORD_SINGLE_COMMITS_TOTAL,
            super::COORD_2PC_COMMITS_TOTAL,
            super::COORD_2PC_ABORTS_TOTAL,
            super::COORD_FRAG_READS_TOTAL,
            super::COORD_SUBPLANS_SHIPPED_TOTAL,
            super::COORD_RESOLVES_TOTAL,
            super::COORD_DECISIONS_REPLAYED_TOTAL,
            super::TWOPC_DECISION_LOG_ENTRIES,
        ];
        let mut seen = std::collections::BTreeSet::new();
        for name in all {
            assert!(name.starts_with("xst_"), "{name}");
            assert!(seen.insert(name), "duplicate metric name {name}");
        }
        for page in [super::STORAGE_PAGE_READ_NS, super::STORAGE_PAGE_WRITE_NS] {
            assert!(page.starts_with(super::STORAGE_PAGE_PREFIX));
        }
        assert!(super::STORAGE_POOL_HITS_TOTAL.starts_with(super::STORAGE_POOL_PREFIX));
        assert!(super::STORAGE_PAGE_PREFIX.starts_with(super::STORAGE_PREFIX));
        for client in [super::CLIENT_REQUESTS_TOTAL, super::CLIENT_REQUEST_NS] {
            assert!(client.starts_with(super::CLIENT_PREFIX));
        }
        assert!(super::SERVER_TRACED_REQUESTS_TOTAL.starts_with(super::SERVER_PREFIX));
        for shard in [
            super::SHARD_COUNT,
            super::SHARD_TXN_BEGINS_TOTAL,
            super::SHARD_SINGLE_COMMITS_TOTAL,
            super::SHARD_2PC_COMMITS_TOTAL,
            super::SHARD_2PC_ABORTS_TOTAL,
            super::SHARD_2PC_PREPARES_TOTAL,
            super::SHARD_2PC_IN_DOUBT_RESOLVED_TOTAL,
            super::SHARD_SCATTER_OPS_TOTAL,
            super::SHARD_GATHER_MERGES_TOTAL,
        ] {
            assert!(shard.starts_with(super::SHARD_PREFIX), "{shard}");
        }
        for coord in [
            super::COORD_SHARDS,
            super::COORD_TXN_BEGINS_TOTAL,
            super::COORD_SINGLE_COMMITS_TOTAL,
            super::COORD_2PC_COMMITS_TOTAL,
            super::COORD_2PC_ABORTS_TOTAL,
            super::COORD_FRAG_READS_TOTAL,
            super::COORD_SUBPLANS_SHIPPED_TOTAL,
            super::COORD_RESOLVES_TOTAL,
            super::COORD_DECISIONS_REPLAYED_TOTAL,
        ] {
            assert!(coord.starts_with(super::COORD_PREFIX), "{coord}");
        }
    }
}
