//! Canonical metric names.
//!
//! Every `xst_*` metric family has exactly one constant here, and every
//! registration site in the workspace goes through it — `xst-lint`'s
//! metric-name rule rejects any `xst_`-prefixed string literal outside
//! this module, so a family can be renamed in one place and duplicate
//! registrations cannot drift apart silently.

/// Worker fan-outs performed by the parallel set-operation kernels.
pub const CORE_PAR_FANOUTS_TOTAL: &str = "xst_core_par_fanouts_total";
/// Chunks dispatched across all parallel kernel fan-outs.
pub const CORE_PAR_CHUNKS_TOTAL: &str = "xst_core_par_chunks_total";

/// Common prefix of every storage-layer metric.
pub const STORAGE_PREFIX: &str = "xst_storage_";
/// Common prefix of the page I/O metric family (reset as a unit).
pub const STORAGE_PAGE_PREFIX: &str = "xst_storage_page_";
/// Common prefix of the buffer-pool metric family (reset as a unit).
pub const STORAGE_POOL_PREFIX: &str = "xst_storage_pool_";

/// Nanoseconds spent reading pages from disk.
pub const STORAGE_PAGE_READ_NS: &str = "xst_storage_page_read_ns";
/// Nanoseconds spent writing pages to disk.
pub const STORAGE_PAGE_WRITE_NS: &str = "xst_storage_page_write_ns";

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

/// Nanoseconds spent appending WAL records.
pub const STORAGE_WAL_APPEND_NS: &str = "xst_storage_wal_append_ns";
/// Nanoseconds spent in WAL fsync.
pub const STORAGE_WAL_FSYNC_NS: &str = "xst_storage_wal_fsync_ns";
/// WAL records appended.
pub const STORAGE_WAL_APPENDS_TOTAL: &str = "xst_storage_wal_appends_total";
/// WAL bytes appended.
pub const STORAGE_WAL_BYTES_TOTAL: &str = "xst_storage_wal_bytes_total";
/// WAL group commits performed.
pub const STORAGE_WAL_GROUP_COMMITS_TOTAL: &str = "xst_storage_wal_group_commits_total";
/// WAL records flushed via group commits.
pub const STORAGE_WAL_GROUP_COMMIT_RECORDS_TOTAL: &str =
    "xst_storage_wal_group_commit_records_total";

/// Storage operations retried after an injected/transient fault.
pub const STORAGE_RETRIES_TOTAL: &str = "xst_storage_retries_total";
/// Storage operations abandoned after exhausting the retry budget.
pub const STORAGE_RETRY_GIVE_UPS_TOTAL: &str = "xst_storage_retry_give_ups_total";
/// Nanoseconds of simulated retry backoff.
pub const STORAGE_RETRY_BACKOFF_NS: &str = "xst_storage_retry_backoff_ns";
/// Faults injected by the deterministic fault plan.
pub const STORAGE_FAULTS_INJECTED_TOTAL: &str = "xst_storage_faults_injected_total";

/// Common prefix of every network-server metric.
pub const SERVER_PREFIX: &str = "xst_server_";
/// Connections accepted by the server (admitted into a session).
pub const SERVER_ACCEPTED_TOTAL: &str = "xst_server_accepted_total";
/// Connections rejected by admission control (cap + queue both full).
pub const SERVER_ADMISSION_REJECTED_TOTAL: &str = "xst_server_admission_rejected_total";
/// Sessions currently open (gauge).
pub const SERVER_ACTIVE_SESSIONS: &str = "xst_server_active_sessions";
/// Connections waiting in the admission queue for a session slot (gauge).
pub const SERVER_QUEUE_DEPTH: &str = "xst_server_queue_depth";
/// Requests served across all sessions.
pub const SERVER_REQUESTS_TOTAL: &str = "xst_server_requests_total";
/// Malformed frames / protocol violations answered with a structured error.
pub const SERVER_PROTOCOL_ERRORS_TOTAL: &str = "xst_server_protocol_errors_total";
/// Nanoseconds spent handling one request (decode → dispatch → encode).
pub const SERVER_REQUEST_NS: &str = "xst_server_request_ns";

/// Requests that arrived wrapped in a client trace context (v2 peers).
pub const SERVER_TRACED_REQUESTS_TOTAL: &str = "xst_server_traced_requests_total";

/// Common prefix of every client-side metric.
pub const CLIENT_PREFIX: &str = "xst_client_";
/// Requests issued by `xst-client` connections.
pub const CLIENT_REQUESTS_TOTAL: &str = "xst_client_requests_total";
/// Nanoseconds from request write to response decode on the client.
pub const CLIENT_REQUEST_NS: &str = "xst_client_request_ns";

/// Requests recorded in the structured request log.
pub const REQLOG_RECORDS_TOTAL: &str = "xst_reqlog_records_total";
/// Requests whose wall time crossed the slow-query threshold.
pub const REQLOG_SLOW_TOTAL: &str = "xst_reqlog_slow_total";

/// Transactions begun.
pub const TXN_BEGINS_TOTAL: &str = "xst_txn_begins_total";
/// Transactions committed.
pub const TXN_COMMITS_TOTAL: &str = "xst_txn_commits_total";
/// Transactions aborted.
pub const TXN_ABORTS_TOTAL: &str = "xst_txn_aborts_total";
/// Commit-time conflicts detected.
pub const TXN_CONFLICTS_TOTAL: &str = "xst_txn_conflicts_total";
/// Nanoseconds spent committing transactions.
pub const TXN_COMMIT_NS: &str = "xst_txn_commit_ns";
/// Transactions currently open — begun but neither committed nor aborted
/// (gauge; pins a snapshot identity each).
pub const TXN_ACTIVE: &str = "xst_txn_active";
/// Committed table versions held in version chains (gauge; bounded by
/// the oldest open snapshot — one per table when nothing is open).
pub const TXN_VERSIONS_RETAINED: &str = "xst_txn_versions_retained";
/// Committed table versions cut from their chain below the oldest open
/// snapshot.
pub const TXN_VERSIONS_RECLAIMED_TOTAL: &str = "xst_txn_versions_reclaimed_total";

/// Common prefix of every sharded-execution metric.
pub const SHARD_PREFIX: &str = "xst_shard_";
/// Shards configured on the serving engine (gauge).
pub const SHARD_COUNT: &str = "xst_shard_count";
/// Distributed transactions begun on a sharded engine.
pub const SHARD_TXN_BEGINS_TOTAL: &str = "xst_shard_txn_begins_total";
/// Distributed transactions committed via the single-shard fast path
/// (one participant, no coordinator decision record needed).
pub const SHARD_SINGLE_COMMITS_TOTAL: &str = "xst_shard_single_commits_total";
/// Distributed transactions committed through full two-phase commit.
pub const SHARD_2PC_COMMITS_TOTAL: &str = "xst_shard_2pc_commits_total";
/// Two-phase commits aborted before their decision record became durable.
pub const SHARD_2PC_ABORTS_TOTAL: &str = "xst_shard_2pc_aborts_total";
/// Per-shard prepare flushes performed (one per participating shard).
pub const SHARD_2PC_PREPARES_TOTAL: &str = "xst_shard_2pc_prepares_total";
/// In-doubt prepared transactions resolved from the coordinator's
/// decision record during recovery (committed or dropped).
pub const SHARD_2PC_IN_DOUBT_RESOLVED_TOTAL: &str = "xst_shard_2pc_in_doubt_resolved_total";
/// Scatter stage: per-shard fragment kernel dispatches.
pub const SHARD_SCATTER_OPS_TOTAL: &str = "xst_shard_scatter_ops_total";
/// Gather stage: ordered fragment merges performed.
pub const SHARD_GATHER_MERGES_TOTAL: &str = "xst_shard_gather_merges_total";

/// Common prefix of every cross-process coordinator metric.
pub const COORD_PREFIX: &str = "xst_coord_";
/// Shard processes the wire coordinator is connected to (gauge).
pub const COORD_SHARDS: &str = "xst_coord_shards";
/// Distributed transactions begun by the wire coordinator.
pub const COORD_TXN_BEGINS_TOTAL: &str = "xst_coord_txn_begins_total";
/// Wire commits that touched one shard process (no 2PC round).
pub const COORD_SINGLE_COMMITS_TOTAL: &str = "xst_coord_single_commits_total";
/// Wire commits acknowledged by a durable coordinator decision.
pub const COORD_2PC_COMMITS_TOTAL: &str = "xst_coord_2pc_commits_total";
/// Wire commits aborted before a decision was recorded.
pub const COORD_2PC_ABORTS_TOTAL: &str = "xst_coord_2pc_aborts_total";
/// Fragment reads scattered to shard processes over the wire.
pub const COORD_FRAG_READS_TOTAL: &str = "xst_coord_frag_reads_total";
/// Resolve rounds delivered to shard processes (recovery and reconnect).
pub const COORD_RESOLVES_TOTAL: &str = "xst_coord_resolves_total";
/// Committed decisions replayed from the decision log at coordinator
/// recovery.
pub const COORD_DECISIONS_REPLAYED_TOTAL: &str = "xst_coord_decisions_replayed_total";

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
            super::COORD_RESOLVES_TOTAL,
            super::COORD_DECISIONS_REPLAYED_TOTAL,
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
            super::COORD_RESOLVES_TOTAL,
            super::COORD_DECISIONS_REPLAYED_TOTAL,
        ] {
            assert!(coord.starts_with(super::COORD_PREFIX), "{coord}");
        }
    }
}
