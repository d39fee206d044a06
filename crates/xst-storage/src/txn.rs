//! Multi-version concurrency: snapshot-isolated transactions over the
//! set-processing engine.
//!
//! The 1977 program pitches XST as the foundation of a *backend
//! information system serving many concurrent consumers*; this module is
//! the concurrency discipline under that claim. A [`TxnManager`] keeps,
//! per table, a sequence of **committed versions** — copy-on-write
//! [`ExtendedSet`] identities keyed by commit timestamp — and hands out
//! [`Txn`] handles that read a frozen snapshot and buffer their writes
//! privately:
//!
//! * **Snapshot isolation.** A transaction's reads all come from the
//!   version chain as of its begin timestamp. Commits by other
//!   transactions never move a running transaction's view (snapshot-read
//!   stability), and a transaction always sees its own buffered writes
//!   layered over that snapshot (read-your-own-writes).
//! * **First committer wins.** Each version remembers the *write set* (the
//!   exact records inserted or deleted) of the commit that produced it. A
//!   committing transaction is validated against every version committed
//!   after its snapshot: any overlap of write sets is a
//!   [`StorageError::TxnConflict`] and the transaction aborts — the classic
//!   SI write-write rule, at record granularity.
//! * **Committed ⇒ recoverable.** The commit point *is* the group-commit
//!   WAL flush of PR 3: every write of the transaction — across all tables
//!   it touched — is staged as one batch into a single op-log
//!   [`LoggedTable`] and acknowledged by ONE flush
//!   ([`LoggedTable::append_batch`]). A crash at any fault site therefore
//!   leaves a committed transaction fully recoverable and an uncommitted
//!   one atomically absent, and [`TxnManager::recover`] rebuilds the
//!   committed state by replaying the op log in order.
//!
//! Versions are whole-set identities, not byte deltas: the version chain
//! is literally a sequence of extended sets, and a snapshot read is an
//! `Arc` clone — readers never copy the table and never block the writer.
//! A commit meets a table **once**, as a set: its ops are folded (program
//! order, last op per record wins) into one delete set `D` and one insert
//! set `I`, and the new head is `(head ~ D) ∪ I`, evaluated in one ordered
//! merge — O(n + k log k) for k ops, whatever k is (`apply_delta`, also
//! what read-your-own-writes and recovery replay use).
//!
//! Chains are **bounded by the readers, not by history.** The manager
//! keeps the begin timestamps of its open transactions; the least of them
//! (or the latest commit timestamp when none is open) is the *watermark*.
//! After every publish each chain is cut below the version visible at the
//! watermark. The invariant: *every version a live `begin_ts` can read or
//! must validate against is retained* — the version visible at the oldest
//! open snapshot and every version after it. Nothing below that can be
//! reached: new transactions begin at the head, and a transaction's own
//! pin is released only after its writes were validated. Readers that
//! already hold an `Arc` of a cut version keep it; the cut versions
//! themselves are dropped after the manager lock is released.
//!
//! The deterministic interleaving harness in `xst-testkit::sched`
//! enumerates schedules of concurrent transactions against this module
//! and checks every outcome against a sequential oracle.

use crate::bufpool::{BufferPool, Storage};
use crate::engine::SetEngine;
use crate::error::{StorageError, StorageResult};
use crate::record::{Record, Schema};
use crate::retry::RetryPolicy;
use crate::wal::{LoggedTable, Wal};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::DerefMut;
use std::sync::Arc;
use std::time::Instant;
use xst_core::{ExtendedSet, Member, Value};
use xst_obs::names::handle as m;

/// Monotonic transaction id (assigned at [`TxnManager::begin`]).
pub type TxnId = u64;

/// Monotonic commit timestamp; `0` is the pre-history timestamp every
/// empty table is born at.
pub type CommitTs = u64;

/// One buffered write of a transaction, in program order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnOp {
    /// Insert a record (idempotent under set semantics).
    Insert(Record),
    /// Delete a record if present.
    Delete(Record),
}

impl TxnOp {
    /// The record this op touches — the unit of conflict detection.
    pub fn record(&self) -> &Record {
        match self {
            TxnOp::Insert(r) | TxnOp::Delete(r) => r,
        }
    }
}

/// One committed version of a table: the whole-set identity as of
/// `commit_ts`, plus the write set of the commit that produced it.
struct TableVersion {
    commit_ts: CommitTs,
    identity: Arc<ExtendedSet>,
    /// Records inserted or deleted by this commit, for first-committer-wins
    /// overlap checks against later committers.
    writes: BTreeSet<Record>,
}

/// A table under MVCC: its schema and the ascending version chain.
struct VersionedTable {
    schema: Schema,
    /// Ascending by `commit_ts`; index 0 is the empty pre-history version.
    versions: Vec<TableVersion>,
}

impl VersionedTable {
    fn new(schema: Schema) -> VersionedTable {
        VersionedTable {
            schema,
            versions: vec![TableVersion {
                commit_ts: 0,
                identity: Arc::new(ExtendedSet::empty()),
                writes: BTreeSet::new(),
            }],
        }
    }

    /// The latest version visible at snapshot `ts`. Chains are seeded with
    /// a ts-0 version at construction, so `None` means a corrupted chain.
    fn visible_at(&self, ts: CommitTs) -> Option<&TableVersion> {
        self.versions.iter().rev().find(|v| v.commit_ts <= ts)
    }

    fn latest(&self) -> Option<&TableVersion> {
        self.versions.last()
    }
}

/// The schema of the shared durable op log: which table, insert or
/// delete, and the row as its tuple identity.
fn op_log_schema() -> Schema {
    Schema::new(["table", "op", "row"])
}

const OP_INSERT: &str = "i";
const OP_DELETE: &str = "d";

/// Pseudo-table name of two-phase-commit control records in the op log.
/// The leading NUL keeps it out of the namespace any catalog table can
/// occupy (wire/ shell table names are plain text).
const CTRL_TABLE: &str = "\u{0}2pc";
const CTRL_PREPARE: &str = "p";
const CTRL_COMMIT: &str = "c";

fn encode_op(table: &str, op: &TxnOp) -> Record {
    let (tag, r) = match op {
        TxnOp::Insert(r) => (OP_INSERT, r),
        TxnOp::Delete(r) => (OP_DELETE, r),
    };
    Record::new([Value::str(table), Value::sym(tag), Value::Set(r.to_tuple())])
}

/// Encode one op of a prepared distributed transaction: the op tag
/// carries the global transaction id (`i7`/`d7`), so replay can group the
/// batch under its 2PC outcome instead of applying it at flush time.
fn encode_op_prepared(table: &str, op: &TxnOp, gtxn: u64) -> Record {
    let (tag, r) = match op {
        TxnOp::Insert(r) => (OP_INSERT, r),
        TxnOp::Delete(r) => (OP_DELETE, r),
    };
    Record::new([
        Value::str(table),
        Value::sym(format!("{tag}{gtxn}")),
        Value::Set(r.to_tuple()),
    ])
}

/// Encode a 2PC control record (PREPARE / local COMMIT) for `gtxn`.
fn encode_ctrl(kind: &str, gtxn: u64) -> Record {
    Record::new([
        Value::str(CTRL_TABLE),
        Value::sym(kind),
        Value::Int(gtxn as i64),
    ])
}

/// One decoded op-log record: a data op (optionally tagged with the
/// distributed transaction that prepared it) or a 2PC control record.
enum LogEntry {
    /// `(table, op, gtxn)` — `gtxn = None` for single-flush commits.
    Op(String, TxnOp, Option<u64>),
    /// PREPARE marker of a distributed transaction on this participant.
    Prepare(u64),
    /// Local COMMIT marker: the distributed transaction's ops apply here.
    Commit(u64),
}

fn decode_entry(record: &Record) -> StorageResult<LogEntry> {
    let bad = |what: &str| StorageError::Corrupt {
        reason: format!("op-log record is not a (table, op, row) triple: {what}"),
    };
    let [table, tag, row] = record.values() else {
        return Err(bad("wrong arity"));
    };
    let Value::Str(table) = table else {
        return Err(bad("table name is not a string"));
    };
    if table.as_ref() == CTRL_TABLE {
        let Value::Int(gtxn) = row else {
            return Err(bad("2pc control record without a gtxn"));
        };
        let gtxn = u64::try_from(*gtxn).map_err(|_| bad("negative gtxn"))?;
        return match tag {
            Value::Sym(t) if t.as_ref() == CTRL_PREPARE => Ok(LogEntry::Prepare(gtxn)),
            Value::Sym(t) if t.as_ref() == CTRL_COMMIT => Ok(LogEntry::Commit(gtxn)),
            _ => Err(bad("unknown 2pc control tag")),
        };
    }
    let row = row.as_set().ok_or_else(|| bad("row is not a set"))?;
    let row = Record::from_tuple(row)?;
    let Value::Sym(t) = tag else {
        return Err(bad("op tag is not a symbol"));
    };
    let (kind, rest) = t.as_ref().split_at(1);
    let gtxn = if rest.is_empty() {
        None
    } else {
        Some(rest.parse::<u64>().map_err(|_| bad("bad gtxn suffix"))?)
    };
    let op = match kind {
        OP_INSERT => TxnOp::Insert(row),
        OP_DELETE => TxnOp::Delete(row),
        _ => return Err(bad("unknown op tag")),
    };
    Ok(LogEntry::Op(table.to_string(), op, gtxn))
}

#[cfg(test)]
fn decode_op(record: &Record) -> StorageResult<(String, TxnOp)> {
    match decode_entry(record)? {
        LogEntry::Op(table, op, _) => Ok((table, op)),
        LogEntry::Prepare(_) | LogEntry::Commit(_) => Err(StorageError::Corrupt {
            reason: "expected a data op, found a 2pc control record".to_string(),
        }),
    }
}

struct ManagerInner {
    next_txn: TxnId,
    last_commit: CommitTs,
    /// Begin timestamps of the transactions begun but not yet
    /// committed/aborted/dropped, as a multiset (`begin_ts` → how many).
    /// Its size is [`TxnManager::active_txns`] (kept even while the
    /// collector is off; the `xst_txn_active` gauge mirrors it) and its
    /// least key is the reclaim watermark.
    open: BTreeMap<CommitTs, u64>,
    tables: BTreeMap<String, VersionedTable>,
    /// The shared durable op log. One [`LoggedTable::append_batch`] per
    /// commit — the group-commit flush is the commit point.
    log: LoggedTable,
    /// Distributed transactions prepared on this participant but not yet
    /// locally committed or aborted: their validated write sets, held
    /// until the coordinator's decision arrives.
    prepared: BTreeMap<u64, BTreeMap<String, Vec<TxnOp>>>,
    /// `false` only under [`TxnManager::with_broken_conflict_detection`],
    /// the deliberately-unsound mode the interleaving harness must catch.
    detect_conflicts: bool,
    /// Versions cut from this manager's chains so far.
    reclaimed: u64,
    /// This manager's current contribution to the process-wide
    /// `xst_txn_versions_retained` gauge. The gauge moves by the
    /// difference to the true chain total at each publish, so a collector
    /// toggled mid-run self-corrects, and the share is returned on drop.
    gauge_share: u64,
}

impl ManagerInner {
    fn new(log: LoggedTable, tables: BTreeMap<String, VersionedTable>) -> ManagerInner {
        ManagerInner {
            next_txn: 1,
            last_commit: 0,
            open: BTreeMap::new(),
            tables,
            log,
            prepared: BTreeMap::new(),
            detect_conflicts: true,
            reclaimed: 0,
            gauge_share: 0,
        }
    }

    /// Release one open transaction's hold on `begin_ts`.
    fn unpin(&mut self, begin_ts: CommitTs) {
        if let Some(n) = self.open.get_mut(&begin_ts) {
            *n -= 1;
            if *n == 0 {
                self.open.remove(&begin_ts);
            }
        }
    }

    /// Cut every chain below the version visible at the watermark — the
    /// oldest open `begin_ts`, or the head when nothing is open — and hand
    /// the cut versions back to be dropped after the manager lock is
    /// released (freeing a table-sized identity is not commit-order work).
    fn reclaim(&mut self) -> Vec<TableVersion> {
        let watermark = self.open.keys().next().copied().unwrap_or(self.last_commit);
        let mut cut = Vec::new();
        let mut retained = 0u64;
        for vt in self.tables.values_mut() {
            let visible = vt.versions.partition_point(|v| v.commit_ts <= watermark);
            cut.extend(vt.versions.drain(..visible.saturating_sub(1)));
            retained += vt.versions.len() as u64;
        }
        self.reclaimed += cut.len() as u64;
        if xst_obs::enabled() {
            m::TXN_VERSIONS_RECLAIMED_TOTAL.add(cut.len() as u64);
            m::TXN_VERSIONS_RETAINED.add(retained as f64 - self.gauge_share as f64);
            self.gauge_share = retained;
        }
        cut
    }
}

impl Drop for ManagerInner {
    fn drop(&mut self) {
        if self.gauge_share != 0 {
            m::TXN_VERSIONS_RETAINED.force_add(-(self.gauge_share as f64));
        }
    }
}

/// Issues transactions and owns the versioned table state. Cloning is
/// cheap (one `Arc`); clones share the same database.
#[derive(Clone)]
pub struct TxnManager {
    inner: Arc<Mutex<ManagerInner>>,
}

/// The outcome of [`TxnManager::recover_with_decisions`] on one 2PC
/// participant.
pub struct RecoveredParticipant {
    /// The recovered manager (logs future commits into the fresh WAL).
    pub mgr: TxnManager,
    /// In-doubt prepares resolved to COMMIT by the coordinator's record.
    pub in_doubt_committed: u64,
    /// In-doubt prepares resolved to ABORT (no coordinator decision).
    pub in_doubt_aborted: u64,
    /// Highest global transaction id seen anywhere in this participant's
    /// log — the coordinator restarts its gtxn counter above the max
    /// across shards so ids never collide after recovery.
    pub max_gtxn: u64,
}

impl TxnManager {
    /// A fresh transactional database over `storage`, logging commits
    /// through `wal`.
    pub fn new(storage: &Storage, wal: Wal) -> TxnManager {
        TxnManager {
            inner: Arc::new(Mutex::new(ManagerInner::new(
                LoggedTable::create(storage, op_log_schema(), wal),
                BTreeMap::new(),
            ))),
        }
    }

    /// Replace the retry policy governing the commit-path WAL flushes.
    pub fn with_retry_policy(self, retry: RetryPolicy) -> TxnManager {
        {
            let mut inner = self.inner.lock();
            let log = std::mem::replace(
                &mut inner.log,
                LoggedTable::create(&Storage::new(), op_log_schema(), Wal::new()),
            );
            inner.log = log.with_retry_policy(retry);
        }
        self
    }

    /// Disable first-committer-wins validation. **Deliberately unsound** —
    /// commits then blindly overwrite each other (lost updates). Exists so
    /// the interleaving harness can prove it detects a broken isolation
    /// implementation; never use it for real data.
    pub fn with_broken_conflict_detection(self) -> TxnManager {
        self.inner.lock().detect_conflicts = false;
        self
    }

    /// Register an (empty) table. Registration is in-memory metadata, like
    /// the catalog of a real system; [`TxnManager::recover`] takes the
    /// catalog as input for the same reason.
    pub fn create_table(&self, name: &str, schema: Schema) -> StorageResult<()> {
        let mut inner = self.inner.lock();
        if inner.tables.contains_key(name) {
            return Err(StorageError::SchemaMismatch {
                reason: format!("table '{name}' already exists"),
            });
        }
        inner
            .tables
            .insert(name.to_string(), VersionedTable::new(schema));
        Ok(())
    }

    /// Begin a transaction: its snapshot is everything committed so far.
    pub fn begin(&self) -> Txn {
        self.begin_with(false)
    }

    /// Begin an **internal** sub-transaction: identical isolation and
    /// durability, but silent on the transaction metric families. A
    /// sharded engine opens one sub-transaction per shard for every
    /// distributed transaction and does its own (single) accounting, so
    /// an N-shard deployment must not report N× the begins/commits or an
    /// N× `xst_txn_active` gauge. [`TxnManager::active_txns`] still
    /// counts internal transactions — it answers "who pins snapshots
    /// here", a per-manager question.
    pub fn begin_internal(&self) -> Txn {
        self.begin_with(true)
    }

    fn begin_with(&self, internal: bool) -> Txn {
        let mut inner = self.inner.lock();
        let id = inner.next_txn;
        inner.next_txn += 1;
        let begin_ts = inner.last_commit;
        *inner.open.entry(begin_ts).or_default() += 1;
        drop(inner);
        // Remember whether the gauge actually saw this begin: increments
        // and decrements must pair exactly even if the collector is
        // toggled while the transaction is open.
        let gauge_counted = !internal && xst_obs::enabled();
        if gauge_counted {
            m::TXN_BEGINS_TOTAL.inc();
            m::TXN_ACTIVE.add(1.0);
        }
        Txn {
            mgr: self.clone(),
            id,
            begin_ts,
            snapshots: BTreeMap::new(),
            schemas: BTreeMap::new(),
            writes: BTreeMap::new(),
            finished: false,
            internal,
            gauge_counted,
        }
    }

    /// The latest committed identity of `name` — what a transaction
    /// beginning right now would read.
    pub fn latest_identity(&self, name: &str) -> StorageResult<Arc<ExtendedSet>> {
        let inner = self.inner.lock();
        let vt = require_table(&inner.tables, name)?;
        let head = vt.latest().ok_or_else(|| broken_chain(name))?;
        Ok(Arc::clone(&head.identity))
    }

    /// The latest commit timestamp.
    pub fn last_commit_ts(&self) -> CommitTs {
        self.inner.lock().last_commit
    }

    /// Number of transactions currently open — begun but neither
    /// committed nor aborted. Each open transaction may pin committed
    /// version identities, so a session layer that leaks transactions
    /// shows up here (and on the `xst_txn_active` gauge).
    pub fn active_txns(&self) -> u64 {
        self.inner.lock().open.values().sum()
    }

    /// Autocommit convenience: run one batch of inserts as its own
    /// transaction.
    pub fn autocommit_insert(&self, table: &str, records: &[Record]) -> StorageResult<CommitTs> {
        let mut txn = self.begin();
        for r in records {
            txn.insert(table, r.clone())?;
        }
        txn.commit()
    }

    /// Rebuild committed state after a crash: recover the shared op log
    /// through the PR 3 machinery (checkpointed pages + marker-sealed WAL
    /// replay), then fold the surviving ops, in commit order, into one
    /// recovered version per table. `catalog` supplies the schemas, as a
    /// real system's separately-durable catalog would; tables in the
    /// catalog with no surviving ops recover empty. The recovered manager
    /// logs future commits into `fresh`.
    pub fn recover(
        storage: &Storage,
        wal: Wal,
        fresh: Wal,
        catalog: &[(&str, Schema)],
    ) -> StorageResult<TxnManager> {
        Self::recover_with_decisions(storage, wal, fresh, catalog, &BTreeSet::new()).map(|r| r.mgr)
    }

    /// Like [`TxnManager::recover`], but resolves **in-doubt** 2PC
    /// participants from the coordinator's decision log. Replay orders
    /// the surviving ops per table — plain ops where they stand,
    /// gtxn-tagged ops at their distributed transaction's local COMMIT
    /// control record — and the whole ordered sequence is ONE commit
    /// group: it is folded and applied to the empty table exactly as a
    /// live commit's ops are (the recovered chain is one version per
    /// table). A prepare with no local commit by end-of-log is
    /// in doubt: the crash hit between the prepare flush and the local
    /// decision marker. It commits iff the coordinator's durable decision
    /// record names it in `committed`; otherwise it aborts (presumed
    /// abort — an undecided global transaction was never acknowledged).
    pub fn recover_with_decisions(
        storage: &Storage,
        wal: Wal,
        fresh: Wal,
        catalog: &[(&str, Schema)],
        committed: &BTreeSet<u64>,
    ) -> StorageResult<RecoveredParticipant> {
        let log = LoggedTable::recover_onto(storage, op_log_schema(), wal, fresh)?;
        let pool = BufferPool::new(storage.clone(), 8);
        let ops = log.table.file.read_all(&pool)?;
        let mut tables = BTreeMap::new();
        for (name, schema) in catalog {
            tables.insert(name.to_string(), VersionedTable::new(schema.clone()));
        }
        // The ops that commit, per table, in commit order.
        let mut applied: BTreeMap<String, Vec<TxnOp>> = BTreeMap::new();
        // Ops of distributed transactions whose local decision has not
        // been replayed yet, keyed by gtxn (the prepare flush is one
        // marker-sealed batch, so ops and their PREPARE survive or vanish
        // together). `decided_early` tracks prepares applied straight
        // from the coordinator's decision set.
        let mut pending: BTreeMap<u64, Vec<(String, TxnOp)>> = BTreeMap::new();
        let mut decided_early: BTreeSet<u64> = BTreeSet::new();
        let mut max_gtxn = 0u64;
        for op_record in &ops {
            match decode_entry(op_record)? {
                LogEntry::Op(name, op, None) => {
                    require_table(&tables, &name)?;
                    applied.entry(name).or_default().push(op);
                }
                LogEntry::Op(name, op, Some(gtxn)) => {
                    require_table(&tables, &name)?;
                    max_gtxn = max_gtxn.max(gtxn);
                    pending.entry(gtxn).or_default().push((name, op));
                }
                LogEntry::Prepare(gtxn) => {
                    max_gtxn = max_gtxn.max(gtxn);
                    // A transaction the coordinator durably decided commits
                    // *here*, at its prepare position, not at end of log.
                    // The commit lock serializes the whole 2PC round, so
                    // nothing else lands on this log between a PREPARE and
                    // its local COMMIT — applying at the prepare preserves
                    // commit order even when the best-effort local COMMIT
                    // marker was lost and a later transaction's ops (say a
                    // delete of a row this one inserted) follow in the log.
                    if committed.contains(&gtxn) {
                        for (name, op) in pending.remove(&gtxn).unwrap_or_default() {
                            applied.entry(name).or_default().push(op);
                        }
                        decided_early.insert(gtxn);
                    }
                }
                LogEntry::Commit(gtxn) => {
                    max_gtxn = max_gtxn.max(gtxn);
                    // Already applied at its PREPARE if the decision set
                    // named it; this local marker then adds nothing.
                    if !decided_early.remove(&gtxn) {
                        for (name, op) in pending.remove(&gtxn).unwrap_or_default() {
                            applied.entry(name).or_default().push(op);
                        }
                    }
                }
            }
        }
        // End of log. A decided-committed prepare with no local COMMIT
        // marker was already applied at its prepare position and is still
        // in `decided_early` — that is the in-doubt-committed case.
        // Everything still pending lacks a decision: presumed abort.
        let in_doubt_committed = decided_early.len() as u64;
        let in_doubt_aborted = pending.len() as u64;
        let mut inner = ManagerInner::new(log, tables);
        if !applied.is_empty() {
            publish_writes(&mut inner, &applied)?;
        }
        let mgr = TxnManager {
            inner: Arc::new(Mutex::new(inner)),
        };
        Ok(RecoveredParticipant {
            mgr,
            in_doubt_committed,
            in_doubt_aborted,
            max_gtxn,
        })
    }

    /// Number of committed versions retained for `name`: the version
    /// visible at the oldest open snapshot and every version after it
    /// (just the head when no transaction is open).
    pub fn version_count(&self, name: &str) -> StorageResult<usize> {
        let inner = self.inner.lock();
        Ok(require_table(&inner.tables, name)?.versions.len())
    }

    /// Committed versions retained across all of this manager's tables.
    pub fn versions_retained(&self) -> usize {
        let inner = self.inner.lock();
        inner.tables.values().map(|vt| vt.versions.len()).sum()
    }

    /// Versions this manager has cut from its chains so far.
    pub fn versions_reclaimed(&self) -> u64 {
        self.inner.lock().reclaimed
    }

    /// Commit `txn`'s buffered writes and release its pin. Called by
    /// [`Txn::commit`].
    fn commit_writes(
        &self,
        begin_ts: CommitTs,
        writes: &BTreeMap<String, Vec<TxnOp>>,
    ) -> StorageResult<CommitTs> {
        // lint: lock-across-io: group commit — the manager lock IS the commit order; the flush must happen inside it so acknowledged order equals publish order
        let mut inner = self.inner.lock();
        // The pin goes only once validation has looked at every version
        // committed after the snapshot — and before the publish, so a lone
        // committer's chain is cut down to the new head.
        let validated = validate_writes(&inner, begin_ts, writes);
        inner.unpin(begin_ts);
        validated?;
        // Read-only transactions commit without a timestamp bump or a
        // flush — they wrote nothing, so there is nothing to make durable.
        if writes.is_empty() {
            return Ok(inner.last_commit);
        }
        // Durability: one op-log batch, one group-commit flush, across
        // every table this transaction touched. `Ok` here is the ack —
        // acknowledged ⇒ recoverable. `Err` leaves the batch atomically
        // absent and the in-memory version chains untouched.
        let batch: Vec<Record> = writes
            .iter()
            .flat_map(|(name, ops)| ops.iter().map(move |op| encode_op(name, op)))
            .collect();
        inner.log.append_batch(&batch)?;
        publish_writes(inner, writes)
    }

    /// Phase one of two-phase commit on `txn`'s buffered writes; releases
    /// its pin once they are validated. Called by [`Txn::into_prepared`].
    fn prepare_writes(
        &self,
        gtxn: u64,
        begin_ts: CommitTs,
        writes: BTreeMap<String, Vec<TxnOp>>,
    ) -> StorageResult<()> {
        // lint: lock-across-io: prepare must validate and flush atomically — releasing the lock between them would let a racing prepare validate against unpublished state
        let mut inner = self.inner.lock();
        // From here the prepared write set, not a snapshot, carries the
        // transaction: `commit_prepared` publishes onto whatever the head
        // is by then and validates nothing.
        let validated = validate_writes(&inner, begin_ts, &writes);
        inner.unpin(begin_ts);
        validated?;
        let mut batch: Vec<Record> = writes
            .iter()
            .flat_map(|(name, ops)| ops.iter().map(move |op| encode_op_prepared(name, op, gtxn)))
            .collect();
        batch.push(encode_ctrl(CTRL_PREPARE, gtxn));
        inner.log.append_batch(&batch)?;
        inner.prepared.insert(gtxn, writes);
        Ok(())
    }

    /// **Phase two, commit.** The coordinator's decision record is
    /// already durable, so this CANNOT veto the transaction: the local
    /// COMMIT control record is written best-effort (if its flush dies,
    /// recovery resolves the in-doubt prepare from the coordinator's
    /// decisions instead), and the prepared writes are always published.
    /// Errors only on the invariant violations `Corrupt` covers — never
    /// on I/O.
    pub fn commit_prepared(&self, gtxn: u64) -> StorageResult<CommitTs> {
        // lint: lock-across-io: the best-effort decision marker and the publish must be one critical section so recovery and readers agree on commit order
        let mut inner = self.inner.lock();
        let writes = inner
            .prepared
            .remove(&gtxn)
            .ok_or_else(|| StorageError::Corrupt {
                reason: format!("commit_prepared({gtxn}): no such prepared transaction"),
            })?;
        // Best-effort local decision marker; the prepare flush already
        // made the ops durable and the coordinator record is the truth.
        let _ = inner.log.append_batch(&[encode_ctrl(CTRL_COMMIT, gtxn)]);
        publish_writes(inner, &writes)
    }

    /// **Phase two, abort.** Purely in-memory — the prepared batch stays
    /// in the log but recovery discards prepares with no commit decision,
    /// so dropping the retained writes is all an abort takes. Infallible
    /// by design: an abort path that could itself fail would wedge the
    /// coordinator.
    pub fn abort_prepared(&self, gtxn: u64) {
        self.inner.lock().prepared.remove(&gtxn);
    }

    /// Distributed transactions currently prepared and awaiting a
    /// decision on this participant.
    pub fn prepared_txns(&self) -> usize {
        self.inner.lock().prepared.len()
    }

    /// Is `gtxn` currently prepared (awaiting a decision) here?
    pub fn has_prepared(&self, gtxn: u64) -> bool {
        self.inner.lock().prepared.contains_key(&gtxn)
    }

    /// The global transaction ids currently prepared here, in id order.
    /// An external coordinator resolving in-doubt state enumerates these
    /// and delivers commit/abort for each from its decision log.
    pub fn prepared_gtxns(&self) -> Vec<u64> {
        self.inner.lock().prepared.keys().copied().collect()
    }
}

/// First-committer-wins validation of `writes` against every version
/// committed after `begin_ts` (shared by the single-flush commit path and
/// the 2PC prepare path). With detection disabled, still validates table
/// existence so the deliberately-broken mode only breaks *isolation*.
fn validate_writes(
    inner: &ManagerInner,
    begin_ts: CommitTs,
    writes: &BTreeMap<String, Vec<TxnOp>>,
) -> StorageResult<()> {
    if !inner.detect_conflicts {
        for name in writes.keys() {
            require_table(&inner.tables, name)?;
        }
        return Ok(());
    }
    for (name, ops) in writes {
        let vt = require_table(&inner.tables, name)?;
        for v in vt.versions.iter().rev() {
            if v.commit_ts <= begin_ts {
                break;
            }
            if let Some(op) = ops.iter().find(|op| v.writes.contains(op.record())) {
                if xst_obs::enabled() {
                    m::TXN_CONFLICTS_TOTAL.inc();
                    xst_obs::cost::add_conflict();
                }
                return Err(StorageError::TxnConflict {
                    table: name.clone(),
                    reason: format!(
                        "record {:?} was written by commit ts {} after snapshot ts {begin_ts}",
                        op.record(),
                        v.commit_ts
                    ),
                });
            }
        }
    }
    Ok(())
}

/// Publish validated, durable writes: one new version per written table,
/// all at the same commit timestamp (the transaction is atomic across
/// tables), then cut every chain at the watermark. Takes the manager
/// lock's guard by value so the order is fixed here: the guard is
/// released first, the cut versions are freed after. Fails only on
/// broken-chain invariant violations.
fn publish_writes(
    mut inner: impl DerefMut<Target = ManagerInner>,
    writes: &BTreeMap<String, Vec<TxnOp>>,
) -> StorageResult<CommitTs> {
    let ts = inner.last_commit + 1;
    inner.last_commit = ts;
    for (name, ops) in writes {
        let vt = inner
            .tables
            .get_mut(name)
            .ok_or_else(|| broken_chain(name))?;
        let head = vt.latest().ok_or_else(|| broken_chain(name))?;
        vt.versions.push(TableVersion {
            commit_ts: ts,
            identity: Arc::new(apply_delta(&head.identity, ops)),
            writes: ops.iter().map(|op| op.record().clone()).collect(),
        });
    }
    let cut = inner.reclaim();
    drop(inner);
    drop(cut);
    Ok(ts)
}

/// A version chain lost its seed entry (or a validated table vanished) —
/// an invariant violation surfaced as corruption rather than a panic.
fn broken_chain(name: &str) -> StorageError {
    StorageError::Corrupt {
        reason: format!("broken version chain for table '{name}'"),
    }
}

fn require_table<'a>(
    tables: &'a BTreeMap<String, VersionedTable>,
    name: &str,
) -> StorageResult<&'a VersionedTable> {
    tables
        .get(name)
        .ok_or_else(|| StorageError::SchemaMismatch {
            reason: format!("no table named '{name}'"),
        })
}

/// Apply a sequence of ops to a whole-set identity, as one set
/// expression: fold the ops — program order, last op per record wins —
/// into a delete set `D` and an insert set `I`, and evaluate
/// `(head ~ D) ∪ I` in a single ordered merge of `head` with the folded
/// delta. The set-processing discipline all the way down, and the ONE way
/// ops meet a table: publish, read-your-own-writes and recovery replay
/// all come through here. O(n) member copies plus O(k log k + k log n)
/// comparisons for k ops on n members.
///
/// One merge, not `union(&difference(head, &d), &i)`: the composition
/// copies all n members twice, and copying members — not comparing them —
/// is what a commit on a large table spends its time on (see E19 in
/// EXPERIMENTS.md).
fn apply_delta(head: &ExtendedSet, ops: &[TxnOp]) -> ExtendedSet {
    // The fold, in canonical member order: `true` rows are `I`, `false`
    // rows are `D`. The sort is stable, so a row's ops stay in program
    // order and the last one's verdict is the one kept. (A vector, not a
    // map keyed by row: map nodes allocated between the row tuples scatter
    // a bulk-loaded table over the heap, and every later scan of it pays —
    // +30 % on the benchmark's `wire_point` read.)
    let mut delta: Vec<(Member, bool)> = ops
        .iter()
        .map(|op| {
            let row = Member::classical(Value::Set(op.record().to_tuple()));
            (row, matches!(op, TxnOp::Insert(_)))
        })
        .collect();
    delta.sort_by(|a, b| a.0.cmp(&b.0));
    delta.dedup_by(|later, kept| {
        let same_row = later.0 == kept.0;
        if same_row {
            kept.1 = later.1;
        }
        same_row
    });
    let members = head.members();
    let mut out: Vec<Member> = Vec::with_capacity(members.len() + delta.len());
    let mut at = 0;
    for (row, inserted) in delta {
        // Everything below `row` is untouched; `row` itself leaves with
        // `D` or is re-stated by `I`.
        let upto = at + members[at..].partition_point(|m| *m < row);
        out.extend_from_slice(&members[at..upto]);
        at = upto + usize::from(members.get(upto) == Some(&row));
        if inserted {
            out.push(row);
        }
    }
    out.extend_from_slice(&members[at..]);
    ExtendedSet::from_sorted_unique(out)
}

/// The oracle [`apply_delta`] is tested against: one op at a time, insert
/// as a union with the singleton row identity, delete as a difference.
#[cfg(test)]
fn apply_op(identity: &ExtendedSet, op: &TxnOp) -> ExtendedSet {
    use xst_core::ops::{difference, union};
    let row = ExtendedSet::classical([Value::Set(op.record().to_tuple())]);
    match op {
        TxnOp::Insert(_) => union(identity, &row),
        TxnOp::Delete(_) => difference(identity, &row),
    }
}

/// A snapshot-isolated transaction. Reads come from the snapshot taken at
/// [`TxnManager::begin`] (plus this transaction's own writes); writes stay
/// buffered until [`Txn::commit`].
///
/// Dropping a transaction without committing aborts it.
pub struct Txn {
    mgr: TxnManager,
    id: TxnId,
    begin_ts: CommitTs,
    /// Identities pinned on first read — `Arc` clones of committed
    /// versions, so repeat reads are lock-free and provably stable.
    snapshots: BTreeMap<String, Arc<ExtendedSet>>,
    /// Schemas resolved on first use — one manager lock and one clone per
    /// (transaction, table), not per staged row.
    schemas: BTreeMap<String, Schema>,
    writes: BTreeMap<String, Vec<TxnOp>>,
    finished: bool,
    /// Metric-silent sub-transaction of a distributed transaction (see
    /// [`TxnManager::begin_internal`]).
    internal: bool,
    /// Whether the begin incremented the `xst_txn_active` gauge; the
    /// release decrements iff it did, so increments and decrements pair
    /// exactly across collector toggles.
    gauge_counted: bool,
}

impl Txn {
    /// This transaction's id.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// The commit timestamp this transaction's snapshot was taken at.
    pub fn begin_ts(&self) -> CommitTs {
        self.begin_ts
    }

    /// True iff this transaction has buffered writes.
    pub fn is_read_only(&self) -> bool {
        self.writes.is_empty()
    }

    /// Pin (on first use) and return the snapshot identity of `table`,
    /// *without* this transaction's own writes.
    fn snapshot(&mut self, table: &str) -> StorageResult<Arc<ExtendedSet>> {
        if let Some(s) = self.snapshots.get(table) {
            return Ok(Arc::clone(s));
        }
        let inner = self.mgr.inner.lock();
        let vt = require_table(&inner.tables, table)?;
        let visible = vt
            .visible_at(self.begin_ts)
            .ok_or_else(|| broken_chain(table))?;
        let identity = Arc::clone(&visible.identity);
        drop(inner);
        self.snapshots
            .insert(table.to_string(), Arc::clone(&identity));
        Ok(identity)
    }

    fn schema(&mut self, table: &str) -> StorageResult<&Schema> {
        if !self.schemas.contains_key(table) {
            let inner = self.mgr.inner.lock();
            let schema = require_table(&inner.tables, table)?.schema.clone();
            drop(inner);
            self.schemas.insert(table.to_string(), schema);
        }
        self.schemas.get(table).ok_or_else(|| broken_chain(table))
    }

    /// The identity this transaction sees for `table`: the pinned snapshot
    /// with its own buffered writes applied in program order.
    pub fn read_identity(&mut self, table: &str) -> StorageResult<ExtendedSet> {
        let snap = self.snapshot(table)?;
        Ok(match self.writes.get(table) {
            None => (*snap).clone(),
            Some(ops) => apply_delta(&snap, ops),
        })
    }

    /// This transaction's view of `table` as sorted records.
    pub fn scan(&mut self, table: &str) -> StorageResult<Vec<Record>> {
        SetEngine::to_records(&self.read_identity(table)?)
    }

    fn stage(&mut self, table: &str, op: TxnOp) -> StorageResult<()> {
        op.record().conforms(self.schema(table)?)?;
        match self.writes.get_mut(table) {
            Some(ops) => ops.push(op),
            None => {
                self.writes.insert(table.to_string(), vec![op]);
            }
        }
        Ok(())
    }

    /// Buffer an insert.
    pub fn insert(&mut self, table: &str, record: Record) -> StorageResult<()> {
        self.stage(table, TxnOp::Insert(record))
    }

    /// Buffer a delete (a no-op at read time if the record is absent).
    pub fn delete(&mut self, table: &str, record: Record) -> StorageResult<()> {
        self.stage(table, TxnOp::Delete(record))
    }

    /// Commit: validate first-committer-wins, group-commit the op batch
    /// through the WAL, publish new versions. On `Err` the transaction is
    /// aborted and had no effect (the failed batch is atomically absent
    /// from the log).
    pub fn commit(mut self) -> StorageResult<CommitTs> {
        let timer = (!self.internal && xst_obs::enabled()).then(Instant::now);
        self.finished = true;
        let result = self.mgr.commit_writes(self.begin_ts, &self.writes);
        self.release_gauge();
        if !self.internal && xst_obs::enabled() {
            match &result {
                Ok(_) => {
                    m::TXN_COMMITS_TOTAL.inc();
                    if let Some(t) = timer {
                        m::TXN_COMMIT_NS.observe_since(t);
                    }
                }
                Err(_) => m::TXN_ABORTS_TOTAL.inc(),
            }
        }
        result
    }

    /// Abort: discard every buffered write. Also what [`Drop`] does.
    pub fn abort(self) {
        drop(self);
    }

    /// **Phase one of two-phase commit.** Validate this transaction's
    /// writes under first-committer-wins, then make them durable — tagged
    /// with `gtxn` and sealed with a PREPARE control record — in ONE
    /// group-commit flush. Nothing is published: the writes stay
    /// invisible to readers and are held in memory until
    /// [`TxnManager::commit_prepared`] or [`TxnManager::abort_prepared`]
    /// delivers the coordinator's decision. The transaction's pin on its
    /// snapshot is released in the same critical section, after the
    /// validation — from there on the prepared write set, not the
    /// transaction handle, carries the work. On `Err` the participant is
    /// clean: the batch is atomically absent and nothing was retained.
    /// Silent on the transaction metric families; the coordinator does
    /// the accounting for the distributed transaction.
    ///
    /// The coordinator must serialize prepare→decision across
    /// participants (the sharded engine holds a commit lock for the whole
    /// 2PC round); two overlapping prepares on one participant would
    /// both pass validation because neither is published yet.
    pub fn into_prepared(mut self, gtxn: u64) -> StorageResult<()> {
        self.finished = true;
        let writes = std::mem::take(&mut self.writes);
        let result = self.mgr.prepare_writes(gtxn, self.begin_ts, writes);
        self.release_gauge();
        result
    }

    /// The closing half of the `xst_txn_active` accounting: decrement iff
    /// the begin incremented, so multiple managers sharing the
    /// process-wide gauge compose by deltas instead of overwriting each
    /// other with their local counts.
    fn release_gauge(&self) {
        if self.gauge_counted {
            m::TXN_ACTIVE.force_add(-1.0);
        }
    }
}

impl Drop for Txn {
    fn drop(&mut self) {
        if !self.finished {
            self.mgr.inner.lock().unpin(self.begin_ts);
            self.release_gauge();
            if !self.internal && xst_obs::enabled() {
                m::TXN_ABORTS_TOTAL.inc();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::file_identity;
    use proptest::prelude::*;

    fn kv_schema() -> Schema {
        Schema::new(["k", "v"])
    }

    fn row(k: i64, v: i64) -> Record {
        Record::new([Value::Int(k), Value::Int(v)])
    }

    fn fresh() -> (Storage, Wal, TxnManager) {
        let storage = Storage::new();
        let wal = Wal::new();
        let mgr = TxnManager::new(&storage, wal.clone());
        mgr.create_table("t", kv_schema()).unwrap();
        (storage, wal, mgr)
    }

    #[test]
    fn autocommit_and_latest_identity() {
        let (_s, _w, mgr) = fresh();
        let ts = mgr
            .autocommit_insert("t", &[row(1, 10), row(2, 20)])
            .unwrap();
        assert_eq!(ts, 1);
        assert_eq!(mgr.latest_identity("t").unwrap().card(), 2);
        assert_eq!(mgr.last_commit_ts(), 1);
        assert_eq!(
            mgr.version_count("t").unwrap(),
            1,
            "no open snapshot: only the head is retained"
        );
    }

    #[test]
    fn snapshot_reads_are_stable_across_concurrent_commits() {
        let (_s, _w, mgr) = fresh();
        mgr.autocommit_insert("t", &[row(1, 10)]).unwrap();
        let mut reader = mgr.begin();
        assert_eq!(reader.scan("t").unwrap(), vec![row(1, 10)]);
        // A later commit lands while the reader is open...
        mgr.autocommit_insert("t", &[row(2, 20)]).unwrap();
        // ...and the reader's view does not move.
        assert_eq!(reader.scan("t").unwrap(), vec![row(1, 10)]);
        assert_eq!(reader.commit().unwrap(), 2, "read-only commit, no ts bump");
        // A fresh transaction sees everything.
        let mut after = mgr.begin();
        assert_eq!(after.scan("t").unwrap(), vec![row(1, 10), row(2, 20)]);
    }

    #[test]
    fn read_your_own_writes() {
        let (_s, _w, mgr) = fresh();
        mgr.autocommit_insert("t", &[row(1, 10)]).unwrap();
        let mut txn = mgr.begin();
        txn.insert("t", row(2, 20)).unwrap();
        txn.delete("t", row(1, 10)).unwrap();
        assert_eq!(txn.scan("t").unwrap(), vec![row(2, 20)]);
        // Nothing is visible outside until commit.
        assert_eq!(mgr.begin().scan("t").unwrap(), vec![row(1, 10)]);
        txn.commit().unwrap();
        assert_eq!(mgr.begin().scan("t").unwrap(), vec![row(2, 20)]);
    }

    #[test]
    fn first_committer_wins() {
        let (_s, _w, mgr) = fresh();
        mgr.autocommit_insert("t", &[row(1, 10)]).unwrap();
        let mut t1 = mgr.begin();
        let mut t2 = mgr.begin();
        // Both rewrite the same row from the same snapshot.
        for t in [&mut t1, &mut t2] {
            t.delete("t", row(1, 10)).unwrap();
            t.insert("t", row(1, 11)).unwrap();
        }
        assert!(t1.commit().is_ok(), "first committer wins");
        match t2.commit() {
            Err(StorageError::TxnConflict { table, .. }) => assert_eq!(table, "t"),
            other => panic!("second committer must conflict, got {other:?}"),
        }
        assert_eq!(mgr.begin().scan("t").unwrap(), vec![row(1, 11)]);
    }

    #[test]
    fn disjoint_writes_do_not_conflict() {
        let (_s, _w, mgr) = fresh();
        let mut t1 = mgr.begin();
        let mut t2 = mgr.begin();
        t1.insert("t", row(1, 10)).unwrap();
        t2.insert("t", row(2, 20)).unwrap();
        t1.commit().unwrap();
        t2.commit().unwrap();
        assert_eq!(mgr.begin().scan("t").unwrap(), vec![row(1, 10), row(2, 20)]);
    }

    #[test]
    fn broken_conflict_detection_loses_updates() {
        let (_s, _w, mgr) = fresh();
        let mgr = mgr.with_broken_conflict_detection();
        mgr.autocommit_insert("t", &[row(1, 0)]).unwrap();
        let mut t1 = mgr.begin();
        let mut t2 = mgr.begin();
        for t in [&mut t1, &mut t2] {
            t.delete("t", row(1, 0)).unwrap();
            t.insert("t", row(1, 1)).unwrap();
        }
        t1.commit().unwrap();
        t2.commit().unwrap(); // the lost update: both "increments" applied blindly
        assert_eq!(mgr.begin().scan("t").unwrap(), vec![row(1, 1)]);
    }

    #[test]
    fn a_read_shares_the_committed_version() {
        let (_s, _w, mgr) = fresh();
        mgr.autocommit_insert("t", &[row(1, 10), row(2, 20), row(3, 10)])
            .unwrap();
        let seen = mgr.begin().read_identity("t").unwrap();
        assert_eq!(
            SetEngine::to_records(&seen).unwrap(),
            vec![row(1, 10), row(2, 20), row(3, 10)]
        );
        // Zero-copy: the members read ARE the committed version's.
        let latest = mgr.latest_identity("t").unwrap();
        assert!(std::ptr::eq(seen.members(), latest.members()));
    }

    #[test]
    fn committed_txns_recover_after_crash() {
        let (storage, wal, mgr) = fresh();
        mgr.create_table("u", kv_schema()).unwrap();
        mgr.autocommit_insert("t", &[row(1, 10)]).unwrap();
        // One multi-table transaction.
        let mut txn = mgr.begin();
        txn.insert("t", row(2, 20)).unwrap();
        txn.insert("u", row(7, 70)).unwrap();
        txn.delete("t", row(1, 10)).unwrap();
        txn.commit().unwrap();
        // An in-flight transaction dies with the process.
        let mut doomed = mgr.begin();
        doomed.insert("t", row(9, 90)).unwrap();
        drop(doomed);
        drop(mgr); // crash
        let recovered = TxnManager::recover(
            &storage,
            wal,
            Wal::new(),
            &[("t", kv_schema()), ("u", kv_schema())],
        )
        .unwrap();
        assert_eq!(recovered.begin().scan("t").unwrap(), vec![row(2, 20)]);
        assert_eq!(recovered.begin().scan("u").unwrap(), vec![row(7, 70)]);
        // And the recovered manager accepts new commits.
        recovered.autocommit_insert("t", &[row(5, 50)]).unwrap();
        assert_eq!(
            recovered.begin().scan("t").unwrap(),
            vec![row(2, 20), row(5, 50)]
        );
    }

    #[test]
    fn unknown_tables_and_schema_violations_are_rejected() {
        let (_s, _w, mgr) = fresh();
        let mut txn = mgr.begin();
        assert!(txn.insert("nope", row(1, 1)).is_err());
        assert!(txn.scan("nope").is_err());
        assert!(txn.insert("t", Record::new([Value::Int(1)])).is_err());
        assert!(mgr.create_table("t", kv_schema()).is_err(), "duplicate");
    }

    #[test]
    fn prepared_writes_are_invisible_until_commit_prepared() {
        let (_s, _w, mgr) = fresh();
        let mut txn = mgr.begin_internal();
        txn.insert("t", row(1, 10)).unwrap();
        txn.insert("t", row(2, 20)).unwrap();
        txn.into_prepared(7).unwrap();
        assert_eq!(mgr.prepared_txns(), 1);
        // Phase one made nothing visible.
        assert_eq!(mgr.begin().scan("t").unwrap(), vec![]);
        let ts = mgr.commit_prepared(7).unwrap();
        assert_eq!(ts, 1);
        assert_eq!(mgr.prepared_txns(), 0);
        assert_eq!(mgr.begin().scan("t").unwrap(), vec![row(1, 10), row(2, 20)]);
        // Unknown gtxn is an invariant violation.
        assert!(mgr.commit_prepared(99).is_err());
    }

    #[test]
    fn abort_prepared_discards_in_memory_and_on_recovery() {
        let (storage, wal, mgr) = fresh();
        let mut txn = mgr.begin_internal();
        txn.insert("t", row(1, 10)).unwrap();
        txn.into_prepared(3).unwrap();
        mgr.abort_prepared(3);
        assert_eq!(mgr.prepared_txns(), 0);
        assert_eq!(mgr.begin().scan("t").unwrap(), vec![]);
        // The prepared batch is still physically in the log, but replay
        // without a decision for gtxn 3 discards it.
        drop(mgr);
        let r = TxnManager::recover_with_decisions(
            &storage,
            wal,
            Wal::new(),
            &[("t", kv_schema())],
            &BTreeSet::new(),
        )
        .unwrap();
        assert_eq!(r.mgr.begin().scan("t").unwrap(), vec![]);
        assert_eq!(r.in_doubt_aborted, 1);
        assert_eq!(r.in_doubt_committed, 0);
        assert_eq!(r.max_gtxn, 3);
    }

    #[test]
    fn in_doubt_prepares_resolve_from_the_coordinator_decision_set() {
        let (storage, wal, mgr) = fresh();
        mgr.autocommit_insert("t", &[row(1, 10)]).unwrap();
        let mut txn = mgr.begin_internal();
        txn.insert("t", row(2, 20)).unwrap();
        txn.into_prepared(11).unwrap();
        drop(mgr); // crash between prepare and the local decision marker
        let committed: BTreeSet<u64> = [11].into_iter().collect();
        let r = TxnManager::recover_with_decisions(
            &storage,
            wal,
            Wal::new(),
            &[("t", kv_schema())],
            &committed,
        )
        .unwrap();
        assert_eq!(
            r.mgr.begin().scan("t").unwrap(),
            vec![row(1, 10), row(2, 20)],
            "coordinator said COMMIT: the in-doubt prepare applies"
        );
        assert_eq!(r.in_doubt_committed, 1);
        assert_eq!(r.max_gtxn, 11);
    }

    #[test]
    fn locally_committed_prepares_recover_without_decisions() {
        let (storage, wal, mgr) = fresh();
        let mut txn = mgr.begin_internal();
        txn.insert("t", row(5, 50)).unwrap();
        txn.into_prepared(2).unwrap();
        mgr.commit_prepared(2).unwrap();
        drop(mgr); // crash after the local COMMIT marker
        let recovered =
            TxnManager::recover(&storage, wal, Wal::new(), &[("t", kv_schema())]).unwrap();
        assert_eq!(recovered.begin().scan("t").unwrap(), vec![row(5, 50)]);
    }

    #[test]
    fn prepare_validates_first_committer_wins() {
        let (_s, _w, mgr) = fresh();
        mgr.autocommit_insert("t", &[row(1, 10)]).unwrap();
        let mut txn = mgr.begin_internal();
        txn.delete("t", row(1, 10)).unwrap();
        // A conflicting single-flush commit lands first.
        let mut rival = mgr.begin();
        rival.delete("t", row(1, 10)).unwrap();
        rival.insert("t", row(1, 11)).unwrap();
        rival.commit().unwrap();
        match txn.into_prepared(4) {
            Err(StorageError::TxnConflict { table, .. }) => assert_eq!(table, "t"),
            other => panic!("prepare must validate, got {other:?}"),
        }
        assert_eq!(mgr.prepared_txns(), 0, "failed prepare retains nothing");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The delta apply against the one-op-at-a-time oracle. Keys come
        /// from a domain smaller than the script, so scripts repeat rows
        /// (`insert r; delete r; insert r`), delete absent rows and insert
        /// present ones.
        #[test]
        fn delta_apply_equals_sequential_oracle(
            base in prop::collection::btree_set(0i64..12, 0..12),
            script in prop::collection::vec((any::<bool>(), 0i64..12, 0i64..2), 0..40),
        ) {
            let base = file_identity(&base.into_iter().map(|k| row(k, 0)).collect::<Vec<_>>());
            let ops: Vec<TxnOp> = script
                .into_iter()
                .map(|(insert, k, v)| if insert { TxnOp::Insert(row(k, v)) } else { TxnOp::Delete(row(k, v)) })
                .collect();
            let oracle = ops.iter().fold(base.clone(), |cur, op| apply_op(&cur, op));
            let got = apply_delta(&base, &ops);
            prop_assert_eq!(&got, &oracle);
            // Canonical by construction, not by a re-sort: the release build
            // does not check `from_sorted_unique`'s precondition.
            prop_assert!(got.members().windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn tagged_op_and_control_codec_roundtrip() {
        let op = TxnOp::Delete(row(8, 80));
        match decode_entry(&encode_op_prepared("u", &op, 42)).unwrap() {
            LogEntry::Op(name, back, Some(42)) => {
                assert_eq!(name, "u");
                assert_eq!(back, op);
            }
            _ => panic!("tagged op did not round-trip"),
        }
        match decode_entry(&encode_ctrl(CTRL_PREPARE, 7)).unwrap() {
            LogEntry::Prepare(7) => {}
            _ => panic!("prepare ctrl did not round-trip"),
        }
        match decode_entry(&encode_ctrl(CTRL_COMMIT, 9)).unwrap() {
            LogEntry::Commit(9) => {}
            _ => panic!("commit ctrl did not round-trip"),
        }
        // Garbage gtxn suffixes and unknown control tags are corruption.
        let bad = Record::new([
            Value::str("t"),
            Value::sym("ixy"),
            Value::Set(row(1, 1).to_tuple()),
        ]);
        assert!(decode_entry(&bad).is_err());
        let bad = Record::new([Value::str(CTRL_TABLE), Value::sym("z"), Value::Int(1)]);
        assert!(decode_entry(&bad).is_err());
    }

    #[test]
    fn op_codec_roundtrip_and_corrupt_ops_are_errors() {
        let op = TxnOp::Insert(row(3, 33));
        let (name, back) = decode_op(&encode_op("t", &op)).unwrap();
        assert_eq!(name, "t");
        assert_eq!(back, op);
        let bad = Record::new([
            Value::str("t"),
            Value::sym("x"),
            Value::Set(row(1, 1).to_tuple()),
        ]);
        assert!(decode_op(&bad).is_err(), "unknown tag");
        let bad = Record::new([Value::Int(1)]);
        assert!(decode_op(&bad).is_err(), "wrong arity");
    }
}
