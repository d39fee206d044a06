//! In-process sharding: hash-partitioned engines under one atomic
//! commit protocol.
//!
//! The 1977 program's "very large data base" premise is that no single
//! device — or in our reproduction, no single engine — holds the whole
//! extension of a set. A [`ShardedEngine`] partitions every table's
//! members by a deterministic hash of the member's whole identity across
//! N independent [`TxnManager`]s, each with its own storage, WAL, and
//! group-commit op log. Reads scatter to all shards and gather by
//! ordered union (set union IS the merge — fragments are disjoint by
//! construction, so `⋃ᵢ fragᵢ` is exact, not approximate); writes route
//! to the owning shard.
//!
//! **Atomicity across shards is two-phase commit** — the round and the
//! decision log of [`crate::twopc`], which states the protocol and the
//! presumed-abort rule. Here a participant is one shard's
//! sub-transaction: prepare is [`Txn::into_prepared`] (ONE marker-sealed
//! batch), delivery is [`TxnManager::commit_prepared`] (a best-effort
//! local COMMIT marker, then publish), a failed delivery propagates, and
//! [`ShardedEngine::recover`] resolves in-doubt shards from the log.
//!
//! Transactions touching a **single** shard skip the protocol entirely
//! and use the ordinary one-flush commit — a sharded deployment with one
//! shard pays one extra in-memory hash per write, not an extra fsync
//! (experiment E18 holds this to ≤1.05× the unsharded engine).

use crate::bufpool::Storage;
use crate::engine::SetEngine;
use crate::error::{StorageError, StorageResult};
use crate::fault::{FaultKind, FaultPlan, FaultSchedule};
use crate::record::{Record, Schema};
use crate::retry::RetryPolicy;
use crate::twopc::{self, DecisionLog, Participant, Prepared};
use crate::txn::{CommitTs, Txn, TxnId, TxnManager};
use crate::wal::Wal;
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use xst_core::ops::gather;
use xst_core::{ExtendedSet, SetBuilder};
use xst_obs::names::handle as m;

/// Route a record to its owning shard: FNV-1a over the record's
/// bit-exact codec bytes, reduced mod the shard count. The hash covers
/// the member's **whole identity** (every field), so routing is a pure
/// function of set membership — the same member lands on the same shard
/// in any engine with the same shard count, and rebalancing is re-scoping
/// (re-hash and re-insert), never interpretation.
pub fn shard_of(record: &Record, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let bytes = record.encode();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// Split `set` into `shards` member-disjoint subsets, each member going
/// where [`shard_of`] sends its `[element, scope]` record — the row every
/// served table stores it as. This is the write routing both deployments
/// share (the in-process engine per record, the wire coordinator per
/// `Put`), so a member lands on the same shard in either.
pub fn route_members(set: &ExtendedSet, shards: usize) -> Vec<ExtendedSet> {
    let shards = shards.max(1);
    let mut parts: Vec<SetBuilder> = (0..shards).map(|_| SetBuilder::new()).collect();
    for m in set.members() {
        let record = Record::new([m.element.clone(), m.scope.clone()]);
        parts[shard_of(&record, shards)].scoped(m.element.clone(), m.scope.clone());
    }
    parts.into_iter().map(SetBuilder::build).collect()
}

/// One shard: an independent storage device, WAL, and transaction
/// manager. Shards share nothing but the coordinator.
struct Shard {
    storage: Storage,
    wal: Wal,
    mgr: TxnManager,
}

struct EngineInner {
    shards: Vec<Shard>,
    /// The coordinator's decision log, on devices separate from every
    /// shard (a real deployment's coordinator node). Its lock IS the
    /// commit lock: it serializes every commit round (prepare → decide →
    /// commit) and every begin, so a begin can never observe a
    /// distributed commit published on some shards but not others.
    round: Mutex<DecisionLog>,
    /// Registered tables (the in-memory catalog, mirrored on every
    /// shard), kept so recovery can rebuild each shard's manager.
    catalog: Mutex<BTreeMap<String, Schema>>,
    faults: Mutex<Option<FaultPlan>>,
}

/// A hash-partitioned database over N independent engines with
/// all-or-nothing cross-shard commits. Cloning shares the same database.
#[derive(Clone)]
pub struct ShardedEngine {
    inner: Arc<EngineInner>,
}

impl ShardedEngine {
    /// A fresh sharded database over `shards` independent engines
    /// (clamped to at least 1).
    pub fn with_shards(shards: usize) -> ShardedEngine {
        let shards = shards.max(1);
        let built: Vec<Shard> = (0..shards)
            .map(|_| {
                let storage = Storage::new();
                let wal = Wal::new();
                let mgr = TxnManager::new(&storage, wal.clone());
                Shard { storage, wal, mgr }
            })
            .collect();
        if xst_obs::enabled() {
            m::SHARD_COUNT.set(shards as f64);
        }
        ShardedEngine {
            inner: Arc::new(EngineInner {
                shards: built,
                round: Mutex::new(DecisionLog::create()),
                catalog: Mutex::new(BTreeMap::new()),
                faults: Mutex::new(None),
            }),
        }
    }

    /// Replace the retry policy governing commit-path flushes on every
    /// shard's manager and on the coordinator's decision log. Crash
    /// harnesses pass [`RetryPolicy::none`] so an injected fault
    /// surfaces instead of being absorbed by a retried flush.
    pub fn with_retry_policy(self, retry: RetryPolicy) -> ShardedEngine {
        for shard in &self.inner.shards {
            let _ = shard.mgr.clone().with_retry_policy(retry);
        }
        self.inner.round.lock().set_retry_policy(retry);
        self
    }

    /// Number of shards in the partition.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// The transaction manager of shard `i` (shard 0 is the compat
    /// surface for single-engine callers). Panics are forbidden in this
    /// crate, so out-of-range returns shard 0's manager.
    pub fn shard_mgr(&self, i: usize) -> &TxnManager {
        let i = i.min(self.inner.shards.len() - 1);
        &self.inner.shards[i].mgr
    }

    /// The storage device of shard `i` (clamped like [`Self::shard_mgr`]).
    pub fn shard_storage(&self, i: usize) -> &Storage {
        let i = i.min(self.inner.shards.len() - 1);
        &self.inner.shards[i].storage
    }

    /// The WAL of shard `i` (clamped like [`Self::shard_mgr`]).
    pub fn shard_wal(&self, i: usize) -> &Wal {
        let i = i.min(self.inner.shards.len() - 1);
        &self.inner.shards[i].wal
    }

    /// The coordinator's decision-log WAL.
    pub fn coordinator_wal(&self) -> Wal {
        self.inner.round.lock().devices().1
    }

    /// Every global transaction id the coordinator durably committed, in
    /// id order — the in-process twin of `Coordinator::committed_gtxns`.
    pub fn committed_gtxns(&self) -> Vec<u64> {
        self.inner
            .round
            .lock()
            .committed()
            .iter()
            .copied()
            .collect()
    }

    /// Register a table on every shard and in the catalog.
    pub fn create_table(&self, name: &str, schema: Schema) -> StorageResult<()> {
        let mut catalog = self.inner.catalog.lock();
        if catalog.contains_key(name) {
            return Err(StorageError::SchemaMismatch {
                reason: format!("table '{name}' already exists"),
            });
        }
        for shard in &self.inner.shards {
            shard.mgr.create_table(name, schema.clone())?;
        }
        catalog.insert(name.to_string(), schema);
        Ok(())
    }

    /// The registered tables, in name order.
    pub fn tables(&self) -> Vec<(String, Schema)> {
        self.inner
            .catalog
            .lock()
            .iter()
            .map(|(n, s)| (n.clone(), s.clone()))
            .collect()
    }

    /// Begin a distributed transaction: one internal sub-transaction per
    /// shard, all opened under the commit lock so the cross-shard
    /// snapshot is consistent (no shard's view includes a distributed
    /// commit another shard's view lacks).
    pub fn begin(&self) -> ShardedTxn {
        let _round = self.inner.round.lock();
        let subs: Vec<Txn> = self
            .inner
            .shards
            .iter()
            .map(|s| s.mgr.begin_internal())
            .collect();
        let gauge_counted = xst_obs::enabled();
        if gauge_counted {
            m::TXN_BEGINS_TOTAL.inc();
            m::TXN_ACTIVE.add(1.0);
            m::SHARD_TXN_BEGINS_TOTAL.inc();
        }
        ShardedTxn {
            engine: self.clone(),
            subs: subs.into_iter().map(Some).collect(),
            finished: false,
            gauge_counted,
        }
    }

    /// The latest commit timestamp across shards (per-shard clocks are
    /// independent; the max is a readable "how far along" figure).
    pub fn last_commit_ts(&self) -> CommitTs {
        self.inner
            .shards
            .iter()
            .map(|s| s.mgr.last_commit_ts())
            .max()
            .unwrap_or(0)
    }

    /// Distributed transactions currently open. Every open transaction
    /// holds one sub-transaction on every shard, so any shard's active
    /// count IS the distributed count.
    pub fn active_txns(&self) -> u64 {
        self.inner.shards[0].mgr.active_txns()
    }

    /// The latest committed identity of `table`: per-shard latest
    /// identities gathered by ordered union (no transaction needed).
    pub fn latest_identity(&self, name: &str) -> StorageResult<ExtendedSet> {
        Ok(gather(&self.latest_fragments(name)?))
    }

    /// The latest committed per-shard fragments of `table`. Fragment `i`
    /// holds exactly the members owned by shard `i` — disjoint, and
    /// their union is the table's identity.
    pub fn latest_fragments(&self, name: &str) -> StorageResult<Vec<ExtendedSet>> {
        self.inner
            .shards
            .iter()
            .map(|s| s.mgr.latest_identity(name).map(|arc| (*arc).clone()))
            .collect()
    }

    /// Autocommit convenience mirroring [`TxnManager::autocommit_insert`].
    pub fn autocommit_insert(&self, table: &str, records: &[Record]) -> StorageResult<CommitTs> {
        let mut txn = self.begin();
        for r in records {
            txn.insert(table, r.clone())?;
        }
        txn.commit()
    }

    /// Arm one deterministic fault plan across the WHOLE deployment:
    /// every shard's storage and WAL plus the coordinator's, all sharing
    /// one site counter. Site k can therefore land inside any phase of
    /// 2PC — a shard's prepare flush, the coordinator's decision flush,
    /// any shard's local commit marker, or a post-commit heap apply —
    /// which is exactly the enumeration the crash sweep walks.
    pub fn arm_faults(&self, schedule: FaultSchedule, kind: FaultKind) {
        let plan = FaultPlan::new(schedule, kind);
        self.install_faults(&plan);
        *self.inner.faults.lock() = Some(plan);
    }

    /// Install an existing plan (shared site counter) everywhere.
    pub fn install_faults(&self, plan: &FaultPlan) {
        for shard in &self.inner.shards {
            shard.storage.install_faults(plan);
            shard.wal.install_faults(plan);
        }
        let (storage, wal) = self.inner.round.lock().devices();
        storage.install_faults(plan);
        wal.install_faults(plan);
    }

    /// Disarm and drop any armed plan, everywhere.
    pub fn clear_faults(&self) {
        for shard in &self.inner.shards {
            shard.storage.clear_faults();
            shard.wal.clear_faults();
        }
        let (storage, wal) = self.inner.round.lock().devices();
        storage.clear_faults();
        wal.clear_faults();
        *self.inner.faults.lock() = None;
    }

    /// Is a fault plan currently armed?
    pub fn faults_armed(&self) -> bool {
        self.inner.faults.lock().is_some()
    }

    /// Faults injected by the armed plan so far, if any.
    pub fn faults_injected(&self) -> u64 {
        self.inner
            .faults
            .lock()
            .as_ref()
            .map(|p| p.injected_count())
            .unwrap_or(0)
    }

    /// **Participant side of an external (wire) coordinator's 2PC.**
    /// Consume `txn` and stage its buffered writes as a durable
    /// `gtxn`-tagged prepare on every shard it wrote
    /// ([`Txn::into_prepared`] per written shard). Nothing is
    /// published; the writes wait for [`ShardedEngine::commit_external`]
    /// or [`ShardedEngine::abort_external`]. Returns how many local
    /// shards prepared (0 for a read-only transaction — nothing to
    /// decide). On `Err` every shard is clean: already-prepared shards
    /// are rolled back and unvalidated writes discarded.
    pub fn prepare_external(&self, txn: ShardedTxn, gtxn: u64) -> StorageResult<usize> {
        // lint: lock-across-io: the round lock serializes whole 2PC rounds — overlapping prepares on one participant would both pass validation (see Txn::into_prepared)
        let _round = self.inner.round.lock();
        let mut txn = txn;
        txn.finished = true;
        let subs: Vec<Txn> = txn.subs.iter_mut().filter_map(Option::take).collect();
        txn.release_metrics();
        twopc::prepare_all(gtxn, self.writers(subs)).map(|prepared| prepared.len())
    }

    /// The 2PC participants among one transaction's per-shard `subs`:
    /// the shards that buffered writes, in shard order. Read-only
    /// sub-transactions have nothing to decide and are released here.
    fn writers(&self, subs: Vec<Txn>) -> Vec<ShardWriter<'_>> {
        let mut writers = Vec::new();
        for (shard, sub) in self.inner.shards.iter().zip(subs) {
            if sub.is_read_only() {
                sub.abort();
            } else {
                writers.push(ShardWriter {
                    mgr: &shard.mgr,
                    sub,
                });
            }
        }
        writers
    }

    /// **Decision delivery, commit.** Publish `gtxn`'s prepared writes on
    /// every shard holding them. The external coordinator's decision is
    /// already durable, so this cannot veto; it errors only if `gtxn` is
    /// prepared nowhere (a protocol violation worth surfacing).
    pub fn commit_external(&self, gtxn: u64) -> StorageResult<CommitTs> {
        // lint: lock-across-io: decision delivery runs under the round lock so publishes on every shard land before the next round's prepares validate
        let _round = self.inner.round.lock();
        let mut ts = None;
        for shard in &self.inner.shards {
            if shard.mgr.has_prepared(gtxn) {
                ts = Some(ts.unwrap_or(0).max(shard.mgr.commit_prepared(gtxn)?));
            }
        }
        match ts {
            Some(ts) => {
                if xst_obs::enabled() {
                    m::SHARD_2PC_COMMITS_TOTAL.inc();
                    m::TXN_COMMITS_TOTAL.inc();
                }
                Ok(ts)
            }
            None => Err(StorageError::Corrupt {
                reason: format!("commit_external({gtxn}): no such prepared transaction"),
            }),
        }
    }

    /// **Decision delivery, abort.** Drop `gtxn`'s prepared writes
    /// everywhere. Infallible and idempotent, like
    /// [`TxnManager::abort_prepared`].
    pub fn abort_external(&self, gtxn: u64) {
        let _round = self.inner.round.lock();
        let mut dropped = false;
        for shard in &self.inner.shards {
            dropped |= shard.mgr.has_prepared(gtxn);
            shard.mgr.abort_prepared(gtxn);
        }
        if dropped && xst_obs::enabled() {
            m::SHARD_2PC_ABORTS_TOTAL.inc();
            m::TXN_ABORTS_TOTAL.inc();
        }
    }

    /// Resolve every transaction still prepared on this participant
    /// against an external coordinator's committed set: named gtxns
    /// publish, everything else aborts (presumed abort). Returns
    /// `(committed, aborted)` counts. This is how a reconnecting wire
    /// coordinator clears in-doubt state left by lost decision messages.
    pub fn resolve_external(&self, committed: &BTreeSet<u64>) -> StorageResult<(u64, u64)> {
        let pending = self.prepared_external();
        let mut done = (0u64, 0u64);
        for gtxn in pending {
            if committed.contains(&gtxn) {
                self.commit_external(gtxn)?;
                done.0 += 1;
            } else {
                self.abort_external(gtxn);
                done.1 += 1;
            }
        }
        if xst_obs::enabled() {
            m::SHARD_2PC_IN_DOUBT_RESOLVED_TOTAL.add(done.0 + done.1);
        }
        Ok(done)
    }

    /// Global transaction ids prepared on any shard and awaiting an
    /// external decision, in id order without duplicates.
    pub fn prepared_external(&self) -> Vec<u64> {
        let mut ids = BTreeSet::new();
        for shard in &self.inner.shards {
            ids.extend(shard.mgr.prepared_gtxns());
        }
        ids.into_iter().collect()
    }

    /// Crash-recover the whole deployment from durable state alone:
    /// clear faults, drop every unacknowledged staged batch (the crash),
    /// replay the coordinator's decision log, then recover each shard
    /// with those decisions resolving its in-doubt prepares. Returns a
    /// fresh engine over the same devices; the gtxn counter restarts
    /// above everything any shard ever logged.
    pub fn recover(&self) -> StorageResult<ShardedEngine> {
        self.recover_with_decisions(&BTreeSet::new())
    }

    /// Like [`ShardedEngine::recover`], but resolving in-doubt prepares
    /// against the union of the local decision log and `extra` — the
    /// committed set an **external** wire coordinator replayed from its
    /// own decision log. A shard process restarting under a remote
    /// coordinator must not presume-abort prepares the coordinator
    /// durably decided; the coordinator ships its decisions and recovery
    /// honors them exactly as it honors local ones.
    pub fn recover_with_decisions(&self, extra: &BTreeSet<u64>) -> StorageResult<ShardedEngine> {
        for shard in &self.inner.shards {
            shard.storage.clear_faults();
            shard.wal.clear_faults();
            shard.wal.drop_staged();
        }
        // The coordinator first: its surviving records ARE the set of
        // committed global transactions.
        let (coord_storage, coord_wal) = self.inner.round.lock().devices();
        let mut log = DecisionLog::recover(coord_storage, coord_wal)?;
        let committed: BTreeSet<u64> = log.committed().union(extra).copied().collect();
        let mut max_gtxn = extra.last().copied().unwrap_or(0);
        let catalog = self.inner.catalog.lock().clone();
        let catalog_refs: Vec<(&str, Schema)> = catalog
            .iter()
            .map(|(n, s)| (n.as_str(), s.clone()))
            .collect();
        let mut shards = Vec::with_capacity(self.inner.shards.len());
        let mut resolved = 0u64;
        for shard in &self.inner.shards {
            let recovered = TxnManager::recover_with_decisions(
                &shard.storage,
                shard.wal.clone(),
                Wal::new(),
                &catalog_refs,
                &committed,
            )?;
            resolved += recovered.in_doubt_committed + recovered.in_doubt_aborted;
            max_gtxn = max_gtxn.max(recovered.max_gtxn);
            shards.push(Shard {
                storage: shard.storage.clone(),
                wal: shard.wal.clone(),
                mgr: recovered.mgr,
            });
        }
        if xst_obs::enabled() {
            m::SHARD_2PC_IN_DOUBT_RESOLVED_TOTAL.add(resolved);
            m::SHARD_COUNT.set(shards.len() as f64);
        }
        log.skip_past(max_gtxn);
        // `self` may outlive this call; the recovered log reports the
        // entries from here on.
        self.inner.round.lock().retire();
        Ok(ShardedEngine {
            inner: Arc::new(EngineInner {
                shards,
                round: Mutex::new(log),
                catalog: Mutex::new(catalog),
                faults: Mutex::new(None),
            }),
        })
    }
}

/// A distributed transaction: one snapshot-isolated sub-transaction per
/// shard, routed writes, and an atomic cross-shard commit. Dropping it
/// uncommitted aborts every sub-transaction.
pub struct ShardedTxn {
    engine: ShardedEngine,
    /// One slot per shard; `None` after the slot is consumed at commit.
    subs: Vec<Option<Txn>>,
    finished: bool,
    gauge_counted: bool,
}

impl ShardedTxn {
    fn shards(&self) -> usize {
        self.subs.len()
    }

    /// A diagnostic id for this distributed transaction: the shard-0
    /// sub-transaction's id (every open distributed txn holds one sub on
    /// every shard, so shard-0 ids are unique among open txns).
    pub fn id(&self) -> TxnId {
        self.subs
            .first()
            .and_then(Option::as_ref)
            .map(Txn::id)
            .unwrap_or(0)
    }

    /// The snapshot timestamp this transaction reads at, as seen by
    /// shard 0 (all shards snapshot under one commit-lock hold, so any
    /// shard's begin timestamp names the same consistent cut).
    pub fn begin_ts(&self) -> CommitTs {
        self.subs
            .first()
            .and_then(Option::as_ref)
            .map(Txn::begin_ts)
            .unwrap_or(0)
    }

    fn sub(&mut self, i: usize) -> StorageResult<&mut Txn> {
        self.subs
            .get_mut(i)
            .and_then(Option::as_mut)
            .ok_or_else(|| StorageError::Corrupt {
                reason: format!("sharded txn lost its shard-{i} sub-transaction"),
            })
    }

    /// Buffer an insert on the owning shard.
    pub fn insert(&mut self, table: &str, record: Record) -> StorageResult<()> {
        let i = shard_of(&record, self.shards());
        self.sub(i)?.insert(table, record)
    }

    /// Buffer a delete on the owning shard.
    pub fn delete(&mut self, table: &str, record: Record) -> StorageResult<()> {
        let i = shard_of(&record, self.shards());
        self.sub(i)?.delete(table, record)
    }

    /// This transaction's per-shard fragments of `table` — the scatter
    /// half of scatter-gather. Fragment `i` is exactly the members owned
    /// by shard `i` (snapshot plus this transaction's own writes), so
    /// the fragments are pairwise disjoint and their union is the table.
    pub fn read_fragments(&mut self, table: &str) -> StorageResult<Vec<ExtendedSet>> {
        (0..self.shards())
            .map(|i| self.sub(i)?.read_identity(table))
            .collect()
    }

    /// This transaction's view of `table`: gather the fragments by
    /// ordered union.
    pub fn read_identity(&mut self, table: &str) -> StorageResult<ExtendedSet> {
        Ok(gather(&self.read_fragments(table)?))
    }

    /// The gathered view of `table` as sorted records.
    pub fn scan(&mut self, table: &str) -> StorageResult<Vec<Record>> {
        SetEngine::to_records(&self.read_identity(table)?)
    }

    /// True iff no shard has buffered writes.
    pub fn is_read_only(&self) -> bool {
        self.subs
            .iter()
            .all(|s| s.as_ref().is_none_or(Txn::is_read_only))
    }

    /// Commit atomically across shards. One written shard takes the
    /// ordinary one-flush fast path; two or more run full 2PC. On `Ok`
    /// the transaction is durable on every shard it touched
    /// (acknowledged ⇒ recoverable); on `Err` it is atomically absent
    /// everywhere (a prepare that survived on some shard defaults to
    /// abort at recovery because no decision was recorded).
    pub fn commit(mut self) -> StorageResult<CommitTs> {
        let timer = xst_obs::enabled().then(std::time::Instant::now);
        self.finished = true;
        let engine = self.engine.clone();
        // lint: lock-across-io: the commit lock spans prepare, decision flush, and publish — the whole 2PC round must be one critical section for first-committer-wins
        let mut log = engine.inner.round.lock();
        let subs: Vec<Txn> = self.subs.iter_mut().filter_map(Option::take).collect();
        self.release_metrics();
        let result = commit_subs(&engine, &mut log, subs);
        if xst_obs::enabled() {
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

    /// Abort: discard every shard's buffered writes.
    pub fn abort(mut self) {
        self.finished = true;
        for sub in self.subs.iter_mut().filter_map(Option::take) {
            sub.abort();
        }
        self.release_metrics();
        if xst_obs::enabled() {
            m::TXN_ABORTS_TOTAL.inc();
        }
    }

    fn release_metrics(&mut self) {
        if self.gauge_counted {
            self.gauge_counted = false;
            m::TXN_ACTIVE.force_add(-1.0);
        }
    }
}

impl Drop for ShardedTxn {
    fn drop(&mut self) {
        if !self.finished {
            // Sub-transactions abort via their own Drop (metric-silent).
            self.subs.clear();
            self.release_metrics();
            if xst_obs::enabled() {
                m::TXN_ABORTS_TOTAL.inc();
            }
        } else {
            self.release_metrics();
        }
    }
}

/// One written shard's side of a commit round: its open sub-transaction.
struct ShardWriter<'a> {
    mgr: &'a TxnManager,
    sub: Txn,
}

impl<'a> Participant for ShardWriter<'a> {
    type Error = StorageError;
    type Prepared = PreparedShard<'a>;

    fn prepare(self, gtxn: u64) -> StorageResult<PreparedShard<'a>> {
        self.sub.into_prepared(gtxn)?;
        if xst_obs::enabled() {
            m::SHARD_2PC_PREPARES_TOTAL.inc();
        }
        Ok(PreparedShard(self.mgr))
    }

    fn release(self) {
        self.sub.abort();
    }
}

/// The same shard once prepared: its manager, now holding the writes
/// under the gtxn.
struct PreparedShard<'a>(&'a TxnManager);

impl Prepared<StorageError> for PreparedShard<'_> {
    // In-memory only: recovery default-aborts the durable prepare because
    // the decision log does not name it.
    fn rollback(self, gtxn: u64) {
        self.0.abort_prepared(gtxn);
    }

    // Absorbs local marker I/O failures; errors only on invariant
    // corruption.
    fn commit(self, gtxn: u64) -> StorageResult<CommitTs> {
        self.0.commit_prepared(gtxn)
    }
}

/// The commit protocol proper, under the engine's round lock (`log`).
fn commit_subs(
    engine: &ShardedEngine,
    log: &mut DecisionLog,
    subs: Vec<Txn>,
) -> StorageResult<CommitTs> {
    let mut writers = engine.writers(subs);
    match writers.len() {
        // Read-only everywhere: nothing to decide, nothing to flush.
        0 => Ok(engine.last_commit_ts()),
        // One shard wrote: the ordinary single-flush commit IS atomic,
        // no coordinator round needed. This is why a 1-shard deployment
        // keeps single-engine commit costs.
        1 => {
            let ts = writers.swap_remove(0).sub.commit()?;
            if xst_obs::enabled() {
                m::SHARD_SINGLE_COMMITS_TOTAL.inc();
            }
            Ok(ts)
        }
        // Two or more shards wrote: two-phase commit.
        _ => {
            let decided = twopc::commit_round(log, writers).inspect_err(|_| {
                if xst_obs::enabled() {
                    m::SHARD_2PC_ABORTS_TOTAL.inc();
                }
            })?;
            // Decided: the outcome is fixed, so a shard that fails to
            // publish is an error worth surfacing, not an abort.
            let mut ts = 0;
            for delivered in decided.deliver() {
                ts = ts.max(delivered?);
            }
            if xst_obs::enabled() {
                m::SHARD_2PC_COMMITS_TOTAL.inc();
            }
            Ok(ts)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xst_core::Value;

    fn kv_schema() -> Schema {
        Schema::new(["k", "v"])
    }

    fn row(k: i64, v: i64) -> Record {
        Record::new([Value::Int(k), Value::Int(v)])
    }

    /// Rows guaranteed to land on at least two different shards of a
    /// 3-shard engine (found by hashing, asserted in the test).
    fn spread_rows(n: usize) -> Vec<Record> {
        (0..n as i64).map(|k| row(k, k * 10)).collect()
    }

    fn fresh(shards: usize) -> ShardedEngine {
        let engine = ShardedEngine::with_shards(shards);
        engine.create_table("t", kv_schema()).unwrap();
        engine
    }

    #[test]
    fn routing_is_deterministic_and_total() {
        let rows = spread_rows(64);
        let mut seen = BTreeSet::new();
        for r in &rows {
            let s = shard_of(r, 3);
            assert!(s < 3);
            assert_eq!(s, shard_of(r, 3), "stable");
            seen.insert(s);
        }
        assert_eq!(seen.len(), 3, "64 rows cover all 3 shards");
        assert_eq!(shard_of(&rows[0], 1), 0, "single shard routes to 0");
    }

    #[test]
    fn multi_shard_commit_is_atomic_and_readable() {
        let engine = fresh(3);
        let rows = spread_rows(12);
        engine.autocommit_insert("t", &rows).unwrap();
        let mut txn = engine.begin();
        assert_eq!(txn.scan("t").unwrap(), rows, "gather = ordered union");
        // Fragments are disjoint and total.
        let frags = txn.read_fragments("t").unwrap();
        assert_eq!(frags.len(), 3);
        let total: usize = frags.iter().map(|f| f.card()).sum();
        assert_eq!(total, rows.len());
        txn.abort();
    }

    #[test]
    fn single_shard_writes_take_the_fast_path() {
        let engine = fresh(3);
        // All writes to one record — exactly one shard participates, so
        // no decision record is appended to the coordinator log.
        engine.autocommit_insert("t", &[row(1, 10)]).unwrap();
        let decided = engine.coordinator_wal().records().map(|r| r.len());
        assert_eq!(decided.unwrap_or(0), 0, "no 2PC round for one shard");
        assert!(engine.committed_gtxns().is_empty());
    }

    #[test]
    fn snapshot_isolation_holds_across_shards() {
        let engine = fresh(3);
        let rows = spread_rows(8);
        engine.autocommit_insert("t", &rows).unwrap();
        let mut reader = engine.begin();
        assert_eq!(reader.scan("t").unwrap().len(), 8);
        engine.autocommit_insert("t", &[row(100, 1000)]).unwrap();
        assert_eq!(
            reader.scan("t").unwrap().len(),
            8,
            "cross-shard snapshot does not move"
        );
        drop(reader);
        let mut after = engine.begin();
        assert_eq!(after.scan("t").unwrap().len(), 9);
        after.abort();
    }

    #[test]
    fn first_committer_wins_across_shards() {
        let engine = fresh(3);
        let rows = spread_rows(8);
        engine.autocommit_insert("t", &rows).unwrap();
        let mut t1 = engine.begin();
        let mut t2 = engine.begin();
        for t in [&mut t1, &mut t2] {
            for r in &rows {
                t.delete("t", r.clone()).unwrap();
            }
        }
        assert!(t1.commit().is_ok());
        assert!(
            matches!(t2.commit(), Err(StorageError::TxnConflict { .. })),
            "second committer conflicts on every shard it shares"
        );
        let mut check = engine.begin();
        assert_eq!(check.scan("t").unwrap(), vec![]);
        check.abort();
    }

    #[test]
    fn failed_prepare_rolls_back_every_shard() {
        let engine = fresh(3);
        let rows = spread_rows(8);
        // A rival commits first; the victim's multi-shard commit must
        // fail prepare on some shard and leave NOTHING anywhere.
        let mut victim = engine.begin();
        for r in &rows {
            victim.insert("t", r.clone()).unwrap();
        }
        engine.autocommit_insert("t", &[rows[0].clone()]).unwrap();
        assert!(victim.commit().is_err());
        for i in 0..3 {
            assert_eq!(engine.shard_mgr(i).prepared_txns(), 0, "shard {i} clean");
        }
        let mut check = engine.begin();
        assert_eq!(check.scan("t").unwrap(), vec![rows[0].clone()]);
        check.abort();
    }

    #[test]
    fn committed_distributed_txns_recover_all_or_nothing() {
        let engine = fresh(3);
        let rows = spread_rows(12);
        engine.autocommit_insert("t", &rows).unwrap();
        // An in-flight transaction dies with the process.
        let mut doomed = engine.begin();
        doomed.insert("t", row(500, 5000)).unwrap();
        std::mem::forget(doomed);
        let recovered = engine.recover().unwrap();
        let mut check = recovered.begin();
        assert_eq!(check.scan("t").unwrap(), rows);
        check.abort();
        // The recovered engine accepts new distributed commits.
        recovered.autocommit_insert("t", &spread_rows(20)).unwrap();
        let mut check = recovered.begin();
        assert_eq!(check.scan("t").unwrap().len(), 20);
        check.abort();
    }

    #[test]
    fn active_txns_counts_distributed_transactions_once() {
        let engine = fresh(3);
        assert_eq!(engine.active_txns(), 0);
        let txn = engine.begin();
        assert_eq!(engine.active_txns(), 1, "one dtxn == one, not three");
        drop(txn);
        assert_eq!(engine.active_txns(), 0);
    }
}
