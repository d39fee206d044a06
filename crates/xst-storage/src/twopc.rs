//! Two-phase commit, written once: the coordinator's decision log and
//! the commit round every coordinator in the workspace runs.
//!
//! A distributed transaction that wrote on two or more participants —
//! shards of an in-process [`ShardedEngine`](crate::shard::ShardedEngine),
//! or shard *processes* behind `xst-client`'s wire `Coordinator` — commits
//! through the same three steps, in this order:
//!
//! 1. **Prepare**, participant by participant: each validates
//!    first-committer-wins and makes its write set durable, tagged with
//!    the global transaction id and sealed in one flush. Nothing is
//!    published. The first failure ends the round: the participants not
//!    yet asked are released, the ones already prepared are rolled back,
//!    and no decision is written.
//! 2. **Decide**: the coordinator appends the gtxn to its own
//!    [`DecisionLog`] ([`DecisionLog::commit`]). *That flush is the
//!    acknowledgement.* Before it the transaction does not exist; after
//!    it the transaction is committed on every participant whatever else
//!    fails.
//! 3. **Deliver**: each prepared participant is told to publish
//!    ([`Decided::deliver`]). A participant that misses the message stays
//!    *in doubt* — prepared, unpublished — until recovery or a resolve
//!    round settles it from the log.
//!
//! **Presumed abort.** The log holds commits only: presence == COMMIT,
//! absence == ABORT. An aborted round therefore writes nothing, and an
//! in-doubt prepare whose gtxn the replayed log does not name is dropped.
//! No participant ever decides alone, so participants cannot disagree.
//!
//! What differs between the two deployments is *policy*, and stays with
//! the caller: what a [`Participant`] is, what an error is, and what to
//! do with each delivery result (the in-process engine propagates a
//! failed publish; the wire coordinator treats delivery as best effort).

use crate::bufpool::{BufferPool, Storage};
use crate::error::{StorageError, StorageResult};
use crate::record::{Record, Schema};
use crate::retry::RetryPolicy;
use crate::txn::CommitTs;
use crate::wal::{LoggedTable, Wal};
use std::collections::BTreeSet;
use xst_core::Value;
use xst_obs::names::handle as m;

/// One committed global transaction id per record.
fn schema() -> Schema {
    Schema::new(["gtxn"])
}

/// A coordinator's durable memory: its own storage device and WAL (kept
/// apart from every participant's, as a coordinator node's would be), the
/// logged table of committed gtxns, that set in memory, and the next id
/// to hand out.
pub struct DecisionLog {
    storage: Storage,
    wal: Wal,
    table: LoggedTable,
    committed: BTreeSet<u64>,
    next_gtxn: u64,
    /// This log's contribution to the process-wide
    /// `xst_twopc_decision_log_entries` gauge: moved by the difference
    /// at each commit (so a collector toggled mid-run self-corrects) and
    /// returned on [`DecisionLog::retire`] or drop.
    gauge_share: u64,
}

impl DecisionLog {
    /// An empty log over fresh devices; gtxns start at 1.
    pub fn create() -> DecisionLog {
        let storage = Storage::new();
        let wal = Wal::new();
        let table = LoggedTable::create(&storage, schema(), wal.clone());
        DecisionLog {
            storage,
            wal,
            table,
            committed: BTreeSet::new(),
            next_gtxn: 1,
            gauge_share: 0,
        }
    }

    /// Restart over the devices a crashed coordinator left behind: clear
    /// any armed faults, drop the staged-but-unflushed decision (the
    /// crash), rebuild the table onto a fresh WAL and replay it into the
    /// committed set. Ids resume above everything replayed.
    pub fn recover(storage: Storage, wal: Wal) -> StorageResult<DecisionLog> {
        storage.clear_faults();
        wal.clear_faults();
        wal.drop_staged();
        let fresh = Wal::new();
        let table = LoggedTable::recover_onto(&storage, schema(), wal, fresh.clone())?;
        let pool = BufferPool::new(storage.clone(), 8);
        let mut committed = BTreeSet::new();
        for rec in table.table.file.read_all(&pool)? {
            let [Value::Int(g)] = rec.values() else {
                return Err(StorageError::Corrupt {
                    reason: "decision log record is not a single gtxn".to_string(),
                });
            };
            committed.insert(u64::try_from(*g).map_err(|_| StorageError::Corrupt {
                reason: "negative gtxn in decision log".to_string(),
            })?);
        }
        let mut log = DecisionLog {
            storage,
            wal: fresh,
            table,
            next_gtxn: committed.last().map_or(1, |g| g + 1),
            committed,
            gauge_share: 0,
        };
        log.publish_len();
        Ok(log)
    }

    /// Allocate the next global transaction id.
    pub fn next_gtxn(&mut self) -> u64 {
        let gtxn = self.next_gtxn;
        self.next_gtxn += 1;
        gtxn
    }

    /// The id the next round will get, without allocating it.
    pub fn peek_gtxn(&self) -> u64 {
        self.next_gtxn
    }

    /// Never hand out `gtxn` or anything below it — for ids the caller
    /// saw outside this log (a participant's WAL, another coordinator).
    pub fn skip_past(&mut self, gtxn: u64) {
        self.next_gtxn = self.next_gtxn.max(gtxn + 1);
    }

    /// Record `gtxn` as committed: ONE flush, and THE acknowledgement of
    /// the whole distributed transaction. On `Err` no decision exists.
    pub fn commit(&mut self, gtxn: u64) -> StorageResult<()> {
        self.table
            .append_batch(&[Record::new([Value::Int(gtxn as i64)])])?;
        self.committed.insert(gtxn);
        self.publish_len();
        Ok(())
    }

    /// Every gtxn this log durably committed, replayed or new.
    pub fn committed(&self) -> &BTreeSet<u64> {
        &self.committed
    }

    /// The devices the log lives on — what [`DecisionLog::recover`]
    /// takes to restart "the same coordinator node".
    pub fn devices(&self) -> (Storage, Wal) {
        (self.storage.clone(), self.wal.clone())
    }

    /// Replace the retry policy of the decision flush.
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.table.set_retry_policy(retry);
    }

    /// Hand this log's gauge share back: a log recovered over the same
    /// devices now reports those entries, and counting the superseded
    /// instance too would double them for as long as it stays alive.
    pub fn retire(&mut self) {
        if self.gauge_share != 0 {
            m::TWOPC_DECISION_LOG_ENTRIES.force_add(-(self.gauge_share as f64));
            self.gauge_share = 0;
        }
    }

    fn publish_len(&mut self) {
        if xst_obs::enabled() {
            let len = self.committed.len() as u64;
            m::TWOPC_DECISION_LOG_ENTRIES.add(len as f64 - self.gauge_share as f64);
            self.gauge_share = len;
        }
    }
}

impl Drop for DecisionLog {
    fn drop(&mut self) {
        self.retire();
    }
}

/// One side of a commit round before phase one: a transaction's still
/// open writes for one shard. The round consumes it exactly once — by
/// `prepare`, or by `release` when an earlier participant already failed.
pub trait Participant {
    /// The caller's error type; a failed decision flush converts into it.
    type Error: From<StorageError>;
    /// What a successful prepare leaves behind, awaiting the decision.
    type Prepared: Prepared<Self::Error>;

    /// Phase one: make the writes durable under `gtxn`, publish nothing.
    /// On `Err` the participant holds nothing and hears nothing more.
    fn prepare(self, gtxn: u64) -> Result<Self::Prepared, Self::Error>;

    /// An earlier participant failed before this one was asked: let go of
    /// the still-open transaction.
    fn release(self);
}

/// A participant past phase one. It hears exactly one of `rollback` (the
/// round aborted) or `commit` (the decision is durable) — or neither, when
/// the coordinator dies first and recovery settles it from the log.
pub trait Prepared<E> {
    /// Drop the prepare; the round wrote no decision. Best effort — a
    /// prepare that outlives it is presumed aborted at recovery.
    fn rollback(self, gtxn: u64);

    /// Decision delivery: publish the prepared writes.
    fn commit(self, gtxn: u64) -> Result<CommitTs, E>;
}

/// Phase one alone: prepare `participants` in order under `gtxn`. On the
/// first failure the remainder is released, the prepared ones are rolled
/// back, and the failure is returned; otherwise every participant comes
/// back prepared, awaiting a decision.
pub fn prepare_all<P: Participant>(
    gtxn: u64,
    participants: Vec<P>,
) -> Result<Vec<P::Prepared>, P::Error> {
    let mut prepared = Vec::with_capacity(participants.len());
    let mut failure = None;
    for p in participants {
        if failure.is_some() {
            p.release();
            continue;
        }
        match p.prepare(gtxn) {
            Ok(p) => prepared.push(p),
            Err(e) => failure = Some(e),
        }
    }
    match failure {
        None => Ok(prepared),
        Some(e) => {
            prepared.into_iter().for_each(|p| p.rollback(gtxn));
            Err(e)
        }
    }
}

/// A round past its commit point: `gtxn` is in the decision log and the
/// participants are prepared. Dropping it undelivered is a coordinator
/// crash between decision and delivery — recovery finishes the job.
pub struct Decided<P: Participant> {
    /// The committed global transaction id.
    pub gtxn: u64,
    prepared: Vec<P::Prepared>,
}

impl<P: Participant> Decided<P> {
    /// Deliver the decision participant by participant, lazily: the
    /// caller sees each result and chooses to stop or carry on.
    pub fn deliver(self) -> impl Iterator<Item = Result<CommitTs, P::Error>> {
        let gtxn = self.gtxn;
        self.prepared.into_iter().map(move |p| p.commit(gtxn))
    }
}

/// THE commit round: allocate a gtxn, [`prepare_all`], then flush the
/// decision. `Err` means the transaction is aborted everywhere and no
/// decision exists; `Ok` means it is committed, and only delivery
/// remains.
pub fn commit_round<P: Participant>(
    log: &mut DecisionLog,
    participants: Vec<P>,
) -> Result<Decided<P>, P::Error> {
    let gtxn = log.next_gtxn();
    let prepared = prepare_all(gtxn, participants)?;
    if let Err(e) = log.commit(gtxn) {
        prepared.into_iter().for_each(|p| p.rollback(gtxn));
        return Err(e.into());
    }
    Ok(Decided { gtxn, prepared })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultPlan, FaultSchedule};

    fn restart(log: &DecisionLog) -> StorageResult<DecisionLog> {
        let (storage, wal) = log.devices();
        DecisionLog::recover(storage, wal)
    }

    #[test]
    fn acknowledged_decisions_survive_recover() {
        let mut log = DecisionLog::create();
        for _ in 0..3 {
            let g = log.next_gtxn();
            log.commit(g).unwrap();
        }
        let again = restart(&log).unwrap();
        assert_eq!(again.committed(), &BTreeSet::from([1, 2, 3]));
        // ... and a second restart, now reading checkpointed heap pages
        // instead of WAL frames, sees the same set.
        assert_eq!(restart(&again).unwrap().committed(), again.committed());
    }

    #[test]
    fn a_staged_but_unflushed_decision_is_absent() {
        let mut log = DecisionLog::create();
        log.commit(1).unwrap();
        // The crash lands after staging, before the flush.
        log.devices()
            .1
            .append_staged(&Record::new([Value::Int(2)]).encode());
        assert_eq!(restart(&log).unwrap().committed(), &BTreeSet::from([1]));
    }

    #[test]
    fn a_torn_final_frame_is_absent() {
        let mut log = DecisionLog::create();
        log.commit(1).unwrap();
        log.commit(2).unwrap();
        log.devices().1.tear(3); // rip into gtxn 2's commit marker
        let again = restart(&log).unwrap();
        assert_eq!(again.committed(), &BTreeSet::from([1]));
    }

    #[test]
    fn next_gtxn_restarts_above_log_and_caller_supplied_ids() {
        let mut log = DecisionLog::create();
        log.commit(4).unwrap();
        log.commit(9).unwrap();
        let mut again = restart(&log).unwrap();
        again.skip_past(7); // below the log's max: no effect
        assert_eq!(again.next_gtxn(), 10);
        again.skip_past(40); // a participant logged a later prepare
        assert_eq!(again.next_gtxn(), 41);
        assert_eq!(DecisionLog::create().next_gtxn(), 1);
    }

    #[test]
    fn a_malformed_record_is_corrupt() {
        for bad in [
            Record::new([Value::str("seven")]),
            Record::new([Value::Int(-7)]),
        ] {
            let log = DecisionLog::create();
            log.devices().1.append(&bad.encode()).unwrap();
            assert!(
                matches!(restart(&log), Err(StorageError::Corrupt { .. })),
                "{bad:?} must not replay as a decision"
            );
        }
    }

    /// A scripted participant that appends what the round did to it.
    struct Scripted<'a> {
        name: char,
        fail_prepare: bool,
        trace: &'a std::cell::RefCell<String>,
    }

    impl Scripted<'_> {
        fn note(&self, step: char) {
            self.trace.borrow_mut().extend([step, self.name, ' ']);
        }
    }

    impl<'a> Participant for Scripted<'a> {
        type Error = StorageError;
        type Prepared = Scripted<'a>;

        fn prepare(self, _gtxn: u64) -> StorageResult<Scripted<'a>> {
            self.note('P');
            if self.fail_prepare {
                return Err(StorageError::Corrupt {
                    reason: "scripted".to_string(),
                });
            }
            Ok(self)
        }

        fn release(self) {
            self.note('X');
        }
    }

    impl Prepared<StorageError> for Scripted<'_> {
        fn rollback(self, _gtxn: u64) {
            self.note('R');
        }

        fn commit(self, gtxn: u64) -> StorageResult<CommitTs> {
            self.note('C');
            Ok(gtxn)
        }
    }

    fn script(trace: &std::cell::RefCell<String>, failing: Option<char>) -> Vec<Scripted<'_>> {
        "abc"
            .chars()
            .map(|name| Scripted {
                name,
                fail_prepare: failing == Some(name),
                trace,
            })
            .collect()
    }

    #[test]
    fn round_orders_prepare_decide_deliver() {
        let trace = std::cell::RefCell::new(String::new());
        let mut log = DecisionLog::create();
        let decided = commit_round(&mut log, script(&trace, None)).unwrap();
        assert_eq!(
            trace.borrow().as_str(),
            "Pa Pb Pc ",
            "nothing delivered yet"
        );
        assert!(log.committed().contains(&decided.gtxn), "decided first");
        let acks: Vec<_> = decided.deliver().map(Result::unwrap).collect();
        assert_eq!(acks, vec![1, 1, 1]);
        assert_eq!(trace.borrow().as_str(), "Pa Pb Pc Ca Cb Cc ");
    }

    #[test]
    fn failed_prepare_releases_the_rest_then_rolls_back_without_a_decision() {
        let trace = std::cell::RefCell::new(String::new());
        let mut log = DecisionLog::create();
        assert!(commit_round(&mut log, script(&trace, Some('b'))).is_err());
        assert_eq!(trace.borrow().as_str(), "Pa Pb Xc Ra ");
        assert!(log.committed().is_empty());
        assert!(log.devices().1.is_empty(), "no decision flush at all");
        assert_eq!(log.next_gtxn(), 2, "the aborted round's id is spent");
    }

    #[test]
    fn failed_decision_flush_rolls_back_every_prepare() {
        let trace = std::cell::RefCell::new(String::new());
        let mut log = DecisionLog::create();
        log.set_retry_policy(RetryPolicy::none());
        let (storage, wal) = log.devices();
        let plan = FaultPlan::new(FaultSchedule::AtSite(0), FaultKind::SyncFail);
        storage.install_faults(&plan);
        wal.install_faults(&plan);
        assert!(commit_round(&mut log, script(&trace, None)).is_err());
        assert_eq!(trace.borrow().as_str(), "Pa Pb Pc Ra Rb Rc ");
        assert!(log.committed().is_empty(), "not acknowledged");
        assert!(restart(&log).unwrap().committed().is_empty());
    }
}
