//! # Wire-protocol 2PC coordinator over N shard processes
//!
//! [`Coordinator`] promotes the in-process `ShardedEngine` coordinator
//! to a **cross-process** one: each shard is a separate `xst-server`
//! reached over the length-prefixed CRC-framed protocol, and the
//! coordinator drives the same commit state machine over the wire —
//! scatter writes by member hash, read by gathering per-shard
//! fragments ([`Request::FragRead`]), and settle multi-shard commits
//! with a wire 2PC round ([`Request::Prepare`] /
//! [`Request::Decide`] / [`Request::Resolve`]).
//!
//! ## One protocol, two deployments
//!
//! The round and the decision log are [`xst_storage::twopc`] — the same
//! code the in-process engine runs; that module states the protocol
//! and the presumed-abort rule. Here a participant is one shard
//! connection: prepare is `Prepare(gtxn)`, rollback is `Decide(gtxn,
//! abort)`, and delivery is `Decide(gtxn, commit)`, **best effort** — a
//! lost decision message cannot change the outcome, because the
//! decision is durable and [`Coordinator::recover`] replays the log and
//! sends [`Request::Resolve`] so every reachable shard converges.
//!
//! ## Sequencing
//!
//! The coordinator issues strictly sequential round-trips (one
//! outstanding request across the whole cluster). That is deliberately
//! boring: the deterministic network-fault sweep in `xst-testkit`
//! numbers every coordinator↔shard message as a fault site, and
//! sequential rounds make the numbering a total order.

use crate::{Client, ClientError};
use std::fmt;
use std::time::Duration;
use xst_core::ops::{gather, Parallelism};
use xst_core::{ExtendedSet, XstResult};
use xst_obs::names::handle as m;
use xst_query::{eval_sharded, Expr, ShardedBindings};
use xst_server::proto::{Door, ErrorCode, Request, Response, WireError};
use xst_server::{storage_error, xst_error};
use xst_storage::twopc::{self, DecisionLog, Participant, Prepared};
use xst_storage::{route_members, Storage, StorageError, Wal};

/// Everything that can go wrong driving the cluster.
#[derive(Debug)]
pub enum CoordError {
    /// A shard connection failed (transport, protocol, or remote error).
    Shard {
        /// Index of the shard whose round-trip failed.
        shard: usize,
        /// The underlying client failure.
        source: ClientError,
    },
    /// The coordinator's own decision log failed to flush — the
    /// transaction was aborted (no decision exists).
    DecisionLog(StorageError),
    /// Request illegal in the coordinator's current transaction state.
    State(String),
    /// The test-only crash hook fired: the decision for this gtxn is
    /// durable but its delivery was deliberately suppressed, simulating
    /// a coordinator crash between the decision flush and the Decide
    /// round. Only reachable via [`Coordinator::kill_after_decision`].
    KilledAfterDecision {
        /// The globally-committed transaction whose Decide never left.
        gtxn: u64,
    },
}

impl fmt::Display for CoordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoordError::Shard { shard, source } => write!(f, "shard {shard}: {source}"),
            CoordError::DecisionLog(e) => write!(f, "decision log flush failed: {e}"),
            CoordError::State(m) => write!(f, "coordinator state: {m}"),
            CoordError::KilledAfterDecision { gtxn } => {
                write!(f, "coordinator killed after deciding gtxn {gtxn}")
            }
        }
    }
}

impl std::error::Error for CoordError {}

impl From<StorageError> for CoordError {
    fn from(e: StorageError) -> CoordError {
        CoordError::DecisionLog(e)
    }
}

/// Result alias for every coordinator call.
pub type CoordResult<T> = Result<T, CoordError>;

fn shard_err(shard: usize, source: ClientError) -> CoordError {
    CoordError::Shard { shard, source }
}

/// A cross-process 2PC coordinator: one [`Client`] per shard process,
/// plus its own durable decision log. At most one distributed
/// transaction is open at a time (the coordinator *is* the session).
pub struct Coordinator {
    shards: Vec<Client>,
    addrs: Vec<String>,
    timeout: Option<Duration>,
    /// The durable decision log; its committed set (replayed at
    /// recovery) is what Resolve ships to shards.
    log: DecisionLog,
    in_txn: bool,
    /// Which shards received at least one non-empty write in the open
    /// transaction — the 2PC participant set.
    wrote: Vec<bool>,
    kill_after_decision: bool,
}

impl Coordinator {
    /// Connect to one `xst-server` per address over fresh coordinator
    /// devices (a brand-new decision log). `timeout` bounds every
    /// read/write on every shard connection — a stalled shard surfaces
    /// as a typed timeout instead of a hang.
    pub fn connect(addrs: &[String], timeout: Option<Duration>) -> CoordResult<Coordinator> {
        Coordinator::over(DecisionLog::create(), addrs, timeout)
    }

    fn over(
        log: DecisionLog,
        addrs: &[String],
        timeout: Option<Duration>,
    ) -> CoordResult<Coordinator> {
        let mut shards = Vec::with_capacity(addrs.len());
        for (i, addr) in addrs.iter().enumerate() {
            let name = format!("xst-coord/{i}");
            let client =
                Client::connect_with_timeout(addr, &name, timeout).map_err(|e| shard_err(i, e))?;
            shards.push(client);
        }
        let n = shards.len();
        if xst_obs::enabled() {
            m::COORD_SHARDS.set(n as f64);
        }
        Ok(Coordinator {
            shards,
            addrs: addrs.to_vec(),
            timeout,
            log,
            in_txn: false,
            wrote: vec![false; n],
            kill_after_decision: false,
        })
    }

    /// Restart a coordinator over its surviving devices: drop any
    /// unacknowledged staged decision (the crash), replay the decision
    /// log into the committed set, reconnect every shard, and deliver a
    /// [`Request::Resolve`] round so each reachable shard settles its
    /// in-doubt prepares to the logged outcome. Shards that cannot be
    /// reached stay prepared — harmless, a later resolve settles them.
    pub fn recover(
        addrs: &[String],
        storage: Storage,
        wal: Wal,
        timeout: Option<Duration>,
    ) -> CoordResult<Coordinator> {
        let log = DecisionLog::recover(storage, wal)?;
        if xst_obs::enabled() {
            m::COORD_DECISIONS_REPLAYED_TOTAL.add(log.committed().len() as u64);
        }
        let mut coord = Coordinator::over(log, addrs, timeout)?;
        coord.resolve_all()?;
        Ok(coord)
    }

    /// The coordinator's durable devices. Hold on to these to later
    /// [`Coordinator::recover`] "the same node" after dropping this
    /// instance — the decision log lives on them.
    pub fn devices(&self) -> (Storage, Wal) {
        self.log.devices()
    }

    /// The shard addresses this coordinator was built over.
    pub fn addrs(&self) -> &[String] {
        &self.addrs
    }

    /// Number of shard processes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Is a distributed transaction open?
    pub fn in_txn(&self) -> bool {
        self.in_txn
    }

    /// Every globally-committed transaction id this coordinator knows
    /// (logged this run plus replayed at recovery), in id order.
    pub fn committed_gtxns(&self) -> Vec<u64> {
        self.log.committed().iter().copied().collect()
    }

    /// The configured per-request timeout.
    pub fn timeout(&self) -> Option<Duration> {
        self.timeout
    }

    /// Test-only crash hook: when set, the next multi-shard commit
    /// flushes its decision and then returns
    /// [`CoordError::KilledAfterDecision`] **without** delivering any
    /// Decide — exactly the coordinator dying between its commit point
    /// and the decision round. Recovery must finish the job.
    pub fn kill_after_decision(&mut self, on: bool) {
        self.kill_after_decision = on;
    }

    /// Begin a distributed transaction: one server-side transaction per
    /// shard, all on the same logical snapshot boundary (begins are
    /// issued under no concurrent coordinator activity — this
    /// coordinator is the only writer session on every shard).
    pub fn begin(&mut self) -> CoordResult<()> {
        self.begin_at().map(|_| ())
    }

    /// [`Coordinator::begin`], answering the newest snapshot timestamp
    /// any shard reported (shard clocks are independent, as with the
    /// maximum [`Coordinator::commit`] returns).
    fn begin_at(&mut self) -> CoordResult<u64> {
        if self.in_txn {
            return Err(CoordError::State(
                "a distributed transaction is already open (commit or abort it)".to_string(),
            ));
        }
        let mut snapshot_ts = 0u64;
        for i in 0..self.shards.len() {
            match self.shards[i].begin() {
                Ok(info) => snapshot_ts = snapshot_ts.max(info.snapshot_ts),
                Err(e) => {
                    // Shards 0..i now hold an open transaction only this
                    // call knows about: abort them (best effort) or they
                    // wedge the next begin and pin their snapshots.
                    for begun in &mut self.shards[..i] {
                        let _ = begun.abort();
                    }
                    return Err(shard_err(i, e));
                }
            }
        }
        self.in_txn = true;
        self.wrote.iter_mut().for_each(|w| *w = false);
        if xst_obs::enabled() {
            m::COORD_TXN_BEGINS_TOTAL.inc();
        }
        Ok(snapshot_ts)
    }

    /// Run `scatter` in the open transaction, or — outside one — as a
    /// transaction of its own, keeping cross-shard atomicity; answers the
    /// rows and, when it autocommitted, the commit timestamp. A failed
    /// autocommit write aborts the implicit transaction — left open, the
    /// next one would join it; a failed commit has already closed it.
    fn write(
        &mut self,
        scatter: impl FnOnce(&mut Coordinator) -> CoordResult<u64>,
    ) -> CoordResult<(u64, Option<u64>)> {
        if self.in_txn {
            return scatter(self).map(|rows| (rows, None));
        }
        self.begin()?;
        match scatter(self) {
            Ok(rows) => self.commit().map(|ts| (rows, Some(ts))),
            Err(e) => {
                let _ = self.abort();
                Err(e)
            }
        }
    }

    /// Send each shard its [`route_members`] part of `set` as a `Put`
    /// (or a `Delete`). **Every** shard receives a Put — empty subsets
    /// included — so the table exists in every shard's catalog (reads and
    /// recovery need the uniform catalog); an empty Delete is skipped.
    fn scatter(&mut self, table: &str, set: &ExtendedSet, delete: bool) -> CoordResult<u64> {
        let mut rows = 0u64;
        for (i, part) in route_members(set, self.shards.len()).iter().enumerate() {
            let applied = match delete {
                false => self.shards[i].put(table, part),
                true if part.is_empty() => continue,
                true => self.shards[i].delete(table, part),
            };
            rows += applied.map_err(|e| shard_err(i, e))?.rows;
            self.wrote[i] |= !part.is_empty();
        }
        Ok(rows)
    }

    /// Insert every member of `set` into `table`, routed by member hash;
    /// autocommits outside a transaction. Returns the rows touched.
    pub fn put(&mut self, table: &str, set: &ExtendedSet) -> CoordResult<u64> {
        Ok(self.write(|coord| coord.scatter(table, set, false))?.0)
    }

    /// Delete every member of `set` from `table`, routed by member hash.
    pub fn delete(&mut self, table: &str, set: &ExtendedSet) -> CoordResult<u64> {
        Ok(self.write(|coord| coord.scatter(table, set, true))?.0)
    }

    /// The per-shard member fragments of `table`, in shard order.
    /// A shard that does not know the table contributes an empty
    /// fragment; if **no** shard knows it, the error propagates (the
    /// table does not exist anywhere).
    fn fragments(&mut self, table: &str) -> CoordResult<Vec<ExtendedSet>> {
        let mut parts = Vec::with_capacity(self.shards.len());
        let mut known = 0usize;
        let mut first_err: Option<CoordError> = None;
        for i in 0..self.shards.len() {
            match self.shards[i].frag_read(table) {
                Ok(set) => {
                    known += 1;
                    parts.push(set);
                }
                Err(ClientError::Remote(e)) if e.code == ErrorCode::Storage => {
                    if first_err.is_none() {
                        first_err = Some(shard_err(i, ClientError::Remote(e)));
                    }
                    parts.push(ExtendedSet::empty());
                }
                Err(e) => return Err(shard_err(i, e)),
            }
            if xst_obs::enabled() {
                m::COORD_FRAG_READS_TOTAL.inc();
            }
        }
        if known == 0 {
            if let Some(e) = first_err {
                return Err(e);
            }
        }
        Ok(parts)
    }

    /// Read the whole member set of `table`: gather the per-shard
    /// fragments (ordered union over disjoint fragments — exact).
    pub fn get(&mut self, table: &str) -> CoordResult<ExtendedSet> {
        Ok(gather(&self.fragments(table)?))
    }

    /// Evaluate `expr` over the cluster: scatter-read every named
    /// table's per-shard fragments, then run the shard-aware evaluator
    /// exactly as the in-process engine would. Tables no shard knows
    /// stay unbound, so the static-analysis gate reports them.
    pub fn eval(&mut self, expr: &Expr) -> CoordResult<ExtendedSet> {
        self.eval_gated(expr)?
            .map_err(|e| CoordError::State(format!("eval failed: {e}")))
    }

    /// [`Coordinator::eval`] with the evaluation's own verdict kept typed
    /// (the door answers it with the code a session would).
    fn eval_gated(&mut self, expr: &Expr) -> CoordResult<XstResult<ExtendedSet>> {
        let names: Vec<String> = expr.tables().iter().map(|n| n.to_string()).collect();
        let mut bindings = ShardedBindings::new();
        for name in names {
            match self.fragments(&name) {
                Ok(parts) => {
                    bindings.insert(name, parts);
                }
                Err(CoordError::Shard {
                    source: ClientError::Remote(e),
                    ..
                }) if e.code == ErrorCode::Storage => {} // unbound: the gate reports it
                Err(e) => return Err(e),
            }
        }
        Ok(eval_sharded(expr, &bindings, &Parallelism::sequential()).map(|(set, _stats)| set))
    }

    /// Abort the open distributed transaction on every shard.
    pub fn abort(&mut self) -> CoordResult<()> {
        if !self.in_txn {
            return Err(CoordError::State(
                "no open distributed transaction (begin first)".to_string(),
            ));
        }
        self.in_txn = false;
        let mut first_err: Option<CoordError> = None;
        for i in 0..self.shards.len() {
            if let Err(e) = self.shards[i].abort() {
                if first_err.is_none() {
                    first_err = Some(shard_err(i, e));
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Commit the open distributed transaction.
    ///
    /// * **No shard wrote** — plain Commit everywhere (read-only).
    /// * **One shard wrote** — Commit on the writer, Abort elsewhere:
    ///   single-shard durability is the shard's own WAL flush, no
    ///   coordination needed.
    /// * **Two or more wrote** — the wire 2PC round: Prepare on every
    ///   writer, the decision-log flush (THE acknowledgement), then
    ///   best-effort Decide. Any prepare failure aborts the whole
    ///   transaction before a decision exists.
    ///
    /// Returns the maximum commit timestamp any shard reported.
    pub fn commit(&mut self) -> CoordResult<u64> {
        if !self.in_txn {
            return Err(CoordError::State(
                "no open distributed transaction (begin first)".to_string(),
            ));
        }
        self.in_txn = false;
        let writers: Vec<usize> = (0..self.shards.len()).filter(|&i| self.wrote[i]).collect();
        match writers.len() {
            0 => {
                let mut ts = 0u64;
                let mut first_err: Option<CoordError> = None;
                for i in 0..self.shards.len() {
                    match self.shards[i].commit() {
                        Ok(t) => ts = ts.max(t),
                        Err(e) => {
                            if first_err.is_none() {
                                first_err = Some(shard_err(i, e));
                            }
                        }
                    }
                }
                if let Some(e) = first_err {
                    return Err(e);
                }
                if xst_obs::enabled() {
                    m::COORD_SINGLE_COMMITS_TOTAL.inc();
                }
                Ok(ts)
            }
            1 => {
                let w = writers[0];
                // Abort the read-only shards first: their sessions hold
                // snapshots, nothing durable rides on them.
                for i in 0..self.shards.len() {
                    if i != w {
                        let _ = self.shards[i].abort();
                    }
                }
                let ts = self.shards[w].commit().map_err(|e| shard_err(w, e))?;
                if xst_obs::enabled() {
                    m::COORD_SINGLE_COMMITS_TOTAL.inc();
                }
                Ok(ts)
            }
            _ => self.commit_2pc(&writers),
        }
    }

    fn commit_2pc(&mut self, writers: &[usize]) -> CoordResult<u64> {
        // Read-only shards just abort; they are not participants.
        for i in 0..self.shards.len() {
            if !writers.contains(&i) {
                let _ = self.shards[i].abort();
            }
        }
        let participants: Vec<ShardLink<'_>> = self
            .shards
            .iter_mut()
            .enumerate()
            .filter(|(i, _)| writers.contains(i))
            .map(|(shard, client)| ShardLink { shard, client })
            .collect();
        // A failure before the decision — a conflict, a dead shard, a
        // timeout, the flush itself — aborts the transaction; presumed
        // abort covers any shard the rollback could not reach.
        let decided = twopc::commit_round(&mut self.log, participants).inspect_err(|_| {
            if xst_obs::enabled() {
                m::COORD_2PC_ABORTS_TOTAL.inc();
            }
        })?;
        if std::mem::take(&mut self.kill_after_decision) {
            // The test hook crashes "the coordinator" after its commit
            // point: the decision is flushed, nothing is delivered.
            return Err(CoordError::KilledAfterDecision { gtxn: decided.gtxn });
        }
        // Delivery is best effort. The outcome is already fixed; a shard
        // that misses its Decide stays prepared until a Resolve
        // (recovery, or the next resolve_all) commits it from the log.
        let ts = decided.deliver().flatten().max().unwrap_or(0);
        if xst_obs::enabled() {
            m::COORD_2PC_COMMITS_TOTAL.inc();
        }
        Ok(ts)
    }

    /// Deliver the coordinator's full committed set to every shard as a
    /// [`Request::Resolve`]: each settles its in-doubt prepares —
    /// commit the logged ones, presume abort for the rest. Returns the
    /// summed `(committed, aborted)` counts. Unreachable shards are
    /// skipped (they settle on the next resolve).
    pub fn resolve_all(&mut self) -> CoordResult<(u64, u64)> {
        let committed = self.committed_gtxns();
        let mut totals = (0u64, 0u64);
        for i in 0..self.shards.len() {
            if let Ok((c, a)) = self.shards[i].resolve(&committed) {
                totals.0 += c;
                totals.1 += a;
            }
        }
        if xst_obs::enabled() {
            m::COORD_RESOLVES_TOTAL.inc();
        }
        Ok(totals)
    }

    /// A one-line human status of the cluster, for the shell.
    pub fn status(&self) -> String {
        format!(
            "cluster: {} shard(s) [{}], {n} committed decision(s) ({n} decision-log entries), \
             next gtxn {}, txn open: {}",
            self.shards.len(),
            self.addrs.join(", "),
            self.log.peek_gtxn(),
            self.in_txn,
            n = self.log.committed().len()
        )
    }
}

/// The cluster door: each store verb maps onto the typed method above, so
/// the wire message sequence is theirs. A refusal — the coordinator's own
/// transaction-state check, a shard's typed answer, an evaluation the gate
/// rejects, a failed decision-log flush — is answered with the
/// [`ErrorCode`] a session gives it; only a broken link (or the crash
/// hook) is `Err`. `TxnBegun` names the gtxn a 2PC commit would spend and
/// the newest shard snapshot. `Get` and `FragRead` both answer the gathered
/// member set, so a coordinator can stand where a shard stands. The remaining
/// kinds (analysis and observability pulls, the 2PC participant side) are
/// one server's to answer and are refused by name.
impl Door for Coordinator {
    type Error = CoordError;

    fn call(&mut self, req: Request) -> CoordResult<Response> {
        let applied = |(rows, autocommit_ts)| Response::Applied {
            rows,
            autocommit_ts,
        };
        let answer = match req {
            Request::Ping => (0..self.shards.len())
                .try_for_each(|i| self.shards[i].ping().map_err(|e| shard_err(i, e)))
                .map(|()| Response::Pong),
            Request::Begin => self.begin_at().map(|snapshot_ts| Response::TxnBegun {
                id: self.log.peek_gtxn(),
                snapshot_ts,
            }),
            Request::Commit => self.commit().map(|ts| Response::Committed { ts }),
            Request::Abort => self.abort().map(|()| Response::Aborted),
            Request::Put { table, set } => self
                .write(|coord| coord.scatter(&table, &set, false))
                .map(applied),
            Request::Delete { table, set } => self
                .write(|coord| coord.scatter(&table, &set, true))
                .map(applied),
            Request::Get { table } | Request::FragRead { table } => {
                self.get(&table).map(|set| Response::Value { set })
            }
            Request::Eval { expr } => self
                .eval_gated(&expr)
                .map(|verdict| verdict.map_or_else(xst_error, |set| Response::Value { set })),
            other => Ok(Response::Error(WireError::new(
                ErrorCode::Protocol,
                format!(
                    "'{}' is one server's to answer, not the coordinator's",
                    other.kind_name()
                ),
            ))),
        };
        answer.or_else(|e| match e {
            CoordError::State(message) => Ok(Response::Error(WireError::new(
                ErrorCode::TxnState,
                message,
            ))),
            CoordError::Shard {
                source: ClientError::Remote(e),
                ..
            } => Ok(Response::Error(e)),
            CoordError::DecisionLog(e) => Ok(storage_error(e)),
            broken => Err(broken),
        })
    }
}

/// One written shard's side of a commit round, before and after its
/// prepare: the connection to it.
struct ShardLink<'a> {
    shard: usize,
    client: &'a mut Client,
}

impl<'a> Participant for ShardLink<'a> {
    type Error = CoordError;
    type Prepared = ShardLink<'a>;

    fn prepare(self, gtxn: u64) -> CoordResult<ShardLink<'a>> {
        match self.client.prepare(gtxn) {
            Ok(_) => Ok(self),
            Err(e) => Err(shard_err(self.shard, e)),
        }
    }

    // The session still holds the open transaction.
    fn release(self) {
        let _ = self.client.abort();
    }
}

impl Prepared<CoordError> for ShardLink<'_> {
    fn rollback(self, gtxn: u64) {
        let _ = self.client.decide(gtxn, false);
    }

    fn commit(self, gtxn: u64) -> CoordResult<u64> {
        self.client
            .decide(gtxn, true)
            .map_err(|e| shard_err(self.shard, e))
    }
}
