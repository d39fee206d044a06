//! # 2PC coordinator over N shard doors
//!
//! A [`Coordinator`] is N [`Door`]s — one per shard — plus a durable
//! decision log. It promotes the in-process `ShardedEngine` coordinator
//! to a **cross-process** one: scatter writes by member hash, evaluate a
//! plan by shipping the subplans each shard can answer alone
//! ([`Request::Eval`]) and reading whole per-shard fragments
//! ([`Request::FragRead`]) only for what remains, and settle multi-shard
//! commits with a 2PC round ([`Request::Prepare`] / [`Request::Decide`] /
//! [`Request::Resolve`]) — all through one private `ask`, so the protocol
//! is defined over `Request → Response` alone. In
//! production the doors are [`Client`]s, each shard a separate
//! `xst-server` behind the CRC-framed wire ([`Coordinator::connect`]);
//! the network-fault sweep in `xst-testkit` runs the same code over
//! in-process `Session` doors ([`Coordinator::over`]).
//!
//! ## One protocol, two deployments
//!
//! The round and the decision log are [`xst_storage::twopc`] — the same
//! code the in-process engine runs; that module states the protocol
//! and the presumed-abort rule. Here a participant is one shard's door:
//! prepare is `Prepare(gtxn)`, rollback is `Decide(gtxn, abort)`, and
//! delivery is `Decide(gtxn, commit)`, **best effort** — a lost decision
//! message cannot change the outcome, because the decision is durable
//! and recovery replays the log and sends [`Request::Resolve`] so every
//! reachable shard converges.
//!
//! ## The question travels, not the table
//!
//! [`xst_query::cut`] splits a plan into its maximal shard-local subtrees —
//! `∪`/`∩`/`∖` trees over tables and literals, whose part on shard `i`
//! needs only shard `i`'s fragments — and a residual plan over their
//! results. Each subtree goes to every shard as one `Eval`; the partials
//! are disjoint and aligned, and the residual walks them as if they were
//! fragments. A shard binds a table as its row-tuple identity
//! `{⟨element, scope⟩}` (ROADMAP item 3(a)), a one-to-one image of the
//! member set, so a subtree's literals travel in that row form — once per
//! shard — and each partial is mapped back to members on arrival. A table
//! the residual still names — a bare one, an operand of `t ∪ L` or `L ∖ t`,
//! or a direct operand of restriction, image, domain, relative product or
//! `⊗` — is read whole through `FragRead`, as `get` reads it.
//!
//! ## A failed link is abandoned
//!
//! A door that answered `Err` once — a deadline, a closed socket — is
//! dropped on the spot: a late reply on a timed-out connection would be
//! read as the next request's answer. Later required calls to that shard
//! fail at once with [`CoordError::Shard`], best-effort rounds skip it,
//! and presumed abort plus the next recovery's `Resolve` settle whatever
//! the shard was left holding.
//!
//! ## Sequencing
//!
//! Calls are strictly sequential (one outstanding request across the
//! whole cluster). That is deliberately boring: the network-fault sweep
//! numbers every call's request and response leg as a fault site, and
//! sequential rounds make the numbering a total order.

use crate::{Client, ClientError};
use std::fmt;
use std::time::Duration;
use xst_core::ops::{gather, Parallelism};
use xst_core::{ExtendedSet, XstError};
use xst_obs::names::handle as m;
use xst_query::{cut, eval_sharded, Cut, Expr, ShardedBindings};
use xst_server::proto::{Door, ErrorCode, Request, Response, WireError};
use xst_server::{records_identity_to_set, set_to_records, storage_error, xst_error};
use xst_storage::twopc::{self, DecisionLog, Participant, Prepared};
use xst_storage::{file_identity, route_members, Storage, StorageError, Wal};

/// Everything that can go wrong driving the cluster; `E` is how a shard
/// door itself fails ([`ClientError`] over the wire).
#[derive(Debug)]
pub enum CoordError<E = ClientError> {
    /// A shard refused the request with a typed answer; its link is fine.
    Refused {
        /// Index of the shard that refused.
        shard: usize,
        /// The shard's structured refusal.
        error: WireError,
    },
    /// The link to a shard failed and was abandoned.
    Shard {
        /// Index of the shard whose link failed.
        shard: usize,
        /// The door's failure on the call that broke the link; `None` when
        /// the link was already abandoned (or answered out of kind).
        source: Option<E>,
    },
    /// The coordinator's own decision log failed to flush — the
    /// transaction was aborted (no decision exists).
    DecisionLog(StorageError),
    /// Request illegal in the coordinator's current transaction state.
    State(String),
    /// The plan itself was refused — by the static-analysis gate or by an
    /// operator — as a session would refuse it.
    Eval(XstError),
}

impl<E> CoordError<E> {
    /// Did a shard refuse with `code`? (`Storage` on a read: it does not
    /// know the table; `Analysis` on a subplan: its gate rejected it.)
    fn is_refused(&self, code: ErrorCode) -> bool {
        matches!(self, CoordError::Refused { error, .. } if error.code == code)
    }
}

impl<E: fmt::Display> fmt::Display for CoordError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoordError::Refused { shard, error } => {
                write!(f, "shard {shard}: server error: {error}")
            }
            CoordError::Shard { shard, source } => match source {
                Some(source) => write!(f, "shard {shard}: {source}"),
                None => write!(f, "shard {shard}: link abandoned"),
            },
            CoordError::DecisionLog(e) => write!(f, "decision log flush failed: {e}"),
            CoordError::State(m) => write!(f, "coordinator state: {m}"),
            CoordError::Eval(e) => write!(f, "eval failed: {e}"),
        }
    }
}

impl<E: fmt::Debug + fmt::Display> std::error::Error for CoordError<E> {}

impl<E> From<StorageError> for CoordError<E> {
    fn from(e: StorageError) -> CoordError<E> {
        CoordError::DecisionLog(e)
    }
}

/// Result alias for every coordinator call.
pub type CoordResult<T, E = ClientError> = Result<T, CoordError<E>>;

/// One shard's door, abandoned (`None`) on its first failure.
struct Link<D> {
    shard: usize,
    door: Option<D>,
    /// Did the open transaction send this shard a non-empty write? The
    /// shards that did are the 2PC participant set.
    wrote: bool,
}

impl<D: Door> Link<D> {
    /// THE coordinator→shard call: put `req` to the shard and let `want`
    /// pick out the one answer kind it can produce. A refusal leaves the
    /// link standing; a door failure or an out-of-kind answer (a desynced
    /// stream) drops the door for good.
    fn ask<T>(
        &mut self,
        req: Request,
        want: impl FnOnce(Response) -> Option<T>,
    ) -> CoordResult<T, D::Error> {
        let shard = self.shard;
        let source = match self.door.as_mut().map(|door| door.call(req)) {
            Some(Ok(Response::Error(error))) => return Err(CoordError::Refused { shard, error }),
            Some(Ok(resp)) => match want(resp) {
                Some(answer) => return Ok(answer),
                None => None,
            },
            Some(Err(source)) => Some(source),
            None => None,
        };
        self.door = None;
        Err(CoordError::Shard { shard, source })
    }

    fn abort(&mut self) -> CoordResult<(), D::Error> {
        self.ask(Request::Abort, |r| {
            matches!(r, Response::Aborted).then_some(())
        })
    }

    /// Deliver the decision for `gtxn`; answers the local commit
    /// timestamp (0 on abort).
    fn decide(&mut self, gtxn: u64, commit: bool) -> CoordResult<u64, D::Error> {
        self.ask(Request::Decide { gtxn, commit }, |r| match r {
            Response::Decided { ts, .. } => Some(ts),
            _ => None,
        })
    }
}

/// A 2PC coordinator: one [`Door`] per shard — a [`Client`] per shard
/// process unless said otherwise — plus its own durable decision log. At
/// most one distributed transaction is open at a time (the coordinator
/// *is* the session).
pub struct Coordinator<D: Door = Client> {
    shards: Vec<Link<D>>,
    /// The durable decision log; its committed set (replayed at
    /// recovery) is what Resolve ships to shards.
    log: DecisionLog,
    in_txn: bool,
}

/// One handshaken connection per address, in shard order.
fn dial(addrs: &[String], timeout: Option<Duration>) -> CoordResult<Vec<Client>> {
    let connect = |(shard, addr): (usize, &String)| {
        let name = format!("xst-coord/{shard}");
        Client::connect_with_timeout(addr, &name, timeout).map_err(|e| {
            let source = Some(e);
            CoordError::Shard { shard, source }
        })
    };
    addrs.iter().enumerate().map(connect).collect()
}

impl Coordinator {
    /// Connect to one `xst-server` per address over fresh coordinator
    /// devices (a brand-new decision log). `timeout` bounds every
    /// read/write on every shard connection — a stalled shard surfaces
    /// as a typed timeout instead of a hang.
    pub fn connect(addrs: &[String], timeout: Option<Duration>) -> CoordResult<Coordinator> {
        Ok(Coordinator::over(dial(addrs, timeout)?))
    }

    /// Restart a coordinator over its surviving devices: reconnect every
    /// shard, then [`Coordinator::recover_over`] the connections.
    pub fn recover(
        addrs: &[String],
        storage: Storage,
        wal: Wal,
        timeout: Option<Duration>,
    ) -> CoordResult<Coordinator> {
        Coordinator::recover_over(dial(addrs, timeout)?, storage, wal)
    }
}

impl<D: Door> Coordinator<D> {
    /// A coordinator over already-open doors, one per shard in shard
    /// order, and fresh devices (a brand-new decision log).
    pub fn over(doors: Vec<D>) -> Coordinator<D> {
        Coordinator::with_log(DecisionLog::create(), doors)
    }

    /// Restart a coordinator over its surviving devices and freshly
    /// opened doors: drop any unacknowledged staged decision (the crash),
    /// replay the decision log into the committed set, and deliver a
    /// [`Request::Resolve`] round so each reachable shard settles its
    /// in-doubt prepares — commit the logged ones, presume abort for the
    /// rest. Shards that cannot be reached stay prepared — harmless, a
    /// later recovery settles them.
    pub fn recover_over(
        doors: Vec<D>,
        storage: Storage,
        wal: Wal,
    ) -> CoordResult<Coordinator<D>, D::Error> {
        let log = DecisionLog::recover(storage, wal)?;
        if xst_obs::enabled() {
            m::COORD_DECISIONS_REPLAYED_TOTAL.add(log.committed().len() as u64);
            m::COORD_RESOLVES_TOTAL.inc();
        }
        let mut coord = Coordinator::with_log(log, doors);
        let committed = coord.committed_gtxns();
        for link in &mut coord.shards {
            let committed = committed.clone();
            let _ = link.ask(Request::Resolve { committed }, |r| {
                matches!(r, Response::Resolved { .. }).then_some(())
            });
        }
        Ok(coord)
    }

    fn with_log(log: DecisionLog, doors: Vec<D>) -> Coordinator<D> {
        if xst_obs::enabled() {
            m::COORD_SHARDS.set(doors.len() as f64);
        }
        let link = |(shard, door)| Link {
            shard,
            door: Some(door),
            wrote: false,
        };
        Coordinator {
            shards: doors.into_iter().enumerate().map(link).collect(),
            log,
            in_txn: false,
        }
    }

    /// The coordinator's durable devices. Hold on to these to later
    /// [`Coordinator::recover`] "the same node" after dropping this
    /// instance — the decision log lives on them.
    pub fn devices(&self) -> (Storage, Wal) {
        self.log.devices()
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

    /// Begin a distributed transaction: one server-side transaction per
    /// shard, all on the same logical snapshot boundary (begins are
    /// issued under no concurrent coordinator activity — this
    /// coordinator is the only writer session on every shard).
    pub fn begin(&mut self) -> CoordResult<(), D::Error> {
        self.begin_at().map(|_| ())
    }

    /// [`Coordinator::begin`], answering the newest snapshot timestamp
    /// any shard reported (shard clocks are independent, as with the
    /// maximum [`Coordinator::commit`] returns).
    fn begin_at(&mut self) -> CoordResult<u64, D::Error> {
        if self.in_txn {
            return Err(CoordError::State(
                "a distributed transaction is already open (commit or abort it)".to_string(),
            ));
        }
        let mut snapshot_ts = 0u64;
        for i in 0..self.shards.len() {
            let begun = self.shards[i].ask(Request::Begin, |r| match r {
                Response::TxnBegun { snapshot_ts, .. } => Some(snapshot_ts),
                _ => None,
            });
            match begun {
                Ok(ts) => snapshot_ts = snapshot_ts.max(ts),
                Err(e) => {
                    // Shards 0..i now hold an open transaction only this
                    // call knows about: abort them (best effort) or they
                    // wedge the next begin and pin their snapshots.
                    for begun in &mut self.shards[..i] {
                        let _ = begun.abort();
                    }
                    return Err(e);
                }
            }
        }
        self.in_txn = true;
        self.shards.iter_mut().for_each(|l| l.wrote = false);
        if xst_obs::enabled() {
            m::COORD_TXN_BEGINS_TOTAL.inc();
        }
        Ok(snapshot_ts)
    }

    /// Scatter a write in the open transaction, or — outside one — as a
    /// transaction of its own, keeping cross-shard atomicity; answers the
    /// rows and, when it autocommitted, the commit timestamp. A failed
    /// autocommit write aborts the implicit transaction — left open, the
    /// next one would join it; a failed commit has already closed it.
    fn write(
        &mut self,
        table: &str,
        set: &ExtendedSet,
        delete: bool,
    ) -> CoordResult<(u64, Option<u64>), D::Error> {
        if self.in_txn {
            return self.scatter(table, set, delete).map(|rows| (rows, None));
        }
        self.begin()?;
        match self.scatter(table, set, delete) {
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
    fn scatter(
        &mut self,
        table: &str,
        set: &ExtendedSet,
        delete: bool,
    ) -> CoordResult<u64, D::Error> {
        let mut rows = 0u64;
        let parts = route_members(set, self.shards.len());
        for (i, set) in parts.into_iter().enumerate() {
            let wrote = !set.is_empty();
            if delete && !wrote {
                continue;
            }
            let table = table.to_string();
            let req = match delete {
                false => Request::Put { table, set },
                true => Request::Delete { table, set },
            };
            rows += self.shards[i].ask(req, |r| match r {
                Response::Applied { rows, .. } => Some(rows),
                _ => None,
            })?;
            self.shards[i].wrote |= wrote;
        }
        Ok(rows)
    }

    /// Insert every member of `set` into `table`, routed by member hash;
    /// autocommits outside a transaction. Returns the rows touched.
    pub fn put(&mut self, table: &str, set: &ExtendedSet) -> CoordResult<u64, D::Error> {
        Ok(self.write(table, set, false)?.0)
    }

    /// Delete every member of `set` from `table`, routed by member hash.
    pub fn delete(&mut self, table: &str, set: &ExtendedSet) -> CoordResult<u64, D::Error> {
        Ok(self.write(table, set, true)?.0)
    }

    /// The per-shard member fragments of `table`, in shard order.
    /// A shard that does not know the table contributes an empty
    /// fragment; if **no** shard knows it, the error propagates (the
    /// table does not exist anywhere).
    fn fragments(&mut self, table: &str) -> CoordResult<Vec<ExtendedSet>, D::Error> {
        let mut parts = Vec::with_capacity(self.shards.len());
        let mut known = 0usize;
        let mut unknown = None;
        for link in &mut self.shards {
            let table = table.to_string();
            let read = link.ask(Request::FragRead { table }, |r| match r {
                Response::Value { set } => Some(set),
                _ => None,
            });
            match read {
                Ok(set) => {
                    known += 1;
                    parts.push(set);
                }
                Err(e) if e.is_refused(ErrorCode::Storage) => {
                    unknown.get_or_insert(e);
                    parts.push(ExtendedSet::empty());
                }
                Err(e) => return Err(e),
            }
            if xst_obs::enabled() {
                m::COORD_FRAG_READS_TOTAL.inc();
            }
        }
        match unknown {
            Some(e) if known == 0 => Err(e),
            _ => Ok(parts),
        }
    }

    /// Read the whole member set of `table`: gather the per-shard
    /// fragments (ordered union over disjoint fragments — exact).
    pub fn get(&mut self, table: &str) -> CoordResult<ExtendedSet, D::Error> {
        Ok(gather(&self.fragments(table)?))
    }

    /// Evaluate `expr` over the cluster. The [`cut`] of the plan names the
    /// `∪`/`∩`/`∖` subtrees each shard can answer alone; each goes to
    /// every shard as an ordinary [`Request::Eval`], and the partials it
    /// answers bind the residual plan's placeholders as aligned fragments.
    /// The residual's own table leaves read whole fragments
    /// ([`Request::FragRead`]), and the shard-aware evaluator runs the
    /// residual exactly as the in-process engine would. Tables no shard
    /// knows stay unbound, so the static-analysis gate reports them as
    /// [`CoordError::Eval`].
    pub fn eval(&mut self, expr: &Expr) -> CoordResult<ExtendedSet, D::Error> {
        let Cut { residual, local } = cut(expr);
        let mut bindings = ShardedBindings::new();
        for (name, subplan) in local {
            match self.ship(&subplan) {
                Ok(partials) => {
                    bindings.insert(name, partials);
                }
                // A shard's gate refused the subplan: a table it names is
                // missing from that shard's catalog. Read the plan by its
                // fragments instead, where a shard without the table holds
                // an empty one and the root's gate decides.
                Err(e) if e.is_refused(ErrorCode::Analysis) => {
                    return self.eval_over(expr, ShardedBindings::new())
                }
                Err(e) => return Err(e),
            }
        }
        self.eval_over(&residual, bindings)
    }

    /// Run one shard-local subplan on every shard, its literals in row
    /// form; answers each shard's partial as a member set, in shard order.
    /// A shard binds a table as its row-tuple identity `{⟨e, s⟩}`, which
    /// maps members one to one, so a `∪`/`∩`/`∖` tree means the same there
    /// once its literals are mapped the same way.
    fn ship(&mut self, subplan: &Expr) -> CoordResult<Vec<ExtendedSet>, D::Error> {
        fn in_row_form(e: Expr) -> Expr {
            match e {
                Expr::Literal(set) => Expr::Literal(file_identity(&set_to_records(&set))),
                other => other.map_children(in_row_form),
            }
        }
        let expr = in_row_form(subplan.clone());
        let mut partials = Vec::with_capacity(self.shards.len());
        for link in &mut self.shards {
            if xst_obs::enabled() {
                m::COORD_SUBPLANS_SHIPPED_TOTAL.inc();
            }
            let req = Request::Eval { expr: expr.clone() };
            // A reply that is not a row-tuple identity is out of kind.
            partials.push(link.ask(req, |r| match r {
                Response::Value { set } => records_identity_to_set(&set).ok(),
                _ => None,
            })?);
        }
        Ok(partials)
    }

    /// Bind every table of `expr` that `bindings` lacks to its per-shard
    /// fragments, then walk `expr`.
    fn eval_over(
        &mut self,
        expr: &Expr,
        mut bindings: ShardedBindings,
    ) -> CoordResult<ExtendedSet, D::Error> {
        for name in expr.tables() {
            if bindings.contains_key(name) {
                continue;
            }
            match self.fragments(name) {
                Ok(parts) => {
                    bindings.insert(name.to_string(), parts);
                }
                Err(e) if e.is_refused(ErrorCode::Storage) => {} // unknown: the gate reports it
                Err(e) => return Err(e),
            }
        }
        eval_sharded(expr, &bindings, &Parallelism::sequential())
            .map(|(set, _stats)| set)
            .map_err(CoordError::Eval)
    }

    /// Close the open transaction's bookkeeping, or refuse: none is open.
    fn end_txn(&mut self) -> CoordResult<(), D::Error> {
        match std::mem::take(&mut self.in_txn) {
            true => Ok(()),
            false => Err(CoordError::State(
                "no open distributed transaction (begin first)".to_string(),
            )),
        }
    }

    /// Abort the open distributed transaction on every shard.
    pub fn abort(&mut self) -> CoordResult<(), D::Error> {
        self.end_txn()?;
        let mut first_err = None;
        for link in &mut self.shards {
            if let Err(e) = link.abort() {
                first_err.get_or_insert(e);
            }
        }
        first_err.map_or(Ok(()), Err)
    }

    /// Commit the open distributed transaction.
    ///
    /// * **No shard wrote** — plain Commit everywhere (read-only).
    /// * **One shard wrote** — Commit on the writer, Abort elsewhere:
    ///   single-shard durability is the shard's own WAL flush, no
    ///   coordination needed.
    /// * **Two or more wrote** — the 2PC round: Prepare on every
    ///   writer, the decision-log flush (THE acknowledgement), then
    ///   best-effort Decide. Any prepare failure aborts the whole
    ///   transaction before a decision exists.
    ///
    /// Returns the maximum commit timestamp any shard reported.
    pub fn commit(&mut self) -> CoordResult<u64, D::Error> {
        self.end_txn()?;
        let writers = self.shards.iter().filter(|l| l.wrote).count();
        if writers >= 2 {
            return self.commit_2pc();
        }
        let mut ts = 0u64;
        let mut first_err = None;
        for link in &mut self.shards {
            if writers == 1 && !link.wrote {
                // Beside a writer, a read-only shard just aborts: its
                // session holds a snapshot, nothing durable rides on it.
                let _ = link.abort();
                continue;
            }
            let committed = link.ask(Request::Commit, |r| match r {
                Response::Committed { ts } => Some(ts),
                _ => None,
            });
            match committed {
                Ok(t) => ts = ts.max(t),
                Err(e) => {
                    first_err.get_or_insert(e);
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

    fn commit_2pc(&mut self) -> CoordResult<u64, D::Error> {
        let mut participants = Vec::new();
        for link in &mut self.shards {
            if link.wrote {
                participants.push(link);
            } else {
                // Read-only shards just abort; they are not participants.
                let _ = link.abort();
            }
        }
        // A failure before the decision — a conflict, a dead shard, a
        // timeout, the flush itself — aborts the transaction; presumed
        // abort covers any shard the rollback could not reach.
        let decided = twopc::commit_round(&mut self.log, participants).inspect_err(|_| {
            if xst_obs::enabled() {
                m::COORD_2PC_ABORTS_TOTAL.inc();
            }
        })?;
        // Delivery is best effort. The outcome is already fixed; a shard
        // that misses its Decide stays prepared until recovery's Resolve
        // commits it from the log.
        let ts = decided.deliver().flatten().max().unwrap_or(0);
        if xst_obs::enabled() {
            m::COORD_2PC_COMMITS_TOTAL.inc();
        }
        Ok(ts)
    }

    /// A one-line human status of the cluster, for the shell.
    pub fn status(&self) -> String {
        format!(
            "cluster: {} shard(s), {} link(s) open, {n} committed decision(s) \
             ({n} decision-log entries), next gtxn {}, txn open: {}",
            self.shards.len(),
            self.shards.iter().filter(|l| l.door.is_some()).count(),
            self.log.peek_gtxn(),
            self.in_txn,
            n = self.log.committed().len()
        )
    }
}

/// The cluster door: each store verb maps onto the typed method above, so
/// the message sequence is theirs — `Eval` ships its shard-local subplans
/// and reads fragments only for the residual. A refusal — the
/// coordinator's own transaction-state check, a shard's typed answer, a
/// plan the gate rejects on a shard or here, a failed decision-log flush
/// — is answered with the [`ErrorCode`] a session gives it; only a broken
/// link is `Err`. `TxnBegun` names the gtxn a 2PC commit would spend and
/// the newest shard snapshot. `Get`, `FragRead` and `Eval` answer member
/// sets; a shard answers `Eval` in row form (ROADMAP item 3(a)), so a
/// coordinator stands where a shard stands for `FragRead` only. The
/// remaining kinds (analysis and observability pulls, the 2PC participant
/// side) are one server's to answer and are refused by name.
impl<D: Door> Door for Coordinator<D> {
    type Error = CoordError<D::Error>;

    fn call(&mut self, req: Request) -> CoordResult<Response, D::Error> {
        let applied = |(rows, autocommit_ts)| Response::Applied {
            rows,
            autocommit_ts,
        };
        let answer = match req {
            Request::Ping => self
                .shards
                .iter_mut()
                .try_for_each(|l| {
                    l.ask(Request::Ping, |r| matches!(r, Response::Pong).then_some(()))
                })
                .map(|()| Response::Pong),
            Request::Begin => self.begin_at().map(|snapshot_ts| Response::TxnBegun {
                id: self.log.peek_gtxn(),
                snapshot_ts,
            }),
            Request::Commit => self.commit().map(|ts| Response::Committed { ts }),
            Request::Abort => self.abort().map(|()| Response::Aborted),
            Request::Put { table, set } => self.write(&table, &set, false).map(applied),
            Request::Delete { table, set } => self.write(&table, &set, true).map(applied),
            Request::Get { table } | Request::FragRead { table } => {
                self.get(&table).map(|set| Response::Value { set })
            }
            Request::Eval { expr } => self.eval(&expr).map(|set| Response::Value { set }),
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
            CoordError::Refused { error, .. } => Ok(Response::Error(error)),
            CoordError::DecisionLog(e) => Ok(storage_error(e)),
            CoordError::Eval(e) => Ok(xst_error(e)),
            broken => Err(broken),
        })
    }
}

/// One written shard's side of a commit round, before and after its
/// prepare: the link to it.
impl<'a, D: Door> Participant for &'a mut Link<D> {
    type Error = CoordError<D::Error>;
    type Prepared = &'a mut Link<D>;

    fn prepare(self, gtxn: u64) -> CoordResult<&'a mut Link<D>, D::Error> {
        self.ask(Request::Prepare { gtxn }, |r| {
            matches!(r, Response::Prepared { gtxn: echoed, .. } if echoed == gtxn).then_some(())
        })?;
        Ok(self)
    }

    // The session still holds the open transaction.
    fn release(self) {
        let _ = self.abort();
    }
}

impl<D: Door> Prepared<CoordError<D::Error>> for &mut Link<D> {
    fn rollback(self, gtxn: u64) {
        let _ = self.decide(gtxn, false);
    }

    fn commit(self, gtxn: u64) -> CoordResult<u64, D::Error> {
        self.decide(gtxn, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use xst_server::{ServedEngine, Session};

    fn shards(n: usize) -> Vec<Arc<ServedEngine>> {
        (0..n).map(|_| Arc::new(ServedEngine::new())).collect()
    }

    fn over(engines: &[Arc<ServedEngine>]) -> Coordinator<Session> {
        Coordinator::over(engines.iter().cloned().map(Session::new).collect())
    }

    fn set(members: std::ops::Range<i64>) -> ExtendedSet {
        ExtendedSet::classical(members)
    }

    /// A plan the gate rejects is an `Eval` refusal whether the gate ran on
    /// a shard (`t ∪ nope` ships) or here (`L ∖ nope` does not), and the
    /// door still answers it as `Analysis`.
    #[test]
    fn a_rejected_plan_keeps_its_kind() {
        let mut coord = over(&shards(2));
        coord.put("t", &set(0..8)).unwrap();
        for plan in [
            Expr::table("t").union(Expr::table("nope")),
            Expr::lit(set(0..2)).difference(Expr::table("nope")),
            Expr::table("nope"),
        ] {
            let err = coord.eval(&plan).unwrap_err();
            assert!(
                matches!(err, CoordError::Eval(XstError::Analysis { .. })),
                "{plan}: {err}"
            );
            assert!(err.to_string().starts_with("eval failed: "), "{err}");
            let Ok(Response::Error(refusal)) = coord.call(Request::Eval { expr: plan }) else {
                panic!("the door answers a refusal");
            };
            assert_eq!(refusal.code, ErrorCode::Analysis);
        }
    }

    /// A shard that never heard of a table holds an empty fragment of it,
    /// for a shipped subplan as for a fragment read.
    #[test]
    fn a_table_one_shard_lacks_is_empty_there() {
        let engines = shards(2);
        let part = route_members(&set(0..40), 2).swap_remove(0);
        let table = "t".to_string();
        let put = Request::Put {
            table,
            set: part.clone(),
        };
        Session::new(Arc::clone(&engines[0])).handle(put);
        let mut coord = over(&engines);
        let plan = Expr::table("t").intersect(Expr::lit(set(0..20)));
        let want = xst_core::ops::intersection(&part, &set(0..20));
        assert!(!want.is_empty());
        assert_eq!(coord.eval(&plan).unwrap(), want);
        assert_eq!(coord.get("t").unwrap(), part);
    }
}
