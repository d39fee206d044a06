//! Per-connection sessions over a shared [`ServedEngine`].
//!
//! One [`Session`] exists per admitted connection. Every session holds
//! at most one open [`ShardedTxn`] against the engine's shared
//! [`ShardedEngine`] — *shared* is the point: first-committer-wins
//! conflicts between clients are real conflicts on one version chain,
//! not artifacts of separate databases. Outside an explicit `Begin`,
//! writes autocommit (each request is its own transaction), mirroring
//! the shell. A session that ends for any reason — clean close,
//! truncated stream, I/O error — aborts its open transaction, so a dead
//! client can never pin a snapshot.
//!
//! The engine is sharded ([`ServedEngine::with_shards`]); the default
//! single-shard deployment behaves exactly like the pre-sharding engine
//! (one write path, one WAL flush per commit). Queries evaluate by
//! scatter-gather over per-shard table fragments, and multi-shard
//! commits run two-phase commit under the engine's coordinator.
//!
//! Request handling is total: every failure maps to a
//! [`Response::Error`] with a machine-readable [`ErrorCode`], and the
//! session survives all of them except transport-level desync. In
//! particular a commit that loses first-committer-wins validation
//! surfaces as [`ErrorCode::TxnConflict`] with the table attributed —
//! the wire image of [`StorageError::TxnConflict`].

use crate::proto::{Door, ErrorCode, Request, Response, WireError, PROTO_VERSION};
use std::sync::Arc;
use std::time::Instant;
use xst_core::ops::Parallelism;
use xst_core::{ExtendedSet, SetBuilder, XstError};
use xst_obs::names::handle as m;
use xst_query::{
    eval_sharded, explain_analyze_sharded, merge_bindings, Bindings, Expr, ShardedBindings,
};
use xst_storage::{
    FaultKind, FaultSchedule, Record, Schema, ShardedEngine, ShardedTxn, Storage, StorageError,
    TxnManager, Wal,
};

/// Schema of every served table: one row per set member, element and
/// scope columns (the same layout the shell's `.put` uses).
pub fn member_schema() -> Schema {
    Schema::new(["element", "scope"])
}

/// Flatten a set into `(element, scope)` records, one per member.
pub fn set_to_records(set: &ExtendedSet) -> Vec<Record> {
    set.members()
        .iter()
        .map(|m| Record::new([m.element.clone(), m.scope.clone()]))
        .collect()
}

/// Rebuild the member set a table's row-tuple identity denotes — the
/// inverse of [`set_to_records`] composed with the record identity.
pub fn records_identity_to_set(identity: &ExtendedSet) -> Result<ExtendedSet, String> {
    let mut b = SetBuilder::new();
    for m in identity.members() {
        let Some(tuple) = m.element.as_set() else {
            return Err("table row is not a tuple".to_string());
        };
        match tuple.as_tuple().as_deref() {
            Some([element, scope]) => {
                b.scoped(element.clone(), scope.clone());
            }
            _ => return Err("table row is not an element/scope pair".to_string()),
        }
    }
    Ok(b.build())
}

/// The one engine a server instance serves: a [`ShardedEngine`]
/// (storage, WAL, transaction manager, and 2PC coordinator per shard),
/// plus the armable deterministic fault plan that lets the crash battery
/// reach the engine's I/O sites across the wire.
pub struct ServedEngine {
    sharded: ShardedEngine,
}

impl ServedEngine {
    /// A fresh single-shard engine over a fresh simulated disk — the
    /// pre-sharding serving behavior, one write path and one WAL flush
    /// per commit.
    pub fn new() -> ServedEngine {
        ServedEngine::with_shards(1)
    }

    /// A fresh engine over `shards` independent engine+WAL pairs; writes
    /// route by member hash, queries scatter-gather, and multi-shard
    /// commits run two-phase commit.
    pub fn with_shards(shards: usize) -> ServedEngine {
        ServedEngine {
            sharded: ShardedEngine::with_shards(shards),
        }
    }

    /// The sharded engine underneath (every session's txns come from
    /// here; its gauges are how tests observe snapshot-pinning leaks).
    pub fn sharded(&self) -> &ShardedEngine {
        &self.sharded
    }

    /// Number of shards this engine partitions tables across.
    pub fn shard_count(&self) -> usize {
        self.sharded.shard_count()
    }

    /// Shard 0's transaction manager — the whole engine on the default
    /// single-shard deployment. Kept for tests and tools that inspect
    /// the manager directly.
    pub fn mgr(&self) -> &TxnManager {
        self.sharded.shard_mgr(0)
    }

    /// Shard 0's simulated disk (the whole disk when single-shard).
    pub fn storage(&self) -> &Storage {
        self.sharded.shard_storage(0)
    }

    /// Shard 0's WAL handle (the whole WAL when single-shard).
    pub fn wal(&self) -> &Wal {
        self.sharded.shard_wal(0)
    }

    /// Create `name` with the served [`member_schema`] if it does not
    /// exist yet (first `Put` wins; concurrent creates are benign).
    pub fn ensure_table(&self, name: &str) {
        let _ = self.sharded.create_table(name, member_schema());
    }

    /// Arm a deterministic fault plan on every shard's storage *and* WAL
    /// plus the coordinator's (one shared site counter, as in the
    /// in-process crash harnesses).
    pub fn arm_faults(&self, schedule: FaultSchedule, kind: FaultKind) {
        self.sharded.arm_faults(schedule, kind);
    }

    /// Disarm and drop any armed plan.
    pub fn clear_faults(&self) {
        self.sharded.clear_faults();
    }

    /// Crash-test helper: clear faults, drop unacknowledged staged WAL
    /// state on every device (the crash), and rebuild an engine from
    /// durable state alone — in-doubt prepares resolved against the
    /// coordinator's decision log. What this returns is what a
    /// post-crash restart would see. `catalog` registers any tables the
    /// engine was never told about in-process (registration is
    /// in-memory metadata, so re-registering is benign).
    pub fn recover(&self, catalog: &[(&str, Schema)]) -> Result<ShardedEngine, StorageError> {
        self.recover_with_decisions(catalog, &std::collections::BTreeSet::new())
    }

    /// Like [`ServedEngine::recover`], but resolving in-doubt prepares
    /// against an **external** wire coordinator's committed set as well
    /// as the local decision log — how a shard process restarts under a
    /// remote coordinator without presumed-aborting decided prepares.
    pub fn recover_with_decisions(
        &self,
        catalog: &[(&str, Schema)],
        committed: &std::collections::BTreeSet<u64>,
    ) -> Result<ShardedEngine, StorageError> {
        for (name, schema) in catalog {
            let _ = self.sharded.create_table(name, schema.clone());
        }
        self.sharded.recover_with_decisions(committed)
    }

    /// Global transaction ids prepared here and awaiting an external
    /// coordinator's decision.
    pub fn prepared_gtxns(&self) -> Vec<u64> {
        self.sharded.prepared_external()
    }
}

impl Default for ServedEngine {
    fn default() -> Self {
        ServedEngine::new()
    }
}

/// Map a storage failure onto the wire: conflicts keep their code and
/// table attribution, everything else is [`ErrorCode::Storage`].
pub fn storage_error(e: StorageError) -> Response {
    let (code, table) = match &e {
        StorageError::TxnConflict { table, .. } => (ErrorCode::TxnConflict, Some(table.clone())),
        _ => (ErrorCode::Storage, None),
    };
    Response::Error(WireError {
        code,
        table,
        message: e.to_string(),
    })
}

/// Map an algebra/query failure onto the wire.
pub fn xst_error(e: XstError) -> Response {
    let code = match &e {
        XstError::Parse { .. } => ErrorCode::Parse,
        XstError::Analysis { .. } => ErrorCode::Analysis,
        _ => ErrorCode::Eval,
    };
    Response::Error(WireError::new(code, e.to_string()))
}

fn txn_state_error(message: &str) -> Response {
    Response::Error(WireError::new(ErrorCode::TxnState, message))
}

/// One connection's dispatch state: the shared engine plus at most one
/// open transaction.
pub struct Session {
    engine: Arc<ServedEngine>,
    open: Option<ShardedTxn>,
    /// Diagnostic session id carried into spans and the request log
    /// (0 = not a served connection).
    id: u64,
}

impl Session {
    /// A session over `engine` with no transaction open.
    pub fn new(engine: Arc<ServedEngine>) -> Session {
        Session::with_id(engine, 0)
    }

    /// A session carrying a diagnostic `id` (the server uses the
    /// connection id, 1-based so 0 stays "not a served connection").
    pub fn with_id(engine: Arc<ServedEngine>, id: u64) -> Session {
        Session {
            engine,
            open: None,
            id,
        }
    }

    /// This session's diagnostic id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The engine this session dispatches against.
    pub fn engine(&self) -> &Arc<ServedEngine> {
        &self.engine
    }

    /// The open explicit transaction's id, if one is open.
    pub fn txn_id(&self) -> Option<u64> {
        self.open.as_ref().map(ShardedTxn::id)
    }

    /// End the session: abort any open transaction so the connection's
    /// snapshot is released. Called on every disconnect path.
    pub fn close(&mut self) {
        if let Some(txn) = self.open.take() {
            txn.abort();
        }
    }

    /// Bind every table `expr` names to the session's visible per-shard
    /// fragments: the open transaction's snapshot (plus its own writes)
    /// if one is open, else the latest commit. Unknown tables stay
    /// unbound so the static-analysis gate reports them as structured
    /// diagnostics.
    fn fragments_for(&mut self, expr: &Expr) -> Result<ShardedBindings, Response> {
        let names: Vec<String> = expr.tables().iter().map(|n| n.to_string()).collect();
        let mut b = ShardedBindings::new();
        for name in names {
            let frags = match &mut self.open {
                Some(txn) => txn.read_fragments(&name),
                None => self.engine.sharded.latest_fragments(&name),
            };
            match frags {
                Ok(parts) => {
                    b.insert(name, parts);
                }
                Err(StorageError::SchemaMismatch { .. }) => {} // unbound: the gate reports it
                Err(e) => return Err(storage_error(e)),
            }
        }
        Ok(b)
    }

    /// The gathered (whole-set) bindings, for paths that need unsharded
    /// views (static checks).
    fn bindings_for(&mut self, expr: &Expr) -> Result<Bindings, Response> {
        Ok(merge_bindings(&self.fragments_for(expr)?))
    }

    fn eval(&mut self, expr: Expr) -> Response {
        let b = match self.fragments_for(&expr) {
            Ok(b) => b,
            Err(resp) => return resp,
        };
        match eval_sharded(&expr, &b, &Parallelism::sequential()) {
            Ok((set, _stats)) => Response::Value { set },
            Err(e) => xst_error(e),
        }
    }

    fn check(&mut self, expr: Expr) -> Response {
        let b = match self.bindings_for(&expr) {
            Ok(b) => b,
            Err(resp) => return resp,
        };
        let analysis = xst_query::check(&expr, &b);
        let mut text = format!(
            "rejected: {}\nproved safe: {}\n",
            analysis.is_rejected(),
            analysis.proved_safe()
        );
        for d in &analysis.diagnostics {
            text.push_str(&format!("  {d}\n"));
        }
        Response::Report { text }
    }

    fn explain(&mut self, expr: Expr) -> Response {
        let b = match self.fragments_for(&expr) {
            Ok(b) => b,
            Err(resp) => return resp,
        };
        match explain_analyze_sharded(&expr, &b, &Parallelism::sequential()) {
            Ok(report) => Response::Report {
                text: report.to_string(),
            },
            Err(e) => xst_error(e),
        }
    }

    fn begin(&mut self) -> Response {
        if self.open.is_some() {
            return txn_state_error("a transaction is already open (commit or abort it)");
        }
        let txn = self.engine.sharded.begin();
        let resp = Response::TxnBegun {
            id: txn.id(),
            snapshot_ts: txn.begin_ts(),
        };
        self.open = Some(txn);
        resp
    }

    fn commit(&mut self) -> Response {
        let Some(txn) = self.open.take() else {
            return txn_state_error("no open transaction (begin first)");
        };
        match txn.commit() {
            Ok(ts) => Response::Committed { ts },
            Err(e) => storage_error(e),
        }
    }

    fn abort(&mut self) -> Response {
        let Some(txn) = self.open.take() else {
            return txn_state_error("no open transaction (begin first)");
        };
        txn.abort();
        Response::Aborted
    }

    fn put(&mut self, table: String, set: ExtendedSet) -> Response {
        self.engine.ensure_table(&table);
        let records = set_to_records(&set);
        match &mut self.open {
            Some(txn) => {
                for r in &records {
                    if let Err(e) = txn.insert(&table, r.clone()) {
                        return storage_error(e);
                    }
                }
                Response::Applied {
                    rows: records.len() as u64,
                    autocommit_ts: None,
                }
            }
            None => match self.engine.sharded.autocommit_insert(&table, &records) {
                Ok(ts) => Response::Applied {
                    rows: records.len() as u64,
                    autocommit_ts: Some(ts),
                },
                Err(e) => storage_error(e),
            },
        }
    }

    fn delete(&mut self, table: String, set: ExtendedSet) -> Response {
        let records = set_to_records(&set);
        match &mut self.open {
            Some(txn) => {
                for r in &records {
                    if let Err(e) = txn.delete(&table, r.clone()) {
                        return storage_error(e);
                    }
                }
                Response::Applied {
                    rows: records.len() as u64,
                    autocommit_ts: None,
                }
            }
            None => {
                let mut txn = self.engine.sharded.begin();
                for r in &records {
                    if let Err(e) = txn.delete(&table, r.clone()) {
                        txn.abort();
                        return storage_error(e);
                    }
                }
                match txn.commit() {
                    Ok(ts) => Response::Applied {
                        rows: records.len() as u64,
                        autocommit_ts: Some(ts),
                    },
                    Err(e) => storage_error(e),
                }
            }
        }
    }

    fn get(&mut self, table: String) -> Response {
        let identity = match &mut self.open {
            Some(txn) => txn.read_identity(&table),
            None => self.engine.sharded.latest_identity(&table),
        };
        match identity {
            Ok(set) => Response::Value { set },
            Err(e) => storage_error(e),
        }
    }

    /// Coordinator read path: the raw local fragment of `table` — this
    /// shard's members only, no gather — as a set identity.
    fn frag_read(&mut self, table: String) -> Response {
        let identity = match &mut self.open {
            Some(txn) => txn.read_identity(&table),
            None => self.engine.sharded.latest_identity(&table),
        };
        match identity {
            Ok(set) => match records_identity_to_set(&set) {
                Ok(set) => Response::Value { set },
                Err(msg) => Response::Error(WireError::new(ErrorCode::Internal, msg)),
            },
            Err(e) => storage_error(e),
        }
    }

    /// 2PC phase one: seal the session's open transaction as an
    /// in-doubt prepare under the coordinator's global id. The open
    /// transaction is **consumed** — after a successful prepare the
    /// session has no open transaction, and a disconnect no longer
    /// aborts the staged writes (only Decide/Resolve settles them).
    fn prepare(&mut self, gtxn: u64) -> Response {
        let Some(txn) = self.open.take() else {
            return txn_state_error("no open transaction to prepare (begin first)");
        };
        match self.engine.sharded.prepare_external(txn, gtxn) {
            Ok(participants) => Response::Prepared {
                gtxn,
                participants: participants as u64,
            },
            Err(e) => storage_error(e),
        }
    }

    /// 2PC phase two: apply the coordinator's durable decision to a
    /// prepared transaction. Commit errors are real (the marker write
    /// can fail); aborting an unknown gtxn is a no-op by design — the
    /// coordinator resolves liberally after recovery.
    fn decide(&mut self, gtxn: u64, commit: bool) -> Response {
        if commit {
            match self.engine.sharded.commit_external(gtxn) {
                Ok(ts) => Response::Decided {
                    committed: true,
                    ts,
                },
                Err(e) => storage_error(e),
            }
        } else {
            self.engine.sharded.abort_external(gtxn);
            Response::Decided {
                committed: false,
                ts: 0,
            }
        }
    }

    /// Settle every in-doubt prepare on this shard against the
    /// coordinator's committed set: commit the named ones, presume
    /// abort for the rest.
    fn resolve(&mut self, committed: Vec<u64>) -> Response {
        let committed: std::collections::BTreeSet<u64> = committed.into_iter().collect();
        match self.engine.sharded.resolve_external(&committed) {
            Ok((committed, aborted)) => Response::Resolved { committed, aborted },
            Err(e) => storage_error(e),
        }
    }

    fn metrics(&self, json: bool) -> Response {
        let text = if json {
            xst_obs::registry().export_json()
        } else {
            xst_obs::registry().export_prometheus()
        };
        Response::Report { text }
    }

    fn trace_dump(&self) -> Response {
        Response::Report {
            text: xst_obs::export_trace_json(&xst_obs::collector().snapshot_spans()),
        }
    }

    fn request_log(&self, slow: bool, limit: u32) -> Response {
        let log = xst_obs::request_log();
        let limit = (limit as usize).max(1);
        let records = if slow {
            log.slow(limit)
        } else {
            log.top(limit)
        };
        Response::Report {
            text: xst_obs::reqlog::render_records(&records),
        }
    }

    /// Handle one request with full observability: peel and adopt any
    /// carried [`TraceContext`] (so the request's spans join the remote
    /// trace), open the `session.request` span, meter the request's
    /// resource bill, and append a structured record to the request
    /// log. This is the entry the server's request loop uses; `handle`
    /// is the bare dispatch underneath it.
    pub fn serve_one(&mut self, req: Request) -> Response {
        let (ctx, req) = match req {
            Request::Traced { ctx, req } => (Some(ctx), *req),
            other => (None, other),
        };
        let _adopted = ctx.map(|ctx| {
            if xst_obs::enabled() {
                m::SERVER_TRACED_REQUESTS_TOTAL.inc();
            }
            xst_obs::span::adopt(ctx)
        });
        let kind = req.kind_name();
        let detail = req.detail();
        let timer = xst_obs::enabled().then(Instant::now);
        let costs = xst_obs::cost::begin();
        let span = xst_obs::span!("session.request", session = self.id, kind = kind);
        let txn_before = self.open.as_ref().map(ShardedTxn::id);
        let resp = self.handle(req);
        let trace_id = span.trace_id().unwrap_or(0);
        drop(span);
        let cost = costs.take();
        if let Some(start) = timer {
            xst_obs::request_log().record(xst_obs::RequestRecord {
                seq: 0,
                session: self.id,
                txn: txn_before.or_else(|| self.open.as_ref().map(ShardedTxn::id)),
                kind,
                detail,
                trace_id,
                wall_ns: start.elapsed().as_nanos() as u64,
                cost,
                outcome: resp.outcome(),
            });
        }
        resp
    }

    /// Dispatch one already-decoded request. Total: every outcome is a
    /// [`Response`]; this function never panics and never closes the
    /// session itself.
    pub fn handle(&mut self, req: Request) -> Response {
        match req {
            Request::Hello { .. } => Response::Error(WireError::new(
                ErrorCode::Protocol,
                format!("handshake already complete (protocol v{PROTO_VERSION})"),
            )),
            Request::Ping => Response::Pong,
            Request::Eval { expr } => self.eval(expr),
            Request::Check { expr } => self.check(expr),
            Request::Explain { expr } => self.explain(expr),
            Request::Begin => self.begin(),
            Request::Commit => self.commit(),
            Request::Abort => self.abort(),
            Request::Put { table, set } => self.put(table, set),
            Request::Delete { table, set } => self.delete(table, set),
            Request::Get { table } => self.get(table),
            Request::FragRead { table } => self.frag_read(table),
            Request::Prepare { gtxn } => self.prepare(gtxn),
            Request::Decide { gtxn, commit } => self.decide(gtxn, commit),
            Request::Resolve { committed } => self.resolve(committed),
            Request::Metrics { json } => self.metrics(json),
            Request::ArmFaults { schedule, kind } => {
                self.engine.arm_faults(schedule, kind);
                Response::FaultsArmed { armed: true }
            }
            Request::ClearFaults => {
                self.engine.clear_faults();
                Response::FaultsArmed { armed: false }
            }
            // A Traced wrapper reaching bare dispatch (tests, defensive
            // callers) still adopts its context around the inner
            // request; `serve_one` normally peels it first so the
            // request span itself joins the trace.
            Request::Traced { ctx, req } => {
                let _adopted = xst_obs::span::adopt(ctx);
                self.handle(*req)
            }
            Request::TraceDump => self.trace_dump(),
            Request::RequestLog { slow, limit } => self.request_log(slow, limit),
        }
    }
}

/// The in-process door: bare [`Session::handle`], no socket and no
/// request-log record — the caller (the shell) accounts its own commands,
/// so going through [`Session::serve_one`] would bill each one twice.
impl Door for Session {
    type Error = std::convert::Infallible;

    fn call(&mut self, req: Request) -> Result<Response, Self::Error> {
        Ok(self.handle(req))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xst_core::xset;

    fn session() -> Session {
        Session::new(Arc::new(ServedEngine::new()))
    }

    #[test]
    fn autocommit_put_then_get_round_trips_members() {
        let mut s = session();
        let set = xset![1, 2, 3];
        let resp = s.handle(Request::Put {
            table: "t".into(),
            set: set.clone(),
        });
        assert!(
            matches!(
                resp,
                Response::Applied {
                    rows: 3,
                    autocommit_ts: Some(_)
                }
            ),
            "{resp:?}"
        );
        let Response::Value { set: identity } = s.handle(Request::Get { table: "t".into() }) else {
            unreachable!()
        };
        assert_eq!(records_identity_to_set(&identity), Ok(set));
    }

    #[test]
    fn ryow_inside_txn_and_invisible_outside() {
        let engine = Arc::new(ServedEngine::new());
        let mut a = Session::new(Arc::clone(&engine));
        let mut b = Session::new(Arc::clone(&engine));
        assert!(matches!(
            a.handle(Request::Begin),
            Response::TxnBegun { .. }
        ));
        a.handle(Request::Put {
            table: "t".into(),
            set: xset![7],
        });
        // A sees its own write...
        let Response::Value { set } = a.handle(Request::Get { table: "t".into() }) else {
            unreachable!()
        };
        assert_eq!(set.card(), 1);
        // ...B does not, until A commits.
        let Response::Value { set } = b.handle(Request::Get { table: "t".into() }) else {
            unreachable!()
        };
        assert!(set.is_empty());
        assert!(matches!(
            a.handle(Request::Commit),
            Response::Committed { .. }
        ));
        let Response::Value { set } = b.handle(Request::Get { table: "t".into() }) else {
            unreachable!()
        };
        assert_eq!(set.card(), 1);
    }

    #[test]
    fn conflicting_commit_maps_to_txn_conflict_code() {
        let engine = Arc::new(ServedEngine::new());
        let mut a = Session::new(Arc::clone(&engine));
        let mut b = Session::new(Arc::clone(&engine));
        engine.ensure_table("t");
        a.handle(Request::Begin);
        b.handle(Request::Begin);
        a.handle(Request::Put {
            table: "t".into(),
            set: xset![1],
        });
        b.handle(Request::Put {
            table: "t".into(),
            set: xset![1],
        });
        assert!(matches!(
            a.handle(Request::Commit),
            Response::Committed { .. }
        ));
        let resp = b.handle(Request::Commit);
        let Response::Error(e) = resp else {
            unreachable!("second committer must conflict: {resp:?}")
        };
        assert_eq!(e.code, ErrorCode::TxnConflict);
        assert_eq!(e.table.as_deref(), Some("t"));
    }

    #[test]
    fn eval_over_unknown_table_is_an_analysis_error() {
        let mut s = session();
        let resp = s.handle(Request::Eval {
            expr: Expr::table("missing"),
        });
        let Response::Error(e) = resp else {
            unreachable!()
        };
        assert_eq!(e.code, ErrorCode::Analysis);
        assert!(e.message.contains("unbound-table"), "{}", e.message);
    }

    #[test]
    fn multi_shard_engine_serves_the_same_answers_as_single_shard() {
        let sharded = Arc::new(ServedEngine::with_shards(3));
        let plain = Arc::new(ServedEngine::new());
        assert_eq!(sharded.shard_count(), 3);
        assert_eq!(plain.shard_count(), 1);
        let nums = |range: &mut dyn Iterator<Item = i64>| {
            let mut b = SetBuilder::new();
            for k in range {
                b.classical_elem(k);
            }
            b.build()
        };
        let big = nums(&mut (0..64));
        let odd = nums(&mut (0..64).filter(|k| k % 2 == 1));
        for engine in [&sharded, &plain] {
            let mut s = Session::new(Arc::clone(engine));
            s.handle(Request::Put {
                table: "big".into(),
                set: big.clone(),
            });
            s.handle(Request::Begin);
            s.handle(Request::Put {
                table: "odd".into(),
                set: odd.clone(),
            });
            assert!(matches!(
                s.handle(Request::Commit),
                Response::Committed { .. }
            ));
        }
        let expr = Expr::table("big").intersect(Expr::table("odd"));
        let mut answers = Vec::new();
        for engine in [&sharded, &plain] {
            let mut s = Session::new(Arc::clone(engine));
            let Response::Value { set } = s.handle(Request::Eval { expr: expr.clone() }) else {
                unreachable!()
            };
            answers.push(set);
        }
        assert_eq!(answers[0], answers[1]);
        // The sharded engine's table really is spread: Get gathers the
        // full identity back.
        let mut s = Session::new(Arc::clone(&sharded));
        let Response::Value { set } = s.handle(Request::Get {
            table: "big".into(),
        }) else {
            unreachable!()
        };
        assert_eq!(records_identity_to_set(&set), Ok(big));
    }

    #[test]
    fn close_aborts_the_open_txn() {
        let engine = Arc::new(ServedEngine::new());
        let mut s = Session::new(Arc::clone(&engine));
        s.handle(Request::Begin);
        assert_eq!(engine.mgr().active_txns(), 1);
        s.close();
        assert_eq!(engine.mgr().active_txns(), 0);
    }
}
