//! `cluster_rw`: the cross-process path. One `Coordinator` over two
//! single-shard servers (two connections, used strictly in sequence);
//! one op is the `wire_commit` transaction driven through 2PC, then
//! `Coordinator::eval(t ∩ 16-member literal)`, which reads both shards'
//! whole fragments to answer it.

use super::{
    expect_set, ping, replay_eval, walk, Counters, OpResult, ReplayTotals, Served, Workload, TABLE,
};
use crate::gen::{members, Keys, SplitMix64, Window, TXN_ROWS};
use crate::spans::Recorder;
use crate::spec::{CLUSTER_MEMBERS, CLUSTER_SHARDS, LITERAL_ROWS};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xst_client::coord::{CoordError, Coordinator};
use xst_core::ops::Parallelism;
use xst_core::ExtendedSet;
use xst_query::{eval_parallel, Bindings, Expr};
use xst_server::{Request, Response, Session};

pub struct ClusterRw {
    shards: Vec<Served>,
    coord: Coordinator,
    window: Window,
    rng: SplitMix64,
    /// The latest op's query, for `replay` to decompose.
    last_query: Expr,
    replay_sessions: Vec<Session>,
}

impl ClusterRw {
    pub fn new(seed: u64) -> ClusterRw {
        let mut rng = SplitMix64::new(seed);
        let window = Window::new(Keys::new(&mut rng), CLUSTER_MEMBERS);
        let shards: Vec<Served> = (0..CLUSTER_SHARDS).map(|_| Served::start()).collect();
        let addrs: Vec<String> = shards.iter().map(Served::addr).collect();
        let mut coord = Coordinator::connect(&addrs, Some(super::OP_TIMEOUT))
            .expect("connect to both shard servers");
        coord
            .put(TABLE, &members(window.live_keys()))
            .expect("load the table in one distributed autocommit");
        let replay_sessions = shards
            .iter()
            .map(|s| Session::new(Arc::clone(&s.engine)))
            .collect();
        ClusterRw {
            shards,
            coord,
            window,
            rng,
            last_query: Expr::table(TABLE),
            replay_sessions,
        }
    }

    /// The model's answer to `query`: the same plan, in-process, over the
    /// generator's copy of the table.
    fn oracle(&self, query: &Expr) -> ExtendedSet {
        let mut bindings = Bindings::new();
        bindings.insert(TABLE.to_string(), members(self.window.live_keys()));
        eval_parallel(query, &bindings, &Parallelism::sequential())
            .expect("oracle evaluates the plan")
            .0
    }
}

/// The op's five coordinator calls, each under its own span when the
/// recorder is on. Returns the commit timestamp and the query's reply.
fn txn_then_query(
    coord: &mut Coordinator,
    rec: &mut Recorder,
    put: &ExtendedSet,
    delete: &ExtendedSet,
    query: &Expr,
) -> Result<(u64, ExtendedSet), CoordError> {
    rec.leaf("coord.begin", || coord.begin())?;
    rec.leaf("coord.put", || coord.put(TABLE, put))?;
    rec.leaf("coord.delete", || coord.delete(TABLE, delete))?;
    let ts = rec.leaf("coord.commit", || coord.commit())?;
    let reply = rec.leaf("coord.eval", || coord.eval(query))?;
    Ok((ts, reply))
}

impl Workload for ClusterRw {
    fn op(&mut self, rec: &mut Recorder) -> OpResult {
        let (put, delete) = self.window.slide();
        // The literal names the 8 members this transaction commits and 8
        // settled ones: all live, so the reply is exactly these 16 — and
        // only if the commit is visible to the read that follows it.
        let mut literal = self
            .window
            .pick_settled(&mut self.rng, LITERAL_ROWS - TXN_ROWS);
        literal.extend(&put);
        let literal = members(literal);
        let query = Expr::table(TABLE).intersect(Expr::lit(literal.clone()));
        let (put, delete) = (members(put), members(delete));

        let span = rec.enter("client.op");
        let start = Instant::now();
        let done = txn_then_query(&mut self.coord, rec, &put, &delete, &query);
        let nanos = start.elapsed().as_nanos() as u64;
        rec.exit(span);
        if done.is_err() && self.coord.in_txn() {
            let _ = self.coord.abort(); // leave the coordinator usable
        }
        let outcome = done.map_err(|e| e.to_string()).and_then(|(ts, reply)| {
            // The coordinator reports the largest shard-local timestamp;
            // shards count separately, so only "a commit happened" holds.
            if ts == 0 {
                return Err("commit reported timestamp 0".to_string());
            }
            expect_set("eval reply", &reply, &self.oracle(&query))?;
            expect_set("the literal's members", &reply, &literal)
        });
        self.last_query = query;
        OpResult::checked(nanos, outcome)
    }

    /// Only the query half is walked by hand: a `FragRead` per shard
    /// through the full request path, then the coordinator-side gather,
    /// gate and evaluation. The 2PC half cannot be — splitting a write by
    /// shard needs the engine's member hash, which is not part of the
    /// surface this benchmark may call — so it is timed from outside, by
    /// the `coord.*` spans of the op itself.
    fn replay(&mut self, rec: &mut Recorder, totals: &mut ReplayTotals) {
        let mut fragments = Vec::with_capacity(self.replay_sessions.len());
        for session in &mut self.replay_sessions {
            let before = totals.resp_bytes;
            let req = Request::FragRead {
                table: TABLE.to_string(),
            };
            match walk(rec, session, &req, totals).resp {
                Response::Value { set } => fragments.push(set),
                other => panic!("replayed frag-read answered {other:?}"),
            }
            totals.frag_bytes += totals.resp_bytes - before;
        }
        replay_eval(rec, None, &self.last_query, fragments, totals);
    }

    /// A third connection, but only for the length of one ping and never
    /// while an op is in flight.
    fn ping(&mut self) -> Option<Duration> {
        ping(&mut self.shards[0].connect())
    }

    fn counters(&self) -> Counters {
        let mut total = Counters {
            decision_log_bytes: self.coord.devices().1.len() as u64,
            decisions: self.coord.committed_gtxns().len() as u64,
            ..Counters::default()
        };
        for shard in &self.shards {
            let c = shard.counters();
            total.wal_bytes += c.wal_bytes;
            total.page_writes += c.page_writes;
            total.versions += c.versions;
        }
        total
    }

    fn finish(&mut self) -> Result<(), String> {
        let table = self.coord.get(TABLE).map_err(|e| e.to_string())?;
        expect_set("final table", &table, &members(self.window.live_keys()))
    }
}
