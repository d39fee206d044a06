//! `wire_scan` and `wire_point`: one client, one `Eval` per op, the same
//! path with opposite reply sizes. The scan's 44 KB text reply makes the
//! value codec (and the frame CRC) the op; the point query's 16-member
//! reply leaves both idle, so what remains is the round trip and the
//! session's per-request work over the whole table.

use super::{expect_set, ping, replay_eval, walk, OpResult, ReplayTotals, Served, Workload, TABLE};
use crate::gen::{distinct_below, members, rows, Keys, SplitMix64};
use crate::spans::Recorder;
use crate::spec::{LITERAL_ROWS, POINT_MEMBERS, SCAN_MEMBERS};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xst_client::Client;
use xst_core::ops::Parallelism;
use xst_core::ExtendedSet;
use xst_query::{eval_parallel, Bindings, Expr};
use xst_server::{records_identity_to_set, Request, Session};

pub struct WireRead {
    served: Served,
    client: Client,
    expr: Expr,
    /// The oracle's answer, as the row-tuple identity `Eval` returns…
    want_rows: ExtendedSet,
    /// …and as the member set those rows denote.
    want_members: ExtendedSet,
    replay_session: Session,
    probe_session: Session,
}

impl WireRead {
    /// `eval(table t)`: the reply is the whole table.
    pub fn scan(seed: u64) -> WireRead {
        let keys = Keys::new(&mut SplitMix64::new(seed));
        let all: Vec<i64> = (0..SCAN_MEMBERS).map(|i| keys.key(i)).collect();
        WireRead::new(&all, Expr::table(TABLE), &all)
    }

    /// `eval(t ∩ literal)`: the literal is 16 seeded rows of the table.
    pub fn point(seed: u64) -> WireRead {
        let mut rng = SplitMix64::new(seed);
        let keys = Keys::new(&mut rng);
        let all: Vec<i64> = (0..POINT_MEMBERS).map(|i| keys.key(i)).collect();
        let hit: Vec<i64> = distinct_below(&mut rng, POINT_MEMBERS, LITERAL_ROWS)
            .into_iter()
            .map(|i| keys.key(i))
            .collect();
        let expr = Expr::table(TABLE).intersect(Expr::lit(rows(hit.iter().copied())));
        WireRead::new(&all, expr, &hit)
    }

    fn new(table: &[i64], expr: Expr, answer: &[i64]) -> WireRead {
        let served = Served::start();
        let mut client = served.connect();
        client
            .put(TABLE, &members(table.iter().copied()))
            .expect("load the table in one autocommit");
        // The oracle evaluates the same plan in-process over its own copy
        // of the table's identity, built from the generator's keys alone.
        let mut oracle = Bindings::new();
        oracle.insert(TABLE.to_string(), rows(table.iter().copied()));
        let (want_rows, _) = eval_parallel(&expr, &oracle, &Parallelism::sequential())
            .expect("oracle evaluates the plan");
        let want_members = members(answer.iter().copied());
        assert_eq!(want_rows.card(), answer.len(), "oracle found every row");
        let replay_session = Session::new(Arc::clone(&served.engine));
        let probe_session = Session::new(Arc::clone(&served.engine));
        WireRead {
            served,
            client,
            expr,
            want_rows,
            want_members,
            replay_session,
            probe_session,
        }
    }

    fn verify(&self, reply: &ExtendedSet) -> Result<(), String> {
        expect_set("eval reply", reply, &self.want_rows)?;
        expect_set(
            "members the reply denotes",
            &records_identity_to_set(reply)?,
            &self.want_members,
        )
    }
}

impl Workload for WireRead {
    fn op(&mut self, rec: &mut Recorder) -> OpResult {
        let span = rec.enter("client.op");
        let start = Instant::now();
        let reply = self.client.eval(&self.expr);
        let nanos = start.elapsed().as_nanos() as u64;
        rec.exit(span);
        let outcome = reply
            .map_err(|e| e.to_string())
            .and_then(|set| self.verify(&set));
        OpResult::checked(nanos, outcome)
    }

    fn replay(&mut self, rec: &mut Recorder, totals: &mut ReplayTotals) {
        let req = Request::Eval {
            expr: self.expr.clone(),
        };
        let walked = walk(rec, &mut self.replay_session, &req, totals);
        // The leaf calls `Session::handle` makes for an `Eval`, re-run on
        // the same engine: bare dispatch first, then each call under it.
        let again = req.clone();
        let session = &mut self.probe_session;
        rec.probe("session.handle", walked.serve_one, || session.handle(again));
        let handle = rec.last();
        let engine = self.served.engine.sharded();
        let fragments = rec
            .probe("storage.fragments", handle, || {
                engine.latest_fragments(TABLE)
            })
            .expect("table exists");
        replay_eval(rec, Some(handle), &self.expr, fragments, totals);
    }

    fn ping(&mut self) -> Option<Duration> {
        ping(&mut self.client)
    }

    fn counters(&self) -> super::Counters {
        self.served.counters()
    }
}
