//! `wire_commit`: the same protocol and storage layers as the reads, used
//! for writes. One op is one explicit transaction — begin, put 8 new
//! members, delete the 8 oldest, commit — so the table stays at 5 000
//! members while every commit publishes a new version under the commit
//! lock.

use super::{expect_set, ping, walk, Counters, OpResult, ReplayTotals, Served, Workload, TABLE};
use crate::gen::{members, Keys, SplitMix64, Window};
use crate::spans::{Recorder, SpanId};
use crate::spec::COMMIT_MEMBERS;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xst_client::{Client, ClientError};
use xst_core::ExtendedSet;
use xst_server::{records_identity_to_set, set_to_records, Request, Response, Session};

pub struct WireCommit {
    served: Served,
    client: Client,
    window: Window,
    order: TsOrder,
    replay_session: Session,
    probe_session: Session,
}

/// The op, as a client issues it: four round trips.
fn client_txn(
    client: &mut Client,
    put: &ExtendedSet,
    delete: &ExtendedSet,
) -> Result<u64, ClientError> {
    client.begin()?;
    client.put(TABLE, put)?;
    client.delete(TABLE, delete)?;
    client.commit()
}

/// The op, as the requests that cross the wire.
fn txn_requests(put: ExtendedSet, delete: ExtendedSet) -> [Request; 4] {
    [
        Request::Begin,
        Request::Put {
            table: TABLE.to_string(),
            set: put,
        },
        Request::Delete {
            table: TABLE.to_string(),
            set: delete,
        },
        Request::Commit,
    ]
}

impl WireCommit {
    pub fn new(seed: u64) -> WireCommit {
        let keys = Keys::new(&mut SplitMix64::new(seed));
        let window = Window::new(keys, COMMIT_MEMBERS);
        let served = Served::start();
        let mut client = served.connect();
        let loaded = client
            .put(TABLE, &members(window.live_keys()))
            .expect("load the table in one autocommit");
        let replay_session = Session::new(Arc::clone(&served.engine));
        let probe_session = Session::new(Arc::clone(&served.engine));
        WireCommit {
            served,
            client,
            window,
            order: TsOrder(loaded.autocommit_ts.unwrap_or(0)),
            replay_session,
            probe_session,
        }
    }

    fn next_txn(&mut self) -> (ExtendedSet, ExtendedSet) {
        let (put, delete) = self.window.slide();
        (members(put), members(delete))
    }
}

/// Every commit timestamp must exceed the one before it, whichever path
/// (socket, replay, probe) committed.
struct TsOrder(u64);

impl TsOrder {
    fn advance(&mut self, ts: u64) -> Result<(), String> {
        let before = std::mem::replace(&mut self.0, ts);
        if ts > before {
            Ok(())
        } else {
            Err(format!("commit ts {ts} does not follow {before}"))
        }
    }

    fn advance_on(&mut self, resp: &Response) {
        match resp {
            Response::Committed { ts } => self.advance(*ts).expect("replayed commit is ordered"),
            other => panic!("replayed commit answered {other:?}"),
        }
    }
}

impl Workload for WireCommit {
    fn op(&mut self, rec: &mut Recorder) -> OpResult {
        let (put, delete) = self.next_txn();
        let span = rec.enter("client.op");
        let start = Instant::now();
        let committed = client_txn(&mut self.client, &put, &delete);
        let nanos = start.elapsed().as_nanos() as u64;
        rec.exit(span);
        if committed.is_err() {
            let _ = self.client.abort(); // leave the session usable
        }
        let outcome = committed
            .map_err(|e| e.to_string())
            .and_then(|ts| self.order.advance(ts));
        OpResult::checked(nanos, outcome)
    }

    /// Three more transactions of the same shape on the same engine, one
    /// after the other (interleaving them would make them conflict):
    /// walked through `serve_one`, dispatched bare through `handle`, and
    /// staged directly on a `ShardedTxn`.
    fn replay(&mut self, rec: &mut Recorder, totals: &mut ReplayTotals) {
        let (put, delete) = self.next_txn();
        let serve_ones: Vec<SpanId> = txn_requests(put, delete)
            .iter()
            .map(|req| {
                let walked = walk(rec, &mut self.replay_session, req, totals);
                if matches!(req, Request::Commit) {
                    self.order.advance_on(&walked.resp);
                }
                walked.serve_one
            })
            .collect();

        let (put, delete) = self.next_txn();
        let mut handles: Vec<SpanId> = Vec::new();
        for (req, serve_one) in txn_requests(put, delete).into_iter().zip(serve_ones) {
            let is_commit = matches!(req, Request::Commit);
            let session = &mut self.probe_session;
            let resp = rec.probe("session.handle", serve_one, || session.handle(req));
            handles.push(rec.last());
            if is_commit {
                self.order.advance_on(&resp);
            }
        }

        let (put, delete) = self.next_txn();
        let mut txn = self.served.engine.sharded().begin();
        for row in set_to_records(&put) {
            rec.probe("storage.insert", handles[1], || txn.insert(TABLE, row))
                .expect("stage an insert");
        }
        for row in set_to_records(&delete) {
            rec.probe("storage.delete", handles[2], || txn.delete(TABLE, row))
                .expect("stage a delete");
        }
        let ts = rec
            .probe("storage.commit", handles[3], || txn.commit())
            .expect("in-process commit");
        self.order
            .advance(ts)
            .expect("in-process commit is ordered");
    }

    fn ping(&mut self) -> Option<Duration> {
        ping(&mut self.client)
    }

    fn counters(&self) -> Counters {
        self.served.counters()
    }

    fn finish(&mut self) -> Result<(), String> {
        let identity = self.client.get(TABLE).map_err(|e| e.to_string())?;
        expect_set(
            "final table",
            &records_identity_to_set(&identity)?,
            &members(self.window.live_keys()),
        )
    }
}
