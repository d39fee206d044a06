//! The same op script through every door, against one model.
//!
//! A [`Door`] answers one [`Request`] with one [`Response`]; the
//! in-process [`Session`], the wire [`Client`] and the cluster
//! [`Coordinator`] — itself over any doors — are the three. One
//! deterministic script — explicit
//! transactions and autocommits of put/delete over two tables, reads,
//! `t ∪ u` / `t ∩ u` / `t ∖ u`, commits, aborts and the refusals every
//! door must word the same way — runs through one driver against each
//! deployment and is compared, step by step, with an in-memory model:
//! same kind of answer, same [`ErrorCode`] on a refusal, same member set
//! on every read, same tables at the end.
//!
//! Nothing here reads a clock: the only deadline is the 5 s RPC timeout
//! on the sockets, which no step comes near.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;
use xst_client::coord::Coordinator;
use xst_client::Client;
use xst_core::ops::{difference, intersection, union};
use xst_core::{ExtendedSet, SetBuilder, Value};
use xst_query::Expr;
use xst_server::{
    records_identity_to_set, Door, ErrorCode, Request, Response, ServedEngine, Session,
};
use xst_testkit::cluster::start_shard_servers;

const RPC_TIMEOUT: Option<Duration> = Some(Duration::from_secs(5));

/// An answer, reduced to what a model can predict (no ids, no
/// timestamps).
#[derive(Debug, PartialEq)]
enum Seen {
    Begun,
    Committed,
    Aborted,
    Applied { rows: u64, autocommitted: bool },
    Members(ExtendedSet),
    Refused(ErrorCode),
}

/// The store as one session sees it: the committed tables plus, inside a
/// transaction, a working copy the writes go to.
#[derive(Default)]
struct Model {
    tables: BTreeMap<String, ExtendedSet>,
    staged: Option<BTreeMap<String, ExtendedSet>>,
}

impl Model {
    fn view(&mut self) -> &mut BTreeMap<String, ExtendedSet> {
        self.staged.as_mut().unwrap_or(&mut self.tables)
    }

    fn write(&mut self, table: &str, set: &ExtendedSet, delete: bool) -> Seen {
        if !delete {
            // A put registers its table at once, outside the transaction:
            // the catalog entry survives an abort (empty).
            self.tables.entry(table.to_string()).or_default();
            self.view().entry(table.to_string()).or_default();
        }
        let autocommitted = self.staged.is_none();
        let Some(current) = self.view().get_mut(table) else {
            return Seen::Refused(ErrorCode::Storage);
        };
        *current = match delete {
            false => union(current, set),
            true => difference(current, set),
        };
        Seen::Applied {
            rows: set.card() as u64,
            autocommitted,
        }
    }

    fn eval(&mut self, expr: &Expr) -> Result<ExtendedSet, ErrorCode> {
        Ok(match expr {
            // An unbound table is the analysis gate's to report.
            Expr::Table(name) => (self.view().get(name).cloned()).ok_or(ErrorCode::Analysis)?,
            Expr::Union(a, b) => union(&self.eval(a)?, &self.eval(b)?),
            Expr::Intersect(a, b) => intersection(&self.eval(a)?, &self.eval(b)?),
            Expr::Difference(a, b) => difference(&self.eval(a)?, &self.eval(b)?),
            other => panic!("the script evaluates tables only, not {other}"),
        })
    }

    fn answer(&mut self, req: &Request) -> Seen {
        let members = |read: Result<ExtendedSet, ErrorCode>| match read {
            Ok(set) => Seen::Members(set),
            Err(code) => Seen::Refused(code),
        };
        match req {
            Request::Begin if self.staged.is_some() => Seen::Refused(ErrorCode::TxnState),
            Request::Begin => {
                self.staged = Some(self.tables.clone());
                Seen::Begun
            }
            Request::Commit | Request::Abort => match self.staged.take() {
                None => Seen::Refused(ErrorCode::TxnState),
                Some(_) if matches!(req, Request::Abort) => Seen::Aborted,
                Some(tables) => {
                    self.tables = tables;
                    Seen::Committed
                }
            },
            Request::Put { table, set } => self.write(table, set, false),
            Request::Delete { table, set } => self.write(table, set, true),
            Request::Get { table } | Request::FragRead { table } => {
                members(self.view().get(table).cloned().ok_or(ErrorCode::Storage))
            }
            Request::Eval { expr } => members(self.eval(expr)),
            other => panic!("not a scripted verb: {other:?}"),
        }
    }
}

/// Put `req` to `door` and reduce its answer. `row_tuples` marks the
/// doors whose `Get`/`Eval` answer the row-tuple identity
/// `{⟨element, scope⟩}` rather than the member set — ROADMAP item 3, still
/// open: a session (and so a client) reads a table that way, the
/// coordinator does not. `FragRead` is the member set through every door.
fn observe<D: Door>(door: &mut D, row_tuples: bool, req: Request) -> Seen {
    let row_tuples = row_tuples && matches!(req, Request::Get { .. } | Request::Eval { .. });
    match door.call(req).expect("the door itself must not fail") {
        Response::TxnBegun { .. } => Seen::Begun,
        Response::Committed { .. } => Seen::Committed,
        Response::Aborted => Seen::Aborted,
        Response::Applied {
            rows,
            autocommit_ts,
        } => Seen::Applied {
            rows,
            autocommitted: autocommit_ts.is_some(),
        },
        Response::Value { set } if row_tuples => {
            Seen::Members(records_identity_to_set(&set).expect("rows are element/scope pairs"))
        }
        Response::Value { set } => Seen::Members(set),
        Response::Error(e) => Seen::Refused(e.code),
        other => panic!("no scripted verb is answered with {other:?}"),
    }
}

/// The script: the refusals every door must give the same code, then 240
/// seeded steps over tables `t` and `u`.
fn script() -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(1977);
    let members = |rng: &mut StdRng| {
        let mut b = SetBuilder::new();
        for _ in 0..rng.gen_range(1..5) {
            b.scoped(
                Value::Int(rng.gen_range(0..12)),
                Value::Int(rng.gen_range(0..3)),
            );
        }
        b.build()
    };
    let name = |rng: &mut StdRng| ["t", "u"][rng.gen_range(0..2usize)].to_string();
    let ghost = || "nope".to_string();
    let mut steps = vec![
        Request::Commit, // commit without begin
        Request::Put {
            table: "t".into(),
            set: members(&mut rng),
        },
        Request::Put {
            table: "u".into(),
            set: members(&mut rng),
        },
        Request::Begin,
        Request::Begin, // double begin
        Request::Eval {
            expr: Expr::table("t").union(Expr::table("nope")), // unbound table
        },
        Request::FragRead { table: ghost() }, // unknown table
        Request::Get { table: ghost() },
        Request::Abort,
        Request::Abort, // abort without begin
    ];
    for _ in 0..240 {
        let table = name(&mut rng);
        steps.push(match rng.gen_range(0..15) {
            0 | 1 => Request::Begin,
            2 => Request::Commit,
            3 => Request::Abort,
            4..=6 => Request::Put {
                table,
                set: members(&mut rng),
            },
            7 | 8 => Request::Delete {
                table,
                set: members(&mut rng),
            },
            9 => Request::FragRead { table },
            10 => Request::Get { table },
            op => {
                let (a, b) = (Expr::table(table), Expr::table(name(&mut rng)));
                Request::Eval {
                    expr: match op {
                        11 => a.union(b),
                        12 => a.intersect(b),
                        _ => a.difference(b),
                    },
                }
            }
        });
    }
    steps
}

/// The one driver: every step through `door`, every answer against the
/// model, then the final tables.
fn drive<D: Door>(door: &mut D, row_tuples: bool) {
    let mut model = Model::default();
    let steps = script();
    assert!(steps.len() >= 200);
    for (i, req) in steps.into_iter().enumerate() {
        let want = model.answer(&req);
        let what = format!("step {i}: {req:?}");
        assert_eq!(observe(door, row_tuples, req), want, "{what}");
    }
    if model.staged.take().is_some() {
        assert_eq!(observe(door, row_tuples, Request::Abort), Seen::Aborted);
    }
    for (table, want) in model.tables {
        let read = Request::FragRead { table };
        assert_eq!(observe(door, row_tuples, read), Seen::Members(want));
    }
}

#[test]
fn session_door_over_one_shard_agrees_with_the_model() {
    drive(&mut Session::new(Arc::new(ServedEngine::new())), true);
}

#[test]
fn session_door_over_three_shards_agrees_with_the_model() {
    let engine = Arc::new(ServedEngine::with_shards(3));
    drive(&mut Session::new(engine), true);
}

#[test]
fn client_door_over_a_server_agrees_with_the_model() {
    let server = start_shard_servers(1);
    let mut client =
        Client::connect_with_timeout(&server.addrs[0], "door-model", RPC_TIMEOUT).expect("dial");
    drive(&mut client, true);
}

#[test]
fn coordinator_door_over_two_servers_agrees_with_the_model() {
    let cluster = start_shard_servers(2);
    let mut coord = Coordinator::connect(&cluster.addrs, RPC_TIMEOUT).expect("dial the shards");
    drive(&mut coord, false);
}

#[test]
fn coordinator_door_over_two_sessions_agrees_with_the_model() {
    let shard = || Session::new(Arc::new(ServedEngine::new()));
    drive(&mut Coordinator::over(vec![shard(), shard()]), false);
}
