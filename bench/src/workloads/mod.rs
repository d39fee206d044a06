//! The five workloads, and what they share: the op contract the harness
//! drives, the in-process server fixture, and the by-hand walk of one
//! request through the layers' public functions.

mod cluster;
mod commit;
mod inproc;
mod read;

use crate::spans::{Recorder, SpanId};
use std::sync::Arc;
use std::time::Duration;
use xst_client::Client;
use xst_core::ops::Parallelism;
use xst_core::parse::parse_set;
use xst_core::ExtendedSet;
use xst_query::{check, eval_sharded, merge_bindings, EvalStats, Expr};
use xst_server::{
    encode_frame, read_frame, Request, Response, ServedEngine, Server, ServerConfig, Session,
};

/// What one closed-loop op reports back to the harness.
pub struct OpResult {
    /// Client-observed latency: the time the caller spent waiting, with
    /// input generation and the oracle check outside it.
    pub nanos: u64,
    /// The op returned an error, timed out, or failed its output check.
    pub failed: bool,
    /// The op's result was compared with the oracle.
    pub checked: bool,
}

impl OpResult {
    /// An op whose outcome was checked: `Err` (transport, remote, or a
    /// mismatch with the oracle) is a failure.
    fn checked(nanos: u64, outcome: Result<(), String>) -> OpResult {
        if let Err(why) = &outcome {
            eprintln!("op failed: {why}");
        }
        OpResult {
            nanos,
            failed: outcome.is_err(),
            checked: true,
        }
    }
}

/// Monotone storage-side counts, read between fixed-op phases so their
/// deltas repeat exactly.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub wal_bytes: u64,
    pub page_writes: u64,
    pub versions: u64,
    pub decision_log_bytes: u64,
    pub decisions: u64,
}

/// What the evaluator reported for one replayed eval.
pub struct EvalSample {
    pub op_ns: [u64; 8],
    pub kernel_ns: u64,
    pub eval_ns: u64,
    pub nodes: u64,
    /// Operand cardinalities plus intermediate members.
    pub examined: u64,
    pub result: u64,
}

impl EvalSample {
    fn new(stats: &EvalStats, eval_ns: u64, operand_cards: u64) -> EvalSample {
        EvalSample {
            op_ns: std::array::from_fn(|k| stats.per_op[k].wall_nanos),
            kernel_ns: stats.total_wall_nanos(),
            eval_ns,
            nodes: stats.nodes,
            examined: operand_cards + stats.intermediate_members,
            result: stats.result_members,
        }
    }
}

/// Exact counts and evaluator reports gathered while ops are replayed.
#[derive(Default)]
pub struct ReplayTotals {
    pub req_bytes: u64,
    pub resp_bytes: u64,
    /// Encoded `FragRead` replies (cluster only).
    pub frag_bytes: u64,
    pub evals: Vec<EvalSample>,
}

pub trait Workload {
    /// One op on the real path, its timed part under a `client.op` span
    /// (and, where the op is several public calls, one child span each).
    fn op(&mut self, rec: &mut Recorder) -> OpResult;

    /// The same op decomposed: walked by hand through the layers' public
    /// functions on the same engine, one span per call under the open
    /// `replay` span, leaf calls re-run as probes.
    fn replay(&mut self, rec: &mut Recorder, totals: &mut ReplayTotals);

    /// One `Client::ping` round trip — the floor of any wire op.
    fn ping(&mut self) -> Option<Duration> {
        None
    }

    fn counters(&self) -> Counters {
        Counters::default()
    }

    /// After the last op: does the program's final state equal the
    /// generator's model?
    fn finish(&mut self) -> Result<(), String> {
        Ok(())
    }
}

/// Set a workload up from nothing: start servers, load tables, connect.
/// This is what `setup_s` times.
pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "wire_scan" => Box::new(read::WireRead::scan(seed)),
        "wire_point" => Box::new(read::WireRead::point(seed)),
        "wire_commit" => Box::new(commit::WireCommit::new(seed)),
        "cluster_rw" => Box::new(cluster::ClusterRw::new(seed)),
        "inproc_plan" => Box::new(inproc::InprocPlan::new(seed)),
        _ => return None,
    })
}

/// A stalled server surfaces as a failed op, not a hung benchmark.
const OP_TIMEOUT: Duration = Duration::from_secs(30);

/// One in-process server on an ephemeral loopback port over a fresh
/// engine (simulated in-memory disk and WAL). Dropping it stops the
/// server and joins its threads.
struct Served {
    engine: Arc<ServedEngine>,
    server: Server,
}

impl Served {
    fn start() -> Served {
        let engine = Arc::new(ServedEngine::new());
        let server = Server::start(Arc::clone(&engine), "127.0.0.1:0", ServerConfig::default())
            .expect("bind an ephemeral loopback port");
        Served { engine, server }
    }

    fn addr(&self) -> String {
        self.server.addr().to_string()
    }

    fn connect(&self) -> Client {
        Client::connect_with_timeout(&self.addr(), "xst-reqbench", Some(OP_TIMEOUT))
            .expect("connect to the in-process server")
    }

    fn counters(&self) -> Counters {
        Counters {
            wal_bytes: self.engine.wal().len() as u64,
            page_writes: self.engine.storage().stats().disk_writes,
            versions: self.engine.mgr().version_count(TABLE).unwrap_or(0) as u64,
            ..Counters::default()
        }
    }
}

/// Every workload's one table.
const TABLE: &str = "t";

fn ping(client: &mut Client) -> Option<Duration> {
    let start = std::time::Instant::now();
    client.ping().ok()?;
    Some(start.elapsed())
}

/// The spans of one walked request that probes attach to.
struct Walked {
    resp: Response,
    serve_one: SpanId,
}

/// Walk `req` through the request path by hand — every function the
/// client and server call between `Client::eval` and its return, minus
/// the socket: encode, frame, unframe (CRC), decode, `serve_one`, and the
/// same five steps back. A `Value` reply's text codec is then re-run as
/// `core.display` / `core.parse_set` probes under the proto spans, which
/// gives the share of `proto.*` that is the value codec.
fn walk(
    rec: &mut Recorder,
    session: &mut Session,
    req: &Request,
    totals: &mut ReplayTotals,
) -> Walked {
    let payload = rec.leaf("proto.req_encode", || req.encode());
    let frame = rec
        .leaf("wire.frame_encode", || encode_frame(&payload))
        .expect("request fits a frame");
    totals.req_bytes += frame.len() as u64;
    let payload = rec
        .leaf("wire.frame_decode", || read_frame(&mut frame.as_slice()))
        .expect("own frame reads back");
    let decoded = rec
        .leaf("proto.req_decode", || Request::decode(&payload))
        .expect("own request decodes");
    let resp = rec.leaf("session.serve_one", || session.serve_one(decoded));
    let serve_one = rec.last();
    let payload = rec.leaf("proto.resp_encode", || resp.encode());
    let resp_encode = rec.last();
    let frame = rec
        .leaf("wire.frame_encode", || encode_frame(&payload))
        .expect("response fits a frame");
    totals.resp_bytes += frame.len() as u64;
    let payload = rec
        .leaf("wire.frame_decode", || read_frame(&mut frame.as_slice()))
        .expect("own frame reads back");
    let back = rec
        .leaf("proto.resp_decode", || Response::decode(&payload))
        .expect("own response decodes");
    let resp_decode = rec.last();
    assert_eq!(back, resp, "response changed across its own codec");
    if let Response::Value { set } = &resp {
        let text = rec.probe("core.display", resp_encode, || set.to_string());
        rec.probe("core.parse_set", resp_decode, || parse_set(&text))
            .expect("canonical text parses");
    }
    Walked { resp, serve_one }
}

/// Evaluate `expr` over a table's per-shard `fragments` the way
/// `Session::eval` and `Coordinator::eval` both do — `eval_sharded`, which
/// gathers the fragments and runs the gate itself — then re-run those two
/// inner steps as probes under it. The evaluation is a probe under `parent`
/// when it re-runs a call that span made, else a step of the open span.
fn replay_eval(
    rec: &mut Recorder,
    parent: Option<SpanId>,
    expr: &Expr,
    fragments: Vec<ExtendedSet>,
    totals: &mut ReplayTotals,
) {
    let operand_cards: u64 = fragments.iter().map(|f| f.card() as u64).sum();
    let sharded = [(TABLE.to_string(), fragments)].into_iter().collect();
    let par = Parallelism::sequential();
    let run = || eval_sharded(expr, &sharded, &par);
    let (_, stats) = match parent {
        Some(parent) => rec.probe("query.eval", parent, run),
        None => rec.leaf("query.eval", run),
    }
    .expect("plan evaluates");
    let eval = rec.last();
    let eval_ns = rec.spans()[eval].nanos();
    totals
        .evals
        .push(EvalSample::new(&stats, eval_ns, operand_cards));
    let merged = rec.probe("query.merge_bindings", eval, || merge_bindings(&sharded));
    rec.probe("analyze.gate", eval, || check(expr, &merged));
}

/// Compare a reply with the oracle's copy.
fn expect_set(what: &str, got: &ExtendedSet, want: &ExtendedSet) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{what}: got {} members, oracle has {}",
            got.card(),
            want.card()
        ))
    }
}
