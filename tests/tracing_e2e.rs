//! End-to-end distributed tracing and per-request accounting, over real
//! TCP.
//!
//! The contract under test: a client that originates a trace wraps its
//! requests in `Traced{ctx, ..}`; the serving session adopts the
//! context, so every server-side span —
//! `session.request` down through `query.eval`, `txn.*`, `wal.*` —
//! stitches under the *client's* trace id, parented under the client's
//! span. The batteries here:
//!
//! * one wire request ⇒ one stitched trace (client + server spans share
//!   a trace id, with correct parentage), exportable as xst-trace/1
//!   JSON through the `TraceDump` request;
//! * per-request cost accounting: the server's request log attributes
//!   WAL appends and plan nodes to the exact request that caused them;
//! * a hand-rolled peer's `Traced` wrapper is adopted verbatim, and a
//!   client that opts out sends plain requests the server still spans.
//!
//! Client and server share this process, hence one span collector: the
//! stitched forest is directly inspectable without log shipping.

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;
use xst_client::Client;
use xst_core::xset;
use xst_query::Expr;
use xst_server::{Request, Response, ServedEngine, Server, ServerConfig};

/// One test at a time: the span collector and request log are
/// process-global, and each test clears them.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    xst_obs::enable();
    xst_obs::collector().clear();
    xst_obs::request_log().clear();
    guard
}

fn start_server() -> (Server, String) {
    let engine = std::sync::Arc::new(ServedEngine::new());
    let server = Server::start(engine, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();
    (server, addr)
}

fn connect(addr: &str) -> Client {
    let c = Client::connect(addr, "tracing-e2e").unwrap();
    c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    c
}

#[test]
fn one_wire_request_yields_one_stitched_trace() {
    let _guard = serial();
    let (_server, addr) = start_server();
    let mut client = connect(&addr);

    let set = client
        .eval(&Expr::lit(xset! {"a", "b"}).union(Expr::lit(xset! {"c"})))
        .unwrap();
    assert_eq!(set.card(), 3);

    let spans = xst_obs::collector().take_spans();
    let client_span = spans
        .iter()
        .find(|s| s.name == "client.request")
        .expect("client span recorded");
    let session_span = spans
        .iter()
        .find(|s| s.name == "session.request")
        .expect("server span recorded");
    // One trace id spans the wire...
    assert_ne!(client_span.trace_id, 0);
    assert_eq!(client_span.trace_id, session_span.trace_id);
    // ...with the server's root parented under the client's span.
    assert_eq!(session_span.parent, Some(client_span.id));
    // The engine's own spans sit inside the same trace.
    let eval_span = spans
        .iter()
        .find(|s| s.name == "query.eval")
        .expect("query span recorded");
    assert_eq!(eval_span.trace_id, client_span.trace_id);
}

#[test]
fn trace_dump_exports_the_stitched_forest_as_json() {
    let _guard = serial();
    let (_server, addr) = start_server();
    let mut client = connect(&addr);

    client.eval(&Expr::lit(xset! {"x"})).unwrap();
    let json = client.trace_dump().unwrap();
    assert!(json.contains("\"schema\":\"xst-trace/1\""), "{json}");
    assert!(json.contains("\"name\":\"client.request\""), "{json}");
    assert!(json.contains("\"name\":\"session.request\""), "{json}");

    // Both ends carry the same 0x-prefixed trace id, exactly once each
    // side of the wire: grep for a trace id that tags a client span and
    // a session span alike.
    let spans = xst_obs::collector().take_spans();
    let client_span = spans.iter().find(|s| s.name == "client.request").unwrap();
    let wanted = format!("\"trace_id\":\"{:#018x}\"", client_span.trace_id);
    assert!(json.contains(&wanted), "{wanted} missing from {json}");
}

#[test]
fn request_log_attributes_costs_to_requests() {
    let _guard = serial();
    let (_server, addr) = start_server();
    let mut client = connect(&addr);

    // An autocommitted put appends to the WAL; an eval burns plan nodes.
    client.put("t", &xset! {"p", "q", "r"}).unwrap();
    client
        .eval(&Expr::table("t").union(Expr::lit(xset! {"s"})))
        .unwrap();

    let table = client.request_log(false, 100).unwrap();
    assert!(table.contains("put(t)"), "{table}");
    assert!(table.contains("eval"), "{table}");
    // The put's cost bill charges the WAL work to that request.
    let put_line = table
        .lines()
        .find(|l| l.contains("put(t)"))
        .expect("put line present");
    assert!(put_line.contains("wal="), "{put_line}");
    // The eval's bill charges plan nodes and result rows.
    let eval_line = table
        .lines()
        .find(|l| l.contains(" eval "))
        .expect("eval line present");
    assert!(eval_line.contains("nodes="), "{eval_line}");
    assert!(eval_line.contains("rows="), "{eval_line}");

    // The slow ring stays empty while the threshold is disarmed.
    let slow = client.request_log(true, 100).unwrap();
    assert!(slow.contains("(no requests recorded)"), "{slow}");
}

#[test]
fn hand_rolled_traced_request_is_adopted_verbatim() {
    let _guard = serial();
    let (_server, addr) = start_server();

    let mut raw = std::net::TcpStream::connect(&addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let hello = Request::Hello {
        version: xst_server::PROTO_VERSION,
        client: "hand-rolled".into(),
    };
    xst_server::write_frame(&mut raw, &hello.encode()).unwrap();
    xst_server::read_frame(&mut raw).unwrap();

    let ctx = xst_obs::TraceContext {
        trace_id: 0xDEAD_BEEF_CAFE_F00D,
        parent_span: 41,
    };
    let wrapped = Request::Traced {
        ctx,
        req: Box::new(Request::Ping),
    };
    xst_server::write_frame(&mut raw, &wrapped.encode()).unwrap();
    let payload = xst_server::read_frame(&mut raw).unwrap();
    assert!(matches!(
        Response::decode(&payload).unwrap(),
        Response::Pong
    ));

    let spans = xst_obs::collector().take_spans();
    let session_span = spans
        .iter()
        .find(|s| s.name == "session.request" && s.trace_id == ctx.trace_id)
        .expect("session adopted the remote context");
    assert_eq!(session_span.parent, Some(ctx.parent_span));
}

#[test]
fn client_tracing_opt_out_sends_plain_requests() {
    let _guard = serial();
    let (_server, addr) = start_server();
    let mut client = connect(&addr);
    client.set_tracing(false);

    client.eval(&Expr::lit(xset! {"quiet"})).unwrap();
    let spans = xst_obs::collector().take_spans();
    // No client-side span, and the server minted its own root trace.
    assert!(!spans.iter().any(|s| s.name == "client.request"));
    let session_span = spans
        .iter()
        .find(|s| s.name == "session.request")
        .expect("server still accounts the request");
    assert_eq!(session_span.parent, None);
}
