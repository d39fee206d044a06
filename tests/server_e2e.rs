//! The end-to-end network battery: many real clients, one served engine,
//! over real TCP.
//!
//! Everything here drives the server the way production would — through
//! `xst-client` over a socket — and asserts the engine's standing
//! contracts hold *across the wire*:
//!
//! * snapshot isolation with first-committer-wins, visible as a typed
//!   `TxnConflict` error code;
//! * read-your-own-writes per session, invisibility across sessions;
//! * results byte-identical to in-process `eval_parallel` on the same
//!   plans and bindings;
//! * abort-on-disconnect: a dead client's transaction releases its
//!   snapshot (checked on the manager and on the `xst_txn_active` gauge);
//! * connection-cap overflow rejected with a typed error and counted;
//! * and the crash sweep: with the deterministic fault plan armed *over
//!   the wire*, a commit acknowledged over the wire is recoverable and
//!   an unacknowledged one is atomically absent — at every fault site.
//!
//! Tests serialize on one lock: the metric registry is process-global,
//! and a network battery on one CPU is more deterministic run one test
//! at a time.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};
use xst_client::{Client, ClientError};
use xst_core::ops::Parallelism;
use xst_core::{xset, ExtendedSet};
use xst_query::{eval_parallel, Bindings, Expr};
use xst_server::{
    member_schema, records_identity_to_set, ErrorCode, Request, Response, ServedEngine, Server,
    ServerConfig,
};
use xst_storage::{FaultKind, FaultPlan, FaultSchedule};

/// One test at a time: the obs registry is global, and gauge assertions
/// would race across tests otherwise.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    xst_obs::enable();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

fn start_server(config: ServerConfig) -> (Server, Arc<ServedEngine>, String) {
    let engine = Arc::new(ServedEngine::new());
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0", config).unwrap();
    let addr = server.addr().to_string();
    (server, engine, addr)
}

fn connect(addr: &str, name: &str) -> Client {
    let c = Client::connect(addr, name).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    c
}

/// Spin until `cond` holds or the deadline passes.
fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

// ---------------------------------------------------------------------------
// The concurrent-client battery.
// ---------------------------------------------------------------------------

/// ≥ 8 concurrent clients, mixed workloads: per-client private tables
/// with autocommit round-trips and wire-vs-in-process eval equality,
/// plus an all-clients conflict race on one shared record.
#[test]
fn eight_concurrent_clients_mixed_workloads() {
    let _guard = serial();
    const CLIENTS: usize = 8;
    let (server, engine, addr) = start_server(ServerConfig::default());
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let commits = Arc::new(AtomicUsize::new(0));
    let conflicts = Arc::new(AtomicUsize::new(0));

    let mut threads = Vec::new();
    for i in 0..CLIENTS {
        let addr = addr.clone();
        let barrier = Arc::clone(&barrier);
        let commits = Arc::clone(&commits);
        let conflicts = Arc::clone(&conflicts);
        threads.push(std::thread::spawn(move || {
            let mut c = connect(&addr, &format!("worker-{i}"));
            // Private-table workload: autocommit put, RYOW get, and a
            // wire eval that must match a locally computed expectation.
            let table = format!("t{i}");
            let mine = ExtendedSet::classical([i as i64, i as i64 + 100]);
            let applied = c.put(&table, &mine).unwrap();
            assert_eq!(applied.rows, 2);
            assert!(applied.autocommit_ts.is_some());
            let got = records_identity_to_set(&c.get(&table).unwrap()).unwrap();
            assert_eq!(got, mine, "client {i}: get must round-trip its put");

            // The conflict race: everyone writes the SAME record inside
            // explicit transactions whose snapshots all predate any
            // commit (the barrier sits between begin and commit).
            c.begin().unwrap();
            c.put("shared", &xset![0]).unwrap();
            barrier.wait();
            match c.commit() {
                Ok(_) => {
                    commits.fetch_add(1, Ordering::SeqCst);
                }
                Err(e) => {
                    assert!(
                        e.is_conflict(),
                        "client {i}: loss must be a typed TxnConflict, got {e}"
                    );
                    conflicts.fetch_add(1, Ordering::SeqCst);
                }
            }

            // Post-race eval through the same session.
            let expr = Expr::table(&table).union(Expr::table("shared"));
            c.eval(&expr).unwrap()
        }));
    }
    let results: Vec<ExtendedSet> = threads.into_iter().map(|t| t.join().unwrap()).collect();

    // First committer wins: exactly one of the eight identical writes
    // committed; every other loss surfaced as a typed conflict.
    assert_eq!(commits.load(Ordering::SeqCst), 1, "exactly one winner");
    assert_eq!(conflicts.load(Ordering::SeqCst), CLIENTS - 1);

    // Byte-identical results: re-run every plan in-process against the
    // same engine's latest commits.
    for (i, wire_result) in results.iter().enumerate() {
        let table = format!("t{i}");
        let expr = Expr::table(&table).union(Expr::table("shared"));
        let mut b = Bindings::new();
        for name in [table.as_str(), "shared"] {
            b.insert(
                name.to_string(),
                (*engine.mgr().latest_identity(name).unwrap()).clone(),
            );
        }
        let (local, _) = eval_parallel(&expr, &b, &Parallelism::sequential()).unwrap();
        assert_eq!(wire_result, &local, "client {i} result identity");
        assert_eq!(
            wire_result.to_string(),
            local.to_string(),
            "client {i} result display bytes"
        );
    }
    drop(server);
}

#[test]
fn ryow_within_a_session_invisible_across_sessions() {
    let _guard = serial();
    let (_server, _engine, addr) = start_server(ServerConfig::default());
    let mut a = connect(&addr, "a");
    let mut b = connect(&addr, "b");

    a.begin().unwrap();
    a.put("t", &xset![7]).unwrap();
    // A reads its own buffered write...
    let a_sees = records_identity_to_set(&a.get("t").unwrap()).unwrap();
    assert_eq!(a_sees, xset![7]);
    // ...B sees the table as absent or empty until A commits.
    match b.get("t") {
        Err(ClientError::Remote(e)) => assert_eq!(e.code, ErrorCode::Storage),
        Ok(identity) => assert!(identity.is_empty()),
        Err(e) => unreachable!("unexpected failure: {e}"),
    }
    // Eval agrees with get on both sides of the commit.
    let expr = Expr::table("t");
    assert_eq!(a.eval(&expr).unwrap().card(), 1);
    a.commit().unwrap();
    let b_sees = records_identity_to_set(&b.get("t").unwrap()).unwrap();
    assert_eq!(b_sees, xset![7]);
}

#[test]
fn snapshot_stability_under_a_concurrent_commit() {
    let _guard = serial();
    let (_server, _engine, addr) = start_server(ServerConfig::default());
    let mut reader = connect(&addr, "reader");
    let mut writer = connect(&addr, "writer");

    writer.put("t", &xset![1]).unwrap();
    reader.begin().unwrap();
    let before = reader.eval(&Expr::table("t")).unwrap();
    // A foreign commit lands while the reader's snapshot is open.
    writer.put("t", &xset![2]).unwrap();
    let after = reader.eval(&Expr::table("t")).unwrap();
    assert_eq!(
        before.to_string(),
        after.to_string(),
        "an open snapshot must not move under a foreign commit"
    );
    reader.commit().unwrap();
    // A fresh read sees both writes.
    let latest = records_identity_to_set(&reader.get("t").unwrap()).unwrap();
    assert_eq!(latest, xset![1, 2]);
}

// ---------------------------------------------------------------------------
// Session lifecycle.
// ---------------------------------------------------------------------------

#[test]
fn client_drop_mid_txn_aborts_and_releases_the_snapshot() {
    let _guard = serial();
    let (_server, engine, addr) = start_server(ServerConfig::default());
    let active_gauge = xst_obs::registry().gauge(
        xst_obs::names::TXN_ACTIVE,
        "Transactions currently open (each pins a snapshot identity).",
    );

    let mut c = connect(&addr, "doomed");
    c.begin().unwrap();
    c.put("t", &xset![1]).unwrap();
    wait_for("txn to register", || engine.mgr().active_txns() == 1);
    assert_eq!(active_gauge.get(), 1.0, "gauge mirrors the open txn");

    // Kill the client mid-transaction: no commit, no abort, just a
    // vanished peer.
    drop(c);

    // The server must notice, abort the txn, and release its snapshot —
    // no version-chain pinning leak.
    wait_for("disconnect abort", || engine.mgr().active_txns() == 0);
    wait_for("gauge release", || active_gauge.get() == 0.0);
    // The aborted write is gone: the table never came into existence.
    let mut probe = connect(&addr, "probe");
    match probe.get("t") {
        Err(ClientError::Remote(e)) => assert_eq!(e.code, ErrorCode::Storage),
        Ok(identity) => assert!(identity.is_empty()),
        Err(e) => unreachable!("unexpected failure: {e}"),
    }
}

/// The `xst_txn_active` gauge must return exactly to baseline on EVERY
/// session exit path — commit, abort, a conflict-losing commit, a
/// vanished peer, and a server shutdown with sessions still open. Any
/// path that forgets its decrement drifts the gauge forever (it is
/// process-global), so each path gets its own connection here.
#[test]
fn txn_active_gauge_returns_to_zero_on_every_exit_path() {
    let _guard = serial();
    let (server, engine, addr) = start_server(ServerConfig::default());
    let active_gauge = xst_obs::registry().gauge(
        xst_obs::names::TXN_ACTIVE,
        "Transactions currently open (each pins a snapshot identity).",
    );
    let baseline = active_gauge.get();

    // Path 1: explicit commit.
    let mut c = connect(&addr, "committer");
    c.begin().unwrap();
    c.put("t", &xset![1]).unwrap();
    assert_eq!(active_gauge.get(), baseline + 1.0);
    c.commit().unwrap();
    assert_eq!(active_gauge.get(), baseline, "commit path leaked");

    // Path 2: explicit abort.
    c.begin().unwrap();
    c.put("t", &xset![2]).unwrap();
    c.abort().unwrap();
    assert_eq!(active_gauge.get(), baseline, "abort path leaked");

    // Path 3: a commit that LOSES first-committer-wins validation. The
    // loser's transaction is dead server-side; its gauge count must go
    // with it.
    let mut rival = connect(&addr, "rival");
    c.begin().unwrap();
    c.put("t", &xset![3]).unwrap();
    rival.begin().unwrap();
    rival.put("t", &xset![3]).unwrap();
    c.commit().unwrap();
    let e = rival.commit().unwrap_err();
    assert!(e.is_conflict(), "{e}");
    assert_eq!(active_gauge.get(), baseline, "conflict-loss path leaked");

    // Path 4: the peer vanishes mid-transaction.
    c.begin().unwrap();
    c.put("t", &xset![4]).unwrap();
    wait_for("txn registered", || active_gauge.get() == baseline + 1.0);
    drop(c);
    wait_for("disconnect released the gauge", || {
        active_gauge.get() == baseline
    });

    // Path 5: server shutdown with a session mid-transaction.
    let mut last = connect(&addr, "open-at-shutdown");
    last.begin().unwrap();
    last.put("t", &xset![5]).unwrap();
    wait_for("txn registered", || active_gauge.get() == baseline + 1.0);
    let mut server = server;
    server.stop();
    wait_for("shutdown released the gauge", || {
        active_gauge.get() == baseline
    });
    assert_eq!(engine.sharded().active_txns(), 0);
}

/// An N-shard engine opens one sub-transaction per shard for every
/// distributed transaction; the gauge (and begin/commit counters) must
/// count the DISTRIBUTED transaction once, not once per shard.
#[test]
fn sharded_engine_counts_one_distributed_txn_not_one_per_shard() {
    let _guard = serial();
    let engine = Arc::new(ServedEngine::with_shards(3));
    let server =
        Server::start(Arc::clone(&engine), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();
    let active_gauge = xst_obs::registry().gauge(
        xst_obs::names::TXN_ACTIVE,
        "Transactions currently open (each pins a snapshot identity).",
    );
    let baseline = active_gauge.get();

    let mut c = connect(&addr, "sharded");
    c.begin().unwrap();
    // Enough members to touch several shards.
    let spread = ExtendedSet::classical((0..32).collect::<Vec<i64>>());
    c.put("wide", &spread).unwrap();
    wait_for("one distributed txn on the gauge", || {
        active_gauge.get() == baseline + 1.0
    });
    assert_eq!(engine.sharded().active_txns(), 1);
    c.commit().unwrap();
    wait_for("distributed commit released the gauge", || {
        active_gauge.get() == baseline
    });
    // The committed members survive the scatter: gather returns them all.
    let got = records_identity_to_set(&c.get("wide").unwrap()).unwrap();
    assert_eq!(got, spread);
    // `.explain` profiles the scattered execution `eval` serves: the
    // intersect stays partitioned across all three shards.
    let probe = Expr::table("wide").intersect(Expr::lit(xset![3, 4]));
    let report = c.explain(&probe).unwrap();
    assert!(report.contains("parts=3"), "{report}");
    drop(c);
    drop(server);
}

/// Toggling the collector mid-transaction must not drift the gauge in
/// either direction: a txn begun while disabled never decrements, and a
/// txn begun while enabled decrements exactly once even if the collector
/// was toggled in between.
#[test]
fn txn_active_gauge_survives_collector_toggles() {
    let _guard = serial();
    let (_server, _engine, addr) = start_server(ServerConfig::default());
    let active_gauge = xst_obs::registry().gauge(
        xst_obs::names::TXN_ACTIVE,
        "Transactions currently open (each pins a snapshot identity).",
    );
    let baseline = active_gauge.get();

    // Begun disabled, released enabled: no decrement (would go negative).
    xst_obs::disable();
    let mut c = connect(&addr, "toggler");
    c.begin().unwrap();
    xst_obs::enable();
    c.abort().unwrap();
    assert_eq!(active_gauge.get(), baseline, "phantom decrement");

    // Begun enabled, released disabled-then-enabled: exactly one
    // decrement, applied when the txn actually ends.
    c.begin().unwrap();
    assert_eq!(active_gauge.get(), baseline + 1.0);
    xst_obs::disable();
    c.abort().unwrap();
    xst_obs::enable();
    assert_eq!(active_gauge.get(), baseline, "missed decrement");
}

#[test]
fn connection_cap_overflow_rejected_with_typed_error_and_counted() {
    let _guard = serial();
    let rejected_counter = xst_obs::registry().counter(
        xst_obs::names::SERVER_ADMISSION_REJECTED_TOTAL,
        "Connections rejected by admission control (cap and queue both full).",
    );
    let rejected_before = rejected_counter.get();

    let (_server, _engine, addr) = start_server(ServerConfig {
        max_sessions: 2,
        max_queued: 0,
        queue_wait: Duration::from_millis(100),
        banner: "capped".into(),
    });
    // Fill both slots.
    let _one = connect(&addr, "one");
    let _two = connect(&addr, "two");
    // The third must be rejected with the typed admission error.
    match Client::connect(&addr, "three") {
        Err(ClientError::Rejected(msg)) => {
            assert!(msg.contains("capacity"), "{msg}");
        }
        Err(e) => unreachable!("expected typed rejection, got error {e}"),
        Ok(_) => unreachable!("expected typed rejection, got admission"),
    }
    wait_for("rejection counted", || {
        rejected_counter.get() > rejected_before
    });

    // A freed slot re-admits: drop one session, retry.
    drop(_one);
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut readmitted = loop {
        match Client::connect(&addr, "retry") {
            Ok(c) => break c,
            Err(ClientError::Rejected(_)) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => unreachable!("retry failed: {e}"),
        }
    };
    readmitted.ping().unwrap();
}

#[test]
fn queued_connection_is_seated_when_a_slot_frees() {
    let _guard = serial();
    let (_server, _engine, addr) = start_server(ServerConfig {
        max_sessions: 1,
        max_queued: 4,
        queue_wait: Duration::from_secs(10),
        banner: "queued".into(),
    });
    let first = connect(&addr, "first");
    // The second connection parks in the admission queue; free the slot
    // shortly after and the queued connection must be admitted.
    let addr2 = addr.clone();
    let waiter = std::thread::spawn(move || {
        let mut c = connect(&addr2, "second");
        c.ping().unwrap();
    });
    std::thread::sleep(Duration::from_millis(100));
    drop(first);
    waiter.join().unwrap();
}

// ---------------------------------------------------------------------------
// Adversarial bytes against a live server.
// ---------------------------------------------------------------------------

#[test]
fn garbage_bytes_get_a_structured_protocol_error_not_a_crash() {
    use std::io::Write as _;
    let _guard = serial();
    let (_server, _engine, addr) = start_server(ServerConfig::default());

    // Raw garbage (bad magic): the server must answer with a structured
    // protocol error frame and close — and keep serving others.
    let mut raw = std::net::TcpStream::connect(&addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    raw.write_all(&[0xAAu8; 64]).unwrap();
    let payload = xst_server::read_frame(&mut raw).unwrap();
    match Response::decode(&payload).unwrap() {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::Protocol),
        other => unreachable!("expected protocol error, got {other:?}"),
    }

    // An oversize length header: same structured answer.
    let mut raw = std::net::TcpStream::connect(&addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut attack = Vec::new();
    attack.extend_from_slice(b"XSTP");
    attack.extend_from_slice(&u32::MAX.to_le_bytes());
    attack.extend_from_slice(&0u32.to_le_bytes());
    raw.write_all(&attack).unwrap();
    let payload = xst_server::read_frame(&mut raw).unwrap();
    match Response::decode(&payload).unwrap() {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::Protocol),
        other => unreachable!("expected protocol error, got {other:?}"),
    }

    // A malformed *message* in a valid frame, post-handshake: the
    // session answers the error and SURVIVES for the next request.
    let mut raw = std::net::TcpStream::connect(&addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let hello = Request::Hello {
        version: xst_server::PROTO_VERSION,
        client: "adversary".into(),
    };
    xst_server::write_frame(&mut raw, &hello.encode()).unwrap();
    let welcome = xst_server::read_frame(&mut raw).unwrap();
    assert!(matches!(
        Response::decode(&welcome).unwrap(),
        Response::Welcome { .. }
    ));
    xst_server::write_frame(&mut raw, &[0xFFu8; 16]).unwrap();
    let payload = xst_server::read_frame(&mut raw).unwrap();
    match Response::decode(&payload).unwrap() {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::Protocol),
        other => unreachable!("expected protocol error, got {other:?}"),
    }
    xst_server::write_frame(&mut raw, &Request::Ping.encode()).unwrap();
    let payload = xst_server::read_frame(&mut raw).unwrap();
    assert!(matches!(
        Response::decode(&payload).unwrap(),
        Response::Pong
    ));
}

/// The one malformed `Put` the text codec could not survive: a set
/// nested 100 000 deep (`{{{{…`, here in the value codec's bytes — tag 6,
/// count 1 — since no encoder produces it). Followed on the same session
/// by the other hostile set shapes; each is a typed `Protocol` error and
/// the session keeps serving.
#[test]
fn hostile_sets_get_typed_protocol_errors_and_the_session_survives() {
    let _guard = serial();
    let (_server, _engine, addr) = start_server(ServerConfig::default());
    let mut raw = std::net::TcpStream::connect(&addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let hello = Request::Hello {
        version: xst_server::PROTO_VERSION,
        client: "adversary".into(),
    };
    xst_server::write_frame(&mut raw, &hello.encode()).unwrap();
    let welcome = xst_server::read_frame(&mut raw).unwrap();
    assert!(matches!(
        Response::decode(&welcome).unwrap(),
        Response::Welcome { .. }
    ));

    let put_prefix = [8u8, 1, 0, 0, 0, b't']; // Request::Put, table "t"
    let int_member = |i: u8| [1u8, i, 0, 0, 0, 0, 0, 0, 0, 6, 0, 0, 0, 0]; // i^∅
    let deep = [6u8, 1, 0, 0, 0].repeat(100_000);
    let four_giga_count = vec![6u8, 0xFF, 0xFF, 0xFF, 0xFF];
    let swapped = [&[6u8, 2, 0, 0, 0][..], &int_member(2), &int_member(1)].concat();
    let honest = Request::Put {
        table: "t".into(),
        set: xset![1, 2],
    }
    .encode();
    let mut attacks: Vec<(String, Vec<u8>)> = vec![
        (
            "100 000-deep nesting".into(),
            [&put_prefix[..], &deep].concat(),
        ),
        (
            "4 G member count".into(),
            [&put_prefix[..], &four_giga_count].concat(),
        ),
        (
            "non-canonical order".into(),
            [&put_prefix[..], &swapped].concat(),
        ),
    ];
    attacks.extend(
        (1..honest.len()).map(|cut| (format!("prefix of {cut} bytes"), honest[..cut].to_vec())),
    );
    for (what, payload) in attacks {
        xst_server::write_frame(&mut raw, &payload).unwrap();
        let reply = xst_server::read_frame(&mut raw).unwrap();
        match Response::decode(&reply).unwrap() {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::Protocol, "{what}: {e}"),
            other => unreachable!("{what}: expected protocol error, got {other:?}"),
        }
        xst_server::write_frame(&mut raw, &Request::Ping.encode()).unwrap();
        let reply = xst_server::read_frame(&mut raw).unwrap();
        assert!(
            matches!(Response::decode(&reply).unwrap(), Response::Pong),
            "{what}: the same session must still answer"
        );
    }
}

/// One protocol version is seated. Older peers' `Hello`s still decode
/// (the layout never changed) and are refused by name, as is anything
/// newer; the refused connection closes and leaves no session behind.
#[test]
fn version_mismatch_is_a_typed_handshake_failure() {
    let _guard = serial();
    let (_server, _engine, addr) = start_server(ServerConfig::default());
    let active = &xst_obs::names::handle::SERVER_ACTIVE_SESSIONS;
    let _seated = connect(&addr, "control");
    let baseline = active.get();
    for version in [1, 2, 3, 999] {
        let mut raw = std::net::TcpStream::connect(&addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let hello = Request::Hello {
            version,
            client: "from another era".into(),
        };
        xst_server::write_frame(&mut raw, &hello.encode()).unwrap();
        let payload = xst_server::read_frame(&mut raw).unwrap();
        match Response::decode(&payload).unwrap() {
            Response::Error(e) => {
                assert_eq!(e.code, ErrorCode::Version, "v{version}");
                let speaks = format!("v{}", xst_server::PROTO_VERSION);
                assert!(e.message.contains(&speaks), "{}", e.message);
            }
            other => unreachable!("v{version}: expected version error, got {other:?}"),
        }
        assert!(
            matches!(
                xst_server::read_frame(&mut raw),
                Err(xst_server::FrameError::Closed)
            ),
            "v{version}: the refused connection must be closed"
        );
        wait_for("the refused connection's slot to be released", || {
            active.get() == baseline
        });
    }
}

// ---------------------------------------------------------------------------
// The crash sweep, across the wire.
// ---------------------------------------------------------------------------

/// A wire-workload set: `n` members padded wide enough that a commit's
/// op-log batch spans heap pages and exercises heap-flush fault sites,
/// not just WAL appends (mirrors the testkit's padded txn workload).
fn padded_set(tag: &str, n: usize) -> ExtendedSet {
    ExtendedSet::classical(
        (0..n).map(|i| xst_core::Value::str(format!("{tag}-{i}-{}", "y".repeat(370)))),
    )
}

fn preload_set() -> ExtendedSet {
    padded_set("preload", 4)
}

/// Tags of the explicit wire transactions the sweep crashes within.
const WIRE_TXNS: [&str; 4] = ["txn-a", "txn-b", "txn-c", "txn-d"];

/// The scripted wire workload the sweep crashes at every site of:
/// an unfaulted autocommitted preload, then two explicit transactions.
/// Returns the sets whose commits were ACKNOWLEDGED over the wire.
fn drive_wire_txns(c: &mut Client) -> Vec<ExtendedSet> {
    let mut acked = vec![preload_set()];
    for txn_set in WIRE_TXNS.map(|tag| padded_set(tag, 4)) {
        c.begin().unwrap();
        c.put("shared", &txn_set).unwrap();
        match c.commit() {
            Ok(_) => acked.push(txn_set),
            // The injected crash: stop driving, like a real outage.
            Err(_) => break,
        }
    }
    acked
}

fn expected_members(acked: &[ExtendedSet]) -> ExtendedSet {
    let mut all: Vec<xst_core::Value> = Vec::new();
    for set in acked {
        for m in set.members() {
            all.push(m.element.clone());
        }
    }
    ExtendedSet::classical(all)
}

/// Count the fault sites the wire workload touches after arming (the
/// preload stays unfaulted so the table always exists).
fn count_wire_sites() -> u64 {
    let (server, engine, addr) = start_server(ServerConfig::default());
    let mut c = connect(&addr, "probe");
    c.put("shared", &preload_set()).unwrap();
    let plan = FaultPlan::counting();
    engine.storage().install_faults(&plan);
    engine.wal().install_faults(&plan);
    drive_wire_txns(&mut c);
    engine.storage().clear_faults();
    engine.wal().clear_faults();
    drop(server);
    plan.sites_seen()
}

/// The acceptance-criteria test: acknowledged ⇒ recoverable for commits
/// issued over the wire, proven by crashing at every injectable site
/// with the fault plan armed across the wire.
#[test]
fn crash_at_every_commit_site_over_the_wire_preserves_acked_commits() {
    let _guard = serial();
    let sites = count_wire_sites();
    assert!(
        sites >= 4,
        "wire workload too small to mean anything: {sites}"
    );
    assert_eq!(
        sites,
        count_wire_sites(),
        "site enumeration is deterministic"
    );

    let mut crashes = 0u64;
    let mut partial_acks = 0u64;
    for k in 0..sites {
        let (server, engine, addr) = start_server(ServerConfig::default());
        let mut c = connect(&addr, &format!("crash-site-{k}"));
        c.put("shared", &preload_set()).unwrap();
        // Arm the deterministic fault ACROSS THE WIRE: this is the hook
        // that makes the durability contract testable from outside.
        c.arm_faults(FaultSchedule::AtSite(k), FaultKind::WriteFail)
            .unwrap();
        let acked = drive_wire_txns(&mut c);
        let full = 1 + WIRE_TXNS.len();
        if acked.len() < full {
            crashes += 1;
        }
        if acked.len() > 1 && acked.len() < full {
            partial_acks += 1; // some txn acked over the wire, then the crash
        }
        drop(c);
        drop(server);

        // Recover from durable state alone and hold the contract:
        // acknowledged ⇒ recovered, unacknowledged ⇒ atomically absent.
        let recovered = engine.recover(&[("shared", member_schema())]).unwrap();
        let identity = recovered.latest_identity("shared").unwrap();
        let got = records_identity_to_set(&identity).unwrap();
        assert_eq!(
            got,
            expected_members(&acked),
            "site {k}: recovered state must be exactly the acknowledged commits"
        );
    }
    assert!(
        crashes > 0,
        "no site ever crashed a commit — sweep is vacuous"
    );
    assert!(
        partial_acks > 0,
        "no site crashed BETWEEN the two commits — the ack⇒recoverable case was never exercised"
    );
}

// ---------------------------------------------------------------------------
// Metrics over the wire.
// ---------------------------------------------------------------------------

#[test]
fn metrics_exposition_travels_the_wire() {
    let _guard = serial();
    let (_server, _engine, addr) = start_server(ServerConfig::default());
    let mut c = connect(&addr, "metrics");
    c.ping().unwrap();
    let text = c.metrics(false).unwrap();
    assert!(
        text.contains(xst_obs::names::SERVER_REQUESTS_TOTAL),
        "prometheus exposition must carry the server families"
    );
    let json = c.metrics(true).unwrap();
    assert!(json.contains(xst_obs::names::SERVER_ACCEPTED_TOTAL));
}
