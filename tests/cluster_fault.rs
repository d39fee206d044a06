//! The deterministic network-fault sweep over the cross-process
//! cluster: every coordinator↔shard message of a scripted multi-shard
//! workload is a numbered fault site (the network mirror of the
//! storage battery's I/O sites), and each sweep injects one fault kind
//! at every site, then proves the standing contract after recovery:
//!
//! * **acknowledged ⇒ recoverable** — a commit whose round returned
//!   `Ok` survives coordinator death, lost messages, stalled links,
//!   severed connections, and full shard restarts;
//! * **unacknowledged ⇒ atomically absent** — a commit that never got
//!   its `Ok` leaves no residue on any shard;
//! * **never split-brain** — checked per shard fragment, so a
//!   transaction cannot be half-applied across the partition.
//!
//! Determinism: the coordinator issues strictly sequential round-trips,
//! so the shared message-site counter is a total order; the only clock
//! in play is the client's read deadline, and every timeout funnels
//! into the same abandon-and-recover path. Tests serialize on one lock
//! (global metric registry + one-CPU box).

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;
use xst_client::coord::{CoordError, Coordinator};
use xst_core::ExtendedSet;
use xst_server::{member_schema, set_to_records};
use xst_storage::{route_members, ShardedEngine};
use xst_testkit::cluster::{
    count_message_sites, drive_cluster_workload, expected_set, run_with_fault, start_shard_servers,
    sweep_fault_kind, txn_set, verify_recovery, CLUSTER_SHARDS, CLUSTER_TABLE, CLUSTER_TIMEOUT,
    CLUSTER_TXNS,
};
use xst_testkit::netfault::{NetFaultKind, NetFaultPlan, ProxyGroup};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    xst_obs::enable();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// The clean path first: coordinator over proxies, full workload, wire
/// recovery, shard restarts — no faults. Also pins the site count's
/// stability: two dry runs must count identical sites, or the sweep's
/// numbering is not deterministic.
#[test]
fn clean_cluster_run_and_site_count_is_deterministic() {
    let _guard = serial();
    let a = count_message_sites();
    let b = count_message_sites();
    assert_eq!(a, b, "message-site numbering must be deterministic");
    // The workload is CLUSTER_TXNS × (begin + put + 2PC commit) across
    // CLUSTER_SHARDS shards plus one handshake per shard; every part
    // crosses the wire, so the count has a hard floor.
    assert!(
        a >= (CLUSTER_SHARDS * 2 + CLUSTER_TXNS * CLUSTER_SHARDS * 8) as u64,
        "implausibly few message sites: {a}"
    );
    verify_recovery(run_with_fault(u64::MAX, NetFaultKind::DropMessage));
}

#[test]
fn sweep_drop_at_every_message_site() {
    let _guard = serial();
    let sites = count_message_sites();
    let fired = sweep_fault_kind(sites, NetFaultKind::DropMessage);
    assert_eq!(fired, sites, "every planned drop must actually fire");
}

#[test]
fn sweep_hold_past_timeout_at_every_message_site() {
    let _guard = serial();
    let sites = count_message_sites();
    let fired = sweep_fault_kind(sites, NetFaultKind::Hold);
    assert_eq!(fired, sites, "every planned stall must actually fire");
}

#[test]
fn sweep_sever_at_every_message_site() {
    let _guard = serial();
    let sites = count_message_sites();
    let fired = sweep_fault_kind(sites, NetFaultKind::Sever);
    assert_eq!(fired, sites, "every planned sever must actually fire");
}

#[test]
fn sweep_coordinator_kill_at_every_message_site() {
    let _guard = serial();
    let sites = count_message_sites();
    let fired = sweep_fault_kind(sites, NetFaultKind::KillAll);
    assert_eq!(fired, sites, "every planned kill must actually fire");
}

/// Satellite: the coordinator dies **between its decision-log flush and
/// the Decide round** — the exact gray zone of 2PC — then restarts over
/// the same durable devices against the same live servers, over real
/// TCP. Every shard must converge to the logged COMMIT even though no
/// Decide was ever delivered.
#[test]
fn coordinator_killed_after_decision_flush_recovers_to_commit() {
    let _guard = serial();
    let cluster = start_shard_servers(CLUSTER_SHARDS);
    let mut coord = Coordinator::connect(&cluster.addrs, Some(CLUSTER_TIMEOUT)).expect("connect");
    let devices = coord.devices();

    // A first, fully-delivered transaction (baseline contents).
    coord.begin().expect("begin 0");
    coord.put(CLUSTER_TABLE, &txn_set(0)).expect("put 0");
    coord.commit().expect("commit 0");

    // The second transaction: decision flushed, Decide suppressed.
    coord.kill_after_decision(true);
    coord.begin().expect("begin 1");
    coord.put(CLUSTER_TABLE, &txn_set(1)).expect("put 1");
    let err = coord.commit().expect_err("the kill hook must fire");
    let gtxn = match err {
        CoordError::KilledAfterDecision { gtxn } => gtxn,
        other => panic!("wanted KilledAfterDecision, got {other}"),
    };
    drop(coord); // the crash: connections die, no Decide ever sent

    // Both shards hold an in-doubt prepare for gtxn now; restart the
    // coordinator node over its surviving decision log.
    let (storage, wal) = devices;
    let mut recovered = Coordinator::recover(&cluster.addrs, storage, wal, Some(CLUSTER_TIMEOUT))
        .expect("coordinator restart");
    assert!(
        recovered.committed_gtxns().contains(&gtxn),
        "the decision for gtxn {gtxn} must be replayed from the log"
    );
    let got = recovered.get(CLUSTER_TABLE).expect("read after recovery");
    assert_eq!(
        got,
        expected_set(&[0, 1]),
        "every shard must converge to the logged COMMIT decision"
    );
}

/// The same gray zone, but the coordinator restarts with the servers
/// *also* restarted from durable state — acknowledged-after-decision
/// commits survive everything dying at once.
#[test]
fn decision_flush_survives_whole_cluster_restart() {
    let _guard = serial();
    let cluster = start_shard_servers(CLUSTER_SHARDS);
    let mut coord = Coordinator::connect(&cluster.addrs, Some(CLUSTER_TIMEOUT)).expect("connect");
    let devices = coord.devices();
    coord.kill_after_decision(true);
    coord.begin().expect("begin");
    coord.put(CLUSTER_TABLE, &txn_set(0)).expect("put");
    let err = coord.commit().expect_err("the kill hook must fire");
    assert!(matches!(err, CoordError::KilledAfterDecision { .. }));
    drop(coord);
    verify_recovery(xst_testkit::cluster::RunOutcome {
        acked: vec![0],
        error: None,
        devices: Some(devices),
        cluster,
    });
}

/// A dead shard during the workload: sever only that shard's link and
/// let the coordinator abort cleanly; nothing may land anywhere.
#[test]
fn unreachable_shard_aborts_whole_transaction() {
    let _guard = serial();
    let cluster = start_shard_servers(CLUSTER_SHARDS);
    let plan = NetFaultPlan::count_only();
    let proxies = ProxyGroup::start(&cluster.addrs, &plan).expect("proxies");
    let mut coord = Coordinator::connect(proxies.addrs(), Some(CLUSTER_TIMEOUT)).expect("connect");
    let devices = coord.devices();
    coord.begin().expect("begin");
    coord.put(CLUSTER_TABLE, &txn_set(0)).expect("put");
    proxies.sever_all(); // the network dies before commit
    let err = drive_commit(&mut coord).expect_err("commit over a dead network must fail");
    assert!(
        !matches!(err, CoordError::KilledAfterDecision { .. }),
        "no decision may exist for an unacknowledged commit"
    );
    drop(coord);
    drop(proxies);
    verify_recovery(xst_testkit::cluster::RunOutcome {
        acked: vec![],
        error: Some(err),
        devices: Some(devices),
        cluster,
    });
}

fn drive_commit(coord: &mut Coordinator) -> Result<u64, CoordError> {
    coord.commit()
}

/// Reads after recovery are exact: the recovered coordinator's gather
/// equals the in-process expectation member-for-member, and per-shard
/// timeouts still bound every recovery round-trip.
#[test]
fn recovered_reads_match_workload_exactly() {
    let _guard = serial();
    let cluster = start_shard_servers(CLUSTER_SHARDS);
    let mut coord = Coordinator::connect(&cluster.addrs, Some(CLUSTER_TIMEOUT)).expect("connect");
    let (acked, err) = drive_cluster_workload(&mut coord);
    assert!(err.is_none(), "clean run failed: {err:?}");
    assert_eq!(acked.len(), CLUSTER_TXNS);
    let got = coord.get(CLUSTER_TABLE).expect("gather");
    let want: ExtendedSet = expected_set(&acked);
    assert_eq!(got, want);
    // Fresh coordinator, fresh devices, same servers: reads are a
    // property of the cluster, not of the coordinator instance.
    let mut other = Coordinator::connect(&cluster.addrs, Some(Duration::from_secs(5)))
        .expect("second coordinator");
    assert_eq!(other.get(CLUSTER_TABLE).expect("gather 2"), want);
}

/// Message sites a fresh coordinator's connect consumes (the handshake
/// round-trips), counted on a throwaway cluster so a later plan can aim
/// at "the n-th message after connect".
fn sites_after_connect() -> u64 {
    let cluster = start_shard_servers(CLUSTER_SHARDS);
    let plan = NetFaultPlan::count_only();
    let proxies = ProxyGroup::start(&cluster.addrs, &plan).expect("proxies");
    let _coord = Coordinator::connect(proxies.addrs(), Some(CLUSTER_TIMEOUT)).expect("connect");
    plan.sites_seen()
}

/// Regression: shard 1's `Begin` fails after shard 0's succeeded. The
/// coordinator must abort what it already began — otherwise shard 0
/// keeps an open transaction nobody can reach (`abort()` says nothing is
/// open, the next `begin()` trips over it) and its snapshot pins every
/// version chain.
#[test]
fn failed_begin_aborts_the_shards_already_begun() {
    let _guard = serial();
    let connected = sites_after_connect();
    let cluster = start_shard_servers(CLUSTER_SHARDS);
    // After connect: Begin→shard 0, its reply, then Begin→shard 1.
    let plan = NetFaultPlan::at_site(connected + 2, NetFaultKind::Sever);
    let proxies = ProxyGroup::start(&cluster.addrs, &plan).expect("proxies");
    let mut coord = Coordinator::connect(proxies.addrs(), Some(CLUSTER_TIMEOUT)).expect("connect");
    let err = coord.begin().expect_err("shard 1's Begin was severed");
    assert!(plan.fired());
    assert!(
        matches!(err, CoordError::Shard { shard: 1, .. }),
        "wanted shard 1's failure, got {err}"
    );
    assert!(!coord.in_txn());
    assert_eq!(
        cluster.engines[0].mgr().active_txns(),
        0,
        "shard 0 must not be left holding the half-begun transaction"
    );
}

/// Regression: an autocommit `put` whose inner Put fails must abort its
/// implicit transaction. Left open, `in_txn` stays true and the *next*
/// autocommit silently joins the stale transaction.
#[test]
fn failed_autocommit_put_aborts_its_implicit_transaction() {
    let _guard = serial();
    let connected = sites_after_connect();
    let cluster = start_shard_servers(CLUSTER_SHARDS);
    // After connect: Begin ×2 shards (4 messages), Put→shard 0 and its
    // reply (2), then Put→shard 1.
    let plan = NetFaultPlan::at_site(connected + 6, NetFaultKind::Sever);
    let proxies = ProxyGroup::start(&cluster.addrs, &plan).expect("proxies");
    let mut coord = Coordinator::connect(proxies.addrs(), Some(CLUSTER_TIMEOUT)).expect("connect");
    let err = coord
        .put(CLUSTER_TABLE, &txn_set(0))
        .expect_err("shard 1's Put was severed");
    assert!(plan.fired());
    assert!(
        matches!(err, CoordError::Shard { shard: 1, .. }),
        "wanted shard 1's failure, got {err}"
    );
    assert!(!coord.in_txn(), "the implicit transaction must not linger");
    assert_eq!(cluster.engines[0].mgr().active_txns(), 0);
    let devices = coord.devices();
    drop(coord);
    drop(proxies);
    verify_recovery(xst_testkit::cluster::RunOutcome {
        acked: vec![],
        error: Some(err),
        devices: Some(devices),
        cluster,
    });
}

/// One scripted multi-shard transaction of the differential below.
struct Scripted {
    put: ExtendedSet,
    delete: ExtendedSet,
    /// Written and committed by a concurrent session between this
    /// transaction's writes and its commit.
    rival: ExtendedSet,
}

/// What a deployment is left with after the script.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// Per transaction: was its commit acknowledged?
    acked: Vec<bool>,
    /// The coordinator's committed gtxn set.
    gtxns: Vec<u64>,
    /// Each shard's committed identity of the table.
    fragments: Vec<ExtendedSet>,
    /// Prepares still awaiting a decision anywhere.
    in_doubt: usize,
}

fn differential_script() -> Vec<Scripted> {
    let none = ExtendedSet::empty;
    vec![
        Scripted {
            put: txn_set(0),
            delete: none(),
            rival: none(),
        },
        // The rival commits this transaction's shard-1 member first, so
        // shard 0 prepares and then shard 1 loses first-committer-wins:
        // the round must roll shard 0 back and write no decision.
        Scripted {
            put: txn_set(1),
            delete: none(),
            rival: route_members(&txn_set(1), CLUSTER_SHARDS).swap_remove(1),
        },
        Scripted {
            put: txn_set(2),
            delete: txn_set(0),
            rival: none(),
        },
        Scripted {
            put: txn_set(3),
            delete: none(),
            rival: none(),
        },
    ]
}

fn run_in_process(script: &[Scripted]) -> Outcome {
    let engine = ShardedEngine::with_shards(CLUSTER_SHARDS);
    engine
        .create_table(CLUSTER_TABLE, member_schema())
        .expect("create table");
    let mut acked = Vec::new();
    for step in script {
        let mut txn = engine.begin();
        for rec in set_to_records(&step.put) {
            txn.insert(CLUSTER_TABLE, rec).expect("insert");
        }
        for rec in set_to_records(&step.delete) {
            txn.delete(CLUSTER_TABLE, rec).expect("delete");
        }
        if step.rival.card() > 0 {
            engine
                .autocommit_insert(CLUSTER_TABLE, &set_to_records(&step.rival))
                .expect("rival commit");
        }
        acked.push(txn.commit().is_ok());
    }
    Outcome {
        acked,
        gtxns: engine.committed_gtxns(),
        fragments: engine.latest_fragments(CLUSTER_TABLE).expect("fragments"),
        in_doubt: engine.prepared_external().len(),
    }
}

fn run_over_the_wire(script: &[Scripted]) -> Outcome {
    let cluster = start_shard_servers(CLUSTER_SHARDS);
    let timeout = Some(Duration::from_secs(5));
    let mut coord = Coordinator::connect(&cluster.addrs, timeout).expect("connect");
    let mut rival = Coordinator::connect(&cluster.addrs, timeout).expect("connect rival");
    let mut acked = Vec::new();
    for step in script {
        coord.begin().expect("begin");
        coord.put(CLUSTER_TABLE, &step.put).expect("put");
        coord.delete(CLUSTER_TABLE, &step.delete).expect("delete");
        if step.rival.card() > 0 {
            rival.put(CLUSTER_TABLE, &step.rival).expect("rival commit");
        }
        acked.push(coord.commit().is_ok());
    }
    let engines = &cluster.engines;
    Outcome {
        acked,
        gtxns: coord.committed_gtxns(),
        fragments: engines
            .iter()
            .flat_map(|e| {
                e.sharded()
                    .latest_fragments(CLUSTER_TABLE)
                    .expect("fragment")
            })
            .collect(),
        in_doubt: engines.iter().map(|e| e.prepared_gtxns().len()).sum(),
    }
}

/// The same script through both deployments of the one commit round: a
/// 2-shard in-process `ShardedEngine` and a `Coordinator` over two
/// single-shard servers. Same verdict per transaction, same committed
/// gtxn set, identical per-shard fragments, nothing left in doubt.
#[test]
fn in_process_and_wire_rounds_agree_on_a_scripted_workload() {
    let _guard = serial();
    let script = differential_script();
    let local = run_in_process(&script);
    assert_eq!(local.acked, [true, false, true, true]);
    assert_eq!(local.gtxns, [1, 3, 4], "the aborted round spent gtxn 2");
    assert_eq!(local.in_doubt, 0);
    assert_eq!(local, run_over_the_wire(&script));
}
