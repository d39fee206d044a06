//! The deterministic network-fault sweep over the cluster coordinator:
//! every coordinator↔shard message of a scripted multi-shard workload —
//! each call's request leg and response leg, and each door's opening — is
//! a numbered fault site (the network mirror of the storage battery's I/O
//! sites), and each sweep injects one fault kind at every site, then
//! proves the standing contract after recovery:
//!
//! * **acknowledged ⇒ recoverable** — a commit whose round returned
//!   `Ok` survives coordinator death, lost messages, stalled links,
//!   severed connections, and full shard restarts;
//! * **unacknowledged ⇒ atomically absent** — a commit that never got
//!   its `Ok` leaves no residue on any shard;
//! * **never split-brain** — checked per shard fragment, so a
//!   transaction cannot be half-applied across the partition.
//!
//! Determinism: the coordinator issues strictly sequential calls, so the
//! shared message-site counter is a total order, and the sweeps run it
//! over in-process `Session` doors with the fault on the door — no
//! socket, no thread, no clock; a lost or stalled message is a timed-out
//! *value*. The tests that say "real TCP" run the same coordinator code
//! over `Client` doors under a 5 s RPC deadline nothing comes near. Tests
//! serialize on one lock (they share the global metric registry).

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;
use xst_client::coord::{CoordError, Coordinator};
use xst_core::ExtendedSet;
use xst_server::{member_schema, set_to_records};
use xst_storage::{route_members, ShardedEngine};
use xst_testkit::cluster::{
    count_message_sites, drive_cluster_workload, expected_set, faulty_coordinator, run_with_fault,
    shard_engines, start_shard_servers, sweep_fault_kind, txn_set, verify_recovery, CLUSTER_SHARDS,
    CLUSTER_TABLE, CLUSTER_TXNS,
};
use xst_testkit::netfault::{NetFaultKind, NetFaultPlan};

/// The deadline on every real socket below: generous, never reached.
const RPC_TIMEOUT: Option<Duration> = Some(Duration::from_secs(5));

/// Message legs per coordinator call (request, response) and per door
/// opening — and so the legs a fresh coordinator's doors consume.
const LEGS: u64 = 2;
const OPENING_LEGS: u64 = LEGS * CLUSTER_SHARDS as u64;

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    xst_obs::enable();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// The clean path first: `count_message_sites` is a whole run —
/// coordinator over counted doors, full workload, resolve over fresh
/// doors, shard restarts — with no fault. Also pins the site count: two
/// dry runs must count identical sites, or the sweep's numbering is not
/// deterministic, and the count is exactly the workload's messages.
#[test]
fn clean_cluster_run_and_site_count_is_deterministic() {
    let _guard = serial();
    let a = count_message_sites();
    let b = count_message_sites();
    assert_eq!(a, b, "message-site numbering must be deterministic");
    assert_eq!(
        a, 36,
        "2 shards × open + 2 txns × 2 shards × {{begin, put, prepare, decide}}, two legs each"
    );
    assert_eq!(
        a,
        OPENING_LEGS + LEGS * (CLUSTER_TXNS * CLUSTER_SHARDS * 4) as u64
    );
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

/// The model is the deployment: the same decorator around real `Client`
/// connections to real servers, one run per fault kind, at the site in
/// the middle of 2PC's gray zone — shard 1's `Prepared` reply to the
/// first transaction, so shard 1 holds a durable prepare the coordinator
/// never heard about and shard 0 one it must roll back.
#[test]
fn each_fault_kind_over_real_tcp_matches_the_model() {
    let _guard = serial();
    // Openings, then begin ×2 and put ×2, prepare→shard 0, prepare→shard 1;
    // its response leg is the last of those.
    let site = OPENING_LEGS + LEGS * 6 - 1;
    for kind in [
        NetFaultKind::DropMessage,
        NetFaultKind::Hold,
        NetFaultKind::Sever,
        NetFaultKind::KillAll,
    ] {
        let plan = NetFaultPlan::at_site(site, kind);
        run_with_fault(start_shard_servers(CLUSTER_SHARDS), &plan);
        assert!(plan.fired(), "{kind:?}");
    }
}

/// The coordinator dies **between its decision-log flush and the Decide
/// round** — the exact gray zone of 2PC: every link goes at once under
/// the second transaction's first `Decide`, over real TCP. It then
/// restarts over the same durable devices against the same live servers,
/// and every shard must converge to the logged COMMIT even though no
/// Decide was ever delivered.
#[test]
fn coordinator_killed_after_decision_flush_recovers_to_commit() {
    let _guard = serial();
    let cluster = start_shard_servers(CLUSTER_SHARDS);
    // After the openings: a whole first transaction (8 calls), then
    // begin ×2, put ×2, prepare ×2 (6 calls), then Decide→shard 0.
    let plan = NetFaultPlan::at_site(OPENING_LEGS + LEGS * (8 + 6), NetFaultKind::KillAll);
    let mut coord = faulty_coordinator(&cluster, &plan).expect("connect");
    let devices = coord.devices();
    let (acked, err) = drive_cluster_workload(&mut coord);
    assert!(plan.fired());
    // The decision is durable, so the commit is acknowledged.
    assert_eq!((acked, err.is_none()), (vec![0, 1], true));
    let gtxn = *coord.committed_gtxns().last().expect("two decisions");
    drop(coord); // the crash: connections die, no Decide ever sent
    for engine in &cluster.engines {
        assert_eq!(engine.prepared_gtxns(), [gtxn], "in doubt on every shard");
    }

    // Restart the coordinator node over its surviving decision log.
    let (storage, wal) = devices;
    let mut recovered = Coordinator::recover(&cluster.addrs, storage, wal, RPC_TIMEOUT)
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
    // After the openings: begin ×2, put ×2, prepare ×2, then Decide→shard 0.
    let plan = NetFaultPlan::at_site(OPENING_LEGS + LEGS * 6, NetFaultKind::KillAll);
    let mut coord = faulty_coordinator(&cluster, &plan).expect("connect");
    let devices = coord.devices();
    coord.begin().expect("begin");
    coord.put(CLUSTER_TABLE, &txn_set(0)).expect("put");
    coord.commit().expect("the decision is durable");
    assert!(plan.fired());
    drop(coord);
    verify_recovery(cluster, &[0], Some(devices));
}

/// A dead shard during the commit: shard 0 has prepared when shard 1's
/// link breaks under its `Prepare`; the coordinator must roll shard 0
/// back and abort cleanly — no decision, nothing lands anywhere.
#[test]
fn unreachable_shard_aborts_whole_transaction() {
    let _guard = serial();
    let cluster = shard_engines(CLUSTER_SHARDS);
    // After the openings: begin ×2, put ×2, prepare→shard 0 (5 calls),
    // then the request leg of prepare→shard 1.
    let plan = NetFaultPlan::at_site(OPENING_LEGS + LEGS * 5, NetFaultKind::Sever);
    let mut coord = faulty_coordinator(&cluster, &plan).expect("open");
    let devices = coord.devices();
    coord.begin().expect("begin");
    coord.put(CLUSTER_TABLE, &txn_set(0)).expect("put");
    let err = coord
        .commit()
        .expect_err("commit with a dead shard must fail");
    assert!(plan.fired());
    assert!(
        matches!(err, CoordError::Shard { shard: 1, .. }),
        "no decision may exist for an unacknowledged commit; got {err}"
    );
    assert!(coord.committed_gtxns().is_empty());
    drop(coord);
    verify_recovery(cluster, &[], Some(devices));
}

/// Reads after recovery are exact: the recovered coordinator's gather
/// equals the in-process expectation member-for-member, over real TCP.
#[test]
fn recovered_reads_match_workload_exactly() {
    let _guard = serial();
    let cluster = start_shard_servers(CLUSTER_SHARDS);
    let mut coord = Coordinator::connect(&cluster.addrs, RPC_TIMEOUT).expect("connect");
    let (acked, err) = drive_cluster_workload(&mut coord);
    assert!(err.is_none(), "clean run failed: {err:?}");
    assert_eq!(acked.len(), CLUSTER_TXNS);
    let got = coord.get(CLUSTER_TABLE).expect("gather");
    let want: ExtendedSet = expected_set(&acked);
    assert_eq!(got, want);
    // Fresh coordinator, fresh devices, same servers: reads are a
    // property of the cluster, not of the coordinator instance.
    let mut other = Coordinator::connect(&cluster.addrs, RPC_TIMEOUT).expect("second coordinator");
    assert_eq!(other.get(CLUSTER_TABLE).expect("gather 2"), want);
}

/// Regression: shard 1's `Begin` fails after shard 0's succeeded. The
/// coordinator must abort what it already began — otherwise shard 0
/// keeps an open transaction nobody can reach (`abort()` says nothing is
/// open, the next `begin()` trips over it) and its snapshot pins every
/// version chain.
#[test]
fn failed_begin_aborts_the_shards_already_begun() {
    let _guard = serial();
    let cluster = shard_engines(CLUSTER_SHARDS);
    // After the openings: Begin→shard 0 and its reply, then Begin→shard 1.
    let plan = NetFaultPlan::at_site(OPENING_LEGS + LEGS, NetFaultKind::Sever);
    let mut coord = faulty_coordinator(&cluster, &plan).expect("open");
    let err = coord.begin().expect_err("shard 1's Begin was severed");
    assert!(plan.fired());
    assert!(
        matches!(err, CoordError::Shard { shard: 1, .. }),
        "wanted shard 1's failure, got {err}"
    );
    assert!(!coord.in_txn());
    assert_eq!(
        cluster[0].mgr().active_txns(),
        0,
        "shard 0 must not be left holding the half-begun transaction"
    );
    // The broken link is abandoned, not retried: the next begin names
    // shard 1 again without a message leaving.
    let seen = plan.sites_seen();
    let again = coord.begin().expect_err("shard 1 is gone");
    assert!(matches!(
        again,
        CoordError::Shard {
            shard: 1,
            source: None
        }
    ));
    assert_eq!(plan.reused(), 0);
    assert_eq!(
        plan.sites_seen(),
        seen + LEGS * 2,
        "begin→shard 0, abort→shard 0"
    );
    assert_eq!(cluster[0].mgr().active_txns(), 0);
}

/// Regression: an autocommit `put` whose inner Put fails must abort its
/// implicit transaction. Left open, `in_txn` stays true and the *next*
/// autocommit silently joins the stale transaction.
#[test]
fn failed_autocommit_put_aborts_its_implicit_transaction() {
    let _guard = serial();
    let cluster = shard_engines(CLUSTER_SHARDS);
    // After the openings: Begin ×2 shards and Put→shard 0 (3 calls), then
    // Put→shard 1.
    let plan = NetFaultPlan::at_site(OPENING_LEGS + LEGS * 3, NetFaultKind::Sever);
    let mut coord = faulty_coordinator(&cluster, &plan).expect("open");
    let err = coord
        .put(CLUSTER_TABLE, &txn_set(0))
        .expect_err("shard 1's Put was severed");
    assert!(plan.fired());
    assert!(
        matches!(err, CoordError::Shard { shard: 1, .. }),
        "wanted shard 1's failure, got {err}"
    );
    assert!(!coord.in_txn(), "the implicit transaction must not linger");
    assert_eq!(cluster[0].mgr().active_txns(), 0);
    assert_eq!(cluster[1].mgr().active_txns(), 0);
    let devices = coord.devices();
    drop(coord);
    verify_recovery(cluster, &[], Some(devices));
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
