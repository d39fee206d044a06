//! Scripted cluster workloads for the network-fault sweep.
//!
//! The shape mirrors the storage crash battery in [`crate::crash`]: a
//! deterministic scripted workload, a site-counting dry run, then an
//! exhaustive sweep injecting one fault per numbered site and asserting
//! the cluster's standing contract after recovery:
//!
//! * **acknowledged ⇒ recoverable** — every transaction whose commit
//!   returned `Ok` is present in full on the recovered cluster;
//! * **unacknowledged ⇒ atomically absent** — a transaction that never
//!   got its `Ok` leaves no partial residue on any shard;
//! * **never split-brain** — both are checked per shard fragment, so a
//!   transaction can never be half-applied across the partition.
//!
//! Everything is generic in [`Shards`] — the per-shard engines plus how a
//! door to shard *i* is opened. The sweep runs over [`shard_engines`]:
//! `Session` doors, single-threaded, no socket and no clock. The same
//! functions over [`ShardServers`] (real `Client` connections) are the
//! smoke that the model is the deployment.
//!
//! The workload here is intentionally small (every commit is a genuine
//! multi-shard 2PC round) because the sweep multiplies it by every
//! message site × every fault kind.

use crate::netfault::{FaultyDoor, NetFaultKind, NetFaultPlan};
use std::collections::BTreeSet;
use std::sync::Arc;
use xst_client::coord::{CoordError, Coordinator};
use xst_client::{Client, ClientResult};
use xst_core::ops::gather;
use xst_core::{ExtendedSet, SetBuilder, Value};
use xst_server::{
    member_schema, records_identity_to_set, Door, ServedEngine, Server, ServerConfig, Session,
};
use xst_storage::{shard_of, Record, Storage, Wal};

/// Shards in the scripted cluster.
pub const CLUSTER_SHARDS: usize = 2;
/// The one table the workload writes.
pub const CLUSTER_TABLE: &str = "w";
/// Transactions the scripted workload commits (each multi-shard).
pub const CLUSTER_TXNS: usize = 2;

/// A cluster's shards: their engines — all that survives a run — and how
/// a door to shard *i* is opened.
pub trait Shards {
    /// What a door to one shard is.
    type Door: Door;
    /// Each shard's engine, in shard order.
    fn engines(&self) -> &[Arc<ServedEngine>];
    /// Open a fresh door to `shard`.
    fn open(&self, shard: usize) -> Result<Self::Door, <Self::Door as Door>::Error>;
}

/// `n` fresh single-shard engines: a cluster in one process.
pub fn shard_engines(n: usize) -> Vec<Arc<ServedEngine>> {
    (0..n).map(|_| Arc::new(ServedEngine::new())).collect()
}

/// In process, a door is a [`Session`]: opening one is what the server
/// does on accept, dropping one what it does on disconnect (the open
/// transaction aborts).
impl Shards for Vec<Arc<ServedEngine>> {
    type Door = Session;
    fn engines(&self) -> &[Arc<ServedEngine>] {
        self
    }
    fn open(&self, shard: usize) -> Result<Session, std::convert::Infallible> {
        Ok(Session::new(Arc::clone(&self[shard])))
    }
}

/// N single-shard server processes (in-process threads over real TCP)
/// plus their engines, so a test can recover shards from durable state
/// after a run.
pub struct ShardServers {
    /// The running servers (dropping stops them).
    pub servers: Vec<Server>,
    /// Each server's engine, shared with it.
    pub engines: Vec<Arc<ServedEngine>>,
    /// The servers' addresses, in shard order.
    pub addrs: Vec<String>,
}

/// Start `n` fresh single-shard servers on loopback.
pub fn start_shard_servers(n: usize) -> ShardServers {
    let engines = shard_engines(n);
    let servers: Vec<Server> = engines
        .iter()
        .map(|engine| {
            Server::start(Arc::clone(engine), "127.0.0.1:0", ServerConfig::default())
                .expect("start shard server")
        })
        .collect();
    ShardServers {
        addrs: servers.iter().map(|s| s.addr().to_string()).collect(),
        servers,
        engines,
    }
}

/// Over real TCP, a door is a [`Client`] connection, dialled exactly as
/// [`Coordinator::connect`] dials it.
impl Shards for ShardServers {
    type Door = Client;
    fn engines(&self) -> &[Arc<ServedEngine>] {
        &self.engines
    }
    fn open(&self, shard: usize) -> ClientResult<Client> {
        // lint: determinism: the real-TCP smoke's RPC deadline; injected faults answer as values, so no verdict waits on it
        let timeout = Some(std::time::Duration::from_secs(5));
        Client::connect_with_timeout(&self.addrs[shard], &format!("xst-coord/{shard}"), timeout)
    }
}

/// A coordinator over fresh devices whose doors to `cluster`, opened in
/// shard order, carry `plan`. `Err` is the plan's fault landing on an
/// opening — the coordinator never came to exist.
pub fn faulty_coordinator<S: Shards>(
    cluster: &S,
    plan: &NetFaultPlan,
) -> std::io::Result<Coordinator<FaultyDoor<S::Door>>> {
    let doors: Result<Vec<_>, _> = (0..cluster.engines().len())
        .map(|i| plan.open(|| cluster.open(i)))
        .collect();
    Ok(Coordinator::over(doors?))
}

/// The member record a set member becomes on the wire (the routing
/// key): `[element, scope]`.
fn member_record(element: i64, scope: i64) -> Record {
    Record::new([Value::Int(element), Value::Int(scope)])
}

/// The scripted set transaction `t` writes: exactly one member routed
/// to each of the [`CLUSTER_SHARDS`] shards (found by scanning element
/// values — pure hashing, no randomness), scoped by the transaction
/// number so every transaction's members are disjoint.
pub fn txn_set(t: usize) -> ExtendedSet {
    let scope = t as i64 + 1;
    let mut found: Vec<Option<i64>> = vec![None; CLUSTER_SHARDS];
    let mut missing = CLUSTER_SHARDS;
    let mut candidate = t as i64 * 1000;
    while missing > 0 {
        let shard = shard_of(&member_record(candidate, scope), CLUSTER_SHARDS);
        if found[shard].is_none() {
            found[shard] = Some(candidate);
            missing -= 1;
        }
        candidate += 1;
    }
    let mut b = SetBuilder::new();
    for element in found.into_iter().flatten() {
        b.scoped(Value::Int(element), Value::Int(scope));
    }
    b.build()
}

/// The whole-cluster contents implied by the acknowledged transaction
/// set: the union of every acked transaction's scripted set.
pub fn expected_set(acked: &[usize]) -> ExtendedSet {
    gather(&acked.iter().map(|&t| txn_set(t)).collect::<Vec<_>>())
}

/// Drive the scripted workload through `coord`: [`CLUSTER_TXNS`]
/// begin→put→commit rounds, each writing both shards. Returns the
/// transactions whose commit was **acknowledged** (returned `Ok`), and
/// the first error if a fault cut the run short.
pub fn drive_cluster_workload<D: Door>(
    coord: &mut Coordinator<D>,
) -> (Vec<usize>, Option<CoordError<D::Error>>) {
    let mut acked = Vec::new();
    let run = (0..CLUSTER_TXNS).try_for_each(|t| {
        coord.begin()?;
        coord.put(CLUSTER_TABLE, &txn_set(t))?;
        coord.commit()?;
        acked.push(t);
        Ok(())
    });
    (acked, run.err())
}

/// Count the workload's message sites: one in-process run under a plan
/// that only counts. [`run_with_fault`] asserts the clean run acknowledges
/// every transaction — the sweep below would be vacuous otherwise.
pub fn count_message_sites() -> u64 {
    let plan = NetFaultPlan::count_only();
    run_with_fault(shard_engines(CLUSTER_SHARDS), &plan);
    plan.sites_seen()
}

/// One faulted run and its verdicts: a fresh coordinator whose doors to
/// `cluster` carry `plan` drives the scripted workload and is dropped —
/// exactly a coordinator crash with the network gone; the shards and all
/// durable state survive. A fault that never fired must leave a clean
/// run, a link the fault landed on must never be used again, and
/// [`verify_recovery`] must hold.
pub fn run_with_fault<S: Shards>(cluster: S, plan: &NetFaultPlan) {
    let (acked, error, devices) = match faulty_coordinator(&cluster, plan) {
        Ok(mut coord) => {
            let (acked, error) = drive_cluster_workload(&mut coord);
            (acked, error.map(|e| e.to_string()), Some(coord.devices()))
        }
        Err(e) => (Vec::new(), Some(e.to_string()), None),
    };
    if !plan.fired() {
        assert!(
            error.is_none() && acked.len() == CLUSTER_TXNS,
            "{plan:?} never fired yet the run failed: {error:?}"
        );
    }
    assert_eq!(
        plan.reused(),
        0,
        "{plan:?}: the coordinator called a shard again after its link failed"
    );
    verify_recovery(cluster, &acked, devices);
}

/// Verify the standing contract on what a finished run left behind — the
/// shards, the transactions whose commit was acknowledged, and the
/// coordinator's durable devices (its decision log), if it got far enough
/// to exist — in two layers:
///
/// 1. **Resolve over live shards**: restart "the coordinator node" over
///    the same durable devices and *fresh* doors to the same shards —
///    [`Coordinator::recover_over`] replays the decision log and delivers
///    a Resolve round — then read the table through the recovered
///    coordinator and compare against the acked expectation.
/// 2. **Shard restart**: recover every shard engine from durable state
///    alone (with the replayed committed set resolving in-doubt
///    prepares), re-gather the fragments, and compare again — also
///    asserting every member sits on the shard its hash routes to.
pub fn verify_recovery<S: Shards>(cluster: S, acked: &[usize], devices: Option<(Storage, Wal)>) {
    let expected = expected_set(acked);
    let engines = cluster.engines().to_vec();

    // Layer 1: resolve against the live shards.
    let committed: BTreeSet<u64> = match devices {
        Some((storage, wal)) => {
            let doors: Result<Vec<_>, _> = (0..engines.len()).map(|i| cluster.open(i)).collect();
            let doors = doors.unwrap_or_else(|e| panic!("fresh doors after the run: {e}"));
            let mut coord = Coordinator::recover_over(doors, storage, wal)
                .unwrap_or_else(|e| panic!("coordinator recovery over live shards: {e}"));
            let got = match coord.get(CLUSTER_TABLE) {
                Ok(set) => set,
                // No shard knows the table: nothing was ever written.
                Err(_) if acked.is_empty() => ExtendedSet::empty(),
                Err(e) => panic!("cluster read after recovery failed: {e}"),
            };
            assert_eq!(
                got, expected,
                "recovered cluster must hold exactly the acked transactions (acked {acked:?})"
            );
            coord.committed_gtxns().into_iter().collect()
        }
        None => BTreeSet::new(),
    };

    // Layer 2: every shard restarts from durable state; whatever served
    // the engines (and every session thread) stops first.
    drop(cluster);
    let catalog = [(CLUSTER_TABLE, member_schema())];
    let mut fragments = Vec::with_capacity(engines.len());
    for (i, engine) in engines.iter().enumerate() {
        let recovered = engine
            .recover_with_decisions(&catalog, &committed)
            .expect("shard recovery");
        let frag = match recovered.latest_identity(CLUSTER_TABLE) {
            Ok(identity) => records_identity_to_set(&identity).expect("fragment identity decodes"),
            Err(_) => ExtendedSet::empty(),
        };
        for m in frag.members() {
            let rec = Record::new([m.element.clone(), m.scope.clone()]);
            assert_eq!(
                shard_of(&rec, CLUSTER_SHARDS),
                i,
                "member {m:?} recovered on shard {i} but routes elsewhere"
            );
        }
        fragments.push(frag);
    }
    let restarted = gather(&fragments);
    assert_eq!(
        restarted, expected,
        "restarted shards must hold exactly the acked transactions (acked {acked:?})"
    );
}

/// The full deterministic sweep for one fault kind: [`run_with_fault`],
/// in process, with `kind` at every message site of the scripted
/// workload. `sites` comes from [`count_message_sites`]. Returns how many
/// runs actually saw their fault fire (callers assert it is the whole
/// range — otherwise the sweep went vacuous).
pub fn sweep_fault_kind(sites: u64, kind: NetFaultKind) -> u64 {
    let fired = |&site: &u64| {
        let plan = NetFaultPlan::at_site(site, kind);
        run_with_fault(shard_engines(CLUSTER_SHARDS), &plan);
        plan.fired()
    };
    (0..sites).filter(fired).count() as u64
}
