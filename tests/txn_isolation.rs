//! Transaction isolation suite: snapshot isolation, first-committer-wins,
//! and the deterministic interleaving sweep against the sequential oracle.
//!
//! The sweep is the tentpole check: every enumerable schedule of small
//! concurrent workloads must be final-state serializable — some serial
//! order of the transactions that actually committed produces the same
//! table. The harness must also *convict* a deliberately broken conflict
//! check, proving the oracle has teeth.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use xst_core::Value;
use xst_storage::{Record, Schema, Storage, StorageError, TxnManager, Wal};
use xst_testkit::sched::{
    check_schedule, enumerate_schedules, find_serial_equivalent, kv_schema, random_schedule, row,
    run_schedule, schedule_count, serial_rows, steps_of, Op, Script, TABLE,
};

fn fresh() -> TxnManager {
    let mgr = TxnManager::new(&Storage::new(), Wal::new());
    mgr.create_table(TABLE, kv_schema()).unwrap();
    mgr
}

// ---------------------------------------------------------------------------
// Direct isolation properties.
// ---------------------------------------------------------------------------

#[test]
fn snapshot_reads_are_stable_under_concurrent_commits() {
    let mgr = fresh();
    mgr.autocommit_insert(TABLE, &[row(1, 10), row(2, 20)])
        .unwrap();
    let mut reader = mgr.begin();
    let first = reader.scan(TABLE).unwrap();
    // Ten commits land while the reader stays open; its view never moves,
    // through both raw scans and the identity a query plans over.
    for i in 0..10 {
        mgr.autocommit_insert(TABLE, &[row(100 + i, i)]).unwrap();
        assert_eq!(reader.scan(TABLE).unwrap(), first, "scan after commit {i}");
        let identity = reader.read_identity(TABLE).unwrap();
        assert_eq!(identity.card(), 2, "identity after commit {i}");
    }
    assert_eq!(
        mgr.begin().scan(TABLE).unwrap().len(),
        12,
        "new txns see all"
    );
}

#[test]
fn read_your_own_writes_and_abort_discards_them() {
    let mgr = fresh();
    mgr.autocommit_insert(TABLE, &[row(1, 10)]).unwrap();
    let mut txn = mgr.begin();
    txn.insert(TABLE, row(2, 20)).unwrap();
    txn.delete(TABLE, row(1, 10)).unwrap();
    assert_eq!(txn.scan(TABLE).unwrap(), vec![row(2, 20)]);
    txn.abort();
    assert_eq!(
        mgr.begin().scan(TABLE).unwrap(),
        vec![row(1, 10)],
        "abort undone"
    );
    // An implicitly dropped transaction aborts too.
    let mut dropped = mgr.begin();
    dropped.insert(TABLE, row(9, 90)).unwrap();
    drop(dropped);
    assert_eq!(mgr.begin().scan(TABLE).unwrap(), vec![row(1, 10)]);
}

#[test]
fn first_committer_wins_and_loser_can_rerun() {
    let mgr = fresh();
    mgr.autocommit_insert(TABLE, &[row(1, 0)]).unwrap();
    let mut t1 = mgr.begin();
    let mut t2 = mgr.begin();
    for t in [&mut t1, &mut t2] {
        t.delete(TABLE, row(1, 0)).unwrap();
        t.insert(TABLE, row(1, 1)).unwrap();
    }
    t1.commit().unwrap();
    match t2.commit() {
        Err(StorageError::TxnConflict { table, .. }) => assert_eq!(table, TABLE),
        other => panic!("expected TxnConflict, got {other:?}"),
    }
    // The standard client response: re-run against a fresh snapshot.
    let mut retry = mgr.begin();
    retry.delete(TABLE, row(1, 1)).unwrap();
    retry.insert(TABLE, row(1, 2)).unwrap();
    retry.commit().unwrap();
    assert_eq!(mgr.begin().scan(TABLE).unwrap(), vec![row(1, 2)]);
}

// ---------------------------------------------------------------------------
// The interleaving sweep: exhaustive schedules vs the sequential oracle.
// ---------------------------------------------------------------------------

/// Sweep every interleaving of `scripts`, asserting each outcome has a
/// serial witness. Serial outcomes are precomputed per committed-subset
/// permutation (they depend only on which transactions committed, not on
/// the schedule), so the sweep cost is one scheduled run per schedule.
fn sweep_all(scripts: &[Script]) -> usize {
    let n = scripts.len();
    // Precompute the oracle for every permutation of every subset.
    let mut oracle: BTreeMap<Vec<usize>, Vec<Record>> = BTreeMap::new();
    let mut perms_of_subsets = vec![vec![]];
    for mask in 0u32..(1 << n) {
        let members: Vec<usize> = (0..n).filter(|i| mask & (1 << i) != 0).collect();
        perms_of_subsets.extend(permute(&members));
    }
    for perm in perms_of_subsets {
        oracle
            .entry(perm)
            .or_insert_with_key(|p| serial_rows(scripts, p));
    }
    let schedules = enumerate_schedules(&steps_of(scripts));
    for schedule in &schedules {
        let outcome = run_schedule(scripts, schedule, false);
        let committed: Vec<usize> = (0..n).filter(|&i| outcome.committed[i]).collect();
        let witnessed = permute(&committed)
            .into_iter()
            .any(|perm| oracle[&perm] == outcome.final_rows);
        assert!(
            witnessed,
            "schedule {schedule:?} over {scripts:?} is not serializable: \
             committed={committed:?}, final_rows={:?}",
            outcome.final_rows
        );
    }
    schedules.len()
}

fn permute(items: &[usize]) -> Vec<Vec<usize>> {
    if items.is_empty() {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for (i, &x) in items.iter().enumerate() {
        let mut rest = items.to_vec();
        rest.remove(i);
        for mut tail in permute(&rest) {
            tail.insert(0, x);
            out.push(tail);
        }
    }
    out
}

#[test]
fn two_txn_two_op_sweep_enumerates_exactly_twenty_schedules() {
    // The acceptance-criteria case: 2 transactions × 2 ops each = (3+3)
    // steps, C(6,3) = 20 interleavings, every one serializable.
    let scripts: Vec<Script> = vec![
        vec![Op::Increment(1), Op::Insert(2)],
        vec![Op::Increment(1), Op::Delete(2)],
    ];
    assert_eq!(schedule_count(&steps_of(&scripts)), 20);
    assert_eq!(sweep_all(&scripts), 20);
}

#[test]
fn exhaustive_sweep_small_workloads() {
    // A spread of ≤3-transaction, ≤3-op workloads chosen for maximal
    // contention: read-modify-writes on shared keys, blind inserts,
    // deletes of rows another transaction recreates.
    let workloads: Vec<Vec<Script>> = vec![
        vec![vec![Op::Increment(1)], vec![Op::Increment(1)]],
        vec![
            vec![Op::Insert(1), Op::Delete(1)],
            vec![Op::Increment(1), Op::Read],
        ],
        vec![
            vec![Op::Increment(1), Op::Increment(2), Op::Read],
            vec![Op::Increment(2), Op::Increment(1)],
        ],
        vec![
            vec![Op::Increment(1)],
            vec![Op::Increment(1)],
            vec![Op::Increment(1)],
        ],
        vec![
            vec![Op::Insert(1), Op::Increment(1)],
            vec![Op::Delete(1), Op::Insert(3)],
            vec![Op::Read, Op::Increment(3)],
        ],
    ];
    let mut total = 0;
    for scripts in &workloads {
        total += sweep_all(scripts);
    }
    // C(4,2) + C(6,3) + C(7,3) + 6!/2!³ + 9!/3!³ — the sweep really
    // enumerated them all.
    assert_eq!(total, 6 + 20 + 35 + 90 + 1680);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "34 650 schedules; run in release (CI does)"
)]
fn exhaustive_sweep_three_by_three() {
    // The full 3-transaction × 3-op case: 12!/(4!)³ = 34 650 schedules.
    let scripts: Vec<Script> = vec![
        vec![Op::Increment(1), Op::Insert(2), Op::Read],
        vec![Op::Increment(1), Op::Delete(2), Op::Increment(3)],
        vec![Op::Insert(2), Op::Increment(3), Op::Increment(1)],
    ];
    assert_eq!(sweep_all(&scripts), 34_650);
}

#[test]
fn broken_conflict_detection_is_convicted_by_the_sweep() {
    // The guard test: with first-committer-wins disabled, at least one
    // schedule must produce an outcome NO serial order explains. If the
    // harness can't convict a deliberately broken implementation, its
    // green runs mean nothing.
    let scripts: Vec<Script> = vec![vec![Op::Increment(1)], vec![Op::Increment(1)]];
    let mut convicted = 0;
    for schedule in enumerate_schedules(&steps_of(&scripts)) {
        let outcome = run_schedule(&scripts, &schedule, true);
        if find_serial_equivalent(&scripts, &outcome).is_none() {
            convicted += 1;
        }
    }
    assert!(
        convicted > 0,
        "the oracle must flag lost updates under broken conflict detection"
    );
    // And the correct implementation passes every one of the same schedules.
    for schedule in enumerate_schedules(&steps_of(&scripts)) {
        check_schedule(&scripts, &schedule, false);
    }
}

// ---------------------------------------------------------------------------
// Seed-replayable randomized schedules beyond the exhaustive envelope.
// ---------------------------------------------------------------------------

fn arb_script(max_ops: usize) -> impl Strategy<Value = Script> {
    let op = prop_oneof![
        (1i64..4).prop_map(Op::Insert),
        (1i64..4).prop_map(Op::Delete),
        (1i64..4).prop_map(Op::Increment),
        Just(Op::Read),
    ];
    prop::collection::vec(op, 1..max_ops + 1)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Random 2–4-transaction workloads under seed-replayable random
    /// schedules: every outcome must have a serial witness. A failure
    /// prints the scripts and the schedule seed — rerunning with that seed
    /// replays the exact interleaving.
    #[test]
    fn randomized_schedules_are_serializable(
        scripts in prop::collection::vec(arb_script(4), 2..5),
        seed in any::<u64>(),
    ) {
        let schedule = random_schedule(&steps_of(&scripts), seed);
        let outcome = run_schedule(&scripts, &schedule, false);
        prop_assert!(
            find_serial_equivalent(&scripts, &outcome).is_some(),
            "seed {seed}: schedule {schedule:?} not serializable; \
             committed={:?} final={:?}",
            outcome.committed,
            outcome.final_rows
        );
    }

    /// Whatever the schedule, a committed increment is never lost: the
    /// final value at each key equals the number of committed increments
    /// of that key (when increments are the only ops in play).
    #[test]
    fn committed_increments_are_never_lost(
        per_txn in prop::collection::vec((1i64..3, 1usize..4), 2..4),
        seed in any::<u64>(),
    ) {
        let scripts: Vec<Script> = per_txn
            .iter()
            .map(|&(k, n)| vec![Op::Increment(k); n])
            .collect();
        let schedule = random_schedule(&steps_of(&scripts), seed);
        let outcome = run_schedule(&scripts, &schedule, false);
        for key in 1i64..3 {
            let expected: i64 = per_txn
                .iter()
                .zip(&outcome.committed)
                .filter(|&(&(k, _), &c)| c && k == key)
                .map(|(&(_, n), _)| n as i64)
                .sum();
            let got = outcome
                .final_rows
                .iter()
                .filter(|r| r.values().first() == Some(&Value::Int(key)))
                .map(|r| match r.values().get(1) {
                    Some(Value::Int(v)) => *v,
                    _ => 0,
                })
                .sum::<i64>();
            prop_assert_eq!(got, expected, "seed {}, key {}", seed, key);
        }
    }
}

// ---------------------------------------------------------------------------
// Real threads: snapshot readers do not block — or observe — a writer.
// ---------------------------------------------------------------------------

#[test]
fn concurrent_readers_never_observe_intermediate_states() {
    // The writer commits atomic PAIRS: every commit inserts ⟨i, i⟩ and
    // ⟨1000+i, i⟩ in one transaction. The invariant every reader checks:
    // low-key rows and high-key rows always balance. A torn (partially
    // visible) commit would break it instantly.
    let mgr = fresh();
    let stop = Arc::new(AtomicBool::new(false));
    // Each reader reports its first checked snapshot; the writer waits for
    // one report halfway through, so "alongside the writer" is forced by
    // the handshake and not by 200 commits outlasting a thread start.
    let (first_check, first_checks) = std::sync::mpsc::channel::<()>();
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let mgr = mgr.clone();
            let stop = Arc::clone(&stop);
            let first_check = first_check.clone();
            std::thread::spawn(move || {
                let mut snapshots_checked = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let mut txn = mgr.begin();
                    let rows = txn.scan(TABLE).unwrap();
                    let low = rows
                        .iter()
                        .filter(|r| matches!(r.values().first(), Some(Value::Int(k)) if *k < 1000))
                        .count();
                    assert_eq!(rows.len(), low * 2, "intermediate state observed: {rows:?}");
                    // Pinned snapshots stay stable while held.
                    assert_eq!(txn.scan(TABLE).unwrap(), rows);
                    txn.commit().unwrap();
                    snapshots_checked += 1;
                    if snapshots_checked == 1 {
                        let _ = first_check.send(());
                    }
                }
                snapshots_checked
            })
        })
        .collect();
    drop(first_check);
    for i in 0..200i64 {
        if i == 100 {
            first_checks
                .recv()
                .expect("a reader checks a snapshot while the writer is mid-stream");
        }
        let mut txn = mgr.begin();
        txn.insert(TABLE, row(i, i)).unwrap();
        txn.insert(TABLE, row(1000 + i, i)).unwrap();
        txn.commit().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let checked: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(checked > 0, "readers made progress alongside the writer");
    assert_eq!(mgr.begin().scan(TABLE).unwrap().len(), 400);
}

// ---------------------------------------------------------------------------
// Durability wiring: the commit path really is the group-commit WAL path.
// ---------------------------------------------------------------------------

#[test]
fn committed_schedule_outcomes_survive_recovery() {
    let storage = Storage::new();
    let wal = Wal::new();
    let mgr = TxnManager::new(&storage, wal.clone());
    mgr.create_table(TABLE, kv_schema()).unwrap();
    mgr.create_table("other", Schema::new(["k", "v"])).unwrap();
    // Two committed transactions (one multi-table), one conflict-aborted,
    // one in-flight at crash time.
    mgr.autocommit_insert(TABLE, &[row(1, 0)]).unwrap();
    let mut t1 = mgr.begin();
    let mut t2 = mgr.begin();
    for t in [&mut t1, &mut t2] {
        t.delete(TABLE, row(1, 0)).unwrap();
        t.insert(TABLE, row(1, 1)).unwrap();
    }
    t1.insert("other", row(7, 70)).unwrap();
    t1.commit().unwrap();
    assert!(t2.commit().is_err(), "t2 loses first-committer-wins");
    let mut inflight = mgr.begin();
    inflight.insert(TABLE, row(9, 90)).unwrap();
    std::mem::forget(inflight); // crash with the txn open
    let expected = mgr.begin().scan(TABLE).unwrap();
    drop(mgr);
    wal.drop_staged(); // staged-but-unacknowledged bytes die with the process
    let recovered = TxnManager::recover(
        &storage,
        wal,
        Wal::new(),
        &[(TABLE, kv_schema()), ("other", Schema::new(["k", "v"]))],
    )
    .unwrap();
    assert_eq!(recovered.begin().scan(TABLE).unwrap(), expected);
    assert_eq!(recovered.begin().scan("other").unwrap(), vec![row(7, 70)]);
}
