//! Version reclaim: chains are bounded by the readers, not by history.
//!
//! The invariant under test is the one `xst-storage/src/txn.rs` states:
//! every version a live `begin_ts` can read or must validate against is
//! retained — the version visible at the oldest open snapshot and every
//! version after it — and nothing else is. Commits publish one folded
//! delta per table, so the same scripts also pin what a multi-op
//! transaction leaves behind, live, prepared and recovered.

use std::collections::BTreeSet;
use xst_core::Value;
use xst_storage::{Record, Schema, ShardedEngine, Storage, StorageError, Txn, TxnManager, Wal};

fn kv() -> Schema {
    Schema::new(["k", "v"])
}

fn row(k: i64, v: i64) -> Record {
    Record::new([Value::Int(k), Value::Int(v)])
}

fn fresh() -> (Storage, Wal, TxnManager) {
    let storage = Storage::new();
    let wal = Wal::new();
    let mgr = TxnManager::new(&storage, wal.clone());
    mgr.create_table("t", kv()).unwrap();
    (storage, wal, mgr)
}

/// What `txn` sees of `t`, as a set (a scan is in canonical member order,
/// which is not the order of `Record`).
fn seen(txn: &mut Txn) -> BTreeSet<Record> {
    txn.scan("t").unwrap().into_iter().collect()
}

/// One sliding-window commit: put rows `[at, at + 8)`, delete the 8 rows
/// `window` behind them.
fn slide(mgr: &TxnManager, at: i64, window: i64) {
    let mut txn = mgr.begin();
    for k in at..at + 8 {
        txn.insert("t", row(k, k)).unwrap();
        txn.delete("t", row(k - window, k - window)).unwrap();
    }
    txn.commit().unwrap();
}

#[test]
fn a_pinned_reader_keeps_its_snapshot_and_bounds_the_cut() {
    let (_s, _w, mgr) = fresh();
    for k in 0..6 {
        mgr.autocommit_insert("t", &[row(k, 0)]).unwrap();
        assert_eq!(
            mgr.version_count("t").unwrap(),
            1,
            "nothing open: head only"
        );
    }
    // Pre-history plus five superseded heads are gone.
    assert_eq!(mgr.versions_reclaimed(), 6);
    let snapshot: BTreeSet<Record> = (0..6).map(|k| row(k, 0)).collect();

    // One reader pins its identity now; the other has not read anything
    // when the commits land, so only its begin timestamp protects it.
    let mut eager = mgr.begin();
    let mut lazy = mgr.begin();
    assert_eq!(seen(&mut eager), snapshot);
    for i in 0..200 {
        mgr.autocommit_insert("t", &[row(100 + i, 0)]).unwrap();
    }
    // Retained: the readers' version and the 200 after it (their write
    // sets are what the readers would validate against). Reclaimed:
    // nothing new.
    assert_eq!(mgr.version_count("t").unwrap(), 201);
    assert_eq!(mgr.versions_reclaimed(), 6);
    assert_eq!(seen(&mut eager), snapshot);
    assert_eq!(seen(&mut lazy), snapshot);

    // The oldest reader going does not move the watermark past the other.
    eager.abort();
    mgr.autocommit_insert("t", &[row(900, 0)]).unwrap();
    assert_eq!(mgr.version_count("t").unwrap(), 202);
    assert_eq!(seen(&mut lazy), snapshot);

    // The first commit after the last reader ends collapses the chain.
    drop(lazy);
    mgr.autocommit_insert("t", &[row(901, 0)]).unwrap();
    assert_eq!(mgr.version_count("t").unwrap(), 1);
    assert_eq!(mgr.versions_retained(), 1);
    assert_eq!(mgr.versions_reclaimed(), 6 + 202);
    assert_eq!(seen(&mut mgr.begin()).len(), 6 + 200 + 2);
}

#[test]
fn a_reader_bounds_every_table_not_only_the_written_one() {
    let (_s, _w, mgr) = fresh();
    mgr.create_table("u", kv()).unwrap();
    let reader = mgr.begin();
    for i in 0..10 {
        mgr.autocommit_insert("u", &[row(i, 0)]).unwrap();
    }
    assert_eq!(mgr.version_count("u").unwrap(), 11);
    drop(reader);
    // A commit on `t` alone cuts `u`'s chain too: the cut is per publish,
    // across the manager.
    mgr.autocommit_insert("t", &[row(0, 0)]).unwrap();
    assert_eq!(mgr.version_count("u").unwrap(), 1);
    assert_eq!(mgr.version_count("t").unwrap(), 1);
}

#[test]
fn a_writer_at_the_watermark_still_conflicts_with_a_later_committer() {
    let (_s, _w, mgr) = fresh();
    mgr.autocommit_insert("t", &[row(1, 10)]).unwrap();
    // `writer` is the oldest open transaction: its begin_ts IS the
    // watermark for everything that follows.
    let mut writer = mgr.begin();
    writer.delete("t", row(1, 10)).unwrap();
    writer.insert("t", row(1, 11)).unwrap();
    let mut rival = mgr.begin();
    rival.delete("t", row(1, 10)).unwrap();
    rival.insert("t", row(1, 12)).unwrap();
    rival.commit().unwrap();
    // Plenty of unrelated commits, each one a chance to cut too far.
    for i in 0..50 {
        mgr.autocommit_insert("t", &[row(100 + i, 0)]).unwrap();
    }
    match writer.commit() {
        Err(StorageError::TxnConflict { table, .. }) => assert_eq!(table, "t"),
        other => panic!("the rival's write set must still be there to lose against: {other:?}"),
    }
    // The conflicted writer released its pin on the way out.
    mgr.autocommit_insert("t", &[row(999, 0)]).unwrap();
    assert_eq!(mgr.version_count("t").unwrap(), 1);
    assert!(seen(&mut mgr.begin()).contains(&row(1, 12)));
}

#[test]
fn a_prepared_transaction_decided_after_intervening_commits_publishes_on_the_new_head() {
    let engine = ShardedEngine::with_shards(2);
    engine.create_table("t", kv()).unwrap();
    let base: Vec<Record> = (0..16).map(|k| row(k, 0)).collect();
    engine.autocommit_insert("t", &base).unwrap();

    // Prepare a multi-op, multi-shard transaction: rewrite every base row,
    // with a repeat (`insert; delete; insert`) folded in.
    let mut txn = engine.begin();
    for k in 0..16 {
        txn.delete("t", row(k, 0)).unwrap();
        txn.insert("t", row(k, 1)).unwrap();
    }
    txn.insert("t", row(50, 0)).unwrap();
    txn.delete("t", row(50, 0)).unwrap();
    txn.insert("t", row(50, 0)).unwrap();
    assert_eq!(engine.prepare_external(txn, 7).unwrap(), 2);

    // Its pins are gone with the validation, so commits landing before
    // the decision cut each shard's chain to the head...
    for i in 0..20 {
        engine.autocommit_insert("t", &[row(100 + i, 0)]).unwrap();
    }
    for shard in 0..2 {
        assert_eq!(engine.shard_mgr(shard).version_count("t").unwrap(), 1);
    }
    // ...and the decision publishes the prepared delta onto that head.
    engine.commit_external(7).unwrap();
    let mut want: BTreeSet<Record> = (0..16).map(|k| row(k, 1)).collect();
    want.insert(row(50, 0));
    want.extend((0..20).map(|i| row(100 + i, 0)));
    let mut check = engine.begin();
    let got: BTreeSet<Record> = check.scan("t").unwrap().into_iter().collect();
    assert_eq!(got, want);
    check.abort();
    for shard in 0..2 {
        assert!(engine.shard_mgr(shard).version_count("t").unwrap() <= 2);
    }
}

#[test]
fn a_log_of_multi_op_transactions_recovers_the_identity_it_published() {
    let (storage, wal, mgr) = fresh();
    let mut model: BTreeSet<Record> = BTreeSet::new();
    // Scripts with everything the fold has to get right: repeats on one
    // row, deletes of absent rows, duplicate inserts, and rows that later
    // transactions touch again.
    for t in 0..40i64 {
        let mut txn = mgr.begin();
        for j in 0..6i64 {
            let r = row((t * 7 + j * 3) % 11, (t + j) % 2);
            if (t + j) % 3 == 0 {
                txn.delete("t", r.clone()).unwrap();
                model.remove(&r);
            } else {
                txn.insert("t", r.clone()).unwrap();
                model.insert(r.clone());
            }
            if j % 2 == 0 {
                // `insert r; delete r; insert r` / `delete r; insert r`
                txn.delete("t", r.clone()).unwrap();
                txn.insert("t", r.clone()).unwrap();
                model.insert(r);
            }
        }
        assert_eq!(seen(&mut txn), model, "txn {t} reads its own writes");
        txn.commit().unwrap();
    }
    let published = mgr.latest_identity("t").unwrap();
    drop(mgr); // crash
    let recovered = TxnManager::recover(&storage, wal, Wal::new(), &[("t", kv())]).unwrap();
    assert_eq!(*recovered.latest_identity("t").unwrap(), *published);
    assert_eq!(seen(&mut recovered.begin()), model);
    assert_eq!(recovered.version_count("t").unwrap(), 1);
}

/// Resident set size of this process, if the platform says.
fn rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The soak: 8 puts + 8 deletes per commit over a 2 000-member window, no
/// long reader. The chain must stay at the head and memory must plateau.
/// 10 000 commits in release; debug builds run a tenth (the per-commit
/// assertions are the same).
#[test]
fn soak_chain_and_memory_plateau() {
    const WINDOW: i64 = 2_000;
    let commits: i64 = if cfg!(debug_assertions) {
        1_000
    } else {
        10_000
    };
    let (_s, _w, mgr) = fresh();
    let base: Vec<Record> = (0..WINDOW).map(|k| row(k, k)).collect();
    mgr.autocommit_insert("t", &base).unwrap();
    let mut at = WINDOW;
    let mut rss_after_100 = None;
    for i in 0..commits {
        slide(&mgr, at, WINDOW);
        at += 8;
        assert!(mgr.versions_retained() <= 3, "commit {i}");
        if i == 100 {
            rss_after_100 = rss_kib();
        }
    }
    assert_eq!(mgr.version_count("t").unwrap(), 1);
    assert_eq!(mgr.latest_identity("t").unwrap().card(), WINDOW as usize);
    // One retained version is ~100 KiB here, so an unreclaimed chain would
    // have grown by ~1 GiB over the release soak. What legitimately grows
    // is the simulated log device (op log + WAL, kept in memory until WAL
    // truncation lands): 2.9 KiB per commit, 29 MiB over the release soak.
    if let (Some(before), Some(after)) = (rss_after_100, rss_kib()) {
        let grown = after.saturating_sub(before);
        assert!(
            grown < 64 * 1024,
            "RSS grew {grown} KiB over {commits} commits (from {before} KiB)"
        );
    }
}
