//! # xst-storage — data representations with mathematical identity
//!
//! The storage substrate for the XST reproduction. The VLDB-1977 program
//! models *stored* data — records, pages, files, indexes — as extended
//! sets, so data management becomes validated set processing. This crate
//! supplies the stack under that claim:
//!
//! * [`xst_core::codec`] — the bit-exact binary codec for any nested
//!   [`xst_core::Value`] lives beside `Value`; pages, the WAL and shard
//!   routing call it there;
//! * [`page`] — slotted 4 KiB pages;
//! * [`bufpool`] — a simulated disk and an LRU buffer pool that **count
//!   page transfers** (our stand-in for 1977 disk behavior; the experiments
//!   read their I/O costs here);
//! * [`record`] — records/files and their set identities (positional and
//!   named);
//! * [`mod@file`] — heap files of encoded records;
//! * [`index`] — sorted secondary indexes (restriction pushdown);
//! * [`engine`] — the *set-processing* engine vs the *record-processing*
//!   baseline over identical storage;
//! * [`restructure`] — dynamic restructuring as re-scoping vs record
//!   rewriting;
//! * [`mod@snapshot`] — checksummed whole-disk backup/restore images;
//! * [`parallel`] — multi-threaded identity loading over page ranges;
//! * [`wal`] — write-ahead logging, group commit, and crash recovery;
//! * [`fault`] — deterministic fault injection at numbered I/O sites;
//! * [`retry`] — bounded retry with deterministic exponential backoff;
//! * [`colstore`] — the same relation under a column-oriented identity;
//! * [`txn`] — snapshot-isolated transactions over versioned set
//!   identities (first committer wins, group-commit durability);
//! * [`shard`] — hash-partitioned engines with scatter-gather reads and
//!   two-phase-commit cross-shard atomicity;
//! * [`twopc`] — the one decision log and the one commit round that
//!   [`shard`] and the wire coordinator in `xst-client` both run.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bufpool;
pub mod colstore;
pub mod engine;
pub mod error;
pub mod fault;
pub mod file;
pub mod index;
pub mod page;
pub mod parallel;
pub mod record;
pub mod restructure;
pub mod retry;
pub mod shard;
pub mod snapshot;
pub mod twopc;
pub mod txn;
pub mod wal;

pub use bufpool::{
    BufferPool, FileId, IoStats, PageId, ShardStats, Storage, STORAGE_METRIC_PREFIX,
};
pub use colstore::ColumnTable;
pub use engine::{RecordEngine, SetEngine, Table};
pub use error::{StorageError, StorageResult};
pub use fault::{FaultKind, FaultPlan, FaultSchedule, Injection, SiteClass};
pub use file::{HeapFile, RecordId};
pub use index::Index;
pub use page::{Page, MAX_RECORD, PAGE_SIZE};
pub use parallel::load_identity_parallel;
pub use record::{file_identity, Record, Schema};
pub use restructure::{restructure_records, restructure_set, Restructuring};
pub use retry::{with_retry, RetryPolicy};
pub use shard::{route_members, shard_of, ShardedEngine, ShardedTxn};
pub use snapshot::{restore, snapshot};
pub use twopc::DecisionLog;
pub use txn::{CommitTs, RecoveredParticipant, Txn, TxnId, TxnManager, TxnOp};
pub use wal::{Checkpoint, LoggedTable, Wal};
