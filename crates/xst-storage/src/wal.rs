//! Write-ahead logging, group commit, and crash recovery.
//!
//! A [`HeapFile`](crate::file::HeapFile) keeps its tail page in memory until it fills; a crash
//! (process death, simulated here by dropping the handle) would lose those
//! records. [`LoggedTable`] stages every record into the log and
//! acknowledges an append only after the log *flushed* — one flush per
//! batch ([`LoggedTable::append_batch`]), the group-commit discipline. The
//! durability contract is exact:
//!
//! > **acknowledged ⇒ recoverable, unacknowledged ⇒ atomically absent.**
//!
//! [`LoggedTable::recover`] rebuilds a table from the surviving disk and
//! log, and the fault-injection harness (`xst-testkit`) checks the
//! contract at every enumerable crash site.
//!
//! Log frame layout (little-endian):
//!
//! ```text
//! len:u32 | crc32(len):u32 | payload (encoded record) | crc32(payload):u32
//! ```
//!
//! The length field carries its own checksum: a bit-flipped length can no
//! longer masquerade as a torn tail and silently swallow every later
//! record — garbage lengths are detected as corruption, while a genuinely
//! torn tail (incomplete final frame) still stops replay cleanly.
//!
//! Every successful flush seals its record frames with an 8-byte *commit
//! marker* (`len = u32::MAX | crc32(len)`, no payload). Replay buffers
//! frames and commits them only at a marker, so a torn flush that managed
//! to persist whole record frames — but not the trailing marker — leaves
//! the unacknowledged batch atomically absent instead of resurrecting it.
//!
//! The checkpoint position is a control record held *next to* the byte
//! stream (as a real system keeps it in a separately-fsynced control
//! file): [`Wal::checkpoint_mark`] atomically records how many heap pages
//! were durable at checkpoint time and truncates the log.

use crate::bufpool::{FileId, PageId, Storage};
use crate::engine::Table;
use crate::error::{StorageError, StorageResult};
use crate::fault::{FaultPlan, Injection, SiteClass};
use crate::record::{Record, Schema};
use crate::retry::{with_retry, RetryPolicy};
use bytes::{Buf, BufMut, BytesMut};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Instant;
use xst_core::crc::crc32;
use xst_obs::names::handle as m;

/// Bytes of framing around each payload: `len + crc32(len)` before,
/// `crc32(payload)` after.
const FRAME_OVERHEAD: usize = 12;

/// Sentinel length of a commit-marker frame. A real payload can never be
/// this long (the log itself would overflow first), so the value doubles
/// as the frame-type tag.
const MARKER_LEN: u32 = u32::MAX;

/// A commit marker is a bare header: sentinel length + its checksum.
const MARKER_SIZE: usize = 8;

/// The checkpoint control record: how much of the heap file was durable
/// when the log was last truncated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint {
    /// The heap file the checkpoint covers.
    pub file: FileId,
    /// Pages of that file that were flushed and fsynced at mark time.
    pub pages: usize,
}

#[derive(Default)]
struct WalInner {
    /// Bytes that survive a crash.
    durable: BytesMut,
    /// Frames appended but not yet flushed; process death loses them.
    staged: BytesMut,
    /// `durable.len()` as of the last successful flush — the tail beyond
    /// it is a torn in-flight flush, repaired before the next transfer.
    committed: usize,
    checkpoint: Option<Checkpoint>,
    faults: Option<FaultPlan>,
}

/// A shared, append-only log living outside the page store (as a real WAL
/// lives on a separate device).
#[derive(Clone, Default)]
pub struct Wal {
    inner: Arc<Mutex<WalInner>>,
}

impl Wal {
    /// Fresh empty log.
    pub fn new() -> Wal {
        Wal::default()
    }

    /// Install a fault-injection plan: every flush and checkpoint mark
    /// becomes a numbered fault site. Share one plan between a `Wal` and a
    /// [`Storage`] to number all I/O in one global execution order.
    pub fn install_faults(&self, plan: &FaultPlan) {
        self.inner.lock().faults = Some(plan.clone());
    }

    /// Remove the installed fault plan, if any.
    pub fn clear_faults(&self) {
        self.inner.lock().faults = None;
    }

    /// Stage one record payload without flushing. Staged frames are not
    /// durable — and not visible to [`Wal::records`] — until [`Wal::sync`]
    /// succeeds.
    // lint: unnumbered-io: staging fills a volatile buffer — bytes only hit the device in sync(), which claims the fault site
    pub fn append_staged(&self, payload: &[u8]) {
        let timer = xst_obs::enabled().then(Instant::now);
        let len = (payload.len() as u32).to_le_bytes();
        let mut inner = self.inner.lock();
        inner.staged.put_slice(&len);
        inner.staged.put_u32_le(crc32(&len));
        inner.staged.put_slice(payload);
        inner.staged.put_u32_le(crc32(payload));
        drop(inner);
        if let Some(t) = timer {
            m::STORAGE_WAL_APPEND_NS.observe_since(t);
            m::STORAGE_WAL_APPENDS_TOTAL.inc();
            m::STORAGE_WAL_BYTES_TOTAL.add(payload.len() as u64);
            xst_obs::cost::add_wal_append();
        }
    }

    /// Flush staged frames to durable storage — the fsync-equivalent
    /// commit point, and one fault site. On success everything staged is
    /// durable, sealed by one commit marker; on a torn flush a *strict
    /// prefix* of the flush persists (power-cut shape) but stays
    /// uncommitted — the marker never lands, so replay drops the partial
    /// batch and the next flush repairs the tail in place.
    pub fn sync(&self) -> StorageResult<()> {
        let timer = xst_obs::enabled().then(Instant::now);
        let mut inner = self.inner.lock();
        // Repair first: drop any torn tail a failed flush left behind.
        let committed = inner.committed;
        inner.durable.truncate(committed);
        let mut to_flush = inner.staged.to_vec();
        if !to_flush.is_empty() {
            let len_bytes = MARKER_LEN.to_le_bytes();
            to_flush.extend_from_slice(&len_bytes);
            to_flush.extend_from_slice(&crc32(&len_bytes).to_le_bytes());
        }
        match inner.faults.as_ref().and_then(|p| p.check(SiteClass::Sync)) {
            Some(Injection::Transient) => {
                return Err(StorageError::Transient {
                    op: "wal.sync".into(),
                })
            }
            Some(Injection::Torn(n)) => {
                // A torn flush by definition did not finish: at most
                // all-but-one byte persists, so the commit marker is
                // always incomplete and the batch stays unacknowledged.
                let keep = n.min(to_flush.len().saturating_sub(1));
                inner.durable.put_slice(&to_flush[..keep]);
                return Err(StorageError::Io {
                    op: "wal.sync".into(),
                    reason: format!("torn flush: {keep} bytes reached the log"),
                });
            }
            Some(_) => {
                return Err(StorageError::Io {
                    op: "wal.sync".into(),
                    reason: "flush failed".into(),
                })
            }
            None => {}
        }
        inner.staged.clear();
        inner.durable.put_slice(&to_flush);
        inner.committed = inner.durable.len();
        drop(inner);
        if let Some(t) = timer {
            m::STORAGE_WAL_FSYNC_NS.observe_since(t);
            xst_obs::cost::add_wal_fsync();
        }
        Ok(())
    }

    /// Stage and flush one payload — the non-batched convenience path.
    pub fn append(&self, payload: &[u8]) -> StorageResult<()> {
        self.append_staged(payload);
        self.sync()
    }

    /// Discard staged-but-unflushed frames. This is what process death
    /// does to them, and what [`LoggedTable`] does after a failed flush so
    /// no later flush can resurrect an unacknowledged batch.
    // lint: unnumbered-io: clears the volatile staging buffer — models process death, which no fault site can interrupt
    pub fn drop_staged(&self) {
        self.inner.lock().staged.clear();
    }

    /// Bytes staged but not yet flushed.
    // lint: unnumbered-io: length accessor on the volatile staging buffer, no device bytes move
    pub fn staged_len(&self) -> usize {
        self.inner.lock().staged.len()
    }

    /// Total durable log bytes.
    // lint: unnumbered-io: length accessor — reads no log bytes, so a crash here loses nothing
    pub fn len(&self) -> usize {
        self.inner.lock().durable.len()
    }

    /// True iff nothing durable has been logged.
    // lint: unnumbered-io: emptiness accessor — reads no log bytes, so a crash here loses nothing
    pub fn is_empty(&self) -> bool {
        self.inner.lock().durable.is_empty()
    }

    /// Decode every durable *committed* record, verifying checksums.
    /// Frames are buffered and only released by the commit marker that
    /// sealed their flush, so a torn final flush — whether it cut a frame
    /// mid-payload or persisted whole frames without the marker — stops
    /// the replay at the last acknowledged batch, like a real recovery
    /// scan. A corrupt *middle* record — payload damage or a garbage
    /// length field — is an error, never a silent truncation.
    // lint: unnumbered-io: recovery replay runs fault-free by design — the sweeps crash the writes that produced these bytes, not the scan that reads them back
    pub fn records(&self) -> StorageResult<Vec<Record>> {
        let inner = self.inner.lock();
        let mut slice: &[u8] = &inner.durable;
        let mut out = Vec::new();
        let mut pending = Vec::new();
        while !slice.is_empty() {
            if slice.len() < MARKER_SIZE {
                break; // torn frame header
            }
            let len_bytes = [slice[0], slice[1], slice[2], slice[3]];
            let header_crc = (&slice[4..8]).get_u32_le();
            if crc32(&len_bytes) != header_crc {
                // Without this check a corrupted length that overruns the
                // buffer would read as "torn tail" and drop every record
                // after it — the contract violation this frame fixes.
                return Err(StorageError::Corrupt {
                    reason: "wal frame length checksum mismatch".into(),
                });
            }
            let len = u32::from_le_bytes(len_bytes);
            if len == MARKER_LEN {
                // Commit marker: everything buffered since the previous
                // marker was acknowledged by one flush.
                out.append(&mut pending);
                slice.advance(MARKER_SIZE);
                continue;
            }
            let len = len as usize;
            if slice.len() < FRAME_OVERHEAD + len {
                break; // torn payload: the final flush didn't finish
            }
            let payload = &slice[8..8 + len];
            let stored_crc = (&slice[8 + len..8 + len + 4]).get_u32_le();
            if crc32(payload) != stored_crc {
                return Err(StorageError::Corrupt {
                    reason: "wal record checksum mismatch".into(),
                });
            }
            pending.push(Record::decode(payload)?);
            slice.advance(FRAME_OVERHEAD + len);
        }
        // `pending` holds frames of a flush whose marker never landed: an
        // unacknowledged batch, deliberately dropped.
        Ok(out)
    }

    /// Simulate media corruption: XOR `mask` into the durable byte at
    /// `offset`. Unlike a torn tail this damages the *middle* of the log,
    /// which replay must report as corruption, never silently truncate.
    // lint: unnumbered-io: test-only media-corruption injector — it IS the fault, not an operation a fault could interrupt
    pub fn flip_byte(&self, offset: usize, mask: u8) {
        let mut inner = self.inner.lock();
        if let Some(b) = inner.durable.get_mut(offset) {
            *b ^= mask;
        }
    }

    /// Simulate a torn tail: drop the final `n` durable bytes.
    // lint: unnumbered-io: test-only torn-write injector — it IS the fault, not an operation a fault could interrupt
    pub fn tear(&self, n: usize) {
        let mut inner = self.inner.lock();
        let keep = inner.durable.len().saturating_sub(n);
        inner.durable.truncate(keep);
        inner.committed = inner.committed.min(keep);
    }

    /// Wipe the log completely (durable bytes, staged bytes, checkpoint).
    // lint: unnumbered-io: test-harness wipe that models a fresh disk; nothing durable exists afterwards for a fault to bite
    pub fn reset(&self) {
        let mut inner = self.inner.lock();
        inner.durable.clear();
        inner.staged.clear();
        inner.committed = 0;
        inner.checkpoint = None;
    }

    /// Atomically record a checkpoint — `pages` pages of `file` are
    /// durable — and truncate the log. One fault site, all-or-nothing like
    /// the control-file rename it models: on failure the mark *and* the
    /// log bytes are unchanged.
    pub fn checkpoint_mark(&self, file: FileId, pages: usize) -> StorageResult<()> {
        let mut inner = self.inner.lock();
        match inner.faults.as_ref().and_then(|p| p.check(SiteClass::Sync)) {
            Some(Injection::Transient) => {
                return Err(StorageError::Transient {
                    op: "wal.checkpoint_mark".into(),
                })
            }
            Some(_) => {
                return Err(StorageError::Io {
                    op: "wal.checkpoint_mark".into(),
                    reason: "checkpoint mark failed".into(),
                })
            }
            None => {}
        }
        inner.durable.clear();
        inner.staged.clear();
        inner.committed = 0;
        inner.checkpoint = Some(Checkpoint { file, pages });
        Ok(())
    }

    /// The last successfully recorded checkpoint, if any.
    // lint: unnumbered-io: checkpoint metadata accessor — the mark itself is written by checkpoint_mark under a numbered site
    pub fn checkpoint(&self) -> Option<Checkpoint> {
        self.inner.lock().checkpoint
    }
}

/// A table whose appends are write-ahead logged and group-committed.
pub struct LoggedTable {
    /// The underlying table.
    pub table: Table,
    wal: Wal,
    retry: RetryPolicy,
    wedged: bool,
}

impl LoggedTable {
    /// Create a logged table.
    pub fn create(storage: &Storage, schema: Schema, wal: Wal) -> LoggedTable {
        LoggedTable {
            table: Table::create(storage, schema),
            wal,
            retry: RetryPolicy::default(),
            wedged: false,
        }
    }

    /// Replace the retry policy for WAL flushes, checkpoint marks, and the
    /// heap flushes underneath.
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> LoggedTable {
        self.set_retry_policy(retry);
        self
    }

    pub(crate) fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
        self.table.file.set_retry_policy(retry);
    }

    /// Append one record: a batch of one.
    pub fn append(&mut self, record: &Record) -> StorageResult<()> {
        self.append_batch(std::slice::from_ref(record)).map(|_| ())
    }

    /// Group commit: stage every record, acknowledge the whole batch with
    /// ONE log flush, then apply to the heap. The contract:
    ///
    /// * `Ok(n)` ⇒ all `n` records are durable in the log — a crash at any
    ///   later point recovers them;
    /// * `Err(_)` ⇒ *no* record of the batch is durable — the staged
    ///   frames are discarded, so they are atomically absent after any
    ///   crash or any later successful commit.
    ///
    /// A post-acknowledge heap failure cannot revoke the acknowledgment
    /// (the records are already durable); it wedges the handle instead,
    /// and every later call fails with
    /// [`StorageError::NeedsRecovery`] until [`LoggedTable::recover`].
    pub fn append_batch(&mut self, records: &[Record]) -> StorageResult<usize> {
        self.check_wedged()?;
        for r in records {
            r.conforms(&self.table.schema)?;
        }
        if records.is_empty() {
            return Ok(0);
        }
        for r in records {
            self.wal.append_staged(&r.encode());
        }
        // The commit point: one flush acknowledges the whole batch.
        if let Err(e) = with_retry(&self.retry, || self.wal.sync()) {
            self.wal.drop_staged();
            return Err(e);
        }
        m::STORAGE_WAL_GROUP_COMMITS_TOTAL.inc();
        m::STORAGE_WAL_GROUP_COMMIT_RECORDS_TOTAL.add(records.len() as u64);
        // Acknowledged: apply to the heap. Failure past the commit point
        // wedges the handle — the records stay recoverable from the log.
        for r in records {
            if self.table.file.append(r).is_err() {
                self.wedged = true;
                break;
            }
        }
        Ok(records.len())
    }

    /// Checkpoint: flush the heap's tail page, then atomically mark the
    /// covered page count and truncate the log. On failure the old
    /// checkpoint still stands and the log still covers everything after
    /// it — a failed checkpoint never loses acknowledged records.
    pub fn checkpoint(&mut self) -> StorageResult<()> {
        self.check_wedged()?;
        self.table.file.sync()?;
        let file = self.table.file.file_id();
        let pages = self.table.file.flushed_page_count()?;
        with_retry(&self.retry, || self.wal.checkpoint_mark(file, pages))
    }

    /// True iff a post-acknowledge heap failure wedged this handle; only
    /// [`LoggedTable::recover`] gets the data back into a usable table.
    pub fn is_wedged(&self) -> bool {
        self.wedged
    }

    fn check_wedged(&self) -> StorageResult<()> {
        if self.wedged {
            return Err(StorageError::NeedsRecovery {
                reason: "acknowledged records were not applied to the heap; \
                         recover from the write-ahead log"
                    .into(),
            });
        }
        Ok(())
    }

    /// The write-ahead log.
    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    /// Recover after a crash: read the heap pages the last checkpoint
    /// vouches for (the mark is written only after those pages were
    /// durable, so they are never torn), then replay the log — which holds
    /// every record acknowledged since that checkpoint. Heap pages flushed
    /// *after* the mark duplicate log records and are deliberately
    /// ignored. Ends with a checkpoint of the rebuilt table, so the result
    /// is immediately durable.
    pub fn recover(storage: &Storage, schema: Schema, wal: Wal) -> StorageResult<LoggedTable> {
        LoggedTable::recover_onto(storage, schema, wal, Wal::new())
    }

    /// [`LoggedTable::recover`], but the rebuilt table continues logging
    /// into the caller-supplied `fresh` WAL instead of a private new one —
    /// so the caller can keep injecting faults into (or inspecting) the
    /// post-recovery log. The crashed `wal` is only read.
    pub fn recover_onto(
        storage: &Storage,
        schema: Schema,
        wal: Wal,
        fresh: Wal,
    ) -> StorageResult<LoggedTable> {
        let mark = wal.checkpoint();
        let logged = wal.records()?;
        let mut out = LoggedTable::create(storage, schema, fresh);
        if let Some(cp) = mark {
            for page_no in 0..cp.pages {
                let page = storage.read_page(PageId {
                    file: cp.file,
                    page: page_no,
                })?;
                for payload in page.iter() {
                    out.table.file.append(&Record::decode(payload)?)?;
                }
            }
        }
        for r in &logged {
            out.table.file.append(r)?;
        }
        out.checkpoint()?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bufpool::BufferPool;
    use crate::fault::{FaultKind, FaultSchedule};
    use xst_core::Value;

    fn rec(i: i64) -> Record {
        Record::new([Value::Int(i), Value::str(format!("r{i}"))])
    }

    /// A snapshot image and a WAL written by the commit before the value
    /// codec and the checksum moved to `xst-core` (and the checksum to a
    /// table): the bytes on disk are the format, so they must restore and
    /// replay here to exactly the rows that wrote them.
    #[test]
    fn images_and_logs_written_before_the_codec_moved_still_read_back() {
        use xst_core::{xset, xtuple};
        let rows: Vec<Record> = (0..6i64)
            .map(|i| {
                Record::new([
                    Value::Int(i - 2),
                    Value::str(format!("row-{i} ✓")),
                    Value::Set(xset![
                        Value::float(i as f64 * 0.5) => Value::sym("w"),
                        Value::bytes([i as u8, 255]),
                        xtuple!["a", Value::Bool(i % 2 == 0)].into_value()
                    ]),
                ])
            })
            .collect();

        let image = include_bytes!("../tests/data/pr15_snapshot.bin");
        let restored = crate::snapshot::restore(image).unwrap();
        assert_eq!(crate::snapshot::snapshot(&restored), image);
        let id = crate::bufpool::PageId {
            file: FileId(0),
            page: 0,
        };
        let page = restored.read_page(id).unwrap();
        let stored: Vec<Record> = page.iter().map(|b| Record::decode(b).unwrap()).collect();
        assert_eq!(stored, rows);

        let wal = Wal::new();
        {
            let mut inner = wal.inner.lock();
            inner
                .durable
                .put_slice(include_bytes!("../tests/data/pr15_wal.bin"));
            inner.committed = inner.durable.len();
        }
        assert_eq!(wal.records().unwrap(), rows);
    }

    #[test]
    fn wal_roundtrip() {
        let wal = Wal::new();
        assert!(wal.is_empty());
        for i in 0..10 {
            wal.append(&rec(i).encode()).unwrap();
        }
        let records = wal.records().unwrap();
        assert_eq!(records.len(), 10);
        assert_eq!(records[3], rec(3));
        assert!(!wal.is_empty());
    }

    #[test]
    fn torn_tail_stops_replay_cleanly() {
        let wal = Wal::new();
        wal.append(&rec(1).encode()).unwrap();
        wal.append(&rec(2).encode()).unwrap();
        wal.tear(3); // rip into the last record
        let records = wal.records().unwrap();
        assert_eq!(records.len(), 1, "intact prefix only");
        assert_eq!(records[0], rec(1));
    }

    #[test]
    fn corrupt_middle_record_is_an_error() {
        let wal = Wal::new();
        wal.append(&rec(1).encode()).unwrap();
        wal.append(&rec(2).encode()).unwrap();
        // Flip a byte inside the FIRST record's payload.
        {
            let mut inner = wal.inner.lock();
            inner.durable[10] ^= 0xFF;
        }
        assert!(matches!(wal.records(), Err(StorageError::Corrupt { .. })));
    }

    #[test]
    fn corrupt_length_field_is_an_error_not_a_torn_tail() {
        // The satellite-bug regression: before the header CRC, flipping a
        // high bit of a mid-log length field made the frame "overrun the
        // buffer", which the replay scan treated as a torn tail — silently
        // dropping this record AND every one after it. It must be a
        // corruption error.
        let wal = Wal::new();
        for i in 0..4 {
            wal.append(&rec(i).encode()).unwrap();
        }
        let second_frame = {
            let inner = wal.inner.lock();
            let first_len = u32::from_le_bytes([
                inner.durable[0],
                inner.durable[1],
                inner.durable[2],
                inner.durable[3],
            ]) as usize;
            // Skip the first record frame AND the commit marker its flush
            // sealed it with.
            FRAME_OVERHEAD + first_len + MARKER_SIZE
        };
        {
            let mut inner = wal.inner.lock();
            // Most-significant length byte of the SECOND frame: the bogus
            // length now points far past the end of the log.
            inner.durable[second_frame + 3] ^= 0x80;
        }
        match wal.records() {
            Err(StorageError::Corrupt { reason }) => {
                assert!(reason.contains("length"), "{reason}")
            }
            other => panic!("bit-flipped length must be Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn staged_frames_are_invisible_until_sync() {
        let wal = Wal::new();
        wal.append_staged(&rec(1).encode());
        assert!(wal.is_empty(), "staged ≠ durable");
        assert_eq!(wal.records().unwrap().len(), 0);
        assert!(wal.staged_len() > 0);
        wal.sync().unwrap();
        assert_eq!(wal.records().unwrap().len(), 1);
        assert_eq!(wal.staged_len(), 0);
    }

    #[test]
    fn torn_sync_is_repaired_by_the_next_flush() {
        let wal = Wal::new();
        wal.append(&rec(1).encode()).unwrap();
        let plan = FaultPlan::new(FaultSchedule::AtSite(0), FaultKind::TornWrite(5));
        wal.install_faults(&plan);
        wal.append_staged(&rec(2).encode());
        assert!(wal.sync().is_err(), "torn flush fails");
        // A 5-byte prefix of the staged frame reached the log…
        assert_eq!(wal.records().unwrap().len(), 1, "torn tail tolerated");
        // …the unacknowledged batch is dropped, and the next flush repairs
        // the tail in place.
        wal.drop_staged();
        wal.append(&rec(3).encode()).unwrap();
        let records = wal.records().unwrap();
        assert_eq!(records, vec![rec(1), rec(3)]);
    }

    #[test]
    fn whole_frames_without_a_commit_marker_are_not_replayed() {
        let wal = Wal::new();
        wal.append(&rec(1).encode()).unwrap();
        // Tear the next flush as late as possible: every record frame of
        // the batch persists intact, only the trailing commit marker is
        // cut short. The batch was never acknowledged, so replay must
        // drop it — intact CRCs and all.
        let plan = FaultPlan::new(FaultSchedule::AtSite(0), FaultKind::TornWrite(usize::MAX));
        wal.install_faults(&plan);
        wal.append_staged(&rec(2).encode());
        wal.append_staged(&rec(3).encode());
        assert!(wal.sync().is_err(), "torn flush fails");
        wal.clear_faults();
        assert_eq!(wal.records().unwrap(), vec![rec(1)], "batch absent");
    }

    #[test]
    fn crash_before_sync_loses_nothing_with_wal() {
        let storage = Storage::new();
        let wal = Wal::new();
        let schema = Schema::new(["id", "name"]);
        let mut t = LoggedTable::create(&storage, schema.clone(), wal.clone());
        for i in 0..5 {
            t.append(&rec(i)).unwrap();
        }
        // Crash: drop the handle. Nothing was flushed (5 small records fit
        // in the in-memory tail), so the disk alone has zero pages.
        let file_id = t.table.file.file_id();
        drop(t);
        assert_eq!(storage.page_count(file_id).unwrap(), 0, "tail was lost");

        // Recovery replays the log.
        let recovered = LoggedTable::recover(&storage, schema, wal).unwrap();
        let pool = BufferPool::new(storage, 8);
        let rows = recovered.table.file.read_all(&pool).unwrap();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[4], rec(4));
    }

    #[test]
    fn checkpoint_flushes_and_truncates() {
        let storage = Storage::new();
        let wal = Wal::new();
        let mut t = LoggedTable::create(&storage, Schema::new(["id", "name"]), wal.clone());
        for i in 0..5 {
            t.append(&rec(i)).unwrap();
        }
        assert!(!wal.is_empty());
        t.checkpoint().unwrap();
        assert!(wal.is_empty());
        assert!(storage.page_count(t.table.file.file_id()).unwrap() > 0);
        assert!(wal.checkpoint().is_some(), "mark records the flushed pages");
        // Appends after the checkpoint land in the fresh log.
        t.append(&rec(99)).unwrap();
        assert_eq!(wal.records().unwrap().len(), 1);
    }

    #[test]
    fn recovery_after_checkpoint_restores_everything() {
        let storage = Storage::new();
        let wal = Wal::new();
        let schema = Schema::new(["id", "name"]);
        let mut t = LoggedTable::create(&storage, schema.clone(), wal.clone());
        for i in 0..5 {
            t.append(&rec(i)).unwrap();
        }
        t.checkpoint().unwrap();
        for i in 5..8 {
            t.append(&rec(i)).unwrap();
        }
        drop(t); // crash: post-checkpoint records exist only in the log
        let recovered = LoggedTable::recover(&storage, schema, wal).unwrap();
        let pool = BufferPool::new(storage, 8);
        let rows = recovered.table.file.read_all(&pool).unwrap();
        assert_eq!(rows, (0..8).map(rec).collect::<Vec<_>>());
    }

    #[test]
    fn group_commit_acks_the_whole_batch_with_one_flush() {
        let storage = Storage::new();
        let wal = Wal::new();
        let mut t = LoggedTable::create(&storage, Schema::new(["id", "name"]), wal.clone());
        let batch: Vec<Record> = (0..10).map(rec).collect();
        assert_eq!(t.append_batch(&batch).unwrap(), 10);
        assert_eq!(wal.records().unwrap().len(), 10);
        assert_eq!(t.append_batch(&[]).unwrap(), 0, "empty batch is a no-op");
    }

    #[test]
    fn failed_flush_leaves_the_batch_atomically_absent() {
        let storage = Storage::new();
        let wal = Wal::new();
        let mut t = LoggedTable::create(&storage, Schema::new(["id", "name"]), wal.clone())
            .with_retry_policy(RetryPolicy::none());
        t.append(&rec(0)).unwrap();
        let plan = FaultPlan::new(FaultSchedule::EveryNth(1), FaultKind::SyncFail);
        wal.install_faults(&plan);
        let batch: Vec<Record> = (1..5).map(rec).collect();
        assert!(t.append_batch(&batch).is_err());
        wal.clear_faults();
        assert_eq!(wal.staged_len(), 0, "staged frames discarded");
        assert_eq!(wal.records().unwrap(), vec![rec(0)], "batch absent");
        // The handle is NOT wedged — the failure happened before the
        // commit point, so nothing was acknowledged and lost.
        assert!(!t.is_wedged());
        t.append(&rec(9)).unwrap();
        assert_eq!(wal.records().unwrap(), vec![rec(0), rec(9)]);
    }

    #[test]
    fn post_commit_heap_failure_wedges_but_keeps_the_ack() {
        let storage = Storage::new();
        let wal = Wal::new();
        let schema = Schema::new(["id", "name"]);
        let mut t = LoggedTable::create(&storage, schema.clone(), wal.clone())
            .with_retry_policy(RetryPolicy::none());
        // Fill past one page so the batch's heap apply must flush — and
        // that flush (a Write site) fails while the WAL flush (Sync site)
        // succeeded.
        let big: Vec<Record> = (0..200).map(rec).collect();
        t.append_batch(&big).unwrap();
        let plan = FaultPlan::new(FaultSchedule::EveryNth(1), FaultKind::WriteFail);
        storage.install_faults(&plan);
        let batch: Vec<Record> = (200..400).map(rec).collect();
        let acked = t.append_batch(&batch);
        storage.clear_faults();
        assert_eq!(acked.unwrap(), 200, "the flush committed: batch is acked");
        assert!(t.is_wedged());
        assert!(matches!(
            t.append(&rec(999)),
            Err(StorageError::NeedsRecovery { .. })
        ));
        assert!(matches!(
            t.checkpoint(),
            Err(StorageError::NeedsRecovery { .. })
        ));
        // Recovery gets every acknowledged record back.
        drop(t);
        let recovered = LoggedTable::recover(&storage, schema, wal).unwrap();
        let pool = BufferPool::new(storage, 8);
        assert_eq!(recovered.table.file.read_all(&pool).unwrap().len(), 400);
    }

    #[test]
    fn failed_checkpoint_mark_keeps_the_log_intact() {
        let storage = Storage::new();
        let wal = Wal::new();
        let schema = Schema::new(["id", "name"]);
        let mut t = LoggedTable::create(&storage, schema.clone(), wal.clone())
            .with_retry_policy(RetryPolicy::none());
        for i in 0..5 {
            t.append(&rec(i)).unwrap();
        }
        // Fail the mark (Sync site) but let the tail flush (Write site)
        // through: WriteFail degrades to Fail on Sync sites, so schedule
        // the fault at the mark's site — tail flush first (site 0), then
        // the mark (site 1). Storage and WAL share the plan.
        let plan = FaultPlan::new(FaultSchedule::AtSite(1), FaultKind::SyncFail);
        storage.install_faults(&plan);
        wal.install_faults(&plan);
        assert!(t.checkpoint().is_err());
        storage.clear_faults();
        wal.clear_faults();
        assert_eq!(wal.records().unwrap().len(), 5, "log untruncated");
        assert!(wal.checkpoint().is_none(), "no mark recorded");
        drop(t);
        let recovered = LoggedTable::recover(&storage, schema, wal).unwrap();
        let pool = BufferPool::new(storage, 8);
        assert_eq!(recovered.table.file.read_all(&pool).unwrap().len(), 5);
    }

    #[test]
    fn transient_sync_faults_are_absorbed_by_retry() {
        let storage = Storage::new();
        let wal = Wal::new();
        let mut t = LoggedTable::create(&storage, Schema::new(["id", "name"]), wal.clone());
        let plan = FaultPlan::new(FaultSchedule::EveryNth(2), FaultKind::Transient);
        wal.install_faults(&plan);
        for i in 0..6 {
            t.append(&rec(i)).unwrap();
        }
        wal.clear_faults();
        assert!(plan.injected_count() >= 1, "faults actually fired");
        assert_eq!(wal.records().unwrap().len(), 6, "every append acked");
    }

    #[test]
    fn schema_violations_are_rejected_before_logging() {
        let storage = Storage::new();
        let wal = Wal::new();
        let mut t = LoggedTable::create(&storage, Schema::new(["one"]), wal.clone());
        assert!(t.append(&rec(1)).is_err(), "arity 2 vs schema arity 1");
        assert!(wal.is_empty(), "nothing logged for a rejected append");
        assert_eq!(wal.staged_len(), 0, "nothing staged either");
    }
}
