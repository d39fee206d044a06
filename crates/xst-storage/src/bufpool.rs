//! Simulated disk and buffer pool with I/O accounting.
//!
//! We obviously do not have the paper era's disk hardware; what the
//! experiments need is the *access-cost shape* — how many page transfers a
//! strategy causes. [`Storage`] is an in-memory "disk" that counts every
//! page read and write; [`BufferPool`] caches frames with LRU eviction and
//! counts hits and misses. Experiment E3 (restriction pushdown) reads its
//! numbers from [`IoStats`].

use crate::error::{StorageError, StorageResult};
use crate::fault::{FaultPlan, Injection, SiteClass};
use crate::page::{Page, PAGE_SIZE};
use crate::retry::{with_retry, RetryPolicy};
use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use xst_obs::names::handle as m;
use xst_obs::{registry, Counter};

/// Registry prefix for every metric this module emits; reset routing
/// ([`Storage::reset_stats`], [`BufferPool::reset_stats`]) keys off it.
pub const STORAGE_METRIC_PREFIX: &str = xst_obs::names::STORAGE_PREFIX;

/// Identifier of a file on the simulated disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u32);

/// A page address: file + page number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageId {
    /// Owning file.
    pub file: FileId,
    /// Zero-based page number within the file.
    pub page: usize,
}

/// Cumulative I/O counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Pages transferred from the simulated disk.
    pub disk_reads: u64,
    /// Pages transferred to the simulated disk.
    pub disk_writes: u64,
    /// Buffer-pool lookups satisfied from memory.
    pub pool_hits: u64,
    /// Buffer-pool lookups that had to go to disk.
    pub pool_misses: u64,
    /// Frames pushed out of the pool by LRU pressure.
    pub pool_evictions: u64,
}

impl IoStats {
    /// Total page transfers (the 1977 cost metric).
    pub fn transfers(&self) -> u64 {
        self.disk_reads + self.disk_writes
    }

    /// Hit ratio of the pool, if any lookups happened.
    pub fn hit_ratio(&self) -> Option<f64> {
        let total = self.pool_hits + self.pool_misses;
        (total > 0).then(|| self.pool_hits as f64 / total as f64)
    }
}

#[derive(Default)]
struct StorageInner {
    files: Vec<Vec<Box<[u8; PAGE_SIZE]>>>,
    stats: IoStats,
    faults: Option<FaultPlan>,
}

impl StorageInner {
    /// Claim the next fault site for an operation of `class`, if a plan is
    /// installed. Called with the disk lock held, so the site numbering is
    /// exactly the serialized execution order of disk operations.
    fn check_fault(&self, class: SiteClass) -> Option<Injection> {
        self.faults.as_ref().and_then(|p| p.check(class))
    }
}

/// The simulated disk: page-addressed, I/O-counting, cheaply cloneable
/// (clones share the same disk).
#[derive(Clone, Default)]
pub struct Storage {
    inner: Arc<Mutex<StorageInner>>,
}

impl Storage {
    /// Fresh empty disk.
    pub fn new() -> Storage {
        Storage::default()
    }

    /// Allocate a new empty file.
    // lint: unnumbered-io: file creation is catalog metadata, not page I/O — the crash sweeps fault the page writes and flushes that follow it
    pub fn create_file(&self) -> FileId {
        let mut inner = self.inner.lock();
        inner.files.push(Vec::new());
        FileId(inner.files.len() as u32 - 1)
    }

    /// Append a page to `file`, returning its page number. Counts one disk
    /// write.
    pub fn append_page(&self, file: FileId, page: &Page) -> StorageResult<usize> {
        self.write_page_at_inner(file, None, page, "append_page")
    }

    /// Write `page` at `page_no`, appending when `page_no` equals the file
    /// length and overwriting when it is below. The write-target form heap
    /// files use: after a torn append left garbage at an index, retrying
    /// the same target *overwrites* the garbage instead of appending a
    /// duplicate. Counts one disk write.
    pub fn write_page_at(&self, file: FileId, page_no: usize, page: &Page) -> StorageResult<usize> {
        self.write_page_at_inner(file, Some(page_no), page, "write_page_at")
    }

    /// Overwrite an existing page. Counts one disk write.
    pub fn write_page(&self, id: PageId, page: &Page) -> StorageResult<()> {
        // Address validation happens before the fault site is claimed, so
        // caller bugs are not confused with injected failures.
        let pages = self.page_count(id.file)?;
        if id.page >= pages {
            return Err(StorageError::PageOutOfRange {
                page: id.page,
                pages,
            });
        }
        self.write_page_at_inner(id.file, Some(id.page), page, "write_page")
            .map(|_| ())
    }

    fn write_page_at_inner(
        &self,
        file: FileId,
        page_no: Option<usize>,
        page: &Page,
        op: &'static str,
    ) -> StorageResult<usize> {
        let timer = xst_obs::enabled().then(Instant::now);
        let mut inner = self.inner.lock();
        let len = file_ref(&inner.files, file)?.len();
        let target = page_no.unwrap_or(len);
        if target > len {
            return Err(StorageError::PageOutOfRange {
                page: target,
                pages: len,
            });
        }
        // One numbered fault site per physical page write.
        let written = match inner.check_fault(SiteClass::Write) {
            Some(Injection::Transient) => {
                return Err(StorageError::Transient { op: op.into() });
            }
            Some(Injection::Torn(n)) => {
                // The power-cut shape: a prefix of the frame reaches the
                // platter, the transfer still reports failure. An appended
                // torn frame is zero beyond the prefix; an overwritten one
                // keeps its old suffix (only the first sectors were hit).
                let keep = n.min(PAGE_SIZE);
                let f = file_mut(&mut inner.files, file)?;
                if target == f.len() {
                    f.push(Box::new([0u8; PAGE_SIZE]));
                }
                f[target][..keep].copy_from_slice(&page.as_bytes()[..keep]);
                inner.stats.disk_writes += 1;
                return Err(StorageError::Io {
                    op: op.into(),
                    reason: format!("torn write: {keep} of {PAGE_SIZE} bytes persisted"),
                });
            }
            Some(_) => {
                return Err(StorageError::Io {
                    op: op.into(),
                    reason: "write failed".into(),
                });
            }
            None => {
                let f = file_mut(&mut inner.files, file)?;
                if target == f.len() {
                    f.push(Box::new([0u8; PAGE_SIZE]));
                }
                f[target].copy_from_slice(page.as_bytes());
                inner.stats.disk_writes += 1;
                target
            }
        };
        drop(inner);
        if let Some(t) = timer {
            m::STORAGE_PAGE_WRITE_NS.observe_since(t);
        }
        Ok(written)
    }

    /// Read a page from disk. Counts one disk read.
    pub fn read_page(&self, id: PageId) -> StorageResult<Page> {
        let timer = xst_obs::enabled().then(Instant::now);
        let mut inner = self.inner.lock();
        {
            let f = file_ref(&inner.files, id.file)?;
            if id.page >= f.len() {
                return Err(StorageError::PageOutOfRange {
                    page: id.page,
                    pages: f.len(),
                });
            }
        }
        match inner.check_fault(SiteClass::Read) {
            Some(Injection::Transient) => {
                return Err(StorageError::Transient {
                    op: "read_page".into(),
                })
            }
            Some(Injection::Short(n)) => {
                return Err(StorageError::Io {
                    op: "read_page".into(),
                    reason: format!("short read: {} of {PAGE_SIZE} bytes", n.min(PAGE_SIZE)),
                })
            }
            Some(_) => {
                return Err(StorageError::Io {
                    op: "read_page".into(),
                    reason: "read failed".into(),
                })
            }
            None => {}
        }
        let frame = &file_ref(&inner.files, id.file)?[id.page];
        let page = Page::from_bytes(&frame[..])?;
        inner.stats.disk_reads += 1;
        drop(inner);
        if let Some(t) = timer {
            m::STORAGE_PAGE_READ_NS.observe_since(t);
        }
        Ok(page)
    }

    /// Read a contiguous page range `[lo, hi)` under a single lock
    /// acquisition — the bulk path for scans and parallel loaders, avoiding
    /// per-page lock contention. Counts `hi - lo` disk reads.
    pub fn read_page_range(&self, file: FileId, lo: usize, hi: usize) -> StorageResult<Vec<Page>> {
        let timer = xst_obs::enabled().then(Instant::now);
        let mut inner = self.inner.lock();
        {
            let f = file_ref(&inner.files, file)?;
            if hi > f.len() || lo > hi {
                return Err(StorageError::PageOutOfRange {
                    page: hi,
                    pages: f.len(),
                });
            }
        }
        // One fault site per bulk call (it is a single I/O submission).
        match inner.check_fault(SiteClass::Read) {
            Some(Injection::Transient) => {
                return Err(StorageError::Transient {
                    op: "read_page_range".into(),
                })
            }
            Some(Injection::Short(n)) => {
                return Err(StorageError::Io {
                    op: "read_page_range".into(),
                    reason: format!("short read: {n} bytes of a {}-page range", hi - lo),
                })
            }
            Some(_) => {
                return Err(StorageError::Io {
                    op: "read_page_range".into(),
                    reason: "read failed".into(),
                })
            }
            None => {}
        }
        let f = file_ref(&inner.files, file)?;
        let pages: StorageResult<Vec<Page>> = f[lo..hi]
            .iter()
            .map(|frame| Page::from_bytes(&frame[..]))
            .collect();
        inner.stats.disk_reads += (hi - lo) as u64;
        drop(inner);
        if let Some(t) = timer {
            // One observation for the bulk transfer: the histogram tracks
            // I/O call latency, and a range read is a single call.
            m::STORAGE_PAGE_READ_NS.observe_since(t);
        }
        pages
    }

    /// Number of pages in `file`.
    // lint: unnumbered-io: length metadata lookup — reads no page bytes, so no fault site can tear or lose anything
    pub fn page_count(&self, file: FileId) -> StorageResult<usize> {
        let inner = self.inner.lock();
        Ok(file_ref(&inner.files, file)?.len())
    }

    /// Snapshot the counters.
    // lint: unnumbered-io: observability counter snapshot, not device I/O
    pub fn stats(&self) -> IoStats {
        self.inner.lock().stats
    }

    /// Number of files on the disk.
    // lint: unnumbered-io: catalog metadata lookup — reads no page bytes
    pub fn file_count(&self) -> usize {
        self.inner.lock().files.len()
    }

    /// Clone every page frame of every file (for [`crate::snapshot`]).
    /// Does not count as I/O: snapshots model offline backup.
    // lint: unnumbered-io: snapshots model offline backup of a quiesced disk; the crash sweeps never run across one
    pub(crate) fn export_all(&self) -> Vec<Vec<Box<[u8; PAGE_SIZE]>>> {
        self.inner.lock().files.clone()
    }

    /// Rebuild a disk from exported frames (for [`crate::snapshot`]).
    pub(crate) fn import_all(files: Vec<Vec<Box<[u8; PAGE_SIZE]>>>) -> Storage {
        Storage {
            inner: Arc::new(Mutex::new(StorageInner {
                files,
                stats: IoStats::default(),
                faults: None,
            })),
        }
    }

    /// Install a fault-injection plan: every subsequent disk operation
    /// claims a numbered site from it. Clones of this disk share the plan.
    pub fn install_faults(&self, plan: &FaultPlan) {
        self.inner.lock().faults = Some(plan.clone());
    }

    /// Remove the installed fault plan, if any (recovery runs fault-free).
    pub fn clear_faults(&self) {
        self.inner.lock().faults = None;
    }

    /// Zero the counters (pool hit/miss counters live in the pool) and the
    /// page-I/O series this module registered — local `IoStats` and the
    /// global registry stay consistent.
    // lint: unnumbered-io: zeroes observability counters only; page frames are untouched
    pub fn reset_stats(&self) {
        self.inner.lock().stats = IoStats::default();
        registry().reset_prefix(xst_obs::names::STORAGE_PAGE_PREFIX);
    }
}

fn file_ref(
    files: &[Vec<Box<[u8; PAGE_SIZE]>>],
    id: FileId,
) -> StorageResult<&Vec<Box<[u8; PAGE_SIZE]>>> {
    files
        .get(id.0 as usize)
        .ok_or(StorageError::PageOutOfRange {
            page: 0,
            pages: files.len(),
        })
}

fn file_mut(
    files: &mut Vec<Vec<Box<[u8; PAGE_SIZE]>>>,
    id: FileId,
) -> StorageResult<&mut Vec<Box<[u8; PAGE_SIZE]>>> {
    let pages = files.len();
    files
        .get_mut(id.0 as usize)
        .ok_or(StorageError::PageOutOfRange { page: 0, pages })
}

/// Default shard count for [`BufferPool::new`]. Sharding bounds lock
/// contention when parallel kernels fault pages concurrently; small pools
/// collapse to fewer shards so capacity is never wasted on empty shards.
pub const DEFAULT_POOL_SHARDS: usize = 8;

/// Frame map of one shard; the LRU clock (`tick`) is shard-local, which is
/// exactly per-shard LRU.
struct ShardFrames {
    frames: HashMap<PageId, (Arc<Page>, u64)>,
    tick: u64,
}

/// One pool shard: its frame map behind a dedicated lock, plus lock-free
/// hit/miss/eviction counters so `stats()` never has to stop the world.
/// Each shard also holds its registry series (`…{shard="i"}`) so the hot
/// path records without a registry lookup — the counters gate themselves
/// on the global collector switch.
struct Shard {
    frames: Mutex<ShardFrames>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    hits_metric: Arc<Counter>,
    misses_metric: Arc<Counter>,
    evictions_metric: Arc<Counter>,
}

impl Shard {
    fn new(index: usize) -> Shard {
        let shard = index.to_string();
        let labels: &[(&str, &str)] = &[("shard", &shard)];
        Shard {
            frames: Mutex::new(ShardFrames {
                frames: HashMap::new(),
                tick: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            hits_metric: registry().counter_with(
                xst_obs::names::STORAGE_POOL_HITS_TOTAL,
                "Buffer-pool lookups served from memory, per shard.",
                labels,
            ),
            misses_metric: registry().counter_with(
                xst_obs::names::STORAGE_POOL_MISSES_TOTAL,
                "Buffer-pool lookups that went to disk, per shard.",
                labels,
            ),
            evictions_metric: registry().counter_with(
                xst_obs::names::STORAGE_POOL_EVICTIONS_TOTAL,
                "Frames evicted by LRU pressure, per shard.",
                labels,
            ),
        }
    }
}

/// Per-shard counter snapshot (see [`BufferPool::shard_io_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Lookups served from this shard's frames.
    pub hits: u64,
    /// Lookups this shard sent to disk.
    pub misses: u64,
    /// Frames this shard evicted.
    pub evictions: u64,
}

/// Sharded LRU buffer pool in front of a [`Storage`] disk.
///
/// Pages hash to one of N independent shards by `PageId`; each shard runs
/// its own LRU over `capacity / N` frames behind its own lock. Concurrent
/// readers touching different shards never contend. With one shard this is
/// exactly the classic single-lock global-LRU pool (several unit tests pin
/// that configuration).
pub struct BufferPool {
    storage: Storage,
    shard_capacity: usize,
    shards: Vec<Shard>,
    retry: RetryPolicy,
}

impl BufferPool {
    /// A pool holding up to `capacity` frames across
    /// [`DEFAULT_POOL_SHARDS`] shards (fewer when `capacity` is smaller).
    pub fn new(storage: Storage, capacity: usize) -> BufferPool {
        BufferPool::with_shards(storage, capacity, DEFAULT_POOL_SHARDS.min(capacity.max(1)))
    }

    /// A pool holding up to `capacity` frames across exactly `shards`
    /// shards. `shards = 1` reproduces global LRU.
    pub fn with_shards(storage: Storage, capacity: usize, shards: usize) -> BufferPool {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        assert!(shards > 0, "buffer pool needs at least one shard");
        assert!(
            shards <= capacity,
            "more shards than frames leaves empty shards"
        );
        BufferPool {
            storage,
            shard_capacity: capacity.div_ceil(shards),
            shards: (0..shards).map(Shard::new).collect(),
            retry: RetryPolicy::default(),
        }
    }

    /// Replace the retry policy applied to disk reads on the miss path.
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> BufferPool {
        self.retry = retry;
        self
    }

    /// The retry policy this pool applies to disk reads; engines loading
    /// through the pool reuse it for their own scans.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Number of shards (for experiment reporting).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shard index for a page.
    fn shard_of(&self, id: PageId) -> &Shard {
        let mut hasher = DefaultHasher::new();
        id.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % self.shards.len()]
    }

    /// Fetch a page through the pool.
    pub fn get(&self, id: PageId) -> StorageResult<Arc<Page>> {
        let shard = self.shard_of(id);
        {
            let mut inner = shard.frames.lock();
            inner.tick += 1;
            let tick = inner.tick;
            if let Some((page, last)) = inner.frames.get_mut(&id) {
                *last = tick;
                let page = Arc::clone(page);
                shard.hits.fetch_add(1, Ordering::Relaxed);
                shard.hits_metric.inc();
                xst_obs::cost::add_pool_hit();
                return Ok(page);
            }
        }
        // Miss path: read outside the shard lock is fine for a simulator —
        // worst case we read twice; correctness is unaffected because pages
        // are immutable once written through this API. Transient disk
        // failures are absorbed here, under the pool's retry policy.
        let page = Arc::new(with_retry(&self.retry, || self.storage.read_page(id))?);
        shard.misses.fetch_add(1, Ordering::Relaxed);
        shard.misses_metric.inc();
        xst_obs::cost::add_pool_miss();
        let mut inner = shard.frames.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if inner.frames.len() >= self.shard_capacity {
            if let Some((&victim, _)) = inner.frames.iter().min_by_key(|(_, (_, last))| *last) {
                inner.frames.remove(&victim);
                shard.evictions.fetch_add(1, Ordering::Relaxed);
                shard.evictions_metric.inc();
            }
        }
        inner.frames.insert(id, (Arc::clone(&page), tick));
        Ok(page)
    }

    /// Drop every cached frame (keeps counters).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.frames.lock().frames.clear();
        }
    }

    /// Snapshot combined disk + pool counters, aggregated over shards.
    pub fn stats(&self) -> IoStats {
        let disk = self.storage.stats();
        let (mut hits, mut misses, mut evictions) = (0, 0, 0);
        for shard in &self.shards {
            hits += shard.hits.load(Ordering::Relaxed);
            misses += shard.misses.load(Ordering::Relaxed);
            evictions += shard.evictions.load(Ordering::Relaxed);
        }
        IoStats {
            pool_hits: hits,
            pool_misses: misses,
            pool_evictions: evictions,
            ..disk
        }
    }

    /// Publish derived pool gauges to the global registry: the aggregate
    /// hit ratio (`xst_storage_pool_hit_ratio`) and the shard count.
    /// Ratios are not counters, so exporters call this right before
    /// rendering (the shell's `.metrics` does).
    pub fn publish_metrics(&self) {
        let stats = self.stats();
        // -1 is the "no traffic yet" sentinel: an idle pool must not read
        // as a 0% hit rate, which is what a *thrashing* pool reports.
        registry()
            .gauge(
                xst_obs::names::STORAGE_POOL_HIT_RATIO,
                "Aggregate buffer-pool hit ratio over all shards (0..1; -1 before any traffic).",
            )
            .set(stats.hit_ratio().unwrap_or(-1.0));
        registry()
            .gauge(
                xst_obs::names::STORAGE_POOL_SHARDS,
                "Number of shards in the most recently published pool.",
            )
            .set(self.shards.len() as f64);
    }

    /// Per-shard `(hits, misses)` counters, in shard order — the E10
    /// experiment reports hit rates per shard to show access spread.
    pub fn shard_stats(&self) -> Vec<(u64, u64)> {
        self.shards
            .iter()
            .map(|s| {
                (
                    s.hits.load(Ordering::Relaxed),
                    s.misses.load(Ordering::Relaxed),
                )
            })
            .collect()
    }

    /// Per-shard `(hits, misses, evictions)` snapshots, in shard order.
    pub fn shard_io_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|s| ShardStats {
                hits: s.hits.load(Ordering::Relaxed),
                misses: s.misses.load(Ordering::Relaxed),
                evictions: s.evictions.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Zero pool and disk counters in one call — every shard's local
    /// hit/miss/eviction counters, the disk's transfer counters, and the
    /// registry series this module owns (`xst_storage_pool_…` and, via
    /// [`Storage::reset_stats`], `xst_storage_page_…`), so a reset is
    /// consistent across all three surfaces.
    pub fn reset_stats(&self) {
        self.storage.reset_stats();
        for shard in &self.shards {
            shard.hits.store(0, Ordering::Relaxed);
            shard.misses.store(0, Ordering::Relaxed);
            shard.evictions.store(0, Ordering::Relaxed);
        }
        registry().reset_prefix(xst_obs::names::STORAGE_POOL_PREFIX);
    }

    /// The underlying disk.
    pub fn storage(&self) -> &Storage {
        &self.storage
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page_with(payload: &[u8]) -> Page {
        let mut p = Page::new();
        p.insert(payload).unwrap();
        p
    }

    #[test]
    fn disk_counts_reads_and_writes() {
        let disk = Storage::new();
        let f = disk.create_file();
        let n = disk.append_page(f, &page_with(b"x")).unwrap();
        assert_eq!(n, 0);
        assert_eq!(disk.stats().disk_writes, 1);
        let _ = disk.read_page(PageId { file: f, page: 0 }).unwrap();
        assert_eq!(disk.stats().disk_reads, 1);
        disk.reset_stats();
        assert_eq!(disk.stats(), IoStats::default());
    }

    #[test]
    fn disk_rejects_bad_addresses() {
        let disk = Storage::new();
        let f = disk.create_file();
        assert!(disk.read_page(PageId { file: f, page: 0 }).is_err());
        assert!(disk
            .read_page(PageId {
                file: FileId(9),
                page: 0
            })
            .is_err());
        assert!(disk
            .write_page(PageId { file: f, page: 3 }, &Page::new())
            .is_err());
    }

    #[test]
    fn write_page_overwrites() {
        let disk = Storage::new();
        let f = disk.create_file();
        disk.append_page(f, &page_with(b"old")).unwrap();
        let id = PageId { file: f, page: 0 };
        disk.write_page(id, &page_with(b"new")).unwrap();
        let p = disk.read_page(id).unwrap();
        assert_eq!(p.get(0).unwrap(), b"new");
    }

    #[test]
    fn pool_hits_after_first_access() {
        let disk = Storage::new();
        let f = disk.create_file();
        disk.append_page(f, &page_with(b"x")).unwrap();
        let pool = BufferPool::new(disk, 4);
        let id = PageId { file: f, page: 0 };
        let _ = pool.get(id).unwrap();
        let _ = pool.get(id).unwrap();
        let _ = pool.get(id).unwrap();
        let s = pool.stats();
        assert_eq!(s.pool_misses, 1);
        assert_eq!(s.pool_hits, 2);
        assert_eq!(s.disk_reads, 1, "only the miss touched disk");
        assert_eq!(s.hit_ratio(), Some(2.0 / 3.0));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let disk = Storage::new();
        let f = disk.create_file();
        for i in 0u8..3 {
            disk.append_page(f, &page_with(&[i])).unwrap();
        }
        // One shard: this test pins classic *global* LRU order.
        let pool = BufferPool::with_shards(disk, 2, 1);
        let id = |page| PageId { file: f, page };
        pool.get(id(0)).unwrap();
        pool.get(id(1)).unwrap();
        pool.get(id(0)).unwrap(); // 0 is now most recent
        pool.get(id(2)).unwrap(); // evicts 1
        pool.reset_stats();
        pool.get(id(0)).unwrap(); // hit
        pool.get(id(1)).unwrap(); // miss (was evicted)
        let s = pool.stats();
        assert_eq!(s.pool_hits, 1);
        assert_eq!(s.pool_misses, 1);
    }

    #[test]
    fn sequential_scan_larger_than_pool_misses_every_time() {
        // The classic shape: a scan over N pages with a pool of size < N
        // has zero reuse across repeated scans (LRU worst case).
        let disk = Storage::new();
        let f = disk.create_file();
        for i in 0u8..8 {
            disk.append_page(f, &page_with(&[i])).unwrap();
        }
        // One shard: sharding would spread the scan and break the classic
        // global-LRU worst case this test demonstrates.
        let pool = BufferPool::with_shards(disk, 4, 1);
        for _round in 0..2 {
            for page in 0..8 {
                pool.get(PageId { file: f, page }).unwrap();
            }
        }
        let s = pool.stats();
        assert_eq!(s.pool_misses, 16, "every access misses");
        assert_eq!(s.pool_hits, 0);
    }

    #[test]
    fn sharded_pool_caches_when_capacity_suffices() {
        // Capacity ≥ working set: every page sticks whatever its shard, so
        // the second round is all hits and shard counters sum to the total.
        let disk = Storage::new();
        let f = disk.create_file();
        for i in 0u8..16 {
            disk.append_page(f, &page_with(&[i])).unwrap();
        }
        let pool = BufferPool::with_shards(disk, 32, 4);
        assert_eq!(pool.shard_count(), 4);
        for _round in 0..2 {
            for page in 0..16 {
                pool.get(PageId { file: f, page }).unwrap();
            }
        }
        let s = pool.stats();
        assert_eq!(s.pool_misses, 16);
        assert_eq!(s.pool_hits, 16);
        let per_shard = pool.shard_stats();
        assert_eq!(per_shard.iter().map(|(h, _)| h).sum::<u64>(), 16);
        assert_eq!(per_shard.iter().map(|(_, m)| m).sum::<u64>(), 16);
    }

    #[test]
    fn sharded_pool_is_safe_under_concurrent_access() {
        let disk = Storage::new();
        let f = disk.create_file();
        for i in 0u8..32 {
            disk.append_page(f, &page_with(&[i])).unwrap();
        }
        let pool = BufferPool::with_shards(disk, 16, 8);
        crossbeam::thread::scope(|scope| {
            for t in 0..4 {
                let pool = &pool;
                scope.spawn(move |_| {
                    for round in 0..8 {
                        for page in 0..32 {
                            let p = pool
                                .get(PageId {
                                    file: f,
                                    page: (page + t * round) % 32,
                                })
                                .unwrap();
                            assert!(p.slot_count() > 0);
                        }
                    }
                });
            }
        })
        .unwrap();
        let s = pool.stats();
        assert_eq!(s.pool_hits + s.pool_misses, 4 * 8 * 32);
    }

    #[test]
    fn default_pool_collapses_shards_to_capacity() {
        let disk = Storage::new();
        let pool = BufferPool::new(disk, 2);
        assert_eq!(pool.shard_count(), 2, "capacity caps the shard count");
    }

    #[test]
    fn write_page_at_appends_then_overwrites() {
        let disk = Storage::new();
        let f = disk.create_file();
        assert_eq!(disk.write_page_at(f, 0, &page_with(b"first")).unwrap(), 0);
        assert_eq!(disk.write_page_at(f, 1, &page_with(b"second")).unwrap(), 1);
        disk.write_page_at(f, 0, &page_with(b"patched")).unwrap();
        assert_eq!(disk.page_count(f).unwrap(), 2);
        let p = disk.read_page(PageId { file: f, page: 0 }).unwrap();
        assert_eq!(p.get(0).unwrap(), b"patched");
        // A gap is an address error, not an implicit extension.
        assert!(matches!(
            disk.write_page_at(f, 5, &Page::new()),
            Err(StorageError::PageOutOfRange { .. })
        ));
    }

    #[test]
    fn torn_append_persists_a_partial_frame() {
        use crate::fault::{FaultKind, FaultSchedule};
        let disk = Storage::new();
        let f = disk.create_file();
        let plan = FaultPlan::new(FaultSchedule::AtSite(0), FaultKind::TornWrite(10));
        disk.install_faults(&plan);
        let err = disk.append_page(f, &page_with(b"doomed")).unwrap_err();
        assert!(matches!(err, StorageError::Io { .. }), "{err}");
        // The partial page IS on disk — damaged: depending on how much of
        // the slot directory survived it either fails to parse or parses
        // with a zeroed payload region, but never yields the record.
        assert_eq!(disk.page_count(f).unwrap(), 1);
        if let Ok(p) = disk.read_page(PageId { file: f, page: 0 }) {
            assert_ne!(p.get(0).ok(), Some(&b"doomed"[..]), "payload survived");
        }
        // Retrying the same target overwrites the garbage in place.
        disk.write_page_at(f, 0, &page_with(b"retried")).unwrap();
        let p = disk.read_page(PageId { file: f, page: 0 }).unwrap();
        assert_eq!(p.get(0).unwrap(), b"retried");
        assert_eq!(disk.page_count(f).unwrap(), 1, "no duplicate page");
        disk.clear_faults();
    }

    #[test]
    fn write_fail_persists_nothing() {
        use crate::fault::{FaultKind, FaultSchedule};
        let disk = Storage::new();
        let f = disk.create_file();
        let plan = FaultPlan::new(FaultSchedule::AtSite(0), FaultKind::WriteFail);
        disk.install_faults(&plan);
        assert!(disk.append_page(f, &page_with(b"x")).is_err());
        assert_eq!(disk.page_count(f).unwrap(), 0);
        disk.clear_faults();
        disk.append_page(f, &page_with(b"x")).unwrap();
        assert_eq!(disk.page_count(f).unwrap(), 1);
    }

    #[test]
    fn short_and_transient_reads_surface_as_typed_errors() {
        use crate::fault::{FaultKind, FaultSchedule};
        let disk = Storage::new();
        let f = disk.create_file();
        disk.append_page(f, &page_with(b"x")).unwrap();
        let id = PageId { file: f, page: 0 };
        let plan = FaultPlan::new(FaultSchedule::EveryNth(1), FaultKind::ShortRead(100));
        disk.install_faults(&plan);
        assert!(matches!(disk.read_page(id), Err(StorageError::Io { .. })));
        let plan = FaultPlan::new(FaultSchedule::EveryNth(1), FaultKind::Transient);
        disk.install_faults(&plan);
        assert!(disk.read_page(id).unwrap_err().is_transient());
        assert!(disk.read_page_range(f, 0, 1).unwrap_err().is_transient());
        disk.clear_faults();
        assert_eq!(disk.read_page(id).unwrap().get(0).unwrap(), b"x");
    }

    #[test]
    fn pool_retry_absorbs_transient_read_faults() {
        use crate::fault::{FaultKind, FaultSchedule};
        let disk = Storage::new();
        let f = disk.create_file();
        disk.append_page(f, &page_with(b"x")).unwrap();
        // The first read faults transiently; its retry lands on site 1,
        // which is clean.
        let plan = FaultPlan::new(FaultSchedule::AtSite(0), FaultKind::Transient);
        disk.install_faults(&plan);
        let pool = BufferPool::new(disk.clone(), 4).with_retry_policy(RetryPolicy::default());
        let p = pool.get(PageId { file: f, page: 0 }).unwrap();
        assert_eq!(p.get(0).unwrap(), b"x");
        assert_eq!(plan.injected_count(), 1);
        // With retries disabled the same fault surfaces.
        let bare = BufferPool::new(disk.clone(), 4).with_retry_policy(RetryPolicy::none());
        bare.clear();
        disk.install_faults(&FaultPlan::new(
            FaultSchedule::EveryNth(1),
            FaultKind::Transient,
        ));
        assert!(bare.get(PageId { file: f, page: 0 }).is_err());
        disk.clear_faults();
    }

    #[test]
    fn clear_empties_the_pool() {
        let disk = Storage::new();
        let f = disk.create_file();
        disk.append_page(f, &page_with(b"x")).unwrap();
        let pool = BufferPool::new(disk, 4);
        let id = PageId { file: f, page: 0 };
        pool.get(id).unwrap();
        pool.clear();
        pool.reset_stats();
        pool.get(id).unwrap();
        assert_eq!(pool.stats().pool_misses, 1);
    }
}
