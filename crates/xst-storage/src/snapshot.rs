//! Whole-disk snapshots: serialize the simulated disk to a checksummed
//! byte image and restore it — the "backend information system" backup
//! path, and the persistence story for experiments that need to replay a
//! workload on identical storage.
//!
//! Format (little-endian):
//!
//! ```text
//! magic "XSTSNAP1" | file_count:u32 | { page_count:u32, pages… } per file
//! | crc:u32 over everything before it
//! ```

use crate::bufpool::Storage;
use crate::error::{StorageError, StorageResult};
use crate::page::PAGE_SIZE;
use bytes::{Buf, BufMut, BytesMut};
use xst_core::crc::crc32;

const MAGIC: &[u8; 8] = b"XSTSNAP1";

/// Serialize the whole disk.
pub fn snapshot(storage: &Storage) -> Vec<u8> {
    let files = storage.export_all();
    let mut out = BytesMut::new();
    out.put_slice(MAGIC);
    out.put_u32_le(files.len() as u32);
    for file in &files {
        out.put_u32_le(file.len() as u32);
        for page in file {
            out.put_slice(&page[..]);
        }
    }
    let crc = crc32(&out);
    out.put_u32_le(crc);
    out.to_vec()
}

/// Restore a disk from a snapshot image, verifying magic and checksum.
pub fn restore(image: &[u8]) -> StorageResult<Storage> {
    if image.len() < MAGIC.len() + 8 {
        return Err(corrupt("image too short"));
    }
    let (body, crc_bytes) = image.split_at(image.len() - 4);
    let crc_arr: [u8; 4] = match crc_bytes.try_into() {
        Ok(arr) => arr,
        Err(_) => return Err(corrupt("truncated checksum")),
    };
    let stored_crc = u32::from_le_bytes(crc_arr);
    if crc32(body) != stored_crc {
        return Err(corrupt("checksum mismatch"));
    }
    let mut buf = body;
    let mut magic = [0u8; 8];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(corrupt("bad magic"));
    }
    let file_count = buf.get_u32_le() as usize;
    let mut files = Vec::with_capacity(file_count);
    for _ in 0..file_count {
        if buf.len() < 4 {
            return Err(corrupt("truncated file header"));
        }
        let page_count = buf.get_u32_le() as usize;
        if buf.len() < page_count * PAGE_SIZE {
            return Err(corrupt("truncated page data"));
        }
        let mut pages = Vec::with_capacity(page_count);
        for _ in 0..page_count {
            let mut frame = Box::new([0u8; PAGE_SIZE]);
            frame.copy_from_slice(&buf[..PAGE_SIZE]);
            buf.advance(PAGE_SIZE);
            pages.push(frame);
        }
        files.push(pages);
    }
    if !buf.is_empty() {
        return Err(corrupt("trailing bytes after files"));
    }
    Ok(Storage::import_all(files))
}

fn corrupt(reason: &str) -> StorageError {
    StorageError::Corrupt {
        reason: format!("snapshot: {reason}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bufpool::{BufferPool, PageId};
    use crate::engine::Table;
    use crate::record::{Record, Schema};
    use xst_core::Value;

    fn populated() -> (Storage, usize) {
        let storage = Storage::new();
        let mut t = Table::create(&storage, Schema::new(["id", "name"]));
        let rows: Vec<Record> = (0..500)
            .map(|i| Record::new([Value::Int(i), Value::str(format!("row-{i}"))]))
            .collect();
        t.load(&rows).unwrap();
        let pages = storage.page_count(t.file.file_id()).unwrap();
        (storage, pages)
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let (storage, pages) = populated();
        let image = snapshot(&storage);
        let restored = restore(&image).unwrap();
        assert_eq!(restored.file_count(), storage.file_count());
        // Every page byte-identical.
        for page in 0..pages {
            let id = PageId {
                file: crate::bufpool::FileId(0),
                page,
            };
            assert_eq!(
                storage.read_page(id).unwrap().as_bytes(),
                restored.read_page(id).unwrap().as_bytes()
            );
        }
        // Restored stats start clean.
        assert_eq!(restored.stats().disk_writes, 0);
    }

    #[test]
    fn restored_disk_serves_queries() {
        let (storage, _) = populated();
        let image = snapshot(&storage);
        let restored = restore(&image).unwrap();
        let pool = BufferPool::new(restored, 8);
        // Re-open the heap file shape: file 0, scan pages manually.
        let mut seen = 0;
        let pages = pool
            .storage()
            .page_count(crate::bufpool::FileId(0))
            .unwrap();
        for page in 0..pages {
            let p = pool
                .get(PageId {
                    file: crate::bufpool::FileId(0),
                    page,
                })
                .unwrap();
            seen += p.slot_count();
        }
        assert_eq!(seen, 500);
    }

    #[test]
    fn empty_disk_snapshots() {
        let storage = Storage::new();
        let restored = restore(&snapshot(&storage)).unwrap();
        assert_eq!(restored.file_count(), 0);
    }

    #[test]
    fn corruption_is_detected() {
        let (storage, _) = populated();
        let image = snapshot(&storage);
        // Flip a data byte.
        let mut bad = image.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xFF;
        assert!(matches!(restore(&bad), Err(StorageError::Corrupt { .. })));
        // Truncate.
        assert!(restore(&image[..image.len() - 10]).is_err());
        // Wrong magic with fixed-up checksum.
        let mut wrong = image.clone();
        wrong[0] = b'Y';
        let body_len = wrong.len() - 4;
        let crc = crc32(&wrong[..body_len]).to_le_bytes();
        wrong[body_len..].copy_from_slice(&crc);
        assert!(restore(&wrong).is_err());
        // Tiny input.
        assert!(restore(&[1, 2, 3]).is_err());
    }
}
