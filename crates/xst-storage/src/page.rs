//! Slotted pages — the unit of simulated I/O.
//!
//! A [`Page`] is a fixed-size byte frame with a slot directory growing from
//! the front and record payloads growing from the back, the classic heap
//! page layout:
//!
//! ```text
//! [ nslots:u16 | free_end:u16 | slot0 (off:u16,len:u16) | slot1 | ... ]
//! [ ...free space... ]
//! [ ...payloads packed at the back... ]
//! ```
//!
//! Pages only store bytes; the [`xst_core::codec`] gives those bytes their
//! mathematical identity.

use crate::error::{StorageError, StorageResult};

/// Fixed page size, a 1977-flavored 4 KiB.
pub const PAGE_SIZE: usize = 4096;
const HEADER: usize = 4;
const SLOT: usize = 4;

/// Maximum payload a fresh page can accept (one slot entry + data).
pub const MAX_RECORD: usize = PAGE_SIZE - HEADER - SLOT;

/// A fixed-size slotted page.
#[derive(Debug, Clone)]
pub struct Page {
    data: Box<[u8; PAGE_SIZE]>,
}

impl Default for Page {
    fn default() -> Self {
        Page::new()
    }
}

impl Page {
    /// A fresh empty page.
    pub fn new() -> Page {
        let mut data = Box::new([0u8; PAGE_SIZE]);
        write_u16(&mut data[2..4], PAGE_SIZE as u16); // free_end
        Page { data }
    }

    /// Reconstruct a page from raw bytes (e.g. read back from "disk").
    pub fn from_bytes(bytes: &[u8]) -> StorageResult<Page> {
        if bytes.len() != PAGE_SIZE {
            return Err(StorageError::Corrupt {
                reason: format!("page must be {PAGE_SIZE} bytes, got {}", bytes.len()),
            });
        }
        let mut data = Box::new([0u8; PAGE_SIZE]);
        data.copy_from_slice(bytes);
        let page = Page { data };
        // Sanity-check the directory before trusting it.
        let n = page.slot_count();
        let free_end = page.free_end();
        if HEADER + n * SLOT > PAGE_SIZE || free_end > PAGE_SIZE {
            return Err(StorageError::Corrupt {
                reason: "slot directory overruns page".into(),
            });
        }
        for slot in 0..n {
            let (off, len) = page.slot(slot);
            if off < HEADER + n * SLOT || off + len > PAGE_SIZE {
                return Err(StorageError::Corrupt {
                    reason: format!("slot {slot} points outside the page"),
                });
            }
        }
        Ok(page)
    }

    /// Raw bytes of the page.
    pub fn as_bytes(&self) -> &[u8] {
        &self.data[..]
    }

    /// Number of records on the page.
    pub fn slot_count(&self) -> usize {
        read_u16(&self.data[0..2]) as usize
    }

    fn free_end(&self) -> usize {
        read_u16(&self.data[2..4]) as usize
    }

    fn slot(&self, i: usize) -> (usize, usize) {
        let base = HEADER + i * SLOT;
        (
            read_u16(&self.data[base..base + 2]) as usize,
            read_u16(&self.data[base + 2..base + 4]) as usize,
        )
    }

    /// Free bytes remaining (accounting for the slot entry an insert needs).
    pub fn free_space(&self) -> usize {
        let dir_end = HEADER + self.slot_count() * SLOT;
        self.free_end().saturating_sub(dir_end).saturating_sub(SLOT)
    }

    /// Can `payload` be inserted?
    pub fn fits(&self, payload: &[u8]) -> bool {
        payload.len() <= self.free_space()
    }

    /// Insert a record payload, returning its slot id.
    pub fn insert(&mut self, payload: &[u8]) -> StorageResult<usize> {
        if payload.len() > MAX_RECORD {
            return Err(StorageError::RecordTooLarge {
                size: payload.len(),
                max: MAX_RECORD,
            });
        }
        if !self.fits(payload) {
            return Err(StorageError::RecordTooLarge {
                size: payload.len(),
                max: self.free_space(),
            });
        }
        let n = self.slot_count();
        let new_end = self.free_end() - payload.len();
        self.data[new_end..new_end + payload.len()].copy_from_slice(payload);
        let base = HEADER + n * SLOT;
        write_u16(&mut self.data[base..base + 2], new_end as u16);
        write_u16(&mut self.data[base + 2..base + 4], payload.len() as u16);
        write_u16(&mut self.data[0..2], (n + 1) as u16);
        write_u16(&mut self.data[2..4], new_end as u16);
        Ok(n)
    }

    /// Read the payload in `slot`.
    pub fn get(&self, slot: usize) -> StorageResult<&[u8]> {
        let n = self.slot_count();
        if slot >= n {
            return Err(StorageError::SlotOutOfRange { slot, slots: n });
        }
        let (off, len) = self.slot(slot);
        Ok(&self.data[off..off + len])
    }

    /// Iterate over all record payloads on the page.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> + '_ {
        (0..self.slot_count()).map(move |i| {
            let (off, len) = self.slot(i);
            &self.data[off..off + len]
        })
    }
}

fn read_u16(b: &[u8]) -> u16 {
    u16::from_le_bytes([b[0], b[1]])
}

fn write_u16(b: &mut [u8], v: u16) {
    b.copy_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_page_is_empty() {
        let p = Page::new();
        assert_eq!(p.slot_count(), 0);
        assert!(p.free_space() > 4000);
        assert!(p.get(0).is_err());
    }

    #[test]
    fn insert_and_get() {
        let mut p = Page::new();
        let s0 = p.insert(b"hello").unwrap();
        let s1 = p.insert(b"world!").unwrap();
        assert_eq!((s0, s1), (0, 1));
        assert_eq!(p.get(0).unwrap(), b"hello");
        assert_eq!(p.get(1).unwrap(), b"world!");
        assert_eq!(p.slot_count(), 2);
    }

    #[test]
    fn iter_yields_in_insert_order() {
        let mut p = Page::new();
        for payload in [&b"a"[..], b"bb", b"ccc"] {
            p.insert(payload).unwrap();
        }
        let got: Vec<&[u8]> = p.iter().collect();
        assert_eq!(got, vec![&b"a"[..], b"bb", b"ccc"]);
    }

    #[test]
    fn page_fills_up() {
        let mut p = Page::new();
        let payload = [7u8; 100];
        let mut inserted = 0;
        while p.fits(&payload) {
            p.insert(&payload).unwrap();
            inserted += 1;
        }
        assert!(
            inserted >= 38,
            "should fit ~39 104-byte records, got {inserted}"
        );
        assert!(p.insert(&payload).is_err());
        // Everything is still readable.
        assert!(p.iter().all(|r| r == payload));
    }

    #[test]
    fn oversized_record_is_rejected_upfront() {
        let mut p = Page::new();
        let huge = vec![0u8; PAGE_SIZE];
        assert!(matches!(
            p.insert(&huge),
            Err(StorageError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn roundtrip_through_bytes() {
        let mut p = Page::new();
        p.insert(b"persist me").unwrap();
        p.insert(b"me too").unwrap();
        let restored = Page::from_bytes(p.as_bytes()).unwrap();
        assert_eq!(restored.slot_count(), 2);
        assert_eq!(restored.get(0).unwrap(), b"persist me");
        assert_eq!(restored.get(1).unwrap(), b"me too");
    }

    #[test]
    fn from_bytes_validates() {
        assert!(Page::from_bytes(&[0u8; 10]).is_err(), "wrong size");
        // Corrupt directory: claims 2000 slots.
        let mut bytes = vec![0u8; PAGE_SIZE];
        bytes[0] = 0xD0;
        bytes[1] = 0x07;
        assert!(Page::from_bytes(&bytes).is_err());
    }

    #[test]
    fn zero_length_payloads_are_legal() {
        let mut p = Page::new();
        let s = p.insert(b"").unwrap();
        assert_eq!(p.get(s).unwrap(), b"");
    }
}
