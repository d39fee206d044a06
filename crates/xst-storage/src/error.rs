//! Error types for the storage substrate.

use std::fmt;

/// Errors produced by the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A record did not fit in a page.
    RecordTooLarge {
        /// Encoded size of the record.
        size: usize,
        /// Maximum payload a fresh page can hold.
        max: usize,
    },
    /// A page id was out of range for the file.
    PageOutOfRange {
        /// The requested page id.
        page: usize,
        /// Number of pages in the file.
        pages: usize,
    },
    /// A slot id was out of range for the page.
    SlotOutOfRange {
        /// The requested slot.
        slot: usize,
        /// Number of slots on the page.
        slots: usize,
    },
    /// Stored bytes failed to decode as a value.
    Corrupt {
        /// Human-readable explanation.
        reason: String,
    },
    /// A record's shape did not match the schema it was used with.
    SchemaMismatch {
        /// Human-readable explanation.
        reason: String,
    },
    /// A transient I/O failure: the device hiccuped but retrying the same
    /// operation may succeed. The only variant [`StorageError::is_transient`]
    /// reports, and therefore the only one a [`crate::retry::RetryPolicy`]
    /// will retry.
    Transient {
        /// The operation that failed (e.g. `"append_page"`).
        op: String,
    },
    /// A permanent I/O failure: a failed or torn write, or a failed
    /// fsync-equivalent. Retrying will not help; recovery might.
    Io {
        /// The operation that failed.
        op: String,
        /// Human-readable explanation.
        reason: String,
    },
    /// In-memory state no longer mirrors durable state (e.g. a record was
    /// acknowledged in the WAL but could not be applied to its heap file).
    /// The handle is wedged; run [`crate::wal::LoggedTable::recover`].
    NeedsRecovery {
        /// Human-readable explanation.
        reason: String,
    },
    /// A snapshot-isolated transaction lost the first-committer-wins race:
    /// another transaction committed an overlapping write set after this
    /// one took its snapshot. The transaction is aborted; re-running it
    /// against a fresh snapshot may succeed, but the *same* commit attempt
    /// must not be retried blindly — hence not
    /// [`StorageError::is_transient`].
    TxnConflict {
        /// The table on which the write sets collided.
        table: String,
        /// Human-readable explanation (which records overlapped).
        reason: String,
    },
    /// Propagated error from the XST algebra.
    Xst(xst_core::XstError),
}

impl StorageError {
    /// True iff retrying the failed operation may succeed. Everything but
    /// [`StorageError::Transient`] is permanent: corruption, contract
    /// violations, and hard I/O failures don't heal on retry.
    pub fn is_transient(&self) -> bool {
        matches!(self, StorageError::Transient { .. })
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::RecordTooLarge { size, max } => {
                write!(f, "record of {size} bytes exceeds page payload {max}")
            }
            StorageError::PageOutOfRange { page, pages } => {
                write!(f, "page {page} out of range (file has {pages})")
            }
            StorageError::SlotOutOfRange { slot, slots } => {
                write!(f, "slot {slot} out of range (page has {slots})")
            }
            StorageError::Corrupt { reason } => write!(f, "corrupt page data: {reason}"),
            StorageError::SchemaMismatch { reason } => write!(f, "schema mismatch: {reason}"),
            StorageError::Transient { op } => {
                write!(f, "transient i/o failure during {op} (retry may succeed)")
            }
            StorageError::Io { op, reason } => write!(f, "i/o failure during {op}: {reason}"),
            StorageError::NeedsRecovery { reason } => {
                write!(f, "storage needs recovery: {reason}")
            }
            StorageError::TxnConflict { table, reason } => {
                write!(
                    f,
                    "write-write conflict on table '{table}' (first committer wins): {reason}"
                )
            }
            StorageError::Xst(e) => write!(f, "xst error: {e}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<xst_core::codec::CodecError> for StorageError {
    fn from(e: xst_core::codec::CodecError) -> Self {
        StorageError::Corrupt {
            reason: e.to_string(),
        }
    }
}

impl From<xst_core::XstError> for StorageError {
    fn from(e: xst_core::XstError) -> Self {
        StorageError::Xst(e)
    }
}

/// Result alias for the storage layer.
pub type StorageResult<T> = Result<T, StorageError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = StorageError::RecordTooLarge {
            size: 9000,
            max: 4080,
        };
        assert!(e.to_string().contains("9000"));
        let e = StorageError::PageOutOfRange { page: 9, pages: 3 };
        assert!(e.to_string().contains("page 9"));
        let e = StorageError::Corrupt {
            reason: "bad tag".into(),
        };
        assert!(e.to_string().contains("bad tag"));
    }

    #[test]
    fn transient_classification_is_exact() {
        let t = StorageError::Transient {
            op: "read_page".into(),
        };
        assert!(t.is_transient());
        assert!(t.to_string().contains("read_page"));
        for permanent in [
            StorageError::Io {
                op: "append_page".into(),
                reason: "torn write".into(),
            },
            StorageError::NeedsRecovery {
                reason: "acknowledged record not applied".into(),
            },
            StorageError::Corrupt {
                reason: "bad frame".into(),
            },
            StorageError::PageOutOfRange { page: 1, pages: 0 },
            StorageError::TxnConflict {
                table: "t".into(),
                reason: "overlapping write sets".into(),
            },
        ] {
            assert!(!permanent.is_transient(), "{permanent} must be permanent");
        }
    }

    #[test]
    fn converts_from_xst_error() {
        let x = xst_core::XstError::NoUniqueValue { candidates: 0 };
        let s: StorageError = x.clone().into();
        assert_eq!(s, StorageError::Xst(x));
    }
}
