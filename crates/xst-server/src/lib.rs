//! # xst-server — the network front end of the XST engine
//!
//! Childs' 1977 program pitches extended set theory as the foundation of
//! *very large, distributed, backend information systems* serving many
//! concurrent consumers. Until this crate, the reproduction stopped at an
//! in-process shell: one user, one address space. `xst-server` turns the
//! engine into that backend — a TCP server any number of clients can
//! reach, each with its own transactional session over one shared
//! [`TxnManager`](xst_storage::TxnManager) version chain.
//!
//! The stack, bottom to top:
//!
//! * [`wire`] — length-prefixed, CRC-guarded frames. Every way a frame
//!   can be malformed is a distinct structured error; oversize lengths
//!   are rejected before allocation.
//! * [`proto`] — typed [`Request`]/[`Response`] messages inside frames.
//!   Sets travel in the one binary value codec ([`xst_core::codec`], the
//!   bytes pages and the WAL already hold); expressions are encoded
//!   structurally with a decode-side depth cap. Beside them, [`Door`]:
//!   answer one request with one response — a [`Session`] here, the
//!   client and the cluster coordinator in `xst-client`.
//! * [`session`] — per-connection dispatch over the shared
//!   [`ServedEngine`]: snapshot-isolated transactions with autocommit
//!   default, read-your-own-writes, abort-on-disconnect, and the armable
//!   deterministic fault plan that makes the acknowledged⇒recoverable
//!   contract testable across the wire.
//! * [`server`] — the accept loop: thread-per-connection, a configurable
//!   session cap with a bounded admission queue (backpressure), typed
//!   rejection, and deterministic shutdown. Accept/reject/active/queue
//!   state is exported through the `xst_server_*` metric families.
//!
//! The companion `xst-client` crate is the blocking typed client every
//! test and the shell drive this server through. Nothing in this crate
//! panics on untrusted input — `xst-lint`'s no-panic rule covers it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod proto;
pub mod server;
pub mod session;
pub mod wire;

pub use proto::{Door, ErrorCode, ProtoError, Request, Response, WireError, PROTO_VERSION};
pub use server::{Server, ServerConfig};
pub use session::{
    member_schema, records_identity_to_set, set_to_records, storage_error, xst_error, ServedEngine,
    Session,
};
pub use wire::{encode_frame, read_frame, write_frame, FrameError, MAGIC, MAX_FRAME};
