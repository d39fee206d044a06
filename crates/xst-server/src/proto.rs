//! Message layer: typed requests and responses over frame payloads.
//!
//! Inside each [`crate::wire`] frame sits exactly one message, encoded
//! with a hand-rolled tagged binary format: one tag byte per variant,
//! little-endian fixed-width integers, and length-prefixed UTF-8 for
//! text. Extended sets travel in the **one value codec**,
//! [`xst_core::codec`] — the same bytes a page slot, a WAL frame and the
//! shard-routing hash hold; its module doc carries the layout table and
//! the hostile-input rules (nesting cap, count bound before allocation,
//! UTF-8 validation, strict canonical order). Text (`Display` and the
//! core parser) is the shell's human syntax and never crosses the wire.
//! [`xst_query::Expr`] trees are encoded structurally (recursively, one
//! tag per operator) with a decode-side depth cap so a hostile payload
//! cannot recurse the decoder off the stack.
//!
//! Decoding is total: every malformed payload maps to a structured
//! [`ProtoError`] — unknown tags, truncated fields, non-UTF-8 text,
//! over-deep, over-counted or non-canonical sets, excess trailing bytes
//! — and never panics.

use std::fmt;
use xst_core::codec::{encode_set, put_bytes, put_u32, put_u64, CodecError, Reader, MAX_DEPTH};
use xst_core::{ExtendedSet, Scope};
use xst_obs::TraceContext;
use xst_query::Expr;
use xst_storage::{FaultKind, FaultSchedule};

/// The protocol version: sent in [`Request::Hello`], echoed in
/// [`Response::Welcome`], and the only one seated. Bump on any
/// wire-incompatible change.
///
/// v3 ships every set in the binary value codec (v1 and v2 shipped
/// display text); v4 orders a set's members scope first and ships a set
/// in which that order and the element-first one disagree under the
/// codec's tag 7, which a v3 peer cannot read. The `Hello` layout is
/// unchanged, so an older peer's handshake still decodes and is refused
/// with a typed [`ErrorCode::Version`] naming this version.
pub const PROTO_VERSION: u32 = 4;

/// Maximum [`Expr`] nesting depth the decoder will follow.
pub const MAX_EXPR_DEPTH: usize = MAX_DEPTH;

/// Everything that can go wrong decoding a message payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The payload ended before a field was complete.
    Truncated,
    /// Bytes remained after the message was fully decoded.
    Trailing(usize),
    /// An unknown tag byte where `what` was expected.
    BadTag {
        /// Which tagged union was being decoded.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A length-prefixed string was not valid UTF-8.
    BadUtf8,
    /// An [`Expr`] nested deeper than [`MAX_EXPR_DEPTH`], or a set deeper
    /// than [`xst_core::codec::MAX_DEPTH`].
    TooDeep,
    /// A set claimed more members than the payload could hold.
    CountExceedsInput,
    /// A set's members were not in strictly ascending canonical order.
    NotCanonical,
}

impl From<CodecError> for ProtoError {
    fn from(e: CodecError) -> ProtoError {
        match e {
            CodecError::Truncated => ProtoError::Truncated,
            CodecError::BadTag(tag) => ProtoError::BadTag { what: "value", tag },
            CodecError::BadUtf8 => ProtoError::BadUtf8,
            CodecError::TooDeep => ProtoError::TooDeep,
            CodecError::CountExceedsInput => ProtoError::CountExceedsInput,
            CodecError::NotCanonical => ProtoError::NotCanonical,
            CodecError::Trailing(n) => ProtoError::Trailing(n),
        }
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "message payload truncated"),
            ProtoError::Trailing(n) => write!(f, "{n} trailing bytes after message"),
            ProtoError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag:#04x}"),
            ProtoError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            ProtoError::TooDeep => {
                write!(
                    f,
                    "expression or set nests deeper than {MAX_EXPR_DEPTH} levels"
                )
            }
            ProtoError::CountExceedsInput => {
                write!(f, "set count exceeds what the payload can hold")
            }
            ProtoError::NotCanonical => {
                write!(f, "set members are not in strictly ascending order")
            }
        }
    }
}

impl std::error::Error for ProtoError {}

/// Machine-readable classification of a [`Response::Error`]. The codes
/// are the client's dispatch surface: `TxnConflict` is what
/// first-committer-wins looks like over the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Malformed frame or message (decode-side failure).
    Protocol,
    /// Handshake version mismatch.
    Version,
    /// Rejected by admission control (server at capacity).
    Admission,
    /// Operand text failed to parse.
    Parse,
    /// The static-analysis gate rejected the plan.
    Analysis,
    /// Evaluation failed at runtime.
    Eval,
    /// Request illegal in the session's current transaction state.
    TxnState,
    /// Commit lost first-committer-wins validation.
    TxnConflict,
    /// A storage-layer failure (I/O, corruption, unknown table).
    Storage,
    /// Any other server-side failure.
    Internal,
}

impl ErrorCode {
    const ALL: [ErrorCode; 10] = [
        ErrorCode::Protocol,
        ErrorCode::Version,
        ErrorCode::Admission,
        ErrorCode::Parse,
        ErrorCode::Analysis,
        ErrorCode::Eval,
        ErrorCode::TxnState,
        ErrorCode::TxnConflict,
        ErrorCode::Storage,
        ErrorCode::Internal,
    ];

    /// Stable display name (used in error text and the shell).
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::Protocol => "protocol",
            ErrorCode::Version => "version",
            ErrorCode::Admission => "admission",
            ErrorCode::Parse => "parse",
            ErrorCode::Analysis => "analysis",
            ErrorCode::Eval => "eval",
            ErrorCode::TxnState => "txn-state",
            ErrorCode::TxnConflict => "txn-conflict",
            ErrorCode::Storage => "storage",
            ErrorCode::Internal => "internal",
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A structured server-side error, as carried by [`Response::Error`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What failed.
    pub code: ErrorCode,
    /// The table involved, when the failure names one (conflicts do).
    pub table: Option<String>,
    /// Human-readable detail.
    pub message: String,
}

impl WireError {
    /// Build an error with no table attribution.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> WireError {
        WireError {
            code,
            table: None,
            message: message.into(),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.table {
            Some(t) => write!(f, "{} [{t}]: {}", self.code, self.message),
            None => write!(f, "{}: {}", self.code, self.message),
        }
    }
}

/// One client request. The variants mirror the shell's command surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Open the session: version handshake. Must be the first request.
    Hello {
        /// The client's [`PROTO_VERSION`].
        version: u32,
        /// Free-form client identification, for diagnostics.
        client: String,
    },
    /// Liveness probe.
    Ping,
    /// Evaluate an expression against the session's snapshot.
    Eval {
        /// The plan to run.
        expr: Expr,
    },
    /// Statically analyze an expression without running it.
    Check {
        /// The plan to analyze.
        expr: Expr,
    },
    /// Optimize + execute and return the per-operator report.
    Explain {
        /// The plan to explain.
        expr: Expr,
    },
    /// Open an explicit transaction (error if one is already open).
    Begin,
    /// Commit the open transaction.
    Commit,
    /// Abort the open transaction.
    Abort,
    /// Insert every member of `set` as a `(element, scope)` record of
    /// `table` — buffered in the open transaction, else autocommitted.
    Put {
        /// Target table.
        table: String,
        /// Members to insert.
        set: ExtendedSet,
    },
    /// Delete every member of `set` from `table`.
    Delete {
        /// Target table.
        table: String,
        /// Members to delete.
        set: ExtendedSet,
    },
    /// Read a table's visible identity (rows as scoped tuples).
    Get {
        /// Table to read.
        table: String,
    },
    /// Metrics exposition (Prometheus text, or JSON).
    Metrics {
        /// `true` for the JSON form.
        json: bool,
    },
    /// Arm the served engine's deterministic fault plan — the hook the
    /// crash-at-commit-site battery drives across the wire.
    ArmFaults {
        /// When to inject.
        schedule: FaultSchedule,
        /// What to inject.
        kind: FaultKind,
    },
    /// Disarm and clear any armed fault plan.
    ClearFaults,
    /// A request annotated with the client's trace context: the
    /// server adopts `ctx` while handling `req`, so every server-side
    /// span stitches under the client's trace. Never nests.
    Traced {
        /// The trace the server-side spans should join.
        ctx: TraceContext,
        /// The request to handle under that trace.
        req: Box<Request>,
    },
    /// Fetch the server's collected spans as an `xst-trace/1` JSON
    /// document, answered with [`Response::Report`].
    TraceDump,
    /// Fetch the server's structured request log, answered with a
    /// rendered [`Response::Report`] table.
    RequestLog {
        /// `true` for the threshold-gated slow ring, `false` for the
        /// slowest retained requests (the `.top` ranking).
        slow: bool,
        /// Most records to return.
        limit: u32,
    },
    /// Read the shard-local **fragment** of `table` this server owns —
    /// the member set, not the row-tuple identity — through the
    /// session's visible snapshot (the scatter half of the wire
    /// coordinator's scatter-gather). Answered with [`Response::Value`].
    FragRead {
        /// Table whose local fragment to read.
        table: String,
    },
    /// **Phase one of wire 2PC**: consume the session's open
    /// transaction and stage its writes as a durable prepare tagged with
    /// the coordinator's global transaction id. After this the session
    /// has no open transaction — a disconnect no longer aborts the
    /// writes; they await [`Request::Decide`] or [`Request::Resolve`].
    Prepare {
        /// The coordinator's global transaction id.
        gtxn: u64,
    },
    /// **Phase two of wire 2PC**: deliver the coordinator's
    /// already-durable decision for a prepared transaction.
    Decide {
        /// The global transaction id the decision names.
        gtxn: u64,
        /// `true` publishes the prepared writes; `false` drops them.
        commit: bool,
    },
    /// Resolve **every** transaction still prepared on this server
    /// against the coordinator's committed set: named gtxns publish,
    /// all others abort (presumed abort). Sent by a recovering or
    /// reconnecting coordinator.
    Resolve {
        /// Every committed gtxn the coordinator's decision log records.
        committed: Vec<u64>,
    },
}

impl Request {
    /// Stable request-kind name, for the request log and span
    /// attributes. A [`Request::Traced`] wrapper reports its inner kind.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Request::Hello { .. } => "hello",
            Request::Ping => "ping",
            Request::Eval { .. } => "eval",
            Request::Check { .. } => "check",
            Request::Explain { .. } => "explain",
            Request::Begin => "begin",
            Request::Commit => "commit",
            Request::Abort => "abort",
            Request::Put { .. } => "put",
            Request::Delete { .. } => "delete",
            Request::Get { .. } => "get",
            Request::Metrics { .. } => "metrics",
            Request::ArmFaults { .. } => "arm-faults",
            Request::ClearFaults => "clear-faults",
            Request::Traced { req, .. } => req.kind_name(),
            Request::TraceDump => "trace-dump",
            Request::RequestLog { .. } => "request-log",
            Request::FragRead { .. } => "frag-read",
            Request::Prepare { .. } => "prepare",
            Request::Decide { .. } => "decide",
            Request::Resolve { .. } => "resolve",
        }
    }

    /// Short free-form detail for the request log: the table a request
    /// names, if any.
    pub fn detail(&self) -> String {
        match self {
            Request::Put { table, .. }
            | Request::Delete { table, .. }
            | Request::Get { table }
            | Request::FragRead { table } => table.clone(),
            Request::Prepare { gtxn } | Request::Decide { gtxn, .. } => format!("gtxn {gtxn}"),
            Request::Traced { req, .. } => req.detail(),
            _ => String::new(),
        }
    }
}

/// One server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Handshake accepted.
    Welcome {
        /// The server's [`PROTO_VERSION`].
        version: u32,
        /// Server identification banner.
        banner: String,
    },
    /// Liveness reply.
    Pong,
    /// An evaluated set.
    Value {
        /// The result identity.
        set: ExtendedSet,
    },
    /// A rendered text report (check/explain/metrics).
    Report {
        /// The report body.
        text: String,
    },
    /// An explicit transaction is now open.
    TxnBegun {
        /// Its transaction id.
        id: u64,
        /// The commit timestamp its snapshot reads from.
        snapshot_ts: u64,
    },
    /// A put/delete was applied.
    Applied {
        /// Rows the request touched.
        rows: u64,
        /// The commit timestamp, when the request autocommitted
        /// (`None` while buffered inside an explicit transaction).
        autocommit_ts: Option<u64>,
    },
    /// The open transaction committed.
    Committed {
        /// Its commit timestamp.
        ts: u64,
    },
    /// The open transaction aborted.
    Aborted,
    /// The fault plan is armed (or cleared, for `armed == false`).
    FaultsArmed {
        /// Whether a plan is now armed.
        armed: bool,
    },
    /// The request failed; the session survives (except version and
    /// admission errors, after which the server closes the stream).
    Error(WireError),
    /// A [`Request::Prepare`] staged a durable prepare.
    Prepared {
        /// The global transaction id, echoed for sanity.
        gtxn: u64,
        /// Local shards that flushed a prepare (0 = the transaction was
        /// read-only here and there is nothing to decide).
        participants: u64,
    },
    /// A [`Request::Decide`] was applied.
    Decided {
        /// Whether the decision was commit.
        committed: bool,
        /// The local commit timestamp (0 for an abort).
        ts: u64,
    },
    /// A [`Request::Resolve`] swept the prepared set.
    Resolved {
        /// In-doubt transactions published as committed.
        committed: u64,
        /// In-doubt transactions dropped (presumed abort).
        aborted: u64,
    },
}

impl Response {
    /// Stable outcome name for the request log: `"ok"`, or the error
    /// code name for [`Response::Error`].
    pub fn outcome(&self) -> &'static str {
        match self {
            Response::Error(e) => e.code.name(),
            _ => "ok",
        }
    }
}

/// A door: anything that answers one [`Request`] with one [`Response`].
/// The in-process [`Session`](crate::Session), the wire `Client` and the
/// cluster `Coordinator` (both in `xst-client`) are the three, so one
/// caller — the shell's verb renderer, the door-model differential, the
/// coordinator itself, which reaches its shards through doors — drives
/// every deployment with the same vocabulary.
///
/// A request the store *refuses* is an answer: `Ok` of a
/// [`Response::Error`] carrying the server-side [`ErrorCode`], the same
/// code through every door. `Err` is a failure of the door itself — a
/// socket, a deadline, an unreachable shard.
///
/// Doors agree on [`Request::FragRead`]: it answers the table's member
/// set. They do **not** yet agree on [`Request::Get`] and
/// [`Request::Eval`]: a session (and so a client) answers the row-tuple
/// identity `{⟨element, scope⟩}`, the coordinator the member set. Both
/// readings are pinned by `bench/`'s oracles; ROADMAP item 3 is the open
/// finding, and unifying them waits on item 1(b), a benchmark-archetype
/// change.
pub trait Door {
    /// How the door itself fails (never a refusal).
    type Error: fmt::Display + fmt::Debug;

    /// Answer `req`.
    fn call(&mut self, req: Request) -> Result<Response, Self::Error>;
}

// ---------------------------------------------------------------------------
// Field codecs over the core writer functions and `Reader`.
// ---------------------------------------------------------------------------

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

fn put_scope(out: &mut Vec<u8>, s: &Scope) {
    encode_set(&s.sigma1, out);
    encode_set(&s.sigma2, out);
}

fn put_expr(out: &mut Vec<u8>, e: &Expr) {
    match e {
        Expr::Literal(s) => {
            out.push(0);
            encode_set(s, out);
        }
        Expr::Table(name) => {
            out.push(1);
            put_str(out, name);
        }
        Expr::Union(a, b) => {
            out.push(2);
            put_expr(out, a);
            put_expr(out, b);
        }
        Expr::Intersect(a, b) => {
            out.push(3);
            put_expr(out, a);
            put_expr(out, b);
        }
        Expr::Difference(a, b) => {
            out.push(4);
            put_expr(out, a);
            put_expr(out, b);
        }
        Expr::Restrict { r, sigma, a } => {
            out.push(5);
            put_expr(out, r);
            encode_set(sigma, out);
            put_expr(out, a);
        }
        Expr::Domain { r, sigma } => {
            out.push(6);
            put_expr(out, r);
            encode_set(sigma, out);
        }
        Expr::Image { r, a, scope } => {
            out.push(7);
            put_expr(out, r);
            put_expr(out, a);
            put_scope(out, scope);
        }
        Expr::RelProduct { f, sigma, g, omega } => {
            out.push(8);
            put_expr(out, f);
            put_scope(out, sigma);
            put_expr(out, g);
            put_scope(out, omega);
        }
        Expr::Cross(a, b) => {
            out.push(9);
            put_expr(out, a);
            put_expr(out, b);
        }
    }
}

fn put_schedule(out: &mut Vec<u8>, s: &FaultSchedule) {
    match s {
        FaultSchedule::AtSite(k) => {
            out.push(0);
            put_u64(out, *k);
        }
        FaultSchedule::EveryNth(k) => {
            out.push(1);
            put_u64(out, *k);
        }
    }
}

fn put_kind(out: &mut Vec<u8>, k: &FaultKind) {
    match k {
        FaultKind::WriteFail => out.push(0),
        FaultKind::TornWrite(n) => {
            out.push(1);
            put_u64(out, *n as u64);
        }
        FaultKind::ShortRead(n) => {
            out.push(2);
            put_u64(out, *n as u64);
        }
        FaultKind::SyncFail => out.push(3),
        FaultKind::Transient => out.push(4),
    }
}

fn get_bool(rd: &mut Reader, what: &'static str) -> Result<bool, ProtoError> {
    match rd.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        tag => Err(ProtoError::BadTag { what, tag }),
    }
}

fn get_string(rd: &mut Reader) -> Result<String, ProtoError> {
    Ok(rd.str()?.to_owned())
}

fn get_scope(rd: &mut Reader) -> Result<Scope, ProtoError> {
    let sigma1 = rd.set()?;
    let sigma2 = rd.set()?;
    Ok(Scope::new(sigma1, sigma2))
}

fn get_expr(rd: &mut Reader, depth: usize) -> Result<Expr, ProtoError> {
    if depth >= MAX_EXPR_DEPTH {
        return Err(ProtoError::TooDeep);
    }
    let d = depth + 1;
    Ok(match rd.u8()? {
        0 => Expr::Literal(rd.set()?),
        1 => Expr::Table(get_string(rd)?),
        2 => Expr::Union(Box::new(get_expr(rd, d)?), Box::new(get_expr(rd, d)?)),
        3 => Expr::Intersect(Box::new(get_expr(rd, d)?), Box::new(get_expr(rd, d)?)),
        4 => Expr::Difference(Box::new(get_expr(rd, d)?), Box::new(get_expr(rd, d)?)),
        5 => Expr::Restrict {
            r: Box::new(get_expr(rd, d)?),
            sigma: rd.set()?,
            a: Box::new(get_expr(rd, d)?),
        },
        6 => Expr::Domain {
            r: Box::new(get_expr(rd, d)?),
            sigma: rd.set()?,
        },
        7 => Expr::Image {
            r: Box::new(get_expr(rd, d)?),
            a: Box::new(get_expr(rd, d)?),
            scope: get_scope(rd)?,
        },
        8 => Expr::RelProduct {
            f: Box::new(get_expr(rd, d)?),
            sigma: get_scope(rd)?,
            g: Box::new(get_expr(rd, d)?),
            omega: get_scope(rd)?,
        },
        9 => Expr::Cross(Box::new(get_expr(rd, d)?), Box::new(get_expr(rd, d)?)),
        tag => return Err(ProtoError::BadTag { what: "expr", tag }),
    })
}

fn get_schedule(rd: &mut Reader) -> Result<FaultSchedule, ProtoError> {
    Ok(match rd.u8()? {
        0 => FaultSchedule::AtSite(rd.u64()?),
        1 => FaultSchedule::EveryNth(rd.u64()?),
        tag => {
            return Err(ProtoError::BadTag {
                what: "fault schedule",
                tag,
            })
        }
    })
}

fn get_kind(rd: &mut Reader) -> Result<FaultKind, ProtoError> {
    Ok(match rd.u8()? {
        0 => FaultKind::WriteFail,
        1 => FaultKind::TornWrite(rd.u64()? as usize),
        2 => FaultKind::ShortRead(rd.u64()? as usize),
        3 => FaultKind::SyncFail,
        4 => FaultKind::Transient,
        tag => {
            return Err(ProtoError::BadTag {
                what: "fault kind",
                tag,
            })
        }
    })
}

// ---------------------------------------------------------------------------
// Message codecs.
// ---------------------------------------------------------------------------

impl Request {
    /// Encode into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Request::Hello { version, client } => {
                out.push(0);
                put_u32(out, *version);
                put_str(out, client);
            }
            Request::Ping => out.push(1),
            Request::Eval { expr } => {
                out.push(2);
                put_expr(out, expr);
            }
            Request::Check { expr } => {
                out.push(3);
                put_expr(out, expr);
            }
            Request::Explain { expr } => {
                out.push(4);
                put_expr(out, expr);
            }
            Request::Begin => out.push(5),
            Request::Commit => out.push(6),
            Request::Abort => out.push(7),
            Request::Put { table, set } => {
                out.push(8);
                put_str(out, table);
                encode_set(set, out);
            }
            Request::Delete { table, set } => {
                out.push(9);
                put_str(out, table);
                encode_set(set, out);
            }
            Request::Get { table } => {
                out.push(10);
                put_str(out, table);
            }
            Request::Metrics { json } => {
                out.push(11);
                out.push(u8::from(*json));
            }
            Request::ArmFaults { schedule, kind } => {
                out.push(12);
                put_schedule(out, schedule);
                put_kind(out, kind);
            }
            Request::ClearFaults => out.push(13),
            Request::Traced { ctx, req } => {
                out.push(14);
                put_u64(out, ctx.trace_id);
                put_u64(out, ctx.parent_span);
                req.encode_into(out);
            }
            Request::TraceDump => out.push(15),
            Request::RequestLog { slow, limit } => {
                out.push(16);
                out.push(u8::from(*slow));
                put_u32(out, *limit);
            }
            Request::FragRead { table } => {
                out.push(17);
                put_str(out, table);
            }
            Request::Prepare { gtxn } => {
                out.push(18);
                put_u64(out, *gtxn);
            }
            Request::Decide { gtxn, commit } => {
                out.push(19);
                put_u64(out, *gtxn);
                out.push(u8::from(*commit));
            }
            Request::Resolve { committed } => {
                out.push(20);
                put_u32(out, committed.len() as u32);
                for g in committed {
                    put_u64(out, *g);
                }
            }
        }
    }

    /// Decode from a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Request, ProtoError> {
        let mut rd = Reader::new(payload);
        let req = Request::decode_body(&mut rd, true)?;
        rd.finish()?;
        Ok(req)
    }

    /// Decode one request body. `allow_traced` is false when decoding
    /// the inner request of a [`Request::Traced`] wrapper, so a hostile
    /// payload cannot nest wrappers (and carries no recursion risk).
    fn decode_body(rd: &mut Reader, allow_traced: bool) -> Result<Request, ProtoError> {
        let req = match rd.u8()? {
            0 => Request::Hello {
                version: rd.u32()?,
                client: get_string(rd)?,
            },
            1 => Request::Ping,
            2 => Request::Eval {
                expr: get_expr(rd, 0)?,
            },
            3 => Request::Check {
                expr: get_expr(rd, 0)?,
            },
            4 => Request::Explain {
                expr: get_expr(rd, 0)?,
            },
            5 => Request::Begin,
            6 => Request::Commit,
            7 => Request::Abort,
            8 => Request::Put {
                table: get_string(rd)?,
                set: rd.set()?,
            },
            9 => Request::Delete {
                table: get_string(rd)?,
                set: rd.set()?,
            },
            10 => Request::Get {
                table: get_string(rd)?,
            },
            11 => Request::Metrics {
                json: get_bool(rd, "metrics form")?,
            },
            12 => Request::ArmFaults {
                schedule: get_schedule(rd)?,
                kind: get_kind(rd)?,
            },
            13 => Request::ClearFaults,
            14 if allow_traced => {
                let ctx = TraceContext {
                    trace_id: rd.u64()?,
                    parent_span: rd.u64()?,
                };
                let req = Request::decode_body(rd, false)?;
                Request::Traced {
                    ctx,
                    req: Box::new(req),
                }
            }
            14 => {
                return Err(ProtoError::BadTag {
                    what: "nested traced request",
                    tag: 14,
                })
            }
            15 => Request::TraceDump,
            16 => Request::RequestLog {
                slow: get_bool(rd, "slow flag")?,
                limit: rd.u32()?,
            },
            17 => Request::FragRead {
                table: get_string(rd)?,
            },
            18 => Request::Prepare { gtxn: rd.u64()? },
            19 => Request::Decide {
                gtxn: rd.u64()?,
                commit: get_bool(rd, "decide flag")?,
            },
            20 => {
                let n = rd.u32()? as usize;
                // Bound the pre-allocation by what the payload can hold
                // (8 bytes per id), so a hostile length cannot balloon.
                let mut committed = Vec::with_capacity(n.min(rd.remaining() / 8 + 1));
                for _ in 0..n {
                    committed.push(rd.u64()?);
                }
                Request::Resolve { committed }
            }
            tag => {
                return Err(ProtoError::BadTag {
                    what: "request",
                    tag,
                })
            }
        };
        Ok(req)
    }
}

impl Response {
    /// Encode into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Welcome { version, banner } => {
                out.push(0);
                put_u32(&mut out, *version);
                put_str(&mut out, banner);
            }
            Response::Pong => out.push(1),
            Response::Value { set } => {
                out.push(2);
                encode_set(set, &mut out);
            }
            Response::Report { text } => {
                out.push(3);
                put_str(&mut out, text);
            }
            Response::TxnBegun { id, snapshot_ts } => {
                out.push(4);
                put_u64(&mut out, *id);
                put_u64(&mut out, *snapshot_ts);
            }
            Response::Applied {
                rows,
                autocommit_ts,
            } => {
                out.push(5);
                put_u64(&mut out, *rows);
                match autocommit_ts {
                    None => out.push(0),
                    Some(ts) => {
                        out.push(1);
                        put_u64(&mut out, *ts);
                    }
                }
            }
            Response::Committed { ts } => {
                out.push(6);
                put_u64(&mut out, *ts);
            }
            Response::Aborted => out.push(7),
            Response::FaultsArmed { armed } => {
                out.push(8);
                out.push(u8::from(*armed));
            }
            Response::Error(e) => {
                out.push(9);
                out.push(e.code as u8);
                match &e.table {
                    None => out.push(0),
                    Some(t) => {
                        out.push(1);
                        put_str(&mut out, t);
                    }
                }
                put_str(&mut out, &e.message);
            }
            Response::Prepared { gtxn, participants } => {
                out.push(10);
                put_u64(&mut out, *gtxn);
                put_u64(&mut out, *participants);
            }
            Response::Decided { committed, ts } => {
                out.push(11);
                out.push(u8::from(*committed));
                put_u64(&mut out, *ts);
            }
            Response::Resolved { committed, aborted } => {
                out.push(12);
                put_u64(&mut out, *committed);
                put_u64(&mut out, *aborted);
            }
        }
        out
    }

    /// Decode from a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Response, ProtoError> {
        let rd = &mut Reader::new(payload);
        let resp = match rd.u8()? {
            0 => Response::Welcome {
                version: rd.u32()?,
                banner: get_string(rd)?,
            },
            1 => Response::Pong,
            2 => Response::Value { set: rd.set()? },
            3 => Response::Report {
                text: get_string(rd)?,
            },
            4 => Response::TxnBegun {
                id: rd.u64()?,
                snapshot_ts: rd.u64()?,
            },
            5 => Response::Applied {
                rows: rd.u64()?,
                autocommit_ts: if get_bool(rd, "option tag")? {
                    Some(rd.u64()?)
                } else {
                    None
                },
            },
            6 => Response::Committed { ts: rd.u64()? },
            7 => Response::Aborted,
            8 => Response::FaultsArmed {
                armed: get_bool(rd, "armed flag")?,
            },
            9 => {
                let code_tag = rd.u8()?;
                let code = *ErrorCode::ALL
                    .get(code_tag as usize)
                    .ok_or(ProtoError::BadTag {
                        what: "error code",
                        tag: code_tag,
                    })?;
                let table = if get_bool(rd, "option tag")? {
                    Some(get_string(rd)?)
                } else {
                    None
                };
                Response::Error(WireError {
                    code,
                    table,
                    message: get_string(rd)?,
                })
            }
            10 => Response::Prepared {
                gtxn: rd.u64()?,
                participants: rd.u64()?,
            },
            11 => Response::Decided {
                committed: get_bool(rd, "decided flag")?,
                ts: rd.u64()?,
            },
            12 => Response::Resolved {
                committed: rd.u64()?,
                aborted: rd.u64()?,
            },
            tag => {
                return Err(ProtoError::BadTag {
                    what: "response",
                    tag,
                })
            }
        };
        rd.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xst_core::xset;

    #[test]
    fn request_round_trips() {
        let exprs = [
            Expr::table("t"),
            Expr::lit(xset![1, 2]).union(Expr::table("u")),
            Expr::table("r").restrict(xset![1], Expr::lit(xset![3])),
        ];
        let mut reqs = vec![
            Request::Hello {
                version: PROTO_VERSION,
                client: "test".into(),
            },
            Request::Ping,
            Request::Begin,
            Request::Commit,
            Request::Abort,
            Request::Put {
                table: "t".into(),
                set: xset![1, 2, 3],
            },
            Request::Delete {
                table: "t".into(),
                set: xset![2],
            },
            Request::Get { table: "t".into() },
            Request::Metrics { json: true },
            Request::Metrics { json: false },
            Request::ArmFaults {
                schedule: FaultSchedule::AtSite(7),
                kind: FaultKind::TornWrite(37),
            },
            Request::ClearFaults,
            Request::FragRead { table: "t".into() },
            Request::Prepare { gtxn: 42 },
            Request::Decide {
                gtxn: 42,
                commit: true,
            },
            Request::Decide {
                gtxn: 43,
                commit: false,
            },
            Request::Resolve { committed: vec![] },
            Request::Resolve {
                committed: vec![1, 7, u64::MAX],
            },
        ];
        for e in exprs {
            reqs.push(Request::Eval { expr: e.clone() });
            reqs.push(Request::Check { expr: e.clone() });
            reqs.push(Request::Explain { expr: e });
        }
        for req in reqs {
            let decoded = Request::decode(&req.encode()).unwrap();
            assert_eq!(decoded, req);
        }
    }

    #[test]
    fn response_round_trips() {
        let resps = [
            Response::Welcome {
                version: PROTO_VERSION,
                banner: "xst-server".into(),
            },
            Response::Pong,
            Response::Value { set: xset![1, 2] },
            Response::Report {
                text: "line 1\nline 2".into(),
            },
            Response::TxnBegun {
                id: 3,
                snapshot_ts: 9,
            },
            Response::Applied {
                rows: 4,
                autocommit_ts: Some(5),
            },
            Response::Applied {
                rows: 0,
                autocommit_ts: None,
            },
            Response::Committed { ts: 11 },
            Response::Aborted,
            Response::FaultsArmed { armed: true },
            Response::Error(WireError {
                code: ErrorCode::TxnConflict,
                table: Some("t".into()),
                message: "first committer won".into(),
            }),
            Response::Prepared {
                gtxn: 42,
                participants: 1,
            },
            Response::Decided {
                committed: true,
                ts: 9,
            },
            Response::Decided {
                committed: false,
                ts: 0,
            },
            Response::Resolved {
                committed: 2,
                aborted: 3,
            },
        ];
        for resp in resps {
            let decoded = Response::decode(&resp.encode()).unwrap();
            assert_eq!(decoded, resp);
        }
    }

    #[test]
    fn deep_expressions_are_rejected_not_overflowed() {
        let mut e = Expr::table("t");
        for _ in 0..(MAX_EXPR_DEPTH * 4) {
            e = e.union(Expr::table("t"));
        }
        let payload = Request::Eval { expr: e }.encode();
        assert_eq!(Request::decode(&payload), Err(ProtoError::TooDeep));
    }

    #[test]
    fn truncation_and_trailing_bytes_are_structured() {
        let payload = Request::Get { table: "t".into() }.encode();
        for cut in 0..payload.len() {
            let err = Request::decode(&payload[..cut]).unwrap_err();
            assert!(
                matches!(err, ProtoError::Truncated | ProtoError::BadTag { .. }),
                "cut {cut}: {err:?}"
            );
        }
        let mut extended = payload.clone();
        extended.push(0);
        assert_eq!(Request::decode(&extended), Err(ProtoError::Trailing(1)));
    }
}
