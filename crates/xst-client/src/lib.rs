//! # xst-client — blocking typed client for the XST wire protocol
//!
//! One [`Client`] is one connection is one server-side session: a
//! private transactional view over the served engine. The API is
//! deliberately small and synchronous — connect, issue one request at a
//! time, get a typed result — because every consumer in this workspace
//! (the shell's `.connect`, the end-to-end battery, the latency
//! experiments) wants exactly that shape.
//!
//! Every failure is a typed [`ClientError`]. Server-side failures arrive
//! as [`ClientError::Remote`] carrying the wire [`ErrorCode`] — so a
//! commit that lost first-committer-wins validation is
//! `Remote { code: TxnConflict, .. }`, checkable with
//! [`ClientError::is_conflict`], not a stringly-typed guess.
//!
//! ## Distributed tracing
//!
//! When the observability collector is on, every call **originates a
//! trace**: it opens a
//! `client.request` root span and ships its
//! [`TraceContext`](xst_obs::TraceContext) inside a
//! [`Request::Traced`] wrapper, so the server-side spans
//! (`session.request` → `query.eval` → `txn.*`/`wal.*`) stitch under
//! the same 64-bit trace id. [`Client::trace_dump`] fetches the
//! server's collected spans as `xst-trace/1` JSON and
//! [`Client::request_log`] its structured per-request cost records.
//! With [`Client::set_tracing`] off, calls travel bare.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt;
use std::net::TcpStream;
use std::time::{Duration, Instant};
use xst_core::ExtendedSet;
use xst_query::Expr;
use xst_server::proto::{Door, ErrorCode, Request, Response, WireError, PROTO_VERSION};
use xst_server::wire::{read_frame, write_frame, FrameError};
use xst_storage::{FaultKind, FaultSchedule};

/// Everything that can go wrong on the client side of a session.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (connect, read, or write).
    Io(std::io::Error),
    /// A configured read/write deadline expired before the server
    /// answered. The stream may hold a half-delivered frame, so the
    /// connection should be abandoned, not reused.
    Timeout,
    /// The byte stream violated the frame or message protocol.
    Protocol(String),
    /// The handshake failed (version mismatch or malformed welcome).
    Handshake(String),
    /// The server refused the connection at admission control.
    Rejected(String),
    /// The server answered with a structured error; the session
    /// survives (admission/version errors surface as
    /// [`ClientError::Rejected`]/[`ClientError::Handshake`] instead).
    Remote(WireError),
    /// The server answered with a response kind the request cannot
    /// produce — a server bug or a desynced stream.
    Unexpected(String),
}

impl ClientError {
    /// Is this a first-committer-wins conflict (retry on a fresh
    /// snapshot may succeed)?
    pub fn is_conflict(&self) -> bool {
        matches!(
            self,
            ClientError::Remote(WireError {
                code: ErrorCode::TxnConflict,
                ..
            })
        )
    }

    /// The remote error code, if this is a remote failure.
    pub fn remote_code(&self) -> Option<ErrorCode> {
        match self {
            ClientError::Remote(e) => Some(e.code),
            _ => None,
        }
    }

    /// Did a configured request deadline expire?
    pub fn is_timeout(&self) -> bool {
        matches!(self, ClientError::Timeout)
    }
}

/// Map an I/O failure to [`ClientError`], folding the two kinds the
/// platform uses for an expired socket deadline (`TimedOut` on most
/// systems, `WouldBlock` where timeouts surface as non-blocking reads)
/// into the typed [`ClientError::Timeout`].
fn io_to_client(e: std::io::Error) -> ClientError {
    match e.kind() {
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => ClientError::Timeout,
        _ => ClientError::Io(e),
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport failure: {e}"),
            ClientError::Timeout => write!(f, "request deadline expired"),
            ClientError::Protocol(m) => write!(f, "protocol violation: {m}"),
            ClientError::Handshake(m) => write!(f, "handshake failed: {m}"),
            ClientError::Rejected(m) => write!(f, "admission rejected: {m}"),
            ClientError::Remote(e) => write!(f, "server error: {e}"),
            ClientError::Unexpected(m) => write!(f, "unexpected response: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        io_to_client(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> ClientError {
        match e {
            FrameError::Io(io) => io_to_client(io),
            other => ClientError::Protocol(other.to_string()),
        }
    }
}

/// Result alias for every client call.
pub type ClientResult<T> = Result<T, ClientError>;

/// The outcome of a put/delete: how many rows it touched, and the
/// commit timestamp if it autocommitted (buffered writes have none).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Applied {
    /// Rows the request touched.
    pub rows: u64,
    /// Commit timestamp when autocommitted, `None` while buffered in an
    /// open transaction.
    pub autocommit_ts: Option<u64>,
}

/// An open transaction's identity, as reported by `begin`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnInfo {
    /// The server-assigned transaction id.
    pub id: u64,
    /// The commit timestamp the transaction's snapshot reads from.
    pub snapshot_ts: u64,
}

/// A blocking connection to an `xst-server`, already past the version
/// handshake. Dropping the client closes the connection, which aborts
/// any transaction left open server-side.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    banner: String,
    /// Wrap calls in a trace context when the collector is on.
    tracing: bool,
}

impl Client {
    /// Connect to `addr` and perform the handshake, identifying as
    /// `client_name` in the server's diagnostics.
    pub fn connect(addr: &str, client_name: &str) -> ClientResult<Client> {
        Client::connect_with_timeout(addr, client_name, None)
    }

    /// Like [`Client::connect`], but with a per-request read/write
    /// deadline installed **before** the handshake, so even a server
    /// that accepts and then stalls cannot hang the connect. A blocked
    /// call past the deadline returns [`ClientError::Timeout`].
    pub fn connect_with_timeout(
        addr: &str,
        client_name: &str,
        timeout: Option<Duration>,
    ) -> ClientResult<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        stream.set_read_timeout(timeout)?;
        stream.set_write_timeout(timeout)?;
        let mut c = Client {
            stream,
            banner: String::new(),
            tracing: true,
        };
        let resp = c.round_trip(&Request::Hello {
            version: PROTO_VERSION,
            client: client_name.to_string(),
        })?;
        match resp {
            Response::Welcome { version, banner } if version == PROTO_VERSION => {
                c.banner = banner;
                Ok(c)
            }
            Response::Welcome { version, .. } => Err(ClientError::Handshake(format!(
                "server answered protocol v{version}, client speaks v{PROTO_VERSION}"
            ))),
            Response::Error(e) if e.code == ErrorCode::Admission => {
                Err(ClientError::Rejected(e.message))
            }
            Response::Error(e) if e.code == ErrorCode::Version => {
                Err(ClientError::Handshake(e.message))
            }
            other => Err(ClientError::Unexpected(format!(
                "handshake answered with {other:?}"
            ))),
        }
    }

    /// The server's welcome banner.
    pub fn banner(&self) -> &str {
        &self.banner
    }

    /// Control trace origination (default on). Even when on, calls only
    /// carry a context if the collector is enabled.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    /// Bound how long a blocked read waits (for tests that must not
    /// hang on a dead server). A read past the deadline surfaces as
    /// [`ClientError::Timeout`].
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> ClientResult<()> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    /// Bound how long a blocked write waits (a peer that stops reading
    /// eventually fills the socket buffer and stalls the sender).
    pub fn set_write_timeout(&self, timeout: Option<Duration>) -> ClientResult<()> {
        self.stream.set_write_timeout(timeout)?;
        Ok(())
    }

    fn round_trip(&mut self, req: &Request) -> ClientResult<Response> {
        write_frame(&mut self.stream, &req.encode())?;
        let payload = read_frame(&mut self.stream)?;
        Response::decode(&payload).map_err(|e| ClientError::Protocol(e.to_string()))
    }
}

/// The wire door: one framed round trip per request; a refusal comes
/// back as the server's own [`Response::Error`].
impl Door for Client {
    type Error = ClientError;

    /// This is where a trace originates: with the collector on, the
    /// call opens a `client.request` root span and wraps
    /// `req` in [`Request::Traced`] carrying the span's context, so the
    /// server's spans stitch under the same trace id.
    fn call(&mut self, req: Request) -> ClientResult<Response> {
        let span = (self.tracing && xst_obs::enabled())
            .then(|| xst_obs::span!("client.request", kind = req.kind_name()));
        let timer = xst_obs::enabled().then(Instant::now);
        let resp = match span.as_ref().and_then(xst_obs::SpanGuard::context) {
            Some(ctx) => self.round_trip(&Request::Traced {
                ctx,
                req: Box::new(req),
            })?,
            None => self.round_trip(&req)?,
        };
        if let Some(start) = timer {
            xst_obs::names::handle::CLIENT_REQUESTS_TOTAL.inc();
            xst_obs::names::handle::CLIENT_REQUEST_NS.observe_since(start);
        }
        Ok(resp)
    }
}

impl Client {
    /// Liveness probe.
    pub fn ping(&mut self) -> ClientResult<()> {
        match self.call(Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected("ping", &other)),
        }
    }

    /// Evaluate an expression against this session's visible snapshot.
    pub fn eval(&mut self, expr: &Expr) -> ClientResult<ExtendedSet> {
        match self.call(Request::Eval { expr: expr.clone() })? {
            Response::Value { set } => Ok(set),
            other => Err(unexpected("eval", &other)),
        }
    }

    /// Statically analyze an expression; returns the rendered report.
    pub fn check(&mut self, expr: &Expr) -> ClientResult<String> {
        match self.call(Request::Check { expr: expr.clone() })? {
            Response::Report { text } => Ok(text),
            other => Err(unexpected("check", &other)),
        }
    }

    /// Optimize + execute; returns the per-operator report.
    pub fn explain(&mut self, expr: &Expr) -> ClientResult<String> {
        match self.call(Request::Explain { expr: expr.clone() })? {
            Response::Report { text } => Ok(text),
            other => Err(unexpected("explain", &other)),
        }
    }

    /// Open an explicit transaction.
    pub fn begin(&mut self) -> ClientResult<TxnInfo> {
        match self.call(Request::Begin)? {
            Response::TxnBegun { id, snapshot_ts } => Ok(TxnInfo { id, snapshot_ts }),
            other => Err(unexpected("begin", &other)),
        }
    }

    /// Commit the open transaction; returns its commit timestamp.
    /// First-committer-wins losses surface as a
    /// [`ClientError::is_conflict`] remote error.
    pub fn commit(&mut self) -> ClientResult<u64> {
        match self.call(Request::Commit)? {
            Response::Committed { ts } => Ok(ts),
            other => Err(unexpected("commit", &other)),
        }
    }

    /// Abort the open transaction.
    pub fn abort(&mut self) -> ClientResult<()> {
        match self.call(Request::Abort)? {
            Response::Aborted => Ok(()),
            other => Err(unexpected("abort", &other)),
        }
    }

    /// Insert every member of `set` into `table` (autocommits outside
    /// an open transaction).
    pub fn put(&mut self, table: &str, set: &ExtendedSet) -> ClientResult<Applied> {
        match self.call(Request::Put {
            table: table.to_string(),
            set: set.clone(),
        })? {
            Response::Applied {
                rows,
                autocommit_ts,
            } => Ok(Applied {
                rows,
                autocommit_ts,
            }),
            other => Err(unexpected("put", &other)),
        }
    }

    /// Delete every member of `set` from `table`.
    pub fn delete(&mut self, table: &str, set: &ExtendedSet) -> ClientResult<Applied> {
        match self.call(Request::Delete {
            table: table.to_string(),
            set: set.clone(),
        })? {
            Response::Applied {
                rows,
                autocommit_ts,
            } => Ok(Applied {
                rows,
                autocommit_ts,
            }),
            other => Err(unexpected("delete", &other)),
        }
    }

    /// Read `table`'s visible identity: rows as scoped tuples. Use
    /// [`xst_server::records_identity_to_set`] to rebuild the member
    /// set it denotes.
    pub fn get(&mut self, table: &str) -> ClientResult<ExtendedSet> {
        match self.call(Request::Get {
            table: table.to_string(),
        })? {
            Response::Value { set } => Ok(set),
            other => Err(unexpected("get", &other)),
        }
    }

    /// Read this shard's **raw local fragment** of `table` — its
    /// members only, no gather — as the member set it denotes: what the
    /// coordinator's scatter read asks each shard for.
    pub fn frag_read(&mut self, table: &str) -> ClientResult<ExtendedSet> {
        match self.call(Request::FragRead {
            table: table.to_string(),
        })? {
            Response::Value { set } => Ok(set),
            other => Err(unexpected("frag_read", &other)),
        }
    }

    /// Metrics exposition (Prometheus text, or JSON).
    pub fn metrics(&mut self, json: bool) -> ClientResult<String> {
        match self.call(Request::Metrics { json })? {
            Response::Report { text } => Ok(text),
            other => Err(unexpected("metrics", &other)),
        }
    }

    /// Arm the served engine's deterministic fault plan.
    pub fn arm_faults(&mut self, schedule: FaultSchedule, kind: FaultKind) -> ClientResult<()> {
        match self.call(Request::ArmFaults { schedule, kind })? {
            Response::FaultsArmed { armed: true } => Ok(()),
            other => Err(unexpected("arm_faults", &other)),
        }
    }

    /// Disarm and clear any armed fault plan.
    pub fn clear_faults(&mut self) -> ClientResult<()> {
        match self.call(Request::ClearFaults)? {
            Response::FaultsArmed { armed: false } => Ok(()),
            other => Err(unexpected("clear_faults", &other)),
        }
    }

    /// Fetch the server's collected spans as an `xst-trace/1` JSON
    /// document.
    pub fn trace_dump(&mut self) -> ClientResult<String> {
        match self.call(Request::TraceDump)? {
            Response::Report { text } => Ok(text),
            other => Err(unexpected("trace_dump", &other)),
        }
    }

    /// Fetch the server's structured request log as a rendered table:
    /// the slowest retained requests, or the threshold-gated slow ring
    /// when `slow` is set.
    pub fn request_log(&mut self, slow: bool, limit: u32) -> ClientResult<String> {
        match self.call(Request::RequestLog { slow, limit })? {
            Response::Report { text } => Ok(text),
            other => Err(unexpected("request_log", &other)),
        }
    }
}

/// What a typed call makes of an answer it cannot use: the server's
/// refusal is [`ClientError::Remote`], anything else a desynced stream.
fn unexpected(what: &str, resp: &Response) -> ClientError {
    match resp {
        Response::Error(e) => ClientError::Remote(e.clone()),
        other => ClientError::Unexpected(format!("{what} answered with {other:?}")),
    }
}

pub mod coord;

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;
    use std::sync::mpsc;

    /// A server that accepts connections and then never writes a byte:
    /// the worst case for an unbounded client, the base case for a
    /// bounded one. Returns the address and a shutdown sender; the
    /// accept loop exits when the sender drops.
    fn stalled_server() -> (String, mpsc::Sender<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr").to_string();
        let (tx, rx) = mpsc::channel::<()>();
        std::thread::spawn(move || {
            let mut held = Vec::new();
            listener
                .set_nonblocking(true)
                .expect("nonblocking listener");
            loop {
                if let Err(mpsc::TryRecvError::Disconnected) = rx.try_recv() {
                    return;
                }
                match listener.accept() {
                    Ok((stream, _)) => held.push(stream),
                    Err(_) => std::thread::sleep(Duration::from_millis(2)),
                }
            }
        });
        (addr, tx)
    }

    #[test]
    fn connect_with_timeout_fails_fast_on_stalled_handshake() {
        let (addr, _tx) = stalled_server();
        let err = Client::connect_with_timeout(&addr, "t", Some(Duration::from_millis(40)))
            .expect_err("handshake against a mute server must not succeed");
        assert!(err.is_timeout(), "wanted Timeout, got {err:?}");
    }

    #[test]
    fn read_timeout_surfaces_as_typed_timeout() {
        // A raw frame read against a stalled peer: the client-level
        // mapping (TimedOut/WouldBlock -> Timeout) is what we assert.
        let (addr, _tx) = stalled_server();
        let stream = std::net::TcpStream::connect(&addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_millis(30)))
            .expect("set timeout");
        let mut stream = stream;
        let mut buf = [0u8; 4];
        let io_err = stream.read_exact(&mut buf).expect_err("must time out");
        let err = ClientError::from(io_err);
        assert!(err.is_timeout(), "wanted Timeout, got {err:?}");
    }

    #[test]
    fn a_welcome_at_another_version_fails_the_handshake() {
        // A server still speaking the previous version: it reads the Hello
        // and welcomes the client at its own version. One version is
        // seated, so this is a handshake failure, not a downgrade.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr").to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            read_frame(&mut stream).expect("hello frame");
            let welcome = Response::Welcome {
                version: PROTO_VERSION - 1,
                banner: "old".into(),
            };
            write_frame(&mut stream, &welcome.encode()).expect("welcome frame");
        });
        let err = Client::connect(&addr, "t").expect_err("must not be seated");
        server.join().expect("fake server thread");
        let old = format!("v{}", PROTO_VERSION - 1);
        assert!(
            matches!(&err, ClientError::Handshake(m) if m.contains(&old)),
            "wanted Handshake naming {old}, got {err:?}"
        );
    }

    #[test]
    fn connect_without_timeout_is_unaffected_by_mapping() {
        // Refused connection (nothing listening) stays a transport
        // error, not a Timeout.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr").to_string();
        drop(listener);
        let err = Client::connect(&addr, "t").expect_err("must fail");
        assert!(matches!(err, ClientError::Io(_)), "wanted Io, got {err:?}");
    }
}
