//! The TCP dispatcher: accept loop, admission control, thread-per-
//! connection sessions.
//!
//! A [`Server`] owns one listening socket and one shared
//! [`ServedEngine`]. Each accepted connection runs on its own thread:
//! it first passes the **admission gate** — at most `max_sessions`
//! concurrent sessions, with up to `max_queued` connections parked on a
//! condition variable for a bounded wait (backpressure) — then performs
//! the versioned handshake and enters the frame→decode→dispatch→reply
//! loop. Connections the gate cannot seat are answered with a typed
//! [`ErrorCode::Admission`] frame and closed, and counted in
//! `xst_server_admission_rejected_total`.
//!
//! Every connection registers its stream in a slab so [`Server::stop`]
//! can `shutdown(2)` all of them: blocked reads return, session threads
//! abort their open transactions and exit, and `stop` joins them —
//! shutdown is deterministic, not best-effort.
//!
//! The accept/admit/active/queue-depth state is exported through the
//! `xst_server_*` metric families registered in `xst_obs::names`.

use crate::proto::{ErrorCode, Request, Response, WireError, PROTO_VERSION};
use crate::session::{ServedEngine, Session};
use crate::wire::{read_frame, write_frame, FrameError};
use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};
use xst_obs::names::handle as m;

/// Tuning knobs for one [`Server`] instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Concurrent session cap.
    pub max_sessions: usize,
    /// Connections allowed to wait for a slot before rejection.
    pub max_queued: usize,
    /// Longest a queued connection waits before it is rejected.
    pub queue_wait: Duration,
    /// Banner echoed in the [`Response::Welcome`].
    pub banner: String,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_sessions: 16,
            max_queued: 16,
            queue_wait: Duration::from_secs(2),
            banner: "xst-server".to_string(),
        }
    }
}

/// Admission state: seated sessions and parked (queued) connections.
struct GateState {
    active: usize,
    waiting: usize,
}

/// The admission gate: a counter pair under a mutex, with a condition
/// variable parking connections that wait for a slot. Poisoning is
/// recovered (the state is two counters; there is no invariant a panic
/// mid-critical-section could break).
struct Gate {
    state: Mutex<GateState>,
    freed: Condvar,
}

impl Gate {
    fn new() -> Gate {
        Gate {
            state: Mutex::new(GateState {
                active: 0,
                waiting: 0,
            }),
            freed: Condvar::new(),
        }
    }

    /// Try to seat a session: immediately if under the cap, else by
    /// waiting up to `cfg.queue_wait` in the bounded queue. Returns
    /// whether the connection was admitted.
    fn admit(&self, cfg: &ServerConfig, shutdown: &AtomicBool) -> bool {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if st.active < cfg.max_sessions {
            st.active += 1;
            publish_gate(&st);
            return true;
        }
        if st.waiting >= cfg.max_queued {
            return false;
        }
        st.waiting += 1;
        publish_gate(&st);
        let deadline = Instant::now() + cfg.queue_wait;
        let admitted = loop {
            if shutdown.load(Ordering::SeqCst) {
                break false;
            }
            if st.active < cfg.max_sessions {
                break true;
            }
            let now = Instant::now();
            if now >= deadline {
                break false;
            }
            // Short slices so a server shutdown is noticed promptly even
            // if the notify races the wait.
            let slice = (deadline - now).min(Duration::from_millis(50));
            let (guard, _) = self
                .freed
                .wait_timeout(st, slice)
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
        };
        st.waiting -= 1;
        if admitted {
            st.active += 1;
        }
        publish_gate(&st);
        admitted
    }

    /// A session ended: free its slot and wake one queued connection.
    fn release(&self) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.active -= 1;
        publish_gate(&st);
        drop(st);
        self.freed.notify_one();
    }
}

/// Mirror the gate counters onto their gauges.
fn publish_gate(st: &GateState) {
    if xst_obs::enabled() {
        m::SERVER_ACTIVE_SESSIONS.set(st.active as f64);
        m::SERVER_QUEUE_DEPTH.set(st.waiting as f64);
    }
}

/// State shared between the accept loop and every session thread.
struct Shared {
    engine: Arc<ServedEngine>,
    config: ServerConfig,
    gate: Gate,
    shutdown: AtomicBool,
    /// Live streams by connection id, so `stop` can unblock their reads.
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn: AtomicU64,
}

impl Shared {
    fn register(&self, stream: &TcpStream) -> Option<u64> {
        let id = self.next_conn.fetch_add(1, Ordering::SeqCst);
        let clone = stream.try_clone().ok()?;
        self.conns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(id, clone);
        Some(id)
    }

    fn deregister(&self, id: u64) {
        self.conns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&id);
    }
}

/// A running server: owns the accept thread and joins every session
/// thread on [`Server::stop`] (also run by `Drop`).
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// start serving `engine` under `config`.
    pub fn start(
        engine: Arc<ServedEngine>,
        addr: &str,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            engine,
            config,
            gate: Gate::new(),
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::spawn(move || accept_loop(listener, accept_shared));
        Ok(Server {
            addr,
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address the server actually bound (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine being served.
    pub fn engine(&self) -> &Arc<ServedEngine> {
        &self.shared.engine
    }

    /// Stop accepting, unblock and join every session, release the port.
    /// Idempotent.
    pub fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.gate.freed.notify_all();
        // Unblock every session read; the threads then exit on their own.
        let conns: Vec<TcpStream> = {
            let mut map = self
                .shared
                .conns
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            map.drain().map(|(_, s)| s).collect()
        };
        for s in conns {
            let _ = s.shutdown(Shutdown::Both);
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Accept connections until shutdown, spawning one handler thread each;
/// join the handlers before returning so `stop` implies quiescence.
fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut handlers = Vec::new();
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let conn_shared = Arc::clone(&shared);
                handlers.push(std::thread::spawn(move || {
                    handle_connection(stream, conn_shared)
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
        // Reap finished handlers so a long-lived server does not
        // accumulate joinable thread stubs.
        handlers.retain(|h| !h.is_finished());
    }
    for h in handlers {
        let _ = h.join();
    }
}

fn write_response(stream: &mut TcpStream, resp: &Response) -> bool {
    write_frame(stream, &resp.encode()).is_ok()
}

/// One connection, start to finish: admission, handshake, request loop,
/// cleanup. Never panics; every exit path aborts the session's open
/// transaction and releases its admission slot.
fn handle_connection(mut stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    if !shared.gate.admit(&shared.config, &shared.shutdown) {
        if xst_obs::enabled() {
            m::SERVER_ADMISSION_REJECTED_TOTAL.inc();
        }
        write_response(
            &mut stream,
            &Response::Error(WireError::new(
                ErrorCode::Admission,
                format!(
                    "server at capacity ({} sessions); retry later",
                    shared.config.max_sessions
                ),
            )),
        );
        let _ = stream.shutdown(Shutdown::Both);
        return;
    }
    if xst_obs::enabled() {
        m::SERVER_ACCEPTED_TOTAL.inc();
    }
    let conn_id = shared.register(&stream);
    // 1-based session id so 0 stays "not a served connection" in the
    // request log.
    let session_id = conn_id.map_or(0, |id| id + 1);
    serve_session(&mut stream, &shared, session_id);
    if let Some(id) = conn_id {
        shared.deregister(id);
    }
    let _ = stream.shutdown(Shutdown::Both);
    shared.gate.release();
}

/// The handshake and request loop for one admitted connection.
fn serve_session(stream: &mut TcpStream, shared: &Shared, session_id: u64) {
    // Handshake: the first frame must be a Hello at exactly
    // PROTO_VERSION. Older peers' Hellos still decode (the layout never
    // changed) and get the typed Version refusal.
    let hello = match read_frame(stream) {
        Ok(payload) => payload,
        Err(FrameError::Closed | FrameError::Truncated | FrameError::Io(_)) => return,
        Err(e) => {
            if xst_obs::enabled() {
                m::SERVER_PROTOCOL_ERRORS_TOTAL.inc();
            }
            write_response(
                stream,
                &Response::Error(WireError::new(ErrorCode::Protocol, e.to_string())),
            );
            return;
        }
    };
    match Request::decode(&hello) {
        Ok(Request::Hello { version, .. }) if version == PROTO_VERSION => {
            if !write_response(
                stream,
                &Response::Welcome {
                    version,
                    banner: shared.config.banner.clone(),
                },
            ) {
                return;
            }
        }
        Ok(Request::Hello { version, .. }) => {
            if xst_obs::enabled() {
                m::SERVER_PROTOCOL_ERRORS_TOTAL.inc();
            }
            write_response(
                stream,
                &Response::Error(WireError::new(
                    ErrorCode::Version,
                    format!("server speaks protocol v{PROTO_VERSION} only, client sent v{version}"),
                )),
            );
            return;
        }
        Ok(_) | Err(_) => {
            if xst_obs::enabled() {
                m::SERVER_PROTOCOL_ERRORS_TOTAL.inc();
            }
            write_response(
                stream,
                &Response::Error(WireError::new(
                    ErrorCode::Protocol,
                    "first request must be Hello",
                )),
            );
            return;
        }
    }

    let mut session = Session::with_id(Arc::clone(&shared.engine), session_id);
    loop {
        let payload = match read_frame(stream) {
            Ok(p) => p,
            // Clean close or peer death: end the session silently.
            Err(FrameError::Closed | FrameError::Truncated | FrameError::Io(_)) => break,
            // Frame-level corruption desyncs the stream: answer with a
            // structured error, then close (there is no way to find the
            // next frame boundary).
            Err(
                e @ (FrameError::BadMagic(_) | FrameError::Oversize(_) | FrameError::BadCrc { .. }),
            ) => {
                if xst_obs::enabled() {
                    m::SERVER_PROTOCOL_ERRORS_TOTAL.inc();
                }
                write_response(
                    stream,
                    &Response::Error(WireError::new(ErrorCode::Protocol, e.to_string())),
                );
                break;
            }
        };
        let start = Instant::now();
        let resp = match Request::decode(&payload) {
            Ok(req) => {
                if xst_obs::enabled() {
                    m::SERVER_REQUESTS_TOTAL.inc();
                }
                session.serve_one(req)
            }
            // A well-framed but undecodable message: the stream is still
            // in sync, so the session survives the structured error.
            Err(e) => {
                if xst_obs::enabled() {
                    m::SERVER_PROTOCOL_ERRORS_TOTAL.inc();
                }
                Response::Error(WireError::new(ErrorCode::Protocol, e.to_string()))
            }
        };
        if xst_obs::enabled() {
            m::SERVER_REQUEST_NS.observe_since(start);
        }
        if !write_response(stream, &resp) {
            break;
        }
    }
    // Abort-on-disconnect: whatever ended the loop, the session's open
    // transaction must not outlive the connection.
    session.close();
}
