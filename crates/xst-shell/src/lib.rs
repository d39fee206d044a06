//! # xst-shell — an interactive calculator for extended set theory
//!
//! A [`Session`] holds named bindings and evaluates one command per line:
//!
//! ```text
//! let f = {⟨a, x⟩, ⟨b, y⟩, ⟨c, x⟩}
//! apply f {⟨a⟩}                  -- f_(⟨⟨1⟩,⟨2⟩⟩)(x)
//! image f {⟨x⟩} ⟨2⟩ ⟨1⟩          -- explicit scope pair (the inverse here)
//! union f g · intersect · difference
//! domain f ⟨1⟩ · restrict f ⟨1⟩ {⟨a⟩}
//! compose g f                    -- binds nothing; prints the carrier
//! tc r                           -- transitive closure of a pair relation
//! card f · function? f · show f · vars · help
//! ```
//!
//! Operands are either bound names or inline set literals in the crate's
//! textual notation; the parser figures out which. The six algebra words
//! (`union` … `image`) parse into the same [`Expr`] `.explain`, `.check`
//! and `.eval` take, and the plan walker runs it over the bindings;
//! `apply`, `compose`, `tc` and `function?` have no plan node.
//!
//! Observability commands (see the README's "Observability" section):
//!
//! ```text
//! .explain <op> ...     optimize + execute, print the per-operator tree
//! .check <op> ...       static analysis only: sig, emptiness, diagnostics
//! .metrics [json]       metrics exposition (Prometheus text or JSON)
//! .metrics reset        zero every registered series
//! .trace on|off|show    toggle the collector / render collected spans
//! .trace export         dump collected spans as xst-trace/1 JSON
//! .top [N]              most expensive accounted requests (cost bills)
//! .slow [MS|off]        show the slow-query ring / arm its threshold
//! ```
//!
//! Store verbs — one vocabulary, three doors (see the README's
//! "Transactions" section). Each verb is one `Request` answered with one
//! `Response` by whichever door the prefix selects: bare (`.begin`) is
//! the **local** store, an in-process server session over this shell's
//! own engine; `.remote VERB` is the **remote** `.connect` session if one
//! is open, else the **cluster** `.cluster` coordinator. The replies are
//! the same text with the door's label in front.
//!
//! ```text
//! .begin                open a snapshot-isolated transaction
//! .put NAME             write the binding's members into table NAME
//! .delete NAME          delete the binding's members from table NAME
//! .get NAME as NEW      read table NAME's member set into binding NEW
//! .eval OP ...          evaluate a plan over the door's tables
//! .commit               first-committer-wins validate + group-commit
//! .abort                discard the open transaction's writes
//! .ping                 liveness round trip
//! .faults on|off        arm / clear transient faults on every 5th storage or
//!                       WAL op under the door's engine (the coordinator
//!                       refuses: each server arms its own); retry absorbs them
//! .remote metrics [json] · trace · top [N] · slow
//!                       the connected server's registry, spans, request
//!                       log (one server's to answer: the coordinator
//!                       refuses them; this process's are the commands above)
//! ```
//!
//! `.put`/`.delete` outside an open transaction autocommit — each runs as
//! its own transaction, the interactive default.
//!
//! Doors (serve the local store over TCP, reach another, or run a
//! cluster; see the README's "Network server" section):
//!
//! ```text
//! .serve start [ADDR|PORT]   serve the local store (default 127.0.0.1:0)
//! .serve stop|status         shut the server down / show where it listens
//! .shards [N]                show per-shard local-store state / reshard to
//!                            N (before any data; 2PC makes multi-shard
//!                            commits atomic)
//! .connect HOST:PORT         open the remote door: a client session
//! .disconnect                close it (a remote open txn aborts)
//! .cluster start [N]         open the cluster door: N in-process shard
//!                            servers + a wire 2PC coordinator
//! .cluster status|stop       coordinator state / tear the cluster down
//! ```
//!
//! Every command line is *accounted* the way the server accounts a wire
//! request: it runs under a `shell.command` root span and a
//! [`QueryCost`](xst_obs::QueryCost) scope, and lands one record in the
//! process request log (session 0 = the local shell), so `.top`/`.slow`
//! rank interactive work and served requests side by side.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xst_client::coord::Coordinator;
use xst_client::Client;
use xst_core::ops::{pair_compose, transitive_closure, Parallelism};
use xst_core::parse::parse_set;
use xst_core::{ExtendedSet, Process, Scope, XstError, XstResult};
use xst_query::{explain_analyze, Expr};
use xst_server::{Door, Request, Response, ServedEngine, Server, ServerConfig};
use xst_storage::{FaultKind, FaultSchedule};

/// Per-request deadline for the shell's cluster coordinator: generous
/// for interactive use, but bounded so a wedged shard surfaces as a
/// typed timeout instead of a hung prompt.
const CLUSTER_RPC_TIMEOUT: Duration = Duration::from_secs(5);

/// The `.cluster` in-process cluster: N shard servers (each its own
/// [`ServedEngine`] behind a real TCP listener on an ephemeral port)
/// plus the wire 2PC [`Coordinator`] driving them. While this is up and
/// no `.connect` session exists, `.remote` verbs are answered by the
/// coordinator: puts scatter by member hash, gets/evals gather
/// fragments, and multi-shard commits run the wire two-phase round.
struct ShellCluster {
    servers: Vec<Server>,
    coord: Coordinator,
}

/// An interactive session: named set bindings plus command evaluation.
pub struct Session {
    bindings: BTreeMap<String, ExtendedSet>,
    /// The local door: an in-process server session over this shell's own
    /// engine — the engine `.serve` publishes, so `.put` writes are
    /// visible to clients. Created on the first store verb.
    local: Option<xst_server::Session>,
    /// The `.serve` network server, when running.
    server: Option<Server>,
    /// The `.connect` client session, when one is open.
    remote: Option<Client>,
    /// The `.cluster` in-process cluster, when one is running.
    cluster: Option<ShellCluster>,
}

impl Default for Session {
    fn default() -> Session {
        Session::new()
    }
}

impl Session {
    /// Fresh session with no bindings. Turns the observability collector
    /// on so `.metrics` and `.explain` see every operation; `.trace off`
    /// turns it back off.
    pub fn new() -> Session {
        xst_obs::enable();
        Session {
            bindings: BTreeMap::new(),
            local: None,
            server: None,
            remote: None,
            cluster: None,
        }
    }

    /// Look up a binding.
    pub fn get(&self, name: &str) -> Option<&ExtendedSet> {
        self.bindings.get(name)
    }

    /// Evaluate one command line. `Ok(None)` means "nothing to print"
    /// (empty line or comment).
    pub fn eval_line(&mut self, line: &str) -> XstResult<Option<String>> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with("--") {
            return Ok(None);
        }
        // `let name = <set expression>` is the only statement form.
        if let Some(rest) = line.strip_prefix("let ") {
            let (name, expr) = rest.split_once('=').ok_or_else(|| err("let needs '='"))?;
            let name = binding_name(name)?;
            let value = self.operand(expr.trim())?;
            self.bindings.insert(name.to_string(), value);
            return Ok(Some(format!("{name} bound")));
        }
        let mut parts = Tokens::new(line);
        let command = parts.next_word()?;
        // `.trace`/`.top`/`.slow` inspect the collector and the request
        // log; accounting them would have them observe themselves (a
        // drained `.trace show` would always rediscover its own span on
        // the next call), so they dispatch bare.
        if matches!(command.as_str(), ".trace" | ".top" | ".slow") {
            return self.dispatch(&command, &mut parts).map(Some);
        }
        // Account the command like the server accounts a wire request:
        // root span + cost scope + one request-log record under session 0,
        // so `.top`/`.slow` see interactive work too. `enabled()` off means
        // all three degrade to nothing.
        let timer = xst_obs::enabled().then(Instant::now);
        let costs = xst_obs::cost::begin();
        let span = xst_obs::span!("shell.command", kind = command.as_str());
        let open_txn = |s: &Session| s.local.as_ref().and_then(xst_server::Session::txn_id);
        let txn_before = open_txn(self);
        let result = self.dispatch(&command, &mut parts);
        let trace_id = span.trace_id().unwrap_or(0);
        drop(span);
        let cost = costs.take();
        if let Some(t) = timer {
            xst_obs::request_log().record(xst_obs::RequestRecord {
                seq: 0,
                session: 0,
                txn: txn_before.or_else(|| open_txn(self)),
                kind: "shell",
                detail: command,
                trace_id,
                wall_ns: t.elapsed().as_nanos() as u64,
                cost,
                outcome: if result.is_ok() { "ok" } else { "error" },
            });
        }
        result.map(Some)
    }

    /// Dispatch one parsed command word to its handler.
    fn dispatch(&mut self, command: &str, parts: &mut Tokens) -> XstResult<String> {
        let out = match command {
            "help" => HELP.to_string(),
            "vars" => {
                if self.bindings.is_empty() {
                    "no bindings".to_string()
                } else {
                    let mut s = String::new();
                    for (name, set) in &self.bindings {
                        let _ = writeln!(s, "{name} = {set}");
                    }
                    s.trim_end().to_string()
                }
            }
            "show" => self.operand(&parts.rest()?)?.to_string(),
            "card" => self.operand(&parts.rest()?)?.card().to_string(),
            "union" | "intersect" | "difference" | "image" | "domain" | "restrict" => {
                let expr = self.command_expr(command, parts)?;
                xst_query::eval(&expr, &self.bindings)?.to_string()
            }
            "compose" => {
                let g = self.operand(&parts.next_operand()?)?;
                let f = self.operand(&parts.rest()?)?;
                // compose g f prints the composed pair-relation carrier.
                pair_compose(&f, &g).to_string()
            }
            "apply" => {
                let f = self.operand(&parts.next_operand()?)?;
                let x = self.operand(&parts.rest()?)?;
                Process::pairs(f).apply(&x).to_string()
            }
            "tc" => transitive_closure(&self.operand(&parts.rest()?)?).to_string(),
            "function?" => {
                let f = self.operand(&parts.rest()?)?;
                Process::pairs(f).is_function().to_string()
            }
            ".explain" => self.explain(parts)?,
            ".check" => self.check(parts)?,
            ".lint" => lint(parts.rest_opt().as_deref())?,
            ".metrics" => self.metrics(parts.rest_opt().as_deref())?,
            ".trace" => self.trace(&parts.rest()?)?,
            ".top" => self.reqlog_top(parts.rest_opt().as_deref())?,
            ".slow" => self.reqlog_slow(parts.rest_opt().as_deref())?,
            ".serve" => {
                let sub = parts.next_operand()?;
                self.serve(&sub, parts.rest_opt().as_deref())?
            }
            ".shards" => self.shards(parts.rest_opt().as_deref())?,
            ".connect" => self.connect(&parts.rest()?)?,
            ".disconnect" => self.disconnect()?,
            ".cluster" => self.cluster_command(parts)?,
            ".remote" => {
                let verb = parts.next_word()?;
                self.verb(false, &verb, parts)?
            }
            // Any other dotted word is a store verb at the local door.
            other => match other.strip_prefix('.') {
                Some(verb) => self.verb(true, verb, parts)?,
                None => return Err(err(format!("unknown command '{other}' (try 'help')"))),
            },
        };
        Ok(out)
    }

    /// `.explain <op> ...` — build the [`Expr`] a command form denotes,
    /// optimize + execute it, and render the per-operator tree.
    fn explain(&self, parts: &mut Tokens) -> XstResult<String> {
        let expr = self.command_expr(&parts.next_word()?, parts)?;
        let report = explain_analyze(&expr, &self.bindings, &Parallelism::available())?;
        Ok(report.to_string())
    }

    /// `.check <op> ...` — statically analyze the plan a command form
    /// denotes *without executing it*: inferred scope signature, emptiness
    /// verdict, cardinality bounds, and every diagnostic. Always prints a
    /// report (rejection is part of the report, not an error), so scripts
    /// can drive it over ill-scoped plans.
    fn check(&self, parts: &mut Tokens) -> XstResult<String> {
        let expr = self.command_expr(&parts.next_word()?, parts)?;
        let analysis = xst_query::check(&expr, &self.bindings);
        let root = &analysis.root.set;
        let verdict = if analysis.is_rejected() {
            "rejected (would fail at runtime)"
        } else if analysis.proved_safe() {
            "accepted (proved safe)"
        } else {
            "accepted (runtime safety unproven)"
        };
        let mut out = String::new();
        let _ = writeln!(out, "plan:       {expr}");
        let _ = writeln!(out, "sig:        {}", root.sig);
        let _ = writeln!(out, "emptiness:  {}", root.emptiness);
        let _ = writeln!(out, "card:       {}", root.card);
        let _ = writeln!(out, "verdict:    {verdict}");
        if analysis.diagnostics.is_empty() {
            let _ = write!(out, "diagnostics: none");
        } else {
            let _ = write!(out, "diagnostics:");
            for d in &analysis.diagnostics {
                let _ = write!(out, "\n  {d}");
            }
        }
        Ok(out)
    }

    /// Parse the operands of the `<op> ...` command form — a bare algebra
    /// word, `.explain`, `.check` or `.eval` — into the [`Expr`] it denotes.
    fn command_expr(&self, op: &str, parts: &mut Tokens) -> XstResult<Expr> {
        let expr = match op {
            "union" | "intersect" | "difference" | "cross" => {
                let a = self.expr_operand(&parts.next_operand()?)?;
                let b = self.expr_operand(&parts.rest()?)?;
                match op {
                    "union" => a.union(b),
                    "intersect" => a.intersect(b),
                    "difference" => a.difference(b),
                    _ => a.cross(b),
                }
            }
            "domain" => {
                let r = self.expr_operand(&parts.next_operand()?)?;
                let spec = self.operand(&parts.rest()?)?;
                r.domain(spec)
            }
            "restrict" => {
                let r = self.expr_operand(&parts.next_operand()?)?;
                let spec = self.operand(&parts.next_operand()?)?;
                let a = self.expr_operand(&parts.rest()?)?;
                r.restrict(spec, a)
            }
            "image" => {
                let r = self.expr_operand(&parts.next_operand()?)?;
                let a = self.expr_operand(&parts.next_operand()?)?;
                let s1 = self.operand(&parts.next_operand()?)?;
                let s2 = self.operand(&parts.rest()?)?;
                r.image(a, Scope::new(s1, s2))
            }
            other => {
                return Err(err(format!(
                "cannot analyze '{other}' (union/intersect/difference/cross/domain/restrict/image)"
            )))
            }
        };
        Ok(expr)
    }

    /// `.metrics [json|reset]`.
    fn metrics(&self, arg: Option<&str>) -> XstResult<String> {
        match arg {
            None => Ok(xst_obs::registry().export_prometheus()),
            Some("json") => Ok(xst_obs::registry().export_json()),
            Some("reset") => {
                xst_obs::registry().reset();
                Ok("metrics reset".to_string())
            }
            Some(other) => Err(err(format!("usage: .metrics [json|reset], got '{other}'"))),
        }
    }

    /// `.trace on|off|show|export`.
    fn trace(&self, arg: &str) -> XstResult<String> {
        match arg {
            "export" => {
                // Non-draining snapshot: exporting leaves the spans in
                // place for a later `.trace show`.
                let records = xst_obs::collector().snapshot_spans();
                Ok(xst_obs::export_trace_json(&records))
            }
            "on" => {
                xst_obs::enable();
                Ok("collector on".to_string())
            }
            "off" => {
                // One global switch gates spans AND metrics — that is the
                // whole point of the single-atomic-load fast path.
                xst_obs::disable();
                Ok("collector off (spans and metrics)".to_string())
            }
            "show" => {
                let records = xst_obs::collector().take_spans();
                if records.is_empty() {
                    return Ok("no spans collected".to_string());
                }
                let forest = xst_obs::span_tree(&records);
                Ok(xst_obs::span::render_tree(&forest).trim_end().to_string())
            }
            other => Err(err(format!(
                "usage: .trace on|off|show|export, got '{other}'"
            ))),
        }
    }

    /// `.top [N]` — the N most expensive accounted requests, by wall
    /// time: local shell commands (session 0) and served wire requests
    /// side by side, each with its per-request cost bill.
    fn reqlog_top(&self, arg: Option<&str>) -> XstResult<String> {
        let limit = match arg {
            None => 10,
            Some(n) => parse_num(n, ".top [N]")?,
        };
        let table = xst_obs::reqlog::render_records(&xst_obs::request_log().top(limit));
        Ok(table.trim_end().to_string())
    }

    /// `.slow` shows the slow-query ring; `.slow MS` arms the threshold
    /// (requests at or over it are retained); `.slow off` disarms it.
    fn reqlog_slow(&self, arg: Option<&str>) -> XstResult<String> {
        let log = xst_obs::request_log();
        match arg {
            None => {
                let threshold = log.slow_threshold_ns();
                let header = if threshold == 0 {
                    "slow-query log disabled (.slow MS to arm)".to_string()
                } else {
                    format!("slow threshold: {} ms", threshold / 1_000_000)
                };
                let table = xst_obs::reqlog::render_records(&log.slow(20));
                Ok(format!("{header}\n{}", table.trim_end()))
            }
            Some("off") => {
                log.set_slow_threshold_ns(0);
                Ok("slow-query log disabled".to_string())
            }
            Some(ms) => {
                let ms: u64 = parse_num(ms, ".slow [MS|off]")?;
                log.set_slow_threshold_ns(ms.saturating_mul(1_000_000));
                Ok(format!("slow-query log armed at {ms} ms"))
            }
        }
    }

    /// `.serve start [ADDR|PORT]` / `.serve stop` / `.serve status` —
    /// serve this session's local store over TCP. A bare port
    /// binds `127.0.0.1:PORT`; no argument picks an ephemeral port (the
    /// reply says which). `.put` writes are immediately visible to
    /// connected clients: the server wraps the same engine.
    fn serve(&mut self, sub: &str, arg: Option<&str>) -> XstResult<String> {
        match sub {
            "start" => {
                if self.server.is_some() {
                    return Err(err("already serving (.serve stop first)"));
                }
                let addr = match arg {
                    None => "127.0.0.1:0".to_string(),
                    Some(a) if a.contains(':') => a.to_string(),
                    Some(port) => {
                        // A bare argument must be a real port, not just
                        // string-glued into the address.
                        let port: u16 = parse_num(port, ".serve start [ADDR|PORT]")?;
                        format!("127.0.0.1:{port}")
                    }
                };
                let engine = Arc::clone(self.local().engine());
                let server = Server::start(engine, &addr, ServerConfig::default())
                    .map_err(|e| err(format!("serve: {e}")))?;
                let bound = server.addr().to_string();
                self.server = Some(server);
                Ok(format!(
                    "serving the txn store on {bound} (.connect {bound})"
                ))
            }
            "stop" => match self.server.take() {
                Some(mut server) => {
                    let bound = server.addr().to_string();
                    server.stop();
                    Ok(format!("server on {bound} stopped"))
                }
                None => Err(err("not serving (.serve start first)")),
            },
            "status" => Ok(match &self.server {
                Some(server) => format!("serving on {}", server.addr()),
                None => "not serving".to_string(),
            }),
            other => Err(err(format!(
                "usage: .serve start [ADDR|PORT] | stop | status, got '{other}'"
            ))),
        }
    }

    /// `.shards` — introspect the local store's sharding: shard count,
    /// decision-log entries, the `.faults` plan and, per shard, last commit
    /// timestamp, open sub-transactions, retained and reclaimed versions,
    /// and in-doubt prepares. `.shards N`
    /// re-creates the store partitioned across N shards — only before any
    /// table exists, because resharding would reroute every member hash.
    fn shards(&mut self, arg: Option<&str>) -> XstResult<String> {
        if let Some(n) = arg {
            let n: usize = parse_num(n, ".shards [N]")?;
            if n == 0 {
                return Err(err("usage: .shards [N], N must be at least 1"));
            }
            let replaceable = self.local.as_ref().is_none_or(|local| {
                local.txn_id().is_none() && local.engine().sharded().tables().is_empty()
            });
            if !replaceable {
                return Err(err(
                    "cannot reshard: the txn store already holds tables or an open \
                     transaction (restart the session to change shard count)",
                ));
            }
            if self.server.is_some() {
                return Err(err("cannot reshard while serving (.serve stop first)"));
            }
            self.local = Some(local_door(n));
            return Ok(format!("txn store resharded across {n} shard(s)"));
        }
        let Some(local) = self.local.as_ref() else {
            return Ok("no txn store yet (1 shard by default; .shards N before .put)".to_string());
        };
        let sharded = local.engine().sharded();
        let mut out = format!(
            "{} shard(s), {} distributed txn(s) open, {} decision-log entries",
            sharded.shard_count(),
            sharded.active_txns(),
            sharded.committed_gtxns().len()
        );
        if sharded.faults_armed() {
            let _ = write!(
                out,
                "\nfaults: armed, {} injected",
                sharded.faults_injected()
            );
        } else {
            out.push_str("\nfaults: off");
        }
        for i in 0..sharded.shard_count() {
            let mgr = sharded.shard_mgr(i);
            let _ = write!(
                out,
                "\n  shard {i}: last commit ts {}, {} open sub-txn(s), \
                 {} version(s) retained ({} reclaimed), {} in-doubt prepare(s)",
                mgr.last_commit_ts(),
                mgr.active_txns(),
                mgr.versions_retained(),
                mgr.versions_reclaimed(),
                mgr.prepared_txns()
            );
        }
        Ok(out)
    }

    /// `.connect HOST:PORT` — open a client session against a server
    /// (this session's own `.serve`, or another process's).
    fn connect(&mut self, addr: &str) -> XstResult<String> {
        if self.remote.is_some() {
            return Err(err("already connected (.disconnect first)"));
        }
        let client = Client::connect(addr, "xst-shell").map_err(client_err)?;
        let banner = client.banner().to_string();
        self.remote = Some(client);
        Ok(format!("connected to {addr} ({banner})"))
    }

    /// `.disconnect` — close the client session. If a remote transaction
    /// is open, the server aborts it (abort-on-disconnect).
    fn disconnect(&mut self) -> XstResult<String> {
        match self.remote.take() {
            Some(_) => Ok("disconnected (an open remote txn aborts server-side)".to_string()),
            None => Err(err("not connected (.connect HOST:PORT first)")),
        }
    }

    /// `.cluster start [N]` / `.cluster status` / `.cluster stop` — run
    /// an in-process cluster: N shard servers over real TCP plus the
    /// wire 2PC coordinator with its own durable decision log. While a
    /// cluster runs (and no `.connect` session is open), it is the door
    /// `.remote` verbs go through.
    fn cluster_command(&mut self, parts: &mut Tokens) -> XstResult<String> {
        let sub = parts.next_word()?;
        match sub.as_str() {
            "start" => {
                if self.cluster.is_some() {
                    return Err(err("a cluster is already running (.cluster stop first)"));
                }
                let n: usize = match parts.rest_opt() {
                    None => 2,
                    Some(n) => parse_num(&n, ".cluster start [N]")?,
                };
                if n == 0 {
                    return Err(err("usage: .cluster start [N], N must be at least 1"));
                }
                let mut servers = Vec::with_capacity(n);
                let mut addrs = Vec::with_capacity(n);
                for _ in 0..n {
                    let engine = Arc::new(ServedEngine::new());
                    let server = Server::start(engine, "127.0.0.1:0", ServerConfig::default())
                        .map_err(|e| err(format!("cluster: {e}")))?;
                    addrs.push(server.addr().to_string());
                    servers.push(server);
                }
                let coord =
                    Coordinator::connect(&addrs, Some(CLUSTER_RPC_TIMEOUT)).map_err(coord_err)?;
                self.cluster = Some(ShellCluster { servers, coord });
                Ok(format!(
                    "cluster up: {n} shard server(s) on [{}]; .remote now drives the \
                     2PC coordinator",
                    addrs.join(", ")
                ))
            }
            "status" => Ok(match &self.cluster {
                Some(c) => {
                    let addrs: Vec<String> =
                        c.servers.iter().map(|s| s.addr().to_string()).collect();
                    format!("{} on [{}]", c.coord.status(), addrs.join(", "))
                }
                None => "no cluster (.cluster start [N] first)".to_string(),
            }),
            "stop" => match self.cluster.take() {
                Some(c) => {
                    let ShellCluster { mut servers, coord } = c;
                    // The coordinator goes first so its sessions close
                    // before the listeners they dial disappear.
                    drop(coord);
                    let n = servers.len();
                    for server in &mut servers {
                        server.stop();
                    }
                    Ok(format!("cluster stopped ({n} shard server(s) down)"))
                }
                None => Err(err("no cluster running (.cluster start first)")),
            },
            other => Err(err(format!(
                "usage: .cluster start [N] | status | stop, got '{other}'"
            ))),
        }
    }

    /// The local door, opened over a fresh one-shard engine on first use.
    fn local(&mut self) -> &mut xst_server::Session {
        self.local.get_or_insert_with(|| local_door(1))
    }

    /// The value bound to `name`.
    fn binding(&self, name: &str) -> XstResult<ExtendedSet> {
        let set = self.bindings.get(name).cloned();
        set.ok_or_else(|| err(format!("no binding named '{name}'")))
    }

    /// One store verb through one door: build the [`Request`] the words
    /// denote, hand it to the door the prefix selected — bare is the local
    /// session, `.remote` the `.connect` client if one is open, else the
    /// `.cluster` coordinator — and render its [`Response`]. Every door
    /// takes every verb (the door refuses what it cannot answer), and the
    /// door's label is the only thing that varies in the text.
    fn verb(&mut self, local: bool, verb: &str, parts: &mut Tokens) -> XstResult<String> {
        let mut target = None;
        let req = match verb {
            "ping" => Request::Ping,
            "begin" => Request::Begin,
            "commit" => Request::Commit,
            "abort" => Request::Abort,
            "put" => {
                let table = parts.rest()?;
                let set = self.binding(&table)?;
                Request::Put { table, set }
            }
            "delete" => {
                let table = parts.rest()?;
                let set = self.binding(&table)?;
                Request::Delete { table, set }
            }
            "get" => {
                let table = parts.next_operand()?;
                if !parts.next_operand()?.eq_ignore_ascii_case("as") {
                    return Err(err("usage: NAME as NEW"));
                }
                target = Some(binding_name(&parts.rest()?)?.to_string());
                Request::FragRead { table }
            }
            "eval" => Request::Eval {
                expr: self.command_expr(&parts.next_word()?, parts)?,
            },
            "faults" => match parts.rest()?.as_str() {
                "on" => Request::ArmFaults {
                    schedule: FaultSchedule::EveryNth(5),
                    kind: FaultKind::Transient,
                },
                "off" => Request::ClearFaults,
                other => return Err(err(format!("usage: faults on|off, got '{other}'"))),
            },
            "metrics" => Request::Metrics {
                json: match parts.rest_opt().as_deref() {
                    None => false,
                    Some("json") => true,
                    Some(other) => {
                        return Err(err(format!("usage: metrics [json], got '{other}'")))
                    }
                },
            },
            "trace" => Request::TraceDump,
            "top" => Request::RequestLog {
                slow: false,
                limit: match parts.rest_opt() {
                    None => 10,
                    Some(n) => parse_num(&n, "top [N]")?,
                },
            },
            "slow" => Request::RequestLog {
                slow: true,
                limit: 20,
            },
            other => {
                let prefix = if local { "." } else { ".remote " };
                return Err(err(format!(
                    "unknown command '{prefix}{other}' (try 'help')"
                )));
            }
        };
        let (kind, table) = (req.kind_name(), req.detail());
        let (label, answer) = if local {
            ("local", ask(self.local(), req))
        } else if let Some(client) = &mut self.remote {
            ("remote", ask(client, req))
        } else if let Some(cluster) = &mut self.cluster {
            ("cluster", ask(&mut cluster.coord, req))
        } else {
            return Err(err(
                "not connected (.connect HOST:PORT or .cluster start first)",
            ));
        };
        Ok(match answer.map_err(|e| err(format!("{label}: {e}")))? {
            Response::Pong => format!("{label} pong"),
            Response::TxnBegun { id, snapshot_ts } => {
                format!("{label} txn {id} open: snapshot at commit ts {snapshot_ts}")
            }
            Response::Committed { ts } => format!("{label} committed at ts {ts}"),
            Response::Aborted => format!("{label} txn aborted; writes discarded"),
            Response::Applied {
                rows,
                autocommit_ts: Some(ts),
            } => format!("{label} {kind} '{table}': {rows} rows (autocommitted at ts {ts})"),
            Response::Applied { rows, .. } => {
                format!("{label} {kind} '{table}': {rows} rows buffered (visible after commit)")
            }
            Response::Value { set } => match target {
                Some(target) => {
                    let card = set.card();
                    self.bindings.insert(target.clone(), set);
                    format!("{target} bound from {label} '{table}': {card} members")
                }
                None => set.to_string(),
            },
            Response::Report { text } => text.trim_end().to_string(),
            Response::FaultsArmed { armed: true } => format!(
                "{label} faults armed: every 5th storage/WAL op fails transiently \
                 (retry absorbs them)"
            ),
            Response::FaultsArmed { armed: false } => format!("{label} faults disarmed"),
            other => return Err(err(format!("{label}: unexpected answer {other:?}"))),
        })
    }

    /// Resolve an `.explain` operand: bound names stay symbolic (table
    /// references the optimizer can reason about), anything else must be a
    /// set literal.
    fn expr_operand(&self, text: &str) -> XstResult<Expr> {
        let text = text.trim();
        if self.bindings.contains_key(text) {
            return Ok(Expr::table(text));
        }
        self.operand(text).map(Expr::lit)
    }

    /// Resolve an operand: a bound name or an inline set literal.
    fn operand(&self, text: &str) -> XstResult<ExtendedSet> {
        let text = text.trim();
        if text.is_empty() {
            return Err(err("missing operand"));
        }
        if let Some(set) = self.bindings.get(text) {
            return Ok(set.clone());
        }
        parse_set(text).map_err(|e| {
            if text.chars().all(|c| c.is_alphanumeric() || c == '_') {
                err(format!("no binding named '{text}'"))
            } else {
                e
            }
        })
    }
}

/// Splits a command line into whitespace-separated operands, keeping
/// bracketed set literals (`{...}`, `⟨...⟩`, `<...>`) intact.
struct Tokens<'a> {
    rest: &'a str,
}

impl<'a> Tokens<'a> {
    fn new(line: &'a str) -> Tokens<'a> {
        Tokens { rest: line.trim() }
    }

    fn next_word(&mut self) -> XstResult<String> {
        let word = self.next_operand()?;
        Ok(word)
    }

    /// One operand: a balanced bracket group or a bare word.
    fn next_operand(&mut self) -> XstResult<String> {
        self.rest = self.rest.trim_start();
        if self.rest.is_empty() {
            return Err(err("missing operand"));
        }
        let mut depth = 0i32;
        for (i, c) in self.rest.char_indices() {
            match c {
                '{' | '⟨' | '<' | '(' => depth += 1,
                '}' | '⟩' | '>' | ')' => depth -= 1,
                c if c.is_whitespace() && depth == 0 => {
                    let (head, tail) = self.rest.split_at(i);
                    self.rest = tail;
                    return Ok(head.to_string());
                }
                _ => {}
            }
        }
        if depth != 0 {
            return Err(err("unbalanced brackets in operand"));
        }
        let out = self.rest.to_string();
        self.rest = "";
        Ok(out)
    }

    /// Everything left on the line as one operand.
    fn rest(&mut self) -> XstResult<String> {
        self.rest_opt().ok_or_else(|| err("missing operand"))
    }

    /// Everything left on the line, or `None` when the line is exhausted.
    fn rest_opt(&mut self) -> Option<String> {
        let out = self.rest.trim().to_string();
        self.rest = "";
        if out.is_empty() {
            None
        } else {
            Some(out)
        }
    }
}

fn err(message: impl Into<String>) -> XstError {
    XstError::Parse {
        offset: 0,
        message: message.into(),
    }
}

/// A local door over a fresh engine of `shards` engine+WAL pairs.
fn local_door(shards: usize) -> xst_server::Session {
    xst_server::Session::new(Arc::new(ServedEngine::with_shards(shards)))
}

/// Put `req` to `door`: its answer, or why there is none — the store's
/// typed refusal or the door's own failure, as text.
fn ask<D: Door>(door: &mut D, req: Request) -> Result<Response, String> {
    match door.call(req) {
        Ok(Response::Error(refusal)) => Err(refusal.to_string()),
        Ok(answer) => Ok(answer),
        Err(broken) => Err(broken.to_string()),
    }
}

/// A legal binding name (alphanumerics and `_`), trimmed.
fn binding_name(name: &str) -> XstResult<&str> {
    let name = name.trim();
    if name.is_empty() || !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
        return Err(err(format!("bad binding name '{name}'")));
    }
    Ok(name)
}

/// Parse a numeric command argument into a structured shell error on any
/// failure: empty input, garbage, and out-of-range values each get a
/// message naming the usage form, and overflow is reported as "out of
/// range" rather than masquerading as a typo.
fn parse_num<T>(value: &str, usage: &str) -> XstResult<T>
where
    T: std::str::FromStr<Err = std::num::ParseIntError>,
{
    let trimmed = value.trim();
    if trimmed.is_empty() {
        return Err(err(format!("missing number (usage: {usage})")));
    }
    trimmed.parse().map_err(|e: std::num::ParseIntError| {
        use std::num::IntErrorKind;
        match e.kind() {
            IntErrorKind::PosOverflow | IntErrorKind::NegOverflow => err(format!(
                "number out of range (usage: {usage}), got '{trimmed}'"
            )),
            _ => err(format!("usage: {usage}, got '{trimmed}'")),
        }
    })
}

/// `.lint [all]` — run the workspace static analyzer in-process and
/// summarize its verdict per rule. `all` also lists the justified
/// findings (the documented exemptions); unjustified findings are
/// always listed in full.
fn lint(arg: Option<&str>) -> XstResult<String> {
    let show_justified = match arg {
        None => false,
        Some("all") => true,
        Some(other) => return Err(err(format!("usage: .lint [all], got '{other}'"))),
    };
    let root = workspace_root().ok_or_else(|| {
        err("cannot locate the workspace root (no crates/ directory above the cwd)")
    })?;
    let report = xst_lint::run_lint(&root).map_err(|e| err(format!("lint: {e}")))?;
    let mut s = String::new();
    let mut by_rule: Vec<(&str, usize, usize)> = Vec::new(); // (rule, errors, justified)
    for f in &report.findings {
        match by_rule.iter_mut().find(|(r, _, _)| *r == f.rule) {
            Some((_, e, j)) => {
                *e += usize::from(!f.justified);
                *j += usize::from(f.justified);
            }
            None => by_rule.push((&f.rule, usize::from(!f.justified), usize::from(f.justified))),
        }
    }
    for (rule, errors, justified) in &by_rule {
        let _ = writeln!(s, "{rule}: {errors} error(s), {justified} justified");
    }
    for f in &report.findings {
        if !f.justified || show_justified {
            let _ = writeln!(s, "{f}");
        }
    }
    let _ = write!(
        s,
        "lint: {} file(s) checked, {} error(s), {} justified",
        report.files_checked,
        report.error_count(),
        report.justified_count()
    );
    Ok(s)
}

/// Walk up from the current directory to the first one holding a
/// `crates/` subdirectory; fall back to this crate's compile-time
/// location (two levels under the workspace root).
fn workspace_root() -> Option<std::path::PathBuf> {
    let mut dir = std::env::current_dir().ok();
    while let Some(d) = dir {
        if d.join("crates").is_dir() {
            return Some(d);
        }
        dir = d.parent().map(std::path::Path::to_path_buf);
    }
    let fallback = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    fallback.join("crates").is_dir().then_some(fallback)
}

/// Client errors surface as shell errors, not panics. Typed remote
/// errors keep their error-code name in the message.
fn client_err(e: xst_client::ClientError) -> XstError {
    err(format!("remote: {e}"))
}

/// Coordinator errors surface as shell errors, not panics.
fn coord_err(e: xst_client::coord::CoordError) -> XstError {
    err(format!("cluster: {e}"))
}

const HELP: &str = "\
commands:
  let NAME = SET              bind a set (literal notation: {a^1, ⟨b,c⟩, ∅})
  show X · card X · vars      inspect
  union A B · intersect A B · difference A B
  apply F X                   F as pair behavior: F_(⟨⟨1⟩,⟨2⟩⟩)(X)
  image R A S1 S2             R[A] under the scope pair ⟨S1, S2⟩
  domain R SPEC · restrict R SPEC A
  compose G F                 pair-relation composition carrier (g ∘ f)
  tc R                        transitive closure of a pair relation
  function? F                 Definition 8.2 test
observability:
  .explain OP ...             optimize + execute, per-operator sig/time/rows tree
  .check OP ...               static analysis only: sig, emptiness, card, diagnostics
  .lint [all]                 run the workspace static analyzer in-process
                              (all: also list justified findings)
  .metrics [json|reset]       metrics exposition · JSON snapshot · zero all
  .trace on|off|show          collector switch · render collected spans
  .trace export               collected spans as xst-trace/1 JSON (non-draining)
  .top [N]                    N most expensive accounted requests + cost bills
  .slow [MS|off]              show the slow-query ring · arm/disarm threshold
store verbs (snapshot isolation, first committer wins) — one set, three
doors: bare = the local store, `.remote VERB` = the `.connect` session if
one is open, else the `.cluster` coordinator; replies carry the door's label:
  .begin                      open a transaction (reads pin this snapshot)
  .put NAME · .delete NAME    write / delete the binding's members in table NAME
  .get NAME as NEW            read table NAME's member set into binding NEW
  .eval OP ...                evaluate a plan over the door's tables
  .commit · .abort            group-commit the writes · discard them
                              (.put/.delete outside a transaction autocommit)
  .ping                       liveness round trip
  .faults on|off              arm / clear transient I/O faults under the door's
                              engine (retry absorbs them; .shards counts them)
  .remote metrics [json] · .remote trace · .remote top [N] · .remote slow
                              the connected server's registry / spans / log
doors:
  .shards [N]                 per-shard local-store state · reshard to N
                              (before any data; multi-shard commits run 2PC)
  .serve start [ADDR|PORT]    serve the local store (default 127.0.0.1,
                              ephemeral port) · .serve stop · .serve status
  .connect HOST:PORT          open the remote door · .disconnect closes it
  .cluster start [N]          open the cluster door: N in-process shard
                              servers + a wire 2PC coordinator (puts scatter,
                              reads gather, multi-shard commits run wire 2PC)
  .cluster status · stop      coordinator state · tear the cluster down
  help · quit";

#[cfg(test)]
mod tests {
    use super::*;

    fn run(session: &mut Session, line: &str) -> String {
        session.eval_line(line).unwrap().unwrap_or_default()
    }

    /// Tests that toggle or depend on the process-global collector state
    /// take this lock so they cannot interleave.
    fn obs_serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::OnceLock<std::sync::Mutex<()>> = std::sync::OnceLock::new();
        LOCK.get_or_init(|| std::sync::Mutex::new(()))
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn bind_and_show() {
        let mut s = Session::new();
        assert_eq!(run(&mut s, "let f = {⟨a, x⟩, ⟨b, y⟩}"), "f bound");
        assert_eq!(run(&mut s, "show f"), "{⟨a, x⟩, ⟨b, y⟩}");
        assert_eq!(run(&mut s, "card f"), "2");
        assert!(run(&mut s, "vars").contains("f = "));
    }

    #[test]
    fn comments_and_blank_lines_are_silent() {
        let mut s = Session::new();
        assert_eq!(s.eval_line("").unwrap(), None);
        assert_eq!(s.eval_line("# a comment").unwrap(), None);
        assert_eq!(s.eval_line("-- also a comment").unwrap(), None);
    }

    #[test]
    fn boolean_commands() {
        let mut s = Session::new();
        run(&mut s, "let a = {1, 2}");
        run(&mut s, "let b = {2, 3}");
        assert_eq!(run(&mut s, "union a b"), "{1, 2, 3}");
        assert_eq!(run(&mut s, "intersect a b"), "{2}");
        assert_eq!(run(&mut s, "difference a b"), "{1}");
        // Inline literals work as operands too.
        assert_eq!(run(&mut s, "union a {9}"), "{1, 2, 9}");
    }

    #[test]
    fn behavior_commands() {
        let mut s = Session::new();
        run(&mut s, "let f = {⟨a, x⟩, ⟨b, y⟩, ⟨c, x⟩}");
        assert_eq!(run(&mut s, "apply f {⟨a⟩}"), "{⟨x⟩}");
        assert_eq!(run(&mut s, "function? f"), "true");
        // Explicit inverse scope: one-to-many.
        assert_eq!(run(&mut s, "image f {⟨x⟩} ⟨2⟩ ⟨1⟩"), "{⟨a⟩, ⟨c⟩}");
        assert_eq!(run(&mut s, "domain f ⟨2⟩"), "{⟨x⟩, ⟨y⟩}");
        assert_eq!(run(&mut s, "restrict f ⟨1⟩ {⟨a⟩}"), "{⟨a, x⟩}");
    }

    #[test]
    fn compose_and_closure() {
        let mut s = Session::new();
        run(&mut s, "let f = {⟨a, b⟩}");
        run(&mut s, "let g = {⟨b, c⟩}");
        assert_eq!(run(&mut s, "compose g f"), "{⟨a, c⟩}");
        run(&mut s, "let r = {⟨a, b⟩, ⟨b, c⟩}");
        let tc = run(&mut s, "tc r");
        assert!(tc.contains("⟨a, c⟩"), "{tc}");
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let mut s = Session::new();
        assert!(s.eval_line("frobnicate x").is_err());
        assert!(s.eval_line("show nope").is_err());
        assert!(s.eval_line("let = {1}").is_err());
        assert!(s.eval_line("let bad name = {1}").is_err());
        assert!(s.eval_line("union {1}").is_err(), "missing operand");
        assert!(s.eval_line("show {unbalanced").is_err());
        // The session survives errors.
        assert_eq!(run(&mut s, "card {1, 2}"), "2");
    }

    #[test]
    fn paper_appendix_b_in_the_shell() {
        // The self-application demo is expressible interactively.
        let mut s = Session::new();
        run(&mut s, "let f = {⟨a, a, a, b, b⟩, ⟨b, b, a, a, b⟩}");
        // f as a pair behavior is the identity on ⟨a⟩/⟨b⟩.
        assert_eq!(run(&mut s, "apply f {⟨a⟩}"), "{⟨a⟩}");
        // The ω-scoped image permutes the carrier.
        assert_eq!(
            run(&mut s, "image f {⟨a⟩} ⟨1⟩ ⟨1, 3, 4, 5, 2⟩"),
            "{⟨a, a, b, b, a⟩}"
        );
    }

    #[test]
    fn help_lists_commands() {
        let mut s = Session::new();
        let h = run(&mut s, "help");
        for cmd in ["let", "union", "apply", "image", "tc", "function?"] {
            assert!(h.contains(cmd), "help missing {cmd}");
        }
        for cmd in [".explain", ".metrics", ".trace"] {
            assert!(h.contains(cmd), "help missing {cmd}");
        }
    }

    #[test]
    fn lint_command_runs_the_analyzer_in_process() {
        let mut s = Session::new();
        let out = run(&mut s, ".lint");
        // The tree is clean, so `.lint` reports zero errors and the
        // per-rule summary plus the footer — no finding lines.
        assert!(out.contains("0 error(s)"), "{out}");
        assert!(out.contains("file(s) checked"), "{out}");
        assert!(!out.contains("(justified)"), "{out}");
        // `.lint all` additionally lists the documented exemptions.
        let all = run(&mut s, ".lint all");
        assert!(all.contains("(justified)"), "{all}");
        assert!(all.contains("lock-across-io"), "{all}");
        // Anything else is a usage error.
        assert!(s.eval_line(".lint loud").is_err());
    }

    #[test]
    fn explain_renders_operator_tree() {
        let _serial = obs_serial();
        let mut s = Session::new();
        run(&mut s, "let f = {⟨a, x⟩, ⟨b, y⟩, ⟨c, x⟩}");
        run(&mut s, "let a = {⟨a⟩}");
        let report = run(&mut s, ".explain restrict f ⟨1⟩ a");
        assert!(report.contains("plan:"), "{report}");
        assert!(report.contains("operators:"), "{report}");
        assert!(report.contains("rows="), "{report}");
        assert!(report.contains("table f"), "{report}");
        assert!(report.contains("total:"), "{report}");
        // A restrict-then-domain pipeline shows the optimizer fusing.
        let fused = run(&mut s, ".explain domain {⟨a, x⟩, ⟨b, y⟩} ⟨2⟩");
        assert!(fused.contains("domain"), "{fused}");
        assert!(s.eval_line(".explain frobnicate f").is_err());
        // Each operator line carries its inferred signature.
        assert!(report.contains("sig="), "{report}");
    }

    #[test]
    fn check_reports_without_executing() {
        let mut s = Session::new();
        run(&mut s, "let f = {⟨a, x⟩, ⟨b, y⟩, ⟨c, x⟩}");
        let out = run(&mut s, ".check union f {⟨d, z⟩}");
        assert!(out.contains("sig:"), "{out}");
        assert!(out.contains("emptiness:"), "{out}");
        assert!(out.contains("card:"), "{out}");
        assert!(out.contains("accepted"), "{out}");
        assert!(out.contains("diagnostics: none"), "{out}");
    }

    #[test]
    fn check_rejects_proven_cross_collision() {
        let mut s = Session::new();
        // Members {p^0} and {q^0} are not tuples, and their set views share
        // scope 0 — concatenation provably collides.
        run(&mut s, "let a = {{p^0}}");
        run(&mut s, "let b = {{q^0}}");
        let out = run(&mut s, ".check cross a b");
        assert!(out.contains("rejected"), "{out}");
        assert!(out.contains("cross-collision"), "{out}");
        // Rejection is a report, not an error: the same plan through
        // .explain IS an error (the evaluator gate refuses to run it).
        assert!(s.eval_line(".explain cross a b").is_err());
    }

    #[test]
    fn check_warns_on_statically_empty_plans() {
        let mut s = Session::new();
        let out = run(&mut s, ".check intersect {a^1} {b^2}");
        assert!(out.contains("provably-empty"), "{out}");
        assert!(out.contains("accepted"), "{out}");
        assert!(out.contains("empty-subplan"), "{out}");
    }

    #[test]
    fn metrics_expose_and_reset() {
        let _serial = obs_serial();
        let mut s = Session::new();
        run(&mut s, "let a = {1, 2}");
        run(&mut s, ".explain union a {3}");
        xst_obs::registry()
            .counter("shell_test_lines_total", "test series")
            .inc();
        let text = run(&mut s, ".metrics");
        assert!(text.contains("# TYPE"), "{text}");
        assert!(text.contains("shell_test_lines_total"), "{text}");
        let json = run(&mut s, ".metrics json");
        assert!(json.starts_with('{'), "{json}");
        assert_eq!(run(&mut s, ".metrics reset"), "metrics reset");
        assert!(s.eval_line(".metrics bogus").is_err());
    }

    #[test]
    fn trace_toggles_and_shows_spans() {
        let _serial = obs_serial();
        let mut s = Session::new();
        run(&mut s, ".trace on");
        xst_obs::collector().clear();
        run(&mut s, "let f = {⟨a, x⟩, ⟨b, y⟩}");
        run(&mut s, ".explain image f {⟨a⟩} ⟨1⟩ ⟨2⟩");
        let shown = run(&mut s, ".trace show");
        assert!(shown.contains("query.explain_analyze"), "{shown}");
        assert_eq!(run(&mut s, ".trace show"), "no spans collected");
        assert!(run(&mut s, ".trace off").contains("off"));
        run(&mut s, ".trace on");
        assert!(s.eval_line(".trace sideways").is_err());
    }

    #[test]
    fn txn_begin_put_get_commit_flow() {
        let _serial = obs_serial();
        let mut s = Session::new();
        run(&mut s, "let f = {⟨a, x⟩, ⟨b, y⟩, c^2}");
        assert!(run(&mut s, ".begin").contains("snapshot at commit ts 0"));
        let put = run(&mut s, ".put f");
        assert!(put.contains("3 rows buffered"), "{put}");
        // Read-your-own-writes: the open transaction sees its buffer.
        let got = run(&mut s, ".get f as g");
        assert!(got.contains("g bound from local 'f': 3 members"), "{got}");
        assert_eq!(run(&mut s, "show g"), run(&mut s, "show f"));
        assert!(run(&mut s, ".commit").contains("committed at ts 1"));
        // After commit the rows are the table's latest state.
        run(&mut s, ".get f as h");
        assert_eq!(run(&mut s, "show h"), run(&mut s, "show f"));
        // Transaction activity leaves the xst_txn_* families behind.
        let metrics = run(&mut s, ".metrics");
        assert!(metrics.contains("xst_txn_begins_total"), "{metrics}");
        assert!(metrics.contains("xst_txn_commits_total"), "{metrics}");
        assert!(metrics.contains("xst_txn_commit_ns"), "{metrics}");
    }

    #[test]
    fn txn_put_outside_transaction_autocommits() {
        let _serial = obs_serial();
        let mut s = Session::new();
        run(&mut s, "let a = {1, 2}");
        let put = run(&mut s, ".put a");
        assert!(put.contains("autocommitted"), "{put}");
        let got = run(&mut s, ".get a as b");
        assert!(got.contains("2 members"), "{got}");
        assert_eq!(run(&mut s, "show b"), run(&mut s, "show a"));
    }

    #[test]
    fn txn_abort_discards_buffered_writes() {
        let _serial = obs_serial();
        let mut s = Session::new();
        run(&mut s, "let a = {1, 2}");
        run(&mut s, ".put a"); // autocommit: 2 rows durable
        run(&mut s, "let more = {3, 4, 5}");
        run(&mut s, ".begin");
        run(&mut s, ".put more"); // buffered into table 'more'
        let aborted = run(&mut s, ".abort");
        assert!(aborted.contains("writes discarded"), "{aborted}");
        // The aborted table was created but holds nothing.
        let got = run(&mut s, ".get more as m");
        assert!(got.contains("0 members"), "{got}");
        // The autocommitted table is untouched.
        let got = run(&mut s, ".get a as b");
        assert!(got.contains("2 members"), "{got}");
        // A read-only transaction commits without bumping the timestamp.
        run(&mut s, ".begin");
        run(&mut s, ".get a as c");
        assert_eq!(run(&mut s, ".commit"), "local committed at ts 1");
    }

    /// The two verbs that fell out of giving every door the whole set:
    /// `.delete NAME` and a local `.eval OP ...` over store tables.
    #[test]
    fn local_delete_and_eval() {
        let _serial = obs_serial();
        let mut s = Session::new();
        run(&mut s, "let t = {1, 2, 3}");
        run(&mut s, ".put t");
        run(&mut s, "let t = {2}");
        let deleted = run(&mut s, ".delete t");
        assert!(
            deleted.starts_with("local delete 't': 1 rows (autocommitted at ts 2"),
            "{deleted}"
        );
        run(&mut s, ".get t as left");
        assert_eq!(run(&mut s, "show left"), "{1, 3}");
        // Bound names are the store's tables to `.eval`; the binding `t`
        // is {2}, the table `t` holds two rows.
        let rows = parse_set(&run(&mut s, ".eval union t t")).unwrap();
        assert_eq!(rows.card(), 2);
        // A refusal carries the server-side code through the local door.
        run(&mut s, "let ghost = {1}");
        let e = s.eval_line(".eval union ghost ghost").unwrap_err();
        assert!(e.to_string().contains("local: analysis:"), "{e}");
        assert_eq!(run(&mut s, ".ping"), "local pong");
    }

    #[test]
    fn txn_command_errors() {
        let mut s = Session::new();
        assert!(s.eval_line(".commit").is_err(), "no open txn");
        assert!(s.eval_line(".abort").is_err(), "no open txn");
        assert!(s.eval_line(".put nope").is_err(), "unknown binding");
        assert!(s.eval_line(".get nope as x").is_err(), "no tables yet");
        run(&mut s, "let a = {1}");
        run(&mut s, ".begin");
        assert!(s.eval_line(".begin").is_err(), "already open");
        assert!(s.eval_line(".get a into x").is_err(), "bad keyword");
        run(&mut s, ".abort");
        run(&mut s, ".put a");
        assert!(s.eval_line(".get missing as x").is_err(), "unknown table");
        assert!(s.eval_line(".get a as bad name").is_err(), "bad target");
        // The session survives all of it.
        assert_eq!(run(&mut s, "card a"), "1");
    }

    #[test]
    fn help_lists_txn_commands() {
        let mut s = Session::new();
        let h = run(&mut s, "help");
        for cmd in [".begin", ".put", ".get", ".commit", ".abort"] {
            assert!(h.contains(cmd), "help missing {cmd}");
        }
    }

    #[test]
    fn serve_connect_remote_round_trip() {
        let _serial = obs_serial();
        let mut s = Session::new();
        run(&mut s, "let f = {⟨a, x⟩, ⟨b, y⟩, c^2}");
        assert_eq!(run(&mut s, ".serve status"), "not serving");
        let started = run(&mut s, ".serve start");
        assert!(started.contains("serving the txn store on"), "{started}");
        let addr = started
            .split_whitespace()
            .find(|w| w.contains(':'))
            .unwrap()
            .to_string();
        assert!(run(&mut s, ".serve status").contains(&addr));
        // Local autocommit, then read it back OVER THE WIRE: the server
        // wraps this session's own engine.
        run(&mut s, ".put f");
        assert!(run(&mut s, &format!(".connect {addr}")).contains("connected"));
        assert_eq!(run(&mut s, ".remote ping"), "remote pong");
        let got = run(&mut s, ".remote get f as g");
        assert!(got.contains("3 members"), "{got}");
        assert_eq!(run(&mut s, "show g"), run(&mut s, "show f"));
        // Remote eval over the served table: the table's row-tuple
        // identity, exactly what the local door answers over the same
        // engine.
        let evaled = run(&mut s, ".remote eval union f f");
        assert_eq!(parse_set(&evaled).unwrap().card(), 3);
        assert_eq!(evaled, run(&mut s, ".eval union f f"));
        // `.remote faults on` arms the served engine — this session's own,
        // so the local `.shards` sees the plan.
        let armed = run(&mut s, ".remote faults on");
        assert!(armed.starts_with("remote faults armed"), "{armed}");
        assert!(run(&mut s, ".shards").contains("\nfaults: armed, "));
        // A remote explicit transaction: put under .remote begin stays
        // buffered until .remote commit.
        run(&mut s, "let more = {1, 2}");
        assert!(run(&mut s, ".remote begin").contains("remote txn"));
        let put = run(&mut s, ".remote put more");
        assert!(put.contains("buffered"), "{put}");
        assert!(run(&mut s, ".remote commit").contains("remote committed"));
        let got = run(&mut s, ".remote get more as m");
        assert!(got.contains("2 members"), "{got}");
        assert_eq!(run(&mut s, ".remote faults off"), "remote faults disarmed");
        assert!(run(&mut s, ".shards").contains("\nfaults: off"));
        assert!(run(&mut s, ".disconnect").contains("disconnected"));
        assert!(run(&mut s, ".serve stop").contains("stopped"));
        assert_eq!(run(&mut s, ".serve status"), "not serving");
    }

    #[test]
    fn network_command_errors() {
        let _serial = obs_serial();
        let mut s = Session::new();
        assert!(s.eval_line(".serve stop").is_err(), "not serving");
        assert!(s.eval_line(".serve sideways").is_err());
        assert!(s.eval_line(".disconnect").is_err(), "not connected");
        assert!(s.eval_line(".remote ping").is_err(), "not connected");
        assert!(
            s.eval_line(".connect 127.0.0.1:1").is_err(),
            "nothing listens there"
        );
        run(&mut s, ".serve start");
        assert!(s.eval_line(".serve start").is_err(), "already serving");
        // The session survives all of it.
        assert_eq!(run(&mut s, "card {1}"), "1");
    }

    #[test]
    fn help_lists_network_commands() {
        let mut s = Session::new();
        let h = run(&mut s, "help");
        for cmd in [".serve", ".connect", ".disconnect", ".remote", ".cluster"] {
            assert!(h.contains(cmd), "help missing {cmd}");
        }
    }

    #[test]
    fn cluster_lifecycle_and_remote_routing() {
        let _serial = obs_serial();
        let mut s = Session::new();
        run(&mut s, "let w = {1^1, 2^1, 3^1, 4^1}");
        let up = run(&mut s, ".cluster start 2");
        assert!(up.contains("2 shard server(s)"), "{up}");
        assert!(s.eval_line(".cluster start 2").is_err(), "double start");
        // `.remote` routes through the coordinator: autocommit scatter,
        // gathered read, distributed eval.
        let pong = run(&mut s, ".remote ping");
        assert_eq!(pong, "cluster pong");
        let put = run(&mut s, ".remote put w");
        assert!(
            put.contains("4 rows") && put.contains("autocommitted"),
            "{put}"
        );
        let got = run(&mut s, ".remote get w as back");
        assert!(
            got.contains("back bound from cluster 'w': 4 members"),
            "{got}"
        );
        assert_eq!(run(&mut s, "show back"), run(&mut s, "show w"));
        let evaled = parse_set(&run(&mut s, ".remote eval union w w")).unwrap();
        assert_eq!(evaled.to_string(), run(&mut s, "show w"));
        let status = run(&mut s, ".cluster status");
        assert!(status.contains("2 shard(s)"), "{status}");
        assert!(status.contains("committed decision(s)"), "{status}");
        assert!(status.contains("decision-log entries"), "{status}");
        assert!(status.contains("next gtxn"), "{status}");
        // The coordinator runs in-process, so its series land in the
        // local registry — no wire pull needed.
        assert!(
            run(&mut s, ".metrics").contains("xst_coord_"),
            "coordinator metrics must be in local .metrics"
        );
        let down = run(&mut s, ".cluster stop");
        assert!(down.contains("2 shard server(s) down"), "{down}");
        assert!(
            s.eval_line(".remote ping").is_err(),
            "no cluster, no client"
        );
        assert!(s.eval_line(".cluster stop").is_err(), "nothing to stop");
        assert_eq!(
            run(&mut s, ".cluster status"),
            "no cluster (.cluster start [N] first)"
        );
    }

    #[test]
    fn cluster_transactions_and_error_surface() {
        let _serial = obs_serial();
        let mut s = Session::new();
        run(&mut s, "let a = {10^1, 11^2}");
        run(&mut s, ".cluster start 2");
        // An explicit distributed transaction: staged puts commit as a
        // wire 2PC round.
        let begin = run(&mut s, ".remote begin");
        assert!(begin.starts_with("cluster txn 1 open: snapshot"), "{begin}");
        let put = run(&mut s, ".remote put a");
        assert!(
            put.contains("2 rows buffered (visible after commit)"),
            "{put}"
        );
        let commit = run(&mut s, ".remote commit");
        assert!(commit.contains("cluster committed at ts"), "{commit}");
        run(&mut s, ".remote get a as b");
        assert_eq!(run(&mut s, "card b"), "2");
        // Abort discards staged writes everywhere.
        run(&mut s, ".remote begin");
        run(&mut s, ".remote put a");
        assert!(run(&mut s, ".remote abort").contains("aborted"));
        // Observability pulls are one server's to answer: the
        // coordinator refuses them with a typed error.
        let e = s.eval_line(".remote trace").unwrap_err().to_string();
        assert!(e.contains("cluster: protocol: 'trace-dump'"), "{e}");
        assert!(s.eval_line(".remote metrics").is_err());
        // So is a fault plan: each server arms its own devices.
        let e = s.eval_line(".remote faults on").unwrap_err().to_string();
        assert!(e.contains("one server's to answer"), "{e}");
        // The same refusal, the same code as a single server's.
        let e = s.eval_line(".remote commit").unwrap_err().to_string();
        assert!(e.contains("cluster: txn-state:"), "{e}");
        // Unknown bindings and bad verbs surface as errors, not hangs.
        assert!(s.eval_line(".remote put nope").is_err());
        assert!(s.eval_line(".cluster sideways").is_err());
        run(&mut s, ".cluster stop");
    }

    #[test]
    fn top_and_slow_account_local_commands() {
        let _serial = obs_serial();
        let mut s = Session::new();
        run(&mut s, "let a = {1, 2}");
        run(&mut s, "let b = {2, 3}");
        run(&mut s, "union a b");
        // Every command landed a session-0 record with its word as detail.
        let top = run(&mut s, ".top 500");
        assert!(top.contains("shell(union)"), "{top}");
        // Costs flow into the bill: an autocommitted .put appends to the WAL.
        run(&mut s, ".put a");
        let top = run(&mut s, ".top 500");
        assert!(top.contains("shell(.put)"), "{top}");
        assert!(top.contains("wal="), "{top}");
        // Slow-log threshold arms, renders, and disarms.
        assert!(run(&mut s, ".slow 250").contains("armed at 250 ms"));
        let shown = run(&mut s, ".slow");
        assert!(shown.contains("slow threshold: 250 ms"), "{shown}");
        assert!(run(&mut s, ".slow off").contains("disabled"));
        assert!(run(&mut s, ".slow").contains("disabled"), "disarmed");
        assert!(s.eval_line(".top sideways").is_err());
        assert!(s.eval_line(".slow sideways").is_err());
    }

    #[test]
    fn trace_export_emits_schema_json() {
        let _serial = obs_serial();
        let mut s = Session::new();
        run(&mut s, ".trace on");
        xst_obs::collector().clear();
        run(&mut s, "let f = {⟨a, x⟩, ⟨b, y⟩}");
        run(&mut s, ".explain union f {⟨c, z⟩}");
        let json = run(&mut s, ".trace export");
        assert!(json.contains("\"schema\":\"xst-trace/1\""), "{json}");
        assert!(json.contains("shell.command"), "{json}");
        assert!(json.contains("query.explain_analyze"), "{json}");
        assert!(json.contains("\"trace_id\":\"0x"), "{json}");
        // Export is non-draining: .trace show still sees the spans.
        let shown = run(&mut s, ".trace show");
        assert!(shown.contains("query.explain_analyze"), "{shown}");
    }

    #[test]
    fn remote_observability_pulls() {
        let _serial = obs_serial();
        let mut s = Session::new();
        run(&mut s, "let f = {⟨a, x⟩, ⟨b, y⟩}");
        let started = run(&mut s, ".serve start");
        let addr = started
            .split_whitespace()
            .find(|w| w.contains(':'))
            .unwrap()
            .to_string();
        run(&mut s, &format!(".connect {addr}"));
        run(&mut s, ".put f");
        let evaled = run(&mut s, ".remote eval union f f");
        assert!(!evaled.is_empty());
        let metrics = run(&mut s, ".remote metrics");
        assert!(metrics.contains("# TYPE"), "{metrics}");
        let json = run(&mut s, ".remote metrics json");
        assert!(json.starts_with('{'), "{json}");
        let trace = run(&mut s, ".remote trace");
        assert!(trace.contains("\"schema\":\"xst-trace/1\""), "{trace}");
        // The server's request log saw the eval, with its session id.
        let top = run(&mut s, ".remote top 400");
        assert!(top.contains("eval"), "{top}");
        let slow = run(&mut s, ".remote slow");
        assert!(!slow.is_empty(), "{slow}");
        assert!(s.eval_line(".remote metrics sideways").is_err());
        run(&mut s, ".disconnect");
        run(&mut s, ".serve stop");
    }

    #[test]
    fn numeric_args_reject_garbage_empty_and_overflow() {
        let _serial = obs_serial();
        let mut s = Session::new();
        // Garbage.
        for line in [".top sideways", ".slow sideways", ".shards sideways"] {
            let e = s.eval_line(line).unwrap_err().to_string();
            assert!(e.contains("usage:"), "{line}: {e}");
        }
        // Negative numbers are garbage to unsigned args.
        assert!(s.eval_line(".top -3").is_err());
        assert!(s.eval_line(".slow -1").is_err());
        // Overflow is reported as out of range, not as a typo.
        for line in [
            ".top 99999999999999999999999999",
            ".slow 18446744073709551616",
            ".serve start 70000",
        ] {
            let e = s.eval_line(line).unwrap_err().to_string();
            assert!(e.contains("out of range"), "{line}: {e}");
        }
        // A bare non-numeric .serve port is rejected before the bind.
        let e = s.eval_line(".serve start bogus").unwrap_err().to_string();
        assert!(e.contains(".serve start [ADDR|PORT]"), "{e}");
        // Empty arguments keep their defaults (no error).
        assert!(run(&mut s, ".top").contains("session"));
        assert!(run(&mut s, ".slow").contains("disabled"));
        // The session survives all of it.
        assert_eq!(run(&mut s, "card {1}"), "1");
    }

    #[test]
    fn shards_command_introspects_and_reshards() {
        let _serial = obs_serial();
        let mut s = Session::new();
        assert!(run(&mut s, ".shards").contains("no txn store yet"));
        assert_eq!(
            run(&mut s, ".shards 3"),
            "txn store resharded across 3 shard(s)"
        );
        let status = run(&mut s, ".shards");
        assert!(status.contains("3 shard(s)"), "{status}");
        assert!(status.contains("shard 2:"), "{status}");
        // A multi-member put spreads across shards and gathers back.
        run(&mut s, "let f = {⟨a, x⟩, ⟨b, y⟩, c^2, d, e^3}");
        run(&mut s, ".begin");
        run(&mut s, ".put f");
        let in_txn = run(&mut s, ".shards");
        assert!(in_txn.contains("1 distributed txn(s) open"), "{in_txn}");
        assert!(run(&mut s, ".commit").contains("committed at ts"));
        let got = run(&mut s, ".get f as g");
        assert!(got.contains("5 members"), "{got}");
        assert_eq!(run(&mut s, "show g"), run(&mut s, "show f"));
        // Nothing is open any more: every shard is down to its head, and
        // the bound is readable from the status line and the metrics.
        let after = run(&mut s, ".shards");
        assert!(after.contains("1 version(s) retained ("), "{after}");
        assert!(after.contains("1 decision-log entries"), "{after}");
        let metrics = run(&mut s, ".metrics");
        // Presence, not a value: the gauge sums every live log in the
        // process, and other tests run engines of their own.
        assert!(
            metrics.contains("xst_twopc_decision_log_entries"),
            "{metrics}"
        );
        assert!(metrics.contains("xst_txn_versions_retained"), "{metrics}");
        assert!(
            metrics.contains("xst_txn_versions_reclaimed_total"),
            "{metrics}"
        );
        // Resharding with data in place is refused.
        let e = s.eval_line(".shards 2").unwrap_err().to_string();
        assert!(e.contains("cannot reshard"), "{e}");
        assert!(s.eval_line(".shards 0").is_err(), "zero shards");
    }

    /// The number after `faults: armed, ` on `.shards`' faults line.
    fn injected(shards: &str) -> u64 {
        shards
            .lines()
            .find_map(|l| l.strip_prefix("faults: armed, "))
            .and_then(|rest| rest.split(' ').next()?.parse().ok())
            .unwrap_or_else(|| panic!("no armed plan in:\n{shards}"))
    }

    #[test]
    fn faults_command_injects_and_retry_absorbs() {
        let _serial = obs_serial();
        let mut s = Session::new();
        run(&mut s, "let f = {⟨a, x⟩, ⟨b, y⟩, c^2, d, e^3}");
        let armed = run(&mut s, ".faults on");
        assert!(
            armed.starts_with("local faults armed: every 5th"),
            "{armed}"
        );
        assert_eq!(injected(&run(&mut s, ".shards")), 0);
        // Autocommitted puts now run under injected transient faults on the
        // door's own engine — the default retry policy absorbs every one.
        // Each autocommit is one WAL sync site, so the fifth put draws the
        // plan's first fault.
        for _ in 0..5 {
            let put = run(&mut s, ".put f");
            assert!(put.contains("autocommitted"), "{put}");
        }
        run(&mut s, ".get f as g");
        assert_eq!(run(&mut s, "show g"), run(&mut s, "show f"));
        assert!(injected(&run(&mut s, ".shards")) > 0);
        assert_eq!(run(&mut s, ".faults off"), "local faults disarmed");
        assert!(run(&mut s, ".shards").contains("\nfaults: off\n"));
        assert!(s.eval_line(".faults sideways").is_err());
        assert!(s.eval_line(".faults").is_err());
    }
}
