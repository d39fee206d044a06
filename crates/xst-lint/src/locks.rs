//! Passes 1 and 2: lock-order (deadlock-cycle) analysis and the
//! held-lock-across-blocking-op lint.
//!
//! A lock is identified as `(declaring file, field name)` — every
//! `Mutex`/`RwLock` struct field in the workspace. Since those fields are
//! private, they can only be acquired from their declaring module, so an
//! identifier directly left of `.lock()` / `.read()` / `.write()` that
//! names such a field *in the same file* is an acquisition of that lock.
//!
//! Guard lifetimes are approximated without type inference:
//!
//! * `let g = <...>.lock()` followed only by guard-preserving adapters
//!   (`.unwrap()`, `.expect(..)`, `.unwrap_or_else(..)`) binds a named
//!   guard that lives to the end of its enclosing block, truncated at an
//!   explicit `drop(g)`.
//! * Any other acquisition is a temporary guard living to the end of its
//!   statement.
//!
//! Acquisitions-while-held and blocking operations propagate through an
//! intra-workspace call graph resolved by method name + arity, filtered
//! by a receiver hint (the declared type of the named field, or the
//! `impl` type for `self`). A hint-less method call whose name is
//! ambiguous workspace-wide resolves only if the caller's own crate
//! holds exactly one candidate — which is how a generic helper's
//! `p.prepare(..)` finds the trait impl beside it. Other ambiguous calls
//! are dropped — the analysis deliberately under-approximates rather
//! than invent edges. Condvar waits (`wait`/`wait_timeout`) are not blocking ops:
//! waiting releases the guard by design.

use std::collections::{BTreeMap, BTreeSet};

use crate::syntax::{self, Call};
use crate::{push_finding, Workspace};

/// Blocking operations recognised only as zero-argument calls (so
/// `path.join(..)` or `file.read(buf)` cannot match).
const BLOCKING_ZERO_ARG: &[&str] = &["sync", "flush", "join", "sync_all", "sync_data"];
/// Blocking operations recognised at any arity.
const BLOCKING_ANY_ARG: &[&str] = &[
    "append_batch",
    "checkpoint_mark",
    "write_all",
    "read_exact",
    "write_frame",
    "read_frame",
    "fsync",
];
/// Post-`.lock()` adapters that still hand back the guard.
const GUARD_ADAPTERS: &[&str] = &["unwrap", "expect", "unwrap_or_else"];

/// One lock: a `Mutex`/`RwLock` field, named by its declaring struct.
struct Lock {
    strukt: String,
    field: String,
}

/// One live guard within a function body.
struct Guard {
    lock: usize,
    /// Offset of the acquisition call name.
    at: usize,
    line: usize,
    /// Half-open span over which the guard is held.
    scope: (usize, usize),
}

/// A call site resolved to zero or more workspace functions.
struct ResolvedCall {
    at: usize,
    targets: Vec<usize>,
}

#[derive(Default)]
struct FnFacts {
    guards: Vec<Guard>,
    calls: Vec<ResolvedCall>,
    /// Blocking ops invoked directly in this body: (name, offset).
    direct_ops: Vec<(String, usize)>,
}

/// Global function table entry.
struct FnEntry {
    file: usize,
    /// Index into that file's `model.fns`.
    idx: usize,
    display: String,
}

pub fn analyze(
    ws: &Workspace,
    findings: &mut Vec<crate::Finding>,
    used: &mut BTreeSet<(usize, usize)>,
) {
    // ---- lock table ---------------------------------------------------
    let mut locks: Vec<Lock> = Vec::new();
    let mut lock_key: BTreeMap<(usize, String), usize> = BTreeMap::new();
    // field name -> declared type texts (workspace-wide receiver hints)
    let mut field_types: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (fi, rec) in ws.files.iter().enumerate() {
        for s in &rec.model.structs {
            for f in &s.fields {
                field_types
                    .entry(f.name.clone())
                    .or_default()
                    .push(f.ty.clone());
                if f.ty.contains("Mutex<") || f.ty.contains("RwLock<") {
                    lock_key.entry((fi, f.name.clone())).or_insert_with(|| {
                        locks.push(Lock {
                            strukt: s.name.clone(),
                            field: f.name.clone(),
                        });
                        locks.len() - 1
                    });
                }
            }
        }
    }

    // ---- function table ----------------------------------------------
    let mut fns: Vec<FnEntry> = Vec::new();
    let mut methods: BTreeMap<(String, usize), Vec<usize>> = BTreeMap::new();
    let mut frees: BTreeMap<(String, usize), Vec<usize>> = BTreeMap::new();
    for (fi, rec) in ws.files.iter().enumerate() {
        for (k, f) in rec.model.fns.iter().enumerate() {
            if f.body.is_none() || rec.view.in_test(f.sig_at) {
                continue;
            }
            let display = match &f.self_type {
                Some(t) => format!("{}::{}", t, f.name),
                None => f.name.clone(),
            };
            let id = fns.len();
            fns.push(FnEntry {
                file: fi,
                idx: k,
                display,
            });
            if f.has_self {
                methods
                    .entry((f.name.clone(), f.arity))
                    .or_default()
                    .push(id);
            } else {
                frees.entry((f.name.clone(), f.arity)).or_default().push(id);
            }
        }
    }

    // ---- per-fn facts -------------------------------------------------
    let mut facts: Vec<FnFacts> = Vec::new();
    for entry in &fns {
        let rec = &ws.files[entry.file];
        let decl = &rec.model.fns[entry.idx];
        let body = decl.body.unwrap();
        let code = &rec.view.code;
        let b = code.as_bytes();
        let mut ff = FnFacts::default();
        for call in syntax::calls_in(code, (body.0 + 1, body.1)) {
            // Acquisition?
            if call.method
                && call.args == 0
                && matches!(call.name.as_str(), "lock" | "read" | "write")
            {
                if let Some(recv) = &call.receiver {
                    if let Some(&lk) = lock_key.get(&(entry.file, recv.clone())) {
                        let scope_end = guard_scope_end(b, code, &call, body);
                        ff.guards.push(Guard {
                            lock: lk,
                            at: call.at,
                            line: rec.view.line_of(call.at),
                            scope: (call.at, scope_end),
                        });
                        continue;
                    }
                }
            }
            // Blocking op?
            if (call.args == 0 && BLOCKING_ZERO_ARG.contains(&call.name.as_str()))
                || BLOCKING_ANY_ARG.contains(&call.name.as_str())
            {
                ff.direct_ops.push((call.name.clone(), call.at));
            }
            // Resolution.
            let targets = resolve(
                &call,
                decl.self_type.as_deref(),
                entry.file,
                &fns,
                &methods,
                &frees,
                &field_types,
                ws,
            );
            if !targets.is_empty() {
                ff.calls.push(ResolvedCall {
                    at: call.at,
                    targets,
                });
            }
        }
        facts.push(ff);
    }

    // ---- transitive closure ------------------------------------------
    // For each fn: locks it (transitively) acquires and blocking ops it
    // (transitively) performs, each with a witness call path.
    let mut trans_locks: Vec<BTreeMap<usize, Vec<String>>> = Vec::with_capacity(fns.len());
    let mut trans_ops: Vec<BTreeMap<String, Vec<String>>> = Vec::with_capacity(fns.len());
    for ff in &facts {
        let mut l = BTreeMap::new();
        for g in &ff.guards {
            l.entry(g.lock).or_insert_with(Vec::new);
        }
        let mut o = BTreeMap::new();
        for (op, _) in &ff.direct_ops {
            o.entry(op.clone()).or_insert_with(Vec::new);
        }
        trans_locks.push(l);
        trans_ops.push(o);
    }
    use std::collections::btree_map::Entry;
    loop {
        let mut changed = false;
        for f in 0..fns.len() {
            for call in &facts[f].calls {
                for &t in &call.targets {
                    if t == f {
                        continue;
                    }
                    let (lt, ot) = (trans_locks[t].clone(), trans_ops[t].clone());
                    for (lk, path) in lt {
                        if let Entry::Vacant(e) = trans_locks[f].entry(lk) {
                            let mut p = vec![fns[t].display.clone()];
                            p.extend(path);
                            e.insert(p);
                            changed = true;
                        }
                    }
                    for (op, path) in ot {
                        if let Entry::Vacant(e) = trans_ops[f].entry(op) {
                            let mut p = vec![fns[t].display.clone()];
                            p.extend(path);
                            e.insert(p);
                            changed = true;
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // ---- pass 1: lock-order edges and cycles --------------------------
    struct Witness {
        file: usize,
        line: usize,
        text: String,
    }
    let mut edges: BTreeMap<(usize, usize), Witness> = BTreeMap::new();
    let lock_name = |l: usize| format!("{}.{}", locks[l].strukt, locks[l].field);
    for f in 0..fns.len() {
        let rec = &ws.files[fns[f].file];
        for g in &facts[f].guards {
            for g2 in &facts[f].guards {
                if g2.at > g.at && g2.at < g.scope.1 {
                    edges.entry((g.lock, g2.lock)).or_insert_with(|| Witness {
                        file: fns[f].file,
                        line: rec.view.line_of(g2.at),
                        text: format!(
                            "`{}` acquired while `{}` is held in `{}`",
                            lock_name(g2.lock),
                            lock_name(g.lock),
                            fns[f].display
                        ),
                    });
                }
            }
            for call in &facts[f].calls {
                if call.at <= g.at || call.at >= g.scope.1 {
                    continue;
                }
                for &t in &call.targets {
                    for (lk, path) in &trans_locks[t] {
                        edges.entry((g.lock, *lk)).or_insert_with(|| Witness {
                            file: fns[f].file,
                            line: rec.view.line_of(call.at),
                            text: format!(
                                "`{}` holds `{}` and calls `{}`{} which acquires `{}`",
                                fns[f].display,
                                lock_name(g.lock),
                                fns[t].display,
                                via(path),
                                lock_name(*lk)
                            ),
                        });
                    }
                }
            }
        }
    }
    for cycle in find_cycles(locks.len(), &edges) {
        let mut path_names: Vec<String> = cycle.iter().map(|&l| lock_name(l)).collect();
        path_names.push(lock_name(cycle[0]));
        let mut wtexts = Vec::new();
        for w in cycle.windows(2) {
            if let Some(wit) = edges.get(&(w[0], w[1])) {
                wtexts.push(format!(
                    "{}:{}: {}",
                    ws.files[wit.file].rel, wit.line, wit.text
                ));
            }
        }
        if let Some(wit) = edges.get(&(cycle[cycle.len() - 1], cycle[0])) {
            wtexts.push(format!(
                "{}:{}: {}",
                ws.files[wit.file].rel, wit.line, wit.text
            ));
        }
        let first = edges
            .get(&(cycle[0], *cycle.get(1).unwrap_or(&cycle[0])))
            .expect("cycle edge exists");
        push_finding(
            findings,
            &ws.files[first.file].rel,
            first.line,
            "lock-cycle",
            format!(
                "lock-order cycle `{}`; witnesses: {}",
                path_names.join(" -> "),
                wtexts.join("; ")
            ),
            false,
        );
    }

    // ---- pass 2: guard held across blocking op ------------------------
    for f in 0..fns.len() {
        let fi = fns[f].file;
        let rec = &ws.files[fi];
        let mut seen_lines: BTreeSet<(usize, usize)> = BTreeSet::new();
        for g in &facts[f].guards {
            let mut events: Vec<(usize, String)> = Vec::new();
            for (op, at) in &facts[f].direct_ops {
                if *at > g.at && *at < g.scope.1 {
                    events.push((rec.view.line_of(*at), format!("blocking `{op}()`")));
                }
            }
            for call in &facts[f].calls {
                if call.at <= g.at || call.at >= g.scope.1 {
                    continue;
                }
                for &t in &call.targets {
                    if let Some((op, path)) = trans_ops[t].iter().next() {
                        let mut full = vec![fns[t].display.clone()];
                        full.extend(path.iter().cloned());
                        events.push((
                            rec.view.line_of(call.at),
                            format!(
                                "`{}()` (reaches blocking `{op}()`{})",
                                fns[t].display,
                                via_tail(&full)
                            ),
                        ));
                        break;
                    }
                }
            }
            for (line, desc) in events {
                if !seen_lines.insert((g.at, line)) {
                    continue;
                }
                let just_lines = [
                    line,
                    line.saturating_sub(1),
                    g.line,
                    g.line.saturating_sub(1),
                ];
                let js = rec.view.justifications_on("lock-across-io", &just_lines);
                let justified = !js.is_empty();
                for j in js {
                    used.insert((fi, j));
                }
                push_finding(
                    findings,
                    &rec.rel,
                    line,
                    "lock-across-io",
                    format!(
                        "guard on `{}` (acquired line {}) held across {desc}",
                        lock_name(g.lock),
                        g.line
                    ),
                    justified,
                );
            }
        }
    }
}

fn via(path: &[String]) -> String {
    if path.is_empty() {
        String::new()
    } else {
        format!(" (via {})", path.join(" -> "))
    }
}

/// Like [`via`] but for a path whose head is already named in the text.
fn via_tail(full: &[String]) -> String {
    if full.len() <= 1 {
        String::new()
    } else {
        format!(" via {}", full[1..].join(" -> "))
    }
}

/// Where the guard produced by acquisition `call` stops being held.
fn guard_scope_end(b: &[u8], code: &str, call: &Call, body: (usize, usize)) -> usize {
    let open = {
        let mut i = call.at + call.name.len();
        while i < b.len() && b[i].is_ascii_whitespace() {
            i += 1;
        }
        i
    };
    let close = syntax::matching(b, open);
    // Walk the adapter chain after `.lock()`.
    let mut i = close + 1;
    let mut adapters_only = true;
    loop {
        let mut j = i;
        while j < b.len() && b[j].is_ascii_whitespace() {
            j += 1;
        }
        if j < b.len() && b[j] == b'?' {
            i = j + 1;
            continue;
        }
        if j >= b.len() || b[j] != b'.' {
            break;
        }
        let name_start = j + 1;
        let mut k = name_start;
        while k < b.len() && syntax::is_ident_char(b[k]) {
            k += 1;
        }
        let name = &code[name_start..k];
        let mut p = k;
        while p < b.len() && b[p].is_ascii_whitespace() {
            p += 1;
        }
        if GUARD_ADAPTERS.contains(&name) && p < b.len() && b[p] == b'(' {
            i = syntax::matching(b, p) + 1;
        } else {
            adapters_only = false;
            break;
        }
    }
    let se = syntax::stmt_end(b, call.at, body.1);
    let ss = syntax::stmt_start(b, call.at, body.0);
    let stmt_head = code[ss..call.at.min(code.len())].trim_start();
    let named =
        adapters_only && code[i..se].trim().is_empty() && stmt_head.starts_with("let ") && {
            let pat = stmt_head["let ".len()..]
                .trim_start()
                .trim_start_matches("mut ")
                .trim_start();
            pat.chars()
                .take_while(|c| *c != '=' && *c != ':')
                .collect::<String>()
                .trim()
                .chars()
                .all(|c| syntax::is_ident_char(c as u8))
        };
    if !named {
        return se;
    }
    // Named guard: held to end of the enclosing block, truncated at an
    // explicit `drop(name)`.
    let name = {
        let pat = stmt_head["let ".len()..]
            .trim_start()
            .trim_start_matches("mut ")
            .trim_start();
        pat.chars()
            .take_while(|c| *c != '=' && *c != ':')
            .collect::<String>()
            .trim()
            .to_string()
    };
    let be = syntax::block_end(b, call.at, body.1);
    let mut from = se;
    while let Some(p) = code[from..be.min(code.len())].find("drop") {
        let at = from + p;
        from = at + 4;
        let before_ok = at == 0 || !syntax::is_ident_char(b[at - 1]);
        let mut q = at + 4;
        while q < b.len() && b[q].is_ascii_whitespace() {
            q += 1;
        }
        if before_ok && q < b.len() && b[q] == b'(' {
            let c = syntax::matching(b, q);
            if code[q + 1..c].trim() == name {
                return at;
            }
        }
    }
    be
}

/// Resolve one call site to workspace function ids. Under-approximates:
/// ambiguous calls with no usable receiver hint resolve to nothing.
#[allow(clippy::too_many_arguments)]
fn resolve(
    call: &Call,
    enclosing_self: Option<&str>,
    file: usize,
    fns: &[FnEntry],
    methods: &BTreeMap<(String, usize), Vec<usize>>,
    frees: &BTreeMap<(String, usize), Vec<usize>>,
    field_types: &BTreeMap<String, Vec<String>>,
    ws: &Workspace,
) -> Vec<usize> {
    let self_type_of = |id: usize| {
        ws.files[fns[id].file].model.fns[fns[id].idx]
            .self_type
            .clone()
    };
    if call.method {
        let Some(cands) = methods.get(&(call.name.clone(), call.args)) else {
            return Vec::new();
        };
        // A usable receiver hint is decisive either way: when it rejects
        // every candidate the call is on some foreign type (`Vec::len`,
        // say) and must NOT fall back to a same-named workspace method.
        match call.receiver.as_deref() {
            Some("self") => {
                if let Some(st) = enclosing_self {
                    return cands
                        .iter()
                        .copied()
                        .filter(|&c| self_type_of(c).as_deref() == Some(st))
                        .collect();
                }
            }
            Some(recv) => {
                if let Some(tys) = field_types.get(recv) {
                    return cands
                        .iter()
                        .copied()
                        .filter(|&c| {
                            self_type_of(c)
                                .map(|st| tys.iter().any(|ty| contains_word(ty, &st)))
                                .unwrap_or(false)
                        })
                        .collect();
                }
            }
            None => {}
        }
        if cands.len() == 1 {
            return cands.clone();
        }
        // No hint, several candidates: a trait method called on a generic
        // receiver lands here. Take the caller's own crate's impl, if it
        // has exactly one.
        let crate_name = &ws.files[file].crate_name;
        let same_crate: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&c| &ws.files[fns[c].file].crate_name == crate_name)
            .collect();
        if same_crate.len() == 1 {
            return same_crate;
        }
        Vec::new()
    } else {
        let Some(cands) = frees.get(&(call.name.clone(), call.args)) else {
            return Vec::new();
        };
        let same_file: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&c| fns[c].file == file)
            .collect();
        if !same_file.is_empty() {
            return same_file;
        }
        let crate_name = &ws.files[file].crate_name;
        let same_crate: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&c| &ws.files[fns[c].file].crate_name == crate_name)
            .collect();
        if !same_crate.is_empty() {
            return same_crate;
        }
        if cands.len() == 1 {
            return cands.clone();
        }
        Vec::new()
    }
}

fn contains_word(hay: &str, needle: &str) -> bool {
    let b = hay.as_bytes();
    let mut from = 0;
    while let Some(p) = hay[from..].find(needle) {
        let at = from + p;
        from = at + 1;
        let before_ok = at == 0 || !syntax::is_ident_char(b[at - 1]);
        let end = at + needle.len();
        let after_ok = end >= b.len() || !syntax::is_ident_char(b[end]);
        if before_ok && after_ok {
            return true;
        }
    }
    false
}

/// Find elementary cycles in the lock graph. Returns each unique cycle
/// once, as a node list starting at its smallest member.
fn find_cycles<W>(n: usize, edges: &BTreeMap<(usize, usize), W>) -> Vec<Vec<usize>> {
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(a, b) in edges.keys() {
        adj[a].push(b);
    }
    let mut out: Vec<Vec<usize>> = Vec::new();
    let mut seen: BTreeSet<Vec<usize>> = BTreeSet::new();
    for start in 0..n {
        // DFS for a path start -> ... -> start using only nodes >= start
        // (canonicalises each cycle to its smallest member).
        let mut stack: Vec<(usize, Vec<usize>)> = vec![(start, vec![start])];
        let mut visited: BTreeSet<usize> = BTreeSet::new();
        while let Some((node, path)) = stack.pop() {
            for &next in &adj[node] {
                if next == start {
                    let mut key = path.clone();
                    key.sort_unstable();
                    if seen.insert(key) {
                        out.push(path.clone());
                    }
                } else if next > start && visited.insert(next) {
                    let mut p = path.clone();
                    p.push(next);
                    stack.push((next, p));
                }
            }
        }
    }
    out
}
