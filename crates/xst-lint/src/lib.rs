//! `xst-lint` — first-party static analysis for the XST workspace.
//!
//! Zero dependencies. Two layers of rules over `crates/*/src`:
//!
//! **Token rules** (since PR 5), on a comment/string-blanked view:
//!
//! 1. **no-panic** — `.unwrap()`, `.expect(`, and `panic!` are forbidden
//!    in non-test `xst-storage`/`xst-core`/`xst-server`/`xst-client`.
//! 2. **determinism** — wall clocks, deadlines, sleeps, threads, sockets
//!    and ambient entropy are forbidden in deterministic
//!    harness/fault/sched/cluster modules, unless the site carries a
//!    `// lint: determinism: <why>` justification.
//! 3. **metric-names** — every `xst_*` literal lives once in
//!    `crates/xst-obs/src/names.rs`.
//! 4. **registered-metrics** — registration sites name their family
//!    through `names::` constants.
//! 5. **one-lowering** — a relational operator becomes a plan in
//!    `xst-relational/src/algebra.rs` and the plan walker runs it: the
//!    relational crate, the storage engines and the shell name no
//!    `xst_core::ops` kernel that has an `Expr` node.
//!
//! **Analysis passes** (this PR), on a lightweight syntactic model
//! ([`syntax`]) with a call-graph approximation:
//!
//! 6. **lock-cycle** ([`locks`]) — the lock-acquisition relation,
//!    propagated through the call graph, must be acyclic; any cycle is
//!    reported with witnessing acquisition paths.
//! 7. **lock-across-io** ([`locks`]) — no guard may be live across a
//!    blocking operation (fsync, WAL `append_batch`, socket framing,
//!    `JoinHandle::join`) unless the site carries a
//!    `// lint: lock-across-io: <why>` justification.
//! 8. **unnumbered-io** ([`faults`]) — every function touching device
//!    state in `xst-storage` goes through a `FaultPlan` site check or is
//!    justified, so "crash at every site" is a checked invariant.
//! 9. **proto-dispatch** ([`proto`]) — wire tags, decode arms, and
//!    `Session::handle` dispatch agree.
//!
//! **Guards** ([`guards`]), on the raw text of every `.rs` file under
//! `crates/`, `tests/` and `vendor/`:
//!
//! 10. **one-door**, **one-walker**, **one-traversal**, **one-partition**,
//!     **one-twopc**, **one-codec**, **one-lowering**, **two-refusals** —
//!     one declarative table of patterns that may be spelled only in one
//!     place, or only so many times: what keeps "one of each" from
//!     re-growing a second.
//!
//! Justification comments are the living allowlist: they must carry a
//! non-empty reason, survive `--deny-all` (unlike the legacy static
//! [`ALLOWLIST`], which ships empty), and are themselves linted — an
//! unused justification is an error, so stale exemptions cannot linger.

use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

pub mod faults;
pub mod guards;
pub mod locks;
pub mod proto;
pub mod report;
pub mod scan;
pub mod syntax;

use scan::SourceView;
use syntax::FileModel;

/// Permanent token-rule exemptions: `(path suffix, token)` pairs. Kept
/// empty — CI runs `--deny-all`, and new exemptions belong in a code fix
/// or a justification comment, not here.
pub const ALLOWLIST: &[(&str, &str)] = &[];

/// Rules that accept `// lint: <rule>: <why>` justification comments.
pub const JUSTIFIABLE_RULES: &[&str] = &["lock-across-io", "unnumbered-io", "determinism"];

/// One lint finding. `justified` findings are reported but do not fail
/// the run (they are the documented, counted exemptions).
pub struct Finding {
    pub file: String,
    pub line: usize,
    pub rule: String,
    pub message: String,
    pub justified: bool,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}{}",
            self.file,
            self.line,
            self.rule,
            self.message,
            if self.justified { " (justified)" } else { "" }
        )
    }
}

pub(crate) fn push_finding(
    findings: &mut Vec<Finding>,
    file: &str,
    line: usize,
    rule: &str,
    message: String,
    justified: bool,
) {
    findings.push(Finding {
        file: file.to_string(),
        line,
        rule: rule.to_string(),
        message,
        justified,
    });
}

/// One loaded source file with its scanned view and syntactic model.
pub struct FileRecord {
    pub path: PathBuf,
    /// Root-relative path with forward slashes.
    pub rel: String,
    pub crate_name: String,
    pub source: String,
    pub view: SourceView,
    pub model: FileModel,
}

/// All loaded files.
pub struct Workspace {
    pub files: Vec<FileRecord>,
}

/// The result of a full lint run.
pub struct LintReport {
    pub root: PathBuf,
    pub files_checked: usize,
    pub findings: Vec<Finding>,
}

impl LintReport {
    /// Unjustified findings — these fail the run.
    pub fn errors(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.justified)
    }
    pub fn error_count(&self) -> usize {
        self.errors().count()
    }
    /// Justified (allowlisted-with-reason) findings.
    pub fn justified_count(&self) -> usize {
        self.findings.iter().filter(|f| f.justified).count()
    }
    /// Render as `xst-lint-report/1` JSON.
    pub fn to_json(&self, deny_all: bool) -> String {
        report::render(self, deny_all)
    }
}

/// Run every rule and pass over the workspace at `root`.
pub fn run_lint(root: &Path) -> std::io::Result<LintReport> {
    let files = source_files(root)?;
    let mut records = Vec::with_capacity(files.len());
    for path in &files {
        let source = std::fs::read_to_string(path)?;
        let view = SourceView::new(&source);
        let model = syntax::parse(&view);
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let crate_name = rel
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .unwrap_or("")
            .to_string();
        records.push(FileRecord {
            path: path.clone(),
            rel,
            crate_name,
            source,
            view,
            model,
        });
    }
    let ws = Workspace { files: records };

    let mut findings = Vec::new();
    // Which justification comments a pass actually consumed, as
    // (file index, justification index).
    let mut used: BTreeSet<(usize, usize)> = BTreeSet::new();
    for (fi, rec) in ws.files.iter().enumerate() {
        used.extend(token_rules(rec, &mut findings).into_iter().map(|j| (fi, j)));
    }
    locks::analyze(&ws, &mut findings, &mut used);
    faults::analyze(&ws, &mut findings, &mut used);
    proto::analyze(&ws, &mut findings);
    guards::analyze(root, &mut findings)?;
    justification_hygiene(&ws, &used, &mut findings);

    findings.sort_by(|a, b| {
        (&a.file, a.line, &a.rule)
            .cmp(&(&b.file, b.line, &b.rule))
            .then_with(|| a.message.cmp(&b.message))
    });
    Ok(LintReport {
        root: root.to_path_buf(),
        files_checked: ws.files.len(),
        findings,
    })
}

/// Justifications must name a justifiable rule, carry a reason, and be
/// used by an actual finding — a stale or vacuous exemption is an error.
fn justification_hygiene(
    ws: &Workspace,
    used: &BTreeSet<(usize, usize)>,
    findings: &mut Vec<Finding>,
) {
    for (fi, rec) in ws.files.iter().enumerate() {
        for (ji, j) in rec.view.justifications.iter().enumerate() {
            if !JUSTIFIABLE_RULES.contains(&j.rule.as_str()) {
                push_finding(
                    findings,
                    &rec.rel,
                    j.line,
                    "justification",
                    format!(
                        "`// lint: {}:` is not a justifiable rule (expected one of: {})",
                        j.rule,
                        JUSTIFIABLE_RULES.join(", ")
                    ),
                    false,
                );
            } else if j.why.len() < 10 {
                push_finding(
                    findings,
                    &rec.rel,
                    j.line,
                    "justification",
                    format!(
                        "justification for `{}` needs a real reason (got {:?})",
                        j.rule, j.why
                    ),
                    false,
                );
            } else if !used.contains(&(fi, ji)) {
                push_finding(
                    findings,
                    &rec.rel,
                    j.line,
                    "justification",
                    format!(
                        "unused justification for `{}` — the finding it excused is gone; remove the comment",
                        j.rule
                    ),
                    false,
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Token rules (ported unchanged from the PR 5 scanner).
// ---------------------------------------------------------------------

/// Crates whose non-test sources must never panic.
const NO_PANIC_CRATES: &[&str] = &["xst-storage", "xst-core", "xst-server", "xst-client"];
/// Forbidden panic tokens (checked on the comment/string-blanked view).
pub const PANIC_TOKENS: &[&str] = &[".unwrap()", ".expect(", "panic!"];

/// File-name fragments marking deterministic-replay modules.
const DETERMINISTIC_MODULES: &[&str] = &["fault", "sched", "harness", "cluster"];
/// Forbidden nondeterminism tokens, matched on word boundaries: clocks
/// and entropy, and what lets a scheduler or a network stand in for one —
/// deadlines, sleeps, threads, sockets.
const NONDETERMINISM_TOKENS: &[&str] = &[
    "Instant",
    "SystemTime",
    "rand",
    "Duration",
    "sleep",
    "spawn",
    "TcpListener",
    "TcpStream",
];

/// Where the canonical metric-name constants live.
const METRIC_NAMES_FILE: &str = "crates/xst-obs/src/names.rs";

/// Registry registration methods; a call site must pass a `names::`
/// constant as the family name.
const REGISTRATION_METHODS: &[&str] = &[".counter(", ".gauge(", ".histogram("];
/// How far back a registration method looks for its `registry()` receiver
/// and how far forward for the `names::` constant (call sites wrap).
const REGISTRATION_WINDOW: usize = 120;

/// The one relational lowering: the module whose plans stand in for the
/// kernels below.
const LOWERING_FILE: &str = "crates/xst-relational/src/algebra.rs";
/// Where a relational operator or a shell command must be a lowered plan,
/// not a kernel call.
const LOWERED_SOURCES: &[&str] = &[
    "crates/xst-relational/src/",
    "crates/xst-storage/src/engine.rs",
    "crates/xst-shell/src/",
];
/// The `xst_core::ops` kernels that have an `Expr` node — what
/// `xst-query`'s plan walker runs.
const WALKER_KERNELS: &[&str] = &[
    "union",
    "intersection",
    "difference",
    "sigma_restrict",
    "sigma_domain",
    "image",
    "relative_product",
    "cross",
    "par_union",
    "par_intersection",
    "par_sigma_restrict",
    "par_image",
    "par_relative_product",
];

fn is_word_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Slice `code` around `[start, end)`, widening to char boundaries so a
/// blanked multi-byte char can never split the window.
pub fn window(code: &str, mut start: usize, mut end: usize) -> &str {
    end = end.min(code.len());
    while start > 0 && !code.is_char_boundary(start) {
        start -= 1;
    }
    while end < code.len() && !code.is_char_boundary(end) {
        end += 1;
    }
    &code[start..end]
}

/// Find `token` in `code` on word boundaries (when `word` is set),
/// returning byte offsets.
pub fn find_token(code: &str, token: &str, word: bool) -> Vec<usize> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = code[from..].find(token) {
        let at = from + pos;
        from = at + 1;
        if word {
            let before_ok = at == 0 || !is_word_char(bytes[at - 1]);
            let end = at + token.len();
            let after_ok = end >= bytes.len() || !is_word_char(bytes[end]);
            if !(before_ok && after_ok) {
                continue;
            }
        }
        out.push(at);
    }
    out
}

/// Is this (file, token) pair on the legacy static allowlist?
pub fn allowlisted(file: &str, token: &str) -> bool {
    ALLOWLIST
        .iter()
        .any(|(suffix, t)| file.ends_with(suffix) && token == *t)
}

/// Run the five token rules over one file. Statically-allowlisted
/// findings are marked justified here; `--deny-all` re-raises them at
/// the CLI layer. Returns the indices of the file's justification
/// comments the rules consumed.
pub fn token_rules(rec: &FileRecord, out: &mut Vec<Finding>) -> Vec<usize> {
    let mut used = Vec::new();
    let view = &rec.view;
    let rel_str = &rec.rel;
    let crate_name = rec.crate_name.as_str();
    let file_name = rec
        .path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();

    if NO_PANIC_CRATES.contains(&crate_name) {
        for token in PANIC_TOKENS {
            for at in find_token(&view.code, token, false) {
                if view.in_test(at) {
                    continue;
                }
                push_finding(
                    out,
                    rel_str,
                    view.line_of(at),
                    "no-panic",
                    format!(
                        "`{token}` in non-test {crate_name} code; return a structured error instead"
                    ),
                    allowlisted(rel_str, token),
                );
            }
        }
    }

    if DETERMINISTIC_MODULES.iter().any(|m| file_name.contains(m)) {
        for token in NONDETERMINISM_TOKENS {
            for at in find_token(&view.code, token, true) {
                if view.in_test(at) {
                    continue;
                }
                let line = view.line_of(at);
                let js = view.justifications_on("determinism", &[line, line.saturating_sub(1)]);
                push_finding(
                    out,
                    rel_str,
                    line,
                    "determinism",
                    format!(
                        "`{token}` inside deterministic module `{file_name}`; deterministic \
                         replay must not read clocks or ambient entropy, wait on deadlines, \
                         or start threads and sockets"
                    ),
                    !js.is_empty() || allowlisted(rel_str, token),
                );
                used.extend(js);
            }
        }
    }

    if LOWERED_SOURCES.iter().any(|p| rel_str.starts_with(p)) {
        for at in find_token(&view.code, "ops::", false) {
            let inside_a_word = at > 0 && is_word_char(view.code.as_bytes()[at - 1]);
            if inside_a_word || view.in_test(at) {
                continue;
            }
            // `ops::name` or `ops::{a, b as c, ...}`: the names brought in.
            let rest = &view.code[at + "ops::".len()..];
            let list = match rest.strip_prefix('{') {
                Some(braced) => &braced[..braced.find('}').unwrap_or(braced.len())],
                None => {
                    let end = rest.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'));
                    &rest[..end.unwrap_or(rest.len())]
                }
            };
            for name in list
                .split(',')
                .filter_map(|item| item.split_whitespace().next())
            {
                if WALKER_KERNELS.contains(&name) {
                    push_finding(
                        out,
                        rel_str,
                        view.line_of(at),
                        "one-lowering",
                        format!(
                            "kernel `{name}` named outside the plan walker; build its \
                             `Expr` (a relational operator's in {LOWERING_FILE}) and \
                             evaluate the plan"
                        ),
                        allowlisted(rel_str, name),
                    );
                }
            }
        }
    }
    let is_names_file = rel_str == METRIC_NAMES_FILE;
    let mut seen_names: Vec<&str> = Vec::new();
    for lit in &view.strings {
        if view.in_test(lit.at) || !lit.text.starts_with("xst_") {
            continue;
        }
        if is_names_file {
            if seen_names.contains(&lit.text.as_str()) {
                push_finding(
                    out,
                    rel_str,
                    view.line_of(lit.at),
                    "metric-names",
                    format!(
                        "metric name \"{}\" is defined more than once in names.rs",
                        lit.text
                    ),
                    allowlisted(rel_str, &lit.text),
                );
            }
            seen_names.push(&lit.text);
        } else {
            push_finding(
                out,
                rel_str,
                view.line_of(lit.at),
                "metric-names",
                format!(
                    "metric-name literal \"{}\" outside {METRIC_NAMES_FILE}; \
                     use the canonical constant from xst_obs::names",
                    lit.text
                ),
                allowlisted(rel_str, &lit.text),
            );
        }
    }

    for method in REGISTRATION_METHODS {
        for at in find_token(&view.code, method, false) {
            if view.in_test(at) {
                continue;
            }
            // Only `registry().counter(...)`-shaped calls register a
            // family; a method merely named `counter` elsewhere is fine.
            // The receiver must directly precede the method (modulo the
            // whitespace rustfmt wraps with).
            let before = window(&view.code, at.saturating_sub(REGISTRATION_WINDOW), at);
            if !before.trim_end().ends_with("registry()") {
                continue;
            }
            // The family name is the first argument: scan it alone, so a
            // `names::` in the *next* statement can't vouch for this one.
            let after = window(
                &view.code,
                at + method.len(),
                at + method.len() + REGISTRATION_WINDOW,
            );
            let first_arg = &after[..after.find([',', ')']).unwrap_or(after.len())];
            if !first_arg.contains("names::") {
                push_finding(
                    out,
                    rel_str,
                    view.line_of(at),
                    "registered-metrics",
                    format!(
                        "registration `registry(){method}...)` without a `names::` constant; \
                         add the family to xst_obs::names and register through it"
                    ),
                    allowlisted(rel_str, method),
                );
            }
        }
    }
    used
}

/// Load a single file into a [`FileRecord`] (used by tests).
pub fn load_file(path: &Path, rel: &str) -> std::io::Result<FileRecord> {
    let source = std::fs::read_to_string(path)?;
    let view = SourceView::new(&source);
    let model = syntax::parse(&view);
    let crate_name = rel
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("")
        .to_string();
    Ok(FileRecord {
        path: path.to_path_buf(),
        rel: rel.to_string(),
        crate_name,
        source,
        view,
        model,
    })
}

/// Collect every `.rs` file under `crates/*/src`, skipping `xst-lint`
/// itself (its rule tables necessarily spell the forbidden tokens).
pub fn source_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    for entry in std::fs::read_dir(&crates)? {
        let dir = entry?.path();
        if dir.file_name().is_some_and(|n| n == "xst-lint") {
            continue;
        }
        let src = dir.join("src");
        if src.is_dir() {
            collect_rs(&src, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_finder_respects_word_boundaries() {
        let code = "let operand = rand::random(); branding";
        assert_eq!(find_token(code, "rand", true).len(), 1);
        assert!(find_token(code, "rand", false).len() >= 3);
    }

    #[test]
    fn panic_tokens_do_not_match_similar_identifiers() {
        // `unwrap_or_else` and a method *named* expect_char are fine; the
        // forbidden tokens are the exact call forms.
        let code = "x.unwrap_or_else(f); self.expect_char('{');";
        for t in PANIC_TOKENS {
            assert_eq!(find_token(code, t, false).len(), 0, "{t}");
        }
        assert_eq!(find_token("x.unwrap();", ".unwrap()", false).len(), 1);
        assert_eq!(find_token("x.expect(\"m\");", ".expect(", false).len(), 1);
        assert_eq!(find_token("panic!(\"m\");", "panic!", false).len(), 1);
    }

    #[test]
    fn allowlist_ships_empty() {
        assert!(ALLOWLIST.is_empty());
    }

    #[test]
    fn window_respects_char_boundaries() {
        let code = "ab⟨cd⟩ef";
        // Offsets inside the 3-byte '⟨' widen instead of panicking.
        assert_eq!(window(code, 3, 4), "⟨");
        assert_eq!(window(code, 0, 100), code);
    }

    #[test]
    fn registration_requires_names_constant() {
        let path = std::env::temp_dir().join("xst_lint_registration_check.rs");
        std::fs::write(
            &path,
            "fn bad() { let c = registry().counter(\"plain_total\", \"h\"); }\n\
             fn good() { let c = registry().counter(names::OK_TOTAL, \"h\"); }\n\
             fn wrapped() {\n    let h = registry().histogram(\n        \
             xst_obs::names::OK_NS,\n        \"h\",\n    );\n}\n\
             fn unrelated(c: &Tally) { c.counter(\"not a registration\"); }\n",
        )
        .unwrap();
        let rec = load_file(&path, "crates/xst-fake/src/fake.rs").unwrap();
        std::fs::remove_file(&path).ok();
        let mut out = Vec::new();
        token_rules(&rec, &mut out);
        let regs: Vec<_> = out
            .iter()
            .filter(|v| v.rule == "registered-metrics")
            .collect();
        assert_eq!(regs.len(), 1, "only the literal registration fires");
        assert_eq!(regs[0].line, 1);
    }
}
