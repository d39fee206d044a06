//! The "one of each" guards: where two mechanisms once did the same
//! work one went, and a row here keeps the second from growing back.
//!
//! Each row is a `grep` made declarative: literal patterns, the files
//! searched, and either the one path allowed to spell them or the exact
//! number of times they occur. Rows read the *raw* source — comments and
//! strings included, as `grep` would — over every `.rs` file under
//! `crates/`, `tests/` and `vendor/`, not only the `crates/*/src` files
//! the passes model: a forked kernel in an integration test is still a
//! fork. `xst-lint` itself is skipped (this table and its fixtures spell
//! every pattern).

use crate::scan::SourceView;
use crate::{push_finding, Finding};
use std::path::Path;

/// What a row's patterns are held to across the files it searches.
enum Expect {
    /// They occur only in files under this path.
    Within(&'static str),
    /// Each occurs exactly this many times. Not checked when the search
    /// finds no file at all (a workspace without that crate).
    Count(usize),
}

/// One guard.
struct Guard {
    /// Rule name findings are reported under.
    rule: &'static str,
    /// Literal substrings, any of which is a match.
    patterns: &'static [&'static str],
    /// Root-relative path prefixes of the files searched.
    files: &'static [&'static str],
    /// Search non-test code only (outside `#[cfg(test)]` items).
    skip_tests: bool,
    /// The allowed path or expected count.
    expect: Expect,
    /// Why, and what to do instead.
    message: &'static str,
}

const SRC: &[&str] = &["crates/"];
const EVERYWHERE: &[&str] = &["crates/", "tests/", "vendor/"];

const fn only_in(
    rule: &'static str,
    patterns: &'static [&'static str],
    files: &'static [&'static str],
    path: &'static str,
    message: &'static str,
) -> Guard {
    Guard {
        rule,
        patterns,
        files,
        skip_tests: false,
        expect: Expect::Within(path),
        message,
    }
}

const fn count(
    rule: &'static str,
    patterns: &'static [&'static str],
    files: &'static [&'static str],
    n: usize,
    message: &'static str,
) -> Guard {
    Guard {
        rule,
        patterns,
        files,
        skip_tests: false,
        expect: Expect::Count(n),
        message,
    }
}

/// The table.
const GUARDS: &[Guard] = &[
    // One door: the shell's store is a `Door`, its verbs one table. It
    // holds bindings, not a disk of its own.
    count(
        "one-door",
        &[
            "ShardedTxn",
            "records_identity_to_set",
            "LoggedTable",
            "BufferPool",
        ],
        &["crates/xst-shell/src/"],
        0,
        "the shell's store is a Door: go through Request/Response",
    ),
    count(
        "one-door",
        &[
            "\"begin\" =>",
            "\"commit\" =>",
            "\"abort\" =>",
            "\"put\" =>",
            "\"delete\" =>",
            "\"get\" =>",
            "\"eval\" =>",
            "\"faults\" =>",
        ],
        &["crates/xst-shell/src/"],
        1,
        "each store verb is matched once, in Session::verb, whichever door answers",
    ),
    only_in(
        "one-door",
        &["fn route(", "fn on_shard("],
        EVERYWHERE,
        "crates/xst-storage/src/shard.rs",
        "split members by shard with xst_storage::route_members",
    ),
    // One plan walker: one xst-query file names the kernels.
    only_in(
        "one-walker",
        &[
            "par_union",
            "par_intersection",
            "par_sigma_restrict",
            "par_image",
            "par_relative_product",
            "map_parts",
            "zip_parts",
        ],
        &["crates/xst-query/src/"],
        "crates/xst-query/src/sharded.rs",
        "a second file naming a parallel kernel or a per-part driver is a forked walker",
    ),
    // One structural recursion over `Expr`, beside its definition.
    only_in(
        "one-traversal",
        &["fn children", "fn map_children"],
        &["crates/xst-query/src/"],
        "crates/xst-query/src/expr.rs",
        "recurse over a plan through Expr::children / Expr::map_children",
    ),
    // One partition shape, one ordered merge, one fan-out.
    count(
        "one-partition",
        &[
            "fn scatter_",
            "fn merge_union_range",
            "fn merge_intersection_range",
            "fn map_chunks",
        ],
        SRC,
        0,
        "use map_parts/zip_parts, boolean::merge and par::fan_out",
    ),
    only_in(
        "one-partition",
        &["fn gallop"],
        EVERYWHERE,
        "crates/xst-core/src/ops/boolean.rs",
        "the exponential search of a member slice is boolean::gallop",
    ),
    count(
        "one-partition",
        &["crossbeam::thread::scope"],
        &["crates/xst-core/src/ops/par.rs"],
        1,
        "par.rs spawns threads in fan_out only",
    ),
    // One two-phase commit, one way to declare a metric.
    count(
        "one-twopc",
        &["LoggedTable", "decision_schema"],
        &[
            "crates/xst-client/src/coord.rs",
            "crates/xst-storage/src/shard.rs",
        ],
        0,
        "the decision log's table and record layout live in crates/xst-storage/src/twopc.rs",
    ),
    only_in(
        "one-twopc",
        &["OnceLock<Arc<"],
        SRC,
        "crates/xst-obs/",
        "declare metric handles in crates/xst-obs/src/names.rs",
    ),
    // One value codec, one checksum, one protocol version.
    Guard {
        rule: "one-codec",
        patterns: &["parse_set", ".to_string()"],
        files: &["crates/xst-server/src/proto.rs"],
        skip_tests: true,
        expect: Expect::Count(0),
        message: "sets cross the wire in xst_core::codec, not as text",
    },
    only_in(
        "one-codec",
        &["fn crc32", "fn encode_value"],
        EVERYWHERE,
        "crates/xst-core/src/",
        "the value codec and the checksum live in crates/xst-core/src",
    ),
    count(
        "one-codec",
        &["MIN_PROTO_VERSION", "with_version"],
        SRC,
        0,
        "one protocol version is seated: PROTO_VERSION",
    ),
    // One empty set: `∅` is the absence of a member vector, so the only
    // allocation `set.rs` spells is the constructor that shares a non-empty
    // one.
    count(
        "one-empty",
        &["Arc::new("],
        &["crates/xst-core/src/set.rs"],
        1,
        "share a member vector through ExtendedSet::canonical, which keeps ∅ unallocated",
    ),
    count(
        "one-empty",
        &["Arc::from("],
        &["crates/xst-core/src/set.rs"],
        0,
        "share a member vector through ExtendedSet::canonical, which keeps ∅ unallocated",
    ),
    // Two refusals: the analyzer refuses an unbound table or a proven ⊗
    // collision and nothing else, and the evaluator gate relies on it.
    Guard {
        rule: "two-refusals",
        patterns: &["Diagnostic::error("],
        files: &["crates/xst-analyze/src/"],
        skip_tests: true,
        expect: Expect::Count(2),
        message: "xst_query::analysis::gate passes a ⊗-free plan over bound tables without \
                  analyzing it; a new refusal kind must widen that shortcut's test first",
    },
    // One relational lowering (its kernel half is the `one-lowering`
    // token rule).
    only_in(
        "one-lowering",
        &["fn identity_spec"],
        SRC,
        "crates/xst-relational/src/algebra.rs",
        "the identity re-scope spec is built by the one lowering",
    ),
];

/// One searched file: root-relative path and raw source.
struct Searched {
    rel: String,
    source: String,
}

/// Every `.rs` file under `crates/`, `tests/` and `vendor/`, skipping
/// `xst-lint`.
fn searched_files(root: &Path) -> std::io::Result<Vec<Searched>> {
    let mut paths = Vec::new();
    for top in ["crates", "tests", "vendor"] {
        let dir = root.join(top);
        if dir.is_dir() {
            crate::collect_rs(&dir, &mut paths)?;
        }
    }
    paths.sort();
    let mut out = Vec::new();
    for path in paths {
        let rel = path.strip_prefix(root).unwrap_or(&path);
        let rel = rel.to_string_lossy().replace('\\', "/");
        if !rel.starts_with("crates/xst-lint/") {
            let source = std::fs::read_to_string(&path)?;
            out.push(Searched { rel, source });
        }
    }
    Ok(out)
}

fn line_of(source: &str, at: usize) -> usize {
    source[..at].matches('\n').count() + 1
}

/// Check every row of the table over the workspace at `root`.
pub fn analyze(root: &Path, findings: &mut Vec<Finding>) -> std::io::Result<()> {
    let files = searched_files(root)?;
    for guard in GUARDS {
        let searched: Vec<&Searched> = files
            .iter()
            .filter(|f| guard.files.iter().any(|prefix| f.rel.starts_with(prefix)))
            .collect();
        for pattern in guard.patterns {
            // Every occurrence, as (file, byte offset), in path order.
            let mut hits: Vec<(&Searched, usize)> = Vec::new();
            for file in &searched {
                let mut at: Vec<usize> = file.source.match_indices(pattern).map(|m| m.0).collect();
                if guard.skip_tests && !at.is_empty() {
                    let view = SourceView::new(&file.source);
                    at.retain(|&at| !view.in_test(at));
                }
                hits.extend(at.into_iter().map(|at| (*file, at)));
            }
            match guard.expect {
                Expect::Within(allowed) => {
                    for (file, at) in hits.iter().filter(|(f, _)| !f.rel.starts_with(allowed)) {
                        let message = format!("`{pattern}` outside {allowed}; {}", guard.message);
                        let line = line_of(&file.source, *at);
                        push_finding(findings, &file.rel, line, guard.rule, message, false);
                    }
                }
                Expect::Count(want) if hits.len() != want && !searched.is_empty() => {
                    // Point at the surplus occurrence, or at the file that
                    // should have held the missing one.
                    let (rel, line) = match hits.get(want) {
                        Some((file, at)) => (file.rel.as_str(), line_of(&file.source, *at)),
                        None => (searched[0].rel.as_str(), 1),
                    };
                    let message = format!(
                        "`{pattern}` occurs {} time(s) under {}, want {want}; {}",
                        hits.len(),
                        guard.files.join(", "),
                        guard.message
                    );
                    push_finding(findings, rel, line, guard.rule, message, false);
                }
                Expect::Count(_) => {}
            }
        }
    }
    Ok(())
}
