//! Seeded-defect corpus: each analysis pass must detect its fixture's
//! planted defect with the exact expected diagnostic, must stay silent
//! on the negative variant beside it, and must honor `// lint:`
//! justifications.

use std::path::PathBuf;

fn lint(fixture: &str) -> xst_lint::LintReport {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(fixture);
    xst_lint::run_lint(&root).expect("fixture workspace lints")
}

fn errors(report: &xst_lint::LintReport) -> Vec<String> {
    report.errors().map(|f| f.to_string()).collect()
}

#[test]
fn lock_cycle_fixture_reports_the_ab_ba_cycle() {
    let report = lint("lock_cycle");
    assert_eq!(
        errors(&report),
        vec![
            "crates/app/src/lib.rs:17: [lock-cycle] lock-order cycle \
             `Engine.pages -> Engine.frames -> Engine.pages`; witnesses: \
             crates/app/src/lib.rs:17: `Engine::flush` holds `Engine.pages` and calls \
             `Engine::note` which acquires `Engine.frames`; \
             crates/app/src/lib.rs:28: `Engine::audit` holds `Engine.frames` and calls \
             `Engine::touch` which acquires `Engine.pages`"
        ]
    );
    // The consistently-ordered `Ordered` pair is the negative: exactly
    // one finding total, and it never mentions those locks.
    assert_eq!(report.findings.len(), 1);
    assert!(!report.findings[0].message.contains("Ordered"));
}

#[test]
fn lock_across_io_fixture_flags_guard_across_sync_and_honors_justification() {
    let report = lint("lock_across_io");
    assert_eq!(
        errors(&report),
        vec![
            "crates/app/src/lib.rs:16: [lock-across-io] guard on `Wal.buf` \
             (acquired line 15) held across blocking `sync_all()`"
        ]
    );
    // `good` (guard dropped first) is silent; `excused` is justified.
    let justified: Vec<&xst_lint::Finding> =
        report.findings.iter().filter(|f| f.justified).collect();
    assert_eq!(justified.len(), 1);
    assert_eq!(justified[0].line, 31);
    assert_eq!(justified[0].rule, "lock-across-io");
}

#[test]
fn trait_dispatch_fixture_resolves_to_the_callers_own_crate() {
    let report = lint("trait_dispatch");
    assert_eq!(
        errors(&report),
        vec![
            "crates/app/src/lib.rs:35: [lock-across-io] guard on `Engine.round` \
             (acquired line 34) held across `run_all()` (reaches blocking \
             `sync_all()` via Local::prepare)"
        ]
    );
    // `wire` has two `prepare` methods of its own: `Relay::unsure` stays
    // unresolved and silent.
    assert_eq!(report.findings.len(), 1);
}

#[test]
fn unnumbered_io_fixture_flags_raw_write_and_honors_justification() {
    let report = lint("unnumbered_io");
    assert_eq!(
        errors(&report),
        vec![
            "crates/xst-storage/src/dev.rs:35: [unnumbered-io] `Disk::write_all` \
             touches device state (`.bytes`) without a FaultPlan site check"
        ]
    );
    // `write` claims a site (negative); `len` is justified.
    let justified: Vec<&xst_lint::Finding> =
        report.findings.iter().filter(|f| f.justified).collect();
    assert_eq!(justified.len(), 1);
    assert_eq!(justified[0].line, 42);
    assert!(justified[0].message.contains("`Disk::len`"));
}

#[test]
fn proto_dispatch_fixture_flags_the_unhandled_wire_tag() {
    let report = lint("proto_dispatch");
    assert_eq!(
        errors(&report),
        vec![
            "crates/xst-server/src/session.rs:9: [proto-dispatch] `Request::Drop` \
             is not dispatched in `Session::handle`"
        ]
    );
    // Ping, Get and Stats are dispatched — the negative.
    assert_eq!(report.findings.len(), 1);
}

#[test]
fn harness_clock_fixture_flags_deadlines_threads_and_sockets_in_a_harness() {
    let report = lint("harness_clock");
    let flagged: Vec<(usize, &str)> = report
        .errors()
        .map(|f| {
            assert_eq!(f.file, "crates/app/src/net_harness.rs", "{f}");
            assert_eq!(f.rule, "determinism", "{f}");
            let token = f
                .message
                .split('`')
                .nth(1)
                .expect("message names its token");
            (f.line, token)
        })
        .collect();
    assert_eq!(
        flagged,
        vec![
            (6, "TcpListener"),
            (9, "Duration"),
            (9, "Duration"),
            (13, "TcpListener"),
            (14, "spawn"),
            (16, "sleep"),
        ]
    );
    assert_eq!(
        report.errors().next().map(|f| f.to_string()).as_deref(),
        Some(
            "crates/app/src/net_harness.rs:6: [determinism] `TcpListener` inside deterministic \
             module `net_harness.rs`; deterministic replay must not read clocks or ambient \
             entropy, wait on deadlines, or start threads and sockets"
        )
    );
    // `lib.rs` (no harness) and the `#[cfg(test)]` module are silent; the
    // smoke deadline is justified, once per token on its line.
    let justified: Vec<&xst_lint::Finding> =
        report.findings.iter().filter(|f| f.justified).collect();
    assert_eq!(justified.len(), 2);
    assert!(justified
        .iter()
        .all(|f| f.line == 24 && f.rule == "determinism"));
    assert_eq!(report.findings.len(), 8);
}

/// The `one-lowering` token rule's message for a kernel named outside the
/// plan walker.
fn kernel(name: &str) -> String {
    format!(
        "kernel `{name}` named outside the plan walker; build its `Expr` (a relational \
         operator's in crates/xst-relational/src/algebra.rs) and evaluate the plan"
    )
}

#[test]
fn one_lowering_fixture_flags_kernels_and_a_second_identity_spec() {
    let report = lint("one_lowering");
    let at = |line: usize, what: &str| {
        format!("crates/xst-relational/src/nested.rs:{line}: [one-lowering] {what}")
    };
    assert_eq!(
        errors(&report),
        vec![
            at(5, &kernel("image")),
            at(5, &kernel("relative_product")),
            at(14, &kernel("intersection")),
            at(
                17,
                "`fn identity_spec` outside crates/xst-relational/src/algebra.rs; \
                 the identity re-scope spec is built by the one lowering"
            ),
        ]
    );
    // `Scope` and `group_by_key` have no `Expr` node, the comment names
    // nothing, and the `#[cfg(test)]` oracle may call `union`.
    assert_eq!(report.findings.len(), 4);
}

#[test]
fn one_lowering_fixture_flags_a_shell_command_run_by_a_kernel() {
    let report = lint("one_lowering_shell");
    let at = |line: usize, name: &str| {
        format!(
            "crates/xst-shell/src/lib.rs:{line}: [one-lowering] {}",
            kernel(name)
        )
    };
    assert_eq!(
        errors(&report),
        vec![at(5, "sigma_restrict"), at(11, "union")]
    );
    // `pair_compose`, `transitive_closure` and `Parallelism` have no `Expr`
    // node, and the one verb table keeps the `one-door` rows silent.
    assert_eq!(report.findings.len(), 2);
}

#[test]
fn guard_within_fixture_flags_a_pattern_outside_its_allowed_path() {
    let report = lint("guard_within");
    assert_eq!(
        errors(&report),
        vec![
            "crates/app/src/lib.rs:8: [one-partition] `fn gallop` outside \
             crates/xst-core/src/ops/boolean.rs; the exponential search of a member \
             slice is boolean::gallop",
            "tests/checksum.rs:4: [one-codec] `fn crc32` outside crates/xst-core/src/; \
             the value codec and the checksum live in crates/xst-core/src",
        ]
    );
    // `boolean.rs` itself defines `fn gallop` — the negative. The second
    // finding sits in a root integration test, which no pass models.
    assert_eq!(report.findings.len(), 2);
}

#[test]
fn guard_count_fixture_flags_a_surplus_and_a_missing_occurrence() {
    let report = lint("guard_count");
    assert_eq!(
        errors(&report),
        vec![
            "crates/xst-core/src/ops/par.rs:1: [one-partition] `crossbeam::thread::scope` \
             occurs 0 time(s) under crates/xst-core/src/ops/par.rs, want 1; par.rs spawns \
             threads in fan_out only",
            "crates/xst-shell/src/lib.rs:20: [one-door] `\"put\" =>` occurs 2 time(s) under \
             crates/xst-shell/src/, want 1; each store verb is matched once, in \
             Session::verb, whichever door answers",
        ]
    );
    // The seven verbs matched once are silent, and so is every count row
    // whose files this workspace does not have.
    assert_eq!(report.findings.len(), 2);
}

#[test]
fn one_empty_fixture_flags_an_allocating_empty_set() {
    let report = lint("one_empty");
    let message = "share a member vector through ExtendedSet::canonical, which keeps ∅ \
                   unallocated";
    assert_eq!(
        errors(&report),
        vec![
            format!(
                "crates/xst-core/src/set.rs:19: [one-empty] `Arc::new(` occurs 2 time(s) under \
                 crates/xst-core/src/set.rs, want 1; {message}"
            ),
            format!(
                "crates/xst-core/src/set.rs:24: [one-empty] `Arc::from(` occurs 1 time(s) under \
                 crates/xst-core/src/set.rs, want 0; {message}"
            ),
        ]
    );
    // The constructor's own `Arc::new(` is the negative: the surplus
    // finding points past it, at `empty`.
    assert_eq!(report.findings.len(), 2);
}

#[test]
fn two_refusals_fixture_flags_a_third_refusal_kind() {
    let report = lint("two_refusals");
    assert_eq!(
        errors(&report),
        vec![
            "crates/xst-analyze/src/analyze.rs:22: [two-refusals] `Diagnostic::error(` occurs \
             3 time(s) under crates/xst-analyze/src/, want 2; xst_query::analysis::gate passes \
             a ⊗-free plan over bound tables without analyzing it; a new refusal kind must \
             widen that shortcut's test first",
        ]
    );
    // `pub fn error(` is not a call, and the `#[cfg(test)]` call is skipped.
    assert_eq!(report.findings.len(), 1);
}

/// Roster: every analysis pass fires at least once across the corpus —
/// a pass that silently stopped matching anything cannot go unnoticed.
#[test]
fn every_pass_fires_on_the_corpus() {
    let mut rules_fired: Vec<String> = Vec::new();
    for fixture in [
        "lock_cycle",
        "lock_across_io",
        "unnumbered_io",
        "proto_dispatch",
        "harness_clock",
        "one_lowering",
        "one_lowering_shell",
        "guard_within",
        "guard_count",
        "one_empty",
        "two_refusals",
    ] {
        for f in &lint(fixture).findings {
            if !rules_fired.contains(&f.rule) {
                rules_fired.push(f.rule.clone());
            }
        }
    }
    for rule in [
        "lock-cycle",
        "lock-across-io",
        "unnumbered-io",
        "proto-dispatch",
        "determinism",
        "one-lowering",
        "one-partition",
        "one-codec",
        "one-door",
        "one-empty",
        "two-refusals",
    ] {
        assert!(
            rules_fired.iter().any(|r| r == rule),
            "pass `{rule}` never fired"
        );
    }
}

/// Justification hygiene: an exemption comment for a finding that does
/// not exist is itself an error.
#[test]
fn unused_justification_is_an_error() {
    let dir = std::env::temp_dir().join("xst_lint_unused_just/crates/app/src");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("lib.rs"),
        "// lint: lock-across-io: this excuses nothing at all\npub fn fine() {}\n",
    )
    .unwrap();
    let root = std::env::temp_dir().join("xst_lint_unused_just");
    let report = xst_lint::run_lint(&root).unwrap();
    std::fs::remove_dir_all(&root).ok();
    let errs = errors(&report);
    assert_eq!(errs.len(), 1);
    assert!(
        errs[0].contains("[justification] unused justification for `lock-across-io`"),
        "{errs:?}"
    );
}
