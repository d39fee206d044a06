//! The whole paper, replayed through the interactive shell: every command
//! a user would type at `xst-shell`, with the printed outputs pinned.

use xst_shell::Session;

fn run(s: &mut Session, line: &str) -> String {
    s.eval_line(line)
        .unwrap_or_else(|e| panic!("'{line}' failed: {e}"))
        .unwrap_or_default()
}

#[test]
fn example_8_1_walkthrough() {
    let mut s = Session::new();
    run(&mut s, "let f = {⟨a, x⟩, ⟨b, y⟩, ⟨c, x⟩}");
    assert_eq!(run(&mut s, "apply f {⟨a⟩}"), "{⟨x⟩}");
    assert_eq!(run(&mut s, "function? f"), "true");
    // The inverse behavior (explicit τ = ⟨⟨2⟩,⟨1⟩⟩) is one-to-many.
    assert_eq!(run(&mut s, "image f {⟨x⟩} ⟨2⟩ ⟨1⟩"), "{⟨a⟩, ⟨c⟩}");
}

#[test]
fn composition_walkthrough() {
    let mut s = Session::new();
    run(&mut s, "let f = {⟨a, b⟩, ⟨c, d⟩}");
    run(&mut s, "let g = {⟨b, z⟩, ⟨d, w⟩}");
    assert_eq!(run(&mut s, "compose g f"), "{⟨a, z⟩, ⟨c, w⟩}");
    // Composition agrees with staging.
    run(&mut s, "let gf = {⟨a, z⟩, ⟨c, w⟩}");
    assert_eq!(run(&mut s, "apply gf {⟨a⟩}"), "{⟨z⟩}");
}

#[test]
fn reachability_walkthrough() {
    let mut s = Session::new();
    run(&mut s, "let edges = {⟨a, b⟩, ⟨b, c⟩, ⟨c, d⟩}");
    let tc = run(&mut s, "tc edges");
    for pair in ["⟨a, b⟩", "⟨a, c⟩", "⟨a, d⟩", "⟨b, d⟩"] {
        assert!(tc.contains(pair), "{tc} missing {pair}");
    }
}

#[test]
fn scoped_membership_walkthrough() {
    let mut s = Session::new();
    run(&mut s, "let m = {a^1, a^2, b}");
    assert_eq!(run(&mut s, "card m"), "3");
    assert_eq!(run(&mut s, "domain m {1^9}"), "∅");
    // Re-scoping a flat set of atoms projects nothing (atoms have no
    // members) — the σ-domain of atom members is empty.
    run(&mut s, "let pairs = {⟨p, q⟩}");
    assert_eq!(run(&mut s, "domain pairs ⟨2⟩"), "{⟨q⟩}");
}

#[test]
fn session_state_is_cumulative_and_error_tolerant() {
    let mut s = Session::new();
    run(&mut s, "let a = {1}");
    assert!(s.eval_line("union a missing").is_err());
    run(&mut s, "let b = {2}");
    assert_eq!(run(&mut s, "union a b"), "{1, 2}");
    let vars = run(&mut s, "vars");
    assert!(vars.contains("a = {1}") && vars.contains("b = {2}"));
}

/// `.faults on` arms the engine the local door writes through, so the
/// retries that absorb the injected faults are the store's own.
#[test]
fn faults_walkthrough() {
    let mut s = Session::new();
    run(&mut s, "let s1 = {a^1, b^2, c, d^2, e}");
    assert!(run(&mut s, ".faults on").contains("faults armed"));
    // Each autocommit is one WAL sync site and the plan fires on every
    // fifth, so the fifth put draws a fault — and is still applied.
    for _ in 0..5 {
        let put = run(&mut s, ".put s1");
        assert!(put.contains("5 rows (autocommitted"), "{put}");
    }
    run(&mut s, ".get s1 as t1");
    assert_eq!(run(&mut s, "show t1"), run(&mut s, "show s1"));
    // This engine's own count: the process-wide counter is shared.
    let shards = run(&mut s, ".shards");
    let injected = shards
        .lines()
        .find_map(|l| l.strip_prefix("faults: armed, "))
        .and_then(|rest| rest.split(' ').next()?.parse::<u64>().ok())
        .unwrap_or_else(|| panic!("no armed plan in:\n{shards}"));
    assert!(injected > 0, "{shards}");
    assert!(run(&mut s, ".faults off").contains("faults disarmed"));
}
