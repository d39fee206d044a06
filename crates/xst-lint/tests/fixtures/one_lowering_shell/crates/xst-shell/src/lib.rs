//! Seeded defect: the shell answering a bare algebra word with a kernel
//! of its own — a second evaluator beside the plan `.eval` sends, which
//! the analysis gate never sees.

use xst_core::ops::{pair_compose, sigma_restrict, transitive_closure, Parallelism};
use xst_core::ExtendedSet;

pub fn bare(word: &str, a: &ExtendedSet, b: &ExtendedSet) -> ExtendedSet {
    match word {
        "restrict" => sigma_restrict(a, b, b),
        "union" => xst_core::ops::union(a, b),
        "compose" => pair_compose(b, a),
        _ => transitive_closure(a),
    }
}

/// The one store-verb table.
pub fn verb(word: &str) -> &'static str {
    match word {
        "begin" => "Begin",
        "commit" => "Commit",
        "abort" => "Abort",
        "put" => "Put",
        "delete" => "Delete",
        "get" => "FragRead",
        "eval" => "Eval",
        "faults" => "ArmFaults",
        _ => "unknown",
    }
}

pub fn threads() -> Parallelism {
    Parallelism::available()
}
