//! Seeded defect: a store verb matched a second time, outside the one
//! verb table the `one-door` guard counts.

pub fn verb(word: &str) -> &'static str {
    match word {
        "begin" => "Begin",
        "commit" => "Commit",
        "abort" => "Abort",
        "put" => "Put",
        "delete" => "Delete",
        "get" => "Get",
        "eval" => "Eval",
        "faults" => "ArmFaults",
        _ => "unknown",
    }
}

pub fn remote(word: &str) -> bool {
    match word {
        "put" => true,
        _ => false,
    }
}
