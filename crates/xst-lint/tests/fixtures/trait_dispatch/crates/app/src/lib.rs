//! Fixture: a guard held across a generic helper whose trait-method
//! call reaches a blocking `sync_all`. `prepare` has an impl in the
//! `wire` crate too, so the name alone is ambiguous workspace-wide; the
//! call resolves to the one impl in the caller's own crate (positive).

use std::fs::File;
use std::sync::Mutex;

pub trait Step {
    fn prepare(self, id: u64);
}

pub struct Local<'a>(pub &'a File);

impl Step for Local<'_> {
    fn prepare(self, _id: u64) {
        let _ = self.0.sync_all();
    }
}

pub fn run_all<S: Step>(id: u64, steps: Vec<S>) {
    for s in steps {
        s.prepare(id);
    }
}

pub struct Engine {
    round: Mutex<u64>,
}

impl Engine {
    /// POSITIVE: the round guard is live while `run_all` flushes.
    pub fn bad(&self, f: &File) {
        let g = self.round.lock().unwrap();
        run_all(*g, vec![Local(f)]);
    }
}
