//! Fixture, negative half: this crate holds TWO `prepare` methods, so a
//! hint-less `s.prepare(id)` here stays ambiguous and resolves to
//! nothing — the analysis under-approximates rather than guess.

use std::fs::File;
use std::sync::Mutex;

pub struct Wire<'a>(pub &'a File);

impl Wire<'_> {
    pub fn prepare(self, _id: u64) {
        let _ = self.0.sync_all();
    }
}

pub struct Quiet;

impl Quiet {
    pub fn prepare(self, _id: u64) {}
}

pub struct Relay {
    turn: Mutex<u64>,
}

impl Relay {
    /// NEGATIVE: `s` could be either type; no edge is invented.
    pub fn unsure(&self, s: Quiet) {
        let g = self.turn.lock().unwrap();
        s.prepare(*g);
    }
}
