//! Seeded input generation. The program under test sees only the sets
//! and plans built here; the same `--seed` gives the same inputs.

use std::collections::VecDeque;
use xst_core::{ExtendedSet, Value};

/// splitmix64 (Steele, Lea & Flood): one add and three xor-shift-multiply
/// rounds per output — enough for workload keys, and no `vendor/` crate.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias at these sizes is < 2⁻⁴⁰).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

const KEY_BITS: u32 = 30;

/// The seed's member-key sequence: `key(i)` for `i = 0, 1, 2, …` never
/// repeats (an odd multiplier and an xor mask are both bijections on 30
/// bits) and lands all over the key space, so a new member's place in a
/// table's canonical order is unrelated to its age.
#[derive(Clone, Copy)]
pub struct Keys {
    mul: u64,
    mask: u64,
}

impl Keys {
    pub fn new(rng: &mut SplitMix64) -> Keys {
        Keys {
            mul: rng.next_u64() | 1,
            mask: rng.next_u64(),
        }
    }

    pub fn key(&self, i: u64) -> i64 {
        assert!(i < 1 << KEY_BITS, "key sequence exhausted");
        ((i.wrapping_mul(self.mul) ^ self.mask) & ((1 << KEY_BITS) - 1)) as i64
    }
}

/// A classical set of integer members — what a client `put`s.
pub fn members(keys: impl IntoIterator<Item = i64>) -> ExtendedSet {
    ExtendedSet::classical(keys.into_iter().map(Value::Int))
}

/// The same members as a served table stores them: one `⟨element, scope⟩`
/// row tuple each. This is the identity `Eval` sees for a table, built
/// here independently of the server so it can serve as the oracle's copy.
pub fn rows(keys: impl IntoIterator<Item = i64>) -> ExtendedSet {
    ExtendedSet::classical(keys.into_iter().map(|k| {
        Value::Set(ExtendedSet::tuple([
            Value::Int(k),
            Value::classical_scope(),
        ]))
    }))
}

/// `count` distinct picks from `0..n`, in draw order.
pub fn distinct_below(rng: &mut SplitMix64, n: u64, count: usize) -> Vec<u64> {
    assert!(count as u64 <= n);
    let mut picks: Vec<u64> = Vec::with_capacity(count);
    while picks.len() < count {
        let p = rng.below(n);
        if !picks.contains(&p) {
            picks.push(p);
        }
    }
    picks
}

/// Rows a commit transaction puts, and deletes.
pub const TXN_ROWS: usize = 8;

/// The generator's model of a table under the commit workloads: a window
/// of live key indices that slides by [`TXN_ROWS`] per transaction, so the
/// table's size stays constant while versions accumulate underneath.
pub struct Window {
    keys: Keys,
    live: VecDeque<u64>,
    next: u64,
}

impl Window {
    pub fn new(keys: Keys, size: u64) -> Window {
        Window {
            keys,
            live: (0..size).collect(),
            next: size,
        }
    }

    /// The keys of the next transaction: `(put, delete)` — fresh keys in,
    /// the oldest out. The model moves now; callers treat a failed commit
    /// as a failed op, and the final table check would expose it.
    pub fn slide(&mut self) -> (Vec<i64>, Vec<i64>) {
        let put: Vec<i64> = (0..TXN_ROWS as u64)
            .map(|j| self.keys.key(self.next + j))
            .collect();
        self.live.extend(self.next..self.next + TXN_ROWS as u64);
        self.next += TXN_ROWS as u64;
        let delete = self
            .live
            .drain(..TXN_ROWS)
            .map(|i| self.keys.key(i))
            .collect();
        (put, delete)
    }

    /// `count` distinct seeded keys among those live since before the
    /// latest transaction.
    pub fn pick_settled(&self, rng: &mut SplitMix64, count: usize) -> Vec<i64> {
        distinct_below(rng, (self.live.len() - TXN_ROWS) as u64, count)
            .into_iter()
            .map(|p| self.keys.key(self.live[p as usize]))
            .collect()
    }

    /// Every live key — the table the model expects.
    pub fn live_keys(&self) -> impl Iterator<Item = i64> + '_ {
        self.live.iter().map(|&i| self.keys.key(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn same_seed_same_inputs_and_keys_never_repeat() {
        let (mut a, mut b) = (SplitMix64::new(1977), SplitMix64::new(1977));
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(SplitMix64::new(1).next_u64(), SplitMix64::new(2).next_u64());
        let keys = Keys::new(&mut a);
        let seen: BTreeSet<i64> = (0..50_000).map(|i| keys.key(i)).collect();
        assert_eq!(seen.len(), 50_000);
    }

    #[test]
    fn window_slides_at_constant_size() {
        let mut rng = SplitMix64::new(7);
        let keys = Keys::new(&mut rng);
        let mut w = Window::new(keys, 100);
        let before: BTreeSet<i64> = w.live_keys().collect();
        let (put, delete) = w.slide();
        let after: BTreeSet<i64> = w.live_keys().collect();
        assert_eq!(after.len(), 100);
        assert!(put.iter().all(|k| after.contains(k) && !before.contains(k)));
        assert!(delete
            .iter()
            .all(|k| before.contains(k) && !after.contains(k)));
        let picks = w.pick_settled(&mut rng, 16);
        assert_eq!(picks.iter().collect::<BTreeSet<_>>().len(), 16);
        assert!(picks.iter().all(|k| after.contains(k) && !put.contains(k)));
    }
}
