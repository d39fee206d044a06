//! Deterministic workload generators shared by the experiments and
//! the `report` binary.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xst_core::{ExtendedSet, Value};
use xst_storage::{Record, Schema, Storage, Table};

/// Fixed seed: experiments are reproducible run to run.
pub const SEED: u64 = 0x5E7_1977;

/// An RNG for one experiment.
pub fn rng() -> StdRng {
    StdRng::seed_from_u64(SEED)
}

/// A `parts(id, name, qty, color)` table of `n` rows; `color` is drawn from
/// `distinct_colors` values so equality selections have selectivity
/// `1/distinct_colors`.
pub fn parts_table(storage: &Storage, n: usize, distinct_colors: usize) -> Table {
    let mut rng = rng();
    let schema = Schema::new(["id", "name", "qty", "color"]);
    let mut t = Table::create(storage, schema);
    let rows: Vec<Record> = (0..n)
        .map(|i| {
            Record::new([
                Value::Int(i as i64),
                Value::str(format!("part-{i}")),
                Value::Int(rng.gen_range(0..1000)),
                Value::Int(rng.gen_range(0..distinct_colors as i64)),
            ])
        })
        .collect();
    t.load(&rows).unwrap();
    t
}

/// A `supplies(sid, pid, qty)` table of `n` rows over `parts` part ids.
pub fn supplies_table(storage: &Storage, n: usize, parts: usize) -> Table {
    let mut rng = rng();
    let schema = Schema::new(["sid", "pid", "qty"]);
    let mut t = Table::create(storage, schema);
    let rows: Vec<Record> = (0..n)
        .map(|i| {
            Record::new([
                Value::Int(i as i64),
                Value::Int(rng.gen_range(0..parts as i64)),
                Value::Int(rng.gen_range(1..100)),
            ])
        })
        .collect();
    t.load(&rows).unwrap();
    t
}

/// A classical pair relation `{⟨i, f(i)⟩}` of `n` members mapping stage `k`
/// keys to stage `k+1` keys — chains compose end to end.
pub fn stage_relation(n: usize, stage: usize) -> ExtendedSet {
    ExtendedSet::classical((0..n).map(|i| {
        Value::Set(ExtendedSet::pair(
            Value::Int((stage * 1_000_000 + i) as i64),
            Value::Int(((stage + 1) * 1_000_000 + (i * 7 + 3) % n) as i64),
        ))
    }))
}

/// A batch of `k` singleton-tuple inputs for stage 0 of a pipeline.
pub fn stage_inputs(n: usize, k: usize) -> ExtendedSet {
    ExtendedSet::classical(
        (0..k.min(n)).map(|i| Value::Set(ExtendedSet::tuple([Value::Int(i as i64)]))),
    )
}

/// A random extended set of `n` members with scoped memberships and some
/// nesting — canonicalization fodder.
pub fn scoped_set(n: usize) -> ExtendedSet {
    let mut rng = rng();
    ExtendedSet::from_pairs((0..n).map(|_| {
        let e: i64 = rng.gen_range(0..(n as i64 * 2).max(1));
        let s: i64 = rng.gen_range(0..8);
        (Value::Int(e), Value::Int(s))
    }))
}

/// A relation of `n` classical pairs with keys in `0..keyspace`.
pub fn pair_relation(n: usize, keyspace: i64) -> ExtendedSet {
    let mut rng = rng();
    ExtendedSet::classical((0..n).map(|_| {
        Value::Set(ExtendedSet::pair(
            Value::Int(rng.gen_range(0..keyspace)),
            Value::Int(rng.gen_range(0..keyspace)),
        ))
    }))
}
