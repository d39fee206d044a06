//! Stress and adversarial-shape tests: deep nesting, wide sets, long
//! pipelines, and bulk storage — the "repro ≤ 4 because nested
//! heterogeneous sets are awkward with ownership" risk, exercised hard.

use xst_core::ops::{image, sigma_domain, transitive_closure, union, Scope};
use xst_core::parse::parse_set;
use xst_core::{ExtendedSet, Process, Value};
use xst_relational::{algebra, RelSchema, Relation};
use xst_storage::{BufferPool, Record, Schema, SetEngine, Storage, Table, Wal};

/// Build a tower: s0 = ∅, s_{k+1} = { s_k ^ s_k } — both element *and*
/// scope nest.
fn tower(depth: usize) -> Value {
    let mut v = Value::empty_set();
    for _ in 0..depth {
        v = Value::Set(ExtendedSet::singleton(v.clone(), v));
    }
    v
}

#[test]
fn deep_nesting_is_cheap_to_build_clone_and_compare() {
    // Structural comparison of *independently built* towers doubles work
    // per level (element and scope both nest), so keep that at a depth
    // where 2^d is trivial...
    let a = tower(16);
    let b = tower(16);
    assert_eq!(a, b);
    assert_ne!(a, tower(15));
    assert_eq!(a.depth(), 17); // tower(0) = ∅ is itself depth 1
                               // ...while *shared* spines compare in O(1) via the Arc fast path even
                               // at depths where structural comparison would take 2^500 steps.
    let deep = tower(500);
    let clone = deep.clone();
    assert_eq!(clone, deep);
}

#[test]
fn deep_nesting_roundtrips_through_display_and_codec() {
    // Keep display depth moderate (string size grows with depth).
    let v = tower(12);
    let text = v.to_string();
    assert_eq!(xst_core::parse::parse_value(&text).unwrap(), v);
    let bytes = xst_core::codec::encode_to_vec(&v);
    assert_eq!(xst_core::codec::decode_exact(&bytes).unwrap(), v);
}

#[test]
fn wide_sets_canonicalize_and_merge() {
    let n = 200_000i64;
    let a = ExtendedSet::classical((0..n).map(Value::Int));
    let b = ExtendedSet::classical((n / 2..n + n / 2).map(Value::Int));
    let u = union(&a, &b);
    assert_eq!(u.card(), (2 * n - n / 2) as usize);
    assert!(a.is_subset(&u));
    assert!(b.is_subset(&u));
    // Membership stays logarithmic — spot-check a few probes.
    for probe in [0, n / 2, n - 1, n + n / 2 - 1] {
        assert!(u.contains_classical(&Value::Int(probe)));
    }
    assert!(!u.contains_classical(&Value::Int(-1)));
}

#[test]
fn long_composition_chains_stay_correct() {
    // 32 single-step relations i ↦ i+1; the composed behavior adds 32.
    let stages: Vec<Process> = (0..32)
        .map(|k| {
            Process::pairs(ExtendedSet::classical((0..64).map(|i| {
                Value::Set(ExtendedSet::pair(
                    Value::Int(k * 100 + i),
                    Value::Int((k + 1) * 100 + i),
                ))
            })))
        })
        .collect();
    let mut composed = stages[0].clone();
    for s in &stages[1..] {
        composed = Process::compose(s, &composed).unwrap();
    }
    let input = ExtendedSet::classical([Value::Set(ExtendedSet::tuple([Value::Int(7)]))]);
    let out = composed.apply(&input);
    assert_eq!(
        out,
        ExtendedSet::classical([Value::Set(ExtendedSet::tuple([Value::Int(3207)]))])
    );
    // And matches the step-by-step evaluation.
    let mut x = input;
    for s in &stages {
        x = s.apply(&x);
    }
    assert_eq!(out, x);
}

#[test]
fn closure_on_a_large_random_graph_terminates() {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let edges = ExtendedSet::classical((0..400).map(|_| {
        Value::Set(ExtendedSet::pair(
            Value::Int(rng.gen_range(0..60)),
            Value::Int(rng.gen_range(0..60)),
        ))
    }));
    let tc = transitive_closure(&edges);
    assert!(edges.is_subset(&tc));
    assert!(tc.card() <= 60 * 60, "bounded by the full square");
    // Idempotent even on dense graphs.
    assert_eq!(transitive_closure(&tc), tc);
}

#[test]
fn image_over_a_large_heterogeneous_relation() {
    // Mix pair tuples, triples, atoms, and scoped members in one carrier.
    let mut members = Vec::new();
    for i in 0..5_000i64 {
        members.push(Value::Set(ExtendedSet::pair(
            Value::Int(i),
            Value::Int(i * 2),
        )));
    }
    for i in 0..500i64 {
        members.push(Value::Set(ExtendedSet::tuple([
            Value::Int(i),
            Value::sym("mid"),
            Value::Int(i * 3),
        ])));
    }
    members.push(Value::sym("stray-atom"));
    let r = ExtendedSet::classical(members);
    let witness = ExtendedSet::classical([Value::Set(ExtendedSet::tuple([Value::Int(250)]))]);
    let out = image(&r, &witness, &Scope::pairs());
    // Pair ⟨250,500⟩ and triple ⟨250,mid,750⟩ both match on position 1;
    // σ2 = ⟨2⟩ projects their second components.
    assert_eq!(out.to_string(), "{⟨500⟩, ⟨mid⟩}");
}

#[test]
fn parser_survives_large_inputs() {
    let big = ExtendedSet::classical((0..2_000).map(Value::Int));
    let text = big.to_string();
    assert!(text.len() > 8_000);
    assert_eq!(parse_set(&text).unwrap(), big);
}

#[test]
fn bulk_storage_identity_for_100k_records() {
    let storage = Storage::new();
    let mut t = Table::create(&storage, Schema::new(["id", "blob"]));
    let rows: Vec<Record> = (0..100_000i64)
        .map(|i| Record::new([Value::Int(i), Value::bytes(i.to_le_bytes())]))
        .collect();
    t.load(&rows).unwrap();
    let pool = BufferPool::new(storage, 16);
    let engine = SetEngine::load(&t, &pool).unwrap();
    assert_eq!(engine.identity().card(), 100_000);
    let schema = RelSchema::new(["id", "blob"]).unwrap();
    let rel = Relation::from_identity(schema, engine.identity().clone()).unwrap();
    let hit = algebra::select_eq(&rel, "id", &Value::Int(99_999)).unwrap();
    assert_eq!(hit.len(), 1);
}

#[test]
fn wal_replay_of_many_records() {
    let storage = Storage::new();
    let wal = Wal::new();
    let schema = Schema::new(["id"]);
    let mut t = xst_storage::LoggedTable::create(&storage, schema.clone(), wal.clone());
    for i in 0..10_000i64 {
        t.append(&Record::new([Value::Int(i)])).unwrap();
    }
    drop(t); // crash
    let recovered = xst_storage::LoggedTable::recover(&storage, schema, wal).unwrap();
    let pool = BufferPool::new(storage, 8);
    assert_eq!(recovered.table.file.read_all(&pool).unwrap().len(), 10_000);
}

#[test]
fn domain_projection_of_deeply_scoped_members() {
    // Members whose scopes are themselves towers: σ-domain must project
    // scopes recursively without blowing up.
    let deep_scope = tower(30);
    let r =
        ExtendedSet::from_pairs([(Value::Set(ExtendedSet::pair("a", "b")), deep_scope.clone())]);
    let d = sigma_domain(&r, &ExtendedSet::tuple([1i64]));
    assert_eq!(d.card(), 1);
    // The deep scope projects to ∅ (its members are not tuple-positioned),
    // leaving ⟨a⟩^∅.
    let (e, s) = d
        .iter()
        .next()
        .map(|(e, s)| (e.clone(), s.clone()))
        .unwrap();
    assert_eq!(e.to_string(), "⟨a⟩");
    assert!(s.is_empty_set());
}
