//! Differential test layer: the record engine and the lowered plan run by
//! the plan walker are two implementations of the same relational
//! semantics, and every parallel kernel is a reimplementation of its
//! sequential oracle. Random workloads must agree member-exactly in both
//! directions.

use proptest::prelude::*;
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use xst_core::ops::{
    image, image_two_pass, intersection, par_image, par_intersection, par_relative_product,
    par_sigma_restrict, par_union, relative_product, rescope_value_by_element, sigma_domain,
    sigma_restrict, sigma_restrict_naive, union, Parallelism, Scope,
};
use xst_core::{ExtendedSet, Member, Value};
use xst_query::eval_parallel;
use xst_relational::{Catalog, Query};
use xst_storage::{
    restructure_records, restructure_set, BufferPool, ColumnTable, Record, RecordEngine,
    Restructuring, Schema, SetEngine, Storage, Table,
};
use xst_testkit::{arb_pair_relation, arb_set};

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// A forced-parallel policy: every kernel fans out regardless of size.
fn forced(threads: usize) -> Parallelism {
    Parallelism::new(threads).with_threshold(1)
}

// ---------------------------------------------------------------------------
// Lowered set plans vs the record engine on random workloads.
// ---------------------------------------------------------------------------

/// Rows over a small value domain so selections hit and joins collide.
fn arb_rows(cols: usize, max_rows: usize) -> impl Strategy<Value = Vec<Vec<i64>>> {
    prop::collection::vec(prop::collection::vec(0i64..6, cols..cols + 1), 0..max_rows)
}

fn make_table(storage: &Storage, names: &[&str], rows: &[Vec<i64>]) -> Table {
    let mut t = Table::create(storage, Schema::new(names.iter().copied()));
    let records: Vec<Record> = rows
        .iter()
        .map(|r| Record::new(r.iter().map(|&v| Value::Int(v))))
        .collect();
    t.load(&records).unwrap();
    t
}

/// The tables as a catalog of relations (one canonicalizing load each).
fn catalog(tables: &[(&str, &Table)], pool: &BufferPool) -> Catalog {
    let mut catalog = Catalog::new();
    for (name, table) in tables {
        catalog.register_table(*name, table, pool).unwrap();
    }
    catalog
}

/// The set side: `q` lowered by `xst-relational` and run by the plan
/// walker, sequentially and with every kernel forced onto 4 threads.
fn lowered(q: &Query, catalog: &Catalog) -> [Vec<Record>; 2] {
    let expr = q.to_expr(catalog).unwrap();
    [Parallelism::sequential(), forced(4)].map(|par| {
        let (result, _) = eval_parallel(&expr, &catalog.bindings(), &par).unwrap();
        SetEngine::to_records(&result).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Selection: record scan ≡ lowered image, sequential and parallel.
    #[test]
    fn select_agrees(rows in arb_rows(3, 40), col in 0usize..3, key in 0i64..6) {
        let storage = Storage::new();
        let table = make_table(&storage, &["a", "b", "c"], &rows);
        let pool = BufferPool::new(storage, 16);
        let field = ["a", "b", "c"][col];
        let key = Value::Int(key);

        let from_records = RecordEngine::new(&pool).select(&table, field, &key).unwrap();
        let q = Query::from("t").select_eq(field, key);
        let [from_sets, from_par] = lowered(&q, &catalog(&[("t", &table)], &pool));
        prop_assert_eq!(&from_records, &from_sets);
        prop_assert_eq!(&from_sets, &from_par);
    }

    /// Projection onto a random non-empty column subset.
    #[test]
    fn project_agrees(rows in arb_rows(3, 40), mask in 1usize..8) {
        let storage = Storage::new();
        let table = make_table(&storage, &["a", "b", "c"], &rows);
        let pool = BufferPool::new(storage, 16);
        let fields: Vec<&str> = ["a", "b", "c"]
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, f)| *f)
            .collect();

        let from_records = RecordEngine::new(&pool).project(&table, &fields).unwrap();
        let q = Query::from("t").project(&fields);
        let [from_sets, from_par] = lowered(&q, &catalog(&[("t", &table)], &pool));
        prop_assert_eq!(&from_records, &from_sets);
        prop_assert_eq!(&from_sets, &from_par);
    }

    /// Equi-join on shared-domain columns (record nested loop vs relative
    /// product), sequential and parallel.
    #[test]
    fn join_agrees(left in arb_rows(2, 24), right in arb_rows(2, 24)) {
        let storage = Storage::new();
        let lt = make_table(&storage, &["a", "k"], &left);
        let rt = make_table(&storage, &["k2", "b"], &right);
        let pool = BufferPool::new(storage, 16);

        let from_records = RecordEngine::new(&pool).join(&lt, &rt, "k", "k2").unwrap();
        let q = Query::from("l").join("r", "k", "k2");
        let [from_sets, from_par] = lowered(&q, &catalog(&[("l", &lt), ("r", &rt)], &pool));
        prop_assert_eq!(&from_records, &from_sets);
        prop_assert_eq!(&from_sets, &from_par);
    }

    /// Boolean table ops: union/intersect/difference across both engines.
    #[test]
    fn boolean_ops_agree(a in arb_rows(2, 24), b in arb_rows(2, 24)) {
        let storage = Storage::new();
        let at = make_table(&storage, &["x", "y"], &a);
        let bt = make_table(&storage, &["x", "y"], &b);
        let pool = BufferPool::new(storage, 16);
        let rec = RecordEngine::new(&pool);
        let cat = catalog(&[("a", &at), ("b", &bt)], &pool);

        let [u_seq, u_par] = lowered(&Query::from("a").union("b"), &cat);
        let u_rec = rec.union(&at, &bt).unwrap();
        prop_assert_eq!(&u_rec, &u_seq);
        prop_assert_eq!(&u_rec, &u_par);
        let [i_seq, i_par] = lowered(&Query::from("a").intersect("b"), &cat);
        let i_rec = rec.intersect(&at, &bt).unwrap();
        prop_assert_eq!(&i_rec, &i_seq);
        prop_assert_eq!(&i_rec, &i_par);
        let [d_seq, d_par] = lowered(&Query::from("a").difference("b"), &cat);
        let d_rec = rec.difference(&at, &bt).unwrap();
        prop_assert_eq!(&d_rec, &d_seq);
        prop_assert_eq!(&d_rec, &d_par);
    }
}

// ---------------------------------------------------------------------------
// Column store vs the row path: layout must be invisible to the data.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Reconstructed column-store rows ≡ the row table's scan, and the two
    /// representations share one set identity, on random tables.
    #[test]
    fn colstore_reconstruction_agrees_with_row_path(rows in arb_rows(3, 40)) {
        let storage = Storage::new();
        let row_table = make_table(&storage, &["a", "b", "c"], &rows);
        let records: Vec<Record> = rows
            .iter()
            .map(|r| Record::new(r.iter().map(|&v| Value::Int(v))))
            .collect();
        let mut col_table = ColumnTable::create(&storage, Schema::new(["a", "b", "c"]));
        col_table.load(&records).unwrap();
        let pool = BufferPool::new(storage, 16);

        prop_assert_eq!(&col_table.reconstruct(&pool).unwrap(), &records);
        let row_identity = SetEngine::load(&row_table, &pool).unwrap();
        prop_assert_eq!(
            &col_table.identity(&pool).unwrap(),
            row_identity.identity(),
            "layout must be invisible to the identity"
        );
    }

    /// A single materialized column ≡ the row engine's projection of that
    /// field (order-insensitive: projection is a set, a column is a list).
    #[test]
    fn colstore_column_scan_agrees_with_projection(rows in arb_rows(3, 40), col in 0usize..3) {
        let storage = Storage::new();
        let row_table = make_table(&storage, &["a", "b", "c"], &rows);
        let records: Vec<Record> = rows
            .iter()
            .map(|r| Record::new(r.iter().map(|&v| Value::Int(v))))
            .collect();
        let mut col_table = ColumnTable::create(&storage, Schema::new(["a", "b", "c"]));
        col_table.load(&records).unwrap();
        let pool = BufferPool::new(storage, 16);
        let field = ["a", "b", "c"][col];

        // Row order is preserved column-wise.
        let column = col_table.read_column(&pool, field).unwrap();
        let expected: Vec<Value> = rows.iter().map(|r| Value::Int(r[col])).collect();
        prop_assert_eq!(&column, &expected);

        // And deduplicated it is exactly the set-engine projection.
        let mut distinct: Vec<Record> =
            column.into_iter().map(|v| Record::new([v])).collect();
        distinct.sort();
        distinct.dedup();
        let q = Query::from("t").project(&[field]);
        let [projected, _] = lowered(&q, &catalog(&[("t", &row_table)], &pool));
        prop_assert_eq!(&distinct, &projected);
    }

    /// Record-processing restructure ≡ σ-domain restructure on random
    /// tables and random column selections (permutes, projects, and
    /// duplicates columns).
    #[test]
    fn restructure_disciplines_agree(
        rows in arb_rows(3, 40),
        picks in prop::collection::vec(0usize..3, 1..5),
    ) {
        let storage = Storage::new();
        let table = make_table(&storage, &["a", "b", "c"], &rows);
        let pool = BufferPool::new(storage.clone(), 16);
        let columns: Vec<(String, &'static str)> = picks
            .iter()
            .enumerate()
            .map(|(j, &p)| (format!("out{j}"), ["a", "b", "c"][p]))
            .collect();
        let spec = Restructuring::new(&table.schema, columns).unwrap();

        let new_table = restructure_records(&table, &pool, &storage, &spec).unwrap();
        let mut rec_rows = new_table.file.read_all(&pool).unwrap();
        rec_rows.sort();
        rec_rows.dedup(); // the record path keeps duplicates; the set path cannot
        let engine = SetEngine::load(&table, &pool).unwrap();
        let set_rows =
            SetEngine::to_records(&restructure_set(engine.identity(), &spec)).unwrap();
        prop_assert_eq!(&rec_rows, &set_rows);
    }
}

// ---------------------------------------------------------------------------
// Parallel kernels vs their sequential oracles at 1, 2, 4, 8 threads.
// ---------------------------------------------------------------------------

/// A skewed pair — 0–4 members against 0–300, half of the few drawn from
/// the many — so every member range a parallel merge cuts is galloped.
fn arb_skewed() -> impl Strategy<Value = (ExtendedSet, ExtendedSet)> {
    let member = || (0i64..400, 0i64..3);
    (
        prop::collection::vec(member(), 0..300),
        prop::collection::vec((member(), 0usize..300, any::<bool>()), 0..5),
    )
        .prop_map(|(many, few)| {
            let scoped = |(e, s): (i64, i64)| (Value::Int(e), Value::Int(s));
            let few = few.into_iter().map(|(miss, at, hit)| match many.get(at) {
                Some(&member) if hit => member,
                _ => miss,
            });
            (
                ExtendedSet::from_pairs(few.map(scoped).collect::<Vec<_>>()),
                ExtendedSet::from_pairs(many.into_iter().map(scoped)),
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// `par_union` ≡ `union` on arbitrary (nested, scoped) extended sets,
    /// and on a skewed pair: range cuts plus a gallop inside each range.
    #[test]
    fn par_union_matches_oracle(a in arb_set(2), b in arb_set(2), (few, many) in arb_skewed()) {
        let oracle = union(&a, &b);
        let both = few.members().iter().chain(many.members()).cloned().collect();
        let skewed = ExtendedSet::from_members(both);
        for k in THREADS {
            prop_assert_eq!(&par_union(&a, &b, &forced(k)), &oracle);
            prop_assert_eq!(&par_union(&few, &many, &forced(k)), &skewed);
            prop_assert_eq!(&par_union(&many, &few, &forced(k)), &skewed);
        }
    }

    /// `par_intersection` ≡ `intersection`, both operand orders, skewed
    /// pair included.
    #[test]
    fn par_intersection_matches_oracle(a in arb_set(2), b in arb_set(2), (few, many) in arb_skewed()) {
        let oracle = intersection(&a, &b);
        let hits = few.members().iter().filter(|m| many.contains(&m.element, &m.scope));
        let skewed = ExtendedSet::from_members(hits.cloned().collect());
        for k in THREADS {
            prop_assert_eq!(&par_intersection(&a, &b, &forced(k)), &oracle);
            prop_assert_eq!(&par_intersection(&b, &a, &forced(k)), &oracle);
            prop_assert_eq!(&par_intersection(&few, &many, &forced(k)), &skewed);
            prop_assert_eq!(&par_intersection(&many, &few, &forced(k)), &skewed);
        }
    }

    /// `par_sigma_restrict` ≡ `sigma_restrict` for arbitrary σ and A.
    #[test]
    fn par_restrict_matches_oracle(r in arb_set(2), sigma in arb_set(1), a in arb_set(2)) {
        let oracle = sigma_restrict(&r, &sigma, &a);
        for k in THREADS {
            prop_assert_eq!(&par_sigma_restrict(&r, &sigma, &a, &forced(k)), &oracle);
        }
    }

    /// `par_image` ≡ `image` on random pair relations under ⟨⟨1⟩,⟨2⟩⟩.
    #[test]
    fn par_image_matches_oracle(r in arb_pair_relation(), a in arb_set(2)) {
        let scope = Scope::pairs();
        let oracle = image(&r, &a, &scope);
        for k in THREADS {
            prop_assert_eq!(&par_image(&r, &a, &scope, &forced(k)), &oracle);
        }
    }

    /// `par_relative_product` ≡ `relative_product` under §10 recipe (1).
    #[test]
    fn par_rel_product_matches_oracle(f in arb_pair_relation(), g in arb_pair_relation()) {
        let sigma = Scope::new(
            ExtendedSet::from_pairs([(Value::Int(1), Value::Int(1))]),
            ExtendedSet::from_pairs([(Value::Int(2), Value::Int(1))]),
        );
        let omega = Scope::new(
            ExtendedSet::from_pairs([(Value::Int(1), Value::Int(1))]),
            ExtendedSet::from_pairs([(Value::Int(2), Value::Int(2))]),
        );
        let oracle = relative_product(&f, &sigma, &g, &omega);
        for k in THREADS {
            prop_assert_eq!(
                &par_relative_product(&f, &sigma, &g, &omega, &forced(k)),
                &oracle
            );
        }
    }

    /// Also at a larger cardinality than `arb_set` reaches: random classical
    /// relations wide enough that every thread count gets real chunks.
    #[test]
    fn par_kernels_match_on_wide_inputs(seed in 0u32..64) {
        let n = 200 + (seed as usize) * 7;
        let r = ExtendedSet::classical((0..n).map(|i| {
            Value::Set(ExtendedSet::pair(
                Value::Int((i as i64 * 13 + seed as i64) % 97),
                Value::Int(i as i64 % 11),
            ))
        }));
        let a = ExtendedSet::classical((0..20).map(|i| {
            Value::Set(ExtendedSet::tuple([Value::Int(i as i64)]))
        }));
        let scope = Scope::pairs();
        let oracle = image(&r, &a, &scope);
        for k in THREADS {
            prop_assert_eq!(&par_image(&r, &a, &scope, &forced(k)), &oracle);
        }
    }
}

// ---------------------------------------------------------------------------
// σ-restriction probes only the positions its witnesses pin: the fast
// restriction and the fused image against Definition 7.6 taken literally.
// ---------------------------------------------------------------------------

/// A probe value: a small int (so probes hit), an atom symbol, or ∅.
fn probe_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        4 => (0i64..30).prop_map(Value::Int),
        1 => Just(Value::sym("a")),
        1 => Just(Value::empty_set()),
    ]
}

/// A scope a member sits at: a position, or ∅.
fn probe_scope() -> impl Strategy<Value = Value> {
    prop_oneof![
        3 => (1i64..4).prop_map(Value::Int),
        1 => Just(Value::empty_set()),
    ]
}

/// Candidates for `R`: elements that are atoms, ∅, or sets of one to three
/// members at positions or at ∅, each scoped by a position or ∅.
fn arb_candidates() -> impl Strategy<Value = ExtendedSet> {
    let element = prop_oneof![
        1 => probe_value(),
        3 => prop::collection::vec((probe_value(), probe_scope()), 1..4)
            .prop_map(|ms| Value::Set(ExtendedSet::from_pairs(ms))),
    ];
    prop::collection::vec((element, probe_scope()), 0..16).prop_map(ExtendedSet::from_pairs)
}

/// Witness sets of every shape: one-member sets at a position or ∅ (the
/// singleton path), two-member sets and scope-constrained members (the
/// general path), and memberless atoms and ∅ (never match).
fn arb_witnesses(count: std::ops::Range<usize>) -> impl Strategy<Value = ExtendedSet> {
    let element = prop_oneof![
        4 => (probe_value(), probe_scope())
            .prop_map(|(v, s)| Value::Set(ExtendedSet::singleton(v, s))),
        1 => prop::collection::vec((probe_value(), probe_scope()), 2..3)
            .prop_map(|ms| Value::Set(ExtendedSet::from_pairs(ms))),
        1 => probe_value(),
    ];
    let scope = prop_oneof![
        4 => Just(Value::empty_set()),
        1 => probe_value().prop_map(|v| Value::Set(ExtendedSet::singleton(v, Value::Int(1)))),
    ];
    prop::collection::vec((element, scope), count).prop_map(ExtendedSet::from_pairs)
}

/// σ specs under which the singleton witnesses carry two or more distinct
/// scopes — `{1^1, 2^2}`, the swap `{1^2, 2^1}`, a position beside ∅, three
/// positions — and the one-position `⟨1⟩` every pair restriction uses.
fn arb_pinning_sigma() -> impl Strategy<Value = ExtendedSet> {
    let spec = |pairs: &[(i64, Value)]| {
        ExtendedSet::from_pairs(pairs.iter().map(|(e, s)| (Value::Int(*e), s.clone())))
    };
    prop::sample::select(vec![
        spec(&[(1, Value::Int(1)), (2, Value::Int(2))]),
        spec(&[(1, Value::Int(2)), (2, Value::Int(1))]),
        spec(&[(1, Value::Int(1)), (2, Value::empty_set())]),
        spec(&[(1, Value::Int(1)), (2, Value::Int(2)), (3, Value::Int(3))]),
        spec(&[(1, Value::Int(1))]),
    ])
}

/// The fast restriction and fused image (sequential and forced-parallel)
/// equal the paper-literal restriction and the two-pass image.
fn assert_probes_agree(r: &ExtendedSet, sigma: &ExtendedSet, a: &ExtendedSet) {
    let oracle = sigma_restrict_naive(r, sigma, a);
    prop_assert_eq!(&sigma_restrict(r, sigma, a), &oracle);
    prop_assert_eq!(&par_sigma_restrict(r, sigma, a, &forced(4)), &oracle);
    let scope = Scope::new(sigma.clone(), ExtendedSet::tuple([2i64]));
    let image_oracle = sigma_domain(&oracle, &scope.sigma2);
    prop_assert_eq!(&image_two_pass(r, a, &scope), &image_oracle);
    prop_assert_eq!(&image(r, a, &scope), &image_oracle);
    prop_assert_eq!(&par_image(r, a, &scope, &forced(4)), &image_oracle);
}

/// The singleton-witness count up to which `σ`-restriction merge-walks
/// its witnesses and past which it hashes them: `restrict.rs`'s private
/// `WALK_MAX`, copied because the kernel exports no knob —
/// `walk_max_is_the_kernels` reads it back out of the kernel's source.
const WALK_MAX: usize = 6;

#[test]
fn walk_max_is_the_kernels() {
    let kernel = include_str!("../crates/xst-core/src/ops/restrict.rs");
    let line = format!("const WALK_MAX: usize = {WALK_MAX};");
    assert!(kernel.contains(&line), "restrict.rs no longer has `{line}`");
}

/// Does `a`'s member `element^scope` give a single-member witness with
/// no scope constraint under σ — the kind the kernel walks or hashes?
fn is_singleton_witness(element: &Value, scope: &Value, sigma: &ExtendedSet) -> bool {
    rescope_value_by_element(element, sigma).is_singleton()
        && rescope_value_by_element(scope, sigma).is_empty()
}

/// Every `(v, p)` with `v` in `0..30` and position `p` in `1..4`, shuffled.
fn arb_singleton_pool() -> impl Strategy<Value = Vec<(i64, i64)>> {
    any::<u64>().prop_map(|mut seed| {
        let mut pool: Vec<(i64, i64)> = (0..30).flat_map(|v| (1..4).map(move |p| (v, p))).collect();
        for i in (1..pool.len()).rev() {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            pool.swap(i, (seed >> 33) as usize % (i + 1));
        }
        pool
    })
}

/// Exactly `n` distinct singleton witnesses under σ — one-member sets
/// `{v^p}` drawn from `pool` in its order, keeping those σ maps to one
/// member — beside the witnesses of `extra` that are not singletons.
fn witnesses_straddling(
    sigma: &ExtendedSet,
    n: usize,
    pool: &[(i64, i64)],
    extra: &ExtendedSet,
) -> ExtendedSet {
    let singletons = pool
        .iter()
        .map(|&(v, p)| Value::Set(ExtendedSet::singleton(v, p)))
        .filter(|w| is_singleton_witness(w, &Value::empty_set(), sigma))
        .take(n)
        .map(Member::classical);
    let others = extra
        .members()
        .iter()
        .filter(|m| !is_singleton_witness(&m.element, &m.scope, sigma))
        .cloned();
    let a = ExtendedSet::from_members(singletons.chain(others).collect());
    let count = a
        .members()
        .iter()
        .filter(|m| is_singleton_witness(&m.element, &m.scope, sigma))
        .count();
    assert_eq!(count, n, "the pool holds {n} singletons under every σ here");
    a
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// `WALK_MAX` singleton witnesses, the most the kernel walks, and
    /// `WALK_MAX + 1`, the fewest it hashes, pinned at one to three
    /// scopes, beside general and memberless witnesses: both probes meet
    /// Definition 7.6 taken literally.
    #[test]
    fn restriction_agrees_either_side_of_the_walk_limit(
        r in arb_candidates(),
        sigma in arb_pinning_sigma(),
        hashed in any::<bool>(),
        pool in arb_singleton_pool(),
        extra in arb_witnesses(0..8),
    ) {
        let a = witnesses_straddling(&sigma, WALK_MAX + usize::from(hashed), &pool, &extra);
        assert_probes_agree(&r, &sigma, &a);
    }

    /// Singleton witnesses at two or more scopes: a candidate member at a
    /// pinned scope is probed, any other is not.
    #[test]
    fn restriction_agrees_when_witnesses_pin_several_positions(
        r in arb_candidates(),
        sigma in arb_pinning_sigma(),
        a in arb_witnesses(0..8),
    ) {
        assert_probes_agree(&r, &sigma, &a);
    }

    /// More singleton witnesses than the kernel walks, so every call
    /// takes the hash branch: the one-tuples `⟨0⟩ … ⟨29⟩` give 30
    /// singletons under every σ here, past `WALK_MAX` whatever the extras
    /// add.
    #[test]
    fn restriction_agrees_when_witnesses_outnumber_candidates(
        r in arb_candidates(),
        sigma in arb_pinning_sigma(),
        extra in arb_witnesses(0..24),
    ) {
        let grid = (0..30i64).map(|v| Value::Set(ExtendedSet::tuple([v])));
        let a = ExtendedSet::from_members(
            extra.members().iter().cloned().chain(grid.map(Member::classical)).collect(),
        );
        assert_probes_agree(&r, &sigma, &a);
    }
}

/// Atoms whose `==` a hash can get wrong: ±0.0, NaNs with distinct
/// payloads, infinity, and a `Sym` beside a `Str` of the same text.
fn hash_corner_atom() -> impl Strategy<Value = Value> {
    prop::sample::select(vec![
        Value::float(0.0),
        Value::float(-0.0),
        Value::float(f64::NAN),
        Value::float(-f64::NAN),
        Value::float(f64::from_bits(0x7ff8_0000_0000_0001)),
        Value::float(f64::INFINITY),
        Value::sym("a"),
        Value::str("a"),
        Value::Int(0),
    ])
}

/// Corner atoms and sets of them nested up to `depth`, their members
/// scoped by corner atoms too.
fn hash_corner_value(depth: u32) -> BoxedStrategy<Value> {
    if depth == 0 {
        return hash_corner_atom().boxed();
    }
    let inner = hash_corner_value(depth - 1);
    prop_oneof![
        1 => hash_corner_atom(),
        2 => prop::collection::vec((inner.clone(), inner), 0..3)
            .prop_map(|ms| Value::Set(ExtendedSet::from_pairs(ms))),
    ]
    .boxed()
}

/// `v` rebuilt from scratch: equal to `v`, sharing no allocation with it
/// at any depth.
fn rebuilt(v: &Value) -> Value {
    match v {
        Value::Set(s) => Value::Set(ExtendedSet::from_pairs(
            s.members()
                .iter()
                .map(|m| (rebuilt(&m.element), rebuilt(&m.scope))),
        )),
        Value::Sym(text) => Value::sym(text),
        Value::Str(text) => Value::str(text),
        other => other.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The hash probe relies on `a == b ⇒ hash(a) == hash(b)` for
    /// `Value`: over ±0.0, NaN payloads, `Sym` vs `Str` of one text, and
    /// nested sets that share their members against equal sets rebuilt
    /// apart — alone, and side by side in one pair.
    #[test]
    fn equal_values_hash_alike(a in hash_corner_value(2), b in hash_corner_value(2)) {
        let state = RandomState::new();
        let apart = rebuilt(&a);
        prop_assert_eq!(&apart, &a);
        let shared_first = Value::Set(ExtendedSet::pair(a.clone(), apart.clone()));
        let apart_first = Value::Set(ExtendedSet::pair(apart.clone(), a.clone()));
        for (x, y) in [(&a, &apart), (&shared_first, &apart_first), (&a, &b)] {
            if x == y {
                prop_assert_eq!(state.hash_one(x), state.hash_one(y));
            }
        }
    }

    /// Keys at position 1 of `R`, witnessed by the same keys rebuilt
    /// apart, past the walk limit: the hash probe finds every one.
    #[test]
    fn restriction_finds_witnesses_built_apart(
        keys in prop::collection::vec(hash_corner_value(2), 1..24),
    ) {
        let sigma = ExtendedSet::tuple([1i64]);
        let r = ExtendedSet::classical(keys.iter().enumerate().map(|(i, k)| {
            Value::Set(ExtendedSet::pair(k.clone(), Value::Int(i as i64)))
        }));
        // One-tuples at keys no candidate holds, so the count passes the
        // walk limit whatever the keys collapse to.
        let filler = (0..=WALK_MAX as i64).map(|j| Value::Int(100 + j));
        let a = ExtendedSet::classical(
            keys.iter()
                .map(rebuilt)
                .chain(filler)
                .map(|k| Value::Set(ExtendedSet::tuple([k]))),
        );
        prop_assert_eq!(&sigma_restrict(&r, &sigma, &a), &r);
        assert_probes_agree(&r, &sigma, &a);
    }
}

// ---------------------------------------------------------------------------
// Cross-process sharding: routing invariants. The member-hash router is
// the contract both deployments (in-process ShardedEngine, wire
// Coordinator) share — it must be a pure function of member identity,
// partition without loss or duplication, and be invisible to query
// results at any shard count.
// ---------------------------------------------------------------------------

mod routing {
    use proptest::prelude::*;
    use xst_core::ops::{gather, Parallelism};
    use xst_core::{codec, ExtendedSet, SetBuilder, Value};
    use xst_query::{eval_parallel, eval_sharded, merge_bindings, Expr, ShardedBindings};
    use xst_storage::{route_members, shard_of, Record};
    use xst_testkit::arb_set;

    const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

    /// A set's members as routing-key records (`[element, scope]` —
    /// the wire layout every served table uses).
    fn member_records(set: &ExtendedSet) -> Vec<Record> {
        set.members()
            .iter()
            .map(|m| Record::new([m.element.clone(), m.scope.clone()]))
            .collect()
    }

    /// A small random plan over two bound tables (subset-producing and
    /// member-transforming operators both appear, so the sharded
    /// evaluator exercises aligned and fallback lowerings).
    fn plan(shape: u8) -> Expr {
        let ta = || Expr::table("ta");
        let tb = || Expr::table("tb");
        match shape % 6 {
            0 => ta().union(tb()),
            1 => ta().intersect(tb()),
            2 => ta().difference(tb()),
            3 => ta().union(tb()).intersect(ta()),
            4 => ta().difference(tb()).union(tb().difference(ta())),
            _ => ta().intersect(ta().union(tb())),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// `shard_of` is a pure function of the member's bit-exact
        /// codec identity: a record surviving an encode/decode
        /// round-trip routes to the same shard at every shard count.
        #[test]
        fn shard_of_stable_across_codec_round_trip(set in arb_set(2)) {
            for rec in member_records(&set) {
                let bytes = codec::encode_to_vec(&Value::Set(rec.to_tuple()));
                let decoded = codec::decode_exact(&bytes).expect("codec round-trip");
                let Value::Set(tuple) = decoded else {
                    panic!("record tuple must decode as a set");
                };
                let vals = tuple.as_tuple().expect("tuple layout survives");
                let rebuilt = Record::new(vals);
                for shards in SHARD_COUNTS {
                    prop_assert_eq!(
                        shard_of(&rec, shards),
                        shard_of(&rebuilt, shards),
                        "routing must survive the codec round-trip"
                    );
                }
                prop_assert_eq!(shard_of(&rec, 1), 0, "one shard takes everything");
            }
        }

        /// Routing partitions exactly: no member lost, none duplicated,
        /// none misrouted, and the gather of the fragments is the set.
        #[test]
        fn fragments_partition_without_loss_or_duplication(set in arb_set(2)) {
            for shards in SHARD_COUNTS {
                let frags = route_members(&set, shards);
                prop_assert_eq!(frags.len(), shards);
                let total: usize = frags.iter().map(ExtendedSet::card).sum();
                prop_assert_eq!(total, set.card(), "no duplicates, no losses");
                for (i, frag) in frags.iter().enumerate() {
                    for m in frag.members() {
                        let rec = Record::new([m.element.clone(), m.scope.clone()]);
                        prop_assert_eq!(
                            shard_of(&rec, shards), i,
                            "member on shard {} routes elsewhere", i
                        );
                    }
                }
                prop_assert_eq!(&gather(&frags), &set, "gather must rebuild the set");
            }
        }

        /// Gather-of-fragments ≡ whole-set evaluation for arbitrary
        /// plans at 1/2/4 shards: the partition is invisible to every
        /// query result.
        #[test]
        fn sharded_eval_matches_whole_eval(
            a in arb_set(2),
            b in arb_set(2),
            shape in 0u8..6,
        ) {
            let expr = plan(shape);
            for shards in SHARD_COUNTS {
                let mut sharded = ShardedBindings::new();
                sharded.insert("ta".to_string(), route_members(&a, shards));
                sharded.insert("tb".to_string(), route_members(&b, shards));
                let whole = merge_bindings(&sharded);
                let (scattered, _) =
                    eval_sharded(&expr, &sharded, &Parallelism::sequential())
                        .expect("sharded eval");
                let (gathered, _) =
                    eval_parallel(&expr, &whole, &Parallelism::sequential())
                        .expect("whole eval");
                prop_assert_eq!(
                    &scattered, &gathered,
                    "shard count {} must be invisible to plan {}", shards, shape
                );
            }
        }
    }

    /// The cross-process path: the same invariants over real TCP.
    /// A wire coordinator scatters a tricky set across two shard
    /// servers; per-shard fragment reads must show exact, disjoint,
    /// correctly-routed fragments, and coordinator reads/evals must
    /// equal the in-process expectation.
    #[test]
    fn cross_process_routing_matches_in_process() {
        use std::time::Duration;
        use xst_client::coord::Coordinator;
        use xst_client::Client;
        use xst_testkit::cluster::start_shard_servers;

        let set = {
            let mut b = SetBuilder::new();
            for i in 0..24i64 {
                b.scoped(Value::Int(i), Value::Int(i % 3));
            }
            b.scoped(
                Value::Set(ExtendedSet::pair(Value::Int(7), Value::Int(9))),
                Value::Int(5),
            );
            b.build()
        };
        const SHARDS: usize = 2;
        let cluster = start_shard_servers(SHARDS);
        let mut coord = Coordinator::connect(&cluster.addrs, Some(Duration::from_secs(5)))
            .expect("connect coordinator");
        coord.put("r", &set).expect("scatter put");

        // Whole-set read and trivial eval both rebuild the set.
        assert_eq!(coord.get("r").expect("gather read"), set);
        let expr = Expr::table("r").union(Expr::table("r"));
        assert_eq!(coord.eval(&expr).expect("wire eval"), set);

        // Per-shard fragments: disjoint, complete, correctly routed.
        let mut frags = Vec::new();
        for (i, addr) in cluster.addrs.iter().enumerate() {
            let mut c = Client::connect(addr, "frag-probe").expect("connect shard");
            let frag = c.frag_read("r").expect("frag read");
            for m in frag.members() {
                let rec = Record::new([m.element.clone(), m.scope.clone()]);
                assert_eq!(
                    shard_of(&rec, SHARDS),
                    i,
                    "member {m:?} served by shard {i} but routes elsewhere"
                );
            }
            frags.push(frag);
        }
        let total: usize = frags.iter().map(ExtendedSet::card).sum();
        assert_eq!(total, set.card(), "no duplicates across shards");
        assert_eq!(gather(&frags), set, "fragments gather to the set");
        assert_eq!(
            frags,
            route_members(&set, SHARDS),
            "wire routing ≡ local routing"
        );
    }

    /// The coordinator's cut against the in-process engine: a
    /// `Coordinator` over two `Session` doors answers plans it ships
    /// (`t ∩ L`, `(t ∪ u) ∖ L`) and plans it reads by fragments (`L ∖ t`,
    /// `t |_σ w`) exactly as a 2-shard `ShardedEngine` does — outside a
    /// transaction, and inside one after its own uncommitted writes.
    #[test]
    fn routing_shipped_subplans_match_the_in_process_engine() {
        use std::sync::Arc;
        use xst_client::coord::Coordinator;
        use xst_core::xtuple;
        use xst_server::{
            member_schema, records_identity_to_set, set_to_records, ServedEngine, Session,
        };
        use xst_storage::ShardedEngine;

        const SHARDS: usize = 2;
        let members = |pairs: std::ops::Range<i64>, scoped: std::ops::Range<i64>| {
            let mut b = SetBuilder::new();
            for i in pairs {
                b.classical_elem(Value::Set(ExtendedSet::pair(i % 13, i % 7)));
            }
            for i in scoped {
                b.scoped(Value::Int(i), Value::Int(i % 3));
            }
            b.build()
        };
        let tables = [
            ("t", members(0..60, 0..12)),
            ("u", members(40..90, 6..20)),
            ("w", members(0..5, 0..0)),
        ];
        let (put, delete) = (members(90..99, 30..34), members(0..10, 0..4));
        // Members of `t`, of `u` only, of neither, and some the
        // transaction below puts and deletes.
        let literal = [members(94..96, 31..32), members(3..5, 2..3)]
            .iter()
            .fold(members(50..70, 8..24), |l, m| xst_core::ops::union(&l, m));
        let plans = [
            Expr::table("t").intersect(Expr::lit(literal.clone())),
            Expr::lit(literal.clone()).difference(Expr::table("t")),
            Expr::table("t")
                .union(Expr::table("u"))
                .difference(Expr::lit(literal.clone())),
            Expr::table("t").restrict(xtuple![1], Expr::table("w")),
        ];

        let engine = ShardedEngine::with_shards(SHARDS);
        let shard = || Session::new(Arc::new(ServedEngine::new()));
        let mut coord = Coordinator::over((0..SHARDS).map(|_| shard()).collect());
        for (name, set) in &tables {
            engine.create_table(name, member_schema()).expect("create");
            engine
                .autocommit_insert(name, &set_to_records(set))
                .expect("load in process");
            coord.put(name, set).expect("load through the coordinator");
        }
        // The engine's answer: its fragments, read as member sets, walked.
        let in_process = |plan: &Expr, read: &mut dyn FnMut(&str) -> Vec<ExtendedSet>| {
            let bindings: ShardedBindings = (plan.tables().into_iter())
                .map(|name| {
                    let frags = read(name).into_iter().map(|f| records_identity_to_set(&f));
                    (name.to_string(), frags.collect::<Result<_, _>>().unwrap())
                })
                .collect();
            eval_sharded(plan, &bindings, &Parallelism::sequential())
                .expect("in-process eval")
                .0
        };

        for plan in &plans {
            let want = in_process(plan, &mut |name| engine.latest_fragments(name).unwrap());
            assert!(!want.is_empty(), "vacuous: {plan}");
            assert_eq!(coord.eval(plan).expect("cluster eval"), want, "{plan}");
        }

        let mut txn = engine.begin();
        coord.begin().expect("begin");
        for rec in set_to_records(&put) {
            txn.insert("t", rec).expect("insert");
        }
        for rec in set_to_records(&delete) {
            txn.delete("t", rec).expect("delete");
        }
        coord.put("t", &put).expect("put in the transaction");
        coord
            .delete("t", &delete)
            .expect("delete in the transaction");
        for plan in &plans {
            let want = in_process(plan, &mut |name| txn.read_fragments(name).unwrap());
            let outside = in_process(plan, &mut |name| engine.latest_fragments(name).unwrap());
            assert_ne!(want, outside, "the writes must show: {plan}");
            assert_eq!(coord.eval(plan).expect("eval in the txn"), want, "{plan}");
        }
        txn.abort();
        coord.abort().expect("abort");
    }
}
