//! End-to-end integration across the whole stack: storage → identities →
//! engines → relational algebra → query optimizer. The 1977 pitch is that
//! one mathematical model covers all of these layers; these tests hold the
//! layers against each other.

use proptest::prelude::*;
use xst_core::Value;
use xst_query::{eval, Optimizer};
use xst_relational::{algebra, Catalog, Query, RelSchema, Relation};
use xst_storage::{
    restructure_records, restructure_set, BufferPool, Index, Record, RecordEngine, Restructuring,
    Schema, SetEngine, Storage, Table,
};

fn sample_db() -> (Storage, Table, Table) {
    let storage = Storage::new();
    let mut users = Table::create(&storage, Schema::new(["uid", "name", "dept"]));
    users
        .load(&[
            Record::new([Value::Int(1), Value::str("ann"), Value::sym("eng")]),
            Record::new([Value::Int(2), Value::str("bo"), Value::sym("ops")]),
            Record::new([Value::Int(3), Value::str("cy"), Value::sym("eng")]),
            Record::new([Value::Int(4), Value::str("di"), Value::sym("hr")]),
        ])
        .unwrap();
    let mut tickets = Table::create(&storage, Schema::new(["tid", "uid", "sev"]));
    tickets
        .load(&[
            Record::new([Value::Int(100), Value::Int(1), Value::Int(2)]),
            Record::new([Value::Int(101), Value::Int(1), Value::Int(1)]),
            Record::new([Value::Int(102), Value::Int(3), Value::Int(3)]),
            Record::new([Value::Int(103), Value::Int(9), Value::Int(1)]),
        ])
        .unwrap();
    (storage, users, tickets)
}

#[test]
fn storage_to_relational_to_query_pipeline() {
    let (storage, users, tickets) = sample_db();
    let pool = BufferPool::new(storage, 16);
    let mut catalog = Catalog::new();
    catalog.register_table("users", &users, &pool).unwrap();
    catalog.register_table("tickets", &tickets, &pool).unwrap();

    // Names of engineers with a severity-3 ticket.
    let q = Query::from("users")
        .select_eq("dept", Value::sym("eng"))
        .join("tickets", "uid", "uid")
        .select_eq("sev", Value::Int(3))
        .project(&["name"]);
    let result = q.run(&catalog).unwrap();
    assert_eq!(result.len(), 1);
    assert!(result.contains_row(&[Value::str("cy")]));

    // The compiled expression evaluates to the same identity, optimized or
    // not.
    let expr = q.to_expr(&catalog).unwrap();
    let bindings = catalog.bindings();
    let raw = eval(&expr, &bindings).unwrap();
    let (optimized, _) = Optimizer::new().optimize(&expr);
    let opt = eval(&optimized, &bindings).unwrap();
    assert_eq!(raw, opt);
    assert_eq!(&raw, result.identity());
}

/// The set side of an engine comparison: `q` lowered and run by the plan
/// walker, as sorted records.
fn run_records(q: Query, catalog: &Catalog) -> Vec<Record> {
    SetEngine::to_records(q.run(catalog).unwrap().identity()).unwrap()
}

#[test]
fn engines_agree_end_to_end() {
    let (storage, users, tickets) = sample_db();
    let pool = BufferPool::new(storage, 16);
    let rec = RecordEngine::new(&pool);
    let mut catalog = Catalog::new();
    catalog.register_table("users", &users, &pool).unwrap();
    catalog.register_table("tickets", &tickets, &pool).unwrap();

    // Selection.
    assert_eq!(
        rec.select(&users, "dept", &Value::sym("eng")).unwrap(),
        run_records(
            Query::from("users").select_eq("dept", Value::sym("eng")),
            &catalog
        )
    );
    // Projection.
    assert_eq!(
        rec.project(&users, &["dept"]).unwrap(),
        run_records(Query::from("users").project(&["dept"]), &catalog)
    );
    // Join.
    assert_eq!(
        rec.join(&users, &tickets, "uid", "uid").unwrap(),
        run_records(Query::from("users").join("tickets", "uid", "uid"), &catalog)
    );
}

#[test]
fn index_pushdown_reads_fewer_pages_than_scan() {
    // Large file, selective predicate: the index-driven plan touches a
    // fraction of the pages (experiment E3's shape).
    let storage = Storage::new();
    let mut table = Table::create(&storage, Schema::new(["id", "payload"]));
    let records: Vec<Record> = (0..20_000)
        .map(|i| Record::new([Value::Int(i), Value::str(format!("row-{i}"))]))
        .collect();
    table.load(&records).unwrap();
    let pool = BufferPool::new(storage, 4);

    let index = Index::build(&table.file, &pool, 0).unwrap();

    // Full-scan cost.
    pool.clear();
    pool.reset_stats();
    let mut scan_hits = 0;
    table
        .file
        .scan(&pool, |_, r| {
            if r.get(0) == Some(&Value::Int(12_345)) {
                scan_hits += 1;
            }
            Ok(())
        })
        .unwrap();
    let scan_reads = pool.stats().disk_reads;

    // Index-driven cost.
    pool.clear();
    pool.reset_stats();
    let rids = index.lookup(&Value::Int(12_345));
    let pages = Index::pages_of(&rids);
    let mut idx_hits = 0;
    table
        .file
        .scan_pages(&pool, &pages, |_, r| {
            if r.get(0) == Some(&Value::Int(12_345)) {
                idx_hits += 1;
            }
            Ok(())
        })
        .unwrap();
    let idx_reads = pool.stats().disk_reads;

    assert_eq!(scan_hits, 1);
    assert_eq!(idx_hits, 1);
    assert!(scan_reads > 50, "the file spans many pages: {scan_reads}");
    assert_eq!(idx_reads, 1, "point access touches one page");
}

#[test]
fn restructure_disciplines_agree_and_differ_in_io() {
    let (storage, users, _) = sample_db();
    let pool = BufferPool::new(storage.clone(), 16);
    let spec = Restructuring::new(&users.schema, [("dept", "dept"), ("uid", "uid")]).unwrap();

    let engine = SetEngine::load(&users, &pool).unwrap();
    storage.reset_stats();
    let set_way = restructure_set(engine.identity(), &spec);
    assert_eq!(storage.stats().transfers(), 0, "re-scope is storage-free");

    let record_way = restructure_records(&users, &pool, &storage, &spec).unwrap();
    assert!(storage.stats().disk_writes > 0, "rewrite pays page writes");

    let mut rec_rows = record_way.file.read_all(&pool).unwrap();
    rec_rows.sort();
    rec_rows.dedup();
    assert_eq!(rec_rows, SetEngine::to_records(&set_way).unwrap());
}

#[test]
fn relation_algebra_matches_engine_results() {
    let (storage, users, _) = sample_db();
    let pool = BufferPool::new(storage, 16);
    let engine = SetEngine::load(&users, &pool).unwrap();
    let rel = Relation::from_identity(
        RelSchema::new(["uid", "name", "dept"]).unwrap(),
        engine.identity().clone(),
    )
    .unwrap();
    let via_algebra = algebra::select_eq(&rel, "dept", &Value::sym("eng")).unwrap();
    let via_engine = RecordEngine::new(&pool)
        .select(&users, "dept", &Value::sym("eng"))
        .unwrap();
    assert_eq!(
        SetEngine::to_records(via_algebra.identity()).unwrap(),
        via_engine
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random single-column tables: the two engines agree on boolean
    /// operations whatever the data.
    #[test]
    fn engines_agree_on_random_boolean_ops(
        xs in prop::collection::btree_set(0i64..50, 0..30),
        ys in prop::collection::btree_set(0i64..50, 0..30),
    ) {
        let storage = Storage::new();
        let schema = Schema::new(["v"]);
        let mut a = Table::create(&storage, schema.clone());
        let rows_a: Vec<Record> = xs.iter().map(|&i| Record::new([Value::Int(i)])).collect();
        a.load(&rows_a).unwrap();
        let mut b = Table::create(&storage, schema);
        let rows_b: Vec<Record> = ys.iter().map(|&i| Record::new([Value::Int(i)])).collect();
        b.load(&rows_b).unwrap();
        let pool = BufferPool::new(storage, 8);
        let rec = RecordEngine::new(&pool);
        let mut catalog = Catalog::new();
        catalog.register_table("a", &a, &pool).unwrap();
        catalog.register_table("b", &b, &pool).unwrap();
        prop_assert_eq!(
            rec.union(&a, &b).unwrap(),
            run_records(Query::from("a").union("b"), &catalog)
        );
        prop_assert_eq!(
            rec.intersect(&a, &b).unwrap(),
            run_records(Query::from("a").intersect("b"), &catalog)
        );
        prop_assert_eq!(
            rec.difference(&a, &b).unwrap(),
            run_records(Query::from("a").difference("b"), &catalog)
        );
    }

    /// Random two-table joins: engines and relational algebra agree.
    #[test]
    fn engines_agree_on_random_joins(
        left in prop::collection::btree_set((0i64..20, 0i64..8), 0..20),
        right in prop::collection::btree_set((0i64..8, 0i64..20), 0..20),
    ) {
        let storage = Storage::new();
        let mut l = Table::create(&storage, Schema::new(["a", "k"]));
        let rows_l: Vec<Record> = left
            .iter()
            .map(|&(a, k)| Record::new([Value::Int(a), Value::Int(k)]))
            .collect();
        l.load(&rows_l).unwrap();
        let mut r = Table::create(&storage, Schema::new(["k", "b"]));
        let rows_r: Vec<Record> = right
            .iter()
            .map(|&(k, b)| Record::new([Value::Int(k), Value::Int(b)]))
            .collect();
        r.load(&rows_r).unwrap();
        let pool = BufferPool::new(storage, 8);
        let rec = RecordEngine::new(&pool);
        let mut catalog = Catalog::new();
        catalog.register_table("l", &l, &pool).unwrap();
        catalog.register_table("r", &r, &pool).unwrap();
        prop_assert_eq!(
            rec.join(&l, &r, "k", "k").unwrap(),
            run_records(Query::from("l").join("r", "k", "k"), &catalog)
        );
    }
}
