//! Cross-crate observability integration: the span collector, the metrics
//! registry, and EXPLAIN ANALYZE are exercised through the public surface
//! of every layer at once — query evaluation over core kernels, the
//! commit path behind the shell's `.put`/`.get`, and the exposition
//! formats the shell prints.
//!
//! The collector switch and the registry are process-global, so every test
//! here serializes on one mutex and leaves the collector enabled and
//! drained on exit.

use std::sync::{Mutex, MutexGuard, OnceLock};

use xst_core::ops::{partition_members, Parallelism};
use xst_core::{xtuple, ExtendedSet, Scope, Value};
use xst_query::{
    eval_parallel, eval_sharded, explain_analyze, Bindings, EvalStats, Expr, OpKind, PlanNode,
    ShardedBindings,
};
use xst_shell::Session;

/// Global-state lock: spans and metrics land in process-wide sinks, so
/// tests that toggle or read them must not interleave.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// A deterministic scoped set: `n` members over a colliding element domain.
fn scoped(n: i64, stride: i64) -> ExtendedSet {
    ExtendedSet::from_pairs((0..n).map(|i| (Value::Int((i * stride) % (2 * n)), Value::Int(i % 5))))
}

/// A classical relation of `n` pairs over a small key domain.
fn pairs(n: i64) -> ExtendedSet {
    ExtendedSet::classical((0..n).map(|i| {
        Value::Set(ExtendedSet::pair(
            Value::Int(i % 20),
            Value::Int((i * 3) % 20),
        ))
    }))
}

fn env() -> Bindings {
    [
        ("s1".to_string(), scoped(400, 3)),
        ("s2".to_string(), scoped(400, 7)),
        ("r".to_string(), pairs(120)),
        ("probe".to_string(), pairs(6)),
    ]
    .into_iter()
    .collect()
}

/// Every operator shape the analyzed executor supports, as used below.
fn shapes() -> Vec<Expr> {
    vec![
        Expr::table("s1").union(Expr::table("s2")),
        Expr::table("s1")
            .union(Expr::table("s2"))
            .intersect(Expr::table("s1")),
        Expr::table("s1").difference(Expr::table("s2")),
        Expr::table("r").domain(xtuple![2]),
        Expr::table("r").restrict(xtuple![1], Expr::table("probe")),
        Expr::table("r").image(Expr::table("probe"), Scope::pairs()),
        Expr::table("r").rel_product(Scope::pairs(), Expr::table("r"), Scope::pairs()),
        Expr::lit(scoped(24, 5)).cross(Expr::lit(scoped(24, 11))),
    ]
}

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE is the evaluator's own profile: the report's tree and
// `EvalStats` are two folds of one walk, so they agree count for count.
// ---------------------------------------------------------------------------

/// Every node of a profile tree, root first.
fn flatten(node: &PlanNode) -> Vec<&PlanNode> {
    let mut out = vec![node];
    for child in &node.children {
        out.extend(flatten(child));
    }
    out
}

#[test]
fn explain_analyze_matches_eval_parallel_across_shapes() {
    let _g = obs_lock();
    let env = env();
    for threads in [1, 4] {
        let par = Parallelism::new(threads).with_threshold(1);
        for expr in shapes() {
            let (expect, _) = eval_parallel(&expr, &env, &par).unwrap();
            let report = explain_analyze(&expr, &env, &par).unwrap();
            assert_eq!(
                report.result, expect,
                "threads={threads}, expr={expr:?}: analyzed execution diverged"
            );
            assert_eq!(report.root.rows_out, expect.card() as u64);
            let text = report.to_string();
            assert!(text.contains("operators:"), "{text}");
            assert!(text.contains("rows="), "{text}");
            assert!(!text.contains("parts="), "whole-set report: {text}");

            // The statistics of evaluating the plan the report executed
            // are a fold of the same tree.
            let (_, stats) = eval_parallel(&report.plan, &env, &par).unwrap();
            assert_one_walk(&report.root, &stats, &text);
        }
    }
}

/// `stats` and the report tree `root` count the same nodes, kernel runs
/// and intermediate members.
fn assert_one_walk(root: &PlanNode, stats: &EvalStats, text: &str) {
    let nodes = flatten(root);
    assert_eq!(root.size() as u64, stats.nodes, "{text}");
    for kind in OpKind::ALL {
        let in_tree = nodes.iter().filter(|n| n.op == kind.name()).count();
        assert_eq!(
            in_tree as u64,
            stats.op(kind).invocations,
            "{} nodes in:\n{text}",
            kind.name()
        );
    }
    let intermediates: u64 = nodes[1..]
        .iter()
        .filter(|n| !n.children.is_empty())
        .map(|n| n.rows_out)
        .sum();
    assert_eq!(intermediates, stats.intermediate_members, "{text}");
}

/// `inproc_plan`'s shape optimizes to `(r[p] ∪ q[p]) ∖ (r[p] ∩ q[p])`, each
/// image written twice. The walk runs each once, and the report shows the
/// second copies as two `(shared)` nodes that ran no kernel — still the
/// same walk `EvalStats` folds, node for node.
#[test]
fn explain_analyze_shows_shared_subtrees() {
    let _g = obs_lock();
    let mut env = env();
    let q = ExtendedSet::classical((0..90).map(|i| {
        Value::Set(ExtendedSet::pair(
            Value::Int(i % 20),
            Value::Int(10 + i % 30),
        ))
    }));
    env.insert("q".to_string(), q);
    let Scope { sigma1, sigma2 } = Scope::pairs();
    let pipeline = |r: &str| {
        Expr::table(r)
            .restrict(sigma1.clone(), Expr::table("probe"))
            .domain(sigma2.clone())
    };
    let image = |r: &str| Expr::table(r).image(Expr::table("probe"), Scope::pairs());
    let plan = pipeline("r")
        .union(pipeline("q"))
        .difference(image("r").intersect(image("q")));
    let par = Parallelism::sequential();
    let (expect, _) = eval_parallel(&plan, &env, &par).unwrap();
    assert!(!expect.is_empty());

    let report = explain_analyze(&plan, &env, &par).unwrap();
    assert_eq!(report.result, expect);
    let text = report.to_string();
    let nodes = flatten(&report.root);
    let shared: Vec<_> = nodes.iter().filter(|n| n.op == "(shared)").collect();
    assert_eq!(shared.len(), 2, "{text}");
    assert_eq!(text.matches("(shared)").count(), 2, "{text}");
    assert!(shared
        .iter()
        .all(|n| n.children.is_empty() && n.rows_out > 0));

    let (_, stats) = eval_parallel(&report.plan, &env, &par).unwrap();
    assert_one_walk(&report.root, &stats, &text);
    assert_eq!(stats.op(OpKind::Image).invocations, 2, "{text}");
}

// ---------------------------------------------------------------------------
// One walker, one set of spans: EXPLAIN ANALYZE and the scattered path emit
// the `eval.*` operator spans `eval_parallel` emits.
// ---------------------------------------------------------------------------

/// Sorted names of the `eval.*` spans, each of which must sit directly
/// under a `query.eval` span.
fn operator_spans(spans: &[xst_obs::SpanRecord]) -> Vec<&'static str> {
    let is_root = |id: u64| spans.iter().any(|s| s.id == id && s.name == "query.eval");
    let mut names = Vec::new();
    for span in spans.iter().filter(|s| s.name.starts_with("eval.")) {
        assert!(
            span.parent.is_some_and(is_root),
            "{} outside query.eval: {spans:?}",
            span.name
        );
        names.push(span.name);
    }
    names.sort_unstable();
    names
}

#[test]
fn explain_and_sharded_eval_emit_the_evaluators_operator_spans() {
    let _g = obs_lock();
    xst_obs::enable();
    let env = env();
    let par = Parallelism::sequential();
    for expr in shapes() {
        let plan = explain_analyze(&expr, &env, &par).unwrap().plan;
        xst_obs::collector().take_spans();
        eval_parallel(&plan, &env, &par).unwrap();
        let evaluated = operator_spans(&xst_obs::collector().take_spans());
        explain_analyze(&plan, &env, &par).unwrap();
        let explained = operator_spans(&xst_obs::collector().take_spans());
        assert!(!evaluated.is_empty(), "{plan:?}");
        assert_eq!(explained, evaluated, "{plan:?}");
    }

    // The scattered path books `Cross` like every other family: kernel
    // wall-time in its profile and one `eval.cross` span under the root.
    let sharded: ShardedBindings = [("c1", scoped(24, 5)), ("c2", scoped(24, 11))]
        .into_iter()
        .map(|(name, set)| (name.to_string(), partition_members(&set, 3)))
        .collect();
    let cross = Expr::table("c1").cross(Expr::table("c2"));
    let (_, stats) = eval_sharded(&cross, &sharded, &par).unwrap();
    assert_eq!(stats.op(OpKind::Cross).invocations, 1);
    assert!(stats.op(OpKind::Cross).wall_nanos > 0, "{stats:?}");
    let spans = xst_obs::collector().take_spans();
    assert_eq!(operator_spans(&spans), ["eval.cross"]);
}

// ---------------------------------------------------------------------------
// The operator profile tells the truth for every family: `card_in` is the
// dominant operand, `max_threads` is what the widest kernel run could use,
// and the gather counter counts merges that happened.
// ---------------------------------------------------------------------------

#[test]
fn difference_and_domain_spans_carry_their_carrier_cardinality() {
    let _g = obs_lock();
    xst_obs::enable();
    let env = env();
    let par = Parallelism::sequential();
    let mut seen = Vec::new();
    for expr in shapes() {
        xst_obs::collector().take_spans();
        let report = explain_analyze(&expr, &env, &par).unwrap();
        let spans = xst_obs::collector().take_spans();
        for node in flatten(&report.root) {
            let name = match node.op.as_str() {
                "difference" => "eval.difference",
                "domain" => "eval.domain",
                _ => continue,
            };
            let span = spans.iter().find(|s| s.name == name).expect(name);
            let card_in = span.attrs.iter().find(|(k, _)| *k == "card_in");
            let carrier = node.children[0].rows_out;
            assert!(carrier > 0, "{name}: empty carrier in {expr:?}");
            assert_eq!(
                card_in.map(|(_, v)| v.as_str()),
                Some(carrier.to_string().as_str()),
                "{name}: {span:?}"
            );
            seen.push(name);
        }
    }
    assert_eq!(seen, ["eval.difference", "eval.domain"]);
}

#[test]
fn max_threads_reflects_the_widest_part_not_the_total() {
    let _g = obs_lock();
    let r = ExtendedSet::classical(
        (0..8000).map(|i| Value::Set(ExtendedSet::pair(Value::Int(i % 20), Value::Int(i)))),
    );
    let par = Parallelism::new(4);
    let plan = Expr::table("r").restrict(xtuple![1], Expr::table("probe"));
    let width = |stats: xst_query::EvalStats| stats.op(OpKind::Restrict).max_threads;

    // One part of 8 000 members clears the threshold and fans out.
    let whole: Bindings = [
        ("r".to_string(), r.clone()),
        ("probe".to_string(), pairs(6)),
    ]
    .into_iter()
    .collect();
    let (expect, stats) = eval_parallel(&plan, &whole, &par).unwrap();
    assert_eq!(width(stats), 4);

    // Four parts of ≈ 2 000: the total clears it, no kernel run does.
    let parts = partition_members(&r, 4);
    assert!(r.card() >= par.threshold);
    assert!(parts.iter().all(|p| p.card() < par.threshold));
    let sharded: ShardedBindings = [
        ("r".to_string(), parts),
        ("probe".to_string(), vec![pairs(6)]),
    ]
    .into_iter()
    .collect();
    let (got, stats) = eval_sharded(&plan, &sharded, &par).unwrap();
    assert_eq!(got, expect);
    assert_eq!(width(stats), 1, "every part ran sequentially");
}

/// `par_intersection` fans out on the members its merge visits: the
/// smaller operand alone for a pair it gallops (microseconds of work),
/// both operands for a pair it walks — however small the smaller one.
#[test]
fn a_skewed_intersection_does_not_fan_out() {
    let _g = obs_lock();
    xst_obs::enable();
    let par = Parallelism::new(4);
    let ints = |n: i64, stride: i64| ExtendedSet::classical((0..n).map(|i| Value::Int(i * stride)));
    let plan = Expr::table("t").intersect(Expr::table("probe"));
    for (t, probe, fanouts) in [
        (10_000, ints(16, 600), 0),   // galloped: 16 members of work
        (10_000, ints(9_000, 1), 1),  // balanced
        (60_000, ints(4_000, 15), 1), // 15 : 1, still walked: 64 000
    ] {
        let env: Bindings = [("t".to_string(), ints(t, 1)), ("probe".to_string(), probe)]
            .into_iter()
            .collect();
        let (expect, _) = eval_parallel(&plan, &env, &Parallelism::sequential()).unwrap();
        assert!(!expect.is_empty());
        let costs = xst_obs::cost::begin();
        let (got, stats) = eval_parallel(&plan, &env, &par).unwrap();
        assert_eq!(costs.take().par_fanouts, fanouts, "{t} ∩ probe");
        // The walker reports the width the kernel ran at, not the sum's.
        let width = if fanouts > 0 { 4 } else { 1 };
        assert_eq!(
            stats.op(OpKind::Intersect).max_threads,
            width,
            "{t} ∩ probe"
        );
        assert_eq!(got, expect);
    }
}

#[test]
fn gather_merges_count_only_gathers_that_merged() {
    use xst_storage::{Record, Schema, ShardedEngine};

    let _g = obs_lock();
    xst_obs::enable();
    let merges = &xst_obs::names::handle::SHARD_GATHER_MERGES_TOTAL;
    let moved_over = |shards: usize| {
        let engine = ShardedEngine::with_shards(shards);
        engine.create_table("t", Schema::new(["k"])).unwrap();
        let rows: Vec<Record> = (0..16).map(|k| Record::new([Value::Int(k)])).collect();
        engine.autocommit_insert("t", &rows).unwrap();
        let before = merges.get();
        let whole = engine.latest_identity("t").unwrap();
        let env: ShardedBindings = [("t".to_string(), engine.latest_fragments("t").unwrap())]
            .into_iter()
            .collect();
        let plan = Expr::table("t").domain(xtuple![1]).union(Expr::table("t"));
        eval_sharded(&plan, &env, &Parallelism::sequential()).unwrap();
        assert_eq!(whole.card(), 16);
        merges.get() - before
    };
    assert_eq!(moved_over(1), 0, "one fragment: nothing was merged");
    assert!(moved_over(3) > 0, "three fragments gather by merging");
}

// ---------------------------------------------------------------------------
// The coordinator ships what the shards can answer alone and reads the rest.
// ---------------------------------------------------------------------------

#[test]
fn a_shipped_subplan_reads_no_fragment() {
    use std::sync::Arc;
    use xst_client::coord::Coordinator;
    use xst_obs::names::handle::{COORD_FRAG_READS_TOTAL, COORD_SUBPLANS_SHIPPED_TOTAL};
    use xst_server::{ServedEngine, Session};

    let _g = obs_lock();
    xst_obs::enable();
    let shard = || Session::new(Arc::new(ServedEngine::new()));
    let mut coord = Coordinator::over(vec![shard(), shard()]);
    coord.put("t", &scoped(40, 3)).unwrap();
    let literal = || Expr::lit(scoped(16, 5));
    // (shipped, fragment reads) per eval over two shards.
    for (plan, sent) in [
        (Expr::table("t").intersect(literal()), (2, 0)),
        (literal().difference(Expr::table("t")), (0, 2)),
        (
            (literal().difference(Expr::table("t"))).union(Expr::table("t").intersect(literal())),
            (2, 2),
        ),
    ] {
        let before = (
            COORD_SUBPLANS_SHIPPED_TOTAL.get(),
            COORD_FRAG_READS_TOTAL.get(),
        );
        coord.eval(&plan).unwrap();
        let after = (
            COORD_SUBPLANS_SHIPPED_TOTAL.get(),
            COORD_FRAG_READS_TOTAL.get(),
        );
        assert_eq!((after.0 - before.0, after.1 - before.1), sent, "{plan}");
    }
}

// ---------------------------------------------------------------------------
// Spans nest across crate boundaries: query.eval → eval.* → par.*.
// ---------------------------------------------------------------------------

#[test]
fn spans_nest_across_query_and_core_layers() {
    let _g = obs_lock();
    xst_obs::enable();
    xst_obs::collector().take_spans();

    let env = env();
    let par = Parallelism::new(2).with_threshold(1);
    let expr = Expr::table("s1")
        .union(Expr::table("s2"))
        .intersect(Expr::table("s1"));
    eval_parallel(&expr, &env, &par).unwrap();

    let spans = xst_obs::collector().take_spans();
    let name_of = |id: u64| spans.iter().find(|s| s.id == id).map(|s| s.name);
    let find = |name: &str| spans.iter().find(|s| s.name == name);

    let root = find("query.eval").expect("query.eval span recorded");
    assert!(root.parent.is_none(), "query.eval is a root span");
    for kernel in ["par.union", "par.intersection"] {
        let span = find(kernel).unwrap_or_else(|| panic!("{kernel} span recorded"));
        // Walk the parent chain back to the query root: the core kernel's
        // span must sit underneath the query layer's operator span.
        let mut chain = Vec::new();
        let mut cur = span.parent;
        while let Some(pid) = cur {
            let parent = spans.iter().find(|s| s.id == pid).expect("parent recorded");
            chain.push(parent.name);
            cur = parent.parent;
        }
        assert_eq!(
            chain.last().copied(),
            Some("query.eval"),
            "{kernel}: {chain:?}"
        );
        assert!(
            chain.iter().any(|n| n.starts_with("eval.")),
            "{kernel} not under an operator span: {chain:?} (names: {:?})",
            spans.iter().map(|s| &s.name).collect::<Vec<_>>()
        );
        assert!(
            span.attrs.iter().any(|(k, _)| *k == "chunks"),
            "fan-out attr"
        );
        let _ = name_of(span.id);
    }
}

// ---------------------------------------------------------------------------
// The gate analyzes only a plan that can be refused: one holding `⊗` or
// naming an unbound table. Every other plan passes on its table names.
// ---------------------------------------------------------------------------

#[test]
fn the_gate_analyzes_only_a_plan_that_can_refuse() {
    let _g = obs_lock();
    xst_obs::enable();
    xst_obs::collector().take_spans();

    let env = env();
    let sharded: ShardedBindings = env
        .iter()
        .map(|(name, set)| (name.clone(), partition_members(set, 2)))
        .collect();
    let par = Parallelism::sequential();
    let analyzed = || -> String {
        let spans = xst_obs::collector().take_spans();
        let gates: Vec<_> = spans.iter().filter(|s| s.name == "query.gate").collect();
        assert_eq!(gates.len(), 1, "{spans:?}");
        let attr = gates[0].attrs.iter().find(|(k, _)| *k == "analyzed");
        attr.expect("analyzed attribute").1.clone()
    };
    let literal = Expr::lit(ExtendedSet::from_pairs(
        (0..16).map(|i| (Value::Int(i), Value::Int(i % 5))),
    ));
    let cases = [
        (Expr::table("s1").intersect(literal), "0"),
        (Expr::table("probe").cross(Expr::table("probe")), "1"),
        (Expr::table("nope"), "1"),
    ];
    for (expr, want) in cases {
        let whole = eval_parallel(&expr, &env, &par);
        assert_eq!(analyzed(), want, "whole: {expr}");
        let scattered = eval_sharded(&expr, &sharded, &par);
        assert_eq!(analyzed(), want, "sharded: {expr}");
        assert_eq!(whole.is_ok(), expr.tables() != ["nope"], "{expr}");
        assert_eq!(scattered.is_ok(), whole.is_ok(), "{expr}");
    }
}

// ---------------------------------------------------------------------------
// The disabled path is inert: no spans buffered, no counter movement.
// ---------------------------------------------------------------------------

#[test]
fn disabled_collector_records_nothing_anywhere() {
    let _g = obs_lock();
    let probe = xst_obs::registry().counter("obs_itest_probe_total", "integration probe");
    xst_obs::disable();
    xst_obs::collector().take_spans();
    let before = probe.get();

    probe.inc();
    let env = env();
    let par = Parallelism::new(2).with_threshold(1);
    for expr in shapes() {
        eval_parallel(&expr, &env, &par).unwrap();
    }

    assert!(
        xst_obs::collector().is_empty(),
        "spans recorded while disabled"
    );
    assert_eq!(probe.get(), before, "counter moved while disabled");
    xst_obs::enable();
}

// ---------------------------------------------------------------------------
// The shell end to end: .explain, .put/.get, .metrics exposition.
// ---------------------------------------------------------------------------

#[test]
fn shell_explain_store_and_metrics_flow() {
    let _g = obs_lock();
    let mut s = Session::new();
    let run = |s: &mut Session, line: &str| -> String {
        s.eval_line(line)
            .unwrap_or_else(|e| panic!("'{line}' failed: {e}"))
            .unwrap_or_default()
    };

    run(&mut s, "let s1 = {a^1, b^2, c}");
    run(&mut s, "let s2 = {b^2, d}");

    let report = run(&mut s, ".explain union s1 s2");
    assert!(report.contains("operators:"), "{report}");
    assert!(report.contains("union"), "{report}");
    assert!(report.contains("rows=3"), "{report}");
    assert!(report.contains("result members"), "{report}");

    run(&mut s, ".put s1");
    let loaded = run(&mut s, ".get s1 as t1");
    assert!(loaded.contains("t1"), "{loaded}");
    assert_eq!(run(&mut s, "union t1 s2"), run(&mut s, "union s1 s2"));

    let text = run(&mut s, ".metrics");
    for family in [
        "xst_storage_wal_append_ns_bucket",
        "xst_storage_wal_group_commits_total",
        "xst_txn_commits_total",
        "xst_txn_commit_ns_bucket",
    ] {
        assert!(text.contains(family), "missing {family} in:\n{text}");
    }

    let json = run(&mut s, ".metrics json");
    assert!(json.contains("\"xst_txn_commits_total\""), "{json}");

    // Reset must zero the families the door moves: a fresh exposition
    // shows the counters again only after new traffic.
    assert_eq!(run(&mut s, ".metrics reset"), "metrics reset");
    let text = run(&mut s, ".metrics");
    let commits_zeroed = text
        .lines()
        .filter(|l| l.starts_with("xst_txn_commits_total"))
        .all(|l| l.ends_with(" 0"));
    assert!(commits_zeroed, "commit counters survive reset:\n{text}");
}

// ---------------------------------------------------------------------------
// The hit-ratio gauge distinguishes "no traffic" from "all misses".
// ---------------------------------------------------------------------------

#[test]
fn idle_pool_hit_ratio_exports_the_negative_sentinel() {
    use xst_storage::{BufferPool, Storage, PAGE_SIZE};

    let _g = obs_lock();
    xst_obs::enable();
    let gauge = xst_obs::registry().gauge(
        "xst_storage_pool_hit_ratio",
        "Aggregate buffer-pool hit ratio over all shards (0..1; -1 before any traffic).",
    );

    // An idle pool must not masquerade as a 0% hit rate (the signature of
    // a *thrashing* pool): it publishes the -1 sentinel instead.
    let storage = Storage::new();
    let pool = BufferPool::new(storage.clone(), 4);
    pool.publish_metrics();
    assert_eq!(gauge.get(), -1.0, "idle pool must publish the sentinel");

    // After real traffic the gauge returns to the honest 0..=1 range.
    let file = storage.create_file();
    let mut page = xst_storage::Page::new();
    page.insert(&[7u8; 16]).unwrap();
    storage.append_page(file, &page).unwrap();
    let id = xst_storage::PageId { file, page: 0 };
    let _ = pool.get(id).unwrap();
    let _ = pool.get(id).unwrap();
    pool.publish_metrics();
    let ratio = gauge.get();
    assert!(
        (0.0..=1.0).contains(&ratio),
        "after traffic the ratio is honest, got {ratio} (page size {PAGE_SIZE})"
    );
}

// ---------------------------------------------------------------------------
// The decision-log gauge counts each log once, across an in-process recovery.
// ---------------------------------------------------------------------------

#[test]
fn a_recovered_engine_takes_over_the_decision_log_gauge() {
    use xst_storage::{Record, Schema, ShardedEngine};

    let _g = obs_lock();
    xst_obs::enable();
    let gauge = &xst_obs::names::handle::TWOPC_DECISION_LOG_ENTRIES;
    let before = gauge.get();

    let engine = ShardedEngine::with_shards(2);
    engine.create_table("t", Schema::new(["k"])).unwrap();
    let rows: Vec<Record> = (0..16).map(|k| Record::new([Value::Int(k)])).collect();
    engine.autocommit_insert("t", &rows).unwrap();
    assert_eq!(engine.committed_gtxns(), vec![1], "one 2PC round ran");
    assert_eq!(gauge.get(), before + 1.0);

    // The crashed engine is still alive here; its log must not be
    // counted beside the one recovered over the same devices.
    let recovered = engine.recover().unwrap();
    assert_eq!(gauge.get(), before + 1.0, "superseded log counted twice");
    drop(engine);
    assert_eq!(gauge.get(), before + 1.0);
    drop(recovered);
    assert_eq!(gauge.get(), before);
}

// ---------------------------------------------------------------------------
// Trace toggling through the shell switches the whole process.
// ---------------------------------------------------------------------------

#[test]
fn shell_trace_show_renders_cross_layer_spans() {
    let _g = obs_lock();
    let mut s = Session::new();
    let run = |s: &mut Session, line: &str| -> String {
        s.eval_line(line)
            .unwrap_or_else(|e| panic!("'{line}' failed: {e}"))
            .unwrap_or_default()
    };

    run(&mut s, ".trace on");
    run(&mut s, "let a = {1, 2, 3}");
    run(&mut s, ".explain union a {4}");
    let shown = run(&mut s, ".trace show");
    assert!(shown.contains("query.explain_analyze"), "{shown}");

    // Showing drains the buffer; a second show is empty.
    assert_eq!(run(&mut s, ".trace show"), "no spans collected");

    run(&mut s, ".trace off");
    run(&mut s, "union a {5}");
    run(&mut s, ".trace on");
    assert_eq!(run(&mut s, ".trace show"), "no spans collected");
}
