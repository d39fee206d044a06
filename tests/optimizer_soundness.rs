//! Optimizer soundness: every rewrite rule in
//! `xst_query::rules::default_rules()` must preserve semantics — the
//! rewritten plan evaluates to the same extended set as the naive plan on
//! random bindings. Each rule is exercised alone (so a bug cannot hide
//! behind another rule's rewrite) and the full rule set is exercised
//! together through the fixpoint optimizer.

use proptest::prelude::*;
use xst_core::ops::Scope;
use xst_core::{ExtendedSet, Value};
use xst_query::{default_rules, eval, eval_counted, eval_parallel, Bindings, Expr, Optimizer};
use xst_testkit::{arb_pair_relation, arb_set};

const TABLES: [&str; 3] = ["t0", "t1", "t2"];

/// Scope specs drawn from the shapes the rules pattern-match on.
fn arb_sigma() -> BoxedStrategy<ExtendedSet> {
    prop_oneof![
        Just(ExtendedSet::tuple([Value::Int(1)])),
        Just(ExtendedSet::tuple([Value::Int(2)])),
        Just(ExtendedSet::tuple([Value::Int(1), Value::Int(2)])),
        Just(ExtendedSet::tuple([Value::Int(2), Value::Int(1)])),
        Just(ExtendedSet::empty()),
    ]
    .boxed()
}

fn arb_scope() -> BoxedStrategy<Scope> {
    prop_oneof![
        Just(Scope::pairs()),
        Just(Scope::pairs_inverse()),
        (arb_sigma(), arb_sigma()).prop_map(|(s1, s2)| Scope::new(s1, s2)),
    ]
    .boxed()
}

/// Random expression trees biased toward the shapes the rules fire on:
/// unions of images (merge rules), restrict-then-domain (image fusion),
/// nested domains (domain fusion), literal pipelines (composition fusion),
/// duplicate subtrees (idempotence) and empty literals (pruning). `Cross`
/// is excluded: it can error, and pruning an erroring subtree is allowed
/// to change the outcome, which is not the equivalence under test here.
fn arb_expr(depth: u32) -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![
        3 => prop::sample::select(TABLES.to_vec()).prop_map(Expr::table),
        2 => arb_set(1).prop_map(Expr::lit),
        1 => Just(Expr::lit(ExtendedSet::empty())),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    prop_oneof![
        2 => leaf,
        1 => (arb_expr(depth - 1), arb_expr(depth - 1))
            .prop_map(|(a, b)| a.union(b)),
        1 => (arb_expr(depth - 1), arb_expr(depth - 1))
            .prop_map(|(a, b)| a.intersect(b)),
        1 => (arb_expr(depth - 1), arb_expr(depth - 1))
            .prop_map(|(a, b)| a.difference(b)),
        // Duplicate subtree: the idempotence rule's trigger.
        1 => arb_expr(depth - 1).prop_map(|a| a.clone().union(a)),
        // Restrict-then-domain: the image-fusion trigger.
        1 => (arb_expr(depth - 1), arb_sigma(), arb_expr(depth - 1), arb_sigma())
            .prop_map(|(r, s1, a, s2)| r.restrict(s1, a).domain(s2)),
        1 => (arb_expr(depth - 1), arb_sigma(), arb_expr(depth - 1))
            .prop_map(|(r, s, a)| r.restrict(s, a)),
        // Nested domains: the domain-fusion trigger.
        1 => (arb_expr(depth - 1), arb_sigma(), arb_sigma())
            .prop_map(|(r, s1, s2)| r.domain(s1).domain(s2)),
        1 => (arb_expr(depth - 1), arb_expr(depth - 1), arb_scope())
            .prop_map(|(r, a, sc)| r.image(a, sc)),
        // Union of images sharing the input: App C (i)'s shape, which no
        // default rule merges (it is a law, not a rewrite that pays).
        1 => (arb_expr(depth - 1), arb_expr(depth - 1), arb_expr(depth - 1), arb_scope())
            .prop_map(|(q, r, a, sc)| {
                q.image(a.clone(), sc.clone()).union(r.image(a, sc))
            }),
        // Union of images sharing the relation: the C.1(a) merge trigger.
        1 => (arb_expr(depth - 1), arb_expr(depth - 1), arb_expr(depth - 1), arb_scope())
            .prop_map(|(q, a, b, sc)| {
                q.clone().image(a, sc.clone()).union(q.image(b, sc))
            }),
        // Literal-carrier pipeline: the Theorem-11.2 fusion trigger.
        1 => (arb_pair_relation(), arb_pair_relation(), arb_expr(depth - 1))
            .prop_map(|(f, g, x)| {
                Expr::lit(g).image(Expr::lit(f).image(x, Scope::pairs()), Scope::pairs())
            }),
    ]
    .boxed()
}

fn arb_env() -> impl Strategy<Value = Bindings> {
    (arb_set(2), arb_set(2), arb_pair_relation()).prop_map(|(a, b, c)| {
        let mut env = Bindings::new();
        env.insert(TABLES[0].into(), a);
        env.insert(TABLES[1].into(), b);
        env.insert(TABLES[2].into(), c);
        env
    })
}

/// Run one rule (by position in `default_rules()`) to fixpoint and check
/// the rewritten plan against the naive plan.
fn check_single_rule(rule_index: usize, expr: &Expr, env: &Bindings) -> Result<(), String> {
    let mut rules = default_rules();
    let rule = rules.swap_remove(rule_index);
    let name = rule.name();
    let (optimized, _trace) = Optimizer::with_rules(vec![rule]).optimize(expr);
    let naive = eval(expr, env).map_err(|e| format!("naive eval failed: {e:?}"))?;
    let rewritten =
        eval(&optimized, env).map_err(|e| format!("{name}: rewritten eval failed: {e:?}"))?;
    if naive != rewritten {
        return Err(format!("{name}: rewrite changed the result"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Every rule alone is semantics-preserving on random plans/bindings.
    #[test]
    fn each_rule_is_sound(expr in arb_expr(3), env in arb_env()) {
        let rule_count = default_rules().len();
        for i in 0..rule_count {
            if let Err(msg) = check_single_rule(i, &expr, &env) {
                prop_assert!(false, "{} on {:?}", msg, expr);
            }
        }
    }

    /// The full default rule set, driven to fixpoint, is sound — and the
    /// optimized plan also agrees under parallel evaluation.
    #[test]
    fn full_optimizer_is_sound(expr in arb_expr(3), env in arb_env()) {
        let (optimized, _trace) = Optimizer::new().optimize(&expr);
        let naive = eval(&expr, &env).unwrap();
        let rewritten = eval(&optimized, &env).unwrap();
        prop_assert_eq!(&naive, &rewritten);

        let par = xst_core::ops::Parallelism::new(4).with_threshold(1);
        let (par_result, stats) = eval_parallel(&optimized, &env, &par).unwrap();
        prop_assert_eq!(&naive, &par_result);
        prop_assert_eq!(stats.result_members, naive.card() as u64);
    }

    /// The optimizer never grows a plan.
    #[test]
    fn optimizer_never_grows_plans(expr in arb_expr(3)) {
        let (optimized, _trace) = Optimizer::new().optimize(&expr);
        prop_assert!(optimized.size() <= expr.size());
    }
}

/// "Every default rewrite pays", measured instead of estimated: on each
/// rule's trigger plan — the `every_default_rule_fires_and_verifies`
/// roster (tests/analysis_soundness.rs) re-built over tables shaped like
/// the benchmark's, relations outweighing their witness sets 8 : 1 — the
/// rule alone, and the whole default set, hand the kernels no more rows
/// (`EvalStats::rows_read`) than the plan as written and return the same
/// set. The last plan is `inproc_plan`'s: a union of two images sharing
/// their witnesses, the shape a right-to-left App C (i) merge would turn
/// into a 4 000-member union plus a 4 000-row image.
///
/// A pinned regression at these sizes, not a law: `input-union-merge`
/// reads *more* once `|A ∪ B|` exceeds `|Q|`.
#[test]
fn default_rules_read_no_more_rows_on_their_triggers() {
    const PAIRS: i64 = 2_000;
    const WITNESSES: i64 = 250;
    let pairs = |keys: std::ops::Range<i64>, to: i64| {
        ExtendedSet::classical(
            keys.map(|k| ExtendedSet::pair(Value::Int(k), Value::Int(to + k % 500)).into_value()),
        )
    };
    let witnesses = |stride: i64| {
        ExtendedSet::classical(
            (0..WITNESSES).map(|i| ExtendedSet::tuple([Value::Int(i * stride)]).into_value()),
        )
    };
    // Disjoint keys; `g`'s keys are `f`'s values, so `g ∘ f` is not empty.
    let (f, g) = (pairs(0..PAIRS, PAIRS), pairs(PAIRS..2 * PAIRS, 2 * PAIRS));
    let env: Bindings = [
        ("f", f.clone()),
        ("g", g.clone()),
        ("w", witnesses(3)),
        ("v", witnesses(7)),
    ]
    .into_iter()
    .map(|(name, set)| (name.to_string(), set))
    .collect();

    let t = |name: &str| Expr::table(name);
    let Scope { sigma1, sigma2 } = Scope::pairs();
    let image = |r: &str, a: &str| t(r).image(t(a), Scope::pairs());
    let pipeline = |r: &str| t(r).restrict(sigma1.clone(), t("w")).domain(sigma2.clone());
    let triggers = [
        ("empty-prune", Expr::lit(ExtendedSet::empty()).union(t("f"))),
        ("boolean-idempotence", t("f").union(t("f"))),
        ("image-fusion", pipeline("f")),
        (
            "domain-fusion",
            t("f")
                .domain(ExtendedSet::tuple([Value::Int(2), Value::Int(1)]))
                .domain(sigma1.clone()),
        ),
        ("input-union-merge", image("f", "w").union(image("f", "v"))),
        (
            "composition-fusion",
            Expr::lit(g).image(Expr::lit(f).image(t("w"), Scope::pairs()), Scope::pairs()),
        ),
        (
            "analyzer-empty-prune",
            Expr::lit(ExtendedSet::from_pairs([("a", 1), ("b", 1)]))
                .intersect(Expr::lit(ExtendedSet::from_pairs([("a", 2)])))
                .union(t("f")),
        ),
    ];
    let inproc_plan = pipeline("f")
        .union(pipeline("g"))
        .difference(image("f", "w").intersect(image("g", "w")));

    let check = |who: &str, optimizer: &Optimizer, plan: &Expr| {
        let (optimized, trace) = optimizer.optimize(plan);
        assert!(!trace.is_empty(), "{who} did not fire on {plan}");
        let (want, before) = eval_counted(plan, &env).unwrap();
        let (got, after) = eval_counted(&optimized, &env).unwrap();
        assert_eq!(got, want, "{who} changed the result of {plan}");
        assert!(
            after.rows_read <= before.rows_read,
            "{who}: {plan} read {} rows, {optimized} reads {}",
            before.rows_read,
            after.rows_read
        );
    };
    for rule in default_rules() {
        let name = rule.name();
        let (_, trigger) = triggers
            .iter()
            .find(|(rule, _)| *rule == name)
            .unwrap_or_else(|| panic!("default rule {name} has no trigger plan here"));
        check(name, &Optimizer::with_rules(vec![rule]), trigger);
    }
    let all = triggers.iter().map(|(_, plan)| plan).chain([&inproc_plan]);
    all.for_each(|plan| check("the default rule set", &Optimizer::new(), plan));
}
