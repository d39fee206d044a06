//! Analyzer soundness: the static analysis in `xst-analyze` must never
//! lie about a plan it accepts or a rewrite it verifies.
//!
//! Four claims are under test, on random plans over random bindings:
//!
//! 1. **Acceptance is sound** — a plan the analyzer *proves safe*
//!    evaluates without scope/type errors; a plan it *rejects* really
//!    does fail at runtime (the gate never blocks a working plan).
//! 2. **Emptiness is sound** — a `ProvablyEmpty` verdict means the plan
//!    evaluates to `∅`.
//! 3. **Signatures over-approximate** — every scope observed in the
//!    evaluated result is admitted by the inferred scope signature.
//! 4. **Rewrites preserve signatures** — for every rule in
//!    `default_rules()`, applied alone and all together, the analyzer
//!    finds no contradiction between the plan before and after
//!    (`verify_rewrite`), so optimization cannot change what the
//!    analysis promised.
//!
//! A fifth holds the evaluator's gate to the analyzer: over environments
//! that sometimes leave a table unbound, whole and sharded evaluation
//! refuse a plan exactly when `check` rejects it, with its diagnostics —
//! although the gate only analyzes a plan holding `⊗` or an unbound table.
//!
//! A deterministic test additionally pins the rule roster and drives each
//! rule on a plan where it actually fires.

use proptest::prelude::*;
use xst_analyze::{verify_rewrite, Emptiness};
use xst_core::ops::{Parallelism, Scope};
use xst_core::{xset, xtuple, ExtendedSet, Value, XstError, XstResult};
use xst_query::{
    check, default_rules, env_for, eval, eval_sharded, Bindings, Expr, Optimizer, ShardedBindings,
};
use xst_storage::route_members;
use xst_testkit::{arb_pair_relation, arb_set};

const TABLES: [&str; 3] = ["t0", "t1", "t2"];

/// Scope specs drawn from the shapes the rules pattern-match on.
fn arb_sigma() -> BoxedStrategy<ExtendedSet> {
    prop_oneof![
        Just(ExtendedSet::tuple([Value::Int(1)])),
        Just(ExtendedSet::tuple([Value::Int(2)])),
        Just(ExtendedSet::tuple([Value::Int(1), Value::Int(2)])),
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

/// Random expression trees over every operator the analyzer abstracts —
/// including `Cross`, whose runtime failure mode (scope collision) is
/// exactly what claim 1 is about.
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
        3 => leaf,
        1 => (arb_expr(depth - 1), arb_expr(depth - 1)).prop_map(|(a, b)| a.union(b)),
        1 => (arb_expr(depth - 1), arb_expr(depth - 1)).prop_map(|(a, b)| a.intersect(b)),
        1 => (arb_expr(depth - 1), arb_expr(depth - 1)).prop_map(|(a, b)| a.difference(b)),
        1 => (arb_expr(depth - 1), arb_expr(depth - 1)).prop_map(|(a, b)| a.cross(b)),
        1 => (arb_expr(depth - 1), arb_sigma(), arb_expr(depth - 1))
            .prop_map(|(r, s, a)| r.restrict(s, a)),
        1 => (arb_expr(depth - 1), arb_sigma()).prop_map(|(r, s)| r.domain(s)),
        1 => (arb_expr(depth - 1), arb_expr(depth - 1), arb_scope())
            .prop_map(|(r, a, sc)| r.image(a, sc)),
        1 => (arb_expr(depth - 1), arb_scope(), arb_expr(depth - 1), arb_scope())
            .prop_map(|(f, s, g, o)| f.rel_product(s, g, o)),
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Claim 1 (acceptance) + claim 2 (emptiness) + claim 3 (signature
    /// over-approximation), checked together on one evaluation.
    #[test]
    fn accepted_plans_evaluate_soundly(expr in arb_expr(3), env in arb_env()) {
        let analysis = check(&expr, &env);
        let result = eval(&expr, &env);

        if analysis.is_rejected() {
            // Rejection claims the plan provably fails; it must fail.
            prop_assert!(result.is_err(), "rejected plan evaluated fine: {expr}");
            return Ok(());
        }
        if analysis.proved_safe() {
            prop_assert!(
                result.is_ok(),
                "proved-safe plan failed at runtime: {expr}: {:?}",
                result.err()
            );
        }
        let Ok(set) = result else { return Ok(()) };

        // Emptiness verdicts are sound in both provable directions.
        match analysis.root.set.emptiness {
            Emptiness::ProvablyEmpty => {
                prop_assert!(set.is_empty(), "ProvablyEmpty but got {set}")
            }
            Emptiness::ProvablyNonEmpty => {
                prop_assert!(!set.is_empty(), "ProvablyNonEmpty but got ∅ for {expr}")
            }
            Emptiness::Unknown => {}
        }

        // Cardinality bounds bracket the observed cardinality.
        let card = set.card() as u64;
        let bounds = &analysis.root.set.card;
        prop_assert!(bounds.lo <= card, "card {card} below lower bound for {expr}");
        if let Some(hi) = bounds.hi {
            prop_assert!(card <= hi, "card {card} above upper bound {hi} for {expr}");
        }

        // The inferred signature admits every observed member scope.
        for (_, scope) in set.iter() {
            prop_assert!(
                analysis.root.set.sig.admits(scope),
                "scope {scope} escapes inferred sig {} for {expr}",
                analysis.root.set.sig
            );
        }
    }

    /// Claim 4: each rule alone, driven to fixpoint, yields a plan whose
    /// analysis does not contradict the original's.
    #[test]
    fn each_rule_preserves_signatures(expr in arb_expr(3), env in arb_env()) {
        let aenv = env_for(&expr, &env);
        let rule_count = default_rules().len();
        for i in 0..rule_count {
            let mut rules = default_rules();
            let rule = rules.swap_remove(i);
            let name = rule.name();
            let (optimized, _trace) = Optimizer::with_rules(vec![rule]).optimize(&expr);
            if let Err(m) = verify_rewrite(&expr, &optimized, &aenv) {
                prop_assert!(false, "{name}: {m} on {expr}");
            }
        }
    }

    /// Claim 4 for the full default rule set at fixpoint — what `eval`
    /// actually runs.
    #[test]
    fn full_optimizer_preserves_signatures(expr in arb_expr(3), env in arb_env()) {
        let (optimized, _trace) = Optimizer::new().optimize(&expr);
        let aenv = env_for(&expr, &env);
        if let Err(m) = verify_rewrite(&expr, &optimized, &aenv) {
            prop_assert!(false, "{m} on {expr}");
        }
    }
}

/// The diagnostics a refusal carries, or `None` for any other outcome.
fn refusal<T>(result: &XstResult<T>) -> Option<&[String]> {
    match result {
        Err(XstError::Analysis { diagnostics }) => Some(diagnostics),
        _ => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Claim 5: the gate refuses exactly what the analyzer rejects, with
    /// the analyzer's diagnostics, whole and over a 2-way shard split.
    #[test]
    fn the_gate_refuses_exactly_what_check_rejects(
        expr in arb_expr(3),
        env in arb_env(),
        unbind in 0..2 * TABLES.len(),
    ) {
        let mut env = env;
        if let Some(name) = TABLES.get(unbind) {
            env.remove(*name);
        }
        let want: Option<Vec<String>> = check(&expr, &env)
            .to_error()
            .map(|e| e.diagnostics.iter().map(ToString::to_string).collect());
        let whole = eval(&expr, &env);
        prop_assert_eq!(refusal(&whole), want.as_deref(), "whole: {}", expr);

        let sharded: ShardedBindings = env
            .iter()
            .map(|(name, set)| (name.clone(), route_members(set, 2)))
            .collect();
        let scattered = eval_sharded(&expr, &sharded, &Parallelism::sequential());
        prop_assert_eq!(refusal(&scattered), want.as_deref(), "sharded: {}", expr);
        if let (Ok(w), Ok((s, _))) = (&whole, &scattered) {
            prop_assert_eq!(w, s, "whole vs sharded: {}", expr);
        }
    }
}

/// The rule roster is pinned: a new rule must be added here (and thereby
/// enter the verification tests above), and each rule is exercised on a
/// plan where it actually fires, with the rewrite machine-verified.
#[test]
fn every_default_rule_fires_and_verifies() {
    let names: Vec<&str> = default_rules().iter().map(|r| r.name()).collect();
    assert_eq!(
        names,
        [
            "empty-prune",
            "boolean-idempotence",
            "image-fusion",
            "domain-fusion",
            "input-union-merge",
            "composition-fusion",
            "analyzer-empty-prune",
        ],
        "default_rules() roster changed; extend the trigger table below"
    );

    let t = || Expr::table("t0");
    let sig1 = || ExtendedSet::tuple([Value::Int(1)]);
    let rel = || {
        Expr::lit(xset![
            xtuple!["a", "x"].into_value(),
            xtuple!["b", "y"].into_value()
        ])
    };
    // One plan per rule, in roster order, chosen so the rule fires.
    let triggers: Vec<Expr> = vec![
        // empty-prune: ∅ ∪ t
        Expr::lit(ExtendedSet::empty()).union(t()),
        // boolean-idempotence: t ∪ t
        t().union(t()),
        // image-fusion: domain(restrict(r, σ, a), σ)
        rel().restrict(sig1(), t()).domain(sig1()),
        // domain-fusion: domain(domain(r, σ), σ)
        rel().domain(sig1()).domain(sig1()),
        // input-union-merge: q[a] ∪ q[b] (shared relation)
        rel()
            .image(t(), Scope::pairs())
            .union(rel().image(Expr::table("t1"), Scope::pairs())),
        // composition-fusion: g[f[x]] with literal carriers
        rel().image(rel().image(t(), Scope::pairs()), Scope::pairs()),
        // analyzer-empty-prune: an intersection of scope-disjoint literals
        // (the plain empty-prune rule cannot see it — neither side is ∅)
        Expr::lit(xset!["a" => 1, "b" => 1])
            .intersect(Expr::lit(xset!["a" => 2]))
            .union(t()),
    ];

    let mut bindings = Bindings::new();
    bindings.insert("t0".into(), xset!["m"]);
    bindings.insert("t1".into(), xset!["n"]);

    for (i, trigger) in triggers.iter().enumerate() {
        let mut rules = default_rules();
        let rule = rules.swap_remove(i);
        let name = rule.name();
        let (optimized, trace) = Optimizer::with_rules(vec![rule]).optimize(trigger);
        assert!(
            trace.iter().any(|step| step.rule == name),
            "rule {name} did not fire on its trigger plan {trigger}"
        );
        let aenv = env_for(trigger, &bindings);
        verify_rewrite(trigger, &optimized, &aenv)
            .unwrap_or_else(|m| panic!("rule {name} failed verification: {m}"));
    }
}
