//! Bridge between [`Expr`] and the `xst-analyze` static analyzer.
//!
//! The analyzer lives below this crate (it depends only on `xst-core`) and
//! walks plans through the [`AbstractPlan`] trait; this module implements
//! the trait for [`Expr`] and packages the two ways the query layer uses
//! analysis:
//!
//! * [`check`] — analyze an expression against concrete bindings (a
//!   *closed* environment: unbound tables are definite errors) and return
//!   the full [`Analysis`] for inspection (`.check` in the shell, the
//!   soundness harness);
//! * [`gate`] — the evaluator entry gate: reject plans whose analysis
//!   carries error-severity diagnostics with a structured
//!   [`XstError::Analysis`]. Errors are reserved for plans that provably
//!   cannot evaluate, so gating never rejects a plan that would have
//!   evaluated successfully — and since only an unbound table or a `⊗`
//!   can carry one, a plan with neither is passed on its shape alone.

use crate::expr::{Bindings, Expr};
use std::borrow::Cow;
use xst_analyze::{analyze, AbstractPlan, Analysis, AnalysisEnv, PlanShape};
use xst_core::{XstError, XstResult};

impl AbstractPlan for Expr {
    fn shape(&self) -> PlanShape<'_, Self> {
        match self {
            Expr::Literal(s) => PlanShape::Literal(s),
            Expr::Table(name) => PlanShape::Table(name),
            Expr::Union(a, b) => PlanShape::Union(a, b),
            Expr::Intersect(a, b) => PlanShape::Intersect(a, b),
            Expr::Difference(a, b) => PlanShape::Difference(a, b),
            Expr::Cross(a, b) => PlanShape::Cross(a, b),
            Expr::Restrict { r, sigma, a } => PlanShape::Restrict { r, sigma, a },
            Expr::Domain { r, sigma } => PlanShape::Domain { r, sigma },
            Expr::Image { r, a, scope } => PlanShape::Image { r, a, scope },
            Expr::RelProduct { f, sigma, g, omega } => PlanShape::RelProduct { f, sigma, g, omega },
        }
    }

    fn describe(&self) -> String {
        self.to_string()
    }
}

/// Build the closed analysis environment for `expr` over `bindings`:
/// only tables the expression actually names are abstracted.
pub fn env_for(expr: &Expr, bindings: &Bindings) -> AnalysisEnv {
    let mut env = AnalysisEnv::closed();
    for name in expr.tables() {
        if let Some(s) = bindings.get(name) {
            env.bind(name, s);
        }
    }
    env
}

/// Statically analyze `expr` against `bindings` without evaluating it.
pub fn check(expr: &Expr, bindings: &Bindings) -> Analysis {
    analyze(expr, &env_for(expr, bindings))
}

/// The evaluator's entry gate: reject provably-failing plans up front.
///
/// Childs' operations are total over extended sets except `⊗`
/// (Definition 9.3), so the analyzer refuses a plan for two reasons only:
/// a table the environment does not bind (`bound`), and a `⊗` it proves
/// collides. A plan with no `⊗` over bound tables therefore passes on its
/// shape, and no table is abstracted — or, for a sharded caller, gathered:
/// `whole` is called only when [`check`] runs. Refusals and their text are
/// exactly `check`'s. The `query.gate` span's `analyzed` attribute says
/// which way the verdict came (0: names, 1: analysis).
pub(crate) fn gate<'b>(
    expr: &Expr,
    bound: impl Fn(&str) -> bool,
    whole: impl FnOnce() -> Cow<'b, Bindings>,
) -> XstResult<()> {
    fn may_refuse(e: &Expr, bound: &dyn Fn(&str) -> bool) -> bool {
        match e {
            Expr::Cross(..) => true,
            Expr::Table(name) => !bound(name),
            _ => e.children().any(|c| may_refuse(c, bound)),
        }
    }
    let mut span = xst_obs::span!("query.gate");
    let analyzed = may_refuse(expr, &bound);
    span.attr("analyzed", u8::from(analyzed));
    if !analyzed {
        return Ok(());
    }
    match check(expr, &whole()).to_error() {
        Some(e) => Err(XstError::Analysis {
            diagnostics: e.diagnostics.iter().map(|d| d.to_string()).collect(),
        }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xst_analyze::{DiagCode, Emptiness, Severity};
    use xst_core::{xset, xtuple, ExtendedSet};

    fn gate_whole(e: &Expr, b: &Bindings) -> XstResult<()> {
        gate(e, |t| b.contains_key(t), || Cow::Borrowed(b))
    }

    #[test]
    fn only_a_refusable_plan_reaches_the_tables() {
        let mut b = Bindings::new();
        b.insert("x".into(), xset![1, 2]);
        let untouched = || -> Cow<'_, Bindings> { panic!("a ⊗-free plan over bound tables") };
        let e = Expr::table("x")
            .intersect(Expr::lit(xset![2]))
            .domain(xtuple![1]);
        assert!(gate(&e, |t| b.contains_key(t), untouched).is_ok());
        let mut analyzed = 0;
        for e in [
            Expr::table("x").cross(Expr::table("x")),
            Expr::table("nope"),
        ] {
            let _ = gate(
                &e,
                |t| b.contains_key(t),
                || {
                    analyzed += 1;
                    Cow::Borrowed(&b)
                },
            );
        }
        assert_eq!(analyzed, 2);
    }

    #[test]
    fn well_scoped_plans_pass_with_exact_results() {
        let mut b = Bindings::new();
        b.insert("x".into(), xset![1, 2]);
        b.insert("y".into(), xset![2, 3]);
        let e = Expr::table("x").intersect(Expr::table("y"));
        let a = check(&e, &b);
        assert!(!a.is_rejected());
        assert!(a.proved_safe());
        assert_eq!(a.root.set.exact, Some(xset![2]));
        assert!(gate_whole(&e, &b).is_ok());
    }

    #[test]
    fn unbound_tables_are_gated_with_structured_errors() {
        let e = Expr::table("nope");
        let err = gate_whole(&e, &Bindings::new()).expect_err("unbound table");
        match err {
            XstError::Analysis { diagnostics } => {
                assert!(diagnostics[0].contains("unbound-table"), "{diagnostics:?}");
            }
            other => panic!("expected Analysis error, got {other}"),
        }
    }

    #[test]
    fn proven_cross_collisions_are_gated() {
        let mut b = Bindings::new();
        b.insert("bad".into(), xset![xset!["p" => 0].into_value()]);
        b.insert("bad2".into(), xset![xset!["q" => 0].into_value()]);
        let e = Expr::table("bad").cross(Expr::table("bad2"));
        let a = check(&e, &b);
        assert!(a.is_rejected());
        assert!(
            a.errors().any(|d| d.code == DiagCode::CrossCollision),
            "{:?}",
            a.diagnostics
        );
        assert!(gate_whole(&e, &b).is_err());
    }

    #[test]
    fn statically_empty_subplans_warn_but_evaluate() {
        let mut b = Bindings::new();
        b.insert("c".into(), xset!["a", "b"]); // classical: scope ∅
        b.insert("s".into(), xset!["a" => 1]); // scoped at 1
        let e = Expr::table("c").intersect(Expr::table("s"));
        let a = check(&e, &b);
        assert!(!a.is_rejected());
        assert_eq!(a.root.set.emptiness, Emptiness::ProvablyEmpty);
        assert!(a
            .warnings()
            .any(|d| d.code == DiagCode::EmptySubplan && d.severity == Severity::Warning));
        assert!(gate_whole(&e, &b).is_ok());
    }

    #[test]
    fn vacuous_specs_warn() {
        let mut b = Bindings::new();
        b.insert("r".into(), xset![ExtendedSet::pair("a", "x").into_value()]);
        let e = Expr::table("r").domain(ExtendedSet::empty());
        let a = check(&e, &b);
        assert!(!a.is_rejected());
        assert!(a.warnings().any(|d| d.code == DiagCode::VacuousSpec));
    }

    #[test]
    fn unprovable_cross_safety_withdraws_the_proof_only() {
        let mut b = Bindings::new();
        // Large enough to defeat the exact fold and the member scan? No —
        // simpler: non-tuple members on one side, tuple on the other, but
        // keep them abstract by going through an operator that erases the
        // tuple flags (Domain).
        b.insert("r".into(), xset![ExtendedSet::pair("a", "x").into_value()]);
        let big = ExtendedSet::classical((0..5000).map(xst_core::Value::Int));
        b.insert("big".into(), big);
        let e = Expr::table("big").cross(Expr::table("big"));
        let a = check(&e, &b);
        assert!(!a.is_rejected(), "{:?}", a.diagnostics);
        assert!(!a.proved_safe());
        assert!(a
            .warnings()
            .any(|d| d.code == DiagCode::MaybeCrossCollision));
    }

    #[test]
    fn tuple_only_tables_prove_cross_safety() {
        let mut b = Bindings::new();
        b.insert("t".into(), xset![xtuple!["a"].into_value()]);
        b.insert("u".into(), xset![xtuple!["x", "y"].into_value()]);
        let e = Expr::table("t").cross(Expr::table("u"));
        let a = check(&e, &b);
        assert!(a.proved_safe(), "{:?}", a.diagnostics);
    }
}
