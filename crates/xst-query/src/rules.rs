//! Rewrite rules, each justified by a numbered law of the paper.
//!
//! | rule | law |
//! |---|---|
//! | [`ImageFusion`] | Consequence C.1(f): `Q\[A\]_⟨σ,γ⟩ = 𝔇_γ(Q |_σ A)` |
//! | [`EmptyPrune`] | C.1(g) and 7.1(e): empty operands / specs collapse |
//! | [`BooleanIdempotence`] | `A∪A = A`, `A∩A = A`, `A~A = ∅` |
//! | [`InputUnionMerge`] | C.1(a): `Q\[A∪B\]_σ = Q\[A\]_σ ∪ Q\[B\]_σ`, applied right-to-left |
//! | [`DomainFusion`] | Definitions 7.3/7.4: `𝔇_σ(𝔇_ω(R)) = 𝔇_{ω;σ}(R)` |
//! | [`CompositionFusion`] | Theorem 11.2: nested applications fuse into one relative product |

use crate::expr::Expr;
use xst_analyze::{analyze, AnalysisEnv, Emptiness};
use xst_core::process::Process;
use xst_core::{ExtendedSet, Member, Scope};

/// A rewrite rule: may propose a replacement for one node.
pub trait Rule {
    /// Rule name shown in the optimizer trace.
    fn name(&self) -> &'static str;
    /// The paper law justifying the rewrite.
    fn law(&self) -> &'static str;
    /// Attempt to rewrite this node (children are already optimized).
    fn apply(&self, expr: &Expr) -> Option<Expr>;
}

/// Fuse `𝔇_σ2(R |_σ1 A)` into the single-pass `R[A]_⟨σ1,σ2⟩` operator.
pub struct ImageFusion;

impl Rule for ImageFusion {
    fn name(&self) -> &'static str {
        "image-fusion"
    }
    fn law(&self) -> &'static str {
        "Consequence C.1(f)"
    }
    fn apply(&self, expr: &Expr) -> Option<Expr> {
        let Expr::Domain { r, sigma: sigma2 } = expr else {
            return None;
        };
        let Expr::Restrict {
            r: inner,
            sigma: sigma1,
            a,
        } = r.as_ref()
        else {
            return None;
        };
        Some(Expr::Image {
            r: inner.clone(),
            a: a.clone(),
            scope: Scope::new(sigma1.clone(), sigma2.clone()),
        })
    }
}

/// Collapse operations with statically-empty operands or specs.
pub struct EmptyPrune;

impl Rule for EmptyPrune {
    fn name(&self) -> &'static str {
        "empty-prune"
    }
    fn law(&self) -> &'static str {
        "Consequences C.1(g), 7.1(e)"
    }
    fn apply(&self, expr: &Expr) -> Option<Expr> {
        let empty = || Expr::lit(ExtendedSet::empty());
        match expr {
            Expr::Union(a, b) if a.is_empty_literal() => Some(b.as_ref().clone()),
            Expr::Union(a, b) if b.is_empty_literal() => Some(a.as_ref().clone()),
            Expr::Intersect(a, b) if a.is_empty_literal() || b.is_empty_literal() => Some(empty()),
            Expr::Difference(a, _) if a.is_empty_literal() => Some(empty()),
            Expr::Difference(a, b) if b.is_empty_literal() => Some(a.as_ref().clone()),
            Expr::Restrict { r, a, .. } if r.is_empty_literal() || a.is_empty_literal() => {
                Some(empty())
            }
            Expr::Restrict { sigma, .. } if sigma.is_empty() => Some(empty()),
            Expr::Domain { r, .. } if r.is_empty_literal() => Some(empty()),
            Expr::Domain { sigma, .. } if sigma.is_empty() => Some(empty()),
            Expr::Image { r, a, .. } if r.is_empty_literal() || a.is_empty_literal() => {
                Some(empty())
            }
            Expr::Image { scope, .. } if scope.sigma1.is_empty() || scope.sigma2.is_empty() => {
                Some(empty())
            }
            Expr::Cross(a, b) if a.is_empty_literal() || b.is_empty_literal() => Some(empty()),
            Expr::RelProduct { f, g, .. } if f.is_empty_literal() || g.is_empty_literal() => {
                Some(empty())
            }
            _ => None,
        }
    }
}

/// `A ∪ A = A`, `A ∩ A = A`, `A ~ A = ∅` over structurally equal subtrees.
pub struct BooleanIdempotence;

impl Rule for BooleanIdempotence {
    fn name(&self) -> &'static str {
        "boolean-idempotence"
    }
    fn law(&self) -> &'static str {
        "set idempotence laws"
    }
    fn apply(&self, expr: &Expr) -> Option<Expr> {
        match expr {
            Expr::Union(a, b) | Expr::Intersect(a, b) if a == b => Some(a.as_ref().clone()),
            Expr::Difference(a, b) if a == b => Some(Expr::lit(ExtendedSet::empty())),
            _ => None,
        }
    }
}

/// `Q[A]_σ ∪ Q[B]_σ → Q[A ∪ B]_σ`: one pass over the relation.
pub struct InputUnionMerge;

impl Rule for InputUnionMerge {
    fn name(&self) -> &'static str {
        "input-union-merge"
    }
    fn law(&self) -> &'static str {
        "Consequence C.1(a)"
    }
    fn apply(&self, expr: &Expr) -> Option<Expr> {
        let Expr::Union(l, r) = expr else { return None };
        let (
            Expr::Image {
                r: q1,
                a: a1,
                scope: s1,
            },
            Expr::Image {
                r: q2,
                a: a2,
                scope: s2,
            },
        ) = (l.as_ref(), r.as_ref())
        else {
            return None;
        };
        (q1 == q2 && s1 == s2).then(|| Expr::Image {
            r: q1.clone(),
            a: Box::new(Expr::Union(a1.clone(), a2.clone())),
            scope: s1.clone(),
        })
    }
}

/// Compose two re-scope specs: re-scoping by `first` then by `second`
/// equals re-scoping once by `spec_compose(first, second)`.
pub fn spec_compose(first: &ExtendedSet, second: &ExtendedSet) -> ExtendedSet {
    // first member (old ↦ mid), second member (mid ↦ new) → (old ↦ new).
    let mut members = Vec::new();
    for m1 in first.members() {
        for new_scope in second.scopes_of(&m1.scope) {
            members.push(Member::new(m1.element.clone(), new_scope.clone()));
        }
    }
    ExtendedSet::from_members(members)
}

/// `𝔇_σ(𝔇_ω(R)) → 𝔇_{ω;σ}(R)`.
pub struct DomainFusion;

impl Rule for DomainFusion {
    fn name(&self) -> &'static str {
        "domain-fusion"
    }
    fn law(&self) -> &'static str {
        "Definitions 7.3/7.4 (re-scope composition)"
    }
    fn apply(&self, expr: &Expr) -> Option<Expr> {
        let Expr::Domain { r, sigma } = expr else {
            return None;
        };
        let Expr::Domain {
            r: inner,
            sigma: omega,
        } = r.as_ref()
        else {
            return None;
        };
        Some(Expr::Domain {
            r: inner.clone(),
            sigma: spec_compose(omega, sigma),
        })
    }
}

/// Fuse a pipeline of two literal-carrier applications into one:
/// `g[f[x]_σ]_ω → h[x]_τ` with `h_(τ) = g_(ω) ∘ f_(σ)` (Theorem 11.2).
pub struct CompositionFusion;

impl Rule for CompositionFusion {
    fn name(&self) -> &'static str {
        "composition-fusion"
    }
    fn law(&self) -> &'static str {
        "Definition 11.1 / Theorem 11.2"
    }
    fn apply(&self, expr: &Expr) -> Option<Expr> {
        let Expr::Image {
            r: g_expr,
            a,
            scope: omega,
        } = expr
        else {
            return None;
        };
        let Expr::Literal(g_graph) = g_expr.as_ref() else {
            return None;
        };
        let Expr::Image {
            r: f_expr,
            a: x,
            scope: sigma,
        } = a.as_ref()
        else {
            return None;
        };
        let Expr::Literal(f_graph) = f_expr.as_ref() else {
            return None;
        };
        let f = Process::new(f_graph.clone(), sigma.clone());
        let g = Process::new(g_graph.clone(), omega.clone());
        let h = Process::compose(&g, &f).ok()?;
        Some(Expr::Image {
            r: Box::new(Expr::Literal(h.graph)),
            a: x.clone(),
            scope: h.scope,
        })
    }
}

/// Member-scan budget the analyzer gets inside the optimizer: rewriting
/// happens once per plan, so it is worth scanning far larger literals than
/// the per-evaluation gate does.
const PRUNE_SCAN_CAP: usize = 1 << 20;

/// Rewrite subplans the static analyzer proves empty to `∅`.
///
/// Goes beyond [`EmptyPrune`]'s syntactic checks: the analyzer propagates
/// scope signatures bottom-up, so e.g. an intersection of two non-empty
/// sets whose members provably carry disjoint scopes collapses — before
/// any kernel, pool, or WAL cost is paid. Tables are analyzed under an
/// *open* environment (the optimizer has no bindings), which abstracts
/// them to ⊤ — never `ProvablyEmpty` — so no table-dependent subplan is
/// ever pruned. Nodes carrying proven cross-collisions analyze to unknown
/// emptiness and are likewise left for the evaluator gate to report.
pub struct AnalyzerPrune;

impl Rule for AnalyzerPrune {
    fn name(&self) -> &'static str {
        "analyzer-empty-prune"
    }
    fn law(&self) -> &'static str {
        "static emptiness analysis (scope-signature disjointness)"
    }
    fn apply(&self, expr: &Expr) -> Option<Expr> {
        // Only node types with a *local* emptiness proof are worth the
        // analysis: disjoint signatures (intersect), an empty σ or input
        // (restrict/domain/image), an empty operand (cross, rel-product).
        // Union and difference are empty only when a child is, and the
        // rule visits children anyway — analyzing the parent too would
        // just re-scan the same subtrees without adding pruning power.
        // Leaves are already minimal (∅ literals included).
        if matches!(
            expr,
            Expr::Literal(_) | Expr::Table(_) | Expr::Union(_, _) | Expr::Difference(_, _)
        ) {
            return None;
        }
        let env = AnalysisEnv::open().with_scan_cap(PRUNE_SCAN_CAP);
        let analysis = analyze(expr, &env);
        (analysis.root.set.emptiness == Emptiness::ProvablyEmpty)
            .then(|| Expr::lit(ExtendedSet::empty()))
    }
}

/// The default rule set, in application order.
pub fn default_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(EmptyPrune),
        Box::new(BooleanIdempotence),
        Box::new(ImageFusion),
        Box::new(DomainFusion),
        Box::new(InputUnionMerge),
        Box::new(CompositionFusion),
        Box::new(AnalyzerPrune),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval;
    use crate::expr::Bindings;
    use xst_core::ops::{rescope_by_scope, sigma_domain};
    use xst_core::{xset, xtuple};

    #[test]
    fn image_fusion_rewrites() {
        let e = Expr::table("f")
            .restrict(xtuple![1], Expr::table("a"))
            .domain(xtuple![2]);
        let rewritten = ImageFusion.apply(&e).unwrap();
        assert!(matches!(rewritten, Expr::Image { .. }));
    }

    #[test]
    fn spec_compose_law_holds() {
        // Re-scope by ω then σ equals re-scope by ω;σ — on a concrete set.
        let a = xset!["a" => 1, "b" => 2, "c" => 3];
        let omega = xset![1 => "p", 2 => "q", 3 => "p"];
        let sigma = xset!["p" => 10, "q" => 20];
        let two_steps = rescope_by_scope(&rescope_by_scope(&a, &omega), &sigma);
        let one_step = rescope_by_scope(&a, &spec_compose(&omega, &sigma));
        assert_eq!(two_steps, one_step);
    }

    #[test]
    fn domain_fusion_preserves_semantics() {
        let r = xset![xtuple!["a", "b", "c"].into_value()];
        let mut b = Bindings::new();
        b.insert("r".into(), r);
        let two = Expr::table("r").domain(xtuple![3, 1]).domain(xtuple![2]);
        let fused = DomainFusion.apply(&two).unwrap();
        assert_eq!(eval(&two, &b).unwrap(), eval(&fused, &b).unwrap());
        // Inner 𝔇_⟨3,1⟩ yields ⟨c,a⟩; outer 𝔇_⟨2⟩ picks a.
        assert_eq!(
            eval(&two, &b).unwrap(),
            sigma_domain(
                &sigma_domain(b.get("r").unwrap(), &xtuple![3, 1]),
                &xtuple![2]
            )
        );
    }

    #[test]
    fn empty_prune_cases() {
        let empty = Expr::lit(ExtendedSet::empty());
        let t = Expr::table("t");
        assert_eq!(
            EmptyPrune.apply(&t.clone().union(empty.clone())),
            Some(t.clone())
        );
        assert!(EmptyPrune
            .apply(&t.clone().intersect(empty.clone()))
            .unwrap()
            .is_empty_literal());
        assert_eq!(
            EmptyPrune.apply(&t.clone().difference(empty.clone())),
            Some(t.clone())
        );
        assert!(EmptyPrune
            .apply(&empty.clone().difference(t.clone()))
            .unwrap()
            .is_empty_literal());
        assert!(EmptyPrune
            .apply(&t.clone().restrict(ExtendedSet::empty(), Expr::table("a")))
            .unwrap()
            .is_empty_literal());
        assert!(EmptyPrune
            .apply(&t.clone().image(empty.clone(), Scope::pairs()))
            .unwrap()
            .is_empty_literal());
        assert_eq!(EmptyPrune.apply(&t), None);
    }

    #[test]
    fn idempotence_cases() {
        let t = Expr::table("t");
        assert_eq!(
            BooleanIdempotence.apply(&t.clone().union(t.clone())),
            Some(t.clone())
        );
        assert_eq!(
            BooleanIdempotence.apply(&t.clone().intersect(t.clone())),
            Some(t.clone())
        );
        assert!(BooleanIdempotence
            .apply(&t.clone().difference(t.clone()))
            .unwrap()
            .is_empty_literal());
        assert_eq!(
            BooleanIdempotence.apply(&t.clone().union(Expr::table("u"))),
            None
        );
    }

    #[test]
    fn input_union_merge_preserves_semantics() {
        let f = xset![
            ExtendedSet::pair("a", "x").into_value(),
            ExtendedSet::pair("b", "y").into_value()
        ];
        let a = xset![xtuple!["a"].into_value()];
        let b2 = xset![xtuple!["b"].into_value()];
        let mut env = Bindings::new();
        env.insert("f".into(), f);
        env.insert("a".into(), a);
        env.insert("b".into(), b2);

        // C.1(a): same relation, different inputs.
        let e2 = Expr::table("f")
            .image(Expr::table("a"), Scope::pairs())
            .union(Expr::table("f").image(Expr::table("b"), Scope::pairs()));
        let m2 = InputUnionMerge.apply(&e2).unwrap();
        assert_eq!(eval(&e2, &env).unwrap(), eval(&m2, &env).unwrap());

        // Mismatched scopes do not merge.
        let e3 = Expr::table("f")
            .image(Expr::table("a"), Scope::pairs())
            .union(Expr::table("f").image(Expr::table("a"), Scope::pairs_inverse()));
        assert_eq!(InputUnionMerge.apply(&e3), None);
    }

    #[test]
    fn composition_fusion_preserves_semantics() {
        let f = xset![
            ExtendedSet::pair("a", "b").into_value(),
            ExtendedSet::pair("c", "d").into_value()
        ];
        let g = xset![
            ExtendedSet::pair("b", "z").into_value(),
            ExtendedSet::pair("d", "w").into_value()
        ];
        let pipeline = Expr::lit(g).image(
            Expr::lit(f).image(Expr::table("x"), Scope::pairs()),
            Scope::pairs(),
        );
        let fused = CompositionFusion.apply(&pipeline).unwrap();
        // The fused plan has one Image node instead of two.
        assert_eq!(fused.size(), 3);
        assert_eq!(pipeline.size(), 5);
        for input in ["a", "c", "q"] {
            let mut env = Bindings::new();
            env.insert("x".into(), xset![xtuple![input].into_value()]);
            assert_eq!(
                eval(&pipeline, &env).unwrap(),
                eval(&fused, &env).unwrap(),
                "input {input}"
            );
        }
    }

    #[test]
    fn analyzer_prune_collapses_scope_disjoint_intersections() {
        // Both operands non-empty, but every member scope differs: no
        // syntactic rule sees this, the analyzer's signatures do.
        let e = Expr::lit(xset!["a" => 1, "b" => 1]).intersect(Expr::lit(xset!["a" => 2]));
        assert!(AnalyzerPrune.apply(&e).unwrap().is_empty_literal());
        assert_eq!(EmptyPrune.apply(&e), None);
    }

    #[test]
    fn analyzer_prune_leaves_tables_and_unknowns_alone() {
        let t = Expr::table("t").intersect(Expr::table("u"));
        assert_eq!(AnalyzerPrune.apply(&t), None);
        let overlapping =
            Expr::lit(xset!["a" => 1, "c" => 2]).intersect(Expr::lit(xset!["a" => 1]));
        assert_eq!(AnalyzerPrune.apply(&overlapping), None);
    }

    #[test]
    fn rules_report_laws() {
        for rule in default_rules() {
            assert!(!rule.name().is_empty());
            assert!(!rule.law().is_empty());
        }
    }
}
