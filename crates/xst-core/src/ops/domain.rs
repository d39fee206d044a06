//! σ-Domain (Definition 7.4) — the XST generalization of CST's domain/range
//! extraction.
//!
//! ```text
//! 𝔇_σ(R) = { x^s : ∃z,w ( z ∈_w R ∧ x = z^{/σ/} ≠ ∅ ∧ s = w^{/σ/} ) }
//! ```
//!
//! Every member `z` of `R` is re-scoped by `σ`; non-empty projections are
//! collected, each scoped by the projection of its own membership scope.
//! With `σ = ⟨1⟩` over a set of pairs this is the classical 1-domain (as
//! singleton tuples); with `σ = ⟨2⟩` the classical 2-domain; arbitrary `σ`
//! projects, permutes, and duplicates positions — the paper's examples
//! include `𝔇_⟨3,1⟩({{a^1,b^2,c^3}^{...}}) = {⟨c,a⟩^{...}}`.

use crate::ops::rescope::ScopeMap;
use crate::set::{ExtendedSet, Member, SetBuilder};
use crate::value::Value;

/// `𝔇_σ(R)` (Definition 7.4).
pub fn sigma_domain(r: &ExtendedSet, sigma: &ExtendedSet) -> ExtendedSet {
    let sigma = ScopeMap::new(sigma);
    let mut b = SetBuilder::new();
    for m in r.members() {
        if let Some(projected) = project(&sigma, m) {
            b.member(projected);
        }
    }
    b.build()
}

/// One member `z^w` of `R` as 𝔇_σ holds it, `z^{/σ/}` scoped by
/// `w^{/σ/}`, or `None` when `z^{/σ/} = ∅`. The fused image projects
/// through it too, so both read σ once per call.
pub(crate) fn project(sigma: &ScopeMap, m: &Member) -> Option<Member> {
    let x = sigma.apply_value(&m.element);
    if x.is_empty() {
        return None; // Def 7.4 requires z^{/σ/} ≠ ∅
    }
    Some(Member::new(
        Value::Set(x),
        Value::Set(sigma.apply_value(&m.scope)),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::boolean::{difference, intersection, union};
    use crate::{xset, xtuple};

    #[test]
    fn paper_example_7_4_first() {
        // 𝔇_{A^1, C^2}({{a^A, b^B, c^C}}) = {{a^1, c^2}}
        let inner = xset!["a" => "A", "b" => "B", "c" => "C"];
        let r = xset![inner.into_value()];
        let sigma = xset!["A" => 1, "C" => 2];
        let expected_inner = xset!["a" => 1, "c" => 2];
        let expected = xset![expected_inner.into_value() => Value::empty_set()];
        assert_eq!(sigma_domain(&r, &sigma), expected);
    }

    #[test]
    fn paper_example_7_4_second() {
        // 𝔇_⟨3,1⟩({{a^1,b^2,c^3}^{A^1,B^2,C^3}}) = {⟨c,a⟩^{⟨C,A⟩}}
        let z = xtuple!["a", "b", "c"];
        let w = xset!["A" => 1, "B" => 2, "C" => 3];
        let r = xset![z.into_value() => w.into_value()];
        let sigma = xtuple![3, 1]; // {3^1, 1^2}
        let expected = xset![xtuple!["c", "a"].into_value() => xtuple!["C", "A"].into_value()];
        assert_eq!(sigma_domain(&r, &sigma), expected);
    }

    #[test]
    fn paper_example_7_4_third() {
        // 𝔇_{3^1,1^2,y^9,v^5,v^7,R^A}({{a^1,b^2,c^3}^{x^y,w^v,z^R}})
        //   = {⟨c,a⟩^{x^9, w^5, w^7, z^A}}
        // (the scope projection keeps whatever scope-parts σ maps; the
        // duplicate mapping of v fans w out to two scopes).
        let z = xtuple!["a", "b", "c"];
        let w = xset!["x" => "y", "w" => "v", "z" => "R"];
        let r = xset![z.into_value() => w.into_value()];
        let sigma = xset![3 => 1, 1 => 2, "y" => 9, "v" => 5, "v" => 7, "R" => "A"];
        let expected_elem = xtuple!["c", "a"];
        let expected_scope = xset!["x" => 9, "w" => 5, "w" => 7, "z" => "A"];
        assert_eq!(
            sigma_domain(&r, &sigma),
            xset![expected_elem.into_value() => expected_scope.into_value()]
        );
    }

    #[test]
    fn classical_pair_domains() {
        // Over pairs, σ=⟨1⟩ extracts first components as 1-tuples,
        // σ=⟨2⟩ the second components.
        let r = xset![
            ExtendedSet::pair("a", "x").into_value(),
            ExtendedSet::pair("b", "y").into_value()
        ];
        let d1 = sigma_domain(&r, &xtuple![1]);
        let d2 = sigma_domain(&r, &xtuple![2]);
        assert_eq!(
            d1,
            xset![xtuple!["a"].into_value(), xtuple!["b"].into_value()]
        );
        assert_eq!(
            d2,
            xset![xtuple!["x"].into_value(), xtuple!["y"].into_value()]
        );
    }

    #[test]
    fn empty_sigma_yields_empty_domain() {
        // Consequence 7.1(e): 𝔇_∅(R) = ∅.
        let r = xset![ExtendedSet::pair("a", "x").into_value()];
        assert!(sigma_domain(&r, &ExtendedSet::empty()).is_empty());
    }

    #[test]
    fn atom_members_are_skipped() {
        // Atoms re-scope to ∅ and Def 7.4 drops empty projections.
        let r = xset!["atom", ExtendedSet::pair("a", "x").into_value()];
        let d = sigma_domain(&r, &xtuple![1]);
        assert_eq!(d, xset![xtuple!["a"].into_value()]);
    }

    #[test]
    fn consequence_7_1_a_union() {
        // 𝔇_σ(R ∪ Q) = 𝔇_σ(R) ∪ 𝔇_σ(Q)
        let r = xset![ExtendedSet::pair("a", "x").into_value()];
        let q = xset![ExtendedSet::pair("b", "y").into_value()];
        let sigma = xtuple![1];
        assert_eq!(
            sigma_domain(&union(&r, &q), &sigma),
            union(&sigma_domain(&r, &sigma), &sigma_domain(&q, &sigma))
        );
    }

    #[test]
    fn consequence_7_1_b_intersection_is_contained() {
        // 𝔇_σ(R ∩ Q) ⊆ 𝔇_σ(R) ∩ 𝔇_σ(Q), possibly strictly.
        let r = xset![
            ExtendedSet::pair("a", "x").into_value(),
            ExtendedSet::pair("b", "y").into_value()
        ];
        let q = xset![
            ExtendedSet::pair("a", "z").into_value(),
            ExtendedSet::pair("b", "y").into_value()
        ];
        let sigma = xtuple![1];
        let lhs = sigma_domain(&intersection(&r, &q), &sigma);
        let rhs = intersection(&sigma_domain(&r, &sigma), &sigma_domain(&q, &sigma));
        assert!(lhs.is_subset(&rhs));
        // Strict here: ⟨a⟩ is in both domains but ⟨a,x⟩ ∉ R∩Q.
        assert!(lhs.card() < rhs.card());
    }

    #[test]
    fn consequence_7_1_c_difference() {
        // 𝔇_σ(R) ~ 𝔇_σ(Q) ⊆ 𝔇_σ(R ~ Q)
        let r = xset![
            ExtendedSet::pair("a", "x").into_value(),
            ExtendedSet::pair("b", "y").into_value()
        ];
        let q = xset![ExtendedSet::pair("b", "y").into_value()];
        let sigma = xtuple![1];
        let lhs = difference(&sigma_domain(&r, &sigma), &sigma_domain(&q, &sigma));
        let rhs = sigma_domain(&difference(&r, &q), &sigma);
        assert!(lhs.is_subset(&rhs));
    }

    #[test]
    fn consequence_7_1_d_monotone() {
        // R ⊆ Q → 𝔇_σ(R) ⊆ 𝔇_σ(Q)
        let q = xset![
            ExtendedSet::pair("a", "x").into_value(),
            ExtendedSet::pair("b", "y").into_value()
        ];
        let r = xset![ExtendedSet::pair("a", "x").into_value()];
        let sigma = xtuple![2];
        assert!(r.is_subset(&q));
        assert!(sigma_domain(&r, &sigma).is_subset(&sigma_domain(&q, &sigma)));
    }
}
