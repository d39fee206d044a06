//! XST Image (Definitions 3.10 / 7.1):
//! `R[A]_⟨σ1,σ2⟩ = 𝔇_σ2(R |_σ1 A)` — the σ2-Domain of the σ1-Restriction.
//!
//! Two implementations are provided:
//!
//! * [`image`] — the production operator, **fused**: the members of `R` are
//!   matched in canonical order by the restriction's witness cursor and
//!   each match is projected immediately, through σ2 read once per call;
//!   the intermediate restricted set is never materialized.
//! * [`image_two_pass`] — the paper-literal pipeline (restriction, then
//!   domain). Kept public because experiment **E4** measures the cost of the
//!   intermediate materialization; both must agree on every input (tested
//!   here and by property tests).

use crate::ops::domain::{project, sigma_domain};
use crate::ops::rescope::ScopeMap;
use crate::ops::restrict::{restriction_witnesses, sigma_restrict};
use crate::set::ExtendedSet;
use crate::value::Value;

/// A process scope `σ = ⟨σ1, σ2⟩`: the restriction spec paired with the
/// domain spec (Definition 3.10).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Scope {
    /// `σ1` — drives the σ-restriction (input side).
    pub sigma1: ExtendedSet,
    /// `σ2` — drives the σ-domain (output side).
    pub sigma2: ExtendedSet,
}

impl Scope {
    /// Construct from the two component specs.
    pub fn new(sigma1: ExtendedSet, sigma2: ExtendedSet) -> Scope {
        Scope { sigma1, sigma2 }
    }

    /// The pair-relation scope `⟨⟨1⟩, ⟨2⟩⟩` used throughout the paper for
    /// CST-style functions (input = position 1, output = position 2).
    pub fn pairs() -> Scope {
        Scope::new(ExtendedSet::tuple([1i64]), ExtendedSet::tuple([2i64]))
    }

    /// The inverse pair scope `τ = ⟨⟨2⟩, ⟨1⟩⟩` of Example 8.1(b).
    pub fn pairs_inverse() -> Scope {
        Scope::new(ExtendedSet::tuple([2i64]), ExtendedSet::tuple([1i64]))
    }

    /// Positional scope `⟨⟨i…⟩, ⟨j…⟩⟩` built from two tuples of positions.
    pub fn positional(input: &[i64], output: &[i64]) -> Scope {
        Scope::new(
            ExtendedSet::tuple(input.iter().copied().map(Value::Int)),
            ExtendedSet::tuple(output.iter().copied().map(Value::Int)),
        )
    }

    /// Swap the two component specs (the scope of the *inverse* behavior).
    pub fn flipped(&self) -> Scope {
        Scope::new(self.sigma2.clone(), self.sigma1.clone())
    }
}

/// `R[A]_⟨σ1,σ2⟩` — fused single-pass implementation.
pub fn image(r: &ExtendedSet, a: &ExtendedSet, scope: &Scope) -> ExtendedSet {
    let witnesses = restriction_witnesses(&scope.sigma1, a);
    if witnesses.is_empty() {
        return ExtendedSet::empty();
    }
    let sigma2 = ScopeMap::new(&scope.sigma2);
    let mut cursor = witnesses.cursor();
    r.members()
        .iter()
        .filter(|&m| cursor.matches(m))
        .filter_map(|m| project(&sigma2, m))
        .collect()
}

/// `𝔇_σ2(R |_σ1 A)` — the paper-literal two-pass pipeline.
pub fn image_two_pass(r: &ExtendedSet, a: &ExtendedSet, scope: &Scope) -> ExtendedSet {
    sigma_domain(&sigma_restrict(r, &scope.sigma1, a), &scope.sigma2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::boolean::{difference, intersection, union};
    use crate::{xset, xtuple};

    fn f_example_8_1() -> ExtendedSet {
        // f = { ⟨a,x⟩^⟨A,Z⟩, ⟨b,y⟩^⟨B,Y⟩, ⟨c,x⟩^⟨C,Z⟩ }
        xset![
            ExtendedSet::pair("a", "x").into_value() => xtuple!["A", "Z"].into_value(),
            ExtendedSet::pair("b", "y").into_value() => xtuple!["B", "Y"].into_value(),
            ExtendedSet::pair("c", "x").into_value() => xtuple!["C", "Z"].into_value()
        ]
    }

    /// Example 8.1(a): f[{⟨a⟩^⟨A⟩}]_σ = {⟨x⟩^⟨Z⟩} with σ = ⟨⟨1⟩,⟨2⟩⟩.
    #[test]
    fn example_8_1_a() {
        let f = f_example_8_1();
        let input = xset![xtuple!["a"].into_value() => xtuple!["A"].into_value()];
        let got = image(&f, &input, &Scope::pairs());
        assert_eq!(
            got,
            xset![xtuple!["x"].into_value() => xtuple!["Z"].into_value()]
        );
    }

    /// Example 8.1(b): f[{⟨x⟩^⟨Z⟩}]_τ = {⟨a⟩^⟨A⟩, ⟨c⟩^⟨C⟩} with τ = ⟨⟨2⟩,⟨1⟩⟩
    /// — the inverse behaves like a relation, not a function.
    #[test]
    fn example_8_1_b() {
        let f = f_example_8_1();
        let input = xset![xtuple!["x"].into_value() => xtuple!["Z"].into_value()];
        let got = image(&f, &input, &Scope::pairs_inverse());
        assert_eq!(
            got,
            xset![
                xtuple!["a"].into_value() => xtuple!["A"].into_value(),
                xtuple!["c"].into_value() => xtuple!["C"].into_value()
            ]
        );
    }

    /// Consequence C.1(f): the fused and two-pass images agree.
    #[test]
    fn fused_equals_two_pass() {
        let f = f_example_8_1();
        for input in [
            xset![xtuple!["a"].into_value() => xtuple!["A"].into_value()],
            xset![xtuple!["x"].into_value()],
            xset![xtuple!["q"].into_value()],
            ExtendedSet::empty(),
        ] {
            for scope in [Scope::pairs(), Scope::pairs_inverse()] {
                assert_eq!(
                    image(&f, &input, &scope),
                    image_two_pass(&f, &input, &scope),
                    "input {input:?} scope {scope:?}"
                );
            }
        }
    }

    /// Consequence C.1(g): Q[∅]_σ = ∅, ∅[A]_σ = ∅, Q[A]_∅ = ∅.
    #[test]
    fn consequence_c1_g_empties() {
        let f = f_example_8_1();
        let a = xset![xtuple!["a"].into_value()];
        let empty_scope = Scope::new(ExtendedSet::empty(), ExtendedSet::empty());
        assert!(image(&f, &ExtendedSet::empty(), &Scope::pairs()).is_empty());
        assert!(image(&ExtendedSet::empty(), &a, &Scope::pairs()).is_empty());
        assert!(image(&f, &a, &empty_scope).is_empty());
    }

    /// Consequence C.1(a): Q[A ∪ B]_σ = Q[A]_σ ∪ Q[B]_σ.
    #[test]
    fn consequence_c1_a_union_of_inputs() {
        let f = f_example_8_1();
        let a = xset![xtuple!["a"].into_value() => xtuple!["A"].into_value()];
        let b = xset![xtuple!["b"].into_value() => xtuple!["B"].into_value()];
        let s = Scope::pairs();
        assert_eq!(
            image(&f, &union(&a, &b), &s),
            union(&image(&f, &a, &s), &image(&f, &b, &s))
        );
    }

    /// Consequence C.1(b): Q[A ∩ B]_σ ⊆ Q[A]_σ ∩ Q[B]_σ.
    #[test]
    fn consequence_c1_b_intersection() {
        let f = f_example_8_1();
        let a = xset![
            xtuple!["a"].into_value() => xtuple!["A"].into_value(),
            xtuple!["b"].into_value() => xtuple!["B"].into_value()
        ];
        let b = xset![xtuple!["b"].into_value() => xtuple!["B"].into_value()];
        let s = Scope::pairs();
        assert!(image(&f, &intersection(&a, &b), &s)
            .is_subset(&intersection(&image(&f, &a, &s), &image(&f, &b, &s))));
    }

    /// Consequence C.1(c): Q[A]_σ ~ Q[B]_σ ⊆ Q[A ~ B]_σ.
    #[test]
    fn consequence_c1_c_difference() {
        let f = f_example_8_1();
        let a = xset![
            xtuple!["a"].into_value() => xtuple!["A"].into_value(),
            xtuple!["b"].into_value() => xtuple!["B"].into_value()
        ];
        let b = xset![xtuple!["b"].into_value() => xtuple!["B"].into_value()];
        let s = Scope::pairs();
        assert!(
            difference(&image(&f, &a, &s), &image(&f, &b, &s)).is_subset(&image(
                &f,
                &difference(&a, &b),
                &s
            ))
        );
    }

    /// Consequence C.1(d): A ⊆ B → Q[A]_σ ⊆ Q[B]_σ.
    #[test]
    fn consequence_c1_d_monotone() {
        let f = f_example_8_1();
        let a = xset![xtuple!["a"].into_value() => xtuple!["A"].into_value()];
        let b = union(
            &a,
            &xset![xtuple!["c"].into_value() => xtuple!["C"].into_value()],
        );
        let s = Scope::pairs();
        assert!(image(&f, &a, &s).is_subset(&image(&f, &b, &s)));
    }

    /// Consequences C.1(i)/(j)/(k): images of combined relations.
    #[test]
    fn consequence_c1_ijk_relation_combinations() {
        let q = xset![ExtendedSet::pair("a", "x").into_value()];
        let r = xset![
            ExtendedSet::pair("a", "y").into_value(),
            ExtendedSet::pair("b", "z").into_value()
        ];
        let a = xset![xtuple!["a"].into_value()];
        let s = Scope::pairs();
        // (i) union distributes
        assert_eq!(
            image(&union(&q, &r), &a, &s),
            union(&image(&q, &a, &s), &image(&r, &a, &s))
        );
        // (j) intersection contained
        assert!(image(&intersection(&q, &r), &a, &s)
            .is_subset(&intersection(&image(&q, &a, &s), &image(&r, &a, &s))));
        // (k) difference contained
        assert!(
            difference(&image(&q, &a, &s), &image(&r, &a, &s)).is_subset(&image(
                &difference(&q, &r),
                &a,
                &s
            ))
        );
    }

    /// Scope constructors behave as documented.
    #[test]
    fn scope_constructors() {
        assert_eq!(Scope::pairs().flipped(), Scope::pairs_inverse());
        let s = Scope::positional(&[1, 3], &[2, 4]);
        assert_eq!(s.sigma1, xtuple![1, 3]);
        assert_eq!(s.sigma2, xtuple![2, 4]);
    }
}
