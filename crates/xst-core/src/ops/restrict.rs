//! σ-Restriction (Definition 7.6) — the selection primitive of XST.
//!
//! ```text
//! R |_σ A = { z^w : z ∈_w R ∧ ∃a,s ( a ∈_s A ∧ a^{\σ\} ⊆ z ∧ s^{\σ\} ⊆ w ) }
//! ```
//!
//! A member `z` of `R` survives when some member `a` of `A`, re-scoped *by
//! element* through `σ`, is found inside `z` (and likewise its membership
//! scope inside `z`'s scope). With `σ = ⟨1⟩` over pairs this is the CST
//! restriction `R | A`; general `σ` selects on any combination of positions.
//!
//! # Subset reading (interpretive decision)
//!
//! The paper overloads `⊆`, noting at Definitions 2.1/5.1 that it often
//! means *non-empty* subset. Reading both conditions of 7.6 as plain subset
//! makes every memberless witness vacuously match all of `R` (so nothing
//! could ever be a function — contradicting Example 8.1); reading both as
//! non-empty subset makes classically-scoped members (`s = ∅`) match nothing
//! (contradicting Appendix B's derivations). The unique reading under which
//! *all* of the paper's worked examples hold is:
//!
//! * the **element** condition `a^{\σ\} ⊆ z` requires a **non-empty**
//!   subset — a witness must actually pin part of `z`;
//! * the **scope** condition `s^{\σ\} ⊆ w` is a plain subset — the empty
//!   constraint (classical scope) is satisfiable by any `w`.
//!
//! This is validated end-to-end by the Appendix A/B reproduction tests.
//!
//! # Pinned positions
//!
//! A restriction is a set given by a property, and the property only
//! constrains the positions σ names: a witness `a^{\σ\}` carries σ's
//! output scopes and nothing else. Deciding the restriction is then a
//! membership question per candidate member — is the element it holds at
//! a pinned scope one some witness holds there? So [`WitnessSet`] keeps,
//! for each scope its single-member witnesses carry, the set of elements
//! they carry at it, and answers with one hash probe. A candidate member
//! at any other scope is never looked up — for σ = ⟨1⟩ over pairs,
//! position 2 of every candidate costs a comparison. A handful of
//! witnesses is cheaper to merge-walk than to hash, so below a fixed count
//! the witnesses stay one canonical set instead; which of the two a
//! restriction uses is chosen once per call.
//!
//! Members order scope first, so a candidate's members at a pinned scope
//! are one contiguous run at a known place — for a pair `⟨k, v⟩ =
//! {k^1, v^2}` position 1 always leads — and a relation of such pairs is
//! clustered on its position-1 members. A range scan of the relation per
//! witness could therefore replace the probe where the pinned scope is
//! every candidate's least; it is not built yet. Such a range must keep
//! every member at the pinned scope: a candidate may hold two there
//! (`{k'^1, k^1}`), and one not the least of them can still match.

use crate::ops::boolean::disjoint_members;
use crate::ops::rescope::rescope_value_by_element;
use crate::set::{members_subset, ExtendedSet, Member, SetBuilder};
use crate::value::Value;
use std::collections::HashSet;

/// `R |_σ A` (Definition 7.6).
pub fn sigma_restrict(r: &ExtendedSet, sigma: &ExtendedSet, a: &ExtendedSet) -> ExtendedSet {
    let witnesses = restriction_witnesses(sigma, a);
    if witnesses.is_empty() {
        return ExtendedSet::empty();
    }
    let kept = r
        .members()
        .iter()
        .filter(|m| witnesses.matches(m))
        .cloned()
        .collect();
    // Filtering a canonical list keeps it sorted and unique.
    ExtendedSet::from_sorted_unique(kept)
}

/// Up to this many singleton witnesses, a candidate is merge-walked
/// against their canonical set; past it, each candidate member at a
/// pinned scope costs one hash probe instead. The walk's cost grows with
/// the witness count and the probe's does not: on EXPERIMENTS.md E7's
/// 20 000-pair rows the walk is cheaper through 6 witnesses and dearer
/// from 7 on. E7 straddles this line with its own copy,
/// `xst-bench`'s `experiments::E7_WALK_MAX`, and `tests/differential.rs`
/// with another; a test beside each reads it back out of this line.
const WALK_MAX: usize = 6;

/// Pre-computed `(a^{\σ\}, s^{\σ\})` witness pairs for a restriction,
/// partitioned for matching speed; reused by the fused image operator.
///
/// The overwhelmingly common witness shape — a single re-scoped member with
/// no scope constraint (every equality selection) — is probed in one of two
/// ways, chosen once from how many there are: a few are walked as one
/// merged canonical set, many are hashed by the scope they pin (see the
/// module docs). Everything else falls back to the general subset test.
///
/// Witnesses are matched one candidate at a time, whatever order the
/// candidates come in; the candidates' scope-first clustering is not read
/// here.
pub(crate) struct WitnessSet {
    /// The single-member, unconstrained-scope witnesses.
    singletons: Singletons,
    /// General witnesses: `(a^{\σ\}, s^{\σ\})` pairs.
    general: Vec<(ExtendedSet, ExtendedSet)>,
}

/// The single-member witnesses, in the one form their probe reads.
enum Singletons {
    /// At most [`WALK_MAX`] of them, as one canonical set: a candidate is
    /// tested with a single merge walk.
    Walk(ExtendedSet),
    /// More: per pinned scope, the elements witnesses carry at it — for
    /// σ = ⟨1⟩ one entry, scope 1, holding every key. Keyed by std's
    /// `RandomState`, since witnesses can arrive over the wire.
    Hash(Vec<(Value, HashSet<Value>)>),
}

/// The members of `v` read as a set (an atom has none), borrowed.
fn members_of(v: &Value) -> &[Member] {
    match v {
        Value::Set(s) => s.members(),
        _ => &[],
    }
}

impl WitnessSet {
    /// No witness can match anything.
    pub(crate) fn is_empty(&self) -> bool {
        let no_singletons = match &self.singletons {
            Singletons::Walk(set) => set.is_empty(),
            Singletons::Hash(by_scope) => by_scope.is_empty(),
        };
        no_singletons && self.general.is_empty()
    }

    /// Does one member of `R` satisfy the restriction condition for any
    /// witness?
    pub(crate) fn matches(&self, m: &Member) -> bool {
        let z = members_of(&m.element);
        let hit = match &self.singletons {
            Singletons::Walk(set) => !disjoint_members(z, set.members()),
            // A member at a pinned scope costs one probe; at any other
            // scope, a comparison per pinned scope.
            Singletons::Hash(by_scope) => z.iter().any(|zm| {
                by_scope
                    .iter()
                    .any(|(scope, elements)| *scope == zm.scope && elements.contains(&zm.element))
            }),
        };
        if hit {
            return true;
        }
        if self.general.is_empty() {
            return false;
        }
        let w = members_of(&m.scope);
        self.general
            .iter()
            .any(|(a_r, s_r)| members_subset(a_r.members(), z) && members_subset(s_r.members(), w))
    }
}

/// Paper-literal evaluation of `R |_σ A`: every witness is subset-tested
/// against every member, exactly as Definition 7.6 quantifies.
///
/// This is O(|R|·|A|) and exists as the **ablation baseline** for
/// experiment E7 (EXPERIMENTS.md); [`sigma_restrict`] computes the same
/// set through the partitioned witness structure. The two are asserted
/// equal by property tests and by the experiment harness on every run.
pub fn sigma_restrict_naive(r: &ExtendedSet, sigma: &ExtendedSet, a: &ExtendedSet) -> ExtendedSet {
    let witnesses: Vec<(ExtendedSet, ExtendedSet)> = a
        .members()
        .iter()
        .filter_map(|am| {
            let a_r = rescope_value_by_element(&am.element, sigma);
            if a_r.is_empty() {
                None
            } else {
                Some((a_r, rescope_value_by_element(&am.scope, sigma)))
            }
        })
        .collect();
    let mut b = SetBuilder::with_capacity(r.card());
    for m in r.members() {
        let z = m.element.as_set_view();
        let w = m.scope.as_set_view();
        if witnesses
            .iter()
            .any(|(a_r, s_r)| a_r.is_subset(&z) && s_r.is_subset(&w))
        {
            b.member(m.clone());
        }
    }
    b.build()
}

/// Build the witness structure for `R |_σ A`.
pub(crate) fn restriction_witnesses(sigma: &ExtendedSet, a: &ExtendedSet) -> WitnessSet {
    let mut singleton_members = Vec::new();
    let mut general = Vec::new();
    for am in a.members() {
        let a_r = rescope_value_by_element(&am.element, sigma);
        if a_r.is_empty() {
            // Memberless witness: can never non-vacuously pin a member of R
            // (see module docs).
            continue;
        }
        let s_r = rescope_value_by_element(&am.scope, sigma);
        if a_r.is_singleton() && s_r.is_empty() {
            singleton_members.extend(a_r.members().iter().cloned());
        } else {
            general.push((a_r, s_r));
        }
    }
    // Counted as the witnesses come, before equal ones merge.
    let count = singleton_members.len();
    let singletons = if count <= WALK_MAX {
        Singletons::Walk(ExtendedSet::from_members(singleton_members))
    } else {
        let mut by_scope: Vec<(Value, HashSet<Value>)> = Vec::new();
        for Member { element, scope } in singleton_members {
            let at = match by_scope.iter().position(|(s, _)| *s == scope) {
                Some(at) => at,
                None => {
                    by_scope.push((scope, HashSet::with_capacity(count)));
                    by_scope.len() - 1
                }
            };
            by_scope[at].1.insert(element);
        }
        Singletons::Hash(by_scope)
    };
    WitnessSet {
        singletons,
        general,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::boolean::union;
    use crate::{xset, xtuple};

    /// Appendix B: f |_⟨1⟩ {⟨a⟩} keeps only the tuple starting with `a`.
    #[test]
    fn appendix_b_restriction() {
        let f = xset![
            xtuple!["a", "a", "a", "b", "b"].into_value(),
            xtuple!["b", "b", "a", "a", "b"].into_value()
        ];
        let a = xset![xtuple!["a"].into_value()];
        let sigma1 = xtuple![1];
        assert_eq!(
            sigma_restrict(&f, &sigma1, &a),
            xset![xtuple!["a", "a", "a", "b", "b"].into_value()]
        );
    }

    /// Restriction on the second position (the inverse direction of
    /// Example 8.1): σ = ⟨2⟩ looks the witness up at position 2.
    #[test]
    fn restrict_on_second_position() {
        let f = xset![
            ExtendedSet::pair("a", "x").into_value(),
            ExtendedSet::pair("b", "y").into_value(),
            ExtendedSet::pair("c", "x").into_value()
        ];
        let a = xset![xtuple!["x"].into_value()];
        let got = sigma_restrict(&f, &xtuple![2], &a);
        assert_eq!(
            got,
            xset![
                ExtendedSet::pair("a", "x").into_value(),
                ExtendedSet::pair("c", "x").into_value()
            ]
        );
    }

    /// The scope condition `s^{\σ\} ⊆ w` constrains when the witness carries
    /// a scoped membership (Example 8.1 shape).
    #[test]
    fn scope_condition_constrains() {
        // R has one pair scoped ⟨A,Z⟩ and one scoped ⟨B,Y⟩.
        let r = xset![
            ExtendedSet::pair("a", "x").into_value() => xtuple!["A", "Z"].into_value(),
            ExtendedSet::pair("b", "x").into_value() => xtuple!["B", "Y"].into_value()
        ];
        // Witness ⟨x⟩ carried with scope ⟨Z⟩ at position 2.
        let a = xset![xtuple!["x"].into_value() => xtuple!["Z"].into_value()];
        let got = sigma_restrict(&r, &xtuple![2], &a);
        assert_eq!(
            got,
            xset![ExtendedSet::pair("a", "x").into_value() => xtuple!["A", "Z"].into_value()]
        );
    }

    /// A memberless witness (atom or ∅) never matches — the non-vacuity
    /// reading that keeps Example 8.1's `f_(σ)` a function.
    #[test]
    fn memberless_witness_matches_nothing() {
        let f = xset![ExtendedSet::pair("a", "x").into_value()];
        let atom_witness = xset!["q" => 99];
        assert!(sigma_restrict(&f, &xtuple![1], &atom_witness).is_empty());
        let empty_witness = xset![Value::empty_set()];
        assert!(sigma_restrict(&f, &xtuple![1], &empty_witness).is_empty());
    }

    /// A witness whose scopes are not in σ's scopes re-scopes to ∅ and is
    /// likewise rejected.
    #[test]
    fn unmapped_witness_matches_nothing() {
        let f = xset![ExtendedSet::pair("a", "x").into_value()];
        let a = xset![xset!["a" => 99].into_value()];
        assert!(sigma_restrict(&f, &xtuple![1], &a).is_empty());
    }

    #[test]
    fn restriction_is_a_subset_of_r() {
        let f = xset![
            ExtendedSet::pair("a", "x").into_value(),
            ExtendedSet::pair("b", "y").into_value()
        ];
        let a = xset![xtuple!["a"].into_value()];
        let got = sigma_restrict(&f, &xtuple![1], &a);
        assert!(got.is_subset(&f));
    }

    #[test]
    fn restriction_by_union_is_union_of_restrictions() {
        let f = xset![
            ExtendedSet::pair("a", "x").into_value(),
            ExtendedSet::pair("b", "y").into_value(),
            ExtendedSet::pair("c", "z").into_value()
        ];
        let a1 = xset![xtuple!["a"].into_value()];
        let a2 = xset![xtuple!["b"].into_value()];
        let s1 = xtuple![1];
        assert_eq!(
            sigma_restrict(&f, &s1, &union(&a1, &a2)),
            union(&sigma_restrict(&f, &s1, &a1), &sigma_restrict(&f, &s1, &a2))
        );
    }

    #[test]
    fn empty_inputs() {
        let f = xset![ExtendedSet::pair("a", "x").into_value()];
        let a = xset![xtuple!["a"].into_value()];
        assert!(sigma_restrict(&ExtendedSet::empty(), &xtuple![1], &a).is_empty());
        assert!(sigma_restrict(&f, &xtuple![1], &ExtendedSet::empty()).is_empty());
        assert!(sigma_restrict(&f, &ExtendedSet::empty(), &a).is_empty());
    }

    /// Multi-position witnesses: σ = ⟨1,2⟩ requires both components.
    #[test]
    fn multi_position_witness() {
        let f = xset![
            xtuple!["a", "x", "p"].into_value(),
            xtuple!["a", "y", "q"].into_value()
        ];
        let a = xset![xtuple!["a", "x"].into_value()];
        let got = sigma_restrict(&f, &xtuple![1, 2], &a);
        assert_eq!(got, xset![xtuple!["a", "x", "p"].into_value()]);
    }

    use crate::value::Value;
}
