//! Re-scoping — the paper's two scope-rewriting primitives (§7).
//!
//! A re-scope specification `σ` is itself an extended set, read as a mapping
//! between scopes:
//!
//! * **Re-scope by scope** (Definition 7.3):
//!   `A^{/σ/} = { x^w : ∃s (x ∈_s A ∧ s ∈_w σ) }` — a member's *old scope*
//!   `s` is looked up among σ's **elements**; the matching σ-member's scope
//!   `w` becomes the new scope. Members whose scope does not occur in σ are
//!   dropped; a scope occurring several times in σ fans the member out.
//!
//! * **Re-scope by element** (Definition 7.5):
//!   `A^{\σ\} = { x^w : ∃s (x ∈_s A ∧ w ∈_s σ) }` — the inverse direction:
//!   a member's old scope `s` is looked up among σ's **scopes**, and the
//!   matching σ-member's element `w` becomes the new scope.
//!
//! The paper's example for 7.3: `{a^x, b^y, c^z}^{/{x^1, y^2, z^3}/} =
//! {a^1, b^2, c^3}`; and for 7.5: `{a^1, b^2, c^3}^{\{w^1, v^2, t^3}\} =
//! {a^w, b^v, c^t}`.

use crate::set::{cmp_scopes, ExtendedSet, Member, SetBuilder};
use crate::value::Value;
use std::borrow::Cow;
use std::cmp::Ordering;

/// Re-scope by scope, `A^{/σ/}` (Definition 7.3).
pub fn rescope_by_scope(a: &ExtendedSet, sigma: &ExtendedSet) -> ExtendedSet {
    ScopeMap::new(sigma).apply(a)
}

/// σ read once for re-scoping by scope: its members ordered by element —
/// the old scope a member of `A` carries — then by scope, the new one.
/// σ's canonical order lists its members by new scope, so the map borrows
/// σ whenever the two orders agree (`⟨1⟩`, `⟨2⟩`, `⟨1, 2⟩`, every
/// identity spec) and sorts a copy otherwise (`⟨3, 1⟩`). A caller that
/// re-scopes many sets by one σ — σ-domain, image — builds it once.
pub(crate) struct ScopeMap<'a> {
    by_old: Cow<'a, [Member]>,
}

/// The map's order: element (old scope), then scope (new scope).
fn by_old(a: &Member, b: &Member) -> Ordering {
    a.element
        .cmp(&b.element)
        .then_with(|| cmp_scopes(&a.scope, &b.scope))
}

impl<'a> ScopeMap<'a> {
    /// Read σ.
    pub(crate) fn new(sigma: &'a ExtendedSet) -> ScopeMap<'a> {
        let members = sigma.members();
        let by_old = if members
            .windows(2)
            .all(|w| by_old(&w[0], &w[1]) == Ordering::Less)
        {
            Cow::Borrowed(members)
        } else {
            let mut sorted = members.to_vec();
            sorted.sort_unstable_by(by_old);
            Cow::Owned(sorted)
        };
        ScopeMap { by_old }
    }

    /// The σ-members whose element is `old`: their scopes, ascending, are
    /// the new scopes of a member scoped `old`.
    fn targets(&self, old: &Value) -> &[Member] {
        let lo = self.by_old.partition_point(|t| t.element < *old);
        let len = self.by_old[lo..].partition_point(|t| t.element == *old);
        &self.by_old[lo..lo + len]
    }

    /// `a^{/σ/}`. When σ maps every member scope of `a` to exactly itself
    /// (the identity specs selections and join keep-sides use), the
    /// result is `a`, shared; otherwise one vector of exactly the output's
    /// size, sorted only if it does not already ascend.
    pub(crate) fn apply(&self, a: &ExtendedSet) -> ExtendedSet {
        let mut len = 0;
        let mut identity = true;
        for m in a.members() {
            let targets = self.targets(&m.scope);
            len += targets.len();
            identity &= targets.len() == 1 && targets[0].scope == m.scope;
        }
        if identity {
            return a.clone();
        }
        let mut out = Vec::with_capacity(len);
        for m in a.members() {
            for t in self.targets(&m.scope) {
                out.push(Member {
                    element: m.element.clone(),
                    scope: t.scope.clone(),
                });
            }
        }
        if out.windows(2).all(|w| w[0] < w[1]) {
            ExtendedSet::from_sorted_unique(out)
        } else {
            ExtendedSet::from_members(out)
        }
    }

    /// [`ScopeMap::apply`] lifted to a [`Value`]: an atom re-scopes to `∅`.
    pub(crate) fn apply_value(&self, v: &Value) -> ExtendedSet {
        match v {
            Value::Set(s) => self.apply(s),
            _ => ExtendedSet::empty(),
        }
    }
}

/// Re-scope by element, `A^{\σ\}` (Definition 7.5).
pub fn rescope_by_element(a: &ExtendedSet, sigma: &ExtendedSet) -> ExtendedSet {
    let mut b = SetBuilder::new();
    for m in a.members() {
        // Find σ-members whose *scope* equals this member's scope; their
        // elements are the new scopes. They are one run of σ, found by
        // binary search.
        for w in sigma.elements_with_scope(&m.scope) {
            b.scoped(m.element.clone(), w.clone());
        }
    }
    b.build()
}

/// Re-scope by scope lifted to a [`Value`]: atoms re-scope to `∅`
/// (see [`Value::as_set_view`]).
pub fn rescope_value_by_scope(v: &Value, sigma: &ExtendedSet) -> ExtendedSet {
    ScopeMap::new(sigma).apply_value(v)
}

/// Re-scope by element lifted to a [`Value`]: atoms re-scope to `∅`.
pub fn rescope_value_by_element(v: &Value, sigma: &ExtendedSet) -> ExtendedSet {
    match v {
        Value::Set(s) => rescope_by_element(s, sigma),
        _ => ExtendedSet::empty(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::sym;
    use crate::{xset, xtuple};

    #[test]
    fn paper_example_7_3() {
        // {a^x, b^y, c^z}^{/{x^1, y^2, z^3}/} = {a^1, b^2, c^3}
        let a = xset!["a" => "x", "b" => "y", "c" => "z"];
        let sigma = xset!["x" => 1, "y" => 2, "z" => 3];
        assert_eq!(
            rescope_by_scope(&a, &sigma),
            xset!["a" => 1, "b" => 2, "c" => 3]
        );
    }

    #[test]
    fn paper_example_7_5() {
        // {a^1, b^2, c^3}^{\{w^1, v^2, t^3}\} = {a^w, b^v, c^t}
        let a = xset!["a" => 1, "b" => 2, "c" => 3];
        let sigma = xset!["w" => 1, "v" => 2, "t" => 3];
        assert_eq!(
            rescope_by_element(&a, &sigma),
            xset!["a" => "w", "b" => "v", "c" => "t"]
        );
    }

    #[test]
    fn rescope_by_scope_drops_unmapped_members() {
        let a = xset!["a" => 1, "b" => 2];
        let sigma = xset![1 => 10]; // only old scope 1 is mapped
        assert_eq!(rescope_by_scope(&a, &sigma), xset!["a" => 10]);
    }

    #[test]
    fn rescope_by_scope_fans_out_on_duplicate_mapping() {
        let a = xset!["a" => 1];
        // old scope 1 maps to both 10 and 20
        let sigma = xset![1 => 10, 1 => 20];
        assert_eq!(rescope_by_scope(&a, &sigma), xset!["a" => 10, "a" => 20]);
    }

    #[test]
    fn tuple_permutation_via_rescope() {
        // ω2 = ⟨1,3,4,5,2⟩ permutes ⟨a,a,a,b,b⟩ into ⟨a,a,b,b,a⟩
        // (Appendix B derivation c).
        let t = xtuple!["a", "a", "a", "b", "b"];
        let omega2 = xtuple![1, 3, 4, 5, 2];
        assert_eq!(
            rescope_by_scope(&t, &omega2),
            xtuple!["a", "a", "b", "b", "a"]
        );
    }

    #[test]
    fn rescope_of_empty_is_empty() {
        let sigma = xset![1 => 2];
        assert!(rescope_by_scope(&ExtendedSet::empty(), &sigma).is_empty());
        assert!(rescope_by_element(&ExtendedSet::empty(), &sigma).is_empty());
    }

    #[test]
    fn rescope_with_empty_sigma_is_empty() {
        let a = xset!["a" => 1];
        assert!(rescope_by_scope(&a, &ExtendedSet::empty()).is_empty());
        assert!(rescope_by_element(&a, &ExtendedSet::empty()).is_empty());
    }

    #[test]
    fn value_lift_treats_atoms_as_memberless() {
        let sigma = xset![1 => 2];
        assert!(rescope_value_by_scope(&sym("q"), &sigma).is_empty());
        assert!(rescope_value_by_element(&sym("q"), &sigma).is_empty());
        let v = Value::Set(xset!["a" => 1]);
        assert_eq!(rescope_value_by_scope(&v, &sigma), xset!["a" => 2]);
    }

    #[test]
    fn rescope_directions_are_inverse_on_bijective_sigma() {
        let a = xset!["a" => 1, "b" => 2, "c" => 3];
        let sigma = xset!["x" => 1, "y" => 2, "z" => 3];
        // by-element then by-scope round-trips when σ is a bijection
        let forward = rescope_by_element(&a, &sigma); // scopes 1,2,3 -> x,y,z
        let back = rescope_by_scope(&forward, &sigma); // x,y,z -> 1,2,3
        assert_eq!(back, a);
    }

    #[test]
    fn rescope_can_merge_members() {
        // Two members collapse onto one scope; canonical form dedups the
        // resulting identical memberships.
        let a = xset!["a" => 1, "a" => 2];
        let sigma = xset![1 => 9, 2 => 9];
        assert_eq!(rescope_by_scope(&a, &sigma), xset!["a" => 9]);
    }
}
