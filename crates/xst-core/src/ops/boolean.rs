//! Boolean set operations over scoped members.
//!
//! Union, intersection, difference and symmetric difference operate on the
//! full `(element, scope)` membership relation: `a^1` and `a^2` are distinct
//! memberships. Because [`ExtendedSet`] keeps a canonical sorted member
//! sequence, all four operations are linear merges over the two inputs.

use crate::set::{ExtendedSet, Member};
use std::cmp::Ordering;

/// `A ∪ B`: every scoped membership from either operand.
pub fn union(a: &ExtendedSet, b: &ExtendedSet) -> ExtendedSet {
    if a.is_empty() {
        return b.clone();
    }
    if b.is_empty() {
        return a.clone();
    }
    let (am, bm) = (a.members(), b.members());
    let mut out: Vec<Member> = Vec::with_capacity(am.len() + bm.len());
    let (mut i, mut j) = (0, 0);
    while i < am.len() && j < bm.len() {
        match am[i].cmp(&bm[j]) {
            Ordering::Less => {
                out.push(am[i].clone());
                i += 1;
            }
            Ordering::Greater => {
                out.push(bm[j].clone());
                j += 1;
            }
            Ordering::Equal => {
                out.push(am[i].clone());
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&am[i..]);
    out.extend_from_slice(&bm[j..]);
    // Already sorted and deduplicated by the merge; skip re-canonicalizing.
    ExtendedSet::from_sorted_unique(out)
}

/// `A ∩ B`: scoped memberships present in both operands.
pub fn intersection(a: &ExtendedSet, b: &ExtendedSet) -> ExtendedSet {
    let (am, bm) = (a.members(), b.members());
    let mut out: Vec<Member> = Vec::with_capacity(am.len().min(bm.len()));
    let (mut i, mut j) = (0, 0);
    while i < am.len() && j < bm.len() {
        match am[i].cmp(&bm[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                out.push(am[i].clone());
                i += 1;
                j += 1;
            }
        }
    }
    ExtendedSet::from_sorted_unique(out)
}

/// `A ~ B` (the paper's difference notation): memberships of `A` absent
/// from `B`.
pub fn difference(a: &ExtendedSet, b: &ExtendedSet) -> ExtendedSet {
    if b.is_empty() {
        return a.clone();
    }
    let (am, bm) = (a.members(), b.members());
    let mut out: Vec<Member> = Vec::with_capacity(am.len());
    let (mut i, mut j) = (0, 0);
    while i < am.len() && j < bm.len() {
        match am[i].cmp(&bm[j]) {
            Ordering::Less => {
                out.push(am[i].clone());
                i += 1;
            }
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&am[i..]);
    ExtendedSet::from_sorted_unique(out)
}

/// `(A ~ B) ∪ (B ~ A)`.
pub fn symmetric_difference(a: &ExtendedSet, b: &ExtendedSet) -> ExtendedSet {
    let (am, bm) = (a.members(), b.members());
    let mut out: Vec<Member> = Vec::with_capacity(am.len() + bm.len());
    let (mut i, mut j) = (0, 0);
    while i < am.len() && j < bm.len() {
        match am[i].cmp(&bm[j]) {
            Ordering::Less => {
                out.push(am[i].clone());
                i += 1;
            }
            Ordering::Greater => {
                out.push(bm[j].clone());
                j += 1;
            }
            Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&am[i..]);
    out.extend_from_slice(&bm[j..]);
    ExtendedSet::from_sorted_unique(out)
}

/// True iff `A ∩ B = ∅`, without materializing the intersection.
pub fn disjoint(a: &ExtendedSet, b: &ExtendedSet) -> bool {
    let (am, bm) = (a.members(), b.members());
    let (mut i, mut j) = (0, 0);
    while i < am.len() && j < bm.len() {
        match am[i].cmp(&bm[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => return false,
        }
    }
    true
}

/// n-ary union, merged as a balanced tournament: `O(total · log k)` member
/// visits for `k` inputs instead of the `O(total · k)` of a left fold.
pub fn union_all<'a>(sets: impl IntoIterator<Item = &'a ExtendedSet>) -> ExtendedSet {
    let mut layer: Vec<ExtendedSet> = sets.into_iter().cloned().collect();
    if layer.is_empty() {
        return ExtendedSet::empty();
    }
    while layer.len() > 1 {
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        let mut it = layer.into_iter();
        while let Some(a) = it.next() {
            match it.next() {
                Some(b) => next.push(union(&a, &b)),
                None => next.push(a),
            }
        }
        layer = next;
    }
    layer.into_iter().next().unwrap_or_else(ExtendedSet::empty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xset;

    #[test]
    fn union_merges_scoped_members() {
        let a = xset!["a" => 1, "b" => 2];
        let b = xset!["b" => 2, "c" => 3];
        assert_eq!(union(&a, &b), xset!["a" => 1, "b" => 2, "c" => 3]);
    }

    #[test]
    fn union_keeps_same_element_under_different_scopes() {
        let a = xset!["a" => 1];
        let b = xset!["a" => 2];
        assert_eq!(union(&a, &b).card(), 2);
    }

    #[test]
    fn union_with_empty_is_identity() {
        let a = xset!["a" => 1];
        assert_eq!(union(&a, &ExtendedSet::empty()), a);
        assert_eq!(union(&ExtendedSet::empty(), &a), a);
    }

    #[test]
    fn intersection_requires_matching_scope() {
        let a = xset!["a" => 1, "b" => 2];
        let b = xset!["a" => 9, "b" => 2];
        assert_eq!(intersection(&a, &b), xset!["b" => 2]);
    }

    #[test]
    fn difference_removes_exact_memberships() {
        let a = xset!["a" => 1, "a" => 2, "b" => 3];
        let b = xset!["a" => 2];
        assert_eq!(difference(&a, &b), xset!["a" => 1, "b" => 3]);
        assert_eq!(difference(&a, &ExtendedSet::empty()), a);
        assert!(difference(&a, &a).is_empty());
    }

    #[test]
    fn symmetric_difference_matches_definition() {
        let a = xset!["a" => 1, "b" => 2];
        let b = xset!["b" => 2, "c" => 3];
        let sym = symmetric_difference(&a, &b);
        assert_eq!(sym, union(&difference(&a, &b), &difference(&b, &a)));
        assert_eq!(sym, xset!["a" => 1, "c" => 3]);
    }

    #[test]
    fn disjointness() {
        let a = xset!["a" => 1];
        let b = xset!["a" => 2];
        let c = xset!["a" => 1, "z" => 9];
        assert!(disjoint(&a, &b));
        assert!(!disjoint(&a, &c));
        assert!(disjoint(&a, &ExtendedSet::empty()));
    }

    #[test]
    fn union_all_folds() {
        let sets = [xset!["a" => 1], xset!["b" => 2], xset!["c" => 3]];
        assert_eq!(union_all(sets.iter()), xset!["a" => 1, "b" => 2, "c" => 3]);
        assert!(union_all(std::iter::empty()).is_empty());
    }
}
