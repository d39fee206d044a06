//! Boolean set operations over scoped members.
//!
//! Union, intersection, difference and symmetric difference operate on the
//! full `(element, scope)` membership relation: `a^1` and `a^2` are distinct
//! memberships. Because [`ExtendedSet`] keeps a canonical sorted member
//! sequence, all four operations are instantiations of one linear
//! two-pointer `merge` over the two inputs — the only ordered merge of
//! member slices in `ops/` (the parallel kernels in `par.rs` run the same
//! function per member range).

use crate::set::{ExtendedSet, Member};
use std::cmp::Ordering;

/// The one ordered merge of two canonical (sorted, deduplicated) member
/// slices, appended to `out`. The flags say which members survive: those
/// only in `x`, those in both, those only in `y` — so every Boolean
/// operation, sequential or per range of a parallel one, is an
/// instantiation of this loop. The output is again canonical. Reserves
/// the flags' upper bound on the output size up front.
pub(crate) fn merge<const ONLY_X: bool, const BOTH: bool, const ONLY_Y: bool>(
    x: &[Member],
    y: &[Member],
    out: &mut Vec<Member>,
) {
    out.reserve(match (ONLY_X, ONLY_Y) {
        (true, true) => x.len() + y.len(),
        (true, false) => x.len(),
        (false, true) => y.len(),
        (false, false) => x.len().min(y.len()),
    });
    let (mut i, mut j) = (0, 0);
    while i < x.len() && j < y.len() {
        match x[i].cmp(&y[j]) {
            Ordering::Less => {
                if ONLY_X {
                    out.push(x[i].clone());
                }
                i += 1;
            }
            Ordering::Greater => {
                if ONLY_Y {
                    out.push(y[j].clone());
                }
                j += 1;
            }
            Ordering::Equal => {
                if BOTH {
                    out.push(x[i].clone());
                }
                i += 1;
                j += 1;
            }
        }
    }
    if ONLY_X {
        out.extend_from_slice(&x[i..]);
    }
    if ONLY_Y {
        out.extend_from_slice(&y[j..]);
    }
}

/// `merge` over two whole sets.
fn merged<const ONLY_X: bool, const BOTH: bool, const ONLY_Y: bool>(
    a: &ExtendedSet,
    b: &ExtendedSet,
) -> ExtendedSet {
    let mut out = Vec::new();
    merge::<ONLY_X, BOTH, ONLY_Y>(a.members(), b.members(), &mut out);
    // Already sorted and deduplicated by the merge; skip re-canonicalizing.
    ExtendedSet::from_sorted_unique(out)
}

/// `A ∪ B`: every scoped membership from either operand.
pub fn union(a: &ExtendedSet, b: &ExtendedSet) -> ExtendedSet {
    if a.is_empty() {
        return b.clone();
    }
    if b.is_empty() {
        return a.clone();
    }
    merged::<true, true, true>(a, b)
}

/// `A ∩ B`: scoped memberships present in both operands.
pub fn intersection(a: &ExtendedSet, b: &ExtendedSet) -> ExtendedSet {
    merged::<false, true, false>(a, b)
}

/// `A ~ B` (the paper's difference notation): memberships of `A` absent
/// from `B`.
pub fn difference(a: &ExtendedSet, b: &ExtendedSet) -> ExtendedSet {
    if b.is_empty() {
        return a.clone();
    }
    merged::<true, false, false>(a, b)
}

/// `(A ~ B) ∪ (B ~ A)`.
pub fn symmetric_difference(a: &ExtendedSet, b: &ExtendedSet) -> ExtendedSet {
    merged::<true, false, true>(a, b)
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
    use crate::value::Value;
    use crate::xset;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// `merge::<X, B, Y>` against the obvious oracle: tag every member
    /// with the sides it occurs on, keep the tags the flags keep.
    fn check_merge<const X: bool, const B: bool, const Y: bool>(a: &ExtendedSet, b: &ExtendedSet) {
        let mut sides: BTreeMap<Member, (bool, bool)> = BTreeMap::new();
        for m in a.members() {
            sides.entry(m.clone()).or_default().0 = true;
        }
        for m in b.members() {
            sides.entry(m.clone()).or_default().1 = true;
        }
        let keep = |tag: &(bool, bool)| match tag {
            (true, false) => X,
            (true, true) => B,
            (false, true) => Y,
            (false, false) => false,
        };
        let expect: Vec<Member> = sides
            .into_iter()
            .filter(|(_, tag)| keep(tag))
            .map(|(m, _)| m)
            .collect();
        let mut out = Vec::new();
        merge::<X, B, Y>(a.members(), b.members(), &mut out);
        assert_eq!(out, expect, "flags ({X}, {B}, {Y})");
        assert!(out.windows(2).all(|w| w[0] < w[1]), "strictly ascending");
    }

    proptest! {
        #[test]
        fn merge_is_the_flagged_filter_for_every_triple_in_use(
            xs in proptest::collection::vec((0i64..30, 0i64..4), 0..40),
            ys in proptest::collection::vec((0i64..30, 0i64..4), 0..40),
        ) {
            let set = |ks: Vec<(i64, i64)>| {
                ExtendedSet::from_pairs(ks.into_iter().map(|(e, s)| (Value::Int(e), Value::Int(s))))
            };
            let (a, b) = (set(xs), set(ys));
            check_merge::<true, true, true>(&a, &b); // union
            check_merge::<false, true, false>(&a, &b); // intersection
            check_merge::<true, false, false>(&a, &b); // difference
            check_merge::<true, false, true>(&a, &b); // symmetric difference
        }
    }

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
