//! Boolean set operations over scoped members.
//!
//! Union, intersection, difference and symmetric difference operate on the
//! full `(element, scope)` membership relation: `a^1` and `a^2` are distinct
//! memberships. Because [`ExtendedSet`] keeps a canonical sorted member
//! sequence, all four operations are instantiations of one ordered `merge`
//! over the two inputs — the only ordered merge of member slices in `ops/`
//! (the parallel kernels in `par.rs` run the same function per member
//! range). The canonical order is the index: when one operand outweighs
//! the other, `merge` sweeps the shorter and gallops over the longer —
//! O(min · log(max/min)) comparisons — and walks both, two-pointer and
//! linear, otherwise.

use crate::set::{ExtendedSet, Member};
use std::cmp::Ordering;

/// `long` outweighs `short` when it is more than this many times as long:
/// beyond it a gallop per member of `short` beats walking `long`
/// (EXPERIMENTS.md E21: no cliff either side of the switch). E21 straddles
/// it with its own copy, `xst-bench`'s `experiments::E21_SWITCH`, which a
/// test there reads back out of this line.
const GALLOP_FACTOR: usize = 16;

fn outweighs(long: &[Member], short: &[Member]) -> bool {
    long.len() > GALLOP_FACTOR * short.len()
}

/// Members `∩` of these two visits: the shorter side only when `merge`
/// gallops the longer, both sides when it walks them. What
/// `par_intersection` weighs a fan-out on.
pub(crate) fn intersection_work(x: &[Member], y: &[Member]) -> usize {
    if outweighs(x, y) || outweighs(y, x) {
        x.len().min(y.len())
    } else {
        x.len() + y.len()
    }
}

/// First index at or after `from` whose member is not `below`
/// (`hay.len()` when there is none), where `below` holds on a prefix of
/// `hay[from..]`: an exponential probe from `from` brackets it, a binary
/// search inside the bracket finds it — O(log d) comparisons for an
/// answer `d` members ahead.
pub(crate) fn gallop(hay: &[Member], from: usize, below: impl Fn(&Member) -> bool) -> usize {
    // Everything before `lo` is below; `hay[hi]`, if it exists, is not.
    let (mut lo, mut hi, mut step) = (from, from, 1);
    while hi < hay.len() && below(&hay[hi]) {
        lo = hi + 1;
        hi += step;
        step *= 2;
    }
    let hi = hi.min(hay.len());
    lo + hay[lo..hi].partition_point(below)
}

/// The one ordered merge of two canonical (sorted, deduplicated) member
/// slices, appended to `out`. The flags say which members survive: those
/// only in `x`, those in both, those only in `y` — so every Boolean
/// operation, sequential or per range of a parallel one, is an
/// instantiation of this function. The output is again canonical. Reserves
/// the flags' upper bound on the output size up front.
///
/// When one side outweighs the other the shorter is swept and the longer
/// galloped: the runs the sweep jumps over are copied in bulk if their
/// side's flag keeps them and skipped if not, so `∩` costs
/// O(min · log(max/min)) and `∪`/`∖`/`△` keep their copies but compare as
/// little. Otherwise both sides are walked, one comparison a step.
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
    if outweighs(x, y) {
        return sweep::<ONLY_X, BOTH, ONLY_Y>(x, y, out);
    }
    if outweighs(y, x) {
        return sweep::<ONLY_Y, BOTH, ONLY_X>(y, x, out);
    }
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

/// `merge`'s skewed loop: one gallop over `long` per member of `short`.
fn sweep<const ONLY_LONG: bool, const BOTH: bool, const ONLY_SHORT: bool>(
    long: &[Member],
    short: &[Member],
    out: &mut Vec<Member>,
) {
    let mut i = 0;
    for s in short {
        let at = gallop(long, i, |m| m < s);
        if ONLY_LONG {
            out.extend_from_slice(&long[i..at]);
        }
        i = at;
        if long.get(i) == Some(s) {
            if BOTH {
                out.push(s.clone());
            }
            i += 1;
        } else if ONLY_SHORT {
            out.push(s.clone());
        }
    }
    if ONLY_LONG {
        out.extend_from_slice(&long[i..]);
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
    disjoint_members(a.members(), b.members())
}

/// [`disjoint`] over two canonical member slices: one merge walk that
/// stops at the first shared member.
pub(crate) fn disjoint_members(am: &[Member], bm: &[Member]) -> bool {
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

    /// All four flag triples in use, both operand orders.
    fn check_every_triple(a: &ExtendedSet, b: &ExtendedSet) {
        for (x, y) in [(a, b), (b, a)] {
            check_merge::<true, true, true>(x, y); // union
            check_merge::<false, true, false>(x, y); // intersection
            check_merge::<true, false, false>(x, y); // difference
            check_merge::<true, false, true>(x, y); // symmetric difference
        }
    }

    fn scoped(ks: impl IntoIterator<Item = (i64, i64)>) -> ExtendedSet {
        ExtendedSet::from_pairs(ks.into_iter().map(|(e, s)| (Value::Int(e), Value::Int(s))))
    }

    proptest! {
        #[test]
        fn merge_is_the_flagged_filter_for_every_triple_in_use(
            xs in proptest::collection::vec((0i64..30, 0i64..4), 0..40),
            ys in proptest::collection::vec((0i64..30, 0i64..4), 0..40),
        ) {
            check_every_triple(&scoped(xs), &scoped(ys));
        }

        /// The skewed pair: 0–4 members against 0–300, which `merge`
        /// gallops (`disjoint` and `⊆` walk; they must agree with it).
        /// `place` puts the short side entirely below the long one,
        /// entirely above it, anywhere inside its range, entirely on
        /// members of it, or mixes the four.
        #[test]
        fn skewed_operands_gallop_to_the_same_answers(
            long in proptest::collection::vec((100i64..300, 0i64..4), 0..300),
            draws in proptest::collection::vec((0usize..4, 0i64..100, 0i64..4, 0usize..300), 0..5),
            place in 0usize..5,
        ) {
            let long = scoped(long);
            let short = ExtendedSet::from_members(
                draws
                    .into_iter()
                    .map(|(kind, e, s, at)| match if place < 4 { place } else { kind } {
                        0 => Member::new(e, s),
                        1 => Member::new(300 + e, s),
                        2 => Member::new(100 + 2 * e, s),
                        _ if long.is_empty() => Member::new(e, s),
                        _ => long.members()[at % long.card()].clone(),
                    })
                    .collect(),
            );
            check_every_triple(&short, &long);
            for (a, b) in [(&short, &long), (&long, &short)] {
                prop_assert_eq!(disjoint(a, b), intersection(a, b).is_empty());
                prop_assert_eq!(a.is_subset(b), difference(a, b).is_empty());
            }
        }

        #[test]
        fn gallop_is_partition_point_from_every_start(
            hay in proptest::collection::vec((100i64..300, 0i64..4), 0..300),
            needle in (50i64..350, 0i64..4),
        ) {
            let (hay, needle) = (scoped(hay), Member::new(needle.0, needle.1));
            let hay = hay.members();
            for from in 0..=hay.len() {
                let expect = from + hay[from..].partition_point(|m| *m < needle);
                prop_assert_eq!(gallop(hay, from, |m| *m < needle), expect, "from {}", from);
            }
        }
    }

    /// Either side of the switch: the short side one member under, at and
    /// one over `⌊n / GALLOP_FACTOR⌋`, every other member of it a hit.
    #[test]
    fn both_loops_agree_across_the_switch() {
        let (n, at) = (64 * GALLOP_FACTOR, 64);
        let long = scoped((0..n as i64).map(|e| (2 * e, 0)));
        for k in [at - 1, at, at + 1] {
            let short = scoped((0..k as i64).map(|e| (13 * e, 0)));
            assert_eq!((long.card(), short.card()), (n, k));
            assert_eq!(outweighs(long.members(), short.members()), k < at);
            assert!(!intersection(&short, &long).is_empty());
            assert!(!difference(&short, &long).is_empty());
            check_every_triple(&short, &long);
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
