//! Scatter-gather evaluation: a kernel applied per part of a partitioned
//! set, with an ordered-union merge.
//!
//! There is one shape: a set held as N pairwise-disjoint **parts** whose
//! union is the whole extension. A sharded engine's table is its N
//! per-shard fragments; a whole set is the one-part partition of itself.
//! Childs' operations are member-wise over a carrier, so they distribute
//! over any union of it (C 7.1(a): `R[A ∪ B] = R[A] ∪ R[B]`) — and that
//! does not depend on N. The algebra distributes in two ways, one function
//! each:
//!
//! * [`map_parts`] — **part-vs-whole**, for any partition `A = ⋃ᵢ Aᵢ`:
//!   `A ∩ B = ⋃ᵢ (Aᵢ ∩ B)`, `A ∖ B = ⋃ᵢ (Aᵢ ∖ B)`, and every member-wise
//!   operation on the *carrier* operand (σ-restriction, image, relative
//!   product probe) factors the same way, because each member of the
//!   result is decided by one member of `A` against all of `B`. Valid for
//!   ANY partition of the carrier. Subset-producing kernels (restriction,
//!   `∩`, `∖`) keep every output member in the part it was routed to, so
//!   the output partition is aligned whenever the carrier was;
//!   member-transforming kernels (image, relative product) emit new
//!   members, so theirs is an arbitrary partition.
//! * [`zip_parts`] — **aligned zip**: when both operands are partitioned
//!   by the same member hash (co-hashed), the other operand's matching
//!   member can only live in the same-indexed part, so
//!   `A ∩ B = ⋃ᵢ (Aᵢ ∩ Bᵢ)` and likewise for difference — a member of
//!   `Aᵢ` and `Bⱼ` with `i ≠ j` would be silently dropped (or survive)
//!   otherwise, so the caller must hold the alignment proof. Union zips
//!   for any equal-count pair of partitions (it never drops members). Two
//!   one-part partitions are trivially aligned: that zip *is* the
//!   whole-set operation.
//!
//! The **gather** step is ordered union ([`union_all`]): parts are
//! canonical sorted member lists, so the merge is exact and
//! deterministic — the scatter-gather result is *identical* to the
//! single-set result, which the property tests below assert.
//!
//! Observability: each kernel run charges the ambient [`xst_obs::cost`]
//! scope under its part's shard slot and bumps
//! `xst_shard_scatter_ops_total` (an unsharded evaluation is one part, so
//! it bills slot 0); each gather that merged more than one fragment bumps
//! `xst_shard_gather_merges_total`.

use crate::ops::boolean::union_all;
use crate::set::ExtendedSet;
use std::hash::{Hash, Hasher};
use xst_obs::names::handle as m;

/// Charge one per-part kernel run to shard slot `i`.
#[inline]
fn note_scatter(i: usize) {
    if xst_obs::enabled() {
        m::SHARD_SCATTER_OPS_TOTAL.inc();
        xst_obs::cost::add_shard_op(i);
    }
}

/// Partition `set` into `shards` pairwise-disjoint fragments by a
/// deterministic structural hash of each member (element and scope both
/// participate — routing is a function of the member's whole identity).
/// Fragment order preserves canonical member order, so each fragment is
/// itself canonical. `shards == 0` is treated as 1.
pub fn partition_members(set: &ExtendedSet, shards: usize) -> Vec<ExtendedSet> {
    let shards = shards.max(1);
    if shards == 1 {
        return vec![set.clone()];
    }
    let mut parts: Vec<Vec<crate::set::Member>> = vec![Vec::new(); shards];
    for m in set.members() {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        m.hash(&mut h);
        parts[(h.finish() % shards as u64) as usize].push(m.clone());
    }
    parts
        .into_iter()
        .map(ExtendedSet::from_sorted_unique)
        .collect()
}

/// Gather: merge disjoint fragments back into one canonical set by
/// ordered union. Exact — no fragment member is dropped or reweighted. A
/// lone fragment is the set already: returned as is, and not counted as a
/// merge.
pub fn gather(fragments: &[ExtendedSet]) -> ExtendedSet {
    match fragments {
        [] => ExtendedSet::empty(),
        [whole] => whole.clone(),
        _ => {
            if xst_obs::enabled() {
                m::SHARD_GATHER_MERGES_TOTAL.inc();
            }
            union_all(fragments)
        }
    }
}

/// Part-vs-whole: `kernel` over every part of the carrier, in part order
/// — `⋃ᵢ k(Aᵢ)`, where `k` closes over the operands that stay whole.
/// Returns the part list so downstream operators can stay scattered.
pub fn map_parts(
    parts: &[ExtendedSet],
    kernel: impl Fn(&ExtendedSet) -> ExtendedSet,
) -> Vec<ExtendedSet> {
    parts
        .iter()
        .enumerate()
        .map(|(i, part)| {
            note_scatter(i);
            kernel(part)
        })
        .collect()
}

/// Zip: `kernel` over same-indexed parts — `⋃ᵢ k(Aᵢ, Bᵢ)`. For `∩` and
/// `∖` this **requires aligned (co-hashed) partitions**; the query layer
/// tracks alignment and falls back to [`map_parts`] against the gathered
/// other side when it cannot prove it.
pub fn zip_parts(
    a: &[ExtendedSet],
    b: &[ExtendedSet],
    kernel: impl Fn(&ExtendedSet, &ExtendedSet) -> ExtendedSet,
) -> Vec<ExtendedSet> {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .enumerate()
        .map(|(i, (x, y))| {
            note_scatter(i);
            kernel(x, y)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::boolean::{difference, intersection, union};
    use crate::ops::image::{image, Scope};
    use crate::ops::product::relative_product;
    use crate::ops::restrict::sigma_restrict;
    use crate::set::SetBuilder;
    use crate::value::Value;
    use proptest::prelude::*;

    fn rel(ks: impl IntoIterator<Item = (i64, i64)>) -> ExtendedSet {
        let mut b = SetBuilder::new();
        for (x, y) in ks {
            b.scoped(Value::Int(y), Value::Int(x));
        }
        b.build()
    }

    #[test]
    fn partition_is_disjoint_total_and_deterministic() {
        let a = rel((0..40).map(|i| (i, i * 2)));
        let parts = partition_members(&a, 4);
        assert_eq!(parts.len(), 4);
        let total: usize = parts.iter().map(|p| p.card()).sum();
        assert_eq!(total, a.card(), "no member lost or duplicated");
        assert_eq!(gather(&parts), a, "gather inverts scatter");
        assert_eq!(partition_members(&a, 4), parts, "stable routing");
        assert_eq!(partition_members(&a, 1), vec![a.clone()]);
        assert_eq!(partition_members(&a, 0), vec![a]);
    }

    proptest! {
        #[test]
        fn zip_union_matches_whole(xs in proptest::collection::vec((0i64..50, 0i64..50), 0..40),
                                   ys in proptest::collection::vec((0i64..50, 0i64..50), 0..40),
                                   shards in 1usize..5) {
            let a = rel(xs);
            let b = rel(ys);
            let out = gather(&zip_parts(
                &partition_members(&a, shards),
                &partition_members(&b, shards),
                union,
            ));
            prop_assert_eq!(out, union(&a, &b));
        }

        #[test]
        fn zip_intersection_matches_whole_when_cohashed(
            xs in proptest::collection::vec((0i64..50, 0i64..50), 0..40),
            ys in proptest::collection::vec((0i64..50, 0i64..50), 0..40),
            shards in 1usize..5,
        ) {
            let a = rel(xs);
            let b = rel(ys);
            // Co-hashed: both sides partitioned by the same member hash.
            let out = gather(&zip_parts(
                &partition_members(&a, shards),
                &partition_members(&b, shards),
                intersection,
            ));
            prop_assert_eq!(out, intersection(&a, &b));
        }

        #[test]
        fn whole_side_ops_match_for_any_partition(
            xs in proptest::collection::vec((0i64..50, 0i64..50), 0..40),
            ys in proptest::collection::vec((0i64..50, 0i64..50), 0..40),
            shards in 1usize..5,
        ) {
            let a = rel(xs);
            let b = rel(ys);
            let frags = partition_members(&a, shards);
            prop_assert_eq!(
                gather(&map_parts(&frags, |x| intersection(x, &b))),
                intersection(&a, &b)
            );
            prop_assert_eq!(
                gather(&map_parts(&frags, |x| difference(x, &b))),
                difference(&a, &b)
            );
        }

        #[test]
        fn zip_difference_matches_whole_when_cohashed(
            xs in proptest::collection::vec((0i64..50, 0i64..50), 0..40),
            ys in proptest::collection::vec((0i64..50, 0i64..50), 0..40),
            shards in 1usize..5,
        ) {
            let a = rel(xs);
            let b = rel(ys);
            let out = gather(&zip_parts(
                &partition_members(&a, shards),
                &partition_members(&b, shards),
                difference,
            ));
            prop_assert_eq!(out, difference(&a, &b));
        }

        #[test]
        fn restrict_image_relproduct_map_exactly(
            rs in proptest::collection::vec((0i64..30, 0i64..30), 0..40),
            ks in proptest::collection::vec(0i64..30, 0..10),
            shards in 1usize..5,
        ) {
            let r = rel(rs.clone());
            let a = ExtendedSet::classical(ks.into_iter().map(Value::Int));
            let sigma = ExtendedSet::classical([Value::str("s")]);
            let frags = partition_members(&r, shards);
            prop_assert_eq!(
                gather(&map_parts(&frags, |p| sigma_restrict(p, &sigma, &a))),
                sigma_restrict(&r, &sigma, &a)
            );
            let scope = Scope::pairs();
            prop_assert_eq!(
                gather(&map_parts(&frags, |p| image(p, &a, &scope))),
                image(&r, &a, &scope)
            );
            let g = rel(rs.into_iter().map(|(x, y)| (y, x)));
            prop_assert_eq!(
                gather(&map_parts(&frags, |p| relative_product(p, &scope, &g, &scope))),
                relative_product(&r, &scope, &g, &scope)
            );
        }

        #[test]
        fn restriction_preserves_alignment(
            rs in proptest::collection::vec((0i64..30, 0i64..30), 0..40),
            ks in proptest::collection::vec(0i64..30, 0..10),
            shards in 2usize..5,
        ) {
            let r = rel(rs);
            let a = ExtendedSet::classical(ks.into_iter().map(Value::Int));
            let sigma = ExtendedSet::classical([Value::str("s")]);
            let frags = partition_members(&r, shards);
            let restricted = map_parts(&frags, |p| sigma_restrict(p, &sigma, &a));
            // Each output fragment re-routes onto itself: restriction's
            // outputs are a subset of its carrier fragment's members.
            let whole = gather(&restricted);
            let reparted = partition_members(&whole, shards);
            prop_assert_eq!(restricted, reparted);
        }
    }
}
