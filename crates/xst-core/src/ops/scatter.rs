//! Scatter-gather evaluation: the parallel kernels applied per shard
//! fragment, with an ordered-union merge.
//!
//! A sharded engine holds a set as N pairwise-disjoint **fragments**
//! whose union is the whole extension. The algebra distributes over that
//! partition in two distinct ways, and every function here is one of the
//! two:
//!
//! * **Fragment-vs-whole** — for any partition `A = ⋃ᵢ Aᵢ`:
//!   `A ∩ B = ⋃ᵢ (Aᵢ ∩ B)`, `A ∖ B = ⋃ᵢ (Aᵢ ∖ B)`, and every member-wise
//!   operation on the *carrier* operand (σ-restriction, image, relative
//!   product probe) factors the same way, because each member of the
//!   result is decided by one member of `A` against all of `B`. Valid for
//!   ANY partition of the left operand.
//! * **Aligned zip** — when both operands are partitioned by the same
//!   member-hash (co-hashed), the right operand's matching member can
//!   only live in the same-indexed fragment, so
//!   `A ∩ B = ⋃ᵢ (Aᵢ ∩ Bᵢ)` and likewise for difference. Union zips for
//!   any equal-count partition (no alignment needed — union never drops
//!   members).
//!
//! The **gather** step is ordered union ([`union_all`]): fragments are
//! canonical sorted member lists, so the merge is exact and
//! deterministic — the scatter-gather result is *identical* to the
//! single-set result, which the property tests below assert.
//!
//! Observability: each per-fragment kernel invocation charges the
//! ambient [`xst_obs::cost`] scope under its shard slot and bumps
//! `xst_shard_scatter_ops_total`; each gather bumps
//! `xst_shard_gather_merges_total`.

use crate::ops::boolean::{difference, union_all};
use crate::ops::image::Scope;
use crate::ops::par::{
    par_image, par_intersection, par_relative_product, par_sigma_restrict, par_union, Parallelism,
};
use crate::set::ExtendedSet;
use std::hash::{Hash, Hasher};
use xst_obs::names::handle as m;

/// Charge one per-fragment kernel run to shard slot `i`.
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
/// ordered union. Exact — no fragment member is dropped or reweighted.
pub fn gather(fragments: &[ExtendedSet]) -> ExtendedSet {
    if xst_obs::enabled() {
        m::SHARD_GATHER_MERGES_TOTAL.inc();
    }
    union_all(fragments.iter())
}

/// Zip union: `⋃ᵢ (Aᵢ ∪ Bᵢ)` fragment-wise. Valid for ANY equal-count
/// pair of partitions (union drops nothing, so misaligned members still
/// land in the result — just via a different fragment). Returns the
/// fragment list so downstream ops can stay scattered.
pub fn scatter_union(a: &[ExtendedSet], b: &[ExtendedSet], par: &Parallelism) -> Vec<ExtendedSet> {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b.iter())
        .enumerate()
        .map(|(i, (x, y))| {
            note_scatter(i);
            par_union(x, y, par)
        })
        .collect()
}

/// Zip intersection: `⋃ᵢ (Aᵢ ∩ Bᵢ)` fragment-wise. **Requires aligned
/// (co-hashed) partitions** — a member present in `Aᵢ` and `Bⱼ` with
/// `i ≠ j` would be silently dropped otherwise. The query layer tracks
/// alignment and falls back to [`scatter_intersection_whole`] when it
/// cannot prove it.
pub fn scatter_zip_intersection(
    a: &[ExtendedSet],
    b: &[ExtendedSet],
    par: &Parallelism,
) -> Vec<ExtendedSet> {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b.iter())
        .enumerate()
        .map(|(i, (x, y))| {
            note_scatter(i);
            par_intersection(x, y, par)
        })
        .collect()
}

/// Fragment-vs-whole intersection: `⋃ᵢ (Aᵢ ∩ B)`. Valid for any
/// partition of `A`.
pub fn scatter_intersection_whole(
    a: &[ExtendedSet],
    b: &ExtendedSet,
    par: &Parallelism,
) -> Vec<ExtendedSet> {
    a.iter()
        .enumerate()
        .map(|(i, x)| {
            note_scatter(i);
            par_intersection(x, b, par)
        })
        .collect()
}

/// Zip difference: `⋃ᵢ (Aᵢ ∖ Bᵢ)`. **Requires aligned partitions** (a
/// to-be-removed member in the wrong fragment would survive).
pub fn scatter_zip_difference(a: &[ExtendedSet], b: &[ExtendedSet]) -> Vec<ExtendedSet> {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b.iter())
        .enumerate()
        .map(|(i, (x, y))| {
            note_scatter(i);
            difference(x, y)
        })
        .collect()
}

/// Fragment-vs-whole difference: `⋃ᵢ (Aᵢ ∖ B)`. Valid for any partition
/// of `A`.
pub fn scatter_difference_whole(a: &[ExtendedSet], b: &ExtendedSet) -> Vec<ExtendedSet> {
    a.iter()
        .enumerate()
        .map(|(i, x)| {
            note_scatter(i);
            difference(x, b)
        })
        .collect()
}

/// Scattered σ-restriction `R |_σ A`: the carrier `R` is fragmented, the
/// (typically small) filter operands stay whole on every shard. The
/// output fragment `i` is a subset of `Rᵢ`, so restriction **preserves
/// alignment** — downstream zips remain valid.
pub fn scatter_restrict(
    r: &[ExtendedSet],
    sigma: &ExtendedSet,
    a: &ExtendedSet,
    par: &Parallelism,
) -> Vec<ExtendedSet> {
    r.iter()
        .enumerate()
        .map(|(i, frag)| {
            note_scatter(i);
            par_sigma_restrict(frag, sigma, a, par)
        })
        .collect()
}

/// Scattered image `R[A]`: member-wise over the fragmented carrier.
/// Output members are *transformed* (re-scoped), so the result is NOT
/// aligned to the input partition — the query layer must treat it as an
/// arbitrary partition from here on.
pub fn scatter_image(
    r: &[ExtendedSet],
    a: &ExtendedSet,
    scope: &Scope,
    par: &Parallelism,
) -> Vec<ExtendedSet> {
    r.iter()
        .enumerate()
        .map(|(i, frag)| {
            note_scatter(i);
            par_image(frag, a, scope, par)
        })
        .collect()
}

/// Scattered relative product `F /ω_σ G`: the probe side `F` is
/// fragmented, `G` is indexed whole per fragment. Output members are
/// joined pairs — not aligned to the input partition.
pub fn scatter_relative_product(
    f: &[ExtendedSet],
    sigma: &Scope,
    g: &ExtendedSet,
    omega: &Scope,
    par: &Parallelism,
) -> Vec<ExtendedSet> {
    f.iter()
        .enumerate()
        .map(|(i, frag)| {
            note_scatter(i);
            par_relative_product(frag, sigma, g, omega, par)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::boolean::{intersection, union};
    use crate::ops::image::image;
    use crate::ops::product::relative_product;
    use crate::ops::restrict::sigma_restrict;
    use crate::set::SetBuilder;
    use crate::value::Value;
    use proptest::prelude::*;

    fn seq() -> Parallelism {
        Parallelism::sequential()
    }

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
            let out = gather(&scatter_union(
                &partition_members(&a, shards),
                &partition_members(&b, shards),
                &seq(),
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
            let out = gather(&scatter_zip_intersection(
                &partition_members(&a, shards),
                &partition_members(&b, shards),
                &seq(),
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
                gather(&scatter_intersection_whole(&frags, &b, &seq())),
                intersection(&a, &b)
            );
            prop_assert_eq!(
                gather(&scatter_difference_whole(&frags, &b)),
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
            let out = gather(&scatter_zip_difference(
                &partition_members(&a, shards),
                &partition_members(&b, shards),
            ));
            prop_assert_eq!(out, difference(&a, &b));
        }

        #[test]
        fn restrict_image_relproduct_scatter_exactly(
            rs in proptest::collection::vec((0i64..30, 0i64..30), 0..40),
            ks in proptest::collection::vec(0i64..30, 0..10),
            shards in 1usize..5,
        ) {
            let r = rel(rs.clone());
            let a = ExtendedSet::classical(ks.into_iter().map(Value::Int));
            let sigma = ExtendedSet::classical([Value::str("s")]);
            let frags = partition_members(&r, shards);
            prop_assert_eq!(
                gather(&scatter_restrict(&frags, &sigma, &a, &seq())),
                sigma_restrict(&r, &sigma, &a)
            );
            let scope = Scope::pairs();
            prop_assert_eq!(
                gather(&scatter_image(&frags, &a, &scope, &seq())),
                image(&r, &a, &scope)
            );
            let g = rel(rs.into_iter().map(|(x, y)| (y, x)));
            prop_assert_eq!(
                gather(&scatter_relative_product(&frags, &scope, &g, &scope, &seq())),
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
            let restricted = scatter_restrict(&frags, &sigma, &a, &seq());
            // Each output fragment re-routes onto itself: restriction's
            // outputs are a subset of its carrier fragment's members.
            let whole = gather(&restricted);
            let reparted = partition_members(&whole, shards);
            prop_assert_eq!(restricted, reparted);
        }
    }
}
