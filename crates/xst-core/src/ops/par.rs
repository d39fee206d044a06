//! Data-parallel kernels for the hot XST operators.
//!
//! Every kernel here follows the same shape: **partition** the dominant
//! operand's member slice into near-equal chunks, run the ordinary
//! sequential kernel on each chunk in a scoped thread, then **merge** the
//! per-chunk results in a way that provably reconstructs the sequential
//! answer:
//!
//! * restriction filters a canonical (sorted, deduplicated) member list, so
//!   per-chunk survivors concatenate back into a canonical list —
//!   [`ExtendedSet::from_sorted_unique`] is exact;
//! * union/intersection partition both operands by *member ranges* at chunk
//!   boundaries drawn from the larger side, so per-range merges — the
//!   sequential kernels' own `boolean::merge`, run per range — are
//!   disjoint and ordered and again concatenate exactly;
//! * image and relative product are defined member-wise over `R`/`F`, and
//!   canonicalization commutes with union, so chunk results combine with
//!   [`union_all`].
//!
//! Each kernel equals its sequential oracle on every input — see
//! `tests/differential.rs`, which drives them at 1, 2, 4 and 8 threads
//! against random sets.

use crate::ops::boolean::{intersection, intersection_work, merge, union, union_all};
use crate::ops::domain::project;
use crate::ops::image::Scope;
use crate::ops::product::{index_by_key, probe_member};
use crate::ops::rescope::ScopeMap;
use crate::ops::restrict::restriction_witnesses;
use crate::set::{ExtendedSet, Member, SetBuilder};
use xst_obs::names::handle as m;

/// Record one fan-out of `workers` chunks on the kernel's span +
/// counters, and charge it to the ambient per-request cost scope (the
/// fan-out decision happens on the request thread, so the charge lands
/// on the right request even though chunk work runs on workers).
fn note_fanout(span: &mut xst_obs::SpanGuard, workers: usize) {
    span.attr("chunks", workers);
    m::CORE_PAR_FANOUTS_TOTAL.inc();
    m::CORE_PAR_CHUNKS_TOTAL.add(workers as u64);
    xst_obs::cost::add_par_fanout();
}

/// Members below this count run sequentially by default: thread spawn and
/// merge overhead beats the win on small sets.
pub const DEFAULT_PARALLEL_THRESHOLD: usize = 4096;

/// Degree-of-parallelism policy threaded from the engine/query layers down
/// to the kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    /// Worker thread count; `1` means always sequential.
    pub threads: usize,
    /// Minimum dominant-operand cardinality before threads are used.
    pub threshold: usize,
}

impl Parallelism {
    /// Use exactly `threads` workers with the default threshold.
    pub fn new(threads: usize) -> Parallelism {
        Parallelism {
            threads: threads.max(1),
            threshold: DEFAULT_PARALLEL_THRESHOLD,
        }
    }

    /// Never parallelize.
    pub fn sequential() -> Parallelism {
        Parallelism::new(1)
    }

    /// Use every core the OS reports.
    pub fn available() -> Parallelism {
        Parallelism::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// Replace the cardinality threshold.
    pub fn with_threshold(mut self, threshold: usize) -> Parallelism {
        self.threshold = threshold;
        self
    }

    /// Should an operator over `card` members fan out?
    pub fn should_parallelize(&self, card: usize) -> bool {
        self.threads > 1 && card >= self.threshold
    }

    /// Does `a ∩ b` fan out? Decided on the members `merge` will visit: a
    /// pair it gallops is bounded by its *smaller* operand — a skewed `∩`
    /// is microseconds, less than a thread spawn — and a pair it walks
    /// costs both. [`par_intersection`] and whoever reports its width
    /// (the plan walker's `max_threads`) both ask here.
    pub fn intersection_fans_out(&self, a: &ExtendedSet, b: &ExtendedSet) -> bool {
        self.should_parallelize(intersection_work(a.members(), b.members()))
    }

    /// Worker count for `len` items: never more threads than items.
    fn workers_for(&self, len: usize) -> usize {
        self.threads.min(len.max(1))
    }
}

impl Default for Parallelism {
    fn default() -> Parallelism {
        Parallelism::sequential()
    }
}

/// Split `members` into `workers` near-equal contiguous chunks.
fn chunk_slices(members: &[Member], workers: usize) -> Vec<&[Member]> {
    let size = members.len().div_ceil(workers);
    members.chunks(size.max(1)).collect()
}

/// Run `work` over each item on its own scoped thread (inline when there
/// is at most one item), preserving item order in the returned results.
/// The one place a kernel spawns threads.
fn fan_out<I, T, F>(items: Vec<I>, work: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    if items.len() <= 1 {
        return items.into_iter().map(&work).collect();
    }
    let work = &work;
    crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = items
            .into_iter()
            .map(|item| scope.spawn(move |_| work(item)))
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(out) => out,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    })
    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

/// `R |_σ A` — parallel σ-restriction. The witness structure is built once
/// (it only depends on `σ` and `A`, both typically small) and shared
/// read-only across workers filtering disjoint chunks of `R`.
pub fn par_sigma_restrict(
    r: &ExtendedSet,
    sigma: &ExtendedSet,
    a: &ExtendedSet,
    par: &Parallelism,
) -> ExtendedSet {
    let mut span = xst_obs::span!("par.sigma_restrict", card = r.card(), threads = par.threads);
    if !par.should_parallelize(r.card()) {
        return crate::ops::restrict::sigma_restrict(r, sigma, a);
    }
    let witnesses = restriction_witnesses(sigma, a);
    if witnesses.is_empty() {
        return ExtendedSet::empty();
    }
    let workers = par.workers_for(r.card());
    note_fanout(&mut span, workers);
    let kept = fan_out(chunk_slices(r.members(), workers), |chunk| {
        let mut cursor = witnesses.cursor();
        chunk
            .iter()
            .filter(|&m| cursor.matches(m))
            .cloned()
            .collect::<Vec<Member>>()
    });
    // Filtering a canonical list chunk-wise keeps it sorted and unique.
    ExtendedSet::from_sorted_unique(kept.concat())
}

/// `R[A]_⟨σ1,σ2⟩` — parallel fused image. Workers project their chunk of
/// `R` into a local canonical set; chunk images merge by union since the
/// image is a member-wise definition and canonicalization commutes with
/// union.
pub fn par_image(
    r: &ExtendedSet,
    a: &ExtendedSet,
    scope: &Scope,
    par: &Parallelism,
) -> ExtendedSet {
    let mut span = xst_obs::span!("par.image", card = r.card(), threads = par.threads);
    if !par.should_parallelize(r.card()) {
        return crate::ops::image::image(r, a, scope);
    }
    let witnesses = restriction_witnesses(&scope.sigma1, a);
    if witnesses.is_empty() {
        return ExtendedSet::empty();
    }
    let workers = par.workers_for(r.card());
    note_fanout(&mut span, workers);
    let sigma2 = ScopeMap::new(&scope.sigma2);
    let parts = fan_out(chunk_slices(r.members(), workers), |chunk| {
        let mut cursor = witnesses.cursor();
        chunk
            .iter()
            .filter(|&m| cursor.matches(m))
            .filter_map(|m| project(&sigma2, m))
            .collect::<ExtendedSet>()
    });
    union_all(parts.iter())
}

/// Relative product `F /ω_σ G` — parallel probe phase. `G` is indexed by
/// join key once (sequentially — building a shared hash map dominates far
/// less than probing), then workers probe disjoint chunks of `F`.
pub fn par_relative_product(
    f: &ExtendedSet,
    sigma: &Scope,
    g: &ExtendedSet,
    omega: &Scope,
    par: &Parallelism,
) -> ExtendedSet {
    let mut span = xst_obs::span!(
        "par.relative_product",
        card = f.card(),
        threads = par.threads
    );
    if !par.should_parallelize(f.card()) {
        return crate::ops::product::relative_product(f, sigma, g, omega);
    }
    let g_by_key = index_by_key(g, omega);
    let workers = par.workers_for(f.card());
    note_fanout(&mut span, workers);
    let parts = fan_out(chunk_slices(f.members(), workers), |chunk| {
        let mut out = SetBuilder::new();
        for m in chunk {
            probe_member(m, sigma, &g_by_key, &mut out);
        }
        out.build()
    });
    union_all(parts.iter())
}

/// `A ∪ B` — parallel union by member-range partitioning.
///
/// Boundary members drawn from the larger operand split *both* canonical
/// member lists into aligned, disjoint key ranges; each worker merges one
/// range pair and the ordered range results concatenate exactly.
pub fn par_union(a: &ExtendedSet, b: &ExtendedSet, par: &Parallelism) -> ExtendedSet {
    let mut span = xst_obs::span!(
        "par.union",
        card = a.card() + b.card(),
        threads = par.threads
    );
    if !par.should_parallelize(a.card() + b.card()) {
        return union(a, b);
    }
    note_fanout(&mut span, par.workers_for(a.card().max(b.card())));
    merge_by_ranges(a, b, par, merge::<true, true, true>)
}

/// `A ∩ B` — parallel intersection by member-range partitioning (same
/// scheme as [`par_union`]), when
/// [`intersection_fans_out`](Parallelism::intersection_fans_out).
pub fn par_intersection(a: &ExtendedSet, b: &ExtendedSet, par: &Parallelism) -> ExtendedSet {
    let mut span = xst_obs::span!(
        "par.intersection",
        card = a.card() + b.card(),
        threads = par.threads
    );
    if !par.intersection_fans_out(a, b) {
        return intersection(a, b);
    }
    note_fanout(&mut span, par.workers_for(a.card().max(b.card())));
    merge_by_ranges(a, b, par, merge::<false, true, false>)
}

/// Partition both operands at boundaries drawn from the larger side, run
/// `merge_range` per aligned range pair, concatenate in range order.
fn merge_by_ranges(
    a: &ExtendedSet,
    b: &ExtendedSet,
    par: &Parallelism,
    merge_range: fn(&[Member], &[Member], &mut Vec<Member>),
) -> ExtendedSet {
    let (lead, other) = if a.card() >= b.card() { (a, b) } else { (b, a) };
    let workers = par.workers_for(lead.card());
    let lead_chunks = chunk_slices(lead.members(), workers);
    // Align `other` to the lead chunks: cut it at each chunk's first member.
    let mut other_rest = other.members();
    let mut pairs: Vec<(&[Member], &[Member])> = Vec::with_capacity(lead_chunks.len());
    for (i, chunk) in lead_chunks.iter().enumerate() {
        let other_part = if i + 1 < lead_chunks.len() {
            let bound = &lead_chunks[i + 1][0];
            let cut = other_rest.partition_point(|m| m < bound);
            let (head, tail) = other_rest.split_at(cut);
            other_rest = tail;
            head
        } else {
            std::mem::take(&mut other_rest)
        };
        pairs.push((chunk, other_part));
    }
    // Both merges in use are symmetric, so lead/other order does not matter.
    let parts = fan_out(pairs, |(x, y)| {
        let mut out = Vec::new();
        merge_range(x, y, &mut out);
        out
    });
    ExtendedSet::from_sorted_unique(parts.concat())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::image::image;
    use crate::ops::product::relative_product;
    use crate::ops::restrict::sigma_restrict;
    use crate::set::ExtendedSet;
    use crate::value::Value;
    use crate::xset;

    fn pair_relation(n: i64) -> ExtendedSet {
        ExtendedSet::classical(
            (0..n).map(|i| ExtendedSet::pair(Value::Int(i % 97), Value::Int(i)).into_value()),
        )
    }

    fn forced(threads: usize) -> Parallelism {
        Parallelism::new(threads).with_threshold(1)
    }

    #[test]
    fn par_restrict_matches_sequential_on_forced_threads() {
        let r = pair_relation(500);
        let sigma = ExtendedSet::tuple([1i64]);
        let a = xset![ExtendedSet::tuple([Value::Int(13)]).into_value()];
        let expect = sigma_restrict(&r, &sigma, &a);
        for threads in [1, 2, 4, 8] {
            assert_eq!(par_sigma_restrict(&r, &sigma, &a, &forced(threads)), expect);
        }
    }

    #[test]
    fn par_image_matches_sequential_on_forced_threads() {
        let r = pair_relation(500);
        let a = xset![ExtendedSet::tuple([Value::Int(13)]).into_value()];
        let scope = Scope::pairs();
        let expect = image(&r, &a, &scope);
        assert!(!expect.is_empty());
        for threads in [1, 2, 4, 8] {
            assert_eq!(par_image(&r, &a, &scope, &forced(threads)), expect);
        }
    }

    #[test]
    fn par_relative_product_matches_sequential_on_forced_threads() {
        let f = pair_relation(300);
        let g = pair_relation(200);
        let sigma = Scope::new(xset![1 => 1], xset![2 => 1]);
        let omega = Scope::new(xset![1 => 1], xset![2 => 2]);
        let expect = relative_product(&f, &sigma, &g, &omega);
        assert!(!expect.is_empty());
        for threads in [1, 2, 4, 8] {
            assert_eq!(
                par_relative_product(&f, &sigma, &g, &omega, &forced(threads)),
                expect
            );
        }
    }

    #[test]
    fn par_boolean_matches_sequential_on_forced_threads() {
        let a = ExtendedSet::classical((0i64..400).map(Value::Int));
        let b = ExtendedSet::classical((200i64..600).map(Value::Int));
        let expect_u = union(&a, &b);
        let expect_i = intersection(&a, &b);
        for threads in [1, 2, 4, 8] {
            assert_eq!(par_union(&a, &b, &forced(threads)), expect_u);
            assert_eq!(par_intersection(&a, &b, &forced(threads)), expect_i);
            // Asymmetric cardinalities exercise the lead/other swap.
            assert_eq!(par_union(&b, &a, &forced(threads)), expect_u);
            assert_eq!(par_intersection(&b, &a, &forced(threads)), expect_i);
        }
    }

    #[test]
    fn below_threshold_stays_sequential_and_exact() {
        let a = ExtendedSet::classical((0i64..10).map(Value::Int));
        let b = ExtendedSet::classical((5i64..15).map(Value::Int));
        let par = Parallelism::new(8); // default threshold ≫ 20
        assert!(!par.should_parallelize(a.card() + b.card()));
        assert_eq!(par_union(&a, &b, &par), union(&a, &b));
    }

    #[test]
    fn parallelism_policy_basics() {
        assert_eq!(Parallelism::new(0).threads, 1);
        assert!(Parallelism::default() == Parallelism::sequential());
        assert!(Parallelism::available().threads >= 1);
        let p = Parallelism::new(4).with_threshold(100);
        assert!(!p.should_parallelize(99));
        assert!(p.should_parallelize(100));
        assert_eq!(p.workers_for(2), 2);
        assert_eq!(p.workers_for(0), 1);
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let empty = ExtendedSet::empty();
        let a = ExtendedSet::classical((0i64..50).map(Value::Int));
        let par = forced(4);
        assert_eq!(par_union(&empty, &a, &par), a);
        assert!(par_intersection(&empty, &a, &par).is_empty());
        assert!(par_sigma_restrict(&empty, &ExtendedSet::tuple([1i64]), &a, &par).is_empty());
        assert!(par_image(&a, &empty, &Scope::pairs(), &par).is_empty());
    }
}
