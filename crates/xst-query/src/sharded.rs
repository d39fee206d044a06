//! The plan walker: the one function in this crate that matches on
//! [`Expr`] and calls a kernel. Whole-set evaluation, sharded evaluation
//! and `EXPLAIN ANALYZE` are all entry points over `run`; what differs
//! is only where table leaves come from (a `Scan`) and which fold reads
//! the [`PlanNode`] profile tree the walk returns.
//!
//! A table enters either whole (from [`Bindings`]) or as the list of its
//! per-shard fragments (from [`ShardedBindings`]: pairwise disjoint,
//! union = the table). The walker keeps intermediates **scattered** as
//! long as the algebra allows and tracks one bit of provenance per
//! intermediate — whether its partition is still *aligned* with the
//! engine's member-hash routing:
//!
//! * table scans start aligned (the engine routed them by member hash);
//! * subset-producing operators (union/intersect/difference/restrict)
//!   preserve their carrier's alignment — every output member keeps the
//!   identity it was routed by;
//! * member-transforming operators (domain, image, relative product,
//!   cross) emit *new* members, so their outputs are an arbitrary
//!   partition (`aligned = false`) — still a valid fragmentation, just
//!   not zip-safe.
//!
//! Zip lowerings (`⋃ᵢ Aᵢ∩Bᵢ`) need alignment on BOTH sides; when either
//! side lost it, the walker falls back to the always-valid
//! fragment-vs-whole lowering (`⋃ᵢ Aᵢ∩B`) instead of silently dropping
//! members. Union zips for any equal-count partition. When every operand
//! is whole, each arm runs the plain parallel kernel. The result is
//! **identical** whichever way the leaves arrive — the differential tests
//! below drive whole and scattered leaves over the same inputs.
//!
//! The static-analysis gate runs once against the *merged* bindings:
//! analysis facts are properties of whole tables, and the merge is exact,
//! so gating on the union neither over- nor under-rejects.

use crate::eval::{EvalStats, OpKind, OpStat};
use crate::explain::PlanNode;
use crate::expr::{Bindings, Expr};
use std::collections::BTreeMap;
use std::time::Instant;
use xst_core::ops::{
    cross, difference, gather, par_image, par_intersection, par_relative_product,
    par_sigma_restrict, par_union, scatter_difference_whole, scatter_image,
    scatter_intersection_whole, scatter_relative_product, scatter_restrict, scatter_union,
    scatter_zip_difference, scatter_zip_intersection, sigma_domain, Parallelism,
};
use xst_core::{ExtendedSet, XstError, XstResult};

/// Every table bound as its per-shard fragment list, in shard order.
pub type ShardedBindings = BTreeMap<String, Vec<ExtendedSet>>;

/// Merge sharded bindings into whole-table [`Bindings`] (for the
/// analysis gate, or to hand a sharded environment to a single-set
/// consumer). Exact: gather is ordered union over disjoint fragments.
pub fn merge_bindings(sharded: &ShardedBindings) -> Bindings {
    sharded
        .iter()
        .map(|(name, frags)| (name.clone(), gather(frags)))
        .collect()
}

/// A leaf or intermediate during the walk.
pub(crate) enum Frag {
    /// A single set (literals, whole-set bindings, member-transforming
    /// results that a later operator needed whole).
    Whole(ExtendedSet),
    /// Still scattered across shards.
    Sharded {
        parts: Vec<ExtendedSet>,
        /// Partitioned by the engine's member-hash routing (zip-safe)?
        aligned: bool,
    },
}

impl Frag {
    fn card(&self) -> usize {
        match self {
            Frag::Whole(s) => s.card(),
            Frag::Sharded { parts, .. } => parts.iter().map(ExtendedSet::card).sum(),
        }
    }

    /// Fragment count, while scattered.
    fn parts(&self) -> Option<usize> {
        match self {
            Frag::Whole(_) => None,
            Frag::Sharded { parts, .. } => Some(parts.len()),
        }
    }

    /// Merge to a single set (gather if scattered).
    fn into_whole(self) -> ExtendedSet {
        match self {
            Frag::Whole(s) => s,
            Frag::Sharded { parts, .. } => gather(&parts),
        }
    }
}

/// Where the walk's table leaves come from.
pub(crate) type Scan<'a> = dyn Fn(&str) -> Option<Frag> + 'a;

/// Leaves from whole-set bindings (`ExtendedSet` is an `Arc`: the clone
/// is free).
pub(crate) fn whole_scan(bindings: &Bindings) -> impl Fn(&str) -> Option<Frag> + '_ {
    |name| bindings.get(name).cloned().map(Frag::Whole)
}

/// Leaves from per-shard fragments, aligned as the engine routed them.
pub(crate) fn shard_scan(bindings: &ShardedBindings) -> impl Fn(&str) -> Option<Frag> + '_ {
    |name| {
        let parts = bindings.get(name)?.clone();
        Some(Frag::Sharded {
            parts,
            aligned: true,
        })
    }
}

/// Evaluate `expr` over per-shard fragments, gathering once at the root.
/// Semantically identical to [`crate::eval::eval_parallel`] on the
/// merged bindings; the scatter keeps per-operator work partitioned by
/// shard (and attributes it per shard in the ambient
/// [`xst_obs::cost::QueryCost`] scope).
pub fn eval_sharded(
    expr: &Expr,
    bindings: &ShardedBindings,
    par: &Parallelism,
) -> XstResult<(ExtendedSet, EvalStats)> {
    crate::analysis::gate(expr, &merge_bindings(bindings))?;
    let (result, root) = run(expr, &shard_scan(bindings), par)?;
    Ok((result, EvalStats::of(&root)))
}

/// Walk `expr` from `scan`'s leaves and gather once at the root: the one
/// execution under every public entry point. Every caller gets the same
/// `query.eval` span (one per query regardless of sharding), the same
/// `eval.*` children and the same cost bill.
pub(crate) fn run(
    expr: &Expr,
    scan: &Scan<'_>,
    par: &Parallelism,
) -> XstResult<(ExtendedSet, PlanNode)> {
    let mut span = xst_obs::span!("query.eval", threads = par.threads);
    let (frag, mut root) = walk(expr, scan, par)?;
    let result = frag.into_whole();
    // Scattered image/product fragments may overlap until the gather;
    // the root reports the result the caller gets.
    root.rows_out = result.card() as u64;
    let nodes = root.size() as u64;
    if span.id().is_some() {
        if let Some(shards) = root.max_parts() {
            span.attr("shards", shards);
        }
        span.attr("nodes", nodes);
        span.attr("rows_out", root.rows_out);
    }
    xst_obs::cost::add_eval(nodes, root.rows_out);
    Ok((result, root))
}

/// What one arm of [`walk`] yields: the node's label, its result and —
/// for operators — the kernel's family and one-invocation profile.
type Step = (String, Frag, Option<(OpKind, OpStat)>);

/// The one site that runs a kernel: opens the family's `eval.*` span,
/// clocks the kernel (operand evaluation and gathers excluded) and
/// records the fan-out width `card` — the dominant-operand cardinality —
/// buys under `par`.
fn timed(
    kind: OpKind,
    par: &Parallelism,
    card: usize,
    kernel: impl FnOnce() -> XstResult<Frag>,
) -> XstResult<Step> {
    let mut span = xst_obs::SpanGuard::new(kind.span_name());
    let started = Instant::now();
    let out = kernel()?;
    if span.id().is_some() {
        span.attr("card_in", card);
        span.attr("rows_out", out.card());
    }
    drop(span);
    let stat = OpStat {
        invocations: 1,
        wall_nanos: started.elapsed().as_nanos() as u64,
        max_threads: if par.should_parallelize(card) {
            par.threads as u32
        } else {
            1
        },
    };
    Ok((kind.name().to_string(), out, Some((kind, stat))))
}

/// Execute one node: evaluate the operands, pick the lowering their
/// carriers allow, run it under [`timed`], and record the node's profile.
fn walk(expr: &Expr, scan: &Scan<'_>, par: &Parallelism) -> XstResult<(Frag, PlanNode)> {
    use Frag::{Sharded, Whole};
    let started = Instant::now();
    let mut children = Vec::new();
    let mut operand = |e: &Expr| -> XstResult<Frag> {
        let (frag, node) = walk(e, scan, par)?;
        children.push(node);
        Ok(frag)
    };
    // No parallel difference, domain or cross kernel: always sequential.
    let seq = Parallelism::sequential();
    let (op, result, kernel) = match expr {
        Expr::Literal(s) => Ok(("literal".to_string(), Whole(s.clone()), None)),
        Expr::Table(name) => match scan(name) {
            Some(leaf) => Ok((format!("table {name}"), leaf, None)),
            None => Err(XstError::NotComposable {
                reason: format!("unbound table {name}"),
            }),
        },
        Expr::Union(a, b) => {
            let (x, y) = (operand(a)?, operand(b)?);
            let card = x.card() + y.card();
            // Union zips for ANY equal-count partition; alignment of the
            // result holds only if both inputs were aligned.
            match (x, y) {
                (
                    Sharded {
                        parts: pa,
                        aligned: la,
                    },
                    Sharded {
                        parts: pb,
                        aligned: lb,
                    },
                ) if pa.len() == pb.len() => timed(OpKind::Union, par, card, || {
                    Ok(Sharded {
                        parts: scatter_union(&pa, &pb, par),
                        aligned: la && lb,
                    })
                }),
                (x, y) => {
                    let (xs, ys) = (x.into_whole(), y.into_whole());
                    timed(OpKind::Union, par, card, || {
                        Ok(Whole(par_union(&xs, &ys, par)))
                    })
                }
            }
        }
        Expr::Intersect(a, b) => {
            let (x, y) = (operand(a)?, operand(b)?);
            let card = x.card() + y.card();
            match (x, y) {
                (
                    Sharded {
                        parts: pa,
                        aligned: true,
                    },
                    Sharded {
                        parts: pb,
                        aligned: true,
                    },
                ) if pa.len() == pb.len() => timed(OpKind::Intersect, par, card, || {
                    Ok(Sharded {
                        parts: scatter_zip_intersection(&pa, &pb, par),
                        aligned: true,
                    })
                }),
                // Fragment-vs-whole: valid for any partition of the carrier
                // (intersection commutes, so either scattered side carries).
                (Sharded { parts, aligned }, other) | (other, Sharded { parts, aligned }) => {
                    let whole = other.into_whole();
                    timed(OpKind::Intersect, par, card, || {
                        Ok(Sharded {
                            parts: scatter_intersection_whole(&parts, &whole, par),
                            aligned,
                        })
                    })
                }
                (Whole(xs), Whole(ys)) => timed(OpKind::Intersect, par, card, || {
                    Ok(Whole(par_intersection(&xs, &ys, par)))
                }),
            }
        }
        Expr::Difference(a, b) => match (operand(a)?, operand(b)?) {
            (
                Sharded {
                    parts: pa,
                    aligned: true,
                },
                Sharded {
                    parts: pb,
                    aligned: true,
                },
            ) if pa.len() == pb.len() => timed(OpKind::Difference, &seq, 0, || {
                Ok(Sharded {
                    parts: scatter_zip_difference(&pa, &pb),
                    aligned: true,
                })
            }),
            // Difference is NOT commutative: only the left side may stay
            // scattered.
            (Sharded { parts, aligned }, y) => {
                let whole = y.into_whole();
                timed(OpKind::Difference, &seq, 0, || {
                    Ok(Sharded {
                        parts: scatter_difference_whole(&parts, &whole),
                        aligned,
                    })
                })
            }
            (Whole(xs), y) => {
                let ys = y.into_whole();
                timed(OpKind::Difference, &seq, 0, || {
                    Ok(Whole(difference(&xs, &ys)))
                })
            }
        },
        Expr::Restrict { r, sigma, a } => {
            let (rf, av) = (operand(r)?, operand(a)?.into_whole());
            timed(OpKind::Restrict, par, rf.card(), || {
                Ok(match rf {
                    // Restriction outputs a subset of its carrier
                    // fragment: alignment survives.
                    Sharded { parts, aligned } => Sharded {
                        parts: scatter_restrict(&parts, sigma, &av, par),
                        aligned,
                    },
                    Whole(rs) => Whole(par_sigma_restrict(&rs, sigma, &av, par)),
                })
            })
        }
        Expr::Domain { r, sigma } => {
            // σ-domain transforms members; evaluate whole (the gather is
            // exact, and the op is cheap relative to its carriers).
            let rs = operand(r)?.into_whole();
            timed(OpKind::Domain, &seq, 0, || {
                Ok(Whole(sigma_domain(&rs, sigma)))
            })
        }
        Expr::Image { r, a, scope } => {
            let (rf, av) = (operand(r)?, operand(a)?.into_whole());
            timed(OpKind::Image, par, rf.card(), || {
                Ok(match rf {
                    // Image re-scopes members: the output partition is
                    // arbitrary, not member-hash aligned.
                    Sharded { parts, .. } => Sharded {
                        parts: scatter_image(&parts, &av, scope, par),
                        aligned: false,
                    },
                    Whole(rs) => Whole(par_image(&rs, &av, scope, par)),
                })
            })
        }
        Expr::RelProduct { f, sigma, g, omega } => {
            let (ff, gs) = (operand(f)?, operand(g)?.into_whole());
            timed(OpKind::RelProduct, par, ff.card(), || {
                Ok(match ff {
                    Sharded { parts, .. } => Sharded {
                        parts: scatter_relative_product(&parts, sigma, &gs, omega, par),
                        aligned: false,
                    },
                    Whole(fs) => Whole(par_relative_product(&fs, sigma, &gs, omega, par)),
                })
            })
        }
        Expr::Cross(a, b) => {
            // `⊗` concatenates tuples — inherently whole-vs-whole.
            let (xs, ys) = (operand(a)?.into_whole(), operand(b)?.into_whole());
            timed(OpKind::Cross, &seq, xs.card() + ys.card(), || {
                Ok(Whole(cross(&xs, &ys)?))
            })
        }
    }?;
    let node = PlanNode {
        op,
        sig: String::new(),
        rows_out: result.card() as u64,
        parts: result.parts(),
        total_ns: started.elapsed().as_nanos() as u64,
        kernel,
        children,
    };
    Ok((result, node))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_parallel;
    use proptest::prelude::*;
    use xst_core::ops::partition_members;
    use xst_core::{Scope, SetBuilder, Value};

    fn rel(ks: &[(i64, i64)]) -> ExtendedSet {
        let mut b = SetBuilder::new();
        for (x, y) in ks {
            b.scoped(Value::Int(*y), Value::Int(*x));
        }
        b.build()
    }

    fn shard_env(tables: &[(&str, &ExtendedSet)], shards: usize) -> ShardedBindings {
        tables
            .iter()
            .map(|(n, s)| (n.to_string(), partition_members(s, shards)))
            .collect()
    }

    /// A family of plans exercising every operator family, including
    /// zip, fragment-vs-whole, alignment-loss (image feeding intersect),
    /// and whole-only (cross) paths.
    fn plans() -> Vec<Expr> {
        let sigma = Scope::pairs();
        vec![
            Expr::table("x").union(Expr::table("y")),
            Expr::table("x").intersect(Expr::table("y")),
            Expr::table("x").difference(Expr::table("y")),
            Expr::table("x")
                .union(Expr::table("y"))
                .intersect(Expr::table("x")),
            Expr::table("x")
                .image(Expr::table("k"), sigma.clone())
                .intersect(Expr::table("y")),
            Expr::table("x")
                .image(Expr::table("k"), sigma.clone())
                .union(Expr::table("y").image(Expr::table("k"), sigma.clone())),
            Expr::table("x").rel_product(sigma.clone(), Expr::table("y"), Scope::pairs_inverse()),
            Expr::table("x")
                .difference(Expr::table("y"))
                .union(Expr::table("y").difference(Expr::table("x"))),
        ]
    }

    proptest! {
        #[test]
        fn sharded_eval_matches_whole_eval(
            xs in proptest::collection::vec((0i64..40, 0i64..40), 0..30),
            ys in proptest::collection::vec((0i64..40, 0i64..40), 0..30),
            ks in proptest::collection::vec(0i64..40, 0..8),
            shards in 1usize..5,
        ) {
            let x = rel(&xs);
            let y = rel(&ys);
            let k = ExtendedSet::classical(ks.into_iter().map(Value::Int));
            let par = Parallelism::sequential();
            let sharded = shard_env(&[("x", &x), ("y", &y), ("k", &k)], shards);
            let merged = merge_bindings(&sharded);
            for plan in plans() {
                let (whole, whole_stats) = eval_parallel(&plan, &merged, &par).unwrap();
                let (scattered, stats) = eval_sharded(&plan, &sharded, &par).unwrap();
                prop_assert_eq!(&scattered, &whole, "plan {:?} diverged", plan);
                prop_assert!(stats.nodes > 0);
                prop_assert_eq!(stats.result_members, whole.card() as u64);
                // One walker: the same nodes and kernels whichever way the
                // leaves arrive. (Not `intermediate_members`: scattered
                // image fragments may overlap before the gather.)
                prop_assert_eq!(stats.nodes, whole_stats.nodes);
                for kind in OpKind::ALL {
                    prop_assert_eq!(
                        stats.op(kind).invocations,
                        whole_stats.op(kind).invocations,
                        "{} in {:?}", kind.name(), plan
                    );
                }
            }
        }
    }

    #[test]
    fn unbound_table_is_rejected_by_the_gate() {
        let env = ShardedBindings::new();
        let err = eval_sharded(&Expr::table("nope"), &env, &Parallelism::sequential());
        assert!(err.is_err());
    }

    #[test]
    fn merge_bindings_is_exact() {
        let x = rel(&[(1, 2), (3, 4), (5, 6), (7, 8)]);
        let sharded = shard_env(&[("x", &x)], 3);
        let merged = merge_bindings(&sharded);
        assert_eq!(merged.get("x"), Some(&x));
    }
}
