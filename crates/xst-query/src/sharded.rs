//! The plan walker: the one function in this crate that matches on
//! [`Expr`] and calls a kernel. Whole-set evaluation, sharded evaluation
//! and `EXPLAIN ANALYZE` are all entry points over `run`; what differs
//! is only where table leaves come from (a `Scan`) and which fold reads
//! the [`PlanNode`] profile tree the walk returns.
//!
//! Every leaf and intermediate has one shape, a [`Frag`]: a list of
//! pairwise-disjoint parts whose union is the set. A table from
//! [`ShardedBindings`] enters as its per-shard fragments; a literal or a
//! table from whole [`Bindings`] is the one-part partition of itself —
//! Childs' operations distribute over any union of their carrier, in one
//! part or in N, so each operator has ONE lowering. The walker keeps
//! intermediates **scattered** as long as the algebra allows and tracks
//! one bit of provenance per intermediate — whether its partition is still
//! *aligned* with the engine's member-hash routing:
//!
//! * table scans start aligned (the engine routed them by member hash),
//!   and one part is trivially aligned (there is nowhere else to be);
//! * subset-producing operators (union/intersect/difference/restrict)
//!   preserve their carrier's alignment — every output member keeps the
//!   identity it was routed by;
//! * member-transforming operators (image, relative product) emit *new*
//!   members, so their outputs are an arbitrary partition
//!   (`aligned = false`) — still a valid fragmentation, just not
//!   zip-safe; domain and cross gather their operands and yield one part.
//!
//! A binary operator zips part-by-part (`⋃ᵢ Aᵢ∩Bᵢ`) when both sides come
//! in the same number of parts and — for `∩` and `∖` — both are aligned;
//! union zips for any equal-count partitions. Otherwise it takes the
//! always-valid part-vs-whole lowering (`⋃ᵢ Aᵢ∩B`, every part of the
//! carrier against the gathered other side) instead of silently dropping
//! members. Two whole sets are the zip of two one-part partitions. The
//! result is **identical** however the leaves arrive — the differential
//! tests below drive whole and scattered leaves, in mixed part counts,
//! over the same inputs.
//!
//! The static-analysis gate needs whole tables only when it analyzes — a
//! plan holding `⊗` or naming an unbound table. Then it runs once against
//! the *merged* bindings: analysis facts are properties of whole tables,
//! and the merge is exact, so gating on the union neither over- nor
//! under-rejects. Every other plan passes on its table names, and the
//! walk gathers once, at the root.
//!
//! A subexpression denotes one set, so a plan computes it once: before the
//! walk, one pass over the plan finds the operator subtrees it repeats
//! (structurally — `f[w]` written twice is one subtree). The walk runs the
//! first copy and hands every later one its [`Frag`] — `Arc` clones — as a
//! childless `(shared)` node that ran no kernel. The memo is scoped to one
//! [`run`] and keeps repeated subtrees only, so a plan without repetition
//! retains nothing extra.
//!
//! The same provenance says where a plan can run. [`cut`] finds the
//! subtrees the walk keeps scattered with no gather — `∪`/`∩`/`∖` over
//! aligned tables and carried literals — whose part `i` depends on part `i`
//! of each table alone; a shard can run such a subtree over its own
//! fragments, and the residual plan walks their partials bound as aligned
//! fragments.

use crate::eval::{EvalStats, OpKind, OpStat};
use crate::explain::PlanNode;
use crate::expr::{Bindings, Expr};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::mem::Discriminant;
use std::time::Instant;
use xst_core::ops::{
    cross, difference, gather, map_parts, par_image, par_intersection, par_relative_product,
    par_sigma_restrict, par_union, sigma_domain, zip_parts, Parallelism,
};
use xst_core::{ExtendedSet, XstError, XstResult};

/// Every table bound as its per-shard fragment list, in shard order.
pub type ShardedBindings = BTreeMap<String, Vec<ExtendedSet>>;

/// Merge sharded bindings into whole-table [`Bindings`] (for a plan the
/// analysis gate must analyze, EXPLAIN's signatures, or to hand a
/// sharded environment to a single-set consumer). Exact: gather is
/// ordered union over disjoint fragments.
pub fn merge_bindings(sharded: &ShardedBindings) -> Bindings {
    sharded
        .iter()
        .map(|(name, frags)| (name.clone(), gather(frags)))
        .collect()
}

/// A leaf or intermediate during the walk: a partition of the set it
/// denotes (pairwise-disjoint parts until an image or relative product
/// re-scopes them; their union is always the set).
#[derive(Clone)]
pub(crate) struct Frag {
    parts: Vec<ExtendedSet>,
    /// Partitioned by the engine's member-hash routing (zip-safe)?
    aligned: bool,
}

impl Frag {
    /// One part is trivially aligned: every member is in the only part
    /// any routing could name.
    fn new(parts: Vec<ExtendedSet>, aligned: bool) -> Frag {
        let aligned = aligned || parts.len() == 1;
        Frag { parts, aligned }
    }

    /// A single set — a literal, a whole-set binding, a gathered operand —
    /// is the one-part partition of itself.
    fn whole(set: ExtendedSet) -> Frag {
        Frag::new(vec![set], true)
    }

    fn card(&self) -> usize {
        self.parts.iter().map(ExtendedSet::card).sum()
    }

    /// Cardinality of the largest part: what one kernel run sees.
    fn widest(&self) -> usize {
        self.parts.iter().map(ExtendedSet::card).max().unwrap_or(0)
    }

    /// Part count, while scattered over more than one.
    fn scattered(&self) -> Option<usize> {
        Some(self.parts.len()).filter(|&n| n > 1)
    }

    /// Merge to a single set (a no-op for one part).
    fn into_whole(self) -> ExtendedSet {
        gather(&self.parts)
    }
}

/// Where the walk's table leaves come from.
pub(crate) type Scan<'a> = dyn Fn(&str) -> Option<Frag> + 'a;

/// Leaves from whole-set bindings (`ExtendedSet` is an `Arc`: the clone
/// is free).
pub(crate) fn whole_scan(bindings: &Bindings) -> impl Fn(&str) -> Option<Frag> + '_ {
    |name| bindings.get(name).cloned().map(Frag::whole)
}

/// Leaves from per-shard fragments, aligned as the engine routed them.
pub(crate) fn shard_scan(bindings: &ShardedBindings) -> impl Fn(&str) -> Option<Frag> + '_ {
    |name| Some(Frag::new(bindings.get(name)?.clone(), true))
}

/// Evaluate `expr` over per-shard fragments, gathering once at the root.
/// Semantically identical to [`crate::eval::eval_parallel`] on the
/// merged bindings; the scatter keeps per-operator work partitioned by
/// shard (and attributes it per shard in the ambient
/// [`xst_obs::cost::QueryCost`] scope). The gate checks table names
/// against the fragments' keys and merges them only for a plan it must
/// analyze (one with `⊗` or an unbound table).
pub fn eval_sharded(
    expr: &Expr,
    bindings: &ShardedBindings,
    par: &Parallelism,
) -> XstResult<(ExtendedSet, EvalStats)> {
    crate::analysis::gate(
        expr,
        |t| bindings.contains_key(t),
        || Cow::Owned(merge_bindings(bindings)),
    )?;
    let (result, root) = run(expr, &shard_scan(bindings), par)?;
    Ok((result, EvalStats::of(&root)))
}

/// A plan split where the shards can answer alone (see [`cut`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cut {
    /// The plan with each shard-local subtree replaced by a table named
    /// after it — a name no table of the plan uses.
    pub residual: Expr,
    /// The maximal shard-local subtrees in plan order, each under its
    /// placeholder's name.
    pub local: Vec<(String, Expr)>,
}

/// Split `plan` into the maximal subtrees each shard can answer over its
/// own fragments, and the residual plan over their results.
///
/// A subtree is shard-local exactly when the walk keeps it scattered with
/// no gather: a `∪`/`∩`/`∖` tree holding at least one table, whose
/// operands are tables, other such trees, or a literal that a scattered
/// side carries — `t ∩ L`, `L ∩ t`, `t ∖ L`. Over aligned tables every part
/// of it is the operator over the parts of one shard (`tᵢ ∩ uᵢ`,
/// `tᵢ ∖ L`), so its result part `i` is what shard `i` computes alone, and
/// the partials are aligned fragments of the result. `L ∖ t` and `t ∪ L`
/// gather, and restriction, image, domain, relative product and `⊗`
/// transform or gather their operands: they stay in the residual, with
/// any shard-local operand cut out beneath them.
pub fn cut(plan: &Expr) -> Cut {
    fn scattered(e: &Expr) -> bool {
        let lit = |e: &Expr| matches!(e, Expr::Literal(_));
        match e {
            Expr::Table(_) => true,
            Expr::Union(a, b) => scattered(a) && scattered(b),
            Expr::Intersect(a, b) => {
                (scattered(a) && (lit(b) || scattered(b))) || (lit(a) && scattered(b))
            }
            Expr::Difference(a, b) => scattered(a) && (lit(b) || scattered(b)),
            _ => false,
        }
    }
    fn go(e: Expr, local: &mut Vec<(String, Expr)>, fresh: &mut dyn FnMut() -> String) -> Expr {
        // A bare table is read where it is; only an operator ships.
        if scattered(&e) && !matches!(e, Expr::Table(_)) {
            let name = fresh();
            local.push((name.clone(), e));
            return Expr::Table(name);
        }
        e.map_children(|c| go(c, local, fresh))
    }
    let taken = plan.tables();
    let mut next = 0;
    let mut fresh = || loop {
        let name = format!("⟨subplan {next}⟩");
        next += 1;
        if !taken.contains(&name.as_str()) {
            return name;
        }
    };
    let mut local = Vec::new();
    let residual = go(plan.clone(), &mut local, &mut fresh);
    Cut { residual, local }
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
    let (frag, mut root) = walk(expr, scan, par, &mut Memo::of(expr))?;
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

/// The one site that runs a kernel: opens the family's `eval.*` span and
/// clocks the kernel (operand evaluation and gathers excluded). `card` is
/// the dominant operand's cardinality, recorded as the span's `card_in`;
/// `fanned` says whether any single kernel run cleared its family's
/// fan-out rule (never, for a family without a parallel kernel).
fn timed(
    kind: OpKind,
    par: &Parallelism,
    card: usize,
    fanned: bool,
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
        max_threads: if fanned { par.threads as u32 } else { 1 },
    };
    Ok((kind.name().to_string(), out, Some((kind, stat))))
}

/// The one lowering of a carrier family (restrict, image, relative
/// product): `kernel` over every part of the carrier `r`, the other
/// operands whole inside the closure — `⋃ᵢ k(Rᵢ)`, valid for any
/// partition of `r`.
fn map(
    kind: OpKind,
    par: &Parallelism,
    r: Frag,
    aligned: bool,
    kernel: impl Fn(&ExtendedSet) -> ExtendedSet,
) -> XstResult<Step> {
    let fanned = par.should_parallelize(r.widest());
    timed(kind, par, r.card(), fanned, || {
        Ok(Frag::new(map_parts(&r.parts, kernel), aligned))
    })
}

/// The one lowering of a binary member-wise family (`∪`, `∩`, `∖`). Zip
/// part-by-part — `⋃ᵢ k(Xᵢ, Yᵢ)` — when `zip_ok` and both sides come in
/// the same number of parts; otherwise `x` carries: every part of it
/// against the gathered `y` — `⋃ᵢ k(Xᵢ, Y)`, valid for any partition of
/// `x`. `card` is the family's dominant-operand cardinality.
fn pairwise(
    kind: OpKind,
    par: &Parallelism,
    card: usize,
    x: Frag,
    y: Frag,
    zip_ok: bool,
    kernel: impl Fn(&ExtendedSet, &ExtendedSet) -> ExtendedSet,
) -> XstResult<Step> {
    // The kernel's own fan-out rule over one pair: `∪` weighs both
    // operands, `∩` the members its merge visits, `∖` never fans out.
    let fans_out = |p: &ExtendedSet, q: &ExtendedSet| match kind {
        OpKind::Union => par.should_parallelize(p.card() + q.card()),
        OpKind::Intersect => par.intersection_fans_out(p, q),
        _ => false,
    };
    if zip_ok && x.parts.len() == y.parts.len() {
        let fanned = x.parts.iter().zip(&y.parts).any(|(p, q)| fans_out(p, q));
        timed(kind, par, card, fanned, || {
            let parts = zip_parts(&x.parts, &y.parts, kernel);
            Ok(Frag::new(parts, x.aligned && y.aligned))
        })
    } else {
        let whole = y.into_whole();
        let fanned = x.parts.iter().any(|p| fans_out(p, &whole));
        timed(kind, par, card, fanned, || {
            let parts = map_parts(&x.parts, |p| kernel(p, &whole));
            Ok(Frag::new(parts, x.aligned))
        })
    }
}

/// One plan node with its operands replaced by their slots: equal shapes
/// are structurally equal subtrees.
#[derive(PartialEq, Eq, Hash)]
enum Shape<'e> {
    Table(&'e str),
    Literal(ByCard<'e>),
    /// An operator: its variant, its parameters, its operands' slots.
    Op(Discriminant<Expr>, Vec<&'e ExtendedSet>, Vec<usize>),
}

/// A literal hashed by its cardinality and compared by content, so keying
/// it is O(1) however large it is (and a clone compares by pointer).
struct ByCard<'e>(&'e ExtendedSet);

impl Hash for ByCard<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.card().hash(state);
    }
}

impl PartialEq for ByCard<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl Eq for ByCard<'_> {}

/// The operator subtrees one plan repeats, and the results of the copies
/// walked so far. It lives for one [`run`]: nothing is cached across plans.
#[derive(Default)]
struct Memo {
    /// Each copy of a repeated operator subtree, by address → the slot it
    /// shares with its equals.
    slots: HashMap<*const Expr, usize>,
    /// The result of a slot's first copy.
    done: HashMap<usize, Frag>,
}

impl Memo {
    /// Find the repeated operator subtrees of `plan` in one O(plan) pass
    /// that slots every node bottom-up by its [`Shape`]. Leaves are never
    /// kept: a table or a literal is already a free `Arc` clone.
    fn of(plan: &Expr) -> Memo {
        // Two copies of an operator subtree under a common operator take
        // at least five nodes.
        if plan.size() < 5 {
            return Memo::default();
        }
        fn slot<'e>(
            e: &'e Expr,
            shapes: &mut HashMap<Shape<'e>, usize>,
            copies: &mut Vec<usize>,
            ops: &mut Vec<(*const Expr, usize)>,
        ) -> usize {
            let operands = e.children().map(|c| slot(c, shapes, copies, ops)).collect();
            let params = match e {
                Expr::Restrict { sigma, .. } | Expr::Domain { sigma, .. } => vec![sigma],
                Expr::Image { scope, .. } => vec![&scope.sigma1, &scope.sigma2],
                Expr::RelProduct { sigma, omega, .. } => {
                    vec![&sigma.sigma1, &sigma.sigma2, &omega.sigma1, &omega.sigma2]
                }
                _ => Vec::new(),
            };
            let shape = match e {
                Expr::Table(name) => Shape::Table(name),
                Expr::Literal(set) => Shape::Literal(ByCard(set)),
                _ => Shape::Op(std::mem::discriminant(e), params, operands),
            };
            let operator = matches!(shape, Shape::Op(..));
            let fresh = shapes.len();
            let id = *shapes.entry(shape).or_insert(fresh);
            if id == fresh {
                copies.push(0);
            }
            copies[id] += 1;
            if operator {
                ops.push((e as *const Expr, id));
            }
            id
        }
        let (mut copies, mut ops) = (Vec::new(), Vec::new());
        slot(plan, &mut HashMap::new(), &mut copies, &mut ops);
        Memo {
            slots: ops.into_iter().filter(|&(_, id)| copies[id] > 1).collect(),
            done: HashMap::new(),
        }
    }

    /// `expr`'s slot, if the plan repeats it.
    fn slot_of(&self, expr: &Expr) -> Option<usize> {
        self.slots.get(&(expr as *const Expr)).copied()
    }
}

/// Execute one node: evaluate the operands, run the family's one lowering
/// under [`timed`], and record the node's profile. A later copy of a
/// repeated subtree runs nothing: it is the earlier copy's result under a
/// `(shared)` node.
fn walk(
    expr: &Expr,
    scan: &Scan<'_>,
    par: &Parallelism,
    memo: &mut Memo,
) -> XstResult<(Frag, PlanNode)> {
    let started = Instant::now();
    let repeated = memo.slot_of(expr);
    if let Some(result) = repeated.and_then(|id| memo.done.get(&id).cloned()) {
        let node = PlanNode {
            op: "(shared)".to_string(),
            sig: String::new(),
            rows_out: result.card() as u64,
            parts: result.scattered(),
            total_ns: started.elapsed().as_nanos() as u64,
            kernel: None,
            children: Vec::new(),
        };
        return Ok((result, node));
    }
    let mut children = Vec::new();
    let mut operand = |e: &Expr| -> XstResult<Frag> {
        let (frag, node) = walk(e, scan, par, memo)?;
        children.push(node);
        Ok(frag)
    };
    let (op, result, kernel) = match expr {
        Expr::Literal(s) => Ok(("literal".to_string(), Frag::whole(s.clone()), None)),
        Expr::Table(name) => match scan(name) {
            Some(leaf) => Ok((format!("table {name}"), leaf, None)),
            None => Err(XstError::NotComposable {
                reason: format!("unbound table {name}"),
            }),
        },
        Expr::Union(a, b) => {
            let (mut x, mut y) = (operand(a)?, operand(b)?);
            // Union drops nothing, so it zips for ANY equal-count
            // partitions (the result is aligned only if both were). On
            // unequal counts neither side can carry — the other's members
            // would land in every part — so both gather.
            if x.parts.len() != y.parts.len() {
                (x, y) = (Frag::whole(x.into_whole()), Frag::whole(y.into_whole()));
            }
            let card = x.card() + y.card();
            pairwise(OpKind::Union, par, card, x, y, true, |p, q| {
                par_union(p, q, par)
            })
        }
        Expr::Intersect(a, b) => {
            let (mut x, mut y) = (operand(a)?, operand(b)?);
            // Intersection commutes, so off the zip either side may carry:
            // the one in more parts does (fewer members to gather).
            if x.parts.len() < y.parts.len() {
                std::mem::swap(&mut x, &mut y);
            }
            let (card, zip_ok) = (x.card() + y.card(), x.aligned && y.aligned);
            pairwise(OpKind::Intersect, par, card, x, y, zip_ok, |p, q| {
                par_intersection(p, q, par)
            })
        }
        Expr::Difference(a, b) => {
            let (x, y) = (operand(a)?, operand(b)?);
            // Difference is NOT commutative: only the left side may carry.
            let (card, zip_ok) = (x.card(), x.aligned && y.aligned);
            pairwise(OpKind::Difference, par, card, x, y, zip_ok, difference)
        }
        Expr::Restrict { r, sigma, a } => {
            let (rf, av) = (operand(r)?, operand(a)?.into_whole());
            // Restriction outputs a subset of each carrier part: alignment
            // survives.
            let aligned = rf.aligned;
            map(OpKind::Restrict, par, rf, aligned, |p| {
                par_sigma_restrict(p, sigma, &av, par)
            })
        }
        Expr::Domain { r, sigma } => {
            // σ-domain transforms members; evaluate whole (the gather is
            // exact, and the op is cheap relative to its carriers).
            let rs = operand(r)?.into_whole();
            timed(OpKind::Domain, par, rs.card(), false, || {
                Ok(Frag::whole(sigma_domain(&rs, sigma)))
            })
        }
        Expr::Image { r, a, scope } => {
            let (rf, av) = (operand(r)?, operand(a)?.into_whole());
            // Image re-scopes members: the output partition is arbitrary,
            // not member-hash aligned.
            map(OpKind::Image, par, rf, false, |p| {
                par_image(p, &av, scope, par)
            })
        }
        Expr::RelProduct { f, sigma, g, omega } => {
            let (ff, gs) = (operand(f)?, operand(g)?.into_whole());
            map(OpKind::RelProduct, par, ff, false, |p| {
                par_relative_product(p, sigma, &gs, omega, par)
            })
        }
        Expr::Cross(a, b) => {
            // `⊗` concatenates tuples — inherently whole-vs-whole.
            let (xs, ys) = (operand(a)?.into_whole(), operand(b)?.into_whole());
            let card = xs.card() + ys.card();
            timed(OpKind::Cross, par, card, false, || {
                Ok(Frag::whole(cross(&xs, &ys)?))
            })
        }
    }?;
    if let Some(id) = repeated {
        memo.done.insert(id, result.clone());
    }
    let node = PlanNode {
        op,
        sig: String::new(),
        rows_out: result.card() as u64,
        parts: result.scattered(),
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

    /// Each table partitioned into its own number of parts.
    fn shard_env(tables: &[(&str, &ExtendedSet, usize)]) -> ShardedBindings {
        tables
            .iter()
            .map(|(n, s, shards)| (n.to_string(), partition_members(s, *shards)))
            .collect()
    }

    /// A family of plans exercising every operator family, including
    /// zip, part-vs-whole (unequal counts, a literal on either side),
    /// alignment-loss (image feeding intersect), and whole-only (cross)
    /// paths.
    fn plans(lit: &ExtendedSet) -> Vec<Expr> {
        let sigma = Scope::pairs();
        let lit = || Expr::lit(lit.clone());
        vec![
            Expr::table("x").intersect(lit()),
            lit().intersect(Expr::table("y")),
            Expr::table("x").difference(lit()),
            lit().difference(Expr::table("y")),
            Expr::table("x").union(lit()),
            lit().union(Expr::table("y")),
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
            // Repeated subtrees, which the walk runs once each.
            inproc_shaped("x", "y", "k"),
            Expr::table("x")
                .difference(Expr::table("y"))
                .union(Expr::table("x").difference(Expr::table("y"))),
            Expr::table("x").difference(Expr::table("y")).union(
                Expr::table("x")
                    .difference(Expr::table("y"))
                    .intersect(Expr::table("x").difference(Expr::table("y"))),
            ),
            Expr::table("x")
                .intersect(lit())
                .union(Expr::table("y").difference(Expr::table("x").intersect(lit()))),
            // Shard-local subtrees, whole and beneath operators that stay,
            // and a gathering `t ∪ L` beneath one that would otherwise ship.
            Expr::table("x").union(Expr::table("y")).difference(lit()),
            Expr::table("x").union(lit()).difference(Expr::table("y")),
            Expr::table("x").difference(lit()).restrict(
                ExtendedSet::tuple([1i64]),
                Expr::table("y").intersect(Expr::table("x")),
            ),
        ]
    }

    /// `inproc_plan`'s optimized plan over relations `f`, `g` and witnesses
    /// `w`: `(f[w] ∪ g[w]) ∖ (f[w] ∩ g[w])`, each image written twice.
    fn inproc_shaped(f: &str, g: &str, w: &str) -> Expr {
        let image = |r: &str| Expr::table(r).image(Expr::table(w), Scope::pairs());
        image(f)
            .union(image(g))
            .difference(image(f).intersect(image(g)))
    }

    proptest! {
        #[test]
        fn sharded_eval_matches_whole_eval(
            xs in proptest::collection::vec((0i64..40, 0i64..40), 0..30),
            ys in proptest::collection::vec((0i64..40, 0i64..40), 0..30),
            ks in proptest::collection::vec(0i64..40, 0..8),
            ls in proptest::collection::vec((0i64..40, 0i64..40), 0..10),
            sx in 1usize..5,
            sy in 1usize..5,
        ) {
            let x = rel(&xs);
            let y = rel(&ys);
            let k = ExtendedSet::classical(ks.into_iter().map(Value::Int));
            let par = Parallelism::sequential();
            let sharded = shard_env(&[("x", &x, sx), ("y", &y, sy), ("k", &k, 1)]);
            let merged = merge_bindings(&sharded);
            // The literal shares members with both tables, so `∩` and `∖`
            // against it are not vacuous.
            let shared = xs.iter().step_by(2).chain(ys.iter().step_by(3));
            let lit = rel(&ls.iter().chain(shared).copied().collect::<Vec<_>>());
            // The cut's deployment: every table in `sx` aligned parts, one
            // per shard.
            let shards = shard_env(&[("x", &x, sx), ("y", &y, sx), ("k", &k, sx)]);
            for plan in plans(&lit) {
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
                // Cut: each shard-local subtree runs on every part alone,
                // then the residual walks the partials.
                let Cut { residual, local } = cut(&plan);
                prop_assert_eq!(&substitute(residual.clone(), &local), &plan);
                let mut env = shards.clone();
                for (name, subplan) in &local {
                    let partials = (0..sx).map(|i| {
                        let part: Bindings =
                            shards.iter().map(|(t, parts)| (t.clone(), parts[i].clone())).collect();
                        eval_parallel(subplan, &part, &par).unwrap().0
                    });
                    env.insert(name.clone(), partials.collect());
                }
                let (split, _) = eval_sharded(&residual, &env, &par).unwrap();
                prop_assert_eq!(&split, &whole, "cut of {:?} diverged", plan);
            }
        }
    }

    /// The residual with each placeholder replaced by its subtree.
    fn substitute(residual: Expr, local: &[(String, Expr)]) -> Expr {
        match residual {
            Expr::Table(name) => match local.iter().find(|(n, _)| *n == name) {
                Some((_, subplan)) => subplan.clone(),
                None => Expr::Table(name),
            },
            other => other.map_children(|c| substitute(c, local)),
        }
    }

    /// The boundary: which shapes ship and which stay at the root.
    #[test]
    fn the_cut_ships_boolean_trees_over_tables_only() {
        let (t, u, w) = (
            || Expr::table("t"),
            || Expr::table("u"),
            || Expr::table("w"),
        );
        let l = || Expr::lit(ExtendedSet::classical([1i64]));
        let sigma = || ExtendedSet::tuple([1i64]);
        for ships in [
            t().intersect(l()),
            l().intersect(t()),
            t().difference(l()),
            t().intersect(u()),
            t().difference(u()),
            t().union(u()),
            t().union(u()).difference(l()),
            l().intersect(t().difference(u())),
        ] {
            let Cut { residual, local } = cut(&ships);
            assert_eq!(local.len(), 1, "{ships}");
            assert_eq!(residual, Expr::table(&local[0].0), "{ships}");
            assert_eq!(local[0].1, ships);
        }
        for stays in [
            l().difference(t()),
            t().union(l()),
            t(),
            l().intersect(l()),
            t().intersect(u().union(l())),
            t().restrict(sigma(), w()),
            t().image(w(), Scope::pairs()),
            t().domain(sigma()),
            t().rel_product(Scope::pairs(), u(), Scope::pairs_inverse()),
            t().cross(u()),
        ] {
            let kept = Cut {
                residual: stays.clone(),
                local: Vec::new(),
            };
            assert_eq!(cut(&stays), kept);
        }
        // Beneath an operator that stays, a shard-local operand is cut out,
        // under a name the plan does not use.
        let taken = "⟨subplan 0⟩";
        let plan = t()
            .intersect(l())
            .restrict(sigma(), Expr::table(taken).union(u()));
        let Cut { residual, local } = cut(&plan);
        let names: Vec<&str> = local.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["⟨subplan 1⟩", "⟨subplan 2⟩"]);
        let want = Expr::table(names[0]).restrict(sigma(), Expr::table(names[1]));
        assert_eq!(residual, want);
        assert_eq!(substitute(residual, &local), plan);
    }

    /// An image re-scopes members, so its parts are no longer where the
    /// member hash would route them: `∩`/`∖` against an aligned table in
    /// the SAME number of parts must not zip. (The proptest's image plans
    /// come out empty over `rel`'s non-tuple members; these do not.)
    #[test]
    fn alignment_loss_falls_back_to_part_vs_whole() {
        let tuples = |vs: std::ops::Range<i64>| {
            ExtendedSet::classical(vs.map(|v| ExtendedSet::tuple([v]).into_value()))
        };
        let p = ExtendedSet::classical(
            (0..40i64).map(|i| ExtendedSet::pair(i, (i * 7) % 40).into_value()),
        );
        let (k, t) = (tuples(0..30), tuples(10..40));
        let par = Parallelism::sequential();
        let image = || Expr::table("p").image(Expr::table("k"), Scope::pairs());
        for shards in 2..5 {
            let sharded = shard_env(&[("p", &p, shards), ("k", &k, 1), ("t", &t, shards)]);
            let merged = merge_bindings(&sharded);
            for plan in [
                image().intersect(Expr::table("t")),
                Expr::table("t").intersect(image()),
                image().difference(Expr::table("t")),
                Expr::table("t").difference(image()),
            ] {
                let (whole, _) = eval_parallel(&plan, &merged, &par).unwrap();
                let (scattered, _) = eval_sharded(&plan, &sharded, &par).unwrap();
                assert!(!whole.is_empty(), "vacuous: {plan:?}");
                assert_eq!(scattered, whole, "{shards} shards, {plan:?}");
            }
        }
    }

    /// `inproc_plan`'s shape writes each of its two images twice; the walk
    /// runs each once and answers the second copy from the memo — one
    /// `(shared)` node each, whole or scattered.
    #[test]
    fn a_repeated_image_runs_once() {
        use xst_core::ops::{image, intersection, union};
        let pairs = |n: i64, to: i64| {
            ExtendedSet::classical((0..n).map(|i| ExtendedSet::pair(i, to + i % 40).into_value()))
        };
        // Overlapping images: `f[w]` reaches 0‥39, `g[w]` 20‥59.
        let (f, g) = (pairs(200, 0), pairs(150, 20));
        let w = ExtendedSet::classical((0..60).map(|i| ExtendedSet::tuple([i * 2]).into_value()));
        let scope = Scope::pairs();
        let (fw, gw) = (image(&f, &w, &scope), image(&g, &w, &scope));
        let want = difference(&union(&fw, &gw), &intersection(&fw, &gw));
        assert!(!want.is_empty());
        let plan = inproc_shaped("f", "g", "w");
        let par = Parallelism::sequential();
        for shards in 1..4 {
            let sharded = shard_env(&[("f", &f, shards), ("g", &g, shards), ("w", &w, 1)]);
            let (got, root) = run(&plan, &shard_scan(&sharded), &par).unwrap();
            assert_eq!(got, want, "{shards} shards");
            let stats = EvalStats::of(&root);
            assert_eq!(stats.op(OpKind::Image).invocations, 2, "not 4");
            // 3 boolean operators, 2 images, their 4 leaves, 2 `(shared)`.
            assert_eq!((stats.nodes, shared(&root)), (11, 2));
        }
    }

    fn shared(node: &PlanNode) -> usize {
        let here = usize::from(node.op == "(shared)");
        here + node.children.iter().map(shared).sum::<usize>()
    }

    /// The memo keeps every copy of a repeated operator subtree under one
    /// slot, and nothing else: no leaf, no subtree written once, no
    /// operator whose parameters or literal differ.
    #[test]
    fn the_memo_keeps_repeated_operator_subtrees_only() {
        let d = || Expr::table("x").difference(Expr::table("y"));
        let memo = Memo::of(&d().union(d().intersect(d())));
        let slots: std::collections::BTreeSet<_> = memo.slots.values().collect();
        assert_eq!((memo.slots.len(), slots.len()), (3, 1));
        assert!(Memo::of(&d().union(Expr::table("x"))).slots.is_empty());
        let tables = Expr::table("x").union(Expr::table("x"));
        assert_eq!(Memo::of(&tables.clone().union(tables)).slots.len(), 2);
        let restrict =
            |s: i64| Expr::table("x").restrict(ExtendedSet::tuple([s]), Expr::table("y"));
        assert_eq!(Memo::of(&restrict(1).union(restrict(1))).slots.len(), 2);
        assert!(Memo::of(&restrict(1).union(restrict(2))).slots.is_empty());
        // Equal literals built apart share a slot, by content.
        let probe = |k: i64| Expr::table("x").intersect(Expr::lit(ExtendedSet::classical([k])));
        assert_eq!(Memo::of(&probe(1).union(probe(1))).slots.len(), 2);
        assert!(Memo::of(&probe(1).union(probe(2))).slots.is_empty());
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
        let sharded = shard_env(&[("x", &x, 3)]);
        let merged = merge_bindings(&sharded);
        assert_eq!(merged.get("x"), Some(&x));
    }
}
