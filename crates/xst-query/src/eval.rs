//! Whole-set evaluation entry points and operator statistics.
//!
//! Execution itself lives in [`crate::sharded`]: `eval` / `eval_counted`
//! / `eval_parallel` gate the plan, hand whole-set bindings to the one
//! plan walker as one-part leaves, and fold the [`PlanNode`] profile
//! tree it returns into [`EvalStats`].

use crate::explain::PlanNode;
use crate::expr::{Bindings, Expr};
use crate::sharded::{run, whole_scan};
use std::borrow::Cow;
use std::fmt;
use xst_core::ops::Parallelism;
use xst_core::{ExtendedSet, XstResult};

/// Operator families the evaluator accounts separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `A ∪ B`
    Union,
    /// `A ∩ B`
    Intersect,
    /// `A ~ B`
    Difference,
    /// `R |_σ A`
    Restrict,
    /// `𝔇_σ(R)`
    Domain,
    /// `R[A]_σ`
    Image,
    /// `F /ω_σ G`
    RelProduct,
    /// `A ⊗ B`
    Cross,
}

/// Number of [`OpKind`] variants (length of [`EvalStats::per_op`]).
pub const OP_KINDS: usize = 8;

impl OpKind {
    /// All kinds, in `per_op` index order.
    pub const ALL: [OpKind; OP_KINDS] = [
        OpKind::Union,
        OpKind::Intersect,
        OpKind::Difference,
        OpKind::Restrict,
        OpKind::Domain,
        OpKind::Image,
        OpKind::RelProduct,
        OpKind::Cross,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Union => "union",
            OpKind::Intersect => "intersect",
            OpKind::Difference => "difference",
            OpKind::Restrict => "restrict",
            OpKind::Domain => "domain",
            OpKind::Image => "image",
            OpKind::RelProduct => "rel_product",
            OpKind::Cross => "cross",
        }
    }

    /// Trace-span name for this family's evaluator site.
    pub fn span_name(self) -> &'static str {
        match self {
            OpKind::Union => "eval.union",
            OpKind::Intersect => "eval.intersect",
            OpKind::Difference => "eval.difference",
            OpKind::Restrict => "eval.restrict",
            OpKind::Domain => "eval.domain",
            OpKind::Image => "eval.image",
            OpKind::RelProduct => "eval.rel_product",
            OpKind::Cross => "eval.cross",
        }
    }
}

/// Accumulated execution profile of one operator family.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStat {
    /// Times an operator of this family ran.
    pub invocations: u64,
    /// Wall-clock spent inside the kernel (children excluded).
    pub wall_nanos: u64,
    /// Largest worker-thread count any invocation fanned out to (1 =
    /// always sequential).
    pub max_threads: u32,
}

/// Counters the evaluator accumulates; experiment E2 reads
/// `intermediate_members` to show what fusion saves, and E10 reads
/// `per_op` wall-times to show what the parallel kernels save.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Operator nodes executed.
    pub nodes: u64,
    /// Total members across all intermediate (non-root) results — the
    /// materialization volume a pipeline pays.
    pub intermediate_members: u64,
    /// Total members every kernel was handed (`Σ rows_in` over operator
    /// nodes) — the passes over their inputs a plan's operators make.
    pub rows_read: u64,
    /// Members in the final result.
    pub result_members: u64,
    /// Per-family profile, indexed by `OpKind as usize`.
    pub per_op: [OpStat; OP_KINDS],
}

impl EvalStats {
    /// Profile of one operator family.
    pub fn op(&self, kind: OpKind) -> OpStat {
        self.per_op[kind as usize]
    }

    /// Families that actually ran, with their profiles.
    pub fn ops_run(&self) -> impl Iterator<Item = (OpKind, OpStat)> + '_ {
        OpKind::ALL
            .into_iter()
            .map(|k| (k, self.op(k)))
            .filter(|(_, s)| s.invocations > 0)
    }

    /// Total kernel wall-clock across all families, in nanoseconds.
    pub fn total_wall_nanos(&self) -> u64 {
        self.per_op.iter().map(|s| s.wall_nanos).sum()
    }

    /// Fold a walk's profile tree into counters: one node per `Expr`
    /// node, one invocation per kernel, and every operator result except
    /// the root's as materialized intermediate volume (leaves are inputs,
    /// the root is the result).
    pub(crate) fn of(root: &PlanNode) -> EvalStats {
        let mut stats = EvalStats::default();
        stats.add(root);
        if root.kernel.is_some() {
            stats.intermediate_members -= root.rows_out;
        }
        stats.result_members = root.rows_out;
        stats
    }

    fn add(&mut self, node: &PlanNode) {
        self.nodes += 1;
        if let Some((kind, ran)) = node.kernel {
            self.intermediate_members += node.rows_out;
            self.rows_read += node.rows_in();
            let slot = &mut self.per_op[kind as usize];
            slot.invocations += ran.invocations;
            slot.wall_nanos += ran.wall_nanos;
            slot.max_threads = slot.max_threads.max(ran.max_threads);
        }
        node.children.iter().for_each(|c| self.add(c));
    }
}

impl fmt::Display for EvalStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} nodes, {} intermediate members, {} result members",
            self.nodes, self.intermediate_members, self.result_members
        )
    }
}

/// Evaluate `expr` against `bindings`.
///
/// Evaluation is gated on static analysis: plans that provably cannot
/// evaluate (unbound tables, proven `⊗` collisions) are rejected with a
/// structured [`XstError::Analysis`](xst_core::XstError::Analysis) before
/// any kernel runs.
pub fn eval(expr: &Expr, bindings: &Bindings) -> XstResult<ExtendedSet> {
    Ok(eval_counted(expr, bindings)?.0)
}

/// Evaluate and report statistics.
pub fn eval_counted(expr: &Expr, bindings: &Bindings) -> XstResult<(ExtendedSet, EvalStats)> {
    eval_parallel(expr, bindings, &Parallelism::sequential())
}

/// Evaluate with operators routed through the parallel kernels: each
/// eligible operator fans out to `par.threads` workers when its dominant
/// operand cardinality clears `par.threshold`. The result is identical to
/// sequential evaluation on every input; `stats.per_op` records where the
/// time went and how wide each family ran.
pub fn eval_parallel(
    expr: &Expr,
    bindings: &Bindings,
    par: &Parallelism,
) -> XstResult<(ExtendedSet, EvalStats)> {
    crate::analysis::gate(
        expr,
        |t| bindings.contains_key(t),
        || Cow::Borrowed(bindings),
    )?;
    let (result, root) = run(expr, &whole_scan(bindings), par)?;
    Ok((result, EvalStats::of(&root)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xst_core::{xset, xtuple, Scope, Value};

    fn env() -> Bindings {
        let f = xset![
            ExtendedSet::pair("a", "x").into_value(),
            ExtendedSet::pair("b", "y").into_value(),
            ExtendedSet::pair("c", "x").into_value()
        ];
        let a = xset![xtuple!["a"].into_value()];
        [("f".to_string(), f), ("a".to_string(), a)]
            .into_iter()
            .collect()
    }

    #[test]
    fn evaluates_image() {
        let e = Expr::table("f").image(Expr::table("a"), Scope::pairs());
        let got = eval(&e, &env()).unwrap();
        assert_eq!(got, xset![xtuple!["x"].into_value() => Value::empty_set()]);
    }

    #[test]
    fn restrict_then_domain_equals_image() {
        let env = env();
        let two_pass = Expr::table("f")
            .restrict(xtuple![1], Expr::table("a"))
            .domain(xtuple![2]);
        let fused = Expr::table("f").image(Expr::table("a"), Scope::pairs());
        assert_eq!(eval(&two_pass, &env).unwrap(), eval(&fused, &env).unwrap());
    }

    #[test]
    fn stats_show_materialization_difference() {
        let env = env();
        let two_pass = Expr::table("f")
            .restrict(xtuple![1], Expr::table("a"))
            .domain(xtuple![2]);
        let fused = Expr::table("f").image(Expr::table("a"), Scope::pairs());
        let (_, s2) = eval_counted(&two_pass, &env).unwrap();
        let (_, s1) = eval_counted(&fused, &env).unwrap();
        assert!(s2.nodes > s1.nodes);
        assert!(
            s2.intermediate_members > s1.intermediate_members,
            "two-pass materializes the restriction: {s2} vs {s1}"
        );
        assert_eq!(s1.intermediate_members, 0);
        assert_eq!(s1.result_members, 1);
    }

    #[test]
    fn per_op_stats_attribute_kernel_runs() {
        let env = env();
        let two_pass = Expr::table("f")
            .restrict(xtuple![1], Expr::table("a"))
            .domain(xtuple![2]);
        let (_, stats) = eval_counted(&two_pass, &env).unwrap();
        assert_eq!(stats.op(OpKind::Restrict).invocations, 1);
        assert_eq!(stats.op(OpKind::Domain).invocations, 1);
        assert_eq!(stats.op(OpKind::Image).invocations, 0);
        assert_eq!(stats.op(OpKind::Restrict).max_threads, 1);
        let run: Vec<_> = stats.ops_run().map(|(k, _)| k).collect();
        assert_eq!(run, vec![OpKind::Restrict, OpKind::Domain]);
    }

    #[test]
    fn eval_parallel_agrees_and_records_width() {
        let env = env();
        let e = Expr::table("f").image(Expr::table("a"), Scope::pairs());
        let par = Parallelism::new(4).with_threshold(1);
        let (seq, _) = eval_counted(&e, &env).unwrap();
        let (parallel, stats) = eval_parallel(&e, &env, &par).unwrap();
        assert_eq!(seq, parallel);
        assert_eq!(stats.op(OpKind::Image).max_threads, 4);
        assert!(stats.total_wall_nanos() > 0);
    }

    #[test]
    fn boolean_ops_evaluate() {
        let mut b = Bindings::new();
        b.insert("x".into(), xset![1, 2, 3]);
        b.insert("y".into(), xset![2, 3, 4]);
        let u = eval(&Expr::table("x").union(Expr::table("y")), &b).unwrap();
        assert_eq!(u.card(), 4);
        let i = eval(&Expr::table("x").intersect(Expr::table("y")), &b).unwrap();
        assert_eq!(i, xset![2, 3]);
        let d = eval(&Expr::table("x").difference(Expr::table("y")), &b).unwrap();
        assert_eq!(d, xset![1]);
    }

    #[test]
    fn cross_evaluates_and_propagates_errors() {
        let mut b = Bindings::new();
        b.insert("t".into(), xset![xtuple!["a"].into_value()]);
        // Non-tuple members whose scopes collide (both use scope 0).
        b.insert("bad".into(), xset![xset!["p" => 0].into_value()]);
        b.insert("bad2".into(), xset![xset!["q" => 0].into_value()]);
        let ok = eval(&Expr::table("t").cross(Expr::table("t")), &b).unwrap();
        assert_eq!(ok.card(), 1);
        assert!(eval(&Expr::table("bad").cross(Expr::table("bad2")), &b).is_err());
    }

    #[test]
    fn unbound_table_errors() {
        assert!(eval(&Expr::table("nope"), &Bindings::new()).is_err());
    }

    #[test]
    fn rel_product_evaluates() {
        let mut b = Bindings::new();
        b.insert("f".into(), xset![ExtendedSet::pair("a", "k").into_value()]);
        b.insert("g".into(), xset![ExtendedSet::pair("k", "z").into_value()]);
        let sigma = Scope::new(xset![1 => 1], xset![2 => 1]);
        let omega = Scope::new(xset![1 => 1], xset![2 => 2]);
        let e = Expr::table("f").rel_product(sigma, Expr::table("g"), omega);
        let got = eval(&e, &b).unwrap();
        assert_eq!(
            got,
            xset![ExtendedSet::pair("a", "z").into_value() => Value::empty_set()]
        );
    }
}
