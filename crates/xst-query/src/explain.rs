//! `EXPLAIN ANALYZE`: optimize, execute, and report where the time went.
//!
//! [`explain_analyze`] runs the optimizer (recording every rule firing),
//! then evaluates the rewritten plan through the crate's one plan walker
//! ([`crate::sharded`]) — the same call `eval_parallel` / `eval_sharded`
//! make. The walker returns a [`PlanNode`] profile tree on every
//! evaluation: one node per operator carrying its inclusive wall-time,
//! output cardinality and kernel profile. The evaluator folds that tree
//! into [`EvalStats`](crate::eval::EvalStats); this module zips the
//! statically inferred scope signatures into it and renders it. The
//! rendered report is the shell's `.explain` output — the optimizer trace
//! shows *why* the plan looks the way it does, the tree shows *what it
//! cost* to run.
//!
//! There is no second executor to keep in step: `tests/observability.rs`
//! checks that the report's tree and the evaluator's statistics are two
//! readings of the same walk.

use crate::eval::{OpKind, OpStat};
use crate::expr::{Bindings, Expr};
use crate::optimizer::{Optimizer, Trace};
use crate::sharded::{merge_bindings, run, shard_scan, whole_scan, Scan, ShardedBindings};
use std::borrow::Cow;
use std::fmt;
use std::time::Instant;
use xst_analyze::AnalyzedNode;
use xst_core::ops::Parallelism;
use xst_core::{ExtendedSet, XstResult};
use xst_obs::span::fmt_ns;

/// One executed operator in a plan's profile tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanNode {
    /// Operator label (`"image"`, `"table f"`, ...).
    pub op: String,
    /// Statically inferred scope signature (a superset of the scopes the
    /// node's members can carry; `⊤` when nothing is known). Empty until
    /// `EXPLAIN ANALYZE` zips the analysis in.
    pub sig: String,
    /// Output cardinality.
    pub rows_out: u64,
    /// Inclusive wall-time (children included).
    pub total_ns: u64,
    /// Input subtrees, in operand order.
    pub children: Vec<PlanNode>,
    /// Part count, if the node's result stayed scattered over more than one.
    pub(crate) parts: Option<usize>,
    /// The kernel this node ran and its one-invocation profile (`None`
    /// for leaves, which run none).
    pub(crate) kernel: Option<(OpKind, OpStat)>,
}

impl PlanNode {
    /// Wall-time spent in this operator alone (children subtracted).
    pub fn self_ns(&self) -> u64 {
        let kids: u64 = self.children.iter().map(|c| c.total_ns).sum();
        self.total_ns.saturating_sub(kids)
    }

    /// Input cardinality: the sum of the children's outputs.
    pub fn rows_in(&self) -> u64 {
        self.children.iter().map(|c| c.rows_out).sum()
    }

    /// Operator count in this subtree.
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(PlanNode::size).sum::<usize>()
    }

    /// Widest fragment list any node in this subtree produced.
    pub(crate) fn max_parts(&self) -> Option<usize> {
        let kids = self.children.iter().filter_map(PlanNode::max_parts);
        kids.chain(self.parts).max()
    }

    /// Copy the analyzer's signatures onto this tree; both mirror the
    /// plan's shape, so they zip node for node.
    fn zip_signatures(&mut self, info: &AnalyzedNode) {
        self.sig = info.set.sig.to_string();
        for (child, info) in self.children.iter_mut().zip(&info.children) {
            child.zip_signatures(info);
        }
    }

    fn render_into(&self, prefix: &str, last: bool, top: bool, out: &mut String) {
        let (branch, next_prefix) = if top {
            (String::new(), String::new())
        } else if last {
            (format!("{prefix}└─ "), format!("{prefix}   "))
        } else {
            (format!("{prefix}├─ "), format!("{prefix}│  "))
        };
        let timing = if self.children.is_empty() {
            fmt_ns(self.total_ns)
        } else {
            format!(
                "{} (self {})",
                fmt_ns(self.total_ns),
                fmt_ns(self.self_ns())
            )
        };
        let parts = self.parts.map(|n| format!("  parts={n}"));
        out.push_str(&format!(
            "{branch}{}  sig={}  {timing}  rows={}{parts}\n",
            self.op,
            self.sig,
            self.rows_out,
            parts = parts.unwrap_or_default()
        ));
        for (i, child) in self.children.iter().enumerate() {
            child.render_into(&next_prefix, i + 1 == self.children.len(), false, out);
        }
    }
}

/// The full product of one `EXPLAIN ANALYZE` run.
#[derive(Debug, Clone)]
pub struct ExplainAnalyze {
    /// The optimized plan that actually executed.
    pub plan: Expr,
    /// Every optimizer rule firing, in order.
    pub rewrites: Trace,
    /// Per-operator execution tree.
    pub root: PlanNode,
    /// The query result (identical to what `eval_parallel` returns).
    pub result: ExtendedSet,
    /// End-to-end execution wall-time (optimization excluded).
    pub total_ns: u64,
}

impl fmt::Display for ExplainAnalyze {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "plan: {}", self.plan)?;
        if self.rewrites.is_empty() {
            writeln!(f, "rewrites: none")?;
        } else {
            writeln!(f, "rewrites:")?;
            for entry in &self.rewrites {
                writeln!(f, "  - {entry}")?;
            }
        }
        writeln!(f, "operators:")?;
        let mut tree = String::new();
        self.root.render_into("  ", true, false, &mut tree);
        f.write_str(&tree)?;
        write!(
            f,
            "total: {}, {} result members",
            fmt_ns(self.total_ns),
            self.result.card()
        )
    }
}

/// Optimize `expr`, execute the rewritten plan, and report per-operator
/// wall-time and cardinalities alongside the optimizer trace.
pub fn explain_analyze(
    expr: &Expr,
    bindings: &Bindings,
    par: &Parallelism,
) -> XstResult<ExplainAnalyze> {
    analyze(expr, bindings, &whole_scan(bindings), par)
}

/// [`explain_analyze`] over per-shard fragments: the report profiles the
/// scattered execution [`eval_sharded`](crate::sharded::eval_sharded)
/// serves, and a node whose result stayed scattered over more than one
/// part shows the count (`parts=N`).
pub fn explain_analyze_sharded(
    expr: &Expr,
    bindings: &ShardedBindings,
    par: &Parallelism,
) -> XstResult<ExplainAnalyze> {
    analyze(expr, &merge_bindings(bindings), &shard_scan(bindings), par)
}

/// Gate and analyze against the `whole` tables, execute from `scan`'s
/// leaves.
fn analyze(
    expr: &Expr,
    whole: &Bindings,
    scan: &Scan<'_>,
    par: &Parallelism,
) -> XstResult<ExplainAnalyze> {
    crate::analysis::gate(expr, |t| whole.contains_key(t), || Cow::Borrowed(whole))?;
    let mut span = xst_obs::span!("query.explain_analyze", threads = par.threads);
    let (plan, rewrites) = Optimizer::new().optimize(expr);
    let analysis = crate::analysis::check(&plan, whole);
    let started = Instant::now();
    let (result, mut root) = run(&plan, scan, par)?;
    let total_ns = started.elapsed().as_nanos() as u64;
    root.zip_signatures(&analysis.root);
    if span.id().is_some() {
        span.attr("operators", root.size());
        span.attr("rows_out", result.card());
    }
    Ok(ExplainAnalyze {
        plan,
        rewrites,
        root,
        result,
        total_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_parallel;
    use xst_core::{xset, xtuple, Scope};

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
    fn analyzed_execution_matches_eval() {
        let env = env();
        let e = Expr::table("f")
            .restrict(xtuple![1], Expr::table("a"))
            .domain(xtuple![2]);
        let par = Parallelism::sequential();
        let (expect, _) = eval_parallel(&e, &env, &par).unwrap();
        let report = explain_analyze(&e, &env, &par).unwrap();
        assert_eq!(report.result, expect);
        // The two-pass expression fuses to a single image operator.
        assert!(matches!(report.plan, Expr::Image { .. }));
        assert!(report.rewrites.iter().any(|t| t.rule == "image-fusion"));
        assert_eq!(report.root.op, "image");
        assert_eq!(report.root.rows_out, 1);
        assert_eq!(report.root.children.len(), 2);
        assert_eq!(report.root.rows_in(), 4, "table f (3) + table a (1)");
    }

    #[test]
    fn report_renders_tree_times_and_cardinalities() {
        let env = env();
        let e = Expr::table("f").image(Expr::table("a"), Scope::pairs());
        let report = explain_analyze(&e, &env, &Parallelism::sequential()).unwrap();
        let text = report.to_string();
        assert!(text.contains("plan:"), "{text}");
        assert!(text.contains("rewrites: none"), "{text}");
        assert!(text.contains("image"), "{text}");
        assert!(text.contains("└─ table a"), "{text}");
        assert!(text.contains("rows=1"), "{text}");
        assert!(text.contains("self"), "{text}");
        assert!(text.contains("result members"), "{text}");
    }

    #[test]
    fn self_time_subtracts_children() {
        let node = PlanNode {
            op: "union".into(),
            sig: "⊤".into(),
            rows_out: 10,
            total_ns: 1_000,
            children: vec![
                PlanNode {
                    op: "table x".into(),
                    sig: "⊤".into(),
                    rows_out: 6,
                    total_ns: 300,
                    children: Vec::new(),
                    parts: None,
                    kernel: None,
                },
                PlanNode {
                    op: "table y".into(),
                    sig: "⊤".into(),
                    rows_out: 4,
                    total_ns: 200,
                    children: Vec::new(),
                    parts: None,
                    kernel: None,
                },
            ],
            parts: None,
            kernel: None,
        };
        assert_eq!(node.self_ns(), 500);
        assert_eq!(node.rows_in(), 10);
        assert_eq!(node.size(), 3);
    }

    #[test]
    fn unbound_tables_error_like_eval() {
        let e = Expr::table("missing").domain(xtuple![1]);
        assert!(explain_analyze(&e, &Bindings::new(), &Parallelism::sequential()).is_err());
    }
}
