//! Fixpoint rule driver with an explain trace.
//!
//! The optimizer rewrites an expression bottom-up, trying every rule at
//! every node, and repeats until no rule fires (bounded by a pass limit).
//! Each firing is recorded in the [`Trace`], which doubles as the `EXPLAIN`
//! output: rule name, paper law, and the rewritten node.

use crate::expr::Expr;
use crate::rules::{default_rules, Rule};
use std::fmt;

/// One optimizer firing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Which rule fired.
    pub rule: &'static str,
    /// The paper law justifying it.
    pub law: &'static str,
    /// Rendering of the node before the rewrite.
    pub before: String,
    /// Rendering of the node after the rewrite.
    pub after: String,
}

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}]: {} ⇒ {}",
            self.rule, self.law, self.before, self.after
        )
    }
}

/// The full rewrite history of one optimization run.
pub type Trace = Vec<TraceEntry>;

/// A rule-driven expression optimizer.
pub struct Optimizer {
    rules: Vec<Box<dyn Rule>>,
    max_passes: usize,
}

impl Default for Optimizer {
    fn default() -> Self {
        Optimizer::new()
    }
}

impl Optimizer {
    /// Optimizer with the default rule set.
    pub fn new() -> Optimizer {
        Optimizer {
            rules: default_rules(),
            max_passes: 16,
        }
    }

    /// Optimizer with a custom rule set.
    pub fn with_rules(rules: Vec<Box<dyn Rule>>) -> Optimizer {
        Optimizer {
            rules,
            max_passes: 16,
        }
    }

    /// Optimize to fixpoint, returning the rewritten expression and trace.
    pub fn optimize(&self, expr: &Expr) -> (Expr, Trace) {
        let mut current = expr.clone();
        let mut trace = Trace::new();
        for _ in 0..self.max_passes {
            let fired = trace.len();
            current = self.pass(current, &mut trace);
            if trace.len() == fired {
                break;
            }
        }
        (current, trace)
    }

    /// One bottom-up pass: rewrite the children, then try the rules at
    /// this node, repeatedly, until none fires.
    fn pass(&self, expr: Expr, trace: &mut Trace) -> Expr {
        let mut node = expr.map_children(|child| self.pass(child, trace));
        loop {
            let fired = trace.len();
            for rule in &self.rules {
                if let Some(next) = rule.apply(&node) {
                    trace.push(TraceEntry {
                        rule: rule.name(),
                        law: rule.law(),
                        before: node.to_string(),
                        after: next.to_string(),
                    });
                    node = next;
                }
            }
            if trace.len() == fired {
                return node;
            }
        }
    }
}

/// Render an `EXPLAIN`-style report: the final plan plus every firing.
pub fn explain(expr: &Expr) -> String {
    let optimizer = Optimizer::new();
    let (optimized, trace) = optimizer.optimize(expr);
    let mut out = String::new();
    out.push_str(&format!("plan: {optimized}\n"));
    if trace.is_empty() {
        out.push_str("rewrites: none\n");
    } else {
        out.push_str("rewrites:\n");
        for entry in &trace {
            out.push_str(&format!("  - {entry}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval;
    use crate::expr::Bindings;
    use xst_core::{xset, xtuple, ExtendedSet, Scope};

    fn env() -> Bindings {
        let f = xset![
            ExtendedSet::pair("a", "x").into_value(),
            ExtendedSet::pair("b", "y").into_value()
        ];
        let a = xset![xtuple!["a"].into_value()];
        [("f".to_string(), f), ("a".to_string(), a)]
            .into_iter()
            .collect()
    }

    #[test]
    fn optimizes_two_pass_image_to_fused() {
        let e = Expr::table("f")
            .restrict(xtuple![1], Expr::table("a"))
            .domain(xtuple![2]);
        let (optimized, trace) = Optimizer::new().optimize(&e);
        assert!(matches!(optimized, Expr::Image { .. }));
        assert!(trace.iter().any(|t| t.rule == "image-fusion"));
        assert_eq!(eval(&e, &env()).unwrap(), eval(&optimized, &env()).unwrap());
    }

    #[test]
    fn optimizer_reaches_fixpoint_on_nested_rewrites() {
        // ((f |_σ a) domain) ∪ ∅  — needs empty-prune then image-fusion.
        let e = Expr::table("f")
            .restrict(xtuple![1], Expr::table("a"))
            .domain(xtuple![2])
            .union(Expr::lit(ExtendedSet::empty()));
        let (optimized, trace) = Optimizer::new().optimize(&e);
        assert!(matches!(optimized, Expr::Image { .. }));
        assert!(trace.len() >= 2);
        assert_eq!(eval(&e, &env()).unwrap(), eval(&optimized, &env()).unwrap());
    }

    #[test]
    fn pipeline_collapses_through_composition() {
        let f = xset![ExtendedSet::pair("a", "b").into_value()];
        let g = xset![ExtendedSet::pair("b", "c").into_value()];
        let h = xset![ExtendedSet::pair("c", "d").into_value()];
        // h[g[f[x]]] — three stages fuse to one.
        let e = Expr::lit(h).image(
            Expr::lit(g).image(
                Expr::lit(f).image(Expr::table("x"), Scope::pairs()),
                Scope::pairs(),
            ),
            Scope::pairs(),
        );
        let (optimized, trace) = Optimizer::new().optimize(&e);
        assert_eq!(optimized.size(), 3, "single image over x: {optimized}");
        assert!(
            trace
                .iter()
                .filter(|t| t.rule == "composition-fusion")
                .count()
                >= 2
        );
        let mut env = Bindings::new();
        env.insert("x".into(), xset![xtuple!["a"].into_value()]);
        assert_eq!(eval(&e, &env).unwrap(), eval(&optimized, &env).unwrap());
    }

    #[test]
    fn stable_expressions_are_untouched() {
        let e = Expr::table("f").image(Expr::table("a"), Scope::pairs());
        let (optimized, trace) = Optimizer::new().optimize(&e);
        assert_eq!(optimized, e);
        assert!(trace.is_empty());
    }

    #[test]
    fn explain_renders() {
        let e = Expr::table("f")
            .restrict(xtuple![1], Expr::table("a"))
            .domain(xtuple![2]);
        let report = explain(&e);
        assert!(report.contains("plan:"), "{report}");
        assert!(report.contains("image-fusion"), "{report}");
        assert!(report.contains("C.1(f)"), "{report}");
        let stable = explain(&Expr::table("f"));
        assert!(stable.contains("rewrites: none"), "{stable}");
    }

    #[test]
    fn custom_rule_sets() {
        let opt = Optimizer::with_rules(vec![]);
        let e = Expr::table("t").union(Expr::table("t"));
        let (optimized, trace) = opt.optimize(&e);
        assert_eq!(optimized, e, "no rules, no rewrites");
        assert!(trace.is_empty());
    }
}
