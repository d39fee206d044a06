//! # xst-query — algebraic expressions and a law-driven optimizer
//!
//! Query processing over the XST algebra:
//!
//! * [`expr`] — logical expression trees over named tables and literals;
//! * [`analysis`] — the bridge to `xst-analyze`: static scope/emptiness/
//!   cardinality inference, evaluation gating, and rewrite verification;
//! * [`sharded`] — the one plan walker: every evaluation, over whole sets
//!   or per-shard fragments, runs through it and returns a per-operator
//!   profile tree; its `cut` splits off the subplans each shard can run
//!   alone;
//! * [`mod@eval`] — the whole-set entry points and operator statistics
//!   (node counts and intermediate materialization volume — what
//!   composition saves), a fold over that tree;
//! * [`rules`] — rewrite rules, each justified by a numbered law of the
//!   paper (image fusion by C.1(f), empty pruning by C.1(g), union merge
//!   by C.1(a), domain fusion by Defs 7.3/7.4, composition fusion by
//!   Theorem 11.2);
//! * [`optimizer`] — a fixpoint rule driver whose trace doubles as
//!   `EXPLAIN` output;
//! * [`mod@explain`] — `EXPLAIN ANALYZE`: optimize, evaluate, and render
//!   the evaluator's own profile tree of wall-times and cardinalities.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod eval;
pub mod explain;
pub mod expr;
pub mod optimizer;
pub mod rules;
pub mod sharded;

pub use analysis::{check, env_for};
pub use eval::{eval, eval_counted, eval_parallel, EvalStats, OpKind, OpStat};
pub use explain::{explain_analyze, explain_analyze_sharded, ExplainAnalyze, PlanNode};
pub use expr::{Bindings, Expr};
pub use optimizer::{explain, Optimizer, Trace, TraceEntry};
pub use rules::{default_rules, spec_compose, Rule};
pub use sharded::{cut, eval_sharded, merge_bindings, Cut, ShardedBindings};
