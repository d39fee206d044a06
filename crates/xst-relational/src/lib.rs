//! # xst-relational — the relational model embedded in XST
//!
//! The VLDB-1977 claim that the relational model is a special case of
//! extended set processing, made executable:
//!
//! * [`relation`] — relations as classical sets of positional tuples with
//!   named-column presentation;
//! * [`algebra`] — the one relational lowering: select/project/join/
//!   semijoin/antijoin/rename/∪∩∖ each become an `xst_query` plan
//!   (selection = image by a witness set, projection = σ-domain, join =
//!   relative product) that `xst_query`'s gate and plan walker evaluate —
//!   this crate is a client of the walker, not a second evaluator;
//! * [`catalog`] — named relations, with a loader from `xst_storage` tables;
//! * [`query`] — a fluent pipeline builder that compiles through that
//!   lowering to `xst_query` expressions (law-driven optimization,
//!   `EXPLAIN`), and runs by handing the expression to the walker;
//! * [`aggregate`] — GROUP BY / aggregation via XST scope partitioning;
//! * [`lang`] — a small textual pipeline language compiling to [`Query`];
//! * [`nested`] — NF² nested relations and outer joins (∅ as the absent value).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod aggregate;
pub mod algebra;
pub mod catalog;
pub mod lang;
pub mod nested;
pub mod query;
pub mod relation;

pub use aggregate::{group_by, Aggregate};
pub use catalog::Catalog;
pub use lang::parse_query;
pub use nested::{left_outer_join, nest, unnest};
pub use query::Query;
pub use relation::{RelSchema, Relation};
