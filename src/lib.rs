//! # xst — Extended Set Theory in Rust (facade crate)
//!
//! This crate re-exports the whole workspace behind one dependency:
//!
//! * [`xst_core`] (re-exported as `core`) — the theory: scoped sets, the operation algebra,
//!   processes, function spaces, the CST layer, textual notation;
//! * [`xst_storage`] (as `storage`) — pages, buffer pool with I/O accounting,
//!   heap files, indexes, WAL, snapshots, the set- vs record-processing
//!   engines;
//! * [`xst_query`] (as `query`) — logical expressions, law-justified rewrites,
//!   the fixpoint optimizer;
//! * [`xst_relational`] (as `relational`) — relations as extended sets, the
//!   algebra, aggregation, the textual query language.
//!
//! See the repository README for the architecture tour and EXPERIMENTS.md
//! for the reproduction index. The `examples/` directory exercises the
//! public API end to end; start with `cargo run --example quickstart`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use xst_core as core;
pub use xst_query as query;
pub use xst_relational as relational;
pub use xst_storage as storage;

/// One-stop imports: `use xst::prelude::*;`.
pub mod prelude {
    pub use xst_core::prelude::*;
    pub use xst_query::{eval, eval_counted, explain, Bindings, Expr, Optimizer};
    pub use xst_relational::{parse_query, Aggregate, Catalog, Query, RelSchema, Relation};
    pub use xst_storage::{
        BufferPool, Index, Record, RecordEngine, Schema, SetEngine, Storage, Table,
    };
}
