//! # xst-bench — experiment harness for the XST reproduction
//!
//! * [`data`] — deterministic workload generators (fixed seed);
//! * [`experiments`] — the E1–E12 measured experiments plus the F-class
//!   formal-artifact summary, as printable tables;
//! * [`table`] — report rendering;
//! * [`report_json`] — machine-readable results (`BENCH_PR2.json`).
//!
//! `cargo run -p xst-bench --bin report` regenerates every table in
//! EXPERIMENTS.md and writes BENCH_PR2.json.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod data;
pub mod experiments;
pub mod report_json;
pub mod table;
