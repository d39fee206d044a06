//! The XST operation algebra, one module per operation family.
//!
//! | Module | Paper definitions |
//! |---|---|
//! | [`boolean`] | union, intersection, difference (used throughout §7, C.1) |
//! | [`rescope`] | 7.3 re-scope by scope, 7.5 re-scope by element |
//! | [`domain`] | 7.4 σ-domain |
//! | [`restrict`] | 7.6 σ-restriction |
//! | [`mod@image`] | 3.10 / 7.1 image, process scopes |
//! | [`product`] | 9.2 concatenation, 9.3 `⊗`, 9.5–9.7 tag/`×`, 10.1 relative product |
//! | [`value_of`] | 9.8 σ-value, 9.9 value |
//! | [`closure`] | iterated behavior: powers, transitive closure, fixpoints (§11 extended) |
//! | [`partition`] | scope partitioning — grouping as a set operation |
//! | [`mod@powerset`] | axiom-level constructions: powerset, pairing, ⋃, separation, replacement |

pub mod boolean;
pub mod closure;
pub mod domain;
pub mod image;
pub mod par;
pub mod partition;
pub mod powerset;
pub mod product;
pub mod rescope;
pub mod restrict;
pub mod scatter;
pub mod value_of;

pub use boolean::{difference, disjoint, intersection, symmetric_difference, union, union_all};
pub use closure::{
    inflationary_fixpoint, pair_compose, pair_power, reflexive_transitive_closure,
    transitive_closure,
};
pub use domain::sigma_domain;
pub use image::{image, image_two_pass, Scope};
pub use par::{
    par_image, par_intersection, par_relative_product, par_sigma_restrict, par_union, Parallelism,
    DEFAULT_PARALLEL_THRESHOLD,
};
pub use partition::{flatten_partition, group_by_key, partition_by_scope};
pub use powerset::{big_union, pairing, powerset, replacement, separation};
pub use product::{cartesian, concat, cross, relative_product, scope_disjoint_union, tag};
pub use rescope::{
    rescope_by_element, rescope_by_scope, rescope_value_by_element, rescope_value_by_scope,
};
pub use restrict::{sigma_restrict, sigma_restrict_naive};
pub use scatter::{gather, map_parts, partition_members, zip_parts};
pub use value_of::{labeled_values, sigma_value, value};
