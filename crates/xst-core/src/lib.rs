//! # xst-core — Extended Set Theory in Rust
//!
//! A from-scratch implementation of D. L. Childs' **extended set theory**
//! (XST): sets with *scoped membership* (`x ∈_s A`) and the full operation
//! algebra built on them — re-scoping, σ-domain, σ-restriction, image,
//! cross and relative products — together with **processes** ("functions as
//! set behavior"), nested application, composition, and the
//! process-/function-space taxonomy.
//!
//! ## The model in one paragraph
//!
//! An [`ExtendedSet`] is a canonical collection of `(element, scope)`
//! members, both arbitrary nested [`Value`]s. Ordered pairs and n-tuples
//! are *defined* sets (`⟨x,y⟩ = {x^1, y^2}`), so records, relations, files
//! and indexes all have a single mathematical identity. A behavior
//! [`Process`] is a carrier set plus a scope pair `⟨σ1,σ2⟩`; applying it to
//! a set `x` computes the image `𝔇_σ2(f |_σ1 x)`. Functions, injections,
//! surjections etc. are *behavioral* classifications, recovered exactly
//! from the classical ones (see [`cst`]).
//!
//! ## Quick start
//!
//! ```
//! use xst_core::prelude::*;
//!
//! // The function f = {⟨a,x⟩, ⟨b,y⟩, ⟨c,x⟩} of the paper's Example 8.1.
//! let f = Process::from_pairs([("a", "x"), ("b", "y"), ("c", "x")]);
//! assert!(f.is_function());
//!
//! // Apply the behavior to the singleton {⟨a⟩}: the image is {⟨x⟩}.
//! let input = ExtendedSet::classical([ExtendedSet::tuple(["a"]).into_value()]);
//! let image = f.apply(&input);
//! assert_eq!(image.to_string(), "{⟨x⟩}");
//!
//! // The inverse behavior is a relation, not a function.
//! assert!(!f.inverse().is_function());
//! ```
//!
//! ## Module map
//!
//! | module | contents |
//! |---|---|
//! | [`value`] | the value universe (atoms + nested sets) |
//! | [`set`] | [`ExtendedSet`], scoped membership, canonical form |
//! | [`ops`] | the operation algebra (§3, §7, §9, §10) |
//! | [`process`] | behaviors, application, composition (§2, §4, §8, §11) |
//! | [`spaces`] | process/function space taxonomy (§5, §6, App. D/E) |
//! | [`cst`] | classical compatibility layer (§3, Thm 9.10) |
//! | [`parse`] / `display` | round-trippable textual notation |
//! | [`codec`] / [`crc`] | the one binary value codec and the one checksum |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;
pub mod crc;
pub mod cst;
mod display;
pub mod error;
pub mod ops;
pub mod parse;
pub mod process;
pub mod set;
pub mod spaces;
pub mod tutorial;
pub mod value;

pub use error::{XstError, XstResult};
pub use ops::image::Scope;
pub use process::{
    enumerate_interpretations, eval_interpretation, interpretation_count, Evaluated,
    Interpretation, Process,
};
pub use set::{ExtendedSet, Member, SetBuilder};
pub use value::{sym, Value};

/// Convenient glob-import surface: `use xst_core::prelude::*;`.
pub mod prelude {
    pub use crate::cst::{CstFunction, CstRelation};
    pub use crate::ops::{
        cartesian, concat, cross, difference, group_by_key, image, intersection, pair_compose,
        partition_by_scope, relative_product, rescope_by_element, rescope_by_scope, sigma_domain,
        sigma_restrict, sigma_value, tag, transitive_closure, union, value,
    };
    pub use crate::parse::{parse_set, parse_value};
    pub use crate::process::{
        enumerate_interpretations, eval_interpretation, interpretation_count, Process,
    };
    pub use crate::set::{ExtendedSet, Member, SetBuilder};
    pub use crate::spaces::{
        basic_spaces, classify, in_space, most_specific_space, refined_spaces, AssocSet, SpaceSpec,
    };
    pub use crate::value::{sym, Value};
    pub use crate::{xset, xtuple, Scope, XstError, XstResult};
}
