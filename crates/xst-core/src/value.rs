//! The universe of XST values.
//!
//! Extended sets are heterogeneous and arbitrarily nested: a member element —
//! and a member *scope* — may be an atom (symbol, integer, string, ...) or
//! another extended set. [`Value`] is the closed universe over which the
//! whole algebra operates.
//!
//! `Value` carries a **total order** (sets compare lexicographically over
//! their canonical member sequences, atoms compare within their kind, kinds
//! compare by a fixed rank). The total order is what lets
//! [`ExtendedSet`] keep a canonical sorted form, so
//! set equality is plain structural equality and membership is a binary
//! search.

use crate::set::ExtendedSet;
use std::cmp::Ordering;
use std::sync::Arc;

/// A single XST value: an atom or a nested extended set.
///
/// The *classical scope* — the scope under which ordinary (unscoped) set
/// membership is modeled — is the empty set, [`Value::empty_set`]. See the
/// paper's Appendix A, where classical pairs are written `⟨x,y⟩^{⟨∅,∅⟩}`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// Boolean atom.
    Bool(bool),
    /// Signed integer atom. Tuple positions (Definition 9.1) are `Int`s.
    Int(i64),
    /// IEEE-754 double, ordered by `total_cmp` so `Value` stays `Ord`.
    Float(OrderedF64),
    /// Interned-ish symbolic atom (`a`, `x`, `+`, ...). Cheap to clone.
    Sym(Arc<str>),
    /// String data atom (distinct from `Sym` so data strings and symbolic
    /// labels never collide).
    Str(Arc<str>),
    /// Raw byte-string atom.
    Bytes(Arc<[u8]>),
    /// A nested extended set.
    Set(ExtendedSet),
}

/// Total-ordering wrapper for `f64` using IEEE-754 `total_cmp`.
///
/// NaNs are admitted and ordered after all other floats (per `total_cmp`);
/// `-0.0` and `+0.0` are distinct values under this order, which keeps
/// canonicalization deterministic.
#[derive(Debug, Clone, Copy)]
pub struct OrderedF64(pub f64);

impl PartialEq for OrderedF64 {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0) == Ordering::Equal
    }
}
impl Eq for OrderedF64 {}

impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}
impl std::hash::Hash for OrderedF64 {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}

impl Value {
    /// Rank used to order values of different kinds.
    fn kind_rank(&self) -> u8 {
        match self {
            Value::Bool(_) => 0,
            Value::Int(_) => 1,
            Value::Float(_) => 2,
            Value::Sym(_) => 3,
            Value::Str(_) => 4,
            Value::Bytes(_) => 5,
            Value::Set(_) => 6,
        }
    }

    /// The empty extended set, `∅`. Also the *classical scope*.
    pub fn empty_set() -> Value {
        Value::Set(ExtendedSet::empty())
    }

    /// The scope denoting classical (unscoped) membership: `∅`.
    pub fn classical_scope() -> Value {
        Value::empty_set()
    }

    /// True iff this value is the empty set `∅`.
    pub fn is_empty_set(&self) -> bool {
        matches!(self, Value::Set(s) if s.is_empty())
    }

    /// Symbol constructor.
    pub fn sym(s: impl AsRef<str>) -> Value {
        Value::Sym(Arc::from(s.as_ref()))
    }

    /// String-data constructor.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Byte-string constructor.
    pub fn bytes(b: impl AsRef<[u8]>) -> Value {
        Value::Bytes(Arc::from(b.as_ref()))
    }

    /// Integer constructor (ergonomic alias for `Value::Int`).
    pub fn int(i: i64) -> Value {
        Value::Int(i)
    }

    /// Float constructor.
    pub fn float(f: f64) -> Value {
        Value::Float(OrderedF64(f))
    }

    /// Borrow the inner set if this value is a set.
    pub fn as_set(&self) -> Option<&ExtendedSet> {
        match self {
            Value::Set(s) => Some(s),
            _ => None,
        }
    }

    /// Consume the value, returning the inner set if it is one.
    pub fn into_set(self) -> Option<ExtendedSet> {
        match self {
            Value::Set(s) => Some(s),
            _ => None,
        }
    }

    /// View any value as a set for the re-scope operations of §7: atoms act
    /// like `∅` (they have no scoped members), sets act as themselves.
    ///
    /// The paper defines `A^{/σ/}` and `A^{\σ\}` only for sets; extending
    /// atoms as memberless keeps the algebra total without changing any
    /// behavior on the paper's own examples (an atom's re-scope is `∅`).
    pub fn as_set_view(&self) -> ExtendedSet {
        match self {
            Value::Set(s) => s.clone(),
            _ => ExtendedSet::empty(),
        }
    }

    /// True iff `self` is an n-tuple per Definition 9.1 (possibly n = 0).
    pub fn is_tuple(&self) -> bool {
        match self {
            Value::Set(s) => s.tuple_len().is_some(),
            _ => false,
        }
    }

    /// Depth of nesting: atoms are 0, a set is 1 + max depth of member
    /// elements and scopes. Useful for fuzzing bounds and diagnostics.
    pub fn depth(&self) -> usize {
        match self {
            Value::Set(s) => {
                1 + s
                    .members()
                    .iter()
                    .map(|m| m.element.depth().max(m.scope.depth()))
                    .max()
                    .unwrap_or(0)
            }
            _ => 0,
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    // Inlined into its callers (a member comparison, the codec's ascent
    // checks): scope first, most calls compare two small atoms or two `∅`s.
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.cmp(b),
            (Sym(a), Sym(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Bytes(a), Bytes(b)) => a.cmp(b),
            (Set(a), Set(b)) => a.cmp(b),
            _ => self.kind_rank().cmp(&other.kind_rank()),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}
impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::float(f)
    }
}
impl From<&str> for Value {
    /// Bare string literals become *symbols* — the paper's `a`, `b`, `x`...
    fn from(s: &str) -> Self {
        Value::sym(s)
    }
}
impl From<ExtendedSet> for Value {
    fn from(s: ExtendedSet) -> Self {
        Value::Set(s)
    }
}

/// Shorthand for [`Value::sym`], used pervasively in tests and examples.
pub fn sym(s: &str) -> Value {
    Value::sym(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set::ExtendedSet;

    #[test]
    fn kind_order_is_stable() {
        let vals = [
            Value::Bool(true),
            Value::Int(0),
            Value::float(0.0),
            Value::sym("a"),
            Value::str("a"),
            Value::bytes([1u8]),
            Value::empty_set(),
        ];
        for w in vals.windows(2) {
            assert!(w[0] < w[1], "{:?} should precede {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn sym_and_str_are_distinct() {
        assert_ne!(Value::sym("a"), Value::str("a"));
    }

    #[test]
    fn float_total_order_handles_nan_and_zero() {
        let nan = Value::float(f64::NAN);
        let one = Value::float(1.0);
        let neg_zero = Value::float(-0.0);
        let pos_zero = Value::float(0.0);
        assert!(one < nan); // totalOrder puts +NaN after numbers
        assert!(neg_zero < pos_zero);
        assert_eq!(Value::float(2.5), Value::float(2.5));
    }

    #[test]
    fn empty_set_is_classical_scope() {
        assert_eq!(Value::classical_scope(), Value::empty_set());
        assert!(Value::empty_set().is_empty_set());
        assert!(!Value::Int(0).is_empty_set());
    }

    #[test]
    fn atom_set_view_is_empty() {
        assert!(Value::sym("a").as_set_view().is_empty());
        assert_eq!(
            Value::Set(ExtendedSet::classical([Value::Int(1)]))
                .as_set_view()
                .card(),
            1
        );
    }

    #[test]
    fn depth_counts_nesting() {
        assert_eq!(Value::Int(3).depth(), 0);
        assert_eq!(Value::empty_set().depth(), 1);
        let nested = Value::Set(ExtendedSet::classical([Value::empty_set()]));
        assert_eq!(nested.depth(), 2);
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from("x"), Value::sym("x"));
        assert_eq!(Value::from(true), Value::Bool(true));
    }

    #[test]
    fn set_comparison_is_lexicographic() {
        let a = ExtendedSet::classical([Value::Int(1)]);
        let b = ExtendedSet::classical([Value::Int(1), Value::Int(2)]);
        assert!(Value::Set(a) < Value::Set(b));
    }
}
