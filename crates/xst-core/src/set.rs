//! `ExtendedSet` — sets with *scoped membership*, the central object of XST.
//!
//! In extended set theory membership is a three-place relation: `x ∈_s A`
//! reads "x is a member of A under scope s". An [`ExtendedSet`] is therefore
//! a collection of [`Member`]s, each an `(element, scope)` pair of
//! [`Value`]s.
//!
//! # Canonical form
//!
//! Members are kept **sorted and deduplicated**, scope first, then
//! element, each under the total order of `Value`. Consequences:
//!
//! * set equality is structural equality (`==`),
//! * membership tests are binary searches,
//! * the members at one scope are one contiguous run, so a tuple
//!   `{x1^1, ..., xn^n}` (Definition 9.1) is laid out in position order
//!   and a relation of tuples is clustered on its position-1 members:
//!   a relation built in key order is already canonical,
//! * union/intersection/difference are one ordered merge
//!   (see [`crate::ops::boolean`]): O(min · log(max/min)) comparisons when
//!   one operand outweighs the other, linear otherwise.
//!
//! The order is representation, not meaning: which of two members comes
//! first changes no definition, only which lookups are ranges. A lookup by
//! scope is a binary search; a lookup by element searches each scope run.
//!
//! # Sharing
//!
//! A non-empty set's member vector lives behind an [`Arc`]; cloning a set is
//! O(1) and an update builds a new vector. Deeply nested heterogeneous sets
//! are therefore cheap to pass around by value, which is how the rest of the
//! crate's API is shaped. `∅` holds no vector at all: it is the scope of every
//! classical member, so creating, cloning and dropping it must cost nothing —
//! no heap allocation, no reference count.

use crate::ops::boolean::gallop;
use crate::value::Value;
use std::cmp::Ordering;
use std::sync::Arc;

/// One scoped membership `element ∈_scope set`.
///
/// Members order scope first, then element (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Member {
    /// The member element `x` in `x ∈_s A`.
    pub element: Value,
    /// The membership scope `s` in `x ∈_s A`. Classical membership uses
    /// `∅` ([`Value::classical_scope`]).
    pub scope: Value,
}

impl Member {
    /// Construct a scoped member.
    pub fn new(element: impl Into<Value>, scope: impl Into<Value>) -> Member {
        Member {
            element: element.into(),
            scope: scope.into(),
        }
    }

    /// Construct a classically-scoped member (`scope = ∅`).
    pub fn classical(element: impl Into<Value>) -> Member {
        Member {
            element: element.into(),
            scope: Value::classical_scope(),
        }
    }
}

impl PartialOrd for Member {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Member {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_scopes(&self.scope, &other.scope).then_with(|| self.element.cmp(&other.element))
    }
}

/// `Value`'s order on two scopes. Compared scope first, most member pairs
/// tie here — two classical members' `∅`s, two tuples' equal positions —
/// so those two kinds of scope are decided inline. It must agree with
/// `Value::cmp`, and is kept beside it (inlined too) because it shortens
/// every merge: with plain `Value::cmp` in `Member::cmp`, `inproc_plan`'s
/// traced intersect and `wire_point`'s op both ran slower.
#[inline]
pub(crate) fn cmp_scopes(a: &Value, b: &Value) -> Ordering {
    match (a, b) {
        (Value::Int(a), Value::Int(b)) => a.cmp(b),
        (Value::Set(a), Value::Set(b)) if a.is_empty() && b.is_empty() => Ordering::Equal,
        _ => a.cmp(b),
    }
}

/// An extended set: a canonical, shareable sequence of scoped members.
#[derive(Clone, Default, Eq)]
pub struct ExtendedSet {
    /// `None` is `∅`; a `Some` never holds zero members.
    members: Option<Arc<Vec<Member>>>,
}

impl std::fmt::Debug for ExtendedSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExtendedSet")
            .field("members", &self.members())
            .finish()
    }
}

impl std::hash::Hash for ExtendedSet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Hashes the canonical member sequence — consistent with the
        // PartialEq below (pointer equality implies member equality).
        self.members().hash(state);
    }
}

impl PartialEq for ExtendedSet {
    fn eq(&self, other: &Self) -> bool {
        match (&self.members, &other.members) {
            // Pointer fast path: clones share the member vector, so deeply
            // nested values (where structural comparison can be exponential
            // in sharing depth) compare in O(1) along shared spines.
            (Some(a), Some(b)) => Arc::ptr_eq(a, b) || a == b,
            (None, None) => true,
            _ => false,
        }
    }
}

impl ExtendedSet {
    /// The one constructor: shares a canonical member vector, or holds
    /// nothing when it is empty.
    fn canonical(members: Vec<Member>) -> ExtendedSet {
        ExtendedSet {
            members: (!members.is_empty()).then(|| Arc::new(members)),
        }
    }

    /// The empty set `∅`: no allocation to create, clone or drop.
    pub fn empty() -> ExtendedSet {
        ExtendedSet { members: None }
    }

    /// Build from an arbitrary member list; sorts and deduplicates.
    pub fn from_members(mut members: Vec<Member>) -> ExtendedSet {
        members.sort_unstable();
        members.dedup();
        ExtendedSet::canonical(members)
    }

    /// Build from members already in canonical (sorted, deduplicated) order.
    ///
    /// Used by the merge-based operations in [`crate::ops::boolean`] to skip
    /// re-sorting. Canonicality is checked in debug builds only.
    pub fn from_sorted_unique(members: Vec<Member>) -> ExtendedSet {
        debug_assert!(
            members.windows(2).all(|w| w[0] < w[1]),
            "from_sorted_unique: input not strictly sorted"
        );
        ExtendedSet::canonical(members)
    }

    /// Build from `(element, scope)` pairs.
    pub fn from_pairs<E, S>(pairs: impl IntoIterator<Item = (E, S)>) -> ExtendedSet
    where
        E: Into<Value>,
        S: Into<Value>,
    {
        ExtendedSet::from_members(pairs.into_iter().map(|(e, s)| Member::new(e, s)).collect())
    }

    /// Build a classical set: every element scoped by `∅`.
    pub fn classical<E: Into<Value>>(elements: impl IntoIterator<Item = E>) -> ExtendedSet {
        ExtendedSet::from_members(elements.into_iter().map(Member::classical).collect())
    }

    /// A one-member set `{element^scope}`.
    pub fn singleton(element: impl Into<Value>, scope: impl Into<Value>) -> ExtendedSet {
        ExtendedSet::canonical(vec![Member::new(element, scope)])
    }

    /// A one-member classical set `{element}`.
    pub fn singleton_classical(element: impl Into<Value>) -> ExtendedSet {
        ExtendedSet::singleton(element, Value::classical_scope())
    }

    /// Build the n-tuple `⟨x1, ..., xn⟩ = {x1^1, ..., xn^n}` (Definition 9.1).
    ///
    /// Positions start at 1 as in the paper. The empty tuple is `∅`.
    pub fn tuple<E: Into<Value>>(elements: impl IntoIterator<Item = E>) -> ExtendedSet {
        ExtendedSet::from_members(
            elements
                .into_iter()
                .enumerate()
                .map(|(i, e)| Member::new(e, Value::Int(i as i64 + 1)))
                .collect(),
        )
    }

    /// The ordered pair `⟨x, y⟩ = {x^1, y^2}` (Definition 7.2).
    pub fn pair(x: impl Into<Value>, y: impl Into<Value>) -> ExtendedSet {
        ExtendedSet::tuple([x.into(), y.into()])
    }

    /// Borrow the canonical member slice.
    pub fn members(&self) -> &[Member] {
        match &self.members {
            Some(members) => {
                debug_assert!(!members.is_empty(), "a shared member vector is never empty");
                members
            }
            None => &[],
        }
    }

    /// Number of scoped members (the paper's working cardinality: members
    /// with distinct scopes are distinct memberships).
    pub fn card(&self) -> usize {
        self.members().len()
    }

    /// Number of distinct member *elements*, ignoring scopes.
    pub fn distinct_elements(&self) -> usize {
        let members = self.members();
        if members.first().map(|m| &m.scope) == members.last().map(|m| &m.scope) {
            return members.len(); // one scope run: its elements are distinct
        }
        // An element can recur in every scope run: count it once.
        let mut elements: Vec<&Value> = members.iter().map(|m| &m.element).collect();
        elements.sort_unstable();
        elements.dedup();
        elements.len()
    }

    /// Number of distinct member *scopes*, ignoring elements.
    pub fn distinct_scopes(&self) -> usize {
        self.scope_runs().count()
    }

    /// True iff the set has no members.
    pub fn is_empty(&self) -> bool {
        self.members().is_empty()
    }

    /// `Sing(A)`: exactly one scoped member (paper, §5).
    pub fn is_singleton(&self) -> bool {
        self.members().len() == 1
    }

    /// Scoped membership test `element ∈_scope self`.
    pub fn contains(&self, element: &Value, scope: &Value) -> bool {
        self.position(element, scope).is_ok()
    }

    /// Membership under any scope: `∃s. element ∈_s self`. One binary
    /// search per scope run: O(log n) for one scope, O(n) at most (an
    /// n-tuple).
    pub fn contains_element(&self, element: &Value) -> bool {
        self.scope_runs().any(|run| run_holds(run, element))
    }

    /// Classical membership: `element ∈_∅ self`.
    pub fn contains_classical(&self, element: &Value) -> bool {
        self.contains(element, &Value::classical_scope())
    }

    /// All scopes under which `element` is a member, ascending.
    pub fn scopes_of<'a>(&'a self, element: &'a Value) -> impl Iterator<Item = &'a Value> + 'a {
        self.scope_runs()
            .filter(move |run| run_holds(run, element))
            .map(|run| &run[0].scope)
    }

    /// All elements that carry `scope`, ascending: one contiguous run,
    /// found by binary search.
    pub fn elements_with_scope<'a>(
        &'a self,
        scope: &'a Value,
    ) -> impl Iterator<Item = &'a Value> + 'a {
        let members = self.members();
        let lo = members.partition_point(|m| m.scope < *scope);
        let len = members[lo..].partition_point(|m| m.scope == *scope);
        members[lo..lo + len].iter().map(|m| &m.element)
    }

    /// The members' maximal runs of one scope, in canonical order. Each run
    /// ends at a gallop from its start, O(log run) comparisons, so walking
    /// every run costs O(log n) for one scope and O(n) at most.
    pub(crate) fn scope_runs(&self) -> impl Iterator<Item = &[Member]> + '_ {
        let mut rest = self.members();
        std::iter::from_fn(move || {
            let scope = &rest.first()?.scope;
            let (run, tail) = rest.split_at(gallop(rest, 0, |m| m.scope == *scope));
            rest = tail;
            Some(run)
        })
    }

    /// Where `element^scope` sits, or where it would be inserted.
    fn position(&self, element: &Value, scope: &Value) -> Result<usize, usize> {
        self.members()
            .binary_search_by(|m| cmp_scopes(&m.scope, scope).then_with(|| m.element.cmp(element)))
    }

    /// Member-wise subset: every scoped member of `self` is a member of
    /// `other`.
    pub fn is_subset(&self, other: &ExtendedSet) -> bool {
        members_subset(self.members(), other.members())
    }

    /// The paper's dotted `⊆`: non-empty subset (see notes to Defs 2.1/5.1).
    pub fn is_nonempty_subset(&self, other: &ExtendedSet) -> bool {
        !self.is_empty() && self.is_subset(other)
    }

    /// Proper subset.
    pub fn is_proper_subset(&self, other: &ExtendedSet) -> bool {
        self.members().len() < other.members().len() && self.is_subset(other)
    }

    /// Insert a member, returning a new set (copy-on-write).
    pub fn with_member(&self, member: Member) -> ExtendedSet {
        match self.position(&member.element, &member.scope) {
            Ok(_) => self.clone(),
            Err(idx) => {
                let mut v = self.members().to_vec();
                v.insert(idx, member);
                ExtendedSet::canonical(v)
            }
        }
    }

    /// Remove a member, returning a new set (copy-on-write).
    pub fn without_member(&self, element: &Value, scope: &Value) -> ExtendedSet {
        match self.position(element, scope) {
            Ok(idx) => {
                let mut v = self.members().to_vec();
                v.remove(idx);
                ExtendedSet::canonical(v)
            }
            Err(_) => self.clone(),
        }
    }

    /// If `self` is an n-tuple `{x1^1, ..., xn^n}` (Definition 9.1), return
    /// `n`. The empty set is the 0-tuple. This is the paper's `tup`.
    ///
    /// Members sort scope first, so a tuple's members are in position
    /// order: the `i`-th member must sit at position `i`, and one walk
    /// decides it.
    pub fn tuple_len(&self) -> Option<usize> {
        let members = self.members();
        members
            .iter()
            .zip(1..)
            .all(|(m, i)| matches!(m.scope, Value::Int(p) if p == i))
            .then_some(members.len())
    }

    /// If `self` is an n-tuple, return its components in positional order.
    pub fn as_tuple(&self) -> Option<Vec<Value>> {
        self.members()
            .iter()
            .zip(1..)
            .map(|(m, i)| matches!(m.scope, Value::Int(p) if p == i).then(|| m.element.clone()))
            .collect()
    }

    /// Iterate over `(element, scope)` pairs in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (&Value, &Value)> + '_ {
        self.members().iter().map(|m| (&m.element, &m.scope))
    }

    /// Wrap into a [`Value`].
    pub fn into_value(self) -> Value {
        Value::Set(self)
    }
}

/// Does a run of members at one scope hold `element`? The run is sorted by
/// element.
fn run_holds(run: &[Member], element: &Value) -> bool {
    run.binary_search_by(|m| m.element.cmp(element)).is_ok()
}

/// `a ⊆ b` over two canonical member slices: one merge walk.
pub(crate) fn members_subset(a: &[Member], b: &[Member]) -> bool {
    if a.len() > b.len() {
        return false;
    }
    let mut bi = 0;
    for m in a {
        loop {
            if bi == b.len() {
                return false;
            }
            match b[bi].cmp(m) {
                Ordering::Less => bi += 1,
                Ordering::Equal => {
                    bi += 1;
                    break;
                }
                Ordering::Greater => return false,
            }
        }
    }
    true
}

impl PartialOrd for ExtendedSet {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ExtendedSet {
    fn cmp(&self, other: &Self) -> Ordering {
        self.members().iter().cmp(other.members().iter())
    }
}

impl FromIterator<Member> for ExtendedSet {
    fn from_iter<T: IntoIterator<Item = Member>>(iter: T) -> Self {
        ExtendedSet::from_members(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a ExtendedSet {
    type Item = &'a Member;
    type IntoIter = std::slice::Iter<'a, Member>;
    fn into_iter(self) -> Self::IntoIter {
        self.members().iter()
    }
}

/// Incremental builder for [`ExtendedSet`].
///
/// Collects members unordered and canonicalizes once at [`SetBuilder::build`],
/// which is O(n log n) instead of repeated sorted insertion.
#[derive(Debug, Default)]
pub struct SetBuilder {
    members: Vec<Member>,
}

impl SetBuilder {
    /// Fresh empty builder.
    pub fn new() -> SetBuilder {
        SetBuilder::default()
    }

    /// Builder pre-sized for `n` members.
    pub fn with_capacity(n: usize) -> SetBuilder {
        SetBuilder {
            members: Vec::with_capacity(n),
        }
    }

    /// Add a scoped member `element ∈_scope`.
    pub fn scoped(&mut self, element: impl Into<Value>, scope: impl Into<Value>) -> &mut Self {
        self.members.push(Member::new(element, scope));
        self
    }

    /// Add a classical member (`scope = ∅`).
    pub fn classical_elem(&mut self, element: impl Into<Value>) -> &mut Self {
        self.members.push(Member::classical(element));
        self
    }

    /// Add a pre-built member.
    pub fn member(&mut self, m: Member) -> &mut Self {
        self.members.push(m);
        self
    }

    /// Number of members collected so far (pre-dedup).
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True iff nothing has been added.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Canonicalize into an [`ExtendedSet`].
    pub fn build(self) -> ExtendedSet {
        ExtendedSet::from_members(self.members)
    }
}

/// Construct an [`ExtendedSet`] from element expressions.
///
/// `elem => scope` adds a scoped member; a bare `elem` adds a classical
/// member (`scope = ∅`).
///
/// ```
/// use xst_core::{xset, Value};
/// let s = xset!["a" => 1, "b" => 2, "c"];
/// assert!(s.contains(&Value::sym("a"), &Value::Int(1)));
/// assert!(s.contains_classical(&Value::sym("c")));
/// ```
#[macro_export]
macro_rules! xset {
    (@acc $b:ident, ) => {};
    (@acc $b:ident, $e:expr => $s:expr, $($rest:tt)*) => {
        $b.scoped($e, $s);
        $crate::xset!(@acc $b, $($rest)*);
    };
    (@acc $b:ident, $e:expr => $s:expr) => {
        $b.scoped($e, $s);
    };
    (@acc $b:ident, $e:expr, $($rest:tt)*) => {
        $b.classical_elem($e);
        $crate::xset!(@acc $b, $($rest)*);
    };
    (@acc $b:ident, $e:expr) => {
        $b.classical_elem($e);
    };
    () => { $crate::set::ExtendedSet::empty() };
    ($($toks:tt)+) => {{
        let mut b = $crate::set::SetBuilder::new();
        $crate::xset!(@acc b, $($toks)+);
        b.build()
    }};
}

/// Construct an n-tuple `⟨x1, ..., xn⟩` (Definition 9.1).
///
/// ```
/// use xst_core::{xtuple, Value};
/// let t = xtuple!["a", "b"];
/// assert_eq!(t.tuple_len(), Some(2));
/// assert!(t.contains(&Value::sym("b"), &Value::Int(2)));
/// ```
#[macro_export]
macro_rules! xtuple {
    () => { $crate::set::ExtendedSet::empty() };
    ($($e:expr),+ $(,)?) => {
        $crate::set::ExtendedSet::tuple(vec![$($crate::value::Value::from($e)),+])
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::sym;

    #[test]
    fn canonicalization_dedups_and_sorts() {
        let s = ExtendedSet::from_pairs([("b", 2), ("a", 1), ("b", 2), ("a", 3)]);
        assert_eq!(s.card(), 3);
        let members: Vec<_> = s.iter().collect();
        assert_eq!(members[0].0, &sym("a"));
    }

    #[test]
    fn same_element_different_scopes_are_distinct_members() {
        let s = ExtendedSet::from_pairs([("a", 1), ("a", 2)]);
        assert_eq!(s.card(), 2);
        assert_eq!(s.distinct_elements(), 1);
    }

    #[test]
    fn equality_is_order_insensitive() {
        let s1 = ExtendedSet::from_pairs([("a", 1), ("b", 2)]);
        let s2 = ExtendedSet::from_pairs([("b", 2), ("a", 1)]);
        assert_eq!(s1, s2);
    }

    #[test]
    fn scoped_membership() {
        let s = xset!["a" => 1, "b" => 2, "c"];
        assert!(s.contains(&sym("a"), &Value::Int(1)));
        assert!(!s.contains(&sym("a"), &Value::Int(2)));
        assert!(s.contains_element(&sym("a")));
        assert!(!s.contains_element(&sym("z")));
        assert!(s.contains_classical(&sym("c")));
        assert!(!s.contains_classical(&sym("a")));
    }

    #[test]
    fn scopes_of_lists_all_scopes() {
        let s = ExtendedSet::from_pairs([("a", 1), ("a", 7), ("b", 2)]);
        let scopes: Vec<_> = s.scopes_of(&sym("a")).cloned().collect();
        assert_eq!(scopes, vec![Value::Int(1), Value::Int(7)]);
        assert_eq!(s.scopes_of(&sym("z")).count(), 0);
    }

    #[test]
    fn an_element_recurring_under_other_scopes_counts_once() {
        // Scope first, `a^1` and `a^3` are not adjacent: `b^2` sits
        // between them.
        let s = ExtendedSet::from_pairs([("a", 1), ("b", 2), ("a", 3)]);
        assert_eq!(s.distinct_elements(), 2);
        assert_eq!(s.distinct_scopes(), 3);
        let scopes: Vec<_> = s.scopes_of(&sym("a")).cloned().collect();
        assert_eq!(scopes, vec![Value::Int(1), Value::Int(3)]);
        assert!(s.contains_element(&sym("b")));
        assert_eq!(xset!["a", "b"].distinct_elements(), 2);
        assert_eq!(ExtendedSet::empty().distinct_elements(), 0);
    }

    #[test]
    fn members_order_scope_first() {
        let s = ExtendedSet::pair("z", "a");
        let members: Vec<_> = s.iter().collect();
        assert_eq!(members[0], (&sym("z"), &Value::Int(1)));
        assert!(Member::new("z", 1) < Member::new("a", 2));
        assert!(Member::new("a", 1) < Member::new("b", 1));
    }

    #[test]
    fn elements_with_scope_filters() {
        let s = ExtendedSet::from_pairs([("a", 1), ("b", 1), ("c", 2)]);
        let els: Vec<_> = s.elements_with_scope(&Value::Int(1)).cloned().collect();
        assert_eq!(els, vec![sym("a"), sym("b")]);
        assert_eq!(s.elements_with_scope(&Value::Int(2)).count(), 1);
        assert_eq!(s.elements_with_scope(&Value::Int(0)).count(), 0);
        assert_eq!(s.elements_with_scope(&Value::Int(3)).count(), 0);
    }

    #[test]
    fn subset_semantics() {
        let small = xset!["a" => 1];
        let big = xset!["a" => 1, "b" => 2];
        assert!(small.is_subset(&big));
        assert!(!big.is_subset(&small));
        assert!(small.is_proper_subset(&big));
        assert!(!big.is_proper_subset(&big.clone()));
        assert!(big.is_subset(&big.clone()));
        assert!(ExtendedSet::empty().is_subset(&small));
        assert!(!ExtendedSet::empty().is_nonempty_subset(&small));
        assert!(small.is_nonempty_subset(&big));
        // same element, wrong scope
        let wrong = xset!["a" => 9];
        assert!(!wrong.is_subset(&big));
    }

    #[test]
    fn tuples_per_definition_9_1() {
        let t = ExtendedSet::tuple([sym("a"), sym("b"), sym("c")]);
        assert_eq!(t.tuple_len(), Some(3));
        assert_eq!(t.as_tuple().unwrap(), vec![sym("a"), sym("b"), sym("c")]);
        // The empty set is the 0-tuple.
        assert_eq!(ExtendedSet::empty().tuple_len(), Some(0));
        // Gap in positions -> not a tuple.
        let gap = ExtendedSet::from_pairs([("a", 1), ("b", 3)]);
        assert_eq!(gap.tuple_len(), None);
        // Duplicate position -> not a tuple.
        let dup = ExtendedSet::from_pairs([("a", 1), ("b", 1)]);
        assert_eq!(dup.tuple_len(), None);
        // Non-integer scope -> not a tuple.
        let non_int = xset!["a" => "x"];
        assert_eq!(non_int.tuple_len(), None);
        // A scope below every position (`Bool` sorts before `Int`), and a
        // position past the end.
        let low = xset!["a" => 1, "b" => true];
        assert_eq!(low.tuple_len(), None);
        assert_eq!(low.as_tuple(), None);
        let past = xset!["a" => 1, "b" => 2, "c" => 4];
        assert_eq!(past.as_tuple(), None);
    }

    #[test]
    fn tuple_with_repeated_element_is_still_a_tuple() {
        // ⟨a,a,a,b,b⟩ from Appendix B.
        let t = ExtendedSet::tuple([sym("a"), sym("a"), sym("a"), sym("b"), sym("b")]);
        assert_eq!(t.tuple_len(), Some(5));
        assert_eq!(t.card(), 5);
    }

    #[test]
    fn ordered_pair_definition_7_2() {
        let p = ExtendedSet::pair(sym("x"), sym("y"));
        assert_eq!(p, ExtendedSet::from_pairs([("x", 1), ("y", 2)]));
    }

    #[test]
    fn with_and_without_member() {
        let s = xset!["a" => 1];
        let s2 = s.with_member(Member::new("b", 2));
        assert_eq!(s2.card(), 2);
        assert_eq!(s.card(), 1, "original untouched (COW)");
        let s3 = s2.without_member(&sym("a"), &Value::Int(1));
        assert_eq!(s3, xset!["b" => 2]);
        // Removing an absent member is a no-op.
        assert_eq!(s3.without_member(&sym("z"), &Value::Int(9)), s3);
        // Adding a present member is a no-op.
        assert_eq!(s.with_member(Member::new("a", 1)), s);
    }

    #[test]
    fn singleton_recognizer() {
        assert!(xset!["a" => 1].is_singleton());
        assert!(!xset!["a" => 1, "a" => 2].is_singleton());
        assert!(!ExtendedSet::empty().is_singleton());
    }

    #[test]
    fn builder_roundtrip() {
        let mut b = SetBuilder::with_capacity(3);
        b.scoped("a", 1)
            .classical_elem("b")
            .member(Member::new("c", 3));
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        let s = b.build();
        assert_eq!(s.card(), 3);
    }

    #[test]
    fn empty_macro_forms() {
        assert!(xset!().is_empty());
        assert!(xtuple!().is_empty());
        assert_eq!(xtuple!().tuple_len(), Some(0));
    }

    #[test]
    fn nested_sets_as_members() {
        let inner = xtuple!["a", "b"];
        let outer = xset![inner.clone().into_value() => "tag"];
        assert!(outer.contains(&inner.into_value(), &sym("tag")));
        assert_eq!(outer.card(), 1);
    }

    #[test]
    fn from_iterator_of_members() {
        let s: ExtendedSet = vec![Member::new("b", 2), Member::new("a", 1)]
            .into_iter()
            .collect();
        assert_eq!(s.card(), 2);
    }

    #[test]
    fn set_order_total() {
        let a = xset!["a" => 1];
        let b = xset!["a" => 1, "b" => 2];
        let c = xset!["b" => 1];
        assert!(a < b);
        assert!(b < c);
        assert!(a < c);
    }
}
