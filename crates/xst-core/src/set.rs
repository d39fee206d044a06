//! `ExtendedSet` — sets with *scoped membership*, the central object of XST.
//!
//! In extended set theory membership is a three-place relation: `x ∈_s A`
//! reads "x is a member of A under scope s". An [`ExtendedSet`] is therefore
//! a collection of [`Member`]s, each an `(element, scope)` pair of
//! [`Value`]s.
//!
//! # Canonical form
//!
//! Members are kept **sorted and deduplicated** under the total order of
//! `Value`. Consequences:
//!
//! * set equality is structural equality (`==`),
//! * membership tests are binary searches,
//! * union/intersection/difference are one ordered merge
//!   (see [`crate::ops::boolean`]): O(min · log(max/min)) comparisons when
//!   one operand outweighs the other, linear otherwise.
//!
//! # Sharing
//!
//! A non-empty set's member vector lives behind an [`Arc`]; cloning a set is
//! O(1) and an update builds a new vector. Deeply nested heterogeneous sets
//! are therefore cheap to pass around by value, which is how the rest of the
//! crate's API is shaped. `∅` holds no vector at all: it is the scope of every
//! classical member, so creating, cloning and dropping it must cost nothing —
//! no heap allocation, no reference count.

use crate::value::Value;
use std::cmp::Ordering;
use std::sync::Arc;

/// One scoped membership `element ∈_scope set`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
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
        // Members are sorted by (element, scope), so equal elements are
        // adjacent.
        let mut n = 0;
        let mut prev: Option<&Value> = None;
        for m in self.members().iter() {
            if prev != Some(&m.element) {
                n += 1;
                prev = Some(&m.element);
            }
        }
        n
    }

    /// Number of distinct member *scopes*, ignoring elements.
    pub fn distinct_scopes(&self) -> usize {
        self.members()
            .iter()
            .map(|m| &m.scope)
            .collect::<std::collections::BTreeSet<_>>()
            .len()
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
        self.members()
            .binary_search_by(|m| m.element.cmp(element).then_with(|| m.scope.cmp(scope)))
            .is_ok()
    }

    /// Membership under any scope: `∃s. element ∈_s self`.
    pub fn contains_element(&self, element: &Value) -> bool {
        self.first_index_of(element).is_some()
    }

    /// Classical membership: `element ∈_∅ self`.
    pub fn contains_classical(&self, element: &Value) -> bool {
        self.contains(element, &Value::classical_scope())
    }

    /// All scopes under which `element` is a member.
    pub fn scopes_of<'a>(&'a self, element: &'a Value) -> impl Iterator<Item = &'a Value> + 'a {
        let start = self.first_index_of(element).unwrap_or(self.members().len());
        self.members()[start..]
            .iter()
            .take_while(move |m| &m.element == element)
            .map(|m| &m.scope)
    }

    /// All elements that carry `scope`.
    pub fn elements_with_scope<'a>(
        &'a self,
        scope: &'a Value,
    ) -> impl Iterator<Item = &'a Value> + 'a {
        self.members()
            .iter()
            .filter(move |m| &m.scope == scope)
            .map(|m| &m.element)
    }

    fn first_index_of(&self, element: &Value) -> Option<usize> {
        let members = self.members();
        let idx = members.partition_point(|m| m.element.cmp(element) == Ordering::Less);
        (idx < members.len() && &members[idx].element == element).then_some(idx)
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
        if self.contains(&member.element, &member.scope) {
            return self.clone();
        }
        let mut v = self.members().to_vec();
        let idx = v.partition_point(|m| m < &member);
        v.insert(idx, member);
        ExtendedSet::canonical(v)
    }

    /// Remove a member, returning a new set (copy-on-write).
    pub fn without_member(&self, element: &Value, scope: &Value) -> ExtendedSet {
        match self
            .members()
            .binary_search_by(|m| m.element.cmp(element).then_with(|| m.scope.cmp(scope)))
        {
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
    pub fn tuple_len(&self) -> Option<usize> {
        let n = self.members().len();
        if n <= u64::BITS as usize {
            // Positions fit in one word: no allocation on this hot path
            // (the analyzer probes every member element during a scan).
            let mut seen = 0u64;
            for m in self.members().iter() {
                match m.scope {
                    Value::Int(i) if i >= 1 && (i as usize) <= n => {
                        let bit = 1u64 << (i as u32 - 1);
                        if seen & bit != 0 {
                            return None; // two members at one position
                        }
                        seen |= bit;
                    }
                    _ => return None,
                }
            }
            return Some(n);
        }
        let mut seen = vec![false; n];
        for m in self.members().iter() {
            match m.scope {
                Value::Int(i) if i >= 1 && (i as usize) <= n => {
                    let slot = i as usize - 1;
                    if seen[slot] {
                        return None; // two members at one position
                    }
                    seen[slot] = true;
                }
                _ => return None,
            }
        }
        Some(n)
    }

    /// If `self` is an n-tuple, return its components in positional order.
    pub fn as_tuple(&self) -> Option<Vec<Value>> {
        let n = self.tuple_len()?;
        let mut out = vec![Value::Int(0); n];
        for m in self.members().iter() {
            if let Value::Int(i) = m.scope {
                out[i as usize - 1] = m.element.clone();
            }
        }
        Some(out)
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
    fn elements_with_scope_filters() {
        let s = ExtendedSet::from_pairs([("a", 1), ("b", 1), ("c", 2)]);
        let els: Vec<_> = s.elements_with_scope(&Value::Int(1)).cloned().collect();
        assert_eq!(els, vec![sym("a"), sym("b")]);
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
