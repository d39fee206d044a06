//! Property tests on representation invariants: canonical form, boolean
//! algebra laws, display/parse round-trips, and storage codec round-trips
//! over arbitrarily nested heterogeneous values.

use proptest::prelude::*;
use xst_core::codec::{decode_exact, encode_to_vec};
use xst_core::ops::{difference, disjoint, intersection, symmetric_difference, union};
use xst_core::parse::parse_set;
use xst_core::{ExtendedSet, Value};
use xst_testkit::{arb_set, arb_tricky_atom, arb_tricky_set, arb_value};

fn hash_of<T: std::hash::Hash + ?Sized>(v: &T) -> u64 {
    use std::hash::Hasher;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

proptest! {
    /// Canonical form: building from any permutation of members yields the
    /// same set.
    #[test]
    fn canonical_form_is_order_insensitive(s in arb_set(2), seed in any::<u64>()) {
        let mut members = s.members().to_vec();
        // Cheap deterministic shuffle.
        let n = members.len();
        for i in (1..n).rev() {
            let j = (seed as usize).wrapping_mul(i + 7) % (i + 1);
            members.swap(i, j);
        }
        prop_assert_eq!(ExtendedSet::from_members(members), s);
    }

    /// Union is commutative, associative, idempotent; ∅ is its identity.
    #[test]
    fn union_laws(a in arb_set(2), b in arb_set(2), c in arb_set(2)) {
        prop_assert_eq!(union(&a, &b), union(&b, &a));
        prop_assert_eq!(union(&union(&a, &b), &c), union(&a, &union(&b, &c)));
        prop_assert_eq!(union(&a, &a), a.clone());
        prop_assert_eq!(union(&a, &ExtendedSet::empty()), a);
    }

    /// Intersection laws and absorption.
    #[test]
    fn intersection_laws(a in arb_set(2), b in arb_set(2), c in arb_set(2)) {
        prop_assert_eq!(intersection(&a, &b), intersection(&b, &a));
        prop_assert_eq!(
            intersection(&intersection(&a, &b), &c),
            intersection(&a, &intersection(&b, &c))
        );
        prop_assert_eq!(intersection(&a, &a), a.clone());
        prop_assert!(intersection(&a, &ExtendedSet::empty()).is_empty());
        // Absorption: A ∩ (A ∪ B) = A and A ∪ (A ∩ B) = A.
        prop_assert_eq!(intersection(&a, &union(&a, &b)), a.clone());
        prop_assert_eq!(union(&a, &intersection(&a, &b)), a);
    }

    /// Distributivity of ∩ over ∪ and vice versa.
    #[test]
    fn distributive_laws(a in arb_set(2), b in arb_set(2), c in arb_set(2)) {
        prop_assert_eq!(
            intersection(&a, &union(&b, &c)),
            union(&intersection(&a, &b), &intersection(&a, &c))
        );
        prop_assert_eq!(
            union(&a, &intersection(&b, &c)),
            intersection(&union(&a, &b), &union(&a, &c))
        );
    }

    /// Difference interacts with union/intersection as in classical algebra.
    #[test]
    fn difference_laws(a in arb_set(2), b in arb_set(2)) {
        let d = difference(&a, &b);
        prop_assert!(d.is_subset(&a));
        prop_assert!(disjoint(&d, &intersection(&a, &b)));
        prop_assert_eq!(union(&d, &intersection(&a, &b)), a.clone());
        prop_assert_eq!(
            symmetric_difference(&a, &b),
            union(&difference(&a, &b), &difference(&b, &a))
        );
        prop_assert!(difference(&a, &a).is_empty());
    }

    /// Subset is a partial order consistent with the boolean operations.
    #[test]
    fn subset_laws(a in arb_set(2), b in arb_set(2)) {
        prop_assert!(intersection(&a, &b).is_subset(&a));
        prop_assert!(a.is_subset(&union(&a, &b)));
        prop_assert_eq!(a.is_subset(&b) && b.is_subset(&a), a == b);
        prop_assert_eq!(a.is_subset(&b), intersection(&a, &b) == a);
    }

    /// Display → parse round-trips every generated set exactly.
    #[test]
    fn display_parse_roundtrip(s in arb_set(3)) {
        let text = s.to_string();
        let back = parse_set(&text).unwrap();
        prop_assert_eq!(back, s, "text was {}", text);
    }

    /// Display → parse also round-trips the grammar's hard corners: string
    /// escapes (`\"`, `\\`, `\n`, `\t`), grammar-significant characters
    /// *inside* quotes, byte literals, floats with kept fractions, nested
    /// scopes, tuples, and the empty set — a value universe the small-atom
    /// strategy above never reaches.
    #[test]
    fn display_parse_roundtrip_tricky(s in arb_tricky_set(2)) {
        let text = s.to_string();
        let back = parse_set(&text).unwrap();
        prop_assert_eq!(back, s, "text was {}", text);
    }

    /// The binary codec round-trips the tricky universe too.
    #[test]
    fn codec_roundtrip_tricky(s in arb_tricky_set(2)) {
        let v = Value::Set(s);
        let bytes = encode_to_vec(&v);
        prop_assert_eq!(decode_exact(&bytes).unwrap(), v);
    }

    /// Tricky atoms survive a display→parse trip through a scoped member
    /// position as well as an element position.
    #[test]
    fn tricky_atoms_roundtrip_as_scopes(e in arb_tricky_atom(), s in arb_tricky_atom()) {
        let set = ExtendedSet::from_members(vec![xst_core::Member::new(e, s)]);
        let text = set.to_string();
        prop_assert_eq!(parse_set(&text).unwrap(), set, "text was {}", text);
    }

    /// Binary codec round-trips every generated value exactly.
    #[test]
    fn codec_roundtrip(v in arb_value(3)) {
        let bytes = encode_to_vec(&v);
        let back = decode_exact(&bytes).unwrap();
        prop_assert_eq!(back, v);
    }

    /// Codec output is canonical: equal values encode identically.
    #[test]
    fn codec_is_canonical(s in arb_set(2), seed in any::<u64>()) {
        let mut members = s.members().to_vec();
        let n = members.len();
        for i in (1..n).rev() {
            let j = (seed as usize).wrapping_mul(i + 3) % (i + 1);
            members.swap(i, j);
        }
        let reordered = ExtendedSet::from_members(members);
        prop_assert_eq!(
            encode_to_vec(&Value::Set(s)),
            encode_to_vec(&Value::Set(reordered))
        );
    }

    /// Tuple recognition is stable under the tuple constructor.
    #[test]
    fn tuples_recognize_themselves(components in prop::collection::vec(arb_value(1), 0..5)) {
        let n = components.len();
        let t = ExtendedSet::tuple(components.clone());
        prop_assert_eq!(t.tuple_len(), Some(n));
        prop_assert_eq!(t.as_tuple().unwrap(), components);
    }

    /// One ∅, whichever way it is reached: every construction that ends with
    /// no members is equal, hash-equal and order-equal to
    /// `ExtendedSet::empty()`. A non-empty set hashes as its member slice.
    #[test]
    fn one_empty_set(a in arb_set(2), b in arb_set(2), e in arb_value(2), s in arb_value(2)) {
        use std::cmp::Ordering;
        use xst_core::ops::rescope_by_scope;
        let disjoint_from_a = difference(&b, &a);
        let zero_count = encode_to_vec(&Value::empty_set());
        let unmapped = ExtendedSet::singleton(Value::str("σ maps no scope of a"), 1);
        let empties = [
            ("a ∖ a", difference(&a, &a)),
            ("a ∩ b, disjoint", intersection(&a, &disjoint_from_a)),
            ("from_members", ExtendedSet::from_members(vec![])),
            ("from_sorted_unique", ExtendedSet::from_sorted_unique(vec![])),
            (
                "without_member",
                ExtendedSet::singleton(e.clone(), s.clone()).without_member(&e, &s),
            ),
            ("decode", decode_exact(&zero_count).unwrap().into_set().unwrap()),
            ("atom view", Value::Int(3).as_set_view()),
            ("re-scope", rescope_by_scope(&a, &unmapped)),
        ];
        let empty = ExtendedSet::empty();
        for (how, got) in &empties {
            prop_assert_eq!(got, &empty, "{}", how);
            prop_assert_eq!(hash_of(got), hash_of(&empty), "{}", how);
            prop_assert_eq!(got.cmp(&empty), Ordering::Equal, "{}", how);
        }
        if !a.is_empty() {
            prop_assert_eq!(hash_of(&a), hash_of(a.members()));
        }
    }

    /// Ord on values is a total order: antisymmetric and transitive over
    /// random triples.
    #[test]
    fn value_order_is_total(a in arb_value(2), b in arb_value(2), c in arb_value(2)) {
        use std::cmp::Ordering;
        prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        if a.cmp(&b) != Ordering::Greater && b.cmp(&c) != Ordering::Greater {
            prop_assert_ne!(a.cmp(&c), Ordering::Greater);
        }
        prop_assert_eq!(a.cmp(&a), Ordering::Equal);
    }
}
