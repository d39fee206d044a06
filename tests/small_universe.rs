//! Exhaustive check of the canonical member order over a small universe.
//!
//! Every set over two atoms and the scopes `{∅, 1, 2}`, with at most three
//! members and nested at most two deep (a member element is an atom or a
//! set whose elements are atoms; the `∅` scope does not count as nesting),
//! is enumerated once. For each:
//!
//! * every lookup that reads the order — `contains`, `contains_element`,
//!   `scopes_of`, `elements_with_scope`, `distinct_elements`,
//!   `with_member`, `without_member`, `tuple_len`, `as_tuple` — is held to
//!   a linear scan of the members;
//! * every operation that builds a set without re-sorting it — the
//!   Boolean merge, σ-restriction, image, σ-domain and both re-scopes — is
//!   held to strictly ascending output (the canonical order's one
//!   invariant, checked in release builds too) and, where the paper gives
//!   one, to a definition-literal oracle.
//!
//! Every fifth set also reads back from its codec bytes and from the
//! bytes a writer that ordered members element first left behind.
//!
//! The universe includes candidates holding two members at one scope
//! (`{k'^1, k^1}`): a lookup that assumed one member per scope, such as a
//! range over a relation's position-1 members, must not miss the second.

use std::cmp::Ordering;
use std::sync::OnceLock;
use xst_core::ops::{
    difference, image, image_two_pass, intersection, partition_by_scope, rescope_by_element,
    rescope_by_scope, sigma_domain, sigma_restrict, sigma_restrict_naive, union, Scope,
};
use xst_core::{codec, ExtendedSet, Member, Value};

/// The two atoms.
fn atoms() -> Vec<Value> {
    vec![Value::sym("a"), Value::sym("b")]
}

/// The three scopes.
fn scopes() -> Vec<Value> {
    vec![Value::classical_scope(), Value::Int(1), Value::Int(2)]
}

/// Every set of at most three members drawn from `elements × scopes()`.
fn sets_over(elements: &[Value]) -> Vec<ExtendedSet> {
    let pool: Vec<Member> = elements
        .iter()
        .flat_map(|e| scopes().into_iter().map(move |s| Member::new(e.clone(), s)))
        .collect();
    let n = pool.len();
    let mut out = vec![ExtendedSet::empty()];
    for i in 0..n {
        out.push(ExtendedSet::from_members(vec![pool[i].clone()]));
        for j in i + 1..n {
            out.push(ExtendedSet::from_members(vec![
                pool[i].clone(),
                pool[j].clone(),
            ]));
            for k in j + 1..n {
                out.push(ExtendedSet::from_members(vec![
                    pool[i].clone(),
                    pool[j].clone(),
                    pool[k].clone(),
                ]));
            }
        }
    }
    out
}

/// The inner sets (elements atoms) and the whole universe (elements atoms
/// or inner sets), built once for every test in this file.
fn universe() -> &'static (Vec<ExtendedSet>, Vec<ExtendedSet>) {
    static UNIVERSE: OnceLock<(Vec<ExtendedSet>, Vec<ExtendedSet>)> = OnceLock::new();
    UNIVERSE.get_or_init(|| {
        let inner = sets_over(&atoms());
        let mut elements = atoms();
        elements.extend(inner.iter().cloned().map(Value::Set));
        let all = sets_over(&elements);
        (inner, all)
    })
}

fn ascends(s: &ExtendedSet) -> bool {
    s.members().windows(2).all(|w| w[0] < w[1])
}

/// Linear-scan oracle for `element^scope ∈ s`.
fn holds(s: &ExtendedSet, element: &Value, scope: &Value) -> bool {
    s.iter().any(|(e, sc)| e == element && sc == scope)
}

/// The re-scope specs the operations are driven with: each position alone,
/// both positions swapped, and position 1 read twice.
fn sigmas() -> Vec<ExtendedSet> {
    vec![
        ExtendedSet::tuple([1i64]),
        ExtendedSet::tuple([2i64]),
        ExtendedSet::tuple([2i64, 1]),
        ExtendedSet::from_pairs([(1i64, 1i64), (1, 2)]),
    ]
}

#[test]
fn the_universe_has_the_pinned_size() {
    let (inner, all) = universe();
    // 6 members → 1 + 6 + 15 + 20 inner sets; (2 + 42) × 3 = 132 members
    // → 1 + 132 + 8 646 + 374 660 sets in all.
    assert_eq!(inner.len(), 42);
    assert_eq!(all.len(), 383_439);
    assert!(all.iter().all(ascends));
    // The case a position-1 range must not miss is in it.
    let two_at_one = ExtendedSet::from_pairs([("a", 1i64), ("b", 1)]);
    assert!(inner.contains(&two_at_one));
}

#[test]
fn every_lookup_agrees_with_a_linear_scan() {
    let (inner, all) = universe();
    // Both atoms, ∅, and an inner set with two members at scope 1.
    let two_at_one = ExtendedSet::from_pairs([("a", 1i64), ("b", 1)]);
    assert!(inner.contains(&two_at_one));
    let mut probe_elements = atoms();
    probe_elements.extend([Value::empty_set(), Value::Set(two_at_one)]);
    let mut probe_scopes = scopes();
    probe_scopes.sort();
    let probes: Vec<Member> = probe_elements
        .iter()
        .flat_map(|e| {
            probe_scopes
                .iter()
                .map(|sc| Member::new(e.clone(), sc.clone()))
        })
        .collect();
    for (i, s) in all.iter().enumerate() {
        for e in &probe_elements {
            let under: Vec<&Value> = probe_scopes.iter().filter(|sc| holds(s, e, sc)).collect();
            assert_eq!(
                s.scopes_of(e).collect::<Vec<_>>(),
                under,
                "{s} scopes_of {e}"
            );
            assert_eq!(s.contains_element(e), !under.is_empty(), "{s} ∋ {e}");
        }
        for p in &probes {
            assert_eq!(
                s.contains(&p.element, &p.scope),
                holds(s, &p.element, &p.scope),
                "{s} ∋ {}^{}",
                p.element,
                p.scope
            );
        }
        // Insert one probe (a different one for each set) and every
        // member; remove that probe and every member.
        let probe = &probes[i % probes.len()];
        for m in s.members().iter().chain([probe]) {
            let present = holds(s, &m.element, &m.scope);
            let with = s.with_member(m.clone());
            let without = s.without_member(&m.element, &m.scope);
            assert!(ascends(&with) && ascends(&without), "{s} ± {m:?}");
            assert_eq!(with.card(), s.card() + usize::from(!present), "{s} + {m:?}");
            assert_eq!(
                without.card(),
                s.card() - usize::from(present),
                "{s} - {m:?}"
            );
            assert!(holds(&with, &m.element, &m.scope), "{s} + {m:?}");
            assert!(!holds(&without, &m.element, &m.scope), "{s} - {m:?}");
            assert!(s.is_subset(&with) && without.is_subset(s), "{s} ± {m:?}");
        }
        for sc in &probe_scopes {
            let scan: Vec<&Value> = s.iter().filter(|(_, x)| *x == sc).map(|(e, _)| e).collect();
            assert_eq!(
                s.elements_with_scope(sc).collect::<Vec<_>>(),
                scan,
                "{s} at {sc}"
            );
        }
        let mut elements: Vec<&Value> = s.iter().map(|(e, _)| e).collect();
        elements.sort();
        elements.dedup();
        assert_eq!(s.distinct_elements(), elements.len(), "{s}");
        let positions: Option<Vec<Value>> = (1..=s.card() as i64)
            .map(|i| {
                let mut at = s.iter().filter(|(_, sc)| **sc == Value::Int(i));
                match (at.next(), at.next()) {
                    (Some((e, _)), None) => Some(e.clone()),
                    _ => None,
                }
            })
            .collect();
        assert_eq!(s.as_tuple(), positions, "{s}");
        assert_eq!(s.tuple_len(), positions.map(|t| t.len()), "{s}");
    }
}

#[test]
fn every_operation_builds_ascending_output() {
    let (_, all) = universe();
    let n = all.len();
    let sigmas = sigmas();
    for (i, s) in all.iter().enumerate() {
        // A partner spread over the whole universe, or one near `s`.
        let t = if i % 2 == 0 {
            &all[(i * 7_919 + 13) % n]
        } else {
            &all[i / 2]
        };
        let u = union(s, t);
        let x = intersection(s, t);
        let d = difference(s, t);
        for (op, got) in [("∪", &u), ("∩", &x), ("∖", &d)] {
            assert!(ascends(got), "{s} {op} {t} = {got}");
        }
        let mut both = s.members().to_vec();
        both.extend_from_slice(t.members());
        assert_eq!(u, ExtendedSet::from_members(both), "{s} ∪ {t}");
        let (kept, dropped): (Vec<Member>, Vec<Member>) = s
            .members()
            .iter()
            .cloned()
            .partition(|m| t.members().contains(m));
        assert_eq!(x, ExtendedSet::from_members(kept), "{s} ∩ {t}");
        assert_eq!(d, ExtendedSet::from_members(dropped), "{s} ∖ {t}");
        let sigma = &sigmas[i % sigmas.len()];
        let other = &sigmas[(i / sigmas.len()) % sigmas.len()];
        let witnesses = &all[(i * 104_729 + 7) % n];
        let restricted = sigma_restrict(s, sigma, witnesses);
        assert!(ascends(&restricted), "{s} |_{sigma} {witnesses}");
        assert_eq!(
            restricted,
            sigma_restrict_naive(s, sigma, witnesses),
            "{s} |_{sigma} {witnesses}"
        );
        let scope = Scope::new(sigma.clone(), other.clone());
        let img = image(s, witnesses, &scope);
        assert!(ascends(&img), "{s}[{witnesses}]");
        assert_eq!(
            img,
            image_two_pass(s, witnesses, &scope),
            "{s}[{witnesses}]"
        );
        for (op, got) in [
            ("𝔇", sigma_domain(s, sigma)),
            ("/σ/", rescope_by_scope(s, sigma)),
            ("\\σ\\", rescope_by_element(s, sigma)),
            ("partition", partition_by_scope(s)),
        ] {
            assert!(ascends(&got), "{op} of {s} by {sigma} = {got}");
        }
    }
}

/// The member order before scope first: element, then scope, where two
/// sets compare by their members listed in this order.
fn old_cmp(a: &Value, b: &Value) -> Ordering {
    match (a, b) {
        (Value::Set(x), Value::Set(y)) => {
            let (xs, ys) = (old_listing(x), old_listing(y));
            xs.iter()
                .zip(&ys)
                .map(|(p, q)| old_cmp_members(p, q))
                .find(|o| o.is_ne())
                .unwrap_or(xs.len().cmp(&ys.len()))
        }
        _ => a.cmp(b),
    }
}

fn old_cmp_members(p: &Member, q: &Member) -> Ordering {
    old_cmp(&p.element, &q.element).then_with(|| old_cmp(&p.scope, &q.scope))
}

/// `s`'s members in the order a writer before scope first listed them.
fn old_listing(s: &ExtendedSet) -> Vec<Member> {
    let mut members = s.members().to_vec();
    members.sort_by(old_cmp_members);
    members
}

fn inhabited(v: &Value) -> bool {
    matches!(v, Value::Set(s) if !s.is_empty())
}

/// `v`'s bytes as that writer wrote them (codec tag 6 at every depth),
/// and whether they are today's too: at every depth the two orders list
/// the members alike and no two adjacent ones hold non-empty sets where
/// the order compares them (the codec does not decide those by the
/// legacy order).
fn old_bytes(v: &Value) -> (Vec<u8>, bool) {
    match v {
        Value::Set(s) => {
            let members = old_listing(s);
            let mut agree = s.members() == members.as_slice()
                && !s.members().windows(2).any(|w| {
                    let (p, q) = (&w[0], &w[1]);
                    let both = |x: &Value, y: &Value| inhabited(x) && inhabited(y);
                    both(&p.element, &q.element)
                        || (p.element == q.element && both(&p.scope, &q.scope))
                });
            let mut out = vec![6];
            codec::put_u32(&mut out, members.len() as u32);
            for m in &members {
                for part in [&m.element, &m.scope] {
                    let (bytes, inside) = old_bytes(part);
                    out.extend(bytes);
                    agree &= inside;
                }
            }
            (out, agree)
        }
        atom => (codec::encode_to_vec(atom), true),
    }
}

#[test]
fn every_fifth_set_reads_back_from_old_and_new_bytes() {
    let (_, all) = universe();
    // A fifth of the universe, spread over it, holds the other checks'
    // time in debug builds (the codec costs ≈ 15 µs a set there).
    let mut moved = 0;
    for s in all.iter().step_by(5) {
        let v = Value::Set(s.clone());
        let bytes = codec::encode_to_vec(&v);
        assert_eq!(codec::decode_exact(&bytes).as_ref(), Ok(&v), "{s}");
        let (old, agree) = old_bytes(&v);
        assert_eq!(
            codec::decode_exact(&old).as_ref(),
            Ok(&v),
            "{s} from old bytes"
        );
        // The bytes moved exactly where the orders part somewhere inside.
        assert_eq!(bytes == old, agree, "{s}");
        moved += usize::from(!agree);
    }
    // Scope first, positions 1 and 2 sort before `∅` (atoms before
    // sets), and two inner sets side by side are written under tag 7, so
    // nearly every sampled set (of 76 688) moved.
    assert_eq!(moved, 76_318, "sets whose bytes moved");
}
