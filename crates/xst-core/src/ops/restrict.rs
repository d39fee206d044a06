//! σ-Restriction (Definition 7.6) — the selection primitive of XST.
//!
//! ```text
//! R |_σ A = { z^w : z ∈_w R ∧ ∃a,s ( a ∈_s A ∧ a^{\σ\} ⊆ z ∧ s^{\σ\} ⊆ w ) }
//! ```
//!
//! A member `z` of `R` survives when some member `a` of `A`, re-scoped *by
//! element* through `σ`, is found inside `z` (and likewise its membership
//! scope inside `z`'s scope). With `σ = ⟨1⟩` over pairs this is the CST
//! restriction `R | A`; general `σ` selects on any combination of positions.
//!
//! # Subset reading (interpretive decision)
//!
//! The paper overloads `⊆`, noting at Definitions 2.1/5.1 that it often
//! means *non-empty* subset. Reading both conditions of 7.6 as plain subset
//! makes every memberless witness vacuously match all of `R` (so nothing
//! could ever be a function — contradicting Example 8.1); reading both as
//! non-empty subset makes classically-scoped members (`s = ∅`) match nothing
//! (contradicting Appendix B's derivations). The unique reading under which
//! *all* of the paper's worked examples hold is:
//!
//! * the **element** condition `a^{\σ\} ⊆ z` requires a **non-empty**
//!   subset — a witness must actually pin part of `z`;
//! * the **scope** condition `s^{\σ\} ⊆ w` is a plain subset — the empty
//!   constraint (classical scope) is satisfiable by any `w`.
//!
//! This is validated end-to-end by the Appendix A/B reproduction tests.
//!
//! # Pinned positions
//!
//! A restriction is a set given by a property, and the property only
//! constrains the positions σ names: a witness `a^{\σ\}` carries σ's
//! output scopes and nothing else. Deciding the restriction is then a
//! membership question per candidate member — is the element it holds at
//! a pinned scope one some witness holds there? So [`WitnessSet`] keeps,
//! for each scope its single-member witnesses carry, the elements they
//! carry at it as one sorted key slice, read out of each witness in place.
//!
//! Members order scope first, so a candidate's members at a pinned scope
//! are one contiguous run at a known place — for a pair `⟨k, v⟩ =
//! {k^1, v^2}` position 1 always leads — and within one outer-scope run of
//! `R` the candidates ascend by their leading member. A candidate whose
//! leading member sits at a pinned scope, and is its only member there, is
//! therefore decided by a [`Cursor`] that steps through that scope's keys
//! as the candidates go: one merge of `R` against the keys per run, with
//! no hash and no search. Every other candidate — a non-leading pin
//! (σ = ⟨2⟩ over pairs), two members at the pinned scope (`{k'^1, k^1}`,
//! where one not the least of them can still match), members below it
//! (`{a^0, k^1}`), an atom — is probed member by member: a handful of
//! witnesses are compared with each key, more are hashed, chosen once per
//! call.

use crate::ops::rescope::rescope_value_by_element;
use crate::set::{cmp_scopes, members_subset, ExtendedSet, Member, SetBuilder};
use crate::value::Value;
use std::cmp::Ordering;
use std::collections::HashSet;
use std::sync::OnceLock;

/// `R |_σ A` (Definition 7.6).
pub fn sigma_restrict(r: &ExtendedSet, sigma: &ExtendedSet, a: &ExtendedSet) -> ExtendedSet {
    let witnesses = restriction_witnesses(sigma, a);
    if witnesses.is_empty() {
        return ExtendedSet::empty();
    }
    let mut cursor = witnesses.cursor();
    let kept = r
        .members()
        .iter()
        .filter(|&m| cursor.matches(m))
        .cloned()
        .collect();
    // Filtering a canonical list keeps it sorted and unique.
    ExtendedSet::from_sorted_unique(kept)
}

/// Up to this many singleton witnesses, a candidate member at a pinned
/// scope the cursor does not decide is compared with each key there; past
/// it, it costs one hash probe instead. The comparisons grow with the
/// witness count and the probe does not: on EXPERIMENTS.md E7's σ = ⟨2⟩
/// rows over 20 000 pairs the two cross near this count. E7 straddles
/// this line with its own copy, `xst-bench`'s `experiments::E7_WALK_MAX`,
/// and `tests/differential.rs` with another; a test beside each reads it
/// back out of this line.
const WALK_MAX: usize = 6;

/// Pre-computed `(a^{\σ\}, s^{\σ\})` witness pairs for a restriction,
/// partitioned for matching speed; reused by the fused image operator.
///
/// The overwhelmingly common witness shape — a single re-scoped member with
/// no scope constraint (every equality selection) — is kept as a sorted
/// key slice per scope it pins. A [`Cursor`] reads the candidates'
/// scope-first order against those slices (see the module docs); what it
/// does not decide is probed, by comparison for a few witnesses and by
/// hash for many. Everything else falls back to the general subset test.
pub(crate) struct WitnessSet {
    /// One entry per scope the single-member witnesses pin — for σ = ⟨1⟩
    /// one, scope 1, holding every key.
    pinned: Vec<Pin>,
    /// More than [`WALK_MAX`] single-member witnesses: a probe hashes
    /// instead of comparing each key. Chosen once per call.
    hash: bool,
    /// General witnesses: `(a^{\σ\}, s^{\σ\})` pairs.
    general: Vec<(ExtendedSet, ExtendedSet)>,
}

/// The elements single-member witnesses carry at one scope.
struct Pin {
    scope: Value,
    /// Ascending and unique: what the cursor steps.
    keys: Vec<Value>,
    /// `keys` hashed, built the first time a probe needs them — a
    /// restriction the cursor decides whole never builds them. Keyed by
    /// std's `RandomState`, since witnesses can arrive over the wire.
    hashed: OnceLock<HashSet<Value>>,
}

impl Pin {
    /// Does some witness carry `element` at this scope?
    #[inline]
    fn holds(&self, element: &Value, hash: bool) -> bool {
        if hash {
            self.hashed
                .get_or_init(|| self.keys.iter().cloned().collect())
                .contains(element)
        } else {
            // Ascending: the first key not below `element` decides.
            self.keys
                .iter()
                .map(|key| key.cmp(element))
                .find(|order| order.is_ge())
                == Some(Ordering::Equal)
        }
    }
}

/// Two scopes compared as a member order compares them: positions and
/// `∅`s inline.
fn same_scope(a: &Value, b: &Value) -> bool {
    cmp_scopes(a, b) == Ordering::Equal
}

/// The members of `v` read as a set (an atom has none), borrowed.
fn members_of(v: &Value) -> &[Member] {
    match v {
        Value::Set(s) => s.members(),
        _ => &[],
    }
}

impl WitnessSet {
    /// No witness can match anything.
    pub(crate) fn is_empty(&self) -> bool {
        self.pinned.is_empty() && self.general.is_empty()
    }

    /// A cursor over this restriction's candidates, to be fed one
    /// canonical slice of `R` in order: a whole set, or one chunk of it.
    pub(crate) fn cursor<'r>(&self) -> Cursor<'_, 'r> {
        Cursor {
            witnesses: self,
            run: None,
            pin: 0,
            at: 0,
        }
    }

    /// Does some member of `z` sit at a pinned scope and hold a key there?
    #[inline]
    fn probe(&self, z: &[Member]) -> bool {
        z.iter().any(|zm| {
            self.pinned
                .iter()
                .any(|pin| same_scope(&pin.scope, &zm.scope) && pin.holds(&zm.element, self.hash))
        })
    }

    /// Does a general witness hold inside the candidate `z^w`?
    fn general_matches(&self, z: &[Member], w: &Value) -> bool {
        !self.general.is_empty() && {
            let w = members_of(w);
            self.general.iter().any(|(a_r, s_r)| {
                members_subset(a_r.members(), z) && members_subset(s_r.members(), w)
            })
        }
    }
}

/// Matches the members of `R` against a [`WitnessSet`] in canonical
/// order. Within one outer-scope run of `R` the candidates ascend by their
/// leading member, so the cursor's place in a pinned scope's keys only
/// moves forward; it starts over when the run, or the leading scope,
/// changes.
pub(crate) struct Cursor<'w, 'r> {
    witnesses: &'w WitnessSet,
    /// The outer scope of the run of `R` the cursor is in.
    run: Option<&'r Value>,
    /// The pin (an index into `pinned`) the cursor steps through, and its
    /// place among that pin's keys.
    pin: usize,
    at: usize,
}

impl<'r> Cursor<'_, 'r> {
    /// Does the next member of `R` satisfy the restriction condition for
    /// any witness? Members must come in canonical order.
    pub(crate) fn matches(&mut self, m: &'r Member) -> bool {
        let witnesses = self.witnesses;
        let z = members_of(&m.element);
        let hit = match z.split_first() {
            None => false,
            Some((lead, rest)) => {
                match witnesses
                    .pinned
                    .iter()
                    .position(|pin| same_scope(&pin.scope, &lead.scope))
                {
                    // Not pinned: the lead is one comparison per pin.
                    None => witnesses.probe(rest),
                    // The only member at its scope: the keys there decide
                    // it, and with one pinned scope no other member of `z`
                    // is pinned.
                    Some(pin)
                        if rest
                            .first()
                            .is_none_or(|next| !same_scope(&next.scope, &lead.scope)) =>
                    {
                        self.step(pin, &m.scope, &lead.element)
                            || (witnesses.pinned.len() > 1 && witnesses.probe(rest))
                    }
                    // Two or more members at the pinned scope.
                    Some(pin) => {
                        witnesses.pinned[pin].holds(&lead.element, witnesses.hash)
                            || witnesses.probe(rest)
                    }
                }
            }
        };
        hit || witnesses.general_matches(z, &m.scope)
    }

    /// Is `key` among `pin`'s keys? Asked in ascending order within the
    /// run of `R` scoped `outer`, so the cursor steps forward from where
    /// the last question left it.
    fn step(&mut self, pin: usize, outer: &'r Value, key: &Value) -> bool {
        let same_run = self.run.is_some_and(|run| same_scope(run, outer));
        if pin != self.pin || !same_run {
            self.pin = pin;
            self.run = Some(outer);
            self.at = 0;
        }
        let keys = &self.witnesses.pinned[pin].keys;
        while let Some(next) = keys.get(self.at) {
            match next.cmp(key) {
                Ordering::Less => self.at += 1,
                Ordering::Equal => return true,
                Ordering::Greater => return false,
            }
        }
        false
    }
}

/// Paper-literal evaluation of `R |_σ A`: every witness is subset-tested
/// against every member, exactly as Definition 7.6 quantifies.
///
/// This is O(|R|·|A|) and exists as the **ablation baseline** for
/// experiment E7 (EXPERIMENTS.md); [`sigma_restrict`] computes the same
/// set through the partitioned witness structure. The two are asserted
/// equal by property tests and by the experiment harness on every run.
pub fn sigma_restrict_naive(r: &ExtendedSet, sigma: &ExtendedSet, a: &ExtendedSet) -> ExtendedSet {
    let witnesses: Vec<(ExtendedSet, ExtendedSet)> = a
        .members()
        .iter()
        .filter_map(|am| {
            let a_r = rescope_value_by_element(&am.element, sigma);
            if a_r.is_empty() {
                None
            } else {
                Some((a_r, rescope_value_by_element(&am.scope, sigma)))
            }
        })
        .collect();
    let mut b = SetBuilder::with_capacity(r.card());
    for m in r.members() {
        let z = m.element.as_set_view();
        let w = m.scope.as_set_view();
        if witnesses
            .iter()
            .any(|(a_r, s_r)| a_r.is_subset(&z) && s_r.is_subset(&w))
        {
            b.member(m.clone());
        }
    }
    b.build()
}

/// A member `element^scope` of `A` read as a witness under σ, without
/// building its re-scoped sets.
enum Witness<'a> {
    /// `element^{\σ\} = ∅`: it can never non-vacuously pin a member of
    /// `R` (see module docs).
    Memberless,
    /// `element^{\σ\}` is the one member `key^scope` and `scope^{\σ\} = ∅`.
    Single { key: &'a Value, scope: &'a Value },
    /// Anything else: matched by the general subset test.
    General,
}

fn read_witness<'a>(element: &'a Value, scope: &Value, sigma: &'a ExtendedSet) -> Witness<'a> {
    // `x^w` for each `x ∈_s element` and `w ∈_s σ`: Definition 7.5 read
    // member by member, stopping at a second distinct one.
    let mut found: Option<(&Value, &Value)> = None;
    for x in members_of(element) {
        for w in sigma.elements_with_scope(&x.scope) {
            match found {
                None => found = Some((&x.element, w)),
                Some(first) if first == (&x.element, w) => {}
                Some(_) => return Witness::General,
            }
        }
    }
    let Some((key, scope_at)) = found else {
        return Witness::Memberless;
    };
    let constrained = members_of(scope)
        .iter()
        .any(|s| sigma.elements_with_scope(&s.scope).next().is_some());
    if constrained {
        Witness::General
    } else {
        Witness::Single {
            key,
            scope: scope_at,
        }
    }
}

/// Build the witness structure for `R |_σ A`.
pub(crate) fn restriction_witnesses(sigma: &ExtendedSet, a: &ExtendedSet) -> WitnessSet {
    let mut pinned: Vec<Pin> = Vec::new();
    let mut general = Vec::new();
    // Counted as the witnesses come, before equal ones merge.
    let mut singletons = 0;
    for am in a.members() {
        match read_witness(&am.element, &am.scope, sigma) {
            Witness::Memberless => {}
            Witness::Single { key, scope } => {
                singletons += 1;
                let at = match pinned.iter().position(|pin| pin.scope == *scope) {
                    Some(at) => at,
                    None => {
                        pinned.push(Pin {
                            scope: scope.clone(),
                            keys: Vec::with_capacity(a.card()),
                            hashed: OnceLock::new(),
                        });
                        pinned.len() - 1
                    }
                };
                pinned[at].keys.push(key.clone());
            }
            Witness::General => general.push((
                rescope_value_by_element(&am.element, sigma),
                rescope_value_by_element(&am.scope, sigma),
            )),
        }
    }
    for pin in &mut pinned {
        // Witnesses in `A`'s order pin their keys in order already when
        // they share an outer scope, as one-tuples `⟨k⟩` do.
        if !pin.keys.is_sorted() {
            pin.keys.sort_unstable();
        }
        pin.keys.dedup();
    }
    WitnessSet {
        pinned,
        hash: singletons > WALK_MAX,
        general,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::boolean::union;
    use crate::{xset, xtuple};

    /// Appendix B: f |_⟨1⟩ {⟨a⟩} keeps only the tuple starting with `a`.
    #[test]
    fn appendix_b_restriction() {
        let f = xset![
            xtuple!["a", "a", "a", "b", "b"].into_value(),
            xtuple!["b", "b", "a", "a", "b"].into_value()
        ];
        let a = xset![xtuple!["a"].into_value()];
        let sigma1 = xtuple![1];
        assert_eq!(
            sigma_restrict(&f, &sigma1, &a),
            xset![xtuple!["a", "a", "a", "b", "b"].into_value()]
        );
    }

    /// Restriction on the second position (the inverse direction of
    /// Example 8.1): σ = ⟨2⟩ looks the witness up at position 2.
    #[test]
    fn restrict_on_second_position() {
        let f = xset![
            ExtendedSet::pair("a", "x").into_value(),
            ExtendedSet::pair("b", "y").into_value(),
            ExtendedSet::pair("c", "x").into_value()
        ];
        let a = xset![xtuple!["x"].into_value()];
        let got = sigma_restrict(&f, &xtuple![2], &a);
        assert_eq!(
            got,
            xset![
                ExtendedSet::pair("a", "x").into_value(),
                ExtendedSet::pair("c", "x").into_value()
            ]
        );
    }

    /// The scope condition `s^{\σ\} ⊆ w` constrains when the witness carries
    /// a scoped membership (Example 8.1 shape).
    #[test]
    fn scope_condition_constrains() {
        // R has one pair scoped ⟨A,Z⟩ and one scoped ⟨B,Y⟩.
        let r = xset![
            ExtendedSet::pair("a", "x").into_value() => xtuple!["A", "Z"].into_value(),
            ExtendedSet::pair("b", "x").into_value() => xtuple!["B", "Y"].into_value()
        ];
        // Witness ⟨x⟩ carried with scope ⟨Z⟩ at position 2.
        let a = xset![xtuple!["x"].into_value() => xtuple!["Z"].into_value()];
        let got = sigma_restrict(&r, &xtuple![2], &a);
        assert_eq!(
            got,
            xset![ExtendedSet::pair("a", "x").into_value() => xtuple!["A", "Z"].into_value()]
        );
    }

    /// A memberless witness (atom or ∅) never matches — the non-vacuity
    /// reading that keeps Example 8.1's `f_(σ)` a function.
    #[test]
    fn memberless_witness_matches_nothing() {
        let f = xset![ExtendedSet::pair("a", "x").into_value()];
        let atom_witness = xset!["q" => 99];
        assert!(sigma_restrict(&f, &xtuple![1], &atom_witness).is_empty());
        let empty_witness = xset![Value::empty_set()];
        assert!(sigma_restrict(&f, &xtuple![1], &empty_witness).is_empty());
    }

    /// A witness whose scopes are not in σ's scopes re-scopes to ∅ and is
    /// likewise rejected.
    #[test]
    fn unmapped_witness_matches_nothing() {
        let f = xset![ExtendedSet::pair("a", "x").into_value()];
        let a = xset![xset!["a" => 99].into_value()];
        assert!(sigma_restrict(&f, &xtuple![1], &a).is_empty());
    }

    #[test]
    fn restriction_is_a_subset_of_r() {
        let f = xset![
            ExtendedSet::pair("a", "x").into_value(),
            ExtendedSet::pair("b", "y").into_value()
        ];
        let a = xset![xtuple!["a"].into_value()];
        let got = sigma_restrict(&f, &xtuple![1], &a);
        assert!(got.is_subset(&f));
    }

    #[test]
    fn restriction_by_union_is_union_of_restrictions() {
        let f = xset![
            ExtendedSet::pair("a", "x").into_value(),
            ExtendedSet::pair("b", "y").into_value(),
            ExtendedSet::pair("c", "z").into_value()
        ];
        let a1 = xset![xtuple!["a"].into_value()];
        let a2 = xset![xtuple!["b"].into_value()];
        let s1 = xtuple![1];
        assert_eq!(
            sigma_restrict(&f, &s1, &union(&a1, &a2)),
            union(&sigma_restrict(&f, &s1, &a1), &sigma_restrict(&f, &s1, &a2))
        );
    }

    #[test]
    fn empty_inputs() {
        let f = xset![ExtendedSet::pair("a", "x").into_value()];
        let a = xset![xtuple!["a"].into_value()];
        assert!(sigma_restrict(&ExtendedSet::empty(), &xtuple![1], &a).is_empty());
        assert!(sigma_restrict(&f, &xtuple![1], &ExtendedSet::empty()).is_empty());
        assert!(sigma_restrict(&f, &ExtendedSet::empty(), &a).is_empty());
    }

    /// Multi-position witnesses: σ = ⟨1,2⟩ requires both components.
    #[test]
    fn multi_position_witness() {
        let f = xset![
            xtuple!["a", "x", "p"].into_value(),
            xtuple!["a", "y", "q"].into_value()
        ];
        let a = xset![xtuple!["a", "x"].into_value()];
        let got = sigma_restrict(&f, &xtuple![1, 2], &a);
        assert_eq!(got, xset![xtuple!["a", "x", "p"].into_value()]);
    }

    /// `R |_⟨1⟩ A` is `want`, and so is Definition 7.6 taken literally —
    /// with `A` as given, and with keys no candidate holds added past
    /// [`WALK_MAX`], so that what the cursor leaves is hashed.
    fn assert_restricts(r: &ExtendedSet, a: &ExtendedSet, want: &ExtendedSet) {
        let sigma = xtuple![1];
        let filler = (0..=WALK_MAX as i64).map(|j| xtuple![1000 + j].into_value());
        let padded = union(a, &ExtendedSet::classical(filler));
        for a in [a, &padded] {
            assert_eq!(&sigma_restrict(r, &sigma, a), want, "A = {a:?}");
            assert_eq!(&sigma_restrict_naive(r, &sigma, a), want, "A = {a:?}");
        }
    }

    /// A candidate with two members at the pinned scope leads with the
    /// smaller; the witness `⟨5⟩` matches it through the second.
    #[test]
    fn cursor_keeps_a_candidate_through_its_second_member_at_the_pinned_scope() {
        let two_at_one = xset![3 => 1, 5 => 1].into_value();
        let r = xset![
            ExtendedSet::pair(3, "x").into_value(),
            two_at_one.clone(),
            ExtendedSet::pair(4, "y").into_value(),
            ExtendedSet::pair(5, "z").into_value(),
            ExtendedSet::pair(6, "w").into_value()
        ];
        let a = xset![xtuple![5].into_value()];
        let want = xset![two_at_one, ExtendedSet::pair(5, "z").into_value()];
        assert_restricts(&r, &a, &want);
    }

    /// The same pairs under two outer scopes: the cursor passed `⟨3⟩` in
    /// the first run and must start over in the second.
    #[test]
    fn cursor_starts_over_at_each_outer_scope() {
        let r = xset![
            ExtendedSet::pair(3, "x").into_value() => "p",
            ExtendedSet::pair(5, "z").into_value() => "p",
            ExtendedSet::pair(3, "x").into_value() => "q",
            ExtendedSet::pair(5, "z").into_value() => "q"
        ];
        let a = xset![xtuple![3].into_value(), xtuple![5].into_value()];
        assert_restricts(&r, &a, &r);
    }

    /// A member below the pinned scope leads `{a^0, 5^1}`: the candidate
    /// is probed, not stepped.
    #[test]
    fn cursor_leaves_a_candidate_led_below_the_pinned_scope() {
        let below = xset!["a" => 0, 5 => 1].into_value();
        let r = xset![
            below.clone(),
            ExtendedSet::pair(4, "y").into_value(),
            ExtendedSet::pair(5, "z").into_value()
        ];
        let a = xset![xtuple![5].into_value()];
        let want = xset![below, ExtendedSet::pair(5, "z").into_value()];
        assert_restricts(&r, &a, &want);
    }

    /// An atom and `∅` have no leading member and match nothing.
    #[test]
    fn cursor_passes_over_atoms_and_the_empty_set() {
        let r = xset![
            "atom",
            Value::empty_set(),
            ExtendedSet::pair(5, "z").into_value()
        ];
        let a = xset![xtuple![5].into_value()];
        assert_restricts(&r, &a, &xset![ExtendedSet::pair(5, "z").into_value()]);
    }

    /// Set-valued keys, the witnesses' built apart from the candidates':
    /// the cursor compares them by order, not by pointer.
    #[test]
    fn cursor_matches_nested_keys_built_apart() {
        let key = |i: i64| ExtendedSet::pair("k", i).into_value();
        let r = ExtendedSet::classical((0..6).map(|i| ExtendedSet::pair(key(i), i).into_value()));
        let a = xset![xtuple![key(1)].into_value(), xtuple![key(4)].into_value()];
        let want = xset![
            ExtendedSet::pair(key(1), 1).into_value(),
            ExtendedSet::pair(key(4), 4).into_value()
        ];
        assert_restricts(&r, &a, &want);
    }

    use crate::value::Value;
}
