//! Processes — *functions as set behavior* (§2–§4, §8, §11).
//!
//! A [`Process`] is the pair `f_(σ)` of a carrier set `f` (the "graph") and
//! a process scope `σ = ⟨σ1, σ2⟩`. It is **not** a set: it denotes a
//! behavior, realized only when *applied* (Definition 8.1):
//!
//! ```text
//! f_(σ)(x) = f[x]_σ = 𝔇_σ2( f |_σ1 x )
//! ```
//!
//! Applying a process to a *set* yields a set; applying it to another
//! *process* (Definition 4.1, nested application) yields a process:
//!
//! ```text
//! f_(σ)(g_(ω)) = ( f[g]_σ )_(ω)
//! ```
//!
//! Chains of applications are ambiguous without bracketing (Examples
//! 4.1/4.2); [`Interpretation`] enumerates every legal bracketing (their
//! count is the Catalan number: 2, 5, 14, 42, ... — the figures quoted in
//! the paper), and Appendix A's counterexample showing two bracketings with
//! different non-empty results is reproduced in the integration tests.
//!
//! Composition (Definition 11.1, Theorem 11.2) is provided in two forms:
//! [`Process::compose_raw`] is the paper-literal relative-product form where
//! the caller engineers all scopes, and [`Process::compose`] constructs
//! collision-free scopes automatically so that the semantic law
//! `(g ∘ f)(x) = g(f(x))` holds (validated by property tests).

use crate::error::{XstError, XstResult};
use crate::ops::domain::sigma_domain;
use crate::ops::image::{image, Scope};
use crate::ops::product::relative_product;
use crate::set::{ExtendedSet, Member, SetBuilder};
use crate::value::Value;
use std::collections::BTreeSet;

/// A process `f_(σ)`: a set behavior, not a set (§2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Process {
    /// The carrier set `f`.
    pub graph: ExtendedSet,
    /// The process scope `σ = ⟨σ1, σ2⟩`.
    pub scope: Scope,
}

impl Process {
    /// Construct `f_(σ)`.
    pub fn new(graph: ExtendedSet, scope: Scope) -> Process {
        Process { graph, scope }
    }

    /// Construct a pair-relation behavior `f_(⟨⟨1⟩,⟨2⟩⟩)` — the scope used
    /// for CST-style functions throughout the paper.
    pub fn pairs(graph: ExtendedSet) -> Process {
        Process::new(graph, Scope::pairs())
    }

    /// Build a pair-relation process directly from `(input, output)` atoms.
    pub fn from_pairs<A: Into<Value>, B: Into<Value>>(
        pairs: impl IntoIterator<Item = (A, B)>,
    ) -> Process {
        Process::pairs(ExtendedSet::classical(
            pairs
                .into_iter()
                .map(|(a, b)| Value::Set(ExtendedSet::pair(a, b))),
        ))
    }

    /// The inverse behavior `f_(⟨σ2,σ1⟩)` (Example 8.1: `f_(τ)`).
    pub fn inverse(&self) -> Process {
        Process::new(self.graph.clone(), self.scope.flipped())
    }

    /// Application (Definition 8.1): `f_(σ)(x) = f[x]_σ`.
    pub fn apply(&self, x: &ExtendedSet) -> ExtendedSet {
        image(&self.graph, x, &self.scope)
    }

    /// Apply to a single classical element wrapped as `{⟨v⟩}` and extract
    /// the unique classical value of the result — the CST view of Theorem
    /// 9.10: `f(x) = 𝒱(f_(σ)({⟨x⟩}))`.
    pub fn apply_value(&self, v: &Value) -> XstResult<Value> {
        let input = ExtendedSet::classical([Value::Set(ExtendedSet::tuple([v.clone()]))]);
        crate::ops::value_of::value(&self.apply(&input))
    }

    /// Nested application (Definition 4.1):
    /// `f_(σ)(g_(ω)) = (f[g]_σ)_(ω)` — a process, not a set.
    pub fn apply_to_process(&self, g: &Process) -> Process {
        Process::new(self.apply(&g.graph), g.scope.clone())
    }

    /// `𝔇_σ1(f)` — the process's domain projection.
    pub fn domain(&self) -> ExtendedSet {
        sigma_domain(&self.graph, &self.scope.sigma1)
    }

    /// `𝔇_σ2(f)` — the process's codomain projection.
    pub fn codomain(&self) -> ExtendedSet {
        sigma_domain(&self.graph, &self.scope.sigma2)
    }

    /// Is `(f, σ)` a process at all (Definition 2.1)? Requires some input
    /// with non-empty image, hereditarily for every non-empty subset of the
    /// carrier — equivalent to: every member of `f` contributes a non-empty
    /// σ-projection on both sides.
    pub fn is_process(&self) -> bool {
        !self.graph.is_empty()
            && self.graph.members().iter().all(|m| {
                let sub = ExtendedSet::from_sorted_unique(vec![m.clone()]);
                !sigma_domain(&sub, &self.scope.sigma1).is_empty()
                    && !sigma_domain(&sub, &self.scope.sigma2).is_empty()
            })
    }

    /// The *minimal singleton probes* of this behavior: every one-member
    /// input set `{e^p}` that can non-vacuously match the restriction
    /// (element `e` drawn from a carrier member at a σ1-mapped position
    /// `p`). Any singleton input's image is contained in some minimal
    /// probe's image, so quantifications over `Sing(y)` (Definitions 6.3,
    /// 8.2) reduce to these probes.
    pub fn singleton_probes(&self) -> Vec<ExtendedSet> {
        let mut probes: BTreeSet<(Value, Value)> = BTreeSet::new();
        // For each input position p (a scope of σ1) collect the graph
        // positions it maps to, then harvest every element at those
        // positions.
        let sigma1 = &self.scope.sigma1;
        let positions: BTreeSet<&Value> = sigma1.members().iter().map(|m| &m.scope).collect();
        for p in positions {
            let graph_positions: Vec<&Value> = sigma1.elements_with_scope(p).collect();
            for zm in self.graph.members() {
                let z = zm.element.as_set_view();
                for gp in &graph_positions {
                    for e in z.elements_with_scope(gp) {
                        probes.insert((e.clone(), (*p).clone()));
                    }
                }
            }
        }
        probes
            .into_iter()
            .map(|(e, p)| {
                ExtendedSet::singleton_classical(Value::Set(ExtendedSet::singleton(e, p)))
            })
            .collect()
    }

    /// Is the behavior a *function* (Definition 8.2): every singleton input
    /// with non-empty image has a singleton image?
    pub fn is_function(&self) -> bool {
        self.singleton_probes().iter().all(|y| {
            let img = self.apply(y);
            img.is_empty() || img.is_singleton()
        })
    }

    /// Like [`Process::is_function`] but reports the offending input.
    pub fn check_function(&self) -> XstResult<()> {
        for y in self.singleton_probes() {
            let img = self.apply(&y);
            if !img.is_empty() && !img.is_singleton() {
                return Err(XstError::NotAFunction {
                    input: format!("{y}"),
                    image_len: img.card(),
                });
            }
        }
        Ok(())
    }

    /// One-to-one over the minimal singleton probes (Definition 6.3
    /// restricted to domain singletons; see the module docs of
    /// [`crate::spaces`] for why the quantifier is relativized).
    pub fn is_one_to_one(&self) -> bool {
        let probes = self.singleton_probes();
        let mut seen: Vec<(ExtendedSet, &ExtendedSet)> = Vec::new();
        for y in &probes {
            let img = self.apply(y);
            if img.is_empty() {
                continue;
            }
            if let Some((_, prev)) = seen.iter().find(|(i, _)| i == &img) {
                if prev != &y {
                    return false;
                }
            } else {
                seen.push((img, y));
            }
        }
        true
    }

    /// Does some singleton input map to more than one output member
    /// (one-to-many association, the disqualifier for function spaces)?
    pub fn is_one_to_many(&self) -> bool {
        !self.is_function()
    }

    /// Do two distinct singleton inputs share an output (many-to-one)?
    pub fn is_many_to_one(&self) -> bool {
        !self.is_one_to_one()
    }

    /// Process equality (Definition 2.2) checked extensionally over a probe
    /// set: `f_(σ) = g_(ω) ⟺ ∀x f_(σ)(x) = g_(ω)(x)`.
    ///
    /// The probe set defaults (in [`Process::equivalent`]) to the union of
    /// both processes' minimal singleton probes plus `∅`; by additivity of
    /// application over union (Consequence 8.1(a)) agreement on singletons
    /// extends to all inputs whose members are covered by the probes.
    pub fn equivalent_on(&self, other: &Process, probes: &[ExtendedSet]) -> bool {
        probes.iter().all(|x| self.apply(x) == other.apply(x))
    }

    /// Process equality over both processes' canonical probe sets.
    pub fn equivalent(&self, other: &Process) -> bool {
        let mut probes = self.singleton_probes();
        probes.extend(other.singleton_probes());
        probes.push(ExtendedSet::empty());
        probes.sort();
        probes.dedup();
        self.equivalent_on(other, &probes)
    }

    /// The identity behavior `I_A` on a set of k-tuples (Appendix B): carrier
    /// `{t·t : t ∈ A}` with scope `⟨⟨1..k⟩, ⟨k+1..2k⟩⟩`.
    pub fn identity_on(a: &ExtendedSet) -> XstResult<Process> {
        let mut arity: Option<usize> = None;
        let mut b = SetBuilder::with_capacity(a.card());
        for (v, _) in a.iter() {
            let t = v.as_set_view();
            let k = t.tuple_len().ok_or_else(|| XstError::NotATuple {
                value: format!("{v}"),
            })?;
            match arity {
                None => arity = Some(k),
                Some(prev) if prev == k => {}
                Some(prev) => {
                    return Err(XstError::NotComposable {
                        reason: format!("identity_on: mixed tuple arities {prev} and {k}"),
                    })
                }
            }
            let doubled = crate::ops::product::concat(&t, &t)?;
            b.classical_elem(Value::Set(doubled));
        }
        let k = arity.unwrap_or(1) as i64;
        Ok(Process::new(
            b.build(),
            Scope::positional(
                &(1..=k).collect::<Vec<_>>(),
                &(k + 1..=2 * k).collect::<Vec<_>>(),
            ),
        ))
    }

    /// Paper-literal composition (Definition 11.1):
    /// `g_(ω) ∘ f_(σ) = ( f /^{⟨ω1,ω2⟩}_{⟨σ1,σ2⟩} g )_(⟨σ1,ω2⟩)`.
    ///
    /// All scope engineering is the caller's: as §9 notes, the scoped
    /// formulation "replaces old challenges with new ones" — the σ/ω pairs
    /// must be chosen so kept scopes do not collide (the §10 recipes show
    /// how). For an automatic, law-abiding composition use
    /// [`Process::compose`].
    pub fn compose_raw(g: &Process, f: &Process) -> Process {
        let h = relative_product(&f.graph, &f.scope, &g.graph, &g.scope);
        Process::new(
            h,
            Scope::new(f.scope.sigma1.clone(), g.scope.sigma2.clone()),
        )
    }

    /// Scope-engineered composition `g_(ω) ∘ f_(σ)` satisfying
    /// `(g ∘ f)(x) = g(f(x))`.
    ///
    /// Constructs the relative product of Definition 11.1 but re-tags the
    /// kept scopes as `⟨1, p⟩` (f's input positions) and `⟨2, q⟩` (g's
    /// output positions) so they can never collide, then derives the
    /// matching `τ`. Requires both σ1 and ω2 to be *simple* (no duplicate
    /// positions), which is what makes the re-tagging exact; returns
    /// [`XstError::NotComposable`] otherwise.
    pub fn compose(g: &Process, f: &Process) -> XstResult<Process> {
        fn distinct_scopes(spec: &ExtendedSet, what: &str) -> XstResult<Vec<Value>> {
            let mut seen = BTreeSet::new();
            for m in spec.members() {
                if !seen.insert(m.scope.clone()) {
                    return Err(XstError::NotComposable {
                        reason: format!("{what} maps one position twice: {}", m.scope),
                    });
                }
            }
            Ok(seen.into_iter().collect())
        }
        let in_positions = distinct_scopes(&f.scope.sigma1, "σ1")?;
        let out_positions = distinct_scopes(&g.scope.sigma2, "ω2")?;

        // Relative product with re-tagged keep-specs. A keep-spec member
        // (gp ↦ p) becomes (gp ↦ ⟨tag, p⟩).
        let f_keep = ExtendedSet::from_members(
            f.scope
                .sigma1
                .members()
                .iter()
                .map(|m| {
                    Member::new(
                        m.element.clone(),
                        Value::Set(ExtendedSet::pair(Value::Int(1), m.scope.clone())),
                    )
                })
                .collect(),
        );
        let g_keep = ExtendedSet::from_members(
            g.scope
                .sigma2
                .members()
                .iter()
                .map(|m| {
                    Member::new(
                        m.element.clone(),
                        Value::Set(ExtendedSet::pair(Value::Int(2), m.scope.clone())),
                    )
                })
                .collect(),
        );
        let h = relative_product(
            &f.graph,
            &Scope::new(f_keep, f.scope.sigma2.clone()),
            &g.graph,
            &Scope::new(g.scope.sigma1.clone(), g_keep),
        );

        // τ1: input position p is found in h at scope ⟨1, p⟩.
        let tau1 = ExtendedSet::from_pairs(in_positions.into_iter().map(|p| {
            let tagged = Value::Set(ExtendedSet::pair(Value::Int(1), p.clone()));
            (tagged, p)
        }));
        // τ2: output position q is stored in h at scope ⟨2, q⟩.
        let tau2 = ExtendedSet::from_pairs(out_positions.into_iter().map(|q| {
            let tagged = Value::Set(ExtendedSet::pair(Value::Int(2), q.clone()));
            (tagged, q)
        }));
        Ok(Process::new(h, Scope::new(tau1, tau2)))
    }
}

/// Catalan number `C(n)`: the number of legal bracketings of a chain of `n`
/// processes applied to a set (Examples 4.1/4.2 quote 2, 5, 14 and 42 for
/// chains of 2–5 processes).
pub fn interpretation_count(n: u32) -> u64 {
    // C(n) = binom(2n, n) / (n + 1), computed incrementally to avoid
    // overflow for the sizes we care about.
    let mut c: u64 = 1;
    for i in 0..n as u64 {
        c = c * 2 * (2 * i + 1) / (i + 2);
    }
    c
}

/// One bracketing of an application chain: a full binary tree whose leaves
/// are, in order, the processes `p_0 … p_{n-1}` and finally the input set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Interpretation {
    /// Leaf `i`: process `p_i` for `i < n`, the input set for `i = n`.
    Leaf(usize),
    /// `Apply(lhs, rhs)`: apply the behavior denoted by `lhs` to `rhs`.
    Apply(Box<Interpretation>, Box<Interpretation>),
}

impl Interpretation {
    /// Render with explicit brackets, e.g. `(f(g))(x)`.
    pub fn render(&self, names: &[&str], input: &str) -> String {
        fn go(t: &Interpretation, names: &[&str], input: &str) -> String {
            match t {
                Interpretation::Leaf(i) => {
                    if *i < names.len() {
                        names[*i].to_string()
                    } else {
                        input.to_string()
                    }
                }
                Interpretation::Apply(l, r) => {
                    let ls = go(l, names, input);
                    let rs = go(r, names, input);
                    if matches!(**l, Interpretation::Leaf(_)) {
                        format!("{ls}({rs})")
                    } else {
                        format!("({ls})({rs})")
                    }
                }
            }
        }
        go(self, names, input)
    }
}

/// Enumerate every bracketing of `n` processes applied to one input set —
/// all full binary trees over `n + 1` ordered leaves. The result has
/// [`interpretation_count`]`(n)` elements.
pub fn enumerate_interpretations(n: usize) -> Vec<Interpretation> {
    fn trees(lo: usize, hi: usize) -> Vec<Interpretation> {
        if lo == hi {
            return vec![Interpretation::Leaf(lo)];
        }
        let mut out = Vec::new();
        for split in lo..hi {
            for l in trees(lo, split) {
                for r in trees(split + 1, hi) {
                    out.push(Interpretation::Apply(Box::new(l.clone()), Box::new(r)));
                }
            }
        }
        out
    }
    trees(0, n)
}

/// The result of evaluating an interpretation: a set (the chain consumed the
/// input) or a residual process (it did not — impossible for bracketings
/// produced by [`enumerate_interpretations`], but expressible).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Evaluated {
    /// A realized set.
    Set(ExtendedSet),
    /// A residual behavior.
    Process(Process),
}

impl Evaluated {
    /// Unwrap a set result.
    pub fn into_set(self) -> Option<ExtendedSet> {
        match self {
            Evaluated::Set(s) => Some(s),
            Evaluated::Process(_) => None,
        }
    }
}

/// Evaluate one bracketing of `processes` applied to `input`.
///
/// Leaves `0..processes.len()` denote the processes; the final leaf denotes
/// `input`. Nested application follows Definition 4.1.
pub fn eval_interpretation(
    tree: &Interpretation,
    processes: &[Process],
    input: &ExtendedSet,
) -> XstResult<Evaluated> {
    match tree {
        Interpretation::Leaf(i) => {
            if *i < processes.len() {
                Ok(Evaluated::Process(processes[*i].clone()))
            } else {
                Ok(Evaluated::Set(input.clone()))
            }
        }
        Interpretation::Apply(l, r) => {
            let lhs = eval_interpretation(l, processes, input)?;
            let Evaluated::Process(p) = lhs else {
                return Err(XstError::NotComposable {
                    reason: "left side of an application must be a process".into(),
                });
            };
            match eval_interpretation(r, processes, input)? {
                Evaluated::Set(s) => Ok(Evaluated::Set(p.apply(&s))),
                Evaluated::Process(q) => Ok(Evaluated::Process(p.apply_to_process(&q))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{xset, xtuple};

    fn singleton_tuple(e: &str) -> ExtendedSet {
        ExtendedSet::classical([Value::Set(ExtendedSet::tuple([Value::sym(e)]))])
    }

    #[test]
    fn application_on_pairs() {
        let f = Process::from_pairs([("a", "x"), ("b", "y"), ("c", "x")]);
        assert_eq!(
            f.apply(&singleton_tuple("a")),
            xset![xtuple!["x"].into_value() => Value::empty_set()]
        );
        assert!(f.apply(&singleton_tuple("q")).is_empty());
    }

    #[test]
    fn inverse_behavior_is_relation_not_function() {
        // Example 8.1: f_(σ) is a function; f_(τ) is its non-functional
        // inverse (x has two preimages).
        let f = Process::from_pairs([("a", "x"), ("b", "y"), ("c", "x")]);
        assert!(f.is_function());
        let inv = f.inverse();
        assert!(!inv.is_function());
        let img = inv.apply(&singleton_tuple("x"));
        assert_eq!(img.card(), 2);
    }

    #[test]
    fn check_function_reports_offender() {
        let f = Process::from_pairs([("a", "x"), ("a", "y")]);
        let err = f.check_function().unwrap_err();
        assert!(matches!(err, XstError::NotAFunction { image_len: 2, .. }));
    }

    #[test]
    fn domain_and_codomain_projections() {
        let f = Process::from_pairs([("a", "x"), ("b", "y")]);
        assert_eq!(
            f.domain(),
            xset![
                xtuple!["a"].into_value() => Value::empty_set(),
                xtuple!["b"].into_value() => Value::empty_set()
            ]
        );
        assert_eq!(
            f.codomain(),
            xset![
                xtuple!["x"].into_value() => Value::empty_set(),
                xtuple!["y"].into_value() => Value::empty_set()
            ]
        );
    }

    #[test]
    fn is_process_definition_2_1() {
        let f = Process::from_pairs([("a", "x")]);
        assert!(f.is_process());
        // An empty carrier defines no process.
        assert!(!Process::pairs(ExtendedSet::empty()).is_process());
        // A carrier member invisible to σ breaks the hereditary condition.
        let broken = Process::pairs(xset![ExtendedSet::pair("a", "x").into_value(), "atom"]);
        assert!(!broken.is_process());
    }

    #[test]
    fn apply_value_theorem_9_10() {
        let f = Process::from_pairs([("a", "x"), ("b", "y")]);
        assert_eq!(f.apply_value(&Value::sym("a")).unwrap(), Value::sym("x"));
        assert!(f.apply_value(&Value::sym("q")).is_err());
    }

    #[test]
    fn one_to_one_and_many_to_one() {
        let inj = Process::from_pairs([("a", "x"), ("b", "y")]);
        assert!(inj.is_one_to_one());
        assert!(!inj.is_many_to_one());
        let fold = Process::from_pairs([("a", "x"), ("b", "x")]);
        assert!(!fold.is_one_to_one());
        assert!(fold.is_many_to_one());
        assert!(!fold.is_one_to_many());
    }

    #[test]
    fn process_equality_definition_2_2() {
        // Same behavior, different carrier sets.
        let f = Process::from_pairs([("a", "x"), ("b", "y")]);
        let g = Process::new(
            xset![
                xtuple!["a", "x", "junk"].into_value(),
                xtuple!["b", "y", "junk"].into_value()
            ],
            Scope::positional(&[1], &[2]),
        );
        assert!(f.equivalent(&g));
        let h = Process::from_pairs([("a", "x"), ("b", "z")]);
        assert!(!f.equivalent(&h));
    }

    #[test]
    fn identity_on_appendix_b_domain() {
        let a = xset![xtuple!["a"].into_value(), xtuple!["b"].into_value()];
        let id = Process::identity_on(&a).unwrap();
        assert_eq!(id.apply(&singleton_tuple("a")), singleton_tuple("a"));
        assert_eq!(id.apply(&singleton_tuple("b")), singleton_tuple("b"));
        assert!(id.is_function());
        // g1 = {⟨a,a⟩, ⟨b,b⟩} is the same behavior.
        let g1 = Process::from_pairs([("a", "a"), ("b", "b")]);
        assert!(id.equivalent(&g1));
    }

    #[test]
    fn identity_rejects_mixed_arities() {
        let a = xset![xtuple!["a"].into_value(), xtuple!["b", "c"].into_value()];
        assert!(Process::identity_on(&a).is_err());
    }

    #[test]
    fn nested_application_definition_4_1() {
        // f applied to the process g yields a process whose carrier is
        // f[g]_σ and whose scope is g's.
        let f = Process::from_pairs([("a", "x")]);
        let g = Process::from_pairs([("u", "v")]);
        let fg = f.apply_to_process(&g);
        assert_eq!(fg.scope, g.scope);
        // g's carrier contains ⟨u,v⟩, whose first component u is not in
        // f's domain — empty carrier.
        assert!(fg.graph.is_empty());
    }

    #[test]
    fn compose_law_on_pair_relations() {
        let f = Process::from_pairs([("a", "b"), ("c", "d")]);
        let g = Process::from_pairs([("b", "z"), ("d", "w")]);
        let h = Process::compose(&g, &f).unwrap();
        for e in ["a", "c", "q"] {
            let x = singleton_tuple(e);
            assert_eq!(h.apply(&x), g.apply(&f.apply(&x)), "input {e}");
        }
    }

    #[test]
    fn compose_raw_with_engineered_scopes() {
        // Theorem 11.2 setting with manually disjoint scopes: f keeps its
        // input at position 1, g keeps its output at position 2.
        let f = Process::new(
            xset![ExtendedSet::pair("a", "b").into_value()],
            Scope::new(xset![1 => 1], xset![2 => 1]),
        );
        let g = Process::new(
            xset![ExtendedSet::pair("b", "c").into_value()],
            Scope::new(xset![1 => 1], xset![2 => 2]),
        );
        let h = Process::compose_raw(&g, &f);
        // Carrier is {⟨a,c⟩}; scope ⟨σ1, ω2⟩ reads position 1 in, 2 out.
        assert_eq!(
            h.graph,
            xset![ExtendedSet::pair("a", "c").into_value() => Value::empty_set()]
        );
        let x = singleton_tuple("a");
        let got = h.apply(&x);
        // Output arrives at position 2 (ω2 keeps it there).
        assert_eq!(
            got,
            xset![xset!["c" => 2].into_value() => Value::empty_set()]
        );
    }

    #[test]
    fn compose_rejects_duplicate_positions() {
        let f = Process::new(
            xset![ExtendedSet::pair("a", "b").into_value()],
            Scope::new(xset![1 => 1, 2 => 1], xset![2 => 1]),
        );
        let g = Process::from_pairs([("b", "c")]);
        assert!(Process::compose(&g, &f).is_err());
    }

    #[test]
    fn interpretation_counts_match_paper() {
        // "2 legitimate interpretations" for f g (x); "5 for three";
        // "14 for four and 42 for five".
        assert_eq!(interpretation_count(1), 1);
        assert_eq!(interpretation_count(2), 2);
        assert_eq!(interpretation_count(3), 5);
        assert_eq!(interpretation_count(4), 14);
        assert_eq!(interpretation_count(5), 42);
        for n in 1..=5 {
            assert_eq!(
                enumerate_interpretations(n).len() as u64,
                interpretation_count(n as u32),
                "n = {n}"
            );
        }
    }

    #[test]
    fn interpretation_rendering() {
        let trees = enumerate_interpretations(2);
        let rendered: Vec<String> = trees.iter().map(|t| t.render(&["f", "g"], "x")).collect();
        assert!(rendered.contains(&"f(g(x))".to_string()));
        assert!(rendered.contains(&"(f(g))(x)".to_string()));
    }

    /// Example 4.2 lists the five interpretations of `f_(σ) g_(ω) h_(τ) (x)`
    /// explicitly; the enumerator must produce exactly that list.
    #[test]
    fn example_4_2_lists_all_five_bracketings() {
        let rendered: std::collections::BTreeSet<String> = enumerate_interpretations(3)
            .iter()
            .map(|t| t.render(&["f", "g", "h"], "x"))
            .collect();
        let expected: std::collections::BTreeSet<String> = [
            "f(g(h(x)))",     // (a)
            "f((g(h))(x))",   // (b)
            "(f(g(h)))(x)",   // (c)
            "((f(g))(h))(x)", // (d)
            "(f(g))(h(x))",   // (e)
        ]
        .into_iter()
        .map(String::from)
        .collect();
        assert_eq!(rendered, expected);
    }

    #[test]
    fn eval_interpretation_two_brackets_can_differ() {
        // Minimal shape of Appendix A: f(g(x)) vs (f(g))(x).
        let f = Process::from_pairs([("y", "z"), ("u", "v")]);
        let g = Process::from_pairs([("x", "y")]);
        let input = singleton_tuple("x");
        let trees = enumerate_interpretations(2);
        let results: Vec<ExtendedSet> = trees
            .iter()
            .map(|t| {
                eval_interpretation(t, &[f.clone(), g.clone()], &input)
                    .unwrap()
                    .into_set()
                    .unwrap()
            })
            .collect();
        // f(g(x)) = f({⟨y⟩}) = {⟨z⟩}; (f(g))(x) applies a carrier that no
        // longer matches ⟨x⟩.
        assert!(results.iter().any(|r| !r.is_empty()));
        assert!(results.iter().any(|r| r.is_empty() || r != &results[0]));
    }

    #[test]
    fn interpretation_eval_rejects_set_on_left() {
        // A hand-built tree applying the input to a process is invalid.
        let bad = Interpretation::Apply(
            Box::new(Interpretation::Leaf(1)), // the input leaf
            Box::new(Interpretation::Leaf(0)),
        );
        let f = Process::from_pairs([("a", "b")]);
        let x = singleton_tuple("a");
        assert!(eval_interpretation(&bad, std::slice::from_ref(&f), &x).is_err());
    }
}
