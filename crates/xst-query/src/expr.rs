//! Logical expressions over the XST operation algebra.
//!
//! An [`Expr`] is a tree of algebra operations over named tables and
//! literal sets. Expressions are what the optimizer rewrites (each rewrite
//! justified by a numbered law of the paper) and what the evaluator
//! executes against a [`Bindings`] environment.

use std::collections::BTreeMap;
use std::fmt;
use xst_core::{ExtendedSet, Scope};

/// Environment mapping table names to materialized extended sets.
pub type Bindings = BTreeMap<String, ExtendedSet>;

/// A logical expression over the XST algebra.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// A literal set.
    Literal(ExtendedSet),
    /// A named table resolved from the [`Bindings`] at evaluation time.
    Table(String),
    /// `A ∪ B`.
    Union(Box<Expr>, Box<Expr>),
    /// `A ∩ B`.
    Intersect(Box<Expr>, Box<Expr>),
    /// `A ~ B`.
    Difference(Box<Expr>, Box<Expr>),
    /// σ-Restriction `R |_σ A` (Definition 7.6).
    Restrict {
        /// The restricted relation.
        r: Box<Expr>,
        /// The restriction spec σ1.
        sigma: ExtendedSet,
        /// The witness set.
        a: Box<Expr>,
    },
    /// σ-Domain `𝔇_σ(R)` (Definition 7.4).
    Domain {
        /// The projected relation.
        r: Box<Expr>,
        /// The projection spec.
        sigma: ExtendedSet,
    },
    /// Image `R[A]_⟨σ1,σ2⟩` (Definition 7.1) — the fused operator.
    Image {
        /// The relation.
        r: Box<Expr>,
        /// The input set.
        a: Box<Expr>,
        /// The process scope.
        scope: Scope,
    },
    /// Relative product (Definition 10.1).
    RelProduct {
        /// Left operand.
        f: Box<Expr>,
        /// Left scope pair `⟨σ1,σ2⟩`.
        sigma: Scope,
        /// Right operand.
        g: Box<Expr>,
        /// Right scope pair `⟨ω1,ω2⟩`.
        omega: Scope,
    },
    /// XST cross product `A ⊗ B` (Definition 9.3).
    Cross(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Literal constructor.
    pub fn lit(s: ExtendedSet) -> Expr {
        Expr::Literal(s)
    }

    /// Table reference constructor.
    pub fn table(name: impl Into<String>) -> Expr {
        Expr::Table(name.into())
    }

    /// `self ∪ other`.
    pub fn union(self, other: Expr) -> Expr {
        Expr::Union(Box::new(self), Box::new(other))
    }

    /// `self ∩ other`.
    pub fn intersect(self, other: Expr) -> Expr {
        Expr::Intersect(Box::new(self), Box::new(other))
    }

    /// `self ~ other`.
    pub fn difference(self, other: Expr) -> Expr {
        Expr::Difference(Box::new(self), Box::new(other))
    }

    /// `self |_σ a`.
    pub fn restrict(self, sigma: ExtendedSet, a: Expr) -> Expr {
        Expr::Restrict {
            r: Box::new(self),
            sigma,
            a: Box::new(a),
        }
    }

    /// `𝔇_σ(self)`.
    pub fn domain(self, sigma: ExtendedSet) -> Expr {
        Expr::Domain {
            r: Box::new(self),
            sigma,
        }
    }

    /// `self[a]_scope`.
    pub fn image(self, a: Expr, scope: Scope) -> Expr {
        Expr::Image {
            r: Box::new(self),
            a: Box::new(a),
            scope,
        }
    }

    /// Relative product with `other`.
    pub fn rel_product(self, sigma: Scope, other: Expr, omega: Scope) -> Expr {
        Expr::RelProduct {
            f: Box::new(self),
            sigma,
            g: Box::new(other),
            omega,
        }
    }

    /// `self ⊗ other`.
    pub fn cross(self, other: Expr) -> Expr {
        Expr::Cross(Box::new(self), Box::new(other))
    }

    /// Is this a literal empty set?
    pub fn is_empty_literal(&self) -> bool {
        matches!(self, Expr::Literal(s) if s.is_empty())
    }

    /// The operand subtrees, in operand order.
    pub(crate) fn children(&self) -> impl Iterator<Item = &Expr> {
        let (first, second): (Option<&Expr>, Option<&Expr>) = match self {
            Expr::Literal(_) | Expr::Table(_) => (None, None),
            Expr::Domain { r, .. } => (Some(r), None),
            Expr::Union(a, b)
            | Expr::Intersect(a, b)
            | Expr::Difference(a, b)
            | Expr::Cross(a, b) => (Some(a), Some(b)),
            Expr::Restrict { r, a, .. } | Expr::Image { r, a, .. } => (Some(r), Some(a)),
            Expr::RelProduct { f, g, .. } => (Some(f), Some(g)),
        };
        first.into_iter().chain(second)
    }

    /// This node over `f` of each operand subtree, in operand order.
    pub fn map_children(self, mut f: impl FnMut(Expr) -> Expr) -> Expr {
        let mut go = |e: Box<Expr>| Box::new(f(*e));
        match self {
            Expr::Literal(_) | Expr::Table(_) => self,
            Expr::Union(a, b) => Expr::Union(go(a), go(b)),
            Expr::Intersect(a, b) => Expr::Intersect(go(a), go(b)),
            Expr::Difference(a, b) => Expr::Difference(go(a), go(b)),
            Expr::Cross(a, b) => Expr::Cross(go(a), go(b)),
            Expr::Restrict { r, sigma, a } => Expr::Restrict {
                r: go(r),
                sigma,
                a: go(a),
            },
            Expr::Domain { r, sigma } => Expr::Domain { r: go(r), sigma },
            Expr::Image { r, a, scope } => Expr::Image {
                r: go(r),
                a: go(a),
                scope,
            },
            Expr::RelProduct { f, sigma, g, omega } => Expr::RelProduct {
                f: go(f),
                sigma,
                g: go(g),
                omega,
            },
        }
    }

    /// Number of nodes in the tree.
    pub fn size(&self) -> usize {
        1 + self.children().map(Expr::size).sum::<usize>()
    }

    /// Names of all referenced tables.
    pub fn tables(&self) -> Vec<&str> {
        let mut out = Vec::new();
        let mut pending = vec![self];
        while let Some(e) = pending.pop() {
            if let Expr::Table(name) = e {
                out.push(name.as_str());
            }
            pending.extend(e.children());
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Literal(s) => {
                if s.card() <= 4 {
                    write!(f, "{s}")
                } else {
                    write!(f, "⟪literal:{} members⟫", s.card())
                }
            }
            Expr::Table(name) => write!(f, "{name}"),
            Expr::Union(a, b) => write!(f, "({a} ∪ {b})"),
            Expr::Intersect(a, b) => write!(f, "({a} ∩ {b})"),
            Expr::Difference(a, b) => write!(f, "({a} ~ {b})"),
            Expr::Restrict { r, sigma, a } => write!(f, "({r} |_{sigma} {a})"),
            Expr::Domain { r, sigma } => write!(f, "𝔇_{sigma}({r})"),
            Expr::Image { r, a, scope } => {
                write!(f, "{r}[{a}]_⟨{}, {}⟩", scope.sigma1, scope.sigma2)
            }
            Expr::RelProduct { f: l, g: r, .. } => write!(f, "({l} / {r})"),
            Expr::Cross(a, b) => write!(f, "({a} ⊗ {b})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xst_core::{xset, xtuple};

    #[test]
    fn builders_compose() {
        let e = Expr::table("f")
            .restrict(xtuple![1], Expr::table("a"))
            .domain(xtuple![2]);
        assert_eq!(e.size(), 4);
        assert_eq!(e.tables(), vec!["a", "f"]);
    }

    #[test]
    fn display_is_readable() {
        let e = Expr::table("f")
            .restrict(xtuple![1], Expr::table("a"))
            .domain(xtuple![2]);
        let s = e.to_string();
        assert!(s.contains("𝔇_"), "{s}");
        assert!(s.contains("f |_"), "{s}");
    }

    #[test]
    fn large_literals_abbreviate() {
        let big = ExtendedSet::classical((0..10).map(xst_core::Value::Int));
        let s = Expr::lit(big).to_string();
        assert!(s.contains("10 members"), "{s}");
        let small = Expr::lit(xset![1, 2]).to_string();
        assert!(small.contains('{'), "{small}");
    }

    #[test]
    fn empty_literal_detection() {
        assert!(Expr::lit(ExtendedSet::empty()).is_empty_literal());
        assert!(!Expr::lit(xset![1]).is_empty_literal());
        assert!(!Expr::table("t").is_empty_literal());
    }

    #[test]
    fn tables_dedup() {
        let e = Expr::table("t").union(Expr::table("t"));
        assert_eq!(e.tables(), vec!["t"]);
    }
}
