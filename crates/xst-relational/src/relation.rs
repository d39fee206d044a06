//! Relations as extended sets.
//!
//! A relation is a named-column view over a classical set of positional
//! tuples — exactly the embedding the 1977 paper proposes for the
//! relational model: the *data* is an [`ExtendedSet`] (so every relational
//! operation is an XST operation), the schema is presentation.

use std::fmt;
use xst_core::{ExtendedSet, SetBuilder, Value, XstError, XstResult};

/// An ordered list of column names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelSchema {
    columns: Vec<String>,
}

impl RelSchema {
    /// Build from column names. Duplicate names are rejected.
    pub fn new<S: Into<String>>(columns: impl IntoIterator<Item = S>) -> XstResult<RelSchema> {
        let columns: Vec<String> = columns.into_iter().map(Into::into).collect();
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].contains(c) {
                return Err(XstError::NotComposable {
                    reason: format!("duplicate column name {c}"),
                });
            }
        }
        Ok(RelSchema { columns })
    }

    /// Column names in order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Zero-based position of `name`.
    pub fn position(&self, name: &str) -> XstResult<usize> {
        self.columns
            .iter()
            .position(|c| c == name)
            .ok_or_else(|| XstError::NotComposable {
                reason: format!("no column named {name}"),
            })
    }
}

/// A relation: schema + canonical set identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    schema: RelSchema,
    identity: ExtendedSet,
}

impl Relation {
    /// Build from rows, validating arity.
    pub fn from_rows(
        schema: RelSchema,
        rows: impl IntoIterator<Item = Vec<Value>>,
    ) -> XstResult<Relation> {
        let mut b = SetBuilder::new();
        for row in rows {
            if row.len() != schema.arity() {
                return Err(XstError::NotComposable {
                    reason: format!("row arity {} vs schema arity {}", row.len(), schema.arity()),
                });
            }
            b.classical_elem(Value::Set(ExtendedSet::tuple(row)));
        }
        Ok(Relation {
            schema,
            identity: b.build(),
        })
    }

    /// Wrap an existing identity (the result of an algebra operation).
    ///
    /// Every member must be classically scoped and a tuple of the schema's
    /// arity: `{⟨1,2⟩^x}` is an extended set, not a relation, and
    /// [`Relation::rows`] would otherwise read it as the row `⟨1,2⟩`.
    pub fn from_identity(schema: RelSchema, identity: ExtendedSet) -> XstResult<Relation> {
        for (e, s) in identity.iter() {
            let ok = s.is_empty_set()
                && e.as_set()
                    .and_then(ExtendedSet::tuple_len)
                    .is_some_and(|n| n == schema.arity());
            if !ok {
                return Err(XstError::NotComposable {
                    reason: format!("{e}^{s} is not a classical {}-tuple", schema.arity()),
                });
            }
        }
        Ok(Relation { schema, identity })
    }

    /// The schema.
    pub fn schema(&self) -> &RelSchema {
        &self.schema
    }

    /// The canonical set identity.
    pub fn identity(&self) -> &ExtendedSet {
        &self.identity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.identity.card()
    }

    /// True iff the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.identity.is_empty()
    }

    /// Rows in canonical order.
    pub fn rows(&self) -> Vec<Vec<Value>> {
        self.identity
            .iter()
            .filter_map(|(e, _)| e.as_set().and_then(ExtendedSet::as_tuple))
            .collect()
    }

    /// One column's values (with duplicates removed by set semantics of the
    /// projection identity).
    pub fn column(&self, name: &str) -> XstResult<Vec<Value>> {
        let pos = self.schema.position(name)?;
        let mut out: Vec<Value> = self
            .rows()
            .into_iter()
            .map(|mut row| row.swap_remove(pos))
            .collect();
        out.sort();
        out.dedup();
        Ok(out)
    }

    /// Does the relation contain this row?
    pub fn contains_row(&self, row: &[Value]) -> bool {
        self.identity
            .contains_classical(&Value::Set(ExtendedSet::tuple(row.iter().cloned())))
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.schema.columns().join(" | "))?;
        for row in self.rows() {
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            writeln!(f, "{}", cells.join(" | "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parts() -> Relation {
        Relation::from_rows(
            RelSchema::new(["pid", "name", "color"]).unwrap(),
            vec![
                vec![Value::Int(1), Value::str("bolt"), Value::sym("red")],
                vec![Value::Int(2), Value::str("nut"), Value::sym("green")],
            ],
        )
        .unwrap()
    }

    #[test]
    fn schema_rejects_duplicates() {
        assert!(RelSchema::new(["a", "b", "a"]).is_err());
        assert!(RelSchema::new(["a", "b"]).is_ok());
    }

    #[test]
    fn from_rows_validates_arity() {
        let schema = RelSchema::new(["a"]).unwrap();
        assert!(Relation::from_rows(schema, vec![vec![Value::Int(1), Value::Int(2)]]).is_err());
    }

    #[test]
    fn rows_roundtrip() {
        let r = parts();
        assert_eq!(r.len(), 2);
        let rows = r.rows();
        assert!(rows.contains(&vec![Value::Int(1), Value::str("bolt"), Value::sym("red")]));
    }

    #[test]
    fn duplicate_rows_collapse() {
        let schema = RelSchema::new(["a"]).unwrap();
        let r = Relation::from_rows(
            schema,
            vec![
                vec![Value::Int(1)],
                vec![Value::Int(1)],
                vec![Value::Int(2)],
            ],
        )
        .unwrap();
        assert_eq!(r.len(), 2, "set semantics");
    }

    #[test]
    fn column_extraction() {
        let r = parts();
        assert_eq!(
            r.column("color").unwrap(),
            vec![Value::sym("green"), Value::sym("red")]
        );
        assert!(r.column("bogus").is_err());
    }

    #[test]
    fn contains_row() {
        let r = parts();
        assert!(r.contains_row(&[Value::Int(1), Value::str("bolt"), Value::sym("red")]));
        assert!(!r.contains_row(&[Value::Int(9), Value::str("x"), Value::sym("y")]));
    }

    #[test]
    fn from_identity_validates_shape() {
        let schema = RelSchema::new(["a", "b"]).unwrap();
        let good = xst_core::xset![ExtendedSet::pair(1, 2).into_value()];
        assert!(Relation::from_identity(schema.clone(), good).is_ok());
        let bad = xst_core::xset!["atom"];
        assert!(Relation::from_identity(schema.clone(), bad).is_err());
        let wrong_arity = xst_core::xset![ExtendedSet::tuple([1, 2, 3]).into_value()];
        assert!(Relation::from_identity(schema.clone(), wrong_arity).is_err());
        // A 2-tuple under a non-∅ scope is not a row.
        let scoped = xst_core::xset![ExtendedSet::pair(1, 2).into_value() => "x"];
        assert!(Relation::from_identity(schema, scoped).is_err());
    }

    #[test]
    fn display_renders_table() {
        let s = parts().to_string();
        assert!(s.contains("pid | name | color"));
        assert!(s.contains("bolt"));
    }
}
