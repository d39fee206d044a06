//! Records and files with *mathematical identity*.
//!
//! The 1977 program's key move: a stored record is not an ad-hoc byte
//! layout but an extended set — an n-tuple `{v1^1, ..., vn^n}` (positional
//! identity) or a field-scoped set `{v^name, ...}` (named identity). A file
//! is then a classical set of record sets, and data management operations
//! are *set* operations with provable algebraic behavior.

use crate::error::{StorageError, StorageResult};
use xst_core::codec::{self, Reader};
use xst_core::{ExtendedSet, SetBuilder, Value};

/// An ordered, named record layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    fields: Vec<String>,
}

impl Schema {
    /// Build a schema from field names.
    pub fn new<S: Into<String>>(fields: impl IntoIterator<Item = S>) -> Schema {
        Schema {
            fields: fields.into_iter().map(Into::into).collect(),
        }
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.fields.len()
    }

    /// Field names in order.
    pub fn fields(&self) -> &[String] {
        &self.fields
    }

    /// Position of `name`, if present.
    pub fn position(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f == name)
    }

    /// Position of `name` or a schema error.
    pub fn require(&self, name: &str) -> StorageResult<usize> {
        self.position(name)
            .ok_or_else(|| StorageError::SchemaMismatch {
                reason: format!("no field named {name}"),
            })
    }
}

/// One record: values aligned with a [`Schema`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Record {
    values: Vec<Value>,
}

impl Record {
    /// Build from values.
    pub fn new(values: impl IntoIterator<Item = Value>) -> Record {
        Record {
            values: values.into_iter().collect(),
        }
    }

    /// The record's values in field order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Value at `position`.
    pub fn get(&self, position: usize) -> Option<&Value> {
        self.values.get(position)
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Check the record against a schema.
    pub fn conforms(&self, schema: &Schema) -> StorageResult<()> {
        if self.arity() == schema.arity() {
            Ok(())
        } else {
            Err(StorageError::SchemaMismatch {
                reason: format!(
                    "record arity {} vs schema arity {}",
                    self.arity(),
                    schema.arity()
                ),
            })
        }
    }

    /// Positional identity: the n-tuple `{v1^1, ..., vn^n}` (Definition 9.1).
    pub fn to_tuple(&self) -> ExtendedSet {
        ExtendedSet::tuple(self.values.iter().cloned())
    }

    /// Recover a record from its positional identity.
    pub fn from_tuple(set: &ExtendedSet) -> StorageResult<Record> {
        set.as_tuple()
            .map(Record::new)
            .ok_or_else(|| StorageError::SchemaMismatch {
                reason: format!("{set} is not an n-tuple"),
            })
    }

    /// Named identity: `{v1^f1, ..., vn^fn}` under `schema`'s field names.
    pub fn to_named(&self, schema: &Schema) -> StorageResult<ExtendedSet> {
        self.conforms(schema)?;
        let mut b = SetBuilder::with_capacity(self.arity());
        for (v, name) in self.values.iter().zip(schema.fields()) {
            b.scoped(v.clone(), Value::sym(name));
        }
        Ok(b.build())
    }

    /// Recover a record from its named identity.
    ///
    /// Duplicate members under one field scope are a schema violation;
    /// missing fields likewise.
    pub fn from_named(set: &ExtendedSet, schema: &Schema) -> StorageResult<Record> {
        let mut values: Vec<Option<Value>> = vec![None; schema.arity()];
        for (elem, scope) in set.iter() {
            let Value::Sym(name) = scope else {
                return Err(StorageError::SchemaMismatch {
                    reason: format!("scope {scope} is not a field name"),
                });
            };
            let pos = schema.require(name)?;
            if values[pos].replace(elem.clone()).is_some() {
                return Err(StorageError::SchemaMismatch {
                    reason: format!("field {name} bound twice"),
                });
            }
        }
        values
            .into_iter()
            .enumerate()
            .map(|(i, v)| {
                v.ok_or_else(|| StorageError::SchemaMismatch {
                    reason: format!("field {} missing", schema.fields()[i]),
                })
            })
            .collect::<StorageResult<Vec<_>>>()
            .map(Record::new)
    }

    /// Encode via the positional identity, in the [`xst_core::codec`]
    /// layout.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        codec::encode_set(&self.to_tuple(), &mut out);
        out
    }

    /// Decode from bytes produced by [`Record::encode`].
    pub fn decode(bytes: &[u8]) -> StorageResult<Record> {
        let mut rd = Reader::new(bytes);
        let s = rd.set()?;
        rd.finish()?;
        Record::from_tuple(&s)
    }
}

/// The file-level identity: a classical set whose elements are the records'
/// positional identities.
pub fn file_identity<'a>(records: impl IntoIterator<Item = &'a Record>) -> ExtendedSet {
    ExtendedSet::classical(records.into_iter().map(|r| Value::Set(r.to_tuple())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xst_core::xset;

    fn schema() -> Schema {
        Schema::new(["id", "name", "qty"])
    }

    fn rec() -> Record {
        Record::new([Value::Int(7), Value::str("bolt"), Value::Int(40)])
    }

    #[test]
    fn schema_lookup() {
        let s = schema();
        assert_eq!(s.arity(), 3);
        assert_eq!(s.position("name"), Some(1));
        assert_eq!(s.position("nope"), None);
        assert!(s.require("qty").is_ok());
        assert!(s.require("nope").is_err());
    }

    #[test]
    fn positional_identity_roundtrip() {
        let r = rec();
        let t = r.to_tuple();
        assert_eq!(t.tuple_len(), Some(3));
        assert_eq!(Record::from_tuple(&t).unwrap(), r);
    }

    #[test]
    fn named_identity_roundtrip() {
        let r = rec();
        let s = schema();
        let named = r.to_named(&s).unwrap();
        assert!(named.contains(&Value::str("bolt"), &Value::sym("name")));
        assert_eq!(Record::from_named(&named, &s).unwrap(), r);
    }

    #[test]
    fn named_identity_is_order_free() {
        // The whole point: the named identity does not depend on field
        // order, so two layouts of the same record are the same set.
        let s1 = Schema::new(["a", "b"]);
        let s2 = Schema::new(["b", "a"]);
        let r1 = Record::new([Value::Int(1), Value::Int(2)]);
        let r2 = Record::new([Value::Int(2), Value::Int(1)]);
        assert_eq!(r1.to_named(&s1).unwrap(), r2.to_named(&s2).unwrap());
    }

    #[test]
    fn from_named_detects_violations() {
        let s = schema();
        let missing = xset![Value::Int(7) => "id"];
        assert!(Record::from_named(&missing, &s).is_err());
        let unknown = xset![Value::Int(7) => "bogus"];
        assert!(Record::from_named(&unknown, &s).is_err());
        let doubled = xset![Value::Int(7) => "id", Value::Int(8) => "id",
            Value::str("x") => "name", Value::Int(1) => "qty"];
        assert!(Record::from_named(&doubled, &s).is_err());
        let bad_scope = xset![Value::Int(7) => 3];
        assert!(Record::from_named(&bad_scope, &s).is_err());
    }

    #[test]
    fn encode_decode_roundtrip() {
        let r = rec();
        assert_eq!(Record::decode(&r.encode()).unwrap(), r);
        assert!(Record::decode(b"garbage").is_err());
    }

    #[test]
    fn conforms_checks_arity() {
        assert!(rec().conforms(&schema()).is_ok());
        assert!(rec().conforms(&Schema::new(["one"])).is_err());
    }

    #[test]
    fn file_identity_dedups_equal_records() {
        let a = rec();
        let b = rec();
        let c = Record::new([Value::Int(8), Value::str("nut"), Value::Int(2)]);
        let f = file_identity([&a, &b, &c]);
        assert_eq!(f.card(), 2, "a and b are the same set");
    }

    #[test]
    fn atom_record_bytes_rejected() {
        let atom_bytes = codec::encode_to_vec(&Value::Int(3));
        assert!(Record::decode(&atom_bytes).is_err());
    }
}
