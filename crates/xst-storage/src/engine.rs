//! Record processing, and the set identity it is measured against.
//!
//! * [`RecordEngine`] is the tuple-at-a-time baseline: scan, decode, test,
//!   emit, one record at a time, re-sorting whenever a distinct result is
//!   needed. This is the "record processing" discipline the XST literature
//!   argues against, kept as the independent reference the differential
//!   suites compare the set side to.
//! * [`SetEngine`] loads a stored [`HeapFile`] *once* into its canonical
//!   set identity. It answers no queries itself: a relational operator
//!   over that identity is lowered to a plan in `xst-relational`'s
//!   `algebra` and run by `xst-query`'s plan walker, so selection as
//!   σ-restriction, projection as σ-domain and join as the relative
//!   product are each written once, above this crate.

use crate::bufpool::BufferPool;
use crate::error::{StorageError, StorageResult};
use crate::file::HeapFile;
use crate::record::{Record, Schema};
use xst_core::{ExtendedSet, SetBuilder, Value};

/// A stored table: schema + heap file.
pub struct Table {
    /// Field layout.
    pub schema: Schema,
    /// Record storage.
    pub file: HeapFile,
}

impl Table {
    /// Create an empty table.
    pub fn create(storage: &crate::bufpool::Storage, schema: Schema) -> Table {
        Table {
            schema,
            file: HeapFile::create(storage),
        }
    }

    /// Append records, validating arity.
    pub fn load<'a>(&mut self, records: impl IntoIterator<Item = &'a Record>) -> StorageResult<()> {
        for r in records {
            r.conforms(&self.schema)?;
            self.file.append(r)?;
        }
        self.file.sync()
    }
}

/// Tuple-at-a-time query processing (the baseline).
pub struct RecordEngine<'a> {
    pool: &'a BufferPool,
}

impl<'a> RecordEngine<'a> {
    /// An engine reading through `pool`.
    pub fn new(pool: &'a BufferPool) -> Self {
        RecordEngine { pool }
    }

    /// `SELECT * WHERE field = value`.
    pub fn select(&self, table: &Table, field: &str, value: &Value) -> StorageResult<Vec<Record>> {
        let pos = table.schema.require(field)?;
        let mut out = Vec::new();
        table.file.scan(self.pool, |_, r| {
            if r.get(pos) == Some(value) {
                out.push(r);
            }
            Ok(())
        })?;
        // Set semantics: results are ordered and duplicate-free, matching
        // the set engine's canonical output.
        out.sort();
        out.dedup();
        Ok(out)
    }

    /// `SELECT DISTINCT fields` — per-record projection, sort + dedup at
    /// the end (the record-processing way of getting set semantics back).
    pub fn project(&self, table: &Table, fields: &[&str]) -> StorageResult<Vec<Record>> {
        let positions: Vec<usize> = fields
            .iter()
            .map(|f| table.schema.require(f))
            .collect::<StorageResult<_>>()?;
        let mut out = Vec::new();
        table.file.scan(self.pool, |_, r| {
            let projected: Vec<Value> = positions
                .iter()
                .map(|&p| {
                    r.get(p).cloned().ok_or_else(|| StorageError::Corrupt {
                        reason: format!("record narrower than schema position {p}"),
                    })
                })
                .collect::<StorageResult<_>>()?;
            out.push(Record::new(projected));
            Ok(())
        })?;
        out.sort();
        out.dedup();
        Ok(out)
    }

    /// Equijoin via build + probe, emitting concatenated records.
    pub fn join(
        &self,
        left: &Table,
        right: &Table,
        left_field: &str,
        right_field: &str,
    ) -> StorageResult<Vec<Record>> {
        let lp = left.schema.require(left_field)?;
        let rp = right.schema.require(right_field)?;
        // Build side: hash the right table by key, record at a time.
        let mut build: std::collections::HashMap<Value, Vec<Record>> =
            std::collections::HashMap::new();
        right.file.scan(self.pool, |_, r| {
            if let Some(k) = r.get(rp) {
                build.entry(k.clone()).or_default().push(r);
            }
            Ok(())
        })?;
        let mut out = Vec::new();
        left.file.scan(self.pool, |_, l| {
            if let Some(k) = l.get(lp) {
                if let Some(matches) = build.get(k) {
                    for r in matches {
                        let mut vals = l.values().to_vec();
                        vals.extend(r.values().iter().cloned());
                        out.push(Record::new(vals));
                    }
                }
            }
            Ok(())
        })?;
        out.sort();
        out.dedup();
        Ok(out)
    }

    /// Set-semantics union of two same-schema tables, record style:
    /// concatenate then sort + dedup.
    pub fn union(&self, a: &Table, b: &Table) -> StorageResult<Vec<Record>> {
        check_same_arity(a, b)?;
        let mut out = a.file.read_all(self.pool)?;
        out.extend(b.file.read_all(self.pool)?);
        out.sort();
        out.dedup();
        Ok(out)
    }

    /// Set-semantics intersection, record style: sort one side, binary
    /// search per record of the other.
    pub fn intersect(&self, a: &Table, b: &Table) -> StorageResult<Vec<Record>> {
        check_same_arity(a, b)?;
        let mut bs = b.file.read_all(self.pool)?;
        bs.sort();
        let mut out = Vec::new();
        a.file.scan(self.pool, |_, r| {
            if bs.binary_search(&r).is_ok() {
                out.push(r);
            }
            Ok(())
        })?;
        out.sort();
        out.dedup();
        Ok(out)
    }

    /// Set-semantics difference `a ~ b`, record style.
    pub fn difference(&self, a: &Table, b: &Table) -> StorageResult<Vec<Record>> {
        check_same_arity(a, b)?;
        let mut bs = b.file.read_all(self.pool)?;
        bs.sort();
        let mut out = Vec::new();
        a.file.scan(self.pool, |_, r| {
            if bs.binary_search(&r).is_err() {
                out.push(r);
            }
            Ok(())
        })?;
        out.sort();
        out.dedup();
        Ok(out)
    }
}

fn check_same_arity(a: &Table, b: &Table) -> StorageResult<()> {
    if a.schema.arity() == b.schema.arity() {
        Ok(())
    } else {
        Err(StorageError::SchemaMismatch {
            reason: format!(
                "union-compatible tables required: arity {} vs {}",
                a.schema.arity(),
                b.schema.arity()
            ),
        })
    }
}

/// A table's canonical set identity, with its schema.
pub struct SetEngine {
    identity: ExtendedSet,
    schema: Schema,
}

impl SetEngine {
    /// Load `table` once into its set identity (the only scan this engine
    /// ever performs). The scan runs under the pool's retry policy: a
    /// transient failure mid-scan restarts the load from a fresh builder,
    /// so a retried load never double-counts records.
    pub fn load(table: &Table, pool: &BufferPool) -> StorageResult<SetEngine> {
        let policy = pool.retry_policy();
        let identity = crate::retry::with_retry(&policy, || {
            let mut b = SetBuilder::with_capacity(table.file.record_count());
            table.file.scan(pool, |_, r| {
                b.classical_elem(Value::Set(r.to_tuple()));
                Ok(())
            })?;
            Ok(b.build())
        })?;
        Ok(SetEngine {
            identity,
            schema: table.schema.clone(),
        })
    }

    /// The canonical set identity of the table.
    pub fn identity(&self) -> &ExtendedSet {
        &self.identity
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Convert a result identity back into records (for comparison with the
    /// record engine).
    pub fn to_records(result: &ExtendedSet) -> StorageResult<Vec<Record>> {
        let mut out: Vec<Record> = result
            .iter()
            .map(|(e, _)| {
                e.as_set()
                    .ok_or_else(|| StorageError::SchemaMismatch {
                        reason: format!("{e} is not a record set"),
                    })
                    .and_then(Record::from_tuple)
            })
            .collect::<StorageResult<_>>()?;
        out.sort();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bufpool::Storage;

    fn setup() -> (BufferPool, Table, Table) {
        let storage = Storage::new();
        let mut parts = Table::create(&storage, Schema::new(["pid", "name", "color"]));
        parts
            .load(&[
                Record::new([Value::Int(1), Value::str("bolt"), Value::sym("red")]),
                Record::new([Value::Int(2), Value::str("nut"), Value::sym("green")]),
                Record::new([Value::Int(3), Value::str("cam"), Value::sym("red")]),
            ])
            .unwrap();
        let mut supplies = Table::create(&storage, Schema::new(["sid", "pid", "qty"]));
        supplies
            .load(&[
                Record::new([Value::Int(10), Value::Int(1), Value::Int(100)]),
                Record::new([Value::Int(10), Value::Int(3), Value::Int(50)]),
                Record::new([Value::Int(20), Value::Int(2), Value::Int(5)]),
                Record::new([Value::Int(20), Value::Int(9), Value::Int(7)]),
            ])
            .unwrap();
        (BufferPool::new(storage, 16), parts, supplies)
    }

    // The set side of each operator is `xst-relational`'s lowering; its
    // agreement with the methods below is tested there (`algebra.rs`) and
    // in `tests/differential.rs`.

    #[test]
    fn record_engine_answers_with_set_semantics() {
        let (pool, parts, supplies) = setup();
        let rec = RecordEngine::new(&pool);
        assert_eq!(
            rec.select(&parts, "color", &Value::sym("red"))
                .unwrap()
                .len(),
            2
        );
        assert_eq!(
            rec.project(&parts, &["color"]).unwrap().len(),
            2,
            "distinct colors"
        );
        let joined = rec.join(&supplies, &parts, "pid", "pid").unwrap();
        assert_eq!(joined.len(), 3, "supply rows with matching parts");
        assert!(joined.iter().all(|r| r.values().len() == 6), "3 + 3 fields");
        assert!(rec
            .select(&parts, "color", &Value::sym("puce"))
            .unwrap()
            .is_empty());
        assert!(rec.select(&parts, "bogus", &Value::Int(0)).is_err());
    }

    #[test]
    fn union_requires_compatible_arity() {
        let (pool, parts, supplies) = setup();
        let rec = RecordEngine::new(&pool);
        // Same arity (3), so this succeeds even across "types"...
        assert!(rec.union(&parts, &supplies).is_ok());
        // ...but a genuinely different arity fails.
        let storage = Storage::new();
        let narrow = Table::create(&storage, Schema::new(["x"]));
        assert!(rec.union(&parts, &narrow).is_err());
    }

    #[test]
    fn set_engine_identity_is_canonical_and_round_trips_to_records() {
        let (pool, parts, _) = setup();
        let set = SetEngine::load(&parts, &pool).unwrap();
        assert_eq!(set.identity().card(), 3);
        assert_eq!(set.schema(), &parts.schema);
        // Loading twice yields the identical set (identity is canonical).
        let again = SetEngine::load(&parts, &pool).unwrap();
        assert_eq!(set.identity(), again.identity());
        let mut stored = parts.file.read_all(&pool).unwrap();
        stored.sort();
        assert_eq!(SetEngine::to_records(set.identity()).unwrap(), stored);
    }
}
