//! The relational algebra, lowered to XST plans — once.
//!
//! | relational op | XST plan |
//! |---|---|
//! | selection | image with an identity projection: σ-restriction (Def 7.6) by a witness set |
//! | projection | σ-domain (Def 7.4) |
//! | equijoin | relative product (Def 10.1) |
//! | semijoin | the selection image, witnessed by the other side's projected keys |
//! | antijoin | the left side minus its semijoin |
//! | rename | schema-level (the plan is untouched — names are presentation) |
//! | union/intersection/difference | the boolean nodes over union-compatible operands |
//!
//! Each row is one [`Plan`] method: it resolves column names to tuple
//! positions, builds the σ/ω specs and computes the output columns.
//! [`crate::Query`] folds those methods over a pipeline; the functions
//! over [`Relation`]s below lower literal operands the same way. Either
//! way the plan is evaluated by `xst_query`'s gate and plan walker — this
//! crate calls no kernel that has an [`Expr`] node.

use crate::relation::{RelSchema, Relation};
use xst_core::ops::Scope;
use xst_core::{ExtendedSet, Value, XstError, XstResult};
use xst_query::{Bindings, Expr};

/// A relation not yet computed: its output columns and the plan whose
/// value is its identity.
#[derive(Debug, Clone)]
pub(crate) struct Plan {
    schema: RelSchema,
    expr: Expr,
}

impl Plan {
    /// The relation bound to `name` at evaluation time.
    pub(crate) fn table(name: &str, schema: RelSchema) -> Plan {
        Plan {
            schema,
            expr: Expr::table(name),
        }
    }

    /// An already-computed relation, as a literal.
    pub(crate) fn of(r: &Relation) -> Plan {
        Plan {
            schema: r.schema().clone(),
            expr: Expr::lit(r.identity().clone()),
        }
    }

    pub(crate) fn into_expr(self) -> Expr {
        self.expr
    }

    /// Evaluate through the analysis gate and the plan walker.
    pub(crate) fn eval(self, bindings: &Bindings) -> XstResult<Relation> {
        Relation::from_identity(self.schema, xst_query::eval(&self.expr, bindings)?)
    }

    /// The spec atom for `field`: its one-based tuple position.
    fn at(&self, field: &str) -> XstResult<Value> {
        Ok(Value::Int(self.schema.position(field)? as i64 + 1))
    }

    /// The rows whose `field` is a member of `keys` (a plan of 1-tuples):
    /// one image call matching on `field` and keeping whole rows.
    fn keep_where(self, field: &str, keys: Expr) -> XstResult<Plan> {
        let scope = Scope::new(
            ExtendedSet::tuple([self.at(field)?]),
            identity_spec(self.schema.arity() as i64),
        );
        Ok(Plan {
            expr: self.expr.image(keys, scope),
            schema: self.schema,
        })
    }

    /// `σ_{field ∈ values}` — the witness set carries every wanted key
    /// (Consequence C.1(a) in action).
    pub(crate) fn select_in(self, field: &str, values: &[Value]) -> XstResult<Plan> {
        let witness = ExtendedSet::classical(
            values
                .iter()
                .map(|v| Value::Set(ExtendedSet::tuple([v.clone()]))),
        );
        self.keep_where(field, Expr::lit(witness))
    }

    /// `π_{fields}` (distinct by construction).
    pub(crate) fn project<S: AsRef<str>>(self, fields: &[S]) -> XstResult<Plan> {
        let spec = fields
            .iter()
            .map(|f| self.at(f.as_ref()))
            .collect::<XstResult<Vec<_>>>()?;
        Ok(Plan {
            schema: RelSchema::new(fields.iter().map(|f| f.as_ref().to_string()))?,
            expr: self.expr.domain(ExtendedSet::tuple(spec)),
        })
    }

    /// `self ⋈_{lf = rf} right`: the relative product keeping the left
    /// tuple in place and shifting the right tuple past it (the
    /// Definition 9.2 concatenation shape). Output columns are the left
    /// columns followed by the right columns; colliding names get a
    /// `right_` prefix.
    pub(crate) fn join(self, right: Plan, lf: &str, rf: &str) -> XstResult<Plan> {
        let ln = self.schema.arity() as i64;
        let rn = right.schema.arity() as i64;
        let sigma = Scope::new(
            identity_spec(ln),
            ExtendedSet::from_pairs([(self.at(lf)?, Value::Int(1))]),
        );
        let omega = Scope::new(
            ExtendedSet::from_pairs([(right.at(rf)?, Value::Int(1))]),
            ExtendedSet::from_pairs((1..=rn).map(|j| (Value::Int(j), Value::Int(ln + j)))),
        );
        let mut columns: Vec<String> = self.schema.columns().to_vec();
        for c in right.schema.columns() {
            if columns.contains(c) {
                columns.push(format!("right_{c}"));
            } else {
                columns.push(c.clone());
            }
        }
        Ok(Plan {
            schema: RelSchema::new(columns)?,
            expr: self.expr.rel_product(sigma, right.expr, omega),
        })
    }

    /// `self ⋉_{lf = rf} right`: the rows with a join partner — a
    /// selection witnessed by `right`'s projected keys, no tuple
    /// construction at all.
    pub(crate) fn semijoin(self, right: Plan, lf: &str, rf: &str) -> XstResult<Plan> {
        let keys = right.project(&[rf])?;
        self.keep_where(lf, keys.expr)
    }

    /// `self ▷_{lf = rf} right`: the rows with *no* join partner.
    pub(crate) fn antijoin(self, right: Plan, lf: &str, rf: &str) -> XstResult<Plan> {
        let matched = self.clone().semijoin(right, lf, rf)?;
        self.boolean(matched, Expr::difference)
    }

    /// `ρ` — rename columns; the plan is untouched.
    pub(crate) fn rename<A: AsRef<str>, B: AsRef<str>>(
        self,
        mapping: &[(A, B)],
    ) -> XstResult<Plan> {
        let columns = self.schema.columns().iter().map(|c| {
            mapping
                .iter()
                .find(|(old, _)| old.as_ref() == c)
                .map_or_else(|| c.clone(), |(_, new)| new.as_ref().to_string())
        });
        Ok(Plan {
            schema: RelSchema::new(columns)?,
            expr: self.expr,
        })
    }

    /// `self ∪ other`, `self ∩ other` or `self ~ other`, by `node`, over
    /// union-compatible operands; the left columns name the result.
    pub(crate) fn boolean(self, other: Plan, node: fn(Expr, Expr) -> Expr) -> XstResult<Plan> {
        if self.schema.arity() != other.schema.arity() {
            return Err(XstError::NotComposable {
                reason: format!(
                    "union-compatible relations required: arity {} vs {}",
                    self.schema.arity(),
                    other.schema.arity()
                ),
            });
        }
        Ok(Plan {
            expr: node(self.expr, other.expr),
            schema: self.schema,
        })
    }
}

/// The identity re-scope spec `{1^1, ..., n^n}`.
fn identity_spec(n: i64) -> ExtendedSet {
    ExtendedSet::from_pairs((1..=n).map(|i| (Value::Int(i), Value::Int(i))))
}

/// Evaluate a plan over literal operands: nothing to bind.
fn compute(plan: Plan) -> XstResult<Relation> {
    plan.eval(&Bindings::new())
}

/// `σ_{field = value}(r)` — selection by equality on one column.
pub fn select_eq(r: &Relation, field: &str, value: &Value) -> XstResult<Relation> {
    select_in(r, field, std::slice::from_ref(value))
}

/// `σ_{field ∈ values}(r)` — selection by membership.
pub fn select_in(r: &Relation, field: &str, values: &[Value]) -> XstResult<Relation> {
    compute(Plan::of(r).select_in(field, values)?)
}

/// `π_{fields}(r)` — projection (distinct by construction).
pub fn project(r: &Relation, fields: &[&str]) -> XstResult<Relation> {
    compute(Plan::of(r).project(fields)?)
}

/// Equijoin `l ⋈_{lf = rf} r`; colliding right column names get a
/// `right_` prefix.
pub fn join(l: &Relation, r: &Relation, lf: &str, rf: &str) -> XstResult<Relation> {
    compute(Plan::of(l).join(Plan::of(r), lf, rf)?)
}

/// Semijoin `l ⋉_{lf = rf} r`: the rows of `l` that have a join partner in
/// `r`.
pub fn semijoin(l: &Relation, r: &Relation, lf: &str, rf: &str) -> XstResult<Relation> {
    compute(Plan::of(l).semijoin(Plan::of(r), lf, rf)?)
}

/// Antijoin `l ▷_{lf = rf} r`: the rows of `l` with *no* join partner.
pub fn antijoin(l: &Relation, r: &Relation, lf: &str, rf: &str) -> XstResult<Relation> {
    compute(Plan::of(l).antijoin(Plan::of(r), lf, rf)?)
}

/// `ρ` — rename columns; the identity is untouched.
pub fn rename(r: &Relation, mapping: &[(&str, &str)]) -> XstResult<Relation> {
    compute(Plan::of(r).rename(mapping)?)
}

/// `a ∪ b` (union-compatible).
pub fn union(a: &Relation, b: &Relation) -> XstResult<Relation> {
    compute(Plan::of(a).boolean(Plan::of(b), Expr::union)?)
}

/// `a ∩ b` (union-compatible).
pub fn intersection(a: &Relation, b: &Relation) -> XstResult<Relation> {
    compute(Plan::of(a).boolean(Plan::of(b), Expr::intersect)?)
}

/// `a ~ b` (union-compatible).
pub fn difference(a: &Relation, b: &Relation) -> XstResult<Relation> {
    compute(Plan::of(a).boolean(Plan::of(b), Expr::difference)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Catalog;
    use xst_storage::{BufferPool, Record, RecordEngine, Schema, SetEngine, Storage, Table};

    fn suppliers() -> Relation {
        Relation::from_rows(
            RelSchema::new(["sid", "city"]).unwrap(),
            vec![
                vec![Value::Int(1), Value::sym("london")],
                vec![Value::Int(2), Value::sym("paris")],
                vec![Value::Int(3), Value::sym("london")],
            ],
        )
        .unwrap()
    }

    fn supplies() -> Relation {
        Relation::from_rows(
            RelSchema::new(["sid", "pid", "qty"]).unwrap(),
            vec![
                vec![Value::Int(1), Value::Int(10), Value::Int(100)],
                vec![Value::Int(2), Value::Int(10), Value::Int(5)],
                vec![Value::Int(3), Value::Int(20), Value::Int(7)],
                vec![Value::Int(9), Value::Int(30), Value::Int(1)],
            ],
        )
        .unwrap()
    }

    /// The stored parts/supplies tables of `xst-storage`'s engine tests, and
    /// the same tables as relations.
    fn stored() -> (BufferPool, Table, Table, Relation, Relation) {
        let storage = Storage::new();
        let mut parts = Table::create(&storage, Schema::new(["pid", "name", "color"]));
        parts
            .load(&[
                Record::new([Value::Int(1), Value::str("bolt"), Value::sym("red")]),
                Record::new([Value::Int(2), Value::str("nut"), Value::sym("green")]),
                Record::new([Value::Int(3), Value::str("cam"), Value::sym("red")]),
            ])
            .unwrap();
        let mut supplied = Table::create(&storage, Schema::new(["sid", "pid", "qty"]));
        supplied
            .load(&[
                Record::new([Value::Int(10), Value::Int(1), Value::Int(100)]),
                Record::new([Value::Int(10), Value::Int(3), Value::Int(50)]),
                Record::new([Value::Int(20), Value::Int(2), Value::Int(5)]),
                Record::new([Value::Int(20), Value::Int(9), Value::Int(7)]),
            ])
            .unwrap();
        let pool = BufferPool::new(storage, 16);
        let mut cat = Catalog::new();
        cat.register_table("parts", &parts, &pool).unwrap();
        cat.register_table("supplied", &supplied, &pool).unwrap();
        let (p, s) = (cat.get("parts").unwrap(), cat.get("supplied").unwrap());
        (pool, parts, supplied, p.clone(), s.clone())
    }

    fn records(r: &Relation) -> Vec<Record> {
        SetEngine::to_records(r.identity()).unwrap()
    }

    #[test]
    fn lowering_agrees_with_record_engine_on_select_project_join() {
        let (pool, parts, supplied, p, s) = stored();
        let rec = RecordEngine::new(&pool);
        let red = Value::sym("red");
        let via_records = rec.select(&parts, "color", &red).unwrap();
        assert_eq!(via_records.len(), 2);
        assert_eq!(via_records, records(&select_eq(&p, "color", &red).unwrap()));

        let via_records = rec.project(&parts, &["color"]).unwrap();
        assert_eq!(via_records.len(), 2, "distinct colors");
        assert_eq!(via_records, records(&project(&p, &["color"]).unwrap()));

        let via_records = rec.join(&supplied, &parts, "pid", "pid").unwrap();
        assert_eq!(via_records.len(), 3, "supply rows with matching parts");
        let joined = join(&s, &p, "pid", "pid").unwrap();
        assert_eq!(joined.schema().arity(), 6, "3 + 3 fields, concatenated");
        assert_eq!(via_records, records(&joined));
    }

    #[test]
    fn lowering_agrees_with_record_engine_on_boolean_ops() {
        let storage = Storage::new();
        let table = |values: &[i64]| {
            let mut t = Table::create(&storage, Schema::new(["v"]));
            let rows: Vec<Record> = values
                .iter()
                .map(|&v| Record::new([Value::Int(v)]))
                .collect();
            t.load(&rows).unwrap();
            t
        };
        let (a, b) = (table(&[1, 2, 3]), table(&[2, 4]));
        let pool = BufferPool::new(storage, 16);
        let mut cat = Catalog::new();
        cat.register_table("a", &a, &pool).unwrap();
        cat.register_table("b", &b, &pool).unwrap();
        let (ra, rb) = (cat.get("a").unwrap(), cat.get("b").unwrap());
        let rec = RecordEngine::new(&pool);
        assert_eq!(rec.union(&a, &b).unwrap(), records(&union(ra, rb).unwrap()));
        assert_eq!(
            rec.intersect(&a, &b).unwrap(),
            records(&intersection(ra, rb).unwrap())
        );
        assert_eq!(
            rec.difference(&a, &b).unwrap(),
            records(&difference(ra, rb).unwrap())
        );
    }

    #[test]
    fn selection() {
        let r = select_eq(&suppliers(), "city", &Value::sym("london")).unwrap();
        assert_eq!(r.len(), 2);
        assert!(r.contains_row(&[Value::Int(1), Value::sym("london")]));
        assert!(r.contains_row(&[Value::Int(3), Value::sym("london")]));
    }

    #[test]
    fn selection_in_list() {
        let r = select_in(
            &suppliers(),
            "sid",
            &[Value::Int(1), Value::Int(2), Value::Int(99)],
        )
        .unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn projection_is_distinct() {
        let r = project(&suppliers(), &["city"]).unwrap();
        assert_eq!(r.len(), 2, "london collapses");
        assert_eq!(r.schema().columns(), &["city".to_string()]);
    }

    #[test]
    fn projection_reorders() {
        let r = project(&suppliers(), &["city", "sid"]).unwrap();
        assert!(r.contains_row(&[Value::sym("london"), Value::Int(1)]));
    }

    #[test]
    fn equijoin() {
        let j = join(&suppliers(), &supplies(), "sid", "sid").unwrap();
        assert_eq!(j.len(), 3, "sid 9 has no supplier");
        assert_eq!(
            j.schema().columns(),
            &["sid", "city", "right_sid", "pid", "qty"].map(String::from)
        );
        assert!(j.contains_row(&[
            Value::Int(1),
            Value::sym("london"),
            Value::Int(1),
            Value::Int(10),
            Value::Int(100)
        ]));
    }

    #[test]
    fn join_then_project_pipeline() {
        let j = join(&suppliers(), &supplies(), "sid", "sid").unwrap();
        let cities_with_pid10 =
            project(&select_eq(&j, "pid", &Value::Int(10)).unwrap(), &["city"]).unwrap();
        assert_eq!(cities_with_pid10.len(), 2);
    }

    #[test]
    fn rename_only_touches_schema() {
        let r = rename(&suppliers(), &[("city", "location")]).unwrap();
        assert_eq!(r.schema().columns()[1], "location");
        assert_eq!(r.identity(), suppliers().identity());
    }

    #[test]
    fn boolean_ops() {
        let a = suppliers();
        let b = select_eq(&a, "city", &Value::sym("london")).unwrap();
        assert_eq!(union(&a, &b).unwrap().len(), 3);
        assert_eq!(intersection(&a, &b).unwrap().len(), 2);
        assert_eq!(difference(&a, &b).unwrap().len(), 1);
        assert!(union(&a, &supplies()).is_err(), "arity mismatch");
    }

    #[test]
    fn empty_selection_flows_through() {
        let none = select_eq(&suppliers(), "city", &Value::sym("tokyo")).unwrap();
        assert!(none.is_empty());
        let p = project(&none, &["sid"]).unwrap();
        assert!(p.is_empty());
        let j = join(&none, &supplies(), "sid", "sid").unwrap();
        assert!(j.is_empty());
    }

    #[test]
    fn unknown_columns_error() {
        assert!(select_eq(&suppliers(), "bogus", &Value::Int(0)).is_err());
        assert!(project(&suppliers(), &["bogus"]).is_err());
        assert!(join(&suppliers(), &supplies(), "bogus", "sid").is_err());
        assert!(semijoin(&suppliers(), &supplies(), "bogus", "sid").is_err());
    }

    #[test]
    fn semijoin_keeps_matching_left_rows_only() {
        let s = semijoin(&suppliers(), &supplies(), "sid", "sid").unwrap();
        assert_eq!(s.len(), 3, "sids 1,2,3 supply; schema unchanged");
        assert_eq!(s.schema(), suppliers().schema());
        assert!(s.contains_row(&[Value::Int(1), Value::sym("london")]));
    }

    #[test]
    fn antijoin_is_the_complement_of_semijoin() {
        let semi = semijoin(&suppliers(), &supplies(), "sid", "sid").unwrap();
        let anti = antijoin(&suppliers(), &supplies(), "sid", "sid").unwrap();
        assert!(anti.is_empty(), "every supplier supplies something here");
        assert_eq!(
            union(&semi, &anti).unwrap().identity(),
            suppliers().identity()
        );
        // Remove supplier 1's supplies and it shows up in the antijoin.
        let fewer = select_in(
            &supplies(),
            "sid",
            &[Value::Int(2), Value::Int(3), Value::Int(9)],
        )
        .unwrap();
        let anti2 = antijoin(&suppliers(), &fewer, "sid", "sid").unwrap();
        assert_eq!(anti2.len(), 1);
        assert!(anti2.contains_row(&[Value::Int(1), Value::sym("london")]));
    }

    #[test]
    fn semijoin_agrees_with_join_then_project() {
        // l ⋉ r  ==  π_{l-cols}(l ⋈ r) for these key-unique relations.
        let semi = semijoin(&suppliers(), &supplies(), "sid", "sid").unwrap();
        let joined = join(&suppliers(), &supplies(), "sid", "sid").unwrap();
        let projected = project(&joined, &["sid", "city"]).unwrap();
        assert_eq!(semi.identity(), projected.identity());
    }
}
