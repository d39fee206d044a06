//! A small fluent query builder over a [`Catalog`].
//!
//! A query *compiles*: [`Query::to_expr`] folds the pipeline over the one
//! lowering in [`crate::algebra`], which resolves column names and tracks
//! the output columns, into an [`xst_query::Expr`] — so the analysis gate,
//! the law-driven optimizer and `EXPLAIN` apply. [`Query::run`] is that
//! same fold, then `xst_query`'s plan walker executes the result.

use crate::aggregate::{self, Aggregate};
use crate::algebra::Plan;
use crate::catalog::Catalog;
use crate::relation::Relation;
use xst_core::{Value, XstError, XstResult};
use xst_query::Expr;

/// One step of a query pipeline.
#[derive(Debug, Clone)]
enum Op {
    SelectIn {
        field: String,
        values: Vec<Value>,
    },
    Project {
        fields: Vec<String>,
    },
    Join {
        right: String,
        lf: String,
        rf: String,
    },
    /// `∪`, `∩` or `~` with another catalog relation.
    Boolean {
        node: fn(Expr, Expr) -> Expr,
        right: String,
    },
    Rename {
        mapping: Vec<(String, String)>,
    },
    GroupBy {
        keys: Vec<String>,
        aggs: Vec<(Aggregate, String)>,
    },
}

/// A fluent pipeline rooted at a named relation.
#[derive(Debug, Clone)]
pub struct Query {
    root: String,
    ops: Vec<Op>,
}

impl Query {
    /// Start from the relation named `root`.
    pub fn from(root: impl Into<String>) -> Query {
        Query {
            root: root.into(),
            ops: Vec::new(),
        }
    }

    fn then(mut self, op: Op) -> Query {
        self.ops.push(op);
        self
    }

    /// `WHERE field = value`.
    pub fn select_eq(self, field: impl Into<String>, value: Value) -> Query {
        self.select_in(field, vec![value])
    }

    /// `WHERE field IN values`.
    pub fn select_in(self, field: impl Into<String>, values: Vec<Value>) -> Query {
        self.then(Op::SelectIn {
            field: field.into(),
            values,
        })
    }

    /// `SELECT DISTINCT fields`.
    pub fn project(self, fields: &[&str]) -> Query {
        self.then(Op::Project {
            fields: fields.iter().map(|s| s.to_string()).collect(),
        })
    }

    /// Equijoin with another catalog relation.
    pub fn join(
        self,
        right: impl Into<String>,
        lf: impl Into<String>,
        rf: impl Into<String>,
    ) -> Query {
        self.then(Op::Join {
            right: right.into(),
            lf: lf.into(),
            rf: rf.into(),
        })
    }

    fn boolean(self, node: fn(Expr, Expr) -> Expr, right: impl Into<String>) -> Query {
        self.then(Op::Boolean {
            node,
            right: right.into(),
        })
    }

    /// Union with another catalog relation.
    pub fn union(self, right: impl Into<String>) -> Query {
        self.boolean(Expr::union, right)
    }

    /// Intersection with another catalog relation.
    pub fn intersect(self, right: impl Into<String>) -> Query {
        self.boolean(Expr::intersect, right)
    }

    /// Difference with another catalog relation.
    pub fn difference(self, right: impl Into<String>) -> Query {
        self.boolean(Expr::difference, right)
    }

    /// `GROUP BY keys` with aggregates.
    pub fn group_by(self, keys: &[&str], aggs: &[(Aggregate, &str)]) -> Query {
        self.then(Op::GroupBy {
            keys: keys.iter().map(|s| s.to_string()).collect(),
            aggs: aggs.iter().map(|(a, c)| (*a, c.to_string())).collect(),
        })
    }

    /// Rename columns.
    pub fn rename(self, mapping: &[(&str, &str)]) -> Query {
        self.then(Op::Rename {
            mapping: mapping
                .iter()
                .map(|(a, b)| (a.to_string(), b.to_string()))
                .collect(),
        })
    }

    /// Fold the pipeline over the lowering in [`crate::algebra`]. Aggregation
    /// has no [`Expr`] node, so `group_by` says what becomes of the plan in
    /// front of a `GROUP BY`.
    fn lower(
        &self,
        catalog: &Catalog,
        mut group_by: impl FnMut(Plan, &[String], &[(Aggregate, String)]) -> XstResult<Plan>,
    ) -> XstResult<Plan> {
        let table = |name: &str| Ok(Plan::table(name, catalog.get(name)?.schema().clone()));
        let mut plan = table(&self.root)?;
        for op in &self.ops {
            plan = match op {
                Op::SelectIn { field, values } => plan.select_in(field, values)?,
                Op::Project { fields } => plan.project(fields)?,
                Op::Join { right, lf, rf } => plan.join(table(right)?, lf, rf)?,
                Op::Boolean { node, right } => plan.boolean(table(right)?, *node)?,
                Op::Rename { mapping } => plan.rename(mapping)?,
                Op::GroupBy { keys, aggs } => group_by(plan, keys, aggs)?,
            };
        }
        Ok(plan)
    }

    /// Execute against a catalog: compile, then evaluate through the
    /// analysis gate and the plan walker. A `GROUP BY` evaluates the
    /// pipeline in front of it, aggregates that result, and the rest of the
    /// pipeline continues from the aggregate as a literal.
    pub fn run(&self, catalog: &Catalog) -> XstResult<Relation> {
        let bindings = catalog.bindings();
        let plan = self.lower(catalog, |prefix, keys, aggs| {
            let keys: Vec<&str> = keys.iter().map(String::as_str).collect();
            let aggs: Vec<(Aggregate, &str)> = aggs.iter().map(|(a, c)| (*a, c.as_str())).collect();
            let grouped = aggregate::group_by(&prefix.eval(&bindings)?, &keys, &aggs)?;
            Ok(Plan::of(&grouped))
        })?;
        plan.eval(&bindings)
    }

    /// Compile to a logical [`Expr`] over the catalog's bindings — the
    /// expression [`Query::run`] evaluates.
    pub fn to_expr(&self, catalog: &Catalog) -> XstResult<Expr> {
        let plan = self.lower(catalog, |_, _, _| {
            Err(XstError::NotComposable {
                reason: "aggregation has no logical-expression form; \
                         run the pipeline instead"
                    .into(),
            })
        })?;
        Ok(plan.into_expr())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::RelSchema;
    use xst_query::eval;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.register(
            "suppliers",
            Relation::from_rows(
                RelSchema::new(["sid", "city"]).unwrap(),
                vec![
                    vec![Value::Int(1), Value::sym("london")],
                    vec![Value::Int(2), Value::sym("paris")],
                    vec![Value::Int(3), Value::sym("london")],
                ],
            )
            .unwrap(),
        );
        cat.register(
            "supplies",
            Relation::from_rows(
                RelSchema::new(["sid", "pid", "qty"]).unwrap(),
                vec![
                    vec![Value::Int(1), Value::Int(10), Value::Int(100)],
                    vec![Value::Int(2), Value::Int(10), Value::Int(5)],
                    vec![Value::Int(3), Value::Int(20), Value::Int(7)],
                ],
            )
            .unwrap(),
        );
        cat
    }

    #[test]
    fn pipeline_runs() {
        let cat = catalog();
        let result = Query::from("suppliers")
            .select_eq("city", Value::sym("london"))
            .project(&["sid"])
            .run(&cat)
            .unwrap();
        assert_eq!(result.len(), 2);
        assert!(result.contains_row(&[Value::Int(1)]));
        assert!(result.contains_row(&[Value::Int(3)]));
    }

    #[test]
    fn join_pipeline_runs() {
        let cat = catalog();
        let result = Query::from("suppliers")
            .join("supplies", "sid", "sid")
            .select_eq("pid", Value::Int(10))
            .project(&["city"])
            .run(&cat)
            .unwrap();
        assert_eq!(result.len(), 2, "london and paris supply pid 10");
    }

    /// Every pipeline, written with the builder and as text: `run` and
    /// `to_expr` + `eval` fail together, or succeed with one identity under
    /// the expected output columns (`None` = both refuse).
    #[test]
    fn run_and_compile_agree_on_every_pipeline() {
        let london = || Value::sym("london");
        let table: Vec<(Query, &str, Option<&[&str]>)> = vec![
            (
                Query::from("suppliers")
                    .select_eq("city", london())
                    .project(&["sid"]),
                "from suppliers | where city = london | select sid",
                Some(&["sid"]),
            ),
            (
                Query::from("suppliers").join("supplies", "sid", "sid"),
                "from suppliers | join supplies on sid = sid",
                Some(&["sid", "city", "right_sid", "pid", "qty"]),
            ),
            (
                Query::from("suppliers")
                    .join("supplies", "sid", "sid")
                    .select_eq("pid", Value::Int(10))
                    .project(&["city"]),
                "from suppliers | join supplies on sid = sid | where pid = 10 | select city",
                Some(&["city"]),
            ),
            (
                Query::from("suppliers").select_in("sid", vec![Value::Int(1), Value::Int(3)]),
                "from suppliers | where sid in (1, 3)",
                Some(&["sid", "city"]),
            ),
            (
                Query::from("suppliers")
                    .join("supplies", "sid", "sid")
                    .select_eq("right_sid", Value::Int(2)),
                "from suppliers | join supplies on sid = sid | where right_sid = 2",
                Some(&["sid", "city", "right_sid", "pid", "qty"]),
            ),
            // Columns answer to their new name after a rename, and only to it.
            (
                Query::from("suppliers")
                    .rename(&[("city", "location")])
                    .select_eq("location", london()),
                "from suppliers | rename city -> location | where location = london",
                Some(&["sid", "location"]),
            ),
            (
                Query::from("suppliers")
                    .rename(&[("city", "location")])
                    .select_eq("city", london()),
                "from suppliers | rename city -> location | where city = london",
                None,
            ),
            // Arity 2 against arity 3 is not union-compatible.
            (
                Query::from("suppliers").union("supplies"),
                "from suppliers | union supplies",
                None,
            ),
            (
                Query::from("suppliers").intersect("supplies"),
                "from suppliers | intersect supplies",
                None,
            ),
            (
                Query::from("suppliers").difference("supplies"),
                "from suppliers | except supplies",
                None,
            ),
        ];
        let cat = catalog();
        let mut drift: Vec<String> = Vec::new();
        for (built, text, columns) in table {
            for q in [built, crate::lang::parse_query(text).unwrap()] {
                let ran = q.run(&cat);
                let compiled = q
                    .to_expr(&cat)
                    .and_then(|expr| eval(&expr, &cat.bindings()));
                let agree = match (&ran, &compiled, columns) {
                    (Err(_), Err(_), None) => true,
                    (Ok(ran), Ok(compiled), Some(columns)) => {
                        assert!(!ran.is_empty(), "{text}: a vacuous row proves nothing");
                        ran.schema().columns() == columns
                            && Relation::from_identity(ran.schema().clone(), compiled.clone())
                                .is_ok_and(|fitted| &fitted == ran)
                    }
                    _ => false,
                };
                if !agree {
                    let ran = ran.map(|r| r.to_string());
                    let compiled = compiled.map(|c| c.to_string());
                    drift.push(format!("{text}\n  run: {ran:?}\n  compiled: {compiled:?}"));
                }
            }
        }
        assert!(drift.is_empty(), "{}", drift.join("\n"));
    }

    #[test]
    fn group_by_mid_pipeline_runs_and_does_not_compile() {
        let cat = catalog();
        let q = Query::from("supplies")
            .group_by(&["pid"], &[(Aggregate::Count, "sid")])
            .select_eq("count_sid", Value::Int(2))
            .project(&["pid"]);
        let text = "from supplies | group by pid compute count(sid) \
                    | where count_sid = 2 | select pid";
        for q in [q, crate::lang::parse_query(text).unwrap()] {
            let result = q.run(&cat).unwrap();
            assert_eq!(result.rows(), vec![vec![Value::Int(10)]]);
            assert!(matches!(
                q.to_expr(&cat),
                Err(XstError::NotComposable { .. })
            ));
        }
    }

    #[test]
    fn optimizer_applies_to_compiled_queries() {
        let cat = catalog();
        let q = Query::from("suppliers")
            .select_eq("city", Value::sym("london"))
            .project(&["sid"]);
        let expr = q.to_expr(&cat).unwrap();
        let (optimized, _trace) = xst_query::Optimizer::new().optimize(&expr);
        let a = eval(&expr, &cat.bindings()).unwrap();
        let b = eval(&optimized, &cat.bindings()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn set_ops_and_rename() {
        let cat = catalog();
        let londoners = Query::from("suppliers")
            .select_eq("city", Value::sym("london"))
            .run(&cat)
            .unwrap();
        let mut cat2 = catalog();
        cat2.register("londoners", londoners);
        let rest = Query::from("suppliers")
            .difference("londoners")
            .rename(&[("city", "location")])
            .run(&cat2)
            .unwrap();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest.schema().columns()[1], "location");
    }

    #[test]
    fn missing_root_errors() {
        assert!(Query::from("nope").run(&catalog()).is_err());
        assert!(Query::from("nope").to_expr(&catalog()).is_err());
    }
}
