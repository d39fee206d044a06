//! `inproc_plan`: the embedded user's cost — no wire, no storage. One op
//! optimizes and evaluates (gate included) a plan over in-memory
//! bindings: two restrict→domain pipelines over pair relations `f` and
//! `g` with a shared witness set `w`, unioned, minus the intersection of
//! the two images — the values exactly one relation reaches. Nearly all
//! of the op is `xst-core` kernels, so a wire or storage change must not
//! move it.

use super::{expect_set, EvalSample, OpResult, ReplayTotals, Workload};
use crate::gen::SplitMix64;
use crate::spans::Recorder;
use crate::spec::{PLAN_PAIRS, PLAN_WITNESSES};
use std::time::Instant;
use xst_core::ops::Parallelism;
use xst_core::{ExtendedSet, Scope, Value};
use xst_query::{check, eval_parallel, Bindings, Expr, Optimizer};

pub struct InprocPlan {
    bindings: Bindings,
    plan: Expr,
    optimizer: Optimizer,
    /// The unoptimized plan's result: what every optimized run must equal.
    want: ExtendedSet,
    operand_cards: u64,
}

/// `{⟨k, v⟩}` for `k` in `0..PLAN_PAIRS`, `v` seeded from a range a
/// quarter that size, so images collide and the two relations overlap.
fn relation(rng: &mut SplitMix64) -> ExtendedSet {
    ExtendedSet::classical((0..PLAN_PAIRS).map(|k| {
        let v = rng.below(PLAN_PAIRS / 4);
        Value::Set(ExtendedSet::pair(
            Value::Int(k as i64),
            Value::Int(v as i64),
        ))
    }))
}

impl InprocPlan {
    pub fn new(seed: u64) -> InprocPlan {
        let mut rng = SplitMix64::new(seed);
        let mut bindings = Bindings::new();
        bindings.insert("f".to_string(), relation(&mut rng));
        bindings.insert("g".to_string(), relation(&mut rng));
        let witnesses = ExtendedSet::classical((0..PLAN_WITNESSES).map(|_| {
            Value::Set(ExtendedSet::tuple([Value::Int(
                rng.below(PLAN_PAIRS) as i64
            )]))
        }));
        bindings.insert("w".to_string(), witnesses);

        let Scope { sigma1, sigma2 } = Scope::pairs();
        let pipeline = |r: &str| {
            Expr::table(r)
                .restrict(sigma1.clone(), Expr::table("w"))
                .domain(sigma2.clone())
        };
        let image = |r: &str| Expr::table(r).image(Expr::table("w"), Scope::pairs());
        let plan = pipeline("f")
            .union(pipeline("g"))
            .difference(image("f").intersect(image("g")));

        let (want, _) = eval_parallel(&plan, &bindings, &Parallelism::sequential())
            .expect("the unoptimized plan evaluates");
        assert!(
            !want.is_empty(),
            "operands chosen so the result is non-empty"
        );
        let operand_cards = bindings.values().map(|s| s.card() as u64).sum();
        InprocPlan {
            bindings,
            plan,
            optimizer: Optimizer::new(),
            want,
            operand_cards,
        }
    }
}

impl Workload for InprocPlan {
    fn op(&mut self, rec: &mut Recorder) -> OpResult {
        let span = rec.enter("client.op");
        let start = Instant::now();
        let (optimized, rewrites) = self.optimizer.optimize(&self.plan);
        let result = eval_parallel(&optimized, &self.bindings, &Parallelism::sequential());
        let nanos = start.elapsed().as_nanos() as u64;
        rec.exit(span);
        let outcome = result.map_err(|e| e.to_string()).and_then(|(set, _)| {
            if rewrites.is_empty() {
                return Err("the optimizer rewrote nothing".to_string());
            }
            expect_set("optimized result", &set, &self.want)
        });
        OpResult::checked(nanos, outcome)
    }

    /// There is no wire to walk: the op's two public calls are recorded
    /// as they run, and the gate `eval_parallel` runs first is re-run as
    /// a probe under it.
    fn replay(&mut self, rec: &mut Recorder, totals: &mut ReplayTotals) {
        let (optimized, _) = rec.leaf("query.optimize", || self.optimizer.optimize(&self.plan));
        let par = Parallelism::sequential();
        let (_, stats) = rec
            .leaf("query.eval", || {
                eval_parallel(&optimized, &self.bindings, &par)
            })
            .expect("the optimized plan evaluates");
        let eval = rec.last();
        let eval_ns = rec.spans()[eval].nanos();
        totals
            .evals
            .push(EvalSample::new(&stats, eval_ns, self.operand_cards));
        rec.probe("analyze.gate", eval, || check(&optimized, &self.bindings));
    }
}
