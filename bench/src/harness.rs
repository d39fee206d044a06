//! The two kinds of run. The end-to-end run measures what a caller sees,
//! with the span recorder and the `xst_obs` collector both off. The
//! traced run replays a fixed number of ops with the recorder on and
//! turns the spans into per-layer numbers; nothing it measures is ever
//! reported as an end-to-end figure.

use crate::json::Json;
use crate::results::{Metric, WorkloadResult};
use crate::spans::{per_op_sums, self_times, Recorder, Span};
use crate::spec::{OP_KIND_NAMES, PER_LAYER, WARMUP_S};
use crate::stats::{median, median_of, ops_per_s, over_quiet, percentile_us, Reported};
use crate::workloads::{build, Counters, EvalSample, OpResult, ReplayTotals, Workload};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Attempted / failed / checked over every op a run issues, warm-up
/// included: a failure there is still a failure.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    checked: u64,
}

impl Tally {
    fn count(&mut self, r: &OpResult) {
        self.attempted += 1;
        self.failed += u64::from(r.failed);
        self.checked += u64::from(r.checked);
    }

    /// The after-run state check counts as one more checked op.
    fn finish(&mut self, w: &mut dyn Workload) {
        let outcome = w.finish();
        if let Err(why) = &outcome {
            eprintln!("final state check failed: {why}");
        }
        self.count(&OpResult {
            nanos: 0,
            failed: outcome.is_err(),
            checked: true,
        });
    }

    fn into_result(self, name: &str) -> WorkloadResult {
        WorkloadResult {
            name: name.to_string(),
            cores: crate::cores::placement(),
            attempted: self.attempted,
            failed: self.failed,
            checked: self.checked,
            ..WorkloadResult::default()
        }
    }
}

fn set_up(name: &str, seed: u64) -> Box<dyn Workload> {
    build(name, seed).expect("workload names are checked at the command line")
}

/// Set-up is repeated and its median reported, so one slow start does not
/// become the number: at least three times, and cheap set-ups until they
/// have filled a time budget. The last instance is the one measured.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 25;
const SETUP_BUDGET_S: f64 = 1.5;

fn repeated_set_up(name: &str, seed: u64) -> (Box<dyn Workload>, Vec<f64>) {
    let mut times = Vec::new();
    loop {
        let start = Instant::now();
        let w = set_up(name, seed);
        times.push(start.elapsed().as_secs_f64());
        let spent: f64 = times.iter().sum();
        if times.len() >= SETUP_MIN_REPS
            && (spent >= SETUP_BUDGET_S || times.len() >= SETUP_MAX_REPS)
        {
            return (w, times);
        }
        drop(w); // stops its servers before the next set-up starts
    }
}

fn reported(name: &str, unit: &str, r: Reported) -> Metric {
    Metric {
        spread: Some(r.spread),
        samples: r.samples,
        ..Metric::new(name, unit, r.value)
    }
}

/// The end-to-end run: repeated set-up, warm-up, then `seconds` of
/// back-to-back windows of `window_s` each. The run reports p50, p90 and
/// rate over the pooled ops of the windows where each reads best (see
/// [`over_quiet`] for why).
pub fn run_end_to_end(name: &str, seed: u64, seconds: f64, window_s: f64) -> WorkloadResult {
    let (mut w, set_ups) = repeated_set_up(name, seed);
    let mut rec = Recorder::new(false);
    let mut tally = Tally::default();

    let warm = Instant::now();
    while warm.elapsed().as_secs_f64() < WARMUP_S {
        tally.count(&w.op(&mut rec));
    }

    let window = Duration::from_secs_f64(window_s);
    let windows = (seconds / window_s).round().max(1.0) as usize;
    let mut measured: Vec<Vec<u64>> = Vec::with_capacity(windows);
    for i in 0..windows {
        let mut nanos: Vec<u64> = Vec::new();
        let start = Instant::now();
        while start.elapsed() < window {
            let r = w.op(&mut rec);
            tally.count(&r);
            nanos.push(r.nanos);
        }
        eprintln!(
            "{name} window {}: {} ops, p50 {} us, p90 {} us",
            i + 1,
            nanos.len(),
            percentile_us(&nanos, 50.0),
            percentile_us(&nanos, 90.0)
        );
        measured.push(nanos);
    }
    tally.finish(w.as_mut());

    let p50 = over_quiet(&measured, |w| percentile_us(w, 50.0), true);
    let p90 = over_quiet(&measured, |w| percentile_us(w, 90.0), true);
    let rate = over_quiet(&measured, ops_per_s, false);
    let mut result = tally.into_result(name);
    result.end_to_end = vec![
        reported("setup_s", "s", median_of(&set_ups)),
        reported("op_p50_us", "us", p50),
        reported("op_p90_us", "us", p90),
        reported("ops_per_s", "1/s", rate),
    ];
    result.end_to_end.extend(result.fractions());
    result
}

/// Ops before the fixed-op phases of a traced run: a count, not a time,
/// so every count taken afterwards repeats exactly.
const TRACED_WARMUP_OPS: u32 = 50;

fn vm_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|l| l.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

/// `n` plain ops (recorder off); their latencies.
fn plain_ops(w: &mut dyn Workload, n: u32, tally: &mut Tally) -> Vec<u64> {
    let mut rec = Recorder::new(false);
    (0..n)
        .map(|_| {
            let r = w.op(&mut rec);
            tally.count(&r);
            r.nanos
        })
        .collect()
}

/// What the phases of a traced run leave behind.
struct Traced {
    ops: u32,
    pings: Vec<u64>,
    /// Latencies of the plain ops: the untraced, collector-off base.
    base: Vec<u64>,
    /// Storage-side counts around the base phase, and VmRSS growth over it.
    before: Counters,
    after: Counters,
    rss_growth_kb: u64,
    /// Latencies with the `xst_obs` collector on.
    collected: Vec<u64>,
    /// Latencies of the real ops interleaved with their replays.
    traced: Vec<u64>,
    rec: Recorder,
    totals: ReplayTotals,
}

/// The traced run, over a fixed `ops` per phase:
/// 1. pings;
/// 2. plain ops — the base, and the interval the storage counts span;
/// 3. the same with the `xst_obs` collector on;
/// 4. per op, the real op (it records its own `client.op` span), then the
///    op replayed layer by layer under a `replay` span.
fn drive_traced(w: &mut dyn Workload, ops: u32, tally: &mut Tally) -> Traced {
    plain_ops(w, TRACED_WARMUP_OPS, tally);
    let pings = (0..ops)
        .filter_map(|_| w.ping())
        .map(|d| d.as_nanos() as u64)
        .collect();

    let (before, rss_before) = (w.counters(), vm_rss_kb());
    let base = plain_ops(w, ops, tally);
    let (after, rss_after) = (w.counters(), vm_rss_kb());

    xst_obs::enable();
    let collected = plain_ops(w, ops, tally);
    xst_obs::disable();

    let mut rec = Recorder::new(true);
    let mut totals = ReplayTotals::default();
    let mut traced = Vec::new();
    for op in 0..ops {
        rec.set_op(op);
        let r = w.op(&mut rec);
        tally.count(&r);
        traced.push(r.nanos);
        let span = rec.enter("replay");
        w.replay(&mut rec, &mut totals);
        rec.exit(span);
    }
    tally.finish(w);
    Traced {
        ops,
        pings,
        base,
        before,
        after,
        rss_growth_kb: rss_after.saturating_sub(rss_before),
        collected,
        traced,
        rec,
        totals,
    }
}

/// What the replay explains of each op: the self times of every span
/// under `replay`, summed per op. (`client.op` and its children are the
/// real op, not its explanation; `replay`'s own self time is the
/// benchmark's glue between the steps.)
fn explained_per_op(spans: &[Span], selfs: &[u64]) -> Vec<u64> {
    let mut under_replay = vec![false; spans.len()];
    let mut per_op: BTreeMap<u32, u64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        // A parent is always recorded before its children.
        under_replay[i] = s
            .parent
            .is_some_and(|p| spans[p].name == "replay" || under_replay[p]);
        if under_replay[i] {
            *per_op.entry(s.op_id).or_default() += selfs[i];
        }
    }
    per_op.into_values().collect()
}

/// A per-layer value and, for a ratio, its base.
type LayerValue = (f64, Option<f64>);

/// Every per-layer metric this run has a value for, by name.
fn layer_values(
    t: &Traced,
    by_duration: &BTreeMap<&str, Vec<u64>>,
    explained_p50: f64,
) -> BTreeMap<String, LayerValue> {
    let ops = f64::from(t.ops);
    let base_p50 = percentile_us(&t.base, 50.0);
    let traced_p50 = percentile_us(&t.traced, 50.0);
    let evals = &t.totals.evals;
    let eval_median = |f: &dyn Fn(&EvalSample) -> f64| match evals.as_slice() {
        [] => 0.0,
        evals => median(&evals.iter().map(f).collect::<Vec<_>>()),
    };
    let eval_sum = |f: fn(&EvalSample) -> u64| evals.iter().map(f).sum::<u64>() as f64;

    let mut values: BTreeMap<String, LayerValue> = BTreeMap::new();
    let mut set = |name: &str, value: f64| {
        values.insert(name.to_string(), (value, None));
    };
    // Spans are named after their metric: `<span>_p50_us` is the p50 over
    // ops of the span's summed duration within one op…
    for (span, sums) in by_duration {
        set(&format!("{span}_p50_us"), percentile_us(sums, 50.0));
    }
    // …except a staged row, which is timed per call, not per op.
    let inserts: Vec<u64> = t
        .rec
        .spans()
        .iter()
        .filter(|s| s.name == "storage.insert")
        .map(Span::nanos)
        .collect();
    if !inserts.is_empty() {
        set("storage.insert_p50_us", percentile_us(&inserts, 50.0));
    }
    if !t.pings.is_empty() {
        set("client.ping_p50_us", percentile_us(&t.pings, 50.0));
    }
    set("client.op_p99_us", percentile_us(&t.base, 99.0));
    set("client.residual_p50_us", traced_p50 - explained_p50);
    set(
        "coord.frag_bytes_per_eval",
        t.totals.frag_bytes as f64 / ops,
    );
    set(
        "coord.decision_log_bytes",
        t.after.decision_log_bytes as f64,
    );
    set("coord.decisions", t.after.decisions as f64);
    set("wire.req_bytes", t.totals.req_bytes as f64 / ops);
    set("wire.resp_bytes", t.totals.resp_bytes as f64 / ops);
    for (k, kind) in OP_KIND_NAMES.iter().enumerate() {
        set(
            &format!("core.op_ns.{kind}"),
            eval_median(&|e| e.op_ns[k] as f64),
        );
    }
    let per_txn = |f: fn(&Counters) -> u64| (f(&t.after) - f(&t.before)) as f64 / ops;
    set("storage.wal_bytes_per_txn", per_txn(|c| c.wal_bytes));
    set("storage.page_writes_per_txn", per_txn(|c| c.page_writes));
    set("storage.versions_retained", t.after.versions as f64);
    set("storage.rss_kb_per_txn", t.rss_growth_kb as f64 / ops);
    set(
        "query.kernel_share",
        eval_median(&|e| e.kernel_ns as f64 / e.eval_ns as f64),
    );
    if !evals.is_empty() {
        set(
            "query.rows_examined_per_result",
            eval_sum(|e| e.examined) / eval_sum(|e| e.result),
        );
    }
    set("query.nodes", eval_median(&|e| e.nodes as f64));
    set("trace.coverage", explained_p50 / traced_p50);
    // Ratios carry their base: the untraced, collector-off p50 of the
    // same fixed ops in this same process.
    let over_base = |p50: f64| (p50 / base_p50, Some(base_p50));
    values.insert(
        "obs.collector_on_ratio".to_string(),
        over_base(percentile_us(&t.collected, 50.0)),
    );
    values.insert("trace.overhead_ratio".to_string(), over_base(traced_p50));
    values
}

/// One traced run. Returns the per-layer metrics and the trace file's
/// text: a summary of per-op p50 duration and p50 self time by span name,
/// then the spans themselves.
pub fn run_traced(name: &str, seed: u64, ops: u32) -> (WorkloadResult, String) {
    let mut w = set_up(name, seed);
    let mut tally = Tally::default();
    let t = drive_traced(w.as_mut(), ops, &mut tally);
    drop(w);

    let spans = t.rec.spans();
    let durations: Vec<u64> = spans.iter().map(Span::nanos).collect();
    let selfs = self_times(spans);
    let by_duration = per_op_sums(spans, &durations);
    let by_self = per_op_sums(spans, &selfs);
    let explained_p50 = percentile_us(&explained_per_op(spans, &selfs), 50.0);

    let mut values = layer_values(&t, &by_duration, explained_p50);
    let mut result = tally.into_result(name);
    for m in result.fractions() {
        values.insert(m.name, (m.value, None));
    }
    result.per_layer = PER_LAYER
        .iter()
        .map(|spec| {
            // A layer this workload never enters reads 0.
            let (value, base) = values.get(spec.name).copied().unwrap_or((0.0, None));
            Metric {
                base,
                ..Metric::new(spec.name, spec.unit, value)
            }
        })
        .collect();

    let summary = Json::Obj(
        by_self
            .iter()
            .map(|(span, self_sums)| {
                let row = Json::obj([
                    ("ops", Json::from(self_sums.len() as u64)),
                    ("p50_us", Json::Num(percentile_us(&by_duration[span], 50.0))),
                    ("self_p50_us", Json::Num(percentile_us(self_sums, 50.0))),
                ]);
                (span.to_string(), row)
            })
            .collect(),
    );
    (result, t.rec.to_json(name, &summary))
}
