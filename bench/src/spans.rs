//! The benchmark's own span recorder. Spans are taken around the calls
//! *into* each layer, from the benchmark's files; nothing in the program
//! under test is instrumented. They stay in memory and are written out
//! when the traced run ends.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Spans of one op share an identifier.
    pub op_id: u32,
    /// A probe re-runs a call its parent made, on the same state, *after*
    /// the parent returned: its interval lies outside the parent's, so
    /// self time subtracts its duration rather than its overlap.
    pub probe: bool,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Off by default: every end-to-end number is measured with the recorder
/// off, where each call below is one branch.
pub struct Recorder {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<SpanId>,
    op_id: u32,
}

impl Recorder {
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op_id: 0,
        }
    }

    /// Spans recorded from here on belong to op `op_id`.
    pub fn set_op(&mut self, op_id: u32) {
        self.op_id = op_id;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<SpanId>, probe: bool) -> SpanId {
        if !self.on {
            return 0;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            op_id: self.op_id,
            probe,
        });
        self.stack.push(id);
        // Stamp last, so the recorder's own bookkeeping is outside the span.
        self.spans[id].start_ns = self.now();
        id
    }

    /// Open a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let parent = self.stack.last().copied();
        self.open(name, parent, false)
    }

    /// Open a probe span under `parent`, which has already closed.
    fn enter_probe(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        self.open(name, Some(parent), true)
    }

    pub fn exit(&mut self, id: SpanId) {
        if !self.on {
            return;
        }
        let end = self.now();
        assert_eq!(
            self.stack.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = end;
    }

    /// Time one call as a child of the innermost open span.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Time one call as a probe under the closed span `parent`.
    pub fn probe<R>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> R) -> R {
        let id = self.enter_probe(name, parent);
        let out = f();
        self.exit(id);
        out
    }

    /// The span most recently opened (what `leaf` just recorded).
    pub fn last(&self) -> SpanId {
        self.spans.len().saturating_sub(1)
    }

    /// The trace file: a caller-made summary, then one span per line;
    /// ids are array positions.
    pub fn to_json(&self, workload: &str, summary: &Json) -> String {
        let mut out = format!(
            "{{\"schema\": \"xst-reqbench-trace/1\", \"workload\": {}, \"summary\": {summary},\n\"spans\": [\n",
            Json::str(workload)
        );
        for (i, s) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("id", Json::from(i as u64)),
                ("name", Json::str(s.name)),
                ("start_ns", s.start_ns.into()),
                ("end_ns", s.end_ns.into()),
                ("parent", s.parent.map_or(Json::Null, |p| (p as u64).into())),
                ("op_id", u64::from(s.op_id).into()),
                ("probe", Json::Bool(s.probe)),
            ]);
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            out.push_str(&format!("{line}{sep}\n"));
        }
        out.push_str("]}\n");
        out
    }
}

/// Self time of every span: its duration minus what its children cover —
/// for ordinary children the union of their intervals clipped to the
/// parent's, for probe children their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<SpanId>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut covered = 0u64;
            let mut intervals: Vec<(u64, u64)> = Vec::new();
            for &c in &children[i] {
                let c = &spans[c];
                if c.probe {
                    covered += c.nanos();
                } else {
                    let (lo, hi) = (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns));
                    if lo < hi {
                        intervals.push((lo, hi));
                    }
                }
            }
            intervals.sort_unstable();
            let mut reach = 0u64;
            for (lo, hi) in intervals {
                let lo = lo.max(reach);
                if lo < hi {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.nanos().saturating_sub(covered)
        })
        .collect()
}

/// `values[i]` belongs to `spans[i]`; sum them per (span name, op), and
/// list each name's per-op sums in op order.
pub fn per_op_sums(spans: &[Span], values: &[u64]) -> BTreeMap<&'static str, Vec<u64>> {
    let mut by_key: BTreeMap<(&'static str, u32), u64> = BTreeMap::new();
    for (s, v) in spans.iter().zip(values) {
        *by_key.entry((s.name, s.op_id)).or_default() += v;
    }
    let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for ((name, _op), sum) in by_key {
        out.entry(name).or_default().push(sum);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>, probe: bool) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 0,
            probe,
        }
    }

    #[test]
    fn self_time_of_nested_spans() {
        // op [0,100] > handle [10,90] > eval [20,60]
        let spans = [
            span("op", 0, 100, None, false),
            span("handle", 10, 90, Some(0), false),
            span("eval", 20, 60, Some(1), false),
        ];
        assert_eq!(self_times(&spans), vec![20, 40, 40]);
    }

    #[test]
    fn self_time_of_sibling_spans_counts_overlap_once() {
        // Two disjoint siblings, one overlapping pair, one child that
        // sticks out past the parent's end.
        let spans = [
            span("op", 0, 100, None, false),
            span("a", 0, 30, Some(0), false),
            span("b", 40, 60, Some(0), false),
            span("c", 50, 70, Some(0), false),
            span("d", 90, 130, Some(0), false),
        ];
        // covered = [0,30] + [40,70] + [90,100] = 70
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn probes_subtract_their_duration_and_never_go_negative() {
        // handle ran [0,50]; two probes re-ran its leaf calls later.
        let spans = [
            span("handle", 0, 50, None, false),
            span("fragments", 200, 210, Some(0), true),
            span("eval", 300, 330, Some(0), true),
            span("gate", 400, 405, Some(2), true),
        ];
        assert_eq!(self_times(&spans), vec![10, 10, 25, 5]);
        // A probe slower than its parent clamps the parent at zero.
        let spans = [
            span("handle", 0, 5, None, false),
            span("eval", 10, 30, Some(0), true),
        ];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn recorder_nests_by_call_order_and_sums_per_op() {
        let mut rec = Recorder::new(true);
        for op in 0..2 {
            rec.set_op(op);
            let root = rec.enter("replay");
            rec.leaf("step", || ());
            rec.leaf("step", || ());
            let step = rec.last();
            rec.exit(root);
            rec.probe("inner", step, || ());
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 8);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans[3].probe && !spans[2].probe);
        assert_eq!(spans[4].op_id, 1);
        let ones = vec![1u64; spans.len()];
        let sums = per_op_sums(spans, &ones);
        assert_eq!(sums["step"], vec![2, 2]);
        assert_eq!(sums["replay"], vec![1, 1]);
        assert!(Json::parse(&rec.to_json("w", &Json::Null)).is_ok());
    }

    #[test]
    fn a_recorder_that_is_off_records_nothing() {
        let mut rec = Recorder::new(false);
        let id = rec.enter("x");
        assert_eq!(rec.leaf("y", || 7), 7);
        rec.exit(id);
        assert!(rec.spans().is_empty());
    }
}
