//! The benchmark's fixed vocabulary: workload names, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repo root
//! states the same tables for the driver; a unit test keeps the two equal.

/// A workload and the reason it exists (the layer it loads, and which
/// optimisation it is the bypass for).
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "wire_scan",
        why: "eval(table t), 2000 members, 44 KB text reply: bound by the value's text codec (proto encode, parse_set decode) and frame CRC; a value-codec change must move it",
    },
    WorkloadSpec {
        name: "wire_point",
        why: "eval(t intersect 16-row literal) over 10000 members, 16-member reply: codec and framing idle, so round trip, session dispatch and the intersect kernel do the work; bypass for codec changes",
    },
    WorkloadSpec {
        name: "wire_commit",
        why: "begin; put 8; delete 8; commit on a 5000-member table: publish_writes O(n*k) and WAL under the commit lock; a read-side gain that taxes writes shows here",
    },
    WorkloadSpec {
        name: "cluster_rw",
        why: "Coordinator over 2 shard servers, 4000 members: the commit txn through 2PC, then eval(t intersect 16-literal) by whole-fragment FragRead; plan shipping and decision-log work show only here",
    },
    WorkloadSpec {
        name: "inproc_plan",
        why: "no wire, no storage: optimize + gated eval_parallel of a restrict/domain/image plan over 20000-pair relations; kernel-bound, must not move under wire or storage changes",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's value by which the metric may worsen before
    /// it counts as a regression; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

/// The timed end-to-end metrics, as `BENCHMARK.json` gates them. Every
/// bound sits at the contract's cap: between back-to-back sets of ten runs
/// the sandbox itself drifts by 5–25 % over minutes (`baseline/spreads.txt`),
/// and a bound tighter than the machine's own drift rejects unchanged code.
pub const END_TO_END: [MetricSpec; 4] = [
    gated("setup_s", "s", Better::Lower, 0.25),
    gated("op_p50_us", "us", Better::Lower, 0.25),
    gated("op_p90_us", "us", Better::Lower, 0.25),
    gated("ops_per_s", "1/s", Better::Higher, 0.25),
];

/// `setup_s` may also worsen by this much in absolute terms (`compare`
/// only; the driver knows shares alone).
pub const SETUP_FLOOR_S: f64 = 0.1;

/// The two correctness fractions. `compare` gates them at "any change for
/// the worse"; to the driver they travel as the result line's `failed`,
/// `attempted` and `correct`, and as per-layer metrics, because a gated
/// metric there must never read 0 or repeat digit for digit.
pub const FAILED_FRAC: &str = "failed_frac";
pub const CHECKED_FRAC: &str = "checked_frac";

use Better::{Higher, Lower};

pub const PER_LAYER: [MetricSpec; 49] = [
    layer(FAILED_FRAC, "frac", Lower),
    layer(CHECKED_FRAC, "frac", Higher),
    layer("client.ping_p50_us", "us", Lower),
    layer("client.op_p99_us", "us", Lower),
    layer("client.residual_p50_us", "us", Lower),
    layer("coord.begin_p50_us", "us", Lower),
    layer("coord.put_p50_us", "us", Lower),
    layer("coord.commit_p50_us", "us", Lower),
    layer("coord.eval_p50_us", "us", Lower),
    layer("coord.frag_bytes_per_eval", "bytes", Lower),
    layer("coord.decision_log_bytes", "bytes", Lower),
    layer("coord.decisions", "count", Lower),
    layer("wire.frame_encode_p50_us", "us", Lower),
    layer("wire.frame_decode_p50_us", "us", Lower),
    layer("wire.req_bytes", "bytes", Lower),
    layer("wire.resp_bytes", "bytes", Lower),
    layer("proto.req_encode_p50_us", "us", Lower),
    layer("proto.req_decode_p50_us", "us", Lower),
    layer("proto.resp_encode_p50_us", "us", Lower),
    layer("proto.resp_decode_p50_us", "us", Lower),
    layer("core.display_p50_us", "us", Lower),
    layer("core.parse_set_p50_us", "us", Lower),
    layer("core.op_ns.union", "ns", Lower),
    layer("core.op_ns.intersect", "ns", Lower),
    layer("core.op_ns.difference", "ns", Lower),
    layer("core.op_ns.restrict", "ns", Lower),
    layer("core.op_ns.domain", "ns", Lower),
    layer("core.op_ns.image", "ns", Lower),
    layer("core.op_ns.rel_product", "ns", Lower),
    layer("core.op_ns.cross", "ns", Lower),
    layer("session.handle_p50_us", "us", Lower),
    layer("session.serve_one_p50_us", "us", Lower),
    layer("storage.fragments_p50_us", "us", Lower),
    layer("storage.insert_p50_us", "us", Lower),
    layer("storage.commit_p50_us", "us", Lower),
    layer("storage.wal_bytes_per_txn", "bytes", Lower),
    layer("storage.page_writes_per_txn", "count", Lower),
    layer("storage.versions_retained", "count", Lower),
    layer("storage.rss_kb_per_txn", "KiB", Lower),
    layer("analyze.gate_p50_us", "us", Lower),
    layer("query.merge_bindings_p50_us", "us", Lower),
    layer("query.optimize_p50_us", "us", Lower),
    layer("query.eval_p50_us", "us", Lower),
    layer("query.kernel_share", "ratio", Higher),
    layer("query.rows_examined_per_result", "ratio", Lower),
    layer("query.nodes", "count", Lower),
    layer("obs.collector_on_ratio", "ratio", Lower),
    layer("trace.coverage", "ratio", Higher),
    layer("trace.overhead_ratio", "ratio", Lower),
];

/// The `core.op_ns.*` suffixes in `xst_query::EvalStats::per_op` order.
pub const OP_KIND_NAMES: [&str; 8] = [
    "union",
    "intersect",
    "difference",
    "restrict",
    "domain",
    "image",
    "rel_product",
    "cross",
];

/// Input sizes for the 2-core box; fixed, recorded in `results.json`.
pub const SCAN_MEMBERS: u64 = 2_000;
pub const POINT_MEMBERS: u64 = 10_000;
pub const COMMIT_MEMBERS: u64 = 5_000;
pub const CLUSTER_MEMBERS: u64 = 4_000;
pub const CLUSTER_SHARDS: usize = 2;
pub const PLAN_PAIRS: u64 = 20_000;
pub const PLAN_WITNESSES: u64 = 2_500;
/// Members in the probe literal of `wire_point` and `cluster_rw`.
pub const LITERAL_ROWS: usize = 16;

pub const DEFAULT_SEED: u64 = 1977;
/// Measured seconds of an end-to-end run, cut into windows of…
pub const DEFAULT_SECONDS: f64 = 15.0;
/// …this length: long enough for ≥ 40 ops of the slowest workload, short
/// enough that several fall inside one quiet stretch of the machine.
pub const DEFAULT_WINDOW_S: f64 = 1.0;
pub const WARMUP_S: f64 = 1.0;
pub const DEFAULT_FIXED_OPS: u32 = 300;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn text<'a>(j: &'a Json, key: &str) -> &'a str {
        j.get(key).and_then(Json::as_str).unwrap_or_default()
    }

    fn listed<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
        doc.get(key).and_then(Json::as_arr).unwrap_or_default()
    }

    fn assert_metrics_match(listed: &[Json], specs: &[MetricSpec]) {
        assert_eq!(listed.len(), specs.len());
        for (j, spec) in listed.iter().zip(specs) {
            let better = match spec.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            assert_eq!(text(j, "name"), spec.name);
            assert_eq!(text(j, "unit"), spec.unit, "{}", spec.name);
            assert_eq!(text(j, "better"), better, "{}", spec.name);
            assert_eq!(
                j.get("bound").and_then(Json::as_f64),
                spec.bound,
                "{}",
                spec.name
            );
        }
    }

    /// `BENCHMARK.json` is what the driver reads; these tables are what
    /// the program prints. They must say the same thing.
    #[test]
    fn benchmark_json_states_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();

        let workloads = listed(&doc, "workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, spec) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(text(j, "name"), spec.name);
            assert_eq!(text(j, "why"), spec.why);
            assert!(spec.why.chars().count() <= 200 && !spec.why.contains('\n'));
        }
        assert_metrics_match(listed(&doc, "end_to_end"), &END_TO_END);
        assert_metrics_match(listed(&doc, "per_layer"), &PER_LAYER);
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));

        assert_eq!(listed(&doc, "paths"), [Json::str("bench")]);
        let seconds = doc.get("run_seconds").and_then(Json::as_f64);
        assert_eq!(seconds, Some(DEFAULT_SECONDS));
        let command: Vec<&str> = listed(&doc, "command")
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert_eq!(command.last(), Some(&"run"));
        assert!(command.contains(&"bench/Cargo.toml"));
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        for n in &names {
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
        for kind in OP_KIND_NAMES {
            let name = format!("core.op_ns.{kind}");
            assert!(PER_LAYER.iter().any(|m| m.name == name));
        }
    }
}
