//! The result files (`out/results.json`, the per-workload files a child
//! run leaves for the suite) and the `compare` verdicts over two of them.

use crate::json::Json;
use crate::spec::{Better, MetricSpec, CHECKED_FRAC, END_TO_END, FAILED_FRAC, SETUP_FLOOR_S};

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    /// How well the run backs the value up: best to third-best window,
    /// or max − min of the repeated set-ups.
    pub spread: Option<f64>,
    /// Ops measured, one count per window (for `setup_s`: set-ups made).
    pub samples: Vec<u64>,
    /// The denominator of a ratio, in the numerator's unit.
    pub base: Option<f64>,
}

impl Metric {
    pub fn new(name: &str, unit: &str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            spread: None,
            samples: Vec::new(),
            base: None,
        }
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("value".to_string(), Json::Num(self.value)),
            ("unit".to_string(), Json::str(&*self.unit)),
        ];
        if let Some(s) = self.spread {
            fields.push(("spread".to_string(), Json::Num(s)));
        }
        if !self.samples.is_empty() {
            let counts = self.samples.iter().map(|&n| n.into()).collect();
            fields.push(("samples".to_string(), Json::Arr(counts)));
        }
        if let Some(b) = self.base {
            fields.push(("base".to_string(), Json::Num(b)));
        }
        Json::Obj(fields)
    }

    fn from_json(name: &str, j: &Json) -> Result<Metric, String> {
        let num = |key: &str| j.get(key).and_then(Json::as_f64);
        Ok(Metric {
            name: name.to_string(),
            unit: j
                .get("unit")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("metric {name} has no unit"))?
                .to_string(),
            value: num("value").ok_or_else(|| format!("metric {name} has no value"))?,
            spread: num("spread"),
            samples: j
                .get("samples")
                .and_then(Json::as_arr)
                .map(|a| {
                    a.iter()
                        .filter_map(Json::as_f64)
                        .map(|n| n as u64)
                        .collect()
                })
                .unwrap_or_default(),
            base: num("base"),
        })
    }

    /// `workload metric value unit`, with spread and base when present.
    pub fn line(&self, workload: &str) -> String {
        let mut line = format!("{workload} {} {} {}", self.name, self.value, self.unit);
        if let Some(s) = self.spread {
            line.push_str(&format!(" (spread {s})"));
        }
        if let Some(b) = self.base {
            line.push_str(&format!(" (base {b})"));
        }
        line
    }
}

#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkloadResult {
    pub name: String,
    /// Where the run's threads executed (see `cores.rs`).
    pub cores: String,
    pub attempted: u64,
    pub failed: u64,
    pub checked: u64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn metrics_to_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| (m.name.clone(), m.to_json()))
            .collect(),
    )
}

fn metrics_from_json(j: Option<&Json>) -> Result<Vec<Metric>, String> {
    j.and_then(Json::as_obj)
        .unwrap_or_default()
        .iter()
        .map(|(name, m)| Metric::from_json(name, m))
        .collect()
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checked == self.attempted
    }

    /// `failed_frac` and `checked_frac` of this run's ops.
    pub fn fractions(&self) -> [Metric; 2] {
        let of_attempted = |n: u64| n as f64 / self.attempted as f64;
        [
            Metric::new(FAILED_FRAC, "frac", of_attempted(self.failed)),
            Metric::new(CHECKED_FRAC, "frac", of_attempted(self.checked)),
        ]
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(&*self.name)),
            ("cores", Json::str(&*self.cores)),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("checked", self.checked.into()),
            ("end_to_end", metrics_to_json(&self.end_to_end)),
            ("per_layer", metrics_to_json(&self.per_layer)),
        ])
    }

    pub fn from_json(j: &Json) -> Result<WorkloadResult, String> {
        let count = |key: &str| {
            j.get(key)
                .and_then(Json::as_f64)
                .map(|n| n as u64)
                .ok_or_else(|| format!("workload has no {key}"))
        };
        Ok(WorkloadResult {
            name: j
                .get("name")
                .and_then(Json::as_str)
                .ok_or("workload has no name")?
                .to_string(),
            cores: j
                .get("cores")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            attempted: count("attempted")?,
            failed: count("failed")?,
            checked: count("checked")?,
            end_to_end: metrics_from_json(j.get("end_to_end"))?,
            per_layer: metrics_from_json(j.get("per_layer"))?,
        })
    }

    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and the metrics `BENCHMARK.json` lists for this kind of run.
    pub fn driver_line(&self, traced: bool) -> Json {
        let listed: Vec<&Metric> = if traced {
            self.per_layer.iter().collect()
        } else {
            self.end_to_end
                .iter()
                .filter(|m| END_TO_END.iter().any(|s| s.name == m.name))
                .collect()
        };
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            (
                "metrics",
                Json::Obj(
                    listed
                        .into_iter()
                        .map(|m| {
                            let v = Json::obj([
                                ("value", Json::Num(m.value)),
                                ("unit", Json::str(&*m.unit)),
                            ]);
                            (m.name.clone(), v)
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// One full set of runs: what `out/results.json` holds.
#[derive(Debug, Clone, PartialEq)]
pub struct Results {
    pub seed: u64,
    pub seconds: f64,
    pub window_s: f64,
    pub fixed_ops: u32,
    pub nproc: u64,
    pub git_commit: String,
    /// Input sizes, by name.
    pub sizes: Vec<(String, u64)>,
    pub workloads: Vec<WorkloadResult>,
}

impl Results {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::str("xst-reqbench/1")),
            // A u64 seed may not fit a JSON number; keep its digits.
            ("seed", Json::str(self.seed.to_string())),
            ("seconds", Json::Num(self.seconds)),
            ("window_s", Json::Num(self.window_s)),
            ("fixed_ops", u64::from(self.fixed_ops).into()),
            ("nproc", self.nproc.into()),
            ("git_commit", Json::str(&*self.git_commit)),
            (
                "sizes",
                Json::Obj(
                    self.sizes
                        .iter()
                        .map(|(k, v)| (k.clone(), (*v).into()))
                        .collect(),
                ),
            ),
            (
                "workloads",
                Json::Arr(self.workloads.iter().map(WorkloadResult::to_json).collect()),
            ),
        ])
    }

    pub fn from_json(j: &Json) -> Result<Results, String> {
        let num = |key: &str| {
            j.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("results have no {key}"))
        };
        Ok(Results {
            seed: j
                .get("seed")
                .and_then(Json::as_str)
                .and_then(|s| s.parse().ok())
                .ok_or("results have no seed")?,
            seconds: num("seconds")?,
            window_s: num("window_s")?,
            fixed_ops: num("fixed_ops")? as u32,
            nproc: num("nproc")? as u64,
            git_commit: j
                .get("git_commit")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string(),
            sizes: j
                .get("sizes")
                .and_then(Json::as_obj)
                .unwrap_or_default()
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()? as u64)))
                .collect(),
            workloads: j
                .get("workloads")
                .and_then(Json::as_arr)
                .ok_or("results have no workloads")?
                .iter()
                .map(WorkloadResult::from_json)
                .collect::<Result<_, _>>()?,
        })
    }

    pub fn read(path: &std::path::Path) -> Result<Results, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Results::from_json(&Json::parse(&text)?).map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Worse than the bound allows, by more than the runs' own spread.
    Regressed,
    /// The spread is wider than the bound: this pair of runs cannot say.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `b` against `a` on one timed metric. `worse` is how far `b` is
/// on the wrong side of `a`, as a share of `a`; the spread is the wider
/// of the two runs' window spreads, as a share of its own value.
pub fn judge(spec: &MetricSpec, a: &Metric, b: &Metric) -> (f64, Verdict) {
    let bound = spec.bound.expect("only gated metrics are judged");
    let worse = match spec.better {
        Better::Lower => (b.value - a.value) / a.value,
        Better::Higher => (a.value - b.value) / a.value,
    };
    let allowed = if spec.name == "setup_s" {
        bound.max(SETUP_FLOOR_S / a.value)
    } else {
        bound
    };
    let rel_spread = |m: &Metric| m.spread.unwrap_or(0.0) / m.value;
    let spread = rel_spread(a).max(rel_spread(b));
    let verdict = if worse > allowed.max(spread) {
        Verdict::Regressed
    } else if spread > allowed {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

/// Judge the two correctness fractions: any move for the worse regresses.
fn judge_fraction(name: &str, a: f64, b: f64) -> Verdict {
    let worse = if name == FAILED_FRAC { b > a } else { b < a };
    if worse {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// The `compare` table, one row per workload × end-to-end metric, and
/// whether any row regressed.
pub fn compare(a: &Results, b: &Results) -> (String, bool) {
    let mut out = format!(
        "{:<12} {:<13} {:>14} {:>14} {:>9} {:>7}  verdict\n",
        "workload", "metric", "a", "b", "worse", "bound"
    );
    let mut regressed = false;
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            out.push_str(&format!("{:<12} missing from b\n", wa.name));
            regressed = true;
            continue;
        };
        for ma in &wa.end_to_end {
            let Some(mb) = wb.end_to_end.iter().find(|m| m.name == ma.name) else {
                continue;
            };
            let (worse, bound, verdict) = match END_TO_END.iter().find(|s| s.name == ma.name) {
                Some(spec) => {
                    let (worse, verdict) = judge(spec, ma, mb);
                    let bound = format!("{:.0}%", spec.bound.unwrap_or(0.0) * 100.0);
                    (format!("{:+.1}%", worse * 100.0), bound, verdict)
                }
                None => (
                    format!("{:+}", mb.value - ma.value),
                    "any".to_string(),
                    judge_fraction(&ma.name, ma.value, mb.value),
                ),
            };
            regressed |= verdict == Verdict::Regressed;
            out.push_str(&format!(
                "{:<12} {:<13} {:>14.3} {:>14.3} {:>9} {:>7}  {}\n",
                wa.name,
                ma.name,
                ma.value,
                mb.value,
                worse,
                bound,
                verdict.as_str()
            ));
        }
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timed(name: &str, value: f64, spread: f64) -> Metric {
        Metric {
            spread: Some(spread),
            samples: vec![100, 101, 99],
            ..Metric::new(name, "us", value)
        }
    }

    fn results(p50: f64, failed: u64) -> Results {
        let mut w = WorkloadResult {
            name: "wire_scan".to_string(),
            cores: "pinned to cpu 1".to_string(),
            attempted: 1000,
            failed,
            checked: 1000,
            end_to_end: vec![timed("op_p50_us", p50, 4.0)],
            per_layer: vec![Metric {
                base: Some(280.5),
                ..Metric::new("trace.overhead_ratio", "ratio", 1.04)
            }],
        };
        w.end_to_end.extend(w.fractions());
        Results {
            seed: u64::MAX,
            seconds: 15.0,
            window_s: 1.0,
            fixed_ops: 300,
            nproc: 2,
            git_commit: "abc123".to_string(),
            sizes: vec![("wire_scan.members".to_string(), 2000)],
            workloads: vec![w],
        }
    }

    #[test]
    fn results_round_trip_through_their_file_form() {
        let r = results(1260.25, 0);
        let text = r.to_json().pretty();
        assert_eq!(Results::from_json(&Json::parse(&text).unwrap()).unwrap(), r);
    }

    /// A metric gated at 10 %, whatever the shipped bounds are.
    fn gated_at_a_tenth(name: &'static str, better: Better) -> MetricSpec {
        MetricSpec {
            name,
            unit: "us",
            better,
            bound: Some(0.10),
        }
    }

    #[test]
    fn judge_separates_ok_regressed_and_unresolved() {
        let p50 = gated_at_a_tenth("op_p50_us", Better::Lower);
        let verdict = |a: f64, b: f64, spread: f64| {
            judge(
                &p50,
                &timed("op_p50_us", a, 4.0),
                &timed("op_p50_us", b, spread),
            )
            .1
        };
        assert_eq!(verdict(100.0, 108.0, 4.0), Verdict::Ok);
        assert_eq!(verdict(100.0, 80.0, 4.0), Verdict::Ok);
        assert_eq!(verdict(100.0, 112.0, 4.0), Verdict::Regressed);
        // Spread wider than the bound, move inside the spread: cannot say.
        assert_eq!(verdict(100.0, 112.0, 30.0), Verdict::Unresolved);
        // …but a move larger than even that spread is a regression.
        assert_eq!(verdict(100.0, 150.0, 30.0), Verdict::Regressed);
        // Higher-is-better metrics regress downwards.
        let rate = gated_at_a_tenth("ops_per_s", Better::Higher);
        let a = timed("ops_per_s", 1000.0, 10.0);
        let slower = timed("ops_per_s", 880.0, 10.0);
        assert_eq!(judge(&rate, &a, &slower).1, Verdict::Regressed);
        let faster = timed("ops_per_s", 1200.0, 10.0);
        assert_eq!(judge(&rate, &a, &faster).1, Verdict::Ok);
        // A small set-up may move by the absolute floor.
        let setup = gated_at_a_tenth("setup_s", Better::Lower);
        let a = timed("setup_s", 0.02, 0.001);
        let b = timed("setup_s", 0.09, 0.001);
        assert_eq!(judge(&setup, &a, &b).1, Verdict::Ok);
    }

    #[test]
    fn compare_flags_a_new_failure_and_a_slower_median() {
        let base = results(100.0, 0);
        assert!(!compare(&base, &results(104.0, 0)).1);
        let (table, regressed) = compare(&base, &results(100.0, 1));
        assert!(regressed && table.contains("failed_frac"));
        assert!(compare(&base, &results(140.0, 0)).1);
    }
}
