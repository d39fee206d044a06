//! `xst-reqbench` — the request-path benchmark of the XST engine.
//!
//! ```text
//! run --workload W --seed N --seconds S --trace 0|1   one run (what BENCHMARK.json invokes)
//! run [--seed N] [--workload W]... [--seconds S] [--window-s S] [--fixed-ops N]
//!                                                     every run of every workload → out/results.json
//! compare a.json b.json                               verdict per workload × end-to-end metric
//! ```
//!
//! See `README.md` beside this package for what each workload and metric
//! is for, and how to land a gain against them.

#![forbid(unsafe_code)]

mod cores;
mod gen;
mod harness;
mod json;
mod results;
mod spans;
mod spec;
mod stats;
mod workloads;

use results::{Results, WorkloadResult};
use spec::{DEFAULT_FIXED_OPS, DEFAULT_SECONDS, DEFAULT_SEED, DEFAULT_WINDOW_S, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: xst-reqbench run [--seed N] [--workload NAME]... [--seconds S] [--window-s S] [--fixed-ops N] [--trace 0|1]\n       xst-reqbench compare A.json B.json";

struct RunArgs {
    seed: u64,
    workloads: Vec<String>,
    /// Measured seconds of an end-to-end run, all windows together.
    seconds: f64,
    window_s: f64,
    fixed_ops: u32,
    /// `Some` selects a single run; `None` the whole suite.
    trace: Option<bool>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        seed: DEFAULT_SEED,
        workloads: Vec::new(),
        seconds: DEFAULT_SECONDS,
        window_s: DEFAULT_WINDOW_S,
        fixed_ops: DEFAULT_FIXED_OPS,
        trace: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value for {flag}: {value}");
        let positive = |v: f64| (v.is_finite() && v > 0.0).then_some(v);
        match flag.as_str() {
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--workload" => {
                if !WORKLOADS.iter().any(|w| w.name == value) {
                    return Err(format!("unknown workload {value}"));
                }
                parsed.workloads.push(value.to_string());
            }
            "--seconds" => {
                parsed.seconds = value.parse().ok().and_then(positive).ok_or_else(bad)?;
            }
            "--window-s" => {
                parsed.window_s = value.parse().ok().and_then(positive).ok_or_else(bad)?;
            }
            "--fixed-ops" => {
                parsed.fixed_ops = value.parse().ok().filter(|&n| n > 0).ok_or_else(bad)?;
            }
            "--trace" => {
                parsed.trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(parsed)
}

/// `bench/out/`, wherever the benchmark is run from.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_out(file: &str, text: &str) -> Result<PathBuf, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(file);
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// The file a single run leaves for the suite to collect.
fn run_file(workload: &str, traced: bool) -> String {
    format!("{workload}.{}.json", if traced { "layers" } else { "e2e" })
}

/// One run of one workload. Prints every metric by name with its unit,
/// then — as the last line — the driver's JSON result. A run that
/// produced a result exits 0 even when ops failed: the result's `correct`
/// and `failed` say so, and the suite turns them into its exit code.
fn single_run(args: &RunArgs, traced: bool) -> Result<ExitCode, String> {
    let [workload] = args.workloads.as_slice() else {
        return Err("--trace takes exactly one --workload".to_string());
    };
    let awake = cores::KeepAwake::start();
    let result = if traced {
        let (result, trace) = harness::run_traced(workload, args.seed, args.fixed_ops);
        write_out(&format!("{workload}.trace.json"), &trace)?;
        result
    } else {
        harness::run_end_to_end(workload, args.seed, args.seconds, args.window_s)
    };
    drop(awake);
    write_out(&run_file(workload, traced), &result.to_json().pretty())?;
    let metrics = if traced {
        &result.per_layer
    } else {
        &result.end_to_end
    };
    for m in metrics {
        println!("{}", m.line(workload));
    }
    println!("{}", result.driver_line(traced));
    Ok(ExitCode::SUCCESS)
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Every workload, each run in a fresh child process: the end-to-end run,
/// then the traced run. Collects the children's files into
/// `out/results.json`.
fn suite(args: &RunArgs) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let selected =
        |name: &str| args.workloads.is_empty() || args.workloads.iter().any(|w| w == name);
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for spec in WORKLOADS.iter().filter(|w| selected(w.name)) {
        let name = spec.name;
        println!("# {name}: {}", spec.why);
        let mut merged = WorkloadResult::default();
        for traced in [false, true] {
            let status = Command::new(&exe)
                .args(["run", "--workload", name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--window-s", &args.window_s.to_string()])
                .args(["--fixed-ops", &args.fixed_ops.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .status()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            if !status.success() {
                return Err(format!(
                    "{name} (trace {}) ended with {status}",
                    u8::from(traced)
                ));
            }
            let path = out_dir().join(run_file(name, traced));
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let run = WorkloadResult::from_json(&json::Json::parse(&text)?)?;
            all_correct &= run.correct();
            if traced {
                merged.per_layer = run.per_layer;
            } else {
                merged = run;
            }
        }
        workloads.push(merged);
    }
    let results = Results {
        seed: args.seed,
        seconds: args.seconds,
        window_s: args.window_s,
        fixed_ops: args.fixed_ops,
        nproc: std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        git_commit: git_commit(),
        sizes: vec![
            ("wire_scan.members".to_string(), spec::SCAN_MEMBERS),
            ("wire_point.members".to_string(), spec::POINT_MEMBERS),
            ("wire_commit.members".to_string(), spec::COMMIT_MEMBERS),
            ("cluster_rw.members".to_string(), spec::CLUSTER_MEMBERS),
            ("cluster_rw.shards".to_string(), spec::CLUSTER_SHARDS as u64),
            ("inproc_plan.pairs".to_string(), spec::PLAN_PAIRS),
            ("inproc_plan.witnesses".to_string(), spec::PLAN_WITNESSES),
            ("literal.rows".to_string(), spec::LITERAL_ROWS as u64),
            ("txn.rows".to_string(), gen::TXN_ROWS as u64),
        ],
        workloads,
    };
    let path = write_out("results.json", &results.to_json().pretty())?;
    println!("wrote {}", path.display());
    Ok(exit_code(all_correct))
}

fn compare(paths: &[String]) -> Result<ExitCode, String> {
    let [a, b] = paths else {
        return Err(USAGE.to_string());
    };
    let (a, b) = (Results::read(Path::new(a))?, Results::read(Path::new(b))?);
    let (table, regressed) = results::compare(&a, &b);
    print!("{table}");
    Ok(exit_code(!regressed))
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_run(rest).and_then(|run| match run.trace {
            // A single run measures pinned to one CPU where it can be.
            Some(traced) => match cores::rerun_pinned() {
                Some(ended) => Ok(ended),
                None => single_run(&run, traced),
            },
            None => suite(&run),
        }),
        Some((cmd, rest)) if cmd == "compare" => compare(rest),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(ended) => ended,
        Err(why) => {
            eprintln!("{why}");
            ExitCode::from(2)
        }
    }
}
