//! Regenerate every experiment table. Usage:
//!
//! ```text
//! report            # all experiments, default sizes
//! report e1 e3      # selected experiments
//! report --quick    # smaller sizes (CI-friendly)
//! ```
//!
//! Experiments that produce structured numbers (E7, E12–E22) are also
//! written to `BENCH_PR2.json` at the repository root — see EXPERIMENTS.md
//! ("Machine-readable results") for the format.

use xst_bench::experiments as exp;
use xst_bench::report_json;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let selected: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let want = |name: &str| selected.is_empty() || selected.contains(&name);

    let e1_sizes: &[usize] = if quick {
        &[100, 1_000]
    } else {
        &[100, 1_000, 10_000, 50_000]
    };
    let e3_sizes: &[usize] = if quick {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let e4_sizes: &[usize] = if quick {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let e5_sizes: &[usize] = if quick {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000, 500_000]
    };
    let e6_sizes: &[usize] = if quick {
        &[1_000]
    } else {
        &[1_000, 10_000, 50_000]
    };
    let e2_stages: &[usize] = &[2, 3, 5, 8];

    println!("xst experiment report (seed {:#x})", xst_bench::data::SEED);
    let mut json_entries = Vec::new();
    if want("f") {
        print!("{}", exp::f_formal_artifacts());
    }
    if want("e1") {
        print!("{}", exp::e1_set_vs_record(e1_sizes));
    }
    if want("e2") {
        print!(
            "{}",
            exp::e2_composition(e2_stages, if quick { 1_000 } else { 10_000 }, 64)
        );
    }
    if want("e3") {
        print!("{}", exp::e3_pushdown(e3_sizes));
    }
    if want("e4") {
        print!("{}", exp::e4_image_fusion(e4_sizes));
    }
    if want("e5") {
        print!("{}", exp::e5_canonical(e5_sizes));
    }
    if want("e6") {
        print!("{}", exp::e6_restructure(e6_sizes));
    }
    if want("e7") {
        let e7_sizes: &[usize] = if quick {
            &[1_000, 10_000]
        } else {
            &[1_000, 10_000, 100_000]
        };
        let (table, entries) =
            exp::e7_witness_ablation(e7_sizes, if quick { 2_000 } else { 20_000 });
        print!("{table}");
        json_entries.extend(entries);
    }
    if want("e8") {
        let e8_sizes: &[usize] = if quick { &[10_000] } else { &[10_000, 100_000] };
        print!("{}", exp::e8_parallel_load(e8_sizes, &[1, 2, 4, 8]));
    }
    if want("e9") {
        let e9_sizes: &[usize] = if quick { &[10_000] } else { &[10_000, 100_000] };
        print!("{}", exp::e9_column_store(e9_sizes));
    }
    if want("e10") {
        let n = if quick { 10_000 } else { 100_000 };
        print!("{}", exp::e10_parallel_ops(n, &[1, 2, 4, 8]));
    }
    if want("e11") {
        let n = if quick { 10_000 } else { 50_000 };
        print!("{}", exp::e11_sharded_pool(n, &[1, 2, 4, 8], 4));
    }
    if want("e12") {
        let (n, iters) = if quick { (1_000, 7) } else { (5_000, 15) };
        let (table, entries) = exp::e12_obs_overhead(n, iters);
        print!("{table}");
        json_entries.extend(entries);
    }
    if want("e13") {
        let (n, iters) = if quick { (2_000, 7) } else { (10_000, 15) };
        let (table, entries) = exp::e13_fault_overhead(n, iters);
        print!("{table}");
        json_entries.extend(entries);
    }
    if want("e14") {
        let (n, commits) = if quick { (1_000, 100) } else { (5_000, 300) };
        let (table, entries) = exp::e14_txn_snapshot_scaling(n, commits, &[0, 2, 4]);
        print!("{table}");
        json_entries.extend(entries);
    }
    if want("e15") {
        let (n, iters) = if quick { (5_000, 7) } else { (50_000, 15) };
        let (table, entries) = exp::e15_analysis(n, iters);
        print!("{table}");
        json_entries.extend(entries);
    }
    if want("e16") {
        let (n, requests) = if quick { (500, 160) } else { (2_000, 480) };
        let (table, entries) = exp::e16_server_sessions(n, requests, &[1, 4, 16]);
        print!("{table}");
        json_entries.extend(entries);
    }
    if want("e17") {
        let (n, requests, iters) = if quick {
            (500, 64, 9)
        } else {
            (2_000, 200, 15)
        };
        let (table, entries) = exp::e17_tracing_overhead(n, requests, iters);
        print!("{table}");
        json_entries.extend(entries);
    }
    if want("e18") {
        let (n, iters) = if quick { (5_000, 9) } else { (50_000, 15) };
        let (table, entries) = exp::e18_sharded_eval(n, iters, &[1, 2, 4]);
        print!("{table}");
        json_entries.extend(entries);
    }
    if want("e19") {
        let (n, iters) = if quick { (2_000, 7) } else { (20_000, 11) };
        let (table, entries) = exp::e19_wire_coordinator(n, iters);
        print!("{table}");
        json_entries.extend(entries);
    }
    if want("e20") {
        let iters = if quick { 3 } else { 7 };
        let (table, entries) = exp::e20_lint_workspace(iters);
        print!("{table}");
        json_entries.extend(entries);
    }
    if want("e21") {
        let sizes: &[usize] = if quick { &[10_000] } else { &[10_000, 100_000] };
        let (table, entries) = exp::e21_skewed_merge(sizes);
        print!("{table}");
        json_entries.extend(entries);
    }
    if want("e22") {
        let (pairs, witnesses) = if quick { (2_000, 250) } else { (20_000, 2_500) };
        let (table, entries) = exp::e22_rule_traffic(pairs, witnesses, 15);
        print!("{table}");
        json_entries.extend(entries);
    }
    if !json_entries.is_empty() {
        let json = report_json::render_json(&json_entries, xst_bench::data::SEED);
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PR2.json");
        match std::fs::write(path, &json) {
            Ok(()) => println!("wrote {}", path),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
}
