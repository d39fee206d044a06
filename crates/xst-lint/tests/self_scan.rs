//! The workspace scans clean under its own analyzer — the regression
//! test behind the CI `--deny-all` gate — and the JSON report
//! round-trips through the bundled parser.

use std::path::PathBuf;

/// Every justified finding on today's tree, counted. Raising this
/// number means adding a `// lint:` exemption — do that deliberately
/// (see CONTRIBUTING.md), then bump the pin here.
const JUSTIFIED_FINDINGS: usize = 23;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn workspace_scans_clean() {
    let report = xst_lint::run_lint(&workspace_root()).expect("workspace lints");
    let errors: Vec<String> = report.errors().map(|f| f.to_string()).collect();
    assert!(
        errors.is_empty(),
        "unjustified lint findings on the tree:\n{}",
        errors.join("\n")
    );
    assert!(report.files_checked > 50, "suspiciously few files scanned");
    assert_eq!(
        report.justified_count(),
        JUSTIFIED_FINDINGS,
        "justified-finding count changed; audit the new (or removed) `// lint:` comments"
    );
}

#[test]
fn json_report_round_trips() {
    let report = xst_lint::run_lint(&workspace_root()).expect("workspace lints");
    let doc = report.to_json(true);
    let v = xst_lint::report::parse(&doc)
        .unwrap_or_else(|at| panic!("report JSON malformed at byte {at}"));
    assert_eq!(
        v.get("schema").and_then(|s| s.as_str()),
        Some(xst_lint::report::SCHEMA)
    );
    assert_eq!(v.get("deny_all").and_then(|b| b.as_bool()), Some(true));
    assert_eq!(
        v.get("files_checked").and_then(|n| n.as_num()),
        Some(report.files_checked as f64)
    );
    let findings = v
        .get("findings")
        .and_then(|f| f.as_arr())
        .expect("findings array");
    assert_eq!(findings.len(), report.findings.len());
    for (json, finding) in findings.iter().zip(&report.findings) {
        assert_eq!(
            json.get("file").and_then(|s| s.as_str()),
            Some(finding.file.as_str())
        );
        assert_eq!(
            json.get("line").and_then(|n| n.as_num()),
            Some(finding.line as f64)
        );
        assert_eq!(
            json.get("rule").and_then(|s| s.as_str()),
            Some(finding.rule.as_str())
        );
        assert_eq!(
            json.get("justified").and_then(|b| b.as_bool()),
            Some(finding.justified)
        );
    }
    let counts = v.get("counts").expect("counts object");
    assert_eq!(counts.get("errors").and_then(|n| n.as_num()), Some(0.0));
    assert_eq!(
        counts.get("justified").and_then(|n| n.as_num()),
        Some(JUSTIFIED_FINDINGS as f64)
    );
}
