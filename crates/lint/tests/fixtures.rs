//! Fixture tests: every pv-lint rule is demonstrated end-to-end.
//!
//! For each rule there is a `tests/fixtures/<rule>_fires.rs` file on which
//! the rule must report violations at known lines, and a
//! `tests/fixtures/<rule>_waived.rs` file on which a reasoned
//! `// pv-lint: allow(...)` waiver must suppress every finding. A final
//! fixture checks that a waiver *without* a reason suppresses nothing and
//! is itself reported. The fixtures are excluded from the tree-wide scan by the
//! repo-root `lint.toml`, so they stay red on purpose.

use pv_lint::config::Config;
use pv_lint::lint_with_config;
use pv_lint::rules::{check_file, Diagnostic, WAIVER_MISSING_REASON};
use std::path::Path;

/// Runs one rule over a fixture and returns (active, waived).
fn run(fixture: &str, src: &str, rule: &str) -> (Vec<Diagnostic>, Vec<Diagnostic>) {
    check_file(fixture, src, &[rule])
}

fn lines(diags: &[Diagnostic]) -> Vec<u32> {
    diags.iter().map(|d| d.line).collect()
}

#[test]
fn hot_path_no_panic_fires() {
    let src = include_str!("fixtures/hot_path_no_panic_fires.rs");
    let (active, waived) = run("hot_path_no_panic_fires.rs", src, "hot-path-no-panic");
    assert_eq!(lines(&active), vec![7, 8, 10, 12], "{active:?}");
    assert!(active.iter().all(|d| d.rule == "hot-path-no-panic"));
    assert!(waived.is_empty());
}

#[test]
fn hot_path_no_panic_waiver_suppresses() {
    let src = include_str!("fixtures/hot_path_no_panic_waived.rs");
    let (active, waived) = run("hot_path_no_panic_waived.rs", src, "hot-path-no-panic");
    assert!(active.is_empty(), "{active:?}");
    // one trailing-waived indexing + four under the fn-scope waiver
    assert_eq!(waived.len(), 5, "{waived:?}");
}

#[test]
fn hot_path_no_alloc_fires() {
    let src = include_str!("fixtures/hot_path_no_alloc_fires.rs");
    let (active, waived) = run("hot_path_no_alloc_fires.rs", src, "hot-path-no-alloc");
    assert_eq!(lines(&active), vec![6, 7, 8, 9], "{active:?}");
    assert!(active.iter().all(|d| d.rule == "hot-path-no-alloc"));
    assert!(waived.is_empty());
}

#[test]
fn hot_path_no_alloc_waiver_suppresses() {
    let src = include_str!("fixtures/hot_path_no_alloc_waived.rs");
    let (active, waived) = run("hot_path_no_alloc_waived.rs", src, "hot-path-no-alloc");
    assert!(active.is_empty(), "{active:?}");
    assert_eq!(waived.len(), 1, "{waived:?}");
}

#[test]
fn waiver_without_reason_is_reported_and_suppresses_nothing() {
    let src = include_str!("fixtures/waiver_missing_reason.rs");
    let (active, waived) = run("waiver_missing_reason.rs", src, "hot-path-no-panic");
    assert!(waived.is_empty(), "{waived:?}");
    assert_eq!(active.len(), 2, "{active:?}");
    assert!(active
        .iter()
        .any(|d| d.rule == WAIVER_MISSING_REASON && d.line == 5));
    assert!(active
        .iter()
        .any(|d| d.rule == "hot-path-no-panic" && d.line == 6));
}

/// End-to-end through the config + walker + report layers: point the engine
/// at the fixture directory with every rule enabled everywhere and check
/// the aggregate report (and its JSON form) reflects the corpus.
#[test]
fn full_engine_over_fixture_corpus() {
    let cfg_src = "\
[rule.hot-path-no-panic]
include = [\"**\"]

[rule.hot-path-no-alloc]
include = [\"**\"]
";
    let cfg = Config::parse(cfg_src).expect("fixture config parses");
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let report = lint_with_config(&root, &cfg).expect("fixture scan succeeds");
    assert_eq!(report.files_scanned, 8);
    assert!(!report.clean());
    // every rule appears among the active diagnostics...
    for rule in [
        "hot-path-no-panic",
        "hot-path-no-alloc",
        WAIVER_MISSING_REASON,
    ] {
        assert!(
            report.diagnostics.iter().any(|d| d.rule == rule),
            "no active {rule} diagnostic in the corpus"
        );
    }
    // ...and every *_waived.rs fixture contributes suppressed findings.
    for file in [
        "hot_path_no_panic_waived.rs",
        "hot_path_no_alloc_waived.rs",
        "transitive_callee_waived.rs",
    ] {
        assert!(
            report.waived.iter().any(|d| d.file == file),
            "nothing waived in {file}: {:?}",
            report.waived
        );
    }
    let json = report.to_json();
    assert!(json.contains("\"version\""));
    assert!(json.contains("waiver-missing-reason"));
}
