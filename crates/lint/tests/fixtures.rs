//! Fixture tests: every pv-lint rule is demonstrated end-to-end.
//!
//! For each rule there is a `tests/fixtures/<rule>_fires.rs` file on which
//! the rule must report violations at known lines, and a
//! `tests/fixtures/<rule>_waived.rs` file on which a reasoned
//! `// pv-lint: allow(...)` waiver (or, for the unsafe rule, a proper
//! `SAFETY` comment) must suppress every finding. A final fixture checks
//! that a waiver *without* a reason suppresses nothing and is itself
//! reported. The fixtures are excluded from the tree-wide scan by the
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
fn unsafe_needs_safety_comment_fires() {
    let src = include_str!("fixtures/unsafe_needs_safety_comment_fires.rs");
    let (active, waived) = run(
        "unsafe_needs_safety_comment_fires.rs",
        src,
        "unsafe-needs-safety-comment",
    );
    assert_eq!(lines(&active), vec![6, 7, 16], "{active:?}");
    assert!(waived.is_empty());
}

#[test]
fn unsafe_needs_safety_comment_satisfied_and_waived() {
    let src = include_str!("fixtures/unsafe_needs_safety_comment_waived.rs");
    let (active, waived) = run(
        "unsafe_needs_safety_comment_waived.rs",
        src,
        "unsafe-needs-safety-comment",
    );
    assert!(active.is_empty(), "{active:?}");
    // the SAFETY-commented fn produces no findings at all; the
    // macro-generated shim produces two, both under its waiver
    assert_eq!(waived.len(), 2, "{waived:?}");
}

#[test]
fn cow_discipline_fires() {
    let src = include_str!("fixtures/cow_discipline_fires.rs");
    let (active, waived) = run("cow_discipline_fires.rs", src, "cow-discipline");
    assert_eq!(lines(&active), vec![8, 9], "{active:?}");
    assert!(waived.is_empty());
}

#[test]
fn cow_discipline_waiver_suppresses() {
    let src = include_str!("fixtures/cow_discipline_waived.rs");
    let (active, waived) = run("cow_discipline_waived.rs", src, "cow-discipline");
    assert!(active.is_empty(), "{active:?}");
    assert_eq!(waived.len(), 1, "{waived:?}");
}

#[test]
fn codec_no_lossy_cast_fires() {
    let src = include_str!("fixtures/codec_no_lossy_cast_fires.rs");
    let (active, waived) = run("codec_no_lossy_cast_fires.rs", src, "codec-no-lossy-cast");
    assert_eq!(lines(&active), vec![7, 8], "{active:?}");
    assert!(waived.is_empty());
}

#[test]
fn codec_no_lossy_cast_waiver_suppresses() {
    let src = include_str!("fixtures/codec_no_lossy_cast_waived.rs");
    let (active, waived) = run("codec_no_lossy_cast_waived.rs", src, "codec-no-lossy-cast");
    assert!(active.is_empty(), "{active:?}");
    assert_eq!(waived.len(), 1, "{waived:?}");
}

#[test]
fn io_no_unwrap_fires() {
    let src = include_str!("fixtures/io_no_unwrap_fires.rs");
    let (active, waived) = run("io_no_unwrap_fires.rs", src, "io-no-unwrap");
    assert_eq!(lines(&active), vec![7, 9, 10], "{active:?}");
    assert!(active.iter().all(|d| d.rule == "io-no-unwrap"));
    assert!(waived.is_empty());
}

#[test]
fn io_no_unwrap_waiver_suppresses() {
    let src = include_str!("fixtures/io_no_unwrap_waived.rs");
    let (active, waived) = run("io_no_unwrap_waived.rs", src, "io-no-unwrap");
    assert!(active.is_empty(), "{active:?}");
    // one statement-scoped waiver + one trailing; unwrap_or_else is clean
    assert_eq!(waived.len(), 2, "{waived:?}");
}

#[test]
fn wal_append_paired_fires() {
    let src = include_str!("fixtures/wal_append_paired_fires.rs");
    let (active, waived) = run("wal_append_paired_fires.rs", src, "wal-append-paired");
    // the bare append is missing all four legs; the second fn only drops sync/rollback pairing
    assert_eq!(lines(&active), vec![7, 7, 7, 7, 11], "{active:?}");
    assert!(active.iter().all(|d| d.rule == "wal-append-paired"));
    assert!(
        active
            .iter()
            .any(|d| d.line == 11 && d.message.contains("dropped")),
        "{active:?}"
    );
    assert!(waived.is_empty());
}

#[test]
fn wal_append_paired_waiver_suppresses() {
    let src = include_str!("fixtures/wal_append_paired_waived.rs");
    let (active, waived) = run("wal_append_paired_waived.rs", src, "wal-append-paired");
    assert!(active.is_empty(), "{active:?}");
    assert_eq!(waived.len(), 4, "{waived:?}");
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

[rule.unsafe-needs-safety-comment]
include = [\"**\"]

[rule.cow-discipline]
include = [\"**\"]

[rule.codec-no-lossy-cast]
include = [\"**\"]

[rule.io-no-unwrap]
include = [\"**\"]

[rule.wal-append-paired]
include = [\"**\"]
";
    let cfg = Config::parse(cfg_src).expect("fixture config parses");
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let report = lint_with_config(&root, &cfg).expect("fixture scan succeeds");
    assert_eq!(report.files_scanned, 18);
    assert!(!report.clean());
    // every rule appears among the active diagnostics...
    for rule in [
        "hot-path-no-panic",
        "hot-path-no-alloc",
        "unsafe-needs-safety-comment",
        "cow-discipline",
        "codec-no-lossy-cast",
        "io-no-unwrap",
        "wal-append-paired",
        WAIVER_MISSING_REASON,
    ] {
        assert!(
            report.diagnostics.iter().any(|d| d.rule == rule),
            "no active {rule} diagnostic in the corpus"
        );
    }
    // ...and every *_waived.rs fixture contributes suppressed findings.
    assert!(report.waived.len() >= 10, "{:?}", report.waived);
    let json = report.to_json();
    assert!(json.contains("\"version\""));
    assert!(json.contains("waiver-missing-reason"));
}
