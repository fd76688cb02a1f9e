//! End-to-end tests of the interprocedural layer (PR 10): entry-point
//! closures carry body-scoped rules across files, honour `exclude`
//! carve-outs and the callee file's waiver comments, and — when asked —
//! flag calls the conservative resolver cannot follow.
//!
//! The fixture triple mirrors the real workspace shape: a clean entry file
//! (`execute_into`, `query_batch_into`, `Wal::sync`) and a callee file
//! holding the planted violations, including the acceptance case from the
//! roadmap — an `unwrap()` planted in `min_dist_sq` must be caught from
//! `execute_into` even though it lives in another file.

use pv_lint::config::Config;
use pv_lint::lint_sources;

const ENTRY: &str = include_str!("fixtures/transitive_entry.rs");
const FIRES: &str = include_str!("fixtures/transitive_callee_fires.rs");
const WAIVED: &str = include_str!("fixtures/transitive_callee_waived.rs");

fn files(callee: &str) -> Vec<(String, String)> {
    vec![
        ("crates/fake/src/entry.rs".to_string(), ENTRY.to_string()),
        ("crates/fake/src/callee.rs".to_string(), callee.to_string()),
    ]
}

fn cfg(toml: &str) -> Config {
    Config::parse(toml).expect("test config parses")
}

#[test]
fn planted_unwrap_in_min_dist_sq_is_caught_across_files() {
    let cfg = cfg("[rule.hot-path-no-panic]\nentry-points = [\"execute_into\"]\n");
    let report = lint_sources(&files(FIRES), &cfg);
    let in_callee: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.file.ends_with("callee.rs") && d.rule == "hot-path-no-panic")
        .collect();
    assert!(
        in_callee.iter().any(|d| d.line == 8),
        "planted unwrap in min_dist_sq not caught: {in_callee:?}"
    );
    assert!(
        in_callee.iter().any(|d| d.line == 9),
        "coords[0] indexing in min_dist_sq not caught: {in_callee:?}"
    );
    // The io helper is NOT reachable from execute_into — closures must not
    // bleed into unreached functions.
    assert!(
        in_callee.iter().all(|d| d.line < 18),
        "flush_meta is outside the execute_into closure: {in_callee:?}"
    );
    // The entry file itself is clean.
    assert!(
        report
            .diagnostics
            .iter()
            .all(|d| !d.file.ends_with("entry.rs")),
        "{:?}",
        report.diagnostics
    );
}

#[test]
fn alloc_closure_reaches_helper_bodies() {
    let cfg = cfg("[rule.hot-path-no-alloc]\nentry-points = [\"*_into\"]\n");
    let report = lint_sources(&files(FIRES), &cfg);
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.rule == "hot-path-no-alloc"
                && d.file.ends_with("callee.rs")
                && d.line == 13
                && d.message.contains("Vec::new")),
        "{:?}",
        report.diagnostics
    );
}

#[test]
fn io_closure_follows_wal_methods_across_files() {
    let cfg = cfg("[rule.hot-path-no-panic]\nentry-points = [\"Wal::*\"]\n");
    let report = lint_sources(&files(FIRES), &cfg);
    let in_callee: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.file.ends_with("callee.rs"))
        .collect();
    assert!(
        in_callee.iter().any(|d| d.rule == "hot-path-no-panic"
            && d.line == 19
            && d.message.contains(".unwrap()")),
        "{:?}",
        report.diagnostics
    );
    // The qualified `Wal::*` closure reaches flush_meta through Wal::sync
    // and nothing else.
    assert!(in_callee.iter().all(|d| d.line >= 18), "{in_callee:?}");
}

#[test]
fn closure_findings_respect_the_callee_files_waivers() {
    let cfg = cfg(
        "[rule.hot-path-no-panic]\nentry-points = [\"execute_into\", \"Wal::*\"]\n\n\
         [rule.hot-path-no-alloc]\nentry-points = [\"*_into\"]\n",
    );
    let report = lint_sources(&files(WAIVED), &cfg);
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    assert_eq!(report.waived.len(), 4, "{:?}", report.waived);
}

#[test]
fn excludes_carve_files_out_of_the_closure() {
    let cfg = cfg(
        "[rule.hot-path-no-panic]\nentry-points = [\"execute_into\"]\n\
         exclude = [\"crates/fake/src/callee.rs\"]\n",
    );
    let report = lint_sources(&files(FIRES), &cfg);
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
}

#[test]
fn unknown_calls_flag_mode_reports_unresolved_edges() {
    let cfg = cfg(
        "[rule.hot-path-no-panic]\nentry-points = [\"query_batch_into\"]\n\
         unknown-calls = \"flag\"\n",
    );
    let report = lint_sources(&files(FIRES), &cfg);
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.file.ends_with("entry.rs")
                && d.line == 13
                && d.message.contains("mystery_helper")),
        "{:?}",
        report.diagnostics
    );
    // The default ("allow") stays silent about the same call.
    let quiet = cfg_allow_report();
    assert!(
        quiet
            .diagnostics
            .iter()
            .all(|d| !d.message.contains("mystery_helper")),
        "{:?}",
        quiet.diagnostics
    );
}

fn cfg_allow_report() -> pv_lint::LintReport {
    let cfg = cfg("[rule.hot-path-no-panic]\nentry-points = [\"query_batch_into\"]\n");
    lint_sources(&files(FIRES), &cfg)
}
