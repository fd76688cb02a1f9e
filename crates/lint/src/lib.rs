//! `pv-lint` — the suite's own static-analysis pass.
//!
//! The workspace makes two guarantees about the PNNQ query hot path that
//! neither `rustc` nor clippy can check, because they follow the call graph
//! rather than one file: it performs **zero allocations** per call, and it
//! is **panic-free** (typed errors only). Both were previously enforced only
//! dynamically (the counting allocator, stress tests) — a new code path
//! that dodges the test matrix regresses them silently. This crate walks
//! the workspace sources with a hand-rolled lexer (offline build — no
//! `syn`) and enforces them on every path, at CI time. Per-file invariants
//! (SAFETY comments, lossless codec casts, unwrap-free I/O, page
//! copy-on-write) are clippy lints, and the WAL commit protocol lives in
//! `pv_storage::Wal::commit` — see ARCHITECTURE.md §7.
//!
//! Since PR 10 the analysis is **interprocedural**: on top of the per-file
//! lexical rules, a workspace call graph ([`parser`] + [`graph`]) lets
//! rules declare *entry points* in `lint.toml` and have their invariant
//! checked over the whole reachability closure — `hot-path-no-panic`
//! follows `execute_into` through `pv-geom::min_dist_sq`,
//! `Octree::point_query_with`, `ExtHash::get_into`, and the uncertain
//! kernels, wherever they live.
//!
//! * [`lexer`] — total, lossless Rust lexer.
//! * [`parser`] — total item parser (fn items, call sites) on the lexer.
//! * [`graph`] — workspace symbol table, call graph, closures.
//! * [`config`] — `lint.toml` parsing: globs, entry points.
//! * [`rules`] — the rule registry, file analysis, and inline waivers.
//! * [`report`] — text, JSON, and SARIF rendering plus the baseline
//!   ratchet.
//!
//! Entry points: [`lint_root`] (workspace scan), [`lint_sources`]
//! (in-memory multi-file scan, used by the closure fixtures), and
//! [`rules::check_file`] (single source, used by the per-rule fixtures).

pub mod config;
pub mod graph;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use graph::Graph;
use rules::FileAnalysis;

pub use config::{Config, ConfigError};
pub use report::{Baseline, LintReport};
pub use rules::{check_file, Diagnostic, Rule, RULES};

/// Lints a set of in-memory `(path, source)` files governed by `cfg`:
/// file-scoped rules per governed file, then every transitive rule's
/// body check over its entry-point closure, with findings split against
/// each file's waiver comments.
pub fn lint_sources(files: &[(String, String)], cfg: &Config) -> LintReport {
    let analyses: Vec<FileAnalysis<'_>> = files
        .iter()
        .map(|(path, src)| FileAnalysis::new(path, src))
        .collect();
    let items: Vec<Vec<parser::Item>> = analyses
        .iter()
        .map(|a| parser::parse_items(a.src, &a.sig))
        .collect();

    // File-scoped rules, exactly as before the call graph existed.
    let mut raw: Vec<Vec<Diagnostic>> = files.iter().map(|_| Vec::new()).collect();
    for (fi, a) in analyses.iter().enumerate() {
        for name in cfg.rules_for(&files[fi].0) {
            if let Some(rule) = rules::rule_by_name(name) {
                rule.run_file(a, &mut raw[fi]);
            }
        }
    }

    // Transitive rules: apply the body-scoped check to every function
    // reachable from the rule's declared entry points — regardless of the
    // rule's `include` globs (extending the closure past them is the
    // point), but honouring its `exclude` carve-outs.
    let graph_files: Vec<(&FileAnalysis<'_>, &[parser::Item])> = analyses
        .iter()
        .zip(items.iter())
        .map(|(a, it)| (a, it.as_slice()))
        .collect();
    let graph = Graph::build(&graph_files);
    for (rule_name, rc) in &cfg.rules {
        if rc.entry_points.is_empty() {
            continue;
        }
        let Some(rule) = rules::rule_by_name(rule_name) else {
            continue;
        };
        let body_check = rule.body_check();
        let mask = graph.closure(&rc.entry_points);
        for (id, node) in graph.nodes.iter().enumerate() {
            if !mask[id] || node.is_test || !node.has_body {
                continue;
            }
            let path = &files[node.file].0;
            if rc.exclude.iter().any(|g| config::glob_match(g, path)) {
                continue;
            }
            let a = &analyses[node.file];
            let it = &items[node.file][node.item];
            if let Some(body) = it.body.clone() {
                body_check(a, body, &it.name, &mut raw[node.file]);
            }
            if rc.flag_unknown {
                for (callee, line) in &graph.unknown_calls[id] {
                    raw[node.file].push(Diagnostic {
                        rule: rule.name,
                        file: path.clone(),
                        line: *line,
                        message: format!(
                            "unresolved call `{callee}(…)` from `{}` inside the {rule_name} \
                             closure — the invariant cannot be checked through it",
                            it.name
                        ),
                    });
                }
            }
        }
    }

    // A finding can arrive twice (file scope + closure scope): dedup per
    // file before splitting against the file's waivers.
    let mut report = LintReport::default();
    for (fi, a) in analyses.iter().enumerate() {
        let mut r = std::mem::take(&mut raw[fi]);
        r.sort_by(|x, y| (x.line, x.rule, &x.message).cmp(&(y.line, y.rule, &y.message)));
        r.dedup_by(|x, y| x.line == y.line && x.rule == y.rule && x.message == y.message);
        let (active, waived) = rules::split_waived(a, r);
        report.diagnostics.extend(active);
        report.waived.extend(waived);
    }
    report.files_scanned = files.len();
    report.finish();
    report
}

/// Reads every scannable `.rs` file under `root` into memory, in sorted
/// (deterministic) order. Paths are `root`-relative and `/`-separated.
pub fn load_workspace(root: &Path, cfg: &Config) -> io::Result<Vec<(String, String)>> {
    let mut paths = Vec::new();
    collect_rs_files(root, root, cfg, &mut paths)?;
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for rel in paths {
        let src = fs::read_to_string(root.join(&rel))?;
        files.push((rel, src));
    }
    Ok(files)
}

/// Lints every `.rs` file under `root` governed by `cfg`.
///
/// Paths in diagnostics are `root`-relative and `/`-separated. Unreadable
/// files (or non-UTF-8 sources) surface as `io::Error`s.
pub fn lint_with_config(root: &Path, cfg: &Config) -> io::Result<LintReport> {
    let files = load_workspace(root, cfg)?;
    Ok(lint_sources(&files, cfg))
}

/// Lints the workspace at `root` using its `lint.toml`.
pub fn lint_root(root: &Path) -> io::Result<LintReport> {
    let cfg = config_for_root(root)?;
    lint_with_config(root, &cfg)
}

/// Renders the workspace call graph (with one closure per transitive
/// rule) as Graphviz DOT — the `--graph` debugging view.
pub fn graph_dot(files: &[(String, String)], cfg: &Config) -> String {
    let analyses: Vec<FileAnalysis<'_>> = files
        .iter()
        .map(|(path, src)| FileAnalysis::new(path, src))
        .collect();
    let items: Vec<Vec<parser::Item>> = analyses
        .iter()
        .map(|a| parser::parse_items(a.src, &a.sig))
        .collect();
    let graph_files: Vec<(&FileAnalysis<'_>, &[parser::Item])> = analyses
        .iter()
        .zip(items.iter())
        .map(|(a, it)| (a, it.as_slice()))
        .collect();
    let graph = Graph::build(&graph_files);
    let closures: Vec<(String, Vec<bool>)> = cfg
        .rules
        .iter()
        .filter(|(_, rc)| !rc.entry_points.is_empty())
        .map(|(name, rc)| (name.clone(), graph.closure(&rc.entry_points)))
        .collect();
    let paths: Vec<&str> = files.iter().map(|(p, _)| p.as_str()).collect();
    graph.to_dot(&paths, &closures)
}

/// `graph_dot` for a workspace root with a `lint.toml`.
pub fn graph_dot_root(root: &Path) -> io::Result<String> {
    let cfg = config_for_root(root)?;
    let files = load_workspace(root, &cfg)?;
    Ok(graph_dot(&files, &cfg))
}

/// Parses and validates `root`'s `lint.toml`.
pub fn config_for_root(root: &Path) -> io::Result<Config> {
    let cfg_text = fs::read_to_string(root.join("lint.toml"))?;
    let cfg = Config::parse(&cfg_text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    validate_rule_names(&cfg).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    Ok(cfg)
}

/// Rejects configs naming rules the engine does not implement — a typo in
/// `lint.toml` must not silently disable an invariant.
pub fn validate_rule_names(cfg: &Config) -> Result<(), String> {
    for name in cfg.rules.keys() {
        if rules::rule_by_name(name).is_none() {
            return Err(format!(
                "lint.toml names unknown rule `{name}` (known: {})",
                RULES.iter().map(|r| r.name).collect::<Vec<_>>().join(", ")
            ));
        }
    }
    Ok(())
}

/// Recursively gathers workspace-relative `.rs` paths, pruning `.git`,
/// `target`, and config-excluded subtrees.
fn collect_rs_files(
    root: &Path,
    dir: &Path,
    cfg: &Config,
    out: &mut Vec<String>,
) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let ty = entry.file_type()?;
        if ty.is_dir() {
            if name == ".git" || name == "target" {
                continue;
            }
            collect_rs_files(root, &path, cfg, out)?;
        } else if ty.is_file() && name.ends_with(".rs") {
            let rel = rel_path(root, &path);
            if !cfg.excluded(&rel) {
                out.push(rel);
            }
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    let rel: PathBuf = path.strip_prefix(root).unwrap_or(path).to_path_buf();
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}
