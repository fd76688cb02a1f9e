//! Workspace symbol table and call graph.
//!
//! Built from the [`crate::parser`] items of every scanned file, this is
//! the interprocedural half of pv-lint: transitive rules declare *entry
//! points* in `lint.toml` (`execute_into`, `Wal::*`, `*_into`, …) and the
//! graph computes the reachability closure their invariant must hold over.
//!
//! # Resolution strategy (deliberately conservative)
//!
//! Calls are resolved **by name**, never by type — there is no type
//! inference here and no `syn`. The failure modes are asymmetric: a missed
//! edge silently shrinks the checked closure (false negative), while an
//! over-resolved edge drags unrelated code into a hot-path invariant
//! (false positive storms). The rules below pick the conservative side of
//! each case:
//!
//! * **Plain calls** `foo(…)` resolve to first-party *free* functions named
//!   `foo` (all of them, any file — imports are not tracked).
//! * **Qualified calls** `Qual::foo(…)` resolve only when `Qual` is a known
//!   first-party impl type or trait (`Octree::insert`, `Step1Engine::step1_into`).
//!   `Self::foo(…)` substitutes the enclosing impl's type. A lowercase
//!   qualifier is treated as a module path (`codec::put_u32`) and resolves
//!   against free functions. Anything else (`Vec::new`, `u64::from_le_bytes`)
//!   routes to the **unknown node**.
//! * **Method calls** `.foo(…)` resolve to *every* first-party method named
//!   `foo` — unless the name is on the [`STD_SHADOWED`] stoplist of
//!   ubiquitous std/container method names (`get`, `len`, `push`, `clone`,
//!   `read`, …), where name-matching would wire `slice.get(i)` to some
//!   first-party `get` and poison the closure. Stoplisted names route to
//!   the unknown node; first-party hot-path surface deliberately avoids
//!   these names (`get_into`, `dists_sq_into`, `point_query_with`).
//! * **Macro invocations** route to the unknown node (their *expansion* is
//!   invisible; the panic-family macros are caught lexically in the body
//!   that invokes them).
//!
//! The unknown node is what rules "may flag or tolerate per-config": with
//! `unknown-calls = "flag"` a rule reports every unresolved plain/qualified
//! call made by a closure member; the default (`"allow"`) tolerates them.
//! `#[test]`/`#[cfg(test)]` items never resolve as targets and never seed
//! closures.

use crate::config;
use crate::parser::{Callee, Item};
use crate::rules::FileAnalysis;
use std::collections::{BTreeMap, VecDeque};

/// Method names so common on std/container types that name-based
/// resolution would be wrong more often than right. Calls to these resolve
/// to the unknown node; see the module docs for the asymmetry argument.
#[rustfmt::skip]
pub const STD_SHADOWED: &[&str] = &[
    "all", "and_then", "any", "append", "as_bytes", "as_mut", "as_ref", "as_slice", "chain",
    "clear", "clone", "cloned", "cmp", "collect", "contains", "contains_key", "copied", "count",
    "drain", "entry", "enumerate", "eq", "extend", "extend_from_slice", "fill", "filter", "find",
    "first", "flush", "fmt", "fold", "get", "get_mut", "hash", "insert", "into_iter", "is_empty",
    "iter", "iter_mut", "keys", "last", "len", "load", "map", "max", "min", "next", "partial_cmp",
    "pop", "position", "push", "read", "remove", "reset", "resize", "retain", "rev", "rewind",
    "run", "seek",
    "skip", "sort", "split", "stats", "store", "sum", "swap", "take", "then", "truncate",
    "unwrap_or", "values", "write", "zip",
];

/// One function node: a parsed item plus where it lives.
#[derive(Debug)]
pub struct Node {
    /// Index into the file list the graph was built from.
    pub file: usize,
    /// Index into that file's item list.
    pub item: usize,
    /// The function's bare name.
    pub name: String,
    /// Impl type / trait qualifier, if a method.
    pub qual: Option<String>,
    /// Trait name for `impl Trait for Type` methods.
    pub trait_qual: Option<String>,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Inside `#[test]`/`#[cfg(test)]`.
    pub is_test: bool,
    /// Has a body (not a bodyless trait declaration).
    pub has_body: bool,
}

/// The workspace call graph.
#[derive(Debug)]
pub struct Graph {
    /// All function nodes, in (file, item) order.
    pub nodes: Vec<Node>,
    /// Resolved call edges: node → callee nodes (deduplicated).
    pub edges: Vec<Vec<usize>>,
    /// Per node, the unresolved plain/qualified calls (name, line) that
    /// routed to the unknown node. Method/macro unknowns are not recorded —
    /// they are overwhelmingly std and would drown the signal.
    pub unknown_calls: Vec<Vec<(String, u32)>>,
}

impl Graph {
    /// Builds the graph over one analysis+items pair per file, in the same
    /// order diagnostics use.
    pub fn build(files: &[(&FileAnalysis<'_>, &[Item])]) -> Graph {
        let mut nodes = Vec::new();
        let mut node_of: Vec<Vec<usize>> = Vec::with_capacity(files.len());
        for (fi, (a, items)) in files.iter().enumerate() {
            let mut ids = Vec::with_capacity(items.len());
            for (ii, it) in items.iter().enumerate() {
                ids.push(nodes.len());
                nodes.push(Node {
                    file: fi,
                    item: ii,
                    name: it.name.clone(),
                    qual: it.qual.clone(),
                    trait_qual: it.trait_qual.clone(),
                    line: it.line,
                    is_test: a.in_test(it.line),
                    has_body: it.body.is_some(),
                });
            }
            node_of.push(ids);
        }

        // Resolution maps over non-test nodes. Names are common enough that
        // a BTreeMap keeps iteration (and therefore output) deterministic.
        let mut free: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut by_qual: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (id, n) in nodes.iter().enumerate() {
            if n.is_test {
                continue;
            }
            match &n.qual {
                None => free.entry(&n.name).or_default().push(id),
                Some(q) => {
                    methods.entry(&n.name).or_default().push(id);
                    by_qual.entry((q, &n.name)).or_default().push(id);
                    if let Some(t) = &n.trait_qual {
                        by_qual.entry((t, &n.name)).or_default().push(id);
                    }
                }
            }
        }

        let mut edges = vec![Vec::new(); nodes.len()];
        let mut unknown_calls = vec![Vec::new(); nodes.len()];
        for (fi, (_, items)) in files.iter().enumerate() {
            for (ii, it) in items.iter().enumerate() {
                let id = node_of[fi][ii];
                if nodes[id].is_test {
                    continue;
                }
                for call in &it.calls {
                    let targets: Option<&[usize]> = match &call.callee {
                        Callee::Free(name) => free.get(name.as_str()).map(|v| &v[..]),
                        Callee::Method(name) => {
                            if STD_SHADOWED.contains(&name.as_str()) {
                                None
                            } else {
                                methods.get(name.as_str()).map(|v| &v[..])
                            }
                        }
                        Callee::Qualified(q, name) => {
                            let q = if q == "Self" {
                                match &nodes[id].qual {
                                    Some(own) => own.as_str(),
                                    None => q.as_str(),
                                }
                            } else {
                                q.as_str()
                            };
                            if q == "crate" || q == "self" || q == "super" || is_module_like(q) {
                                free.get(name.as_str()).map(|v| &v[..])
                            } else {
                                by_qual.get(&(q, name.as_str())).map(|v| &v[..])
                            }
                        }
                        Callee::Macro(_) => None,
                    };
                    match targets {
                        Some(ts) if !ts.is_empty() => {
                            for &t in ts {
                                if !edges[id].contains(&t) {
                                    edges[id].push(t);
                                }
                            }
                        }
                        _ => {
                            // Method/macro unknowns are noise (std); record
                            // only the plain/qualified ones rules can act on.
                            if matches!(call.callee, Callee::Free(_) | Callee::Qualified(..)) {
                                unknown_calls[id].push((call.callee.name().to_string(), call.line));
                            }
                        }
                    }
                }
            }
        }
        Graph {
            nodes,
            edges,
            unknown_calls,
        }
    }

    /// Nodes matching the entry-point patterns: `name` (free fn or method),
    /// `Type::name`, with `*`/`?` globbing in each part. Test items never
    /// seed a closure; bodyless declarations match (their impls are pulled
    /// in via the trait-qual map when called).
    pub fn entry_nodes(&self, patterns: &[String]) -> Vec<usize> {
        let mut out = Vec::new();
        for (id, n) in self.nodes.iter().enumerate() {
            if n.is_test {
                continue;
            }
            if patterns.iter().any(|p| entry_matches(p, n)) {
                out.push(id);
            }
        }
        out
    }

    /// Reachability mask from the given entry patterns (BFS over resolved
    /// edges).
    pub fn closure(&self, patterns: &[String]) -> Vec<bool> {
        let mut reached = vec![false; self.nodes.len()];
        let mut queue: VecDeque<usize> = self.entry_nodes(patterns).into();
        for &id in &queue {
            reached[id] = true;
        }
        while let Some(id) = queue.pop_front() {
            for &t in &self.edges[id] {
                if !reached[t] {
                    reached[t] = true;
                    queue.push_back(t);
                }
            }
        }
        reached
    }

    /// Graphviz DOT rendering for `--graph`: every non-test node, resolved
    /// edges, per-rule closure membership as fill colors, and one dashed
    /// edge per node to the `unknown` sink when it makes unresolved
    /// plain/qualified calls.
    pub fn to_dot(&self, paths: &[&str], closures: &[(String, Vec<bool>)]) -> String {
        const FILLS: &[&str] = &["lightskyblue", "palegreen", "khaki", "lightsalmon", "plum"];
        let mut out =
            String::from("digraph pv_lint {\n  rankdir=LR;\n  node [shape=box, fontsize=10];\n");
        for (ci, (rule, closure)) in closures.iter().enumerate() {
            let n = closure.iter().filter(|&&r| r).count();
            out.push_str(&format!(
                "  // closure[{rule}]: {n} node(s), fill={}\n",
                FILLS[ci % FILLS.len()]
            ));
        }
        let mut any_unknown = false;
        for (id, n) in self.nodes.iter().enumerate() {
            if n.is_test {
                continue;
            }
            let label = format!(
                "{}\\n{}:{}",
                display_name(n),
                paths.get(n.file).copied().unwrap_or("?"),
                n.line
            );
            let fill = closures
                .iter()
                .enumerate()
                .find(|(_, (_, c))| c.get(id).copied().unwrap_or(false))
                .map(|(ci, _)| FILLS[ci % FILLS.len()]);
            match fill {
                Some(f) => out.push_str(&format!(
                    "  n{id} [label=\"{label}\", style=filled, fillcolor={f}];\n"
                )),
                None => out.push_str(&format!("  n{id} [label=\"{label}\"];\n")),
            }
            for &t in &self.edges[id] {
                out.push_str(&format!("  n{id} -> n{t};\n"));
            }
            if !self.unknown_calls[id].is_empty() {
                any_unknown = true;
                out.push_str(&format!(
                    "  n{id} -> unknown [style=dashed, label=\"{}\"];\n",
                    self.unknown_calls[id].len()
                ));
            }
        }
        if any_unknown {
            out.push_str("  unknown [shape=ellipse, style=dashed, label=\"unknown\"];\n");
        }
        out.push_str("}\n");
        out
    }
}

/// `foo::bar` module-path heuristic: qualifiers that start lowercase are
/// module paths, not types, per Rust naming convention.
fn is_module_like(q: &str) -> bool {
    q.chars()
        .next()
        .is_some_and(|c| c.is_lowercase() || c == '_')
}

fn display_name(n: &Node) -> String {
    match &n.qual {
        Some(q) => format!("{q}::{}", n.name),
        None => n.name.clone(),
    }
}

/// Matches one `lint.toml` entry-point pattern against a node.
fn entry_matches(pattern: &str, n: &Node) -> bool {
    match pattern.split_once("::") {
        Some((ty, name)) => {
            let ty_ok = n.qual.as_deref().is_some_and(|q| part_match(ty, q))
                || n.trait_qual.as_deref().is_some_and(|t| part_match(ty, t));
            ty_ok && part_match(name, &n.name)
        }
        None => part_match(pattern, &n.name),
    }
}

fn part_match(glob: &str, s: &str) -> bool {
    config::match_one(glob.as_bytes(), s.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser;

    /// Builds a graph over in-memory sources; leaks the analyses so the
    /// test can hold the graph without lifetime gymnastics.
    fn graph_of(sources: &[&'static str]) -> Graph {
        let pairs: Vec<(&FileAnalysis<'static>, Vec<Item>)> = sources
            .iter()
            .map(|src| {
                let a: &'static FileAnalysis<'static> =
                    Box::leak(Box::new(FileAnalysis::new("mem.rs", src)));
                let items = parser::parse_items(a.src, &a.sig);
                (a, items)
            })
            .collect();
        let refs: Vec<(&FileAnalysis<'_>, &[Item])> =
            pairs.iter().map(|(a, i)| (*a, i.as_slice())).collect();
        Graph::build(&refs)
    }

    fn reached_names(g: &Graph, patterns: &[&str]) -> Vec<String> {
        let pats: Vec<String> = patterns.iter().map(ToString::to_string).collect();
        let mask = g.closure(&pats);
        g.nodes
            .iter()
            .enumerate()
            .filter(|(i, _)| mask[*i])
            .map(|(_, n)| display_name(n))
            .collect()
    }

    #[test]
    fn closure_crosses_files_and_impls() {
        let g = graph_of(&[
            "pub fn execute_into(idx: &PvIndex) { idx.step1_into(q); }",
            "impl PvIndex { pub fn step1_into(&self, q: &Q) { min_dist_sq(a, b); self.helper(); } \
             fn helper(&self) {} }",
            "pub fn min_dist_sq(a: &[f64], b: &[f64]) -> f64 { inner(a) }\nfn inner(a: &[f64]) -> f64 { 0.0 }",
            "pub fn unrelated() { other(); }\nfn other() {}",
        ]);
        let names = reached_names(&g, &["execute_into"]);
        assert_eq!(
            names,
            vec![
                "execute_into",
                "PvIndex::step1_into",
                "PvIndex::helper",
                "min_dist_sq",
                "inner"
            ]
        );
    }

    #[test]
    fn std_shadowed_methods_route_to_unknown() {
        let g = graph_of(&[
            "fn hot() { table.get(k); table.get_into(k, out); }",
            "impl ExtHash { pub fn get(&self, k: u64) -> Vec<u8> { self.alloc() } \
             pub fn get_into(&self, k: u64, out: &mut Vec<u8>) {} fn alloc(&self) -> Vec<u8> { Vec::new() } }",
        ]);
        let names = reached_names(&g, &["hot"]);
        // `.get(` is stoplisted (would wire every slice.get to ExtHash::get);
        // `.get_into(` resolves.
        assert_eq!(names, vec!["hot", "ExtHash::get_into"]);
    }

    #[test]
    fn qualified_resolution_is_first_party_only() {
        let g = graph_of(&[
            "fn f() { Vec::with_capacity(8); Wal::append_commit(w); codec::put_u32(b, v); Self::nope(); }",
            "impl Wal { pub fn append_commit(&mut self) {} }",
            "pub fn put_u32(b: &mut [u8], v: u32) {}",
        ]);
        let names = reached_names(&g, &["f"]);
        assert_eq!(names, vec!["f", "Wal::append_commit", "put_u32"]);
        // Vec::with_capacity and the unresolvable Self:: call are unknown.
        assert_eq!(g.unknown_calls[0].len(), 2);
    }

    #[test]
    fn self_calls_resolve_via_enclosing_impl() {
        let g = graph_of(&["impl Octree { pub fn a(&self) { Self::b(); } fn b() {} }"]);
        let names = reached_names(&g, &["Octree::a"]);
        assert_eq!(names, vec!["Octree::a", "Octree::b"]);
    }

    #[test]
    fn entry_globs_and_trait_quals() {
        let g = graph_of(&[
            "impl Step1Engine for Baseline { fn step1_into(&self) { self.leaf(); } } \
             impl Baseline { fn leaf(&self) {} }",
            "impl Wal { pub fn sync(&mut self) {} pub fn mark(&self) {} }",
        ]);
        assert_eq!(
            reached_names(&g, &["*_into"]),
            vec!["Baseline::step1_into", "Baseline::leaf"]
        );
        assert_eq!(
            reached_names(&g, &["Step1Engine::*"]),
            vec!["Baseline::step1_into", "Baseline::leaf"]
        );
        assert_eq!(
            reached_names(&g, &["Wal::*"]),
            vec!["Wal::sync", "Wal::mark"]
        );
    }

    #[test]
    fn test_items_neither_seed_nor_resolve() {
        let g = graph_of(&[
            "fn prod() { helper(); }\n#[cfg(test)]\nmod tests { fn helper() {} \
             #[test] fn prod() { secret(); } }\nfn secret() {}",
        ]);
        // The test-mod `helper` is not a target; the #[test] `prod` is not
        // an entry even though its name matches.
        let names = reached_names(&g, &["prod"]);
        assert_eq!(names, vec!["prod"]);
    }

    #[test]
    fn dot_output_mentions_nodes_and_unknown() {
        let g = graph_of(&["fn a() { b(); mystery(); }\nfn b() {}"]);
        let mask = g.closure(&["a".to_string()]);
        let dot = g.to_dot(&["m.rs"], &[("hot-path-no-panic".to_string(), mask)]);
        assert!(dot.contains("digraph pv_lint"));
        assert!(dot.contains("n0 -> n1"));
        assert!(dot.contains("unknown"));
        assert!(dot.contains("closure[hot-path-no-panic]: 2 node(s)"));
    }
}
