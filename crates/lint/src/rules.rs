//! The rule engine: file analysis, the two hot-path rules, and waivers.
//!
//! Each rule is a pure function over a [`FileAnalysis`] — the lexed token
//! stream plus derived structure (`#[cfg(test)]` regions, `fn` bodies,
//! brace matching, waiver comments). Rules emit [`Diagnostic`]s; the engine
//! then splits them into *active* and *waived* using the inline waiver
//! comments.
//!
//! # Waiver syntax
//!
//! ```text
//! // pv-lint: allow(<rule>, reason = "<why the invariant holds here>")
//! ```
//!
//! Placement defines scope:
//!
//! * **trailing** (after code on the same line) — waives that line only;
//! * **standalone above a statement** — waives through the statement's
//!   terminating `;`;
//! * **standalone above an item or block** (`fn`, `impl`, a `{`-opening
//!   statement) — waives through the matching closing brace. This is how a
//!   whole kernel documents one structural invariant (e.g. the product-tree
//!   indexing in `pv-core::prob`) without a waiver per line.
//!
//! A waiver **without a reason suppresses nothing** and is itself reported
//! under the reserved rule name [`WAIVER_MISSING_REASON`] — the reason *is*
//! the documentation the lint exists to force.

use crate::lexer::{lex, Token, TokenKind};

/// Reserved rule name for `pv-lint: allow(...)` comments with no
/// `reason = "..."`. Cannot be waived.
pub const WAIVER_MISSING_REASON: &str = "waiver-missing-reason";

/// One finding: a rule violated at a file/line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule name (kebab-case, as in `lint.toml`).
    pub rule: &'static str,
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// What was found and why it matters.
    pub message: String,
}

/// A body-scoped checker: runs a rule's scan over one `fn` body (a `sig`
/// token range) — the unit the call-graph closure applies transitive rules
/// at. The `&str` is the function's name (for messages).
pub type BodyCheck = fn(&FileAnalysis<'_>, std::ops::Range<usize>, &str, &mut Vec<Diagnostic>);

/// A registered rule: name, one-line description, checkers.
#[derive(Debug)]
pub struct Rule {
    /// Kebab-case rule name, referenced from `lint.toml` and waivers.
    pub name: &'static str,
    /// One-line description (for `--list-rules` and the JSON report).
    pub description: &'static str,
    check: fn(&FileAnalysis<'_>, &mut Vec<Diagnostic>),
    /// The body-scoped form the engine applies to every function reachable
    /// from the rule's declared entry points.
    body_check: BodyCheck,
}

impl Rule {
    /// The body-scoped checker the call-graph closure applies.
    pub fn body_check(&self) -> BodyCheck {
        self.body_check
    }

    /// Runs the file-scoped check (the engine's entry; `check` stays
    /// private so the registry is the only construction site).
    pub(crate) fn run_file(&self, a: &FileAnalysis<'_>, out: &mut Vec<Diagnostic>) {
        (self.check)(a, out);
    }
}

/// Every rule the engine knows, in stable order.
pub const RULES: &[Rule] = &[
    Rule {
        name: "hot-path-no-panic",
        description: "no unwrap/expect/panic-family macros or []-indexing on the query hot path \
                      (typed QueryError or type-level invariants instead); transitive over the \
                      call-graph closure of the declared entry points",
        check: hot_path_no_panic,
        body_check: no_panic_body,
    },
    Rule {
        name: "hot-path-no-alloc",
        description: "no per-call heap allocation (Vec::new/vec!/collect/to_vec/clone/format!) \
                      inside *_into kernels and everything they reach — the static complement of \
                      the counting-allocator test",
        check: hot_path_no_alloc,
        body_check: no_alloc_body,
    },
];

/// Looks up a rule by name.
pub fn rule_by_name(name: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.name == name)
}

/// An inline waiver comment, parsed and scoped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    /// The rule it waives.
    pub rule: String,
    /// True when a non-empty `reason = "..."` is present.
    pub has_reason: bool,
    /// Line of the waiver comment itself.
    pub line: u32,
    /// Inclusive line range the waiver covers.
    pub covers: (u32, u32),
}

/// Lexed source plus the derived structure every rule consumes.
#[derive(Debug)]
pub struct FileAnalysis<'a> {
    /// Workspace-relative path (diagnostic attribution).
    pub path: &'a str,
    /// The source text.
    pub src: &'a str,
    /// Significant tokens (trivia stripped), in order.
    pub sig: Vec<Token>,
    /// All tokens, including trivia (comments drive waivers).
    pub tokens: Vec<Token>,
    /// `sig`-index of a `{` → `sig`-index of its matching `}`.
    brace_match: Vec<Option<usize>>,
    /// Inclusive line ranges covered by `#[test]` / `#[cfg(test)]` items.
    test_ranges: Vec<(u32, u32)>,
    /// `fn` items: (name, body `sig` range) — body excludes the braces.
    fn_bodies: Vec<(String, std::ops::Range<usize>, u32)>,
    /// Parsed waiver comments.
    pub waivers: Vec<Waiver>,
}

impl<'a> FileAnalysis<'a> {
    /// Lexes and analyses one file.
    pub fn new(path: &'a str, src: &'a str) -> Self {
        let tokens = lex(src);
        let sig: Vec<Token> = tokens.iter().filter(|t| !t.is_trivia()).copied().collect();
        let brace_match = match_braces(src, &sig);
        let mut a = FileAnalysis {
            path,
            src,
            sig,
            tokens,
            brace_match,
            test_ranges: Vec::new(),
            fn_bodies: Vec::new(),
            waivers: Vec::new(),
        };
        a.find_test_ranges();
        a.find_fn_bodies();
        a.find_waivers();
        a
    }

    fn text(&self, t: &Token) -> &'a str {
        t.text(self.src)
    }

    fn sig_text(&self, i: usize) -> &'a str {
        self.sig[i].text(self.src)
    }

    fn is_punct(&self, i: usize, c: &str) -> bool {
        self.sig[i].kind == TokenKind::Punct && self.sig_text(i) == c
    }

    fn is_ident(&self, i: usize, name: &str) -> bool {
        self.sig[i].kind == TokenKind::Ident && self.sig_text(i) == name
    }

    /// True when `line` lies inside a `#[test]` / `#[cfg(test)]` item.
    pub fn in_test(&self, line: u32) -> bool {
        self.test_ranges
            .iter()
            .any(|&(a, b)| (a..=b).contains(&line))
    }

    /// From `sig` index `from`, finds the end of the item/statement that
    /// starts there: the `sig` index of the terminating `;` or of the `}`
    /// matching the first body `{`, whichever comes first at paren/bracket
    /// depth 0. Returns `from` itself if neither exists (malformed tail).
    fn item_end(&self, from: usize) -> usize {
        let mut depth = 0i32;
        for j in from..self.sig.len() {
            if self.is_punct(j, "(") || self.is_punct(j, "[") {
                depth += 1;
            } else if self.is_punct(j, ")") || self.is_punct(j, "]") {
                depth -= 1;
            } else if depth == 0 && self.is_punct(j, ";") {
                return j;
            } else if depth == 0 && self.is_punct(j, "{") {
                return self.brace_match[j].unwrap_or(j);
            } else if depth == 0 && self.is_punct(j, "}") {
                return from;
            }
        }
        from
    }

    /// Detects `#[test]`-ish attributes and records the lines of the items
    /// they annotate.
    fn find_test_ranges(&mut self) {
        let mut i = 0;
        while i < self.sig.len() {
            if self.is_punct(i, "#") {
                // `#[…]` or `#![…]`.
                let mut j = i + 1;
                if j < self.sig.len() && self.is_punct(j, "!") {
                    j += 1;
                }
                if j < self.sig.len() && self.is_punct(j, "[") {
                    let close = self.bracket_match(j);
                    let inner: Vec<&str> = (j + 1..close)
                        .filter(|&k| self.sig[k].kind == TokenKind::Ident)
                        .map(|k| self.sig_text(k))
                        .collect();
                    let testish = inner.first() == Some(&"test")
                        || (inner.first() == Some(&"cfg") && inner.contains(&"test"));
                    if testish {
                        // Skip any further attributes between this one and
                        // the item it annotates.
                        let mut k = close + 1;
                        while k < self.sig.len() && self.is_punct(k, "#") {
                            let mut b = k + 1;
                            if b < self.sig.len() && self.is_punct(b, "!") {
                                b += 1;
                            }
                            if b < self.sig.len() && self.is_punct(b, "[") {
                                k = self.bracket_match(b) + 1;
                            } else {
                                break;
                            }
                        }
                        if k < self.sig.len() {
                            let end = self.item_end(k);
                            self.test_ranges
                                .push((self.sig[i].line, self.sig[end].line));
                            i = end + 1;
                            continue;
                        }
                    }
                    i = close + 1;
                    continue;
                }
            }
            i += 1;
        }
    }

    /// `sig` index of the `]` matching the `[` at `open` (bracket depth).
    fn bracket_match(&self, open: usize) -> usize {
        let mut depth = 0i32;
        for j in open..self.sig.len() {
            if self.is_punct(j, "[") {
                depth += 1;
            } else if self.is_punct(j, "]") {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
        }
        self.sig.len().saturating_sub(1)
    }

    /// Records every `fn` item's name and body token range.
    fn find_fn_bodies(&mut self) {
        for i in 0..self.sig.len() {
            if !self.is_ident(i, "fn") || i + 1 >= self.sig.len() {
                continue;
            }
            let name_tok = &self.sig[i + 1];
            if name_tok.kind != TokenKind::Ident {
                continue;
            }
            let name = self.text(name_tok).to_string();
            // Find the body `{` at paren/bracket depth 0; a `;` first means
            // a bodyless trait-method declaration.
            let mut depth = 0i32;
            for j in i + 2..self.sig.len() {
                if self.is_punct(j, "(") || self.is_punct(j, "[") {
                    depth += 1;
                } else if self.is_punct(j, ")") || self.is_punct(j, "]") {
                    depth -= 1;
                } else if depth == 0 && self.is_punct(j, ";") {
                    break;
                } else if depth == 0 && self.is_punct(j, "{") {
                    if let Some(close) = self.brace_match[j] {
                        self.fn_bodies.push((name, j + 1..close, self.sig[i].line));
                    }
                    break;
                }
            }
        }
    }

    /// Parses `pv-lint: allow(...)` comments and computes their scope.
    fn find_waivers(&mut self) {
        let mut last_sig_line = 0u32;
        let mut waivers = Vec::new();
        for (ti, t) in self.tokens.iter().enumerate() {
            if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
                if !matches!(t.kind, TokenKind::Whitespace) {
                    last_sig_line = t.line;
                }
                continue;
            }
            // The marker must *start* the comment (after the `//`/`/*`
            // opener) — prose that merely mentions the syntax, like this
            // sentence, is not a waiver.
            let text = self.text(t);
            let body = text
                .trim_start_matches('/')
                .trim_start_matches(['*', '!'])
                .trim_start();
            let Some(rest) = body.strip_prefix("pv-lint:") else {
                continue;
            };
            let rest = rest.trim_start();
            let Some(args) = rest.strip_prefix("allow(").and_then(|r| {
                // Up to the matching close paren; reasons contain no parens
                // worth nesting over, so the last `)` is fine.
                r.rfind(')').map(|p| &r[..p])
            }) else {
                // A malformed waiver is a waiver without a reason: report it
                // rather than silently ignoring the intent.
                waivers.push(Waiver {
                    rule: String::new(),
                    has_reason: false,
                    line: t.line,
                    covers: (t.line, t.line),
                });
                continue;
            };
            let (rule, reason_part) = match args.split_once(',') {
                Some((r, rest)) => (r.trim(), rest.trim()),
                None => (args.trim(), ""),
            };
            let has_reason = reason_part
                .strip_prefix("reason")
                .map(str::trim_start)
                .and_then(|r| r.strip_prefix('='))
                .map(str::trim)
                .is_some_and(|r| {
                    let quoted = r
                        .strip_prefix('"')
                        .and_then(|q| q.rfind('"').map(|e| &r[1..=e]));
                    quoted.is_some_and(|q| !q.trim_matches('"').trim().is_empty())
                });
            let trailing = last_sig_line == t.line;
            let covers = if trailing {
                (t.line, t.line)
            } else {
                // Scope: through the next statement/item.
                match self
                    .tokens
                    .iter()
                    .skip(ti + 1)
                    .find(|n| !n.is_trivia())
                    .map(|n| n.line)
                {
                    Some(next_line) => {
                        let from = self.sig.partition_point(|s| s.line < next_line);
                        if from < self.sig.len() {
                            let end = self.item_end(from);
                            (t.line, self.sig[end].line)
                        } else {
                            (t.line, next_line)
                        }
                    }
                    None => (t.line, t.line),
                }
            };
            waivers.push(Waiver {
                rule: rule.to_string(),
                has_reason,
                line: t.line,
                covers,
            });
        }
        self.waivers = waivers;
    }
}

/// Brace matching over significant tokens; `{` index → `}` index.
fn match_braces(src: &str, sig: &[Token]) -> Vec<Option<usize>> {
    let mut out = vec![None; sig.len()];
    let mut stack = Vec::new();
    for (i, t) in sig.iter().enumerate() {
        if t.kind != TokenKind::Punct {
            continue;
        }
        match t.text(src) {
            "{" => stack.push(i),
            "}" => {
                if let Some(open) = stack.pop() {
                    out[open] = Some(i);
                }
            }
            _ => {}
        }
    }
    out
}

/// Runs `rules` (by name) over one file, splitting findings into
/// (active, waived) using the file's waiver comments. Unknown rule names
/// are ignored (the config layer validates them).
pub fn check_file(
    path: &str,
    src: &str,
    rule_names: &[&str],
) -> (Vec<Diagnostic>, Vec<Diagnostic>) {
    let analysis = FileAnalysis::new(path, src);
    let mut raw = Vec::new();
    for name in rule_names {
        if let Some(rule) = rule_by_name(name) {
            (rule.check)(&analysis, &mut raw);
        }
    }
    split_waived(&analysis, raw)
}

/// Splits raw findings into (active, waived) using the file's waiver
/// comments, and reports reason-less waivers. One call per file — the
/// multi-file engine routes both its file-scoped and its closure-scoped
/// findings for a file through here together.
pub fn split_waived(
    analysis: &FileAnalysis<'_>,
    raw: Vec<Diagnostic>,
) -> (Vec<Diagnostic>, Vec<Diagnostic>) {
    let mut active = Vec::new();
    let mut waived = Vec::new();
    for d in raw {
        let w = analysis.waivers.iter().any(|w| {
            w.rule == d.rule && w.has_reason && (w.covers.0..=w.covers.1).contains(&d.line)
        });
        if w {
            waived.push(d);
        } else {
            active.push(d);
        }
    }
    // Waivers without a reason are violations in their own right — the
    // reason is the artefact this lint exists to force into the tree.
    for w in &analysis.waivers {
        if !w.has_reason {
            active.push(Diagnostic {
                rule: WAIVER_MISSING_REASON,
                file: analysis.path.to_string(),
                line: w.line,
                message: if w.rule.is_empty() {
                    "malformed pv-lint waiver (expected `pv-lint: allow(<rule>, reason = \"...\")`)"
                        .to_string()
                } else {
                    format!(
                        "waiver for `{}` carries no reason — add `, reason = \"...\"` \
                         explaining why the invariant holds here",
                        w.rule
                    )
                },
            });
        }
    }
    active.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    waived.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    (active, waived)
}

fn diag(
    out: &mut Vec<Diagnostic>,
    rule: &'static str,
    a: &FileAnalysis<'_>,
    line: u32,
    msg: String,
) {
    out.push(Diagnostic {
        rule,
        file: a.path.to_string(),
        line,
        message: msg,
    });
}

/// `hot-path-no-panic`: `.unwrap()` / `.expect()`, the panic-macro family,
/// and `[]` indexing/slicing (which can panic) are banned in governed files
/// outside `#[cfg(test)]`. Restructure (iterators, `get`, typed errors) or
/// waive with the invariant that guarantees in-bounds/infallible.
fn hot_path_no_panic(a: &FileAnalysis<'_>, out: &mut Vec<Diagnostic>) {
    no_panic_scan(a, 0..a.sig.len(), out);
}

/// Body-scoped form of `hot-path-no-panic` for closure application.
fn no_panic_body(
    a: &FileAnalysis<'_>,
    body: std::ops::Range<usize>,
    _fn_name: &str,
    out: &mut Vec<Diagnostic>,
) {
    no_panic_scan(a, body, out);
}

fn no_panic_scan(a: &FileAnalysis<'_>, range: std::ops::Range<usize>, out: &mut Vec<Diagnostic>) {
    const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
    for i in range {
        let t = &a.sig[i];
        if a.in_test(t.line) {
            continue;
        }
        match t.kind {
            TokenKind::Ident => {
                let name = a.sig_text(i);
                if (name == "unwrap" || name == "expect")
                    && i > 0
                    && a.is_punct(i - 1, ".")
                    && i + 1 < a.sig.len()
                    && a.is_punct(i + 1, "(")
                {
                    diag(
                        out,
                        "hot-path-no-panic",
                        a,
                        t.line,
                        format!(
                            "`.{name}()` on the hot path — return a typed QueryError or make the \
                         invariant type-level"
                        ),
                    );
                } else if PANIC_MACROS.contains(&name)
                    && i + 1 < a.sig.len()
                    && a.is_punct(i + 1, "!")
                {
                    diag(
                        out,
                        "hot-path-no-panic",
                        a,
                        t.line,
                        format!(
                            "`{name}!` on the hot path — a malformed request must come back as a \
                         value, not take the process down"
                        ),
                    );
                }
            }
            TokenKind::Punct if a.sig_text(i) == "[" && i > 0 => {
                // Keywords that legitimately precede `[` in type or
                // expression position (`&mut [f64]`, `dyn [..]`, `return
                // [..]`) are not indexing.
                const NOT_RECEIVERS: &[&str] = &[
                    "mut", "dyn", "as", "in", "return", "break", "else", "match", "if", "while",
                    "loop", "for", "move", "ref", "box", "yield", "impl", "where", "const",
                ];
                let prev = &a.sig[i - 1];
                let indexing = match prev.kind {
                    TokenKind::Ident => !NOT_RECEIVERS.contains(&a.sig_text(i - 1)),
                    TokenKind::Punct => matches!(a.sig_text(i - 1), ")" | "]" | "?"),
                    _ => false,
                };
                if indexing {
                    diag(
                        out,
                        "hot-path-no-panic",
                        a,
                        t.line,
                        format!(
                            "`{}[…]` indexing can panic — use .get()/.get_mut(), iterators, or \
                         waive with the bounds invariant",
                            a.sig_text(i - 1)
                        ),
                    );
                }
            }
            _ => {}
        }
    }
}

/// `hot-path-no-alloc`: inside `fn *_into` bodies, flag calls that allocate
/// afresh on every invocation. Growth of reused buffers (`push`,
/// `extend_from_slice`, `resize`) is steady-state free and allowed.
fn hot_path_no_alloc(a: &FileAnalysis<'_>, out: &mut Vec<Diagnostic>) {
    for (fn_name, body, fn_line) in &a.fn_bodies {
        if !fn_name.ends_with("_into") || a.in_test(*fn_line) {
            continue;
        }
        no_alloc_scan(a, body.clone(), fn_name, out);
    }
}

/// Body-scoped form of `hot-path-no-alloc`: applied to every function the
/// closure reaches, `*_into`-named or not — being called from a kernel is
/// what puts a helper on the hot path, not its name.
fn no_alloc_body(
    a: &FileAnalysis<'_>,
    body: std::ops::Range<usize>,
    fn_name: &str,
    out: &mut Vec<Diagnostic>,
) {
    no_alloc_scan(a, body, fn_name, out);
}

fn no_alloc_scan(
    a: &FileAnalysis<'_>,
    body: std::ops::Range<usize>,
    fn_name: &str,
    out: &mut Vec<Diagnostic>,
) {
    const ALLOC_METHODS: &[&str] = &["clone", "to_vec", "to_owned", "to_string", "collect"];
    const ALLOC_MACROS: &[&str] = &["vec", "format"];
    const CONTAINERS: &[&str] = &[
        "Vec", "VecDeque", "Box", "String", "Arc", "Rc", "BTreeMap", "BTreeSet", "HashMap",
        "HashSet",
    ];
    const CONTAINER_CTORS: &[&str] = &["new", "with_capacity", "from", "default"];
    for i in body.clone() {
        let t = &a.sig[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let name = a.sig_text(i);
        if ALLOC_METHODS.contains(&name) && i > body.start && a.is_punct(i - 1, ".") {
            diag(
                out,
                "hot-path-no-alloc",
                a,
                t.line,
                format!(
                    "`.{name}()` inside `{fn_name}` allocates per call — reuse the scratch \
                     buffers instead (the runtime counterpart is tests/alloc_steady_state.rs)"
                ),
            );
        } else if ALLOC_MACROS.contains(&name) && i + 1 < a.sig.len() && a.is_punct(i + 1, "!") {
            diag(
                out,
                "hot-path-no-alloc",
                a,
                t.line,
                format!(
                    "`{name}!` inside `{fn_name}` allocates per call — write into a reused buffer"
                ),
            );
        } else if CONTAINER_CTORS.contains(&name)
            && i >= body.start + 3
            && a.is_punct(i - 1, ":")
            && a.is_punct(i - 2, ":")
            && a.sig[i - 3].kind == TokenKind::Ident
            && CONTAINERS.contains(&a.sig_text(i - 3))
        {
            diag(
                out,
                "hot-path-no-alloc",
                a,
                t.line,
                format!(
                    "`{}::{name}` inside `{fn_name}` creates a fresh container per call — \
                     take a scratch buffer parameter instead",
                    a.sig_text(i - 3)
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(rule: &str, src: &str) -> (Vec<Diagnostic>, Vec<Diagnostic>) {
        check_file("test.rs", src, &[rule])
    }

    #[test]
    fn no_panic_flags_and_waives() {
        let src = "fn f(v: &[u32]) -> u32 { v.iter().next().unwrap(); v[0] }";
        let (active, _) = run("hot-path-no-panic", src);
        assert_eq!(active.len(), 2, "{active:?}");
        let waived_src = "fn f(v: &[u32]) -> u32 {\n    // pv-lint: allow(hot-path-no-panic, reason = \"caller checked\")\n    v[0]\n}";
        let (active, waived) = run("hot-path-no-panic", waived_src);
        assert!(active.is_empty(), "{active:?}");
        assert_eq!(waived.len(), 1);
    }

    #[test]
    fn no_panic_skips_tests_macros_attrs() {
        let src = "#[cfg(test)]\nmod tests {\n    fn g() { x.unwrap(); y[0]; panic!(); }\n}\n";
        assert!(run("hot-path-no-panic", src).0.is_empty());
        // vec![…] and #[…] are not indexing; unwrap_or_else is not unwrap.
        let src2 =
            "fn f() { let v = vec![1]; foo.unwrap_or_else(|| 3); }\n#[derive(Debug)]\nstruct S;";
        assert!(run("hot-path-no-panic", src2).0.is_empty());
    }

    #[test]
    fn fn_scope_waiver_covers_whole_body() {
        let src = "\
// pv-lint: allow(hot-path-no-panic, reason = \"indices bounded by construction\")
fn kernel_into(t: &mut [f64]) {
    t[0] = t[1];
    t[2] = t[3];
}
fn other(v: &[f64]) -> f64 { v[9] }
";
        let (active, waived) = run("hot-path-no-panic", src);
        assert_eq!(waived.len(), 4, "{waived:?}");
        assert_eq!(active.len(), 1, "{active:?}");
        assert_eq!(active[0].line, 6);
    }

    #[test]
    fn waiver_without_reason_is_a_violation_and_suppresses_nothing() {
        let src = "fn f(v: &[u32]) -> u32 {\n    // pv-lint: allow(hot-path-no-panic)\n    v[0]\n}";
        let (active, waived) = run("hot-path-no-panic", src);
        assert!(waived.is_empty());
        assert_eq!(active.len(), 2, "{active:?}");
        assert!(active.iter().any(|d| d.rule == WAIVER_MISSING_REASON));
        assert!(active.iter().any(|d| d.rule == "hot-path-no-panic"));
    }

    #[test]
    fn no_alloc_flags_only_into_kernels() {
        let src = "\
fn fill_into(out: &mut Vec<f64>) {
    let tmp: Vec<f64> = Vec::new();
    let v = data.to_vec();
    let s: Vec<u32> = xs.iter().collect();
    out.push(1.0);
    out.extend_from_slice(&[2.0]);
}
fn free_fn() { let v = data.to_vec(); }
";
        let (active, _) = run("hot-path-no-alloc", src);
        assert_eq!(active.len(), 3, "{active:?}");
        assert!(active.iter().all(|d| (2..=4).contains(&d.line)));
    }

    #[test]
    fn prose_mentioning_waiver_syntax_is_not_a_waiver() {
        let src = "/// Docs about `pv-lint: allow(...)` comments.\nfn f() {}\n";
        let (active, waived) = run("hot-path-no-panic", src);
        assert!(active.is_empty(), "{active:?}");
        assert!(waived.is_empty());
    }

    #[test]
    fn trailing_waiver_covers_only_its_line() {
        let src = "fn f(v: &[u32]) {\n    v[0]; // pv-lint: allow(hot-path-no-panic, reason = \"len checked above\")\n    v[1];\n}";
        let (active, waived) = run("hot-path-no-panic", src);
        assert_eq!(waived.len(), 1);
        assert_eq!(active.len(), 1);
        assert_eq!(active[0].line, 3);
    }
}
