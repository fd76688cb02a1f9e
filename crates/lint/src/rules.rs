//! The rule engine: file analysis, the seven project rules, and waivers.
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

/// A registered rule: name, one-line description, checker.
#[derive(Debug)]
pub struct Rule {
    /// Kebab-case rule name, referenced from `lint.toml` and waivers.
    pub name: &'static str,
    /// One-line description (for `--list-rules` and the JSON report).
    pub description: &'static str,
    check: fn(&FileAnalysis<'_>, &mut Vec<Diagnostic>),
    /// For transitive rules: the body-scoped form the engine applies to
    /// every function reachable from the rule's declared entry points.
    body_check: Option<BodyCheck>,
}

impl Rule {
    /// The body-scoped checker, when the rule supports transitive closure
    /// application (`None` for purely lexical/structural rules).
    pub fn body_check(&self) -> Option<BodyCheck> {
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
        body_check: Some(no_panic_body),
    },
    Rule {
        name: "hot-path-no-alloc",
        description: "no per-call heap allocation (Vec::new/vec!/collect/to_vec/clone/format!) \
                      inside *_into kernels and everything they reach — the static complement of \
                      the counting-allocator test",
        check: hot_path_no_alloc,
        body_check: Some(no_alloc_body),
    },
    Rule {
        name: "unsafe-needs-safety-comment",
        description: "every `unsafe` block/fn/impl carries a SAFETY: comment within the three \
                      preceding lines",
        check: unsafe_needs_safety_comment,
        body_check: None,
    },
    Rule {
        name: "cow-discipline",
        description: "page bytes are only mutated through the designated Arc::get_mut/dirty-copy \
                      helpers (Arc::make_mut and stray Arc::get_mut flagged)",
        check: cow_discipline,
        body_check: None,
    },
    Rule {
        name: "codec-no-lossy-cast",
        description: "no bare `as` narrowing to sub-64-bit numeric types in codec/snapshot \
                      modules — use try_into + DecodeError (decode) or checked put_* helpers (encode)",
        check: codec_no_lossy_cast,
        body_check: None,
    },
    Rule {
        name: "io-no-unwrap",
        description: "no .unwrap()/.expect() on io::Result values in storage non-test code — \
                      propagate the error, retry via RetryPolicy, or panic with context via \
                      unwrap_or_else at a documented infallible boundary; transitive over the \
                      DurableDb/Wal closure",
        check: io_no_unwrap,
        body_check: Some(io_no_unwrap_body),
    },
    Rule {
        name: "wal-append-paired",
        description: "every non-test append_commit call site takes a WalMark first, syncs after, \
                      keeps a rollback_to on the error path, and never drops the #[must_use] \
                      mark/commit results (the acknowledged⟺logged protocol of ARCHITECTURE §3d)",
        check: wal_append_paired,
        body_check: None,
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
    /// All tokens, including trivia (comments drive waivers/SAFETY checks).
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

/// `unsafe-needs-safety-comment`: every `unsafe` keyword (block, fn, impl)
/// must have a comment containing `SAFETY` on its own line or one of the
/// three lines above it.
fn unsafe_needs_safety_comment(a: &FileAnalysis<'_>, out: &mut Vec<Diagnostic>) {
    let safety_lines: Vec<u32> = a
        .tokens
        .iter()
        .filter(|t| {
            matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment)
                && (t.text(a.src).contains("SAFETY") || t.text(a.src).contains("# Safety"))
        })
        .map(|t| t.line)
        .collect();
    for i in 0..a.sig.len() {
        if !a.is_ident(i, "unsafe") {
            continue;
        }
        let line = a.sig[i].line;
        let covered = safety_lines.iter().any(|&l| l <= line && l + 3 >= line);
        if !covered {
            diag(
                out,
                "unsafe-needs-safety-comment",
                a,
                line,
                "`unsafe` without a `// SAFETY:` comment in the three preceding lines — \
                 state the invariant that makes this sound"
                    .to_string(),
            );
        }
    }
}

/// `cow-discipline`: in `pv-storage`, page bytes may only be mutated via
/// the designated `Arc::get_mut`-fast-path/dirty-copy helpers. Any
/// `Arc::make_mut` (or unchecked variant) is flagged outright; `Arc::get_mut`
/// is flagged so that only the helpers themselves — which carry waivers
/// documenting the discipline — may use it.
fn cow_discipline(a: &FileAnalysis<'_>, out: &mut Vec<Diagnostic>) {
    for i in 0..a.sig.len() {
        let t = &a.sig[i];
        if t.kind != TokenKind::Ident || a.in_test(t.line) {
            continue;
        }
        let name = a.sig_text(i);
        if name == "make_mut" || name == "get_mut_unchecked" {
            diag(
                out,
                "cow-discipline",
                a,
                t.line,
                format!(
                    "`{name}` bypasses the page copy-on-write discipline — route the mutation \
                 through the Pager::write get_mut/dirty-copy path"
                ),
            );
        } else if name == "get_mut"
            && i >= 3
            && a.is_punct(i - 1, ":")
            && a.is_punct(i - 2, ":")
            && a.is_ident(i - 3, "Arc")
        {
            diag(
                out,
                "cow-discipline",
                a,
                t.line,
                "`Arc::get_mut` on shared bytes — only the designated dirty-copy helpers may \
                 do this (they carry the waiver documenting the discipline)"
                    .to_string(),
            );
        }
    }
}

/// `codec-no-lossy-cast`: a bare `as` cast to a sub-64-bit numeric type in
/// a codec/snapshot module can silently truncate on-disk values. Decode
/// paths must use `try_into` + `DecodeError`; encode paths the checked
/// `put_*` helpers.
fn codec_no_lossy_cast(a: &FileAnalysis<'_>, out: &mut Vec<Diagnostic>) {
    const NARROW: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "f32"];
    for i in 0..a.sig.len().saturating_sub(1) {
        if !a.is_ident(i, "as") || a.in_test(a.sig[i].line) {
            continue;
        }
        if a.sig[i + 1].kind == TokenKind::Ident && NARROW.contains(&a.sig_text(i + 1)) {
            diag(
                out,
                "codec-no-lossy-cast",
                a,
                a.sig[i].line,
                format!(
                    "bare `as {}` can silently truncate — use try_into (DecodeError on decode, \
                 the checked codec::put_* helpers on encode)",
                    a.sig_text(i + 1)
                ),
            );
        }
    }
}

/// `io-no-unwrap`: `.unwrap()` / `.expect()` on an `io::Result` outside
/// tests. An I/O failure is an environment condition, not a logic bug, so
/// it must surface as a value (the wal/durable layers carry it as
/// `WalError`/`DbError`, transient kinds retry via `RetryPolicy`) — or, at
/// a boundary that is infallible by contract (e.g. the `Pager` trait),
/// convert explicitly with `unwrap_or_else(|e| panic!(...))` so the panic
/// carries the underlying error.
///
/// Heuristic: the unwrap's statement (back to the nearest `;`/`{`/`}`)
/// contains an I/O-operation call (`open`, `read_exact`, `sync_all`, the
/// `Fs` trait surface, …). Slice `try_into().unwrap()` and other
/// infallible conversions in the same files stay unflagged.
fn io_no_unwrap(a: &FileAnalysis<'_>, out: &mut Vec<Diagnostic>) {
    io_unwrap_scan(a, 0..a.sig.len(), out);
}

/// Body-scoped form of `io-no-unwrap` for closure application.
fn io_no_unwrap_body(
    a: &FileAnalysis<'_>,
    body: std::ops::Range<usize>,
    _fn_name: &str,
    out: &mut Vec<Diagnostic>,
) {
    io_unwrap_scan(a, body, out);
}

fn io_unwrap_scan(a: &FileAnalysis<'_>, range: std::ops::Range<usize>, out: &mut Vec<Diagnostic>) {
    const IO_OPS: &[&str] = &[
        "read",
        "read_exact",
        "read_to_end",
        "read_to_string",
        "write",
        "write_all",
        "append",
        "seek",
        "sync",
        "sync_all",
        "sync_data",
        "sync_dir",
        "flush",
        "metadata",
        "set_len",
        "open",
        "create",
        "create_dir_all",
        "rename",
        "remove",
        "remove_file",
        "remove_dir",
        "remove_dir_all",
        "read_dir",
        "copy",
        "truncate",
    ];
    for i in range {
        let t = &a.sig[i];
        if t.kind != TokenKind::Ident || a.in_test(t.line) {
            continue;
        }
        let name = a.sig_text(i);
        if name != "unwrap" && name != "expect" {
            continue;
        }
        if !(i > 0 && a.is_punct(i - 1, ".") && i + 1 < a.sig.len() && a.is_punct(i + 1, "(")) {
            continue;
        }
        // Walk back through the statement looking for an I/O-op call.
        let mut io_op = None;
        let mut j = i - 1;
        while j > 0 {
            j -= 1;
            let s = &a.sig[j];
            if s.kind == TokenKind::Punct && matches!(a.sig_text(j), ";" | "{" | "}") {
                break;
            }
            if s.kind == TokenKind::Ident
                && IO_OPS.contains(&a.sig_text(j))
                && j + 1 < a.sig.len()
                && a.is_punct(j + 1, "(")
            {
                io_op = Some(a.sig_text(j));
                break;
            }
        }
        if let Some(op) = io_op {
            diag(
                out,
                "io-no-unwrap",
                a,
                t.line,
                format!(
                    "`.{name}()` on the result of `{op}(…)` — an I/O error is an environment \
                 condition, not a bug: propagate it (WalError/DbError, RetryPolicy for \
                 transient kinds) or convert via `unwrap_or_else(|e| panic!(…))` at a \
                 documented infallible boundary"
                ),
            );
        }
    }
}

/// `wal-append-paired`: the acknowledged⟺logged protocol, checked
/// structurally. In every non-test function that calls `append_commit`:
///
/// * a `mark()` must be taken *before* the append (so a failure can be
///   rolled back to a known-good WAL length);
/// * a `sync()`/`sync_data()`/`sync_all()` must follow the append in the
///   same function (fsync before the commit is published);
/// * a `rollback_to(…)` must appear somewhere in the function (the error
///   path durably undoes the append);
/// * the results of `mark`/`append_commit`/`rollback_to` are `#[must_use]`
///   (`WalMark`, offsets, `io::Result`) and must be bound, propagated, or
///   otherwise consumed — a dropped mark is an unreachable rollback.
///
/// `DurableDb::commit` is the reference implementation of the shape this
/// rule accepts.
fn wal_append_paired(a: &FileAnalysis<'_>, out: &mut Vec<Diagnostic>) {
    const MUST_USE_CALLS: &[&str] = &["mark", "append_commit", "rollback_to"];
    let items = crate::parser::parse_items(a.src, &a.sig);
    for it in &items {
        if it.body.is_none() || a.in_test(it.line) {
            continue;
        }
        let non_macro =
            |c: &&crate::parser::CallSite| !matches!(c.callee, crate::parser::Callee::Macro(_));
        let appends: Vec<_> = it
            .calls
            .iter()
            .filter(non_macro)
            .filter(|c| c.callee.name() == "append_commit")
            .collect();
        if appends.is_empty() {
            continue;
        }
        let has_rollback = it
            .calls
            .iter()
            .filter(non_macro)
            .any(|c| c.callee.name() == "rollback_to");
        for call in &appends {
            if a.in_test(call.line) {
                continue;
            }
            let mark_before = it
                .calls
                .iter()
                .filter(non_macro)
                .any(|c| c.callee.name() == "mark" && c.sig_index < call.sig_index);
            let sync_after = it.calls.iter().filter(non_macro).any(|c| {
                matches!(c.callee.name(), "sync" | "sync_data" | "sync_all")
                    && c.sig_index > call.sig_index
            });
            if !mark_before {
                diag(
                    out,
                    "wal-append-paired",
                    a,
                    call.line,
                    "`append_commit` without a prior `mark()` in the same function — take a \
                     WalMark first so a failed commit can roll the log back"
                        .to_string(),
                );
            }
            if !sync_after {
                diag(
                    out,
                    "wal-append-paired",
                    a,
                    call.line,
                    "`append_commit` with no `sync()` after it in the same function — \
                     acknowledged⟺logged requires fsync before the commit is published"
                        .to_string(),
                );
            }
            if !has_rollback {
                diag(
                    out,
                    "wal-append-paired",
                    a,
                    call.line,
                    "`append_commit` with no `rollback_to(mark)` anywhere in the function — \
                     the error path must durably undo the append"
                        .to_string(),
                );
            }
        }
        // #[must_use] discipline, checked only in functions that append —
        // `mark` is too generic a name to police everywhere.
        for call in it.calls.iter().filter(non_macro) {
            let name = call.callee.name();
            if !MUST_USE_CALLS.contains(&name) || a.in_test(call.line) {
                continue;
            }
            if call_result_dropped(a, call.sig_index) {
                diag(
                    out,
                    "wal-append-paired",
                    a,
                    call.line,
                    format!(
                        "result of `{name}` is dropped — WalMark/DurableCommit/io::Result are \
                         #[must_use]: bind it, propagate with `?`, or handle the error arm"
                    ),
                );
            }
        }
    }
}

/// True when the call whose name token is at `name_idx` has its result
/// dropped: the statement ends at the call's `)` with no binding (`let`),
/// assignment, `return`, or match/if head consuming the value.
fn call_result_dropped(a: &FileAnalysis<'_>, name_idx: usize) -> bool {
    // Locate the argument list: `name(` or `name::<T>(`.
    let mut open = name_idx + 1;
    if open + 2 < a.sig.len()
        && a.is_punct(open, ":")
        && a.is_punct(open + 1, ":")
        && a.is_punct(open + 2, "<")
    {
        let mut depth = 0i32;
        let mut j = open + 2;
        while j < a.sig.len() {
            if a.is_punct(j, "<") {
                depth += 1;
            } else if a.is_punct(j, ">") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        open = j + 1;
    }
    if open >= a.sig.len() || !a.is_punct(open, "(") {
        return false; // not a call shape after all — don't guess
    }
    let mut depth = 0i32;
    let mut close = open;
    while close < a.sig.len() {
        if a.is_punct(close, "(") {
            depth += 1;
        } else if a.is_punct(close, ")") {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        close += 1;
    }
    if close + 1 >= a.sig.len() {
        return false;
    }
    // Consumed directly after the call?
    let next = close + 1;
    if a.sig[next].kind == TokenKind::Punct {
        match a.sig_text(next) {
            "?" | "." | ")" | "," | "}" | "{" => return false,
            ";" => {}
            _ => return false, // operators etc. consume the value
        }
    } else {
        return false; // `)` followed by an ident: match-arm guard or similar
    }
    // `…();` — dropped unless the statement head binds or redirects it.
    let mut k = name_idx;
    while k > 0 {
        k -= 1;
        if a.sig[k].kind == TokenKind::Punct {
            match a.sig_text(k) {
                ";" | "{" | "}" => return true, // statement start reached
                "=" => {
                    // Assignment consumes; comparisons (`==`, `<=`, `>=`,
                    // `!=`) and fat arrows do not end the search.
                    let cmp = (k > 0 && matches!(a.sig_text(k - 1), "=" | "<" | ">" | "!"))
                        || (k + 1 < a.sig.len() && matches!(a.sig_text(k + 1), "=" | ">"));
                    if !cmp {
                        return false;
                    }
                }
                _ => {}
            }
        } else if a.sig[k].kind == TokenKind::Ident
            && matches!(a.sig_text(k), "let" | "return" | "match" | "if" | "while")
        {
            return false;
        }
    }
    true
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
    fn unsafe_requires_nearby_safety_comment() {
        let bad = "unsafe fn f() {}\n";
        assert_eq!(run("unsafe-needs-safety-comment", bad).0.len(), 1);
        let good = "// SAFETY: no-op\nunsafe fn f() {}\n";
        assert!(run("unsafe-needs-safety-comment", good).0.is_empty());
        let far = "// SAFETY: too far away\n\n\n\n\nunsafe fn f() {}\n";
        assert_eq!(run("unsafe-needs-safety-comment", far).0.len(), 1);
    }

    #[test]
    fn cow_discipline_flags_make_mut_and_arc_get_mut() {
        let src = "fn f() { Arc::make_mut(&mut a); Arc::get_mut(&mut b); c.get_mut(0); }";
        let (active, _) = run("cow-discipline", src);
        assert_eq!(active.len(), 2, "{active:?}"); // BTreeMap-style .get_mut is fine
    }

    #[test]
    fn lossy_cast_flags_narrowing_only() {
        let src = "fn f(n: usize) { let a = n as u32; let b = n as u64; let c = 3u32 as usize; }";
        let (active, _) = run("codec-no-lossy-cast", src);
        assert_eq!(active.len(), 1, "{active:?}");
    }

    #[test]
    fn io_unwrap_needs_io_call_in_statement() {
        // unwrap on an I/O call's result fires; slice try_into does not.
        let src = "fn f(p: &Path) { let f = File::open(p).unwrap(); f.sync_all().expect(\"s\"); }";
        let (active, _) = run("io-no-unwrap", src);
        assert_eq!(active.len(), 2, "{active:?}");
        let clean = "fn g(d: &[u8]) -> u64 { u64::from_le_bytes(d[..8].try_into().unwrap()) }";
        assert!(run("io-no-unwrap", clean).0.is_empty());
        // the sanctioned boundary idiom is not an unwrap
        let boundary = "fn h(f: &mut File, b: &mut [u8]) { f.read_exact(b).unwrap_or_else(|e| panic!(\"{e}\")); }";
        assert!(run("io-no-unwrap", boundary).0.is_empty());
        // the statement walk stops at `;`: I/O in a *previous* statement
        // does not taint a later infallible unwrap
        let prev = "fn k(f: &mut File) { f.sync_all()?; let x: u32 = 7i64.try_into().unwrap(); }";
        assert!(run("io-no-unwrap", prev).0.is_empty());
    }

    #[test]
    fn wal_append_paired_accepts_the_commit_shape() {
        // The shape DurableDb::commit actually has: mark → append (`?`) →
        // policy-gated sync → rollback_to consumed on the error arm.
        let src = "\
fn commit(w: &mut Wal) -> Result<u64, E> {
    let mark = w.mark();
    let off = w.append_commit(1, body)?;
    if policy.should_sync() {
        w.sync()?;
    }
    if validation_failed {
        if w.rollback_to(mark).is_err() {
            poison();
        }
    }
    Ok(off)
}
";
        let (active, _) = run("wal-append-paired", src);
        assert!(active.is_empty(), "{active:?}");
    }

    #[test]
    fn wal_append_paired_flags_bare_append() {
        let src = "fn bad(w: &mut Wal) {\n    w.append_commit(1, body);\n}\n";
        let (active, _) = run("wal-append-paired", src);
        // no mark, no sync, no rollback, result dropped
        assert_eq!(active.len(), 4, "{active:?}");
        assert!(active.iter().all(|d| d.line == 2));
    }

    #[test]
    fn wal_append_paired_flags_dropped_mark() {
        let src = "\
fn sloppy(w: &mut Wal, mark: WalMark) -> Result<(), E> {
    w.mark();
    let _off = w.append_commit(1, body)?;
    w.sync()?;
    w.rollback_to(mark)?;
    Ok(())
}
";
        let (active, _) = run("wal-append-paired", src);
        assert_eq!(active.len(), 1, "{active:?}");
        assert_eq!(active[0].line, 2);
        assert!(active[0].message.contains("dropped"));
    }

    #[test]
    fn wal_append_paired_ignores_tests_and_appendless_fns() {
        let src = "\
#[cfg(test)]
mod tests {
    #[test]
    fn t(w: &mut Wal) { w.append_commit(1, b); }
}
fn unrelated(w: &Wal) { w.mark(); }
";
        let (active, _) = run("wal-append-paired", src);
        assert!(active.is_empty(), "{active:?}");
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
