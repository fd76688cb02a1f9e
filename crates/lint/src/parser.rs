//! A lightweight item parser on top of the lossless lexer.
//!
//! The interprocedural rules need just enough syntactic structure to build
//! a call graph: which `fn` items exist (free functions, inherent/trait
//! methods, trait declarations with default bodies), and which calls each
//! body makes. Like the lexer underneath it, this parser is **total**: it
//! never panics on any input, and malformed source degrades to fewer (or
//! no) items rather than an error. Its other contract, enforced by the
//! proptest suite in `tests/parser_roundtrip.rs`, is **exact spans**: every
//! item's byte span lies on token boundaries, nested items lie strictly
//! inside their parent, and the spans of top-level items plus the gaps
//! between them reconstruct the file byte-for-byte.
//!
//! What it deliberately does *not* do: type inference, import resolution,
//! macro expansion. Call sites are recorded *syntactically* — a plain call
//! `foo(…)`, a method call `.foo(…)`, a qualified call `Qual::foo(…)`, a
//! macro invocation `foo!(…)` — and the [`crate::graph`] layer resolves
//! them by name, conservatively routing anything it cannot resolve to an
//! "unknown" node.

use crate::lexer::{lex, Token, TokenKind};
use std::ops::Range;

/// How a call site is spelled at the call position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Callee {
    /// `foo(…)` — a path-less call.
    Free(String),
    /// `.foo(…)` — a method call on some receiver.
    Method(String),
    /// `Qual::foo(…)` — the last two path segments of a qualified call
    /// (`a::b::Qual::foo` records `("Qual", "foo")`; `Self::foo` records
    /// the literal `"Self"` for the graph layer to substitute).
    Qualified(String, String),
    /// `foo!(…)` / `foo![…]` / `foo!{…}` — a macro invocation.
    Macro(String),
}

impl Callee {
    /// The called name, whatever the spelling.
    pub fn name(&self) -> &str {
        match self {
            Callee::Free(n) | Callee::Method(n) | Callee::Macro(n) => n,
            Callee::Qualified(_, n) => n,
        }
    }
}

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// What is called, and how it is spelled.
    pub callee: Callee,
    /// 1-based line of the called name.
    pub line: u32,
    /// Index of the name token in the file's significant-token stream.
    pub sig_index: usize,
}

/// One parsed `fn` item.
#[derive(Debug, Clone)]
pub struct Item {
    /// The function's bare name.
    pub name: String,
    /// The `Self` type for methods: the last path segment of the impl'd
    /// type (`impl Pager for BufferPool<P>` → `BufferPool`), or the trait
    /// name for methods declared inside `trait … { }`. `None` for free
    /// functions.
    pub qual: Option<String>,
    /// For `impl Trait for Type` methods, the trait's last path segment —
    /// so `Trait::method` entry points and qualified calls resolve too.
    pub trait_qual: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Byte span: from the `fn` keyword to one past the closing `}` (or
    /// the `;` of a bodyless declaration).
    pub span: (usize, usize),
    /// Significant-token index range of the body interior (between the
    /// braces, exclusive), `None` for bodyless trait declarations.
    pub body: Option<Range<usize>>,
    /// Call sites inside this function's body, excluding those belonging
    /// to functions nested within it.
    pub calls: Vec<CallSite>,
    /// True when the item is defined inside another function's body.
    pub nested: bool,
}

/// Parses `src` standalone (lexes internally). Convenience for tests; the
/// engine uses [`parse_items`] over an existing significant-token stream.
pub fn parse(src: &str) -> Vec<Item> {
    let tokens = lex(src);
    let sig: Vec<Token> = tokens.into_iter().filter(|t| !t.is_trivia()).collect();
    parse_items(src, &sig)
}

/// Keywords that can look like `name(` but are never calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "fn", "let", "as", "in", "move", "ref",
    "unsafe", "where", "impl", "dyn", "box", "await", "else", "use", "pub", "mod", "struct",
    "enum", "union", "trait", "type", "const", "static", "crate", "super", "break", "continue",
    "yield", "async", "extern", "Fn", "FnMut", "FnOnce",
];

#[derive(Debug)]
enum ScopeKind {
    /// `impl [Trait for] Type { … }`.
    Impl {
        self_ty: Option<String>,
        trait_name: Option<String>,
    },
    /// `trait Name { … }`.
    Trait { name: String },
    /// A function body; `item` indexes the output vector.
    Fn { item: usize },
}

struct Scope {
    kind: ScopeKind,
    /// Significant-token index of the matching `}` (exclusive coverage).
    close: usize,
}

/// Parses the `fn` items (and their call sites) out of a significant-token
/// stream. Total: any input yields a (possibly empty) item list.
pub fn parse_items(src: &str, sig: &[Token]) -> Vec<Item> {
    Parser {
        src,
        sig,
        brace_match: match_braces(src, sig),
        scopes: Vec::new(),
        items: Vec::new(),
    }
    .run()
}

struct Parser<'a> {
    src: &'a str,
    sig: &'a [Token],
    brace_match: Vec<Option<usize>>,
    scopes: Vec<Scope>,
    items: Vec<Item>,
}

impl<'a> Parser<'a> {
    fn text(&self, i: usize) -> &'a str {
        self.sig[i].text(self.src)
    }

    fn is_punct(&self, i: usize, c: &str) -> bool {
        i < self.sig.len() && self.sig[i].kind == TokenKind::Punct && self.text(i) == c
    }

    fn is_ident(&self, i: usize) -> bool {
        i < self.sig.len() && self.sig[i].kind == TokenKind::Ident
    }

    /// `::` is two `:` punct tokens; true when `i` is the *second* of them.
    fn is_path_sep_end(&self, i: usize) -> bool {
        i >= 1 && self.is_punct(i, ":") && self.is_punct(i - 1, ":")
    }

    fn run(mut self) -> Vec<Item> {
        let mut i = 0usize;
        while i < self.sig.len() {
            // Retire scopes whose closing brace is behind us.
            while self
                .scopes
                .last()
                .is_some_and(|s| s.close < i || self.is_at(i, s.close))
            {
                self.scopes.pop();
            }
            if self.is_ident(i) {
                match self.text(i) {
                    "impl" => {
                        i = self.enter_impl(i);
                        continue;
                    }
                    "trait" => {
                        i = self.enter_trait(i);
                        continue;
                    }
                    "fn" => {
                        i = self.enter_fn(i);
                        continue;
                    }
                    _ => self.maybe_call(i),
                }
            }
            i += 1;
        }
        self.items
    }

    fn is_at(&self, i: usize, close: usize) -> bool {
        // A scope closes *at* its `}`: token `close` itself is outside.
        i == close
    }

    /// Innermost enclosing fn item index, if any.
    fn enclosing_fn(&self) -> Option<usize> {
        self.scopes.iter().rev().find_map(|s| match s.kind {
            ScopeKind::Fn { item } => Some(item),
            _ => None,
        })
    }

    /// Innermost enclosing impl/trait qualifier.
    fn enclosing_qual(&self) -> (Option<String>, Option<String>) {
        match self.scopes.last().map(|s| &s.kind) {
            Some(ScopeKind::Impl {
                self_ty,
                trait_name,
            }) => (self_ty.clone(), trait_name.clone()),
            Some(ScopeKind::Trait { name }) => (Some(name.clone()), None),
            // fns nested in fns are free
            Some(ScopeKind::Fn { .. }) | None => (None, None),
        }
    }

    /// At an `impl` keyword: parse the header (`impl<G> [Trait for] Type
    /// [where …] {`), push an Impl scope, return the index after the `{`.
    fn enter_impl(&mut self, kw: usize) -> usize {
        let mut j = kw + 1;
        // Skip the generic parameter list, if any.
        if self.is_punct(j, "<") {
            j = self.skip_angles(j);
        }
        // Scan the header up to the body `{` (or `;`/end on malformed
        // input), remembering the last angle-depth-0 path ident seen before
        // `for` and after it. Stop honouring idents once `where` appears.
        let mut before_for: Option<String> = None;
        let mut after_for: Option<String> = None;
        let mut saw_for = false;
        let mut in_where = false;
        let mut angle = 0i32;
        while j < self.sig.len() {
            if self.is_punct(j, "{") && angle <= 0 {
                let close = self.brace_match[j].unwrap_or(self.sig.len());
                let (self_ty, trait_name) = if saw_for {
                    (after_for, before_for)
                } else {
                    (before_for, None)
                };
                self.scopes.push(Scope {
                    kind: ScopeKind::Impl {
                        self_ty,
                        trait_name,
                    },
                    close,
                });
                return j + 1;
            }
            if self.is_punct(j, ";") && angle <= 0 {
                return j + 1; // `impl Foo;` — malformed, skip
            }
            if self.is_punct(j, "<") {
                angle += 1;
            } else if self.is_punct(j, ">") {
                angle -= 1;
            } else if angle <= 0 && self.is_ident(j) {
                match self.text(j) {
                    "for" => saw_for = true,
                    "where" => in_where = true,
                    "dyn" | "mut" | "const" | "unsafe" | "async" => {}
                    name if !in_where => {
                        if saw_for {
                            after_for = Some(name.to_string());
                        } else {
                            before_for = Some(name.to_string());
                        }
                    }
                    _ => {}
                }
            }
            j += 1;
        }
        j
    }

    /// At a `trait` keyword: push a Trait scope over its body.
    fn enter_trait(&mut self, kw: usize) -> usize {
        let name = if self.is_ident(kw + 1) {
            self.text(kw + 1).to_string()
        } else {
            return kw + 1;
        };
        let mut j = kw + 2;
        let mut angle = 0i32;
        while j < self.sig.len() {
            if self.is_punct(j, "<") {
                angle += 1;
            } else if self.is_punct(j, ">") {
                angle -= 1;
            } else if angle <= 0 && self.is_punct(j, "{") {
                let close = self.brace_match[j].unwrap_or(self.sig.len());
                self.scopes.push(Scope {
                    kind: ScopeKind::Trait { name },
                    close,
                });
                return j + 1;
            } else if angle <= 0 && self.is_punct(j, ";") {
                return j + 1; // associated-type-like or malformed
            }
            j += 1;
        }
        j
    }

    /// At a `fn` keyword: record the item, push a Fn scope over its body,
    /// return the index to continue from (inside the body, so nested items
    /// and call sites are seen).
    fn enter_fn(&mut self, kw: usize) -> usize {
        if !self.is_ident(kw + 1) {
            return kw + 1; // `fn` in `Fn()` position or malformed
        }
        let name = self.text(kw + 1).to_string();
        let nested = self.enclosing_fn().is_some();
        let (qual, trait_qual) = if nested {
            (None, None)
        } else {
            self.enclosing_qual()
        };
        // Find the body `{` (or the `;` of a bodyless declaration) at
        // paren/bracket/angle depth 0.
        let mut depth = 0i32;
        let mut angle = 0i32;
        let mut j = kw + 2;
        while j < self.sig.len() {
            if self.is_punct(j, "(") || self.is_punct(j, "[") {
                depth += 1;
            } else if self.is_punct(j, ")") || self.is_punct(j, "]") {
                depth -= 1;
            } else if self.is_punct(j, "<") {
                angle += 1;
            } else if self.is_punct(j, ">") {
                // `->` must not close an angle bracket.
                if !(j >= 1 && self.is_punct(j - 1, "-")) {
                    angle -= 1;
                }
            } else if depth <= 0 && angle <= 0 && self.is_punct(j, ";") {
                self.items.push(Item {
                    name,
                    qual,
                    trait_qual,
                    line: self.sig[kw].line,
                    span: (self.sig[kw].start, self.sig[j].end),
                    body: None,
                    calls: Vec::new(),
                    nested,
                });
                return j + 1;
            } else if depth <= 0 && self.is_punct(j, "{") {
                let close = self.brace_match[j].unwrap_or(self.sig.len());
                let end = if close < self.sig.len() {
                    self.sig[close].end
                } else {
                    self.src.len()
                };
                let item = self.items.len();
                self.items.push(Item {
                    name,
                    qual,
                    trait_qual,
                    line: self.sig[kw].line,
                    span: (self.sig[kw].start, end),
                    body: Some(j + 1..close),
                    calls: Vec::new(),
                    nested,
                });
                self.scopes.push(Scope {
                    kind: ScopeKind::Fn { item },
                    close,
                });
                return j + 1;
            }
            j += 1;
        }
        // Unterminated header: treat the rest of the file as no item.
        j
    }

    /// At an identifier inside (possibly) a fn body: record a call site on
    /// the innermost enclosing fn, if this ident is call-shaped.
    fn maybe_call(&mut self, i: usize) {
        let Some(item) = self.enclosing_fn() else {
            return;
        };
        let name = self.text(i);
        let callee = if self.is_punct(i + 1, "!")
            && (self.is_punct(i + 2, "(") || self.is_punct(i + 2, "[") || self.is_punct(i + 2, "{"))
        {
            Callee::Macro(name.to_string())
        } else if self.is_punct(i + 1, "(") || self.turbofish_call(i) {
            if NON_CALL_KEYWORDS.contains(&name) {
                return;
            }
            if i >= 1 && self.is_punct(i - 1, ".") {
                Callee::Method(name.to_string())
            } else if self.is_path_sep_end(i - 1) {
                match self.qualifier_before(i - 1) {
                    Some(q) => Callee::Qualified(q, name.to_string()),
                    None => Callee::Free(name.to_string()),
                }
            } else {
                Callee::Free(name.to_string())
            }
        } else {
            return;
        };
        self.items[item].calls.push(CallSite {
            callee,
            line: self.sig[i].line,
            sig_index: i,
        });
    }

    /// True for `name::<T>(…)` — a call through a turbofish.
    fn turbofish_call(&self, i: usize) -> bool {
        if !(self.is_punct(i + 1, ":") && self.is_punct(i + 2, ":") && self.is_punct(i + 3, "<")) {
            return false;
        }
        // Walk the `<…>` forward (bounded) and require a `(` after it.
        let mut depth = 0i32;
        let mut j = i + 3;
        while j < self.sig.len() && j < i + 64 {
            if self.is_punct(j, "<") {
                depth += 1;
            } else if self.is_punct(j, ">") {
                depth -= 1;
                if depth == 0 {
                    return self.is_punct(j + 1, "(");
                }
            }
            j += 1;
        }
        false
    }

    /// The path segment immediately before the `::` ending at `sep_end`
    /// (the second `:`): for `a::b::Qual::name(`, returns `Qual`. Steps
    /// back over one `<…>` generic-argument group (`Vec::<u8>::new`).
    fn qualifier_before(&self, sep_end: usize) -> Option<String> {
        if sep_end < 2 {
            return None;
        }
        let mut k = sep_end - 2; // token before the `::`
        if self.is_punct(k, ">") {
            // Walk back over the generic group to its `<`.
            let mut depth = 0i32;
            loop {
                if self.is_punct(k, ">") {
                    depth += 1;
                } else if self.is_punct(k, "<") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if k == 0 {
                    return None;
                }
                k -= 1;
            }
            if k == 0 {
                return None;
            }
            k -= 1;
            // `Vec::<u8>` — the `<` is itself preceded by `::`; step over.
            if self.is_path_sep_end(k) {
                if k < 2 {
                    return None;
                }
                k -= 2;
            }
        }
        if self.is_ident(k) {
            Some(self.text(k).to_string())
        } else {
            None
        }
    }

    /// Skips a `<…>` group starting at `open` (which is `<`); returns the
    /// index after the matching `>`, or the end on malformed input.
    fn skip_angles(&self, open: usize) -> usize {
        let mut depth = 0i32;
        let mut j = open;
        while j < self.sig.len() {
            if self.is_punct(j, "<") {
                depth += 1;
            } else if self.is_punct(j, ">") {
                if !(j >= 1 && self.is_punct(j - 1, "-")) {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
            } else if self.is_punct(j, "{") || self.is_punct(j, ";") {
                return j; // malformed generics: stop before the body
            }
            j += 1;
        }
        j
    }
}

/// Brace matching over significant tokens (same algorithm the rule engine
/// uses): `{` index → `}` index.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn items(src: &str) -> Vec<Item> {
        parse(src)
    }

    fn call_names(item: &Item) -> Vec<String> {
        item.calls
            .iter()
            .map(|c| c.callee.name().to_string())
            .collect()
    }

    #[test]
    fn free_fns_and_methods() {
        let src = "
fn free() { helper(); }
impl Octree {
    pub fn point_query_with(&self) { self.descend(); leaf_record_dists_sq(r); }
}
impl Step1Engine for PvIndex {
    fn step1_into(&self) { min_dist_sq(&r, &q); }
}
trait Pager {
    fn read_into(&self, out: &mut Vec<u8>);
    fn read(&self) -> Vec<u8> { self.read_into(x); y }
}
";
        let it = items(src);
        let names: Vec<(String, Option<String>, Option<String>)> = it
            .iter()
            .map(|i| (i.name.clone(), i.qual.clone(), i.trait_qual.clone()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("free".into(), None, None),
                ("point_query_with".into(), Some("Octree".into()), None),
                (
                    "step1_into".into(),
                    Some("PvIndex".into()),
                    Some("Step1Engine".into())
                ),
                ("read_into".into(), Some("Pager".into()), None),
                ("read".into(), Some("Pager".into()), None),
            ]
        );
        assert_eq!(call_names(&it[0]), vec!["helper"]);
        assert_eq!(call_names(&it[1]), vec!["descend", "leaf_record_dists_sq"]);
        assert_eq!(call_names(&it[3]), Vec::<String>::new()); // bodyless
        assert_eq!(call_names(&it[4]), vec!["read_into"]);
    }

    #[test]
    fn call_spellings() {
        let src = "fn f() {
            plain(1);
            recv.method(2);
            Wal::append_commit(3);
            codec::put_u32(b, 4);
            Vec::<u8>::with_capacity(8);
            Self::helper();
            assert_eq!(a, b);
            vec![1, 2];
            if x { g() }
        }";
        let it = items(src);
        assert_eq!(it.len(), 1);
        let calls = &it[0].calls;
        assert_eq!(calls[0].callee, Callee::Free("plain".into()));
        assert_eq!(calls[1].callee, Callee::Method("method".into()));
        assert_eq!(
            calls[2].callee,
            Callee::Qualified("Wal".into(), "append_commit".into())
        );
        assert_eq!(
            calls[3].callee,
            Callee::Qualified("codec".into(), "put_u32".into())
        );
        assert_eq!(
            calls[4].callee,
            Callee::Qualified("Vec".into(), "with_capacity".into())
        );
        assert_eq!(
            calls[5].callee,
            Callee::Qualified("Self".into(), "helper".into())
        );
        assert_eq!(calls[6].callee, Callee::Macro("assert_eq".into()));
        assert_eq!(calls[7].callee, Callee::Macro("vec".into()));
        assert_eq!(calls[8].callee, Callee::Free("g".into()));
    }

    #[test]
    fn nested_fns_own_their_calls() {
        let src = "fn outer() { inner(); fn inner() { deep(); } after(); }";
        let it = items(src);
        assert_eq!(it.len(), 2);
        assert_eq!(call_names(&it[0]), vec!["inner", "after"]);
        assert!(!it[0].nested);
        assert_eq!(call_names(&it[1]), vec!["deep"]);
        assert!(it[1].nested);
    }

    #[test]
    fn impl_headers_with_generics_and_where() {
        let src = "
impl<'a, P: Pager> BufferPool<P> where P: Send { fn evict(&self) {} }
impl<T> Iterator for Iter<T> { fn next(&mut self) -> Option<T> { None } }
";
        let it = items(src);
        assert_eq!(it[0].qual.as_deref(), Some("BufferPool"));
        assert_eq!(it[1].qual.as_deref(), Some("Iter"));
        assert_eq!(it[1].trait_qual.as_deref(), Some("Iterator"));
    }

    #[test]
    fn generic_fn_headers_do_not_eat_the_body() {
        let src = "fn f<T: Into<U>>(x: T) -> Vec<u8> { g() }\nfn h() { k() }";
        let it = items(src);
        assert_eq!(it.len(), 2);
        assert_eq!(call_names(&it[0]), vec!["g"]);
        assert_eq!(call_names(&it[1]), vec!["k"]);
    }

    #[test]
    fn spans_cover_items_exactly() {
        let src = "fn a() { x() }\n\npub fn b(v: u32) -> u32 { v }\n";
        let it = items(src);
        assert_eq!(&src[it[0].span.0..it[0].span.1], "fn a() { x() }");
        assert_eq!(
            &src[it[1].span.0..it[1].span.1],
            "fn b(v: u32) -> u32 { v }"
        );
    }

    #[test]
    fn totality_on_malformed_input() {
        for src in [
            "fn",
            "fn (",
            "impl",
            "impl {",
            "impl Foo",
            "trait",
            "trait {",
            "fn f(",
            "fn f() {",
            "fn f<T(] {}",
            "} } fn g() { h( }",
            "impl<T for X { fn m() {} }",
        ] {
            let _ = parse(src); // must not panic
        }
    }
}
