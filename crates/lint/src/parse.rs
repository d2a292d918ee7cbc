//! The parse layer: `fn` items and their call sites, extracted from
//! masked source.
//!
//! This sits between the lexer ([`crate::lexer`], which blanks comments
//! and strings) and the interprocedural rules ([`crate::callgraph`],
//! [`crate::dataflow`]). It is still *not* a Rust parser — it recognises
//! exactly the shapes the rules need:
//!
//! * `fn` items with their body spans and 1-indexed lines, including
//!   nested functions (each as its own item);
//! * the enclosing `impl` block's target type (the *receiver type hint*
//!   used by call resolution — `impl Display for Severity` hints
//!   `Severity`, `impl SecureMemory` hints `SecureMemory`);
//! * whether the function takes a `self` receiver;
//! * every call site in the body, classified by receiver shape
//!   ([`Receiver`]): `self.f(..)`, `self.field.f(..)`, `local.f(..)`,
//!   `Type::f(..)`, `expr.f(..)`, or bare `f(..)`;
//! * the body's `let`-binding types ([`FnItem::locals`]): `let c:
//!   Controller = ..` and `let c = Controller::new(..)` both pin `c` to
//!   `Controller`, so a later `c.step(..)` resolves on that type alone
//!   instead of falling back to the name-containment heuristic. A name
//!   re-bound at *different* types is dropped from the table (shadowing
//!   makes any single answer wrong somewhere in the body).
//!
//! Functions inside `#[cfg(test)]` regions are marked [`FnItem::in_test`]
//! and excluded from the call graph by [`crate::callgraph::CallGraph`].

use crate::lexer::{cfg_test_ranges, is_ident_byte, line_of, line_starts, mask, token_offsets};
use std::collections::BTreeMap;

/// How a call site names its receiver. Resolution treats each shape
/// differently (see `crate::callgraph` for the full policy).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Receiver {
    /// `self.f(..)` — a method call on the current object.
    SelfDot,
    /// `a.ident.f(..)` — a method call on a projected field (the field
    /// name is the receiver type hint).
    Field(String),
    /// `ident.f(..)` with nothing before `ident` — a method call on a
    /// body-level binding; [`FnItem::locals`] may pin its exact type.
    Local(String),
    /// `Type::f(..)` or `module::f(..)` — a path call; the last path
    /// segment before the function name is kept.
    Path(String),
    /// `<expr>.f(..)` — a method call on an unnamed expression
    /// (e.g. `a.b().f(..)`).
    Expr,
    /// `f(..)` — a bare call.
    Bare,
}

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Callee name as written.
    pub name: String,
    /// Receiver shape.
    pub recv: Receiver,
    /// Absolute byte offset of the callee name in the masked file.
    pub offset: usize,
}

/// One `fn` item: identity, span, receiver hints, and call sites.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Repo-relative path of the defining file (forward slashes).
    pub path: String,
    /// Function name.
    pub name: String,
    /// Target type of the innermost enclosing `impl` (or `trait`) block,
    /// if any.
    pub impl_type: Option<String>,
    /// 1-indexed line of the `fn` keyword.
    pub line: usize,
    /// Byte offset of the `fn` keyword in the masked file.
    pub start: usize,
    /// Byte offset of the body's opening `{`.
    pub body_start: usize,
    /// Byte offset one past the body's closing `}`.
    pub end: usize,
    /// Whether the parameter list starts with a `self` receiver.
    pub has_receiver: bool,
    /// Whether the item sits inside a `#[cfg(test)]` region.
    pub in_test: bool,
    /// Call sites in the body, in textual order. Calls inside *nested*
    /// `fn` items are attributed to the nested item, not this one.
    pub calls: Vec<CallSite>,
    /// `let`-binding name → simple type name, from annotations
    /// (`let c: Controller`) and path-constructor initialisers
    /// (`let c = Controller::new(..)`, `let c = Controller { .. }`).
    /// Names re-bound at conflicting types are absent.
    pub locals: BTreeMap<String, String>,
    /// The masked body text (`{` to `}` inclusive), for feature scans.
    pub body: String,
}

impl FnItem {
    /// `path::Type::name` or `path::name` — the stable display identity
    /// used by `--dump-callgraph` and finding messages.
    pub fn display_id(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{}::{}::{}", self.path, t, self.name),
            None => format!("{}::{}", self.path, self.name),
        }
    }
}

/// Keywords that look like calls when followed by `(`.
const CALL_KEYWORDS: [&str; 16] = [
    "if", "else", "match", "while", "for", "loop", "return", "fn", "in", "as", "let", "move",
    "mut", "ref", "where", "impl",
];

/// Bare "calls" that are really ubiquitous enum constructors; skipping
/// them keeps the unresolved-site list signal-bearing.
const CONSTRUCTOR_NAMES: [&str; 3] = ["Some", "Ok", "Err"];

/// Parses one file into its `fn` items. `path` is the repo-relative path
/// (it only labels the items; no filesystem access happens here).
pub fn parse_file(path: &str, content: &str) -> Vec<FnItem> {
    let masked = mask(content);
    parse_masked(path, &masked)
}

/// [`parse_file`] over already-masked source.
pub fn parse_masked(path: &str, masked: &str) -> Vec<FnItem> {
    let starts = line_starts(masked);
    let test_ranges = cfg_test_ranges(masked);
    let impls = impl_spans(masked);
    let raw = raw_fn_spans(masked);
    let mut items = Vec::with_capacity(raw.len());
    for span in &raw {
        let line = line_of(&starts, span.start);
        let in_test = test_ranges.iter().any(|&(a, b)| line >= a && line <= b);
        let impl_type = impls
            .iter()
            .filter(|(a, b, _)| *a < span.start && span.end <= *b)
            .min_by_key(|(a, b, _)| b - a)
            .map(|(_, _, t)| t.clone());
        // Nested fn spans strictly inside this one own their own text.
        let nested: Vec<(usize, usize)> = raw
            .iter()
            .filter(|o| o.start > span.start && o.end <= span.end)
            .map(|o| (o.start, o.end))
            .collect();
        let calls = call_sites(masked, span.body_start, span.end, &nested);
        let locals = local_bindings(masked, span.body_start, span.end, &nested);
        items.push(FnItem {
            path: path.to_string(),
            name: span.name.clone(),
            impl_type,
            line,
            start: span.start,
            body_start: span.body_start,
            end: span.end,
            has_receiver: span.has_receiver,
            in_test,
            calls,
            locals,
            body: masked[span.body_start..span.end].to_string(),
        });
    }
    items
}

struct RawFnSpan {
    name: String,
    start: usize,
    body_start: usize,
    end: usize,
    has_receiver: bool,
}

/// Every `fn` item with a body: name, header, and body span. Bodyless
/// declarations (trait method signatures) are skipped.
fn raw_fn_spans(masked: &str) -> Vec<RawFnSpan> {
    let bytes = masked.as_bytes();
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i + 2 <= bytes.len() {
        if &bytes[i..i + 2] == b"fn"
            && (i == 0 || !is_ident_byte(bytes[i - 1]))
            && (i + 2 == bytes.len() || !is_ident_byte(bytes[i + 2]))
        {
            let mut j = i + 2;
            while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                j += 1;
            }
            let name_start = j;
            while j < bytes.len() && is_ident_byte(bytes[j]) {
                j += 1;
            }
            if j == name_start {
                i += 2;
                continue; // `Fn()` trait sugar, not an item
            }
            let name = masked[name_start..j].to_string();
            // Parameter list: the first `(` at angle-depth 0 (generics may
            // precede it).
            let mut angle = 0i64;
            let mut params_start = None;
            while j < bytes.len() {
                match bytes[j] {
                    b'<' => angle += 1,
                    b'>' => angle -= 1,
                    b'(' if angle <= 0 => {
                        params_start = Some(j);
                        break;
                    }
                    b'{' | b';' => break,
                    _ => {}
                }
                j += 1;
            }
            let has_receiver = match params_start {
                Some(p) => {
                    let close = matching_paren(bytes, p);
                    j = close;
                    leading_self_receiver(&masked[p + 1..close.min(masked.len())])
                }
                None => false,
            };
            // Body `{` outside any parens/brackets, or `;` for bodyless fns.
            let mut depth = 0i64;
            let mut body = None;
            while j < bytes.len() {
                match bytes[j] {
                    b'(' | b'[' => depth += 1,
                    b')' | b']' => depth -= 1,
                    b'{' if depth <= 0 => {
                        body = Some(j);
                        break;
                    }
                    b';' if depth <= 0 => break,
                    _ => {}
                }
                j += 1;
            }
            if let Some(open) = body {
                let mut k = open;
                let mut bd = 0i64;
                while k < bytes.len() {
                    match bytes[k] {
                        b'{' => bd += 1,
                        b'}' => {
                            bd -= 1;
                            if bd == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                spans.push(RawFnSpan {
                    name,
                    start: i,
                    body_start: open,
                    end: (k + 1).min(bytes.len()),
                    has_receiver,
                });
            }
            i = j;
        } else {
            i += 1;
        }
    }
    spans
}

/// Offset one past the `)` matching the `(` at `open` (or the end of
/// input, for unbalanced text).
fn matching_paren(bytes: &[u8], open: usize) -> usize {
    let mut depth = 0i64;
    let mut k = open;
    while k < bytes.len() {
        match bytes[k] {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            _ => {}
        }
        k += 1;
    }
    bytes.len()
}

/// Whether a parameter-list body starts with a `self` receiver
/// (`self`, `mut self`, `&self`, `&mut self`, `&'a self`, ...).
fn leading_self_receiver(params: &str) -> bool {
    let mut rest = params.trim_start();
    if let Some(r) = rest.strip_prefix('&') {
        rest = r.trim_start();
        if rest.starts_with('\'') {
            // Lifetime: skip `'ident`.
            rest = &rest[1..];
            let n = rest.bytes().take_while(|&b| is_ident_byte(b)).count();
            rest = rest[n..].trim_start();
        }
    }
    if let Some(r) = rest.strip_prefix("mut") {
        if r.starts_with(|c: char| c.is_whitespace()) {
            rest = r.trim_start();
        }
    }
    rest == "self"
        || rest.starts_with("self,")
        || rest.starts_with("self ")
        || rest.starts_with("self\n")
        || rest.starts_with("self:")
}

/// The spans and target-type names of `impl` (and `trait`) blocks.
/// Returns `(body_open, body_close, type_name)` triples.
fn impl_spans(masked: &str) -> Vec<(usize, usize, String)> {
    let bytes = masked.as_bytes();
    let mut out = Vec::new();
    for kw in ["impl", "trait"] {
        for at in token_offsets(masked, kw) {
            let mut j = at + kw.len();
            // Skip generic parameters on the keyword itself.
            while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                j += 1;
            }
            if j < bytes.len() && bytes[j] == b'<' {
                let mut depth = 0i64;
                while j < bytes.len() {
                    match bytes[j] {
                        b'<' => depth += 1,
                        b'>' => {
                            depth -= 1;
                            if depth == 0 {
                                j += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
            // Read to the body `{`, remembering the text after a `for` if
            // one appears (`impl Trait for Type`).
            let head_start = j;
            let mut for_at = None;
            let mut open = None;
            let mut angle = 0i64;
            while j < bytes.len() {
                match bytes[j] {
                    b'<' => angle += 1,
                    b'>' => angle -= 1,
                    b'{' if angle <= 0 => {
                        open = Some(j);
                        break;
                    }
                    b';' if angle <= 0 => break,
                    b'f' if angle <= 0
                        && masked[j..].starts_with("for")
                        && !is_ident_byte(bytes[j.saturating_sub(1)])
                        && !is_ident_byte(*bytes.get(j + 3).unwrap_or(&b' ')) =>
                    {
                        for_at = Some(j);
                    }
                    _ => {}
                }
                j += 1;
            }
            let Some(open) = open else { continue };
            let head = match for_at {
                Some(f) => &masked[f + 3..open],
                None => &masked[head_start..open],
            };
            let Some(name) = type_simple_name(head) else {
                continue;
            };
            // Matching close brace.
            let mut depth = 0i64;
            let mut k = open;
            while k < bytes.len() {
                match bytes[k] {
                    b'{' => depth += 1,
                    b'}' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            out.push((open, k + 1, name));
        }
    }
    out
}

/// The simple name of a type head: strips `&`/`dyn`/`mut`, generics, a
/// trailing `where` clause, and leading path segments.
/// `amnt_bmt::CounterBlock<T> where T: X` → `CounterBlock`.
fn type_simple_name(head: &str) -> Option<String> {
    let mut t = head.trim();
    if let Some(w) = t.find(" where ") {
        t = t[..w].trim();
    }
    t = t.trim_start_matches('&').trim_start();
    for prefix in ["dyn ", "mut "] {
        if let Some(r) = t.strip_prefix(prefix) {
            t = r.trim_start();
        }
    }
    if let Some(lt) = t.find('<') {
        t = t[..lt].trim();
    }
    let last = t.rsplit("::").next()?.trim();
    if last.is_empty() || !last.bytes().all(is_ident_byte) {
        return None;
    }
    Some(last.to_string())
}

/// Extracts call sites in `masked[body_start..end]`, skipping `nested`
/// sub-spans (they belong to nested `fn` items).
fn call_sites(
    masked: &str,
    body_start: usize,
    end: usize,
    nested: &[(usize, usize)],
) -> Vec<CallSite> {
    let bytes = masked.as_bytes();
    let mut out = Vec::new();
    let mut i = body_start;
    while i < end.min(bytes.len()) {
        if let Some(&(_, nend)) = nested.iter().find(|&&(ns, ne)| i >= ns && i < ne) {
            i = nend;
            continue;
        }
        if bytes[i] != b'(' {
            i += 1;
            continue;
        }
        let open = i;
        i += 1;
        // Walk back over whitespace to the callee name.
        let mut j = open;
        while j > body_start && bytes[j - 1].is_ascii_whitespace() {
            j -= 1;
        }
        if j > body_start && bytes[j - 1] == b'!' {
            continue; // macro invocation
        }
        let name_end = j;
        while j > body_start && is_ident_byte(bytes[j - 1]) {
            j -= 1;
        }
        if j == name_end {
            continue; // `(` after an operator or another `(` — grouping
        }
        let name = &masked[j..name_end];
        if CALL_KEYWORDS.contains(&name) || CONSTRUCTOR_NAMES.contains(&name) {
            continue;
        }
        if name.as_bytes()[0].is_ascii_digit() {
            continue;
        }
        // `fn name(` is a definition header (nested fns are skipped above,
        // but closures bound with `fn` pointers etc. stay out too).
        let before_name = masked[..j].trim_end();
        if before_name.ends_with("fn") {
            continue;
        }
        let recv = receiver_of(masked, body_start, j);
        out.push(CallSite {
            name: name.to_string(),
            recv,
            offset: j,
        });
    }
    out
}

/// Extracts the `let`-binding type table of `masked[body_start..end]`,
/// skipping `nested` fn sub-spans. A binding contributes a type when the
/// pattern is a plain ident and either an annotation (`let x: T = ..`) or
/// a path-constructor initialiser (`let x = T::new(..)`, `let x = T {`)
/// names one; a name re-bound at a different type is dropped (shadowing).
fn local_bindings(
    masked: &str,
    body_start: usize,
    end: usize,
    nested: &[(usize, usize)],
) -> BTreeMap<String, String> {
    let bytes = masked.as_bytes();
    let end = end.min(bytes.len());
    // `None` marks a poisoned (conflictingly re-bound) name.
    let mut out: BTreeMap<String, Option<String>> = BTreeMap::new();
    let mut i = body_start;
    while i + 3 <= end {
        if let Some(&(_, nend)) = nested.iter().find(|&&(ns, ne)| i >= ns && i < ne) {
            i = nend;
            continue;
        }
        if &bytes[i..i + 3] != b"let"
            || (i > 0 && is_ident_byte(bytes[i - 1]))
            || (i + 3 < end && is_ident_byte(bytes[i + 3]))
        {
            i += 1;
            continue;
        }
        let mut j = i + 3;
        let skip_ws = |j: &mut usize| {
            while *j < end && bytes[*j].is_ascii_whitespace() {
                *j += 1;
            }
        };
        skip_ws(&mut j);
        if masked[j..end].starts_with("mut") && !is_ident_byte(*bytes.get(j + 3).unwrap_or(&b' ')) {
            j += 3;
            skip_ws(&mut j);
        }
        let name_start = j;
        while j < end && is_ident_byte(bytes[j]) {
            j += 1;
        }
        let name = &masked[name_start..j];
        // Plain lowercase idents only: `let Some(x)`, `let (a, b)` and
        // friends are patterns, not nameable bindings.
        if name.is_empty() || !name.starts_with(|c: char| c.is_ascii_lowercase() || c == '_') {
            i = j.max(i + 3);
            continue;
        }
        skip_ws(&mut j);
        let ty = match bytes.get(j) {
            // Annotation: everything up to the initialising `=` (or `;`).
            Some(b':') if bytes.get(j + 1) != Some(&b':') => {
                let ty_start = j + 1;
                let mut depth = 0i64;
                let mut k = ty_start;
                while k < end {
                    match bytes[k] {
                        b'<' | b'(' | b'[' => depth += 1,
                        b'>' if bytes.get(k.wrapping_sub(1)) != Some(&b'-') => depth -= 1,
                        b')' | b']' => depth -= 1,
                        b'=' | b';' if depth <= 0 => break,
                        _ => {}
                    }
                    k += 1;
                }
                type_simple_name(&masked[ty_start..k])
            }
            // Initialiser: a path constructor or struct literal names the
            // type; anything else (call result, borrow, literal) doesn't.
            Some(b'=') if bytes.get(j + 1) != Some(&b'=') => {
                let mut k = j + 1;
                while k < end && bytes[k].is_ascii_whitespace() {
                    k += 1;
                }
                let mut segs: Vec<&str> = Vec::new();
                loop {
                    let s = k;
                    while k < end && is_ident_byte(bytes[k]) {
                        k += 1;
                    }
                    if k == s {
                        break;
                    }
                    segs.push(&masked[s..k]);
                    if masked[k..end].starts_with("::") {
                        k += 2;
                    } else {
                        break;
                    }
                }
                let upper = |s: &str| s.starts_with(|c: char| c.is_ascii_uppercase());
                while k < end && bytes[k].is_ascii_whitespace() {
                    k += 1;
                }
                match bytes.get(k) {
                    // `T::new(..)` / `path::T::default()` — the last
                    // uppercase segment before the constructor fn.
                    Some(b'(') if segs.len() >= 2 => segs[..segs.len() - 1]
                        .iter()
                        .rfind(|s| upper(s))
                        .map(|s| s.to_string()),
                    // `T { .. }` / `path::T { .. }` struct literal.
                    Some(b'{') => segs.last().filter(|s| upper(s)).map(|s| s.to_string()),
                    _ => None,
                }
            }
            _ => None,
        };
        if let Some(ty) = ty {
            out.entry(name.to_string())
                .and_modify(|prev| {
                    if prev.as_deref() != Some(ty.as_str()) {
                        *prev = None;
                    }
                })
                .or_insert(Some(ty));
        }
        i = j.max(i + 3);
    }
    out.into_iter()
        .filter_map(|(k, v)| v.map(|ty| (k, ty)))
        .collect()
}

/// Classifies the receiver of a call whose name starts at `name_at`.
fn receiver_of(masked: &str, body_start: usize, name_at: usize) -> Receiver {
    let bytes = masked.as_bytes();
    if name_at == body_start {
        return Receiver::Bare;
    }
    match bytes[name_at - 1] {
        b'.' => {
            // Method call: look at what precedes the dot.
            let mut j = name_at - 1;
            // `)` / `]` / `?` → some expression we don't name.
            if j > body_start && matches!(bytes[j - 1], b')' | b']' | b'?') {
                return Receiver::Expr;
            }
            let recv_end = j;
            while j > body_start && is_ident_byte(bytes[j - 1]) {
                j -= 1;
            }
            if j == recv_end {
                return Receiver::Expr;
            }
            let recv = &masked[j..recv_end];
            let projected = j > body_start && bytes[j - 1] == b'.';
            if recv == "self" && !projected {
                Receiver::SelfDot
            } else if projected {
                Receiver::Field(recv.to_string())
            } else {
                Receiver::Local(recv.to_string())
            }
        }
        b':' if name_at >= 2 && bytes[name_at - 2] == b':' => {
            let mut j = name_at - 2;
            let seg_end = j;
            while j > body_start && is_ident_byte(bytes[j - 1]) {
                j -= 1;
            }
            if j == seg_end {
                return Receiver::Expr;
            }
            Receiver::Path(masked[j..seg_end].to_string())
        }
        _ => Receiver::Bare,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_items_carry_impl_types_and_receivers() {
        let src = "struct S;\n\
                   impl S {\n\
                   \x20   fn method(&mut self, x: u8) -> u8 { x }\n\
                   \x20   fn assoc(x: u8) -> u8 { x }\n\
                   }\n\
                   impl std::fmt::Display for S {\n\
                   \x20   fn fmt(&self) -> u8 { 0 }\n\
                   }\n\
                   fn free() {}\n";
        let items = parse_file("a.rs", src);
        let ids: Vec<String> = items.iter().map(|f| f.display_id()).collect();
        assert_eq!(
            ids,
            vec![
                "a.rs::S::method",
                "a.rs::S::assoc",
                "a.rs::S::fmt",
                "a.rs::free"
            ]
        );
        assert!(items[0].has_receiver);
        assert!(!items[1].has_receiver);
        assert!(items[2].has_receiver);
        assert!(!items[3].has_receiver);
    }

    #[test]
    fn call_sites_classified_by_receiver() {
        let src = "impl S {\n\
                   \x20   fn go(&mut self) {\n\
                   \x20       self.step();\n\
                   \x20       self.nvm.write_u64(1, 2);\n\
                   \x20       Helper::make(3);\n\
                   \x20       free_fn();\n\
                   \x20       self.list().pop();\n\
                   \x20       emit!(\"not a call\");\n\
                   \x20       if x() {}\n\
                   \x20   }\n\
                   }\n";
        let items = parse_file("a.rs", src);
        let calls: Vec<(String, Receiver)> = items[0]
            .calls
            .iter()
            .map(|c| (c.name.clone(), c.recv.clone()))
            .collect();
        assert_eq!(
            calls,
            vec![
                ("step".into(), Receiver::SelfDot),
                ("write_u64".into(), Receiver::Field("nvm".into())),
                ("make".into(), Receiver::Path("Helper".into())),
                ("free_fn".into(), Receiver::Bare),
                ("list".into(), Receiver::SelfDot),
                ("pop".into(), Receiver::Expr),
                ("x".into(), Receiver::Bare),
            ]
        );
    }

    #[test]
    fn nested_fn_calls_belong_to_the_nested_item() {
        let src = "fn outer() {\n\
                   \x20   fn inner() { deep(); }\n\
                   \x20   shallow();\n\
                   }\n";
        let items = parse_file("a.rs", src);
        assert_eq!(items.len(), 2);
        let outer = items.iter().find(|f| f.name == "outer").unwrap();
        let inner = items.iter().find(|f| f.name == "inner").unwrap();
        assert_eq!(outer.calls.len(), 1);
        assert_eq!(outer.calls[0].name, "shallow");
        assert_eq!(inner.calls.len(), 1);
        assert_eq!(inner.calls[0].name, "deep");
    }

    #[test]
    fn cfg_test_items_are_marked() {
        let src = "fn live() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   \x20   fn helper() {}\n\
                   }\n";
        let items = parse_file("a.rs", src);
        assert!(!items.iter().find(|f| f.name == "live").unwrap().in_test);
        assert!(items.iter().find(|f| f.name == "helper").unwrap().in_test);
    }

    #[test]
    fn generic_fns_and_where_clauses_parse() {
        let src = "fn g<T: Into<u64>>(x: T) -> u64 where T: Copy { x.into() }\n";
        let items = parse_file("a.rs", src);
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].name, "g");
        assert!(!items[0].has_receiver);
        assert_eq!(items[0].calls.len(), 1);
        assert_eq!(items[0].calls[0].name, "into");
    }

    #[test]
    fn local_receivers_are_distinguished_from_projected_fields() {
        let src = "impl S {\n\
                   \x20   fn go(&mut self) {\n\
                   \x20       let c = Controller::new(1);\n\
                   \x20       c.step();\n\
                   \x20       self.nvm.flush();\n\
                   \x20   }\n\
                   }\n";
        let items = parse_file("a.rs", src);
        let calls: Vec<(String, Receiver)> = items[0]
            .calls
            .iter()
            .map(|c| (c.name.clone(), c.recv.clone()))
            .collect();
        assert_eq!(
            calls,
            vec![
                ("new".into(), Receiver::Path("Controller".into())),
                ("step".into(), Receiver::Local("c".into())),
                ("flush".into(), Receiver::Field("nvm".into())),
            ]
        );
    }

    #[test]
    fn let_bindings_pin_types_from_annotations_and_constructors() {
        let src = "fn go() {\n\
                   \x20   let a: amnt_core::Controller = make();\n\
                   \x20   let mut b = Tracer::new(cfg);\n\
                   \x20   let c = Config { depth: 3 };\n\
                   \x20   let d = helper();\n\
                   \x20   let (e, f) = pair();\n\
                   \x20   let g: Vec<Frame> = Vec::new();\n\
                   }\n";
        let items = parse_file("a.rs", src);
        let l = &items[0].locals;
        assert_eq!(l.get("a").map(String::as_str), Some("Controller"));
        assert_eq!(l.get("b").map(String::as_str), Some("Tracer"));
        assert_eq!(l.get("c").map(String::as_str), Some("Config"));
        assert_eq!(l.get("d"), None, "plain call initialiser pins nothing");
        assert_eq!(l.get("e"), None, "tuple patterns are skipped");
        assert_eq!(l.get("g").map(String::as_str), Some("Vec"));
    }

    #[test]
    fn conflicting_rebinds_poison_the_local_type() {
        let src = "fn go() {\n\
                   \x20   let x = Nvm::new();\n\
                   \x20   let x = Cache::new();\n\
                   \x20   let y = Nvm::new();\n\
                   \x20   let y = Nvm::with_capacity(4);\n\
                   }\n";
        let items = parse_file("a.rs", src);
        assert_eq!(
            items[0].locals.get("x"),
            None,
            "re-bound at a different type"
        );
        assert_eq!(items[0].locals.get("y").map(String::as_str), Some("Nvm"));
    }

    #[test]
    fn nested_fn_bindings_stay_out_of_the_outer_table() {
        let src = "fn outer() {\n\
                   \x20   fn inner() { let z = Nvm::new(); }\n\
                   \x20   let w = Cache::new();\n\
                   }\n";
        let items = parse_file("a.rs", src);
        let outer = items.iter().find(|f| f.name == "outer").unwrap();
        let inner = items.iter().find(|f| f.name == "inner").unwrap();
        assert_eq!(outer.locals.get("z"), None);
        assert_eq!(outer.locals.get("w").map(String::as_str), Some("Cache"));
        assert_eq!(inner.locals.get("z").map(String::as_str), Some("Nvm"));
    }

    #[test]
    fn type_names_strip_paths_generics_and_refs() {
        assert_eq!(
            type_simple_name(" amnt_bmt::CounterBlock<T> "),
            Some("CounterBlock".into())
        );
        assert_eq!(type_simple_name(" &mut Nvm "), Some("Nvm".into()));
        assert_eq!(type_simple_name("S where T: X"), Some("S".into()));
        assert_eq!(type_simple_name(""), None);
    }
}
