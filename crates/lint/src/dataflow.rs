//! Fixpoint dataflow over the call graph: the three interprocedural
//! rules.
//!
//! Each rule picks an explicit *soundness direction* for the uncertainty
//! the call graph cannot remove (see the resolution policy in
//! [`crate::callgraph`]):
//!
//! * **R1 (crash-path panic-freedom)** over-approximates: every
//!   candidate of an ambiguous call is treated as *reachable*, so a panic
//!   is never missed because resolution was unsure. (Unresolved external
//!   calls have no body to scan; they are listed by `--dump-callgraph`.)
//! * **R3 (persist/fence pairing)** under-approximates: a mutation is
//!   flagged only when *no* fence can be proven on any path — an
//!   unresolved `self.`-call is assumed to be a fence, so uncertainty
//!   never produces a false alarm on the gate.
//! * **R9 (atomic-group bracketing)** follows R3's direction: an
//!   unresolved `self.`-call after `begin_atomic` is assumed to close the
//!   group.
//!
//! The fence/close analyses run *downward* (does this function, or
//! anything it calls, fence?) and acceptance runs *upward* (is every
//! caller path fenced?); both are monotone boolean fixpoints, so
//! recursion converges.

use crate::callgraph::CallGraph;
use crate::lexer::{is_ident_byte, line_of, line_starts, mask, token_offsets};
use crate::parse::parse_masked;
use crate::rules::{mk_finding, Finding, R3_FENCES, R3_MUTATIONS, R3_SCOPE};
use std::collections::BTreeMap;

/// Entry-point names for R1 reachability.
const R1_ENTRY_NAMES: [&str; 3] = ["recover", "crash", "dirty_shutdown"];
/// Entry points must be defined under these path prefixes.
const R1_ENTRY_PATHS: [&str; 2] = ["crates/core/src/", "crates/nvm/src/"];

/// Runs the interprocedural rules over a whole corpus of
/// `(repo-relative path, content)` files and returns their findings
/// (unsorted; the caller merges and sorts).
pub fn interprocedural_findings(files: &[(String, String)]) -> Vec<Finding> {
    let mut masked: BTreeMap<&str, (String, Vec<usize>)> = BTreeMap::new();
    let mut items = Vec::new();
    for (path, content) in files {
        let m = mask(content);
        let starts = line_starts(&m);
        items.extend(parse_masked(path, &m));
        masked.insert(path.as_str(), (m, starts));
    }
    let graph = CallGraph::build(items);
    let feats: Vec<Features> = graph.fns.iter().map(Features::scan).collect();
    let line_at = |path: &str, offset: usize| -> usize {
        masked
            .get(path)
            .map_or(1, |(_, starts)| line_of(starts, offset))
    };

    let mut findings = Vec::new();
    r1_reachable_panic_freedom(&graph, &feats, &line_at, &mut findings);
    r3_persist_fence_pairing(&graph, &feats, &line_at, &mut findings);
    r9_atomic_bracketing(&graph, &feats, &line_at, &mut findings);
    findings
}

/// Per-function token features, scanned once from the masked body.
struct Features {
    /// Offsets (absolute in the file) of R3 mutation tokens.
    mutations: Vec<usize>,
    /// Whether an R3 fence token appears locally.
    fence_local: bool,
    /// Offsets of `begin_atomic(` call tokens.
    begins: Vec<usize>,
    /// Offsets of `end_atomic(` call tokens.
    ends: Vec<usize>,
    /// Offsets of early-exit tokens: `?` and `return`.
    exits: Vec<usize>,
    /// `(offset, pattern)` of panic-prone tokens.
    panics: Vec<(usize, &'static str)>,
    /// `(offset, subscript ident)` of unguarded bare-identifier indexing.
    unguarded_idx: Vec<(usize, String)>,
}

impl Features {
    fn scan(f: &crate::parse::FnItem) -> Features {
        let body = f.body.as_str();
        let base = f.body_start;
        let abs = |rel: usize| base + rel;

        let mut mutations = Vec::new();
        for pat in R3_MUTATIONS {
            mutations.extend(body.match_indices(pat).map(|(at, _)| abs(at)));
        }
        mutations.sort_unstable();
        let fence_local = R3_FENCES.iter().any(|pat| body.contains(pat));

        let call_token = |name: &str| -> Vec<usize> {
            token_offsets(body, name)
                .into_iter()
                .filter(|&at| body[at + name.len()..].trim_start().starts_with('('))
                .map(abs)
                .collect()
        };
        let begins = call_token("begin_atomic");
        let ends = call_token("end_atomic");

        let mut exits: Vec<usize> = body
            .bytes()
            .enumerate()
            .filter(|&(_, b)| b == b'?')
            .map(|(at, _)| abs(at))
            .collect();
        exits.extend(token_offsets(body, "return").into_iter().map(abs));
        exits.sort_unstable();

        let mut panics = Vec::new();
        for pat in [".unwrap()", ".expect(", "panic!", "unreachable!"] {
            panics.extend(body.match_indices(pat).map(|(at, _)| (abs(at), pat)));
        }
        panics.sort_unstable();

        let unguarded_idx = unguarded_indexing(body)
            .into_iter()
            .map(|(at, id)| (abs(at), id))
            .collect();

        Features {
            mutations,
            fence_local,
            begins,
            ends,
            exits,
            panics,
            unguarded_idx,
        }
    }
}

/// Bare-identifier subscripts (`x[i]`) with no visible bound on `i` in the
/// same function. Deliberately narrow: literal subscripts, ranges, and
/// compound expressions are out of scope; `i` counts as guarded when it is
/// bound by a `for` pattern, compared against a bound (`i <`, `i <=`,
/// `i >=` — assertions included), or derived through `%` / `.min(` /
/// `.clamp(` / `& mask` in an assignment (see [`masked`]).
fn unguarded_indexing(body: &str) -> Vec<(usize, String)> {
    let bytes = body.as_bytes();
    let mut out = Vec::new();
    for (open, _) in body.match_indices('[') {
        if open == 0
            || !(is_ident_byte(bytes[open - 1])
                || bytes[open - 1] == b')'
                || bytes[open - 1] == b']')
        {
            continue; // array literal / attribute / slice type, not indexing
        }
        let mut depth = 0i64;
        let mut close = open;
        while close < bytes.len() {
            match bytes[close] {
                b'[' => depth += 1,
                b']' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            close += 1;
        }
        if close >= bytes.len() {
            continue;
        }
        let sub = body[open + 1..close].trim();
        if sub.is_empty()
            || sub.bytes().next().is_some_and(|b| b.is_ascii_digit())
            || !sub.bytes().all(is_ident_byte)
        {
            continue; // literal, range, or compound expression
        }
        if !ident_guarded(body, sub) {
            out.push((open, sub.to_string()));
        }
    }
    out
}

/// Whether `ident` has a visible bound anywhere in `body`.
fn ident_guarded(body: &str, ident: &str) -> bool {
    let ins = token_offsets(body, "in");
    for f in token_offsets(body, "for") {
        // The pattern between `for` and its `in` binds iteration variables.
        if let Some(&i) = ins.iter().find(|&&i| i > f) {
            if token_offsets(&body[f..i], ident).iter().any(|_| true) {
                return true;
            }
        }
    }
    for at in token_offsets(body, ident) {
        let rest = body[at + ident.len()..].trim_start();
        // Comparison against a bound (covers if/while guards and asserts).
        if (rest.starts_with('<') && !rest.starts_with("<<"))
            || rest.starts_with(">=")
            || rest.starts_with("<=")
        {
            return true;
        }
        // Assignment deriving the ident through a bounding operation.
        if rest.starts_with('=') && !rest.starts_with("==") {
            let stmt_end = rest.find(';').unwrap_or(rest.len());
            let rhs = &rest[..stmt_end];
            if rhs.contains('%') || rhs.contains(".min(") || rhs.contains(".clamp(") || masked(rhs)
            {
                return true;
            }
        }
        // Walk back: `let ident = ... % ...` is caught above; also accept a
        // preceding `< ident` upper-bound comparison.
        let before = body[..at].trim_end();
        if before.ends_with('<') && !before.ends_with("<<") {
            return true;
        }
    }
    false
}

/// Whether `expr` applies a binary `&` whose other operand is a mask: an
/// integer literal, an all-caps constant, or a parenthesised `(… - 1)`.
/// `addr & 63` and `addr & (len - 1)` bound the result; `addr & v.len()`
/// does not.
fn masked(expr: &str) -> bool {
    let is_mask = |op: &str| {
        let name = op.rsplit("::").next().unwrap_or(op);
        op.starts_with(|c: char| c.is_ascii_digit())
            || (op.starts_with('(') && op[1..op.len() - 1].trim_end().ends_with("- 1"))
            || (name.starts_with(|c: char| c.is_ascii_uppercase())
                && name
                    .bytes()
                    .all(|b| b.is_ascii_uppercase() || b.is_ascii_digit() || b == b'_'))
    };
    expr.match_indices('&').any(|(at, _)| {
        let (left, right) = (expr[..at].trim_end(), expr[at + 1..].trim_start());
        let binary = left.ends_with(|c: char| is_ident_byte(c as u8) || c == ')' || c == ']')
            && !right.starts_with('&');
        binary && (is_mask(leading_operand(right)) || is_mask(trailing_operand(left)))
    })
}

/// The operand `s` starts with: a balanced `(…)` group, or a path of
/// identifier characters and `::` that is not a call or a field access
/// (those yield `""`).
fn leading_operand(s: &str) -> &str {
    let end = if s.starts_with('(') {
        let mut depth = 0i64;
        s.bytes()
            .position(|b| {
                depth += i64::from(b == b'(') - i64::from(b == b')');
                depth == 0
            })
            .map_or(0, |close| close + 1)
    } else {
        s.bytes()
            .position(|b| !(is_ident_byte(b) || b == b':'))
            .unwrap_or(s.len())
    };
    if s[end..].trim_start().starts_with(['.', '(']) {
        ""
    } else {
        &s[..end]
    }
}

/// The operand `s` ends with, read backwards like [`leading_operand`]: a
/// balanced `(…)` group that is not a call's argument list, or a path
/// that is not a field access (both else `""`).
fn trailing_operand(s: &str) -> &str {
    let start = if s.ends_with(')') {
        let mut depth = 0i64;
        s.bytes()
            .rposition(|b| {
                depth += i64::from(b == b')') - i64::from(b == b'(');
                depth == 0
            })
            .unwrap_or(s.len())
    } else {
        s.bytes()
            .rposition(|b| !(is_ident_byte(b) || b == b':'))
            .map_or(0, |at| at + 1)
    };
    let before = s[..start].trim_end();
    let call = s.ends_with(')') && before.ends_with(|c: char| is_ident_byte(c as u8));
    if before.ends_with('.') || call {
        ""
    } else {
        &s[start..]
    }
}

/// Downward boolean fixpoint: `out[f] = base[f] || any(out[callee])`.
fn reach_down(graph: &CallGraph, base: Vec<bool>) -> Vec<bool> {
    let mut out = base;
    loop {
        let mut changed = false;
        for i in 0..graph.fns.len() {
            if out[i] {
                continue;
            }
            if graph.edges[i].iter().any(|e| out[e.callee]) {
                out[i] = true;
                changed = true;
            }
        }
        if !changed {
            return out;
        }
    }
}

/// Upward ∀-acceptance fixpoint:
/// `acc[x] = callers(x) ≠ ∅ && ∀ (c, site) ∈ callers(x): ok(c, site) || acc[c]`.
fn accepted_up(graph: &CallGraph, ok: impl Fn(usize, usize) -> bool) -> Vec<bool> {
    let mut acc = vec![false; graph.fns.len()];
    loop {
        let mut changed = false;
        for x in 0..graph.fns.len() {
            if acc[x] || graph.callers[x].is_empty() {
                continue;
            }
            if graph.callers[x]
                .iter()
                .all(|&(c, site)| ok(c, site) || acc[c])
            {
                acc[x] = true;
                changed = true;
            }
        }
        if !changed {
            return acc;
        }
    }
}

// ------------------------------------------------------------ R1 ----

fn r1_reachable_panic_freedom(
    graph: &CallGraph,
    feats: &[Features],
    line_at: &impl Fn(&str, usize) -> usize,
    findings: &mut Vec<Finding>,
) {
    let entries = graph.find(&R1_ENTRY_PATHS, &R1_ENTRY_NAMES);
    // BFS, remembering which entry first reached each node.
    let mut reached_from: Vec<Option<usize>> = vec![None; graph.fns.len()];
    let mut queue = std::collections::VecDeque::new();
    for &e in &entries {
        if reached_from[e].is_none() {
            reached_from[e] = Some(e);
            queue.push_back(e);
        }
    }
    while let Some(i) = queue.pop_front() {
        let entry = reached_from[i].unwrap_or(i);
        for e in &graph.edges[i] {
            if reached_from[e.callee].is_none() {
                reached_from[e.callee] = Some(entry);
                queue.push_back(e.callee);
            }
        }
    }
    for i in 0..graph.fns.len() {
        let Some(entry) = reached_from[i] else {
            continue;
        };
        let f = &graph.fns[i];
        let entry_name = &graph.fns[entry].name;
        for &(at, pat) in &feats[i].panics {
            findings.push(mk_finding(
                &f.path,
                line_at(&f.path, at),
                "R1",
                &format!(
                    "`{pat}{}` in fn `{}` — reachable from crash-path entry `{entry_name}`; return a typed error",
                    if pat.ends_with('(') { "...)" } else { "" },
                    f.name,
                ),
            ));
        }
        for (at, ident) in &feats[i].unguarded_idx {
            findings.push(mk_finding(
                &f.path,
                line_at(&f.path, *at),
                "R1",
                &format!(
                    "unguarded index `[{ident}]` in fn `{}` — reachable from crash-path entry `{entry_name}`; bound-check the subscript or use .get",
                    f.name,
                ),
            ));
        }
    }
}

// ------------------------------------------------------------ R3 ----

fn r3_persist_fence_pairing(
    graph: &CallGraph,
    feats: &[Features],
    line_at: &impl Fn(&str, usize) -> usize,
    findings: &mut Vec<Finding>,
) {
    // Downward: does f fence locally, via a callee, or possibly via an
    // unresolved self-call (conservative fallback)?
    let base: Vec<bool> = (0..graph.fns.len())
        .map(|i| feats[i].fence_local || graph.unresolved[i].iter().any(|u| u.self_call))
        .collect();
    let fences = reach_down(graph, base);
    // Upward: is every caller path fenced?
    let accepted = accepted_up(graph, |c, _site| fences[c]);

    for i in 0..graph.fns.len() {
        let f = &graph.fns[i];
        if feats[i].mutations.is_empty() || !R3_SCOPE.iter().any(|s| f.path.starts_with(s)) {
            continue;
        }
        if fences[i] || accepted[i] {
            continue;
        }
        let detail = if graph.callers[i].is_empty() {
            " (no callers found)".to_string()
        } else {
            match graph.callers[i]
                .iter()
                .find(|&&(c, _)| !fences[c] && !accepted[c])
            {
                Some(&(c, _)) => format!(" (unfenced caller path via `{}`)", graph.fns[c].name),
                None => String::new(),
            }
        };
        findings.push(mk_finding(
            &f.path,
            line_at(&f.path, feats[i].mutations[0]),
            "R3",
            &format!(
                "fn `{}` writes persistent metadata with no write-queue enqueue, snapshot, or persist marker in this function, its callees, or on every caller path{detail}",
                f.name,
            ),
        ));
    }
}

// ------------------------------------------------------------- R9 ----

fn r9_atomic_bracketing(
    graph: &CallGraph,
    feats: &[Features],
    line_at: &impl Fn(&str, usize) -> usize,
    findings: &mut Vec<Finding>,
) {
    // Downward: does f (or anything it calls) contain `end_atomic`?
    let base: Vec<bool> = (0..graph.fns.len())
        .map(|i| !feats[i].ends.is_empty() || graph.unresolved[i].iter().any(|u| u.self_call))
        .collect();
    let closes = reach_down(graph, base);
    // Offsets in f after which the group can be considered closed: local
    // `end_atomic` tokens, call sites into transitively-closing callees,
    // and unresolved self-calls (conservative fallback).
    let close_events: Vec<Vec<usize>> = (0..graph.fns.len())
        .map(|i| {
            let mut ev = feats[i].ends.clone();
            ev.extend(
                graph.edges[i]
                    .iter()
                    .filter(|e| closes[e.callee])
                    .map(|e| e.site),
            );
            ev.extend(
                graph.unresolved[i]
                    .iter()
                    .filter(|u| u.self_call)
                    .map(|u| u.site),
            );
            ev.sort_unstable();
            ev
        })
        .collect();
    // Upward: a function whose group stays open locally is accepted iff
    // every caller closes after the call site (or escalates in turn).
    let accepted = accepted_up(graph, |c, site| close_events[c].iter().any(|&e| e > site));

    for i in 0..graph.fns.len() {
        let f = &graph.fns[i];
        for &b in &feats[i].begins {
            let window_end = close_events[i].iter().copied().find(|&e| e > b);
            match window_end {
                Some(end) => {
                    for &x in feats[i].exits.iter().filter(|&&x| x > b && x < end) {
                        findings.push(mk_finding(
                            &f.path,
                            line_at(&f.path, x),
                            "R9",
                            &format!(
                                "early exit (`?`/`return`) between `begin_atomic` and its `end_atomic` in fn `{}` — the atomic group leaks open on this path",
                                f.name,
                            ),
                        ));
                    }
                }
                None => {
                    if !accepted[i] {
                        findings.push(mk_finding(
                            &f.path,
                            line_at(&f.path, b),
                            "R9",
                            &format!(
                                "fn `{}` opens an atomic group that neither it nor any caller path closes with `end_atomic`",
                                f.name,
                            ),
                        ));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unguarded_indexing_is_narrow() {
        // Literal, range, and compound subscripts are out of scope.
        assert!(unguarded_indexing("{ a[0]; b[1..3]; c[i * 8]; }").is_empty());
        // For-bound and compared idents are guarded.
        assert!(unguarded_indexing("{ for i in 0..4 { w[i] = 0; } }").is_empty());
        assert!(unguarded_indexing("{ if i < n { w[i] = 0; } }").is_empty());
        assert!(unguarded_indexing("{ let i = x % n; w[i] = 0; }").is_empty());
        // A bare unbounded ident subscript is flagged.
        let hits = unguarded_indexing("{ w[i] = 0; }");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].1, "i");
    }

    #[test]
    fn ident_guard_ignores_shifts() {
        // `bank << 2` is a shift, not a comparison guard...
        assert!(!ident_guarded("{ let x = bank << 2; a[bank]; }", "bank"));
        // ...but a real comparison is.
        assert!(ident_guarded(
            "{ debug_assert!(bank < n); a[bank]; }",
            "bank"
        ));
    }

    #[test]
    fn only_a_mask_operand_makes_and_a_bound() {
        for bounded in [
            "= addr as usize & 63",
            "= 0x3f & addr",
            "= (addr & LINE_MASK) as usize",
            "= addr & Self::MASK",
            "= addr & (len - 1)",
            "= (self.ways - 1) & hash",
        ] {
            assert!(masked(bounded), "{bounded}");
        }
        for unbounded in [
            "= addr as usize & pre.len()",
            "= addr & len",
            "= addr & MASK.count_ones()",
            "= f(&MASK)",
            "= a && b",
            "= addr & mask(len - 1)",
            "= addr & (len + 1)",
        ] {
            assert!(!masked(unbounded), "{unbounded}");
        }
    }
}
