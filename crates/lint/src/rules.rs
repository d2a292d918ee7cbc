//! The nine workspace rules (R1–R9) and the per-file rule driver.
//!
//! Every per-file rule works on the masked source from [`crate::lexer`]
//! (comments and string literals blanked), except R6, which scans the
//! complementary *comment* mask because to-do markers live in comments.
//! Rule scoping is path-based, so tests can exercise rules by handing
//! [`crate::lint_source`] a fabricated repo-relative path.
//!
//! Three rules are *interprocedural* and live in [`crate::dataflow`],
//! which runs over the whole corpus at once: R1's reachability extension,
//! R3 (persist/fence pairing across caller paths), and R9 (atomic-group
//! bracketing). This module keeps their catalog entries and the shared
//! scope/token constants.

use crate::lexer::{
    cfg_test_ranges, comments, is_ident_byte, line_of, line_starts, mask, token_offsets,
};
use std::fmt;

/// Finding severity. Both levels fail the gate when not baselined; the
/// distinction is informational (warn-level rules are style/process, not
/// correctness).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Correctness or determinism hazard.
    Error,
    /// Process/style requirement.
    Warn,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
            Severity::Warn => write!(f, "warn"),
        }
    }
}

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative path, forward slashes.
    pub path: String,
    /// 1-indexed line.
    pub line: usize,
    /// Rule id ("R1".."R9").
    pub rule: &'static str,
    /// Rule severity.
    pub severity: Severity,
    /// Stable, human-readable description of the violation.
    pub message: String,
}

impl Finding {
    /// The baseline key: everything except the line number, so moving code
    /// within a file does not invalidate the allowlist.
    pub fn key(&self) -> String {
        format!("{} · {} · {}", self.path, self.rule, self.message)
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} · {} · {} · {}",
            self.path, self.line, self.rule, self.severity, self.message
        )
    }
}

/// Static description of one rule, for `--list-rules` and `--explain`.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Rule id ("R1".."R9").
    pub id: &'static str,
    /// Rule severity.
    pub severity: Severity,
    /// One-line summary.
    pub summary: &'static str,
    /// Multi-line rationale and remedy, shown by `--explain`.
    pub explanation: &'static str,
}

/// All rules, in id order.
pub const RULES: [RuleInfo; 9] = [
    RuleInfo {
        id: "R1",
        severity: Severity::Error,
        summary: "no panics in, or reachable from, the crash/recovery path",
        explanation: "\
The protocol engines, the recovery engine and the controller run on the
crash/recovery path: a panic there is indistinguishable from the very
data-loss event the system exists to survive, and it skips
the typed IntegrityError/RecoveryError reporting the callers rely on.
Two layers:
  1. Per-file: unwrap/expect/panic!/unreachable! anywhere under
     crates/core/src/protocol/, crates/core/src/recovery.rs,
     crates/core/src/controller.rs.
  2. Reachability: any function transitively callable from a
     recover/crash/dirty_shutdown entry point in crates/core or
     crates/nvm — whatever file it lives in — must be free of the same
     four patterns and of unguarded bare-identifier indexing (`buf[i]`
     with no visible bound on `i`). Ambiguous calls count as reachable
     (over-approximation), so uncertainty never hides a panic.
Non-test code only (#[cfg(test)] items are exempt).
Remedy: return IntegrityError / RecoveryError (add a variant if none
fits); for infallible slice-to-array conversions prefer explicit
fold/indexing helpers over .try_into().expect(...); bound-check
subscripts (a debug_assert! of the bound also satisfies the guard
heuristic, but prefer a real check on the crash path).",
    },
    RuleInfo {
        id: "R2",
        severity: Severity::Error,
        summary: "no nondeterminism sources in simulation/model code",
        explanation: "\
The simulator's correctness argument is bit-identical replay: the same
seed must produce the same trace, cycle counts, and recovery decisions on
every run. thread_rng/SystemTime/Instant::now inject wall-clock or OS
entropy, and iterating a std HashMap (RandomState) makes tie-breaks
depend on hasher seeding.
Scope: crates/core/src/, crates/sim/src/, crates/workloads/src/,
crates/trace/src/ — non-test code only. The trace crate is in scope
because its artifacts carry the same byte-identity guarantee as the
simulation results they describe. The fault sweep
(crates/core/src/fault.rs) is explicitly in scope: its artifact must be
byte-identical at any AMNT_JOBS, so a nondeterminism source in its
workload generator or scenario order breaks every downstream
determinism gate at once.
Remedy: use amnt_prng::Rng seeded from the run configuration; iterate
BTreeMap (or sort keys first) wherever iteration order can reach a
result, a statistic, or an eviction/prune decision.",
    },
    RuleInfo {
        id: "R3",
        severity: Severity::Error,
        summary: "persistent-metadata mutation must reach an enqueue/fence on every caller path",
        explanation: "\
Protocol code that mutates persistent metadata (raw NVM writes via
write_block_untimed / write_bytes_untimed / write_u64) must reach — in
the same protocol step — a durability action: the write-queue timeline
(timeline.write / timeline.reset), a rollback snapshot
(snapshot_before_lazy_update), or a persist marker (mark_persisted).
Otherwise a crash between the mutation and whatever later fences it can
strand metadata that recovery never learns about.
The check is interprocedural: a mutation is accepted when the function
itself fences (the leaf case), when one of its callees does, or when
*every* caller path fences after the call. Unresolved `self.`-method
calls are assumed to fence (under-approximation), so call-graph
uncertainty never fails the gate falsely; `--dump-callgraph` shows what
resolution decided.
Scope: mutations in crates/core/src/protocol/ and
crates/core/src/controller.rs; caller paths may run through any crate.
Remedy: pair the mutation with its durability action in one function
where possible; a genuinely cross-function pairing is now accepted as
long as every caller path fences.",
    },
    RuleInfo {
        id: "R4",
        severity: Severity::Error,
        summary: "every lib.rs must carry #![forbid(unsafe_code)] and #![warn(missing_docs)]",
        explanation: "\
The workspace's safety story is 'no unsafe anywhere, docs everywhere';
both are crate-level attributes that silently stop applying when a new
crate forgets them.
Scope: every */src/lib.rs.
Remedy: add #![forbid(unsafe_code)] and #![warn(missing_docs)] at the
top of the crate root.",
    },
    RuleInfo {
        id: "R5",
        severity: Severity::Error,
        summary: "no truncating casts on cycle/timestamp variables",
        explanation: "\
Cycle counters are u64 and long simulations overflow 32 bits; a
truncating `as u32` / `as usize` on a variable named like a
cycle/tick/timestamp (or the conventional `t`) silently wraps and
corrupts stall accounting and wear statistics.
Scope: crates/core/src/timing.rs and crates/sim/src/.
Remedy: keep cycle arithmetic in u64; narrow only derived, provably
small quantities (and rename them so the intent is visible).",
    },
    RuleInfo {
        id: "R6",
        severity: Severity::Warn,
        summary: "to-do markers (TODO/FIXME) must reference an issue tag",
        explanation: "\
Unanchored TODOs rot. Each TODO/FIXME must cite an issue on the same
line, either as #<number> or as an AMNT-<number> tag, so it can be found
and retired.
Scope: all scanned files (comments included).
Remedy: write `TODO(#123): ...` or `FIXME(AMNT-7): ...`, or file the
issue and delete the comment.",
    },
    RuleInfo {
        id: "R7",
        severity: Severity::Error,
        summary: "no raw thread spawning outside the experiment executor",
        explanation: "\
All host parallelism flows through amnt_bench::exec, whose job pool
collects results in deterministic declaration order — that is what makes
`AMNT_JOBS` a pure speed knob and keeps results/*.json byte-identical at
any worker count. A stray thread::spawn / thread::scope / thread::Builder
elsewhere reintroduces scheduling-dependent ordering (and, in simulation
crates, breaks the single-threaded determinism argument outright).
Scope: all scanned non-test code except crates/bench/src/exec.rs.
Remedy: express the work as jobs and run them with
amnt_bench::exec::run_jobs_with or a bench Grid; if a new subsystem genuinely
needs its own threading model, extend exec instead of bypassing it.",
    },
    RuleInfo {
        id: "R8",
        severity: Severity::Error,
        summary: "no println!/eprintln!/dbg! in engine crates — observe through the trace layer",
        explanation: "\
The engine crates are instrumented through amnt-trace: counters,
histograms, spans, and epoch samples that serialise into deterministic
sidecar artifacts. A stray println!/eprintln!/dbg! in engine code
bypasses that layer — it interleaves nondeterministically under the
parallel executor, pollutes the experiment binaries' stdout tables, and
(for dbg!) ships debug scaffolding. Experiment/CLI binaries own their
stdout and are exempt.
Scope: crates/core/src/, crates/sim/src/, crates/cache/src/,
crates/nvm/src/ — non-test code only; src/bin/ directories are exempt.
Remedy: record the fact through the component's CompTrace / the
controller's Tracer (a counter or instant event), or return it as data;
if it is operator output, it belongs in a binary under src/bin/ or
crates/bench.",
    },
    RuleInfo {
        id: "R9",
        severity: Severity::Error,
        summary: "begin_atomic must be matched by end_atomic on every path, interprocedurally",
        explanation: "\
The NVM device's atomic group (begin_atomic .. end_atomic) defers
visibility of enclosed writes until the group commits; a group left open
silently swallows every later write into a bracket that never commits,
which a crash then discards wholesale. Two hazards:
  1. Early exit: a `?` or `return` between begin_atomic and the first
     point the group can close (a local end_atomic, a call into a
     function that transitively ends the group, or an unresolved
     `self.`-call) leaks the group open on that path.
  2. Unmatched open: a begin_atomic with no closing event at all is
     accepted only if every caller path ends the group after the call
     (checked to a fixpoint through the call graph); otherwise flagged.
Unresolved `self.`-calls are assumed to close (under-approximation, same
direction as R3).
Scope: all scanned non-test code.
Remedy: close the group before every exit (match on the Result, end the
group in both arms, then propagate), or document the caller-side close by
keeping it visible in the direct caller.",
    },
];

/// Looks up one rule's metadata by id (case-insensitive).
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id.eq_ignore_ascii_case(id))
}

/// Crash-critical scope for R1's per-file layer (the reachability layer
/// in [`crate::dataflow`] skips these files' panic patterns to avoid
/// duplicate findings, but still applies the indexing check).
pub(crate) const R1_SCOPE: [&str; 3] = [
    "crates/core/src/protocol/",
    "crates/core/src/recovery.rs",
    "crates/core/src/controller.rs",
];

/// Determinism scope for R2. The trace crate is included: its sidecar
/// artifacts carry the same byte-identity guarantee as the results. The
/// `crates/core/src/` prefix deliberately covers the fault sweep
/// (`fault.rs`) — its artifacts are byte-compared across worker counts, so
/// its workload generator and scenario order must stay entropy-free
/// (locked by `fault_module_is_in_r2_scope` below).
const R2_SCOPE: [&str; 4] = [
    "crates/core/src/",
    "crates/sim/src/",
    "crates/workloads/src/",
    "crates/trace/src/",
];

/// Persist/fence-pairing scope for R3 (where *mutations* are policed;
/// fences may be found on caller paths in any crate).
pub(crate) const R3_SCOPE: [&str; 2] =
    ["crates/core/src/protocol/", "crates/core/src/controller.rs"];

/// Engine-crate scope for R8 (print macros). `src/bin/` subtrees are
/// exempt — binaries own their stdout.
const R8_SCOPE: [&str; 4] = [
    "crates/core/src/",
    "crates/sim/src/",
    "crates/cache/src/",
    "crates/nvm/src/",
];

/// Raw-NVM mutation entry points (R3).
pub(crate) const R3_MUTATIONS: [&str; 3] = [
    ".write_block_untimed(",
    ".write_bytes_untimed(",
    ".write_u64(",
];

/// Durability/ordering actions that discharge an R3 mutation.
pub(crate) const R3_FENCES: [&str; 4] = [
    "timeline.write(",
    "timeline.reset(",
    "snapshot_before_lazy_update(",
    "mark_persisted(",
];

/// Runs the per-file rules on one file's content under its repo-relative
/// `path` (forward slashes). The path drives rule scoping. The
/// interprocedural rules (R1's reachability layer, R3, R9) are *not* run
/// here — [`crate::lint_corpus`] layers them on top.
pub(crate) fn per_file_findings(path: &str, content: &str) -> Vec<Finding> {
    let masked = mask(content);
    let starts = line_starts(&masked);
    let test_ranges = cfg_test_ranges(&masked);
    let in_test = |line: usize| test_ranges.iter().any(|&(a, b)| line >= a && line <= b);
    let mut findings = Vec::new();

    // R1: crash-path panics.
    if R1_SCOPE.iter().any(|s| path.starts_with(s)) {
        let patterns: [(&str, &str); 4] = [
            (
                ".unwrap()",
                "`.unwrap()` on the crash path — return a typed error",
            ),
            (
                ".expect(",
                "`.expect(...)` on the crash path — return a typed error",
            ),
            (
                "panic!",
                "`panic!` on the crash path — return a typed error",
            ),
            (
                "unreachable!",
                "`unreachable!` on the crash path — return a typed error",
            ),
        ];
        for (pat, msg) in patterns {
            for at in substr_offsets(&masked, pat) {
                let line = line_of(&starts, at);
                if !in_test(line) {
                    findings.push(mk_finding(path, line, "R1", msg));
                }
            }
        }
    }

    // R2: nondeterminism sources.
    if R2_SCOPE.iter().any(|s| path.starts_with(s)) {
        let tokens: [(&str, &str); 3] = [
            (
                "thread_rng",
                "`thread_rng` — seed an amnt_prng::Rng from the run config instead",
            ),
            (
                "SystemTime",
                "`SystemTime` — wall-clock time breaks deterministic replay",
            ),
            (
                "Instant",
                "`Instant` — host timing breaks deterministic replay",
            ),
        ];
        for (tok, msg) in tokens {
            for at in token_offsets(&masked, tok) {
                let line = line_of(&starts, at);
                if !in_test(line) {
                    findings.push(mk_finding(path, line, "R2", msg));
                }
            }
        }
        for (ident, at) in hashmap_iterations(&masked) {
            let line = line_of(&starts, at);
            if !in_test(line) {
                findings.push(mk_finding(
                    path,
                    line,
                    "R2",
                    &format!(
                        "iteration over std HashMap `{ident}` — order is hasher-seeded; use BTreeMap or sort"
                    ),
                ));
            }
        }
    }

    // R3 moved to crate::dataflow — fence pairing is judged over the call
    // graph now, and a single-file corpus reproduces the old leaf-local
    // behavior (no callers to rescue an unfenced mutation).

    // R4: crate-root hygiene attributes.
    if path.ends_with("src/lib.rs") {
        for (attr, what) in [
            (
                "#![forbid(unsafe_code)]",
                "missing `#![forbid(unsafe_code)]` at crate root",
            ),
            (
                "#![warn(missing_docs)]",
                "missing `#![warn(missing_docs)]` at crate root",
            ),
        ] {
            if !masked.contains(attr) {
                findings.push(mk_finding(path, 1, "R4", what));
            }
        }
    }

    // R5: truncating casts on cycle/timestamp variables.
    if path == "crates/core/src/timing.rs" || path.starts_with("crates/sim/src/") {
        for (ident, at) in truncating_time_casts(&masked) {
            let line = line_of(&starts, at);
            if !in_test(line) {
                findings.push(mk_finding(
                    path,
                    line,
                    "R5",
                    &format!("truncating cast on cycle/timestamp variable `{ident}` — keep it u64"),
                ));
            }
        }
    }

    // R7: raw thread spawning outside the executor. Substring match: the
    // patterns carry their own `::` path context, so they catch both
    // `std::thread::spawn` and `thread::spawn` after a use-import.
    if path != "crates/bench/src/exec.rs" {
        let patterns: [(&str, &str); 3] = [
            (
                "thread::spawn",
                "`thread::spawn` outside the executor — use amnt_bench::exec::run_jobs_with",
            ),
            (
                "thread::scope",
                "`thread::scope` outside the executor — use amnt_bench::exec::run_jobs_with",
            ),
            (
                "thread::Builder",
                "`thread::Builder` outside the executor — use amnt_bench::exec::run_jobs_with",
            ),
        ];
        for (pat, msg) in patterns {
            for at in substr_offsets(&masked, pat) {
                let line = line_of(&starts, at);
                if !in_test(line) {
                    findings.push(mk_finding(path, line, "R7", msg));
                }
            }
        }
    }

    // R8: print macros in engine code. Token-bounded so `println` never
    // also matches inside `eprintln`; the `!` requirement keeps plain
    // identifiers (a local named `dbg`) out.
    if R8_SCOPE.iter().any(|s| path.starts_with(s)) && !path.contains("/bin/") {
        let macros: [(&str, &str); 3] = [
            (
                "println",
                "`println!` in engine code — record it through the trace layer",
            ),
            (
                "eprintln",
                "`eprintln!` in engine code — record it through the trace layer",
            ),
            (
                "dbg",
                "`dbg!` in engine code — record it through the trace layer",
            ),
        ];
        for (name, msg) in macros {
            for at in token_offsets(&masked, name) {
                if !masked[at + name.len()..].starts_with('!') {
                    continue;
                }
                let line = line_of(&starts, at);
                if !in_test(line) {
                    findings.push(mk_finding(path, line, "R8", msg));
                }
            }
        }
    }

    // R6: to-do marker anchoring — scans the comment mask, since the
    // markers live in comments (and markers quoted in string literals,
    // like this linter's own messages, must not match).
    for (idx, raw) in comments(content).lines().enumerate() {
        let has_marker = ["TODO", "FIXME"].iter().any(|m| {
            raw.match_indices(m).any(|(at, _)| {
                let b = raw.as_bytes();
                (at == 0 || !is_ident_byte(b[at - 1]))
                    && (at + m.len() >= b.len() || !is_ident_byte(b[at + m.len()]))
            })
        });
        if has_marker && !has_issue_tag(raw) {
            findings.push(mk_finding(
                path,
                idx + 1,
                "R6",
                "TODO/FIXME without an issue tag — write TODO(#123) or TODO(AMNT-7)",
            ));
        }
    }

    findings.sort_by(|a, b| (a.line, a.rule, &a.message).cmp(&(b.line, b.rule, &b.message)));
    findings
}

pub(crate) fn mk_finding(path: &str, line: usize, rule: &'static str, message: &str) -> Finding {
    let severity = rule_info(rule)
        .map(|r| r.severity)
        .unwrap_or(Severity::Error);
    Finding {
        path: path.to_string(),
        line,
        rule,
        severity,
        message: message.to_string(),
    }
}

/// Plain substring occurrences (R1's patterns carry their own `.`/`!`
/// delimiters, so token boundaries are unnecessary).
fn substr_offsets(hay: &str, needle: &str) -> Vec<usize> {
    hay.match_indices(needle).map(|(at, _)| at).collect()
}

/// Method suffixes that iterate a map (R2).
const ITER_SUFFIXES: [&str; 9] = [
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain(",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
];

/// What a `let` binding does to its name's HashMap taint (R2).
enum BindKind {
    /// Bare rebind of another name (`let p = &mut self.map;`): the alias
    /// inherits whatever the source name's taint is *at this point*.
    Alias(String),
    /// RHS mentions `HashMap` (constructor or ascription): tainted.
    Tainted,
    /// Anything else (`m.len()`, a comparison, a different type): the
    /// binding shadows the name and kills any earlier taint.
    Clean,
}

/// One `let` binding: where the bound name starts, and what it does.
struct Bind {
    offset: usize,
    name: String,
    kind: BindKind,
}

/// Identifiers whose value is a std HashMap *at the point of iteration*,
/// paired with each offset where they are iterated.
///
/// Position-aware heuristic in three parts: names declared as `HashMap`
/// anywhere (`x: HashMap<..>` ascriptions and struct fields) are tainted
/// file-wide; `let` bindings are classified in textual order as bare
/// aliases (`let p = &mut self.map;` — taint follows the source),
/// tainting (`= HashMap::new()`), or clean (a shadowing rebind like
/// `let m = m.len();` *kills* the taint from that point on); each
/// iteration site (`x.iter()`, `for .. in &x`, ...) then resolves its
/// ident through the nearest preceding binding chain.
fn hashmap_iterations(masked: &str) -> Vec<(String, usize)> {
    let declared = declared_hashmap_names(masked);
    let binds = let_bindings(masked);
    let mut hits: Vec<(String, usize)> = iteration_sites(masked)
        .into_iter()
        .filter(|(ident, at)| is_tainted(&declared, &binds, ident, *at))
        .collect();
    hits.sort_by_key(|(_, at)| *at);
    hits.dedup();
    hits
}

/// Names declared with a `HashMap` type: `x: HashMap<..>`,
/// `x: Option<HashMap<..>>`, struct fields, fn params. These taint the
/// name file-wide (fields have no binding position to track).
fn declared_hashmap_names(masked: &str) -> Vec<String> {
    let bytes = masked.as_bytes();
    let mut idents: Vec<String> = Vec::new();
    for (at, _) in masked.match_indices("HashMap") {
        // Walk back over `Option<`-style wrappers to the `:` that binds
        // this type to a name (`::` is path syntax, not a declaration —
        // constructor RHSes are classified by `let_bindings` instead).
        let mut i = at;
        while i > 0 {
            let b = bytes[i - 1];
            if b == b':' {
                if i >= 2 && bytes[i - 2] == b':' {
                    break;
                }
                let mut j = i - 1;
                while j > 0 && bytes[j - 1].is_ascii_whitespace() {
                    j -= 1;
                }
                let end = j;
                while j > 0 && is_ident_byte(bytes[j - 1]) {
                    j -= 1;
                }
                if j < end {
                    let name = masked[j..end].to_string();
                    if name != "mut" && !idents.contains(&name) {
                        idents.push(name);
                    }
                }
                break;
            }
            if b == b'<' || b == b' ' || b == b'&' || is_ident_byte(b) {
                i -= 1;
                continue;
            }
            break;
        }
    }
    idents
}

/// Every `let [mut] name [: Type] = rhs;` in the file, in textual order.
fn let_bindings(masked: &str) -> Vec<Bind> {
    let bytes = masked.as_bytes();
    let mut out = Vec::new();
    for at in token_offsets(masked, "let") {
        let mut i = at + 3;
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        if masked[i..].starts_with("mut")
            && bytes.get(i + 3).is_some_and(|b| b.is_ascii_whitespace())
        {
            i += 4;
            while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                i += 1;
            }
        }
        let name_start = i;
        while i < bytes.len() && is_ident_byte(bytes[i]) {
            i += 1;
        }
        if i == name_start {
            continue; // destructuring pattern, not a plain name
        }
        let name = masked[name_start..i].to_string();
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        if bytes.get(i) == Some(&b':') {
            // Type ascription: skip to the `=` (types carry no `=`). A
            // `(`-follower means this was `if let Some(x)`-style, which
            // the name read above already rejected.
            while i < bytes.len() && bytes[i] != b'=' && bytes[i] != b';' {
                i += 1;
            }
        }
        if bytes.get(i) != Some(&b'=') || bytes.get(i + 1) == Some(&b'=') {
            continue;
        }
        let rhs_start = i + 1;
        let rhs_end = masked[rhs_start..]
            .find(';')
            .map_or(masked.len(), |p| rhs_start + p);
        out.push(Bind {
            offset: name_start,
            name,
            kind: classify_rhs(masked[rhs_start..rhs_end].trim()),
        });
    }
    out
}

/// Classifies a `let` RHS for taint purposes. A bare rebind strips an
/// optional `&` / `&mut ` and `self.` owner; anything left that is a pure
/// identifier aliases that name.
fn classify_rhs(rhs: &str) -> BindKind {
    let mut r = rhs.strip_prefix('&').unwrap_or(rhs).trim_start();
    r = r.strip_prefix("mut ").unwrap_or(r).trim_start();
    r = r.strip_prefix("self.").unwrap_or(r);
    if !r.is_empty()
        && r.bytes().all(is_ident_byte)
        && !r.as_bytes()[0].is_ascii_digit()
        && r != "mut"
    {
        return BindKind::Alias(r.to_string());
    }
    if rhs.contains("HashMap") {
        return BindKind::Tainted;
    }
    BindKind::Clean
}

/// Offsets where some identifier is iterated: `x.iter()`-style method
/// suffixes and `for .. in &x` loops. Returns `(ident, ident offset)`.
fn iteration_sites(masked: &str) -> Vec<(String, usize)> {
    let bytes = masked.as_bytes();
    let mut sites = Vec::new();
    for pat in ITER_SUFFIXES {
        for (pos, _) in masked.match_indices(pat) {
            let mut j = pos;
            while j > 0 && is_ident_byte(bytes[j - 1]) {
                j -= 1;
            }
            if j < pos && !bytes[j].is_ascii_digit() {
                sites.push((masked[j..pos].to_string(), j));
            }
        }
    }
    for (pos, _) in masked.match_indices("in &") {
        let mut j = pos + 4;
        if masked[j..].starts_with("mut ") {
            j += 4;
        }
        let start = j;
        while j < bytes.len() && is_ident_byte(bytes[j]) {
            j += 1;
        }
        if j > start && !bytes[start].is_ascii_digit() {
            sites.push((masked[start..j].to_string(), start));
        }
    }
    sites
}

/// Resolves `name`'s taint at offset `at` through the binding chain:
/// nearest preceding binding wins; aliases recurse into their source at
/// the alias's own position (offsets strictly decrease, so this
/// terminates); no binding falls back to the file-wide declared set.
fn is_tainted(declared: &[String], binds: &[Bind], name: &str, at: usize) -> bool {
    let mut name = name.to_string();
    let mut at = at;
    loop {
        let nearest = binds
            .iter()
            .filter(|b| b.name == name && b.offset < at)
            .max_by_key(|b| b.offset);
        match nearest {
            None => return declared.contains(&name),
            Some(b) => match &b.kind {
                BindKind::Tainted => return true,
                BindKind::Clean => return false,
                BindKind::Alias(src) => {
                    name = src.clone();
                    at = b.offset;
                }
            },
        }
    }
}

/// Occurrences of `<time-ish ident> as <narrow int>` in masked source.
fn truncating_time_casts(masked: &str) -> Vec<(String, usize)> {
    let bytes = masked.as_bytes();
    let mut hits = Vec::new();
    for at in token_offsets(masked, "as") {
        let rest = masked[at + 2..].trim_start();
        let narrow = ["u32", "usize", "u16", "u8", "i32", "i16", "i8"]
            .iter()
            .any(|t| {
                rest.starts_with(t)
                    && !rest[t.len()..].starts_with(|c: char| is_ident_byte(c as u8))
            });
        if !narrow {
            continue;
        }
        // Preceding token must be a plain identifier (skip `)`-terminated
        // expressions: we only claim confidence about named variables).
        let mut j = at;
        while j > 0 && bytes[j - 1] == b' ' {
            j -= 1;
        }
        let end = j;
        while j > 0 && is_ident_byte(bytes[j - 1]) {
            j -= 1;
        }
        if j == end {
            continue;
        }
        let ident = &masked[j..end];
        let last = ident.rsplit('_').next().unwrap_or(ident);
        let timeish = ident == "t"
            || ["cycle", "tick", "time"]
                .iter()
                .any(|k| ident.to_ascii_lowercase().contains(k))
            || last == "t";
        if timeish {
            hits.push((ident.to_string(), j));
        }
    }
    hits
}

/// Whether a to-do marker line carries an issue anchor: `#<digits>` or
/// `AMNT-<digits>`.
fn has_issue_tag(line: &str) -> bool {
    let bytes = line.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'#' && bytes.get(i + 1).is_some_and(|c| c.is_ascii_digit()) {
            return true;
        }
    }
    for (at, _) in line.match_indices("AMNT-") {
        if bytes.get(at + 5).is_some_and(|c| c.is_ascii_digit()) {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_table_is_consistent() {
        let ids: Vec<&str> = RULES.iter().map(|r| r.id).collect();
        assert_eq!(
            ids,
            vec!["R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9"]
        );
        assert!(rule_info("r3").is_some());
        assert!(rule_info("r9").is_some());
        assert!(rule_info("R10").is_none());
        // The cross-function R3 ROADMAP item is closed; no explanation may
        // still point at it as future work.
        for r in RULES {
            assert!(
                !r.explanation.contains("ROADMAP"),
                "{} still defers to ROADMAP",
                r.id
            );
        }
    }

    #[test]
    fn finding_key_drops_the_line() {
        let f = mk_finding("a/b.rs", 42, "R1", "msg");
        assert_eq!(f.key(), "a/b.rs · R1 · msg");
        assert_eq!(format!("{f}"), "a/b.rs:42 · R1 · error · msg");
    }

    #[test]
    fn issue_tags_recognised() {
        assert!(has_issue_tag("// TODO(#12): fix"));
        assert!(has_issue_tag("// FIXME AMNT-3 tighten"));
        assert!(!has_issue_tag("// TODO: someday"));
        assert!(!has_issue_tag("// TODO(AMNT-): someday"));
    }

    #[test]
    fn fault_module_is_in_r2_scope() {
        // The fault sweep promises byte-identical artifacts at any worker
        // count; every R2 nondeterminism source must fire there.
        let src = "fn route() {\n\
                   let r = thread_rng();\n\
                   let t = std::time::Instant::now();\n\
                   let m: HashMap<u64, u8> = HashMap::new();\n\
                   for (k, v) in &m {}\n\
                   }\n";
        let findings = per_file_findings("crates/core/src/fault.rs", src);
        let r2: Vec<_> = findings.iter().filter(|f| f.rule == "R2").collect();
        assert_eq!(r2.len(), 3, "{findings:?}");
        // Same source outside the determinism scope stays silent on R2.
        let outside = per_file_findings("crates/bench/src/bin/fault_sweep.rs", src);
        assert!(outside.iter().all(|f| f.rule != "R2"), "{outside:?}");
    }

    #[test]
    fn hashmap_iteration_heuristic() {
        let src = "let mut m: HashMap<u64, u8> = HashMap::new();\nfor (k, v) in &m {}\nm.insert(1, 2);\nlet n: BTreeMap<u64, u8> = BTreeMap::new();\nn.iter();\n";
        let hits = hashmap_iterations(&mask(src));
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].0, "m");
    }

    #[test]
    fn hashmap_alias_rebinding_is_followed() {
        // Direct alias, alias-of-alias, and a `self.`-owned field rebind
        // all inherit the HashMap taint; iterating any of them fires.
        // Hits come back in file order.
        let src = "struct S { map: HashMap<u64, u8> }\n\
                   let p = &self.map;\n\
                   let q = p;\n\
                   q.values();\n\
                   p.iter();\n";
        let hits = hashmap_iterations(&mask(src));
        let names: Vec<&str> = hits.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["q", "p"], "{hits:?}");
    }

    #[test]
    fn hashmap_mut_alias_is_followed() {
        // `&mut self.map` is as much an alias as `&self.map`.
        let src = "struct S { map: HashMap<u64, u8> }\n\
                   let p = &mut self.map;\n\
                   for k in p.keys() {}\n";
        let hits = hashmap_iterations(&mask(src));
        let names: Vec<&str> = hits.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["p"], "{hits:?}");
    }

    #[test]
    fn hashmap_shadowing_rebind_kills_taint() {
        // A shadowing `let` with a non-map RHS ends the taint: iterating
        // the name *after* the rebind is clean, *before* it still fires.
        let src = "let m: HashMap<u64, u8> = HashMap::new();\n\
                   m.iter();\n\
                   let m = sorted_keys();\n\
                   m.iter();\n\
                   let p = &m;\n\
                   p.iter();\n";
        let hits = hashmap_iterations(&mask(src));
        assert_eq!(hits.len(), 1, "{hits:?}");
        // The surviving hit is the pre-shadow iteration on line 2.
        let starts = crate::lexer::line_starts(src);
        assert_eq!(crate::lexer::line_of(&starts, hits[0].1), 2);
    }

    #[test]
    fn hashmap_alias_ignores_comparisons_and_calls() {
        // `==` is a comparison, not a rebind; a method-call RHS produces a
        // different value; neither may taint the LHS.
        let src = "let m: HashMap<u64, u8> = HashMap::new();\n\
                   let same = other == m;\n\
                   let n = m.len();\n\
                   same.iter();\n\
                   n.iter();\n";
        let hits = hashmap_iterations(&mask(src));
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn time_cast_heuristic() {
        let hits = truncating_time_casts("let a = total_cycles as u32; let b = bank_mask as u32; let c = t as usize; let d = t as u64;");
        let names: Vec<&str> = hits.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["total_cycles", "t"]);
    }
}
