//! The five rules amnt-lint owns (R1, R3, R5, R6, R9) and the per-file
//! rule driver.
//!
//! rustc and clippy carry the checks that resolve types or need no call
//! graph: the workspace lint table in `Cargo.toml`, `clippy.toml`, and the
//! `#![deny(clippy::...)]` attributes on the crash-path files and engine
//! crates (see DESIGN.md §2b). What stays here is what the toolchain cannot
//! check.
//!
//! The per-file rules work on the masked source from [`crate::lexer`]
//! (comments and string literals blanked): R5 on the code mask, R6 on the
//! complementary *comment* mask, because to-do markers live in comments.
//! Rule scoping is path-based, so tests can exercise rules by handing
//! [`crate::lint_source`] a fabricated repo-relative path.
//!
//! Three rules are *interprocedural* and live in [`crate::dataflow`],
//! which runs over the whole corpus at once: R1 (panics reachable from the
//! crash path), R3 (persist/fence pairing across caller paths), and R9
//! (atomic-group bracketing). This module keeps their catalog entries and
//! the shared scope/token constants.

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
pub const RULES: [RuleInfo; 5] = [
    RuleInfo {
        id: "R1",
        severity: Severity::Error,
        summary: "no panics reachable from the crash/recovery path",
        explanation: "\
The protocol engines, the recovery engine and the controller run on the
crash/recovery path: a panic there is indistinguishable from the very
data-loss event the system exists to survive, and it skips
the typed IntegrityError/RecoveryError reporting the callers rely on.
Any function transitively callable from a recover/crash/dirty_shutdown
entry point in crates/core or crates/nvm — whatever file it lives in —
must be free of unwrap/expect/panic!/unreachable! and of unguarded
bare-identifier indexing (`buf[i]` with no visible bound on `i`).
Ambiguous calls count as reachable (over-approximation), so uncertainty
never hides a panic.
Non-test code only (#[cfg(test)] items are exempt).
clippy also denies the four panic patterns in every function, reachable
or not, of crates/core/src/protocol/, recovery.rs and controller.rs.
Remedy: return IntegrityError / RecoveryError (add a variant if none
fits); for infallible slice-to-array conversions prefer explicit
fold/indexing helpers over .try_into().expect(...); bound-check
subscripts (a debug_assert! of the bound also satisfies the guard
heuristic, but prefer a real check on the crash path).",
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

/// Persist/fence-pairing scope for R3 (where *mutations* are policed;
/// fences may be found on caller paths in any crate).
pub(crate) const R3_SCOPE: [&str; 2] =
    ["crates/core/src/protocol/", "crates/core/src/controller.rs"];

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

/// Runs the per-file rules (R5, R6) on one file's content under its
/// repo-relative `path` (forward slashes). The path drives rule scoping.
/// The interprocedural rules (R1, R3, R9) are *not* run here —
/// [`crate::lint_corpus`] layers them on top.
pub(crate) fn per_file_findings(path: &str, content: &str) -> Vec<Finding> {
    let mut findings = Vec::new();

    // R5: truncating casts on cycle/timestamp variables.
    if path == "crates/core/src/timing.rs" || path.starts_with("crates/sim/src/") {
        let masked = mask(content);
        let starts = line_starts(&masked);
        let test_ranges = cfg_test_ranges(&masked);
        for (ident, at) in truncating_time_casts(&masked) {
            let line = line_of(&starts, at);
            if !test_ranges.iter().any(|&(a, b)| line >= a && line <= b) {
                findings.push(mk_finding(
                    path,
                    line,
                    "R5",
                    &format!("truncating cast on cycle/timestamp variable `{ident}` — keep it u64"),
                ));
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
        assert_eq!(ids, vec!["R1", "R3", "R5", "R6", "R9"]);
        assert!(rule_info("r3").is_some());
        assert!(rule_info("r9").is_some());
        // Retired rules: rustc and clippy carry them now.
        for gone in ["R2", "R4", "R7", "R8", "R10"] {
            assert!(rule_info(gone).is_none(), "{gone}");
        }
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
    fn time_cast_heuristic() {
        let hits = truncating_time_casts("let a = total_cycles as u32; let b = bank_mask as u32; let c = t as usize; let d = t as u64;");
        let names: Vec<&str> = hits.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["total_cycles", "t"]);
    }
}
