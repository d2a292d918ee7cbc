//! # amnt-lint
//!
//! A zero-dependency static analysis gate for the workspace's
//! crash-path discipline: code that runs during or after a crash must
//! never panic and must pair persistent-metadata mutations with the
//! ordering machinery recovery depends on. These checks follow calls
//! across crates, which rustc and clippy do not; the checks they can carry
//! (no `unsafe`, docs, deterministic replay, the thread and print bans,
//! the crash-path files' per-file panic ban) live in the workspace lint
//! table and `clippy.toml` instead (DESIGN.md §2b).
//!
//! The scanner is a comment- and string-aware lexer (see [`lexer`]) — it
//! is *not* a full Rust parser. Two analysis layers run over it:
//!
//! * **Per-file rules** — conservative pattern checks scoped by path:
//!   truncating casts of cycle counters (R5) and untagged to-do markers
//!   (R6); see [`rules::RULES`] and `cargo run -p amnt-lint -- --explain R5`.
//! * **Interprocedural rules** — a fn-item [`parse`] layer feeds a
//!   workspace [`callgraph`], and [`dataflow`] runs boolean fixpoints
//!   over it: crash-path panic reachability (R1), persist/fence pairing
//!   across caller paths (R3), and atomic-group bracketing (R9). Use
//!   `--dump-callgraph` to see how calls resolved.
//!
//! Pre-existing or intentionally-accepted findings live in the
//! checked-in `lint-baseline.txt` (see [`baseline`]); the gate fails
//! only on *new* findings.
//!
//! ```
//! use amnt_lint::lint_source;
//!
//! // A panic reachable from a crash-path entry point.
//! let bad = "fn recover(x: Option<u8>) -> u8 { x.unwrap() }";
//! let findings = lint_source("crates/core/src/fake.rs", bad);
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].rule, "R1");
//!
//! // Outside crates/core and crates/nvm, `recover` is no entry point: clean.
//! assert!(lint_source("crates/cache/src/lru.rs", bad).is_empty());
//! ```

#![forbid(unsafe_code)]

pub mod baseline;
pub mod callgraph;
pub mod dataflow;
pub mod json;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod walk;

pub use rules::{rule_info, Finding, RuleInfo, Severity, RULES};
pub use walk::{collect_files, find_root};

use std::io;
use std::path::Path;

/// Lints a corpus of `(repo-relative path, content)` files as one unit:
/// the per-file rules on each file, then the interprocedural rules over
/// the corpus's call graph. Findings are sorted by path/line/rule.
pub fn lint_corpus(files: &[(String, String)]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (rel, content) in files {
        findings.extend(rules::per_file_findings(rel, content));
    }
    findings.extend(dataflow::interprocedural_findings(files));
    findings.sort_by(|a, b| {
        (&a.path, a.line, a.rule, &a.message).cmp(&(&b.path, b.line, b.rule, &b.message))
    });
    findings
}

/// Lints one file's content under its repo-relative `path` — a
/// single-file corpus, so the interprocedural rules see no callers and
/// reduce to their leaf cases (an unfenced R3 mutation with no callers is
/// flagged, exactly the old per-function behavior).
pub fn lint_source(path: &str, content: &str) -> Vec<Finding> {
    lint_corpus(&[(path.to_string(), content.to_string())])
}

/// Lints every scanned file under the workspace `root`, returning all raw
/// findings (baseline not yet applied), sorted by path/line/rule.
///
/// # Errors
///
/// Propagates filesystem errors from discovery or reading.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    Ok(lint_corpus(&read_corpus(root)?))
}

/// Reads every scanned file under `root` into a `(relative path,
/// content)` corpus, for [`lint_corpus`] or a call-graph dump.
///
/// # Errors
///
/// Propagates filesystem errors from discovery or reading.
pub fn read_corpus(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    for (rel, abs) in collect_files(root)? {
        files.push((rel, std::fs::read_to_string(&abs)?));
    }
    Ok(files)
}
