//! End-to-end baseline semantics: repeated baseline lines suppress
//! exactly N duplicate findings, and entries that no longer match are
//! reported stale. Runs the real linter over a fixture corpus (keys are
//! line-number-free, so duplicate panics in one file share one key).

use amnt_lint::{baseline, lint_corpus};

/// Two `.unwrap()` in one crash-path function: two findings, one key.
fn duplicate_findings() -> Vec<amnt_lint::Finding> {
    let src = "fn recover(x: Option<u8>, y: Option<u8>) -> u8 {\n\
               \x20   x.unwrap()\n\
               \x20       + y.unwrap()\n\
               }\n";
    let findings = lint_corpus(&[("crates/core/src/fake.rs".to_string(), src.to_string())]);
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert_eq!(findings[0].key(), findings[1].key());
    findings
}

#[test]
fn one_baseline_line_suppresses_exactly_one_duplicate() {
    let findings = duplicate_findings();
    let text = format!("# comment\n{}\n", findings[0].key());
    let (fresh, suppressed, stale) = baseline::apply(&findings, &baseline::parse(&text));
    assert_eq!(suppressed, 1);
    assert_eq!(fresh.len(), 1, "the second duplicate stays a new finding");
    assert!(stale.is_empty(), "{stale:?}");
}

#[test]
fn repeated_baseline_lines_suppress_exactly_n_duplicates() {
    let findings = duplicate_findings();
    let key = findings[0].key();
    let text = format!("{key}\n{key}\n");
    let (fresh, suppressed, stale) = baseline::apply(&findings, &baseline::parse(&text));
    assert_eq!(suppressed, 2);
    assert!(fresh.is_empty(), "{fresh:?}");
    assert!(stale.is_empty(), "{stale:?}");
}

#[test]
fn excess_and_unmatched_entries_are_stale() {
    let findings = duplicate_findings();
    let key = findings[0].key();
    // Three copies for two findings, plus an entry matching nothing.
    let text = format!("{key}\n{key}\n{key}\ncrates/x.rs · R6 · long gone\n");
    let (fresh, suppressed, stale) = baseline::apply(&findings, &baseline::parse(&text));
    assert_eq!(suppressed, 2);
    assert!(fresh.is_empty());
    assert_eq!(
        stale.len(),
        2,
        "excess duplicate + unmatched entry: {stale:?}"
    );
    assert!(stale.contains(&"crates/x.rs · R6 · long gone".to_string()));
    assert!(stale.contains(&key));
}

#[test]
fn write_baseline_roundtrip_suppresses_everything() {
    let findings = duplicate_findings();
    let rendered = baseline::render(&findings);
    let (fresh, suppressed, stale) = baseline::apply(&findings, &baseline::parse(&rendered));
    assert!(fresh.is_empty());
    assert_eq!(suppressed, 2);
    assert!(stale.is_empty());
}
