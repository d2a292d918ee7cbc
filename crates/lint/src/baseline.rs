//! The checked-in allowlist (`lint-baseline.txt`).
//!
//! Each non-comment line is a finding *key* — `path · RULE · message`,
//! deliberately line-number-free so unrelated edits that shift code don't
//! invalidate the allowlist. The gate fails only on findings whose key is
//! not in the baseline; baseline entries that no longer match anything are
//! reported as stale (non-fatal) so the file shrinks over time.

use crate::rules::Finding;
use std::collections::BTreeMap;

/// Parses baseline text into a key → allowed-count multiset. `#` comments
/// and blank lines are ignored. Duplicate keys allow duplicate findings
/// (one entry suppresses one finding).
pub fn parse(text: &str) -> BTreeMap<String, usize> {
    let mut keys = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        *keys.entry(line.to_string()).or_insert(0) += 1;
    }
    keys
}

/// Splits findings against a baseline: (new findings, suppressed count,
/// stale baseline keys).
pub fn apply(
    findings: &[Finding],
    baseline: &BTreeMap<String, usize>,
) -> (Vec<Finding>, usize, Vec<String>) {
    let mut budget = baseline.clone();
    let mut fresh = Vec::new();
    let mut suppressed = 0usize;
    for f in findings {
        match budget.get_mut(&f.key()) {
            Some(n) if *n > 0 => {
                *n -= 1;
                suppressed += 1;
            }
            _ => fresh.push(f.clone()),
        }
    }
    let stale: Vec<String> = budget
        .into_iter()
        .filter(|&(_, n)| n > 0)
        .map(|(k, _)| k)
        .collect();
    (fresh, suppressed, stale)
}

/// Renders findings as baseline text (sorted, deduplicated-with-counts).
pub fn render(findings: &[Finding]) -> String {
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for f in findings {
        *counts.entry(f.key()).or_insert(0) += 1;
    }
    let mut out = String::from(
        "# amnt-lint baseline: one `path · RULE · message` key per line.\n\
         # Entries suppress exactly one matching finding each (repeat a line\n\
         # to allow duplicates). Regenerate with: cargo run -p amnt-lint -- --write-baseline\n",
    );
    for (key, n) in counts {
        for _ in 0..n {
            out.push_str(&key);
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Severity;

    fn f(path: &str, msg: &str) -> Finding {
        Finding {
            path: path.into(),
            line: 1,
            rule: "R1",
            severity: Severity::Error,
            message: msg.into(),
        }
    }

    #[test]
    fn baseline_suppresses_exact_keys_and_reports_stale() {
        let findings = vec![f("a.rs", "x"), f("a.rs", "x"), f("b.rs", "y")];
        let text = "# comment\na.rs · R1 · x\nc.rs · R1 · gone\n";
        let (fresh, suppressed, stale) = apply(&findings, &parse(text));
        assert_eq!(suppressed, 1, "one entry suppresses one of two duplicates");
        assert_eq!(fresh.len(), 2);
        assert_eq!(stale, vec!["c.rs · R1 · gone".to_string()]);
    }

    #[test]
    fn render_roundtrips_through_parse() {
        let findings = vec![f("a.rs", "x"), f("a.rs", "x"), f("b.rs", "y")];
        let parsed = parse(&render(&findings));
        assert_eq!(parsed.get("a.rs · R1 · x"), Some(&2));
        assert_eq!(parsed.get("b.rs · R1 · y"), Some(&1));
        let (fresh, suppressed, stale) = apply(&findings, &parsed);
        assert!(fresh.is_empty());
        assert_eq!(suppressed, 3);
        assert!(stale.is_empty());
    }
}
