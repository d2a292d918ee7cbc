//! Minimal JSON emitter for the `--json` findings artifact.
//!
//! Hand-rolled because the linter is zero-dependency by design; the
//! output shape is small and fixed:
//!
//! ```json
//! {
//!   "new": [{"path": "...", "line": 1, "rule": "R1",
//!            "severity": "error", "message": "..."}],
//!   "suppressed": 0,
//!   "stale": ["path · RULE · message"]
//! }
//! ```

use crate::rules::Finding;

/// Renders the gate outcome as a JSON document (trailing newline
/// included, keys in a fixed order so the artifact diffs cleanly).
pub fn render(fresh: &[Finding], suppressed: usize, stale: &[String]) -> String {
    let mut out = String::from("{\n  \"new\": [");
    for (i, f) in fresh.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"path\": {}, \"line\": {}, \"rule\": {}, \"severity\": {}, \"message\": {}}}",
            escape(&f.path),
            f.line,
            escape(f.rule),
            escape(&f.severity.to_string()),
            escape(&f.message),
        ));
    }
    if !fresh.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str(&format!(
        "],\n  \"suppressed\": {suppressed},\n  \"stale\": ["
    ));
    for (i, key) in stale.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        out.push_str(&escape(key));
    }
    if !stale.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// JSON string escaping per RFC 8259: quote, backslash, and control
/// characters; everything else passes through (the document is UTF-8).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{Finding, Severity};

    #[test]
    fn renders_and_escapes() {
        let f = Finding {
            path: "a/b.rs".to_string(),
            line: 7,
            rule: "R1",
            severity: Severity::Error,
            message: "uses `x[\"k\\n\"]`".to_string(),
        };
        let doc = render(&[f], 2, &["old · R6 · gone".to_string()]);
        assert!(doc.contains("\"line\": 7"), "{doc}");
        assert!(doc.contains("\\\"k\\\\n\\\""), "{doc}");
        assert!(doc.contains("\"suppressed\": 2"), "{doc}");
        assert!(doc.contains("old · R6 · gone"), "{doc}");
        assert!(doc.ends_with("]\n}\n"), "{doc}");
    }

    #[test]
    fn empty_gate_is_compact() {
        assert_eq!(
            render(&[], 0, &[]),
            "{\n  \"new\": [],\n  \"suppressed\": 0,\n  \"stale\": []\n}\n"
        );
    }
}
