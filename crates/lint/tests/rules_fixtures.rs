//! Per-rule fixture tests: one known-bad and one known-good snippet per
//! rule, plus the tricky cases the lexer exists for (markers inside string
//! literals, doc comments, and `#[cfg(test)]` regions).
//!
//! These fixtures are fabricated in-memory with paths chosen to land inside
//! (or outside) each rule's scope; the workspace walker deliberately skips
//! `crates/lint/tests/`, so nothing here is ever linted as live code.

use amnt_lint::{lint_source, Severity};

/// Findings for `content` pretended to live at `path`, as rule ids.
fn rules_at(path: &str, content: &str) -> Vec<&'static str> {
    lint_source(path, content)
        .into_iter()
        .map(|f| f.rule)
        .collect()
}

// ---------------------------------------------------------------- R1 ----

/// Under crates/core, where a `recover` function is a crash-path entry.
const R1_PATH: &str = "crates/core/src/fixture.rs";

#[test]
fn r1_flags_unwrap_reachable_from_recover() {
    let bad = "fn recover(x: Option<u64>) -> u64 { x.unwrap() }\n";
    let findings = lint_source(R1_PATH, bad);
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].rule, "R1");
    assert_eq!(findings[0].severity, Severity::Error);
    assert_eq!(findings[0].line, 1);
}

#[test]
fn r1_flags_expect_panic_and_unreachable() {
    let bad = "fn recover(x: Option<u8>) { x.expect(\"y\"); b(); c(); }\n\
               fn b() { panic!(\"no\"); }\n\
               fn c() { unreachable!() }\n";
    let rules = rules_at(R1_PATH, bad);
    assert_eq!(rules, vec!["R1", "R1", "R1"]);
}

#[test]
fn r1_ignores_code_off_the_crash_path() {
    // Not reachable from an entry point, or no entry point at all.
    let bad = "fn helper(x: Option<u64>) -> u64 { x.unwrap() }\n";
    assert!(rules_at(R1_PATH, bad).is_empty());
    let entry = "fn recover(x: Option<u64>) -> u64 { x.unwrap() }\n";
    assert!(rules_at("crates/bmt/src/geometry.rs", entry).is_empty());
}

#[test]
fn r1_good_code_is_clean() {
    let good = "fn recover(x: Option<u64>) -> Result<u64, ()> { x.ok_or(()) }\n";
    assert!(rules_at(R1_PATH, good).is_empty());
}

// Tricky: the marker appears only in a string literal.
#[test]
fn r1_ignores_unwrap_inside_string_literal() {
    let src = "fn recover() { let m = \"never call .unwrap() here\"; emit(m); }\n";
    assert!(rules_at(R1_PATH, src).is_empty());
}

// Tricky: the marker appears only in a doc comment.
#[test]
fn r1_ignores_unwrap_inside_doc_comment() {
    let src = "/// Prefer `?` over `.unwrap()` on this path.\nfn recover() {}\n";
    assert!(rules_at(R1_PATH, src).is_empty());
}

// Tricky: the marker is real code, but inside a `#[cfg(test)]` region.
#[test]
fn r1_ignores_unwrap_inside_cfg_test() {
    let src = "fn recover() -> u8 { 0 }\n\
               #[cfg(test)]\n\
               mod tests {\n\
               \x20   #[test]\n\
               \x20   fn recover() { Some(1u8).unwrap(); }\n\
               }\n";
    assert!(rules_at(R1_PATH, src).is_empty());
    // ... and the same call *outside* the region still fires.
    let live = format!("fn crash(x: Option<u8>) {{ x.unwrap(); }}\n{src}");
    assert_eq!(rules_at(R1_PATH, &live), vec!["R1"]);
}

// ---------------------------------------------------------------- R3 ----

const R3_PATH: &str = "crates/core/src/controller.rs";

#[test]
fn r3_flags_unpaired_persistent_mutation() {
    let bad = "fn store(&mut self) -> Result<(), E> {\n\
               \x20   self.nvm.write_u64(8, 1)?;\n\
               \x20   Ok(())\n\
               }\n";
    let findings = lint_source(R3_PATH, bad);
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].rule, "R3");
    assert!(findings[0].message.contains("store"));
}

#[test]
fn r3_accepts_mutation_paired_with_fence() {
    let good = "fn store(&mut self) -> Result<(), E> {\n\
                \x20   self.nvm.write_u64(8, 1)?;\n\
                \x20   self.timeline.write(8);\n\
                \x20   Ok(())\n\
                }\n\
                fn snap(&mut self) {\n\
                \x20   self.snapshot_before_lazy_update(3);\n\
                \x20   self.nvm.write_block_untimed(0, &[0; 64]);\n\
                }\n";
    assert!(rules_at(R3_PATH, good).is_empty());
}

#[test]
fn r3_ignores_read_only_functions_and_other_files() {
    let good = "fn peek(&self) -> u64 { self.nvm.read_u64(8) }\n";
    assert!(rules_at(R3_PATH, good).is_empty());
    let bad = "fn store(&mut self) { self.nvm.write_u64(8, 1); }\n";
    assert!(rules_at("crates/nvm/src/device.rs", bad).is_empty());
}

// ---------------------------------------------------------------- R5 ----

const R5_PATH: &str = "crates/core/src/timing.rs";

#[test]
fn r5_flags_truncating_cast_of_cycle_counters() {
    let bad = "fn f(total_cycles: u64, t: u64) -> u32 {\n\
               \x20   (total_cycles as u32) + (t as u32)\n\
               }\n";
    let findings = lint_source(R5_PATH, bad);
    assert_eq!(findings.len(), 2);
    assert!(findings.iter().all(|f| f.rule == "R5"));
}

#[test]
fn r5_allows_wide_casts_and_non_time_idents() {
    let good = "fn f(total_cycles: u64, bank_mask: u64) -> u128 {\n\
                \x20   (total_cycles as u128) + (bank_mask as u32) as u128\n\
                }\n";
    assert!(rules_at(R5_PATH, good).is_empty());
}

#[test]
fn r5_ignores_out_of_scope_paths() {
    let bad = "fn f(total_cycles: u64) -> u32 { total_cycles as u32 }\n";
    assert!(rules_at("crates/core/src/controller.rs", bad).is_empty());
}

// ---------------------------------------------------------------- R6 ----

#[test]
fn r6_flags_unanchored_markers_in_comments() {
    let bad = "// TODO: tighten this bound\nfn f() {}\n// FIXME later\n";
    let findings = lint_source("crates/bmt/src/geometry.rs", bad);
    assert_eq!(findings.len(), 2);
    assert!(findings
        .iter()
        .all(|f| f.rule == "R6" && f.severity == Severity::Warn));
}

#[test]
fn r6_accepts_anchored_markers() {
    let good = "// TODO(#123): tighten this bound\n// FIXME(AMNT-7): and this\nfn f() {}\n";
    assert!(rules_at("crates/bmt/src/geometry.rs", good).is_empty());
}

// Tricky: a marker inside a string literal is message text, not a task.
#[test]
fn r6_ignores_markers_in_string_literals() {
    let src = "fn f() -> &'static str { \"TODO: not a comment\" }\n";
    assert!(rules_at("crates/bmt/src/geometry.rs", src).is_empty());
}

#[test]
fn r6_ignores_embedded_words_like_mastodon() {
    // Marker matching is token-bounded: no substring false positives.
    let src = "// the mastodont fixmement protocol\nfn f() {}\n";
    assert!(rules_at("crates/bmt/src/geometry.rs", src).is_empty());
}

// ----------------------------------------------------------- ordering ----

#[test]
fn findings_are_sorted_and_render_stably() {
    let bad = "// TODO no tag\nfn recover(x: Option<u8>) { x.unwrap(); panic!(\"x\") }\n";
    let findings = lint_source(R1_PATH, bad);
    assert_eq!(findings.len(), 3, "{findings:?}");
    let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
    let mut sorted = lines.clone();
    sorted.sort_unstable();
    assert_eq!(lines, sorted);
    let rendered = findings[0].to_string();
    assert!(rendered.starts_with("crates/core/src/fixture.rs:"));
    assert!(rendered.contains(" · "));
}
