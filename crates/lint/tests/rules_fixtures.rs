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

const R1_PATH: &str = "crates/core/src/protocol/fixture.rs";

#[test]
fn r1_flags_unwrap_on_crash_path() {
    let bad = "fn persist(x: Option<u64>) -> u64 { x.unwrap() }\n";
    let findings = lint_source(R1_PATH, bad);
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].rule, "R1");
    assert_eq!(findings[0].severity, Severity::Error);
    assert_eq!(findings[0].line, 1);
}

#[test]
fn r1_flags_expect_panic_and_unreachable() {
    let bad = "fn a(x: Option<u8>) { x.expect(\"y\"); }\n\
               fn b() { panic!(\"no\"); }\n\
               fn c() { unreachable!() }\n";
    let rules = rules_at(R1_PATH, bad);
    assert_eq!(rules, vec!["R1", "R1", "R1"]);
}

#[test]
fn r1_ignores_out_of_scope_paths() {
    let bad = "fn helper(x: Option<u64>) -> u64 { x.unwrap() }\n";
    assert!(rules_at("crates/bmt/src/geometry.rs", bad).is_empty());
    assert!(rules_at("crates/lint/src/main.rs", bad).is_empty());
}

#[test]
fn r1_good_code_is_clean() {
    let good = "fn persist(x: Option<u64>) -> Result<u64, ()> { x.ok_or(()) }\n";
    assert!(rules_at(R1_PATH, good).is_empty());
}

// Tricky: the marker appears only in a string literal.
#[test]
fn r1_ignores_unwrap_inside_string_literal() {
    let src = "fn log() { let m = \"never call .unwrap() here\"; emit(m); }\n";
    assert!(rules_at(R1_PATH, src).is_empty());
}

// Tricky: the marker appears only in a doc comment.
#[test]
fn r1_ignores_unwrap_inside_doc_comment() {
    let src = "/// Prefer `?` over `.unwrap()` on this path.\nfn f() {}\n";
    assert!(rules_at(R1_PATH, src).is_empty());
}

// Tricky: the marker is real code, but inside a `#[cfg(test)]` region.
#[test]
fn r1_ignores_unwrap_inside_cfg_test() {
    let src = "fn live() -> u8 { 0 }\n\
               #[cfg(test)]\n\
               mod tests {\n\
               \x20   #[test]\n\
               \x20   fn t() { Some(1u8).unwrap(); }\n\
               }\n";
    assert!(rules_at(R1_PATH, src).is_empty());
    // ... and the same call *outside* the region still fires.
    let live = format!("fn live(x: Option<u8>) {{ x.unwrap(); }}\n{src}");
    assert_eq!(rules_at(R1_PATH, &live), vec!["R1"]);
}

// ---------------------------------------------------------------- R2 ----

const R2_PATH: &str = "crates/sim/src/fixture.rs";

#[test]
fn r2_flags_wall_clock_and_os_entropy() {
    let bad = "fn now() -> u64 { let _i = Instant::now(); 0 }\n\
               fn when() { let _ = SystemTime::now(); }\n\
               fn roll() { let _ = thread_rng(); }\n";
    assert_eq!(rules_at(R2_PATH, bad), vec!["R2", "R2", "R2"]);
}

#[test]
fn r2_flags_hashmap_iteration() {
    let bad = "use std::collections::HashMap;\n\
               fn f(m: &HashMap<u64, u64>) -> u64 {\n\
               \x20   let mut s = 0;\n\
               \x20   for (_k, v) in m.iter() { s += v; }\n\
               \x20   s\n\
               }\n";
    let findings = lint_source(R2_PATH, bad);
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].rule, "R2");
    assert!(findings[0].message.contains("HashMap"));
}

// Tricky: the map is iterated through a rebound local, not by name.
#[test]
fn r2_flags_iteration_through_rebound_local() {
    let bad = "use std::collections::HashMap;\n\
               struct S { map: HashMap<u64, u64> }\n\
               impl S {\n\
               \x20   fn sum(&self) -> u64 {\n\
               \x20       let p = &self.map;\n\
               \x20       p.values().sum()\n\
               \x20   }\n\
               }\n";
    let findings = lint_source(R2_PATH, bad);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "R2");
    assert_eq!(findings[0].line, 6);
    assert!(findings[0].message.contains("HashMap"));
}

#[test]
fn r2_rebound_local_of_btreemap_stays_clean() {
    let good = "use std::collections::BTreeMap;\n\
                struct S { map: BTreeMap<u64, u64> }\n\
                impl S {\n\
                \x20   fn sum(&self) -> u64 {\n\
                \x20       let p = &self.map;\n\
                \x20       p.values().sum()\n\
                \x20   }\n\
                }\n";
    assert!(rules_at(R2_PATH, good).is_empty());
}

#[test]
fn r2_allows_btreemap_and_keyed_lookup() {
    let good = "use std::collections::{BTreeMap, HashMap};\n\
                fn f(m: &BTreeMap<u64, u64>, h: &HashMap<u64, u64>) -> u64 {\n\
                \x20   m.values().sum::<u64>() + h.get(&1).copied().unwrap_or(0)\n\
                }\n";
    assert!(rules_at(R2_PATH, good).is_empty());
}

#[test]
fn r2_ignores_out_of_scope_paths() {
    let bad = "fn now() { let _ = Instant::now(); }\n";
    assert!(rules_at("crates/bench/src/report.rs", bad).is_empty());
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

// ---------------------------------------------------------------- R4 ----

#[test]
fn r4_requires_both_crate_attributes() {
    let neither = "//! Docs.\npub fn f() {}\n";
    let rules = rules_at("crates/x/src/lib.rs", neither);
    assert_eq!(rules, vec!["R4", "R4"]);

    let only_unsafe = "#![forbid(unsafe_code)]\npub fn f() {}\n";
    assert_eq!(rules_at("crates/x/src/lib.rs", only_unsafe), vec!["R4"]);

    let both = "#![forbid(unsafe_code)]\n#![warn(missing_docs)]\npub fn f() {}\n";
    assert!(rules_at("crates/x/src/lib.rs", both).is_empty());
}

#[test]
fn r4_only_applies_to_lib_roots() {
    let neither = "pub fn f() {}\n";
    assert!(rules_at("crates/x/src/main.rs", neither).is_empty());
    assert!(rules_at("crates/x/src/geometry.rs", neither).is_empty());
}

// Tricky: the attribute text inside a comment must not satisfy the rule.
#[test]
fn r4_attribute_in_comment_does_not_count() {
    let sneaky = "// #![forbid(unsafe_code)]\n// #![warn(missing_docs)]\npub fn f() {}\n";
    assert_eq!(rules_at("crates/x/src/lib.rs", sneaky), vec!["R4", "R4"]);
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

// ---------------------------------------------------------------- R7 ----

#[test]
fn r7_flags_raw_thread_spawning_everywhere_but_exec() {
    let bad = "fn go() { std::thread::spawn(|| {}); }\n\
               fn all() { std::thread::scope(|s| { let _ = s; }); }\n\
               fn named() { let _ = std::thread::Builder::new(); }\n";
    let rules = rules_at("crates/bench/src/bin/fig4_parsec_single.rs", bad);
    assert_eq!(rules, vec!["R7", "R7", "R7"]);
    // Simulation crates are no exception.
    assert_eq!(rules_at("crates/sim/src/machine.rs", bad).len(), 3);
}

#[test]
fn r7_flags_spawn_after_use_import() {
    let bad = "use std::thread;\nfn go() { thread::spawn(|| {}); }\n";
    assert_eq!(rules_at("crates/bench/src/grid.rs", bad), vec!["R7"]);
}

#[test]
fn r7_exempts_the_executor_module_and_tests() {
    let spawny = "fn pool() { std::thread::scope(|s| { let _ = s; }); }\n";
    assert!(rules_at("crates/bench/src/exec.rs", spawny).is_empty());

    let in_test = "fn live() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   \x20   #[test]\n\
                   \x20   fn t() { std::thread::spawn(|| {}); }\n\
                   }\n";
    assert!(rules_at("crates/bench/src/grid.rs", in_test).is_empty());
}

// Tricky: the pattern appears only in a doc comment or string.
#[test]
fn r7_ignores_mentions_in_comments_and_strings() {
    let src = "/// Never call `thread::spawn` here; use exec::run_jobs_with.\n\
               fn f() -> &'static str { \"thread::scope is banned\" }\n";
    assert!(rules_at("crates/bench/src/grid.rs", src).is_empty());
}

// ---------------------------------------------------------------- R8 ----

#[test]
fn r8_flags_print_macros_in_engine_code() {
    let bad = "fn f() { println!(\"hit\"); }\n\
               fn g() { eprintln!(\"miss\"); }\n\
               fn h(x: u64) -> u64 { dbg!(x) }\n";
    for path in [
        "crates/core/src/controller.rs",
        "crates/sim/src/machine.rs",
        "crates/cache/src/lib.rs",
        "crates/nvm/src/lib.rs",
    ] {
        let findings = lint_source(path, bad);
        assert_eq!(
            findings.iter().filter(|f| f.rule == "R8").count(),
            3,
            "{path}"
        );
        assert!(findings
            .iter()
            .filter(|f| f.rule == "R8")
            .all(|f| f.severity == Severity::Error));
    }
}

#[test]
fn r8_exempts_bin_dirs_tests_and_other_crates() {
    let bad = "fn f() { println!(\"table\"); }\n";
    assert!(rules_at("crates/sim/src/bin/simulate.rs", bad).is_empty());
    assert!(rules_at("crates/bench/src/grid.rs", bad).is_empty());
    assert!(rules_at("crates/trace/src/export.rs", bad).is_empty());

    let in_test = "fn live() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   \x20   #[test]\n\
                   \x20   fn t() { println!(\"debugging a test is fine\"); }\n\
                   }\n";
    assert!(rules_at("crates/core/src/controller.rs", in_test).is_empty());
}

// Tricky: `println!` quoted in a string or doc comment is message text,
// and a plain identifier named `dbg` is not the macro.
#[test]
fn r8_ignores_strings_comments_and_bare_idents() {
    let src = "/// Never `println!` here; bump a CompTrace counter.\n\
               fn f() -> &'static str { \"println! is banned\" }\n\
               fn g(dbg: u64) -> u64 { dbg + 1 }\n";
    assert!(rules_at("crates/core/src/controller.rs", src).is_empty());
}

// ----------------------------------------------------------- ordering ----

#[test]
fn findings_are_sorted_and_render_stably() {
    let bad = "// TODO no tag\nfn f(x: Option<u8>) { x.unwrap(); panic!(\"x\") }\n";
    let findings = lint_source(R1_PATH, bad);
    let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
    let mut sorted = lines.clone();
    sorted.sort_unstable();
    assert_eq!(lines, sorted);
    let rendered = findings[0].to_string();
    assert!(rendered.starts_with("crates/core/src/protocol/fixture.rs:"));
    assert!(rendered.contains(" · "));
}
