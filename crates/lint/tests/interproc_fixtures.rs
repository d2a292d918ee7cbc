//! Acceptance fixtures for the interprocedural rules: R3 (persist/fence
//! pairing across caller paths), R1 (crash-path panic reachability), and
//! R9 (atomic-group bracketing).
//!
//! Each test hands [`amnt_lint::lint_corpus`] a fabricated multi-file
//! corpus; paths are chosen to land in (or out of) each rule's scope.

use amnt_lint::{lint_corpus, Finding};

fn corpus(files: &[(&str, &str)]) -> Vec<Finding> {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(p, c)| (p.to_string(), c.to_string()))
        .collect();
    lint_corpus(&owned)
}

const HELPER: (&str, &str) = (
    "crates/core/src/protocol/helper.rs",
    "impl Engine {\n\
     \x20   fn store_meta(&mut self, addr: u64) {\n\
     \x20       self.dev.write_u64(addr, 7);\n\
     \x20   }\n\
     }\n",
);

const FENCED_CALLER: (&str, &str) = (
    "crates/core/src/protocol/commit.rs",
    "impl Engine {\n\
     \x20   fn commit(&mut self) {\n\
     \x20       self.store_meta(8);\n\
     \x20       self.timeline.write(1);\n\
     \x20   }\n\
     }\n",
);

#[test]
fn r3_accepts_helper_whose_only_callers_fence() {
    // The helper mutates persistent metadata without a local fence, but
    // both callers fence in the same step — accepted interprocedurally.
    let second_fenced = (
        "crates/core/src/protocol/commit_alt.rs",
        "impl Engine {\n\
         \x20   fn commit_alt(&mut self) {\n\
         \x20       self.store_meta(9);\n\
         \x20       self.timeline.reset(0);\n\
         \x20   }\n\
         }\n",
    );
    let findings = corpus(&[HELPER, FENCED_CALLER, second_fenced]);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn r3_flags_helper_when_one_caller_drops_its_fence() {
    // Same helper, same fenced caller — but the second caller lost its
    // fence, so one caller path can crash with the mutation unordered.
    let unfenced_caller = (
        "crates/core/src/protocol/commit_alt.rs",
        "impl Engine {\n\
         \x20   fn commit_alt(&mut self) {\n\
         \x20       self.store_meta(9);\n\
         \x20   }\n\
         }\n",
    );
    let findings = corpus(&[HELPER, FENCED_CALLER, unfenced_caller]);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "R3");
    assert_eq!(findings[0].path, "crates/core/src/protocol/helper.rs");
    assert!(
        findings[0].message.contains("store_meta"),
        "{}",
        findings[0].message
    );
    assert!(
        findings[0].message.contains("commit_alt"),
        "{}",
        findings[0].message
    );
}

#[test]
fn r3_helper_with_no_callers_is_flagged_as_before() {
    // A single-file corpus reproduces the old per-function behavior: no
    // caller can vouch for the mutation.
    let findings = corpus(&[HELPER]);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "R3");
    assert!(
        findings[0].message.contains("no callers found"),
        "{}",
        findings[0].message
    );
}

#[test]
fn r1_flags_unwrap_two_calls_deep_from_recover() {
    // recover -> repair -> finish; the unwrap lives two hops away, in a
    // crate outside crates/core and crates/nvm.
    let findings = corpus(&[
        (
            "crates/core/src/recov.rs",
            "pub fn recover(dev: &mut Dev) -> Result<(), ()> {\n\
             \x20   repair(dev)\n\
             }\n",
        ),
        (
            "crates/bmt/src/fixup.rs",
            "pub fn repair(dev: &mut Dev) -> Result<(), ()> {\n\
             \x20   finish(dev)\n\
             }\n\
             \n\
             fn finish(dev: &mut Dev) -> Result<(), ()> {\n\
             \x20   let x: Option<u8> = None;\n\
             \x20   x.unwrap();\n\
             \x20   Ok(())\n\
             }\n",
        ),
    ]);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "R1");
    assert_eq!(findings[0].path, "crates/bmt/src/fixup.rs");
    assert!(
        findings[0].message.contains("finish"),
        "{}",
        findings[0].message
    );
    assert!(
        findings[0].message.contains("recover"),
        "{}",
        findings[0].message
    );
}

/// `Nvm::undo_group`, reached from `crash`, indexing its pre-image through
/// an index masked with `mask`.
fn undo_group_masked_with(mask: &str) -> Vec<Finding> {
    let src = format!(
        "impl Nvm {{\n\
         \x20   pub fn crash(&mut self, group: Vec<(u64, Vec<u8>)>) {{\n\
         \x20       self.undo_group(group);\n\
         \x20   }}\n\
         \x20   fn undo_group(&mut self, group: Vec<(u64, Vec<u8>)>) {{\n\
         \x20       for (addr, pre) in group.into_iter().rev() {{\n\
         \x20           let i = addr as usize & {mask};\n\
         \x20           let _ = pre[i];\n\
         \x20       }}\n\
         \x20   }}\n\
         }}\n"
    );
    corpus(&[("crates/nvm/src/undo.rs", &src)])
}

#[test]
fn r1_flags_index_masked_with_a_length() {
    // `addr & pre.len()` is out of bounds whenever `addr` has the bit of
    // `pre.len()` set: `&` bounds an index only against a mask.
    let findings = undo_group_masked_with("pre.len()");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "R1");
    assert!(
        findings[0].message.contains("undo_group"),
        "{}",
        findings[0].message
    );
}

#[test]
fn r1_accepts_index_masked_with_a_literal() {
    let findings = undo_group_masked_with("63");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn r9_flags_early_question_mark_between_begin_and_end() {
    let findings = corpus(&[(
        "crates/core/src/ctl.rs",
        "impl Ctl {\n\
         \x20   fn step(&mut self) -> Result<(), ()> {\n\
         \x20       self.nvm.begin_atomic();\n\
         \x20       self.risky()?;\n\
         \x20       self.nvm.end_atomic();\n\
         \x20       Ok(())\n\
         \x20   }\n\
         \x20   fn risky(&self) -> Result<(), ()> {\n\
         \x20       Ok(())\n\
         \x20   }\n\
         }\n",
    )]);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "R9");
    assert!(
        findings[0].message.contains("early exit"),
        "{}",
        findings[0].message
    );
    assert!(
        findings[0].message.contains("step"),
        "{}",
        findings[0].message
    );
}

#[test]
fn r9_accepts_bracket_closed_by_every_caller() {
    // The open escalates to the caller, which closes after the call — the
    // documented cross-function bracket.
    let findings = corpus(&[
        (
            "crates/core/src/open.rs",
            "impl Ctl {\n\
             \x20   fn open_group(&mut self) {\n\
             \x20       self.nvm.begin_atomic();\n\
             \x20   }\n\
             }\n",
        ),
        (
            "crates/core/src/run.rs",
            "impl Ctl {\n\
             \x20   fn run(&mut self) {\n\
             \x20       self.open_group();\n\
             \x20       self.nvm.end_atomic();\n\
             \x20   }\n\
             }\n",
        ),
    ]);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn r9_flags_open_group_no_caller_closes() {
    let findings = corpus(&[
        (
            "crates/core/src/open.rs",
            "impl Ctl {\n\
             \x20   fn open_group(&mut self) {\n\
             \x20       self.nvm.begin_atomic();\n\
             \x20   }\n\
             }\n",
        ),
        (
            "crates/core/src/run.rs",
            "impl Ctl {\n\
             \x20   fn run(&mut self) {\n\
             \x20       self.open_group();\n\
             \x20   }\n\
             }\n",
        ),
    ]);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "R9");
    assert_eq!(findings[0].path, "crates/core/src/open.rs");
    assert!(
        findings[0].message.contains("opens an atomic group"),
        "{}",
        findings[0].message
    );
}
