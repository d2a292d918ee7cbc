//! The gate applied to the gate's own workspace: linting the live tree
//! (minus the checked-in baseline) must produce zero new findings. This is
//! the test-suite twin of `cargo run -p amnt-lint` exiting 0, so `cargo
//! test` alone catches a regression in either the tree or the rules.

use amnt_lint::{baseline, lint_workspace};
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    // crates/lint/ -> crates/ -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crate lives two levels below the workspace root")
        .to_path_buf()
}

#[test]
fn live_workspace_has_no_new_findings() {
    let root = workspace_root();
    assert!(
        root.join("Cargo.toml").exists(),
        "bad root: {}",
        root.display()
    );

    let findings = lint_workspace(&root).expect("workspace scan");
    let baseline_text = std::fs::read_to_string(root.join("lint-baseline.txt")).unwrap_or_default();
    let (fresh, _suppressed, _stale) = baseline::apply(&findings, &baseline::parse(&baseline_text));

    assert!(
        fresh.is_empty(),
        "new lint findings in the live workspace:\n{}",
        fresh.iter().map(|f| format!("  {f}\n")).collect::<String>()
    );
}

#[test]
fn walker_discovers_the_known_crates() {
    let root = workspace_root();
    let files = amnt_lint::collect_files(&root).expect("walk");
    let rels: Vec<&str> = files.iter().map(|(rel, _)| rel.as_str()).collect();
    for expected in [
        "crates/core/src/controller.rs",
        "crates/core/src/protocol/bmf.rs",
        "crates/sim/src/machine.rs",
        "crates/lint/src/rules.rs",
        "src/lib.rs",
    ] {
        assert!(rels.contains(&expected), "walker missed {expected}");
    }
    // Fixture directories must stay out of the live scan.
    assert!(
        !rels.iter().any(|r| r.starts_with("crates/lint/tests/")),
        "lint fixtures must not be linted as live code"
    );
}
