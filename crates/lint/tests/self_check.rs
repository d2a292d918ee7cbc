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

/// The `members` globs of the root manifest's `[workspace]` table,
/// expanded to member directories.
fn workspace_members(root: &Path, manifest: &str) -> Vec<PathBuf> {
    let list = manifest
        .split_once("members = [")
        .and_then(|(_, rest)| rest.split_once(']'))
        .map(|(list, _)| list)
        .expect("root manifest lists workspace members");
    let mut dirs = Vec::new();
    for entry in list.split(',').map(|e| e.trim().trim_matches('"')) {
        match entry.strip_suffix("/*") {
            Some(parent) => {
                for dir in std::fs::read_dir(root.join(parent)).expect("member glob") {
                    let dir = dir.expect("member dir").path();
                    if dir.join("Cargo.toml").exists() {
                        dirs.push(dir);
                    }
                }
            }
            None if !entry.is_empty() => dirs.push(root.join(entry)),
            None => {}
        }
    }
    dirs.sort();
    dirs
}

/// Whether a manifest opts into the workspace lint table, as `[lints]`
/// with `workspace = true` or as `lints.workspace = true`.
fn inherits_workspace_lints(manifest: &str) -> bool {
    let mut in_lints = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_lints = line == "[lints]";
        } else if line.replace(' ', "") == "lints.workspace=true"
            || (in_lints && line.replace(' ', "") == "workspace=true")
        {
            return true;
        }
    }
    false
}

#[test]
fn every_member_inherits_the_workspace_lints() {
    // The workspace lint table (no `unsafe`, docs on every public item,
    // deny-level clippy determinism lints) binds only the packages that
    // opt in, so a new crate must not be able to leave it out silently.
    let root = workspace_root();
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    for (table, line) in [
        ("[workspace.lints.rust]", "unsafe_code = \"deny\""),
        ("[workspace.lints.rust]", "missing_docs = \"warn\""),
        ("[workspace.lints.clippy]", "disallowed_methods = \"deny\""),
        ("[workspace.lints.clippy]", "iter_over_hash_type = \"deny\""),
    ] {
        let body = manifest
            .split_once(table)
            .map(|(_, rest)| rest.split("\n[").next().unwrap_or(rest))
            .unwrap_or_else(|| panic!("root manifest has no {table}"));
        assert!(body.contains(line), "{table} lacks `{line}`");
    }
    assert!(
        inherits_workspace_lints(&manifest),
        "the root package does not declare [lints] workspace = true"
    );
    let members = workspace_members(&root, &manifest);
    assert!(
        members.contains(&root.join("crates/lint")),
        "member globs missed this crate: {members:?}"
    );
    for dir in members {
        let text = std::fs::read_to_string(dir.join("Cargo.toml")).expect("member manifest");
        assert!(
            inherits_workspace_lints(&text),
            "{} does not declare [lints] workspace = true",
            dir.display()
        );
    }
}
