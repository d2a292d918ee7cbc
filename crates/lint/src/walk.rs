//! Workspace file discovery.

use std::io;
use std::path::{Path, PathBuf};

/// Collects every `.rs` file the linter scans, as (repo-relative path with
/// forward slashes, absolute path), sorted by relative path.
///
/// Scanned: `src/`, `examples/`, `tests/` at the workspace root, and
/// `src/`, `tests/`, `benches/`, `examples/` under each `crates/*`.
/// `crates/lint/tests/` is excluded — it holds deliberately-bad rule
/// fixtures.
///
/// # Errors
///
/// Propagates filesystem errors other than missing directories.
pub fn collect_files(root: &Path) -> io::Result<Vec<(String, PathBuf)>> {
    let mut dirs: Vec<PathBuf> = Vec::new();
    for top in ["src", "examples", "tests"] {
        dirs.push(root.join(top));
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut members: Vec<PathBuf> = std::fs::read_dir(&crates)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        members.sort();
        for member in members {
            let is_lint = member.file_name().is_some_and(|n| n == "lint");
            for sub in ["src", "tests", "benches", "examples"] {
                if is_lint && sub == "tests" {
                    continue;
                }
                dirs.push(member.join(sub));
            }
        }
    }
    let mut files = Vec::new();
    for dir in dirs {
        if dir.is_dir() {
            walk_dir(&dir, &mut files)?;
        }
    }
    let mut out: Vec<(String, PathBuf)> = files
        .into_iter()
        .filter_map(|abs| {
            let rel = abs
                .strip_prefix(root)
                .ok()?
                .to_string_lossy()
                .replace('\\', "/");
            Some((rel, abs))
        })
        .collect();
    out.sort();
    Ok(out)
}

fn walk_dir(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk_dir(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Finds the workspace root: walks up from `start` looking for a
/// `Cargo.toml` containing `[workspace]`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start);
    while let Some(dir) = cur {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir.to_path_buf());
            }
        }
        cur = dir.parent();
    }
    None
}
