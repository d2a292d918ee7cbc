//! The `amnt-lint` command-line gate.
//!
//! ```text
//! amnt-lint [--root DIR] [--baseline FILE] [--write-baseline]
//!           [--json FILE] [--dump-callgraph]
//!           [--explain RULE_ID] [--list-rules]
//! ```
//!
//! Exit codes: 0 = clean (or fully baselined), 1 = new findings,
//! 2 = usage or I/O error.

#![forbid(unsafe_code)]

use amnt_lint::{
    baseline, callgraph::CallGraph, find_root, json, lint_corpus, parse, read_corpus, rule_info,
    RULES,
};
use std::path::PathBuf;

fn main() {
    std::process::exit(run(std::env::args().skip(1).collect()));
}

fn run(args: Vec<String>) -> i32 {
    let mut root: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut json_path: Option<PathBuf> = None;
    let mut write_baseline = false;
    let mut dump_callgraph = false;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => return usage("--root needs a directory"),
            },
            "--baseline" => match it.next() {
                Some(v) => baseline_path = Some(PathBuf::from(v)),
                None => return usage("--baseline needs a file"),
            },
            "--json" => match it.next() {
                Some(v) => json_path = Some(PathBuf::from(v)),
                None => return usage("--json needs a file"),
            },
            "--write-baseline" => write_baseline = true,
            "--dump-callgraph" => dump_callgraph = true,
            "--list-rules" => {
                for r in RULES {
                    println!("{} · {} · {}", r.id, r.severity, r.summary);
                }
                return 0;
            }
            "--explain" => {
                return match it.next().as_deref().and_then(rule_info) {
                    Some(r) => {
                        println!(
                            "{} ({}): {}\n\n{}",
                            r.id, r.severity, r.summary, r.explanation
                        );
                        0
                    }
                    None => usage("--explain needs a rule id (R1, R3, R5, R6 or R9)"),
                };
            }
            "--help" | "-h" => {
                println!(
                    "amnt-lint: workspace crash-path gate\n\n\
                     usage: amnt-lint [--root DIR] [--baseline FILE] [--write-baseline]\n\
                     \x20                [--json FILE] [--dump-callgraph]\n\
                     \x20                [--explain RULE_ID] [--list-rules]"
                );
                return 0;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let root = match root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| find_root(&d))
            .or_else(|| {
                // When run via `cargo run -p amnt-lint` the cwd is already in
                // the workspace, but fall back to the build-time location too.
                find_root(&PathBuf::from(env!("CARGO_MANIFEST_DIR")))
            })
    }) {
        Some(r) => r,
        None => return usage("no workspace root found; pass --root"),
    };

    let corpus = match read_corpus(&root) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("amnt-lint: scan failed: {e}");
            return 2;
        }
    };

    if dump_callgraph {
        let mut items = Vec::new();
        for (rel, content) in &corpus {
            items.extend(parse::parse_file(rel, content));
        }
        print!("{}", CallGraph::build(items).dump());
        return 0;
    }

    let findings = lint_corpus(&corpus);

    let baseline_path = baseline_path.unwrap_or_else(|| root.join("lint-baseline.txt"));
    if write_baseline {
        if let Err(e) = std::fs::write(&baseline_path, baseline::render(&findings)) {
            eprintln!("amnt-lint: cannot write {}: {e}", baseline_path.display());
            return 2;
        }
        println!(
            "amnt-lint: wrote {} entries to {}",
            findings.len(),
            baseline_path.display()
        );
        return 0;
    }

    let allow = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => baseline::parse(&text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Default::default(),
        Err(e) => {
            eprintln!("amnt-lint: cannot read {}: {e}", baseline_path.display());
            return 2;
        }
    };
    let (fresh, suppressed, stale) = baseline::apply(&findings, &allow);

    if let Some(path) = json_path {
        let written = match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, json::render(&fresh, suppressed, &stale))),
            _ => std::fs::write(&path, json::render(&fresh, suppressed, &stale)),
        };
        if let Err(e) = written {
            eprintln!("amnt-lint: cannot write {}: {e}", path.display());
            return 2;
        }
    }

    for f in &fresh {
        println!("{f}");
    }
    for key in &stale {
        eprintln!("amnt-lint: stale baseline entry (no longer matches): {key}");
    }
    println!(
        "amnt-lint: {} new finding{}, {suppressed} baselined, {} stale baseline entr{}",
        fresh.len(),
        if fresh.len() == 1 { "" } else { "s" },
        stale.len(),
        if stale.len() == 1 { "y" } else { "ies" },
    );
    if fresh.is_empty() {
        0
    } else {
        1
    }
}

fn usage(msg: &str) -> i32 {
    eprintln!("amnt-lint: {msg} (try --help)");
    2
}
