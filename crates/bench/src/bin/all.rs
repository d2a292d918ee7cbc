//! Runs every paper experiment of the artifact registry
//! ([`amnt_bench::registry`]) in paper order, regenerating all tables and
//! figures and their JSON artifacts under `results/`.
//!
//! ```text
//! cargo run --release -p amnt-bench --bin all
//! cargo run --release -p amnt-bench --bin all -- --list
//! ```
//!
//! `--list` runs nothing: it prints the whole registry, the table
//! `scripts/check.sh` and `scripts/artifact_cmp.sh` drive their runs from.
//! Each binary parallelises its own experiment grid across host cores;
//! set `AMNT_JOBS=<n>` to pin the worker count (the JSON artifacts are
//! byte-identical at any value).

use amnt_bench::registry::{listing, REGISTRY};
use std::process::Command;

fn main() {
    match std::env::args().nth(1).as_deref() {
        None => {}
        Some("--list") => {
            print!("{}", listing(|var| std::env::var(var).ok()));
            return;
        }
        Some(arg) => {
            eprintln!("usage: all [--list]   (unknown argument {arg:?})");
            std::process::exit(2);
        }
    }
    let exe = std::env::current_exe().expect("current executable path");
    let dir = exe.parent().expect("executable directory");
    println!(
        "experiment executor: {} worker(s)",
        amnt_bench::exec::worker_count()
    );
    let mut failures = Vec::new();
    for name in REGISTRY.iter().filter(|e| e.paper).map(|e| e.bin) {
        println!("\n################ {name} ################");
        let status = Command::new(dir.join(name)).status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{name} exited with {s}");
                failures.push(name);
            }
            Err(e) => {
                eprintln!("{name} failed to launch: {e}");
                failures.push(name);
            }
        }
    }
    if failures.is_empty() {
        println!("\nAll experiments completed; JSON artifacts in results/.");
    } else {
        eprintln!("\nFailed experiments: {failures:?}");
        std::process::exit(1);
    }
}
