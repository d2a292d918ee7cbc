//! **trace_diff** — cross-run comparison of two metrics sidecars.
//!
//! ```text
//! trace_diff <a.trace.json> <b.trace.json> [--tol <rel>] [--json]
//! ```
//!
//! Compares two `results/*.trace.json` documents cell by cell — event
//! ledger scalars, histogram summaries, counters, and every epoch-row
//! value — and prints one line per divergence:
//!
//! ```text
//! canneal/amnt counters ops value: 3 != 10
//! canneal/amnt epochs[0] reads: 5 != 12
//! ```
//!
//! `--tol 0.05` allows 5% relative drift on every numeric comparison (for
//! comparing runs across a deliberate model change); the default is exact,
//! because sidecars are simulated-cycle artifacts and byte-determinism is
//! the contract. `--json` emits the machine-readable report instead (the
//! document `scripts/check.sh` archives as `results/trace_diff.json`).
//!
//! Exit status: 0 when the documents agree under the tolerance (a
//! self-diff is always empty), 1 when any divergence was found, 2 on
//! usage or I/O errors.

use amnt_bench::diff::{diff_documents, report_json};
use amnt_bench::Json;

fn usage() -> ! {
    eprintln!("usage: trace_diff <a.trace.json> <b.trace.json> [--tol <rel>] [--json]");
    std::process::exit(2);
}

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("trace_diff: cannot read {path}: {e}");
        std::process::exit(2);
    });
    Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("trace_diff: {path} is not valid JSON: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths: Vec<&str> = Vec::new();
    let mut tol = 0.0f64;
    let mut json_out = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json_out = true,
            "--tol" => {
                tol = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|t: &f64| t.is_finite() && *t >= 0.0)
                    .unwrap_or_else(|| usage());
            }
            p if !p.starts_with("--") => paths.push(p),
            _ => usage(),
        }
    }
    let [a_path, b_path] = paths.as_slice() else {
        usage()
    };

    let (a, b) = (load(a_path), load(b_path));
    let entries = diff_documents(&a, &b, tol);

    if json_out {
        print!("{}", report_json(a_path, b_path, tol, &entries));
    } else {
        for e in &entries {
            println!("{}: {} != {}", e.path, e.a, e.b);
        }
        if entries.is_empty() {
            println!("trace_diff: {a_path} and {b_path} agree (tol {tol})");
        } else {
            println!("trace_diff: {} difference(s) (tol {tol})", entries.len());
        }
    }
    if !entries.is_empty() {
        std::process::exit(1);
    }
}
