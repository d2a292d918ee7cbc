//! Performance-protocol regression gate (ROADMAP: "teach check.sh to diff
//! benchmark JSON against EXPERIMENTS.md").
//!
//! Reads the machine-readable reference block in `EXPERIMENTS.md` (between
//! `<!-- perfgate:begin -->` and `<!-- perfgate:end -->`) and checks the
//! `results/*.json` artifacts against it:
//!
//! ```text
//! gmean <artifact> <col> <expected> <rel_tol>   # per-column geometric mean
//! cell  <artifact> <row> <col> <expected> <rel_tol>
//! rank  <artifact> <better_col> <worse_col>     # gmean ordering, 2% slack
//! min   <artifact> <row> <col> <bound>          # one-sided cell floor
//! max   <artifact> <row> <col> <bound>          # one-sided cell ceiling
//! series <artifact> <row> <col> <field> <form> [param]   # epoch series
//! ```
//!
//! `series` directives read the `results/<artifact>.trace.json` sidecar's
//! epoch time-series instead of the flat artifact — see
//! [`amnt_bench::series`] for the forms (`recovers_within`, `monotone`,
//! `bounded_drop`, `final_at_least`, `final_at_most`) and field grammar.
//! Like flat directives, a missing sidecar skips the check.
//!
//! Artifacts that are missing are *skipped* (the gate never forces a full
//! benchmark run), so `scripts/check.sh` can run this unconditionally:
//! whatever artifacts exist are held to the recorded shape — the protocol
//! ranking and gmean magnitudes §6 reports. Exit status 1 on any failure.
//!
//! `perfgate --print <artifact>` prints an artifact's per-column gmeans in
//! directive syntax, for refreshing the reference block after a deliberate
//! model change.

use amnt_bench::{gmean, results_dir, Cell, ExperimentResult};
use std::path::Path;

/// A loaded artifact, or the reason it can't be checked.
enum Artifact {
    Loaded(Vec<Cell>),
    Missing,
    Broken(String),
}

fn load_artifact(dir: &Path, id: &str) -> Artifact {
    let path = dir.join(format!("{id}.json"));
    match std::fs::read_to_string(&path) {
        Err(_) => Artifact::Missing,
        Ok(json) => match ExperimentResult::from_json(&json) {
            Ok(result) => Artifact::Loaded(result.cells),
            Err(e) => Artifact::Broken(e),
        },
    }
}

/// Geometric mean of an artifact's values in column `col`.
fn col_gmean(cells: &[Cell], col: &str) -> Option<f64> {
    let vals: Vec<f64> = cells
        .iter()
        .filter(|c| c.col == col && c.value.is_finite())
        .map(|c| c.value)
        .collect();
    if vals.is_empty() {
        None
    } else {
        Some(gmean(&vals))
    }
}

/// The reference block between the perfgate markers in EXPERIMENTS.md.
fn reference_lines(experiments_md: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut inside = false;
    for (i, line) in experiments_md.lines().enumerate() {
        if line.contains("perfgate:begin") {
            inside = true;
            continue;
        }
        if line.contains("perfgate:end") {
            inside = false;
            continue;
        }
        if inside {
            let t = line.trim();
            if !t.is_empty() && !t.starts_with('#') && !t.starts_with("```") {
                out.push((i + 1, t.to_string()));
            }
        }
    }
    out
}

/// Slack multiplier for `rank` checks: orderings must hold up to 2%.
const RANK_SLACK: f64 = 1.02;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dir = results_dir();

    if args.first().map(String::as_str) == Some("--print") {
        let id = args.get(1).map(String::as_str).unwrap_or("fig4");
        match load_artifact(&dir, id) {
            Artifact::Missing => {
                eprintln!("no artifact {id}.json under {}", dir.display());
                std::process::exit(1);
            }
            Artifact::Broken(e) => {
                eprintln!("{id}.json unreadable: {e}");
                std::process::exit(1);
            }
            Artifact::Loaded(cells) => {
                let mut cols: Vec<&str> = Vec::new();
                for c in &cells {
                    if !cols.contains(&c.col.as_str()) {
                        cols.push(&c.col);
                    }
                }
                for col in cols {
                    if let Some(g) = col_gmean(&cells, col) {
                        println!("gmean {id} {col} {g:.4} 0.15");
                    }
                }
                return;
            }
        }
    }

    let md_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS.md");
    let md = match std::fs::read_to_string(&md_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfgate: cannot read {}: {e}", md_path.display());
            std::process::exit(1);
        }
    };
    let refs = reference_lines(&md);
    if refs.is_empty() {
        eprintln!("perfgate: no reference block in EXPERIMENTS.md (perfgate:begin/end)");
        std::process::exit(1);
    }

    let mut checked = 0usize;
    let mut skipped = 0usize;
    let mut failures = 0usize;
    let mut cache: std::collections::BTreeMap<String, Artifact> = Default::default();
    let mut sidecars: std::collections::BTreeMap<String, Option<Result<amnt_bench::Json, String>>> =
        Default::default();

    for (lineno, line) in refs {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let mut fail = |msg: String| {
            println!("FAIL  {line}\n      {msg}");
            failures += 1;
        };
        let artifact_id = match fields.get(1) {
            Some(id) => (*id).to_string(),
            None => {
                fail(format!(
                    "EXPERIMENTS.md:{lineno}: directive needs an artifact id"
                ));
                continue;
            }
        };

        // Series directives read the trace sidecar, not the flat artifact.
        if fields.first() == Some(&"series") {
            let sidecar = sidecars.entry(artifact_id.clone()).or_insert_with(|| {
                let path = dir.join(format!("{artifact_id}.trace.json"));
                std::fs::read_to_string(&path)
                    .ok()
                    .map(|s| amnt_bench::Json::parse(&s))
            });
            match sidecar {
                None => {
                    println!("SKIP  {line}   (no results/{artifact_id}.trace.json)");
                    skipped += 1;
                }
                Some(Err(e)) => {
                    fail(format!("results/{artifact_id}.trace.json unreadable: {e}"))
                }
                Some(Ok(doc)) => match amnt_bench::series::eval_directive(doc, &fields[2..]) {
                    Ok(desc) => {
                        println!("ok    series {artifact_id} {desc}");
                        checked += 1;
                    }
                    Err(e) => fail(format!("EXPERIMENTS.md:{lineno}: {e}")),
                },
            }
            continue;
        }

        let artifact = cache
            .entry(artifact_id.clone())
            .or_insert_with(|| load_artifact(&dir, &artifact_id));
        let cells = match artifact {
            Artifact::Missing => {
                println!("SKIP  {line}   (no results/{artifact_id}.json)");
                skipped += 1;
                continue;
            }
            Artifact::Broken(e) => {
                fail(format!("results/{artifact_id}.json unreadable: {e}"));
                continue;
            }
            Artifact::Loaded(cells) => cells,
        };

        match fields.as_slice() {
            ["gmean", _, col, expected, tol] => {
                let (Ok(expected), Ok(tol)) = (expected.parse::<f64>(), tol.parse::<f64>()) else {
                    fail(format!("EXPERIMENTS.md:{lineno}: bad number"));
                    continue;
                };
                match col_gmean(cells, col) {
                    None => fail(format!("no '{col}' cells in {artifact_id}.json")),
                    Some(g) if (g - expected).abs() > tol * expected => {
                        fail(format!(
                            "gmean({col}) = {g:.4}, reference {expected} ±{:.0}%",
                            tol * 100.0
                        ));
                    }
                    Some(g) => {
                        println!("ok    gmean {artifact_id} {col} = {g:.4} (ref {expected})");
                        checked += 1;
                    }
                }
            }
            ["cell", _, row, col, expected, tol] => {
                let (Ok(expected), Ok(tol)) = (expected.parse::<f64>(), tol.parse::<f64>()) else {
                    fail(format!("EXPERIMENTS.md:{lineno}: bad number"));
                    continue;
                };
                // Directive tokens are whitespace-split, so spaces in row
                // labels are written as underscores ("AMNT_L2" ↔ "AMNT L2").
                match cells
                    .iter()
                    .find(|c| c.row.replace(' ', "_") == *row && c.col == *col)
                {
                    None => fail(format!("no cell ({row}, {col}) in {artifact_id}.json")),
                    Some(c) if (c.value - expected).abs() > tol * expected.abs() => {
                        fail(format!(
                            "cell ({row}, {col}) = {:.4}, reference {expected} ±{:.0}%",
                            c.value,
                            tol * 100.0
                        ));
                    }
                    Some(c) => {
                        println!(
                            "ok    cell {artifact_id} ({row}, {col}) = {:.4} (ref {expected})",
                            c.value
                        );
                        checked += 1;
                    }
                }
            }
            [dir @ ("min" | "max"), _, row, col, bound] => {
                let Ok(bound) = bound.parse::<f64>() else {
                    fail(format!("EXPERIMENTS.md:{lineno}: bad number"));
                    continue;
                };
                match cells
                    .iter()
                    .find(|c| c.row.replace(' ', "_") == *row && c.col == *col)
                {
                    None => fail(format!("no cell ({row}, {col}) in {artifact_id}.json")),
                    Some(c) => {
                        let ok = if *dir == "min" {
                            c.value >= bound
                        } else {
                            c.value <= bound
                        };
                        if ok {
                            println!(
                                "ok    {dir} {artifact_id} ({row}, {col}) = {:.4} (bound {bound})",
                                c.value
                            );
                            checked += 1;
                        } else {
                            let rel = if *dir == "min" {
                                "below floor"
                            } else {
                                "above ceiling"
                            };
                            fail(format!(
                                "cell ({row}, {col}) = {:.4} {rel} {bound}",
                                c.value
                            ));
                        }
                    }
                }
            }
            ["rank", _, better, worse] => {
                match (col_gmean(cells, better), col_gmean(cells, worse)) {
                    (Some(b), Some(w)) if b > w * RANK_SLACK => {
                        fail(format!(
                            "ranking regressed: gmean({better}) = {b:.4} > gmean({worse}) = {w:.4}"
                        ));
                    }
                    (Some(b), Some(w)) => {
                        println!("ok    rank {artifact_id} {better} ({b:.4}) <= {worse} ({w:.4})");
                        checked += 1;
                    }
                    _ => fail(format!(
                        "missing '{better}' or '{worse}' cells in {artifact_id}.json"
                    )),
                }
            }
            _ => fail(format!("EXPERIMENTS.md:{lineno}: unknown directive")),
        }
    }

    println!("\nperfgate: {checked} checks passed, {skipped} skipped, {failures} failed");
    if failures > 0 {
        std::process::exit(1);
    }
}
