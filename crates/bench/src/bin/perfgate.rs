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
//!
//! A reference row whose artifact or sidecar is missing *fails*, like one
//! whose value is off, since a skipped row would pass without checking
//! anything; `scripts/check.sh` regenerates every artifact the rows name
//! (the artifact registry, `amnt_bench::registry`) before it runs the
//! gate. Every row holds its artifact to the recorded shape — the protocol
//! ranking and gmean magnitudes §6 reports. Exit status 1 on any failure.
//!
//! `perfgate --print <artifact>` prints an artifact's per-column gmeans in
//! directive syntax, for refreshing the reference block after a deliberate
//! model change.

use amnt_bench::{gmean, results_dir, Cell, ExperimentResult, Json};
use std::path::Path;

/// Reads and parses `results/<file>`, or says why no row can check it: a
/// missing file fails like a malformed one.
fn load<T>(dir: &Path, file: &str, parse: fn(&str) -> Result<T, String>) -> Result<T, String> {
    let src = std::fs::read_to_string(dir.join(file)).map_err(|_| format!("no results/{file}"))?;
    parse(&src).map_err(|e| format!("results/{file} unreadable: {e}"))
}

/// An artifact's cells.
fn load_cells(dir: &Path, id: &str) -> Result<Vec<Cell>, String> {
    load(dir, &format!("{id}.json"), |src| {
        ExperimentResult::from_json(src).map(|r| r.cells)
    })
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
        let cells = load_cells(&dir, id).unwrap_or_else(|e| {
            eprintln!("perfgate: {e}");
            std::process::exit(1)
        });
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
    let mut failures = 0usize;
    let mut cache: std::collections::BTreeMap<String, Result<Vec<Cell>, String>> =
        Default::default();
    let mut sidecars: std::collections::BTreeMap<String, Result<Json, String>> = Default::default();

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
            let sidecar = sidecars
                .entry(artifact_id.clone())
                .or_insert_with(|| load(&dir, &format!("{artifact_id}.trace.json"), Json::parse));
            match sidecar {
                Err(e) => fail(e.clone()),
                Ok(doc) => match amnt_bench::series::eval_directive(doc, &fields[2..]) {
                    Ok(desc) => {
                        println!("ok    series {artifact_id} {desc}");
                        checked += 1;
                    }
                    Err(e) => fail(format!("EXPERIMENTS.md:{lineno}: {e}")),
                },
            }
            continue;
        }

        let cells = match cache
            .entry(artifact_id.clone())
            .or_insert_with(|| load_cells(&dir, &artifact_id))
        {
            Ok(cells) => cells,
            Err(e) => {
                fail(e.clone());
                continue;
            }
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

    println!("\nperfgate: {checked} checks passed, {failures} failed");
    if failures > 0 {
        std::process::exit(1);
    }
}
