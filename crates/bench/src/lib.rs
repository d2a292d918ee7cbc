//! # amnt-bench
//!
//! The evaluation harness: one binary per table/figure of the paper
//! (`fig3_hot_regions` … `table4_recovery`, plus `all`), each declared
//! once in the artifact [`registry`], and shared plumbing — protocol sets,
//! run-length knobs, the protocol-figure grid, table formatting, geometric
//! means, and JSON result dumps under `results/`.
//!
//! Run any experiment with, e.g.:
//!
//! ```text
//! cargo run --release -p amnt-bench --bin fig4_parsec_single
//! ```
//!
//! Environment knobs: `AMNT_ACCESSES` (per-core measured accesses),
//! `AMNT_WARMUP`, `AMNT_SEED` and `AMNT_JOBS` (parallel executor worker
//! count; unset or `0`: available parallelism — see [`exec`]), each read by
//! [`count_knob`], which stops the run on a malformed value, plus
//! `AMNT_TRACE=1` to emit `*.trace.json` / `*.perfetto.json` sidecars
//! (see [`trace_out`]). An `AMNT_*` name that is no knob (a misspelling
//! such as `AMNT_FAULT_OP`) stops the run too, naming the nearest knobs.

#![forbid(unsafe_code)]

pub mod diff;
pub mod exec;
pub mod grid;
pub mod json;
pub mod registry;
pub mod series;
pub mod trace_out;

pub use grid::{FigureTable, Grid, GridCell, GridResults, ProtocolFigure};
pub use json::Json;
pub use trace_out::save_trace_artifacts;

use amnt_core::{AmntConfig, AnubisConfig, BmfConfig, ProtocolKind};
use amnt_sim::RunLength;
use amnt_trace::json_str;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Measured run length, overridable from the environment through
/// [`count_knob`].
pub fn run_length() -> RunLength {
    RunLength {
        accesses: count_knob("AMNT_ACCESSES", 150_000, 0),
        warmup: count_knob("AMNT_WARMUP", 15_000, 0),
        seed: count_knob("AMNT_SEED", 1, 0),
    }
}

/// Parses the value of the count knob `var`: unset (`None`) keeps
/// `default`; a set value must be an integer of type `T` no smaller than
/// `min`. `T` is an unsigned integer type, up to `u64`.
///
/// # Errors
///
/// A message naming the variable and its value when the value does not
/// parse or is below `min`.
pub fn parse_count<T>(var: &str, value: Option<&str>, default: T, min: T) -> Result<T, String>
where
    T: std::str::FromStr + PartialOrd + std::fmt::Display,
{
    let Some(v) = value else { return Ok(default) };
    match v.parse() {
        Ok(n) if n >= min => Ok(n),
        Ok(_) => Err(format!("{var}={v:?} is below the minimum {min}")),
        Err(_) => Err(format!("{var}={v:?} is not a non-negative integer")),
    }
}

/// Parses the value of the on/off knob `var`: unset (`None`) keeps
/// `default`, `0` is off and `1` is on.
///
/// # Errors
///
/// A message naming the variable and its value for any other value.
pub(crate) fn parse_switch(var: &str, value: Option<&str>, default: bool) -> Result<bool, String> {
    match value {
        None => Ok(default),
        Some("0") => Ok(false),
        Some("1") => Ok(true),
        Some(v) => Err(format!("{var}={v:?} is not 0 or 1")),
    }
}

/// Every `AMNT_*` environment variable the experiment binaries, and the
/// scripts that run them, read. [`read_knob`] refuses every other
/// `AMNT_*` name in the environment, so a misspelt knob stops the run
/// instead of being ignored.
pub(crate) const KNOBS: [&str; 9] = [
    "AMNT_ACCESSES",
    "AMNT_WARMUP",
    "AMNT_SEED",
    "AMNT_JOBS",
    "AMNT_FAULT_OPS",
    "AMNT_TRACE",
    "AMNT_TRACE_EPOCH",
    "AMNT_TRACE_EVENTS",
    // scripts/check.sh's time budget for amnt-lint
    "AMNT_LINT_BUDGET_S",
];

/// Refuses the first `AMNT_*` name in `names` (in sorted order) that
/// [`KNOBS`] does not list.
///
/// # Errors
///
/// A message naming the unknown variable and up to three nearest known
/// names.
pub(crate) fn check_knob_names<'a>(names: impl IntoIterator<Item = &'a str>) -> Result<(), String> {
    let mut unknown: Vec<&str> = names
        .into_iter()
        .filter(|n| n.starts_with("AMNT_") && !KNOBS.contains(n))
        .collect();
    unknown.sort_unstable();
    let Some(name) = unknown.first() else {
        return Ok(());
    };
    let mut known = KNOBS;
    known.sort_by_key(|k| (edit_distance(name, k), *k));
    Err(format!(
        "{name} is not a knob; did you mean {}?",
        known[..3].join(", ")
    ))
}

/// Levenshtein distance between `a` and `b`, in chars.
fn edit_distance(a: &str, b: &str) -> usize {
    let b: Vec<char> = b.chars().collect();
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.chars().enumerate() {
        let mut diag = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let up = row[j + 1];
            row[j + 1] = (up + 1).min(row[j] + 1).min(diag + usize::from(ca != cb));
            diag = up;
        }
    }
    row[b.len()]
}

/// Reads the knob `var` and parses it with `parse`. A value `parse`
/// rejects, or any `AMNT_*` variable in the environment that [`KNOBS`]
/// does not list, ends the process with status 2 and the message, rather
/// than silently running the default.
pub(crate) fn read_knob<T>(var: &str, parse: impl FnOnce(Option<&str>) -> Result<T, String>) -> T {
    debug_assert!(KNOBS.contains(&var), "{var} is missing from KNOBS");
    let names: Vec<String> = std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .collect();
    let value = std::env::var_os(var).map(|v| v.to_string_lossy().into_owned());
    check_knob_names(names.iter().map(String::as_str))
        .and_then(|()| parse(value.as_deref()))
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        })
}

/// Reads the count knob `var` through [`parse_count`]; a set value that
/// does not parse, or is below `min`, exits with status 2.
pub fn count_knob<T>(var: &str, default: T, min: T) -> T
where
    T: std::str::FromStr + PartialOrd + std::fmt::Display,
{
    read_knob(var, |v| parse_count(var, v, default, min))
}

/// The protocol set the paper's runtime figures compare (order matches the
/// figure legends). `amnt++` is the AMNT protocol plus the modified OS and
/// is handled by the runners, not a distinct [`ProtocolKind`].
pub fn figure_protocols() -> Vec<(&'static str, ProtocolKind)> {
    vec![
        ("leaf", ProtocolKind::Leaf),
        ("strict", ProtocolKind::Strict),
        ("anubis", ProtocolKind::Anubis(AnubisConfig::default())),
        ("bmf", ProtocolKind::Bmf(BmfConfig::default())),
        ("amnt", ProtocolKind::Amnt(AmntConfig::default())),
    ]
}

/// Geometric mean of positive samples.
pub fn gmean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// One cell of a result table, serialised to JSON.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Row label (benchmark / scenario).
    pub row: String,
    /// Column label (protocol / configuration).
    pub col: String,
    /// Measured value.
    pub value: f64,
}

/// A complete experiment result, serialised to `results/<id>.json`.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Experiment id ("fig4", "table2", ...).
    pub id: String,
    /// What the values mean ("cycles normalized to volatile", ...).
    pub metric: String,
    /// All cells.
    pub cells: Vec<Cell>,
    /// Host wall-clock seconds spent producing this result (NaN = untimed).
    ///
    /// Deliberately **not** part of [`Self::to_json`]: the simulated
    /// artifact is byte-reproducible across hosts and `AMNT_JOBS` values,
    /// so wall-clock goes to the `results/<id>.host.json` sidecar instead
    /// (see [`Self::to_host_json`]).
    pub host_seconds: f64,
    /// Executor worker count that produced the result (0 = serial/unknown).
    pub host_workers: usize,
}

impl ExperimentResult {
    /// Creates an empty result.
    pub fn new(id: &str, metric: &str) -> Self {
        ExperimentResult {
            id: id.to_string(),
            metric: metric.to_string(),
            cells: Vec::new(),
            host_seconds: f64::NAN,
            host_workers: 0,
        }
    }

    /// Stamps host wall-clock (from a [`HostTimer`]) and the executor
    /// worker count onto the result, so [`Self::save`] writes the
    /// `.host.json` sidecar.
    pub fn set_host(&mut self, timer: &HostTimer, workers: usize) {
        self.host_seconds = timer.elapsed_seconds();
        self.host_workers = workers;
    }

    /// Adds one cell.
    pub fn push(&mut self, row: &str, col: &str, value: f64) {
        self.cells.push(Cell {
            row: row.to_string(),
            col: col.to_string(),
            value,
        });
    }

    /// Serialises the result to pretty-printed JSON.
    ///
    /// Hand-rolled (no `serde`): the schema is three fixed fields and the
    /// workspace builds with zero external crates. Non-finite values (NaN /
    /// ±inf have no JSON representation) serialise as `null`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.cells.len() * 64);
        out.push_str("{\n");
        out.push_str(&format!("  \"id\": {},\n", json_str(&self.id)));
        out.push_str(&format!("  \"metric\": {},\n", json_str(&self.metric)));
        out.push_str("  \"cells\": [");
        for (i, c) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{ \"row\": {}, \"col\": {}, \"value\": {} }}",
                json_str(&c.row),
                json_str(&c.col),
                json_number(c.value)
            ));
        }
        if !self.cells.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Reads back an artifact written by [`Self::to_json`]: its inverse,
    /// except that non-finite values (written as `null`) read back as NaN.
    /// The host fields are not part of the artifact and come back unset.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed or missing field.
    pub fn from_json(src: &str) -> Result<Self, String> {
        let doc = Json::parse(src)?;
        let string = |obj: &Json, key: &str| {
            obj.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string \"{key}\""))
        };
        let mut result = ExperimentResult::new(&string(&doc, "id")?, &string(&doc, "metric")?);
        let cells = doc
            .get("cells")
            .and_then(Json::as_arr)
            .ok_or("missing \"cells\" array")?;
        for cell in cells {
            let value = match cell.get("value") {
                Some(Json::Num(v)) => *v,
                Some(Json::Null) => f64::NAN,
                _ => return Err("cell \"value\" is neither a number nor null".to_string()),
            };
            result.cells.push(Cell {
                row: string(cell, "row")?,
                col: string(cell, "col")?,
                value,
            });
        }
        Ok(result)
    }

    /// The wall-clock sidecar artifact (`results/<id>.host.json`): host
    /// seconds, worker count, the host's CPU count and the process's peak
    /// resident set so far (`null` where the host does not report it),
    /// tracked separately from the deterministic simulated results so
    /// perf-regression tooling can watch harness speed without breaking
    /// byte-reproducibility of `<id>.json`.
    pub fn to_host_json(&self) -> String {
        format!(
            "{{\n  \"id\": {},\n  \"host_seconds\": {},\n  \"jobs\": {},\n  \"cpus\": {},\n  \
             \"peak_rss_mb\": {}\n}}\n",
            json_str(&self.id),
            json_number(self.host_seconds),
            self.host_workers,
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            peak_rss_mb().map_or_else(|| "null".to_string(), json_number)
        )
    }

    /// Writes the JSON artifact under `results/` (plus the
    /// `<id>.host.json` wall-clock sidecar when [`Self::host_seconds`] was
    /// stamped) and returns the path of the main artifact.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self) -> std::io::Result<PathBuf> {
        let dir = results_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.json", self.id));
        let mut f = std::fs::File::create(&path)?;
        f.write_all(self.to_json().as_bytes())?;
        if self.host_seconds.is_finite() {
            let host_path = dir.join(format!("{}.host.json", self.id));
            let mut f = std::fs::File::create(&host_path)?;
            f.write_all(self.to_host_json().as_bytes())?;
        }
        Ok(path)
    }
}

/// Wall-clock timer for the `host_seconds` artifact field.
///
/// Lives in the bench harness only — the simulator itself is wall-clock
/// free by construction (`clippy.toml` disallows `Instant::now` in the
/// workspace), so host timing wraps *around* simulations, never inside.
#[derive(Debug)]
pub struct HostTimer(Instant);

impl HostTimer {
    /// Starts timing.
    #[allow(clippy::disallowed_methods)] // host clock for `.host.json` only
    pub fn start() -> Self {
        HostTimer(Instant::now())
    }

    /// Seconds elapsed since [`Self::start`].
    pub fn elapsed_seconds(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// The process's peak resident set (`VmHWM` in `/proc/self/status`) in
/// megabytes, or `None` where the host does not report it.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib * 1024.0 / 1e6)
}

/// A JSON number literal; non-finite values become `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `{}` prints integral floats without a dot; keep them JSON numbers
        // that read back as floats.
        if s.contains('.') || s.contains('e') || s.contains('E') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

/// `results/` under the workspace root (or the current directory).
pub fn results_dir() -> PathBuf {
    let base = std::env::var("CARGO_MANIFEST_DIR")
        .map(|p| PathBuf::from(p).join("../.."))
        .unwrap_or_else(|_| PathBuf::from("."));
    base.join("results")
}

/// Pretty-prints a row-major table: rows × columns of values.
pub fn print_table(title: &str, cols: &[&str], rows: &[(String, Vec<f64>)]) {
    println!("\n=== {title} ===");
    print!("{:<22}", "");
    for c in cols {
        print!("{c:>10}");
    }
    println!();
    for (name, vals) in rows {
        print!("{name:<22}");
        for v in vals {
            if v.is_nan() {
                print!("{:>10}", "-");
            } else {
                print!("{v:>10.3}");
            }
        }
        println!();
    }
}

/// Times `iters` calls of `f`, prints `ns/iter`, and returns it.
///
/// A short warmup, then one timed pass over `std::hint::black_box`:
/// `crypto_bench` times its MAC engines with it and reports their host-cost
/// ratios. Simulated-cycle numbers come from the experiment binaries, not
/// from wall-clock timing.
pub fn time_bench<T>(name: &str, iters: u64, mut f: impl FnMut() -> T) -> f64 {
    for _ in 0..(iters / 10).clamp(1, 1000) {
        std::hint::black_box(f());
    }
    #[allow(clippy::disallowed_methods)] // a host-cost micro-benchmark
    let start = std::time::Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    let per = start.elapsed().as_nanos() as f64 / iters as f64;
    println!("{name:<44} {iters:>9} iters {per:>14.1} ns/iter");
    per
}

/// Prints a paper-vs-measured comparison line.
pub fn compare(label: &str, paper: f64, measured: f64) {
    println!("  {label:<44} paper {paper:>10.3}   measured {measured:>10.3}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_knobs_default_when_unset_and_reject_malformed_values() {
        assert_eq!(parse_count("AMNT_FAULT_OPS", None, 100, 0), Ok(100));
        assert_eq!(parse_count("AMNT_FAULT_OPS", Some("24"), 100, 0), Ok(24));
        assert_eq!(parse_count("AMNT_ACCESSES", Some("0"), 800, 0), Ok(0));
        assert_eq!(
            parse_count("AMNT_FAULT_OPS", Some("1O0"), 100, 0),
            Err("AMNT_FAULT_OPS=\"1O0\" is not a non-negative integer".to_string())
        );
        for bad in ["abc", "", " 24", "-1", "2.5", "24 "] {
            let err = parse_count("AMNT_ACCESSES", Some(bad), 800, 0).expect_err(bad);
            assert!(err.starts_with("AMNT_ACCESSES="), "{err}");
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
        // Run-length knobs are u64: the whole range parses, one past it
        // does not, and a typo no longer runs a silent default.
        assert_eq!(
            parse_count("AMNT_SEED", Some("18446744073709551615"), 1, 0),
            Ok(u64::MAX)
        );
        assert!(parse_count("AMNT_SEED", Some("18446744073709551616"), 1u64, 0).is_err());
        assert_eq!(
            parse_count("AMNT_ACCESSES", Some("15O000"), 150_000u64, 0),
            Err("AMNT_ACCESSES=\"15O000\" is not a non-negative integer".to_string())
        );
        // A zero trace epoch or event capacity is rejected, not clamped.
        assert_eq!(
            parse_count("AMNT_TRACE_EPOCH", Some("0"), 250_000u64, 1),
            Err("AMNT_TRACE_EPOCH=\"0\" is below the minimum 1".to_string())
        );
        assert_eq!(
            parse_count("AMNT_TRACE_EVENTS", Some("1"), 65_536usize, 1),
            Ok(1)
        );
    }

    #[test]
    fn unknown_amnt_names_are_refused_with_the_nearest_knobs() {
        assert_eq!(
            check_knob_names(["HOME", "AMNT_JOBS", "AMNT_TRACE"]),
            Ok(())
        );
        assert_eq!(check_knob_names(KNOBS), Ok(()));
        assert_eq!(
            check_knob_names(["AMNT_JOBS", "AMNT_FAULT_OP"]),
            Err("AMNT_FAULT_OP is not a knob; did you mean AMNT_FAULT_OPS, \
                 AMNT_WARMUP, AMNT_ACCESSES?"
                .to_string())
        );
        // Several unknown names: the first in sorted order is reported.
        let err = check_knob_names(["AMNT_WARMUPS", "AMNT_ACCESS"]).unwrap_err();
        assert!(err.starts_with("AMNT_ACCESS is not a knob; did you mean AMNT_ACCESSES,"));
        // Only the `AMNT_` prefix is policed.
        assert_eq!(check_knob_names(["AMNTX", "XAMNT_JOBS"]), Ok(()));
    }

    #[test]
    fn switch_knobs_default_when_unset_and_take_only_0_or_1() {
        assert_eq!(parse_switch("AMNT_TRACE", None, false), Ok(false));
        assert_eq!(parse_switch("AMNT_TRACE", None, true), Ok(true));
        assert_eq!(parse_switch("AMNT_TRACE", Some("0"), true), Ok(false));
        assert_eq!(parse_switch("AMNT_TRACE", Some("1"), false), Ok(true));
        assert_eq!(
            parse_switch("AMNT_TRACE", Some("true"), false),
            Err("AMNT_TRACE=\"true\" is not 0 or 1".to_string())
        );
        // An empty value no longer means off to one reader and on to another.
        for bad in ["", "true", " 1", "false", "01"] {
            for default in [false, true] {
                let err = parse_switch("AMNT_TRACE", Some(bad), default).expect_err(bad);
                assert!(err.starts_with("AMNT_TRACE="), "{err}");
                assert!(err.contains(&format!("{bad:?}")), "{err}");
            }
        }
    }

    #[test]
    fn gmean_of_constants() {
        assert!((gmean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((gmean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!(gmean(&[]).is_nan());
    }

    #[test]
    fn result_serialises_to_json() {
        let mut r = ExperimentResult::new("test", "unitless");
        r.push("row", "col", 1.25);
        let json = r.to_json();
        assert!(json.contains("\"id\": \"test\""));
        assert!(json.contains("\"metric\": \"unitless\""));
        assert!(json.contains("\"value\": 1.25"));
    }

    #[test]
    fn json_escapes_and_non_finite_values() {
        let mut r = ExperimentResult::new("quo\"te", "tab\tline\nback\\slash");
        r.push("nan", "c", f64::NAN);
        r.push("inf", "c", f64::INFINITY);
        r.push("int", "c", 3.0);
        let json = r.to_json();
        assert!(json.contains(r#""id": "quo\"te""#));
        assert!(json.contains(r#""metric": "tab\tline\nback\\slash""#));
        assert_eq!(json.matches("\"value\": null").count(), 2);
        assert!(
            json.contains("\"value\": 3.0"),
            "integral floats keep a dot"
        );
    }

    #[test]
    fn from_json_inverts_to_json() {
        let mut r = ExperimentResult::new("brace {id}", "quote \" back \\ tab \t");
        r.push("row {with} braces", "naïve µs → 快", 1.25);
        r.push("}{", "\"\\", f64::NAN);
        r.push("int", "c", 3.0);
        let back = ExperimentResult::from_json(&r.to_json()).unwrap();
        assert_eq!(
            (back.id.as_str(), back.metric.as_str()),
            (r.id.as_str(), r.metric.as_str())
        );
        assert_eq!(back.cells.len(), r.cells.len());
        for (b, a) in back.cells.iter().zip(&r.cells) {
            assert_eq!((&b.row, &b.col), (&a.row, &a.col));
            assert!(b.value == a.value || (b.value.is_nan() && a.value.is_nan()));
        }
        assert_eq!(back.to_json(), r.to_json());
        assert!(ExperimentResult::from_json("{\"id\": \"x\"}").is_err());
    }

    #[test]
    fn empty_result_is_valid_json() {
        let r = ExperimentResult::new("empty", "m");
        assert!(r.to_json().contains("\"cells\": []"));
    }

    #[test]
    fn host_sidecar_records_cpus_and_peak_rss() {
        let mut r = ExperimentResult::new("host", "m");
        r.set_host(&HostTimer::start(), 3);
        let doc = Json::parse(&r.to_host_json()).unwrap();
        assert_eq!(doc.get("jobs").and_then(Json::as_f64), Some(3.0));
        assert!(doc
            .get("cpus")
            .and_then(Json::as_f64)
            .is_some_and(|n| n >= 1.0));
        let rss = doc
            .get("peak_rss_mb")
            .expect("peak_rss_mb is always present");
        let reported = std::path::Path::new("/proc/self/status").exists();
        assert_eq!(rss.as_f64().is_some_and(|mb| mb > 0.0), reported, "{rss:?}");
    }

    #[test]
    fn figure_protocols_match_legends() {
        let names: Vec<&str> = figure_protocols().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["leaf", "strict", "anubis", "bmf", "amnt"]);
    }
}
