//! The benchmark command:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sim_xz|kv_read|recover_2tb> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Repeats passes of the workload (set-up, load, crash cycles) until
//! `--seconds` have elapsed, checks every output, and prints the settings,
//! one line per metric, and as its last line one JSON object. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` alternates untraced and
//! traced passes and reports the per-layer metrics, one line per layer.

use perfbench::metrics::{self, Metric};
use perfbench::provenance::{peak_rss_mb, refused_env, settings};
use perfbench::workloads::reconcile;
use perfbench::{run_pass, Pass, Sizes, UnitCosts, Workload};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str =
    "usage: perfbench --workload <sim_xz|kv_read|recover_2tb> --seed <n> --seconds <s> --trace <0|1>";

/// Passes stop starting after this long, whatever `--seconds` asks, so a
/// run always ends well inside three minutes.
const HARD_STOP: Duration = Duration::from_secs(120);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let workload = Workload::parse(&workload).ok_or(format!("unknown workload {workload:?}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn print_metric(m: &Metric) {
    let samples = if m.samples > 0 {
        format!("  n={}", m.samples)
    } else {
        String::new()
    };
    println!(
        "{:<28} {:>16} {:<10} {}{samples}",
        m.name,
        format_value(m.value),
        m.unit,
        m.clock.label()
    );
}

fn format_value(v: f64) -> String {
    if v.fract() == 0.0 {
        format!("{v}")
    } else {
        format!("{v:.4}")
    }
}

/// One line per layer: the metrics whose names share a prefix.
fn print_layers(metrics: &[Metric]) {
    let mut layers: Vec<(&str, Vec<String>)> = Vec::new();
    for m in metrics {
        let (layer, short) = m.name.split_once('.').unwrap_or(("host", m.name));
        let item = format!(
            "{short}={}{}{}",
            format_value(m.value),
            if m.unit == "ratio" {
                String::new()
            } else {
                format!(" {}", m.unit)
            },
            if m.clock == metrics::Clock::Estimate {
                " (estimate)"
            } else {
                ""
            },
        );
        match layers.iter_mut().find(|(l, _)| *l == layer) {
            Some((_, items)) => items.push(item),
            None => layers.push((layer, vec![item])),
        }
    }
    for (layer, items) in layers {
        println!("{layer:<10} {}", items.join("  "));
    }
}

/// Exact metrics that differ between two passes, by name.
fn exact_mismatches(a: &Pass, b: &Pass) -> Vec<&'static str> {
    metrics::exact(a)
        .into_iter()
        .zip(metrics::exact(b))
        .filter(|(x, y)| x.value.to_bits() != y.value.to_bits())
        .map(|(x, _)| x.name)
        .collect()
}

fn json_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let refused = refused_env();
    if !refused.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: the benchmark pins the engine \
             configuration itself; unset it and run again",
            refused.join(", ")
        );
        return ExitCode::from(2);
    }
    let sizes = Sizes::STANDARD;
    let w = args.workload;
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in settings(w, args.seed, &sizes) {
        println!("# {line}");
    }

    // Untraced passes, and with --trace 1 a traced pass after each, until
    // the time is up (at least two untraced passes, to compare their
    // exact counts).
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    loop {
        let trace_next = args.trace && traced.len() < untraced.len();
        let pass = run_pass(w, args.seed, &sizes, trace_next);
        println!(
            "# pass {}{}: setup {:.4} s, load {:.4} s ({:.0} ops/s)",
            untraced.len() + traced.len() + 1,
            if trace_next { " (traced)" } else { "" },
            pass.setup_s,
            pass.load_s,
            pass.host_ops as f64 / pass.load_s
        );
        if trace_next {
            traced.push(pass);
        } else {
            untraced.push(pass);
        }
        let minimum = untraced.len() >= 2 && (!args.trace || !traced.is_empty());
        if minimum && (start.elapsed() >= budget || start.elapsed() >= HARD_STOP) {
            break;
        }
    }

    let all: Vec<&Pass> = untraced.iter().chain(&traced).collect();
    let attempted: u64 = all.iter().map(|p| p.attempted).sum();
    let failed: u64 = all.iter().map(|p| p.failed).sum();
    let mut problems: Vec<String> = all.iter().filter_map(|p| p.first_failure.clone()).collect();
    problems.extend(all.iter().filter_map(|p| reconcile(w, p).err()));
    let mut traced_differs = false;
    for (i, p) in all.iter().enumerate().skip(1) {
        let differ = exact_mismatches(all[0], p);
        if !differ.is_empty() {
            let kind = if i < untraced.len() {
                "untraced"
            } else {
                "traced"
            };
            traced_differs |= kind == "traced";
            problems.push(format!(
                "exact metrics of {kind} pass {i} differ: {}",
                differ.join(", ")
            ));
        }
    }

    let result = if args.trace {
        let costs = UnitCosts::measure(w, args.seed, untraced[0].resident_frames);
        let m = metrics::traced_result(&untraced, &traced, &costs);
        println!(
            "== per-layer summary: {} seed={} passes={} untraced + {} traced; \
             traced exact counts equal untraced: {} ==",
            w.name(),
            args.seed,
            untraced.len(),
            traced.len(),
            if traced_differs { "NO" } else { "yes" },
        );
        print_layers(&m);
        m
    } else {
        let m = metrics::end_to_end(&untraced, peak_rss_mb());
        println!(
            "== end-to-end: {} seed={} passes={} (untraced; gated: {}) ==",
            w.name(),
            args.seed,
            untraced.len(),
            metrics::GATED.join(", ")
        );
        for metric in &m {
            print_metric(metric);
        }
        metrics::gated(m)
    };
    println!(
        "failed_op_ratio {} ({failed} failed of {attempted} attempted)",
        failed as f64 / attempted.max(1) as f64
    );
    if result.iter().any(|m| !m.value.is_finite()) {
        problems.push("a metric is not a finite number".into());
    }
    for p in &problems {
        println!("CHECK FAILED: {p}");
    }
    let correct = problems.is_empty() && failed == 0;
    println!("checks: {}", if correct { "all passed" } else { "FAILED" });
    let finite: Vec<Metric> = result
        .into_iter()
        .map(|m| {
            if m.value.is_finite() {
                m
            } else {
                Metric { value: 0.0, ..m }
            }
        })
        .collect();
    println!(
        "{}",
        json_result(correct, attempted.max(1), failed, &finite)
    );
    ExitCode::SUCCESS
}
