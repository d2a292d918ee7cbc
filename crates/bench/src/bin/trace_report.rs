//! **trace_report** — the observability layer's demonstration run.
//!
//! Runs a small single-core PARSEC grid (three workloads × volatile /
//! leaf / amnt) with cycle-domain tracing *on by default* and writes
//! three artifacts under `results/`:
//!
//! - `trace_report.json` — the usual normalized-cycles artifact (its own
//!   id, so it never clobbers `fig4.json`),
//! - `trace_report.trace.json` — latency histograms (p50/p90/p99/max wait
//!   cycles per op type), counters, and the per-epoch time-series,
//! - `trace_report.perfetto.json` — a Chrome trace-event / Perfetto
//!   timeline of spans, AMNT subtree transitions, and fault strikes.
//!
//! Set `AMNT_TRACE=0` to run it untraced (sidecars are then skipped);
//! `AMNT_TRACE_EPOCH` / `AMNT_TRACE_EVENTS` tune the sampler as usual.
//! Like every experiment binary, all three artifacts are byte-identical
//! at any `AMNT_JOBS` value.

use amnt_bench::trace_out::env_trace;
use amnt_bench::{
    print_table, run_length, save_trace_artifacts, ExperimentResult, Grid, HostTimer,
};
use amnt_core::{AmntConfig, ProtocolKind};
use amnt_sim::{run_single, MachineConfig, SimReport};
use amnt_workloads::WorkloadModel;

fn main() {
    let timer = HostTimer::start();
    let len = run_length();
    let mut cfg = MachineConfig::parsec_single();
    // Tracing is on unless `AMNT_TRACE=0`.
    cfg.trace = env_trace(true);

    let protocols: Vec<(&'static str, ProtocolKind)> = vec![
        ("volatile", ProtocolKind::Volatile),
        ("leaf", ProtocolKind::Leaf),
        ("amnt", ProtocolKind::Amnt(AmntConfig::default())),
    ];
    let mut grid: Grid<SimReport> = Grid::new();
    for name in ["canneal", "streamcluster", "dedup"] {
        let model = WorkloadModel::by_name(name).expect("catalogued workload");
        for (proto_name, protocol) in &protocols {
            let (cfg, protocol) = (cfg.clone(), *protocol);
            grid.add(name, *proto_name, move || {
                run_single(&model, cfg, protocol, len).expect("trace_report cell")
            });
        }
    }
    let results = grid.run();

    let mut result = ExperimentResult::new("trace_report", "cycles normalized to volatile");
    let cols: Vec<&str> = protocols.iter().map(|(n, _)| *n).skip(1).collect();
    let rows = results.render_normalized("volatile", &cols, &mut result, false);
    print_table(
        "trace_report: traced mini-grid (normalized cycles)",
        &cols,
        &rows,
    );

    // Per-cell wait-latency digest straight from the harvests.
    for cell in results.cells() {
        let Some(trace) = &cell.value.trace else {
            continue;
        };
        eprint!("trace_report: {:<14} {:<9}", cell.row, cell.col);
        for op in ["read.wait", "write.wait"] {
            if let Some(h) = trace.hist(op) {
                eprint!(
                    " {op} p50={} p90={} p99={} max={}",
                    h.percentile(50),
                    h.percentile(90),
                    h.percentile(99),
                    h.max()
                );
            }
        }
        eprintln!(" epochs={}", trace.epochs.len());
    }

    result.set_host(&timer, results.workers);
    let path = result.save().expect("save results");
    println!("saved {}", path.display());
    for p in save_trace_artifacts("trace_report", &results).expect("save trace sidecars") {
        println!("saved {}", p.display());
    }
}
