//! **Fault sweep** — exhaustive crash-point exploration coverage artifact.
//!
//! For each recoverable protocol, run a seeded workload through every
//! scenario of every fault class of `amnt_core::fault`: a clean, a
//! nested-recovery, two torn and a tamper scenario per device-write crash
//! point, and WPQ-tail and verify-queue crashes at every op boundary. Each
//! scenario recovers and is classified, every read-back checked
//! byte-for-byte against the lockstep untimed oracle, and eviction-writeback
//! crash points are attributed as their own class. Emits
//! `results/fault_sweep.json` with the per-protocol columns of
//! `SweepSummary::columns`, which `perfgate` checks (silent corruption,
//! boundary deficits, eviction-class silents, idempotence violations,
//! verify-queue-class and tamper-class silents must be exactly zero at any
//! workload size), and prints them one line per column.
//!
//! `AMNT_FAULT_OPS` scales the workload (default 100 ops — the acceptance
//! sweep); a value that is not a non-negative integer exits with status 2.
//! The per-protocol sweeps are independent and run in parallel;
//! each sweep is a pure function of (protocol, seed, ops), so the artifact
//! is byte-identical across `AMNT_JOBS` settings.

use amnt_bench::{count_knob, results_dir, ExperimentResult, Grid, HostTimer};
use amnt_core::fault::{run_sweep_traced, sweep_protocols};
use amnt_core::{FaultSweepConfig, SweepSummary};
use amnt_trace::{metrics_document, TraceReport};
use std::io::Write as _;

fn main() {
    let timer = HostTimer::start();
    let ops = count_knob("AMNT_FAULT_OPS", 100, 0);
    let cfg = FaultSweepConfig {
        ops,
        ..FaultSweepConfig::default()
    };

    let mut grid: Grid<(SweepSummary, TraceReport)> = Grid::new();
    for (name, kind) in sweep_protocols() {
        let cfg = cfg.clone();
        grid.add(name, "sweep", move || {
            run_sweep_traced(kind, &cfg)
                .unwrap_or_else(|e| panic!("{name}: sweep setup failed: {e}"))
        });
    }
    let results = grid.run();

    let summaries: Vec<_> = results
        .cells()
        .iter()
        .map(|c| (&c.row, c.value.0.columns()))
        .collect();
    let mut result = ExperimentResult::new(
        "fault_sweep",
        "crash-point exploration outcomes per protocol",
    );
    for (row, columns) in &summaries {
        for &(name, value) in columns {
            result.push(row, name, value as f64);
        }
    }

    // One line per column, one column per protocol.
    println!("=== Fault sweep: {ops}-op seeded workload, every device-write crash point ===\n");
    print!("{:<24}", "");
    for (row, _) in &summaries {
        print!("{row:>8}");
    }
    println!();
    for (i, (name, _)) in SweepSummary::default().columns().into_iter().enumerate() {
        print!("{name:<24}");
        for (_, columns) in &summaries {
            print!("{:>8}", columns[i].1);
        }
        println!();
    }
    println!(
        "\nsilent corruption, boundary deficits, eviction-class silents, \
         idempotence violations, verify-queue-class and tamper-class silents \
         must be zero for every protocol."
    );
    result.set_host(&timer, results.workers);
    let path = result.save().expect("save results");
    println!("saved {}", path.display());

    // Sweep observability sidecar: per-protocol strike-ordinal
    // distributions, baseline recovery phase durations, and touched-closure
    // sizes. Derived purely from (protocol, seed, ops) — byte-identical
    // across `AMNT_JOBS`, and it never feeds back into the main artifact.
    let trace_cells: Vec<(String, String, &TraceReport)> = results
        .cells()
        .iter()
        .map(|c| (c.row.clone(), c.col.clone(), &c.value.1))
        .collect();
    let doc = metrics_document("fault_sweep", &trace_cells);
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("results dir");
    let trace_path = dir.join("fault_sweep.trace.json");
    let mut f = std::fs::File::create(&trace_path).expect("create sweep trace sidecar");
    f.write_all(doc.as_bytes())
        .expect("write sweep trace sidecar");
    println!("saved {}", trace_path.display());
}
