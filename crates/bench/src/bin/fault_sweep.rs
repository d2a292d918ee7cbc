//! **Fault sweep** — exhaustive crash-point exploration coverage artifact.
//!
//! For each recoverable protocol, crash a seeded workload at every device-
//! write ordinal (clean and torn-line variants) and at every op boundary
//! with a dropped WPQ tail, recover, and classify each outcome — every
//! read-back checked byte-for-byte against the lockstep untimed oracle.
//! Eviction-writeback crash points are enumerated as their own class, and
//! the nested recovery-fault sweep re-crashes the recovery procedure at
//! every one of its device writes before recovering again (the idempotence
//! sweep). A fourth phase cuts power with deferred leaf-MAC checks still
//! pending in the lazy verify queue, at every op boundary and queue depth,
//! and a fifth flips one media bit between the nested recovery crash and
//! the second recovery (tamper interleaving) at every clean crash point.
//! Emits `results/fault_sweep.json` with the per-protocol coverage
//! counters that `perfgate` checks (silent corruption, boundary deficits,
//! eviction-class silents, idempotence violations, verify-queue-class and
//! tamper-class silents must be exactly zero at any workload size).
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

    println!("=== Fault sweep: {ops}-op seeded workload, every device-write crash point ===\n");
    println!(
        "{:<9}{:>7}{:>7}{:>7}{:>9}{:>9}{:>7}{:>7}{:>9}{:>7}{:>9}",
        "protocol",
        "points",
        "recov",
        "detect",
        "torn_rec",
        "torn_det",
        "tl_rec",
        "tl_det",
        "at_read",
        "silent",
        "boundary"
    );
    let mut result = ExperimentResult::new(
        "fault_sweep",
        "crash-point exploration outcomes per protocol",
    );
    for cell in results.cells() {
        let s = &cell.value.0;
        println!(
            "{:<9}{:>7}{:>7}{:>7}{:>9}{:>9}{:>7}{:>7}{:>9}{:>7}{:>9}",
            cell.row,
            s.crash_points,
            s.recovered,
            s.detected,
            s.torn_recovered,
            s.torn_detected,
            s.tail_recovered,
            s.tail_detected,
            s.detected_at_read,
            s.silent,
            s.boundary_deficit
        );
        result.push(&cell.row, "crash_points", s.crash_points as f64);
        result.push(&cell.row, "recovered", s.recovered as f64);
        result.push(&cell.row, "detected", s.detected as f64);
        result.push(&cell.row, "torn_recovered", s.torn_recovered as f64);
        result.push(&cell.row, "torn_detected", s.torn_detected as f64);
        result.push(&cell.row, "tail_recovered", s.tail_recovered as f64);
        result.push(&cell.row, "tail_detected", s.tail_detected as f64);
        result.push(&cell.row, "detected_at_read", s.detected_at_read as f64);
        result.push(&cell.row, "silent", s.silent as f64);
        result.push(&cell.row, "boundary_deficit", s.boundary_deficit as f64);
        result.push(&cell.row, "bounds_violations", s.bounds_violations as f64);
        result.push(&cell.row, "evict_points", s.evict_points as f64);
        result.push(&cell.row, "evict_recovered", s.evict_recovered as f64);
        result.push(&cell.row, "evict_detected", s.evict_detected as f64);
        result.push(&cell.row, "evict_silent", s.evict_silent as f64);
        result.push(&cell.row, "recovery_points", s.recovery_points as f64);
        result.push(&cell.row, "recovery_recovered", s.recovery_recovered as f64);
        result.push(&cell.row, "recovery_detected", s.recovery_detected as f64);
        result.push(
            &cell.row,
            "idempotence_violations",
            s.idempotence_violations as f64,
        );
        result.push(&cell.row, "work_regressions", s.work_regressions as f64);
        result.push(
            &cell.row,
            "verify_queue_points",
            s.verify_queue_points as f64,
        );
        result.push(
            &cell.row,
            "verify_queue_recovered",
            s.verify_queue_recovered as f64,
        );
        result.push(
            &cell.row,
            "verify_queue_detected",
            s.verify_queue_detected as f64,
        );
        result.push(
            &cell.row,
            "verify_queue_silent",
            s.verify_queue_silent as f64,
        );
        result.push(&cell.row, "tamper_points", s.tamper_points as f64);
        result.push(&cell.row, "tamper_detected", s.tamper_detected as f64);
        result.push(&cell.row, "tamper_healed", s.tamper_healed as f64);
        result.push(&cell.row, "tamper_silent", s.tamper_silent as f64);
    }
    println!(
        "\n{:<9}{:>7}{:>9}{:>9}{:>9}{:>9}{:>9}{:>9}{:>7}{:>7}{:>8}{:>8}",
        "protocol",
        "evict",
        "ev_rec",
        "ev_det",
        "ev_sil",
        "rec_pts",
        "rec_rec",
        "rec_det",
        "idem",
        "workrg",
        "vq_pts",
        "vq_sil"
    );
    for cell in results.cells() {
        let s = &cell.value.0;
        println!(
            "{:<9}{:>7}{:>9}{:>9}{:>9}{:>9}{:>9}{:>9}{:>7}{:>7}{:>8}{:>8}",
            cell.row,
            s.evict_points,
            s.evict_recovered,
            s.evict_detected,
            s.evict_silent,
            s.recovery_points,
            s.recovery_recovered,
            s.recovery_detected,
            s.idempotence_violations,
            s.work_regressions,
            s.verify_queue_points,
            s.verify_queue_silent
        );
    }
    println!(
        "\n{:<9}{:>9}{:>9}{:>9}{:>9}",
        "protocol", "tam_pts", "tam_det", "tam_heal", "tam_sil"
    );
    for cell in results.cells() {
        let s = &cell.value.0;
        println!(
            "{:<9}{:>9}{:>9}{:>9}{:>9}",
            cell.row, s.tamper_points, s.tamper_detected, s.tamper_healed, s.tamper_silent
        );
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
    f.write_all(doc.as_bytes()).expect("write sweep trace sidecar");
    println!("saved {}", trace_path.display());
}
