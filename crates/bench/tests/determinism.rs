//! Executor determinism: the parallel experiment grid must produce the
//! same JSON artifact — byte for byte — at any worker count. This is the
//! contract that lets `AMNT_JOBS` be a pure speed knob (DESIGN.md's
//! executor section): simulations are seeded and self-contained, workers
//! only change scheduling, and results land by declaration index.

use amnt_bench::{ExperimentResult, Grid};
use amnt_core::fault::{run_sweep, run_sweep_traced, sweep_protocols};
use amnt_core::{AmntConfig, FaultSweepConfig, ProtocolKind, SweepSummary};
use amnt_sim::{run_single, MachineConfig, RunLength, SimReport};
use amnt_trace::{chrome_document, metrics_document, TraceConfig, TraceReport};
use amnt_workloads::WorkloadModel;

const MIB: u64 = 1024 * 1024;

/// A miniature fig4-style grid: three workloads × three protocols of raw
/// simulation runs, normalized to each row's volatile baseline. The
/// verify-queue depth is a parameter so its byte-identity contract (the
/// `SecureMemoryConfig::verify_queue` depth is a pure host-speed knob) is
/// pinned here too.
fn small_grid(verify_queue: usize) -> Grid<SimReport> {
    let len = RunLength {
        accesses: 8_000,
        warmup: 800,
        seed: 7,
    };
    let mut grid: Grid<SimReport> = Grid::new();
    for name in ["fluidanimate", "canneal", "lbm"] {
        let model = WorkloadModel::by_name(name).expect("catalogued");
        for (col, protocol) in [
            ("volatile", ProtocolKind::Volatile),
            ("leaf", ProtocolKind::Leaf),
            ("amnt", ProtocolKind::Amnt(AmntConfig::at_level(2))),
        ] {
            grid.add(name, col, move || {
                let mut cfg = MachineConfig::parsec_single().scaled_down(128 * MIB);
                cfg.secure.verify_queue = verify_queue;
                run_single(&model, cfg, protocol, len).expect(col)
            });
        }
    }
    grid
}

fn render(workers: usize, verify_queue: usize) -> String {
    let results = small_grid(verify_queue).run_with(workers);
    assert_eq!(results.workers, workers);
    let mut result = ExperimentResult::new("determinism", "cycles normalized to volatile");
    results.render_normalized("volatile", &["leaf", "amnt"], &mut result, true);
    result.to_json()
}

#[test]
fn serial_and_parallel_artifacts_are_byte_identical() {
    let serial = render(1, 8);
    let parallel = render(4, 8);
    assert!(!serial.is_empty() && serial.contains("\"cells\""));
    assert_eq!(serial, parallel, "AMNT_JOBS must be a pure speed knob");
}

#[test]
fn odd_worker_counts_match_too() {
    // Worker counts that don't divide the job count exercise the
    // work-stealing tail; output must still be identical.
    let reference = render(1, 8);
    for workers in [2, 3, 9] {
        assert_eq!(reference, render(workers, 8), "workers={workers}");
    }
}

#[test]
fn verify_queue_depth_never_changes_the_artifact() {
    // The lazy verify queue batches host-side MAC work; every deferred
    // check is still *charged* (stats and cycles) at enqueue, so the
    // artifact must be byte-identical between eager verification and any
    // queue depth.
    let eager = render(1, 0);
    for depth in [1, 8, 32] {
        assert_eq!(
            eager,
            render(1, depth),
            "verify_queue={depth} changed the artifact"
        );
    }
}

/// A miniature fault-sweep grid: every recoverable protocol swept at a
/// small op count, nested recovery-fault pass included — the same cells
/// the `fault_sweep` bin emits, scaled down.
fn fault_grid() -> Grid<SweepSummary> {
    let cfg = FaultSweepConfig {
        ops: 8,
        ..FaultSweepConfig::default()
    };
    let mut grid: Grid<SweepSummary> = Grid::new();
    for (name, kind) in sweep_protocols() {
        let cfg = cfg.clone();
        grid.add(name, "sweep", move || {
            run_sweep(kind, &cfg).unwrap_or_else(|e| panic!("{name}: sweep setup failed: {e}"))
        });
    }
    grid
}

fn render_fault(workers: usize) -> String {
    let results = fault_grid().run_with(workers);
    assert_eq!(results.workers, workers);
    let mut result = ExperimentResult::new(
        "fault_sweep",
        "crash-point exploration outcomes per protocol",
    );
    for cell in results.cells() {
        for (col, value) in cell.value.columns() {
            result.push(&cell.row, col, value as f64);
        }
    }
    result.to_json()
}

#[test]
fn fault_sweep_artifact_is_byte_identical_across_worker_counts() {
    // The fault-sweep artifact must be a pure function of (protocol, ops):
    // `AMNT_JOBS` may only change scheduling, never a single byte of the
    // JSON — including the nested recovery-fault and eviction-class cells.
    let serial = render_fault(1);
    assert!(serial.contains("idempotence_violations"));
    let parallel = render_fault(4);
    assert_eq!(
        serial, parallel,
        "fault_sweep artifact varied with worker count"
    );
}

/// Renders both trace sidecar documents (metrics + Perfetto) for a small
/// traced simulation grid — the nested-span sidecars, not just the main
/// artifact.
fn render_trace_sidecars(workers: usize) -> (String, String) {
    let len = RunLength {
        accesses: 6_000,
        warmup: 600,
        seed: 11,
    };
    let mut grid: Grid<SimReport> = Grid::new();
    for name in ["canneal", "fluidanimate"] {
        let model = WorkloadModel::by_name(name).expect("catalogued");
        for (col, protocol) in [
            ("leaf", ProtocolKind::Leaf),
            ("amnt", ProtocolKind::Amnt(AmntConfig::at_level(2))),
        ] {
            grid.add(name, col, move || {
                let mut cfg = MachineConfig::parsec_single().scaled_down(128 * MIB);
                cfg.trace = Some(TraceConfig::default());
                run_single(&model, cfg, protocol, len).expect(col)
            });
        }
    }
    let results = grid.run_with(workers);
    let metric_cells: Vec<(String, String, &TraceReport)> = results
        .cells()
        .iter()
        .map(|c| {
            (
                c.row.clone(),
                c.col.clone(),
                c.value.trace.as_ref().expect("traced"),
            )
        })
        .collect();
    let chrome_cells: Vec<(String, &TraceReport)> = metric_cells
        .iter()
        .map(|(row, col, t)| (format!("{row}/{col}"), *t))
        .collect();
    (
        metrics_document("determinism_trace", &metric_cells),
        chrome_document(&chrome_cells),
    )
}

#[test]
fn trace_sidecars_are_byte_identical_across_worker_counts() {
    // The span-stack harvest (nested read/meta-fetch/verify frames) rides
    // in both sidecars; neither may vary with scheduling.
    let (metrics, chrome) = render_trace_sidecars(1);
    assert!(
        chrome.contains("\"parent_id\""),
        "Perfetto doc lost span nesting"
    );
    for workers in [2, 4] {
        let (m, c) = render_trace_sidecars(workers);
        assert_eq!(metrics, m, "metrics sidecar varied at workers={workers}");
        assert_eq!(chrome, c, "perfetto sidecar varied at workers={workers}");
    }
}

/// Renders the fault-sweep *trace* sidecar (per-scenario strike ordinals,
/// recovery phase durations, touched-closure sizes) for every protocol.
fn render_sweep_trace(workers: usize) -> String {
    let cfg = FaultSweepConfig {
        ops: 6,
        ..FaultSweepConfig::default()
    };
    let mut grid: Grid<(SweepSummary, TraceReport)> = Grid::new();
    for (name, kind) in sweep_protocols() {
        let cfg = cfg.clone();
        grid.add(name, "sweep", move || {
            run_sweep_traced(kind, &cfg)
                .unwrap_or_else(|e| panic!("{name}: traced sweep failed: {e}"))
        });
    }
    let results = grid.run_with(workers);
    let cells: Vec<(String, String, &TraceReport)> = results
        .cells()
        .iter()
        .map(|c| (c.row.clone(), c.col.clone(), &c.value.1))
        .collect();
    metrics_document("fault_sweep", &cells)
}

#[test]
fn sweep_trace_sidecar_is_byte_identical_across_worker_counts() {
    let serial = render_sweep_trace(1);
    assert!(
        serial.contains("recovery.scan"),
        "sweep sidecar lost phase durations"
    );
    assert!(
        serial.contains("sweep.strike.clean"),
        "sweep sidecar lost strike ordinals"
    );
    for workers in [2, 4] {
        assert_eq!(
            serial,
            render_sweep_trace(workers),
            "sweep trace sidecar varied at workers={workers}"
        );
    }
}
