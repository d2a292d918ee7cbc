//! Simulated-cycle ablations for the design choices DESIGN.md §4 calls out:
//! trusted-ancestor caching (metadata cache size), the AMNT history-buffer
//! interval and capacity, the write-queue depth, and the split-counter
//! overflow mechanism. Each ablation's sweep points are independent and run
//! in parallel through the grid executor.
//!
//! ```text
//! cargo run --release -p amnt-bench --bin ablations
//! ```

use amnt_bench::{print_table, ExperimentResult, Grid, HostTimer};
use amnt_core::{AmntConfig, ProtocolKind, SecureMemory, SecureMemoryConfig, WriteQueueConfig};
use amnt_sim::{run_single, MachineConfig, RunLength, SimReport};
use amnt_workloads::WorkloadModel;

const MIB: u64 = 1024 * 1024;

fn len() -> RunLength {
    RunLength {
        accesses: 60_000,
        warmup: 6_000,
        seed: 3,
    }
}

/// Metadata cache size: the trusted-ancestor optimisation lives or dies by
/// this (paper §2.1: performance is tied to metadata cache efficacy).
fn metadata_cache_ablation(result: &mut ExperimentResult) {
    let model = WorkloadModel::by_name("canneal").expect("catalogued");
    let mut grid: Grid<SimReport> = Grid::new();
    for kb in [4usize, 16, 64, 256] {
        grid.add("metadata_cache", format!("{kb}"), move || {
            let mut cfg = MachineConfig::parsec_single();
            cfg.secure = cfg.secure.with_metadata_cache_bytes(kb * 1024);
            run_single(&model, cfg, ProtocolKind::Leaf, len()).expect("run")
        });
    }
    let mut rows = Vec::new();
    for cell in grid.run().cells() {
        let (kb, r) = (&cell.col, &cell.value);
        result.push("metadata_cache", &format!("{kb}kB_cycles"), r.cycles as f64);
        result.push(
            "metadata_cache",
            &format!("{kb}kB_hit"),
            r.metadata_hit_rate,
        );
        rows.push((
            format!("md cache {kb} kB"),
            vec![r.cycles as f64 / r.accesses as f64, r.metadata_hit_rate],
        ));
    }
    print_table(
        "Ablation: metadata cache size (canneal, leaf)",
        &["cyc/access", "md hit rate"],
        &rows,
    );
}

/// AMNT tracking-interval length (Table 1 default: 64 writes).
fn interval_ablation(result: &mut ExperimentResult) {
    let model = WorkloadModel::by_name("fluidanimate").expect("catalogued");
    let mut grid: Grid<SimReport> = Grid::new();
    for interval in [8u32, 32, 64, 256, 1024] {
        grid.add("interval", format!("{interval}"), move || {
            let cfg = MachineConfig::parsec_single();
            let amnt = AmntConfig {
                interval_writes: interval,
                ..AmntConfig::default()
            };
            run_single(&model, cfg, ProtocolKind::Amnt(amnt), len()).expect("run")
        });
    }
    let mut rows = Vec::new();
    for cell in grid.run().cells() {
        let (interval, r) = (&cell.col, &cell.value);
        result.push("interval", &format!("{interval}_cycles"), r.cycles as f64);
        result.push(
            "interval",
            &format!("{interval}_transitions"),
            r.subtree_transitions as f64,
        );
        rows.push((
            format!("interval {interval}"),
            vec![
                r.cycles as f64 / r.accesses as f64,
                r.subtree_hit_rate,
                r.subtree_transitions as f64,
            ],
        ));
    }
    print_table(
        "Ablation: AMNT tracking interval (fluidanimate)",
        &["cyc/access", "subtree hit", "transitions"],
        &rows,
    );
}

/// History-buffer capacity (Table 1 default: 64 entries = 96 B).
fn history_capacity_ablation(result: &mut ExperimentResult) {
    let model = WorkloadModel::by_name("bodytrack").expect("catalogued");
    let mut grid: Grid<SimReport> = Grid::new();
    for entries in [4usize, 16, 64, 256] {
        grid.add("history", format!("{entries}"), move || {
            let cfg = MachineConfig::parsec_single();
            let amnt = AmntConfig {
                history_entries: entries,
                ..AmntConfig::default()
            };
            run_single(&model, cfg, ProtocolKind::Amnt(amnt), len()).expect("run")
        });
    }
    let mut rows = Vec::new();
    for cell in grid.run().cells() {
        let entries: usize = cell.col.parse().expect("numeric label");
        let r = &cell.value;
        result.push("history", &format!("{entries}_hit"), r.subtree_hit_rate);
        rows.push((
            format!("{entries} entries ({} B)", entries * 2 * 6 / 8),
            vec![r.subtree_hit_rate, r.subtree_transitions as f64],
        ));
    }
    print_table(
        "Ablation: history-buffer capacity (bodytrack)",
        &["subtree hit", "transitions"],
        &rows,
    );
}

/// Write-queue depth under strict persistence (back-pressure model).
fn queue_depth_ablation(result: &mut ExperimentResult) {
    let model = WorkloadModel::by_name("xz").expect("catalogued");
    let mut grid: Grid<SimReport> = Grid::new();
    for depth in [4usize, 16, 32, 128] {
        grid.add("queue_depth", format!("{depth}"), move || {
            let mut cfg = MachineConfig::parsec_single();
            cfg.secure.write_queue = WriteQueueConfig { banks: 8, depth };
            run_single(&model, cfg, ProtocolKind::Strict, len()).expect("run")
        });
    }
    let mut rows = Vec::new();
    for cell in grid.run().cells() {
        let (depth, r) = (&cell.col, &cell.value);
        result.push("queue_depth", &format!("{depth}_cycles"), r.cycles as f64);
        rows.push((
            format!("depth {depth}"),
            vec![
                r.cycles as f64 / r.accesses as f64,
                r.snapshot.timeline.queue_stall_cycles as f64 / r.accesses as f64,
            ],
        ));
    }
    print_table(
        "Ablation: persist-queue depth (xz, strict)",
        &["cyc/access", "stall/access"],
        &rows,
    );
}

/// Minor-counter width: hammer one block and count page re-encryptions.
fn overflow_ablation(result: &mut ExperimentResult) {
    let cfg = SecureMemoryConfig::with_capacity(4 * MIB);
    let mut m = SecureMemory::new(cfg, ProtocolKind::Leaf).expect("controller");
    let mut t = 0;
    for i in 0..2000u64 {
        t = m.write_block(t, 0x1000, &[i as u8; 64]).expect("write");
    }
    let overflows = m.stats().counter_overflows;
    println!("\n=== Ablation: split-counter overflow ===");
    println!("2000 writes to one block -> {overflows} page re-encryptions");
    println!("(7-bit minors overflow every 128 writes: expected ~15)");
    result.push(
        "overflow",
        "reencryptions_per_2000_writes",
        overflows as f64,
    );
}

/// Trusted-ancestor caching: the standard optimisation DESIGN.md §4.2 marks
/// for ablation — cached nodes terminate verification walks early.
fn trusted_ancestor_ablation(result: &mut ExperimentResult) {
    let model = WorkloadModel::by_name("mcf").expect("catalogued");
    let mut grid: Grid<SimReport> = Grid::new();
    for caching in [true, false] {
        grid.add(
            "trusted_ancestor",
            if caching { "on" } else { "off" },
            move || {
                let mut cfg = MachineConfig::parsec_single();
                cfg.secure.trusted_ancestor_caching = caching;
                run_single(&model, cfg, ProtocolKind::Leaf, len()).expect("run")
            },
        );
    }
    let mut rows = Vec::new();
    for cell in grid.run().cells() {
        let r = &cell.value;
        result.push(
            "trusted_ancestor",
            &format!("{}_cycles", cell.col),
            r.cycles as f64,
        );
        rows.push((
            format!("caching {}", cell.col),
            vec![
                r.cycles as f64 / r.accesses as f64,
                r.snapshot.controller.hashes as f64 / r.accesses as f64,
            ],
        ));
    }
    print_table(
        "Ablation: trusted-ancestor caching (mcf, leaf)",
        &["cyc/access", "hashes/access"],
        &rows,
    );
}

fn main() {
    let timer = HostTimer::start();
    let mut result = ExperimentResult::new("ablations", "design-choice ablations");
    trusted_ancestor_ablation(&mut result);
    metadata_cache_ablation(&mut result);
    interval_ablation(&mut result);
    history_capacity_ablation(&mut result);
    queue_depth_ablation(&mut result);
    overflow_ablation(&mut result);
    result.set_host(&timer, amnt_bench::exec::worker_count());
    let path = result.save().expect("save results");
    println!("\nsaved {}", path.display());
}
