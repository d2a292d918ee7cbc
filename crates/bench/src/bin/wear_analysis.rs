//! **Extension** — PCM write-endurance analysis per persistence protocol.
//!
//! Crash-consistency traffic concentrates writes on metadata: strict-style
//! protocols hammer the ancestral tree nodes of hot data, while lazy
//! protocols spread that wear over eviction time. This experiment runs the
//! same workload under each protocol (one parallel grid job per protocol)
//! and reports per-region wear (data, HMACs, counters, tree nodes) from the
//! device's frame-write counters — the "write-friendly" axis SecNVM-style
//! work optimises (paper §1's citation \[42\]).

use amnt_bench::{print_table, ExperimentResult, Grid, HostTimer};
use amnt_core::{
    AmntConfig, AnubisConfig, BmfConfig, ProtocolKind, SecureMemory, SecureMemoryConfig,
    WearSummary,
};

const MIB: u64 = 1024 * 1024;

/// Wear of the four metadata regions after the synthetic write storm.
struct RegionWear {
    data: WearSummary,
    hmacs: WearSummary,
    counters: WearSummary,
    nodes: WearSummary,
}

fn measure(kind: ProtocolKind) -> RegionWear {
    let cfg = SecureMemoryConfig::with_capacity(64 * MIB);
    let mut m = SecureMemory::new(cfg, kind).expect("controller");
    let g = m.geometry().clone();
    let mut t = 0;
    for i in 0..40_000u64 {
        let addr = if i % 4 == 0 {
            ((i * 7919) % 4096) * 4096
        } else {
            (i % 256) * 64
        };
        t = m.write_block(t, addr, &[i as u8; 64]).expect("write");
    }
    let _ = t;
    let data_end = g.data_capacity();
    let ctr_lo = g.counter_addr(0);
    let ctr_hi = ctr_lo + g.counter_blocks() * 64;
    RegionWear {
        data: m.wear_summary_range(0, data_end),
        hmacs: m.wear_summary_range(data_end, ctr_lo),
        counters: m.wear_summary_range(ctr_lo, ctr_hi),
        nodes: m.wear_summary_range(ctr_hi, g.total_size()),
    }
}

fn main() {
    let timer = HostTimer::start();
    let mut result = ExperimentResult::new("wear", "frame writes per region");
    let protocols = [
        ("volatile", ProtocolKind::Volatile),
        ("leaf", ProtocolKind::Leaf),
        ("plp", ProtocolKind::Plp),
        ("strict", ProtocolKind::Strict),
        ("anubis", ProtocolKind::Anubis(AnubisConfig::default())),
        ("bmf", ProtocolKind::Bmf(BmfConfig::default())),
        ("amnt", ProtocolKind::Amnt(AmntConfig::default())),
    ];
    let mut grid: Grid<RegionWear> = Grid::new();
    for (name, kind) in protocols {
        grid.add(name, "wear", move || measure(kind));
    }
    let results = grid.run();

    let mut rows = Vec::new();
    for cell in results.cells() {
        let w = &cell.value;
        for (region, s) in [
            ("data", &w.data),
            ("hmac", &w.hmacs),
            ("counter", &w.counters),
            ("nodes", &w.nodes),
        ] {
            result.push(&cell.row, &format!("{region}_total"), s.total_writes as f64);
            result.push(&cell.row, &format!("{region}_max"), s.max_writes as f64);
        }
        rows.push((
            cell.row.clone(),
            vec![
                w.data.total_writes as f64,
                w.hmacs.total_writes as f64,
                w.counters.total_writes as f64,
                w.nodes.total_writes as f64,
                w.counters.max_writes.max(w.nodes.max_writes) as f64,
            ],
        ));
    }
    print_table(
        "Wear: frame writes per region (40k writes, 64 MiB device)",
        &["data", "hmac", "counter", "nodes", "md max"],
        &rows,
    );
    println!("\nStrict-style protocols multiply metadata wear (nodes column) and concentrate");
    println!("it on the hot path's ancestors (md max); AMNT confines that to subtree misses.");
    result.set_host(&timer, results.workers);
    let path = result.save().expect("save results");
    println!("saved {}", path.display());
}
