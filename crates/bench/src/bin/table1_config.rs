//! **Table 1** — System configuration.
//!
//! Prints the active configuration (this repository's defaults) next to the
//! paper's Table 1 so discrepancies are visible at a glance.

use amnt_core::{AmntConfig, SecureMemoryConfig};
use amnt_sim::MachineConfig;

fn main() {
    let sec = SecureMemoryConfig::paper_default();
    let amnt = AmntConfig::default();
    let single = MachineConfig::parsec_single();
    let geometry = amnt_bmt::BmtGeometry::new(sec.data_capacity).expect("valid");

    println!("=== Table 1: system configuration (paper | this repo) ===\n");
    println!("Security configuration");
    println!(
        "  BMT                      8-ary integrity nodes | {}-ary",
        amnt_bmt::TREE_ARITY
    );
    println!(
        "                           64-ary counters       | {}-ary",
        amnt_bmt::MINORS_PER_BLOCK
    );
    println!(
        "  BMT node levels          8-level (SGX-like)    | {} node levels + counter level",
        geometry.bottom_level()
    );
    println!(
        "  Metadata cache           64kB, 2-cycle         | {}kB, {}-cycle",
        sec.metadata_cache.size_bytes / 1024,
        sec.timing.metadata_cache
    );
    println!(
        "  AMNT                     64 writes/interval    | {} writes/interval",
        amnt.interval_writes
    );
    println!(
        "                           subtree level 3       | level {} ({} regions of {} MiB)",
        amnt.subtree_level,
        geometry.level_size(amnt.subtree_level),
        geometry.coverage_bytes(amnt.subtree_level) / 1024 / 1024
    );
    println!(
        "                           768-bit history buffer| {}-bit ({} entries)",
        amnt.history_entries * 2 * 6,
        amnt.history_entries
    );
    println!("\nDDR-based PCM configuration");
    println!(
        "  Capacity                 8GB PCM               | {}GB",
        sec.data_capacity / (1024 * 1024 * 1024)
    );
    println!(
        "  Latency                  305ns read, 391ns wr  | {} / {} cycles @2GHz ({}ns / {}ns)",
        sec.timing.pcm_read,
        sec.timing.pcm_write,
        sec.timing.pcm_read / 2,
        sec.timing.pcm_write / 2
    );
    println!("\nProcessor (single-program runs)");
    println!(
        "  L1D 32kB, L2 1MB         (paper: +48kB L1I)    | L1D {}kB, L2 {}kB, {} core(s)",
        single.l1d.size_bytes / 1024,
        single.l2.size_bytes / 1024,
        single.cores
    );
    println!("  (Instruction fetch is not traced; no L1I model — see DESIGN.md.)");
}
