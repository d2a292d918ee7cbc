//! Multiprogram interference and the AMNT++ fix (paper §5).
//!
//! Runs the paper's bodytrack+fluidanimate pair on the two-core machine
//! three ways — leaf persistence, AMNT with the stock allocator, and AMNT
//! with the AMNT++ biased allocator — and shows how the modified OS
//! consolidates both processes into one subtree region.
//!
//! ```text
//! cargo run --release --example multiprogram_amnt_plus
//! ```

use midsummer::core::{AmntConfig, ProtocolKind};
use midsummer::sim::{run_pair, with_amnt_plus, MachineConfig, RunLength};
use midsummer::workloads::WorkloadModel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bodytrack = WorkloadModel::by_name("bodytrack").expect("catalogued");
    let fluidanimate = WorkloadModel::by_name("fluidanimate").expect("catalogued");
    let len = RunLength {
        accesses: 60_000,
        warmup: 6_000,
        seed: 7,
    };
    let amnt = AmntConfig::default();

    println!("bodytrack + fluidanimate on the 2-core machine (aged allocator)\n");

    let cfg = MachineConfig::parsec_multi();
    let baseline = run_pair(
        &bodytrack,
        &fluidanimate,
        cfg.clone(),
        ProtocolKind::Volatile,
        len,
    )?;
    let leaf = run_pair(
        &bodytrack,
        &fluidanimate,
        cfg.clone(),
        ProtocolKind::Leaf,
        len,
    )?;
    let plain = run_pair(
        &bodytrack,
        &fluidanimate,
        cfg.clone(),
        ProtocolKind::Amnt(amnt),
        len,
    )?;
    let plus_cfg = with_amnt_plus(cfg, amnt);
    let plus = run_pair(
        &bodytrack,
        &fluidanimate,
        plus_cfg,
        ProtocolKind::Amnt(amnt),
        len,
    )?;

    println!(
        "{:<22}{:>12}{:>14}{:>14}",
        "", "norm cycles", "subtree hit", "transitions"
    );
    for (name, r) in [("leaf", &leaf), ("amnt", &plain), ("amnt++", &plus)] {
        println!(
            "{:<22}{:>12.3}{:>13.1}%{:>14}",
            name,
            r.normalized_to(&baseline),
            r.subtree_hit_rate * 100.0,
            r.subtree_transitions
        );
    }
    println!(
        "\nAMNT++ ran {} free-list restructure(s); allocator instructions {} vs {} (stock),",
        plus.restructures, plus.os_instructions, plain.os_instructions
    );
    println!("all off the allocation critical path — the whole point of the co-design.");
    Ok(())
}
