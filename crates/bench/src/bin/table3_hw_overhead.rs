//! **Table 3** — Hardware overheads of the state-of-the-art.
//!
//! Analytical: additional non-volatile on-chip, volatile on-chip and
//! in-memory storage for BMF, Anubis and AMNT with the 64 kB metadata
//! cache.

use amnt_bench::{ExperimentResult, HostTimer};
use amnt_core::{hardware_overhead, AmntConfig, AnubisConfig, BmfConfig, ProtocolKind};

fn fmt_bytes(b: u64) -> String {
    if b == 0 {
        "-".to_string()
    } else if b >= 1024 && b.is_multiple_of(1024) {
        format!("{} kB", b / 1024)
    } else if b >= 1024 {
        format!("{:.1} kB", b as f64 / 1024.0)
    } else {
        format!("{b} B")
    }
}

fn main() {
    let timer = HostTimer::start();
    let cache = 64 * 1024;
    let mut result = ExperimentResult::new("table3", "additional hardware bytes");
    println!("=== Table 3: hardware overheads (64 kB metadata cache) ===\n");
    println!(
        "{:<8}{:>14}{:>16}{:>14}",
        "", "NV on-chip", "Vol. on-chip", "In-memory"
    );
    let entries = [
        ("BMF", ProtocolKind::Bmf(BmfConfig::default())),
        ("Anubis", ProtocolKind::Anubis(AnubisConfig::default())),
        ("AMNT", ProtocolKind::Amnt(AmntConfig::default())),
    ];
    for (name, kind) in entries {
        let oh = hardware_overhead(&kind, cache);
        println!(
            "{:<8}{:>14}{:>16}{:>14}",
            name,
            fmt_bytes(oh.nv_on_chip),
            fmt_bytes(oh.volatile_on_chip),
            fmt_bytes(oh.in_memory)
        );
        result.push(name, "nv_on_chip", oh.nv_on_chip as f64);
        result.push(name, "volatile_on_chip", oh.volatile_on_chip as f64);
        result.push(name, "in_memory", oh.in_memory as f64);
    }
    println!("\nPaper values: BMF 4kB / 768B / -;  Anubis 64B / 37kB / 37kB;  AMNT 64B / 96B / -");
    result.set_host(&timer, 1);
    let path = result.save().expect("save results");
    println!("saved {}", path.display());
}
