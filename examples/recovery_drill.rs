//! The administrator's dial: subtree level vs recovery time (paper §6.7).
//!
//! A service provider picks the AMNT subtree-root level in the BIOS to
//! bound worst-case recovery time. This drill runs the same in-memory
//! workload at each level, pulls the power, performs the *functional*
//! recovery, and prints measured recovery traffic next to the analytical
//! multi-terabyte projection from Table 4.
//!
//! ```text
//! cargo run --release --example recovery_drill
//! ```

use midsummer::core::{AmntConfig, ProtocolKind, RecoveryModel, SecureMemory, SecureMemoryConfig};

const MIB: u64 = 1024 * 1024;
const TB: f64 = 1024.0 * 1024.0 * 1024.0 * 1024.0;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = RecoveryModel::default();
    println!("AMNT recovery drill on a 128 MiB device; projections for a 2 TB SCM.\n");
    println!(
        "{:<10}{:>14}{:>12}{:>14}{:>16}{:>18}",
        "level", "runtime cyc", "hit rate", "recovery B", "measured ms", "2TB projection ms"
    );
    for level in 2..=5u32 {
        let cfg = SecureMemoryConfig::with_capacity(128 * MIB);
        let kind = ProtocolKind::Amnt(AmntConfig::at_level(level));
        let mut mem = SecureMemory::new(cfg, kind)?;
        let mut t = 0;
        for i in 0..30_000u64 {
            let addr = if i % 5 == 0 {
                ((i * 6151) % 16384) * 4096 // cold scatter
            } else {
                (i % 256) * 64 // hot region
            };
            t = mem.write_block(t, addr, &[i as u8; 64])?;
        }
        let runtime = t;
        let hit = mem.stats().subtree_hit_rate();
        mem.crash();
        let report = mem.recover()?;
        assert!(report.verified);
        println!(
            "L{:<9}{:>14}{:>11.1}%{:>14}{:>16.4}{:>18.2}",
            level,
            runtime,
            hit * 100.0,
            report.bytes_read,
            model.measured_ms(&report),
            model.recovery_ms(kind, 2.0 * TB)
        );
    }
    println!(
        "\nDeeper levels: less stale metadata (faster recovery) but a smaller fast\n\
         subtree (more strict-persistence writes at runtime) — the paper's trade-off."
    );
    Ok(())
}
