//! Hybrid SCM–DRAM machine (paper §7.3, OMT-style).
//!
//! One physical address space, two regimes: a volatile BMT protects the
//! DRAM range (fast, erased at power failure), AMNT protects the SCM range
//! (crash consistent, bounded recovery). The memory controller needs only
//! the partition boundary and one extra volatile root register.
//!
//! ```text
//! cargo run --release --example hybrid_scm_dram
//! ```

use midsummer::core::{HybridConfig, HybridMemory, Partition};

const MIB: u64 = 1024 * 1024;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 8 MiB of DRAM at [0, 8M), 32 MiB of SCM above it.
    let mut mem = HybridMemory::new(HybridConfig::new(8 * MIB, 32 * MIB))?;
    let scm_base = 8 * MIB;
    assert_eq!(mem.partition_of(0x1000), Some(Partition::Dram));
    assert_eq!(mem.partition_of(scm_base + 0x1000), Some(Partition::Scm));
    // Past both partitions is a typed error, never a panic.
    assert_eq!(mem.partition_of(scm_base + 32 * MIB), None);
    assert!(mem.read_block(0, scm_base + 32 * MIB).is_err());

    // A scratch buffer in DRAM and a durable log in SCM.
    let mut t = 0;
    for i in 0..512u64 {
        t = mem.write_block(t, (i % 64) * 64, &[0xAA; 64])?; // DRAM scratch
        let mut entry = [0u8; 64];
        entry[..8].copy_from_slice(&i.to_le_bytes());
        t = mem.write_block(t, scm_base + i * 64, &entry)?; // SCM log
    }

    // Latency difference is visible at the controller level.
    let (_, dram_done) = mem.read_block(t, 63 * 64)?;
    let (_, scm_done) = mem.read_block(t, scm_base + 511 * 64)?;
    println!(
        "cold-ish read latencies: DRAM {} cycles, SCM {} cycles",
        dram_done - t,
        scm_done - t
    );
    println!(
        "SCM engine subtree hit rate: {:.1}%",
        mem.scm().stats().subtree_hit_rate() * 100.0
    );

    // Power failure: DRAM evaporates, the SCM log survives and verifies.
    let report = mem.crash_and_recover()?;
    println!(
        "power failure: SCM recovered ({} bytes re-read), verified = {}",
        report.bytes_read, report.verified
    );
    let (scratch, done) = mem.read_block(t, 0)?;
    assert_eq!(scratch, [0u8; 64], "DRAM is empty after power failure");
    let (entry, _) = mem.read_block(done, scm_base + 511 * 64)?;
    assert_eq!(
        u64::from_le_bytes(entry[..8].try_into()?),
        511,
        "SCM log intact"
    );
    println!("DRAM scratch gone, SCM log intact — exactly the hybrid contract.");
    Ok(())
}
