//! Quickstart: integrity-protected, crash-consistent memory in ~40 lines.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use midsummer::core::{AmntConfig, IntegrityError, ProtocolKind, SecureMemory, SecureMemoryConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 16 MiB protected region under the AMNT protocol (Table 1 defaults).
    let config = SecureMemoryConfig::with_capacity(16 * 1024 * 1024);
    let mut memory = SecureMemory::new(config, ProtocolKind::Amnt(AmntConfig::default()))?;

    // Write a few cache lines; each write bumps its split counter,
    // re-encrypts, re-MACs, and updates the Bonsai Merkle Tree.
    let mut t = 0;
    for i in 0..1000u64 {
        let addr = (i % 128) * 64;
        t = memory.write_block(t, addr, &[i as u8; 64])?;
    }
    println!(
        "wrote 1000 blocks; subtree hit rate {:.1}%, {} persists to PCM",
        memory.stats().subtree_hit_rate() * 100.0,
        memory.stats().persist_writes
    );

    // Reads are decrypted and verified against the on-chip root of trust.
    // The last write to address 0 was iteration 896 (896 % 128 == 0).
    let (data, done) = memory.read_block(t, 0)?;
    assert_eq!(data, [896u64 as u8; 64]);
    t = done;

    // Pull the power: volatile metadata is lost; the media survives.
    memory.crash();
    let report = memory.recover()?;
    println!(
        "crash + recovery: {} bytes re-read, {} nodes recomputed, verified = {}",
        report.bytes_read, report.nodes_recomputed, report.verified
    );

    // Data is intact and still verifies after the crash.
    let (data, _) = memory.read_block(t, 0)?;
    assert_eq!(data, [896u64 as u8; 64]);

    // Tampering with the device trips verification. `read_block_verified`
    // drains the lazy verify queue inline, so the MAC verdict is immediate
    // (a plain `read_block` may defer it to the next batch drain).
    memory.nvm_mut().tamper_flip_bit(0, 0);
    match memory.read_block_verified(t, 0) {
        Err(IntegrityError::DataMac { addr }) => {
            println!("tamper detected at {addr:#x}, as it should be");
        }
        other => panic!("tampering was not detected: {other:?}"),
    }
    Ok(())
}
