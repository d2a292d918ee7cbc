//! Property-based tests for the PCM device model: seeded deterministic
//! loops over `amnt_prng` (replacing proptest, which the offline workspace
//! cannot depend on). Failures replay exactly — rerun the same test.

use amnt_nvm::{Nvm, NvmConfig};
use amnt_prng::Rng;
use std::collections::HashMap;

/// A span of 1..200 random bytes in the first 64 KiB. If `sparse`, each
/// 8 B device word it covers is zero with probability 3/4, or, in one span
/// of four, every byte is zero, clearing words and whole lines.
fn draw_span(rng: &mut Rng, sparse: bool) -> (u64, Vec<u8>) {
    let addr = rng.gen_range(0..1 << 16);
    let mut data = vec![0u8; rng.gen_range_usize(1..200)];
    rng.fill_bytes(&mut data);
    if sparse {
        let clear = rng.gen_bool(0.25);
        let mut zero = clear;
        for (at, byte) in (addr..).zip(&mut data) {
            if !clear && (at == addr || at % 8 == 0) {
                zero = rng.gen_bool(0.75);
            }
            if zero {
                *byte = 0;
            }
        }
    }
    (addr, data)
}

/// The device is a faithful byte store under arbitrary overlapping writes,
/// of random bytes and of mostly-zero words, modelled against a reference
/// map.
#[test]
fn device_matches_reference_map() {
    let mut rng = Rng::seed_from_u64(0x4E_0001);
    for sparse in (0..96).map(|round| round >= 48) {
        let mut writes = Vec::new();
        for _ in 0..rng.gen_range(1..40) {
            writes.push(draw_span(&mut rng, sparse));
        }
        let mut nvm = Nvm::new(NvmConfig::gib(1));
        let mut reference: HashMap<u64, u8> = HashMap::new();
        for (addr, data) in &writes {
            nvm.write_bytes(*addr, data).unwrap();
            for (i, &b) in data.iter().enumerate() {
                reference.insert(addr + i as u64, b);
            }
        }
        // Spot-check every written byte plus its neighbourhood.
        for (addr, data) in &writes {
            let mut buf = vec![0u8; data.len() + 2];
            let start = addr.saturating_sub(1);
            nvm.read_bytes(start, &mut buf).unwrap();
            for (i, got) in buf.iter().enumerate() {
                let a = start + i as u64;
                let want = reference.get(&a).copied().unwrap_or(0);
                assert_eq!(*got, want, "byte at {a:#x}");
            }
        }
    }
}

/// Crashes never change media contents, regardless of history.
#[test]
fn crash_is_a_media_noop() {
    let mut rng = Rng::seed_from_u64(0x4E_0002);
    for _ in 0..48 {
        let writes: Vec<(u64, u8)> = (0..rng.gen_range(1..30))
            .map(|_| (rng.gen_range(0..1 << 14), (rng.next_u64() & 0xff) as u8))
            .collect();
        let crashes = rng.gen_range(1..4) as u8;
        let mut nvm = Nvm::new(NvmConfig::gib(1));
        for (addr, byte) in &writes {
            nvm.write_bytes(*addr, &[*byte]).unwrap();
        }
        let mut snapshot = Vec::new();
        for (addr, _) in &writes {
            let mut b = [0u8];
            nvm.read_bytes(*addr, &mut b).unwrap();
            snapshot.push(b[0]);
        }
        for _ in 0..crashes {
            nvm.crash();
        }
        for ((addr, _), want) in writes.iter().zip(snapshot) {
            let mut b = [0u8];
            nvm.read_bytes(*addr, &mut b).unwrap();
            assert_eq!(b[0], want);
        }
        assert_eq!(nvm.generation(), crashes as u64);
    }
}

/// Block reads and byte reads agree.
#[test]
fn block_and_byte_views_agree() {
    let mut rng = Rng::seed_from_u64(0x4E_0003);
    for _ in 0..128 {
        let block = rng.gen_range(0..256);
        let data: [u8; 64] = rng.gen_array();
        let mut nvm = Nvm::new(NvmConfig::gib(1));
        nvm.write_block(block * 64, &data).unwrap();
        let mut bytes = [0u8; 64];
        nvm.read_bytes(block * 64, &mut bytes).unwrap();
        assert_eq!(bytes, nvm.read_block(block * 64).unwrap());
        assert_eq!(bytes, data);
    }
}
