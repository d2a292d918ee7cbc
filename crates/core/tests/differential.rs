//! Differential and bounded-exhaustive testing.
//!
//! * **Differential oracle:** every persistence protocol must be
//!   functionally identical — same trace, same read-back — because they
//!   differ only in *when* metadata persists, never in what data means.
//!   The hand-built trace covers targeted shapes (overflow hammers, page
//!   strides); the seeded traces sweep broader random shapes against the
//!   [`UntimedMemory`] lockstep oracle.
//! * **Bounded-exhaustive crash sweep:** for a fixed trace, crash after
//!   *every* prefix and prove recovery + full read-back each time. This is
//!   the strongest crash-consistency evidence short of a model checker.

use amnt_core::{
    AmntConfig, AnubisConfig, BmfConfig, OsirisConfig, ProtocolKind, SecureMemory,
    SecureMemoryConfig, UntimedMemory, BLOCK_SIZE,
};
use amnt_prng::Rng;
use std::collections::BTreeMap;

const MIB: u64 = 1024 * 1024;

fn protocols() -> Vec<ProtocolKind> {
    vec![
        ProtocolKind::Volatile,
        ProtocolKind::Strict,
        ProtocolKind::Leaf,
        ProtocolKind::Plp,
        ProtocolKind::Osiris(OsirisConfig { stop_loss: 3 }),
        ProtocolKind::Anubis(AnubisConfig { stop_loss: 3 }),
        ProtocolKind::Bmf(BmfConfig {
            capacity: 16,
            maintenance_interval: 16,
            prune_threshold: 4,
        }),
        ProtocolKind::Amnt(AmntConfig {
            subtree_level: 2,
            interval_writes: 8,
            history_entries: 8,
        }),
    ]
}

/// A deterministic mixed trace: hot hammering, page-crossing strides, a
/// counter-overflow run, and scattered cold writes.
fn trace() -> Vec<(u64, u8)> {
    let mut ops = Vec::new();
    for i in 0..600u64 {
        let addr = match i % 5 {
            0 => (i % 16) * 64,            // hot block set
            1 => 4096 + (i % 64) * 64,     // one full page
            2 => ((i * 37) % 512) * 4096,  // page-scattered
            3 => 8192,                     // overflow hammer
            _ => 2 * MIB + (i % 128) * 64, // second arena
        };
        ops.push((addr, (i % 251) as u8));
    }
    ops
}

#[test]
fn all_protocols_are_functionally_identical() {
    let ops = trace();
    let mut reference: Option<Vec<[u8; 64]>> = None;
    for kind in protocols() {
        let cfg = SecureMemoryConfig::with_capacity(8 * MIB);
        let mut m = SecureMemory::new(cfg, kind).expect("controller");
        let mut t = 0;
        for &(addr, byte) in &ops {
            t = m
                .write_block(t, addr, &[byte; 64])
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
        }
        // Read back every distinct address, in sorted order.
        let mut addrs: Vec<u64> = ops.iter().map(|&(a, _)| a).collect();
        addrs.sort_unstable();
        addrs.dedup();
        let mut view = Vec::with_capacity(addrs.len());
        for addr in addrs {
            let (data, done) = m
                .read_block(t, addr)
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            view.push(data);
            t = done;
        }
        match &reference {
            None => reference = Some(view),
            Some(r) => assert_eq!(r, &view, "{kind} diverged from the functional reference"),
        }
    }
}

/// A seeded random trace over an 8 MiB arena: mostly a 64-block hot set,
/// with cold writes scattered across the whole space and full random block
/// payloads (not the repeated-byte patterns of the hand-built trace).
fn seeded_trace(seed: u64, len: usize) -> Vec<(u64, [u8; BLOCK_SIZE])> {
    let mut rng = Rng::seed_from_u64(seed);
    let blocks = 8 * MIB / BLOCK_SIZE as u64;
    (0..len)
        .map(|_| {
            let addr = if rng.gen_bool(0.7) {
                rng.gen_range(0..64) * BLOCK_SIZE as u64
            } else {
                rng.gen_range(0..blocks) * BLOCK_SIZE as u64
            };
            (addr, rng.gen_array::<BLOCK_SIZE>())
        })
        .collect()
}

#[test]
fn seeded_traces_match_the_untimed_oracle_across_protocols() {
    // Four distinct seeded traces, every protocol, every touched address
    // compared byte-for-byte against the lockstep untimed oracle.
    for seed in [0xD1FF_0001u64, 0xD1FF_0002, 0xD1FF_0003, 0xD1FF_0004] {
        let ops = seeded_trace(seed, 220);
        let mut oracle = UntimedMemory::new();
        for &(addr, value) in &ops {
            oracle.write_block(addr, &value);
        }
        for kind in protocols() {
            let cfg = SecureMemoryConfig::with_capacity(8 * MIB);
            let mut m = SecureMemory::new(cfg, kind).expect("controller");
            let mut t = 0;
            for &(addr, value) in &ops {
                t = m
                    .write_block(t, addr, &value)
                    .unwrap_or_else(|e| panic!("{kind}: seed {seed:#x}: {e}"));
            }
            for addr in oracle.addresses() {
                let (data, done) = m
                    .read_block(t, addr)
                    .unwrap_or_else(|e| panic!("{kind}: seed {seed:#x}: read {addr:#x}: {e}"));
                assert_eq!(
                    data,
                    oracle.read_block(addr),
                    "{kind}: seed {seed:#x}: {addr:#x} diverged from the oracle"
                );
                t = done;
            }
        }
    }
}

#[test]
fn exhaustive_crash_points_recover_consistently() {
    // A short trace, crashing after every prefix, for each recoverable
    // protocol. Expected state at a crash = everything written so far
    // (writes are durable when write_block returns).
    let ops: Vec<(u64, u8)> = trace().into_iter().step_by(13).collect(); // ~46 ops
    for kind in protocols() {
        if matches!(kind, ProtocolKind::Volatile) {
            continue;
        }
        for crash_point in 0..=ops.len() {
            let cfg = SecureMemoryConfig::with_capacity(8 * MIB);
            let mut m = SecureMemory::new(cfg, kind).expect("controller");
            let mut expected: BTreeMap<u64, u8> = BTreeMap::new();
            let mut t = 0;
            for &(addr, byte) in &ops[..crash_point] {
                t = m.write_block(t, addr, &[byte; 64]).unwrap();
                expected.insert(addr, byte);
            }
            m.crash();
            let report = m
                .recover()
                .unwrap_or_else(|e| panic!("{kind}: crash@{crash_point}: {e}"));
            assert!(report.verified, "{kind}: crash@{crash_point} unverified");
            for (&addr, &byte) in &expected {
                let (data, done) = m
                    .read_block(t, addr)
                    .unwrap_or_else(|e| panic!("{kind}: crash@{crash_point}: read {addr:#x}: {e}"));
                assert_eq!(
                    data, [byte; 64],
                    "{kind}: crash@{crash_point}: lost write at {addr:#x}"
                );
                t = done;
            }
        }
    }
}

#[test]
fn recovery_is_idempotent() {
    for kind in [
        ProtocolKind::Leaf,
        ProtocolKind::Amnt(AmntConfig::default()),
    ] {
        let cfg = SecureMemoryConfig::with_capacity(8 * MIB);
        let mut m = SecureMemory::new(cfg, kind).unwrap();
        let mut t = 0;
        for i in 0..200u64 {
            t = m.write_block(t, (i % 64) * 64, &[i as u8; 64]).unwrap();
        }
        m.crash();
        assert!(m.recover().unwrap().verified);
        // A second crash immediately after recovery must also recover:
        // recovery itself leaves a consistent persisted state.
        m.crash();
        assert!(
            m.recover().unwrap().verified,
            "{kind}: recovery not idempotent"
        );
        let (data, _) = m.read_block(t, 0).unwrap();
        assert_eq!(data, [192u8; 64]);
    }
}
