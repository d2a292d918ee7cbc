//! Property-based crash-consistency testing: random write sequences, a
//! crash at an arbitrary point, recovery, and full read-back verification —
//! for every recoverable protocol. Seeded deterministic loops over
//! `amnt_prng` (replacing proptest, which the offline workspace cannot
//! depend on): failures replay exactly.

use amnt_core::{
    AmntConfig, AnubisConfig, BmfConfig, OsirisConfig, ProtocolKind, SecureMemory,
    SecureMemoryConfig,
};
use amnt_prng::Rng;
use std::collections::BTreeMap;

const MIB: u64 = 1024 * 1024;
const BLOCKS: u64 = 4096; // 256 KiB of distinct block addresses in play

/// A compact encoding of a random workload: (block index, payload byte).
fn random_ops(rng: &mut Rng) -> Vec<(u16, u8)> {
    (0..rng.gen_range_usize(1..200))
        .map(|_| {
            (
                rng.gen_range_u32(0..BLOCKS as u32) as u16,
                (rng.next_u64() & 0xff) as u8,
            )
        })
        .collect()
}

fn protocols() -> Vec<ProtocolKind> {
    vec![
        ProtocolKind::Strict,
        ProtocolKind::Leaf,
        ProtocolKind::Osiris(OsirisConfig { stop_loss: 3 }),
        ProtocolKind::Anubis(AnubisConfig { stop_loss: 3 }),
        ProtocolKind::Bmf(BmfConfig {
            capacity: 16,
            maintenance_interval: 32,
            prune_threshold: 8,
        }),
        ProtocolKind::Amnt(AmntConfig {
            subtree_level: 2,
            interval_writes: 16,
            history_entries: 16,
        }),
    ]
}

fn run_case(kind: ProtocolKind, ops: &[(u16, u8)], crash_at: usize) {
    let cfg = SecureMemoryConfig::with_capacity(16 * MIB);
    let mut m = SecureMemory::new(cfg, kind).expect("controller");
    let mut expected: BTreeMap<u64, u8> = BTreeMap::new();
    let mut t = 0;
    for (i, &(block, byte)) in ops.iter().enumerate() {
        if i == crash_at {
            m.crash();
            let report = m
                .recover()
                .unwrap_or_else(|e| panic!("{kind}: recovery failed: {e}"));
            assert!(report.verified, "{kind}: unverified recovery");
        }
        let addr = block as u64 * 64;
        t = m
            .write_block(t, addr, &[byte; 64])
            .unwrap_or_else(|e| panic!("{kind}: {e}"));
        expected.insert(addr, byte);
    }
    // Final crash + recovery, then everything must read back.
    m.crash();
    let report = m
        .recover()
        .unwrap_or_else(|e| panic!("{kind}: final recovery failed: {e}"));
    assert!(report.verified, "{kind}");
    for (&addr, &byte) in &expected {
        let (data, done) = m
            .read_block(t, addr)
            .unwrap_or_else(|e| panic!("{kind}: read {addr:#x} after recovery: {e}"));
        assert_eq!(data, [byte; 64], "{kind}: wrong data at {addr:#x}");
        t = done;
    }
}

/// Every recoverable protocol: arbitrary writes, a crash at an arbitrary
/// point mid-stream plus one at the end, and full read-back.
#[test]
fn random_workloads_survive_random_crashes() {
    let mut rng = Rng::seed_from_u64(0x40B_0001);
    for _ in 0..12 {
        let ops = random_ops(&mut rng);
        let crash_frac = rng.gen_f64();
        let crash_at = ((ops.len() as f64) * crash_frac) as usize;
        for kind in protocols() {
            run_case(kind, &ops, crash_at);
        }
    }
}

/// Repeated writes to few blocks maximise counter churn (and, with
/// stop-loss protocols, recovery trials). 130+ writes to one block also
/// crosses a minor-counter overflow.
#[test]
fn hot_block_hammering_survives_crashes() {
    let mut rng = Rng::seed_from_u64(0x40B_0002);
    for _ in 0..12 {
        let n = rng.gen_range_usize(1..300);
        let block = rng.gen_range_u32(0..8) as u16;
        let ops: Vec<(u16, u8)> = (0..n).map(|i| (block, i as u8)).collect();
        for kind in [
            ProtocolKind::Leaf,
            ProtocolKind::Osiris(OsirisConfig { stop_loss: 3 }),
            ProtocolKind::Amnt(AmntConfig {
                subtree_level: 2,
                interval_writes: 16,
                history_entries: 16,
            }),
        ] {
            run_case(kind, &ops, n / 2);
        }
    }
}

/// The `RecoveryReport` must reflect each protocol's actual rebuild work:
/// protocols that lazily defer metadata (Leaf/Osiris/Anubis/BMF/AMNT) have
/// to read the device and recompute nodes at recovery, while Strict — whose
/// whole point is write-through persistence — recovers a clean op-boundary
/// crash for free.
#[test]
fn recovery_reports_reflect_protocol_rebuild_work() {
    for kind in protocols() {
        let cfg = SecureMemoryConfig::with_capacity(16 * MIB);
        let mut m = SecureMemory::new(cfg, kind).expect("controller");
        let mut t = 0;
        // A hot 8-block region: repeated counter updates leave Osiris-style
        // counters lazily stale, and 40 same-region writes elect AMNT's
        // fast subtree before the crash.
        for i in 0..40u64 {
            t = m
                .write_block(t, (i % 8) * 64, &[i as u8; 64])
                .expect("write");
        }
        let _ = t;
        let elected = m.subtree_root().is_some();
        m.crash();
        let report = m
            .recover()
            .unwrap_or_else(|e| panic!("{kind}: recovery failed: {e}"));
        assert!(report.verified, "{kind}");
        let total = m.geometry().total_nodes();
        match kind {
            ProtocolKind::Strict => {
                assert_eq!(
                    report.nvm_reads, 0,
                    "{kind}: strict recovery read the device"
                );
                assert_eq!(
                    report.nvm_writes, 0,
                    "{kind}: strict recovery wrote the device"
                );
                assert_eq!(
                    report.nodes_recomputed, 0,
                    "{kind}: strict recomputed nodes"
                );
            }
            ProtocolKind::Leaf | ProtocolKind::Osiris(_) => {
                // Sparse rebuild: the touched ancestor closure only — one
                // hot page, so far fewer nodes than the whole tree.
                assert!(
                    report.nodes_recomputed >= 1 && report.nodes_recomputed < total,
                    "{kind}: touched-closure rebuild expected, got {} of {total}",
                    report.nodes_recomputed
                );
                assert!(report.nvm_reads > 0, "{kind}: rebuild without device reads");
            }
            ProtocolKind::Anubis(_) => {
                assert!(
                    report.nodes_recomputed > 0,
                    "{kind}: shadow-tracked paths should be recomputed"
                );
                assert!(report.nvm_reads > 0, "{kind}: rebuild without device reads");
                assert!(
                    report.nodes_recomputed < total,
                    "{kind}: Anubis must rebuild less than the whole tree"
                );
            }
            ProtocolKind::Bmf(_) => {
                // With the frontier seeded at level 2 there may be nothing
                // *above* it to recompute, but folding the non-volatile
                // roots back and re-deriving the register is real traffic.
                assert!(
                    report.nvm_reads > 0,
                    "{kind}: frontier fold without device reads"
                );
                assert!(
                    report.nvm_writes > 0,
                    "{kind}: frontier images not written back"
                );
            }
            ProtocolKind::Amnt(_) => {
                assert!(elected, "workload should have elected a subtree");
                assert!(
                    report.nodes_recomputed > 0,
                    "{kind}: subtree rebuild should recompute nodes"
                );
                assert!(report.nvm_reads > 0, "{kind}: rebuild without device reads");
                assert!(
                    report.nodes_recomputed < total,
                    "{kind}: AMNT must rebuild less than the whole tree"
                );
            }
            _ => {}
        }
    }
}

/// The volatile baseline, by contrast, must *fail* to recover whenever any
/// metadata was stale — this is the property that motivates the whole paper.
#[test]
fn volatile_never_recovers_dirty_state() {
    let cfg = SecureMemoryConfig::with_capacity(16 * MIB);
    let mut m = SecureMemory::new(cfg, ProtocolKind::Volatile).expect("controller");
    let mut t = 0;
    for i in 0..50u64 {
        t = m.write_block(t, i * 64, &[i as u8; 64]).unwrap();
    }
    let _ = t;
    assert!(m.stale_lines() > 0);
    m.crash();
    assert!(m.recover().is_err());
}
