//! Paper-scale sparse-device tests: a 2 TB `NvmConfig` with a small hot
//! set must run end-to-end — writes, crash, recovery, read-back — while
//! materializing only the frames the workload actually touched. These are
//! the acceptance tests for the O(touched lines) recovery contract
//! (DESIGN.md): no post-crash path may scan, rebuild, or allocate
//! proportionally to device capacity.

use amnt_core::fault::{run_sweep, sweep_protocols};
use amnt_core::FaultSweepConfig;
use amnt_core::{
    AmntConfig, AnubisConfig, BmfConfig, OsirisConfig, ProtocolKind, SecureMemory,
    SecureMemoryConfig, UntimedMemory,
};
use amnt_prng::Rng;
use amnt_workloads::SparseHotSet;

const TB: u64 = 1 << 40;
const MIB: u64 = 1 << 20;

fn protocols() -> Vec<(&'static str, ProtocolKind)> {
    vec![
        ("strict", ProtocolKind::Strict),
        ("leaf", ProtocolKind::Leaf),
        (
            "osiris",
            ProtocolKind::Osiris(OsirisConfig { stop_loss: 3 }),
        ),
        (
            "anubis",
            ProtocolKind::Anubis(AnubisConfig { stop_loss: 3 }),
        ),
        (
            "bmf",
            ProtocolKind::Bmf(BmfConfig {
                capacity: 16,
                maintenance_interval: 32,
                prune_threshold: 8,
            }),
        ),
        (
            "amnt",
            ProtocolKind::Amnt(AmntConfig {
                subtree_level: 2,
                interval_writes: 16,
                history_entries: 16,
            }),
        ),
    ]
}

/// The memory-bound regression gate: a 2 TB device with a 64 MiB hot set,
/// written, crashed, and recovered — the peak materialized frame count must
/// stay within an explicit ceiling derived from the touched footprint, not
/// the device size. A dense recovery (or a dense zero-fill anywhere on the
/// crash path) materializes the 2^29-frame data region and fails this
/// instantly.
#[test]
fn two_tb_device_recovers_within_touched_frame_ceiling() {
    let cfg = SecureMemoryConfig::with_capacity(2 * TB);
    let mut m = SecureMemory::new(cfg, ProtocolKind::Leaf).expect("2 TB controller");
    let gen = SparseHotSet::new(0xC0DE, 2 * TB, 64 * MIB);
    let ops = 2048usize;
    let addrs: Vec<u64> = gen.take(ops).collect();
    let mut t = 0;
    for (i, &addr) in addrs.iter().enumerate() {
        t = m
            .write_block(t, addr, &[i as u8; 64])
            .expect("sparse write");
    }
    let _ = t;

    m.crash();
    let report = m.recover().expect("2 TB recovery");
    assert!(report.verified);

    // Ceiling: each of the 2048 writes touches at most one data frame, one
    // counter frame, one HMAC-lane frame, and a bottom_level-deep ancestor
    // path (10 levels at 2 TB, 64 nodes per frame — heavily shared across
    // the hot span). 16 Ki frames (64 MiB even with every line written) is
    // an order of magnitude of slack over the observed footprint, and 2^15×
    // below the 2^29 data frames a dense pass would materialize.
    let resident = m.nvm_mut().resident_frames();
    assert!(resident > 0, "workload materialized nothing");
    assert!(
        resident <= 16 * 1024,
        "peak resident frames {resident} exceeds the touched-footprint ceiling"
    );

    // Read-back still verifies against what was written (last write wins),
    // on about 64 addresses spread over the written range.
    let mut last: std::collections::BTreeMap<u64, u8> = std::collections::BTreeMap::new();
    for (i, &addr) in addrs.iter().enumerate() {
        last.insert(addr, i as u8);
    }
    let mut t = 0;
    for (&addr, &byte) in last.iter().step_by(last.len().div_ceil(64)) {
        let (data, done) = m.read_block(t, addr).expect("read after 2 TB recovery");
        assert_eq!(data, [byte; 64], "wrong bytes at {addr:#x}");
        t = done;
    }
}

/// Never-written frames on a 2 TB device read back as zeros across a crash
/// and recovery, without becoming resident: zero-fill is a property of the
/// address space, not of materialized storage.
#[test]
fn two_tb_untouched_frames_read_zero_after_recovery_without_materializing() {
    let cfg = SecureMemoryConfig::with_capacity(2 * TB);
    let mut m = SecureMemory::new(cfg, ProtocolKind::Leaf).expect("2 TB controller");
    let mut t = 0;
    for i in 0..16u64 {
        t = m.write_block(t, i * 64, &[0xAB; 64]).expect("write");
    }
    m.crash();
    m.recover().expect("recovery");
    let before = m.nvm_mut().resident_frames();

    // Probe far-flung never-written addresses, including the last block of
    // the device: all zeros, all verified vacuously, none materialized.
    for addr in [TB, 2 * TB - 64, 1_234_567_890_944] {
        let (data, done) = m.read_block(t, addr).expect("untouched read");
        assert_eq!(data, [0u8; 64], "untouched {addr:#x} not zero-filled");
        t = done;
    }
    let after = m.nvm_mut().resident_frames();
    assert_eq!(
        before, after,
        "reads of untouched frames materialized storage"
    );
}

/// `run_sweep` accepts terabyte-capacity configs: the whole crash-point
/// exploration machinery (clean, nested-recovery, tamper, WPQ-tail and
/// verify-queue phases) runs at 2 TB with a small op count, and the
/// integrity verdicts hold unchanged.
#[test]
fn fault_sweep_runs_at_two_terabytes() {
    let cfg = FaultSweepConfig {
        ops: 6,
        capacity: 2 * TB,
        ..FaultSweepConfig::default()
    };
    for (name, kind) in sweep_protocols() {
        let s = run_sweep(kind, &cfg).unwrap_or_else(|e| panic!("{name}: 2 TB sweep: {e}"));
        assert!(s.crash_points > 0, "{name}: no crash points at 2 TB");
        assert_eq!(s.silent, 0, "{name}: silent outcomes at 2 TB: {s:?}");
        assert_eq!(
            s.boundary_deficit, 0,
            "{name}: boundary deficit at 2 TB: {s:?}"
        );
        assert_eq!(
            s.idempotence_violations, 0,
            "{name}: idempotence at 2 TB: {s:?}"
        );
        assert_eq!(s.tamper_silent, 0, "{name}: silent tamper at 2 TB: {s:?}");
    }
}

/// Differential sparse-vs-dense check at small capacity: the sparse
/// recovery walk must agree byte-for-byte with a dense in-test reference
/// (an [`UntimedMemory`] replay of the full trace) for all six protocols,
/// and produce byte-identical [`amnt_core::RecoveryReport`]s on repeated
/// identical runs — sparse enumeration introduces no nondeterminism and
/// loses no state a dense scan would have found.
#[test]
fn sparse_recovery_matches_dense_reference_for_all_protocols() {
    for (name, kind) in protocols() {
        let mut reports = Vec::new();
        for _ in 0..2 {
            let cfg = SecureMemoryConfig::with_capacity(16 * MIB);
            let mut m = SecureMemory::new(cfg, kind).expect("controller");
            let mut reference = UntimedMemory::new();
            let mut rng = Rng::seed_from_u64(0x51AC_0001);
            let mut t = 0;
            let mut addrs = Vec::new();
            for i in 0..120u64 {
                // Half the trace hammers a hot page-set, half scatters.
                let addr = if rng.gen_bool(0.5) {
                    rng.gen_range(0..32) * 64
                } else {
                    rng.gen_range(0..16 * MIB / 64) * 64
                };
                let value = [(i as u8) ^ 0x3C; 64];
                t = m
                    .write_block(t, addr, &value)
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                reference.write_block(addr, &value);
                addrs.push(addr);
            }
            m.crash();
            let report = m
                .recover()
                .unwrap_or_else(|e| panic!("{name}: recovery: {e}"));
            assert!(report.verified, "{name}");
            addrs.sort_unstable();
            addrs.dedup();
            for &addr in &addrs {
                let (data, done) = m
                    .read_block(t, addr)
                    .unwrap_or_else(|e| panic!("{name}: read {addr:#x}: {e}"));
                assert_eq!(
                    data,
                    reference.read_block(addr),
                    "{name}: diverged at {addr:#x}"
                );
                t = done;
            }
            reports.push(report);
        }
        assert_eq!(
            reports[0], reports[1],
            "{name}: recovery reports not byte-identical"
        );
    }
}
