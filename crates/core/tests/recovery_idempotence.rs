//! Per-protocol recovery-idempotence unit tests.
//!
//! Each test crashes a workload at a fixed device-write ordinal, lets the
//! recovery procedure itself be cut at a fixed ordinal of *its own* write
//! domain (a [`FaultPlan`] armed on the crashed device), recovers to
//! completion, and then repeats the whole scenario from scratch: the final
//! media image and the [`RecoveryReport`]s must be equal across the two
//! runs, and within a run a repeated recovery must leave the media
//! untouched while doing monotonically non-increasing work.
//!
//! `AMNT_FAULT_OPS` scales the workload (default 16 ops); a value that is
//! not a non-negative integer fails the tests.

use amnt_core::fault::sweep_protocols;
use amnt_core::{
    AmntConfig, AnubisConfig, BmfConfig, OsirisConfig, ProtocolKind, RecoveryReport,
    SecureMemory, SecureMemoryConfig, BLOCK_SIZE,
};
use amnt_nvm::FaultPlan;

/// Workload size knob shared with the sweep tests. Unset runs the default;
/// a value that does not parse fails with the message the `fault_sweep`
/// bin exits on.
fn ops_knob() -> usize {
    let Some(v) = std::env::var_os("AMNT_FAULT_OPS") else {
        return 16;
    };
    let v = v.to_string_lossy();
    v.parse()
        .unwrap_or_else(|_| panic!("AMNT_FAULT_OPS={v:?} is not a non-negative integer"))
}

/// Mutation-path crash ordinal: small enough to fire for every protocol
/// (even two ops produce more device writes than this).
const CRASH_ORDINAL: u64 = 5;

/// Recovery-phase crash ordinal: the recovery procedure's very first
/// device write (protocols whose recovery never writes skip the nested
/// crash entirely — the recovery's plan just never fires).
const RECOVERY_ORDINAL: u64 = 0;

fn value_for(i: usize) -> [u8; BLOCK_SIZE] {
    let b = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).to_le_bytes();
    core::array::from_fn(|j| b[j % 8] ^ (j as u8))
}

/// Runs the fixed crash/recover/re-crash scenario once and returns the
/// final media image plus the reports of the two completed recoveries.
fn scenario(kind: ProtocolKind) -> (Vec<(u64, Vec<u8>)>, RecoveryReport, RecoveryReport) {
    let cfg = SecureMemoryConfig::with_capacity(1024 * 1024).with_metadata_cache_bytes(1024);
    let mut mem = SecureMemory::new(cfg, kind).expect("controller");
    mem.nvm_mut()
        .arm_fault_hook(FaultPlan::crash_after(CRASH_ORDINAL));
    // A hot 8-block region: every protocol reaches the crash ordinal fast.
    let mut t = 0;
    for i in 0..ops_knob() {
        let addr = (i as u64 % 8) * BLOCK_SIZE as u64;
        match mem.write_block(t, addr, &value_for(i)) {
            Ok(done) => t = done,
            Err(_) => break, // the mutation-phase power failure
        }
    }
    mem.crash();
    mem.nvm_mut()
        .arm_fault_hook(FaultPlan::crash_after(RECOVERY_ORDINAL));
    // First recovery: cut at RECOVERY_ORDINAL if this protocol's recovery
    // writes at all, in which case a second power cycle completes it.
    let first = match mem.recover() {
        Ok(report) => report,
        Err(_) => {
            mem.crash();
            mem.recover().expect("interrupted recovery must be restartable")
        }
    };
    let media = mem.nvm_mut().media_image();
    // Repeat recovery of the already-recovered state: byte-identical media,
    // never more work.
    mem.crash();
    let second = mem.recover().expect("repeat recovery must succeed");
    assert_eq!(media, mem.nvm_mut().media_image(), "repeat recovery moved the media");
    assert!(
        second.work() <= first.work(),
        "recovery work grew across repeats: {} -> {}",
        first.work(),
        second.work()
    );
    (media, first, second)
}

fn assert_idempotent(kind: ProtocolKind) {
    let (media_a, first_a, second_a) = scenario(kind);
    let (media_b, first_b, second_b) = scenario(kind);
    assert_eq!(media_a, media_b, "final media differs across identical scenarios");
    assert_eq!(first_a, first_b, "first RecoveryReport differs across identical scenarios");
    assert_eq!(second_a, second_b, "repeat RecoveryReport differs across identical scenarios");
}

#[test]
fn strict_recovery_is_idempotent() {
    assert_idempotent(ProtocolKind::Strict);
}

#[test]
fn leaf_recovery_is_idempotent() {
    assert_idempotent(ProtocolKind::Leaf);
}

#[test]
fn osiris_recovery_is_idempotent() {
    assert_idempotent(ProtocolKind::Osiris(OsirisConfig { stop_loss: 3 }));
}

#[test]
fn anubis_recovery_is_idempotent() {
    assert_idempotent(ProtocolKind::Anubis(AnubisConfig { stop_loss: 3 }));
}

#[test]
fn bmf_recovery_is_idempotent() {
    assert_idempotent(ProtocolKind::Bmf(BmfConfig {
        capacity: 16,
        maintenance_interval: 32,
        prune_threshold: 8,
    }));
}

#[test]
fn amnt_recovery_is_idempotent() {
    assert_idempotent(ProtocolKind::Amnt(AmntConfig {
        subtree_level: 2,
        interval_writes: 16,
        history_entries: 16,
    }));
}

/// The fault sweep replays each shared crash state once and runs every
/// scenario that starts from it on a clone of the crashed machine: a clone
/// must recover exactly as the original does, and share no device state
/// with it.
#[test]
fn a_cloned_crashed_engine_recovers_like_the_original() {
    for (name, kind) in sweep_protocols() {
        let cfg = SecureMemoryConfig::with_capacity(1024 * 1024).with_metadata_cache_bytes(1024);
        let mut original = SecureMemory::new(cfg, kind).expect("controller");
        original
            .nvm_mut()
            .arm_fault_hook(FaultPlan::crash_after(CRASH_ORDINAL));
        // The scenario's hot 8-block region, crashed mid-workload.
        let mut t = 0;
        for i in 0..16 {
            let addr = (i as u64 % 8) * BLOCK_SIZE as u64;
            match original.write_block(t, addr, &value_for(i)) {
                Ok(done) => t = done,
                Err(_) => break,
            }
        }
        original.crash();
        assert!(
            original.nvm().dirty_shutdown(),
            "{name}: the crash point was not reached"
        );
        let mut clone = original.clone();
        clone.nvm_mut().arm_fault_hook(FaultPlan::count_only());
        assert!(clone.nvm().fault_armed(), "{name}");
        assert!(
            !original.nvm().fault_armed(),
            "{name}: the clone's plan armed the original"
        );

        let report = original.recover();
        assert!(report.is_ok(), "{name}: {report:?}");
        assert_eq!(clone.recover(), report, "{name}: RecoveryReport");
        assert_eq!(
            clone.nvm().media_image(),
            original.nvm().media_image(),
            "{name}: media"
        );
        for addr in (0..8).map(|block| block * BLOCK_SIZE as u64) {
            let (a, b) = (original.read_block(0, addr), clone.read_block(0, addr));
            assert_eq!(a, b, "{name}: read-back of {addr:#x}");
        }
    }
}
