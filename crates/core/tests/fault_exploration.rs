//! Exhaustive crash-point exploration: every device-write ordinal of a
//! seeded workload is a crash point, in clean, torn-line, and dropped-WPQ-
//! tail variants, for every recoverable protocol, with every read-back
//! checked byte-for-byte against the lockstep untimed oracle. The
//! acceptance property: each crash ends in verified recovery or a
//! *detected* error — zero silent corruption — clean op-boundary crashes
//! always fully recover, and the nested recovery-fault sweep (crash →
//! crash-during-recover → recover-again) finds zero idempotence violations.
//!
//! `AMNT_FAULT_OPS` scales the workload ([`common::fault_ops`]). Each
//! protocol's sweep at that size runs once per test binary, shared by every
//! test that reads it.

mod common;

use amnt_core::fault::{run_sweep, sweep_protocols};
use amnt_core::{FaultSweepConfig, IntegrityError, ProtocolKind, SweepOp, SweepSummary};
use std::sync::OnceLock;

/// The default sweep at [`common::fault_ops`] ops.
fn sweep_config() -> FaultSweepConfig {
    FaultSweepConfig {
        ops: common::fault_ops(),
        ..FaultSweepConfig::default()
    }
}

/// Every protocol's sweep of [`sweep_config`], run on first use.
fn sweeps() -> &'static [(&'static str, ProtocolKind, SweepSummary)] {
    static SWEEPS: OnceLock<Vec<(&'static str, ProtocolKind, SweepSummary)>> = OnceLock::new();
    SWEEPS.get_or_init(|| {
        let cfg = sweep_config();
        sweep_protocols()
            .into_iter()
            .map(|(name, kind)| {
                let s =
                    run_sweep(kind, &cfg).unwrap_or_else(|e| panic!("{name}: sweep setup: {e}"));
                (name, kind, s)
            })
            .collect()
    })
}

#[test]
fn no_silent_corruption_at_any_crash_point() {
    let cfg = sweep_config();
    for &(name, _, s) in sweeps() {
        assert!(
            s.crash_points > 0,
            "{name}: workload produced no device writes"
        );
        assert_eq!(s.silent, 0, "{name}: silent corruption outcomes: {s:?}");
        assert_eq!(
            s.boundary_deficit, 0,
            "{name}: boundary crashes not recovered: {s:?}"
        );
        assert_eq!(
            s.bounds_violations, 0,
            "{name}: recovery work exceeded model bounds: {s:?}"
        );
        // Every clean crash point was classified one way or the other.
        assert_eq!(
            s.recovered + s.detected,
            s.crash_points,
            "{name}: unclassified clean crash points: {s:?}"
        );
        // Torn variants cover both halves of every ordinal.
        assert_eq!(
            s.torn_recovered + s.torn_detected,
            2 * s.crash_points,
            "{name}: unclassified torn crash points: {s:?}"
        );
        // WPQ tails of depth 1, 2 and 4 at every op boundary.
        assert_eq!(
            s.tail_recovered + s.tail_detected,
            3 * cfg.ops as u64,
            "{name}: unclassified WPQ-tail scenarios: {s:?}"
        );
        assert_eq!(
            s.verify_queue_points,
            s.verify_queue_recovered + s.verify_queue_detected + s.verify_queue_silent,
            "{name}: unclassified verify-queue scenarios: {s:?}"
        );
    }
}

#[test]
fn tampering_between_crash_and_recovery_is_never_silent() {
    // Active-attack interleaving: a bit flipped on the raw media between
    // the nested recovery crash and the second recovery (data block,
    // counter block, and bottom tree node targets in rotation) must always
    // be healed by an authenticated rebuild or detected — for every one of
    // the six protocols, at every clean crash point.
    for &(name, _, s) in sweeps() {
        assert!(
            s.tamper_points > 0,
            "{name}: no tamper scenarios ran: {s:?}"
        );
        assert_eq!(s.tamper_silent, 0, "{name}: silent tamper outcomes: {s:?}");
        assert_eq!(
            s.tamper_detected + s.tamper_healed,
            s.tamper_points,
            "{name}: unclassified tamper scenarios: {s:?}"
        );
        // A flipped bit is never detected-for-free: at least one scenario
        // per protocol must have actually caught the damage.
        assert!(
            s.tamper_detected > 0,
            "{name}: every tamper slipped through as healed: {s:?}"
        );
    }
}

#[test]
fn nested_recovery_crashes_are_idempotent() {
    // The tentpole invariant: crash the mutation path, crash recovery at
    // every one of *its* device writes (clean + both torn halves), recover
    // again — the final state must match the single-recovery state and the
    // untimed oracle, with recovery work monotonically non-increasing.
    for &(name, kind, s) in sweeps() {
        assert_eq!(s.silent, 0, "{name}: silent corruption outcomes: {s:?}");
        assert_eq!(
            s.idempotence_violations, 0,
            "{name}: recovery not idempotent: {s:?}"
        );
        assert_eq!(
            s.work_regressions, 0,
            "{name}: repeat recovery did more work: {s:?}"
        );
        assert_eq!(
            s.recovery_points,
            s.recovery_recovered + s.recovery_detected,
            "{name}: unclassified nested recovery scenarios: {s:?}"
        );
        // Strict persistence recovers without device writes, so it has no
        // nested crash points; every lazy protocol must have plenty.
        if kind == ProtocolKind::Strict {
            assert_eq!(s.recovery_points, 0, "{name}: strict recovery wrote: {s:?}");
        } else {
            assert!(
                s.recovery_points > 0,
                "{name}: recovery never faulted: {s:?}"
            );
        }
    }
}

#[test]
fn eviction_writebacks_are_their_own_crash_point_class() {
    let mut lazy_evictions = 0;
    for &(name, kind, s) in sweeps() {
        assert!(
            s.evict_points <= s.crash_points,
            "{name}: class not a subset: {s:?}"
        );
        assert_eq!(
            s.evict_recovered + s.evict_detected,
            s.evict_points,
            "{name}: unclassified eviction crash points: {s:?}"
        );
        assert_eq!(s.evict_silent, 0, "{name}: silent eviction outcomes: {s:?}");
        match kind {
            // Strict persists every line in protocol order: no line is ever
            // dirty at eviction time, so the class must be empty.
            ProtocolKind::Strict => {
                assert_eq!(
                    s.evict_points, 0,
                    "{name}: strict had dirty evictions: {s:?}"
                )
            }
            ProtocolKind::Leaf => {
                assert!(
                    s.evict_points > 0,
                    "{name}: no eviction crash points: {s:?}"
                );
                lazy_evictions += s.evict_points;
            }
            _ => lazy_evictions += s.evict_points,
        }
    }
    assert!(
        lazy_evictions > 0,
        "no lazy protocol produced eviction crash points"
    );
}

#[test]
fn sweep_is_deterministic() {
    // Byte-identical summaries on repeated runs — the property that makes
    // the bench artifact stable across `AMNT_JOBS` settings.
    let cfg = FaultSweepConfig {
        ops: 10,
        ..FaultSweepConfig::default()
    };
    for (name, kind) in sweep_protocols() {
        let a = run_sweep(kind, &cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
        let b = run_sweep(kind, &cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(a, b, "{name}: sweep not deterministic");
    }
}

#[test]
fn strict_boundary_crashes_do_zero_recovery_work() {
    // At clean op boundaries Strict's recovery is free; mid-op crashes may
    // trigger the dirty-shutdown audit (reads), but never writes.
    let cfg = FaultSweepConfig {
        ops: 12,
        ..FaultSweepConfig::default()
    };
    let s = run_sweep(amnt_core::ProtocolKind::Strict, &cfg).expect("strict sweep");
    assert_eq!(s.silent, 0);
    assert_eq!(
        s.bounds_violations, 0,
        "strict recovery did forbidden work: {s:?}"
    );
}

#[test]
fn malformed_configs_are_typed_errors() {
    // Each of these is rejected by the machine or the workload check before
    // any op runs: a typed error, never a panic in the generator or the
    // cache.
    let base = FaultSweepConfig {
        ops: 4,
        ..FaultSweepConfig::default()
    };
    let past_capacity = vec![SweepOp {
        addr: base.capacity,
        write: true,
    }];
    let cases = [
        (
            "capacity 0",
            FaultSweepConfig {
                capacity: 0,
                ..base.clone()
            },
        ),
        (
            "capacity 32",
            FaultSweepConfig {
                capacity: 32,
                ..base.clone()
            },
        ),
        (
            "address past capacity",
            FaultSweepConfig {
                workload: past_capacity,
                ..base.clone()
            },
        ),
        (
            "0 B cache",
            FaultSweepConfig {
                metadata_cache_bytes: 0,
                ..base.clone()
            },
        ),
        (
            "32 B cache",
            FaultSweepConfig {
                metadata_cache_bytes: 32,
                ..base.clone()
            },
        ),
        (
            "1000 B cache, not a whole number of sets",
            FaultSweepConfig {
                metadata_cache_bytes: 1000,
                ..base.clone()
            },
        ),
    ];
    for (what, cfg) in cases {
        let err = run_sweep(ProtocolKind::Leaf, &cfg).expect_err(what);
        assert!(
            matches!(
                err,
                IntegrityError::Invariant { .. } | IntegrityError::OutOfRange { .. }
            ),
            "{what}: {err:?}"
        );
    }
}
