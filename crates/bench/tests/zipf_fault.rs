//! The Zipfian multi-tenant mix, routed through the exhaustive fault
//! sweep: `amnt-workloads::zipfian_mix` feeds `FaultSweepConfig::workload`
//! (the external-workload override), so every crash point of a *skewed,
//! multi-tenant* op stream — not just the sweep's built-in generator — is
//! explored, recovered, and read back against the lockstep oracle. The
//! zero invariants (silent corruptions, boundary deficits, eviction-class
//! and verify-queue-class silents) must hold on this workload shape too.

use amnt_core::fault::{run_sweep, sweep_protocols};
use amnt_core::{FaultSweepConfig, SweepOp};
use amnt_workloads::{zipfian_mix, ZipfianMixConfig};

/// The tenant mix as sweep ops over a flat physical space (the sweep runs
/// one machine; tenant regions are just distinct hot ranges).
fn zipf_workload(ops: usize) -> Vec<SweepOp> {
    zipfian_mix(&ZipfianMixConfig {
        tenants: 2,
        blocks_per_tenant: 512,
        theta: 0.99,
        write_fraction: 0.8,
        ops,
        seed: 0x21BF_FA17,
    })
    .into_iter()
    .map(|op| SweepOp {
        addr: op.addr,
        write: op.is_write,
    })
    .collect()
}

#[test]
fn zipfian_mix_survives_the_exhaustive_fault_sweep() {
    let workload = zipf_workload(14);
    let capacity = 2 * 512 * 64; // both tenant regions, exactly
    for (name, kind) in sweep_protocols() {
        let cfg = FaultSweepConfig {
            workload: workload.clone(),
            capacity,
            ..FaultSweepConfig::default()
        };
        let s = run_sweep(kind, &cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            s.crash_points > 0,
            "{name}: no crash points on the zipf mix"
        );
        assert_eq!(s.silent, 0, "{name}: silent corruption on the zipf mix");
        assert_eq!(s.boundary_deficit, 0, "{name}: boundary deficit");
        assert_eq!(s.evict_silent, 0, "{name}: eviction-class silent");
        assert_eq!(
            s.verify_queue_silent, 0,
            "{name}: verify-queue-class silent"
        );
        assert_eq!(s.tamper_silent, 0, "{name}: tamper-class silent");
        assert_eq!(
            s.idempotence_violations, 0,
            "{name}: recovery not idempotent"
        );
    }
}

#[test]
fn zipf_workload_override_is_deterministic() {
    // The override path must be a pure function of the mix config — the
    // sweep summary repeats exactly, and a different mix seed actually
    // changes the explored workload.
    let cfg = FaultSweepConfig {
        workload: zipf_workload(12),
        capacity: 2 * 512 * 64,
        ..FaultSweepConfig::default()
    };
    let kind = sweep_protocols().remove(0).1;
    let a = run_sweep(kind, &cfg).expect("sweep");
    let b = run_sweep(kind, &cfg).expect("sweep");
    assert_eq!(a, b, "zipf-routed sweep not deterministic");
}
