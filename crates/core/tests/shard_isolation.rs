//! Cross-shard isolation proofs.
//!
//! A shard is a trust and recovery *domain*: tamper with shard A's media
//! and it is A's audit/recovery machinery that must catch it; shard B must
//! keep auditing clean, keep reading back its own data, and must never be
//! the channel through which A's damage is observed — or healed. The fault
//! sweep ([`amnt_core::fault::run_sweep`]) at two shards proves the same
//! property under every fault class for every recoverable protocol; the
//! other tests isolate the tamper dimension with surgical single-bit flips.

use amnt_core::fault::{run_sweep, sweep_protocols, tenant_mix};
use amnt_core::{
    AmntConfig, FaultSweepConfig, ProtocolKind, SecureMemoryConfig, ShardedMemory, ShardedUntimed,
    BLOCK_SIZE,
};

const MIB: u64 = 1024 * 1024;

fn sharded(kind: ProtocolKind, shards: usize) -> ShardedMemory {
    let cfg = SecureMemoryConfig::with_capacity(2 * MIB).with_metadata_cache_bytes(2048);
    ShardedMemory::new(cfg, kind, shards).expect("sharded controller")
}

/// Writes a distinct pattern into every tenant and returns the lockstep
/// oracle (tenant t's blocks hold `t`-tagged bytes).
fn populate(mem: &mut ShardedMemory, shards: usize) -> ShardedUntimed {
    let span = mem.span();
    let mut oracle = ShardedUntimed::new(shards, span);
    let mut t = 0;
    for tenant in 0..shards as u64 {
        for i in 0..12u64 {
            let mut v = [tenant as u8 + 1; BLOCK_SIZE];
            v[0] = i as u8;
            let addr = tenant * span + i * BLOCK_SIZE as u64;
            t = mem.write_block(t, addr, &v).expect("populate write");
            oracle.write_block(addr, &v);
        }
    }
    mem.flush_verify_queues().expect("clean queues");
    oracle
}

#[test]
fn tamper_in_shard_a_is_detected_by_a_and_invisible_to_b() {
    // The six recoverable protocols the fault sweeps run — same knobs.
    for (name, kind) in sweep_protocols() {
        let mut mem = sharded(kind, 2);
        let span = mem.span();
        let oracle = populate(&mut mem, 2);
        // Both shards audit clean before the attack.
        for idx in 0..2 {
            assert!(
                mem.audit_shard(idx).expect("audit"),
                "{name}: shard {idx} dirty at start"
            );
        }

        // Flip one *counter* bit in shard A (shard 0): freshness damage,
        // which the offline audit re-derives the tree over and must expose.
        let counter_addr = {
            let g = mem.shard(0).expect("shard 0").geometry();
            g.counter_addr(g.counter_index(0))
        };
        mem.shard_mut(0)
            .expect("shard 0")
            .nvm_mut()
            .tamper_flip_bit(counter_addr + 7, 0);

        // A's own audit flags it; B's audit still passes.
        let a_clean = mem.audit_shard(0).expect("audit A runs");
        assert!(!a_clean, "{name}: shard A's audit missed a counter flip");
        assert!(
            mem.audit_shard(1).expect("audit B runs"),
            "{name}: tamper in A observed by B's audit"
        );

        // And one *data* bit: the audit vouches for the tree, so this one
        // is the verified read path's to report, in shard A alone.
        mem.shard_mut(0)
            .expect("shard 0")
            .nvm_mut()
            .tamper_flip_bit(3 * BLOCK_SIZE as u64 + 9, 4);
        assert!(
            mem.read_block_verified(0, 3 * BLOCK_SIZE as u64).is_err(),
            "{name}: shard A read back tampered bytes without error"
        );

        // B's data is untouched, byte for byte.
        let b = oracle.tenant(1).expect("tenant 1");
        for addr in b.addresses() {
            let (data, _) = mem
                .read_block_verified(0, span + addr)
                .expect("B reads clean");
            assert_eq!(data, b.read_block(addr), "{name}: B diverged at {addr:#x}");
        }
    }
}

#[test]
fn recovering_shard_b_never_heals_shard_a() {
    // Crash-recovering the *other* shard must not repair, rewrite, or even
    // observe the victim's damage: the flip persists on A's media, B comes
    // back bit-exact, and A still detects the damage itself afterwards.
    for (name, kind) in sweep_protocols() {
        let mut mem = sharded(kind, 2);
        let oracle = populate(&mut mem, 2);
        let span = mem.span();

        // Counter damage in A: the flavour A's own audit provably catches.
        let target = {
            let g = mem.shard(0).expect("shard 0").geometry();
            g.counter_addr(g.counter_index(0)) + 5
        };
        mem.shard_mut(0)
            .expect("shard 0")
            .nvm_mut()
            .tamper_flip_bit(target, 6);
        let a_media_before = mem.media_images().remove(0);

        mem.crash_shard(1).expect("crash B");
        mem.recover_shard(1).expect("recover B");

        // B's recovery wrote only B's device: A's media (including the
        // tampered line) is bit-identical to before.
        assert_eq!(
            mem.media_images().remove(0),
            a_media_before,
            "{name}: recovering B touched A's media"
        );
        // A still catches its own damage — nothing healed it behind the MAC.
        assert!(
            !mem.audit_shard(0).expect("audit A runs"),
            "{name}: A's damage vanished across a shard boundary"
        );
        // And B reads back exactly its oracle.
        let b = oracle.tenant(1).expect("tenant 1");
        for addr in b.addresses() {
            let (data, _) = mem.read_block_verified(0, span + addr).expect("B clean");
            assert_eq!(data, b.read_block(addr), "{name}: B wrong at {addr:#x}");
        }
    }
}

#[test]
fn counter_tamper_stays_inside_its_shard() {
    // Flip a counter (freshness) bit in shard A: A's verified reads of the
    // covered page must fail, while B — whose counters live on its own
    // device — is oblivious. No shard reads another's counters.
    for (name, kind) in sweep_protocols() {
        let mut mem = sharded(kind, 2);
        let oracle = populate(&mut mem, 2);
        let span = mem.span();

        let counter_addr = {
            let a = mem.shard(0).expect("shard 0");
            let g = a.geometry();
            g.counter_addr(g.counter_index(0))
        };
        mem.shard_mut(0)
            .expect("shard 0")
            .nvm_mut()
            .tamper_flip_bit(counter_addr, 1);

        assert!(
            !mem.audit_shard(0).expect("audit A runs"),
            "{name}: counter flip in A not caught by A's audit"
        );
        let b = oracle.tenant(1).expect("tenant 1");
        for addr in b.addresses() {
            let (data, _) = mem.read_block_verified(0, span + addr).expect("B clean");
            assert_eq!(data, b.read_block(addr), "{name}: B wrong at {addr:#x}");
        }
        assert!(
            mem.audit_shard(1).expect("audit B runs"),
            "{name}: counter tamper in A failed B's audit"
        );
    }
}

#[test]
fn every_fault_class_is_clean_across_shards() {
    // Every fault class, every shard as the victim, merges mid-run, all
    // six protocols: the zero invariants hold across shard boundaries.
    let mut cfg = FaultSweepConfig {
        ops: 24,
        shards: 2,
        merge_every: 8,
        metadata_cache_bytes: 1024,
        ..FaultSweepConfig::default()
    };
    cfg.workload = tenant_mix(&cfg);
    let (mut evict_points, mut leaf) = (0, None);
    for (name, kind) in sweep_protocols() {
        let s = run_sweep(kind, &cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
        if kind == ProtocolKind::Leaf {
            leaf = Some(s);
        }
        assert!(s.crash_points > 0, "{name}: no ordinals explored: {s:?}");
        assert!(s.recovered > 0, "{name}: never recovered a victim: {s:?}");
        assert!(
            s.torn_recovered + s.torn_detected > 0,
            "{name}: no torn points: {s:?}"
        );
        // WPQ tails of depth 1, 2 and 4 at every op boundary of every victim.
        assert_eq!(
            s.tail_recovered + s.tail_detected,
            3 * cfg.ops as u64,
            "{name}: unclassified tail points: {s:?}"
        );
        assert!(
            s.verify_queue_points > 0,
            "{name}: no verify-queue points: {s:?}"
        );
        assert_eq!(
            s.verify_queue_points,
            s.verify_queue_recovered + s.verify_queue_detected + s.verify_queue_silent,
            "{name}: unclassified verify-queue points: {s:?}"
        );
        assert!(s.tamper_points > 0, "{name}: no tamper points: {s:?}");
        if matches!(name, "leaf" | "osiris" | "anubis" | "bmf") {
            assert!(
                s.recovery_points > 0,
                "{name}: recovery never faulted: {s:?}"
            );
        }
        evict_points += s.evict_points;
        for (what, count) in [
            ("silent", s.silent),
            ("boundary deficit", s.boundary_deficit),
            ("idempotence violations", s.idempotence_violations),
            ("work regressions", s.work_regressions),
            ("bounds violations", s.bounds_violations),
            ("cross-shard disturbances", s.cross_shard_disturbances),
            ("cross-shard heals", s.cross_shard_heals),
            ("merge failures", s.merge_failures),
        ] {
            assert_eq!(count, 0, "{name}: {what}: {s:?}");
        }
        assert_eq!(
            s.tamper_points,
            s.tamper_detected + s.tamper_healed,
            "{name}: tamper outcomes must partition: {s:?}"
        );
    }
    assert!(evict_points > 0, "no protocol hit an eviction crash point");
    // Pure function of (kind, cfg).
    let again = run_sweep(ProtocolKind::Leaf, &cfg).expect("leaf sweep");
    assert_eq!(leaf, Some(again), "sharded sweep not deterministic");

    // AMNT at its shallowest subtree level, every class on.
    let amnt = ProtocolKind::Amnt(AmntConfig::at_level(2));
    let s = run_sweep(amnt, &cfg).expect("amnt level-2 sweep");
    assert!(s.crash_points > 0 && s.recovered > 0, "{s:?}");
    assert_eq!(
        s.silent + s.cross_shard_disturbances + s.merge_failures,
        0,
        "{s:?}"
    );
}

#[test]
fn victim_crash_mid_epoch_defers_the_merge_until_recovery() {
    let kind = ProtocolKind::Amnt(AmntConfig::at_level(2));
    let mut mem = sharded(kind, 4);
    populate(&mut mem, 4);
    let first = mem.epoch_merge().expect("healthy merge");
    mem.crash_shard(2).expect("crash");
    assert!(mem.epoch_merge().is_err(), "merge over a crashed shard");
    assert_eq!(
        mem.epoch(),
        first.epoch,
        "failed merge must not advance freshness"
    );
    mem.recover_shard(2).expect("recover");
    // New work lands after recovery, so the sub-roots move on.
    mem.write_block(0, 0x40, &[0xEE; BLOCK_SIZE])
        .expect("post-recovery write");
    let second = mem.epoch_merge().expect("post-recovery merge");
    assert!(second.epoch > first.epoch, "freshness is monotone");
    assert!(mem.verify_merge(&second));
    assert!(!mem.verify_merge(&first), "stale epochs must not re-verify");
}
