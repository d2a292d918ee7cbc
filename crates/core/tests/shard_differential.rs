//! Differential proof obligations for the sharded multi-tenant controller.
//!
//! * **N=1 bit-equivalence:** a [`ShardedMemory`] with a single shard is the
//!   *same machine* as a bare [`SecureMemory`] — per-op return values
//!   (data bytes and completion times), the final media image, and the full
//!   statistics snapshot are equal, for every protocol, on several seeded
//!   traces. The shard facade may add routing, never semantics.
//! * **Multi-tenant lockstep oracle:** with N∈{2,4} shards, an interleaved
//!   multi-tenant trace must read back exactly what the [`ShardedUntimed`]
//!   oracle — which models tenants as *physically separate* maps — says,
//!   before and after crashing and recovering individual shards. Tenants
//!   influencing each other in any way breaks equality.

use amnt_core::{
    AmntConfig, AnubisConfig, BmfConfig, OsirisConfig, ProtocolKind, SecureMemory,
    SecureMemoryConfig, ShardedMemory, ShardedUntimed, BLOCK_SIZE,
};
use amnt_prng::Rng;

const MIB: u64 = 1024 * 1024;

/// Every protocol the controller implements (the shard facade is pure
/// routing, so equivalence must hold even for the unrecoverable baselines).
fn all_protocols() -> Vec<ProtocolKind> {
    vec![
        ProtocolKind::Volatile,
        ProtocolKind::Strict,
        ProtocolKind::Plp,
        ProtocolKind::Leaf,
        ProtocolKind::Osiris(OsirisConfig { stop_loss: 3 }),
        ProtocolKind::Anubis(AnubisConfig { stop_loss: 3 }),
        ProtocolKind::Bmf(BmfConfig {
            capacity: 16,
            maintenance_interval: 32,
            prune_threshold: 8,
        }),
        ProtocolKind::Amnt(AmntConfig::at_level(2)),
    ]
}

/// A seeded trace of (addr, write?) over `blocks` distinct block addresses.
fn seeded_trace(seed: u64, blocks: u64, ops: usize) -> Vec<(u64, bool)> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..ops)
        .map(|i| {
            let addr = rng.gen_range(0..blocks) * BLOCK_SIZE as u64;
            (addr, i < 4 || rng.gen_bool(0.7))
        })
        .collect()
}

fn cfg(capacity: u64) -> SecureMemoryConfig {
    // A small metadata cache keeps eviction traffic (the hard part of
    // bit-equivalence) in play at test sizes.
    SecureMemoryConfig::with_capacity(capacity).with_metadata_cache_bytes(2048)
}

#[test]
fn n1_is_bit_equivalent_to_unsharded_for_every_protocol() {
    // Four seeded traces x every protocol, as the acceptance demands.
    for seed in [0xD1FF_0001u64, 0xD1FF_0002, 0xD1FF_0003, 0xD1FF_0004] {
        let trace = seeded_trace(seed, 64, 160);
        for kind in all_protocols() {
            let mut bare = SecureMemory::new(cfg(MIB), kind).expect("bare engine");
            let mut sharded = ShardedMemory::new(cfg(MIB), kind, 1).expect("one shard");
            let (mut tb, mut ts) = (0u64, 0u64);
            for (i, &(addr, is_write)) in trace.iter().enumerate() {
                if is_write {
                    let v = [(i as u8) ^ 0x5A; BLOCK_SIZE];
                    let db = bare.write_block(tb, addr, &v).expect("bare write");
                    let ds = sharded.write_block(ts, addr, &v).expect("sharded write");
                    assert_eq!(db, ds, "{kind} seed {seed:#x} op {i}: write completion");
                    (tb, ts) = (db, ds);
                } else {
                    let (vb, db) = bare.read_block(tb, addr).expect("bare read");
                    let (vs, ds) = sharded.read_block(ts, addr).expect("sharded read");
                    assert_eq!(vb, vs, "{kind} seed {seed:#x} op {i}: read data");
                    assert_eq!(db, ds, "{kind} seed {seed:#x} op {i}: read completion");
                    (tb, ts) = (db, ds);
                }
            }
            assert_eq!(
                bare.snapshot(),
                sharded.shard_snapshots()[0],
                "{kind} seed {seed:#x}: statistics diverged"
            );
            assert_eq!(
                bare.nvm_mut().media_image(),
                sharded.media_images().remove(0),
                "{kind} seed {seed:#x}: media bytes diverged"
            );
        }
    }
}

#[test]
fn n1_equivalence_survives_crash_and_recovery() {
    for (name, kind) in [
        ("leaf", ProtocolKind::Leaf),
        ("amnt", ProtocolKind::Amnt(AmntConfig::at_level(2))),
    ] {
        let trace = seeded_trace(0xD1FF_0005, 32, 96);
        let mut bare = SecureMemory::new(cfg(MIB), kind).expect("bare engine");
        let mut sharded = ShardedMemory::new(cfg(MIB), kind, 1).expect("one shard");
        let (mut tb, mut ts) = (0u64, 0u64);
        for (i, &(addr, is_write)) in trace.iter().enumerate() {
            if i == 48 {
                bare.crash();
                sharded.crash_shard(0).expect("crash shard 0");
                let rb = bare.recover().expect("bare recovery");
                let rs = sharded.recover_shard(0).expect("sharded recovery");
                assert_eq!(rb, rs, "{name}: recovery reports diverged");
                (tb, ts) = (0, 0);
            }
            if is_write {
                let v = [(i as u8) ^ 0xA5; BLOCK_SIZE];
                tb = bare.write_block(tb, addr, &v).expect("bare write");
                ts = sharded.write_block(ts, addr, &v).expect("sharded write");
            } else {
                let (vb, db) = bare.read_block(tb, addr).expect("bare read");
                let (vs, ds) = sharded.read_block(ts, addr).expect("sharded read");
                assert_eq!((vb, db - tb), (vs, ds - ts), "{name} op {i}");
                (tb, ts) = (db, ds);
            }
        }
        assert_eq!(
            bare.nvm_mut().media_image(),
            sharded.media_images().remove(0),
            "{name}: media bytes diverged after crash/recover"
        );
    }
}

/// Interleaved multi-tenant run at `shards`, checked op-by-op against the
/// sharded oracle, then again after crashing + recovering every shard.
fn multi_tenant_case(kind: ProtocolKind, shards: usize, seed: u64) {
    let capacity = 2 * MIB;
    let mut mem = ShardedMemory::new(cfg(capacity), kind, shards).expect("sharded");
    let span = mem.span();
    let mut oracle = ShardedUntimed::new(shards, span);
    let mut rng = Rng::seed_from_u64(seed);
    let blocks_per_tenant = 24u64;
    let mut t = 0u64;
    for i in 0..240usize {
        // Round-robin head so every tenant commits state early.
        let tenant = if i < shards * 2 {
            i % shards
        } else {
            rng.gen_range(0..shards as u64) as usize
        };
        let addr = tenant as u64 * span + rng.gen_range(0..blocks_per_tenant) * BLOCK_SIZE as u64;
        if i < shards || rng.gen_bool(0.65) {
            let mut v = [0u8; BLOCK_SIZE];
            v[..8].copy_from_slice(&(i as u64).to_le_bytes());
            v[8] = tenant as u8;
            t = mem.write_block(t, addr, &v).expect("write");
            oracle.write_block(addr, &v);
        } else {
            let (data, done) = mem.read_block(t, addr).expect("read");
            assert_eq!(
                data,
                oracle.read_block(addr),
                "{kind} N={shards} op {i}: tenant {tenant} diverged from its oracle"
            );
            t = done;
        }
    }
    // Crash + recover each shard in turn; every tenant (victim and
    // bystanders alike) must still read back exactly its own oracle.
    for victim in 0..shards {
        mem.crash_shard(victim).expect("crash");
        mem.recover_shard(victim).expect("recover");
        for tenant in 0..shards {
            let local = oracle.tenant(tenant).expect("in range");
            for addr in local.addresses() {
                let global = tenant as u64 * span + addr;
                let (data, _) = mem.read_block_verified(0, global).expect("read-back");
                assert_eq!(
                    data,
                    local.read_block(addr),
                    "{kind} N={shards}: tenant {tenant} wrong at {addr:#x} after \
                     shard {victim} recovered"
                );
            }
        }
    }
    let sealed = mem.epoch_merge().expect("merge after recoveries");
    assert!(mem.verify_merge(&sealed));
}

#[test]
fn multi_tenant_interleaving_matches_the_sharded_oracle() {
    for kind in [
        ProtocolKind::Leaf,
        ProtocolKind::Osiris(OsirisConfig { stop_loss: 3 }),
        ProtocolKind::Bmf(BmfConfig {
            capacity: 16,
            maintenance_interval: 32,
            prune_threshold: 8,
        }),
        ProtocolKind::Amnt(AmntConfig::at_level(2)),
    ] {
        for shards in [2usize, 4] {
            multi_tenant_case(kind, shards, 0xD1FF_1000 + shards as u64);
        }
    }
}
