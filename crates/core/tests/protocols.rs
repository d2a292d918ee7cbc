//! Cross-protocol integration tests for the secure-memory controller:
//! functional roundtrips, physical-attack detection, the crash-consistency
//! matrix, and protocol-specific behaviours.

use amnt_core::{
    hardware_overhead, AmntConfig, AnubisConfig, BmfConfig, IntegrityError, OsirisConfig,
    ProtocolKind, RecoveryError, SecureMemory, SecureMemoryConfig,
};

const MIB: u64 = 1024 * 1024;

fn all_protocols() -> Vec<ProtocolKind> {
    vec![
        ProtocolKind::Volatile,
        ProtocolKind::Strict,
        ProtocolKind::Leaf,
        ProtocolKind::Plp,
        ProtocolKind::Osiris(OsirisConfig::default()),
        ProtocolKind::Anubis(AnubisConfig::default()),
        ProtocolKind::Bmf(BmfConfig::default()),
        ProtocolKind::Amnt(AmntConfig::default()),
    ]
}

fn mem(kind: ProtocolKind, capacity: u64) -> SecureMemory {
    SecureMemory::new(SecureMemoryConfig::with_capacity(capacity), kind).expect("valid config")
}

fn block(byte: u8) -> [u8; 64] {
    [byte; 64]
}

#[test]
fn write_read_roundtrip_under_every_protocol() {
    for kind in all_protocols() {
        let mut m = mem(kind, 16 * MIB);
        let mut t = 0;
        for i in 0..300u64 {
            let addr = (i * 64) % (2 * MIB);
            t = m.write_block(t, addr, &block(i as u8)).expect("write");
        }
        for i in 0..300u64 {
            let addr = (i * 64) % (2 * MIB);
            let (data, done) = m.read_block(t, addr).expect("read");
            assert_eq!(data, block(i as u8), "{kind}: data mismatch at {addr:#x}");
            t = done;
        }
    }
}

#[test]
fn overwrites_return_latest_value() {
    for kind in all_protocols() {
        let mut m = mem(kind, 4 * MIB);
        let mut t = 0;
        for round in 0..5u8 {
            t = m.write_block(t, 0x4000, &block(round)).unwrap();
        }
        let (data, _) = m.read_block(t, 0x4000).unwrap();
        assert_eq!(data, block(4), "{kind}");
    }
}

#[test]
fn unwritten_memory_reads_as_zero() {
    for kind in all_protocols() {
        let mut m = mem(kind, 4 * MIB);
        let (data, _) = m.read_block(0, 0x10000).expect("uninitialised read");
        assert_eq!(data, [0u8; 64], "{kind}");
    }
}

#[test]
fn misaligned_and_out_of_range_addresses_rejected() {
    let mut m = mem(ProtocolKind::Leaf, 4 * MIB);
    assert!(matches!(
        m.read_block(0, 3),
        Err(IntegrityError::OutOfRange { addr: 3 })
    ));
    assert!(m.write_block(0, 4 * MIB, &block(0)).is_err());
}

// ---------------------------------------------------------------------
// Physical attacks
// ---------------------------------------------------------------------

#[test]
fn data_corruption_detected_under_every_protocol() {
    for kind in all_protocols() {
        let mut m = mem(kind, 4 * MIB);
        let t = m.write_block(0, 0x8000, &block(7)).unwrap();
        m.nvm_mut().tamper_flip_bit(0x8000 + 17, 3);
        assert!(
            matches!(
                m.read_block_verified(t, 0x8000),
                Err(IntegrityError::DataMac { .. })
            ),
            "{kind}: corruption must be detected"
        );
    }
}

#[test]
fn hmac_corruption_detected() {
    let mut m = mem(ProtocolKind::Leaf, 4 * MIB);
    let t = m.write_block(0, 0x8000, &block(7)).unwrap();
    let hmac_addr = m.geometry().hmac_addr(0x8000);
    m.nvm_mut().tamper_flip_bit(hmac_addr, 0);
    assert!(matches!(
        m.read_block_verified(t, 0x8000),
        Err(IntegrityError::DataMac { .. })
    ));
}

#[test]
fn replay_attack_detected() {
    // Splice back a (data, HMAC) pair that *was* valid: the counter has
    // moved on, so the MAC no longer verifies.
    let mut m = mem(ProtocolKind::Leaf, 4 * MIB);
    let addr = 0xC000u64;
    let mut t = m.write_block(0, addr, &block(1)).unwrap();
    // Record the old ciphertext and HMAC straight off the device.
    let old_ct = m.nvm_mut().read_block(addr).unwrap();
    let hmac_addr = m.geometry().hmac_addr(addr);
    let mut old_mac = [0u8; 8];
    m.nvm_mut().read_bytes(hmac_addr, &mut old_mac).unwrap();
    // Victim updates the block.
    t = m.write_block(t, addr, &block(2)).unwrap();
    // Attacker replays the stale pair.
    m.nvm_mut().write_block(addr, &old_ct).unwrap();
    m.nvm_mut().write_bytes(hmac_addr, &old_mac).unwrap();
    assert!(
        matches!(
            m.read_block_verified(t, addr),
            Err(IntegrityError::DataMac { .. })
        ),
        "stale-but-once-valid data must fail freshness verification"
    );
}

#[test]
fn counter_corruption_detected_after_cache_loss() {
    let mut m = mem(ProtocolKind::Strict, 4 * MIB);
    let t = m.write_block(0, 0x8000, &block(9)).unwrap();
    m.crash();
    m.recover().expect("strict recovers instantly");
    let ctr_addr = m
        .geometry()
        .counter_addr(m.geometry().counter_index(0x8000));
    m.nvm_mut().tamper_flip_bit(ctr_addr + 60, 1); // major counter bits
    let err = m.read_block(t, 0x8000).unwrap_err();
    assert!(
        matches!(
            err,
            IntegrityError::CounterMac { .. } | IntegrityError::DataMac { .. }
        ),
        "got {err:?}"
    );
}

#[test]
fn tree_node_corruption_detected_after_cache_loss() {
    let mut m = mem(ProtocolKind::Strict, 16 * MIB);
    let t = m.write_block(0, 0x8000, &block(9)).unwrap();
    m.crash();
    m.recover().unwrap();
    // Corrupt the bottom-level node covering counter 8 (addr 0x8000 = page 8).
    let g = m.geometry().clone();
    let node = g.counter_parent(g.counter_index(0x8000));
    m.nvm_mut().tamper_flip_bit(g.node_addr(node), 0);
    let err = m.read_block(t, 0x8000).unwrap_err();
    assert!(
        matches!(
            err,
            IntegrityError::CounterMac { .. } | IntegrityError::NodeMac { .. }
        ),
        "got {err:?}"
    );
}

// ---------------------------------------------------------------------
// Crash-consistency matrix
// ---------------------------------------------------------------------

fn crash_workload(m: &mut SecureMemory) -> u64 {
    let mut t = 0;
    // A hot region plus scattered cold writes: exercises subtree residency,
    // dirty tree nodes, stop-loss laziness and shadow-table churn.
    for i in 0..500u64 {
        let addr = if i % 4 == 0 {
            ((i * 7919) % 200) * 4096 // cold, spread over 200 pages
        } else {
            (i % 64) * 64 // hot page 0..1
        };
        t = m.write_block(t, addr, &block(i as u8)).expect("write");
    }
    t
}

#[test]
fn recoverable_protocols_survive_a_crash() {
    for kind in all_protocols() {
        if matches!(kind, ProtocolKind::Volatile) {
            continue;
        }
        let mut m = mem(kind, 16 * MIB);
        let t = crash_workload(&mut m);
        // Capture expected plaintexts before the crash.
        let mut expected = Vec::new();
        let mut tt = t;
        for page in 0..8u64 {
            let addr = page * 4096;
            let (data, done) = m.read_block(tt, addr).unwrap();
            expected.push((addr, data));
            tt = done;
        }
        m.crash();
        let report = m
            .recover()
            .unwrap_or_else(|e| panic!("{kind}: recovery failed: {e}"));
        assert!(report.verified, "{kind}: recovery must verify");
        assert!(
            m.audit().unwrap(),
            "{kind}: post-recovery tree must be globally consistent"
        );
        for (addr, data) in expected {
            let (got, done) = m.read_block(tt, addr).unwrap();
            assert_eq!(got, data, "{kind}: data lost across crash at {addr:#x}");
            tt = done;
        }
    }
}

#[test]
fn volatile_baseline_is_unrecoverable() {
    let mut m = mem(ProtocolKind::Volatile, 16 * MIB);
    crash_workload(&mut m);
    assert!(m.stale_lines() > 0, "workload must leave stale metadata");
    m.crash();
    assert!(matches!(
        m.recover(),
        Err(RecoveryError::Unrecoverable { .. })
    ));
}

#[test]
fn volatile_baseline_recovers_only_when_nothing_was_stale() {
    let mut m = mem(ProtocolKind::Volatile, 4 * MIB);
    // No writes at all: nothing stale.
    m.crash();
    assert!(m.recover().unwrap().verified);
}

#[test]
fn double_crash_recover_cycles() {
    for kind in [
        ProtocolKind::Leaf,
        ProtocolKind::Amnt(AmntConfig::default()),
        ProtocolKind::Anubis(AnubisConfig::default()),
    ] {
        let mut m = mem(kind, 16 * MIB);
        let mut t = crash_workload(&mut m);
        m.crash();
        m.recover().unwrap();
        // Keep working, crash again.
        for i in 0..200u64 {
            t = m
                .write_block(t, (i % 32) * 64, &block(0xA0 | (i as u8 & 0xF)))
                .unwrap();
        }
        m.crash();
        let r = m
            .recover()
            .unwrap_or_else(|e| panic!("{kind}: second recovery: {e}"));
        assert!(r.verified, "{kind}");
        let (data, _) = m.read_block(t, 0).unwrap();
        assert_eq!(data[0] & 0xF0, 0xA0, "{kind}");
    }
}

#[test]
fn strict_recovery_does_no_work() {
    let mut m = mem(ProtocolKind::Strict, 16 * MIB);
    crash_workload(&mut m);
    assert_eq!(
        m.stale_lines(),
        0,
        "strict persistence leaves nothing stale"
    );
    m.crash();
    let report = m.recover().unwrap();
    assert_eq!(report.nvm_reads, 0);
    assert_eq!(report.nvm_writes, 0);
}

#[test]
fn leaf_recovery_rebuilds_touched_closure() {
    let mut m = mem(ProtocolKind::Leaf, 16 * MIB);
    crash_workload(&mut m);
    m.crash();
    let report = m.recover().unwrap();
    // Sparse rebuild: at least the root, at most the whole tree — and with
    // a small workload footprint, strictly less than the dense walk.
    assert!(report.nodes_recomputed >= 1);
    assert!(report.nodes_recomputed < m.geometry().total_nodes());
    assert!(report.nvm_reads > 0);
}

#[test]
fn amnt_recovery_is_bounded_by_the_subtree() {
    let mut m = mem(ProtocolKind::Amnt(AmntConfig::default()), 16 * MIB);
    crash_workload(&mut m);
    m.crash();
    let amnt_report = m.recover().unwrap();

    let mut leaf = mem(ProtocolKind::Leaf, 16 * MIB);
    crash_workload(&mut leaf);
    leaf.crash();
    let leaf_report = leaf.recover().unwrap();

    assert!(
        amnt_report.bytes_read < leaf_report.bytes_read / 4,
        "AMNT recovery ({} B) should be far below leaf's full rebuild ({} B)",
        amnt_report.bytes_read,
        leaf_report.bytes_read
    );
}

#[test]
fn anubis_recovery_is_bounded_by_the_metadata_cache() {
    let mut m = mem(ProtocolKind::Anubis(AnubisConfig::default()), 16 * MIB);
    crash_workload(&mut m);
    m.crash();
    let report = m.recover().unwrap();
    let lines = m.config().metadata_cache.lines() as u64;
    assert!(
        report.nodes_recomputed <= lines * 4,
        "recomputed {} nodes for a {}-line cache",
        report.nodes_recomputed,
        lines
    );
}

#[test]
fn osiris_recovers_stale_counters() {
    let mut m = mem(ProtocolKind::Osiris(OsirisConfig { stop_loss: 4 }), 4 * MIB);
    let mut t = 0;
    // Leave counters mid-interval: 2 updates each (stop-loss 4).
    for page in 0..10u64 {
        for _ in 0..2 {
            t = m.write_block(t, page * 4096, &block(page as u8)).unwrap();
        }
    }
    assert!(m.stale_lines() > 0, "counters must be lazily stale");
    m.crash();
    let report = m.recover().unwrap();
    assert!(
        report.counters_recovered > 0,
        "stop-loss counters must be re-derived"
    );
    let (data, _) = m.read_block(t, 0).unwrap();
    assert_eq!(data, block(0));
}

// ---------------------------------------------------------------------
// Protocol-specific behaviours
// ---------------------------------------------------------------------

#[test]
fn counter_overflow_reencrypts_page() {
    let mut m = mem(ProtocolKind::Leaf, 4 * MIB);
    let mut t = 0;
    // Two blocks in the same page; hammer one past the 7-bit minor limit.
    t = m.write_block(t, 4096 + 64, &block(0x55)).unwrap();
    for i in 0..130u64 {
        t = m.write_block(t, 4096, &block(i as u8)).unwrap();
    }
    assert!(m.stats().counter_overflows >= 1);
    let (a, done) = m.read_block(t, 4096).unwrap();
    assert_eq!(a, block(129));
    let (b, _) = m.read_block(done, 4096 + 64).unwrap();
    assert_eq!(
        b,
        block(0x55),
        "sibling block must survive page re-encryption"
    );
}

#[test]
fn amnt_tracks_the_hot_region() {
    let mut m = mem(ProtocolKind::Amnt(AmntConfig::default()), 16 * MIB);
    let mut t = 0;
    for i in 0..256u64 {
        t = m.write_block(t, (i % 16) * 64, &block(i as u8)).unwrap();
    }
    assert!(m.subtree_root().is_some(), "an interval elects a subtree");
    let stats = m.stats();
    assert!(
        stats.subtree_hits > stats.subtree_misses,
        "hot-region writes should land in the fast subtree: {stats:?}"
    );
    assert!(stats.subtree_transitions >= 1);
}

/// The subtree root must be a stored tree level: level 1 is the on-chip
/// root, and levels past the bottom do not exist. The history buffer needs
/// at least one entry to elect a subtree. Every such config is rejected at
/// construction, against the tree of the device it is built for; both ends
/// of the legal level range run a crash cycle.
#[test]
fn amnt_config_is_checked_at_construction() {
    let cfg = SecureMemoryConfig::with_capacity(16 * MIB);
    let small = SecureMemoryConfig::with_capacity(2 * MIB);
    let bottom = mem(ProtocolKind::Strict, 16 * MIB)
        .geometry()
        .bottom_level();
    // A 2 MiB device's tree is one level shallower.
    let small_bottom = mem(ProtocolKind::Strict, 2 * MIB).geometry().bottom_level();
    assert_eq!((bottom, small_bottom), (4, 3));
    for level in [0, 1, bottom + 1] {
        let kind = ProtocolKind::Amnt(AmntConfig::at_level(level));
        let want = IntegrityError::SubtreeLevel { level, bottom };
        assert_eq!(
            SecureMemory::new(cfg.clone(), kind).err(),
            Some(want.clone())
        );
        assert_eq!(
            SecureMemory::new(small.clone(), kind).err(),
            Some(IntegrityError::SubtreeLevel {
                level,
                bottom: small_bottom
            })
        );
        assert!(
            want.to_string().contains(&format!("level {level}")),
            "{want}"
        );
    }
    let kind = ProtocolKind::Amnt(AmntConfig {
        history_entries: 0,
        ..AmntConfig::default()
    });
    for err in [
        SecureMemory::new(cfg.clone(), kind).err(),
        SecureMemory::new(small.clone(), kind).err(),
    ] {
        assert_eq!(err, Some(IntegrityError::EmptyHistory));
    }
    assert!(IntegrityError::EmptyHistory
        .to_string()
        .contains("history_entries"));
    assert_eq!(hardware_overhead(&kind, 64 * 1024).volatile_on_chip, 0);
    // The 16 MiB device's bottom level is legal there but not on the
    // 2 MiB device's shallower tree.
    let kind = ProtocolKind::Amnt(AmntConfig::at_level(bottom));
    assert_eq!(
        SecureMemory::new(small, kind).err(),
        Some(IntegrityError::SubtreeLevel {
            level: bottom,
            bottom: small_bottom
        })
    );
    for level in [2, bottom] {
        let mut m = mem(ProtocolKind::Amnt(AmntConfig::at_level(level)), 16 * MIB);
        let mut t = 0;
        // Enough writes for several elections.
        for i in 0..300u64 {
            t = m.write_block(t, (i % 48) * 4096, &block(i as u8)).unwrap();
        }
        assert!(
            m.subtree_root().is_some(),
            "level {level}: an interval elects a subtree"
        );
        m.crash();
        assert!(m.recover().unwrap().verified, "level {level}");
        for i in 252..300u64 {
            let (data, done) = m.read_block(t, (i % 48) * 4096).unwrap();
            assert_eq!(data, block(i as u8), "level {level}");
            t = done;
        }
    }
}

/// A metadata cache with zero ways or zero-byte lines is a typed error at
/// construction, never a divide-by-zero panic.
#[test]
fn degenerate_metadata_caches_are_typed_errors() {
    for (size, ways, line) in [(0, 0, 64), (1024, 0, 64), (1024, 8, 0)] {
        let cfg = SecureMemoryConfig {
            metadata_cache: amnt_cache::CacheConfig::new(size, ways, line),
            ..SecureMemoryConfig::with_capacity(2 * MIB)
        };
        assert_eq!(
            SecureMemory::new(cfg, ProtocolKind::Leaf).err(),
            Some(IntegrityError::OutOfRange { addr: 0 }),
            "cache ({size}, {ways}, {line})"
        );
    }
}

#[test]
fn amnt_transitions_follow_the_hotspot() {
    let mut m = mem(ProtocolKind::Amnt(AmntConfig::at_level(2)), 16 * MIB);
    let g = m.geometry().clone();
    let region_bytes = g.coverage_bytes(2);
    let mut t = 0;
    // Phase 1: hammer region 0; phase 2: hammer region 1.
    for i in 0..200u64 {
        t = m.write_block(t, (i % 32) * 64, &block(1)).unwrap();
    }
    let first = m.subtree_root().expect("elected");
    for i in 0..200u64 {
        t = m
            .write_block(t, region_bytes + (i % 32) * 64, &block(2))
            .unwrap();
    }
    let second = m.subtree_root().expect("still elected");
    assert_ne!(first, second, "subtree must follow the hotspot");
    assert!(m.stats().subtree_transitions >= 2);
    // Consistency after movement: crash + recover + audit.
    m.crash();
    assert!(m.recover().unwrap().verified);
    assert!(m.audit().unwrap());
}

#[test]
fn anubis_pays_shadow_writes_on_fills() {
    let mut m = mem(ProtocolKind::Anubis(AnubisConfig::default()), 16 * MIB);
    let mut t = 0;
    // Poor-locality traffic: scattered pages force metadata cache misses.
    for i in 0..500u64 {
        let addr = ((i * 7919) % 3000) * 4096;
        t = m.write_block(t, addr, &block(i as u8)).unwrap();
    }
    assert!(
        m.stats().shadow_writes > 100,
        "fills must update the shadow table"
    );
}

#[test]
fn bmf_prunes_hot_regions() {
    let mut m = mem(
        ProtocolKind::Bmf(BmfConfig {
            capacity: 64,
            maintenance_interval: 64,
            prune_threshold: 16,
        }),
        16 * MIB,
    );
    let mut t = 0;
    for i in 0..2000u64 {
        t = m.write_block(t, (i % 16) * 64, &block(i as u8)).unwrap();
    }
    assert!(
        m.stats().bmf_prunes >= 1,
        "a hot frontier node must be pruned: {:?}",
        m.stats()
    );
    // Crash consistency holds across prune/merge churn.
    m.crash();
    assert!(m.recover().unwrap().verified);
    assert!(m.audit().unwrap());
    // Last write to block 0 was iteration 1984 (1984 % 16 == 0).
    let (data, _) = m.read_block(t, 0).unwrap();
    assert_eq!(data, block(1984u64 as u8));
}

#[test]
fn persistence_traffic_orders_as_expected() {
    // strict >> leaf > volatile in persist writes; volatile has none.
    let run = |kind: ProtocolKind| {
        let mut m = mem(kind, 16 * MIB);
        let mut t = 0;
        for i in 0..300u64 {
            t = m
                .write_block(t, ((i * 13) % 512) * 64, &block(i as u8))
                .unwrap();
        }
        (
            m.stats().persist_writes,
            m.snapshot().controller.wait_cycles,
        )
    };
    let (strict_p, strict_w) = run(ProtocolKind::Strict);
    let (leaf_p, leaf_w) = run(ProtocolKind::Leaf);
    let (vol_p, vol_w) = run(ProtocolKind::Volatile);
    assert_eq!(vol_p, 0);
    assert!(leaf_p > vol_p);
    // On this 16 MiB tree the write path has 3 inner nodes: strict persists
    // exactly 6 blocks per write vs leaf's 3.
    assert_eq!(strict_p, 2 * leaf_p, "strict {strict_p} vs leaf {leaf_p}");
    assert!(
        strict_w > leaf_w,
        "strict waits {strict_w} vs leaf {leaf_w}"
    );
    assert!(leaf_w > vol_w, "leaf waits {leaf_w} vs volatile {vol_w}");
}

#[test]
fn deterministic_given_identical_traffic() {
    let run = || {
        let mut m = mem(ProtocolKind::Amnt(AmntConfig::default()), 16 * MIB);
        let mut t = 0;
        for i in 0..400u64 {
            t = m
                .write_block(t, ((i * 31) % 256) * 64, &block(i as u8))
                .unwrap();
        }
        (
            t,
            m.stats().subtree_transitions,
            m.snapshot().timeline.writes,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn plp_persists_like_strict_but_waits_less() {
    let run = |kind: ProtocolKind| {
        let mut m = mem(kind, 16 * MIB);
        let mut t = 0;
        for i in 0..300u64 {
            t = m
                .write_block(t, ((i * 13) % 512) * 64, &block(i as u8))
                .unwrap();
        }
        (m.stats().persist_writes, m.stats().wait_cycles)
    };
    let (strict_p, strict_w) = run(ProtocolKind::Strict);
    let (plp_p, plp_w) = run(ProtocolKind::Plp);
    assert_eq!(
        plp_p, strict_p,
        "PLP writes through exactly what strict does"
    );
    assert!(
        plp_w < strict_w,
        "parallel persists must wait less: plp {plp_w} vs strict {strict_w}"
    );
    // And PLP recovers instantly, like strict.
    let mut m = mem(ProtocolKind::Plp, 16 * MIB);
    crash_workload(&mut m);
    assert_eq!(m.stale_lines(), 0);
    m.crash();
    let report = m.recover().unwrap();
    assert_eq!(report.nvm_reads, 0);
}

#[test]
fn trusted_ancestor_caching_shortens_verification() {
    let run = |caching: bool| {
        let mut cfg = SecureMemoryConfig::with_capacity(16 * MIB);
        cfg.trusted_ancestor_caching = caching;
        let mut m = SecureMemory::new(cfg, ProtocolKind::Leaf).unwrap();
        let mut t = 0;
        for i in 0..400u64 {
            let addr = ((i * 31) % 256) * 64;
            t = m.write_block(t, addr, &block(i as u8)).unwrap();
        }
        // Reads after a crash force cold verification walks.
        m.crash();
        m.recover().unwrap();
        for i in 0..64u64 {
            let (_, done) = m.read_block(t, i * 4096).unwrap();
            t = done;
        }
        (m.stats().hashes, m.stats().metadata_fetches)
    };
    let (hashes_on, fetches_on) = run(true);
    let (hashes_off, fetches_off) = run(false);
    assert!(
        hashes_off > hashes_on,
        "disabling trusted-ancestor caching must lengthen walks: {hashes_off} vs {hashes_on}"
    );
    assert!(fetches_off >= fetches_on);
}

#[test]
fn parallel_path_fetch_shortens_cold_reads() {
    let run = |parallel: bool| {
        let mut cfg = SecureMemoryConfig::with_capacity(64 * MIB);
        cfg.parallel_path_fetch = parallel;
        // No trusted ancestors: force full walks so the fetch policy shows.
        cfg.trusted_ancestor_caching = false;
        let mut m = SecureMemory::new(cfg, ProtocolKind::Leaf).unwrap();
        let mut t = 0;
        for i in 0..64u64 {
            t = m.write_block(t, i * 4096 * 16, &block(i as u8)).unwrap();
        }
        m.crash();
        m.recover().unwrap();
        let mut total = 0;
        for i in 0..64u64 {
            let start = t;
            let (_, done) = m.read_block(t, i * 4096 * 16).unwrap();
            total += done - start;
            t = done;
        }
        (total, m.stats().metadata_fetches)
    };
    let (serial_cycles, serial_fetches) = run(false);
    let (parallel_cycles, parallel_fetches) = run(true);
    assert_eq!(serial_fetches, parallel_fetches, "same traffic either way");
    assert!(
        parallel_cycles < serial_cycles,
        "overlapped fetches must be faster: {parallel_cycles} vs {serial_cycles}"
    );
}

#[test]
fn byte_granular_api_roundtrips_across_blocks() {
    let mut m = mem(ProtocolKind::Amnt(AmntConfig::default()), 4 * MIB);
    // An unaligned 200-byte record spanning four blocks.
    let record: Vec<u8> = (0..200u16).map(|i| (i % 251) as u8).collect();
    let addr = 0x1000 + 37;
    let mut t = m.write_bytes(0, addr, &record).unwrap();
    let mut back = vec![0u8; record.len()];
    t = m.read_bytes(t, addr, &mut back).unwrap();
    assert_eq!(back, record);
    // Neighbouring bytes in the partially-written blocks stayed zero.
    let mut edge = [0u8; 8];
    t = m.read_bytes(t, addr - 8, &mut edge).unwrap();
    assert_eq!(edge, [0u8; 8]);
    // And the record survives a crash.
    m.crash();
    m.recover().unwrap();
    let mut back2 = vec![0u8; record.len()];
    m.read_bytes(t, addr, &mut back2).unwrap();
    assert_eq!(back2, record);
}

#[test]
fn byte_granular_api_detects_tampering() {
    let mut m = mem(ProtocolKind::Leaf, 4 * MIB);
    let t = m.write_bytes(0, 0x2000, b"sensitive record").unwrap();
    m.nvm_mut().tamper_flip_bit(0x2005, 2);
    let mut buf = [0u8; 16];
    // Byte reads defer leaf-MAC checks like block reads do; the flush
    // surfaces the tampering no later than the next commit point.
    let got = m.read_bytes(t, 0x2000, &mut buf).and_then(|t| {
        m.flush_verify_queue()?;
        Ok(t)
    });
    assert!(got.is_err());
}
