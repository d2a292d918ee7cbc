//! Adversarial end-to-end scenarios: the physical attacks the threat model
//! (paper §3) is built around, exercised through the public facade.
//!
//! Everything off-chip is attacker-controlled: these tests corrupt, splice
//! and replay device contents and assert that verification catches it.

use midsummer::core::{AmntConfig, IntegrityError, ProtocolKind, SecureMemory, SecureMemoryConfig};

const MIB: u64 = 1024 * 1024;

fn memory(kind: ProtocolKind) -> SecureMemory {
    SecureMemory::new(SecureMemoryConfig::with_capacity(16 * MIB), kind).expect("valid")
}

/// Copy one block's (ciphertext, HMAC) pair over another block — a classic
/// splicing attack. The MAC binds the address, so it must fail.
#[test]
fn splicing_blocks_across_addresses_detected() {
    let mut m = memory(ProtocolKind::Leaf);
    let (a, b) = (0x10000u64, 0x20000u64);
    let mut t = m.write_block(0, a, &[0xAA; 64]).unwrap();
    t = m.write_block(t, b, &[0xBB; 64]).unwrap();

    let g = m.geometry().clone();
    let ct_a = m.nvm_mut().read_block(a).unwrap();
    let mut mac_a = [0u8; 8];
    let (ha, hb) = (g.hmac_addr(a), g.hmac_addr(b));
    m.nvm_mut().read_bytes(ha, &mut mac_a).unwrap();
    // Splice A's data+MAC into B's location.
    m.nvm_mut().write_block(b, &ct_a).unwrap();
    m.nvm_mut().write_bytes(hb, &mac_a).unwrap();

    // The data-MAC verdict may sit in the lazy verify queue; the verified
    // read flushes it inline.
    assert!(
        matches!(
            m.read_block_verified(t, b),
            Err(IntegrityError::DataMac { .. })
        ),
        "spliced block must fail address-bound verification"
    );
    // The original location still verifies.
    assert!(m.read_block_verified(t, a).is_ok());
}

/// Roll back data + HMAC + counter together (a full-record replay). The
/// Bonsai Merkle Tree protects counter freshness, so the stale counter is
/// caught one level up — this is the attack that HMACs alone cannot stop.
#[test]
fn counter_rollback_detected_by_the_tree() {
    let mut m = memory(ProtocolKind::Strict);
    let addr = 0x40000u64;
    let g = m.geometry().clone();
    let ctr_addr = g.counter_addr(g.counter_index(addr));
    let hmac_addr = g.hmac_addr(addr);

    // Version 1.
    let t = m.write_block(0, addr, &[1; 64]).unwrap();
    let old_ct = m.nvm_mut().read_block(addr).unwrap();
    let old_ctr = m.nvm_mut().read_block(ctr_addr).unwrap();
    let mut old_mac = [0u8; 8];
    m.nvm_mut().read_bytes(hmac_addr, &mut old_mac).unwrap();

    // Version 2.
    let t = m.write_block(t, addr, &[2; 64]).unwrap();

    // Attacker restores the complete old record: data + HMAC + counter.
    m.nvm_mut().write_block(addr, &old_ct).unwrap();
    m.nvm_mut().write_block(ctr_addr, &old_ctr).unwrap();
    m.nvm_mut().write_bytes(hmac_addr, &old_mac).unwrap();

    // Drop the cached (fresh) counter so the stale one must be fetched and
    // verified against the tree. (Strict recovery itself is a no-op — it
    // trusts the written-through state — so detection happens on use.)
    m.crash();
    let _ = m.recover();
    let err = m.read_block(t, addr).unwrap_err();
    assert!(
        matches!(
            err,
            IntegrityError::CounterMac { .. } | IntegrityError::DataMac { .. }
        ),
        "rolled-back record must fail freshness verification, got {err:?}"
    );
}

/// Zeroing an initialised block's whole record (data, HMAC, counter) — the
/// "factory reset" attack the zero-MAC convention could invite — is caught
/// by the parent node one level up.
#[test]
fn zeroing_an_initialised_record_detected() {
    let mut m = memory(ProtocolKind::Strict);
    let addr = 0x3000u64;
    let g = m.geometry().clone();
    let t = m.write_block(0, addr, &[9; 64]).unwrap();
    m.crash();
    m.recover().unwrap();
    // Zero everything at leaf level.
    m.nvm_mut().write_block(addr, &[0; 64]).unwrap();
    m.nvm_mut()
        .write_block(g.counter_addr(g.counter_index(addr)), &[0; 64])
        .unwrap();
    m.nvm_mut()
        .write_bytes(g.hmac_addr(addr), &[0u8; 8])
        .unwrap();
    let err = m.read_block(t, addr).unwrap_err();
    assert!(
        matches!(
            err,
            IntegrityError::CounterMac { .. } | IntegrityError::NodeMac { .. }
        ),
        "zeroed record must fail tree verification, got {err:?}"
    );
}

/// Swapping two integrity-tree nodes (same level) is caught because node
/// MACs bind tree positions.
#[test]
fn tree_node_splicing_detected() {
    let mut m = memory(ProtocolKind::Strict);
    let g = m.geometry().clone();
    // Touch two separate regions so two bottom-level nodes are nonzero.
    let t = m.write_block(0, 0, &[1; 64]).unwrap();
    let far = g.coverage_bytes(g.bottom_level()) * 3;
    let t = m.write_block(t, far, &[2; 64]).unwrap();
    m.crash();
    m.recover().unwrap();

    let bottom = g.bottom_level();
    let n0 = g.node_addr(midsummer::bmt::NodeId {
        level: bottom,
        index: 0,
    });
    let n3 = g.node_addr(midsummer::bmt::NodeId {
        level: bottom,
        index: 3,
    });
    let b0 = m.nvm_mut().read_block(n0).unwrap();
    let b3 = m.nvm_mut().read_block(n3).unwrap();
    m.nvm_mut().write_block(n0, &b3).unwrap();
    m.nvm_mut().write_block(n3, &b0).unwrap();

    let err = m.read_block(t, 0).unwrap_err();
    assert!(
        matches!(
            err,
            IntegrityError::CounterMac { .. } | IntegrityError::NodeMac { .. }
        ),
        "transplanted node must fail position-bound verification, got {err:?}"
    );
}

/// Under AMNT, tampering inside the fast subtree's stale region after a
/// crash is caught by the non-volatile subtree register during recovery.
#[test]
fn post_crash_subtree_tamper_fails_recovery() {
    let mut m = memory(ProtocolKind::Amnt(AmntConfig::default()));
    let mut t = 0;
    for i in 0..300u64 {
        t = m.write_block(t, (i % 64) * 64, &[i as u8; 64]).unwrap();
    }
    let _ = t;
    assert!(m.subtree_root().is_some());
    m.crash();
    // Attacker corrupts a counter inside the (stale) subtree while power is
    // out.
    let g = m.geometry().clone();
    m.nvm_mut().tamper_flip_bit(g.counter_addr(0) + 5, 4);
    // Recovery rebuilds the subtree and compares against the NV register.
    match m.recover() {
        Err(_) => {}
        Ok(report) => panic!("tampered subtree must not recover cleanly: {report:?}"),
    }
}

/// Confidentiality: device contents never contain plaintext (beyond
/// negligible-probability coincidences).
#[test]
fn data_at_rest_is_ciphertext() {
    let mut m = memory(ProtocolKind::Leaf);
    let secret = *b"correct horse battery staple!!!!correct horse battery staple!!!!";
    m.write_block(0, 0x5000, &secret).unwrap();
    let at_rest = m.nvm_mut().read_block(0x5000).unwrap();
    assert_ne!(at_rest, secret, "plaintext must never reach the device");
    // And no 8-byte window of the plaintext appears either.
    for w in secret.windows(8) {
        assert!(
            !at_rest.windows(8).any(|c| c == w),
            "plaintext fragment leaked to the device"
        );
    }
}
