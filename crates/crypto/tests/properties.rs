//! Property-based tests for the crypto substrate: seeded deterministic
//! loops over `amnt_prng` (replacing proptest, which the offline workspace
//! cannot depend on). Failures replay exactly — rerun the same test.

use amnt_crypto::{sha256, Aes128, CtrEngine, HmacSha256, Sha256};
use amnt_prng::Rng;

/// CTR mode: decrypt(encrypt(x)) == x for arbitrary data and counters.
#[test]
fn ctr_roundtrip() {
    let mut rng = Rng::seed_from_u64(0xC1_0001);
    for _ in 0..128 {
        let key: [u8; 16] = rng.gen_array();
        let addr = rng.next_u64();
        let major = rng.next_u64();
        let minor = (rng.next_u64() & 0x7f) as u8;
        let data: [u8; 32] = rng.gen_array();
        let engine = CtrEngine::new(&key);
        let mut block = [0u8; 64];
        block[..32].copy_from_slice(&data);
        block[32..].copy_from_slice(&data);
        let ct = engine.encrypt_block(addr, major, minor, &block);
        assert_eq!(engine.decrypt_block(addr, major, minor, &ct), block);
        // Ciphertext differs from plaintext (2^-512 failure probability).
        assert_ne!(ct, block);
    }
}

/// The pad never repeats across distinct (major, minor) pairs for the same
/// address — temporal uniqueness, the heart of CME security.
#[test]
fn ctr_pads_are_temporally_unique() {
    let mut rng = Rng::seed_from_u64(0xC1_0002);
    let engine = CtrEngine::new(&[7; 16]);
    for _ in 0..128 {
        let addr = rng.next_u64();
        let major = rng.gen_range(0..1000);
        let minor_a = (rng.next_u64() & 0x7f) as u8;
        let minor_b = (rng.next_u64() & 0x7f) as u8;
        if minor_a != minor_b {
            assert_ne!(
                engine.pad(addr, major, minor_a),
                engine.pad(addr, major, minor_b)
            );
        }
        assert_ne!(
            engine.pad(addr, major, minor_a),
            engine.pad(addr, major + 1, minor_a)
        );
    }
}

/// Streaming SHA-256 equals one-shot for arbitrary chunkings.
#[test]
fn sha256_chunking_invariance() {
    let mut rng = Rng::seed_from_u64(0xC1_0003);
    for _ in 0..128 {
        let mut data = vec![0u8; rng.gen_range_usize(0..500)];
        rng.fill_bytes(&mut data);
        let oneshot = sha256(&data);
        let mut points: Vec<usize> = (0..rng.gen_range_usize(0..6))
            .map(|_| rng.gen_range_usize(0..500) % (data.len() + 1))
            .collect();
        points.sort_unstable();
        let mut h = Sha256::new();
        let mut prev = 0;
        for p in points {
            h.update(&data[prev..p]);
            prev = p;
        }
        h.update(&data[prev..]);
        assert_eq!(h.finalize(), oneshot);
    }
}

/// AES is a permutation: distinct plaintexts map to distinct ciphertexts
/// under one key.
#[test]
fn aes_is_injective() {
    let mut rng = Rng::seed_from_u64(0xC1_0004);
    for _ in 0..128 {
        let key: [u8; 16] = rng.gen_array();
        let a: [u8; 16] = rng.gen_array();
        let b: [u8; 16] = rng.gen_array();
        if a == b {
            continue;
        }
        let aes = Aes128::new(&key);
        assert_ne!(aes.encrypt(a), aes.encrypt(b));
    }
}

/// HMAC differs across keys and across messages.
#[test]
fn hmac_separates_keys_and_messages() {
    let mut rng = Rng::seed_from_u64(0xC1_0005);
    for _ in 0..64 {
        let mut k1 = vec![0u8; rng.gen_range_usize(1..64)];
        rng.fill_bytes(&mut k1);
        let mut k2 = vec![0u8; rng.gen_range_usize(1..64)];
        rng.fill_bytes(&mut k2);
        let mut msg = vec![0u8; rng.gen_range_usize(0..128)];
        rng.fill_bytes(&mut msg);
        let h1 = HmacSha256::new(&k1);
        let h2 = HmacSha256::new(&k2);
        if k1 != k2 {
            assert_ne!(h1.mac(&msg), h2.mac(&msg));
        }
        let mut msg2 = msg.clone();
        msg2.push(0x55);
        assert_ne!(h1.mac(&msg), h1.mac(&msg2));
    }
}
