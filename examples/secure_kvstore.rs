//! An in-memory key-value store on secure SCM — the class of application
//! the paper's introduction motivates: persistent data served from
//! non-volatile memory with confidentiality, integrity and instant-ish
//! recovery after power failure.
//!
//! The store maps fixed-size keys to fixed-size values over the protected
//! region, one 64-byte block per record, with open-addressed hashing. Every
//! `put` is crash-consistent through the AMNT protocol; after a power
//! failure the store recovers and every committed record is still there and
//! still verifies.
//!
//! ```text
//! cargo run --release --example secure_kvstore
//! ```

use midsummer::core::{AmntConfig, ProtocolKind, SecureMemory, SecureMemoryConfig};

const SLOTS: u64 = 32 * 1024; // 2 MiB of records
const KEY_LEN: usize = 16;
const VAL_LEN: usize = 40;

/// A record block: [tag 1B | key 16B | value 40B | pad].
struct KvStore {
    memory: SecureMemory,
    clock: u64,
}

impl KvStore {
    fn new() -> Self {
        let config = SecureMemoryConfig::with_capacity(SLOTS * 64);
        let memory = SecureMemory::new(config, ProtocolKind::Amnt(AmntConfig::default()))
            .expect("valid configuration");
        KvStore { memory, clock: 0 }
    }

    fn slot_of(key: &[u8; KEY_LEN], probe: u64) -> u64 {
        // FNV-1a over the key, then linear probing.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in key {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        (h.wrapping_add(probe)) % SLOTS
    }

    fn put(&mut self, key: &[u8; KEY_LEN], value: &[u8; VAL_LEN]) {
        for probe in 0..SLOTS {
            let slot = Self::slot_of(key, probe);
            let (block, t) = self.memory.read_block(self.clock, slot * 64).expect("read");
            self.clock = t;
            if block[0] == 0 || &block[1..1 + KEY_LEN] == key {
                let mut record = [0u8; 64];
                record[0] = 1;
                record[1..1 + KEY_LEN].copy_from_slice(key);
                record[1 + KEY_LEN..1 + KEY_LEN + VAL_LEN].copy_from_slice(value);
                self.clock = self
                    .memory
                    .write_block(self.clock, slot * 64, &record)
                    .expect("put");
                return;
            }
        }
        panic!("store full");
    }

    fn get(&mut self, key: &[u8; KEY_LEN]) -> Option<[u8; VAL_LEN]> {
        for probe in 0..SLOTS {
            let slot = Self::slot_of(key, probe);
            let (block, t) = self.memory.read_block(self.clock, slot * 64).expect("read");
            self.clock = t;
            if block[0] == 0 {
                return None;
            }
            if &block[1..1 + KEY_LEN] == key {
                let mut value = [0u8; VAL_LEN];
                value.copy_from_slice(&block[1 + KEY_LEN..1 + KEY_LEN + VAL_LEN]);
                return Some(value);
            }
        }
        None
    }
}

fn key(i: u32) -> [u8; KEY_LEN] {
    let mut k = [0u8; KEY_LEN];
    k[..4].copy_from_slice(&i.to_le_bytes());
    k[4..8].copy_from_slice(b"user");
    k
}

fn value(i: u32) -> [u8; VAL_LEN] {
    let mut v = [(i % 251) as u8; VAL_LEN];
    v[..4].copy_from_slice(&i.wrapping_mul(2654435761).to_le_bytes());
    v
}

fn main() {
    let mut store = KvStore::new();

    // Commit ten thousand records.
    for i in 0..10_000u32 {
        store.put(&key(i), &value(i));
    }
    println!("committed 10000 records");
    println!(
        "  persists to PCM: {}, subtree hit rate {:.1}%, counter overflows {}",
        store.memory.stats().persist_writes,
        store.memory.stats().subtree_hit_rate() * 100.0,
        store.memory.stats().counter_overflows,
    );

    // Power failure mid-service.
    store.memory.crash();
    let report = store.memory.recover().expect("AMNT recovery");
    println!(
        "power failure: recovered with {} bytes of reads (bounded by the subtree), verified = {}",
        report.bytes_read, report.verified
    );

    // Every committed record survived and verifies.
    for i in (0..10_000u32).step_by(97) {
        let got = store.get(&key(i)).expect("record survived the crash");
        assert_eq!(got, value(i), "record {i} corrupted");
    }
    println!("all sampled records intact after recovery");

    // An attacker with physical access cannot silently alter a record.
    let victim = KvStore::slot_of(&key(42), 0) * 64;
    store.memory.nvm_mut().tamper_flip_bit(victim + 20, 1);
    let mut hit_error = false;
    for probe in 0..4 {
        let slot = KvStore::slot_of(&key(42), probe);
        // Verified read: drains the lazy MAC queue so the verdict is inline.
        if store
            .memory
            .read_block_verified(store.clock, slot * 64)
            .is_err()
        {
            hit_error = true;
            break;
        }
    }
    assert!(hit_error, "tampering must be detected");
    println!("physical tampering with a record detected on read");
}
