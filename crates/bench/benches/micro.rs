//! Micro-benchmarks for every substrate: crypto primitives, the cache
//! model, BMT operations, the AMNT history buffer, the buddy allocator, and
//! the secure-memory controller's read/write paths.
//!
//! Plain `harness = false` binary timed with [`amnt_bench::time_bench`]
//! (std::time, no criterion): run with `cargo bench -p amnt-bench`.

use amnt_bench::time_bench;
use std::hint::black_box;

fn bench_crypto() {
    use amnt_crypto::{sha256, Aes128, CtrEngine, HmacSha256};
    println!("-- crypto");
    let aes = Aes128::new(&[7u8; 16]);
    let mut block = [0xABu8; 16];
    time_bench("crypto/aes128_block", 200_000, || {
        aes.encrypt_block(black_box(&mut block));
    });
    let data64 = [0x5Au8; 64];
    time_bench("crypto/sha256_64B", 100_000, || sha256(black_box(&data64)));
    let hmac = HmacSha256::new(b"bench key");
    time_bench("crypto/hmac_mac64_64B", 50_000, || {
        hmac.mac64(black_box(&data64))
    });
    let items: [(&HmacSha256, &[u8]); 8] = [(&hmac, &data64[..]); 8];
    // Divide by 8 mentally to compare per-MAC: one call verifies 8 MACs.
    time_bench("crypto/mac64_batch8_64B", 50_000, || {
        amnt_crypto::mac64_batch(black_box(&items))
    });
    let engine = CtrEngine::new(&[9u8; 16]);
    let data = [0x11u8; 64];
    time_bench("crypto/ctr_encrypt_block", 50_000, || {
        engine.encrypt_block(black_box(0x1000), 5, 3, black_box(&data))
    });
}

fn bench_cache() {
    use amnt_cache::{CacheConfig, SetAssocCache};
    println!("-- cache");
    let mut cache = SetAssocCache::new(CacheConfig::new(64 * 1024, 8, 64)).unwrap();
    cache.fill(0x40, false);
    time_bench("cache/access_hit", 500_000, || {
        cache.access(black_box(0x40), false)
    });
    let mut cache = SetAssocCache::new(CacheConfig::new(64 * 1024, 8, 64)).unwrap();
    let mut addr = 0u64;
    time_bench("cache/fill_evict_cycle", 500_000, || {
        addr = addr.wrapping_add(64);
        cache.fill(black_box(addr), addr % 128 == 0)
    });
    let mut cache = SetAssocCache::new(CacheConfig::new(64 * 1024, 8, 64)).unwrap();
    for i in 0..1024u64 {
        cache.fill(i * 64, i % 3 == 0);
    }
    time_bench("cache/dirty_scan_64kB", 10_000, || {
        cache.dirty_lines().count()
    });
}

fn bench_bmt() {
    use amnt_bmt::{Bmt, BmtGeometry, CounterBlock};
    use amnt_nvm::{Nvm, NvmConfig};
    println!("-- bmt");
    let mut ctr = CounterBlock::new();
    for slot in 0..64 {
        for _ in 0..(slot % 7) {
            ctr.increment(slot);
        }
    }
    time_bench("bmt/counter_encode_decode", 100_000, || {
        CounterBlock::decode(black_box(&ctr.encode()))
    });
    let geometry = BmtGeometry::new(2 * 1024 * 1024).unwrap();
    let bmt = Bmt::new(geometry, b"bench");
    let mut nvm = Nvm::new(NvmConfig::gib(1));
    for i in 0..8u64 {
        let mut c = CounterBlock::new();
        c.increment(i as usize % 64);
        bmt.write_counter(&mut nvm, i, &c).unwrap();
    }
    let node = amnt_bmt::NodeId {
        level: bmt.geometry().bottom_level(),
        index: 0,
    };
    time_bench("bmt/compute_node_8_children", 10_000, || {
        bmt.compute_node(black_box(&mut nvm), node).unwrap()
    });
    let geometry = BmtGeometry::new(2 * 1024 * 1024).unwrap();
    let bmt = Bmt::new(geometry, b"bench");
    let mut nvm = Nvm::new(NvmConfig::gib(1));
    let mut c = CounterBlock::new();
    c.increment(0);
    bmt.write_counter(&mut nvm, 0, &c).unwrap();
    time_bench("bmt/build_full_2MiB", 20, || {
        bmt.build_full(black_box(&mut nvm)).unwrap()
    });
}

fn bench_history_buffer() {
    use amnt_core::HistoryBuffer;
    println!("-- history_buffer");
    let mut hb = HistoryBuffer::new(64);
    for r in 0..64 {
        hb.record(r);
    }
    let mut r = 0u64;
    time_bench("history_buffer/record_resident_region", 500_000, || {
        r = (r + 1) % 64;
        hb.record(black_box(r))
    });
    let mut hb = HistoryBuffer::new(64);
    let mut r = 0u64;
    time_bench("history_buffer/record_with_replacement", 500_000, || {
        r += 1; // always a fresh region: worst case
        hb.record(black_box(r))
    });
}

fn bench_buddy() {
    use amnt_os::BuddyAllocator;
    println!("-- buddy");
    let mut buddy = BuddyAllocator::new(1 << 16);
    time_bench("buddy/alloc_free_page", 200_000, || {
        let pfn = buddy.alloc_pages(0).unwrap();
        buddy.free_pages(black_box(pfn));
    });
    let mut buddy = BuddyAllocator::new(1 << 14);
    let pfns: Vec<u64> = (0..(1 << 14))
        .map(|_| buddy.alloc_pages(0).unwrap())
        .collect();
    for &p in pfns.iter().step_by(4) {
        buddy.free_pages(p);
    }
    time_bench("buddy/restructure_4k_chunks", 200, || {
        buddy.restructure(|pfn| black_box(pfn) / 512)
    });
}

fn bench_controller() {
    use amnt_core::{AmntConfig, ProtocolKind, SecureMemory, SecureMemoryConfig};
    println!("-- controller");
    let setup = |kind: ProtocolKind| {
        let cfg = SecureMemoryConfig::with_capacity(16 * 1024 * 1024);
        let mut mem = SecureMemory::new(cfg, kind).unwrap();
        // Warm the metadata cache over the target region.
        for i in 0..256u64 {
            mem.write_block(0, i * 64, &[1u8; 64]).unwrap();
        }
        mem
    };
    for kind in [
        ("leaf", ProtocolKind::Leaf),
        ("strict", ProtocolKind::Strict),
        ("amnt", ProtocolKind::Amnt(AmntConfig::default())),
    ] {
        let mut mem = setup(kind.1);
        let mut i = 0u64;
        time_bench(
            &format!("controller/write_block_{}", kind.0),
            20_000,
            || {
                i = (i + 1) % 256;
                mem.write_block(0, black_box(i * 64), &[i as u8; 64])
                    .unwrap()
            },
        );
    }
    let mut mem = setup(ProtocolKind::Leaf);
    let mut i = 0u64;
    time_bench("controller/read_block_verified", 20_000, || {
        i = (i + 1) % 256;
        mem.read_block(0, black_box(i * 64)).unwrap()
    });
}

fn bench_extensions() {
    use amnt_core::{HybridConfig, HybridMemory};
    println!("-- extensions");
    let mut mem = HybridMemory::new(HybridConfig::new(1 << 20, 8 << 20)).unwrap();
    let mut t = 0;
    let mut i = 0u64;
    time_bench("extensions/hybrid_write_scm", 20_000, || {
        i = (i + 1) % 128;
        t = mem
            .write_block(t, (1 << 20) + i * 64, &[i as u8; 64])
            .unwrap();
        t
    });
}

fn main() {
    bench_crypto();
    bench_cache();
    bench_bmt();
    bench_history_buffer();
    bench_buddy();
    bench_controller();
    bench_extensions();
}
