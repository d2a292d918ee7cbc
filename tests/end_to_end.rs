//! Whole-stack integration: facade wiring, experiment smoke tests, OS/sim
//! interaction, and cross-crash persistence of an application-level
//! structure.

use midsummer::core::{
    hardware_overhead, AmntConfig, ProtocolKind, RecoveryModel, SecureMemory, SecureMemoryConfig,
};
use midsummer::os::{AllocPolicy, MemoryManager};
use midsummer::sim::{run_pair, run_single, with_amnt_plus, MachineConfig, RunLength};
use midsummer::workloads::{multiprogram_pairs, parsec, spec2017, WorkloadModel};

const MIB: u64 = 1024 * 1024;

#[test]
fn facade_reexports_are_wired() {
    // One call through every module proves the facade links.
    let digest = midsummer::crypto::sha256(b"midsummer");
    assert_eq!(digest.len(), 32);
    let cache =
        midsummer::cache::SetAssocCache::new(midsummer::cache::CacheConfig::new(1024, 2, 64))
            .unwrap();
    assert!(cache.is_empty());
    let nvm = midsummer::nvm::Nvm::new(midsummer::nvm::NvmConfig::gib(1));
    assert_eq!(nvm.generation(), 0);
    let g = midsummer::bmt::BmtGeometry::new(2 * MIB).unwrap();
    assert_eq!(g.counter_blocks(), 512);
    let mm = MemoryManager::new(1024, AllocPolicy::Standard);
    assert_eq!(mm.free_pages(), 1024);
    assert!(WorkloadModel::by_name("lbm").is_some());
}

#[test]
fn fig4_style_cell_smoke() {
    // One cell of Figure 4 at miniature scale: amnt between volatile and
    // strict.
    let model = WorkloadModel::by_name("fluidanimate").unwrap();
    let cfg = MachineConfig::parsec_single().scaled_down(256 * MIB);
    let len = RunLength::quick();
    let vol = run_single(&model, cfg.clone(), ProtocolKind::Volatile, len).unwrap();
    let strict = run_single(&model, cfg.clone(), ProtocolKind::Strict, len).unwrap();
    let amnt = run_single(
        &model,
        cfg,
        ProtocolKind::Amnt(AmntConfig::at_level(2)),
        len,
    )
    .unwrap();
    assert!(vol.cycles < strict.cycles);
    assert!(amnt.cycles < strict.cycles);
}

#[test]
fn fig5_style_pair_smoke_with_amnt_plus() {
    let (a, b) = multiprogram_pairs()[1]; // swaptions + streamcluster
    let ma = WorkloadModel::by_name(a).unwrap();
    let mb = WorkloadModel::by_name(b).unwrap();
    let cfg = MachineConfig::parsec_multi().scaled_down(512 * MIB);
    let len = RunLength::quick();
    let amnt = AmntConfig::at_level(2);
    let plain = run_pair(&ma, &mb, cfg.clone(), ProtocolKind::Amnt(amnt), len).unwrap();
    let plus_cfg = with_amnt_plus(cfg, amnt).unwrap();
    let plus = run_pair(&ma, &mb, plus_cfg, ProtocolKind::Amnt(amnt), len).unwrap();
    assert!(plus.subtree_hit_rate >= plain.subtree_hit_rate - 0.05);
}

#[test]
fn table3_and_table4_invariants() {
    let amnt = hardware_overhead(&ProtocolKind::Amnt(AmntConfig::default()), 64 * 1024);
    let bmf = hardware_overhead(
        &ProtocolKind::Bmf(midsummer::core::BmfConfig::default()),
        64 * 1024,
    );
    assert!(
        amnt.nv_on_chip < bmf.nv_on_chip,
        "AMNT's NV footprint beats BMF's"
    );
    assert_eq!(amnt.volatile_on_chip, 96);

    let model = RecoveryModel::default();
    let tb = 2.0 * 1024.0f64.powi(4);
    let leaf = model.recovery_ms(ProtocolKind::Leaf, tb);
    let l3 = model.recovery_ms(ProtocolKind::Amnt(AmntConfig::at_level(3)), tb);
    assert!(
        (leaf / l3 - 64.0).abs() < 1e-6,
        "L3 recovers 64x faster than leaf"
    );
}

#[test]
fn kv_records_survive_crashes_under_every_recoverable_protocol() {
    for kind in [
        ProtocolKind::Strict,
        ProtocolKind::Leaf,
        ProtocolKind::Osiris(midsummer::core::OsirisConfig::default()),
        ProtocolKind::Anubis(midsummer::core::AnubisConfig::default()),
        ProtocolKind::Bmf(midsummer::core::BmfConfig::default()),
        ProtocolKind::Amnt(AmntConfig::default()),
    ] {
        let mut m = SecureMemory::new(SecureMemoryConfig::with_capacity(8 * MIB), kind).unwrap();
        // "Records": block i tagged with i.
        let mut t = 0;
        for i in 0..500u64 {
            let mut rec = [0u8; 64];
            rec[..8].copy_from_slice(&i.to_le_bytes());
            rec[8] = 0xEE;
            t = m.write_block(t, (i % 200) * 64, &rec).unwrap();
        }
        m.crash();
        let report = m.recover().unwrap_or_else(|e| panic!("{kind}: {e}"));
        assert!(report.verified, "{kind}");
        for i in 300..500u64 {
            let (rec, done) = m.read_block(t, (i % 200) * 64).unwrap();
            assert_eq!(
                u64::from_le_bytes(rec[..8].try_into().unwrap()),
                i,
                "{kind}: stale record after recovery"
            );
            assert_eq!(rec[8], 0xEE, "{kind}");
            t = done;
        }
    }
}

#[test]
fn os_isolation_across_processes() {
    let mut mm = MemoryManager::new(4096, AllocPolicy::Standard);
    let pa1 = mm.translate(1, 0x7000).unwrap();
    let pa2 = mm.translate(2, 0x7000).unwrap();
    assert_ne!(
        pa1 / 4096,
        pa2 / 4096,
        "same vaddr maps to distinct frames per process"
    );
}

#[test]
fn workload_catalog_covers_the_papers_figures() {
    // Figure 4 needs PARSEC; Figure 8 needs the write-intensive trio and
    // the read-intensive pair by name.
    let parsec_names: Vec<&str> = parsec().iter().map(|m| m.name).collect();
    for (a, b) in multiprogram_pairs() {
        assert!(parsec_names.contains(&a));
        assert!(parsec_names.contains(&b));
    }
    let spec_names: Vec<&str> = spec2017().iter().map(|m| m.name).collect();
    for needed in ["xz", "lbm", "deepsjeng", "mcf", "cactuBSSN"] {
        assert!(spec_names.contains(&needed), "{needed} missing");
    }
}

#[test]
fn recovery_traffic_scales_with_subtree_level() {
    // The administrator's dial, measured functionally (paper §6.7).
    let mut traffic = Vec::new();
    for level in [2u32, 3, 4] {
        let mut m = SecureMemory::new(
            SecureMemoryConfig::with_capacity(128 * MIB),
            ProtocolKind::Amnt(AmntConfig::at_level(level)),
        )
        .unwrap();
        let mut t = 0;
        for i in 0..5_000u64 {
            let addr = if i % 4 == 0 {
                ((i * 7919) % 8192) * 4096
            } else {
                (i % 128) * 64
            };
            t = m.write_block(t, addr, &[i as u8; 64]).unwrap();
        }
        m.crash();
        traffic.push(m.recover().unwrap().bytes_read);
    }
    assert!(
        traffic[0] > 4 * traffic[1],
        "L2 {} vs L3 {}",
        traffic[0],
        traffic[1]
    );
    assert!(
        traffic[1] > 4 * traffic[2],
        "L3 {} vs L4 {}",
        traffic[1],
        traffic[2]
    );
}
