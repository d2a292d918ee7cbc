//! End-to-end simulator tests: protocol ordering, AMNT behaviour, AMNT++,
//! profiling, and crash drills through the full machine.

use amnt_core::{AmntConfig, AnubisConfig, BmfConfig, ProtocolKind};
use amnt_sim::{
    profile_pair, profile_single, run_multithread, run_pair, run_single, with_amnt_plus,
    MachineConfig, RunLength, SimError, SimReport,
};
use amnt_workloads::{multiprogram_pairs, WorkloadModel};

const MIB: u64 = 1024 * 1024;

fn model(name: &str) -> WorkloadModel {
    WorkloadModel::by_name(name).expect("catalogued benchmark")
}

fn small_single() -> MachineConfig {
    MachineConfig::parsec_single().scaled_down(256 * MIB)
}

fn small_multi() -> MachineConfig {
    MachineConfig::parsec_multi().scaled_down(256 * MIB)
}

fn run(name: &str, protocol: ProtocolKind) -> SimReport {
    run_single(&model(name), small_single(), protocol, RunLength::quick()).expect("run")
}

#[test]
fn volatile_is_fastest_strict_is_slowest() {
    for name in ["lbm", "fluidanimate"] {
        let vol = run(name, ProtocolKind::Volatile);
        let leaf = run(name, ProtocolKind::Leaf);
        let strict = run(name, ProtocolKind::Strict);
        assert!(
            vol.cycles <= leaf.cycles,
            "{name}: volatile {} > leaf {}",
            vol.cycles,
            leaf.cycles
        );
        assert!(
            leaf.cycles < strict.cycles,
            "{name}: leaf {} !< strict {}",
            leaf.cycles,
            strict.cycles
        );
        // Strict hurts a write-intensive workload substantially (the margin
        // is generous because these are fast, miniature runs).
        assert!(
            strict.cycles as f64 > 1.1 * vol.cycles as f64,
            "{name}: strict {} vs volatile {}",
            strict.cycles,
            vol.cycles
        );
    }
}

#[test]
fn amnt_lands_between_leaf_and_strict_near_leaf() {
    let name = "fluidanimate"; // hot-region friendly
    let vol = run(name, ProtocolKind::Volatile);
    let leaf = run(name, ProtocolKind::Leaf);
    let strict = run(name, ProtocolKind::Strict);
    // The scaled-down (256 MiB) machine needs level 2 to keep the paper's
    // region-coverage ratio (the 8 GiB machine's level-3 regions are 128 MiB).
    let amnt = run(name, ProtocolKind::Amnt(AmntConfig::at_level(2)));
    let n = |r: &SimReport| r.normalized_to(&vol);
    assert!(
        n(&amnt) < n(&strict),
        "amnt {} !< strict {}",
        n(&amnt),
        n(&strict)
    );
    // Near-leaf: within half of the leaf→strict gap of leaf.
    let gap = n(&strict) - n(&leaf);
    assert!(
        n(&amnt) - n(&leaf) < 0.5 * gap,
        "amnt {} too far from leaf {} (strict {})",
        n(&amnt),
        n(&leaf),
        n(&strict)
    );
    assert!(
        amnt.subtree_hit_rate > 0.5,
        "hit rate {}",
        amnt.subtree_hit_rate
    );
}

#[test]
fn every_protocol_completes_on_a_varied_workload() {
    for protocol in [
        ProtocolKind::Volatile,
        ProtocolKind::Strict,
        ProtocolKind::Leaf,
        ProtocolKind::Anubis(AnubisConfig::default()),
        ProtocolKind::Bmf(BmfConfig::default()),
        ProtocolKind::Amnt(AmntConfig::default()),
    ] {
        let r = run("dedup", protocol);
        assert!(r.cycles > 0, "{protocol}");
        assert!(r.accesses > 0, "{protocol}");
    }
}

#[test]
fn anubis_suffers_on_poor_metadata_locality() {
    // canneal: the paper's Anubis pathology (30% metadata-cache hit rate).
    let vol = run("canneal", ProtocolKind::Volatile);
    let anubis = run("canneal", ProtocolKind::Anubis(AnubisConfig::default()));
    let amnt = run("canneal", ProtocolKind::Amnt(AmntConfig::default()));
    let n_anubis = anubis.normalized_to(&vol);
    let n_amnt = amnt.normalized_to(&vol);
    assert!(
        n_anubis > n_amnt,
        "Anubis ({n_anubis:.3}) must trail AMNT ({n_amnt:.3}) on canneal"
    );
    assert!(anubis.snapshot.controller.shadow_writes > 0);
}

#[test]
fn subtree_transitions_are_rare() {
    // Paper §6.2: ~0.3% of accesses in single-program runs.
    let amnt = run("bodytrack", ProtocolKind::Amnt(AmntConfig::default()));
    let rate = amnt.subtree_transitions as f64 / amnt.accesses as f64;
    assert!(rate < 0.02, "transition rate {rate}");
}

#[test]
fn multiprogram_pairs_run_and_amnt_plus_helps_subtree_hit_rate() {
    let (a, b) = multiprogram_pairs()[0]; // bodytrack + fluidanimate
    let cfg = small_multi();
    let amnt = ProtocolKind::Amnt(AmntConfig::default());
    let base = run_pair(&model(a), &model(b), cfg.clone(), amnt, RunLength::quick()).unwrap();
    let plus_cfg = with_amnt_plus(cfg, AmntConfig::default());
    let plus = run_pair(&model(a), &model(b), plus_cfg, amnt, RunLength::quick()).unwrap();
    assert!(plus.restructures > 0, "AMNT++ restructures must run");
    assert!(
        plus.subtree_hit_rate >= base.subtree_hit_rate - 0.02,
        "AMNT++ hit rate {} should not regress vs {}",
        plus.subtree_hit_rate,
        base.subtree_hit_rate
    );
}

#[test]
fn multithread_runs_share_the_address_space() {
    let cfg = MachineConfig::spec_multithread().scaled_down(256 * MIB);
    let r = run_multithread(&model("leela"), cfg, ProtocolKind::Leaf, RunLength::quick())
        .expect("multithread run");
    assert_eq!(r.per_core_cycles.len(), 4);
    assert!(r.per_core_cycles.iter().all(|&c| c > 0));
}

#[test]
fn profiling_reproduces_figure_3_shape() {
    // Single program: physical accesses concentrate; multiprogram: the two
    // address spaces interleave across more of physical memory.
    let single = profile_single(
        &model("lbm"),
        small_single(),
        ProtocolKind::Leaf,
        RunLength::quick(),
    )
    .unwrap();
    let pair = profile_pair(
        &model("perlbench"),
        &model("lbm"),
        small_multi(),
        ProtocolKind::Leaf,
        RunLength::quick(),
    )
    .unwrap();
    let sp = single.physical_profile.as_ref().expect("profile on");
    let mp = pair.physical_profile.as_ref().expect("profile on");
    assert!(!sp.is_empty() && !mp.is_empty());
    assert!(
        mp.len() > sp.len() / 2,
        "multiprogram should touch broadly: {} vs {}",
        mp.len(),
        sp.len()
    );
}

#[test]
fn l3_stats_count_each_demand_access_once() {
    // Regression: the memory-miss path used to touch the L3 a second time
    // after filling it, recording a phantom L3 hit for every LLC miss.
    // Every L2 read miss probes the L3 exactly once, so the L3's read
    // accesses must equal the cores' L2 read misses, and every L3 read
    // miss is by definition a whole-hierarchy miss.
    let (a, b) = multiprogram_pairs()[0];
    let r = run_pair(
        &model(a),
        &model(b),
        small_multi(),
        ProtocolKind::Leaf,
        RunLength::quick(),
    )
    .expect("run");
    let l3 = r.l3_stats.expect("parsec_multi has a shared L3");
    let l2_read_misses: u64 = r
        .core_cache_stats
        .iter()
        .map(|(_, l2)| l2.read_misses)
        .sum();
    assert_eq!(
        l3.read_hits + l3.read_misses,
        l2_read_misses,
        "L3 read accesses must match L2 read misses (phantom L3 touches?)"
    );
    assert_eq!(
        l3.read_misses, r.llc_misses,
        "each L3 read miss is one LLC miss"
    );
    assert!(l3.hits + l3.misses > 0, "workload must exercise the L3");

    // The single-core machine has no L3; its report says so.
    let single = run("lbm", ProtocolKind::Leaf);
    assert!(single.l3_stats.is_none());
    assert_eq!(single.core_cache_stats.len(), 1);
}

#[test]
fn runs_are_deterministic() {
    let a = run("gcc", ProtocolKind::Amnt(AmntConfig::default()));
    let b = run("gcc", ProtocolKind::Amnt(AmntConfig::default()));
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.snapshot, b.snapshot);
}

#[test]
fn machine_crash_drill_recovers() {
    let m = model("bodytrack");
    let cfg = small_single();
    let gen = amnt_workloads::TraceGen::new(&m, 3, 5_000);
    let mut machine = amnt_sim::Machine::new(
        cfg,
        ProtocolKind::Amnt(AmntConfig::default()),
        vec![(1, gen)],
    )
    .unwrap();
    machine.run(0).unwrap();
    machine.secure_mut().crash();
    let report = machine
        .secure_mut()
        .recover()
        .expect("machine-level recovery");
    assert!(report.verified);
    assert!(machine.secure_mut().audit().unwrap());
}

#[test]
fn subtree_level_sweep_monotonicity() {
    // Deeper subtree roots protect less memory: hit rate should not
    // increase as the level moves toward the leaves (Fig. 7's trend).
    let mut rates = Vec::new();
    for level in [2u32, 4, 6] {
        let r = run(
            "fluidanimate",
            ProtocolKind::Amnt(AmntConfig::at_level(level)),
        );
        rates.push(r.subtree_hit_rate);
    }
    assert!(
        rates[0] >= rates[2] - 0.05,
        "level-2 rate {} should beat level-6 rate {}",
        rates[0],
        rates[2]
    );
}

#[test]
fn machine_rejects_subtree_levels_the_tree_cannot_hold() {
    // The 256 MiB machine's tree has stored levels 2..=6.
    for level in [1u32, 7] {
        let kind = ProtocolKind::Amnt(AmntConfig::at_level(level));
        let err = run_single(
            &model("fluidanimate"),
            small_single(),
            kind,
            RunLength::quick(),
        )
        .expect_err("subtree level outside the tree");
        let want = format!("subtree level {level} ");
        assert!(
            matches!(&err, SimError::BadConfig(m) if m.contains(&want)),
            "{err}"
        );
    }
}

#[test]
fn recorded_traces_replay_identically() {
    // Record a synthetic trace, replay it through an identical machine, and
    // require bit-identical measurements.
    use amnt_workloads::{read_trace, write_trace, Event, TraceGen};
    let m = model("x264");
    let total = 12_000u64;
    let events: Vec<Event> = TraceGen::new(&m, 5, total).collect();
    let mut buf = Vec::new();
    write_trace(&mut buf, &events).unwrap();
    let replayed = read_trace(buf.as_slice()).unwrap();

    let run = |source: amnt_workloads::EventStream| {
        let cfg = small_single();
        let mut machine = amnt_sim::Machine::new(
            cfg,
            ProtocolKind::Amnt(AmntConfig::default()),
            vec![(1, source)],
        )
        .unwrap();
        machine.run(1_000).unwrap()
    };
    let live = run(TraceGen::new(&m, 5, total).into());
    let replay = run(replayed.into());
    assert_eq!(live.cycles, replay.cycles);
    assert_eq!(live.snapshot, replay.snapshot);
}
