//! Observability-layer integration tests: tracing must be a pure
//! observer (identical simulation with it on or off), its accounting
//! must reconcile with the engine's own statistics, and the sparse
//! epoch sampler's deltas must sum exactly to the final snapshot.

use amnt_core::{AmntConfig, AnubisConfig, BmfConfig, ProtocolKind};
use amnt_sim::{run_single, MachineConfig, RunLength, SimReport};
use amnt_workloads::WorkloadModel;

const MIB: u64 = 1024 * 1024;

fn model(name: &str) -> WorkloadModel {
    WorkloadModel::by_name(name).expect("catalogued benchmark")
}

fn traced_config(epoch_cycles: u64) -> MachineConfig {
    let mut cfg = MachineConfig::parsec_single().scaled_down(256 * MIB);
    cfg.trace = Some(amnt_trace::TraceConfig {
        epoch_cycles,
        ..Default::default()
    });
    cfg
}

fn all_protocols() -> Vec<(&'static str, ProtocolKind)> {
    vec![
        ("volatile", ProtocolKind::Volatile),
        ("strict", ProtocolKind::Strict),
        ("leaf", ProtocolKind::Leaf),
        ("anubis", ProtocolKind::Anubis(AnubisConfig::default())),
        ("bmf", ProtocolKind::Bmf(BmfConfig::default())),
        ("amnt", ProtocolKind::Amnt(AmntConfig::default())),
    ]
}

/// Tracing is observational: a traced run and an untraced run of the same
/// cell agree on every measured quantity — only the `trace` harvest
/// differs. This is the report-level form of the artifact byte-identity
/// guarantee (the JSON writers never read `trace`).
#[test]
fn traced_run_matches_untraced_run_exactly() {
    let m = model("fluidanimate");
    for (name, protocol) in all_protocols() {
        let untraced = run_single(
            &m,
            MachineConfig::parsec_single().scaled_down(256 * MIB),
            protocol,
            RunLength::quick(),
        )
        .expect(name);
        let traced =
            run_single(&m, traced_config(50_000), protocol, RunLength::quick()).expect(name);
        assert!(untraced.trace.is_none());
        assert!(
            traced.trace.is_some(),
            "{name}: traced run lost its harvest"
        );
        let mut stripped = traced.clone();
        stripped.trace = None;
        assert_eq!(
            stripped, untraced,
            "{name}: tracing perturbed the simulation"
        );
    }
}

/// Every media write the timeline ever timed was issued as exactly one of
/// the controller's three write classes, so the controller's ledger
/// (persist + posted + shadow) must reconcile with the NVM timeline's
/// write count under every protocol.
#[test]
fn write_ledger_reconciles_with_nvm_timeline() {
    let m = model("lbm"); // write-intensive: exercises every write class
    for (name, protocol) in all_protocols() {
        let r = run_single(
            &m,
            MachineConfig::parsec_single().scaled_down(256 * MIB),
            protocol,
            RunLength::quick(),
        )
        .expect(name);
        let c = &r.snapshot.controller;
        let ledger = c.persist_writes + c.posted_writes + c.shadow_writes;
        assert_eq!(
            ledger, r.snapshot.timeline.writes,
            "{name}: persist {} + posted {} + shadow {} != timeline writes {}",
            c.persist_writes, c.posted_writes, c.shadow_writes, r.snapshot.timeline.writes
        );
    }
}

/// The sparse epoch sampler drops quiet epochs and closes with a tail row
/// at harvest, so summing any cumulative field over all rows must
/// reproduce the final `StatsSnapshot` exactly — nothing double-counted
/// at epoch boundaries, nothing lost after the last boundary.
#[test]
fn epoch_deltas_sum_to_final_snapshot() {
    for (name, protocol) in all_protocols() {
        // A short epoch forces many boundary crossings; the default-length
        // run then also exercises the quiet-epoch skip.
        let r: SimReport = run_single(
            &model("canneal"),
            traced_config(10_000),
            protocol,
            RunLength::quick(),
        )
        .expect(name);
        let trace = r.trace.as_ref().expect("traced run");
        assert!(!trace.epochs.is_empty(), "{name}: sampler emitted no rows");
        let c = &r.snapshot.controller;
        let expected: [(&str, u64); 18] = [
            ("data_reads", c.data_reads),
            ("data_writes", c.data_writes),
            ("wait_cycles", c.wait_cycles),
            ("metadata_fetches", c.metadata_fetches),
            ("persist_writes", c.persist_writes),
            ("posted_writes", c.posted_writes),
            ("hashes", c.hashes),
            ("subtree_hits", c.subtree_hits),
            ("subtree_misses", c.subtree_misses),
            ("subtree_transitions", c.subtree_transitions),
            ("counter_overflows", c.counter_overflows),
            ("shadow_writes", c.shadow_writes),
            ("meta_cache_hits", r.snapshot.metadata_cache.hits),
            ("meta_cache_misses", r.snapshot.metadata_cache.misses),
            ("media_reads", r.snapshot.timeline.reads),
            ("media_writes", r.snapshot.timeline.writes),
            ("queue_stall_cycles", r.snapshot.timeline.queue_stall_cycles),
            ("bank_wait_cycles", r.snapshot.timeline.bank_wait_cycles),
        ];
        for (field, want) in expected {
            assert_eq!(
                trace.epoch_sum(field),
                Some(want),
                "{name}: Σ epochs[{field}] != final snapshot"
            );
        }
        // Rows arrive in strictly increasing epoch order.
        let epochs: Vec<u64> = trace.epochs.iter().map(|row| row.epoch).collect();
        let mut sorted = epochs.clone();
        sorted.dedup();
        assert_eq!(epochs, sorted, "{name}: duplicate or unordered epoch rows");
        assert!(
            epochs.windows(2).all(|w| w[0] < w[1]),
            "{name}: epochs not increasing"
        );
    }
}
