//! Fault-injection observability: every injected device fault that
//! strikes must surface on the trace timeline as a `fault`-category
//! instant carrying the `FaultPlan` ordinal, strike kind, and op index —
//! and recovery must leave its work breakdown in the trace counters.

use amnt_core::{ProtocolKind, SecureMemory, SecureMemoryConfig};
use amnt_nvm::{FaultPlan, TornHalf};
use amnt_trace::{TraceConfig, TraceEvent};

const MIB: u64 = 1024 * 1024;

fn traced_controller(kind: ProtocolKind) -> SecureMemory {
    let mut m =
        SecureMemory::new(SecureMemoryConfig::with_capacity(16 * MIB), kind).expect("controller");
    m.enable_tracing(TraceConfig::default());
    m
}

/// Writes blocks until the armed fault cuts power (device errors stop the
/// loop), then returns the last completed timestamp.
fn write_until_power_fails(m: &mut SecureMemory) -> u64 {
    let mut t = 0;
    for i in 0u64..200 {
        match m.write_block(t, (i % 64) * 64, &[i as u8; 64]) {
            Ok(done) => t = done,
            Err(_) => return t,
        }
    }
    panic!("fault plan never fired");
}

fn fault_events(m: &SecureMemory) -> (Vec<TraceEvent>, amnt_trace::TraceReport) {
    let report = m.trace_report().expect("tracing was enabled");
    let events = report
        .events
        .iter()
        .filter(|e| e.cat == "fault")
        .cloned()
        .collect();
    (events, report)
}

fn arg(ev: &TraceEvent, key: &str) -> Option<u64> {
    ev.used_args().find(|(k, _)| *k == key).map(|(_, v)| v)
}

#[test]
fn clean_power_cut_leaves_a_power_off_instant() {
    let mut m = traced_controller(ProtocolKind::Leaf);
    let ordinal = 5;
    m.nvm_mut().arm_fault_hook(FaultPlan::crash_after(ordinal));
    write_until_power_fails(&mut m);
    m.crash();
    // Mid-op power cuts may recover or surface as a detected error (the
    // fault sweep's acceptance property); either way the strike is traced.
    let _ = m.recover();

    let (faults, report) = fault_events(&m);
    assert_eq!(faults.len(), 1, "{faults:?}");
    assert_eq!(faults[0].name, "power_off");
    assert_eq!(arg(&faults[0], "ordinal"), Some(ordinal));
    assert_eq!(arg(&faults[0], "kind"), Some(0));
    assert!(arg(&faults[0], "op_index").is_some());
    assert_eq!(report.counter("crashes"), Some(1));
}

#[test]
fn recovery_breakdown_lands_in_counters() {
    // A clean crash at an op boundary always recovers; the recovery-work
    // breakdown must land in the trace counters and a `recovery` instant.
    let mut m = traced_controller(ProtocolKind::Leaf);
    let mut t = 0;
    for i in 0u64..8 {
        t = m.write_block(t, i * 64, &[i as u8; 64]).expect("write");
    }
    m.crash();
    m.recover().expect("boundary crash recovers");

    let report = m.trace_report().expect("traced");
    assert_eq!(report.counter("crashes"), Some(1));
    assert_eq!(report.counter("recovery.runs"), Some(1));
    assert!(report.counter("recovery.nvm_reads").unwrap_or(0) > 0);
    assert!(report
        .events
        .iter()
        .any(|e| e.cat == "recovery" && e.name == "recovery"));
}

#[test]
fn torn_halves_are_distinguished_by_kind() {
    for (half, kind, name) in [
        (TornHalf::First, 1, "torn_first"),
        (TornHalf::Last, 2, "torn_last"),
    ] {
        let mut m = traced_controller(ProtocolKind::Leaf);
        m.nvm_mut().arm_fault_hook(FaultPlan::torn_after(3, half));
        write_until_power_fails(&mut m);
        m.crash();
        let _ = m.recover(); // torn metadata may be a detected error — fine

        let (faults, _) = fault_events(&m);
        assert!(!faults.is_empty(), "{name}: no fault instant");
        assert_eq!(faults[0].name, name);
        assert_eq!(arg(&faults[0], "kind"), Some(kind));
        assert_eq!(arg(&faults[0], "ordinal"), Some(3));
    }
}

#[test]
fn dropped_wpq_tail_strikes_at_crash_time() {
    let mut m = traced_controller(ProtocolKind::Leaf);
    m.nvm_mut().arm_fault_hook(FaultPlan::drop_tail(2));
    let mut t = 0;
    for i in 0u64..16 {
        t = m.write_block(t, i * 64, &[i as u8; 64]).expect("write");
    }
    m.crash(); // the drop plan strikes here, as the WPQ tail is discarded
    let _ = m.recover();

    let (faults, report) = fault_events(&m);
    assert!(!faults.is_empty(), "no wpq_drop instant recorded");
    assert!(faults.iter().all(|e| e.name == "wpq_drop"));
    assert!(faults.iter().all(|e| arg(e, "kind") == Some(3)));
    assert!(report.counter("nvm.wpq_dropped").unwrap_or(0) > 0);
}

#[test]
fn unfaulted_runs_have_no_fault_events() {
    let mut m = traced_controller(ProtocolKind::Leaf);
    let mut t = 0;
    for i in 0u64..8 {
        t = m.write_block(t, i * 64, &[1u8; 64]).expect("write");
    }
    let (faults, report) = fault_events(&m);
    assert!(faults.is_empty(), "{faults:?}");
    assert_eq!(
        report.counter("crashes"),
        None,
        "no crash => counter never registered"
    );
}

/// Each span of a recovery phase tree: name, start relative to the root
/// span's, duration and `reads`/`writes`/`hashes` args.
type PhaseSpan = (&'static str, u64, u64, [u64; 3]);

/// One recovery's phase tree, innermost-first as the spans close. Checks
/// every phase is a child of the root span, which is itself a root, and
/// returns the root's start.
fn phase_tree(spans: &[TraceEvent]) -> (u64, Vec<PhaseSpan>) {
    let root = spans.last().expect("a root span");
    assert_eq!((root.name, root.parent), ("recovery", 0), "{spans:?}");
    assert!(
        spans[..spans.len() - 1].iter().all(|e| e.parent == root.id),
        "{spans:?}"
    );
    let args =
        |e: &TraceEvent| ["reads", "writes", "hashes"].map(|k| arg(e, k).unwrap_or(u64::MAX));
    let tree = spans
        .iter()
        .map(|e| (e.name, e.ts - root.ts, e.dur, args(e)))
        .collect();
    (root.ts, tree)
}

#[test]
fn recovery_phase_tree_closes_on_failure_and_on_success() {
    // Leaf recovery rebuilds the tree from the counters; a counter line
    // flipped between the crash and the recovery makes the rebuilt root
    // contradict the register, so `recovery.rebuild_subtree` fails.
    let mut m = traced_controller(ProtocolKind::Leaf);
    let mut t = 0;
    for i in 0u64..8 {
        t = m.write_block(t, i * 64, &[i as u8; 64]).expect("write");
    }
    m.crash();
    let counter = m.geometry().counter_addr(0);
    m.nvm_mut().tamper_flip_bit(counter + 5, 1);
    assert_eq!(m.recover(), Err(amnt_core::RecoveryError::RootMismatch));

    // Every phase, the failed one included, closed under the root span, and
    // the failed phase counts no hashes.
    let report = m.trace_report().expect("traced");
    let failed: Vec<_> = report
        .events
        .iter()
        .filter(|e| e.cat == "recovery")
        .cloned()
        .collect();
    let (start, tree) = phase_tree(&failed);
    assert_eq!(
        tree,
        [
            ("recovery.scan", 0, 1, [0, 0, 0]),
            ("recovery.rebuild_subtree", 1, 99, [88, 10, 0]),
            ("recovery", 0, 100, [88, 10, 0]),
        ]
    );
    assert_eq!(report.dropped_frames, 0);

    // Undoing the tamper lets the same controller recover. Its root span is
    // a root again, starting where the failed one ended: the failed
    // recovery left no frame open.
    m.nvm_mut().tamper_flip_bit(counter + 5, 1);
    m.recover()
        .expect("the untampered counters rebuild the root");
    let report = m.trace_report().expect("traced");
    let spans: Vec<_> = report
        .events
        .iter()
        .filter(|e| e.cat == "recovery")
        .cloned()
        .collect();
    let (restart, tree) = phase_tree(&spans[failed.len()..]);
    assert_eq!(restart, start + 100);
    assert_eq!(
        tree,
        [
            ("recovery.scan", 0, 1, [0, 0, 0]),
            ("recovery.rebuild_subtree", 1, 187, [88, 10, 88]),
            ("recovery", 0, 188, [88, 10, 0]),
        ]
    );
    assert_eq!(report.dropped_frames, 0);
}
