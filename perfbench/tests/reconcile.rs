//! Reconciliation, determinism and observer-purity checks on small passes
//! of every workload, plus the command-line contract.

use perfbench::metrics;
use perfbench::workloads::reconcile;
use perfbench::{run_pass, Pass, Sizes, UnitCosts, Workload};
use std::process::Command;

fn pass(w: Workload, seed: u64, traced: bool) -> Pass {
    let p = run_pass(w, seed, &Sizes::SMALL, traced);
    assert_eq!(p.failed, 0, "{}: {:?}", w.name(), p.first_failure);
    assert!(p.attempted > 0);
    p
}

fn assert_same_exact(w: Workload, a: &Pass, b: &Pass, what: &str) {
    let (ea, eb) = (metrics::exact(a), metrics::exact(b));
    assert_eq!(ea.len(), eb.len());
    for (x, y) in ea.iter().zip(&eb) {
        assert_eq!(x.name, y.name);
        assert_eq!(
            x.value.to_bits(),
            y.value.to_bits(),
            "{}: {} differs {what}",
            w.name(),
            x.name
        );
    }
}

#[test]
fn sim_xz_controller_reads_equal_llc_misses() {
    let p = pass(Workload::SimXz, 3, false);
    let sim = p.sim.expect("sim_xz reports the machine's counts");
    assert!(sim.llc_misses > 0);
    assert_eq!(p.load.controller.data_reads, sim.llc_misses);
    reconcile(Workload::SimXz, &p).expect("identity holds");
}

#[test]
fn kv_read_calls_equal_controller_ops() {
    let p = pass(Workload::KvRead, 3, false);
    let c = &p.load.controller;
    assert_eq!(c.data_reads + c.data_writes, Sizes::SMALL.kv_ops);
    assert_eq!(
        p.read_ns.len() as u64 + p.write_ns.len() as u64,
        Sizes::SMALL.kv_ops
    );
    reconcile(Workload::KvRead, &p).expect("identity holds");
}

#[test]
fn recover_2tb_cycles_verify_and_reconcile() {
    let p = pass(Workload::Recover2tb, 3, false);
    assert_eq!(p.cycles.len() as u64, Sizes::SMALL.recover_cycles);
    assert!(p
        .cycles
        .iter()
        .all(|c| c.report.verified && c.report.bytes_read > 0));
    reconcile(Workload::Recover2tb, &p).expect("identity holds");
}

#[test]
fn exact_metrics_repeat_at_one_seed() {
    for w in Workload::ALL {
        let (a, b) = (pass(w, 11, false), pass(w, 11, false));
        assert_same_exact(w, &a, &b, "between two passes at one seed");
    }
}

#[test]
fn another_seed_gives_other_inputs() {
    for w in Workload::ALL {
        let (a, b) = (pass(w, 1, false), pass(w, 2, false));
        let cycles = |p: &Pass| metrics::value_of(&metrics::exact(p), "sim_cycles_per_op");
        assert_ne!(
            cycles(&a),
            cycles(&b),
            "{}: the seed must reach the inputs",
            w.name()
        );
    }
}

#[test]
fn tracing_is_a_pure_observer() {
    for w in Workload::ALL {
        let (plain, traced) = (pass(w, 5, false), pass(w, 5, true));
        assert_same_exact(w, &plain, &traced, "between untraced and traced passes");
        let agg = traced
            .trace
            .as_ref()
            .expect("a traced pass harvests the trace");
        assert!(
            agg.read_wait.count() > 0 && agg.write_wait.count() > 0,
            "{}",
            w.name()
        );
        assert!(
            agg.cycles > 0 && agg.phase_work.contains_key("recovery"),
            "{}",
            w.name()
        );
    }
}

/// Every metric a run puts in its result object is listed in
/// `BENCHMARK.json` with the same unit, and nothing else is.
#[test]
fn benchmark_json_lists_every_reported_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let spec: String = spec.split_whitespace().collect();
    let w = Workload::KvRead;
    let (plain, traced) = (pass(w, 5, false), pass(w, 5, true));
    let untraced = std::slice::from_ref(&plain);
    let e2e = metrics::gated(metrics::end_to_end(untraced, 1.0));
    let layers = metrics::traced_result(
        untraced,
        std::slice::from_ref(&traced),
        &UnitCosts::default(),
    );
    for m in e2e.iter().chain(&layers) {
        let entry = format!("{{\"name\":\"{}\",\"unit\":\"{}\"", m.name, m.unit);
        assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let listed = spec.matches("{\"name\":").count();
    assert_eq!(listed, Workload::ALL.len() + e2e.len() + layers.len());
}

fn run_cli(args: &str, env: &[(&str, &str)]) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args(args.split_whitespace());
    for var in perfbench::provenance::REFUSED_ENV {
        cmd.env_remove(var);
    }
    cmd.envs(env.iter().copied());
    cmd.output().expect("the benchmark binary runs")
}

#[test]
fn refuses_engine_knobs_in_the_environment() {
    for var in perfbench::provenance::REFUSED_ENV {
        let out = run_cli(
            "--workload kv_read --seed 1 --seconds 1 --trace 0",
            &[(var, "1")],
        );
        assert_eq!(out.status.code(), Some(2), "{var} must be refused");
        assert!(
            out.stdout.is_empty(),
            "no result may be printed with {var} set"
        );
    }
}

#[test]
fn rejects_bad_arguments_without_a_result() {
    for args in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload kv_read --seed 1 --seconds 1 --trace 2",
        "--workload kv_read --seed x --seconds 1 --trace 0",
        "--workload kv_read --seconds 1 --trace 0",
        "--workload kv_read --seed 1 --seconds 0 --trace 0",
    ] {
        let out = run_cli(args, &[]);
        assert_eq!(out.status.code(), Some(2), "{args}");
        assert!(out.stdout.is_empty(), "{args}");
    }
}
