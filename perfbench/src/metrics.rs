//! Metric definitions: the end-to-end set, measured on untraced passes, and
//! the per-layer set, measured on traced passes. Every metric carries its
//! unit and the clock it was read from.

use crate::stats::{median, percentile, ratio};
use crate::units::UnitCosts;
use crate::workloads::{Cycle, Pass, TraceAgg, BLOCK};
use amnt_core::{RecoveryModel, RecoveryReport};

/// Where a number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host wall time or memory: varies between identical runs.
    Host,
    /// Simulated cycles or modelled time: exact for a seed.
    Sim,
    /// A count or a ratio of counts: exact for a seed.
    Count,
    /// A count times a host unit cost.
    Estimate,
}

impl Clock {
    /// Label printed next to the value.
    pub fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
            Clock::Count => "count",
            Clock::Estimate => "estimate",
        }
    }
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name; per-layer names start with their layer.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Clock the value was read from.
    pub clock: Clock,
    /// The value.
    pub value: f64,
    /// Samples behind a host percentile or median (0 where not a sample
    /// statistic).
    pub samples: usize,
}

fn metric(name: &'static str, unit: &'static str, clock: Clock, value: f64) -> Metric {
    Metric {
        name,
        unit,
        clock,
        value,
        samples: 0,
    }
}

fn sampled(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
    Metric {
        name,
        unit,
        clock: Clock::Host,
        value,
        samples,
    }
}

/// The end-to-end metrics in the result object of an untraced run, where
/// each is held to a bound. Host throughput and latency are printed beside
/// them but not gated: on a shared 2-vCPU KVM guest the engine's speed
/// drifted by 30–40% between runs minutes apart, wider than any bound,
/// while these three stay put. They go into the traced run's result
/// instead, unbounded.
pub const GATED: [&str; 3] = ["setup_s", "sim_cycles_per_op", "peak_rss_mb"];

/// The gated subset of [`end_to_end`].
pub fn gated(end_to_end: Vec<Metric>) -> Vec<Metric> {
    end_to_end
        .into_iter()
        .filter(|m| GATED.contains(&m.name))
        .collect()
}

/// The result object of a traced run: the ungated host end-to-end metrics
/// of its untraced passes, then [`per_layer`]. `sim_recovery_ms` stays
/// out: on `kv_read` and `sim_xz` the crash-time subtree is always fully
/// touched, so this simulated time does not depend on the seed, and a time
/// that reads the same on every run cannot be told from a constant
/// (`recovery.bytes_read_per_cycle` carries the same count).
pub fn traced_result(untraced: &[Pass], traced_passes: &[Pass], costs: &UnitCosts) -> Vec<Metric> {
    let mut out: Vec<Metric> = end_to_end(untraced, 0.0)
        .into_iter()
        .filter(|m| m.clock == Clock::Host && !GATED.contains(&m.name))
        .collect();
    out.extend(per_layer(untraced, traced_passes, costs));
    out
}

/// The value of `name` in `metrics` (0 when absent).
pub fn value_of(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .map_or(0.0, |m| m.value)
}

/// Every exact metric of one pass: the simulated end-to-end pair and the
/// per-layer counts read from public statistics. Two passes at one seed
/// must agree on all of them, traced or not.
pub fn exact(p: &Pass) -> Vec<Metric> {
    use Clock::{Count, Sim};
    let c = &p.load.controller;
    let mc = &p.load.metadata_cache;
    let tl = &p.load.timeline;
    let ops = p.ops;
    let cycles = p.cycles.len() as u64;
    let per_cycle =
        |f: fn(&RecoveryReport) -> u64| ratio(p.cycles.iter().map(|c| f(&c.report)).sum(), cycles);
    let model = RecoveryModel::default();
    let sim_ms: Vec<f64> = p
        .cycles
        .iter()
        .map(|c| model.measured_ms(&c.report))
        .collect();
    let s = p.sim.unwrap_or_default();
    let cycles_per_op = match p.sim {
        Some(s) => ratio(s.cycles, s.accesses),
        None => ratio(c.wait_cycles, ops),
    };
    vec![
        metric("sim_cycles_per_op", "cycles/op", Sim, cycles_per_op),
        metric("sim_recovery_ms", "ms", Sim, median(&sim_ms)),
        metric(
            "sim.l1_hit_rate",
            "ratio",
            Count,
            ratio(s.l1.hits, s.l1.hits + s.l1.misses),
        ),
        metric(
            "sim.l2_hit_rate",
            "ratio",
            Count,
            ratio(s.l2.hits, s.l2.hits + s.l2.misses),
        ),
        metric(
            "sim.llc_misses_per_access",
            "count/op",
            Count,
            ratio(s.llc_misses, s.accesses),
        ),
        metric(
            "os.instructions_per_access",
            "count/op",
            Count,
            ratio(s.os_instructions, s.accesses),
        ),
        metric(
            "core.wait_cycles_per_op",
            "cycles/op",
            Sim,
            ratio(c.wait_cycles, ops),
        ),
        metric(
            "core.persist_writes_per_op",
            "count/op",
            Count,
            ratio(c.persist_writes, ops),
        ),
        metric(
            "core.posted_writes_per_op",
            "count/op",
            Count,
            ratio(c.posted_writes, ops),
        ),
        metric(
            "core.subtree_hit_rate",
            "ratio",
            Count,
            c.subtree_hit_rate(),
        ),
        metric(
            "core.subtree_transitions",
            "count",
            Count,
            c.subtree_transitions as f64,
        ),
        metric(
            "core.counter_overflows",
            "count",
            Count,
            c.counter_overflows as f64,
        ),
        metric(
            "crypto.hashes_per_op",
            "count/op",
            Count,
            ratio(c.hashes, ops),
        ),
        metric(
            "bmt.metadata_fetches_per_op",
            "count/op",
            Count,
            ratio(c.metadata_fetches, ops),
        ),
        metric(
            "bmt.nodes_recomputed_per_cycle",
            "count/cycle",
            Count,
            per_cycle(|r| r.nodes_recomputed),
        ),
        metric(
            "bmt.counters_recovered_per_cycle",
            "count/cycle",
            Count,
            per_cycle(|r| r.counters_recovered),
        ),
        metric(
            "cache.meta_hit_rate",
            "ratio",
            Count,
            ratio(mc.hits, mc.hits + mc.misses),
        ),
        metric(
            "cache.evictions_per_op",
            "count/op",
            Count,
            ratio(mc.evictions, ops),
        ),
        metric(
            "cache.dirty_evictions_per_op",
            "count/op",
            Count,
            ratio(mc.dirty_evictions, ops),
        ),
        metric(
            "nvm.reads_per_op",
            "count/op",
            Count,
            ratio(p.nvm.reads, ops),
        ),
        metric(
            "nvm.writes_per_op",
            "count/op",
            Count,
            ratio(p.nvm.writes, ops),
        ),
        metric(
            "nvm.write_amp",
            "ratio",
            Count,
            ratio(p.nvm.bytes_written, c.data_writes * BLOCK),
        ),
        metric(
            "nvm.queue_stall_cycles_per_op",
            "cycles/op",
            Sim,
            ratio(tl.queue_stall_cycles, ops),
        ),
        metric(
            "nvm.bank_wait_cycles_per_op",
            "cycles/op",
            Sim,
            ratio(tl.bank_wait_cycles, ops),
        ),
        metric(
            "nvm.resident_frames",
            "count",
            Count,
            p.resident_frames as f64,
        ),
        metric(
            "recovery.nvm_reads_per_cycle",
            "count/cycle",
            Count,
            per_cycle(|r| r.nvm_reads),
        ),
        metric(
            "recovery.bytes_read_per_cycle",
            "B/cycle",
            Count,
            per_cycle(|r| r.bytes_read),
        ),
        metric(
            "recovery.nvm_writes_per_cycle",
            "count/cycle",
            Count,
            per_cycle(|r| r.nvm_writes),
        ),
        metric(
            "recovery.work_per_cycle",
            "count/cycle",
            Count,
            per_cycle(RecoveryReport::work),
        ),
    ]
}

/// Exact metrics read from the engine's trace layer: the op-wait and
/// verify-drain histograms and the recovery phase tree.
pub fn traced(agg: &TraceAgg) -> Vec<Metric> {
    use Clock::{Count, Sim};
    let phase = |name: &str| ratio(agg.phase_work.get(name).copied().unwrap_or(0), agg.cycles);
    vec![
        metric(
            "core.read_wait_p50",
            "cycles",
            Sim,
            agg.read_wait.percentile(50) as f64,
        ),
        metric(
            "core.read_wait_p99",
            "cycles",
            Sim,
            agg.read_wait.percentile(99) as f64,
        ),
        metric(
            "core.write_wait_p50",
            "cycles",
            Sim,
            agg.write_wait.percentile(50) as f64,
        ),
        metric(
            "core.write_wait_p99",
            "cycles",
            Sim,
            agg.write_wait.percentile(99) as f64,
        ),
        metric(
            "core.verify_drain_batch_p50",
            "count",
            Count,
            agg.drain_batch.percentile(50) as f64,
        ),
        metric(
            "recovery.scan_work_per_cycle",
            "count/cycle",
            Count,
            phase("recovery.scan"),
        ),
        metric(
            "recovery.rebuild_counters_work_per_cycle",
            "count/cycle",
            Count,
            phase("recovery.rebuild_counters"),
        ),
        metric(
            "recovery.rebuild_subtree_work_per_cycle",
            "count/cycle",
            Count,
            phase("recovery.rebuild_subtree"),
        ),
        metric(
            "recovery.audit_work_per_cycle",
            "count/cycle",
            Count,
            phase("recovery.audit"),
        ),
    ]
}

/// The least-contended half of `passes`: the fastest by load-phase rate.
/// Co-tenants on a small shared host slow whole seconds of a run by up to
/// 1.7x; host-time metrics are read from these passes so that they measure
/// the engine rather than its neighbours. Set-up time is not filtered.
pub fn quiet(passes: &[Pass]) -> Vec<&Pass> {
    let mut ranked: Vec<&Pass> = passes.iter().collect();
    ranked.sort_by(|a, b| rate(b).total_cmp(&rate(a)));
    ranked.truncate(passes.len().div_ceil(2));
    ranked
}

fn rate(p: &Pass) -> f64 {
    p.host_ops as f64 / p.load_s
}

/// The end-to-end metrics of a run's untraced passes: host-time metrics
/// from their [`quiet`] half, set-up over all of them. `peak_rss_mb` is
/// the process's high-water mark.
pub fn end_to_end(passes: &[Pass], peak_rss_mb: f64) -> Vec<Metric> {
    let quiet = quiet(passes);
    let pooled =
        |f: fn(&Pass) -> Vec<u64>| -> Vec<u64> { quiet.iter().flat_map(|p| f(p)).collect() };
    let reads = pooled(|p| p.read_ns.clone());
    let writes = pooled(|p| p.write_ns.clone());
    let recovers = pooled(|p| p.cycles.iter().map(|c| c.recover_ns).collect());
    let setups: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    let rates: Vec<f64> = quiet.iter().map(|p| rate(p)).collect();
    let first = passes.first().map(exact).unwrap_or_default();
    let us = |ns: u64| ns as f64 / 1e3;
    let ms = |ns: u64| ns as f64 / 1e6;
    vec![
        sampled("setup_s", "s", median(&setups), setups.len()),
        sampled("throughput_ops_s", "1/s", median(&rates), rates.len()),
        sampled(
            "read_p50_us",
            "us",
            us(percentile(&reads, 50.0)),
            reads.len(),
        ),
        sampled(
            "read_p99_us",
            "us",
            us(percentile(&reads, 99.0)),
            reads.len(),
        ),
        sampled(
            "write_p50_us",
            "us",
            us(percentile(&writes, 50.0)),
            writes.len(),
        ),
        sampled(
            "write_p99_us",
            "us",
            us(percentile(&writes, 99.0)),
            writes.len(),
        ),
        sampled(
            "recover_p50_ms",
            "ms",
            ms(percentile(&recovers, 50.0)),
            recovers.len(),
        ),
        sampled(
            "recover_p90_ms",
            "ms",
            ms(percentile(&recovers, 90.0)),
            recovers.len(),
        ),
        metric(
            "sim_cycles_per_op",
            "cycles/op",
            Clock::Sim,
            value_of(&first, "sim_cycles_per_op"),
        ),
        metric(
            "sim_recovery_ms",
            "ms",
            Clock::Sim,
            value_of(&first, "sim_recovery_ms"),
        ),
        metric("peak_rss_mb", "MB", Clock::Host, peak_rss_mb),
    ]
}

/// The per-layer metrics, one layer after another: exact counts from the
/// first traced pass, host spans from the untraced passes, unit costs, and
/// the tracing overhead (traced over untraced load time).
pub fn per_layer(untraced: &[Pass], traced_passes: &[Pass], costs: &UnitCosts) -> Vec<Metric> {
    use Clock::{Estimate, Host};
    let first = traced_passes.first().expect("a traced pass");
    let counts = exact(first);
    let hists = first.trace.as_ref().map(traced).unwrap_or_default();
    let count = |name: &'static str| {
        counts
            .iter()
            .chain(&hists)
            .find(|m| m.name == name)
            .cloned()
            .expect("defined above")
    };
    let load = |ps: &[Pass]| median(&quiet(ps).iter().map(|p| p.load_s).collect::<Vec<_>>());
    let untraced_quiet = quiet(untraced);
    let span_ms = |name: &'static str, f: fn(&Cycle) -> u64| {
        let all: Vec<f64> = untraced_quiet
            .iter()
            .flat_map(|p| p.cycles.iter().map(|c| f(c) as f64 / 1e6))
            .collect();
        sampled(name, "ms", median(&all), all.len())
    };
    let audits: Vec<f64> = untraced_quiet.iter().map(|p| p.audit_s * 1e3).collect();
    let hashes_per_op = count("crypto.hashes_per_op").value;
    let mut out = vec![
        metric(
            "workloads.gen_ns_per_event",
            "ns",
            Host,
            costs.gen_ns_per_event,
        ),
        count("sim.l1_hit_rate"),
        count("sim.l2_hit_rate"),
        count("sim.llc_misses_per_access"),
        metric("sim.cache_access_ns", "ns", Host, costs.l1_access_ns),
        sampled("load.run_s", "s", load(untraced), untraced.len()),
        count("os.instructions_per_access"),
    ];
    out.extend(
        [
            "core.wait_cycles_per_op",
            "core.read_wait_p50",
            "core.read_wait_p99",
            "core.write_wait_p50",
            "core.write_wait_p99",
            "core.persist_writes_per_op",
            "core.posted_writes_per_op",
            "core.subtree_hit_rate",
            "core.subtree_transitions",
            "core.counter_overflows",
            "core.verify_drain_batch_p50",
        ]
        .map(count),
    );
    out.extend([
        sampled("core.audit_ms", "ms", median(&audits), audits.len()),
        count("crypto.hashes_per_op"),
        metric("crypto.mac64_ns", "ns", Host, costs.mac64_ns),
        metric(
            "crypto.mac64_batch8_ns_per_mac",
            "ns",
            Host,
            costs.mac64_batch8_ns_per_mac,
        ),
        metric("crypto.ctr_encrypt_ns", "ns", Host, costs.ctr_encrypt_ns),
        metric(
            "crypto.est_ns_per_op",
            "ns",
            Estimate,
            hashes_per_op * costs.mac64_ns,
        ),
        count("bmt.metadata_fetches_per_op"),
        metric("bmt.compute_node_ns", "ns", Host, costs.compute_node_ns),
        count("bmt.nodes_recomputed_per_cycle"),
        count("bmt.counters_recovered_per_cycle"),
        count("cache.meta_hit_rate"),
        count("cache.evictions_per_op"),
        count("cache.dirty_evictions_per_op"),
        metric("cache.access_ns", "ns", Host, costs.meta_access_ns),
        count("nvm.reads_per_op"),
        count("nvm.writes_per_op"),
        count("nvm.write_amp"),
        count("nvm.queue_stall_cycles_per_op"),
        count("nvm.bank_wait_cycles_per_op"),
        count("nvm.resident_frames"),
        metric("nvm.read_block_ns", "ns", Host, costs.nvm_read_ns),
        metric("nvm.write_block_ns", "ns", Host, costs.nvm_write_ns),
        count("recovery.nvm_reads_per_cycle"),
        count("recovery.bytes_read_per_cycle"),
        count("recovery.nvm_writes_per_cycle"),
        count("recovery.work_per_cycle"),
        count("recovery.scan_work_per_cycle"),
        count("recovery.rebuild_counters_work_per_cycle"),
        count("recovery.rebuild_subtree_work_per_cycle"),
        count("recovery.audit_work_per_cycle"),
        span_ms("recovery.crash_ms", |c| c.crash_ns),
        span_ms("recovery.readback_ms", |c| c.readback_ns),
        metric(
            "trace.overhead_pct",
            "%",
            Host,
            (load(traced_passes) / load(untraced) - 1.0) * 100.0,
        ),
    ]);
    out
}
