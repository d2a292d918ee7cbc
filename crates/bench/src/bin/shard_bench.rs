//! **Shard bench** — the sharded multi-tenant controller artifact.
//!
//! One seeded Zipfian four-tenant mix (distinct per-tenant hot sets in
//! distinct subtree regions), executed at shard counts N ∈ {1, 2, 4} over
//! the same 4 MiB machine. Shards are detached and run as independent jobs
//! on the deterministic executor, so `AMNT_JOBS` is a pure speed knob:
//! `results/shard_bench.json` and the per-shard trace sidecar
//! `results/shard_bench.trace.json` are byte-identical at any worker count
//! (check.sh's sharded smoke `cmp`s both).
//!
//! Pinned claims (perfgate reference rows):
//! * **N=1 is the unsharded machine** — media image and statistics of the
//!   one-shard facade equal a bare [`SecureMemory`] run bit-for-bit
//!   (`bytes_equal` / `stats_equal` = 1).
//! * **Work is shard-invariant** — total data reads/writes are identical
//!   at every N (routing never adds or drops tenant work).
//! * **Shard-crossed sweeps are clean at every N** — [`run_sweep`] over a
//!   seeded [`tenant_mix`] runs every fault class (clean, torn, WPQ tail,
//!   nested recovery, verify queue, tamper) with every shard as the victim:
//!   zero silent corruptions, zero cross-shard disturbances or heals, zero
//!   per-shard recovery bound violations, zero merge failures.
//!
//! `AMNT_SHARD_OPS` scales the mix (default 800); a value that is not a
//! non-negative integer exits with status 2.

use amnt_bench::{count_knob, exec, results_dir, ExperimentResult, HostTimer};
use amnt_core::fault::{run_sweep, tenant_mix};
use amnt_core::{
    AmntConfig, FaultSweepConfig, ProtocolKind, SecureMemory, SecureMemoryConfig, ShardedMemory,
    BLOCK_SIZE,
};
use amnt_trace::{metrics_document, TraceConfig, TraceReport};
use amnt_workloads::{zipfian_mix, TenantOp, ZipfianMixConfig};
use std::io::Write as _;

const MIB: u64 = 1024 * 1024;
const CAPACITY: u64 = 4 * MIB;
const TENANTS: usize = 4;

fn kind() -> ProtocolKind {
    ProtocolKind::Amnt(AmntConfig::at_level(2))
}

fn config() -> SecureMemoryConfig {
    // Small metadata cache: partitions stay under real eviction pressure.
    SecureMemoryConfig::with_capacity(CAPACITY).with_metadata_cache_bytes(4096)
}

/// The global tenant mix: same trace at every shard count.
fn mix(ops: usize) -> Vec<TenantOp> {
    zipfian_mix(&ZipfianMixConfig {
        tenants: TENANTS,
        blocks_per_tenant: CAPACITY / TENANTS as u64 / BLOCK_SIZE as u64,
        theta: 0.99,
        write_fraction: 0.7,
        ops,
        seed: 0x5AAD_BE9C,
    })
}

/// Deterministic payload for global op `i`.
fn payload(i: usize, tenant: usize) -> [u8; BLOCK_SIZE] {
    let mut v = [(tenant as u8).wrapping_mul(0x1D) ^ 0x6B; BLOCK_SIZE];
    v[..8].copy_from_slice(&(i as u64).to_le_bytes());
    v
}

/// What one shard-count run leaves behind.
struct ShardRun {
    mem: ShardedMemory,
    epoch: u64,
    reads: u64,
    writes: u64,
    wait_cycles: u64,
}

/// Runs the mix at `shards` shard domains: detach the engines, give each
/// shard its (order-preserving) sub-trace as one executor job with a local
/// clock from zero, reattach, and seal the epoch.
fn run_sharded(trace: &[TenantOp], shards: usize, workers: usize) -> ShardRun {
    let mut mem =
        ShardedMemory::new(config(), kind(), shards).expect("shard config divides capacity");
    mem.enable_tracing(TraceConfig::default());
    let span = mem.span();

    // Partition the global trace by owning shard, preserving issue order.
    let mut per_shard: Vec<Vec<(u64, bool, [u8; BLOCK_SIZE])>> = vec![Vec::new(); shards];
    for (i, op) in trace.iter().enumerate() {
        let shard = (op.addr / span) as usize;
        per_shard[shard].push((
            op.addr - shard as u64 * span,
            op.is_write,
            payload(i, op.tenant),
        ));
    }

    let engines = mem.detach_shards();
    let jobs: Vec<_> = engines
        .into_iter()
        .zip(per_shard)
        .map(|(mut engine, ops)| {
            move || {
                let mut t = 0u64;
                for (addr, is_write, value) in ops {
                    t = if is_write {
                        engine.write_block(t, addr, &value).expect("shard write")
                    } else {
                        engine.read_block(t, addr).expect("shard read").1
                    };
                }
                engine
            }
        })
        .collect();
    let engines = exec::run_jobs_with(workers, jobs);
    mem.attach_shards(engines).expect("reattach in shard order");
    let sealed = mem.epoch_merge().expect("epoch merge");
    assert!(mem.verify_merge(&sealed), "sealed epoch must verify");

    let (mut reads, mut writes, mut wait_cycles) = (0u64, 0u64, 0u64);
    for s in mem.shard_snapshots() {
        reads += s.controller.data_reads;
        writes += s.controller.data_writes;
        wait_cycles += s.controller.wait_cycles;
    }
    ShardRun {
        mem,
        epoch: sealed.epoch,
        reads,
        writes,
        wait_cycles,
    }
}

/// The unsharded reference: a bare engine over the flat global trace.
fn run_bare(trace: &[TenantOp]) -> SecureMemory {
    let mut engine = SecureMemory::new(config(), kind()).expect("bare engine");
    engine.enable_tracing(TraceConfig::default());
    let mut t = 0u64;
    for (i, op) in trace.iter().enumerate() {
        t = if op.is_write {
            engine
                .write_block(t, op.addr, &payload(i, op.tenant))
                .expect("bare write")
        } else {
            engine.read_block(t, op.addr).expect("bare read").1
        };
    }
    engine
}

fn main() {
    let timer = HostTimer::start();
    let ops = count_knob("AMNT_SHARD_OPS", 800, 0);
    let workers = exec::worker_count();
    let trace = mix(ops);

    println!("=== Shard bench: {TENANTS}-tenant Zipfian mix, {ops} ops, N ∈ {{1, 2, 4}} ===\n");
    let mut result = ExperimentResult::new(
        "shard_bench",
        "sharded controller equivalence + shard-crossed sweep invariants",
    );
    let mut trace_cells: Vec<(String, String, TraceReport)> = Vec::new();

    println!(
        "{:<5}{:>7}{:>9}{:>9}{:>13}{:>7}{:>9}{:>9}{:>9}{:>8}{:>8}",
        "N",
        "epoch",
        "reads",
        "writes",
        "wait_cycles",
        "silent",
        "x_dist",
        "x_heal",
        "bounds",
        "merge",
        "tam_sil"
    );
    for &shards in &[1usize, 2, 4] {
        let row = format!("n{shards}");
        let mut run = run_sharded(&trace, shards, workers);

        // Every fault class at this shard count, on its own small seeded
        // tenant mix with merges mid-run; every counter below but the
        // point and outcome counts is a zero invariant.
        let mut sweep_cfg = FaultSweepConfig {
            seed: 0x5AAD_F001,
            ops: 24,
            capacity: CAPACITY / 4,
            shards,
            merge_every: 8,
            metadata_cache_bytes: 2048,
            ..FaultSweepConfig::default()
        };
        sweep_cfg.workload = tenant_mix(&sweep_cfg);
        let s = run_sweep(kind(), &sweep_cfg).expect("shard sweep");

        println!(
            "{:<5}{:>7}{:>9}{:>9}{:>13}{:>7}{:>9}{:>9}{:>9}{:>8}{:>8}",
            shards,
            run.epoch,
            run.reads,
            run.writes,
            run.wait_cycles,
            s.silent,
            s.cross_shard_disturbances,
            s.cross_shard_heals,
            s.bounds_violations,
            s.merge_failures,
            s.tamper_silent
        );

        result.push(&row, "shards", shards as f64);
        result.push(&row, "epoch", run.epoch as f64);
        result.push(&row, "data_reads", run.reads as f64);
        result.push(&row, "data_writes", run.writes as f64);
        result.push(&row, "wait_cycles", run.wait_cycles as f64);
        result.push(&row, "crash_points", s.crash_points as f64);
        result.push(&row, "recovered", s.recovered as f64);
        result.push(&row, "detected", s.detected as f64);
        result.push(&row, "silent", s.silent as f64);
        result.push(
            &row,
            "cross_shard_disturbances",
            s.cross_shard_disturbances as f64,
        );
        result.push(&row, "cross_shard_heals", s.cross_shard_heals as f64);
        result.push(&row, "bounds_violations", s.bounds_violations as f64);
        result.push(&row, "merge_failures", s.merge_failures as f64);
        result.push(&row, "tamper_points", s.tamper_points as f64);
        result.push(&row, "tamper_silent", s.tamper_silent as f64);

        if shards == 1 {
            // N=1 must be the unsharded machine, bit for bit: same media
            // image, same statistics snapshot — on the *same* trace.
            let mut bare = run_bare(&trace);
            let media_equal = run.mem.media_images().remove(0) == bare.nvm_mut().media_image();
            let stats_equal = run.mem.shard_snapshots()[0] == bare.snapshot();
            assert!(media_equal, "N=1 media image diverged from SecureMemory");
            assert!(stats_equal, "N=1 statistics diverged from SecureMemory");
            result.push(&row, "bytes_equal", f64::from(media_equal));
            result.push(&row, "stats_equal", f64::from(stats_equal));
            println!("     n1 == unsharded SecureMemory: media bytes + stats identical");
        }

        for (i, report) in run.mem.shard_trace_reports().into_iter().enumerate() {
            if let Some(r) = report {
                trace_cells.push((row.clone(), format!("shard{i}"), r));
            }
        }
    }
    println!(
        "\nsilent, cross-shard disturbances/heals, bound violations, merge \
         failures and tamper silents must be zero at every N; total reads \
         and writes must be identical at every N."
    );

    result.set_host(&timer, workers);
    let path = result.save().expect("save results");
    println!("saved {}", path.display());

    // Per-shard span-tree sidecar: one trace report per (N, shard) cell,
    // a pure function of the seeded mix — byte-identical at any AMNT_JOBS.
    let cells: Vec<(String, String, &TraceReport)> = trace_cells
        .iter()
        .map(|(row, col, r)| (row.clone(), col.clone(), r))
        .collect();
    let doc = metrics_document("shard_bench", &cells);
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("results dir");
    let trace_path = dir.join("shard_bench.trace.json");
    let mut f = std::fs::File::create(&trace_path).expect("create shard trace sidecar");
    f.write_all(doc.as_bytes())
        .expect("write shard trace sidecar");
    println!("saved {}", trace_path.display());
}
