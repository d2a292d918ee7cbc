//! The three closed-loop workloads: one client on one thread, each engine
//! call completing before the next is issued, AMNT at its default level.
//!
//! A *pass* is one set-up, one load phase and a run of crash cycles (write
//! a burst, pull the power, recover, read the burst back). Everything a
//! pass counts depends only on the seed and the [`Sizes`], so the passes of
//! one run must repeat their exact counts bit for bit; only host time
//! varies between them.

use crate::stats::Hist;
use amnt_cache::{CacheConfig, CacheStats};
use amnt_core::{
    AmntConfig, MemTiming, ProtocolKind, RecoveryReport, SecureMemory, SecureMemoryConfig,
    StatsSnapshot, WriteQueueConfig,
};
use amnt_nvm::NvmStats;
use amnt_os::AllocPolicy;
use amnt_prng::Rng;
use amnt_sim::{HierarchyTiming, Machine, MachineConfig};
use amnt_trace::{TraceConfig, TraceReport};
use amnt_workloads::{Event, SparseHotSet, TraceGen, WorkloadModel};
use std::collections::BTreeMap;
use std::time::Instant;

/// Bytes per block.
pub const BLOCK: u64 = 64;
/// Bytes per page.
pub const PAGE: u64 = 4096;
const MIB: u64 = 1 << 20;
const GIB: u64 = 1 << 30;
const TIB: u64 = 1 << 40;

/// Share of `kv_read` load calls that are writes.
const KV_WRITE_SHARE: f64 = 0.1;
/// One write in this many of a `recover_2tb` burst goes to the cold set.
const COLD_EVERY: usize = 8;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The trace-driven `Machine` running the `xz` model (full stack).
    SimXz,
    /// `SecureMemory` used directly as a key-value store, 90% reads.
    KvRead,
    /// Crash/recover cycles on a sparse 2 TiB device.
    Recover2tb,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::SimXz, Workload::KvRead, Workload::Recover2tb];

    /// The name used on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimXz => "sim_xz",
            Workload::KvRead => "kv_read",
            Workload::Recover2tb => "recover_2tb",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Protected data capacity of the workload's device.
    pub fn capacity(self) -> u64 {
        match self {
            Workload::SimXz => 8 * GIB,
            Workload::KvRead => GIB,
            Workload::Recover2tb => 2 * TIB,
        }
    }
}

/// How much work one pass does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// `sim_xz`: simulated accesses per pass, warm-up included.
    pub sim_accesses: u64,
    /// `sim_xz`: warm-up accesses before statistics reset.
    pub sim_warmup: u64,
    /// `kv_read`: keys, one per page, all written during set-up.
    pub kv_keys: u64,
    /// `kv_read`: load-phase calls per pass.
    pub kv_ops: u64,
    /// `recover_2tb`: bytes of the hot span written during set-up.
    pub hot_bytes: u64,
    /// `recover_2tb`: pages of the fixed cold set.
    pub cold_pages: u64,
    /// `recover_2tb`: crash cycles per pass (its load phase).
    pub recover_cycles: u64,
    /// Writes per crash cycle.
    pub burst: usize,
    /// Crash cycles closing each `sim_xz` and `kv_read` pass.
    pub closing_cycles: u64,
}

impl Sizes {
    /// The sizes the benchmark runs.
    pub const STANDARD: Sizes = Sizes {
        sim_accesses: 220_000,
        sim_warmup: 20_000,
        kv_keys: 65_536,
        kv_ops: 200_000,
        hot_bytes: 16 * MIB,
        cold_pages: 512,
        recover_cycles: 100,
        burst: 256,
        closing_cycles: 16,
    };

    /// Small sizes for tests.
    pub const SMALL: Sizes = Sizes {
        sim_accesses: 12_000,
        sim_warmup: 2_000,
        kv_keys: 2_048,
        kv_ops: 6_000,
        hot_bytes: MIB,
        cold_pages: 32,
        recover_cycles: 4,
        burst: 64,
        closing_cycles: 2,
    };
}

/// The protocol every workload runs: AMNT at its default subtree level.
pub fn protocol() -> ProtocolKind {
    ProtocolKind::Amnt(AmntConfig::default())
}

/// The engine configuration, every field set here: Table 1 parameters over
/// `capacity` bytes, lazy verify queue of 8, prefetch off. Nothing is read
/// from the environment.
pub fn secure_config(capacity: u64) -> SecureMemoryConfig {
    let mut cfg = SecureMemoryConfig::with_capacity(capacity);
    cfg.data_capacity = capacity;
    cfg.metadata_cache = CacheConfig::new(64 * 1024, 8, 64);
    cfg.timing = MemTiming {
        pcm_read: 610,
        pcm_write: 782,
        metadata_cache: 2,
        hash: 40,
        aes: 24,
    };
    cfg.write_queue = WriteQueueConfig {
        banks: 8,
        depth: 32,
    };
    cfg.trusted_ancestor_caching = true;
    cfg.parallel_path_fetch = false;
    cfg.encryption_key = *b"midsummer-ctr-k!";
    cfg.integrity_key = *b"midsummer-integrity-hmac-key-32b";
    cfg.verify_queue = 8;
    cfg.subtree_prefetch = false;
    cfg
}

/// The `sim_xz` machine: Table 1's single-program PARSEC machine (one core,
/// 32 KiB L1D, 1 MiB L2, 8 GiB PCM, fresh-boot allocator), every field set
/// here so no environment knob can reach it.
pub fn machine_config(traced: bool) -> MachineConfig {
    let mut cfg = MachineConfig::parsec_single();
    cfg.cores = 1;
    cfg.l1d = CacheConfig::new(32 * 1024, 8, 64);
    cfg.l2 = CacheConfig::new(1024 * 1024, 16, 64);
    cfg.l3 = None;
    cfg.timing = HierarchyTiming {
        l1: 2,
        l2: 12,
        l3: 30,
    };
    cfg.secure = secure_config(Workload::SimXz.capacity());
    cfg.alloc_policy = AllocPolicy::Standard;
    cfg.aging = None;
    cfg.trace = traced.then(TraceConfig::default);
    cfg
}

/// `sim_xz` cache-hierarchy and OS counts over the region of interest.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimCounts {
    /// Accesses measured after warm-up.
    pub accesses: u64,
    /// Simulated cycles of the region of interest.
    pub cycles: u64,
    /// Accesses that missed every cache level.
    pub llc_misses: u64,
    /// Modelled allocator instructions.
    pub os_instructions: u64,
    /// L1D statistics.
    pub l1: CacheStats,
    /// L2 statistics.
    pub l2: CacheStats,
}

/// One crash cycle's host spans and recovery report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cycle {
    /// Host nanoseconds in `crash()`.
    pub crash_ns: u64,
    /// Host nanoseconds in `recover()`.
    pub recover_ns: u64,
    /// Host nanoseconds of the verified read-back.
    pub readback_ns: u64,
    /// What recovery did.
    pub report: RecoveryReport,
}

/// What the engine's trace layer recorded in a traced pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceAgg {
    /// `read.wait` histogram (simulated cycles per read).
    pub read_wait: Hist,
    /// `write.wait` histogram (simulated cycles per write).
    pub write_wait: Hist,
    /// `verify_queue.drain_batch` histogram (MACs per drain).
    pub drain_batch: Hist,
    /// Work (device reads + writes + hashes) per recovery phase, summed
    /// over the traced crash cycles.
    pub phase_work: BTreeMap<&'static str, u64>,
    /// Crash cycles traced.
    pub cycles: u64,
}

impl TraceAgg {
    fn absorb_ops(&mut self, report: &TraceReport) {
        for (hist, name) in [
            (&mut self.read_wait, "read.wait"),
            (&mut self.write_wait, "write.wait"),
            (&mut self.drain_batch, "verify_queue.drain_batch"),
        ] {
            if let Some(h) = report.hist(name) {
                hist.merge(h);
            }
        }
    }

    fn absorb_recovery(&mut self, report: &TraceReport) {
        self.cycles += 1;
        for ev in report.events.iter().filter(|e| e.cat == "recovery") {
            let work: u64 = ev.used_args().map(|(_, v)| v).sum();
            *self.phase_work.entry(ev.name).or_default() += work;
        }
    }
}

/// Everything one pass measured.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Host seconds from the first constructor call to the first timed op.
    pub setup_s: f64,
    /// Host seconds of the load phase.
    pub load_s: f64,
    /// Workload ops the load phase completed (the throughput numerator).
    pub host_ops: u64,
    /// Engine calls and checks attempted in the whole pass.
    pub attempted: u64,
    /// Of those, calls that returned an error and checks that failed.
    pub failed: u64,
    /// The first failure, for the error report.
    pub first_failure: Option<String>,
    /// Host nanoseconds per `read_block` call.
    pub read_ns: Vec<u64>,
    /// Host nanoseconds per `write_block` call.
    pub write_ns: Vec<u64>,
    /// The crash cycles, in order.
    pub cycles: Vec<Cycle>,
    /// Host seconds of the closing `audit()`.
    pub audit_s: f64,
    /// Ops the load-phase statistics cover (ROI accesses on `sim_xz`).
    pub ops: u64,
    /// Controller, metadata-cache and timeline statistics of the load phase.
    pub load: StatsSnapshot,
    /// Device statistics of the load phase.
    pub nvm: NvmStats,
    /// Cache-hierarchy and OS counts (`sim_xz` only).
    pub sim: Option<SimCounts>,
    /// Device frames materialized at the end of the pass.
    pub resident_frames: u64,
    /// Trace-layer harvest (traced passes only).
    pub trace: Option<TraceAgg>,
}

impl Pass {
    fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(what());
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what);
        }
    }
}

/// The closed-loop client: one call outstanding, the simulated clock
/// carried from each completion to the next issue.
struct Client<'a> {
    mem: &'a mut SecureMemory,
    now: u64,
}

impl Client<'_> {
    /// One `write_block`; returns its host nanoseconds.
    fn write(&mut self, pass: &mut Pass, addr: u64, data: &[u8; 64]) -> u64 {
        pass.attempted += 1;
        let start = Instant::now();
        let result = self.mem.write_block(self.now, addr, data);
        let ns = start.elapsed().as_nanos() as u64;
        match result {
            Ok(t) => self.now = t,
            Err(e) => pass.fail(|| format!("write_block({addr:#x}): {e}")),
        }
        ns
    }

    /// One `read_block`, checked against `want`; returns its host
    /// nanoseconds.
    fn read(&mut self, pass: &mut Pass, addr: u64, want: &[u8; 64]) -> u64 {
        pass.attempted += 1;
        let start = Instant::now();
        let result = self.mem.read_block(self.now, addr);
        let ns = start.elapsed().as_nanos() as u64;
        match result {
            Ok((data, t)) => {
                self.now = t;
                if data != *want {
                    pass.fail(|| format!("read_block({addr:#x}) differs from the shadow copy"));
                }
            }
            Err(e) => pass.fail(|| format!("read_block({addr:#x}): {e}")),
        }
        ns
    }

    /// Runs every deferred MAC check, so no read is left unverified.
    fn settle(&mut self, pass: &mut Pass) {
        let result = self.mem.flush_verify_queue();
        pass.check(result.is_ok(), || format!("flush_verify_queue: {result:?}"));
    }

    /// `audit()` of the whole touched tree, which must hold.
    fn audit(&mut self, pass: &mut Pass) {
        let start = Instant::now();
        let result = self.mem.audit();
        pass.audit_s = start.elapsed().as_secs_f64();
        pass.check(matches!(result, Ok(true)), || format!("audit: {result:?}"));
    }

    /// Writes `burst`, pulls the power, recovers and reads back every block
    /// the burst wrote. With `keep_latency` the write and read calls join
    /// the pass's latency samples. In a traced pass the cycle is traced on
    /// its own, with `trace_ops` deciding whether its op histograms count.
    fn crash_cycle(
        &mut self,
        pass: &mut Pass,
        burst: &[(u64, [u8; 64])],
        keep_latency: bool,
        trace_ops: bool,
    ) {
        let traced = pass.trace.is_some();
        if traced {
            self.mem.enable_tracing(TraceConfig::default());
        }
        for (addr, data) in burst {
            let ns = self.write(pass, *addr, data);
            if keep_latency {
                pass.write_ns.push(ns);
            }
        }
        self.settle(pass);
        let start = Instant::now();
        self.mem.crash();
        let crash_ns = start.elapsed().as_nanos() as u64;
        let start = Instant::now();
        let result = self.mem.recover();
        let recover_ns = start.elapsed().as_nanos() as u64;
        let report = match result {
            Ok(report) => {
                pass.check(report.verified, || "recover(): verified == false".into());
                report
            }
            Err(e) => {
                pass.check(false, || format!("recover(): {e}"));
                return;
            }
        };
        // Last write wins: the shadow of what the burst left behind.
        let expect: BTreeMap<u64, [u8; 64]> = burst.iter().copied().collect();
        let start = Instant::now();
        for (addr, data) in &expect {
            let ns = self.read(pass, *addr, data);
            if keep_latency {
                pass.read_ns.push(ns);
            }
        }
        self.settle(pass);
        let readback_ns = start.elapsed().as_nanos() as u64;
        if traced {
            if let (Some(report), Some(agg)) = (self.mem.trace_report(), pass.trace.as_mut()) {
                if trace_ops {
                    agg.absorb_ops(&report);
                }
                agg.absorb_recovery(&report);
            }
            self.mem.disable_tracing();
        }
        pass.cycles.push(Cycle {
            crash_ns,
            recover_ns,
            readback_ns,
            report,
        });
    }
}

fn random_block(rng: &mut Rng) -> [u8; 64] {
    let mut block = [0u8; 64];
    rng.fill_bytes(&mut block);
    block
}

/// Runs one pass of `workload` at `seed`. A traced pass switches on the
/// engine's trace layer; it must count exactly what an untraced pass counts.
pub fn run_pass(workload: Workload, seed: u64, sizes: &Sizes, traced: bool) -> Pass {
    let mut pass = Pass {
        trace: traced.then(TraceAgg::default),
        ..Pass::default()
    };
    match workload {
        Workload::SimXz => sim_xz(&mut pass, seed, sizes),
        Workload::KvRead => kv_read(&mut pass, seed, sizes),
        Workload::Recover2tb => recover_2tb(&mut pass, seed, sizes),
    }
    pass
}

/// `sim_xz`: events generated up front, one `Machine::run`, then crash
/// cycles over blocks of the pages `xz` touched.
fn sim_xz(pass: &mut Pass, seed: u64, sizes: &Sizes) {
    const PID: u32 = 1;
    let start = Instant::now();
    let model = WorkloadModel::by_name("xz").expect("xz is a catalogued model");
    let events: Vec<Event> = TraceGen::new(&model, seed, sizes.sim_accesses).collect();
    let traced = pass.trace.is_some();
    let mut machine = Machine::new(machine_config(traced), protocol(), vec![(PID, events)])
        .expect("the sim_xz machine is well formed");
    pass.setup_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let result = machine.run(sizes.sim_warmup);
    pass.load_s = start.elapsed().as_secs_f64();
    pass.attempted += sizes.sim_accesses;
    pass.host_ops = sizes.sim_accesses;
    match result {
        Ok(report) => {
            pass.ops = report.accesses;
            pass.load = report.snapshot;
            let (l1, l2) = report.core_cache_stats[0];
            pass.sim = Some(SimCounts {
                accesses: report.accesses,
                cycles: report.cycles,
                llc_misses: report.llc_misses,
                os_instructions: report.os_instructions,
                l1,
                l2,
            });
            if let (Some(trace), Some(agg)) = (&report.trace, pass.trace.as_mut()) {
                agg.absorb_ops(trace);
            }
        }
        Err(e) => {
            pass.fail(|| format!("Machine::run: {e}"));
            return;
        }
    }
    pass.nvm = *machine.secure_mut().nvm().stats();
    machine.secure_mut().disable_tracing();

    let mut frames = machine.memory_manager().resident_frames(PID);
    frames.sort_unstable();
    let mut rng = Rng::seed_from_u64(seed ^ 0x007a_5fc1_05e0_c1e5);
    let mut client = Client {
        mem: machine.secure_mut(),
        now: 0,
    };
    client.settle(pass);
    for _ in 0..sizes.closing_cycles {
        let burst: Vec<(u64, [u8; 64])> = (0..sizes.burst)
            .map(|_| {
                let frame = frames[rng.gen_range_usize(0..frames.len())];
                let addr = frame * PAGE + rng.gen_range(0..PAGE / BLOCK) * BLOCK;
                (addr, random_block(&mut rng))
            })
            .collect();
        client.crash_cycle(pass, &burst, true, false);
    }
    client.audit(pass);
    pass.resident_frames = client.mem.nvm().resident_frames() as u64;
}

/// `kv_read`: one key per page across 256 MiB of a 1 GiB device, all
/// prefilled; then 90% `read_block` / 10% `write_block` on uniform keys,
/// every read checked against the shadow copy; then crash cycles.
fn kv_read(pass: &mut Pass, seed: u64, sizes: &Sizes) {
    let start = Instant::now();
    let mut mem = SecureMemory::new(secure_config(Workload::KvRead.capacity()), protocol())
        .expect("the kv_read engine is well formed");
    let mut rng = Rng::seed_from_u64(seed ^ 0x006b_765f_7265_6164);
    let mut shadow: Vec<[u8; 64]> = (0..sizes.kv_keys).map(|_| random_block(&mut rng)).collect();
    let mut client = Client {
        mem: &mut mem,
        now: 0,
    };
    for (key, value) in shadow.iter().enumerate() {
        client.write(pass, key as u64 * PAGE, value);
    }
    client.settle(pass);
    client.mem.reset_stats();
    if pass.trace.is_some() {
        client.mem.enable_tracing(TraceConfig::default());
    }
    pass.setup_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    for _ in 0..sizes.kv_ops {
        let key = rng.gen_range(0..sizes.kv_keys);
        let addr = key * PAGE;
        if rng.gen_bool(KV_WRITE_SHARE) {
            let value = random_block(&mut rng);
            let ns = client.write(pass, addr, &value);
            pass.write_ns.push(ns);
            shadow[key as usize] = value;
        } else {
            let ns = client.read(pass, addr, &shadow[key as usize]);
            pass.read_ns.push(ns);
        }
    }
    // Deferred MAC checks belong to the reads that queued them.
    client.settle(pass);
    pass.load_s = start.elapsed().as_secs_f64();
    pass.host_ops = sizes.kv_ops;
    pass.ops = sizes.kv_ops;
    pass.load = client.mem.snapshot();
    pass.nvm = *client.mem.nvm().stats();
    if let (Some(report), Some(agg)) = (client.mem.trace_report(), pass.trace.as_mut()) {
        agg.absorb_ops(&report);
    }
    client.mem.disable_tracing();

    for _ in 0..sizes.closing_cycles {
        let burst: Vec<(u64, [u8; 64])> = (0..sizes.burst)
            .map(|_| {
                let key = rng.gen_range(0..sizes.kv_keys);
                let value = random_block(&mut rng);
                shadow[key as usize] = value;
                (key * PAGE, value)
            })
            .collect();
        client.crash_cycle(pass, &burst, false, false);
    }
    client.audit(pass);
    pass.resident_frames = client.mem.nvm().resident_frames() as u64;
}

/// `recover_2tb`: a sparse 2 TiB device with its hot span (one block per
/// page) and a fixed cold page set written during set-up; the load phase is
/// the crash cycles, one write in [`COLD_EVERY`] going to the cold set.
fn recover_2tb(pass: &mut Pass, seed: u64, sizes: &Sizes) {
    let start = Instant::now();
    let capacity = Workload::Recover2tb.capacity();
    let mut mem = SecureMemory::new(secure_config(capacity), protocol())
        .expect("the recover_2tb engine is well formed");
    let hot = SparseHotSet::new(seed, capacity, sizes.hot_bytes);
    let hot_span = hot.hot_base()..hot.hot_base() + hot.hot_bytes();
    // Cold pages stay outside the subtree region holding the hot span, so
    // that what a recovery rebuilds does not hinge on how many cold pages
    // the seed happens to drop into that region.
    let region = mem
        .geometry()
        .coverage_bytes(AmntConfig::default().subtree_level);
    let mut rng = Rng::seed_from_u64(seed ^ 0x002e_c0e5_2e7b);
    let mut cold = Vec::with_capacity(sizes.cold_pages as usize);
    while cold.len() < sizes.cold_pages as usize {
        let page = rng.gen_range(0..capacity / PAGE) * PAGE;
        if page / region != hot_span.start / region && !cold.contains(&page) {
            cold.push(page);
        }
    }
    let mut client = Client {
        mem: &mut mem,
        now: 0,
    };
    for page in hot
        .hot_pages_shuffled()
        .into_iter()
        .chain(cold.iter().copied())
    {
        let value = random_block(&mut rng);
        client.write(pass, page, &value);
    }
    client.settle(pass);
    client.mem.reset_stats();
    pass.setup_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    for _ in 0..sizes.recover_cycles {
        let burst: Vec<(u64, [u8; 64])> = (0..sizes.burst)
            .map(|i| {
                let page = if i % COLD_EVERY == 0 {
                    cold[rng.gen_range_usize(0..cold.len())]
                } else {
                    hot_span.start + rng.gen_range(0..sizes.hot_bytes / PAGE) * PAGE
                };
                (
                    page + rng.gen_range(0..PAGE / BLOCK) * BLOCK,
                    random_block(&mut rng),
                )
            })
            .collect();
        client.crash_cycle(pass, &burst, true, true);
    }
    pass.load_s = start.elapsed().as_secs_f64();
    pass.host_ops = (pass.read_ns.len() + pass.write_ns.len()) as u64;
    pass.ops = pass.host_ops;
    pass.load = client.mem.snapshot();
    pass.nvm = *client.mem.nvm().stats();
    client.audit(pass);
    pass.resident_frames = client.mem.nvm().resident_frames() as u64;
}

/// The identity between layers' public statistics that every pass must
/// satisfy: on `sim_xz` every LLC miss is one controller read; elsewhere
/// every load-phase call is one controller read or write.
pub fn reconcile(workload: Workload, p: &Pass) -> Result<(), String> {
    let c = &p.load.controller;
    let (lhs, rhs, identity) = match (workload, p.sim) {
        (Workload::SimXz, Some(s)) => (
            c.data_reads,
            s.llc_misses,
            "ControllerStats.data_reads == SimReport.llc_misses",
        ),
        (Workload::SimXz, None) => return Err("sim_xz: the machine produced no report".into()),
        _ => (
            c.data_reads + c.data_writes,
            p.ops,
            "data_reads + data_writes == ops",
        ),
    };
    if lhs == rhs {
        Ok(())
    } else {
        Err(format!(
            "{}: {identity} does not hold ({lhs} != {rhs})",
            workload.name()
        ))
    }
}
