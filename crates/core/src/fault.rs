//! Exhaustive crash-point exploration over the device fault hook.
//!
//! [`run_sweep`] takes one protocol and a seeded workload and crashes it at
//! *every* device-write ordinal the workload produces — mid-operation,
//! mid-metadata-update, everywhere — then recovers and classifies the
//! outcome. Three fault modes are explored:
//!
//! * **Clean** ([`FaultPlan::crash_after`]): the in-flight write is wholly
//!   lost. Recovery must either succeed with every completed operation's
//!   block reading back exactly, or fail with a *detected*
//!   [`RecoveryError`]. A crash at an operation boundary must always be the
//!   former (counted in [`SweepSummary::boundary_deficit`] otherwise).
//! * **Torn** ([`FaultPlan::torn_after`], both halves): only half of each
//!   64-byte line touched by the in-flight write lands. Recovery may
//!   succeed with individual completed blocks failing their MAC at read
//!   time (counted in [`SweepSummary::detected_at_read`]) — torn metadata
//!   lines are shared — but a completed block must never *silently* read
//!   wrong bytes.
//! * **Dropped WPQ tail** ([`FaultPlan::drop_tail`]): power fails cleanly
//!   at an operation boundary but the last *n* device writes never drained
//!   from the write-pending queue. Any *historical* value of an address
//!   (prefix-loss equivalence) or a detected error is acceptable; bytes the
//!   workload never wrote are not.
//!
//! Two further dimensions ride on the clean sweep:
//!
//! * **Nested recovery faults** ([`FaultSweepConfig::recovery_faults`]):
//!   for every clean mutation-path crash point, the recovery procedure
//!   itself is re-crashed at every one of *its* device writes — the
//!   recovery-phase ordinal domain a [`PhasedPlan`] survives into — both
//!   cleanly and tearing the in-flight line, and then recovered again.
//!   Recovery must be *idempotent*: a cleanly interrupted recovery, re-run,
//!   must converge to a byte-identical media state and the same outcome
//!   class as the uninterrupted recovery
//!   ([`SweepSummary::idempotence_violations`]), and repeating a completed
//!   recovery must never do more work than the pass before it
//!   ([`SweepSummary::work_regressions`]).
//! * **Tamper interleaving** ([`FaultSweepConfig::tamper`]): at every clean
//!   crash point a bit is flipped on the raw media between the nested
//!   recovery crash and the second recovery (targets rotating over a
//!   committed data block, its counter block, and its bottom-level tree
//!   node). The tamper must be healed by an authenticated rebuild or
//!   detected by a recovery error / read-back MAC failure — a silent
//!   outcome lands in [`SweepSummary::tamper_silent`] and must stay zero.
//! * **Eviction-writeback crash points**: metadata-cache eviction
//!   writebacks persist tree nodes *out of protocol order* — the exact
//!   hazard lazy (leaf-style) persistence claims to bound — so their
//!   ordinals are enumerated as their own class
//!   ([`SweepSummary::evict_points`]) and their clean-crash outcomes
//!   attributed separately. The sweep shrinks the metadata cache
//!   ([`FaultSweepConfig::metadata_cache_bytes`]) so eviction pressure is
//!   real at every workload size.
//!
//! Every outcome that exposes wrong bytes without an error — the property
//! the paper's protocols must never violate — lands in
//! [`SweepSummary::silent`], and the per-recovery [`RecoveryReport`]
//! counters are additionally checked against analytical bounds derived from
//! [`RecoveryModel`] stale fractions ([`SweepSummary::bounds_violations`]).
//!
//! Classification is differential, not merely self-consistent: after every
//! recovery the sweep replays the committed operation prefix into a
//! lockstep [`UntimedMemory`] oracle and demands each address the workload
//! ever wrote read back *byte-for-byte equal* to that ground truth.
//!
//! The sweep is a pure function of ([`ProtocolKind`], [`FaultSweepConfig`]):
//! same inputs, byte-identical [`SweepSummary`], regardless of how many
//! sweeps run concurrently elsewhere.

use crate::error::IntegrityError;
use crate::protocol::ProtocolKind;
use crate::recovery::RecoveryReport;
use crate::shard::ShardedMemory;
use crate::untimed::UntimedMemory;
use crate::{
    AmntConfig, AnubisConfig, BmfConfig, OsirisConfig, SecureMemory, SecureMemoryConfig, BLOCK_SIZE,
};
use amnt_bmt::BmtGeometry;
use amnt_nvm::{CrashWriteMode, FaultHook, FaultPlan, NvmError, PhasedPlan, TornHalf};
use amnt_prng::Rng;
use std::collections::{BTreeMap, BTreeSet};

pub use crate::error::RecoveryError;

/// Sweep parameters. The defaults give a debug-friendly sweep; the
/// `fault_sweep` bench bin scales `ops` up to the acceptance workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSweepConfig {
    /// Workload seed (`amnt_prng`, bit-stable forever).
    pub seed: u64,
    /// Number of operations in the workload.
    pub ops: usize,
    /// Protected data capacity in bytes.
    pub capacity: u64,
    /// WPQ tail depths to drop at each operation boundary.
    pub tail_depths: Vec<usize>,
    /// Explore torn-line variants (both halves) at every ordinal.
    pub torn: bool,
    /// Nested recovery-fault sweep: for every clean mutation-path crash
    /// point, re-crash the recovery procedure at every one of its own
    /// device writes (clean, and torn when [`FaultSweepConfig::torn`] is
    /// set), recover again, and check idempotence.
    pub recovery_faults: bool,
    /// Metadata cache size for the swept controllers. Deliberately small
    /// (16 lines) so dirty eviction writebacks — their own crash-point
    /// class — occur even at smoke-test workload sizes.
    pub metadata_cache_bytes: usize,
    /// Tamper-interleaving pass: at every clean crash point, flip one media
    /// bit between the nested recovery crash and the second recovery (or
    /// between the crash and its recovery when the baseline recovery does
    /// no device writes) and require the tamper to be healed or *detected*,
    /// never silent. The target class cycles per ordinal over a committed
    /// data block, its counter block, and its bottom-level node.
    pub tamper: bool,
    /// Externally supplied workload. When non-empty it replaces the
    /// built-in seeded generator (and `ops` is ignored): each [`SweepOp`]
    /// becomes one operation, write values assigned deterministically by op
    /// index. This is how external generators (e.g. the Zipfian
    /// multi-tenant mix in `amnt-workloads`) inherit the full crash-point
    /// coverage. Addresses are block-aligned by the sweep and must lie
    /// within `capacity`.
    pub workload: Vec<SweepOp>,
}

/// One externally supplied sweep operation: a block address and whether it
/// is a write. Values for writes are assigned by the sweep itself (unique
/// per op index) so the lockstep oracle stays ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepOp {
    /// Byte address of the accessed block (block-aligned by the sweep).
    pub addr: u64,
    /// Write (`true`) or read (`false`).
    pub write: bool,
}

impl Default for FaultSweepConfig {
    fn default() -> Self {
        FaultSweepConfig {
            seed: 0xA3A7_F001,
            ops: 24,
            capacity: 1024 * 1024,
            tail_depths: vec![1, 2, 4],
            torn: true,
            recovery_faults: true,
            metadata_cache_bytes: 1024,
            tamper: true,
            workload: Vec::new(),
        }
    }
}

/// Aggregate outcome of one protocol's sweep. All counters are exact and
/// deterministic for a given ([`ProtocolKind`], [`FaultSweepConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepSummary {
    /// Device-write ordinals the workload produced (= clean crash points).
    pub crash_points: u64,
    /// Clean crashes that recovered with a fully verified read-back.
    pub recovered: u64,
    /// Clean crashes where recovery returned a detected error.
    pub detected: u64,
    /// Torn crashes (both halves) that recovered cleanly.
    pub torn_recovered: u64,
    /// Torn crashes where recovery returned a detected error.
    pub torn_detected: u64,
    /// WPQ-tail crashes that recovered cleanly.
    pub tail_recovered: u64,
    /// WPQ-tail crashes where recovery returned a detected error.
    pub tail_detected: u64,
    /// Completed blocks that failed verification at read time after an
    /// otherwise successful torn/tail recovery (detected, acceptable).
    pub detected_at_read: u64,
    /// Outcomes that exposed wrong bytes with no error — must stay zero.
    pub silent: u64,
    /// Clean boundary crashes that did not end in full recovery — must
    /// stay zero (this is the guarantee the op-granularity tests rely on).
    pub boundary_deficit: u64,
    /// Recoveries whose [`RecoveryReport`] counters exceeded the analytical
    /// [`RecoveryModel`]-derived bounds — must stay zero.
    pub bounds_violations: u64,
    /// Crash points that were metadata-cache eviction writebacks (a subset
    /// of `crash_points`, enumerated as their own class).
    pub evict_points: u64,
    /// Clean crashes at eviction-writeback ordinals that fully recovered.
    pub evict_recovered: u64,
    /// Clean crashes at eviction-writeback ordinals where recovery returned
    /// a detected error.
    pub evict_detected: u64,
    /// Silent outcomes (any mode, including nested) whose mutation-path
    /// crash point was an eviction writeback — subset of `silent`, must
    /// stay zero.
    pub evict_silent: u64,
    /// Nested recovery-crash scenarios explored (recovery-phase ordinals ×
    /// fault modes, across all mutation-path crash points).
    pub recovery_points: u64,
    /// Nested scenarios whose re-recovery succeeded with an oracle-exact
    /// read-back.
    pub recovery_recovered: u64,
    /// Nested scenarios whose re-recovery returned a detected error
    /// (acceptable only for torn recovery writes, or when the baseline
    /// recovery also detected).
    pub recovery_detected: u64,
    /// Idempotence failures — must stay zero. Counted when a cleanly
    /// interrupted recovery, re-run, diverges from the uninterrupted
    /// recovery (different media bytes or a flipped outcome class), or when
    /// repeating an already-completed recovery changes the media or fails.
    pub idempotence_violations: u64,
    /// Repeat recoveries that did *more* work (see
    /// [`RecoveryReport::work`]) than the pass before them — must stay
    /// zero: recovery work is monotonically non-increasing across repeats.
    pub work_regressions: u64,
    /// Verify-queue crash scenarios explored (op boundaries × target queue
    /// depths): power is cut while deferred leaf-MAC checks are still
    /// pending in the lazy verify queue.
    pub verify_queue_points: u64,
    /// Verify-queue crashes that recovered with an oracle-exact, fully
    /// verified read-back.
    pub verify_queue_recovered: u64,
    /// Verify-queue crashes where recovery (or strict read-back) returned a
    /// detected error — counts toward `boundary_deficit`, since these are
    /// clean boundary crashes that must fully recover.
    pub verify_queue_detected: u64,
    /// Silent outcomes among verify-queue crashes — subset of `silent`,
    /// must stay zero: deferred checks are read-side speculation and
    /// discarding them at power loss must not lose committed state.
    pub verify_queue_silent: u64,
    /// Tamper-interleaving scenarios explored (one per clean crash point
    /// when [`FaultSweepConfig::tamper`] is set): a bit flipped on the
    /// media between the nested recovery crash and the second recovery.
    pub tamper_points: u64,
    /// Tamper scenarios where the final recovery returned an error or a
    /// read-back MAC check flagged the damage — the attack was *detected*.
    pub tamper_detected: u64,
    /// Tamper scenarios where recovery legitimately rewrote the tampered
    /// line from authenticated sources and the full read-back matched the
    /// oracle — the damage was *healed*.
    pub tamper_healed: u64,
    /// Tamper scenarios that exposed wrong bytes with no error — subset of
    /// `silent`, must stay zero.
    pub tamper_silent: u64,
}

/// One workload operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// `write_block(addr, value)`.
    Write { addr: u64, value: [u8; BLOCK_SIZE] },
    /// `read_block(addr)`.
    Read { addr: u64 },
}

/// The seeded workload plus the ground-truth write history it implies.
#[derive(Debug, Clone)]
struct Workload {
    ops: Vec<Op>,
    /// Per-address write history as (op index, value), in op order.
    history: BTreeMap<u64, Vec<(usize, [u8; BLOCK_SIZE])>>,
}

/// A unique, recognisable payload for op `i`.
fn value_for(i: usize) -> [u8; BLOCK_SIZE] {
    let b = (i as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(0x5A5A)
        .to_le_bytes();
    let mut v = [0u8; BLOCK_SIZE];
    for (j, out) in v.iter_mut().enumerate() {
        *out = b[j % 8] ^ (j as u8);
    }
    v
}

/// Generates the seeded workload: mostly writes concentrated in a 32-block
/// hot region (so AMNT elects a subtree and Osiris counters actually lag),
/// with occasional cold writes and reads mixed in. An externally supplied
/// [`FaultSweepConfig::workload`] replaces the generator wholesale, with
/// write values assigned by op index exactly as the generator assigns them.
fn generate(cfg: &FaultSweepConfig) -> Workload {
    if !cfg.workload.is_empty() {
        let mut ops = Vec::with_capacity(cfg.workload.len());
        let mut history: BTreeMap<u64, Vec<(usize, [u8; BLOCK_SIZE])>> = BTreeMap::new();
        for (i, op) in cfg.workload.iter().enumerate() {
            let addr = (op.addr / BLOCK_SIZE as u64) * BLOCK_SIZE as u64;
            if op.write {
                let value = value_for(i);
                history.entry(addr).or_default().push((i, value));
                ops.push(Op::Write { addr, value });
            } else {
                ops.push(Op::Read { addr });
            }
        }
        return Workload { ops, history };
    }
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let blocks = cfg.capacity / BLOCK_SIZE as u64;
    let hot = 32u64.min(blocks);
    let mut ops = Vec::with_capacity(cfg.ops);
    let mut history: BTreeMap<u64, Vec<(usize, [u8; BLOCK_SIZE])>> = BTreeMap::new();
    for i in 0..cfg.ops {
        let addr = if rng.gen_bool(0.75) {
            rng.gen_range(0..hot) * BLOCK_SIZE as u64
        } else {
            rng.gen_range(0..blocks) * BLOCK_SIZE as u64
        };
        // Leading writes guarantee the hot region heats up before any read.
        if i >= 4 && rng.gen_bool(0.2) {
            ops.push(Op::Read { addr });
        } else {
            let value = value_for(i);
            history.entry(addr).or_default().push((i, value));
            ops.push(Op::Write { addr, value });
        }
    }
    Workload { ops, history }
}

impl Workload {
    /// Expected contents of `addr` once the first `completed` ops ran
    /// (`None` = never written: factory zeros). Test-only cross-check of
    /// the oracle replay.
    #[cfg(test)]
    fn expected(&self, addr: u64, completed: usize) -> Option<&[u8; BLOCK_SIZE]> {
        self.history
            .get(&addr)
            .and_then(|h| h.iter().rev().find(|(i, _)| *i < completed))
            .map(|(_, v)| v)
    }

    /// Whether `data` is *some* historical value of `addr` within the first
    /// `completed` ops (including the never-written all-zero state) — the
    /// prefix-loss equivalence a dropped WPQ tail is allowed to expose.
    fn historical(&self, addr: u64, data: &[u8; BLOCK_SIZE], completed: usize) -> bool {
        if data.iter().all(|&b| b == 0) {
            return true;
        }
        self.history
            .get(&addr)
            .map(|h| h.iter().any(|(i, v)| *i < completed && v == data))
            .unwrap_or(false)
    }

    /// Target of op `completed` if it is a write (the interrupted op's
    /// block, which legitimately holds either its old or new value).
    fn interrupted_target(&self, completed: usize) -> Option<u64> {
        match self.ops.get(completed) {
            Some(Op::Write { addr, .. }) => Some(*addr),
            _ => None,
        }
    }

    /// The media byte and bit a tamper scenario flips at strike `k`, once
    /// the first `completed` ops ran on a device laid out by `g`. The block
    /// is a committed address (preferably) other than the interrupted op's
    /// own, so a read error there is never excused by the mid-update
    /// exemption. The target cycles by `k % 3` over the three line classes
    /// recovery touches differently: the data line (never rewritten by
    /// recovery, so the read MAC must catch it), its counter line (the
    /// dirty-shutdown audit and root re-derivation must catch it), and its
    /// bottom-level tree node (rebuilt by lazy protocols — healed — or
    /// caught by the parent-MAC chain on read-back).
    fn tamper_target(&self, completed: usize, k: u64, g: &BmtGeometry) -> (u64, u8) {
        let interrupted = self.interrupted_target(completed);
        let block = self
            .history
            .iter()
            .find(|(&a, h)| {
                Some(a) != interrupted && h.first().is_some_and(|&(i, _)| i < completed)
            })
            .or_else(|| self.history.iter().find(|(&a, _)| Some(a) != interrupted))
            .map(|(&a, _)| a)
            .unwrap_or(0);
        let counter = g.counter_index(block);
        match k % 3 {
            0 => (block + 3, 2),
            2 if g.bottom_level() >= 2 => (g.node_addr(g.counter_parent(counter)) + 7, 0),
            _ => (g.counter_addr(counter) + 5, 1),
        }
    }

    /// Lockstep oracle replay of the committed prefix: the ground-truth
    /// state once the first `completed` ops ran.
    fn oracle(&self, completed: usize) -> UntimedMemory {
        let mut m = UntimedMemory::new();
        for op in self.ops.iter().take(completed) {
            if let Op::Write { addr, value } = op {
                m.write_block(*addr, value);
            }
        }
        m
    }
}

fn fresh(kind: ProtocolKind, cfg: &FaultSweepConfig) -> Result<SecureMemory, IntegrityError> {
    let mem_cfg = SecureMemoryConfig::with_capacity(cfg.capacity)
        .with_metadata_cache_bytes(cfg.metadata_cache_bytes);
    SecureMemory::new(mem_cfg, kind)
}

fn apply(mem: &mut SecureMemory, t: u64, op: &Op) -> Result<u64, IntegrityError> {
    match op {
        Op::Write { addr, value } => {
            let done = mem.write_block(t, *addr, value)?;
            // Flush-before-commit, asserted at every committed write: the
            // write path must have drained every deferred leaf-MAC check
            // before mutating persisted state.
            if mem.verify_queue_len() != 0 {
                return Err(IntegrityError::Invariant {
                    what: "verify queue flushed before commit",
                });
            }
            Ok(done)
        }
        Op::Read { addr } => mem.read_block(t, *addr).map(|(_, done)| done),
    }
}

fn power_failed(e: &IntegrityError) -> bool {
    matches!(e, IntegrityError::Device(NvmError::PowerFailure { .. }))
}

fn recovery_power_failed(e: &RecoveryError) -> bool {
    matches!(e, RecoveryError::Device(NvmError::PowerFailure { .. }))
}

/// How one crash-and-recover attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// Recovery succeeded and the read-back check passed; `reads_detected`
    /// completed blocks failed verification at read time (zero in clean
    /// mode by construction — see [`classify_readback`]).
    Recovered { reads_detected: u64 },
    /// Recovery returned an error: the damage was detected.
    Detected,
    /// Wrong bytes with no error — the outcome that must never happen.
    Silent,
}

/// Read-back verification after a successful recovery, differentially
/// against the lockstep [`UntimedMemory`] oracle replay of the committed
/// prefix: every address the workload ever wrote must read back
/// byte-for-byte equal to the oracle's ground truth (factory zeros where
/// never written). `strict` (clean modes) requires every completed block to
/// read back; otherwise (torn/tail) a read error on a completed block
/// counts as detected, and any historical value is accepted when
/// `prefix_loss` is set (a dropped WPQ tail legitimately rewinds an address
/// to an earlier committed value).
fn classify_readback(
    mem: &mut SecureMemory,
    w: &Workload,
    completed: usize,
    strict: bool,
    prefix_loss: bool,
) -> Outcome {
    let oracle = w.oracle(completed);
    let next = w.oracle(completed + 1);
    let interrupted = w.interrupted_target(completed);
    let mut reads_detected = 0u64;
    for &addr in w.history.keys() {
        // Classification must observe the MAC verdict for *this* block, so
        // the verified read flushes the lazy verify queue before returning.
        match mem.read_block_verified(0, addr) {
            Ok((data, _)) => {
                let ok = if prefix_loss {
                    w.historical(addr, &data, completed + 1)
                } else {
                    data == oracle.read_block(addr)
                };
                // The interrupted write may have landed in full.
                let new_landed = Some(addr) == interrupted && data == next.read_block(addr);
                if !ok && !new_landed {
                    return Outcome::Silent;
                }
            }
            Err(_) if Some(addr) == interrupted => {
                // The in-flight block was mid-update; an error is fine.
            }
            Err(_) if !strict => reads_detected += 1,
            Err(_) => return Outcome::Silent,
        }
    }
    Outcome::Recovered { reads_detected }
}

/// Analytical ceiling on `nodes_recomputed` for `kind`, derived from the
/// [`RecoveryModel`] stale fractions (Table 4): Strict rebuilds nothing,
/// Leaf/Osiris rebuild at most the whole tree (the sparse walk rebuilds only
/// the touched ancestor closure), Anubis is bounded by the metadata cache,
/// BMF by its frontier capacity, AMNT by its subtree.
fn report_in_bounds(kind: ProtocolKind, mem: &SecureMemory, report: &RecoveryReport) -> bool {
    let g = mem.geometry();
    let total = g.total_nodes();
    match kind {
        ProtocolKind::Strict | ProtocolKind::Plp => {
            report.nodes_recomputed == 0 && report.nvm_writes == 0
        }
        ProtocolKind::Leaf | ProtocolKind::Osiris(_) => {
            report.nodes_recomputed >= 1 && report.nodes_recomputed <= total
        }
        ProtocolKind::Anubis(_) => {
            let lines = mem.config().metadata_cache.lines() as u64;
            report.nodes_recomputed <= total.min(lines * g.bottom_level() as u64)
        }
        ProtocolKind::Bmf(c) => {
            report.nodes_recomputed <= (c.capacity as u64) * g.bottom_level() as u64
        }
        ProtocolKind::Amnt(c) => {
            // Exact subtree-closure capacity (the model's stale fraction is
            // an asymptotic approximation that undercounts small trees):
            // every node the subtree can hold, plus the fold path to the
            // root register.
            let mut bound = c.subtree_level as u64;
            for level in c.subtree_level..=g.bottom_level() {
                let span = amnt_bmt::TREE_ARITY.pow(level - c.subtree_level);
                bound += g.level_size(level).min(span);
            }
            report.nodes_recomputed <= bound.min(total + c.subtree_level as u64)
        }
        _ => true,
    }
}

/// Replays `ops[..limit]` against a fresh armed controller until the plan
/// cuts power (or the prefix completes). Returns the controller, the number
/// of *completed* ops, and whether a fault actually fired.
fn replay(
    kind: ProtocolKind,
    cfg: &FaultSweepConfig,
    w: &Workload,
    hook: Box<dyn FaultHook>,
    limit: usize,
) -> Result<(SecureMemory, usize, bool), IntegrityError> {
    let mut mem = fresh(kind, cfg)?;
    mem.nvm_mut().arm_fault_hook(hook);
    let mut t = 0;
    for (i, op) in w.ops.iter().take(limit).enumerate() {
        match apply(&mut mem, t, op) {
            Ok(done) => t = done,
            Err(ref e) if power_failed(e) => return Ok((mem, i, true)),
            Err(e) => return Err(e),
        }
    }
    Ok((mem, limit, false))
}

/// Crash, recover and classify one fault scenario.
fn crash_and_classify(
    kind: ProtocolKind,
    mem: &mut SecureMemory,
    w: &Workload,
    completed: usize,
    strict: bool,
    prefix_loss: bool,
    bounds_violations: &mut u64,
) -> Outcome {
    mem.crash();
    match mem.recover() {
        Err(_) => Outcome::Detected,
        Ok(report) => {
            if !report_in_bounds(kind, mem, &report) {
                *bounds_violations += 1;
            }
            classify_readback(mem, w, completed, strict, prefix_loss)
        }
    }
}

/// Runs the full three-mode sweep for one protocol.
///
/// # Errors
///
/// [`IntegrityError`] only for workload-construction failures (impossible
/// geometry) or an integrity failure *before* any fault fired — both
/// indicate a broken controller, not a fault-model outcome.
pub fn run_sweep(
    kind: ProtocolKind,
    cfg: &FaultSweepConfig,
) -> Result<SweepSummary, IntegrityError> {
    run_sweep_impl(kind, cfg, None)
}

/// [`run_sweep`] with an observability harvest: alongside the summary it
/// returns a [`amnt_trace::TraceReport`] aggregating, per scenario class,
/// the strike-ordinal distributions, the baseline recovery's per-phase
/// durations (harvested by enabling cycle-domain tracing on the replayed
/// controller just before its recovery runs), and the touched-closure
/// sizes the recovery scans reported. Tracing is purely observational: the
/// summary is byte-identical to [`run_sweep`]'s, and the report is itself a
/// pure function of (`kind`, `cfg`) — byte-stable across job counts.
pub fn run_sweep_traced(
    kind: ProtocolKind,
    cfg: &FaultSweepConfig,
) -> Result<(SweepSummary, amnt_trace::TraceReport), IntegrityError> {
    let mut tr = amnt_trace::Tracer::new(amnt_trace::TraceConfig::default());
    let summary = run_sweep_impl(kind, cfg, Some(&mut tr))?;
    let report = tr.report().expect("sweep tracer is enabled");
    Ok((summary, report))
}

/// Folds one crashed controller's recovery trace into the sweep tracer:
/// every closed `recovery.*` phase span becomes a duration sample, and the
/// scan phases' touched-closure gauges become size samples.
fn harvest_recovery_trace(tr: &mut amnt_trace::Tracer, mem: &SecureMemory) {
    let Some(rep) = mem.trace_report() else { return };
    for ev in &rep.events {
        if ev.cat == "recovery" && ev.dur > 0 {
            tr.record(ev.name, ev.dur);
        }
    }
    if let Some(h) = rep.hist("recovery.touched_frames") {
        tr.record("sweep.touched_frames", h.sum());
    }
    if let Some(h) = rep.hist("recovery.touched_counters") {
        tr.record("sweep.touched_counters", h.sum());
    }
}

fn run_sweep_impl(
    kind: ProtocolKind,
    cfg: &FaultSweepConfig,
    mut tr: Option<&mut amnt_trace::Tracer>,
) -> Result<SweepSummary, IntegrityError> {
    let w = generate(cfg);

    // Phase 1: count device-write ordinals, record each op's boundary, and
    // collect the eviction-writeback ordinal class.
    let mut mem = fresh(kind, cfg)?;
    mem.nvm_mut()
        .arm_fault_hook(Box::new(FaultPlan::count_only()));
    let mut t = 0;
    let mut boundaries = Vec::with_capacity(w.ops.len());
    for op in &w.ops {
        t = apply(&mut mem, t, op)?;
        boundaries.push(mem.nvm_mut().device_write_ordinals());
    }
    let total = boundaries.last().copied().unwrap_or(0);
    let evict_ordinals: BTreeSet<u64> = mem
        .nvm_mut()
        .eviction_write_ordinals()
        .iter()
        .copied()
        .collect();

    let mut s = SweepSummary {
        crash_points: total,
        evict_points: evict_ordinals.len() as u64,
        ..SweepSummary::default()
    };

    // Phase 2: clean and torn crashes at every ordinal. Each clean crash
    // doubles as the baseline for the nested recovery-fault sweep, and its
    // recovery-phase write count is kept for the tamper pass (phase 5).
    let mut recovery_writes_by_k = vec![0u64; total as usize];
    for k in 0..total {
        let boundary = boundaries.binary_search(&k).is_ok();
        let evict = evict_ordinals.contains(&k);
        // Clean crash, with a count-only second phase: the recovery
        // procedure's own device writes become the nested sweep's crash
        // points, counted in their fresh post-crash ordinal domain.
        let plan = PhasedPlan::two_phase(FaultPlan::crash_after(k), FaultPlan::count_only());
        let (mut mem, completed, faulted) = replay(kind, cfg, &w, Box::new(plan), w.ops.len())?;
        let mut recovery_writes = 0u64;
        let mut baseline_media: Option<Vec<(u64, Vec<u8>)>> = None;
        if faulted {
            if let Some(t) = tr.as_deref_mut() {
                t.add("sweep.scenarios.clean", 1);
                t.record("sweep.strike.clean", k);
                // Observe the baseline recovery's phase tree: tracing is a
                // pure observer, so the summary is unchanged by this.
                mem.enable_tracing(amnt_trace::TraceConfig::default());
            }
            mem.crash();
            let first = mem.recover();
            if let Some(t) = tr.as_deref_mut() {
                harvest_recovery_trace(t, &mem);
                // Scope the observation window to this one crash/recover
                // pair: the repeat pass and the read-back classification
                // below must run exactly as the untraced sweep runs them.
                mem.disable_tracing();
            }
            let outcome = match first {
                Err(_) => Outcome::Detected,
                Ok(report) => {
                    // The recovery-phase ordinal count is captured before
                    // read-back: read-path cache evictions would otherwise
                    // keep consuming recovery-domain ordinals.
                    recovery_writes = mem.nvm_mut().device_write_ordinals();
                    recovery_writes_by_k[k as usize] = recovery_writes;
                    if !report_in_bounds(kind, &mem, &report) {
                        s.bounds_violations += 1;
                    }
                    let media = mem.nvm_mut().media_image();
                    // Idempotence baseline: re-crash the recovered state
                    // cleanly and recover again — the repeat must succeed,
                    // leave the media byte-identical, and never do more
                    // work than the first pass.
                    mem.crash();
                    match mem.recover() {
                        Ok(repeat) => {
                            if repeat.work() > report.work() {
                                s.work_regressions += 1;
                            }
                            if mem.nvm_mut().media_image() != media {
                                s.idempotence_violations += 1;
                            }
                        }
                        Err(_) => s.idempotence_violations += 1,
                    }
                    baseline_media = Some(media);
                    classify_readback(&mut mem, &w, completed, true, false)
                }
            };
            match outcome {
                Outcome::Recovered { .. } => {
                    s.recovered += 1;
                    if evict {
                        s.evict_recovered += 1;
                    }
                }
                Outcome::Detected => {
                    s.detected += 1;
                    if evict {
                        s.evict_detected += 1;
                    }
                }
                Outcome::Silent => {
                    s.silent += 1;
                    if evict {
                        s.evict_silent += 1;
                    }
                }
            }
            if boundary && outcome != (Outcome::Recovered { reads_detected: 0 }) {
                s.boundary_deficit += 1;
            }
        }

        // Nested sweep: re-crash the recovery procedure at every one of its
        // device writes, then recover again.
        if cfg.recovery_faults && faulted && recovery_writes > 0 {
            nested_recovery_sweep(
                kind,
                cfg,
                &w,
                k,
                recovery_writes,
                baseline_media.as_deref(),
                evict,
                &mut s,
                tr.as_deref_mut(),
            )?;
        }

        if !cfg.torn {
            continue;
        }
        for half in [TornHalf::First, TornHalf::Last] {
            let plan = FaultPlan::torn_after(k, half);
            let (mut mem, completed, faulted) = replay(kind, cfg, &w, Box::new(plan), w.ops.len())?;
            if !faulted {
                continue;
            }
            if let Some(t) = tr.as_deref_mut() {
                t.add("sweep.scenarios.torn", 1);
                t.record("sweep.strike.torn", k);
            }
            match crash_and_classify(
                kind,
                &mut mem,
                &w,
                completed,
                false,
                false,
                &mut s.bounds_violations,
            ) {
                Outcome::Recovered { reads_detected } => {
                    s.torn_recovered += 1;
                    s.detected_at_read += reads_detected;
                }
                Outcome::Detected => s.torn_detected += 1,
                Outcome::Silent => {
                    s.silent += 1;
                    if evict {
                        s.evict_silent += 1;
                    }
                }
            }
        }
    }

    // Phase 3: dropped WPQ tails at every op boundary.
    for limit in 1..=w.ops.len() {
        for &depth in &cfg.tail_depths {
            let (mut mem, completed, _) =
                replay(kind, cfg, &w, Box::new(FaultPlan::drop_tail(depth)), limit)?;
            if let Some(t) = tr.as_deref_mut() {
                t.add("sweep.scenarios.tail", 1);
                t.record("sweep.tail.depth", depth as u64);
            }
            match crash_and_classify(
                kind,
                &mut mem,
                &w,
                completed,
                false,
                true,
                &mut s.bounds_violations,
            ) {
                Outcome::Recovered { reads_detected } => {
                    s.tail_recovered += 1;
                    s.detected_at_read += reads_detected;
                }
                Outcome::Detected => s.tail_detected += 1,
                Outcome::Silent => s.silent += 1,
            }
        }
    }

    // Phase 4: power loss with a non-empty lazy verify queue, at every op
    // boundary and every reachable queue depth. Deferred leaf-MAC checks
    // are read-side speculation; discarding them at the crash must leave
    // exactly the committed prefix (these are boundary crashes, so full
    // recovery is required and any deficit counts). Reading the target
    // `verify_queue` (cap) times also covers the batch-full drain path —
    // the queue is empty again at that depth, which is itself a scenario.
    let queue_cap = fresh(kind, cfg)?.config().verify_queue.max(1);
    for limit in 1..=w.ops.len() {
        // An address already committed within the prefix, to stack
        // deferred checks against.
        let target = w
            .history
            .iter()
            .find(|(_, h)| h.first().is_some_and(|&(i, _)| i < limit))
            .map(|(&a, _)| a);
        let Some(target) = target else { continue };
        for depth in 1..=queue_cap as u64 {
            let (mut mem, completed, faulted) =
                replay(kind, cfg, &w, Box::new(FaultPlan::count_only()), limit)?;
            debug_assert!(!faulted, "count-only replay never faults");
            // Trailing workload reads may have left deferred checks of
            // their own; depth accounting starts from that base.
            let base = mem.verify_queue_len() as u64;
            let mut t = 0;
            for _ in 0..depth {
                let (_, done) = mem.read_block(t, target)?;
                t = done;
            }
            debug_assert_eq!(
                mem.verify_queue_len() as u64,
                (base + depth) % queue_cap as u64,
                "queue depth after {depth} reads from base {base} at cap {queue_cap}"
            );
            s.verify_queue_points += 1;
            if let Some(t) = tr.as_deref_mut() {
                t.add("sweep.scenarios.verify_queue", 1);
                t.record("sweep.vq.depth", depth);
            }
            match crash_and_classify(
                kind,
                &mut mem,
                &w,
                completed,
                true,
                false,
                &mut s.bounds_violations,
            ) {
                Outcome::Recovered { .. } => s.verify_queue_recovered += 1,
                Outcome::Detected => {
                    s.verify_queue_detected += 1;
                    s.boundary_deficit += 1;
                }
                Outcome::Silent => {
                    s.silent += 1;
                    s.verify_queue_silent += 1;
                    s.boundary_deficit += 1;
                }
            }
        }
    }

    // Phase 5: tamper interleaving. For every clean crash point, interleave
    // an active attack with the crash/recovery sequence: crash at `k`, let
    // recovery run until a nested crash at one of its own device writes
    // (when the baseline recovery writes at all), then flip one bit on the
    // raw media before the second recovery completes. The flipped line must
    // either be *healed* — recovery rewrites it from authenticated state —
    // or *detected* by a recovery error or a read-back MAC failure. Silence
    // is an integrity-protection failure regardless of crash timing. The
    // target rotates over line classes (see `Workload::tamper_target`).
    if cfg.tamper {
        for k in 0..total {
            let rec_writes = recovery_writes_by_k[k as usize];
            let plan: Box<dyn FaultHook> = if rec_writes > 0 {
                Box::new(PhasedPlan::two_phase(
                    FaultPlan::crash_after(k),
                    FaultPlan::crash_after(k % rec_writes),
                ))
            } else {
                Box::new(FaultPlan::crash_after(k))
            };
            let (mut mem, completed, faulted) = replay(kind, cfg, &w, plan, w.ops.len())?;
            if !faulted {
                continue;
            }
            mem.crash();
            if rec_writes > 0 {
                match mem.recover() {
                    // The nested crash fired mid-recovery: crash again with
                    // the power-failure flag still set, so the second
                    // recovery sees a dirty shutdown.
                    Err(ref e) if recovery_power_failed(e) => {}
                    // The baseline either detected before reaching ordinal
                    // `k % rec_writes` or completed without it firing; fall
                    // back to tampering a cleanly re-crashed state.
                    _ => {
                        mem.nvm_mut().disarm_fault_hook();
                    }
                }
                mem.crash();
            }
            let (tamper_addr, bit) = w.tamper_target(completed, k, mem.geometry());
            mem.nvm_mut().tamper_flip_bit(tamper_addr, bit);
            s.tamper_points += 1;
            if let Some(t) = tr.as_deref_mut() {
                t.add("sweep.scenarios.tamper", 1);
                t.record("sweep.strike.tamper", k);
            }
            match mem.recover() {
                Err(_) => s.tamper_detected += 1,
                Ok(report) => {
                    if !report_in_bounds(kind, &mem, &report) {
                        s.bounds_violations += 1;
                    }
                    match classify_readback(&mut mem, &w, completed, false, false) {
                        Outcome::Recovered { reads_detected: 0 } => s.tamper_healed += 1,
                        Outcome::Recovered { .. } | Outcome::Detected => s.tamper_detected += 1,
                        Outcome::Silent => {
                            s.tamper_silent += 1;
                            s.silent += 1;
                            if evict_ordinals.contains(&k) {
                                s.evict_silent += 1;
                            }
                        }
                    }
                }
            }
        }
    }

    Ok(s)
}

/// The nested recovery-fault sweep for one mutation-path crash point `k`:
/// for every recovery-phase ordinal `r` in `0..recovery_writes` and every
/// fault mode, replay to `k`, crash, let recovery run until the nested
/// fault cuts power at its `r`-th device write, power-cycle again, and
/// recover to completion.
///
/// Idempotence contract, checked against the single-recovery baseline:
///
/// * A **cleanly** interrupted recovery, re-run, must converge to the same
///   outcome class as the uninterrupted recovery, and — when that baseline
///   succeeded — to byte-identical media (`baseline_media`). Divergence is
///   an idempotence violation.
/// * A **torn** recovery write may leave detectable damage (the re-run may
///   fail, or individual reads may fail MAC checks — recovery rewrites its
///   whole write set, but a torn counter can poison re-derivation), yet
///   never a silent one.
#[allow(clippy::too_many_arguments)]
fn nested_recovery_sweep(
    kind: ProtocolKind,
    cfg: &FaultSweepConfig,
    w: &Workload,
    k: u64,
    recovery_writes: u64,
    baseline_media: Option<&[(u64, Vec<u8>)]>,
    evict: bool,
    s: &mut SweepSummary,
    mut tr: Option<&mut amnt_trace::Tracer>,
) -> Result<(), IntegrityError> {
    let modes: &[CrashWriteMode] = if cfg.torn {
        &[
            CrashWriteMode::Clean,
            CrashWriteMode::Torn(TornHalf::First),
            CrashWriteMode::Torn(TornHalf::Last),
        ]
    } else {
        &[CrashWriteMode::Clean]
    };
    for r in 0..recovery_writes {
        for &mode in modes {
            let rplan = match mode {
                CrashWriteMode::Clean => FaultPlan::crash_after(r),
                CrashWriteMode::Torn(half) => FaultPlan::torn_after(r, half),
            };
            let plan = PhasedPlan::two_phase(FaultPlan::crash_after(k), rplan);
            let (mut mem, completed, faulted) = replay(kind, cfg, &w, Box::new(plan), w.ops.len())?;
            if !faulted {
                continue;
            }
            s.recovery_points += 1;
            if let Some(t) = tr.as_deref_mut() {
                t.add("sweep.scenarios.nested", 1);
                t.record("sweep.strike.nested", r);
            }
            mem.crash();
            let first = mem.recover();
            match first {
                Err(ref e) if recovery_power_failed(e) => {}
                _ => {
                    // The nested fault never fired as a power failure: the
                    // un-faulted recovery prefix errored first (`r` lies at
                    // or past the baseline's own failure point). Detected.
                    s.recovery_detected += 1;
                    continue;
                }
            }
            // Power-cycle out of the interrupted recovery and run it again,
            // this time to completion (the phased plan is exhausted).
            mem.crash();
            match mem.recover() {
                Err(_) => {
                    s.recovery_detected += 1;
                    if baseline_media.is_some() && mode == CrashWriteMode::Clean {
                        // The uninterrupted recovery succeeded, so a clean
                        // interruption must be restartable.
                        s.idempotence_violations += 1;
                    }
                }
                Ok(report) => {
                    s.recovery_recovered += 1;
                    if !report_in_bounds(kind, &mem, &report) {
                        s.bounds_violations += 1;
                    }
                    let media = mem.nvm_mut().media_image();
                    let strict = mode == CrashWriteMode::Clean;
                    match classify_readback(&mut mem, &w, completed, strict, false) {
                        Outcome::Recovered { reads_detected } => {
                            s.detected_at_read += reads_detected;
                        }
                        Outcome::Silent => {
                            s.silent += 1;
                            if evict {
                                s.evict_silent += 1;
                            }
                        }
                        Outcome::Detected => {}
                    }
                    if mode == CrashWriteMode::Clean {
                        match baseline_media {
                            Some(b) if b == media.as_slice() => {}
                            // Media divergence, or the baseline detected
                            // where the interrupted re-run succeeded: the
                            // outcome depends on where recovery was cut.
                            _ => s.idempotence_violations += 1,
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Shard-crossed sweep
// ---------------------------------------------------------------------

/// Parameters for [`run_shard_sweep`]: a seeded multi-tenant workload over
/// a [`ShardedMemory`], crashed in *one* shard at every device-write
/// ordinal of that shard's WPQ lane while the other shards keep committing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSweepConfig {
    /// Workload seed (`amnt_prng`, bit-stable forever).
    pub seed: u64,
    /// Total operations across all tenants (interleaved deterministically).
    pub ops: usize,
    /// Shard domains (= tenants; one tenant per subtree region).
    pub shards: usize,
    /// Total protected data capacity in bytes (divided evenly by `shards`).
    pub capacity: u64,
    /// Metadata cache size *before* partitioning; each shard gets a
    /// `1/shards` partition, kept small so eviction pressure is real.
    pub metadata_cache_bytes: usize,
    /// Seal an epoch ([`ShardedMemory::epoch_merge`]) every this many
    /// interleaved ops (`0` = only the final merge). Crashes therefore land
    /// *mid-epoch* while healthy shards commit past the boundary.
    pub merge_every: usize,
    /// Tamper pass: at every victim crash point, flip one media bit inside
    /// the victim shard before its recovery and require the damage to be
    /// healed or detected by the *victim's* own machinery — and provably
    /// never observed, nor healed, via any other shard.
    pub tamper: bool,
}

impl Default for ShardSweepConfig {
    fn default() -> Self {
        ShardSweepConfig {
            seed: 0x5AAD_F001,
            ops: 32,
            shards: 2,
            capacity: 1024 * 1024,
            metadata_cache_bytes: 2048,
            merge_every: 8,
            tamper: true,
        }
    }
}

/// Aggregate outcome of one protocol's shard-crossed sweep. Deterministic
/// for a given ([`ProtocolKind`], [`ShardSweepConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardSweepSummary {
    /// Shard domains swept (every shard takes a turn as the victim).
    pub shards: u64,
    /// Victim-lane device-write ordinals explored, summed over victims.
    pub crash_points: u64,
    /// Victim recoveries that succeeded with an oracle-exact read-back.
    pub recovered: u64,
    /// Victim recoveries that returned a detected error.
    pub detected: u64,
    /// Victim outcomes exposing wrong bytes with no error — must stay zero.
    pub silent: u64,
    /// Victim recoveries whose [`RecoveryReport`] exceeded the per-shard
    /// analytical bounds — must stay zero (recovery is O(touched) *per
    /// shard*, not per machine).
    pub bounds_violations: u64,
    /// Scenarios where a non-victim shard's media or read-back diverged
    /// from its independent per-tenant oracle/baseline after the victim's
    /// crash or recovery — must stay zero (no state crosses the boundary).
    pub cross_shard_disturbances: u64,
    /// Tamper scenarios where damage inside the victim was observed by, or
    /// repaired using, another shard (media change, failed audit, or
    /// oracle-divergent read-back in a non-victim shard) — must stay zero:
    /// a shard boundary is never silently healed across.
    pub cross_shard_heals: u64,
    /// Post-recovery epoch merges that failed, verified stale, or broke
    /// freshness monotonicity — must stay zero.
    pub merge_failures: u64,
    /// Tamper scenarios explored (one per victim crash point when
    /// [`ShardSweepConfig::tamper`] is set).
    pub tamper_points: u64,
    /// Tamper scenarios detected by the victim's recovery or read-back MACs.
    pub tamper_detected: u64,
    /// Tamper scenarios healed by the victim's own authenticated rebuild.
    pub tamper_healed: u64,
    /// Tamper scenarios exposing wrong bytes with no error — must stay zero.
    pub tamper_silent: u64,
}

/// The seeded multi-tenant workload: one local-coordinate [`Workload`] per
/// shard plus the deterministic interleave schedule `(shard, local index)`.
fn generate_sharded(cfg: &ShardSweepConfig) -> (Vec<Workload>, Vec<(usize, usize)>) {
    let shards = cfg.shards.max(1);
    let span = cfg.capacity / shards as u64;
    let blocks = span / BLOCK_SIZE as u64;
    let hot = 16u64.min(blocks.max(1));
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut per_shard: Vec<Workload> = (0..shards)
        .map(|_| Workload {
            ops: Vec::new(),
            history: BTreeMap::new(),
        })
        .collect();
    let mut schedule = Vec::with_capacity(cfg.ops);
    for i in 0..cfg.ops {
        // Leading round-robin writes guarantee every tenant commits state
        // before any crash point can land in its lane.
        let shard = if i < shards * 2 {
            i % shards
        } else {
            rng.gen_range(0..shards as u64) as usize
        };
        // Per-tenant hot set at a tenant-distinct offset inside its region.
        let hot_base = (shard as u64 * 7) % blocks.max(1);
        let block = if rng.gen_bool(0.75) {
            (hot_base + rng.gen_range(0..hot)) % blocks.max(1)
        } else {
            rng.gen_range(0..blocks.max(1))
        };
        let addr = block * BLOCK_SIZE as u64;
        let Some(w) = per_shard.get_mut(shard) else {
            continue;
        };
        let local_index = w.ops.len();
        if i >= shards * 2 && rng.gen_bool(0.2) {
            w.ops.push(Op::Read { addr });
        } else {
            // Values keyed by the *global* op index: unique across tenants,
            // so identical bytes can never alias across a shard boundary.
            let value = value_for(i);
            w.history.entry(addr).or_default().push((local_index, value));
            w.ops.push(Op::Write { addr, value });
        }
        schedule.push((shard, local_index));
    }
    (per_shard, schedule)
}

fn shard_fresh(
    kind: ProtocolKind,
    cfg: &ShardSweepConfig,
) -> Result<ShardedMemory, IntegrityError> {
    let mem_cfg = SecureMemoryConfig::with_capacity(cfg.capacity)
        .with_metadata_cache_bytes(cfg.metadata_cache_bytes);
    ShardedMemory::new(mem_cfg, kind, cfg.shards)
}

fn shard_engine(
    mem: &mut ShardedMemory,
    idx: usize,
) -> Result<&mut SecureMemory, IntegrityError> {
    mem.shard_mut(idx).ok_or(IntegrityError::Invariant {
        what: "shard sweep addressed a missing shard",
    })
}

/// Replays the interleaved schedule against a fresh sharded controller,
/// optionally with a fault hook armed on the victim shard's lane. Healthy
/// shards keep executing (and epoch merges keep sealing, until the victim
/// crashes mid-epoch and merges defer). Returns the controller, per-shard
/// completed-op counts, and whether the victim's fault fired.
fn shard_replay(
    kind: ProtocolKind,
    cfg: &ShardSweepConfig,
    per_shard: &[Workload],
    schedule: &[(usize, usize)],
    victim: Option<(usize, Box<dyn FaultHook>)>,
) -> Result<(ShardedMemory, Vec<usize>, bool), IntegrityError> {
    let mut mem = shard_fresh(kind, cfg)?;
    let victim_shard = victim.as_ref().map(|(v, _)| *v);
    if let Some((v, hook)) = victim {
        shard_engine(&mut mem, v)?.nvm_mut().arm_fault_hook(hook);
    }
    let span = mem.span();
    let mut clocks = vec![0u64; cfg.shards];
    let mut completed = vec![0usize; cfg.shards];
    let mut faulted = false;
    for (i, &(shard, local)) in schedule.iter().enumerate() {
        if cfg.merge_every > 0 && i > 0 && i % cfg.merge_every == 0 && !faulted {
            // Epoch boundary: healthy runs seal; once the victim is down,
            // merges defer (freshness must not advance over a stale
            // sub-root) while the other shards keep committing mid-epoch.
            // The seal itself flushes the victim's verify queue, so the
            // armed fault can fire *inside* the merge — a legitimate
            // mid-epoch crash point, not a harness error.
            match mem.epoch_merge() {
                Ok(_) => {}
                Err(ref e) if power_failed(e) && victim_shard.is_some() => {
                    faulted = true;
                }
                Err(e) => return Err(e),
            }
        }
        if faulted && Some(shard) == victim_shard {
            continue;
        }
        let Some(op) = per_shard.get(shard).and_then(|w| w.ops.get(local)).copied() else {
            continue;
        };
        let base = shard as u64 * span;
        let now = clocks.get(shard).copied().unwrap_or(0);
        let done = match op {
            Op::Write { addr, value } => mem.write_block(now, base + addr, &value),
            Op::Read { addr } => mem.read_block(now, base + addr).map(|(_, done)| done),
        };
        match done {
            Ok(done) => {
                if let Some(c) = clocks.get_mut(shard) {
                    *c = done;
                }
                if let Some(c) = completed.get_mut(shard) {
                    *c += 1;
                }
            }
            Err(ref e) if power_failed(e) && Some(shard) == victim_shard => {
                faulted = true;
            }
            Err(e) => return Err(e),
        }
    }
    Ok((mem, completed, faulted))
}

/// The data-region lines of a per-shard media image. Metadata lines above
/// the data span move on cache-eviction timing (which legitimately differs
/// between a run whose epoch merges deferred and the fault-free baseline),
/// so the byte-identity requirement is on the protected data itself.
fn data_region(image: &[(u64, Vec<u8>)], span: u64) -> Vec<(u64, &[u8])> {
    image
        .iter()
        .filter(|&&(addr, _)| addr < span)
        .map(|(addr, bytes)| (*addr, bytes.as_slice()))
        .collect()
}

/// Checks every non-victim shard against its independent baseline media
/// image and per-tenant oracle: any divergence is a cross-boundary leak.
fn cross_shard_divergences(
    mem: &mut ShardedMemory,
    per_shard: &[Workload],
    base_media: &[Vec<(u64, Vec<u8>)>],
    victim: usize,
) -> Result<u64, IntegrityError> {
    let mut divergences = 0u64;
    let span = mem.span();
    // Media first: read-backs below may evict metadata and write the
    // device, so the byte comparison must see the untouched state.
    let media = mem.media_images();
    for (idx, image) in media.iter().enumerate() {
        if idx != victim
            && base_media
                .get(idx)
                .is_some_and(|b| data_region(b, span) != data_region(image, span))
        {
            divergences += 1;
        }
    }
    for (idx, w) in per_shard.iter().enumerate() {
        if idx == victim {
            continue;
        }
        let engine = shard_engine(mem, idx)?;
        match classify_readback(engine, w, w.ops.len(), true, false) {
            Outcome::Recovered { reads_detected: 0 } => {}
            _ => divergences += 1,
        }
    }
    Ok(divergences)
}

/// Runs the shard-crossed fault/tamper sweep for one protocol: every shard
/// takes a turn as the victim, crashed at every device-write ordinal of its
/// own WPQ lane *mid-epoch* while the other shards commit to completion;
/// only the victim is recovered (O(touched) per shard, checked against the
/// per-shard analytical bounds), every shard's read-back is checked against
/// its independent per-tenant oracle, and the post-recovery epoch merge
/// must seal fresh and verify. The tamper pass additionally flips one media
/// bit inside the crashed victim and requires the damage to be healed or
/// detected by the victim alone — never observed or healed via another
/// shard.
///
/// # Errors
///
/// [`IntegrityError`] only for workload-construction failures or an
/// integrity failure before any fault fired — a broken controller, not a
/// fault-model outcome.
pub fn run_shard_sweep(
    kind: ProtocolKind,
    cfg: &ShardSweepConfig,
) -> Result<ShardSweepSummary, IntegrityError> {
    let (per_shard, schedule) = generate_sharded(cfg);
    let mut s = ShardSweepSummary {
        shards: cfg.shards as u64,
        ..ShardSweepSummary::default()
    };

    // Baseline: the fault-free run every cross-shard comparison measures
    // against. The final merge must seal and verify.
    let (mut base, _, _) = shard_replay(kind, cfg, &per_shard, &schedule, None)?;
    let sealed = base.epoch_merge()?;
    if !base.verify_merge(&sealed) {
        s.merge_failures += 1;
    }
    let base_media = base.media_images();
    let base_epoch = base.epoch();

    for victim in 0..cfg.shards {
        // Count the victim lane's device-write ordinal domain.
        let plan: Box<dyn FaultHook> = Box::new(FaultPlan::count_only());
        let (mut counted, _, _) =
            shard_replay(kind, cfg, &per_shard, &schedule, Some((victim, plan)))?;
        let points = shard_engine(&mut counted, victim)?
            .nvm_mut()
            .device_write_ordinals();
        s.crash_points += points;

        for k in 0..points {
            let plan: Box<dyn FaultHook> = Box::new(FaultPlan::crash_after(k));
            let (mut mem, completed, faulted) =
                shard_replay(kind, cfg, &per_shard, &schedule, Some((victim, plan)))?;
            if !faulted {
                continue;
            }
            mem.crash_shard(victim)?;
            // Non-victim shards finished every op; their media must be
            // byte-identical to the fault-free baseline even before the
            // victim recovers (recovery may not touch them either).
            s.cross_shard_disturbances +=
                cross_shard_divergences(&mut mem, &per_shard, &base_media, victim)?;
            let done = completed.get(victim).copied().unwrap_or(0);
            let outcome = match mem.recover_shard(victim) {
                Err(_) => Outcome::Detected,
                Ok(report) => {
                    let engine = shard_engine(&mut mem, victim)?;
                    if !report_in_bounds(kind, engine, &report) {
                        s.bounds_violations += 1;
                    }
                    let w = per_shard.get(victim).ok_or(IntegrityError::Invariant {
                        what: "victim workload missing",
                    })?;
                    classify_readback(engine, w, done, true, false)
                }
            };
            match outcome {
                Outcome::Recovered { .. } => {
                    s.recovered += 1;
                    // All shards healthy again: the deferred epoch must now
                    // seal, strictly fresher than the baseline's history,
                    // and verify against current sub-roots.
                    match mem.epoch_merge() {
                        Ok(r) if mem.verify_merge(&r) && r.epoch > 0 => {}
                        _ => s.merge_failures += 1,
                    }
                }
                Outcome::Detected => s.detected += 1,
                Outcome::Silent => s.silent += 1,
            }
            // Recovery of the victim must not have disturbed anyone else.
            s.cross_shard_disturbances +=
                cross_shard_divergences(&mut mem, &per_shard, &base_media, victim)?;
        }

        if !cfg.tamper {
            continue;
        }
        for k in 0..points {
            let plan: Box<dyn FaultHook> = Box::new(FaultPlan::crash_after(k));
            let (mut mem, completed, faulted) =
                shard_replay(kind, cfg, &per_shard, &schedule, Some((victim, plan)))?;
            if !faulted {
                continue;
            }
            mem.crash_shard(victim)?;
            let done = completed.get(victim).copied().unwrap_or(0);
            let w = per_shard.get(victim).ok_or(IntegrityError::Invariant {
                what: "victim workload missing",
            })?;
            let engine = shard_engine(&mut mem, victim)?;
            let (tamper_addr, bit) = w.tamper_target(done, k, engine.geometry());
            engine.nvm_mut().tamper_flip_bit(tamper_addr, bit);
            s.tamper_points += 1;
            match mem.recover_shard(victim) {
                Err(_) => s.tamper_detected += 1,
                Ok(_) => {
                    let engine = shard_engine(&mut mem, victim)?;
                    match classify_readback(engine, w, done, false, false) {
                        Outcome::Recovered { reads_detected: 0 } => s.tamper_healed += 1,
                        Outcome::Recovered { .. } | Outcome::Detected => s.tamper_detected += 1,
                        Outcome::Silent => {
                            s.tamper_silent += 1;
                            s.silent += 1;
                        }
                    }
                }
            }
            // The attack lived entirely inside the victim: every other
            // shard's media must match the baseline bytes, its audit must
            // still pass, and its read-back must still equal its own
            // oracle. Any deviation means the boundary leaked.
            s.cross_shard_heals +=
                cross_shard_divergences(&mut mem, &per_shard, &base_media, victim)?;
            for other in 0..cfg.shards {
                if other == victim {
                    continue;
                }
                if !matches!(mem.audit_shard(other), Ok(true)) {
                    s.cross_shard_heals += 1;
                }
            }
        }
    }

    // The baseline epoch history must have stayed monotone throughout.
    if base_epoch == 0 {
        s.merge_failures += 1;
    }
    Ok(s)
}

/// The six recoverable protocols in the evaluation, with the same knobs the
/// crash-consistency property tests use.
pub fn sweep_protocols() -> Vec<(&'static str, ProtocolKind)> {
    vec![
        ("strict", ProtocolKind::Strict),
        ("leaf", ProtocolKind::Leaf),
        (
            "osiris",
            ProtocolKind::Osiris(OsirisConfig { stop_loss: 3 }),
        ),
        (
            "anubis",
            ProtocolKind::Anubis(AnubisConfig { stop_loss: 3 }),
        ),
        (
            "bmf",
            ProtocolKind::Bmf(BmfConfig {
                capacity: 16,
                maintenance_interval: 32,
                prune_threshold: 8,
            }),
        ),
        (
            "amnt",
            ProtocolKind::Amnt(AmntConfig {
                subtree_level: 2,
                interval_writes: 16,
                history_entries: 16,
            }),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_seed_deterministic() {
        let cfg = FaultSweepConfig::default();
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.ops, b.ops);
        let other = generate(&FaultSweepConfig { seed: 99, ..cfg });
        assert_ne!(a.ops, other.ops);
    }

    #[test]
    fn history_tracks_last_write_wins() {
        let cfg = FaultSweepConfig::default();
        let w = generate(&cfg);
        for (addr, hist) in &w.history {
            assert!(
                hist.windows(2).all(|p| p[0].0 < p[1].0),
                "history sorted at {addr:#x}"
            );
            let last = hist.last().map(|(_, v)| v);
            assert_eq!(w.expected(*addr, cfg.ops), last);
        }
        // A prefix of zero completed ops expects factory state everywhere.
        for addr in w.history.keys() {
            assert_eq!(w.expected(*addr, 0), None);
            assert!(w.historical(*addr, &[0u8; BLOCK_SIZE], 0));
        }
    }

    #[test]
    fn values_are_distinct_across_ops() {
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..512 {
            assert!(seen.insert(value_for(i)), "collision at {i}");
        }
    }

    #[test]
    fn traced_sweep_matches_untraced_sweep() {
        // Small but non-trivial: a few ordinals of every scenario class.
        let cfg = FaultSweepConfig {
            ops: 6,
            tail_depths: vec![1],
            ..FaultSweepConfig::default()
        };
        let untraced = run_sweep(ProtocolKind::Leaf, &cfg).expect("sweep");
        let (traced, report) = run_sweep_traced(ProtocolKind::Leaf, &cfg).expect("sweep");
        assert_eq!(traced, untraced, "sweep tracing perturbed the summary");
        // The harvest saw every clean-crash baseline recovery.
        assert_eq!(report.counter("sweep.scenarios.clean"), Some(traced.crash_points));
        let phases = report.hist("recovery").expect("root phase durations");
        assert_eq!(phases.count(), traced.crash_points);
        assert!(report.hist("recovery.rebuild_subtree").is_some(), "leaf rebuild phase");
        assert!(report.hist("sweep.strike.clean").is_some());
        assert!(report.hist("sweep.touched_frames").is_some());
        // And the report itself is a pure function of (kind, cfg).
        let (_, again) = run_sweep_traced(ProtocolKind::Leaf, &cfg).expect("sweep");
        assert_eq!(report, again, "sweep trace report not deterministic");
    }

    #[test]
    fn phase_one_counts_are_stable() {
        let cfg = FaultSweepConfig {
            ops: 8,
            ..FaultSweepConfig::default()
        };
        let w = generate(&cfg);
        let mut totals = Vec::new();
        for _ in 0..2 {
            let mut mem = fresh(ProtocolKind::Leaf, &cfg).expect("controller");
            mem.nvm_mut()
                .arm_fault_hook(Box::new(FaultPlan::count_only()));
            let mut t = 0;
            for op in &w.ops {
                t = apply(&mut mem, t, op).expect("op");
            }
            totals.push(mem.nvm_mut().device_write_ordinals());
        }
        assert_eq!(totals[0], totals[1]);
        assert!(totals[0] > 0);
    }

    #[test]
    fn workload_override_replaces_generator() {
        let ops = vec![
            SweepOp { addr: 0, write: true },
            SweepOp { addr: 128, write: true },
            SweepOp { addr: 0, write: false },
            SweepOp { addr: 130, write: true }, // misaligned: snapped down
        ];
        let cfg = FaultSweepConfig {
            workload: ops,
            ops: 9999, // ignored under an external workload
            ..FaultSweepConfig::default()
        };
        let w = generate(&cfg);
        assert_eq!(w.ops.len(), 4);
        assert_eq!(w.ops[0], Op::Write { addr: 0, value: value_for(0) });
        assert_eq!(w.ops[2], Op::Read { addr: 0 });
        assert_eq!(w.ops[3], Op::Write { addr: 128, value: value_for(3) });
        assert_eq!(w.history.get(&128).map(Vec::len), Some(2));
        // Deterministic: the override ignores the seed entirely.
        let again = generate(&FaultSweepConfig { seed: 77, ..cfg });
        assert_eq!(w.ops, again.ops);
    }

    #[test]
    fn sharded_workloads_are_deterministic_and_cover_every_tenant() {
        let cfg = ShardSweepConfig::default();
        let (a, sched_a) = generate_sharded(&cfg);
        let (b, sched_b) = generate_sharded(&cfg);
        assert_eq!(sched_a, sched_b);
        assert_eq!(a.len(), cfg.shards);
        for (shard, w) in a.iter().enumerate() {
            assert_eq!(w.ops, b[shard].ops, "shard {shard} workload unstable");
            assert!(
                w.ops.iter().take(2).all(|op| matches!(op, Op::Write { .. })),
                "tenant {shard} must open with committed writes"
            );
            let span = cfg.capacity / cfg.shards as u64;
            for op in &w.ops {
                let addr = match *op {
                    Op::Write { addr, .. } | Op::Read { addr } => addr,
                };
                assert!(addr < span, "local coordinates only");
                assert_eq!(addr % BLOCK_SIZE as u64, 0);
            }
        }
        // Schedule indexes stay in range and reference real ops.
        for &(shard, local) in &sched_a {
            assert!(a[shard].ops.get(local).is_some());
        }
    }

    #[test]
    fn shard_sweep_leaf_has_zero_cross_shard_leaks() {
        let cfg = ShardSweepConfig {
            ops: 12,
            ..ShardSweepConfig::default()
        };
        let s = run_shard_sweep(ProtocolKind::Leaf, &cfg).expect("sweep");
        assert!(s.crash_points > 0, "sweep explored no ordinals");
        assert!(s.recovered > 0, "leaf never recovered a victim");
        assert_eq!(s.silent, 0);
        assert_eq!(s.cross_shard_disturbances, 0);
        assert_eq!(s.cross_shard_heals, 0);
        assert_eq!(s.bounds_violations, 0);
        assert_eq!(s.merge_failures, 0);
        assert_eq!(s.tamper_silent, 0);
        assert_eq!(s.tamper_points, s.tamper_detected + s.tamper_healed);
        // Pure function of (kind, cfg).
        let again = run_shard_sweep(ProtocolKind::Leaf, &cfg).expect("sweep");
        assert_eq!(s, again);
    }

    #[test]
    fn shard_sweep_amnt_has_zero_cross_shard_leaks() {
        let cfg = ShardSweepConfig {
            ops: 12,
            tamper: false, // the leaf test owns the tamper dimension
            ..ShardSweepConfig::default()
        };
        let s = run_shard_sweep(
            ProtocolKind::Amnt(AmntConfig {
                subtree_level: 2,
                ..AmntConfig::default()
            }),
            &cfg,
        )
        .expect("sweep");
        assert!(s.crash_points > 0);
        assert_eq!(s.silent, 0);
        assert_eq!(s.cross_shard_disturbances, 0);
        assert_eq!(s.cross_shard_heals, 0);
        assert_eq!(s.bounds_violations, 0);
        assert_eq!(s.merge_failures, 0);
        assert_eq!(s.tamper_points, 0, "tamper pass disabled");
    }
}
