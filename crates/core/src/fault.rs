//! Exhaustive crash-point exploration over the device's fault plans.
//!
//! [`run_sweep`] takes one protocol and a seeded workload, runs it on a
//! [`ShardedMemory`] of [`FaultSweepConfig::shards`] domains, and lets each
//! shard in turn be the *victim*: it crashes the victim at *every*
//! device-write ordinal of its own WPQ lane — mid-operation,
//! mid-metadata-update, mid-epoch-merge, everywhere — while the other shards
//! (the *bystanders*) commit to completion, then recovers the victim and
//! classifies the outcome. One shard is the unsharded machine: at N=1 the
//! facade is bit-identical to a bare [`SecureMemory`].
//!
//! Every scenario takes one path: replay the workload with a mutation-path
//! fault plan armed on the victim's lane, crash the victim, arm the plan
//! its class gives the recovery's power cycle, run what the class puts
//! between the crash and the final recovery, recover, judge the read-back,
//! and tally the outcome in its class's counters. Scenarios that share a
//! crashed state share its replay: each runs on a clone of the crashed
//! machine. Every sweep runs six classes of scenario, in this order:
//!
//! * **Clean** ([`FaultPlan::crash_after`]), at every ordinal: the
//!   in-flight write is wholly lost. Recovery must either succeed with every
//!   completed operation's block reading back exactly, or fail with a
//!   *detected* [`RecoveryError`]. A crash at an operation boundary must
//!   always be the former (counted in [`SweepSummary::boundary_deficit`]
//!   otherwise). Repeating a completed recovery must leave the media
//!   byte-identical and never do more work than the pass before it
//!   ([`SweepSummary::work_regressions`]).
//! * **Nested recovery**, for every clean crash whose recovery wrote: the
//!   recovery procedure itself is re-crashed at every one of *its* device
//!   writes — the recovery-phase ordinal domain of a [`FaultPlan`] armed on
//!   the crashed device — both cleanly and tearing the in-flight line, and
//!   then recovered again. A cleanly interrupted recovery, re-run, must
//!   converge to a byte-identical media state and the same outcome class as
//!   the uninterrupted recovery ([`SweepSummary::idempotence_violations`]).
//! * **Torn** ([`FaultPlan::torn_after`], both halves), at every ordinal:
//!   only half of each 64-byte line touched by the in-flight write lands.
//!   Recovery may succeed with individual completed blocks failing their
//!   MAC at read time (counted in [`SweepSummary::detected_at_read`]) —
//!   torn metadata lines are shared — but a completed block must never
//!   *silently* read wrong bytes.
//! * **Dropped WPQ tail** ([`FaultPlan::drop_tail`]), at every operation
//!   boundary and at depths 1, 2 and 4: power fails cleanly but the last
//!   *n* device writes never drained from the write-pending queue. Any
//!   *historical* value of an address (prefix-loss equivalence) or a
//!   detected error is acceptable; bytes the workload never wrote are not.
//! * **Verify queue**, at every operation boundary: power fails with 1 to
//!   `verify_queue` deferred leaf-MAC checks still pending
//!   ([`SweepSummary::verify_queue_points`]); the crash must still recover
//!   in full.
//! * **Tamper**, at every ordinal: a bit is flipped on the raw media between
//!   the nested recovery crash and the second recovery, or between the
//!   crash and its recovery when the clean recovery does no device writes
//!   (targets rotating over a committed data block, its counter block, and
//!   its bottom-level tree node). The tamper must be healed by an authenticated rebuild or
//!   detected by a recovery error / read-back MAC failure — a silent
//!   outcome lands in [`SweepSummary::tamper_silent`] and must stay zero.
//!
//! Metadata-cache eviction writebacks persist tree nodes *out of protocol
//! order* — the exact hazard lazy (leaf-style) persistence claims to bound
//! — so their ordinals are enumerated as their own class
//! ([`SweepSummary::evict_points`]) and the outcomes of scenarios that crash
//! there are attributed separately. The sweep shrinks the metadata cache
//! ([`FaultSweepConfig::metadata_cache_bytes`]) so eviction pressure is real
//! at every workload size.
//!
//! Every outcome that exposes wrong bytes without an error — the property
//! the paper's protocols must never violate — lands in
//! [`SweepSummary::silent`], and the per-recovery [`RecoveryReport`]
//! counters are additionally checked against analytical bounds derived from
//! [`RecoveryModel`] stale fractions ([`SweepSummary::bounds_violations`]).
//!
//! Classification is differential, not merely self-consistent: after every
//! recovery the sweep replays the victim's committed operation prefix into
//! a lockstep [`UntimedMemory`] oracle and demands each address the victim
//! ever wrote read back *byte-for-byte equal* to that ground truth.
//!
//! Every scenario of every class also checks the bystanders, once after the
//! victim's crash and once after its recovery: their data media must equal
//! the fault-free run's and every address must read back exactly their own
//! oracle ([`SweepSummary::cross_shard_disturbances`]); after a tamper they
//! must also still pass their own audits
//! ([`SweepSummary::cross_shard_heals`]). Epoch merges seal every
//! [`FaultSweepConfig::merge_every`] ops until the victim goes down, after
//! the fault-free run, and after every clean crash that recovered
//! ([`SweepSummary::merge_failures`]).
//!
//! The sweep is a pure function of ([`ProtocolKind`], [`FaultSweepConfig`]):
//! same inputs, byte-identical [`SweepSummary`], regardless of how many
//! sweeps run concurrently elsewhere.
//!
//! [`RecoveryModel`]: crate::RecoveryModel

use crate::error::IntegrityError;
use crate::protocol::ProtocolKind;
use crate::recovery::RecoveryReport;
use crate::shard::ShardedMemory;
use crate::untimed::UntimedMemory;
use crate::{
    AmntConfig, AnubisConfig, BmfConfig, OsirisConfig, SecureMemory, SecureMemoryConfig, BLOCK_SIZE,
};
use amnt_bmt::BmtGeometry;
use amnt_nvm::CrashWriteMode::{self, Clean, Torn};
use amnt_nvm::{FaultPlan, NvmError, TornHalf};
use amnt_prng::Rng;
use std::collections::{BTreeMap, BTreeSet};

pub use crate::error::RecoveryError;

/// Sweep parameters: the workload, and the machine it runs on. Every sweep
/// runs every fault class (see the [module docs](self)). The defaults give
/// a debug-friendly sweep on one shard; the `fault_sweep` bench bin scales
/// `ops` up to the acceptance workload, and `shard_bench` sweeps a
/// [`tenant_mix`] at several shard counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSweepConfig {
    /// Workload seed (`amnt_prng`, bit-stable forever).
    pub seed: u64,
    /// Number of operations in the workload.
    pub ops: usize,
    /// Protected data capacity in bytes.
    pub capacity: u64,
    /// Shard domains the capacity is split into ([`ShardedMemory`]); each
    /// one takes a turn as the victim. `1` is the unsharded machine.
    pub shards: usize,
    /// Seal an epoch ([`ShardedMemory::epoch_merge`]) every this many
    /// workload ops until the victim goes down (`0` = no mid-run merges),
    /// so crashes also land mid-epoch and inside a merge's queue flush.
    pub merge_every: usize,
    /// Metadata cache size for the swept machine, split evenly across its
    /// shards. Deliberately small (16 lines) so dirty eviction writebacks —
    /// their own crash-point class — occur even at smoke-test workload
    /// sizes.
    pub metadata_cache_bytes: usize,
    /// Externally supplied workload. When non-empty it replaces the
    /// built-in seeded generator (and `ops` is ignored): each [`SweepOp`]
    /// becomes one operation, write values assigned deterministically by op
    /// index. This is how external generators (e.g. [`tenant_mix`], or the
    /// Zipfian multi-tenant mix in `amnt-workloads`) inherit the full
    /// crash-point coverage. Addresses are global: the sweep routes each to
    /// its shard and block-aligns it; one past `capacity` is an error.
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
            shards: 1,
            merge_every: 0,
            metadata_cache_bytes: 1024,
            workload: Vec::new(),
        }
    }
}

/// Aggregate outcome of one protocol's sweep, summed over victims. All
/// counters are exact and deterministic for a given ([`ProtocolKind`],
/// [`FaultSweepConfig`]).
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
    /// [`RecoveryModel`](crate::RecoveryModel)-derived bounds of the
    /// victim's own shard — must stay zero.
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
    /// Tamper-interleaving scenarios explored (one per clean crash point):
    /// a bit flipped on the media between the nested recovery crash and the
    /// second recovery.
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
    /// Bystander checks that found a non-victim shard's data media changed
    /// from the fault-free run, or its read-back off its own oracle, after
    /// the victim crashed or recovered — must stay zero (no state crosses
    /// a shard boundary).
    pub cross_shard_disturbances: u64,
    /// Tamper scenarios after which a bystander's data media, read-back or
    /// audit changed: damage inside the victim was observed by, or repaired
    /// through, another shard. Must stay zero.
    pub cross_shard_heals: u64,
    /// Epoch merges that failed or did not verify, after the fault-free run
    /// or after a clean crash that recovered — must stay zero.
    pub merge_failures: u64,
}

impl SweepSummary {
    /// The counters the `fault_sweep` artifact reports, as (column name,
    /// value) in column order: every field but the three cross-shard ones.
    pub fn columns(&self) -> [(&'static str, u64); 28] {
        [
            ("crash_points", self.crash_points),
            ("recovered", self.recovered),
            ("detected", self.detected),
            ("torn_recovered", self.torn_recovered),
            ("torn_detected", self.torn_detected),
            ("tail_recovered", self.tail_recovered),
            ("tail_detected", self.tail_detected),
            ("detected_at_read", self.detected_at_read),
            ("silent", self.silent),
            ("boundary_deficit", self.boundary_deficit),
            ("bounds_violations", self.bounds_violations),
            ("evict_points", self.evict_points),
            ("evict_recovered", self.evict_recovered),
            ("evict_detected", self.evict_detected),
            ("evict_silent", self.evict_silent),
            ("recovery_points", self.recovery_points),
            ("recovery_recovered", self.recovery_recovered),
            ("recovery_detected", self.recovery_detected),
            ("idempotence_violations", self.idempotence_violations),
            ("work_regressions", self.work_regressions),
            ("verify_queue_points", self.verify_queue_points),
            ("verify_queue_recovered", self.verify_queue_recovered),
            ("verify_queue_detected", self.verify_queue_detected),
            ("verify_queue_silent", self.verify_queue_silent),
            ("tamper_points", self.tamper_points),
            ("tamper_detected", self.tamper_detected),
            ("tamper_healed", self.tamper_healed),
            ("tamper_silent", self.tamper_silent),
        ]
    }

    /// Counts one scenario of `class` that ended in `outcome`: its class's
    /// scenario and outcome counters, the silent total, and a boundary
    /// deficit when the class must recover in full. `evict` attributes the
    /// outcome to the eviction class too (the scenario's mutation-path
    /// crash point was an eviction writeback).
    fn tally(&mut self, class: Class<'_>, outcome: Outcome, evict: bool) {
        use Outcome::{Detected, Recovered, Silent};
        let evict = u64::from(evict);
        match (class, outcome) {
            (Class::Clean { .. }, Recovered { .. }) => {
                self.recovered += 1;
                self.evict_recovered += evict;
            }
            (Class::Clean { .. }, Detected) => {
                self.detected += 1;
                self.evict_detected += evict;
            }
            // A re-recovery that succeeded counts before its read-back is
            // judged.
            (Class::Nested { .. }, Recovered { reads_detected }) => {
                self.recovery_recovered += 1;
                self.detected_at_read += reads_detected;
            }
            (Class::Nested { .. }, Silent) => self.recovery_recovered += 1,
            (Class::Nested { .. }, Detected) => self.recovery_detected += 1,
            (Class::Torn, Recovered { reads_detected }) => {
                self.torn_recovered += 1;
                self.detected_at_read += reads_detected;
            }
            (Class::Torn, Detected) => self.torn_detected += 1,
            (Class::Tail, Recovered { reads_detected }) => {
                self.tail_recovered += 1;
                self.detected_at_read += reads_detected;
            }
            (Class::Tail, Detected) => self.tail_detected += 1,
            (Class::VerifyQueue { .. }, Recovered { .. }) => self.verify_queue_recovered += 1,
            (Class::VerifyQueue { .. }, Detected) => self.verify_queue_detected += 1,
            (Class::VerifyQueue { .. }, Silent) => self.verify_queue_silent += 1,
            // A read-back MAC failure detected the flipped bit too; a full
            // read-back means recovery rewrote the line.
            (Class::Tamper { .. }, Recovered { reads_detected: 0 }) => self.tamper_healed += 1,
            (Class::Tamper { .. }, Recovered { .. } | Detected) => self.tamper_detected += 1,
            (Class::Tamper { .. }, Silent) => self.tamper_silent += 1,
            (Class::Clean { .. } | Class::Torn | Class::Tail, Silent) => {}
        }
        match class {
            Class::Nested { .. } => self.recovery_points += 1,
            Class::VerifyQueue { .. } => self.verify_queue_points += 1,
            Class::Tamper { .. } => self.tamper_points += 1,
            _ => {}
        }
        if outcome == Silent {
            self.silent += 1;
            self.evict_silent += evict;
        }
        if class.must_recover() && outcome != (Recovered { reads_detected: 0 }) {
            self.boundary_deficit += 1;
        }
    }
}

/// One workload operation, in shard-local coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// `write_block(addr, value)`.
    Write { addr: u64, value: [u8; BLOCK_SIZE] },
    /// `read_block(addr)`.
    Read { addr: u64 },
}

/// One shard's slice of the workload plus the ground-truth write history
/// it implies.
#[derive(Debug, Clone, Default)]
struct Workload {
    ops: Vec<Op>,
    /// Per-address write history as (shard-local op index, value), in op
    /// order.
    history: BTreeMap<u64, Vec<(usize, [u8; BLOCK_SIZE])>>,
}

/// The sweep workload routed onto the machine's shards.
#[derive(Debug, Clone)]
struct Routed {
    /// One workload per shard, in shard order.
    shards: Vec<Workload>,
    /// Issue order: `(shard, shard-local op index)` per workload op.
    order: Vec<(usize, usize)>,
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

/// The sweep's op stream: [`FaultSweepConfig::workload`] when supplied,
/// otherwise the seeded built-in generator — mostly writes concentrated in
/// a 32-block hot region (so AMNT elects a subtree and Osiris counters
/// actually lag), with occasional cold writes and reads mixed in.
fn generate(cfg: &FaultSweepConfig) -> Vec<SweepOp> {
    if !cfg.workload.is_empty() {
        return cfg.workload.clone();
    }
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let blocks = cfg.capacity / BLOCK_SIZE as u64;
    let hot = 32u64.min(blocks);
    (0..cfg.ops)
        .map(|i| {
            let block = if rng.gen_bool(0.75) {
                rng.gen_range(0..hot)
            } else {
                rng.gen_range(0..blocks)
            };
            // Leading writes guarantee the hot region heats up before any read.
            let write = !(i >= 4 && rng.gen_bool(0.2));
            SweepOp {
                addr: block * BLOCK_SIZE as u64,
                write,
            }
        })
        .collect()
}

/// A seeded multi-tenant mix of `cfg.ops` ops over `cfg.shards` tenants,
/// one per shard span. The tenants open round-robin with two writes each
/// (so every shard commits state before a crash can land in its lane);
/// after that each op draws its tenant at random and hits the tenant's
/// 16-block hot set (at a tenant-distinct offset) 75% of the time, and is
/// a read 20% of the time. Feed it to [`run_sweep`] as
/// [`FaultSweepConfig::workload`].
pub fn tenant_mix(cfg: &FaultSweepConfig) -> Vec<SweepOp> {
    let shards = cfg.shards.max(1);
    let span = cfg.capacity / shards as u64;
    let blocks = (span / BLOCK_SIZE as u64).max(1);
    let hot = 16u64.min(blocks);
    let mut rng = Rng::seed_from_u64(cfg.seed);
    (0..cfg.ops)
        .map(|i| {
            let opening = i < shards * 2;
            let shard = if opening {
                (i % shards) as u64
            } else {
                rng.gen_range(0..shards as u64)
            };
            let hot_base = (shard * 7) % blocks;
            let block = if rng.gen_bool(0.75) {
                (hot_base + rng.gen_range(0..hot)) % blocks
            } else {
                rng.gen_range(0..blocks)
            };
            SweepOp {
                addr: shard * span + block * BLOCK_SIZE as u64,
                write: opening || !rng.gen_bool(0.2),
            }
        })
        .collect()
}

impl Routed {
    /// Routes `ops` onto `mem`'s shards by span. Write values are keyed by
    /// the *global* op index — unique across shards, so identical bytes
    /// never alias across a boundary — and histories by the shard-local
    /// index.
    ///
    /// # Errors
    ///
    /// [`IntegrityError::OutOfRange`] for an address past the capacity.
    fn new(ops: &[SweepOp], mem: &ShardedMemory) -> Result<Self, IntegrityError> {
        let mut shards = vec![Workload::default(); mem.shards()];
        let mut order = Vec::with_capacity(ops.len());
        for (i, op) in ops.iter().enumerate() {
            let (shard, local) = mem.shard_of(op.addr)?;
            let addr = local / BLOCK_SIZE as u64 * BLOCK_SIZE as u64;
            let w = shards
                .get_mut(shard)
                .ok_or(IntegrityError::OutOfRange { addr: op.addr })?;
            let index = w.ops.len();
            if op.write {
                let value = value_for(i);
                w.history.entry(addr).or_default().push((index, value));
                w.ops.push(Op::Write { addr, value });
            } else {
                w.ops.push(Op::Read { addr });
            }
            order.push((shard, index));
        }
        Ok(Routed { shards, order })
    }
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

fn machine(kind: ProtocolKind, cfg: &FaultSweepConfig) -> Result<ShardedMemory, IntegrityError> {
    let mem_cfg = SecureMemoryConfig::with_capacity(cfg.capacity)
        .with_metadata_cache_bytes(cfg.metadata_cache_bytes);
    ShardedMemory::new(mem_cfg, kind, cfg.shards)
}

fn engine(mem: &mut ShardedMemory, idx: usize) -> Result<&mut SecureMemory, IntegrityError> {
    mem.shard_mut(idx).ok_or(IntegrityError::Invariant {
        what: "sweep addressed a missing shard",
    })
}

/// A byte-exact device image: `(frame base address, frame bytes)` in
/// address order, as [`amnt_nvm::Nvm::media_image`] returns it.
type MediaImage = Vec<(u64, Vec<u8>)>;

/// Shard `idx`'s data-region media. Metadata lines above the data span move
/// with cache-eviction timing, which legitimately differs between a run
/// whose merges deferred and the fault-free one, so bystanders are held
/// byte-identical on the protected data itself.
fn data_image(mem: &ShardedMemory, idx: usize) -> MediaImage {
    let mut image = mem
        .shard(idx)
        .map(|e| e.nvm().media_image())
        .unwrap_or_default();
    image.retain(|&(addr, _)| addr < mem.span());
    image
}

/// Seals an epoch over every shard; it must succeed and verify.
fn merge(mem: &mut ShardedMemory, s: &mut SweepSummary) {
    match mem.epoch_merge() {
        Ok(r) if mem.verify_merge(&r) => {}
        _ => s.merge_failures += 1,
    }
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
/// [`RecoveryModel`](crate::RecoveryModel) stale fractions (Table 4):
/// Strict rebuilds nothing, Leaf/Osiris rebuild at most the whole tree (the
/// sparse walk rebuilds only the touched ancestor closure), Anubis is
/// bounded by the metadata cache, BMF by its frontier capacity, AMNT by its
/// subtree. `mem` is the recovered shard, so the bounds are per shard.
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

/// Runs every fault class for one protocol, with every shard in turn as
/// the victim.
///
/// # Errors
///
/// [`IntegrityError`] for a config the machine rejects (capacity, shard
/// count, metadata cache), a workload address past the capacity, or an
/// integrity failure *before* any fault fired — never a fault-model
/// outcome.
pub fn run_sweep(
    kind: ProtocolKind,
    cfg: &FaultSweepConfig,
) -> Result<SweepSummary, IntegrityError> {
    run_sweep_impl(kind, cfg, None)
}

/// [`run_sweep`] with an observability harvest: alongside the summary it
/// returns a [`amnt_trace::TraceReport`] aggregating, per scenario class,
/// the strike-ordinal distributions, the baseline recovery's per-phase
/// durations (harvested by enabling cycle-domain tracing on the crashed
/// victim just before its recovery runs), and the touched-closure sizes the
/// recovery scans reported. Tracing is purely observational: the summary is
/// byte-identical to [`run_sweep`]'s, and the report is itself a pure
/// function of (`kind`, `cfg`) — byte-stable across job counts.
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
    // The machine is built before the workload is generated, so a config
    // it rejects is a typed error rather than a generator panic.
    let probe = machine(kind, cfg)?;
    let w = Routed::new(&generate(cfg), &probe)?;
    let mut s = SweepSummary::default();
    for (idx, ops) in w.shards.iter().enumerate() {
        let mut victim = Victim {
            kind,
            cfg,
            w: &w,
            idx,
            ops,
            base: Vec::new(),
            s: &mut s,
            tr: tr.as_deref_mut(),
        };
        victim.sweep()?;
    }
    Ok(s)
}

/// WPQ tail depths the tail class drops at every op boundary.
const TAIL_DEPTHS: [usize; 3] = [1, 2, 4];

/// A fault class: what runs between a scenario's crash and its final
/// recovery, how the read-back is judged, and which counters the outcome
/// lands in ([`SweepSummary::tally`]).
#[derive(Debug, Clone, Copy)]
enum Class<'a> {
    /// A clean crash at a mutation-path ordinal; `boundary` when the
    /// ordinal is an op boundary, where recovery must be complete.
    Clean { boundary: bool },
    /// A clean crash whose recovery is cut at one of its own device writes
    /// (the write lost or torn per `mode`), then recovered again. A cleanly
    /// cut recovery must converge to `baseline`, the media the
    /// uninterrupted recovery left (`None` when it detected).
    Nested {
        mode: CrashWriteMode,
        baseline: Option<&'a MediaImage>,
    },
    /// A torn crash at a mutation-path ordinal.
    Torn,
    /// A dropped WPQ tail at an op boundary.
    Tail,
    /// A crash at an op boundary with deferred leaf-MAC checks of `target`
    /// queued.
    VerifyQueue { target: u64 },
    /// A media bit flip before the final recovery, after a clean crash and
    /// (when `cut` is set) a recovery cut at that ordinal of its own device
    /// writes.
    Tamper { cut: Option<u64> },
}

impl Class<'_> {
    /// How the read-back is judged: `(strict, prefix_loss)` for
    /// [`classify_readback`].
    fn judged(self) -> (bool, bool) {
        match self {
            Class::Clean { .. } | Class::VerifyQueue { .. } => (true, false),
            Class::Nested { mode, .. } => (mode == CrashWriteMode::Clean, false),
            Class::Torn | Class::Tamper { .. } => (false, false),
            Class::Tail => (false, true),
        }
    }

    /// Whether anything short of a full recovery is a boundary deficit: a
    /// clean crash at an op boundary must recover completely.
    fn must_recover(self) -> bool {
        match self {
            Class::Clean { boundary } => boundary,
            Class::VerifyQueue { .. } => true,
            _ => false,
        }
    }

    /// The sweep tracer's scenario counter for the class, and the
    /// histogram of its strike values.
    fn trace_names(self) -> (&'static str, &'static str) {
        macro_rules! names {
            ($class:literal, $strike:literal) => {
                (concat!("sweep.scenarios.", $class), $strike)
            };
        }
        match self {
            Class::Clean { .. } => names!("clean", "sweep.strike.clean"),
            Class::Nested { .. } => names!("nested", "sweep.strike.nested"),
            Class::Torn => names!("torn", "sweep.strike.torn"),
            Class::Tail => names!("tail", "sweep.tail.depth"),
            Class::VerifyQueue { .. } => names!("verify_queue", "sweep.vq.depth"),
            Class::Tamper { .. } => names!("tamper", "sweep.strike.tamper"),
        }
    }
}

/// One fault scenario of one victim.
struct Scenario<'a> {
    class: Class<'a>,
    /// The class's strike value: the mutation-path ordinal `k` (clean,
    /// torn, tamper), the recovery ordinal `r` (nested), or the tail or
    /// queue depth.
    strike: u64,
    /// Whether the mutation-path crash ordinal is an eviction writeback.
    evict: bool,
}

impl<'a> Scenario<'a> {
    fn new(class: Class<'a>, strike: u64, evict: bool) -> Self {
        Scenario {
            class,
            strike,
            evict,
        }
    }

    /// The plan armed on the crashed victim for the power cycle its
    /// recovery runs in: a clean crash counts the recovery's device writes
    /// (the nested scenarios' crash points), a nested scenario cuts the
    /// recovery at its ordinal `r`, and a tamper scenario at its `cut`.
    fn recovery_plan(&self) -> Option<FaultPlan> {
        match self.class {
            Class::Clean { .. } => Some(FaultPlan::count_only()),
            Class::Nested { mode, .. } => Some(FaultPlan {
                mode,
                ..FaultPlan::crash_after(self.strike)
            }),
            Class::Tamper { cut } => cut.map(FaultPlan::crash_after),
            _ => None,
        }
    }
}

/// What a clean scenario's recovery leaves for the nested and tamper
/// scenarios at its ordinal.
#[derive(Default)]
struct Baseline {
    /// Device writes the recovery made: the nested scenarios' crash
    /// points (zero when it detected).
    writes: u64,
    /// The media the recovery left, when it succeeded.
    media: Option<MediaImage>,
}

/// One replayed machine, stopped where the victim's fault fired or its op
/// limit ran out. Scenarios that start from the same state each run on a
/// clone of it.
#[derive(Clone)]
struct Replay {
    mem: ShardedMemory,
    /// Victim ops that completed.
    completed: usize,
    /// Whether the victim's fault fired during the replay.
    faulted: bool,
}

/// Everything one victim's scenarios share.
struct Victim<'a> {
    kind: ProtocolKind,
    cfg: &'a FaultSweepConfig,
    w: &'a Routed,
    /// The crashed shard.
    idx: usize,
    /// Its workload, in shard-local coordinates.
    ops: &'a Workload,
    /// Every bystander's fault-free data image, in shard order (filled by
    /// the sweep's first phase).
    base: Vec<(usize, MediaImage)>,
    /// The sweep's summary, summed over victims.
    s: &'a mut SweepSummary,
    /// The sweep tracer, when the sweep is traced.
    tr: Option<&'a mut amnt_trace::Tracer>,
}

impl Victim<'_> {
    /// Replays the workload on a fresh machine with `plan` armed on the
    /// victim's lane. The victim runs its first `limit` ops, or stops when
    /// its fault fires; every other shard commits to completion, and epoch
    /// merges seal every [`FaultSweepConfig::merge_every`] ops until the
    /// victim goes down. A merge flushes the victim's verify queue, so the
    /// fault can fire inside it: a legitimate mid-epoch crash point.
    /// `boundaries`, when given, receives the victim's cumulative
    /// device-write ordinal count after each of its ops.
    fn replay(
        &self,
        plan: FaultPlan,
        limit: usize,
        mut boundaries: Option<&mut Vec<u64>>,
    ) -> Result<Replay, IntegrityError> {
        let mut mem = machine(self.kind, self.cfg)?;
        engine(&mut mem, self.idx)?.nvm_mut().arm_fault_hook(plan);
        let mut clocks = vec![0u64; mem.shards()];
        let (mut completed, mut faulted) = (0, false);
        let every = self.cfg.merge_every;
        for (i, &(shard, local)) in self.w.order.iter().enumerate() {
            if every > 0 && i > 0 && i % every == 0 && !faulted {
                match mem.epoch_merge() {
                    Ok(_) => {}
                    Err(ref e) if power_failed(e) => faulted = true,
                    Err(e) => return Err(e),
                }
            }
            let victim = shard == self.idx;
            if victim && (faulted || completed >= limit) {
                continue;
            }
            let op = self.w.shards.get(shard).and_then(|w| w.ops.get(local));
            let (Some(op), Some(clock)) = (op, clocks.get_mut(shard)) else {
                continue;
            };
            let engine = engine(&mut mem, shard)?;
            match apply(engine, *clock, op) {
                Ok(done) => {
                    *clock = done;
                    if victim {
                        completed += 1;
                        if let Some(b) = boundaries.as_deref_mut() {
                            b.push(engine.nvm().device_write_ordinals());
                        }
                    }
                }
                Err(ref e) if victim && power_failed(e) => faulted = true,
                Err(e) => return Err(e),
            }
        }
        Ok(Replay {
            mem,
            completed,
            faulted,
        })
    }

    /// Replays every victim op with `plan` armed; `None` when its fault
    /// never fired, so no scenario starts from it.
    fn crashed(&self, plan: FaultPlan) -> Result<Option<Replay>, IntegrityError> {
        let run = self.replay(plan, usize::MAX, None)?;
        Ok(run.faulted.then_some(run))
    }

    /// Counts the bystanders that diverged from the fault-free run: data
    /// media first (the read-backs after it may evict metadata and write
    /// the device), then a verified read-back of every address against
    /// each bystander's own oracle.
    fn bystanders(&self, mem: &mut ShardedMemory) -> Result<u64, IntegrityError> {
        let mut diverged = 0;
        for (idx, base) in &self.base {
            if data_image(mem, *idx) != *base {
                diverged += 1;
            }
        }
        for (idx, _) in &self.base {
            let Some(w) = self.w.shards.get(*idx) else {
                continue;
            };
            let outcome = classify_readback(engine(mem, *idx)?, w, w.ops.len(), true, false);
            if outcome != (Outcome::Recovered { reads_detected: 0 }) {
                diverged += 1;
            }
        }
        Ok(diverged)
    }

    /// Runs every fault class with this shard as the victim.
    fn sweep(&mut self) -> Result<(), IntegrityError> {
        let victim = self.idx;

        // Phase 1: one fault-free, count-only replay records the victim's
        // op boundaries and eviction-writeback ordinals and the bystanders'
        // data images; its final merge must seal.
        let mut boundaries = Vec::with_capacity(self.ops.ops.len());
        let count_only = FaultPlan::count_only();
        let mut run = self.replay(count_only, usize::MAX, Some(&mut boundaries))?;
        let counted = engine(&mut run.mem, victim)?;
        let total = counted.nvm().device_write_ordinals();
        let evict_ordinals: BTreeSet<u64> = counted
            .nvm()
            .eviction_write_ordinals()
            .iter()
            .copied()
            .collect();
        let queue_cap = counted.config().verify_queue.max(1) as u64;
        self.base = (0..run.mem.shards())
            .filter(|&other| other != victim)
            .map(|other| (other, data_image(&run.mem, other)))
            .collect();
        merge(&mut run.mem, self.s);
        self.s.crash_points += total;
        self.s.evict_points += evict_ordinals.len() as u64;

        // Phase 2, at every ordinal `k`: the clean crash, the nested
        // scenarios that cut its recovery at each of that recovery's device
        // writes, and the two torn crashes. The clean and nested scenarios
        // start from one replay's crashed machine. The clean recovery's
        // write count is kept for the tamper phase.
        let mut recovery_writes = Vec::with_capacity(total as usize);
        for k in 0..total {
            let evict = evict_ordinals.contains(&k);
            let boundary = boundaries.binary_search(&k).is_ok();
            let mut writes = 0;
            if let Some(crashed) = self.crashed(FaultPlan::crash_after(k))? {
                let clean = Scenario::new(Class::Clean { boundary }, k, evict);
                let base = self.run(clean, crashed.clone())?;
                let baseline = base.media.as_ref();
                for r in 0..base.writes {
                    for mode in [Clean, Torn(TornHalf::First), Torn(TornHalf::Last)] {
                        let class = Class::Nested { mode, baseline };
                        self.run(Scenario::new(class, r, evict), crashed.clone())?;
                    }
                }
                writes = base.writes;
            }
            for half in [TornHalf::First, TornHalf::Last] {
                if let Some(torn) = self.crashed(FaultPlan::torn_after(k, half))? {
                    self.run(Scenario::new(Class::Torn, k, evict), torn)?;
                }
            }
            recovery_writes.push(writes);
        }

        // Phase 3: dropped WPQ tails at every op boundary.
        let ops = self.ops.ops.len();
        for limit in 1..=ops {
            for depth in TAIL_DEPTHS {
                let run = self.replay(FaultPlan::drop_tail(depth), limit, None)?;
                self.run(Scenario::new(Class::Tail, depth as u64, false), run)?;
            }
        }

        // Phase 4: power loss with a non-empty lazy verify queue, at every op
        // boundary and every reachable queue depth. Reading the target
        // `verify_queue` (cap) times also covers the batch-full drain path —
        // the queue is empty again at that depth, which is itself a scenario.
        for limit in 1..=ops {
            // An address already committed within the prefix, to stack
            // deferred checks against.
            let target = self
                .ops
                .history
                .iter()
                .find(|(_, h)| h.first().is_some_and(|&(i, _)| i < limit))
                .map(|(&a, _)| a);
            let Some(target) = target else { continue };
            // One replay to the boundary serves every queue depth.
            let run = self.replay(FaultPlan::count_only(), limit, None)?;
            for depth in 1..=queue_cap {
                let class = Class::VerifyQueue { target };
                self.run(Scenario::new(class, depth, false), run.clone())?;
            }
        }

        // Phase 5: tamper interleaving at every clean crash point: crash at
        // `k`, let recovery run until a nested crash at one of its own
        // device writes (when the clean recovery writes at all), then flip
        // one bit on the raw media before the final recovery. The target
        // rotates over line classes (see `Workload::tamper_target`).
        for (k, writes) in (0..total).zip(recovery_writes) {
            if let Some(crashed) = self.crashed(FaultPlan::crash_after(k))? {
                let cut = (writes > 0).then(|| k % writes);
                let evict = evict_ordinals.contains(&k);
                self.run(Scenario::new(Class::Tamper { cut }, k, evict), crashed)?;
            }
        }
        Ok(())
    }

    /// Runs one scenario on `run`, the replayed machine: crash the victim,
    /// arm the class's [`Scenario::recovery_plan`], run what the class puts
    /// before the final recovery, recover, judge the read-back against the
    /// oracle, and tally the outcome; the bystanders are checked after the
    /// crash and at the end. A clean scenario also harvests its recovery's
    /// trace, repeats a completed recovery to check it is idempotent, seals
    /// the deferred epoch once the victim recovered, and returns its
    /// [`Baseline`].
    fn run(&mut self, sc: Scenario<'_>, mut run: Replay) -> Result<Baseline, IntegrityError> {
        let mut base = Baseline::default();
        let clean = matches!(sc.class, Class::Clean { .. });
        let victim = engine(&mut run.mem, self.idx)?;
        if let Class::VerifyQueue { target } = sc.class {
            // Stack `strike` deferred checks on whatever the trailing
            // workload reads left queued.
            let queued = victim.verify_queue_len() as u64;
            let mut t = 0;
            for _ in 0..sc.strike {
                t = victim.read_block(t, target)?.1;
            }
            let cap = victim.config().verify_queue.max(1) as u64;
            debug_assert_eq!(victim.verify_queue_len() as u64, (queued + sc.strike) % cap);
        }
        if let Some(t) = self.tr.as_deref_mut() {
            let (scenarios, strikes) = sc.class.trace_names();
            t.add(scenarios, 1);
            t.record(strikes, sc.strike);
            if clean {
                // Observe the recovery's phase tree: tracing is a pure
                // observer, so the summary is unchanged by this.
                victim.enable_tracing(amnt_trace::TraceConfig::default());
            }
        }
        run.mem.crash_shard(self.idx)?;
        if let Some(plan) = sc.recovery_plan() {
            let victim = engine(&mut run.mem, self.idx)?;
            victim.nvm_mut().arm_fault_hook(plan);
        }
        self.s.cross_shard_disturbances += self.bystanders(&mut run.mem)?;

        let victim = engine(&mut run.mem, self.idx)?;
        let recovers = match sc.class {
            // The nested fault cuts power mid-recovery. When the un-faulted
            // recovery prefix errors first instead (`r` lies at or past its
            // own failure point), the scenario ends there: detected.
            Class::Nested { .. } => {
                let cut = matches!(
                    victim.recover(),
                    Err(RecoveryError::Device(NvmError::PowerFailure { .. }))
                );
                if cut {
                    victim.crash();
                }
                cut
            }
            Class::Tamper { cut } => {
                // Crash again after the nested cut with the power-failure
                // flag still set, so the final recovery sees a dirty
                // shutdown. If the recovery instead detected before the cut
                // or completed without it, tamper a cleanly re-crashed state.
                if cut.is_some() {
                    let _ = victim.recover();
                    victim.crash();
                }
                let g = victim.geometry();
                let (addr, bit) = self.ops.tamper_target(run.completed, sc.strike, g);
                victim.nvm_mut().tamper_flip_bit(addr, bit);
                true
            }
            _ => true,
        };
        let recovery = recovers.then(|| victim.recover());
        if let (true, Some(t)) = (clean, self.tr.as_deref_mut()) {
            harvest_recovery_trace(t, victim);
            // Scope the observation window to this one crash/recover pair:
            // the repeat pass and the read-back below must run exactly as
            // the untraced sweep runs them.
            victim.disable_tracing();
        }
        let (strict, prefix_loss) = sc.class.judged();
        let mut media = None;
        let outcome = match recovery {
            None | Some(Err(_)) => Outcome::Detected,
            Some(Ok(report)) => {
                if matches!(sc.class, Class::Clean { .. } | Class::Nested { .. }) {
                    media = Some(victim.nvm().media_image());
                }
                if clean {
                    // Counted before read-back: read-path cache evictions
                    // would otherwise keep consuming recovery-domain
                    // ordinals.
                    base.writes = victim.nvm().device_write_ordinals();
                    // Re-crash the recovered state cleanly and recover
                    // again: the repeat must succeed, leave the media
                    // byte-identical, and never do more work.
                    victim.crash();
                    match victim.recover() {
                        Ok(repeat) => {
                            if repeat.work() > report.work() {
                                self.s.work_regressions += 1;
                            }
                            if Some(victim.nvm().media_image()) != media {
                                self.s.idempotence_violations += 1;
                            }
                        }
                        Err(_) => self.s.idempotence_violations += 1,
                    }
                }
                if !report_in_bounds(self.kind, victim, &report) {
                    self.s.bounds_violations += 1;
                }
                classify_readback(victim, self.ops, run.completed, strict, prefix_loss)
            }
        };
        self.s.tally(sc.class, outcome, sc.evict);

        match sc.class {
            Class::Clean { .. } => {
                // Once the victim recovered every shard is healthy again:
                // the deferred epoch must now seal and verify.
                if outcome == (Outcome::Recovered { reads_detected: 0 }) {
                    merge(&mut run.mem, self.s);
                }
                base.media = media;
            }
            // A cleanly cut recovery (judged strictly), re-run, must land
            // where the uninterrupted one did: the same media, or a
            // detection where it detected.
            Class::Nested { baseline, .. } if strict && recovers && baseline != media.as_ref() => {
                self.s.idempotence_violations += 1;
            }
            _ => {}
        }
        if let Class::Tamper { .. } = sc.class {
            // Damage inside the victim must not be seen by, or repaired
            // through, another shard.
            self.s.cross_shard_heals += self.bystanders(&mut run.mem)?;
            for (other, _) in &self.base {
                if !matches!(run.mem.audit_shard(*other), Ok(true)) {
                    self.s.cross_shard_heals += 1;
                }
            }
        } else {
            self.s.cross_shard_disturbances += self.bystanders(&mut run.mem)?;
        }
        Ok(base)
    }
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

    /// The default workload routed onto a one-shard leaf machine.
    fn routed(cfg: &FaultSweepConfig) -> Routed {
        let mem = machine(ProtocolKind::Leaf, cfg).expect("machine");
        Routed::new(&generate(cfg), &mem).expect("routable workload")
    }

    #[test]
    fn workloads_are_seed_deterministic() {
        let cfg = FaultSweepConfig::default();
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a, b);
        let other = generate(&FaultSweepConfig { seed: 99, ..cfg });
        assert_ne!(a, other);
    }

    #[test]
    fn history_tracks_last_write_wins() {
        let cfg = FaultSweepConfig::default();
        let routed = routed(&cfg);
        let w = &routed.shards[0];
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
        let w = routed(&cfg);
        let victim = Victim {
            kind: ProtocolKind::Leaf,
            cfg: &cfg,
            w: &w,
            idx: 0,
            ops: &w.shards[0],
            base: Vec::new(),
            s: &mut SweepSummary::default(),
            tr: None,
        };
        let mut runs = Vec::new();
        for _ in 0..2 {
            let mut boundaries = Vec::new();
            let plan = FaultPlan::count_only();
            let mut run = victim
                .replay(plan, usize::MAX, Some(&mut boundaries))
                .expect("count-only replay");
            assert_eq!((run.completed, run.faulted), (cfg.ops, false));
            let total = engine(&mut run.mem, 0)
                .expect("victim")
                .nvm()
                .device_write_ordinals();
            runs.push((boundaries, total));
        }
        assert_eq!(runs[0], runs[1]);
        let (boundaries, total) = &runs[0];
        assert_eq!(boundaries.len(), cfg.ops, "one boundary per op");
        assert!(boundaries.windows(2).all(|p| p[0] <= p[1]));
        assert_eq!(boundaries.last(), Some(total));
        assert!(*total > 0);
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
        let w = routed(&cfg);
        let ops = &w.shards[0].ops;
        assert_eq!(ops.len(), 4);
        assert_eq!(ops[0], Op::Write { addr: 0, value: value_for(0) });
        assert_eq!(ops[2], Op::Read { addr: 0 });
        assert_eq!(ops[3], Op::Write { addr: 128, value: value_for(3) });
        assert_eq!(w.shards[0].history.get(&128).map(Vec::len), Some(2));
        // Deterministic: the override ignores the seed entirely.
        let again = routed(&FaultSweepConfig { seed: 77, ..cfg });
        assert_eq!(*ops, again.shards[0].ops);
    }

    #[test]
    fn tenant_mix_routes_deterministically_and_covers_every_tenant() {
        let cfg = FaultSweepConfig {
            seed: 0x5AAD_F001,
            ops: 32,
            shards: 2,
            ..FaultSweepConfig::default()
        };
        let mix = tenant_mix(&cfg);
        assert_eq!(
            mix,
            tenant_mix(&cfg),
            "mix not a pure function of the config"
        );
        assert_eq!(mix.len(), cfg.ops);
        let w = routed(&FaultSweepConfig {
            workload: mix,
            ..cfg.clone()
        });
        assert_eq!(w.shards.len(), cfg.shards);
        let span = cfg.capacity / cfg.shards as u64;
        for (shard, tenant) in w.shards.iter().enumerate() {
            let mut opening = tenant.ops.iter().take(2);
            assert!(
                opening.all(|op| matches!(op, Op::Write { .. })),
                "tenant {shard} must open with committed writes"
            );
            for op in &tenant.ops {
                let addr = match *op {
                    Op::Write { addr, .. } | Op::Read { addr } => addr,
                };
                assert!(addr < span, "local coordinates only");
                assert_eq!(addr % BLOCK_SIZE as u64, 0);
            }
        }
        // The issue order references every routed op exactly once.
        assert_eq!(w.order.len(), cfg.ops);
        for &(shard, local) in &w.order {
            assert!(w.shards[shard].ops.get(local).is_some());
        }
        let routed_ops: usize = w.shards.iter().map(|t| t.ops.len()).sum();
        assert_eq!(routed_ops, cfg.ops);
    }
}
