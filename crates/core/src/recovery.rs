//! Post-crash recovery: the functional per-protocol procedures and the
//! analytical recovery-time model behind the paper's Table 4.

// Crash-path discipline (DESIGN.md §2b): no panics outside tests; return
// a typed IntegrityError or RecoveryError instead.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

use crate::controller::SecureMemory;
use crate::error::RecoveryError;
use crate::protocol::{AmntConfig, ProtocolKind, ProtocolState};
use crate::untimed::NvmUntimed;
use amnt_bmt::{set_slot, BmtGeometry, NodeBytes, NodeId, PAGE_SIZE};
use std::cmp::Reverse;
use std::collections::BTreeSet;

/// What a recovery pass did, and whether the rebuilt state matched the
/// non-volatile on-chip registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Device reads performed during recovery.
    pub nvm_reads: u64,
    /// Device bytes read during recovery.
    pub bytes_read: u64,
    /// Device writes performed during recovery.
    pub nvm_writes: u64,
    /// Counter blocks whose values had to be re-derived.
    pub counters_recovered: u64,
    /// Tree nodes recomputed and written back.
    pub nodes_recomputed: u64,
    /// Whether the rebuilt state matched the trusted register(s).
    pub verified: bool,
}

impl RecoveryReport {
    /// Scalar recovery effort: device traffic plus re-derivation work. The
    /// idempotence sweeps require this to be monotonically non-increasing
    /// across repeated recoveries of the same crash — a repeat recovery
    /// starts from a strictly more consistent state, so it must never have
    /// *more* to do (counters already advanced, nodes already rebuilt, no
    /// dirty-shutdown audit on a clean re-crash).
    pub fn work(&self) -> u64 {
        self.nvm_reads + self.nvm_writes + self.counters_recovered + self.nodes_recomputed
    }
}

impl SecureMemory {
    /// Recovers the metadata state after [`SecureMemory::crash`], following
    /// the active protocol's procedure. After a successful recovery the
    /// stored tree is globally consistent with the on-chip root register and
    /// normal operation may resume.
    ///
    /// Every path here is O(touched lines): the procedures scan the touched
    /// frame set and its authentication paths (never the address space), so
    /// a multi-terabyte device with a small hot set recovers in time
    /// proportional to the hot set. [`RecoveryModel`] gives the analytical
    /// Table 4 projection; the simulated `table4_recovery` column reconciles
    /// the two.
    ///
    /// # Errors
    ///
    /// [`RecoveryError::Unrecoverable`] for the volatile baseline when any
    /// metadata was stale, [`RecoveryError::CounterUnrecoverable`] when a
    /// stop-loss trial fails, [`RecoveryError::RootMismatch`] when the
    /// rebuilt tree contradicts a non-volatile register.
    pub fn recover(&mut self) -> Result<RecoveryReport, RecoveryError> {
        if !self.is_crashed() {
            return Ok(RecoveryReport {
                nvm_reads: 0,
                bytes_read: 0,
                nvm_writes: 0,
                counters_recovered: 0,
                nodes_recomputed: 0,
                verified: true,
            });
        }
        // Phase tree root, starting at the last recorded cycle: every
        // per-protocol procedure below runs its phases (scan → rebuild
        // counters → verify/rebuild subtree → audit) inside this one, so a
        // traced recovery exports as one nested flame.
        self.recovery_cursor = self.tracer.last_ts();
        self.phase("recovery", |s| Ok((s.recover_crashed()?, 0)))
    }

    fn recover_crashed(&mut self) -> Result<RecoveryReport, RecoveryError> {
        // A dirty shutdown means the device itself lost or tore writes
        // (power cut mid-write, or a dropped write-pending-queue tail) —
        // strictly worse than the clean "volatile state lost" crash the
        // per-protocol procedures are designed for.
        let dirty_shutdown = self.nvm.dirty_shutdown();
        let before = *self.nvm.stats();
        let mut counters_recovered = 0;
        let mut nodes_recomputed = 0;

        match self.protocol() {
            ProtocolKind::Volatile => {
                if !self.audit_phase()? {
                    return Err(RecoveryError::Unrecoverable {
                        reason: "volatile metadata lost at power failure; persisted counters \
                                 are inconsistent with the on-chip root"
                            .to_string(),
                    });
                }
            }
            // Everything was written through (PLP's unordered persists are
            // atomic at our crash granularity; real PLP restores ordering at
            // recovery with a bounded scan). Zero-work scan phase so the
            // trace still shows an explicit (empty) tree.
            ProtocolKind::Strict | ProtocolKind::Plp => {
                self.phase("recovery.scan", |_| Ok(((), 0)))?;
            }
            ProtocolKind::Leaf => {
                self.trace_scan_touched()?;
                nodes_recomputed = self.rebuild_touched_phase()?;
            }
            ProtocolKind::Osiris(cfg) => {
                let candidates = self.touched_counter_candidates()?;
                counters_recovered = self.rebuild_counters_phase(candidates, cfg.stop_loss)?;
                nodes_recomputed = self.rebuild_touched_phase()?;
            }
            ProtocolKind::Anubis(cfg) => {
                let (stale_counters, stale_nodes) = self.shadow_table_scan()?;
                counters_recovered = self.rebuild_counters_phase(stale_counters, cfg.stop_loss)?;
                nodes_recomputed = self.recompute_phase(&[], stale_nodes)?;
            }
            ProtocolKind::Bmf(_) => {
                self.trace_scan_touched()?;
                nodes_recomputed = self.recover_bmf()?;
            }
            ProtocolKind::Amnt(_) => {
                self.trace_scan_touched()?;
                nodes_recomputed = self.recover_amnt()?;
            }
        }

        // Safety net for device-level faults: the per-protocol procedure
        // above may have healed everything it knows about, but nothing in it
        // proves the media survived a mid-write power cut or a dropped WPQ
        // tail intact. Re-derive the touched ancestor closure from the
        // counters and check it against the on-chip root register so such
        // damage is always *detected* (an error), never silently absorbed.
        // O(touched): every nonzero counter lives in a touched frame, so the
        // sparse walk covers everything the dense one would (see
        // `Bmt::verify_touched`). Clean op-boundary crashes skip this,
        // keeping Strict/PLP recovery at zero work.
        if dirty_shutdown && !self.audit_phase()? {
            return Err(RecoveryError::RootMismatch);
        }

        let after = *self.nvm.stats();
        self.crashed = false;
        let report = RecoveryReport {
            nvm_reads: after.reads - before.reads,
            bytes_read: after.bytes_read - before.bytes_read,
            nvm_writes: after.writes - before.writes,
            counters_recovered,
            nodes_recomputed,
            verified: true,
        };
        self.trace_recovery(&report);
        Ok(report)
    }

    /// The `recovery.audit` phase: re-derives the touched ancestor closure
    /// and checks it against the root register. Returns whether they agree;
    /// a mismatch closes the phase with no hashes, as an error would.
    fn audit_phase(&mut self) -> Result<bool, RecoveryError> {
        self.phase("recovery.audit", |s| {
            let r0 = s.nvm.stats().reads;
            let ok = s.bmt.verify_touched(&mut s.nvm, &s.root_register)?;
            // One MAC per block the verification walk fetched.
            Ok((ok, if ok { s.nvm.stats().reads - r0 } else { 0 }))
        })
    }

    /// Trace-only touched-frame scan phase: counts the touched data frames
    /// (the recovery closure's seed set) into the
    /// `recovery.touched_frames` histogram. Host-side bitmap queries only —
    /// no device stats move, and nothing runs when tracing is off.
    fn trace_scan_touched(&mut self) -> Result<(), RecoveryError> {
        if !self.tracing_enabled() {
            return Ok(());
        }
        let cap = self.geometry().data_capacity();
        let touched = self.nvm.touched_frames_in(0, cap).count() as u64;
        self.phase("recovery.scan", |_| Ok(((), 0)))?;
        self.trace_recovery_stat("recovery.touched_frames", touched);
        Ok(())
    }

    /// Leaf and Osiris: rebuilds the touched tree from the counters and
    /// checks the result against the root register. Returns the nodes
    /// recomputed.
    fn rebuild_touched_phase(&mut self) -> Result<u64, RecoveryError> {
        self.phase("recovery.rebuild_subtree", |s| {
            let (computed, recomputed) = s.bmt.build_touched(&mut s.nvm)?;
            if computed != s.root_register {
                return Err(RecoveryError::RootMismatch);
            }
            // Each recomputed node MACs its 8 children.
            Ok((recomputed, recomputed.saturating_mul(8)))
        })
    }

    /// Osiris's scan phase: every *touched* counter block. The candidate
    /// set is the union of counters whose counter frame, data page, or HMAC
    /// lane frame has been touched — a lagging counter can be behind
    /// persisted data even when the counter block itself never reached the
    /// media, so the data/HMAC regions vote too. Untouched pages (all three
    /// regions virgin) are exactly the factory state and need no trial.
    fn touched_counter_candidates(&mut self) -> Result<Vec<u64>, RecoveryError> {
        let g = self.geometry().clone();
        self.phase("recovery.scan", |s| {
            let mut set: BTreeSet<u64> = s.bmt.touched_counters(&s.nvm).into_iter().collect();
            // One data frame is one page is one counter.
            for frame in s.nvm.touched_frames_in(0, g.data_capacity()) {
                set.insert(g.counter_index(frame));
            }
            // One HMAC frame covers FRAME_SIZE / 8 blocks = 8 pages.
            let hmac_base = g.hmac_addr(0);
            let hmac_end = hmac_base + g.data_capacity() / 64 * 8;
            for frame in s.nvm.touched_frames_in(hmac_base, hmac_end) {
                // Lane byte `o` (from hmac_base) belongs to data block o/8,
                // i.e. counter (o/8)*64 / PAGE_SIZE = o/512.
                let lo = frame.max(hmac_base) - hmac_base;
                let hi = (lo + amnt_nvm::FRAME_SIZE as u64).min(hmac_end - hmac_base);
                for counter in (lo / 512)..=((hi - 1) / 512).min(g.counter_blocks() - 1) {
                    set.insert(counter);
                }
            }
            Ok((set.into_iter().collect(), 0))
        })
    }

    /// Anubis's scan phase: reads the shadow table for the counters and
    /// nodes that were resident (hence possibly stale) at the crash.
    /// Returns the stale counters and the nodes to recompute (each listed
    /// line's ancestry up to level 2).
    fn shadow_table_scan(&mut self) -> Result<(Vec<u64>, StaleNodes), RecoveryError> {
        let lines = self.config().metadata_cache.lines();
        let g = self.geometry().clone();
        self.phase("recovery.scan", |s| {
            let mut stale_counters = Vec::new();
            let mut stale_nodes = StaleNodes::new();
            for slot in 0..lines as u64 {
                let tagged = s.nvm.read_u64(s.aux_base + slot * 8)?;
                if tagged == 0 {
                    continue;
                }
                let addr = tagged - 1;
                if let Some(idx) = g.counter_index_of_addr(addr) {
                    stale_counters.push(idx);
                    for node in g.path_to_root(idx) {
                        stale_nodes.insert((Reverse(node.level), node.index));
                    }
                } else if let Some(node) = g.node_of_addr(addr) {
                    insert_ancestry(&g, Some(node), &mut stale_nodes);
                }
            }
            Ok(((stale_counters, stale_nodes), 0))
        })
    }

    /// Osiris-style bounded re-derivation of `candidates`, as the
    /// `recovery.rebuild_counters` phase: each minor is advanced until the
    /// persisted data HMAC matches, up to the stop-loss bound. Returns how
    /// many counter blocks changed.
    fn rebuild_counters_phase(
        &mut self,
        candidates: Vec<u64>,
        stop_loss: u32,
    ) -> Result<u64, RecoveryError> {
        self.trace_recovery_stat("recovery.touched_counters", candidates.len() as u64);
        self.phase("recovery.rebuild_counters", |s| {
            let mut recovered = 0;
            let mut trials = 0;
            for index in candidates {
                let (changed, t) = s.recover_counter(index, stop_loss)?;
                trials += t;
                if changed {
                    recovered += 1;
                }
            }
            Ok((recovered, trials))
        })
    }

    /// Recovers one counter block; returns whether it changed and how many
    /// MAC trials (hash ops) the stop-loss search performed.
    fn recover_counter(
        &mut self,
        index: u64,
        stop_loss: u32,
    ) -> Result<(bool, u64), RecoveryError> {
        let g = self.bmt.geometry();
        let hasher = self.bmt.hasher();
        let mut counter = self.bmt.read_counter(&mut self.nvm, index)?;
        let page_base = index * PAGE_SIZE;
        // Untouched page fast path: zero counter and zero HMACs.
        let mut hmacs = vec![0u8; (PAGE_SIZE / 64 * 8) as usize];
        self.nvm
            .read_bytes_untimed(g.hmac_addr(page_base), &mut hmacs)?;
        if counter.is_zero() && hmacs.iter().all(|&b| b == 0) {
            return Ok((false, 0));
        }
        let mut changed = false;
        let mut trials = 0u64;
        for slot in 0..amnt_bmt::MINORS_PER_BLOCK {
            let addr = page_base + (slot as u64) * 64;
            if addr >= g.data_capacity() {
                break;
            }
            let stored_mac = be_u64(&hmacs[slot * 8..slot * 8 + 8]);
            let ct = self.nvm.read_block_untimed(addr)?;
            let base_minor = counter.minor(slot);
            if stored_mac == 0 && base_minor == 0 && ct.iter().all(|&b| b == 0) {
                continue; // untouched block
            }
            let mut found = false;
            for k in 0..=stop_loss {
                let minor = base_minor as u32 + k;
                if minor > amnt_bmt::MINOR_MAX as u32 {
                    break; // an overflow would have persisted the block
                }
                trials += 1;
                if hasher.data_mac(&ct, addr, counter.major(), minor as u8) == stored_mac {
                    if k > 0 {
                        for _ in 0..k {
                            counter.increment(slot);
                        }
                        changed = true;
                    }
                    found = true;
                    break;
                }
            }
            if !found {
                return Err(RecoveryError::CounterUnrecoverable { index });
            }
        }
        if changed {
            self.bmt.write_counter(&mut self.nvm, index, &counter)?;
        }
        Ok((changed, trials))
    }

    /// Anubis and BMF, as the `recovery.rebuild_subtree` phase: writes the
    /// trusted on-chip `images` back, recomputes `stale` deepest-first so
    /// children are fresh before parents, and checks the recomputed root
    /// against the root register. Returns the nodes recomputed.
    fn recompute_phase(
        &mut self,
        images: &[(NodeId, NodeBytes)],
        stale: StaleNodes,
    ) -> Result<u64, RecoveryError> {
        let g = self.geometry().clone();
        self.phase("recovery.rebuild_subtree", |s| {
            for (node, image) in images {
                s.nvm.write_block(g.node_addr(*node), image)?;
            }
            let recomputed = stale.len() as u64;
            for (Reverse(level), index) in stale {
                let node = NodeId { level, index };
                let image = s.bmt.compute_node(&mut s.nvm, node)?;
                s.nvm.write_block(g.node_addr(node), &image)?;
            }
            let computed_root = s
                .bmt
                .compute_node(&mut s.nvm, NodeId { level: 1, index: 0 })?;
            if computed_root != s.root_register {
                return Err(RecoveryError::RootMismatch);
            }
            // Each recomputed node (and the root check) hashes its 8 children.
            Ok((recomputed, recomputed.saturating_add(1).saturating_mul(8)))
        })
    }

    /// BMF: fold the non-volatile root set back into memory and recompute
    /// everything above the frontier.
    fn recover_bmf(&mut self) -> Result<u64, RecoveryError> {
        let g = self.geometry().clone();
        let ProtocolState::Bmf(s) = &self.protocol else {
            return Ok(0);
        };
        // A level-1 frontier entry is the root register itself.
        let frontier: Vec<(NodeId, NodeBytes)> = s
            .roots
            .iter()
            .filter(|(id, _)| id.level >= 2)
            .map(|(id, e)| (*id, e.image))
            .collect();
        let mut above = StaleNodes::new();
        for (node, _) in &frontier {
            insert_ancestry(&g, g.parent(*node), &mut above);
        }
        self.recompute_phase(&frontier, above)
    }

    /// AMNT: rebuild the fast subtree from its counters, check it against
    /// the non-volatile subtree register, then fold it back into the global
    /// tree so the stored state is consistent with the root register again.
    fn recover_amnt(&mut self) -> Result<u64, RecoveryError> {
        let g = self.geometry().clone();
        let Some((id, reg_image)) = self.protocol.subtree_register() else {
            return Ok(0); // never left strict persistence
        };
        self.phase("recovery.rebuild_subtree", |s| {
            let (computed, rebuilt) = s.bmt.rebuild_subtree_touched(&mut s.nvm, id)?;
            if computed != reg_image {
                return Err(RecoveryError::RootMismatch);
            }
            // Fold the (verified) subtree root back into its strict ancestors.
            let hasher = s.bmt.hasher();
            let mut child_mac = hasher.node_mac(&reg_image, id);
            let mut child_slot = g.child_slot(id);
            let mut cur = g.parent(id);
            let mut folded = 0u64;
            while let Some(node) = cur {
                if node.level < 2 {
                    break;
                }
                let addr = g.node_addr(node);
                let mut image = s.nvm.read_block(addr)?;
                set_slot(&mut image, child_slot, child_mac);
                s.nvm.write_block(addr, &image)?;
                child_mac = hasher.node_mac(&image, node);
                child_slot = g.child_slot(node);
                cur = g.parent(node);
                folded += 1;
            }
            set_slot(&mut s.root_register, child_slot, child_mac);
            // Each rebuilt node hashes its 8 children; each fold re-MACs one node.
            let hashes = rebuilt
                .saturating_mul(8)
                .saturating_add(folded)
                .saturating_add(1);
            Ok((rebuilt + folded, hashes))
        })
    }
}

/// Tree nodes to recompute, deepest level first.
type StaleNodes = BTreeSet<(Reverse<u32>, u64)>;

/// Inserts `from` and its ancestors down to level 2 (level 1 is the root
/// register) into `set`.
fn insert_ancestry(g: &BmtGeometry, from: Option<NodeId>, set: &mut StaleNodes) {
    let mut cur = from;
    while let Some(n) = cur {
        if n.level < 2 {
            break;
        }
        set.insert((Reverse(n.level), n.index));
        cur = g.parent(n);
    }
}

/// Count of devices and bandwidth behind the paper's Table 4 projection.
///
/// The paper assumes recovery is bound by memory bandwidth, with an 8:1
/// read:write mix (eight children fetched per recomputed parent) over six
/// Optane-like channels. We expose one calibrated scalar — the *effective*
/// recovery read bandwidth — chosen so that the leaf-persistence recovery of
/// a 2 TB memory equals the paper's 6222.21 ms anchor; every other cell then
/// follows from stale-fraction arithmetic, which this model reproduces
/// exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryModel {
    /// Effective recovery read bandwidth in bytes/second.
    pub effective_read_bandwidth: f64,
    /// Osiris whole-recovery cost relative to leaf persistence (the paper's
    /// Table 4 ratio: counter re-derivation dominates).
    pub osiris_factor: f64,
    /// Anubis recovery is bounded by the metadata cache, not memory size.
    pub anubis_fixed_ms: f64,
}

impl Default for RecoveryModel {
    fn default() -> Self {
        // Calibration: leaf @ 2 TB = 6222.21 ms with fetch = (mem/64)*(8/7).
        let mem = 2.0 * 1024.0f64.powi(4);
        let fetch = mem / 64.0 * 8.0 / 7.0;
        RecoveryModel {
            effective_read_bandwidth: fetch / 6.22221,
            osiris_factor: 8.1429,
            anubis_fixed_ms: 1.30,
        }
    }
}

impl RecoveryModel {
    /// Fraction of the BMT that is stale at a crash under `kind`: the whole
    /// tree for volatile, leaf and Osiris; nothing beyond the on-chip
    /// registers for strict, PLP and BMF; AMNT's fast subtree at its
    /// configured level. Anubis's stale set is bounded by the metadata
    /// cache, not a fraction of the tree, so it reads NaN.
    pub fn stale_fraction(&self, kind: ProtocolKind) -> f64 {
        match kind {
            ProtocolKind::Volatile | ProtocolKind::Leaf | ProtocolKind::Osiris(_) => 1.0,
            ProtocolKind::Strict | ProtocolKind::Plp | ProtocolKind::Bmf(_) => 0.0,
            ProtocolKind::Anubis(_) => f64::NAN,
            ProtocolKind::Amnt(cfg) => 8f64.powi(-(cfg.subtree_level as i32 - 1)),
        }
    }

    /// Projected recovery time in milliseconds for `memory_bytes` of
    /// protected data under `kind` (Table 4). Volatile has no recovery, so
    /// it reads NaN.
    pub fn recovery_ms(&self, kind: ProtocolKind, memory_bytes: f64) -> f64 {
        let counters = memory_bytes / 64.0;
        let leaf_fetch = counters * 8.0 / 7.0;
        let leaf_ms = leaf_fetch / self.effective_read_bandwidth * 1e3;
        match kind {
            ProtocolKind::Volatile => f64::NAN,
            ProtocolKind::Strict | ProtocolKind::Plp | ProtocolKind::Bmf(_) => 0.0,
            ProtocolKind::Anubis(_) => self.anubis_fixed_ms,
            ProtocolKind::Osiris(_) => leaf_ms * self.osiris_factor,
            ProtocolKind::Leaf | ProtocolKind::Amnt(_) => leaf_ms * self.stale_fraction(kind),
        }
    }

    /// Converts a functional [`RecoveryReport`] into projected milliseconds
    /// using the calibrated bandwidth.
    pub fn measured_ms(&self, report: &RecoveryReport) -> f64 {
        report.bytes_read as f64 / self.effective_read_bandwidth * 1e3
    }

    /// The administrator's BIOS dial (paper §6.7): the *shallowest* (largest
    /// fast subtree, best runtime) level in `2..=max_level` whose projected
    /// recovery time for `memory_bytes` of SCM fits within `budget_ms`.
    /// Falls back to `max_level` when even the deepest level exceeds the
    /// budget.
    ///
    /// ```
    /// use amnt_core::RecoveryModel;
    /// let model = RecoveryModel::default();
    /// let tb = 2.0 * 1024f64.powi(4);
    /// // A 100 ms downtime budget on 2 TB => subtree root at level 3.
    /// assert_eq!(model.level_for_budget(100.0, tb, 7), 3);
    /// ```
    pub fn level_for_budget(&self, budget_ms: f64, memory_bytes: f64, max_level: u32) -> u32 {
        for level in 2..=max_level {
            let amnt = ProtocolKind::Amnt(AmntConfig::at_level(level));
            if self.recovery_ms(amnt, memory_bytes) <= budget_ms {
                return level;
            }
        }
        max_level
    }
}

/// Big-endian u64 decode that tolerates short slices (missing bytes read as
/// zero) so the recovery path never panics on a malformed HMAC lane.
fn be_u64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .take(8)
        .fold(0u64, |acc, &b| (acc << 8) | u64::from(b))
}

#[cfg(test)]
mod model_tests {
    use super::*;
    use crate::protocol::{AnubisConfig, BmfConfig, OsirisConfig};

    const TB: f64 = 1024.0 * 1024.0 * 1024.0 * 1024.0;

    fn amnt(level: u32) -> ProtocolKind {
        ProtocolKind::Amnt(AmntConfig::at_level(level))
    }

    #[test]
    fn leaf_matches_paper_anchor() {
        let m = RecoveryModel::default();
        let ms = m.recovery_ms(ProtocolKind::Leaf, 2.0 * TB);
        assert!((ms - 6222.21).abs() < 0.5, "got {ms}");
    }

    #[test]
    fn leaf_scales_linearly_with_memory() {
        let m = RecoveryModel::default();
        let a = m.recovery_ms(ProtocolKind::Leaf, 2.0 * TB);
        let b = m.recovery_ms(ProtocolKind::Leaf, 16.0 * TB);
        assert!((b / a - 8.0).abs() < 1e-9);
    }

    #[test]
    fn amnt_levels_match_paper_rows() {
        let m = RecoveryModel::default();
        // Paper Table 4 at 2 TB: L2=777.77, L3=97.22, L4=12.15.
        let l2 = m.recovery_ms(amnt(2), 2.0 * TB);
        let l3 = m.recovery_ms(amnt(3), 2.0 * TB);
        let l4 = m.recovery_ms(amnt(4), 2.0 * TB);
        assert!((l2 - 777.78).abs() < 0.5, "L2 {l2}");
        assert!((l3 - 97.22).abs() < 0.2, "L3 {l3}");
        assert!((l4 - 12.15).abs() < 0.1, "L4 {l4}");
    }

    #[test]
    fn strict_and_bmf_are_instant() {
        let m = RecoveryModel::default();
        assert_eq!(m.recovery_ms(ProtocolKind::Strict, 128.0 * TB), 0.0);
        assert_eq!(
            m.recovery_ms(ProtocolKind::Bmf(BmfConfig::default()), 128.0 * TB),
            0.0
        );
    }

    #[test]
    fn plp_recovers_like_strict_and_volatile_never_does() {
        let m = RecoveryModel::default();
        assert_eq!(m.recovery_ms(ProtocolKind::Plp, 128.0 * TB), 0.0);
        assert_eq!(m.stale_fraction(ProtocolKind::Plp), 0.0);
        assert!(m.recovery_ms(ProtocolKind::Volatile, 2.0 * TB).is_nan());
    }

    #[test]
    fn anubis_is_memory_size_independent() {
        let m = RecoveryModel::default();
        assert_eq!(
            m.recovery_ms(ProtocolKind::Anubis(AnubisConfig::default()), 2.0 * TB),
            m.recovery_ms(ProtocolKind::Anubis(AnubisConfig::default()), 128.0 * TB)
        );
    }

    #[test]
    fn osiris_is_about_eight_times_leaf() {
        let m = RecoveryModel::default();
        let ratio = m.recovery_ms(ProtocolKind::Osiris(OsirisConfig::default()), 2.0 * TB)
            / m.recovery_ms(ProtocolKind::Leaf, 2.0 * TB);
        assert!((ratio - 8.1429).abs() < 1e-6);
    }

    #[test]
    fn budget_dial_picks_the_shallowest_fitting_level() {
        let m = RecoveryModel::default();
        let mem = 2.0 * TB;
        // Table 4 @ 2 TB: L2 777.77, L3 97.22, L4 12.15 ms.
        assert_eq!(m.level_for_budget(1000.0, mem, 7), 2);
        assert_eq!(m.level_for_budget(100.0, mem, 7), 3);
        assert_eq!(m.level_for_budget(50.0, mem, 7), 4);
        assert_eq!(
            m.level_for_budget(0.001, mem, 7),
            7,
            "impossible budget: deepest level"
        );
        // Bigger memory needs a deeper level for the same budget.
        assert!(m.level_for_budget(100.0, 16.0 * TB, 7) > 3);
    }

    #[test]
    fn stale_fractions_match_table() {
        let m = RecoveryModel::default();
        assert_eq!(m.stale_fraction(ProtocolKind::Leaf), 1.0);
        assert!((m.stale_fraction(amnt(2)) - 0.125).abs() < 1e-12);
        assert!((m.stale_fraction(amnt(3)) - 0.015625).abs() < 1e-12);
    }
}
