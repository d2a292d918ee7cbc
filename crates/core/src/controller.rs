//! The secure-memory controller (memory encryption engine).
//!
//! [`SecureMemory`] sits where the paper's hardware MEE sits: between the
//! last-level cache and the PCM device. Every data read is decrypted and
//! integrity-verified (data HMAC + BMT walk up to the first trusted
//! ancestor); every data write bumps the block's split counter, re-encrypts,
//! re-MACs, eagerly updates the ancestral tree path, and persists whatever
//! the active [`ProtocolKind`] requires.
//!
//! ## Modelling contract
//!
//! * The NVM always holds the *logically current* bytes; a side table
//!   ([`SecureMemory::crash`] uses it) remembers the *last persisted* image
//!   of every dirty metadata line, so a crash rolls dirty lines back to
//!   exactly what a real device would hold.
//! * A metadata line resident in the metadata cache is trusted; verification
//!   walks stop at the first cached ancestor, the AMNT subtree register, a
//!   BMF persistent root, or the on-chip root register.
//! * All-zero metadata is the device's factory state: a zero stored MAC over
//!   an all-zero child verifies vacuously (secure boot initialises real
//!   hardware; zeroing an initialised region still trips its ancestors).

use crate::config::SecureMemoryConfig;
use crate::error::{IntegrityError, RecoveryError};
use crate::protocol::{PathPersist, ProtocolKind, ProtocolState, WritePlan};
use crate::stats::{ControllerStats, StatsSnapshot};
use crate::timing::MemoryTimeline;
use crate::untimed::NvmUntimed;
use amnt_bmt::{
    set_slot, slot_of, Bmt, BmtGeometry, CounterBlock, IncrementOutcome, NodeBytes, NodeId,
    PAGE_SIZE, TREE_ARITY,
};
use amnt_cache::SetAssocCache;
use amnt_crypto::CtrEngine;
use amnt_nvm::{Nvm, NvmConfig, WriteClass};
use std::collections::BTreeMap;

/// Size of a data block in bytes.
pub const BLOCK_SIZE: usize = 64;

/// The secure-memory controller.
///
/// # Examples
///
/// ```
/// use amnt_core::{ProtocolKind, SecureMemory, SecureMemoryConfig};
///
/// let cfg = SecureMemoryConfig::with_capacity(2 * 1024 * 1024);
/// let mut mem = SecureMemory::new(cfg, ProtocolKind::Leaf)?;
/// mem.write_block(0, 0x1000, &[42u8; 64])?;
/// let (data, _done) = mem.read_block(1_000, 0x1000)?;
/// assert_eq!(data, [42u8; 64]);
/// # Ok::<(), amnt_core::IntegrityError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SecureMemory {
    config: SecureMemoryConfig,
    kind: ProtocolKind,
    pub(crate) nvm: Nvm,
    pub(crate) bmt: Bmt,
    engine: CtrEngine,
    metadata_cache: SetAssocCache,
    timeline: MemoryTimeline,
    /// On-chip non-volatile root register: the level-1 node image.
    pub(crate) root_register: NodeBytes,
    /// Last-persisted images of currently-dirty metadata lines.
    persisted_images: BTreeMap<u64, NodeBytes>,
    pub(crate) protocol: ProtocolState,
    /// Base of the auxiliary region (Anubis shadow table) in NVM.
    pub(crate) aux_base: u64,
    stats: ControllerStats,
    /// Set by [`SecureMemory::crash`], cleared by a successful recovery.
    pub(crate) crashed: bool,
    /// Cycle-domain tracer (disabled by default; see
    /// [`SecureMemory::enable_tracing`]). Trace state never feeds back into
    /// `stats`, the caches, or the timeline, so traced and untraced runs
    /// produce identical artifacts.
    pub(crate) tracer: amnt_trace::Tracer,
    /// Statistics at the last emitted epoch boundary; epoch rows carry the
    /// deltas since this snapshot, so rows sum to the final snapshot.
    trace_epoch_base: StatsSnapshot,
    /// Absolute cycle at which the current trace epoch ends (0 = epoch
    /// clock not yet anchored; anchored lazily at the first traced op).
    trace_epoch_next: u64,
    /// Deferred leaf-MAC checks (the lazy verify queue). Bounded by
    /// `config.verify_queue`; drained in batches through the multi-lane
    /// hash engine. Volatile read-side speculation state: never persisted,
    /// discarded wholesale on [`SecureMemory::crash`]. The simulated hash
    /// latency and `stats.hashes` are charged at *enqueue*, exactly as the
    /// eager path charges them, so artifacts are depth-independent; only
    /// the host-side MAC computation is deferred.
    verify_queue: Vec<PendingVerify>,
    /// A deferred verification failure detected where no error can be
    /// returned (the trace epoch tick): the offending address, surfaced as
    /// [`IntegrityError::DataMac`] at the next operation entry.
    verify_poison: Option<u64>,
    /// Last data-block address read (sequential-stream detector for
    /// subtree-path prefetch).
    prefetch_last: Option<u64>,
    /// Whether the current metadata fetch is a speculative prefetch
    /// (routes [`SecureMemory::meta_fill`] to the cache's LRU-position
    /// prefetch insert instead of an MRU demand fill).
    prefetching: bool,
    /// Synthetic-cycle cursor for the recovery phase tree. Recovery is
    /// untimed (untimed device ops only), so phase spans get deterministic
    /// work-proportional timestamps: each phase advances the cursor by its
    /// device traffic plus hash ops. Trace-only state — never read by the
    /// simulation.
    pub(crate) recovery_cursor: u64,
}

/// One deferred leaf-MAC check: the flattened authenticated message (see
/// [`amnt_bmt::BmtHasher::data_mac_message`]) and the MAC the media stored.
#[derive(Debug, Clone, Copy)]
struct PendingVerify {
    addr: u64,
    msg: [u8; amnt_crypto::DATA_MAC_MSG_LEN],
    stored_mac: u64,
}

/// What kind of metadata child a verification walk starts from.
#[derive(Clone, Copy)]
enum ChildRef {
    Counter(u64),
    Node(NodeId),
}

impl SecureMemory {
    /// Builds a controller over a fresh (all-zero) device.
    ///
    /// # Errors
    ///
    /// [`IntegrityError::OutOfRange`] for an impossible device or metadata
    /// cache geometry; [`IntegrityError::SubtreeLevel`] or
    /// [`IntegrityError::EmptyHistory`] for an AMNT configuration this tree
    /// cannot run.
    pub fn new(config: SecureMemoryConfig, kind: ProtocolKind) -> Result<Self, IntegrityError> {
        let geometry =
            BmtGeometry::new(config.data_capacity).map_err(|_| IntegrityError::OutOfRange {
                addr: config.data_capacity,
            })?;
        let metadata_cache = SetAssocCache::new(config.metadata_cache)
            .map_err(|_| IntegrityError::OutOfRange { addr: 0 })?;
        let aux_base = geometry.total_size().next_multiple_of(PAGE_SIZE);
        let aux_bytes = (metadata_cache.config().lines() as u64) * 8;
        let nvm_capacity = (aux_base + aux_bytes).next_multiple_of(PAGE_SIZE);
        let nvm = Nvm::new(NvmConfig {
            capacity_bytes: nvm_capacity,
        });
        let timeline = MemoryTimeline::new(config.timing, config.write_queue);
        let protocol = ProtocolState::new(kind, &geometry, metadata_cache.config().lines())?;
        Ok(SecureMemory {
            bmt: Bmt::new(geometry, &config.integrity_key),
            engine: CtrEngine::new(&config.encryption_key),
            metadata_cache,
            timeline,
            root_register: [0u8; 64],
            persisted_images: BTreeMap::new(),
            protocol,
            aux_base,
            stats: ControllerStats::default(),
            crashed: false,
            tracer: amnt_trace::Tracer::default(),
            trace_epoch_base: StatsSnapshot::default(),
            trace_epoch_next: 0,
            verify_queue: Vec::with_capacity(config.verify_queue),
            verify_poison: None,
            prefetch_last: None,
            prefetching: false,
            recovery_cursor: 0,
            nvm,
            kind,
            config,
        })
    }

    /// The active protocol.
    pub fn protocol(&self) -> ProtocolKind {
        self.kind
    }

    /// The tree geometry in force.
    pub fn geometry(&self) -> &BmtGeometry {
        self.bmt.geometry()
    }

    /// The configuration this controller was built with.
    pub fn config(&self) -> &SecureMemoryConfig {
        &self.config
    }

    /// Controller statistics.
    pub fn stats(&self) -> &ControllerStats {
        &self.stats
    }

    /// A snapshot of controller, cache and timeline statistics.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            controller: self.stats,
            metadata_cache: *self.metadata_cache.stats(),
            timeline: *self.timeline.stats(),
        }
    }

    /// Resets all statistics (region-of-interest boundary). The trace layer
    /// resets in lockstep so epoch deltas stay reconcilable with the final
    /// snapshot.
    pub fn reset_stats(&mut self) {
        self.stats = ControllerStats::default();
        self.metadata_cache.reset_stats();
        self.timeline.reset_stats();
        self.nvm.reset_stats();
        if self.tracer.enabled() {
            self.tracer.reset();
            self.metadata_cache.reset_trace();
            self.nvm.reset_trace();
            self.timeline.take_wpq_high_water();
            self.trace_epoch_base = self.snapshot();
            self.trace_epoch_next = 0;
        }
    }

    // ------------------------------------------------------------------
    // Trace layer
    // ------------------------------------------------------------------

    /// Turns on cycle-domain tracing with `cfg` knobs: per-op spans and
    /// latency histograms, an epoch time-series of [`StatsSnapshot`] deltas,
    /// and component counters/strike records from the metadata cache and the
    /// device. Tracing is purely observational — artifacts are byte-identical
    /// with it on or off.
    pub fn enable_tracing(&mut self, cfg: amnt_trace::TraceConfig) {
        self.tracer = amnt_trace::Tracer::new(cfg);
        self.metadata_cache.set_tracing(true);
        self.nvm.set_tracing(true);
        self.trace_epoch_base = self.snapshot();
        self.trace_epoch_next = 0;
    }

    /// Turns cycle-domain tracing back off, discarding everything recorded.
    /// Harvest with [`SecureMemory::trace_report`] first. The fault sweep
    /// uses this to scope its observation window to exactly one
    /// crash-and-recover sequence.
    pub fn disable_tracing(&mut self) {
        self.tracer = amnt_trace::Tracer::default();
        self.metadata_cache.set_tracing(false);
        self.nvm.set_tracing(false);
    }

    /// Whether cycle-domain tracing is on.
    pub fn tracing_enabled(&self) -> bool {
        self.tracer.enabled()
    }

    /// Epoch clock tick at an operation completing at cycle `t`: anchors the
    /// epoch boundary on first use, then emits one delta row per boundary
    /// crossing (quiet epochs produce no rows — the series is sparse).
    fn trace_tick(&mut self, t: u64) {
        let epoch_cycles = self.tracer.config().epoch_cycles.max(1);
        if self.trace_epoch_next == 0 {
            self.trace_epoch_next = (t / epoch_cycles + 1) * epoch_cycles;
            return;
        }
        if t < self.trace_epoch_next {
            return;
        }
        let completed = t / epoch_cycles;
        let end_cycle = completed * epoch_cycles;
        // Epoch-boundary flush: deferred MAC checks may not cross a sampled
        // boundary. This context cannot return an error, so a mismatch
        // poisons the controller and surfaces at the next operation entry.
        if let Err(IntegrityError::DataMac { addr }) = self.drain_verify_queue() {
            self.verify_poison.get_or_insert(addr);
        }
        let snap = self.snapshot();
        let wpq_hw = self.timeline.take_wpq_high_water() as u64;
        let stale = self.persisted_images.len() as u64;
        let fields = Self::epoch_delta_fields(&snap, &self.trace_epoch_base, wpq_hw, stale);
        self.tracer.sample_epoch(completed - 1, end_cycle, &fields);
        self.trace_epoch_base = snap;
        self.trace_epoch_next = end_cycle + epoch_cycles;
    }

    /// The fixed epoch-row schema: [`StatsSnapshot`] deltas plus two gauges
    /// (WPQ high-water over the epoch, stale metadata lines right now).
    fn epoch_delta_fields(
        snap: &StatsSnapshot,
        base: &StatsSnapshot,
        wpq_high_water: u64,
        stale_lines: u64,
    ) -> [(&'static str, u64); 20] {
        let c = &snap.controller;
        let b = &base.controller;
        let mc = &snap.metadata_cache;
        let mb = &base.metadata_cache;
        let tl = &snap.timeline;
        let tb = &base.timeline;
        [
            ("data_reads", c.data_reads - b.data_reads),
            ("data_writes", c.data_writes - b.data_writes),
            ("wait_cycles", c.wait_cycles - b.wait_cycles),
            ("metadata_fetches", c.metadata_fetches - b.metadata_fetches),
            ("persist_writes", c.persist_writes - b.persist_writes),
            ("posted_writes", c.posted_writes - b.posted_writes),
            ("hashes", c.hashes - b.hashes),
            ("subtree_hits", c.subtree_hits - b.subtree_hits),
            ("subtree_misses", c.subtree_misses - b.subtree_misses),
            (
                "subtree_transitions",
                c.subtree_transitions - b.subtree_transitions,
            ),
            (
                "counter_overflows",
                c.counter_overflows - b.counter_overflows,
            ),
            ("shadow_writes", c.shadow_writes - b.shadow_writes),
            ("meta_cache_hits", mc.hits - mb.hits),
            ("meta_cache_misses", mc.misses - mb.misses),
            ("media_reads", tl.reads - tb.reads),
            ("media_writes", tl.writes - tb.writes),
            (
                "queue_stall_cycles",
                tl.queue_stall_cycles - tb.queue_stall_cycles,
            ),
            (
                "bank_wait_cycles",
                tl.bank_wait_cycles - tb.bank_wait_cycles,
            ),
            ("wpq_high_water", wpq_high_water),
            ("stale_lines", stale_lines),
        ]
    }

    /// Harvests everything the trace layer recorded (`None` when tracing is
    /// off). Non-mutating: a tail epoch row covering the span since the last
    /// boundary is appended to the *report*, so epoch deltas always sum to
    /// the final snapshot, and component counters/strikes are merged in with
    /// `meta_cache.`/`nvm.` prefixes.
    pub fn trace_report(&self) -> Option<amnt_trace::TraceReport> {
        let mut report = self.tracer.report()?;
        let snap = self.snapshot();
        let wpq_hw = self.timeline.wpq_high_water() as u64;
        let stale = self.persisted_images.len() as u64;
        let fields = Self::epoch_delta_fields(&snap, &self.trace_epoch_base, wpq_hw, stale);
        if report.epoch_fields.is_empty() {
            report.epoch_fields = fields.iter().map(|(k, _)| k.to_string()).collect();
        }
        let epoch_cycles = self.tracer.config().epoch_cycles.max(1);
        let end_cycle = self.tracer.last_ts();
        report.epochs.push(amnt_trace::EpochRow {
            epoch: end_cycle / epoch_cycles,
            end_cycle,
            values: fields.iter().map(|(_, v)| *v).collect(),
        });
        let op_index = snap.controller.data_reads + snap.controller.data_writes;
        report.absorb_component(
            "meta_cache",
            self.metadata_cache.trace(),
            end_cycle,
            op_index,
        );
        report.absorb_component("nvm", self.nvm.trace(), end_cycle, op_index);
        Some(report)
    }

    /// Trace-layer record of one recovery pass's work breakdown (no-op when
    /// tracing is off).
    pub(crate) fn trace_recovery(&mut self, r: &crate::recovery::RecoveryReport) {
        if !self.tracer.enabled() {
            return;
        }
        self.tracer.add("recovery.runs", 1);
        self.tracer.add("recovery.nvm_reads", r.nvm_reads);
        self.tracer.add("recovery.bytes_read", r.bytes_read);
        self.tracer.add("recovery.nvm_writes", r.nvm_writes);
        self.tracer
            .add("recovery.counters_recovered", r.counters_recovered);
        self.tracer
            .add("recovery.nodes_recomputed", r.nodes_recomputed);
    }

    /// Runs `body` as one phase of the recovery phase tree. Recovery runs
    /// on untimed device ops, so the phase's span opens at the synthetic
    /// cursor and closes after the phase's device reads and writes plus the
    /// hash ops `body` counts (at least one cycle, so even a zero-work
    /// phase is a visible "X" event) — the Perfetto view then shows each
    /// phase's width proportional to its work. The span carries the same
    /// three counts as args; a phase whose body errs closes with `hashes`
    /// 0, and its enclosing phases close as the error passes through them.
    /// With tracing off this is just `body`.
    pub(crate) fn phase<T>(
        &mut self,
        name: &'static str,
        body: impl FnOnce(&mut Self) -> Result<(T, u64), RecoveryError>,
    ) -> Result<T, RecoveryError> {
        if !self.tracer.enabled() {
            return body(self).map(|(value, _)| value);
        }
        let (start, s0) = (self.recovery_cursor, *self.nvm.stats());
        self.tracer.push_span(start, name, "recovery", &[]);
        let result = body(self);
        let hashes = result.as_ref().map_or(0, |(_, hashes)| *hashes);
        let s = self.nvm.stats();
        let (dr, dw) = (s.reads - s0.reads, s.writes - s0.writes);
        let end = (start + 1 + dr + dw + hashes).max(self.recovery_cursor);
        self.recovery_cursor = end;
        self.tracer
            .pop_span_with(end, &[("reads", dr), ("writes", dw), ("hashes", hashes)]);
        result.map(|(value, _)| value)
    }

    /// Records `value` into recovery histogram `name` (no-op when tracing
    /// is off) — touched-closure sizes and other per-run gauges.
    pub(crate) fn trace_recovery_stat(&mut self, name: &'static str, value: u64) {
        if self.tracer.enabled() {
            self.tracer.record(name, value);
        }
    }

    /// The current AMNT subtree root, if the protocol is AMNT and a hot
    /// region has been elected.
    pub fn subtree_root(&self) -> Option<NodeId> {
        self.protocol.subtree_register().map(|(id, _)| id)
    }

    /// Read-only access to the device (traffic stats, WPQ lane, residency).
    pub fn nvm(&self) -> &Nvm {
        &self.nvm
    }

    /// Direct access to the device — for integration tests that model
    /// physical attacks (bit flips, replay).
    pub fn nvm_mut(&mut self) -> &mut Nvm {
        &mut self.nvm
    }

    /// The on-chip root register's current image. This is the engine's root
    /// of trust; the sharded facade folds one of these per shard into the
    /// global epoch root, and nothing else crosses the shard boundary.
    pub(crate) fn root_image(&self) -> &NodeBytes {
        &self.root_register
    }

    /// Number of dirty (stale-in-NVM) metadata lines right now.
    pub fn stale_lines(&self) -> usize {
        self.persisted_images.len()
    }

    /// Media write-endurance summary for addresses in `[from, to)` — see
    /// [`crate::WearSummary`].
    pub fn wear_summary_range(&self, from: u64, to: u64) -> crate::WearSummary {
        self.timeline.wear_summary_range(from, to)
    }

    /// Media write-endurance summary over the whole device.
    pub fn wear_summary(&self) -> crate::WearSummary {
        self.timeline.wear_summary()
    }

    // ------------------------------------------------------------------
    // Metadata cache plumbing
    // ------------------------------------------------------------------

    /// Fills `addr` into the metadata cache, handling the eviction writeback
    /// and the Anubis shadow-table hook. Returns the updated time.
    ///
    /// # Errors
    ///
    /// [`IntegrityError::Device`] if an eviction writeback or the Anubis
    /// shadow-table slot cannot be written (power failing, aux region
    /// misconfigured).
    fn meta_fill(&mut self, mut t: u64, addr: u64, dirty: bool) -> Result<u64, IntegrityError> {
        // Speculative (prefetch) fills land at LRU position so a wrong
        // guess never displaces more than one way of demand state.
        let filled = if self.prefetching {
            debug_assert!(!dirty, "prefetches never dirty lines");
            self.metadata_cache.fill_prefetched(addr)
        } else {
            self.metadata_cache.fill(addr, dirty)
        };
        if let Some(ev) = filled {
            if ev.dirty {
                // Lazy writeback: the line's current image becomes persisted.
                // Under the modeling contract the NVM already holds the
                // logically-current bytes, so the writeback rewrites them in
                // place — but it is issued as a real eviction-class device
                // write: it consumes a crash-point ordinal (out of protocol
                // order, the hazard lazy persistence must bound) and a power
                // failure landing on it propagates *before* the rollback
                // image is dropped, leaving crash semantics unchanged.
                let (_, _stall) = self.timeline.write(t, ev.addr, 0);
                self.stats.posted_writes += 1;
                let image = self.nvm.read_block_untimed(ev.addr)?;
                self.nvm.set_write_class(WriteClass::Eviction);
                let wrote = self.nvm.write_block_untimed(ev.addr, &image);
                self.nvm.set_write_class(WriteClass::Protocol);
                wrote?;
                self.persisted_images.remove(&ev.addr);
            }
            if let ProtocolState::Anubis(s) = &mut self.protocol {
                s.release_slot(ev.addr);
            }
        }
        if let ProtocolState::Anubis(s) = &mut self.protocol {
            let slot = s.assign_slot(addr);
            let slot_addr = self.aux_base + slot as u64 * 8;
            // Tag with addr+1 so zero means "empty slot".
            self.nvm.write_u64(slot_addr, addr + 1)?;
            // The shadow-table update must be durable atomically with the
            // cache-state change (paper §7.3) — this is Anubis's slow path
            // on every metadata cache miss. The write is issued as soon as
            // the miss is detected, overlapping the metadata fetch itself.
            let issue = t.saturating_sub(self.config.timing.pcm_read);
            let (done, stall) = self.timeline.write(issue, slot_addr, 0);
            t = (t + stall).max(done);
            self.stats.shadow_writes += 1;
            // The shadow Merkle tree is fully cached on-chip: latency only.
            t += self.config.timing.hash;
        }
        Ok(t)
    }

    /// Remembers the last-persisted image of `addr` before a lazy update, if
    /// not already remembered.
    fn snapshot_before_lazy_update(&mut self, addr: u64) -> Result<(), IntegrityError> {
        if !self.persisted_images.contains_key(&addr) {
            let img = self.nvm.read_block_untimed(addr)?;
            self.persisted_images.insert(addr, img);
            let stale = self.persisted_images.len() as u64;
            if stale > self.stats.max_stale_lines {
                self.stats.max_stale_lines = stale;
            }
        }
        Ok(())
    }

    /// Marks `addr` persisted: drops the rollback image and cleans the line.
    fn mark_persisted(&mut self, addr: u64) {
        self.persisted_images.remove(&addr);
        self.metadata_cache.clean(addr);
    }

    // ------------------------------------------------------------------
    // Verification
    // ------------------------------------------------------------------

    /// Zero-convention slot check (see the module docs).
    fn slot_matches(stored: u64, expected: u64, child: &NodeBytes) -> bool {
        stored == expected || (stored == 0 && child.iter().all(|&b| b == 0))
    }

    /// Verifies a freshly fetched metadata block against its ancestors,
    /// walking up until a trusted ancestor (cached node, AMNT register, BMF
    /// persistent root, or the on-chip root register).
    fn verify_up(&mut self, mut t: u64, child: ChildRef) -> Result<u64, IntegrityError> {
        let walk_start = t;
        let g = self.bmt.geometry().clone();
        let (mut child_bytes, mut child_mac, mut slot, mut cur): (NodeBytes, u64, usize, NodeId) =
            match child {
                ChildRef::Counter(index) => {
                    let bytes = self.nvm.read_block_untimed(g.counter_addr(index))?;
                    let mac = self.bmt.hasher().counter_mac(&bytes, index);
                    self.stats.hashes += 1;
                    t += self.config.timing.hash;
                    (
                        bytes,
                        mac,
                        (index % TREE_ARITY) as usize,
                        g.counter_parent(index),
                    )
                }
                ChildRef::Node(node) => {
                    let bytes = self.nvm.read_block_untimed(g.node_addr(node))?;
                    let mac = self.bmt.hasher().node_mac(&bytes, node);
                    self.stats.hashes += 1;
                    t += self.config.timing.hash;
                    let parent = g.parent(node).ok_or(IntegrityError::Invariant {
                        what: "stored node has a parent",
                    })?;
                    (bytes, mac, g.child_slot(node), parent)
                }
            };
        let fail = |c: &ChildRef| match c {
            ChildRef::Counter(i) => IntegrityError::CounterMac { index: *i },
            ChildRef::Node(n) => IntegrityError::NodeMac { node: *n },
        };
        loop {
            // Trusted terminals: the root register, or an on-chip image the
            // protocol holds (AMNT subtree register, BMF frontier node).
            let trusted = if cur.level == 1 {
                Some(&self.root_register)
            } else {
                self.protocol.trusted_image(cur)
            };
            if let Some(image) = trusted {
                if Self::slot_matches(slot_of(image, slot), child_mac, &child_bytes) {
                    return Ok(t);
                }
                return Err(fail(&child));
            }
            let addr = g.node_addr(cur);
            let cached = self.config.trusted_ancestor_caching && self.metadata_cache.contains(addr);
            let bytes = if cached {
                self.metadata_cache.access(addr, false);
                t += self.config.timing.metadata_cache;
                self.nvm.read_block_untimed(addr)?
            } else if self.config.parallel_path_fetch {
                // All path addresses are known up front: fetches overlap,
                // and only the (pipelined) hash chain accumulates.
                let done = self.timeline.read(walk_start, addr);
                t = t.max(done);
                self.stats.metadata_fetches += 1;
                self.nvm.read_block_untimed(addr)?
            } else {
                t = self.timeline.read(t, addr);
                self.stats.metadata_fetches += 1;
                self.nvm.read_block_untimed(addr)?
            };
            let stored = slot_of(&bytes, slot);
            if !Self::slot_matches(stored, child_mac, &child_bytes) {
                return Err(fail(&child));
            }
            if cached {
                return Ok(t);
            }
            // The fetched ancestor itself needs verification one level up.
            t = self.meta_fill(t, addr, false)?;
            child_mac = self.bmt.hasher().node_mac(&bytes, cur);
            self.stats.hashes += 1;
            t += self.config.timing.hash;
            child_bytes = bytes;
            slot = g.child_slot(cur);
            cur = g.parent(cur).ok_or(IntegrityError::Invariant {
                what: "stored node has a parent",
            })?;
        }
    }

    /// Closes the innermost trace span: at the completion time `done`
    /// reads off a successful result, or at the last recorded cycle with an
    /// `error` mark when the operation failed (the span still closes, so
    /// the stack stays balanced on tamper-detection paths).
    fn trace_pop<T>(&mut self, result: &Result<T, IntegrityError>, done: impl FnOnce(&T) -> u64) {
        match result {
            Ok(v) => self.tracer.pop_span(done(v)),
            Err(_) => {
                let end = self.tracer.last_ts();
                self.tracer.pop_span_with(end, &[("error", 1)]);
            }
        }
    }

    /// A metadata miss: device fetch, the verification walk up from `walk`
    /// (HMAC lines are MACs themselves and need none), cache fill.
    fn fill_miss(
        &mut self,
        mut t: u64,
        addr: u64,
        walk: Option<ChildRef>,
    ) -> Result<u64, IntegrityError> {
        t = self.timeline.read(t, addr);
        self.stats.metadata_fetches += 1;
        if let Some(child) = walk {
            t = self.verify_up(t, child)?;
        }
        self.meta_fill(t, addr, false)
    }

    /// Makes metadata line `addr` resident: a hit costs the cache latency,
    /// a miss runs [`Self::fill_miss`] inside a `span` trace span. Returns
    /// the time the line is usable.
    fn fetch_meta(
        &mut self,
        t: u64,
        addr: u64,
        span: &'static str,
        walk: Option<ChildRef>,
    ) -> Result<u64, IntegrityError> {
        if self.metadata_cache.access(addr, false).hit {
            return Ok(t + self.config.timing.metadata_cache);
        }
        self.tracer.push_span(t, span, "meta", &[("addr", addr)]);
        let r = self.fill_miss(t, addr, walk);
        self.trace_pop(&r, |t| *t);
        r
    }

    /// Fetches (verifying and caching on a miss) counter block `index`.
    fn fetch_counter(&mut self, t: u64, index: u64) -> Result<(CounterBlock, u64), IntegrityError> {
        let addr = self.bmt.geometry().counter_addr(index);
        let t = self.fetch_meta(t, addr, "meta.fetch.counter", Some(ChildRef::Counter(index)))?;
        let bytes = self.nvm.read_block_untimed(addr)?;
        Ok((CounterBlock::decode(&bytes), t))
    }

    /// Fetches the HMAC line covering `data_addr`; returns the stored MAC.
    fn fetch_hmac(&mut self, t: u64, data_addr: u64) -> Result<(u64, u64), IntegrityError> {
        let hmac_addr = self.bmt.geometry().hmac_addr(data_addr);
        let line = hmac_addr & !(BLOCK_SIZE as u64 - 1);
        let t = self.fetch_meta(t, line, "meta.fetch.hmac", None)?;
        let mut buf = [0u8; 8];
        self.nvm.read_bytes_untimed(hmac_addr, &mut buf)?;
        Ok((u64::from_be_bytes(buf), t))
    }

    // ------------------------------------------------------------------
    // Lazy verify queue + subtree-path prefetch
    // ------------------------------------------------------------------

    /// Drains the lazy verify queue through the multi-lane batch engine
    /// ([`amnt_crypto::mac64_batch`]), in FIFO batches of up to
    /// [`amnt_crypto::LANES`]. On a mismatch the whole queue is discarded
    /// (fail-stop) and the first failing address in queue order is
    /// reported as [`IntegrityError::DataMac`].
    fn drain_verify_queue(&mut self) -> Result<(), IntegrityError> {
        while !self.verify_queue.is_empty() {
            let n = self.verify_queue.len().min(amnt_crypto::LANES);
            let macs = {
                let batch = &self.verify_queue[..n];
                let hmac = self.bmt.hasher().hmac();
                // Unused lanes replay the last entry; their results are
                // ignored below.
                let items: [(&amnt_crypto::HmacSha256, &[u8]); amnt_crypto::LANES] =
                    core::array::from_fn(|l| (hmac, &batch[l.min(n - 1)].msg[..]));
                amnt_crypto::mac64_batch(&items)
            };
            if self.tracer.enabled() {
                self.tracer.record("verify_queue.drain_batch", n as u64);
                let ts = self.tracer.last_ts();
                self.tracer
                    .instant(ts, "verify.drain", "verify", &[("batch", n as u64)]);
            }
            for (l, mac) in macs.iter().enumerate().take(n) {
                if *mac != self.verify_queue[l].stored_mac {
                    let addr = self.verify_queue[l].addr;
                    self.verify_queue.clear();
                    return Err(IntegrityError::DataMac { addr });
                }
            }
            self.verify_queue.drain(..n);
        }
        Ok(())
    }

    /// Surfaces a verification failure deferred from a context that could
    /// not return an error (the trace epoch tick).
    fn take_verify_poison(&mut self) -> Result<(), IntegrityError> {
        match self.verify_poison.take() {
            Some(addr) => Err(IntegrityError::DataMac { addr }),
            None => Ok(()),
        }
    }

    /// Completes every deferred leaf-MAC check before returning (or
    /// fail-stops on the first mismatch). Called at every commit point —
    /// write entry, audit, epoch boundary — upholding the pipeline's hard
    /// invariant: **no unverified read ever influences persisted state**.
    ///
    /// # Errors
    ///
    /// [`IntegrityError::DataMac`] for the first deferred check that fails.
    pub fn flush_verify_queue(&mut self) -> Result<(), IntegrityError> {
        self.take_verify_poison()?;
        self.drain_verify_queue()
    }

    /// Deferred (queued, not yet host-verified) leaf-MAC checks outstanding.
    pub fn verify_queue_len(&self) -> usize {
        self.verify_queue.len()
    }

    /// [`Self::read_block`] followed by [`Self::flush_verify_queue`]:
    /// returns only once this block's MAC check has actually run. This is
    /// the tamper-detection entry point — with a non-zero queue depth,
    /// plain `read_block` may defer the check and report the mismatch at a
    /// later drain instead.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Self::read_block`].
    pub fn read_block_verified(
        &mut self,
        now: u64,
        addr: u64,
    ) -> Result<([u8; BLOCK_SIZE], u64), IntegrityError> {
        let (data, t) = self.read_block(now, addr)?;
        self.flush_verify_queue()?;
        Ok((data, t))
    }

    /// Sequential-stream subtree-path prefetch: on a detected `+64 B`
    /// stride, speculatively pull the *next* block's counter and HMAC
    /// lines through the normal fetch-and-verify path. `verify_up` caches
    /// the ancestor chain as a side effect, so one prefetch warms the
    /// whole predicted subtree path and subsequent reads only enqueue MAC
    /// checks (filling batch lanes without demand stalls). Fills land at
    /// LRU position ([`SetAssocCache::fill_prefetched`]), bank occupancy
    /// is real (the timeline read is issued), and the completion time is
    /// discarded — the core never waits on a prefetch.
    fn maybe_prefetch(&mut self, now: u64, addr: u64) -> Result<(), IntegrityError> {
        if !self.config.subtree_prefetch {
            return Ok(());
        }
        let sequential = self.prefetch_last == Some(addr.wrapping_sub(BLOCK_SIZE as u64));
        self.prefetch_last = Some(addr);
        let next = addr + BLOCK_SIZE as u64;
        if !sequential || !self.bmt.geometry().is_data_addr(next) {
            return Ok(());
        }
        let index = self.bmt.geometry().counter_index(next);
        let ctr_addr = self.bmt.geometry().counter_addr(index);
        let hmac_line = self.bmt.geometry().hmac_addr(next) & !(BLOCK_SIZE as u64 - 1);
        if self.metadata_cache.contains(ctr_addr) && self.metadata_cache.contains(hmac_line) {
            return Ok(());
        }
        self.stats.prefetches += 1;
        if self.tracer.enabled() {
            self.tracer.add("prefetch.issued", 1);
        }
        self.prefetching = true;
        self.tracer
            .push_span(now, "prefetch", "meta", &[("addr", next)]);
        let result = self
            .fetch_counter(now, index)
            .and_then(|(_, t)| self.fetch_hmac(t, next));
        self.trace_pop(&result, |(_, t)| *t);
        self.prefetching = false;
        // A prefetch that *fails verification* is a real tamper signal —
        // the media lied about a line we were about to trust — so it
        // propagates instead of being swallowed with the timing.
        result.map(|_| ())
    }

    fn validate_data_addr(&self, addr: u64) -> Result<(), IntegrityError> {
        if !addr.is_multiple_of(BLOCK_SIZE as u64) || !self.bmt.geometry().is_data_addr(addr) {
            return Err(IntegrityError::OutOfRange { addr });
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Read path
    // ------------------------------------------------------------------

    /// Serves an LLC read miss for the block at `addr`, starting at core
    /// time `now`. Returns the plaintext and the completion time.
    ///
    /// # Errors
    ///
    /// [`IntegrityError::DataMac`] (and friends) when verification fails —
    /// the hardware's tamper signal — or [`IntegrityError::OutOfRange`] for
    /// bad addresses.
    pub fn read_block(
        &mut self,
        now: u64,
        addr: u64,
    ) -> Result<([u8; BLOCK_SIZE], u64), IntegrityError> {
        self.validate_data_addr(addr)?;
        // Scoped op frame: metadata fetches, verify-queue traffic, and
        // prefetches recorded below all nest under this read's span.
        self.tracer.push_span(now, "read", "op", &[("addr", addr)]);
        let result = self.read_block_impl(now, addr);
        self.trace_pop(&result, |(_, t)| *t);
        result
    }

    fn read_block_impl(
        &mut self,
        now: u64,
        addr: u64,
    ) -> Result<([u8; BLOCK_SIZE], u64), IntegrityError> {
        self.take_verify_poison()?;
        self.stats.data_reads += 1;
        self.maybe_prefetch(now, addr)?;
        // Data fetch and counter/HMAC fetches proceed in parallel.
        let data_done = self.timeline.read(now, addr);
        let ct = self.nvm.read_block_untimed(addr)?;
        let index = self.bmt.geometry().counter_index(addr);
        let (counter, t_ctr) = self.fetch_counter(now, index)?;
        let (stored_mac, t_meta) = self.fetch_hmac(t_ctr, addr)?;
        let slot = self.bmt.geometry().counter_slot(addr);
        let mut t = data_done.max(t_meta);
        let (major, minor) = (counter.major(), counter.minor(slot));
        // Factory-zero convention: untouched block.
        if major == 0 && minor == 0 && stored_mac == 0 && ct.iter().all(|&b| b == 0) {
            self.stats.wait_cycles += t - now;
            if self.tracer.enabled() {
                self.tracer.record("read.wait", t - now);
                self.trace_tick(t);
            }
            return Ok(([0u8; BLOCK_SIZE], t));
        }
        // The hash engine's latency and the hash count are charged here in
        // both modes — deferral batches the *host* computation, never the
        // modelled hardware, so artifacts are identical at any queue depth.
        self.stats.hashes += 1;
        t += self.config.timing.hash;
        if self.config.verify_queue == 0 {
            let mac = self.bmt.hasher().data_mac(&ct, addr, major, minor);
            if mac != stored_mac {
                return Err(IntegrityError::DataMac { addr });
            }
        } else {
            let msg = self.bmt.hasher().data_mac_message(&ct, addr, major, minor);
            self.verify_queue.push(PendingVerify {
                addr,
                msg,
                stored_mac,
            });
            if self.tracer.enabled() {
                let depth = self.verify_queue.len() as u64;
                self.tracer.record("verify_queue.depth", depth);
                self.tracer
                    .instant(t, "verify.enqueue", "verify", &[("addr", addr), ("depth", depth)]);
            }
            if self.verify_queue.len() >= self.config.verify_queue {
                self.drain_verify_queue()?;
            }
        }
        // The OTP is generated during the fetch; only the XOR remains.
        let pt = self.engine.decrypt_block(addr, major, minor, &ct);
        self.stats.wait_cycles += t - now;
        if self.tracer.enabled() {
            self.tracer.record("read.wait", t - now);
            self.trace_tick(t);
        }
        Ok((pt, t))
    }

    /// Reads an arbitrary byte range from the protected region (convenience
    /// over [`Self::read_block`]: spans and slices blocks as needed; every
    /// touched block is decrypted and verified).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Self::read_block`].
    pub fn read_bytes(
        &mut self,
        mut now: u64,
        addr: u64,
        buf: &mut [u8],
    ) -> Result<u64, IntegrityError> {
        let mut cursor = addr;
        let mut filled = 0usize;
        while filled < buf.len() {
            let block_base = cursor & !(BLOCK_SIZE as u64 - 1);
            let offset = (cursor - block_base) as usize;
            let take = (BLOCK_SIZE - offset).min(buf.len() - filled);
            let (block, done) = self.read_block(now, block_base)?;
            buf[filled..filled + take].copy_from_slice(&block[offset..offset + take]);
            now = done;
            cursor += take as u64;
            filled += take;
        }
        Ok(now)
    }

    /// Writes an arbitrary byte range to the protected region. Partial
    /// blocks are handled read-modify-write (each touched block is verified
    /// before being re-encrypted), so the integrity guarantees are
    /// identical to [`Self::write_block`].
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Self::write_block`].
    pub fn write_bytes(
        &mut self,
        mut now: u64,
        addr: u64,
        data: &[u8],
    ) -> Result<u64, IntegrityError> {
        let mut cursor = addr;
        let mut consumed = 0usize;
        while consumed < data.len() {
            let block_base = cursor & !(BLOCK_SIZE as u64 - 1);
            let offset = (cursor - block_base) as usize;
            let take = (BLOCK_SIZE - offset).min(data.len() - consumed);
            let mut block = if offset == 0 && take == BLOCK_SIZE {
                [0u8; BLOCK_SIZE]
            } else {
                let (existing, done) = self.read_block(now, block_base)?;
                now = done;
                existing
            };
            block[offset..offset + take].copy_from_slice(&data[consumed..consumed + take]);
            now = self.write_block(now, block_base, &block)?;
            cursor += take as u64;
            consumed += take;
        }
        Ok(now)
    }

    // ------------------------------------------------------------------
    // Write path
    // ------------------------------------------------------------------

    /// Serves an LLC writeback of the block at `addr`, starting at core time
    /// `now`. Returns the time at which the core may proceed (persistence
    /// waits included, per the active protocol).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Self::read_block`].
    pub fn write_block(
        &mut self,
        now: u64,
        addr: u64,
        data: &[u8; BLOCK_SIZE],
    ) -> Result<u64, IntegrityError> {
        self.validate_data_addr(addr)?;
        // Scoped op frame: the entry flush's drain batches, metadata
        // fetches, re-encryption bursts, and AMNT transitions all nest
        // under this write's span.
        self.tracer.push_span(now, "write", "op", &[("addr", addr)]);
        let result = self.write_block_impl(now, addr, data);
        self.trace_pop(&result, |t| *t);
        result
    }

    fn write_block_impl(
        &mut self,
        now: u64,
        addr: u64,
        data: &[u8; BLOCK_SIZE],
    ) -> Result<u64, IntegrityError> {
        // Flush-before-commit: every leaf-MAC check deferred by earlier
        // reads must complete before this write mutates persisted state.
        self.flush_verify_queue()?;
        self.stats.data_writes += 1;
        let g = self.bmt.geometry().clone();
        let index = g.counter_index(addr);
        let slot = g.counter_slot(addr);

        let (mut counter, mut t) = self.fetch_counter(now, index)?;
        let overflow = counter.increment(slot) == IncrementOutcome::MajorOverflow;
        if overflow {
            let old = CounterBlock::decode(&self.nvm.read_block_untimed(g.counter_addr(index))?);
            // Page re-encryption is a hardware write transaction: the new
            // ciphertexts, their MACs, and the bumped major counter land
            // all-or-nothing. A power cut between them would leave the page
            // encrypted under a major the media counter does not yet carry —
            // an *undetectable* corruption, so the device must never expose
            // that window.
            self.nvm.begin_atomic();
            match self.reencrypt_page(t, index, &old, &counter) {
                Ok(done) => t = done,
                Err(e) => {
                    self.nvm.end_atomic();
                    return Err(e);
                }
            }
        }

        // The leaf updates belong to the re-encryption transaction when one
        // is open (a new major counter must land with the re-encrypted
        // page); the bracket closes exactly once whether they succeed or
        // not.
        let leaf = self.write_block_leaf(t, addr, data, &counter, overflow);
        if overflow {
            self.nvm.end_atomic();
        }
        let (plan, leaf_t) = leaf?;
        t = leaf_t;

        // Issue the leaf persist group (data, HMAC, counter): an ordered
        // chain, where each persist may only start once the previous is
        // durable, or parallel banks with one durability wait.
        let mut group_done = t;
        let mut chain = 0u64;
        if plan.persist_data {
            let (done, stall) = self.timeline.write(t, addr, chain);
            t += stall;
            if plan.ordered_leaf {
                chain = done;
            }
            group_done = group_done.max(done);
            self.stats.persist_writes += 1;
        } else {
            let (_, stall) = self.timeline.write(t, addr, 0);
            t += stall;
            self.stats.posted_writes += 1;
        }
        for (line, persist) in [
            (g.hmac_addr(addr) & !(BLOCK_SIZE as u64 - 1), plan.persist_hmac),
            (g.counter_addr(index), plan.persist_counter),
        ] {
            if persist {
                let (done, stall) = self.timeline.write(t, line, chain);
                t += stall;
                if plan.ordered_leaf {
                    chain = done;
                }
                group_done = group_done.max(done);
                self.stats.persist_writes += 1;
                self.mark_persisted(line);
            } else {
                self.metadata_cache.access(line, true);
            }
        }
        if plan.blocking {
            t = t.max(group_done);
        }

        // Update the ancestral tree path.
        let counter_bytes = counter.encode();
        let leaf_mac = self.bmt.hasher().counter_mac(&counter_bytes, index);
        self.stats.hashes += 1;
        t = self.update_path(t, addr, index, leaf_mac, &plan)?;

        self.stats.wait_cycles += t.saturating_sub(now);
        if self.tracer.enabled() {
            let dur = t.saturating_sub(now);
            self.tracer.record("write.wait", dur);
            // AMNT only: split the wait by subtree classification.
            match plan.subtree_hit {
                Some(true) => self.tracer.record("write.subtree_hit.wait", dur),
                Some(false) => self.tracer.record("write.subtree_miss.wait", dur),
                None => {}
            }
            self.trace_tick(t);
        }
        Ok(t)
    }

    /// The leaf updates of a write: encrypt, MAC and write the data, make
    /// the HMAC line resident, decide the protocol's [`WritePlan`], and
    /// write the HMAC and counter contents. Split out of
    /// [`Self::write_block`] so the page re-encryption transaction (when
    /// open) has a single close point around all of it.
    fn write_block_leaf(
        &mut self,
        mut t: u64,
        addr: u64,
        data: &[u8; BLOCK_SIZE],
        counter: &CounterBlock,
        overflow: bool,
    ) -> Result<(WritePlan, u64), IntegrityError> {
        let g = self.bmt.geometry();
        let (major, minor) = (counter.major(), counter.minor(g.counter_slot(addr)));
        let hmac_addr = g.hmac_addr(addr);
        let hmac_line = hmac_addr & !(BLOCK_SIZE as u64 - 1);
        let counter_addr = g.counter_addr(g.counter_index(addr));
        let ct = self.engine.encrypt_block(addr, major, minor, data);
        let mac = self.bmt.hasher().data_mac(&ct, addr, major, minor);
        self.stats.hashes += 2; // data MAC + pad generation amortised
        self.nvm.write_block_untimed(addr, &ct)?;
        // The HMAC line must be resident to update it. A miss fills it
        // without a demand access, so the cache counts no miss.
        if self.metadata_cache.contains(hmac_line) {
            self.metadata_cache.access(hmac_line, false);
            t += self.config.timing.metadata_cache;
        } else {
            t = self.fill_miss(t, hmac_line, None)?;
        }
        let plan = self.protocol.plan_write(self.bmt.geometry(), addr, overflow);

        // Apply content updates (NVM is the logical current state).
        if !plan.persist_hmac {
            self.snapshot_before_lazy_update(hmac_line)?;
        }
        self.nvm
            .write_bytes_untimed(hmac_addr, &mac.to_be_bytes())?;
        if !plan.persist_counter {
            self.snapshot_before_lazy_update(counter_addr)?;
        }
        self.nvm
            .write_block_untimed(counter_addr, &counter.encode())?;
        Ok((plan, t))
    }

    /// Carries `leaf_mac` up the ancestral path of counter `index`,
    /// persisting nodes as `plan` says, until the plan's on-chip terminal or
    /// the root register absorbs it.
    fn update_path(
        &mut self,
        mut t: u64,
        data_addr: u64,
        index: u64,
        leaf_mac: u64,
        plan: &WritePlan,
    ) -> Result<u64, IntegrityError> {
        match plan.subtree_hit {
            Some(true) => self.stats.subtree_hits += 1,
            Some(false) => self.stats.subtree_misses += 1,
            None => {}
        }
        let g = self.bmt.geometry().clone();
        let mut path = plan.path;
        let mut child_mac = leaf_mac;
        let mut child_slot = (index % TREE_ARITY) as usize;
        let mut chain = t; // write-through persist cursor
        let mut wait_chain = false;
        for node in g.path_to_root(index) {
            if Some(node) == plan.terminal {
                t += 1; // on-chip register update
                let absorbed = self
                    .protocol
                    .absorb(node, child_slot, child_mac, self.bmt.hasher());
                let Some(mac) = absorbed else {
                    // The AMNT register is the trusted root of its subtree:
                    // nothing above it changes.
                    return self.finish_write(t, data_addr);
                };
                // A BMF frontier node's new MAC continues lazily above it,
                // and the write does not wait on the persists below it.
                self.stats.hashes += 1;
                child_mac = mac;
                child_slot = g.child_slot(node);
                path = PathPersist::Lazy;
                wait_chain = false;
                continue;
            }

            let addr = g.node_addr(node);
            t = self.fetch_meta(t, addr, "meta.fetch.node", Some(ChildRef::Node(node)))?;
            let mut image = self.nvm.read_block_untimed(addr)?;
            if path == PathPersist::Lazy {
                self.snapshot_before_lazy_update(addr)?;
            }
            set_slot(&mut image, child_slot, child_mac);
            self.nvm.write_block_untimed(addr, &image)?;
            if path == PathPersist::Lazy {
                self.metadata_cache.access(addr, true);
            } else {
                let ordered = path == PathPersist::Ordered;
                let (done, stall) = self.timeline.write(t, addr, if ordered { chain } else { 0 });
                t += stall;
                chain = if ordered { done } else { chain.max(done) };
                wait_chain = true;
                self.stats.persist_writes += 1;
                self.mark_persisted(addr);
                self.metadata_cache.access(addr, false);
            }
            child_mac = self.bmt.hasher().node_mac(&image, node);
            self.stats.hashes += 1;
            t += self.config.timing.hash;
            child_slot = g.child_slot(node);
        }
        // Reached the on-chip root register.
        set_slot(&mut self.root_register, child_slot, child_mac);
        t += 1;
        if wait_chain {
            // Strict semantics: wait for the write-through persists.
            t = t.max(chain);
        }
        self.finish_write(t, data_addr)
    }

    /// Post-write protocol bookkeeping: AMNT records the write's region in
    /// its history buffer and elects a subtree at the end of each interval;
    /// BMF maintains its frontier once per interval.
    fn finish_write(&mut self, t: u64, data_addr: u64) -> Result<u64, IntegrityError> {
        match &mut self.protocol {
            ProtocolState::Amnt(s) => {
                let g = self.bmt.geometry();
                s.history
                    .record(g.subtree_index(data_addr, s.config.subtree_level));
                s.writes_in_interval += 1;
                if s.writes_in_interval >= s.config.interval_writes {
                    s.writes_in_interval = 0;
                    return self.amnt_elect(t);
                }
            }
            ProtocolState::Bmf(s) => {
                s.writes_since_maintenance += 1;
                if s.writes_since_maintenance >= s.config.maintenance_interval {
                    s.writes_since_maintenance = 0;
                    return self.bmf_maintain(t);
                }
            }
            _ => {}
        }
        Ok(t)
    }

    // ------------------------------------------------------------------
    // AMNT subtree transitions
    // ------------------------------------------------------------------

    /// End-of-interval election: adopt the history-buffer head as the new
    /// subtree root, transitioning if it differs from the incumbent.
    fn amnt_elect(&mut self, mut t: u64) -> Result<u64, IntegrityError> {
        let g = self.bmt.geometry().clone();
        let ProtocolState::Amnt(s) = &mut self.protocol else {
            return Ok(t);
        };
        let Some(winner) = s.history.hottest() else {
            return Ok(t);
        };
        let level = s.config.subtree_level;
        let winner_id = NodeId { level, index: winner };
        let incumbent = s.register;
        if incumbent.map(|(id, _)| id) == Some(winner_id) {
            s.history.start_interval(Some(winner));
            return Ok(t);
        }
        // A transition republishes subtree state into the persistent global
        // path — a commit point. The write path flushed the verify queue at
        // entry and reads cannot run concurrently, so it must still be
        // empty here; a deferred check crossing a transition would violate
        // the flush-before-commit invariant (see `protocol::amnt`).
        debug_assert!(
            self.verify_queue.is_empty(),
            "verify queue not flushed at AMNT subtree transition"
        );
        self.stats.subtree_transitions += 1;
        if self.tracer.enabled() {
            // `old` is u64::MAX for the first election (no incumbent yet).
            self.tracer.instant(
                t,
                "amnt.transition",
                "amnt",
                &[
                    ("old", incumbent.map(|(id, _)| id.index).unwrap_or(u64::MAX)),
                    ("new", winner),
                    ("level", level as u64),
                ],
            );
            self.tracer.add("amnt.transitions", 1);
        }

        // 1. Retire the incumbent: persist its register image, flush dirty
        //    subtree-internal nodes, and fold the new MAC into the global
        //    path (all off the critical path: posted writes).
        if let Some((old_id, old_image)) = incumbent {
            let old_addr = g.node_addr(old_id);
            self.nvm.write_block_untimed(old_addr, &old_image)?;
            self.timeline.write(t, old_addr, 0);
            self.stats.persist_writes += 1;
            self.mark_persisted(old_addr);
            // Flush dirty descendants of the old subtree root.
            let drained = self.metadata_cache.drain_dirty_where(|addr| {
                g.node_of_addr(addr)
                    .map(|n| g.in_subtree(n, old_id))
                    .unwrap_or(false)
            });
            for addr in drained {
                self.timeline.write(t, addr, 0);
                self.stats.persist_writes += 1;
                self.persisted_images.remove(&addr);
            }
            // Fold the retired root into its ancestors (strict region).
            let mut child_mac = self.bmt.hasher().node_mac(&old_image, old_id);
            self.stats.hashes += 1;
            let mut child_slot = g.child_slot(old_id);
            let mut cur = g.parent(old_id);
            let mut chain = t;
            while let Some(node) = cur {
                if node.level == 1 {
                    break;
                }
                let addr = g.node_addr(node);
                t = self.fetch_meta(t, addr, "meta.fetch.node", Some(ChildRef::Node(node)))?;
                let mut image = self.nvm.read_block_untimed(addr)?;
                set_slot(&mut image, child_slot, child_mac);
                self.nvm.write_block_untimed(addr, &image)?;
                let (done, _stall) = self.timeline.write(t, addr, chain);
                chain = done;
                self.stats.persist_writes += 1;
                self.mark_persisted(addr);
                child_mac = self.bmt.hasher().node_mac(&image, node);
                self.stats.hashes += 1;
                child_slot = g.child_slot(node);
                cur = g.parent(node);
            }
            set_slot(&mut self.root_register, child_slot, child_mac);
        }

        // 2. Adopt the winner: its NVM copy is current (strict region);
        //    verify it against the global path, then load the register. A
        //    miss fills without a demand access, so the cache counts none.
        let new_addr = g.node_addr(winner_id);
        if !self.metadata_cache.contains(new_addr) {
            t = self.fill_miss(t, new_addr, Some(ChildRef::Node(winner_id)))?;
        }
        let image = self.nvm.read_block_untimed(new_addr)?;
        if let ProtocolState::Amnt(s) = &mut self.protocol {
            s.register = Some((winner_id, image));
            s.history.start_interval(Some(winner));
        }
        Ok(t)
    }

    // ------------------------------------------------------------------
    // BMF maintenance
    // ------------------------------------------------------------------

    /// One BMF maintenance pass: merge the coldest complete sibling group
    /// when capacity is tight, or prune the hottest frontier node into its
    /// children, then age every frequency. A prune needs spare capacity and
    /// a merge needs its absence, so at most one of them runs.
    fn bmf_maintain(&mut self, mut t: u64) -> Result<u64, IntegrityError> {
        let g = self.bmt.geometry().clone();
        let ProtocolState::Bmf(s) = &self.protocol else {
            return Ok(t);
        };
        let merge = if s.roots.len() + (TREE_ARITY as usize - 1) > s.config.capacity {
            s.pick_merge(|p| g.children(p).len())
        } else {
            None
        };
        let prune = s.pick_prune(g.bottom_level(), TREE_ARITY as usize);
        if let Some(parent) = merge {
            t = self.bmf_merge(t, parent)?;
        }
        if let Some(node) = prune {
            t = self.bmf_prune(t, node)?;
        }
        if let ProtocolState::Bmf(s) = &mut self.protocol {
            s.decay();
        }
        Ok(t)
    }

    /// Replaces a hot frontier node with its children (shorter persist
    /// paths beneath it).
    fn bmf_prune(&mut self, mut t: u64, node: NodeId) -> Result<u64, IntegrityError> {
        let g = self.bmt.geometry().clone();
        let entry = match &mut self.protocol {
            ProtocolState::Bmf(s) => s.roots.remove(&node),
            _ => None,
        };
        let Some(entry) = entry else {
            return Ok(t);
        };
        // The departing node's on-chip image becomes the NVM copy.
        let addr = g.node_addr(node);
        self.nvm.write_block_untimed(addr, &entry.image)?;
        self.timeline.write(t, addr, 0);
        self.stats.persist_writes += 1;
        self.mark_persisted(addr);
        // Children are below the old frontier: write-through, hence current.
        for child in g.children(node) {
            let caddr = g.node_addr(child);
            t = self.timeline.read(t, caddr);
            let image = self.nvm.read_block_untimed(caddr)?;
            if let ProtocolState::Bmf(s) = &mut self.protocol {
                s.roots.insert(child, crate::protocol::bmf_entry(image));
            }
        }
        self.stats.bmf_prunes += 1;
        Ok(t)
    }

    /// Merges a cold complete sibling group into its parent.
    fn bmf_merge(&mut self, mut t: u64, parent: NodeId) -> Result<u64, IntegrityError> {
        let g = self.bmt.geometry().clone();
        let ProtocolState::Bmf(s) = &self.protocol else {
            return Ok(t);
        };
        if parent.level == g.bottom_level() {
            return Ok(t);
        }
        let images: Option<Vec<(NodeId, NodeBytes)>> = g
            .children(parent)
            .into_iter()
            .map(|child| s.roots.get(&child).map(|e| (child, e.image)))
            .collect();
        let Some(images) = images else {
            return Ok(t); // incomplete group: bail out
        };
        let mut parent_image = [0u8; 64];
        for (child, img) in &images {
            set_slot(
                &mut parent_image,
                g.child_slot(*child),
                self.bmt.hasher().node_mac(img, *child),
            );
            self.stats.hashes += 1;
            // Departing children persist their images to NVM.
            let caddr = g.node_addr(*child);
            self.nvm.write_block_untimed(caddr, img)?;
            self.timeline.write(t, caddr, 0);
            self.stats.persist_writes += 1;
            self.mark_persisted(caddr);
            if let ProtocolState::Bmf(s) = &mut self.protocol {
                s.roots.remove(child);
            }
        }
        if let ProtocolState::Bmf(s) = &mut self.protocol {
            s.roots
                .insert(parent, crate::protocol::bmf_entry(parent_image));
        }
        t += self.config.timing.hash;
        self.stats.bmf_merges += 1;
        Ok(t)
    }

    // ------------------------------------------------------------------
    // Page re-encryption on minor-counter overflow
    // ------------------------------------------------------------------

    /// Re-encrypts every block of counter block `index`'s page under the new
    /// major counter (minor overflow, paper §2.1).
    fn reencrypt_page(
        &mut self,
        mut t: u64,
        index: u64,
        old: &CounterBlock,
        new: &CounterBlock,
    ) -> Result<u64, IntegrityError> {
        self.stats.counter_overflows += 1;
        let g = self.bmt.geometry().clone();
        let page_base = index * PAGE_SIZE;
        let burst_start = t;
        for slot in 0..amnt_bmt::MINORS_PER_BLOCK {
            let addr = page_base + (slot as u64) * BLOCK_SIZE as u64;
            if addr >= g.data_capacity() {
                break;
            }
            let ct = self.nvm.read_block_untimed(addr)?;
            let hmac_addr = g.hmac_addr(addr);
            let mut stored = [0u8; 8];
            self.nvm.read_bytes_untimed(hmac_addr, &mut stored)?;
            let stored_mac = u64::from_be_bytes(stored);
            if stored_mac == 0 && old.minor(slot) == 0 && ct.iter().all(|&b| b == 0) {
                continue; // untouched block
            }
            self.timeline.read(t, addr);
            let pt = self
                .engine
                .decrypt_block(addr, old.major(), old.minor(slot), &ct);
            let new_ct = self.engine.encrypt_block(addr, new.major(), 0, &pt);
            let new_mac = self.bmt.hasher().data_mac(&new_ct, addr, new.major(), 0);
            self.stats.hashes += 1;
            self.nvm.write_block_untimed(addr, &new_ct)?;
            self.nvm
                .write_bytes_untimed(hmac_addr, &new_mac.to_be_bytes())?;
            self.timeline.write(t, addr, 0);
            let hmac_line = hmac_addr & !(BLOCK_SIZE as u64 - 1);
            self.timeline.write(t, hmac_line, 0);
            self.stats.persist_writes += 2;
            // The re-encrypted page and its MACs are durable now; stale
            // snapshots of these lines must not roll them back at a crash.
            self.mark_persisted(hmac_line);
        }
        // The burst is pipelined: charge one read pass through the banks.
        t = burst_start + self.config.timing.pcm_read + self.config.timing.pcm_write;
        if self.tracer.enabled() {
            self.tracer.span(
                burst_start,
                t - burst_start,
                "reencrypt.page",
                "overflow",
                &[("counter_block", index)],
            );
            self.tracer.add("reencrypt.pages", 1);
        }
        Ok(t)
    }

    // ------------------------------------------------------------------
    // Crash
    // ------------------------------------------------------------------

    /// Power failure: volatile state (metadata cache, history buffer,
    /// stop-loss clocks, in-flight writes) is lost; the media and the
    /// non-volatile registers (root register, AMNT subtree register, BMF
    /// root set) survive. Dirty metadata lines roll back to their last
    /// persisted images.
    pub fn crash(&mut self) {
        // The verify queue is volatile read-side speculation: deferred
        // checks die with power. Reads never mutate persisted state (the
        // flush-before-commit invariant), so discarding them loses nothing
        // durable — the fault sweep's `verify_queue` crash-point class
        // proves any tamper they would have caught is still caught by
        // post-recovery verification.
        self.verify_queue.clear();
        self.verify_poison = None;
        self.prefetch_last = None;
        // Power actually fails now. Device-level faults — a lost or torn
        // in-flight write, a dropped WPQ tail — land first, so the rollback
        // restores below model the *post-fault* media. They bypass the fault
        // path entirely: they model volatility, not device traffic, so a
        // plan armed after this crash sees recovery's own first write as
        // ordinal 0.
        self.nvm.crash();
        if self.tracer.enabled() {
            // Promote the device's strike records (FaultPlan ordinal, kind,
            // address) to timestamped instant events, stamped with the op
            // index the run had reached — enough to replay the crash point.
            let ts = self.tracer.last_ts();
            let op_index = self.stats.data_reads + self.stats.data_writes;
            let lane = self.nvm.lane() as u64;
            for s in self.nvm.take_trace_strikes() {
                self.tracer.instant(
                    ts,
                    s.kind_name(),
                    "fault",
                    &[
                        ("ordinal", s.ordinal),
                        ("kind", s.kind as u64),
                        ("op_index", op_index),
                        ("lane", lane),
                    ],
                );
            }
            self.tracer.add("crashes", 1);
        }
        let shadows: Vec<(u64, NodeBytes)> = std::mem::take(&mut self.persisted_images)
            .into_iter()
            .collect();
        for (addr, image) in shadows {
            self.nvm.rollback_bytes(addr, &image);
        }
        self.metadata_cache.clear();
        self.timeline.reset();
        self.protocol.crash();
        self.crashed = true;
    }

    /// Whether [`Self::crash`] has been called without a successful
    /// `recover` since.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Recomputes the touched ancestor closure of the tree from the counters
    /// and compares it with the on-chip root register — an offline
    /// consistency audit, O(touched lines) rather than O(capacity) (see
    /// [`amnt_bmt::Bmt::verify_touched`]). For AMNT this is only meaningful
    /// right after a transition or recovery (the register intentionally
    /// diverges from the stored tree during residency).
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn audit(&mut self) -> Result<bool, IntegrityError> {
        // An audit is a statement about verified state: settle every
        // deferred check before vouching for the tree.
        self.flush_verify_queue()?;
        let root = self.root_register;
        Ok(self.bmt.verify_touched(&mut self.nvm, &root)?)
    }
}
