//! Sharded multi-tenant controller: one engine per subtree domain.
//!
//! AMNT++'s premise (paper §6) is that co-running processes each get their
//! own subtree region. [`ShardedMemory`] makes that the *unit of
//! construction*: the protected address space is split into `N` contiguous
//! subtree regions, and each region owns a full, independent
//! [`SecureMemory`] shard — its own Merkle tree, its own metadata-cache
//! partition ([`amnt_cache::CacheConfig::partitioned`]), its own WPQ lane
//! ([`amnt_nvm::Nvm::set_lane`]), its own lazy verify queue and its own
//! recovery domain. Addresses route to shards by span; nothing else crosses
//! the boundary.
//!
//! ## Epoch merge contract
//!
//! Shards run independently between epochs. [`ShardedMemory::epoch_merge`]
//! is the only point where global state is derived, and it derives *one
//! root of trust* from per-shard sub-roots alone:
//!
//! * every shard's lazy verify queue is flushed (no unverified read can
//!   influence a sealed epoch);
//! * each shard's on-chip root register is MAC-folded (keyed by the on-chip
//!   integrity key, tagged with the shard index) into a per-shard sub-root;
//! * the sub-roots, in shard order, plus a strictly monotone epoch ordinal
//!   are MAC-folded into the global epoch root.
//!
//! Freshness is monotone across the merge by machine-checked invariant: the
//! epoch ordinal only ever increments, a merge over a crashed
//! (un-recovered) shard is refused, and [`ShardedMemory::verify_merge`]
//! recomputes the fold — from the current sub-roots and nothing else — to
//! detect stale or foreign merge reports.
//!
//! ## Determinism rules
//!
//! A shard is a pure function of (its config, its op stream): shards share
//! no mutable state, so per-shard op streams may execute in any order — or
//! on the deterministic parallel executor (`amnt_bench::exec`) — and the
//! merged result is byte-identical at any worker count. The facade supports
//! this directly: [`ShardedMemory::detach_shards`] hands the engines out
//! (e.g. one executor job per shard), [`ShardedMemory::attach_shards`]
//! reassembles the facade, and the epoch state lives in the facade so a
//! detach/attach round trip never perturbs freshness.
//!
//! With `N = 1` the facade is bit-equivalent to a bare [`SecureMemory`]:
//! routing is the identity, the cache partition is the whole cache, and the
//! lane tag is the default — the differential suite pins media images and
//! report JSON byte-for-byte.

use crate::config::SecureMemoryConfig;
use crate::controller::{SecureMemory, BLOCK_SIZE};
use crate::error::{IntegrityError, RecoveryError};
use crate::protocol::ProtocolKind;
use crate::recovery::RecoveryReport;
use crate::stats::StatsSnapshot;
use amnt_crypto::HmacSha256;

/// Domain-separation tags for the two MAC folds (sub-root, epoch root).
const SUBROOT_TAG: &[u8] = b"amnt.shard.subroot";
const EPOCH_TAG: &[u8] = b"amnt.shard.epoch";

/// The sealed result of one epoch merge: the global root of trust, the
/// per-shard sub-roots it was folded from, and the (strictly monotone)
/// epoch ordinal that freshens it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeReport {
    /// Epoch ordinal; strictly increases across merges.
    pub epoch: u64,
    /// Per-shard sub-roots (MAC over shard index + root-register image),
    /// in shard order.
    pub shard_roots: Vec<u64>,
    /// The global root of trust: a MAC fold of `epoch` and `shard_roots`,
    /// and of nothing else.
    pub global_root: u64,
}

/// A sharded secure-memory controller: `N` independent [`SecureMemory`]
/// engines over contiguous subtree regions, one root of trust at epoch
/// boundaries. See the module docs for the routing, merge and determinism
/// contracts.
///
/// # Examples
///
/// ```
/// use amnt_core::{AmntConfig, ProtocolKind, SecureMemoryConfig, ShardedMemory};
///
/// let cfg = SecureMemoryConfig::with_capacity(2 * 1024 * 1024);
/// let kind = ProtocolKind::Amnt(AmntConfig::default());
/// let mut mem = ShardedMemory::new(cfg, kind, 2)?;
///
/// mem.write_block(0, 0x40, &[1u8; 64])?;                  // shard 0
/// mem.write_block(0, 1024 * 1024 + 0x40, &[2u8; 64])?;    // shard 1
/// let sealed = mem.epoch_merge()?;
/// assert_eq!(sealed.epoch, 1);
/// assert!(mem.verify_merge(&sealed));
///
/// // Crash one tenant mid-epoch; the other is untouched.
/// mem.crash_shard(1)?;
/// mem.recover_shard(1).expect("bounded per-shard recovery");
/// assert_eq!(mem.read_block(0, 0x40)?.0[0], 1);
/// # Ok::<(), amnt_core::IntegrityError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ShardedMemory {
    shards: Vec<SecureMemory>,
    /// Bytes of protected data each shard owns.
    span: u64,
    /// Declared shard count (stable across detach/attach).
    count: usize,
    kind: ProtocolKind,
    integrity_key: [u8; 32],
    epoch: u64,
    last_merge: Option<MergeReport>,
}

impl ShardedMemory {
    /// Builds `shards` engines over `config.data_capacity` bytes of
    /// protected data. Shard `i` owns global addresses
    /// `[i * span, (i + 1) * span)` with `span = data_capacity / shards`;
    /// each shard gets a `1/shards` metadata-cache partition and WPQ lane
    /// `i`. With `shards == 1` the single engine is configured exactly as
    /// an unsharded [`SecureMemory`] would be.
    ///
    /// # Errors
    ///
    /// [`IntegrityError::Invariant`] when `shards` is zero or does not
    /// evenly divide the capacity into block-aligned spans; otherwise
    /// propagates engine construction errors.
    pub fn new(
        config: SecureMemoryConfig,
        kind: ProtocolKind,
        shards: usize,
    ) -> Result<Self, IntegrityError> {
        if shards == 0 {
            return Err(IntegrityError::Invariant {
                what: "shard count must be at least one",
            });
        }
        if config.data_capacity % shards as u64 != 0 {
            return Err(IntegrityError::Invariant {
                what: "shard count must divide the data capacity",
            });
        }
        let span = config.data_capacity / shards as u64;
        if span == 0 || span % BLOCK_SIZE as u64 != 0 {
            return Err(IntegrityError::Invariant {
                what: "shard span must be a non-empty multiple of the block size",
            });
        }
        let integrity_key = config.integrity_key;
        let mut engines = Vec::with_capacity(shards);
        for lane in 0..shards {
            let shard_cfg = SecureMemoryConfig {
                data_capacity: span,
                metadata_cache: config.metadata_cache.partitioned(shards),
                ..config.clone()
            };
            let mut engine = SecureMemory::new(shard_cfg, kind)?;
            engine.nvm_mut().set_lane(lane as u32);
            engines.push(engine);
        }
        Ok(ShardedMemory {
            shards: engines,
            span,
            count: shards,
            kind,
            integrity_key,
            epoch: 0,
            last_merge: None,
        })
    }

    /// Number of shard domains.
    pub fn shards(&self) -> usize {
        self.count
    }

    /// Bytes of protected data each shard owns.
    pub fn span(&self) -> u64 {
        self.span
    }

    /// The protocol every shard runs.
    pub fn protocol(&self) -> ProtocolKind {
        self.kind
    }

    /// Routes a global address to `(shard index, shard-local address)`.
    ///
    /// # Errors
    ///
    /// [`IntegrityError::OutOfRange`] past the last shard.
    pub fn shard_of(&self, addr: u64) -> Result<(usize, u64), IntegrityError> {
        let idx = (addr / self.span) as usize;
        if idx >= self.count {
            return Err(IntegrityError::OutOfRange { addr });
        }
        Ok((idx, addr % self.span))
    }

    /// Shard `idx`'s engine (stats, subtree inspection); `None` out of
    /// range or while detached.
    pub fn shard(&self, idx: usize) -> Option<&SecureMemory> {
        self.shards.get(idx)
    }

    /// Mutable access to shard `idx`'s engine — for tests that model
    /// physical attacks on one tenant's media.
    pub fn shard_mut(&mut self, idx: usize) -> Option<&mut SecureMemory> {
        self.shards.get_mut(idx)
    }

    fn owning_shard(&mut self, addr: u64) -> Result<(&mut SecureMemory, u64), IntegrityError> {
        let (idx, local) = self.shard_of(addr)?;
        match self.shards.get_mut(idx) {
            Some(engine) => Ok((engine, local)),
            None => Err(IntegrityError::Invariant {
                what: "shard access while shards are detached",
            }),
        }
    }

    /// Reads the block at a global address through the owning shard.
    ///
    /// # Errors
    ///
    /// Propagates [`IntegrityError`] from the owning shard.
    pub fn read_block(
        &mut self,
        now: u64,
        addr: u64,
    ) -> Result<([u8; BLOCK_SIZE], u64), IntegrityError> {
        let (engine, local) = self.owning_shard(addr)?;
        engine.read_block(now, local)
    }

    /// Like [`Self::read_block`], but the owning shard's lazy verify queue
    /// is flushed before returning, so a MAC mismatch on this block is
    /// reported here rather than at a later drain.
    ///
    /// # Errors
    ///
    /// Propagates [`IntegrityError`] from the owning shard.
    pub fn read_block_verified(
        &mut self,
        now: u64,
        addr: u64,
    ) -> Result<([u8; BLOCK_SIZE], u64), IntegrityError> {
        let (engine, local) = self.owning_shard(addr)?;
        engine.read_block_verified(now, local)
    }

    /// Writes the block at a global address through the owning shard,
    /// under that shard's persistence protocol.
    ///
    /// # Errors
    ///
    /// Propagates [`IntegrityError`] from the owning shard.
    pub fn write_block(
        &mut self,
        now: u64,
        addr: u64,
        data: &[u8; BLOCK_SIZE],
    ) -> Result<u64, IntegrityError> {
        let (engine, local) = self.owning_shard(addr)?;
        engine.write_block(now, local, data)
    }

    /// Power-fails shard `idx` only: its volatile state is lost and it
    /// refuses service until [`Self::recover_shard`]; every other shard
    /// keeps running — a shard is its own recovery domain.
    ///
    /// # Errors
    ///
    /// [`IntegrityError::Invariant`] when `idx` is out of range.
    pub fn crash_shard(&mut self, idx: usize) -> Result<(), IntegrityError> {
        match self.shards.get_mut(idx) {
            Some(engine) => {
                engine.crash();
                Ok(())
            }
            None => Err(IntegrityError::Invariant {
                what: "crash_shard index out of range",
            }),
        }
    }

    /// Runs shard `idx`'s own recovery procedure — O(touched) in that
    /// shard's state alone; no other shard is read or written.
    ///
    /// # Errors
    ///
    /// Propagates the shard's [`RecoveryError`];
    /// [`RecoveryError::Unrecoverable`] when `idx` is out of range.
    pub fn recover_shard(&mut self, idx: usize) -> Result<RecoveryReport, RecoveryError> {
        match self.shards.get_mut(idx) {
            Some(engine) => engine.recover(),
            None => Err(RecoveryError::Unrecoverable {
                reason: format!("recover_shard({idx}) out of range"),
            }),
        }
    }

    /// Whether shard `idx` is crashed and not yet recovered (`false` out
    /// of range).
    pub fn is_crashed(&self, idx: usize) -> bool {
        self.shards.get(idx).is_some_and(|s| s.is_crashed())
    }

    /// Audits shard `idx`: recomputes its touched ancestor closure against
    /// its own root register. A tamper in shard A is A's audit's to catch;
    /// B's audit must keep passing — shard state never crosses the
    /// boundary.
    ///
    /// # Errors
    ///
    /// Propagates the shard's [`IntegrityError`];
    /// [`IntegrityError::Invariant`] when `idx` is out of range.
    pub fn audit_shard(&mut self, idx: usize) -> Result<bool, IntegrityError> {
        match self.shards.get_mut(idx) {
            Some(engine) => engine.audit(),
            None => Err(IntegrityError::Invariant {
                what: "audit_shard index out of range",
            }),
        }
    }

    /// Flushes every shard's lazy verify queue.
    ///
    /// # Errors
    ///
    /// Propagates the first deferred MAC failure.
    pub fn flush_verify_queues(&mut self) -> Result<(), IntegrityError> {
        for engine in &mut self.shards {
            engine.flush_verify_queue()?;
        }
        Ok(())
    }

    /// The MAC-folded sub-root of each attached shard, in shard order:
    /// `MAC(key, tag || shard index || root-register image)`. This — and
    /// nothing else — is what the epoch fold consumes.
    pub fn sub_roots(&self) -> Vec<u64> {
        let mac = HmacSha256::new(&self.integrity_key);
        self.shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                mac.mac64_parts(&[SUBROOT_TAG, &(i as u64).to_le_bytes(), s.root_image()])
            })
            .collect()
    }

    /// Deterministic fold of `epoch` and the current sub-roots into a
    /// global root of trust.
    fn fold(&self, epoch: u64) -> MergeReport {
        let shard_roots = self.sub_roots();
        let mut root_bytes = Vec::with_capacity(shard_roots.len() * 8);
        for r in &shard_roots {
            root_bytes.extend_from_slice(&r.to_le_bytes());
        }
        let mac = HmacSha256::new(&self.integrity_key);
        let global_root = mac.mac64_parts(&[EPOCH_TAG, &epoch.to_le_bytes(), &root_bytes]);
        MergeReport {
            epoch,
            shard_roots,
            global_root,
        }
    }

    /// Seals the current epoch: flushes every shard's verify queue,
    /// MAC-folds the per-shard sub-roots (and nothing else) under the next
    /// epoch ordinal, and records the sealed [`MergeReport`]. Freshness is
    /// monotone by checked invariant; a merge over a crashed shard is
    /// refused (its sub-root would be stale).
    ///
    /// # Errors
    ///
    /// [`IntegrityError::Invariant`] on a crashed/detached shard or a
    /// non-monotone epoch; otherwise propagates deferred MAC failures from
    /// the queue flush.
    pub fn epoch_merge(&mut self) -> Result<MergeReport, IntegrityError> {
        if self.shards.len() != self.count {
            return Err(IntegrityError::Invariant {
                what: "epoch merge while shards are detached",
            });
        }
        if self.shards.iter().any(|s| s.is_crashed()) {
            return Err(IntegrityError::Invariant {
                what: "epoch merge over a crashed shard",
            });
        }
        self.flush_verify_queues()?;
        let epoch = self.epoch.checked_add(1).ok_or(IntegrityError::Invariant {
            what: "epoch ordinal overflow",
        })?;
        let report = self.fold(epoch);
        if let Some(prev) = &self.last_merge {
            if report.epoch <= prev.epoch {
                return Err(IntegrityError::Invariant {
                    what: "epoch freshness must be monotone",
                });
            }
        }
        self.epoch = epoch;
        self.last_merge = Some(report.clone());
        Ok(report)
    }

    /// Recomputes the fold for `report.epoch` from the *current* per-shard
    /// sub-roots — and from nothing else — and compares. `false` means the
    /// report is stale (a shard's root moved since it was sealed) or
    /// foreign (not this controller's shards/keys).
    pub fn verify_merge(&self, report: &MergeReport) -> bool {
        let fresh = self.fold(report.epoch);
        fresh.shard_roots == report.shard_roots && fresh.global_root == report.global_root
    }

    /// The current epoch ordinal (number of sealed epochs).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Hands the shard engines out for independent execution (one
    /// deterministic-executor job per shard, typically), in shard order.
    /// The facade keeps its epoch state; every shard-routed operation
    /// errors until [`Self::attach_shards`] restores the engines.
    pub fn detach_shards(&mut self) -> Vec<SecureMemory> {
        std::mem::take(&mut self.shards)
    }

    /// Restores engines handed out by [`Self::detach_shards`], in the same
    /// shard order.
    ///
    /// # Errors
    ///
    /// [`IntegrityError::Invariant`] when the count or any shard's span
    /// disagrees with this facade (engines from another facade, or
    /// reordered shards would silently remap tenants).
    pub fn attach_shards(&mut self, engines: Vec<SecureMemory>) -> Result<(), IntegrityError> {
        if engines.len() != self.count {
            return Err(IntegrityError::Invariant {
                what: "attach_shards engine count mismatch",
            });
        }
        for (lane, engine) in engines.iter().enumerate() {
            if engine.config().data_capacity != self.span {
                return Err(IntegrityError::Invariant {
                    what: "attach_shards span mismatch",
                });
            }
            if engine.nvm().lane() != lane as u32 {
                return Err(IntegrityError::Invariant {
                    what: "attach_shards lane order mismatch",
                });
            }
        }
        self.shards = engines;
        Ok(())
    }

    /// Per-shard statistics snapshots, in shard order.
    pub fn shard_snapshots(&self) -> Vec<StatsSnapshot> {
        self.shards.iter().map(|s| s.snapshot()).collect()
    }

    /// Byte-exact media images of every shard's device, in shard order —
    /// the N=1 bit-equivalence and cross-shard-disturbance comparisons run
    /// on these.
    pub fn media_images(&mut self) -> Vec<Vec<(u64, Vec<u8>)>> {
        self.shards
            .iter_mut()
            .map(|s| s.nvm_mut().media_image())
            .collect()
    }

    /// Turns on cycle-domain tracing in every shard (per-shard span trees;
    /// harvest with [`Self::shard_trace_reports`]). Tracing is purely
    /// observational, per shard, exactly as on a bare engine.
    pub fn enable_tracing(&mut self, cfg: amnt_trace::TraceConfig) {
        for engine in &mut self.shards {
            engine.enable_tracing(cfg.clone());
        }
    }

    /// Harvests each shard's trace report, in shard order (`None` for
    /// shards without tracing enabled).
    pub fn shard_trace_reports(&self) -> Vec<Option<amnt_trace::TraceReport>> {
        self.shards.iter().map(|s| s.trace_report()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::AmntConfig;

    const MIB: u64 = 1024 * 1024;

    fn sharded(n: usize) -> ShardedMemory {
        let cfg = SecureMemoryConfig::with_capacity(2 * MIB);
        ShardedMemory::new(cfg, ProtocolKind::Amnt(AmntConfig::at_level(2)), n)
            .expect("valid shard config")
    }

    #[test]
    fn routing_by_span() {
        let m = sharded(4);
        assert_eq!(m.span(), MIB / 2);
        assert_eq!(m.shard_of(0).unwrap(), (0, 0));
        assert_eq!(m.shard_of(MIB / 2).unwrap(), (1, 0));
        assert_eq!(m.shard_of(2 * MIB - 64).unwrap(), (3, MIB / 2 - 64));
        assert!(matches!(
            m.shard_of(2 * MIB),
            Err(IntegrityError::OutOfRange { .. })
        ));
    }

    #[test]
    fn invalid_shard_counts_are_refused() {
        let cfg = SecureMemoryConfig::with_capacity(2 * MIB);
        let kind = ProtocolKind::Leaf;
        assert!(ShardedMemory::new(cfg.clone(), kind, 0).is_err());
        let odd = SecureMemoryConfig::with_capacity(3 * 64);
        assert!(ShardedMemory::new(odd, kind, 2).is_err());
    }

    #[test]
    fn degenerate_metadata_caches_are_typed_errors() {
        // Zero ways or zero-byte lines: the same typed error a bare engine
        // returns, at every shard count, never a divide-by-zero panic.
        for (size, ways, line) in [(0, 0, 64), (1024, 0, 64), (1024, 8, 0)] {
            let cfg = SecureMemoryConfig {
                metadata_cache: amnt_cache::CacheConfig::new(size, ways, line),
                ..SecureMemoryConfig::with_capacity(2 * MIB)
            };
            assert!(matches!(
                SecureMemory::new(cfg.clone(), ProtocolKind::Leaf),
                Err(IntegrityError::OutOfRange { addr: 0 })
            ));
            for shards in [1, 2] {
                assert!(
                    matches!(
                        ShardedMemory::new(cfg.clone(), ProtocolKind::Leaf, shards),
                        Err(IntegrityError::OutOfRange { addr: 0 })
                    ),
                    "cache ({size}, {ways}, {line}) at {shards} shards"
                );
            }
        }
    }

    #[test]
    fn shards_get_own_lanes_and_cache_partitions() {
        let m = sharded(4);
        for i in 0..4 {
            assert_eq!(m.shard(i).unwrap().nvm().lane(), i as u32);
        }
        let full = SecureMemoryConfig::with_capacity(2 * MIB).metadata_cache;
        let part = m.shard(0).unwrap().config().metadata_cache;
        assert_eq!(part.size_bytes, full.size_bytes / 4);
    }

    #[test]
    fn writes_to_one_shard_never_touch_another() {
        let mut m = sharded(2);
        let mut t = 0;
        for i in 0..64u64 {
            t = m.write_block(t, (i % 16) * 64, &[i as u8; 64]).unwrap();
        }
        let idle = m.shard(1).unwrap();
        assert_eq!(idle.stats().data_writes, 0);
        assert_eq!(idle.stats().metadata_fetches, 0);
        assert_eq!(idle.nvm().stats().writes, 0, "no device traffic at all");
        let _ = t;
    }

    #[test]
    fn epoch_merge_is_monotone_and_verifiable() {
        let mut m = sharded(2);
        m.write_block(0, 0x40, &[1u8; 64]).unwrap();
        let first = m.epoch_merge().unwrap();
        assert_eq!(first.epoch, 1);
        assert_eq!(first.shard_roots.len(), 2);
        assert!(m.verify_merge(&first));
        // Same state, next epoch: sub-roots identical, global root fresh.
        let second = m.epoch_merge().unwrap();
        assert_eq!(second.epoch, 2);
        assert_eq!(second.shard_roots, first.shard_roots);
        assert_ne!(
            second.global_root, first.global_root,
            "epoch freshens the fold"
        );
        // Mutating a shard invalidates old reports.
        m.write_block(0, 0x40, &[9u8; 64]).unwrap();
        assert!(!m.verify_merge(&second), "stale report must not verify");
        let third = m.epoch_merge().unwrap();
        assert!(m.verify_merge(&third));
    }

    #[test]
    fn merge_refuses_crashed_shards() {
        let mut m = sharded(2);
        m.write_block(0, 0x40, &[1u8; 64]).unwrap();
        m.crash_shard(0).unwrap();
        assert!(m.is_crashed(0));
        assert!(!m.is_crashed(1));
        assert!(m.epoch_merge().is_err(), "crashed shard cannot seal");
        m.recover_shard(0).expect("recover shard 0");
        assert!(m.epoch_merge().is_ok());
    }

    #[test]
    fn detach_attach_round_trip_preserves_epoch_state() {
        let mut m = sharded(2);
        m.write_block(0, 0x40, &[3u8; 64]).unwrap();
        let sealed = m.epoch_merge().unwrap();
        let engines = m.detach_shards();
        assert!(
            m.read_block(0, 0x40).is_err(),
            "detached facade refuses ops"
        );
        assert!(m.epoch_merge().is_err());
        m.attach_shards(engines).unwrap();
        assert_eq!(m.epoch(), 1);
        assert!(m.verify_merge(&sealed));
        assert_eq!(m.epoch_merge().unwrap().epoch, 2);
    }

    #[test]
    fn attach_rejects_mismatched_engines() {
        let mut m = sharded(2);
        let mut engines = m.detach_shards();
        engines.swap(0, 1);
        assert!(m.attach_shards(engines).is_err(), "reordered lanes refused");
        // Rebuild cleanly; a wrong count is refused too.
        let mut m = sharded(2);
        let mut engines = m.detach_shards();
        engines.pop();
        assert!(m.attach_shards(engines).is_err());
    }

    #[test]
    fn single_shard_behaves_like_a_bare_engine() {
        let cfg = SecureMemoryConfig::with_capacity(MIB);
        let kind = ProtocolKind::Leaf;
        let mut bare = SecureMemory::new(cfg.clone(), kind).unwrap();
        let mut one = ShardedMemory::new(cfg, kind, 1).unwrap();
        let mut tb = 0;
        let mut ts = 0;
        for i in 0..48u64 {
            let addr = (i % 8) * 64;
            tb = bare.write_block(tb, addr, &[i as u8; 64]).unwrap();
            ts = one.write_block(ts, addr, &[i as u8; 64]).unwrap();
        }
        assert_eq!(tb, ts, "identical timing");
        assert_eq!(
            bare.nvm_mut().media_image(),
            one.media_images().remove(0),
            "identical media bytes"
        );
        assert_eq!(bare.snapshot(), one.shard_snapshots().remove(0));
    }
}
