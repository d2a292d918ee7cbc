//! # amnt-cache
//!
//! A generic set-associative cache *model* used throughout the Midsummer
//! simulator: for the L1/L2/L3 data hierarchy and for the on-chip security
//! metadata cache.
//!
//! The cache tracks presence, dirtiness and LRU ordering of 64-byte lines by
//! address; the actual bytes live in the NVM device model (`amnt-nvm`) or in
//! controller-side structures. This mirrors how a timing simulator treats
//! caches, and it is what the AMNT protocol needs: subtree transitions scan
//! the metadata cache's *dirty bits* (see the paper, §4.2).
//!
//! ## Example
//!
//! ```
//! use amnt_cache::{CacheConfig, SetAssocCache};
//!
//! let mut cache = SetAssocCache::new(CacheConfig::new(4096, 4, 64))?;
//! assert!(!cache.access(0x1000, false).hit);
//! cache.fill(0x1000, false);
//! assert!(cache.access(0x1000, true).hit); // write hit marks the line dirty
//! assert_eq!(cache.dirty_lines().count(), 1);
//! # Ok::<(), amnt_cache::CacheConfigError>(())
//! ```

#![forbid(unsafe_code)]
// Engine code reports through amnt-trace, never stdout or stderr
// (DESIGN.md §2b).
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

mod stats;

pub use stats::CacheStats;

use std::fmt;

/// Configuration for a [`SetAssocCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (lines per set).
    pub ways: usize,
    /// Line size in bytes; must be a power of two.
    pub line_size: usize,
}

impl CacheConfig {
    /// Creates a configuration; validated by [`SetAssocCache::new`].
    pub fn new(size_bytes: usize, ways: usize, line_size: usize) -> Self {
        CacheConfig {
            size_bytes,
            ways,
            line_size,
        }
    }

    /// Number of lines this configuration holds.
    pub fn lines(&self) -> usize {
        self.size_bytes / self.line_size
    }

    /// Number of sets this configuration holds.
    pub fn sets(&self) -> usize {
        self.lines() / self.ways
    }
}

/// Error returned when a [`CacheConfig`] is internally inconsistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheConfigError {
    /// The line size is zero or not a power of two.
    BadLineSize(usize),
    /// The capacity is not an exact multiple of `ways * line_size`.
    NotSetDivisible {
        /// Requested capacity.
        size_bytes: usize,
        /// Requested associativity.
        ways: usize,
        /// Requested line size.
        line_size: usize,
    },
    /// The number of sets is not a power of two (index bits must be exact).
    SetsNotPowerOfTwo(usize),
    /// Associativity of zero.
    ZeroWays,
}

impl fmt::Display for CacheConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheConfigError::BadLineSize(n) => {
                write!(f, "line size {n} is not a nonzero power of two")
            }
            CacheConfigError::NotSetDivisible {
                size_bytes,
                ways,
                line_size,
            } => write!(
                f,
                "capacity {size_bytes} is not divisible by ways ({ways}) * line size ({line_size})"
            ),
            CacheConfigError::SetsNotPowerOfTwo(n) => {
                write!(f, "set count {n} is not a power of two")
            }
            CacheConfigError::ZeroWays => write!(f, "associativity must be at least 1"),
        }
    }
}

impl std::error::Error for CacheConfigError {}

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Whether the line was present.
    pub hit: bool,
}

/// A line evicted to make room during a [`SetAssocCache::fill`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Line-aligned address of the victim.
    pub addr: u64,
    /// Whether the victim was dirty (requires a writeback).
    pub dirty: bool,
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    dirty: bool,
    valid: bool,
    stamp: u64,
}

const EMPTY_LINE: Line = Line {
    tag: 0,
    dirty: false,
    valid: false,
    stamp: 0,
};

/// A set-associative, write-back, LRU cache model.
///
/// Tracks line presence and dirty state only; see the crate docs for the
/// modelling rationale and an example.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    config: CacheConfig,
    lines: Vec<Line>,
    set_shift: u32,
    set_mask: u64,
    clock: u64,
    stats: CacheStats,
    /// Observability sink (disabled by default; one branch per access when
    /// off). Counts hits/misses/evictions for the trace layer independently
    /// of [`CacheStats`], so trace epochs can reset it without disturbing
    /// the statistics the artifacts are built from.
    trace: amnt_trace::CompTrace,
}

impl SetAssocCache {
    /// Builds a cache from `config`.
    ///
    /// # Errors
    ///
    /// Returns a [`CacheConfigError`] if the geometry is inconsistent (line
    /// size not a power of two, capacity not divisible into sets, set count
    /// not a power of two, or zero ways).
    pub fn new(config: CacheConfig) -> Result<Self, CacheConfigError> {
        if config.line_size == 0 || !config.line_size.is_power_of_two() {
            return Err(CacheConfigError::BadLineSize(config.line_size));
        }
        if config.ways == 0 {
            return Err(CacheConfigError::ZeroWays);
        }
        if config.size_bytes == 0
            || !config
                .size_bytes
                .is_multiple_of(config.ways * config.line_size)
        {
            return Err(CacheConfigError::NotSetDivisible {
                size_bytes: config.size_bytes,
                ways: config.ways,
                line_size: config.line_size,
            });
        }
        let sets = config.sets();
        if !sets.is_power_of_two() {
            return Err(CacheConfigError::SetsNotPowerOfTwo(sets));
        }
        Ok(SetAssocCache {
            config,
            lines: vec![EMPTY_LINE; sets * config.ways],
            set_shift: config.line_size.trailing_zeros(),
            set_mask: (sets - 1) as u64,
            clock: 0,
            stats: CacheStats::default(),
            trace: amnt_trace::CompTrace::default(),
        })
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    #[inline]
    fn set_range(&self, addr: u64) -> std::ops::Range<usize> {
        let set = ((addr >> self.set_shift) & self.set_mask) as usize;
        let start = set * self.config.ways;
        start..start + self.config.ways
    }

    /// Looks up `addr`, updating LRU order and statistics. A write hit marks
    /// the line dirty. Misses do **not** allocate; callers model the fill
    /// path explicitly via [`Self::fill`].
    pub fn access(&mut self, addr: u64, is_write: bool) -> Access {
        self.clock += 1;
        let tag = addr >> self.set_shift;
        let set = self.set_range(addr);
        let clock = self.clock;
        for line in &mut self.lines[set.start..set.end] {
            if line.valid && line.tag == tag {
                line.stamp = clock;
                if is_write {
                    line.dirty = true;
                }
                self.stats.record(is_write, true);
                if self.trace.enabled() {
                    self.trace.bump("hits");
                }
                return Access { hit: true };
            }
        }
        self.stats.record(is_write, false);
        if self.trace.enabled() {
            self.trace.bump("misses");
        }
        Access { hit: false }
    }

    /// Inserts the line containing `addr`, evicting the LRU victim of its set
    /// if the set is full. Returns the victim, if any.
    ///
    /// Filling a line that is already present refreshes its LRU stamp and
    /// ORs in `dirty` without evicting anything.
    pub fn fill(&mut self, addr: u64, dirty: bool) -> Option<Eviction> {
        self.clock += 1;
        let tag = addr >> self.set_shift;
        let range = self.set_range(addr);
        let clock = self.clock;
        // Already present?
        for line in &mut self.lines[range.clone()] {
            if line.valid && line.tag == tag {
                line.stamp = clock;
                line.dirty |= dirty;
                return None;
            }
        }
        self.install(
            range,
            Line {
                tag,
                dirty,
                valid: true,
                stamp: clock,
            },
        )
    }

    /// Inserts the line containing `addr` for a *prefetch*: the new line
    /// lands at LRU position (an epoch-zero stamp) so a wrong guess is its
    /// set's first victim and demand-fetched state is never displaced by
    /// more than one way per set. A line already present keeps its stamp
    /// and dirty bit (prefetching something resident is a no-op), and a
    /// displaced victim is reported exactly as in [`Self::fill`].
    pub fn fill_prefetched(&mut self, addr: u64) -> Option<Eviction> {
        let tag = addr >> self.set_shift;
        let range = self.set_range(addr);
        if self.lines[range.clone()]
            .iter()
            .any(|l| l.valid && l.tag == tag)
        {
            return None;
        }
        self.stats.prefetch_fills += 1;
        if self.trace.enabled() {
            self.trace.bump("prefetch_fills");
        }
        self.install(
            range,
            Line {
                tag,
                dirty: false,
                valid: true,
                stamp: 0,
            },
        )
    }

    /// Installs `line` in the set spanning `range`, over the first invalid
    /// way, else the set's LRU way (minimum stamp, first way on ties), and
    /// counts the eviction. Returns the displaced line if it was valid.
    fn install(&mut self, range: std::ops::Range<usize>, line: Line) -> Option<Eviction> {
        let slot = self.lines.get_mut(range)?.iter_mut().reduce(|best, way| {
            if !best.valid {
                best
            } else if !way.valid || way.stamp < best.stamp {
                way
            } else {
                best
            }
        })?;
        let victim = std::mem::replace(slot, line);
        if !victim.valid {
            return None;
        }
        self.stats.evictions += 1;
        if victim.dirty {
            self.stats.dirty_evictions += 1;
        }
        if self.trace.enabled() {
            self.trace.bump("evictions");
            if victim.dirty {
                self.trace.bump("dirty_evictions");
            }
        }
        Some(Eviction {
            addr: victim.tag << self.set_shift,
            dirty: victim.dirty,
        })
    }

    /// Whether the line containing `addr` is present. Does not disturb LRU
    /// order or statistics.
    pub fn contains(&self, addr: u64) -> bool {
        let tag = addr >> self.set_shift;
        self.lines[self.set_range(addr)]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    /// Whether the line containing `addr` is present and dirty.
    pub fn is_dirty(&self, addr: u64) -> bool {
        let tag = addr >> self.set_shift;
        self.lines[self.set_range(addr)]
            .iter()
            .any(|l| l.valid && l.tag == tag && l.dirty)
    }

    /// Clears the dirty bit of the line containing `addr` (after a
    /// write-through or an explicit flush). No-op when absent.
    pub fn clean(&mut self, addr: u64) {
        let tag = addr >> self.set_shift;
        let set = self.set_range(addr);
        for line in &mut self.lines[set.start..set.end] {
            if line.valid && line.tag == tag {
                line.dirty = false;
            }
        }
    }

    /// Removes the line containing `addr`, returning whether it was dirty.
    pub fn invalidate(&mut self, addr: u64) -> Option<bool> {
        let tag = addr >> self.set_shift;
        let set = self.set_range(addr);
        for line in &mut self.lines[set.start..set.end] {
            if line.valid && line.tag == tag {
                line.valid = false;
                return Some(line.dirty);
            }
        }
        None
    }

    /// Drops every line. Models the loss of volatile state at a crash.
    pub fn clear(&mut self) {
        for line in &mut self.lines {
            line.valid = false;
            line.dirty = false;
        }
    }

    /// Iterates over the line addresses of all dirty lines.
    pub fn dirty_lines(&self) -> impl Iterator<Item = u64> + '_ {
        self.lines
            .iter()
            .filter(|l| l.valid && l.dirty)
            .map(move |l| l.tag << self.set_shift)
    }

    /// Clears the dirty bit of every line whose address satisfies `pred`,
    /// returning the addresses that were cleaned.
    ///
    /// This is the hardware "scan the dirty bits in the metadata cache"
    /// operation AMNT performs on a subtree transition.
    pub fn drain_dirty_where<F: FnMut(u64) -> bool>(&mut self, mut pred: F) -> Vec<u64> {
        let shift = self.set_shift;
        let mut drained = Vec::new();
        for line in &mut self.lines {
            if line.valid && line.dirty {
                let addr = line.tag << shift;
                if pred(addr) {
                    line.dirty = false;
                    drained.push(addr);
                }
            }
        }
        drained
    }

    /// Number of valid lines currently resident.
    pub fn len(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }

    /// Whether the cache holds no valid lines.
    pub fn is_empty(&self) -> bool {
        self.lines.iter().all(|l| !l.valid)
    }

    /// Accumulated hit/miss/eviction statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics (not contents); used at region-of-interest starts.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// The trace-layer counter sink (hits/misses/evictions). Disabled by
    /// default; counts independently of [`CacheStats`] so trace epochs can
    /// reset it without disturbing the artifact-visible statistics.
    pub fn trace(&self) -> &amnt_trace::CompTrace {
        &self.trace
    }

    /// Enables or disables trace-layer counting for this cache.
    pub fn set_tracing(&mut self, on: bool) {
        self.trace.set_enabled(on);
    }

    /// Clears trace-layer counters (keeps the enabled flag); used when the
    /// tracer resets at region-of-interest starts.
    pub fn reset_trace(&mut self) {
        self.trace.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssocCache {
        // 4 sets x 2 ways x 64B = 512B.
        SetAssocCache::new(CacheConfig::new(512, 2, 64)).expect("valid config")
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small();
        assert!(!c.access(0x40, false).hit);
        assert!(c.fill(0x40, false).is_none());
        assert!(c.access(0x40, false).hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn write_hit_sets_dirty() {
        let mut c = small();
        c.fill(0x40, false);
        assert!(!c.is_dirty(0x40));
        c.access(0x40, true);
        assert!(c.is_dirty(0x40));
    }

    #[test]
    fn sub_line_addresses_share_a_line() {
        let mut c = small();
        c.fill(0x40, false);
        assert!(c.access(0x7F, false).hit);
        assert!(!c.access(0x80, false).hit);
    }

    #[test]
    fn lru_eviction_picks_least_recent() {
        let mut c = small();
        // Set stride is 4 sets * 64B = 256B; these three map to set 0.
        c.fill(0x000, false);
        c.fill(0x100, false);
        c.access(0x000, false); // 0x000 is now MRU
        let ev = c.fill(0x200, false).expect("set full, must evict");
        assert_eq!(ev.addr, 0x100);
        assert!(!ev.dirty);
        assert!(c.contains(0x000));
        assert!(!c.contains(0x100));
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = small();
        c.fill(0x000, false);
        c.access(0x000, true);
        c.fill(0x100, false);
        c.access(0x100, false);
        // Evict LRU (0x000, dirty).
        let ev = c.fill(0x200, false).expect("eviction");
        assert_eq!(
            ev,
            Eviction {
                addr: 0x000,
                dirty: true
            }
        );
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn prefetched_line_is_first_victim() {
        let mut c = small();
        c.fill(0x000, false);
        c.fill_prefetched(0x100);
        assert!(c.contains(0x100));
        // The prefetched line carries an epoch-zero stamp: it loses to every
        // demand line regardless of insertion order.
        let ev = c.fill(0x200, false).expect("set full, must evict");
        assert_eq!(ev.addr, 0x100);
        assert!(c.contains(0x000));
        assert_eq!(c.stats().prefetch_fills, 1);
    }

    #[test]
    fn prefetching_resident_line_keeps_state_and_counts_nothing() {
        let mut c = small();
        c.fill(0x000, false);
        c.access(0x000, true);
        assert!(c.fill_prefetched(0x000).is_none());
        assert!(
            c.is_dirty(0x000),
            "resident prefetch must not clear dirty state"
        );
        assert_eq!(c.stats().prefetch_fills, 0);
        // And its stamp was not demoted to the prefetch epoch: a genuinely
        // prefetched sibling loses the eviction race against it.
        c.fill_prefetched(0x100);
        let ev = c.fill(0x200, false).expect("eviction");
        assert_eq!(ev.addr, 0x100);
        assert!(c.contains(0x000));
    }

    #[test]
    fn refill_existing_line_does_not_evict() {
        let mut c = small();
        c.fill(0x000, false);
        c.fill(0x100, false);
        assert!(c.fill(0x000, true).is_none());
        assert!(c.is_dirty(0x000));
        assert!(c.contains(0x100));
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut c = small();
        c.fill(0x40, true);
        assert_eq!(c.invalidate(0x40), Some(true));
        assert_eq!(c.invalidate(0x40), None);
        assert!(!c.contains(0x40));
    }

    #[test]
    fn clean_clears_dirty_bit() {
        let mut c = small();
        c.fill(0x40, true);
        c.clean(0x40);
        assert!(!c.is_dirty(0x40));
        assert!(c.contains(0x40));
    }

    #[test]
    fn clear_models_a_crash() {
        let mut c = small();
        c.fill(0x40, true);
        c.fill(0x80, false);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.dirty_lines().count(), 0);
    }

    #[test]
    fn drain_dirty_where_filters() {
        let mut c = small();
        c.fill(0x000, true);
        c.fill(0x040, true);
        c.fill(0x080, false);
        let drained = c.drain_dirty_where(|a| a < 0x40);
        assert_eq!(drained, vec![0x000]);
        assert!(!c.is_dirty(0x000));
        assert!(c.is_dirty(0x040));
    }

    #[test]
    fn rejects_bad_geometry() {
        assert!(matches!(
            SetAssocCache::new(CacheConfig::new(512, 2, 48)),
            Err(CacheConfigError::BadLineSize(48))
        ));
        assert!(matches!(
            SetAssocCache::new(CacheConfig::new(500, 2, 64)),
            Err(CacheConfigError::NotSetDivisible { .. })
        ));
        assert!(matches!(
            SetAssocCache::new(CacheConfig::new(512, 0, 64)),
            Err(CacheConfigError::ZeroWays)
        ));
        // 3 sets.
        assert!(matches!(
            SetAssocCache::new(CacheConfig::new(3 * 2 * 64, 2, 64)),
            Err(CacheConfigError::SetsNotPowerOfTwo(3))
        ));
    }

    #[test]
    fn config_error_display_is_meaningful() {
        let err = SetAssocCache::new(CacheConfig::new(512, 2, 48)).unwrap_err();
        assert!(err.to_string().contains("power of two"));
    }

    #[test]
    fn prefetched_ties_break_to_the_lower_way() {
        // 4 sets x 4 ways x 64B; set stride is 4 sets * 64B = 256B, so every
        // address here maps to set 0. The first four fill ways 0..=3 in order.
        let mut c = SetAssocCache::new(CacheConfig::new(1024, 4, 64)).unwrap();
        c.fill(0x000, false);
        c.fill_prefetched(0x100);
        c.fill(0x200, false);
        c.fill_prefetched(0x300);
        // Both prefetched lines share stamp 0: the lower way goes first,
        // then the other, and only then the LRU demand line.
        assert_eq!(c.fill(0x400, false).map(|ev| ev.addr), Some(0x100));
        assert_eq!(c.fill(0x500, false).map(|ev| ev.addr), Some(0x300));
        assert_eq!(c.fill(0x600, false).map(|ev| ev.addr), Some(0x000));
        assert!(c.contains(0x200));
    }
}
