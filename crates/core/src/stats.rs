//! Controller-level statistics.

use crate::timing::TimelineStats;
use amnt_cache::CacheStats;

/// Everything the evaluation harness needs to know about one run of the
/// secure-memory engine.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ControllerStats {
    /// Data-block reads served.
    pub data_reads: u64,
    /// Data-block writes (LLC writebacks) served.
    pub data_writes: u64,
    /// Total cycles the core waited on the engine (latency + stalls).
    pub wait_cycles: u64,
    /// Metadata fetched from media (counter blocks, nodes, HMAC blocks).
    pub metadata_fetches: u64,
    /// Persist (crash-consistency) writes issued to media.
    pub persist_writes: u64,
    /// Lazy writeback writes issued to media.
    pub posted_writes: u64,
    /// HMAC computations performed.
    pub hashes: u64,
    /// Writes that fell inside the AMNT fast subtree.
    pub subtree_hits: u64,
    /// Writes that fell outside the AMNT fast subtree.
    pub subtree_misses: u64,
    /// AMNT subtree-root movements.
    pub subtree_transitions: u64,
    /// Minor-counter overflows (page re-encryptions).
    pub counter_overflows: u64,
    /// Anubis shadow-table writes.
    pub shadow_writes: u64,
    /// BMF persistent-root-set prune operations.
    pub bmf_prunes: u64,
    /// BMF persistent-root-set merge operations.
    pub bmf_merges: u64,
    /// High-water mark of simultaneously-stale (dirty) metadata lines: the
    /// largest dirty set a crash would have to roll back.
    pub max_stale_lines: u64,
    /// Subtree-path prefetches issued on detected sequential access (zero
    /// unless [`SecureMemoryConfig::subtree_prefetch`] is on).
    ///
    /// [`SecureMemoryConfig::subtree_prefetch`]: crate::SecureMemoryConfig::subtree_prefetch
    pub prefetches: u64,
}

impl ControllerStats {
    /// Subtree hit rate over all data writes; `1.0` when no writes occurred.
    pub fn subtree_hit_rate(&self) -> f64 {
        let total = self.subtree_hits + self.subtree_misses;
        if total == 0 {
            1.0
        } else {
            self.subtree_hits as f64 / total as f64
        }
    }

    /// Transitions per data write; `0.0` when no writes occurred. Only
    /// writes move the AMNT subtree root, so reads do not dilute the rate.
    pub fn transition_rate(&self) -> f64 {
        if self.data_writes == 0 {
            0.0
        } else {
            self.subtree_transitions as f64 / self.data_writes as f64
        }
    }
}

/// A bundle of every statistics domain, snapshot at once.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Controller-level counters.
    pub controller: ControllerStats,
    /// Metadata cache hit/miss counters.
    pub metadata_cache: CacheStats,
    /// Media timeline counters.
    pub timeline: TimelineStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_empty() {
        assert_eq!(ControllerStats::default().subtree_hit_rate(), 1.0);
        assert_eq!(ControllerStats::default().transition_rate(), 0.0);
    }

    #[test]
    fn hit_rate_computes() {
        let s = ControllerStats {
            subtree_hits: 3,
            subtree_misses: 1,
            ..Default::default()
        };
        assert_eq!(s.subtree_hit_rate(), 0.75);
    }

    #[test]
    fn transition_rate_is_per_data_write() {
        // Doc contract: "Transitions per data write" — reads must not dilute
        // the denominator.
        let s = ControllerStats {
            data_reads: 1000,
            data_writes: 4,
            subtree_transitions: 2,
            ..Default::default()
        };
        assert_eq!(s.transition_rate(), 0.5);
        // Read-only runs report 0 even if a transition somehow occurred.
        let read_only = ControllerStats {
            data_reads: 10,
            subtree_transitions: 1,
            ..Default::default()
        };
        assert_eq!(read_only.transition_rate(), 0.0);
    }
}
