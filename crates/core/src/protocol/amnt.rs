//! AMNT protocol state: the fast-subtree register and hot-region tracking.

use super::history::HistoryBuffer;
use amnt_bmt::{NodeBytes, NodeId};

/// Configuration for the AMNT protocol (paper §4, Table 1 defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AmntConfig {
    /// BMT level of the subtree root, paper numbering (root = 1). Table 1
    /// uses level 3 (64 possible subtree regions on an 8-level tree). It
    /// must be a stored level, `2..=` the tree's bottom level; the
    /// controller rejects any other with [`crate::IntegrityError::SubtreeLevel`].
    pub subtree_level: u32,
    /// Writes per hot-region tracking interval (Table 1: 64).
    pub interval_writes: u32,
    /// History buffer entries (Table 1: 64, i.e. 96 bytes on-chip). The
    /// controller rejects 0 with [`crate::IntegrityError::EmptyHistory`].
    pub history_entries: usize,
}

impl Default for AmntConfig {
    fn default() -> Self {
        AmntConfig {
            subtree_level: 3,
            interval_writes: 64,
            history_entries: 64,
        }
    }
}

impl AmntConfig {
    /// Table 1 configuration with the subtree root at `level`.
    pub fn at_level(level: u32) -> Self {
        AmntConfig {
            subtree_level: level,
            ..Self::default()
        }
    }
}

/// Volatile + non-volatile AMNT state held by the controller.
///
/// The `register` pair (node id, node image) models the paper's additional
/// 64-byte non-volatile on-chip register holding the fast subtree root; the
/// history buffer and interval counter are volatile (96 bytes, Table 3).
#[derive(Debug, Clone)]
pub(crate) struct AmntState {
    pub config: AmntConfig,
    /// Non-volatile subtree-root register: which node, and its current image.
    /// `None` until the first interval elects a hot region.
    ///
    /// Updating or retiring this register is a commit point for the lazy
    /// verify queue (see the [module docs](super)): the controller asserts
    /// the queue is empty before a transition republishes the image into
    /// the persistent global path.
    pub register: Option<(NodeId, NodeBytes)>,
    /// Volatile hot-region history buffer.
    pub history: HistoryBuffer,
    /// Volatile count of writes in the current tracking interval.
    pub writes_in_interval: u32,
}

impl AmntState {
    pub fn new(config: AmntConfig) -> Self {
        AmntState {
            config,
            register: None,
            history: HistoryBuffer::new(config.history_entries),
            writes_in_interval: 0,
        }
    }

    /// Drops volatile state at a crash; the NV register survives.
    pub fn crash(&mut self) {
        self.history = HistoryBuffer::new(self.config.history_entries);
        self.writes_in_interval = 0;
    }

    /// Whether `region` (a node index at the subtree level) is currently the
    /// fast subtree.
    pub fn covers(&self, region: u64) -> bool {
        matches!(self.register, Some((id, _)) if id.index == region)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table_1() {
        let c = AmntConfig::default();
        assert_eq!(c.subtree_level, 3);
        assert_eq!(c.interval_writes, 64);
        assert_eq!(c.history_entries, 64);
    }

    #[test]
    fn crash_preserves_register_but_not_history() {
        let mut s = AmntState::new(AmntConfig::default());
        s.register = Some((NodeId { level: 3, index: 5 }, [1u8; 64]));
        s.history.record(5);
        s.writes_in_interval = 10;
        s.crash();
        assert!(s.register.is_some(), "NV register survives");
        assert!(s.history.is_empty());
        assert_eq!(s.writes_in_interval, 0);
    }

    #[test]
    fn covers_checks_region_index() {
        let mut s = AmntState::new(AmntConfig::default());
        assert!(!s.covers(5));
        s.register = Some((NodeId { level: 3, index: 5 }, [0u8; 64]));
        assert!(s.covers(5));
        assert!(!s.covers(6));
    }
}
